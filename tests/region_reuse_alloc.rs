//! Region reuse must actually stop allocating, and must not change
//! results: a PageRank-style loop that drives one [`RegionExecutor`]
//! region after region may not allocate new privatization scratch once
//! warm, and produces the same ranks as fresh reducers. Allocations are
//! counted with the `memtrack` counting allocator — the same instrument
//! the benches use for the paper's memory overhead measurements.
//!
//! `memtrack`'s counters are process-wide, so every test in this file
//! holds [`SERIAL`]: no sibling test allocates inside a counting window.

mod common;

use common::{build_graph, run_regions_reused, PushKernel};
use ompsim::{Schedule, ThreadPool};
use spray::{reduce_strategy, RegionExecutor, Strategy, Sum};
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;

/// Serializes this file's tests (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Region reuse must actually stop allocating: a PageRank-style loop
/// that drives a [`RegionExecutor`] region after region may not allocate
/// new privatization scratch once warm.
#[test]
fn warm_pagerank_regions_do_not_allocate_scratch() {
    let _serial = serial();
    let n = 1 << 13;
    let block = 64;
    let (offsets, targets) = build_graph(n);
    let pool = ThreadPool::new(4);
    let mut ranks = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];

    for strategy in [
        Strategy::BlockPrivate { block_size: block },
        Strategy::BlockLock { block_size: block },
        Strategy::BlockCas { block_size: block },
    ] {
        let mut reducer = RegionExecutor::<f64, Sum>::new(strategy);

        // Warm-up: the first regions materialize status tables and private
        // block copies; `finish` retains them for the next region.
        run_regions_reused(
            &pool,
            &mut reducer,
            &offsets,
            &targets,
            &mut ranks,
            &mut next,
            2,
        );

        // Warm regions: all reducer scratch must come from the retained
        // pool. The only remaining allocations are the driver's per-region
        // bookkeeping (schedule instance, job dispatch), a small constant
        // per region independent of array length and block count.
        let regions = 5;
        let before = memtrack::total_allocations();
        run_regions_reused(
            &pool,
            &mut reducer,
            &offsets,
            &targets,
            &mut ranks,
            &mut next,
            regions,
        );
        let warm = memtrack::total_allocations() - before;

        // Fresh-reducer baseline over the same regions: every region pays
        // for status tables, slot vectors and private block copies anew.
        let before = memtrack::total_allocations();
        for _ in 0..regions {
            next.iter_mut().for_each(|x| *x = 0.0);
            let kernel = PushKernel {
                offsets: &offsets,
                targets: &targets,
                ranks: &ranks,
            };
            reduce_strategy::<f64, Sum, _>(
                strategy,
                &pool,
                &mut next,
                0..n,
                Schedule::default(),
                &kernel,
            );
            std::mem::swap(&mut ranks, &mut next);
        }
        let fresh = memtrack::total_allocations() - before;

        assert!(
            warm <= regions * 64,
            "{}: warm regions allocated {warm} times over {regions} regions \
             (> {} budget) — scratch is being rebuilt instead of reused",
            strategy.label(),
            regions * 64,
        );
        assert!(
            warm * 4 < fresh,
            "{}: warm path ({warm} allocs) should be far below the \
             fresh-reducer path ({fresh} allocs)",
            strategy.label(),
        );
    }
}

#[test]
fn reused_pagerank_matches_fresh_run() {
    let _serial = serial();
    // Numerical cross-check for the loop above: the reused reducer's ranks
    // after k regions equal a fresh-reducer run's ranks after k regions.
    let n = 1 << 10;
    let (offsets, targets) = build_graph(n);
    let pool = ThreadPool::new(3);
    let strategy = Strategy::BlockCas { block_size: 32 };
    let regions = 4;

    let mut ranks_reused = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut reducer = RegionExecutor::<f64, Sum>::new(strategy);
    run_regions_reused(
        &pool,
        &mut reducer,
        &offsets,
        &targets,
        &mut ranks_reused,
        &mut next,
        regions,
    );

    let mut ranks_fresh = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..regions {
        next.iter_mut().for_each(|x| *x = 0.0);
        let kernel = PushKernel {
            offsets: &offsets,
            targets: &targets,
            ranks: &ranks_fresh,
        };
        reduce_strategy::<f64, Sum, _>(
            strategy,
            &pool,
            &mut next,
            0..n,
            Schedule::default(),
            &kernel,
        );
        std::mem::swap(&mut ranks_fresh, &mut next);
    }

    for (i, (&a, &b)) in ranks_reused.iter().zip(&ranks_fresh).enumerate() {
        assert!(
            (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0),
            "rank {i}: reused {a} vs fresh {b}"
        );
    }
}
