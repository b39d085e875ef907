//! The paper's second metric is memory overhead per reduction scheme
//! (Figs. 14–16, right panels). These tests pin the analytic expectations
//! of the per-strategy accounting: dense grows with `threads × N`, atomic
//! is zero, block reducers scale with *touched* blocks, keeper with
//! *forwarded* updates.

use ompsim::{Schedule, ThreadPool};
use spray::{reduce_strategy, Kernel, ReducerView, Strategy, Sum};

struct TouchKernel {
    stride: usize,
}
impl Kernel<f64> for TouchKernel {
    fn item<V: ReducerView<f64>>(&self, view: &mut V, i: usize) {
        view.apply(i * self.stride, 1.0);
    }
}

fn run(strategy: Strategy, threads: usize, n: usize, touches: usize, stride: usize) -> usize {
    let pool = ThreadPool::new(threads);
    let mut out = vec![0.0f64; n];
    let kernel = TouchKernel { stride };
    reduce_strategy::<f64, Sum, _>(
        strategy,
        &pool,
        &mut out,
        0..touches,
        Schedule::default(),
        &kernel,
    )
    .memory_overhead
}

#[test]
fn dense_overhead_is_threads_times_array() {
    let n = 100_000;
    for threads in [1, 2, 4] {
        let mem = run(Strategy::Dense, threads, n, 100, 1);
        assert_eq!(mem, threads * n * 8, "threads = {threads}");
    }
}

#[test]
fn atomic_overhead_is_zero() {
    assert_eq!(run(Strategy::Atomic, 4, 100_000, 1000, 1), 0);
}

#[test]
fn block_private_overhead_tracks_touched_blocks() {
    let n = 1_000_000;
    let bs = 1024;
    // Touch 10 widely separated locations: at most 10 blocks + bookkeeping.
    let sparse_mem = run(Strategy::BlockPrivate { block_size: bs }, 2, n, 10, 65536);
    // Touch everything: every block privatized on some thread.
    let dense_mem = run(Strategy::BlockPrivate { block_size: bs }, 2, n, n, 1);
    assert!(
        sparse_mem < dense_mem / 10,
        "sparse {sparse_mem} should be far below dense {dense_mem}"
    );
    // Dense touch allocates at most threads × n elements worth of blocks
    // (plus bookkeeping).
    assert!(dense_mem <= 2 * n * 8 + 4 * (n / bs) * 32);
}

#[test]
fn block_ownership_avoids_private_copies_on_disjoint_access() {
    // With the static schedule, threads touch disjoint contiguous halves:
    // every block is claimed for direct access, so lock/CAS flavors
    // allocate only bookkeeping (no fallback blocks).
    let n = 100_000;
    let bs = 1024;
    for strategy in [
        Strategy::BlockLock { block_size: bs },
        Strategy::BlockCas { block_size: bs },
    ] {
        let mem = run(strategy, 4, n, n, 1);
        assert!(
            mem < n, // bookkeeping only: ~ (n/bs) entries per thread
            "{} allocated {mem} B on conflict-free access",
            strategy.label()
        );
    }
}

#[test]
fn keeper_overhead_tracks_forwarded_updates() {
    let n = 100_000;
    // Matched access: nothing forwarded.
    assert_eq!(run(Strategy::Keeper, 4, n, n, 1), 0);

    // Everything forwarded: strided access pattern hits foreign ranges.
    struct ShiftKernel {
        n: usize,
    }
    impl Kernel<f64> for ShiftKernel {
        fn item<V: ReducerView<f64>>(&self, view: &mut V, i: usize) {
            view.apply((i + self.n / 2) % self.n, 1.0);
        }
    }
    let pool = ThreadPool::new(4);
    let mut out = vec![0.0f64; n];
    let mem = reduce_strategy::<f64, Sum, _>(
        Strategy::Keeper,
        &pool,
        &mut out,
        0..n,
        Schedule::default(),
        &ShiftKernel { n },
    )
    .memory_overhead;
    // n forwarded updates at 16 B each (u32 index padded + f64), with
    // Vec growth slack of at most 2x.
    assert!(mem >= n * 12 && mem <= n * 40, "keeper mem = {mem}");
}

#[test]
fn map_overhead_tracks_entries_not_array() {
    let n = 10_000_000;
    let mem = run(Strategy::MapBTree, 2, n, 100, 1000);
    // ~100 entries at ~24 B, nowhere near the 160 MB dense would take.
    assert!(mem < 100_000, "map overhead {mem} too large");
}

#[test]
fn process_level_accounting_sees_dense_blowup() {
    // Cross-check the reducer self-reports against an independent
    // process-level measurement (memtrack is not installed as the global
    // allocator in the test harness, so compare self-reports only for
    // ordering here).
    let n = 200_000;
    let dense = run(Strategy::Dense, 4, n, 100, 1);
    let block = run(Strategy::BlockCas { block_size: 1024 }, 4, n, 100, 1);
    let atomic = run(Strategy::Atomic, 4, n, 100, 1);
    assert!(dense > block, "dense {dense} !> block {block}");
    assert!(block >= atomic, "block {block} !>= atomic {atomic}");
    assert_eq!(atomic, 0);
}

#[test]
fn concurrent_reducers_report_their_solo_memory_overhead() {
    // `memory_overhead` is each reducer's own accounting, not a reading
    // of process-wide heap counters: two reducers running at the same
    // time on two threads must each report exactly their solo value.
    struct Scatter {
        n: usize,
    }
    impl Kernel<f64> for Scatter {
        fn item<V: ReducerView<f64>>(&self, view: &mut V, i: usize) {
            view.apply((i * 7919) % self.n, 1.0);
        }
    }
    let n = 1 << 15;
    let overhead = |strategy: Strategy| {
        let pool = ThreadPool::new(2);
        let mut out = vec![0.0f64; n];
        reduce_strategy::<f64, Sum, _>(
            strategy,
            &pool,
            &mut out,
            0..2 * n,
            Schedule::default(),
            &Scatter { n },
        )
        .memory_overhead
    };
    for strategy in [
        Strategy::Dense,
        Strategy::BlockPrivate { block_size: 256 },
        Strategy::Keeper,
        Strategy::Segmented { bucket_bits: 8 },
    ] {
        let solo = overhead(strategy);
        assert!(solo > 0, "{}: no overhead to compare", strategy.label());
        // The barrier lines the two threads' regions up round by round.
        let start = std::sync::Barrier::new(2);
        let rounds = || {
            (0..4)
                .map(|_| {
                    start.wait();
                    overhead(strategy)
                })
                .collect::<Vec<_>>()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(rounds);
            let b = s.spawn(rounds);
            (a.join().unwrap(), b.join().unwrap())
        });
        for mem in a.into_iter().chain(b) {
            assert_eq!(mem, solo, "{}: concurrent vs solo", strategy.label());
        }
    }
}
