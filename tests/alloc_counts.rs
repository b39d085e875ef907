//! Slab-arena allocation shape, alone in its own test process.
//!
//! `memtrack`'s counters are process-wide: a test that reads them while
//! sibling tests allocate on other threads counts the siblings too.
//! Cargo runs each `tests/*.rs` file as its own process, and this file
//! holds a single `#[test]`, so no other test can allocate inside its
//! measurement window. (The other heap-counting checks,
//! `region_reuse_alloc` and `topology_props`, serialize the tests of
//! their own file behind a lock instead.)
//!
//! Reducer memory accounting (`RunReport::memory_overhead`) does not read
//! these counters; `tests/memory_accounting.rs` checks that it is exact
//! under concurrent reducers.

use ompsim::{Schedule, ThreadPool};
use spray::{reduce_strategy, Kernel, ReducerView, Strategy, Sum};

#[global_allocator]
static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;

/// Privatizing every block of the array must allocate like a slab arena
/// (a handful of doubling slabs per thread), not like the seed's
/// one-`Box<[T]>`-per-block storage: strictly fewer heap allocations
/// than privatized blocks, for the whole region end to end.
#[test]
fn arena_allocates_slabs_not_per_block() {
    let n = 8192usize;
    let block = 64usize; // 128 blocks, each privatized by exactly one thread
    let pool = ThreadPool::new(4);
    let mut out = vec![0.0f64; n];

    struct TouchAll;
    impl Kernel<f64> for TouchAll {
        fn item<V: ReducerView<f64>>(&self, view: &mut V, i: usize) {
            view.apply(i, 1.0);
        }
    }

    let before = memtrack::total_allocations();
    let report = reduce_strategy::<f64, Sum, _>(
        Strategy::BlockPrivate { block_size: block },
        &pool,
        &mut out,
        0..n,
        Schedule::default(),
        &TouchAll,
    );
    let allocs = memtrack::total_allocations() - before;

    let privatized = report.counters.totals().fallback_privatizations;
    assert_eq!(
        privatized,
        (n / block) as u64,
        "every block privatizes once"
    );
    // The region's *entire* allocation count — bookkeeping vectors, slabs,
    // report strings and all — must stay below one allocation per
    // privatized block; the seed's boxed-slice storage alone used one per
    // block before any bookkeeping.
    assert!(
        (allocs as u64) < privatized,
        "region allocated {allocs} times for {privatized} privatized blocks — \
         per-block allocation is back"
    );
    assert!(out.iter().all(|&x| x == 1.0));
}
