//! Topology-sharding properties.
//!
//! The executor shards output ownership, merge schedules and arena
//! placement by NUMA node ([`ompsim::Topology`]), but a node shard is
//! always the union of its threads' contiguous static chunks — so the
//! element→owner map is *identical* to the flat partition and sharding
//! must never change results. Two things must hold:
//!
//! * **Shard-boundary bit-identity.** For every strategy, a run on an
//!   emulated sharded topology must be bit-identical to the same run on
//!   the flat topology (and to the sequential loop), including the
//!   adversarial shapes: lengths not divisible by the node count,
//!   shards that fit inside a single privatization block, and
//!   topologies with more nodes than live threads (zero-length shards).
//! * **First-touch isolation.** Per-node [`spray::ArenaPool`]s must
//!   never alias or exchange slabs across nodes: a slab released on one
//!   node's pool is recycled by that pool only, and a sibling pool
//!   always allocates fresh memory — verified with the `memtrack`
//!   counting allocator.
//!
//! `memtrack`'s counters are process-wide, so every test in this file
//! holds [`SERIAL`]: no sibling test allocates inside a counting window.

use ompsim::{Schedule, ThreadPool, Topology};
use proptest::prelude::*;
use spray::{reduce_strategy, ArenaPool, BlockArena, Kernel, ReducerView, Strategy, Sum};
use std::sync::{Arc, Mutex, MutexGuard};

#[global_allocator]
static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;

/// Serializes this file's tests (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Seeded scatter: iteration `i` applies two pseudo-random updates, so
/// streams cross shard boundaries constantly. i64 sums are exactly
/// associative — any divergence between topologies is corruption, not
/// reassociation.
struct ScatterKernel {
    n: usize,
    seed: u64,
}

impl Kernel<i64> for ScatterKernel {
    fn item<V: ReducerView<i64>>(&self, view: &mut V, i: usize) {
        let mut s = self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for _ in 0..2 {
            let h = splitmix64(&mut s);
            view.apply((h as usize) % self.n, (h >> 32) as i64 % 8);
        }
    }
}

/// Runs every strategy on the flat topology and on `topo`, requiring
/// both bit-identical to the sequential loop (and hence to each other).
fn check_sharded_matches_flat(len: usize, threads: usize, topo: Topology, block: usize, seed: u64) {
    let _serial = serial();
    let iters = 150usize;
    let kernel = ScatterKernel { n: len, seed };

    let mut expected = vec![0i64; len];
    for i in 0..iters {
        let mut s = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for _ in 0..2 {
            let h = splitmix64(&mut s);
            expected[(h as usize) % len] += (h >> 32) as i64 % 8;
        }
    }

    let flat_pool = ThreadPool::with_topology(threads, Topology::flat(threads));
    let sharded_pool = ThreadPool::with_topology(threads, topo);
    for strategy in Strategy::all(block) {
        for (label, pool) in [("flat", &flat_pool), ("sharded", &sharded_pool)] {
            let mut out = vec![0i64; len];
            reduce_strategy::<i64, Sum, _>(
                strategy,
                pool,
                &mut out,
                0..iters,
                Schedule::default(),
                &kernel,
            );
            assert_eq!(
                out,
                expected,
                "{} {label} (len {len}, threads {threads}, topo {}x{}, block {block})",
                strategy.label(),
                topo.nodes(),
                topo.cores_per_socket()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn sharded_execution_is_bit_identical_to_flat(
        len in 1usize..300,
        threads in 1usize..5,
        topo in prop::sample::select(vec![
            Topology::new(1, 4),
            Topology::new(2, 2),
            Topology::new(4, 1),
            Topology::new(2, 3),
            Topology::new(3, 1),
        ]),
        block in prop::sample::select(vec![1usize, 3, 48, 257]),
        seed in any::<u64>(),
    ) {
        check_sharded_matches_flat(len, threads, topo, block, seed);
    }
}

/// Length not divisible by the node count: the last node's shard
/// absorbs the remainder and the boundary falls mid-block.
#[test]
fn shard_boundary_survives_indivisible_length() {
    for len in [257usize, 101, 63] {
        check_sharded_matches_flat(len, 4, Topology::new(2, 2), 32, 0xB0B);
    }
}

/// Shards smaller than one privatization block: the whole array fits in
/// a single block, so both node shards share it and every merge is a
/// partial-tail path.
#[test]
fn single_block_shards_stay_exact() {
    check_sharded_matches_flat(8, 4, Topology::new(2, 2), 1024, 0xB10C);
    check_sharded_matches_flat(8, 4, Topology::new(2, 2), 4, 0xB10C);
}

/// More nodes than live threads: trailing nodes own zero threads and
/// zero-length shards, and must contribute nothing (and break nothing).
#[test]
fn zero_length_shards_are_inert() {
    // 4 nodes of 2 cores but only 3 threads: node 1 is half-populated,
    // nodes 2 and 3 own no threads at all.
    check_sharded_matches_flat(100, 3, Topology::new(4, 2), 16, 0x2E80);
    // More nodes than elements, too.
    check_sharded_matches_flat(2, 4, Topology::new(4, 1), 16, 0x2E81);
}

/// Per-node pools are first-touch islands: a slab released to node A's
/// pool is A's alone. Node B's arena must allocate fresh memory (never
/// A's live recycled slab), and reacquiring on A must hand back the
/// very same slab without touching the heap for slab storage.
#[test]
fn per_node_pools_never_alias_slabs() {
    let _serial = serial();
    let pool_a = Arc::new(ArenaPool::new());
    let pool_b = Arc::new(ArenaPool::new());
    let block_elems = 1024usize;

    let (first_ptr, slab_bytes) = {
        let mut arena = BlockArena::<i64>::with_pool(block_elems, pool_a.clone());
        let b = arena.alloc_identity::<Sum>();
        (b.as_ptr() as usize, arena.slab_bytes())
    };
    assert!(slab_bytes > 0);
    assert_eq!(
        pool_a.pooled_bytes(),
        slab_bytes,
        "dropping the arena parks its slab in its own pool"
    );
    assert_eq!(pool_b.pooled_bytes(), 0, "the sibling pool saw nothing");

    // Node B's arena: pool A still holds its slab alive, so an honest
    // per-node pool can never hand B that address — and the slab must
    // come off the heap, not out of any pool.
    let heap_before = memtrack::current_bytes();
    let mut arena_b = BlockArena::<i64>::with_pool(block_elems, pool_b.clone());
    let b_ptr = arena_b.alloc_identity::<Sum>().as_ptr() as usize;
    assert_ne!(b_ptr, first_ptr, "node B was handed node A's slab");
    assert!(
        memtrack::current_bytes() - heap_before >= slab_bytes,
        "node B's slab must be fresh heap, not recycled from another node"
    );
    assert_eq!(
        pool_a.pooled_bytes(),
        slab_bytes,
        "node A's slab never leaves node A's pool"
    );

    // Reacquiring on node A recycles node A's own slab: same backing
    // address, no fresh slab-sized heap growth.
    let heap_before = memtrack::current_bytes();
    let mut arena_a = BlockArena::<i64>::with_pool(block_elems, pool_a.clone());
    let a_ptr = arena_a.alloc_identity::<Sum>().as_ptr() as usize;
    assert_eq!(a_ptr, first_ptr, "node A must recycle its own slab");
    assert!(
        memtrack::current_bytes() - heap_before < slab_bytes,
        "recycled reacquire must not reallocate the slab"
    );
    assert_eq!(pool_a.pooled_bytes(), 0, "the slab is back in use");

    drop(arena_b);
    assert_eq!(
        pool_b.pooled_bytes(),
        slab_bytes,
        "node B's slab parks in node B's pool"
    );
}
