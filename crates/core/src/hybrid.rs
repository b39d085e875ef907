//! `HybridReduction` — per-block adaptive choice between atomic updates
//! and privatization.
//!
//! Not one of the paper's seven reducers, but squarely on its roadmap:
//! §V expects the reducer set "to grow over time", §VII's summary observes
//! that atomics win where "reduction accesses are few and without
//! contention" while block privatization wins at "high locality, both
//! temporal and spatial" — and the paper's related work cites the OmpSs
//! *adaptive privatization* line (Ciesko et al. [19]) that switches between
//! those regimes at run time.
//!
//! Mechanism: each thread counts its touches per block. A block starts in
//! **atomic** mode (zero memory, fine for cold blocks); once a thread has
//! touched the same block `threshold` times, that thread privatizes the
//! block (identity-initialized copy) and all its further updates to the
//! block are thread-local. Hot blocks therefore converge to block-private
//! behavior, cold blocks stay atomic, and the decision needs no prepass,
//! no global coordination and no hints.
//!
//! # Safety protocol
//! During the loop phase the original array is updated **only atomically**
//! (cold-path updates). Private copies are per-thread. After the team
//! barrier, private copies of block `b` are merged by the single thread
//! with `b % nthreads == tid`, in ascending thread order; no atomic
//! updates happen anymore. Hence every location is only ever written
//! atomically, or exclusively after synchronization.

use crate::arena::{BlockArena, BlockRef};
use crate::elem::{AtomicElement, ReduceOp};
use crate::kernels;
use crate::reducer::{ReducerView, Reduction};
use crate::shared::{MemCounter, SharedSlice, Slots};
use crate::telemetry::{Counters, Telemetry, TelemetryBoard};
use std::marker::PhantomData;

/// A thread's privatized hot blocks: handles plus the aligned arena that
/// owns their storage (they travel together; the arena must outlive every
/// handle). Dropped by `finish` — hybrid re-privatizes from scratch each
/// region — but the arena's slabs go back to the process-wide slab pool,
/// so the next region's privatizations reuse the memory.
struct HybridScratch<T> {
    blocks: Vec<Option<BlockRef<T>>>,
    #[allow(dead_code)] // held for ownership; accessed only through `blocks`
    arena: BlockArena<T>,
}

/// Adaptive atomic/privatized reducer; see the module docs.
pub struct HybridReduction<'a, T: AtomicElement, O: ReduceOp<T>> {
    out: SharedSlice<T>,
    block_size: usize,
    threshold: u32,
    nblocks: usize,
    slots: Slots<HybridScratch<T>>,
    nthreads: usize,
    mem: MemCounter,
    telem: TelemetryBoard,
    _borrow: PhantomData<&'a mut [T]>,
    _op: PhantomData<O>,
}

impl<'a, T: AtomicElement, O: ReduceOp<T>> HybridReduction<'a, T, O> {
    /// Wraps `out`; a thread privatizes a block after `threshold` touches.
    ///
    /// `threshold = 0` privatizes on first touch (≈ block-private);
    /// `threshold = u32::MAX` never privatizes (≈ atomic).
    ///
    /// ```
    /// use spray::{reduce, HybridReduction, ReducerView, Sum};
    /// use ompsim::{Schedule, ThreadPool};
    ///
    /// let pool = ThreadPool::new(2);
    /// let mut out = vec![0i64; 10_000];
    /// let red = HybridReduction::<i64, Sum>::new(&mut out, 2, 64, 4);
    /// reduce(&pool, &red, 0..10_000, Schedule::default(), |v, i| {
    ///     v.apply(i % 100, 1); // hot blocks privatize automatically
    /// });
    /// drop(red);
    /// assert_eq!(out[0], 100);
    /// ```
    pub fn new(out: &'a mut [T], nthreads: usize, block_size: usize, threshold: u32) -> Self {
        assert!(nthreads > 0);
        assert!(block_size > 0, "block size must be > 0");
        let nblocks = out.len().div_ceil(block_size);
        HybridReduction {
            out: SharedSlice::new(out),
            block_size,
            threshold,
            nblocks,
            slots: Slots::new(nthreads),
            nthreads,
            mem: MemCounter::new(),
            telem: TelemetryBoard::new(nthreads),
            _borrow: PhantomData,
            _op: PhantomData,
        }
    }
}

/// Per-thread view: touch counters and lazily privatized hot blocks.
pub struct HybridView<T, O> {
    out: SharedSlice<T>,
    /// Touches of each block by this thread (saturating).
    touches: Vec<u32>,
    blocks: Vec<Option<BlockRef<T>>>,
    /// Aligned slab storage behind `blocks`.
    arena: BlockArena<T>,
    block_size: usize,
    threshold: u32,
    len: usize,
    allocated_bytes: usize,
    counters: Counters,
    _op: PhantomData<O>,
}

impl<T: AtomicElement, O: ReduceOp<T>> HybridView<T, O> {
    /// Privatizes block `b` (slow path, once per hot block per thread).
    ///
    /// The arena slot spans the full (padded) block stride, but only the
    /// block's *logical* length — short for the trailing block — counts
    /// toward `allocated_bytes`, keeping `memory_overhead` comparable to
    /// the pre-arena `Box<[T]>` storage.
    #[cold]
    fn privatize(&mut self, b: usize) -> BlockRef<T> {
        let lo = b * self.block_size;
        let n = self.block_size.min(self.len - lo);
        self.allocated_bytes += n * std::mem::size_of::<T>();
        let blk = self.arena.alloc_identity::<O>();
        self.blocks[b] = Some(blk);
        blk
    }
}

impl<T: AtomicElement, O: ReduceOp<T>> ReducerView<T> for HybridView<T, O> {
    #[inline(always)]
    fn apply(&mut self, i: usize, v: T) {
        assert!(i < self.len, "reduction index {i} out of bounds");
        let b = i / self.block_size;
        if let Some(blk) = self.blocks[b] {
            // SAFETY: `i < len` puts the offset inside block `b`'s logical
            // length, which the arena slot covers; the copy is this
            // thread's exclusively during the loop phase.
            unsafe {
                let slot = blk.as_ptr().add(i - b * self.block_size);
                *slot = O::combine(*slot, v);
            }
            return;
        }
        let t = self.touches[b];
        if t == 0 {
            self.counters.block_first_touches += 1;
        }
        if t >= self.threshold {
            // This block just became hot for this thread: privatize and
            // divert the current update to the private copy.
            self.counters.fallback_privatizations += 1;
            let block_size = self.block_size;
            let blk = self.privatize(b);
            // SAFETY: as above — freshly privatized, identity-filled copy.
            unsafe {
                let slot = blk.as_ptr().add(i - b * block_size);
                *slot = O::combine(*slot, v);
            }
        } else {
            self.touches[b] = t + 1;
            // SAFETY: in-bounds; all loop-phase writes to `out` in this
            // strategy are atomic.
            unsafe { self.out.combine_atomic::<O>(i, v) };
        }
    }
}

impl<T: AtomicElement, O: ReduceOp<T>> Reduction<T> for HybridReduction<'_, T, O> {
    type View = HybridView<T, O>;

    fn view(&self, _tid: usize) -> Self::View {
        self.mem.add(
            self.nblocks
                * (std::mem::size_of::<u32>() + std::mem::size_of::<Option<BlockRef<T>>>()),
        );
        HybridView {
            out: self.out,
            touches: vec![0; self.nblocks],
            blocks: (0..self.nblocks).map(|_| None).collect(),
            arena: BlockArena::new(self.block_size),
            block_size: self.block_size,
            threshold: self.threshold,
            len: self.out.len(),
            allocated_bytes: 0,
            counters: Counters::default(),
            _op: PhantomData,
        }
    }

    fn stash(&self, tid: usize, view: Self::View) {
        self.mem.add(view.allocated_bytes);
        self.telem.record(tid, &view.counters);
        // SAFETY: slot `tid` is written only by thread `tid`, pre-barrier.
        unsafe {
            self.slots.put(
                tid,
                HybridScratch {
                    blocks: view.blocks,
                    arena: view.arena,
                },
            )
        };
    }

    fn epilogue(&self, tid: usize) {
        // Merge hot private copies, block-partitioned across threads.
        let mut merged = 0u64;
        for b in (tid..self.nblocks).step_by(self.nthreads) {
            let lo = b * self.block_size;
            let n = self.block_size.min(self.out.len() - lo);
            for t in 0..self.nthreads {
                // SAFETY: post-barrier, slots are read-only.
                let Some(scratch) = (unsafe { self.slots.get(t) }) else {
                    continue;
                };
                if let Some(blk) = scratch.blocks[b] {
                    ompsim::verify::perturb_idx(ompsim::verify::HookPoint::MergeStep, b as u64);
                    // SAFETY: block b is merged only by this thread and
                    // atomic writers stopped at the barrier. No refill:
                    // hybrid drops its copies in `finish` (the next region
                    // re-decides which blocks are hot).
                    unsafe {
                        kernels::merge_into::<T, O>(self.out.as_mut_ptr().add(lo), blk.as_ptr(), n);
                    }
                    merged += n as u64;
                }
            }
        }
        if merged > 0 {
            self.telem
                .add_merged_bytes(tid, merged * std::mem::size_of::<T>() as u64);
        }
    }

    fn finish(&self) {
        for t in 0..self.nthreads {
            // SAFETY: single-threaded after the region.
            if let Some(s) = unsafe { self.slots.take(t) } {
                // Logical bytes, mirroring what `privatize` accounted: the
                // trailing block counts short even though its arena slot
                // spans the full stride.
                let freed: usize = s
                    .blocks
                    .iter()
                    .enumerate()
                    .filter(|(_, blk)| blk.is_some())
                    .map(|(b, _)| {
                        let lo = b * self.block_size;
                        self.block_size.min(self.out.len() - lo) * std::mem::size_of::<T>()
                    })
                    .sum();
                self.mem.sub(
                    freed
                        + self.nblocks
                            * (std::mem::size_of::<u32>()
                                + std::mem::size_of::<Option<BlockRef<T>>>()),
                );
                // Dropping `s` sends the arena's slabs to the slab pool,
                // so the next region re-privatizes without new heap
                // allocations.
            }
        }
    }

    fn name(&self) -> String {
        format!("hybrid-{}-t{}", self.block_size, self.threshold)
    }

    fn num_threads(&self) -> usize {
        self.nthreads
    }

    fn len(&self) -> usize {
        self.out.len()
    }

    fn memory_overhead(&self) -> usize {
        self.mem.peak()
    }

    fn telemetry(&self) -> Telemetry {
        self.telem.snapshot()
    }

    fn record_applies(&self, tid: usize, applies: u64) {
        self.telem.record(
            tid,
            &Counters {
                applies,
                ..Counters::default()
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce;
    use crate::Sum;
    use ompsim::{Schedule, ThreadPool};

    fn run_hybrid(threshold: u32) -> (Vec<i64>, usize) {
        // 90% of updates hammer the first 1000 elements (hot: hundreds of
        // per-thread touches per block); 10% are hash-scattered over a
        // million elements (cold: ≤ a couple of touches per block/thread).
        let pool = ThreadPool::new(4);
        let n = 1_000_000;
        let mut out = vec![0i64; n];
        let red = HybridReduction::<i64, Sum>::new(&mut out, 4, 64, threshold);
        reduce(&pool, &red, 0..50_000, Schedule::default(), |v, i| {
            if i % 10 < 9 {
                v.apply(i % 1000, 1); // hot region
            } else {
                v.apply(i.wrapping_mul(2654435761) % n, 1); // cold scatter
            }
        });
        let mem = red.memory_overhead();
        drop(red);
        (out, mem)
    }

    #[test]
    fn correct_for_all_thresholds() {
        let (reference, _) = run_hybrid(0);
        assert_eq!(reference.iter().sum::<i64>(), 50_000);
        for threshold in [1, 4, 64, u32::MAX] {
            let (out, _) = run_hybrid(threshold);
            assert_eq!(out, reference, "threshold {threshold}");
        }
    }

    #[test]
    fn hot_blocks_privatize_cold_blocks_stay_atomic() {
        let (_, mem_adaptive) = run_hybrid(4);
        let (_, mem_never) = run_hybrid(u32::MAX);
        let (_, mem_always) = run_hybrid(0);
        // Never-privatize pays only bookkeeping; adaptive adds the hot
        // blocks; privatize-on-first-touch adds thousands of cold blocks.
        assert!(
            mem_never < mem_adaptive,
            "never={mem_never} adaptive={mem_adaptive}"
        );
        assert!(
            mem_adaptive < mem_always - 500_000,
            "adaptive={mem_adaptive} always={mem_always}"
        );
    }

    #[test]
    fn works_on_floats_with_contention() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0.0f64; 128];
        let red = HybridReduction::<f64, Sum>::new(&mut out, 4, 16, 4);
        reduce(&pool, &red, 0..12_800, Schedule::dynamic(7), |v, i| {
            v.apply(i % 128, 0.5);
        });
        drop(red);
        assert!(out.iter().all(|&x| (x - 50.0).abs() < 1e-9));
    }

    #[test]
    fn name_carries_parameters() {
        let mut out = vec![0.0f64; 4];
        assert_eq!(
            HybridReduction::<f64, Sum>::new(&mut out, 1, 256, 8).name(),
            "hybrid-256-t8"
        );
    }

    #[test]
    fn reusable_across_regions() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0i64; 100];
        let red = HybridReduction::<i64, Sum>::new(&mut out, 2, 8, 2);
        for _ in 0..3 {
            reduce(&pool, &red, 0..100, Schedule::default(), |v, i| {
                v.apply(i, 1);
            });
        }
        drop(red);
        assert!(out.iter().all(|&x| x == 3));
    }
}
