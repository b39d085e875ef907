//! `SegmentedReduction` — two-level segmented reduction
//! ([`crate::Strategy::Segmented`]).
//!
//! Every other sparse strategy in this crate pays an *ownership protocol*
//! per touched block — a CAS or lock claim, an atomic RMW, or a map
//! insert — on the apply path. At extreme sparsity that protocol is the
//! whole cost: blocks are touched a handful of times, so there is nothing
//! to amortize the claim against. Following Sgap's segment-group
//! reduction (see PAPERS.md), this reducer removes the protocol entirely
//! by splitting the reduction in two levels:
//!
//! 1. **Loop phase (level one):** each thread appends `(offset, value)`
//!    updates into a small cache-resident *bucket* per touched block
//!    (segment). Buckets are arena-backed ([`crate::arena::BlockArena`]):
//!    the value lane is an aligned arena block, the offset lane a short
//!    vector. No synchronization of any kind — the bucket belongs to the
//!    thread.
//!
//!    When a bucket fills, it **spills** (hook point
//!    [`ompsim::verify::HookPoint::BucketSpill`]), one of two ways:
//!    * **promote** the block to a dense private copy (the second level —
//!      an identity-filled arena block; the bucket replays into it and
//!      further applies go straight to the copy), if the thread's share
//!      of the [`PlanBudget`] allows it; or
//!    * **flush** the bucket's entries to the thread's *overflow run* — a
//!      flat `(index, value)` vector, sorted by index at region end — if
//!      the budget is exhausted. This is what makes the time-memory curve
//!      smooth: a shrinking budget converts promotions into overflow
//!      traffic gradually, never into a cliff.
//!
//! 2. **Bucket-owner epilogue (level two):** after the team barrier,
//!    every thread independently derives the *same* owner schedule by
//!    running the plan layer's deterministic LPT scheduler
//!    ([`crate::plan`]) over the published per-block apply counts — no
//!    coordination, no claims. Each block is then drained sequentially by
//!    its single owner: per contributing thread (ascending), the dense
//!    copy merges through the 8-wide [`crate::kernels`] path, then the
//!    overflow run's slice for the block (a `partition_point` range of
//!    the sorted run), then the live bucket entries. One writer per
//!    block, a fixed drain order — deterministic and race-free by
//!    construction.
//!
//! # Region reuse
//!
//! Like the block reducers, [`Reduction::finish`] retains all scratch
//! (bucket arenas, promoted copies, overflow capacity) and resets it for
//! the next region; [`SegmentedReduction::into_scratch`] /
//! [`SegmentedReduction::from_scratch`] detach it across output-buffer
//! swaps. A retained region replays the exact same bucket/spill sequence
//! as a fresh one (promoted blocks restart as buckets and re-promote at
//! the same spill), so verify-mode hook fingerprints are identical
//! fresh-vs-retained.

use crate::arena::{BlockArena, BlockRef};
use crate::elem::{Element, ReduceOp};
use crate::kernels;
use crate::plan::{lpt_schedule, PlanBudget};
use crate::reducer::{ReducerView, Reduction};
use crate::shared::{MemCounter, SharedSlice, Slots};
use crate::telemetry::{Counters, Telemetry, TelemetryBoard};
use std::marker::PhantomData;

/// Per-block level-one state.
const BK_NONE: u8 = 0;
const BK_BUCKET: u8 = 1;
const BK_DENSE: u8 = 2;

/// Bucket capacity for a segment size: small enough that a thread's hot
/// bucket set stays cache-resident, large enough to amortize the spill
/// branch. Tiny segments get tiny buckets so overflow is reachable.
fn bucket_cap(block_size: usize) -> usize {
    block_size.clamp(4, 32)
}

/// One cache-resident bucket: parallel offset/value lanes. The value
/// lane lives in the thread's bucket arena; offsets are in-block
/// (`< block_size`), widened to the array index only on spill.
struct Bucket<T> {
    vals: BlockRef<T>,
    offs: Vec<u32>,
}

/// One thread's retained segmented scratch (buckets, promoted copies,
/// overflow run, footprint lists). Lives in the reduction's slots
/// between regions.
struct SegScratch<T> {
    state: Vec<u8>,
    /// Per-block apply counts this region — the LPT costs the epilogue
    /// schedules by. Indexed by block; reset via `touched`.
    counts: Vec<u32>,
    buckets: Vec<Option<Bucket<T>>>,
    /// Value-lane storage behind `buckets` (owns the allocations).
    bucket_arena: BlockArena<T>,
    /// Level two: promoted dense copies (identity-filled between regions
    /// by the fused merge epilogue, exactly like the block reducers).
    dense: Vec<Option<BlockRef<T>>>,
    dense_arena: BlockArena<T>,
    /// Budget-exhausted spills land here; sorted by index at `stash` so
    /// the epilogue can slice it per block.
    overflow: Vec<(u32, T)>,
    /// Blocks with any contribution this region.
    touched: Vec<u32>,
}

/// Detached segmented scratch, produced by
/// [`SegmentedReduction::into_scratch`] and consumed by
/// [`SegmentedReduction::from_scratch`].
pub struct SegmentedScratch<T> {
    per_thread: Vec<Option<SegScratch<T>>>,
    bucket_bits: u32,
    len: usize,
}

impl<T> SegmentedScratch<T> {
    /// Invalidates every segmented block overlapping `ranges`: cached
    /// per-block resources (open buckets, promoted dense copies) are
    /// dropped and the block's state/count reset, across all threads'
    /// retained scratch.
    ///
    /// Retained segmented scratch never holds stale *values* between
    /// regions (`finish` resets states and the epilogue identity-refills
    /// dense copies), so this is about decisions, not data: a delta
    /// region ([`crate::RegionExecutor::run_delta`]) that rewrote part
    /// of the output invalidates the promotion/capacity choices cached
    /// for those blocks, and the next full region re-derives them from
    /// the post-delta footprint. Dropped blocks simply re-allocate from
    /// the arena on their next first touch.
    pub(crate) fn invalidate_ranges(&mut self, ranges: &[std::ops::Range<usize>]) {
        let bsize = 1usize << self.bucket_bits;
        for r in ranges {
            if r.start >= self.len {
                continue;
            }
            let b0 = r.start >> self.bucket_bits;
            let b1 = (r.end.min(self.len) + bsize - 1) >> self.bucket_bits;
            for s in self.per_thread.iter_mut().flatten() {
                for b in b0..b1.min(s.state.len()) {
                    s.state[b] = BK_NONE;
                    s.counts[b] = 0;
                    s.buckets[b] = None;
                    s.dense[b] = None;
                }
            }
        }
    }

    /// Whether any thread's scratch holds a cached resource (bucket or
    /// dense copy) for the segmented block covering element `i`.
    #[cfg(test)]
    pub(crate) fn has_cached_block(&self, i: usize) -> bool {
        let b = i >> self.bucket_bits;
        self.per_thread
            .iter()
            .flatten()
            .any(|s| s.buckets[b].is_some() || s.dense[b].is_some())
    }
}

/// Two-level segmented reducer; see the module docs.
pub struct SegmentedReduction<'a, T: Element, O: ReduceOp<T>> {
    out: SharedSlice<T>,
    /// `log2(block_size)` — the strategy's `bucket_bits`.
    shift: u32,
    /// `block_size - 1`.
    mask: usize,
    nblocks: usize,
    nthreads: usize,
    slots: Slots<SegScratch<T>>,
    mem: MemCounter,
    telem: TelemetryBoard,
    /// Caps dense promotions; split evenly across threads so every
    /// promote/flush decision is thread-local and deterministic.
    budget: PlanBudget,
    _borrow: PhantomData<&'a mut [T]>,
    _op: PhantomData<O>,
}

impl<'a, T: Element, O: ReduceOp<T>> SegmentedReduction<'a, T, O> {
    /// Wraps `out` with `2^bucket_bits`-element segments and an
    /// unlimited promotion budget.
    pub fn new(out: &'a mut [T], nthreads: usize, bucket_bits: u32) -> Self {
        assert!(nthreads > 0);
        assert!(
            (1..=31).contains(&bucket_bits),
            "bucket_bits must be in 1..=31"
        );
        assert!(
            out.len() <= u32::MAX as usize,
            "segmented reduction indexes with u32"
        );
        let block_size = 1usize << bucket_bits;
        let len = out.len();
        SegmentedReduction {
            out: SharedSlice::new(out),
            shift: bucket_bits,
            mask: block_size - 1,
            nblocks: len.div_ceil(block_size),
            nthreads,
            slots: Slots::new(nthreads),
            mem: MemCounter::new(),
            telem: TelemetryBoard::new(nthreads),
            budget: PlanBudget::UNLIMITED,
            _borrow: PhantomData,
            _op: PhantomData,
        }
    }

    /// Sets the scratch budget capping dense promotions (call between
    /// regions). Each thread gets an even share; a spill that does not
    /// fit the share flushes to the overflow run instead of promoting.
    pub fn set_budget(&mut self, budget: PlanBudget) {
        self.budget = budget;
    }

    /// The segment size in elements (`2^bucket_bits`).
    #[inline]
    pub fn block_size(&self) -> usize {
        self.mask + 1
    }

    /// Block `b`'s range in the array (the last block may be short).
    #[inline]
    fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        let lo = b << self.shift;
        lo..((lo + self.block_size()).min(self.out.len()))
    }

    /// This thread's promotion cap in bytes (even budget share).
    fn promote_limit(&self) -> usize {
        if self.budget.is_unlimited() {
            usize::MAX
        } else {
            self.budget.max_scratch_bytes / self.nthreads
        }
    }

    /// Detaches the retained scratch (run [`Reduction::finish`] first,
    /// which the drivers do automatically).
    pub fn into_scratch(self) -> SegmentedScratch<T> {
        SegmentedScratch {
            per_thread: (0..self.nthreads)
                // SAFETY: `self` is owned; no region is active.
                .map(|t| unsafe { self.slots.take(t) })
                .collect(),
            bucket_bits: self.shift,
            len: self.out.len(),
        }
    }

    /// Rebuilds a reduction over `out` reusing `scratch`'s allocations;
    /// a shape mismatch drops the scratch and starts fresh.
    pub fn from_scratch(
        out: &'a mut [T],
        nthreads: usize,
        bucket_bits: u32,
        scratch: SegmentedScratch<T>,
    ) -> Self {
        let red = Self::new(out, nthreads, bucket_bits);
        let matches = scratch.bucket_bits == bucket_bits
            && scratch.len == red.out.len()
            && scratch.per_thread.len() == nthreads;
        if matches {
            for (t, s) in scratch.per_thread.into_iter().enumerate() {
                if let Some(s) = s {
                    red.mem.add(Self::scratch_bytes(&s, red.block_size()));
                    // SAFETY: `red` is freshly built; no region is active.
                    unsafe { red.slots.put(t, s) };
                }
            }
        }
        red
    }

    /// Bytes a retained scratch carries (bookkeeping + arena blocks),
    /// charged to the new reduction's footprint on reattach.
    fn scratch_bytes(s: &SegScratch<T>, block_size: usize) -> usize {
        let elem = std::mem::size_of::<T>();
        let opt = std::mem::size_of::<Option<BlockRef<T>>>();
        s.state.len() * (1 + 4 + opt * 2)
            + s.buckets
                .iter()
                .flatten()
                .map(|b| b.offs.capacity() * 4 + bucket_cap(block_size) * elem)
                .sum::<usize>()
            + s.dense.iter().flatten().count() * block_size * elem
            + s.overflow.capacity() * std::mem::size_of::<(u32, T)>()
    }
}

/// Per-thread segmented view; all level-one state is thread-local.
pub struct SegmentedView<T: Element, O: ReduceOp<T>> {
    shift: u32,
    mask: usize,
    len: usize,
    cap: usize,
    /// Promotion cap (bytes) for this thread, from the region's budget.
    promote_limit: usize,
    /// Dense bytes promoted *this region* (the budget is per region;
    /// retained allocations are reused without re-allocating).
    promoted_bytes: usize,
    state: Vec<u8>,
    counts: Vec<u32>,
    buckets: Vec<Option<Bucket<T>>>,
    bucket_arena: BlockArena<T>,
    dense: Vec<Option<BlockRef<T>>>,
    dense_arena: BlockArena<T>,
    overflow: Vec<(u32, T)>,
    touched: Vec<u32>,
    allocated_bytes: usize,
    counters: Counters,
    _op: PhantomData<O>,
}

impl<T: Element, O: ReduceOp<T>> SegmentedView<T, O> {
    /// Bucket full: promote the block to a dense copy if the thread's
    /// budget share allows, else flush the entries to the overflow run.
    #[cold]
    fn spill(&mut self, b: usize) {
        ompsim::verify::perturb_idx(ompsim::verify::HookPoint::BucketSpill, b as u64);
        let block_bytes = (self.mask + 1) * std::mem::size_of::<T>();
        let bk = self.buckets[b].as_mut().unwrap();
        if self.promoted_bytes + block_bytes <= self.promote_limit {
            // Promote. Retained copies are already identity-filled by the
            // fused merge epilogue; fresh ones come out of the arena so.
            if self.dense[b].is_none() {
                self.dense[b] = Some(self.dense_arena.alloc_identity::<O>());
                self.allocated_bytes += block_bytes;
            }
            self.promoted_bytes += block_bytes;
            self.counters.fallback_privatizations += 1;
            let dst = self.dense[b].unwrap().as_ptr();
            // SAFETY: full-stride private copy, this thread's exclusively;
            // offsets are `< block_size` by construction.
            unsafe {
                let vals = bk.vals.as_ptr();
                for (k, &off) in bk.offs.iter().enumerate() {
                    let slot = dst.add(off as usize);
                    *slot = O::combine(*slot, *vals.add(k));
                }
            }
            bk.offs.clear();
            self.state[b] = BK_DENSE;
        } else {
            // Flush: widen offsets to array indices; the run is sorted
            // once at `stash`.
            let base = (b << self.shift) as u32;
            // SAFETY: exactly `offs.len()` values were written.
            let vals = unsafe { bk.vals.as_slice(bk.offs.len()) };
            self.overflow
                .extend(bk.offs.iter().zip(vals).map(|(&o, &v)| (base + o, v)));
            bk.offs.clear();
        }
    }
}

impl<T: Element, O: ReduceOp<T>> ReducerView<T> for SegmentedView<T, O> {
    #[inline]
    fn apply(&mut self, i: usize, v: T) {
        assert!(
            i < self.len,
            "reduction index {i} out of bounds (len {})",
            self.len
        );
        let b = i >> self.shift;
        let mut st = self.state[b];
        if st == BK_NONE {
            // First touch: open a bucket (reusing a retained one).
            self.counters.block_first_touches += 1;
            if self.buckets[b].is_none() {
                self.buckets[b] = Some(Bucket {
                    vals: self.bucket_arena.alloc_identity::<O>(),
                    offs: Vec::with_capacity(self.cap),
                });
                self.allocated_bytes += self.cap * (std::mem::size_of::<T>() + 4);
            }
            self.touched.push(b as u32);
            self.state[b] = BK_BUCKET;
            st = BK_BUCKET;
        }
        self.counts[b] = self.counts[b].saturating_add(1);
        if st == BK_DENSE {
            let p = self.dense[b].unwrap().as_ptr();
            // SAFETY: full-stride private copy, this thread's exclusively.
            unsafe {
                let slot = p.add(i & self.mask);
                *slot = O::combine(*slot, v);
            }
            return;
        }
        if self.buckets[b].as_ref().unwrap().offs.len() == self.cap {
            self.spill(b);
            if self.state[b] == BK_DENSE {
                let p = self.dense[b].unwrap().as_ptr();
                // SAFETY: as above.
                unsafe {
                    let slot = p.add(i & self.mask);
                    *slot = O::combine(*slot, v);
                }
                return;
            }
        }
        let bk = self.buckets[b].as_mut().unwrap();
        let k = bk.offs.len();
        bk.offs.push((i & self.mask) as u32);
        // SAFETY: `k < cap` (spill above keeps the bucket short) and the
        // value lane is a `cap`-element arena block owned by this thread.
        unsafe { *bk.vals.as_ptr().add(k) = v };
    }
}

impl<T: Element, O: ReduceOp<T>> Reduction<T> for SegmentedReduction<'_, T, O> {
    type View = SegmentedView<T, O>;

    fn view(&self, tid: usize) -> Self::View {
        // SAFETY: slot `tid` is touched only by thread `tid` pre-barrier.
        let retained = unsafe { self.slots.take(tid) };
        let s = retained.unwrap_or_else(|| {
            let opt = std::mem::size_of::<Option<BlockRef<T>>>();
            self.mem.add(self.nblocks * (1 + 4 + opt * 2));
            SegScratch {
                state: vec![BK_NONE; self.nblocks],
                counts: vec![0; self.nblocks],
                buckets: (0..self.nblocks).map(|_| None).collect(),
                bucket_arena: BlockArena::new(bucket_cap(self.block_size())),
                dense: (0..self.nblocks).map(|_| None).collect(),
                dense_arena: BlockArena::new(self.block_size()),
                overflow: Vec::new(),
                touched: Vec::new(),
            }
        });
        SegmentedView {
            shift: self.shift,
            mask: self.mask,
            len: self.out.len(),
            cap: bucket_cap(self.block_size()),
            promote_limit: self.promote_limit(),
            promoted_bytes: 0,
            state: s.state,
            counts: s.counts,
            buckets: s.buckets,
            bucket_arena: s.bucket_arena,
            dense: s.dense,
            dense_arena: s.dense_arena,
            overflow: s.overflow,
            touched: s.touched,
            allocated_bytes: 0,
            counters: Counters::default(),
            _op: PhantomData,
        }
    }

    fn stash(&self, tid: usize, mut view: Self::View) {
        // Sort the overflow run by index (stable: equal indices keep
        // insertion order, so the drain order is a pure function of the
        // thread's apply stream).
        view.overflow.sort_by_key(|e| e.0);
        self.mem
            .add(view.allocated_bytes + view.overflow.len() * std::mem::size_of::<(u32, T)>());
        self.telem.record(tid, &view.counters);
        // SAFETY: slot `tid` is written only by thread `tid`, pre-barrier.
        unsafe {
            self.slots.put(
                tid,
                SegScratch {
                    state: view.state,
                    counts: view.counts,
                    buckets: view.buckets,
                    bucket_arena: view.bucket_arena,
                    dense: view.dense,
                    dense_arena: view.dense_arena,
                    overflow: view.overflow,
                    touched: view.touched,
                },
            )
        };
    }

    fn epilogue(&self, tid: usize) {
        // Every thread derives the same LPT owner schedule from the
        // published per-block apply counts — no ownership protocol.
        let mut costs = std::collections::BTreeMap::<u32, u64>::new();
        for t in 0..self.nthreads {
            // SAFETY: post-barrier, slots are read-only.
            let Some(s) = (unsafe { self.slots.get(t) }) else {
                continue;
            };
            for &b in &s.touched {
                *costs.entry(b).or_insert(0) += s.counts[b as usize] as u64;
            }
        }
        let costs: Vec<(u32, u64)> = costs.into_iter().collect();
        let schedule = lpt_schedule(&costs, self.nthreads);
        let mut merged_bytes = 0u64;
        for &b in &schedule[tid] {
            let b = b as usize;
            ompsim::verify::perturb_idx(ompsim::verify::HookPoint::MergeStep, b as u64);
            let range = self.block_range(b);
            for t in 0..self.nthreads {
                // SAFETY: post-barrier, slots are read-only.
                let Some(s) = (unsafe { self.slots.get(t) }) else {
                    continue;
                };
                // Dense promoted copy first (fused merge+refill).
                if s.state[b] == BK_DENSE {
                    let blk = s.dense[b].unwrap();
                    // SAFETY: block `b` is drained only by this thread
                    // (deterministic schedule), the copy's writer stopped
                    // at the barrier.
                    unsafe {
                        kernels::merge_refill_into::<T, O>(
                            self.out.as_mut_ptr().add(range.start),
                            blk.as_ptr(),
                            range.len(),
                        );
                    }
                    merged_bytes += (range.len() * std::mem::size_of::<T>()) as u64;
                }
                // Then the overflow run's slice for this block.
                let lo = s.overflow.partition_point(|e| (e.0 as usize) < range.start);
                let hi = s.overflow.partition_point(|e| (e.0 as usize) < range.end);
                for &(i, v) in &s.overflow[lo..hi] {
                    // SAFETY: single drainer per block post-barrier.
                    unsafe { self.out.combine::<O>(i as usize, v) };
                }
                merged_bytes += ((hi - lo) * std::mem::size_of::<T>()) as u64;
                // Finally the live bucket entries, in insertion order.
                if let Some(bk) = &s.buckets[b] {
                    if !bk.offs.is_empty() {
                        // SAFETY: exactly `offs.len()` values written.
                        let vals = unsafe { bk.vals.as_slice(bk.offs.len()) };
                        for (&off, &v) in bk.offs.iter().zip(vals) {
                            // SAFETY: single drainer per block.
                            unsafe { self.out.combine::<O>(range.start + off as usize, v) };
                        }
                        merged_bytes += (bk.offs.len() * std::mem::size_of::<T>()) as u64;
                    }
                }
            }
        }
        if merged_bytes > 0 {
            self.telem.add_merged_bytes(tid, merged_bytes);
        }
    }

    /// Resets for the next region **without freeing**: touched blocks go
    /// back to unopened (their buckets keep the value-lane allocation,
    /// promoted copies were identity-refilled by the merge epilogue), the
    /// overflow runs clear in place.
    fn finish(&self) {
        for t in 0..self.nthreads {
            // SAFETY: single-threaded after the region.
            if let Some(mut s) = unsafe { self.slots.take(t) } {
                for &b in &s.touched {
                    let b = b as usize;
                    s.state[b] = BK_NONE;
                    s.counts[b] = 0;
                    if let Some(bk) = &mut s.buckets[b] {
                        bk.offs.clear();
                    }
                }
                s.touched.clear();
                s.overflow.clear();
                unsafe { self.slots.put(t, s) };
            }
        }
    }

    fn name(&self) -> String {
        format!("segmented-{}", self.shift)
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

    #[test]
    fn overlapping_updates_across_threads() {
        let pool = ThreadPool::new(4);
        let n = 1000;
        let mut out = vec![0i64; n];
        let red = SegmentedReduction::<i64, Sum>::new(&mut out, 4, 6);
        reduce(&pool, &red, 0..n, Schedule::dynamic(7), |v, i| {
            v.apply(i, 1);
            v.apply((i + 1) % n, 1);
        });
        drop(red);
        assert!(out.iter().all(|&x| x == 2));
    }

    #[test]
    fn forced_overflow_spills_stay_exact() {
        // Tiny segments (cap 4): hammering one element forces repeated
        // spills; a zero budget forbids promotion, so everything flows
        // through the sorted overflow run.
        let pool = ThreadPool::new(3);
        let n = 130;
        let mut out = vec![0i64; n];
        let mut red = SegmentedReduction::<i64, Sum>::new(&mut out, 3, 1);
        red.set_budget(PlanBudget::new(0));
        reduce(&pool, &red, 0..3900, Schedule::dynamic(5), |v, i| {
            v.apply(i % n, 1);
            v.apply((i * 31) % n, 1);
        });
        let t = red.telemetry().totals();
        assert_eq!(t.fallback_privatizations, 0, "zero budget must not promote");
        drop(red);
        let mut expected = vec![0i64; n];
        for i in 0..3900usize {
            expected[i % n] += 1;
            expected[(i * 31) % n] += 1;
        }
        assert_eq!(out, expected);
    }

    #[test]
    fn promotion_unlocks_dense_copies_under_unlimited_budget() {
        let pool = ThreadPool::new(2);
        let n = 4096;
        let mut out = vec![0i64; n];
        let red = SegmentedReduction::<i64, Sum>::new(&mut out, 2, 5);
        // 64 hits per element of block 0: the bucket (cap 32) spills and
        // promotes on the first fill.
        reduce(&pool, &red, 0..4096, Schedule::default(), |v, i| {
            v.apply(i % 64, 1);
        });
        let t = red.telemetry().totals();
        assert!(t.fallback_privatizations > 0, "expected promotions: {t:?}");
        assert!(t.merged_bytes > 0);
        drop(red);
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, if i < 64 { 64 } else { 0 }, "out[{i}]");
        }
    }

    #[test]
    fn budget_bounds_promoted_scratch() {
        let pool = ThreadPool::new(2);
        let n = 1 << 14;
        let block_bytes = (1usize << 7) * std::mem::size_of::<i64>();
        // Room for exactly one promoted block per thread.
        let budget = PlanBudget::new(2 * block_bytes);
        let mut out = vec![0i64; n];
        let mut red = SegmentedReduction::<i64, Sum>::new(&mut out, 2, 7);
        red.set_budget(budget);
        reduce(&pool, &red, 0..(64 * 1024), Schedule::default(), |v, i| {
            v.apply((i * 127) % n, 1);
        });
        let t = red.telemetry().totals();
        assert!(
            t.fallback_privatizations <= 2,
            "budget allows one promotion per thread: {t:?}"
        );
        drop(red);
        assert_eq!(out.iter().sum::<i64>(), 64 * 1024);
    }

    #[test]
    fn retained_scratch_matches_fresh_runs() {
        let pool = ThreadPool::new(3);
        let n = 500;
        let mut a = vec![0i64; n];
        let mut b = vec![0i64; n];

        let red = SegmentedReduction::<i64, Sum>::new(&mut a, 3, 3);
        reduce(&pool, &red, 0..n, Schedule::dynamic(7), |v, i| {
            v.apply((i + 1) % n, 1);
        });
        let scratch = red.into_scratch();

        let red = SegmentedReduction::<i64, Sum>::from_scratch(&mut b, 3, 3, scratch);
        reduce(&pool, &red, 0..n, Schedule::dynamic(7), |v, i| {
            v.apply((i + 1) % n, 2);
        });
        drop(red);

        assert!(a.iter().all(|&x| x == 1));
        assert!(b.iter().all(|&x| x == 2));
    }

    #[test]
    fn repeated_regions_do_not_grow_peak_memory() {
        let pool = ThreadPool::new(2);
        let mut out = vec![0i64; 10_000];
        let red = SegmentedReduction::<i64, Sum>::new(&mut out, 2, 7);
        reduce(&pool, &red, 0..10_000, Schedule::default(), |v, i| {
            v.apply(i, 1);
        });
        let peak_after_one = red.memory_overhead();
        for _ in 0..5 {
            reduce(&pool, &red, 0..10_000, Schedule::default(), |v, i| {
                v.apply(i, 1);
            });
        }
        assert_eq!(red.memory_overhead(), peak_after_one);
        drop(red);
        assert!(out.iter().all(|&x| x == 6));
    }

    #[test]
    fn floats_accumulate_within_tolerance() {
        let pool = ThreadPool::new(4);
        let n = 257; // short trailing block
        let mut out = vec![0.0f64; n];
        let red = SegmentedReduction::<f64, Sum>::new(&mut out, 4, 4);
        reduce(&pool, &red, 0..10_000, Schedule::dynamic(3), |v, i| {
            v.apply((i * 13) % n, 0.5);
        });
        drop(red);
        let total: f64 = out.iter().sum();
        assert!((total - 5_000.0).abs() < 1e-6, "total {total}");
    }
}
