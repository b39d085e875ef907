//! Online strategy adaptation for the region executor — the workspace's
//! one strategy selector.
//!
//! The paper frames strategy choice as depending on "the hardware,
//! application, and input data" (§I), and its outlook (§IX) asks for a
//! generic reducer that takes that choice away from the user. A
//! long-running workload can also drift away from any up-front choice
//! (PageRank's frontier collapsing, a histogram's key distribution
//! shifting from hot to scattered). This module closes the loop: after
//! every region the executor scores its *current* strategy against the
//! signals that region recorded, and when the score stays out of band
//! for [`PATIENCE`] consecutive regions it migrates to the candidate the
//! signals recommend.
//!
//! The cost model is made only of **deterministic** signals — pure
//! functions of the workload and the scratch budget, never of wall time
//! or of the pool's topology — so the whole migration sequence is
//! reproducible for a fixed region stream on any pool:
//!
//! * **applies per element** — region applies / output length, the
//!   sparsity axis of §VII's summary. Privatizing strategies pay
//!   per-touched-block setup + merge, so they want density; atomics and
//!   keeper want sparsity.
//! * **scratch pressure** — region scratch bytes over the
//!   [`crate::PlanBudget`] in force.
//! * **plan deviation** — a replayed [`crate::RegionPlan`] that deviated
//!   this region (the footprint moved under a cached plan).
//!
//! [`score`] maps those to a single mismatch number whose **hysteresis
//! band is `[0, 1]`**: each component is normalized so `1.0` sits exactly
//! at its threshold, and the score is the worst component (plus a
//! deviation surcharge). One bad region never migrates — the executor
//! migrates only after `PATIENCE` consecutive out-of-band regions, and
//! the streak resets on any in-band region, so oscillating workloads
//! settle rather than thrash.
//!
//! Migration itself is performed by
//! [`crate::RegionExecutor::migrate_to`]; see DESIGN.md §"Adaptive
//! execution" for the drain/invalidate/switch protocol and the `verify`
//! hook that makes planted migration schedules replayable from a seed.

use crate::strategy::Strategy;

/// How a [`crate::RegionExecutor`] picks its strategy across regions.
#[derive(Debug, Clone, Default)]
pub enum ExecutorPolicy {
    /// Keep the construction-time strategy for every region (migrations
    /// still happen if the caller invokes
    /// [`crate::RegionExecutor::migrate_to`] explicitly).
    #[default]
    Fixed,
    /// Score every region against the cost model and migrate among
    /// `candidates` when it says the current strategy is mismatched.
    Adaptive {
        /// Strategies the executor may migrate between
        /// ([`default_candidates`] is the usual set). Forced-migration
        /// testing (the `verify` feature) indexes into this list, so keep
        /// it stable for a given seed.
        candidates: Vec<Strategy>,
    },
}

/// Applies/element at or above which a *non*-privatizing strategy
/// (atomic, keeper, segmented) is mismatched: every element is hit this
/// many times, so privatized blocks amortize.
const DENSE_APPLIES_PER_ELEM: f64 = 4.0;

/// Applies/element at or below which a privatizing strategy is
/// mismatched: the merge walks a footprint that saw almost no updates.
const SPARSE_APPLIES_PER_ELEM: f64 = 0.5;

/// Consecutive out-of-band regions required before migrating (the
/// hysteresis depth).
pub(crate) const PATIENCE: u32 = 2;

/// The default migration candidate set: the paper's competitive subset
/// at `block_size`, plus a second `BlockPrivate` granularity (4×), so
/// the adaptive layer can migrate block *size* — not just strategy
/// family — when density says blocks should be coarser, plus the
/// segmented reducer (matching segment size) as the bounded-scratch
/// escape hatch when a [`crate::PlanBudget`] is in force.
pub fn default_candidates(block_size: usize) -> Vec<Strategy> {
    let mut v = Strategy::competitive(block_size);
    v.push(Strategy::BlockPrivate {
        block_size: block_size.saturating_mul(4),
    });
    v.push(Strategy::Segmented {
        bucket_bits: Strategy::bucket_bits_for(block_size),
    });
    v
}

/// The per-region signals the cost model consumes, extracted from one
/// region's [`crate::RunReport`] by the executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RegionSignals {
    /// Total applies this region / output array length.
    pub(crate) applies_per_element: f64,
    /// A cached plan was replayed and deviated this region.
    pub(crate) deviated: bool,
    /// Region scratch bytes ([`crate::RunReport::scratch_bytes`]) over
    /// the scratch budget in force; `0.0` when the budget is unlimited.
    /// Above `1.0` the strategy spent more privatization memory than the
    /// caller allows, which is a mismatch regardless of density.
    pub(crate) scratch_pressure: f64,
}

/// Whether `s` pays per-touched-footprint privatization + merge costs
/// (wants density), as opposed to updating in place or buffering
/// cheaply (wants sparsity). Segmented sits with the sparse group: its
/// buckets cost per *update*, not per touched footprint, and its dense
/// promotions are budget-bounded.
fn privatizes(s: Strategy) -> bool {
    !matches!(
        s,
        Strategy::Atomic | Strategy::Keeper | Strategy::Segmented { .. }
    )
}

/// Scores how mismatched `current` is to the observed `sig`.
///
/// The hysteresis band is `[0, 1]`: each component is normalized so 1.0
/// sits at its threshold, the score is the **worst** component, and a
/// deviating plan replay adds a 0.5 surcharge (deviation alone
/// re-records and heals, so it only tips a migration when paired with a
/// borderline mismatch). A region with zero applies scores 0 — there is
/// no evidence to migrate on.
pub(crate) fn score(current: Strategy, sig: &RegionSignals) -> f64 {
    let d = sig.applies_per_element;
    if d <= 0.0 {
        return 0.0;
    }
    let density = if privatizes(current) {
        if d < SPARSE_APPLIES_PER_ELEM {
            SPARSE_APPLIES_PER_ELEM / d
        } else {
            0.0
        }
    } else {
        d / DENSE_APPLIES_PER_ELEM
    };
    // Scratch over budget is a mismatch on any strategy (already
    // normalized: 1.0 = exactly at the budget, 0.0 = unlimited).
    let worst = density.max(sig.scratch_pressure);
    if sig.deviated {
        worst + 0.5
    } else {
        worst
    }
}

/// The candidate the signals recommend, given that [`score`] already
/// left the band. Always returns a member of `candidates` or `current`
/// itself (in which case the executor stays put).
pub(crate) fn recommend(
    current: Strategy,
    sig: &RegionSignals,
    candidates: &[Strategy],
) -> Strategy {
    let d = sig.applies_per_element;
    let pick = |want: fn(&Strategy) -> bool| candidates.iter().copied().find(want);
    // Over the scratch budget: move to a bounded-scratch strategy —
    // segmented first (its promotions respect the budget and its buckets
    // keep locality), atomic as the zero-scratch fallback.
    if sig.scratch_pressure > 1.0 {
        if let Some(s) = pick(|s| matches!(s, Strategy::Segmented { .. })) {
            if s != current {
                return s;
            }
        }
        if let Some(s) = pick(|s| matches!(s, Strategy::Atomic)) {
            if s != current {
                return s;
            }
        }
    }
    // Sparse tail on a privatizing strategy: update in place, or buffer
    // through cache-resident buckets when atomics are not on offer.
    if privatizes(current) && d > 0.0 && d < SPARSE_APPLIES_PER_ELEM {
        if let Some(s) = pick(|s| matches!(s, Strategy::Atomic))
            .or_else(|| pick(|s| matches!(s, Strategy::Segmented { .. })))
            .or_else(|| pick(|s| matches!(s, Strategy::Keeper)))
        {
            return s;
        }
    }
    // Dense stream on an in-place strategy: privatize. Granularity
    // scales with density — very dense regions amortize coarser blocks
    // (fewer resolves and merge steps).
    if !privatizes(current) && d >= DENSE_APPLIES_PER_ELEM {
        let sizes = candidates.iter().filter_map(|s| match s {
            Strategy::BlockPrivate { block_size } => Some(*block_size),
            _ => None,
        });
        let bs = if d >= 4.0 * DENSE_APPLIES_PER_ELEM {
            sizes.max()
        } else {
            sizes.min()
        };
        if let Some(block_size) = bs {
            return Strategy::BlockPrivate { block_size };
        }
        if let Some(s) = pick(|s| matches!(s, Strategy::Dense)) {
            return s;
        }
    }
    current
}

/// Per-executor adaptive bookkeeping (lives inside
/// [`crate::RegionExecutor`] when the policy is
/// [`ExecutorPolicy::Adaptive`]).
#[derive(Debug, Clone)]
pub(crate) struct AdaptiveState {
    /// The strategies the executor may migrate between.
    pub(crate) candidates: Vec<Strategy>,
    /// Consecutive out-of-band regions so far.
    pub(crate) streak: u32,
    /// Regions this executor has completed (the `idx` fed to the
    /// `verify` migration hook, so planted schedules replay by region
    /// order).
    pub(crate) region_seq: u64,
}

impl AdaptiveState {
    pub(crate) fn new(candidates: Vec<Strategy>) -> Self {
        AdaptiveState {
            candidates,
            streak: 0,
            region_seq: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(density: f64) -> RegionSignals {
        RegionSignals {
            applies_per_element: density,
            deviated: false,
            scratch_pressure: 0.0,
        }
    }

    #[test]
    fn default_candidates_cover_two_block_granularities() {
        let sizes: Vec<usize> = default_candidates(1024)
            .into_iter()
            .filter_map(|s| match s {
                Strategy::BlockPrivate { block_size } => Some(block_size),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, vec![1024, 4096]);
    }

    #[test]
    fn default_candidates_include_segmented_at_matching_granularity() {
        assert!(default_candidates(1024)
            .into_iter()
            .any(|s| s == Strategy::Segmented { bucket_bits: 10 }));
    }

    #[test]
    fn scratch_pressure_breaks_band_and_routes_to_segmented() {
        let cands = default_candidates(1024);
        let bp = Strategy::BlockPrivate { block_size: 1024 };
        // Comfortably dense, but 2x over the scratch budget: out of band.
        let mut s = sig(8.0);
        assert!(score(bp, &s) <= 1.0);
        s.scratch_pressure = 2.0;
        assert!(score(bp, &s) > 1.0);
        // The recommendation is the bounded-scratch candidate.
        assert_eq!(
            recommend(bp, &s, &cands),
            Strategy::Segmented { bucket_bits: 10 }
        );
        // Without a segmented candidate, fall back to atomic.
        let no_seg: Vec<Strategy> = cands
            .iter()
            .copied()
            .filter(|c| !matches!(c, Strategy::Segmented { .. }))
            .collect();
        assert_eq!(recommend(bp, &s, &no_seg), Strategy::Atomic);
        // Exactly at the budget is still in band.
        s.scratch_pressure = 1.0;
        assert!(score(bp, &s) <= 1.0);
    }

    #[test]
    fn score_band_tracks_density_mismatch() {
        let bp = Strategy::BlockPrivate { block_size: 1024 };
        // Dense stream on a privatizer: at home.
        assert!(score(bp, &sig(16.0)) <= 1.0);
        // Sparse tail on a privatizer: far out of band (0.5 / (1/16) = 8).
        assert!(score(bp, &sig(1.0 / 16.0)) > 4.0);
        // The mirror image for atomics.
        assert!(score(Strategy::Atomic, &sig(1.0 / 16.0)) <= 1.0);
        assert!(score(Strategy::Atomic, &sig(16.0)) > 1.0);
        // No applies: no evidence, never out of band.
        assert_eq!(score(bp, &sig(0.0)), 0.0);
    }

    #[test]
    fn score_penalizes_deviation() {
        let bc = Strategy::BlockCas { block_size: 1024 };
        let mut s = sig(2.0);
        let base = score(bc, &s);
        s.deviated = true;
        assert_eq!(score(bc, &s), base + 0.5);
    }

    #[test]
    fn recommend_flips_between_atomic_and_blocks() {
        let cands = default_candidates(1024);
        let bp = Strategy::BlockPrivate { block_size: 1024 };
        // Privatizer gone sparse → atomic.
        assert_eq!(recommend(bp, &sig(1.0 / 16.0), &cands), Strategy::Atomic);
        // Atomic gone moderately dense → the finer BlockPrivate.
        assert_eq!(recommend(Strategy::Atomic, &sig(6.0), &cands), bp);
        // Atomic gone very dense → the coarser granularity.
        assert_eq!(
            recommend(Strategy::Atomic, &sig(64.0), &cands),
            Strategy::BlockPrivate { block_size: 4096 }
        );
        // In-band signals recommend staying put.
        assert_eq!(recommend(bp, &sig(8.0), &cands), bp);
        // Recommendations are drawn from the candidate list: with no
        // atomic/keeper candidate, a sparse privatizer stays put.
        assert_eq!(recommend(bp, &sig(0.01), &[bp]), bp);
    }
}
