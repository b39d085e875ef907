//! Differential concurrency-verification oracle.
//!
//! One property (§IV): a parallel region's result equals the sequential
//! reduction — bit for bit for integer elements, within a tight
//! reassociation tolerance for floats. The always-compiled sweeps
//! ([`check_seed`], [`check_adaptive_seed`]) check it unperturbed. Under
//! the `verify` feature, [`fuzz`] draws one [`fuzz::Scenario`] per seed —
//! strategy, executor path, topology, scratch budget, planted migrations,
//! kernel — and runs it under ompsim's seeded schedule controller, so any
//! failure replays from one line: `schedule_fuzz --start S --seeds 1`.
//! DESIGN.md §7 maps the hook points.

use crate::{reduce_seq, AtomicElement, Counters, Kernel, ReduceOp, ReducerView, RegionExecutor};
use crate::{Strategy, Sum};
use ompsim::verify::mix64;
use ompsim::{Schedule, ThreadPool};

/// The oracle's kernel shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Element applies: iteration `i` applies two updates at
    /// pseudo-random indices derived from `(seed, i)`.
    Scatter,
    /// Runs: iteration `i` adds one 3-wide [`ReducerView::apply_run`] at
    /// `i mod (n-2)`. Consecutive iterations overlap like a convolution's
    /// back-propagation and runs straddle block seams, so the batched
    /// block path (stretch split, cached-block merge, its `SharedWrite`
    /// crossing) runs under the schedule controller.
    Stencil,
    /// Iteration `i` hits `i % n`: under a static schedule every thread
    /// touches every block, enqueues remote keeper traffic and merges,
    /// so every fault site is reachable.
    RoundRobin,
}

impl KernelKind {
    /// Element applies on even seeds, runs on odd ones.
    pub fn of_seed(seed: u64) -> Self {
        [KernelKind::Scatter, KernelKind::Stencil][(seed % 2) as usize]
    }
}

/// A deterministic oracle kernel: `kind` over `n` elements, its values
/// drawn from `seed`, so a failure replays under the exact kernel that
/// found it.
pub struct OracleKernel {
    /// Kernel shape.
    pub kind: KernelKind,
    /// Output array length (at least 3).
    pub n: usize,
    /// Stream seed: each seed is a distinct pattern.
    pub seed: u64,
}

impl OracleKernel {
    /// Seed `seed`'s kernel ([`KernelKind::of_seed`]) over `n` elements.
    pub fn of_seed(n: usize, seed: u64) -> Self {
        let kind = KernelKind::of_seed(seed);
        OracleKernel { kind, n, seed }
    }

    #[inline(always)]
    fn hash(&self, i: usize) -> u64 {
        mix64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

impl Kernel<i64> for OracleKernel {
    #[inline(always)]
    fn item<V: ReducerView<i64>>(&self, view: &mut V, i: usize) {
        let (h, n) = (self.hash(i), self.n);
        match self.kind {
            KernelKind::Scatter => {
                view.apply((h as usize) % n, 1 + ((h >> 32) % 5) as i64);
                view.apply(((h >> 16) as usize) % n, 3);
            }
            KernelKind::Stencil => view.apply_run(
                i % (n - 2),
                &[1 + (h % 5) as i64, 2, 3 + ((h >> 8) % 3) as i64],
            ),
            KernelKind::RoundRobin => view.apply(i % n, 1),
        }
    }
}

impl Kernel<f64> for OracleKernel {
    #[inline(always)]
    fn item<V: ReducerView<f64>>(&self, view: &mut V, i: usize) {
        let (h, n) = (self.hash(i), self.n);
        let x = ((h % 1000) as f64).mul_add(1e-3, 1.0);
        match self.kind {
            KernelKind::Scatter => {
                view.apply((h as usize) % n, x);
                view.apply(((h >> 16) as usize) % n, 0.5);
            }
            KernelKind::Stencil => view.apply_run(i % (n - 2), &[0.25 * x, 0.5 * x, 0.25 * x]),
            KernelKind::RoundRobin => view.apply(i % n, 1.0),
        }
    }
}

/// Element types the oracle checks, with their equality contract.
pub trait OracleElem: AtomicElement + Default {
    /// Name in mismatch reports.
    const NAME: &'static str;
    /// Whether parallel result `got` is acceptable for sequential `want`.
    fn same(got: Self, want: Self) -> bool;
}

impl OracleElem for i64 {
    const NAME: &'static str = "i64";
    fn same(got: i64, want: i64) -> bool {
        got == want
    }
}

impl OracleElem for f64 {
    const NAME: &'static str = "f64";
    /// Reassociation-only tolerance: each element accumulates a few
    /// hundred O(1) contributions, so true reassociation error is ~1e-13
    /// relative; 1e-9 passes every legal merge order and still flags any
    /// lost or doubled update (magnitude >= 0.25).
    fn same(got: f64, want: f64) -> bool {
        (got - want).abs() <= 1e-9 * (1.0 + got.abs().max(want.abs()))
    }
}

/// Compares a parallel result against the sequential one under `T`'s
/// equality contract; the error names `what` and the first disagreeing
/// element.
fn check<T: OracleElem>(got: &[T], want: &[T], what: &str) -> Result<(), String> {
    match got.iter().zip(want).position(|(&g, &w)| !T::same(g, w)) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: out[{i}] = {:?} != sequential {:?}",
            got[i], want[i]
        )),
    }
}

/// The sequential reference: `kernel` over `0..updates` into `n` zeros.
fn sequential<T: OracleElem, K: Kernel<T>>(n: usize, updates: usize, kernel: &K) -> Vec<T>
where
    Sum: ReduceOp<T>,
{
    let mut want = vec![T::default(); n];
    reduce_seq::<T, Sum, _>(&mut want, 0..updates, |v, i| kernel.item(v, i));
    want
}

/// Block size of the oracle's block-flavored strategies.
pub const BLOCK: usize = 32;
/// Output length of an oracle region.
const N: usize = 512;
/// Loop iterations of an oracle region.
const UPDATES: usize = 4096;
/// Regions per [`leg`]: later regions reuse retained scratch (run) or
/// replay the recorded plan (planned).
const REGIONS: usize = 3;

/// `(label, counter totals)` per region, in execution order.
pub type Reports = Vec<(String, Counters)>;

/// The differential runner: `REGIONS` regions of `kernel` on `pool`,
/// each checked against the sequential reduction. `planned` records a
/// plan in region 0 and replays it after; otherwise every region runs
/// unplanned. `retain` keeps the first executor `make` returns (later
/// regions run on its recycled arena scratch or replay its plan);
/// otherwise every region gets a fresh executor, and with it a fresh
/// arena. Pushes `"strategy/elem/regionR"` reports and returns the
/// outputs and the executor's final migration count.
pub fn leg<T: OracleElem>(
    pool: &ThreadPool,
    make: impl Fn() -> RegionExecutor<T, Sum>,
    planned: bool,
    retain: bool,
    schedule: Schedule,
    kernel: &OracleKernel,
    reports: &mut Reports,
) -> Result<(Vec<Vec<T>>, u64), String>
where
    Sum: ReduceOp<T>,
    OracleKernel: Kernel<T>,
{
    let want = sequential::<T, _>(kernel.n, UPDATES, kernel);
    let mut ex = make();
    let mut outs = Vec::new();
    for r in 0..REGIONS {
        if !retain && r > 0 {
            ex = make();
        }
        let mut out = vec![T::default(); kernel.n];
        let report = if planned {
            ex.run_planned(1, pool, &mut out, 0..UPDATES, schedule, kernel)
        } else {
            ex.run(pool, &mut out, 0..UPDATES, schedule, kernel)
        };
        let what = format!("{}/{}/region{r}", report.strategy, T::NAME);
        check(&out, &want, &what)?;
        reports.push((what, report.counters.totals()));
        outs.push(out);
    }
    Ok((outs, ex.migrations()))
}

/// The unperturbed all-strategy sweep for one seed: every strategy's
/// run and planned [`leg`], i64 exactly and f64 within reassociation
/// tolerance, on the seed's [`OracleKernel`] under `schedule`. Returns
/// every region's report on success, the first mismatch otherwise.
pub fn check_seed(pool: &ThreadPool, seed: u64, schedule: Schedule) -> Result<Reports, String> {
    let kernel = OracleKernel::of_seed(N, seed);
    let mut reports = Vec::new();
    for strategy in Strategy::all(BLOCK) {
        for planned in [false, true] {
            let r = &mut reports;
            let (i, f) = (
                || RegionExecutor::new(strategy),
                || RegionExecutor::new(strategy),
            );
            leg::<i64>(pool, i, planned, true, schedule, &kernel, r)
                .and_then(|_| leg::<f64>(pool, f, planned, true, schedule, &kernel, r))
                .map_err(|e| format!("seed {seed}: {e}"))?;
        }
    }
    Ok(reports)
}

/// Per-seed summary of one adaptive differential sweep
/// ([`check_adaptive_seed`]).
#[derive(Debug, Clone, Default)]
pub struct AdaptiveStats {
    /// Regions executed across all executors and element sweeps.
    pub regions: usize,
    /// Strategy migrations the adaptive executors performed (cost-model
    /// decisions plus, under an active `verify` session, planted ones).
    pub migrations: u64,
    /// The i64 adaptive executor's final per-strategy region counts.
    pub strategy_regions: Vec<(String, u64)>,
}

/// Regions per phase of the adaptive sweep's shifted workload.
const ADAPTIVE_PHASE_REGIONS: usize = 4;

/// The oracle's adaptive policy — the shipped one, over the default
/// candidates. Its cost model reads only deterministic signals, so the
/// whole migration sequence, cost-model and planted alike, is a pure
/// function of the seed on any pool.
pub fn adaptive_policy() -> crate::ExecutorPolicy {
    crate::ExecutorPolicy::Adaptive {
        candidates: crate::default_candidates(BLOCK),
    }
}

fn check_adaptive_elem<T: OracleElem>(
    pool: &ThreadPool,
    seed: u64,
    stats: &mut AdaptiveStats,
) -> Result<(), String>
where
    OracleKernel: Kernel<T>,
    Sum: ReduceOp<T>,
{
    let start = Strategy::BlockPrivate { block_size: BLOCK };
    let adaptive = RegionExecutor::with_policy(start, adaptive_policy());
    let fixed = crate::default_candidates(BLOCK).into_iter();
    let mut executors: Vec<RegionExecutor<T, Sum>> = std::iter::once(adaptive)
        .chain(fixed.map(RegionExecutor::new))
        .collect();

    for r in 0..2 * ADAPTIVE_PHASE_REGIONS {
        // Phase 0: dense front-loaded stream (8 applies/element); phase
        // 1: sparse tail (1/8). The kernel pattern is fixed per phase so
        // cached plans replay within a phase and are invalidated by
        // migrations between them.
        let phase = (r / ADAPTIVE_PHASE_REGIONS) as u64;
        let updates = if phase == 0 { N * 8 } else { N / 8 };
        let (kind, n) = (KernelKind::Scatter, N);
        let kernel = OracleKernel {
            kind,
            n,
            seed: mix64(seed ^ phase),
        };
        let want = sequential::<T, _>(N, updates, &kernel);
        for (k, ex) in executors.iter_mut().enumerate() {
            let mut out = vec![T::default(); N];
            let schedule = Schedule::default();
            let report = ex.run_planned(phase, pool, &mut out, 0..updates, schedule, &kernel);
            let who = if k == 0 { "adaptive " } else { "" };
            let what = format!(
                "seed {seed}: {who}{}/{}/region{r}",
                report.strategy,
                T::NAME
            );
            check(&out, &want, &what)?;
            stats.regions += 1;
        }
    }
    stats.migrations += executors[0].migrations();
    if T::NAME == "i64" {
        stats.strategy_regions = executors[0].strategy_regions().to_vec();
    }
    Ok(())
}

/// Differential oracle over the adaptive executor: a multi-region sweep
/// whose workload shifts from a dense front-loaded stream to a sparse
/// tail mid-run, executed by an [`adaptive_policy`] executor **and**
/// every fixed candidate over the same regions, each region compared
/// against the sequential reduction — bit-for-bit for i64, within
/// reassociation tolerance for f64.
///
/// Always compiled: with no `verify` session bound, migrations come from
/// the cost model alone, and the dense→sparse shift is steep enough that
/// at least one always fires. Under a session, `migrate_per_mille`
/// plants *forced* migrations at seed-chosen region boundaries on top.
/// Either way the migration sequence is a pure function of the seed —
/// independent of the pool's topology.
pub fn check_adaptive_seed(pool: &ThreadPool, seed: u64) -> Result<AdaptiveStats, String> {
    let mut stats = AdaptiveStats::default();
    check_adaptive_elem::<i64>(pool, seed, &mut stats)?;
    check_adaptive_elem::<f64>(pool, seed, &mut stats)?;
    Ok(stats)
}

/// Seed budget for fuzz loops in tests/CI: `SPRAY_FUZZ_SEEDS` when set
/// and parseable, `default` otherwise. The TSan job runs the same tests
/// with a smaller budget through this knob.
pub fn seed_budget(default: u64) -> u64 {
    std::env::var("SPRAY_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[cfg(feature = "verify")]
pub mod fuzz {
    //! The seeded scenario matrix (requires the `verify` feature).
    //!
    //! A seed draws one [`Scenario`]; [`run`] executes it under a seeded
    //! [`ompsim::verify`] controller and checks every region against the
    //! sequential reduction, sharded topologies against the flat control,
    //! and fingerprint-stable scenarios fresh-vs-retained arena scratch.
    //! [`plant_fault`] cycles the seed through the fault sites, and
    //! [`broken_case`] is the planted-bug canary.

    use super::*;
    use crate::block::{BlockReduction, Claim, Ownership};
    use crate::PlanBudget;
    use crate::{reduce, DeltaBatch, ExecutorPolicy, Min};
    use ompsim::verify::{self, Binding, FaultSpec, HookPoint, VerifyConfig, NPOINTS};
    use ompsim::Topology;
    use std::fmt;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, Once};

    /// The executor path a scenario drives.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Path {
        /// `RegionExecutor::run`, retained scratch from region 2 on.
        Run,
        /// `run_planned`: recording, then plan replays.
        Planned,
        /// `run_delta` churn streams (`Sum` and `Min`).
        Delta,
        /// Jobs through a `ReductionService` (run by
        /// `spray_service::fuzz`, which sees the service crate).
        Service,
    }

    /// One seed's draw from the verification matrix.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Scenario {
        /// The seed everything below (and the controller) derives from.
        pub seed: u64,
        /// Team size.
        pub threads: usize,
        /// Starting strategy.
        pub strategy: Strategy,
        /// Executor path.
        pub path: Path,
        /// Emulated machine topology of the pool.
        pub topology: Topology,
        /// Scratch budget (unlimited, tight, or zero).
        pub budget: PlanBudget,
        /// Adaptive executor plus planted migrations (delta: explicit
        /// mid-stream migrations).
        pub migrate: bool,
        /// Kernel shape ([`KernelKind::of_seed`] unless overridden).
        pub kernel: KernelKind,
    }

    impl Scenario {
        /// Draws seed `seed`'s scenario for a `threads`-wide team.
        pub fn draw(seed: u64, threads: usize) -> Self {
            let h = mix64(seed ^ 0x5CE7_A210);
            let strategies = Strategy::all(BLOCK);
            let block_bytes = BLOCK * std::mem::size_of::<i64>();
            let paths = [Path::Run, Path::Planned, Path::Delta, Path::Service];
            let budgets = [
                PlanBudget::UNLIMITED,
                PlanBudget::new(2 * threads * block_bytes),
                PlanBudget::new(0),
            ];
            Scenario {
                seed,
                threads,
                strategy: strategies[(h % strategies.len() as u64) as usize],
                path: paths[(h >> 8) as usize % paths.len()],
                topology: match (h >> 12) % 4 {
                    0 => Topology::new(2, threads.div_ceil(2)),
                    1 => Topology::new(threads, 1),
                    _ => Topology::flat(threads),
                },
                budget: budgets[(h >> 16) as usize % budgets.len()],
                migrate: (h >> 20) % 2 == 0,
                kernel: KernelKind::of_seed(seed),
            }
        }

        /// The seed's controller: PCT-style preemption probability and
        /// per-thread budget, real delays for a quarter of seeds, and a
        /// high planted-migration rate when `migrate`.
        pub fn verify_config(&self) -> VerifyConfig {
            let h = mix64(self.seed ^ 0x5EED_F00D);
            VerifyConfig {
                seed: self.seed,
                preempt_per_mille: (50 + h % 450) as u16,
                budget: (16 + ((h >> 16) % 120)) as u32,
                delay_nanos: if (h >> 32) % 4 == 0 { 20_000 } else { 0 },
                migrate_per_mille: u16::from(self.migrate) * (250 + (h >> 40) % 500) as u16,
                fault: None,
            }
        }

        /// A fresh executor: the shipped adaptive policy over the default
        /// candidates when `migrate` (so cost-model and planted
        /// migrations both replay from the seed), fixed otherwise; under
        /// the scenario's budget either way.
        fn executor<T: AtomicElement, O: ReduceOp<T>>(&self) -> RegionExecutor<T, O> {
            let policy = if self.migrate {
                adaptive_policy()
            } else {
                ExecutorPolicy::Fixed
            };
            let mut ex = RegionExecutor::with_policy(self.strategy, policy);
            ex.set_budget(self.budget);
            ex
        }

        /// Whether hook totals and merge orders are a pure function of
        /// the seed: no ownership claims raced on wall-clock timing
        /// (block-lock/CAS), no team-wide scratch budget handed out
        /// first-come, no migrations.
        fn fingerprinted(&self) -> bool {
            !self.migrate
                && self.budget == PlanBudget::UNLIMITED
                && !matches!(
                    self.strategy,
                    Strategy::BlockLock { .. } | Strategy::BlockCas { .. }
                )
        }
    }

    impl fmt::Display for Scenario {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let budget = match self.budget.max_scratch_bytes {
                usize::MAX => "unlimited".to_string(),
                b => format!("{b}B"),
            };
            write!(
                f,
                "seed {}: {} {:?} on {}x{} ({} threads), budget {budget}, {}, {:?}",
                self.seed,
                self.strategy.label(),
                self.path,
                self.topology.nodes(),
                self.topology.cores_per_socket(),
                self.threads,
                if self.migrate { "migrating" } else { "fixed" },
                self.kernel,
            )
        }
    }

    /// What one scenario (or fault plant) observed.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct Outcome {
        /// Regions (delta rounds, service jobs) checked.
        pub regions: usize,
        /// `("strategy/elem/region", counter totals)` per region of the
        /// main leg's i64 sweep, in order.
        pub reports: Reports,
        /// Hook crossings summed over every session of the scenario,
        /// indexed like [`HookPoint::ALL`].
        pub hook_totals: [u64; NPOINTS],
        /// The main leg's per-thread merge orders (block sequences).
        pub merge_orders: Vec<Vec<u64>>,
        /// Preemptions the controllers charged.
        pub preemptions: u64,
        /// Strategy migrations performed.
        pub migrations: u64,
        /// Delta retractions applied.
        pub retractions: u64,
    }

    impl Outcome {
        /// Folds another leg's counts into this one (the merge orders and
        /// reports stay the main leg's).
        pub fn absorb(&mut self, o: Outcome) {
            self.regions += o.regions;
            for (t, x) in self.hook_totals.iter_mut().zip(o.hook_totals) {
                *t += x;
            }
            self.preemptions += o.preemptions;
            self.migrations += o.migrations;
            self.retractions += o.retractions;
        }
    }

    /// Installs the scenario's controller, runs `body` (which owns, and
    /// drops, every pool it forks), and records the session's
    /// fingerprint into the outcome.
    pub fn under_session<R>(
        sc: &Scenario,
        body: impl FnOnce(&mut Outcome) -> Result<R, String>,
    ) -> Result<(R, Outcome), String> {
        let session = verify::install(sc.verify_config());
        let mut o = Outcome::default();
        let r = body(&mut o)?;
        o.hook_totals = session.totals();
        o.preemptions = session.preemptions();
        o.merge_orders = (0..sc.threads.min(verify::MAX_THREADS))
            .map(|t| session.merge_order(t))
            .collect();
        Ok((r, o))
    }

    /// One [`leg`] of the scenario's kernel and path on `topo`, under
    /// the scenario's session (`retain` as in [`leg`]).
    fn kernel_leg<T: OracleElem>(
        sc: &Scenario,
        topo: Topology,
        retain: bool,
    ) -> Result<(Vec<Vec<T>>, Outcome), String>
    where
        Sum: ReduceOp<T>,
        OracleKernel: Kernel<T>,
    {
        under_session(sc, |o| {
            let pool = ThreadPool::with_topology(sc.threads, topo);
            let (kind, n, seed) = (sc.kernel, N, sc.seed);
            let kernel = OracleKernel { kind, n, seed };
            let (planned, schedule) = (sc.path == Path::Planned, Schedule::default());
            let reports = &mut o.reports;
            let (outs, migrations) = leg(
                &pool,
                || sc.executor(),
                planned,
                retain,
                schedule,
                &kernel,
                reports,
            )
            .map_err(|e| format!("{sc}: {e}"))?;
            o.regions += outs.len();
            o.migrations = migrations;
            Ok(outs)
        })
    }

    /// Runs scenario `sc` (any path but [`Path::Service`]) and returns
    /// what it observed; `Err` names the first divergence.
    pub fn run(sc: &Scenario) -> Result<Outcome, String> {
        let fail = |what: String| Err(format!("{sc}: {what}"));
        match sc.path {
            Path::Run | Path::Planned => {
                let (main, mut o) = kernel_leg::<i64>(sc, sc.topology, true)?;
                if sc.path == Path::Run && sc.fingerprinted() {
                    // Storage is an implementation detail: recycled arena
                    // blocks must not change a single hook crossing.
                    let (_, fresh) = kernel_leg::<i64>(sc, sc.topology, false)?;
                    if (fresh.hook_totals, &fresh.merge_orders) != (o.hook_totals, &o.merge_orders)
                    {
                        return fail(format!(
                            "fresh vs retained arena scratch diverged: hooks {:?} vs {:?}, \
                             merge orders {:?} vs {:?}",
                            fresh.hook_totals, o.hook_totals, fresh.merge_orders, o.merge_orders
                        ));
                    }
                    o.absorb(fresh);
                }
                if !sc.topology.is_flat() {
                    // Topology is a routing choice, never a semantics
                    // choice: i64 sums are exact, so sharded results must
                    // be bit-identical to the flat control.
                    let (flat, f) = kernel_leg::<i64>(sc, Topology::flat(sc.threads), true)?;
                    if let Some(r) = (0..REGIONS).find(|&r| flat[r] != main[r]) {
                        return fail(format!("region {r} diverged from the flat control"));
                    }
                    o.absorb(f);
                }
                o.absorb(kernel_leg::<f64>(sc, sc.topology, true)?.1);
                Ok(o)
            }
            Path::Delta => under_session(sc, |o| {
                let pool = &ThreadPool::with_topology(sc.threads, sc.topology);
                let mut h = mix64(sc.seed ^ 0xDE17_A5EE);
                let mut step = move || {
                    h = mix64(h.wrapping_add(0x9E37_79B9_7F4A_7C15));
                    h
                };
                delta_stream::<Sum>(sc, pool, &mut step, o)?;
                delta_stream::<Min>(sc, pool, &mut step, o)
            })
            .map(|(_, o)| o),
            Path::Service => fail("the service path runs in spray_service::fuzz".into()),
        }
    }

    /// Streams six seeded churn batches — pushes of fresh tags plus
    /// retractions of earlier rounds' live tags — through `run_delta`,
    /// each round bit-identical to folding the surviving contributions
    /// from scratch. `Sum` retracts through its exact inverse; `Min` has
    /// none and refolds dirty blocks from the log, so a retracted minimum
    /// must resurface the runner-up. Every third round scatters
    /// array-wide to trip the full-refold fallback, and migrating
    /// scenarios switch strategy mid-stream (onto the segmented reducer,
    /// whose retained scratch must be invalidated for dirty blocks).
    fn delta_stream<O: ReduceOp<i64>>(
        sc: &Scenario,
        pool: &ThreadPool,
        step: &mut impl FnMut() -> u64,
        o: &mut Outcome,
    ) -> Result<(), String> {
        let n = 768usize;
        let init: Vec<i64> = (0..n).map(|i| (i as i64 % 17) - 8).collect();
        let mut out = init.clone();
        let mut ex = sc.executor::<i64, O>();
        let mut live: Vec<(usize, u64, i64)> = Vec::new();
        let mut tag = 0u64;
        for round in 0..6usize {
            let mut batch = DeltaBatch::new();
            for _ in 0..6 {
                if live.len() > 3 {
                    let (idx, t, _) = live.remove(step() as usize % live.len());
                    batch.retract(idx, t);
                    o.retractions += 1;
                }
            }
            let base = round * 131 % n;
            for _ in 0..40 {
                let idx = if round % 3 == 2 {
                    step() as usize % n
                } else {
                    (base + step() as usize % 128) % n
                };
                let val = (step() % 1001) as i64 - 500;
                batch.push(idx, tag, val);
                live.push((idx, tag, val));
                tag += 1;
            }
            ex.run_delta(pool, &mut out, &batch);
            o.regions += 1;
            let mut want = init.clone();
            for &(idx, _, v) in &live {
                want[idx] = O::combine(want[idx], v);
            }
            if out != want {
                let op = std::any::type_name::<O>();
                return Err(format!(
                    "{sc}: {op} delta round {round} diverged from full replay"
                ));
            }
            match (sc.migrate, round) {
                (true, 1) => ex.migrate_to(Strategy::Segmented { bucket_bits: 4 }),
                (true, 3) => ex.migrate_to(Strategy::Atomic),
                _ => {}
            }
        }
        o.migrations += ex.migrations();
        Ok(())
    }

    /// The session whose injected panics the process panic hook keeps
    /// quiet while [`plant`] runs its region; `None` outside a plant.
    static PLANTING: Mutex<Option<Binding>> = Mutex::new(None);

    fn planting() -> std::sync::MutexGuard<'static, Option<Binding>> {
        PLANTING.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Installs `fault` (behind moderate preemption and
    /// `migrate_per_mille` planted migrations), runs `region` and demands
    /// that it panics — poison, never a deadlock or a silent pass — then
    /// reruns `region` unperturbed on the same pool and executor and
    /// demands its exact result.
    fn plant(
        seed: u64,
        fault: FaultSpec,
        migrate_per_mille: u16,
        mut region: impl FnMut() -> Result<(), String>,
    ) -> Result<(), String> {
        // The injected panic (and the teammates it poisons) would spam
        // stderr: one hook, installed once, silences the threads bound to
        // the planting session and defers to the previous hook for every
        // other thread, so a sibling's panic keeps its message.
        static QUIET: Once = Once::new();
        QUIET.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if *planting() != Some(verify::binding()) {
                    prev(info);
                }
            }));
        });
        let session = verify::install(VerifyConfig {
            seed,
            preempt_per_mille: 100,
            budget: 64,
            delay_nanos: 0,
            migrate_per_mille,
            fault: Some(fault),
        });
        *planting() = Some(verify::binding());
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _ = region();
        }))
        .is_err();
        *planting() = None;
        drop(session);
        let at = format!(
            "seed {seed}: fault at {} #{} on tid {}",
            fault.point.name(),
            fault.nth,
            fault.tid
        );
        if !poisoned {
            return Err(format!("{at} never fired"));
        }
        region().map_err(|e| format!("{at}: post-fault rerun: {e}"))
    }

    const CAS: Strategy = Strategy::BlockCas { block_size: BLOCK };
    const PRIVATE: Strategy = Strategy::BlockPrivate { block_size: BLOCK };
    const SEGMENTED: Strategy = Strategy::Segmented { bucket_bits: 2 };

    /// Fixed-strategy fault sites: the strategy, the hook planted, and
    /// the crossings per thread that are always reachable.
    const REGION_SITES: [(Strategy, HookPoint, u64); 9] = [
        (CAS, HookPoint::BarrierEnter, 1), // once per thread per region
        (CAS, HookPoint::SharedWrite, 3),
        (CAS, HookPoint::OwnershipClaim, 3),
        (PRIVATE, HookPoint::MergeStep, 3),
        (Strategy::Keeper, HookPoint::QueueDrain, 2), // once per writer
        (Strategy::Keeper, HookPoint::BarrierEnter, 1),
        (Strategy::Keeper, HookPoint::QueuePush, 3),
        // Keeper on two emulated nodes: the fault lands mid-route, where
        // a misroute would corrupt a neighbor's shard.
        (Strategy::Keeper, HookPoint::ShardRoute, 3),
        // Zero budget: every bucket fill spills to the overflow run.
        (SEGMENTED, HookPoint::BucketSpill, 3),
    ];

    /// Fault sites [`plant_fault`] cycles through: the region sites, a
    /// migration decision, and a delta staging fault on the parallel and
    /// on the serial staging path.
    pub const FAULT_SITES: u64 = REGION_SITES.len() as u64 + 3;

    /// Plants seed `seed`'s fault — site `seed % FAULT_SITES`, with a
    /// seed-drawn thread and crossing — via `plant`. A fault that never
    /// fires is an error, so every plant proves its hook was crossed.
    pub fn plant_fault(threads: usize, seed: u64) -> Result<(), String> {
        // Queue pushes and cross-node routes need a teammate.
        let threads = threads.max(2);
        let h = mix64(seed ^ 0xFA17);
        let tid = (h >> 8) as usize % threads;
        let site = (seed % FAULT_SITES) as usize;
        if let Some(&(strategy, point, reach)) = REGION_SITES.get(site) {
            let n = 256usize;
            let topo = if point == HookPoint::ShardRoute {
                Topology::new(2, threads.div_ceil(2))
            } else {
                Topology::flat(threads)
            };
            let pool = ThreadPool::with_topology(threads, topo);
            let mut ex = RegionExecutor::<i64, Sum>::new(strategy);
            if point == HookPoint::BucketSpill {
                ex.set_budget(PlanBudget::new(0));
            }
            let (kind, nth) = (KernelKind::RoundRobin, 1 + (h >> 16) % reach);
            let kernel = OracleKernel { kind, n, seed };
            let want = sequential::<i64, _>(n, 16 * n, &kernel);
            return plant(seed, FaultSpec { tid, point, nth }, 0, || {
                let mut out = vec![0i64; n];
                ex.run(&pool, &mut out, 0..16 * n, Schedule::default(), &kernel);
                check(&out, &want, &strategy.label())
            });
        }
        if site == REGION_SITES.len() {
            // Crossed once per adaptive region plus once per migration
            // drain — under a 70% planted-migration rate the fault often
            // lands inside a drain. `tid` is ignored at this point.
            let pool = ThreadPool::new(threads);
            let (point, nth) = (HookPoint::MigrationDecision, 1 + h % 6);
            let fault = FaultSpec { tid: 0, point, nth };
            return plant(seed, fault, 700, || {
                check_adaptive_seed(&pool, seed).map(drop)
            });
        }
        delta_fault(threads, seed, site == REGION_SITES.len() + 2, tid, h)
    }

    /// A `DeltaApply` fault mid-stage, before anything commits: the
    /// committed result must survive bit-for-bit, and the same batch must
    /// then replay exactly. `serial` churns one block, which stages on
    /// the caller (bound as tid 0); otherwise all 16 blocks stage across
    /// the team, each thread crossing the hook at least twice.
    fn delta_fault(
        threads: usize,
        seed: u64,
        serial: bool,
        tid: usize,
        h: u64,
    ) -> Result<(), String> {
        let (n, per_elem) = (1024usize, 10usize);
        let pool = ThreadPool::new(threads);
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockCas { block_size: 64 });
        let mut out = vec![0i64; n];
        // Ten live contributions per element, committed unperturbed:
        // heavy logs push staging onto the parallel path.
        let mut base = DeltaBatch::new();
        for i in 0..per_elem * n {
            base.push(i % n, i as u64, 1);
        }
        ex.run_delta(&pool, &mut out, &base);
        let committed = out.clone();
        // Retract one baseline tag per churned block and replace it.
        let mut churn = DeltaBatch::new();
        let mut want = committed.clone();
        for b in 0..if serial { 1 } else { n >> 6 } {
            let idx = (b << 6) + mix64(h ^ b as u64) as usize % 64;
            churn.retract(idx, idx as u64);
            churn.push(idx, (per_elem * n + b) as u64, -5);
            want[idx] -= 1 + 5;
        }
        let (tid, nth) = if serial {
            (0, 1)
        } else {
            (tid, 1 + (h >> 16) % 2)
        };
        let point = HookPoint::DeltaApply;
        plant(seed, FaultSpec { tid, point, nth }, 0, || {
            if out != committed {
                return Err("the poisoned batch corrupted the committed result".into());
            }
            ex.run_delta(&pool, &mut out, &churn);
            if out == want {
                Ok(())
            } else {
                Err("delta replay diverged from the full fold".into())
            }
        })
    }

    /// **Deliberately broken** block ownership for the canary: block-CAS
    /// with the CAS split into load, hook, store. Two threads can both
    /// observe the block unowned (or steal each other's claim) and both
    /// write it directly, dropping updates — the exact class of bug the
    /// real protocol prevents, which the fuzzer must be able to see.
    struct BrokenCas(Vec<AtomicUsize>);

    impl Ownership for BrokenCas {
        const DIRECT: bool = true;
        fn new(nblocks: usize) -> Self {
            BrokenCas((0..nblocks).map(|_| AtomicUsize::new(usize::MAX)).collect())
        }
        fn try_claim(&self, b: usize, tid: usize) -> Claim {
            let cur = self.0[b].load(Ordering::Relaxed);
            verify::perturb_idx(HookPoint::OwnershipClaim, b as u64);
            if cur == tid {
                Claim::Retained
            } else {
                self.0[b].store(tid, Ordering::Relaxed);
                Claim::Won
            }
        }
        fn reset(&self) {
            self.0
                .iter()
                .for_each(|w| w.store(usize::MAX, Ordering::Relaxed));
        }
        fn footprint(&self) -> usize {
            self.0.len() * std::mem::size_of::<usize>()
        }
    }

    /// The planted-bug canary: the broken block-CAS reduction under the
    /// seed's controller, every thread hammering one block — element
    /// applies on even seeds, `apply_run` on odd ones. Returns `true`
    /// when the schedule exposed the race (lost updates), i.e. the fuzzer
    /// *caught* the bug on this seed.
    pub fn broken_case(threads: usize, seed: u64) -> bool {
        let (n, updates) = (64usize, 20_000usize);
        let session = verify::install(VerifyConfig {
            seed,
            preempt_per_mille: 120,
            budget: 4096,
            delay_nanos: 0,
            migrate_per_mille: 0,
            fault: None,
        });
        let pool = ThreadPool::new(threads);
        let mut out = vec![0i64; n];
        let red = BlockReduction::<i64, Sum, BrokenCas>::with_flavor(
            &mut out,
            threads,
            n,
            "block-brokenCAS",
        );
        let kernel = OracleKernel::of_seed(n, seed);
        reduce(&pool, &red, 0..updates, Schedule::default(), |v, i| {
            kernel.item(v, i)
        });
        drop((red, pool, session));
        out != sequential::<i64, _>(n, updates, &kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_correct_strategies() {
        let pool = ThreadPool::new(3);
        let reports =
            check_seed(&pool, 7, Schedule::default()).expect("all strategies match sequential");
        // 11 strategies x 2 element types x (run + planned leg) x 3 regions.
        assert_eq!(reports.len(), Strategy::all(BLOCK).len() * 2 * 2 * REGIONS);
    }

    #[test]
    fn oracle_works_under_dynamic_schedules() {
        let pool = ThreadPool::new(2);
        let dynamic = Schedule::Dynamic { chunk: 3 };
        check_seed(&pool, 11, dynamic).expect("dynamic schedule stays exact");
    }

    #[test]
    fn adaptive_oracle_accepts_and_cost_model_migrates() {
        // With no verify session bound, migrations come from the cost
        // model alone: the sweep's dense→sparse shift must trigger at
        // least one, and every region — adaptive and fixed alike — must
        // match sequential.
        let pool = ThreadPool::new(3);
        let stats = check_adaptive_seed(&pool, 7).expect("adaptive sweep matches sequential");
        assert!(
            stats.migrations >= 1,
            "dense→sparse shift must migrate: {stats:?}"
        );
        // 8 regions x (1 adaptive + 8 fixed candidates) x 2 elem types.
        assert_eq!(stats.regions, 8 * (1 + 8) * 2);
        // The i64 adaptive executor ran more than one strategy.
        assert!(stats.strategy_regions.len() >= 2, "{stats:?}");
        let total: u64 = stats.strategy_regions.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn adaptive_oracle_migrations_do_not_depend_on_topology() {
        // The shipped policy reads no timing- or topology-borne signal,
        // so flat pools of any width and the sharded 2x2 pool must
        // agree on every migration.
        for seed in 0..6 {
            let run = |threads, topo| {
                let pool = ThreadPool::with_topology(threads, topo);
                let s = check_adaptive_seed(&pool, seed).expect("adaptive sweep exact");
                (s.migrations, s.strategy_regions)
            };
            let sharded = run(4, ompsim::Topology::new(2, 2));
            for threads in [1, 2, 4] {
                let flat = run(threads, ompsim::Topology::flat(threads));
                assert_eq!(
                    flat, sharded,
                    "seed {seed}: migrations followed the topology ({threads}-thread flat pool)"
                );
            }
        }
    }

    #[test]
    fn seed_budget_defaults_and_parses() {
        // Not set in the test environment unless CI exported it; both
        // ways the call must return something sane.
        let b = seed_budget(17);
        assert!(b > 0);
    }
}
