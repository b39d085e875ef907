//! `perfbench` — the repository benchmark.
//!
//! Four workloads, each run in its own process on a team of [`TEAM`]
//! threads:
//!
//! * `conv-backprop` — Fig. 11: 3-point back-propagation over 10⁷ f32
//!   through an unplanned `RegionExecutor::run` (`block-CAS-1024`);
//! * `tmv-debr` — Fig. 15: `y += Aᵀx` on the order-20 de Bruijn matrix
//!   through `PlannedTmv::run` (`block-private-1024`);
//! * `lulesh-step` — Fig. 16: one `step_with` cycle of the 30³ LULESH
//!   proxy with a reused keeper `ForceAccum`;
//! * `service-open` — an open loop of seeded jobs against a
//!   `ReductionService` (`block-CAS-64`, batch window 8, pipelined).
//!   Its sub-millisecond latency tail is too unsteady on a small VM to
//!   gate, so `BENCHMARK.json` lists only the first three, and the
//!   traced `tmv-debr` run measures the service layer with a short probe.
//!
//! Every layer is measured from the outside: the benchmark times calls
//! into public functions and reads the `RunReport`, `ForceStats` and
//! `JobResult` values they return. Spans recorded around those calls
//! (see [`trace`]) feed the traced run's per-layer table.

pub mod affinity;
pub mod conv;
pub mod host;
pub mod lulesh;
pub mod service;
pub mod stats;
pub mod tmv;
pub mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::{SpanId, Tracer};

/// Team width of every workload's pool.
pub const TEAM: usize = 2;

/// A closed-loop step slower than this counts as failed (late).
pub const STEP_LIMIT_MS: f64 = 2_000.0;

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
pub const E2E: &[(&str, &str)] = &[
    ("step_ms_p50", "ms"),
    ("step_ms_p95", "ms"),
    ("updates_per_s", "1/s"),
    ("slo_jobs_per_s", "1/s"),
    ("mem_overhead_mib", "MiB"),
    ("peak_heap_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`, printed by every traced run. A
/// layer a workload does not run (or whose figure its public return
/// values do not expose) reads 0 and is listed as not measured.
pub const LAYERS: &[(&str, &str)] = &[
    ("ompsim.fork_join_us", "us"),
    ("ompsim.pool_new_ms", "ms"),
    ("spray.region_ms", "ms"),
    ("spray.outside_region_ms", "ms"),
    ("spray.loop_ms", "ms"),
    ("spray.barrier_ms", "ms"),
    ("spray.merge_ms", "ms"),
    ("spray.finish_ms", "ms"),
    ("spray.applies_per_step", "count"),
    ("spray.first_touches_per_step", "count"),
    ("spray.conflicts_per_step", "count"),
    ("spray.fallback_privatizations_per_step", "count"),
    ("spray.remote_enqueues_per_step", "count"),
    ("spray.merged_mib_per_step", "MiB"),
    ("spray.conflict_ratio", "ratio"),
    ("spray.merge_gbps", "GB/s"),
    ("plan.build_ms", "ms"),
    ("plan.replay_ratio", "ratio"),
    ("plan.unplanned_step_ms_p50", "ms"),
    ("memtrack.allocs_per_step", "count"),
    ("memtrack.setup_peak_mib", "MiB"),
    ("conv.seq_ms_p50", "ms"),
    ("sparse.gen_s", "s"),
    ("sparse.seq_ms_p50", "ms"),
    ("lulesh.force_ms_p50", "ms"),
    ("lulesh.rest_ms_p50", "ms"),
    ("lulesh.applies_per_step", "count"),
    ("lulesh.energy_rel_err", "ratio"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p95", "ms"),
    ("service.exec_ms_p50", "ms"),
    ("service.batch_size_mean", "count"),
    ("service.gen_late_ms_p95", "ms"),
    ("service.backlog_end", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms", "ms"),
];

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["conv-backprop", "tmv-debr", "lulesh-step", "service-open"];

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small inputs (unit tests only).
    pub small: bool,
    /// Flip one output element after a step (unit tests only): the
    /// check must count that step as failed.
    pub corrupt: bool,
}

/// One metric reading.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in [`E2E`] or [`LAYERS`].
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Steps (or jobs) attempted and checked.
    pub attempted: u64,
    /// Of those, steps that panicked, were refused, ran late beyond the
    /// limit, or produced a wrong result.
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
    /// Bytes the workload's inputs, outputs and scratch occupy
    /// (computed from the input shapes).
    pub working_set_bytes: u64,
    /// Load-generator threads besides the team.
    pub gen_threads: usize,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push(Metric { name, value });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push(Metric { name, value });
    }

    /// Records a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// SplitMix64: the seeded generator behind every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-input `stream` tag, so inputs
    /// drawn from one seed are independent of each other.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// The SplitMix64 finalizer: a stateless 64-bit hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bytes in MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Heap accounting across the benchmark's phases. `memtrack` keeps one
/// process-wide peak that [`memtrack::reset_peak`] rebases, so the
/// process peak is folded in here before every rebase.
#[derive(Debug, Default)]
pub struct Heap {
    process_peak: usize,
}

impl Heap {
    /// Runs `f` as its own phase: `(result, peak bytes above entry)`.
    pub fn phase<R>(&mut self, f: impl FnOnce() -> R) -> (R, usize) {
        self.process_peak = self.process_peak.max(memtrack::peak_bytes());
        let (r, extra) = memtrack::measure_peak(f);
        self.process_peak = self.process_peak.max(memtrack::peak_bytes());
        (r, extra)
    }

    /// Highest live heap of the process so far.
    pub fn process_peak(&self) -> usize {
        self.process_peak.max(memtrack::peak_bytes())
    }
}

/// Wall seconds and peak heap of each of a run's set-ups.
pub struct SetupTimes {
    /// Wall seconds of each set-up.
    pub secs: Vec<f64>,
    /// Peak heap above entry of each set-up, bytes.
    pub peaks: Vec<usize>,
}

impl SetupTimes {
    /// Builds the state `reps` times (once for small runs) and keeps the
    /// last; each earlier state is dropped before the next build. Cheap
    /// set-ups take more repetitions, so every median is over a similar
    /// span of time.
    pub fn measure<S>(
        cfg: &RunCfg,
        heap: &mut Heap,
        reps: usize,
        mut build: impl FnMut() -> S,
    ) -> (S, SetupTimes) {
        let reps = if cfg.small { 1 } else { reps };
        let mut times = SetupTimes {
            secs: Vec::new(),
            peaks: Vec::new(),
        };
        let mut state = None;
        for _ in 0..reps {
            drop(state.take());
            let t = Instant::now();
            let (s, peak) = heap.phase(&mut build);
            times.secs.push(t.elapsed().as_secs_f64());
            times.peaks.push(peak);
            state = Some(s);
        }
        (state.expect("at least one set-up"), times)
    }

    /// Median set-up seconds.
    pub fn median_secs(&self) -> f64 {
        stats::median(&self.secs)
    }

    /// Median set-up peak heap, MiB.
    pub fn median_peak_mib(&self) -> f64 {
        let p: Vec<f64> = self.peaks.iter().map(|&b| mib(b)).collect();
        stats::median(&p)
    }
}

/// Where one closed-loop step records its spans.
#[derive(Clone, Copy)]
pub struct StepCtx<'a> {
    /// The run's span store.
    pub tracer: &'a Tracer,
    /// Span of the whole step (parent of the calls inside it).
    pub span: SpanId,
    /// Step number.
    pub step: u64,
    /// Whether this step records spans.
    pub traced: bool,
}

impl StepCtx<'_> {
    /// Times `f` as a child span named `name`: `(result, wall ms)`.
    pub fn call<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.tracer.time(self.traced, name, self.span, self.step, f)
    }
}

/// One finished closed-loop step.
#[derive(Debug, Clone, Copy)]
pub struct StepRecord {
    /// Wall ms of the measured call(s).
    pub ms: f64,
    /// Whether spans were recorded for it.
    pub traced: bool,
    /// Whether it passed its check, did not panic, and was not late.
    pub ok: bool,
}

/// Drives a closed loop with one caller for `cfg.seconds` (at least
/// `min_steps` steps). `step` prepares, calls and checks one step and
/// returns the measured ms, or an error when the output is wrong; a
/// panic counts as a failed step. In a traced run every other step
/// records spans, so `trace.overhead_pct` compares interleaved steps.
pub fn closed_loop(
    cfg: &RunCfg,
    tracer: &Tracer,
    min_steps: u64,
    mut step: impl FnMut(StepCtx<'_>) -> Result<f64, String>,
) -> (Vec<StepRecord>, Vec<String>) {
    let start = Instant::now();
    let mut records = Vec::new();
    let mut errors = Vec::new();
    let mut i = 0u64;
    while i < min_steps || start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && i % 2 == 1;
        let span = tracer.begin(traced, "step", SpanId::ROOT, i);
        let ctx = StepCtx {
            tracer,
            span,
            step: i,
            traced,
        };
        let result = catch_unwind(AssertUnwindSafe(|| step(ctx)));
        tracer.end(span);
        let (ms, ok) = match result {
            Ok(Ok(ms)) if ms <= STEP_LIMIT_MS => (ms, true),
            Ok(Ok(ms)) => {
                errors.push(format!(
                    "step {i}: {ms:.1} ms exceeds the {STEP_LIMIT_MS} ms limit"
                ));
                (ms, false)
            }
            Ok(Err(e)) => {
                errors.push(format!("step {i}: {e}"));
                (f64::NAN, false)
            }
            Err(_) => {
                errors.push(format!("step {i}: panicked"));
                (f64::NAN, false)
            }
        };
        records.push(StepRecord { ms, traced, ok });
        i += 1;
    }
    (records, errors)
}

/// Step ms of the records that passed, split by whether they were traced.
pub fn step_ms(records: &[StepRecord], traced: bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.ok && r.traced == traced)
        .map(|r| r.ms)
        .collect()
}

/// Elementwise check with an absolute-plus-relative tolerance: the
/// first index where `got` and `want` differ by more than
/// `tol · (1 + |want|)`, with both values.
pub fn first_mismatch<T: Copy + Into<f64>>(
    got: &[T],
    want: &[T],
    tol: f64,
) -> Option<(usize, f64, f64)> {
    if got.len() != want.len() {
        return Some((got.len().min(want.len()), f64::NAN, f64::NAN));
    }
    let bad = |(&g, &w): (&T, &T)| {
        let (g, w): (f64, f64) = (g.into(), w.into());
        let d = (g - w).abs();
        d.is_nan() || d > tol * (1.0 + w.abs())
    };
    // A branch-free pass (it vectorizes); the index is located only on
    // failure.
    if !got.iter().zip(want).fold(false, |any, p| any | bad(p)) {
        return None;
    }
    got.iter()
        .zip(want)
        .position(bad)
        .map(|i| (i, got[i].into(), want[i].into()))
}

/// Per-layer figures read from the executor's `RunReport`s of the
/// measured steps.
#[derive(Debug, Default)]
pub struct ReportAgg {
    region_ms: Vec<f64>,
    outside_ms: Vec<f64>,
    loop_ms: Vec<f64>,
    barrier_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    finish_ms: Vec<f64>,
    totals: spray::Counters,
    merge_bw: Vec<f64>,
    steps: u64,
    /// Peak `RunReport::memory_overhead`, bytes.
    pub mem_overhead: usize,
}

impl ReportAgg {
    /// Adds one region's report; `call_ms` is the wall time of the call
    /// that returned it.
    pub fn add(&mut self, r: &spray::RunReport, call_ms: f64) {
        let p = &r.phases;
        self.region_ms.push(p.region_secs * 1e3);
        self.outside_ms.push(call_ms - p.region_secs * 1e3);
        self.loop_ms.push(p.loop_secs * 1e3);
        self.barrier_ms.push(p.barrier_secs * 1e3);
        self.merge_ms.push(p.epilogue_secs * 1e3);
        self.finish_ms.push(p.finish_secs * 1e3);
        self.totals = self.totals.merged(&r.counters.totals());
        if r.merge_bandwidth > 0.0 {
            self.merge_bw.push(r.merge_bandwidth);
        }
        self.steps += 1;
        self.mem_overhead = self.mem_overhead.max(r.memory_overhead);
    }

    /// Regions added.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total applies over the regions added.
    pub fn applies(&self) -> u64 {
        self.totals.applies
    }

    /// Emits the `spray.*` per-layer metrics. The four phase figures are
    /// `PhaseTimes` as-is: per-phase maxima over threads, not additive.
    pub fn emit(&self, out: &mut Outcome) {
        use stats::median;
        let per = |v: u64| v as f64 / self.steps.max(1) as f64;
        let t = &self.totals;
        out.layer("spray.region_ms", median(&self.region_ms));
        out.layer("spray.outside_region_ms", median(&self.outside_ms));
        out.layer("spray.loop_ms", median(&self.loop_ms));
        out.layer("spray.barrier_ms", median(&self.barrier_ms));
        out.layer("spray.merge_ms", median(&self.merge_ms));
        out.layer("spray.finish_ms", median(&self.finish_ms));
        out.layer("spray.applies_per_step", per(t.applies));
        out.layer("spray.first_touches_per_step", per(t.block_first_touches));
        out.layer("spray.conflicts_per_step", per(t.ownership_conflicts));
        out.layer(
            "spray.fallback_privatizations_per_step",
            per(t.fallback_privatizations),
        );
        out.layer("spray.remote_enqueues_per_step", per(t.remote_enqueues));
        out.layer(
            "spray.merged_mib_per_step",
            per(t.merged_bytes) / (1024.0 * 1024.0),
        );
        out.layer("spray.conflict_ratio", t.contention_ratio());
        out.layer("spray.merge_gbps", median(&self.merge_bw) / 1e9);
    }
}

/// The metrics every closed-loop workload reports the same way.
/// `applies` is the total over the passing steps. Percentiles are
/// [`stats::windowed`], and the rates are taken at the median step, so a
/// disturbed stretch of the run does not move them.
pub fn closed_loop_e2e(out: &mut Outcome, records: &[StepRecord], applies: u64) {
    let ms = step_ms(records, false);
    let (p50, windows) = stats::windowed(&ms, 0.5);
    let (p95, _) = stats::windowed(&ms, 0.95);
    let passed = records.iter().filter(|r| r.ok).count().max(1);
    out.e2e("step_ms_p50", p50);
    out.e2e("step_ms_p95", p95);
    out.e2e(
        "updates_per_s",
        applies as f64 / passed as f64 / (p50 / 1e3),
    );
    // A closed loop has no offered rate: its sustained rate is the step
    // rate of its one caller.
    out.e2e("slo_jobs_per_s", 1e3 / p50);
    out.note(format!(
        "# closed loop: {} steps ({} untraced); percentiles are medians over {windows} windows of {} steps",
        records.len(),
        ms.len(),
        ms.len() / windows
    ));
}

/// Fills `attempted`/`failed` from closed-loop records and notes the
/// first few errors.
pub fn count_failures(out: &mut Outcome, records: &[StepRecord], errors: &[String]) {
    out.attempted = records.len() as u64;
    out.failed = records.iter().filter(|r| !r.ok).count() as u64;
    for e in errors.iter().take(5) {
        out.note(format!("# FAILED {e}"));
    }
}

/// Median wall ms of `reps` calls of `f` (a per-layer probe).
pub fn probe_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&v)
}

/// Wall ms of `ThreadPool::new(TEAM)` plus its first region, median of
/// several pools.
pub fn probe_pool_new_ms() -> f64 {
    probe_ms(5, || {
        let pool = ompsim::ThreadPool::new(TEAM);
        pool.for_each(0..TEAM, ompsim::Schedule::default(), |i| {
            std::hint::black_box(i);
        });
    })
}

/// Median µs of an empty `for_each` over the team on `pool`.
pub fn probe_fork_join_us(pool: &ompsim::ThreadPool) -> f64 {
    let n = pool.num_threads();
    let v: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            pool.for_each(0..n, ompsim::Schedule::default(), |i| {
                std::hint::black_box(i);
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&v)
}

/// The `trace.*` metrics of a closed loop: the traced steps' median
/// against the interleaved untraced steps', and the median residual of
/// a step span not covered by its children.
pub fn trace_metrics(out: &mut Outcome, records: &[StepRecord], tracer: &Tracer) {
    let on = stats::median(&step_ms(records, true));
    let off = stats::median(&step_ms(records, false));
    out.layer("trace.overhead_pct", (on / off - 1.0) * 100.0);
    out.layer("trace.unattributed_ms", tracer.unattributed_ms("step"));
}

/// Binds the team of a closed-loop workload (the caller and the pool's
/// workers) to separate CPUs; returns the note line describing it.
pub fn bind_closed_loop_team() -> String {
    format!("# team binding: {}", affinity::bind_team(None).join(" "))
}

/// Allocations per step over `f` (`memtrack`'s process-wide count).
pub fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let a0 = memtrack::total_allocations();
    let r = f();
    (r, memtrack::total_allocations() - a0)
}
