//! `service-open` — an open loop of independent tenants against a
//! `ReductionService`.
//!
//! The service runs at [`TEAM`] threads, `block-CAS-64`, batch window 8,
//! pipelined. Each job has [`JOB_OUT`] i64 outputs and [`JOB_APPLIES`]
//! hashed applies, from one of two tenants in one shape class. One
//! generator thread (the caller) submits on a seeded Poisson schedule at
//! fixed absolute rates and one collector thread redeems the tickets in
//! order and checks every job bit-exact against a sequential loop.
//! Latency is timed from each job's due time.
//!
//! The run first holds the nominal rate [`NOMINAL_RATE`] (latency
//! percentiles and per-layer figures), then climbs [`LADDER`] until a
//! rung misses the SLO: p95 latency over [`P95_LIMIT_MS`], a growing
//! backlog, or a generator running late beyond [`GEN_LATE_LIMIT_MS`].

use crate::{
    affinity, allocs_during, mib, mix, probe_fork_join_us, probe_pool_new_ms,
    stats::{mean, median, p50_p95, windowed},
    trace::{SpanId, Tracer},
    Heap, Outcome, ReportAgg, Rng, RunCfg, SetupTimes, TEAM,
};
use spray::{ReducerView, Strategy, Sum};
use spray_service::{Job, ReductionService, ServiceConfig, Ticket};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Outputs per job.
pub const JOB_OUT: usize = 2048;
/// Applies per job.
pub const JOB_APPLIES: usize = 1024;
/// Nominal offered rate, jobs/s: latency percentiles are taken here.
pub const NOMINAL_RATE: f64 = 4_000.0;
/// Offered rates of the SLO ladder, jobs/s, ascending. Calibrated at 2
/// threads on 2 cores: the capacity knee fell between 40k and 56k
/// jobs/s from run to run, so the rungs are a factor 2 apart and none
/// sits inside that band.
pub const LADDER: &[f64] = &[7_500.0, 15_000.0, 30_000.0, 60_000.0];
/// The SLO: p95 latency from due time. Calibrated: p95 stayed below
/// 2 ms at every rate up to 32k jobs/s.
pub const P95_LIMIT_MS: f64 = 5.0;
/// A rung whose generator p95 lateness exceeds this is over the SLO.
pub const GEN_LATE_LIMIT_MS: f64 = 1.0;
/// A nominal-rate job later than this counts as failed.
pub const LATE_LIMIT_MS: f64 = 1_000.0;
/// A rung is abandoned (over the SLO) once this many jobs are
/// outstanding.
const BACKLOG_CAP: u64 = 4_096;
const TENANTS: u64 = 2;
const CLASS: u64 = 0;

/// The service configuration under test.
pub fn config() -> ServiceConfig {
    ServiceConfig {
        threads: TEAM,
        strategy: Strategy::BlockCas { block_size: 64 },
        batch_window: 8,
        pipeline: true,
        ..ServiceConfig::default()
    }
}

/// Apply `i` of the job salted `salt`: `(index, value)`.
#[inline]
fn update(salt: u64, i: usize) -> (usize, i64) {
    let h = mix(salt ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (
        (h % JOB_OUT as u64) as usize,
        ((h >> 40) as i64) - (1 << 23),
    )
}

fn job(tenant: u64, salt: u64) -> Job<'static, i64> {
    Job {
        tenant,
        class: CLASS,
        out: vec![0; JOB_OUT],
        iters: JOB_APPLIES,
        body: Box::new(move |view: &mut dyn ReducerView<i64>, i| {
            let (k, v) = update(salt, i);
            view.apply(k, v);
        }),
    }
}

/// The sequential result of the job salted `salt`.
fn reference(salt: u64, buf: &mut [i64]) {
    buf.fill(0);
    for i in 0..JOB_APPLIES {
        let (k, v) = update(salt, i);
        buf[k] += v;
    }
}

/// Lets this thread's sleeps wake within 1 µs of their deadline instead
/// of Linux's default 50 µs timer slack, so generator lateness measures
/// scheduling delay rather than timer coalescing.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    use std::ffi::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument, sets the
    // calling thread's timer slack and touches no memory of ours. A
    // failure leaves the default slack, which is only less precise.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000 as c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

fn setup() -> ReductionService<i64, Sum> {
    let svc = ReductionService::new(config());
    // Warm-up: one group of each batch size records every batch shape's
    // plan and session scratch.
    for k in 1..=config().batch_window {
        let jobs = (0..k as u64)
            .map(|j| job(j % TENANTS, mix(j + 1)))
            .collect();
        svc.run_scoped(jobs);
    }
    svc
}

/// One redeemed job.
struct Sample {
    latency_ms: f64,
    late_ms: f64,
    queue_wait_ms: f64,
    exec_ms: f64,
    planned_regions: u64,
    batch_size: usize,
    ok: bool,
    traced: bool,
}

/// What a stretch of offered load at one rate measured.
struct Load {
    rate: f64,
    samples: Vec<Sample>,
    /// Jobs outstanding when generation stopped.
    backlog_end: u64,
    /// Generation stopped early at [`BACKLOG_CAP`].
    overflowed: bool,
    /// First due time to last redemption, seconds.
    span_s: f64,
}

impl Load {
    fn latencies(&self, traced: Option<bool>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok && traced.is_none_or(|t| s.traced == t))
            .map(|s| s.latency_ms)
            .collect()
    }

    fn column(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }

    fn late_p95(&self) -> f64 {
        windowed(&self.column(|s| s.late_ms), 0.95).0
    }

    /// Whether the load met the SLO; with the reason when it did not.
    fn verdict(&self) -> Result<(), String> {
        let p95 = windowed(&self.latencies(None), 0.95).0;
        // Little's law: a steady queue within the limit holds about
        // `rate × latency` jobs; twice the limit's worth is growth.
        let steady = 2.0 * self.rate * P95_LIMIT_MS / 1e3 + 16.0;
        if self.overflowed || self.backlog_end as f64 > steady {
            Err(format!("backlog {} > {steady:.0}", self.backlog_end))
        } else if self.late_p95() > GEN_LATE_LIMIT_MS {
            Err(format!("generator late p95 {:.3} ms", self.late_p95()))
        } else if p95.is_nan() || p95 > P95_LIMIT_MS {
            Err(format!("p95 {p95:.3} ms"))
        } else if self.samples.iter().any(|s| !s.ok) {
            Err("failed jobs".into())
        } else {
            Ok(())
        }
    }

    /// The `service.*` per-layer metrics of this load.
    fn emit_layers(&self, out: &mut Outcome) {
        let (qw50, qw95) = p50_p95(&self.column(|s| s.queue_wait_ms));
        out.layer("service.queue_wait_ms_p50", qw50);
        out.layer("service.queue_wait_ms_p95", qw95);
        out.layer("service.exec_ms_p50", median(&self.column(|s| s.exec_ms)));
        out.layer(
            "service.batch_size_mean",
            mean(&self.column(|s| s.batch_size as f64)),
        );
        out.layer("service.gen_late_ms_p95", self.late_p95());
        out.layer("service.backlog_end", self.backlog_end as f64);
    }

    fn describe(&self) -> String {
        let lat = self.latencies(None);
        let (p50, p95) = (windowed(&lat, 0.5).0, windowed(&lat, 0.95).0);
        format!(
            "rate={} jobs={} p50={p50:.3}ms p95={p95:.3}ms late_p95={:.3}ms backlog_end={} batch_mean={:.2}",
            self.rate,
            self.samples.len(),
            self.late_p95(),
            self.backlog_end,
            mean(&self.column(|s| s.batch_size as f64))
        )
    }
}

struct Pending {
    /// `None` when the service refused the submission.
    ticket: Option<Ticket<i64>>,
    due: Instant,
    late_ms: f64,
    salt: u64,
    seq: u64,
    traced: bool,
    span: SpanId,
}

/// Settings of the nominal-rate load: its jobs' reports feed `agg`, a
/// traced run records spans for every other job, and with `corrupt` job
/// 1's first output is flipped before its check.
struct Nominal<'a> {
    agg: &'a mut ReportAgg,
    trace: bool,
    corrupt: bool,
}

/// Redeems tickets in submission order and checks each job, appending
/// to `samples`; returns them with the last redemption time.
fn collect(
    rx: mpsc::Receiver<Pending>,
    done: &AtomicU64,
    tracer: &Tracer,
    mut nominal: Option<Nominal<'_>>,
    mut samples: Vec<Sample>,
) -> (Vec<Sample>, Option<Instant>) {
    let mut want = vec![0i64; JOB_OUT];
    let mut last = None;
    for p in rx {
        let (result, _) = tracer.time(p.traced, "service.Ticket::wait", p.span, p.seq, || {
            p.ticket
                .ok_or(())
                .and_then(|t| catch_unwind(AssertUnwindSafe(|| t.wait())).map_err(drop))
        });
        let t_done = Instant::now();
        done.fetch_add(1, Ordering::Relaxed);
        last = Some(t_done);
        let latency_ms = (t_done - p.due).as_secs_f64() * 1e3;
        let mut sample = Sample {
            latency_ms,
            late_ms: p.late_ms,
            queue_wait_ms: f64::NAN,
            exec_ms: f64::NAN,
            planned_regions: 0,
            batch_size: 0,
            ok: false,
            traced: p.traced,
        };
        if let Ok(mut r) = result {
            if let Some(n) = nominal.as_mut() {
                n.agg.add(&r.report, latency_ms);
                if n.corrupt && p.seq == 1 {
                    r.out[0] ^= 1;
                }
            }
            let (ok, _) = tracer.time(p.traced, "bench.check", p.span, p.seq, || {
                reference(p.salt, &mut want);
                r.out == want
            });
            sample.queue_wait_ms = r.queue_wait.as_secs_f64() * 1e3;
            sample.exec_ms = r.report.phases.region_secs * 1e3;
            sample.planned_regions = r.report.planned_regions;
            sample.batch_size = r.batch_size;
            sample.ok = ok;
        }
        tracer.end(p.span);
        samples.push(sample);
    }
    (samples, last)
}

/// Offers `rate` jobs/s for `secs` on a Poisson schedule drawn from
/// `rng`, and waits for every job submitted to be redeemed.
fn offer(
    svc: &ReductionService<i64, Sum>,
    rate: f64,
    secs: f64,
    rng: &mut Rng,
    tracer: &Tracer,
    nominal: Option<Nominal<'_>>,
) -> Load {
    let trace = nominal.as_ref().is_some_and(|n| n.trace);
    let done = AtomicU64::new(0);
    // Sized up front, so the benchmark's own bookkeeping does not grow
    // (and move the heap peak) while the service is measured.
    let samples = Vec::with_capacity((rate * secs * 1.25) as usize + 64);
    let (tx, rx) = mpsc::channel::<Pending>();
    std::thread::scope(|s| {
        let done = &done;
        let collector = std::thread::Builder::new()
            .name("perfbench-collector".into())
            .spawn_scoped(s, move || collect(rx, done, tracer, nominal, samples))
            .expect("spawn collector thread");
        let start = Instant::now() + Duration::from_millis(1);
        let mut offset = 0.0f64;
        let mut submitted = 0u64;
        let mut overflowed = false;
        while offset < secs {
            let due = start + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if submitted - done.load(Ordering::Relaxed) >= BACKLOG_CAP {
                overflowed = true;
                break;
            }
            let seq = submitted;
            let salt = rng.next_u64();
            let traced = trace && seq % 2 == 1;
            let span = tracer.begin_at(traced, "service.job", SpanId::ROOT, seq, due);
            let late_ms = (Instant::now() - due).as_secs_f64() * 1e3;
            let (ticket, _) = tracer.time(traced, "service.submit", span, seq, || {
                catch_unwind(AssertUnwindSafe(|| svc.submit(job(seq % TENANTS, salt)))).ok()
            });
            submitted += 1;
            tx.send(Pending {
                ticket,
                due,
                late_ms,
                salt,
                seq,
                traced,
                span,
            })
            .expect("collector alive");
            // Exponential inter-arrival gap.
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            offset += -(1.0 - u).ln() / rate;
        }
        let backlog_end = submitted - done.load(Ordering::Relaxed);
        drop(tx);
        let (samples, last) = collector.join().expect("collector thread panicked");
        Load {
            rate,
            samples,
            backlog_end,
            overflowed,
            span_s: last.map_or(0.0, |l| (l - start).as_secs_f64()),
        }
    })
}

/// The service layer's per-layer figures from inside another workload's
/// traced run: this workload's job stream at the nominal rate for
/// `secs`, on a fresh service, without spans. Its jobs are checked and
/// counted in `out`.
pub fn probe(seed: u64, secs: f64, tracer: &Tracer, out: &mut Outcome) {
    let svc = setup();
    affinity::bind_team(Some("spray-service"));
    tighten_timer_slack();
    let mut agg = ReportAgg::default();
    let settings = Nominal {
        agg: &mut agg,
        trace: false,
        corrupt: false,
    };
    let load = offer(
        &svc,
        NOMINAL_RATE,
        secs,
        &mut Rng::new(seed, 3),
        tracer,
        Some(settings),
    );
    out.attempted += load.samples.len() as u64;
    out.failed += load.samples.iter().filter(|s| !s.ok).count() as u64;
    load.emit_layers(out);
    out.note(format!(
        "# service layer probed with the service-open job stream: {}",
        load.describe()
    ));
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tracer: &Tracer) -> Outcome {
    let mut heap = Heap::default();
    let (svc, setup) = SetupTimes::measure(cfg, &mut heap, 51, setup);
    let plan_build_ms = svc.shared().plans().plan_build_secs() * 1e3;
    // The dispatcher thread is the team's master.
    let binding = affinity::bind_team(Some("spray-service"));
    let mut out = Outcome {
        // Per batch: up to 8 jobs' outputs, the concat buffer and the
        // block scratch; computed.
        working_set_bytes: (2 * 8 * JOB_OUT * 8) as u64,
        gen_threads: 2,
        ..Outcome::default()
    };
    // The nominal rate runs first; an overloaded rung's backlog must not
    // reach it. A traced run holds the nominal rate throughout, where the
    // per-layer figures are taken.
    let (nominal_s, rung_s) = match (cfg.small, cfg.trace) {
        (true, _) => (0.05, 0.02),
        (false, true) => (cfg.seconds, 0.0),
        (false, false) => (cfg.seconds * 0.6, cfg.seconds * 0.4 / LADDER.len() as f64),
    };
    let mut rng = Rng::new(cfg.seed, 3);
    tighten_timer_slack();
    let mut agg = ReportAgg::default();
    let settings = Nominal {
        agg: &mut agg,
        trace: cfg.trace,
        corrupt: cfg.corrupt,
    };
    let (nominal, allocs) = allocs_during(|| {
        offer(
            &svc,
            NOMINAL_RATE,
            nominal_s,
            &mut rng,
            tracer,
            Some(settings),
        )
    });
    // Heap peak through set-up and the nominal load: an overloaded rung's
    // backlog is the ladder's business.
    let peak_heap = heap.process_peak();

    let mut rungs: Vec<(Load, Result<(), String>)> = Vec::new();
    let mut slo = 0.0;
    for &rate in LADDER.iter().filter(|_| !cfg.trace) {
        let r = offer(&svc, rate, rung_s, &mut rng, tracer, None);
        let verdict = r.verdict();
        let met = verdict.is_ok();
        rungs.push((r, verdict));
        if !met {
            break;
        }
        slo = rate;
    }

    // Failures: every job is checked; nominal-rate jobs later than the
    // hard limit also fail. Overload on the ladder is what the ladder
    // measures, not a failure.
    let late = |s: &Sample| s.latency_ms > LATE_LIMIT_MS;
    out.attempted = nominal.samples.len() as u64
        + rungs
            .iter()
            .map(|(r, _)| r.samples.len() as u64)
            .sum::<u64>();
    out.failed = nominal.samples.iter().filter(|s| !s.ok || late(s)).count() as u64
        + rungs
            .iter()
            .map(|(r, _)| r.samples.iter().filter(|s| !s.ok).count() as u64)
            .sum::<u64>();

    out.note(format!("# team binding: {}", binding.join(" ")));
    let lat = nominal.latencies(Some(false));
    if cfg.trace {
        agg.emit(&mut out);
        nominal.emit_layers(&mut out);
        let batch = nominal.column(|s| s.batch_size as f64);
        let regions: f64 = batch.iter().filter(|&&b| b > 0.0).map(|b| 1.0 / b).sum();
        let replays = nominal.samples.iter().map(|s| s.planned_regions);
        let replayed = replays.clone().max().unwrap_or(0) - replays.min().unwrap_or(0);
        out.layer("plan.build_ms", plan_build_ms);
        out.layer("plan.replay_ratio", replayed as f64 / regions.max(1.0));
        out.layer(
            "memtrack.allocs_per_step",
            allocs as f64 / nominal.samples.len().max(1) as f64,
        );
        out.layer("memtrack.setup_peak_mib", setup.median_peak_mib());
        let on = median(&nominal.latencies(Some(true)));
        out.layer("trace.overhead_pct", (on / median(&lat) - 1.0) * 100.0);
        out.layer(
            "trace.unattributed_ms",
            tracer.unattributed_ms("service.job"),
        );
        // The service's pool is private: probe a pool of the same width.
        drop(svc);
        out.layer(
            "ompsim.fork_join_us",
            probe_fork_join_us(&ompsim::ThreadPool::new(TEAM)),
        );
        out.layer("ompsim.pool_new_ms", probe_pool_new_ms());
        out.note("# ompsim probes run on a fresh pool of the service's width (its own pool is private); spray.* figures are per job, of the region that ran it".into());
    } else {
        // Latencies in redemption order, windowed like every percentile.
        let (p50, windows) = windowed(&lat, 0.5);
        let (p95, _) = windowed(&lat, 0.95);
        out.e2e("step_ms_p50", p50);
        out.e2e("step_ms_p95", p95);
        out.note(format!(
            "# latency percentiles are medians over {windows} windows of {} jobs",
            lat.len() / windows
        ));
        let jobs_ok = nominal.samples.iter().filter(|s| s.ok).count();
        out.e2e(
            "updates_per_s",
            (jobs_ok * JOB_APPLIES) as f64 / nominal.span_s.max(1e-9),
        );
        out.e2e("slo_jobs_per_s", slo);
        out.e2e("mem_overhead_mib", mib(agg.mem_overhead));
        out.e2e("peak_heap_mib", mib(peak_heap));
        out.e2e("setup_s", setup.median_secs());
    }
    out.note(format!(
        "# service-open: {JOB_OUT} i64 outputs x {JOB_APPLIES} applies per job, {TENANTS} tenants, {:?}, batch window {}, pipelined; nominal {NOMINAL_RATE} jobs/s for {nominal_s:.2} s; SLO p95 <= {P95_LIMIT_MS} ms, generator late p95 <= {GEN_LATE_LIMIT_MS} ms, no growing backlog",
        config().strategy,
        config().batch_window
    ));
    out.note(format!("# nominal {}", nominal.describe()));
    for (r, v) in &rungs {
        out.note(format!(
            "# rung {} -> {}",
            r.describe(),
            v.as_ref()
                .map_or_else(|e| format!("over SLO ({e})"), |_| "meets SLO".into())
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(corrupt: bool) -> RunCfg {
        RunCfg {
            seed: 5,
            seconds: 0.0,
            trace: false,
            small: true,
            corrupt,
        }
    }

    #[test]
    fn clean_run_passes() {
        let o = run(&cfg(false), &Tracer::new());
        assert!(o.attempted > 0);
        assert_eq!(o.failed, 0, "{:?}", o.notes);
    }

    #[test]
    fn corrupted_job_is_counted_failed() {
        let o = run(&cfg(true), &Tracer::new());
        assert!(o.failed > 0, "{:?}", o.notes);
    }

    #[test]
    fn reference_matches_a_service_job() {
        let svc = ReductionService::<i64, Sum>::new(config());
        let got = svc.submit(job(0, 42)).wait().out;
        let mut want = vec![0; JOB_OUT];
        reference(42, &mut want);
        assert_eq!(got, want);
    }
}
