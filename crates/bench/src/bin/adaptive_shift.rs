//! Adaptive strategy migration on a workload whose density shifts.
//!
//! The region stream is front-loaded dense (≈16 applies per output
//! element — block privatization territory) and then drops to a sparse
//! tail (≈1/16 applies per element — atomic territory). Three executors
//! run the same stream:
//!
//! * fixed block-private (right for the head, wrong for the tail);
//! * fixed atomic (wrong for the head, right for the tail);
//! * adaptive, starting block-private with the default candidate set —
//!   the cost model must notice the density shift and migrate.
//!
//! Per phase the report is the best steady-state region time (min over
//! the later regions of the phase, min over reps), so the adaptive
//! executor is judged on where it *settles*, not on the patience regions
//! it spends deciding. The adaptive row also reports `migrations`,
//! `migration_secs` and the per-strategy region counts from the
//! executor's telemetry.
//!
//! The cost model reads only deterministic signals, so the migration
//! sequence is a pure function of the workload, not of scheduler noise —
//! the same policy the verify oracle checks.
//!
//! Prints CSV and writes `BENCH_adaptive_shift.json`. With `--check`,
//! exits nonzero if the adaptive executor never migrated or its
//! steady-state trails the best fixed executor beyond a generous smoke
//! slack on either phase.

use bench::args::Opts;
use ompsim::{Schedule, ThreadPool};
use spray::{
    default_candidates, ExecutorPolicy, JsonWriter, Kernel, ReducerView, RegionExecutor, Strategy,
    Sum,
};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

#[global_allocator]
static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;

/// Scatter with a data-dependent index stream: iteration `i` touches
/// `(i·7919 + salt) mod n`, one apply per iteration — density is dialed
/// purely by the iteration count.
struct ShiftKernel {
    n: usize,
    salt: usize,
}

impl Kernel<f64> for ShiftKernel {
    #[inline(always)]
    fn item<V: ReducerView<f64>>(&self, view: &mut V, i: usize) {
        view.apply((i * 7919 + self.salt) % self.n, black_box(1.0));
    }
}

/// One measured (executor, phase) cell.
struct Row {
    executor: String,
    phase: &'static str,
    threads: usize,
    steady_secs: f64,
    migrations: u64,
    migration_secs: f64,
    strategy_regions: Vec<(String, u64)>,
}

/// Workload shape shared by every executor under test.
#[derive(Clone, Copy)]
struct Shape {
    n: usize,
    dense_updates: usize,
    sparse_updates: usize,
    phase_regions: usize,
}

/// Runs the dense→sparse region stream once through a fresh executor,
/// returning (dense steady, sparse steady, the executor). The caller
/// interleaves these passes across the executors under test so that a
/// burst of background load on a shared runner lands on every
/// configuration, not entirely on whichever one happened to be running
/// its contiguous block of reps.
fn run_pass(
    strategy: Strategy,
    policy: Option<&ExecutorPolicy>,
    pool: &ThreadPool,
    shape: Shape,
    out: &mut [f64],
) -> (f64, f64, RegionExecutor<f64, Sum>) {
    let Shape {
        n,
        dense_updates,
        sparse_updates,
        phase_regions,
    } = shape;
    let steady_window = (phase_regions / 2).max(1);
    let mut dense_steady = f64::INFINITY;
    let mut sparse_steady = f64::INFINITY;
    let mut ex = match policy {
        Some(p) => RegionExecutor::<f64, Sum>::with_policy(strategy, p.clone()),
        None => RegionExecutor::<f64, Sum>::new(strategy),
    };
    for (phase, updates, steady) in [
        (0u64, dense_updates, &mut dense_steady),
        (1u64, sparse_updates, &mut sparse_steady),
    ] {
        let kernel = ShiftKernel {
            n,
            salt: phase as usize,
        };
        for r in 0..phase_regions {
            out.fill(0.0);
            let t0 = Instant::now();
            ex.run_planned(phase, pool, out, 0..updates, Schedule::default(), &kernel);
            let dt = t0.elapsed().as_secs_f64();
            // Judge each executor on where it settles: the later
            // regions, after scratch warm-up, plan recording and (for
            // the adaptive run) the patience + migration regions.
            if r >= phase_regions - steady_window {
                *steady = steady.min(dt);
            }
        }
        black_box(&out);
    }
    (dense_steady, sparse_steady, ex)
}

fn main() {
    let opts = Opts::parse();
    let n = opts.n.unwrap_or(if opts.quick { 1 << 14 } else { 1 << 18 });
    let phase_regions = if opts.quick { 6 } else { 10 };
    let block_size = 1024usize;
    let dense_updates = n * 16;
    let sparse_updates = (n / 16).max(1);
    let adaptive = ExecutorPolicy::Adaptive {
        candidates: default_candidates(block_size),
    };
    let start = Strategy::BlockPrivate { block_size };
    let configs: Vec<(Strategy, Option<ExecutorPolicy>)> = vec![
        (start, None),
        (Strategy::Atomic, None),
        (start, Some(adaptive)),
    ];

    println!("# adaptive_shift: dense front-loaded stream with a sparse tail");
    println!(
        "# N = {n}, block_size = {block_size}, regions/phase = {phase_regions}, \
         dense = {dense_updates} updates, sparse = {sparse_updates} updates, reps = {}",
        opts.reps
    );
    println!("executor,phase,threads,steady_secs,migrations,migration_secs,strategy_regions");

    let shape = Shape {
        n,
        dense_updates,
        sparse_updates,
        phase_regions,
    };
    let mut rows: Vec<Row> = Vec::new();
    let mut out = vec![0.0f64; n];
    for &threads in &opts.threads {
        let pool = ThreadPool::new(threads);
        // Interleave reps across the executors (rep-outer) so runner
        // noise decorrelates from the configuration; report the min.
        let mut dense_best = vec![f64::INFINITY; configs.len()];
        let mut sparse_best = vec![f64::INFINITY; configs.len()];
        let mut final_ex: Vec<Option<RegionExecutor<f64, Sum>>> =
            configs.iter().map(|_| None).collect();
        for _ in 0..opts.reps {
            for (ci, (strategy, policy)) in configs.iter().enumerate() {
                let (dense, sparse, ex) =
                    run_pass(*strategy, policy.as_ref(), &pool, shape, &mut out);
                dense_best[ci] = dense_best[ci].min(dense);
                sparse_best[ci] = sparse_best[ci].min(sparse);
                final_ex[ci] = Some(ex);
            }
        }
        for (ci, (strategy, policy)) in configs.iter().enumerate() {
            let ex = final_ex[ci].take().expect("reps >= 1");
            let executor = match policy {
                Some(_) => "adaptive".to_string(),
                None => strategy.label(),
            };
            for (phase, steady) in [("dense", dense_best[ci]), ("sparse", sparse_best[ci])] {
                rows.push(Row {
                    executor: executor.clone(),
                    phase,
                    threads,
                    steady_secs: steady,
                    migrations: ex.migrations(),
                    migration_secs: ex.migration_secs(),
                    strategy_regions: ex.strategy_regions().to_vec(),
                });
            }
        }
    }

    for r in &rows {
        let regions: Vec<String> = r
            .strategy_regions
            .iter()
            .map(|(l, c)| format!("{l}:{c}"))
            .collect();
        println!(
            "{},{},{},{:.6e},{},{:.6e},{}",
            r.executor,
            r.phase,
            r.threads,
            r.steady_secs,
            r.migrations,
            r.migration_secs,
            regions.join("|")
        );
    }

    let mut w = JsonWriter::new();
    w.begin_obj()
        .field_u64("n", n as u64)
        .field_u64("block_size", block_size as u64)
        .field_u64("regions_per_phase", phase_regions as u64)
        .field_u64("dense_updates", dense_updates as u64)
        .field_u64("sparse_updates", sparse_updates as u64)
        .field_u64("reps", opts.reps as u64);
    w.key("results").begin_arr();
    for r in &rows {
        w.begin_obj()
            .field_str("executor", &r.executor)
            .field_str("phase", r.phase)
            .field_u64("threads", r.threads as u64)
            .field_f64("steady_secs", r.steady_secs)
            .field_u64("migrations", r.migrations)
            .field_f64("migration_secs", r.migration_secs);
        w.key("strategy_regions").begin_obj();
        for (label, count) in &r.strategy_regions {
            w.field_u64(label, *count);
        }
        w.end_obj().end_obj();
    }
    w.end_arr().end_obj();
    let path = "BENCH_adaptive_shift.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(w.finish().as_bytes()))
        .expect("write BENCH_adaptive_shift.json");
    eprintln!("wrote {path}");

    if opts.check {
        // Gate: the adaptive executor must actually migrate, and its
        // steady state must not trail the best fixed executor beyond
        // slack on either phase (2x relative + 50 µs absolute — smoke
        // sizes jitter on loaded runners, and the wrong-strategy
        // penalty this guards against is 5-8x; the tight 5% claim is
        // for the committed full-size artifact, not the CI gate).
        let mut bad = 0;
        for &threads in &opts.threads {
            for phase in ["dense", "sparse"] {
                let cell = |name: &str| {
                    rows.iter()
                        .find(|r| r.executor == name && r.phase == phase && r.threads == threads)
                        .unwrap_or_else(|| panic!("missing row {name}/{phase}/{threads}t"))
                };
                let adaptive = cell("adaptive");
                let best_fixed = rows
                    .iter()
                    .filter(|r| {
                        r.executor != "adaptive" && r.phase == phase && r.threads == threads
                    })
                    .map(|r| r.steady_secs)
                    .fold(f64::INFINITY, f64::min);
                let limit = best_fixed * 2.0 + 50e-6;
                if adaptive.steady_secs > limit {
                    eprintln!(
                        "CHECK FAIL: adaptive {phase} @{threads}t {:.3e}s > limit {:.3e}s \
                         (best fixed {best_fixed:.3e}s)",
                        adaptive.steady_secs, limit
                    );
                    bad += 1;
                }
                if adaptive.migrations < 1 {
                    eprintln!("CHECK FAIL: adaptive @{threads}t never migrated");
                    bad += 1;
                }
            }
        }
        if bad > 0 {
            eprintln!("adaptive_shift check: {bad} failure(s)");
            std::process::exit(1);
        }
        eprintln!("adaptive_shift check: all configurations within slack");
    }
}
