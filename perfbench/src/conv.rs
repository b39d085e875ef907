//! `conv-backprop` — Fig. 11 at paper size.
//!
//! 10⁷ f32 inputs through the 3-point back-propagation scatter. Each
//! step zeroes `out`, calls `RegionExecutor::run` (unplanned,
//! `block-CAS-1024`) and checks `out` elementwise against
//! `backprop3_seq`.

use crate::{
    allocs_during, bind_closed_loop_team, closed_loop, closed_loop_e2e, count_failures,
    first_mismatch, mib, probe_fork_join_us, probe_ms, probe_pool_new_ms, trace::Tracer,
    trace_metrics, Heap, Outcome, ReportAgg, Rng, RunCfg, SetupTimes, TEAM,
};
use ompsim::{Schedule, ThreadPool};
use spray::{RegionExecutor, Strategy, Sum};
use spray_conv::{backprop3_seq, Backprop3Kernel, Stencil3};

/// Input length at paper size.
pub const N: usize = 10_000_000;
const STRATEGY: Strategy = Strategy::BlockCas { block_size: 1024 };
/// Reassociation tolerance, relative to `1 + |want|`: each output sums
/// three products of a weight ≤ 0.5 and an input in `[-1, 1)`, so any
/// f32 summation order lands within a few ulps of 1.0.
const TOL: f64 = 1e-5;

struct State {
    inp: Vec<f32>,
    out: Vec<f32>,
    pool: ThreadPool,
    exec: RegionExecutor<f32, Sum>,
}

/// The seeded input: uniform in `[-1, 1)`.
pub fn input(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed, 1);
    (0..n).map(|_| rng.signed_unit() as f32).collect()
}

fn setup(inp: Vec<f32>) -> State {
    let n = inp.len();
    let pool = ThreadPool::new(TEAM);
    let mut exec = RegionExecutor::<f32, Sum>::new(STRATEGY);
    let mut out = vec![0.0f32; n];
    let kernel = Backprop3Kernel {
        inp: &inp,
        w: Stencil3::default(),
    };
    exec.run(&pool, &mut out, 1..n - 1, Schedule::default(), &kernel);
    State {
        inp,
        out,
        pool,
        exec,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tracer: &Tracer) -> Outcome {
    let n = if cfg.small { 10_000 } else { N };
    let mut out = Outcome {
        working_set_bytes: (2 * n * std::mem::size_of::<f32>()) as u64,
        ..Outcome::default()
    };
    let mut heap = Heap::default();
    let (mut st, setup) = SetupTimes::measure(cfg, &mut heap, 5, || setup(input(n, cfg.seed)));
    let binding = bind_closed_loop_team();

    // Sequential reference, outside the timed and set-up windows.
    let mut want = vec![0.0f32; n];
    backprop3_seq(&mut want, &st.inp, Stencil3::default());

    let mut agg = ReportAgg::default();
    let ((records, errors), allocs) = allocs_during(|| {
        closed_loop(cfg, tracer, 3, |ctx| {
            ctx.call("bench.prepare", || st.out.fill(0.0));
            let kernel = Backprop3Kernel {
                inp: &st.inp,
                w: Stencil3::default(),
            };
            let (report, ms) = ctx.call("spray.RegionExecutor::run", || {
                st.exec.run(
                    &st.pool,
                    &mut st.out,
                    1..n - 1,
                    Schedule::default(),
                    &kernel,
                )
            });
            if cfg.corrupt && ctx.step == 1 {
                st.out[n / 2] += 1.0;
            }
            let (bad, _) = ctx.call("bench.check", || first_mismatch(&st.out, &want, TOL));
            if let Some((i, g, w)) = bad {
                return Err(format!("out[{i}] = {g}, sequential {w}"));
            }
            agg.add(&report, ms);
            Ok(ms)
        })
    });
    count_failures(&mut out, &records, &errors);
    out.note(binding);

    if cfg.trace {
        agg.emit(&mut out);
        out.layer("ompsim.fork_join_us", probe_fork_join_us(&st.pool));
        out.layer("ompsim.pool_new_ms", probe_pool_new_ms());
        out.layer("plan.build_ms", 0.0);
        out.layer("plan.replay_ratio", 0.0);
        out.layer(
            "memtrack.allocs_per_step",
            allocs as f64 / records.len() as f64,
        );
        out.layer("memtrack.setup_peak_mib", setup.median_peak_mib());
        let mut scratch = vec![0.0f32; n];
        out.layer(
            "conv.seq_ms_p50",
            probe_ms(5, || {
                scratch.fill(0.0);
                backprop3_seq(&mut scratch, &st.inp, Stencil3::default());
            }),
        );
        trace_metrics(&mut out, &records, tracer);
        out.note("# layers bypassed: plan (unplanned run), service".into());
    } else {
        closed_loop_e2e(&mut out, &records, agg.applies());
        out.e2e("mem_overhead_mib", mib(agg.mem_overhead));
        out.e2e("peak_heap_mib", mib(heap.process_peak()));
        out.e2e("setup_s", setup.median_secs());
    }
    out.note(format!(
        "# conv-backprop: n={n} f32, {STRATEGY:?} via RegionExecutor::run, check |got-want| <= {TOL:e}*(1+|want|)"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(corrupt: bool) -> RunCfg {
        RunCfg {
            seed: 7,
            seconds: 0.0,
            trace: false,
            small: true,
            corrupt,
        }
    }

    #[test]
    fn clean_run_passes() {
        let o = run(&cfg(false), &Tracer::new());
        assert!(o.attempted >= 3);
        assert_eq!(o.failed, 0, "{:?}", o.notes);
    }

    #[test]
    fn corrupted_output_is_counted_failed() {
        let o = run(&cfg(true), &Tracer::new());
        assert!(o.failed > 0 && o.failed < o.attempted, "{:?}", o.notes);
    }

    #[test]
    fn input_follows_the_seed() {
        assert_eq!(input(64, 3), input(64, 3));
        assert_ne!(input(64, 3), input(64, 4));
    }
}
