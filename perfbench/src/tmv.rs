//! `tmv-debr` — Fig. 15: `y += Aᵀx` on the de Bruijn matrix.
//!
//! The order-20 de Bruijn graph (1,048,576² with 4.19 M nonzeros) and a
//! seeded `x`. Each step zeroes `y`, calls `PlannedTmv::run`
//! (`block-private-1024`, replaying the plan recorded during set-up) and
//! checks `y` elementwise against `Csr::tmatvec_seq`.

use crate::{
    allocs_during, bind_closed_loop_team, closed_loop, closed_loop_e2e, count_failures,
    first_mismatch, mib, probe_fork_join_us, probe_ms, probe_pool_new_ms, stats::median,
    trace::Tracer, trace_metrics, Heap, Outcome, ReportAgg, Rng, RunCfg, SetupTimes, TEAM,
};
use ompsim::ThreadPool;
use spray::Strategy;
use spray_sparse::{gen, tmv_with_strategy, Csr, PlannedTmv};
use std::time::Instant;

/// De Bruijn order at paper size.
pub const ORDER: u32 = 20;
const STRATEGY: Strategy = Strategy::BlockPrivate { block_size: 1024 };
/// Reassociation tolerance, relative to `1 + |want|`: each `y[c]` sums
/// at most four products of weight 1 and an `x` in `[-1, 1)` in f64.
const TOL: f64 = 1e-12;
/// Seconds of the traced run's service-layer probe.
const SERVICE_PROBE_S: f64 = 3.0;

struct State {
    a: Csr<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    pool: ThreadPool,
    tmv: PlannedTmv<f64>,
    gen_s: f64,
    plan_build_s: f64,
}

/// The seeded `x`: uniform in `[-1, 1)`.
pub fn input(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 2);
    (0..n).map(|_| rng.signed_unit()).collect()
}

fn setup(order: u32, seed: u64) -> State {
    let t = Instant::now();
    let a = gen::de_bruijn(order);
    let gen_s = t.elapsed().as_secs_f64();
    let x = input(a.nrows(), seed);
    let mut y = vec![0.0; a.ncols()];
    let pool = ThreadPool::new(TEAM);
    let mut tmv = PlannedTmv::new(STRATEGY);
    // Warm-up: records the plan every measured step replays.
    tmv.run(&pool, &a, &x, &mut y);
    let plan_build_s = tmv.plan_build_secs();
    State {
        a,
        x,
        y,
        pool,
        tmv,
        gen_s,
        plan_build_s,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tracer: &Tracer) -> Outcome {
    let order = if cfg.small { 10 } else { ORDER };
    let mut heap = Heap::default();
    let mut gen_s = Vec::new();
    let mut build_ms = Vec::new();
    let (mut st, setup) = SetupTimes::measure(cfg, &mut heap, 3, || {
        let st = setup(order, cfg.seed);
        gen_s.push(st.gen_s);
        build_ms.push(st.plan_build_s * 1e3);
        st
    });
    let binding = bind_closed_loop_team();
    let n = st.a.ncols();
    let nnz = st.a.nnz();

    // Sequential reference, outside the timed and set-up windows.
    let mut want = vec![0.0; n];
    st.a.tmatvec_seq(&st.x, &mut want);

    let mut agg = ReportAgg::default();
    let replays0 = st.tmv.planned_regions();
    let ((records, errors), allocs) = allocs_during(|| {
        closed_loop(cfg, tracer, 3, |ctx| {
            ctx.call("bench.prepare", || st.y.fill(0.0));
            let (report, ms) = ctx.call("plan.PlannedTmv::run", || {
                st.tmv.run(&st.pool, &st.a, &st.x, &mut st.y)
            });
            if cfg.corrupt && ctx.step == 1 {
                st.y[n / 2] += 1.0;
            }
            let (bad, _) = ctx.call("bench.check", || first_mismatch(&st.y, &want, TOL));
            if let Some((i, g, w)) = bad {
                return Err(format!("y[{i}] = {g}, sequential {w}"));
            }
            agg.add(&report, ms);
            Ok(ms)
        })
    });
    let mut out = Outcome {
        working_set_bytes: (nnz * 12 + (st.a.nrows() + 1) * 8 + 2 * n * 8 + agg.mem_overhead)
            as u64,
        ..Outcome::default()
    };
    count_failures(&mut out, &records, &errors);
    out.note(binding);

    if cfg.trace {
        agg.emit(&mut out);
        out.layer("ompsim.fork_join_us", probe_fork_join_us(&st.pool));
        out.layer("ompsim.pool_new_ms", probe_pool_new_ms());
        out.layer("plan.build_ms", median(&build_ms));
        out.layer(
            "plan.replay_ratio",
            (st.tmv.planned_regions() - replays0) as f64 / records.len() as f64,
        );
        out.layer(
            "plan.unplanned_step_ms_p50",
            probe_ms(5, || {
                st.y.fill(0.0);
                tmv_with_strategy(STRATEGY, &st.pool, &st.a, &st.x, &mut st.y);
            }),
        );
        out.layer(
            "memtrack.allocs_per_step",
            allocs as f64 / records.len() as f64,
        );
        out.layer("memtrack.setup_peak_mib", setup.median_peak_mib());
        out.layer("sparse.gen_s", median(&gen_s));
        out.layer(
            "sparse.seq_ms_p50",
            probe_ms(5, || {
                st.y.fill(0.0);
                st.a.tmatvec_seq(&st.x, &mut st.y);
            }),
        );
        trace_metrics(&mut out, &records, tracer);
        // `service-open` is not a gated workload (see BENCHMARK.json), so
        // the service layer is measured here, after the step spans.
        let probe_s = if cfg.small { 0.05 } else { SERVICE_PROBE_S };
        crate::service::probe(cfg.seed, probe_s, tracer, &mut out);
    } else {
        closed_loop_e2e(&mut out, &records, agg.applies());
        out.e2e("mem_overhead_mib", mib(agg.mem_overhead));
        out.e2e("peak_heap_mib", mib(heap.process_peak()));
        out.e2e("setup_s", setup.median_secs());
    }
    out.note(format!(
        "# tmv-debr: de Bruijn order {order}, {n}x{n}, nnz={nnz}, {STRATEGY:?} via PlannedTmv::run, check |got-want| <= {TOL:e}*(1+|want|)"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(corrupt: bool) -> RunCfg {
        RunCfg {
            seed: 11,
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
        assert!(o.failed > 0, "{:?}", o.notes);
    }

    #[test]
    fn traced_run_measures_the_service_layer() {
        let tracer = Tracer::new();
        let o = run(
            &RunCfg {
                trace: true,
                ..cfg(false)
            },
            &tracer,
        );
        assert_eq!(o.failed, 0, "{:?}", o.notes);
        let layer = |n: &str| o.layers.iter().find(|m| m.name == n).map(|m| m.value);
        assert!(layer("service.exec_ms_p50").is_some_and(|v| v > 0.0));
        assert_eq!(layer("plan.replay_ratio"), Some(1.0));
        assert!(tracer.self_times().contains_key("plan.PlannedTmv::run"));
    }
}
