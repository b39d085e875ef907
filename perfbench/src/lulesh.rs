//! `lulesh-step` — Fig. 16 on a 30³ mesh.
//!
//! Each step is one `step_with` cycle with a `ForceAccum` under keeper
//! that is reused for the whole run. Steps run in episodes of
//! [`EPISODE`] cycles from a fresh Sedov domain; after every cycle the
//! total energy and the maximum nodal velocity are checked against a
//! sequential-force trajectory computed before the measured loop.

use crate::{
    allocs_during, bind_closed_loop_team, closed_loop, closed_loop_e2e, count_failures, mib,
    probe_fork_join_us, probe_pool_new_ms, stats::median, trace::Tracer, trace_metrics, Heap,
    Outcome, RunCfg, SetupTimes, TEAM,
};
use ompsim::ThreadPool;
use spray::Strategy;
use spray_lulesh::{calc_force_for_nodes_with, step_with, Domain, ForceAccum, ForceScheme, Params};

/// Mesh edge at benchmark size.
pub const NX: usize = 30;
/// Cycles per episode (a fresh domain starts every episode).
pub const EPISODE: usize = 100;
const SCHEME: ForceScheme = ForceScheme::Spray(Strategy::Keeper);
/// Reassociation tolerance on total energy and maximum velocity,
/// relative to the sequential trajectory.
const TOL: f64 = 1e-6;

/// Total energy and maximum nodal speed after each cycle.
fn observe(d: &Domain) -> (f64, f64) {
    let vmax = (0..d.nnode())
        .map(|n| (d.xd[n] * d.xd[n] + d.yd[n] * d.yd[n] + d.zd[n] * d.zd[n]).sqrt())
        .fold(0.0f64, f64::max);
    (d.total_energy(), vmax)
}

/// The sequential-force trajectory the measured cycles are checked
/// against.
fn reference(nx: usize, cycles: usize, pool: &ThreadPool) -> Vec<(f64, f64)> {
    let mut d = Domain::new(nx, Params::default());
    let mut accum = ForceAccum::new(ForceScheme::Seq);
    (0..cycles)
        .map(|_| {
            step_with(&mut d, pool, &mut accum);
            observe(&d)
        })
        .collect()
}

struct State {
    d: Domain,
    pool: ThreadPool,
    accum: ForceAccum,
}

fn setup(nx: usize) -> State {
    let mut d = Domain::new(nx, Params::default());
    let pool = ThreadPool::new(TEAM);
    let mut accum = ForceAccum::new(SCHEME);
    // Warm-up cycle: records both force passes' plans and scratch.
    step_with(&mut d, &pool, &mut accum);
    State { d, pool, accum }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tracer: &Tracer) -> Outcome {
    let (nx, episode) = if cfg.small { (6, 5) } else { (NX, EPISODE) };
    let mut heap = Heap::default();
    let (mut st, setup) = SetupTimes::measure(cfg, &mut heap, 15, || setup(nx));
    let binding = bind_closed_loop_team();
    let (nnode, nelem) = (st.d.nnode(), st.d.nelem());

    // Sequential reference, outside the timed and set-up windows.
    let want = reference(nx, episode, &st.pool);

    let mut mem = 0usize;
    let mut applies = 0u64;
    let mut max_err = 0.0f64;
    let mut force_ms = Vec::new();
    let mut rest_ms = Vec::new();
    // Cycle within the current episode; `episode` starts a fresh one.
    let mut cycle = episode;
    let ((records, errors), allocs) = allocs_during(|| {
        closed_loop(cfg, tracer, 3, |ctx| {
            if cycle == episode {
                ctx.call("bench.prepare", || {
                    st.d = Domain::new(nx, Params::default())
                });
                cycle = 0;
            }
            // Traced steps also time the force computation alone on the
            // live domain (it rewrites `d.f`, which the step recomputes).
            let force = ctx.traced.then(|| {
                ctx.call("lulesh.calc_force_for_nodes_with", || {
                    calc_force_for_nodes_with(&mut st.d, &st.pool, &mut st.accum)
                })
                .1
            });
            let (stats, ms) = ctx.call("lulesh.step_with", || {
                step_with(&mut st.d, &st.pool, &mut st.accum)
            });
            if let Some(f) = force {
                force_ms.push(f);
                rest_ms.push(ms - f);
            }
            if cfg.corrupt && ctx.step == 1 {
                st.d.e[0] = 2.0 * st.d.e[0] + 1.0;
            }
            let ((energy, vmax), _) = ctx.call("bench.check", || observe(&st.d));
            let c = cycle;
            cycle += 1;
            let (e_ref, v_ref) = want[c];
            let e_err = ((energy - e_ref) / e_ref).abs();
            let v_err = ((vmax - v_ref) / v_ref).abs();
            if !(e_err <= TOL && v_err <= TOL && vmax.is_finite() && vmax > 0.0) {
                // A wrong cycle poisons the rest of its episode.
                cycle = episode;
                return Err(format!(
                    "cycle {c}: energy {energy:e} (sequential {e_ref:e}), max velocity {vmax:e} (sequential {v_ref:e})"
                ));
            }
            max_err = max_err.max(e_err);
            mem = mem.max(stats.memory_overhead);
            applies += stats.applies;
            Ok(ms)
        })
    });
    let mut out = Outcome {
        // Node arrays (coordinates, velocities, forces, mass) and element
        // arrays (state, gradients, connectivity), computed.
        working_set_bytes: (nnode * 10 * 8 + nelem * (17 * 8 + 8 * 4) + mem) as u64,
        ..Outcome::default()
    };
    count_failures(&mut out, &records, &errors);
    out.note(binding);

    if cfg.trace {
        let steps = records.iter().filter(|r| r.ok).count().max(1) as f64;
        out.layer("spray.applies_per_step", applies as f64 / steps);
        out.layer("ompsim.fork_join_us", probe_fork_join_us(&st.pool));
        out.layer("ompsim.pool_new_ms", probe_pool_new_ms());
        out.layer(
            "memtrack.allocs_per_step",
            allocs as f64 / records.len() as f64,
        );
        out.layer("memtrack.setup_peak_mib", setup.median_peak_mib());
        out.layer("lulesh.force_ms_p50", median(&force_ms));
        out.layer("lulesh.rest_ms_p50", median(&rest_ms));
        out.layer("lulesh.applies_per_step", applies as f64 / steps);
        out.layer("lulesh.energy_rel_err", max_err);
        trace_metrics(&mut out, &records, tracer);
        out.note(
            "# not measured: spray phase times and counters other than applies (ForceStats does not expose a RunReport), plan, service"
                .into(),
        );
    } else {
        closed_loop_e2e(&mut out, &records, applies);
        out.e2e("mem_overhead_mib", mib(mem));
        out.e2e("peak_heap_mib", mib(heap.process_peak()));
        out.e2e("setup_s", setup.median_secs());
    }
    out.note(format!(
        "# lulesh-step: {nx}^3 mesh ({nelem} elements, {nnode} nodes), {SCHEME:?}, episodes of {episode} cycles, energy and max velocity within {TOL:e} of sequential forces; max energy rel err {max_err:e}"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(corrupt: bool) -> RunCfg {
        RunCfg {
            seed: 1,
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
    fn corrupted_energy_is_counted_failed() {
        let o = run(&cfg(true), &Tracer::new());
        assert!(o.failed > 0, "{:?}", o.notes);
    }
}
