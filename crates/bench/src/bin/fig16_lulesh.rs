//! Fig. 16 — LULESH proxy: whole-run time and force-scheme memory
//! overhead across thread counts, comparing SPRAY reducers against the
//! domain-specific 8-copy replication scheme and dense reductions.
//!
//! The paper runs LULESH 2.0 at 90³ for 100 iterations on 28 cores; the
//! default here is 30³ × 20 iterations (scaled for a small container;
//! `--n` sets the edge size, `--reps` is reused as the iteration count
//! multiplier ×10). As in the paper, the *entire* run time is reported,
//! so differences between schemes are diluted by the unchanged remainder
//! of the timestep.
//!
//! Exits non-zero if any scheme's final total energy differs from the
//! sequential run's by more than [`ENERGY_RTOL`] (relative): the schemes
//! only reassociate the force sums, so the physics must not change.

use bench::args::Opts;
use bench::fmt_mib;
use ompsim::ThreadPool;
use spray::Strategy;
use spray_lulesh::{run, Domain, ForceScheme, Params};
use std::time::Instant;

/// Relative final-energy tolerance of every scheme against sequential.
const ENERGY_RTOL: f64 = 1e-9;

#[global_allocator]
static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;

fn main() {
    let opts = Opts::parse();
    let nx = opts.n.unwrap_or(if opts.quick { 10 } else { 30 });
    let iters = if opts.quick { 5 } else { 20 };

    println!(
        "# Fig 16: LULESH proxy, mesh {nx}^3 ({} elements), {iters} iterations",
        nx * nx * nx
    );
    println!("# whole-run wall time (like the paper: includes all unchanged phases)");
    println!("# applies = corner-force contributions routed through spray reducers (0 for non-spray schemes)");
    println!("scheme,threads,elapsed_s,mem_overhead_mib,applies,final_energy");

    // Sequential reference.
    let reference = {
        let pool = ThreadPool::new(1);
        let mut d = Domain::new(nx, Params::default());
        let t0 = Instant::now();
        let stats = run(&mut d, &pool, ForceScheme::Seq, iters);
        println!(
            "sequential,1,{:.4},0.00,0,{:.6e}",
            t0.elapsed().as_secs_f64(),
            stats.total_energy
        );
        stats.total_energy
    };
    let mut mismatches = Vec::new();

    let schemes: Vec<ForceScheme> = {
        let mut s = vec![ForceScheme::EightCopy];
        for strategy in Strategy::competitive(1024) {
            s.push(ForceScheme::Spray(strategy));
        }
        s
    };

    for &threads in &opts.threads {
        let pool = ThreadPool::new(threads);
        for &scheme in &schemes {
            let mut d = Domain::new(nx, Params::default());
            let t0 = Instant::now();
            let stats = run(&mut d, &pool, scheme, iters);
            println!(
                "{},{},{:.4},{},{},{:.6e}",
                scheme.label(),
                threads,
                t0.elapsed().as_secs_f64(),
                fmt_mib(stats.memory_overhead),
                stats.applies,
                stats.total_energy
            );
            let rel = ((stats.total_energy - reference) / reference).abs();
            // A NaN energy fails too.
            if rel.is_nan() || rel > ENERGY_RTOL {
                mismatches.push(format!(
                    "{} at {threads} threads: final energy {:e} vs sequential {reference:e} (rel {rel:e})",
                    scheme.label(),
                    stats.total_energy
                ));
            }
        }
    }
    eprintln!(
        "# process heap peak: {} MiB",
        fmt_mib(memtrack::peak_bytes())
    );
    if !mismatches.is_empty() {
        for m in &mismatches {
            eprintln!("FAIL: {m}");
        }
        eprintln!("FAIL: final energy differs from sequential by more than {ENERGY_RTOL:e}");
        std::process::exit(1);
    }
}
