//! Per-cycle wall time of the LULESH proxy over one 100-cycle episode.
//!
//! Runs the 30³ Sedov blast for 100 cycles from a fresh domain with a
//! reused keeper `ForceAccum` on 2 threads (the `lulesh-step` benchmark's
//! setting), repeats the episode, and prints each cycle's median time
//! together with the number of subnormal velocity (`xd/yd/zd`) and force
//! (`f`) components after it. A cycle that slows down while those counts
//! grow is paying for subnormal arithmetic.
//!
//! ```sh
//! cargo run --release --example lulesh_cycle_times [-- EPISODES]
//! ```

use ompsim::ThreadPool;
use spray::Strategy;
use spray_lulesh::{step_with, Domain, ForceAccum, ForceScheme, Params};
use std::time::Instant;

const NX: usize = 30;
const CYCLES: usize = 100;

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let episodes: usize = std::env::args()
        .nth(1)
        .map_or(5, |a| a.parse().expect("EPISODES must be a count"));
    let pool = ThreadPool::new(2);
    let mut ms = vec![Vec::new(); CYCLES];
    let mut subnormal = vec![(0, 0); CYCLES];
    let mut energy = 0.0;
    for _ in 0..episodes.max(1) {
        let mut d = Domain::new(NX, Params::default());
        let mut accum = ForceAccum::new(ForceScheme::Spray(Strategy::Keeper));
        for c in 0..CYCLES {
            let t0 = Instant::now();
            step_with(&mut d, &pool, &mut accum);
            ms[c].push(t0.elapsed().as_secs_f64() * 1e3);
            let velocities = d.xd.iter().chain(&d.yd).chain(&d.zd);
            subnormal[c] = (
                velocities.filter(|v| v.is_subnormal()).count(),
                d.f.iter().filter(|v| v.is_subnormal()).count(),
            );
        }
        energy = d.total_energy();
    }

    println!("# {NX}^3 mesh, keeper, 2 threads, median of {episodes} episodes");
    println!("cycle,ms,subnormal_velocities,subnormal_forces");
    let per_cycle: Vec<f64> = ms.iter_mut().map(|m| median(m)).collect();
    for (c, (t, (v, f))) in per_cycle.iter().zip(&subnormal).enumerate() {
        println!("{c},{t:.3},{v},{f}");
    }
    let band = |r: std::ops::Range<usize>| median(&mut per_cycle[r].to_vec());
    println!(
        "# median ms per cycle: 0-19 {:.2}, 20-39 {:.2}, 40-59 {:.2}, 60-99 {:.2}; episode {:.0} ms; total energy after {CYCLES} cycles {energy:.15e}",
        band(0..20),
        band(20..40),
        band(40..60),
        band(60..100),
        per_cycle.iter().sum::<f64>()
    );
}
