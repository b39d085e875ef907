//! The performance-portability endgame (paper §IX): let the library pick
//! the strategy.
//!
//! One adaptive executor runs a repeated reduction. It starts on atomics;
//! after every region the executor's cost model compares the region's
//! density (applies per output element) with the current strategy, and
//! once the mismatch persists it migrates to a better candidate. The
//! example prints which strategies ran how many regions.
//!
//! ```sh
//! cargo run --release --example self_tuning
//! ```

use ompsim::{Schedule, ThreadPool};
use spray::{
    default_candidates, ExecutorPolicy, Kernel, ReducerView, RegionExecutor, Strategy, Sum,
};
use std::time::Instant;

/// A PageRank-like push over a synthetic power-law-ish graph: mixed
/// locality, the kind of workload where the best strategy is not obvious.
struct Push {
    targets: Vec<u32>,
    offsets: Vec<usize>,
}

impl Push {
    fn synthetic(n: usize) -> Self {
        let mut targets = Vec::new();
        let mut offsets = vec![0usize];
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for u in 0..n {
            let deg = 2 + (next() % 6) as usize;
            for _ in 0..deg {
                // 70% local edges, 30% global (hot+cold mix).
                let v = if next() % 10 < 7 {
                    (u + 1 + (next() % 64) as usize) % n
                } else {
                    (next() % n as u64) as usize
                };
                targets.push(v as u32);
            }
            offsets.push(targets.len());
        }
        Push { targets, offsets }
    }
}

impl Kernel<f64> for Push {
    #[inline]
    fn item<V: ReducerView<f64>>(&self, view: &mut V, u: usize) {
        for &v in &self.targets[self.offsets[u]..self.offsets[u + 1]] {
            view.apply(v as usize, 1.0);
        }
    }
}

fn main() {
    let n = 500_000;
    let pool = ThreadPool::new(4);
    let kernel = Push::synthetic(n);
    println!(
        "workload: {} scatters into {n} locations, {} threads",
        kernel.targets.len(),
        pool.num_threads()
    );

    let mut ex = RegionExecutor::<f64, Sum>::with_policy(
        Strategy::Atomic,
        ExecutorPolicy::Adaptive {
            candidates: default_candidates(1024),
        },
    );
    let mut out = vec![0.0f64; n];
    let rounds = 30;
    let t0 = Instant::now();
    for _ in 0..rounds {
        out.fill(0.0);
        ex.run(&pool, &mut out, 0..n, Schedule::default(), &kernel);
        assert_eq!(out.iter().sum::<f64>() as usize, kernel.targets.len());
    }
    let elapsed = t0.elapsed().as_secs_f64();

    println!("adaptive executor after {rounds} rounds ({elapsed:.2} s total):");
    println!("  migrations: {}", ex.migrations());
    for (label, regions) in ex.strategy_regions() {
        println!("  {label:<20} {regions} regions");
    }
    println!("settled on: {}", ex.strategy().label());
}
