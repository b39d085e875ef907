//! The crate's core guarantee (paper §IV): every reducer strategy yields
//! the same result as the sequential loop for associative & commutative
//! operations — bit-exact for integers, up to reassociation for floats.
//! Property-based over arbitrary update streams, schedules and team sizes.

use ompsim::{Schedule, ThreadPool};
use proptest::prelude::*;
use spray::{
    reduce_strategy, DeltaBatch, Kernel, Max, Min, PlanBudget, Prod, ReduceOp, ReducerView,
    RegionExecutor, Strategy, Sum,
};

/// An explicit update stream: iteration i performs updates[i].
struct StreamKernel<'a, T> {
    updates: &'a [Vec<(usize, T)>],
}

impl<T: spray::AtomicElement> Kernel<T> for StreamKernel<'_, T> {
    fn item<V: ReducerView<T>>(&self, view: &mut V, i: usize) {
        for &(idx, v) in &self.updates[i] {
            view.apply(idx, v);
        }
    }
}

fn sequential_apply<T: Copy, O: ReduceOp<T>>(out: &mut [T], updates: &[Vec<(usize, T)>]) {
    for step in updates {
        for &(idx, v) in step {
            out[idx] = O::combine(out[idx], v);
        }
    }
}

/// Strategy list exercised by the properties.
fn strategies(block: usize) -> Vec<Strategy> {
    Strategy::all(block)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn integer_sums_are_bit_exact(
        len in 1usize..80,
        threads in 1usize..6,
        block in prop::sample::select(vec![1usize, 3, 16, 64]),
        seed in any::<u64>(),
    ) {
        // Derive a deterministic update stream from the seed.
        let n_iters = 200;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
            .map(|_| {
                let k = (next() % 4) as usize;
                (0..k)
                    .map(|_| ((next() as usize) % len, (next() % 100) as i64 - 50))
                    .collect()
            })
            .collect();

        let mut expected = vec![0i64; len];
        sequential_apply::<i64, Sum>(&mut expected, &updates);

        let pool = ThreadPool::new(threads);
        let kernel = StreamKernel { updates: &updates };
        for strategy in strategies(block) {
            let mut out = vec![0i64; len];
            reduce_strategy::<i64, Sum, _>(
                strategy, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel,
            );
            prop_assert_eq!(&out, &expected, "strategy {}", strategy.label());
        }
    }

    #[test]
    fn float_sums_agree_within_reassociation(
        len in 1usize..60,
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        let n_iters = 150;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let updates: Vec<Vec<(usize, f64)>> = (0..n_iters)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        (
                            (next() as usize) % len,
                            ((next() % 1000) as f64 - 500.0) * 0.125,
                        )
                    })
                    .collect()
            })
            .collect();

        let mut expected = vec![0.0f64; len];
        sequential_apply::<f64, Sum>(&mut expected, &updates);
        let scale = expected.iter().fold(1.0f64, |a, &b| a.max(b.abs()));

        let pool = ThreadPool::new(threads);
        let kernel = StreamKernel { updates: &updates };
        for strategy in strategies(8) {
            let mut out = vec![0.0f64; len];
            reduce_strategy::<f64, Sum, _>(
                strategy, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel,
            );
            for (i, (&got, &want)) in out.iter().zip(&expected).enumerate() {
                prop_assert!(
                    (got - want).abs() <= 1e-9 * scale,
                    "strategy {} at {i}: {got} vs {want}", strategy.label()
                );
            }
        }
    }

    #[test]
    fn min_max_ops_agree_exactly(
        len in 1usize..40,
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        let n_iters = 100;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
            .map(|_| vec![((next() as usize) % len, (next() % 1000) as i64 - 500)])
            .collect();

        let pool = ThreadPool::new(threads);
        let kernel = StreamKernel { updates: &updates };

        // Min and Max are idempotent, so even float-style reassociation
        // cannot change the answer: require exact equality. (Map reducers
        // are Sum-only in spirit but implement any ReduceOp; include all.)
        let mut expected_min = vec![i64::MAX; len];
        sequential_apply::<i64, Min>(&mut expected_min, &updates);
        let mut expected_max = vec![i64::MIN; len];
        sequential_apply::<i64, Max>(&mut expected_max, &updates);

        for strategy in strategies(16) {
            let mut out = vec![i64::MAX; len];
            reduce_strategy::<i64, Min, _>(
                strategy, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel,
            );
            prop_assert_eq!(&out, &expected_min, "min {}", strategy.label());

            let mut out = vec![i64::MIN; len];
            reduce_strategy::<i64, Max, _>(
                strategy, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel,
            );
            prop_assert_eq!(&out, &expected_max, "max {}", strategy.label());
        }
    }

    /// The block reducers round requested block sizes up to powers of two
    /// so the hot path can index with shift/mask. Rounding must be purely
    /// an implementation detail: any requested size must produce the same
    /// bits as the sequential loop *and* as explicitly requesting the
    /// rounded (power-of-two) size.
    #[test]
    fn pow2_rounding_is_bit_exact(
        len in 1usize..120,
        threads in 1usize..6,
        block in prop::sample::select(vec![3usize, 5, 6, 7, 12, 24, 100]),
        seed in any::<u64>(),
    ) {
        let n_iters = 180;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
            .map(|_| {
                let k = (next() % 4) as usize;
                (0..k)
                    .map(|_| ((next() as usize) % len, (next() % 100) as i64 - 50))
                    .collect()
            })
            .collect();

        let mut expected = vec![0i64; len];
        sequential_apply::<i64, Sum>(&mut expected, &updates);

        let pool = ThreadPool::new(threads);
        let kernel = StreamKernel { updates: &updates };
        let pow2 = block.next_power_of_two();
        let flavors: [(Strategy, Strategy); 3] = [
            (
                Strategy::BlockPrivate { block_size: block },
                Strategy::BlockPrivate { block_size: pow2 },
            ),
            (
                Strategy::BlockLock { block_size: block },
                Strategy::BlockLock { block_size: pow2 },
            ),
            (
                Strategy::BlockCas { block_size: block },
                Strategy::BlockCas { block_size: pow2 },
            ),
        ];
        for (requested, rounded) in flavors {
            let mut out = vec![0i64; len];
            reduce_strategy::<i64, Sum, _>(
                requested, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel,
            );
            prop_assert_eq!(&out, &expected, "strategy {} vs sequential", requested.label());

            let mut out_pow2 = vec![0i64; len];
            reduce_strategy::<i64, Sum, _>(
                rounded, &pool, &mut out_pow2, 0..n_iters, Schedule::default(), &kernel,
            );
            prop_assert_eq!(&out, &out_pow2, "strategy {} vs {}", requested.label(), rounded.label());
        }
    }

    /// A [`RegionExecutor`] carries privatization scratch from one region
    /// to the next; every region must still produce exactly what a fresh
    /// sequential loop over that region's updates produces.
    #[test]
    fn region_reuse_matches_sequential(
        len in 1usize..80,
        threads in 1usize..5,
        block in prop::sample::select(vec![4usize, 7, 16]),
        seed in any::<u64>(),
    ) {
        let n_iters = 120;
        let n_regions = 4;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pool = ThreadPool::new(threads);
        for strategy in strategies(block) {
            let mut reducer = RegionExecutor::<i64, Sum>::new(strategy);
            for region in 0..n_regions {
                let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
                    .map(|_| {
                        let k = (next() % 3) as usize;
                        (0..k)
                            .map(|_| ((next() as usize) % len, (next() % 40) as i64 - 20))
                            .collect()
                    })
                    .collect();
                let mut expected = vec![0i64; len];
                sequential_apply::<i64, Sum>(&mut expected, &updates);

                let kernel = StreamKernel { updates: &updates };
                let mut out = vec![0i64; len];
                reducer.run(&pool, &mut out, 0..n_iters, Schedule::default(), &kernel);
                prop_assert_eq!(
                    &out, &expected,
                    "strategy {} region {}", strategy.label(), region
                );
            }
        }
    }

    /// Planned execution must be bit-identical to unplanned execution for
    /// EVERY strategy — including [`Strategy::Hybrid`] and
    /// [`Strategy::Log`], which have no plannable path: `run_planned` must
    /// degrade to plain execution for them, never to a wrong answer.
    #[test]
    fn planned_matrix_is_bit_exact_for_every_strategy(
        len in 1usize..80,
        threads in 1usize..5,
        block in prop::sample::select(vec![4usize, 16, 64]),
        seed in any::<u64>(),
    ) {
        let n_iters = 150;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
            .map(|_| {
                let k = (next() % 4) as usize;
                (0..k)
                    .map(|_| ((next() as usize) % len, (next() % 100) as i64 - 50))
                    .collect()
            })
            .collect();

        let mut expected = vec![0i64; len];
        sequential_apply::<i64, Sum>(&mut expected, &updates);

        let pool = ThreadPool::new(threads);
        let kernel = StreamKernel { updates: &updates };
        for strategy in strategies(block) {
            let label = strategy.label();

            let mut unplanned = vec![0i64; len];
            reduce_strategy::<i64, Sum, _>(
                strategy, &pool, &mut unplanned, 0..n_iters, Schedule::default(), &kernel,
            );
            prop_assert_eq!(&unplanned, &expected, "{}: unplanned diverges", label);

            // Recording region + two replays against the same region id.
            let mut ex = RegionExecutor::<i64, Sum>::new(strategy);
            for region in 0..3 {
                let mut out = vec![0i64; len];
                ex.run_planned(0, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel);
                prop_assert_eq!(
                    &out, &expected,
                    "{}: planned region {} diverges from unplanned", label, region
                );
            }
        }
    }

    /// An arbitrary forced-migration schedule — any strategy pair, any
    /// region boundary — must preserve results: migration drains retained
    /// scratch and invalidates plans, so every region still matches the
    /// sequential loop bit-for-bit no matter when the executor switches.
    #[test]
    fn forced_migration_schedule_preserves_results(
        len in 1usize..80,
        threads in 1usize..5,
        seed in any::<u64>(),
        start in 0usize..10,
        switches in prop::collection::vec((0usize..6, 0usize..10), 0..4),
    ) {
        let n_iters = 120;
        let n_regions = 6;
        let all = strategies(16);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pool = ThreadPool::new(threads);
        let mut ex = RegionExecutor::<i64, Sum>::new(all[start % all.len()]);
        for region in 0..n_regions {
            if let Some(&(_, target)) = switches.iter().find(|&&(r, _)| r == region) {
                ex.migrate_to(all[target % all.len()]);
            }
            let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
                .map(|_| {
                    let k = (next() % 3) as usize;
                    (0..k)
                        .map(|_| ((next() as usize) % len, (next() % 40) as i64 - 20))
                        .collect()
                })
                .collect();
            let mut expected = vec![0i64; len];
            sequential_apply::<i64, Sum>(&mut expected, &updates);

            let kernel = StreamKernel { updates: &updates };
            let mut out = vec![0i64; len];
            let report =
                ex.run_planned(0, &pool, &mut out, 0..n_iters, Schedule::default(), &kernel);
            prop_assert_eq!(
                &out, &expected,
                "strategy {} region {} after {} migrations",
                report.strategy, region, report.migrations
            );
        }
    }

    /// The two-level segmented reducer across bucket granularities —
    /// including `bucket_bits: 1`, whose capacity-4 buckets spill on
    /// nearly every fill — and scratch budgets — including zero, which
    /// forbids dense promotion and pins every spill to the sorted
    /// overflow run — must stay bit-exact with the sequential loop,
    /// fresh and on scratch retained across regions.
    #[test]
    fn segmented_bucket_sizes_and_forced_spills_are_bit_exact(
        len in 1usize..200,
        threads in 1usize..6,
        bucket_bits in prop::sample::select(vec![1u32, 2, 3, 5, 7]),
        budget in prop::sample::select(vec![usize::MAX, 4096usize, 0]),
        seed in any::<u64>(),
    ) {
        let n_iters = 300;
        let n_regions = 2;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pool = ThreadPool::new(threads);
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::Segmented { bucket_bits });
        ex.set_budget(if budget == usize::MAX {
            PlanBudget::UNLIMITED
        } else {
            PlanBudget::new(budget)
        });
        for region in 0..n_regions {
            // Concentrated indices: every block's bucket fills many
            // times over, so the spill paths are exercised every region.
            let hot = (len / 4).max(1);
            let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
                .map(|_| {
                    let k = 1 + (next() % 3) as usize;
                    (0..k)
                        .map(|_| ((next() as usize) % hot, (next() % 100) as i64 - 50))
                        .collect()
                })
                .collect();
            let mut expected = vec![0i64; len];
            sequential_apply::<i64, Sum>(&mut expected, &updates);

            let kernel = StreamKernel { updates: &updates };
            let mut out = vec![0i64; len];
            ex.run(&pool, &mut out, 0..n_iters, Schedule::default(), &kernel);
            prop_assert_eq!(
                &out, &expected,
                "segmented-{} budget {} region {}", bucket_bits, budget, region
            );
        }
    }

    /// Delta retraction round-trip: pushing transient contributions and
    /// then retracting them must be bit-identical to never having
    /// applied them. Covers both engine paths — the exact-inverse fast
    /// path (wrapping i64 Sum; odd i64 Prod, units of Z/2^64) and the
    /// refold fallback (f64 Sum, where `(a + x) - x` reassociates so
    /// the engine must re-fold the kept log instead of subtracting; and
    /// even i64 Prod factors, zero divisors with no inverse).
    #[test]
    fn delta_retraction_round_trips(
        len in 16usize..128,
        threads in 1usize..5,
        transient in 1usize..32,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pool = ThreadPool::new(threads);

        // i64 Sum — wrapping integers round-trip via the exact inverse.
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockCas { block_size: 64 });
        let mut out = vec![0i64; len];
        let mut baseline = DeltaBatch::new();
        for t in 0..len as u64 {
            baseline.push((next() as usize) % len, t, (next() % 1000) as i64 - 500);
        }
        ex.run_delta(&pool, &mut out, &baseline);
        let before = out.clone();

        let mut push = DeltaBatch::new();
        let mut tags: Vec<(usize, u64)> = Vec::new();
        for t in 0..transient as u64 {
            let idx = (next() as usize) % len;
            // Extremes included: overflow must wrap identically on
            // apply and retract.
            let v = match next() % 4 {
                0 => i64::MAX,
                1 => i64::MIN,
                _ => (next() % 1000) as i64 - 500,
            };
            push.push(idx, 1_000_000 + t, v);
            tags.push((idx, 1_000_000 + t));
        }
        ex.run_delta(&pool, &mut out, &push);
        let mut retract = DeltaBatch::new();
        for &(idx, tag) in &tags {
            retract.retract(idx, tag);
        }
        ex.run_delta(&pool, &mut out, &retract);
        prop_assert_eq!(&out, &before, "i64 Sum retraction round trip");

        // f64 Sum — no exact inverse exists (reassociation), so the
        // engine must refold from the log. Transients of wildly mixed
        // magnitude make naive `acc - x` visibly lossy: 1e16 swallows
        // the baseline's low bits.
        let mut ex = RegionExecutor::<f64, Sum>::new(Strategy::BlockPrivate { block_size: 64 });
        let mut out = vec![0.0f64; len];
        let mut baseline = DeltaBatch::new();
        for t in 0..len as u64 {
            baseline.push(
                (next() as usize) % len,
                t,
                ((next() % 1000) as f64 - 500.0) * 0.001 + 0.1,
            );
        }
        ex.run_delta(&pool, &mut out, &baseline);
        let before = out.clone();

        let mut push = DeltaBatch::new();
        let mut tags: Vec<(usize, u64)> = Vec::new();
        for t in 0..transient as u64 {
            let idx = (next() as usize) % len;
            let v = match next() % 3 {
                0 => 1e16,
                1 => -1e16,
                _ => 1e-9,
            };
            push.push(idx, 1_000_000 + t, v);
            tags.push((idx, 1_000_000 + t));
        }
        ex.run_delta(&pool, &mut out, &push);
        let mut retract = DeltaBatch::new();
        for &(idx, tag) in &tags {
            retract.retract(idx, tag);
        }
        ex.run_delta(&pool, &mut out, &retract);
        for (i, (&got, &want)) in out.iter().zip(&before).enumerate() {
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "f64 Sum retraction round trip at {}: {} vs {}", i, got, want
            );
        }

        // i64 Prod — odd factors take the exact inverse, even factors
        // are zero divisors and force the per-element refold fallback.
        let mut ex = RegionExecutor::<i64, Prod>::new(Strategy::BlockLock { block_size: 64 });
        let mut out = vec![1i64; len];
        let mut baseline = DeltaBatch::new();
        for t in 0..len as u64 {
            baseline.push((next() as usize) % len, t, ((next() % 7) as i64 * 2 + 1) - 6);
        }
        ex.run_delta(&pool, &mut out, &baseline);
        let before = out.clone();

        let mut push = DeltaBatch::new();
        let mut tags: Vec<(usize, u64)> = Vec::new();
        for t in 0..transient as u64 {
            let idx = (next() as usize) % len;
            // Mix units (odd) with zero divisors (even, including 0).
            let v = (next() % 9) as i64 - 4;
            push.push(idx, 1_000_000 + t, v);
            tags.push((idx, 1_000_000 + t));
        }
        ex.run_delta(&pool, &mut out, &push);
        let mut retract = DeltaBatch::new();
        for &(idx, tag) in &tags {
            retract.retract(idx, tag);
        }
        ex.run_delta(&pool, &mut out, &retract);
        prop_assert_eq!(&out, &before, "i64 Prod retraction round trip");
    }

    #[test]
    fn schedules_do_not_change_integer_results(
        threads in 1usize..5,
        chunk in 1usize..40,
        seed in any::<u64>(),
    ) {
        let len = 50;
        let n_iters = 120;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
            .map(|_| vec![((next() as usize) % len, (next() % 10) as i64)])
            .collect();

        let mut expected = vec![0i64; len];
        sequential_apply::<i64, Sum>(&mut expected, &updates);

        let pool = ThreadPool::new(threads);
        let kernel = StreamKernel { updates: &updates };
        for schedule in [
            Schedule::static_default(),
            Schedule::static_chunked(chunk),
            Schedule::dynamic(chunk),
            Schedule::guided(chunk),
        ] {
            let mut out = vec![0i64; len];
            reduce_strategy::<i64, Sum, _>(
                Strategy::BlockCas { block_size: 8 },
                &pool, &mut out, 0..n_iters, schedule, &kernel,
            );
            prop_assert_eq!(&out, &expected, "schedule {}", schedule.label());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The missing matrix row: [`Strategy::Segmented`] crossed with
    /// [`RegionExecutor::run_delta`]'s dirty-range invalidation *under
    /// migration*. The executor starts segmented, accumulates dirty
    /// blocks across incremental batches (pushes and retractions), is
    /// migrated away mid-stream at an arbitrary round — which must
    /// invalidate the retained dirty ranges along with the scratch —
    /// and migrated back to segmented one round later. Every round's
    /// output must equal a from-scratch fold of the live contribution
    /// set, bit-for-bit: a stale dirty range surviving either hop would
    /// leave a block un-refolded and diverge.
    #[test]
    fn segmented_delta_invalidation_survives_migration(
        len in 16usize..128,
        threads in 1usize..5,
        bucket_bits in prop::sample::select(vec![1u32, 3, 5]),
        seed in any::<u64>(),
        switch_round in 1usize..5,
        target in 0usize..8,
    ) {
        let n_rounds = 6;
        let all = strategies(16);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pool = ThreadPool::new(threads);
        let segmented = Strategy::Segmented { bucket_bits };
        let mut ex = RegionExecutor::<i64, Sum>::new(segmented);
        let mut out = vec![0i64; len];
        let mut live: Vec<(usize, u64, i64)> = Vec::new();
        let mut next_tag = 0u64;
        for round in 0..n_rounds {
            if round == switch_round {
                ex.migrate_to(all[target % all.len()]);
            } else if round == switch_round + 1 {
                ex.migrate_to(segmented);
            }
            let mut batch = DeltaBatch::new();
            // Retract a couple of *prior-round* contributions first, so
            // the batch dirties blocks via the retraction path too.
            for _ in 0..2 {
                if live.is_empty() {
                    break;
                }
                let k = (next() as usize) % live.len();
                let (idx, tag, _) = live.swap_remove(k);
                batch.retract(idx, tag);
            }
            // Concentrated pushes so the same blocks go dirty round
            // after round (the ranges a stale cache would skip).
            let hot = (len / 4).max(1);
            for _ in 0..4 + next() % 8 {
                let idx = (next() as usize) % hot;
                let v = (next() % 200) as i64 - 100;
                batch.push(idx, next_tag, v);
                live.push((idx, next_tag, v));
                next_tag += 1;
            }
            ex.run_delta(&pool, &mut out, &batch);

            let mut expected = vec![0i64; len];
            for &(idx, _, v) in &live {
                expected[idx] += v;
            }
            prop_assert_eq!(
                &out, &expected,
                "segmented-{} round {} (migrated to {} at round {})",
                bucket_bits, round, all[target % all.len()].label(), switch_round
            );
        }
    }
}

#[test]
fn product_reduction_works() {
    // Deterministic multiplicative reduction across strategies.
    let len = 10;
    let n_iters = 30;
    let updates: Vec<Vec<(usize, i64)>> = (0..n_iters)
        .map(|i| vec![(i % len, if i % 7 == 0 { 2 } else { 1 })])
        .collect();
    let mut expected = vec![1i64; len];
    sequential_apply::<i64, Prod>(&mut expected, &updates);

    let pool = ThreadPool::new(3);
    let kernel = StreamKernel { updates: &updates };
    for strategy in strategies(4) {
        let mut out = vec![1i64; len];
        reduce_strategy::<i64, Prod, _>(
            strategy,
            &pool,
            &mut out,
            0..n_iters,
            Schedule::default(),
            &kernel,
        );
        assert_eq!(out, expected, "strategy {}", strategy.label());
    }
}

/// Forwards only `item`, so the executor runs `Kernel::items`' default
/// per-item loop: the reference path for a kernel's `items` override.
struct PerItem<'a, K>(&'a K);

impl<T: spray::Element, K: Kernel<T>> Kernel<T> for PerItem<'_, K> {
    fn item<V: ReducerView<T>>(&self, view: &mut V, i: usize) {
        self.0.item(view, i);
    }
}

/// One fresh region; returns the output and the region's apply count.
fn conv_region<K: Kernel<f32>>(
    strategy: Strategy,
    pool: &ThreadPool,
    n: usize,
    schedule: Schedule,
    kernel: &K,
) -> (Vec<f32>, u64) {
    let mut out = vec![0.0f32; n];
    let report =
        RegionExecutor::<f32, Sum>::new(strategy).run(pool, &mut out, 1..n - 1, schedule, kernel);
    (out, report.counters.totals().applies)
}

/// `Backprop3Kernel::items` (tiled tap passes through `apply_run`)
/// against the per-item path, for every strategy and schedule shape.
/// The sizes put tile and chunk edges on both sides of the 64-element
/// block seams and leave trailing partial blocks. One thread must match
/// bit for bit, since each output keeps its combine order; wider teams
/// must match the sequential loop within reassociation tolerance. Both
/// paths count 3 applies per item.
///
/// Hybrid is the one strategy checked within tolerance at one thread as
/// well: it privatizes a block after its first `threshold` touches, and
/// the tap passes touch a block's elements in a different order, so the
/// split of an output's products between the in-place and the private
/// sum moves.
#[test]
fn conv_items_path_matches_per_item_path() {
    use spray_conv::{backprop3_seq, Backprop3Kernel, Stencil3};
    let schedules = [
        Schedule::Static { chunk: None },
        Schedule::Static { chunk: Some(1) },
        Schedule::Static { chunk: Some(7) },
        Schedule::Static { chunk: Some(700) },
        Schedule::Dynamic { chunk: 1 },
        Schedule::Dynamic { chunk: 33 },
        Schedule::Guided { min_chunk: 5 },
    ];
    // Weights that are not powers of two, so any reordering of an
    // output's three products shows up in its low bits.
    let w = Stencil3 {
        wl: 0.3f32,
        wc: 0.45,
        wr: 0.2,
    };
    for n in [3usize, 4, 511, 513, 1023, 1025, 5000] {
        let inp: Vec<f32> = (0..n)
            .map(|i| ((i * 7919) % 1013) as f32 / 1013.0 - 0.37)
            .collect();
        let mut want = vec![0.0f32; n];
        backprop3_seq(&mut want, &inp, w);
        let kernel = Backprop3Kernel { inp: &inp, w };
        let applies = 3 * (n as u64 - 2);
        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(threads);
            for strategy in Strategy::all(64) {
                for schedule in schedules {
                    let ctx = format!("{} n={n} t={threads} {schedule:?}", strategy.label());
                    let (tiled, tiled_applies) = conv_region(strategy, &pool, n, schedule, &kernel);
                    let (per_item, per_item_applies) =
                        conv_region(strategy, &pool, n, schedule, &PerItem(&kernel));
                    assert_eq!(tiled_applies, applies, "items path, {ctx}");
                    assert_eq!(per_item_applies, applies, "per-item path, {ctx}");
                    if threads == 1 && !matches!(strategy, Strategy::Hybrid { .. }) {
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&tiled), bits(&per_item), "{ctx}");
                    }
                    for (out, path) in [(&tiled, "items"), (&per_item, "per-item")] {
                        for (i, (&got, &w)) in out.iter().zip(&want).enumerate() {
                            assert!(
                                (got - w).abs() <= 1e-5 * (1.0 + w.abs()),
                                "{path} path, {ctx}: out[{i}] = {got}, sequential {w}"
                            );
                        }
                    }
                }
            }
        }
    }
}
