//! Schedule-controller behavior (requires `--features verify`).
//!
//! Sessions are scoped to the threads bound to them, so these tests run
//! under the default parallel harness: a sibling test's pool never runs
//! a region inside another test's session.
#![cfg(feature = "verify")]

use ompsim::verify::{install, FaultSpec, HookPoint, VerifyConfig};
use ompsim::ThreadPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn controller_replays_a_seed_exactly() {
    let run = |seed: u64| {
        let session = install(VerifyConfig {
            seed,
            preempt_per_mille: 300,
            budget: 32,
            delay_nanos: 0,
            migrate_per_mille: 0,
            fault: None,
        });
        let pool = ThreadPool::new(3);
        pool.parallel(|team| {
            for _ in 0..5 {
                team.barrier();
            }
        });
        drop(pool);
        let traces: Vec<_> = (0..3).map(|t| session.trace(t)).collect();
        (session.totals(), session.preemptions(), traces)
    };
    let a = run(9);
    let b = run(9);
    assert_eq!(a, b, "same seed must replay the same decision stream");
    // 3 threads x 1 region entry, 3 threads x 5 barriers.
    assert_eq!(a.0[HookPoint::RegionStart.index()], 3);
    assert_eq!(a.0[HookPoint::BarrierEnter.index()], 15);
}

#[test]
fn distinct_seeds_draw_distinct_decision_streams() {
    let preempts = |seed: u64| {
        let session = install(VerifyConfig {
            seed,
            preempt_per_mille: 500,
            budget: 1000,
            delay_nanos: 0,
            migrate_per_mille: 0,
            fault: None,
        });
        let pool = ThreadPool::new(4);
        pool.parallel(|team| {
            for _ in 0..40 {
                team.barrier();
            }
        });
        drop(pool);
        let traces: Vec<_> = (0..4).map(|t| session.trace(t)).collect();
        traces
    };
    // Crossing counts are schedule-independent, but the yield decisions
    // (recorded per event) must vary with the seed.
    let differs = (1..6u64).any(|s| preempts(s) != preempts(s + 100));
    assert!(differs, "five seed pairs produced identical traces");
}

#[test]
fn uninstalled_hooks_are_inert() {
    // No session bound to this thread: hooks must be callable no-ops.
    ompsim::verify::perturb(HookPoint::BarrierEnter);
    ompsim::verify::perturb_idx(HookPoint::SharedWrite, 3);
    ompsim::verify::enter_region(0, ompsim::verify::binding());
    assert_eq!(ompsim::verify::migration_choice(0, 4), None);
}

#[test]
fn unhooked_pool_alongside_a_session_leaves_its_totals_alone() {
    let run = || {
        let session = install(VerifyConfig {
            seed: 11,
            preempt_per_mille: 300,
            budget: 32,
            delay_nanos: 0,
            migrate_per_mille: 500,
            fault: None,
        });
        let pool = ThreadPool::new(3);
        for _ in 0..20 {
            pool.parallel(|team| {
                for _ in 0..5 {
                    team.barrier();
                }
            });
            let _ = ompsim::verify::migration_choice(0, 4);
        }
        drop(pool);
        session.totals()
    };
    let solo = run();
    // A thread that never installed or adopted the session hammers its
    // own pool (and raw hooks) for the whole second run.
    let stop = AtomicBool::new(false);
    let shared = std::thread::scope(|s| {
        s.spawn(|| {
            let pool = ThreadPool::new(2);
            while !stop.load(Ordering::Relaxed) {
                pool.parallel(|team| team.barrier());
                ompsim::verify::perturb(HookPoint::SharedWrite);
                let _ = ompsim::verify::migration_choice(0, 4);
            }
        });
        let totals = run();
        stop.store(true, Ordering::Relaxed);
        totals
    });
    assert_eq!(solo, shared, "an unbound pool leaked into the session");
    assert_eq!(solo[HookPoint::RegionStart.index()], 60);
    assert_eq!(solo[HookPoint::MigrationDecision.index()], 20);
}

#[test]
fn injected_barrier_fault_poisons_region_and_pool_survives() {
    let pool = ThreadPool::new(3);
    {
        let _session = install(VerifyConfig {
            seed: 1,
            preempt_per_mille: 0,
            budget: 0,
            delay_nanos: 0,
            migrate_per_mille: 0,
            fault: Some(FaultSpec {
                tid: 1,
                point: HookPoint::BarrierEnter,
                nth: 1,
            }),
        });
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel(|team| {
                team.barrier();
            });
        }));
        assert!(
            poisoned.is_err(),
            "a thread dying before the barrier must poison the region, not deadlock it"
        );
    }
    // The same pool must run clean regions afterwards.
    pool.parallel(|team| {
        team.barrier();
    });
}

#[test]
fn budget_caps_preemptions() {
    let session = install(VerifyConfig {
        seed: 3,
        preempt_per_mille: 1000,
        budget: 5,
        delay_nanos: 0,
        migrate_per_mille: 0,
        fault: None,
    });
    let pool = ThreadPool::new(2);
    pool.parallel(|team| {
        for _ in 0..100 {
            team.barrier();
        }
    });
    drop(pool);
    // Every crossing wants to preempt, but each thread is capped at 5.
    assert_eq!(session.preemptions(), 10);
}

#[test]
fn migration_stream_is_seed_deterministic_and_counted() {
    let run = |seed: u64| {
        let session = install(VerifyConfig {
            seed,
            preempt_per_mille: 0,
            budget: 0,
            delay_nanos: 0,
            migrate_per_mille: 500,
            fault: None,
        });
        let choices: Vec<Option<u64>> = (0..32)
            .map(|i| ompsim::verify::migration_choice(i, 4))
            .collect();
        let crossings = session.total(HookPoint::MigrationDecision);
        (choices, crossings)
    };
    let (a, na) = run(42);
    let (b, nb) = run(42);
    assert_eq!(a, b, "same seed must replay the same migration schedule");
    assert_eq!((na, nb), (32, 32));
    // ~50% force rate over 32 draws: some Some, some None, and every
    // forced choice in range.
    assert!(a.iter().any(|c| c.is_some()));
    assert!(a.iter().any(|c| c.is_none()));
    assert!(a.iter().flatten().all(|&k| k < 4));
    // A different seed draws a different schedule (32 draws at 50%).
    let (c, _) = run(43);
    assert_ne!(a, c, "distinct seeds should plant distinct migrations");
    // n_choices == 0 (the mid-drain crossing) never forces.
    let session = install(VerifyConfig {
        seed: 7,
        preempt_per_mille: 0,
        budget: 0,
        delay_nanos: 0,
        migrate_per_mille: 1000,
        fault: None,
    });
    assert_eq!(ompsim::verify::migration_choice(0, 0), None);
    drop(session);
}

#[test]
fn migration_fault_fires_on_nth_crossing() {
    let session = install(VerifyConfig {
        seed: 5,
        preempt_per_mille: 0,
        budget: 0,
        delay_nanos: 0,
        migrate_per_mille: 0,
        fault: Some(FaultSpec {
            tid: 0, // ignored for MigrationDecision
            point: HookPoint::MigrationDecision,
            nth: 3,
        }),
    });
    assert_eq!(ompsim::verify::migration_choice(0, 2), None);
    assert_eq!(ompsim::verify::migration_choice(1, 2), None);
    let hit = catch_unwind(AssertUnwindSafe(|| {
        let _ = ompsim::verify::migration_choice(2, 2);
    }));
    assert!(hit.is_err(), "third crossing must panic");
    drop(session);
}
