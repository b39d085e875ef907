//! Scenario-matrix properties (requires `--features verify`).
//!
//! Controller sessions are scoped to the threads bound to them, so these
//! tests run under the default parallel harness without perturbing each
//! other. Seed budgets honor `SPRAY_FUZZ_SEEDS` (the TSan job runs this
//! file with a smaller budget through that knob).
#![cfg(feature = "verify")]

use ompsim::verify::HookPoint;
use ompsim::Topology;
use spray::verify::fuzz::{broken_case, plant_fault, run, Outcome, Path, Scenario, FAULT_SITES};
use spray::verify::{seed_budget, KernelKind};
use spray::{PlanBudget, Strategy};

const THREADS: usize = 4;
const PRIVATE: Strategy = Strategy::BlockPrivate { block_size: 32 };

/// A hand-picked scenario: fixed strategy, flat topology, no budget, no
/// migrations — overridden field by field.
fn scenario(seed: u64, strategy: Strategy, path: Path) -> Scenario {
    Scenario {
        strategy,
        path,
        topology: Topology::flat(THREADS),
        budget: PlanBudget::UNLIMITED,
        migrate: false,
        ..Scenario::draw(seed, THREADS)
    }
}

/// Runs `sc` twice — same seed, same controller — and returns both.
fn twice(sc: &Scenario) -> (Outcome, Outcome) {
    let run = || run(sc).unwrap_or_else(|e| panic!("{e}"));
    (run(), run())
}

fn hits(o: &Outcome, p: HookPoint) -> u64 {
    o.hook_totals[p.index()]
}

#[test]
fn same_seed_replays_identical_telemetry_and_merge_orders() {
    // Block-private never claims ownership and keeper's partition is
    // static, so under a static schedule every counter and merge order is
    // a pure per-thread function of the seed (CAS/lock claim outcomes
    // follow wall-clock timing and stay outside the envelope). The run
    // path also checks fresh vs retained arena scratch fingerprints.
    for strategy in [PRIVATE, Strategy::Keeper] {
        for kernel in [KernelKind::Scatter, KernelKind::Stencil] {
            let sc = Scenario {
                kernel,
                ..scenario(42, strategy, Path::Run)
            };
            let (a, b) = twice(&sc);
            assert_eq!(a.reports, b.reports, "{sc}: telemetry must replay");
            assert_eq!(a.hook_totals, b.hook_totals, "{sc}");
            assert_eq!(a.preemptions, b.preemptions, "{sc}");
            assert_eq!(a.merge_orders, b.merge_orders, "{sc}");
            assert!(a.preemptions > 0, "{sc}: no perturbation");
            let merged = a.merge_orders.iter().any(|m| !m.is_empty());
            assert!(merged || strategy == Strategy::Keeper, "{sc}: no merges");
        }
    }
}

#[test]
fn scenario_draws_cover_the_matrix() {
    let draws: Vec<Scenario> = (0..64).map(|s| Scenario::draw(s, THREADS)).collect();
    assert_eq!(draws[7], Scenario::draw(7, THREADS), "draws are pure");
    let drawn = |f: &dyn Fn(&Scenario) -> bool| draws.iter().any(f);
    for path in [Path::Run, Path::Planned, Path::Delta, Path::Service] {
        assert!(drawn(&|s| s.path == path), "{path:?} never drawn");
    }
    for strategy in Strategy::all(32) {
        assert!(
            drawn(&|s| s.strategy == strategy),
            "{strategy:?} never drawn"
        );
    }
    assert!(drawn(&|s| !s.topology.is_flat()) && drawn(&|s| s.topology.is_flat()));
    assert!(drawn(&|s| s.budget == PlanBudget::new(0)));
    assert!(drawn(&|s| s.migrate) && drawn(&|s| !s.migrate));
    let pct = |s: &Scenario| s.verify_config().preempt_per_mille;
    assert!(
        drawn(&|s| pct(s) != pct(&draws[0])),
        "PCT parameters vary by seed"
    );
}

#[test]
fn scenario_sweep_finds_no_bugs_in_correct_strategies() {
    for seed in 0..seed_budget(16) {
        let sc = Scenario::draw(seed, THREADS);
        if sc.path != Path::Service {
            run(&sc).unwrap_or_else(|e| panic!("scenario sweep found a bug: {e}"));
        }
    }
}

#[test]
fn broken_cas_canary_is_caught_on_element_and_run_paths() {
    // The planted lost-update bug is a genuine data race by design;
    // sanitizer jobs set SPRAY_SKIP_CANARY so TSan doesn't abort on the
    // canary itself (it gates on the race existing, not on lost updates).
    if std::env::var_os("SPRAY_SKIP_CANARY").is_some() {
        eprintln!("SPRAY_SKIP_CANARY set: skipping planted-race canary");
        return;
    }
    // Even seeds apply elements, odd seeds issue `apply_run` stretches.
    let budget = seed_budget(200);
    for parity in [0, 1] {
        let mut seeds = (0..budget).filter(|s| s % 2 == parity);
        let caught = seeds.any(|s| broken_case(THREADS, s));
        assert!(caught, "canary survived {budget} seeds of parity {parity}");
    }
}

#[test]
fn every_fault_site_poisons_then_reruns_exact() {
    // Site = seed % FAULT_SITES: the fixed-strategy combos, shard route,
    // bucket spill, migration decision, and delta staging on the
    // parallel and serial paths — each planted twice.
    for seed in 0..2 * FAULT_SITES {
        plant_fault(THREADS, seed).unwrap_or_else(|e| panic!("fault plant failed: {e}"));
    }
}

#[test]
fn planted_migrations_replay_from_the_seed() {
    // Density-only cost model plus a seed-planted schedule: two runs
    // agree on every migration and decision crossing.
    let mut planted = 0;
    for seed in 0..seed_budget(6) {
        let sc = Scenario {
            migrate: true,
            ..scenario(seed, PRIVATE, Path::Planned)
        };
        let (a, b) = twice(&sc);
        let decisions = hits(&a, HookPoint::MigrationDecision);
        assert_eq!(a.migrations, b.migrations, "{sc}");
        assert_eq!(decisions, hits(&b, HookPoint::MigrationDecision), "{sc}");
        assert!(decisions >= 3, "{sc}: every region decides");
        planted += a.migrations;
    }
    assert!(planted >= 1, "the sweep must actually exercise migrations");
}

#[test]
fn segmented_zero_budget_spills_on_every_run() {
    let segmented = Strategy::Segmented { bucket_bits: 3 };
    let sc = Scenario {
        budget: PlanBudget::new(0),
        ..scenario(42, segmented, Path::Run)
    };
    let (a, b) = twice(&sc);
    assert!(
        hits(&a, HookPoint::BucketSpill) > 0,
        "zero budget must spill"
    );
    assert_eq!(
        hits(&a, HookPoint::BucketSpill),
        hits(&b, HookPoint::BucketSpill)
    );
}

#[test]
fn delta_scenarios_apply_and_retract() {
    let sc = Scenario {
        migrate: true,
        ..scenario(42, PRIVATE, Path::Delta)
    };
    let (a, b) = twice(&sc);
    assert!(
        hits(&a, HookPoint::DeltaApply) > 0,
        "dirty blocks were staged"
    );
    assert_eq!(
        hits(&a, HookPoint::DeltaApply),
        hits(&b, HookPoint::DeltaApply)
    );
    assert!(a.retractions > 0, "churn retracts live tags");
    assert!(a.migrations >= 4, "both streams migrate mid-stream");
}

#[test]
fn sharded_scenarios_route_cross_node_and_match_the_flat_control() {
    for topology in [Topology::new(2, 2), Topology::new(4, 1)] {
        let sc = Scenario {
            topology,
            ..scenario(42, Strategy::Keeper, Path::Planned)
        };
        let o = run(&sc).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            hits(&o, HookPoint::ShardRoute) > 0,
            "{sc}: no cross-node route"
        );
    }
}
