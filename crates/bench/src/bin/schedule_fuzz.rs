//! Schedule fuzzer: sweeps seeds through the scenario matrix (requires
//! `--features verify`).
//!
//! Each seed draws one scenario — strategy, executor path (run, planned,
//! delta, service), topology, scratch budget, planted migrations, kernel —
//! and runs it under ompsim's seeded schedule controller, checking every
//! region against the sequential reduction. The seed then plants one
//! fault (site `seed % FAULT_SITES`) that must poison its region and
//! leave pool and executor exact on rerun. The sweep fails on any
//! failing seed, or — in a sweep of at least `COVERAGE_SEEDS` seeds on
//! two or more threads — if the scenarios never crossed some hook point. A failure replays from
//! one line: `schedule_fuzz --start S --seeds 1`, which exits 0 once the
//! seed is fixed.
//!
//! `--broken` inverts the gate: it runs the planted-bug canary (block-CAS
//! with the ownership CAS split) and exits 0 only if some even seed
//! (element applies) *and* some odd seed (`apply_run`) catch the bug.

use ompsim::verify::{HookPoint, NPOINTS};
use spray::verify::fuzz::{broken_case, plant_fault, Scenario};

struct FuzzOpts {
    seeds: u64,
    start: u64,
    threads: usize,
    broken: bool,
    quiet: bool,
}

/// Sweeps shorter than this only report hook points their scenarios
/// missed: one seed runs one strategy on one path and cannot cross all
/// eleven. So do one-thread sweeps, which have no remote traffic to
/// push or route.
const COVERAGE_SEEDS: u64 = 64;

const USAGE: &str =
    "usage: schedule_fuzz [--seeds N] [--start S] [--threads T] [--broken] [--quiet]";

fn parse_opts() -> FuzzOpts {
    let mut o = FuzzOpts {
        seeds: 16,
        start: 0,
        threads: 4,
        broken: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    let value = |v: Option<String>, flag: &str| -> u64 {
        v.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs an integer value\n{USAGE}");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => o.seeds = value(args.next(), "--seeds"),
            "--start" => o.start = value(args.next(), "--start"),
            "--threads" => o.threads = value(args.next(), "--threads").max(1) as usize,
            "--broken" => o.broken = true,
            "--quiet" => o.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    o
}

fn broken_main(o: &FuzzOpts) -> i32 {
    let mut caught = [None, None];
    for seed in o.start..o.start + o.seeds {
        let parity = (seed % 2) as usize;
        if caught[parity].is_none() && broken_case(o.threads, seed) {
            caught[parity] = Some(seed);
        }
    }
    for (parity, path) in ["even (element apply)", "odd (apply_run)"]
        .iter()
        .enumerate()
    {
        match caught[parity] {
            Some(seed) => println!("broken-CAS canary: {path} seeds caught it at seed {seed}"),
            None => eprintln!(
                "broken-CAS canary NOT caught on {path} seeds in {} seed(s) — the fuzzer \
                 lost its teeth",
                o.seeds
            ),
        }
    }
    i32::from(caught.contains(&None))
}

fn main() {
    let o = parse_opts();
    if o.broken {
        std::process::exit(broken_main(&o));
    }
    let mut failures = 0u64;
    let mut totals = [0u64; NPOINTS];
    let mut fail = |seed: u64, e: String| {
        failures += 1;
        eprintln!("FAIL {e}");
        eprintln!(
            "repro: cargo run --release -p bench --features verify --bin schedule_fuzz -- \
             --start {seed} --seeds 1 --threads {}",
            o.threads
        );
    };
    for seed in o.start..o.start + o.seeds {
        let sc = Scenario::draw(seed, o.threads);
        match spray_service::fuzz::run(&sc) {
            Ok(out) => {
                totals
                    .iter_mut()
                    .zip(out.hook_totals)
                    .for_each(|(t, x)| *t += x);
                if !o.quiet {
                    let crossings: u64 = out.hook_totals.iter().sum();
                    println!(
                        "{sc}: ok ({} regions, {crossings} hook crossings, {} preemptions, \
                         {} migrations)",
                        out.regions, out.preemptions, out.migrations
                    );
                }
            }
            Err(e) => fail(seed, e),
        }
        // A plant whose fault never fires fails, so its crossings stay
        // out of the scenario coverage below.
        if let Err(e) = plant_fault(o.threads, seed) {
            fail(seed, e);
        }
    }
    // Coverage: a scenario matrix that never crosses a hook has stopped
    // testing the protocol behind it.
    let missed: Vec<&str> = HookPoint::ALL
        .iter()
        .filter(|p| totals[p.index()] == 0)
        .map(|p| p.name())
        .collect();
    if !missed.is_empty() {
        let gate = o.seeds >= COVERAGE_SEEDS && o.threads > 1;
        let note = if gate {
            ""
        } else {
            " (not gated in a short sweep)"
        };
        eprintln!(
            "schedule_fuzz: scenarios never crossed hook point(s) {}{note}",
            missed.join(", ")
        );
        failures += u64::from(gate);
    }
    if failures > 0 {
        eprintln!(
            "schedule_fuzz: {failures} failure(s) over {} seed(s)",
            o.seeds
        );
        std::process::exit(1);
    }
    let covered = if missed.is_empty() {
        ", every hook point crossed"
    } else {
        ""
    };
    println!(
        "schedule_fuzz: {} seed(s) from {} clean ({} threads){covered}",
        o.seeds, o.start, o.threads
    );
}
