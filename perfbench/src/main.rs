//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Human-readable lines (host record, notes, one `name value unit` line
//! per metric) come first; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 1` the metrics are the per-layer ones, a per-span self-time
//! table is printed and the spans are written as Chrome trace-event JSON
//! to `<out-dir>/<workload>-seed<n>.trace.json`.

use perfbench::{host, trace::Tracer, RunCfg, E2E, LAYERS, TEAM, WORKLOADS};
use std::collections::BTreeMap;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: memtrack::CountingAlloc = memtrack::CountingAlloc;

struct Args {
    workload: String,
    cfg: RunCfg,
    out_dir: String,
}

fn usage(err: &str) -> ExitCode {
    eprintln!("perfbench: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?
            .to_string();
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key, v);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing --{k}"));
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = take("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0)
        .ok_or("--seconds must be in (0, 120]")?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    let out_dir = kv
        .remove("out-dir")
        .unwrap_or_else(|| "perfbench/out".to_string());
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Args {
        workload,
        cfg: RunCfg {
            seed,
            seconds,
            trace,
            small: false,
            corrupt: false,
        },
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let cfg = &args.cfg;
    let tracer = Tracer::new();
    let outcome = match args.workload.as_str() {
        "conv-backprop" => perfbench::conv::run(cfg, &tracer),
        "tmv-debr" => perfbench::tmv::run(cfg, &tracer),
        "lulesh-step" => perfbench::lulesh::run(cfg, &tracer),
        "service-open" => perfbench::service::run(cfg, &tracer),
        _ => unreachable!("workload validated in parse"),
    };

    let host = host::record(
        &args.workload,
        TEAM,
        outcome.gen_threads.max(1),
        outcome.working_set_bytes,
    );
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    println!("# host {host}");
    for n in &outcome.notes {
        println!("{n}");
    }

    // Every listed metric, in list order; a traced run reads 0 for a
    // layer this workload does not run.
    let (names, got) = if cfg.trace {
        (LAYERS, &outcome.layers)
    } else {
        (E2E, &outcome.e2e)
    };
    let mut correct = outcome.failed == 0;
    let mut metrics = Vec::new();
    let mut unmeasured = Vec::new();
    for &(name, unit) in names {
        let value = match got.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => m.value,
            Some(_) if cfg.trace => 0.0,
            Some(_) => {
                println!("# ERROR {name} is not finite");
                correct = false;
                0.0
            }
            None if cfg.trace => {
                unmeasured.push(name);
                0.0
            }
            None => panic!("workload did not report end-to-end metric {name}"),
        };
        println!("{name} {value} {unit}");
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "fail_frac {fail_frac} ratio ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    if cfg.trace {
        if !unmeasured.is_empty() {
            println!(
                "# not measured in this workload (reported as 0): {}",
                unmeasured.join(", ")
            );
        }
        println!("# span self-time table: name count total_ms self_ms");
        for (name, (count, total, own)) in tracer.self_times() {
            println!("#   {name} {count} {total:.3} {own:.3}");
        }
        if tracer.dropped() > 0 {
            println!(
                "# {} spans dropped after the store filled",
                tracer.dropped()
            );
        }
        let path = format!(
            "{}/{}-seed{}.trace.json",
            args.out_dir, args.workload, cfg.seed
        );
        let meta = format!("{{\"host\":{host},\"seed\":{}}}", cfg.seed);
        match std::fs::create_dir_all(&args.out_dir)
            .and_then(|_| std::fs::write(&path, tracer.chrome_json(&meta)))
        {
            Ok(()) => println!("# trace written to {path}"),
            Err(e) => println!("# trace not written to {path}: {e}"),
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
