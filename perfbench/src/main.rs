//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <record-a.json> <record-b.json>
//! ```
//!
//! A run prints its result as the last line of standard output and writes
//! a run record (metadata, result, failures, spans) to
//! `.perfbench/<workload>-seed<n>-trace<t>.json` under the working
//! directory. `compare` prints two records side by side, and refuses when
//! they were measured under different conditions.

use aapsm_perfbench::json::{self, Value};
use aapsm_perfbench::{run, RunConfig, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <flow_fullchip|flow_cover|service_eco|hier_grid> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench compare <record-a.json> <record-b.json>";

fn parse_run(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: Scale::Full,
        tamper: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let config = match parse_run(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Live fault hooks (a debug build) put probes on every stage; such
    // numbers describe a different program.
    if aapsm::fault::enabled() {
        eprintln!("perfbench: refusing to run: fault-injection hooks are compiled in (debug build); build with --release");
        return ExitCode::from(2);
    }
    let outcome = run(&config);
    let record = outcome.record_json(&config);
    let path = format!(
        ".perfbench/{}-seed{}-trace{}.json",
        config.workload.name(),
        config.seed,
        u8::from(config.trace)
    );
    match std::fs::create_dir_all(".perfbench").and_then(|()| std::fs::write(&path, &record)) {
        Ok(()) => eprintln!("perfbench: wrote {path}"),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
    eprintln!(
        "perfbench: {} seed {}: {} ops, {} failed, input hash {:016x}, parallelism {}, nproc {}",
        config.workload.name(),
        config.seed,
        outcome.attempted,
        outcome.failed,
        outcome.input_hash(),
        outcome.parallelism,
        aapsm_perfbench::stats::nproc(),
    );
    if !outcome.missing.is_empty() {
        eprintln!(
            "perfbench: FAILED: metrics not produced: {:?}",
            outcome.missing
        );
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints two run records side by side. Runs measured on a different
/// core count, at a different parallelism, or on different inputs are
/// not comparable, and the command refuses them.
fn compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let meta = |r: &Value, key: &str| -> String {
        match r.get("meta").and_then(|m| m.get(key)) {
            Some(Value::Str(s)) => s.clone(),
            Some(Value::Num(n)) => n.to_string(),
            Some(Value::Bool(b)) => b.to_string(),
            _ => "?".to_string(),
        }
    };
    let mut refused = false;
    for key in [
        "workload",
        "trace",
        "nproc",
        "parallelism",
        "service_workers",
        "input_hash",
    ] {
        let (va, vb) = (meta(&ra, key), meta(&rb, key));
        if va != vb {
            eprintln!("perfbench: refusing to compare: {key} differs ({va} vs {vb})");
            refused = true;
        }
    }
    if refused {
        return ExitCode::from(3);
    }
    for key in ["rustc", "git_rev"] {
        println!("{key}: {} | {}", meta(&ra, key), meta(&rb, key));
    }
    let metrics = |r: &Value| -> Vec<(String, f64, String)> {
        r.get("result")
            .and_then(|res| res.get("metrics"))
            .and_then(Value::as_object)
            .map(|m| {
                m.iter()
                    .map(|(k, v)| {
                        let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                        let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
                        (k.clone(), value, unit.to_string())
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let mb = metrics(&rb);
    for (name, va, unit) in metrics(&ra) {
        let vb = mb
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(f64::NAN, |m| m.1);
        let change = if va != 0.0 {
            (vb - va) / va * 100.0
        } else {
            f64::NAN
        };
        println!("{name:<32} {va:>14.4} {vb:>14.4} {unit:<6} {change:>+8.2}%");
    }
    ExitCode::SUCCESS
}
