//! The benchmark's own tests: seeding, oracles, and the metric contract
//! with `BENCHMARK.json`. They run every workload at smoke scale.

use aapsm_perfbench::catalog::{END_TO_END, PER_LAYER};
use aapsm_perfbench::json::{self, Value};
use aapsm_perfbench::report::Outcome;
use aapsm_perfbench::{run, RunConfig, Scale, Workload};

fn smoke(workload: Workload, seed: u64, trace: bool, tamper: bool) -> Outcome {
    run(&RunConfig {
        workload,
        seed,
        seconds: 0.01,
        trace,
        scale: Scale::Smoke,
        tamper,
    })
}

#[test]
fn seed_determines_the_input_hash() {
    for w in Workload::ALL {
        let a = smoke(w, 1, false, false).input_hash();
        let b = smoke(w, 1, false, false).input_hash();
        let c = smoke(w, 2, false, false).input_hash();
        assert_eq!(a, b, "{}: same seed, different inputs", w.name());
        assert_ne!(a, c, "{}: different seeds, same inputs", w.name());
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Parses a result line and returns its metrics as `(name, unit)`.
fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    let line = json::parse(&outcome.result_line()).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_object()
        .expect("result line is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    line.get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}: value is not a finite number"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn sorted(list: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = list
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    v.sort();
    v
}

#[test]
fn smoke_runs_pass_their_oracles_and_emit_every_metric() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = smoke(w, 3, trace, false);
            assert!(out.attempted > 0, "{}: nothing checked", w.name());
            assert!(
                out.correct(),
                "{} trace={trace}: {} of {} failed: {:?}; missing {:?}",
                w.name(),
                out.failed,
                out.attempted,
                out.failures,
                out.missing
            );
            let mut got = emitted(&out);
            got.sort();
            let want = sorted(if trace { PER_LAYER } else { END_TO_END });
            assert_eq!(got, want, "{} trace={trace}", w.name());
            assert!(got.iter().all(|(n, _)| valid_name(n)));
            if !trace {
                assert_eq!(out.metrics["verified_share"], 1.0);
                for (name, value) in &out.metrics {
                    assert!(*value > 0.0, "{}: {name} reads {value}", w.name());
                }
            }
        }
    }
}

#[test]
fn a_wrong_answer_raises_the_failed_share() {
    for w in Workload::ALL {
        let out = smoke(w, 4, false, true);
        assert!(out.failed > 0, "{}: tampered answers passed", w.name());
        assert!(!out.correct());
        assert!(out.metrics["verified_share"] < 1.0, "{}", w.name());
    }
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let section = |key: &str| -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = doc
            .get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Value::as_str).expect("name");
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(section("end_to_end"), sorted(END_TO_END));
    assert_eq!(section("per_layer"), sorted(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let setup = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .and_then(|m| {
            m.iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        })
        .expect("setup_s");
    let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).expect("bound");
    let largest = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end")
        .iter()
        .map(bound)
        .fold(0.0, f64::max);
    assert_eq!(bound(setup), largest, "setup_s carries the largest bound");
    assert!(largest <= 0.25);
}

#[test]
fn json_reader_round_trips_a_record() {
    let out = smoke(Workload::HierGrid, 5, true, false);
    let config = RunConfig {
        workload: Workload::HierGrid,
        seed: 5,
        seconds: 0.01,
        trace: true,
        scale: Scale::Smoke,
        tamper: false,
    };
    let record = json::parse(&out.record_json(&config)).expect("record is JSON");
    let meta = record.get("meta").expect("meta");
    assert_eq!(
        meta.get("workload").and_then(Value::as_str),
        Some("hier_grid")
    );
    assert_eq!(
        meta.get("input_hash").and_then(Value::as_str),
        Some(format!("{:016x}", out.input_hash()).as_str())
    );
    let spans = record
        .get("spans")
        .and_then(Value::as_array)
        .expect("spans");
    assert!(!spans.is_empty());
    for s in spans {
        let start = s.get("start_us").and_then(Value::as_f64).expect("start");
        let end = s.get("end_us").and_then(Value::as_f64).expect("end");
        assert!(end >= start);
    }
}
