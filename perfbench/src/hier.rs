//! `hier_grid`: each operation reads a hierarchical GDS library and runs
//! `detect_hier` on it — the only workload that reaches hierarchy
//! flattening, per-class priming and cross-instance solve reuse.

use crate::inputs::{self, hash_bytes, HierInput};
use crate::report::{ensure, Checker, Outcome};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{repeated_setup, RunConfig};
use aapsm::core::{detect_conflicts, detect_hier, Conflict, DetectConfig, HierDetectReport};
use aapsm::gds::read_gds_hier;
use aapsm::layout::{extract_phase_geometry, DesignRules};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const PARALLELISM: usize = 0;

struct Prepared {
    input: HierInput,
    /// Flat detection of `flatten()`: serial extraction and detection.
    oracle: Vec<Conflict>,
}

fn setup(config: &RunConfig, rules: &DesignRules) -> Result<Prepared, String> {
    let input = inputs::hier_grid(config.seed, config.scale, rules);
    let flat = input.hier.flatten().map_err(|e| format!("flatten: {e}"))?;
    let oracle = detect_conflicts(
        &extract_phase_geometry(&flat, rules),
        &DetectConfig::default(),
    )
    .conflicts;
    Ok(Prepared { input, oracle })
}

fn detect_config() -> DetectConfig {
    DetectConfig {
        parallelism: PARALLELISM,
        ..DetectConfig::default()
    }
}

/// The timed operation: `read_gds_hier` → sanitize → `detect_hier`.
fn hier_op(
    gds: &[u8],
    rules: &DesignRules,
    cfg: &DetectConfig,
) -> Result<(HierDetectReport, usize), String> {
    let read = read_gds_hier(gds).map_err(|e| format!("read_gds_hier: {e}"))?;
    read.hier
        .sanitize(rules)
        .map_err(|e| format!("sanitize: {e}"))?;
    let report = detect_hier(&read.hier, rules, cfg).map_err(|e| format!("detect_hier: {e}"))?;
    Ok((report, read.total_skipped()))
}

fn check(
    prepared: &Prepared,
    report: &HierDetectReport,
    skipped: usize,
    tamper: bool,
) -> Result<(), String> {
    ensure(skipped == 0, || {
        format!("GDS reader skipped {skipped} records")
    })?;
    let mut conflicts = report.report.conflicts.clone();
    if tamper {
        conflicts.pop();
    }
    ensure(conflicts == prepared.oracle, || {
        format!(
            "detect_hier differs from flat detection ({} vs {} conflicts)",
            conflicts.len(),
            prepared.oracle.len()
        )
    })
}

/// Runs `hier_grid`.
pub fn run(config: &RunConfig, checker: &mut Checker) -> Outcome {
    let rules = DesignRules::default();
    let (prepared, setup_s) = repeated_setup(config, || setup(config, &rules));
    let mut outcome = Outcome {
        parallelism: PARALLELISM,
        ..Outcome::default()
    };
    let prepared = match prepared {
        Ok(p) => p,
        Err(msg) => {
            checker.record(Err(msg));
            return outcome;
        }
    };
    outcome.input_hashes = vec![("hier_grid".to_string(), hash_bytes(&prepared.input.gds))];
    let cfg = detect_config();
    if config.trace {
        traced(config, &rules, &prepared, checker, &mut outcome);
        return outcome;
    }
    let mut latencies = Vec::new();
    let mut busy = Duration::ZERO;
    while busy.as_secs_f64() < config.seconds {
        let t = Instant::now();
        let answer = std::hint::black_box(hier_op(&prepared.input.gds, &rules, &cfg));
        let dt = t.elapsed();
        busy += dt;
        latencies.push(dt.as_secs_f64() * 1e3);
        let tamper = checker.tamper();
        checker.record(answer.and_then(|(r, skipped)| check(&prepared, &r, skipped, tamper)));
    }
    outcome.set("setup_s", setup_s);
    outcome.set("op_p50_ms", median(&latencies));
    outcome.set("ops_per_s", latencies.len() as f64 / busy.as_secs_f64());
    outcome.set("conflicts", prepared.oracle.len() as f64);
    outcome
}

/// The traced run: per iteration one untraced operation, then the same
/// operation with a span around each call, and a stand-alone flatten
/// probe. `detect_hier` is split by the build and bipartize times it
/// reports; the rest of the call is its named residual, `hier.prime`
/// (flatten, extraction, per-class priming and the Step-3 recheck).
fn traced(
    config: &RunConfig,
    rules: &DesignRules,
    prepared: &Prepared,
    checker: &mut Checker,
    outcome: &mut Outcome,
) {
    let cfg = detect_config();
    let gds = &prepared.input.gds;
    let mut tracer = Tracer::new();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut untraced_ms = Vec::new();
    let mut detect_ms = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < config.seconds || detect_ms.is_empty() {
        let t = Instant::now();
        let answer = std::hint::black_box(hier_op(gds, rules, &cfg));
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let tamper = checker.tamper();
        checker.record(answer.and_then(|(r, skipped)| check(prepared, &r, skipped, tamper)));

        tracer.begin_op();
        let verdict = (|| -> Result<(), String> {
            let (read, _) = tracer.span("gds.read", || read_gds_hier(gds));
            let read = read.map_err(|e| format!("read_gds_hier: {e}"))?;
            let (sane, _) = tracer.span("layout.sanitize", || read.hier.sanitize(rules));
            sane.map_err(|e| format!("sanitize: {e}"))?;
            let (report, id) = tracer.span("hier.detect", || detect_hier(&read.hier, rules, &cfg));
            detect_ms.push(tracer.spans()[id as usize].ms());
            let report = report.map_err(|e| format!("detect_hier: {e}"))?;
            let s = report.report.stats;
            tracer.split(
                id,
                &[
                    ("core.build", s.build_time),
                    ("core.bipartize", s.bipartize_time),
                ],
                "hier.prime",
            );
            check(prepared, &report, read.total_skipped(), checker.tamper())?;
            tracer
                .probe("layout.flatten", || read.hier.flatten())
                .map_err(|e| format!("flatten: {e}"))?;
            for (name, v) in [
                ("gds.bytes_in", gds.len() as f64),
                ("core.graph_nodes", s.graph_nodes as f64),
                ("core.graph_edges", s.graph_edges as f64),
                ("graph.crossings", s.crossings as f64),
                ("graph.planarize_removed", s.planarize_removed as f64),
                ("core.bipartize_conflicts", s.bipartize_conflicts as f64),
                ("core.recheck_conflicts", s.recheck_conflicts as f64),
                ("hier.cells_detected", report.hier.cells_detected as f64),
                ("hier.instances_reused", report.hier.instances_reused as f64),
                ("hier.solve_misses", report.hier.solve_misses as f64),
            ] {
                *counts.entry(name).or_insert(0.0) += v;
            }
            Ok(())
        })();
        checker.record(verdict);
    }
    let ops = detect_ms.len();
    outcome.set_counts(&counts, ops);
    outcome.set_self_times(&tracer.self_ms(), ops);
    // `hier.detect_ms` is the whole `detect_hier` call, not its self time.
    outcome.set("hier.detect_ms", mean(&detect_ms));
    outcome.set_trace_totals(&tracer, &untraced_ms);
}
