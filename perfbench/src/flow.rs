//! `flow_fullchip` and `flow_cover`: each operation reads a GDS stream,
//! runs the whole detect → correct → re-detect flow, and writes the
//! corrected layout back to GDS.

use crate::inputs::{self, hash_bytes, FlatInput};
use crate::report::{ensure, Checker, Outcome};
use crate::stats::{self, mean, median};
use crate::trace::Tracer;
use crate::{repeated_setup, RunConfig, Workload};
use aapsm::core::{
    build_conflict_graph_par, detect_conflicts, plan_correction, run_flow, tjoin_method_census,
    BudgetSpec, BudgetStage, Conflict, CorrectionOptions, DetectConfig, FlowConfig, FlowResult,
    GraphKind, RedetectEngine, StageProvenance,
};
use aapsm::gds::{read_gds, write_gds};
use aapsm::geom::Axis;
use aapsm::graph::{build_dual_par, crossing_pairs_par, planarize_with_crossings, trace_faces_par};
use aapsm::layout::{
    apply_cuts, check_assignable, extract_phase_geometry, extract_phase_geometry_par, DesignRules,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// `DetectConfig::parallelism` of every flow: one worker per core.
const PARALLELISM: usize = 0;

struct Design {
    input: FlatInput,
    /// Round-0 conflicts from a serial `detect_conflicts` on a serial
    /// extraction.
    oracle: Vec<Conflict>,
    /// The corrected GDS stream of the first operation that passed the
    /// full check; later answers must match it byte for byte.
    expected: Option<Vec<u8>>,
}

fn detect_config() -> DetectConfig {
    DetectConfig {
        parallelism: PARALLELISM,
        ..DetectConfig::default()
    }
}

fn flow_config() -> FlowConfig {
    FlowConfig {
        detect: detect_config(),
        ..FlowConfig::default()
    }
}

fn setup(config: &RunConfig, rules: &DesignRules) -> Vec<Design> {
    let inputs = match config.workload {
        Workload::FlowFullchip => inputs::fullchip(config.seed, config.scale, rules),
        _ => inputs::cover_batch(config.seed, config.scale, rules),
    };
    inputs
        .into_iter()
        .map(|input| {
            let geom = extract_phase_geometry(&input.layout, rules);
            let oracle = detect_conflicts(&geom, &DetectConfig::default()).conflicts;
            Design {
                input,
                oracle,
                expected: None,
            }
        })
        .collect()
}

/// The timed operation: GDS → `run_flow` → GDS.
fn flow_op(
    gds: &[u8],
    rules: &DesignRules,
    cfg: &FlowConfig,
) -> Result<(FlowResult, Vec<u8>), String> {
    let layout = read_gds(gds).map_err(|e| format!("read_gds: {e}"))?;
    let result = run_flow(&layout, rules, cfg).map_err(|e| format!("run_flow: {e}"))?;
    let out = write_gds(&result.correction.modified, "TOP");
    Ok((result, out))
}

/// Whether every round's detection ran exactly. A cover whose search hit
/// its node limit keeps a feasible, unproven incumbent and is flagged in
/// the provenance too; that is a measured property of the planner
/// (`cover.proven_share`), not a failed operation. With an unlimited
/// budget nothing else can degrade, so anything else counts as failed.
fn detection_exact(result: &FlowResult) -> bool {
    result.provenance.iter().all(|p| {
        p.build.is_exact()
            && p.bipartize.is_exact()
            && !matches!(&p.correct, StageProvenance::Skipped(why) if why.contains("budget"))
    })
}

/// Checks one flow answer. The first answer per design gets the full
/// check (Theorem 1 on a serial re-extraction of the corrected layout,
/// GDS round trip); later ones must reproduce its bytes.
fn check(
    design: &mut Design,
    answer: Result<(FlowResult, Vec<u8>), String>,
    rules: &DesignRules,
    tamper: bool,
) -> Result<(), String> {
    let (mut result, out) = answer?;
    if tamper {
        result.detection.conflicts.pop();
    }
    let name = &design.input.name;
    ensure(result.verified, || {
        format!("{name}: flow result not verified")
    })?;
    ensure(detection_exact(&result), || {
        format!("{name}: degraded flow: {:?}", result.provenance)
    })?;
    ensure(result.detection.conflicts == design.oracle, || {
        format!(
            "{name}: round-0 conflicts differ from the serial oracle ({} vs {})",
            result.detection.conflicts.len(),
            design.oracle.len()
        )
    })?;
    if let Some(expected) = &design.expected {
        return ensure(out == *expected, || {
            format!("{name}: corrected GDS differs from the verified answer")
        });
    }
    let back = read_gds(&out).map_err(|e| format!("{name}: corrected GDS unreadable: {e}"))?;
    ensure(back == result.correction.modified, || {
        format!("{name}: corrected layout does not survive a GDS round trip")
    })?;
    let geom = extract_phase_geometry(&back, rules);
    check_assignable(&geom)
        .map_err(|w| format!("{name}: corrected layout not phase-assignable: {w:?}"))?;
    design.expected = Some(out);
    Ok(())
}

/// Runs the flow workloads.
pub fn run(config: &RunConfig, checker: &mut Checker) -> Outcome {
    let rules = DesignRules::default();
    let (mut designs, setup_s) = repeated_setup(config, || setup(config, &rules));
    let mut outcome = Outcome {
        input_hashes: designs
            .iter()
            .map(|d| (d.input.name.clone(), hash_bytes(&d.input.gds)))
            .collect(),
        parallelism: PARALLELISM,
        ..Outcome::default()
    };
    if config.trace {
        traced(config, &rules, &mut designs, checker, &mut outcome);
    } else {
        outcome.set("setup_s", setup_s);
        untraced(config, &rules, &mut designs, checker, &mut outcome);
    }
    outcome
}

fn untraced(
    config: &RunConfig,
    rules: &DesignRules,
    designs: &mut [Design],
    checker: &mut Checker,
    outcome: &mut Outcome,
) {
    let cfg = flow_config();
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    let mut conflicts = vec![0usize; designs.len()];
    let mut busy = Duration::ZERO;
    // Whole rounds over the batch, until the timed work fills the window.
    while busy.as_secs_f64() < config.seconds {
        for (i, design) in designs.iter_mut().enumerate() {
            let t = Instant::now();
            let answer = std::hint::black_box(flow_op(&design.input.gds, rules, &cfg));
            let dt = t.elapsed();
            busy += dt;
            latencies[i].push(dt.as_secs_f64() * 1e3);
            if let Ok((result, _)) = &answer {
                conflicts[i] = result.detection.conflict_count();
            }
            checker.record(check(design, answer, rules, checker.tamper()));
        }
    }
    let ops: usize = latencies.iter().map(Vec::len).sum();
    // Designs differ in cost, so the typical latency is the mean of each
    // design's median: every design weighs the same on every seed.
    let per_design: Vec<f64> = latencies.iter().map(|l| median(l)).collect();
    outcome.set("op_p50_ms", mean(&per_design));
    outcome.set("ops_per_s", ops as f64 / busy.as_secs_f64());
    outcome.set("conflicts", conflicts.iter().sum::<usize>() as f64);
}

/// The traced run. Per design and iteration: one untraced operation
/// (checked as usual, and the reference for attribution), then a replay
/// of the same operation through the public stage entry points in the
/// order `run_flow` composes them, then stand-alone probes of the stages
/// that run inside an enclosing call.
fn traced(
    config: &RunConfig,
    rules: &DesignRules,
    designs: &mut [Design],
    checker: &mut Checker,
    outcome: &mut Outcome,
) {
    let cfg = flow_config();
    let dcfg = detect_config();
    let copts = CorrectionOptions {
        parallelism: PARALLELISM,
        ..CorrectionOptions::default()
    };
    // The engine state after round 0, as `run_flow` leaves it; each replay
    // re-detects on a clone of it, cloned before the replay starts.
    let engines: Vec<RedetectEngine> = designs
        .iter()
        .map(|d| {
            let mut e = RedetectEngine::new(*rules, dcfg.clone());
            e.detect_full(&d.input.layout);
            e
        })
        .collect();
    let mut tracer = Tracer::new();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |name: &'static str, v: f64| *counts.entry(name).or_insert(0.0) += v;
    let mut untraced_ms = Vec::new();
    let mut traced_ops = 0usize;
    let mut redetects = 0usize;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < config.seconds || traced_ops == 0 {
        for (design, engine0) in designs.iter_mut().zip(&engines) {
            let t = Instant::now();
            let answer = std::hint::black_box(flow_op(&design.input.gds, rules, &cfg));
            untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            checker.record(check(design, answer, rules, checker.tamper()));

            let mut engine = engine0.clone();
            tracer.begin_op();
            traced_ops += 1;
            let gds = &design.input.gds;
            add("gds.bytes_in", gds.len() as f64);
            let verdict = (|| -> Result<(), String> {
                let (layout, _) = tracer.span("gds.read", || read_gds(gds));
                let layout = layout.map_err(|e| format!("read_gds: {e}"))?;
                let (sane, _) = tracer.span("layout.sanitize", || layout.sanitize(rules));
                sane.map_err(|e| format!("sanitize: {e}"))?;
                let (geom, _) = tracer.span("layout.extract", || {
                    extract_phase_geometry_par(&layout, rules, PARALLELISM)
                });
                let (mut report, id) =
                    tracer.span("core.detect", || detect_conflicts(&geom, &dcfg));
                let s = report.stats;
                tracer.split(
                    id,
                    &[
                        ("core.build", s.build_time),
                        ("core.bipartize", s.bipartize_time),
                    ],
                    "core.recheck",
                );
                ensure(report.conflicts == design.oracle, || {
                    "replayed round-0 conflicts differ from the oracle".to_string()
                })?;
                add("layout.shifters", geom.shifters.len() as f64);
                add("layout.overlaps", geom.overlaps.len() as f64);
                add("core.graph_nodes", s.graph_nodes as f64);
                add("core.graph_edges", s.graph_edges as f64);
                add("graph.crossings", s.crossings as f64);
                add("graph.planarize_removed", s.planarize_removed as f64);
                add("core.bipartize_conflicts", s.bipartize_conflicts as f64);
                add("core.recheck_conflicts", s.recheck_conflicts as f64);
                ensure(engine.geometry() == Some(&geom), || {
                    "primed engine geometry differs from the replayed extraction".to_string()
                })?;

                let mut current = layout;
                for round in 0..cfg.max_rounds.max(1) {
                    let now = engine.geometry().ok_or("engine lost its geometry")?;
                    let (plan, _) = tracer.span("core.plan", || {
                        plan_correction(now, &report.conflicts, rules, &copts)
                    });
                    if round == 0 {
                        add("cover.components", plan.cover_components as f64);
                        add(
                            "cover.proven_components",
                            plan.cover_optimal_components as f64,
                        );
                        add("cover.grid_lines", plan.grid_line_count() as f64);
                        add(
                            "cover.plan_weight",
                            (plan.inserted_width(Axis::X) + plan.inserted_width(Axis::Y)) as f64,
                        );
                    }
                    if report.conflict_count() == 0 {
                        break;
                    }
                    ensure(plan.uncorrectable.is_empty(), || {
                        format!("round {round}: uncorrectable conflicts")
                    })?;
                    let (modified, _) =
                        tracer.span("layout.apply_cuts", || apply_cuts(&current, &plan.cuts));
                    current = modified;
                    let (next, _) = tracer.span("core.redetect", || {
                        engine.redetect_after_correction(&current, &plan.cuts)
                    });
                    report = next;
                    let r = engine.last_stats();
                    redetects += 1;
                    add(
                        "redetect.incremental_share",
                        f64::from(u8::from(r.incremental)),
                    );
                    add(
                        "redetect.extraction_fallbacks",
                        f64::from(u8::from(r.extraction_fallback)),
                    );
                    add("redetect.reused_overlaps", r.reused_overlaps as f64);
                    add("redetect.rescanned_pairs", r.rescanned_pairs as f64);
                    add("redetect.tiles_reused", r.tiles_reused as f64);
                    add("redetect.tiles_rebuilt", r.tiles_rebuilt as f64);
                    add("redetect.solve_hits", r.solve_hits as f64);
                    add(
                        "redetect.solve_lookups",
                        (r.solve_hits + r.solve_misses) as f64,
                    );
                }
                ensure(report.conflict_count() == 0, || {
                    "replay did not converge".to_string()
                })?;
                let last = engine.geometry().ok_or("engine lost its geometry")?;
                let (assignable, _) =
                    tracer.span("layout.check_assignable", || check_assignable(last));
                ensure(assignable.is_ok(), || {
                    "replayed layout not assignable".to_string()
                })?;
                let (out, _) = tracer.span("gds.write", || write_gds(&current, "TOP"));
                ensure(Some(&out) == design.expected.as_ref(), || {
                    "replayed corrected GDS differs from the flow's".to_string()
                })?;

                // Probes: the graph stages `detect_conflicts` runs inside
                // its build phase, re-run stand-alone on the op's input.
                let mut cg = build_conflict_graph_par(&geom, GraphKind::PhaseConflict, PARALLELISM);
                let crossings = tracer.probe("graph.crossings", || {
                    crossing_pairs_par(&cg.graph, PARALLELISM)
                });
                tracer.probe("graph.planarize", || {
                    planarize_with_crossings(&mut cg.graph, dcfg.planarize_order, &crossings)
                });
                tracer.probe("graph.face_dual", || {
                    let faces = trace_faces_par(&cg.graph, PARALLELISM);
                    build_dual_par(&cg.graph, &faces, PARALLELISM)
                });
                let census = tjoin_method_census(&cg.graph, dcfg.blocks);
                add("tjoin.closure_picks", census.closure as f64);
                add("tjoin.gadget_picks", census.gadget as f64);

                // Deterministic work ticks: the same flow under a budget
                // that never trips, read back per stage.
                let budget = BudgetSpec::default().build();
                let mut budgeted = FlowConfig::with_budget(budget.clone());
                budgeted.detect.parallelism = PARALLELISM;
                let layout = read_gds(gds).map_err(|e| format!("read_gds: {e}"))?;
                let result =
                    run_flow(&layout, rules, &budgeted).map_err(|e| format!("run_flow: {e}"))?;
                ensure(result.verified && detection_exact(&result), || {
                    "budgeted flow degraded under a never-tripping budget".to_string()
                })?;
                let out = write_gds(&result.correction.modified, "TOP");
                ensure(Some(&out) == design.expected.as_ref(), || {
                    "budgeted flow wrote a different corrected GDS".to_string()
                })?;
                add(
                    "fault.graph_build_ticks",
                    budget.used(BudgetStage::GraphBuild) as f64,
                );
                add("fault.embed_ticks", budget.used(BudgetStage::Embed) as f64);
                add(
                    "fault.matching_ticks",
                    budget.used(BudgetStage::Matching) as f64,
                );
                add("fault.cover_ticks", budget.used(BudgetStage::Cover) as f64);
                add(
                    "cover.area_increase_pct",
                    result.correction.area_increase_pct,
                );
                Ok(())
            })();
            checker.record(verdict);
        }
    }
    let ops = traced_ops;
    let hits = counts.remove("redetect.solve_hits").unwrap_or(0.0);
    let lookups = counts.remove("redetect.solve_lookups").unwrap_or(0.0);
    let incremental = counts.remove("redetect.incremental_share").unwrap_or(0.0);
    outcome.set("redetect.solve_hit_share", stats::ratio(hits, lookups));
    outcome.set(
        "redetect.incremental_share",
        stats::ratio(incremental, redetects as f64),
    );
    let components = counts.get("cover.components").copied().unwrap_or(0.0);
    let proven = counts
        .get("cover.proven_components")
        .copied()
        .unwrap_or(0.0);
    outcome.set("cover.proven_share", stats::ratio(proven, components));
    outcome.set_counts(&counts, ops);
    outcome.set_self_times(&tracer.self_ms(), ops);
    outcome.set_trace_totals(&tracer, &untraced_ms);
}
