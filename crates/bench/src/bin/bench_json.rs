//! Machine-readable perf tracking for the detection pipeline.
//!
//! Run with `cargo run --release -p aapsm-bench --bin bench_json`. Writes
//! two JSON snapshots (by hand — the build environment has no registry
//! access for serde):
//!
//! * `BENCH_bipartize_scaling.json` — the historical back-end view:
//!   conflict-graph build, greedy planarization, and serial-vs-parallel
//!   dual-T-join bipartization (the stage the paper's Table 1 times).
//! * `BENCH_detect_pipeline.json` — the full front-to-back view: every
//!   pipeline stage (extract / build / planarize / face_dual /
//!   bipartize) timed serially (`parallelism = 1`) and on all available
//!   cores (`parallelism = 0`), on the 1×/4×/16×/64× scaling suite. The
//!   `face_dual` stage isolates the per-component parallel face trace +
//!   dual build inside bipartization and is excluded from the totals
//!   (bipartize already contains it). The `correction_plan` stage times
//!   the decomposed weighted-set-cover planner serial vs parallel
//!   (identical plans asserted) with plan-weight and proven-optimal
//!   component counters; it is kept out of the detection totals so they
//!   stay comparable across snapshots.
//!
//! Every parallel stage output is asserted equal to its serial output
//! before a row is written, so a speedup column can never come from a
//! wrong answer; the `identical` fields record that the assertion ran.

use aapsm_core::{
    bipartize, build_conflict_graph, build_conflict_graph_par, detect_conflicts, detect_hier,
    plan_correction, tjoin_method_census, BipartizeMethod, CorrectionOptions, DetectConfig,
    GraphKind, RedetectEngine, TJoinMethod,
};
use aapsm_core::{ConflictGraph, PlanarizeOrder};
use aapsm_geom::Axis;
use aapsm_layout::synth::{scaling_suite, SynthParams};
use aapsm_layout::{
    apply_cuts, extract_phase_geometry, extract_phase_geometry_par, Cell, DesignRules, HierLayout,
    Instance, Layout, Orient, Placement,
};
use aapsm_service::{DetectionService, LoadLadder, Request, ResponseKind, ServiceConfig};
use std::time::Instant;

/// Fastest of `reps` runs, in seconds (min damps scheduler noise better
/// than the mean on small samples).
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
}

/// Times planarization over pre-cloned inputs (so the clone cost stays out
/// of the measurement) and returns the fastest time, the removed set and
/// the final graph of the last run.
fn time_planarize(
    reps: usize,
    cg0: &ConflictGraph,
    parallelism: usize,
) -> (
    f64,
    Vec<aapsm_core::ConflictGraph>,
    Vec<aapsm_graph::EdgeId>,
) {
    let mut inputs: Vec<_> = (0..reps).map(|_| cg0.clone()).collect();
    let mut best = f64::INFINITY;
    let mut removed = Vec::new();
    for cg in &mut inputs {
        let t = Instant::now();
        removed =
            aapsm_graph::planarize(&mut cg.graph, PlanarizeOrder::MinWeightFirst, parallelism)
                .removed;
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, inputs, removed)
}

/// One stage's serial/parallel measurement, in milliseconds.
struct Stage {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
}

impl Stage {
    /// From seconds as returned by [`time_best`].
    fn from_secs(name: &'static str, serial_s: f64, parallel_s: f64) -> Stage {
        Stage {
            name,
            serial_ms: serial_s * 1e3,
            parallel_ms: parallel_s * 1e3,
        }
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "\"{}\": {{\"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, ",
                "\"speedup\": {:.3}, \"identical\": true}}"
            ),
            self.name,
            self.serial_ms,
            self.parallel_ms,
            self.serial_ms / self.parallel_ms.max(1e-12),
        )
    }
}

fn main() {
    // Fault-injection hooks must be compiled out of the measured binary:
    // release timings may not include the probes. A debug run still
    // works, but its numbers are flagged as non-representative.
    #[cfg(not(debug_assertions))]
    assert!(
        !aapsm_fault::enabled(),
        "fault-injection hooks are live in a release benchmark build"
    );
    if aapsm_fault::enabled() {
        eprintln!("warning: debug build; fault hooks are live and timings are not representative");
    }
    let rules = DesignRules::default();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = 5;
    let mut legacy_rows = Vec::new();
    let mut pipeline_rows = Vec::new();

    for design in scaling_suite() {
        eprintln!("measuring {} ...", design.name);
        let layout = aapsm_layout::synth::generate(&design.params, &rules);

        // ---- Stage 1: phase-geometry extraction. ----
        let (extract_serial_s, geom) = time_best(reps, || extract_phase_geometry(&layout, &rules));
        let (extract_parallel_s, geom_par) =
            time_best(reps, || extract_phase_geometry_par(&layout, &rules, 0));
        assert_eq!(
            geom, geom_par,
            "{}: parallel extraction diverged from serial",
            design.name
        );

        // ---- Stage 2: conflict-graph build. ----
        let (build_serial_s, cg0) = time_best(reps, || {
            build_conflict_graph(&geom, GraphKind::PhaseConflict)
        });
        // The `_par` entry point runs the same serial build at every
        // degree; the column stays so the `build` row keeps its schema.
        let (build_parallel_s, cg_par) = time_best(reps, || {
            build_conflict_graph_par(&geom, GraphKind::PhaseConflict, 0)
        });
        assert_eq!(
            cg0, cg_par,
            "{}: parallel build diverged from serial",
            design.name
        );

        // ---- Stage 3: planarization (parallel crossing sweep). ----
        let (planarize_serial_s, mut serial_out, removed_serial) = time_planarize(reps, &cg0, 1);
        let (planarize_parallel_s, parallel_out, removed_parallel) = time_planarize(reps, &cg0, 0);
        assert_eq!(
            removed_serial, removed_parallel,
            "{}: parallel planarization diverged from serial",
            design.name
        );
        assert_eq!(serial_out.last(), parallel_out.last());
        let cg = serial_out.pop().expect("reps >= 1");

        // ---- Stage 4: face trace + dual build (the planar-embedding
        // front half of bipartization, parallelized per component). ----
        let (face_dual_serial_s, serial_embedding) = time_best(reps, || {
            let faces = aapsm_graph::trace_faces(&cg.graph);
            let dual = aapsm_graph::build_dual(&cg.graph, &faces);
            (faces, dual)
        });
        let (face_dual_parallel_s, parallel_embedding) = time_best(reps, || {
            let faces = aapsm_graph::trace_faces_par(&cg.graph, 0);
            let dual = aapsm_graph::build_dual_par(&cg.graph, &faces, 0);
            (faces, dual)
        });
        assert_eq!(
            serial_embedding, parallel_embedding,
            "{}: parallel face trace / dual build diverged from serial",
            design.name
        );

        // ---- Stage 5: bipartization. ----
        let method = BipartizeMethod::OptimalDual {
            tjoin: TJoinMethod::default(),
            blocks: false,
        };
        let (bipartize_serial_s, serial) = time_best(reps, || bipartize(&cg.graph, method, 1));
        let (bipartize_parallel_s, parallel) = time_best(reps, || bipartize(&cg.graph, method, 0));
        assert_eq!(
            serial.deleted, parallel.deleted,
            "{}: parallel bipartization diverged from serial",
            design.name
        );
        // Which T-join engine the auto-selection picked per dual
        // instance: a design-visible behavior counter (gated for exact
        // equality by bench_gate — a method-mix drift is a behavior
        // change, not timing noise).
        let census = tjoin_method_census(&cg.graph, false);

        // ---- Stage 6: incremental re-detect of the correction loop.
        // Two rounds are measured against a from-scratch extract+detect
        // of the corrected layout, both asserted identical first:
        // `local` corrects one conflict (the ECO / near-convergence
        // shape the engine exists for), `full` corrects every conflict
        // at once (whole-chip cuts — the engine's adaptive fallback must
        // keep it at rough parity with scratch). ----
        let detect_cfg = DetectConfig {
            parallelism: 0,
            ..DetectConfig::default()
        };
        let mut engine = RedetectEngine::new(rules, detect_cfg.clone());
        let round0 = engine.detect_full(&layout);
        assert!(
            round0.conflict_count() > 0,
            "{}: scaling designs are expected to need correction",
            design.name
        );

        // ---- Stage 7: correction planning (decomposed weighted set
        // cover). Serial vs parallel per-component solves, identical
        // plans asserted; the counters record the plan weight (total
        // inserted width) and how much of the cover is *proven* optimal
        // (truncated / greedy components never count). ----
        let plan_geom = engine.geometry().expect("detected");
        let (correction_serial_s, plan_serial) = time_best(reps, || {
            plan_correction(
                plan_geom,
                &round0.conflicts,
                &rules,
                &CorrectionOptions {
                    parallelism: 1,
                    ..CorrectionOptions::default()
                },
            )
        });
        let (correction_parallel_s, plan_parallel) = time_best(reps, || {
            plan_correction(
                plan_geom,
                &round0.conflicts,
                &rules,
                &CorrectionOptions {
                    parallelism: 0,
                    ..CorrectionOptions::default()
                },
            )
        });
        assert_eq!(
            plan_serial, plan_parallel,
            "{}: parallel correction planning diverged from serial",
            design.name
        );
        let plan_weight = plan_serial.inserted_width(Axis::X) + plan_serial.inserted_width(Axis::Y);
        let measure_redetect = |conflict_count: usize, label: &str| {
            let plan = plan_correction(
                engine.geometry().expect("detected"),
                &round0.conflicts[..conflict_count],
                &rules,
                &CorrectionOptions::default(),
            );
            assert!(
                !plan.cuts.is_empty(),
                "{}: {label} plan is empty",
                design.name
            );
            let modified = apply_cuts(&layout, &plan.cuts);
            let (scratch_s, scratch) = time_best(reps, || {
                let geom = extract_phase_geometry_par(&modified, &rules, 0);
                let report = detect_conflicts(&geom, &detect_cfg);
                (geom, report)
            });
            // Each rep replays from a clone of the post-round-0 state
            // (the clone cost stays out of the measurement).
            let mut engines: Vec<RedetectEngine> = (0..reps).map(|_| engine.clone()).collect();
            let mut incremental_s = f64::INFINITY;
            let mut report = None;
            for e in &mut engines {
                let t = Instant::now();
                let r = e.redetect_after_correction(&modified, &plan.cuts);
                incremental_s = incremental_s.min(t.elapsed().as_secs_f64());
                report = Some(r);
            }
            let report = report.expect("reps >= 1");
            let last = engines.last().expect("reps >= 1");
            assert_eq!(
                last.geometry(),
                Some(&scratch.0),
                "{}: {label} incremental re-extraction diverged from scratch",
                design.name
            );
            assert_eq!(
                report.conflicts, scratch.1.conflicts,
                "{}: {label} incremental re-detect diverged from scratch",
                design.name
            );
            assert_eq!(report.stats.crossings, scratch.1.stats.crossings);
            assert_eq!(
                report.stats.planarize_removed,
                scratch.1.stats.planarize_removed
            );
            (scratch_s, incremental_s, *last.last_stats())
        };
        let (local_scratch_s, local_incremental_s, local_stats) = measure_redetect(1, "local");
        // Steady-state solve-cache discipline. The old flank-weight
        // bucketing (`next_power_of_two` of the chip's overlap sum) let
        // one inserted cut reprice *every* component's cache key — the
        // wipe showed up as rows_x1 going 0 hits / 33 misses on a
        // one-conflict round. With the weight pinned to its floor, a
        // round may only miss on components the cuts actually dirtied: a
        // handful per inserted grid line, independent of chip size.
        assert!(
            local_stats.solve_hits > local_stats.solve_misses,
            "{}: solve cache went cold on a one-conflict round ({} hits, {} misses) — keys are unstable again",
            design.name,
            local_stats.solve_hits,
            local_stats.solve_misses
        );
        assert!(
            local_stats.solve_misses <= 16,
            "{}: {} solve-cache misses in a one-conflict round — expected only the cut-dirtied components",
            design.name,
            local_stats.solve_misses
        );
        let (full_scratch_s, full_incremental_s, _) =
            measure_redetect(round0.conflict_count(), "full");

        let stages = [
            Stage::from_secs("extract", extract_serial_s, extract_parallel_s),
            Stage::from_secs("build", build_serial_s, build_parallel_s),
            Stage::from_secs("planarize", planarize_serial_s, planarize_parallel_s),
            Stage::from_secs("face_dual", face_dual_serial_s, face_dual_parallel_s),
            Stage::from_secs("bipartize", bipartize_serial_s, bipartize_parallel_s),
        ];
        // `face_dual` is the front half of `bipartize` (which re-traces
        // internally), so it is reported but excluded from the totals.
        let total_serial_ms: f64 = stages
            .iter()
            .filter(|s| s.name != "face_dual")
            .map(|s| s.serial_ms)
            .sum();
        let total_parallel_ms: f64 = stages
            .iter()
            .filter(|s| s.name != "face_dual")
            .map(|s| s.parallel_ms)
            .sum();
        let mut stage_json: Vec<String> = stages
            .iter()
            .map(|s| {
                if s.name == "bipartize" {
                    format!(
                        concat!(
                            "\"bipartize\": {{\"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, ",
                            "\"speedup\": {:.3}, ",
                            "\"closure_picks\": {}, \"gadget_picks\": {}, ",
                            "\"identical\": true}}"
                        ),
                        s.serial_ms,
                        s.parallel_ms,
                        s.serial_ms / s.parallel_ms.max(1e-12),
                        census.closure,
                        census.gadget,
                    )
                } else {
                    s.json()
                }
            })
            .collect();
        stage_json.push(format!(
            concat!(
                "\"correction_plan\": {{",
                "\"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, ",
                "\"speedup\": {:.3}, ",
                "\"plan_weight\": {}, \"grid_lines\": {}, ",
                "\"cover_components\": {}, \"cover_optimal_components\": {}, ",
                "\"cover_optimal\": {}, ",
                "\"identical\": true}}"
            ),
            correction_serial_s * 1e3,
            correction_parallel_s * 1e3,
            correction_serial_s / correction_parallel_s.max(1e-12),
            plan_weight,
            plan_serial.grid_line_count(),
            plan_serial.cover_components,
            plan_serial.cover_optimal_components,
            plan_serial.cover_optimal,
        ));
        stage_json.push(format!(
            concat!(
                "\"incremental_redetect\": {{",
                "\"local_scratch_ms\": {:.3}, \"local_incremental_ms\": {:.3}, ",
                "\"local_speedup\": {:.3}, ",
                "\"full_scratch_ms\": {:.3}, \"full_incremental_ms\": {:.3}, ",
                "\"full_speedup\": {:.3}, ",
                "\"overlaps_reused\": {}, \"pairs_rescanned\": {}, ",
                "\"tiles_reused\": {}, \"tiles_rebuilt\": {}, ",
                "\"solve_hits\": {}, \"solve_misses\": {}, ",
                "\"identical\": true}}"
            ),
            local_scratch_s * 1e3,
            local_incremental_s * 1e3,
            local_scratch_s / local_incremental_s.max(1e-12),
            full_scratch_s * 1e3,
            full_incremental_s * 1e3,
            full_scratch_s / full_incremental_s.max(1e-12),
            local_stats.reused_overlaps,
            local_stats.rescanned_pairs,
            local_stats.tiles_reused,
            local_stats.tiles_rebuilt,
            local_stats.solve_hits,
            local_stats.solve_misses,
        ));
        pipeline_rows.push(format!(
            concat!(
                "    {{\"design\": \"{}\", \"rows\": {}, \"polygons\": {}, ",
                "\"graph_nodes\": {}, \"graph_edges\": {}, \"conflicts\": {}, ",
                "\"stages\": {{{}}}, ",
                "\"total_serial_ms\": {:.3}, \"total_parallel_ms\": {:.3}, ",
                "\"identical\": true}}"
            ),
            design.name,
            design.params.rows,
            layout.len(),
            cg.graph.node_count(),
            cg.graph.alive_edge_count(),
            serial.deleted.len(),
            stage_json.join(", "),
            total_serial_ms,
            total_parallel_ms,
        ));
        legacy_rows.push(format!(
            concat!(
                "    {{\"design\": \"{}\", \"rows\": {}, \"polygons\": {}, ",
                "\"graph_nodes\": {}, \"graph_edges\": {}, \"conflicts\": {}, ",
                "\"build_ms\": {:.3}, \"planarize_ms\": {:.3}, ",
                "\"bipartize_serial_ms\": {:.3}, \"bipartize_parallel_ms\": {:.3}, ",
                "\"speedup\": {:.3}, ",
                "\"closure_picks\": {}, \"gadget_picks\": {}, ",
                "\"identical\": true}}"
            ),
            design.name,
            design.params.rows,
            layout.len(),
            cg.graph.node_count(),
            cg.graph.alive_edge_count(),
            serial.deleted.len(),
            build_serial_s * 1e3,
            planarize_serial_s * 1e3,
            bipartize_serial_s * 1e3,
            bipartize_parallel_s * 1e3,
            bipartize_serial_s / bipartize_parallel_s.max(1e-12),
            census.closure,
            census.gadget,
        ));
        eprintln!(
            "  extract {:.2}/{:.2} ms, build {:.2}/{:.2} ms, planarize {:.2}/{:.2} ms, bipartize {:.2}/{:.2} ms (serial/parallel, {} workers)",
            extract_serial_s * 1e3,
            extract_parallel_s * 1e3,
            build_serial_s * 1e3,
            build_parallel_s * 1e3,
            planarize_serial_s * 1e3,
            planarize_parallel_s * 1e3,
            bipartize_serial_s * 1e3,
            bipartize_parallel_s * 1e3,
            workers
        );
        eprintln!(
            "  redetect: local {:.2}/{:.2} ms ({:.2}x), full round {:.2}/{:.2} ms ({:.2}x) (scratch/incremental)",
            local_scratch_s * 1e3,
            local_incremental_s * 1e3,
            local_scratch_s / local_incremental_s.max(1e-12),
            full_scratch_s * 1e3,
            full_incremental_s * 1e3,
            full_scratch_s / full_incremental_s.max(1e-12),
        );
    }

    let throughput_json = measure_throughput(&rules, workers);
    let hier_json = measure_hier(&rules, reps);

    for (bench, path, rows, extra) in [
        (
            "bipartize_scaling",
            "BENCH_bipartize_scaling.json",
            &legacy_rows,
            String::new(),
        ),
        (
            "detect_pipeline",
            "BENCH_detect_pipeline.json",
            &pipeline_rows,
            format!(",\n  \"throughput\": {throughput_json},\n  \"hier\": {hier_json}"),
        ),
    ] {
        let json = format!(
            "{{\n  \"bench\": \"{}\",\n  \"workers\": {},\n  \"reps\": {},\n  \"designs\": [\n{}\n  ]{}\n}}\n",
            bench,
            workers,
            reps,
            rows.join(",\n"),
            extra
        );
        std::fs::write(path, &json).expect("write bench JSON");
        println!("{json}");
        eprintln!("wrote {path}");
    }
}

/// Hierarchical detection: a 4×4 grid of one synthesized standard cell
/// in two placement orientations (upright and rotated-reflected),
/// instances isolated (farther apart than the interaction radius) so
/// each conflict-graph component is interior to one instance.
/// `detect_hier` must answer bit-identically to flattening first, reuse
/// the primed per-cell solves for every instance, and miss the solve
/// cache exactly zero times — a miss here means the coordinate-free
/// cache keys regressed. (The all-eight-orientations coverage lives in
/// `crates/core/tests/hier_equivalence.rs`; the bench keeps two classes
/// so the priming cost stays proportional to what the grid reuses.)
fn measure_hier(rules: &DesignRules, reps: usize) -> String {
    eprintln!("measuring hierarchical reuse ...");
    let leaf_layout = aapsm_layout::synth::generate(
        &SynthParams {
            rows: 1,
            gates_per_row: 120,
            strap_frac: 0.75,
            jog_frac: 0.08,
            short_mid_frac: 0.06,
            seed: 31,
            ..SynthParams::default()
        },
        rules,
    );
    let mut leaf = Cell::new("LEAF");
    leaf.rects = leaf_layout.rects().to_vec();
    let bbox = Layout::from_rects(leaf.rects.clone())
        .stats()
        .bbox
        .expect("leaf has rects");
    let pitch = bbox.width().max(bbox.height()) + 8 * rules.interaction_radius();
    let mut hier = HierLayout::new();
    let leaf_ix = hier.add_cell(leaf);
    let mut top = Cell::new("TOP");
    for r in 0..4usize {
        for c in 0..4usize {
            let orient = Orient::all()[((r * 4 + c) % 2) * 5];
            let obb = orient.try_apply_rect(&bbox).expect("oriented bbox fits");
            top.instances.push(Instance {
                cell: leaf_ix,
                placement: Placement::new(
                    orient,
                    c as i64 * pitch - obb.x_lo(),
                    r as i64 * pitch - obb.y_lo(),
                ),
            });
        }
    }
    let top_ix = hier.add_cell(top);
    hier.top = Some(top_ix);

    let flat = hier.flatten().expect("valid hierarchy");
    let cfg = DetectConfig {
        parallelism: 0,
        ..DetectConfig::default()
    };
    let (flat_s, flat_report) = time_best(reps, || {
        let geom = extract_phase_geometry_par(&flat, rules, 0);
        detect_conflicts(&geom, &cfg)
    });
    let (hier_s, hier_report) = time_best(reps, || {
        detect_hier(&hier, rules, &cfg).expect("valid hierarchy")
    });
    assert_eq!(
        hier_report.report.conflicts, flat_report.conflicts,
        "hierarchical detection diverged from the flattened pipeline"
    );
    let stats = hier_report.hier;
    assert!(
        stats.instances_reused > 0,
        "no per-cell solve reuse across {} instances: {stats:?}",
        stats.instances_total
    );
    assert_eq!(
        stats.solve_misses, 0,
        "isolated instances must all answer from the primed cache: {stats:?}"
    );
    eprintln!(
        "  flat {:.2} ms, hier {:.2} ms ({:.2}x): {} classes primed, {} of {} components reused",
        flat_s * 1e3,
        hier_s * 1e3,
        flat_s / hier_s.max(1e-12),
        stats.cells_detected,
        stats.instances_reused,
        stats.instances_reused + stats.solve_misses,
    );
    format!(
        concat!(
            "{{\"design\": \"cell_grid_4x4\", \"conflicts\": {}, ",
            "\"cells_detected\": {}, \"instances\": {}, \"instances_reused\": {}, ",
            "\"solve_misses\": {}, ",
            "\"flat_ms\": {:.3}, \"hier_ms\": {:.3}, \"speedup\": {:.3}, ",
            "\"identical\": true}}"
        ),
        flat_report.conflicts.len(),
        stats.cells_detected,
        stats.instances_total,
        stats.instances_reused,
        stats.solve_misses,
        flat_s * 1e3,
        hier_s * 1e3,
        flat_s / hier_s.max(1e-12),
    )
}

/// Service-layer throughput: concurrent editor sessions streaming warm
/// re-detections at the resident service, measured at the client
/// (submit → response). Every answer is asserted bit-identical to the
/// direct pipeline before any number is reported, and no degradation is
/// tolerated (no ladder, no deadline — this measures exact answers).
fn measure_throughput(rules: &DesignRules, workers: usize) -> String {
    const SESSIONS: usize = 8;
    const PER_SESSION: usize = 20;
    eprintln!("measuring service throughput ...");
    let suite = scaling_suite();
    let design = &suite[1]; // rows_x4: large enough to dominate overhead
    let layout = aapsm_layout::synth::generate(&design.params, rules);
    let baseline = {
        let geom = extract_phase_geometry(&layout, rules);
        detect_conflicts(&geom, &DetectConfig::default()).conflicts
    };

    let mut config = ServiceConfig::new(*rules);
    config.workers = 0; // one worker per CPU
    config.queue_capacity = SESSIONS * 2;
    config.ladder = LoadLadder::default();
    let service = DetectionService::start(config).expect("service start");
    let ids: Vec<_> = (0..SESSIONS)
        .map(|_| service.open_session(layout.clone()).expect("open session"))
        .collect();

    let t0 = Instant::now();
    // lint: allow(L3) — bench harness load generator; a worker panic must fail the whole run
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| {
                let service = &service;
                let baseline = &baseline;
                // lint: allow(L3) — bench harness load generator; a worker panic must fail the whole run
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(PER_SESSION);
                    for _ in 0..PER_SESSION {
                        let t = Instant::now();
                        let response = service.request(id, Request::Detect).expect("detect");
                        lat.push(t.elapsed().as_secs_f64());
                        assert!(!response.degraded(), "unloaded service degraded an answer");
                        match &response.kind {
                            ResponseKind::Detection { conflicts, .. } => {
                                assert_eq!(
                                    conflicts, baseline,
                                    "service answer diverged from the direct pipeline"
                                );
                            }
                            other => panic!("expected a detection, got {other:?}"),
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let report = service.shutdown(std::time::Duration::from_secs(60));
    assert!(report.within_deadline, "bench service failed to drain");

    latencies.sort_by(f64::total_cmp);
    let pct_ms =
        |p: f64| -> f64 { latencies[((latencies.len() - 1) as f64 * p).round() as usize] * 1e3 };
    let total = SESSIONS * PER_SESSION;
    let req_per_sec = total as f64 / wall.max(1e-12);
    eprintln!(
        "  {} requests over {} sessions: {:.0} req/s, p50 {:.2} ms, p99 {:.2} ms",
        total,
        SESSIONS,
        req_per_sec,
        pct_ms(0.50),
        pct_ms(0.99),
    );
    format!(
        concat!(
            "{{\"design\": \"{}\", \"sessions\": {}, \"requests\": {}, ",
            "\"workers\": {}, \"req_per_sec\": {:.1}, ",
            "\"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"identical\": true}}"
        ),
        design.name,
        SESSIONS,
        total,
        workers,
        req_per_sec,
        pct_ms(0.50),
        pct_ms(0.99),
    )
}
