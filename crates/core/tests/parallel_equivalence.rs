//! Property tests: every parallel path of the detection pipeline is
//! bit-identical to its serial counterpart — same bytes, not merely the
//! same weight — across random synthetic layouts and `parallelism`
//! ∈ {1, 2, 4, 8} (plus `0` = auto):
//!
//! * the sharded crossing sweep (`crossing_pairs_par`),
//! * the sharded merge-constraint scan (`extract_phase_geometry_par`),
//! * the crossing sweep feeding planarization (`planarize`),
//! * the per-component face trace (`component_embeddings_budgeted`),
//!   against the serial `trace_faces` restricted to each component,
//! * the decompose-then-solve bipartization (`bipartize`), both
//!   decomposition modes and every T-join engine,
//! * and the end-to-end `detect_conflicts` report.

use aapsm_core::{
    bipartize, build_conflict_graph, detect_conflicts, BipartizeMethod, DetectConfig, GadgetKind,
    GraphKind, TJoinMethod,
};
use aapsm_fault::Budget;
use aapsm_graph::{
    build_dual, component_embeddings_budgeted, connected_components, crossing_pairs_par, planarize,
    trace_faces, EmbeddedGraph, PlanarizeOrder,
};
use aapsm_layout::synth::{generate, SynthParams};
use aapsm_layout::{extract_phase_geometry, extract_phase_geometry_par, DesignRules, Layout};
use proptest::prelude::*;

#[path = "../../graph/tests/support/component_trace.rs"]
mod component_trace;

const DEGREES: [usize; 4] = [0, 2, 4, 8];

/// A random conflict-rich synthetic layout.
fn synth_layout() -> impl Strategy<Value = Layout> {
    (0u64..1_000_000, 1usize..=3, 10usize..=30).prop_map(|(seed, rows, gates)| {
        generate(
            &SynthParams {
                rows,
                gates_per_row: gates,
                strap_frac: 0.7,
                jog_frac: 0.08,
                short_mid_frac: 0.06,
                seed,
                ..SynthParams::default()
            },
            &DesignRules::default(),
        )
    })
}

/// A planarized phase conflict graph from a seeded synthetic layout.
fn planarized_pcg() -> impl Strategy<Value = EmbeddedGraph> {
    synth_layout().prop_map(|layout| {
        let rules = DesignRules::default();
        let geom = extract_phase_geometry(&layout, &rules);
        let mut cg = build_conflict_graph(&geom, GraphKind::PhaseConflict);
        planarize(&mut cg.graph, PlanarizeOrder::MinWeightFirst, 1);
        cg.graph
    })
}

fn methods() -> Vec<TJoinMethod> {
    vec![
        TJoinMethod::Gadget(GadgetKind::Complete),
        TJoinMethod::Gadget(GadgetKind::Optimized),
        TJoinMethod::Gadget(GadgetKind::Generalized { max_group: 8 }),
        TJoinMethod::ShortestPath,
    ]
}

/// The per-component face trace and the duals read off it are the serial
/// trace and dual restricted to each component, at every parallelism
/// degree, on fixture-derived planarized phase conflict graphs — the
/// production graph shapes, complementing the adversarial synthetic
/// graphs of `crates/graph/tests/proptest_graph.rs` and `embed.rs`.
#[test]
fn face_dual_parallel_matches_serial_on_fixtures() {
    use aapsm_layout::fixtures;
    let rules = DesignRules::default();
    for (name, layout) in [
        ("gate_over_strap", fixtures::gate_over_strap(&rules)),
        ("stacked_jog", fixtures::stacked_jog(&rules)),
        ("strap_under_bus", fixtures::strap_under_bus(6, &rules)),
        ("short_middle_wire", fixtures::short_middle_wire(&rules)),
        ("wire_row", fixtures::wire_row(8, 600)),
    ] {
        let geom = extract_phase_geometry(&layout, &rules);
        for kind in [GraphKind::PhaseConflict, GraphKind::Feature] {
            let mut cg = build_conflict_graph(&geom, kind);
            planarize(&mut cg.graph, PlanarizeOrder::MinWeightFirst, 1);
            let label = format!("{name}/{kind:?}");
            component_trace::assert_component_traces_restrict_serial(&cg.graph, &label);
            component_trace::assert_component_duals_restrict_serial(&cg.graph, &label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serial (1), bounded (4) and auto (0) parallelism agree exactly.
    #[test]
    fn parallel_matches_serial(g in planarized_pcg()) {
        for tjoin in methods() {
            let method = BipartizeMethod::OptimalDual { tjoin };
            let serial = bipartize(&g, method, 1);
            for parallelism in [0usize, 2, 4] {
                let par = bipartize(&g, method, parallelism);
                prop_assert_eq!(
                    &serial.deleted,
                    &par.deleted,
                    "deleted sets diverge: tjoin={:?} parallelism={}",
                    tjoin,
                    parallelism
                );
                prop_assert_eq!(serial.weight, par.weight);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The sharded merge-constraint scan of phase-geometry extraction is
    /// bit-identical to serial at every parallelism degree.
    #[test]
    fn parallel_extraction_matches_serial(layout in synth_layout()) {
        let rules = DesignRules::default();
        let serial = extract_phase_geometry(&layout, &rules);
        for parallelism in DEGREES {
            let par = extract_phase_geometry_par(&layout, &rules, parallelism);
            prop_assert_eq!(&par, &serial, "parallelism {}", parallelism);
        }
    }

    /// The sharded crossing sweep is bit-identical to serial on both
    /// conflict-graph reductions, and so is the planarization built on it.
    #[test]
    fn parallel_crossing_sweep_matches_serial(layout in synth_layout()) {
        let rules = DesignRules::default();
        let geom = extract_phase_geometry(&layout, &rules);
        for kind in [GraphKind::PhaseConflict, GraphKind::Feature] {
            let cg = build_conflict_graph(&geom, kind);
            let serial = crossing_pairs_par(&cg.graph, 1);
            for parallelism in DEGREES {
                prop_assert_eq!(
                    &crossing_pairs_par(&cg.graph, parallelism),
                    &serial,
                    "{:?} parallelism {}",
                    kind,
                    parallelism
                );
            }
            let mut serial_cg = cg.clone();
            let serial_removed = planarize(&mut serial_cg.graph, PlanarizeOrder::MinWeightFirst, 1).removed;
            for parallelism in DEGREES {
                let mut par_cg = cg.clone();
                let par_removed =
                    planarize(&mut par_cg.graph, PlanarizeOrder::MinWeightFirst, parallelism).removed;
                prop_assert_eq!(&par_removed, &serial_removed);
                prop_assert_eq!(&par_cg, &serial_cg);
            }
        }
    }

    /// End to end: the full detection report is identical at every
    /// parallelism degree (conflicts, sources, weights and counts).
    #[test]
    fn parallel_detection_matches_serial(layout in synth_layout()) {
        let rules = DesignRules::default();
        let serial_geom = extract_phase_geometry(&layout, &rules);
        let serial = detect_conflicts(&serial_geom, &DetectConfig::default());
        for parallelism in DEGREES {
            let geom = extract_phase_geometry_par(&layout, &rules, parallelism);
            prop_assert_eq!(&geom, &serial_geom);
            let report = detect_conflicts(
                &geom,
                &DetectConfig {
                    parallelism,
                    ..DetectConfig::default()
                },
            );
            prop_assert_eq!(&report.conflicts, &serial.conflicts, "parallelism {}", parallelism);
        }
    }
}
