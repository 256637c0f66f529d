//! Cross-crate integration tests: the full flow on fixtures and synthetic
//! designs, exercised through the public umbrella API.

use aapsm::core::{detect_conflicts, DetectConfig, FlowConfig, GraphKind};
use aapsm::gds::{read_gds, write_gds};
use aapsm::layout::{fixtures, synth};
use aapsm::prelude::*;

#[test]
fn every_conflicting_fixture_is_fixed_by_the_flow() {
    let rules = DesignRules::default();
    let layouts = [
        ("gate_over_strap", fixtures::gate_over_strap(&rules)),
        ("stacked_jog", fixtures::stacked_jog(&rules)),
        ("short_middle", fixtures::short_middle_wire(&rules)),
        ("bus", fixtures::strap_under_bus(7, &rules)),
    ];
    for (name, layout) in layouts {
        assert!(
            check_assignable(&extract_phase_geometry(&layout, &rules)).is_err(),
            "{name} should start unassignable"
        );
        let result = run_flow(&layout, &rules, &FlowConfig::default())
            .unwrap_or_else(|e| panic!("{name}: flow failed: {e}"));
        assert!(result.verified, "{name}: correction must verify");
        assert!(
            result.correction.area_increase_pct < 30.0,
            "{name}: area increase {:.1}% is excessive",
            result.correction.area_increase_pct
        );
    }
}

#[test]
fn synthetic_designs_roundtrip_through_gds_and_flow() {
    let rules = DesignRules::default();
    for seed in [3u64, 4, 5] {
        let layout = synth::generate(
            &synth::SynthParams {
                rows: 2,
                gates_per_row: 40,
                seed,
                ..Default::default()
            },
            &rules,
        );
        // GDSII round trip preserves the layout exactly.
        let back = read_gds(&write_gds(&layout, "TOP")).expect("gds roundtrip");
        assert_eq!(back, layout);
        // Flow fixes whatever conflicts exist.
        let result = run_flow(&layout, &rules, &FlowConfig::default()).expect("flow");
        assert!(result.verified, "seed {seed}");
    }
}

#[test]
fn detection_agrees_with_independent_oracle_on_random_designs() {
    // The layout is assignable iff detection finds zero conflicts — across
    // both graph reductions.
    let rules = DesignRules::default();
    for seed in 0..8u64 {
        let layout = synth::generate(
            &synth::SynthParams {
                rows: 2,
                gates_per_row: 25,
                strap_frac: 0.5,
                jog_frac: 0.08,
                seed,
                ..Default::default()
            },
            &rules,
        );
        let geom = extract_phase_geometry(&layout, &rules);
        let assignable = check_assignable(&geom).is_ok();
        for kind in [GraphKind::PhaseConflict, GraphKind::Feature] {
            let report = detect_conflicts(
                &geom,
                &DetectConfig {
                    graph: kind,
                    ..DetectConfig::default()
                },
            );
            assert_eq!(
                report.conflict_count() == 0,
                assignable,
                "seed {seed} {kind:?}"
            );
        }
    }
}

#[test]
fn flow_is_idempotent_on_corrected_layouts() {
    let rules = DesignRules::default();
    let layout = fixtures::strap_under_bus(5, &rules);
    let first = run_flow(&layout, &rules, &FlowConfig::default()).expect("first pass");
    assert!(first.verified);
    let second =
        run_flow(&first.correction.modified, &rules, &FlowConfig::default()).expect("second pass");
    assert_eq!(second.detection.conflict_count(), 0);
    assert_eq!(second.correction.modified, first.correction.modified);
}
