//! Property tests: a `RedetectEngine` session's re-detect after an edit
//! is **bit-identical** to from-scratch detection on the post-cut layout
//! — conflicts (kinds, weights, sources, order), geometry, and every
//! count in `DetectStats` — across `parallelism` 0/1/2/4,
//! planner-produced cuts, adversarial hand-made cuts (boundary-touching,
//! criticality-flipping), and multi-round correction loops. The session
//! detects every edited layout from scratch through its solve cache, so
//! these pin that the cache and the kept state never change an answer.
//! (The file name dates from an incremental re-extraction the engine no
//! longer has.)

use aapsm_core::{
    build_conflict_graph, detect_conflicts, plan_correction, CorrectionOptions, DetectConfig,
    DetectReport, GraphKind, RedetectEngine,
};
use aapsm_geom::{Axis, Rect};
use aapsm_graph::crossing_pairs_par;
use aapsm_layout::synth::{generate, SynthParams};
use aapsm_layout::{apply_cuts, extract_phase_geometry, fixtures, DesignRules, Layout, SpaceCut};
use proptest::prelude::*;

const PARALLELISM: [usize; 4] = [0, 1, 2, 4];

fn assert_reports_match(a: &DetectReport, b: &DetectReport, context: &str) {
    assert_eq!(a.conflicts, b.conflicts, "{context}: conflict sets differ");
    assert_eq!(a.stats.graph_nodes, b.stats.graph_nodes, "{context}");
    assert_eq!(a.stats.graph_edges, b.stats.graph_edges, "{context}");
    assert_eq!(a.stats.crossings, b.stats.crossings, "{context}");
    assert_eq!(
        a.stats.planarize_removed, b.stats.planarize_removed,
        "{context}"
    );
    assert_eq!(
        a.stats.bipartize_conflicts, b.stats.bipartize_conflicts,
        "{context}"
    );
    assert_eq!(
        a.stats.recheck_conflicts, b.stats.recheck_conflicts,
        "{context}"
    );
    assert_eq!(a.stats.bipartite, b.stats.bipartite, "{context}");
}

/// Drives the planner-fed detect→correct→re-detect loop for one
/// configuration, checking every round against scratch detection.
fn check_correction_loop(layout: &Layout, parallelism: usize) -> usize {
    let rules = DesignRules::default();
    let config = DetectConfig {
        parallelism,
        ..DetectConfig::default()
    };
    let mut engine = RedetectEngine::new(rules, config.clone());
    let mut report = engine.detect_full(layout);
    {
        let scratch_geom = extract_phase_geometry(layout, &rules);
        let scratch = detect_conflicts(&scratch_geom, &config);
        assert_reports_match(
            &report,
            &scratch,
            &format!("round 0, parallelism {parallelism}"),
        );
    }
    let mut current = layout.clone();
    let mut rounds = 0usize;
    for round in 1..=4 {
        if report.conflict_count() == 0 {
            break;
        }
        let plan = plan_correction(
            engine.geometry().expect("detected"),
            &report.conflicts,
            &rules,
            &CorrectionOptions::default(),
        );
        if plan.cuts.is_empty() {
            break; // uncorrectable leftovers; nothing to re-detect
        }
        let modified = apply_cuts(&current, &plan.cuts);
        report = engine.redetect_after_correction(&modified, &plan.cuts);
        let context = format!("round {round}, parallelism {parallelism}");
        let scratch_geom = extract_phase_geometry(&modified, &rules);
        assert_eq!(
            engine.geometry(),
            Some(&scratch_geom),
            "{context}: geometry diverged"
        );
        let scratch = detect_conflicts(&scratch_geom, &config);
        assert_reports_match(&report, &scratch, &context);
        current = modified;
        rounds = round;
    }
    rounds
}

#[test]
fn fixture_suite_is_bit_identical_across_parallelism_and_tiles() {
    let rules = DesignRules::default();
    let layouts = [
        ("gate_over_strap", fixtures::gate_over_strap(&rules)),
        ("stacked_jog", fixtures::stacked_jog(&rules)),
        ("short_middle", fixtures::short_middle_wire(&rules)),
        ("bus", fixtures::strap_under_bus(6, &rules)),
        ("two_round", fixtures::corridor_unblock_two_round(&rules)),
        ("clean_row", fixtures::wire_row(5, 600)),
    ];
    for (name, layout) in &layouts {
        let mut corrected_any = false;
        for parallelism in PARALLELISM {
            corrected_any |= check_correction_loop(layout, parallelism) > 0;
        }
        // Every conflicting fixture must actually exercise a re-detect.
        if *name != "clean_row" {
            assert!(corrected_any, "{name} never reached a correction round");
        }
    }
}

#[test]
fn multi_round_loop_stays_identical_each_round() {
    // The two-round fixture needs a second correction; both re-detect
    // rounds must match scratch (checked inside the loop driver).
    let rules = DesignRules::default();
    let layout = fixtures::corridor_unblock_two_round(&rules);
    for parallelism in PARALLELISM {
        let rounds = check_correction_loop(&layout, parallelism);
        assert!(rounds >= 2, "expected ≥ 2 correction rounds, got {rounds}");
    }
}

#[test]
fn feature_graph_kind_redetects_via_full_path() {
    let rules = DesignRules::default();
    let config = DetectConfig {
        graph: GraphKind::Feature,
        ..DetectConfig::default()
    };
    let layout = fixtures::strap_under_bus(4, &rules);
    let mut engine = RedetectEngine::new(rules, config.clone());
    let report = engine.detect_full(&layout);
    let plan = plan_correction(
        engine.geometry().unwrap(),
        &report.conflicts,
        &rules,
        &CorrectionOptions::default(),
    );
    let modified = apply_cuts(&layout, &plan.cuts);
    let redetected = engine.redetect_after_correction(&modified, &plan.cuts);
    let scratch = detect_conflicts(&extract_phase_geometry(&modified, &rules), &config);
    assert_reports_match(&redetected, &scratch, "feature-graph fallback");
}

#[test]
fn shortcut_round_then_conflict_creating_cut_resweeps() {
    // Round 0 is bipartite and takes the Theorem-1 shortcut, so it
    // never sweeps. The cut then unblocks the latent corridor and
    // creates a conflict, so round 1 must sweep in full: the blocks
    // beside it have crossings that no cut touches. The round after it
    // converges.
    let rules = DesignRules::default();
    // Each block: a strap whose top shifter merges with the left shifter
    // of a tall wire, along a diagonal that crosses the flank edge of a
    // short wire in between. A tree, so bipartite, with one crossing.
    let block = Layout::from_rects(
        (0..4)
            .flat_map(|i| {
                [
                    Rect::new(0, 0, 4000, 100),
                    Rect::new(4400, 400, 4500, 3400),
                    Rect::new(3600, 1000, 3700, 1700),
                ]
                .map(|r| r.shift(6000 * i, 0))
            })
            .collect(),
    );
    let bbox = block.bbox().expect("non-empty block");
    // Above and right of the block, so neither correction line crosses it.
    let (dx, dy) = (bbox.x_hi() + 5000, bbox.y_hi() + 5000);
    let mut rects = block.rects().to_vec();
    rects.extend(
        fixtures::corridor_unblock_latent(&rules)
            .rects()
            .iter()
            .map(|r| r.shift(dx, dy)),
    );
    let layout = Layout::from_rects(rects);
    let block_graph = build_conflict_graph(
        &extract_phase_geometry(&block, &rules),
        GraphKind::PhaseConflict,
    );
    assert!(!crossing_pairs_par(&block_graph.graph, 1).is_planar());
    let cuts = [SpaceCut {
        axis: Axis::X,
        position: dx + 950,
        width: 100,
    }];
    let modified = apply_cuts(&layout, &cuts);
    for parallelism in PARALLELISM {
        let context = format!("parallelism {parallelism}");
        let config = DetectConfig {
            parallelism,
            ..DetectConfig::default()
        };
        let mut engine = RedetectEngine::new(rules, config.clone());
        let first = engine.detect_full(&layout);
        assert!(first.stats.bipartite, "{context}: round 0 is bipartite");
        assert_eq!(first.conflict_count(), 0, "{context}");

        let report = engine.redetect_after_correction(&modified, &cuts);
        assert!(
            !report.stats.bipartite && report.conflict_count() > 0,
            "{context}: the cut must create a conflict"
        );
        let scratch = detect_conflicts(&extract_phase_geometry(&modified, &rules), &config);
        assert_reports_match(&report, &scratch, &format!("{context}, round 1"));

        let plan = plan_correction(
            engine.geometry().expect("detected"),
            &report.conflicts,
            &rules,
            &CorrectionOptions::default(),
        );
        let corrected = apply_cuts(&modified, &plan.cuts);
        let last = engine.redetect_after_correction(&corrected, &plan.cuts);
        assert!(last.stats.bipartite, "{context}: round 2 converges");
        let scratch = detect_conflicts(&extract_phase_geometry(&corrected, &rules), &config);
        assert_reports_match(&last, &scratch, &format!("{context}, round 2"));
    }
}

/// A random conflict-rich synthetic layout.
fn synth_layout() -> impl Strategy<Value = Layout> {
    (0u64..1_000_000, 1usize..=2, 10usize..=25).prop_map(|(seed, rows, gates)| {
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

/// An arbitrary cut batch over a layout's bounding box — including
/// boundary-touching positions and cuts through feature interiors.
fn arbitrary_cuts(layout: &Layout) -> impl Strategy<Value = Vec<SpaceCut>> {
    let bbox = layout.bbox().expect("non-empty synth layout");
    let (x_lo, x_hi) = (bbox.x_lo(), bbox.x_hi());
    let (y_lo, y_hi) = (bbox.y_lo(), bbox.y_hi());
    proptest::collection::vec(
        (any::<bool>(), 0i64..=1000, 1i64..=400).prop_map(move |(is_x, frac, width)| {
            let (lo, hi) = if is_x { (x_lo, x_hi) } else { (y_lo, y_hi) };
            SpaceCut {
                axis: if is_x { Axis::X } else { Axis::Y },
                position: lo + (hi - lo) * frac / 1000,
                width,
            }
        }),
        1..=3,
    )
    .prop_filter("distinct positions per axis", |cuts| {
        for (i, a) in cuts.iter().enumerate() {
            for b in &cuts[i + 1..] {
                if a.axis == b.axis && a.position == b.position {
                    return false;
                }
            }
        }
        true
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Planner-produced cuts: the full correction loop on random layouts
    /// is bit-identical to scratch at every round and parallelism
    /// degree.
    #[test]
    fn synthetic_correction_loops_match_scratch(layout in synth_layout()) {
        for parallelism in PARALLELISM {
            check_correction_loop(&layout, parallelism);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Adversarial cuts (not from the planner, any position including
    /// feature interiors and edge-touching lines): re-detection still
    /// matches scratch.
    #[test]
    fn arbitrary_cuts_match_scratch(
        (layout, cuts) in synth_layout().prop_flat_map(|l| {
            let cuts = arbitrary_cuts(&l);
            (Just(l), cuts)
        })
    ) {
        let rules = DesignRules::default();
        let config = DetectConfig::default();
        let mut engine = RedetectEngine::new(rules, config.clone());
        engine.detect_full(&layout);
        let modified = apply_cuts(&layout, &cuts);
        let report = engine.redetect_after_correction(&modified, &cuts);
        let scratch_geom = extract_phase_geometry(&modified, &rules);
        prop_assert_eq!(engine.geometry(), Some(&scratch_geom));
        let scratch = detect_conflicts(&scratch_geom, &config);
        assert_reports_match(&report, &scratch, "arbitrary cuts");
    }
}
