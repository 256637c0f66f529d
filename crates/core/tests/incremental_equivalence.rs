//! Property tests: a `RedetectEngine` session's re-detect after an edit
//! is **bit-identical** to from-scratch detection on the post-cut layout
//! — conflicts (kinds, weights, sources, order), geometry, and every
//! count in `DetectStats` — across `parallelism` 0/1/2/4,
//! planner-produced cuts, adversarial hand-made cuts (boundary-touching,
//! criticality-flipping), and multi-round correction loops. The session
//! derives an edited layout's extraction from the kept one when the cuts
//! allow it (`aapsm_layout::derive_cut_geometry`) and extracts it
//! otherwise; these pin that the derivation, the solve cache and the
//! kept state never change an answer, that planner cuts derive, and that
//! exactly the cuts that would widen a critical feature (or a negative
//! one) fall back to extraction. A derived round detects edit-locally
//! (only the conflict-graph components the cuts move re-run); the long
//! random sessions below pin that this, too, never changes an answer,
//! over many edits of mixed kinds on both graph kinds.

use aapsm_core::{
    build_conflict_graph, detect_conflicts, plan_correction, CorrectionOptions, DetectConfig,
    DetectReport, GraphKind, RedetectEngine,
};
use aapsm_geom::{Axis, Rect};
use aapsm_graph::crossing_pairs_par;
use aapsm_layout::synth::{generate, SynthParams};
use aapsm_layout::{
    apply_cuts, extract_phase_geometry, fixtures, DesignRules, Layout, PhaseGeometry, SpaceCut,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

#[path = "support/cuts.rs"]
mod cuts;
#[path = "support/legality.rs"]
mod legality;
use cuts::random_cuts;
use legality::illegal;

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
        let stats = engine.last_stats();
        assert!(!stats.extraction_fallback, "{context}: planner cuts derive");
        assert!(
            stats.rescanned_pairs > 0,
            "{context}: the cuts touch a pair"
        );
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

#[test]
fn a_width_splitting_cut_falls_back_to_extraction() {
    let rules = DesignRules::default();
    let layout = fixtures::wire_row(5, 600);
    let cut = |position| SpaceCut {
        axis: Axis::X,
        position,
        width: 40,
    };
    for parallelism in PARALLELISM {
        let config = DetectConfig {
            parallelism,
            ..DetectConfig::default()
        };
        let mut engine = RedetectEngine::new(rules, config.clone());
        engine.detect_full(&layout);
        // On a wire's edge: derived, the facing pair re-tested.
        let moved = apply_cuts(&layout, &[cut(700)]);
        let report = engine.redetect_after_correction(&moved, &[cut(700)]);
        let stats = *engine.last_stats();
        assert!(!stats.extraction_fallback, "parallelism {parallelism}");
        assert!(stats.rescanned_pairs > 0 && stats.reused_overlaps > 0);
        let scratch = detect_conflicts(&extract_phase_geometry(&moved, &rules), &config);
        assert_reports_match(&report, &scratch, "edge cut");
        // Inside a wire's width: the wire widens, and the round extracts.
        let widened = apply_cuts(&moved, &[cut(1250)]);
        let report = engine.redetect_after_correction(&widened, &[cut(1250)]);
        let stats = *engine.last_stats();
        assert!(stats.extraction_fallback, "parallelism {parallelism}");
        assert_eq!((stats.reused_overlaps, stats.rescanned_pairs), (0, 0));
        let scratch_geom = extract_phase_geometry(&widened, &rules);
        assert_eq!(engine.geometry(), Some(&scratch_geom));
        let scratch = detect_conflicts(&scratch_geom, &config);
        assert_reports_match(&report, &scratch, "splitting cut");
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
        prop_assert_eq!(
            engine.last_stats().extraction_fallback,
            illegal(&layout, &rules, &cuts)
        );
        let scratch_geom = extract_phase_geometry(&modified, &rules);
        prop_assert_eq!(engine.geometry(), Some(&scratch_geom));
        let scratch = detect_conflicts(&scratch_geom, &config);
        assert_reports_match(&report, &scratch, "arbitrary cuts");
    }
}

/// What the long random sessions covered, summed over every session.
#[derive(Debug, Default)]
struct Coverage {
    edits: usize,
    /// Rounds that reused some component, per graph kind (phase
    /// conflict, feature).
    local: [usize; 2],
    /// Edits of two or more cuts on both axes that detected edit-locally.
    multi_axis_local: usize,
    /// Edits whose geometry gained or lost an overlap pair.
    overlaps_created: usize,
    overlaps_removed: usize,
    /// Edits after a round that took the Theorem-1 shortcut, that found
    /// conflicts.
    shortcut_then_conflict: usize,
    /// Edits that extracted (a cut inside a critical width).
    extracted: usize,
}

/// The overlap pairs of a geometry.
fn overlap_pairs(geom: &PhaseGeometry) -> BTreeSet<(usize, usize)> {
    geom.overlaps.iter().map(|o| (o.a, o.b)).collect()
}

/// One random edit of `layout`, whose extraction is `geom` and whose
/// last report is `report`: the planner's cuts for one conflict or for
/// all, legal cuts at random positions, cuts on feature or shifter
/// edges, or one cut of each kind on each axis. Widths are 1 to 600 dbu.
fn random_edit(
    rng: &mut StdRng,
    layout: &Layout,
    geom: &PhaseGeometry,
    report: &DetectReport,
    rules: &DesignRules,
) -> Vec<SpaceCut> {
    let edge_cut = |rng: &mut StdRng, rect: Rect, axis: Axis| {
        let span = rect.span(axis);
        SpaceCut {
            axis,
            position: if rng.gen_bool(0.5) {
                span.lo()
            } else {
                span.hi()
            },
            width: rng.gen_range(1..=600),
        }
    };
    let axis_of = |rng: &mut StdRng| if rng.gen_bool(0.5) { Axis::X } else { Axis::Y };
    let feature_cut = |rng: &mut StdRng, axis: Axis| {
        let rect = layout.rects()[rng.gen_range(0..layout.len())];
        edge_cut(rng, rect, axis)
    };
    let shifter_cut = |rng: &mut StdRng, axis: Axis| match geom.shifters.len() {
        0 => feature_cut(rng, axis),
        n => {
            let rect = geom.shifters[rng.gen_range(0..n)].rect;
            edge_cut(rng, rect, axis)
        }
    };
    let planned =
        |conflicts| plan_correction(geom, conflicts, rules, &CorrectionOptions::default()).cuts;
    // Mostly edits that leave conflicts behind: a plan for all of them
    // converges the session, whose later rounds are then bipartite.
    match rng.gen_range(0..12) {
        0..=3 if report.conflict_count() > 0 => {
            let c = rng.gen_range(0..report.conflict_count());
            planned(&report.conflicts[c..=c])
        }
        4 if report.conflict_count() > 0 => planned(&report.conflicts),
        5 | 6 => {
            let count = rng.gen_range(1..=3);
            random_cuts(rng, layout, count)
        }
        7 | 8 => {
            let axis = axis_of(rng);
            vec![feature_cut(rng, axis)]
        }
        9 | 10 => {
            let axis = axis_of(rng);
            vec![shifter_cut(rng, axis)]
        }
        _ => {
            let mut cuts = vec![feature_cut(rng, Axis::X), shifter_cut(rng, Axis::Y)];
            cuts.extend(random_cuts(rng, layout, 1));
            cuts
        }
    }
}

/// One warm session of `edits` random edits of `layout` (after the
/// `script`ed first ones), every round checked against scratch
/// extraction and detection.
#[allow(clippy::too_many_arguments)]
fn edit_session(
    name: &str,
    layout: &Layout,
    script: &[Vec<SpaceCut>],
    graph: GraphKind,
    parallelism: usize,
    edits: usize,
    rng: &mut StdRng,
    coverage: &mut Coverage,
) {
    let rules = DesignRules::default();
    let config = DetectConfig {
        graph,
        parallelism,
        ..DetectConfig::default()
    };
    let mut engine = RedetectEngine::new(rules, config.clone());
    let mut report = engine.detect_full(layout);
    let mut current = layout.clone();
    for step in 0..script.len() + edits {
        let geom = engine.geometry().expect("detected").clone();
        let cuts = match script.get(step) {
            Some(cuts) => cuts.clone(),
            None => random_edit(rng, &current, &geom, &report, &rules),
        };
        if cuts.is_empty() {
            continue;
        }
        let context =
            format!("{name}, {graph:?}, parallelism {parallelism}, edit {step}: {cuts:?}");
        let modified = apply_cuts(&current, &cuts);
        let was_bipartite = report.stats.bipartite;
        report = engine.redetect_after_correction(&modified, &cuts);
        let stats = *engine.last_stats();
        let scratch_geom = extract_phase_geometry(&modified, &rules);
        assert_eq!(engine.geometry(), Some(&scratch_geom), "{context}");
        let scratch = detect_conflicts(&scratch_geom, &config);
        assert_reports_match(&report, &scratch, &context);

        coverage.edits += 1;
        let local = stats.components_reused > 0;
        coverage.local[usize::from(graph == GraphKind::Feature)] += usize::from(local);
        let axes = cuts
            .iter()
            .map(|c| c.axis == Axis::X)
            .collect::<BTreeSet<_>>();
        coverage.multi_axis_local += usize::from(local && axes.len() == 2);
        let (before, after) = (overlap_pairs(&geom), overlap_pairs(&scratch_geom));
        coverage.overlaps_created += usize::from(!after.is_subset(&before));
        coverage.overlaps_removed += usize::from(!before.is_subset(&after));
        coverage.shortcut_then_conflict += usize::from(was_bipartite && !report.stats.bipartite);
        coverage.extracted += usize::from(stats.extraction_fallback);
        current = modified;
    }
}

/// Long random edit sessions on a warm engine: every edit's report is
/// bit-identical to scratch detection of the edited layout, at
/// parallelism 0/1/2/4 and on both graph kinds. The edits mix the
/// planner's one-conflict and all-conflict cuts with multi-cut edits on
/// both axes and cuts on feature and shifter edges, which remove
/// overlaps, create them (a cut that unblocks a corridor) and extract
/// (a cut inside a critical width). One session starts from a bipartite
/// layout that a scripted cut makes conflict, one carries a plate 5·10⁸
/// dbu away. The tally pins that the sessions reach each of these.
#[test]
fn long_random_edit_sessions_match_scratch() {
    let rules = DesignRules::default();
    let synth = |seed, rows, gates| {
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
            &rules,
        )
    };
    let mut plated = synth(7, 2, 16);
    plated.extend([Rect::new(
        -1_000_000_000,
        -1_000_000_000,
        -500_000_000,
        -500_000_000,
    )]);
    // The latent corridor is bipartite until this cut unblocks it.
    let unblock = vec![vec![SpaceCut {
        axis: Axis::X,
        position: 950,
        width: 100,
    }]];
    let mut latent = fixtures::corridor_unblock_latent(&rules);
    latent.extend(
        fixtures::wire_row(6, 600)
            .rects()
            .iter()
            .map(|r| r.shift(0, 20_000)),
    );
    let sessions: [(&str, Layout, &[Vec<SpaceCut>]); 5] = [
        ("synth", synth(36, 2, 20), &[]),
        ("plated synth", plated, &[]),
        (
            "two-round corridor",
            fixtures::corridor_unblock_two_round(&rules),
            &[],
        ),
        ("bus", fixtures::strap_under_bus(6, &rules), &[]),
        ("latent corridor", latent, &unblock),
    ];
    let mut rng = StdRng::seed_from_u64(36);
    let mut coverage = Coverage::default();
    for (name, layout, script) in &sessions {
        for graph in [GraphKind::PhaseConflict, GraphKind::Feature] {
            for parallelism in PARALLELISM {
                edit_session(
                    name,
                    layout,
                    script,
                    graph,
                    parallelism,
                    8,
                    &mut rng,
                    &mut coverage,
                );
            }
        }
    }
    let c = &coverage;
    assert!(
        c.local[0] >= 20
            && c.local[1] >= 20
            && c.multi_axis_local > 0
            && c.overlaps_created > 0
            && c.overlaps_removed > 0
            && c.shortcut_then_conflict >= 8
            && c.extracted > 0,
        "{c:?}"
    );
}
