//! The corrected layout's extraction, derived from the pre-cut one by
//! [`derive_cut_geometry`], against extracting the corrected layout: the
//! geometry and the scan record must be equal, bit for bit, wherever the
//! derivation answers, and it must answer `None` exactly where a cut has
//! a negative width or lies strictly inside a critical feature's width
//! span. Inputs:
//!
//! * every standard (through d6), scaling and modification suite design
//!   under its round-1 plan;
//! * seeded random legal cut sets on synthetic layouts (the plan plus
//!   random cuts, the plan narrowed, random cuts alone);
//! * every one-cut edit the `service_eco` benchmark's script recipe
//!   plans on `rows_x4`, and a run of them applied one after another,
//!   each derived from the last derivation (and detected edit-locally by
//!   warm `RedetectEngine`s at parallelism 0/1/2/4, against scratch
//!   detection);
//! * cuts exactly on feature and shifter edges, legal or not;
//! * both corridor-unblock fixtures, where a blocked pair merges;
//! * two derivations chained, cuts beside every shifter hull, no cuts,
//!   and negative cuts.

use aapsm_core::{
    detect_conflicts, plan_correction, Conflict, CorrectionOptions, CorrectionPlan, DetectConfig,
    RedetectEngine,
};
use aapsm_geom::Axis;
use aapsm_layout::synth::{self, BenchDesign, SynthParams};
use aapsm_layout::{
    apply_cuts, derive_cut_geometry, extract_phase_geometry_recorded, fixtures, CutDerivation,
    DesignRules, Layout, PhaseGeometry, ScanRecord, SpaceCut,
};
use rand::{Rng, SeedableRng};

#[path = "support/cuts.rs"]
mod cuts;
#[path = "support/legality.rs"]
mod legality;
use cuts::random_cuts;
use legality::illegal;

/// A layout's extraction with its scan record.
type Extraction = (PhaseGeometry, ScanRecord);

fn extract(layout: &Layout, rules: &DesignRules) -> Extraction {
    extract_phase_geometry_recorded(layout, rules, 1)
}

/// Round 1 of the flow on `layout`: its extraction, conflicts and plan.
fn round_one(layout: &Layout, rules: &DesignRules) -> (Extraction, Vec<Conflict>, CorrectionPlan) {
    let pre = extract(layout, rules);
    let conflicts = detect_conflicts(&pre.0, &DetectConfig::default()).conflicts;
    let plan = plan_correction(&pre.0, &conflicts, rules, &CorrectionOptions::default());
    (pre, conflicts, plan)
}

/// Derives `cuts` on `layout` from `pre`, its extraction, and checks the
/// result against extracting the cut layout: equal where it answers, and
/// `None` exactly where [`illegal`] says so.
fn check(
    layout: &Layout,
    pre: &Extraction,
    rules: &DesignRules,
    cuts: &[SpaceCut],
    context: &str,
) -> Option<CutDerivation> {
    let derived = derive_cut_geometry(&pre.0, &pre.1, rules, cuts);
    assert_eq!(
        derived.is_none(),
        illegal(layout, rules, cuts),
        "{context}: cuts {cuts:?}"
    );
    let derived = derived?;
    let post = extract(&apply_cuts(layout, cuts), rules);
    assert_eq!(derived.geometry, post.0, "{context}: cuts {cuts:?}");
    assert!(
        derived.record == post.1,
        "{context}: the scan records differ; cuts {cuts:?}"
    );
    Some(derived)
}

/// Every design's round-1 plan derives, and re-tests some pairs.
fn derive_suite(designs: &[BenchDesign]) {
    let rules = DesignRules::default();
    for d in designs {
        let layout = synth::generate(&d.params, &rules);
        let (pre, _, plan) = round_one(&layout, &rules);
        assert!(!plan.cuts.is_empty(), "{}", d.name);
        let derived = check(&layout, &pre, &rules, &plan.cuts, d.name)
            .unwrap_or_else(|| panic!("{}: the plan must derive", d.name));
        assert!(derived.retested_pairs > 0, "{}", d.name);
    }
}

#[test]
fn the_standard_suite_derives_through_d6() {
    derive_suite(&synth::standard_suite()[..6]);
}

#[test]
fn the_scaling_suite_derives() {
    derive_suite(&synth::scaling_suite());
}

#[test]
fn the_modification_suite_derives() {
    derive_suite(&synth::modification_suite());
}

/// Seeded random legal cut sets on random synthetic layouts, the cut
/// sets `certified_round.rs` certifies.
#[test]
fn random_legal_cut_sets_derive() {
    let rules = DesignRules::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(35);
    let mut retested = 0;
    for case in 0..36 {
        let layout = synth::generate(
            &SynthParams {
                rows: rng.gen_range(1..=3),
                gates_per_row: rng.gen_range(10..=30),
                strap_frac: 0.7,
                jog_frac: 0.08,
                short_mid_frac: 0.06,
                seed: rng.gen_range(0..1_000_000),
                ..SynthParams::default()
            },
            &rules,
        );
        let (pre, _, plan) = round_one(&layout, &rules);
        let cuts = match case % 3 {
            0 => {
                let mut cuts = plan.cuts.clone();
                let extra = rng.gen_range(1..=8);
                cuts.extend(random_cuts(&mut rng, &layout, extra));
                cuts
            }
            1 => {
                let mut cuts = plan.cuts.clone();
                for cut in cuts.iter_mut() {
                    if rng.gen_bool(0.3) {
                        cut.width = rng.gen_range(1..=cut.width);
                    }
                }
                cuts
            }
            _ => {
                let count = rng.gen_range(1..=40);
                random_cuts(&mut rng, &layout, count)
            }
        };
        let context = format!("case {case}");
        let derived = check(&layout, &pre, &rules, &cuts, &context);
        retested += derived
            .unwrap_or_else(|| panic!("{context}: legal cuts must derive"))
            .retested_pairs;
    }
    assert!(retested > 0);
}

/// The `service_eco` script recipe on `rows_x4`: the one-cut plan of
/// each single conflict, derived on the original layout; then the
/// recipe's order (per axis by descending position, axes alternating)
/// applied edit after edit, each derived from the previous derivation.
#[test]
fn every_one_cut_eco_edit_derives() {
    let rules = DesignRules::default();
    let design = synth::scaling_suite()
        .into_iter()
        .find(|d| d.name == "rows_x4")
        .expect("rows_x4 is in the scaling suite");
    let layout = synth::generate(&design.params, &rules);
    let (pre, conflicts, _) = round_one(&layout, &rules);
    let mut by_axis: [Vec<SpaceCut>; 2] = [Vec::new(), Vec::new()];
    for c in 0..conflicts.len() {
        let plan = plan_correction(
            &pre.0,
            &conflicts[c..=c],
            &rules,
            &CorrectionOptions::default(),
        );
        let [cut] = plan.cuts.as_slice() else {
            continue;
        };
        let context = format!("conflict {c}");
        let derived = check(&layout, &pre, &rules, &[*cut], &context)
            .unwrap_or_else(|| panic!("{context}: a planned cut must derive"));
        assert!(derived.retested_pairs > 0, "{context}");
        assert!(derived.kept_pairs > derived.retested_pairs, "{context}");
        let axis = usize::from(cut.axis == Axis::Y);
        if by_axis[axis].iter().all(|o| o.position != cut.position) {
            by_axis[axis].push(*cut);
        }
    }
    assert!(by_axis.iter().all(|cuts| cuts.len() >= 4), "{by_axis:?}");
    for cuts in &mut by_axis {
        cuts.sort_by_key(|c| std::cmp::Reverse(c.position));
    }
    let [xs, ys] = by_axis;
    let script = xs.iter().zip(&ys).flat_map(|(x, y)| [*x, *y]).take(12);
    // Warm engines run the same edits: each detects edit-locally, reusing
    // components, and equals scratch detection of the derived geometry.
    let mut engines: Vec<RedetectEngine> = [0, 1, 2, 4]
        .into_iter()
        .map(|parallelism| {
            let config = DetectConfig {
                parallelism,
                ..DetectConfig::default()
            };
            let mut engine = RedetectEngine::new(rules, config);
            engine.detect_full(&layout);
            engine
        })
        .collect();
    let (mut current, mut extraction) = (layout, pre);
    for (step, cut) in script.enumerate() {
        let context = format!("step {step}");
        let derived = check(&current, &extraction, &rules, &[cut], &context)
            .unwrap_or_else(|| panic!("{context}: a planned cut must derive"));
        current = apply_cuts(&current, &[cut]);
        let scratch = detect_conflicts(&derived.geometry, &DetectConfig::default());
        for engine in &mut engines {
            let report = engine.redetect_after_correction(&current, &[cut]);
            let stats = engine.last_stats();
            assert!(stats.components_reused > 0, "{context}: {stats:?}");
            assert_eq!(report.conflicts, scratch.conflicts, "{context}");
            let counts = |s: &aapsm_core::DetectStats| {
                (
                    (s.graph_nodes, s.graph_edges, s.crossings),
                    (s.planarize_removed, s.bipartize_conflicts),
                    (s.recheck_conflicts, s.bipartite),
                )
            };
            assert_eq!(counts(&report.stats), counts(&scratch.stats), "{context}");
        }
        extraction = (derived.geometry, derived.record);
    }
}

/// Cut sets whose positions are exactly feature or shifter edges, some
/// with one more cut just inside a critical width span: legal ones
/// derive, and the others are declined.
#[test]
fn cuts_on_feature_and_shifter_edges() {
    let rules = DesignRules::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let (mut derived, mut declined) = (0, 0);
    for case in 0..24 {
        let layout = synth::generate(
            &SynthParams {
                rows: 1,
                gates_per_row: rng.gen_range(10..=25),
                strap_frac: 0.7,
                jog_frac: 0.08,
                short_mid_frac: 0.06,
                seed: rng.gen_range(0..1_000_000),
                ..SynthParams::default()
            },
            &rules,
        );
        let pre = extract(&layout, &rules);
        let count = rng.gen_range(1..=4);
        let mut cuts: Vec<SpaceCut> = (0..count)
            .map(|_| {
                let rect = if rng.gen_bool(0.5) {
                    pre.0.features[rng.gen_range(0..pre.0.features.len())].rect
                } else {
                    pre.0.shifters[rng.gen_range(0..pre.0.shifters.len())].rect
                };
                let axis = if rng.gen_bool(0.5) { Axis::X } else { Axis::Y };
                let span = rect.span(axis);
                SpaceCut {
                    axis,
                    position: if rng.gen_bool(0.5) {
                        span.lo()
                    } else {
                        span.hi()
                    },
                    width: rng.gen_range(1..=400),
                }
            })
            .collect();
        if case % 4 == 0 {
            // One position strictly inside a critical feature's width.
            let f = pre
                .0
                .features
                .iter()
                .find(|f| f.critical)
                .expect("critical");
            let axis = if f.rect.height() >= f.rect.width() {
                Axis::X
            } else {
                Axis::Y
            };
            let span = f.rect.span(axis);
            cuts.push(SpaceCut {
                axis,
                position: span.lo() + 1,
                width: 50,
            });
        }
        match check(&layout, &pre, &rules, &cuts, &format!("case {case}")) {
            Some(_) => derived += 1,
            None => declined += 1,
        }
    }
    assert!(
        derived >= 4 && declined >= 4,
        "{derived} derived, {declined} declined"
    );
}

/// The corridor-unblock fixtures: the two-round fixture's plan opens a
/// blocked corridor, so a blocked pair becomes an overlap; the same cut
/// does it to the latent half alone.
#[test]
fn both_corridor_unblock_fixtures_derive() {
    let rules = DesignRules::default();
    let two_round = fixtures::corridor_unblock_two_round(&rules);
    let (pre, _, plan) = round_one(&two_round, &rules);
    let latent = fixtures::corridor_unblock_latent(&rules);
    let merges = |layout: &Layout, pre: &Extraction, name: &str| {
        let derived = check(layout, pre, &rules, &plan.cuts, name)
            .unwrap_or_else(|| panic!("{name}: the plan must derive"));
        let was_overlap = |a, b| pre.0.overlaps.iter().any(|o| (o.a, o.b) == (a, b));
        let mut merged = derived.geometry.overlaps.iter();
        assert!(
            merged.any(|o| !was_overlap(o.a, o.b)),
            "{name}: no blocked pair merged"
        );
        derived
    };
    merges(&latent, &extract(&latent, &rules), "latent");
    let derived = merges(&two_round, &pre, "two-round");
    // Round 2 of the two-round fixture, derived from the derivation.
    let report = detect_conflicts(&derived.geometry, &DetectConfig::default());
    let second = plan_correction(
        &derived.geometry,
        &report.conflicts,
        &rules,
        &CorrectionOptions::default(),
    );
    assert!(!second.cuts.is_empty());
    let corrected = apply_cuts(&two_round, &plan.cuts);
    let again = (derived.geometry, derived.record);
    check(&corrected, &again, &rules, &second.cuts, "round 2").expect("derives");
}

/// A cut beside every shifter hull, and no cut at all, re-test nothing.
#[test]
fn cuts_beside_every_hull_re_test_nothing() {
    let rules = DesignRules::default();
    let layout = fixtures::corridor_unblock_latent(&rules);
    let pre = extract(&layout, &rules);
    let far = SpaceCut {
        axis: Axis::X,
        position: 50_000,
        width: 100,
    };
    for cuts in [vec![far], vec![]] {
        let derived = check(&layout, &pre, &rules, &cuts, "far").expect("legal cuts derive");
        assert_eq!(derived.retested_pairs, 0, "{cuts:?}");
        assert!(derived.kept_pairs > 0, "{cuts:?}");
    }
}

/// Two derivations chained: the second runs on the first's geometry and
/// record, and equals extracting the twice-cut layout.
#[test]
fn two_derivations_chain() {
    let rules = DesignRules::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    for case in 0..8 {
        let layout = synth::generate(
            &SynthParams {
                rows: 2,
                gates_per_row: 20,
                seed: rng.gen_range(0..1_000_000),
                ..SynthParams::default()
            },
            &rules,
        );
        let pre = extract(&layout, &rules);
        let first = random_cuts(&mut rng, &layout, 3);
        let context = format!("case {case}");
        let once = check(&layout, &pre, &rules, &first, &context).expect("legal cuts derive");
        let cut = apply_cuts(&layout, &first);
        let second = random_cuts(&mut rng, &cut, 3);
        let once = (once.geometry, once.record);
        check(&cut, &once, &rules, &second, &context).expect("legal cuts derive");
    }
}

/// A negative cut, alone or beside a legal one, is declined, and so is a
/// cut strictly inside a wire's width.
#[test]
fn negative_and_width_splitting_cuts_are_declined() {
    let rules = DesignRules::default();
    let layout = fixtures::wire_row(4, 600);
    let pre = extract(&layout, &rules);
    let cut = |axis, position, width| SpaceCut {
        axis,
        position,
        width,
    };
    for cuts in [
        vec![cut(Axis::X, 700, -10)],
        vec![cut(Axis::Y, 500, 100), cut(Axis::X, 100_000, -1)],
        vec![cut(Axis::X, 650, 10)],
    ] {
        assert!(check(&layout, &pre, &rules, &cuts, "declined").is_none());
    }
    assert!(check(&layout, &pre, &rules, &[cut(Axis::X, 700, 10)], "edge").is_some());
}
