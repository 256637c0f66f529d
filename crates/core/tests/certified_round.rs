//! The round after cuts. `run_flow` verifies a corrected layout with
//! [`certify_cuts`], from the previous round's extraction, and extracts
//! it again only when the certificate refuses. Checked here:
//!
//! * the certificate against a re-extraction of the corrected layout, on
//!   every suite design after its plan, on seeded random legal cut sets
//!   over synthetic layouts, and on both corridor-unblock fixtures: the
//!   re-extraction keeps the features and shifters; a verified
//!   certificate's assignment satisfies it, its check succeeds and its
//!   overlaps are pre-cut overlaps less the corrected ones; a refusal
//!   names a pair the re-extraction really has close or merged;
//! * a budget stop at round 2, on the certified and the re-extracting
//!   path, keeps the truthful `re-detection stopped by budget` record;
//! * (debug builds, whose fault hooks are live) a transient worker panic
//!   in round 2's detection heals to the fault-free result.
//!
//! Injected-fault occurrence indices vary with `AAPSM_FAULT_SEED`
//! (default 42), which CI sweeps over several values.

use aapsm_core::{
    detect_conflicts, plan_correction, run_flow, BudgetSpec, BudgetStage, Conflict, ConstraintKind,
    CorrectionOptions, CorrectionPlan, DetectConfig, FlowConfig, StageProvenance,
};
use aapsm_layout::synth::{self, BenchDesign, SynthParams};
use aapsm_layout::{
    apply_cuts, certify_cuts, check_assignable, extract_phase_geometry,
    extract_phase_geometry_recorded, fixtures, CertificateRefusal, DesignRules, Layout,
    PhaseGeometry, SpaceCut,
};
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

#[path = "support/cuts.rs"]
mod cuts;
use cuts::random_cuts;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes this binary's tests for their whole bodies: an armed
/// [`aapsm_fault::with_plan`] is process-global, so a sibling test's
/// un-armed run would otherwise read the plan.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Round 1 of the flow on `layout`: its geometry, detection and plan.
fn round_one(
    layout: &Layout,
    rules: &DesignRules,
) -> (PhaseGeometry, Vec<Conflict>, CorrectionPlan) {
    let geom = extract_phase_geometry(layout, rules);
    let report = detect_conflicts(&geom, &DetectConfig::default());
    let plan = plan_correction(
        &geom,
        &report.conflicts,
        rules,
        &CorrectionOptions::default(),
    );
    (geom, report.conflicts, plan)
}

/// Certifies `cuts` on `layout` with every one of `conflicts` corrected,
/// and checks the verdict against the re-extraction of the cut layout.
/// Returns the verdict and whether that re-extraction is assignable.
fn certify_against_extraction(
    layout: &Layout,
    rules: &DesignRules,
    conflicts: &[Conflict],
    cuts: &[SpaceCut],
    context: &str,
) -> (Result<(), CertificateRefusal>, bool) {
    let (geom, record) = extract_phase_geometry_recorded(layout, rules, 1);
    let corrected: Vec<usize> = conflicts
        .iter()
        .map(|c| match c.constraint {
            ConstraintKind::Overlap(oi) => oi,
            other => panic!("{context}: {other:?} is not correctable"),
        })
        .collect();
    let verdict = certify_cuts(&geom, &record, rules, cuts, &corrected);
    let post = extract_phase_geometry(&apply_cuts(layout, cuts), rules);
    // Legal cuts keep the features, their criticality and the shifters.
    assert_eq!(post.shifters.len(), geom.shifters.len(), "{context}");
    for (pre, post) in geom.features.iter().zip(&post.features) {
        assert_eq!(
            (pre.critical, pre.orientation, pre.shifters),
            (post.critical, post.orientation, post.shifters),
            "{context}"
        );
    }
    let assignable = check_assignable(&post).is_ok();
    match &verdict {
        Ok(assignment) => {
            assert!(assignable, "{context}: certified, but the check fails");
            assert!(assignment.satisfies(&post), "{context}");
            let removed: HashSet<usize> = corrected.iter().copied().collect();
            let kept: HashSet<(usize, usize)> = geom
                .overlaps
                .iter()
                .enumerate()
                .filter(|(oi, _)| !removed.contains(oi))
                .map(|(_, o)| (o.a, o.b))
                .collect();
            for o in &post.overlaps {
                assert!(
                    kept.contains(&(o.a, o.b)),
                    "{context}: the certified layout merges {o:?}"
                );
            }
        }
        Err(CertificateRefusal::StillClose { overlap }) => {
            let o = &geom.overlaps[*overlap];
            let spacing = rules.shifter_spacing as i128;
            assert!(
                post.shifters[o.a]
                    .rect
                    .euclid_gap_sq(&post.shifters[o.b].rect)
                    < spacing * spacing,
                "{context}: overlap {overlap} is spaced after the cuts"
            );
        }
        Err(CertificateRefusal::Unblocked { a, b }) => assert!(
            post.overlaps.iter().any(|o| (o.a, o.b) == (*a, *b)),
            "{context}: shifters {a} and {b} do not merge after the cuts"
        ),
        Err(other) => panic!("{context}: unexpected refusal {other:?}"),
    }
    (verdict.map(|_| ()), assignable)
}

/// Every design's plan certifies, and the certificate agrees with the
/// check of the re-extracted corrected layout.
fn certify_suite(designs: &[BenchDesign]) {
    let _serial = serial();
    let rules = DesignRules::default();
    for d in designs {
        let layout = synth::generate(&d.params, &rules);
        let (_, conflicts, plan) = round_one(&layout, &rules);
        assert!(plan.uncorrectable.is_empty(), "{}", d.name);
        assert!(!plan.cuts.is_empty(), "{}", d.name);
        let (verdict, assignable) =
            certify_against_extraction(&layout, &rules, &conflicts, &plan.cuts, d.name);
        assert_eq!(verdict, Ok(()), "{}", d.name);
        assert!(assignable, "{}", d.name);
    }
}

#[test]
fn the_standard_suite_certifies_through_d6() {
    certify_suite(&synth::standard_suite()[..6]);
}

#[test]
fn the_scaling_suite_certifies() {
    certify_suite(&synth::scaling_suite());
}

#[test]
fn the_modification_suite_certifies() {
    certify_suite(&synth::modification_suite());
}

#[test]
fn both_corridor_unblock_fixtures_are_refused() {
    let _serial = serial();
    let rules = DesignRules::default();
    let two_round = fixtures::corridor_unblock_two_round(&rules);
    let (_, conflicts, plan) = round_one(&two_round, &rules);
    assert_eq!(conflicts.len(), 1);
    let (verdict, assignable) =
        certify_against_extraction(&two_round, &rules, &conflicts, &plan.cuts, "two-round");
    assert!(
        matches!(verdict, Err(CertificateRefusal::Unblocked { .. })),
        "{verdict:?}"
    );
    assert!(
        !assignable,
        "round 2 of the two-round fixture has a conflict"
    );
    // The latent half alone is assignable; the same cut unblocks it.
    let latent = fixtures::corridor_unblock_latent(&rules);
    assert!(round_one(&latent, &rules).1.is_empty());
    let (verdict, assignable) =
        certify_against_extraction(&latent, &rules, &[], &plan.cuts, "latent");
    assert!(
        matches!(verdict, Err(CertificateRefusal::Unblocked { .. })),
        "{verdict:?}"
    );
    assert!(!assignable);
}

/// Seeded random legal cut sets on random synthetic layouts: the plan's
/// cuts plus random ones, the plan's cuts narrowed, and random cuts
/// alone. The certificate's verdict equals the check of the re-extracted
/// layout, every refusal names a real pair, and the run must see both
/// outcomes.
#[test]
fn random_legal_cut_sets_agree_with_the_re_extraction() {
    let _serial = serial();
    let rules = DesignRules::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    for case in 0..48 {
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
        let (_, conflicts, plan) = round_one(&layout, &rules);
        if !plan.uncorrectable.is_empty() {
            continue;
        }
        let (kind, cuts) = match case % 3 {
            0 => {
                let mut cuts = plan.cuts.clone();
                let extra = rng.gen_range(1..=8);
                cuts.extend(random_cuts(&mut rng, &layout, extra));
                ("plan and random", cuts)
            }
            1 => {
                let mut cuts = plan.cuts.clone();
                for cut in cuts.iter_mut() {
                    if rng.gen_bool(0.3) {
                        cut.width = rng.gen_range(1..=cut.width);
                    }
                }
                ("narrowed plan", cuts)
            }
            _ => {
                let count = rng.gen_range(1..=40);
                ("random", random_cuts(&mut rng, &layout, count))
            }
        };
        let context = format!("case {case} ({kind}): cuts {cuts:?}");
        let (verdict, assignable) =
            certify_against_extraction(&layout, &rules, &conflicts, &cuts, &context);
        let outcome = match verdict {
            Ok(()) => "verified",
            Err(CertificateRefusal::StillClose { .. }) => "still close",
            Err(CertificateRefusal::Unblocked { .. }) => "unblocked",
            Err(other) => panic!("{context}: {other:?}"),
        };
        // A refusal is no verdict in general, but on these cases every
        // one is a failed check too.
        assert_eq!(verdict.is_ok(), assignable, "{context}");
        *outcomes.entry(outcome).or_default() += 1;
    }
    for outcome in ["verified", "still close"] {
        assert!(outcomes.get(outcome) >= Some(&5), "{outcomes:?}");
    }
}

/// The graph-build ticks of round 1 on `layout`: one per merge constraint
/// and per critical feature.
fn round_one_ticks(layout: &Layout, rules: &DesignRules) -> u64 {
    let geom = extract_phase_geometry(layout, rules);
    (geom.overlaps.len() + geom.critical_count()) as u64
}

#[test]
fn a_budget_stop_at_round_two_is_recorded_truthfully() {
    let _serial = serial();
    let rules = DesignRules::default();
    // The bus fixture's round 2 certifies; the two-round fixture's
    // re-extracts. Either way round 2 charges the graph build before it
    // verifies, so a cap of exactly round 1's ticks stops it there.
    for (name, layout) in [
        ("bus", fixtures::strap_under_bus(5, &rules)),
        ("two-round", fixtures::corridor_unblock_two_round(&rules)),
    ] {
        let ticks = round_one_ticks(&layout, &rules);
        let budget = BudgetSpec {
            graph_build_ticks: Some(ticks),
            ..BudgetSpec::default()
        }
        .build();
        let res = run_flow(&layout, &rules, &FlowConfig::with_budget(budget.clone()))
            .unwrap_or_else(|e| panic!("{name}: a stop between rounds is not an error: {e}"));
        assert!(!res.verified, "{name}");
        assert_eq!(res.round_count(), 2, "{name}: {:?}", res.rounds);
        assert!(res.provenance[0].is_exact(), "{name}: {:?}", res.provenance);
        for stage in [
            &res.provenance[1].build,
            &res.provenance[1].bipartize,
            &res.provenance[1].correct,
        ] {
            assert!(
                matches!(stage, StageProvenance::Skipped(reason)
                    if reason.starts_with("re-detection stopped by budget")),
                "{name}: {:?}",
                res.provenance
            );
        }
        assert_eq!(
            res.correction.modified,
            apply_cuts(&layout, &res.plan.cuts),
            "{name}: the partial result carries round 1's cuts"
        );
        assert!(budget.used(BudgetStage::GraphBuild) > ticks, "{name}");
        // Uncapped, the same layout verifies.
        assert!(
            run_flow(&layout, &rules, &FlowConfig::default())
                .unwrap()
                .verified
        );
    }
}

/// Faults injected into round 2, whose hooks only debug builds compile in.
#[cfg(debug_assertions)]
mod injected {
    use super::*;
    use aapsm_core::{FlowError, FlowResult};
    use aapsm_fault::{with_plan, FaultPlan, FaultSite, Stage};

    fn seed() -> u64 {
        std::env::var("AAPSM_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    fn budgeted() -> FlowConfig {
        FlowConfig::with_budget(BudgetSpec::default().build())
    }

    fn flow_with(layout: &Layout, plan: FaultPlan) -> Result<FlowResult, FlowError> {
        with_plan(plan, || {
            run_flow(layout, &DesignRules::default(), &budgeted())
        })
    }

    #[test]
    fn a_transient_panic_in_round_two_heals_to_the_same_result() {
        let _serial = serial();
        let rules = DesignRules::default();
        // The certificate refuses round 2 of this fixture, so round 2
        // extracts and detects, and traces faces.
        let layout = fixtures::corridor_unblock_two_round(&rules);
        let baseline = run_flow(&layout, &rules, &budgeted()).unwrap();
        assert_eq!(baseline.round_count(), 3, "{:?}", baseline.rounds);
        // Every face trace charges the embed stage once, so the first
        // charge whose exhaustion leaves round 1 exact is round 2's first
        // trace.
        let (first, exhausted) = (0..64)
            .map(|n| {
                let plan = FaultPlan {
                    exhaust_at: Some((Stage::Embed, n)),
                    ..FaultPlan::default()
                };
                (n, flow_with(&layout, plan).unwrap())
            })
            .find(|(_, res)| res.provenance[0].bipartize.is_exact())
            .expect("round 1 traces fewer than 64 components");
        assert!(first > 0, "round 1 traces faces");
        assert!(
            matches!(
                exhausted.provenance[1].bipartize,
                StageProvenance::Degraded(_)
            ),
            "round 2 traces faces: {:?}",
            exhausted.provenance
        );
        for occurrence in [first, first + seed() % 2] {
            let context = format!("panic at face trace {occurrence}");
            let plan = FaultPlan {
                panic_at: Some((FaultSite::EmbedComponent, occurrence)),
                ..FaultPlan::default()
            };
            let res =
                flow_with(&layout, plan).unwrap_or_else(|e| panic!("{context}: not healed: {e}"));
            assert!(res.all_exact(), "{context}: {:?}", res.provenance);
            assert!(res.verified, "{context}");
            assert_eq!(res.rounds, baseline.rounds, "{context}");
            assert_eq!(res.provenance, baseline.provenance, "{context}");
            assert_eq!(
                res.correction.modified, baseline.correction.modified,
                "{context}"
            );
            assert_eq!(res.assignment, baseline.assignment, "{context}");
        }
    }
}
