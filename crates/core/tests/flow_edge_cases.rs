//! Edge cases of [`run_flow`]'s budget and round accounting: a zero
//! round cap, a deadline already expired at entry, cooperative
//! cancellation, a work cap that trips exactly between rounds, and
//! (debug builds, whose fault hooks are live) injected embed/matching
//! exhaustion that a bipartite round never reaches.
//!
//! Injected-fault occurrence indices vary with `AAPSM_FAULT_SEED`
//! (default 42), which CI sweeps over several values.

use aapsm_core::{
    run_flow, BudgetSpec, BudgetStage, DetectConfig, ExhaustReason, FlowConfig, FlowError,
    RedetectEngine, StageProvenance,
};
use aapsm_geom::Rect;
use aapsm_layout::{fixtures, DesignRules};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Serializes the tests that run limited budgets: an armed
/// [`aapsm_fault::with_plan`] is process-global, so a sibling test's
/// budgeted run would otherwise read the plan and degrade.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn max_rounds_zero_behaves_as_one_round() {
    // `max_rounds: 0` is clamped to one correction round — the flow
    // always detects at least once and corrects what it found.
    let rules = DesignRules::default();
    let layout = fixtures::strap_under_bus(5, &rules);
    let zero = run_flow(
        &layout,
        &rules,
        &FlowConfig {
            max_rounds: 0,
            ..FlowConfig::default()
        },
    )
    .unwrap();
    let one = run_flow(
        &layout,
        &rules,
        &FlowConfig {
            max_rounds: 1,
            ..FlowConfig::default()
        },
    )
    .unwrap();
    assert_eq!(zero.round_count(), one.round_count());
    assert_eq!(zero.correction.modified, one.correction.modified);
    assert_eq!(zero.verified, one.verified);
    assert!(zero.rounds[0].cuts >= 1, "rounds: {:?}", zero.rounds);
}

#[test]
fn expired_deadline_at_entry_is_a_budget_error() {
    let _serial = serial();
    let rules = DesignRules::default();
    let layout = fixtures::strap_under_bus(5, &rules);
    let budget = BudgetSpec {
        deadline: Some(Duration::ZERO),
        ..BudgetSpec::default()
    }
    .build();
    match run_flow(&layout, &rules, &FlowConfig::with_budget(budget)) {
        Err(FlowError::Budget(e)) => assert_eq!(e.reason, ExhaustReason::Deadline),
        other => panic!("expected an entry budget error, got {other:?}"),
    }
}

#[test]
fn pre_cancelled_budget_is_a_budget_error() {
    let _serial = serial();
    let rules = DesignRules::default();
    let layout = fixtures::strap_under_bus(5, &rules);
    let budget = BudgetSpec::default().build();
    budget.cancel_token().expect("spec-built").cancel();
    match run_flow(&layout, &rules, &FlowConfig::with_budget(budget)) {
        Err(FlowError::Budget(e)) => assert_eq!(e.reason, ExhaustReason::Cancelled),
        other => panic!("expected a cancellation error, got {other:?}"),
    }
}

#[test]
fn work_cap_exhausted_mid_flow_returns_truthful_partial_result() {
    // Calibrate: measure exactly how many graph-build ticks the *first*
    // detection charges, then cap the flow budget at that number. Round
    // 1 (detect + correct) fits; round 2 charges the graph build again
    // before it verifies, over-draws, and trips.
    let _serial = serial();
    let rules = DesignRules::default();
    let layout = fixtures::strap_under_bus(5, &rules);
    let probe = BudgetSpec::default().build();
    let mut engine = RedetectEngine::new(rules, DetectConfig::default());
    engine.set_budget(probe.clone());
    engine.try_detect_full(&layout).expect("uncapped probe");
    let first_round_ticks = probe.used(BudgetStage::GraphBuild);
    assert!(first_round_ticks > 0, "the fixture charges the graph build");

    let budget = BudgetSpec {
        graph_build_ticks: Some(first_round_ticks),
        ..BudgetSpec::default()
    }
    .build();
    let res = run_flow(&layout, &rules, &FlowConfig::with_budget(budget.clone()))
        .expect("mid-flow exhaustion degrades, it does not error");

    // Round 1 completed exactly and planned cuts; the final round is a
    // truthfully skipped stub (the budget stopped re-verification).
    assert!(!res.verified);
    assert!(!res.all_exact(), "provenance: {:?}", res.provenance);
    assert_eq!(res.round_count(), 2, "rounds: {:?}", res.rounds);
    assert!(res.rounds[0].cuts >= 1);
    assert!(res.provenance[0].build.is_exact());
    assert!(res.provenance[0].bipartize.is_exact());
    let last = res.provenance.last().unwrap();
    for stage in [&last.build, &last.bipartize, &last.correct] {
        assert!(
            matches!(stage, StageProvenance::Skipped(reason) if reason.contains("budget")),
            "provenance: {:?}",
            res.provenance
        );
    }
    // The partial result still carries the applied round-1 cuts.
    assert_ne!(res.correction.modified, layout);
    // And the trip really was the work cap, spent past the calibration.
    assert!(budget.used(BudgetStage::GraphBuild) > first_round_ticks);
}

#[test]
fn a_far_plate_changes_nothing() {
    // One non-critical plate 5e8 dbu wide, far from the design, passes
    // sanitize. Every spatial grid coarsens around it instead of
    // panicking, and the flow answers as it does without the plate.
    let _serial = serial();
    let rules = DesignRules::default();
    let layout = fixtures::gate_over_strap(&rules);
    let mut plated = layout.clone();
    plated.extend([Rect::new(
        -1_000_000_000,
        -1_000_000_000,
        -500_000_000,
        -500_000_000,
    )]);
    assert_eq!(plated.sanitize(&rules), Ok(()));
    let config = FlowConfig::default();
    let base = run_flow(&layout, &rules, &config).expect("the fixture runs");
    let res = run_flow(&plated, &rules, &config).expect("the plate layout runs");
    assert!(base.verified && res.verified);
    assert_eq!(res.detection.conflicts, base.detection.conflicts);
    assert_eq!(res.plan.cuts, base.plan.cuts);
    assert_eq!(res.rounds, base.rounds);
}

/// Injected exhaustion, whose hooks only debug builds compile in.
#[cfg(debug_assertions)]
mod injected {
    use super::*;
    use aapsm_core::FlowResult;
    use aapsm_fault::{with_plan, FaultPlan, Stage};
    use aapsm_layout::Layout;

    fn seed() -> u64 {
        std::env::var("AAPSM_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    /// A flow config with a fresh spec-built budget (injected exhaustion
    /// only applies to limited budgets).
    fn budgeted() -> FlowConfig {
        FlowConfig::with_budget(BudgetSpec::default().build())
    }

    fn assert_same(a: &FlowResult, b: &FlowResult, context: &str) {
        assert_eq!(a.detection.conflicts, b.detection.conflicts, "{context}");
        assert_eq!(a.correction.modified, b.correction.modified, "{context}");
        assert_eq!(a.assignment.phase, b.assignment.phase, "{context}");
        assert_eq!(a.verified, b.verified, "{context}");
        assert_eq!(a.round_count(), b.round_count(), "{context}");
        assert_eq!(a.provenance, b.provenance, "{context}");
    }

    /// Runs `layout`'s flow with `stage` exhausted from its `occurrence`-th
    /// charge on.
    fn flow_exhausting(
        layout: &Layout,
        stage: Stage,
        occurrence: u64,
    ) -> Result<FlowResult, FlowError> {
        let plan = FaultPlan {
            exhaust_at: Some((stage, occurrence)),
            ..FaultPlan::default()
        };
        with_plan(plan, || {
            run_flow(layout, &DesignRules::default(), &budgeted())
        })
    }

    #[test]
    fn bipartite_input_never_reaches_embed_or_matching() {
        // A bipartite layout takes the Theorem-1 shortcut in its only round:
        // no face is traced and no matching runs, so exhausting either stage
        // from its very first charge changes nothing.
        let _serial = serial();
        let rules = DesignRules::default();
        for layout in [
            fixtures::benign_block(&rules),
            fixtures::corridor_unblock_latent(&rules),
        ] {
            let baseline = run_flow(&layout, &rules, &budgeted()).unwrap();
            assert!(baseline.detection.stats.bipartite);
            for stage in [Stage::Embed, Stage::Matching] {
                for occurrence in [0, seed() % 4] {
                    let context = format!("exhaust {stage:?} from charge {occurrence}");
                    let res = flow_exhausting(&layout, stage, occurrence).unwrap();
                    assert!(res.all_exact(), "{context}: {:?}", res.provenance);
                    assert_same(&res, &baseline, &context);
                }
            }
        }
    }

    #[test]
    fn converged_round_charges_no_embed_or_matching() {
        // Find the first charge at which exhausting the stage still lets
        // round 0 finish exactly. Every later charge would belong to a later
        // round; the converged round takes the shortcut and makes none, so
        // the whole flow stays exact and equals the unarmed baseline.
        let _serial = serial();
        let rules = DesignRules::default();
        let layout = fixtures::strap_under_bus(5, &rules);
        let baseline = run_flow(&layout, &rules, &budgeted()).unwrap();
        assert_eq!(baseline.round_count(), 2, "rounds: {:?}", baseline.rounds);
        for stage in [Stage::Embed, Stage::Matching] {
            let (occurrence, res) = (0..1024)
                .map(|n| (n, flow_exhausting(&layout, stage, n).unwrap()))
                .find(|(_, res)| res.provenance[0].bipartize.is_exact())
                .expect("round 0 charges the stage fewer than 1024 times");
            let context = format!("exhaust {stage:?} from charge {occurrence}");
            assert!(occurrence > 0, "{context}: round 0 charges the stage");
            assert!(res.all_exact(), "{context}: {:?}", res.provenance);
            assert!(res.provenance[1].bipartize.is_exact(), "{context}");
            assert_same(&res, &baseline, &context);
        }
    }
}
