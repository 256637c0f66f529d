//! Edge cases of [`run_flow`]'s budget and round accounting: a zero
//! round cap, a deadline already expired at entry, cooperative
//! cancellation, and a work cap that trips exactly between rounds.

use aapsm_core::{
    run_flow, BudgetSpec, BudgetStage, DetectConfig, ExhaustReason, FlowConfig, FlowError,
    RedetectEngine, StageProvenance,
};
use aapsm_layout::{fixtures, DesignRules};
use std::time::Duration;

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
    // 1 (detect + correct) fits; round 2's incremental re-detect must
    // rebuild the graph, over-draws, and trips.
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
