//! The never-silently-wrong property of the fault-tolerant flow.
//!
//! Every deterministic fault a [`FaultPlan`] can inject — a worker panic
//! at the n-th instrumented site, a persistent panic at every occurrence,
//! a forced budget exhaustion from the n-th charge of a stage — must
//! leave [`run_flow`] in one of exactly two states:
//!
//! 1. a **complete** result, bit-identical to the fault-free baseline
//!    (the fault was healed, e.g. by the per-item retry of
//!    `par_map_indexed`), with all-exact provenance; or
//! 2. a **truthfully flagged** outcome: degraded/skipped provenance, a
//!    `verified == false` partial result, or a structured error
//!    ([`FlowError::Budget`] / [`FlowError::WorkerPanic`]).
//!
//! A degraded answer masquerading as a proven one is the only forbidden
//! state, and whenever `verified` *is* claimed it is re-checked against
//! the independent constraint-propagation oracle
//! (`aapsm_layout::check_assignable`). Checked across parallelism
//! 0/1/2/4. GDS record corruption (the fourth fault site) is covered by
//! the `aapsm-gds` truncation/byte-flip suite.
//!
//! Fault occurrence indices vary with `AAPSM_FAULT_SEED` (default 42),
//! which CI sweeps over several values. The hooks are compiled out in
//! release builds, so this whole suite is debug-only.
#![cfg(debug_assertions)]

use aapsm_core::{run_flow, BudgetSpec, ExhaustReason, FlowConfig, FlowError, FlowResult};
use aapsm_fault::{with_plan, FaultPlan, FaultSite, Stage};
use aapsm_layout::{check_assignable, extract_phase_geometry, fixtures, DesignRules, Layout};
use std::sync::{Mutex, MutexGuard, PoisonError};

const PARALLELISM: [usize; 4] = [0, 1, 2, 4];
const SITES: [FaultSite; 2] = [FaultSite::EmbedComponent, FaultSite::CoverComponent];
const STAGES: [Stage; 4] = [
    Stage::GraphBuild,
    Stage::Embed,
    Stage::Matching,
    Stage::Cover,
];

/// Serializes this binary's tests for their whole bodies. [`with_plan`]
/// arms a process-global plan and only serializes armed scopes against
/// each other, so a sibling test's un-armed baseline run would otherwise
/// read the armed plan and come back degraded or panicking.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn seed() -> u64 {
    std::env::var("AAPSM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// A flow config with a fresh spec-built budget (injected exhaustion only
/// applies to limited budgets; `Budget::unlimited` stays infallible).
fn config(parallelism: usize) -> FlowConfig {
    let mut c = FlowConfig::with_budget(BudgetSpec::default().build());
    c.detect.parallelism = parallelism;
    c
}

fn assert_same(a: &FlowResult, b: &FlowResult, context: &str) {
    assert_eq!(
        a.detection.conflicts, b.detection.conflicts,
        "{context}: first-round conflicts differ"
    );
    assert_eq!(a.verified, b.verified, "{context}: verified differs");
    assert_eq!(
        a.correction.modified, b.correction.modified,
        "{context}: corrected layouts differ"
    );
    assert_eq!(
        a.assignment.phase, b.assignment.phase,
        "{context}: assignments differ"
    );
    assert_eq!(
        a.rounds.len(),
        b.rounds.len(),
        "{context}: round counts differ"
    );
    for (i, (x, y)) in a.rounds.iter().zip(&b.rounds).enumerate() {
        assert_eq!(x.conflicts, y.conflicts, "{context}: round {i} conflicts");
        assert_eq!(x.cuts, y.cuts, "{context}: round {i} cuts");
    }
    assert_eq!(a.provenance, b.provenance, "{context}: provenance differs");
}

/// The central invariant: complete ⇒ bit-identical; otherwise flagged.
fn assert_truthful(outcome: &Result<FlowResult, FlowError>, baseline: &FlowResult, context: &str) {
    match outcome {
        Ok(res) => {
            if res.all_exact() {
                assert_same(res, baseline, context);
            }
            if res.verified {
                // A claimed verification is re-proved by the independent
                // oracle on the layout actually returned.
                let geom =
                    extract_phase_geometry(&res.correction.modified, &DesignRules::default());
                assert!(
                    check_assignable(&geom).is_ok(),
                    "{context}: verified result fails the oracle"
                );
                assert!(
                    res.assignment.satisfies(&geom),
                    "{context}: assignment does not satisfy the geometry"
                );
            }
        }
        Err(FlowError::Budget(_) | FlowError::WorkerPanic(_)) => {}
        Err(other) => panic!("{context}: unexpected error class {other:?}"),
    }
}

fn fixture_suite(rules: &DesignRules) -> Vec<(&'static str, Layout)> {
    vec![
        ("bus", fixtures::strap_under_bus(5, rules)),
        ("two_round", fixtures::corridor_unblock_two_round(rules)),
    ]
}

#[test]
fn transient_panic_heals_to_bit_identical_result() {
    let _serial = serial();
    let rules = DesignRules::default();
    for (name, layout) in &fixture_suite(&rules) {
        for parallelism in PARALLELISM {
            let baseline = run_flow(layout, &rules, &config(parallelism)).unwrap();
            for site in SITES {
                // Occurrence 0 always fires; the seeded occurrence may
                // fall past the last hit (then nothing fires — the
                // invariant holds trivially).
                for occurrence in [0, seed() % 3] {
                    let context =
                        format!("{name}, parallelism {parallelism}, {site:?} hit {occurrence}");
                    let res = with_plan(
                        FaultPlan {
                            panic_at: Some((site, occurrence)),
                            ..FaultPlan::default()
                        },
                        || run_flow(layout, &rules, &config(parallelism)),
                    );
                    // A single panic is healed by the per-item retry:
                    // not merely truthful, the result is *complete*.
                    let res = res.unwrap_or_else(|e| panic!("{context}: not healed: {e}"));
                    assert!(res.all_exact(), "{context}: {:?}", res.provenance);
                    assert_same(&res, &baseline, &context);
                }
            }
        }
    }
}

#[test]
fn persistent_panic_surfaces_as_structured_error() {
    let _serial = serial();
    let rules = DesignRules::default();
    let layout = fixtures::strap_under_bus(5, &rules);
    for parallelism in PARALLELISM {
        for site in SITES {
            let context = format!("parallelism {parallelism}, {site:?} always panicking");
            let res = with_plan(
                FaultPlan {
                    panic_always: Some(site),
                    ..FaultPlan::default()
                },
                || run_flow(&layout, &rules, &config(parallelism)),
            );
            match res {
                Err(FlowError::WorkerPanic(msg)) => {
                    assert!(
                        msg.contains("injected fault"),
                        "{context}: message lost: {msg}"
                    );
                }
                other => panic!("{context}: expected WorkerPanic, got {other:?}"),
            }
        }
    }
}

#[test]
fn injected_exhaustion_is_never_silently_wrong() {
    let _serial = serial();
    let rules = DesignRules::default();
    for (name, layout) in &fixture_suite(&rules) {
        for parallelism in [0, 2] {
            let baseline = run_flow(layout, &rules, &config(parallelism)).unwrap();
            for stage in STAGES {
                for occurrence in [0, 1 + seed() % 4, 7 + seed() % 8] {
                    let context = format!(
                        "{name}, parallelism {parallelism}, exhaust {stage:?} from charge {occurrence}"
                    );
                    let res = with_plan(
                        FaultPlan {
                            exhaust_at: Some((stage, occurrence)),
                            ..FaultPlan::default()
                        },
                        || run_flow(layout, &rules, &config(parallelism)),
                    );
                    assert_truthful(&res, &baseline, &context);
                }
            }
        }
    }
}

#[test]
fn exhaustion_at_entry_and_ladder_rungs_are_reported() {
    let _serial = serial();
    let rules = DesignRules::default();
    let layout = fixtures::strap_under_bus(5, &rules);

    // Graph-build exhaustion from the very first check trips the entry
    // gate: the one stage with no degraded form aborts the flow.
    let res = with_plan(
        FaultPlan {
            exhaust_at: Some((Stage::GraphBuild, 0)),
            ..FaultPlan::default()
        },
        || run_flow(&layout, &rules, &config(0)),
    );
    match res {
        Err(FlowError::Budget(e)) => {
            assert_eq!(e.stage, Stage::GraphBuild);
            assert_eq!(e.reason, ExhaustReason::Injected);
        }
        other => panic!("expected an entry budget error, got {other:?}"),
    }

    // Embed exhaustion from charge 0: optimal bipartization falls back
    // to parity-greedy and says so in the provenance.
    let res = with_plan(
        FaultPlan {
            exhaust_at: Some((Stage::Embed, 0)),
            ..FaultPlan::default()
        },
        || run_flow(&layout, &rules, &config(0)),
    )
    .expect("bipartization degrades, it does not error");
    assert!(!res.all_exact(), "provenance: {:?}", res.provenance);
    assert!(
        !res.provenance[0].bipartize.is_exact(),
        "provenance: {:?}",
        res.provenance
    );

    // Cover exhaustion from charge 0: the planner keeps its greedy
    // incumbent and the round's correct stage reads Degraded.
    let res = with_plan(
        FaultPlan {
            exhaust_at: Some((Stage::Cover, 0)),
            ..FaultPlan::default()
        },
        || run_flow(&layout, &rules, &config(0)),
    )
    .expect("cover degrades, it does not error");
    assert!(!res.all_exact(), "provenance: {:?}", res.provenance);
    assert!(
        matches!(
            res.provenance[0].correct,
            aapsm_core::StageProvenance::Degraded(_)
        ),
        "provenance: {:?}",
        res.provenance
    );
}
