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
//! the `aapsm-gds` truncation/byte-flip suite. `detect_hier`, which runs
//! unbudgeted, is held to the panic half of the rule: a transient panic
//! heals bit-identical, a persistent one propagates. A warm
//! `RedetectEngine` edit, which detects edit-locally, is held to the
//! same rule as the flow; a degraded edit must degrade exactly as
//! scratch detection does and is never reused by the next edit.
//!
//! Fault occurrence indices vary with `AAPSM_FAULT_SEED` (default 42),
//! which CI sweeps over several values. The hooks are compiled out in
//! release builds, so this whole suite is debug-only.
#![cfg(debug_assertions)]

use aapsm_core::{
    detect_conflicts, detect_hier, plan_correction, run_flow, Budget, BudgetSpec,
    CorrectionOptions, DetectConfig, DetectReport, ExhaustReason, FlowConfig, FlowError,
    FlowResult, RedetectEngine, SolveCache, StageProvenance,
};
use aapsm_fault::{with_plan, FaultPlan, FaultSite, Stage};
use aapsm_layout::synth::{generate, SynthParams};
use aapsm_layout::{
    apply_cuts, check_assignable, extract_phase_geometry, fixtures, Cell, DesignRules, HierLayout,
    Instance, Layout, Orient, Placement, SpaceCut,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// A 4×4 grid of one four-row, 64-gate leaf in all eight orientations,
/// instances isolated: every component is detected in a class pass, and
/// the class work is large enough that parallelism 0 maps the classes on
/// worker threads.
fn class_grid(rules: &DesignRules) -> HierLayout {
    let params = SynthParams {
        rows: 4,
        gates_per_row: 64,
        seed: 31,
        ..SynthParams::default()
    };
    let mut h = HierLayout::new();
    let mut leaf = Cell::new("LEAF");
    leaf.rects = generate(&params, rules).rects().to_vec();
    let bbox = Layout::from_rects(leaf.rects.clone())
        .bbox()
        .expect("the leaf has rects");
    let leaf = h.add_cell(leaf);
    let pitch = bbox.width().max(bbox.height()) + 20_000;
    let mut top = Cell::new("TOP");
    for slot in 0..16 {
        let orient = Orient::all()[slot % 8];
        let obb = orient.try_apply_rect(&bbox).expect("fits");
        let (col, row) = ((slot % 4) as i64, (slot / 4) as i64);
        top.instances.push(Instance {
            cell: leaf,
            placement: Placement::new(orient, col * pitch - obb.x_lo(), row * pitch - obb.y_lo()),
        });
    }
    h.top = Some(h.add_cell(top));
    h
}

/// `detect_hier` under face-trace panics: a transient one heals to the
/// fault-free conflicts bit for bit, whichever class pass or worker it
/// hits; a persistent one panics out of `detect_hier` and never returns
/// an answer.
#[test]
fn detect_hier_heals_transient_panics_and_surfaces_persistent_ones() {
    let _serial = serial();
    let rules = DesignRules::default();
    let hier = class_grid(&rules);
    for parallelism in PARALLELISM {
        let config = DetectConfig {
            parallelism,
            ..DetectConfig::default()
        };
        let baseline = detect_hier(&hier, &rules, &config).expect("valid hierarchy");
        assert_eq!(baseline.hier.cells_detected, 8, "{:?}", baseline.hier);
        for occurrence in [0, seed() % 3, 20 + seed() % 90] {
            let context = format!("parallelism {parallelism}, embed hit {occurrence}");
            let plan = FaultPlan {
                panic_at: Some((FaultSite::EmbedComponent, occurrence)),
                ..FaultPlan::default()
            };
            let healed = with_plan(plan, || detect_hier(&hier, &rules, &config));
            let healed = healed.expect("valid hierarchy");
            assert_eq!(
                healed.report.conflicts, baseline.report.conflicts,
                "{context}"
            );
            assert_eq!(healed.hier, baseline.hier, "{context}");
        }
        let plan = FaultPlan {
            panic_always: Some(FaultSite::EmbedComponent),
            ..FaultPlan::default()
        };
        let persistent = with_plan(plan, || {
            catch_unwind(AssertUnwindSafe(|| detect_hier(&hier, &rules, &config)))
        });
        let payload = persistent.expect_err("a persistent panic must not return an answer");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            msg.contains("injected fault"),
            "parallelism {parallelism}: {msg}"
        );
    }
}

/// Conflicts and every count of two reports' statistics.
fn assert_same_report(a: &DetectReport, b: &DetectReport, context: &str) {
    let counts = |r: &DetectReport| {
        let s = r.stats;
        (
            (s.graph_nodes, s.graph_edges, s.crossings),
            (s.planarize_removed, s.bipartize_conflicts),
            (s.recheck_conflicts, s.bipartite),
        )
    };
    assert_eq!(a.conflicts, b.conflicts, "{context}: conflicts differ");
    assert_eq!(counts(a), counts(b), "{context}: statistics differ");
}

/// The first edit among the cuts correcting one conflict of `report`
/// after which `engine`, warm on `layout`, re-runs an odd component,
/// and the layout it makes.
fn one_conflict_edit(
    engine: &RedetectEngine,
    layout: &Layout,
    report: &DetectReport,
) -> (Vec<SpaceCut>, Layout) {
    let rules = DesignRules::default();
    let geom = extract_phase_geometry(layout, &rules);
    (0..report.conflict_count())
        .find_map(|c| {
            let options = CorrectionOptions::default();
            let cuts = plan_correction(&geom, &report.conflicts[c..=c], &rules, &options).cuts;
            let edited = apply_cuts(layout, &cuts);
            let mut trial = engine.clone();
            trial.set_shared_cache(SolveCache::new(SolveCache::DEFAULT_CAPACITY));
            trial.redetect_after_correction(&edited, &cuts);
            (trial.last_stats().components_rerun > 0).then_some((cuts, edited))
        })
        .expect("some one-conflict edit re-runs an odd component")
}

/// A one-conflict edit on a warm engine under a transient face-trace
/// panic, injected face-trace exhaustion and injected matching
/// exhaustion: the report equals scratch detection of the edited layout
/// (a healed panic, or a trip that missed the edit's few re-run
/// components), or it is flagged degraded and equals scratch detection
/// degraded the same way (parity-greedy over every odd component). The
/// next edit equals scratch, and reuses components only after an exact
/// round.
#[test]
fn a_warm_edit_heals_or_degrades_like_scratch() {
    let _serial = serial();
    let rules = DesignRules::default();
    let layout = generate(
        &SynthParams {
            rows: 2,
            gates_per_row: 30,
            strap_frac: 0.7,
            seed: 31,
            ..SynthParams::default()
        },
        &rules,
    );
    let cases = |occurrence| {
        [
            (
                "embed panic",
                FaultPlan {
                    panic_at: Some((FaultSite::EmbedComponent, occurrence)),
                    ..FaultPlan::default()
                },
            ),
            (
                "embed exhaustion",
                FaultPlan {
                    exhaust_at: Some((Stage::Embed, occurrence)),
                    ..FaultPlan::default()
                },
            ),
            (
                "matching exhaustion",
                FaultPlan {
                    exhaust_at: Some((Stage::Matching, occurrence)),
                    ..FaultPlan::default()
                },
            ),
        ]
    };
    let (mut exact, mut degraded) = (0, 0);
    for parallelism in PARALLELISM {
        let config = DetectConfig {
            parallelism,
            ..DetectConfig::default()
        };
        let scratch = |l: &Layout| detect_conflicts(&extract_phase_geometry(l, &rules), &config);
        let mut warm = RedetectEngine::new(rules, config.clone());
        let first = warm.detect_full(&layout);
        let (cuts, edited) = one_conflict_edit(&warm, &layout, &first);
        let expected = scratch(&edited);
        let mut after = warm.clone();
        after.redetect_after_correction(&edited, &cuts);
        let (next_cuts, next) = one_conflict_edit(&after, &edited, &expected);
        let next_expected = scratch(&next);
        // Scratch detection of the edited layout, degraded: a matching
        // cap of zero trips the first solve.
        let mut capped = RedetectEngine::new(rules, config.clone());
        capped.set_budget(
            BudgetSpec {
                matching_ticks: Some(0),
                ..BudgetSpec::default()
            }
            .build(),
        );
        let (degraded_scratch, provenance) = capped
            .try_detect_full(&edited)
            .expect("a matching cap degrades");
        assert!(!provenance.is_exact(), "the cap must degrade scratch");
        for occurrence in [0, 1 + seed() % 4] {
            for (case, plan) in cases(occurrence) {
                let context = format!("parallelism {parallelism}, {case} from hit {occurrence}");
                // A private cache: the edit's re-run components solve.
                let mut engine = warm.clone();
                engine.set_shared_cache(SolveCache::new(SolveCache::DEFAULT_CAPACITY));
                engine.set_budget(BudgetSpec::default().build());
                let (report, provenance) = with_plan(plan, || {
                    engine.try_redetect_after_correction(&edited, &cuts)
                })
                .unwrap_or_else(|e| panic!("{context}: {e}"));
                match &provenance {
                    StageProvenance::Exact => {
                        exact += 1;
                        assert_same_report(&report, &expected, &context);
                        assert!(engine.last_stats().components_reused > 0, "{context}");
                    }
                    StageProvenance::Degraded(_) => {
                        degraded += 1;
                        assert!(case != "embed panic", "{context}: a panic heals");
                        assert_same_report(&report, &degraded_scratch, &context);
                    }
                    StageProvenance::Skipped(why) => panic!("{context}: skipped: {why}"),
                }
                engine.set_budget(Budget::unlimited());
                let report = engine.redetect_after_correction(&next, &next_cuts);
                assert_same_report(&report, &next_expected, &format!("{context}, next edit"));
                assert_eq!(
                    engine.last_stats().components_reused > 0,
                    provenance.is_exact(),
                    "{context}: the next edit reuses components only after an exact round"
                );
            }
        }
    }
    assert!(
        exact > 0 && degraded > 0,
        "{exact} exact, {degraded} degraded"
    );
}
