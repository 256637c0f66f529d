//! The never-silently-wrong property, end to end through the service
//! API. Every injected fault — a worker panic mid-request (transient or
//! persistent), a forced budget exhaustion, a corrupted GDS open — must
//! yield a structured error or a truthfully-flagged degraded result:
//! never a hang, never an unwind through the API, never a degraded
//! answer claiming exactness. Swept across request parallelism 1/2/4.
//!
//! Faults hit a cold session's first `Detect`, an edit, and a warm
//! session's `Detect` after an edit (answered from the engine's kept
//! report, behind the budget's entry check).
//!
//! Also covers the supervision behaviors only faults can drive: the
//! retry ladder burning its attempts against a persistent panic, the
//! crash-only engine rebuild healing the session afterwards, and the
//! circuit breaker tripping, cooling down, half-open probing and
//! recovering.
//!
//! The injection hooks are compiled out in release builds, so this whole
//! suite is debug-only (mirroring `crates/core/tests/fault_injection.rs`).
#![cfg(debug_assertions)]

use aapsm_core::{detect_conflicts, run_flow, Conflict, DetectConfig, FlowConfig, FlowError};
use aapsm_fault::{with_plan, FaultPlan, FaultSite, Stage};
use aapsm_gds::write_gds;
use aapsm_layout::synth::{generate, SynthParams};
use aapsm_layout::{apply_cuts, extract_phase_geometry, fixtures, DesignRules};
use aapsm_service::{
    BreakerConfig, DetectionService, LoadLadder, Request, ResponseKind, RetryPolicy, ServiceConfig,
    ServiceError, SessionId,
};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

const PARALLELISM: [usize; 3] = [1, 2, 4];
const SITES: [FaultSite; 2] = [FaultSite::EmbedComponent, FaultSite::CoverComponent];

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

fn rules() -> DesignRules {
    DesignRules::default()
}

fn config(parallelism: usize) -> ServiceConfig {
    let mut c = ServiceConfig::new(rules());
    c.workers = 1; // deterministic request ordering
    c.request_parallelism = parallelism;
    c.ladder = LoadLadder::default(); // faults, not load, under test
    c
}

fn baseline_conflicts() -> Vec<Conflict> {
    run_flow(
        &fixtures::strap_under_bus(5, &rules()),
        &rules(),
        &FlowConfig::default(),
    )
    .unwrap()
    .detection
    .conflicts
}

fn open(service: &DetectionService) -> SessionId {
    service
        .open_session(fixtures::strap_under_bus(5, &rules()))
        .unwrap()
}

/// The central invariant, service-shaped: an `Ok` that does not flag
/// degradation must be bit-identical to the fault-free baseline; an
/// `Err` must be a structured budget/panic error. (Admission-time
/// rejections are asserted separately where the scenario expects them.)
fn assert_truthful(
    outcome: &Result<aapsm_service::Response, ServiceError>,
    baseline: &[Conflict],
    context: &str,
) {
    match outcome {
        Ok(response) => {
            if let ResponseKind::Detection { conflicts, .. } = &response.kind {
                if !response.degraded() {
                    assert_eq!(conflicts, baseline, "{context}: undegraded but different");
                }
            }
        }
        Err(ServiceError::Flow(FlowError::Budget(_) | FlowError::WorkerPanic(_))) => {}
        Err(other) => panic!("{context}: unexpected error class: {other}"),
    }
}

#[test]
fn transient_panics_mid_request_stay_truthful() {
    let _serial = serial();
    let baseline = baseline_conflicts();
    for parallelism in PARALLELISM {
        let service = DetectionService::start(config(parallelism)).unwrap();
        for site in SITES {
            for occurrence in [0, seed() % 7, 1 + seed() % 3] {
                let session = open(&service);
                let plan = FaultPlan {
                    panic_at: Some((site, occurrence)),
                    ..FaultPlan::default()
                };
                let outcome = with_plan(plan, || service.request(session, Request::Detect));
                assert_truthful(
                    &outcome,
                    &baseline,
                    &format!("p{parallelism} {site:?}@{occurrence}"),
                );
                // Whatever happened, the session must answer exactly
                // afterwards — crash-only recovery is transparent.
                let healed = service.request(session, Request::Detect).unwrap();
                if let ResponseKind::Detection { conflicts, .. } = &healed.kind {
                    assert!(!healed.degraded());
                    assert_eq!(conflicts, &baseline, "session did not heal");
                }
                service.close_session(session).unwrap();
            }
        }
        let report = service.shutdown(Duration::from_secs(30));
        assert!(report.within_deadline);
    }
}

#[test]
fn persistent_panic_burns_retries_then_errors_structured() {
    let _serial = serial();
    let mut c = config(2);
    c.retry = RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_micros(400),
    };
    c.breaker = BreakerConfig {
        trip_threshold: 0, // breaker off: isolate the retry ladder
        ..BreakerConfig::default()
    };
    let service = DetectionService::start(c).unwrap();
    let session = open(&service);
    let plan = FaultPlan {
        panic_always: Some(FaultSite::EmbedComponent),
        ..FaultPlan::default()
    };
    let err = with_plan(plan, || service.request(session, Request::Detect)).unwrap_err();
    match &err {
        ServiceError::Flow(FlowError::WorkerPanic(msg)) => {
            assert!(msg.contains("injected fault"), "got: {msg}")
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
    let m = service.metrics();
    assert_eq!(m.retries, 2, "both retries must be spent");
    assert_eq!(m.panics, 3, "initial attempt + 2 retries");
    assert_eq!(m.engine_rebuilds, 3);
    assert!(service.session_rebuilds(session).unwrap() >= 3);

    // Plan disarmed: the rebuilt session answers exactly.
    let healed = service.request(session, Request::Detect).unwrap();
    assert!(!healed.degraded());
    if let ResponseKind::Detection { conflicts, .. } = &healed.kind {
        assert_eq!(conflicts, &baseline_conflicts());
    }
    service.shutdown(Duration::from_secs(30));
}

#[test]
fn budget_exhaustion_degrades_truthfully_or_errors() {
    let _serial = serial();
    let baseline = baseline_conflicts();
    for parallelism in PARALLELISM {
        let service = DetectionService::start(config(parallelism)).unwrap();
        for stage in [
            Stage::GraphBuild,
            Stage::Embed,
            Stage::Matching,
            Stage::Cover,
        ] {
            for from_charge in [0, seed() % 50] {
                let session = open(&service);
                let plan = FaultPlan {
                    exhaust_at: Some((stage, from_charge)),
                    ..FaultPlan::default()
                };
                let outcome = with_plan(plan, || service.request(session, Request::Detect));
                assert_truthful(
                    &outcome,
                    &baseline,
                    &format!("p{parallelism} exhaust {stage:?}@{from_charge}"),
                );
                service.close_session(session).unwrap();
            }
        }
        let m = service.metrics();
        assert_eq!(m.retries, 0, "budget exhaustion must never be retried");
        assert_eq!(
            m.rejected_breaker, 0,
            "budget trips must not feed the breaker"
        );
        let report = service.shutdown(Duration::from_secs(30));
        assert!(report.within_deadline);
    }
}

/// A two-row synth design and the first cut of its correction plan: the
/// edit leaves a conflict, so detecting the edited layout runs the whole
/// pipeline.
fn partial_edit() -> (aapsm_layout::Layout, Vec<aapsm_layout::SpaceCut>) {
    let rules = rules();
    let layout = generate(
        &SynthParams {
            rows: 2,
            gates_per_row: 10,
            strap_frac: 0.8,
            ..SynthParams::default()
        },
        &rules,
    );
    let flow = run_flow(&layout, &rules, &FlowConfig::default()).unwrap();
    assert!(flow.plan.cuts.len() >= 2, "cuts: {:?}", flow.plan.cuts);
    let cuts = flow.plan.cuts[..1].to_vec();
    (layout, cuts)
}

#[test]
fn faults_on_a_warm_session_stay_truthful() {
    let _serial = serial();
    let rules = rules();
    let (layout, cuts) = partial_edit();
    let baseline = detect_conflicts(
        &extract_phase_geometry(&apply_cuts(&layout, &cuts), &rules),
        &DetectConfig::default(),
    )
    .conflicts;
    assert!(!baseline.is_empty(), "the edit must leave a conflict");
    let mut plans = Vec::new();
    for stage in [
        Stage::GraphBuild,
        Stage::Embed,
        Stage::Matching,
        Stage::Cover,
    ] {
        for from_charge in [0, seed() % 50] {
            plans.push(FaultPlan {
                exhaust_at: Some((stage, from_charge)),
                ..FaultPlan::default()
            });
        }
    }
    for site in SITES {
        for occurrence in [0, seed() % 7] {
            plans.push(FaultPlan {
                panic_at: Some((site, occurrence)),
                ..FaultPlan::default()
            });
        }
    }
    for parallelism in PARALLELISM {
        let service = DetectionService::start(config(parallelism)).unwrap();
        let mut errors = 0;
        for plan in &plans {
            let context = format!("p{parallelism} {plan:?}");
            let session = service.open_session(layout.clone()).unwrap();
            service.request(session, Request::Detect).unwrap();
            let applied = service
                .request(session, Request::ApplyCuts(cuts.clone()))
                .unwrap();
            assert_truthful(&Ok(applied), &baseline, &context);
            let outcome = with_plan(*plan, || service.request(session, Request::Detect));
            assert_truthful(&outcome, &baseline, &context);
            errors += usize::from(outcome.is_err());
            let healed = service.request(session, Request::Detect).unwrap();
            assert!(!healed.degraded(), "{context}");
            if let ResponseKind::Detection { conflicts, .. } = &healed.kind {
                assert_eq!(conflicts, &baseline, "{context}: session did not heal");
            }
            service.close_session(session).unwrap();
        }
        // An exhaustion at the first graph-build charge trips the entry
        // check, even on a warm session.
        assert!(errors > 0, "p{parallelism}: no fault reached the request");
        let report = service.shutdown(Duration::from_secs(30));
        assert!(report.within_deadline);
    }
}

#[test]
fn corrupt_gds_session_open_is_structured() {
    let _serial = serial();
    let service = DetectionService::start(config(1)).unwrap();
    let bytes = write_gds(&fixtures::strap_under_bus(5, &rules()), "TOP");
    let mut opened = 0u32;
    let mut rejected = 0u32;
    for offset in 0..40 {
        let plan = FaultPlan {
            corrupt_gds: Some(seed().wrapping_add(offset * 131)),
            ..FaultPlan::default()
        };
        // A single flipped byte either still parses into a sane layout
        // (benign flip — the session opens and must then work) or is
        // rejected with a structured parse/sanitize error. Nothing else.
        match with_plan(plan, || service.open_session_gds(&bytes)) {
            Ok(session) => {
                opened += 1;
                let response = service.request(session, Request::Detect).unwrap();
                assert!(matches!(response.kind, ResponseKind::Detection { .. }));
                service.close_session(session).unwrap();
            }
            Err(e @ (ServiceError::Gds(_) | ServiceError::Layout(_))) => {
                rejected += 1;
                assert!(!e.to_string().is_empty());
            }
            Err(other) => panic!("unexpected corrupt-open error: {other}"),
        }
    }
    assert_eq!(opened + rejected, 40);
    assert!(rejected > 0, "40 byte flips should corrupt at least once");
    service.shutdown(Duration::from_secs(30));
}

#[test]
fn breaker_trips_cools_down_probes_and_recovers() {
    let _serial = serial();
    for parallelism in PARALLELISM {
        let mut c = config(parallelism);
        c.retry = RetryPolicy {
            max_retries: 0, // one attempt per request: failures count 1:1
            ..RetryPolicy::default()
        };
        c.breaker = BreakerConfig {
            trip_threshold: 2,
            cooldown_rejects: 2,
        };
        let service = DetectionService::start(c).unwrap();
        let session = open(&service);
        let plan = FaultPlan {
            panic_always: Some(FaultSite::EmbedComponent),
            ..FaultPlan::default()
        };

        // Two consecutive panic-class failures trip the breaker.
        for i in 0..2 {
            let err = with_plan(plan, || service.request(session, Request::Detect)).unwrap_err();
            assert!(
                matches!(err, ServiceError::Flow(FlowError::WorkerPanic(_))),
                "failure {i}: {err}"
            );
        }
        assert!(service.session_quarantined(session).unwrap());
        assert_eq!(service.metrics().breaker_trips, 1);

        // Cooldown: the next two submissions are shed at admission with
        // the structured quarantine error — no pipeline work runs.
        for _ in 0..2 {
            match service.submit(session, Request::Detect) {
                Err(ServiceError::CircuitOpen {
                    session: s,
                    consecutive_failures,
                }) => {
                    assert_eq!(s, session);
                    assert_eq!(consecutive_failures, 2);
                }
                other => panic!("expected CircuitOpen, got {:?}", other.map(|_| ())),
            }
        }
        assert_eq!(service.metrics().rejected_breaker, 2);

        // Half-open probe, injected to fail: the circuit re-opens.
        let err = with_plan(plan, || service.request(session, Request::Detect)).unwrap_err();
        assert!(matches!(err, ServiceError::Flow(FlowError::WorkerPanic(_))));
        assert!(service.session_quarantined(session).unwrap());
        assert!(matches!(
            service.submit(session, Request::Detect),
            Err(ServiceError::CircuitOpen { .. })
        ));
        let _ = service.submit(session, Request::Detect).map(|t| t.wait());

        // Next admission is the probe again — fault-free this time: it
        // succeeds against the rebuilt engine and closes the circuit.
        let probe = service.request(session, Request::Detect).unwrap();
        assert!(!probe.degraded());
        if let ResponseKind::Detection { conflicts, .. } = &probe.kind {
            assert_eq!(conflicts, &baseline_conflicts());
        }
        assert!(!service.session_quarantined(session).unwrap());

        // Closed again: normal traffic flows.
        service.request(session, Request::Ping).unwrap();
        let report = service.shutdown(Duration::from_secs(30));
        assert!(report.within_deadline);
    }
}

#[test]
fn faults_during_apply_cuts_roll_back_the_session_layout() {
    let _serial = serial();
    let rules = rules();
    // Two conflict clusters, one cut each. The edit applies only the
    // first cut: the whole plan would leave a bipartite layout, whose
    // re-detect never traces a face, so the armed embed fault could
    // never fire.
    let (layout, cuts) = partial_edit();
    let left = detect_conflicts(
        &extract_phase_geometry(&apply_cuts(&layout, &cuts), &rules),
        &DetectConfig::default(),
    );
    assert!(
        left.conflict_count() >= 1 && !left.stats.bipartite,
        "the partial edit must leave a conflict for the re-detect to solve"
    );
    for parallelism in PARALLELISM {
        let mut c = config(parallelism);
        c.retry = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        c.breaker = BreakerConfig {
            trip_threshold: 0,
            ..BreakerConfig::default()
        };
        let service = DetectionService::start(c).unwrap();
        let session = service.open_session(layout.clone()).unwrap();
        let committed = service.session_layout(session).unwrap();

        let plan = FaultPlan {
            panic_always: Some(FaultSite::EmbedComponent),
            ..FaultPlan::default()
        };
        let outcome = with_plan(plan, || {
            service.request(session, Request::ApplyCuts(cuts.clone()))
        });
        assert!(
            matches!(outcome, Err(ServiceError::Flow(FlowError::WorkerPanic(_)))),
            "p{parallelism}: persistent panic must surface"
        );
        assert_eq!(
            service.session_layout(session).unwrap(),
            committed,
            "p{parallelism}: failed edit must roll back wholesale"
        );

        // The same edit, fault-free, commits.
        let applied = service
            .request(session, Request::ApplyCuts(cuts.clone()))
            .unwrap();
        assert!(matches!(applied.kind, ResponseKind::Detection { .. }));
        assert_ne!(service.session_layout(session).unwrap(), committed);
        service.shutdown(Duration::from_secs(30));
    }
}
