//! Functional contract of the resident detection service: session
//! lifecycle, conflict deltas, kept-report replay, cross-session
//! cache hits, exact answers to concurrent clients, bounded admission,
//! load-adaptive degradation, deadlines, and graceful shutdown. Runs
//! fault-free (debug and release alike); the injected-fault behavior
//! lives in `fault_injection_service.rs`.

use aapsm_core::{detect_conflicts, run_flow, DetectConfig, FlowConfig};
use aapsm_layout::synth::{generate, SynthParams};
use aapsm_layout::{extract_phase_geometry, fixtures, DesignRules};
use aapsm_service::{BreakerConfig, RetryPolicy};
use aapsm_service::{
    DetectionService, LadderRung, LoadLadder, Request, RequestOptions, ResponseKind, ServiceConfig,
    ServiceError, Ticket,
};
use std::sync::Barrier;
use std::time::Duration;

fn rules() -> DesignRules {
    DesignRules::default()
}

fn config() -> ServiceConfig {
    let mut c = ServiceConfig::new(rules());
    c.workers = 2;
    c
}

fn detection(kind: &ResponseKind) -> (&Vec<aapsm_core::Conflict>, &aapsm_service::ConflictDelta) {
    match kind {
        ResponseKind::Detection {
            conflicts, delta, ..
        } => (conflicts, delta),
        other => panic!("expected a detection, got {other:?}"),
    }
}

#[test]
fn ping_detect_flow_detect_delta_roundtrip() {
    let service = DetectionService::start(config()).unwrap();
    let session = service
        .open_session(fixtures::strap_under_bus(5, &rules()))
        .unwrap();

    let ping = service.request(session, Request::Ping).unwrap();
    assert!(matches!(ping.kind, ResponseKind::Pong));
    assert_eq!(ping.attempts, 1);

    // First detection: everything is new.
    let first = service.request(session, Request::Detect).unwrap();
    let (conflicts, delta) = detection(&first.kind);
    assert!(!conflicts.is_empty(), "fixture should conflict");
    assert_eq!(&delta.added, conflicts);
    assert!(delta.removed.is_empty());
    assert!(!first.degraded());
    let baseline = conflicts.clone();

    // Repeat detection of an unchanged layout: the kept report, empty
    // delta.
    let second = service.request(session, Request::Detect).unwrap();
    let (conflicts2, delta2) = detection(&second.kind);
    assert_eq!(conflicts2, &baseline, "warm re-detection must be identical");
    assert!(delta2.added.is_empty() && delta2.removed.is_empty());
    if let ResponseKind::Detection { stats, .. } = &second.kind {
        assert!(
            stats.incremental,
            "warm session should re-detect incrementally"
        );
    }

    // Full flow corrects the layout and commits it.
    let flow = service.request(session, Request::RunFlow).unwrap();
    let ResponseKind::Flow(result) = &flow.kind else {
        panic!("expected a flow result");
    };
    assert!(result.verified, "fixture should be correctable");
    assert_eq!(
        service.session_layout(session).unwrap(),
        result.correction.modified,
        "corrected layout must be committed to the session"
    );

    // Post-flow detection: conflicts gone, delta says which disappeared.
    let after = service.request(session, Request::Detect).unwrap();
    let (conflicts3, delta3) = detection(&after.kind);
    assert!(conflicts3.is_empty(), "corrected layout must be clean");
    assert!(delta3.added.is_empty());
    assert_eq!(
        delta3.removed, baseline,
        "delta must report exactly the conflicts the flow removed"
    );

    let m = service.metrics();
    assert_eq!(m.submitted, 5);
    assert_eq!(m.admitted, 5);
    assert_eq!(m.completed, 5);
    assert_eq!(m.failed, 0);

    let report = service.shutdown(Duration::from_secs(10));
    assert!(report.within_deadline);
}

#[test]
fn apply_cuts_matches_the_flow_and_commits() {
    let rules = rules();
    let layout = fixtures::strap_under_bus(5, &rules);
    let flow = run_flow(&layout, &rules, &FlowConfig::default()).unwrap();
    assert!(flow.verified);

    let service = DetectionService::start(config()).unwrap();
    let session = service.open_session(layout).unwrap();
    let before = service.request(session, Request::Detect).unwrap();
    let (c0, _) = detection(&before.kind);
    assert_eq!(c0, &flow.detection.conflicts);

    let applied = service
        .request(session, Request::ApplyCuts(flow.plan.cuts.clone()))
        .unwrap();
    let (c1, delta) = detection(&applied.kind);
    assert_eq!(
        delta.removed.len() as i64 - delta.added.len() as i64,
        c0.len() as i64 - c1.len() as i64
    );
    if flow.round_count() == 2 && flow.final_conflicts() == 0 {
        // One correction round sufficed: the service edit must land on
        // exactly the flow's corrected layout with zero conflicts.
        assert!(c1.is_empty());
        assert_eq!(
            service.session_layout(session).unwrap(),
            flow.correction.modified
        );
    }
    service.shutdown(Duration::from_secs(10));
}

#[test]
fn overload_is_shed_and_queue_stays_bounded() {
    let mut c = config();
    c.workers = 1;
    c.queue_capacity = 3;
    c.ladder = LoadLadder::default(); // no tightening: isolate shedding
    let service = DetectionService::start(c).unwrap();
    let rules = rules();

    // Cold detections are orders of magnitude slower than submissions,
    // so a burst of 40 against a 3-deep queue must shed.
    let sessions: Vec<_> = (0..40)
        .map(|_| {
            service
                .open_session(fixtures::strap_under_bus(6, &rules))
                .unwrap()
        })
        .collect();
    let mut tickets: Vec<Ticket> = Vec::new();
    let mut shed = 0u64;
    for &s in &sessions {
        match service.submit(s, Request::Detect) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::Overloaded {
                queue_depth,
                capacity,
            }) => {
                assert_eq!(capacity, 3);
                assert!(queue_depth >= capacity, "shed below the watermark");
                shed += 1;
            }
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    assert!(shed > 0, "burst must overflow the 3-deep queue");

    // Every admitted request is answered.
    for t in tickets {
        t.wait().unwrap();
    }
    let m = service.metrics();
    assert_eq!(m.submitted, 40);
    assert_eq!(m.admitted + m.rejected_overload, 40);
    assert_eq!(m.rejected_overload, shed);
    assert!(
        m.max_queue_depth <= 3,
        "queue grew past its bound: {}",
        m.max_queue_depth
    );
    let report = service.shutdown(Duration::from_secs(10));
    assert!(report.within_deadline);
}

#[test]
fn load_ladder_tightens_admissions_under_pressure() {
    let mut c = config();
    c.workers = 1;
    c.queue_capacity = 32;
    // One rung: from depth 2, cap the matching stage hard enough that
    // detection degrades to the greedy fallback.
    c.ladder = LoadLadder {
        rungs: vec![LadderRung {
            min_depth: 2,
            caps: aapsm_core::BudgetSpec {
                matching_ticks: Some(1),
                ..aapsm_core::BudgetSpec::default()
            },
        }],
    };
    let service = DetectionService::start(c).unwrap();
    let rules = rules();
    let baseline = {
        let flow = run_flow(
            &fixtures::strap_under_bus(6, &rules),
            &rules,
            &FlowConfig::default(),
        )
        .unwrap();
        flow.detection.conflicts
    };

    let sessions: Vec<_> = (0..12)
        .map(|_| {
            service
                .open_session(fixtures::strap_under_bus(6, &rules))
                .unwrap()
        })
        .collect();
    let tickets: Vec<_> = sessions
        .iter()
        .map(|&s| service.submit(s, Request::Detect).unwrap())
        .collect();

    let mut tightened = 0;
    for t in tickets {
        let response = t.wait().unwrap();
        if response.ladder_level > 0 {
            tightened += 1;
        }
        // The truthfulness contract end-to-end: an answer that does not
        // flag degradation must be the exact answer.
        let (conflicts, _) = detection(&response.kind);
        if !response.degraded() {
            assert_eq!(conflicts, &baseline);
        }
    }
    assert!(tightened > 0, "burst should cross the depth-2 rung");
    assert_eq!(service.metrics().ladder_tightened, tightened);
    service.shutdown(Duration::from_secs(10));
}

#[test]
fn expired_deadline_fails_fast_and_structured() {
    let service = DetectionService::start(config()).unwrap();
    let session = service
        .open_session(fixtures::strap_under_bus(4, &rules()))
        .unwrap();
    let err = service
        .request_with(
            session,
            Request::Detect,
            RequestOptions {
                deadline: Some(Duration::ZERO),
            },
        )
        .unwrap_err();
    match &err {
        ServiceError::Flow(aapsm_core::FlowError::Budget(_)) => {}
        other => panic!("expected a budget error, got {other}"),
    }
    // Renders for operators without Debug formatting.
    assert!(err.to_string().contains("exhausted"), "got: {err}");
    // A deadline miss is not poison: the session stays usable.
    let ok = service.request(session, Request::Detect).unwrap();
    assert!(matches!(ok.kind, ResponseKind::Detection { .. }));
    assert_eq!(
        service.metrics().retries,
        0,
        "budget errors are never retried"
    );
    service.shutdown(Duration::from_secs(10));
}

#[test]
fn solve_cache_is_shared_across_sessions() {
    let service = DetectionService::start(config()).unwrap();
    let rules = rules();
    let a = service
        .open_session(fixtures::strap_under_bus(5, &rules))
        .unwrap();
    let b = service
        .open_session(fixtures::strap_under_bus(5, &rules))
        .unwrap();

    let first = service.request(a, Request::Detect).unwrap();
    let second = service.request(b, Request::Detect).unwrap();
    let (ca, _) = detection(&first.kind);
    let (cb, _) = detection(&second.kind);
    assert_eq!(ca, cb, "cache hits must be bit-identical to fresh solves");
    if let ResponseKind::Detection { stats, .. } = &second.kind {
        assert!(
            stats.solve_hits > 0,
            "second session should hit the shared cache"
        );
        assert_eq!(stats.solve_misses, 0);
    }
    let cache = service.cache_stats();
    assert!(cache.hits > 0);
    service.shutdown(Duration::from_secs(10));
}

/// RunFlow solves through the shared cache too: a Detect on session A
/// seeds it, so a RunFlow on session B of the same layout answers its
/// first round from A's entries — and still returns exactly what a
/// cache-less one-shot flow returns.
#[test]
fn run_flow_shares_the_solve_cache_across_sessions() {
    let rules = rules();
    let layout = fixtures::strap_under_bus(5, &rules);
    let oracle = run_flow(&layout, &rules, &FlowConfig::default()).unwrap();
    assert!(oracle.verified);

    let service = DetectionService::start(config()).unwrap();
    let a = service.open_session(layout.clone()).unwrap();
    let b = service.open_session(layout).unwrap();
    service.request(a, Request::Detect).unwrap();
    let before = service.cache_stats();
    let flow = service.request(b, Request::RunFlow).unwrap();
    let after = service.cache_stats();
    assert!(
        after.hits > before.hits,
        "RunFlow must hit the entries session A seeded: {before:?} -> {after:?}"
    );
    let ResponseKind::Flow(result) = &flow.kind else {
        panic!("expected a flow result, got {:?}", flow.kind);
    };
    assert_eq!(result.detection.conflicts, oracle.detection.conflicts);
    assert_eq!(result.plan, oracle.plan);
    assert_eq!(result.correction.modified, oracle.correction.modified);
    assert_eq!(result.rounds, oracle.rounds);
    service.shutdown(Duration::from_secs(10));
}

/// Concurrent clients on warm sessions get exact answers: two client
/// threads each stream `Detect`s at two sessions of one synthetic
/// design, and every answer is non-degraded and bit-identical to the
/// direct pipeline. The drain afterwards finishes within its deadline.
#[test]
fn concurrent_clients_get_exact_answers() {
    let rules = rules();
    let layout = generate(
        &SynthParams {
            rows: 2,
            gates_per_row: 40,
            strap_frac: 0.75,
            jog_frac: 0.08,
            short_mid_frac: 0.06,
            seed: 31,
            ..SynthParams::default()
        },
        &rules,
    );
    let baseline = detect_conflicts(
        &extract_phase_geometry(&layout, &rules),
        &DetectConfig::default(),
    )
    .conflicts;
    assert!(!baseline.is_empty(), "design should conflict");

    let service = DetectionService::start(config()).unwrap();
    let sessions: Vec<_> = (0..4)
        .map(|_| service.open_session(layout.clone()).unwrap())
        .collect();
    // Both clients start together, so their requests overlap in the queue.
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for pair in sessions.chunks(2) {
            let (service, baseline, start) = (&service, &baseline, &start);
            scope.spawn(move || {
                start.wait();
                for _ in 0..3 {
                    for &session in pair {
                        let response = service.request(session, Request::Detect).unwrap();
                        assert!(!response.degraded(), "unloaded service degraded an answer");
                        let (conflicts, _) = detection(&response.kind);
                        assert_eq!(
                            conflicts, baseline,
                            "service answer diverged from the direct pipeline"
                        );
                    }
                }
            });
        }
    });
    assert_eq!(service.metrics().completed, 12);
    let report = service.shutdown(Duration::from_secs(30));
    assert!(report.within_deadline, "drain should finish well in time");
}

#[test]
fn session_lifecycle_errors_are_structured() {
    let service = DetectionService::start(config()).unwrap();
    let session = service
        .open_session(fixtures::strap_under_bus(4, &rules()))
        .unwrap();
    assert_eq!(service.session_count(), 1);
    service.close_session(session).unwrap();
    assert_eq!(service.session_count(), 0);
    match service.submit(session, Request::Ping) {
        Err(ServiceError::UnknownSession(id)) => assert_eq!(id, session),
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    match service.close_session(session) {
        Err(ServiceError::UnknownSession(_)) => {}
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    service.shutdown(Duration::from_secs(10));
}

#[test]
fn graceful_shutdown_drains_and_answers_everything() {
    let mut c = config();
    c.workers = 1;
    let service = DetectionService::start(c).unwrap();
    let rules = rules();
    let sessions: Vec<_> = (0..6)
        .map(|_| {
            service
                .open_session(fixtures::strap_under_bus(5, &rules))
                .unwrap()
        })
        .collect();
    let tickets: Vec<_> = sessions
        .iter()
        .map(|&s| service.submit(s, Request::Detect).unwrap())
        .collect();
    let report = service.shutdown(Duration::from_secs(30));
    assert!(report.within_deadline, "drain should finish well in time");
    assert_eq!(report.shed, 0);
    for t in tickets {
        t.wait().unwrap();
    }
}

#[test]
fn abort_shutdown_cancels_but_still_answers_everything() {
    let mut c = config();
    c.workers = 1;
    c.retry = RetryPolicy {
        max_retries: 0,
        ..RetryPolicy::default()
    };
    c.breaker = BreakerConfig {
        trip_threshold: 0,
        ..BreakerConfig::default()
    };
    let service = DetectionService::start(c).unwrap();
    let rules = rules();
    let sessions: Vec<_> = (0..6)
        .map(|_| {
            service
                .open_session(fixtures::strap_under_bus(12, &rules))
                .unwrap()
        })
        .collect();
    let tickets: Vec<_> = sessions
        .iter()
        .map(|&s| service.submit(s, Request::RunFlow).unwrap())
        .collect();
    // Zero drain budget: escalate immediately — cancel in-flight work,
    // shed the queue. Nothing may hang and every ticket must answer.
    let report = service.shutdown(Duration::ZERO);
    assert!(!report.within_deadline);
    for t in tickets {
        match t.wait() {
            Ok(_) => {}
            Err(ServiceError::ShuttingDown) => {}
            Err(ServiceError::Flow(aapsm_core::FlowError::Budget(e))) => {
                assert_eq!(e.reason, aapsm_core::ExhaustReason::Cancelled);
            }
            Err(other) => panic!("unexpected abort-path error: {other}"),
        }
    }
}

#[test]
fn invalid_config_is_rejected_at_startup() {
    let mut c = config();
    c.queue_capacity = 0;
    match DetectionService::start(c) {
        Err(ServiceError::InvalidConfig(msg)) => assert!(msg.contains("queue_capacity")),
        other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
    }
}
