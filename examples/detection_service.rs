//! Resident detection service: open a session, stream detect/correct
//! requests at it, and watch the supervision machinery (per-session
//! re-detection, conflict deltas, shared solve cache, graceful drain).
//!
//! Run with: `cargo run --release --example detection_service`

use aapsm::layout::{fixtures, DesignRules};
use aapsm::service::{DetectionService, Request, ResponseKind, ServiceConfig};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rules = DesignRules::default();
    let mut config = ServiceConfig::new(rules);
    config.default_deadline = Some(Duration::from_secs(10));
    let service = DetectionService::start(config)?;

    // Two tenants of the same service: the second session's solves are
    // warmed by cache entries the first one seeded.
    let a = service.open_session(fixtures::strap_under_bus(5, &rules))?;
    let b = service.open_session(fixtures::strap_under_bus(5, &rules))?;
    println!(
        "opened {a} and {b} ({} sessions resident)",
        service.session_count()
    );

    // Cold detection on session A: a full pipeline run.
    let first = service.request(a, Request::Detect)?;
    let ResponseKind::Detection {
        conflicts, delta, ..
    } = &first.kind
    else {
        unreachable!("Detect always answers with Detection");
    };
    println!(
        "{a}: cold detect found {} conflict(s) ({} new), degraded: {}",
        conflicts.len(),
        delta.added.len(),
        first.degraded()
    );

    // Correct in place: RunFlow commits the modified layout back into
    // the session, so the next detection sees the fixed geometry.
    let corrected = service.request(a, Request::RunFlow)?;
    let ResponseKind::Flow(flow) = &corrected.kind else {
        unreachable!("RunFlow always answers with Flow");
    };
    println!(
        "{a}: flow fixed {} conflict(s) with {} end-to-end space(s) (+{:.2}% area), verified: {}",
        flow.detection.conflict_count(),
        flow.plan.grid_line_count(),
        flow.correction.area_increase_pct,
        flow.verified
    );

    // Re-detection: the delta records every conflict the
    // correction removed, and the committed layout now detects clean.
    let after = service.request(a, Request::Detect)?;
    if let ResponseKind::Detection {
        conflicts, delta, ..
    } = &after.kind
    {
        println!(
            "{a}: re-detect: {} conflict(s) remain, delta -{} / +{}",
            conflicts.len(),
            delta.removed.len(),
            delta.added.len()
        );
    }

    // Session B solves the identical instance: its dual T-joins hit the
    // cache entries session A populated.
    service.request(b, Request::RunFlow)?;
    let cache = service.cache_stats();
    println!(
        "shared solve cache: {} hits / {} misses across both sessions",
        cache.hits, cache.misses
    );

    let metrics = service.metrics();
    println!(
        "metrics: {} admitted, {} completed, {} retries, {} degraded, peak queue depth {}",
        metrics.admitted,
        metrics.completed,
        metrics.retries,
        metrics.degraded,
        metrics.max_queue_depth
    );

    let report = service.shutdown(Duration::from_secs(5));
    println!(
        "shutdown: drained {} in-flight, within deadline: {}",
        report.drained, report.within_deadline
    );
    assert!(report.within_deadline);
    Ok(())
}
