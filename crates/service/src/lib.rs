//! Resident AAPSM conflict-detection service with overload-robust
//! supervision.
//!
//! The batch entry points ([`aapsm_core::run_flow`],
//! [`aapsm_core::detect_conflicts`]) answer one layout per call and
//! forget everything between calls. This crate turns them into a
//! long-lived, multi-session **service**: open a layout once, keep an
//! [`aapsm_core::RedetectEngine`] session on it, and stream
//! edits/detections/corrections at it — the shape an interactive layout
//! editor or a batch verification farm needs. Each edit is detected from
//! scratch through the shared solve cache; a Detect of a layout the
//! session already detected exactly is answered from that report.
//!
//! Residency makes overload and partial failure the common case rather
//! than the exception, so the supervision model is explicit:
//!
//! * **Bounded admission** — requests queue up to a high-watermark and
//!   are then shed with [`ServiceError::Overloaded`]. Queue memory is
//!   bounded by construction; the service never accepts work it cannot
//!   remember.
//! * **Deadlines → budgets** — a per-request deadline becomes a pipeline
//!   [`aapsm_fault::Budget`], so "late" degenerates into the PR-6
//!   degradation ladder (degraded-but-truthful answers with verbatim
//!   provenance), not into a hung caller.
//! * **Load-adaptive degradation** — queue depth crossing ladder rungs
//!   tightens the stage caps of newly admitted requests
//!   ([`LoadLadder`]): under pressure the service answers faster and
//!   says so, instead of queueing toward the deadline.
//! * **Crash-only sessions** — a worker panic tears the session's engine
//!   down and rebuilds it from the retained sanitized layout; the retry
//!   policy ([`RetryPolicy`]) re-runs the request against the rebuilt
//!   engine with deterministic capped backoff. No panic unwinds through
//!   the API, no lock stays poisoned.
//! * **Circuit breaking** — a session failing repeatedly (panic-class
//!   only) is quarantined by a deterministic count-based breaker
//!   ([`BreakerConfig`]): shed, cool down, half-open probe, recover.
//! * **Graceful shutdown** — [`DetectionService::shutdown`] stops
//!   admission, drains in-flight work, and past the drain deadline
//!   broadcasts cancellation through every in-flight budget's
//!   [`aapsm_fault::CancelToken`]. Every admitted request is answered.
//!
//! Sessions share one capacity-bounded [`aapsm_core::SolveCache`] keyed
//! by canonical dual-T-join instance bytes, so identical subproblems hit
//! across sessions.
//!
//! ```
//! use aapsm_layout::{fixtures, DesignRules};
//! use aapsm_service::{DetectionService, Request, ServiceConfig};
//! use std::time::Duration;
//!
//! let rules = DesignRules::default();
//! let service = DetectionService::start(ServiceConfig::new(rules.clone())).unwrap();
//! let session = service
//!     .open_session(fixtures::strap_under_bus(3, &rules))
//!     .unwrap();
//! let response = service.request(session, Request::Detect).unwrap();
//! assert_eq!(response.attempts, 1);
//! let report = service.shutdown(Duration::from_secs(5));
//! assert!(report.within_deadline);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

mod breaker;
mod config;
mod error;
mod metrics;
mod service;

pub use config::{BreakerConfig, LadderRung, LoadLadder, RetryPolicy, ServiceConfig};
pub use error::ServiceError;
pub use metrics::MetricsSnapshot;
pub use service::{
    ConflictDelta, DetectionService, Request, RequestOptions, Response, ResponseKind, SessionId,
    ShutdownReport, Ticket,
};
