//! Structured service errors. Every failure mode of the service surfaces
//! here with a rendering meant for operators (`Display`, with `source()`
//! chaining) — no `Debug` formatting required anywhere on the error path.

use crate::SessionId;
use aapsm_core::FlowError;
use aapsm_gds::GdsError;
use aapsm_layout::LayoutError;
use std::fmt;

/// Why the service could not produce a response.
#[derive(Clone, Debug)]
pub enum ServiceError {
    /// The admission queue is at its high-watermark; the request was
    /// shed without queueing — back off and resubmit.
    Overloaded {
        /// Queue depth observed at rejection.
        queue_depth: usize,
        /// The configured admission bound.
        capacity: usize,
    },
    /// The service is draining or stopped; no new work is admitted.
    ShuttingDown,
    /// No session with this id (never opened, or already closed).
    UnknownSession(SessionId),
    /// The session's circuit breaker is open after repeated panic-class
    /// failures; the session is quarantined until a half-open probe
    /// succeeds.
    CircuitOpen {
        /// The quarantined session.
        session: SessionId,
        /// Consecutive panic-class failures that opened the circuit.
        consecutive_failures: u32,
    },
    /// The session's layout failed sanitization at open.
    Layout(LayoutError),
    /// The GDS bytes could not be parsed into a valid layout.
    Gds(GdsError),
    /// The request's pipeline failed (budget exhaustion, uncorrectable
    /// conflicts, a panic that survived the retry policy, …).
    Flow(FlowError),
    /// Service configuration rejected at startup.
    InvalidConfig(String),
    /// The worker disappeared without replying — only possible after an
    /// abort-style teardown tore the reply channel down.
    Disconnected,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded {
                queue_depth,
                capacity,
            } => write!(
                f,
                "service overloaded: admission queue at {queue_depth}/{capacity}"
            ),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::UnknownSession(id) => write!(f, "unknown {id}"),
            ServiceError::CircuitOpen {
                session,
                consecutive_failures,
            } => write!(
                f,
                "circuit open for {session} after {consecutive_failures} consecutive failures"
            ),
            ServiceError::Layout(e) => write!(f, "invalid layout: {e}"),
            ServiceError::Gds(e) => write!(f, "invalid GDS stream: {e}"),
            ServiceError::Flow(e) => write!(f, "request failed: {e}"),
            ServiceError::InvalidConfig(msg) => write!(f, "invalid service config: {msg}"),
            ServiceError::Disconnected => write!(f, "worker disconnected without a reply"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Layout(e) => Some(e),
            ServiceError::Gds(e) => Some(e),
            ServiceError::Flow(e) => Some(e),
            ServiceError::Overloaded { .. }
            | ServiceError::ShuttingDown
            | ServiceError::UnknownSession(_)
            | ServiceError::CircuitOpen { .. }
            | ServiceError::InvalidConfig(_)
            | ServiceError::Disconnected => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_renders_without_debug() {
        let e = ServiceError::Overloaded {
            queue_depth: 64,
            capacity: 64,
        };
        assert_eq!(
            e.to_string(),
            "service overloaded: admission queue at 64/64"
        );
        let e = ServiceError::CircuitOpen {
            session: SessionId::from_raw(7),
            consecutive_failures: 3,
        };
        assert_eq!(
            e.to_string(),
            "circuit open for session-7 after 3 consecutive failures"
        );
        assert!(e.source().is_none());
        let e = ServiceError::Flow(FlowError::BadRules("bad".into()));
        assert!(e.source().is_some());
        assert!(ServiceError::ShuttingDown.source().is_none());
    }
}
