//! Service configuration: worker pool, admission bounds, deadlines,
//! retry/backoff, circuit breaking, and the load-adaptive budget ladder.

use aapsm_core::DetectConfig;
use aapsm_fault::BudgetSpec;
use aapsm_layout::DesignRules;
use std::time::Duration;

/// Request-level retry policy for *transient* failures (worker panics):
/// capped exponential backoff with **no jitter**, so every schedule is
/// deterministic and testable. Non-transient failures (budget trips, bad
/// input) are never retried — retrying them cannot succeed and only burns
/// the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail on first panic).
    pub max_retries: u32,
    /// Backoff before retry 1; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff before retrying after failed attempt
    /// `attempt` (0-based): `min(base · 2^attempt, max)`.
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_backoff
            .checked_mul(factor)
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff)
    }
}

/// Per-session circuit-breaker tuning. The breaker is **count-based**
/// (no clocks): it trips after `trip_threshold` consecutive panic-class
/// failures, sheds the next `cooldown_rejects` requests with a structured
/// error, then admits exactly one half-open probe whose outcome closes or
/// re-opens the circuit. Deterministic by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive panic-class failures that open the circuit
    /// (0 disables the breaker).
    pub trip_threshold: u32,
    /// Requests rejected while open before a half-open probe is admitted.
    pub cooldown_rejects: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_threshold: 3,
            cooldown_rejects: 2,
        }
    }
}

/// One rung of the load-adaptive degradation ladder: at admission depth
/// ≥ `min_depth`, new requests get `caps`' stage tick caps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LadderRung {
    /// Queue depth (including the incoming request) at which this rung
    /// engages.
    pub min_depth: usize,
    /// The stage caps applied to requests admitted at this rung. A
    /// `deadline` in the spec is honored only when tighter than the
    /// request's own deadline.
    pub caps: BudgetSpec,
}

/// The load-adaptive ladder: as queue depth crosses rung thresholds, new
/// requests are admitted with tighter stage caps, so under pressure
/// answers arrive **degraded but truthful** (the tightened budget walks
/// the PR-6 degradation ladder, and the provenance reaches the client
/// verbatim) instead of queueing toward the deadline.
///
/// Rungs must be sorted by ascending `min_depth`; the deepest engaged
/// rung wins. An empty ladder never tightens anything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadLadder {
    /// The rungs, ascending by `min_depth`.
    pub rungs: Vec<LadderRung>,
}

impl LoadLadder {
    /// A two-rung default for a queue bounded at `capacity`: moderate
    /// caps from half-full, tight caps from three-quarters full. The
    /// absolute tick numbers are generous for the bench designs and
    /// exist to bound tail latency, not to degrade light traffic.
    fn default_for(capacity: usize) -> LoadLadder {
        LoadLadder {
            rungs: vec![
                LadderRung {
                    min_depth: (capacity / 2).max(2),
                    caps: BudgetSpec {
                        matching_ticks: Some(5_000_000),
                        cover_ticks: Some(500_000),
                        ..BudgetSpec::default()
                    },
                },
                LadderRung {
                    min_depth: (capacity * 3 / 4).max(3),
                    caps: BudgetSpec {
                        embed_ticks: Some(1_000_000),
                        matching_ticks: Some(500_000),
                        cover_ticks: Some(50_000),
                        ..BudgetSpec::default()
                    },
                },
            ],
        }
    }

    /// The ladder level engaged at admission depth `depth` (0 = no
    /// tightening, `k` = rung `k` counted from 1).
    pub(crate) fn level_for(&self, depth: usize) -> usize {
        self.rungs
            .iter()
            .take_while(|r| depth >= r.min_depth)
            .count()
    }

    /// The caps of the deepest rung engaged at `depth`, if any.
    pub(crate) fn caps_for(&self, depth: usize) -> Option<BudgetSpec> {
        match self.level_for(depth) {
            0 => None,
            level => self.rungs.get(level - 1).map(|r| r.caps),
        }
    }
}

/// Configuration of a [`crate::DetectionService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Design rules shared by every session.
    pub rules: DesignRules,
    /// Worker-pool size — the workspace `parallelism` knob at the
    /// service layer: `0` = one worker per available CPU, `k` = `k`
    /// workers. Each worker processes one request at a time.
    pub workers: usize,
    /// Parallelism degree *inside* one request's pipeline. The default
    /// (1, serial) is right for a loaded service: cross-request
    /// parallelism comes from the pool.
    pub request_parallelism: usize,
    /// Admission high-watermark: submissions beyond this many queued
    /// requests are rejected with
    /// [`crate::ServiceError::Overloaded`] — queue memory is bounded by
    /// construction, never by luck.
    pub queue_capacity: usize,
    /// Deadline applied to requests that don't carry their own, measured
    /// from admission. `None` = unlimited.
    pub default_deadline: Option<Duration>,
    /// Detection pipeline template for every session engine. Its
    /// `parallelism` is overridden per request (and each request runs
    /// under its own deadline budget); every session uses its
    /// `tjoin` configuration. The shared solve cache keys each
    /// entry by T-join method, so a cache shared with differently
    /// configured engines never serves one method's join to another.
    pub detect: DetectConfig,
    /// Round cap for [`crate::Request::RunFlow`].
    pub max_rounds: usize,
    /// Transient-failure retry policy.
    pub retry: RetryPolicy,
    /// Per-session circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// The load-adaptive budget ladder.
    pub ladder: LoadLadder,
    /// Entry bound of the cross-session dual-T-join solve cache.
    pub cache_capacity: usize,
}

impl ServiceConfig {
    /// A deployable default: 64-deep admission queue, the matching
    /// two-rung ladder, one worker per CPU.
    pub fn new(rules: DesignRules) -> ServiceConfig {
        let queue_capacity = 64;
        ServiceConfig {
            rules,
            workers: 0,
            request_parallelism: 1,
            queue_capacity,
            default_deadline: None,
            detect: DetectConfig::default(),
            max_rounds: 8,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            ladder: LoadLadder::default_for(queue_capacity),
            cache_capacity: aapsm_core::SolveCache::DEFAULT_CAPACITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_doubling() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(9),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(2));
        assert_eq!(p.backoff(1), Duration::from_millis(4));
        assert_eq!(p.backoff(2), Duration::from_millis(8));
        assert_eq!(p.backoff(3), Duration::from_millis(9));
        assert_eq!(
            p.backoff(200),
            Duration::from_millis(9),
            "shift overflow capped"
        );
    }

    #[test]
    fn ladder_levels_engage_by_depth() {
        let ladder = LoadLadder::default_for(8);
        assert_eq!(ladder.level_for(0), 0);
        assert_eq!(ladder.level_for(3), 0);
        assert_eq!(ladder.level_for(4), 1);
        assert_eq!(ladder.level_for(5), 1);
        assert_eq!(ladder.level_for(6), 2);
        assert_eq!(ladder.level_for(100), 2);
        assert!(ladder.caps_for(2).is_none());
        assert_eq!(ladder.caps_for(6).and_then(|c| c.cover_ticks), Some(50_000));
        assert_eq!(LoadLadder::default().level_for(usize::MAX), 0);
    }
}
