//! Work budgets, deadlines, cooperative cancellation and deterministic
//! fault injection for the AAPSM detect→correct→verify flow.
//!
//! # Budgets
//!
//! A [`Budget`] bounds how much work the pipeline may spend before it has
//! to degrade gracefully instead of running to completion: a wall-clock
//! deadline, per-[`Stage`] work caps (in abstract *ticks* — graph
//! constraints built, components traced, matching phases, branch-and-bound nodes), and a
//! cooperative [`CancelToken`]. Long loops call [`Budget::charge`]; stage
//! boundaries call [`Budget::check`]. Both return [`BudgetExceeded`] when
//! the budget is spent, and the caller is expected to fall back down the
//! degradation ladder (exact cover → greedy, optimal bipartization →
//! parity heuristic, …) while *truthfully recording the degradation* in
//! the flow's provenance — a budgeted answer must never masquerade as a
//! proven one.
//!
//! The default budget is [`Budget::unlimited`]: a `None` arc, so the hot
//! paths pay one pointer test and nothing else. Work caps are charged
//! into shared atomic counters, so whether a cap trips depends only on
//! the total work of the item set, not on worker scheduling — the
//! *decision* to degrade is deterministic even under parallelism (the
//! wall-clock deadline is inherently not, which is fine: either way the
//! result is truthfully flagged).
//!
//! # Fault injection
//!
//! The [`FaultPlan`] hooks exist **only in debug builds** (release
//! compiles them to nothing — [`enabled`] is a `const fn` on
//! `cfg!(debug_assertions)`, asserted zero-cost by the benchmark
//! harness). A test installs a plan with [`with_plan`] — armed scopes
//! are serialized against each other, but the plan is process-global, so
//! a concurrently running *un-armed* test still sees it (see
//! [`with_plan`]) — and the instrumented sites ([`hit`] at face traces,
//! cover components; forced exhaustion inside
//! [`Budget::charge`]/[`Budget::check`]; a byte flip in the GDS reader)
//! fire deterministically at the planned occurrence. The property the
//! whole workspace tests against these hooks: *every injected fault
//! yields either a bit-identical complete result or a truthfully flagged
//! degraded/error result — never a silently wrong one.*
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipeline stages that carry independent work budgets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Conflict-graph construction (one tick per constraint).
    GraphBuild,
    /// Face tracing / dual construction per component.
    Embed,
    /// Blossom matching (dual adjustment phases).
    Matching,
    /// Set-cover branch-and-bound (search nodes).
    Cover,
}

impl Stage {
    /// Number of stages (array sizing).
    pub const COUNT: usize = 4;

    fn index(self) -> usize {
        match self {
            Stage::GraphBuild => 0,
            Stage::Embed => 1,
            Stage::Matching => 2,
            Stage::Cover => 3,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Stage::GraphBuild => "graph-build",
            Stage::Embed => "embed",
            Stage::Matching => "matching",
            Stage::Cover => "cover",
        };
        write!(f, "{name}")
    }
}

/// Why a budget refused further work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExhaustReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The stage's work cap was spent.
    WorkCap,
    /// The [`CancelToken`] was triggered.
    Cancelled,
    /// A fault-injection plan forced the exhaustion (debug builds only).
    Injected,
}

impl fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ExhaustReason::Deadline => "deadline expired",
            ExhaustReason::WorkCap => "work cap spent",
            ExhaustReason::Cancelled => "cancelled",
            ExhaustReason::Injected => "injected exhaustion",
        };
        write!(f, "{name}")
    }
}

/// A budget refused further work; callers degrade (truthfully) or abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The stage that was charging when the budget tripped.
    pub stage: Stage,
    /// What was exhausted.
    pub reason: ExhaustReason,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exceeded in {} stage: {}",
            self.stage, self.reason
        )
    }
}

impl std::error::Error for BudgetExceeded {}

struct BudgetInner {
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    caps: [u64; Stage::COUNT],
    used: [AtomicU64; Stage::COUNT],
    /// Charge counter driving the periodic deadline poll.
    polls: AtomicU64,
}

/// `charge` polls the wall clock once per this many charges (power of
/// two); `check` polls unconditionally.
const DEADLINE_POLL_MASK: u64 = 0x3ff;

/// Work/deadline/cancellation bounds shared by every worker of one flow.
///
/// Cloning is cheap (an `Arc`); all clones observe the same counters and
/// the same cancellation flag. See the crate docs for semantics.
#[derive(Clone, Default)]
pub struct Budget {
    inner: Option<Arc<BudgetInner>>,
}

/// Declarative description of a [`Budget`]; `None` fields are unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Wall-clock deadline, measured from [`BudgetSpec::build`].
    pub deadline: Option<Duration>,
    /// Tick cap for [`Stage::GraphBuild`].
    pub graph_build_ticks: Option<u64>,
    /// Tick cap for [`Stage::Embed`].
    pub embed_ticks: Option<u64>,
    /// Tick cap for [`Stage::Matching`].
    pub matching_ticks: Option<u64>,
    /// Tick cap for [`Stage::Cover`].
    pub cover_ticks: Option<u64>,
}

impl BudgetSpec {
    /// Materializes the spec into a live budget (the deadline clock
    /// starts now). An all-`None` spec still yields a *limited* budget —
    /// one that never trips on its own but supports cancellation.
    pub fn build(&self) -> Budget {
        let cap = |c: Option<u64>| c.unwrap_or(u64::MAX);
        Budget {
            inner: Some(Arc::new(BudgetInner {
                deadline: self.deadline.map(|d| Instant::now() + d),
                cancelled: AtomicBool::new(false),
                caps: [
                    cap(self.graph_build_ticks),
                    cap(self.embed_ticks),
                    cap(self.matching_ticks),
                    cap(self.cover_ticks),
                ],
                used: Default::default(),
                polls: AtomicU64::new(0),
            })),
        }
    }
}

impl Budget {
    /// The default: no deadline, no caps, not cancellable, near-zero
    /// overhead on every `charge`/`check`.
    pub fn unlimited() -> Budget {
        Budget { inner: None }
    }

    /// A token that cancels this budget cooperatively from another
    /// thread. `None` for unlimited budgets (build one from an empty
    /// [`BudgetSpec`] to get cancellation without other limits).
    pub fn cancel_token(&self) -> Option<CancelToken> {
        self.inner.as_ref().map(|inner| CancelToken {
            inner: Arc::clone(inner),
        })
    }

    /// Ticks charged to `stage` so far (0 for unlimited budgets).
    pub fn used(&self, stage: Stage) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.used[stage.index()].load(Ordering::Relaxed))
    }

    /// Stage-boundary check: cancellation, injected exhaustion, and an
    /// unconditional deadline poll. Charges no work.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] when the budget refuses further work.
    pub fn check(&self, stage: Stage) -> Result<(), BudgetExceeded> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        #[cfg(debug_assertions)]
        injected_exhaust(stage)?;
        if inner.cancelled.load(Ordering::Relaxed) {
            return Err(BudgetExceeded {
                stage,
                reason: ExhaustReason::Cancelled,
            });
        }
        if inner.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(BudgetExceeded {
                stage,
                reason: ExhaustReason::Deadline,
            });
        }
        Ok(())
    }

    /// Charges `ticks` of work to `stage` and fails once the stage cap is
    /// spent (shared across all clones, so the trip decision depends only
    /// on total work, not scheduling). Polls the deadline every 1024
    /// charges.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] when the budget refuses further work.
    pub fn charge(&self, stage: Stage, ticks: u64) -> Result<(), BudgetExceeded> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        #[cfg(debug_assertions)]
        injected_exhaust(stage)?;
        let i = stage.index();
        let used = inner.used[i].fetch_add(ticks, Ordering::Relaxed) + ticks;
        if used > inner.caps[i] {
            return Err(BudgetExceeded {
                stage,
                reason: ExhaustReason::WorkCap,
            });
        }
        if inner.cancelled.load(Ordering::Relaxed) {
            return Err(BudgetExceeded {
                stage,
                reason: ExhaustReason::Cancelled,
            });
        }
        if inner.deadline.is_some() {
            let p = inner.polls.fetch_add(1, Ordering::Relaxed);
            if p & DEADLINE_POLL_MASK == 0 && inner.deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(BudgetExceeded {
                    stage,
                    reason: ExhaustReason::Deadline,
                });
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Budget::unlimited"),
            Some(inner) => f
                .debug_struct("Budget")
                .field("deadline", &inner.deadline)
                .field("cancelled", &inner.cancelled.load(Ordering::Relaxed))
                .field("caps", &inner.caps)
                .finish(),
        }
    }
}

/// Cancels the [`Budget`] it was taken from; every subsequent
/// `charge`/`check` on any clone fails with
/// [`ExhaustReason::Cancelled`].
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<BudgetInner>,
}

impl CancelToken {
    /// Triggers cancellation (idempotent).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .finish()
    }
}

// ---------------------------------------------------------------------
// Deterministic fault injection (debug builds only).
// ---------------------------------------------------------------------

/// Instrumented sites a [`FaultPlan`] can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// One component face trace of the embedding back-end.
    EmbedComponent,
    /// One per-component set-cover solve of the correction planner.
    CoverComponent,
    /// One record of a GDS stream being read.
    GdsRecord,
}

impl FaultSite {
    #[cfg(debug_assertions)]
    const COUNT: usize = 3;

    #[cfg(debug_assertions)]
    fn index(self) -> usize {
        match self {
            FaultSite::EmbedComponent => 0,
            FaultSite::CoverComponent => 1,
            FaultSite::GdsRecord => 2,
        }
    }
}

/// A deterministic fault schedule, installed with [`with_plan`].
///
/// All occurrence counts are 0-based and shared across worker threads
/// (which occurrence a given *item* is may depend on scheduling; the
/// tested invariant — bit-identical or truthfully flagged — does not).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic on the n-th [`hit`] of the site.
    pub panic_at: Option<(FaultSite, u64)>,
    /// Panic on **every** [`hit`] of the site (defeats the retry-once
    /// healing, driving the flow's structured panic error path).
    pub panic_always: Option<FaultSite>,
    /// Force [`BudgetExceeded`] from the n-th charge/check of the stage
    /// onward. Applies only to budgets built from a [`BudgetSpec`];
    /// [`Budget::unlimited`] stays genuinely infallible even under an
    /// armed plan (the unbudgeted entry points rely on that).
    pub exhaust_at: Option<(Stage, u64)>,
    /// Flip one byte of the GDS stream being read, at this seed offset
    /// (reduced modulo the stream length).
    pub corrupt_gds: Option<u64>,
}

/// Whether the fault hooks are compiled in. `false` in release builds —
/// every hook is a no-op there. The end-to-end benchmark (`perfbench`)
/// refuses to time any build where this is `true`.
pub const fn enabled() -> bool {
    cfg!(debug_assertions)
}

#[cfg(debug_assertions)]
mod active {
    use super::*;
    use std::sync::Mutex;

    pub(super) struct ActivePlan {
        pub(super) plan: FaultPlan,
        pub(super) site_hits: [AtomicU64; FaultSite::COUNT],
        pub(super) charges: AtomicU64,
    }

    /// The installed plan; hooks read it, [`with_plan`] swaps it.
    pub(super) static PLAN: Mutex<Option<Arc<ActivePlan>>> = Mutex::new(None);
    /// Serializes whole [`with_plan`] scopes against each other.
    pub(super) static SCOPE: Mutex<()> = Mutex::new(());

    pub(super) fn current() -> Option<Arc<ActivePlan>> {
        PLAN.lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(Arc::clone)
    }
}

/// Runs `f` with `plan` armed, then disarms it (even if `f` panics).
///
/// Armed scopes are serialized against each other: concurrent `with_plan`
/// calls queue here instead of sharing occurrence counters. The plan
/// itself is **process-global**, though: while it is armed, every
/// instrumented site on every thread reads it, including code a
/// concurrently running test executes *outside* any `with_plan` scope (a
/// fault-free baseline, a service opening a session). A test binary that
/// mixes armed and un-armed work must therefore serialize its tests as a
/// whole — e.g. hold one binary-local mutex for each test's full body.
/// In release builds the plan is ignored and `f` runs directly.
pub fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
    #[cfg(debug_assertions)]
    {
        let _scope = active::SCOPE.lock().unwrap_or_else(|e| e.into_inner());
        struct Disarm;
        impl Drop for Disarm {
            fn drop(&mut self) {
                *active::PLAN.lock().unwrap_or_else(|e| e.into_inner()) = None;
            }
        }
        let _disarm = Disarm;
        *active::PLAN.lock().unwrap_or_else(|e| e.into_inner()) =
            Some(Arc::new(active::ActivePlan {
                plan,
                site_hits: Default::default(),
                charges: AtomicU64::new(0),
            }));
        f()
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = plan;
        f()
    }
}

/// Fault-injection probe: call at every instrumented site occurrence.
/// Panics when the armed plan targets this occurrence; otherwise (and
/// always in release builds) a no-op.
#[inline]
pub fn hit(site: FaultSite) {
    #[cfg(debug_assertions)]
    {
        if let Some(active) = active::current() {
            let n = active.site_hits[site.index()].fetch_add(1, Ordering::Relaxed);
            if active.plan.panic_always == Some(site) {
                panic!("injected fault: {site:?} (every hit)");
            }
            if active.plan.panic_at == Some((site, n)) {
                panic!("injected fault: {site:?} hit {n}");
            }
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = site;
    }
}

#[cfg(debug_assertions)]
fn injected_exhaust(stage: Stage) -> Result<(), BudgetExceeded> {
    if let Some(active) = active::current() {
        if let Some((target, n)) = active.plan.exhaust_at {
            if target == stage {
                let c = active.charges.fetch_add(1, Ordering::Relaxed);
                if c >= n {
                    return Err(BudgetExceeded {
                        stage,
                        reason: ExhaustReason::Injected,
                    });
                }
            }
        }
    }
    Ok(())
}

/// The byte offset an armed plan wants corrupted in a GDS stream of
/// `len` bytes (`None` when no plan targets GDS, always in release).
pub fn gds_corrupt_offset(len: usize) -> Option<usize> {
    #[cfg(debug_assertions)]
    {
        if len == 0 {
            return None;
        }
        if let Some(active) = active::current() {
            return active
                .plan
                .corrupt_gds
                .map(|seed| (seed % len as u64) as usize);
        }
        None
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = len;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        for stage in [
            Stage::GraphBuild,
            Stage::Embed,
            Stage::Matching,
            Stage::Cover,
        ] {
            assert!(b.check(stage).is_ok());
            assert!(b.charge(stage, u64::MAX / 2).is_ok());
        }
        assert!(b.cancel_token().is_none());
    }

    #[test]
    fn work_cap_trips_at_cap_regardless_of_batching() {
        for batch in [1u64, 3, 10] {
            let b = BudgetSpec {
                matching_ticks: Some(100),
                ..Default::default()
            }
            .build();
            let mut charged = 0u64;
            let mut tripped = false;
            while charged < 300 {
                match b.charge(Stage::Matching, batch) {
                    Ok(()) => charged += batch,
                    Err(e) => {
                        assert_eq!(e.stage, Stage::Matching);
                        assert_eq!(e.reason, ExhaustReason::WorkCap);
                        tripped = true;
                        break;
                    }
                }
            }
            assert!(tripped, "batch {batch}");
            // The trip happens as soon as the running total exceeds the cap.
            assert!(charged <= 100, "batch {batch}: charged {charged}");
            // Other stages are unaffected.
            assert!(b.charge(Stage::Cover, 1_000_000).is_ok());
        }
    }

    #[test]
    fn expired_deadline_fails_check_immediately() {
        let b = BudgetSpec {
            deadline: Some(Duration::ZERO),
            ..Default::default()
        }
        .build();
        let err = b.check(Stage::GraphBuild).unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Deadline);
        // The first charge polls the clock (poll counter starts at 0).
        assert!(b.charge(Stage::GraphBuild, 1).is_err());
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let b = BudgetSpec::default().build();
        let clone = b.clone();
        assert!(clone.charge(Stage::Embed, 5).is_ok());
        b.cancel_token().expect("limited budget").cancel();
        let err = clone.check(Stage::Embed).unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Cancelled);
        assert_eq!(
            clone.charge(Stage::Embed, 1).unwrap_err().reason,
            ExhaustReason::Cancelled
        );
    }

    #[test]
    fn used_counts_are_shared() {
        let b = BudgetSpec::default().build();
        let c = b.clone();
        b.charge(Stage::Cover, 7).unwrap();
        c.charge(Stage::Cover, 5).unwrap();
        assert_eq!(b.used(Stage::Cover), 12);
    }

    #[test]
    fn injected_exhaustion_fires_from_nth_charge() {
        assert!(enabled(), "tests run with debug assertions");
        let plan = FaultPlan {
            exhaust_at: Some((Stage::Cover, 2)),
            ..Default::default()
        };
        with_plan(plan, || {
            // Unlimited budgets are immune to injection (the unbudgeted
            // entry points rely on being genuinely infallible).
            let unlimited = Budget::unlimited();
            for _ in 0..5 {
                assert!(unlimited.charge(Stage::Cover, 1).is_ok());
            }
            let b = BudgetSpec::default().build();
            assert!(b.charge(Stage::Cover, 1).is_ok());
            assert!(b.charge(Stage::Cover, 1).is_ok());
            let err = b.charge(Stage::Cover, 1).unwrap_err();
            assert_eq!(err.reason, ExhaustReason::Injected);
            // ...and every charge after it fails too.
            assert!(b.check(Stage::Cover).is_err());
            // Other stages are untouched.
            assert!(b.charge(Stage::Matching, 1).is_ok());
        });
        // Disarmed outside the scope.
        assert!(BudgetSpec::default()
            .build()
            .charge(Stage::Cover, 1)
            .is_ok());
    }

    #[test]
    fn injected_panic_fires_at_nth_hit() {
        let plan = FaultPlan {
            panic_at: Some((FaultSite::CoverComponent, 1)),
            ..Default::default()
        };
        with_plan(plan, || {
            hit(FaultSite::CoverComponent); // occurrence 0: survives
            hit(FaultSite::EmbedComponent); // other site: survives
            let caught = std::panic::catch_unwind(|| hit(FaultSite::CoverComponent));
            assert!(caught.is_err(), "occurrence 1 must panic");
        });
        hit(FaultSite::CoverComponent); // disarmed: no-op
    }

    #[test]
    fn gds_offset_reduced_modulo_length() {
        let plan = FaultPlan {
            corrupt_gds: Some(1005),
            ..Default::default()
        };
        with_plan(plan, || {
            assert_eq!(gds_corrupt_offset(100), Some(5));
            assert_eq!(gds_corrupt_offset(0), None);
        });
        assert_eq!(gds_corrupt_offset(100), None);
    }
}
