//! The resident detection service: session registry, bounded admission
//! queue, worker pool, deadline mapping, retry/backoff, circuit breaking
//! and graceful shutdown. See the crate docs for the supervision model.

use crate::breaker::CircuitBreaker;
use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::metrics::{inc, Metrics, MetricsSnapshot};
use aapsm_core::{
    run_flow, CacheStats, Conflict, DetectConfig, FlowConfig, FlowError, FlowResult,
    RedetectEngine, RedetectStats, SolveCache, StageProvenance,
};
use aapsm_fault::{Budget, BudgetSpec, CancelToken};
use aapsm_gds::read_gds;
use aapsm_layout::{apply_cuts, Layout, SpaceCut};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Opaque handle of one open layout session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    #[cfg(test)]
    pub(crate) fn from_raw(raw: u64) -> SessionId {
        SessionId(raw)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// One operation on a session.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness probe; exercises the whole supervision path (admission,
    /// breaker, queue, worker) without touching the pipeline.
    Ping,
    /// Current conflicts of the session layout, plus the delta against
    /// the session's previous detection. A layout the session's engine
    /// detected last, exactly, is answered from that report with no
    /// detection work.
    Detect,
    /// Apply space-insertion edits, re-detect the edited layout, and commit
    /// the edited layout — the session's layout changes only when the
    /// whole operation succeeds (failed edits roll back wholesale).
    ApplyCuts(Vec<SpaceCut>),
    /// Run the full detect→correct→verify flow on the session layout and
    /// commit the corrected layout.
    RunFlow,
}

/// Per-request options.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestOptions {
    /// Deadline measured from admission; `None` inherits
    /// [`ServiceConfig::default_deadline`].
    pub deadline: Option<Duration>,
}

/// Conflicts that appeared/disappeared relative to the session's
/// previous detection (first detection: everything is `added`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConflictDelta {
    /// Present now, absent before.
    pub added: Vec<Conflict>,
    /// Present before, absent now.
    pub removed: Vec<Conflict>,
}

/// Result payload of a successful request.
#[derive(Clone, Debug)]
pub enum ResponseKind {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Detect`] / [`Request::ApplyCuts`].
    Detection {
        /// The session layout's current conflicts.
        conflicts: Vec<Conflict>,
        /// Change against the previous detection on this session.
        delta: ConflictDelta,
        /// Bipartization provenance, verbatim from the pipeline: a
        /// degraded answer says so here — it never masquerades as exact.
        provenance: StageProvenance,
        /// Engine statistics of the round (answered from the kept
        /// report, cache hits, …).
        stats: RedetectStats,
    },
    /// Reply to [`Request::RunFlow`], provenance included verbatim.
    Flow(Box<FlowResult>),
}

/// A successful response plus its supervision context.
#[derive(Clone, Debug)]
pub struct Response {
    /// The payload.
    pub kind: ResponseKind,
    /// Attempts spent (1 = no retry).
    pub attempts: u32,
    /// Degradation-ladder level at admission (0 = untightened).
    pub ladder_level: usize,
    /// Queue depth at admission, including this request.
    pub queue_depth_at_admission: usize,
}

impl Response {
    /// Whether the answer walked the degradation ladder anywhere
    /// (truthfully flagged, per-stage detail in the provenance).
    pub fn degraded(&self) -> bool {
        match &self.kind {
            ResponseKind::Pong => false,
            ResponseKind::Detection { provenance, .. } => !provenance.is_exact(),
            ResponseKind::Flow(result) => !result.all_exact(),
        }
    }
}

/// Receipt for an admitted request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServiceError>>,
}

impl Ticket {
    /// Blocks until the service answers. Every admitted request is
    /// answered — completion, structured error, or shutdown rejection —
    /// so this never hangs past service teardown.
    pub fn wait(self) -> Result<Response, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Disconnected))
    }
}

/// What [`DetectionService::shutdown`] observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShutdownReport {
    /// The queue and all in-flight work drained inside the deadline.
    pub within_deadline: bool,
    /// Requests answered (completed or failed) during the drain.
    pub drained: u64,
    /// In-flight budgets cancelled when the deadline forced an abort.
    pub cancelled: u64,
    /// Queued requests answered [`ServiceError::ShuttingDown`] by the
    /// abort.
    pub shed: u64,
}

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const ABORTING: u8 = 2;

struct Job {
    id: u64,
    session: SessionId,
    request: Request,
    deadline: Option<Instant>,
    ladder_caps: Option<BudgetSpec>,
    ladder_level: usize,
    depth: usize,
    reply: mpsc::Sender<Result<Response, ServiceError>>,
}

/// Mutable per-session state; guarded by [`SessionSlot::state`].
struct Session {
    /// Last committed sanitized layout — the crash-only recovery point.
    layout: Layout,
    /// Session engine with its solve cache handle and last exact report
    /// (`None` = rebuild on next use).
    engine: Option<RedetectEngine>,
    /// Conflicts of the previous detection, for deltas.
    last_conflicts: Option<Vec<Conflict>>,
    /// Crash-only teardowns this session survived.
    rebuilds: u64,
}

/// The breaker lives in its own mutex so admission checks never block on
/// a request that is mid-pipeline under [`SessionSlot::state`].
struct SessionSlot {
    state: Mutex<Session>,
    breaker: Mutex<CircuitBreaker>,
}

struct Shared {
    config: ServiceConfig,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    state: AtomicU8,
    sessions: Mutex<HashMap<u64, Arc<SessionSlot>>>,
    next_session: AtomicU64,
    next_job: AtomicU64,
    in_flight: AtomicUsize,
    /// Cancel tokens of in-flight budgets, by job id — the shutdown
    /// broadcast surface.
    live: Mutex<HashMap<u64, CancelToken>>,
    cache: SolveCache,
    metrics: Metrics,
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // A panicking holder poisons the mutex but our holders never unwind
    // (worker bodies are wrapped in catch_unwind before touching state),
    // and the guarded structures are kept consistent at every await
    // point; recover rather than propagate.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    fn set_state(&self, s: u8) {
        self.state.store(s, Ordering::Release);
    }
}

/// A resident, multi-session AAPSM conflict-detection service.
///
/// Open layouts become sessions, each with a detection engine; requests go
/// through a bounded admission queue to a fixed worker pool. Overload is
/// shed explicitly, deadlines become pipeline budgets, panic-class
/// failures are retried against a crash-only rebuilt engine, repeatedly
/// failing sessions are quarantined by a circuit breaker, and shutdown
/// drains then cancels. See the crate docs.
pub struct DetectionService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl DetectionService {
    /// Validates `config` and starts the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] for inconsistent design rules, a
    /// zero queue capacity, or worker-spawn failure.
    pub fn start(config: ServiceConfig) -> Result<DetectionService, ServiceError> {
        config
            .rules
            .validate()
            .map_err(ServiceError::InvalidConfig)?;
        if config.queue_capacity == 0 {
            return Err(ServiceError::InvalidConfig(
                "queue_capacity must be at least 1".to_string(),
            ));
        }
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        let cache = SolveCache::new(config.cache_capacity);
        let shared = Arc::new(Shared {
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            state: AtomicU8::new(RUNNING),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            next_job: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            live: Mutex::new(HashMap::new()),
            cache,
            metrics: Metrics::default(),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared_i = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("aapsm-worker-{i}"))
                .spawn(move || worker_loop(&shared_i))
                .map_err(|e| ServiceError::InvalidConfig(format!("worker spawn failed: {e}")))?;
            handles.push(handle);
        }
        Ok(DetectionService {
            shared,
            workers: handles,
        })
    }

    /// Opens a session for a layout, sanitized up front; the sanitized
    /// layout is retained as the crash-only recovery point.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Layout`] when sanitization fails;
    /// [`ServiceError::ShuttingDown`] after shutdown began.
    pub fn open_session(&self, layout: Layout) -> Result<SessionId, ServiceError> {
        if self.shared.state() != RUNNING {
            return Err(ServiceError::ShuttingDown);
        }
        layout
            .sanitize(&self.shared.config.rules)
            .map_err(ServiceError::Layout)?;
        let raw = self.shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = Arc::new(SessionSlot {
            state: Mutex::new(Session {
                layout,
                engine: None,
                last_conflicts: None,
                rebuilds: 0,
            }),
            breaker: Mutex::new(CircuitBreaker::new(self.shared.config.breaker)),
        });
        lock(&self.shared.sessions).insert(raw, slot);
        Ok(SessionId(raw))
    }

    /// [`DetectionService::open_session`] from a GDSII stream.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Gds`] for corrupt streams, plus everything
    /// [`DetectionService::open_session`] returns.
    pub fn open_session_gds(&self, bytes: &[u8]) -> Result<SessionId, ServiceError> {
        let layout = read_gds(bytes).map_err(ServiceError::Gds)?;
        self.open_session(layout)
    }

    /// Closes a session, dropping its state. In-flight requests for it
    /// still answer (the worker holds its own handle to the slot).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id is not open.
    pub fn close_session(&self, id: SessionId) -> Result<(), ServiceError> {
        match lock(&self.shared.sessions).remove(&id.0) {
            Some(_) => Ok(()),
            None => Err(ServiceError::UnknownSession(id)),
        }
    }

    /// Submits a request with default options; returns a [`Ticket`]
    /// redeemable for the response.
    ///
    /// # Errors
    ///
    /// Admission-time rejections: [`ServiceError::ShuttingDown`],
    /// [`ServiceError::UnknownSession`], [`ServiceError::CircuitOpen`]
    /// and [`ServiceError::Overloaded`]. Execution failures arrive
    /// through the ticket instead.
    pub fn submit(&self, session: SessionId, request: Request) -> Result<Ticket, ServiceError> {
        self.submit_with(session, request, RequestOptions::default())
    }

    /// [`DetectionService::submit`] with explicit per-request options.
    ///
    /// # Errors
    ///
    /// See [`DetectionService::submit`].
    fn submit_with(
        &self,
        session: SessionId,
        request: Request,
        options: RequestOptions,
    ) -> Result<Ticket, ServiceError> {
        let shared = &self.shared;
        inc(&shared.metrics.submitted);
        if shared.state() != RUNNING {
            inc(&shared.metrics.rejected_shutdown);
            return Err(ServiceError::ShuttingDown);
        }
        let slot = lock(&shared.sessions).get(&session.0).cloned();
        let Some(slot) = slot else {
            return Err(ServiceError::UnknownSession(session));
        };
        if let Err(consecutive_failures) = lock(&slot.breaker).admit() {
            inc(&shared.metrics.rejected_breaker);
            return Err(ServiceError::CircuitOpen {
                session,
                consecutive_failures,
            });
        }
        let deadline = options
            .deadline
            .or(shared.config.default_deadline)
            .map(|d| Instant::now() + d);
        let (tx, rx) = mpsc::channel();
        {
            let mut queue = lock(&shared.queue);
            if queue.len() >= shared.config.queue_capacity {
                inc(&shared.metrics.rejected_overload);
                return Err(ServiceError::Overloaded {
                    queue_depth: queue.len(),
                    capacity: shared.config.queue_capacity,
                });
            }
            let depth = queue.len() + 1;
            let ladder_level = shared.config.ladder.level_for(depth);
            let ladder_caps = shared.config.ladder.caps_for(depth);
            if ladder_level > 0 {
                inc(&shared.metrics.ladder_tightened);
            }
            shared.metrics.observe_depth(depth);
            queue.push_back(Job {
                id: shared.next_job.fetch_add(1, Ordering::Relaxed),
                session,
                request,
                deadline,
                ladder_caps,
                ladder_level,
                depth,
                reply: tx,
            });
        }
        shared.queue_cv.notify_one();
        inc(&shared.metrics.admitted);
        Ok(Ticket { rx })
    }

    /// Submit-and-wait convenience.
    ///
    /// # Errors
    ///
    /// Admission rejections and execution failures alike.
    pub fn request(&self, session: SessionId, request: Request) -> Result<Response, ServiceError> {
        self.submit(session, request)?.wait()
    }

    /// [`DetectionService::request`] with explicit options.
    ///
    /// # Errors
    ///
    /// Admission rejections and execution failures alike.
    pub fn request_with(
        &self,
        session: SessionId,
        request: Request,
        options: RequestOptions,
    ) -> Result<Response, ServiceError> {
        self.submit_with(session, request, options)?.wait()
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Open sessions.
    pub fn session_count(&self) -> usize {
        lock(&self.shared.sessions).len()
    }

    /// A clone of the session's current committed layout (blocks while a
    /// request for the session is in flight).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id is not open.
    pub fn session_layout(&self, id: SessionId) -> Result<Layout, ServiceError> {
        let slot = lock(&self.shared.sessions).get(&id.0).cloned();
        match slot {
            Some(slot) => Ok(lock(&slot.state).layout.clone()),
            None => Err(ServiceError::UnknownSession(id)),
        }
    }

    /// Crash-only rebuilds the session survived.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id is not open.
    pub fn session_rebuilds(&self, id: SessionId) -> Result<u64, ServiceError> {
        let slot = lock(&self.shared.sessions).get(&id.0).cloned();
        match slot {
            Some(slot) => Ok(lock(&slot.state).rebuilds),
            None => Err(ServiceError::UnknownSession(id)),
        }
    }

    /// Whether the session's circuit breaker is currently open (shedding
    /// or awaiting its half-open probe).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when the id is not open.
    pub fn session_quarantined(&self, id: SessionId) -> Result<bool, ServiceError> {
        let slot = lock(&self.shared.sessions).get(&id.0).cloned();
        match slot {
            Some(slot) => Ok(lock(&slot.breaker).is_open()),
            None => Err(ServiceError::UnknownSession(id)),
        }
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Statistics of the cross-session solve cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Graceful shutdown: stop admitting, drain the queue and all
    /// in-flight work, and join the pool. If the drain exceeds
    /// `drain_deadline`, escalate — broadcast cancellation to every
    /// in-flight budget (requests answer with a structured budget error)
    /// and answer queued requests [`ServiceError::ShuttingDown`].
    pub fn shutdown(mut self, drain_deadline: Duration) -> ShutdownReport {
        let shared = Arc::clone(&self.shared);
        let before = shared.metrics.snapshot();
        shared.set_state(DRAINING);
        shared.queue_cv.notify_all();
        let deadline = Instant::now() + drain_deadline;
        let mut within_deadline = true;
        let mut cancelled = 0u64;
        loop {
            let queue_empty = lock(&shared.queue).is_empty();
            if queue_empty && shared.in_flight.load(Ordering::Acquire) == 0 {
                break;
            }
            if Instant::now() >= deadline {
                within_deadline = false;
                shared.set_state(ABORTING);
                let live = lock(&shared.live);
                for token in live.values() {
                    token.cancel();
                    cancelled += 1;
                }
                drop(live);
                shared.queue_cv.notify_all();
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        shared.queue_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let after = shared.metrics.snapshot();
        ShutdownReport {
            within_deadline,
            drained: (after.completed + after.failed) - (before.completed + before.failed),
            cancelled,
            shed: after.rejected_shutdown - before.rejected_shutdown,
        }
    }
}

impl Drop for DetectionService {
    /// Dropping without [`DetectionService::shutdown`] is an abort-style
    /// teardown: cancel everything, shed the queue, join the pool.
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // shutdown() already ran
        }
        self.shared.set_state(ABORTING);
        for token in lock(&self.shared.live).values() {
            token.cancel();
        }
        self.shared.queue_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = next_job(shared) {
        if shared.state() == ABORTING {
            inc(&shared.metrics.rejected_shutdown);
            let _ = job.reply.send(Err(ServiceError::ShuttingDown));
        } else {
            process_job(shared, job);
        }
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Pops the next job, blocking on the condvar while the queue is empty
/// and the service is running. `in_flight` is incremented under the
/// queue lock so `queue empty ∧ in_flight == 0` is an accurate drain
/// test. `None` = queue empty and shutting down: exit the worker.
fn next_job(shared: &Arc<Shared>) -> Option<Job> {
    let mut queue = lock(&shared.queue);
    loop {
        if let Some(job) = queue.pop_front() {
            shared.in_flight.fetch_add(1, Ordering::AcqRel);
            return Some(job);
        }
        if shared.state() != RUNNING {
            return None;
        }
        queue = shared
            .queue_cv
            .wait(queue)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

fn process_job(shared: &Arc<Shared>, job: Job) {
    let slot = lock(&shared.sessions).get(&job.session.0).cloned();
    let Some(slot) = slot else {
        inc(&shared.metrics.failed);
        let _ = job
            .reply
            .send(Err(ServiceError::UnknownSession(job.session)));
        return;
    };
    let result = run_with_retries(shared, &slot, &job);
    match &result {
        Ok(response) => {
            lock(&slot.breaker).record_success();
            inc(&shared.metrics.completed);
            if response.degraded() {
                inc(&shared.metrics.degraded);
            }
        }
        Err(error) => {
            // Only panic-class failures are evidence of a poisoned
            // session; budget trips and bad inputs are not, and clear
            // nothing either way (a real success resets the breaker).
            if matches!(error, ServiceError::Flow(FlowError::WorkerPanic(_)))
                && lock(&slot.breaker).record_failure()
            {
                inc(&shared.metrics.breaker_trips);
            }
            inc(&shared.metrics.failed);
        }
    }
    let _ = job.reply.send(result);
}

/// Runs the job with the retry policy: panic-class failures tear the
/// engine down (crash-only) and retry after a deterministic backoff;
/// everything else is final. The session lock is held across attempts,
/// serializing requests per session.
fn run_with_retries(
    shared: &Arc<Shared>,
    slot: &SessionSlot,
    job: &Job,
) -> Result<Response, ServiceError> {
    let mut session = lock(&slot.state);
    let mut attempt: u32 = 0;
    loop {
        if shared.state() == ABORTING {
            return Err(ServiceError::ShuttingDown);
        }
        let budget = build_budget(job);
        register_token(shared, job.id, &budget);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute(shared, &mut session, &job.request, &budget)
        }));
        lock(&shared.live).remove(&job.id);
        let result = match outcome {
            Ok(result) => result,
            Err(payload) => Err(ServiceError::Flow(FlowError::WorkerPanic(panic_message(
                payload.as_ref(),
            )))),
        };
        match result {
            Ok(kind) => {
                return Ok(Response {
                    kind,
                    attempts: attempt + 1,
                    ladder_level: job.ladder_level,
                    queue_depth_at_admission: job.depth,
                })
            }
            Err(error) => {
                let transient = matches!(&error, ServiceError::Flow(FlowError::WorkerPanic(_)));
                if transient {
                    // Crash-only recovery: drop the (possibly torn)
                    // engine; the retained sanitized layout rebuilds it.
                    inc(&shared.metrics.panics);
                    session.engine = None;
                    session.last_conflicts = None;
                    session.rebuilds += 1;
                    inc(&shared.metrics.engine_rebuilds);
                }
                let expired = job.deadline.is_some_and(|d| Instant::now() >= d);
                if transient
                    && !expired
                    && attempt < shared.config.retry.max_retries
                    && shared.state() != ABORTING
                {
                    inc(&shared.metrics.retries);
                    std::thread::sleep(shared.config.retry.backoff(attempt));
                    attempt += 1;
                    continue;
                }
                return Err(error);
            }
        }
    }
}

/// Maps the request's remaining deadline and ladder caps onto a pipeline
/// budget. Always spec-built (even with no caps at all) so every
/// in-flight request owns a [`CancelToken`] the shutdown broadcast can
/// reach.
fn build_budget(job: &Job) -> Budget {
    let mut spec = job.ladder_caps.unwrap_or_default();
    let remaining = job
        .deadline
        .map(|d| d.saturating_duration_since(Instant::now()));
    spec.deadline = match (spec.deadline, remaining) {
        (Some(rung), Some(request)) => Some(rung.min(request)),
        (rung, request) => request.or(rung),
    };
    spec.build()
}

fn register_token(shared: &Shared, job_id: u64, budget: &Budget) {
    if let Some(token) = budget.cancel_token() {
        if shared.state() == ABORTING {
            token.cancel();
        }
        lock(&shared.live).insert(job_id, token);
    }
}

fn new_engine(shared: &Shared) -> RedetectEngine {
    let config = DetectConfig {
        parallelism: shared.config.request_parallelism,
        ..shared.config.detect.clone()
    };
    let mut engine = RedetectEngine::new(shared.config.rules, config);
    engine.set_shared_cache(shared.cache.clone());
    engine
}

fn execute(
    shared: &Shared,
    session: &mut Session,
    request: &Request,
    budget: &Budget,
) -> Result<ResponseKind, ServiceError> {
    match request {
        Request::Ping => Ok(ResponseKind::Pong),
        Request::Detect => {
            let engine = session.engine.get_or_insert_with(|| new_engine(shared));
            engine.set_budget(budget.clone());
            // A committed layout the engine detected last (exactly) is
            // answered from its kept report; any other is detected.
            let (report, provenance) = engine
                .try_redetect_after_correction(&session.layout, &[])
                .map_err(|e| ServiceError::Flow(FlowError::Budget(e)))?;
            let stats = *engine.last_stats();
            let delta = conflict_delta(session.last_conflicts.as_deref(), &report.conflicts);
            session.last_conflicts = Some(report.conflicts.clone());
            Ok(ResponseKind::Detection {
                conflicts: report.conflicts,
                delta,
                provenance,
                stats,
            })
        }
        Request::ApplyCuts(cuts) => {
            let modified = apply_cuts(&session.layout, cuts);
            modified
                .sanitize(&shared.config.rules)
                .map_err(|e| ServiceError::Flow(FlowError::BadLayout(e)))?;
            let engine = session.engine.get_or_insert_with(|| new_engine(shared));
            engine.set_budget(budget.clone());
            let (report, provenance) = engine
                .try_redetect_after_correction(&modified, cuts)
                .map_err(|e| ServiceError::Flow(FlowError::Budget(e)))?;
            // Commit point: the edit becomes the session layout only
            // after detection succeeded; any failure above rolled back
            // wholesale (`modified` was local).
            session.layout = modified;
            let stats = *engine.last_stats();
            let delta = conflict_delta(session.last_conflicts.as_deref(), &report.conflicts);
            session.last_conflicts = Some(report.conflicts.clone());
            Ok(ResponseKind::Detection {
                conflicts: report.conflicts,
                delta,
                provenance,
                stats,
            })
        }
        Request::RunFlow => {
            let config = FlowConfig {
                detect: DetectConfig {
                    parallelism: shared.config.request_parallelism,
                    ..shared.config.detect.clone()
                },
                budget: budget.clone(),
                max_rounds: shared.config.max_rounds,
                solve_cache: Some(shared.cache.clone()),
                ..FlowConfig::default()
            };
            let result = run_flow(&session.layout, &shared.config.rules, &config)
                .map_err(ServiceError::Flow)?;
            // Commit the corrected layout; the warm engine tracked the
            // pre-flow layout, so drop it (next Detect re-establishes).
            // The flow's own detection becomes the delta base: the next
            // Detect reports exactly what the correction removed.
            session.layout = result.correction.modified.clone();
            session.engine = None;
            session.last_conflicts = Some(result.detection.conflicts.clone());
            Ok(ResponseKind::Flow(Box::new(result)))
        }
    }
}

fn conflict_delta(previous: Option<&[Conflict]>, current: &[Conflict]) -> ConflictDelta {
    let previous = previous.unwrap_or(&[]);
    let old: HashSet<&Conflict> = previous.iter().collect();
    let new: HashSet<&Conflict> = current.iter().collect();
    ConflictDelta {
        added: current
            .iter()
            .filter(|c| !old.contains(*c))
            .copied()
            .collect(),
        removed: previous
            .iter()
            .filter(|c| !new.contains(*c))
            .copied()
            .collect(),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}
