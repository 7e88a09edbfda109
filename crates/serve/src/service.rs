//! The evaluation service: long-lived workers, one shared session,
//! bounded admission, recycling, graceful shutdown.

use crate::pool::FleetPool;
use crate::queue::{Admission, BoundedQueue, Priority};
use crate::supervisor::HostError;
use crate::table::{self, counter_table, CounterRow};
use sparseloop_core::{EvalJob, EvalSession, JobError, JobOutcome, LocalShards};
use sparseloop_designs::{Scenario, ScenarioRegistry};
use sparseloop_mapping::SearchStats;
use sparseloop_obs::{
    Counter, Gauge, HealthStatus, Histogram, MetricsSnapshot, ObsHub, ObsServer, ObsServerHooks,
    ParsedSnapshot, RecordedRequest, RequestOutcome, SpanKind, TraceContext, LATENCY_BUCKETS_NANOS,
};
use sparseloop_spec::SpecError;
use std::borrow::Cow;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration (builder-style, all knobs defaulted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Queue workers: requests processed concurrently (each search job
    /// additionally fans its candidate stream over `shards`).
    pub workers: usize,
    /// Bounded queue capacity; [`EvalService::submit`] refuses admission
    /// beyond it (backpressure).
    pub queue_capacity: usize,
    /// Shard count for search jobs
    /// ([`LocalShards`] under [`EvalSession::run_batch`]); results are
    /// bit-identical at any value. Each queue worker's batch runs on up
    /// to one thread per core and every search in it on `shards`
    /// threads, so a value above 1 multiplies the service's threads.
    pub shards: usize,
    /// Recycle the shared session once its intern maps hold at least
    /// this many slots (density models + format slots). `None`: never
    /// recycle — only safe for bounded workload diversity.
    pub recycle_slot_budget: Option<usize>,
    /// High-watermark load shedding: once the queue holds at least this
    /// many requests, [`Priority::Background`] arrivals are refused
    /// early with [`SubmitError::Shed`] instead of riding the queue to
    /// capacity. `0` disables early shedding (watermark == capacity).
    pub shed_watermark: usize,
    /// Bind address for the dependency-free HTTP observability server
    /// (`GET /metrics`, `/healthz`, `/traces`). `None` (the default)
    /// serves nothing; requires the service to be started with an
    /// [`ObsHub`] to take effect.
    pub obs_server_addr: Option<SocketAddr>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            shards: 1,
            recycle_slot_budget: None,
            shed_watermark: 0,
            obs_server_addr: None,
        }
    }
}

impl ServeConfig {
    /// Sets the worker count (`>= 1`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the admission capacity (`>= 1`).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the per-job shard count (`>= 1`).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the session recycling budget.
    pub fn with_recycle_slot_budget(mut self, budget: usize) -> Self {
        self.recycle_slot_budget = Some(budget);
        self
    }

    /// Sets the early-shedding watermark (clamped to the capacity at
    /// admission time; `0` disables).
    pub fn with_shed_watermark(mut self, watermark: usize) -> Self {
        self.shed_watermark = watermark;
        self
    }

    /// Serves `GET /metrics`, `/healthz`, and `/traces` over plain
    /// HTTP/1.1 on `addr` (std::net only — no dependencies). Bind to
    /// port 0 for an ephemeral port, readable back via
    /// [`EvalService::obs_http_addr`]. Ignored unless the service is
    /// started with an [`ObsHub`].
    pub fn with_obs_server(mut self, addr: SocketAddr) -> Self {
        self.obs_server_addr = Some(addr);
        self
    }
}

/// One unit of work accepted by the queue.
#[derive(Debug)]
pub enum ServeRequest {
    /// Evaluate a single job (fixed mapping or mapspace search).
    Job(Box<EvalJob>),
    /// Run a registered scenario by name (see
    /// [`ScenarioRegistry::standard`]).
    Scenario(String),
    /// Compile an inline spec document (see `sparseloop-spec`) and run
    /// the resulting scenario through the shared session — declarative
    /// clients submit spec text, no registry entry required. Results are
    /// bit-identical to registering the same scenario and running it by
    /// name.
    Spec(String),
}

/// What [`EvalService::submit`] and [`EvalService::submit_blocking`]
/// admit: a payload and how urgently it is wanted. A bare
/// [`ServeRequest`] converts at [`Priority::Batch`] with no deadline;
/// override a field with struct-update syntax:
/// `Request { priority: Priority::Interactive, ..payload.into() }`.
#[derive(Debug)]
pub struct Request {
    /// The work itself.
    pub payload: ServeRequest,
    /// The queue band it waits in. Under overload a higher-priority
    /// arrival displaces the youngest strictly-lower-priority queued
    /// request (the victim's ticket resolves to [`ServeError::Shed`]);
    /// once the queue reaches the shed watermark,
    /// [`Priority::Background`] arrivals are refused early with
    /// [`SubmitError::Shed`]. Equal-priority work is never displaced,
    /// so admission order within a band is preserved.
    pub priority: Priority,
    /// Once this elapses after admission, the request's token trips on
    /// its own and workers abandon the remaining work at the next
    /// cancellation checkpoint (the ticket resolves to whatever
    /// completed before that, counted as `canceled` in
    /// [`ServiceStats`]).
    pub deadline: Option<Duration>,
}

impl From<ServeRequest> for Request {
    fn from(payload: ServeRequest) -> Self {
        Request {
            payload,
            priority: Priority::Batch,
            deadline: None,
        }
    }
}

/// A successfully processed request's payload.
#[derive(Debug)]
pub enum ServeReply {
    /// The job's outcome (an `Err` preserves why the job itself failed —
    /// the *request* was processed fine).
    Job(Box<Result<JobOutcome, JobError>>),
    /// The scenario's per-experiment outcomes.
    Scenario(ScenarioReply),
}

impl ServeReply {
    /// The job result, panicking on a scenario reply (test/bench sugar).
    pub fn into_job(self) -> Result<JobOutcome, JobError> {
        match self {
            ServeReply::Job(r) => *r,
            ServeReply::Scenario(s) => panic!("expected a job reply, got scenario {:?}", s.name),
        }
    }

    /// The scenario reply, panicking on a job reply (test/bench sugar).
    pub fn into_scenario(self) -> ScenarioReply {
        match self {
            ServeReply::Scenario(s) => s,
            ServeReply::Job(_) => panic!("expected a scenario reply, got a job"),
        }
    }
}

/// A served scenario's outcomes, index-aligned with its experiments.
#[derive(Debug)]
pub struct ScenarioReply {
    /// The scenario's registry name.
    pub name: String,
    /// Experiment labels, in registry order.
    pub labels: Vec<String>,
    /// Whether each experiment's result is required to be non-empty.
    pub required: Vec<bool>,
    /// Per-experiment outcome.
    pub results: Vec<Result<JobOutcome, JobError>>,
    /// Wall time of the scenario's batch inside the worker.
    pub wall_seconds: f64,
}

/// A spec front-end failure flattened into a plain-data payload that
/// errors across the serving stack can carry without depending on the
/// front-end's internal span types — the file and line:column survive
/// intact rather than collapsing into a pre-rendered string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecDiagnostic {
    /// Originating file, when known (`None` for in-memory text).
    pub file: Option<String>,
    /// 1-based line of the problem.
    pub line: usize,
    /// 1-based column of the problem.
    pub col: usize,
    /// What the problem is.
    pub message: String,
    /// The offending source line, trimmed (empty when unavailable).
    pub context: String,
}

impl From<&SpecError> for SpecDiagnostic {
    fn from(e: &SpecError) -> Self {
        SpecDiagnostic {
            file: e.file.clone(),
            line: e.span.line,
            col: e.span.col,
            message: e.message.clone(),
            context: e.context.clone(),
        }
    }
}

impl std::fmt::Display for SpecDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let file = self.file.as_deref().unwrap_or("<spec>");
        write!(f, "{file}:{}:{}: {}", self.line, self.col, self.message)?;
        if !self.context.is_empty() {
            write!(f, "\n  | {}", self.context)?;
        }
        Ok(())
    }
}

/// Why a request produced no [`ServeReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The scenario name is not registered.
    UnknownScenario(String),
    /// An inline spec document failed to parse or compile; the payload
    /// preserves the spec front-end's position (file, line:column) and
    /// source excerpt as structured fields.
    InvalidSpec(SpecDiagnostic),
    /// The worker panicked while processing the request; the shared
    /// session was force-recycled so later requests start clean.
    Panicked(String),
    /// The request was canceled before a worker finished it: the
    /// service was torn down, the ticket was abandoned (dropped or
    /// timed out), or its deadline expired.
    Canceled,
    /// The request was admitted, then evicted from the queue by a
    /// strictly higher-priority arrival under overload. Back off for at
    /// least the hint (derived from observed request latency) before
    /// resubmitting.
    Shed {
        /// Suggested minimum wait before retrying.
        retry_after_hint: Duration,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownScenario(name) => write!(f, "no scenario named {name:?}"),
            ServeError::InvalidSpec(diag) => write!(f, "invalid spec: {diag}"),
            ServeError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
            ServeError::Canceled => write!(f, "request canceled before completion"),
            ServeError::Shed { retry_after_hint } => write!(
                f,
                "request shed under overload; retry after {retry_after_hint:?}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Why a request was refused at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity with nothing lower-priority to
    /// displace — backpressure; retry later or use
    /// [`EvalService::submit_blocking`].
    QueueFull {
        /// Requests queued at refusal time.
        depth: usize,
        /// The configured admission capacity.
        capacity: usize,
    },
    /// The shed watermark refused this [`Priority::Background`] arrival
    /// early: the service is saturated enough that background work
    /// would only be displaced later anyway.
    Shed {
        /// Requests queued at refusal time.
        depth: usize,
        /// The configured admission capacity.
        capacity: usize,
        /// Suggested minimum wait before retrying (derived from
        /// observed request latency).
        retry_after_hint: Duration,
    },
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { depth, capacity } => {
                write!(f, "queue full ({depth} queued of capacity {capacity})")
            }
            SubmitError::Shed {
                depth,
                capacity,
                retry_after_hint,
            } => write!(
                f,
                "shed under overload ({depth} queued of capacity {capacity}); \
                 retry after {retry_after_hint:?}"
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A shared cancellation signal for one request.
///
/// The token trips either explicitly ([`cancel`](CancelToken::cancel))
/// or implicitly when its deadline passes; once tripped it stays
/// tripped. Service workers probe it at every *cancellation
/// checkpoint* — the generation-retirement seams between jobs and
/// experiments — so a canceled request stops consuming its worker at
/// the next seam rather than running to completion. Work already past
/// its last checkpoint finishes normally (checkpoints are retirement
/// seams, not preemption points), keeping completed results
/// bit-identical to an uncanceled run.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    canceled: AtomicBool,
    deadline: Option<Instant>,
    /// Probes left before the token trips itself (0 = never): lets a
    /// test land a cancel between two specific checkpoints.
    #[cfg(test)]
    trip_in_probes: std::sync::atomic::AtomicUsize,
}

impl CancelToken {
    /// A token that only trips explicitly.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that trips on its own once `deadline` elapses.
    pub fn with_deadline(deadline: Duration) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                deadline: Some(Instant::now() + deadline),
                ..CancelInner::default()
            }),
        }
    }

    /// Trips the token (idempotent).
    pub fn cancel(&self) {
        self.inner.canceled.store(true, Ordering::Release);
    }

    /// A token that trips itself from inside its `n`-th probe.
    #[cfg(test)]
    fn tripping_at_probe(n: usize) -> Self {
        let token = CancelToken::new();
        token.inner.trip_in_probes.store(n, Ordering::SeqCst);
        token
    }

    /// Whether the token has tripped (explicitly or by deadline).
    pub fn is_canceled(&self) -> bool {
        #[cfg(test)]
        if self.inner.trip_in_probes.load(Ordering::SeqCst) > 0
            && self.inner.trip_in_probes.fetch_sub(1, Ordering::SeqCst) == 1
        {
            self.cancel();
        }
        self.inner.canceled.load(Ordering::Acquire)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The per-request response handle: blocks until the worker replies.
///
/// A thin wrapper over a one-shot `std::sync::mpsc` channel: the worker
/// sends exactly one reply; a worker torn down mid-request drops its
/// sender, which resolves the ticket to [`ServeError::Canceled`]
/// instead of hanging it.
///
/// Abandoning a ticket cancels its request: both
/// [`wait_timeout`](Ticket::wait_timeout) expiring and dropping the
/// ticket unwaited trip the request's [`CancelToken`], so a request
/// nobody is waiting for stops occupying a worker at the next
/// cancellation checkpoint instead of running to completion unobserved
/// (counted as `canceled` in [`ServiceStats`]).
pub struct Ticket {
    receiver: mpsc::Receiver<Result<ServeReply, ServeError>>,
    cancel: CancelToken,
}

impl Ticket {
    /// Cancels the request; a worker that has not finished it stops at
    /// the next cancellation checkpoint.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Waits for the request's reply.
    pub fn wait(self) -> Result<ServeReply, ServeError> {
        self.receiver.recv().unwrap_or(Err(ServeError::Canceled))
    }

    /// Waits up to `timeout`; hands the ticket back on timeout — and
    /// **cancels the request**, so the timed-out work stops at the next
    /// cancellation checkpoint instead of silently consuming a worker.
    /// A later [`wait`](Ticket::wait) on the returned ticket still
    /// resolves (to whatever the worker managed before the
    /// cancellation took effect).
    pub fn wait_timeout(
        self,
        timeout: std::time::Duration,
    ) -> Result<Result<ServeReply, ServeError>, Ticket> {
        match self.receiver.recv_timeout(timeout) {
            Ok(reply) => Ok(reply),
            Err(mpsc::RecvTimeoutError::Disconnected) => Ok(Err(ServeError::Canceled)),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.cancel.cancel();
                Err(self)
            }
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // dropping an unresolved ticket abandons the request; a ticket
        // consumed by `wait` cancels after the reply, which is a no-op
        self.cancel.cancel();
    }
}

/// Point-in-time service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests refused at admission (backpressure).
    pub rejected: u64,
    /// Requests processed and replied (whatever the job-level outcome).
    pub completed: u64,
    /// Requests whose processing panicked (the session was recycled).
    pub panicked: u64,
    /// Requests canceled before completion (abandoned tickets, expired
    /// deadlines, explicit [`Ticket::cancel`]). Every admitted request
    /// lands in exactly one bucket:
    /// `submitted == completed + panicked + canceled + shed` once
    /// drained.
    pub canceled: u64,
    /// Requests admitted, then evicted from the queue by a strictly
    /// higher-priority arrival under overload (their tickets resolve to
    /// [`ServeError::Shed`]).
    pub shed: u64,
    /// Requests whose evaluation was dispatched to an attached
    /// worker-process fleet ([`FleetPool`]).
    pub fleet_dispatched: u64,
    /// Fleet dispatches that fell back to in-process evaluation because
    /// the fleet *machinery* failed (lost workers, expired host
    /// deadline) — never because the workload failed.
    pub fleet_fallbacks: u64,
    /// Times the shared session was recycled.
    pub recycles: u64,
    /// Largest intern-slot count ever observed after a request
    /// (density models + format slots).
    pub peak_slots: u64,
    /// Requests currently queued (snapshot).
    pub queued: usize,
    /// Intern slots held by the *current* session generation (snapshot).
    pub session_slots: usize,
}

struct Work {
    request: ServeRequest,
    responder: mpsc::Sender<Result<ServeReply, ServeError>>,
    cancel: CancelToken,
    /// Process-unique request id for tracing (0 when unobserved).
    request_id: u64,
    /// Hub-clock reading at admission (0 when unobserved) — anchors the
    /// `QueueWait` span and the queue-wait histogram.
    enqueued_nanos: u64,
}

/// A service event that bumps one monotonic [`ServiceStats`] counter:
/// the variant's index is its [`SERVICE_COUNTERS`] row.
#[derive(Debug, Clone, Copy)]
enum Event {
    Submitted,
    Rejected,
    Completed,
    Panicked,
    Canceled,
    Shed,
    FleetDispatched,
    FleetFallback,
    Recycle,
}

/// Every monotonic [`ServiceStats`] counter as its metric series, in
/// [`Event`] order — the one place that pairs the two. Booking
/// ([`Shared::count`]), registration and [`service_metrics_drift`] all
/// walk it.
const SERVICE_COUNTERS: [CounterRow<ServiceStats>; 9] = counter_table! {
    submitted => "sparseloop_requests_total", [("outcome", "submitted")];
    rejected => "sparseloop_requests_total", [("outcome", "rejected")];
    completed => "sparseloop_requests_total", [("outcome", "completed")];
    panicked => "sparseloop_requests_total", [("outcome", "panicked")];
    canceled => "sparseloop_requests_total", [("outcome", "canceled")];
    shed => "sparseloop_requests_total", [("outcome", "shed")];
    fleet_dispatched => "sparseloop_service_fleet_total", [("kind", "dispatched")];
    fleet_fallbacks => "sparseloop_service_fleet_total", [("kind", "fallback")];
    recycles => "sparseloop_session_recycles_total", [];
};

/// The service series in `snap` (parsed exposition text, as scraped)
/// that disagree with `stats`, one line each; empty when every
/// monotonic [`ServiceStats`] counter reads exactly its series.
pub fn service_metrics_drift(snap: &ParsedSnapshot, stats: &ServiceStats) -> Vec<String> {
    table::drift(&SERVICE_COUNTERS, stats, |name, labels| {
        snap.value(name, labels)
    })
}

/// Pre-registered metric handles for the service's hot path (one
/// `Option` check + relaxed atomics per event; no registry lookups).
struct ServeObs {
    hub: ObsHub,
    /// One counter per [`SERVICE_COUNTERS`] row.
    counters: [Counter; 9],
    queue_wait: Histogram,
    latency: Histogram,
    /// Mapper funnel counters: generated, pruned, evaluated, invalid.
    mapper: [Counter; 4],
    /// Live queue depth, re-synced from the queue's own length after
    /// every admission, displacement, and pop — an absolute set, so the
    /// gauge can never drift negative or double-count.
    queue_depth: Gauge,
}

impl ServeObs {
    fn new(hub: ObsHub, config: &ServeConfig) -> Self {
        hub.set_protocol_version(crate::protocol::PROTOCOL_VERSION);
        let reg = hub.registry();
        let stage = |s: &str| reg.counter("sparseloop_mapper_candidates_total", &[("stage", s)]);
        // pre-register the gauges so empty snapshots still show them
        reg.gauge("sparseloop_queue_capacity", &[])
            .set_u64(config.queue_capacity as u64);
        let queue_depth = reg.gauge("sparseloop_queue_depth", &[]);
        queue_depth.set(0);
        ServeObs {
            queue_depth,
            counters: SERVICE_COUNTERS.each_ref().map(|row| row.register(reg)),
            queue_wait: reg.histogram("sparseloop_queue_wait_nanos", &[], LATENCY_BUCKETS_NANOS),
            latency: reg.histogram(
                "sparseloop_request_latency_nanos",
                &[],
                LATENCY_BUCKETS_NANOS,
            ),
            mapper: [
                stage("generated"),
                stage("pruned"),
                stage("evaluated"),
                stage("invalid"),
            ],
            hub,
        }
    }

    /// Folds the mapper funnel counters out of a finished reply.
    fn absorb_reply(&self, reply: &Result<ServeReply, ServeError>) {
        let results = match reply {
            Ok(ServeReply::Job(result)) => std::slice::from_ref(&**result),
            Ok(ServeReply::Scenario(scenario)) => &scenario.results[..],
            Err(_) => &[],
        };
        for result in results {
            let stats: &SearchStats = match result {
                Ok(outcome) => &outcome.stats,
                Err(JobError::NoValidCandidate { stats }) => stats,
                Err(_) => continue,
            };
            self.mapper[0].add(stats.generated as u64);
            self.mapper[1].add(stats.pruned as u64);
            self.mapper[2].add(stats.evaluated as u64);
            self.mapper[3].add(stats.invalid as u64);
        }
    }
}

struct Shared {
    config: ServeConfig,
    queue: BoundedQueue<Work>,
    registry: ScenarioRegistry,
    /// The current session generation. Workers clone the `Arc` per
    /// request; recycling swaps the slot, so in-flight requests keep
    /// their generation alive while new requests start clean.
    session: Mutex<Arc<EvalSession>>,
    /// The request counters (`queued` and `session_slots` unused),
    /// guarded by **one** mutex so a snapshot can never mix two
    /// moments: `submitted` is incremented *before* the queue push (and
    /// rolled back on refusal), and every completion bucket is
    /// incremented under the same lock — so any snapshot observes
    /// `submitted >= completed + panicked + canceled + shed`, with
    /// equality once the queue drains.
    counters: Mutex<ServiceStats>,
    obs: Option<ServeObs>,
    /// An optional shared worker-process fleet: `Scenario`/`Spec`
    /// requests dispatch to pooled [`ShardHost`]s (bit-identical to
    /// in-process evaluation) and fall back in process when the fleet
    /// machinery fails. `Job` requests always run in process — they
    /// have no wire form.
    ///
    /// [`ShardHost`]: crate::supervisor::ShardHost
    fleet: Option<FleetPool>,
    /// Exponentially weighted request latency in nanos — the basis for
    /// shed `retry_after_hint`s. `0` until the first completion.
    ewma_latency_nanos: AtomicU64,
}

impl Shared {
    fn current_session(&self) -> Arc<EvalSession> {
        Arc::clone(&self.session.lock().expect("session slot poisoned"))
    }

    fn counters(&self) -> std::sync::MutexGuard<'_, ServiceStats> {
        self.counters.lock().expect("counters poisoned")
    }

    /// Books one event: its [`ServiceStats`] counter, then its series.
    fn count(&self, event: Event) {
        *(SERVICE_COUNTERS[event as usize].field)(&mut self.counters()) += 1;
        self.observe(event);
    }

    /// Bumps `event`'s series alone — for `submitted`, whose counter
    /// admission books ahead of the queue call.
    fn observe(&self, event: Event) {
        if let Some(obs) = &self.obs {
            obs.counters[event as usize].inc();
        }
    }

    /// Folds one completed request's wall time into the latency EWMA
    /// (weight 1/4 — responsive to load shifts without tracking noise).
    fn note_latency(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let old = self.ewma_latency_nanos.load(Ordering::Relaxed);
        let next = if old == 0 {
            nanos
        } else {
            old / 4 * 3 + nanos / 4
        };
        self.ewma_latency_nanos.store(next, Ordering::Relaxed);
    }

    /// How long a shed caller should wait before resubmitting: the
    /// latency EWMA, floored at 1ms so the hint is never degenerate
    /// before the first completion.
    fn retry_after_hint(&self) -> Duration {
        Duration::from_nanos(
            self.ewma_latency_nanos
                .load(Ordering::Relaxed)
                .max(1_000_000),
        )
    }

    /// Renders a point-in-time metrics snapshot, refreshing the
    /// session/queue gauges first so the text reflects *now* rather
    /// than the last request. Lives on `Shared` (not the service
    /// handle) so the observability HTTP server's snapshot hook can
    /// call it from its own thread.
    fn snapshot_now(&self) -> Option<MetricsSnapshot> {
        let obs = self.obs.as_ref()?;
        let reg = obs.hub.registry();
        let session = self.current_session();
        let s = session.stats();
        reg.gauge("sparseloop_session_slots", &[])
            .set_u64(s.total_slots() as u64);
        reg.gauge("sparseloop_session_density_models", &[])
            .set_u64(s.density_models as u64);
        reg.gauge("sparseloop_session_format_slots", &[])
            .set_u64(s.format_slots as u64);
        reg.gauge("sparseloop_session_peak_slots", &[])
            .set_u64(self.counters().peak_slots);
        // gauges, not counters: the memo resets when the session
        // recycles, so hit/miss counts are not monotonic
        reg.gauge("sparseloop_session_format_cache", &[("kind", "hit")])
            .set_u64(s.format.hits);
        reg.gauge("sparseloop_session_format_cache", &[("kind", "miss")])
            .set_u64(s.format.misses);
        self.sync_queue_depth();
        Some(obs.hub.snapshot())
    }

    /// The effective shed watermark (0 configures "queue capacity").
    fn effective_watermark(&self) -> usize {
        match self.config.shed_watermark {
            0 => self.queue.capacity(),
            w => w.min(self.queue.capacity()),
        }
    }

    /// Liveness verdict for `GET /healthz`: unhealthy while the fleet
    /// circuit breaker is open (requests are being served degraded) or
    /// the queue has reached the shed watermark (admissions are being
    /// refused). Both conditions clear on their own, so 503 here means
    /// "back off", not "dead".
    fn health_status(&self) -> HealthStatus {
        let breaker_open = self
            .obs
            .as_ref()
            .map(|o| {
                o.hub
                    .registry()
                    .gauge("sparseloop_fleet_breaker_state", &[])
            })
            .is_some_and(|g| g.get() == 1);
        let depth = self.queue.len();
        let watermark = self.effective_watermark();
        if breaker_open {
            HealthStatus {
                healthy: false,
                detail: "fleet circuit breaker open".to_string(),
            }
        } else if depth >= watermark {
            HealthStatus {
                healthy: false,
                detail: format!("queue depth {depth} at shed watermark {watermark}"),
            }
        } else {
            HealthStatus {
                healthy: true,
                detail: format!("queue depth {depth}/{watermark}"),
            }
        }
    }

    /// Re-syncs the queue-depth gauge from the queue's own length. An
    /// absolute set after every transition (admit, displace, pop) — the
    /// gauge can never drift negative or double-count the way paired
    /// inc/dec bookkeeping can.
    fn sync_queue_depth(&self) {
        if let Some(obs) = &self.obs {
            obs.queue_depth.set_u64(self.queue.len() as u64);
        }
    }

    /// Offers one finished request to the flight recorder, tagging it
    /// with its terminal outcome. Cheap successful requests are dropped
    /// inside [`FlightRecorder::record`]; anything interesting keeps
    /// its complete span tree for `/traces`.
    ///
    /// [`FlightRecorder::record`]: sparseloop_obs::FlightRecorder::record
    fn record_outcome(&self, request_id: u64, enqueued_nanos: u64, outcome: RequestOutcome) {
        let Some(obs) = &self.obs else { return };
        let now = obs.hub.now_nanos();
        let latency_nanos = now.saturating_sub(enqueued_nanos);
        let recorder = obs.hub.recorder();
        // gather the span tree only for a request the recorder keeps;
        // a cheap one is still offered, so it is counted as dropped
        let events = if recorder.should_retain(outcome, latency_nanos) {
            obs.hub.traces().events_for(request_id)
        } else {
            Vec::new()
        };
        recorder.record(RecordedRequest {
            request_id,
            outcome,
            latency_nanos,
            completed_nanos: now,
            events,
        });
    }

    /// Books a displaced queue victim: it was admitted (already counted
    /// `submitted`), so it must land in exactly one completion bucket —
    /// `shed` — and its ticket resolves immediately to
    /// [`ServeError::Shed`].
    fn shed_victim(&self, victim: Work) {
        self.count(Event::Shed);
        self.record_outcome(
            victim.request_id,
            victim.enqueued_nanos,
            RequestOutcome::Shed,
        );
        let _ = victim.responder.send(Err(ServeError::Shed {
            retry_after_hint: self.retry_after_hint(),
        }));
    }

    /// Dispatches a compiled scenario and its spec text to the attached
    /// fleet, whose reply the batch driver builds on `session`.
    /// `Ok(None)` means "evaluate in process instead": no fleet, or the
    /// fleet lost its workers / ran out of host deadline — failures of
    /// the machinery, not the workload (`degraded` is set so the flight
    /// recorder can tag the request). Deterministic workload failures
    /// surface as real errors so fallback never masks a bad request.
    fn try_fleet(
        &self,
        scenario: &Scenario,
        text: &str,
        session: &EvalSession,
        ctx: TraceContext,
        degraded: &mut bool,
    ) -> Result<Option<ScenarioReply>, ServeError> {
        let Some(fleet) = &self.fleet else {
            return Ok(None);
        };
        self.count(Event::FleetDispatched);
        match fleet.run(scenario, text, session, Some(ctx)) {
            Ok(reply) => Ok(Some(reply)),
            Err(HostError::TaskFailed { message }) => Err(ServeError::Panicked(message)),
            Err(HostError::WorkerLost { .. } | HostError::DeadlineExceeded) => {
                self.count(Event::FleetFallback);
                *degraded = true;
                Ok(None)
            }
        }
    }

    fn process(
        &self,
        request: &ServeRequest,
        session: &EvalSession,
        cancel: &CancelToken,
        ctx: TraceContext,
        degraded: &mut bool,
    ) -> Result<ServeReply, ServeError> {
        let probe = || cancel.is_canceled();
        let probe: Option<&(dyn Fn() -> bool + Sync)> = Some(&probe);
        let local = LocalShards(self.config.shards);
        let compiled;
        let (scenario, text) = match request {
            ServeRequest::Job(job) => {
                let mut results = session.run_batch(std::slice::from_ref(&**job), &local, probe);
                let result = results.pop().expect("one job in, one result out");
                return Ok(ServeReply::Job(Box::new(result)));
            }
            ServeRequest::Scenario(name) => {
                let scenario = self
                    .registry
                    .get(name)
                    .ok_or_else(|| ServeError::UnknownScenario(name.clone()))?;
                // the fleet's workers compile the emitted text; the smoke
                // `scenario` phase keeps that twin bit-identical to the
                // registry scenario the driver replies from
                let text = self
                    .fleet
                    .as_ref()
                    .map(|_| Cow::Owned(sparseloop_spec::emit_scenario(scenario)));
                (scenario, text)
            }
            ServeRequest::Spec(text) => {
                // compile once, first, so malformed specs fail
                // identically with or without a fleet attached
                compiled = sparseloop_spec::compile_str(text)
                    .map_err(|e| ServeError::InvalidSpec(SpecDiagnostic::from(&e)))?
                    .into_scenario();
                (&compiled, Some(Cow::Borrowed(text.as_str())))
            }
        };
        if let Some(text) = text {
            if let Some(reply) = self.try_fleet(scenario, &text, session, ctx, degraded)? {
                return Ok(ServeReply::Scenario(reply));
            }
        }
        let outcome = scenario.run_on(session, &local, probe);
        Ok(ServeReply::Scenario(scenario_reply(outcome)))
    }

    /// Post-request bookkeeping: track the intern-slot high-water mark
    /// and recycle the session once it exceeds the configured budget.
    fn maybe_recycle(&self, used: &Arc<EvalSession>) {
        let stats = used.stats();
        let slots = stats.total_slots() as u64;
        {
            let mut c = self.counters();
            c.peak_slots = c.peak_slots.max(slots);
        }
        if let Some(budget) = self.config.recycle_slot_budget {
            if slots >= budget as u64 {
                self.swap_session(used);
            }
        }
    }

    /// Replaces the current session generation with a fresh one — but
    /// only if `used` still *is* the current generation, so concurrent
    /// workers never recycle twice for one overflow. Touches only the
    /// `Arc` slot, never session internals: safe even when a panic left
    /// the used generation's locks poisoned.
    fn swap_session(&self, used: &Arc<EvalSession>) {
        let mut current = self.session.lock().expect("session slot poisoned");
        if Arc::ptr_eq(&current, used) {
            *current = Arc::new(EvalSession::new());
            self.count(Event::Recycle);
        }
    }
}

/// Flattens a scenario outcome into the wire reply shape (shared with
/// the multi-process [`ShardHost`](crate::supervisor::ShardHost));
/// public so harnesses can build an in-process reference reply to
/// compare fleet results against.
pub fn scenario_reply(outcome: sparseloop_designs::ScenarioOutcome) -> ScenarioReply {
    ScenarioReply {
        name: outcome.name,
        labels: outcome
            .experiments
            .iter()
            .map(|e| e.label.clone())
            .collect(),
        required: outcome.experiments.iter().map(|e| e.required).collect(),
        results: outcome.results,
        wall_seconds: outcome.wall_seconds,
    }
}

/// Compares two scenario replies for bit-identity: name, labels,
/// required flags, then every result by
/// [`sparseloop_spec::result_drift`] (wall time excluded). Returns a
/// description of the first drift, `None` when identical.
pub fn reply_drift(reference: &ScenarioReply, candidate: &ScenarioReply) -> Option<String> {
    if reference.name != candidate.name {
        return Some(format!(
            "scenario name differs: {:?} vs {:?}",
            reference.name, candidate.name
        ));
    }
    if (&reference.labels, &reference.required) != (&candidate.labels, &candidate.required)
        || reference.results.len() != candidate.results.len()
    {
        return Some(format!(
            "experiments differ: {:?} {:?} vs {:?} {:?}",
            reference.labels, reference.required, candidate.labels, candidate.required
        ));
    }
    reference
        .labels
        .iter()
        .zip(reference.results.iter().zip(&candidate.results))
        .find_map(|(label, (r, c))| {
            sparseloop_spec::result_drift(r, c).map(|why| format!("{label}: {why}"))
        })
}

/// True when a tripped token's deadline has passed — used to classify
/// cancellation as [`RequestOutcome::DeadlineExceeded`] rather than an
/// explicit abandon. A token canceled explicitly *and* past its deadline
/// reads as deadline-exceeded; either label is truthful there.
fn deadline_expired(cancel: &CancelToken) -> bool {
    cancel.inner.deadline.is_some_and(|d| Instant::now() >= d)
}

fn worker_loop(shared: &Shared) {
    while let Some(Work {
        request,
        responder,
        cancel,
        request_id,
        enqueued_nanos,
    }) = shared.queue.pop()
    {
        shared.sync_queue_depth();
        if let Some(obs) = &shared.obs {
            let now = obs.hub.now_nanos();
            obs.queue_wait.observe(now.saturating_sub(enqueued_nanos));
            obs.hub
                .span(request_id, SpanKind::QueueWait, None, enqueued_nanos);
        }
        // a request already abandoned while queued is retired without
        // touching the session at all
        if cancel.is_canceled() {
            shared.count(Event::Canceled);
            shared.record_outcome(request_id, enqueued_nanos, RequestOutcome::Canceled);
            let _ = responder.send(Err(ServeError::Canceled));
            continue;
        }
        let session = shared.current_session();
        let eval_start = shared.obs.as_ref().map(|o| o.hub.now_nanos());
        // the session span id is allocated before evaluation so the
        // fleet round-trip (and through it every cross-process worker
        // span) can parent under it; the span itself is recorded once
        // the duration is known
        let session_span = shared.obs.as_ref().map_or(0, |o| o.hub.next_span_id());
        let ctx = TraceContext {
            request_id,
            parent_span_id: session_span,
        };
        let wall_start = Instant::now();
        let mut degraded = false;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let reply = shared.process(&request, &session, &cancel, ctx, &mut degraded);
            shared.maybe_recycle(&session);
            reply
        }));
        match outcome {
            Ok(reply) => {
                // the token tripping mid-request classifies it as
                // canceled even when a partial reply exists — the
                // invariant is one bucket per admitted request
                let canceled = cancel.is_canceled();
                shared.count(if canceled {
                    Event::Canceled
                } else {
                    Event::Completed
                });
                if !canceled {
                    // canceled requests stop early; folding them in
                    // would bias the shed retry hint optimistic
                    shared.note_latency(wall_start.elapsed());
                }
                if let Some(obs) = &shared.obs {
                    if let (false, Some(start)) = (canceled, eval_start) {
                        obs.latency
                            .observe(obs.hub.now_nanos().saturating_sub(start));
                    }
                    if let Some(start) = eval_start {
                        obs.hub.span_with_id(
                            request_id,
                            session_span,
                            0,
                            SpanKind::SessionEval,
                            None,
                            start,
                        );
                    }
                    obs.absorb_reply(&reply);
                }
                let recorded = if canceled {
                    // a tripped deadline and an explicit cancel look the
                    // same to the eval loop; the recorder distinguishes
                    // them so `/traces` can show which deadline fired
                    if deadline_expired(&cancel) {
                        RequestOutcome::DeadlineExceeded
                    } else {
                        RequestOutcome::Canceled
                    }
                } else {
                    match &reply {
                        Ok(_) if degraded => RequestOutcome::Degraded,
                        Ok(_) => RequestOutcome::Ok,
                        Err(ServeError::Shed { .. }) => RequestOutcome::Shed,
                        Err(ServeError::Panicked(_)) => RequestOutcome::Panicked,
                        Err(ServeError::Canceled) => RequestOutcome::Canceled,
                        Err(_) => RequestOutcome::Error,
                    }
                };
                shared.record_outcome(request_id, enqueued_nanos, recorded);
                // a canceled single job has no partial result to keep
                // (its one entry is the checkpoint's `JobError::Canceled`
                // or an answer nobody waits for): it resolves like every
                // other cancellation. Scenario replies keep what finished.
                let reply = match reply {
                    Ok(ServeReply::Job(_)) if canceled => Err(ServeError::Canceled),
                    reply => reply,
                };
                // the submitter may have dropped its ticket; that is fine
                let _ = responder.send(reply);
            }
            Err(panic) => {
                // contain the blast radius: reply with the panic message
                // and retire the (possibly lock-poisoned) session so the
                // next request starts from a clean generation
                shared.count(Event::Panicked);
                shared.record_outcome(request_id, enqueued_nanos, RequestOutcome::Panicked);
                shared.swap_session(&session);
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                let _ = responder.send(Err(ServeError::Panicked(msg)));
            }
        }
    }
}

/// The long-lived evaluation service (see the [crate docs](crate)).
pub struct EvalService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The embedded observability HTTP server, when the config asked
    /// for one (held here, not in `Shared`, so its hook closures —
    /// which capture `Arc<Shared>` — form no reference cycle).
    obs_server: Option<ObsServer>,
}

impl EvalService {
    /// Boots the service with the standard scenario registry
    /// (uninstrumented — see [`start_observed`](EvalService::start_observed)).
    pub fn start(config: ServeConfig) -> Self {
        EvalService::start_with_registry(config, ScenarioRegistry::standard())
    }

    /// Boots the service against a caller-supplied registry.
    pub fn start_with_registry(config: ServeConfig, registry: ScenarioRegistry) -> Self {
        EvalService::start_full(config, registry, None, None)
    }

    /// Boots the service with the standard registry, wired into `hub`:
    /// every admission/completion/rejection updates the hub's metrics
    /// registry, and each request records `QueueWait` + `SessionEval`
    /// trace spans. Share one hub with a
    /// [`ShardHost`](crate::supervisor::ShardHost) to get a single
    /// fleet-wide snapshot.
    pub fn start_observed(config: ServeConfig, hub: ObsHub) -> Self {
        EvalService::start_full(config, ScenarioRegistry::standard(), Some(hub), None)
    }

    /// Boots the service on top of a shared [`FleetPool`]: `Scenario`
    /// and `Spec` requests dispatch to pooled worker-process fleets
    /// (replies bit-identical to in-process evaluation), falling back
    /// in process when the fleet machinery fails; `Job` requests always
    /// evaluate in process (they have no wire form). The service
    /// reports into the pool's [`ObsHub`] when it has one, so service,
    /// pool, and host metrics land in a single snapshot.
    pub fn start_with_fleet(config: ServeConfig, fleet: FleetPool) -> Self {
        let hub = fleet.hub().cloned();
        EvalService::start_full(config, ScenarioRegistry::standard(), hub, Some(fleet))
    }

    /// The general constructor behind every `start*`: a `None` hub
    /// keeps the hot path free of any instrumentation (the A/B baseline
    /// the overhead gate compares against).
    fn start_full(
        config: ServeConfig,
        registry: ScenarioRegistry,
        hub: Option<ObsHub>,
        fleet: Option<FleetPool>,
    ) -> Self {
        let config = ServeConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            shards: config.shards.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            config,
            queue: BoundedQueue::new(config.queue_capacity),
            registry,
            session: Mutex::new(Arc::new(EvalSession::new())),
            counters: Mutex::new(ServiceStats::default()),
            obs: hub.map(|hub| ServeObs::new(hub, &config)),
            fleet,
            ewma_latency_nanos: AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sparseloop-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        let obs_server = match (&config.obs_server_addr, &shared.obs) {
            (Some(addr), Some(obs)) => {
                let snap = Arc::clone(&shared);
                let health = Arc::clone(&shared);
                let hooks = ObsServerHooks {
                    // a hook snapshot refreshes the gauges exactly like
                    // `metrics_snapshot`, so curl and the in-process
                    // accessor render byte-identical text
                    snapshot: Arc::new(move || {
                        snap.snapshot_now().expect("hooked service has a hub")
                    }),
                    health: Arc::new(move || health.health_status()),
                };
                match ObsServer::start(*addr, obs.hub.clone(), hooks) {
                    Ok(server) => Some(server),
                    Err(err) => {
                        // a service that cannot bind its debug endpoint
                        // still serves traffic; the failure is loud in
                        // metrics rather than fatal
                        obs.hub
                            .registry()
                            .counter("sparseloop_obs_server_bind_errors_total", &[])
                            .inc();
                        eprintln!("sparseloop: obs server bind failed on {addr}: {err}");
                        None
                    }
                }
            }
            _ => None,
        };
        EvalService {
            shared,
            workers,
            obs_server,
        }
    }

    /// The bound address of the embedded observability HTTP server
    /// (`None` unless [`ServeConfig::with_obs_server`] was set and the
    /// bind succeeded). Bind to port 0 and read the real port here.
    pub fn obs_http_addr(&self) -> Option<SocketAddr> {
        self.obs_server.as_ref().map(|s| s.local_addr())
    }

    /// The observability hub this service reports into (`None` when
    /// started without one).
    pub fn hub(&self) -> Option<&ObsHub> {
        self.shared.obs.as_ref().map(|o| &o.hub)
    }

    /// Renders a point-in-time metrics snapshot, refreshing the
    /// session/queue gauges first so the text reflects *now* rather
    /// than the last request. `None` when started without a hub. The
    /// observability HTTP server's `GET /metrics` serves exactly this
    /// snapshot's [`render_text`](MetricsSnapshot::render_text).
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.shared.snapshot_now()
    }

    /// The effective configuration.
    pub fn config(&self) -> ServeConfig {
        self.shared.config
    }

    /// Non-blocking admission: enqueues the request, displaces
    /// lower-priority work when the queue is full, or refuses it — at
    /// capacity with nothing to displace ([`SubmitError::QueueFull`],
    /// backpressure), at the shed watermark for
    /// [`Priority::Background`] ([`SubmitError::Shed`]), or while the
    /// service shuts down. See [`Request`] for priority and deadline.
    pub fn submit(&self, request: impl Into<Request>) -> Result<Ticket, SubmitError> {
        self.admit(request.into(), false)
    }

    /// Blocking admission: waits for queue space instead of refusing,
    /// and never displaces or sheds (still fails if the service shuts
    /// down while waiting). Priority and deadline act as for
    /// [`submit`](EvalService::submit) once admitted.
    pub fn submit_blocking(&self, request: impl Into<Request>) -> Result<Ticket, SubmitError> {
        self.admit(request.into(), true)
    }

    /// Arms the request's [`CancelToken`] with its deadline, if any,
    /// and admits it.
    fn admit(&self, request: Request, blocking: bool) -> Result<Ticket, SubmitError> {
        let cancel = match request.deadline {
            Some(deadline) => CancelToken::with_deadline(deadline),
            None => CancelToken::new(),
        };
        self.enqueue(request.payload, request.priority, cancel, blocking)
    }

    /// The one admission path. `submitted` is counted *before* the
    /// queue call, so no snapshot can catch a completion whose
    /// admission is not yet counted; one queue call — [`BoundedQueue::admit`]
    /// or, when `blocking`, [`BoundedQueue::push_blocking`] — then
    /// decides enqueue / displace / refuse, and the counters mirror it:
    /// displaced victims stay `submitted` and move to the `shed`
    /// bucket; refused arrivals roll `submitted` back and count as
    /// `rejected` (a shutdown refusal counts nowhere).
    fn enqueue(
        &self,
        request: ServeRequest,
        priority: Priority,
        cancel: CancelToken,
        blocking: bool,
    ) -> Result<Ticket, SubmitError> {
        let shared = &self.shared;
        let (responder, receiver) = mpsc::channel();
        let (request_id, enqueued_nanos) = match &shared.obs {
            Some(obs) => (obs.hub.next_request_id(), obs.hub.now_nanos()),
            None => (0, 0),
        };
        let work = Work {
            request,
            responder,
            cancel: cancel.clone(),
            request_id,
            enqueued_nanos,
        };
        shared.counters().submitted += 1;
        let admission = if blocking {
            match shared.queue.push_blocking(work, priority) {
                Ok(()) => Admission::Enqueued,
                Err(work) => Admission::Closed(work),
            }
        } else {
            shared
                .queue
                .admit(work, priority, shared.effective_watermark())
        };
        let capacity = shared.queue.capacity();
        let refusal = match admission {
            Admission::Enqueued | Admission::Displaced { .. } => None,
            Admission::Full(_, depth) => Some(SubmitError::QueueFull { depth, capacity }),
            Admission::Shed(_, depth) => Some(SubmitError::Shed {
                depth,
                capacity,
                retry_after_hint: shared.retry_after_hint(),
            }),
            Admission::Closed(_) => Some(SubmitError::ShuttingDown),
        };
        if let Some(refusal) = refusal {
            shared.counters().submitted -= 1;
            if refusal != SubmitError::ShuttingDown {
                shared.count(Event::Rejected);
            }
            return Err(refusal);
        }
        shared.observe(Event::Submitted);
        // a displacement swaps one queued entry for another, so the
        // depth is re-read from the queue itself rather than guessed at
        shared.sync_queue_depth();
        if let Admission::Displaced { victim, .. } = admission {
            shared.shed_victim(victim);
        }
        Ok(Ticket { receiver, cancel })
    }

    /// Current counters (queue depth and session slots are snapshots).
    ///
    /// The request buckets come from one locked copy, so a snapshot
    /// taken while requests are in flight still satisfies
    /// `submitted >= completed + panicked + canceled + shed` — the lock
    /// rules out observing a completion whose admission is missing.
    pub fn stats(&self) -> ServiceStats {
        let session = self.shared.current_session();
        let s = session.stats();
        ServiceStats {
            queued: self.shared.queue.len(),
            session_slots: s.total_slots(),
            ..*self.shared.counters()
        }
    }

    /// Graceful shutdown: refuses new admissions, drains every queued
    /// request (all outstanding tickets resolve), joins the workers and
    /// returns the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop();
        self.stats()
    }

    /// Closes admission, drains the queue and joins the workers. The
    /// debug endpoint goes down first so a scraper cannot catch a
    /// half-drained snapshot mid-shutdown.
    fn stop(&mut self) {
        self.obs_server.take();
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EvalService {
    fn drop(&mut self) {
        // same graceful drain as `shutdown`: pending tickets resolve
        // rather than hang
        self.stop();
    }
}

impl std::fmt::Debug for EvalService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalService")
            .field("config", &self.shared.config)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseloop_arch::{ArchitectureBuilder, ComponentClass, ComputeSpec, StorageLevel};
    use sparseloop_core::{JobPlan, Model, Objective, SafSpec, Workload};
    use sparseloop_density::DensityModelSpec;
    use sparseloop_designs::scenario::Scenario;
    use sparseloop_format::TensorFormat;
    use sparseloop_mapping::{Mapper, Mapspace};
    use sparseloop_tensor::einsum::Einsum;

    fn arch() -> sparseloop_arch::Architecture {
        ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM").with_class(ComponentClass::Dram))
            .level(StorageLevel::new("Buf").with_capacity(2048))
            .compute(ComputeSpec::new("MAC", 4))
            .build()
            .unwrap()
    }

    fn job(job: EvalJob) -> ServeRequest {
        ServeRequest::Job(Box::new(job))
    }

    fn scenario(name: &str) -> ServeRequest {
        ServeRequest::Scenario(name.into())
    }

    fn search_job(density: f64) -> EvalJob {
        let e = Einsum::matmul(16, 16, 16);
        let workload = Workload::new(
            e.clone(),
            vec![
                DensityModelSpec::Uniform { density },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let a = e.tensor_id("A").unwrap();
        let safs = SafSpec::dense()
            .with_format(0, a, TensorFormat::coo(2))
            .with_format(1, a, TensorFormat::coo(2))
            .with_skip(1, a, vec![a]);
        let arch = arch();
        let space = Mapspace::all_temporal(&e, &arch);
        EvalJob {
            workload,
            arch,
            safs,
            plan: JobPlan::Search {
                space,
                mapper: Mapper::Exhaustive { limit: 500 },
                objective: Objective::Edp,
            },
        }
    }

    #[test]
    fn served_job_matches_direct_parallel_search() {
        let service = EvalService::start(ServeConfig::default().with_workers(2).with_shards(2));
        let direct = search_job(0.25);
        let ticket = service.submit(job(direct.clone())).unwrap();
        let outcome = ticket.wait().unwrap().into_job().unwrap();
        let model = Model::new(direct.workload, direct.arch, direct.safs);
        let JobPlan::Search {
            space,
            mapper,
            objective,
        } = direct.plan
        else {
            unreachable!()
        };
        let (winner, stats) = model.search_sharded_counted(&space, mapper, objective, 1);
        let (mapping, eval) = winner.unwrap();
        assert_eq!(outcome.mapping, mapping);
        assert_eq!(outcome.eval.edp, eval.edp);
        assert_eq!(outcome.eval.cycles, eval.cycles);
        assert_eq!(outcome.eval.energy_pj, eval.energy_pj);
        assert_eq!(outcome.stats, stats);
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn served_scenario_matches_direct_run() {
        let service = EvalService::start(ServeConfig::default().with_workers(2).with_shards(3));
        let ticket = service.submit(scenario("fig1_format_tradeoff")).unwrap();
        let reply = ticket.wait().unwrap().into_scenario();
        let direct = ScenarioRegistry::standard()
            .expect("fig1_format_tradeoff")
            .run(&EvalSession::new(), Some(2));
        assert_eq!(reply_drift(&scenario_reply(direct), &reply), None);
        service.shutdown();
    }

    #[test]
    fn served_spec_matches_direct_run() {
        // a scenario submitted as inline spec text returns results
        // bit-identical to running the same scenario directly
        let registry = ScenarioRegistry::standard();
        let scenario = registry.expect("fig13_dstc_validation");
        let text = sparseloop_spec::emit_scenario(scenario);
        let service = EvalService::start(ServeConfig::default().with_workers(2).with_shards(2));
        let ticket = service.submit(ServeRequest::Spec(text)).unwrap();
        let reply = ticket.wait().unwrap().into_scenario();
        assert_eq!(reply.name, "fig13_dstc_validation");
        let direct = scenario.run(&EvalSession::new(), Some(2));
        assert_eq!(reply_drift(&scenario_reply(direct), &reply), None);
        service.shutdown();
    }

    #[test]
    fn invalid_spec_is_reported_not_fatal() {
        let service = EvalService::start(ServeConfig::default());
        let ticket = service
            .submit(ServeRequest::Spec("scenario:\n  nmae: oops\n".into()))
            .unwrap();
        match ticket.wait() {
            Err(ServeError::InvalidSpec(diag)) => {
                assert!(
                    diag.message.contains("unknown key") || diag.message.contains("missing"),
                    "{diag}"
                )
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        // the service keeps serving after the error
        let ok = service.submit(job(search_job(0.5))).unwrap();
        assert!(ok.wait().unwrap().into_job().is_ok());
        service.shutdown();
    }

    #[test]
    fn invalid_spec_preserves_line_and_column() {
        // the structured diagnostic must carry the *position* of the
        // offending key through the service boundary, not a flattened
        // string — clients point editors at file:line:col
        let service = EvalService::start(ServeConfig::default());
        let text = "scenario:\n  name: demo\n  title: t\n  bogus_key: 1\n";
        let ticket = service.submit(ServeRequest::Spec(text.into())).unwrap();
        match ticket.wait() {
            Err(ServeError::InvalidSpec(diag)) => {
                assert_eq!(diag.line, 4, "line of bogus_key: {diag}");
                assert!(diag.col >= 1, "{diag}");
                assert_eq!(diag.file, None, "inline text has no file");
                assert!(diag.context.contains("bogus_key"), "{diag}");
                // and the rendering matches the spec front-end's shape
                let direct = sparseloop_spec::compile_str(text).unwrap_err();
                assert_eq!(diag.to_string(), direct.to_string());
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn timed_out_ticket_cancels_the_request() {
        // a worker occupied by an abandoned request must stop at the
        // next cancellation checkpoint, and the request must land in
        // the `canceled` bucket
        let service = EvalService::start(ServeConfig::default().with_workers(1));
        // ten-experiment scenario: plenty of checkpoints between jobs
        let ticket = service.submit(scenario("fig13_dstc_validation")).unwrap();
        let ticket = match ticket.wait_timeout(std::time::Duration::from_millis(1)) {
            Err(t) => t, // timed out: the request is now canceled
            Ok(reply) => {
                // machine fast enough to finish in 1ms — nothing to test
                assert!(reply.is_ok());
                service.shutdown();
                return;
            }
        };
        // the reply still resolves: completed experiments are kept, the
        // tail past the cancellation checkpoint (if any — whether a
        // given experiment beat the cancel is a timing race) is skipped
        let reply = match ticket.wait() {
            // the timeout fired while the request was still queued: the
            // worker's dequeue-time probe retired it whole
            Err(ServeError::Canceled) => {
                assert_eq!(service.shutdown().canceled, 1);
                return;
            }
            reply => reply.unwrap().into_scenario(),
        };
        for r in &reply.results {
            assert!(
                matches!(r, Ok(_) | Err(JobError::Canceled)),
                "partial reply may only hold completed or canceled entries, got {r:?}"
            );
        }
        let stats = service.shutdown();
        // whether the worker saw the trip before its last checkpoint is
        // a timing race (a loaded runner can finish the whole scenario
        // between the timeout and the first check) — but exactly one
        // bucket must claim the request, and a completed claim is only
        // legitimate if every experiment actually finished
        assert_eq!(stats.completed + stats.canceled, 1);
        if stats.completed == 1 {
            assert!(
                reply.results.iter().all(Result::is_ok),
                "a request counted completed may not carry canceled entries"
            );
        }
        assert_eq!(
            stats.submitted,
            stats.completed + stats.panicked + stats.canceled
        );
    }

    #[test]
    fn cancel_between_dequeue_and_first_checkpoint_resolves_canceled() {
        // probe 1 is the worker's dequeue-time check (passes), probe 2
        // the batch's first checkpoint, where the token trips: the job
        // is skipped, and a request booked as canceled must answer as
        // canceled, not with an `Ok` reply wrapping the skipped job
        let service = EvalService::start(ServeConfig::default().with_workers(1));
        let ticket = service
            .enqueue(
                job(search_job(0.5)),
                Priority::Batch,
                CancelToken::tripping_at_probe(2),
                false,
            )
            .unwrap();
        assert!(matches!(ticket.wait(), Err(ServeError::Canceled)));
        let stats = service.shutdown();
        assert_eq!((stats.canceled, stats.completed), (1, 0));
    }

    #[test]
    fn queued_request_with_expired_deadline_is_skipped() {
        let service = EvalService::start(ServeConfig::default().with_workers(1));
        // occupy the single worker...
        let busy = service.submit(scenario("fig13_dstc_validation")).unwrap();
        // ...then queue a request whose deadline has already expired by
        // the time the worker's dequeue-time probe sees it
        let doomed = service
            .submit(Request {
                deadline: Some(Duration::ZERO),
                ..job(search_job(0.5)).into()
            })
            .unwrap();
        assert!(busy.wait().is_ok());
        assert!(matches!(doomed.wait(), Err(ServeError::Canceled)));
        let stats = service.shutdown();
        assert_eq!(stats.canceled, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn unknown_scenario_is_reported_not_fatal() {
        let service = EvalService::start(ServeConfig::default());
        let ticket = service.submit(scenario("no_such_scenario")).unwrap();
        match ticket.wait() {
            Err(ServeError::UnknownScenario(name)) => assert_eq!(name, "no_such_scenario"),
            other => panic!("expected UnknownScenario, got {other:?}"),
        }
        // the service keeps serving after the error
        let ok = service.submit(job(search_job(0.5))).unwrap();
        assert!(ok.wait().unwrap().into_job().is_ok());
        service.shutdown();
    }

    #[test]
    fn backpressure_accounting_is_consistent() {
        let service = EvalService::start(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(1),
        );
        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for i in 0..20 {
            match service.submit(job(search_job(0.1 + (i as f64) * 0.04))) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::QueueFull { depth, capacity }) => {
                    assert_eq!(capacity, 1);
                    assert_eq!(depth, 1, "refusal must report the observed depth");
                    rejected += 1;
                }
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        }
        let accepted = tickets.len() as u64;
        for t in tickets {
            assert!(t.wait().unwrap().into_job().is_ok());
        }
        let stats = service.shutdown();
        assert_eq!(stats.submitted, accepted);
        assert_eq!(stats.rejected, rejected);
        assert_eq!(stats.completed, accepted);
        assert_eq!(accepted + rejected, 20);
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let service = EvalService::start(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(64),
        );
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                service
                    .submit(job(search_job(0.1 + (i as f64) * 0.1)))
                    .unwrap()
            })
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.completed, 8, "shutdown must drain, not drop");
        for t in tickets {
            assert!(t.wait().unwrap().into_job().is_ok(), "no ticket may hang");
        }
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let service = EvalService::start(ServeConfig::default());
        let shared = Arc::clone(&service.shared);
        service.shutdown();
        let (responder, _receiver) = mpsc::channel();
        let work = Work {
            request: scenario("x"),
            responder,
            cancel: CancelToken::new(),
            request_id: 0,
            enqueued_nanos: 0,
        };
        assert!(matches!(
            shared.queue.admit(work, Priority::Batch, 1),
            Admission::Closed(_)
        ));
    }

    #[test]
    fn session_recycles_under_slot_budget() {
        let budget = 8;
        let service = EvalService::start(
            ServeConfig::default()
                .with_workers(1)
                .with_recycle_slot_budget(budget),
        );
        // distinct densities keep interning fresh slots; the budget must
        // cap the live session's growth
        for i in 0..12 {
            let t = service
                .submit_blocking(job(search_job(0.05 + (i as f64) * 0.07)))
                .unwrap();
            t.wait().unwrap().into_job().unwrap();
        }
        let stats = service.shutdown();
        assert!(stats.recycles >= 1, "budget {budget} never triggered");
        assert!(
            stats.session_slots < budget + 4,
            "live session kept {} slots",
            stats.session_slots
        );
    }

    #[test]
    fn worker_panic_is_contained_and_session_recycled() {
        let registry = ScenarioRegistry::new(vec![Scenario::new(
            "poison",
            "a scenario that panics while building",
            || panic!("boom in build"),
        )]);
        let service =
            EvalService::start_with_registry(ServeConfig::default().with_workers(1), registry);
        let ticket = service.submit(scenario("poison")).unwrap();
        match ticket.wait() {
            Err(ServeError::Panicked(msg)) => assert!(msg.contains("boom"), "got {msg}"),
            other => panic!("expected a contained panic, got {other:?}"),
        }
        // the service survives and keeps processing
        let ok = service.submit(job(search_job(0.5))).unwrap();
        assert!(ok.wait().unwrap().into_job().is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.panicked, 1);
        assert!(stats.recycles >= 1, "panic must retire the session");
    }

    #[test]
    fn stats_snapshot_never_undercounts_submitted() {
        // regression for the old split-atomic scheme: a snapshot taken
        // between a worker's `completed` increment and the submitter's
        // `submitted` increment could observe submitted < completed +
        // panicked + canceled. With one mutex over the buckets (and
        // `submitted` counted before the push) that ordering is
        // impossible — hammer it from a concurrent reader.
        let service = Arc::new(EvalService::start(
            ServeConfig::default()
                .with_workers(2)
                .with_queue_capacity(4),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut observations = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let s = service.stats();
                    assert!(
                        s.submitted >= s.completed + s.panicked + s.canceled + s.shed,
                        "snapshot saw submitted={} < {}+{}+{}+{}",
                        s.submitted,
                        s.completed,
                        s.panicked,
                        s.canceled,
                        s.shed
                    );
                    observations += 1;
                }
                observations
            })
        };
        let submitters: Vec<_> = (0..3)
            .map(|t| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    for i in 0..6 {
                        let d = 0.05 + ((t * 6 + i) as f64) * 0.045;
                        if let Ok(ticket) = service.submit(job(search_job(d))) {
                            let _ = ticket.wait();
                        }
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        let observations = reader.join().unwrap();
        assert!(observations > 0, "reader never sampled");
        let service = Arc::into_inner(service).expect("all clones joined");
        let stats = service.shutdown();
        assert_eq!(
            stats.submitted,
            stats.completed + stats.panicked + stats.canceled + stats.shed,
            "drained service must balance exactly"
        );
    }

    #[test]
    fn observed_service_metrics_reconcile_with_stats() {
        let service = EvalService::start_observed(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(1),
            ObsHub::new(),
        );
        // a few successes, plus forced rejections through the 1-slot
        // queue, plus one request admitted with an already-expired
        // deadline (canceled at the worker's dequeue-time probe)
        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for i in 0..6 {
            match service.submit(job(search_job(0.1 + (i as f64) * 0.08))) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::QueueFull { .. }) => rejected += 1,
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        }
        let doomed = loop {
            match service.submit(Request {
                deadline: Some(Duration::ZERO),
                ..job(search_job(0.9)).into()
            }) {
                Ok(t) => break t,
                Err(SubmitError::QueueFull { .. }) => {
                    rejected += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        };
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        let _ = doomed.wait();
        let snap = service.metrics_snapshot().expect("observed service");
        let stats = service.stats();
        assert_eq!(stats.rejected, rejected);
        let parsed = MetricsSnapshot::parse_text(&snap.render_text()).expect("parseable snapshot");
        assert_eq!(service_metrics_drift(&parsed, &stats), Vec::<String>::new());
        assert!(
            snap.value(
                "sparseloop_mapper_candidates_total",
                &[("stage", "generated")]
            )
            .unwrap_or(0)
                > 0,
            "served searches must feed the mapper funnel"
        );
        assert_eq!(
            snap.value("sparseloop_request_latency_nanos", &[]).unwrap() as u64,
            stats.completed,
            "one latency observation per completed request"
        );
        assert_eq!(
            snap.value("sparseloop_session_slots", &[]).unwrap() as usize,
            stats.session_slots
        );
        // the text rendering round-trips through the parser
        assert_eq!(
            parsed.sum_of("sparseloop_requests_total"),
            snap.sum_of("sparseloop_requests_total") as f64
        );
        // and the trace ring holds the request spans
        let hub = service.hub().expect("observed service").clone();
        let events = hub.traces().events();
        assert!(
            events.iter().any(|e| e.kind == SpanKind::QueueWait),
            "no QueueWait span recorded"
        );
        assert!(
            events.iter().any(|e| e.kind == SpanKind::SessionEval),
            "no SessionEval span recorded"
        );
        service.shutdown();
    }

    #[test]
    fn service_counters_pair_each_event_with_its_own_field() {
        let mut stats = ServiceStats::default();
        for (i, row) in SERVICE_COUNTERS.iter().enumerate() {
            *(row.field)(&mut stats) = i as u64 + 1;
        }
        let events = [
            Event::Submitted,
            Event::Rejected,
            Event::Completed,
            Event::Panicked,
            Event::Canceled,
            Event::Shed,
            Event::FleetDispatched,
            Event::FleetFallback,
            Event::Recycle,
        ];
        let fields = [
            stats.submitted,
            stats.rejected,
            stats.completed,
            stats.panicked,
            stats.canceled,
            stats.shed,
            stats.fleet_dispatched,
            stats.fleet_fallbacks,
            stats.recycles,
        ];
        assert_eq!(events.map(|e| e as u64 + 1), fields);
    }

    #[test]
    fn obs_http_server_serves_metrics_health_and_traces() {
        let service = EvalService::start_observed(
            ServeConfig::default()
                .with_workers(1)
                .with_obs_server("127.0.0.1:0".parse().unwrap()),
            ObsHub::new(),
        );
        let addr = service.obs_http_addr().expect("obs server bound");
        assert!(service.submit(job(search_job(0.4))).unwrap().wait().is_ok());

        let (code, body) = sparseloop_obs::http::http_get(addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        let parsed = MetricsSnapshot::parse_text(&body).expect("scrape parses");
        assert_eq!(
            parsed.get("sparseloop_requests_total{outcome=\"completed\"}"),
            Some(1.0)
        );
        // the scrape self-identifies: build info carries the crate
        // version and the frame protocol the fleet would speak
        assert_eq!(
            parsed.get(&format!(
                "sparseloop_build_info{{protocol=\"{}\",version=\"{}\"}}",
                crate::protocol::PROTOCOL_VERSION,
                env!("CARGO_PKG_VERSION"),
            )),
            Some(1.0)
        );
        assert_eq!(parsed.get("sparseloop_queue_depth"), Some(0.0));

        let (code, body) = sparseloop_obs::http::http_get(addr, "/healthz").unwrap();
        assert_eq!(code, 200, "idle service is healthy: {body}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");

        let (code, body) = sparseloop_obs::http::http_get(addr, "/traces").unwrap();
        assert_eq!(code, 200);
        assert!(body.starts_with("# flight recorder:"), "{body}");

        service.shutdown();
        assert!(
            sparseloop_obs::http::http_get(addr, "/healthz").is_err(),
            "server must stop with the service"
        );
    }

    /// A scenario whose build blocks until `gate` flips — pins the
    /// single worker so admission tests control the queue contents.
    fn blocking_registry(gate: &Arc<AtomicBool>) -> ScenarioRegistry {
        let gate = Arc::clone(gate);
        ScenarioRegistry::new(vec![Scenario::new(
            "block",
            "blocks until the test releases it",
            move || {
                while !gate.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Vec::new()
            },
        )])
    }

    fn wait_until_worker_busy(service: &EvalService) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while service.stats().queued > 0 {
            assert!(Instant::now() < deadline, "worker never dequeued");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn higher_priority_arrival_displaces_youngest_background_work() {
        let gate = Arc::new(AtomicBool::new(false));
        let service = EvalService::start_with_registry(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(2),
            blocking_registry(&gate),
        );
        let blocker = service.submit(scenario("block")).unwrap();
        wait_until_worker_busy(&service);
        // fill the queue with background work, then outrank it
        let at = |priority| Request {
            priority,
            ..scenario("block").into()
        };
        let bg_old = service.submit(at(Priority::Background)).unwrap();
        let bg_young = service.submit(at(Priority::Background)).unwrap();
        let vip = service.submit(at(Priority::Interactive)).unwrap();
        // the youngest background request was evicted and resolved
        // immediately, while the worker is still pinned
        match bg_young.wait() {
            Err(ServeError::Shed { retry_after_hint }) => {
                assert!(retry_after_hint >= Duration::from_millis(1));
            }
            other => panic!("expected the young background request shed, got {other:?}"),
        }
        gate.store(true, Ordering::Release);
        assert!(blocker.wait().is_ok());
        assert!(bg_old.wait().is_ok(), "older background work survives");
        assert!(vip.wait().is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 4, "the displaced victim stays submitted");
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.rejected, 0);
        assert_eq!(
            stats.submitted,
            stats.completed + stats.panicked + stats.canceled + stats.shed
        );
    }

    #[test]
    fn background_arrivals_are_shed_at_the_watermark() {
        let gate = Arc::new(AtomicBool::new(false));
        let service = EvalService::start_with_registry(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(4)
                .with_shed_watermark(1),
            blocking_registry(&gate),
        );
        let blocker = service.submit(scenario("block")).unwrap();
        wait_until_worker_busy(&service);
        let queued = service.submit(scenario("block")).unwrap();
        // depth 1 >= watermark 1: background is refused early even
        // though three queue slots remain
        match service.submit(Request {
            priority: Priority::Background,
            ..scenario("block").into()
        }) {
            Err(SubmitError::Shed {
                depth,
                capacity,
                retry_after_hint,
            }) => {
                assert_eq!(depth, 1);
                assert_eq!(capacity, 4);
                assert!(retry_after_hint >= Duration::from_millis(1));
            }
            Ok(_) => panic!("expected a watermark shed, got an admission"),
            Err(other) => panic!("expected a watermark shed, got {other}"),
        }
        // batch work still admits freely below capacity
        let batch = service.submit(scenario("block")).unwrap();
        gate.store(true, Ordering::Release);
        assert!(blocker.wait().is_ok());
        assert!(queued.wait().is_ok());
        assert!(batch.wait().is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 3, "a watermark shed rolls submitted back");
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.shed, 0, "admission refusals are not queue evictions");
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn blocking_interactive_arrival_waits_for_space_then_jumps_the_batch_band() {
        // "hold" waits for a permit, so the test decides when the
        // single worker moves on; every scenario logs when it runs
        let permits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let log = Arc::new(Mutex::new(Vec::new()));
        let logged = |name: &'static str, gated: bool| {
            let (permits, log) = (Arc::clone(&permits), Arc::clone(&log));
            Scenario::new(name, "logs its run", move || {
                while gated
                    && permits
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| p.checked_sub(1))
                        .is_err()
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                log.lock().unwrap().push(name);
                Vec::new()
            })
        };
        let registry = ScenarioRegistry::new(vec![
            logged("hold", true),
            logged("batch", false),
            logged("vip", false),
        ]);
        let service = EvalService::start_with_registry(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(2),
            registry,
        );
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !done() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let first = service.submit(scenario("hold")).unwrap();
        wait_until_worker_busy(&service);
        // the queue is full of batch work behind the held worker
        let second = service.submit(scenario("hold")).unwrap();
        let batch = service.submit(scenario("batch")).unwrap();
        std::thread::scope(|scope| {
            let vip = scope.spawn(|| {
                service
                    .submit_blocking(Request {
                        priority: Priority::Interactive,
                        ..scenario("vip").into()
                    })
                    .unwrap()
                    .wait()
            });
            wait_for("the blocking submit", &|| service.stats().submitted == 4);
            assert_eq!(service.stats().queued, 2, "vip waits outside the queue");
            // the worker takes the second hold, which frees the slot vip
            // waits for; vip must then be queued ahead of the batch work
            permits.fetch_add(1, Ordering::AcqRel);
            let queue = &service.shared.queue;
            wait_for("vip to be admitted", &|| {
                queue.depth_of(Priority::Interactive) == 1
            });
            assert_eq!(queue.depth_of(Priority::Batch), 1);
            permits.fetch_add(1, Ordering::AcqRel);
            assert!(vip.join().unwrap().is_ok());
        });
        for ticket in [first, second, batch] {
            assert!(ticket.wait().is_ok());
        }
        assert_eq!(*log.lock().unwrap(), ["hold", "hold", "vip", "batch"]);
        let stats = service.shutdown();
        assert_eq!((stats.submitted, stats.completed), (4, 4));
        assert_eq!((stats.rejected, stats.shed), (0, 0));
    }

    #[test]
    fn blocking_request_with_expired_deadline_resolves_canceled() {
        let service = EvalService::start(ServeConfig::default().with_workers(1));
        let doomed = service
            .submit_blocking(Request {
                deadline: Some(Duration::ZERO),
                ..job(search_job(0.5)).into()
            })
            .unwrap();
        assert!(matches!(doomed.wait(), Err(ServeError::Canceled)));
        let stats = service.shutdown();
        assert_eq!((stats.canceled, stats.completed), (1, 0));
        assert_eq!(
            stats.submitted,
            stats.completed + stats.panicked + stats.canceled + stats.shed
        );
    }

    fn demo_spec() -> String {
        let scenario = Scenario::new("service_fleet_demo", "tiny fleet demo", || {
            let layer = sparseloop_workloads::spmspm(8, 8, 8, 0.5, 0.5);
            let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
            let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
            vec![sparseloop_designs::Experiment::search(
                "service@search",
                dp,
                layer,
                space,
            )]
        });
        sparseloop_spec::emit_scenario(&scenario)
    }

    #[test]
    fn fleet_backed_spec_replies_bit_identically_and_reuses_the_pool() {
        use crate::pool::FleetPoolConfig;
        use crate::supervisor::HostConfig;
        let text = demo_spec();
        let shards = 2;
        let pool = FleetPool::threads(
            FleetPoolConfig::default()
                .with_hosts(1)
                .with_host_config(HostConfig::default().with_shards(shards)),
        );
        let service =
            EvalService::start_with_fleet(ServeConfig::default().with_workers(2), pool.clone());
        let want = {
            let scenario = sparseloop_spec::compile_str(&text).unwrap().into_scenario();
            scenario_reply(scenario.run(&EvalSession::new(), Some(shards)))
        };
        for round in 0..3 {
            let got = service
                .submit(ServeRequest::Spec(text.clone()))
                .unwrap()
                .wait()
                .unwrap()
                .into_scenario();
            assert_eq!(reply_drift(&want, &got), None, "round {round}");
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.fleet_dispatched, 3);
        assert_eq!(stats.fleet_fallbacks, 0);
        let host_stats = pool.host_stats();
        assert_eq!(
            host_stats.spawns, shards as u64,
            "one pooled fleet serves every request — no per-request spawning"
        );
        assert_eq!(host_stats.requests, 3);
    }

    #[test]
    fn fleet_backed_service_surfaces_invalid_specs_without_fallback() {
        use crate::pool::FleetPoolConfig;
        let pool = FleetPool::threads(FleetPoolConfig::default().with_hosts(1));
        let prewarmed = pool.host_stats();
        let service =
            EvalService::start_with_fleet(ServeConfig::default().with_workers(1), pool.clone());
        let reply = service
            .submit(ServeRequest::Spec(
                "scenario:\n  name: x\n  bogus: 1\n".into(),
            ))
            .unwrap()
            .wait();
        match reply {
            Err(ServeError::InvalidSpec(diag)) => {
                assert_eq!(diag.line, 3, "{diag}");
                assert!(diag.context.contains("bogus"), "{diag}");
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        let stats = service.shutdown();
        assert_eq!(
            stats.fleet_dispatched, 0,
            "malformed specs fail at compile, before fleet dispatch"
        );
        assert_eq!(stats.fleet_fallbacks, 0);
        // the fleet never saw the request: no run, no spawn, no retry
        assert_eq!(pool.host_stats(), prewarmed);
    }
}
