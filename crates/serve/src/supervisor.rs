//! The supervision tree over multi-process sharded search.
//!
//! A [`ShardHost`] owns one worker slot per shard and is one
//! executor of the batch driver, nothing more. Each request takes the
//! caller's compiled [`Scenario`] with its spec text, dispatches one
//! [`Frame::Task`] per shard to the workers, and hands the returned
//! shard winners to [`Scenario::run_on`] as [`ReturnedShards`] on the
//! caller's session: the driver merges them, re-evaluates the winners
//! and evaluates fixed-mapping experiments, exactly as for an
//! in-process run. Because the per-shard walk is the *same code path*
//! (`Model::search_shard_counted`) on both sides of the process
//! boundary, the reply is bit-identical to [`Scenario::run`] — and
//! stays bit-identical under any worker-failure schedule, because a
//! lost shard is simply recomputed.
//!
//! Supervision policy:
//!
//! * **Death detection** — a worker is dead when its frame stream ends
//!   (EOF, pipe error, corrupt frame) or when its heartbeats go quiet
//!   for [`HostConfig::heartbeat_timeout`] while a task is outstanding.
//! * **Bounded retry with backoff** — a dead worker's shard is
//!   re-dispatched to a freshly spawned replacement, up to
//!   [`HostConfig::max_retries`] times per request, sleeping
//!   `backoff_base · 2^(attempt-1)` before each respawn. Exhaustion is
//!   [`HostError::WorkerLost`].
//! * **No retry of deterministic failures** — a task the worker reports
//!   failed ([`HostError::TaskFailed`]) fails the request immediately;
//!   re-running it would fail identically. Specs arrive compiled, so an
//!   invalid spec never reaches the fleet.
//! * **Per-request deadline** — [`HostConfig::request_deadline`] bounds
//!   the whole request; expiry is [`HostError::DeadlineExceeded`].
//! * **Graceful degradation behind a circuit breaker** — if workers
//!   cannot spawn at all (bad binary path, fork limits), the request
//!   runs in-process — the same driver call with [`LocalShards`] at the
//!   host's shard count — instead of failing; counted in
//!   [`HostStats::degraded`]. Consecutive spawn
//!   failures or exhausted-retry worker losses trip a per-host
//!   [`CircuitBreaker`]: while it is open, requests short-circuit to
//!   the degraded path without re-paying spawn attempts or backoff
//!   sleeps; after a deterministic clock-driven cooldown one probe
//!   request tests the fleet and closes the breaker on success.
//! * **Idle deaths** — a worker that dies between requests is booked
//!   from the events queued meanwhile when the next request starts, and
//!   respawned before dispatch, so it costs that request no retry and
//!   no backoff.
//! * **Deterministic fault injection** — a [`FaultPlan`] schedules
//!   worker-side faults (die/stall/corrupt/drop, delivered at spawn)
//!   and parent-side kills ([`WorkerFault::KillAfterFrames`], delivered
//!   as a real kill once the slot has produced that many frames since
//!   dispatch). Faults are consumed by a slot's first spawn; restarts
//!   run clean, so every schedule converges.
//!
//! Stale-epoch hygiene: every spawn gets a fresh epoch, and events from
//! superseded epochs are discarded — a killed worker's last frames can
//! never race its replacement's.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::fault::{FaultPlan, WorkerFault};
use crate::proc::{EventKind, WorkerEvent, WorkerHandle, WorkerSpawner};
use crate::protocol::{ExpResult, Frame};
use crate::service::{scenario_reply, ScenarioReply};
use crate::table::{self, counter_table, CounterRow};
use sparseloop_core::{EvalSession, LocalShards, ReturnedShards};
use sparseloop_designs::Scenario;
use sparseloop_mapping::{SearchStats, ShardWinner};
use sparseloop_obs::{MetricsSnapshot, ObsHub, SpanKind, TraceContext, LATENCY_BUCKETS_NANOS};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Supervision knobs (builder-style, all defaulted).
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Worker slots = shards per request (`>= 1`).
    pub shards: usize,
    /// Heartbeat cadence workers must hold while computing (ms).
    pub heartbeat_ms: u32,
    /// Silence longer than this on an outstanding slot is death.
    pub heartbeat_timeout: Duration,
    /// Whole-request deadline (`None`: unbounded).
    pub request_deadline: Option<Duration>,
    /// Worker-death retries per shard per request; deterministic
    /// failures are never retried.
    pub max_retries: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Deterministic failure schedule (consumed by first spawns).
    pub fault_plan: FaultPlan,
    /// Circuit breaker over the degraded-fallback decision.
    pub breaker: BreakerConfig,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            shards: 2,
            heartbeat_ms: 20,
            heartbeat_timeout: Duration::from_secs(1),
            request_deadline: None,
            max_retries: 2,
            backoff_base: Duration::from_millis(5),
            fault_plan: FaultPlan::none(),
            breaker: BreakerConfig::default(),
        }
    }
}

impl HostConfig {
    /// Sets the shard/worker count (`>= 1`).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets heartbeat cadence and timeout together (the timeout should
    /// comfortably exceed the cadence).
    pub fn with_heartbeat(mut self, cadence_ms: u32, timeout: Duration) -> Self {
        self.heartbeat_ms = cadence_ms;
        self.heartbeat_timeout = timeout;
        self
    }

    /// Sets the per-request deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.request_deadline = Some(deadline);
        self
    }

    /// Sets retry bound and backoff base.
    pub fn with_retries(mut self, max_retries: u32, backoff_base: Duration) -> Self {
        self.max_retries = max_retries;
        self.backoff_base = backoff_base;
        self
    }

    /// Installs a fault-injection schedule.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Tunes the degradation circuit breaker.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }
}

/// Why a hosted request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// A worker reported the task deterministically failed —
    /// re-running would fail identically, so no retry.
    TaskFailed {
        /// The worker's failure message.
        message: String,
    },
    /// A shard's worker kept dying: retries exhausted.
    WorkerLost {
        /// The shard whose workers died.
        shard: usize,
        /// Spawn attempts consumed (`max_retries + 1`).
        attempts: u32,
        /// The last observed cause of death.
        last: String,
    },
    /// The request's deadline expired before every shard reported.
    DeadlineExceeded,
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::TaskFailed { message } => {
                write!(f, "task failed deterministically: {message}")
            }
            HostError::WorkerLost {
                shard,
                attempts,
                last,
            } => write!(
                f,
                "shard {shard} lost its worker {attempts} times (last: {last})"
            ),
            HostError::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for HostError {}

/// Supervision counters.
///
/// The whole struct is copied out in one piece by [`ShardHost::stats`]
/// (the host is single-threaded by construction — every mutation goes
/// through `&mut self`), so a snapshot can never mix counters from two
/// different moments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Requests run through the host (fleet or degraded).
    pub requests: u64,
    /// Workers spawned (first spawns + restarts).
    pub spawns: u64,
    /// Worker deaths survived (each triggers a backoff + respawn).
    /// Also counts spawn/send failures and injected kills, so
    /// `restarts >= deaths_eof + deaths_heartbeat_timeout` need not
    /// hold as an equality.
    pub restarts: u64,
    /// Shards re-dispatched after a worker death.
    pub redispatches: u64,
    /// Deaths observed as the worker's frame stream ending: clean EOF,
    /// pipe error, or a corrupt frame — the worker is gone or
    /// unusable either way.
    pub deaths_eof: u64,
    /// Deaths declared by the heartbeat audit: an outstanding slot
    /// silent past [`HostConfig::heartbeat_timeout`], killed by the
    /// parent.
    pub deaths_heartbeat_timeout: u64,
    /// Parent-side kills delivered by the fault plan.
    pub kills_injected: u64,
    /// Requests served in-process because workers could not spawn.
    pub degraded: u64,
    /// Frames received from current-epoch workers.
    pub frames_received: u64,
    /// Total nanoseconds slept in retry backoff.
    pub backoff_nanos_total: u64,
    /// Requests failed on [`HostError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Circuit-breaker trips (transitions into the open state).
    pub breaker_trips: u64,
    /// Half-open probe requests admitted through the breaker.
    pub breaker_probes: u64,
    /// Always 0: the host no longer hedges. The field stays only
    /// because slbench reads it; it goes with slbench's
    /// `serve.fleet_hedges_dispatched` row in a `benchmark` change. It
    /// has no row in the counter table, so no series publishes it.
    pub hedges_dispatched: u64,
}

impl HostStats {
    /// Adds every counter of `other` into `self` (the fleet-wide sum
    /// over hosts or requests).
    pub fn absorb(&mut self, other: &HostStats) {
        for counter in &FLEET_COUNTERS {
            *(counter.field)(self) += counter.read(other);
        }
    }
}

/// Every [`HostStats`] field but `hedges_dispatched` as its metric
/// series — the one place that pairs the two. Publishing,
/// [`HostStats::absorb`] and [`fleet_metrics_drift`] all walk this
/// table, so a new field is one new row.
const FLEET_COUNTERS: [CounterRow<HostStats>; 13] = counter_table! {
    requests => "sparseloop_fleet_requests_total", [];
    spawns => "sparseloop_fleet_spawns_total", [];
    restarts => "sparseloop_fleet_restarts_total", [];
    redispatches => "sparseloop_fleet_redispatches_total", [];
    deaths_eof => "sparseloop_fleet_deaths_total", [("cause", "eof")];
    deaths_heartbeat_timeout => "sparseloop_fleet_deaths_total", [("cause", "heartbeat_timeout")];
    kills_injected => "sparseloop_fleet_kills_injected_total", [];
    degraded => "sparseloop_fleet_degraded_total", [];
    frames_received => "sparseloop_fleet_frames_total", [];
    backoff_nanos_total => "sparseloop_fleet_backoff_nanos_total", [];
    deadline_exceeded => "sparseloop_fleet_deadline_exceeded_total", [];
    breaker_trips => "sparseloop_fleet_breaker_trips_total", [];
    breaker_probes => "sparseloop_fleet_breaker_probes_total", [];
};

/// The fleet series in `snap` that disagree with `stats`, one line
/// each; empty when every `sparseloop_fleet_*` counter reads exactly
/// its [`HostStats`] field. A missing series is drift: a publishing
/// host registers every row, zeros included. Pass the sum over every
/// host that published into the hub ([`HostStats::absorb`]).
pub fn fleet_metrics_drift(snap: &MetricsSnapshot, stats: &HostStats) -> Vec<String> {
    table::drift(&FLEET_COUNTERS, stats, |name, labels| {
        snap.value(name, labels).map(|v| v as f64)
    })
}

struct SlotState {
    handle: Box<dyn WorkerHandle>,
    epoch: u64,
    last_seen: Instant,
    frames_since_dispatch: u32,
    kill_after: Option<u32>,
    /// Hub-clock reading of the last dispatch to this slot (0 when the
    /// host is unobserved) — anchors the `ShardDispatch` span.
    dispatched_nanos: u64,
    /// Span id pre-allocated for the in-flight dispatch (0 when the
    /// host is unobserved). It travels to the worker inside the Task's
    /// trace context, so worker phase spans parent under it; the
    /// dispatch span itself is recorded with this id at result receipt.
    dispatch_span_id: u64,
    /// Compile + search nanos from the worker's latest `Stats` frame,
    /// which precedes its `TaskDone` (0 when the host is unobserved).
    busy_nanos: u64,
}

/// What every dispatch of one request carries.
#[derive(Clone, Copy)]
struct Dispatch<'a> {
    task_id: u64,
    /// The spec text the workers compile.
    spec: &'a str,
    deadline: Option<Instant>,
    /// (request id, round-trip span id) when observed.
    trace: Option<(u64, u64)>,
}

/// Observability attachment of a [`ShardHost`]: the shared hub plus the
/// last [`HostStats`] already published, so counters advance by deltas
/// and stay equal to the stats snapshot after every request.
struct HostObs {
    hub: ObsHub,
    published: HostStats,
}

/// The supervising parent of a multi-process sharded search (see the
/// [module docs](self)).
pub struct ShardHost<S: WorkerSpawner> {
    config: HostConfig,
    spawner: S,
    /// One worker slot per shard.
    slots: Vec<Option<SlotState>>,
    events_tx: mpsc::Sender<WorkerEvent>,
    events_rx: mpsc::Receiver<WorkerEvent>,
    fault_plan: FaultPlan,
    next_task_id: u64,
    next_epoch: u64,
    breaker: CircuitBreaker,
    stats: HostStats,
    obs: Option<HostObs>,
}

impl<S: WorkerSpawner> ShardHost<S> {
    /// A host with `config.shards` empty slots; workers spawn lazily on
    /// the first request.
    pub fn new(config: HostConfig, spawner: S) -> Self {
        let shards = config.shards.max(1);
        let fault_plan = config.fault_plan.clone();
        let breaker = CircuitBreaker::new(config.breaker);
        let (events_tx, events_rx) = mpsc::channel();
        ShardHost {
            config,
            spawner,
            slots: (0..shards).map(|_| None).collect(),
            events_tx,
            events_rx,
            fault_plan,
            next_task_id: 1,
            next_epoch: 1,
            breaker,
            stats: HostStats::default(),
            obs: None,
        }
    }

    /// A host publishing its supervision counters, worker phase
    /// timings, and dispatch/round-trip spans into `hub` (see the
    /// README's metric catalog for names).
    pub fn new_observed(config: HostConfig, spawner: S, hub: ObsHub) -> Self {
        let mut host = Self::new(config, spawner);
        // breaker cooldowns follow the hub clock, so ManualClock-backed
        // hubs make breaker transitions fully deterministic
        host.breaker.set_clock(hub.clock());
        hub.set_protocol_version(crate::protocol::PROTOCOL_VERSION);
        host.obs = Some(HostObs {
            hub,
            published: HostStats::default(),
        });
        // pre-register the catalog so snapshots before any traffic
        // still expose every fleet series at zero
        host.publish_metrics();
        host
    }

    /// Point-in-time supervision counters. The host is single-threaded
    /// (`&mut self` everywhere), so this copy is always internally
    /// consistent — no counter can be mid-update.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// The attached observability hub, if any.
    pub fn hub(&self) -> Option<&ObsHub> {
        self.obs.as_ref().map(|o| &o.hub)
    }

    /// Current circuit-breaker position.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Spawns any missing workers now, so the first request
    /// does not pay spawn latency — the pool calls this at build time.
    pub fn prewarm(&mut self) -> std::io::Result<()> {
        for slot in 0..self.config.shards {
            if self.slots[slot].is_none() {
                self.spawn_slot(slot)?;
            }
        }
        Ok(())
    }

    /// Runs `scenario` (compiled from the spec `text` the workers
    /// receive) across the worker fleet, and builds the reply through
    /// the batch driver on `session` (see the [module docs](self) for
    /// the policy). Under a caller-provided trace context the fleet
    /// round-trip span parents under `ctx.parent_span_id` and every
    /// dispatch/worker span is tagged with `ctx.request_id`, so a
    /// service request's timeline crosses the process boundary intact.
    /// `None` (or an unobserved host) falls back to a host-allocated
    /// request id.
    pub fn run(
        &mut self,
        scenario: &Scenario,
        text: &str,
        session: &EvalSession,
        ctx: Option<TraceContext>,
    ) -> Result<ScenarioReply, HostError> {
        // (request id, parent span, round-trip span id, start) — the
        // round-trip span id is allocated up front so dispatch spans
        // can parent under it before it is recorded.
        let trace = self.obs.as_ref().map(|o| {
            let ctx = ctx.unwrap_or_default();
            let req_id = if ctx.request_id != 0 {
                ctx.request_id
            } else {
                o.hub.next_request_id()
            };
            (
                req_id,
                ctx.parent_span_id,
                o.hub.next_span_id(),
                o.hub.now_nanos(),
            )
        });
        let result = self.run_inner(
            scenario,
            text,
            session,
            trace.map(|(id, _, span, _)| (id, span)),
        );
        if let Some((req_id, parent, span, start_nanos)) = trace {
            if result.is_ok() {
                if let Some(o) = &self.obs {
                    o.hub.span_with_id(
                        req_id,
                        span,
                        parent,
                        SpanKind::WorkerRoundTrip,
                        None,
                        start_nanos,
                    );
                }
            }
            self.publish_metrics();
        }
        result
    }

    fn run_inner(
        &mut self,
        scenario: &Scenario,
        text: &str,
        session: &EvalSession,
        // (request id, round-trip span id) when observed
        trace: Option<(u64, u64)>,
    ) -> Result<ScenarioReply, HostError> {
        self.stats.requests += 1;
        self.drain_idle_events();
        let n = self.config.shards;
        let degraded = || scenario_reply(scenario.run_on(session, &LocalShards(n), None));

        // an open breaker short-circuits straight to the degraded
        // in-process path: a sick fleet is a *state*, not something
        // each request rediscovers through spawn attempts and backoff
        if !self.breaker.allow() {
            self.stats.degraded += 1;
            return Ok(degraded());
        }
        if self.breaker.state() == BreakerState::HalfOpen {
            self.stats.breaker_probes += 1;
        }

        // ensure a full fleet; if the transport cannot produce
        // workers at all, serve in-process rather than failing the
        // request — and let the breaker count the failure
        for slot in 0..n {
            if self.slots[slot].is_none() && self.spawn_slot(slot).is_err() {
                if self.breaker.record_failure() {
                    self.stats.breaker_trips += 1;
                }
                self.stats.degraded += 1;
                return Ok(degraded());
            }
        }

        let start = Instant::now();
        let deadline = self.config.request_deadline.map(|d| start + d);
        let task_id = self.next_task_id;
        self.next_task_id += 1;
        let task = Dispatch {
            task_id,
            spec: text,
            deadline,
            trace,
        };
        let mut attempts = vec![0u32; n];
        let mut shard_results: Vec<Option<Vec<ExpResult>>> = vec![None; n];

        for shard in 0..n {
            self.dispatch_shard(shard, task, &mut attempts)?;
        }

        while shard_results.iter().any(Option::is_none) {
            let now = Instant::now();
            if let Some(d) = deadline {
                if now >= d {
                    self.stats.deadline_exceeded += 1;
                    return Err(HostError::DeadlineExceeded);
                }
            }
            // wake at the earliest of: request deadline, first possible
            // heartbeat expiry of a slot that still owes a result
            let mut wake = deadline;
            for (st, result) in self.slots.iter().zip(&shard_results) {
                if let (Some(st), None) = (st, result) {
                    let hb = st.last_seen + self.config.heartbeat_timeout;
                    wake = Some(wake.map_or(hb, |w| w.min(hb)));
                }
            }
            let wait = wake
                .map(|w| w.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(50))
                .max(Duration::from_millis(1));

            let event = self.events_rx.recv_timeout(wait);
            match event {
                Ok(WorkerEvent { slot, epoch, kind }) => {
                    let shard = slot as usize;
                    if !self.is_current(shard, epoch) {
                        continue; // a superseded worker's last gasp
                    }
                    match kind {
                        EventKind::Frame(frame) => {
                            self.stats.frames_received += 1;
                            let kill_due = {
                                let st = self.slots[shard].as_mut().expect("epoch-checked");
                                st.last_seen = Instant::now();
                                st.frames_since_dispatch += 1;
                                st.kill_after.is_some_and(|m| st.frames_since_dispatch >= m)
                            };
                            match frame {
                                Frame::TaskDone { id, results }
                                    if id == task_id && shard_results[shard].is_none() =>
                                {
                                    if let Some(o) = &self.obs {
                                        let st = self.slots[shard].as_ref().expect("epoch-checked");
                                        // idle = dispatch round trip minus
                                        // worker busy time
                                        let earliest =
                                            st.dispatched_nanos.saturating_add(st.busy_nanos);
                                        let label = shard.to_string();
                                        o.hub
                                            .registry()
                                            .counter(
                                                "sparseloop_fleet_idle_nanos_total",
                                                &[("shard", &label)],
                                            )
                                            .add(o.hub.now_nanos().saturating_sub(earliest));
                                        let (rid, roundtrip) = trace.unwrap_or((0, 0));
                                        o.hub.span_with_id(
                                            rid,
                                            st.dispatch_span_id,
                                            roundtrip,
                                            SpanKind::ShardDispatch,
                                            Some(shard as u32),
                                            st.dispatched_nanos,
                                        );
                                    }
                                    shard_results[shard] = Some(results);
                                }
                                Frame::Stats {
                                    id,
                                    shard: stats_shard,
                                    compile_nanos,
                                    search_nanos,
                                    generated,
                                    evaluated,
                                    trace_request,
                                    trace_parent,
                                } if id == task_id => {
                                    self.slots[shard]
                                        .as_mut()
                                        .expect("epoch-checked")
                                        .busy_nanos = compile_nanos.saturating_add(search_nanos);
                                    self.observe_worker_stats(
                                        trace_request,
                                        trace_parent,
                                        stats_shard,
                                        (compile_nanos, search_nanos),
                                        (generated, evaluated),
                                    );
                                }
                                Frame::TaskFailed { id, message } if id == task_id => {
                                    return Err(HostError::TaskFailed { message });
                                }
                                // Hello (version-checked by the event
                                // forwarder), Heartbeat, frames for old
                                // tasks: liveness only
                                _ => {}
                            }
                            if kill_due {
                                self.stats.kills_injected += 1;
                                self.kill_slot(shard);
                                if shard_results[shard].is_none() {
                                    let why = "injected kill".to_string();
                                    self.redispatch(shard, task, &mut attempts, why)?;
                                }
                            }
                        }
                        EventKind::Exited(why) => {
                            self.stats.deaths_eof += 1;
                            self.drop_slot(shard);
                            if shard_results[shard].is_none() {
                                let why = why.unwrap_or_else(|| "worker exited".to_string());
                                self.redispatch(shard, task, &mut attempts, why)?;
                            }
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // heartbeat audit: slots that owe a result and stayed
                    // silent past the timeout are presumed dead and
                    // killed for real
                    for (shard, result) in shard_results.iter().enumerate() {
                        let silent = result.is_none()
                            && self.slots[shard].as_ref().is_some_and(|st| {
                                st.last_seen.elapsed() > self.config.heartbeat_timeout
                            });
                        if silent {
                            self.stats.deaths_heartbeat_timeout += 1;
                            self.kill_slot(shard);
                            let why = "heartbeat timeout".to_string();
                            self.redispatch(shard, task, &mut attempts, why)?;
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("host holds an event sender; channel cannot disconnect")
                }
            }
        }
        self.breaker.record_success();

        // a worker's Skipped entry (a fixed-mapping experiment) or a
        // missing one contributes nothing to the merge
        let returned = shard_results
            .into_iter()
            .map(|r| {
                let results = r.expect("loop exits only when every shard reported");
                results.into_iter().map(shard_part).collect()
            })
            .collect();
        let mut outcome = scenario.run_on(session, &ReturnedShards(returned), None);
        // the fleet reply's wall time covers dispatch as well as merge
        outcome.wall_seconds = start.elapsed().as_secs_f64();
        Ok(scenario_reply(outcome))
    }

    /// Books the events that arrived while the host sat idle, exactly
    /// as the request loop books them. A worker that died meanwhile
    /// leaves its slot empty, so the request respawns it before
    /// dispatch instead of paying a retry and a backoff sleep for it.
    fn drain_idle_events(&mut self) {
        while let Ok(WorkerEvent { slot, epoch, kind }) = self.events_rx.try_recv() {
            let slot = slot as usize;
            if !self.is_current(slot, epoch) {
                continue;
            }
            match kind {
                EventKind::Frame(_) => self.stats.frames_received += 1,
                EventKind::Exited(_) => {
                    self.stats.deaths_eof += 1;
                    self.drop_slot(slot);
                }
            }
        }
    }

    /// Whether `epoch` is the live worker in `slot`.
    fn is_current(&self, slot: usize, epoch: u64) -> bool {
        self.slots
            .get(slot)
            .and_then(Option::as_ref)
            .is_some_and(|st| st.epoch == epoch)
    }

    fn spawn_slot(&mut self, slot: usize) -> std::io::Result<()> {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let fault = self.fault_plan.take(slot as u32);
        let (worker_fault, kill_after) = match fault {
            Some(WorkerFault::KillAfterFrames(m)) => (None, Some(m)),
            other => (other, None),
        };
        let handle =
            self.spawner
                .spawn(slot as u32, epoch, worker_fault, self.events_tx.clone())?;
        self.stats.spawns += 1;
        self.slots[slot] = Some(SlotState {
            handle,
            epoch,
            last_seen: Instant::now(),
            frames_since_dispatch: 0,
            kill_after,
            dispatched_nanos: 0,
            dispatch_span_id: 0,
            busy_nanos: 0,
        });
        Ok(())
    }

    /// Sends the shard's task to its slot, (re)spawning as
    /// needed; spawn/send failures consume retry attempts with backoff.
    fn dispatch_shard(
        &mut self,
        slot: usize,
        task: Dispatch<'_>,
        attempts: &mut [u32],
    ) -> Result<(), HostError> {
        loop {
            if self.slots[slot].is_none() {
                if let Err(e) = self.spawn_slot(slot) {
                    self.retire_attempt(slot, attempts, e.to_string(), task.deadline)?;
                    continue;
                }
            }
            if let Err(e) = self.send_task(slot, task) {
                self.drop_slot(slot);
                self.retire_attempt(slot, attempts, e.to_string(), task.deadline)?;
                continue;
            }
            // a zero-frame kill schedule fires at dispatch itself
            let instant_kill = self.slots[slot]
                .as_ref()
                .is_some_and(|st| st.kill_after == Some(0));
            if instant_kill {
                self.stats.kills_injected += 1;
                self.kill_slot(slot);
                let why = "injected kill".to_string();
                self.retire_attempt(slot, attempts, why, task.deadline)?;
                continue;
            }
            return Ok(());
        }
    }

    /// Retires a dead worker's attempt at `shard` and dispatches the
    /// shard again.
    fn redispatch(
        &mut self,
        shard: usize,
        task: Dispatch<'_>,
        attempts: &mut [u32],
        why: String,
    ) -> Result<(), HostError> {
        self.retire_attempt(shard, attempts, why, task.deadline)?;
        self.dispatch_shard(shard, task, attempts)
    }

    /// Sends the task for `shard` to its (spawned) worker and
    /// stamps the slot's dispatch. Each dispatch attempt gets a fresh
    /// span id; the worker parents its phase spans under it via the
    /// task's trace context, and the span itself is recorded at result
    /// receipt (retries therefore show as sibling dispatches).
    fn send_task(&mut self, shard: usize, task: Dispatch<'_>) -> std::io::Result<()> {
        let (trace_request, dispatch_span) = match (&self.obs, task.trace) {
            (Some(o), Some((rid, _))) => (rid, o.hub.next_span_id()),
            _ => (0, 0),
        };
        let frame = Frame::Task {
            id: task.task_id,
            shard: shard as u32,
            shards: self.config.shards as u32,
            heartbeat_ms: self.config.heartbeat_ms,
            spec: task.spec.to_string(),
            // ask for a phase-timing Stats frame only when someone is
            // listening
            want_stats: self.obs.is_some(),
            trace_request,
            trace_parent: dispatch_span,
        };
        let dispatched_nanos = self.obs.as_ref().map_or(0, |o| o.hub.now_nanos());
        let st = self.slots[shard].as_mut().expect("caller spawned the slot");
        st.frames_since_dispatch = 0;
        st.last_seen = Instant::now();
        st.dispatched_nanos = dispatched_nanos;
        st.dispatch_span_id = dispatch_span;
        st.handle.send(&frame)
    }

    /// Books one consumed spawn attempt for `slot`: fails the request
    /// once retries are exhausted (feeding the breaker), otherwise
    /// sleeps the exponential backoff — clipped to the request deadline,
    /// and skipped entirely (failing fast with
    /// [`HostError::DeadlineExceeded`]) when the deadline has already
    /// passed, so a request can never sleep past its own expiry.
    fn retire_attempt(
        &mut self,
        slot: usize,
        attempts: &mut [u32],
        why: String,
        deadline: Option<Instant>,
    ) -> Result<(), HostError> {
        attempts[slot] += 1;
        self.stats.restarts += 1;
        if let Some(o) = &self.obs {
            o.hub
                .registry()
                .counter(
                    "sparseloop_fleet_shard_attempts_total",
                    &[("shard", &slot.to_string())],
                )
                .inc();
        }
        if attempts[slot] > self.config.max_retries {
            if self.breaker.record_failure() {
                self.stats.breaker_trips += 1;
            }
            return Err(HostError::WorkerLost {
                shard: slot,
                attempts: attempts[slot],
                last: why,
            });
        }
        self.stats.redispatches += 1;
        let exp = (attempts[slot] - 1).min(16);
        let mut backoff = self.config.backoff_base.saturating_mul(1 << exp);
        if let Some(d) = deadline {
            let now = Instant::now();
            if now >= d {
                self.stats.deadline_exceeded += 1;
                return Err(HostError::DeadlineExceeded);
            }
            backoff = backoff.min(d - now);
        }
        self.stats.backoff_nanos_total = self
            .stats
            .backoff_nanos_total
            .saturating_add(u64::try_from(backoff.as_nanos()).unwrap_or(u64::MAX));
        std::thread::sleep(backoff);
        Ok(())
    }

    /// Publishes the delta between the current [`HostStats`] and the
    /// last published copy into the hub's registry — called once per
    /// request, so after any request every fleet counter equals its
    /// stats field. Registration is idempotent, so the full catalog
    /// appears in snapshots even at zero.
    fn publish_metrics(&mut self) {
        let now = self.stats;
        let breaker_code = self.breaker.state().code();
        let Some(obs) = &mut self.obs else { return };
        let prev = obs.published;
        let reg = obs.hub.registry();
        for c in &FLEET_COUNTERS {
            let (new, old) = (c.read(&now), c.read(&prev));
            let counter = c.register(reg);
            if new > old {
                counter.add(new - old);
            }
        }
        reg.gauge("sparseloop_fleet_breaker_state", &[])
            .set_u64(breaker_code);
        obs.published = now;
    }

    /// Folds one worker-side [`Frame::Stats`] into histograms and
    /// spans. Durations are in the worker's clock domain, so spans are
    /// anchored at receipt time minus duration (magnitudes are what
    /// matter). `timings` is `(compile_nanos, search_nanos)`, `counts`
    /// is `(generated, evaluated)`; both phase spans parent under
    /// `parent_span` — the dispatch span the task traveled in.
    fn observe_worker_stats(
        &self,
        request_id: u64,
        parent_span: u64,
        shard: u32,
        timings: (u64, u64),
        counts: (u64, u64),
    ) {
        let (compile_nanos, search_nanos) = timings;
        let (generated, evaluated) = counts;
        let Some(obs) = &self.obs else { return };
        let reg = obs.hub.registry();
        let shard_label = shard.to_string();
        reg.histogram(
            "sparseloop_worker_compile_nanos",
            &[("shard", &shard_label)],
            LATENCY_BUCKETS_NANOS,
        )
        .observe(compile_nanos);
        reg.histogram(
            "sparseloop_worker_search_nanos",
            &[("shard", &shard_label)],
            LATENCY_BUCKETS_NANOS,
        )
        .observe(search_nanos);
        reg.counter(
            "sparseloop_worker_candidates_total",
            &[("stage", "generated")],
        )
        .add(generated);
        reg.counter(
            "sparseloop_worker_candidates_total",
            &[("stage", "evaluated")],
        )
        .add(evaluated);
        let now = obs.hub.now_nanos();
        obs.hub.span_with_duration(
            request_id,
            SpanKind::WorkerCompile,
            Some(shard),
            now.saturating_sub(compile_nanos.saturating_add(search_nanos)),
            compile_nanos,
            parent_span,
        );
        obs.hub.span_with_duration(
            request_id,
            SpanKind::WorkerSearch,
            Some(shard),
            now.saturating_sub(search_nanos),
            search_nanos,
            parent_span,
        );
    }

    fn kill_slot(&mut self, slot: usize) {
        if let Some(mut st) = self.slots[slot].take() {
            st.handle.kill();
        }
    }

    fn drop_slot(&mut self, slot: usize) {
        self.slots[slot] = None;
    }

    /// Asks every live worker to exit, then severs the transports.
    pub fn shutdown(&mut self) {
        for st in self.slots.iter_mut().flatten() {
            let _ = st.handle.send(&Frame::Shutdown);
        }
        for slot in 0..self.slots.len() {
            self.kill_slot(slot);
        }
    }
}

/// One worker's result for one experiment, as a raw shard walk.
fn shard_part(result: ExpResult) -> (Option<ShardWinner>, SearchStats) {
    match result {
        ExpResult::Winner {
            value,
            key,
            stats,
            mapping,
        } => (Some((value, key, mapping)), stats),
        ExpResult::NoWinner { stats } => (None, stats),
        ExpResult::Skipped => (None, SearchStats::default()),
    }
}

impl<S: WorkerSpawner> Drop for ShardHost<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DiePoint;
    use crate::proc::ThreadSpawner;
    use sparseloop_designs::Experiment;
    use sparseloop_mapping::Mapspace;

    /// A small two-experiment scenario (one search, one fixed) whose
    /// debug-mode search finishes in well under a second.
    fn small_scenario() -> Scenario {
        Scenario::new("fault_demo", "small search for fault tests", || {
            let layer = sparseloop_workloads::spmspm(8, 8, 8, 0.5, 0.5);
            let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
            let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
            let search = Experiment::search("demo@search", dp.clone(), layer.clone(), space);
            let fixed_mapping = Mapspace::all_temporal(&layer.einsum, &dp.arch)
                .enumerate(1)
                .remove(0);
            let fixed = Experiment::fixed("demo@fixed", dp, layer, fixed_mapping);
            vec![search, fixed]
        })
    }

    /// Runs `text` through `host` the way the service does: compiled
    /// once by the caller, replied on the caller's session.
    fn run(
        host: &mut ShardHost<impl WorkerSpawner>,
        text: &str,
    ) -> Result<ScenarioReply, HostError> {
        let scenario = sparseloop_spec::compile_str(text).unwrap().into_scenario();
        host.run(&scenario, text, &EvalSession::new(), None)
    }

    fn reference_reply(text: &str, shards: usize) -> ScenarioReply {
        let scenario = sparseloop_spec::compile_str(text).unwrap().into_scenario();
        scenario_reply(scenario.run(&EvalSession::new(), Some(shards)))
    }

    fn assert_bit_identical(got: &ScenarioReply, want: &ScenarioReply, tag: &str) {
        assert_eq!(crate::service::reply_drift(want, got), None, "{tag}");
    }

    fn fast_config(shards: usize) -> HostConfig {
        HostConfig::default()
            .with_shards(shards)
            .with_heartbeat(10, Duration::from_millis(300))
            .with_retries(2, Duration::from_millis(2))
    }

    #[test]
    fn fleet_matches_in_process_run_without_faults() {
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        for shards in [1usize, 2, 3] {
            let want = reference_reply(&text, shards);
            let mut host = ShardHost::new(fast_config(shards), ThreadSpawner);
            let got = run(&mut host, &text).unwrap();
            assert_bit_identical(&got, &want, &format!("shards={shards}"));
            let stats = host.stats();
            assert_eq!(stats.spawns, shards as u64);
            assert_eq!(stats.restarts, 0);
        }
    }

    #[test]
    fn every_die_point_recovers_bit_identically() {
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let want = reference_reply(&text, 2);
        for die in [
            DiePoint::Startup,
            DiePoint::AfterHello,
            DiePoint::BeforeResult,
        ] {
            for slot in [0u32, 1] {
                let plan = FaultPlan::none().with(slot, WorkerFault::DieAt(die));
                let mut host = ShardHost::new(fast_config(2).with_fault_plan(plan), ThreadSpawner);
                let got = run(&mut host, &text).unwrap();
                assert_bit_identical(&got, &want, &format!("die={die:?} slot={slot}"));
                assert!(
                    host.stats().restarts >= 1,
                    "die={die:?} slot={slot}: a death must have been survived"
                );
            }
        }
    }

    #[test]
    fn parent_side_kills_at_every_frame_offset_recover() {
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let want = reference_reply(&text, 2);
        for offset in 0u32..4 {
            let plan = FaultPlan::none().with(1, WorkerFault::KillAfterFrames(offset));
            let mut host = ShardHost::new(fast_config(2).with_fault_plan(plan), ThreadSpawner);
            let got = run(&mut host, &text).unwrap();
            assert_bit_identical(&got, &want, &format!("kill after {offset} frames"));
            if offset == 0 {
                assert_eq!(host.stats().kills_injected, 1);
                assert!(host.stats().restarts >= 1);
            }
        }
    }

    #[test]
    fn corrupted_and_dropped_results_are_survived() {
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let want = reference_reply(&text, 2);
        for (fault, tag) in [
            (WorkerFault::CorruptResult, "corrupt"),
            (WorkerFault::DropResult, "drop"),
        ] {
            let plan = FaultPlan::none().with(0, fault);
            let mut host = ShardHost::new(fast_config(2).with_fault_plan(plan), ThreadSpawner);
            let got = run(&mut host, &text).unwrap();
            assert_bit_identical(&got, &want, tag);
            assert!(host.stats().restarts >= 1, "{tag}: must survive a death");
        }
    }

    #[test]
    fn seeded_fault_schedules_converge_bit_identically() {
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let want = reference_reply(&text, 2);
        for seed in 0u64..6 {
            let plan = FaultPlan::from_seed(seed, 2);
            let mut host = ShardHost::new(fast_config(2).with_fault_plan(plan), ThreadSpawner);
            let got = run(&mut host, &text).unwrap();
            assert_bit_identical(&got, &want, &format!("seed={seed}"));
        }
    }

    #[test]
    fn stalled_worker_times_out_and_recovers() {
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let want = reference_reply(&text, 2);
        let plan = FaultPlan::none().with(1, WorkerFault::StallBeforeResult);
        let mut host = ShardHost::new(fast_config(2).with_fault_plan(plan), ThreadSpawner);
        let got = run(&mut host, &text).unwrap();
        assert_bit_identical(&got, &want, "stall");
        assert!(
            host.stats().deaths_heartbeat_timeout >= 1,
            "stall must be timed out"
        );
    }

    /// A spawner whose workers always die at startup — every spawn
    /// succeeds, every worker is a corpse.
    struct Moribund;
    impl WorkerSpawner for Moribund {
        fn spawn(
            &self,
            slot: u32,
            epoch: u64,
            _fault: Option<WorkerFault>,
            events: mpsc::Sender<WorkerEvent>,
        ) -> std::io::Result<Box<dyn WorkerHandle>> {
            ThreadSpawner.spawn(
                slot,
                epoch,
                Some(WorkerFault::DieAt(DiePoint::Startup)),
                events,
            )
        }
    }

    #[test]
    fn exhausted_retries_report_worker_lost() {
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let mut host = ShardHost::new(fast_config(1), Moribund);
        match run(&mut host, &text) {
            Err(HostError::WorkerLost {
                shard, attempts, ..
            }) => {
                assert_eq!(shard, 0);
                assert_eq!(attempts, 3, "max_retries 2 = 3 attempts");
            }
            other => panic!("expected WorkerLost, got {other:?}"),
        }
    }

    #[test]
    fn unspawnable_workers_degrade_to_in_process() {
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let want = reference_reply(&text, 2);
        let spawner = crate::proc::ProcessSpawner::new("/nonexistent/sparseloop-shard-worker");
        let mut host = ShardHost::new(fast_config(2), spawner);
        let got = run(&mut host, &text).unwrap();
        assert_bit_identical(&got, &want, "degraded");
        assert_eq!(host.stats().degraded, 1);
    }

    #[test]
    fn request_deadline_is_enforced() {
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let mut host = ShardHost::new(
            fast_config(2).with_deadline(Duration::from_millis(1)),
            ThreadSpawner,
        );
        // the 1ms budget cannot cover a debug-mode compile + search
        match run(&mut host, &text) {
            Err(HostError::DeadlineExceeded) => {}
            Ok(_) => { /* astonishingly fast machine: nothing to assert */ }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn fleet_counters_cover_every_host_stats_field_once() {
        let mut stats = HostStats::default();
        for (i, c) in FLEET_COUNTERS.iter().enumerate() {
            *(c.field)(&mut stats) = i as u64 + 1;
        }
        // distinct read-backs: no two rows alias one field
        for (i, c) in FLEET_COUNTERS.iter().enumerate() {
            assert_eq!(c.read(&stats), i as u64 + 1, "{}{:?}", c.name, c.labels);
        }
        // every field but the always-zero `hedges_dispatched` has a row
        let debug = format!("{stats:?}");
        assert_eq!(debug.matches(": 0").count(), 1, "{debug}");
        assert!(debug.contains("hedges_dispatched: 0"), "{debug}");
        let mut doubled = stats;
        doubled.absorb(&stats);
        assert!(FLEET_COUNTERS
            .iter()
            .all(|c| c.read(&doubled) == 2 * c.read(&stats)));
    }

    /// Every fleet counter in the registry must equal its [`HostStats`]
    /// field after a request — the published deltas reconcile exactly.
    fn assert_metrics_match_stats(host: &ShardHost<impl WorkerSpawner>, tag: &str) {
        let snap = host.hub().expect("observed host").snapshot();
        assert_eq!(
            fleet_metrics_drift(&snap, &host.stats()),
            Vec::<String>::new(),
            "{tag}"
        );
        assert_eq!(
            snap.value("sparseloop_fleet_breaker_state", &[]),
            Some(i128::from(host.breaker_state().code())),
            "{tag}: breaker_state gauge"
        );
    }

    #[test]
    fn eof_death_is_split_from_heartbeat_death() {
        use sparseloop_obs::ObsHub;
        let text = sparseloop_spec::emit_scenario(&small_scenario());

        // a worker dying before its result is an EOF death
        let plan = FaultPlan::none().with(0, WorkerFault::DieAt(DiePoint::BeforeResult));
        let mut host = ShardHost::new_observed(
            fast_config(2).with_fault_plan(plan),
            ThreadSpawner,
            ObsHub::new(),
        );
        run(&mut host, &text).unwrap();
        let stats = host.stats();
        assert!(stats.deaths_eof >= 1, "die-before-result is an EOF death");
        assert_eq!(stats.deaths_heartbeat_timeout, 0);
        assert_metrics_match_stats(&host, "eof");

        // a stalled worker is a heartbeat death
        let plan = FaultPlan::none().with(1, WorkerFault::StallBeforeResult);
        let mut host = ShardHost::new_observed(
            fast_config(2).with_fault_plan(plan),
            ThreadSpawner,
            ObsHub::new(),
        );
        run(&mut host, &text).unwrap();
        let stats = host.stats();
        assert!(
            stats.deaths_heartbeat_timeout >= 1,
            "stall is a heartbeat death"
        );
        assert!(
            stats.backoff_nanos_total > 0,
            "a retry must have backed off"
        );
        assert_metrics_match_stats(&host, "stall");
    }

    #[test]
    fn observed_host_ships_worker_phase_timings() {
        use sparseloop_obs::{ObsHub, SpanKind};
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let want = reference_reply(&text, 2);
        let hub = ObsHub::new();
        let mut host = ShardHost::new_observed(fast_config(2), ThreadSpawner, hub.clone());
        let got = run(&mut host, &text).unwrap();
        assert_bit_identical(&got, &want, "observed");
        assert_metrics_match_stats(&host, "observed");

        // both shards reported phase timings over the protocol
        let snap = hub.snapshot();
        for shard in ["0", "1"] {
            assert_eq!(
                snap.value("sparseloop_worker_search_nanos", &[("shard", shard)]),
                Some(1),
                "shard {shard} search timing"
            );
            assert_eq!(
                snap.value("sparseloop_worker_compile_nanos", &[("shard", shard)]),
                Some(1),
                "shard {shard} compile timing"
            );
        }
        let events = hub.traces().events();
        let kinds: Vec<SpanKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&SpanKind::WorkerCompile));
        assert!(kinds.contains(&SpanKind::WorkerSearch));
        assert!(kinds.contains(&SpanKind::ShardDispatch));
        assert!(kinds.contains(&SpanKind::WorkerRoundTrip));
        // worker candidate counters match the merged search stats
        let total_generated: u64 = got
            .results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|o| o.stats.generated as u64)
            .sum();
        let wire_generated = snap
            .value(
                "sparseloop_worker_candidates_total",
                &[("stage", "generated")],
            )
            .unwrap();
        // fixed-mapping experiments are evaluated parent-side (stats
        // synthesized there), so the wire total is a lower bound
        assert!(
            wire_generated > 0 && wire_generated <= i128::from(total_generated),
            "wire generated {wire_generated} vs merged {total_generated}"
        );
    }

    #[test]
    fn fleet_idle_time_excludes_the_heartbeat_cadence() {
        // round trip minus worker busy time: with a 200ms cadence a
        // reply held back by the heartbeat thread would read >= 200ms
        use sparseloop_obs::ObsHub;
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let hub = ObsHub::new();
        let cfg = fast_config(2).with_heartbeat(200, Duration::from_secs(5));
        let mut host = ShardHost::new_observed(cfg, ThreadSpawner, hub.clone());
        run(&mut host, &text).unwrap();
        let snap = hub.snapshot();
        for shard in ["0", "1"] {
            let idle = snap
                .value("sparseloop_fleet_idle_nanos_total", &[("shard", shard)])
                .unwrap_or_else(|| panic!("shard {shard}: idle counter missing"));
            assert!(idle < 50_000_000, "shard {shard}: idle {idle}ns");
        }
    }

    #[test]
    fn deadline_and_degraded_metrics_reconcile() {
        use sparseloop_obs::ObsHub;
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let mut host = ShardHost::new_observed(
            fast_config(2).with_deadline(Duration::from_millis(1)),
            ThreadSpawner,
            ObsHub::new(),
        );
        if let Err(HostError::DeadlineExceeded) = run(&mut host, &text) {
            assert_eq!(host.stats().deadline_exceeded, 1);
        }
        assert_metrics_match_stats(&host, "deadline");

        let spawner = crate::proc::ProcessSpawner::new("/nonexistent/sparseloop-shard-worker");
        let mut host = ShardHost::new_observed(fast_config(2), spawner, ObsHub::new());
        run(&mut host, &text).unwrap();
        assert_eq!(host.stats().degraded, 1);
        assert_metrics_match_stats(&host, "degraded");
    }

    #[test]
    fn fleet_survives_back_to_back_requests() {
        // the second request reuses the (restarted) fleet from the
        // first — state from a faulted request must not leak forward
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let want = reference_reply(&text, 2);
        let plan = FaultPlan::none().with(0, WorkerFault::DieAt(DiePoint::BeforeResult));
        let mut host = ShardHost::new(fast_config(2).with_fault_plan(plan), ThreadSpawner);
        for round in 0..2 {
            let got = run(&mut host, &text).unwrap();
            assert_bit_identical(&got, &want, &format!("round {round}"));
        }
        assert_eq!(host.stats().requests, 2);
    }

    #[test]
    fn backoff_respects_request_deadline() {
        // regression: retry backoff used to sleep its full exponential
        // schedule even after the request deadline had expired, so a
        // 150ms-deadline request could block for seconds
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let mut host = ShardHost::new(
            HostConfig::default()
                .with_shards(1)
                .with_heartbeat(10, Duration::from_millis(300))
                .with_retries(3, Duration::from_secs(10))
                .with_deadline(Duration::from_millis(150)),
            Moribund,
        );
        let started = Instant::now();
        let got = run(&mut host, &text);
        let elapsed = started.elapsed();
        assert!(
            matches!(got, Err(HostError::DeadlineExceeded)),
            "expected DeadlineExceeded, got {got:?}"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "must fail fast instead of sleeping a 10s backoff: {elapsed:?}"
        );
        assert_eq!(host.stats().deadline_exceeded, 1);
    }

    /// A spawner that refuses the first `failures` spawn attempts, then
    /// behaves like [`ThreadSpawner`] — drives the breaker through a
    /// scripted trip/probe/recover trajectory.
    struct Flaky {
        failures: std::sync::atomic::AtomicU32,
    }
    impl WorkerSpawner for Flaky {
        fn spawn(
            &self,
            slot: u32,
            epoch: u64,
            fault: Option<WorkerFault>,
            events: mpsc::Sender<WorkerEvent>,
        ) -> std::io::Result<Box<dyn WorkerHandle>> {
            use std::sync::atomic::Ordering;
            let left = self.failures.load(Ordering::SeqCst);
            if left > 0 {
                self.failures.store(left - 1, Ordering::SeqCst);
                return Err(std::io::Error::other("transient spawn refusal"));
            }
            ThreadSpawner.spawn(slot, epoch, fault, events)
        }
    }

    #[test]
    fn breaker_trips_and_recovers_deterministically() {
        use crate::breaker::BreakerConfig;
        use sparseloop_obs::{ManualClock, ObsHub};
        use std::sync::Arc;
        let text = sparseloop_spec::emit_scenario(&small_scenario());
        let want = reference_reply(&text, 2);
        let clock = Arc::new(ManualClock::new());
        let hub = ObsHub::with_clock(clock.clone(), 64);
        let spawner = Flaky {
            failures: std::sync::atomic::AtomicU32::new(3),
        };
        let cfg = fast_config(2).with_breaker(BreakerConfig {
            failure_threshold: 2,
            cooldown_nanos: 1_000,
        });
        let mut host = ShardHost::new_observed(cfg, spawner, hub.clone());
        assert_eq!(host.breaker_state(), BreakerState::Closed);

        // two consecutive spawn-failure requests trip the breaker; both
        // are still served via the degraded in-process path
        for round in 0..2 {
            let got = run(&mut host, &text).unwrap();
            assert_bit_identical(&got, &want, &format!("failing round {round}"));
        }
        assert_eq!(host.breaker_state(), BreakerState::Open);
        assert_eq!(host.stats().breaker_trips, 1);
        assert_eq!(host.stats().degraded, 2);
        assert_eq!(
            hub.snapshot().value("sparseloop_fleet_breaker_state", &[]),
            Some(1),
            "open gauge"
        );

        // while open, requests short-circuit: no spawn attempts at all
        let refusals_before = host
            .spawner
            .failures
            .load(std::sync::atomic::Ordering::SeqCst);
        let got = run(&mut host, &text).unwrap();
        assert_bit_identical(&got, &want, "open short-circuit");
        assert_eq!(host.stats().degraded, 3);
        assert_eq!(
            host.spawner
                .failures
                .load(std::sync::atomic::Ordering::SeqCst),
            refusals_before,
            "an open breaker must not attempt spawns"
        );

        // cooldown elapses: a probe goes through, still fails (one
        // refusal left), and re-opens the breaker
        clock.advance(1_000);
        run(&mut host, &text).unwrap();
        assert_eq!(host.breaker_state(), BreakerState::Open);
        assert_eq!(host.stats().breaker_trips, 2);
        assert_eq!(host.stats().breaker_probes, 1);

        // next cooldown: the probe succeeds and closes the breaker
        clock.advance(1_000);
        let got = run(&mut host, &text).unwrap();
        assert_bit_identical(&got, &want, "recovered");
        assert_eq!(host.breaker_state(), BreakerState::Closed);
        assert_eq!(host.stats().breaker_probes, 2);
        assert_eq!(
            hub.snapshot().value("sparseloop_fleet_breaker_state", &[]),
            Some(0),
            "closed gauge"
        );
        assert_metrics_match_stats(&host, "breaker");
    }
}
