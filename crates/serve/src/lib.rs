//! # sparseloop-serve
//!
//! A long-lived, queue-driven evaluation service over shared-cache
//! sessions — the serving front for Sparseloop's analytical model.
//!
//! Search frameworks drive the model with thousands of evaluation
//! requests (SparseMap-style outer loops, design-space sweeps, paper
//! reproductions). Spinning a fresh [`EvalSession`] per request throws
//! the shared density/format caches away; calling one session from many
//! uncoordinated threads gives no admission control and no lifecycle.
//! [`EvalService`] packages the production shape:
//!
//! * **One way in, explicit backpressure** — every request is a
//!   [`Request`] (payload, [`Priority`], optional deadline) entering an
//!   in-process MPSC queue with a hard admission capacity through one
//!   admission path: [`EvalService::submit`] fails fast with
//!   [`SubmitError::QueueFull`] when the service is saturated, and
//!   [`EvalService::submit_blocking`] waits for space instead. A bare
//!   [`ServeRequest`] converts at [`Priority::Batch`] with no deadline.
//! * **Worker pool over one shared session** — `workers` threads pop
//!   requests and evaluate them through one [`EvalSession`], so density
//!   aggregates and format analyses are shared *across requests*; each
//!   search job additionally shards its candidate stream over `shards`
//!   disjoint sub-iterators ([`Mapspace::shards`]) with results
//!   bit-identical to unsharded search at any worker/shard count.
//! * **Per-request response channels** — every submission returns a
//!   [`Ticket`] resolving to the request's [`ServeReply`].
//! * **Session recycling** — the session's intern maps grow with
//!   workload diversity and cannot be evicted safely (issued cache
//!   slots stay referenced by live models). Under a configured
//!   [`ServeConfig::recycle_slot_budget`], the service retires the
//!   session generation once its slot count reaches the budget and
//!   starts a fresh one; in-flight requests keep their generation
//!   alive, so recycling is invisible except in [`ServiceStats`].
//! * **Deadlines and cancellation** — every ticket carries a
//!   [`CancelToken`]; a [`Request::deadline`] arms it with a wall
//!   clock, and a timed-out or dropped ticket trips it, so
//!   abandoned requests stop at the next cancellation checkpoint and
//!   land in [`ServiceStats`]'s `canceled` bucket
//!   (`submitted == completed + panicked + canceled` always holds).
//! * **Graceful shutdown** — [`EvalService::shutdown`] (and `Drop`)
//!   refuses new admissions, drains every queued request so no ticket
//!   hangs, and joins the workers.
//!
//! ## Multi-process shard serving
//!
//! For fault isolation beyond a thread boundary, [`ShardHost`]
//! supervises a fleet of **worker processes** (one per shard) that
//! speak a dependency-free length-prefixed frame protocol over
//! stdin/stdout ([`protocol`]): the parent dispatches spec text plus a
//! shard assignment and workers stream heartbeats and shard winners
//! back. The fleet is one executor of the batch driver
//! ([`EvalSession::run_batch`](sparseloop_core::EvalSession::run_batch)):
//! [`ShardHost::run`] takes the caller's compiled scenario and session
//! and hands the shard winners to the driver as
//! [`ReturnedShards`](sparseloop_core::ReturnedShards), which merges,
//! re-evaluates and replies exactly as for an in-process run —
//! bit-identical results under *any* kill schedule. Worker death
//! (stream EOF or heartbeat silence) triggers re-dispatch of the
//! orphaned shard with exponential backoff; deterministic failures are
//! never retried; unspawnable fleets degrade to in-process execution.
//! The [`fault`] module injects failures deterministically — die at
//! fixed checkpoints, stall, corrupt or drop result frames, parent-side
//! SIGKILL after m frames — from hand-built or seeded
//! ([`FaultPlan::from_seed`]) schedules, which is what lets the
//! fault-injection suite assert bit-identity rather than mere survival.
//!
//! ## Overload protection and pooled fleets
//!
//! The service and the fleet compose into an overload-resilient stack:
//!
//! * **Priority admission and load shedding** — a [`Request`] carries
//!   a [`Priority`] (interactive > batch > background); the queue drains
//!   strictly by band, a full queue displaces the *youngest
//!   lowest-priority* entrant to admit higher-priority work (the victim
//!   resolves to [`ServeError::Shed`] with an EWMA-derived
//!   `retry_after_hint`), and a configured
//!   [`ServeConfig::with_shed_watermark`] refuses background arrivals
//!   early ([`SubmitError::Shed`]) before the queue saturates. A
//!   blocking submit waits in its band's turn and never displaces or
//!   sheds. The stats identity extends to
//!   `submitted == completed + panicked + canceled + shed`.
//! * **Circuit breaker** — consecutive spawn failures or worker losses
//!   trip a per-fleet [`CircuitBreaker`] (closed → open → half-open);
//!   while open, requests short-circuit to degraded in-process
//!   execution (still bit-identical) instead of re-paying the failure,
//!   and after a cooldown a single probe request tests recovery. State
//!   is observable via the `sparseloop_fleet_breaker_state` gauge.
//! * **Prewarmed pools** — [`FleetPool`] keeps long-lived
//!   [`ShardHost`]s checked in/out across requests (amortizing spawn +
//!   handshake); a worker that died while its host sat idle is
//!   respawned at the start of the next request, before dispatch;
//!   [`EvalService::start_with_fleet`] routes scenario/spec requests
//!   through the pool and falls back in-process on fleet machinery
//!   failures without surfacing them to callers.
//!
//! ```
//! use sparseloop_serve::{EvalService, Priority, Request, ServeConfig, ServeRequest};
//!
//! let service = EvalService::start(
//!     ServeConfig::default().with_workers(2).with_shards(2),
//! );
//! let request = ServeRequest::Scenario("fig1_format_tradeoff".into());
//! let ticket = service
//!     .submit(Request { priority: Priority::Interactive, ..request.into() })
//!     .unwrap();
//! let reply = ticket.wait().unwrap().into_scenario();
//! assert!(reply.results.iter().all(Result::is_ok));
//! service.shutdown();
//! ```
//!
//! [`EvalSession`]: sparseloop_core::EvalSession
//! [`Mapspace::shards`]: sparseloop_mapping::Mapspace::shards

pub mod breaker;
pub mod fault;
pub mod pool;
pub mod proc;
pub mod protocol;
pub mod queue;
pub mod service;
pub mod supervisor;
mod table;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use fault::{DiePoint, FaultPlan, WorkerFault};
pub use pool::{FleetPool, FleetPoolConfig, PoolStats};
pub use proc::{run_worker, worker_main, ProcessSpawner, ThreadSpawner, WorkerSpawner};
pub use protocol::{Frame, ProtocolError, PROTOCOL_VERSION};
pub use queue::{Admission, BoundedQueue, Priority};
pub use service::{
    reply_drift, scenario_reply, service_metrics_drift, CancelToken, EvalService, Request,
    ScenarioReply, ServeConfig, ServeError, ServeReply, ServeRequest, ServiceStats, SpecDiagnostic,
    SubmitError, Ticket,
};
pub use supervisor::{fleet_metrics_drift, HostConfig, HostError, HostStats, ShardHost};
