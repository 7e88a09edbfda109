//! Spawns real worker processes (`sparseloop-shard-worker`) under a
//! [`ShardHost`] and drives a deterministic failure matrix through
//! them:
//!
//! * SIGKILL after 0, 1 and 2 frames (at 0 the kill fires at dispatch,
//!   so the fleet must survive a death; after 3 frames it would land
//!   after this spec's `TaskDone`, on an idle worker, and exercise no
//!   re-dispatch),
//! * the worker's stream ending at every checkpoint (startup, after the
//!   handshake, after compute in place of the result frame), each
//!   booked as exactly one EOF death,
//! * a heartbeat stall, a corrupted result frame, a dropped result
//!   frame,
//! * slowed frames ([`WorkerFault::SlowFrames`]): late results that must
//!   ride through untouched,
//! * seeded pseudo-random schedules ([`FaultPlan::from_seed`]), so the
//!   gate sweeps failure combinations nobody hand-picked.
//!
//! The parent executes every fault: the supervisor delivers the
//! SIGKILLs, and the thread reading each worker's frame stream ends,
//! swallows, delays or corrupts what it forwards. The workers run the
//! unmodified production binary.
//!
//! Every request must complete, and its merged winners must be
//! bit-identical to the in-process `Scenario::run` reference. Every
//! case publishes into one hub. At the end, every fleet series must
//! equal the summed `HostStats`, worker compile/search timings must
//! have crossed the frame protocol, and the last request's spans must
//! nest across the process boundary.

use sparseloop_bench::{header, row, timed};
use sparseloop_core::EvalSession;
use sparseloop_obs::{ObsHub, SpanKind};
use sparseloop_serve::{
    fleet_metrics_drift, reply_drift, DiePoint, FaultPlan, HostStats, ProcessSpawner, ShardHost,
    WorkerFault,
};

/// One fault schedule plus the supervision evidence it must leave.
struct Case {
    name: String,
    shards: usize,
    plan: FaultPlan,
    /// The fleet must have survived at least one worker death.
    expect_restarts: bool,
    /// The death must have been detected by heartbeat silence.
    expect_heartbeat_timeout: bool,
    /// Exactly this many deaths must be booked as the frame stream
    /// ending, whether the parent saw the end of stream or a failed
    /// send first.
    expect_eof_deaths: Option<u64>,
}

impl Case {
    fn new(name: impl Into<String>, shards: usize, plan: FaultPlan) -> Self {
        Case {
            name: name.into(),
            shards,
            plan,
            expect_restarts: false,
            expect_heartbeat_timeout: false,
            expect_eof_deaths: None,
        }
    }

    fn restarts(mut self) -> Self {
        self.expect_restarts = true;
        self
    }

    fn heartbeat_timeout(mut self) -> Self {
        self.expect_heartbeat_timeout = true;
        self
    }

    fn eof_deaths(mut self, deaths: u64) -> Self {
        self.expect_eof_deaths = Some(deaths);
        self
    }

    fn check_stats(&self, stats: &HostStats) -> Option<String> {
        if stats.degraded != 0 {
            return Some("request degraded to in-process (workers never ran)".into());
        }
        if self.expect_restarts && stats.restarts == 0 {
            return Some("fault injected but no worker death was survived".into());
        }
        if self.expect_heartbeat_timeout && stats.deaths_heartbeat_timeout == 0 {
            return Some("silent worker was never timed out by heartbeat audit".into());
        }
        match self.expect_eof_deaths {
            Some(want) if stats.deaths_eof != want => Some(format!(
                "{} EOF deaths booked, want {want}",
                stats.deaths_eof
            )),
            _ => None,
        }
    }
}

fn cases() -> Vec<Case> {
    let mut cases = vec![Case::new("baseline (no fault)", 2, FaultPlan::none())];
    for offset in 0..3u32 {
        let case = Case::new(
            format!("SIGKILL after {offset} frames (slot 0)"),
            2,
            FaultPlan::none().with(0, WorkerFault::KillAfterFrames(offset)),
        );
        cases.push(if offset == 0 { case.restarts() } else { case });
    }
    for (die, tag) in [
        (DiePoint::Startup, "at startup"),
        (DiePoint::AfterHello, "after handshake"),
        (DiePoint::BeforeResult, "before result frame"),
    ] {
        for slot in [0u32, 1] {
            let plan = FaultPlan::none().with(slot, WorkerFault::DieAt(die));
            cases.push(
                Case::new(format!("worker dies {tag} (slot {slot})"), 2, plan)
                    .restarts()
                    .eof_deaths(1),
            );
        }
    }
    let stall = FaultPlan::none().with(1, WorkerFault::StallBeforeResult);
    cases.push(
        Case::new("heartbeat stall before result", 2, stall)
            .restarts()
            .heartbeat_timeout(),
    );
    let corrupt = FaultPlan::none().with(0, WorkerFault::CorruptResult);
    cases.push(Case::new("corrupted result frame", 2, corrupt).restarts());
    let dropped = FaultPlan::none().with(1, WorkerFault::DropResult);
    cases.push(
        Case::new("dropped result frame", 2, dropped)
            .restarts()
            .heartbeat_timeout(),
    );
    for (slot, delay_ms) in [(0u32, 15u64), (1, 30)] {
        cases.push(Case::new(
            format!("slow frames ({delay_ms}ms, slot {slot})"),
            2,
            FaultPlan::none().with(slot, WorkerFault::SlowFrames { delay_ms }),
        ));
    }
    for seed in [1u64, 2, 3] {
        cases.push(Case::new(
            format!("seeded schedule (seed {seed}, 3 shards)"),
            3,
            FaultPlan::from_seed(seed, 3),
        ));
    }
    cases
}

pub fn run(failures: &mut Vec<String>) {
    let worker = match super::worker_bin() {
        Ok(worker) => worker,
        Err(e) => return failures.push(e),
    };
    let text = super::smoke_spec();
    let references = [2, 3].map(|shards| super::reference(&text, shards));
    let (scenario, session) = (super::compile(&text), EvalSession::new());
    let hub = ObsHub::new();
    let mut totals = HostStats::default();
    println!("{} schedules against {}", cases().len(), worker.display());
    header(&[
        "schedule",
        "restarts",
        "hb deaths",
        "eof deaths",
        "kills",
        "wall s",
        "verdict",
    ]);
    for case in cases() {
        let config = super::fleet_config(case.shards, case.plan.clone());
        let mut host = ShardHost::new_observed(config, ProcessSpawner::new(&worker), hub.clone());
        let (outcome, wall_s) = timed(|| host.run(&scenario, &text, &session, None));
        let stats = host.stats();
        drop(host);
        totals.absorb(&stats);
        let verdict = match outcome {
            Err(e) => Some(format!("request did not resolve: {e}")),
            Ok(reply) => reply_drift(&references[case.shards - 2], &reply)
                .map(|why| format!("NON-BIT-IDENTICAL: {why}"))
                .or_else(|| case.check_stats(&stats)),
        };
        row(&[
            case.name.clone(),
            stats.restarts.to_string(),
            stats.deaths_heartbeat_timeout.to_string(),
            stats.deaths_eof.to_string(),
            stats.kills_injected.to_string(),
            format!("{wall_s:.3}"),
            verdict.as_deref().unwrap_or("ok").to_string(),
        ]);
        failures.extend(verdict.map(|why| format!("{}: {why}", case.name)));
    }

    let snap = hub.snapshot();
    failures.extend(fleet_metrics_drift(&snap, &totals));
    for phase in ["compile", "search"] {
        if snap.sum_of(&format!("sparseloop_worker_{phase}_nanos")) == 0 {
            failures.push(format!(
                "no worker {phase}-phase timings arrived over the wire"
            ));
        }
    }
    trace_tree_checks(&hub, failures);
}

/// Asserts the cross-process causal nesting of the last fleet request:
/// worker phase spans echo their dispatch span over the frame trailer,
/// and dispatch spans parent under the round trip, so `render_tree`
/// shows one connected timeline per request, retries included.
fn trace_tree_checks(hub: &ObsHub, failures: &mut Vec<String>) {
    let events = hub.traces().events();
    let Some(rid) = events
        .iter()
        .rev()
        .find(|e| e.kind == SpanKind::WorkerRoundTrip)
        .map(|e| e.request_id)
    else {
        return failures.push("trace: no worker_round_trip span recorded".into());
    };
    let req = hub.traces().events_for(rid);
    use SpanKind::{ShardDispatch, WorkerCompile, WorkerRoundTrip, WorkerSearch};
    let ids_of = |kinds: &[SpanKind]| -> Vec<u64> {
        req.iter()
            .filter(|e| kinds.contains(&e.kind))
            .map(|e| e.span_id)
            .collect()
    };
    let roundtrips = ids_of(&[WorkerRoundTrip]);
    let dispatches = ids_of(&[ShardDispatch]);
    let worker_phases = ids_of(&[WorkerCompile, WorkerSearch]);
    if dispatches.is_empty() || worker_phases.is_empty() {
        failures.push(format!(
            "trace: request {rid} has {} dispatch and {} worker phase spans",
            dispatches.len(),
            worker_phases.len()
        ));
    }
    for e in &req {
        let parents = match e.kind {
            ShardDispatch => &roundtrips,
            WorkerCompile | WorkerSearch => &dispatches,
            _ => continue,
        };
        if !parents.contains(&e.parent_span_id) {
            failures.push(format!(
                "trace: {} span {} parents under {}, not under its causal parent",
                e.kind.as_str(),
                e.span_id,
                e.parent_span_id
            ));
        }
    }
    let tree = hub.traces().render_tree(rid);
    for needle in ["worker_round_trip", "shard_dispatch", "worker_compile"] {
        if !tree.contains(needle) {
            failures.push(format!(
                "trace: render_tree({rid}) is missing {needle}:\n{tree}"
            ));
        }
    }
}
