//! A synthetic burst across all three priorities through an
//! [`EvalService`] backed by a pooled worker-process fleet running a
//! seeded fault schedule. The gate is structural, not a throughput
//! number:
//!
//! * every admitted ticket resolves, and every completed reply is
//!   bit-identical to the in-process run — nothing hangs or drifts
//!   under overload;
//! * shedding is strictly priority-ordered: interactive work is never
//!   shed, watermark refusals hit only background arrivals, and the
//!   burst sheds something (otherwise it proved nothing);
//! * the shared hub reconciles with `ServiceStats` and the pool's
//!   `HostStats`, and the queue-depth gauge drains to zero.
//!
//! The breaker's trip and recovery are the `obs_http` phase's drill.

use sparseloop_bench::{header, row};
use sparseloop_obs::ObsHub;
use sparseloop_serve::{
    fleet_metrics_drift, reply_drift, EvalService, FaultPlan, FleetPool, FleetPoolConfig, Priority,
    Request, ServeConfig, ServeError, ServeReply, ServeRequest, SubmitError,
};

const SHARDS: usize = 2;
const ROUNDS: usize = 10;

#[derive(Default)]
struct PriorityLedger {
    admitted: u64,
    completed: u64,
    shed_tickets: u64,
    watermark_sheds: u64,
    queue_full: u64,
}

pub fn run(failures: &mut Vec<String>) {
    let worker = match super::worker_bin() {
        Ok(worker) => worker,
        Err(e) => return failures.push(e),
    };
    let text = super::smoke_spec();
    let want = super::reference(&text, SHARDS);
    let hub = ObsHub::new();
    let plan = FaultPlan::from_seed(1, SHARDS as u32);
    let pool = FleetPool::processes_observed(
        FleetPoolConfig::default()
            .with_hosts(1)
            .with_host_config(super::fleet_config(SHARDS, plan)),
        worker,
        hub.clone(),
    );
    let service = EvalService::start_with_fleet(
        ServeConfig::default()
            .with_workers(2)
            .with_shards(SHARDS)
            .with_queue_capacity(4)
            .with_shed_watermark(3),
        pool.clone(),
    );

    let burst = [
        Priority::Background,
        Priority::Background,
        Priority::Batch,
        Priority::Interactive,
    ];
    let mut ledger: [PriorityLedger; 3] = Default::default();
    let mut tickets = Vec::new();
    for priority in burst.repeat(ROUNDS) {
        let book = &mut ledger[priority.index()];
        let payload = ServeRequest::Spec(text.clone());
        match service.submit(Request {
            priority,
            ..payload.into()
        }) {
            Ok(ticket) => {
                book.admitted += 1;
                tickets.push((priority, ticket));
            }
            Err(SubmitError::Shed { .. }) => book.watermark_sheds += 1,
            Err(SubmitError::QueueFull { .. }) => book.queue_full += 1,
            Err(other) => failures.push(format!(
                "{}: unexpected admission error: {other}",
                priority.as_str()
            )),
        }
    }
    for (priority, ticket) in tickets {
        let book = &mut ledger[priority.index()];
        match ticket.wait() {
            Ok(ServeReply::Scenario(reply)) => {
                book.completed += 1;
                failures.extend(
                    reply_drift(&want, &reply).map(|why| format!("{}: {why}", priority.as_str())),
                );
            }
            Ok(other) => failures.push(format!("unexpected reply shape: {other:?}")),
            Err(ServeError::Shed { .. }) => book.shed_tickets += 1,
            Err(other) => failures.push(format!(
                "{}: request failed outright: {other}",
                priority.as_str()
            )),
        }
    }
    // the depth gauge is re-synced with an absolute set at every
    // admission, displacement and pop, so with every ticket resolved it
    // must read exactly zero *without* a gauge-refreshing snapshot call
    // — drift here means some displacement/shed path double-counted
    let drained_depth = hub.snapshot().value("sparseloop_queue_depth", &[]);
    if drained_depth != Some(0) {
        failures.push(format!(
            "queue depth gauge reads {drained_depth:?} after the burst drained"
        ));
    }
    let stats = service.shutdown();
    let snap = hub.snapshot();
    super::reconcile_service(&snap.render_text(), &stats, failures);
    failures.extend(fleet_metrics_drift(&snap, &pool.host_stats()));
    pool.shutdown();

    header(&[
        "priority",
        "admitted",
        "completed",
        "shed (queue)",
        "shed (watermark)",
        "queue full",
    ]);
    for priority in [Priority::Interactive, Priority::Batch, Priority::Background] {
        let book = &ledger[priority.index()];
        row(&[
            priority.as_str().into(),
            book.admitted.to_string(),
            book.completed.to_string(),
            book.shed_tickets.to_string(),
            book.watermark_sheds.to_string(),
            book.queue_full.to_string(),
        ]);
    }
    let [interactive, batch, background] =
        [Priority::Interactive, Priority::Batch, Priority::Background].map(|p| &ledger[p.index()]);
    if interactive.shed_tickets + interactive.watermark_sheds != 0 {
        failures.push("interactive work was shed — priority order inverted".into());
    }
    if batch.watermark_sheds != 0 {
        failures.push("watermark shed hit non-background work".into());
    }
    if background.shed_tickets + background.watermark_sheds == 0 {
        failures.push("burst never shed any background work — overload not exercised".into());
    }
    let admitted: u64 = ledger.iter().map(|b| b.admitted).sum();
    let resolved: u64 = ledger.iter().map(|b| b.completed + b.shed_tickets).sum();
    if resolved != admitted {
        failures.push(format!(
            "{admitted} tickets admitted but only {resolved} resolved to a reply or a shed"
        ));
    }
    let shed_tickets: u64 = ledger.iter().map(|b| b.shed_tickets).sum();
    if stats.shed != shed_tickets {
        failures.push(format!(
            "service counted {} sheds, tickets saw {shed_tickets}",
            stats.shed
        ));
    }
}
