//! The dependency-free observability HTTP server end to end: an
//! observed [`EvalService`] backed by a pooled in-thread fleet running a
//! seeded fault schedule, scraped over real loopback TCP.
//!
//! * `GET /metrics` parses and reconciles with `ServiceStats`.
//! * A burst through the 1-slot queue forces a displacement shed, and
//!   the flight recorder serves it at `/traces` and `/traces/<id>`.
//! * The breaker drill: a host on the same hub spawns through a
//!   spawner that refuses its first three spawns. The breaker trips,
//!   a failed probe re-trips it, and a second probe heals it.
//!   `/healthz` reads 200 → 503 → 503 → 200 along the way; the state
//!   gauge tracks every step, every degraded reply is bit-identical,
//!   and the hub's fleet series reconcile with pool plus drill host.

use sparseloop_bench::{header, row};
use sparseloop_core::EvalSession;
use sparseloop_obs::http::http_get;
use sparseloop_obs::ObsHub;
use sparseloop_serve::proc::{WorkerEvent, WorkerHandle};
use sparseloop_serve::{
    fleet_metrics_drift, reply_drift, BreakerConfig, BreakerState, EvalService, FaultPlan,
    FleetPool, FleetPoolConfig, HostConfig, Priority, Request, ServeConfig, ServeError,
    ServeRequest, ShardHost, ThreadSpawner, WorkerFault, WorkerSpawner,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::Duration;

const SHARDS: usize = 2;

/// Refuses its first `refusals_left` spawns, then spawns in-thread
/// workers — the deterministic way to trip the breaker and then let a
/// probe heal it.
struct FlakySpawner {
    refusals_left: AtomicU32,
}

impl WorkerSpawner for FlakySpawner {
    fn spawn(
        &self,
        slot: u32,
        epoch: u64,
        fault: Option<WorkerFault>,
        events: mpsc::Sender<WorkerEvent>,
    ) -> std::io::Result<Box<dyn WorkerHandle>> {
        let refuse = self
            .refusals_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if refuse {
            return Err(std::io::Error::other("injected spawn refusal"));
        }
        ThreadSpawner.spawn(slot, epoch, fault, events)
    }
}

fn get(addr: SocketAddr, path: &str, failures: &mut Vec<String>) -> (u16, String) {
    http_get(addr, path).unwrap_or_else(|e| {
        failures.push(format!("GET {path} failed on the wire: {e}"));
        (0, String::new())
    })
}

pub fn run(failures: &mut Vec<String>) {
    let text = super::smoke_spec();
    let hub = ObsHub::new();
    let plan = FaultPlan::from_seed(5, SHARDS as u32);
    let pool = FleetPool::with_spawners(
        FleetPoolConfig::default()
            .with_hosts(1)
            .with_host_config(super::fleet_config(SHARDS, plan)),
        |_| Box::new(ThreadSpawner),
        Some(hub.clone()),
    );
    let service = EvalService::start_with_fleet(
        ServeConfig::default()
            .with_workers(1)
            .with_shards(SHARDS)
            .with_queue_capacity(1)
            .with_obs_server("127.0.0.1:0".parse().expect("loopback addr")),
        pool.clone(),
    );
    let Some(addr) = service.obs_http_addr() else {
        return failures.push("observability server did not bind".into());
    };
    println!("observability server on http://{addr}");

    // healthy traffic: the fleet heals its seeded faults
    match service
        .submit(ServeRequest::Spec(text.clone()))
        .map(|t| t.wait())
    {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => failures.push(format!("seeded-fault fleet request failed: {e}")),
        Err(e) => failures.push(format!("seeded-fault request refused: {e}")),
    }

    // force a displacement shed: stuff the queue with background work
    // while the worker is busy, then outrank it — a full queue displaces
    // the youngest background entry, whose ticket resolves to Shed
    let mut shed_seen = false;
    for _ in 0..50 {
        let tickets: Vec<_> = [Priority::Background; 3]
            .into_iter()
            .chain([Priority::Interactive])
            .filter_map(|p| {
                let payload = ServeRequest::Spec(text.clone());
                service
                    .submit(Request {
                        priority: p,
                        ..payload.into()
                    })
                    .ok()
            })
            .collect();
        for t in tickets {
            shed_seen |= matches!(t.wait(), Err(ServeError::Shed { .. }));
        }
        if shed_seen {
            break;
        }
    }
    if !shed_seen {
        failures.push("burst never displaced a background request".into());
    }

    let (code, scraped) = get(addr, "/metrics", failures);
    if code != 200 {
        failures.push(format!("GET /metrics returned {code}"));
    }
    super::reconcile_service(&scraped, &service.stats(), failures);

    let (code, traces) = get(addr, "/traces", failures);
    if code != 200 || !traces.starts_with("# flight recorder:") {
        failures.push(format!("GET /traces returned {code}: {traces}"));
    }
    if !traces.contains("outcome=shed") {
        failures.push(format!(
            "shed request not retained by the recorder:\n{traces}"
        ));
    }
    match traces
        .lines()
        .find_map(|l| l.strip_prefix("request=")?.split_whitespace().next())
    {
        Some(id) => {
            let (code, tree) = get(addr, &format!("/traces/{id}"), failures);
            if code != 200 || !tree.contains("outcome=") {
                failures.push(format!("GET /traces/{id} returned {code}: {tree}"));
            }
        }
        None => failures.push("trace index has no retained entries to follow".into()),
    }

    let mut totals = breaker_drill(&text, &hub, addr, failures);
    service.shutdown();
    totals.absorb(&pool.host_stats());
    failures.extend(fleet_metrics_drift(&hub.snapshot(), &totals));
    pool.shutdown();
}

/// Trips and heals a breaker on a standalone host that publishes into
/// the service's hub, so `/healthz` (which reads the hub's breaker
/// gauge) must follow it. Returns the host's final stats.
fn breaker_drill(
    text: &str,
    hub: &ObsHub,
    addr: SocketAddr,
    failures: &mut Vec<String>,
) -> sparseloop_serve::HostStats {
    use BreakerState::{Closed, Open};
    let want = super::reference(text, SHARDS);
    let (scenario, session) = (super::compile(text), EvalSession::new());
    let mut host = ShardHost::new_observed(
        HostConfig::default()
            .with_shards(SHARDS)
            .with_breaker(BreakerConfig {
                failure_threshold: 2,
                cooldown_nanos: 50_000_000,
            }),
        FlakySpawner {
            refusals_left: AtomicU32::new(3),
        },
        hub.clone(),
    );
    header(&["breaker step", "state after", "/healthz"]);
    // one refusal per request: request 1 counts a failure, request 2
    // trips the breaker, the first probe re-trips it, the second heals
    for (step, want_state, want_code) in [
        ("first refusal", Closed, 200),
        ("trip", Open, 503),
        ("failed probe", Open, 503),
        ("healing probe", Closed, 200),
    ] {
        if step.ends_with("probe") {
            std::thread::sleep(Duration::from_millis(60));
        }
        match host.run(&scenario, text, &session, None) {
            Ok(reply) => failures.extend(
                reply_drift(&want, &reply)
                    .map(|why| format!("breaker {step}: reply differs: {why}")),
            ),
            Err(e) => failures.push(format!("breaker {step}: request failed: {e}")),
        }
        let state = host.breaker_state();
        let gauge = hub.snapshot().value("sparseloop_fleet_breaker_state", &[]);
        let (code, body) = get(addr, "/healthz", failures);
        row(&[step.into(), state.as_str().into(), code.to_string()]);
        if state != want_state
            || gauge != Some(i128::from(state.code()))
            || code != want_code
            || (code == 503 && !body.contains("breaker"))
        {
            failures.push(format!(
                "breaker {step}: state {} (gauge {gauge:?}), /healthz {code} ({body}); \
                 expected {} and {want_code}",
                state.as_str(),
                want_state.as_str()
            ));
        }
    }
    let stats = host.stats();
    if stats.breaker_trips < 2 || stats.breaker_probes < 2 || stats.degraded == 0 {
        failures.push(format!(
            "breaker drill: {} trips, {} probes, {} degraded; expected >= 2, >= 2, > 0",
            stats.breaker_trips, stats.breaker_probes, stats.degraded
        ));
    }
    stats
}
