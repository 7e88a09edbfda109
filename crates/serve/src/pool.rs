//! A shared, long-lived pool of [`ShardHost`] fleets.
//!
//! The service→fleet integration must not pay a full worker-fleet
//! spawn per request: a [`FleetPool`] owns a fixed set of hosts whose
//! worker processes are **prewarmed at construction and reused across
//! requests**. Service workers check a host out, run one request, and
//! check it back in — a classic object pool with a [`Condvar`] for the
//! "all hosts busy" case, so concurrent service workers queue instead
//! of spawning throwaway fleets.
//!
//! Between requests the pool keeps the fleet healthy *proactively*:
//! when a host has not been examined for
//! [`FleetPoolConfig::health_interval`], its next checkout first runs
//! [`ShardHost::health_check`] — Ping/Pong probes over the worker
//! protocol, killing silent workers and respawning missing primaries —
//! so a worker that died while idle is replaced before a request
//! trips over it, not discovered through retry backoff.
//!
//! Every host shares the pool's [`ObsHub`] (when observed); host
//! counters are delta-published, so fleet-wide metrics are exact sums
//! over the pool. The pool adds its own series: checkout and
//! health-sweep totals, workers proactively replaced, and an
//! idle-host gauge.

use crate::proc::{ProcessSpawner, ThreadSpawner, WorkerEvent, WorkerHandle, WorkerSpawner};
use crate::service::ScenarioReply;
use crate::supervisor::{HostConfig, HostError, HostStats, ShardHost};
use sparseloop_core::EvalSession;
use sparseloop_designs::Scenario;
use sparseloop_obs::{ObsHub, SpanKind, TraceContext};
use std::path::Path;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A spawner trait object, so one pool type can host thread- or
/// process-backed fleets (and test doubles) without a generic
/// parameter spreading into the service.
pub type BoxedSpawner = Box<dyn WorkerSpawner + Send + Sync>;

impl WorkerSpawner for BoxedSpawner {
    fn spawn(
        &self,
        slot: u32,
        epoch: u64,
        fault: Option<crate::fault::WorkerFault>,
        events: mpsc::Sender<WorkerEvent>,
    ) -> std::io::Result<Box<dyn WorkerHandle>> {
        (**self).spawn(slot, epoch, fault, events)
    }
}

/// Pool sizing and health-sweep cadence.
#[derive(Debug, Clone)]
pub struct FleetPoolConfig {
    /// Hosts (independent worker fleets) in the pool; also the maximum
    /// number of fleet requests in flight at once.
    pub hosts: usize,
    /// Supervision config applied to every host.
    pub host: HostConfig,
    /// A host idle longer than this gets a Ping/Pong health sweep
    /// before its next request.
    pub health_interval: Duration,
    /// How long one health sweep waits for pongs.
    pub health_timeout: Duration,
}

impl Default for FleetPoolConfig {
    fn default() -> Self {
        FleetPoolConfig {
            hosts: 2,
            host: HostConfig::default(),
            health_interval: Duration::from_secs(30),
            health_timeout: Duration::from_millis(250),
        }
    }
}

impl FleetPoolConfig {
    /// Sets the host count (`>= 1`).
    pub fn with_hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts.max(1);
        self
    }

    /// Sets the per-host supervision config.
    pub fn with_host_config(mut self, host: HostConfig) -> Self {
        self.host = host;
        self
    }

    /// Sets the idle-time threshold that triggers a health sweep.
    pub fn with_health_interval(mut self, interval: Duration) -> Self {
        self.health_interval = interval;
        self
    }
}

/// Point-in-time pool counters (all monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Host checkouts served (== fleet requests routed via the pool).
    pub checkouts: u64,
    /// Health sweeps run on idle-too-long hosts.
    pub health_sweeps: u64,
    /// Ping probes sent across all sweeps.
    pub pings_sent: u64,
    /// Pong answers received across all sweeps.
    pub pongs_received: u64,
    /// Workers found dead or silent and proactively replaced.
    pub workers_replaced: u64,
}

struct PooledHost {
    host: ShardHost<BoxedSpawner>,
    last_health: Instant,
}

struct PoolShared {
    /// Fixed slots; `None` while that host is checked out.
    hosts: Mutex<Vec<Option<PooledHost>>>,
    available: Condvar,
    stats: Mutex<PoolStats>,
    config: FleetPoolConfig,
    hub: Option<ObsHub>,
}

/// A cloneable handle to a shared fleet pool (see the
/// [module docs](self)).
#[derive(Clone)]
pub struct FleetPool {
    inner: Arc<PoolShared>,
}

impl FleetPool {
    /// A pool of in-thread fleets (workers share the parent process) —
    /// the right transport for tests and single-binary deployments.
    pub fn threads(config: FleetPoolConfig) -> Self {
        Self::with_spawners(config, |_| Box::new(ThreadSpawner), None)
    }

    /// A pool of real worker-process fleets running `worker_bin`.
    pub fn processes(config: FleetPoolConfig, worker_bin: impl AsRef<Path>) -> Self {
        let bin = worker_bin.as_ref().to_path_buf();
        Self::with_spawners(config, move |_| Box::new(ProcessSpawner::new(&bin)), None)
    }

    /// Like [`processes`](Self::processes), publishing into `hub`.
    pub fn processes_observed(
        config: FleetPoolConfig,
        worker_bin: impl AsRef<Path>,
        hub: ObsHub,
    ) -> Self {
        let bin = worker_bin.as_ref().to_path_buf();
        Self::with_spawners(
            config,
            move |_| Box::new(ProcessSpawner::new(&bin)),
            Some(hub),
        )
    }

    /// The general form: one spawner per host index. Hosts are
    /// prewarmed eagerly; a host whose workers cannot spawn yet stays
    /// in the pool (its requests degrade or trip its breaker).
    pub fn with_spawners(
        config: FleetPoolConfig,
        mut make_spawner: impl FnMut(usize) -> BoxedSpawner,
        hub: Option<ObsHub>,
    ) -> Self {
        let count = config.hosts.max(1);
        let mut hosts = Vec::with_capacity(count);
        for i in 0..count {
            let spawner = make_spawner(i);
            let mut host = match &hub {
                Some(h) => ShardHost::new_observed(config.host.clone(), spawner, h.clone()),
                None => ShardHost::new(config.host.clone(), spawner),
            };
            let _ = host.prewarm();
            hosts.push(Some(PooledHost {
                host,
                last_health: Instant::now(),
            }));
        }
        let pool = FleetPool {
            inner: Arc::new(PoolShared {
                hosts: Mutex::new(hosts),
                available: Condvar::new(),
                stats: Mutex::new(PoolStats::default()),
                config,
                hub,
            }),
        };
        pool.publish_metrics();
        pool
    }

    /// Runs one compiled scenario through a pooled fleet: checkout
    /// (blocking until a host is free), optional health sweep,
    /// [`ShardHost::run`], checkin. Under a caller-provided trace
    /// context the checkout span and everything the host records are
    /// tagged with the originating request and parented under its span.
    pub fn run(
        &self,
        scenario: &Scenario,
        text: &str,
        session: &EvalSession,
        ctx: Option<TraceContext>,
    ) -> Result<ScenarioReply, HostError> {
        let checkout_start = self.inner.hub.as_ref().map(|h| h.now_nanos());
        let (index, mut pooled) = self.checkout();
        if let (Some(hub), Some(start)) = (&self.inner.hub, checkout_start) {
            let ctx = ctx.unwrap_or_default();
            hub.span_in(
                ctx.request_id,
                SpanKind::PoolCheckout,
                Some(index as u32),
                start,
                ctx.parent_span_id,
            );
        }
        if pooled.last_health.elapsed() >= self.inner.config.health_interval {
            let report = pooled.host.health_check(self.inner.config.health_timeout);
            pooled.last_health = Instant::now();
            let mut stats = self.inner.stats.lock().unwrap_or_else(|e| e.into_inner());
            stats.health_sweeps += 1;
            stats.pings_sent += report.pings_sent;
            stats.pongs_received += report.pongs_received;
            stats.workers_replaced += report.workers_replaced;
        }
        let result = pooled.host.run(scenario, text, session, ctx);
        self.checkin(index, pooled);
        result
    }

    /// Forces a health sweep on every currently idle host (the pool
    /// normally sweeps lazily at checkout; this is for shutdown checks
    /// and tests).
    pub fn health_check_all(&self) -> crate::supervisor::HealthReport {
        let mut total = crate::supervisor::HealthReport::default();
        let mut hosts = self.inner.hosts.lock().unwrap_or_else(|e| e.into_inner());
        let mut sweeps = 0u64;
        for slot in hosts.iter_mut() {
            if let Some(pooled) = slot.as_mut() {
                let report = pooled.host.health_check(self.inner.config.health_timeout);
                pooled.last_health = Instant::now();
                sweeps += 1;
                total.pings_sent += report.pings_sent;
                total.pongs_received += report.pongs_received;
                total.workers_replaced += report.workers_replaced;
            }
        }
        drop(hosts);
        let mut stats = self.inner.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.health_sweeps += sweeps;
        stats.pings_sent += total.pings_sent;
        stats.pongs_received += total.pongs_received;
        stats.workers_replaced += total.workers_replaced;
        drop(stats);
        self.publish_metrics();
        total
    }

    /// Pool counters.
    pub fn stats(&self) -> PoolStats {
        *self.inner.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sum of [`HostStats`] over hosts currently in the pool (a host
    /// mid-request is excluded until checkin — call with the pool
    /// quiescent for exact totals).
    pub fn host_stats(&self) -> HostStats {
        let hosts = self.inner.hosts.lock().unwrap_or_else(|e| e.into_inner());
        let mut total = HostStats::default();
        for pooled in hosts.iter().flatten() {
            total.absorb(&pooled.host.stats());
        }
        total
    }

    /// The hub this pool publishes into, if observed.
    pub fn hub(&self) -> Option<&ObsHub> {
        self.inner.hub.as_ref()
    }

    /// Asks every idle host to shut its workers down (checked-out hosts
    /// shut down at drop).
    pub fn shutdown(&self) {
        let mut hosts = self.inner.hosts.lock().unwrap_or_else(|e| e.into_inner());
        for slot in hosts.iter_mut() {
            if let Some(pooled) = slot.as_mut() {
                pooled.host.shutdown();
            }
        }
    }

    fn checkout(&self) -> (usize, PooledHost) {
        let mut hosts = self.inner.hosts.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(index) = hosts.iter().position(Option::is_some) {
                let pooled = hosts[index].take().expect("position() found Some");
                drop(hosts);
                let mut stats = self.inner.stats.lock().unwrap_or_else(|e| e.into_inner());
                stats.checkouts += 1;
                drop(stats);
                self.publish_metrics();
                return (index, pooled);
            }
            hosts = self
                .inner
                .available
                .wait(hosts)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn checkin(&self, index: usize, pooled: PooledHost) {
        let mut hosts = self.inner.hosts.lock().unwrap_or_else(|e| e.into_inner());
        hosts[index] = Some(pooled);
        drop(hosts);
        self.inner.available.notify_one();
        self.publish_metrics();
    }

    /// Publishes pool counters and the idle-host gauge. Counters are
    /// set to the stats snapshot via deltas like the hosts do, so the
    /// registry equals [`PoolStats`] after every transition.
    fn publish_metrics(&self) {
        let Some(hub) = &self.inner.hub else { return };
        let stats = self.stats();
        let idle = {
            let hosts = self.inner.hosts.lock().unwrap_or_else(|e| e.into_inner());
            hosts.iter().filter(|h| h.is_some()).count() as u64
        };
        let reg = hub.registry();
        let set_counter = |name: &str, value: u64| {
            let c = reg.counter(name, &[]);
            let current = c.get();
            if value > current {
                c.add(value - current);
            }
        };
        set_counter("sparseloop_pool_checkouts_total", stats.checkouts);
        set_counter("sparseloop_pool_health_sweeps_total", stats.health_sweeps);
        set_counter("sparseloop_pool_pings_total", stats.pings_sent);
        set_counter("sparseloop_pool_pongs_total", stats.pongs_received);
        set_counter(
            "sparseloop_pool_workers_replaced_total",
            stats.workers_replaced,
        );
        reg.gauge("sparseloop_pool_idle_hosts", &[]).set_u64(idle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pool_config(hosts: usize, shards: usize) -> FleetPoolConfig {
        FleetPoolConfig::default()
            .with_hosts(hosts)
            .with_host_config(
                HostConfig::default()
                    .with_shards(shards)
                    .with_heartbeat(10, Duration::from_millis(300))
                    .with_retries(2, Duration::from_millis(2)),
            )
    }

    /// Runs `text` through `pool` the way the service does: compiled
    /// once by the caller, replied on the caller's session.
    fn run(pool: &FleetPool, text: &str) -> Result<ScenarioReply, HostError> {
        let scenario = sparseloop_spec::compile_str(text).unwrap().into_scenario();
        pool.run(&scenario, text, &EvalSession::new(), None)
    }

    fn demo_spec() -> String {
        let scenario = sparseloop_designs::Scenario::new("pool_demo", "tiny pool demo", || {
            let layer = sparseloop_workloads::spmspm(8, 8, 8, 0.5, 0.5);
            let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
            let space = sparseloop_mapping::Mapspace::all_temporal(&layer.einsum, &dp.arch);
            vec![sparseloop_designs::Experiment::search(
                "pool@search",
                dp,
                layer,
                space,
            )]
        });
        sparseloop_spec::emit_scenario(&scenario)
    }

    #[test]
    fn pooled_hosts_are_reused_not_respawned() {
        let text = demo_spec();
        let pool = FleetPool::threads(pool_config(1, 2));
        for _ in 0..3 {
            run(&pool, &text).unwrap();
        }
        let hosts = pool.host_stats();
        assert_eq!(hosts.requests, 3);
        assert_eq!(
            hosts.spawns, 2,
            "3 requests over 2 prewarmed workers must not respawn"
        );
        assert_eq!(pool.stats().checkouts, 3);
    }

    #[test]
    fn concurrent_requests_share_the_pool() {
        let text = demo_spec();
        let pool = FleetPool::threads(pool_config(2, 2));
        let mut replies = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let pool = pool.clone();
                    let text = &text;
                    scope.spawn(move || run(&pool, text).unwrap())
                })
                .collect();
            for h in handles {
                replies.push(h.join().unwrap());
            }
        });
        // every reply identical: same spec, bit-identical merge
        for r in &replies[1..] {
            assert_eq!(r.labels, replies[0].labels);
        }
        assert_eq!(pool.stats().checkouts, 4);
        assert_eq!(pool.host_stats().requests, 4);
    }

    #[test]
    fn stale_hosts_get_health_swept_at_checkout() {
        let text = demo_spec();
        let pool =
            FleetPool::threads(pool_config(1, 2).with_health_interval(Duration::from_millis(0)));
        run(&pool, &text).unwrap();
        let stats = pool.stats();
        assert!(stats.health_sweeps >= 1, "{stats:?}");
        assert_eq!(stats.pings_sent, stats.pongs_received, "{stats:?}");
        assert_eq!(stats.workers_replaced, 0, "healthy fleet: {stats:?}");
    }

    #[test]
    fn health_sweep_replaces_dead_workers() {
        use crate::fault::{DiePoint, WorkerFault};
        // a spawner whose FIRST worker dies right after Hello: the
        // prewarmed fleet silently loses it while idle
        struct FirstOneDies {
            spawned: AtomicU64,
        }
        impl WorkerSpawner for FirstOneDies {
            fn spawn(
                &self,
                slot: u32,
                epoch: u64,
                fault: Option<WorkerFault>,
                events: mpsc::Sender<WorkerEvent>,
            ) -> std::io::Result<Box<dyn WorkerHandle>> {
                let n = self.spawned.fetch_add(1, Ordering::SeqCst);
                let fault = if n == 0 {
                    Some(WorkerFault::DieAt(DiePoint::AfterHello))
                } else {
                    fault
                };
                ThreadSpawner.spawn(slot, epoch, fault, events)
            }
        }
        let pool = FleetPool::with_spawners(
            pool_config(1, 2),
            |_| {
                Box::new(FirstOneDies {
                    spawned: AtomicU64::new(0),
                })
            },
            None,
        );
        // give the doomed worker a moment to die, then sweep
        std::thread::sleep(Duration::from_millis(50));
        let report = pool.health_check_all();
        assert_eq!(report.workers_replaced, 1, "{report:?}");
        // the replaced fleet serves correctly
        run(&pool, &demo_spec()).unwrap();
        assert_eq!(pool.host_stats().requests, 1);
    }
}
