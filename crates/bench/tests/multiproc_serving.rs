//! Integration tests for multi-process shard serving with **real**
//! worker processes: the `sparseloop-shard-worker` binary (resolved via
//! `CARGO_BIN_EXE_*`, so cargo builds it before these tests run) is
//! spawned under a [`ShardHost`] and must produce merged winners
//! bit-identical to in-process `Scenario::run` — with and without
//! injected faults. The full failure matrix is the `smoke` binary's
//! `fault` phase; these tests keep the process boundary itself under tier-1
//! coverage.

use sparseloop_core::EvalSession;
use sparseloop_designs::{Experiment, Scenario};
use sparseloop_mapping::Mapspace;
use sparseloop_obs::ObsHub;
use sparseloop_serve::{
    fleet_metrics_drift, reply_drift, scenario_reply, DiePoint, FaultPlan, FleetPool,
    FleetPoolConfig, HostConfig, HostError, HostStats, ProcessSpawner, ScenarioReply, ShardHost,
    WorkerFault,
};
use std::time::Duration;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_sparseloop-shard-worker");

fn small_scenario() -> Scenario {
    Scenario::new("multiproc_demo", "small search for process tests", || {
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

fn reference_reply(text: &str, shards: usize) -> ScenarioReply {
    let scenario = sparseloop_spec::compile_str(text).unwrap().into_scenario();
    scenario_reply(scenario.run(&EvalSession::new(), Some(shards)))
}

fn assert_bit_identical(got: &ScenarioReply, want: &ScenarioReply, tag: &str) {
    assert_eq!(reply_drift(want, got), None, "{tag}");
}

fn config(shards: usize) -> HostConfig {
    HostConfig::default()
        .with_shards(shards)
        .with_heartbeat(20, Duration::from_millis(600))
        .with_retries(3, Duration::from_millis(5))
}

/// Every `sparseloop_fleet_*` counter in the hub must equal its
/// [`HostStats`] field — the published metric deltas and the host's
/// own bookkeeping are two records of the same events, so any drift is
/// a double- or under-count. Works for a single host or a pool's
/// summed stats; `breaker_code` additionally pins the breaker-state
/// gauge when the caller knows it (single host).
fn assert_metrics_reconcile(stats: &HostStats, breaker_code: Option<u64>, hub: &ObsHub, tag: &str) {
    let snap = hub.snapshot();
    assert_eq!(
        fleet_metrics_drift(&snap, stats),
        Vec::<String>::new(),
        "{tag}"
    );
    if let Some(code) = breaker_code {
        assert_eq!(
            snap.value("sparseloop_fleet_breaker_state", &[]),
            Some(i128::from(code)),
            "{tag}: breaker gauge drifted from breaker_state()"
        );
    }
}

#[test]
fn real_processes_match_in_process_run() {
    let text = sparseloop_spec::emit_scenario(&small_scenario());
    for shards in [1usize, 2] {
        let want = reference_reply(&text, shards);
        let mut host = ShardHost::new(config(shards), ProcessSpawner::new(WORKER_BIN));
        let got = host.run_spec(&text).expect("fleet serves the request");
        assert_bit_identical(&got, &want, &format!("shards={shards}"));
        let stats = host.stats();
        assert_eq!(stats.spawns, shards as u64, "one process per shard");
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.degraded, 0, "must not fall back in-process");
    }
}

#[test]
fn sigkilled_process_is_survived_bit_identically() {
    let text = sparseloop_spec::emit_scenario(&small_scenario());
    let want = reference_reply(&text, 2);
    let plan = FaultPlan::none().with(0, WorkerFault::KillAfterFrames(0));
    let hub = ObsHub::new();
    let mut host = ShardHost::new_observed(
        config(2).with_fault_plan(plan),
        ProcessSpawner::new(WORKER_BIN),
        hub.clone(),
    );
    let got = host.run_spec(&text).expect("fleet survives the kill");
    assert_bit_identical(&got, &want, "kill@0");
    let stats = host.stats();
    assert_eq!(stats.kills_injected, 1);
    assert!(stats.restarts >= 1, "the killed worker must be replaced");
    assert_eq!(stats.degraded, 0);
    assert_metrics_reconcile(
        &host.stats(),
        Some(host.breaker_state().code()),
        &hub,
        "kill@0",
    );
}

#[test]
fn process_dying_before_its_result_is_survived() {
    let text = sparseloop_spec::emit_scenario(&small_scenario());
    let want = reference_reply(&text, 2);
    let plan = FaultPlan::none().with(1, WorkerFault::DieAt(DiePoint::BeforeResult));
    let hub = ObsHub::new();
    let mut host = ShardHost::new_observed(
        config(2).with_fault_plan(plan),
        ProcessSpawner::new(WORKER_BIN),
        hub.clone(),
    );
    let got = host.run_spec(&text).expect("fleet survives the death");
    assert_bit_identical(&got, &want, "die-before-result");
    let stats = host.stats();
    assert!(stats.restarts >= 1);
    assert!(
        stats.deaths_eof >= 1,
        "an exiting process must be booked as an EOF death, not a heartbeat timeout"
    );
    assert_metrics_reconcile(
        &host.stats(),
        Some(host.breaker_state().code()),
        &hub,
        "die-before-result",
    );
}

#[test]
fn stalled_process_is_timed_out_and_metrics_reconcile() {
    let text = sparseloop_spec::emit_scenario(&small_scenario());
    let want = reference_reply(&text, 2);
    let plan = FaultPlan::none().with(0, WorkerFault::StallBeforeResult);
    let hub = ObsHub::new();
    let mut host = ShardHost::new_observed(
        config(2).with_fault_plan(plan),
        ProcessSpawner::new(WORKER_BIN),
        hub.clone(),
    );
    let got = host.run_spec(&text).expect("fleet survives the stall");
    assert_bit_identical(&got, &want, "stall");
    let stats = host.stats();
    assert!(
        stats.deaths_heartbeat_timeout >= 1,
        "a silent worker must be detected by heartbeat audit"
    );
    assert!(stats.restarts >= 1);
    assert!(
        stats.backoff_nanos_total > 0,
        "the retry after the timeout must have backed off"
    );
    assert_metrics_reconcile(
        &host.stats(),
        Some(host.breaker_state().code()),
        &hub,
        "stall",
    );
}

#[test]
fn corrupted_result_is_survived_and_metrics_reconcile() {
    let text = sparseloop_spec::emit_scenario(&small_scenario());
    let want = reference_reply(&text, 2);
    let plan = FaultPlan::none().with(1, WorkerFault::CorruptResult);
    let hub = ObsHub::new();
    let mut host = ShardHost::new_observed(
        config(2).with_fault_plan(plan),
        ProcessSpawner::new(WORKER_BIN),
        hub.clone(),
    );
    let got = host.run_spec(&text).expect("fleet survives the corruption");
    assert_bit_identical(&got, &want, "corrupt");
    assert!(
        host.stats().restarts >= 1,
        "the corrupt worker must be replaced"
    );
    assert_metrics_reconcile(
        &host.stats(),
        Some(host.breaker_state().code()),
        &hub,
        "corrupt",
    );
}

#[test]
fn deadline_expiry_reconciles_error_with_metrics() {
    // a stalled shard plus a deadline shorter than the heartbeat
    // timeout: the request must fail with DeadlineExceeded, and the
    // `deadline_exceeded` counter must agree with the returned error
    let text = sparseloop_spec::emit_scenario(&small_scenario());
    let plan = FaultPlan::none().with(0, WorkerFault::StallBeforeResult);
    let hub = ObsHub::new();
    let mut host = ShardHost::new_observed(
        config(2)
            .with_fault_plan(plan)
            .with_deadline(Duration::from_millis(100)),
        ProcessSpawner::new(WORKER_BIN),
        hub.clone(),
    );
    match host.run_spec(&text) {
        Err(HostError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = host.stats();
    assert_eq!(
        stats.deadline_exceeded, 1,
        "exactly one request failed on its deadline"
    );
    assert_metrics_reconcile(
        &host.stats(),
        Some(host.breaker_state().code()),
        &hub,
        "deadline",
    );
}

#[test]
fn fleet_serves_consecutive_requests_across_one_session() {
    let text = sparseloop_spec::emit_scenario(&small_scenario());
    let want = reference_reply(&text, 2);
    let mut host = ShardHost::new(config(2), ProcessSpawner::new(WORKER_BIN));
    for round in 0..3 {
        let got = host.run_spec(&text).expect("fleet serves the request");
        assert_bit_identical(&got, &want, &format!("round={round}"));
    }
    let stats = host.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.spawns, 2, "workers are reused across requests");
}

#[test]
fn pooled_process_fleets_reuse_prewarmed_workers() {
    let text = sparseloop_spec::emit_scenario(&small_scenario());
    let want = reference_reply(&text, 2);
    let hub = ObsHub::new();
    let pool = FleetPool::processes_observed(
        FleetPoolConfig::default()
            .with_hosts(1)
            .with_host_config(config(2)),
        WORKER_BIN,
        hub.clone(),
    );
    for round in 0..3 {
        let got = pool.run_spec(&text).expect("pooled fleet serves");
        assert_bit_identical(&got, &want, &format!("pool round={round}"));
    }
    let stats = pool.stats();
    assert_eq!(stats.checkouts, 3);
    let host = pool.host_stats();
    assert_eq!(host.requests, 3);
    assert_eq!(
        host.spawns, 2,
        "prewarmed processes serve every request — no per-request spawning"
    );
    assert_eq!(host.degraded, 0);
    // a forced sweep over the live process transport: every ping must
    // come back, and nothing needs replacement
    let report = pool.health_check_all();
    assert_eq!(report.pings_sent, 2);
    assert_eq!(report.pongs_received, 2, "idle workers must answer pings");
    assert_eq!(report.workers_replaced, 0);
    assert_metrics_reconcile(&pool.host_stats(), None, &hub, "pool-reuse");
    pool.shutdown();
}

#[test]
fn sigkill_mid_pool_is_survived_bit_identically() {
    let text = sparseloop_spec::emit_scenario(&small_scenario());
    let want = reference_reply(&text, 2);
    let plan = FaultPlan::none().with(0, WorkerFault::KillAfterFrames(0));
    let hub = ObsHub::new();
    let pool = FleetPool::processes_observed(
        FleetPoolConfig::default()
            .with_hosts(1)
            .with_host_config(config(2).with_fault_plan(plan)),
        WORKER_BIN,
        hub.clone(),
    );
    // first request rides through the SIGKILL; the second exercises the
    // healed fleet — both must merge bit-identical winners
    for round in 0..2 {
        let got = pool.run_spec(&text).expect("pooled fleet survives");
        assert_bit_identical(&got, &want, &format!("pool-kill round={round}"));
    }
    let host = pool.host_stats();
    assert_eq!(host.requests, 2);
    assert!(host.kills_injected >= 1, "the kill schedule must fire");
    assert!(host.restarts >= 1, "the killed worker must be replaced");
    assert_eq!(
        host.degraded, 0,
        "faults must not force in-process fallback"
    );
    assert_metrics_reconcile(&pool.host_stats(), None, &hub, "pool-kill");
    pool.shutdown();
}
