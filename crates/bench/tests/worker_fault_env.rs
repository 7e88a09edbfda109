//! A worker process with no scheduled fault must come up clean even when
//! the parent's own environment carries [`FAULT_ENV`]: the spawner clears
//! the variable instead of letting the child inherit it. This file is its
//! own test binary because it sets that variable for the whole process.

use sparseloop_core::EvalSession;
use sparseloop_designs::{Experiment, Scenario};
use sparseloop_mapping::Mapspace;
use sparseloop_serve::fault::FAULT_ENV;
use sparseloop_serve::{HostConfig, ProcessSpawner, ShardHost};
use std::time::Duration;

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_sparseloop-shard-worker");

#[test]
fn unscheduled_workers_ignore_the_parents_fault_env() {
    std::env::set_var(FAULT_ENV, "die:startup");
    let scenario = Scenario::new("fault_env", "one small search", || {
        let layer = sparseloop_workloads::spmspm(8, 8, 8, 0.5, 0.5);
        let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
        let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
        vec![Experiment::search("env@search", dp, layer, space)]
    });
    let text = sparseloop_spec::emit_scenario(&scenario);
    let config = HostConfig::default()
        .with_shards(2)
        .with_heartbeat(20, Duration::from_millis(600))
        .with_retries(2, Duration::from_millis(5));
    let mut host = ShardHost::new(config, ProcessSpawner::new(WORKER_BIN));
    let compiled = sparseloop_spec::compile_str(&text).unwrap().into_scenario();
    let reply = host.run(&compiled, &text, &EvalSession::new(), None);
    let stats = host.stats();
    assert!(reply.is_ok(), "{reply:?}, {stats:?}");
    assert_eq!(stats.spawns, 2, "{stats:?}");
    assert_eq!(stats.restarts, 0, "{stats:?}");
    assert_eq!(stats.degraded, 0, "{stats:?}");
}
