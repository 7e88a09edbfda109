//! The smoke gate: one binary that drives the whole stack end to end.
//! It takes no arguments, runs every phase in order, prefixes each
//! failure with its phase name, and exits non-zero once at the end if
//! any phase failed. CI runs it in release mode.
//!
//! * `scenario` — every registered scenario, directly and as its spec
//!   round-trip twin, through one shared session.
//! * `spec` — the `examples/specs/` corpus compiles and is exactly the
//!   emitted registry.
//! * `serve` — every registered scenario through the service, by name
//!   and as spec text, at two `(workers, shards)` configurations.
//! * `fault` — real worker processes under a failure matrix; the
//!   shared hub's fleet series reconcile with the summed `HostStats`,
//!   and worker timings and trace spans crossed the wire.
//! * `metrics` — an observed service's request buckets, spans and
//!   build info, and the instrumentation-overhead verdict.
//! * `obs_http` — a loopback scrape, a shed served at `/traces`, and
//!   the circuit-breaker drill behind `/healthz`.
//! * `overload` — a priority burst through a pooled process fleet.
//!
//! "The same answer" is one decision everywhere: [`reply_drift`] (built
//! on `sparseloop_spec::result_drift`) against an in-process run.
//! Service and fleet counters reconcile through the one table per stats
//! struct behind [`service_metrics_drift`] and [`fleet_metrics_drift`].
//!
//! The `fault` and `overload` phases spawn `sparseloop-shard-worker`,
//! which `cargo run` does not build; build the package's bins first:
//!
//! ```text
//! cargo build --release --locked -p sparseloop-bench --bins
//! cargo run --release --locked -p sparseloop-bench --bin smoke
//! ```
//!
//! [`reply_drift`]: sparseloop_serve::reply_drift
//! [`fleet_metrics_drift`]: sparseloop_serve::fleet_metrics_drift

mod fault;
mod metrics;
mod obs_http;
mod overload;
mod scenario;
mod serve;
mod spec;

use sparseloop_bench::timed;
use sparseloop_core::EvalSession;
use sparseloop_designs::{Experiment, Scenario};
use sparseloop_mapping::Mapspace;
use sparseloop_obs::MetricsSnapshot;
use sparseloop_serve::{
    scenario_reply, service_metrics_drift, FaultPlan, HostConfig, ScenarioReply, ServiceStats,
};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::time::Duration;

/// A phase appends one line per violation it finds.
type Phase = fn(&mut Vec<String>);

const PHASES: [(&str, Phase); 7] = [
    ("scenario", scenario::run),
    ("spec", spec::run),
    ("serve", serve::run),
    ("fault", fault::run),
    ("metrics", metrics::run),
    ("obs_http", obs_http::run),
    ("overload", overload::run),
];

fn main() {
    let mut failures = Vec::new();
    for (name, phase) in PHASES {
        println!("\n== {name} ==");
        let mut found = Vec::new();
        let (outcome, secs) =
            timed(|| std::panic::catch_unwind(AssertUnwindSafe(|| phase(&mut found))));
        if outcome.is_err() {
            found.push("panicked (message above)".into());
        }
        let verdict = if found.is_empty() { "ok" } else { "FAILED" };
        println!("-- {name}: {verdict} in {secs:.2} s");
        failures.extend(found.into_iter().map(|f| format!("{name}: {f}")));
    }
    if !failures.is_empty() {
        eprintln!("\nsmoke FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\nall {} phases passed", PHASES.len());
}

/// The small two-experiment scenario (one search, one fixed mapping)
/// the fleet phases serve: small enough that a full fault matrix stays
/// fast, real enough that shard merging and parent-side fixed
/// evaluation both run.
fn smoke_scenario() -> Scenario {
    Scenario::new("smoke", "8x8x8 spMspM smoke workload", || {
        let layer = sparseloop_workloads::spmspm(8, 8, 8, 0.5, 0.5);
        let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
        let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
        let fixed_mapping = space.enumerate(1).remove(0);
        let search = Experiment::search("smoke@search", dp.clone(), layer.clone(), space);
        let fixed = Experiment::fixed("smoke@fixed", dp, layer, fixed_mapping);
        vec![search, fixed]
    })
}

/// [`smoke_scenario`] as spec text — what the fleet phases submit.
fn smoke_spec() -> String {
    sparseloop_spec::emit_scenario(&smoke_scenario())
}

/// `text` compiled once, as the service compiles a spec request before
/// it reaches the fleet.
fn compile(text: &str) -> Scenario {
    sparseloop_spec::compile_str(text)
        .expect("smoke spec compiles")
        .into_scenario()
}

/// The determinism reference: `text` run in process at `shards`.
fn reference(text: &str, shards: usize) -> ScenarioReply {
    scenario_reply(compile(text).run(&EvalSession::new(), Some(shards)))
}

/// Fleet supervision tuned for the smoke: fast heartbeats and backoff.
fn fleet_config(shards: usize, plan: FaultPlan) -> HostConfig {
    HostConfig::default()
        .with_shards(shards)
        .with_heartbeat(20, Duration::from_millis(600))
        .with_retries(3, Duration::from_millis(5))
        .with_fault_plan(plan)
}

/// The `sparseloop-shard-worker` executable: `SPARSELOOP_WORKER_BIN` if
/// set, otherwise the sibling of this binary (cargo places every
/// workspace binary in one profile directory). The process phases are
/// meaningless without it, so a missing binary fails them.
fn worker_bin() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("SPARSELOOP_WORKER_BIN") {
        return Ok(PathBuf::from(path));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let sibling = exe.with_file_name("sparseloop-shard-worker");
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "{} not found (build it with `cargo build --release --bin \
             sparseloop-shard-worker`, or point SPARSELOOP_WORKER_BIN at it)",
            sibling.display()
        ))
    }
}

/// Reconciles a service's exposition text with its [`ServiceStats`]:
/// the text parses, every service counter series equals its stats
/// field ([`service_metrics_drift`]), and the admitted requests
/// partition into outcomes
/// (`submitted == completed + panicked + canceled + shed`).
fn reconcile_service(text: &str, stats: &ServiceStats, failures: &mut Vec<String>) {
    let parsed = match MetricsSnapshot::parse_text(text) {
        Ok(parsed) => parsed,
        Err(e) => return failures.push(format!("metrics text does not parse: {e}")),
    };
    failures.extend(
        service_metrics_drift(&parsed, stats)
            .into_iter()
            .map(|drift| format!("metrics drift: {drift}")),
    );
    let outcome = |o: &str| {
        parsed
            .value("sparseloop_requests_total", &[("outcome", o)])
            .unwrap_or(-1.0)
    };
    let resolved: f64 = ["completed", "panicked", "canceled", "shed"]
        .map(outcome)
        .iter()
        .sum();
    if outcome("submitted") != resolved {
        failures.push(format!(
            "requests do not partition: submitted {} != {resolved} resolved",
            outcome("submitted")
        ));
    }
}
