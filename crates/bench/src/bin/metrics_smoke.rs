//! Observability smoke test: asserts the metric **cross-invariants**
//! that make the `/metrics`-style snapshot trustworthy, in three
//! phases —
//!
//! * **A (service)**: an observed [`EvalService`] serves successes,
//!   forced rejections (1-slot queue) and an expired-deadline cancel;
//!   every admitted request must land in exactly one outcome bucket
//!   (`submitted == completed + panicked + canceled` once drained), the
//!   counters must equal [`ServiceStats`], and the rendered text must
//!   round-trip through the snapshot parser.
//! * **B (fleet)**: an observed [`ShardHost`] over in-process
//!   [`ThreadSpawner`] workers — including one seeded
//!   [`FaultPlan`] schedule — must produce winners bit-identical to the
//!   in-process reference while every `sparseloop_fleet_*` counter
//!   reconciles with [`HostStats`].
//! * **C (overhead)**: five hub-off/hub-on pairs serve the same batch,
//!   alternating which side runs first. The phase fails only when every
//!   pair reads above 5% overhead: noise on a near-zero cost scatters
//!   the pairs across both signs, while a real cost shifts all of them.
//!
//! Non-zero exit on any violation; CI runs this in release mode.

use sparseloop_bench::{header, row, timed};
use sparseloop_core::EvalSession;
use sparseloop_obs::{MetricsSnapshot, ObsHub, SpanKind};
use sparseloop_serve::{
    EvalService, FaultPlan, HostConfig, ServeConfig, ServeRequest, ShardHost, SubmitError,
    ThreadSpawner,
};
use std::time::Duration;

/// Ceiling on instrumentation overhead (percent) that every phase-C
/// pair must exceed for the phase to fail.
const OVERHEAD_MAX_PCT: f64 = 5.0;

/// Hub-off/hub-on pairs in phase C.
const OVERHEAD_PAIRS: usize = 5;

/// Requests served per timed run in phase C.
const OVERHEAD_REQUESTS: usize = 24;

fn service_phase(failures: &mut Vec<String>) -> MetricsSnapshot {
    let service = EvalService::start_observed(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(1),
        ObsHub::new(),
    );
    let registry = sparseloop_designs::ScenarioRegistry::standard();
    let spec = sparseloop_spec::emit_scenario(registry.expect("fig1_format_tradeoff"));
    let mut tickets = Vec::new();
    for _ in 0..5 {
        match service.submit_spec(spec.clone()) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::QueueFull { .. }) => {}
            Err(other) => {
                failures.push(format!("service: unexpected admission error: {other}"));
                break;
            }
        }
    }
    // a request admitted with an already-expired deadline: the worker's
    // dequeue-time probe must retire it as canceled, deterministically
    loop {
        match service.submit_with_deadline(
            ServeRequest::Scenario("fig1_format_tradeoff".into()),
            Duration::ZERO,
        ) {
            Ok(t) => {
                let _ = t.wait();
                break;
            }
            Err(SubmitError::QueueFull { .. }) => std::thread::sleep(Duration::from_millis(1)),
            Err(other) => {
                failures.push(format!("service: unexpected admission error: {other}"));
                break;
            }
        }
    }
    for t in tickets {
        if t.wait().is_err() {
            failures.push("service: a submitted request did not resolve Ok".into());
        }
    }
    let snap = service.metrics_snapshot().expect("observed service");
    let stats = service.stats();
    let outcome = |o: &str| {
        snap.value("sparseloop_requests_total", &[("outcome", o)])
            .unwrap_or(0) as u64
    };
    let checks: [(&str, u64, u64); 6] = [
        (
            "submitted counter vs stats",
            outcome("submitted"),
            stats.submitted,
        ),
        (
            "rejected counter vs stats",
            outcome("rejected"),
            stats.rejected,
        ),
        (
            "completed counter vs stats",
            outcome("completed"),
            stats.completed,
        ),
        (
            "canceled counter vs stats",
            outcome("canceled"),
            stats.canceled,
        ),
        (
            "panicked counter vs stats",
            outcome("panicked"),
            stats.panicked,
        ),
        (
            "submitted == completed + panicked + canceled",
            outcome("submitted"),
            outcome("completed") + outcome("panicked") + outcome("canceled"),
        ),
    ];
    for (what, got, want) in checks {
        if got != want {
            failures.push(format!("service: {what}: {got} != {want}"));
        }
    }
    if stats.canceled == 0 {
        failures.push("service: the expired deadline never produced a cancel".into());
    }
    if snap
        .value(
            "sparseloop_mapper_candidates_total",
            &[("stage", "evaluated")],
        )
        .unwrap_or(0)
        == 0
    {
        failures.push("service: mapper funnel counters never moved".into());
    }
    match MetricsSnapshot::parse_text(&snap.render_text()) {
        Ok(parsed) => {
            let want = snap.sum_of("sparseloop_requests_total") as f64;
            let got = parsed.sum_of("sparseloop_requests_total");
            if got != want {
                failures.push(format!("service: text round-trip drifted: {got} != {want}"));
            }
        }
        Err(e) => failures.push(format!("service: snapshot text unparseable: {e}")),
    }
    let hub = service.hub().expect("observed service").clone();
    let spans = hub.traces().events();
    for kind in [SpanKind::QueueWait, SpanKind::SessionEval] {
        if !spans.iter().any(|e| e.kind == kind) {
            failures.push(format!("service: no {} span recorded", kind.as_str()));
        }
    }
    // the snapshot self-identifies: one build-info series carrying the
    // crate version and the frame protocol, plus an uptime gauge
    if snap.sum_of("sparseloop_build_info") != 1 {
        failures.push("service: sparseloop_build_info gauge missing or duplicated".into());
    }
    if snap
        .value(
            "sparseloop_build_info",
            &[
                // the workspace crates version together, so the bench
                // crate's own version matches the one obs publishes
                ("version", env!("CARGO_PKG_VERSION")),
                ("protocol", &sparseloop_serve::PROTOCOL_VERSION.to_string()),
            ],
        )
        .unwrap_or(0)
        != 1
    {
        failures.push("service: build_info labels do not carry version + protocol".into());
    }
    if snap.value("sparseloop_uptime_seconds", &[]).is_none() {
        failures.push("service: sparseloop_uptime_seconds gauge missing".into());
    }
    service.shutdown();
    snap
}

fn fleet_phase(failures: &mut Vec<String>) -> MetricsSnapshot {
    let registry = sparseloop_designs::ScenarioRegistry::standard();
    let scenario = registry.expect("fig1_format_tradeoff");
    let text = sparseloop_spec::emit_scenario(scenario);
    let reference = sparseloop_serve::scenario_reply(scenario.run(&EvalSession::new(), Some(2)));
    let hub = ObsHub::new();
    // a fault-free run plus one seeded schedule, both publishing into
    // the same hub; expected counter values are the *sum* of each
    // host's own stats, so drift in either host's delta-publishing in
    // either direction fails the run
    let mut expect_restarts = 0u64;
    let mut expect_deaths_eof = 0u64;
    let mut expect_deaths_hb = 0u64;
    let mut expect_kills = 0u64;
    let mut expect_degraded = 0u64;
    let mut expect_requests = 0u64;
    for (tag, plan) in [
        ("fault-free", FaultPlan::none()),
        ("seeded", FaultPlan::from_seed(7, 2)),
    ] {
        let mut host = ShardHost::new_observed(
            HostConfig::default()
                .with_shards(2)
                .with_heartbeat(20, Duration::from_millis(600))
                .with_retries(3, Duration::from_millis(5))
                .with_fault_plan(plan),
            ThreadSpawner,
            hub.clone(),
        );
        match host.run_spec(&text) {
            Err(e) => failures.push(format!("fleet({tag}): request did not resolve: {e}")),
            Ok(reply) => {
                for (label, (got, want)) in reply
                    .labels
                    .iter()
                    .zip(reply.results.iter().zip(&reference.results))
                {
                    let identical = match (got, want) {
                        (Ok(g), Ok(w)) => {
                            g.mapping == w.mapping
                                && g.eval.edp.to_bits() == w.eval.edp.to_bits()
                                && g.stats == w.stats
                        }
                        (Err(g), Err(w)) => g == w,
                        _ => false,
                    };
                    if !identical {
                        failures.push(format!("fleet({tag}): {label}: winner not bit-identical"));
                    }
                }
            }
        }
        let stats = host.stats();
        drop(host);
        expect_restarts += stats.restarts;
        expect_deaths_eof += stats.deaths_eof;
        expect_deaths_hb += stats.deaths_heartbeat_timeout;
        expect_kills += stats.kills_injected;
        expect_degraded += stats.degraded;
        expect_requests += stats.requests;
        let snap = hub.snapshot();
        let counter =
            |name: &str, labels: &[(&str, &str)]| snap.value(name, labels).unwrap_or(0) as u64;
        type Check<'a> = (&'a str, &'a [(&'a str, &'a str)], u64);
        let fleet_checks: [Check; 6] = [
            ("sparseloop_fleet_requests_total", &[], expect_requests),
            ("sparseloop_fleet_restarts_total", &[], expect_restarts),
            (
                "sparseloop_fleet_deaths_total",
                &[("cause", "eof")],
                expect_deaths_eof,
            ),
            (
                "sparseloop_fleet_deaths_total",
                &[("cause", "heartbeat_timeout")],
                expect_deaths_hb,
            ),
            ("sparseloop_fleet_kills_injected_total", &[], expect_kills),
            ("sparseloop_fleet_degraded_total", &[], expect_degraded),
        ];
        for (name, labels, want) in fleet_checks {
            if counter(name, labels) != want {
                failures.push(format!(
                    "fleet({tag}): {name}{labels:?} = {}, HostStats sum = {want}",
                    counter(name, labels)
                ));
            }
        }
    }
    let snap = hub.snapshot();
    // worker phase timings must have crossed the frame protocol
    if snap.sum_of("sparseloop_worker_compile_nanos") == 0 {
        failures.push("fleet: no worker compile-phase timings arrived over the wire".into());
    }
    if snap.sum_of("sparseloop_worker_search_nanos") == 0 {
        failures.push("fleet: no worker search-phase timings arrived over the wire".into());
    }
    trace_tree_checks(&hub, failures);
    snap
}

/// Asserts the cross-process causal nesting for the last fleet request
/// (the seeded-fault one): worker phase spans echo their dispatch span
/// over the v3 frame trailer, dispatch spans parent under the round
/// trip — so `render_tree` shows a connected per-request timeline even
/// through retries.
fn trace_tree_checks(hub: &ObsHub, failures: &mut Vec<String>) {
    let events = hub.traces().events();
    let Some(rid) = events
        .iter()
        .rev()
        .find(|e| e.kind == SpanKind::WorkerRoundTrip)
        .map(|e| e.request_id)
    else {
        failures.push("trace: no worker_round_trip span recorded".into());
        return;
    };
    let req = hub.traces().events_for(rid);
    let roundtrips: Vec<u64> = req
        .iter()
        .filter(|e| e.kind == SpanKind::WorkerRoundTrip)
        .map(|e| e.span_id)
        .collect();
    let dispatches: Vec<_> = req
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::ShardDispatch | SpanKind::HedgeDispatch))
        .collect();
    if dispatches.is_empty() {
        failures.push(format!("trace: request {rid} has no dispatch spans"));
    }
    for d in &dispatches {
        if !roundtrips.contains(&d.parent_span_id) {
            failures.push(format!(
                "trace: {} span {} parents under {} instead of the round trip",
                d.kind.as_str(),
                d.span_id,
                d.parent_span_id
            ));
        }
    }
    let dispatch_ids: Vec<u64> = dispatches.iter().map(|e| e.span_id).collect();
    let phases: Vec<_> = req
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::WorkerCompile | SpanKind::WorkerSearch))
        .collect();
    if phases.is_empty() {
        failures.push(format!(
            "trace: request {rid} has no worker phase spans (stats trailer lost?)"
        ));
    }
    for p in &phases {
        if !dispatch_ids.contains(&p.parent_span_id) {
            failures.push(format!(
                "trace: {} span {} not parented under any dispatch span",
                p.kind.as_str(),
                p.span_id
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

/// One phase-C pair: the same request batch through an uninstrumented
/// [`EvalService`] and an observed one (fresh [`ObsHub`] per run), timed
/// back to back.
struct MetricsOverhead {
    /// Uninstrumented throughput (requests/sec).
    baseline_rps: f64,
    /// Instrumented throughput (requests/sec).
    observed_rps: f64,
}

impl MetricsOverhead {
    /// Instrumentation overhead in percent (negative when the observed
    /// run happened to be faster — noise on a near-zero cost).
    fn overhead_pct(&self) -> f64 {
        (self.baseline_rps / self.observed_rps.max(1e-12) - 1.0) * 100.0
    }
}

/// Measures `pairs` [`MetricsOverhead`] pairs, each serving `requests`
/// small search jobs through both service variants. Odd pairs run the
/// observed side first, so neither side always meets the box warmer.
/// The jobs repeat one workload, so session caches stay hot and the
/// serve-layer cost (queue, counters, metrics) dominates — the
/// *conservative* direction for an overhead gate.
fn measure_metrics_overhead(requests: usize, pairs: usize) -> Vec<MetricsOverhead> {
    (0..pairs)
        .map(|i| {
            let observed_first = i % 2 == 1;
            let first = serve_rps(requests, observed_first);
            let second = serve_rps(requests, !observed_first);
            let (baseline_rps, observed_rps) = if observed_first {
                (second, first)
            } else {
                (first, second)
            };
            MetricsOverhead {
                baseline_rps,
                observed_rps,
            }
        })
        .collect()
}

/// Throughput (requests/sec) of one fresh service, observed or not,
/// serving `requests` copies of one small search job.
fn serve_rps(requests: usize, observed: bool) -> f64 {
    use sparseloop_core::{EvalJob, JobPlan, Objective, Workload};
    use sparseloop_mapping::{Mapper, Mapspace};

    let job = || -> EvalJob {
        let layer = sparseloop_workloads::spmspm(8, 8, 8, 0.5, 0.5);
        let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
        let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
        EvalJob {
            workload: Workload::new(layer.einsum.clone(), layer.densities.clone()),
            arch: dp.arch,
            safs: dp.safs,
            plan: JobPlan::Search {
                space,
                mapper: Mapper::Exhaustive { limit: 200 },
                objective: Objective::Edp,
            },
        }
    };
    let config = ServeConfig::default()
        .with_workers(2)
        .with_queue_capacity(64);
    let service = if observed {
        EvalService::start_observed(config, ObsHub::new())
    } else {
        EvalService::start(config)
    };
    let (_, secs) = timed(|| {
        let tickets: Vec<_> = (0..requests)
            .map(|_| {
                service
                    .submit_blocking(ServeRequest::Job(Box::new(job())))
                    .expect("service accepting")
            })
            .collect();
        for t in tickets {
            t.wait()
                .expect("request resolves")
                .into_job()
                .expect("job ok");
        }
    });
    service.shutdown();
    requests as f64 / secs.max(1e-12)
}

/// Phase C's verdict: instrumentation fails the gate only when every
/// pair reads above `limit_pct`.
fn overhead_exceeds(overheads_pct: &[f64], limit_pct: f64) -> bool {
    overheads_pct.iter().all(|&p| p > limit_pct)
}

/// Median of an odd-length sample (the upper median otherwise).
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn main() {
    let snapshot_path = sparseloop_bench::metrics_snapshot_arg();
    let mut failures = Vec::new();

    println!("== metrics smoke: phase A (service invariants) ==");
    let service_snap = service_phase(&mut failures);

    println!("== metrics smoke: phase B (fleet reconciliation, seeded faults) ==");
    let fleet_snap = fleet_phase(&mut failures);

    println!("== metrics smoke: phase C (instrumentation overhead) ==");
    let pairs = measure_metrics_overhead(OVERHEAD_REQUESTS, OVERHEAD_PAIRS);
    header(&["pair", "baseline r/s", "observed r/s", "overhead %"]);
    for (i, pair) in pairs.iter().enumerate() {
        row(&[
            i.to_string(),
            format!("{:.1}", pair.baseline_rps),
            format!("{:.1}", pair.observed_rps),
            format!("{:+.2}", pair.overhead_pct()),
        ]);
    }
    let overheads: Vec<f64> = pairs.iter().map(MetricsOverhead::overhead_pct).collect();
    println!(
        "median overhead {:+.2}% over {OVERHEAD_PAIRS} pairs of {OVERHEAD_REQUESTS} requests (limit {OVERHEAD_MAX_PCT:.2}%, fails only if every pair exceeds it)",
        median(&overheads)
    );
    if overhead_exceeds(&overheads, OVERHEAD_MAX_PCT) {
        failures.push(format!(
            "overhead: every pair costs more than {OVERHEAD_MAX_PCT:.2}% throughput: {overheads:.2?}"
        ));
    }

    if let Some(path) = snapshot_path {
        // the service snapshot is the richer of the two; append the
        // fleet section so one file holds the whole catalog
        let mut text = service_snap.render_text();
        text.push_str(&fleet_snap.render_text());
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("failed to write metrics snapshot {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("metrics snapshot written to {}", path.display());
    }

    if !failures.is_empty() {
        eprintln!("\nmetrics smoke FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("\nall metric invariants hold");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_verdict_fails_only_when_every_pair_exceeds_the_limit() {
        let limit = OVERHEAD_MAX_PCT;
        assert!(overhead_exceeds(&[5.1, 9.0, 6.2, 12.5, 7.7], limit));
        // one pair at or below the limit is enough to pass
        assert!(!overhead_exceeds(&[5.1, 9.0, 5.0, 12.5, 7.7], limit));
        assert!(!overhead_exceeds(&[-1.1, 9.0, -7.9, -13.9, 6.6], limit));
        assert!(!overhead_exceeds(&[-1.1, -9.0, -7.9, -13.9, -0.1], limit));
        assert_eq!(median(&[9.0, -1.1, -13.9, -0.1, -7.9]), -1.1);
    }
}
