//! The metric cross-invariants of an observed [`EvalService`] and the
//! cost of observing it.
//!
//! * **Service books**: a 1-slot service serves successes, forced
//!   rejections and an expired-deadline cancel. Its rendered metrics
//!   text must parse and reconcile with its `ServiceStats`, the mapper
//!   funnel must move,
//!   queue-wait and session spans must be recorded, and the snapshot
//!   must identify its build.
//! * **Overhead**: five hub-off/hub-on pairs serve the same batch,
//!   alternating which side runs first. The check fails only when every
//!   pair reads above 5 %: noise on a near-zero cost scatters the pairs
//!   across both signs, while a real cost shifts all of them.

use sparseloop_bench::{header, row, timed};
use sparseloop_core::{EvalJob, JobPlan};
use sparseloop_mapping::Mapper;
use sparseloop_obs::{ObsHub, SpanKind};
use sparseloop_serve::{EvalService, Request, ServeConfig, ServeRequest, SubmitError};
use std::time::Duration;

/// Ceiling on instrumentation overhead (percent) that every pair must
/// exceed for the check to fail.
const OVERHEAD_MAX_PCT: f64 = 5.0;

/// Hub-off/hub-on pairs.
const OVERHEAD_PAIRS: usize = 5;

/// Requests served per timed run.
const OVERHEAD_REQUESTS: usize = 24;

pub fn run(failures: &mut Vec<String>) {
    service_books(failures);
    overhead(failures);
}

fn service_books(failures: &mut Vec<String>) {
    let service = EvalService::start_observed(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(1),
        ObsHub::new(),
    );
    let spec = super::smoke_spec();
    let mut tickets = Vec::new();
    for _ in 0..5 {
        match service.submit(ServeRequest::Spec(spec.clone())) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::QueueFull { .. }) => {}
            Err(other) => return failures.push(format!("unexpected admission error: {other}")),
        }
    }
    // a request admitted with an already-expired deadline: the worker's
    // dequeue-time probe must retire it as canceled, deterministically
    loop {
        let doomed = Request {
            deadline: Some(Duration::ZERO),
            ..ServeRequest::Spec(spec.clone()).into()
        };
        match service.submit(doomed) {
            Ok(t) => {
                let _ = t.wait();
                break;
            }
            Err(SubmitError::QueueFull { .. }) => std::thread::sleep(Duration::from_millis(1)),
            Err(other) => return failures.push(format!("unexpected admission error: {other}")),
        }
    }
    for t in tickets {
        if let Err(e) = t.wait() {
            failures.push(format!("a submitted request did not resolve Ok: {e}"));
        }
    }
    let snap = service.metrics_snapshot().expect("observed service");
    let stats = service.stats();
    super::reconcile_service(&snap.render_text(), &stats, failures);
    if stats.canceled == 0 {
        failures.push("the expired deadline never produced a cancel".into());
    }
    if snap
        .value(
            "sparseloop_mapper_candidates_total",
            &[("stage", "evaluated")],
        )
        .unwrap_or(0)
        == 0
    {
        failures.push("mapper funnel counters never moved".into());
    }
    let spans = service.hub().expect("observed service").traces().events();
    for kind in [SpanKind::QueueWait, SpanKind::SessionEval] {
        if !spans.iter().any(|e| e.kind == kind) {
            failures.push(format!("no {} span recorded", kind.as_str()));
        }
    }
    // the snapshot self-identifies: one build-info series carrying the
    // crate version and the frame protocol, plus an uptime gauge. The
    // workspace crates version together, so this crate's version is the
    // one obs publishes.
    let protocol = sparseloop_serve::PROTOCOL_VERSION.to_string();
    let labels = [
        ("version", env!("CARGO_PKG_VERSION")),
        ("protocol", &protocol),
    ];
    if snap.sum_of("sparseloop_build_info") != 1
        || snap.value("sparseloop_build_info", &labels) != Some(1)
    {
        failures
            .push("sparseloop_build_info must be one series carrying version + protocol".into());
    }
    if snap.value("sparseloop_uptime_seconds", &[]).is_none() {
        failures.push("sparseloop_uptime_seconds gauge missing".into());
    }
    service.shutdown();
}

fn overhead(failures: &mut Vec<String>) {
    // odd pairs run the observed side first, so neither side always
    // meets the box warmer
    let pairs: Vec<(f64, f64)> = (0..OVERHEAD_PAIRS)
        .map(|i| {
            let observed_first = i % 2 == 1;
            let first = serve_rps(observed_first);
            let second = serve_rps(!observed_first);
            if observed_first {
                (second, first)
            } else {
                (first, second)
            }
        })
        .collect();
    header(&["pair", "baseline r/s", "observed r/s", "overhead %"]);
    let mut overheads = Vec::new();
    for (i, (baseline, observed)) in pairs.iter().enumerate() {
        let pct = (baseline / observed.max(1e-12) - 1.0) * 100.0;
        row(&[
            i.to_string(),
            format!("{baseline:.1}"),
            format!("{observed:.1}"),
            format!("{pct:+.2}"),
        ]);
        overheads.push(pct);
    }
    println!(
        "median overhead {:+.2}% over {OVERHEAD_PAIRS} pairs of {OVERHEAD_REQUESTS} requests \
         (limit {OVERHEAD_MAX_PCT:.2}%, fails only if every pair exceeds it)",
        median(&overheads)
    );
    if overhead_exceeds(&overheads, OVERHEAD_MAX_PCT) {
        failures.push(format!(
            "every pair costs more than {OVERHEAD_MAX_PCT:.2}% throughput: {overheads:.2?}"
        ));
    }
}

/// The smoke search capped at 200 candidates.
fn overhead_job() -> EvalJob {
    let mut job = super::smoke_scenario().experiments().remove(0).job();
    if let JobPlan::Search { mapper, .. } = &mut job.plan {
        *mapper = Mapper::Exhaustive { limit: 200 };
    }
    job
}

/// Throughput (requests/sec) of one fresh service, observed or not,
/// serving [`OVERHEAD_REQUESTS`] copies of [`overhead_job`]. Session
/// caches stay hot, so the serve-layer cost (queue, counters, metrics)
/// dominates — the conservative direction for an overhead gate.
fn serve_rps(observed: bool) -> f64 {
    let config = ServeConfig::default()
        .with_workers(2)
        .with_queue_capacity(64);
    let service = if observed {
        EvalService::start_observed(config, ObsHub::new())
    } else {
        EvalService::start(config)
    };
    let ((), secs) = timed(|| {
        let tickets: Vec<_> = (0..OVERHEAD_REQUESTS)
            .map(|_| {
                service
                    .submit_blocking(ServeRequest::Job(Box::new(overhead_job())))
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
    OVERHEAD_REQUESTS as f64 / secs.max(1e-12)
}

/// The overhead verdict: instrumentation fails the gate only when every
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
