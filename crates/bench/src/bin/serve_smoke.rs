//! Serving smoke test: boots the queue-driven evaluation service and
//! pushes **every registered scenario** through it at two different
//! `(workers, shards)` configurations, then fails (non-zero exit) when
//!
//! * any required experiment comes back empty, or
//! * any served result differs from the direct, unsharded
//!   [`Scenario::run`] reference — i.e. serving,
//!   sharding or worker scheduling changed a single bit of any winner.
//!
//! CI runs this in release mode, so a change that breaks the service's
//! determinism contract for *any* paper experiment cannot land.
//!
//! [`Scenario::run`]: sparseloop_designs::Scenario::run

use sparseloop_bench::{fnum, header, row};
use sparseloop_core::{EvalSession, JobError, JobOutcome};
use sparseloop_designs::{ScenarioOutcome, ScenarioRegistry};
use sparseloop_serve::{EvalService, ServeConfig, Ticket};
use std::collections::HashMap;

/// The `(workers, shards)` grid the smoke test serves under.
const CONFIGS: [(usize, usize); 2] = [(2, 2), (3, 3)];

fn result_mismatch(
    served: &Result<JobOutcome, JobError>,
    reference: &Result<JobOutcome, JobError>,
) -> Option<String> {
    match (served, reference) {
        (Ok(s), Ok(r)) => {
            if s.mapping != r.mapping {
                return Some("winning mapping differs".into());
            }
            if s.eval.edp != r.eval.edp
                || s.eval.cycles != r.eval.cycles
                || s.eval.energy_pj != r.eval.energy_pj
            {
                return Some(format!(
                    "evaluation differs: served (edp {}, cycles {}, pJ {}) vs reference ({}, {}, {})",
                    s.eval.edp, s.eval.cycles, s.eval.energy_pj,
                    r.eval.edp, r.eval.cycles, r.eval.energy_pj
                ));
            }
            if s.stats != r.stats {
                return Some(format!(
                    "search counters differ: {:?} vs {:?}",
                    s.stats, r.stats
                ));
            }
            None
        }
        // JobError is PartialEq: NoValidCandidate carries the fruitless
        // walk's counters, so a sharding regression that changes them in
        // an .optional() experiment still fails the gate
        (Err(s), Err(r)) => {
            if s != r {
                Some(format!(
                    "job errors differ: served {s:?} vs reference {r:?}"
                ))
            } else {
                None
            }
        }
        (Ok(_), Err(e)) => Some(format!("served succeeded, reference failed: {e}")),
        (Err(e), Ok(_)) => Some(format!("served failed, reference succeeded: {e}")),
    }
}

fn main() {
    let registry = ScenarioRegistry::standard();
    let names: Vec<String> = registry.names().iter().map(|n| n.to_string()).collect();
    println!(
        "== serve smoke: {} scenarios x {} service configs ==\n",
        names.len(),
        CONFIGS.len()
    );

    // the determinism reference: the direct batch path (plain parallel
    // search through one shared session)
    let reference_session = EvalSession::new();
    let reference: HashMap<String, ScenarioOutcome> = registry
        .scenarios()
        .iter()
        .map(|sc| (sc.name().to_string(), sc.run(&reference_session, None)))
        .collect();

    let mut failures: Vec<String> = Vec::new();
    for (workers, shards) in CONFIGS {
        println!("-- service: {workers} workers, {shards} shards --");
        let service = EvalService::start(
            ServeConfig::default()
                .with_workers(workers)
                .with_shards(shards)
                .with_queue_capacity(names.len().max(1)),
        );
        let tickets: Vec<(String, Ticket)> = names
            .iter()
            .map(|name| {
                let ticket = service
                    .submit_blocking(sparseloop_serve::ServeRequest::Scenario(name.clone()))
                    .expect("admission during smoke");
                (name.clone(), ticket)
            })
            .collect();
        header(&["scenario", "experiments", "ok", "wall s", "mappings/s"]);
        for (name, ticket) in tickets {
            let reply = match ticket.wait() {
                Ok(reply) => reply.into_scenario(),
                Err(e) => {
                    failures.push(format!("[{workers}w/{shards}s] {name}: {e}"));
                    continue;
                }
            };
            let ok = reply.results.iter().filter(|r| r.is_ok()).count();
            let generated = sparseloop_bench::results_generated(&reply.results);
            row(&[
                name.clone(),
                reply.results.len().to_string(),
                ok.to_string(),
                format!("{:.3}", reply.wall_seconds),
                fnum(generated as f64 / reply.wall_seconds.max(1e-12)),
            ]);
            if reply.results.is_empty() {
                failures.push(format!("[{workers}w/{shards}s] {name}: no experiments"));
            }
            for ((label, required), served) in
                reply.labels.iter().zip(&reply.required).zip(&reply.results)
            {
                if *required {
                    if let Err(e) = served {
                        failures.push(format!(
                            "[{workers}w/{shards}s] {name}: required {label} empty: {e}"
                        ));
                    }
                }
            }
            let direct = &reference[&name];
            if direct.results.len() != reply.results.len() {
                failures.push(format!(
                    "[{workers}w/{shards}s] {name}: experiment count changed"
                ));
                continue;
            }
            for (label, (served, direct)) in reply
                .labels
                .iter()
                .zip(reply.results.iter().zip(&direct.results))
            {
                if let Some(why) = result_mismatch(served, direct) {
                    failures.push(format!(
                        "[{workers}w/{shards}s] {name}/{label}: NON-DETERMINISTIC: {why}"
                    ));
                }
            }
        }
        let stats = service.shutdown();
        println!(
            "service: {} submitted, {} completed, {} rejected, peak {} intern slots\n",
            stats.submitted, stats.completed, stats.rejected, stats.peak_slots
        );
    }

    if !failures.is_empty() {
        eprintln!("serve smoke FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("all served results bit-identical to the direct unsharded run");
}
