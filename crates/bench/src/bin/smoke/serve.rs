//! Boots the queue-driven evaluation service at two `(workers, shards)`
//! configurations and submits every registered scenario twice, as
//! `ServeRequest::Scenario(name)` and as `ServeRequest::Spec(text)`.
//! Every reply must be bit-identical to the direct, unsharded
//! `Scenario::run`, so serving, spec compilation, sharding and worker
//! scheduling cannot change a single bit of any winner. (The direct run
//! itself is checked for empty required experiments by the `scenario`
//! phase.)

use sparseloop_core::EvalSession;
use sparseloop_designs::ScenarioRegistry;
use sparseloop_serve::{
    reply_drift, scenario_reply, EvalService, ScenarioReply, ServeConfig, ServeRequest,
};

const CONFIGS: [(usize, usize); 2] = [(2, 2), (3, 3)];

pub fn run(failures: &mut Vec<String>) {
    let registry = ScenarioRegistry::standard();
    let session = EvalSession::new();
    let references: Vec<(ScenarioReply, String)> = registry
        .scenarios()
        .iter()
        .map(|sc| {
            let reply = scenario_reply(sc.run(&session, None));
            (reply, sparseloop_spec::emit_scenario(sc))
        })
        .collect();
    for (workers, shards) in CONFIGS {
        let service = EvalService::start(
            ServeConfig::default()
                .with_workers(workers)
                .with_shards(shards)
                .with_queue_capacity(2 * references.len()),
        );
        let mut tickets = Vec::new();
        for (want, text) in &references {
            for (form, request) in [
                ("name", ServeRequest::Scenario(want.name.clone())),
                ("spec", ServeRequest::Spec(text.clone())),
            ] {
                let tag = format!("[{workers}w/{shards}s] {} by {form}", want.name);
                match service.submit_blocking(request) {
                    Ok(ticket) => tickets.push((tag, want, ticket)),
                    Err(e) => failures.push(format!("{tag}: refused: {e}")),
                }
            }
        }
        let mut identical = 0;
        for (tag, want, ticket) in tickets {
            match ticket.wait() {
                Ok(reply) => match reply_drift(want, &reply.into_scenario()) {
                    Some(why) => failures.push(format!("{tag}: NON-DETERMINISTIC: {why}")),
                    None => identical += 1,
                },
                Err(e) => failures.push(format!("{tag}: {e}")),
            }
        }
        let stats = service.shutdown();
        println!(
            "[{workers}w/{shards}s] {identical}/{} replies bit-identical to the direct run \
             ({} completed, {} rejected, peak {} intern slots)",
            2 * references.len(),
            stats.completed,
            stats.rejected,
            stats.peak_slots
        );
    }
}
