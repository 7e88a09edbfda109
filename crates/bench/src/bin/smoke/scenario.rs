//! Runs every registered scenario once through one shared evaluation
//! session. A scenario fails when it has no experiments, when every
//! experiment comes back empty, or when a required one does. Each
//! scenario also runs as its spec round-trip twin (emit → parse →
//! compile) through the same session, and any drift from the direct run
//! fails too, so a spec front-end regression trips the gate as well as
//! the round-trip tests.

use sparseloop_bench::{fnum, header, row};
use sparseloop_core::EvalSession;
use sparseloop_designs::ScenarioRegistry;
use sparseloop_spec::{compile_str, emit_scenario, outcome_drift};

pub fn run(failures: &mut Vec<String>) {
    let registry = ScenarioRegistry::standard();
    // the twin shares the session: identical caches, and the interned
    // aggregates make the second run cheap
    let session = EvalSession::new();
    header(&[
        "scenario",
        "experiments",
        "ok",
        "wall s",
        "mappings/s",
        "spec twin",
    ]);
    for sc in registry.scenarios() {
        let out = sc.run(&session, None);
        let ok = out.results.iter().filter(|r| r.is_ok()).count();
        let twin = match compile_str(&emit_scenario(sc)) {
            Ok(compiled) => outcome_drift(&out, &compiled.into_scenario().run(&session, None))
                .map(|drift| format!("spec twin drifted: {drift}")),
            Err(e) => Some(format!("spec round trip failed: {e}")),
        };
        row(&[
            sc.name().to_string(),
            out.experiments.len().to_string(),
            ok.to_string(),
            format!("{:.3}", out.wall_seconds),
            fnum(out.mappings_per_sec()),
            if twin.is_none() { "ok" } else { "DRIFT" }.to_string(),
        ]);
        let name = sc.name();
        failures.extend(twin.map(|why| format!("{name}: {why}")));
        if out.experiments.is_empty() {
            failures.push(format!("{name}: no experiments"));
        } else if ok == 0 {
            failures.push(format!("{name}: every experiment came back empty"));
        }
        for (exp, res) in out.experiments.iter().zip(&out.results) {
            if let (true, Err(e)) = (exp.required, res) {
                failures.push(format!("{name}: {} failed: {e}", exp.label));
            }
        }
    }
    let stats = session.stats();
    println!(
        "session: {} format analyses, {} cache hits, {} shared density models, {} slots",
        stats.format.misses, stats.format.hits, stats.density_models, stats.format_slots
    );
}
