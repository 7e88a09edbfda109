//! Parses and compiles every file under `examples/specs/` and checks
//! that the corpus is exactly the emitted form of the standard
//! registry: no stale, missing or extra file (regenerate with
//! `sparseloop emit --all examples/specs`). Serving spec text is the
//! `serve` phase's job.

use sparseloop_designs::ScenarioRegistry;
use sparseloop_spec::{emit_scenario, load_dir};
use std::collections::BTreeMap;

/// The corpus, located from this crate so the smoke runs from any
/// working directory.
const SPEC_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs");

pub fn run(failures: &mut Vec<String>) {
    let registry = ScenarioRegistry::standard();
    let compiled = match load_dir(SPEC_DIR) {
        Ok(compiled) => compiled,
        Err(e) => return failures.push(e.to_string()),
    };
    let by_name: BTreeMap<&str, usize> = compiled
        .iter()
        .map(|c| (c.name.as_str(), c.experiments.len()))
        .collect();
    for scenario in registry.scenarios() {
        let name = scenario.name();
        let Some(&experiments) = by_name.get(name) else {
            failures.push(format!(
                "{name}: no spec file (regenerate with `sparseloop emit --all examples/specs`)"
            ));
            continue;
        };
        let path = format!("{SPEC_DIR}/{name}.yaml");
        match std::fs::read_to_string(&path) {
            Ok(checked_in) if checked_in == emit_scenario(scenario) => {}
            Ok(_) => failures.push(format!("{path}: stale — differs from the emitted scenario")),
            Err(e) => failures.push(format!("{path}: expected at this exact path: {e}")),
        }
        let want = scenario.experiments().len();
        if experiments != want {
            failures.push(format!(
                "{name}: spec compiles to {experiments} experiments, registry has {want}"
            ));
        }
    }
    if compiled.len() != registry.scenarios().len() {
        failures.push(format!(
            "the corpus holds {} spec files but the registry has {} scenarios",
            compiled.len(),
            registry.scenarios().len()
        ));
    }
    println!(
        "corpus: {} spec files parsed and compiled against {} registered scenarios",
        compiled.len(),
        registry.scenarios().len()
    );
}
