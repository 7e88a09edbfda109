//! The round-trip contract: every standard scenario serializes to spec
//! form, parses and compiles back, and behaves bit-identically.
//!
//! Structural equality is asserted for the *whole* registry (cheap — no
//! evaluation); outcome bit-identity is asserted here for fast
//! scenarios, and for every scenario by the release-mode `smoke` CI
//! gate's `scenario` phase (same [`outcome_drift`] comparator).

use sparseloop_core::EvalSession;
use sparseloop_designs::scenario::MappingPolicy;
use sparseloop_designs::ScenarioRegistry;
use sparseloop_spec::{compile_str, emit_scenario, outcome_drift};

#[test]
fn every_standard_scenario_round_trips_structurally() {
    let registry = ScenarioRegistry::standard();
    for scenario in registry.scenarios() {
        let text = emit_scenario(scenario);
        let compiled = compile_str(&text)
            .unwrap_or_else(|e| panic!("{} failed to recompile: {e}", scenario.name()));
        assert_eq!(compiled.name, scenario.name());
        assert_eq!(compiled.title, scenario.title());
        let original = scenario.experiments();
        assert_eq!(
            compiled.experiments.len(),
            original.len(),
            "{}",
            scenario.name()
        );
        for (a, b) in original.iter().zip(&compiled.experiments) {
            let at = format!("{}::{}", scenario.name(), a.label);
            assert_eq!(a.label, b.label, "{at}");
            assert_eq!(a.required, b.required, "{at}");
            assert_eq!(a.design.name, b.design.name, "{at}");
            assert_eq!(a.design.arch, b.design.arch, "{at}");
            assert_eq!(a.design.safs, b.design.safs, "{at}");
            assert_eq!(a.layer.name, b.layer.name, "{at}");
            assert_eq!(a.layer.einsum, b.layer.einsum, "{at}");
            assert_eq!(a.layer.densities, b.layer.densities, "{at}");
            match (&a.policy, &b.policy) {
                (MappingPolicy::Fixed(ma), MappingPolicy::Fixed(mb)) => {
                    assert_eq!(ma, mb, "{at}");
                }
                (
                    MappingPolicy::Search {
                        mapper: mpa,
                        objective: oa,
                        ..
                    },
                    MappingPolicy::Search {
                        mapper: mpb,
                        objective: ob,
                        ..
                    },
                ) => {
                    // mapspace equality is covered by emit idempotence
                    // below (the type has no Eq; its serialized form is
                    // its canonical identity)
                    assert_eq!(mpa, mpb, "{at}");
                    assert_eq!(oa, ob, "{at}");
                }
                _ => panic!("{at}: policy kind changed through the round trip"),
            }
        }
        // canonical form is a fixed point: emit(compile(emit(s))) == emit(s)
        let reparsed = compiled.into_scenario();
        assert_eq!(
            emit_scenario(&reparsed),
            text,
            "{}: emit is not idempotent",
            scenario.name()
        );
    }
}

/// Runs a scenario and its spec twin through fresh sessions and demands
/// bit-identical outcomes.
fn assert_bit_identical(name: &str) {
    let registry = ScenarioRegistry::standard();
    let scenario = registry.expect(name);
    let twin = compile_str(&emit_scenario(scenario))
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .into_scenario();
    let reference = scenario.run(&EvalSession::new(), Some(2));
    let candidate = twin.run(&EvalSession::new(), Some(2));
    if let Some(drift) = outcome_drift(&reference, &candidate) {
        panic!("{name}: spec twin drifted: {drift}");
    }
}

#[test]
fn fig1_outcome_bit_identical_through_spec() {
    assert_bit_identical("fig1_format_tradeoff");
}

#[test]
fn fig13_outcome_bit_identical_through_spec() {
    assert_bit_identical("fig13_dstc_validation");
}

#[test]
fn fig11_search_outcome_bit_identical_through_spec() {
    // a mapspace-search scenario: round-trips the mapper, objective and
    // mapspace constraints, not just fixed nests
    assert_bit_identical("fig11_scnn_validation");
}

#[test]
fn shared_designs_are_interned_once() {
    // fig17's grid reuses four designs and one workload per density:
    // the emitted document must not repeat architectures per experiment
    let registry = ScenarioRegistry::standard();
    let text = emit_scenario(registry.expect("fig17_codesign_study"));
    let experiments = registry.expect("fig17_codesign_study").experiments().len();
    let archs = text.matches("architecture:").count();
    assert!(
        archs < experiments,
        "expected interned designs: {archs} architectures for {experiments} experiments"
    );
}
