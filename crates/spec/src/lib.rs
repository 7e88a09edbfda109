//! # sparseloop-spec
//!
//! The declarative spec front-end: parse architecture/workload/SAF/
//! mapper specs into runnable scenarios, and serialize scenarios back
//! to spec form.
//!
//! The real Sparseloop tool is driven entirely by declarative YAML —
//! architecture, sparse-optimization features, mapping constraints and
//! workloads are data, not code. This crate gives the reproduction the
//! same front-end without external dependencies: a self-contained
//! YAML-subset parser ([`yaml`]) with line:column-tracked errors, a
//! compiler ([`compile_str`]) from parsed documents into the existing
//! model types ([`Architecture`], [`Layer`], [`SafSpec`], mappings and
//! mapspaces, composed into `DesignPoint`/`Experiment`/`Scenario`), and
//! an emitter ([`emit_scenario`]) that serializes any scenario back to
//! spec text. Emit → parse → compile reproduces bit-identical
//! [`ScenarioOutcome`]s for every scenario in
//! [`ScenarioRegistry::standard`] — the `examples/specs/` corpus is
//! generated exactly this way.
//!
//! ## The grammar subset
//!
//! A spec is one YAML document using block mappings/sequences, one-line
//! flow collections (`[a, b]`, `{k: v}`), plain or double-quoted
//! scalars, and `#` comments. The top level is:
//!
//! ```yaml
//! spec_version: 1
//! scenario:              # registry identity
//!   name: my_experiment
//!   title: "What this measures"
//! designs:               # named architecture + SAF bundles
//!   - name: demo
//!     architecture:
//!       name: demo-arch
//!       levels:          # outermost first; defaults omitted
//!         - {name: DRAM, class: dram}
//!         - {name: Buf, capacity_words: 2048, instances: 4}
//!       compute: {name: MAC, instances: 8}
//!     sparse_optimizations:            # optional
//!       formats:
//!         - {level: 0, tensor: A, format: UOP-CP}
//!       actions:
//!         - {level: 1, action: skip, target: A, leaders: [B]}
//!       compute: gate
//! workloads:             # named einsum + density bundles
//!   - name: tiny
//!     einsum:
//!       name: matmul
//!       dims: {m: 4, n: 4, k: 8}
//!       tensors:
//!         - {name: A, kind: input, projection: [m, k]}
//!         - {name: B, kind: input, projection: [k, n]}
//!         - {name: Z, kind: output, projection: [m, n]}
//!     densities:
//!       A: {distribution: uniform, density: 0.5}
//!       B: dense
//!       Z: dense
//! experiments:           # design x workload, fixed mapping or search
//!   - label: "demo@tiny"
//!     design: demo
//!     workload: tiny
//!     search:
//!       objective: edp
//!       mapper: {strategy: hybrid, enumerate: 256, samples: 128, seed: 7}
//!       mapspace:
//!         temporal_order:
//!           - [m, n, k]
//!           - [m, n, k]
//!         spatial_dims:
//!           - []
//!           - [n]
//! ```
//!
//! Fixed-mapping experiments replace `search:` with the loop-nest DSL
//! (`for <dim> in <bound>` / `parallel-for <dim> in <bound>`):
//!
//! ```yaml
//!     mapping:
//!       nests:
//!         - [for m in 4]
//!         - [parallel-for n in 4, for k in 8]
//! ```
//!
//! Projections support strides (`4*p + r`), formats support explicit
//! bit widths and rank flattening (`CP(2)`, `CP^2`, `B-RLE`), and
//! densities cover `dense`, `uniform`, `fixed_structured` (n:m) and
//! `banded`. Every parse or compile failure reports its file, line:
//! column, and a source excerpt ([`SpecError`]).
//!
//! [`Architecture`]: sparseloop_arch::Architecture
//! [`Layer`]: sparseloop_workloads::Layer
//! [`SafSpec`]: sparseloop_core::SafSpec
//! [`ScenarioOutcome`]: sparseloop_designs::ScenarioOutcome
//! [`ScenarioRegistry::standard`]: sparseloop_designs::ScenarioRegistry::standard

pub mod compile;
pub mod emit;
pub mod error;
pub mod yaml;

pub use compile::{compile_str, CompiledScenario};
pub use emit::{emit_experiments, emit_scenario};
pub use error::SpecError;

use sparseloop_core::{JobError, JobOutcome};
use sparseloop_designs::{Scenario, ScenarioOutcome, ScenarioRegistry};
use std::path::Path;

/// Compares two scenario outcomes for bit-identity: experiment labels
/// and required flags, then every result by [`result_drift`] (wall time
/// excluded). Returns a description of the first drift, `None` when
/// identical — the contract the spec round-trip tests, the smoke gate and
/// the benchmark enforce between a scenario and any other way of running
/// it.
pub fn outcome_drift(reference: &ScenarioOutcome, candidate: &ScenarioOutcome) -> Option<String> {
    if reference.experiments.len() != candidate.experiments.len() {
        return Some(format!(
            "experiment count differs: {} vs {}",
            reference.experiments.len(),
            candidate.experiments.len()
        ));
    }
    for (i, (re, ce)) in reference
        .experiments
        .iter()
        .zip(&candidate.experiments)
        .enumerate()
    {
        if re.label != ce.label {
            return Some(format!(
                "experiment {i} label differs: {:?} vs {:?}",
                re.label, ce.label
            ));
        }
        if re.required != ce.required {
            return Some(format!("{}: required flag differs", re.label));
        }
        if let Some(why) = result_drift(&reference.results[i], &candidate.results[i]) {
            return Some(format!("{}: {why}", re.label));
        }
    }
    None
}

/// The one definition of "the same answer" for one experiment: the
/// winning mapping, every evaluation metric *by float bits* (so −0.0 and
/// +0.0 differ and a NaN equals only its own bits), the search counters,
/// and — for failures — the whole [`JobError`], including the counters a
/// fruitless search carries. Returns a description of the drift, `None`
/// when identical.
///
/// [`JobError`]: sparseloop_core::JobError
pub fn result_drift(
    reference: &Result<JobOutcome, JobError>,
    candidate: &Result<JobOutcome, JobError>,
) -> Option<String> {
    match (reference, candidate) {
        (Ok(r), Ok(c)) => {
            if r.mapping != c.mapping {
                return Some("winning mapping differs".into());
            }
            let bits = |e: &sparseloop_core::Evaluation| {
                [e.cycles, e.energy_pj, e.edp, e.utilization].map(f64::to_bits)
            };
            if bits(&r.eval) != bits(&c.eval) {
                return Some(format!(
                    "evaluation differs: (edp {}, cycles {}, pJ {}, util {}) vs ({}, {}, {}, {})",
                    r.eval.edp,
                    r.eval.cycles,
                    r.eval.energy_pj,
                    r.eval.utilization,
                    c.eval.edp,
                    c.eval.cycles,
                    c.eval.energy_pj,
                    c.eval.utilization
                ));
            }
            if r.stats != c.stats {
                return Some(format!(
                    "search stats differ: {:?} vs {:?}",
                    r.stats, c.stats
                ));
            }
            None
        }
        (Err(r), Err(c)) if r == c => None,
        (Err(r), Err(c)) => Some(format!("error differs: {r:?} vs {c:?}")),
        (Ok(_), Err(c)) => Some(format!("reference succeeded, candidate failed: {c}")),
        (Err(r), Ok(_)) => Some(format!("reference failed ({r}), candidate succeeded")),
    }
}

/// Parses and compiles a spec file into a registry [`Scenario`].
///
/// # Errors
/// Returns a [`SpecError`] naming the file on I/O, parse or compile
/// failure.
pub fn load_file(path: impl AsRef<Path>) -> Result<CompiledScenario, SpecError> {
    let path = path.as_ref();
    let file = path.display().to_string();
    let source = std::fs::read_to_string(path).map_err(|e| {
        SpecError::new(
            yaml::Span { line: 1, col: 1 },
            format!("cannot read spec file: {e}"),
            "",
        )
        .in_file(file.clone())
    })?;
    compile_str(&source).map_err(|e| e.in_file(file))
}

/// Loads every `*.yaml` / `*.yml` file under `dir` (sorted by file
/// name), compiled into scenarios.
///
/// # Errors
/// Fails on the first unreadable or invalid spec file, naming it.
pub fn load_dir(dir: impl AsRef<Path>) -> Result<Vec<CompiledScenario>, SpecError> {
    let dir = dir.as_ref();
    let entries = std::fs::read_dir(dir).map_err(|e| {
        SpecError::new(
            yaml::Span { line: 1, col: 1 },
            format!("cannot read spec directory: {e}"),
            "",
        )
        .in_file(dir.display().to_string())
    })?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("yaml") | Some("yml")
            )
        })
        .collect();
    paths.sort();
    paths.into_iter().map(load_file).collect()
}

/// Spec-loading extension for [`ScenarioRegistry`] (imported via this
/// trait because the registry lives below the spec crate in the
/// dependency graph).
pub trait SpecRegistryExt: Sized {
    /// Extends the registry with every spec file under `dir` (see
    /// [`load_dir`]). Spec scenarios whose names collide with already
    /// registered ones are an error — a spec cannot silently shadow a
    /// built-in scenario.
    ///
    /// # Errors
    /// Fails on unreadable/invalid files or duplicate scenario names.
    fn with_specs(self, dir: impl AsRef<Path>) -> Result<Self, SpecError>;
}

impl SpecRegistryExt for ScenarioRegistry {
    fn with_specs(mut self, dir: impl AsRef<Path>) -> Result<Self, SpecError> {
        for compiled in load_dir(&dir)? {
            let scenario: Scenario = compiled.into_scenario();
            let name = scenario.name().to_string();
            if self.push(scenario).is_err() {
                return Err(SpecError::new(
                    yaml::Span { line: 1, col: 1 },
                    format!("duplicate scenario name {name:?} (already registered)"),
                    "",
                )
                .in_file(dir.as_ref().display().to_string()));
            }
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseloop_core::EvalSession;
    use sparseloop_designs::Experiment;
    use sparseloop_mapping::{Mapspace, SearchStats};

    /// A real fixed-mapping outcome to perturb.
    fn outcome() -> JobOutcome {
        let layer = sparseloop_workloads::spmspm(4, 4, 4, 0.5, 0.5);
        let dp = sparseloop_designs::fig1::bitmask_design(&layer.einsum);
        let m = Mapspace::all_temporal(&layer.einsum, &dp.arch)
            .enumerate(1)
            .remove(0);
        let scenario = Scenario::new("drift", "drift fixture", move || {
            vec![Experiment::fixed("x", dp.clone(), layer.clone(), m.clone())]
        });
        let mut out = scenario.run(&EvalSession::new(), None);
        out.results.remove(0).expect("fixed mapping evaluates")
    }

    #[test]
    fn result_drift_is_bit_exact_on_every_field() {
        let reference = outcome();
        let same = |c: &JobOutcome| result_drift(&Ok(reference.clone()), &Ok(c.clone()));
        assert_eq!(same(&reference), None);

        let mut c = reference.clone();
        c.eval.utilization = f64::from_bits(c.eval.utilization.to_bits() ^ 1);
        assert!(same(&c).is_some(), "a utilization-only drift is a drift");

        let (mut r, mut c) = (reference.clone(), reference.clone());
        (r.eval.edp, c.eval.edp) = (0.0, -0.0);
        assert!(
            result_drift(&Ok(r), &Ok(c)).is_some(),
            "-0.0 and +0.0 EDP differ by bits"
        );

        let mut nan = reference.clone();
        nan.eval.edp = f64::NAN;
        assert_eq!(
            result_drift(&Ok(nan.clone()), &Ok(nan)),
            None,
            "a NaN equals its bits"
        );

        let mut c = reference.clone();
        c.stats.pruned += 1;
        assert!(same(&c).is_some(), "search counters are part of the answer");
    }

    #[test]
    fn result_drift_compares_whole_errors() {
        let fruitless = |evaluated| {
            Err(JobError::NoValidCandidate {
                stats: SearchStats {
                    generated: 10,
                    evaluated,
                    ..SearchStats::default()
                },
            })
        };
        assert_eq!(result_drift(&fruitless(3), &fruitless(3)), None);
        // the Display text omits `evaluated`; the comparison must not
        assert_eq!(
            format!("{}", fruitless(3).unwrap_err()),
            format!("{}", fruitless(4).unwrap_err())
        );
        assert!(result_drift(&fruitless(3), &fruitless(4)).is_some());
        assert!(result_drift(&Ok(outcome()), &fruitless(3)).is_some());
        assert!(result_drift(&fruitless(3), &Ok(outcome())).is_some());
    }

    #[test]
    fn load_file_names_the_file_on_errors() {
        let e = load_file("/nonexistent/spec.yaml").unwrap_err();
        assert_eq!(e.file.as_deref(), Some("/nonexistent/spec.yaml"));
        assert!(e.message.contains("cannot read"), "{e}");
    }

    #[test]
    fn with_specs_loads_and_rejects_duplicates() {
        let dir = std::env::temp_dir().join(format!("sparseloop-spec-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let registry = ScenarioRegistry::standard();
        let text = emit_scenario(registry.expect("fig1_format_tradeoff"));
        std::fs::write(dir.join("fig1.yaml"), &text).unwrap();
        // collides with the built-in name
        let err = ScenarioRegistry::standard().with_specs(&dir).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
        // under a fresh name it loads and is runnable by lookup
        let renamed = text.replace("name: fig1_format_tradeoff", "name: fig1_from_spec");
        std::fs::write(dir.join("fig1.yaml"), renamed).unwrap();
        let registry = ScenarioRegistry::standard().with_specs(&dir).unwrap();
        assert!(registry.get("fig1_from_spec").is_some());
        assert!(registry.get("fig1_format_tradeoff").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
