//! The accuracy phase: the analytical model against the per-element
//! reference simulator executing real tensors — model error stated next
//! to every speed figure.
//!
//! The accuracy set is one scaled-down layer per design of the paper's
//! Table 6 (SCNN, Eyeriss V2 PE, DSTC, STC, Eyeriss with RLC), sized so
//! the whole phase takes about a second: the full-size
//! `table6_validation_summary` needs 85 s of reference simulation and
//! cannot run inside a benchmark run.
//!
//! Design, layer *and mapping* of every case are pinned as spec text in
//! `reference/accuracy.yaml`, and the gated `model_err_*` metrics use
//! tensors drawn from a pinned seed: they move only when the model (or
//! the simulator) changes — not when the mapper finds other winners, and
//! not with the run's seed. The run seed's own draw is reported beside
//! them (`refsim.model_err_seed_pct`) as the held-out check.

use crate::inputs::actual_tensors;
use sparseloop_core::{EvalSession, Evaluation};
use sparseloop_density::DensityModelSpec;
use sparseloop_designs::scenario::{fig13_mapping, table6_stc_layers};
use sparseloop_designs::{
    dstc, eyeriss, eyeriss_v2, scnn, stc, DesignPoint, Experiment, MappingPolicy,
};
use sparseloop_mapping::{Mapping, Mapspace};
use sparseloop_refsim::{RefSim, SimResult};
use sparseloop_tensor::einsum::{Einsum, TensorId, TensorKind};
use sparseloop_workloads::{alexnet, mobilenet_v1, spmspm, Layer};
use std::time::Instant;

/// The pinned accuracy set, embedded at build time (regenerate with
/// `slbench --write-reference`, then rebuild).
const ACCURACY_YAML: &str = include_str!("../reference/accuracy.yaml");

/// Dense computes each scaled conv layer is capped at: the simulator
/// walks every iteration-space point, and its cost per point grows with
/// the tensors.
const CONV_COMPUTES_CAP: u64 = 4_000;

/// Seed of the tensors behind the gated `model_err_*` metrics.
pub const PINNED_SEED: u64 = 0xACC0_5EED;
/// Draws per case at the pinned seed: the error of one draw is partly
/// luck of the draw; averaging a few keeps the metric about the model.
pub const PINNED_DRAWS: u64 = 3;

/// The statistics compared, in report order.
pub const STATISTICS: [&str; 3] = ["cycles", "computes_actual", "reads_actual"];

/// One (design, layer, mapping) triple of the accuracy set, with its
/// analytical evaluation.
pub struct Case {
    pub name: String,
    design: DesignPoint,
    layer: Layer,
    mapping: Mapping,
    eval: Evaluation,
}

/// The accuracy set as fresh experiments: mappings searched or pinned
/// exactly as the registry's validation scenarios do, on smaller layers.
fn fresh_experiments() -> Vec<Experiment> {
    let mut out = Vec::new();
    {
        let mut layer = alexnet().layers[2].scaled_to(CONV_COMPUTES_CAP);
        layer.densities[0] = DensityModelSpec::Uniform { density: 0.35 };
        let dp = scnn::design(&layer.einsum);
        let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
        out.push(Experiment::search("SCNN", dp, layer, space));
    }
    {
        let layer = mobilenet_v1().layers[2].scaled_to(CONV_COMPUTES_CAP);
        let dp = eyeriss_v2::design(&layer.einsum);
        let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
        out.push(Experiment::search("EyerissV2-PE", dp, layer, space));
    }
    {
        let layer = spmspm(16, 16, 16, 0.3, 0.3);
        let dp = dstc::design(&layer.einsum);
        let mapping = fig13_mapping(&layer.einsum);
        out.push(Experiment::fixed("DSTC", dp, layer, mapping));
    }
    {
        let (mut layer, _dense) = table6_stc_layers();
        layer.einsum = Einsum::matmul(8, 16, 16);
        let dp = stc::stc(&layer.einsum);
        let mapping = stc::mapping(&layer.einsum);
        out.push(Experiment::fixed("STC", dp, layer, mapping));
    }
    {
        let layer = alexnet().layers[1].scaled_to(CONV_COMPUTES_CAP);
        let dp = eyeriss::design(&layer.einsum);
        let space = sparseloop_designs::common::conv_mapspace(
            &layer.einsum,
            &dp.arch,
            dp.arch.num_levels() - 1,
        );
        out.push(Experiment::search("Eyeriss-RLC", dp, layer, space));
    }
    out
}

/// Evaluates (or searches) one experiment on a fresh session.
fn resolve(exp: Experiment) -> Case {
    let outcome = EvalSession::new()
        .search_batch(&[exp.job()], None)
        .pop()
        .expect("one job in, one result out")
        .unwrap_or_else(|e| panic!("accuracy case {} has no valid mapping: {e}", exp.label));
    Case {
        name: exp.label,
        design: exp.design,
        layer: exp.layer,
        mapping: outcome.mapping,
        eval: outcome.eval,
    }
}

/// `reference/accuracy.yaml` for the current commit: the fresh accuracy
/// set with every searched winner pinned as a fixed mapping.
pub fn reference_spec() -> String {
    let pinned: Vec<Experiment> = fresh_experiments()
        .into_iter()
        .map(resolve)
        .map(|case| Experiment::fixed(case.name, case.design, case.layer, case.mapping))
        .collect();
    sparseloop_spec::emit_experiments(
        "slbench_accuracy_set",
        "slbench accuracy set: one scaled-down layer per Table 6 design, mappings pinned",
        &pinned,
    )
}

/// The pinned accuracy set, evaluated by the analytical model.
///
/// # Panics
/// Panics when the embedded reference does not compile or holds a
/// non-fixed experiment — a broken checkout, not a measurement.
pub fn cases() -> Vec<Case> {
    sparseloop_spec::compile_str(ACCURACY_YAML)
        .unwrap_or_else(|e| panic!("reference/accuracy.yaml: {e}"))
        .experiments
        .into_iter()
        .map(|exp| {
            assert!(
                matches!(exp.policy, MappingPolicy::Fixed(_)),
                "reference/accuracy.yaml: {} is not a pinned mapping",
                exp.label
            );
            resolve(exp)
        })
        .collect()
}

/// Words actually read, summed over input tensors and storage levels.
fn reads_actual(case: &Case, sim: &SimResult) -> (f64, f64) {
    let mut analytical = 0.0;
    let mut simulated = 0.0;
    for (t, spec) in case.layer.einsum.tensors().iter().enumerate() {
        if spec.kind != TensorKind::Input {
            continue;
        }
        for level in 0..case.design.arch.num_levels() {
            if let Some(entry) = case.eval.sparse.get(TensorId(t), level) {
                analytical += entry.reads.actual;
                simulated += sim.level(TensorId(t), level).reads_actual;
            }
        }
    }
    (analytical, simulated)
}

/// `|analytical − simulated| ÷ simulated`, in percent.
fn error_pct(analytical: f64, simulated: f64) -> f64 {
    if simulated == 0.0 {
        return if analytical == 0.0 { 0.0 } else { 100.0 };
    }
    100.0 * (analytical - simulated).abs() / simulated.abs()
}

/// The accuracy phase's result.
pub struct Accuracy {
    /// `(case, statistic, error %)`, each averaged over the case's draws.
    pub errors: Vec<(String, &'static str, f64)>,
    /// Reference-simulator wall time per (case, draw).
    pub refsim_ms_per_case: f64,
}

impl Accuracy {
    pub fn mean_pct(&self) -> f64 {
        crate::stats::mean(&self.errors.iter().map(|e| e.2).collect::<Vec<_>>())
    }

    pub fn max_pct(&self) -> f64 {
        self.errors.iter().map(|e| e.2).fold(0.0, f64::max)
    }
}

/// Simulates every case on `draws` tensor draws of `seed` and compares.
pub fn run(cases: &[Case], seed: u64, draws: u64) -> Accuracy {
    let mut errors = Vec::new();
    let mut refsim_s = 0.0;
    for (c, case) in cases.iter().enumerate() {
        let mut sums = [0.0f64; STATISTICS.len()];
        for draw in 0..draws {
            let tensors = actual_tensors(&case.layer, seed, c as u64 * draws + draw);
            let start = Instant::now();
            let sim = RefSim::new(
                &case.layer.einsum,
                &case.design.arch,
                &case.mapping,
                &case.design.safs,
                &tensors,
            )
            .run();
            refsim_s += start.elapsed().as_secs_f64();
            let (reads_model, reads_sim) = reads_actual(case, &sim);
            sums[0] += error_pct(case.eval.cycles, sim.cycles);
            sums[1] += error_pct(case.eval.sparse.compute.ops.actual, sim.computes_actual);
            sums[2] += error_pct(reads_model, reads_sim);
        }
        for (statistic, sum) in STATISTICS.into_iter().zip(sums) {
            errors.push((case.name.clone(), statistic, sum / draws as f64));
        }
    }
    Accuracy {
        errors,
        refsim_ms_per_case: 1e3 * refsim_s / (cases.len() as u64 * draws) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_relative_to_the_simulator() {
        assert_eq!(error_pct(110.0, 100.0), 10.0);
        assert_eq!(error_pct(90.0, 100.0), 10.0);
        assert_eq!(error_pct(0.0, 0.0), 0.0);
        assert_eq!(error_pct(1.0, 0.0), 100.0);
    }
}
