//! Locks in paper-level qualitative results: STC's exact 2x (a Table 6
//! row, which runs refsim and is not gated by `sparseloop_bench::paper`),
//! Fig. 17's co-design insights on the 256^3 SpMSpM (the gate checks them
//! again on the fig17 scenario's own workload), and gating-vs-skipping
//! semantics. Fig. 1's crossover is a claim of the paper gate.

use sparseloop_density::DensityModelSpec;
use sparseloop_designs::common::matmul_mapping_2level;
use sparseloop_designs::fig17::{design as f17design, mapping as f17mapping, Dataflow, SafChoice};
use sparseloop_designs::{fig1, stc};
use sparseloop_tensor::einsum::Einsum;
use sparseloop_workloads::{spmspm, Layer};

#[test]
fn stc_two_four_speedup_is_exact() {
    // §6.3.5: structured sparsity gives deterministic behavior -> 100%
    // accuracy on the 2x speedup.
    let e = Einsum::matmul(64, 64, 64);
    let mk = |w| Layer {
        name: "l".into(),
        einsum: e.clone(),
        densities: vec![w, DensityModelSpec::Dense, DensityModelSpec::Dense],
    };
    let dp = stc::stc(&e);
    let m = stc::mapping(&e);
    let s = dp
        .evaluate(
            &mk(DensityModelSpec::FixedStructured {
                n: 2,
                m: 4,
                axis: 1,
            }),
            &m,
        )
        .unwrap();
    let d = dp.evaluate(&mk(DensityModelSpec::Dense), &m).unwrap();
    assert!((d.uarch.compute_cycles / s.uarch.compute_cycles - 2.0).abs() < 1e-9);
}

#[test]
fn fig17_best_design_depends_on_density() {
    let edp = |df, saf, d| {
        let l = spmspm(256, 256, 256, d, d);
        f17design(&l.einsum, df, saf)
            .evaluate(&l, &f17mapping(&l.einsum, df))
            .unwrap()
            .edp
    };
    // hyper-sparse: hierarchical off-chip skipping with streamed B wins
    assert!(
        edp(Dataflow::ReuseAz, SafChoice::HierarchicalSkip, 0.001)
            < edp(Dataflow::ReuseAbz, SafChoice::InnermostSkip, 0.001)
    );
    // NN densities: on-chip reuse wins
    assert!(
        edp(Dataflow::ReuseAbz, SafChoice::InnermostSkip, 0.25)
            < edp(Dataflow::ReuseAz, SafChoice::HierarchicalSkip, 0.25)
    );
}

#[test]
fn fig17_more_safs_is_not_always_better() {
    // ReuseABZ.HierarchicalSkip combines every saving feature yet never
    // wins: the reuse dataflow starves the off-chip intersection.
    for d in [0.001, 0.01, 0.1, 0.5] {
        let l = spmspm(256, 256, 256, d, d);
        let abz_h = f17design(&l.einsum, Dataflow::ReuseAbz, SafChoice::HierarchicalSkip)
            .evaluate(&l, &f17mapping(&l.einsum, Dataflow::ReuseAbz))
            .unwrap()
            .edp;
        let others = [
            (Dataflow::ReuseAbz, SafChoice::InnermostSkip),
            (Dataflow::ReuseAz, SafChoice::InnermostSkip),
            (Dataflow::ReuseAz, SafChoice::HierarchicalSkip),
        ]
        .into_iter()
        .map(|(df, saf)| {
            f17design(&l.einsum, df, saf)
                .evaluate(&l, &f17mapping(&l.einsum, df))
                .unwrap()
                .edp
        })
        .fold(f64::INFINITY, f64::min);
        assert!(abz_h >= others * 0.999, "never strictly best at d={d}");
    }
}

#[test]
fn gating_saves_energy_only_skipping_saves_both() {
    // The taxonomy's defining distinction (§3.1.2 / §3.1.3).
    let l = spmspm(32, 32, 32, 0.2, 0.2);
    let m = matmul_mapping_2level(&l.einsum, 16, 4);
    let gate = fig1::bitmask_design(&l.einsum).evaluate(&l, &m).unwrap();
    let skip = fig1::coordinate_list_design(&l.einsum)
        .evaluate(&l, &m)
        .unwrap();
    let dense_l = spmspm(32, 32, 32, 1.0, 1.0);
    let dense = fig1::bitmask_design(&dense_l.einsum)
        .evaluate(&dense_l, &m)
        .unwrap();
    assert!((gate.cycles - dense.cycles).abs() / dense.cycles < 0.05);
    assert!(gate.energy_pj < dense.energy_pj);
    assert!(skip.cycles < 0.5 * dense.cycles);
    assert!(skip.energy_pj < dense.energy_pj);
}
