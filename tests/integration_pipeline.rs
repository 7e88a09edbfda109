//! End-to-end integration: workload -> design -> engine -> evaluation,
//! spanning every crate in the workspace.

use sparseloop_core::{Model, Objective, SafSpec, Workload};
use sparseloop_designs::common::{conv_mapspace, matmul_mapping_2level};
use sparseloop_designs::{eyeriss, fig1, scnn};
use sparseloop_mapping::{Mapper, Mapspace};
use sparseloop_workloads::{alexnet, mobilenet_v1, spmspm, vgg16};

#[test]
fn spmspm_on_fig1_designs_end_to_end() {
    for d in [0.1, 0.5, 1.0] {
        let layer = spmspm(32, 32, 32, d, d);
        let mapping = matmul_mapping_2level(&layer.einsum, 16, 4);
        for dp in [
            fig1::bitmask_design(&layer.einsum),
            fig1::coordinate_list_design(&layer.einsum),
        ] {
            let eval = dp.evaluate(&layer, &mapping).unwrap();
            assert!(eval.cycles >= 1.0, "{} at d={d}", dp.name);
            assert!(eval.energy_pj > 0.0);
            // conservation at every level entry
            for e in &eval.sparse.entries {
                let de = eval.dense.get(e.tensor, e.level).unwrap();
                assert!(
                    (e.reads.total() - de.reads).abs() < de.reads.max(1.0) * 1e-6,
                    "reads conserved for {} t{} L{}",
                    dp.name,
                    e.tensor.0,
                    e.level
                );
            }
        }
    }
}

#[test]
fn conv_designs_search_valid_mappings() {
    // driven as scenario experiments through a shared session, the same
    // path the registry's experiments take
    let layer = alexnet().layers[4].scaled_to(1_000_000);
    let session = sparseloop_core::EvalSession::new();
    for dp in [eyeriss::design(&layer.einsum), scnn::design(&layer.einsum)] {
        let space = conv_mapspace(&layer.einsum, &dp.arch, 2);
        let exp = sparseloop_designs::Experiment::search(
            format!("{}@conv5", dp.name),
            dp,
            layer.clone(),
            space,
        );
        let outcome = session.search_batch(&[exp.job()], Some(2));
        let res = outcome[0].as_ref().expect("valid mapping exists");
        res.mapping
            .validate(&layer.einsum, &exp.design.arch)
            .unwrap();
        assert!(res.eval.cycles > 0.0, "{}", exp.label);
    }
}

#[test]
fn network_level_aggregation() {
    // per-layer evaluation then aggregation, the paper's DNN methodology,
    // run as one batch through the session
    let net = vgg16();
    let session = sparseloop_core::EvalSession::new();
    let jobs: Vec<sparseloop_core::EvalJob> = net
        .layers
        .iter()
        .take(3)
        .map(|layer| {
            let layer = layer.scaled_to(2_000_000);
            let dp = eyeriss::design(&layer.einsum);
            let space = conv_mapspace(&layer.einsum, &dp.arch, 2);
            sparseloop_designs::Experiment::search(layer.name.clone(), dp, layer, space).job()
        })
        .collect();
    let total: f64 = session
        .search_batch(&jobs, Some(2))
        .iter()
        .map(|r| r.as_ref().expect("layer maps").eval.energy_pj)
        .sum();
    assert!(total > 0.0);
}

#[test]
fn depthwise_layers_supported() {
    let net = mobilenet_v1();
    let dw = net.layers[1].scaled_to(200_000);
    assert!(dw.name.starts_with("dw"));
    let dp = sparseloop_designs::eyeriss_v2::design(&dw.einsum);
    let space = Mapspace::all_temporal(&dw.einsum, &dp.arch);
    let (_, eval) = dp.search(&dw, &space).expect("depthwise maps");
    assert!(eval.cycles > 0.0);
}

#[test]
fn engine_objectives_are_consistent() {
    let layer = spmspm(16, 16, 16, 0.3, 0.3);
    let dp = fig1::coordinate_list_design(&layer.einsum);
    let workload = Workload::new(layer.einsum.clone(), layer.densities.clone());
    let model = Model::new(workload, dp.arch.clone(), SafSpec::dense());
    let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
    let by_lat = model.search(
        &space,
        Mapper::Exhaustive { limit: 500 },
        Objective::Latency,
    );
    let by_edp = model.search(&space, Mapper::Exhaustive { limit: 500 }, Objective::Edp);
    let (l, e) = (by_lat.unwrap().1, by_edp.unwrap().1);
    assert!(l.cycles <= e.cycles + 1e-9, "latency winner is fastest");
    assert!(e.edp <= l.edp + 1e-9, "EDP winner has best EDP");
}

#[test]
fn banded_scientific_workload_end_to_end() {
    // Table 4's banded model: a scientific-matrix spMspM on the Fig 17
    // hierarchical-skip design — coordinate-dependent density flowing
    // through all three modeling steps.
    use sparseloop_density::DensityModelSpec;
    use sparseloop_designs::fig17::{design, mapping, Dataflow, SafChoice};
    use sparseloop_workloads::Layer;

    let einsum = sparseloop_tensor::einsum::Einsum::matmul(256, 256, 256);
    let layer = Layer {
        name: "banded_solver".into(),
        einsum: einsum.clone(),
        densities: vec![
            DensityModelSpec::Banded {
                half_width: 4,
                fill: 0.9,
            },
            DensityModelSpec::Banded {
                half_width: 4,
                fill: 0.9,
            },
            DensityModelSpec::Dense,
        ],
    };
    let dp = design(&einsum, Dataflow::ReuseAz, SafChoice::HierarchicalSkip);
    let eval = dp
        .evaluate(&layer, &mapping(&einsum, Dataflow::ReuseAz))
        .expect("banded workload evaluates");
    // band density ~ 9*0.9/256 ≈ 3%: hierarchical skipping must remove
    // the overwhelming majority of computes
    assert!(eval.sparse.compute.ops.actual < 0.02 * eval.dense.computes);
    assert!(eval.cycles >= 1.0);

    // dense-band comparison: narrower band -> strictly less work
    let wide = Layer {
        densities: vec![
            DensityModelSpec::Banded {
                half_width: 32,
                fill: 0.9,
            },
            DensityModelSpec::Banded {
                half_width: 32,
                fill: 0.9,
            },
            DensityModelSpec::Dense,
        ],
        ..layer.clone()
    };
    let wide_eval = dp
        .evaluate(&wide, &mapping(&einsum, Dataflow::ReuseAz))
        .expect("wide band evaluates");
    assert!(wide_eval.sparse.compute.ops.actual > eval.sparse.compute.ops.actual);
}
