//! Criterion bench: single-candidate `evaluate()` cost, split by stage.
//!
//! The mapper-level benches (`bench_mapper`) measure end-to-end search
//! throughput; this bench isolates what one candidate costs inside the
//! pipeline so future hot-path changes have a per-stage baseline:
//!
//! * `validate` / `dataflow` / `sparse` / `uarch` — the three modeling
//!   stages (plus validation) through the public allocating entry
//!   points;
//! * `evaluate_full` — the whole allocating pipeline
//!   (`Model::evaluate`), the from-scratch reference cost;
//! * `evaluate_scratch` — the same pipeline through a reused
//!   [`EvalScratch`] arena (`Model::evaluate_metric_with`): the
//!   allocation-free hot path the mapper workers run (prefix caching
//!   adds on top of this inside a search; it needs a candidate *stream*
//!   and is measured by `bench_mapper` and slbench's `search_cold`);
//! * `precheck` / `precheck_scratch` — the capacity pre-pass both ways.

use criterion::{criterion_group, criterion_main, Criterion};
use sparseloop_core::{dataflow, sparse, uarch, EvalScratch, Model, Objective, Workload};
use sparseloop_designs::common::conv_mapspace;
use sparseloop_designs::eyeriss;
use sparseloop_energy::EnergyTable;
use sparseloop_workloads::alexnet;

fn bench_eval(c: &mut Criterion) {
    // a representative conv layer on Eyeriss (3 storage levels, skipping
    // SAFs, compressed formats) with a search-typical mapping
    let conv = alexnet().layers[2].clone();
    let dp = eyeriss::design(&conv.einsum);
    let space = conv_mapspace(&conv.einsum, &dp.arch, 2);
    let model = Model::new(
        Workload::new(conv.einsum.clone(), conv.densities.clone()),
        dp.arch.clone(),
        dp.safs.clone(),
    );
    let mapping = space
        .iter_enumerate(100_000)
        .find(|m| model.evaluate(m).is_ok())
        .expect("space contains a valid mapping");
    let energy = EnergyTable::default_45nm();

    let mut g = c.benchmark_group("eval_stages");
    g.bench_function("validate", |b| {
        b.iter(|| mapping.validate(model.workload().einsum(), model.arch()))
    });
    g.bench_function("dataflow", |b| {
        b.iter(|| dataflow::analyze(model.workload().einsum(), &mapping))
    });
    let dense = dataflow::analyze(model.workload().einsum(), &mapping);
    g.bench_function("sparse", |b| {
        b.iter(|| sparse::analyze(model.workload(), &dense, model.safs()))
    });
    let sparse_traffic = sparse::analyze(model.workload(), &dense, model.safs());
    g.bench_function("uarch", |b| {
        b.iter(|| {
            uarch::analyze(
                model.arch(),
                &sparse_traffic,
                &energy,
                uarch::CapacityMode::Expected,
            )
        })
    });
    g.bench_function("precheck", |b| b.iter(|| model.precheck(&mapping)));
    let mut scratch = EvalScratch::new();
    g.bench_function("precheck_scratch", |b| {
        b.iter(|| model.precheck_with(&mapping, &mut scratch))
    });
    g.bench_function("evaluate_full", |b| b.iter(|| model.evaluate(&mapping)));
    g.bench_function("evaluate_scratch", |b| {
        b.iter(|| model.evaluate_metric_with(&mapping, Objective::Edp, &mut scratch))
    });
    g.finish();
}

criterion_group!(benches, bench_eval);
criterion_main!(benches);
