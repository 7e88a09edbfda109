//! Property-based tests on the three-step model's invariants:
//! conservation laws of the dense analysis and breakdown invariants of
//! the sparse analysis.

use proptest::prelude::*;
use sparseloop_arch::{ArchitectureBuilder, ComputeSpec, StorageLevel};
use sparseloop_core::{
    dataflow, sparse, EvalError, EvalScratch, Model, Objective, SafSpec, Workload,
};
use sparseloop_density::DensityModelSpec;
use sparseloop_mapping::{CandidateEvaluator, Mapper, Mapspace};
use sparseloop_tensor::einsum::{DimId, Einsum, TensorKind};

fn arch2() -> sparseloop_arch::Architecture {
    ArchitectureBuilder::new("t")
        .level(StorageLevel::new("L0"))
        .level(StorageLevel::new("L1"))
        .compute(ComputeSpec::new("MAC", 1))
        .build()
        .unwrap()
}

proptest! {
    /// Dense-traffic conservation: multicast-corrected fills at a child
    /// equal the parent's reads for input tensors, and innermost reads
    /// never exceed total computes.
    #[test]
    fn dense_conservation(
        m in 1u64..8, n in 1u64..8, k in 1u64..8,
        pick in 0usize..20,
    ) {
        let e = Einsum::matmul(m, n, k);
        let arch = arch2();
        let space = Mapspace::all_temporal(&e, &arch);
        let maps = space.enumerate(20);
        let mapping = &maps[pick % maps.len()];
        let d = dataflow::analyze(&e, mapping);
        prop_assert_eq!(d.computes, (m * n * k) as f64);
        for t in e.inputs() {
            // temporal-only mapping: fills at L1 == reads at L0
            if let (Some(e0), Some(e1)) = (d.get(t, 0), d.get(t, 1)) {
                prop_assert!((e1.fills - e0.reads).abs() < 1e-6,
                    "fills {} == reads {}", e1.fills, e0.reads);
                // innermost reads bounded by computes
                prop_assert!(e1.reads <= d.computes + 1e-6);
                // read transfers x child size == reads
                prop_assert!(
                    (e1.read_transfers * e1.child_tile_size - e1.reads).abs() < 1e-6
                );
            }
        }
        // outputs: updates at the outermost level >= distinct outputs
        for t in e.outputs() {
            if let Some(e0) = d.get(t, 0) {
                let size: f64 = e.tensor_shape(t).iter().product::<u64>() as f64;
                prop_assert!(e0.updates >= size - 1e-6);
                // refetch reads = updates - distinct
                prop_assert!((e0.reads - (e0.updates - size).max(0.0)).abs() < 1e-6);
            }
        }
    }

    /// Sparse breakdowns conserve dense totals and respect monotonicity
    /// in density for skipping designs.
    #[test]
    fn sparse_breakdown_invariants(
        m in 1u64..8, n in 1u64..8, k in 1u64..8,
        da_pct in 0u64..=100,
        pick in 0usize..10,
    ) {
        let e = Einsum::matmul(m, n, k);
        let a = e.tensor_id("A").unwrap();
        let b = e.tensor_id("B").unwrap();
        let w = Workload::new(
            e.clone(),
            vec![
                DensityModelSpec::Uniform { density: da_pct as f64 / 100.0 },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let arch = arch2();
        let space = Mapspace::all_temporal(&e, &arch);
        let maps = space.enumerate(10);
        let mapping = &maps[pick % maps.len()];
        let d = dataflow::analyze(&e, mapping);
        let safs = SafSpec::dense()
            .with_skip(1, a, vec![a])
            .with_skip(1, b, vec![a])
            .with_skip_compute();
        let s = sparse::analyze(&w, &d, &safs);
        // compute classes partition the dense computes
        let c = s.compute.ops;
        prop_assert!((c.total() - d.computes).abs() < 1e-6);
        prop_assert!(c.actual >= -1e-9 && c.gated >= -1e-9 && c.skipped >= -1e-9);
        // entries where no upstream elimination applies conserve exactly
        for entry in &s.entries {
            if e.tensor(entry.tensor).kind == TensorKind::Input {
                let de = d.get(entry.tensor, entry.level).unwrap();
                prop_assert!(entry.reads.total() <= de.reads + 1e-6);
            }
        }
    }

    /// Compute survival under a self-skip equals the operand density
    /// exactly (element granularity) for every mapping.
    #[test]
    fn self_skip_survival_exact(
        m in 1u64..8, n in 1u64..8, k in 1u64..8,
        da_pct in 0u64..=100,
        pick in 0usize..10,
    ) {
        let e = Einsum::matmul(m, n, k);
        let a = e.tensor_id("A").unwrap();
        let w = Workload::new(
            e.clone(),
            vec![
                DensityModelSpec::Uniform { density: da_pct as f64 / 100.0 },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let arch = arch2();
        let space = Mapspace::all_temporal(&e, &arch);
        let maps = space.enumerate(10);
        let mapping = &maps[pick % maps.len()];
        let d = dataflow::analyze(&e, mapping);
        let safs = SafSpec::dense().with_skip(1, a, vec![a]).with_skip_compute();
        let s = sparse::analyze(&w, &d, &safs);
        let d_a = w.tensor_density(a);
        prop_assert!(
            (s.compute.ops.actual - d.computes * d_a).abs() < 1e-6,
            "survival {} vs density {}",
            s.compute.ops.actual / d.computes,
            d_a
        );
    }

    /// Gating never changes cycle-consuming op counts; skipping never
    /// increases them.
    #[test]
    fn gate_vs_skip_cycle_semantics(
        m in 2u64..8, n in 2u64..8, k in 2u64..8,
        da_pct in 0u64..=100,
    ) {
        let e = Einsum::matmul(m, n, k);
        let a = e.tensor_id("A").unwrap();
        let w = Workload::new(
            e.clone(),
            vec![
                DensityModelSpec::Uniform { density: da_pct as f64 / 100.0 },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let arch = arch2();
        let space = Mapspace::all_temporal(&e, &arch);
        let mapping = &space.enumerate(1)[0];
        let d = dataflow::analyze(&e, mapping);
        let gate = sparse::analyze(&w, &d, &SafSpec::dense().with_gate(1, a, vec![a]).with_gate_compute());
        let skip = sparse::analyze(&w, &d, &SafSpec::dense().with_skip(1, a, vec![a]).with_skip_compute());
        let none = sparse::analyze(&w, &d, &SafSpec::dense());
        prop_assert!((gate.compute.ops.cycle_consuming() - none.compute.ops.cycle_consuming()).abs() < 1e-6);
        prop_assert!(skip.compute.ops.cycle_consuming() <= none.compute.ops.cycle_consuming() + 1e-6);
        // energy-relevant actual ops: gate <= none
        prop_assert!(gate.compute.ops.actual <= none.compute.ops.actual + 1e-6);
    }

    /// The cheap capacity precheck agrees with the full pipeline exactly:
    /// a mapping is precheck-rejected if and only if `evaluate` reports
    /// `CapacityExceeded` — across dimensions, densities, capacities,
    /// compressed and uncompressed designs, and both capacity modes.
    #[test]
    fn precheck_matches_capacity_errors(
        m in 1u64..10, n in 1u64..10, k in 1u64..10,
        da_pct in 5u64..=100,
        capacity in 2u64..200,
        compressed in 0u64..2,
        worst_case in 0u64..2,
    ) {
        let e = Einsum::matmul(m, n, k);
        let a = e.tensor_id("A").unwrap();
        let w = Workload::new(
            e.clone(),
            vec![
                DensityModelSpec::Uniform { density: da_pct as f64 / 100.0 },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("L0"))
            .level(StorageLevel::new("L1").with_capacity(capacity))
            .compute(ComputeSpec::new("MAC", 1))
            .build()
            .unwrap();
        let mut safs = SafSpec::dense();
        if compressed == 1 {
            safs = safs.with_format(1, a, sparseloop_format::TensorFormat::coo(2));
        }
        let mut model = Model::new(w, arch.clone(), safs);
        if worst_case == 1 {
            model = model.with_worst_case_capacity();
        }
        let space = Mapspace::all_temporal(&e, &arch);
        for mapping in space.iter_enumerate(60) {
            let rejected = !model.precheck(&mapping);
            let capacity_error = matches!(
                model.evaluate(&mapping),
                Err(EvalError::CapacityExceeded { .. })
            );
            prop_assert_eq!(
                rejected,
                capacity_error,
                "precheck {} but evaluate capacity-error {} for {:?}",
                rejected, capacity_error, mapping
            );
        }
    }

    /// The incremental worker pipeline (scratch arenas + prefix
    /// caching) scores every candidate bit-identically to the stateless
    /// from-scratch pipeline: same precheck verdicts and same metric for
    /// every candidate of the delta stream, driven with the stream's
    /// reported change depths.
    #[test]
    fn incremental_scoring_matches_from_scratch_per_candidate(
        m in 1u64..12, n in 1u64..12, k in 1u64..12,
        da_pct in 5u64..=100,
        capacity in 4u64..400,
        spatial in 0u64..2,
        compressed in 0u64..2,
    ) {
        let e = Einsum::matmul(m, n, k);
        let a = e.tensor_id("A").unwrap();
        let w = Workload::new(
            e.clone(),
            vec![
                DensityModelSpec::Uniform { density: da_pct as f64 / 100.0 },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("L0"))
            .level(StorageLevel::new("L1").with_capacity(capacity))
            .compute(ComputeSpec::new("MAC", 4))
            .build()
            .unwrap();
        let mut safs = SafSpec::dense().with_skip(1, a, vec![a]);
        if compressed == 1 {
            safs = safs.with_format(1, a, sparseloop_format::TensorFormat::coo(2));
        }
        let model = Model::new(w, arch.clone(), safs);
        let mut space = Mapspace::all_temporal(&e, &arch);
        if spatial == 1 {
            space = space.with_spatial_dims(1, vec![DimId(1)]);
        }
        let evaluator = model.evaluator(Objective::Edp);
        let mut worker = evaluator.worker();
        for (depth, mapping) in
            (Mapper::Exhaustive { limit: 300 }).delta_candidates(&space)
        {
            let pre_inc = worker.precheck(&mapping, depth);
            let pre_ref = model.precheck(&mapping);
            prop_assert_eq!(pre_inc, pre_ref, "precheck diverged for {:?}", mapping);
            if !pre_inc {
                continue;
            }
            let metric_inc = worker.evaluate(&mapping, depth);
            let metric_ref = model
                .evaluate(&mapping)
                .ok()
                .map(|ev| ev.metric(Objective::Edp));
            prop_assert_eq!(metric_inc, metric_ref, "metric diverged for {:?}", mapping);
        }
    }

    /// The public scratch-reuse entry points (no prefix assumptions)
    /// match the allocating pipeline bit-for-bit across a stream of
    /// candidates through one reused arena.
    #[test]
    fn scratch_entry_points_match_evaluate(
        m in 1u64..10, n in 1u64..10, k in 1u64..10,
        da_pct in 5u64..=100,
        capacity in 4u64..200,
    ) {
        let e = Einsum::matmul(m, n, k);
        let w = Workload::new(
            e.clone(),
            vec![
                DensityModelSpec::Uniform { density: da_pct as f64 / 100.0 },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("L0"))
            .level(StorageLevel::new("L1").with_capacity(capacity))
            .compute(ComputeSpec::new("MAC", 1))
            .build()
            .unwrap();
        let model = Model::new(w, arch.clone(), SafSpec::dense());
        let space = Mapspace::all_temporal(&e, &arch);
        let mut scratch = EvalScratch::new();
        for mapping in space.iter_enumerate(80) {
            prop_assert_eq!(
                model.precheck_with(&mapping, &mut scratch),
                model.precheck(&mapping)
            );
            let via_scratch =
                model.evaluate_metric_with(&mapping, Objective::Edp, &mut scratch);
            let via_eval = model
                .evaluate(&mapping)
                .ok()
                .map(|ev| ev.metric(Objective::Edp));
            prop_assert_eq!(via_scratch, via_eval);
        }
    }

    /// Search winners, their full `Evaluation`s, and `SearchStats` are
    /// bit-identical between the incremental pipeline and the
    /// from-scratch reference — sequentially and at 1/2/3/4 shards, for
    /// exhaustive and hybrid strategies over random mapspaces.
    #[test]
    fn incremental_search_parity_across_threads_and_shards(
        m in 1u64..10, n in 1u64..10, k in 1u64..10,
        da_pct in 10u64..=100,
        capacity in 8u64..300,
        hybrid in 0u64..2,
    ) {
        let e = Einsum::matmul(m, n, k);
        let w = Workload::new(
            e.clone(),
            vec![
                DensityModelSpec::Uniform { density: da_pct as f64 / 100.0 },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("L0"))
            .level(StorageLevel::new("L1").with_capacity(capacity))
            .compute(ComputeSpec::new("MAC", 2))
            .build()
            .unwrap();
        let model = Model::new(w, arch.clone(), SafSpec::dense());
        let space = Mapspace::all_temporal(&e, &arch).with_spatial_dims(1, vec![DimId(0)]);
        let mapper = if hybrid == 1 {
            Mapper::Hybrid {
                enumerate: 120,
                samples: 60,
                seed: 11,
            }
        } else {
            Mapper::Exhaustive { limit: 250 }
        };
        // reference: the stateless from-scratch pipeline, sequential
        let (reference, ref_stats) = mapper.search_sharded_counted(
            &space,
            &model.evaluator_from_scratch(Objective::Edp),
            1,
        );
        let check = |got: Option<(sparseloop_mapping::Mapping, sparseloop_core::Evaluation)>,
                     stats: sparseloop_mapping::SearchStats,
                     label: &str|
         -> Result<(), TestCaseError> {
            prop_assert_eq!(stats, ref_stats, "stats diverged: {}", label);
            match (&got, &reference) {
                (None, None) => {}
                (Some((gm, ge)), Some(r)) => {
                    prop_assert_eq!(gm, &r.mapping, "winner diverged: {}", label);
                    let re = model.evaluate(&r.mapping).expect("winner re-evaluates");
                    prop_assert_eq!(ge.edp, re.edp, "edp diverged: {}", label);
                    prop_assert_eq!(ge.cycles, re.cycles, "cycles diverged: {}", label);
                    prop_assert_eq!(ge.energy_pj, re.energy_pj, "energy diverged: {}", label);
                    prop_assert_eq!(
                        ge.utilization, re.utilization,
                        "utilization diverged: {}", label
                    );
                }
                _ => prop_assert!(false, "winner presence diverged: {}", label),
            }
            Ok(())
        };
        for shards in [1usize, 2, 3, 4] {
            let (got, stats) =
                model.search_sharded_counted(&space, mapper, Objective::Edp, shards);
            check(got, stats, &format!("shards={shards}"))?;
        }
    }

    /// Parallel and sequential model search agree bit-for-bit on the
    /// all-temporal matmul mapspace, for every shard count.
    #[test]
    fn parallel_search_parity(
        m in 1u64..8, n in 1u64..8, k in 1u64..8,
        da_pct in 10u64..=100,
        shards in 2usize..5,
    ) {
        let e = Einsum::matmul(m, n, k);
        let w = Workload::new(
            e.clone(),
            vec![
                DensityModelSpec::Uniform { density: da_pct as f64 / 100.0 },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("L0"))
            .level(StorageLevel::new("L1").with_capacity(64))
            .compute(ComputeSpec::new("MAC", 1))
            .build()
            .unwrap();
        let model = Model::new(w, arch.clone(), SafSpec::dense());
        let space = Mapspace::all_temporal(&e, &arch);
        let mapper = Mapper::Exhaustive { limit: 500 };
        let (seq, ss) = model.search_sharded_counted(&space, mapper, Objective::Edp, 1);
        let (par, ps) = model.search_sharded_counted(&space, mapper, Objective::Edp, shards);
        match (seq, par) {
            (None, None) => {
                prop_assert_eq!(ss, ps, "stats must agree");
            }
            (Some((sm, se)), Some((pm, pe))) => {
                prop_assert_eq!(&sm, &pm, "winning mappings must be identical");
                prop_assert_eq!(se.edp, pe.edp, "objective must be bit-identical");
                prop_assert_eq!(ss, ps, "stats must agree");
            }
            (s, p) => {
                prop_assert!(false, "one path found a mapping, the other did not: seq={} par={}", s.is_some(), p.is_some());
            }
        }
    }
}
