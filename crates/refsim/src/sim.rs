//! The event-count simulator.

use sparseloop_arch::Architecture;
use sparseloop_core::dataflow::{self, DenseTraffic};
use sparseloop_core::saf::{ActionOpt, SafSpec};
use sparseloop_energy::EnergyTable;
use sparseloop_mapping::Mapping;
use sparseloop_tensor::einsum::{Einsum, TensorId, TensorKind};
use sparseloop_tensor::SparseTensor;
use std::collections::HashMap;

/// Counted actions of one tensor at one storage level.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimLevelCounts {
    /// Words actually read (serving the level below).
    pub reads_actual: f64,
    /// Words whose access was gated (cycles, no data energy).
    pub reads_gated: f64,
    /// Words whose access was skipped entirely.
    pub reads_skipped: f64,
    /// Words written into this level from below (output updates).
    pub updates_actual: f64,
    /// Updates eliminated by SAFs.
    pub updates_eliminated: f64,
    /// Words filled into this level from its parent (the receive side of
    /// the parent's reads; kept so cycle accounting matches the
    /// analytical model's read+fill semantics).
    pub fills_actual: f64,
    /// Output words drained from this level toward the parent.
    pub drains_actual: f64,
    /// Metadata bits moved.
    pub metadata_bits: f64,
}

impl SimLevelCounts {
    /// Total dense-equivalent read words.
    pub fn reads_total(&self) -> f64 {
        self.reads_actual + self.reads_gated + self.reads_skipped
    }
}

/// Full simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Per-(tensor, level) counters.
    pub levels: HashMap<(usize, usize), SimLevelCounts>,
    /// Computes that executed.
    pub computes_actual: f64,
    /// Computes gated (cycle spent, unit idle).
    pub computes_gated: f64,
    /// Computes skipped (no cycle).
    pub computes_skipped: f64,
    /// Iteration-space points walked (the simulator's work, for CPHC).
    pub points_walked: u64,
    /// Latency in cycles under the shared micro-architectural semantics.
    pub cycles: f64,
    /// Energy in picojoules under the shared energy table.
    pub energy_pj: f64,
}

impl SimResult {
    /// Counter lookup for `(tensor, level)`.
    pub fn level(&self, t: TensorId, level: usize) -> SimLevelCounts {
        self.levels.get(&(t.0, level)).copied().unwrap_or_default()
    }

    /// Total computes of all classes.
    pub fn computes_total(&self) -> f64 {
        self.computes_actual + self.computes_gated + self.computes_skipped
    }
}

/// Per-boundary simulation state.
struct Boundary {
    tensor: usize,
    level: usize,
    /// Index of this boundary within the tensor's chain (0 = outermost).
    chain_idx: usize,
    /// Per-dim block bounds of the transferred (child) tile.
    child_bounds: Vec<u64>,
    /// Per-dim block bounds of the reuse region (for leader windows).
    reuse_bounds: Vec<u64>,
    /// Last child-tile coordinate (per relevant dim), or None initially.
    last_tile: Option<Vec<u64>>,
    /// Whether the currently-resident tile was suppressed by skipping.
    suppressed: bool,
}

/// The reference simulator.
///
/// Construct with concrete tensors matching the workload's Einsum, then
/// call [`RefSim::run`].
pub struct RefSim<'a> {
    einsum: &'a Einsum,
    arch: &'a Architecture,
    mapping: &'a Mapping,
    safs: &'a SafSpec,
    tensors: &'a [SparseTensor],
    energy: EnergyTable,
}

impl<'a> RefSim<'a> {
    /// Creates a simulator instance.
    ///
    /// # Panics
    /// Panics if `tensors.len()` differs from the Einsum's tensor count
    /// or an input tensor's shape disagrees with the workload bounds.
    pub fn new(
        einsum: &'a Einsum,
        arch: &'a Architecture,
        mapping: &'a Mapping,
        safs: &'a SafSpec,
        tensors: &'a [SparseTensor],
    ) -> Self {
        assert_eq!(
            tensors.len(),
            einsum.tensors().len(),
            "one concrete tensor per workload tensor"
        );
        for (i, spec) in einsum.tensors().iter().enumerate() {
            if spec.kind == TensorKind::Input {
                let expect = einsum.tensor_shape(TensorId(i));
                assert_eq!(
                    tensors[i].shape().extents(),
                    &expect[..],
                    "tensor {} shape mismatch",
                    spec.name
                );
            }
        }
        RefSim {
            einsum,
            arch,
            mapping,
            safs,
            tensors,
            energy: EnergyTable::default_45nm(),
        }
    }

    /// Projects the block containing iteration values `vals`, at block
    /// granularity `bounds`, onto tensor `t`: returns `(origin, extent)`
    /// per rank.
    fn window(&self, t: TensorId, vals: &[u64], bounds: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let spec = self.einsum.tensor(t);
        let start: Vec<u64> = vals
            .iter()
            .zip(bounds)
            .map(|(&v, &b)| (v / b) * b)
            .collect();
        let origin: Vec<u64> = spec.ranks.iter().map(|r| r.eval(&start)).collect();
        let extent: Vec<u64> = spec.ranks.iter().map(|r| r.extent(bounds)).collect();
        (origin, extent)
    }

    /// Whether tensor `l`'s actual data is empty over the reuse window.
    fn leader_empty(&self, l: TensorId, vals: &[u64], bounds: &[u64]) -> bool {
        let (origin, extent) = self.window(l, vals, bounds);
        if origin.is_empty() {
            return false; // scalar leader: treat as non-empty
        }
        self.tensors[l.0].window_nnz(&origin, &extent) == 0
    }

    /// Runs the simulation.
    pub fn run(&self) -> SimResult {
        // Reuse the dense analysis only for geometry (tile/reuse bounds);
        // all sparsity decisions below use actual data.
        let dense: DenseTraffic = dataflow::analyze(self.einsum, self.mapping);
        let flat = self.mapping.flattened();
        let num_dims = self.einsum.dims().len();

        // Per-loop stride per dim so we can maintain iteration values.
        let mut strides = vec![0u64; flat.len()];
        {
            let mut seen: Vec<u64> = vec![1; num_dims];
            for (i, (_, lp)) in flat.iter().enumerate().rev() {
                strides[i] = seen[lp.dim.0];
                seen[lp.dim.0] *= lp.bound;
            }
        }

        // Build boundaries per tensor chain.
        let mut boundaries: Vec<Boundary> = Vec::new();
        for (ti, _) in self.einsum.tensors().iter().enumerate() {
            let t = TensorId(ti);
            let chain = self.mapping.storage_chain(t);
            for (ci, &lvl) in chain.iter().enumerate() {
                let de = dense.get(t, lvl).expect("dense entry exists");
                // child bounds per dim: reconstruct from the dense entry
                let child_bounds = if ci + 1 < chain.len() {
                    // bounds inside the next chain level's nest
                    let pos: usize = self.mapping.nests()[..chain[ci + 1]]
                        .iter()
                        .map(|n| n.len())
                        .sum();
                    self.mapping.tile_bounds_inside(pos, num_dims)
                } else {
                    vec![1u64; num_dims]
                };
                boundaries.push(Boundary {
                    tensor: ti,
                    level: lvl,
                    chain_idx: ci,
                    child_bounds,
                    reuse_bounds: de.reuse_bounds.clone(),
                    last_tile: None,
                    suppressed: false,
                });
            }
        }

        let mut counts: HashMap<(usize, usize), SimLevelCounts> = HashMap::new();
        let mut computes_actual = 0.0f64;
        let mut computes_gated = 0.0f64;
        let mut computes_skipped = 0.0f64;

        // Odometer over the flattened loops.
        let mut idx = vec![0u64; flat.len()];
        let mut vals = vec![0u64; num_dims];
        let total_points: u64 = self.einsum.num_computes();
        let inputs = self.einsum.inputs();
        let outputs = self.einsum.outputs();

        // Per-input suppression/gating flags refreshed per point from the
        // tensor's boundary states.
        for _point in 0..total_points {
            // --- transfer events ---------------------------------------
            for b in 0..boundaries.len() {
                let (ti, lvl, ci) = {
                    let bd = &boundaries[b];
                    (bd.tensor, bd.level, bd.chain_idx)
                };
                let t = TensorId(ti);
                // Tile identity is the *projected* window origin: loops
                // over irrelevant dims leave the data stationary.
                let (tile_origin, _) = self.window(t, &vals, &boundaries[b].child_bounds);
                if boundaries[b].last_tile.as_ref() == Some(&tile_origin) {
                    continue;
                }
                let tile = tile_origin;
                // outer suppression: if the enclosing chain boundary's
                // resident tile was skipped, this transfer never happens
                let outer_suppressed = ci > 0
                    && boundaries
                        .iter()
                        .any(|ob| ob.tensor == ti && ob.chain_idx + 1 == ci && ob.suppressed);
                let (origin, extent) = self.window(t, &vals, &boundaries[b].child_bounds.clone());
                let dense_words: u64 = extent.iter().product::<u64>().max(1);
                let nnz = if origin.is_empty() {
                    1
                } else {
                    self.tensors[ti].window_nnz(&origin, &extent)
                };

                let mut skipped = outer_suppressed;
                let mut gated = false;
                let mut self_skip = false;
                let mut self_gate = false;
                if !skipped {
                    for saf in self.safs.intersections_at(lvl, t) {
                        let cross: Vec<TensorId> =
                            saf.leaders.iter().copied().filter(|&l| l != t).collect();
                        if cross.len() < saf.leaders.len() {
                            match saf.action {
                                ActionOpt::Skip => self_skip = true,
                                ActionOpt::Gate => self_gate = true,
                            }
                        }
                        if !cross.is_empty() {
                            let any_empty = cross
                                .iter()
                                .any(|&l| self.leader_empty(l, &vals, &boundaries[b].reuse_bounds));
                            if any_empty {
                                match saf.action {
                                    ActionOpt::Skip => skipped = true,
                                    ActionOpt::Gate => gated = true,
                                }
                            }
                        }
                    }
                }

                let compressed = self
                    .safs
                    .format_at(lvl, t)
                    .map(|f| f.is_compressed())
                    .unwrap_or(false);

                // the storage level below (if any) receives the transfer
                let child_lvl: Option<usize> = boundaries
                    .iter()
                    .find(|ob| ob.tensor == ti && ob.chain_idx == ci + 1)
                    .map(|ob| ob.level);
                let c = counts.entry((ti, lvl)).or_default();
                let is_output = self.einsum.tensor(t).kind == TensorKind::Output;
                if skipped {
                    if is_output {
                        c.updates_eliminated += dense_words as f64;
                    } else {
                        c.reads_skipped += dense_words as f64;
                    }
                } else if gated {
                    if is_output {
                        c.updates_eliminated += dense_words as f64;
                    } else {
                        c.reads_gated += dense_words as f64;
                    }
                } else {
                    // zero words: removed by compression (skip), gated by
                    // self-gate, or ordinary reads otherwise
                    let zeros = (dense_words - nnz) as f64;
                    let (z_actual, z_gated, z_skipped) = if self_skip || compressed {
                        (0.0, 0.0, zeros)
                    } else if self_gate {
                        (0.0, zeros, 0.0)
                    } else {
                        (zeros, 0.0, 0.0)
                    };
                    if is_output {
                        c.updates_actual += nnz as f64 + z_actual + z_gated;
                    } else {
                        c.reads_actual += nnz as f64 + z_actual;
                        c.reads_gated += z_gated;
                        c.reads_skipped += z_skipped;
                    }
                    if compressed {
                        // metadata: coordinate-style cost per nonzero
                        let bits: u32 = extent
                            .iter()
                            .map(|&e| {
                                if e <= 1 {
                                    1
                                } else {
                                    64 - (e - 1).leading_zeros()
                                }
                            })
                            .sum();
                        c.metadata_bits += nnz as f64 * bits.max(1) as f64;
                    }
                    // receive side at the child storage level
                    let moved = if self_skip || compressed {
                        nnz as f64
                    } else {
                        dense_words as f64
                    };
                    if let Some(cl) = child_lvl {
                        let cc = counts.entry((ti, cl)).or_default();
                        if is_output {
                            cc.drains_actual += moved;
                        } else {
                            cc.fills_actual += moved;
                        }
                    }
                }
                let bd = &mut boundaries[b];
                bd.last_tile = Some(tile);
                bd.suppressed = skipped;
            }

            // --- compute event ------------------------------------------
            let mut op_suppressed = false;
            let mut op_gated = false;
            let mut any_zero = false;
            for &t in &inputs {
                let p = self.einsum.project(t, &vals);
                let nonzero = self.tensors[t.0].is_nonzero(&p);
                if !nonzero {
                    any_zero = true;
                }
                // operand delivery state from its innermost boundary
                for bd in &boundaries {
                    if bd.tensor == t.0 && bd.suppressed {
                        op_suppressed = true;
                    }
                }
                // self SAFs at any level act on the operand's own zeros
                if !nonzero {
                    for saf in &self.safs.intersections {
                        if saf.target == t && saf.leaders.contains(&t) {
                            match saf.action {
                                ActionOpt::Skip => op_suppressed = true,
                                ActionOpt::Gate => op_gated = true,
                            }
                        }
                    }
                    // compression streams only nonzeros past the level
                    let any_compressed = (0..self.arch.num_levels()).any(|l| {
                        self.safs
                            .format_at(l, t)
                            .map(|f| f.is_compressed())
                            .unwrap_or(false)
                    });
                    let any_self_skip_semantics = any_compressed
                        && self.safs.intersections.iter().any(|s| {
                            s.target == t && s.leaders.contains(&t) && s.action == ActionOpt::Skip
                        });
                    if any_self_skip_semantics {
                        op_suppressed = true;
                    }
                }
            }
            if op_suppressed {
                computes_skipped += 1.0;
            } else if op_gated {
                computes_gated += 1.0;
            } else if any_zero {
                match self.safs.compute.map(|c| c.action) {
                    Some(ActionOpt::Gate) => computes_gated += 1.0,
                    Some(ActionOpt::Skip) => computes_skipped += 1.0,
                    None => computes_actual += 1.0,
                }
            } else {
                computes_actual += 1.0;
            }
            let _ = &outputs;

            // --- advance odometer ---------------------------------------
            let mut i = flat.len();
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                let (_, lp) = flat[i];
                idx[i] += 1;
                vals[lp.dim.0] += strides[i];
                if idx[i] < lp.bound {
                    break;
                }
                vals[lp.dim.0] -= idx[i] * strides[i];
                idx[i] = 0;
            }
        }

        // --- cycles & energy under shared uarch semantics ----------------
        let (cycles, energy_pj) = self.cost(&counts, computes_actual, computes_gated);

        SimResult {
            levels: counts,
            computes_actual,
            computes_gated,
            computes_skipped,
            points_walked: total_points,
            cycles,
            energy_pj,
        }
    }

    fn cost(
        &self,
        counts: &HashMap<(usize, usize), SimLevelCounts>,
        computes_actual: f64,
        computes_gated: f64,
    ) -> (f64, f64) {
        let mut energy = 0.0f64;
        let mut max_level_cycles = 0.0f64;
        for (l, spec) in self.arch.levels().iter().enumerate() {
            let act = self.energy.storage(spec);
            let mut words = 0.0;
            let mut meta_bits = 0.0;
            for ((_, lvl), c) in counts {
                if *lvl != l {
                    continue;
                }
                words += c.reads_actual
                    + c.reads_gated
                    + c.updates_actual
                    + c.fills_actual
                    + c.drains_actual;
                meta_bits += c.metadata_bits;
                energy += (c.reads_actual + c.drains_actual) * act.read
                    + (c.updates_actual + c.fills_actual) * act.write
                    + c.reads_gated * act.gated
                    + act.metadata(c.metadata_bits);
            }
            if let Some(bw) = spec.bandwidth_words_per_cycle {
                let cyc =
                    (words + meta_bits / spec.word_bits as f64) / (bw * spec.instances as f64);
                max_level_cycles = max_level_cycles.max(cyc);
            }
        }
        let ce = self.energy.compute(self.arch.compute());
        energy += computes_actual * ce.mac + computes_gated * ce.gated;
        let parallelism = self.mapping.total_spatial_fanout().max(1) as f64;
        let compute_cycles = (computes_actual + computes_gated) / parallelism;
        (compute_cycles.max(max_level_cycles).max(1.0), energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sparseloop_arch::{ArchitectureBuilder, ComponentClass, ComputeSpec, StorageLevel};
    use sparseloop_core::{sparse, uarch, Workload};
    use sparseloop_density::{ActualData, DensityModelSpec};
    use sparseloop_mapping::MappingBuilder;
    use sparseloop_tensor::einsum::DimId;
    use sparseloop_tensor::point::Shape;
    use std::sync::Arc;

    fn arch() -> Architecture {
        ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM").with_class(ComponentClass::Dram))
            .level(StorageLevel::new("Buffer").with_capacity(65536))
            .compute(ComputeSpec::new("MAC", 1))
            .build()
            .unwrap()
    }

    fn matmul_setup(da: f64, seed: u64) -> (Einsum, Mapping, Vec<SparseTensor>) {
        let e = Einsum::matmul(8, 8, 8);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let map = MappingBuilder::new(2, 3)
            .temporal(0, m, 8)
            .temporal(1, n, 8)
            .temporal(1, k, 8)
            .build();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = SparseTensor::gen_uniform(Shape::new(vec![8, 8]), da, &mut rng);
        let b = SparseTensor::dense_ones(Shape::new(vec![8, 8]));
        let z = SparseTensor::from_triplets(Shape::new(vec![8, 8]), &[]);
        (e, map, vec![a, b, z])
    }

    #[test]
    fn dense_counts_match_analytical_exactly() {
        let (e, map, tensors) = matmul_setup(1.0, 1);
        let a = arch();
        let safs = SafSpec::dense();
        let sim = RefSim::new(&e, &a, &map, &safs, &tensors);
        let r = sim.run();
        let d = dataflow::analyze(&e, &map);
        for ti in 0..3 {
            let t = TensorId(ti);
            for lvl in 0..2 {
                if let Some(de) = d.get(t, lvl) {
                    let sc = r.level(t, lvl);
                    let sim_total = if e.tensor(t).kind == TensorKind::Output {
                        sc.updates_actual + sc.updates_eliminated
                    } else {
                        sc.reads_total()
                    };
                    let ana_total = if e.tensor(t).kind == TensorKind::Output {
                        de.updates
                    } else {
                        de.reads
                    };
                    assert!(
                        (sim_total - ana_total).abs() < 1e-6,
                        "tensor {ti} level {lvl}: sim {sim_total} vs dense {ana_total}"
                    );
                }
            }
        }
        assert_eq!(r.computes_actual, 512.0);
    }

    #[test]
    fn statistical_model_matches_sim_on_uniform_data() {
        // The core claim behind Fig 11: statistical counts track actual
        // counts closely on uniformly distributed data.
        let (e, map, tensors) = matmul_setup(0.25, 7);
        let a = arch();
        let a_id = e.tensor_id("A").unwrap();
        let safs = SafSpec::dense()
            .with_skip(1, a_id, vec![a_id])
            .with_skip_compute();
        let sim = RefSim::new(&e, &a, &map, &safs, &tensors);
        let r = sim.run();

        // analytical with the ACTUAL data as density model: exact match
        let w = Workload::with_models(
            e.clone(),
            vec![
                Arc::new(ActualData::new(tensors[0].clone())),
                Arc::new(ActualData::new(tensors[1].clone())),
                Arc::new(ActualData::new(tensors[2].clone())),
            ],
        );
        let d = dataflow::analyze(&e, &map);
        let s = sparse::analyze(&w, &d, &safs);
        let rel = (r.computes_actual - s.compute.ops.actual).abs() / r.computes_actual.max(1.0);
        assert!(rel < 0.05, "actual-data model within 5%: {rel}");

        // analytical with the uniform statistical model: small error
        let w2 = Workload::new(
            e.clone(),
            vec![
                DensityModelSpec::Uniform {
                    density: tensors[0].density(),
                },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let s2 = sparse::analyze(&w2, &d, &safs);
        let rel2 = (r.computes_actual - s2.compute.ops.actual).abs() / r.computes_actual.max(1.0);
        assert!(rel2 < 0.05, "uniform model within 5%: {rel2}");
    }

    #[test]
    fn leader_skip_counts_real_windows() {
        let (e, map, tensors) = matmul_setup(0.25, 3);
        let arch = arch();
        let a_id = e.tensor_id("A").unwrap();
        let b_id = e.tensor_id("B").unwrap();
        let safs = SafSpec::dense().with_skip(1, b_id, vec![a_id]);
        let sim = RefSim::new(&e, &arch, &map, &safs, &tensors);
        let r = sim.run();
        let bc = r.level(b_id, 1);
        // B reads skipped exactly where A elements are zero: fraction
        // equals 1 - density(A) exactly (uniform generator is exact).
        let frac = bc.reads_skipped / bc.reads_total();
        assert!((frac - (1.0 - tensors[0].density())).abs() < 1e-9);
    }

    #[test]
    fn gating_keeps_cycles_in_sim() {
        let (e, map, tensors) = matmul_setup(0.25, 9);
        let arch = arch();
        let a_id = e.tensor_id("A").unwrap();
        let gate = SafSpec::dense()
            .with_gate(1, a_id, vec![a_id])
            .with_gate_compute();
        let skip = SafSpec::dense()
            .with_skip(1, a_id, vec![a_id])
            .with_skip_compute();
        let g = RefSim::new(&e, &arch, &map, &gate, &tensors).run();
        let s = RefSim::new(&e, &arch, &map, &skip, &tensors).run();
        assert!(s.cycles < g.cycles);
        assert!(g.computes_gated > 0.0);
        assert_eq!(g.computes_skipped, 0.0);
    }

    #[test]
    fn uarch_report_comparison_runs() {
        let (e, map, tensors) = matmul_setup(0.5, 5);
        let arch = arch();
        let safs = SafSpec::dense();
        let w = Workload::new(
            e.clone(),
            vec![
                DensityModelSpec::Uniform { density: 0.5 },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let d = dataflow::analyze(&e, &map);
        let sp = sparse::analyze(&w, &d, &safs);
        let report = uarch::analyze(
            &arch,
            &sp,
            &EnergyTable::default_45nm(),
            uarch::CapacityMode::Expected,
        );
        let sim = RefSim::new(&e, &arch, &map, &safs, &tensors);
        assert!(sim.run().cycles > 0.0 && report.cycles > 0.0);
    }
}
