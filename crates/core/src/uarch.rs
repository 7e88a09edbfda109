//! Step 3: micro-architecture modeling (paper §5.4).
//!
//! Consumes the sparse traffic and produces the final metrics:
//!
//! * **Validity** — a mapping is valid only if each level's resident
//!   tiles (payload words plus metadata, statistically or worst-case
//!   sized) fit its capacity.
//! * **Processing speed** — cycles are spent by actual *and gated*
//!   storage accesses and computes; skipped ones cost nothing. Each
//!   level's available bandwidth throttles the whole pipeline (the
//!   mechanism behind the STC SMEM-bandwidth bottleneck in §7.1.3).
//! * **Energy** — per-action energies from the Accelergy-style backend
//!   multiplied by the fine-grained action counts.

use crate::sparse::SparseTraffic;
use sparseloop_arch::Architecture;
use sparseloop_energy::EnergyTable;

/// How capacity validity treats statistical occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CapacityMode {
    /// Tiles must fit in expectation (the paper's default: mappings are
    /// sized for the average case).
    #[default]
    Expected,
    /// Tiles must fit even at worst-case occupancy.
    WorstCase,
}

/// Per-storage-level cost summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LevelCost {
    /// Level name.
    pub name: String,
    /// Cycle-consuming data words moved (actual + gated).
    pub cycle_words: f64,
    /// Metadata bits moved.
    pub metadata_bits: f64,
    /// Cycles this level needs given its bandwidth.
    pub cycles: f64,
    /// Dynamic energy in picojoules.
    pub energy_pj: f64,
    /// Expected resident payload words (capacity check input).
    pub occupancy_words: f64,
    /// Expected resident metadata bits.
    pub occupancy_metadata_bits: f64,
}

/// Full micro-architectural report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UarchReport {
    /// Per-level costs, outermost first.
    pub levels: Vec<LevelCost>,
    /// Cycles the compute array needs.
    pub compute_cycles: f64,
    /// Compute energy in picojoules.
    pub compute_energy_pj: f64,
    /// Overall latency in cycles: max over compute and every level
    /// (bandwidth throttling).
    pub cycles: f64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Whether every level's tiles fit.
    pub valid: bool,
    /// Name of the first level that overflowed, if any.
    pub overflow_level: Option<String>,
}

impl UarchReport {
    /// Energy-delay product (pJ × cycles).
    pub fn edp(&self) -> f64 {
        self.energy_pj * self.cycles
    }
}

/// Whether a tile of `occupancy_words` payload plus
/// `occupancy_metadata_bits` of metadata fits storage level `spec`:
/// metadata goes to the dedicated metadata store when one exists,
/// otherwise shares the data capacity as word equivalents; the remainder
/// is divided across the level's instances. Levels without a stated
/// capacity always fit.
///
/// This is the single source of truth for capacity validity — shared by
/// [`analyze`] and the mapper's cheap pre-pass
/// (`Model::precheck`), which guarantees the pre-pass prunes exactly the
/// mappings the full pipeline would reject as `CapacityExceeded`.
pub fn level_fits(
    spec: &sparseloop_arch::StorageLevel,
    occupancy_words: f64,
    occupancy_metadata_bits: f64,
) -> bool {
    let Some(capacity) = spec.capacity_words else {
        return true;
    };
    let meta_words = match spec.metadata_capacity_bits {
        Some(meta_capacity) => {
            if occupancy_metadata_bits > meta_capacity as f64 {
                return false;
            }
            0.0
        }
        None => occupancy_metadata_bits / spec.word_bits as f64,
    };
    let per_instance = (occupancy_words + meta_words) / spec.instances as f64;
    per_instance <= capacity as f64 + 1e-9
}

/// Runs the micro-architecture step.
pub fn analyze(
    arch: &Architecture,
    traffic: &SparseTraffic,
    energy: &EnergyTable,
    capacity_mode: CapacityMode,
) -> UarchReport {
    let mut report = UarchReport::default();
    analyze_into(arch, traffic, energy, capacity_mode, &mut report);
    report
}

/// The micro-architecture step, written into a reused report.
///
/// Every field of `report` is overwritten; the per-level vector and its
/// name strings reuse their buffers, so evaluating many candidates
/// through one report allocates nothing once warm. Results are
/// bit-identical to [`analyze`] (which wraps this).
pub(crate) fn analyze_into(
    arch: &Architecture,
    traffic: &SparseTraffic,
    energy: &EnergyTable,
    capacity_mode: CapacityMode,
    report: &mut UarchReport,
) {
    report
        .levels
        .resize_with(arch.num_levels(), LevelCost::default);
    let mut total_energy = 0.0f64;
    let mut valid = true;
    report.overflow_level = None;
    let mut max_level_cycles = 0.0f64;

    let compute_energy_table = energy.compute(arch.compute());

    for (l, spec) in arch.levels().iter().enumerate() {
        let act = energy.storage(spec);
        let cost = &mut report.levels[l];
        cost.name.clone_from(&spec.name);
        cost.cycle_words = 0.0;
        cost.metadata_bits = 0.0;
        cost.cycles = 0.0;
        cost.energy_pj = 0.0;
        cost.occupancy_words = 0.0;
        cost.occupancy_metadata_bits = 0.0;
        let mut checks = 0.0f64;
        for e in traffic.at_level(l) {
            // cycles: actual + gated words occupy the port
            let read_like = e.reads.cycle_consuming() + e.drains.cycle_consuming();
            let write_like = e.fills.cycle_consuming() + e.updates.cycle_consuming();
            cost.cycle_words += read_like + write_like;
            cost.metadata_bits += e.metadata_read_bits + e.metadata_write_bits;
            // energy: actual at full cost, gated at gated cost
            cost.energy_pj += (e.reads.actual + e.drains.actual) * act.read
                + (e.fills.actual + e.updates.actual) * act.write
                + (e.reads.gated + e.fills.gated + e.updates.gated + e.drains.gated) * act.gated
                + act.metadata(e.metadata_read_bits + e.metadata_write_bits);
            cost.occupancy_words += match capacity_mode {
                CapacityMode::Expected => e.occupancy_words,
                CapacityMode::WorstCase => e.max_occupancy_words,
            };
            cost.occupancy_metadata_bits += match capacity_mode {
                CapacityMode::Expected => e.occupancy_metadata_bits,
                CapacityMode::WorstCase => e.max_occupancy_metadata_bits,
            };
            checks += e.intersection_checks;
        }
        // intersection decisions are charged at compute-table cost
        cost.energy_pj += checks * compute_energy_table.intersection;

        // capacity check: data words plus metadata (in words) share the
        // level's capacity unless a dedicated metadata store exists
        if !level_fits(spec, cost.occupancy_words, cost.occupancy_metadata_bits) {
            valid = false;
            if report.overflow_level.is_none() {
                report.overflow_level = Some(spec.name.clone());
            }
        }

        // bandwidth throttling: aggregate words (+ metadata as word
        // equivalents) over aggregate bandwidth
        if let Some(bw) = spec.bandwidth_words_per_cycle {
            let words = cost.cycle_words + cost.metadata_bits / spec.word_bits as f64;
            cost.cycles = words / (bw * spec.instances as f64);
            max_level_cycles = max_level_cycles.max(cost.cycles);
        }

        total_energy += cost.energy_pj;
    }

    // compute cycles: actual + gated ops over utilized parallelism
    let parallelism = traffic.utilized_parallelism.max(1) as f64;
    let compute_cycles = traffic.compute.ops.cycle_consuming() / parallelism;
    let compute_energy_pj = traffic.compute.ops.actual * compute_energy_table.mac
        + traffic.compute.ops.gated * compute_energy_table.gated;
    total_energy += compute_energy_pj;

    report.compute_cycles = compute_cycles;
    report.compute_energy_pj = compute_energy_pj;
    report.cycles = compute_cycles.max(max_level_cycles).max(1.0);
    report.energy_pj = total_energy;
    report.valid = valid;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saf::SafSpec;
    use crate::workload::Workload;
    use crate::{dataflow, sparse};
    use sparseloop_arch::{ArchitectureBuilder, ComponentClass, ComputeSpec, StorageLevel};
    use sparseloop_density::DensityModelSpec;
    use sparseloop_mapping::{Mapping, MappingBuilder};
    use sparseloop_tensor::einsum::{DimId, Einsum};

    fn setup(
        density_a: f64,
        buffer_capacity: u64,
        bw: Option<f64>,
    ) -> (Workload, Architecture, Mapping) {
        let e = Einsum::matmul(4, 4, 4);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let w = Workload::new(
            e,
            vec![
                DensityModelSpec::Uniform { density: density_a },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let mut buf = StorageLevel::new("Buffer").with_capacity(buffer_capacity);
        if let Some(b) = bw {
            buf = buf.with_bandwidth(b);
        }
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM").with_class(ComponentClass::Dram))
            .level(buf)
            .compute(ComputeSpec::new("MAC", 1))
            .build()
            .unwrap();
        let map = MappingBuilder::new(2, 3)
            .temporal(0, m, 4)
            .temporal(1, n, 4)
            .temporal(1, k, 4)
            .build();
        (w, arch, map)
    }

    fn run(
        w: &Workload,
        arch: &Architecture,
        map: &Mapping,
        safs: &SafSpec,
        mode: CapacityMode,
    ) -> UarchReport {
        let d = dataflow::analyze(w.einsum(), map);
        let s = sparse::analyze(w, &d, safs);
        analyze(arch, &s, &EnergyTable::default_45nm(), mode)
    }

    #[test]
    fn dense_run_produces_costs() {
        let (w, arch, map) = setup(1.0, 4096, None);
        let r = run(&w, &arch, &map, &SafSpec::dense(), CapacityMode::Expected);
        assert!(r.valid);
        assert!(r.cycles >= 64.0); // 64 MACs on 1 unit
        assert!(r.energy_pj > 0.0);
        assert_eq!(r.levels.len(), 2);
        assert!(r.edp() > 0.0);
    }

    #[test]
    fn capacity_overflow_invalidates() {
        let (w, arch, map) = setup(1.0, 2, None); // tiny buffer
        let r = run(&w, &arch, &map, &SafSpec::dense(), CapacityMode::Expected);
        assert!(!r.valid);
        assert_eq!(r.overflow_level.as_deref(), Some("Buffer"));
    }

    #[test]
    fn compression_can_restore_validity() {
        // Buffer too small for dense A tile but fine when compressed.
        let (w, arch, map) = setup(0.1, 23, None);
        let a = w.einsum().tensor_id("A").unwrap();
        let dense_r = run(&w, &arch, &map, &SafSpec::dense(), CapacityMode::Expected);
        assert!(!dense_r.valid);
        let safs = SafSpec::dense().with_format(1, a, sparseloop_format::TensorFormat::coo(2));
        let r = run(&w, &arch, &map, &safs, CapacityMode::Expected);
        assert!(r.valid, "compressed tile should fit");
    }

    #[test]
    fn worst_case_mode_is_stricter() {
        let (w, arch, map) = setup(0.25, 26, None);
        let a = w.einsum().tensor_id("A").unwrap();
        let safs = SafSpec::dense().with_format(1, a, sparseloop_format::TensorFormat::coo(2));
        let exp = run(&w, &arch, &map, &safs, CapacityMode::Expected);
        let wc = run(&w, &arch, &map, &safs, CapacityMode::WorstCase);
        assert!(exp.valid);
        // worst case occupancy >= expected
        let le = &exp.levels[1];
        let lw = &wc.levels[1];
        assert!(lw.occupancy_words >= le.occupancy_words);
    }

    #[test]
    fn bandwidth_throttling_extends_latency() {
        let (w, arch_fast, map) = setup(1.0, 4096, Some(100.0));
        let (_, arch_slow, _) = setup(1.0, 4096, Some(0.25));
        let fast = run(
            &w,
            &arch_fast,
            &map,
            &SafSpec::dense(),
            CapacityMode::Expected,
        );
        let slow = run(
            &w,
            &arch_slow,
            &map,
            &SafSpec::dense(),
            CapacityMode::Expected,
        );
        assert!(slow.cycles > fast.cycles);
    }

    #[test]
    fn skipping_reduces_cycles_gating_does_not() {
        let (w, _, map) = setup(0.25, 4096, None);
        let arch = {
            let (_, a, _) = setup(0.25, 4096, None);
            a
        };
        let a_id = w.einsum().tensor_id("A").unwrap();
        let skip = SafSpec::dense()
            .with_skip(1, a_id, vec![a_id])
            .with_skip_compute();
        let gate = SafSpec::dense()
            .with_gate(1, a_id, vec![a_id])
            .with_gate_compute();
        let dense_r = run(&w, &arch, &map, &SafSpec::dense(), CapacityMode::Expected);
        let skip_r = run(&w, &arch, &map, &skip, CapacityMode::Expected);
        let gate_r = run(&w, &arch, &map, &gate, CapacityMode::Expected);
        // skipping cuts compute cycles; gating keeps them
        assert!(skip_r.compute_cycles < dense_r.compute_cycles);
        assert!((gate_r.compute_cycles - dense_r.compute_cycles).abs() < 1e-6);
        // both save energy vs dense
        assert!(skip_r.energy_pj < dense_r.energy_pj);
        assert!(gate_r.energy_pj < dense_r.energy_pj);
    }

    #[test]
    fn parallelism_divides_compute_cycles() {
        let e = Einsum::matmul(4, 4, 4);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let w = Workload::dense(e);
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM").with_class(ComponentClass::Dram))
            .level(StorageLevel::new("Buffer").with_capacity(4096))
            .compute(ComputeSpec::new("MAC", 4))
            .build()
            .unwrap();
        let map = MappingBuilder::new(2, 3)
            .temporal(0, m, 4)
            .spatial(1, n, 4)
            .temporal(1, k, 4)
            .build();
        let r = run(&w, &arch, &map, &SafSpec::dense(), CapacityMode::Expected);
        assert!((r.compute_cycles - 16.0).abs() < 1e-9); // 64 MACs / 4
    }

    #[test]
    fn metadata_counts_toward_bandwidth() {
        let (w, arch, map) = setup(0.5, 4096, Some(1.0));
        let a = w.einsum().tensor_id("A").unwrap();
        let plain = run(&w, &arch, &map, &SafSpec::dense(), CapacityMode::Expected);
        // uncompressed but bitmask-tagged: pure metadata overhead on top
        let fmt = sparseloop_format::TensorFormat::from_ranks(&[
            sparseloop_format::RankFormat::Uncompressed,
            sparseloop_format::RankFormat::Bitmask,
        ]);
        let safs = SafSpec::dense()
            .with_format(1, a, fmt)
            .with_gate(1, a, vec![a]);
        let tagged = run(&w, &arch, &map, &safs, CapacityMode::Expected);
        let lvl_plain = &plain.levels[1];
        let lvl_tagged = &tagged.levels[1];
        assert!(lvl_tagged.metadata_bits > 0.0);
        assert_eq!(lvl_plain.metadata_bits, 0.0);
    }
}
