//! Step 2: sparse modeling — filtering dense traffic through SAFs
//! (paper §5.3, Fig. 8).
//!
//! This step turns the dense traffic of step 1 into *sparse traffic*:
//! per-(tensor, level) action breakdowns into **actual**, **gated** and
//! **skipped** fine-grained actions, plus metadata traffic and compressed
//! occupancies. It composes three analyses:
//!
//! * **Format analyzer** (§5.3.3) — a compressed tensor moves only its
//!   nonzero payloads plus per-rank metadata; the statistical footprint
//!   comes from [`TensorFormat::analyze`](sparseloop_format::TensorFormat).
//! * **Gating/skipping analyzer** (§5.3.4) — leader-follower
//!   intersections eliminate target accesses when the mapping-determined
//!   leader tile is empty. The leader tile is the leader tensor's
//!   projection over the target's *reuse region* (dense-analysis
//!   stationarity run), reproducing Fig. 10's mapping dependence.
//!   Eliminations at upper levels propagate to all inner levels with
//!   *conditional* probabilities (an inner, finer-grained intersection on
//!   the same leaders only eliminates what its outer, coarser-grained
//!   parent could not — the hierarchical-skip composition of Fig. 17).
//! * **Traffic post-processing** (§5.3.5) — zero-value (self) gating and
//!   skipping interact with compression: a compressed tensor's zeros are
//!   skipped for free; an uncompressed bitmask-style design spends the
//!   cycles and gates them instead.
//!
//! Self SAFs are written `Gate t ← t` / `Skip t ← t` (leaders contain the
//! target): they act at *word* granularity on the tensor's own zeros
//! rather than through the tile-granularity leader machinery.

use crate::dataflow::DenseTraffic;
use crate::saf::{ActionOpt, SafSpec};
use crate::workload::Workload;

use sparseloop_density::{DensityModel, MemoStats, ShapeMemo};
use sparseloop_format::{FormatOverhead, TensorFormat};
use sparseloop_tensor::einsum::{TensorId, TensorKind};

/// Maximum tile shapes the format-analysis cache retains per slot;
/// beyond it, results are computed without being stored.
pub const FORMAT_CACHE_CAP: usize = 8192;

/// A thread-safe memo of format footprint analyses, keyed by an opaque
/// *slot* plus the tile shape (built on the shared
/// [`ShapeMemo`] primitive from `sparseloop-density`).
///
/// Mapspace search evaluates thousands of candidates whose per-level tile
/// shapes repeat (the factorization space reuses factors), and the same
/// analysis runs in both the capacity pre-pass (`Model::precheck`) and
/// the sparse modeling step — so one cache removes the dominant repeated
/// cost on both paths.
///
/// **Soundness contract**: a slot id must pin down the full analysis
/// identity — the [`TensorFormat`] *and* the density statistics it is
/// analyzed against. A standalone [`Model`] assigns each
/// `(level, tensor)` pair its own slot (format and density model are
/// fixed per pair for the model's lifetime, exactly the seed's keying);
/// an [`EvalSession`](crate::EvalSession) interns slots by
/// `(format, density cache key)` so identical analyses are shared across
/// the session's models/layers. Sharing a cache across models without
/// that discipline would silently serve stale footprints.
///
/// [`Model`]: crate::Model
#[derive(Debug)]
pub(crate) struct FormatAnalysisCache {
    memo: ShapeMemo<FormatOverhead>,
}

impl Default for FormatAnalysisCache {
    fn default() -> Self {
        FormatAnalysisCache {
            memo: ShapeMemo::new(FORMAT_CACHE_CAP),
        }
    }
}

impl FormatAnalysisCache {
    /// `format.analyze(shape, model)`, memoized per `(slot, shape)`.
    pub(crate) fn analyze(
        &self,
        slot: u64,
        format: &TensorFormat,
        shape: &[u64],
        model: &dyn DensityModel,
    ) -> FormatOverhead {
        *self
            .memo
            .get_or_compute(slot, shape, || format.analyze(shape, model))
    }

    /// Hit/miss/entry counters (misses = real analyses performed).
    pub(crate) fn stats(&self) -> MemoStats {
        self.memo.stats()
    }
}

/// A format cache bound to one model's `(level, tensor) -> slot` table —
/// the handle the evaluation pipeline threads through
/// [`analyze_with_cache`].
#[derive(Clone, Copy)]
pub(crate) struct FormatCacheView<'a> {
    pub(crate) cache: &'a FormatAnalysisCache,
    /// Slot per `(level, tensor)`, row-major `level * num_tensors + t`.
    pub(crate) slots: &'a [u64],
    pub(crate) num_tensors: usize,
}

impl FormatCacheView<'_> {
    pub(crate) fn analyze(
        &self,
        level: usize,
        tensor: TensorId,
        format: &TensorFormat,
        shape: &[u64],
        model: &dyn DensityModel,
    ) -> FormatOverhead {
        let slot = self.slots[level * self.num_tensors + tensor.0];
        self.cache.analyze(slot, format, shape, model)
    }
}

/// A count of fine-grained actions split by what happened to them.
///
/// Invariant: `actual + gated + skipped` equals the (possibly
/// compression-reduced) dense count the breakdown was derived from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ActionBreakdown {
    /// Operations that really execute (full energy, full cycles).
    pub actual: f64,
    /// Gated operations (gated energy, full cycles).
    pub gated: f64,
    /// Skipped operations (no energy, no cycles).
    pub skipped: f64,
}

impl ActionBreakdown {
    /// A breakdown with everything actual.
    pub fn dense(count: f64) -> Self {
        ActionBreakdown {
            actual: count,
            gated: 0.0,
            skipped: 0.0,
        }
    }

    /// Total operations across classes.
    pub fn total(&self) -> f64 {
        self.actual + self.gated + self.skipped
    }

    /// Operations that consume cycles (actual + gated).
    pub fn cycle_consuming(&self) -> f64 {
        self.actual + self.gated
    }

    /// Moves `fraction` of the current *actual* operations into the given
    /// class.
    pub fn eliminate(&mut self, fraction: f64, action: ActionOpt) {
        let f = fraction.clamp(0.0, 1.0);
        let moved = self.actual * f;
        self.actual -= moved;
        match action {
            ActionOpt::Gate => self.gated += moved,
            ActionOpt::Skip => self.skipped += moved,
        }
    }

    /// Scales every class (used when upstream skipping removes the
    /// operations entirely).
    pub fn scale(&mut self, s: f64) {
        self.actual *= s;
        self.gated *= s;
        self.skipped *= s;
    }
}

/// Sparse traffic of one tensor at one storage level.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensorLevel {
    /// The tensor.
    pub tensor: TensorId,
    /// Storage level index.
    pub level: usize,
    /// Reads (serving the child level / compute).
    pub reads: ActionBreakdown,
    /// Fills from the parent level.
    pub fills: ActionBreakdown,
    /// Updates from below (outputs).
    pub updates: ActionBreakdown,
    /// Drains to the parent (outputs).
    pub drains: ActionBreakdown,
    /// Metadata bits read out of this level.
    pub metadata_read_bits: f64,
    /// Metadata bits written into this level.
    pub metadata_write_bits: f64,
    /// Expected payload words resident (for capacity checking).
    pub occupancy_words: f64,
    /// Expected metadata bits resident.
    pub occupancy_metadata_bits: f64,
    /// Worst-case payload words resident.
    pub max_occupancy_words: f64,
    /// Worst-case metadata bits resident.
    pub max_occupancy_metadata_bits: f64,
    /// Intersection-unit decisions charged at this level.
    pub intersection_checks: f64,
}

/// Sparse compute summary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SparseCompute {
    /// Compute operation breakdown.
    pub ops: ActionBreakdown,
}

/// Output of the sparse modeling step.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseTraffic {
    /// One entry per (tensor, level in its storage chain).
    pub entries: Vec<SparseTensorLevel>,
    /// Compute breakdown.
    pub compute: SparseCompute,
    /// Spatial parallelism in use (copied from dense analysis).
    pub utilized_parallelism: u64,
}

impl SparseTraffic {
    /// Looks up the entry for `(tensor, level)`.
    pub fn get(&self, tensor: TensorId, level: usize) -> Option<&SparseTensorLevel> {
        self.entries
            .iter()
            .find(|e| e.tensor == tensor && e.level == level)
    }

    /// All entries at one storage level.
    pub fn at_level(&self, level: usize) -> impl Iterator<Item = &SparseTensorLevel> {
        self.entries.iter().filter(move |e| e.level == level)
    }
}

/// A tiny insertion-ordered association list on a pre-packed small key:
/// `(key, value)` pairs in a reusable `Vec`, looked up by linear scan
/// (O(n) per probe — no hashing at all).
///
/// The elimination trackers hold one entry per distinct leader set /
/// leader tensor — one to three in every real design — so a linear scan
/// beats any hash table at these sizes, inserts allocate nothing once
/// the `Vec` is warm (the seed keyed these maps by freshly allocated
/// `Vec<usize>` per insert), and iteration order is *deterministic*
/// (insertion order), unlike the `HashMap` it replaces.
#[derive(Debug, Default, Clone)]
struct SmallMap<K: Copy + PartialEq> {
    entries: Vec<(K, f64)>,
}

impl<K: Copy + PartialEq> SmallMap<K> {
    fn clear(&mut self) {
        self.entries.clear();
    }

    /// The value slot for `key`, inserted as `default` when absent.
    fn entry(&mut self, key: K, default: f64) -> &mut f64 {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            return &mut self.entries[i].1;
        }
        self.entries.push((key, default));
        &mut self.entries.last_mut().expect("just pushed").1
    }

    fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.entries.iter().map(|(_, v)| *v)
    }

    fn iter(&self) -> impl Iterator<Item = (K, f64)> + '_ {
        self.entries.iter().copied()
    }
}

/// Per-tensor elimination bookkeeping across levels. Keyed by the packed
/// leader-set bitmask (bit `t` set means `TensorId(t)` is in the set —
/// the identity the seed encoded as a freshly allocated sorted
/// `Vec<usize>` per insert) so that hierarchical intersections on the
/// same leaders compose *conditionally* rather than multiplicatively.
#[derive(Debug, Default)]
struct ElimTracker {
    /// leader set (packed bitmask) -> survival probability after the
    /// outer levels (used for conditional per-level traffic
    /// classification).
    skip_surv: SmallMap<u64>,
    gate_surv: SmallMap<u64>,
    /// per-leader finest-granularity survival (used for compute
    /// classification, deduplicated across targets).
    skip_leader_surv: SmallMap<usize>,
    gate_leader_surv: SmallMap<usize>,
    /// Whether a word-granularity self-skip / self-gate was seen at any
    /// level (affects compute classification).
    self_skip: bool,
    self_gate: bool,
}

impl ElimTracker {
    fn clear(&mut self) {
        self.skip_surv.clear();
        self.gate_surv.clear();
        self.skip_leader_surv.clear();
        self.gate_leader_surv.clear();
        self.self_skip = false;
        self.self_gate = false;
    }

    /// Combined survival from all skip leader-sets (innermost
    /// granularity).
    fn total_skip_survival(&self) -> f64 {
        self.skip_surv.values().product()
    }
}

/// Runs the sparse modeling step.
pub fn analyze(workload: &Workload, dense: &DenseTraffic, safs: &SafSpec) -> SparseTraffic {
    analyze_with_cache(workload, dense, safs, None)
}

/// Runs the sparse modeling step, memoizing format footprint analyses in
/// `cache` when one is provided (see [`FormatAnalysisCache`]).
pub(crate) fn analyze_with_cache(
    workload: &Workload,
    dense: &DenseTraffic,
    safs: &SafSpec,
    cache: Option<&FormatCacheView<'_>>,
) -> SparseTraffic {
    let mut scratch = SparseScratch::default();
    analyze_into(workload, dense, safs, cache, &mut scratch);
    scratch.traffic
}

/// Reusable buffers for the sparse modeling step: the traffic table,
/// per-tensor elimination trackers and shape/condition buffers persist
/// across candidates so the hot path allocates nothing once warm (every
/// per-entry record is plain scalar data).
#[derive(Debug, Default)]
pub struct SparseScratch {
    traffic: SparseTraffic,
    trackers: Vec<ElimTracker>,
    skip_cond: SmallMap<usize>,
    gate_cond: SmallMap<usize>,
    /// Leader tile shape buffer.
    shape: Vec<u64>,
    /// Rank-adaptation buffer for `Workload::prob_tile_empty_with`.
    rank_buf: Vec<u64>,
}

impl SparseScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        SparseScratch::default()
    }

    /// The traffic of the most recent analysis into this scratch.
    pub fn traffic(&self) -> &SparseTraffic {
        &self.traffic
    }
}

/// The sparse modeling step, written into `scratch` — bit-identical to
/// [`analyze`] (which wraps this with a throwaway scratch).
pub(crate) fn analyze_into(
    workload: &Workload,
    dense: &DenseTraffic,
    safs: &SafSpec,
    cache: Option<&FormatCacheView<'_>>,
    scratch: &mut SparseScratch,
) {
    let einsum = workload.einsum();
    let num_tensors = einsum.tensors().len();
    if scratch.trackers.len() < num_tensors {
        scratch
            .trackers
            .resize_with(num_tensors, ElimTracker::default);
    }
    for tr in &mut scratch.trackers {
        tr.clear();
    }
    let trackers = &mut scratch.trackers;
    let entries = &mut scratch.traffic.entries;
    entries.clear();
    entries.reserve(dense.entries.len());
    let shape = &mut scratch.shape;
    let rank_buf = &mut scratch.rank_buf;

    // Dense entries are grouped per tensor with levels outermost-first,
    // which is exactly the order propagation requires.
    for de in &dense.entries {
        let t = de.tensor;
        let tracker = &mut trackers[t.0];
        let d_t = workload.tensor_density(t);

        // --- survival inherited from SAFs at outer levels -------------
        let surv_above_skip = tracker.total_skip_survival();

        // --- local cross-tensor intersections -------------------------
        let mut local_skip = 0.0f64; // conditional fraction at this level
        let mut local_gate = 0.0f64;
        let mut checks = 0.0f64;
        let mut self_gate_here = false;
        let mut self_skip_here = false;
        for saf in safs.intersections_iter(de.level, t) {
            let has_self = saf.leaders.contains(&t);
            let cross = || saf.leaders.iter().copied().filter(|&l| l != t);
            if has_self {
                // self part: word-granularity zero elimination
                match saf.action {
                    ActionOpt::Gate => {
                        self_gate_here = true;
                        tracker.self_gate = true;
                    }
                    ActionOpt::Skip => {
                        self_skip_here = true;
                        tracker.self_skip = true;
                    }
                }
            }
            let mut key = 0u64; // packed leader-set key
                                // survival if ALL leader tiles non-empty
            let mut surv_here = 1.0f64;
            let mut any_cross = false;
            for l in cross() {
                any_cross = true;
                key |= 1u64
                    .checked_shl(l.0 as u32)
                    .expect("at most 64 tensors supported in leader sets");
                einsum.tensor_tile_shape_into(l, &de.reuse_bounds, shape);
                let s_l = 1.0 - workload.prob_tile_empty_with(l, shape, rank_buf);
                surv_here *= s_l;
                // per-leader survival at this granularity, kept at the
                // finest level seen (for deduplicated compute
                // classification)
                let map = match saf.action {
                    ActionOpt::Skip => &mut tracker.skip_leader_surv,
                    ActionOpt::Gate => &mut tracker.gate_leader_surv,
                };
                let entry = map.entry(l.0, 1.0);
                if s_l < *entry {
                    *entry = s_l;
                }
            }
            if !any_cross {
                continue;
            }
            let (surv_map, frac_slot) = match saf.action {
                ActionOpt::Skip => (&mut tracker.skip_surv, &mut local_skip),
                ActionOpt::Gate => (&mut tracker.gate_surv, &mut local_gate),
            };
            let prior = surv_map.entry(key, 1.0);
            // conditional elimination given what outer levels already
            // removed on the same leader set
            let cond_elim = if *prior <= f64::EPSILON {
                0.0
            } else {
                (1.0 - surv_here / *prior).clamp(0.0, 1.0)
            };
            *frac_slot = 1.0 - (1.0 - *frac_slot) * (1.0 - cond_elim);
            if surv_here < *prior {
                *prior = surv_here;
            }
            // one intersection decision per (surviving) transfer event
            checks += de.read_transfers * surv_above_skip;
        }

        // --- representation format -------------------------------------
        let format = safs.format_at(de.level, t);
        let compressed = format.is_some_and(TensorFormat::is_compressed);
        let model = workload.density(t);
        let analyze_tile = |f: &TensorFormat, shape: &[u64]| match cache {
            Some(view) => view.analyze(de.level, t, f, shape, model.as_ref()),
            None => f.analyze(shape, model.as_ref()),
        };
        let (occ_words, occ_meta, max_words, max_meta, md_per_read_tile, md_per_fill_tile) =
            match format {
                Some(f) => {
                    let held = analyze_tile(f, &de.tile_shape);
                    let child = analyze_tile(f, &de.child_tile_shape);
                    (
                        held.payload_words,
                        held.metadata_bits,
                        held.max_payload_words,
                        held.max_metadata_bits,
                        child.metadata_bits,
                        held.metadata_bits,
                    )
                }
                None => (de.tile_size, 0.0, de.tile_size, 0.0, 0.0, 0.0),
            };

        // --- classify the traffic --------------------------------------
        // Zero-word fraction of the tensor's own data.
        let zero_frac = 1.0 - d_t;
        let self_action = if self_skip_here || (compressed && !self_gate_here) {
            Some(ActionOpt::Skip)
        } else if self_gate_here {
            Some(ActionOpt::Gate)
        } else {
            None
        };

        let classify = |count: f64| -> ActionBreakdown {
            let mut b = ActionBreakdown::dense(count * surv_above_skip);
            b.eliminate(local_skip, ActionOpt::Skip);
            b.eliminate(local_gate, ActionOpt::Gate);
            if let Some(act) = self_action {
                b.eliminate(zero_frac, act);
            }
            b
        };

        let reads = classify(de.reads);
        let fills = classify(de.fills);
        let updates = if einsum.tensor(t).kind == TensorKind::Output {
            classify(de.updates)
        } else {
            ActionBreakdown::default()
        };
        let drains = classify(de.drains);

        // Metadata moves with surviving (non-skipped) transfer events.
        let surviving_transfers = de.read_transfers * surv_above_skip * (1.0 - local_skip);
        let fill_transfers = if de.tile_size > 0.0 {
            de.fills / de.tile_size
        } else {
            0.0
        } * surv_above_skip;
        let metadata_read_bits = surviving_transfers * md_per_read_tile;
        let metadata_write_bits = fill_transfers * md_per_fill_tile;

        entries.push(SparseTensorLevel {
            tensor: t,
            level: de.level,
            reads,
            fills,
            updates,
            drains,
            metadata_read_bits,
            metadata_write_bits,
            occupancy_words: occ_words,
            occupancy_metadata_bits: occ_meta,
            max_occupancy_words: max_words,
            max_occupancy_metadata_bits: max_meta,
            intersection_checks: checks,
        });
    }

    // --- compute classification -----------------------------------------
    // A compute executes iff every input operand is delivered. Delivery
    // conditions are of the form "tensor x's (leader) tile is non-empty";
    // the same condition can arise from several SAFs (e.g. `Skip B <- A`
    // and A's own compressed stream both require "A nonzero"), so
    // conditions are deduplicated per tensor, keeping the finest
    // granularity (lowest survival). The condition maps are
    // insertion-ordered (deterministic products, unlike the seed's
    // `HashMap` iteration).
    let skip_cond = &mut scratch.skip_cond;
    let gate_cond = &mut scratch.gate_cond;
    skip_cond.clear();
    gate_cond.clear();
    let mut effectual = dense.computes;
    let merge = |m: &mut SmallMap<usize>, key: usize, surv: f64| {
        let e = m.entry(key, 1.0);
        if surv < *e {
            *e = surv;
        }
    };
    for (ti, tspec) in einsum.tensors().iter().enumerate() {
        if tspec.kind != TensorKind::Input {
            continue;
        }
        let t = TensorId(ti);
        let d_t = workload.tensor_density(t);
        effectual *= d_t;
        let tr = &trackers[ti];
        for (leader, surv) in tr.skip_leader_surv.iter() {
            merge(skip_cond, leader, surv);
        }
        for (leader, surv) in tr.gate_leader_surv.iter() {
            merge(gate_cond, leader, surv);
        }
        if tr.self_skip {
            merge(skip_cond, ti, d_t);
        }
        if tr.self_gate {
            merge(gate_cond, ti, d_t);
        }
    }
    let skip_surv: f64 = skip_cond.values().product();
    let gate_surv: f64 = gate_cond.values().product();
    let skipped = dense.computes * (1.0 - skip_surv);
    let surviving = dense.computes * skip_surv;
    let gated_implicit = surviving * (1.0 - gate_surv);
    let remaining = surviving - gated_implicit;
    let effectual = effectual.min(remaining);
    let leftover = (remaining - effectual).max(0.0);
    let (actual, extra_gated, extra_skipped) = match safs.compute {
        Some(c) => match c.action {
            ActionOpt::Gate => (effectual, leftover, 0.0),
            ActionOpt::Skip => (effectual, 0.0, leftover),
        },
        None => (effectual + leftover, 0.0, 0.0),
    };
    scratch.traffic.compute = SparseCompute {
        ops: ActionBreakdown {
            actual,
            gated: gated_implicit + extra_gated,
            skipped: skipped + extra_skipped,
        },
    };
    scratch.traffic.utilized_parallelism = dense.utilized_parallelism;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow;
    use sparseloop_density::DensityModelSpec;
    use sparseloop_format::TensorFormat;

    use sparseloop_mapping::MappingBuilder;
    use sparseloop_tensor::einsum::{DimId, Einsum};

    /// spMspM with A at `da`, B at `db`, 1-level arch, k innermost.
    fn workload(da: f64, db: f64) -> (Workload, sparseloop_mapping::Mapping) {
        let e = Einsum::matmul(4, 4, 4);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let w = Workload::new(
            e,
            vec![
                DensityModelSpec::Uniform { density: da },
                DensityModelSpec::Uniform { density: db },
                DensityModelSpec::Dense,
            ],
        );
        let map = MappingBuilder::new(1, 3)
            .temporal(0, m, 4)
            .temporal(0, n, 4)
            .temporal(0, k, 4)
            .build();
        (w, map)
    }

    #[test]
    fn dense_design_everything_actual() {
        let (w, map) = workload(0.5, 1.0);
        let d = dataflow::analyze(w.einsum(), &map);
        let s = analyze(&w, &d, &SafSpec::dense());
        for e in &s.entries {
            assert_eq!(e.reads.gated, 0.0);
            assert_eq!(e.reads.skipped, 0.0);
        }
        assert_eq!(s.compute.ops.actual, 64.0);
    }

    #[test]
    fn breakdown_conserves_totals() {
        let (w, map) = workload(0.25, 0.5);
        let d = dataflow::analyze(w.einsum(), &map);
        let a = w.einsum().tensor_id("A").unwrap();
        let b = w.einsum().tensor_id("B").unwrap();
        let safs = SafSpec::dense()
            .with_skip(0, b, vec![a])
            .with_gate_compute();
        let s = analyze(&w, &d, &safs);
        for e in &s.entries {
            let de = d.get(e.tensor, e.level).unwrap();
            assert!((e.reads.total() - de.reads).abs() < 1e-6, "reads conserve");
        }
        assert!((s.compute.ops.total() - 64.0).abs() < 1e-6);
    }

    #[test]
    fn leader_follower_skip_scales_with_leader_density() {
        let (w, map) = workload(0.25, 1.0);
        let d = dataflow::analyze(w.einsum(), &map);
        let a = w.einsum().tensor_id("A").unwrap();
        let b = w.einsum().tensor_id("B").unwrap();
        let safs = SafSpec::dense().with_skip(0, b, vec![a]);
        let s = analyze(&w, &d, &safs);
        let be = s.get(b, 0).unwrap();
        // leader is a single A element (k innermost relevant to both):
        // 75% of B reads skipped
        assert!((be.reads.skipped / be.reads.total() - 0.75).abs() < 1e-9);
        // compute skipped proportionally
        assert!((s.compute.ops.skipped / 64.0 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn gate_keeps_cycles() {
        let (w, map) = workload(0.25, 1.0);
        let d = dataflow::analyze(w.einsum(), &map);
        let a = w.einsum().tensor_id("A").unwrap();
        let b = w.einsum().tensor_id("B").unwrap();
        let safs = SafSpec::dense().with_gate(0, b, vec![a]);
        let s = analyze(&w, &d, &safs);
        let be = s.get(b, 0).unwrap();
        assert!(be.reads.gated > 0.0);
        assert_eq!(be.reads.skipped, 0.0);
        // gated ops still consume cycles
        assert!((be.reads.cycle_consuming() - be.reads.total()).abs() < 1e-9);
        // compute implicitly gated, not skipped
        assert!(s.compute.ops.gated > 0.0);
        assert_eq!(s.compute.ops.skipped, 0.0);
    }

    #[test]
    fn self_skip_on_compressed_tensor() {
        let (w, map) = workload(0.25, 1.0);
        let d = dataflow::analyze(w.einsum(), &map);
        let a = w.einsum().tensor_id("A").unwrap();
        let safs = SafSpec::dense()
            .with_format(0, a, TensorFormat::coo(2))
            .with_skip(0, a, vec![a]);
        let s = analyze(&w, &d, &safs);
        let ae = s.get(a, 0).unwrap();
        // 75% of A's words are zeros -> skipped
        assert!((ae.reads.skipped / ae.reads.total() - 0.75).abs() < 1e-9);
        assert!(ae.metadata_read_bits > 0.0);
        // compute skips A-zero MACs
        assert!((s.compute.ops.skipped / 64.0 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn self_gate_bitmask_style() {
        let (w, map) = workload(0.25, 1.0);
        let d = dataflow::analyze(w.einsum(), &map);
        let a = w.einsum().tensor_id("A").unwrap();
        let safs = SafSpec::dense()
            .with_format(
                0,
                a,
                TensorFormat::from_ranks(&[
                    sparseloop_format::RankFormat::Uncompressed,
                    sparseloop_format::RankFormat::Bitmask,
                ]),
            )
            .with_gate(0, a, vec![a]);
        let s = analyze(&w, &d, &safs);
        let ae = s.get(a, 0).unwrap();
        // zeros gated: cycles unchanged
        assert!((ae.reads.cycle_consuming() - ae.reads.total()).abs() < 1e-9);
        assert!(ae.reads.gated > 0.0);
    }

    #[test]
    fn compressed_format_without_saf_skips_zeros() {
        let (w, map) = workload(0.25, 1.0);
        let d = dataflow::analyze(w.einsum(), &map);
        let a = w.einsum().tensor_id("A").unwrap();
        let safs = SafSpec::dense().with_format(0, a, TensorFormat::coo(2));
        let s = analyze(&w, &d, &safs);
        let ae = s.get(a, 0).unwrap();
        // compression inherently avoids zero-word traffic
        assert!((ae.reads.skipped / ae.reads.total() - 0.75).abs() < 1e-9);
        // occupancy shrinks to ~nnz
        assert!((ae.occupancy_words - 4.0).abs() < 1e-6); // 16-elem tile at 25%
    }

    #[test]
    fn double_sided_skip_compounds_both_operands() {
        let (w, map) = workload(0.5, 0.5);
        let d = dataflow::analyze(w.einsum(), &map);
        let a = w.einsum().tensor_id("A").unwrap();
        let b = w.einsum().tensor_id("B").unwrap();
        let safs = SafSpec::dense().with_double_sided_skip(0, a, b);
        let s = analyze(&w, &d, &safs);
        // compute survival = P(A nonzero) * P(B nonzero) = 0.25
        assert!((s.compute.ops.skipped / 64.0 - 0.75).abs() < 1e-9);
        assert!((s.compute.ops.actual / 64.0 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn hierarchical_skip_is_conditional() {
        // Same leader at two levels: inner elimination must be conditional
        // on the outer one, total survival = element-level survival.
        let e = Einsum::matmul(4, 4, 4);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let w = Workload::new(
            e,
            vec![
                DensityModelSpec::Uniform { density: 0.25 },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let map = MappingBuilder::new(2, 3)
            .temporal(0, m, 4)
            .temporal(0, n, 4)
            .temporal(1, k, 4)
            .build();
        let d = dataflow::analyze(w.einsum(), &map);
        let a = w.einsum().tensor_id("A").unwrap();
        let b = w.einsum().tensor_id("B").unwrap();
        let safs = SafSpec::dense()
            .with_skip(0, b, vec![a])
            .with_skip(1, b, vec![a]);
        let s = analyze(&w, &d, &safs);
        // Final compute survival should equal element-granularity
        // survival (0.25), NOT 0.25 x P(tile nonempty).
        assert!((s.compute.ops.skipped / 64.0 - 0.75).abs() < 1e-6);
    }

    #[test]
    fn elimination_propagates_to_inner_levels() {
        let e = Einsum::matmul(4, 4, 4);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let w = Workload::new(
            e,
            vec![
                DensityModelSpec::Uniform { density: 0.25 },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let map = MappingBuilder::new(2, 3)
            .temporal(0, m, 4)
            .temporal(0, n, 4)
            .temporal(1, k, 4)
            .build();
        let d = dataflow::analyze(w.einsum(), &map);
        let a = w.einsum().tensor_id("A").unwrap();
        let b = w.einsum().tensor_id("B").unwrap();
        // skip at the OUTER level only
        let safs = SafSpec::dense().with_skip(0, b, vec![a]);
        let s = analyze(&w, &d, &safs);
        let b1 = s.get(b, 1).unwrap();
        let db1 = d.get(b, 1).unwrap();
        // inner-level traffic reduced (removed, not reclassified)
        assert!(b1.reads.total() < db1.reads);
    }

    #[test]
    fn intersection_checks_counted() {
        let (w, map) = workload(0.5, 1.0);
        let d = dataflow::analyze(w.einsum(), &map);
        let a = w.einsum().tensor_id("A").unwrap();
        let b = w.einsum().tensor_id("B").unwrap();
        let safs = SafSpec::dense().with_skip(0, b, vec![a]);
        let s = analyze(&w, &d, &safs);
        assert!(s.get(b, 0).unwrap().intersection_checks > 0.0);
        assert_eq!(s.get(a, 0).unwrap().intersection_checks, 0.0);
    }

    #[test]
    fn structured_sparsity_deterministic_speedup() {
        // 2:4 structured A with self-skip: exactly half the computes
        // survive -> the STC 2x result.
        let e = Einsum::matmul(4, 4, 8);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let w = Workload::new(
            e,
            vec![
                DensityModelSpec::FixedStructured {
                    n: 2,
                    m: 4,
                    axis: 1,
                },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let map = MappingBuilder::new(1, 3)
            .temporal(0, m, 4)
            .temporal(0, n, 4)
            .temporal(0, k, 8)
            .build();
        let d = dataflow::analyze(w.einsum(), &map);
        let a = w.einsum().tensor_id("A").unwrap();
        let safs = SafSpec::dense().with_skip(0, a, vec![a]);
        let s = analyze(&w, &d, &safs);
        assert!((s.compute.ops.actual / d.computes - 0.5).abs() < 1e-9);
        assert!((s.compute.ops.skipped / d.computes - 0.5).abs() < 1e-9);
    }
}
