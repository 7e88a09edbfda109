//! The top-level Sparseloop engine: workload + architecture + SAFs →
//! evaluation of a mapping, or search over a mapspace.

use crate::dataflow::{self, DenseTraffic};
use crate::saf::SafSpec;
use crate::scratch::{compose, Depth, EvalScratch, LevelCheck, PrecheckScratch, SCRATCH_POOL};
use crate::sparse::{self, SparseTraffic};
use crate::uarch::{self, CapacityMode, UarchReport};
use crate::workload::Workload;
use sparseloop_arch::Architecture;
use sparseloop_density::MemoStats;
use sparseloop_energy::EnergyTable;
use sparseloop_mapping::{
    CandidateEvaluator, ChangeDepth, Mapper, Mapping, MappingError, Mapspace, SearchStats,
    WorkerEvaluator,
};
use sparseloop_tensor::einsum::TensorId;
use std::fmt;
use std::sync::Arc;

/// What the mapper minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Energy-delay product (the paper's case-study metric).
    #[default]
    Edp,
    /// Processing latency in cycles.
    Latency,
    /// Total energy.
    Energy,
}

/// Errors from [`Model::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The mapping failed structural validation.
    InvalidMapping(MappingError),
    /// Tiles plus metadata overflow a storage level.
    CapacityExceeded {
        /// The offending level's name.
        level: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::InvalidMapping(e) => write!(f, "invalid mapping: {e}"),
            EvalError::CapacityExceeded { level } => {
                write!(f, "tile does not fit in level {level}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// A complete evaluation of one mapping.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Processing latency in cycles.
    pub cycles: f64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Energy-delay product.
    pub edp: f64,
    /// Spatial compute utilization in `[0, 1]`.
    pub utilization: f64,
    /// Step 1 output (dense traffic).
    pub dense: DenseTraffic,
    /// Step 2 output (sparse traffic).
    pub sparse: SparseTraffic,
    /// Step 3 output (per-level costs).
    pub uarch: UarchReport,
}

impl Evaluation {
    /// The objective value for a given metric.
    pub fn metric(&self, objective: Objective) -> f64 {
        match objective {
            Objective::Edp => self.edp,
            Objective::Latency => self.cycles,
            Objective::Energy => self.energy_pj,
        }
    }
}

/// A Sparseloop model instance: one workload on one architecture with one
/// SAF specification.
///
/// See the [crate-level documentation](crate) for a full example.
#[derive(Debug, Clone)]
pub struct Model {
    workload: Workload,
    arch: Architecture,
    safs: SafSpec,
    energy: EnergyTable,
    capacity_mode: CapacityMode,
    /// Memo of format footprint analyses, shared by the capacity
    /// precheck and the sparse modeling step. Standalone models own a
    /// private cache; session-built models share the session's (clones
    /// share either way — the cache is a performance artifact, and its
    /// keying identity is fixed by `format_slots`).
    format_cache: Arc<sparse::FormatAnalysisCache>,
    /// Cache slot per `(level, tensor)`, row-major. See
    /// [`sparse::FormatAnalysisCache`] for the soundness contract.
    format_slots: Vec<u64>,
}

impl Model {
    /// Builds a model with the default 45 nm energy table and
    /// expected-occupancy capacity checking.
    ///
    /// The workload's density models are wrapped in per-tile-shape
    /// memoization caches ([`Workload::memoized`]): search evaluates many
    /// candidates whose tiles repeat shapes, so occupancy statistics and
    /// distributions are computed once per shape.
    pub fn new(workload: Workload, arch: Architecture, safs: SafSpec) -> Self {
        let num_tensors = workload.einsum().tensors().len();
        // private cache: one slot per (level, tensor) pair, whose format
        // and density model are fixed for the model's lifetime
        let format_slots = (0..arch.num_levels() * num_tensors)
            .map(|i| i as u64)
            .collect();
        Model {
            workload: workload.memoized(),
            arch,
            safs,
            energy: EnergyTable::default_45nm(),
            capacity_mode: CapacityMode::Expected,
            format_cache: Arc::new(sparse::FormatAnalysisCache::default()),
            format_slots,
        }
    }

    /// Builds a model whose format analyses go through a shared
    /// session cache with session-interned slots (see
    /// [`EvalSession`](crate::EvalSession)). The caller guarantees the
    /// slot ids respect the cache's soundness contract.
    pub(crate) fn with_session_cache(
        workload: Workload,
        arch: Architecture,
        safs: SafSpec,
        format_cache: Arc<sparse::FormatAnalysisCache>,
        format_slots: Vec<u64>,
    ) -> Self {
        debug_assert_eq!(
            format_slots.len(),
            arch.num_levels() * workload.einsum().tensors().len()
        );
        Model {
            workload: workload.memoized(),
            arch,
            safs,
            energy: EnergyTable::default_45nm(),
            capacity_mode: CapacityMode::Expected,
            format_cache,
            format_slots,
        }
    }

    /// The model's view into its format-analysis cache.
    fn cache_view(&self) -> sparse::FormatCacheView<'_> {
        sparse::FormatCacheView {
            cache: &self.format_cache,
            slots: &self.format_slots,
            num_tensors: self.workload.einsum().tensors().len(),
        }
    }

    /// Hit/miss/entry counters of the format-analysis cache this model
    /// reads (the session's cache for session-built models). Misses
    /// count real `TensorFormat::analyze` runs.
    pub fn format_cache_stats(&self) -> MemoStats {
        self.format_cache.stats()
    }

    /// Builder-style: switches to worst-case capacity checking.
    pub fn with_worst_case_capacity(mut self) -> Self {
        self.capacity_mode = CapacityMode::WorstCase;
        self
    }

    /// The workload under evaluation.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The architecture under evaluation.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The SAF specification.
    pub fn safs(&self) -> &SafSpec {
        &self.safs
    }

    /// Cheap capacity pre-pass: whether every storage level can hold its
    /// resident tiles (payload plus metadata, under the model's
    /// [`CapacityMode`]) — without running any traffic math.
    ///
    /// For structurally valid mappings (everything a [`Mapspace`]
    /// generates), `false` is returned exactly when
    /// [`evaluate`](Model::evaluate) would return
    /// [`EvalError::CapacityExceeded`]: tile shapes are derived the same
    /// way as the dataflow step derives them, occupancies come from the
    /// same (memoized) format/density analysis, and the fit rule is the
    /// shared [`uarch::level_fits`]. Mappings that fail the cheap
    /// structural guards return `true` so the full pipeline gets to
    /// report the richer [`EvalError::InvalidMapping`]; full validation
    /// is deliberately *not* repeated here — it would cost a significant
    /// fraction of the evaluation this pre-pass exists to avoid.
    ///
    /// The mapper's pruned search paths call this before the 3-step
    /// pipeline, skipping the dense→sparse→uarch evaluation for
    /// candidates whose tiles cannot fit.
    pub fn precheck(&self, mapping: &Mapping) -> bool {
        let einsum = self.workload.einsum();
        let num_dims = einsum.dims().len();
        let num_tensors = einsum.tensors().len();
        let num_levels = self.arch.num_levels();
        // structural guards only — enough to make the arithmetic below
        // well-defined; evaluate() performs the full validation
        if mapping.num_levels() != num_levels
            || mapping
                .keep_matrix()
                .iter()
                .any(|row| row.len() < num_tensors)
            || mapping
                .nests()
                .iter()
                .flatten()
                .any(|lp| lp.dim.0 >= num_dims)
        {
            return true;
        }
        // Per-dimension bounds of the tile held at each level: the
        // product of loop bounds at-and-below the level. One reverse
        // pass, innermost to outermost, checking capacity as levels
        // complete.
        let mut bounds = vec![1u64; num_dims];
        for l in (0..num_levels).rev() {
            for lp in &mapping.nests()[l] {
                bounds[lp.dim.0] *= lp.bound;
            }
            let spec = &self.arch.levels()[l];
            if spec.capacity_words.is_none() {
                continue; // unbounded levels always fit
            }
            let mut occupancy_words = 0.0f64;
            let mut occupancy_metadata_bits = 0.0f64;
            for t in 0..num_tensors {
                let tid = TensorId(t);
                if !mapping.keeps(l, tid) {
                    continue;
                }
                let shape = einsum.tensor_tile_shape(tid, &bounds);
                match self.safs.format_at(l, tid) {
                    Some(format) => {
                        let held = self.cache_view().analyze(
                            l,
                            tid,
                            format,
                            &shape,
                            self.workload.density(tid).as_ref(),
                        );
                        let (words, meta) = match self.capacity_mode {
                            CapacityMode::Expected => (held.payload_words, held.metadata_bits),
                            CapacityMode::WorstCase => {
                                (held.max_payload_words, held.max_metadata_bits)
                            }
                        };
                        occupancy_words += words;
                        occupancy_metadata_bits += meta;
                    }
                    None => {
                        // uncompressed: dense footprint in both modes
                        occupancy_words += shape.iter().product::<u64>().max(1) as f64;
                    }
                }
            }
            if !uarch::level_fits(spec, occupancy_words, occupancy_metadata_bits) {
                return false;
            }
        }
        true
    }

    /// Incremental precheck against the scratch's cached per-level
    /// verdicts. `change = Some(cl)` asserts (per the enumeration-stream
    /// [`ChangeDepth`] contract) that the held tiles of levels `0..=cl`
    /// are unchanged relative to the mapping of the previous call into
    /// this scratch — those levels' cached occupancies and fit verdicts
    /// are reused; deeper levels recompute. `None` recomputes all
    /// levels, which is always sound. Returns exactly what
    /// [`precheck`](Model::precheck) returns.
    pub(crate) fn precheck_incremental(
        &self,
        mapping: &Mapping,
        change: Depth,
        s: &mut PrecheckScratch,
    ) -> bool {
        let einsum = self.workload.einsum();
        let num_dims = einsum.dims().len();
        let num_tensors = einsum.tensors().len();
        let num_levels = self.arch.num_levels();
        // structural guards only — identical to `precheck` (the full
        // pipeline reports the richer error for malformed mappings)
        if mapping.num_levels() != num_levels
            || mapping
                .keep_matrix()
                .iter()
                .any(|row| row.len() < num_tensors)
            || mapping
                .nests()
                .iter()
                .flatten()
                .any(|lp| lp.dim.0 >= num_dims)
        {
            // the cache no longer tracks the candidate chain
            s.prefix_valid = 0;
            return true;
        }
        if s.levels.len() != num_levels {
            s.levels.clear();
            s.levels.resize(num_levels, LevelCheck::default());
            s.prefix_valid = 0;
        }
        let reuse = match change {
            None => 0,
            Some(cl) => cl.saturating_add(1).min(s.prefix_valid).min(num_levels),
        };
        // cached prefix verdicts: any cached failure rejects outright
        // (its level's held tiles — and therefore its occupancy — are
        // unchanged, so the verdict transfers to this candidate)
        if s.levels[..reuse].iter().any(|lc| !lc.fits) {
            s.prefix_valid = reuse;
            return false;
        }
        // recompute the suffix, innermost to outermost, accumulating the
        // per-dimension bounds of the tile held at each level
        s.bounds.clear();
        s.bounds.resize(num_dims, 1u64);
        for l in (reuse..num_levels).rev() {
            for lp in &mapping.nests()[l] {
                s.bounds[lp.dim.0] *= lp.bound;
            }
            let spec = &self.arch.levels()[l];
            if spec.capacity_words.is_none() {
                s.levels[l] = LevelCheck { fits: true }; // unbounded levels always fit
                continue;
            }
            let mut occupancy_words = 0.0f64;
            let mut occupancy_metadata_bits = 0.0f64;
            for t in 0..num_tensors {
                let tid = TensorId(t);
                if !mapping.keeps(l, tid) {
                    continue;
                }
                einsum.tensor_tile_shape_into(tid, &s.bounds, &mut s.shape);
                match self.safs.format_at(l, tid) {
                    Some(format) => {
                        let held = self.cache_view().analyze(
                            l,
                            tid,
                            format,
                            &s.shape,
                            self.workload.density(tid).as_ref(),
                        );
                        let (words, meta) = match self.capacity_mode {
                            CapacityMode::Expected => (held.payload_words, held.metadata_bits),
                            CapacityMode::WorstCase => {
                                (held.max_payload_words, held.max_metadata_bits)
                            }
                        };
                        occupancy_words += words;
                        occupancy_metadata_bits += meta;
                    }
                    None => {
                        // uncompressed: dense footprint in both modes
                        occupancy_words += s.shape.iter().product::<u64>().max(1) as f64;
                    }
                }
            }
            let fits = uarch::level_fits(spec, occupancy_words, occupancy_metadata_bits);
            s.levels[l] = LevelCheck { fits };
            if !fits {
                // the walk stops here. Every level from `l` inward was
                // written this round; if the walk reached `reuse` the
                // whole array now describes this mapping (and the stored
                // failing verdict lets the *next* candidate fast-reject
                // from cache when its unchanged prefix covers `l`).
                // Failing earlier leaves the gap `reuse..l` stale, so
                // only the reused prefix stays valid.
                s.prefix_valid = if l == reuse { num_levels } else { reuse };
                return false;
            }
        }
        s.prefix_valid = num_levels;
        true
    }

    /// The objective metric of one mapping through the scratch-resident
    /// pipeline: validate → dense (prefix-incremental) → sparse → uarch,
    /// materializing no [`Evaluation`]. Returns the metric (`None` for
    /// invalid/over-capacity mappings, exactly when
    /// [`evaluate`](Model::evaluate) errors) plus whether the dense
    /// prefix cache was updated to this mapping.
    pub(crate) fn evaluate_metric_incremental(
        &self,
        mapping: &Mapping,
        objective: Objective,
        change: Depth,
        s: &mut EvalScratch,
    ) -> (Option<f64>, bool) {
        if mapping
            .validate_with(self.workload.einsum(), &self.arch, &mut s.validate_buf)
            .is_err()
        {
            return (None, false);
        }
        let change_level = change.map(|cl| cl.min(self.arch.num_levels()));
        dataflow::analyze_into(self.workload.einsum(), mapping, change_level, &mut s.dense);
        sparse::analyze_into(
            &self.workload,
            s.dense.traffic(),
            &self.safs,
            Some(&self.cache_view()),
            &mut s.sparse,
        );
        uarch::analyze_into(
            &self.arch,
            s.sparse.traffic(),
            &self.energy,
            self.capacity_mode,
            &mut s.uarch,
        );
        if !s.uarch.valid {
            return (None, true);
        }
        let metric = match objective {
            Objective::Edp => s.uarch.edp(),
            Objective::Latency => s.uarch.cycles,
            Objective::Energy => s.uarch.energy_pj,
        };
        (Some(metric), true)
    }

    /// [`precheck`](Model::precheck) reusing `scratch`'s buffers (no
    /// per-call allocation once warm). No prefix relation is assumed —
    /// this is the safe external entry point; the prefix-incremental
    /// path runs inside the mapper's worker machinery.
    pub fn precheck_with(&self, mapping: &Mapping, scratch: &mut EvalScratch) -> bool {
        self.precheck_incremental(mapping, None, &mut scratch.precheck)
    }

    /// The `objective` metric of `mapping` through the scratch-resident
    /// pipeline (`None` exactly when [`evaluate`](Model::evaluate)
    /// errors), reusing `scratch`'s buffers without assuming any prefix
    /// relation. Bit-identical to
    /// `evaluate(mapping).ok().map(|e| e.metric(objective))`.
    pub fn evaluate_metric_with(
        &self,
        mapping: &Mapping,
        objective: Objective,
        scratch: &mut EvalScratch,
    ) -> Option<f64> {
        self.evaluate_metric_incremental(mapping, objective, None, scratch)
            .0
    }

    /// Evaluates one mapping through all three modeling steps.
    ///
    /// # Errors
    /// [`EvalError::InvalidMapping`] if the mapping fails structural
    /// validation, [`EvalError::CapacityExceeded`] if tiles do not fit.
    pub fn evaluate(&self, mapping: &Mapping) -> Result<Evaluation, EvalError> {
        mapping
            .validate(self.workload.einsum(), &self.arch)
            .map_err(EvalError::InvalidMapping)?;
        let dense = dataflow::analyze(self.workload.einsum(), mapping);
        let sparse = sparse::analyze_with_cache(
            &self.workload,
            &dense,
            &self.safs,
            Some(&self.cache_view()),
        );
        let uarch = uarch::analyze(&self.arch, &sparse, &self.energy, self.capacity_mode);
        if !uarch.valid {
            // the report is owned and the error path diverges: move the
            // level name out instead of cloning per rejected candidate
            return Err(EvalError::CapacityExceeded {
                level: uarch.overflow_level.unwrap_or_default(),
            });
        }
        let utilization =
            dense.utilized_parallelism as f64 / self.arch.compute().instances.max(1) as f64;
        Ok(Evaluation {
            cycles: uarch.cycles,
            energy_pj: uarch.energy_pj,
            edp: uarch.edp(),
            utilization,
            dense,
            sparse,
            uarch,
        })
    }

    /// The model as a two-stage mapper evaluator: [`Model::precheck`]
    /// prunes capacity-infeasible candidates, the full pipeline scores
    /// the rest under `objective`.
    pub fn evaluator(&self, objective: Objective) -> ModelEvaluator<'_> {
        ModelEvaluator {
            model: self,
            objective,
        }
    }

    /// Like [`evaluator`](Model::evaluator), but with scratch arenas and
    /// prefix-incremental caching disabled: every candidate runs the
    /// full allocating pipeline. Winners, objectives and counters are
    /// bit-identical to the incremental evaluator by contract; this
    /// reference exists for parity tests and before/after benchmarks.
    pub fn evaluator_from_scratch(&self, objective: Objective) -> FromScratchEvaluator<'_> {
        FromScratchEvaluator(self.evaluator(objective))
    }

    /// Searches a mapspace for the best mapping under `objective`.
    /// Returns `None` if no candidate mapping is valid.
    ///
    /// Candidates stream out of the mapspace lazily and pass through the
    /// capacity precheck before the full pipeline runs (see
    /// [`Model::precheck`]); one worker walks the whole stream.
    pub fn search(
        &self,
        space: &Mapspace,
        mapper: Mapper,
        objective: Objective,
    ) -> Option<(Mapping, Evaluation)> {
        self.search_sharded_counted(space, mapper, objective, 1).0
    }

    /// [`search_sharded_counted`](Model::search_sharded_counted) at
    /// `threads` shards (one when `None`).
    pub fn search_parallel_counted(
        &self,
        space: &Mapspace,
        mapper: Mapper,
        objective: Objective,
        threads: Option<usize>,
    ) -> (Option<(Mapping, Evaluation)>, SearchStats) {
        self.search_sharded_counted(space, mapper, objective, threads.unwrap_or(1))
    }

    /// The model's search driver ([`Mapper::search_sharded_counted`]):
    /// the candidate stream is walked in `shards` disjoint,
    /// collectively exhaustive sub-streams (split on the outermost
    /// factorization dimensions, see [`Mapspace::shards`]) evaluated
    /// concurrently, and shard winners merge under the deterministic
    /// `(objective, candidate position)` reduction — results are
    /// bit-identical at any shard count; `shards <= 1` is one sequential
    /// walk. The run's counters are returned even when no candidate is
    /// valid: a fruitless search still walked its stream, and batch
    /// throughput accounting wants that work visible.
    pub fn search_sharded_counted(
        &self,
        space: &Mapspace,
        mapper: Mapper,
        objective: Objective,
        shards: usize,
    ) -> (Option<(Mapping, Evaluation)>, SearchStats) {
        let (result, stats) =
            mapper.search_sharded_counted(space, &self.evaluator(objective), shards);
        let outcome = result.map(|r| {
            let eval = self
                .evaluate(&r.mapping)
                .expect("winning mapping must re-evaluate");
            (r.mapping, eval)
        });
        (outcome, stats)
    }

    /// Evaluates **one** shard of a sharded search on this process (the
    /// worker half of a multi-process search), returning the raw local
    /// winner — `(objective bits, globally comparable candidate key,
    /// mapping)` — plus counters, with *no* winner re-evaluation.
    /// Every shard's return, fed to the batch driver as
    /// [`ReturnedShards`](crate::ReturnedShards), reproduces
    /// [`search_sharded_counted`](Model::search_sharded_counted)
    /// bit-identically.
    pub fn search_shard_counted(
        &self,
        space: &Mapspace,
        mapper: Mapper,
        objective: Objective,
        shard: usize,
        shards: usize,
    ) -> (Option<sparseloop_mapping::ShardWinner>, SearchStats) {
        mapper.search_shard_counted(space, &self.evaluator(objective), shard, shards)
    }

    /// Convenience: builds the default all-temporal mapspace for this
    /// model and searches it.
    pub fn search_default(
        &self,
        mapper: Mapper,
        objective: Objective,
    ) -> Option<(Mapping, Evaluation)> {
        let space = Mapspace::all_temporal(self.workload.einsum(), &self.arch);
        self.search(&space, mapper, objective)
    }
}

/// [`CandidateEvaluator`] adapter binding a [`Model`] to an
/// [`Objective`] (see [`Model::evaluator`]).
///
/// The stateless `precheck` / `evaluate` pair runs the full pipeline per
/// call; the [`worker`](CandidateEvaluator::worker) override hands each
/// search walk a worker holding one [`EvalScratch`] arena,
/// checked out of the process-wide pool for the walk's lifetime —
/// allocation-free, prefix-incremental, and bit-identical by contract
/// (property-tested in `tests/prop_model.rs`).
#[derive(Debug, Clone, Copy)]
pub struct ModelEvaluator<'a> {
    model: &'a Model,
    objective: Objective,
}

impl CandidateEvaluator for ModelEvaluator<'_> {
    fn precheck(&self, mapping: &Mapping) -> bool {
        self.model.precheck(mapping)
    }

    fn evaluate(&self, mapping: &Mapping) -> Option<f64> {
        self.model
            .evaluate(mapping)
            .ok()
            .map(|e| e.metric(self.objective))
    }

    fn worker(&self) -> Box<dyn WorkerEvaluator + '_> {
        Box::new(ModelWorker {
            model: self.model,
            objective: self.objective,
            scratch: SCRATCH_POOL.checkout(),
            depth_pre: None,
            depth_eval: None,
            just_prechecked: false,
        })
    }
}

/// The per-walk incremental evaluator behind [`ModelEvaluator`]: one
/// pooled [`EvalScratch`] arena plus the composed divergence of that
/// arena's caches from the candidate stream.
///
/// Change depths arriving from the stream are *relative to the previous
/// stream candidate*; the caches are relative to the last candidate each
/// stage actually processed (pruned candidates skip `evaluate`, so the
/// dense cache can lag several candidates behind). The worker composes
/// the per-candidate depths into per-cache divergences — `min` over the
/// chain of intervening changes, `None` once any link is unknown — which
/// is exactly the prefix still shared with the cached state.
struct ModelWorker<'a> {
    model: &'a Model,
    objective: Objective,
    scratch: EvalScratch,
    /// Divergence of the precheck cache from the current candidate.
    depth_pre: Depth,
    /// Divergence of the dense-traffic cache from the current candidate.
    depth_eval: Depth,
    /// Whether the immediately preceding call was `precheck` (whose
    /// depth composition already covered the current candidate).
    just_prechecked: bool,
}

impl Drop for ModelWorker<'_> {
    fn drop(&mut self) {
        SCRATCH_POOL.checkin(std::mem::take(&mut self.scratch));
    }
}

impl WorkerEvaluator for ModelWorker<'_> {
    fn precheck(&mut self, mapping: &Mapping, change: ChangeDepth) -> bool {
        let d = change.reuse_level();
        self.depth_pre = compose(self.depth_pre, d);
        self.depth_eval = compose(self.depth_eval, d);
        let result =
            self.model
                .precheck_incremental(mapping, self.depth_pre, &mut self.scratch.precheck);
        // the precheck cache now describes this candidate (a structural
        // guard trip zeroes `prefix_valid` internally, so "identical" is
        // still sound)
        self.depth_pre = Some(usize::MAX);
        self.just_prechecked = true;
        result
    }

    fn evaluate(&mut self, mapping: &Mapping, change: ChangeDepth) -> Option<f64> {
        if !self.just_prechecked {
            // evaluate without a preceding precheck on the same
            // candidate: account for this stream step ourselves
            let d = change.reuse_level();
            self.depth_pre = compose(self.depth_pre, d);
            self.depth_eval = compose(self.depth_eval, d);
        }
        self.just_prechecked = false;
        let (metric, dense_updated) = self.model.evaluate_metric_incremental(
            mapping,
            self.objective,
            self.depth_eval,
            &mut self.scratch,
        );
        if dense_updated {
            self.depth_eval = Some(usize::MAX);
        }
        metric
    }
}

/// The model's evaluator with scratch arenas and prefix caching
/// *disabled*: every candidate runs the full allocating pipeline (the
/// seed behavior). This is the reference the incremental pipeline is
/// parity-tested and benchmarked against — see
/// [`Model::evaluator_from_scratch`].
#[derive(Debug, Clone, Copy)]
pub struct FromScratchEvaluator<'a>(ModelEvaluator<'a>);

impl CandidateEvaluator for FromScratchEvaluator<'_> {
    fn precheck(&self, mapping: &Mapping) -> bool {
        self.0.precheck(mapping)
    }

    fn evaluate(&self, mapping: &Mapping) -> Option<f64> {
        self.0.evaluate(mapping)
    }
    // default worker(): stateless delegation, no scratch, no prefixes
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseloop_arch::{ArchitectureBuilder, ComponentClass, ComputeSpec, StorageLevel};
    use sparseloop_density::DensityModelSpec;
    use sparseloop_mapping::{MappingBuilder, Mapspace};
    use sparseloop_tensor::einsum::{DimId, Einsum};

    fn model(density_a: f64) -> Model {
        let e = Einsum::matmul(8, 8, 8);
        let w = Workload::new(
            e,
            vec![
                DensityModelSpec::Uniform { density: density_a },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM").with_class(ComponentClass::Dram))
            .level(
                StorageLevel::new("Buffer")
                    .with_capacity(512)
                    .with_instances(1),
            )
            .compute(ComputeSpec::new("MAC", 4))
            .build()
            .unwrap();
        Model::new(w, arch, SafSpec::dense())
    }

    fn mapping() -> Mapping {
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        MappingBuilder::new(2, 3)
            .temporal(0, m, 8)
            .spatial(1, n, 4)
            .temporal(1, n, 2)
            .temporal(1, k, 8)
            .build()
    }

    #[test]
    fn evaluate_full_pipeline() {
        let m = model(0.5);
        let e = m.evaluate(&mapping()).unwrap();
        assert!(e.cycles > 0.0);
        assert!(e.energy_pj > 0.0);
        assert!((e.edp - e.cycles * e.energy_pj).abs() < 1e-6);
        assert!((e.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_mapping_rejected() {
        let m = model(1.0);
        let bad = MappingBuilder::new(2, 3).temporal(0, DimId(0), 3).build();
        assert!(matches!(
            m.evaluate(&bad),
            Err(EvalError::InvalidMapping(_))
        ));
    }

    #[test]
    fn capacity_error_reported() {
        let e = Einsum::matmul(64, 64, 64);
        let w = Workload::dense(e);
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM").with_class(ComponentClass::Dram))
            .level(StorageLevel::new("Buffer").with_capacity(4))
            .compute(ComputeSpec::new("MAC", 1))
            .build()
            .unwrap();
        let model = Model::new(w, arch, SafSpec::dense());
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let map = MappingBuilder::new(2, 3)
            .temporal(0, m, 4)
            .temporal(1, m, 16)
            .temporal(1, n, 64)
            .temporal(1, k, 64)
            .build();
        match model.evaluate(&map) {
            Err(EvalError::CapacityExceeded { level }) => assert_eq!(level, "Buffer"),
            other => panic!("expected capacity error, got {other:?}"),
        }
    }

    #[test]
    fn search_finds_valid_mapping() {
        let m = model(0.5);
        let (best, eval) = m
            .search_default(Mapper::Exhaustive { limit: 2000 }, Objective::Edp)
            .unwrap();
        best.validate(m.workload().einsum(), m.arch()).unwrap();
        assert!(eval.edp > 0.0);
    }

    #[test]
    fn parallel_counted_is_the_driver_at_threads_shards() {
        let m = model(0.5);
        let space = Mapspace::all_temporal(m.workload().einsum(), m.arch());
        let mapper = Mapper::Exhaustive { limit: 2000 };
        let (want, want_stats) = m.search_sharded_counted(&space, mapper, Objective::Edp, 1);
        let (want, want_eval) = want.expect("space holds a valid mapping");
        for threads in [None, Some(1), Some(3)] {
            let (got, stats) = m.search_parallel_counted(&space, mapper, Objective::Edp, threads);
            let (got, eval) = got.expect("space holds a valid mapping");
            assert_eq!(got, want, "threads={threads:?}");
            assert_eq!(eval.edp.to_bits(), want_eval.edp.to_bits());
            assert_eq!(stats, want_stats, "threads={threads:?}");
        }
    }

    #[test]
    fn search_objective_ordering() {
        // The EDP winner over a space containing the hand mapping should
        // be at least as good as the hand mapping.
        let m = model(0.5);
        let space = Mapspace::all_temporal(m.workload().einsum(), m.arch())
            .with_spatial_dims(1, vec![DimId(1)]);
        let (_, best) = m
            .search(&space, Mapper::Exhaustive { limit: 20_000 }, Objective::Edp)
            .unwrap();
        let candidate = m.evaluate(&mapping());
        if let Ok(c) = candidate {
            assert!(best.edp <= c.edp + 1e-9);
        }
    }

    #[test]
    fn sparser_workload_cheaper_with_safs() {
        let a_id = TensorIdHelper::a();
        let mk = |d: f64| {
            let mut m = model(d);
            m.safs = SafSpec::dense()
                .with_format(0, a_id, sparseloop_format::TensorFormat::coo(2))
                .with_format(1, a_id, sparseloop_format::TensorFormat::coo(2))
                .with_skip(1, a_id, vec![a_id])
                .with_skip_compute();
            m.evaluate(&mapping()).unwrap()
        };
        let sparse = mk(0.1);
        let dense = mk(1.0);
        assert!(sparse.energy_pj < dense.energy_pj);
        assert!(sparse.cycles <= dense.cycles);
    }

    struct TensorIdHelper;
    impl TensorIdHelper {
        fn a() -> sparseloop_tensor::einsum::TensorId {
            sparseloop_tensor::einsum::TensorId(0)
        }
    }
}
