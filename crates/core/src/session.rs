//! Batch evaluation sessions: one shared-cache context for evaluating
//! *many* (design, workload, mapping) combinations.
//!
//! Sparseloop's value proposition is that one analytical model serves
//! thousands of experiments (the paper's Table 5 measures exactly this),
//! but a standalone [`Model`] starts every layer of a multi-layer
//! workload — and every design variant of a sweep — with cold caches.
//! An [`EvalSession`] lifts the two hot memoizations out of the model:
//!
//! * **Density aggregates** — layers whose tensors share a statistical
//!   characterization (same [`DensityModel::cache_key`]) share one
//!   [`Memoized`] wrapper, so occupancy statistics and distributions are
//!   computed once per (statistic, tile shape) across the whole session.
//! * **Format footprint analyses** — the session owns one
//!   `FormatAnalysisCache` whose slots are interned by
//!   `(format, density key)`: two models binding the same format to the
//!   same statistics share every `TensorFormat::analyze` result, across
//!   levels, layers and designs.
//!
//! Results are unchanged by construction — both caches memoize pure
//! functions of their keys — so [`EvalSession::search_batch`] returns
//! bit-identical winners and [`SearchStats`] to running
//! [`Model::search_sharded_counted`] per layer; only the number of
//! underlying analyses shrinks (observable via
//! [`EvalSession::format_stats`]). A batch runs its jobs on up to one
//! scoped thread per core (the caller included), each pulling the next
//! job until none is left, so a batch of many small mapspaces pays one
//! spawn per thread, not one per layer. A search job sharded `n` ways
//! adds `n - 1` threads of its own, so a batch occupies at most
//! `min(cores, jobs) × n` threads.
//!
//! There is one batch driver, [`EvalSession::run_batch`], and its one
//! seam is the [`ShardExecutor`] that walks a search job's shards:
//! [`LocalShards`] on scoped threads, [`ReturnedShards`] from worker
//! processes. Merging, winner re-evaluation, fixed-mapping evaluation,
//! cancellation and [`JobOutcome`] assembly happen in the driver only,
//! so sequential, threaded and multi-process runs reply identically.

use crate::engine::{EvalError, Evaluation, Model, Objective};
use crate::saf::SafSpec;
use crate::sparse::FormatAnalysisCache;
use crate::workload::Workload;
use sparseloop_arch::Architecture;
use sparseloop_density::{DensityKey, DensityModel, MemoStats, Memoized};
use sparseloop_format::TensorFormat;
use sparseloop_mapping::{
    merge_shard_results, Mapper, Mapping, Mapspace, SearchStats, ShardWinner,
};
use std::collections::HashMap;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How one [`EvalJob`] picks its mapping.
#[derive(Debug, Clone)]
pub enum JobPlan {
    /// Evaluate exactly this mapping (validation experiments with
    /// paper-pinned schedules).
    Fixed(Mapping),
    /// Search a mapspace for the best mapping under an objective.
    Search {
        /// The constrained candidate space.
        space: Mapspace,
        /// Search strategy.
        mapper: Mapper,
        /// Metric to minimize.
        objective: Objective,
    },
}

/// One unit of a batch: a workload on an architecture with SAFs, plus
/// the mapping plan.
#[derive(Debug, Clone)]
pub struct EvalJob {
    /// The workload (einsum + density models).
    pub workload: Workload,
    /// The architecture.
    pub arch: Architecture,
    /// The SAF specification bound to the workload's tensors.
    pub safs: SafSpec,
    /// Fixed mapping or mapspace search.
    pub plan: JobPlan,
}

/// Result of one job of a batch.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The chosen (fixed or winning) mapping.
    pub mapping: Mapping,
    /// Its full evaluation.
    pub eval: Evaluation,
    /// Search counters (a fixed-mapping job counts one generated /
    /// evaluated candidate).
    pub stats: SearchStats,
}

/// Why a batch job produced no outcome — kept so scenario failures are
/// diagnosable without re-running the job by hand.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The fixed mapping failed to evaluate (the cause is preserved).
    Eval(EvalError),
    /// The mapspace search exhausted its candidate stream without a
    /// single valid mapping. The counters of the fruitless walk are
    /// preserved so batch throughput accounting still sees the work.
    NoValidCandidate {
        /// Counters of the failed search.
        stats: SearchStats,
    },
    /// The batch's cancellation probe fired before this job ran (an
    /// abandoned ticket, an expired deadline): the job was skipped at a
    /// cancellation checkpoint, not attempted and failed.
    Canceled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Eval(e) => write!(f, "fixed mapping failed: {e}"),
            JobError::NoValidCandidate { stats } => write!(
                f,
                "no valid candidate in the mapspace ({} generated, {} pruned, {} invalid)",
                stats.generated, stats.pruned, stats.invalid
            ),
            JobError::Canceled => write!(f, "job canceled before evaluation"),
        }
    }
}

impl std::error::Error for JobError {}

/// Where a batch's search jobs walk their shards — the one seam of the
/// batch driver ([`EvalSession::run_batch`]). An executor only walks:
/// merging, winner re-evaluation, fixed-mapping evaluation,
/// cancellation and outcome assembly stay in the driver, so every
/// execution mode returns the same replies.
pub trait ShardExecutor: Sync {
    /// Every shard's raw `(local winner, counters)` for search job
    /// `job` (its index in the batch), whose model is `model`.
    fn walk(
        &self,
        job: usize,
        model: &Model,
        space: &Mapspace,
        mapper: Mapper,
        objective: Objective,
    ) -> Vec<(Option<ShardWinner>, SearchStats)>;
}

/// The in-process executor: each search walks its stream in this many
/// shards on scoped threads ([`Mapper::search_shards`]); `<= 1` is one
/// sequential walk.
#[derive(Debug, Clone, Copy)]
pub struct LocalShards(pub usize);

impl ShardExecutor for LocalShards {
    fn walk(
        &self,
        _job: usize,
        model: &Model,
        space: &Mapspace,
        mapper: Mapper,
        objective: Objective,
    ) -> Vec<(Option<ShardWinner>, SearchStats)> {
        mapper.search_shards(space, &model.evaluator(objective), self.0)
    }
}

/// Shards already walked elsewhere — by worker processes, each running
/// [`Model::search_shard_counted`]: `self.0[k][i]` is worker `k`'s raw
/// part of job `i`, one logical shard of its stream. Which worker walked
/// which logical shard does not matter: the parts are merged by
/// `(value, key)` and their stats summed. A worker with no entry for a
/// job contributes nothing.
#[derive(Debug, Clone)]
pub struct ReturnedShards(pub Vec<Vec<(Option<ShardWinner>, SearchStats)>>);

impl ShardExecutor for ReturnedShards {
    fn walk(
        &self,
        job: usize,
        _model: &Model,
        _space: &Mapspace,
        _mapper: Mapper,
        _objective: Objective,
    ) -> Vec<(Option<ShardWinner>, SearchStats)> {
        self.0
            .iter()
            .map(|shard| shard.get(job).cloned().unwrap_or_default())
            .collect()
    }
}

/// Session-wide cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Format-analysis cache counters; `format.misses` is the number of
    /// real `TensorFormat::analyze` runs the whole session performed.
    pub format: MemoStats,
    /// Distinct shared density models interned so far.
    pub density_models: usize,
    /// Distinct format-analysis slots interned so far.
    pub format_slots: usize,
}

impl SessionStats {
    /// Total intern slots held (density models + format slots) — the
    /// quantity session-recycling budgets are expressed in.
    pub fn total_slots(&self) -> usize {
        self.density_models + self.format_slots
    }
}

#[derive(Default)]
struct SessionInner {
    /// `DensityModel::cache_key` -> shared memoized model. The key is a
    /// pre-hashed [`DensityKey`] (packed words, hash computed once at
    /// construction), so the per-`model()` intern probes — the session
    /// hot path at large batch counts — allocate nothing and hash eight
    /// bytes instead of a formatted string.
    densities: HashMap<DensityKey, Arc<dyn DensityModel>>,
    /// `(format, density key)` -> format-cache slot. Keyed by the
    /// [`TensorFormat`] *value* (`Eq + Hash`), so slot identity is tied
    /// to the type itself rather than any printable rendering of it.
    slots: HashMap<(TensorFormat, DensityKey), u64>,
    next_slot: u64,
}

impl SessionInner {
    fn intern_slot(&mut self, format: TensorFormat, density_key: DensityKey) -> u64 {
        *self.slots.entry((format, density_key)).or_insert_with(|| {
            let id = self.next_slot;
            self.next_slot += 1;
            id
        })
    }
}

/// A shared-cache context for batch evaluation; see the
/// [module docs](self).
///
/// The intern maps grow with the number of *distinct* workload
/// statistics evaluated (each shared model additionally caps its own
/// shape caches). A paper-registry run interns a few hundred entries;
/// a long-lived serving session fed an unbounded stream of
/// differently-shaped layers should be recycled periodically (drop and
/// recreate), since issued cache slots stay referenced by live models
/// and therefore cannot be evicted safely.
#[derive(Default)]
pub struct EvalSession {
    format_cache: Arc<FormatAnalysisCache>,
    inner: Mutex<SessionInner>,
}

impl EvalSession {
    /// An empty session.
    pub fn new() -> Self {
        EvalSession::default()
    }

    /// Builds a [`Model`] bound to this session's shared caches.
    ///
    /// Density models with a [`cache_key`](DensityModel::cache_key) are
    /// interned (one shared [`Memoized`] per distinct statistic), and
    /// format-analysis slots are interned by `(format, density key)` —
    /// exactly the identity `TensorFormat::analyze` depends on — so
    /// sharing cannot change any result, only skip recomputation.
    ///
    /// A workload containing any *keyless* model (actual-data) gets a
    /// model-private format cache instead: there is no sharing identity
    /// to intern by, and parking single-use entries in the session cache
    /// would grow it without bound over a long-lived session. Keyed
    /// density models of such a workload still share their memoized
    /// aggregates.
    pub fn model(&self, workload: Workload, arch: Architecture, safs: SafSpec) -> Model {
        let einsum = workload.einsum().clone();
        let num_tensors = einsum.tensors().len();
        let already_memoized = workload.is_memoized();
        let mut inner = self.inner.lock().expect("session interner poisoned");

        let mut models: Vec<Arc<dyn DensityModel>> = Vec::with_capacity(num_tensors);
        let mut density_keys: Vec<Option<DensityKey>> = Vec::with_capacity(num_tensors);
        for t in 0..num_tensors {
            let raw = Arc::clone(workload.density(sparseloop_tensor::einsum::TensorId(t)));
            match raw.cache_key() {
                Some(key) => {
                    let shared = inner
                        .densities
                        .entry(key.clone())
                        .or_insert_with(|| {
                            // don't stack a second cache over an
                            // already-memoized workload's model
                            if already_memoized {
                                raw
                            } else {
                                Memoized::wrap(raw)
                            }
                        })
                        .clone();
                    models.push(shared);
                    density_keys.push(Some(key));
                }
                None => {
                    // no sharing identity: memoize privately
                    models.push(if already_memoized {
                        raw
                    } else {
                        Memoized::wrap(raw)
                    });
                    density_keys.push(None);
                }
            }
        }

        if density_keys.iter().any(Option::is_none) {
            // keyless workload: a standalone model with its private
            // cache and per-(level, tensor) slots — nothing of it is
            // interned into the session
            drop(inner);
            return Model::new(Workload::with_memoized_models(einsum, models), arch, safs);
        }

        let mut format_slots = Vec::with_capacity(arch.num_levels() * num_tensors);
        for level in 0..arch.num_levels() {
            for (t, density_key) in density_keys.iter().enumerate() {
                let slot = match safs.format_at(level, sparseloop_tensor::einsum::TensorId(t)) {
                    Some(format) => {
                        let key = density_key.clone().expect("keyed workload");
                        inner.intern_slot(format.clone(), key)
                    }
                    // formatless (uncompressed) pairs never query the
                    // cache; park them on an unreachable slot
                    None => u64::MAX,
                };
                format_slots.push(slot);
            }
        }
        drop(inner);

        Model::with_session_cache(
            Workload::with_memoized_models(einsum, models),
            arch,
            safs,
            Arc::clone(&self.format_cache),
            format_slots,
        )
    }

    /// Evaluates a whole batch — a multi-layer workload, a design sweep,
    /// or any mix — through the shared caches, each search job walked
    /// in process at `shards` shards ([`LocalShards`]); `None` gives
    /// each search one consumer — a sequential walk with true
    /// `ChangeDepth`s end to end. See [`run_batch`](EvalSession::run_batch).
    pub fn search_batch(
        &self,
        jobs: &[EvalJob],
        shards: Option<usize>,
    ) -> Vec<Result<JobOutcome, JobError>> {
        self.run_batch(jobs, &LocalShards(shards.unwrap_or(1)), None)
    }

    /// The batch driver. Jobs run concurrently on up to one thread per
    /// core (so a batch of fixed-mapping evaluations parallelizes too).
    /// A fixed job evaluates its mapping; a search job gets every
    /// shard's raw walk from `executor`, merges them with
    /// [`merge_shard_results`] and re-evaluates the winner — here and
    /// nowhere else, whichever executor walked the shards.
    ///
    /// Results are per-job and index-aligned with `jobs`: each job's
    /// winner, objective and [`SearchStats`] are bit-identical to
    /// evaluating it through a standalone model at any shard count,
    /// whatever the interleaving (caching is observable only in
    /// [`SessionStats`]). A job returns a [`JobError`] when its mapping
    /// fails to evaluate (the [`EvalError`] is preserved) or its
    /// mapspace holds no valid candidate.
    ///
    /// The optional `cancel` probe is checked at each job seam — the
    /// batch's cancellation checkpoints. A probe returning `true` makes
    /// every not-yet-started job resolve to [`JobError::Canceled`]
    /// instead of running; jobs already past their checkpoint run to
    /// completion (a checkpoint is a *retirement seam*, not a preemption
    /// point), so results that do complete stay bit-identical to an
    /// uncanceled run. This is the serving layer's search mode.
    pub fn run_batch(
        &self,
        jobs: &[EvalJob],
        executor: &dyn ShardExecutor,
        cancel: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Vec<Result<JobOutcome, JobError>> {
        let run = |i: usize, job: &EvalJob| -> Result<JobOutcome, JobError> {
            if cancel.map(|probe| probe()).unwrap_or(false) {
                return Err(JobError::Canceled);
            }
            let model = self.model(job.workload.clone(), job.arch.clone(), job.safs.clone());
            let (mapping, stats) = match &job.plan {
                JobPlan::Fixed(mapping) => {
                    let stats = SearchStats {
                        generated: 1,
                        evaluated: 1,
                        ..SearchStats::default()
                    };
                    (mapping.clone(), stats)
                }
                JobPlan::Search {
                    space,
                    mapper,
                    objective,
                } => {
                    let parts = executor.walk(i, &model, space, *mapper, *objective);
                    match merge_shard_results(parts) {
                        (Some(winner), stats) => (winner.mapping, stats),
                        (None, stats) => return Err(JobError::NoValidCandidate { stats }),
                    }
                }
            };
            model
                .evaluate(&mapping)
                .map(|eval| JobOutcome {
                    mapping,
                    eval,
                    stats,
                })
                .map_err(JobError::Eval)
        };
        // min(cores, jobs) workers, the caller included, each pulling the
        // next job index until the batch runs dry
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<_>> = jobs.iter().map(|_| OnceLock::new()).collect();
        let drain = || loop {
            // Relaxed: the counter only hands out indices; results are
            // published through the OnceLocks and the scope's joins
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else { break };
            // each index is pulled once, so its slot is still empty
            let _ = slots[i].set(run(i, job));
        };
        std::thread::scope(|s| {
            let helpers: Vec<_> = (1..threads.min(jobs.len()))
                .map(|_| s.spawn(drain))
                .collect();
            drain();
            // join explicitly: the scope's implicit join would replace a
            // job's panic payload with a generic message
            for helper in helpers {
                helper
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload));
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every batch job ran"))
            .collect()
    }

    /// Counters of the shared format-analysis cache.
    pub fn format_stats(&self) -> MemoStats {
        self.format_cache.stats()
    }

    /// Session-wide cache statistics.
    pub fn stats(&self) -> SessionStats {
        let inner = self.inner.lock().expect("session interner poisoned");
        SessionStats {
            format: self.format_cache.stats(),
            density_models: inner.densities.len(),
            format_slots: inner.slots.len(),
        }
    }
}

impl std::fmt::Debug for EvalSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EvalSession")
            .field("format", &stats.format)
            .field("density_models", &stats.density_models)
            .field("format_slots", &stats.format_slots)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseloop_arch::{ArchitectureBuilder, ComponentClass, ComputeSpec, StorageLevel};
    use sparseloop_density::DensityModelSpec;
    use sparseloop_format::TensorFormat;
    use sparseloop_tensor::einsum::{Einsum, TensorId};

    /// Like [`LocalShards`], but every candidate runs the full
    /// allocating pipeline — scratch arenas and prefix-incremental
    /// caching disabled (see [`Model::evaluator_from_scratch`]): the
    /// reference the incremental batch must match bit for bit.
    struct FromScratchShards(usize);

    impl ShardExecutor for FromScratchShards {
        fn walk(
            &self,
            _job: usize,
            model: &Model,
            space: &Mapspace,
            mapper: Mapper,
            objective: Objective,
        ) -> Vec<(Option<ShardWinner>, SearchStats)> {
            mapper.search_shards(space, &model.evaluator_from_scratch(objective), self.0)
        }
    }

    fn arch() -> Architecture {
        ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM").with_class(ComponentClass::Dram))
            .level(StorageLevel::new("Buf").with_capacity(2048))
            .compute(ComputeSpec::new("MAC", 4))
            .build()
            .unwrap()
    }

    fn layer(density: f64) -> (Workload, SafSpec) {
        let e = Einsum::matmul(16, 16, 16);
        let w = Workload::new(
            e.clone(),
            vec![
                DensityModelSpec::Uniform { density },
                DensityModelSpec::Dense,
                DensityModelSpec::Dense,
            ],
        );
        let a = e.tensor_id("A").unwrap();
        let safs = SafSpec::dense()
            .with_format(0, a, TensorFormat::coo(2))
            .with_format(1, a, TensorFormat::coo(2))
            .with_skip(1, a, vec![a]);
        (w, safs)
    }

    fn job(density: f64) -> EvalJob {
        let (workload, safs) = layer(density);
        let arch = arch();
        let space = Mapspace::all_temporal(workload.einsum(), &arch);
        EvalJob {
            workload,
            arch,
            safs,
            plan: JobPlan::Search {
                space,
                mapper: Mapper::Exhaustive { limit: 500 },
                objective: Objective::Edp,
            },
        }
    }

    #[test]
    fn session_model_matches_standalone_model() {
        let (w, safs) = layer(0.25);
        let session = EvalSession::new();
        let bound = session.model(w.clone(), arch(), safs.clone());
        let standalone = Model::new(w, arch(), safs);
        let mapping = sparseloop_mapping::MappingBuilder::new(2, 3)
            .temporal(0, sparseloop_tensor::einsum::DimId(0), 16)
            .temporal(1, sparseloop_tensor::einsum::DimId(1), 16)
            .temporal(1, sparseloop_tensor::einsum::DimId(2), 16)
            .build();
        let a = bound.evaluate(&mapping).unwrap();
        let b = standalone.evaluate(&mapping).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.energy_pj, b.energy_pj);
        assert_eq!(a.edp, b.edp);
    }

    #[test]
    fn identical_layers_share_density_models_and_slots() {
        let session = EvalSession::new();
        let (w1, s1) = layer(0.25);
        let (w2, s2) = layer(0.25);
        let _ = session.model(w1, arch(), s1);
        let stats1 = session.stats();
        let _ = session.model(w2, arch(), s2);
        let stats2 = session.stats();
        // the second identical layer interned nothing new
        assert_eq!(stats1.density_models, stats2.density_models);
        assert_eq!(stats1.format_slots, stats2.format_slots);
    }

    #[test]
    fn shared_session_performs_fewer_format_analyses() {
        // Two identical layers evaluated through one session must run
        // fewer real format analyses than two standalone models, because
        // the second layer's queries hit the shared cache.
        let standalone_misses: u64 = (0..2)
            .map(|_| {
                let (w, safs) = layer(0.25);
                let m = Model::new(w, arch(), safs);
                let space = Mapspace::all_temporal(m.workload().einsum(), m.arch());
                m.search(&space, Mapper::Exhaustive { limit: 500 }, Objective::Edp)
                    .unwrap();
                m.format_cache_stats().misses
            })
            .sum();
        let session = EvalSession::new();
        let outcomes = session.search_batch(&[job(0.25), job(0.25)], Some(2));
        assert!(outcomes.iter().all(|o| o.is_ok()));
        let shared = session.format_stats();
        assert!(
            shared.misses < standalone_misses,
            "session ran {} analyses, standalone pair ran {standalone_misses}",
            shared.misses
        );
        assert!(shared.hits > 0);
    }

    #[test]
    fn different_densities_do_not_share_slots() {
        let session = EvalSession::new();
        let (w1, s1) = layer(0.25);
        let (w2, s2) = layer(0.5);
        let _ = session.model(w1, arch(), s1);
        let before = session.stats();
        let _ = session.model(w2, arch(), s2);
        let after = session.stats();
        assert!(after.density_models > before.density_models);
        assert!(after.format_slots > before.format_slots);
    }

    #[test]
    fn sharded_batch_matches_plain_batch_bit_identically() {
        let jobs = [job(0.25), job(0.5), job(0.25)];
        let session = EvalSession::new();
        let reference = session.search_batch(&jobs, None);
        for shards in [1, 2, 3, 7] {
            let sharded_session = EvalSession::new();
            let sharded = sharded_session.search_batch(&jobs, Some(shards));
            for (a, b) in sharded.iter().zip(&reference) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.mapping, b.mapping, "shards={shards}");
                assert_eq!(a.eval.edp, b.eval.edp, "shards={shards}");
                assert_eq!(a.eval.cycles, b.eval.cycles, "shards={shards}");
                assert_eq!(a.eval.energy_pj, b.eval.energy_pj, "shards={shards}");
                assert_eq!(a.stats, b.stats, "shards={shards}");
            }
        }
    }

    #[test]
    fn from_scratch_batch_matches_incremental_batch() {
        // the reference pipeline runs the same driver: same winners,
        // evaluations and counters, sequential or sharded
        let jobs = [job(0.25), job(0.5)];
        let reference = EvalSession::new().search_batch(&jobs, None);
        for shards in [None, Some(3)] {
            let executor = FromScratchShards(shards.unwrap_or(1));
            let from_scratch = EvalSession::new().run_batch(&jobs, &executor, None);
            for (a, b) in from_scratch.iter().zip(&reference) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.mapping, b.mapping, "shards={shards:?}");
                assert_eq!(
                    a.eval.edp.to_bits(),
                    b.eval.edp.to_bits(),
                    "shards={shards:?}"
                );
                assert_eq!(a.stats, b.stats, "shards={shards:?}");
            }
        }
    }

    #[test]
    fn canceled_probe_skips_jobs_at_the_checkpoint() {
        let jobs = [job(0.25), job(0.5)];
        let session = EvalSession::new();
        let results = session.run_batch(&jobs, &LocalShards(2), Some(&|| true));
        assert!(results.iter().all(|r| matches!(r, Err(JobError::Canceled))));
        // an unfired probe changes nothing: bit-identical to no probe
        let plain = session.search_batch(&jobs, Some(2));
        let probed = session.run_batch(&jobs, &LocalShards(2), Some(&|| false));
        for (a, b) in probed.iter().zip(&plain) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.mapping, b.mapping);
            assert_eq!(a.eval.edp, b.eval.edp);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn shard_worker_halves_reassemble_the_model_search() {
        // Model::search_shard_counted over every shard index, fed to the
        // driver as returned shards, equals the in-process batch: the
        // driver merges, re-evaluates and evaluates fixed jobs itself
        let (workload, safs) = layer(0.25);
        let fixed = EvalJob {
            plan: JobPlan::Fixed(
                sparseloop_mapping::MappingBuilder::new(2, 3)
                    .temporal(0, sparseloop_tensor::einsum::DimId(0), 16)
                    .temporal(1, sparseloop_tensor::einsum::DimId(1), 16)
                    .temporal(1, sparseloop_tensor::einsum::DimId(2), 16)
                    .build(),
            ),
            ..job(0.25)
        };
        // a one-word buffer holds no tile: every candidate is invalid
        let tiny = ArchitectureBuilder::new("tiny")
            .level(StorageLevel::new("DRAM").with_class(ComponentClass::Dram))
            .level(StorageLevel::new("Buf").with_capacity(1))
            .compute(ComputeSpec::new("MAC", 4))
            .build()
            .unwrap();
        let invalid = EvalJob {
            plan: JobPlan::Search {
                space: Mapspace::all_temporal(workload.einsum(), &tiny),
                mapper: Mapper::Exhaustive { limit: 500 },
                objective: Objective::Edp,
            },
            workload,
            arch: tiny,
            safs,
        };
        let jobs = [fixed, job(0.25), invalid];
        let session = EvalSession::new();
        let walk_shards = |k: usize, n: usize| -> Vec<_> {
            jobs.iter()
                .map(|job| match &job.plan {
                    JobPlan::Fixed(_) => (None, SearchStats::default()),
                    JobPlan::Search {
                        space,
                        mapper,
                        objective,
                    } => session
                        .model(job.workload.clone(), job.arch.clone(), job.safs.clone())
                        .search_shard_counted(space, *mapper, *objective, k, n),
                })
                .collect()
        };
        for n in [1, 2, 3] {
            let want = session.search_batch(&jobs, Some(n));
            let returned = ReturnedShards((0..n).map(|k| walk_shards(k, n)).collect());
            let got = session.run_batch(&jobs, &returned, None);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.mapping, b.mapping, "n={n} job {i}");
                        assert_eq!(a.eval.edp.to_bits(), b.eval.edp.to_bits(), "n={n} job {i}");
                        assert_eq!(a.stats, b.stats, "n={n} job {i}");
                    }
                    (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err(), "n={n} job {i}"),
                }
            }
            assert!(matches!(
                &got[2],
                Err(JobError::NoValidCandidate { stats }) if stats.generated > 0 && stats.evaluated == 0
            ));
            // a shard with no entries contributes nothing: same reply as
            // that shard reporting an empty walk for every job
            let mut missing = returned.clone();
            missing.0[n - 1].clear();
            let mut empty = returned.clone();
            empty.0[n - 1] = vec![(None, SearchStats::default()); jobs.len()];
            let (a, b) = (
                session.run_batch(&jobs, &missing, None),
                session.run_batch(&jobs, &empty, None),
            );
            for (a, b) in a.iter().zip(&b) {
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.mapping, b.mapping, "n={n}");
                        assert_eq!(a.stats, b.stats, "n={n}");
                    }
                    (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err(), "n={n}"),
                }
            }
            let search = a[1].as_ref().map(|o| o.stats.generated);
            let others: usize = (0..n - 1).map(|k| returned.0[k][1].1.generated).sum();
            match search {
                Ok(generated) => assert_eq!(generated, others, "n={n}"),
                Err(e) => assert_eq!(n, 1, "only a lone missing shard empties the search: {e}"),
            }
        }
    }

    #[test]
    fn fixed_plan_evaluates_without_search() {
        let (workload, safs) = layer(0.5);
        let mapping = sparseloop_mapping::MappingBuilder::new(2, 3)
            .temporal(0, sparseloop_tensor::einsum::DimId(0), 16)
            .temporal(1, sparseloop_tensor::einsum::DimId(1), 16)
            .temporal(1, sparseloop_tensor::einsum::DimId(2), 16)
            .build();
        let session = EvalSession::new();
        let out = session.search_batch(
            &[EvalJob {
                workload,
                arch: arch(),
                safs,
                plan: JobPlan::Fixed(mapping.clone()),
            }],
            None,
        );
        let outcome = out[0].as_ref().expect("fixed mapping evaluates");
        assert_eq!(outcome.mapping, mapping);
        assert_eq!(outcome.stats.evaluated, 1);
    }

    #[test]
    fn actual_data_models_stay_private() {
        use sparseloop_density::ActualData;
        use sparseloop_tensor::{point::Shape, SparseTensor};
        let e = Einsum::matmul(4, 4, 4);
        let mk = || {
            let t = SparseTensor::from_triplets(
                Shape::new(vec![4, 4]),
                &[(vec![0, 0], 1.0), (vec![2, 3], 1.0)],
            );
            Workload::with_models(
                e.clone(),
                vec![
                    Arc::new(ActualData::new(t)) as Arc<dyn DensityModel>,
                    DensityModelSpec::Dense.instantiate(&[4, 4]),
                    DensityModelSpec::Dense.instantiate(&[4, 4]),
                ],
            )
        };
        let session = EvalSession::new();
        let a = e.tensor_id("A").unwrap();
        let safs = SafSpec::dense().with_format(0, a, TensorFormat::coo(2));
        let m1 = session.model(mk(), arch(), safs.clone());
        let before = session.stats();
        let _ = session.model(mk(), arch(), safs);
        let after = session.stats();
        // keyless workloads intern nothing: no shared density models and
        // no session format slots — a long-lived session cannot be grown
        // by actual-data traffic
        assert_eq!(before.density_models, after.density_models);
        assert_eq!(before.format_slots, after.format_slots);
        assert_eq!(after.format.queries(), 0, "session cache untouched");
        // the private model still caches its own analyses
        let mapping = sparseloop_mapping::MappingBuilder::new(2, 3)
            .temporal(0, sparseloop_tensor::einsum::DimId(0), 4)
            .temporal(1, sparseloop_tensor::einsum::DimId(1), 4)
            .temporal(1, sparseloop_tensor::einsum::DimId(2), 4)
            .build();
        m1.evaluate(&mapping).unwrap();
        assert!(m1.format_cache_stats().queries() > 0);
        let _ = TensorId(0);
    }
}
