//! # sparseloop-core
//!
//! The Sparseloop analytical model (MICRO 2022): fast, accurate, flexible
//! evaluation of sparse (and dense) tensor accelerators.
//!
//! The model runs in the paper's three decoupled steps (Fig. 5):
//!
//! 1. **Dataflow modeling** ([`dataflow`]) — derives *dense traffic*: the
//!    uncompressed data movement and dense compute implied by the mapping,
//!    using Timeloop-style loop-nest analysis (tile footprints, temporal
//!    stationarity, spatial multicast).
//! 2. **Sparse modeling** ([`sparse`]) — filters dense traffic into
//!    *sparse traffic* by applying the design's sparse acceleration
//!    features (SAFs): representation formats shrink moved data and add
//!    metadata; gating/skipping SAFs reclassify accesses into
//!    actual/gated/skipped using statistical leader-tile emptiness from
//!    the density models, with mapping-determined leader tiles (Fig. 10)
//!    and propagation of upper-level eliminations to inner levels.
//! 3. **Micro-architecture modeling** ([`uarch`]) — checks mapping
//!    validity against storage capacities, applies bandwidth throttling,
//!    and produces processing speed (cycles) and energy via the
//!    Accelergy-style backend.
//!
//! The top-level entry point is [`Model`]:
//!
//! ```
//! use sparseloop_core::{Model, Workload, SafSpec};
//! use sparseloop_arch::{ArchitectureBuilder, ComputeSpec, StorageLevel, ComponentClass};
//! use sparseloop_density::DensityModelSpec;
//! use sparseloop_mapping::MappingBuilder;
//! use sparseloop_tensor::einsum::{DimId, Einsum};
//!
//! // Z[m,n] = sum_k A[m,k] B[k,n], A 25% dense, B dense.
//! let e = Einsum::matmul(4, 4, 4);
//! let workload = Workload::new(
//!     e,
//!     vec![
//!         DensityModelSpec::Uniform { density: 0.25 },
//!         DensityModelSpec::Dense,
//!         DensityModelSpec::Dense,
//!     ],
//! );
//! let arch = ArchitectureBuilder::new("demo")
//!     .level(StorageLevel::new("BackingStorage").with_class(ComponentClass::Dram))
//!     .level(StorageLevel::new("Buffer").with_capacity(256))
//!     .compute(ComputeSpec::new("MAC", 4))
//!     .build().unwrap();
//! let (m, n, k) = (DimId(0), DimId(1), DimId(2));
//! let mapping = MappingBuilder::new(2, 3)
//!     .temporal(0, m, 4)
//!     .spatial(1, n, 4)
//!     .temporal(1, k, 4)
//!     .build();
//! let model = Model::new(workload, arch, SafSpec::dense());
//! let eval = model.evaluate(&mapping).unwrap();
//! assert!(eval.cycles > 0.0 && eval.energy_pj > 0.0);
//! ```

pub mod dataflow;
pub mod engine;
pub mod saf;
pub mod scratch;
pub mod session;
pub mod sparse;
pub mod uarch;
pub mod workload;

pub use dataflow::{DenseScratch, DenseTraffic, TensorLevelTraffic};
pub use engine::{EvalError, Evaluation, FromScratchEvaluator, Model, ModelEvaluator, Objective};
pub use saf::{ActionOpt, ComputeSaf, FormatSaf, IntersectionSaf, SafSpec};
pub use scratch::EvalScratch;
pub use session::{
    EvalJob, EvalSession, JobError, JobOutcome, JobPlan, LocalShards, ReturnedShards, SessionStats,
    ShardExecutor,
};
pub use sparse::{ActionBreakdown, SparseCompute, SparseScratch, SparseTensorLevel, SparseTraffic};
pub use uarch::{level_fits, LevelCost, UarchReport};
pub use workload::Workload;

// the cache-counter type surfaced by `Model::format_cache_stats` /
// `EvalSession::format_stats`
pub use sparseloop_density::MemoStats;
