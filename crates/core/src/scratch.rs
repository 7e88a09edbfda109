//! Allocation-free evaluation scratch arenas.
//!
//! Candidate evaluation is the single hottest path in the system: a
//! mapspace search runs `precheck` and the dense→sparse→uarch pipeline
//! thousands of times against one model, and the seed implementation
//! allocated fresh vectors, hash maps and strings for every candidate.
//! [`EvalScratch`] bundles every buffer those stages need — per-level
//! capacity checks, the dense traffic table, sparse trackers, the uarch
//! report — so a search walk allocates once and reuses the arena for
//! every candidate it evaluates. Walks check their arena out of one
//! process-wide pool and return it when they end, so grown buffers also
//! carry over to later searches and serving requests, whichever thread
//! runs them.
//!
//! On top of plain buffer reuse, the precheck and dataflow stages are
//! *prefix-incremental*: the enumeration streams report each candidate's
//! `ChangeDepth` (the outermost loop position that differs from the
//! previous candidate), and everything derived from the unchanged
//! outer-loop prefix — per-level tile bounds, occupancies, format
//! analyses, outer storage-boundary traffic — is reused from the arena
//! instead of recomputed. Results are bit-identical to the from-scratch
//! pipeline by construction (reused values *are* the previous
//! computation's values, and those are provably unchanged), and
//! property-tested in `tests/prop_model.rs`.
//!
//! # Contract for callers
//!
//! A scratch is a cache keyed by "the mapping of the previous call".
//! Callers must not hold references into it across calls, must feed one
//! scratch from one candidate stream at a time, and must pass a `None`
//! change (full recompute) whenever the relation to the previous call's
//! mapping is unknown. The [`Model`](crate::Model) worker machinery
//! (`ModelEvaluator::worker`) handles all of this internally — external
//! callers should use [`Model::precheck_with`](crate::Model::precheck_with)
//! / [`Model::evaluate_metric_with`](crate::Model::evaluate_metric_with),
//! which never assume a prefix.

use crate::dataflow::DenseScratch;
use crate::sparse::SparseScratch;
use crate::uarch::UarchReport;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Cached capacity verdict of one storage level (see
/// [`Model::precheck`](crate::Model::precheck)): whether the level's
/// resident tiles fit. Occupancy sums need not be cached — the verdict
/// is the only thing the precheck consumes, and it transfers unchanged
/// to any candidate whose held tile at that level is unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LevelCheck {
    /// Whether the level's tiles fit.
    pub(crate) fits: bool,
}

/// Reusable state of the capacity precheck: per-dimension bound and
/// tile-shape buffers plus the per-level occupancy/fit cache that makes
/// the precheck prefix-incremental.
#[derive(Debug, Default)]
pub(crate) struct PrecheckScratch {
    /// Per-dimension suffix tile bounds (recompute walk).
    pub(crate) bounds: Vec<u64>,
    /// Tile shape buffer.
    pub(crate) shape: Vec<u64>,
    /// Per-level cached occupancy and fit verdict.
    pub(crate) levels: Vec<LevelCheck>,
    /// How many *leading* levels of `levels` are valid for the mapping
    /// of the previous call (a failed check stops the walk early, so
    /// deeper cached entries may be stale).
    pub(crate) prefix_valid: usize,
}

/// The per-worker evaluation arena: every reusable buffer of the
/// `precheck` → dense → sparse → uarch pipeline (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub struct EvalScratch {
    pub(crate) precheck: PrecheckScratch,
    pub(crate) dense: DenseScratch,
    pub(crate) sparse: SparseScratch,
    pub(crate) uarch: UarchReport,
    /// `Mapping::validate_with` product buffer.
    pub(crate) validate_buf: Vec<u64>,
}

impl EvalScratch {
    /// An empty arena (buffers grow on first use).
    pub fn new() -> Self {
        EvalScratch::default()
    }
}

/// Composed change depth: the divergence between a scratch's cached
/// state and the current candidate, as the deepest storage level whose
/// held tile is guaranteed unchanged (`None` = unknown, recompute
/// everything; `Some(usize::MAX)` = identical).
pub(crate) type Depth = Option<usize>;

/// Composes two consecutive divergences: sharing up to level `a` then up
/// to level `b` shares up to `min(a, b)` overall; an unknown link makes
/// the whole chain unknown.
pub(crate) fn compose(a: Depth, b: Depth) -> Depth {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        _ => None,
    }
}

/// Most arenas a [`ScratchPool`] keeps parked between walks: it bounds
/// the idle arenas left by the widest burst of concurrent walks, not how
/// many walks may run.
const POOL_CAP: usize = 16;

/// A free list of evaluation arenas.
///
/// Each search walk checks one arena out for its lifetime and checks it
/// back in when it ends, so the *next* walk — another search, another
/// serving request, on any thread — reuses the grown buffers. Only
/// buffers are reused; every cached value is invalidated by the
/// acquiring worker (its depth state starts at "unknown", forcing a full
/// recompute on first use).
#[derive(Debug, Default)]
pub(crate) struct ScratchPool(Mutex<Vec<EvalScratch>>);

/// The process-wide pool every `ModelEvaluator` worker draws from.
pub(crate) static SCRATCH_POOL: ScratchPool = ScratchPool(Mutex::new(Vec::new()));

impl ScratchPool {
    /// Checks an arena out of the pool (or creates one).
    pub(crate) fn checkout(&self) -> EvalScratch {
        self.parked().pop().unwrap_or_default()
    }

    /// Parks `scratch` for the next walk (dropped when the pool is full).
    /// Never panics, so a worker's `Drop` may call it while unwinding.
    pub(crate) fn checkin(&self, scratch: EvalScratch) {
        let mut parked = self.parked();
        if parked.len() < POOL_CAP {
            parked.push(scratch);
        }
    }

    fn parked(&self) -> MutexGuard<'_, Vec<EvalScratch>> {
        // a lone push or pop leaves the list valid even if its holder
        // panicked, so a poisoned lock is safe to recover
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_takes_the_outermost_divergence() {
        assert_eq!(compose(Some(3), Some(1)), Some(1));
        assert_eq!(compose(Some(0), Some(5)), Some(0));
        assert_eq!(compose(None, Some(2)), None);
        assert_eq!(compose(Some(2), None), None);
        assert_eq!(compose(Some(usize::MAX), Some(4)), Some(4));
    }

    #[test]
    fn pool_recycles_arenas_across_threads() {
        // an arena grown and checked in on one thread comes back, buffer
        // capacity intact, to a walk on another: reuse follows the pool,
        // not the thread
        let pool = ScratchPool::default();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut grown = pool.checkout();
                grown.validate_buf.reserve(1024);
                pool.checkin(grown);
            });
        });
        let s = pool.checkout();
        assert!(s.validate_buf.capacity() >= 1024, "arena was not pooled");
    }
}
