//! The mapper: searches a mapspace for the best mapping under a
//! caller-supplied objective.
//!
//! The objective is a closure `Fn(&Mapping) -> Option<f64>` returning the
//! metric to *minimize* (EDP, latency, energy, ...) or `None` when the
//! mapping is invalid (e.g. fails the capacity check in Sparseloop's
//! micro-architectural step). Keeping the evaluator abstract lets the
//! mapping crate stay independent of the model crate, mirroring the
//! paper's separation between mapspace construction and evaluation.
//!
//! # Search pipeline
//!
//! Candidates stream out of the mapspace iterators
//! ([`Mapspace::iter_enumerate`] / [`Mapspace::iter_sample`]) — O(1)
//! memory in the candidate count — and flow through a two-stage
//! evaluation: a cheap [`CandidateEvaluator::precheck`] rejects
//! obviously-invalid candidates (e.g. oversized tiles) before the full
//! objective runs.
//!
//! There is one walk: a worker walks one shard of the strategy's
//! keyed candidate stream and keeps the `(objective, key)` minimum.
//! Shard `s` of `n` owns every enumerated stream position `p` with
//! `p % n == s` ([`Mapspace::shards`]); shard 0 then draws the sample
//! tail. A sequential search is shard 0 of 1; a threaded search walks
//! `n` shards concurrently ([`Mapper::search_shards`]); a multi-process
//! search runs [`Mapper::search_shard_counted`] per worker process.
//! Every mode reduces its walks with [`merge_shard_results`] (in
//! process, [`Mapper::search_sharded_counted`] does), and keys are
//! stream positions, so all of them return bit-identical winners and
//! counters.

use crate::loops::Mapping;
use crate::mapspace::{CandidateKey, ChangeDepth, EnumerateIter, Mapspace, SampleIter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::resume_unwind;

/// Statistics from one mapper run.
///
/// Invariant: `generated == pruned + evaluated + invalid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Mappings drawn from the mapspace's candidate stream.
    pub generated: usize,
    /// Mappings rejected by the cheap precheck before full evaluation.
    pub pruned: usize,
    /// Mappings the objective accepted (returned `Some`).
    pub evaluated: usize,
    /// Mappings rejected as invalid by the full evaluation (objective
    /// returned `None`).
    pub invalid: usize,
}

impl SearchStats {
    /// Accumulates another run's counters into this one (shard merges,
    /// batch totals).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.generated += other.generated;
        self.pruned += other.pruned;
        self.evaluated += other.evaluated;
        self.invalid += other.invalid;
    }
}

/// Outcome of a mapper search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best mapping found.
    pub mapping: Mapping,
    /// Its objective value.
    pub objective: f64,
    /// Search statistics.
    pub stats: SearchStats,
}

/// A two-stage candidate evaluator: a cheap validity pre-pass followed by
/// the full objective.
///
/// `precheck` should be a conservative, fast filter: returning `false`
/// asserts the full evaluation would reject the mapping (return `None`),
/// so the pipeline may skip it entirely; returning `true` just means "run
/// the full evaluation". Any `Fn(&Mapping) -> Option<f64> + Sync` closure
/// is an evaluator whose precheck accepts everything.
pub trait CandidateEvaluator: Sync {
    /// Cheap pre-pass; `false` prunes the candidate before evaluation.
    fn precheck(&self, _mapping: &Mapping) -> bool {
        true
    }

    /// Full evaluation: the metric to minimize, or `None` when invalid.
    fn evaluate(&self, mapping: &Mapping) -> Option<f64>;

    /// A per-walk stateful evaluator. The search driver creates one
    /// worker per walk (the whole stream, or one shard of it) and feeds
    /// it that walk's candidates in order, each with its [`ChangeDepth`],
    /// so an implementation can keep reusable scratch buffers and
    /// prefix-incremental caches across candidates — results must be
    /// bit-identical to the stateless [`precheck`] / [`evaluate`] pair.
    ///
    /// The default worker simply delegates to the stateless methods,
    /// ignoring deltas, so plain closures and simple evaluators keep
    /// working unchanged.
    ///
    /// [`precheck`]: CandidateEvaluator::precheck
    /// [`evaluate`]: CandidateEvaluator::evaluate
    fn worker(&self) -> Box<dyn WorkerEvaluator + '_> {
        Box::new(StatelessWorker(self))
    }
}

/// A per-worker, stateful view of a [`CandidateEvaluator`] (see
/// [`CandidateEvaluator::worker`]).
///
/// # Call protocol
///
/// The caller walks one candidate stream in order. For each candidate it
/// calls [`precheck`](WorkerEvaluator::precheck) with the candidate's
/// [`ChangeDepth`] (relative to the stream's *previous* candidate — pass
/// [`ChangeDepth::Reset`] when that relation is unknown), and, if the precheck
/// passes, [`evaluate`](WorkerEvaluator::evaluate) with the *same*
/// candidate and depth. Implementations compose depths internally, so
/// skipping `evaluate` for pruned candidates is always sound.
pub trait WorkerEvaluator {
    /// Cheap pre-pass; `false` prunes the candidate before evaluation.
    fn precheck(&mut self, mapping: &Mapping, change: ChangeDepth) -> bool;

    /// Full evaluation: the metric to minimize, or `None` when invalid.
    fn evaluate(&mut self, mapping: &Mapping, change: ChangeDepth) -> Option<f64>;
}

/// The default [`WorkerEvaluator`]: stateless delegation to the
/// underlying evaluator, ignoring change depths.
struct StatelessWorker<'a, E: ?Sized>(&'a E);

impl<E: CandidateEvaluator + ?Sized> WorkerEvaluator for StatelessWorker<'_, E> {
    fn precheck(&mut self, mapping: &Mapping, _change: ChangeDepth) -> bool {
        self.0.precheck(mapping)
    }

    fn evaluate(&mut self, mapping: &Mapping, _change: ChangeDepth) -> Option<f64> {
        self.0.evaluate(mapping)
    }
}

impl<F> CandidateEvaluator for F
where
    F: Fn(&Mapping) -> Option<f64> + Sync,
{
    fn evaluate(&self, mapping: &Mapping) -> Option<f64> {
        self(mapping)
    }
}

/// [`Mapper::search`]'s closure objective as a worker whose precheck
/// accepts every candidate.
struct FnWorker<F>(F);

impl<F: FnMut(&Mapping) -> Option<f64>> WorkerEvaluator for FnWorker<F> {
    fn precheck(&mut self, _mapping: &Mapping, _change: ChangeDepth) -> bool {
        true
    }

    fn evaluate(&mut self, mapping: &Mapping, _change: ChangeDepth) -> Option<f64> {
        (self.0)(mapping)
    }
}

/// Mapspace search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapper {
    /// Enumerate deterministically up to a candidate cap.
    Exhaustive {
        /// Maximum number of candidates to enumerate.
        limit: usize,
    },
    /// Draw random candidates with a seeded RNG (reproducible).
    Random {
        /// Number of samples to draw.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Enumerate up to a cap, then top up with samples — a simple
    /// hybrid that works well on medium mapspaces. Samples that duplicate
    /// an enumerated candidate are dropped from the stream, ensuring
    /// sampled draws only ever explore beyond the prefix. A draw repeats
    /// the prefix iff its stream position precedes where the prefix walk
    /// stopped, so the test keeps no set: memory stays O(1) in
    /// `enumerate`.
    Hybrid {
        /// Enumeration cap.
        enumerate: usize,
        /// Additional samples.
        samples: usize,
        /// RNG seed of the sample draws.
        seed: u64,
    },
}

impl Mapper {
    /// The strategy's candidate stream over `space`: a lazy, deterministic
    /// iterator (for a fixed strategy, including seeds): the stream every
    /// search walks, whole or in shards.
    pub fn candidates<'a>(
        &self,
        space: &'a Mapspace,
    ) -> Box<dyn Iterator<Item = Mapping> + Send + 'a> {
        Box::new(self.delta_candidates(space).map(|(_, m)| m))
    }

    /// Like [`candidates`](Mapper::candidates), but each candidate
    /// carries its [`ChangeDepth`] relative to the previous stream
    /// candidate. Enumerated candidates report their true first-changed
    /// position; sampled draws (and the first candidate) report
    /// [`ChangeDepth::Reset`] — sampling shares no systematic prefix, so
    /// consumers must recompute those from scratch.
    pub fn delta_candidates<'a>(
        &self,
        space: &'a Mapspace,
    ) -> Box<dyn Iterator<Item = (ChangeDepth, Mapping)> + Send + 'a> {
        Box::new(ShardStream::new(*self, space, 0, 1).map(|(_, depth, m)| (depth, m)))
    }

    /// Runs the search with a plain closure objective (no precheck),
    /// returning the best mapping by the minimized objective, or `None`
    /// when no candidate evaluates successfully.
    ///
    /// Candidates are streamed: memory use is O(1) in the mapspace size
    /// and `stats.generated` counts candidates as they are drawn.
    pub fn search<F>(&self, space: &Mapspace, objective: F) -> Option<SearchResult>
    where
        F: FnMut(&Mapping) -> Option<f64>,
    {
        let (best, stats) = self.walk_shard(space, &mut FnWorker(objective), 0, 1);
        finish(best, stats).0
    }

    /// The search driver: walks the candidate stream in `shards`
    /// disjoint sub-streams ([`search_shards`](Mapper::search_shards))
    /// and reduces the per-shard winners with [`merge_shard_results`],
    /// by `(objective value, candidate position)`. The run's counters
    /// are returned even when no candidate evaluates successfully — an
    /// all-invalid stream was still walked, and throughput accounting
    /// should see that work.
    ///
    /// Winners and counters are **bit-identical** at any shard count:
    /// every candidate's [`CandidateKey`] is its stream position, so the
    /// lexicographic minimum of `(value, key)` is the first strict
    /// minimum a sequential scan keeps, and each shard counts only the
    /// positions it owns.
    pub fn search_sharded_counted<E: CandidateEvaluator + ?Sized>(
        &self,
        space: &Mapspace,
        evaluator: &E,
        shards: usize,
    ) -> (Option<SearchResult>, SearchStats) {
        merge_shard_results(self.search_shards(space, evaluator, shards))
    }

    /// Every walk of [`search_sharded_counted`](Mapper::search_sharded_counted),
    /// unmerged: one raw `(local winner, counters)` per shard, evaluated
    /// concurrently — shard 0 on the calling thread, every other shard
    /// on a scoped thread of its own. `shards <= 1` is one sequential
    /// walk, with no spawn. Shard `s` evaluates the enumerated stream
    /// positions `p` with `p % shards == s`; shard 0 then draws the
    /// seeded sample tail of a hybrid or random strategy, deduplicated
    /// against the whole prefix exactly like the unsharded stream (its
    /// walk stepped the counter over every prefix position).
    ///
    /// A panicking walk re-raises its own payload on the caller, after
    /// every other shard has finished.
    pub fn search_shards<E: CandidateEvaluator + ?Sized>(
        &self,
        space: &Mapspace,
        evaluator: &E,
        shards: usize,
    ) -> Vec<(Option<ShardWinner>, SearchStats)> {
        let shards = shards.max(1);
        std::thread::scope(|s| {
            let rest: Vec<_> = (1..shards)
                .map(|k| {
                    s.spawn(move || self.walk_shard(space, &mut *evaluator.worker(), k, shards))
                })
                .collect();
            let first = self.walk_shard(space, &mut *evaluator.worker(), 0, shards);
            // join explicitly: the scope's implicit join would replace a
            // shard's panic payload with a generic message
            let rest = rest
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)));
            std::iter::once(first).chain(rest).collect()
        })
    }

    /// Evaluates **one** shard of the sharded search on this process,
    /// returning its raw local winner (objective value, stream-position
    /// [`CandidateKey`], mapping) and counters — the per-worker half of
    /// a multi-process sharded search. Feeding every shard's return
    /// through [`merge_shard_results`] reproduces
    /// [`search_sharded_counted`](Mapper::search_sharded_counted)
    /// bit-identically (winner, objective, and summed stats), because
    /// both run the same walk per shard.
    ///
    /// Shard `shard` evaluates every `shards`-th enumerated candidate,
    /// starting at position `shard`; shard 0 additionally owns the
    /// (inherently sequential) seeded sample tail. A `Random` strategy
    /// enumerates nothing, so its whole stream is shard 0's tail and
    /// the other shards return empty.
    ///
    /// Panics if `shard >= shards` or `shards == 0`.
    pub fn search_shard_counted<E: CandidateEvaluator + ?Sized>(
        &self,
        space: &Mapspace,
        evaluator: &E,
        shard: usize,
        shards: usize,
    ) -> (Option<ShardWinner>, SearchStats) {
        assert!(shards > 0, "shard count must be positive");
        assert!(shard < shards, "shard index {shard} out of {shards}");
        self.walk_shard(space, &mut *evaluator.worker(), shard, shards)
    }

    /// The enumeration cap, sample count and sample seed: `Exhaustive`
    /// draws no samples, `Random` enumerates nothing.
    fn budget(&self) -> (usize, usize, u64) {
        match *self {
            Mapper::Exhaustive { limit } => (limit, 0, 0),
            Mapper::Random { samples, seed } => (0, samples, seed),
            Mapper::Hybrid {
                enumerate,
                samples,
                seed,
            } => (enumerate, samples, seed),
        }
    }

    /// The one search loop, over shard `shard` of `shards` of the
    /// candidate stream: precheck → evaluate → keep the `(value, key)`
    /// minimum → count. Keys are stream positions, so the kept candidate
    /// is the first strict minimum whatever way the stream was split.
    fn walk_shard(
        &self,
        space: &Mapspace,
        worker: &mut dyn WorkerEvaluator,
        shard: usize,
        shards: usize,
    ) -> (Option<ShardWinner>, SearchStats) {
        let mut best = None;
        let mut stats = SearchStats::default();
        for (key, depth, m) in ShardStream::new(*self, space, shard, shards) {
            stats.generated += 1;
            if !worker.precheck(&m, depth) {
                stats.pruned += 1;
                continue;
            }
            match worker.evaluate(&m, depth) {
                // NaN objectives are counted invalid: they are unordered,
                // which would make the winner depend on evaluation order
                Some(v) if !v.is_nan() => {
                    stats.evaluated += 1;
                    if beats(v, key, &best) {
                        best = Some((v, key, m));
                    }
                }
                _ => stats.invalid += 1,
            }
        }
        (best, stats)
    }
}

/// One shard's raw winner: `(objective value, candidate key, mapping)`,
/// as returned by [`Mapper::search_shard_counted`].
pub type ShardWinner = (f64, CandidateKey, Mapping);

/// Reduces per-shard partial results (one per shard index, any order)
/// into the full search outcome: the `(value, key)`-lexicographic
/// minimum winner plus summed counters — bit-identical to
/// [`Mapper::search_sharded_counted`] when fed every shard of the same
/// search.
pub fn merge_shard_results(
    parts: impl IntoIterator<Item = (Option<ShardWinner>, SearchStats)>,
) -> (Option<SearchResult>, SearchStats) {
    let mut best: Option<ShardWinner> = None;
    let mut stats = SearchStats::default();
    for (winner, s) in parts {
        stats.absorb(&s);
        if let Some((v, key, m)) = winner {
            if beats(v, key, &best) {
                best = Some((v, key, m));
            }
        }
    }
    finish(best, stats)
}

/// Shard `shard` of `shards` of a strategy's keyed candidate stream: the
/// enumerated positions the shard owns, then — on shard 0 — the seeded
/// sample tail.
struct ShardStream<'a> {
    prefix: EnumerateIter<'a>,
    /// Shard 0's sample tail, when the strategy draws samples.
    tail: Option<SampleTail<'a>>,
}

impl<'a> ShardStream<'a> {
    fn new(mapper: Mapper, space: &'a Mapspace, shard: usize, shards: usize) -> Self {
        let (enumerate, samples, seed) = mapper.budget();
        ShardStream {
            prefix: space.iter_shard(enumerate, shard, shards),
            tail: (shard == 0 && samples > 0).then_some(SampleTail {
                space,
                draws: None,
                drawn: 0,
                enumerate,
                samples,
                seed,
            }),
        }
    }
}

impl Iterator for ShardStream<'_> {
    type Item = (CandidateKey, ChangeDepth, Mapping);

    fn next(&mut self) -> Option<Self::Item> {
        if let Some((depth, m)) = self.prefix.next_delta() {
            return Some((self.prefix.position(), depth, m));
        }
        let (key, m) = self.tail.as_mut()?.next(&self.prefix)?;
        Some((key, ChangeDepth::Reset, m))
    }
}

/// The sample tail: seeded draws that skip whatever the enumerated
/// prefix yielded — re-evaluating a mapping enumeration already scored
/// wastes the sample budget without changing the winner.
///
/// Every draw is fanout-valid, so it sits at some position of the
/// enumeration counter's walk, and the prefix is every valid position
/// the walk passed before it stopped. Equal per-slot factors are equal
/// mappings (a level lists a dimension at most once per loop kind), so
/// a draw is a repeat iff the walk passed its factors
/// ([`EnumerateIter::passed`]): an O(slots) test that keeps no set and
/// builds no mapping for a repeat. Shard 0 of several asks its own
/// strided walk, which stepped the counter over every prefix position.
struct SampleTail<'a> {
    space: &'a Mapspace,
    /// The seeded draws, started by the first [`next`](SampleTail::next).
    draws: Option<SampleIter<'a, StdRng>>,
    /// Candidates the tail has yielded.
    drawn: u64,
    enumerate: usize,
    samples: usize,
    seed: u64,
}

impl SampleTail<'_> {
    /// The next sampled candidate the prefix did not yield, keyed by its
    /// index in the tail; call once the walk's own `prefix` has run dry.
    /// Yields nothing when the prefix *covered* the space: every draw
    /// would be a repeat, so the tail's `20 × samples` draw budget would
    /// be pure waste. The cover check is free — every shard steps the
    /// counter over the whole prefix, so any one of them knows whether
    /// it wrapped. `enumerate == 0` (a `Random` strategy) has no prefix:
    /// exhaustion then means "no prefix", not "covered", so the tail
    /// always runs.
    fn next(&mut self, prefix: &EnumerateIter<'_>) -> Option<(CandidateKey, Mapping)> {
        if self.draws.is_none() {
            if self.enumerate > 0 && prefix.space_exhausted() {
                return None;
            }
            self.draws = Some(
                self.space
                    .iter_sample(self.samples, StdRng::seed_from_u64(self.seed)),
            );
        }
        let m = self.draws.as_mut()?.next_where(|f| !prefix.passed(f))?;
        self.drawn += 1;
        Some((CandidateKey::sampled(self.drawn - 1), m))
    }
}

/// `(value, key)` lexicographic improvement test.
fn beats(v: f64, key: CandidateKey, cur: &Option<ShardWinner>) -> bool {
    match cur {
        None => true,
        Some((bv, bkey, _)) => v < *bv || (v == *bv && key < *bkey),
    }
}

fn finish(best: Option<ShardWinner>, stats: SearchStats) -> (Option<SearchResult>, SearchStats) {
    let result = best.map(|(objective, _, mapping)| SearchResult {
        mapping,
        objective,
        stats,
    });
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseloop_arch::{ArchitectureBuilder, ComputeSpec, StorageLevel};
    use sparseloop_tensor::einsum::Einsum;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn setup() -> Mapspace {
        let e = Einsum::matmul(8, 8, 8);
        let a = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM"))
            .level(StorageLevel::new("Buf"))
            .compute(ComputeSpec::new("MAC", 1))
            .build()
            .unwrap();
        Mapspace::all_temporal(&e, &a)
    }

    /// A toy objective: prefer large innermost-level loop products
    /// (maximizing on-chip work per DRAM visit).
    fn toy_objective(m: &Mapping) -> Option<f64> {
        let inner: u64 = m.nests()[1].iter().map(|l| l.bound).product();
        Some(1.0 / inner as f64)
    }

    /// Independent oracle for the driver: the strategy's stream folded
    /// through the stateless evaluator pair, first strict minimum wins.
    fn reference<E: CandidateEvaluator>(
        mapper: Mapper,
        space: &Mapspace,
        evaluator: &E,
    ) -> (Option<(f64, Mapping)>, SearchStats) {
        let mut best: Option<(f64, Mapping)> = None;
        let mut stats = SearchStats::default();
        for m in mapper.candidates(space) {
            stats.generated += 1;
            if !evaluator.precheck(&m) {
                stats.pruned += 1;
                continue;
            }
            match evaluator.evaluate(&m) {
                Some(v) if !v.is_nan() => {
                    stats.evaluated += 1;
                    if best.as_ref().is_none_or(|(b, _)| v < *b) {
                        best = Some((v, m));
                    }
                }
                _ => stats.invalid += 1,
            }
        }
        (best, stats)
    }

    /// The driver at `shards` returns the oracle's winner (objective
    /// bits and mapping) and counters.
    fn assert_matches_reference<E: CandidateEvaluator>(
        mapper: Mapper,
        space: &Mapspace,
        evaluator: &E,
        shards: usize,
    ) {
        let (want, want_stats) = reference(mapper, space, evaluator);
        let (got, stats) = mapper.search_sharded_counted(space, evaluator, shards);
        let label = format!("shards={shards} {mapper:?}");
        assert_eq!(stats, want_stats, "{label}");
        match (got, want) {
            (Some(g), Some((v, m))) => {
                assert_eq!(g.objective.to_bits(), v.to_bits(), "{label}");
                assert_eq!(g.mapping, m, "{label}");
                assert_eq!(g.stats, want_stats, "{label}");
            }
            (None, None) => {}
            other => panic!("{label}: driver and oracle disagree: {other:?}"),
        }
    }

    #[test]
    fn exhaustive_finds_optimum() {
        let space = setup();
        let r = Mapper::Exhaustive { limit: 100_000 }
            .search(&space, toy_objective)
            .unwrap();
        // optimum puts everything innermost: product 512
        assert!((r.objective - 1.0 / 512.0).abs() < 1e-12);
        assert!(r.stats.evaluated > 0);
    }

    #[test]
    fn random_search_reproducible() {
        let space = setup();
        let m = Mapper::Random {
            samples: 64,
            seed: 42,
        };
        let a = m.search(&space, toy_objective).unwrap();
        let b = m.search(&space, toy_objective).unwrap();
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn invalid_candidates_counted() {
        let space = setup();
        let mut calls = 0usize;
        let r = Mapper::Exhaustive { limit: 50 }
            .search(&space, |m| {
                calls += 1;
                if calls.is_multiple_of(2) {
                    None
                } else {
                    toy_objective(m)
                }
            })
            .unwrap();
        assert!(r.stats.invalid > 0);
        assert_eq!(r.stats.invalid + r.stats.evaluated, r.stats.generated);
    }

    #[test]
    fn all_invalid_returns_none() {
        let space = setup();
        let r = Mapper::Exhaustive { limit: 10 }.search(&space, |_| None);
        assert!(r.is_none());
    }

    #[test]
    fn hybrid_covers_both_sources() {
        let space = setup();
        let r = Mapper::Hybrid {
            enumerate: 10,
            samples: 10,
            seed: 1,
        }
        .search(&space, toy_objective)
        .unwrap();
        // at least the enumerated prefix; sampled duplicates of the
        // prefix are dropped, so the total may fall short of 20
        assert!(r.stats.generated >= 10 && r.stats.generated <= 20);
    }

    #[test]
    fn hybrid_samples_never_repeat_the_enumerated_prefix() {
        // enumerate below the 64-candidate space size so a sample tail
        // actually runs (a covering prefix would skip it entirely)
        let space = setup();
        let mapper = Mapper::Hybrid {
            enumerate: 40,
            samples: 500,
            seed: 3,
        };
        let stream: Vec<Mapping> = mapper.candidates(&space).collect();
        assert!(stream.len() > 40, "tail must contribute candidates");
        let (prefix, tail) = stream.split_at(40);
        for m in tail {
            assert!(!prefix.contains(m), "sampled candidate repeats prefix");
        }
    }

    #[test]
    fn covered_prefix_skips_the_sample_tail() {
        // setup()'s space has exactly 64 candidates; an enumeration cap
        // at or above that covers the space, so the hybrid stream must
        // end after the prefix instead of burning the 20x-samples draw
        // budget on draws that all dedup away (the ROADMAP's hybrid
        // sample-tail cost note)
        let space = setup();
        assert_eq!(space.iter_enumerate(usize::MAX).count(), 64);
        let covered = Mapper::Hybrid {
            enumerate: 64,
            samples: 1_000_000,
            seed: 9,
        };
        let stream: Vec<(ChangeDepth, Mapping)> = covered.delta_candidates(&space).collect();
        assert_eq!(stream.len(), 64, "no sampled candidate can be new");
        // the searches agree with plain exhaustive enumeration, counters
        // included (sampled duplicates were never generated)
        let exhaustive = Mapper::Exhaustive { limit: 64 }
            .search(&space, toy_objective)
            .unwrap();
        let hybrid = covered.search(&space, toy_objective).unwrap();
        assert_eq!(hybrid.mapping, exhaustive.mapping);
        assert_eq!(hybrid.objective, exhaustive.objective);
        assert_eq!(hybrid.stats, exhaustive.stats);
        // sharded path takes the same shortcut and stays bit-identical
        let sharded = covered.search_sharded_counted(&space, &EvenPruner, 3).0;
        let unsharded = covered.search_sharded_counted(&space, &EvenPruner, 1).0;
        let unsharded = unsharded.unwrap();
        let sharded = sharded.unwrap();
        assert_eq!(sharded.mapping, unsharded.mapping);
        assert_eq!(sharded.objective, unsharded.objective);
        assert_eq!(sharded.stats, unsharded.stats);
    }

    #[test]
    fn zero_enumerate_hybrid_is_pure_sampling() {
        // enumerate == 0 exhausts the prefix immediately — that must
        // read as "no prefix", not "prefix covered the space"
        let space = setup();
        let stream: Vec<Mapping> = Mapper::Hybrid {
            enumerate: 0,
            samples: 16,
            seed: 2,
        }
        .candidates(&space)
        .collect();
        assert!(!stream.is_empty(), "sample tail must run with no prefix");
    }

    #[test]
    fn uncovered_prefix_still_samples() {
        let space = setup();
        let mapper = Mapper::Hybrid {
            enumerate: 63, // one short of the 64-candidate space
            samples: 200,
            seed: 5,
        };
        let stream: Vec<Mapping> = mapper.candidates(&space).collect();
        assert!(
            stream.len() > 63,
            "a non-covering prefix must keep its sample tail"
        );
    }

    #[test]
    fn generated_counted_from_stream() {
        // the stream is lazy: generated reflects candidates actually
        // drawn, and a tiny limit draws no more than that
        let space = setup();
        let r = Mapper::Exhaustive { limit: 7 }
            .search(&space, toy_objective)
            .unwrap();
        assert_eq!(r.stats.generated, 7);
    }

    /// Evaluator pruning even innermost-products, matching an objective
    /// that rejects them.
    struct EvenPruner;

    impl CandidateEvaluator for EvenPruner {
        fn precheck(&self, m: &Mapping) -> bool {
            let inner: u64 = m.nests()[1].iter().map(|l| l.bound).product();
            !inner.is_multiple_of(2)
        }

        fn evaluate(&self, m: &Mapping) -> Option<f64> {
            let inner: u64 = m.nests()[1].iter().map(|l| l.bound).product();
            if inner.is_multiple_of(2) {
                None
            } else {
                Some(1.0 / inner as f64)
            }
        }
    }

    #[test]
    fn precheck_prunes_and_accounts() {
        let space = setup();
        let r = Mapper::Exhaustive { limit: 10_000 }
            .search_sharded_counted(&space, &EvenPruner, 1)
            .0
            .unwrap();
        assert!(r.stats.pruned > 0, "some candidates must be pruned");
        assert_eq!(
            r.stats.pruned + r.stats.evaluated + r.stats.invalid,
            r.stats.generated
        );
        // pruning must not change the winner vs. the plain objective
        let plain = Mapper::Exhaustive { limit: 10_000 }
            .search(&space, |m| EvenPruner.evaluate(m))
            .unwrap();
        assert_eq!(r.objective, plain.objective);
        assert_eq!(r.mapping, plain.mapping);
    }

    #[test]
    fn nan_objectives_counted_invalid_and_deterministic() {
        let space = setup();
        // poison the optimum with NaN: it must be rejected, not win
        let nan_obj = |m: &Mapping| {
            let inner: u64 = m.nests()[1].iter().map(|l| l.bound).product();
            if inner == 512 {
                Some(f64::NAN)
            } else {
                Some(1.0 / inner as f64)
            }
        };
        let mapper = Mapper::Exhaustive { limit: 100_000 };
        let seq = mapper.search(&space, nan_obj).unwrap();
        assert!(seq.stats.invalid > 0, "NaN candidates count as invalid");
        assert!(!seq.objective.is_nan());
        for shards in [1, 2, 3] {
            assert_matches_reference(mapper, &space, &nan_obj, shards);
            let got = mapper.search_sharded_counted(&space, &nan_obj, shards).0;
            assert_eq!(got.unwrap().mapping, seq.mapping, "shards={shards}");
        }
    }

    /// The driver's threaded walk (`shards` > 1) against its sequential
    /// walk (one shard, no spawn) on the same evaluator.
    fn assert_par_matches_sequential<E: CandidateEvaluator>(
        mapper: Mapper,
        space: &Mapspace,
        evaluator: &E,
        shards: usize,
    ) {
        let seq = mapper
            .search_sharded_counted(space, evaluator, 1)
            .0
            .unwrap();
        let par = mapper
            .search_sharded_counted(space, evaluator, shards)
            .0
            .unwrap();
        let label = format!("shards={shards} {mapper:?}");
        assert_eq!(par.objective.to_bits(), seq.objective.to_bits(), "{label}");
        assert_eq!(par.mapping, seq.mapping, "{label}");
        assert_eq!(par.stats, seq.stats, "{label}");
    }

    #[test]
    fn par_search_matches_sequential_exhaustive() {
        let space = setup();
        let objective = |m: &Mapping| toy_objective(m);
        for shards in [2, 3, 8] {
            assert_par_matches_sequential(
                Mapper::Exhaustive { limit: 100_000 },
                &space,
                &objective,
                shards,
            );
        }
    }

    #[test]
    fn par_search_matches_sequential_random_and_hybrid() {
        let space = setup();
        let objective = |m: &Mapping| toy_objective(m);
        for mapper in [
            Mapper::Random {
                samples: 200,
                seed: 9,
            },
            Mapper::Hybrid {
                enumerate: 64,
                samples: 64,
                seed: 5,
            },
        ] {
            assert_par_matches_sequential(mapper, &space, &objective, 4);
        }
    }

    #[test]
    fn par_search_with_pruning_evaluator() {
        let space = setup();
        assert_par_matches_sequential(Mapper::Exhaustive { limit: 50_000 }, &space, &EvenPruner, 4);
    }

    #[test]
    fn par_search_all_invalid_returns_none() {
        let space = setup();
        let reject = |_: &Mapping| -> Option<f64> { None };
        assert!(Mapper::Exhaustive { limit: 10 }
            .search_sharded_counted(&space, &reject, 4)
            .0
            .is_none());
    }

    #[test]
    fn search_sharded_matches_par_search_exhaustive() {
        let space = setup();
        let objective = |m: &Mapping| toy_objective(m);
        // limits both above and *below* the space size: every shard must
        // stop at the exact global cutoff
        for limit in [7, 100, 100_000] {
            for shards in [1, 2, 3, 7, 8] {
                assert_matches_reference(Mapper::Exhaustive { limit }, &space, &objective, shards);
            }
        }
    }

    #[test]
    fn search_sharded_matches_par_search_hybrid_and_random() {
        let space = setup();
        let objective = |m: &Mapping| toy_objective(m);
        for mapper in [
            Mapper::Hybrid {
                enumerate: 64,
                samples: 64,
                seed: 5,
            },
            Mapper::Hybrid {
                enumerate: 32,
                samples: 100,
                seed: 11,
            },
            Mapper::Random {
                samples: 200,
                seed: 9,
            },
        ] {
            for shards in [1, 2, 3] {
                assert_matches_reference(mapper, &space, &objective, shards);
            }
        }
    }

    #[test]
    fn search_sharded_with_pruning_evaluator() {
        let space = setup();
        for mapper in [
            Mapper::Exhaustive { limit: 50_000 },
            Mapper::Hybrid {
                enumerate: 40,
                samples: 60,
                seed: 7,
            },
        ] {
            for shards in [1, 2, 3, 4] {
                assert_matches_reference(mapper, &space, &EvenPruner, shards);
            }
        }
    }

    #[test]
    fn search_sharded_all_invalid_returns_none_with_stats() {
        let space = setup();
        let reject = |_: &Mapping| -> Option<f64> { None };
        for mapper in [
            Mapper::Exhaustive { limit: 10 },
            Mapper::Random {
                samples: 10,
                seed: 3,
            },
        ] {
            for shards in [1, 2, 3] {
                let (result, stats) = mapper.search_sharded_counted(&space, &reject, shards);
                assert!(result.is_none(), "shards={shards} {mapper:?}");
                assert_eq!(stats.generated, 10, "shards={shards} {mapper:?}");
                assert_eq!(stats.invalid, 10, "shards={shards} {mapper:?}");
            }
        }
    }

    /// Counts the workers a search opens and the candidates they are
    /// handed.
    #[derive(Default)]
    struct Counting {
        workers: AtomicUsize,
        candidates: AtomicUsize,
    }

    impl CandidateEvaluator for Counting {
        fn precheck(&self, _m: &Mapping) -> bool {
            self.candidates.fetch_add(1, Ordering::Relaxed);
            true
        }

        fn evaluate(&self, m: &Mapping) -> Option<f64> {
            toy_objective(m)
        }

        fn worker(&self) -> Box<dyn WorkerEvaluator + '_> {
            self.workers.fetch_add(1, Ordering::Relaxed);
            Box::new(StatelessWorker(self))
        }
    }

    #[test]
    fn each_walk_opens_one_worker() {
        // one worker per walked shard: an unsharded hybrid search keeps
        // its sample tail on the prefix's worker, a sharded one puts it
        // on shard 0's; a random search is shard 0's tail, and its other
        // shards walk an empty prefix
        let space = setup();
        let hybrid = Mapper::Hybrid {
            enumerate: 40,
            samples: 60,
            seed: 7,
        };
        let random = Mapper::Random {
            samples: 200,
            seed: 9,
        };
        for (mapper, shards, workers) in [(hybrid, 1, 1), (hybrid, 3, 3), (random, 3, 3)] {
            let counter = Counting::default();
            let (result, stats) = mapper.search_sharded_counted(&space, &counter, shards);
            assert!(result.is_some());
            assert!(stats.generated > 40, "{mapper:?}: the sample tail ran");
            assert_eq!(
                counter.workers.into_inner(),
                workers,
                "workers opened at {shards} shards by {mapper:?}"
            );
        }
    }

    #[test]
    fn one_shard_walks_the_prefix_once_then_the_tail() {
        // one shard walks the enumerated prefix once and the tail tests
        // each draw against where that walk stopped: the worker sees the
        // P prefix candidates, then the draws the prefix did not yield
        let space = setup();
        for (enumerate, samples, seed) in [(40, 60, 7), (10, 10, 1), (0, 30, 4)] {
            let mapper = Mapper::Hybrid {
                enumerate,
                samples,
                seed,
            };
            let prefix: Vec<Mapping> = space.iter_enumerate(enumerate).collect();
            let tail = space
                .iter_sample(samples, StdRng::seed_from_u64(seed))
                .filter(|m| !prefix.contains(m))
                .count();
            let counter = Counting::default();
            let (_, stats) = mapper.search_sharded_counted(&space, &counter, 1);
            let label = format!("{mapper:?}");
            assert!(tail > 0, "{label}: the tail runs");
            assert_eq!(stats.generated, prefix.len() + tail, "{label}");
            assert_eq!(
                counter.candidates.into_inner(),
                prefix.len() + tail,
                "{label}"
            );
        }
    }

    #[test]
    fn shard_panic_keeps_its_payload() {
        // a walk on a spawned shard thread panics: the caller sees that
        // walk's own payload, not the scope's generic rethrow
        let space = setup();
        let mapper = Mapper::Exhaustive { limit: 100_000 };
        let (_, _, target) = space.shards(3, 100_000)[2]
            .next_delta()
            .expect("shard 2 owns a candidate");
        let objective = |m: &Mapping| {
            if *m == target {
                panic!("boom in shard");
            }
            toy_objective(m)
        };
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mapper.search_sharded_counted(&space, &objective, 3)
        }))
        .expect_err("the shard's panic reaches the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("boom in shard"));
    }

    #[test]
    fn random_stream_belongs_to_shard_zero() {
        // one seeded sequence, nothing to shard: shard 0 walks it whole,
        // every other shard is empty
        let space = setup();
        let objective = |m: &Mapping| toy_objective(m);
        let mapper = Mapper::Random {
            samples: 50,
            seed: 4,
        };
        let (whole, whole_stats) = mapper.search_sharded_counted(&space, &objective, 1);
        let (first, first_stats) = mapper.search_shard_counted(&space, &objective, 0, 3);
        assert_eq!(first_stats, whole_stats);
        assert_eq!(first.unwrap().2, whole.unwrap().mapping);
        for shard in [1, 2] {
            let (rest, stats) = mapper.search_shard_counted(&space, &objective, shard, 3);
            assert!(rest.is_none());
            assert_eq!(stats, SearchStats::default());
        }
    }

    #[test]
    fn per_shard_merge_matches_in_process_sharded_search() {
        // the multi-process contract: running search_shard_counted for
        // every shard index (as worker processes would) and merging must
        // reproduce search_sharded_counted bit-identically — winner
        // mapping, objective bits, and summed counters — for every
        // strategy and shard count
        let space = setup();
        let objective = |m: &Mapping| toy_objective(m);
        for mapper in [
            Mapper::Exhaustive { limit: 100_000 },
            Mapper::Exhaustive { limit: 7 },
            Mapper::Hybrid {
                enumerate: 64,
                samples: 64,
                seed: 5,
            },
            Mapper::Hybrid {
                enumerate: 32,
                samples: 100,
                seed: 11,
            },
            Mapper::Hybrid {
                enumerate: 100,
                samples: 50,
                seed: 2,
            },
            Mapper::Random {
                samples: 200,
                seed: 9,
            },
        ] {
            let (whole, whole_stats) = mapper.search_sharded_counted(&space, &objective, 3);
            for shards in [1, 2, 3, 4] {
                let parts =
                    (0..shards).map(|k| mapper.search_shard_counted(&space, &objective, k, shards));
                let (merged, stats) = merge_shard_results(parts);
                match (&merged, &whole) {
                    (Some(a), Some(b)) => {
                        assert_eq!(
                            a.objective.to_bits(),
                            b.objective.to_bits(),
                            "shards={shards} {mapper:?}"
                        );
                        assert_eq!(a.mapping, b.mapping, "shards={shards} {mapper:?}");
                    }
                    (None, None) => {}
                    other => panic!("merged/in-process disagree: {other:?}"),
                }
                assert_eq!(stats, whole_stats, "shards={shards} {mapper:?}");
            }
        }
    }

    #[test]
    fn per_shard_merge_with_pruning_evaluator() {
        let space = setup();
        let mapper = Mapper::Exhaustive { limit: 50_000 };
        let whole = mapper
            .search_sharded_counted(&space, &EvenPruner, 4)
            .0
            .unwrap();
        let parts = (0..4).map(|k| mapper.search_shard_counted(&space, &EvenPruner, k, 4));
        let merged = merge_shard_results(parts).0.unwrap();
        assert_eq!(merged.objective, whole.objective);
        assert_eq!(merged.mapping, whole.mapping);
        assert_eq!(merged.stats, whole.stats);
    }

    #[test]
    fn shard_results_survive_the_wire() {
        // encode each shard's winner exactly as the worker protocol does
        // and merge the decoded parts: still bit-identical
        use crate::wire::{
            decode_key, decode_mapping, decode_stats, encode_key, encode_mapping, encode_stats,
            WireReader, WireWriter,
        };
        let space = setup();
        let objective = |m: &Mapping| toy_objective(m);
        let mapper = Mapper::Hybrid {
            enumerate: 40,
            samples: 60,
            seed: 7,
        };
        let (whole, whole_stats) = mapper.search_sharded_counted(&space, &objective, 3);
        let mut parts = Vec::new();
        for k in 0..3 {
            let (winner, stats) = mapper.search_shard_counted(&space, &objective, k, 3);
            let mut w = WireWriter::new();
            encode_stats(&mut w, &stats);
            match &winner {
                Some((v, key, m)) => {
                    w.put_bool(true);
                    w.put_f64_bits(*v);
                    encode_key(&mut w, key);
                    encode_mapping(&mut w, m);
                }
                None => w.put_bool(false),
            }
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let stats = decode_stats(&mut r).unwrap();
            let winner = if r.get_bool("have").unwrap() {
                let v = r.get_f64_bits("value").unwrap();
                let key = decode_key(&mut r).unwrap();
                let m = decode_mapping(&mut r).unwrap();
                Some((v, key, m))
            } else {
                None
            };
            assert!(r.is_done());
            parts.push((winner, stats));
        }
        let (merged, stats) = merge_shard_results(parts);
        let (a, b) = (merged.unwrap(), whole.unwrap());
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(stats, whole_stats);
    }
}
