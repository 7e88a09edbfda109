//! Mapspaces: constraint-driven enumeration of candidate mappings.
//!
//! A [`Mapspace`] fixes, per storage level, the *order* in which
//! dimensions may appear as temporal loops and which dimensions may be
//! distributed spatially. What remains free — and what the mapper
//! explores — is the *factorization*: how each workload dimension's bound
//! splits across the eligible loop positions. This mirrors the paper's
//! "mapspace constraints" input (§5.1): the user supplies partial loop
//! orders, Sparseloop locates the best concrete schedule.

use crate::loops::{Loop, Mapping};
use rand::{Rng, RngCore};
use sparseloop_arch::Architecture;
use sparseloop_tensor::einsum::{DimId, Einsum, TensorId};
use std::sync::Arc;

/// All ordered factorizations of `n` into `k` positive factors.
///
/// The result is deterministic (lexicographic in factor order). Sizes grow
/// combinatorially; callers cap enumeration via `limit` (`None` =
/// unlimited).
///
/// # Example
/// ```
/// use sparseloop_mapping::factorizations;
/// let f = factorizations(4, 2, None);
/// assert_eq!(f, vec![vec![1, 4], vec![2, 2], vec![4, 1]]);
/// ```
pub fn factorizations(n: u64, k: usize, limit: Option<usize>) -> Vec<Vec<u64>> {
    assert!(n >= 1 && k >= 1, "need n >= 1 and k >= 1");
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn rec(
        n: u64,
        k: usize,
        current: &mut Vec<u64>,
        out: &mut Vec<Vec<u64>>,
        limit: Option<usize>,
    ) {
        if let Some(l) = limit {
            if out.len() >= l {
                return;
            }
        }
        if k == 1 {
            current.push(n);
            out.push(current.clone());
            current.pop();
            return;
        }
        for d in 1..=n {
            if n.is_multiple_of(d) {
                current.push(d);
                rec(n / d, k - 1, current, out, limit);
                current.pop();
            }
        }
    }
    rec(n, k, &mut current, &mut out, limit);
    out
}

/// A random ordered factorization of `n` into `k` positive factors — the
/// reference draw [`SampleIter`] must reproduce value for value (same
/// factors, same generator state afterwards).
#[cfg(test)]
fn random_factorization(n: u64, k: usize, rng: &mut impl Rng) -> Vec<u64> {
    let mut factors = vec![1u64; k];
    let mut rest = n;
    // Peel random divisors into random positions until rest is 1.
    while rest > 1 {
        let divisors: Vec<u64> = (2..=rest).filter(|d| rest.is_multiple_of(*d)).collect();
        let d = divisors[rng.gen_range(0..divisors.len())];
        // take a prime-ish chunk: smallest prime factor of d
        let p = smallest_prime_factor(d);
        let pos = rng.gen_range(0..k);
        factors[pos] *= p;
        rest /= p;
    }
    factors
}

fn smallest_prime_factor(n: u64) -> u64 {
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return d;
        }
        d += 1;
    }
    n
}

/// The prime factors of `n` with multiplicity, ascending (`n >= 1`;
/// `1` has no prime factors).
fn prime_factors(mut n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    while n > 1 {
        let p = smallest_prime_factor(n);
        out.push(p);
        n /= p;
    }
    out
}

/// The first `count` primes (the Halton sampler's per-decision bases).
fn first_primes(count: usize) -> Vec<u64> {
    let mut primes: Vec<u64> = Vec::with_capacity(count);
    let mut candidate = 2u64;
    while primes.len() < count {
        if primes.iter().all(|p| !candidate.is_multiple_of(*p)) {
            primes.push(candidate);
        }
        candidate += 1;
    }
    primes
}

/// Radical inverse (van der Corput sequence) of `i` in `base`: the digits
/// of `i` mirrored around the radix point, a low-discrepancy point in
/// `[0, 1)`.
fn radical_inverse(mut i: u64, base: u64) -> f64 {
    let inv = 1.0 / base as f64;
    let mut f = inv;
    let mut r = 0.0;
    while i > 0 {
        r += f * (i % base) as f64;
        i /= base;
        f *= inv;
    }
    r
}

/// Lazy, memoizing stream of the ordered factorizations of `n` into
/// `caps.len()` positive factors, factor `j` at most `caps[j]`, produced
/// in exactly the order [`factorizations`] returns them (its list with
/// the cap-violating entries left out).
///
/// [`Mapspace::iter_enumerate`] walks a mixed-radix counter over one
/// stream per workload dimension. The counter revisits indices, so
/// produced factorizations are cached for O(1) re-access — but nothing
/// past the highest index the counter has touched is ever computed, so an
/// enumeration stopped early by its output `limit` no longer pays the
/// full ordered-factor list of an astronomically composite bound up front
/// (the eager per-dimension allocation previously flagged in ROADMAP).
///
/// The caps are the spatial slots' fanout budgets: a factorization that
/// puts more than a level's whole fanout into one spatial slot fails the
/// fanout check whatever the other dimensions choose, so it is never
/// materialized and the counter never steps onto it. A capped stream may
/// therefore hold nothing at all.
///
/// No positions (`caps` empty) models a dimension that owns no loop
/// slots: the stream holds exactly one empty factorization (a unit radix
/// in the counter).
struct FactorizationStream {
    n: u64,
    caps: Vec<u64>,
    /// Materialized factorizations, `caps.len()` factors each, back to
    /// back.
    cache: Vec<u64>,
    /// Factorizations materialized so far.
    len: usize,
    /// DFS continuation: one frame per already-chosen factor position.
    stack: Vec<Frame>,
    /// Factors chosen by the frames, index-aligned with `stack`.
    current: Vec<u64>,
    started: bool,
    done: bool,
}

/// One suspended level of [`FactorizationStream`]'s depth-first walk.
struct Frame {
    /// Value left to factor at this position (before its choice).
    remaining: u64,
    /// Next divisor candidate to try here on backtrack.
    next: u64,
}

impl FactorizationStream {
    fn new(n: u64, caps: Vec<u64>) -> Self {
        assert!(n >= 1, "need n >= 1");
        FactorizationStream {
            n,
            // a zero cap admits no factor at all, not even the 1 the
            // walk descends with
            done: caps.contains(&0),
            caps,
            cache: Vec::new(),
            len: 0,
            stack: Vec::new(),
            current: Vec::new(),
            started: false,
        }
    }

    /// The `i`-th factorization, extending the cache as needed; `None`
    /// past the end of the stream.
    fn get(&mut self, i: usize) -> Option<&[u64]> {
        while self.len <= i && self.advance() {}
        (i < self.len).then(|| self.cached(i))
    }

    /// The `i`-th factorization, which must already be materialized.
    fn cached(&self, i: usize) -> &[u64] {
        assert!(i < self.len, "factorization {i} not materialized");
        let k = self.caps.len();
        &self.cache[i * k..(i + 1) * k]
    }

    /// Materializes the next factorization; `false` once exhausted.
    fn advance(&mut self) -> bool {
        if self.done {
            return false;
        }
        let Some(&tail_cap) = self.caps.last() else {
            self.done = true;
            self.len = 1;
            return true;
        };
        let mut tail = None;
        if !self.started {
            self.started = true;
            tail = Some(self.descend(self.n));
        }
        loop {
            if tail.is_some_and(|t| t <= tail_cap) {
                self.cache.extend_from_slice(&self.current);
                self.cache.extend(tail);
                self.len += 1;
                return true;
            }
            let Some(frame) = self.stack.last_mut() else {
                self.done = true;
                return false;
            };
            // next divisor of this level's remaining value within its cap
            let most = frame.remaining.min(self.caps[self.current.len() - 1]);
            let mut d = frame.next;
            while d <= most && !frame.remaining.is_multiple_of(d) {
                d += 1;
            }
            if d > most {
                self.stack.pop();
                self.current.pop();
                tail = None;
                continue;
            }
            frame.next = d + 1;
            let rest = frame.remaining / d;
            *self.current.last_mut().expect("frame has a chosen factor") = d;
            tail = Some(self.descend(rest));
        }
    }

    /// Chooses factor 1 at every level below the current one, down to
    /// the last position but one; returns the value left for the final
    /// position.
    fn descend(&mut self, rest: u64) -> u64 {
        while self.stack.len() < self.caps.len() - 1 {
            self.stack.push(Frame {
                remaining: rest,
                next: 2,
            });
            self.current.push(1);
        }
        rest
    }
}

/// One loop *slot* of a mapspace: a level plus position where a dimension
/// may receive a tiling factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    level: usize,
    dim: DimId,
    spatial: bool,
}

/// The outermost position at which a candidate differs from the
/// previously yielded candidate of the same stream.
///
/// The deterministic enumeration streams ([`Mapspace::iter_enumerate`],
/// [`Mapspace::shards`]) emit candidates in lexicographic factorization
/// order, so consecutive candidates usually share a long outer-loop
/// prefix. Each yielded candidate carries its `ChangeDepth` so an
/// incremental evaluator can reuse everything derived from the shared
/// prefix (per-level tile bounds, occupancies, format analyses) and
/// recompute only from the first changed loop inward.
///
/// **Contract** (what an evaluator may rely on): for
/// `ChangeDepth::At { level, loop_pos }`,
///
/// * the nests of every storage level strictly above `level` are
///   bit-identical to the previous candidate's, and within `level` the
///   loops before the first change are identical too;
/// * the flattened `(level, loop)` lists of the two candidates agree on
///   their first `loop_pos` entries and differ at position `loop_pos`
///   (where present — a factor may collapse to an elided factor-1 loop);
/// * because every candidate factorizes each workload dimension exactly,
///   the tile held at any level at-or-above `level` (the projection of
///   the loops at-and-below it) is also unchanged.
///
/// `Reset` marks stream seams — the first candidate of a stream or
/// shard, and every sampled (non-enumerated) draw — where no prefix may
/// be assumed and a consumer must recompute from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeDepth {
    /// No relation to the previously yielded candidate: stream start,
    /// shard seam, or a sampled draw. Consumers recompute everything.
    Reset,
    /// The first difference from the previous candidate.
    At {
        /// Storage level containing the first changed loop position.
        level: usize,
        /// Index into the flattened loop list of the first difference.
        loop_pos: usize,
    },
}

impl ChangeDepth {
    /// The deepest storage level whose *held tile* is guaranteed
    /// unchanged from the previous candidate (`None` for [`Reset`]:
    /// nothing may be reused).
    ///
    /// [`Reset`]: ChangeDepth::Reset
    pub fn reuse_level(&self) -> Option<usize> {
        match *self {
            ChangeDepth::Reset => None,
            ChangeDepth::At { level, .. } => Some(level),
        }
    }
}

/// First-difference position between the previous and current per-slot
/// factor assignments (both full factorizations of the same bounds).
fn change_depth(slots: &[Slot], prev: &[u64], cur: &[u64]) -> ChangeDepth {
    let mut loop_pos = 0usize;
    for (i, (&p, &c)) in prev.iter().zip(cur).enumerate() {
        if p != c {
            return ChangeDepth::At {
                level: slots[i].level,
                loop_pos,
            };
        }
        if c > 1 {
            loop_pos += 1;
        }
    }
    // Identical factor vectors never occur between consecutive distinct
    // candidates; stay conservative if they somehow do.
    ChangeDepth::Reset
}

/// A constrained space of mappings for one workload on one architecture.
#[derive(Debug, Clone)]
pub struct Mapspace {
    num_levels: usize,
    num_tensors: usize,
    num_dims: usize,
    dim_bounds: Vec<u64>,
    /// Per level, the ordered dims eligible for temporal loops.
    temporal_order: Vec<Vec<DimId>>,
    /// Per level, dims eligible for spatial loops (placed before the
    /// level's temporal loops).
    spatial_dims: Vec<Vec<DimId>>,
    /// Per level fanout budget (from the architecture).
    fanout: Vec<u64>,
    /// Keep matrix (`[level][tensor]`, true = stored).
    keep: Vec<Vec<bool>>,
}

impl Mapspace {
    /// A mapspace that allows every dimension as a temporal loop at every
    /// level, in workload dimension order, with no spatial loops.
    pub fn all_temporal(einsum: &Einsum, arch: &Architecture) -> Self {
        let dims: Vec<DimId> = (0..einsum.dims().len()).map(DimId).collect();
        Mapspace {
            num_levels: arch.num_levels(),
            num_tensors: einsum.tensors().len(),
            num_dims: einsum.dims().len(),
            dim_bounds: einsum.bounds(),
            temporal_order: vec![dims.clone(); arch.num_levels()],
            spatial_dims: vec![Vec::new(); arch.num_levels()],
            fanout: (0..arch.num_levels())
                .map(|l| arch.fanout_below(sparseloop_arch::LevelId(l)))
                .collect(),
            keep: vec![vec![true; einsum.tensors().len()]; arch.num_levels()],
        }
    }

    /// Restricts level `l`'s temporal loops to the given dims, in the
    /// given outermost-first order.
    pub fn with_temporal_order(mut self, level: usize, dims: Vec<DimId>) -> Self {
        self.temporal_order[level] = dims;
        self
    }

    /// Allows the given dims to be distributed spatially below `level`.
    pub fn with_spatial_dims(mut self, level: usize, dims: Vec<DimId>) -> Self {
        self.spatial_dims[level] = dims;
        self
    }

    /// Marks tensor `t` as bypassed at `level` in every generated mapping.
    pub fn with_bypass(mut self, level: usize, t: TensorId) -> Self {
        self.keep[level][t.0] = false;
        self
    }

    /// Number of storage levels the space's mappings cover.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Number of workload tensors.
    pub fn num_tensors(&self) -> usize {
        self.num_tensors
    }

    /// Number of workload dimensions.
    pub fn num_dims(&self) -> usize {
        self.num_dims
    }

    /// Per-level temporal dimension orders (outermost level first) — the
    /// constraint state [`with_temporal_order`] sets, exposed so the spec
    /// front-end can serialize a mapspace back to its declarative form.
    ///
    /// [`with_temporal_order`]: Mapspace::with_temporal_order
    pub fn temporal_order(&self) -> &[Vec<DimId>] {
        &self.temporal_order
    }

    /// Per-level spatially-eligible dimensions (see
    /// [`with_spatial_dims`](Mapspace::with_spatial_dims)).
    pub fn spatial_dims(&self) -> &[Vec<DimId>] {
        &self.spatial_dims
    }

    /// The `(level, tensor)` pairs bypassed in every generated mapping
    /// (see [`with_bypass`](Mapspace::with_bypass)), outermost first.
    pub fn bypasses(&self) -> Vec<(usize, TensorId)> {
        let mut out = Vec::new();
        for (l, keeps) in self.keep.iter().enumerate() {
            for (t, &kept) in keeps.iter().enumerate() {
                if !kept {
                    out.push((l, TensorId(t)));
                }
            }
        }
        out
    }

    /// The ordered loop slots of this mapspace (levels outermost-first;
    /// spatial slots before temporal slots within a level).
    fn slots(&self) -> Vec<Slot> {
        let mut slots = Vec::new();
        for l in 0..self.num_levels {
            for &d in &self.spatial_dims[l] {
                slots.push(Slot {
                    level: l,
                    dim: d,
                    spatial: true,
                });
            }
            for &d in &self.temporal_order[l] {
                slots.push(Slot {
                    level: l,
                    dim: d,
                    spatial: false,
                });
            }
        }
        slots
    }

    /// Builds the mapping corresponding to per-slot factors, dropping
    /// factor-1 loops. The factors must already have passed
    /// [`fanout_ok`](Mapspace::fanout_ok); every generated mapping
    /// shares the plan's bypass configuration snapshot (see
    /// [`Mapping::with_shared_keep`]).
    fn build_mapping(&self, plan: &SlotPlan, factors: &[u64]) -> Mapping {
        let mut nests: Vec<Vec<Loop>> = vec![Vec::new(); self.num_levels];
        for (s, &f) in plan.slots.iter().zip(factors) {
            if f > 1 {
                nests[s.level].push(if s.spatial {
                    Loop::spatial(s.dim, f)
                } else {
                    Loop::temporal(s.dim, f)
                });
            }
        }
        Mapping::with_shared_keep(nests, Arc::clone(&plan.keep))
    }

    /// Whether per-slot factors respect every level's spatial fanout
    /// budget — the validity test every candidate passes before its
    /// mapping is built (and the shard census applies to count
    /// candidates without paying for their construction). One pass:
    /// slots are grouped by level, so a running product per level
    /// suffices; it saturates rather than wraps, so bounds whose product
    /// exceeds `u64::MAX` read as over budget, not as some small number.
    fn fanout_ok(&self, slots: &[Slot], factors: &[u64]) -> bool {
        let mut level = usize::MAX;
        let mut product = 1u64;
        for (s, &f) in slots.iter().zip(factors) {
            if !s.spatial {
                continue;
            }
            if s.level != level {
                level = s.level;
                product = 1;
            }
            product = product.saturating_mul(f);
            if product > self.fanout[level] {
                return false;
            }
        }
        true
    }

    /// Precomputes the slot layout shared by enumeration and sampling.
    /// `feasible` is false when a dimension with bound > 1 has no slot to
    /// live in (the space contains no mapping at all).
    fn plan(&self) -> SlotPlan {
        let slots = self.slots();
        let mut per_dim: Vec<Vec<usize>> = vec![Vec::new(); self.num_dims];
        for (i, s) in slots.iter().enumerate() {
            per_dim[s.dim.0].push(i);
        }
        let feasible =
            (0..self.num_dims).all(|d| !per_dim[d].is_empty() || self.dim_bounds[d] == 1);
        let caps = slots
            .iter()
            .map(|s| {
                if s.spatial {
                    self.fanout[s.level]
                } else {
                    u64::MAX
                }
            })
            .collect();
        let class = slots
            .iter()
            .map(|s| {
                slots
                    .iter()
                    .position(|t| t == s)
                    .expect("slot equals itself") as u64
            })
            .collect();
        SlotPlan {
            slots,
            per_dim,
            caps,
            class,
            feasible,
            keep: Arc::new(self.keep.clone()),
        }
    }

    /// Streaming deterministic enumeration of up to `limit` mappings.
    ///
    /// Candidates are produced lazily in the same order [`enumerate`]
    /// (a thin collecting wrapper) returns them, so exhaustive search
    /// over a combinatorially large mapspace needs O(1) memory in the
    /// candidate count.
    ///
    /// `limit` caps only the *output*: every candidate of the space is
    /// reachable given a large enough `limit` — a dimension with many
    /// factorizations never silently loses its tail (the seed capped the
    /// per-dimension lists at `limit` too, which made small limits skip
    /// late-but-valid candidates entirely).
    ///
    /// Memory note: each dimension's ordered factorization list is a
    /// *lazy memoizing stream*: factorizations
    /// materialize only as far as the mixed-radix counter reaches, so an
    /// enumeration stopped early (small `limit`, or a search that bails
    /// out) never allocates the full ordered-factor list of an
    /// astronomically composite bound up front.
    ///
    /// [`enumerate`]: Mapspace::enumerate
    pub fn iter_enumerate(&self, limit: usize) -> EnumerateIter<'_> {
        let plan = self.plan();
        let mut counter = Counter::new(self, &plan, self.num_dims);
        let mut factors = vec![1u64; plan.slots.len()];
        let exhausted = !plan.feasible || limit == 0 || counter.empty;
        if !exhausted {
            counter.rewind(&plan, &mut factors);
        }
        EnumerateIter {
            space: self,
            counter,
            last: factors.clone(),
            factors,
            have_prev: false,
            produced: 0,
            limit,
            exhausted,
            plan,
        }
    }

    /// Streaming random sampling of up to `count` mappings (duplicates
    /// possible). Draws stop after `count` valid mappings or `20 × count`
    /// attempts, whichever comes first — identical semantics to
    /// [`sample`](Mapspace::sample), which collects this iterator.
    ///
    /// # Draw order
    ///
    /// One attempt visits the dimensions that own loop slots in index
    /// order and, per dimension, peels its bound one prime at a time:
    /// `gen_range(0..#divisors of the rest, 1 excluded)` picks a divisor
    /// (ascending order) whose smallest prime factor is peeled, then
    /// `gen_range(0..#slots)` picks the slot it lands in. That is
    /// **exactly `2·Ω(bound)` bounded draws per dimension** (Ω = prime
    /// factors with multiplicity) whatever the draws come out as — so
    /// the iterator draws an attempt's raw values up front and abandons
    /// the attempt as soon as its spatial factors overrun a fanout
    /// budget, without working out the rest. The yielded mappings and
    /// the generator state after every attempt are those of drawing and
    /// placing every prime in order, for any `R`.
    pub fn iter_sample<R: Rng>(&self, count: usize, rng: R) -> SampleIter<'_, R> {
        let plan = self.plan();
        SampleIter {
            space: self,
            draw: FactorDraw::new(self, &plan),
            plan,
            rng,
            produced: 0,
            attempts: 0,
            count,
        }
    }

    /// Enumerates up to `limit` mappings deterministically, materialized.
    ///
    /// Prefer [`iter_enumerate`](Mapspace::iter_enumerate) in search
    /// loops; this wrapper exists for callers that genuinely need the
    /// whole candidate list at once.
    pub fn enumerate(&self, limit: usize) -> Vec<Mapping> {
        self.iter_enumerate(limit).collect()
    }

    /// Samples `count` random mappings (duplicates possible),
    /// materialized. Prefer [`iter_sample`](Mapspace::iter_sample) in
    /// search loops.
    pub fn sample(&self, count: usize, rng: &mut impl Rng) -> Vec<Mapping> {
        self.iter_sample(count, rng).collect()
    }

    /// Streaming low-discrepancy (Halton) sampling of up to `count`
    /// mappings.
    ///
    /// Each draw assigns the prime factors of every dimension's bound to
    /// that dimension's loop slots using one radical-inverse coordinate
    /// per `(dimension, prime)` decision — consecutive sample indices
    /// therefore spread over the factorization space far more evenly
    /// than independent uniform draws, which cluster and repeat. The
    /// sequence is a pure function of `(space, count, seed)`:
    /// reproducible like [`iter_sample`](Mapspace::iter_sample), with
    /// the same draw-budget semantics (stops after `count` valid
    /// mappings or `20 × count` attempts).
    pub fn iter_sample_halton(&self, count: usize, seed: u64) -> HaltonSampleIter<'_> {
        let plan = self.plan();
        let dim_primes: Vec<Vec<u64>> = (0..self.num_dims)
            .map(|d| {
                if plan.per_dim[d].is_empty() {
                    Vec::new()
                } else {
                    prime_factors(self.dim_bounds[d])
                }
            })
            .collect();
        let decisions: usize = dim_primes.iter().map(Vec::len).sum();
        HaltonSampleIter {
            space: self,
            factors: vec![1u64; plan.slots.len()],
            plan,
            bases: first_primes(decisions),
            dim_primes,
            // offset the sequence by the seed (kept small so radical
            // inverses stay cheap); +1 skips the all-zeros point
            offset: (seed % (1 << 16)) + 1,
            produced: 0,
            attempts: 0,
            count,
        }
    }

    /// Partitions [`iter_enumerate`]`(limit)`'s candidate stream into
    /// `n` disjoint, collectively exhaustive shards.
    ///
    /// The split runs along the *outermost* factorization dimensions:
    /// the slowest-varying counter digits form a block space (grown one
    /// dimension at a time until it holds at least `n` blocks), and
    /// shard `i` owns blocks `i, i + n, i + 2n, …` — so the union of
    /// all shards' candidates is exactly the unsharded stream, each
    /// candidate appearing in exactly one shard.
    ///
    /// Each shard yields `(`[`CandidateKey`]`, Mapping)` pairs whose
    /// keys are **globally comparable across shards**: sorting the union
    /// by key reproduces `iter_enumerate(limit)`'s exact sequence, and a
    /// sharded search can therefore reduce per-shard winners with the
    /// same deterministic `(objective, candidate position)` rule as the
    /// unsharded parallel search — bit-identical winners at any shard
    /// count.
    ///
    /// A finite `limit` is honored *exactly*: a cheap census pass
    /// (candidate generation without mapping construction) counts
    /// produced candidates per block so every shard knows which of its
    /// candidates fall inside the global first-`limit` prefix. The
    /// census costs one extra generation walk of at most `limit`
    /// candidates; pass `usize::MAX` to skip it when the whole space is
    /// wanted.
    ///
    /// Cost note: unlike the fully lazy [`iter_enumerate`], the *block*
    /// dimensions' ordered factorization lists are materialized eagerly
    /// (block decoding needs random access across shards). The suffix
    /// only grows until it holds `n` blocks, so this is bounded by the
    /// outermost dimension(s) actually split on — constrain the
    /// outermost temporal order if an astronomically composite bound
    /// ends up there.
    ///
    /// [`iter_enumerate`]: Mapspace::iter_enumerate
    pub fn shards(&self, n: usize, limit: usize) -> Vec<MapspaceShard<'_>> {
        let n = n.max(1);
        let plan = self.plan();
        let empty = || (0..n).map(|_| MapspaceShard::empty(self)).collect();
        if !plan.feasible || limit == 0 {
            return empty();
        }
        // grow the block space from the outermost dimension inward until
        // it offers at least n blocks (or swallows every dimension)
        let mut split = self.num_dims;
        let mut blocks: u64 = 1;
        let mut outer_rev: Vec<Vec<Vec<u64>>> = Vec::new();
        while split > 0 && blocks < n as u64 {
            split -= 1;
            let list = if plan.per_dim[split].is_empty() {
                vec![Vec::new()]
            } else {
                factorizations(self.dim_bounds[split], plan.per_dim[split].len(), None)
            };
            blocks = blocks.saturating_mul(list.len() as u64);
            outer_rev.push(list);
        }
        outer_rev.reverse(); // now ordered by dim index: split, split+1, …
        let outer = Arc::new(BlockSpace {
            split,
            lists: outer_rev,
        });
        let census = Counter::new(self, &plan, split);
        if census.empty {
            return empty();
        }
        let base = (limit < usize::MAX)
            .then(|| Arc::new(self.shard_census(&plan, &outer, census, blocks, limit)));
        (0..n)
            .map(|s| {
                let plan = plan.clone();
                let num_slots = plan.slots.len();
                MapspaceShard {
                    space: self,
                    counter: Counter::new(self, &plan, split),
                    plan,
                    outer: Arc::clone(&outer),
                    blocks: (s as u64..blocks).step_by(n).collect(),
                    base: base.clone(),
                    limit,
                    next_block: 0,
                    cur_block_id: 0,
                    factors: vec![1u64; num_slots],
                    last: vec![1u64; num_slots],
                    have_prev: false,
                    rank: 0,
                    block_active: false,
                    done: false,
                }
            })
            .collect()
    }

    /// Counts produced (fanout-valid) candidates per block, in global
    /// stream order, saturating once the cumulative count reaches
    /// `limit`. Returns each block's *base*: the number of candidates
    /// the unsharded stream produces before the block starts (clamped to
    /// `limit`, so blocks entirely past the cutoff read `base == limit`).
    fn shard_census(
        &self,
        plan: &SlotPlan,
        outer: &BlockSpace,
        mut counter: Counter,
        blocks: u64,
        limit: usize,
    ) -> Vec<usize> {
        let mut factors = vec![1u64; plan.slots.len()];
        let mut base = Vec::with_capacity(blocks as usize);
        let mut cum = 0usize;
        for b in 0..blocks {
            base.push(cum.min(limit));
            if cum >= limit || !outer.enter(b, plan, &mut counter, &mut factors) {
                continue;
            }
            loop {
                if self.fanout_ok(&plan.slots, &factors) {
                    cum += 1;
                    if cum >= limit {
                        break;
                    }
                }
                if !counter.step(plan, &mut factors) {
                    break;
                }
            }
        }
        base
    }
}

/// The block half of a sharded enumeration: the eager factorization
/// lists of the suffix dims `split..`, whose cross product (dimension
/// `split` varying fastest, matching the global counter) numbers the
/// blocks.
struct BlockSpace {
    /// Dim index where the block (suffix) space begins; dims below it
    /// form the within-block cross product.
    split: usize,
    lists: Vec<Vec<Vec<u64>>>,
}

impl BlockSpace {
    /// Writes block `id`'s suffix-dim factors and rewinds `counter` to
    /// the block's first position. `false` when one of the block's
    /// factorizations overruns a spatial cap: the block holds no
    /// candidate and nothing need walk it.
    fn enter(
        &self,
        mut id: u64,
        plan: &SlotPlan,
        counter: &mut Counter,
        factors: &mut [u64],
    ) -> bool {
        for (i, list) in self.lists.iter().enumerate() {
            let len = list.len() as u64;
            let f = &list[(id % len) as usize];
            id /= len;
            let d = self.split + i;
            if plan.per_dim[d]
                .iter()
                .zip(f)
                .any(|(&s, &v)| v > plan.caps[s])
            {
                return false;
            }
            plan.write_dim(factors, d, f);
        }
        counter.rewind(plan, factors);
        true
    }
}

/// Slot layout shared by the candidate iterators.
#[derive(Clone)]
struct SlotPlan {
    slots: Vec<Slot>,
    /// Slot indices owned by each dimension.
    per_dim: Vec<Vec<usize>>,
    /// Per slot, the most one factor may put there: the level's fanout
    /// for a spatial slot, unbounded for a temporal one.
    caps: Vec<u64>,
    /// Per slot, the index of the first slot with the same level, dim
    /// and kind (itself, unless a constraint lists a dim twice).
    class: Vec<u64>,
    /// False when some dimension with bound > 1 has no slot.
    feasible: bool,
    /// Bypass configuration shared by every generated mapping.
    keep: Arc<Vec<Vec<bool>>>,
}

impl SlotPlan {
    /// Writes dimension `d`'s factorization into its slots.
    fn write_dim(&self, factors: &mut [u64], d: usize, f: &[u64]) {
        for (&slot, &v) in self.per_dim[d].iter().zip(f) {
            factors[slot] = v;
        }
    }

    /// The dedup key of a candidate's per-slot factors: equal keys ⇔
    /// equal mappings. Factor-1 slots vanish from a mapping, and twin
    /// slots (same level, dim and kind) build the same loop, so the key
    /// lists `(class, factor)` for the non-unit slots — the mapping's
    /// loop nests, without building or hashing the mapping.
    fn key_of(&self, factors: &[u64], key: &mut Vec<u64>) {
        key.clear();
        for (&class, &f) in self.class.iter().zip(factors) {
            if f > 1 {
                key.extend([class, f]);
            }
        }
    }
}

/// Mixed-radix counter over the capped factorization streams of dims
/// `0..streams.len()` (dim 0 varies fastest) that keeps a per-slot
/// factor buffer in step: moving a digit rewrites that dimension's slots
/// and no others. Shared by the enumeration iterator, the shard census,
/// and the shards themselves — one definition, so they cannot drift
/// apart.
struct Counter {
    streams: Vec<FactorizationStream>,
    choice: Vec<usize>,
    /// Some stream holds no factorization: the counter has no position
    /// and must not be moved.
    empty: bool,
}

impl Counter {
    fn new(space: &Mapspace, plan: &SlotPlan, dims: usize) -> Self {
        let mut streams: Vec<FactorizationStream> = (0..dims)
            .map(|d| {
                let caps = plan.per_dim[d].iter().map(|&s| plan.caps[s]).collect();
                FactorizationStream::new(space.dim_bounds[d], caps)
            })
            .collect();
        // index 0 pre-materialized, so `rewind` is always addressable
        let empty = streams.iter_mut().any(|s| s.get(0).is_none());
        Counter {
            choice: vec![0; dims],
            streams,
            empty,
        }
    }

    /// Moves every digit to its first factorization.
    fn rewind(&mut self, plan: &SlotPlan, factors: &mut [u64]) {
        for (d, stream) in self.streams.iter().enumerate() {
            self.choice[d] = 0;
            plan.write_dim(factors, d, stream.cached(0));
        }
    }

    /// Moves to the next position, extending streams lazily; `false`
    /// once the counter wrapped around to its first position.
    fn step(&mut self, plan: &SlotPlan, factors: &mut [u64]) -> bool {
        for (d, stream) in self.streams.iter_mut().enumerate() {
            self.choice[d] += 1;
            if let Some(f) = stream.get(self.choice[d]) {
                plan.write_dim(factors, d, f);
                return true;
            }
            self.choice[d] = 0;
            plan.write_dim(factors, d, stream.cached(0));
        }
        false
    }
}

/// Lazy deterministic mapspace enumeration
/// (see [`Mapspace::iter_enumerate`]).
pub struct EnumerateIter<'a> {
    space: &'a Mapspace,
    plan: SlotPlan,
    /// Walks the cross product of the per-dim factorization streams,
    /// materializing each stream only as far as it has reached.
    counter: Counter,
    /// Per-slot factors at the counter's position (the iterator
    /// allocates nothing per candidate beyond the mapping itself).
    factors: Vec<u64>,
    /// Factors of the last *yielded* candidate (delta baseline).
    last: Vec<u64>,
    have_prev: bool,
    produced: usize,
    limit: usize,
    exhausted: bool,
}

impl EnumerateIter<'_> {
    /// Whether the underlying mixed-radix counter has walked the whole
    /// space (as opposed to the stream stopping at its output `limit`).
    /// Once the stream returns `None`, this tells a hybrid mapper for
    /// free whether its enumerated prefix *covered* the space — in which
    /// case every sampled draw would duplicate an enumerated candidate
    /// and the sample tail (with its `20 × samples` draw budget) can be
    /// skipped outright.
    ///
    /// Caveat: also `true` for an infeasible space or a zero limit
    /// (nothing left to walk either way); a caller distinguishing
    /// "covered by my prefix" from "never started" must check its limit
    /// was positive.
    pub fn space_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Like [`Iterator::next`], additionally reporting where the yielded
    /// candidate first differs from the previously yielded one (see
    /// [`ChangeDepth`]). The first candidate reports
    /// [`ChangeDepth::Reset`].
    pub fn next_delta(&mut self) -> Option<(ChangeDepth, Mapping)> {
        let depth = self.advance()?;
        Some((depth, self.space.build_mapping(&self.plan, &self.last)))
    }

    /// [`next_delta`](EnumerateIter::next_delta) without building the
    /// mapping: the candidate is left as its per-slot factors (see
    /// [`last_key`](EnumerateIter::last_key)).
    pub(crate) fn advance(&mut self) -> Option<ChangeDepth> {
        while !self.exhausted && self.produced < self.limit {
            let mut found = None;
            if self.space.fanout_ok(&self.plan.slots, &self.factors) {
                found = Some(if self.have_prev {
                    change_depth(&self.plan.slots, &self.last, &self.factors)
                } else {
                    ChangeDepth::Reset
                });
                self.last.copy_from_slice(&self.factors);
                self.have_prev = true;
                self.produced += 1;
            }
            // the counter moves on before the candidate is handed out, so
            // a stream that just yielded its space's last candidate
            // already knows it is exhausted
            self.exhausted = !self.counter.step(&self.plan, &mut self.factors);
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// The dedup key of the last yielded candidate (equal keys ⇔ equal
    /// mappings, across every iterator of one space).
    pub(crate) fn last_key(&self, key: &mut Vec<u64>) {
        self.plan.key_of(&self.last, key);
    }
}

impl Iterator for EnumerateIter<'_> {
    type Item = Mapping;

    fn next(&mut self) -> Option<Mapping> {
        self.next_delta().map(|(_, m)| m)
    }
}

/// A precomputed `gen_range(0..len)`: the same raw values consumed and
/// the same result as the vendored generator's draw.
#[derive(Clone, Copy, Default)]
struct Bounded {
    len: u64,
    /// `u64::MAX − (2⁶⁴ mod len)`: the largest raw value the draw
    /// accepts — the generator rejects and redraws above it to stay
    /// unbiased.
    zone: u64,
}

impl Bounded {
    fn new(len: usize) -> Self {
        let len = len as u64;
        Bounded {
            len,
            zone: u64::MAX - (u64::MAX - len + 1) % len,
        }
    }

    fn draw<G: RngCore>(&self, rng: &mut G) -> usize {
        loop {
            let v = rng.next_u64();
            if v <= self.zone {
                return (v % self.len) as usize;
            }
        }
    }
}

/// The divisor lattice of one dimension bound, tabulated for the
/// sampler's peel: for a `rest` (a divisor of the bound), drawing index
/// `i` among its divisors other than 1, ascending, peels the smallest
/// prime factor of the `i`-th and leaves `rest / prime`. Rows are built
/// on first visit, so the table grows with the rests draws actually
/// reach, not with the square of the divisor count.
struct DivisorLattice {
    /// All divisors of the bound, ascending: index 0 is 1 (the peel's
    /// end), the last is the bound (its start).
    divisors: Vec<u64>,
    /// Smallest prime factor of each divisor (of 1: unused).
    spf: Vec<u64>,
    /// Per divisor, its row of `edges` (an empty draw: not built yet —
    /// every rest above 1 has at least itself to draw).
    rows: Vec<Row>,
    /// `(prime peeled, index of the rest it leaves)`, row after row.
    edges: Vec<(u64, usize)>,
    /// Ω(bound): peels per walk from the bound down to 1.
    peels: usize,
}

#[derive(Clone, Copy, Default)]
struct Row {
    start: usize,
    /// The draw over the row's edges.
    pick: Bounded,
}

impl DivisorLattice {
    fn new(bound: u64) -> Self {
        let primes = prime_factors(bound);
        let mut divisors = vec![1u64];
        let mut i = 0;
        while i < primes.len() {
            // every divisor so far, times each power of the next prime
            let p = primes[i];
            let run = primes[i..].iter().take_while(|&&q| q == p).count();
            let base = divisors.len();
            let mut power = 1;
            for _ in 0..run {
                power *= p;
                for j in 0..base {
                    divisors.push(divisors[j] * power);
                }
            }
            i += run;
        }
        divisors.sort_unstable();
        let spf = divisors
            .iter()
            .map(|d| *primes.iter().find(|&&p| d.is_multiple_of(p)).unwrap_or(&1))
            .collect();
        DivisorLattice {
            rows: vec![Row::default(); divisors.len()],
            divisors,
            spf,
            edges: Vec::new(),
            peels: primes.len(),
        }
    }

    /// The peel row of the `i`-th divisor (`i > 0`).
    fn row(&mut self, i: usize) -> Row {
        if self.rows[i].pick.len == 0 {
            let rest = self.divisors[i];
            let start = self.edges.len();
            for j in 1..=i {
                if rest.is_multiple_of(self.divisors[j]) {
                    let p = self.spf[j];
                    let next = self
                        .divisors
                        .binary_search(&(rest / p))
                        .expect("a divisor's divisors are in the lattice");
                    self.edges.push((p, next));
                }
            }
            self.rows[i] = Row {
                start,
                pick: Bounded::new(self.edges.len() - start),
            };
        }
        self.rows[i]
    }
}

/// One dimension of the sampler's attempt: its peel table and slots.
struct DimDraw {
    dim: usize,
    lattice: DivisorLattice,
    /// The draw over the dimension's slots.
    place: Bounded,
    /// Where the dimension's draws start in an attempt's raw values
    /// (when each bounded draw takes exactly one).
    first_raw: usize,
}

/// The uniform sampler's attempt state (see [`Mapspace::iter_sample`]
/// for the draw order it reproduces).
struct FactorDraw {
    /// Dimensions that own slots and have something to factor, in index
    /// order.
    dims: Vec<DimDraw>,
    /// Indices into `dims`: those with a spatial slot — the only ones
    /// that can overrun a fanout — first.
    spatial_first: Vec<usize>,
    /// Bounded draws per attempt: `2·Ω(bound)` summed over `dims`.
    draws: usize,
    /// Raw values up to here pass any bounded draw of this space on the
    /// first try (its ranges are at most `u64::MAX - safe_raw` wide).
    safe_raw: u64,
    /// Per-slot factors of the current attempt, written as primes land.
    factors: Vec<u64>,
    /// Per-level running product of the spatial factors.
    spatial: Vec<u64>,
    /// The current attempt's first `draws` raw values.
    raw: Vec<u64>,
}

impl FactorDraw {
    fn new(space: &Mapspace, plan: &SlotPlan) -> Self {
        let mut draws = 0;
        let dims: Vec<DimDraw> = (0..space.num_dims)
            .filter(|&d| !plan.per_dim[d].is_empty() && space.dim_bounds[d] > 1)
            .map(|d| {
                let lattice = DivisorLattice::new(space.dim_bounds[d]);
                let first_raw = draws;
                draws += 2 * lattice.peels;
                DimDraw {
                    dim: d,
                    lattice,
                    place: Bounded::new(plan.per_dim[d].len()),
                    first_raw,
                }
            })
            .collect();
        let has_spatial = |t: &DimDraw| plan.per_dim[t.dim].iter().any(|&s| plan.slots[s].spatial);
        let (mut spatial_first, rest): (Vec<usize>, Vec<usize>) =
            (0..dims.len()).partition(|&i| has_spatial(&dims[i]));
        spatial_first.extend(rest);
        let widest = dims
            .iter()
            .map(|t| t.lattice.divisors.len().max(plan.per_dim[t.dim].len()))
            .max()
            .unwrap_or(0);
        FactorDraw {
            dims,
            spatial_first,
            draws,
            safe_raw: u64::MAX - widest as u64,
            factors: vec![1u64; plan.slots.len()],
            spatial: vec![1u64; space.num_levels],
            raw: Vec::new(),
        }
    }

    /// One attempt: draws a factorization of every dimension into
    /// `factors`; `true` when it respects every fanout budget. Consumes
    /// from `rng` exactly what the full draw consumes.
    ///
    /// The attempt's raw values are drawn up front, one per bounded
    /// draw. Unless one of them is large enough that some draw might
    /// reject it, every draw takes exactly its own value, so the
    /// dimensions can be peeled in any order — those that can overrun a
    /// fanout first, and the attempt abandoned the moment one does,
    /// with the generator already where the full draw leaves it.
    /// Otherwise the attempt is replayed draw for draw: the recorded
    /// values, then the live generator for whatever rejections add.
    fn attempt<G: RngCore>(&mut self, space: &Mapspace, plan: &SlotPlan, rng: &mut G) -> bool {
        self.raw.clear();
        self.raw.extend((0..self.draws).map(|_| rng.next_u64()));
        self.factors.fill(1);
        self.spatial.fill(1);
        let FactorDraw {
            dims,
            spatial_first,
            factors,
            spatial,
            raw,
            ..
        } = self;
        if raw.iter().all(|&v| v <= self.safe_raw) {
            spatial_first.iter().all(|&i| {
                let t = &mut dims[i];
                // `rng` stays untouched: no draw rejects these values
                let mut own = Replay {
                    recorded: raw[t.first_raw..].iter(),
                    live: &mut *rng,
                };
                t.peel(space, plan, factors, spatial, &mut own, true)
            })
        } else {
            let mut replay = Replay {
                recorded: raw.iter(),
                live: rng,
            };
            // no short-circuit: every dimension must take its draws
            let mut fits = true;
            for t in dims.iter_mut() {
                fits &= t.peel(space, plan, factors, spatial, &mut replay, false);
            }
            fits
        }
    }
}

impl DimDraw {
    /// Peels the dimension's bound prime by prime into random slots of
    /// `factors`; `false` when a level's spatial product overran its
    /// fanout — at once with `stop_on_overrun`, after placing every
    /// prime without.
    fn peel<G: RngCore>(
        &mut self,
        space: &Mapspace,
        plan: &SlotPlan,
        factors: &mut [u64],
        spatial: &mut [u64],
        rng: &mut G,
        stop_on_overrun: bool,
    ) -> bool {
        let slots = &plan.per_dim[self.dim];
        let mut fits = true;
        let mut rest = self.lattice.divisors.len() - 1;
        while rest > 0 {
            let row = self.lattice.row(rest);
            let (prime, next) = self.lattice.edges[row.start + row.pick.draw(rng)];
            let slot = slots[self.place.draw(rng)];
            rest = next;
            factors[slot] *= prime;
            let Slot {
                level,
                spatial: is_spatial,
                ..
            } = plan.slots[slot];
            if is_spatial {
                spatial[level] = spatial[level].saturating_mul(prime);
                if spatial[level] > space.fanout[level] {
                    fits = false;
                    if stop_on_overrun {
                        break;
                    }
                }
            }
        }
        fits
    }
}

/// Raw values already drawn, then a live generator.
struct Replay<'a, G> {
    recorded: std::slice::Iter<'a, u64>,
    live: &'a mut G,
}

impl<G: RngCore> RngCore for Replay<'_, G> {
    fn next_u64(&mut self) -> u64 {
        match self.recorded.next() {
            Some(&v) => v,
            None => self.live.next_u64(),
        }
    }
}

/// Lazy random mapspace sampling (see [`Mapspace::iter_sample`]).
pub struct SampleIter<'a, R: Rng> {
    space: &'a Mapspace,
    plan: SlotPlan,
    draw: FactorDraw,
    rng: R,
    produced: usize,
    attempts: usize,
    count: usize,
}

impl<R: Rng> SampleIter<'_, R> {
    /// The dedup key of the last yielded candidate (see
    /// [`EnumerateIter::last_key`]).
    pub(crate) fn last_key(&self, key: &mut Vec<u64>) {
        self.plan.key_of(&self.draw.factors, key);
    }
}

impl<R: Rng> Iterator for SampleIter<'_, R> {
    type Item = Mapping;

    fn next(&mut self) -> Option<Mapping> {
        if !self.plan.feasible {
            return None;
        }
        while self.produced < self.count && self.attempts < self.count.saturating_mul(20) {
            self.attempts += 1;
            if self.draw.attempt(self.space, &self.plan, &mut self.rng) {
                self.produced += 1;
                return Some(self.space.build_mapping(&self.plan, &self.draw.factors));
            }
        }
        None
    }
}

/// Globally comparable position of a sharded candidate in the unsharded
/// enumeration order (see [`Mapspace::shards`]).
///
/// Sorting by `(block, rank)` reproduces [`Mapspace::iter_enumerate`]'s
/// exact output order: `block` is the mixed-radix value of the outermost
/// (slowest-varying) factorization choices and `rank` counts produced
/// candidates within the block — candidates of earlier blocks always
/// precede candidates of later blocks in the unsharded stream. Sampled
/// candidates (a hybrid search's tail) use [`CandidateKey::sampled`],
/// which orders after every enumerated candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CandidateKey {
    /// Block id (outermost factorization choices, mixed-radix).
    pub block: u64,
    /// Produced-candidate index within the block.
    pub rank: u64,
}

impl CandidateKey {
    /// The key of the `i`-th *sampled* candidate: greater than every
    /// enumerated key, ordered by draw index — matching the unsharded
    /// hybrid stream, where the sample tail follows the enumerated
    /// prefix.
    pub fn sampled(i: u64) -> Self {
        CandidateKey {
            block: u64::MAX,
            rank: i,
        }
    }
}

/// One shard of a sharded enumeration: a disjoint sub-stream of
/// [`Mapspace::iter_enumerate`]'s candidates tagged with globally
/// comparable [`CandidateKey`]s (see [`Mapspace::shards`]).
pub struct MapspaceShard<'a> {
    space: &'a Mapspace,
    plan: SlotPlan,
    /// The suffix-dim block space (shared by the shards).
    outer: Arc<BlockSpace>,
    /// Block ids owned by this shard, ascending.
    blocks: Vec<u64>,
    /// Per-block global base index from the census (`None`: no output
    /// limit was requested).
    base: Option<Arc<Vec<usize>>>,
    limit: usize,
    /// Counter over the within-block dims.
    counter: Counter,
    /// Index into `blocks` of the next block to enter.
    next_block: usize,
    cur_block_id: u64,
    /// Per-slot factors at the counter's position.
    factors: Vec<u64>,
    /// Factors of the last yielded candidate (delta baseline).
    last: Vec<u64>,
    have_prev: bool,
    rank: u64,
    block_active: bool,
    done: bool,
}

impl<'a> MapspaceShard<'a> {
    /// A shard holding no candidates (empty space or zero limit).
    fn empty(space: &'a Mapspace) -> Self {
        let plan = space.plan();
        MapspaceShard {
            space,
            counter: Counter::new(space, &plan, 0),
            plan,
            outer: Arc::new(BlockSpace {
                split: 0,
                lists: Vec::new(),
            }),
            blocks: Vec::new(),
            base: None,
            limit: 0,
            next_block: 0,
            cur_block_id: 0,
            factors: Vec::new(),
            last: Vec::new(),
            have_prev: false,
            rank: 0,
            block_active: false,
            done: true,
        }
    }

    /// Like [`Iterator::next`], additionally reporting where the yielded
    /// candidate first differs from the shard's previously yielded one
    /// (see [`ChangeDepth`]). The shard's first candidate reports
    /// [`ChangeDepth::Reset`] — shard seams never assume a prefix, so a
    /// sharded evaluation stays bit-identical to the unsharded one.
    pub fn next_delta(&mut self) -> Option<(CandidateKey, ChangeDepth, Mapping)> {
        let (key, depth) = self.advance()?;
        let mapping = self.space.build_mapping(&self.plan, &self.last);
        Some((key, depth, mapping))
    }

    /// Moves to the shard's next candidate, leaving its factors in
    /// `self.last`.
    fn advance(&mut self) -> Option<(CandidateKey, ChangeDepth)> {
        while !self.done {
            if !self.block_active {
                let Some(&b) = self.blocks.get(self.next_block) else {
                    break;
                };
                // bases are nondecreasing in the block id: once one of
                // this shard's blocks starts at the cutoff, all its
                // later blocks do too
                if self.base_of(b).is_some_and(|base| base >= self.limit) {
                    break;
                }
                self.next_block += 1;
                if !self
                    .outer
                    .enter(b, &self.plan, &mut self.counter, &mut self.factors)
                {
                    continue;
                }
                self.cur_block_id = b;
                self.rank = 0;
                self.block_active = true;
            }
            let mut found = None;
            if self.space.fanout_ok(&self.plan.slots, &self.factors) {
                // exact global output-limit semantics: past this
                // candidate's unsharded stream position, every remaining
                // candidate of this shard sits even later in the stream
                let base = self.base_of(self.cur_block_id);
                if base.is_some_and(|base| base + self.rank as usize >= self.limit) {
                    break;
                }
                let depth = if self.have_prev {
                    change_depth(&self.plan.slots, &self.last, &self.factors)
                } else {
                    ChangeDepth::Reset
                };
                let key = CandidateKey {
                    block: self.cur_block_id,
                    rank: self.rank,
                };
                found = Some((key, depth));
                self.last.copy_from_slice(&self.factors);
                self.have_prev = true;
                self.rank += 1;
            }
            self.block_active = self.counter.step(&self.plan, &mut self.factors);
            if found.is_some() {
                return found;
            }
        }
        self.done = true;
        None
    }

    /// The census base of block `b` (`None`: no output limit).
    fn base_of(&self, b: u64) -> Option<usize> {
        self.base.as_ref().map(|base| base[b as usize])
    }
}

impl Iterator for MapspaceShard<'_> {
    type Item = (CandidateKey, Mapping);

    fn next(&mut self) -> Option<(CandidateKey, Mapping)> {
        self.next_delta().map(|(key, _, m)| (key, m))
    }
}

/// Lazy low-discrepancy mapspace sampling
/// (see [`Mapspace::iter_sample_halton`]).
pub struct HaltonSampleIter<'a> {
    space: &'a Mapspace,
    plan: SlotPlan,
    /// Per-dim prime factors (with multiplicity) of the dimension bound.
    dim_primes: Vec<Vec<u64>>,
    /// One distinct Halton base per `(dim, prime)` decision.
    bases: Vec<u64>,
    /// Per-slot factors of the current draw.
    factors: Vec<u64>,
    offset: u64,
    produced: usize,
    attempts: usize,
    count: usize,
}

impl HaltonSampleIter<'_> {
    /// The dedup key of the last yielded candidate (see
    /// [`EnumerateIter::last_key`]).
    pub(crate) fn last_key(&self, key: &mut Vec<u64>) {
        self.plan.key_of(&self.factors, key);
    }
}

impl Iterator for HaltonSampleIter<'_> {
    type Item = Mapping;

    fn next(&mut self) -> Option<Mapping> {
        if !self.plan.feasible {
            return None;
        }
        while self.produced < self.count && self.attempts < self.count.saturating_mul(20) {
            let index = self.offset + self.attempts as u64;
            self.attempts += 1;
            self.factors.fill(1);
            let mut bases = self.bases.iter();
            for (slots, primes) in self.plan.per_dim.iter().zip(&self.dim_primes) {
                for (&p, &base) in primes.iter().zip(&mut bases) {
                    // one low-discrepancy coordinate per prime-factor
                    // placement: stratified slot assignment
                    let h = radical_inverse(index, base);
                    let pos = ((h * slots.len() as f64) as usize).min(slots.len() - 1);
                    self.factors[slots[pos]] *= p;
                }
            }
            if self.space.fanout_ok(&self.plan.slots, &self.factors) {
                self.produced += 1;
                return Some(self.space.build_mapping(&self.plan, &self.factors));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sparseloop_arch::{ArchitectureBuilder, ComputeSpec, StorageLevel};

    fn arch() -> Architecture {
        ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM"))
            .level(StorageLevel::new("Buf"))
            .compute(ComputeSpec::new("MAC", 4))
            .build()
            .unwrap()
    }

    #[test]
    fn factorization_counts() {
        assert_eq!(factorizations(1, 3, None), vec![vec![1, 1, 1]]);
        assert_eq!(factorizations(6, 2, None).len(), 4); // 1*6, 2*3, 3*2, 6*1
        assert_eq!(factorizations(8, 3, None).len(), 10);
    }

    #[test]
    fn factorization_products_correct() {
        for f in factorizations(24, 3, None) {
            assert_eq!(f.iter().product::<u64>(), 24);
        }
    }

    #[test]
    fn factorization_limit_respected() {
        assert_eq!(factorizations(64, 4, Some(5)).len(), 5);
    }

    #[test]
    fn random_factorization_products() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let f = random_factorization(36, 3, &mut rng);
            assert_eq!(f.iter().product::<u64>(), 36);
        }
    }

    #[test]
    fn enumerate_produces_valid_mappings() {
        let e = Einsum::matmul(4, 4, 4);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a);
        let maps = space.enumerate(200);
        assert!(!maps.is_empty());
        for m in &maps {
            m.validate(&e, &a).unwrap();
        }
    }

    #[test]
    fn spatial_budget_enforced() {
        let e = Einsum::matmul(8, 8, 8);
        let a = arch(); // fanout below Buf is 4
        let space = Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(1)]);
        let maps = space.enumerate(5000);
        for m in &maps {
            assert!(m.spatial_fanout_at(1) <= 4);
            m.validate(&e, &a).unwrap();
        }
        // some mapping should actually use the parallelism
        assert!(maps.iter().any(|m| m.spatial_fanout_at(1) == 4));
    }

    #[test]
    fn space_exhausted_distinguishes_cover_from_cap() {
        let e = Einsum::matmul(8, 8, 8);
        let a = arch();
        // with and without spatial constraints (fanout-invalid combos
        // past the last valid candidate must still count as exhaustion)
        for space in [
            Mapspace::all_temporal(&e, &a),
            Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(1)]),
        ] {
            let total = space.iter_enumerate(usize::MAX).count();
            for (cap, covered) in [
                (total - 1, false), // stopped by the cap
                (total, true),      // cap == space: counter wrapped
                (total + 1, true),
                (usize::MAX, true),
            ] {
                let mut it = space.iter_enumerate(cap);
                while it.next_delta().is_some() {}
                assert_eq!(it.space_exhausted(), covered, "cap {cap} of {total}");
            }
        }
        // infeasible space (dim with bound > 1, no slots): exhausted
        // from the start, nothing to enumerate or sample
        let empty = Mapspace::all_temporal(&e, &a)
            .with_temporal_order(0, vec![])
            .with_temporal_order(1, vec![]);
        let mut it = empty.iter_enumerate(usize::MAX);
        assert!(it.next_delta().is_none());
        assert!(it.space_exhausted());
    }

    #[test]
    fn accessors_expose_constraint_state() {
        let e = Einsum::matmul(8, 8, 8);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a)
            .with_temporal_order(0, vec![DimId(2), DimId(0)])
            .with_spatial_dims(1, vec![DimId(1)])
            .with_bypass(1, TensorId(2));
        assert_eq!(space.temporal_order()[0], vec![DimId(2), DimId(0)]);
        assert_eq!(space.temporal_order()[1].len(), 3);
        assert_eq!(space.spatial_dims()[0], Vec::<DimId>::new());
        assert_eq!(space.spatial_dims()[1], vec![DimId(1)]);
        assert_eq!(space.bypasses(), vec![(1, TensorId(2))]);
    }

    #[test]
    fn bypass_propagates_to_mappings() {
        let e = Einsum::matmul(4, 4, 4);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a).with_bypass(1, TensorId(1));
        let maps = space.enumerate(10);
        assert!(!maps.is_empty());
        for m in &maps {
            assert!(!m.keeps(1, TensorId(1)));
            assert!(m.keeps(1, TensorId(0)));
        }
    }

    #[test]
    fn sampling_yields_valid_mappings() {
        let e = Einsum::matmul(16, 16, 16);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(0)]);
        let mut rng = StdRng::seed_from_u64(7);
        let maps = space.sample(50, &mut rng);
        assert_eq!(maps.len(), 50);
        for m in &maps {
            m.validate(&e, &a).unwrap();
        }
    }

    #[test]
    fn iter_enumerate_matches_collected_enumerate() {
        let e = Einsum::matmul(8, 8, 8);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(1)]);
        for limit in [1, 7, 100, 5000] {
            let streamed: Vec<_> = space.iter_enumerate(limit).collect();
            assert_eq!(streamed, space.enumerate(limit), "limit={limit}");
        }
    }

    #[test]
    fn iter_enumerate_is_lazy_and_resumable() {
        let e = Einsum::matmul(8, 8, 8);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a);
        let all = space.enumerate(1000);
        // taking a prefix then continuing yields the same stream
        let mut it = space.iter_enumerate(1000);
        let head: Vec<_> = it.by_ref().take(5).collect();
        let tail: Vec<_> = it.collect();
        assert_eq!(head, all[..5].to_vec());
        assert_eq!(tail, all[5..].to_vec());
    }

    #[test]
    fn iter_sample_matches_collected_sample() {
        let e = Einsum::matmul(16, 16, 16);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(0)]);
        let collected = space.sample(40, &mut StdRng::seed_from_u64(11));
        let streamed: Vec<_> = space.iter_sample(40, StdRng::seed_from_u64(11)).collect();
        assert_eq!(streamed, collected);
    }

    #[test]
    fn enumeration_limit_does_not_truncate_dimension_tails() {
        // m=64 owns two slots: an outer temporal and an inner spatial
        // bounded by fanout 4. The lexicographic factorization list
        // [1,64], [2,32], ... puts the only fanout-respecting splits at
        // the tail ([16,4], [32,2], [64,1]); the seed's per-dimension cap
        // of `limit` truncated the list to its invalid head, so a small
        // limit produced nothing at all.
        let e = Einsum::matmul(64, 1, 1);
        let a = arch(); // fanout below Buf is 4
        let space = Mapspace::all_temporal(&e, &a)
            .with_temporal_order(0, vec![DimId(0)])
            .with_temporal_order(1, vec![])
            .with_spatial_dims(1, vec![DimId(0)]);
        let maps = space.enumerate(3);
        assert_eq!(maps.len(), 3, "tail factorizations must be reachable");
        for m in &maps {
            m.validate(&e, &a).unwrap();
        }
    }

    #[test]
    fn factorization_stream_matches_eager_list() {
        for (n, k) in [(1, 1), (1, 3), (6, 2), (8, 3), (24, 3), (64, 4), (97, 2)] {
            let eager = factorizations(n, k, None);
            let mut stream = FactorizationStream::new(n, vec![u64::MAX; k]);
            let mut lazy = Vec::new();
            let mut i = 0;
            while let Some(f) = stream.get(i) {
                lazy.push(f.to_vec());
                i += 1;
            }
            assert_eq!(lazy, eager, "n={n} k={k}");
            // exhausted stream stays exhausted and random access works
            assert!(stream.get(i).is_none());
            assert_eq!(stream.get(0).unwrap(), eager[0].as_slice());
        }
    }

    #[test]
    fn capped_stream_is_the_uncapped_list_filtered_in_order() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in [1u64, 2, 7, 8, 12, 36, 64, 97, 210] {
            for k in 1..=4usize {
                for _ in 0..12 {
                    // caps from "nothing fits" through fanout-sized to
                    // unbounded, any mix of positions
                    let caps: Vec<u64> = (0..k)
                        .map(|_| [0, 1, 2, 3, 4, 8, n, u64::MAX][rng.gen_range(0usize..8)])
                        .collect();
                    let want: Vec<Vec<u64>> = factorizations(n, k, None)
                        .into_iter()
                        .filter(|f| f.iter().zip(&caps).all(|(v, cap)| v <= cap))
                        .collect();
                    let mut stream = FactorizationStream::new(n, caps.clone());
                    let mut got = Vec::new();
                    while let Some(f) = stream.get(got.len()) {
                        got.push(f.to_vec());
                    }
                    assert_eq!(got, want, "n={n} caps={caps:?}");
                    assert!(stream.get(got.len() + 1).is_none());
                }
            }
        }
    }

    #[test]
    fn factorization_stream_unit_radix() {
        let mut s = FactorizationStream::new(7, Vec::new());
        assert_eq!(s.get(0).unwrap(), &[] as &[u64]);
        assert!(s.get(1).is_none());
    }

    #[test]
    fn enumeration_materializes_factorizations_lazily() {
        // m=64 in a single temporal slot per level: 64 has many ordered
        // 2-factorizations, but drawing one candidate must not build the
        // whole list
        let e = Einsum::matmul(64, 1, 1);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a);
        let mut it = space.iter_enumerate(usize::MAX);
        let first = it.next();
        assert!(first.is_some());
        let eager = factorizations(64, 2, None).len();
        assert!(
            it.counter.streams[0].len <= 2,
            "one candidate materialized {} of {} factorizations",
            it.counter.streams[0].len,
            eager
        );
    }

    #[test]
    fn shards_partition_the_enumeration_exactly() {
        let e = Einsum::matmul(8, 8, 8);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(1)]);
        for limit in [1, 7, 100, 5000, usize::MAX] {
            let reference: Vec<Mapping> = space.iter_enumerate(limit.min(1_000_000)).collect();
            for n in [1, 2, 3, 7] {
                let mut tagged: Vec<(CandidateKey, Mapping)> = Vec::new();
                for shard in space.shards(n, limit) {
                    tagged.extend(shard);
                }
                // keys are unique (disjointness)
                let mut keys: Vec<CandidateKey> = tagged.iter().map(|(k, _)| *k).collect();
                keys.sort();
                keys.dedup();
                assert_eq!(keys.len(), tagged.len(), "n={n} limit={limit}");
                // sorting by key reproduces the unsharded stream exactly
                tagged.sort_by_key(|(k, _)| *k);
                let merged: Vec<Mapping> = tagged.into_iter().map(|(_, m)| m).collect();
                assert_eq!(merged, reference, "n={n} limit={limit}");
            }
        }
    }

    #[test]
    fn shards_of_infeasible_space_are_empty() {
        let e = Einsum::matmul(4, 4, 4);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a)
            .with_temporal_order(0, vec![])
            .with_temporal_order(1, vec![]);
        for shard in space.shards(3, 100) {
            assert_eq!(shard.count(), 0);
        }
    }

    #[test]
    fn sampled_candidate_keys_order_after_enumerated_keys() {
        let enumerated = CandidateKey {
            block: u64::MAX - 1,
            rank: u64::MAX,
        };
        assert!(CandidateKey::sampled(0) > enumerated);
        assert!(CandidateKey::sampled(0) < CandidateKey::sampled(1));
    }

    #[test]
    fn halton_samples_are_valid_and_deterministic() {
        let e = Einsum::matmul(16, 16, 16);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a).with_spatial_dims(1, vec![DimId(0)]);
        let first: Vec<Mapping> = space.iter_sample_halton(50, 9).collect();
        let second: Vec<Mapping> = space.iter_sample_halton(50, 9).collect();
        assert_eq!(first, second, "halton draws must be reproducible");
        assert!(!first.is_empty());
        for m in &first {
            m.validate(&e, &a).unwrap();
        }
        // a different seed shifts the sequence
        let other: Vec<Mapping> = space.iter_sample_halton(50, 10).collect();
        assert_ne!(first, other);
    }

    #[test]
    fn halton_covers_more_distinct_candidates_than_uniform() {
        // the low-discrepancy point is even coverage: over the same draw
        // budget the Halton tail should reach at least as many distinct
        // factorizations as independent uniform draws
        let e = Einsum::matmul(36, 36, 36);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a);
        let distinct = |it: &mut dyn Iterator<Item = Mapping>| {
            it.map(|m| m.nests().to_vec())
                .collect::<std::collections::HashSet<_>>()
        };
        let halton = distinct(&mut space.iter_sample_halton(200, 3));
        let uniform = distinct(&mut space.iter_sample(200, StdRng::seed_from_u64(3)));
        assert!(
            halton.len() + 10 >= uniform.len(),
            "halton {} vs uniform {}",
            halton.len(),
            uniform.len()
        );
    }

    #[test]
    fn infeasible_space_yields_nothing() {
        // no slots for any dim but nonunit bounds -> empty space
        let e = Einsum::matmul(4, 4, 4);
        let a = arch();
        let space = Mapspace::all_temporal(&e, &a)
            .with_temporal_order(0, vec![])
            .with_temporal_order(1, vec![]);
        assert_eq!(space.iter_enumerate(10).count(), 0);
        assert_eq!(space.iter_sample(10, StdRng::seed_from_u64(0)).count(), 0);
        assert_eq!(space.iter_sample_halton(10, 0).count(), 0);
    }

    #[test]
    fn restricted_order_respected() {
        let e = Einsum::matmul(4, 4, 4);
        let a = arch();
        // only k may tile at the buffer level
        let space = Mapspace::all_temporal(&e, &a).with_temporal_order(1, vec![DimId(2)]);
        for m in space.enumerate(500) {
            for lp in &m.nests()[1] {
                assert_eq!(lp.dim, DimId(2));
            }
        }
    }

    /// A space built field by field: bounds, per-level temporal and
    /// spatial dims, per-level fanout.
    fn raw_space(
        bounds: &[u64],
        temporal: &[Vec<usize>],
        spatial: &[Vec<usize>],
        fanout: &[u64],
    ) -> Mapspace {
        let dims = |l: &[Vec<usize>]| -> Vec<Vec<DimId>> {
            l.iter()
                .map(|d| d.iter().copied().map(DimId).collect())
                .collect()
        };
        Mapspace {
            num_levels: fanout.len(),
            num_tensors: 1,
            num_dims: bounds.len(),
            dim_bounds: bounds.to_vec(),
            temporal_order: dims(temporal),
            spatial_dims: dims(spatial),
            fanout: fanout.to_vec(),
            keep: vec![vec![true]; fanout.len()],
        }
    }

    /// The sampler this crate shipped before draws were tabulated: one
    /// [`random_factorization`] per dimension through `gen_range`, every
    /// prime placed, then a levels × slots fanout check (exact, in
    /// `u128`).
    fn reference_attempt(
        space: &Mapspace,
        plan: &SlotPlan,
        rng: &mut impl Rng,
    ) -> Option<Vec<u64>> {
        let mut factors = vec![1u64; plan.slots.len()];
        for d in 0..space.num_dims {
            if !plan.per_dim[d].is_empty() {
                let f = random_factorization(space.dim_bounds[d], plan.per_dim[d].len(), rng);
                plan.write_dim(&mut factors, d, &f);
            }
        }
        let fits = (0..space.num_levels).all(|l| {
            let product: u128 = plan
                .slots
                .iter()
                .zip(&factors)
                .filter(|(s, _)| s.level == l && s.spatial)
                .map(|(_, &f)| f as u128)
                .product();
            product <= space.fanout[l] as u128
        });
        fits.then_some(factors)
    }

    /// `count` mappings or `20 × count` attempts of the reference draw.
    fn reference_sample(space: &Mapspace, count: usize, rng: &mut impl Rng) -> Vec<Mapping> {
        let plan = space.plan();
        let mut out = Vec::new();
        let mut attempts = 0;
        while plan.feasible && out.len() < count && attempts < count * 20 {
            attempts += 1;
            if let Some(factors) = reference_attempt(space, &plan, rng) {
                out.push(space.build_mapping(&plan, &factors));
            }
        }
        out
    }

    /// Random spaces over three levels: bounds from 1 through primes and
    /// prime powers to composites, zero to five slots per dim, fanouts
    /// 1, small, and unbounded.
    fn random_spaces(seed: u64, n: usize) -> Vec<Mapspace> {
        let mut rng = StdRng::seed_from_u64(seed);
        let bounds = [1u64, 2, 3, 7, 8, 9, 12, 27, 30, 64, 97, 224, 360, 512];
        let fanouts = [1u64, 2, 4, 12, 168, u64::MAX];
        (0..n)
            .map(|_| {
                let num_dims = rng.gen_range(1usize..5);
                let dim_bounds: Vec<u64> = (0..num_dims)
                    .map(|_| bounds[rng.gen_range(0..bounds.len())])
                    .collect();
                let mut pick = |often: u32| -> Vec<Vec<usize>> {
                    (0..3)
                        .map(|_| {
                            (0..num_dims)
                                .filter(|_| rng.gen_range(0u32..4) < often)
                                .collect()
                        })
                        .collect()
                };
                let (temporal, spatial) = (pick(3), pick(1));
                let fanout: Vec<u64> = (0..3)
                    .map(|_| fanouts[rng.gen_range(0..fanouts.len())])
                    .collect();
                raw_space(&dim_bounds, &temporal, &spatial, &fanout)
            })
            .collect()
    }

    #[test]
    fn sample_attempts_match_the_reference_draw_and_leave_the_same_generator() {
        for (i, space) in random_spaces(41, 300).iter().enumerate() {
            let plan = space.plan();
            let mut draw = FactorDraw::new(space, &plan);
            let mut fast = StdRng::seed_from_u64(i as u64);
            let mut slow = fast.clone();
            for attempt in 0..40 {
                let got = draw
                    .attempt(space, &plan, &mut fast)
                    .then(|| draw.factors.clone());
                let want = reference_attempt(space, &plan, &mut slow);
                assert_eq!(got, want, "space {i} attempt {attempt}");
                assert_eq!(
                    format!("{fast:?}"),
                    format!("{slow:?}"),
                    "generator state, space {i} attempt {attempt}"
                );
            }
        }
    }

    #[test]
    fn iter_sample_matches_the_reference_sampler() {
        for (i, space) in random_spaces(43, 120).iter().enumerate() {
            for count in [0, 1, 128] {
                let mut fast = StdRng::seed_from_u64(1000 + i as u64);
                let mut slow = fast.clone();
                let got: Vec<Mapping> = space.iter_sample(count, &mut fast).collect();
                assert_eq!(
                    got,
                    reference_sample(space, count, &mut slow),
                    "space {i} count {count}"
                );
                assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "space {i}");
            }
        }
    }

    /// A generator that plays a script, then repeats it.
    #[derive(Clone)]
    struct Scripted {
        script: Vec<u64>,
        pos: usize,
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            let v = self.script[self.pos % self.script.len()];
            self.pos += 1;
            v
        }
    }

    #[test]
    fn raw_values_above_the_lemire_zones_replay_the_attempt_exactly() {
        // m=12, n=45 over three slots each, the middle one spatial under
        // fanout 1. The draw ranges (5, 3, 2, ... divisors; 3 slots) are
        // mostly not powers of two, so the top raw values are rejected
        // by some bounded draws and accepted by others: one among an
        // attempt's first 12 raw values forces the draw-for-draw replay,
        // and a rejection shifts every later draw by one
        let space = raw_space(
            &[12, 45],
            &[vec![0, 1], vec![0, 1], vec![]],
            &[vec![], vec![0, 1], vec![]],
            &[1, 1, 1],
        );
        let plan = space.plan();
        let mut draw = FactorDraw::new(&space, &plan);
        assert_eq!(draw.draws, 2 * (3 + 3));
        let mut seeds = StdRng::seed_from_u64(5);
        for round in 0..200 {
            let base: Vec<u64> = (0..24).map(|_| seeds.gen::<u64>() >> 1).collect();
            for at in 0..16 {
                for top in [u64::MAX, u64::MAX - 1, u64::MAX - 2] {
                    let mut script = base.clone();
                    script[at] = top;
                    let mut fast = Scripted { script, pos: 0 };
                    let mut slow = fast.clone();
                    let got = draw
                        .attempt(&space, &plan, &mut fast)
                        .then(|| draw.factors.clone());
                    let want = reference_attempt(&space, &plan, &mut slow);
                    assert_eq!(got, want, "round {round} top value at {at}");
                    assert_eq!(fast.pos, slow.pos, "round {round} top value at {at}");
                    let replayed = draw.raw.iter().any(|&v| v > draw.safe_raw);
                    assert_eq!(replayed, at < draw.draws);
                }
            }
        }
    }

    #[test]
    fn spatial_products_past_u64_read_as_over_budget() {
        // two spatial slots of 2^33 each multiply to 2^66, which wraps to
        // 4 — inside a fanout of 4 — unless the product saturates
        let space = raw_space(
            &[1 << 33, 1 << 33],
            &[vec![0, 1], vec![]],
            &[vec![], vec![0, 1]],
            &[1, 4],
        );
        let plan = space.plan();
        let spatial_only = [1, 1, 1 << 33, 1 << 33];
        assert!(!space.fanout_ok(&plan.slots, &spatial_only));
        assert!(space.fanout_ok(&plan.slots, &[1 << 33, 1 << 32, 1, 2]));
        // the sampler's running product, on the replay path that places
        // every prime: the leading raw value forces the replay (and is
        // rejected by the first draw, over 33 divisors), the 1s after it
        // send every prime of both bounds into the spatial slots (slot 1
        // of 2)
        let mut draw = FactorDraw::new(&space, &plan);
        let mut script = vec![1; 200];
        script[0] = u64::MAX;
        let mut ones = Scripted { script, pos: 0 };
        assert!(!draw.attempt(&space, &plan, &mut ones));
        assert_eq!(ones.pos, 1 + 2 * 66);
        assert_eq!(draw.factors, spatial_only);
        assert_eq!(draw.spatial[1], u64::MAX);
    }

    #[test]
    fn a_dimension_that_fits_no_slot_empties_every_stream() {
        // a dimension of 8 whose only slot is spatial under fanout 4: its
        // capped stream holds nothing, whether it is a within-block
        // dimension (first) or a block dimension (last) of the shards
        for bounds in [[8u64, 6], [6, 8]] {
            let tight = bounds.iter().position(|&b| b == 8).unwrap();
            let space = raw_space(
                &bounds,
                &[vec![1 - tight], vec![1 - tight]],
                &[vec![], vec![tight]],
                &[1, 4],
            );
            assert_eq!(space.iter_enumerate(usize::MAX).count(), 0);
            let mut it = space.iter_enumerate(10);
            assert!(it.next_delta().is_none() && it.space_exhausted());
            for n in 1..=4 {
                for limit in [1, 10, usize::MAX] {
                    for shard in space.shards(n, limit) {
                        assert_eq!(shard.count(), 0, "n={n} limit={limit}");
                    }
                }
            }
            assert_eq!(space.iter_sample(16, StdRng::seed_from_u64(1)).count(), 0);
            assert_eq!(space.iter_sample_halton(16, 1).count(), 0);
        }
    }
}
