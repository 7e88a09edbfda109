//! The candidate stream is a contract: for a given space, mapper and
//! seed, the mappers yield the same candidates in the same order
//! whatever the generation machinery does to get there. This file holds
//! the slow, obvious definition of that stream — eager per-dimension
//! factorization lists walked by a mixed-radix counter, one
//! `gen_range`-driven peel per prime, a levels × slots fanout check,
//! dedup by comparing mappings — written against public API only, and
//! holds `Mapper::delta_candidates`, and each shard of a 3-shard search,
//! to it on every search experiment of the scenario registry.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparseloop_arch::{Architecture, LevelId};
use sparseloop_designs::{MappingPolicy, ScenarioRegistry};
use sparseloop_mapping::{
    factorizations, CandidateEvaluator, ChangeDepth, Loop, Mapper, Mapping, Mapspace,
    WorkerEvaluator,
};
use sparseloop_tensor::einsum::{DimId, Einsum};
use std::collections::HashSet;
use std::sync::Mutex;

/// One loop slot: `(level, dim, spatial)`.
type Slot = (usize, DimId, bool);

/// The reference candidate generator for one mapspace.
struct Reference {
    slots: Vec<Slot>,
    /// Slot indices owned by each dimension.
    per_dim: Vec<Vec<usize>>,
    bounds: Vec<u64>,
    fanout: Vec<u64>,
    keep: Vec<Vec<bool>>,
}

impl Reference {
    fn new(space: &Mapspace, einsum: &Einsum, arch: &Architecture) -> Self {
        let mut slots = Vec::new();
        for l in 0..space.num_levels() {
            slots.extend(space.spatial_dims()[l].iter().map(|&d| (l, d, true)));
            slots.extend(space.temporal_order()[l].iter().map(|&d| (l, d, false)));
        }
        let mut per_dim = vec![Vec::new(); space.num_dims()];
        for (i, &(_, d, _)) in slots.iter().enumerate() {
            per_dim[d.0].push(i);
        }
        let mut keep = vec![vec![true; space.num_tensors()]; space.num_levels()];
        for (l, t) in space.bypasses() {
            keep[l][t.0] = false;
        }
        Reference {
            slots,
            per_dim,
            bounds: einsum.bounds(),
            fanout: (0..space.num_levels())
                .map(|l| arch.fanout_below(LevelId(l)))
                .collect(),
            keep,
        }
    }

    fn feasible(&self) -> bool {
        (0..self.bounds.len()).all(|d| !self.per_dim[d].is_empty() || self.bounds[d] == 1)
    }

    /// The mapping of per-slot factors, unless a level's spatial factors
    /// overrun its fanout.
    fn mapping(&self, factors: &[u64]) -> Option<Mapping> {
        for l in 0..self.fanout.len() {
            let spatial: u128 = self
                .slots
                .iter()
                .zip(factors)
                .filter(|((level, _, spatial), _)| *level == l && *spatial)
                .map(|(_, &f)| f as u128)
                .product();
            if spatial > self.fanout[l] as u128 {
                return None;
            }
        }
        let mut nests = vec![Vec::new(); self.fanout.len()];
        for (&(level, dim, spatial), &f) in self.slots.iter().zip(factors) {
            if f > 1 {
                nests[level].push(if spatial {
                    Loop::spatial(dim, f)
                } else {
                    Loop::temporal(dim, f)
                });
            }
        }
        Some(Mapping::new(nests, self.keep.clone()))
    }

    fn assemble(&self, per_dim_factors: &[&[u64]]) -> Vec<u64> {
        let mut factors = vec![1u64; self.slots.len()];
        for (slots, f) in self.per_dim.iter().zip(per_dim_factors) {
            for (&slot, &v) in slots.iter().zip(*f) {
                factors[slot] = v;
            }
        }
        factors
    }

    /// The first `limit` valid candidates of the cross product of the
    /// per-dimension factorization lists, dimension 0 varying fastest,
    /// each with its change depth against the previous one.
    fn enumerate(&self, limit: usize) -> Vec<(ChangeDepth, Mapping)> {
        let mut out = Vec::new();
        if !self.feasible() {
            return out;
        }
        let lists: Vec<Vec<Vec<u64>>> = (0..self.bounds.len())
            .map(|d| match self.per_dim[d].len() {
                0 => vec![Vec::new()],
                k => factorizations(self.bounds[d], k, None),
            })
            .collect();
        let mut choice = vec![0usize; lists.len()];
        let mut prev: Option<Vec<u64>> = None;
        'walk: while out.len() < limit {
            let picked: Vec<&[u64]> = lists
                .iter()
                .zip(&choice)
                .map(|(list, &c)| list[c].as_slice())
                .collect();
            let factors = self.assemble(&picked);
            if let Some(m) = self.mapping(&factors) {
                let depth = match &prev {
                    None => ChangeDepth::Reset,
                    Some(prev) => self.change_depth(prev, &factors),
                };
                out.push((depth, m));
                prev = Some(factors);
            }
            for d in 0..lists.len() {
                choice[d] += 1;
                if choice[d] < lists[d].len() {
                    continue 'walk;
                }
                choice[d] = 0;
            }
            break;
        }
        out
    }

    /// Where `cur` first differs from `prev`: the slot's level, and how
    /// many loops (non-unit factors) precede it.
    fn change_depth(&self, prev: &[u64], cur: &[u64]) -> ChangeDepth {
        let first = (0..cur.len())
            .find(|&i| prev[i] != cur[i])
            .expect("consecutive candidates differ");
        ChangeDepth::At {
            level: self.slots[first].0,
            loop_pos: cur[..first].iter().filter(|&&f| f > 1).count(),
        }
    }

    /// `count` valid draws or `20 × count` attempts: per dimension, peel
    /// the bound prime by prime — a uniform divisor of what is left
    /// (1 excluded, ascending) gives up its smallest prime factor to a
    /// uniform slot.
    fn sample(&self, count: usize, seed: u64) -> Vec<Mapping> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut attempts = 0;
        while self.feasible() && out.len() < count && attempts < count * 20 {
            attempts += 1;
            let mut factors = vec![1u64; self.slots.len()];
            for (slots, &bound) in self.per_dim.iter().zip(&self.bounds) {
                let mut rest = bound;
                while rest > 1 && !slots.is_empty() {
                    let divisors = divisors_above_one(rest);
                    let d = divisors[rng.gen_range(0..divisors.len())];
                    let p = divisors_above_one(d)[0];
                    factors[slots[rng.gen_range(0..slots.len())]] *= p;
                    rest /= p;
                }
            }
            out.extend(self.mapping(&factors));
        }
        out
    }

    /// An enumerated prefix, then the samples the prefix did not yield.
    fn hybrid(&self, enumerate: usize, samples: usize, seed: u64) -> Vec<(ChangeDepth, Mapping)> {
        let mut out = self.enumerate(enumerate);
        let seen: HashSet<Vec<Vec<Loop>>> = out.iter().map(|(_, m)| m.nests().to_vec()).collect();
        out.extend(
            self.sample(samples, seed)
                .into_iter()
                .filter(|m| !seen.contains(m.nests()))
                .map(|m| (ChangeDepth::Reset, m)),
        );
        out
    }
}

fn divisors_above_one(n: u64) -> Vec<u64> {
    let mut out: Vec<u64> = (1..)
        .take_while(|d| d * d <= n)
        .filter(|d| n.is_multiple_of(*d))
        .flat_map(|d| [d, n / d])
        .filter(|&d| d > 1)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Records the candidates each search walk is handed, one list per
/// walk, and prunes them all.
#[derive(Default)]
struct Recorder(Mutex<Vec<Vec<Mapping>>>);

/// A walk's worker: records into list `.1` of its [`Recorder`].
struct Walk<'a>(&'a Recorder, usize);

impl CandidateEvaluator for Recorder {
    fn evaluate(&self, _: &Mapping) -> Option<f64> {
        None
    }

    fn worker(&self) -> Box<dyn WorkerEvaluator + '_> {
        let mut walks = self.0.lock().unwrap();
        walks.push(Vec::new());
        Box::new(Walk(self, walks.len() - 1))
    }
}

impl WorkerEvaluator for Walk<'_> {
    fn precheck(&mut self, m: &Mapping, _: ChangeDepth) -> bool {
        self.0 .0.lock().unwrap()[self.1].push(m.clone());
        false
    }

    fn evaluate(&mut self, _: &Mapping, _: ChangeDepth) -> Option<f64> {
        None
    }
}

/// The walks of `mapper.search_shards(space, _, 3)` are the reference
/// stream split by position: shard `s` holds the prefix positions
/// `p % 3 == s`, in order, and shard 0 then holds the sample tail.
fn assert_shards_split_the_stream(
    label: &str,
    mapper: &Mapper,
    space: &Mapspace,
    want: &[(ChangeDepth, Mapping)],
    prefix: usize,
) {
    let recorder = Recorder::default();
    mapper.search_shards(space, &recorder, 3);
    // the walks open in any order: match each to the shard it equals
    let mut walks = recorder.0.into_inner().unwrap();
    assert_eq!(walks.len(), 3, "{label}: one walk per shard");
    for shard in 0..3 {
        let mut expected: Vec<&Mapping> = want[..prefix]
            .iter()
            .skip(shard)
            .step_by(3)
            .map(|(_, m)| m)
            .collect();
        if shard == 0 {
            expected.extend(want[prefix..].iter().map(|(_, m)| m));
        }
        let Some(i) = walks
            .iter()
            .position(|w| w.iter().eq(expected.iter().copied()))
        else {
            panic!("{label}: no walk yields shard {shard} of 3");
        };
        walks.swap_remove(i);
    }
}

#[test]
fn registry_search_streams_equal_the_reference_pipeline() {
    let mut experiments = 0;
    let mut candidates = 0;
    for scenario in ScenarioRegistry::standard().scenarios() {
        for exp in scenario.experiments() {
            let MappingPolicy::Search { space, mapper, .. } = &exp.policy else {
                continue;
            };
            let Mapper::Hybrid {
                enumerate,
                samples,
                seed,
            } = *mapper
            else {
                panic!("{}: registry searches are hybrids", exp.label);
            };
            let reference = Reference::new(space, &exp.layer.einsum, &exp.design.arch);
            let got: Vec<(ChangeDepth, Mapping)> = mapper.delta_candidates(space).collect();
            let want = reference.hybrid(enumerate, samples, seed);
            assert_eq!(got.len(), want.len(), "{}/{}", scenario.name(), exp.label);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "{}/{} candidate {i}", scenario.name(), exp.label);
            }
            let label = format!("{}/{}", scenario.name(), exp.label);
            let prefix = reference.enumerate(enumerate).len();
            assert_shards_split_the_stream(&label, mapper, space, &want, prefix);
            // the pure strategies, on a seed the registry does not use
            let random = Mapper::Random {
                samples: 16,
                seed: seed ^ 0x5EED,
            };
            let sampled: Vec<Mapping> = random.candidates(space).collect();
            assert_eq!(
                sampled,
                reference.sample(16, seed ^ 0x5EED),
                "{}",
                exp.label
            );
            experiments += 1;
            candidates += got.len();
        }
    }
    assert!(experiments > 100 && candidates > 30_000);
}
