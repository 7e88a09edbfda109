//! Property-based tests for mappings and mapspaces.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparseloop_arch::{ArchitectureBuilder, ComputeSpec, StorageLevel};
use sparseloop_mapping::{
    factorizations, CandidateEvaluator, ChangeDepth, Loop, Mapper, Mapping, Mapspace,
    WorkerEvaluator,
};
use sparseloop_tensor::einsum::{DimId, Einsum};
use std::collections::HashSet;
use std::sync::Mutex;

/// Records the candidates one search walk is handed, in order, and
/// prunes them all.
#[derive(Default)]
struct Recorder(Mutex<Vec<Mapping>>);

impl CandidateEvaluator for Recorder {
    fn evaluate(&self, _: &Mapping) -> Option<f64> {
        None
    }

    fn worker(&self) -> Box<dyn WorkerEvaluator + '_> {
        Box::new(self)
    }
}

impl WorkerEvaluator for &Recorder {
    fn precheck(&mut self, m: &Mapping, _: ChangeDepth) -> bool {
        self.0.lock().unwrap().push(m.clone());
        false
    }

    fn evaluate(&mut self, _: &Mapping, _: ChangeDepth) -> Option<f64> {
        None
    }
}

proptest! {
    /// Every ordered factorization multiplies back to n, and the count of
    /// factorizations into 2 parts equals the divisor count.
    #[test]
    fn factorization_products(n in 1u64..200, k in 1usize..4) {
        let fs = factorizations(n, k, None);
        prop_assert!(!fs.is_empty());
        for f in &fs {
            prop_assert_eq!(f.len(), k);
            prop_assert_eq!(f.iter().product::<u64>(), n);
        }
        if k == 2 {
            let divisors = (1..=n).filter(|d| n % d == 0).count();
            prop_assert_eq!(fs.len(), divisors);
        }
        // no duplicates
        let mut sorted = fs.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), fs.len());
    }

    /// Every enumerated mapping validates against workload + architecture
    /// and factorizes each dimension exactly.
    #[test]
    fn enumerated_mappings_valid(
        m in 1u64..9, n in 1u64..9, k in 1u64..9,
        fanout in 1u64..5,
    ) {
        let e = Einsum::matmul(m, n, k);
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("L0"))
            .level(StorageLevel::new("L1"))
            .compute(ComputeSpec::new("MAC", fanout))
            .build()
            .unwrap();
        let space = Mapspace::all_temporal(&e, &arch)
            .with_spatial_dims(1, vec![DimId(1)]);
        for mapping in space.enumerate(300) {
            mapping.validate(&e, &arch).unwrap();
            prop_assert!(mapping.spatial_fanout_at(1) <= fanout);
        }
    }

    /// Random samples are valid too and respect bypass directives.
    #[test]
    fn sampled_mappings_valid(
        m in 1u64..12, n in 1u64..12, k in 1u64..12,
        seed in any::<u64>(),
    ) {
        let e = Einsum::matmul(m, n, k);
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("L0"))
            .level(StorageLevel::new("L1"))
            .compute(ComputeSpec::new("MAC", 1))
            .build()
            .unwrap();
        let b = e.tensor_id("B").unwrap();
        let space = Mapspace::all_temporal(&e, &arch).with_bypass(1, b);
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        for mapping in space.sample(20, &mut rng) {
            mapping.validate(&e, &arch).unwrap();
            prop_assert!(!mapping.keeps(1, b));
            prop_assert_eq!(mapping.storage_chain(b), vec![0]);
        }
    }

    /// Sharding is a disjoint, collectively exhaustive partition of the
    /// enumeration stream: for n in {1, 2, 3, 7}, the union of shard
    /// candidates (sorted by their globally comparable keys) equals the
    /// unsharded `iter_enumerate` sequence exactly — same set, same
    /// order, no duplicates — at output limits both above and below the
    /// space size.
    #[test]
    fn shards_disjoint_and_exhaustive(
        m in 1u64..9, n in 1u64..9, k in 1u64..9,
        fanout in 1u64..5,
        limit in 1usize..400,
    ) {
        let e = Einsum::matmul(m, n, k);
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("L0"))
            .level(StorageLevel::new("L1"))
            .compute(ComputeSpec::new("MAC", fanout))
            .build()
            .unwrap();
        let space = Mapspace::all_temporal(&e, &arch)
            .with_spatial_dims(1, vec![DimId(1)]);
        let reference: Vec<_> = space.iter_enumerate(limit).collect();
        for shards in [1usize, 2, 3, 7] {
            let mut tagged: Vec<_> = Vec::new();
            for shard in space.shards(shards, limit) {
                tagged.extend(shard);
            }
            let mut keys: Vec<_> = tagged.iter().map(|(key, _)| *key).collect();
            keys.sort();
            keys.dedup();
            prop_assert_eq!(keys.len(), tagged.len(), "duplicate keys at shards={}", shards);
            tagged.sort_by_key(|(key, _)| *key);
            let merged: Vec<_> = tagged.into_iter().map(|(_, mapping)| mapping).collect();
            prop_assert_eq!(&merged, &reference, "shards={} limit={}", shards, limit);
        }
    }

    /// tile_bounds_inside is monotone: deeper positions cover smaller or
    /// equal bounds per dimension.
    #[test]
    fn tile_bounds_monotone(m in 1u64..9, n in 1u64..9, k in 1u64..9) {
        let e = Einsum::matmul(m, n, k);
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("L0"))
            .level(StorageLevel::new("L1"))
            .compute(ComputeSpec::new("MAC", 1))
            .build()
            .unwrap();
        let space = Mapspace::all_temporal(&e, &arch);
        for mapping in space.enumerate(50) {
            let total = mapping.flattened().len();
            let mut prev = mapping.tile_bounds_inside(0, 3);
            for pos in 1..=total {
                let cur = mapping.tile_bounds_inside(pos, 3);
                for d in 0..3 {
                    prop_assert!(cur[d] <= prev[d]);
                }
                prev = cur;
            }
            // position 0 covers the full bounds
            prop_assert_eq!(mapping.tile_bounds_inside(0, 3), e.bounds());
        }
    }
}

proptest! {
    /// `ChangeDepth` semantics of the delta enumeration stream: for
    /// every consecutive pair, all flattened `(level, loop)` entries
    /// strictly above the reported position are equal, the entries at
    /// the position differ, and every level strictly above the reported
    /// *level* has a bit-identical nest. The stream's first candidate
    /// reports `Reset`.
    #[test]
    fn change_depth_marks_the_first_difference(
        m in 1u64..10, n in 1u64..10, k in 1u64..10,
        fanout in 1u64..6,
        spatial in 0u64..2,
        limit in 1usize..400,
    ) {
        let e = Einsum::matmul(m, n, k);
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("L0"))
            .level(StorageLevel::new("L1"))
            .compute(ComputeSpec::new("MAC", fanout))
            .build()
            .unwrap();
        let mut space = Mapspace::all_temporal(&e, &arch);
        if spatial == 1 {
            space = space.with_spatial_dims(1, vec![DimId(1)]);
        }
        let mut it = space.iter_enumerate(limit);
        let mut prev: Option<sparseloop_mapping::Mapping> = None;
        let mut first = true;
        while let Some((depth, mapping)) = it.next_delta() {
            match (depth, &prev) {
                (ChangeDepth::Reset, _) => {
                    prop_assert!(first, "Reset only on the stream's first candidate");
                }
                (ChangeDepth::At { level, loop_pos }, Some(p)) => {
                    let pf = p.flattened();
                    let cf = mapping.flattened();
                    prop_assert_eq!(
                        &pf[..loop_pos.min(pf.len())],
                        &cf[..loop_pos.min(cf.len())],
                        "flattened prefixes above the depth must be equal"
                    );
                    prop_assert!(
                        pf.get(loop_pos) != cf.get(loop_pos),
                        "the loop at the depth must differ"
                    );
                    // nests of levels strictly above the change level
                    // are bit-identical
                    prop_assert_eq!(
                        &p.nests()[..level],
                        &mapping.nests()[..level],
                        "outer-level nests must be unchanged"
                    );
                    // because candidates factorize exactly, tiles held
                    // at-or-above the change level are unchanged too
                    let num_dims = e.dims().len();
                    let p_pos: usize = p.nests()[..level].iter().map(Vec::len).sum();
                    let c_pos: usize = mapping.nests()[..level].iter().map(Vec::len).sum();
                    prop_assert_eq!(
                        p.tile_bounds_inside(p_pos, num_dims),
                        mapping.tile_bounds_inside(c_pos, num_dims),
                        "held tile at the change level must be unchanged"
                    );
                }
                (ChangeDepth::At { .. }, None) => {
                    prop_assert!(false, "first candidate must report Reset");
                }
            }
            prev = Some(mapping);
            first = false;
        }
    }

    /// Shard streams report the same `ChangeDepth` contract within each
    /// shard, and every shard's first candidate reports `Reset` (the
    /// seam where no prefix may be assumed) — so sharded evaluation
    /// never reuses state across shard boundaries. Limit 0 is a
    /// `Random` strategy's prefix: no shard yields anything.
    #[test]
    fn shard_change_depths_hold_within_shards(
        m in 1u64..9, n in 1u64..9, k in 1u64..9,
        shards in 1usize..5,
        limit in 1usize..300,
    ) {
        let e = Einsum::matmul(m, n, k);
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("L0"))
            .level(StorageLevel::new("L1"))
            .compute(ComputeSpec::new("MAC", 2))
            .build()
            .unwrap();
        let space = Mapspace::all_temporal(&e, &arch).with_spatial_dims(1, vec![DimId(0)]);
        // the sampled limit, then a Random strategy's empty prefix
        for limit in [limit, 0] {
            let mut yielded = 0;
            for mut shard in space.shards(shards, limit) {
                let mut prev: Option<sparseloop_mapping::Mapping> = None;
                while let Some((_, depth, mapping)) = shard.next_delta() {
                    match (depth, &prev) {
                        (ChangeDepth::Reset, None) => {}
                        (ChangeDepth::Reset, Some(_)) => {
                            prop_assert!(false, "Reset must only open a shard");
                        }
                        (ChangeDepth::At { .. }, None) => {
                            prop_assert!(false, "a shard's first candidate must Reset");
                        }
                        (ChangeDepth::At { level, loop_pos }, Some(p)) => {
                            let pf = p.flattened();
                            let cf = mapping.flattened();
                            prop_assert_eq!(
                                &pf[..loop_pos.min(pf.len())],
                                &cf[..loop_pos.min(cf.len())]
                            );
                            prop_assert!(pf.get(loop_pos) != cf.get(loop_pos));
                            prop_assert_eq!(&p.nests()[..level], &mapping.nests()[..level]);
                        }
                    }
                    prev = Some(mapping);
                    yielded += 1;
                }
            }
            prop_assert!(limit > 0 || yielded == 0, "an empty prefix yields nothing");
        }
    }

    /// The hybrid stream against a set-based oracle: the whole
    /// enumerated prefix, then every draw of the seeded sampler whose
    /// mapping the prefix does not hold (the oracle keys mappings by
    /// their nests; every mapping of one space shares its bypasses).
    /// Per shard, shard `s` of `n` walks the prefix positions
    /// `p % n == s` in order and shard 0 then walks the tail — so the
    /// shards merged by key are the oracle's stream. `enumerate` is 0,
    /// below the space size or at/above it.
    #[test]
    fn hybrid_shards_equal_the_set_dedup_oracle(
        m in 1u64..9, n in 1u64..9, k in 1u64..9,
        fanout in 1u64..5,
        spatial in 0usize..3,
        order in 0usize..6,
        cap in 0usize..3,
        below in 0usize..1000,
        samples in 1usize..60,
        seed in any::<u64>(),
    ) {
        let e = Einsum::matmul(m, n, k);
        let arch = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("L0"))
            .level(StorageLevel::new("L1"))
            .compute(ComputeSpec::new("MAC", fanout))
            .build()
            .unwrap();
        let (a, b, c) = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)][order];
        let spatial_dims = [vec![], vec![DimId(1)], vec![DimId(2), DimId(0)]][spatial].clone();
        let space = Mapspace::all_temporal(&e, &arch)
            .with_temporal_order(1, vec![DimId(a), DimId(b), DimId(c)])
            .with_spatial_dims(1, spatial_dims);
        let size = space.iter_enumerate(usize::MAX).count();
        let enumerate = match cap {
            0 => 0,
            1 if size > 1 => 1 + below % (size - 1),
            1 => 0,
            _ => size + below % 3,
        };
        let prefix: Vec<Mapping> = space.iter_enumerate(enumerate).collect();
        let seen: HashSet<Vec<Vec<Loop>>> = prefix.iter().map(|m| m.nests().to_vec()).collect();
        let tail: Vec<Mapping> = space
            .iter_sample(samples, StdRng::seed_from_u64(seed))
            .filter(|m| !seen.contains(m.nests()))
            .collect();
        let mapper = Mapper::Hybrid { enumerate, samples, seed };
        for shards in 1..=3 {
            for shard in 0..shards {
                let recorder = Recorder::default();
                mapper.search_shard_counted(&space, &recorder, shard, shards);
                let mut want: Vec<&Mapping> = prefix.iter().skip(shard).step_by(shards).collect();
                if shard == 0 {
                    want.extend(&tail);
                }
                let got = recorder.0.into_inner().unwrap();
                prop_assert!(
                    got.iter().eq(want.iter().copied()),
                    "shard {} of {}, enumerate {} of {}, {} draws kept",
                    shard, shards, enumerate, size, tail.len()
                );
            }
        }
    }
}
