//! Step 1: dataflow modeling — dense traffic derivation (paper §5.2).
//!
//! Given a workload's Einsum and a mapping, this module derives the
//! *uncompressed* data movement and dense compute counts, exactly as a
//! dense Timeloop-style model would:
//!
//! * the tile of each tensor held at each storage level is the projection
//!   footprint of the loop sub-nest at-and-below that level;
//! * temporal reuse (stationarity) comes from the maximal contiguous run
//!   of tensor-irrelevant temporal loops immediately above a tile's
//!   delivery point;
//! * spatial loops partition relevant tensors across instances and
//!   multicast irrelevant ones;
//! * outputs carry updates (accumulations flowing up) and partial-sum
//!   refetches, with first-update read elision.
//!
//! The resulting [`DenseTraffic`] is deliberately sparsity-blind — the
//! sparse modeling step filters it (Fig. 5's decoupling, the heart of
//! Sparseloop's tractability argument).

use sparseloop_mapping::{Loop, LoopKind, Mapping};
use sparseloop_tensor::einsum::{Einsum, TensorId, TensorKind};

/// Dense traffic of one tensor at one storage level.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorLevelTraffic {
    /// The tensor.
    pub tensor: TensorId,
    /// Storage level index (0 = outermost).
    pub level: usize,
    /// Per-dimension loop bounds of the tile held at this level
    /// (per instance).
    pub tile_bounds: Vec<u64>,
    /// Per-rank shape of the held tile.
    pub tile_shape: Vec<u64>,
    /// Dense footprint (coordinates) of the held tile.
    pub tile_size: f64,
    /// Per-rank shape of the tile transferred to the next level below
    /// (the child tile).
    pub child_tile_shape: Vec<u64>,
    /// Dense footprint of the child tile.
    pub child_tile_size: f64,
    /// Words read out of this level toward the child (inputs) or
    /// partial-sum refetches plus drains (outputs).
    pub reads: f64,
    /// Words written into this level from the parent.
    pub fills: f64,
    /// Words written into this level from below (output accumulation).
    pub updates: f64,
    /// Words this level sends up to its parent (output drain).
    pub drains: f64,
    /// Number of child-tile transfer events behind `reads`.
    pub read_transfers: f64,
    /// Per-dimension bounds of the *reuse region*: the child tile extended
    /// by the contiguous target-irrelevant temporal run just above it.
    /// The gating/skipping analyzer projects leader tensors over these
    /// bounds to obtain mapping-dependent leader tiles (Fig. 10).
    pub reuse_bounds: Vec<u64>,
}

/// Dense traffic for the whole (workload, mapping) pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseTraffic {
    /// One entry per (tensor, storage level in its chain).
    pub entries: Vec<TensorLevelTraffic>,
    /// Total dense compute operations (MACs).
    pub computes: f64,
    /// Spatial parallelism the mapping actually uses.
    pub utilized_parallelism: u64,
}

impl DenseTraffic {
    /// Looks up the entry for `(tensor, level)`, if the tensor is stored
    /// at that level.
    pub fn get(&self, tensor: TensorId, level: usize) -> Option<&TensorLevelTraffic> {
        self.entries
            .iter()
            .find(|e| e.tensor == tensor && e.level == level)
    }

    /// All entries at one storage level.
    pub fn at_level(&self, level: usize) -> impl Iterator<Item = &TensorLevelTraffic> {
        self.entries.iter().filter(move |e| e.level == level)
    }
}

/// Reusable buffers and prefix caches for the dense dataflow analysis.
///
/// A search evaluates thousands of candidates against one
/// (workload, space) pair; the scratch keeps the traffic table, the
/// flattened-loop buffer and the per-level tile-bound rows alive across
/// candidates so the hot path allocates nothing, and — because
/// consecutive enumerated candidates share outer-loop prefixes — lets
/// the incremental analysis recompute only the storage boundaries below
/// the first changed loop.
#[derive(Debug, Default)]
pub struct DenseScratch {
    traffic: DenseTraffic,
    /// Flattened (level, loop) list of the current mapping.
    flat: Vec<(usize, Loop)>,
    /// Start of each level's nest within `flat`, plus the compute
    /// pseudo-level at the end.
    pos: Vec<usize>,
    /// Per-level tile bounds, row-major `(num_levels + 1) × num_dims`:
    /// row `l` is the per-dimension footprint of the sub-nest
    /// at-and-below level `l`; the last row (compute) is all ones.
    level_bounds: Vec<u64>,
    /// Per entry: the `distinct_at_parent` value flowing *into* that
    /// entry's boundary (output first-update elision state).
    distinct_in: Vec<f64>,
    /// Entry range start per tensor (+ sentinel), tensor-major layout.
    tensor_start: Vec<usize>,
    /// Layout signature: the keep matrix, dimension bounds and tensor
    /// count the entry layout was built for.
    keep_sig: Vec<Vec<bool>>,
    sig_bounds: Vec<u64>,
    sig_tensors: usize,
    layout_valid: bool,
}

impl DenseScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        DenseScratch::default()
    }

    /// The traffic of the most recent analysis into this scratch.
    pub fn traffic(&self) -> &DenseTraffic {
        &self.traffic
    }

    /// Whether the cached entry layout (and therefore any prefix state)
    /// matches this (einsum, mapping) pair.
    fn layout_matches(&self, einsum: &Einsum, mapping: &Mapping) -> bool {
        self.layout_valid
            && self.sig_tensors == einsum.tensors().len()
            && self.sig_bounds.len() == einsum.dims().len()
            && self
                .sig_bounds
                .iter()
                .zip(einsum.dims())
                .all(|(&b, d)| b == d.bound)
            && self.keep_sig.len() == mapping.num_levels()
            && self
                .keep_sig
                .iter()
                .zip(mapping.keep_matrix())
                .all(|(a, b)| a == b)
    }

    /// Rebuilds the entry layout (one entry per tensor-chain level).
    fn rebuild_layout(&mut self, einsum: &Einsum, mapping: &Mapping) {
        let num_dims = einsum.dims().len();
        let num_levels = mapping.num_levels();
        self.keep_sig.clear();
        self.keep_sig.extend(mapping.keep_matrix().iter().cloned());
        self.sig_bounds.clear();
        self.sig_bounds
            .extend(einsum.dims().iter().map(|d| d.bound));
        self.sig_tensors = einsum.tensors().len();
        self.traffic.entries.clear();
        self.distinct_in.clear();
        self.tensor_start.clear();
        for ti in 0..self.sig_tensors {
            self.tensor_start.push(self.traffic.entries.len());
            let t = TensorId(ti);
            for l in 0..num_levels {
                if mapping.keeps(l, t) {
                    self.traffic.entries.push(TensorLevelTraffic {
                        tensor: t,
                        level: l,
                        tile_bounds: Vec::with_capacity(num_dims),
                        tile_shape: Vec::new(),
                        tile_size: 0.0,
                        child_tile_shape: Vec::new(),
                        child_tile_size: 0.0,
                        reads: 0.0,
                        fills: 0.0,
                        updates: 0.0,
                        drains: 0.0,
                        read_transfers: 0.0,
                        reuse_bounds: Vec::with_capacity(num_dims),
                    });
                    self.distinct_in.push(0.0);
                }
            }
        }
        self.tensor_start.push(self.traffic.entries.len());
        self.level_bounds.clear();
        self.level_bounds.resize((num_levels + 1) * num_dims, 1);
        self.layout_valid = true;
    }
}

/// Runs the dense dataflow analysis.
///
/// # Panics
/// Panics if the mapping references dimensions outside the workload; call
/// [`Mapping::validate`] first for richer error reporting.
pub fn analyze(einsum: &Einsum, mapping: &Mapping) -> DenseTraffic {
    let mut scratch = DenseScratch::default();
    analyze_into(einsum, mapping, None, &mut scratch);
    scratch.traffic
}

/// The dense analysis, written into `scratch`.
///
/// `change` enables prefix-incremental recomputation: `Some(cl)` asserts
/// that, relative to the mapping of the scratch's previous call, the
/// loops of every storage level strictly above `cl` are unchanged and
/// within `cl` only a suffix changed (the contract of
/// `ChangeDepth::At { level: cl, .. }` from the enumeration streams).
/// Because every stream candidate factorizes each dimension exactly, the
/// tiles held at levels `0..=cl` and every boundary whose child level is
/// `<= cl` are then bit-identical to the previous candidate and are
/// reused from the scratch; only deeper boundaries recompute. `None`
/// recomputes everything (and revalidates the entry layout), which is
/// always sound.
pub(crate) fn analyze_into(
    einsum: &Einsum,
    mapping: &Mapping,
    change: Option<usize>,
    s: &mut DenseScratch,
) {
    let num_dims = einsum.dims().len();
    let num_levels = mapping.num_levels();
    let change = if s.layout_matches(einsum, mapping) {
        change
    } else {
        s.rebuild_layout(einsum, mapping);
        None
    };

    // flattened loops + per-level nest starts (cheap, rebuilt per call)
    s.flat.clear();
    s.pos.clear();
    for (l, nest) in mapping.nests().iter().enumerate() {
        s.pos.push(s.flat.len());
        s.flat.extend(nest.iter().map(|&lp| (l, lp)));
    }
    s.pos.push(s.flat.len());
    let compute_pos = s.flat.len();

    // per-level tile-bound rows: row l = row (l+1) ⊙ level l's loops,
    // accumulated innermost→outermost; rows at-or-above the change level
    // are unchanged (dim bound / unchanged prefix) and kept as cached
    let first_row = match change {
        Some(cl) => cl + 1,
        None => 0,
    };
    for l in (first_row..num_levels).rev() {
        let (head, tail) = s.level_bounds.split_at_mut((l + 1) * num_dims);
        let dst = &mut head[l * num_dims..];
        dst.copy_from_slice(&tail[..num_dims]);
        for lp in &mapping.nests()[l] {
            dst[lp.dim.0] *= lp.bound;
        }
    }

    s.traffic.computes = einsum.num_computes() as f64;
    s.traffic.utilized_parallelism = mapping.total_spatial_fanout().max(1);

    let flat = &s.flat;
    let pos = &s.pos;
    let level_bounds = &s.level_bounds;
    let sig_bounds = &s.sig_bounds;
    let entries = &mut s.traffic.entries;
    let distinct_in = &mut s.distinct_in;
    let row = |l: usize| &level_bounds[l * num_dims..(l + 1) * num_dims];

    for (ti, tspec) in einsum.tensors().iter().enumerate() {
        let t = TensorId(ti);
        let start = s.tensor_start[ti];
        let len = s.tensor_start[ti + 1] - start;
        if len == 0 {
            continue;
        }

        // Boundary j (parent chain[j] → child chain[j+1] or compute)
        // depends only on the loops strictly above its child's nest plus
        // the child tile — both unchanged when the child level is
        // at-or-above the change level. Reuse that prefix of boundaries;
        // recompute the rest. The compute boundary (child = the
        // pseudo-level `num_levels`) always recomputes.
        let (he, fc) = match change {
            None => (0, 0),
            Some(cl) => {
                let he = (0..len)
                    .find(|&j| entries[start + j].level > cl)
                    .unwrap_or(len);
                let fc = (0..len)
                    .find(|&j| {
                        if j + 1 < len {
                            entries[start + j + 1].level > cl
                        } else {
                            true
                        }
                    })
                    .unwrap_or(len.saturating_sub(1));
                (he, fc)
            }
        };

        // Held-tile fields of entries below the change level.
        for j in he..len {
            let e = &mut entries[start + j];
            let l = e.level;
            e.tile_bounds.clear();
            e.tile_bounds.extend_from_slice(row(l));
            einsum.tensor_tile_shape_into(t, row(l), &mut e.tile_shape);
            e.tile_size = e.tile_shape.iter().product::<u64>().max(1) as f64;
        }

        // Walk the recomputed boundaries outermost → innermost.
        // `distinct` is the number of fresh output-tile instantiations at
        // the parent (first-update read elision); its incoming value per
        // boundary is cached so a suffix recomputation resumes exactly
        // where the reused prefix left it.
        let tensor_size: f64 = einsum.tensor_tile_size(t, sig_bounds).max(1) as f64;
        let mut distinct = if fc == 0 {
            tensor_size
        } else {
            distinct_in[start + fc]
        };

        for i in fc..len {
            distinct_in[start + i] = distinct;
            let p = entries[start + i].level;
            let (pos_c, child_row) = if i + 1 < len {
                let c = entries[start + i + 1].level;
                (pos[c], row(c))
            } else {
                (compute_pos, row(num_levels))
            };
            let e = &mut entries[start + i];
            einsum.tensor_tile_shape_into(t, child_row, &mut e.child_tile_shape);
            let child_size: f64 = e.child_tile_shape.iter().product::<u64>().max(1) as f64;
            e.child_tile_size = child_size;

            // Stationarity run: contiguous t-irrelevant temporal loops
            // immediately above the child's nest (spatial loops are
            // transparent to the scan).
            let mut run_product = 1.0f64;
            e.reuse_bounds.clear();
            e.reuse_bounds.extend_from_slice(child_row);
            for j in (0..pos_c).rev() {
                let (_, lp) = flat[j];
                if lp.kind == LoopKind::Spatial {
                    continue;
                }
                if tspec.is_relevant(lp.dim) {
                    break;
                }
                run_product *= lp.bound as f64;
                e.reuse_bounds[lp.dim.0] *= lp.bound;
            }

            let temporal_above: f64 = flat[..pos_c]
                .iter()
                .filter(|(_, lp)| lp.kind == LoopKind::Temporal)
                .map(|(_, lp)| lp.bound as f64)
                .product();
            let t_changes = temporal_above / run_product;

            let s_all_above_c: f64 = flat[..pos_c]
                .iter()
                .filter(|(_, lp)| lp.kind == LoopKind::Spatial)
                .map(|(_, lp)| lp.bound as f64)
                .product();
            let s_all_above_p: f64 = flat[..pos[p]]
                .iter()
                .filter(|(_, lp)| lp.kind == LoopKind::Spatial)
                .map(|(_, lp)| lp.bound as f64)
                .product();
            let s_rel_between: f64 = flat[pos[p]..pos_c]
                .iter()
                .filter(|(_, lp)| lp.kind == LoopKind::Spatial && tspec.is_relevant(lp.dim))
                .map(|(_, lp)| lp.bound as f64)
                .product();

            let deliveries_at_parent = child_size * t_changes * s_all_above_p * s_rel_between;
            let deliveries_total = child_size * t_changes * s_all_above_c;

            // Every traffic field has exactly one writing boundary, so a
            // recomputed boundary *assigns* its fields (reused ones keep
            // their cached values untouched): entry i's reads / updates /
            // read_transfers come from boundary i; entry i+1's fills and
            // drains come from boundary i; entry 0's fills/drains have no
            // boundary and stay zero from layout construction.
            match tspec.kind {
                TensorKind::Input => {
                    e.reads = deliveries_at_parent;
                    e.read_transfers = deliveries_at_parent / child_size;
                    if i + 1 < len {
                        entries[start + i + 1].fills = deliveries_total;
                    }
                }
                TensorKind::Output => {
                    // accumulations flowing up into p; partial-sum
                    // refetches sent back down (first-update reads
                    // elided)
                    let refetch = (deliveries_at_parent - distinct).max(0.0);
                    e.updates = deliveries_at_parent;
                    e.reads = refetch;
                    e.read_transfers = deliveries_at_parent / child_size;
                    if i + 1 < len {
                        // child drains its tile once per delivery and
                        // refetches partials
                        let child = &mut entries[start + i + 1];
                        child.drains = deliveries_total;
                        child.fills = refetch;
                    }
                    // Fresh-tile instantiations at the child: each
                    // delivery is one instantiation of the child's tile.
                    distinct = deliveries_total;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseloop_mapping::MappingBuilder;
    use sparseloop_tensor::einsum::DimId;

    /// Z[m,n] += A[m,k] B[k,n], M=N=K=2; L0: for m, for n; L1: for k.
    fn simple_case() -> (Einsum, Mapping) {
        let e = Einsum::matmul(2, 2, 2);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let map = MappingBuilder::new(2, 3)
            .temporal(0, m, 2)
            .temporal(0, n, 2)
            .temporal(1, k, 2)
            .build();
        (e, map)
    }

    #[test]
    fn hand_computed_matmul_counts() {
        let (e, map) = simple_case();
        let d = analyze(&e, &map);
        let a = e.tensor_id("A").unwrap();
        let b = e.tensor_id("B").unwrap();
        let z = e.tensor_id("Z").unwrap();

        assert_eq!(d.computes, 8.0);

        // A row (m fixed, k=2) is stationary across n: 2 distinct rows,
        // each delivered once -> 4 words from L0; read per MAC at L1.
        let a0 = d.get(a, 0).unwrap();
        let a1 = d.get(a, 1).unwrap();
        assert_eq!(a0.reads, 4.0);
        assert_eq!(a1.fills, 4.0);
        assert_eq!(a1.reads, 8.0);

        // B column (k=2, n fixed) is NOT stationary across m (n iterates
        // in between): 4 deliveries x 2 words = 8.
        let b0 = d.get(b, 0).unwrap();
        let b1 = d.get(b, 1).unwrap();
        assert_eq!(b0.reads, 8.0);
        assert_eq!(b1.fills, 8.0);
        assert_eq!(b1.reads, 8.0);

        // Z: k innermost accumulates in place; each of the 4 outputs
        // written back once, no partial-sum refetch.
        let z0 = d.get(z, 0).unwrap();
        let z1 = d.get(z, 1).unwrap();
        assert_eq!(z0.updates, 4.0);
        assert_eq!(z0.reads, 0.0);
        assert_eq!(z1.updates, 4.0);
        assert_eq!(z1.drains, 4.0);
    }

    #[test]
    fn tile_sizes_follow_subnests() {
        let (e, map) = simple_case();
        let d = analyze(&e, &map);
        let a = e.tensor_id("A").unwrap();
        // L0 holds the whole A (2x2); L1 holds one row (1x2).
        assert_eq!(d.get(a, 0).unwrap().tile_size, 4.0);
        assert_eq!(d.get(a, 1).unwrap().tile_size, 2.0);
        assert_eq!(d.get(a, 1).unwrap().child_tile_size, 1.0);
    }

    #[test]
    fn reuse_bounds_capture_fig10_mappings() {
        // Fig 10: Skip B <- A at Buffer. Mapping 1: k innermost => leader
        // is a single A element. Mapping 2: m innermost => leader is a
        // column of A.
        let e = Einsum::matmul(4, 1, 4);
        let (m, _n, k) = (DimId(0), DimId(1), DimId(2));
        let b = e.tensor_id("B").unwrap();

        let mapping1 = MappingBuilder::new(1, 3)
            .temporal(0, m, 4)
            .temporal(0, k, 4)
            .build();
        let d1 = analyze(&e, &mapping1);
        // innermost loop k is relevant to B: no reuse run
        assert_eq!(d1.get(b, 0).unwrap().reuse_bounds, vec![1, 1, 1]);

        let mapping2 = MappingBuilder::new(1, 3)
            .temporal(0, k, 4)
            .temporal(0, m, 4)
            .build();
        let d2 = analyze(&e, &mapping2);
        // innermost loop m is irrelevant to B: reuse run spans m=4
        assert_eq!(d2.get(b, 0).unwrap().reuse_bounds, vec![4, 1, 1]);
    }

    #[test]
    fn spatial_multicast_reduces_parent_reads() {
        // parallel-for n at DRAM: A (irrelevant to n) is multicast.
        let e = Einsum::matmul(2, 4, 2);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let map = MappingBuilder::new(2, 3)
            .temporal(0, m, 2)
            .spatial(0, n, 4)
            .temporal(1, k, 2)
            .build();
        let d = analyze(&e, &map);
        let a = e.tensor_id("A").unwrap();
        let b = e.tensor_id("B").unwrap();
        // Each A row read once from DRAM (multicast to 4 buffers), but
        // filled into each of the 4 buffer instances.
        assert_eq!(d.get(a, 0).unwrap().reads, 4.0);
        assert_eq!(d.get(a, 1).unwrap().fills, 16.0);
        // B is partitioned (n relevant): reads = fills.
        assert_eq!(d.get(b, 0).unwrap().reads, d.get(b, 1).unwrap().fills);
        assert_eq!(d.utilized_parallelism, 4);
    }

    #[test]
    fn bypass_shortens_chain() {
        let e = Einsum::matmul(2, 2, 2);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let b_id = e.tensor_id("B").unwrap();
        let map = MappingBuilder::new(2, 3)
            .temporal(0, m, 2)
            .temporal(0, n, 2)
            .temporal(1, k, 2)
            .bypass(1, b_id)
            .build();
        let d = analyze(&e, &map);
        assert!(d.get(b_id, 1).is_none());
        // B is read straight from DRAM per MAC (k relevant, no run).
        assert_eq!(d.get(b_id, 0).unwrap().reads, 8.0);
    }

    #[test]
    fn fully_dense_read_counts_scale() {
        // Bigger case: verify reads at innermost equal MACs for operands
        // with no stationarity.
        let e = Einsum::matmul(4, 4, 4);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let map = MappingBuilder::new(1, 3)
            .temporal(0, m, 4)
            .temporal(0, n, 4)
            .temporal(0, k, 4)
            .build();
        let d = analyze(&e, &map);
        let b = e.tensor_id("B").unwrap();
        assert_eq!(d.get(b, 0).unwrap().reads, 64.0);
        // A is reused... k innermost is relevant to A too: 64 reads.
        let a = e.tensor_id("A").unwrap();
        assert_eq!(d.get(a, 0).unwrap().reads, 64.0);
        // Z: k innermost -> accumulation register, 16 writes.
        let z = e.tensor_id("Z").unwrap();
        assert_eq!(d.get(z, 0).unwrap().updates, 16.0);
    }

    #[test]
    fn output_partial_sum_refetch() {
        // Reduction loop k above a Z-relevant loop m at L0: each Z
        // sub-tile is evicted and revisited across k.
        let e = Einsum::matmul(2, 2, 4);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let map = MappingBuilder::new(2, 3)
            .temporal(0, k, 4)
            .temporal(0, m, 2)
            .temporal(1, n, 2)
            .build();
        let d = analyze(&e, &map);
        let z = e.tensor_id("Z").unwrap();
        let z0 = d.get(z, 0).unwrap();
        // Z row (n=2) delivered per (k, m) iteration: 8 deliveries of 2
        // words = 16 updates at L0; 4 distinct outputs; 12 refetches.
        assert_eq!(z0.updates, 16.0);
        assert_eq!(z0.reads, 12.0);
    }

    #[test]
    fn output_stationary_child_avoids_refetch() {
        // Only the reduction loop k sits above the child holding all of
        // Z: the Z tile stays resident, written back once.
        let e = Einsum::matmul(2, 2, 4);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let map = MappingBuilder::new(2, 3)
            .temporal(0, k, 4)
            .temporal(1, m, 2)
            .temporal(1, n, 2)
            .build();
        let d = analyze(&e, &map);
        let z = e.tensor_id("Z").unwrap();
        let z0 = d.get(z, 0).unwrap();
        assert_eq!(z0.updates, 4.0);
        assert_eq!(z0.reads, 0.0);
    }

    #[test]
    fn read_transfers_count_tiles() {
        let (e, map) = simple_case();
        let d = analyze(&e, &map);
        let a = e.tensor_id("A").unwrap();
        // 2 rows delivered of 2 words each
        assert_eq!(d.get(a, 0).unwrap().read_transfers, 2.0);
    }
}
