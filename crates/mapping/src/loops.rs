//! Loop nests: the mapping data structure and its validation.

use sparseloop_arch::Architecture;
use sparseloop_tensor::einsum::{DimId, Einsum, TensorId};
use std::fmt;
use std::sync::Arc;

/// Whether a loop iterates in time or across spatial instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopKind {
    /// `for` — consecutive time steps.
    Temporal,
    /// `parallel-for` — simultaneous spatial instances.
    Spatial,
}

/// One loop of the nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loop {
    /// The iteration dimension this loop tiles.
    pub dim: DimId,
    /// Number of iterations (the tiling factor at this position).
    pub bound: u64,
    /// Temporal or spatial.
    pub kind: LoopKind,
}

impl Loop {
    /// A temporal loop.
    pub fn temporal(dim: DimId, bound: u64) -> Self {
        Loop {
            dim,
            bound,
            kind: LoopKind::Temporal,
        }
    }

    /// A spatial (parallel-for) loop.
    pub fn spatial(dim: DimId, bound: u64) -> Self {
        Loop {
            dim,
            bound,
            kind: LoopKind::Spatial,
        }
    }
}

/// Validation failures for [`Mapping::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// Mapping has a different number of level nests than the
    /// architecture has storage levels.
    LevelCountMismatch {
        /// Nests in the mapping.
        mapping: usize,
        /// Storage levels in the architecture.
        arch: usize,
    },
    /// The per-dim product of loop bounds does not equal the dimension's
    /// workload bound.
    BadFactorization {
        /// Offending dimension.
        dim: DimId,
        /// Product of the mapping's loop bounds for this dim.
        product: u64,
        /// The workload's bound.
        expected: u64,
    },
    /// Product of spatial loop bounds at a level exceeds the hardware
    /// fanout below that level.
    SpatialOverflow {
        /// Storage level index (0 = outermost).
        level: usize,
        /// Product of spatial bounds at this level.
        product: u64,
        /// Hardware fanout below this level.
        fanout: u64,
    },
    /// A tensor is stored at no level at all.
    TensorNowhere(TensorId),
    /// The outermost level must keep (not bypass) every tensor — it plays
    /// the role of backing storage.
    OutermostBypassed(TensorId),
    /// A loop bound of zero is meaningless.
    ZeroBound {
        /// Storage level index.
        level: usize,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::LevelCountMismatch { mapping, arch } => {
                write!(
                    f,
                    "mapping has {mapping} level nests but architecture has {arch}"
                )
            }
            MappingError::BadFactorization {
                dim,
                product,
                expected,
            } => write!(
                f,
                "dim {} loop bounds multiply to {product}, workload bound is {expected}",
                dim.0
            ),
            MappingError::SpatialOverflow {
                level,
                product,
                fanout,
            } => write!(
                f,
                "spatial bounds at level {level} multiply to {product}, exceeding fanout {fanout}"
            ),
            MappingError::TensorNowhere(t) => {
                write!(f, "tensor {} is bypassed at every level", t.0)
            }
            MappingError::OutermostBypassed(t) => {
                write!(
                    f,
                    "tensor {} bypassed at the outermost (backing) level",
                    t.0
                )
            }
            MappingError::ZeroBound { level } => {
                write!(f, "zero loop bound at level {level}")
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// A complete schedule: per-level loop nests plus bypass choices.
///
/// `nests[0]` belongs to the outermost storage level; loops within a nest
/// are ordered outermost-first. `keep[l][t]` is `true` when storage level
/// `l` holds tensor `t` (i.e. the tensor is *not* bypassed there).
///
/// The keep matrix is reference-counted: every candidate a [`Mapspace`]
/// generates shares one bypass configuration, so cloning it per
/// candidate would be pure overhead on the mapper's hot path (and inside
/// the parallel search's serialized stream section).
///
/// [`Mapspace`]: crate::Mapspace
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    nests: Vec<Vec<Loop>>,
    keep: Arc<Vec<Vec<bool>>>,
}

impl Mapping {
    /// Builds a mapping from raw parts; prefer [`MappingBuilder`].
    pub fn new(nests: Vec<Vec<Loop>>, keep: Vec<Vec<bool>>) -> Self {
        Mapping::with_shared_keep(nests, Arc::new(keep))
    }

    /// Builds a mapping sharing an existing keep matrix (used by mapspace
    /// candidate generation to avoid per-candidate clones).
    pub fn with_shared_keep(nests: Vec<Vec<Loop>>, keep: Arc<Vec<Vec<bool>>>) -> Self {
        assert_eq!(nests.len(), keep.len(), "nest/keep level counts differ");
        Mapping { nests, keep }
    }

    /// Per-level loop nests, outermost level first.
    pub fn nests(&self) -> &[Vec<Loop>] {
        &self.nests
    }

    /// Whether storage level `level` keeps tensor `t`.
    pub fn keeps(&self, level: usize, t: TensorId) -> bool {
        self.keep[level][t.0]
    }

    /// The keep matrix (`[level][tensor]`).
    pub fn keep_matrix(&self) -> &[Vec<bool>] {
        &self.keep
    }

    /// Number of storage levels the mapping covers.
    pub fn num_levels(&self) -> usize {
        self.nests.len()
    }

    /// All loops flattened outermost-first, tagged with their level.
    pub fn flattened(&self) -> Vec<(usize, Loop)> {
        self.nests
            .iter()
            .enumerate()
            .flat_map(|(l, nest)| nest.iter().map(move |&lp| (l, lp)))
            .collect()
    }

    /// Product of spatial loop bounds at `level`.
    pub fn spatial_fanout_at(&self, level: usize) -> u64 {
        self.nests[level]
            .iter()
            .filter(|l| l.kind == LoopKind::Spatial)
            .map(|l| l.bound)
            .product()
    }

    /// Product of *all* spatial bounds (total parallelism used).
    pub fn total_spatial_fanout(&self) -> u64 {
        (0..self.nests.len())
            .map(|l| self.spatial_fanout_at(l))
            .product()
    }

    /// The levels that keep tensor `t`, outermost first.
    pub fn storage_chain(&self, t: TensorId) -> Vec<usize> {
        (0..self.keep.len())
            .filter(|&l| self.keep[l][t.0])
            .collect()
    }

    /// Per-dimension tile bounds covered by all loops strictly *inside*
    /// flattened position `pos` (i.e. the sub-nest footprint bounds).
    /// `num_dims` is the workload dimension count.
    pub fn tile_bounds_inside(&self, pos: usize, num_dims: usize) -> Vec<u64> {
        let flat = self.flattened();
        let mut bounds = vec![1u64; num_dims];
        for (_, lp) in flat.iter().skip(pos) {
            bounds[lp.dim.0] *= lp.bound;
        }
        bounds
    }

    /// Validates this mapping against a workload and architecture.
    ///
    /// # Errors
    /// Returns the first violated invariant; see [`MappingError`].
    pub fn validate(&self, einsum: &Einsum, arch: &Architecture) -> Result<(), MappingError> {
        self.validate_with(einsum, arch, &mut Vec::new())
    }

    /// [`validate`](Mapping::validate) with a caller-owned per-dimension
    /// product buffer, so callers validating many mappings (the search
    /// hot path) allocate nothing per call.
    pub fn validate_with(
        &self,
        einsum: &Einsum,
        arch: &Architecture,
        products: &mut Vec<u64>,
    ) -> Result<(), MappingError> {
        if self.nests.len() != arch.num_levels() {
            return Err(MappingError::LevelCountMismatch {
                mapping: self.nests.len(),
                arch: arch.num_levels(),
            });
        }
        for (l, nest) in self.nests.iter().enumerate() {
            if nest.iter().any(|lp| lp.bound == 0) {
                return Err(MappingError::ZeroBound { level: l });
            }
        }
        // factorization per dim: one pass over the nests accumulating
        // every dimension's loop-bound product
        let num_dims = einsum.dims().len();
        products.clear();
        products.resize(num_dims, 1u64);
        for nest in &self.nests {
            for lp in nest {
                if lp.dim.0 < num_dims {
                    products[lp.dim.0] = products[lp.dim.0].saturating_mul(lp.bound);
                }
            }
        }
        for (d, dim) in einsum.dims().iter().enumerate() {
            if products[d] != dim.bound {
                return Err(MappingError::BadFactorization {
                    dim: DimId(d),
                    product: products[d],
                    expected: dim.bound,
                });
            }
        }
        // spatial fanout per level
        for l in 0..self.nests.len() {
            let product = self.spatial_fanout_at(l);
            let fanout = arch.fanout_below(sparseloop_arch::LevelId(l));
            if product > fanout {
                return Err(MappingError::SpatialOverflow {
                    level: l,
                    product,
                    fanout,
                });
            }
        }
        // storage chains
        for t in 0..einsum.tensors().len() {
            let tid = TensorId(t);
            if !self.keep[0][t] {
                return Err(MappingError::OutermostBypassed(tid));
            }
            if self.storage_chain(tid).is_empty() {
                return Err(MappingError::TensorNowhere(tid));
            }
        }
        Ok(())
    }

    /// Pretty-prints the nest with dimension names from the workload
    /// (Fig. 6-style).
    pub fn render(&self, einsum: &Einsum, arch: &Architecture) -> String {
        let mut out = String::new();
        let mut indent = 0usize;
        for (l, nest) in self.nests.iter().enumerate() {
            let name = if l < arch.num_levels() {
                arch.levels()[l].name.as_str()
            } else {
                "?"
            };
            out.push_str(&format!("{}[{}]\n", "  ".repeat(indent), name));
            indent += 1;
            for lp in nest {
                let kw = match lp.kind {
                    LoopKind::Temporal => "for",
                    LoopKind::Spatial => "parallel-for",
                };
                out.push_str(&format!(
                    "{}{} {} in 0..{}\n",
                    "  ".repeat(indent),
                    kw,
                    einsum.dims()[lp.dim.0].name,
                    lp.bound
                ));
                indent += 1;
            }
        }
        out
    }
}

/// Incremental builder for [`Mapping`].
///
/// # Example
/// ```
/// use sparseloop_mapping::MappingBuilder;
/// use sparseloop_tensor::einsum::{DimId, Einsum};
///
/// let e = Einsum::matmul(4, 4, 4);
/// let (m, n, k) = (DimId(0), DimId(1), DimId(2));
/// let mapping = MappingBuilder::new(2, 3)
///     .temporal(0, m, 4)          // DRAM level: for m in 0..4
///     .spatial(0, n, 4)           //             parallel-for n in 0..4
///     .temporal(1, k, 4)          // Buffer level: for k in 0..4
///     .build();
/// assert_eq!(mapping.num_levels(), 2);
/// assert_eq!(mapping.total_spatial_fanout(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct MappingBuilder {
    nests: Vec<Vec<Loop>>,
    keep: Vec<Vec<bool>>,
}

impl MappingBuilder {
    /// Starts a mapping over `levels` storage levels and `tensors`
    /// tensors, with every tensor kept at every level.
    pub fn new(levels: usize, tensors: usize) -> Self {
        MappingBuilder {
            nests: vec![Vec::new(); levels],
            keep: vec![vec![true; tensors]; levels],
        }
    }

    /// Appends a temporal loop at `level` (loops are added
    /// outermost-first within the level).
    pub fn temporal(mut self, level: usize, dim: DimId, bound: u64) -> Self {
        self.nests[level].push(Loop::temporal(dim, bound));
        self
    }

    /// Appends a spatial loop at `level`.
    pub fn spatial(mut self, level: usize, dim: DimId, bound: u64) -> Self {
        self.nests[level].push(Loop::spatial(dim, bound));
        self
    }

    /// Marks tensor `t` as bypassed (not stored) at `level`.
    pub fn bypass(mut self, level: usize, t: TensorId) -> Self {
        self.keep[level][t.0] = false;
        self
    }

    /// Finishes the mapping.
    pub fn build(self) -> Mapping {
        Mapping::new(self.nests, self.keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseloop_arch::{ArchitectureBuilder, ComputeSpec, StorageLevel};

    fn arch2(fanout: u64) -> Architecture {
        ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM"))
            .level(StorageLevel::new("Buf").with_instances(1))
            .compute(ComputeSpec::new("MAC", fanout))
            .build()
            .unwrap()
    }

    fn matmul_mapping() -> (Einsum, Mapping) {
        let e = Einsum::matmul(4, 4, 8);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let map = MappingBuilder::new(2, 3)
            .temporal(0, m, 4)
            .temporal(0, n, 2)
            .spatial(1, n, 2)
            .temporal(1, k, 8)
            .build();
        (e, map)
    }

    #[test]
    fn valid_mapping_passes() {
        let (e, map) = matmul_mapping();
        map.validate(&e, &arch2(2)).unwrap();
    }

    #[test]
    fn bad_factorization_detected() {
        let e = Einsum::matmul(4, 4, 8);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let map = MappingBuilder::new(2, 3)
            .temporal(0, m, 4)
            .temporal(0, n, 4)
            .temporal(1, k, 4) // should be 8
            .build();
        let err = map.validate(&e, &arch2(1)).unwrap_err();
        assert!(matches!(
            err,
            MappingError::BadFactorization { dim: DimId(2), .. }
        ));
    }

    #[test]
    fn spatial_overflow_detected() {
        let (e, map) = matmul_mapping();
        let err = map.validate(&e, &arch2(1)).unwrap_err();
        assert!(matches!(
            err,
            MappingError::SpatialOverflow { level: 1, .. }
        ));
    }

    #[test]
    fn level_count_mismatch_detected() {
        let (e, _) = matmul_mapping();
        let map = MappingBuilder::new(1, 3).build();
        let err = map.validate(&e, &arch2(1)).unwrap_err();
        assert!(matches!(err, MappingError::LevelCountMismatch { .. }));
    }

    #[test]
    fn outermost_bypass_rejected() {
        let e = Einsum::matmul(2, 2, 2);
        let (m, n, k) = (DimId(0), DimId(1), DimId(2));
        let map = MappingBuilder::new(2, 3)
            .temporal(0, m, 2)
            .temporal(0, n, 2)
            .temporal(1, k, 2)
            .bypass(0, TensorId(1))
            .build();
        let err = map.validate(&e, &arch2(1)).unwrap_err();
        assert_eq!(err, MappingError::OutermostBypassed(TensorId(1)));
    }

    #[test]
    fn storage_chain_respects_bypass() {
        let (_, map) = matmul_mapping();
        assert_eq!(map.storage_chain(TensorId(0)), vec![0, 1]);
        let map2 = {
            let mut b = MappingBuilder::new(3, 3);
            b = b.bypass(1, TensorId(0));
            b.build()
        };
        assert_eq!(map2.storage_chain(TensorId(0)), vec![0, 2]);
    }

    #[test]
    fn tile_bounds_inside_products() {
        let (_, map) = matmul_mapping();
        // flattened: m4, n2 | n2s, k8
        assert_eq!(map.tile_bounds_inside(0, 3), vec![4, 4, 8]);
        assert_eq!(map.tile_bounds_inside(2, 3), vec![1, 2, 8]);
        assert_eq!(map.tile_bounds_inside(4, 3), vec![1, 1, 1]);
    }

    #[test]
    fn render_contains_loop_keywords() {
        let (e, map) = matmul_mapping();
        let txt = map.render(&e, &arch2(2));
        assert!(txt.contains("for m in 0..4"));
        assert!(txt.contains("parallel-for n in 0..2"));
        assert!(txt.contains("[DRAM]"));
    }

    #[test]
    fn flattened_order_outermost_first() {
        let (_, map) = matmul_mapping();
        let flat = map.flattened();
        assert_eq!(flat.len(), 4);
        assert_eq!(flat[0].0, 0);
        assert_eq!(flat[3].0, 1);
    }

    #[test]
    fn zero_bound_rejected() {
        let e = Einsum::matmul(2, 2, 2);
        let map = MappingBuilder::new(2, 3).temporal(0, DimId(0), 0).build();
        let err = map.validate(&e, &arch2(1)).unwrap_err();
        assert!(matches!(err, MappingError::ZeroBound { level: 0 }));
    }
}
