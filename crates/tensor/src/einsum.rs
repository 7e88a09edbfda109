//! Extended-Einsum workload specification (Sparseloop §5.1).
//!
//! A workload is a set of named iteration *dimensions* with integer bounds
//! plus a set of *tensors*, each defined by a linear projection from the
//! iteration space onto the tensor's coordinate space. For matrix
//! multiplication `Z[m,n] = Σ_k A[m,k]·B[k,n]` the dimensions are
//! `m, n, k`; `A` projects rank 0 from `m` and rank 1 from `k`, and so on.
//! Convolutions use compound projections such as `h = p + r` (sliding
//! window), which this module models as sums of `coefficient × dimension`
//! terms, the same way Timeloop does.

use crate::point::Point;
use std::fmt;

/// Index of an iteration dimension within an [`Einsum`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DimId(pub usize);

/// Index of a tensor within an [`Einsum`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub usize);

/// A named iteration dimension with its bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dim {
    /// Human-readable dimension name (e.g. `"m"`, `"k"`, `"p"`).
    pub name: String,
    /// Iteration bound; the dimension ranges over `0..bound`.
    pub bound: u64,
}

/// Whether a tensor is read (operand) or written (result).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorKind {
    /// Read-only operand tensor.
    Input,
    /// Read-modify-write result tensor (accumulated over reduction dims).
    Output,
}

/// One term of a linear rank projection: `coef * dim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionTerm {
    /// The contributing iteration dimension.
    pub dim: DimId,
    /// Multiplier applied to the dimension's value (stride).
    pub coef: u64,
}

/// A tensor rank's coordinate as a sum of projection terms.
///
/// Rank coordinate = `Σ term.coef * iteration_value(term.dim)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankProjection {
    /// Terms summed to produce the rank coordinate.
    pub terms: Vec<ProjectionTerm>,
}

impl RankProjection {
    /// A rank driven by a single dimension with unit stride.
    pub fn simple(dim: DimId) -> Self {
        RankProjection {
            terms: vec![ProjectionTerm { dim, coef: 1 }],
        }
    }

    /// A rank driven by a sum of unit-stride dimensions (e.g. `p + r`).
    pub fn sum(dims: &[DimId]) -> Self {
        RankProjection {
            terms: dims
                .iter()
                .map(|&dim| ProjectionTerm { dim, coef: 1 })
                .collect(),
        }
    }

    /// A rank driven by `stride*outer + inner` (strided convolution).
    pub fn strided(outer: DimId, stride: u64, inner: DimId) -> Self {
        RankProjection {
            terms: vec![
                ProjectionTerm {
                    dim: outer,
                    coef: stride,
                },
                ProjectionTerm {
                    dim: inner,
                    coef: 1,
                },
            ],
        }
    }

    /// Evaluates the rank coordinate for a full iteration-space point
    /// (`values[d]` is the value of dimension `d`).
    pub fn eval(&self, values: &[u64]) -> u64 {
        self.terms.iter().map(|t| t.coef * values[t.dim.0]).sum()
    }

    /// The extent of this rank when each contributing dimension `d` spans
    /// `0..bounds[d]`: `Σ coef*(bound-1) + 1`.
    pub fn extent(&self, bounds: &[u64]) -> u64 {
        self.terms
            .iter()
            .map(|t| t.coef * (bounds[t.dim.0] - 1))
            .sum::<u64>()
            + 1
    }

    /// Whether dimension `d` contributes to this rank.
    pub fn involves(&self, d: DimId) -> bool {
        self.terms.iter().any(|t| t.dim == d)
    }
}

/// A tensor participating in an Einsum: name, kind, and per-rank
/// projections from the iteration space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorSpec {
    /// Tensor name (e.g. `"A"`, `"Weights"`).
    pub name: String,
    /// Operand or result.
    pub kind: TensorKind,
    /// One projection per tensor rank, outermost rank first.
    pub ranks: Vec<RankProjection>,
}

impl TensorSpec {
    /// Whether iteration dimension `d` projects onto any rank of this
    /// tensor ("relevant" in Timeloop terminology).
    pub fn is_relevant(&self, d: DimId) -> bool {
        self.ranks.iter().any(|r| r.involves(d))
    }
}

/// A complete extended-Einsum workload: dimensions plus tensors.
///
/// # Example
/// ```
/// use sparseloop_tensor::einsum::{Einsum, TensorKind};
/// let e = Einsum::matmul(4, 8, 16);
/// assert_eq!(e.dims().len(), 3);
/// let z = e.tensor_id("Z").unwrap();
/// assert_eq!(e.tensor(z).kind, TensorKind::Output);
/// assert_eq!(e.tensor_shape(z), vec![4, 8]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Einsum {
    name: String,
    dims: Vec<Dim>,
    tensors: Vec<TensorSpec>,
}

impl Einsum {
    /// Builds a workload from raw parts.
    ///
    /// # Panics
    /// Panics if any dimension bound is zero, any projection references a
    /// missing dimension, or tensor names collide.
    pub fn new(name: impl Into<String>, dims: Vec<Dim>, tensors: Vec<TensorSpec>) -> Self {
        assert!(
            dims.iter().all(|d| d.bound > 0),
            "dimension bounds must be positive"
        );
        for t in &tensors {
            for r in &t.ranks {
                for term in &r.terms {
                    assert!(term.dim.0 < dims.len(), "projection references unknown dim");
                    assert!(term.coef > 0, "projection coefficients must be positive");
                }
            }
        }
        let mut names: Vec<&str> = tensors.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), tensors.len(), "tensor names must be unique");
        Einsum {
            name: name.into(),
            dims,
            tensors,
        }
    }

    /// Workload name (e.g. `"matmul"` or a DNN layer name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All iteration dimensions, indexable by [`DimId`].
    pub fn dims(&self) -> &[Dim] {
        &self.dims
    }

    /// All tensors, indexable by [`TensorId`].
    pub fn tensors(&self) -> &[TensorSpec] {
        &self.tensors
    }

    /// The tensor with the given id.
    pub fn tensor(&self, id: TensorId) -> &TensorSpec {
        &self.tensors[id.0]
    }

    /// Looks a tensor up by name.
    pub fn tensor_id(&self, name: &str) -> Option<TensorId> {
        self.tensors
            .iter()
            .position(|t| t.name == name)
            .map(TensorId)
    }

    /// Looks a dimension up by name.
    pub fn dim_id(&self, name: &str) -> Option<DimId> {
        self.dims.iter().position(|d| d.name == name).map(DimId)
    }

    /// The bound of dimension `d`.
    pub fn bound(&self, d: DimId) -> u64 {
        self.dims[d.0].bound
    }

    /// Bounds of all dimensions in id order.
    pub fn bounds(&self) -> Vec<u64> {
        self.dims.iter().map(|d| d.bound).collect()
    }

    /// Total number of scalar compute operations (product of all bounds).
    pub fn num_computes(&self) -> u64 {
        self.dims.iter().map(|d| d.bound).product()
    }

    /// Ids of all output tensors.
    pub fn outputs(&self) -> Vec<TensorId> {
        self.tensors
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TensorKind::Output)
            .map(|(i, _)| TensorId(i))
            .collect()
    }

    /// Ids of all input tensors.
    pub fn inputs(&self) -> Vec<TensorId> {
        self.tensors
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TensorKind::Input)
            .map(|(i, _)| TensorId(i))
            .collect()
    }

    /// Full (untiled) shape of tensor `t` under this workload's bounds.
    pub fn tensor_shape(&self, t: TensorId) -> Vec<u64> {
        let bounds = self.bounds();
        self.tensors[t.0]
            .ranks
            .iter()
            .map(|r| r.extent(&bounds))
            .collect()
    }

    /// Shape of tensor `t`'s tile when each dimension `d` spans
    /// `0..tile_bounds[d]` (the footprint of a loop-nest region).
    pub fn tensor_tile_shape(&self, t: TensorId, tile_bounds: &[u64]) -> Vec<u64> {
        assert_eq!(
            tile_bounds.len(),
            self.dims.len(),
            "tile bound count mismatch"
        );
        self.tensors[t.0]
            .ranks
            .iter()
            .map(|r| r.extent(tile_bounds))
            .collect()
    }

    /// [`tensor_tile_shape`](Einsum::tensor_tile_shape) written into a
    /// caller-owned buffer (cleared first) — the evaluation hot path
    /// queries tile shapes per candidate and must not allocate per call.
    pub fn tensor_tile_shape_into(&self, t: TensorId, tile_bounds: &[u64], out: &mut Vec<u64>) {
        assert_eq!(
            tile_bounds.len(),
            self.dims.len(),
            "tile bound count mismatch"
        );
        out.clear();
        out.extend(
            self.tensors[t.0]
                .ranks
                .iter()
                .map(|r| r.extent(tile_bounds)),
        );
    }

    /// Dense footprint (number of coordinates) of tensor `t`'s tile for the
    /// given per-dimension tile bounds.
    pub fn tensor_tile_size(&self, t: TensorId, tile_bounds: &[u64]) -> u64 {
        assert_eq!(
            tile_bounds.len(),
            self.dims.len(),
            "tile bound count mismatch"
        );
        self.tensors[t.0]
            .ranks
            .iter()
            .map(|r| r.extent(tile_bounds))
            .product()
    }

    /// Projects a full iteration-space point onto tensor `t`'s coordinates.
    pub fn project(&self, t: TensorId, values: &[u64]) -> Point {
        Point::new(
            self.tensors[t.0]
                .ranks
                .iter()
                .map(|r| r.eval(values))
                .collect(),
        )
    }

    /// Dimensions that do *not* project onto tensor `t` (its reuse
    /// dimensions; for outputs these are the reduction dimensions).
    pub fn irrelevant_dims(&self, t: TensorId) -> Vec<DimId> {
        (0..self.dims.len())
            .map(DimId)
            .filter(|&d| !self.tensors[t.0].is_relevant(d))
            .collect()
    }

    // ---- Canonical kernels -------------------------------------------------

    /// Matrix multiplication `Z[m,n] = Σ_k A[m,k]·B[k,n]`.
    ///
    /// Dimension order is `m, n, k`; tensors are `A` (inputs), `B`
    /// (inputs), `Z` (output).
    pub fn matmul(m: u64, n: u64, k: u64) -> Self {
        let (dm, dn, dk) = (DimId(0), DimId(1), DimId(2));
        Einsum::new(
            "matmul",
            vec![
                Dim {
                    name: "m".into(),
                    bound: m,
                },
                Dim {
                    name: "n".into(),
                    bound: n,
                },
                Dim {
                    name: "k".into(),
                    bound: k,
                },
            ],
            vec![
                TensorSpec {
                    name: "A".into(),
                    kind: TensorKind::Input,
                    ranks: vec![RankProjection::simple(dm), RankProjection::simple(dk)],
                },
                TensorSpec {
                    name: "B".into(),
                    kind: TensorKind::Input,
                    ranks: vec![RankProjection::simple(dk), RankProjection::simple(dn)],
                },
                TensorSpec {
                    name: "Z".into(),
                    kind: TensorKind::Output,
                    ranks: vec![RankProjection::simple(dm), RankProjection::simple(dn)],
                },
            ],
        )
    }

    /// 2D convolution in Timeloop's 7D form:
    /// `O[n,m,p,q] = Σ_{c,r,s} W[m,c,r,s] · I[n,c,p·stride+r,q·stride+s]`.
    ///
    /// Dimension order is `n, m, c, p, q, r, s`. Tensors are `Weights`,
    /// `Inputs`, `Outputs`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(n: u64, m: u64, c: u64, p: u64, q: u64, r: u64, s: u64, stride: u64) -> Self {
        let (dn, dm, dc, dp, dq, dr, ds) = (
            DimId(0),
            DimId(1),
            DimId(2),
            DimId(3),
            DimId(4),
            DimId(5),
            DimId(6),
        );
        Einsum::new(
            "conv2d",
            vec![
                Dim {
                    name: "n".into(),
                    bound: n,
                },
                Dim {
                    name: "m".into(),
                    bound: m,
                },
                Dim {
                    name: "c".into(),
                    bound: c,
                },
                Dim {
                    name: "p".into(),
                    bound: p,
                },
                Dim {
                    name: "q".into(),
                    bound: q,
                },
                Dim {
                    name: "r".into(),
                    bound: r,
                },
                Dim {
                    name: "s".into(),
                    bound: s,
                },
            ],
            vec![
                TensorSpec {
                    name: "Weights".into(),
                    kind: TensorKind::Input,
                    ranks: vec![
                        RankProjection::simple(dm),
                        RankProjection::simple(dc),
                        RankProjection::simple(dr),
                        RankProjection::simple(ds),
                    ],
                },
                TensorSpec {
                    name: "Inputs".into(),
                    kind: TensorKind::Input,
                    ranks: vec![
                        RankProjection::simple(dn),
                        RankProjection::simple(dc),
                        RankProjection::strided(dp, stride, dr),
                        RankProjection::strided(dq, stride, ds),
                    ],
                },
                TensorSpec {
                    name: "Outputs".into(),
                    kind: TensorKind::Output,
                    ranks: vec![
                        RankProjection::simple(dn),
                        RankProjection::simple(dm),
                        RankProjection::simple(dp),
                        RankProjection::simple(dq),
                    ],
                },
            ],
        )
    }

    /// Depthwise 2D convolution (one filter per channel, no `m`):
    /// `O[n,c,p,q] = Σ_{r,s} W[c,r,s] · I[n,c,p+r,q+s]`.
    pub fn depthwise_conv2d(n: u64, c: u64, p: u64, q: u64, r: u64, s: u64, stride: u64) -> Self {
        let (dn, dc, dp, dq, dr, ds) = (DimId(0), DimId(1), DimId(2), DimId(3), DimId(4), DimId(5));
        Einsum::new(
            "depthwise_conv2d",
            vec![
                Dim {
                    name: "n".into(),
                    bound: n,
                },
                Dim {
                    name: "c".into(),
                    bound: c,
                },
                Dim {
                    name: "p".into(),
                    bound: p,
                },
                Dim {
                    name: "q".into(),
                    bound: q,
                },
                Dim {
                    name: "r".into(),
                    bound: r,
                },
                Dim {
                    name: "s".into(),
                    bound: s,
                },
            ],
            vec![
                TensorSpec {
                    name: "Weights".into(),
                    kind: TensorKind::Input,
                    ranks: vec![
                        RankProjection::simple(dc),
                        RankProjection::simple(dr),
                        RankProjection::simple(ds),
                    ],
                },
                TensorSpec {
                    name: "Inputs".into(),
                    kind: TensorKind::Input,
                    ranks: vec![
                        RankProjection::simple(dn),
                        RankProjection::simple(dc),
                        RankProjection::strided(dp, stride, dr),
                        RankProjection::strided(dq, stride, ds),
                    ],
                },
                TensorSpec {
                    name: "Outputs".into(),
                    kind: TensorKind::Output,
                    ranks: vec![
                        RankProjection::simple(dn),
                        RankProjection::simple(dc),
                        RankProjection::simple(dp),
                        RankProjection::simple(dq),
                    ],
                },
            ],
        )
    }

    /// The dot product of two length-`k` vectors (the Fig. 3 walkthrough
    /// workload): `z = Σ_k a[k]·b[k]`.
    pub fn dot_product(k: u64) -> Self {
        let dk = DimId(0);
        Einsum::new(
            "dot_product",
            vec![Dim {
                name: "k".into(),
                bound: k,
            }],
            vec![
                TensorSpec {
                    name: "A".into(),
                    kind: TensorKind::Input,
                    ranks: vec![RankProjection::simple(dk)],
                },
                TensorSpec {
                    name: "B".into(),
                    kind: TensorKind::Input,
                    ranks: vec![RankProjection::simple(dk)],
                },
                TensorSpec {
                    name: "Z".into(),
                    kind: TensorKind::Output,
                    ranks: vec![],
                },
            ],
        )
    }

    /// Renames the workload (builder-style), keeping everything else.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Returns a copy of this workload with new dimension bounds
    /// (projections unchanged). Used to scale workloads down for
    /// actual-data validation runs.
    ///
    /// # Panics
    /// Panics if `bounds.len()` differs from the dimension count or any
    /// bound is zero.
    pub fn with_bounds(&self, bounds: &[u64]) -> Self {
        assert_eq!(bounds.len(), self.dims.len(), "bound count mismatch");
        assert!(bounds.iter().all(|&b| b > 0), "bounds must be positive");
        let mut e = self.clone();
        for (d, &b) in e.dims.iter_mut().zip(bounds) {
            d.bound = b;
        }
        e
    }
}

impl fmt::Display for Einsum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}={}", d.name, d.bound)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_shapes() {
        let e = Einsum::matmul(4, 8, 16);
        let a = e.tensor_id("A").unwrap();
        let b = e.tensor_id("B").unwrap();
        let z = e.tensor_id("Z").unwrap();
        assert_eq!(e.tensor_shape(a), vec![4, 16]);
        assert_eq!(e.tensor_shape(b), vec![16, 8]);
        assert_eq!(e.tensor_shape(z), vec![4, 8]);
        assert_eq!(e.num_computes(), 4 * 8 * 16);
    }

    #[test]
    fn matmul_relevance() {
        let e = Einsum::matmul(4, 8, 16);
        let a = e.tensor_id("A").unwrap();
        let n = e.dim_id("n").unwrap();
        assert_eq!(e.irrelevant_dims(a), vec![n]);
        let z = e.tensor_id("Z").unwrap();
        let k = e.dim_id("k").unwrap();
        assert_eq!(e.irrelevant_dims(z), vec![k]);
    }

    #[test]
    fn conv_input_halo() {
        // 3x3 filter over 4x4 output, stride 1 -> 6x6 input patch.
        let e = Einsum::conv2d(1, 2, 3, 4, 4, 3, 3, 1);
        let i = e.tensor_id("Inputs").unwrap();
        assert_eq!(e.tensor_shape(i), vec![1, 3, 6, 6]);
        let w = e.tensor_id("Weights").unwrap();
        assert_eq!(e.tensor_shape(w), vec![2, 3, 3, 3]);
    }

    #[test]
    fn conv_strided_projection() {
        let e = Einsum::conv2d(1, 1, 1, 4, 4, 3, 3, 2);
        let i = e.tensor_id("Inputs").unwrap();
        // h extent = 2*(4-1) + (3-1) + 1 = 9
        assert_eq!(e.tensor_shape(i)[2], 9);
    }

    #[test]
    fn projection_eval() {
        let e = Einsum::conv2d(1, 1, 1, 4, 4, 3, 3, 1);
        let i = e.tensor_id("Inputs").unwrap();
        // point: n=0, m=0, c=0, p=2, q=1, r=1, s=2 -> I[0, 0, 3, 3]
        let p = e.project(i, &[0, 0, 0, 2, 1, 1, 2]);
        assert_eq!(p.coords(), &[0, 0, 3, 3]);
    }

    #[test]
    fn tile_shape_composes() {
        let e = Einsum::matmul(16, 16, 64);
        let a = e.tensor_id("A").unwrap();
        // tile bounds m=4, n=2, k=8 -> A tile is 4x8 = 32 points
        assert_eq!(e.tensor_tile_size(a, &[4, 2, 8]), 32);
    }

    #[test]
    fn dot_product_scalar_output() {
        let e = Einsum::dot_product(6);
        let z = e.tensor_id("Z").unwrap();
        assert_eq!(e.tensor_shape(z), Vec::<u64>::new());
        assert_eq!(e.tensor_tile_size(z, &[3]), 1);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_tensor_names_rejected() {
        let d = DimId(0);
        Einsum::new(
            "bad",
            vec![Dim {
                name: "k".into(),
                bound: 2,
            }],
            vec![
                TensorSpec {
                    name: "A".into(),
                    kind: TensorKind::Input,
                    ranks: vec![RankProjection::simple(d)],
                },
                TensorSpec {
                    name: "A".into(),
                    kind: TensorKind::Input,
                    ranks: vec![RankProjection::simple(d)],
                },
            ],
        );
    }

    #[test]
    fn inputs_outputs_partition() {
        let e = Einsum::matmul(2, 2, 2);
        assert_eq!(e.inputs().len(), 2);
        assert_eq!(e.outputs().len(), 1);
    }

    #[test]
    fn display_is_informative() {
        let e = Einsum::matmul(2, 3, 4);
        assert_eq!(e.to_string(), "matmul(m=2,n=3,k=4)");
    }
}
