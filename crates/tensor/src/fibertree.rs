//! Fibertree representation of sparse tensors (Sparseloop §5.3.1, Fig 7b).
//!
//! A fibertree describes a tensor one *rank* at a time. Each level of the
//! tree holds one or more *fibers*; a fiber is an ordered list of
//! `(coordinate, payload)` pairs where the payload is either a fiber of the
//! next-lower rank or, at the lowest rank, a scalar value. Coordinates with
//! all-zero payloads are omitted, so the tree structure itself captures the
//! tensor's sparsity pattern independent of any storage format — which is
//! exactly why Sparseloop uses it as the format-agnostic tensor description
//! feeding both the format analyzer and the gating/skipping analyzer.

use crate::point::Point;
use crate::sparse::SparseTensor;

/// Payload of a fiber element: either a sub-fiber or a leaf value.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// An intermediate rank's payload: a fiber of the next-lower rank.
    Fiber(Fiber),
    /// The lowest rank's payload: a nonzero data value.
    Value(f64),
}

/// One fiber: the non-empty coordinates of a single row/column/... at some
/// rank, with their payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Fiber {
    /// The dense extent of this fiber (how many coordinates it *could*
    /// hold). Needed by format models (e.g. bitmask length).
    pub shape: u64,
    /// Sorted `(coordinate, payload)` pairs; empty coordinates omitted.
    pub entries: Vec<(u64, Payload)>,
}

impl Fiber {
    /// An empty fiber of the given dense extent.
    pub fn empty(shape: u64) -> Self {
        Fiber {
            shape,
            entries: Vec::new(),
        }
    }

    /// Number of non-empty coordinates in this fiber.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Occupancy divided by dense extent.
    pub fn density(&self) -> f64 {
        if self.shape == 0 {
            0.0
        } else {
            self.entries.len() as f64 / self.shape as f64
        }
    }

    /// Whether this fiber holds no nonzeros.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the payload at `coord`, if non-empty.
    pub fn payload(&self, coord: u64) -> Option<&Payload> {
        self.entries
            .binary_search_by_key(&coord, |(c, _)| *c)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Total number of leaf values beneath this fiber.
    pub fn leaf_count(&self) -> u64 {
        self.entries
            .iter()
            .map(|(_, p)| match p {
                Payload::Fiber(f) => f.leaf_count(),
                Payload::Value(_) => 1,
            })
            .sum()
    }
}

/// A complete fibertree: named ranks (outermost first) over a root fiber.
///
/// # Example
/// ```
/// use sparseloop_tensor::{SparseTensor, FiberTree};
/// use sparseloop_tensor::point::Shape;
///
/// // 2x4 matrix with nonzeros at (0,1), (0,3), (1,0)
/// let t = SparseTensor::from_triplets(
///     Shape::new(vec![2, 4]),
///     &[(vec![0, 1], 1.0), (vec![0, 3], 2.0), (vec![1, 0], 3.0)],
/// );
/// let ft = FiberTree::from_tensor(&t, &["M", "K"]);
/// assert_eq!(ft.nnz(), 3);
/// assert_eq!(ft.fibers_at_rank(1).len(), 2); // two non-empty rows
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FiberTree {
    rank_names: Vec<String>,
    root: Fiber,
}

impl FiberTree {
    /// Builds a fibertree from a concrete sparse tensor. Rank order follows
    /// the tensor's rank order; `rank_names` labels them outermost-first.
    ///
    /// # Panics
    /// Panics if `rank_names.len()` differs from the tensor rank, or the
    /// tensor has rank 0.
    pub fn from_tensor(t: &SparseTensor, rank_names: &[&str]) -> Self {
        assert_eq!(
            rank_names.len(),
            t.shape().rank(),
            "rank name count mismatch"
        );
        assert!(t.shape().rank() > 0, "fibertree requires rank >= 1");
        let mut triplets: Vec<(Point, f64)> = t.iter().collect();
        triplets.sort_by(|a, b| a.0.cmp(&b.0));
        let extents = t.shape().extents().to_vec();
        let root = build_fiber(&triplets, 0, &extents);
        FiberTree {
            rank_names: rank_names.iter().map(|s| s.to_string()).collect(),
            root,
        }
    }

    /// Rank names, outermost first.
    pub fn rank_names(&self) -> &[String] {
        &self.rank_names
    }

    /// Number of ranks.
    pub fn rank(&self) -> usize {
        self.rank_names.len()
    }

    /// The root (outermost-rank) fiber.
    pub fn root(&self) -> &Fiber {
        &self.root
    }

    /// Total number of nonzero leaves.
    pub fn nnz(&self) -> u64 {
        self.root.leaf_count()
    }

    /// All *non-empty* fibers at tree depth `r` (0 = the root fiber's own
    /// rank). Fibers whose coordinate was omitted higher up do not appear —
    /// that omission is precisely the sparsity information.
    pub fn fibers_at_rank(&self, r: usize) -> Vec<&Fiber> {
        assert!(r < self.rank(), "rank out of bounds");
        let mut out = Vec::new();
        collect_fibers(&self.root, 0, r, &mut out);
        out
    }

    /// The number of fibers (including empty ones) that rank `r` *would*
    /// contain in a dense tensor: the product of extents of ranks above it.
    pub fn dense_fiber_count(&self, r: usize, extents: &[u64]) -> u64 {
        assert!(r < self.rank());
        extents[..r].iter().product::<u64>().max(1)
    }
}

fn build_fiber(triplets: &[(Point, f64)], depth: usize, extents: &[u64]) -> Fiber {
    let mut fiber = Fiber::empty(extents[depth]);
    let mut i = 0;
    while i < triplets.len() {
        let coord = triplets[i].0.coord(depth);
        let mut j = i;
        while j < triplets.len() && triplets[j].0.coord(depth) == coord {
            j += 1;
        }
        let payload = if depth + 1 == extents.len() {
            debug_assert_eq!(j - i, 1, "duplicate point in sparse tensor");
            Payload::Value(triplets[i].1)
        } else {
            Payload::Fiber(build_fiber(&triplets[i..j], depth + 1, extents))
        };
        fiber.entries.push((coord, payload));
        i = j;
    }
    fiber
}

fn collect_fibers<'a>(f: &'a Fiber, depth: usize, target: usize, out: &mut Vec<&'a Fiber>) {
    if depth == target {
        out.push(f);
        return;
    }
    for (_, p) in &f.entries {
        if let Payload::Fiber(sub) = p {
            collect_fibers(sub, depth + 1, target, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Shape;

    fn example_tensor() -> SparseTensor {
        // Fig 7b-like 4x4 tensor: rows 0,1,3 non-empty; row 2 all-zero.
        SparseTensor::from_triplets(
            Shape::new(vec![4, 4]),
            &[
                (vec![0, 0], 1.0),
                (vec![0, 2], 2.0),
                (vec![1, 1], 3.0),
                (vec![3, 0], 4.0),
                (vec![3, 3], 5.0),
            ],
        )
    }

    #[test]
    fn tree_omits_empty_rows() {
        let ft = FiberTree::from_tensor(&example_tensor(), &["M", "K"]);
        assert_eq!(ft.nnz(), 5);
        // root fiber has 3 entries (rows 0, 1, 3)
        assert_eq!(ft.root().occupancy(), 3);
        assert!(ft.root().payload(2).is_none());
        assert_eq!(ft.fibers_at_rank(1).len(), 3);
    }

    #[test]
    fn fiber_densities() {
        let ft = FiberTree::from_tensor(&example_tensor(), &["M", "K"]);
        let rows = ft.fibers_at_rank(1);
        let densities: Vec<f64> = rows.iter().map(|f| f.density()).collect();
        assert_eq!(densities, vec![0.5, 0.25, 0.5]);
        assert!((ft.root().density() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn payload_lookup() {
        let ft = FiberTree::from_tensor(&example_tensor(), &["M", "K"]);
        match ft.root().payload(0) {
            Some(Payload::Fiber(row)) => match row.payload(2) {
                Some(Payload::Value(v)) => assert_eq!(*v, 2.0),
                other => panic!("expected value, got {other:?}"),
            },
            other => panic!("expected fiber, got {other:?}"),
        }
    }

    #[test]
    fn leaf_count_matches_nnz() {
        let t = example_tensor();
        let ft = FiberTree::from_tensor(&t, &["M", "K"]);
        assert_eq!(ft.nnz(), t.nnz());
    }

    #[test]
    fn one_dimensional_tree() {
        let t = SparseTensor::from_triplets(Shape::new(vec![8]), &[(vec![1], 1.0), (vec![5], 2.0)]);
        let ft = FiberTree::from_tensor(&t, &["K"]);
        assert_eq!(ft.rank(), 1);
        assert_eq!(ft.root().occupancy(), 2);
        assert_eq!(ft.root().shape, 8);
    }

    #[test]
    fn empty_tensor_tree() {
        let t = SparseTensor::from_triplets(Shape::new(vec![4, 4]), &[]);
        let ft = FiberTree::from_tensor(&t, &["M", "K"]);
        assert_eq!(ft.nnz(), 0);
        assert!(ft.root().is_empty());
        assert_eq!(ft.fibers_at_rank(1).len(), 0);
    }

    #[test]
    fn dense_fiber_count_uses_upper_ranks() {
        let ft = FiberTree::from_tensor(&example_tensor(), &["M", "K"]);
        assert_eq!(ft.dense_fiber_count(0, &[4, 4]), 1);
        assert_eq!(ft.dense_fiber_count(1, &[4, 4]), 4);
    }
}
