//! Concrete sparse tensors with actual nonzero data.
//!
//! [`SparseTensor`] stores nonzeros as a sorted list of linearized indices,
//! giving O(log n) membership queries — the hot operation in the
//! actual-data density model and in the reference simulator's operational
//! intersections. Generators construct tensors matching each statistical
//! density model in the paper (Table 4): uniform random, fixed-structured
//! n:m, and banded.

use crate::point::{Point, Shape};
use std::collections::HashMap;

/// A sparse tensor holding its actual nonzero values.
///
/// # Example
/// ```
/// use sparseloop_tensor::SparseTensor;
/// use sparseloop_tensor::point::Shape;
///
/// let t = SparseTensor::from_triplets(
///     Shape::new(vec![2, 2]),
///     &[(vec![0, 1], 5.0)],
/// );
/// use sparseloop_tensor::Point;
/// assert_eq!(t.nnz(), 1);
/// assert_eq!(t.get(&Point::new(vec![0, 1])), Some(5.0));
/// assert_eq!(t.get(&Point::new(vec![1, 1])), None);
/// assert!((t.density() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensor {
    shape: Shape,
    /// Sorted linearized indices of nonzeros.
    indices: Vec<u64>,
    /// Values aligned with `indices`.
    values: Vec<f64>,
}

impl SparseTensor {
    /// Builds a tensor from `(coords, value)` triplets. Duplicate
    /// coordinates keep the last value; explicit zeros are dropped.
    ///
    /// # Panics
    /// Panics if any point lies outside `shape`.
    pub fn from_triplets(shape: Shape, triplets: &[(Vec<u64>, f64)]) -> Self {
        let mut map: HashMap<u64, f64> = HashMap::with_capacity(triplets.len());
        for (coords, v) in triplets {
            let p = Point::new(coords.clone());
            let idx = shape.linearize(&p);
            if *v != 0.0 {
                map.insert(idx, *v);
            } else {
                map.remove(&idx);
            }
        }
        let mut pairs: Vec<(u64, f64)> = map.into_iter().collect();
        pairs.sort_unstable_by_key(|(i, _)| *i);
        let (indices, values) = pairs.into_iter().unzip();
        SparseTensor {
            shape,
            indices,
            values,
        }
    }

    /// Builds a tensor from already-sorted unique linear indices with unit
    /// values. Used by generators.
    fn from_sorted_indices(shape: Shape, indices: Vec<u64>) -> Self {
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be sorted unique"
        );
        let values = vec![1.0; indices.len()];
        SparseTensor {
            shape,
            indices,
            values,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of nonzeros.
    pub fn nnz(&self) -> u64 {
        self.indices.len() as u64
    }

    /// Fraction of coordinates that are nonzero.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / self.shape.volume() as f64
    }

    /// The value at `p`, or `None` if zero/absent.
    pub fn get(&self, p: &Point) -> Option<f64> {
        if !self.shape.contains(p) {
            return None;
        }
        let idx = self.shape.linearize(p);
        self.indices
            .binary_search(&idx)
            .ok()
            .map(|i| self.values[i])
    }

    /// Whether the value at `p` is nonzero.
    pub fn is_nonzero(&self, p: &Point) -> bool {
        self.get(p).is_some()
    }

    /// Iterates `(point, value)` over nonzeros in linearized order.
    pub fn iter(&self) -> impl Iterator<Item = (Point, f64)> + '_ {
        self.indices
            .iter()
            .zip(&self.values)
            .map(move |(&i, &v)| (self.shape.delinearize(i), v))
    }

    /// Number of nonzeros inside the axis-aligned window starting at
    /// `origin` with extents `window` (clamped to the tensor bounds).
    pub fn window_nnz(&self, origin: &[u64], window: &[u64]) -> u64 {
        assert_eq!(origin.len(), self.shape.rank());
        assert_eq!(window.len(), self.shape.rank());
        self.iter()
            .filter(|(p, _)| {
                p.coords()
                    .iter()
                    .zip(origin.iter().zip(window))
                    .all(|(&c, (&o, &w))| c >= o && c < o + w)
            })
            .count() as u64
    }

    /// Histogram of per-tile occupancy under a grid tiling of `tile`
    /// extents: returns `(occupancy, tile_count)` pairs sorted by
    /// occupancy, *including* the all-zero tiles at occupancy 0.
    ///
    /// This is the exact statistic the actual-data density model feeds to
    /// the SAF analyzers.
    pub fn tile_occupancy_histogram(&self, tile: &[u64]) -> Vec<(u64, u64)> {
        assert_eq!(tile.len(), self.shape.rank(), "tile rank mismatch");
        let grid: Vec<u64> = self
            .shape
            .extents()
            .iter()
            .zip(tile)
            .map(|(&e, &t)| e.div_ceil(t))
            .collect();
        let grid_shape = Shape::new(grid.iter().map(|&g| g.max(1)).collect());
        let mut per_tile: HashMap<u64, u64> = HashMap::new();
        for (p, _) in self.iter() {
            let ti = grid_shape.linearize(&p.tile_index(tile));
            *per_tile.entry(ti).or_insert(0) += 1;
        }
        let total_tiles = grid_shape.volume();
        let nonempty = per_tile.len() as u64;
        let mut hist: HashMap<u64, u64> = HashMap::new();
        if total_tiles > nonempty {
            hist.insert(0, total_tiles - nonempty);
        }
        for occ in per_tile.into_values() {
            *hist.entry(occ).or_insert(0) += 1;
        }
        let mut out: Vec<(u64, u64)> = hist.into_iter().collect();
        out.sort_unstable_by_key(|(occ, _)| *occ);
        out
    }

    /// Fraction of tiles (under grid tiling) that contain no nonzeros.
    pub fn tile_empty_fraction(&self, tile: &[u64]) -> f64 {
        let hist = self.tile_occupancy_histogram(tile);
        let total: u64 = hist.iter().map(|(_, c)| c).sum();
        let empty = hist
            .iter()
            .find(|(occ, _)| *occ == 0)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        empty as f64 / total as f64
    }

    // ---- Generators (one per density model in Table 4) ---------------------

    /// Uniform random sparsity: exactly `round(volume * density)` nonzeros
    /// at distinct uniformly-chosen coordinates. This is the pattern the
    /// paper's `uniform` density model characterizes (randomly pruned DNNs,
    /// activation sparsity).
    pub fn gen_uniform(shape: Shape, density: f64, rng: &mut impl rand::Rng) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
        let volume = shape.volume();
        let target = ((volume as f64) * density).round() as u64;
        let indices = sample_distinct(volume, target, rng);
        SparseTensor::from_sorted_indices(shape, indices)
    }

    /// Fixed-structured n:m sparsity along rank `axis`: every aligned block
    /// of `m` coordinates along that rank holds exactly `n` nonzeros
    /// (random positions within the block). Models structurally pruned
    /// DNNs, e.g. NVIDIA STC 2:4 weights.
    ///
    /// # Panics
    /// Panics if `n > m`, `m == 0`, or the axis extent is not a multiple
    /// of `m`.
    pub fn gen_structured(
        shape: Shape,
        n: u64,
        m: u64,
        axis: usize,
        rng: &mut impl rand::Rng,
    ) -> Self {
        assert!(m > 0 && n <= m, "need 0 <= n <= m, m > 0");
        assert!(axis < shape.rank(), "axis out of bounds");
        assert_eq!(
            shape.extent(axis) % m,
            0,
            "axis extent must be a multiple of m"
        );
        let mut indices = Vec::new();
        // Iterate all coordinates of the other ranks times blocks on `axis`.
        let mut other: Vec<u64> = shape.extents().to_vec();
        other[axis] = shape.extent(axis) / m;
        let iter_shape = Shape::new(other);
        for flat in 0..iter_shape.volume() {
            let base = iter_shape.delinearize(flat);
            let picks = sample_distinct(m, n, rng);
            for pick in picks {
                let mut coords = base.coords().to_vec();
                coords[axis] = coords[axis] * m + pick;
                indices.push(shape.linearize(&Point::new(coords)));
            }
        }
        indices.sort_unstable();
        SparseTensor::from_sorted_indices(shape, indices)
    }

    /// Banded 2D sparsity: element `(i, j)` may be nonzero only if
    /// `|i - j| <= half_width`; inside the band, each element is nonzero
    /// with probability `fill`. Models SuiteSparse-like scientific
    /// matrices (coordinate-dependent sparsity).
    ///
    /// # Panics
    /// Panics if the shape is not 2D or `fill` is outside `[0, 1]`.
    pub fn gen_banded(shape: Shape, half_width: u64, fill: f64, rng: &mut impl rand::Rng) -> Self {
        assert_eq!(shape.rank(), 2, "banded generator requires a matrix");
        assert!((0.0..=1.0).contains(&fill), "fill must be in [0,1]");
        let (rows, cols) = (shape.extent(0), shape.extent(1));
        let mut indices = Vec::new();
        for i in 0..rows {
            let lo = i.saturating_sub(half_width);
            let hi = (i + half_width + 1).min(cols);
            for j in lo..hi {
                if fill >= 1.0 || rng.gen::<f64>() < fill {
                    indices.push(shape.linearize(&Point::new(vec![i, j])));
                }
            }
        }
        indices.sort_unstable();
        SparseTensor::from_sorted_indices(shape, indices)
    }

    /// A fully dense tensor of ones (density 1.0).
    pub fn dense_ones(shape: Shape) -> Self {
        let indices: Vec<u64> = (0..shape.volume()).collect();
        SparseTensor::from_sorted_indices(shape, indices)
    }
}

/// Reservoir-free distinct sampling of `k` values from `0..n` using a
/// partial Fisher-Yates over a sparse map. O(k) memory.
fn sample_distinct(n: u64, k: u64, rng: &mut impl rand::Rng) -> Vec<u64> {
    assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
    let mut swapped: HashMap<u64, u64> = HashMap::with_capacity(k as usize);
    let mut out = Vec::with_capacity(k as usize);
    for i in 0..k {
        let j = rng.gen_range(i..n);
        let vi = *swapped.get(&i).unwrap_or(&i);
        let vj = *swapped.get(&j).unwrap_or(&j);
        out.push(vj);
        swapped.insert(j, vi);
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn triplets_roundtrip() {
        let t = SparseTensor::from_triplets(
            Shape::new(vec![3, 3]),
            &[(vec![2, 1], 7.0), (vec![0, 0], 1.0)],
        );
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(&Point::new(vec![2, 1])), Some(7.0));
        assert!(!t.is_nonzero(&Point::new(vec![1, 1])));
    }

    #[test]
    fn explicit_zeros_dropped() {
        let t = SparseTensor::from_triplets(
            Shape::new(vec![2, 2]),
            &[(vec![0, 0], 1.0), (vec![0, 0], 0.0)],
        );
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn gen_uniform_exact_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = SparseTensor::gen_uniform(Shape::new(vec![32, 32]), 0.25, &mut rng);
        assert_eq!(t.nnz(), 256);
        assert!((t.density() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn gen_uniform_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        let z = SparseTensor::gen_uniform(Shape::new(vec![8, 8]), 0.0, &mut rng);
        assert_eq!(z.nnz(), 0);
        let d = SparseTensor::gen_uniform(Shape::new(vec![8, 8]), 1.0, &mut rng);
        assert_eq!(d.nnz(), 64);
    }

    #[test]
    fn gen_structured_is_exactly_n_per_block() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = SparseTensor::gen_structured(Shape::new(vec![4, 16]), 2, 4, 1, &mut rng);
        assert_eq!(t.nnz(), 4 * 16 / 4 * 2);
        // every aligned block of 4 along axis 1 has exactly 2 nonzeros
        for i in 0..4 {
            for b in 0..4 {
                assert_eq!(t.window_nnz(&[i, b * 4], &[1, 4]), 2);
            }
        }
    }

    #[test]
    fn gen_banded_respects_band() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = SparseTensor::gen_banded(Shape::new(vec![16, 16]), 2, 1.0, &mut rng);
        for (p, _) in t.iter() {
            let (i, j) = (p.coord(0) as i64, p.coord(1) as i64);
            assert!((i - j).abs() <= 2);
        }
        // full fill: band of half-width 2 on 16x16 has 16*5 - 2*(1+2) = 74
        assert_eq!(t.nnz(), 74);
    }

    #[test]
    fn tile_histogram_counts_empty_tiles() {
        // 4x4 tensor, nonzeros only in top-left 2x2 tile
        let t = SparseTensor::from_triplets(
            Shape::new(vec![4, 4]),
            &[(vec![0, 0], 1.0), (vec![1, 1], 1.0)],
        );
        let hist = t.tile_occupancy_histogram(&[2, 2]);
        assert_eq!(hist, vec![(0, 3), (2, 1)]);
        assert!((t.tile_empty_fraction(&[2, 2]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tile_histogram_total_is_grid_size() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = SparseTensor::gen_uniform(Shape::new(vec![12, 9]), 0.3, &mut rng);
        let hist = t.tile_occupancy_histogram(&[4, 3]);
        let tiles: u64 = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(tiles, 3 * 3);
        let nnz: u64 = hist.iter().map(|(occ, c)| occ * c).sum();
        assert_eq!(nnz, t.nnz());
    }

    #[test]
    fn window_nnz_counts() {
        let t = SparseTensor::from_triplets(
            Shape::new(vec![4, 4]),
            &[(vec![0, 0], 1.0), (vec![3, 3], 1.0), (vec![1, 2], 1.0)],
        );
        assert_eq!(t.window_nnz(&[0, 0], &[2, 4]), 2);
        assert_eq!(t.window_nnz(&[2, 2], &[2, 2]), 1);
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let v = sample_distinct(50, 20, &mut rng);
            assert_eq!(v.len(), 20);
            assert!(v.windows(2).all(|w| w[0] < w[1]));
            assert!(v.iter().all(|&x| x < 50));
        }
    }

    #[test]
    fn dense_ones_full() {
        let t = SparseTensor::dense_ones(Shape::new(vec![3, 5]));
        assert_eq!(t.nnz(), 15);
        assert!((t.density() - 1.0).abs() < 1e-12);
    }
}
