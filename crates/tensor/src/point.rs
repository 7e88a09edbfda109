//! Multi-dimensional coordinates and shapes.
//!
//! A [`Point`] is a concrete location in a tensor's coordinate space; a
//! [`Shape`] bounds that space. Both are thin wrappers over `Vec<u64>` that
//! keep rank-count invariants explicit at API boundaries.

use std::fmt;

/// A single coordinate value along one rank.
pub type Coord = u64;

/// The extent of a tensor along each of its ranks.
///
/// # Example
/// ```
/// use sparseloop_tensor::point::Shape;
/// let s = Shape::new(vec![4, 8]);
/// assert_eq!(s.volume(), 32);
/// assert_eq!(s.rank(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<u64>);

impl Shape {
    /// Creates a shape from per-rank extents.
    ///
    /// # Panics
    /// Panics if any extent is zero; a tensor with a zero extent has no
    /// coordinate space and is almost always a caller bug.
    pub fn new(extents: Vec<u64>) -> Self {
        assert!(
            extents.iter().all(|&e| e > 0),
            "shape extents must be positive, got {extents:?}"
        );
        Shape(extents)
    }

    /// The number of ranks (dimensions).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// The extent along rank `r`.
    ///
    /// # Panics
    /// Panics if `r >= self.rank()`.
    pub fn extent(&self, r: usize) -> u64 {
        self.0[r]
    }

    /// All extents as a slice.
    pub fn extents(&self) -> &[u64] {
        &self.0
    }

    /// Total number of coordinates in the space (product of extents).
    pub fn volume(&self) -> u64 {
        self.0.iter().product()
    }

    /// Whether `p` lies inside this shape.
    pub fn contains(&self, p: &Point) -> bool {
        p.rank() == self.rank() && p.coords().iter().zip(&self.0).all(|(&c, &e)| c < e)
    }

    /// Linearizes a point into a row-major flat index.
    ///
    /// # Panics
    /// Panics if the point is outside the shape.
    pub fn linearize(&self, p: &Point) -> u64 {
        assert!(self.contains(p), "point {p:?} outside shape {self:?}");
        let mut idx = 0u64;
        for (c, e) in p.coords().iter().zip(&self.0) {
            idx = idx * e + c;
        }
        idx
    }

    /// Inverse of [`Shape::linearize`].
    pub fn delinearize(&self, mut idx: u64) -> Point {
        let mut coords = vec![0u64; self.rank()];
        for r in (0..self.rank()).rev() {
            coords[r] = idx % self.0[r];
            idx /= self.0[r];
        }
        Point::new(coords)
    }

    /// Number of tiles of `tile` shape needed to cover this shape
    /// (ceiling division per rank).
    ///
    /// # Panics
    /// Panics if rank counts differ or any tile extent is zero.
    pub fn tiles_to_cover(&self, tile: &[u64]) -> u64 {
        assert_eq!(tile.len(), self.rank(), "tile rank mismatch");
        assert!(tile.iter().all(|&t| t > 0), "tile extents must be positive");
        self.0
            .iter()
            .zip(tile)
            .map(|(&e, &t)| e.div_ceil(t))
            .product()
    }
}

impl From<Vec<u64>> for Shape {
    fn from(v: Vec<u64>) -> Self {
        Shape::new(v)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

/// A concrete coordinate in a tensor's space.
///
/// # Example
/// ```
/// use sparseloop_tensor::point::{Point, Shape};
/// let s = Shape::new(vec![4, 8]);
/// let p = Point::new(vec![1, 3]);
/// assert_eq!(s.linearize(&p), 11);
/// assert_eq!(s.delinearize(11), p);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point(Vec<Coord>);

impl Point {
    /// Creates a point from per-rank coordinates.
    pub fn new(coords: Vec<Coord>) -> Self {
        Point(coords)
    }

    /// Number of ranks.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Coordinate along rank `r`.
    ///
    /// # Panics
    /// Panics if `r >= self.rank()`.
    pub fn coord(&self, r: usize) -> Coord {
        self.0[r]
    }

    /// All coordinates as a slice.
    pub fn coords(&self) -> &[Coord] {
        &self.0
    }

    /// The tile index of this point under a tiling of `tile` extents
    /// (element-wise integer division).
    pub fn tile_index(&self, tile: &[u64]) -> Point {
        assert_eq!(tile.len(), self.rank(), "tile rank mismatch");
        Point(self.0.iter().zip(tile).map(|(&c, &t)| c / t).collect())
    }
}

impl From<Vec<u64>> for Point {
    fn from(v: Vec<u64>) -> Self {
        Point::new(v)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_volume_and_rank() {
        let s = Shape::new(vec![3, 5, 7]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.volume(), 105);
        assert_eq!(s.extent(1), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn shape_rejects_zero_extent() {
        Shape::new(vec![3, 0]);
    }

    #[test]
    fn linearize_roundtrip() {
        let s = Shape::new(vec![4, 6, 2]);
        for idx in 0..s.volume() {
            let p = s.delinearize(idx);
            assert!(s.contains(&p));
            assert_eq!(s.linearize(&p), idx);
        }
    }

    #[test]
    fn contains_rejects_out_of_bounds() {
        let s = Shape::new(vec![4, 4]);
        assert!(!s.contains(&Point::new(vec![4, 0])));
        assert!(!s.contains(&Point::new(vec![0, 0, 0])));
        assert!(s.contains(&Point::new(vec![3, 3])));
    }

    #[test]
    fn tiles_to_cover_rounds_up() {
        let s = Shape::new(vec![5, 8]);
        assert_eq!(s.tiles_to_cover(&[2, 4]), 3 * 2);
        assert_eq!(s.tiles_to_cover(&[5, 8]), 1);
        assert_eq!(s.tiles_to_cover(&[1, 1]), 40);
    }

    #[test]
    fn tile_index_divides() {
        let p = Point::new(vec![5, 7]);
        assert_eq!(p.tile_index(&[2, 4]), Point::new(vec![2, 1]));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "[2x3]");
        assert_eq!(Point::new(vec![2, 3]).to_string(), "(2,3)");
    }
}
