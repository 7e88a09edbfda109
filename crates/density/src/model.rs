//! The [`DensityModel`] trait and the declarative model specification.

use crate::key::DensityKey;
use std::fmt::Debug;
use std::sync::Arc;

/// Summary statistics of a tile's occupancy under a density model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyStats {
    /// Expected number of nonzeros in the tile.
    pub expected: f64,
    /// Probability that the tile contains no nonzeros at all.
    pub prob_empty: f64,
    /// Largest occupancy the model considers possible (worst case, used
    /// for conservative capacity checks).
    pub max: u64,
}

impl OccupancyStats {
    /// Expected occupancy *conditioned on the tile being non-empty*.
    /// Returns 0 when the tile is almost surely empty.
    pub fn expected_if_nonempty(&self) -> f64 {
        let p_nonempty = 1.0 - self.prob_empty;
        if p_nonempty <= f64::EPSILON {
            0.0
        } else {
            self.expected / p_nonempty
        }
    }
}

/// A statistical characterization of where a tensor's nonzeros fall.
///
/// Implementations answer occupancy questions for *tiles*: contiguous
/// coordinate-space sub-regions whose shape (per tensor rank) the caller
/// provides. Coordinate-independent models (uniform, structured) ignore
/// tile position; coordinate-dependent models (banded, actual-data)
/// aggregate over all tile positions in the tensor.
pub trait DensityModel: Debug + Send + Sync {
    /// Human-readable model name (e.g. `"uniform"`).
    fn name(&self) -> &str;

    /// The tensor's overall density in `[0, 1]`.
    fn density(&self) -> f64;

    /// The full tensor shape this model describes.
    fn tensor_shape(&self) -> &[u64];

    /// Occupancy summary statistics for a tile of the given per-rank
    /// shape.
    ///
    /// # Panics
    /// Implementations may panic if `tile_shape` has the wrong rank count
    /// or exceeds the tensor bounds.
    fn occupancy(&self, tile_shape: &[u64]) -> OccupancyStats;

    /// Full occupancy distribution for a tile of the given shape, as
    /// sorted `(occupancy, probability)` pairs summing to ~1.
    fn occupancy_distribution(&self, tile_shape: &[u64]) -> Vec<(u64, f64)>;

    /// Shared-ownership variant of
    /// [`occupancy_distribution`](DensityModel::occupancy_distribution).
    ///
    /// The default wraps a fresh computation; caching decorators
    /// ([`Memoized`](crate::Memoized)) override it so warm hits hand
    /// back the cached `Arc` instead of cloning the distribution `Vec`.
    /// Callers that query distributions repeatedly for the same shapes
    /// (or hold one for bucketing/statistics, like the Fig. 9 binary)
    /// should prefer this accessor.
    fn occupancy_distribution_arc(&self, tile_shape: &[u64]) -> Arc<Vec<(u64, f64)>> {
        Arc::new(self.occupancy_distribution(tile_shape))
    }

    /// A stable identity for cross-model result sharing, or `None` when
    /// results must stay private to this instance.
    ///
    /// Two models returning the same key MUST answer every occupancy
    /// query identically — the key therefore encodes the model kind, its
    /// parameters *and* the tensor shape. Statistical models (uniform,
    /// structured, banded) are pure functions of those and return keys;
    /// data-backed models ([`ActualData`](crate::ActualData)) return
    /// `None`. The batch evaluation session uses the key to intern one
    /// memoized model (and one format-analysis cache slot) per distinct
    /// statistic, sharing aggregates across workload layers.
    ///
    /// Keys are built per session `model()` call, so they are
    /// [`DensityKey`]s — pre-hashed packed words rather than formatted
    /// strings — keeping the session's intern probes off the allocator
    /// and away from long-string rehashing (the hot spot at large batch
    /// counts).
    fn cache_key(&self) -> Option<DensityKey> {
        None
    }
}

/// Convenience helpers derived from the required methods.
pub trait DensityModelExt: DensityModel {
    /// Probability that a tile of the given shape holds at least one
    /// nonzero.
    fn prob_nonempty(&self, tile_shape: &[u64]) -> f64 {
        1.0 - self.occupancy(tile_shape).prob_empty
    }

    /// Expected tile density (expected occupancy / dense tile size).
    fn expected_tile_density(&self, tile_shape: &[u64]) -> f64 {
        let size: u64 = tile_shape.iter().product();
        if size == 0 {
            0.0
        } else {
            self.occupancy(tile_shape).expected / size as f64
        }
    }
}

impl<T: DensityModel + ?Sized> DensityModelExt for T {}

/// Declarative specification of a density model, instantiated against a
/// concrete tensor shape. This mirrors the YAML workload inputs in the
/// paper's Fig. 6 (`density: 0.25, distribution: uniform`), which the
/// `sparseloop-spec` front-end parses into and emits from this type.
#[derive(Debug, Clone, PartialEq)]
pub enum DensityModelSpec {
    /// Fully dense tensor (density 1.0); modeled as uniform.
    Dense,
    /// Uniformly random nonzero placement with the given density.
    Uniform {
        /// Fraction of nonzero coordinates.
        density: f64,
    },
    /// n:m structured sparsity along one rank.
    FixedStructured {
        /// Nonzeros per block.
        n: u64,
        /// Block length.
        m: u64,
        /// Tensor rank the blocks run along.
        axis: usize,
    },
    /// Diagonal band with optional in-band fill density (matrices only).
    Banded {
        /// Band half-width: `(i, j)` in band iff `|i − j| ≤ half_width`.
        half_width: u64,
        /// Probability an in-band element is nonzero.
        fill: f64,
    },
}

impl DensityModelSpec {
    /// Instantiates the model for a tensor of the given shape.
    ///
    /// # Panics
    /// Panics on invalid parameters (e.g. banded on a non-matrix, density
    /// outside `[0, 1]`).
    pub fn instantiate(&self, tensor_shape: &[u64]) -> Arc<dyn DensityModel> {
        match *self {
            DensityModelSpec::Dense => {
                Arc::new(crate::uniform::Uniform::new(tensor_shape.to_vec(), 1.0))
            }
            DensityModelSpec::Uniform { density } => {
                Arc::new(crate::uniform::Uniform::new(tensor_shape.to_vec(), density))
            }
            DensityModelSpec::FixedStructured { n, m, axis } => Arc::new(
                crate::structured::FixedStructured::new(tensor_shape.to_vec(), n, m, axis),
            ),
            DensityModelSpec::Banded { half_width, fill } => {
                assert_eq!(tensor_shape.len(), 2, "banded model requires a matrix");
                Arc::new(crate::banded::Banded::new(
                    tensor_shape[0],
                    tensor_shape[1],
                    half_width,
                    fill,
                ))
            }
        }
    }

    /// The overall density this spec implies for the given shape.
    pub fn nominal_density(&self, tensor_shape: &[u64]) -> f64 {
        self.instantiate(tensor_shape).density()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_instantiation_names() {
        let shape = vec![16, 16];
        assert_eq!(
            DensityModelSpec::Uniform { density: 0.5 }
                .instantiate(&shape)
                .name(),
            "uniform"
        );
        assert_eq!(
            DensityModelSpec::FixedStructured {
                n: 2,
                m: 4,
                axis: 1
            }
            .instantiate(&shape)
            .name(),
            "fixed_structured"
        );
        assert_eq!(
            DensityModelSpec::Banded {
                half_width: 1,
                fill: 1.0
            }
            .instantiate(&shape)
            .name(),
            "banded"
        );
        assert_eq!(
            DensityModelSpec::Dense.instantiate(&shape).name(),
            "uniform"
        );
    }

    #[test]
    fn dense_spec_has_unit_density() {
        assert_eq!(DensityModelSpec::Dense.nominal_density(&[8, 8]), 1.0);
    }

    #[test]
    fn expected_if_nonempty_bounds() {
        let s = OccupancyStats {
            expected: 0.5,
            prob_empty: 0.5,
            max: 4,
        };
        assert!((s.expected_if_nonempty() - 1.0).abs() < 1e-12);
        let sure_empty = OccupancyStats {
            expected: 0.0,
            prob_empty: 1.0,
            max: 0,
        };
        assert_eq!(sure_empty.expected_if_nonempty(), 0.0);
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = DensityModelSpec::FixedStructured {
            n: 2,
            m: 4,
            axis: 0,
        };
        let txt = format!("{spec:?}");
        assert!(txt.contains("FixedStructured"));
    }
}
