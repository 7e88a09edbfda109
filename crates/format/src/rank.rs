//! Per-rank (per-dimension) representation formats.

/// Number of bits needed to index `n` distinct coordinates.
pub(crate) fn coord_bits_for(n: u64) -> u32 {
    if n <= 1 {
        1
    } else {
        64 - (n - 1).leading_zeros()
    }
}

/// A per-dimension representation format (paper Fig. 2).
///
/// Each variant defines how one fibertree rank encodes which of its
/// coordinates are non-empty, and therefore how much metadata the rank
/// carries and whether empty positions are pruned from lower ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankFormat {
    /// `U` — all coordinates stored explicitly (zeros included); no
    /// metadata, no pruning.
    Uncompressed,
    /// `B` — one presence bit per coordinate; only non-empty payloads
    /// stored.
    Bitmask,
    /// `CP` — explicit coordinate per non-empty payload. `coord_bits`
    /// overrides the default `ceil(log2(fiber shape))` width (e.g. STC's
    /// 2-bit offsets within a block of four).
    CoordinatePayload {
        /// Explicit coordinate width in bits; `None` derives it from the
        /// fiber shape.
        coord_bits: Option<u32>,
    },
    /// `RLE` — run length (zeros between nonzeros) per non-empty payload.
    /// An `r`-bit run encodes up to `2^r − 1` zeros; longer runs require
    /// padding entries, which the actual-data encoder models exactly.
    RunLength {
        /// Explicit run-length width in bits; `None` derives it from the
        /// fiber shape.
        run_bits: Option<u32>,
    },
    /// `UOP` — uncompressed offset pairs: start/end positions bounding
    /// the non-empty payloads of each fiber (CSR's row-pointer array).
    OffsetPairs {
        /// Explicit offset width in bits; `None` derives it from the
        /// maximum payload count.
        offset_bits: Option<u32>,
    },
}

impl RankFormat {
    /// Shorthand constructor for `CP` with derived coordinate width.
    pub fn cp() -> Self {
        RankFormat::CoordinatePayload { coord_bits: None }
    }

    /// Shorthand constructor for `RLE` with derived run width.
    pub fn rle() -> Self {
        RankFormat::RunLength { run_bits: None }
    }

    /// Shorthand constructor for `UOP` with derived offset width.
    pub fn uop() -> Self {
        RankFormat::OffsetPairs { offset_bits: None }
    }

    /// Whether this format prunes empty positions (compressed) or keeps
    /// them (uncompressed).
    pub fn is_compressed(&self) -> bool {
        !matches!(self, RankFormat::Uncompressed)
    }

    /// Expected metadata bits contributed by this rank.
    ///
    /// * `num_fibers` — expected number of fibers at this rank (one per
    ///   represented parent position).
    /// * `fiber_shape` — dense extent of each fiber.
    /// * `occupied` — expected number of non-empty positions across all
    ///   fibers at this rank.
    /// * `offset_range` — the largest position a UOP offset must be able
    ///   to address (the payload capacity below this rank); ignored by
    ///   the other formats.
    pub fn metadata_bits(
        &self,
        num_fibers: f64,
        fiber_shape: u64,
        occupied: f64,
        offset_range: u64,
    ) -> f64 {
        match *self {
            RankFormat::Uncompressed => 0.0,
            RankFormat::Bitmask => num_fibers * fiber_shape as f64,
            RankFormat::CoordinatePayload { coord_bits } => {
                occupied * coord_bits.unwrap_or_else(|| coord_bits_for(fiber_shape)) as f64
            }
            RankFormat::RunLength { run_bits } => {
                occupied * run_bits.unwrap_or_else(|| coord_bits_for(fiber_shape)) as f64
            }
            RankFormat::OffsetPairs { offset_bits } => {
                // CSR-style boundary array: one offset per coordinate of
                // every fiber, plus one terminal offset.
                (num_fibers * fiber_shape as f64 + 1.0)
                    * offset_bits.unwrap_or_else(|| coord_bits_for(offset_range + 1)) as f64
            }
        }
    }

    /// Number of positions this rank passes down to the next rank, given
    /// `num_fibers` fibers of `fiber_shape` with `occupied` non-empty
    /// positions. Uncompressed ranks pass everything; compressed ranks
    /// prune empties.
    pub fn represented(&self, num_fibers: f64, fiber_shape: u64, occupied: f64) -> f64 {
        match self {
            RankFormat::Uncompressed => num_fibers * fiber_shape as f64,
            _ => occupied,
        }
    }

    /// Short name used in hierarchical descriptions ("UOP-CP" etc.).
    pub fn short_name(&self) -> &'static str {
        match self {
            RankFormat::Uncompressed => "U",
            RankFormat::Bitmask => "B",
            RankFormat::CoordinatePayload { .. } => "CP",
            RankFormat::RunLength { .. } => "RLE",
            RankFormat::OffsetPairs { .. } => "UOP",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_bits_values() {
        assert_eq!(coord_bits_for(1), 1);
        assert_eq!(coord_bits_for(2), 1);
        assert_eq!(coord_bits_for(4), 2);
        assert_eq!(coord_bits_for(5), 3);
        assert_eq!(coord_bits_for(256), 8);
        assert_eq!(coord_bits_for(257), 9);
    }

    #[test]
    fn bitmask_bits_independent_of_density() {
        // Paper: Overhead_B = total elements × 1, regardless of density.
        let b = RankFormat::Bitmask;
        assert_eq!(b.metadata_bits(2.0, 16, 3.0, 0), 32.0);
        assert_eq!(b.metadata_bits(2.0, 16, 15.0, 0), 32.0);
    }

    #[test]
    fn cp_bits_scale_with_occupancy() {
        let cp = RankFormat::cp();
        // fiber shape 16 -> 4-bit coords
        assert_eq!(cp.metadata_bits(1.0, 16, 3.0, 0), 12.0);
        assert_eq!(cp.metadata_bits(1.0, 16, 6.0, 0), 24.0);
    }

    #[test]
    fn cp_explicit_width_respected() {
        let cp = RankFormat::CoordinatePayload {
            coord_bits: Some(2),
        };
        assert_eq!(cp.metadata_bits(1.0, 16, 4.0, 0), 8.0);
    }

    #[test]
    fn rle_matches_paper_formula() {
        // Overhead_RLE = #non-empty × run_length_bitwidth
        let rle = RankFormat::RunLength { run_bits: Some(5) };
        assert_eq!(rle.metadata_bits(3.0, 100, 7.0, 0), 35.0);
    }

    #[test]
    fn uop_bits_per_fiber() {
        let uop = RankFormat::uop();
        // 4 fibers of shape 8 -> 33 offsets × ceil(log2(65)) = 7 bits
        assert_eq!(uop.metadata_bits(4.0, 8, 10.0, 64), 33.0 * 7.0);
    }

    #[test]
    fn uncompressed_prunes_nothing() {
        let u = RankFormat::Uncompressed;
        assert_eq!(u.metadata_bits(4.0, 8, 2.0, 0), 0.0);
        assert_eq!(u.represented(4.0, 8, 2.0), 32.0);
        assert!(!u.is_compressed());
    }

    #[test]
    fn compressed_prunes_to_occupied() {
        for f in [
            RankFormat::Bitmask,
            RankFormat::cp(),
            RankFormat::rle(),
            RankFormat::uop(),
        ] {
            assert_eq!(f.represented(4.0, 8, 2.5), 2.5);
            assert!(f.is_compressed());
        }
    }

    #[test]
    fn short_names() {
        assert_eq!(RankFormat::Uncompressed.short_name(), "U");
        assert_eq!(RankFormat::Bitmask.short_name(), "B");
        assert_eq!(RankFormat::cp().short_name(), "CP");
        assert_eq!(RankFormat::rle().short_name(), "RLE");
        assert_eq!(RankFormat::uop().short_name(), "UOP");
    }
}
