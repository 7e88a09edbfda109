//! Hierarchical tensor formats and the statistical Format Analyzer math.
//!
//! A [`TensorFormat`] stacks per-rank formats over the (tiled) fibertree
//! ranks of a tensor, optionally flattening several tensor ranks into one
//! fibertree level (the paper's superscript notation, e.g. 2D COO = CP²).
//! [`TensorFormat::analyze`] evaluates the expected/worst-case payload and
//! metadata footprint of a tile under a density model — the quantity the
//! Format Analyzer (§5.3.3) provides to traffic post-processing and the
//! capacity validity check.

use crate::rank::RankFormat;
use sparseloop_density::DensityModel;
use std::fmt;

/// One level of a hierarchical format: a per-rank format applied to one
/// or more flattened tensor ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FormatLevel {
    /// The per-rank format for this fibertree level.
    pub format: RankFormat,
    /// How many consecutive tensor ranks are flattened into this level
    /// (1 = no flattening).
    pub flattened_ranks: usize,
}

impl FormatLevel {
    /// A level covering a single tensor rank.
    pub fn simple(format: RankFormat) -> Self {
        FormatLevel {
            format,
            flattened_ranks: 1,
        }
    }
}

/// Expected and worst-case storage footprint of a tile under a format.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FormatOverhead {
    /// Expected number of payload (data) words stored.
    pub payload_words: f64,
    /// Expected metadata bits stored.
    pub metadata_bits: f64,
    /// Worst-case payload words (for conservative capacity checks).
    pub max_payload_words: f64,
    /// Worst-case metadata bits.
    pub max_metadata_bits: f64,
}

impl FormatOverhead {
    /// Total expected bits for a given payload word width.
    pub fn total_bits(&self, word_bits: u32) -> f64 {
        self.payload_words * word_bits as f64 + self.metadata_bits
    }

    /// Compression rate versus a dense layout of `dense_words` words:
    /// `dense bits / compressed bits`. Returns infinity for an empty tile.
    pub fn compression_rate(&self, dense_words: f64, word_bits: u32) -> f64 {
        let dense_bits = dense_words * word_bits as f64;
        let compressed = self.total_bits(word_bits);
        if compressed == 0.0 {
            f64::INFINITY
        } else {
            dense_bits / compressed
        }
    }
}

/// A hierarchical representation format for one tensor.
///
/// # Example
/// ```
/// use sparseloop_format::TensorFormat;
/// assert_eq!(TensorFormat::csr().to_string(), "UOP-CP");
/// assert_eq!(TensorFormat::coo(2).to_string(), "CP^2");
/// assert_eq!(TensorFormat::csf(3).to_string(), "CP-CP-CP");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorFormat {
    levels: Vec<FormatLevel>,
}

impl TensorFormat {
    /// Builds a format from explicit levels.
    ///
    /// # Panics
    /// Panics if `levels` is empty or any level flattens zero ranks.
    pub fn new(levels: Vec<FormatLevel>) -> Self {
        assert!(!levels.is_empty(), "format needs at least one level");
        assert!(
            levels.iter().all(|l| l.flattened_ranks >= 1),
            "levels must cover at least one rank each"
        );
        TensorFormat { levels }
    }

    /// Builds a format with one single-rank level per format in order.
    pub fn from_ranks(formats: &[RankFormat]) -> Self {
        TensorFormat::new(formats.iter().copied().map(FormatLevel::simple).collect())
    }

    /// Fully uncompressed format over `rank` tensor ranks.
    pub fn uncompressed(rank: usize) -> Self {
        TensorFormat::from_ranks(&vec![RankFormat::Uncompressed; rank.max(1)])
    }

    /// CSR: `UOP-CP` over two ranks (Table 2).
    pub fn csr() -> Self {
        TensorFormat::from_ranks(&[RankFormat::uop(), RankFormat::cp()])
    }

    /// Coordinate list flattening `rank` ranks into one `CP` level
    /// (Table 2: 2D COO = CP²).
    pub fn coo(rank: usize) -> Self {
        TensorFormat::new(vec![FormatLevel {
            format: RankFormat::cp(),
            flattened_ranks: rank.max(1),
        }])
    }

    /// Compressed sparse block: `UOP-CP-CP` (Table 2).
    pub fn csb() -> Self {
        TensorFormat::from_ranks(&[RankFormat::uop(), RankFormat::cp(), RankFormat::cp()])
    }

    /// Compressed sparse fiber over `depth` ranks: `CP-…-CP` (Table 2).
    pub fn csf(depth: usize) -> Self {
        TensorFormat::from_ranks(&vec![RankFormat::cp(); depth.max(1)])
    }

    /// Eyeriss-style `B-RLE` two-rank format.
    pub fn b_rle() -> Self {
        TensorFormat::from_ranks(&[RankFormat::Bitmask, RankFormat::rle()])
    }

    /// The format's levels, outermost first.
    pub fn levels(&self) -> &[FormatLevel] {
        &self.levels
    }

    /// Number of tensor ranks this format covers in total.
    pub fn covered_ranks(&self) -> usize {
        self.levels.iter().map(|l| l.flattened_ranks).sum()
    }

    /// Whether any level compresses (prunes empty coordinates).
    pub fn is_compressed(&self) -> bool {
        self.levels.iter().any(|l| l.format.is_compressed())
    }

    /// Statistical footprint of a tile of `tile_shape` (per tensor rank)
    /// under `model`.
    ///
    /// The tile's ranks are grouped according to the format's flattening,
    /// outermost first. If the format covers fewer ranks than the tile
    /// has, leading tile ranks are implicitly flattened into the first
    /// level; if it covers more, excess levels are ignored — this keeps
    /// callers robust under tiling that collapses ranks to extent 1.
    ///
    /// # Panics
    /// Panics if `tile_shape` is empty.
    pub fn analyze(&self, tile_shape: &[u64], model: &dyn DensityModel) -> FormatOverhead {
        assert!(
            !tile_shape.is_empty(),
            "tile shape must have at least one rank"
        );
        // Group tile ranks into fibertree levels per the flattening spec.
        let groups = self.group_ranks(tile_shape);
        let full_stats = model.occupancy(&clamp_to_model(tile_shape, model));
        let total_expected_nnz = full_stats.expected;
        let total_max_nnz = full_stats.max as f64;

        let payload;
        let mut meta_bits = 0.0;
        let mut max_meta_bits = 0.0;
        // Number of fibers entering the current level (expected / worst).
        let mut fibers = 1.0_f64;
        let mut fibers_max = 1.0_f64;
        let mut dense_positions = 1.0_f64;

        for (li, (fmt, group_shape)) in groups.iter().enumerate() {
            let fiber_shape: u64 = group_shape.iter().product::<u64>().max(1);
            dense_positions *= fiber_shape as f64;
            // Probability a position at this level is non-empty = 1 −
            // P(empty subtile spanning all lower levels).
            let sub_shape = subtile_shape(&groups, li, tile_shape.len());
            let p_nonempty = 1.0
                - model
                    .occupancy(&clamp_to_model(&sub_shape, model))
                    .prob_empty;
            let occupied = (dense_positions * p_nonempty)
                .min(total_expected_nnz.max(dense_positions * p_nonempty));
            let occupied = if li + 1 == groups.len() {
                // leaf level: occupied positions are exactly the nonzeros
                total_expected_nnz
            } else {
                occupied
            };
            let occupied_max = dense_positions.min(total_max_nnz.max(0.0)).max(occupied);

            // UOP offsets address into the payload space below this level.
            let offset_range: u64 = tile_shape.iter().product();
            meta_bits += fmt.metadata_bits(fibers, fiber_shape, occupied, offset_range);
            max_meta_bits += fmt.metadata_bits(fibers_max, fiber_shape, occupied_max, offset_range);

            let represented = fmt.represented(fibers, fiber_shape, occupied);
            let represented_max = fmt.represented(fibers_max, fiber_shape, occupied_max);
            if li + 1 == groups.len() {
                payload = represented;
                let max_payload = represented_max;
                return FormatOverhead {
                    payload_words: payload,
                    metadata_bits: meta_bits,
                    max_payload_words: max_payload,
                    max_metadata_bits: max_meta_bits,
                };
            }
            fibers = represented;
            fibers_max = represented_max;
        }
        unreachable!("loop returns at the leaf level");
    }

    /// Groups the tile's ranks into `(format, shape group)` pairs matching
    /// the format's flattening structure.
    fn group_ranks(&self, tile_shape: &[u64]) -> Vec<(RankFormat, Vec<u64>)> {
        let covered = self.covered_ranks();
        let mut groups = Vec::new();
        if covered >= tile_shape.len() {
            // Assign ranks right-aligned: the innermost format levels bind
            // to the innermost tile ranks; excess outer levels are dropped.
            let mut remaining: Vec<u64> = tile_shape.to_vec();
            let mut levels: Vec<FormatLevel> = self.levels.clone();
            // Drop outer levels until coverage fits.
            let mut cov = covered;
            while cov > remaining.len() && levels.len() > 1 {
                let l = levels.remove(0);
                cov -= l.flattened_ranks;
            }
            if cov > remaining.len() {
                // Single level flattening more ranks than exist: flatten all.
                groups.push((levels[0].format, remaining.clone()));
                return groups;
            }
            let skip = remaining.len() - cov;
            let head: Vec<u64> = remaining.drain(..skip).collect();
            let mut idx = 0usize;
            for (i, l) in levels.iter().enumerate() {
                let mut g: Vec<u64> = remaining[idx..idx + l.flattened_ranks].to_vec();
                if i == 0 && !head.is_empty() {
                    // fold unmatched outer ranks into the first level
                    let mut h = head.clone();
                    h.extend_from_slice(&g);
                    g = h;
                }
                idx += l.flattened_ranks;
                groups.push((l.format, g));
            }
        } else {
            // Format covers fewer ranks than the tile has: fold the extra
            // outer ranks into the first level.
            let extra = tile_shape.len() - covered;
            let mut idx = 0usize;
            for (i, l) in self.levels.iter().enumerate() {
                let take = l.flattened_ranks + if i == 0 { extra } else { 0 };
                groups.push((l.format, tile_shape[idx..idx + take].to_vec()));
                idx += take;
            }
        }
        groups
    }
}

/// The tensor-rank-space shape of the subtile beneath level `li`:
/// leading ranks collapsed to 1, trailing ranks keep their tile extents.
fn subtile_shape(groups: &[(RankFormat, Vec<u64>)], li: usize, rank: usize) -> Vec<u64> {
    let mut shape = Vec::with_capacity(rank);
    for (gi, (_, g)) in groups.iter().enumerate() {
        for &e in g {
            shape.push(if gi <= li { 1 } else { e });
        }
    }
    shape
}

/// Clamps a tile shape to the density model's tensor rank count by
/// padding/truncating leading ranks (models are defined over the full
/// tensor's rank space).
fn clamp_to_model(shape: &[u64], model: &dyn DensityModel) -> Vec<u64> {
    let rank = model.tensor_shape().len();
    if shape.len() == rank {
        return shape.to_vec();
    }
    if shape.len() > rank {
        // fold extra leading ranks into the first model rank
        let extra = shape.len() - rank;
        let mut out = Vec::with_capacity(rank);
        out.push(shape[..=extra].iter().product());
        out.extend_from_slice(&shape[extra + 1..]);
        out
    } else {
        let mut out = vec![1u64; rank - shape.len()];
        out.extend_from_slice(shape);
        out
    }
}

impl fmt::Display for TensorFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                write!(f, "-")?;
            }
            write!(f, "{}", l.format.short_name())?;
            if l.flattened_ranks > 1 {
                write!(f, "^{}", l.flattened_ranks)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseloop_density::Uniform;

    #[test]
    fn display_classic_formats() {
        assert_eq!(TensorFormat::csr().to_string(), "UOP-CP");
        assert_eq!(TensorFormat::coo(2).to_string(), "CP^2");
        assert_eq!(TensorFormat::csb().to_string(), "UOP-CP-CP");
        assert_eq!(TensorFormat::csf(3).to_string(), "CP-CP-CP");
        assert_eq!(TensorFormat::b_rle().to_string(), "B-RLE");
        assert_eq!(TensorFormat::uncompressed(2).to_string(), "U-U");
    }

    #[test]
    fn uncompressed_stores_dense() {
        let m = Uniform::new(vec![8, 8], 0.25);
        let o = TensorFormat::uncompressed(2).analyze(&[8, 8], &m);
        assert_eq!(o.payload_words, 64.0);
        assert_eq!(o.metadata_bits, 0.0);
    }

    #[test]
    fn coo_stores_nnz_with_coords() {
        let m = Uniform::new(vec![8, 8], 0.25);
        let o = TensorFormat::coo(2).analyze(&[8, 8], &m);
        assert!((o.payload_words - 16.0).abs() < 1e-9);
        // flattened 64-coordinate space -> 6-bit coords × 16 nonzeros
        assert!((o.metadata_bits - 16.0 * 6.0).abs() < 1e-9);
    }

    #[test]
    fn bitmask_metadata_fixed() {
        let m = Uniform::new(vec![16], 0.5);
        let f = TensorFormat::from_ranks(&[RankFormat::Bitmask]);
        let dense = f.analyze(&[16], &Uniform::new(vec![16], 1.0));
        let sparse = f.analyze(&[16], &m);
        assert_eq!(dense.metadata_bits, 16.0);
        assert_eq!(sparse.metadata_bits, 16.0);
        assert!(sparse.payload_words < dense.payload_words);
    }

    #[test]
    fn csr_metadata_has_row_pointers() {
        let m = Uniform::new(vec![8, 8], 0.25);
        let o = TensorFormat::csr().analyze(&[8, 8], &m);
        assert!((o.payload_words - 16.0).abs() < 1e-6);
        // UOP: (8+1) offsets × ceil(log2(65)) = 7 bits = 63 bits,
        // CP: 16 nonzeros × 3-bit column coords = 48 bits
        assert!((o.metadata_bits - (63.0 + 48.0)).abs() < 1.0);
    }

    #[test]
    fn worst_case_dominates_expected() {
        let m = Uniform::new(vec![32, 32], 0.1);
        for f in [
            TensorFormat::csr(),
            TensorFormat::coo(2),
            TensorFormat::b_rle(),
            TensorFormat::uncompressed(2),
        ] {
            let o = f.analyze(&[8, 8], &m);
            assert!(o.max_payload_words >= o.payload_words - 1e-9, "{f}");
            assert!(o.max_metadata_bits >= o.metadata_bits - 1e-9, "{f}");
        }
    }

    #[test]
    fn compression_rate_favors_sparse() {
        let sparse = Uniform::new(vec![64], 0.1);
        let f = TensorFormat::from_ranks(&[RankFormat::rle()]);
        let o = f.analyze(&[64], &sparse);
        let rate = o.compression_rate(64.0, 16);
        assert!(rate > 1.0, "rate = {rate}");
    }

    #[test]
    fn denser_tensors_compress_worse() {
        let f = TensorFormat::coo(2);
        let rate = |d: f64| {
            let m = Uniform::new(vec![16, 16], d);
            f.analyze(&[16, 16], &m).compression_rate(256.0, 16)
        };
        assert!(rate(0.1) > rate(0.3));
        assert!(rate(0.3) > rate(0.9));
    }

    #[test]
    fn format_fewer_ranks_than_tile() {
        // 4-rank tile, 2-level format: outer ranks fold into level 0.
        let m = Uniform::new(vec![2, 2, 4, 4], 0.25);
        let o = TensorFormat::csr().analyze(&[2, 2, 4, 4], &m);
        assert!(o.payload_words > 0.0);
        assert!(o.metadata_bits > 0.0);
    }

    #[test]
    fn format_more_ranks_than_tile() {
        // 1-rank tile, 2-level format: outer level dropped.
        let m = Uniform::new(vec![16], 0.5);
        let o = TensorFormat::csr().analyze(&[16], &m);
        assert!((o.payload_words - 8.0).abs() < 1e-9);
    }

    #[test]
    fn empty_tile_costs_nothing_in_payload() {
        let m = Uniform::new(vec![8, 8], 0.0);
        let o = TensorFormat::coo(2).analyze(&[8, 8], &m);
        assert_eq!(o.payload_words, 0.0);
        assert_eq!(o.metadata_bits, 0.0);
    }
}
