//! Hand-rolled byte codecs for shard results crossing process
//! boundaries.
//!
//! The multi-process serving front ships search-shard winners between a
//! parent supervisor and its worker processes over a length-prefixed
//! frame protocol. The workspace has no serialization dependency, so
//! the wire format is written by hand: a little-endian, self-describing
//! byte stream with explicit length prefixes and no alignment
//! requirements. [`WireWriter`] appends primitives to a growable
//! buffer; [`WireReader`] consumes them back, failing loudly (never
//! panicking) on truncated or malformed input — exactly what a
//! supervisor needs when a worker dies mid-frame or a frame arrives
//! corrupted.
//!
//! Floating-point objectives travel as raw IEEE-754 bit patterns
//! ([`WireWriter::put_f64_bits`]), so a decoded objective is
//! bit-identical to the encoded one — the property the serving layer's
//! "sharded merge equals in-process search" guarantee rests on.

use crate::loops::{Loop, LoopKind, Mapping};
use crate::mapper::SearchStats;
use crate::mapspace::CandidateKey;
use sparseloop_tensor::einsum::DimId;
use std::fmt;

/// A malformed or truncated wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the expected value.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// A tag or enum discriminant had no defined meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix exceeded the decoder's sanity bound.
    OversizedLength {
        /// What was being decoded.
        what: &'static str,
        /// The claimed length.
        len: u64,
    },
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// Decoded parts of one value contradict each other.
    Inconsistent {
        /// What was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "wire payload truncated in {what}"),
            WireError::BadTag { what, tag } => write!(f, "bad wire tag {tag} in {what}"),
            WireError::OversizedLength { what, len } => {
                write!(f, "oversized wire length {len} in {what}")
            }
            WireError::BadUtf8 => write!(f, "wire string is not valid UTF-8"),
            WireError::Inconsistent { what } => write!(f, "inconsistent wire value in {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Upper bound on any single length prefix; a frame claiming more is
/// corrupt (no legitimate mapping, stat block, or spec text comes
/// close).
const MAX_WIRE_LEN: u64 = 64 * 1024 * 1024;

/// Appends little-endian primitives to a byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the wire is 64-bit regardless of
    /// host width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its raw IEEE-754 bits — decoding returns the
    /// bit-identical value, NaN payloads included.
    pub fn put_f64_bits(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Consumes little-endian primitives from a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether the payload was fully consumed.
    pub fn is_done(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated { what });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads an element count for a sequence that follows; each element
    /// takes at least one byte, so a count above the bytes left is a
    /// truncation (and never drives a huge pre-allocation).
    pub fn get_count(&mut self, what: &'static str) -> Result<usize, WireError> {
        let n = self.get_len(what)?;
        if n > self.remaining() {
            return Err(WireError::Truncated { what });
        }
        Ok(n)
    }

    /// Reads a `u64` length prefix, sanity-bounded.
    pub fn get_len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let len = self.get_u64(what)?;
        if len > MAX_WIRE_LEN {
            return Err(WireError::OversizedLength { what, len });
        }
        Ok(len as usize)
    }

    /// Reads an `f64` from its raw bits.
    pub fn get_f64_bits(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64(what)?))
    }

    /// Reads a bool byte (anything non-zero is `true`... except that a
    /// strict decoder treats tags above 1 as corruption).
    pub fn get_bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what, tag }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.get_len(what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

/// Encodes a mapping: per-level loop nests plus the keep matrix.
pub fn encode_mapping(w: &mut WireWriter, mapping: &Mapping) {
    let nests = mapping.nests();
    w.put_usize(nests.len());
    for nest in nests {
        w.put_usize(nest.len());
        for l in nest {
            w.put_usize(l.dim.0);
            w.put_u64(l.bound);
            w.put_u8(match l.kind {
                LoopKind::Temporal => 0,
                LoopKind::Spatial => 1,
            });
        }
    }
    let keep = mapping.keep_matrix();
    w.put_usize(keep.len());
    for row in keep {
        w.put_usize(row.len());
        for &k in row {
            w.put_bool(k);
        }
    }
}

/// Decodes a mapping encoded by [`encode_mapping`].
pub fn decode_mapping(r: &mut WireReader<'_>) -> Result<Mapping, WireError> {
    let levels = r.get_count("mapping.nests")?;
    let mut nests = Vec::with_capacity(levels);
    for _ in 0..levels {
        let loops = r.get_count("mapping.nest")?;
        let mut nest = Vec::with_capacity(loops);
        for _ in 0..loops {
            let dim = DimId(r.get_len("loop.dim")?);
            let bound = r.get_u64("loop.bound")?;
            let kind = match r.get_u8("loop.kind")? {
                0 => LoopKind::Temporal,
                1 => LoopKind::Spatial,
                tag => {
                    return Err(WireError::BadTag {
                        what: "loop.kind",
                        tag,
                    })
                }
            };
            nest.push(Loop { dim, bound, kind });
        }
        nests.push(nest);
    }
    let rows = r.get_count("mapping.keep")?;
    if rows != levels {
        return Err(WireError::Inconsistent {
            what: "mapping.keep",
        });
    }
    let mut keep = Vec::with_capacity(rows);
    for _ in 0..rows {
        let cols = r.get_count("mapping.keep_row")?;
        let mut row = Vec::with_capacity(cols);
        for _ in 0..cols {
            row.push(r.get_bool("mapping.keep_bit")?);
        }
        keep.push(row);
    }
    Ok(Mapping::new(nests, keep))
}

/// Encodes search counters.
pub fn encode_stats(w: &mut WireWriter, stats: &SearchStats) {
    w.put_usize(stats.generated);
    w.put_usize(stats.pruned);
    w.put_usize(stats.evaluated);
    w.put_usize(stats.invalid);
}

/// Decodes search counters encoded by [`encode_stats`].
pub fn decode_stats(r: &mut WireReader<'_>) -> Result<SearchStats, WireError> {
    Ok(SearchStats {
        generated: r.get_len("stats.generated")?,
        pruned: r.get_len("stats.pruned")?,
        evaluated: r.get_len("stats.evaluated")?,
        invalid: r.get_len("stats.invalid")?,
    })
}

/// Encodes a globally comparable candidate key.
pub fn encode_key(w: &mut WireWriter, key: &CandidateKey) {
    w.put_u64(key.block);
    w.put_u64(key.rank);
}

/// Decodes a candidate key encoded by [`encode_key`].
pub fn decode_key(r: &mut WireReader<'_>) -> Result<CandidateKey, WireError> {
    Ok(CandidateKey {
        block: r.get_u64("key.block")?,
        rank: r.get_u64("key.rank")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapspace::Mapspace;
    use sparseloop_arch::{ArchitectureBuilder, ComputeSpec, StorageLevel};
    use sparseloop_tensor::einsum::Einsum;

    fn sample_mappings() -> Vec<Mapping> {
        let e = Einsum::matmul(8, 4, 6);
        let a = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM"))
            .level(StorageLevel::new("Buf"))
            .compute(ComputeSpec::new("MAC", 4))
            .build()
            .unwrap();
        Mapspace::all_temporal(&e, &a)
            .with_spatial_dims(1, vec![DimId(0)])
            .enumerate(50)
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64_bits(-0.0);
        w.put_f64_bits(f64::NAN);
        w.put_bool(true);
        w.put_str("héllo wire");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8("t").unwrap(), 7);
        assert_eq!(r.get_u32("t").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("t").unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64_bits("t").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64_bits("t").unwrap().is_nan());
        assert!(r.get_bool("t").unwrap());
        assert_eq!(r.get_str("t").unwrap(), "héllo wire");
        assert!(r.is_done());
    }

    #[test]
    fn truncation_reported_not_panicked() {
        let mut w = WireWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes[..5]);
        assert_eq!(
            r.get_u64("value").unwrap_err(),
            WireError::Truncated { what: "value" }
        );
    }

    #[test]
    fn oversized_length_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.get_len("len").unwrap_err(),
            WireError::OversizedLength { .. }
        ));
    }

    #[test]
    fn bad_bool_tag_rejected() {
        let mut r = WireReader::new(&[9]);
        assert_eq!(
            r.get_bool("flag").unwrap_err(),
            WireError::BadTag {
                what: "flag",
                tag: 9
            }
        );
    }

    #[test]
    fn mapping_roundtrips_bit_identically() {
        for m in sample_mappings() {
            let mut w = WireWriter::new();
            encode_mapping(&mut w, &m);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let back = decode_mapping(&mut r).unwrap();
            assert!(r.is_done(), "decoder must consume the whole payload");
            assert_eq!(back, m);
            assert_eq!(back.keep_matrix(), m.keep_matrix());
        }
    }

    #[test]
    fn stats_and_key_roundtrip() {
        let stats = SearchStats {
            generated: 101,
            pruned: 17,
            evaluated: 80,
            invalid: 4,
        };
        let key = CandidateKey { block: 3, rank: 99 };
        let sampled = CandidateKey::sampled(12);
        let mut w = WireWriter::new();
        encode_stats(&mut w, &stats);
        encode_key(&mut w, &key);
        encode_key(&mut w, &sampled);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(decode_stats(&mut r).unwrap(), stats);
        assert_eq!(decode_key(&mut r).unwrap(), key);
        assert_eq!(decode_key(&mut r).unwrap(), sampled);
    }

    #[test]
    fn corrupted_mapping_payload_is_an_error() {
        let m = &sample_mappings()[0];
        let mut w = WireWriter::new();
        encode_mapping(&mut w, m);
        let mut bytes = w.into_bytes();
        // claim an absurd nest count
        bytes[0] = 0xFF;
        bytes[7] = 0xFF;
        let mut r = WireReader::new(&bytes);
        assert!(decode_mapping(&mut r).is_err());
    }
}
