//! The parent↔worker frame protocol: length-prefixed, checksummed,
//! dependency-free.
//!
//! A shard worker process and its supervising parent speak over plain
//! stdin/stdout pipes. Every message is one *frame*:
//!
//! ```text
//! frame    := magic(u32 LE) length(u32 LE) checksum(u64 LE) payload
//! magic    := 0x53_4C_46_31            ("SLF1")
//! length   := byte length of payload (sanity-bounded)
//! checksum := FNV-1a 64 over payload
//! payload  := tag(u8) body             (hand-rolled wire codecs)
//! ```
//!
//! The checksum is not cryptographic — it exists so a corrupted frame
//! (a worker dying mid-write, fault injection flipping a byte) is
//! *detected* and surfaces as [`ProtocolError::BadChecksum`] instead of
//! decoding into garbage results. Clean end-of-stream at a frame
//! boundary is [`ProtocolError::Eof`], distinct from a mid-frame
//! truncation — the supervisor treats both as worker death, but the
//! distinction matters for diagnostics.
//!
//! Payload bodies reuse the mapping crate's [`WireWriter`] /
//! [`WireReader`] codecs, so shard winners cross the process boundary
//! with bit-identical objective values and mappings.

use sparseloop_mapping::wire::{
    decode_key, decode_mapping, decode_stats, encode_key, encode_mapping, encode_stats,
};
use sparseloop_mapping::{CandidateKey, Mapping, SearchStats, WireError, WireReader, WireWriter};
use std::fmt;
use std::io::{Read, Write};

/// Protocol revision, announced in the worker's [`Frame::Hello`].
///
/// A parent and its workers are always one build, so there is exactly
/// one layout per frame and [`decode_payload`] accepts nothing else: a
/// payload that ends early or carries bytes past its last field is an
/// error. The parent refuses a worker whose first frame is not a
/// `Hello` with this version (see [`crate::proc`]).
pub const PROTOCOL_VERSION: u32 = 5;

/// Frame magic: "SLF1" little-endian.
pub const FRAME_MAGIC: u32 = 0x3146_4C53;

/// Largest accepted payload; a frame claiming more is corrupt.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// One experiment's shard-local result inside a [`Frame::TaskDone`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExpResult {
    /// Not a search experiment (fixed-mapping plans are evaluated by the
    /// parent) — nothing to report from a shard.
    Skipped,
    /// The shard's sub-stream held no valid candidate; the fruitless
    /// walk's counters still merge into the batch totals.
    NoWinner {
        /// Counters of the failed shard walk.
        stats: SearchStats,
    },
    /// The shard's local winner: raw objective bits, globally comparable
    /// candidate key, and the winning mapping.
    Winner {
        /// Objective value (travels as raw IEEE-754 bits).
        value: f64,
        /// Globally comparable stream position.
        key: CandidateKey,
        /// Shard-local counters.
        stats: SearchStats,
        /// The winning mapping.
        mapping: Mapping,
    },
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → parent, once at startup.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Parent → worker: run one shard of one request.
    Task {
        /// Request id; echoed in every worker response.
        id: u64,
        /// The shard index this worker owns.
        shard: u32,
        /// Total shard count of the request.
        shards: u32,
        /// Heartbeat cadence the worker must hold while computing
        /// (milliseconds; 0 disables heartbeats).
        heartbeat_ms: u32,
        /// The scenario as spec text (compiled worker-side).
        spec: String,
        /// Ask the worker for a [`Frame::Stats`] phase-timing frame
        /// before its `TaskDone`.
        want_stats: bool,
        /// Originating service request id (0 = untraced). Echoed into
        /// the worker's [`Frame::Stats`] so cross-process spans join
        /// one request tree.
        trace_request: u64,
        /// Span id of the dispatch span this task runs under (0 =
        /// root). Worker phase spans parent here.
        trace_parent: u64,
    },
    /// Worker → parent: liveness signal while a task computes.
    Heartbeat {
        /// The task being computed.
        id: u64,
        /// Monotonic per-task sequence number.
        seq: u64,
    },
    /// Worker → parent: the task's per-experiment shard results.
    TaskDone {
        /// The completed task.
        id: u64,
        /// One entry per experiment, index-aligned with the compiled
        /// scenario's experiment list.
        results: Vec<ExpResult>,
    },
    /// Worker → parent: the task failed (spec compile error, evaluation
    /// panic). Every such failure is deterministic — re-running the task
    /// would fail the same way — so the supervisor never retries it; a
    /// worker that dies instead sends nothing and is retried as a death.
    TaskFailed {
        /// The failed task.
        id: u64,
        /// Human-readable cause.
        message: String,
    },
    /// Worker → parent: phase timings for a task, sent immediately
    /// before the corresponding [`Frame::TaskDone`] — and only when the
    /// task asked for it via `want_stats`. Durations are in the
    /// worker's own clock domain, so only their magnitudes are
    /// meaningful to the parent.
    Stats {
        /// The task these timings belong to.
        id: u64,
        /// The shard index this worker computed.
        shard: u32,
        /// Nanoseconds compiling the spec into an evaluation plan.
        compile_nanos: u64,
        /// Nanoseconds walking the sharded mapspace.
        search_nanos: u64,
        /// Candidates generated across the task's experiments.
        generated: u64,
        /// Candidates fully evaluated across the task's experiments.
        evaluated: u64,
        /// Originating service request id, echoed from the task (0 =
        /// untraced).
        trace_request: u64,
        /// Dispatch span id the phase spans parent under, echoed from
        /// the task (0 = root).
        trace_parent: u64,
    },
    /// Parent → worker: exit cleanly.
    Shutdown,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum ProtocolError {
    /// Clean end-of-stream at a frame boundary (worker exited).
    Eof,
    /// The underlying pipe failed.
    Io(std::io::Error),
    /// The frame header's magic was wrong (stream out of sync).
    BadMagic(u32),
    /// The payload's checksum did not match (corruption in flight).
    BadChecksum {
        /// Checksum the header claimed.
        expected: u64,
        /// Checksum of the payload as received.
        actual: u64,
    },
    /// The header claimed an absurd payload length.
    TooLarge(u32),
    /// The payload's frame tag is unknown.
    UnknownTag(u8),
    /// The payload body failed to decode.
    Wire(WireError),
    /// The payload held this many bytes past the end of its frame.
    TrailingBytes(usize),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Eof => write!(f, "end of stream"),
            ProtocolError::Io(e) => write!(f, "pipe error: {e}"),
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            ProtocolError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:#x}, payload {actual:#x}"
                )
            }
            ProtocolError::TooLarge(n) => write!(f, "frame length {n} exceeds limit"),
            ProtocolError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            ProtocolError::Wire(e) => write!(f, "frame body: {e}"),
            ProtocolError::TrailingBytes(n) => write!(f, "{n} bytes past the end of the frame"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Wire(e)
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// FNV-1a 64 over `bytes` — the frame checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn encode_exp_result(w: &mut WireWriter, r: &ExpResult) {
    match r {
        ExpResult::Skipped => w.put_u8(0),
        ExpResult::NoWinner { stats } => {
            w.put_u8(1);
            encode_stats(w, stats);
        }
        ExpResult::Winner {
            value,
            key,
            stats,
            mapping,
        } => {
            w.put_u8(2);
            w.put_f64_bits(*value);
            encode_key(w, key);
            encode_stats(w, stats);
            encode_mapping(w, mapping);
        }
    }
}

fn decode_exp_result(r: &mut WireReader<'_>) -> Result<ExpResult, WireError> {
    match r.get_u8("exp.tag")? {
        0 => Ok(ExpResult::Skipped),
        1 => Ok(ExpResult::NoWinner {
            stats: decode_stats(r)?,
        }),
        2 => Ok(ExpResult::Winner {
            value: r.get_f64_bits("exp.value")?,
            key: decode_key(r)?,
            stats: decode_stats(r)?,
            mapping: decode_mapping(r)?,
        }),
        tag => Err(WireError::BadTag {
            what: "exp.tag",
            tag,
        }),
    }
}

/// Encodes a frame's payload (tag + body), without the header.
pub fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut w = WireWriter::new();
    match frame {
        Frame::Hello { version } => {
            w.put_u8(1);
            w.put_u32(*version);
        }
        Frame::Task {
            id,
            shard,
            shards,
            heartbeat_ms,
            spec,
            want_stats,
            trace_request,
            trace_parent,
        } => {
            w.put_u8(2);
            w.put_u64(*id);
            w.put_u32(*shard);
            w.put_u32(*shards);
            w.put_u32(*heartbeat_ms);
            w.put_str(spec);
            w.put_bool(*want_stats);
            w.put_u64(*trace_request);
            w.put_u64(*trace_parent);
        }
        Frame::Heartbeat { id, seq } => {
            w.put_u8(3);
            w.put_u64(*id);
            w.put_u64(*seq);
        }
        Frame::TaskDone { id, results } => {
            w.put_u8(4);
            w.put_u64(*id);
            w.put_usize(results.len());
            for r in results {
                encode_exp_result(&mut w, r);
            }
        }
        Frame::TaskFailed { id, message } => {
            w.put_u8(5);
            w.put_u64(*id);
            w.put_str(message);
        }
        Frame::Stats {
            id,
            shard,
            compile_nanos,
            search_nanos,
            generated,
            evaluated,
            trace_request,
            trace_parent,
        } => {
            w.put_u8(7);
            w.put_u64(*id);
            w.put_u32(*shard);
            w.put_u64(*compile_nanos);
            w.put_u64(*search_nanos);
            w.put_u64(*generated);
            w.put_u64(*evaluated);
            w.put_u64(*trace_request);
            w.put_u64(*trace_parent);
        }
        Frame::Shutdown => w.put_u8(6),
    }
    w.into_bytes()
}

/// Decodes a frame payload (tag + body) produced by [`encode_payload`];
/// the payload must hold exactly one frame, nothing more.
pub fn decode_payload(bytes: &[u8]) -> Result<Frame, ProtocolError> {
    let mut r = WireReader::new(bytes);
    let frame = match r.get_u8("frame.tag")? {
        1 => Frame::Hello {
            version: r.get_u32("hello.version")?,
        },
        2 => Frame::Task {
            id: r.get_u64("task.id")?,
            shard: r.get_u32("task.shard")?,
            shards: r.get_u32("task.shards")?,
            heartbeat_ms: r.get_u32("task.heartbeat_ms")?,
            spec: r.get_str("task.spec")?,
            want_stats: r.get_bool("task.want_stats")?,
            trace_request: r.get_u64("task.trace_request")?,
            trace_parent: r.get_u64("task.trace_parent")?,
        },
        3 => Frame::Heartbeat {
            id: r.get_u64("hb.id")?,
            seq: r.get_u64("hb.seq")?,
        },
        4 => {
            let id = r.get_u64("done.id")?;
            let n = r.get_count("done.count")?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                results.push(decode_exp_result(&mut r)?);
            }
            Frame::TaskDone { id, results }
        }
        5 => Frame::TaskFailed {
            id: r.get_u64("failed.id")?,
            message: r.get_str("failed.message")?,
        },
        6 => Frame::Shutdown,
        7 => Frame::Stats {
            id: r.get_u64("stats.id")?,
            shard: r.get_u32("stats.shard")?,
            compile_nanos: r.get_u64("stats.compile_nanos")?,
            search_nanos: r.get_u64("stats.search_nanos")?,
            generated: r.get_u64("stats.generated")?,
            evaluated: r.get_u64("stats.evaluated")?,
            trace_request: r.get_u64("stats.trace_request")?,
            trace_parent: r.get_u64("stats.trace_parent")?,
        },
        tag => return Err(ProtocolError::UnknownTag(tag)),
    };
    if !r.is_done() {
        return Err(ProtocolError::TrailingBytes(r.remaining()));
    }
    Ok(frame)
}

/// Writes one frame (header + payload), flushing the stream.
pub fn write_frame(w: &mut dyn Write, frame: &Frame) -> std::io::Result<()> {
    write_frame_raw(w, frame, false)
}

/// [`write_frame`] with optional *payload corruption*: when `corrupt`
/// is set, one payload byte is flipped **after** the checksum is
/// computed — the fault-injection hook producing a frame the receiver
/// must reject with [`ProtocolError::BadChecksum`].
pub fn write_frame_raw(w: &mut dyn Write, frame: &Frame, corrupt: bool) -> std::io::Result<()> {
    let mut payload = encode_payload(frame);
    let sum = checksum(&payload);
    if corrupt {
        let mid = payload.len() / 2;
        payload[mid] ^= 0xA5;
    }
    w.write_all(&FRAME_MAGIC.to_le_bytes())?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&sum.to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()
}

/// Reads exactly `buf.len()` bytes; `Ok(false)` on clean EOF *before
/// the first byte*, an error on EOF mid-read.
fn read_exact_or_eof(r: &mut dyn Read, buf: &mut [u8]) -> Result<bool, ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(ProtocolError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame",
                )));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame; [`ProtocolError::Eof`] on clean end-of-stream at a
/// frame boundary.
pub fn read_frame(r: &mut dyn Read) -> Result<Frame, ProtocolError> {
    let mut header = [0u8; 16];
    if !read_exact_or_eof(r, &mut header)? {
        return Err(ProtocolError::Eof);
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != FRAME_MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::TooLarge(len));
    }
    let expected = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let mut payload = vec![0u8; len as usize];
    if !read_exact_or_eof(r, &mut payload)? && len > 0 {
        return Err(ProtocolError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "stream ended before payload",
        )));
    }
    let actual = checksum(&payload);
    if actual != expected {
        return Err(ProtocolError::BadChecksum { expected, actual });
    }
    decode_payload(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
            },
            Frame::Task {
                id: 42,
                shard: 1,
                shards: 3,
                heartbeat_ms: 20,
                spec: "scenario:\n  name: demo\n".into(),
                want_stats: true,
                trace_request: 900,
                trace_parent: 31,
            },
            Frame::Heartbeat { id: 42, seq: 7 },
            Frame::Stats {
                id: 42,
                shard: 1,
                compile_nanos: 1_234,
                search_nanos: 56_789,
                generated: 100,
                evaluated: 73,
                trace_request: 900,
                trace_parent: 31,
            },
            Frame::TaskDone {
                id: 42,
                results: vec![
                    ExpResult::Skipped,
                    ExpResult::NoWinner {
                        stats: SearchStats {
                            generated: 5,
                            pruned: 2,
                            evaluated: 0,
                            invalid: 3,
                        },
                    },
                ],
            },
            Frame::TaskFailed {
                id: 42,
                message: "spec:2:3: unknown key".into(),
            },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn frames_roundtrip_through_a_pipe() {
        let mut buf = Vec::new();
        for f in sample_frames() {
            write_frame(&mut buf, &f).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for f in sample_frames() {
            let got = read_frame(&mut cursor).unwrap();
            assert_eq!(got, f);
        }
        assert!(matches!(read_frame(&mut cursor), Err(ProtocolError::Eof)));
    }

    #[test]
    fn v2_task_round_trips_want_stats() {
        for want_stats in [false, true] {
            let frame = Frame::Task {
                id: 1,
                shard: 0,
                shards: 1,
                heartbeat_ms: 0,
                spec: "s".into(),
                want_stats,
                trace_request: 7,
                trace_parent: 3,
            };
            let got = decode_payload(&encode_payload(&frame)).unwrap();
            assert_eq!(got, frame);
        }
    }

    #[test]
    fn retired_ping_and_pong_tags_are_unknown() {
        // v4's Ping (8) and Pong (9), each with its u64 sequence number
        for tag in [8u8, 9] {
            let mut payload = vec![tag];
            payload.extend_from_slice(&11u64.to_le_bytes());
            assert!(
                matches!(decode_payload(&payload), Err(ProtocolError::UnknownTag(t)) if t == tag),
                "tag {tag} must not decode"
            );
        }
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut buf = Vec::new();
        write_frame_raw(
            &mut buf,
            &Frame::Heartbeat { id: 1, seq: 2 },
            /* corrupt */ true,
        )
        .unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Shutdown).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = std::io::Cursor::new(buf);
        match read_frame(&mut cursor) {
            Err(ProtocolError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("expected mid-frame EOF error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Shutdown).unwrap();
        buf[0] ^= 0xFF;
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::BadMagic(_))
        ));
    }

    #[test]
    fn oversized_length_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::TooLarge(_))
        ));
    }

    /// A `TaskDone` carrying a real winning mapping.
    fn winner_frame() -> Frame {
        use sparseloop_arch::{ArchitectureBuilder, ComputeSpec, StorageLevel};
        use sparseloop_tensor::einsum::Einsum;
        let e = Einsum::matmul(4, 4, 4);
        let a = ArchitectureBuilder::new("t")
            .level(StorageLevel::new("DRAM"))
            .level(StorageLevel::new("Buf"))
            .compute(ComputeSpec::new("MAC", 1))
            .build()
            .unwrap();
        let mapping = sparseloop_mapping::Mapspace::all_temporal(&e, &a)
            .enumerate(1)
            .remove(0);
        Frame::TaskDone {
            id: 9,
            results: vec![ExpResult::Winner {
                value: f64::from_bits(0x3FF0_0000_0000_0001),
                key: CandidateKey { block: 2, rank: 17 },
                stats: SearchStats {
                    generated: 10,
                    pruned: 1,
                    evaluated: 8,
                    invalid: 1,
                },
                mapping,
            }],
        }
    }

    #[test]
    fn winner_results_cross_bit_identically() {
        let frame = winner_frame();
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let got = read_frame(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(got, frame);
        if let (Frame::TaskDone { results: a, .. }, Frame::TaskDone { results: b, .. }) =
            (&got, &frame)
        {
            if let (ExpResult::Winner { value: va, .. }, ExpResult::Winner { value: vb, .. }) =
                (&a[0], &b[0])
            {
                assert_eq!(va.to_bits(), vb.to_bits());
            } else {
                panic!("expected winners");
            }
        }
    }

    #[test]
    fn decoder_is_exact_and_never_panics() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let decodes_without_panic = |bytes: &[u8]| {
            let outcome = std::panic::catch_unwind(|| decode_payload(bytes).is_ok());
            assert!(outcome.is_ok(), "decoder panicked on {bytes:?}");
        };
        let mut frames = sample_frames();
        frames.push(winner_frame());
        let payloads: Vec<Vec<u8>> = frames.iter().map(encode_payload).collect();
        for (frame, payload) in frames.iter().zip(&payloads) {
            assert_eq!(&decode_payload(payload).unwrap(), frame);
            for cut in 0..payload.len() {
                assert!(
                    decode_payload(&payload[..cut]).is_err(),
                    "{frame:?}: a {cut}-byte prefix decoded"
                );
            }
            let mut longer = payload.clone();
            longer.push(0);
            assert!(
                matches!(
                    decode_payload(&longer),
                    Err(ProtocolError::TrailingBytes(1))
                ),
                "{frame:?}: a trailing byte was accepted"
            );
        }

        let mut rng = StdRng::seed_from_u64(0x5EED_F8A3);
        for _ in 0..10_000 {
            // mostly known tags, so the bodies get decoded too
            let len = rng.gen_range(1..96usize);
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
            bytes[0] = rng.gen_range(0..12u32) as u8;
            decodes_without_panic(&bytes);
        }
        // every byte of every valid payload nudged by ±1 (off-by-one
        // counts and lengths) and by one random amount
        for payload in &payloads {
            for at in 0..payload.len() {
                for delta in [1, 255, rng.gen_range(1..256u32) as u8] {
                    let mut bytes = payload.clone();
                    bytes[at] = bytes[at].wrapping_add(delta);
                    decodes_without_panic(&bytes);
                }
            }
        }
    }
}
