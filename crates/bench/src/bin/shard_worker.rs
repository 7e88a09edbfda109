//! The shard-worker executable spawned by the multi-process serving
//! layer ([`sparseloop_serve::ShardHost`] via
//! [`sparseloop_serve::ProcessSpawner`]).
//!
//! It speaks the length-prefixed frame protocol on stdin/stdout: the
//! parent sends spec text plus a shard assignment, the worker compiles
//! the spec, walks its shard of every search experiment, and streams
//! heartbeats followed by the shard's winners. All behaviour — the
//! handshake and the task loop — lives in
//! [`sparseloop_serve::worker_main`]; this binary only provides the
//! process boundary. It reads no environment: injected faults are
//! executed by the parent, on its end of the frame stream.

fn main() {
    sparseloop_serve::worker_main();
}
