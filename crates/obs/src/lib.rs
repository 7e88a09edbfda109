//! # sparseloop-obs — observability layer for the serving stack
//!
//! Dependency-free metrics + tracing shared by every crate in the workspace:
//!
//! - [`MetricsRegistry`]: named counters, gauges, and fixed-bucket histograms.
//!   Registration interns names/labels into `&'static str` behind a mutex;
//!   the returned handles update via relaxed atomics, so the hot path is
//!   lock-free. [`MetricsRegistry::snapshot`] freezes everything into a
//!   [`MetricsSnapshot`] that renders Prometheus-style text exposition
//!   ([`MetricsSnapshot::render_text`]) and parses it back
//!   ([`MetricsSnapshot::parse_text`]) so smoke tests can assert invariants
//!   against the exact scraped bytes.
//! - [`TraceBuffer`]: bounded ring of [`TraceEvent`] spans following a request
//!   id through queue wait → session eval → shard dispatch → worker
//!   round-trip, including worker-side compile/search phases shipped back
//!   over the frame protocol.
//! - [`Clock`]: injectable time source. Production uses [`MonotonicClock`];
//!   tests use [`ManualClock`] for fully deterministic durations.
//! - [`ObsHub`]: the `(registry, traces, clock)` bundle the serving layers
//!   accept. It is `Clone` (all `Arc`s), cheap to thread through constructors,
//!   and optional everywhere — uninstrumented paths pay only an `Option`
//!   check.
//!
//! The metric catalog (names, types, labels) lives in the README's
//! "Observability" section; the serving crates own the catalog, this crate
//! owns the mechanism.

mod clock;
pub mod http;
mod metrics;
pub mod recorder;
mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use http::{HealthStatus, ObsServer, ObsServerHooks};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, ParsedSnapshot,
    Sample, SampleValue, LATENCY_BUCKETS_NANOS,
};
pub use recorder::{
    FlightRecorder, RecordedRequest, RecordedSummary, RecorderConfig, RequestOutcome,
};
pub use trace::{render_span_tree, SpanKind, TraceBuffer, TraceEvent};

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Default trace ring capacity for [`ObsHub::new`].
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// Propagated trace scope: which request a unit of work belongs to and
/// which span it should parent under. Crosses the process boundary in
/// protocol-v3 `Task`/`Stats` frames; `Default` (all zeros) means
/// "untraced".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Originating request id (0 = none).
    pub request_id: u64,
    /// Span id new child spans should parent under (0 = root).
    pub parent_span_id: u64,
}

/// Shared observability context: one metrics registry, one trace ring, one
/// flight recorder, one clock, and process-unique request/span-id
/// allocators.
#[derive(Clone, Debug)]
pub struct ObsHub {
    registry: Arc<MetricsRegistry>,
    traces: Arc<TraceBuffer>,
    recorder: Arc<FlightRecorder>,
    clock: Arc<dyn Clock>,
    next_request_id: Arc<AtomicU64>,
    next_span_id: Arc<AtomicU64>,
    protocol_version: Arc<AtomicU32>,
    started_nanos: u64,
}

impl ObsHub {
    /// Hub with a monotonic clock and the default trace capacity.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()), DEFAULT_TRACE_CAPACITY)
    }

    /// Hub with an explicit clock (tests inject [`ManualClock`]) and trace
    /// ring capacity.
    pub fn with_clock(clock: Arc<dyn Clock>, trace_capacity: usize) -> Self {
        let started_nanos = clock.now_nanos();
        Self {
            registry: Arc::new(MetricsRegistry::new()),
            traces: Arc::new(TraceBuffer::new(trace_capacity)),
            recorder: Arc::new(FlightRecorder::new(RecorderConfig::default())),
            clock,
            next_request_id: Arc::new(AtomicU64::new(1)),
            next_span_id: Arc::new(AtomicU64::new(1)),
            protocol_version: Arc::new(AtomicU32::new(0)),
            started_nanos,
        }
    }

    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub fn traces(&self) -> &TraceBuffer {
        &self.traces
    }

    /// The tail-sampling flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Current reading of the hub clock, nanoseconds.
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Shared handle to the hub clock, for components (e.g. circuit breakers)
    /// that need a time source outliving individual calls.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Allocate the next request id (starts at 1; 0 means "no request").
    pub fn next_request_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate the next span id (starts at 1; 0 means "root / none").
    pub fn next_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a completed root span ending now. Returns its span id.
    pub fn span(
        &self,
        request_id: u64,
        kind: SpanKind,
        shard: Option<u32>,
        start_nanos: u64,
    ) -> u64 {
        self.span_in(request_id, kind, shard, start_nanos, 0)
    }

    /// Record a completed span ending now, parented under
    /// `parent_span_id` (0 = root). Returns its span id.
    pub fn span_in(
        &self,
        request_id: u64,
        kind: SpanKind,
        shard: Option<u32>,
        start_nanos: u64,
        parent_span_id: u64,
    ) -> u64 {
        let now = self.now_nanos();
        let span_id = self.next_span_id();
        self.traces.record(TraceEvent {
            request_id,
            span_id,
            parent_span_id,
            kind,
            shard,
            start_nanos,
            duration_nanos: now.saturating_sub(start_nanos),
        });
        span_id
    }

    /// Record a span with an explicit duration (for worker-side timings that
    /// arrive over the wire in the worker's clock domain), parented under
    /// `parent_span_id`. Returns its span id.
    pub fn span_with_duration(
        &self,
        request_id: u64,
        kind: SpanKind,
        shard: Option<u32>,
        start_nanos: u64,
        duration_nanos: u64,
        parent_span_id: u64,
    ) -> u64 {
        let span_id = self.next_span_id();
        self.traces.record(TraceEvent {
            request_id,
            span_id,
            parent_span_id,
            kind,
            shard,
            start_nanos,
            duration_nanos,
        });
        span_id
    }

    /// Record a completed span with a *pre-allocated* span id — for
    /// spans whose id was handed to children (e.g. over the wire)
    /// before the span itself finished.
    #[allow(clippy::too_many_arguments)]
    pub fn span_with_id(
        &self,
        request_id: u64,
        span_id: u64,
        parent_span_id: u64,
        kind: SpanKind,
        shard: Option<u32>,
        start_nanos: u64,
    ) {
        let now = self.now_nanos();
        self.traces.record(TraceEvent {
            request_id,
            span_id,
            parent_span_id,
            kind,
            shard,
            start_nanos,
            duration_nanos: now.saturating_sub(start_nanos),
        });
    }

    /// Open an RAII span: the id is allocated now (so children — local
    /// or cross-process — can parent under it while it is running) and
    /// the event is recorded when the guard drops.
    pub fn start_span(
        &self,
        request_id: u64,
        kind: SpanKind,
        shard: Option<u32>,
        parent_span_id: u64,
    ) -> SpanGuard {
        SpanGuard {
            hub: self.clone(),
            request_id,
            kind,
            shard,
            parent_span_id,
            span_id: self.next_span_id(),
            start_nanos: self.now_nanos(),
        }
    }

    /// Declares the frame-protocol version this process speaks, so the
    /// `sparseloop_build_info` gauge self-identifies (the serving crate
    /// owns the constant; the hub only reports it).
    pub fn set_protocol_version(&self, version: u32) {
        self.protocol_version.store(version, Ordering::Relaxed);
    }

    /// Freeze the registry. Every snapshot self-identifies: a
    /// `sparseloop_build_info{version,protocol}` gauge (constant 1) and
    /// a `sparseloop_uptime_seconds` gauge are refreshed first.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let protocol = self.protocol_version.load(Ordering::Relaxed).to_string();
        self.registry
            .gauge(
                "sparseloop_build_info",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("protocol", &protocol),
                ],
            )
            .set(1);
        let uptime = self.now_nanos().saturating_sub(self.started_nanos) / 1_000_000_000;
        self.registry
            .gauge("sparseloop_uptime_seconds", &[])
            .set_u64(uptime);
        self.registry.snapshot()
    }
}

/// RAII span handle from [`ObsHub::start_span`]: exposes its span id for
/// parenting children, records the completed span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    hub: ObsHub,
    request_id: u64,
    kind: SpanKind,
    shard: Option<u32>,
    parent_span_id: u64,
    span_id: u64,
    start_nanos: u64,
}

impl SpanGuard {
    /// This span's id — children parent under it.
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// Trace context for work nested under this span.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            request_id: self.request_id,
            parent_span_id: self.span_id,
        }
    }

    /// The guard's start time (hub clock).
    pub fn start_nanos(&self) -> u64 {
        self.start_nanos
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.hub.span_with_id(
            self.request_id,
            self.span_id,
            self.parent_span_id,
            self.kind,
            self.shard,
            self.start_nanos,
        );
    }
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_spans_use_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let hub = ObsHub::with_clock(clock.clone(), 16);
        let start = hub.now_nanos();
        clock.advance(500);
        hub.span(1, SpanKind::SessionEval, None, start);
        let events = hub.traces().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].duration_nanos, 500);
        assert_eq!(events[0].start_nanos, 0);
    }

    #[test]
    fn request_ids_are_unique_and_nonzero() {
        let hub = ObsHub::new();
        let a = hub.next_request_id();
        let b = hub.next_request_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn clones_share_state() {
        let hub = ObsHub::new();
        let clone = hub.clone();
        hub.registry().counter("shared_total", &[]).add(2);
        clone.registry().counter("shared_total", &[]).inc();
        assert_eq!(hub.snapshot().value("shared_total", &[]), Some(3));
    }

    #[test]
    fn span_guard_records_on_drop_with_hierarchy() {
        let clock = Arc::new(ManualClock::new());
        let hub = ObsHub::with_clock(clock.clone(), 16);
        let parent = hub.start_span(5, SpanKind::SessionEval, None, 0);
        let parent_id = parent.span_id();
        assert_ne!(parent_id, 0);
        {
            let child = hub.start_span(5, SpanKind::ShardDispatch, Some(1), parent_id);
            assert_eq!(child.context().request_id, 5);
            assert_eq!(child.context().parent_span_id, child.span_id());
            clock.advance(100);
        }
        clock.advance(50);
        drop(parent);
        let events = hub.traces().events_for(5);
        assert_eq!(events.len(), 2, "child recorded first (drop order)");
        let child = &events[0];
        let parent = &events[1];
        assert_eq!(child.parent_span_id, parent.span_id);
        assert_eq!(child.duration_nanos, 100);
        assert_eq!(parent.duration_nanos, 150);
        assert_eq!(parent.parent_span_id, 0);
        let tree = hub.traces().render_tree(5);
        assert!(tree.contains("shard_dispatch"), "{tree}");
    }

    #[test]
    fn snapshots_self_identify_with_build_info_and_uptime() {
        let clock = Arc::new(ManualClock::new());
        let hub = ObsHub::with_clock(clock.clone(), 16);
        hub.set_protocol_version(3);
        clock.advance(2_500_000_000);
        let snap = hub.snapshot();
        assert_eq!(
            snap.value(
                "sparseloop_build_info",
                &[("version", env!("CARGO_PKG_VERSION")), ("protocol", "3")]
            ),
            Some(1)
        );
        assert_eq!(snap.value("sparseloop_uptime_seconds", &[]), Some(2));
        let text = snap.render_text();
        assert!(text.contains("sparseloop_build_info{"), "{text}");
    }
}
