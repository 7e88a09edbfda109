//! Tail-sampling flight recorder: a bounded ring of complete
//! per-request span trees for the requests worth debugging.
//!
//! Aggregate metrics say *that* tail latency moved; they cannot replay
//! *why one request* was slow. The recorder keeps the full span tree
//! plus terminal outcome for exactly the interesting tail — requests
//! that were slow (latency over [`RecorderConfig::slow_threshold_nanos`]),
//! errored, shed, panicked, canceled, deadline-expired, or
//! breaker-degraded. Cheap successful requests are dropped *at
//! completion* (tail-based sampling: the decision is made when the
//! outcome is known, not at admission), so retention cost stays bounded
//! while the interesting ~1% survives for `/traces` queries.

use crate::trace::{render_span_tree, TraceEvent};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Terminal outcome of a request, as seen by the serving layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestOutcome {
    /// Completed successfully within threshold expectations.
    Ok,
    /// Resolved with a structured error (invalid spec, unknown
    /// scenario, fleet task failure surfaced to the caller).
    Error,
    /// Shed by admission control (watermark or displacement).
    Shed,
    /// The evaluating worker panicked (contained).
    Panicked,
    /// Canceled by the caller or an expired service deadline.
    Canceled,
    /// Served degraded: the fleet fell back to in-process execution
    /// (breaker open, unspawnable workers, or fleet machinery failure).
    Degraded,
    /// A fleet deadline expired mid-request.
    DeadlineExceeded,
}

impl RequestOutcome {
    pub fn as_str(self) -> &'static str {
        match self {
            RequestOutcome::Ok => "ok",
            RequestOutcome::Error => "error",
            RequestOutcome::Shed => "shed",
            RequestOutcome::Panicked => "panicked",
            RequestOutcome::Canceled => "canceled",
            RequestOutcome::Degraded => "degraded",
            RequestOutcome::DeadlineExceeded => "deadline",
        }
    }
}

/// Retention policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Retained requests (ring capacity, `>= 1`).
    pub capacity: usize,
    /// A successful request at or above this latency is retained anyway.
    pub slow_threshold_nanos: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            capacity: 64,
            slow_threshold_nanos: 100_000_000, // 100ms
        }
    }
}

/// One retained request: terminal outcome plus its complete span tree.
#[derive(Clone, Debug)]
pub struct RecordedRequest {
    pub request_id: u64,
    pub outcome: RequestOutcome,
    /// Admission-to-resolution latency in the hub's clock domain.
    pub latency_nanos: u64,
    /// Hub-clock completion time.
    pub completed_nanos: u64,
    /// The request's spans, oldest first (gathered from the trace ring
    /// at completion; events from other requests are filtered out).
    pub events: Vec<TraceEvent>,
}

impl RecordedRequest {
    /// The stored span tree, rendered like
    /// [`TraceBuffer::render_tree`](crate::TraceBuffer::render_tree).
    pub fn render_tree(&self) -> String {
        render_span_tree(self.request_id, &self.events)
    }
}

/// One line of the recorder index (`/traces`): everything but the tree.
#[derive(Clone, Debug)]
pub struct RecordedSummary {
    pub request_id: u64,
    pub outcome: RequestOutcome,
    pub latency_nanos: u64,
    pub completed_nanos: u64,
    pub spans: usize,
}

#[derive(Debug, Default)]
struct Inner {
    ring: VecDeque<RecordedRequest>,
    dropped_cheap: u64,
    evicted: u64,
}

/// The flight recorder (see the [module docs](self)).
#[derive(Debug)]
pub struct FlightRecorder {
    config: RecorderConfig,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    pub fn new(mut config: RecorderConfig) -> Self {
        config.capacity = config.capacity.max(1);
        FlightRecorder {
            config,
            inner: Mutex::new(Inner::default()),
        }
    }

    pub fn config(&self) -> RecorderConfig {
        self.config
    }

    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// The retention decision, callable *before* paying to gather the
    /// span tree: cheap successful requests answer `false` and cost the
    /// completion path nothing beyond this check.
    pub fn should_retain(&self, outcome: RequestOutcome, latency_nanos: u64) -> bool {
        outcome != RequestOutcome::Ok || latency_nanos >= self.config.slow_threshold_nanos
    }

    /// Offer a completed request. Interesting requests (per
    /// [`should_retain`](Self::should_retain)) enter the ring — evicting
    /// the oldest retained entry when full; cheap requests are counted
    /// and dropped, never displacing anything. Returns whether the
    /// request was retained. Events from other requests are filtered
    /// out so stored trees stay internally consistent.
    pub fn record(&self, mut request: RecordedRequest) -> bool {
        if !self.should_retain(request.outcome, request.latency_nanos) {
            let mut inner = self.inner.lock().expect("flight recorder poisoned");
            inner.dropped_cheap += 1;
            return false;
        }
        request
            .events
            .retain(|e| e.request_id == request.request_id);
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        if inner.ring.len() == self.config.capacity {
            inner.ring.pop_front();
            inner.evicted += 1;
        }
        inner.ring.push_back(request);
        true
    }

    /// Retained requests right now.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .ring
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cheap completions dropped at the retention gate.
    pub fn dropped_cheap(&self) -> u64 {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .dropped_cheap
    }

    /// Retained entries evicted to make room for newer retained ones.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().expect("flight recorder poisoned").evicted
    }

    /// Newest retained entry for `request_id`, if still in the ring.
    pub fn get(&self, request_id: u64) -> Option<RecordedRequest> {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        inner
            .ring
            .iter()
            .rev()
            .find(|r| r.request_id == request_id)
            .cloned()
    }

    /// Index of retained requests, oldest first.
    pub fn index(&self) -> Vec<RecordedSummary> {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        inner
            .ring
            .iter()
            .map(|r| RecordedSummary {
                request_id: r.request_id,
                outcome: r.outcome,
                latency_nanos: r.latency_nanos,
                completed_nanos: r.completed_nanos,
                spans: r.events.len(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanKind;

    fn req(id: u64, outcome: RequestOutcome, latency: u64) -> RecordedRequest {
        RecordedRequest {
            request_id: id,
            outcome,
            latency_nanos: latency,
            completed_nanos: latency,
            events: Vec::new(),
        }
    }

    fn recorder(capacity: usize, slow: u64) -> FlightRecorder {
        FlightRecorder::new(RecorderConfig {
            capacity,
            slow_threshold_nanos: slow,
        })
    }

    #[test]
    fn cheap_requests_are_dropped_interesting_retained() {
        let rec = recorder(8, 1_000);
        assert!(
            !rec.record(req(1, RequestOutcome::Ok, 10)),
            "fast ok is cheap"
        );
        assert!(
            rec.record(req(2, RequestOutcome::Ok, 1_000)),
            "slow ok retained"
        );
        assert!(rec.record(req(3, RequestOutcome::Shed, 5)), "shed retained");
        assert!(rec.record(req(4, RequestOutcome::Panicked, 5)));
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped_cheap(), 1);
        assert!(rec.get(1).is_none());
        assert_eq!(rec.get(3).unwrap().outcome, RequestOutcome::Shed);
    }

    #[test]
    fn ring_evicts_oldest_retained_only_for_retained_arrivals() {
        let rec = recorder(2, 1_000);
        assert!(rec.record(req(1, RequestOutcome::Error, 5)));
        assert!(rec.record(req(2, RequestOutcome::Error, 5)));
        // a flood of cheap completions must never displace an error
        for i in 10..200 {
            assert!(!rec.record(req(i, RequestOutcome::Ok, 1)));
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.evicted(), 0);
        assert!(rec.get(1).is_some() && rec.get(2).is_some());
        // a retained arrival evicts the oldest retained entry
        assert!(rec.record(req(3, RequestOutcome::Canceled, 5)));
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.evicted(), 1);
        assert!(rec.get(1).is_none(), "oldest evicted");
        assert!(rec.get(2).is_some() && rec.get(3).is_some());
    }

    #[test]
    fn stored_events_are_scoped_to_the_request() {
        let rec = recorder(4, 1_000);
        let mut r = req(7, RequestOutcome::Error, 5);
        r.events = vec![
            TraceEvent {
                request_id: 7,
                span_id: 1,
                parent_span_id: 0,
                kind: SpanKind::SessionEval,
                shard: None,
                start_nanos: 0,
                duration_nanos: 5,
            },
            TraceEvent {
                request_id: 8, // stray event from another request
                span_id: 9,
                parent_span_id: 0,
                kind: SpanKind::QueueWait,
                shard: None,
                start_nanos: 0,
                duration_nanos: 5,
            },
        ];
        assert!(rec.record(r));
        let stored = rec.get(7).unwrap();
        assert_eq!(stored.events.len(), 1);
        assert_eq!(stored.events[0].request_id, 7);
        assert!(stored.render_tree().contains("session_eval"));
        let index = rec.index();
        assert_eq!(index.len(), 1);
        assert_eq!(index[0].spans, 1);
        assert_eq!(index[0].outcome, RequestOutcome::Error);
    }
}
