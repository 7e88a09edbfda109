//! Property-based audit of the flight recorder's tail-sampling
//! retention policy against a transparent reference model: random
//! completion scripts must keep exactly the interesting requests
//! (newest-first under eviction), cheap successes must never displace a
//! retained entry, and the bookkeeping counters must conserve every
//! offered request.

use proptest::prelude::*;
use sparseloop_obs::{
    FlightRecorder, RecordedRequest, RecorderConfig, RequestOutcome, SpanKind, TraceEvent,
};
use std::collections::VecDeque;

fn outcome_of(code: u32) -> RequestOutcome {
    match code % 7 {
        0 => RequestOutcome::Ok,
        1 => RequestOutcome::Error,
        2 => RequestOutcome::Shed,
        3 => RequestOutcome::Panicked,
        4 => RequestOutcome::Canceled,
        5 => RequestOutcome::Degraded,
        _ => RequestOutcome::DeadlineExceeded,
    }
}

/// One scripted completion: `(outcome code, latency, stray)`.
/// `stray` injects a span event belonging to a *different* request so
/// the filter-on-record invariant is exercised.
type Op = (u32, u64, bool);

/// The retention policy restated independently of the implementation:
/// a bounded FIFO of retained ids plus the two drop counters.
#[derive(Default)]
struct Model {
    ring: VecDeque<u64>,
    dropped_cheap: u64,
    evicted: u64,
}

impl Model {
    fn offer(&mut self, config: RecorderConfig, id: u64, op: Op) {
        let (code, latency, _) = op;
        let outcome = outcome_of(code);
        let interesting = outcome != RequestOutcome::Ok || latency >= config.slow_threshold_nanos;
        if !interesting {
            self.dropped_cheap += 1;
            return;
        }
        if self.ring.len() == config.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(id);
    }
}

fn span(request_id: u64, span_id: u64) -> TraceEvent {
    TraceEvent {
        request_id,
        span_id,
        parent_span_id: 0,
        kind: SpanKind::SessionEval,
        shard: None,
        start_nanos: 1,
        duration_nanos: 2,
    }
}

proptest! {
    /// Retained ids and order match the reference model after any
    /// script; counters conserve offers; the ring never overflows.
    #[test]
    fn retention_matches_reference_model(
        capacity in 1usize..6,
        threshold in 1u64..500,
        ops in proptest::collection::vec(
            (0u32..14, 0u64..1000, any::<bool>()),
            1..60,
        ),
    ) {
        let config = RecorderConfig { capacity, slow_threshold_nanos: threshold };
        let recorder = FlightRecorder::new(config);
        let mut model = Model::default();
        for (i, &op) in ops.iter().enumerate() {
            let id = i as u64 + 1;
            let (code, latency, stray) = op;
            let mut events = vec![span(id, 10 * id)];
            if stray {
                // an event from another request must be filtered out at
                // record time, never stored in this request's tree
                events.push(span(id + 1000, 10 * id + 1));
            }
            let retained = recorder.record(RecordedRequest {
                request_id: id,
                outcome: outcome_of(code),
                latency_nanos: latency,
                completed_nanos: latency,
                events,
            });
            model.offer(config, id, op);
            prop_assert_eq!(retained, model.ring.back() == Some(&id));
            prop_assert!(recorder.len() <= capacity);
        }
        let index = recorder.index();
        let got: Vec<u64> = index.iter().map(|s| s.request_id).collect();
        let want: Vec<u64> = model.ring.iter().copied().collect();
        prop_assert_eq!(got, want, "retained ids, oldest first");
        prop_assert_eq!(recorder.dropped_cheap(), model.dropped_cheap);
        prop_assert_eq!(recorder.evicted(), model.evicted);
        // conservation: every offer either retained-now, evicted, or cheap
        prop_assert_eq!(
            recorder.len() as u64 + recorder.evicted() + recorder.dropped_cheap(),
            ops.len() as u64
        );
        // stored trees are internally consistent: only the owning
        // request's events survive, and `get` finds each retained id
        for summary in &index {
            let stored = recorder.get(summary.request_id).expect("indexed id resolves");
            prop_assert!(stored.events.iter().all(|e| e.request_id == summary.request_id));
            prop_assert_eq!(stored.events.len(), 1, "stray span filtered");
        }
    }

    /// A cheap success never changes the retained set, no matter how
    /// full the ring is — tail sampling drops at the gate, it does not
    /// displace.
    #[test]
    fn cheap_success_never_displaces(
        capacity in 1usize..5,
        interesting in proptest::collection::vec(0u64..1000, 0..8),
    ) {
        let config = RecorderConfig { capacity, slow_threshold_nanos: 100 };
        let recorder = FlightRecorder::new(config);
        for (i, &latency) in interesting.iter().enumerate() {
            recorder.record(RecordedRequest {
                request_id: i as u64 + 1,
                outcome: RequestOutcome::Error,
                latency_nanos: latency,
                completed_nanos: latency,
                events: vec![],
            });
        }
        let before: Vec<u64> = recorder.index().iter().map(|s| s.request_id).collect();
        let evicted_before = recorder.evicted();
        let retained = recorder.record(RecordedRequest {
            request_id: 9999,
            outcome: RequestOutcome::Ok,
            latency_nanos: 99, // under threshold
            completed_nanos: 99,
            events: vec![],
        });
        let after: Vec<u64> = recorder.index().iter().map(|s| s.request_id).collect();
        prop_assert!(!retained);
        prop_assert_eq!(before, after);
        prop_assert_eq!(recorder.evicted(), evicted_before);
    }
}
