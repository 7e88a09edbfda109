//! Structured tracing spans in a bounded ring buffer.
//!
//! Each request gets a process-unique id at admission; every stage it passes
//! through records a [`TraceEvent`] (kind + start + duration + optional
//! shard). The buffer is a fixed-capacity ring: when full, the oldest events
//! are dropped and counted, so tracing can stay on permanently without
//! unbounded memory growth.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Which stage of the request lifecycle a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Time between admission into the bounded queue and a worker popping it.
    QueueWait,
    /// In-process evaluation inside `EvalSession` (compile + search).
    SessionEval,
    /// One dispatch attempt of a shard to a fleet worker (send → result or
    /// death), as observed by the supervisor.
    ShardDispatch,
    /// Full round-trip of one request through the fleet (`ShardHost::run` entry to
    /// merged winner).
    WorkerRoundTrip,
    /// Worker-side: compiling the spec into an evaluation plan.
    WorkerCompile,
    /// Worker-side: sharded mapspace search.
    WorkerSearch,
    /// Waiting to check a pooled `ShardHost` out of the `FleetPool`.
    PoolCheckout,
}

impl SpanKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue_wait",
            SpanKind::SessionEval => "session_eval",
            SpanKind::ShardDispatch => "shard_dispatch",
            SpanKind::WorkerRoundTrip => "worker_round_trip",
            SpanKind::WorkerCompile => "worker_compile",
            SpanKind::WorkerSearch => "worker_search",
            SpanKind::PoolCheckout => "pool_checkout",
        }
    }
}

/// One completed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Process-unique request id (0 when the producer has no request scope).
    pub request_id: u64,
    /// Process-unique span id (0 = unassigned, for legacy flat spans).
    pub span_id: u64,
    /// Span id of the causal parent within the same request; 0 = root.
    pub parent_span_id: u64,
    pub kind: SpanKind,
    /// Shard index for per-shard spans, `None` for request-scoped ones.
    pub shard: Option<u32>,
    /// Span start, in the owning hub's clock domain (nanoseconds).
    pub start_nanos: u64,
    pub duration_nanos: u64,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// Fixed-capacity span sink. `record` is O(1); `events` copies out.
#[derive(Debug)]
pub struct TraceBuffer {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl TraceBuffer {
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Mutex::new(Ring::default()),
            capacity: capacity.max(1),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn record(&self, event: TraceEvent) {
        let mut ring = self.ring.lock().expect("trace buffer poisoned");
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Oldest-first copy of the retained events.
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.ring.lock().expect("trace buffer poisoned");
        ring.events.iter().copied().collect()
    }

    /// Oldest-first copy of the retained events belonging to one request.
    pub fn events_for(&self, request_id: u64) -> Vec<TraceEvent> {
        let ring = self.ring.lock().expect("trace buffer poisoned");
        ring.events
            .iter()
            .filter(|e| e.request_id == request_id)
            .copied()
            .collect()
    }

    /// Number of events evicted to make room since construction.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("trace buffer poisoned").dropped
    }

    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .expect("trace buffer poisoned")
            .events
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human-readable span table: one line per event, oldest first, plus a
    /// drop summary. Used by `sparseloop stats`.
    pub fn render_text(&self) -> String {
        let events = self.events();
        let dropped = self.dropped();
        let mut out = String::new();
        out.push_str(&format!(
            "# traces: {} retained, {} dropped (capacity {})\n",
            events.len(),
            dropped,
            self.capacity
        ));
        for ev in &events {
            let shard = match ev.shard {
                Some(s) => format!(" shard={s}"),
                None => String::new(),
            };
            out.push_str(&format!(
                "req={:<6} {:<17} start={}ns dur={}ns{}\n",
                ev.request_id,
                ev.kind.as_str(),
                ev.start_nanos,
                ev.duration_nanos,
                shard
            ));
        }
        out
    }

    /// Causally-ordered span tree for one request (see
    /// [`render_span_tree`]).
    pub fn render_tree(&self, request_id: u64) -> String {
        render_span_tree(request_id, &self.events_for(request_id))
    }
}

/// Renders one request's spans as an indented tree: roots are spans with
/// `parent_span_id == 0` (or whose parent was evicted from the ring —
/// they stay visible rather than vanish), children nest under their
/// parent, and siblings sort by start time. Each line carries the span
/// kind, shard (when scoped), ids, start, and duration, so the output
/// reads as a per-request timeline: queue wait → session eval → fleet
/// checkout → per-shard dispatch (retries included) → worker phases.
pub fn render_span_tree(request_id: u64, events: &[TraceEvent]) -> String {
    use std::collections::HashSet;

    let known: HashSet<u64> = events
        .iter()
        .filter(|e| e.span_id != 0)
        .map(|e| e.span_id)
        .collect();
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].start_nanos, events[i].span_id));
    let is_root = |e: &TraceEvent| {
        e.parent_span_id == 0 || e.parent_span_id == e.span_id || !known.contains(&e.parent_span_id)
    };

    fn write_node(
        out: &mut String,
        events: &[TraceEvent],
        order: &[usize],
        idx: usize,
        prefix: &str,
        last: bool,
        visited: &mut std::collections::HashSet<u64>,
    ) {
        let ev = &events[idx];
        let branch = if last { "└─ " } else { "├─ " };
        let shard = match ev.shard {
            Some(s) => format!(" shard={s}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "{prefix}{branch}{}{} span={} start={}ns dur={}ns\n",
            ev.kind.as_str(),
            shard,
            ev.span_id,
            ev.start_nanos,
            ev.duration_nanos
        ));
        if ev.span_id == 0 || !visited.insert(ev.span_id) {
            return; // unassigned ids can't parent; cycles stop here
        }
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        let children: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| i != idx && events[i].parent_span_id == ev.span_id)
            .collect();
        for (n, &child) in children.iter().enumerate() {
            write_node(
                out,
                events,
                order,
                child,
                &child_prefix,
                n + 1 == children.len(),
                visited,
            );
        }
    }

    let mut out = format!("request {request_id} ({} spans)\n", events.len());
    let roots: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| is_root(&events[i]))
        .collect();
    let mut visited = HashSet::new();
    for (n, &root) in roots.iter().enumerate() {
        write_node(
            &mut out,
            events,
            &order,
            root,
            "",
            n + 1 == roots.len(),
            &mut visited,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, start: u64) -> TraceEvent {
        TraceEvent {
            request_id: id,
            span_id: 0,
            parent_span_id: 0,
            kind: SpanKind::QueueWait,
            shard: None,
            start_nanos: start,
            duration_nanos: 10,
        }
    }

    fn span(req: u64, id: u64, parent: u64, kind: SpanKind, start: u64) -> TraceEvent {
        TraceEvent {
            request_id: req,
            span_id: id,
            parent_span_id: parent,
            kind,
            shard: None,
            start_nanos: start,
            duration_nanos: 5,
        }
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let buf = TraceBuffer::new(3);
        for i in 0..5 {
            buf.record(ev(i, i * 100));
        }
        let events = buf.events();
        assert_eq!(events.len(), 3);
        assert_eq!(buf.dropped(), 2);
        assert_eq!(
            events.iter().map(|e| e.request_id).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn render_includes_kind_and_shard() {
        let buf = TraceBuffer::new(8);
        buf.record(TraceEvent {
            request_id: 7,
            span_id: 0,
            parent_span_id: 0,
            kind: SpanKind::ShardDispatch,
            shard: Some(2),
            start_nanos: 100,
            duration_nanos: 50,
        });
        let text = buf.render_text();
        assert!(text.contains("shard_dispatch"));
        assert!(text.contains("shard=2"));
        assert!(text.contains("req=7"));
    }

    #[test]
    fn capacity_is_at_least_one() {
        let buf = TraceBuffer::new(0);
        buf.record(ev(1, 0));
        buf.record(ev(2, 0));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.dropped(), 1);
    }

    #[test]
    fn events_for_filters_by_request() {
        let buf = TraceBuffer::new(8);
        buf.record(ev(1, 0));
        buf.record(ev(2, 10));
        buf.record(ev(1, 20));
        let mine = buf.events_for(1);
        assert_eq!(mine.len(), 2);
        assert!(mine.iter().all(|e| e.request_id == 1));
    }

    #[test]
    fn tree_nests_children_under_parents_sorted_by_start() {
        let buf = TraceBuffer::new(16);
        // recorded out of causal order on purpose
        buf.record(span(9, 30, 10, SpanKind::WorkerSearch, 400));
        buf.record(span(9, 1, 0, SpanKind::QueueWait, 0));
        buf.record(span(9, 2, 0, SpanKind::SessionEval, 100));
        buf.record(span(9, 10, 2, SpanKind::ShardDispatch, 200));
        buf.record(span(9, 20, 10, SpanKind::WorkerCompile, 300));
        let text = buf.render_tree(9);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "request 9 (5 spans)");
        // roots in start order; children indented under their parent
        let at = |needle: &str| {
            lines
                .iter()
                .position(|l| l.contains(needle))
                .unwrap_or_else(|| panic!("{needle} missing from:\n{text}"))
        };
        assert!(at("queue_wait") < at("session_eval"));
        assert!(at("shard_dispatch") > at("session_eval"));
        assert!(at("worker_compile") > at("shard_dispatch"));
        assert!(at("worker_search") > at("worker_compile"), "start order");
        let depth = |needle: &str| {
            lines[at(needle)]
                .find("├─")
                .or(lines[at(needle)].find("└─"))
        };
        assert!(depth("shard_dispatch") > depth("session_eval"));
        assert!(depth("worker_compile") > depth("shard_dispatch"));
        assert_eq!(depth("worker_search"), depth("worker_compile"));
    }

    #[test]
    fn tree_keeps_orphans_visible_as_roots() {
        // parent span evicted from the ring: the child must still render
        let buf = TraceBuffer::new(16);
        buf.record(span(3, 50, 49, SpanKind::WorkerCompile, 10));
        let text = buf.render_tree(3);
        assert!(text.contains("worker_compile"), "{text}");
        assert!(text.starts_with("request 3 (1 spans)"), "{text}");
    }
}
