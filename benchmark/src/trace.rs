//! Spans recorded by the benchmark's own code around each call into a
//! layer (spans *inside* the program are a later change — ROADMAP item 1).
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the request it belongs to. Spans stay in memory and are written out
//! when the run ends. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One completed span. Ids start at 1; parent 0 means "root".
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Request id, unique within the run (pass number × requests + slot).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The in-memory span sink of a traced run.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<(u32, Vec<Span>)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            inner: Mutex::new((0, Vec::new())),
        }
    }

    fn open(&self) -> (u32, u64) {
        let mut inner = self.inner.lock().expect("tracer poisoned");
        inner.0 += 1;
        (inner.0, self.epoch.elapsed().as_nanos() as u64)
    }

    fn close(&self, span: Span) {
        self.inner.lock().expect("tracer poisoned").1.push(span);
    }

    /// The spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().expect("tracer poisoned").1.clone()
    }
}

/// Runs `f` inside a span when `tracer` is attached, bare otherwise — the
/// measured runs pass `None` and pay one branch. `f` receives its own span
/// id to parent its children under (0 when untraced).
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u32,
    request: u64,
    f: impl FnOnce(u32) -> T,
) -> T {
    let Some(tracer) = tracer else {
        return f(0);
    };
    let (id, start_ns) = tracer.open();
    let out = f(id);
    let end_ns = tracer.epoch.elapsed().as_nanos() as u64;
    tracer.close(Span {
        id,
        parent,
        request,
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the length of the
/// union of its children's intervals (clipped to the span, so a child
/// that overruns its parent cannot drive self time negative).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let layer = out.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += duration;
        layer.self_ns += duration - covered.min(duration);
    }
    out
}

/// The span file: every span, plus the self-time table.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("clock", Json::Str("ns since the traced phase began".into())),
        (
            "self_time_ns",
            Json::obj(self_times(spans).into_iter().map(|(name, t)| {
                (
                    name,
                    Json::obj([
                        ("count", Json::Num(t.count as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("self_ns", Json::Num(t.self_ns as f64)),
                    ]),
                )
            })),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("id", Json::Num(f64::from(s.id))),
                            ("parent", Json::Num(f64::from(s.parent))),
                            ("request", Json::Num(s.request as f64)),
                            ("name", Json::Str(s.name.to_string())),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            s(1, 0, "request", 0, 100),
            s(2, 1, "compile", 10, 30),
            s(3, 1, "run", 30, 90),
            s(4, 3, "search", 40, 80),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"].self_ns, 100 - 20 - 60);
        assert_eq!(t["compile"].self_ns, 20);
        assert_eq!(t["run"].self_ns, 60 - 40);
        assert_eq!(t["search"].self_ns, 40);
        // self times of a tree add up to the root's duration
        assert_eq!(t.values().map(|l| l.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overrunning_children_are_counted_once_and_clipped() {
        let spans = [
            s(1, 0, "wait", 0, 100),
            // two concurrent children covering 20..70 between them
            s(2, 1, "shard", 20, 60),
            s(3, 1, "shard", 40, 70),
            // a child that ends after its parent
            s(4, 1, "late", 90, 130),
        ];
        let t = self_times(&spans);
        assert_eq!(t["wait"].self_ns, 100 - 50 - 10);
        assert_eq!(t["shard"].count, 2);
        assert_eq!(t["shard"].total_ns, 70);
    }

    #[test]
    fn spans_nest_through_the_closure_id_and_vanish_when_untraced() {
        let tracer = Tracer::new();
        let out = span(Some(&tracer), "outer", 0, 7, |outer| {
            span(Some(&tracer), "inner", outer, 7, |inner| {
                assert_ne!(inner, outer);
                41
            }) + 1
        });
        assert_eq!(out, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(span(None, "x", 0, 0, |id| id), 0);
    }

    #[test]
    fn span_file_lists_every_span() {
        let spans = [s(1, 0, "request", 0, 10), s(2, 1, "compile", 2, 5)];
        let doc = to_json("search_cold", &spans);
        assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
        match doc.get("spans") {
            Some(Json::Arr(items)) => assert_eq!(items.len(), 2),
            other => panic!("spans: {other:?}"),
        }
        let compile = doc.get("self_time_ns").unwrap().get("compile").unwrap();
        assert_eq!(compile.get("self_ns").and_then(Json::as_f64), Some(3.0));
    }
}
