//! Metrics registry: named counters, gauges, and fixed-bucket histograms.
//!
//! Registration (name + label set → handle) goes through a mutex, but the
//! returned handles are `Arc`-shared atomics, so the hot path — `inc`, `add`,
//! `set`, `observe` — is lock-free. Label keys and values are interned into
//! `&'static str` the first time they are seen, so dynamic labels (a shard
//! index rendered as `"3"`) cost one leak per distinct value and nothing per
//! update. The interner is bounded in practice because label cardinality is
//! bounded (shard counts, outcome enums).
//!
//! [`MetricsRegistry::snapshot`] produces a point-in-time [`MetricsSnapshot`]
//! that renders to Prometheus-style text exposition and parses back via
//! [`MetricsSnapshot::parse_text`], which is what the smoke bins use to assert
//! cross-metric invariants on the exact bytes a scrape would see.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Histogram bucket upper bounds (inclusive, nanoseconds) for request-scale
/// latencies: 10µs … 10s, roughly 1-2.5-5 per decade.
pub const LATENCY_BUCKETS_NANOS: &[u64] = &[
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_500_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// Monotonically increasing event count.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time signed value (queue depth, cache sizes).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// `set` clamped from an unsigned source (lengths, counts).
    pub fn set_u64(&self, v: u64) {
        self.set(i64::try_from(v).unwrap_or(i64::MAX));
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds, strictly increasing; the final +Inf bucket is
    /// implicit (`buckets.len() == bounds.len() + 1`).
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// Fixed-bucket histogram of u64 samples (typically nanoseconds).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    pub fn observe(&self, value: u64) {
        let core = &self.0;
        let idx = core.bounds.partition_point(|&b| b < value);
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

/// Interned label pairs, sorted by key for a canonical series identity.
type LabelSet = Vec<(&'static str, &'static str)>;

#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug, Default)]
struct Inner {
    interned: HashSet<&'static str>,
    // BTreeMap keyed by (name, labels) gives deterministic exposition order.
    series: BTreeMap<(&'static str, LabelSet), Slot>,
}

impl Inner {
    fn intern(&mut self, s: &str) -> &'static str {
        match self.interned.get(s) {
            Some(&v) => v,
            None => {
                let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
                self.interned.insert(leaked);
                leaked
            }
        }
    }

    fn key(&mut self, name: &str, labels: &[(&str, &str)]) -> (&'static str, LabelSet) {
        let name = self.intern(name);
        let mut set: LabelSet = labels
            .iter()
            .map(|&(k, v)| (self.intern(k), self.intern(v)))
            .collect();
        set.sort_unstable();
        (name, set)
    }
}

/// Process-wide metric store. Cheap to clone handles out of; snapshot-able.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or fetch) a counter series. Panics if the series already
    /// exists with a different type — that is a programming error.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let key = inner.key(name, labels);
        let slot = inner
            .series
            .entry(key)
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(cell) => Counter(Arc::clone(cell)),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Register (or fetch) a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let key = inner.key(name, labels);
        let slot = inner
            .series
            .entry(key)
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicI64::new(0))));
        match slot {
            Slot::Gauge(cell) => Gauge(Arc::clone(cell)),
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Register (or fetch) a histogram series with the given bucket bounds.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &'static [u64],
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let key = inner.key(name, labels);
        let slot = inner.series.entry(key).or_insert_with(|| {
            let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
            Slot::Histogram(Arc::new(HistogramCore {
                bounds,
                buckets,
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }))
        });
        match slot {
            Slot::Histogram(core) => {
                // value equality, not pointer equality: a `const` bounds
                // slice is promoted to a fresh static per use site (and
                // per generic instantiation), so identical buckets can
                // legitimately arrive under different addresses
                assert!(
                    core.bounds == bounds,
                    "metric `{name}` already registered with different buckets"
                );
                Histogram(Arc::clone(core))
            }
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Point-in-time copy of every registered series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let samples = inner
            .series
            .iter()
            .map(|((name, labels), slot)| {
                let labels = labels
                    .iter()
                    .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                    .collect();
                let value = match slot {
                    Slot::Counter(cell) => SampleValue::Counter(cell.load(Ordering::Relaxed)),
                    Slot::Gauge(cell) => SampleValue::Gauge(cell.load(Ordering::Relaxed)),
                    Slot::Histogram(core) => {
                        let buckets = core
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect();
                        SampleValue::Histogram(HistogramSnapshot {
                            bounds: core.bounds.to_vec(),
                            buckets,
                            sum: core.sum.load(Ordering::Relaxed),
                            count: core.count.load(Ordering::Relaxed),
                        })
                    }
                };
                Sample {
                    name: (*name).to_owned(),
                    labels,
                    value,
                }
            })
            .collect();
        MetricsSnapshot { samples }
    }
}

/// One frozen histogram, per-bucket (non-cumulative) counts plus the implicit
/// overflow bucket at the end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    pub buckets: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

#[derive(Clone, Debug, PartialEq)]
pub enum SampleValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

/// One series at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: SampleValue,
}

/// Frozen copy of a registry, renderable as Prometheus-style text.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub samples: Vec<Sample>,
}

/// Escapes a label value per the Prometheus text-exposition rules:
/// backslash, double quote, and line feed become `\\`, `\"`, `\n`.
fn escape_label_value(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(out, v);
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        escape_label_value(out, v);
        out.push('"');
    }
    out.push('}');
}

/// Parses a rendered label body (`k="v",k2="v2"`) with full quote and
/// escape awareness — the inverse of [`render_labels`]. Values may
/// contain commas, equals signs, braces, and the escaped forms of `\`,
/// `"`, and newline.
fn parse_label_body(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without `=`: {rest:?}"))?;
        let key = &rest[..eq];
        if key.is_empty() || key.contains('"') || key.contains(',') {
            return Err(format!("bad label key: {key:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label value not quoted after {key:?}"));
        }
        let mut value = String::new();
        let mut chars = rest[1..].char_indices();
        let mut close = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => {
                        return Err(format!(
                            "bad escape `\\{}` in value of {key:?}",
                            other.map(|(_, c)| c.to_string()).unwrap_or_default()
                        ))
                    }
                },
                '"' => {
                    close = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let close = close.ok_or_else(|| format!("unterminated value for {key:?}"))?;
        labels.push((key.to_owned(), value));
        rest = &rest[1 + close + 1..];
        match rest.strip_prefix(',') {
            Some(tail) if !tail.is_empty() => rest = tail,
            Some(_) => return Err("trailing comma in label set".to_owned()),
            None if rest.is_empty() => break,
            None => return Err(format!("junk after label value: {rest:?}")),
        }
    }
    Ok(labels)
}

impl MetricsSnapshot {
    /// Look up a counter/gauge value by series name and exact label set
    /// (order-insensitive). Histograms resolve to their `count`.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i128> {
        let mut want: Vec<(&str, &str)> = labels.to_vec();
        want.sort_unstable();
        self.samples.iter().find_map(|s| {
            if s.name != name {
                return None;
            }
            let mut have: Vec<(&str, &str)> = s
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            have.sort_unstable();
            if have != want {
                return None;
            }
            Some(match &s.value {
                SampleValue::Counter(v) => i128::from(*v),
                SampleValue::Gauge(v) => i128::from(*v),
                SampleValue::Histogram(h) => i128::from(h.count),
            })
        })
    }

    /// Sum of every series sharing `name` regardless of labels (counters and
    /// gauges; histograms contribute their `count`).
    pub fn sum_of(&self, name: &str) -> i128 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match &s.value {
                SampleValue::Counter(v) => i128::from(*v),
                SampleValue::Gauge(v) => i128::from(*v),
                SampleValue::Histogram(h) => i128::from(h.count),
            })
            .sum()
    }

    /// Prometheus-style text exposition: `# TYPE` headers, one sample per
    /// line, histograms expanded into cumulative `_bucket{le=...}` series
    /// plus `_sum` and `_count`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for sample in &self.samples {
            if last_name != Some(sample.name.as_str()) {
                let kind = match sample.value {
                    SampleValue::Counter(_) => "counter",
                    SampleValue::Gauge(_) => "gauge",
                    SampleValue::Histogram(_) => "histogram",
                };
                out.push_str("# TYPE ");
                out.push_str(&sample.name);
                out.push(' ');
                out.push_str(kind);
                out.push('\n');
                last_name = Some(sample.name.as_str());
            }
            match &sample.value {
                SampleValue::Counter(v) => {
                    out.push_str(&sample.name);
                    render_labels(&mut out, &sample.labels, None);
                    out.push(' ');
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&sample.name);
                    render_labels(&mut out, &sample.labels, None);
                    out.push(' ');
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
                SampleValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, bucket) in h.buckets.iter().enumerate() {
                        cumulative += bucket;
                        let le = h
                            .bounds
                            .get(i)
                            .map(|b| b.to_string())
                            .unwrap_or_else(|| "+Inf".to_owned());
                        out.push_str(&sample.name);
                        out.push_str("_bucket");
                        render_labels(&mut out, &sample.labels, Some(("le", &le)));
                        out.push(' ');
                        out.push_str(&cumulative.to_string());
                        out.push('\n');
                    }
                    out.push_str(&sample.name);
                    out.push_str("_sum");
                    render_labels(&mut out, &sample.labels, None);
                    out.push(' ');
                    out.push_str(&h.sum.to_string());
                    out.push('\n');
                    out.push_str(&sample.name);
                    out.push_str("_count");
                    render_labels(&mut out, &sample.labels, None);
                    out.push(' ');
                    out.push_str(&h.count.to_string());
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Parse rendered exposition text back into a flat series → value map.
    /// Used by smoke bins to assert invariants against the exact bytes that
    /// would be scraped.
    pub fn parse_text(text: &str) -> Result<ParsedSnapshot, String> {
        let mut values = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: missing value: {line:?}", lineno + 1))?;
            let value: f64 = value
                .parse()
                .map_err(|e| format!("line {}: bad value {value:?}: {e}", lineno + 1))?;
            if let Some(open) = series.find('{') {
                if !series.ends_with('}') {
                    return Err(format!("line {}: unclosed labels: {line:?}", lineno + 1));
                }
                let body = &series[open + 1..series.len() - 1];
                parse_label_body(body)
                    .map_err(|e| format!("line {}: {e} in {line:?}", lineno + 1))?;
            }
            if values.insert(series.to_owned(), value).is_some() {
                return Err(format!("line {}: duplicate series {series:?}", lineno + 1));
            }
        }
        Ok(ParsedSnapshot { values })
    }
}

/// Flat view of parsed exposition text: full series string (labels included,
/// in rendered order) → numeric value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParsedSnapshot {
    values: BTreeMap<String, f64>,
}

impl ParsedSnapshot {
    /// Exact series lookup, e.g. `requests_total{outcome="completed"}`.
    pub fn get(&self, series: &str) -> Option<f64> {
        self.values.get(series).copied()
    }

    /// Lookup by series name and label set (order-insensitive) — the
    /// parsed twin of [`MetricsSnapshot::value`] for counters and gauges.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        labels.sort_unstable();
        let mut series = name.to_owned();
        render_labels(&mut series, &labels, None);
        self.get(&series)
    }

    /// Sum over every series whose name (the part before `{` or `_bucket`)
    /// equals `name` exactly.
    pub fn sum_of(&self, name: &str) -> f64 {
        self.values
            .iter()
            .filter(|(k, _)| {
                let base = k.split('{').next().unwrap_or(k);
                base == name
            })
            .map(|(_, v)| v)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn series(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_update() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("requests_total", &[("outcome", "ok")]);
        c.inc();
        c.add(4);
        // Re-registration returns the same underlying cell.
        let c2 = reg.counter("requests_total", &[("outcome", "ok")]);
        c2.inc();
        assert_eq!(c.get(), 6);

        let g = reg.gauge("queue_depth", &[]);
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn label_order_is_canonicalized() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("m", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("m", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("m", &[]);
        reg.gauge("m", &[]);
    }

    #[test]
    fn histogram_buckets_samples_inclusively() {
        static BOUNDS: &[u64] = &[10, 100, 1000];
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[], BOUNDS);
        h.observe(5); // bucket 0
        h.observe(10); // bucket 0 (inclusive upper bound)
        h.observe(11); // bucket 1
        h.observe(1000); // bucket 2
        h.observe(5000); // overflow
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5 + 10 + 11 + 1000 + 5000);

        let snap = reg.snapshot();
        let SampleValue::Histogram(hs) = &snap.samples[0].value else {
            panic!("expected histogram sample");
        };
        assert_eq!(hs.buckets, vec![2, 1, 1, 1]);
    }

    #[test]
    fn render_parse_round_trip() {
        static BOUNDS: &[u64] = &[100, 200];
        let reg = MetricsRegistry::new();
        reg.counter("reqs_total", &[("outcome", "completed")])
            .add(3);
        reg.counter("reqs_total", &[("outcome", "canceled")]).add(1);
        reg.gauge("depth", &[]).set(-4);
        let h = reg.histogram("lat_nanos", &[("shard", "0")], BOUNDS);
        h.observe(50);
        h.observe(150);
        h.observe(999);

        let text = reg.snapshot().render_text();
        assert!(text.contains("# TYPE reqs_total counter"));
        assert!(text.contains("reqs_total{outcome=\"completed\"} 3"));
        assert!(text.contains("depth -4"));
        assert!(text.contains("lat_nanos_bucket{shard=\"0\",le=\"+Inf\"} 3"));

        let parsed = MetricsSnapshot::parse_text(&text).expect("parse");
        assert_eq!(parsed.get("reqs_total{outcome=\"completed\"}"), Some(3.0));
        assert_eq!(parsed.get("depth"), Some(-4.0));
        assert_eq!(parsed.get("lat_nanos_count{shard=\"0\"}"), Some(3.0));
        assert_eq!(
            parsed.get("lat_nanos_sum{shard=\"0\"}"),
            Some(50.0 + 150.0 + 999.0)
        );
        assert_eq!(
            parsed.get("lat_nanos_bucket{shard=\"0\",le=\"100\"}"),
            Some(1.0)
        );
        assert_eq!(parsed.sum_of("reqs_total"), 4.0);
    }

    #[test]
    fn snapshot_value_lookup_is_label_order_insensitive() {
        let reg = MetricsRegistry::new();
        reg.counter("m", &[("a", "1"), ("b", "2")]).add(9);
        let snap = reg.snapshot();
        assert_eq!(snap.value("m", &[("b", "2"), ("a", "1")]), Some(9));
        assert_eq!(snap.value("m", &[("a", "1")]), None);
        assert_eq!(snap.sum_of("m"), 9);
        let parsed = MetricsSnapshot::parse_text(&snap.render_text()).unwrap();
        assert_eq!(parsed.value("m", &[("b", "2"), ("a", "1")]), Some(9.0));
        assert_eq!(parsed.value("m", &[("a", "1")]), None);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(MetricsSnapshot::parse_text("novalue").is_err());
        assert!(MetricsSnapshot::parse_text("m{open 1").is_err());
        assert!(MetricsSnapshot::parse_text("m nan_x").is_err());
        assert!(MetricsSnapshot::parse_text("m 1\nm 2").is_err());
        // Comments and blanks are fine.
        assert!(MetricsSnapshot::parse_text("# TYPE m counter\n\nm 1\n").is_ok());
        // Escape-aware label validation.
        assert!(MetricsSnapshot::parse_text("m{k=\"unterminated} 1").is_err());
        assert!(
            MetricsSnapshot::parse_text("m{k=\"bad\\q\"} 1").is_err(),
            "unknown escape"
        );
        assert!(MetricsSnapshot::parse_text("m{k=\"v\"junk} 1").is_err());
        assert!(
            MetricsSnapshot::parse_text("m{k=\"v\",} 1").is_err(),
            "trailing comma"
        );
        assert!(
            MetricsSnapshot::parse_text("m{=\"v\"} 1").is_err(),
            "empty key"
        );
        assert!(
            MetricsSnapshot::parse_text("m{k=novalue} 1").is_err(),
            "unquoted value"
        );
    }

    #[test]
    fn hostile_label_values_round_trip() {
        // Prometheus escaping rules: `\` -> `\\`, `"` -> `\"`, LF -> `\n`.
        // A value exercising all three plus the separators the old
        // parser split on (`,`, `=`, `{`, `}`, space).
        let reg = MetricsRegistry::new();
        let hostile = "he said \"hi\",\nback\\slash={curly} end";
        reg.counter("m_total", &[("msg", hostile)]).add(2);
        reg.gauge("g", &[("a", "x\"y"), ("b", "p\\q")]).set(-1);
        static BOUNDS: &[u64] = &[10];
        reg.histogram("h_nanos", &[("lbl", "a,b=\"c\"")], BOUNDS)
            .observe(7);

        let text = reg.snapshot().render_text();
        // The rendered line must carry the escaped form, single-line.
        assert!(
            text.contains("m_total{msg=\"he said \\\"hi\\\",\\nback\\\\slash={curly} end\"} 2"),
            "unexpected rendering:\n{text}"
        );
        assert_eq!(
            text.lines().count(),
            text.lines().filter(|l| !l.is_empty()).count(),
            "escaped newlines must not split lines"
        );

        let parsed = MetricsSnapshot::parse_text(&text).expect("hostile snapshot parses");
        assert_eq!(
            parsed.get("m_total{msg=\"he said \\\"hi\\\",\\nback\\\\slash={curly} end\"}"),
            Some(2.0)
        );
        assert_eq!(parsed.get("g{a=\"x\\\"y\",b=\"p\\\\q\"}"), Some(-1.0));
        assert_eq!(
            parsed.get("h_nanos_count{lbl=\"a,b=\\\"c\\\"\"}"),
            Some(1.0)
        );
        assert_eq!(parsed.sum_of("m_total"), 2.0);
    }

    #[test]
    fn label_body_parser_unescapes_values() {
        let labels = parse_label_body("k=\"a,b\",q=\"say \\\"x\\\"\",nl=\"l1\\nl2\",bs=\"a\\\\b\"")
            .expect("body parses");
        assert_eq!(
            labels,
            vec![
                ("k".to_owned(), "a,b".to_owned()),
                ("q".to_owned(), "say \"x\"".to_owned()),
                ("nl".to_owned(), "l1\nl2".to_owned()),
                ("bs".to_owned(), "a\\b".to_owned()),
            ]
        );
    }
}
