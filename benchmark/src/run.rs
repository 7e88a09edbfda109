//! One run of one workload: set-up repetitions, verification pass,
//! accuracy phase, warm-up, measured window, report — and the traced
//! variant that adds spans and per-layer probes.
//!
//! The run shape is identical for every workload and must stay identical
//! between the two commits of a comparison.

use crate::accuracy;
use crate::inputs::pass_order;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::probes::Probes;
use crate::stats::{mean, median, p10, p90, tail};
use crate::sys;
use crate::trace::{self, Tracer};
use crate::verify::{PassTally, Verifier};
use crate::workloads::{Harness, Kind, Teardown};
use sparseloop_obs::{ObsHub, SpanKind};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Full set-up repetitions behind `setup_s`.
pub const SETUP_REPS: usize = 30;
/// Unrecorded passes before the measured window.
pub const WARMUP_PASSES: u64 = 3;
/// Passes a measured window must hold, however long that takes: p10 of
/// fewer samples is an order statistic of almost nothing.
pub const MIN_PASSES: usize = 40;
/// Fewest passes recorded with spans in the traced run (more when a tenth
/// of the window holds more: five 15 ms passes say nothing about overhead).
pub const TRACED_PASSES: usize = 5;
/// Passes of each side-by-side comparison in the traced run (plain vs
/// observed service, fleet vs in-process).
const COMPARISON_PASSES: usize = 8;

/// The calibration kernel runs between passes, at most this often: once
/// per pass would eat a tenth of an `eval_fixed` window (15 ms passes).
const SPIN_EVERY: Duration = Duration::from_millis(250);

/// What to run.
pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// The `slbench-worker` executable.
    pub worker: PathBuf,
    /// Where the traced run writes its span file.
    pub out_dir: PathBuf,
}

/// A run's result.
pub struct Report {
    pub kind: Kind,
    pub seed: u64,
    pub traced: bool,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// Passes in the measured window.
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Samples of a measured window, one entry per pass unless noted.
#[derive(Default)]
struct Window {
    wall_ms: Vec<f64>,
    /// Mean submit→reply time of the pass's requests.
    latency_ms: Vec<f64>,
    cpu_ms_per_request: Vec<f64>,
    worker_cpu_ms_per_request: Vec<f64>,
    spin_ms: Vec<f64>,
    /// Every request of every pass.
    request_latency_ms: Vec<f64>,
    request_submit_us: Vec<f64>,
    steal_pct: f64,
}

/// Runs passes `first_pass..` until the window holds `min_passes` and has
/// lasted `seconds`; every reply is verified off the clock.
fn measure(
    harness: &Harness,
    verifier: &mut Verifier,
    seed: u64,
    first_pass: u64,
    seconds: f64,
    min_passes: usize,
    tracer: Option<&Tracer>,
) -> Window {
    let n = harness.inputs.requests.len();
    let mut w = Window::default();
    let steal_before = sys::steal_now();
    let mut last_spin: Option<Instant> = None;
    let start = Instant::now();
    while w.wall_ms.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let pass_id = first_pass + w.wall_ms.len() as u64;
        let pass = harness.run_pass(&pass_order(n, seed, pass_id), pass_id, tracer);
        w.wall_ms.push(pass.wall.as_secs_f64() * 1e3);
        let latencies: Vec<f64> = pass
            .answers
            .iter()
            .map(|a| a.latency.as_secs_f64() * 1e3)
            .collect();
        w.latency_ms.push(mean(&latencies));
        w.request_latency_ms.extend(latencies);
        w.request_submit_us
            .extend(pass.answers.iter().map(|a| a.submit.as_secs_f64() * 1e6));
        w.cpu_ms_per_request
            .push(pass.cpu_ns as f64 / 1e6 / n as f64);
        w.worker_cpu_ms_per_request
            .push(pass.worker_cpu_ns as f64 / 1e6 / n as f64);
        verifier.check_pass(pass.answers);
        if last_spin.is_none_or(|at| at.elapsed() >= SPIN_EVERY) {
            w.spin_ms.push(sys::calib_spin_ms());
            last_spin = Some(Instant::now());
        }
    }
    w.steal_pct = sys::steal_pct(steal_before, sys::steal_now());
    w
}

/// The three unrecorded warm-up passes (still verified).
fn warm_up(harness: &Harness, verifier: &mut Verifier, seed: u64) {
    let n = harness.inputs.requests.len();
    for pass_id in 0..WARMUP_PASSES {
        let pass = harness.run_pass(&pass_order(n, seed, pass_id), pass_id, None);
        verifier.check_pass(pass.answers);
    }
}

/// Fails the run for any service or fleet counter a clean run leaves at
/// zero.
fn check_teardown(teardown: &Teardown, verifier: &mut Verifier) {
    if let Some(s) = teardown.service {
        for (what, count) in [
            ("rejected", s.rejected),
            ("panicked", s.panicked),
            ("canceled", s.canceled),
            ("shed", s.shed),
            ("fleet_fallbacks", s.fleet_fallbacks),
        ] {
            if count != 0 {
                verifier.problem(format!("service counted {count} {what} requests"));
            }
        }
    }
    if let Some(h) = teardown.hosts {
        for (what, count) in [("degraded", h.degraded), ("restarts", h.restarts)] {
            if count != 0 {
                verifier.problem(format!("fleet counted {count} {what}"));
            }
        }
    }
}

/// The quality and accuracy metrics: one verification pass in registry
/// order, the pinned-winner comparison, and the accuracy phase.
struct Quality {
    tally: PassTally,
    edp_vs_ref: f64,
    stats_identical_share: f64,
    accuracy: accuracy::Accuracy,
}

fn verify_quality(harness: &Harness, verifier: &mut Verifier) -> Quality {
    let n = harness.inputs.requests.len();
    let order: Vec<usize> = (0..n).collect();
    let pass = harness.run_pass(&order, 0, None);
    let tally = verifier.check_pass(pass.answers);
    let (edp_vs_ref, identical, listed) = verifier.edp_vs_reference(&harness.inputs);
    let cases = accuracy::cases();
    Quality {
        tally,
        edp_vs_ref,
        stats_identical_share: identical as f64 / listed.max(1) as f64,
        accuracy: accuracy::run(&cases, accuracy::PINNED_SEED, accuracy::PINNED_DRAWS),
    }
}

/// Readings every run has once a window was measured.
fn window_readings(w: &Window, served: bool) -> Vec<(&'static str, f64)> {
    let mut out = vec![
        ("host.steal_pct", w.steal_pct),
        ("host.calib_spin_ms", p10(&w.spin_ms)),
        ("host.passes_measured", w.wall_ms.len() as f64),
        ("host.pass_ms_p50", median(&w.wall_ms)),
        ("host.pass_ms_p90", p90(&w.wall_ms)),
    ];
    if served {
        out.push(("serve.submit_us", median(&w.request_submit_us)));
        out.push(("serve.latency_p50_ms", median(&w.request_latency_ms)));
        if let Some((_, value)) = tail(&w.request_latency_ms) {
            out.push(("serve.latency_tail_ms", value));
        }
    }
    out
}

/// Readings from the verification pass and the counters at teardown.
fn count_readings(q: &Quality, teardown: &Teardown) -> Vec<(&'static str, f64)> {
    let stats = q.tally.stats;
    let mut out = vec![
        ("mapping.generated_per_pass", stats.generated as f64),
        (
            "mapping.winner_utilization_mean",
            q.tally.winner_utilization_mean,
        ),
        (
            "core.precheck_pruned_share",
            stats.pruned as f64 / stats.generated.max(1) as f64,
        ),
        ("core.evaluated_per_pass", stats.evaluated as f64),
        (
            "core.no_valid_experiments",
            q.tally.no_valid_experiments as f64,
        ),
        ("core.stats_identical_share", q.stats_identical_share),
        ("refsim.run_ms_per_case", q.accuracy.refsim_ms_per_case),
    ];
    if let Some(s) = teardown.service {
        out.push(("serve.rejected", s.rejected as f64));
        out.push(("serve.shed", s.shed as f64));
        out.push(("serve.fleet_fallbacks", s.fleet_fallbacks as f64));
    }
    if let Some(h) = teardown.hosts {
        out.push((
            "serve.fleet_frames_per_request",
            h.frames_received as f64 / h.requests.max(1) as f64,
        ));
        out.push(("serve.fleet_spawns", h.spawns as f64));
        out.push(("serve.fleet_restarts", h.restarts as f64));
        out.push(("serve.fleet_hedges_dispatched", h.hedges_dispatched as f64));
        out.push(("serve.fleet_degraded", h.degraded as f64));
    }
    out
}

/// The end-to-end metrics a window and the quality phase give (everything
/// but `setup_s`).
fn end_to_end(harness: &Harness, w: &Window, q: &Quality) -> Vec<(&'static str, f64)> {
    let n = harness.inputs.requests.len() as f64;
    vec![
        ("time_to_mapping_ms", p10(&w.latency_ms)),
        ("requests_per_s", n / (p10(&w.wall_ms) / 1e3)),
        ("cpu_ms_per_mapping", p10(&w.cpu_ms_per_request)),
        ("peak_rss_mb", sys::peak_rss_mb(&harness.worker_pids)),
        (
            "ok_share",
            q.tally.ok_experiments as f64 / q.tally.experiments.max(1) as f64,
        ),
        ("edp_vs_ref", q.edp_vs_ref),
        ("model_err_pct", q.accuracy.mean_pct()),
        ("model_err_max_pct", q.accuracy.max_pct()),
    ]
}

/// p10 of [`SETUP_REPS`] full set-up + tear-down repetitions, seconds.
///
/// Taken *after* the measured window. In the first moments of a process
/// this box sometimes leaves the second vCPU asleep — the first request
/// then runs serialized (wall = CPU, 28 ms instead of 18 ms on
/// `search_cold`) for every repetition or for none, depending on what the
/// host did before; measured once both cores are busy, set-up reads the
/// same from run to run.
fn setup_s(opts: &Options) -> f64 {
    let reps: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            Harness::setup(opts.kind, opts.seed, &opts.worker, None).teardown();
            start.elapsed().as_secs_f64()
        })
        .collect();
    p10(&reps)
}

/// The measured run: tracing off, nothing attached.
pub fn measured(opts: &Options) -> Report {
    let harness = Harness::setup(opts.kind, opts.seed, &opts.worker, None);
    let mut verifier = Verifier::new(&harness.inputs);
    let quality = verify_quality(&harness, &mut verifier);
    warm_up(&harness, &mut verifier, opts.seed);
    let window = measure(
        &harness,
        &mut verifier,
        opts.seed,
        WARMUP_PASSES,
        opts.seconds,
        MIN_PASSES,
        None,
    );
    let mut end_to_end_values = end_to_end(&harness, &window, &quality);
    let mut per_layer = window_readings(&window, opts.kind.served());
    let teardown = harness.teardown();
    check_teardown(&teardown, &mut verifier);
    per_layer.extend(count_readings(&quality, &teardown));
    end_to_end_values.insert(0, ("setup_s", setup_s(opts)));
    Report {
        kind: opts.kind,
        seed: opts.seed,
        traced: false,
        end_to_end: end_to_end_values,
        per_layer,
        passes: window.wall_ms.len(),
        attempted: verifier.attempted,
        failed: verifier.failed,
        problems: verifier.problems,
    }
}

/// p10 pass wall time and p10 mean latency of a short side run on a fresh
/// harness of `kind`, observed when a hub is given. `kind` requests what
/// the traced workload requests, so its verifier checks these replies too.
fn side_run(
    opts: &Options,
    kind: Kind,
    hub: Option<ObsHub>,
    verifier: &mut Verifier,
) -> (f64, f64) {
    let harness = Harness::setup(kind, opts.seed, &opts.worker, hub);
    warm_up(&harness, verifier, opts.seed);
    let w = measure(
        &harness,
        verifier,
        opts.seed,
        WARMUP_PASSES,
        0.0,
        COMPARISON_PASSES,
        None,
    );
    check_teardown(&harness.teardown(), verifier);
    (p10(&w.wall_ms), p10(&w.latency_ms))
}

/// max ÷ min of the per-shard worker search time an observed fleet
/// recorded over a few passes.
fn shard_imbalance(opts: &Options, verifier: &mut Verifier) -> f64 {
    let hub = ObsHub::new();
    side_run(opts, Kind::ServeFleet, Some(hub.clone()), verifier);
    let mut per_shard = std::collections::BTreeMap::<u32, u64>::new();
    for event in hub.traces().events() {
        if let (SpanKind::WorkerSearch, Some(shard)) = (event.kind, event.shard) {
            *per_shard.entry(shard).or_default() += event.duration_nanos;
        }
    }
    let max = per_shard.values().copied().max().unwrap_or(0);
    let min = per_shard.values().copied().min().unwrap_or(0);
    max as f64 / min.max(1) as f64
}

/// The traced run: a shorter untraced baseline, at least [`TRACED_PASSES`]
/// passes with spans, then the per-layer probes. Writes the span file.
pub fn traced(opts: &Options) -> Report {
    let harness = Harness::setup(opts.kind, opts.seed, &opts.worker, None);
    let mut verifier = Verifier::new(&harness.inputs);
    let quality = verify_quality(&harness, &mut verifier);
    warm_up(&harness, &mut verifier, opts.seed);
    let baseline = measure(
        &harness,
        &mut verifier,
        opts.seed,
        WARMUP_PASSES,
        opts.seconds / 3.0,
        MIN_PASSES / 3,
        None,
    );
    let tracer = Tracer::new();
    let with_spans = measure(
        &harness,
        &mut verifier,
        opts.seed,
        WARMUP_PASSES + baseline.wall_ms.len() as u64,
        opts.seconds / 10.0,
        TRACED_PASSES,
        Some(&tracer),
    );
    let spans = tracer.spans();
    let n = harness.inputs.requests.len() as f64;
    let base_wall_ms = p10(&baseline.wall_ms);

    let mut per_layer = window_readings(&baseline, opts.kind.served());
    per_layer.push((
        "trace_overhead_pct",
        100.0 * (p10(&with_spans.wall_ms) - base_wall_ms) / base_wall_ms,
    ));
    let requests_traced = with_spans.wall_ms.len() as f64 * n;
    for (name, time) in trace::self_times(&spans) {
        if let Some(def) = PER_LAYER
            .iter()
            .find(|d| d.name.strip_prefix("trace.self_ms.") == Some(name))
        {
            per_layer.push((def.name, time.self_ns as f64 / 1e6 / requests_traced));
        }
    }
    per_layer.push((
        "core.evaluated_per_s",
        quality.tally.stats.evaluated as f64 / (base_wall_ms / 1e3),
    ));
    let seed_accuracy = accuracy::run(&accuracy::cases(), opts.seed, 1);
    per_layer.push(("refsim.model_err_seed_pct", seed_accuracy.mean_pct()));

    let probes = Probes::new(opts.kind, &harness.inputs, verifier.reference());
    per_layer.extend(probes.run());
    if opts.kind.served() {
        per_layer.push((
            "serve.overhead_ms_per_request",
            p10(&baseline.latency_ms) - probes.direct_ms_per_request(),
        ));
    }
    drop(probes);
    let end_to_end_values = end_to_end(&harness, &baseline, &quality);
    let teardown = harness.teardown();
    check_teardown(&teardown, &mut verifier);
    per_layer.extend(count_readings(&quality, &teardown));

    // side-by-side comparisons, each on its own short-lived harness
    match opts.kind {
        Kind::ServeInproc => {
            let (plain_ms, _) = side_run(opts, Kind::ServeInproc, None, &mut verifier);
            let (observed_ms, _) =
                side_run(opts, Kind::ServeInproc, Some(ObsHub::new()), &mut verifier);
            per_layer.push((
                "obs.overhead_pct",
                100.0 * (observed_ms - plain_ms) / plain_ms,
            ));
        }
        Kind::ServeFleet => {
            let (_, inproc_latency_ms) = side_run(opts, Kind::ServeInproc, None, &mut verifier);
            per_layer.push((
                "serve.fleet_overhead_ms_per_request",
                p10(&baseline.latency_ms) - inproc_latency_ms,
            ));
            per_layer.push((
                "serve.fleet_worker_cpu_ms_per_request",
                p10(&baseline.worker_cpu_ms_per_request),
            ));
            let imbalance = shard_imbalance(opts, &mut verifier);
            per_layer.push(("serve.fleet_shard_imbalance", imbalance));
        }
        Kind::SearchCold | Kind::EvalFixed => {}
    }

    if let Err(e) = write_spans(&opts.out_dir, opts.kind, &spans) {
        verifier.problem(format!("cannot write the span file: {e}"));
    }
    Report {
        kind: opts.kind,
        seed: opts.seed,
        traced: true,
        end_to_end: end_to_end_values,
        per_layer,
        passes: baseline.wall_ms.len(),
        attempted: verifier.attempted,
        failed: verifier.failed,
        problems: verifier.problems,
    }
}

/// `<out>/trace-<workload>.json`.
pub fn span_file(out_dir: &Path, kind: Kind) -> PathBuf {
    out_dir.join(format!("trace-{}.json", kind.name()))
}

fn write_spans(out_dir: &Path, kind: Kind, spans: &[trace::Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        span_file(out_dir, kind),
        trace::to_json(kind.name(), spans).to_pretty(),
    )
}

/// `defs` in table order with this report's values (`None`: the metric
/// does not apply to this workload or this kind of run).
pub fn tabulate<'a>(
    defs: &'a [Def],
    values: &'a [(&'static str, f64)],
) -> impl Iterator<Item = (&'a Def, Option<f64>)> {
    defs.iter().map(move |def| {
        let value = values.iter().find(|(n, _)| *n == def.name).map(|(_, v)| *v);
        (def, value)
    })
}

/// Every reported name must be in its table: a typo would silently drop a
/// metric from the result line.
pub fn assert_known(report: &Report) {
    for (name, _) in &report.end_to_end {
        assert!(END_TO_END.iter().any(|d| d.name == *name), "{name}");
    }
    for (name, _) in &report.per_layer {
        assert!(PER_LAYER.iter().any(|d| d.name == *name), "{name}");
    }
}
