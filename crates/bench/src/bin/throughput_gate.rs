//! CI throughput-regression gate.
//!
//! Re-measures the tracked search-throughput numbers in release mode and
//! compares them against the *committed* `BENCH_mapper.json` baseline:
//!
//! * the fixed capacity-constrained exhaustive scenario's pruned
//!   sequential path (`mappings_per_sec.sequential_pruned`), and
//! * the evaluation-pipeline rows (`eval_delta[*].incremental_mappings_per_sec`)
//!   of the tracked scenarios — the purest signal for accidental
//!   allocation or cache regressions on the candidate-scoring hot path,
//!   and
//! * the multi-process fleet row (`serve_multiproc.mappings_per_sec`) —
//!   every scenario re-served through real `sparseloop-shard-worker`
//!   processes, so frame-codec or supervision overhead regressions on
//!   the process boundary are gated too.
//!
//! The job fails when any re-measured number falls more than the
//! tolerance (default 30%, `THROUGHPUT_GATE_TOLERANCE` to override)
//! below its committed baseline. Measurements take the best of several
//! repetitions to shrug off runner noise; a 30% band is far wider than
//! run-to-run jitter but far tighter than the 1.5-2x cost of
//! reintroducing per-candidate allocation.
//!
//! Absolute mappings/sec baselines are machine-dependent (a runner much
//! slower than the machine that committed the baseline would trip them
//! without any real regression — widen the tolerance via the env var on
//! such runners). The `eval_delta` rows therefore get a second,
//! *machine-independent* check: the incremental/from-scratch speedup
//! measured within the same run must stay within tolerance of the
//! committed speedup, which collapses toward 1.0x if hot-path
//! allocation or prefix caching regresses regardless of runner speed.

use sparseloop_bench::{measure_eval_delta, timed};
use sparseloop_core::Objective;
use sparseloop_designs::ScenarioRegistry;

/// Repetitions per measured quantity (best is kept).
const REPS: usize = 5;

fn main() {
    let tolerance: f64 = std::env::var("THROUGHPUT_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.30);
    let baseline = std::fs::read_to_string("BENCH_mapper.json")
        .expect("committed BENCH_mapper.json baseline present");

    let mut failures: Vec<String> = Vec::new();
    fn check(failures: &mut Vec<String>, tolerance: f64, label: &str, measured: f64, base: f64) {
        let floor = base * (1.0 - tolerance);
        let verdict = if measured >= floor { "ok" } else { "REGRESSED" };
        println!(
            "{label}: measured {measured:.0} mappings/s vs baseline {base:.0} (floor {floor:.0}) — {verdict}"
        );
        if measured < floor {
            failures.push(format!(
                "{label}: {measured:.0} < {floor:.0} (baseline {base:.0}, tolerance {:.0}%)",
                tolerance * 100.0
            ));
        }
    }

    // -- tracked exhaustive scenario: pruned sequential path --
    let (model, space, mapper) = sparseloop_bench::tight_search_scenario();
    let _ = model.search(&space, mapper, Objective::Edp); // warm caches
    let mut best = f64::MAX;
    let mut generated = 0usize;
    for _ in 0..REPS {
        let ((result, stats), secs) =
            timed(|| model.search_sharded_counted(&space, mapper, Objective::Edp, 1));
        result.expect("tight scenario finds a mapping");
        generated = stats.generated;
        best = best.min(secs);
    }
    let measured = generated as f64 / best.max(1e-12);
    if let Some(base) = json_number(
        &baseline,
        &["\"mappings_per_sec\"", "\"sequential_pruned\""],
    ) {
        check(
            &mut failures,
            tolerance,
            "sequential_pruned (tight exhaustive)",
            measured,
            base,
        );
    } else {
        println!("no sequential_pruned baseline found — skipping (first run?)");
    }

    // -- evaluation-pipeline rows of the tracked scenarios --
    // two checks per row: the absolute incremental mappings/sec against
    // the committed baseline (the tracked trajectory), and — the
    // machine-independent signal — the incremental/from-scratch
    // *speedup* measured in this very run, which collapses toward 1.0
    // if per-candidate allocation or prefix caching regresses no matter
    // how fast or slow the runner is.
    let registry = ScenarioRegistry::standard();
    for (name, base, base_speedup) in baseline_eval_rows(&baseline) {
        let Some(scenario) = registry.get(&name) else {
            println!("baseline row {name} no longer registered — skipping");
            continue;
        };
        let delta = measure_eval_delta(scenario, 3);
        check(
            &mut failures,
            tolerance,
            &format!("eval {name}"),
            delta.incremental_mps,
            base,
        );
        let speedup = delta.speedup();
        let floor = base_speedup * (1.0 - tolerance);
        let verdict = if speedup >= floor { "ok" } else { "REGRESSED" };
        println!(
            "eval {name} speedup: measured {speedup:.2}x vs baseline {base_speedup:.2}x (floor {floor:.2}x) — {verdict}"
        );
        if speedup < floor {
            failures.push(format!(
                "eval {name} speedup: {speedup:.2}x < {floor:.2}x (baseline {base_speedup:.2}x)"
            ));
        }
    }

    // -- multi-process fleet row --
    // re-serves every registered scenario through real worker processes
    // (the `serve_multiproc` baseline row) and gates its mappings/sec:
    // a frame-codec, heartbeat or supervision regression that taxes the
    // process boundary shows up here and nowhere else
    match (
        json_number(&baseline, &["\"serve_multiproc\"", "\"mappings_per_sec\""]),
        sparseloop_bench::shard_worker_bin(),
    ) {
        (Some(base), Some(worker)) => {
            use sparseloop_serve::{HostConfig, ProcessSpawner, ShardHost};
            let shards = json_number(&baseline, &["\"serve_multiproc\"", "\"shards\""])
                .map(|s| s as usize)
                .unwrap_or(2)
                .max(1);
            let mut best_mps = 0.0f64;
            for _ in 0..2 {
                let mut host = ShardHost::new(
                    HostConfig::default()
                        .with_shards(shards)
                        .with_heartbeat(20, std::time::Duration::from_millis(1000)),
                    ProcessSpawner::new(&worker),
                );
                let mut generated = 0usize;
                let (_, wall_s) = timed(|| {
                    for scenario in registry.scenarios() {
                        let reply = host.run_scenario(scenario).expect("fleet serves scenario");
                        generated += sparseloop_bench::results_generated(&reply.results);
                    }
                });
                assert_eq!(host.stats().degraded, 0, "gate must measure real processes");
                best_mps = best_mps.max(generated as f64 / wall_s.max(1e-12));
            }
            check(
                &mut failures,
                tolerance,
                "serve_multiproc (real worker fleet)",
                best_mps,
                base,
            );
        }
        (None, _) => println!("no serve_multiproc baseline found — skipping (first run?)"),
        (_, None) => failures.push(
            "serve_multiproc baseline present but sparseloop-shard-worker binary missing \
             (build it with `cargo build --release --bin sparseloop-shard-worker`)"
                .into(),
        ),
    }

    // -- pooled fleet vs per-request spawn --
    // the `serve_fleet_pooled` baseline row claims a long-lived
    // prewarmed pool beats tearing a fleet up and down per request;
    // re-measure both arms here (machine-independent — same runner,
    // same moment) and fail if pooling ever stops paying for itself,
    // which would mean checkout/health-sweep overhead has crept past
    // the spawn+handshake cost it is supposed to amortise
    match (
        json_number(&baseline, &["\"serve_fleet_pooled\"", "\"pooled_speedup\""]),
        sparseloop_bench::shard_worker_bin(),
    ) {
        (Some(base_speedup), Some(worker)) => {
            use sparseloop_serve::{
                FleetPool, FleetPoolConfig, HostConfig, ProcessSpawner, ShardHost,
            };
            let shards = json_number(&baseline, &["\"serve_fleet_pooled\"", "\"shards\""])
                .map(|s| s as usize)
                .unwrap_or(2)
                .max(1);
            let requests = json_number(&baseline, &["\"serve_fleet_pooled\"", "\"spec_requests\""])
                .map(|s| s as usize)
                .unwrap_or(8)
                .max(1);
            let text = sparseloop_bench::pool_delta_spec();
            let host_config = HostConfig::default()
                .with_shards(shards)
                .with_heartbeat(20, std::time::Duration::from_millis(1000));
            let mut best_spawn_rps = 0.0f64;
            let mut best_pooled_rps = 0.0f64;
            for _ in 0..2 {
                let (_, spawn_wall_s) = timed(|| {
                    for _ in 0..requests {
                        let mut host =
                            ShardHost::new(host_config.clone(), ProcessSpawner::new(&worker));
                        host.run_spec(&text).expect("per-request host serves");
                    }
                });
                let pool = FleetPool::processes(
                    FleetPoolConfig::default()
                        .with_hosts(1)
                        .with_host_config(host_config.clone()),
                    &worker,
                );
                let (_, pooled_wall_s) = timed(|| {
                    for _ in 0..requests {
                        pool.run_spec(&text).expect("pool serves");
                    }
                });
                assert_eq!(
                    pool.host_stats().degraded,
                    0,
                    "gate must measure real pooled processes"
                );
                pool.shutdown();
                best_spawn_rps = best_spawn_rps.max(requests as f64 / spawn_wall_s.max(1e-12));
                best_pooled_rps = best_pooled_rps.max(requests as f64 / pooled_wall_s.max(1e-12));
            }
            let speedup = best_pooled_rps / best_spawn_rps.max(1e-12);
            let verdict = if speedup >= 1.0 { "ok" } else { "REGRESSED" };
            println!(
                "serve_fleet_pooled: pooled {best_pooled_rps:.1} vs per-request spawn \
                 {best_spawn_rps:.1} requests/s — {speedup:.2}x (baseline {base_speedup:.2}x, \
                 floor 1.00x) — {verdict}"
            );
            if speedup < 1.0 {
                failures.push(format!(
                    "serve_fleet_pooled: pooled fleet no longer beats per-request spawn \
                     ({speedup:.2}x, baseline {base_speedup:.2}x)"
                ));
            }
        }
        (None, _) => println!("no serve_fleet_pooled baseline found — skipping (first run?)"),
        (_, None) => failures.push(
            "serve_fleet_pooled baseline present but sparseloop-shard-worker binary missing \
             (build it with `cargo build --release --bin sparseloop-shard-worker`)"
                .into(),
        ),
    }

    // -- serving-layer instrumentation overhead --
    // the observability hub must stay effectively free on the serving
    // hot path: A/B the same request batch through an uninstrumented
    // and an observed EvalService (machine-independent — both runs
    // happen here, on this runner)
    let overhead_limit: f64 = std::env::var("SPARSELOOP_METRICS_OVERHEAD_MAX_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    let overhead = sparseloop_bench::measure_metrics_overhead(24, 3);
    let pct = overhead.overhead_pct();
    let verdict = if pct <= overhead_limit {
        "ok"
    } else {
        "REGRESSED"
    };
    println!(
        "metrics overhead: {:.0} -> {:.0} requests/s ({pct:+.2}%, limit {overhead_limit:.2}%) — {verdict}",
        overhead.baseline_rps, overhead.observed_rps
    );
    if pct > overhead_limit {
        failures.push(format!(
            "metrics overhead: instrumentation costs {pct:.2}% serving throughput \
             (limit {overhead_limit:.2}%)"
        ));
    }

    if failures.is_empty() {
        println!("\nthroughput gate passed");
    } else {
        eprintln!("\nthroughput regressions detected:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// The first JSON number following the given keys in order (a minimal
/// extractor — the bench records are written by our own binaries with a
/// fixed shape, so no full JSON parser is needed).
fn json_number(text: &str, keys: &[&str]) -> Option<f64> {
    let mut at = 0usize;
    for key in keys {
        at += text[at..].find(key)?;
        at += key.len();
    }
    let rest = text[at..].trim_start_matches([':', ' ']);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `(scenario name, incremental_mappings_per_sec, speedup)` triples of
/// the baseline's `eval_delta` section.
fn baseline_eval_rows(text: &str) -> Vec<(String, f64, f64)> {
    let Some(section) = text.find("\"eval_delta\"") else {
        return Vec::new();
    };
    let body = &text[section..];
    let end = body.find(']').unwrap_or(body.len());
    let body = &body[..end];
    let mut rows = Vec::new();
    let mut at = 0usize;
    while let Some(name_at) = body[at..].find("\"name\": \"") {
        let start = at + name_at + "\"name\": \"".len();
        let Some(name_len) = body[start..].find('"') else {
            break;
        };
        let name = body[start..start + name_len].to_string();
        if let (Some(v), Some(sp)) = (
            json_number(&body[start..], &["\"incremental_mappings_per_sec\""]),
            json_number(&body[start..], &["\"speedup\""]),
        ) {
            rows.push((name, v, sp));
        }
        at = start + name_len;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_extraction() {
        let j = r#"{"mappings_per_sec": {"a": 1.5, "sequential_pruned": 192801.9}}"#;
        assert_eq!(
            json_number(j, &["\"mappings_per_sec\"", "\"sequential_pruned\""]),
            Some(192801.9)
        );
        assert_eq!(json_number(j, &["\"missing\""]), None);
    }

    #[test]
    fn eval_rows_extraction() {
        let j = r#"
  "eval_delta": [
    {"name": "a", "incremental_mappings_per_sec": 100.5, "speedup": 1.7},
    {"name": "b", "incremental_mappings_per_sec": 200.0, "speedup": 1.8}
  ]"#;
        let rows = baseline_eval_rows(j);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], ("a".to_string(), 100.5, 1.7));
        assert_eq!(rows[1], ("b".to_string(), 200.0, 1.8));
    }
}
