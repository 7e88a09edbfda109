//! The metric tables: every name the benchmark reports, with its unit and
//! direction — the single source `BENCHMARK.json` is checked against.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric definition. `bound` (end-to-end metrics only) is the share of
/// the parent's median by which the metric may worsen before a change
/// counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Allowed worsening of the timing and cost metrics.
pub const TIMING_BOUND: f64 = 0.15;
/// Set-up time is ten samples of a few tens of milliseconds each; it gets
/// the widest bound the contract allows.
pub const SETUP_BOUND: f64 = 0.25;
/// Quality and accuracy metrics are deterministic: any worsening beyond
/// rounding is a regression ("exact").
pub const EXACT_BOUND: f64 = 0.001;

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports all nine.
pub const END_TO_END: [Def; 9] = [
    e2e("setup_s", "s", Lower, SETUP_BOUND),
    e2e("time_to_mapping_ms", "ms", Lower, TIMING_BOUND),
    e2e("requests_per_s", "1/s", Higher, TIMING_BOUND),
    e2e("cpu_ms_per_mapping", "ms", Lower, TIMING_BOUND),
    e2e("peak_rss_mb", "MB", Lower, TIMING_BOUND),
    e2e("ok_share", "ratio", Higher, EXACT_BOUND),
    e2e("edp_vs_ref", "ratio", Lower, EXACT_BOUND),
    e2e("model_err_pct", "%", Lower, EXACT_BOUND),
    e2e("model_err_max_pct", "%", Lower, EXACT_BOUND),
];

/// Single layers, named after the crate they measure. No bounds: these
/// explain a change, they do not gate it.
pub const PER_LAYER: [Def; 59] = [
    layer("spec.parse_us_per_kb", "us/KB", Lower),
    layer("spec.compile_ms_per_scenario", "ms", Lower),
    layer("spec.emit_ms_per_scenario", "ms", Lower),
    layer("designs.registry_build_ms", "ms", Lower),
    layer("mapping.enumerate_ns_per_candidate", "ns", Lower),
    layer("mapping.sample_ns_per_candidate", "ns", Lower),
    layer("mapping.shards_ms_per_experiment", "ms", Lower),
    layer("mapping.generated_per_pass", "count", Lower),
    layer("mapping.wire_roundtrip_ns_per_mapping", "ns", Lower),
    layer("mapping.winner_utilization_mean", "ratio", Higher),
    layer("core.precheck_ns_per_candidate", "ns", Lower),
    layer("core.precheck_pruned_share", "ratio", Lower),
    layer("core.evaluated_per_pass", "count", Higher),
    layer("core.evaluated_per_s", "1/s", Higher),
    layer("core.no_valid_experiments", "count", Lower),
    layer("core.evaluate_us_cold", "us", Lower),
    layer("core.evaluate_us_warm", "us", Lower),
    layer("core.dataflow_us_per_mapping", "us", Lower),
    layer("core.sparse_us_per_mapping", "us", Lower),
    layer("core.uarch_us_per_mapping", "us", Lower),
    layer("core.search_ms_per_experiment", "ms", Lower),
    layer("core.format_misses_per_pass", "count", Lower),
    layer("core.format_miss_share", "ratio", Lower),
    layer("core.stats_identical_share", "ratio", Higher),
    layer("format.analyze_us_per_call", "us", Lower),
    layer("density.occupancy_us_per_call", "us", Lower),
    layer("refsim.run_ms_per_case", "ms", Lower),
    layer("refsim.model_err_seed_pct", "%", Lower),
    layer("serve.submit_us", "us", Lower),
    layer("serve.overhead_ms_per_request", "ms", Lower),
    layer("serve.latency_p50_ms", "ms", Lower),
    layer("serve.latency_tail_ms", "ms", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.fleet_fallbacks", "count", Lower),
    layer("serve.protocol_encode_ns_per_frame", "ns", Lower),
    layer("serve.protocol_decode_ns_per_frame", "ns", Lower),
    layer("serve.protocol_bytes_per_request", "B", Lower),
    layer("serve.fleet_overhead_ms_per_request", "ms", Lower),
    layer("serve.fleet_worker_cpu_ms_per_request", "ms", Lower),
    layer("serve.fleet_frames_per_request", "count", Lower),
    layer("serve.fleet_spawns", "count", Lower),
    layer("serve.fleet_restarts", "count", Lower),
    layer("serve.fleet_hedges_dispatched", "count", Lower),
    layer("serve.fleet_degraded", "count", Lower),
    layer("serve.fleet_shard_imbalance", "ratio", Lower),
    layer("obs.overhead_pct", "%", Lower),
    layer("host.steal_pct", "%", Lower),
    layer("host.calib_spin_ms", "ms", Lower),
    layer("host.passes_measured", "count", Higher),
    layer("host.pass_ms_p50", "ms", Lower),
    layer("host.pass_ms_p90", "ms", Lower),
    layer("trace_overhead_pct", "%", Lower),
    layer("trace.self_ms.request", "ms", Lower),
    layer("trace.self_ms.spec.compile_str", "ms", Lower),
    layer("trace.self_ms.spec.into_scenario", "ms", Lower),
    layer("trace.self_ms.designs.scenario_run", "ms", Lower),
    layer("trace.self_ms.serve.submit", "ms", Lower),
    layer("trace.self_ms.serve.wait", "ms", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Kind;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<Json> {
        match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = benchmark_json();
        for (key, defs, bounded) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            let listed = listed(&doc, key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                let text = |k| match entry.get(k) {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("{}: {k}: {other:?}", def.name),
                };
                assert_eq!(text("name"), def.name);
                assert_eq!(text("unit"), def.unit, "{}", def.name);
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(text("better"), better, "{}", def.name);
                let bound = entry.get("bound").and_then(Json::as_f64);
                assert_eq!(bound, bounded.then_some(def.bound), "{}", def.name);
                assert_eq!(entry.members().len(), if bounded { 4 } else { 3 });
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let names: Vec<String> = listed(&benchmark_json(), "workloads")
            .iter()
            .map(|w| match w.get("name") {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(def.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }
}
