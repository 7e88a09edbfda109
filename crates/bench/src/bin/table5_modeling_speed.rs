//! Table 5: modeling speed in computes-simulated-per-host-cycle (CPHC)
//! for Eyeriss, Eyeriss V2 PE and SCNN on ResNet50, BERT-base, VGG16 and
//! AlexNet — plus the >2000x contrast against the per-element reference
//! simulator (the stand-in for cycle-level simulation, which walks every
//! compute like STONNE does).
//!
//! Every row is a registered scenario (`table5_<design>_<net>`) run
//! through one shared [`EvalSession`], and *every* scenario in the
//! registry contributes a throughput row to `BENCH_mapper.json` — the
//! tracked perf trajectory covers each paper design, not one fixed case.

use sparseloop_bench::{concrete_tensors, cphc, fnum, header, row, timed};
use sparseloop_core::EvalSession;
use sparseloop_designs::scenario::{table5_name, Table5Design, Table5Net};
use sparseloop_designs::{ScenarioOutcome, ScenarioRegistry};
use sparseloop_refsim::RefSim;

fn main() {
    println!("== Table 5: computes simulated per host cycle (CPHC) ==\n");
    let registry = ScenarioRegistry::standard();
    // a FRESH session per scenario: each recorded row starts from cold
    // caches, so the tracked per-scenario timings stay comparable across
    // commits regardless of registry order (caches still share across
    // the scenario's own layers/candidates — that is the per-scenario
    // metric; scenario_smoke demonstrates the one-shared-session mode).
    // Sessions drop right after their run; only the counters are kept.
    let mut cache_totals = (0u64, 0u64);
    let outcomes: Vec<ScenarioOutcome> = registry
        .scenarios()
        .iter()
        .map(|sc| {
            let session = EvalSession::new();
            let out = sc.run(&session, None);
            let st = session.stats();
            cache_totals.0 += st.format.misses;
            cache_totals.1 += st.format.hits;
            out
        })
        .collect();
    let outcome = |name: &str| {
        outcomes
            .iter()
            .find(|o| o.name == name)
            .expect("scenario ran")
    };

    let mut cols = vec!["design".to_string()];
    cols.extend(Table5Net::ALL.iter().map(|n| n.name().to_string()));
    header(&cols.iter().map(String::as_str).collect::<Vec<_>>());
    let mut best_cphc: f64 = 0.0;
    for design in Table5Design::ALL {
        let mut cells = vec![design.name().to_string()];
        for net in Table5Net::ALL {
            let out = outcome(&table5_name(design, net));
            let v = cphc(out.modeled_computes(), out.wall_seconds);
            best_cphc = best_cphc.max(v);
            cells.push(fnum(v));
        }
        row(&cells);
    }

    // The per-element baseline on a scaled workload: CPHC << 1.
    println!("\n-- cycle-level-style baseline (per-element reference simulator) --");
    let base = outcome("table5_refsim_baseline");
    let (exp, res) = base
        .succeeded()
        .next()
        .expect("baseline scenario finds a mapping");
    let tensors = concrete_tensors(&exp.layer, 1);
    let (sim, secs) = timed(|| {
        RefSim::new(
            &exp.layer.einsum,
            &exp.design.arch,
            &res.mapping,
            &exp.design.safs,
            &tensors,
        )
        .run()
    });
    let sim_cphc = cphc(sim.computes_total(), secs);
    println!("reference simulator CPHC: {}", fnum(sim_cphc));
    println!("best analytical CPHC:     {}", fnum(best_cphc));
    println!(
        "speedup: {:.0}x (paper: >2000x vs cycle-level STONNE, CPHC < 0.5)",
        best_cphc / sim_cphc
    );

    println!(
        "\nper-scenario session caches: {} format analyses, {} hits",
        cache_totals.0, cache_totals.1
    );

    // candidate-scoring before/after for the tracked scenarios: the
    // from-scratch (stateless, allocating) pipeline vs the incremental
    // (scratch-arena + prefix-caching) pipeline over identical streams
    println!("\n-- evaluation-pipeline delta (pruned sequential scoring) --");
    let deltas: Vec<sparseloop_bench::EvalDelta> = DELTA_SCENARIOS
        .iter()
        .map(|name| {
            let sc = registry.get(name).expect("tracked scenario registered");
            let d = sparseloop_bench::measure_eval_delta(sc, 3);
            println!(
                "{}: {} candidates, {:.0} -> {:.0} mappings/s ({:.2}x)",
                d.name,
                d.candidates,
                d.from_scratch_mps,
                d.incremental_mps,
                d.speedup()
            );
            d
        })
        .collect();

    // machine-readable search-throughput record, tracked across PRs
    let path = write_mapper_bench(&outcomes, &deltas);
    println!("\nwrote search-throughput record to {path}");
}

/// Scenarios whose candidate-scoring before/after lands in
/// `BENCH_mapper.json` (the acceptance rows of the incremental-pipeline
/// work, plus representatives of each tracked design family).
const DELTA_SCENARIOS: &[&str] = &[
    "table5_eyeriss_vgg16",
    "table5_eyeriss_resnet50",
    "fig12_eyerissv2_validation",
];

/// Writes `BENCH_mapper.json`: the fixed capacity-constrained spMspM
/// search (comparable across commits), one throughput row per
/// registered scenario, and the evaluation-pipeline before/after rows.
fn write_mapper_bench(
    outcomes: &[ScenarioOutcome],
    deltas: &[sparseloop_bench::EvalDelta],
) -> String {
    use sparseloop_core::Objective;

    let (model, space, mapper) = sparseloop_bench::tight_search_scenario();

    // warm the model's format/density caches so all variants compare
    // steady-state throughput
    let _ = model.search(&space, mapper, Objective::Edp);

    let ((seq, stats), seq_secs) =
        timed(|| model.search_sharded_counted(&space, mapper, Objective::Edp, 1));
    let seq = seq.expect("search succeeds");
    let (unpruned, unpruned_secs) = timed(|| {
        mapper
            .search(&space, |m: &sparseloop_mapping::Mapping| {
                model.evaluate(m).ok().map(|e| e.edp)
            })
            .expect("search succeeds")
    });
    // the pruned sequential path through the from-scratch reference
    // pipeline (pre-arena behavior) — the "before" of the tracked
    // sequential_pruned row
    let (seq_ref, seq_ref_secs) = timed(|| {
        mapper
            .search_sharded_counted(&space, &model.evaluator_from_scratch(Objective::Edp), 1)
            .0
            .expect("search succeeds")
    });
    assert_eq!(seq.1.edp, seq_ref.objective, "reference/incremental parity");
    // the same driver at one shard per core
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ((par, _), par_secs) =
        timed(|| model.search_sharded_counted(&space, mapper, Objective::Edp, threads));
    assert_eq!(
        seq.0,
        par.expect("search succeeds").0,
        "sharded/sequential parity"
    );

    let scenario_rows: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let t = o.total_stats();
            let ok = o.results.iter().filter(|r| r.is_ok()).count();
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"experiments\": {}, \"succeeded\": {}, ",
                    "\"generated\": {}, \"pruned\": {}, \"evaluated\": {}, ",
                    "\"wall_time_s\": {:.6}, \"mappings_per_sec\": {:.1}}}"
                ),
                o.name,
                o.experiments.len(),
                ok,
                t.generated,
                t.pruned,
                t.evaluated,
                o.wall_seconds,
                o.mappings_per_sec(),
            )
        })
        .collect();

    let delta_rows: Vec<String> = deltas
        .iter()
        .map(|d| {
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"candidates\": {}, ",
                    "\"from_scratch_mappings_per_sec\": {:.1}, ",
                    "\"incremental_mappings_per_sec\": {:.1}, ",
                    "\"speedup\": {:.3}}}"
                ),
                d.name,
                d.candidates,
                d.from_scratch_mps,
                d.incremental_mps,
                d.speedup(),
            )
        })
        .collect();

    let json = format!(
        concat!(
            "{{\n",
            "  \"scenario\": \"spmspm64_bitmask_tight1024_exhaustive\",\n",
            "  \"generated\": {},\n",
            "  \"pruned\": {},\n",
            "  \"evaluated\": {},\n",
            "  \"invalid\": {},\n",
            "  \"wall_time_s\": {{\n",
            "    \"sequential_unpruned\": {:.6},\n",
            "    \"sequential_pruned_from_scratch\": {:.6},\n",
            "    \"sequential_pruned\": {:.6},\n",
            "    \"parallel\": {:.6}\n",
            "  }},\n",
            "  \"mappings_per_sec\": {{\n",
            "    \"sequential_unpruned\": {:.1},\n",
            "    \"sequential_pruned_from_scratch\": {:.1},\n",
            "    \"sequential_pruned\": {:.1},\n",
            "    \"parallel\": {:.1}\n",
            "  }},\n",
            "  \"threads\": {},\n",
            "  \"scenarios\": [\n{}\n  ],\n",
            "  \"eval_delta\": [\n{}\n  ]\n",
            "}}\n"
        ),
        stats.generated,
        stats.pruned,
        stats.evaluated,
        stats.invalid,
        unpruned_secs,
        seq_ref_secs,
        seq_secs,
        par_secs,
        unpruned.stats.generated as f64 / unpruned_secs.max(1e-12),
        seq_ref.stats.generated as f64 / seq_ref_secs.max(1e-12),
        stats.generated as f64 / seq_secs.max(1e-12),
        stats.generated as f64 / par_secs.max(1e-12),
        threads,
        scenario_rows.join(",\n"),
        delta_rows.join(",\n"),
    );
    let path = "BENCH_mapper.json";
    std::fs::write(path, json).expect("write BENCH_mapper.json");
    path.to_string()
}
