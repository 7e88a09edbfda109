//! Scenario-registry and batch-session integration: the declarative
//! path (registry -> session -> search) must return exactly what the
//! per-layer imperative path returns, while provably sharing work.

use sparseloop_core::{EvalJob, EvalSession, JobPlan, Model, Objective, Workload};
use sparseloop_designs::scenario::{table5_name, Table5Design, Table5Net};
use sparseloop_designs::{fig1, MappingPolicy, ScenarioRegistry};
use sparseloop_mapping::{Mapper, Mapspace};
use sparseloop_workloads::{spmspm, Layer};

/// A small multi-layer workload (an AlexNet-like stack of matmul layers
/// with repeating density statistics) on the Fig. 1 coordinate-list
/// design, as search jobs.
fn multi_layer_jobs() -> Vec<(Layer, EvalJob)> {
    [(16, 0.25), (16, 0.5), (32, 0.25), (16, 0.25)]
        .into_iter()
        .enumerate()
        .map(|(i, (size, d))| {
            let mut layer = spmspm(size, size, size, d, d);
            layer.name = format!("layer{i}");
            let dp = fig1::coordinate_list_design(&layer.einsum);
            let space = Mapspace::all_temporal(&layer.einsum, &dp.arch);
            let job = EvalJob {
                workload: Workload::new(layer.einsum.clone(), layer.densities.clone()),
                arch: dp.arch.clone(),
                safs: dp.safs.clone(),
                plan: JobPlan::Search {
                    space,
                    mapper: Mapper::Exhaustive { limit: 2000 },
                    objective: Objective::Edp,
                },
            };
            (layer, job)
        })
        .collect()
}

#[test]
fn search_batch_matches_per_layer_search_parallel_bit_identically() {
    let jobs: Vec<EvalJob> = multi_layer_jobs().into_iter().map(|(_, j)| j).collect();
    // reference: standalone per-layer sequential searches
    for shards in [2, 4] {
        let session = EvalSession::new();
        let batch = session.search_batch(&jobs, Some(shards));
        for (job, outcome) in jobs.iter().zip(&batch) {
            let model = Model::new(job.workload.clone(), job.arch.clone(), job.safs.clone());
            let JobPlan::Search {
                space,
                mapper,
                objective,
            } = &job.plan
            else {
                unreachable!()
            };
            let (reference, stats) = model.search_sharded_counted(space, *mapper, *objective, 1);
            match (outcome, reference) {
                (Ok(got), Some((mapping, eval))) => {
                    assert_eq!(got.mapping, mapping, "shards={shards}");
                    assert_eq!(got.eval.edp, eval.edp, "shards={shards}");
                    assert_eq!(got.eval.cycles, eval.cycles, "shards={shards}");
                    assert_eq!(got.eval.energy_pj, eval.energy_pj, "shards={shards}");
                    assert_eq!(got.stats, stats, "shards={shards}");
                }
                (Err(_), None) => {}
                other => panic!("batch/per-layer disagree on validity: {other:?}"),
            }
        }
    }
}

#[test]
fn session_shares_format_analyses_across_layers() {
    let jobs: Vec<EvalJob> = multi_layer_jobs().into_iter().map(|(_, j)| j).collect();
    // per-layer: every model pays its own analyses
    let mut standalone_misses = 0u64;
    for job in &jobs {
        let model = Model::new(job.workload.clone(), job.arch.clone(), job.safs.clone());
        let JobPlan::Search {
            space,
            mapper,
            objective,
        } = &job.plan
        else {
            unreachable!()
        };
        model.search_sharded_counted(space, *mapper, *objective, 2);
        standalone_misses += model.format_cache_stats().misses;
    }
    // session: layers 0 and 3 are statistically identical, and every
    // layer shares its dense-tensor statistics — strictly fewer analyses
    let session = EvalSession::new();
    session.search_batch(&jobs, Some(2));
    let stats = session.stats();
    assert!(
        stats.format.misses < standalone_misses,
        "session ran {} format analyses, standalone layers ran {standalone_misses}",
        stats.format.misses
    );
    assert!(stats.format.hits > 0, "sharing must be observable");
    // repeated statistics intern one shared density model each
    assert!(stats.density_models > 0);
}

#[test]
fn registry_covers_the_paper_experiments() {
    let reg = ScenarioRegistry::standard();
    for name in [
        "fig1_format_tradeoff",
        "fig11_scnn_validation",
        "fig12_eyerissv2_validation",
        "fig13_dstc_validation",
        "fig15_stc_case_study",
        "fig17_codesign_study",
        "table5_refsim_baseline",
        "table6_validation_summary",
        "table7_eyeriss_rlc",
    ] {
        assert!(reg.get(name).is_some(), "missing scenario {name}");
    }
    for design in Table5Design::ALL {
        for net in Table5Net::ALL {
            let name = table5_name(design, net);
            assert!(reg.get(&name).is_some(), "missing scenario {name}");
        }
    }
}

#[test]
fn scenario_run_matches_design_point_evaluation() {
    // the declarative path returns what the imperative DesignPoint API
    // returns for the same (design, layer, mapping)
    let session = EvalSession::new();
    let out = ScenarioRegistry::standard()
        .expect("fig1_format_tradeoff")
        .run(&session, Some(2));
    assert!(out.results.iter().all(Result::is_ok));
    for (exp, res) in out.succeeded() {
        let MappingPolicy::Fixed(mapping) = &exp.policy else {
            panic!("fig1 uses fixed mappings");
        };
        let direct = exp.design.evaluate(&exp.layer, mapping).unwrap();
        assert_eq!(direct.edp, res.eval.edp, "{}", exp.label);
    }
}

#[test]
fn table6_scenario_preserves_the_stc_exact_speedup() {
    // the paper's deterministic 2x must survive the registry rewiring
    let session = EvalSession::new();
    let out = ScenarioRegistry::standard()
        .expect("table6_validation_summary")
        .run(&session, Some(2));
    let sparse = out.result("STC@2:4").expect("sparse row evaluates");
    let dense = out.result("STC@dense").expect("dense row evaluates");
    let speedup = dense.eval.uarch.compute_cycles / sparse.eval.uarch.compute_cycles;
    assert!((speedup - 2.0).abs() < 1e-9, "got {speedup}");
}
