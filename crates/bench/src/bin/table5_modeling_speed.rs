//! Table 5: modeling speed in computes-simulated-per-host-cycle (CPHC)
//! for Eyeriss, Eyeriss V2 PE and SCNN on ResNet50, BERT-base, VGG16 and
//! AlexNet — plus the >2000x contrast against the per-element reference
//! simulator (the stand-in for cycle-level simulation, which walks every
//! compute like STONNE does).
//!
//! Every cell is a registered scenario (`table5_<design>_<net>`) run
//! through a fresh [`EvalSession`]. The binary only prints; the tracked
//! speed record is slbench (`benchmark/`, `BENCHMARK.json`).

use sparseloop_bench::{concrete_tensors, cphc, fnum, header, row, timed};
use sparseloop_core::EvalSession;
use sparseloop_designs::scenario::{table5_name, Table5Design, Table5Net};
use sparseloop_designs::{ScenarioOutcome, ScenarioRegistry};
use sparseloop_refsim::RefSim;

fn main() {
    println!("== Table 5: computes simulated per host cycle (CPHC) ==\n");
    let registry = ScenarioRegistry::standard();
    // a FRESH session per scenario: each cell starts from cold caches,
    // so its timing does not depend on registry order (caches still
    // share across the scenario's own layers/candidates — that is the
    // per-scenario metric; the smoke bin's scenario phase demonstrates
    // the one-shared-session mode).
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
}
