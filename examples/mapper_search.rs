//! Mapspace exploration: how much does the mapping matter? Search a
//! constrained mapspace and compare the best, median and worst valid
//! mappings by EDP (the reason the paper insists on fast models:
//! characterizing a design fairly requires searching its mapspace).
//!
//! Run with: `cargo run -p sparseloop --example mapper_search`

use sparseloop_core::{Model, Objective, Workload};
use sparseloop_designs::fig1;
use sparseloop_mapping::{Mapper, Mapspace};
use sparseloop_tensor::einsum::DimId;
use sparseloop_workloads::spmspm;

fn main() {
    let layer = spmspm(32, 32, 32, 0.2, 0.2);
    let dp = fig1::coordinate_list_design(&layer.einsum);
    let workload = Workload::new(layer.einsum.clone(), layer.densities.clone());
    let model = Model::new(workload, dp.arch.clone(), dp.safs.clone());
    let space =
        Mapspace::all_temporal(&layer.einsum, &dp.arch).with_spatial_dims(1, vec![DimId(1)]);

    // collect every valid candidate's EDP
    let mut edps = Vec::new();
    Mapper::Exhaustive { limit: 3000 }.search(&space, |m| {
        let v = model.evaluate(m).ok().map(|e| e.edp);
        if let Some(x) = v {
            edps.push(x);
        }
        v
    });
    edps.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(!edps.is_empty(), "mapspace should contain valid mappings");

    // the production path: streaming candidates through the capacity
    // precheck, split into 2 shards, deterministically reduced
    let (winner, stats) = model.search_sharded_counted(
        &space,
        Mapper::Exhaustive { limit: 3000 },
        Objective::Edp,
        2,
    );
    let (best, eval) = winner.expect("search succeeds");
    let (seq_best, seq_eval) = model
        .search(&space, Mapper::Exhaustive { limit: 3000 }, Objective::Edp)
        .expect("search succeeds");
    assert_eq!(best, seq_best, "sharded and sequential winners agree");
    assert_eq!(eval.edp, seq_eval.edp);
    println!("candidates generated : {}", stats.generated);
    println!("capacity-prechecked  : {} pruned", stats.pruned);
    println!("fully evaluated      : {}", stats.evaluated);
    println!("candidates evaluated : {}", edps.len());
    println!("best EDP             : {:.3e}", edps[0]);
    println!("median EDP           : {:.3e}", edps[edps.len() / 2]);
    println!("worst EDP            : {:.3e}", edps[edps.len() - 1]);
    println!(
        "best/worst spread    : {:.1}x",
        edps[edps.len() - 1] / edps[0]
    );
    println!("\nbest mapping:\n{}", best.render(&layer.einsum, &dp.arch));
    println!("cycles {:.0}, energy {:.1} pJ", eval.cycles, eval.energy_pj);
}
