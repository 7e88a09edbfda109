//! Property-based concurrency audit of the evaluation service: random
//! interleavings of valid, poisoned (panicking), and canceled requests
//! against 2–4 workers must always leave the service consistent —
//! every ticket resolves, the stats buckets partition the admitted
//! requests exactly, and a panic never poisons later requests (the
//! session generation is recycled under the survivors' feet).

use proptest::prelude::*;
use sparseloop_arch::{ArchitectureBuilder, ComponentClass, ComputeSpec, StorageLevel};
use sparseloop_core::{EvalJob, JobPlan, Objective, SafSpec, Workload};
use sparseloop_density::DensityModelSpec;
use sparseloop_designs::{Scenario, ScenarioRegistry};
use sparseloop_mapping::{Mapper, Mapspace};
use sparseloop_serve::{EvalService, ServeConfig, ServeError, ServeRequest, Ticket};
use sparseloop_tensor::einsum::Einsum;

fn small_job(density: f64) -> EvalJob {
    let e = Einsum::matmul(8, 8, 8);
    let workload = Workload::new(
        e.clone(),
        vec![
            DensityModelSpec::Uniform { density },
            DensityModelSpec::Dense,
            DensityModelSpec::Dense,
        ],
    );
    let arch = ArchitectureBuilder::new("t")
        .level(StorageLevel::new("DRAM").with_class(ComponentClass::Dram))
        .level(StorageLevel::new("Buf").with_capacity(1024))
        .compute(ComputeSpec::new("MAC", 2))
        .build()
        .unwrap();
    let space = Mapspace::all_temporal(&e, &arch);
    EvalJob {
        workload,
        arch,
        safs: SafSpec::dense(),
        plan: JobPlan::Search {
            space,
            mapper: Mapper::Exhaustive { limit: 100 },
            objective: Objective::Edp,
        },
    }
}

fn poisoned_registry() -> ScenarioRegistry {
    ScenarioRegistry::new(vec![Scenario::new(
        "poison",
        "panics while building its experiments",
        || panic!("poisoned scenario"),
    )])
}

proptest! {
    /// `ops` encodes the request mix: 0 = valid job, 1 = poisoned
    /// scenario (panics in the worker), 2 = valid job whose ticket is
    /// canceled immediately after admission.
    #[test]
    fn random_request_mixes_leave_the_service_consistent(
        workers in 2usize..5,
        ops in proptest::collection::vec(0u32..3, 2..8),
    ) {
        let service = EvalService::start_with_registry(
            ServeConfig::default()
                .with_workers(workers)
                .with_queue_capacity(64),
            poisoned_registry(),
        );
        let mut tickets: Vec<(u32, Ticket)> = Vec::new();
        let mut poisons = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let density = 0.1 + (i as f64) * 0.09;
            let ticket = match op {
                1 => {
                    poisons += 1;
                    service
                        .submit(ServeRequest::Scenario("poison".into()))
                        .unwrap()
                }
                _ => service
                    .submit(ServeRequest::Job(Box::new(small_job(density))))
                    .unwrap(),
            };
            if *op == 2 {
                ticket.cancel();
            }
            tickets.push((*op, ticket));
        }

        // every ticket resolves, each to an outcome its kind allows
        for (op, ticket) in tickets {
            let resolved = ticket.wait();
            match op {
                0 => {
                    let outcome = resolved.expect("valid request must succeed").into_job();
                    prop_assert!(outcome.is_ok(), "valid job failed: {:?}", outcome.err());
                }
                1 => match resolved {
                    Err(ServeError::Panicked(msg)) => {
                        prop_assert!(msg.contains("poisoned"), "{msg}")
                    }
                    other => return Err(TestCaseError::fail(format!(
                        "poisoned request must report the panic, got {other:?}"
                    ))),
                },
                _ => match resolved {
                    // lost the race: worker finished before the cancel
                    Ok(reply) => prop_assert!(reply.into_job().is_ok()),
                    Err(ServeError::Canceled) => {}
                    other => return Err(TestCaseError::fail(format!(
                        "canceled request may complete or cancel, got {other:?}"
                    ))),
                },
            }
        }

        // post-panic requests run on a fresh session generation
        if poisons > 0 {
            let after = service
                .submit(ServeRequest::Job(Box::new(small_job(0.42))))
                .unwrap();
            prop_assert!(after.wait().unwrap().into_job().is_ok());
        }

        let stats = service.shutdown();
        prop_assert_eq!(stats.panicked, poisons);
        prop_assert_eq!(
            stats.submitted,
            stats.completed + stats.panicked + stats.canceled,
            "every admitted request lands in exactly one bucket: {:?}", stats
        );
        prop_assert_eq!(stats.rejected, 0);
        if poisons > 0 {
            prop_assert!(stats.recycles >= 1, "a panic must retire the session");
        }
    }
}
