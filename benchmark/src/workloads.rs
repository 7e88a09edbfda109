//! The four workloads: how each one is set up, how one pass of its
//! request list is driven (closed loop), and how it is torn down.
//!
//! Every workload reaches the program through public functions only:
//! `compile_str` / `Scenario::run` on sessions the benchmark owns, or
//! `EvalService` requests carrying emitted spec text.

use crate::inputs::{Inputs, Request, RequestSet};
use crate::sys;
use crate::trace::{span, Tracer};
use sparseloop_core::EvalSession;
use sparseloop_designs::ScenarioOutcome;
use sparseloop_obs::ObsHub;
use sparseloop_serve::{
    scenario_reply, EvalService, FleetPool, FleetPoolConfig, HostStats, ScenarioReply, ServeConfig,
    ServeError, ServeReply, ServeRequest, ServiceStats,
};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Service workers, closed-loop clients and fleet worker processes: the
/// box has 2 vCPUs, and load comes from one process with at most `nproc`
/// client threads.
pub const SERVICE_WORKERS: usize = 2;
pub const CLIENTS: usize = 2;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SearchCold,
    EvalFixed,
    ServeInproc,
    ServeFleet,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SearchCold,
        Kind::EvalFixed,
        Kind::ServeInproc,
        Kind::ServeFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SearchCold => "search_cold",
            Kind::EvalFixed => "eval_fixed",
            Kind::ServeInproc => "serve_inproc",
            Kind::ServeFleet => "serve_fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn request_set(self) -> RequestSet {
        match self {
            Kind::SearchCold => RequestSet::Table5AndTail,
            Kind::EvalFixed => RequestSet::Fixed9,
            Kind::ServeInproc | Kind::ServeFleet => RequestSet::AllAndTail,
        }
    }

    /// Whether requests go through an [`EvalService`].
    pub fn served(self) -> bool {
        matches!(self, Kind::ServeInproc | Kind::ServeFleet)
    }
}

/// What came back for one request, untouched until the clock has stopped.
pub enum Raw {
    Direct(ScenarioOutcome),
    Served(Result<ServeReply, ServeError>),
    /// The request never got an answer (compile or admission failed).
    Failed(String),
}

impl Raw {
    /// The answer in the one shape the verifier reads.
    pub fn into_reply(self) -> Result<ScenarioReply, String> {
        match self {
            Raw::Direct(outcome) => Ok(scenario_reply(outcome)),
            Raw::Served(Ok(reply @ ServeReply::Scenario(_))) => Ok(reply.into_scenario()),
            Raw::Served(Ok(ServeReply::Job(_))) => Err("job reply to a spec request".into()),
            Raw::Served(Err(e)) => Err(e.to_string()),
            Raw::Failed(why) => Err(why),
        }
    }
}

/// One answered request of a pass.
pub struct Answer {
    /// Index into [`Inputs::requests`].
    pub request: usize,
    /// Submit → reply.
    pub latency: Duration,
    /// Time inside the submit call alone (served workloads; zero
    /// otherwise).
    pub submit: Duration,
    pub raw: Raw,
}

/// One pass: the workload's whole request list, once.
pub struct Pass {
    pub wall: Duration,
    /// CPU time of the process tree over the pass.
    pub cpu_ns: u64,
    /// Of which: the fleet's worker processes.
    pub worker_cpu_ns: u64,
    pub answers: Vec<Answer>,
}

enum Backend {
    /// `search_cold`: a fresh session per request.
    Cold,
    /// `eval_fixed`: one long-lived, pre-warmed session.
    Warm(EvalSession),
    /// `serve_*`: the service, plus its fleet when there is one.
    Service {
        service: EvalService,
        fleet: Option<FleetPool>,
    },
}

/// Counters the service and the fleet hand back at teardown.
#[derive(Debug, Default, Clone, Copy)]
pub struct Teardown {
    pub service: Option<ServiceStats>,
    pub hosts: Option<HostStats>,
}

/// A set-up workload, ready to run passes.
pub struct Harness {
    pub inputs: Inputs,
    backend: Backend,
    /// The fleet's worker processes (empty without a fleet).
    pub worker_pids: Vec<u32>,
}

impl Harness {
    /// The whole set-up path, as `setup_s` times it: build the registry
    /// and the inputs, emit the specs, start the service or the fleet and
    /// pre-warm, and answer the first request.
    ///
    /// `hub` attaches an [`ObsHub`] to the service and the fleet (traced
    /// runs and the `obs.overhead_pct` probe only — measured runs pass
    /// `None`).
    pub fn setup(kind: Kind, seed: u64, worker_bin: &Path, hub: Option<ObsHub>) -> Harness {
        let inputs = Inputs::build(kind.request_set(), seed);
        let config = ServeConfig::default()
            .with_workers(SERVICE_WORKERS)
            .with_queue_capacity(inputs.requests.len());
        let backend = match kind {
            Kind::SearchCold => Backend::Cold,
            Kind::EvalFixed => {
                let session = EvalSession::new();
                for request in &inputs.requests {
                    inputs.scenario(request).run(&session, None);
                }
                Backend::Warm(session)
            }
            Kind::ServeInproc => Backend::Service {
                service: match hub {
                    Some(hub) => EvalService::start_observed(config, hub),
                    None => EvalService::start(config),
                },
                fleet: None,
            },
            Kind::ServeFleet => {
                // shipped defaults: 2 shard workers per host, 20 ms
                // heartbeat, no hedging, default breaker
                let pool_config = FleetPoolConfig::default().with_hosts(1);
                let fleet = match hub {
                    Some(hub) => FleetPool::processes_observed(pool_config, worker_bin, hub),
                    None => FleetPool::processes(pool_config, worker_bin),
                };
                Backend::Service {
                    service: EvalService::start_with_fleet(config, fleet.clone()),
                    fleet: Some(fleet),
                }
            }
        };
        let worker_pids = if kind == Kind::ServeFleet {
            sys::child_pids()
        } else {
            Vec::new()
        };
        let harness = Harness {
            inputs,
            backend,
            worker_pids,
        };
        harness.run_pass(&[0], 0, None);
        harness
    }

    fn request(&self, index: usize) -> &Request {
        &self.inputs.requests[index]
    }

    /// CPU time of the process tree so far: `(total, workers' share)`.
    fn cpu_ns(&self) -> (u64, u64) {
        let workers = sys::children_cpu_ns(&self.worker_pids);
        (sys::process_cpu_ns() + workers, workers)
    }

    /// Runs the requests `order` names once, closed loop, and returns the
    /// raw answers. `pass_id` only labels the spans of a traced pass.
    pub fn run_pass(&self, order: &[usize], pass_id: u64, tracer: Option<&Tracer>) -> Pass {
        let request_id = |slot: usize| pass_id * self.inputs.requests.len() as u64 + slot as u64;
        let (cpu_before, workers_before) = self.cpu_ns();
        let start = Instant::now();
        let answers = match &self.backend {
            Backend::Cold => order
                .iter()
                .enumerate()
                .map(|(slot, &i)| self.answer_cold(i, request_id(slot), tracer))
                .collect(),
            Backend::Warm(session) => order
                .iter()
                .enumerate()
                .map(|(slot, &i)| self.answer_warm(session, i, request_id(slot), tracer))
                .collect(),
            Backend::Service { service, .. } => {
                // CLIENTS closed-loop clients share one cursor over the
                // pass's order: each sends its next request only after
                // its previous reply
                let cursor = AtomicUsize::new(0);
                let client = || {
                    let mut mine = Vec::new();
                    loop {
                        let slot = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = order.get(slot) else {
                            return mine;
                        };
                        mine.push(self.answer_served(service, i, request_id(slot), tracer));
                    }
                };
                std::thread::scope(|scope| {
                    let clients: Vec<_> = (0..CLIENTS).map(|_| scope.spawn(client)).collect();
                    clients
                        .into_iter()
                        .flat_map(|c| c.join().expect("client thread panicked"))
                        .collect()
                })
            }
        };
        let wall = start.elapsed();
        let (cpu_after, workers_after) = self.cpu_ns();
        Pass {
            wall,
            cpu_ns: cpu_after.saturating_sub(cpu_before),
            worker_cpu_ns: workers_after.saturating_sub(workers_before),
            answers,
        }
    }

    /// `search_cold`: spec text → compile → scenario → fresh session →
    /// run. Nothing is shared between requests.
    fn answer_cold(&self, index: usize, id: u64, tracer: Option<&Tracer>) -> Answer {
        let text = &self.request(index).spec;
        let start = Instant::now();
        let raw = span(tracer, "request", 0, id, |root| {
            let compiled = span(tracer, "spec.compile_str", root, id, |_| {
                sparseloop_spec::compile_str(text)
            });
            match compiled {
                Err(e) => Raw::Failed(e.to_string()),
                Ok(compiled) => {
                    let scenario = span(tracer, "spec.into_scenario", root, id, |_| {
                        compiled.into_scenario()
                    });
                    let session =
                        span(tracer, "core.session_new", root, id, |_| EvalSession::new());
                    Raw::Direct(span(tracer, "designs.scenario_run", root, id, |_| {
                        scenario.run(&session, None)
                    }))
                }
            }
        });
        Answer {
            request: index,
            latency: start.elapsed(),
            submit: Duration::ZERO,
            raw,
        }
    }

    /// `eval_fixed`: the registry scenario on the long-lived session.
    fn answer_warm(
        &self,
        session: &EvalSession,
        index: usize,
        id: u64,
        tracer: Option<&Tracer>,
    ) -> Answer {
        let scenario = self.inputs.scenario(self.request(index));
        let start = Instant::now();
        let raw = span(tracer, "request", 0, id, |root| {
            Raw::Direct(span(tracer, "designs.scenario_run", root, id, |_| {
                scenario.run(session, None)
            }))
        });
        Answer {
            request: index,
            latency: start.elapsed(),
            submit: Duration::ZERO,
            raw,
        }
    }

    /// `serve_*`: spec text through the service's queue.
    fn answer_served(
        &self,
        service: &EvalService,
        index: usize,
        id: u64,
        tracer: Option<&Tracer>,
    ) -> Answer {
        let text = &self.request(index).spec;
        let start = Instant::now();
        let mut submit = Duration::ZERO;
        let raw = span(tracer, "request", 0, id, |root| {
            let ticket = span(tracer, "serve.submit", root, id, |_| {
                let ticket = service.submit_blocking(ServeRequest::Spec(text.clone()));
                submit = start.elapsed();
                ticket
            });
            match ticket {
                Err(e) => Raw::Failed(e.to_string()),
                Ok(ticket) => Raw::Served(span(tracer, "serve.wait", root, id, |_| ticket.wait())),
            }
        });
        Answer {
            request: index,
            latency: start.elapsed(),
            submit,
            raw,
        }
    }

    /// Stops the service and the fleet (worker processes are killed and
    /// reaped) and returns their counters.
    pub fn teardown(self) -> Teardown {
        match self.backend {
            Backend::Cold | Backend::Warm(_) => Teardown::default(),
            Backend::Service { service, fleet } => {
                let service = Some(service.shutdown());
                let hosts = fleet.map(|fleet| {
                    let stats = fleet.host_stats();
                    fleet.shutdown();
                    stats
                });
                Teardown { service, hosts }
            }
        }
    }
}
