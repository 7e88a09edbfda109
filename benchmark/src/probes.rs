//! Per-layer probes: the workload's own inputs replayed through one
//! public function of one crate at a time, so a change in an end-to-end
//! number can be pinned on a layer. Probes run only in the traced run,
//! after the measured passes; their shares are indicative, not additive
//! (each replays in isolation, without the contention of a real pass).

use crate::inputs::Inputs;
use crate::workloads::Kind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparseloop_core::uarch::CapacityMode;
use sparseloop_core::{dataflow, sparse, uarch, EvalScratch, EvalSession, JobOutcome, Model};
use sparseloop_core::{Objective, Workload};
use sparseloop_designs::{Experiment, MappingPolicy, ScenarioOutcome, ScenarioRegistry};
use sparseloop_energy::EnergyTable;
use sparseloop_mapping::wire::{decode_mapping, encode_mapping};
use sparseloop_mapping::{CandidateKey, Mapper, Mapping, Mapspace, WireReader, WireWriter};
use sparseloop_serve::protocol::{decode_payload, encode_payload, ExpResult, Frame};
use sparseloop_tensor::einsum::TensorId;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of a timed probe; the fastest is reported (same reasoning
/// as p10 over passes: noise on this box only ever adds).
const REPS: usize = 3;

/// Fastest of [`REPS`] runs of `f`, in seconds, with the last result.
fn best_of<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let value = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best, out.expect("REPS > 0"))
}

/// Runs `f`, adding its wall time (seconds) to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// The enumeration cap, sample count and sample seed of a mapper.
fn budget(mapper: Mapper) -> (usize, usize, u64) {
    match mapper {
        Mapper::Exhaustive { limit } => (limit, 0, 0),
        Mapper::Random { samples, seed } => (0, samples, seed),
        Mapper::Hybrid {
            enumerate,
            samples,
            seed,
            ..
        } => (enumerate, samples, seed),
    }
}

fn workload_of(exp: &Experiment) -> Workload {
    Workload::new(exp.layer.einsum.clone(), exp.layer.densities.clone())
}

/// One named probe result.
pub type Reading = (&'static str, f64);

/// What the probes replay: the workload's requests, their experiments,
/// and the winners the direct reference run found for them.
pub struct Probes<'a> {
    kind: Kind,
    inputs: &'a Inputs,
    reference: &'a [ScenarioOutcome],
    /// The session warm workloads replay on (`None`: `search_cold`, whose
    /// requests each get a fresh one, as in the workload itself).
    warm: Option<EvalSession>,
}

impl<'a> Probes<'a> {
    pub fn new(kind: Kind, inputs: &'a Inputs, reference: &'a [ScenarioOutcome]) -> Self {
        let warm = (kind != Kind::SearchCold).then(|| {
            let session = EvalSession::new();
            for request in &inputs.requests {
                inputs.scenario(request).run(&session, None);
            }
            session
        });
        Probes {
            kind,
            inputs,
            reference,
            warm,
        }
    }

    /// Runs `f` on the session a request of this workload would see.
    fn on_session<T>(&self, f: impl FnOnce(&EvalSession) -> T) -> T {
        match &self.warm {
            Some(session) => f(session),
            None => f(&EvalSession::new()),
        }
    }

    /// The experiment's model, bound to `session`'s shared caches.
    fn model(session: &EvalSession, exp: &Experiment) -> Model {
        session.model(
            workload_of(exp),
            exp.design.arch.clone(),
            exp.design.safs.clone(),
        )
    }

    /// Every search experiment: `(experiment, space, mapper, objective)`.
    fn searches(
        outcome: &ScenarioOutcome,
    ) -> impl Iterator<Item = (&Experiment, &Mapspace, Mapper, Objective)> {
        outcome
            .experiments
            .iter()
            .filter_map(|exp| match &exp.policy {
                MappingPolicy::Search {
                    space,
                    mapper,
                    objective,
                } => Some((exp, space, *mapper, *objective)),
                MappingPolicy::Fixed(_) => None,
            })
    }

    /// Every experiment with a winner.
    fn winners(&self) -> impl Iterator<Item = (&Experiment, &JobOutcome)> {
        self.reference.iter().flat_map(ScenarioOutcome::succeeded)
    }

    /// All probes that apply to this workload.
    pub fn run(&self) -> Vec<Reading> {
        let mut out = Vec::new();
        out.extend(self.spec());
        out.extend(self.designs());
        out.extend(self.mapping());
        out.extend(self.core_search());
        out.extend(self.core_stages());
        out.extend(self.format_cache());
        out.extend(self.format_and_density());
        if self.kind == Kind::ServeFleet {
            out.extend(self.protocol());
        }
        out
    }

    fn spec(&self) -> Vec<Reading> {
        let requests = &self.inputs.requests;
        let kb = requests.iter().map(|r| r.spec.len()).sum::<usize>() as f64 / 1024.0;
        let n = requests.len() as f64;
        let (parse_s, _) = best_of(|| {
            for r in requests {
                black_box(sparseloop_spec::yaml::parse_document(&r.spec).is_ok());
            }
        });
        let (compile_s, _) = best_of(|| {
            for r in requests {
                black_box(sparseloop_spec::compile_str(&r.spec).is_ok());
            }
        });
        let (emit_s, _) = best_of(|| {
            for r in requests {
                black_box(sparseloop_spec::emit_scenario(self.inputs.scenario(r)).len());
            }
        });
        vec![
            ("spec.parse_us_per_kb", 1e6 * parse_s / kb),
            ("spec.compile_ms_per_scenario", 1e3 * compile_s / n),
            ("spec.emit_ms_per_scenario", 1e3 * emit_s / n),
        ]
    }

    fn designs(&self) -> Vec<Reading> {
        let (build_s, _) = best_of(|| {
            let registry = ScenarioRegistry::standard();
            for scenario in registry.scenarios() {
                black_box(scenario.experiments().len());
            }
        });
        vec![("designs.registry_build_ms", 1e3 * build_s)]
    }

    fn mapping(&self) -> Vec<Reading> {
        let searches: Vec<_> = self.reference.iter().flat_map(Self::searches).collect();
        let (enumerate_s, enumerated) = best_of(|| {
            let mut count = 0usize;
            for (_, space, mapper, _) in &searches {
                let mut stream = space.iter_enumerate(budget(*mapper).0);
                while let Some(candidate) = stream.next_delta() {
                    black_box(&candidate);
                    count += 1;
                }
            }
            count
        });
        let (sample_s, sampled) = best_of(|| {
            let mut count = 0usize;
            for (_, space, mapper, _) in &searches {
                let (_, samples, seed) = budget(*mapper);
                for candidate in space.iter_sample(samples, StdRng::seed_from_u64(seed)) {
                    black_box(&candidate);
                    count += 1;
                }
            }
            count
        });
        let mut readings = vec![
            (
                "mapping.enumerate_ns_per_candidate",
                1e9 * enumerate_s / enumerated.max(1) as f64,
            ),
            (
                "mapping.sample_ns_per_candidate",
                1e9 * sample_s / sampled.max(1) as f64,
            ),
        ];
        if self.kind == Kind::ServeFleet {
            // only the fleet shards a request's candidate stream
            let (shards_s, _) = best_of(|| {
                for (_, space, mapper, _) in &searches {
                    for mut shard in space.shards(2, budget(*mapper).0) {
                        while let Some(candidate) = shard.next_delta() {
                            black_box(&candidate);
                        }
                    }
                }
            });
            let mappings: Vec<&Mapping> = self.winners().map(|(_, won)| &won.mapping).collect();
            let (wire_s, _) = best_of(|| {
                for mapping in &mappings {
                    let mut writer = WireWriter::new();
                    encode_mapping(&mut writer, mapping);
                    let bytes = writer.into_bytes();
                    black_box(decode_mapping(&mut WireReader::new(&bytes)).is_ok());
                }
            });
            readings.push((
                "mapping.shards_ms_per_experiment",
                1e3 * shards_s / searches.len().max(1) as f64,
            ));
            readings.push((
                "mapping.wire_roundtrip_ns_per_mapping",
                1e9 * wire_s / mappings.len().max(1) as f64,
            ));
        }
        readings
    }

    /// Precheck and whole-search cost, on the sessions the workload's
    /// requests would see.
    fn core_search(&self) -> Vec<Reading> {
        let mut precheck_s = 0.0;
        let mut candidates = 0usize;
        let mut search_s = 0.0;
        let mut searches = 0usize;
        for outcome in self.reference {
            self.on_session(|session| {
                let mut scratch = EvalScratch::new();
                for (exp, space, mapper, _) in Self::searches(outcome) {
                    let model = Self::model(session, exp);
                    let stream: Vec<Mapping> = mapper.candidates(space).collect();
                    timed(&mut precheck_s, || {
                        for mapping in &stream {
                            black_box(model.precheck_with(mapping, &mut scratch));
                        }
                    });
                    candidates += stream.len();
                }
            });
            // a second session, so the search below starts as cold (or as
            // warm) as the workload's own would, not warmed by the
            // precheck replay above
            self.on_session(|session| {
                for (exp, space, mapper, objective) in Self::searches(outcome) {
                    let model = Self::model(session, exp);
                    black_box(timed(&mut search_s, || {
                        model.search_parallel_counted(space, mapper, objective, None)
                    }));
                    searches += 1;
                }
            });
        }
        vec![
            (
                "core.precheck_ns_per_candidate",
                1e9 * precheck_s / candidates.max(1) as f64,
            ),
            (
                "core.search_ms_per_experiment",
                1e3 * search_s / searches.max(1) as f64,
            ),
        ]
    }

    /// `Model::evaluate` cold and warm, and its three stages one by one,
    /// on the winners.
    fn core_stages(&self) -> Vec<Reading> {
        let energy = EnergyTable::default_45nm();
        let (mut cold, mut warm, mut dense_s, mut sparse_s, mut uarch_s) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        let mut n = 0usize;
        for (exp, won) in self.winners() {
            let model = exp.design.model(&exp.layer);
            black_box(timed(&mut cold, || model.evaluate(&won.mapping).is_ok()));
            black_box(timed(&mut warm, || model.evaluate(&won.mapping).is_ok()));
            // the stages run on the model's (now warm) memoized workload
            let dense = timed(&mut dense_s, || {
                dataflow::analyze(&exp.layer.einsum, &won.mapping)
            });
            let traffic = timed(&mut sparse_s, || {
                sparse::analyze(model.workload(), &dense, model.safs())
            });
            black_box(timed(&mut uarch_s, || {
                uarch::analyze(model.arch(), &traffic, &energy, CapacityMode::Expected)
            }));
            n += 1;
        }
        let per = |s: f64| 1e6 * s / n.max(1) as f64;
        vec![
            ("core.evaluate_us_cold", per(cold)),
            ("core.evaluate_us_warm", per(warm)),
            ("core.dataflow_us_per_mapping", per(dense_s)),
            ("core.sparse_us_per_mapping", per(sparse_s)),
            ("core.uarch_us_per_mapping", per(uarch_s)),
        ]
    }

    /// Mean time of one request run directly on the session this workload's
    /// requests see — what a served request's latency is compared with.
    pub fn direct_ms_per_request(&self) -> f64 {
        let (pass_s, _) = best_of(|| {
            for request in &self.inputs.requests {
                self.on_session(|session| {
                    black_box(self.inputs.scenario(request).run(session, None));
                });
            }
        });
        1e3 * pass_s / self.inputs.requests.len() as f64
    }

    /// Format-analysis cache traffic of one replayed pass.
    fn format_cache(&self) -> Vec<Reading> {
        let (mut misses, mut queries) = (0u64, 0u64);
        for request in &self.inputs.requests {
            self.on_session(|session| {
                let before = session.format_stats();
                self.inputs.scenario(request).run(session, None);
                let after = session.format_stats();
                misses += after.misses - before.misses;
                queries += after.queries() - before.queries();
            });
        }
        vec![
            ("core.format_misses_per_pass", misses as f64),
            (
                "core.format_miss_share",
                misses as f64 / queries.max(1) as f64,
            ),
        ]
    }

    /// `TensorFormat::analyze` and `DensityModel::occupancy`, uncached, on
    /// the tile shapes of the winners.
    fn format_and_density(&self) -> Vec<Reading> {
        let (mut format_s, mut density_s) = (0.0, 0.0);
        let mut calls = 0usize;
        for (exp, won) in self.winners() {
            for entry in &won.eval.dense.entries {
                let Some(format) = exp.design.safs.format_at(entry.level, entry.tensor) else {
                    continue;
                };
                let TensorId(t) = entry.tensor;
                let shape = exp.layer.einsum.tensor_shape(entry.tensor);
                let model = exp.layer.densities[t].instantiate(&shape);
                black_box(timed(&mut format_s, || {
                    format.analyze(&entry.tile_shape, &*model)
                }));
                black_box(timed(&mut density_s, || model.occupancy(&entry.tile_shape)));
                calls += 1;
            }
        }
        vec![
            (
                "format.analyze_us_per_call",
                1e6 * format_s / calls.max(1) as f64,
            ),
            (
                "density.occupancy_us_per_call",
                1e6 * density_s / calls.max(1) as f64,
            ),
        ]
    }

    /// The frame codec on the frames a pass of this workload exchanges:
    /// per request and shard, one `Task` carrying the spec and one
    /// `TaskDone` carrying the shard's winners.
    fn protocol(&self) -> Vec<Reading> {
        const SHARDS: u32 = 2;
        let mut frames = Vec::new();
        for (id, (request, outcome)) in self.inputs.requests.iter().zip(self.reference).enumerate()
        {
            let results: Vec<ExpResult> = outcome
                .experiments
                .iter()
                .zip(&outcome.results)
                .map(|(exp, result)| match (&exp.policy, result) {
                    (MappingPolicy::Fixed(_), _) => ExpResult::Skipped,
                    (_, Ok(won)) => ExpResult::Winner {
                        value: won.eval.edp,
                        key: CandidateKey::sampled(0),
                        stats: won.stats,
                        mapping: won.mapping.clone(),
                    },
                    (_, Err(_)) => ExpResult::NoWinner {
                        stats: Default::default(),
                    },
                })
                .collect();
            for shard in 0..SHARDS {
                frames.push(Frame::Task {
                    id: id as u64,
                    shard,
                    shards: SHARDS,
                    heartbeat_ms: 20,
                    spec: request.spec.clone(),
                    want_stats: false,
                    trace_request: 0,
                    trace_parent: 0,
                });
                frames.push(Frame::TaskDone {
                    id: id as u64,
                    results: results.clone(),
                });
            }
        }
        let (encode_s, payloads) =
            best_of(|| frames.iter().map(encode_payload).collect::<Vec<Vec<u8>>>());
        let (decode_s, _) = best_of(|| {
            for payload in &payloads {
                black_box(decode_payload(payload).is_ok());
            }
        });
        let bytes: usize = payloads.iter().map(Vec::len).sum();
        let n = frames.len() as f64;
        vec![
            ("serve.protocol_encode_ns_per_frame", 1e9 * encode_s / n),
            ("serve.protocol_decode_ns_per_frame", 1e9 * decode_s / n),
            (
                "serve.protocol_bytes_per_request",
                bytes as f64 / self.inputs.requests.len() as f64,
            ),
        ]
    }
}
