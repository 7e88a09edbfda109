//! Verification: every reply of every pass is compared, off the clock,
//! with the answer a direct in-process run of the same scenario gives
//! (`sparseloop_spec::outcome_drift` must be `None`), search counters must
//! add up, and the paper experiments pinned in `reference/winners.json`
//! must keep a winner at least as good.

use crate::inputs::Inputs;
use crate::json::Json;
use crate::stats::geomean;
use crate::workloads::Answer;
use sparseloop_core::{EvalSession, JobError, JobOutcome};
use sparseloop_designs::ScenarioOutcome;
use sparseloop_mapping::SearchStats;

/// The pinned reference, embedded at build time (regenerate with
/// `slbench --write-reference`, then rebuild).
const WINNERS_JSON: &str = include_str!("../reference/winners.json");

/// What one verified pass adds up to.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PassTally {
    pub requests: u64,
    pub failed_requests: u64,
    pub experiments: u64,
    /// Experiments answered with a valid winning mapping that matches the
    /// direct reference.
    pub ok_experiments: u64,
    /// Searches that ended without any valid candidate.
    pub no_valid_experiments: u64,
    /// Summed mapper counters of the pass.
    pub stats: SearchStats,
    /// Mean spatial utilization of the winners.
    pub winner_utilization_mean: f64,
}

/// Counters of a result, fruitless searches included.
fn stats_of(result: &Result<JobOutcome, JobError>) -> Option<&SearchStats> {
    match result {
        Ok(outcome) => Some(&outcome.stats),
        Err(JobError::NoValidCandidate { stats }) => Some(stats),
        Err(JobError::Eval(_) | JobError::Canceled) => None,
    }
}

/// Direct-run reference answers for a workload's requests, and the
/// running record of everything that failed to match them.
pub struct Verifier {
    /// Per request: the scenario run directly on a fresh session.
    reference: Vec<ScenarioOutcome>,
    /// Per request: a scratch outcome whose `results` each reply is moved
    /// into, so `outcome_drift` can compare like with like.
    shells: Vec<ScenarioOutcome>,
    /// Requests sent (all passes).
    pub attempted: u64,
    /// Requests that failed or drifted.
    pub failed: u64,
    /// The first few problems, for the report.
    pub problems: Vec<String>,
}

/// Problems kept verbatim; the rest are only counted.
const MAX_PROBLEMS: usize = 8;

impl Verifier {
    /// Runs every request's scenario directly, each on its own fresh
    /// session, single-process — the answers the workloads must reproduce.
    pub fn new(inputs: &Inputs) -> Verifier {
        let scenarios = || inputs.requests.iter().map(|r| inputs.scenario(r));
        Verifier {
            reference: scenarios()
                .map(|s| s.run(&EvalSession::new(), None))
                .collect(),
            shells: scenarios()
                .map(|s| ScenarioOutcome {
                    name: s.name().to_string(),
                    experiments: s.experiments(),
                    results: Vec::new(),
                    wall_seconds: 0.0,
                })
                .collect(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// The direct-run answers, index-aligned with the request list.
    pub fn reference(&self) -> &[ScenarioOutcome] {
        &self.reference
    }

    pub fn problem(&mut self, what: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(what);
        }
    }

    /// Checks one pass's answers against the reference. A request lost to
    /// an error, or whose reply drifts, fails all of its experiments.
    pub fn check_pass(&mut self, answers: Vec<Answer>) -> PassTally {
        let mut tally = PassTally::default();
        let mut utilization = 0.0;
        for answer in answers {
            let i = answer.request;
            let name = self.reference[i].name.clone();
            let experiments = self.reference[i].experiments.len() as u64;
            tally.requests += 1;
            tally.experiments += experiments;
            let verdict = answer.raw.into_reply().and_then(|reply| {
                let reference = &self.reference[i];
                let labels_match = reply.labels.len() == reference.experiments.len()
                    && reply
                        .labels
                        .iter()
                        .zip(&reply.required)
                        .zip(&reference.experiments)
                        .all(|((label, required), e)| *label == e.label && *required == e.required);
                if !labels_match {
                    return Err("experiment labels or required flags differ".to_string());
                }
                let shell = &mut self.shells[i];
                shell.results = reply.results;
                match sparseloop_spec::outcome_drift(reference, shell) {
                    Some(drift) => Err(format!("drift from the direct run: {drift}")),
                    None => Ok(()),
                }
            });
            if let Err(why) = verdict {
                tally.failed_requests += 1;
                self.problem(format!("{name}: {why}"));
                continue;
            }
            let mut unbalanced = None;
            for result in &self.shells[i].results {
                if let Some(stats) = stats_of(result) {
                    if stats.generated != stats.pruned + stats.evaluated + stats.invalid {
                        unbalanced = Some(*stats);
                    }
                    tally.stats.absorb(stats);
                }
                match result {
                    Ok(outcome) => {
                        tally.ok_experiments += 1;
                        utilization += outcome.eval.utilization;
                    }
                    Err(JobError::NoValidCandidate { .. }) => tally.no_valid_experiments += 1,
                    Err(_) => {}
                }
            }
            if let Some(stats) = unbalanced {
                tally.failed_requests += 1;
                self.problem(format!("{name}: search counters do not add up: {stats:?}"));
            }
        }
        tally.winner_utilization_mean = utilization / (tally.ok_experiments.max(1)) as f64;
        self.attempted += tally.requests;
        self.failed += tally.failed_requests;
        tally
    }

    /// Winner EDP ÷ pinned EDP, geomean over the paper experiments the
    /// reference lists for this workload's requests, plus how many of them
    /// still report bit-identical (EDP, cycles, energy). A listed
    /// experiment that no longer has a winner is a verification failure.
    pub fn edp_vs_reference(&mut self, inputs: &Inputs) -> (f64, u64, u64) {
        let pinned = Json::parse(WINNERS_JSON).expect("reference/winners.json parses");
        let mut ratios = Vec::new();
        let mut identical = 0;
        let mut lost = Vec::new();
        for (request, outcome) in inputs.requests.iter().zip(&self.reference) {
            let Some(scenario) = pinned.get(&request.name).filter(|_| request.paper) else {
                continue;
            };
            for (label, entry) in scenario.members() {
                let field = |key| entry.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
                match outcome.result(label) {
                    Some(now) => {
                        ratios.push(now.eval.edp / field("edp"));
                        identical += u64::from(
                            now.eval.edp.to_bits() == field("edp").to_bits()
                                && now.eval.cycles.to_bits() == field("cycles").to_bits()
                                && now.eval.energy_pj.to_bits() == field("energy_pj").to_bits(),
                        );
                    }
                    None => lost.push(format!(
                        "{}/{label}: pinned winner lost (the reference lists it, the run found none)",
                        request.name
                    )),
                }
            }
        }
        self.failed += lost.len() as u64;
        for what in lost {
            self.problem(what);
        }
        (geomean(&ratios), identical, ratios.len() as u64)
    }
}

/// `reference/winners.json` for the current commit: per paper scenario and
/// experiment with a winner, the pinned EDP, cycles and energy.
pub fn winners_document() -> Json {
    let inputs = Inputs::build(crate::inputs::RequestSet::AllAndTail, 0);
    Json::obj(inputs.requests.iter().filter(|r| r.paper).map(|request| {
        let outcome = inputs.scenario(request).run(&EvalSession::new(), None);
        let winners = outcome.succeeded().map(|(exp, won)| {
            (
                exp.label.clone(),
                Json::obj([
                    ("edp", Json::Num(won.eval.edp)),
                    ("cycles", Json::Num(won.eval.cycles)),
                    ("energy_pj", Json::Num(won.eval.energy_pj)),
                ]),
            )
        });
        (request.name.clone(), Json::obj(winners.collect::<Vec<_>>()))
    }))
}
