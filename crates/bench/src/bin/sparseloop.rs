//! The `sparseloop` command-line front-end: run, check, list and emit
//! declarative scenario specs (see the `sparseloop-spec` crate docs for
//! the grammar).
//!
//! ```text
//! sparseloop list [<spec-dir>]        # registered + spec-dir scenarios
//! sparseloop check <spec.yaml>...     # parse + compile, report errors
//! sparseloop run <spec.yaml | name> [--shards N]
//! sparseloop emit <scenario-name>     # standard scenario -> spec text
//! sparseloop emit --all <dir>         # whole registry -> <dir>/<name>.yaml
//! sparseloop stats [<spec.yaml | name>] [--shards N] [--metrics-snapshot <path>]
//!                  [--serve <addr>]
//! sparseloop paper [<figure>...]      # paper figures beside published values
//! ```
//!
//! `run` searches each experiment's mapspace in `--shards N` disjoint
//! shards evaluated concurrently (default 1: one sequential walk);
//! results are bit-identical at any shard count.
//!
//! `stats` serves the scenario through an *observed* evaluation service
//! and an in-process worker fleet sharing one metrics hub, then prints
//! the Prometheus-style snapshot and the request trace table (see the
//! README's "Observability" section for the metric catalog). With
//! `--serve <addr>` it additionally binds the dependency-free
//! observability HTTP server there (`/metrics`, `/healthz`, `/traces`)
//! and stays up until stdin reaches EOF, so `curl` can poke around.
//!
//! `paper` runs each named figure or table of the paper's evaluation
//! (`fig01`, ..., `table7`) and prints its rows with the published value
//! and a computed verdict beside them (`sparseloop_bench::paper`); with
//! no figure it lists them. It exits non-zero when a row fails to
//! evaluate; a verdict that reads outside the paper does not.

use sparseloop_bench::{fnum, header, paper, row};
use sparseloop_core::EvalSession;
use sparseloop_designs::{Scenario, ScenarioOutcome, ScenarioRegistry};
use sparseloop_obs::ObsHub;
use sparseloop_serve::{
    EvalService, HostConfig, ServeConfig, ServeRequest, ShardHost, ThreadSpawner,
};
use sparseloop_spec::{emit_scenario, load_file, SpecRegistryExt};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage:
  sparseloop list [<spec-dir>]
  sparseloop check <spec.yaml>...
  sparseloop run <spec.yaml | scenario-name> [--shards N]
  sparseloop emit <scenario-name>
  sparseloop emit --all <dir>
  sparseloop stats [<spec.yaml | scenario-name>] [--shards N] [--metrics-snapshot <path>] [--serve <addr>]
  sparseloop paper [<figure>...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match command {
        "list" => list(rest),
        "check" => check(rest),
        "run" => run(rest),
        "emit" => emit(rest),
        "stats" => stats(rest),
        "paper" => paper(rest),
        other => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn list(args: &[String]) -> ExitCode {
    let registry = ScenarioRegistry::standard();
    let registry = match args.first() {
        Some(dir) => match registry.with_specs(dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => registry,
    };
    for scenario in registry.scenarios() {
        println!("{:40} {}", scenario.name(), scenario.title());
    }
    ExitCode::SUCCESS
}

fn check(args: &[String]) -> ExitCode {
    if args.is_empty() {
        eprintln!("check: no spec files given\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in args {
        match load_file(path) {
            Ok(compiled) => {
                println!(
                    "{path}: ok — scenario {:?}, {} experiments",
                    compiled.name,
                    compiled.experiments.len()
                );
            }
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut target = None;
    let mut shards = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => shards = Some(n.max(1)),
                None => {
                    eprintln!("run: --shards needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            other if target.is_none() => target = Some(other.to_string()),
            other => {
                eprintln!("run: unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(target) = target else {
        eprintln!("run: no spec file or scenario name given\n{USAGE}");
        return ExitCode::FAILURE;
    };
    // a path that exists is a spec file; anything else is a registry name
    let scenario: Scenario = if Path::new(&target).is_file() {
        match load_file(&target) {
            Ok(compiled) => compiled.into_scenario(),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let registry = ScenarioRegistry::standard();
        match registry.get(&target) {
            Some(_) => {
                // re-emit + compile instead of moving out of the registry:
                // Scenario is not Clone, and this also exercises the
                // front-end on the way through
                let text = emit_scenario(registry.expect(&target));
                match sparseloop_spec::compile_str(&text) {
                    Ok(c) => c.into_scenario(),
                    Err(e) => {
                        eprintln!("internal emit/compile error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => {
                eprintln!(
                    "{target:?} is neither a spec file nor a registered scenario; registered: {:?}",
                    registry.names()
                );
                return ExitCode::FAILURE;
            }
        }
    };
    let session = EvalSession::new();
    let outcome = scenario.run(&session, shards);
    print_outcome(&scenario, &outcome);
    let all_required_ok = outcome
        .experiments
        .iter()
        .zip(&outcome.results)
        .all(|(e, r)| r.is_ok() || !e.required);
    if all_required_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_outcome(scenario: &Scenario, outcome: &ScenarioOutcome) {
    println!("== {} — {} ==\n", scenario.name(), scenario.title());
    header(&["experiment", "cycles", "energy pJ", "EDP", "util"]);
    for (exp, result) in outcome.experiments.iter().zip(&outcome.results) {
        match result {
            Ok(r) => row(&[
                exp.label.clone(),
                fnum(r.eval.cycles),
                fnum(r.eval.energy_pj),
                fnum(r.eval.edp),
                format!("{:.3}", r.eval.utilization),
            ]),
            Err(e) => row(&[
                exp.label.clone(),
                format!("failed: {e}"),
                String::new(),
                String::new(),
                String::new(),
            ]),
        }
    }
    let stats = outcome.total_stats();
    println!(
        "\n{} experiments in {:.3}s — {} mappings generated, {} evaluated, {} pruned ({} mappings/s)",
        outcome.experiments.len(),
        outcome.wall_seconds,
        stats.generated,
        stats.evaluated,
        stats.pruned,
        fnum(outcome.mappings_per_sec())
    );
}

/// `sparseloop stats`: serve one scenario through an observed
/// [`EvalService`] and an observed in-process worker fleet (one shared
/// [`ObsHub`]), then print the metrics snapshot and trace table.
fn stats(args: &[String]) -> ExitCode {
    let mut target: Option<String> = None;
    let mut shards = 2usize;
    let mut out: Option<String> = None;
    let mut serve_addr: Option<std::net::SocketAddr> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => shards = n.max(1),
                None => {
                    eprintln!("stats: --shards needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-snapshot" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("stats: --metrics-snapshot needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--serve" => match it.next().and_then(|v| v.parse().ok()) {
                Some(addr) => serve_addr = Some(addr),
                None => {
                    eprintln!("stats: --serve needs a socket address (e.g. 127.0.0.1:9184)");
                    return ExitCode::FAILURE;
                }
            },
            other if target.is_none() => target = Some(other.to_string()),
            other => {
                eprintln!("stats: unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let target = target.unwrap_or_else(|| "fig1_format_tradeoff".to_string());
    // resolve to spec *text*: both the service and the fleet consume it
    let text = if Path::new(&target).is_file() {
        match load_file(&target) {
            Ok(_) => std::fs::read_to_string(&target).expect("re-read checked spec file"),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let registry = ScenarioRegistry::standard();
        match registry.get(&target) {
            Some(scenario) => emit_scenario(scenario),
            None => {
                eprintln!(
                    "{target:?} is neither a spec file nor a registered scenario; registered: {:?}",
                    registry.names()
                );
                return ExitCode::FAILURE;
            }
        }
    };
    let hub = ObsHub::new();

    // phase 1: the queue-driven service
    let mut config = ServeConfig::default().with_workers(2).with_shards(shards);
    if let Some(addr) = serve_addr {
        config = config.with_obs_server(addr);
    }
    let service = EvalService::start_observed(config, hub.clone());
    let ticket = match service.submit(ServeRequest::Spec(text.clone())) {
        Ok(ticket) => ticket,
        // a fresh service can still refuse admission (saturated queue,
        // watermark shed); the error carries depth/capacity/retry
        // context, so render it instead of panicking
        Err(e) => {
            eprintln!("stats: request refused at admission: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = ticket.wait() {
        eprintln!("stats: service request failed: {e}");
        return ExitCode::FAILURE;
    }
    let _ = service.metrics_snapshot(); // refresh session/queue gauges

    // phase 2: the supervised fleet (in-process workers — no external
    // binary needed; `ProcessSpawner` fleets publish identically)
    let mut host = ShardHost::new_observed(
        HostConfig::default().with_shards(shards),
        ThreadSpawner,
        hub.clone(),
    );
    let scenario = match sparseloop_spec::compile_str(&text) {
        Ok(compiled) => compiled.into_scenario(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = host.run(&scenario, &text, &EvalSession::new(), None) {
        eprintln!("stats: fleet request failed: {e}");
        return ExitCode::FAILURE;
    }
    drop(host);

    let snap = hub.snapshot();
    println!("{}", snap.render_text());
    println!("{}", hub.traces().render_text());
    if let Some(path) = out {
        sparseloop_bench::write_metrics_snapshot(Path::new(&path), &snap);
    }
    if serve_addr.is_some() {
        let Some(addr) = service.obs_http_addr() else {
            eprintln!("stats: observability server failed to bind");
            service.shutdown();
            return ExitCode::FAILURE;
        };
        println!(
            "observability server on http://{addr} — GET /metrics, /healthz, /traces, \
             /traces/<request-id>; EOF on stdin (Ctrl-D) shuts down"
        );
        // stay up for curl until the operator closes stdin
        let mut sink = String::new();
        while matches!(std::io::stdin().read_line(&mut sink), Ok(n) if n != 0) {
            sink.clear();
        }
    }
    service.shutdown();
    ExitCode::SUCCESS
}

fn paper(args: &[String]) -> ExitCode {
    if args.is_empty() {
        for (id, title) in paper::figures() {
            println!("{id:8} {title}");
        }
        return ExitCode::SUCCESS;
    }
    // reject a bad id before running figures that take minutes
    if let Some(bad) = args
        .iter()
        .find(|a| !paper::figures().any(|(id, _)| id == *a))
    {
        let ids: Vec<_> = paper::figures().map(|(id, _)| id).collect();
        eprintln!("paper: unknown figure {bad:?}; known: {ids:?}");
        return ExitCode::FAILURE;
    }
    let mut all_evaluated = true;
    for id in args {
        all_evaluated &= paper::print(id).expect("id checked above");
    }
    if all_evaluated {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn emit(args: &[String]) -> ExitCode {
    match args {
        [flag, dir] if flag == "--all" => {
            let registry = ScenarioRegistry::standard();
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("emit: cannot create {dir}: {e}");
                return ExitCode::FAILURE;
            }
            for scenario in registry.scenarios() {
                let path = Path::new(dir).join(format!("{}.yaml", scenario.name()));
                if let Err(e) = std::fs::write(&path, emit_scenario(scenario)) {
                    eprintln!("emit: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", path.display());
            }
            ExitCode::SUCCESS
        }
        [name] => {
            let registry = ScenarioRegistry::standard();
            match registry.get(name) {
                Some(scenario) => {
                    print!("{}", emit_scenario(scenario));
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!(
                        "no scenario named {name:?}; registered: {:?}",
                        registry.names()
                    );
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
