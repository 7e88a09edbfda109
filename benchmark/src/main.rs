//! `slbench`: the repository's benchmark — wall time from a spec to a
//! good mapping, cold and warm, in-process and through the fleet, with
//! the answers verified and the model's error stated beside the speed.
//!
//! ```text
//! slbench --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//! slbench --selfcheck [--seed N] [--seconds S]
//! slbench --write-reference
//! ```
//!
//! See `README.md` for the metrics, the workloads and the run shape.

mod accuracy;
mod inputs;
mod json;
mod metrics;
mod probes;
mod run;
mod stats;
mod sys;
mod trace;
mod verify;
mod workloads;

use json::Json;
use metrics::{Better, END_TO_END, PER_LAYER};
use run::{Options, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Kind;

/// The measured window of a stand-alone run; `BENCHMARK.json` passes its
/// own `run_seconds`.
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage: slbench --workload <search_cold|eval_fixed|serve_inproc|serve_fleet> \
[--seed N] [--seconds S] [--trace [0|1]]\n       slbench --selfcheck [--seed N] [--seconds S]\n       \
slbench --write-reference";

enum Command {
    Run(Options),
    SelfCheck { seed: u64, seconds: f64 },
    WriteReference,
}

/// This package's directory: where `reference/` and `out/` live.
fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The worker executable: a sibling of this one in the profile directory.
fn worker_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate slbench: {e}"))?;
    let worker = exe.with_file_name("slbench-worker");
    if worker.exists() {
        Ok(worker)
    } else {
        Err(format!(
            "{} not found (build both binaries: cargo build --release)",
            worker.display()
        ))
    }
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut selfcheck = false;
    let mut write_reference = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Kind::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => {
                let text = value("an unsigned integer")?;
                seed = text.parse().map_err(|_| format!("bad seed {text:?}"))?;
            }
            "--seconds" => {
                let text = value("a number of seconds")?;
                seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad duration {text:?}"))?;
            }
            "--trace" => {
                // bare `--trace` switches tracing on; the driver's form
                // carries an explicit 0 or 1
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--selfcheck" => selfcheck = true,
            "--write-reference" => write_reference = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    match (write_reference, selfcheck, workload) {
        (true, false, None) => Ok(Command::WriteReference),
        (false, true, None) => Ok(Command::SelfCheck { seed, seconds }),
        (false, false, Some(kind)) => Ok(Command::Run(Options {
            kind,
            seed,
            seconds,
            trace,
            worker: worker_bin()?,
            out_dir: home().join("out"),
        })),
        _ => Err(format!(
            "choose one of --workload, --selfcheck, --write-reference\n{USAGE}"
        )),
    }
}

fn run_one(opts: &Options) -> Report {
    let report = if opts.trace {
        run::traced(opts)
    } else {
        run::measured(opts)
    };
    run::assert_known(&report);
    report
}

/// The human-readable report: every metric by name with its unit.
fn print_report(report: &Report) {
    println!(
        "== slbench {} seed {} ({}, {} passes in the window, nproc {}) ==",
        report.kind.name(),
        report.seed,
        if report.traced {
            "traced run"
        } else {
            "measured run"
        },
        report.passes,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("-- end to end (timings are p10 over passes) --");
    for (def, value) in run::tabulate(&END_TO_END, &report.end_to_end) {
        if let Some(value) = value {
            println!("{:<44} {value:>16.6} {}", def.name, def.unit);
        }
    }
    println!("-- per layer --");
    for (def, value) in run::tabulate(&PER_LAYER, &report.per_layer) {
        if let Some(value) = value {
            println!("{:<44} {value:>16.6} {}", def.name, def.unit);
        }
    }
    println!(
        "verification: {} requests attempted, {} failed",
        report.attempted, report.failed
    );
    for problem in &report.problems {
        println!("PROBLEM: {problem}");
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`;
/// the end-to-end metrics of a measured run, the per-layer metrics of a
/// traced one (a metric that does not apply to the workload reads 0).
fn result_line(report: &Report) -> String {
    let (defs, values) = if report.traced {
        (&PER_LAYER[..], &report.per_layer)
    } else {
        (&END_TO_END[..], &report.end_to_end)
    };
    let metrics = run::tabulate(defs, values).map(|(def, value)| {
        (
            def.name,
            Json::obj([
                ("value", Json::Num(value.unwrap_or(0.0))),
                ("unit", Json::Str(def.unit.to_string())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_line()
}

/// One measured run in a process of its own — fresh `VmHWM`, thread pools
/// and allocator state, exactly as the driver runs it — echoed to stdout.
/// Returns the metrics of its result line and whether it exited cleanly.
fn child_run(kind: Kind, seed: u64, seconds: f64) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate slbench: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run slbench: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let line = text.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| format!("{}: no result line ({e})", kind.name()))?;
    let metrics = doc.get("metrics").cloned().unwrap_or(Json::Null);
    Ok((metrics, output.status.success()))
}

/// A/A: every workload twice with identical settings; every end-to-end
/// metric must agree within its own bound (the deterministic ones
/// bit-equal). Prints both runs in full — canaries included — and then
/// the comparison.
fn selfcheck(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut agree = true;
    let mut table = Vec::new();
    for kind in Kind::ALL {
        let (a, a_ok) = child_run(kind, seed, seconds)?;
        let (b, b_ok) = child_run(kind, seed, seconds)?;
        agree &= a_ok && b_ok;
        table.push(format!("== selfcheck {} seed {seed} ==", kind.name()));
        for def in &END_TO_END {
            let value = |run: &Json| {
                run.get(def.name)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{} missing from a result line", def.name))
            };
            let (x, y) = (value(&a)?, value(&b)?);
            let exact = def.bound == metrics::EXACT_BOUND;
            let apart = match def.better {
                Better::Lower => x.max(y) / x.min(y) - 1.0,
                Better::Higher => 1.0 - x.min(y) / x.max(y),
            };
            let ok = if exact {
                x.to_bits() == y.to_bits()
            } else {
                apart <= def.bound
            };
            agree &= ok;
            table.push(format!(
                "{:<24} {x:>14.6} {y:>14.6} {:<6} {:>6.2}% apart (bound {}){}",
                def.name,
                def.unit,
                100.0 * apart,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", 100.0 * def.bound)
                },
                if ok { "" } else { "  <-- DISAGREE" },
            ));
        }
    }
    for line in table {
        println!("{line}");
    }
    println!("selfcheck: {}", if agree { "PASS" } else { "FAIL" });
    Ok(agree)
}

/// Regenerates `reference/winners.json` and `reference/accuracy.yaml` from
/// the current commit (rebuild afterwards: both are embedded).
fn write_reference() -> std::io::Result<()> {
    let dir = home().join("reference");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join("winners.json"),
        verify::winners_document().to_pretty(),
    )?;
    std::fs::write(dir.join("accuracy.yaml"), accuracy::reference_spec())?;
    println!(
        "wrote {}/{{winners.json,accuracy.yaml}}; rebuild slbench",
        dir.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Run(opts) => {
            let report = run_one(&opts);
            print_report(&report);
            if report.traced {
                println!(
                    "spans: {}",
                    run::span_file(&opts.out_dir, opts.kind).display()
                );
            }
            println!("{}", result_line(&report));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Command::SelfCheck { seed, seconds } => match selfcheck(seed, seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::from(2)
            }
        },
        Command::WriteReference => match write_reference() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cannot write the reference: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
