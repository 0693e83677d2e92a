//! Command-line entry point of the hybridcast benchmark.
//!
//! ```text
//! perfbench --workload <static_shared|churn_pernode|dissemination_adversarial|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny]
//! ```
//!
//! Prints provenance and human-readable lines, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--workload all` runs each workload in a child process
//! of its own and prints every workload's metrics, prefixed with its name.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use perfbench::workloads::{Scale, Workload};
use perfbench::{Metric, Options, Outcome, DEFAULT_SEED};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match parsed {
        Some(opts) => run_one(&opts),
        None => run_all(&args),
    }
}

/// Parses the command line; `None` stands for `--workload all`.
fn parse(args: &[String]) -> Result<Option<Options>, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 35.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = match value {
                    "all" => Some(None),
                    name => Some(Some(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload '{name}'"))?,
                    )),
                }
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            "--scale" => {
                scale = Scale::parse(value).ok_or_else(|| format!("bad --scale '{value}'"))?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(workload.map(|workload| Options {
        workload,
        seed,
        seconds,
        trace,
        scale,
        trace_out: PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{seed}.json",
            workload.name()
        )),
    }))
}

fn run_one(opts: &Options) -> ExitCode {
    let outcome = perfbench::run(opts);
    print_outcome(opts.workload.name(), &outcome);
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}

fn print_outcome(workload: &str, outcome: &Outcome) {
    println!("# provenance {}", outcome.provenance);
    for line in &outcome.log {
        println!("# {workload} {line}");
    }
    for m in &outcome.metrics {
        println!("metric {workload} {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "checks {workload} attempted={} failed={} fail_ratio={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for failure in &outcome.failures {
        println!("# {workload} FAILED: {failure}");
    }
}

/// Runs every workload in a child process of its own, echoes each
/// child's report, and combines their results into the last line.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut combined = Outcome {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        log: Vec::new(),
        digest: 0,
        provenance: String::new(),
    };
    for workload in Workload::ALL {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parse saw --workload");
        child_args[at + 1] = workload.name().to_owned();
        let output = Command::new(&exe)
            .args(&child_args)
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) if output.status.success() => output,
            Ok(output) => {
                eprintln!("error: {} exited with {}", workload.name(), output.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: cannot run {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        lines.pop(); // the child's own result object
        for line in lines {
            println!("{line}");
            absorb(line, &mut combined);
        }
    }
    println!("{}", combined.result_json());
    ExitCode::SUCCESS
}

/// Folds one child report line into the combined outcome.
fn absorb(line: &str, combined: &mut Outcome) {
    let fields: Vec<&str> = line.split_whitespace().collect();
    match fields.as_slice() {
        ["metric", workload, name, value, unit] => {
            let Ok(value) = value.parse() else { return };
            let unit = match *unit {
                "s" => "s",
                "ms" => "ms",
                "1/s" => "1/s",
                "MB" => "MB",
                "ratio" => "ratio",
                _ => "count",
            };
            combined.metrics.push(Metric {
                name: format!("{workload}.{name}"),
                value,
                unit,
            });
        }
        ["checks", _, attempted, failed, _] => {
            let count = |field: &str| {
                field
                    .split_once('=')
                    .and_then(|(_, v)| v.parse::<u64>().ok())
                    .unwrap_or(0)
            };
            combined.attempted += count(attempted);
            combined.failed += count(failed);
        }
        _ => {}
    }
}
