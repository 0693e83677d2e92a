//! The benchmark's own tests: every workload passes its checks at tiny
//! scale, the seed reaches the simulated outputs, tracing does not change
//! them, the reported metrics are the ones `BENCHMARK.json` declares, and
//! bad command lines fail without printing a result.

use std::path::PathBuf;
use std::process::Command;

use perfbench::workloads::{Scale, Workload};
use perfbench::{run, Options, Outcome, DEFAULT_SEED};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let trace_out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("trace-{}-{seed}-{trace}.json", workload.name()));
    let outcome = run(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        trace_out: trace_out.clone(),
    });
    assert!(
        outcome.correct(),
        "{} seed {seed} trace {trace}: {:?}",
        workload.name(),
        outcome.failures
    );
    assert!(outcome.attempted > 0);
    if trace {
        let written = std::fs::read_to_string(&trace_out).expect("the traced run writes its spans");
        assert!(written.contains("\"spans\"") && written.contains("\"provenance\""));
    }
    outcome
}

#[test]
fn every_workload_passes_its_checks_at_tiny_scale() {
    for workload in Workload::ALL {
        let outcome = tiny(workload, DEFAULT_SEED, false);
        assert!(outcome.provenance.contains(workload.name()));
        assert!(outcome.provenance.contains("\"available_parallelism\""));
    }
}

#[test]
fn a_different_seed_changes_the_digest() {
    for workload in Workload::ALL {
        let a = tiny(workload, DEFAULT_SEED, false);
        let b = tiny(workload, DEFAULT_SEED + 1, false);
        assert_ne!(a.digest, b.digest, "{}", workload.name());
    }
}

#[test]
fn traced_and_untraced_runs_agree() {
    for workload in Workload::ALL {
        let untraced = tiny(workload, 7, false);
        let traced = tiny(workload, 7, true);
        assert_eq!(untraced.digest, traced.digest, "{}", workload.name());
    }
}

/// The `"name"` values of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section is declared");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote").to_owned())
        .collect()
}

#[test]
fn metrics_match_the_declaration() {
    let names = |o: &Outcome| o.metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    let untraced = tiny(Workload::DisseminationAdversarial, DEFAULT_SEED, false);
    assert_eq!(names(&untraced), declared("end_to_end"));
    let traced = tiny(Workload::StaticShared, DEFAULT_SEED, true);
    assert_eq!(names(&traced), declared("per_layer"));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, declared("workloads"));
    for m in untraced.metrics {
        assert!(
            m.value > 0.0,
            "end-to-end metric {} reads {}",
            m.name,
            m.value
        );
    }
}

#[test]
fn one_command_reports_every_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "all", "--scale", "tiny", "--seconds", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    for workload in Workload::ALL {
        for metric in declared("end_to_end") {
            assert!(last.contains(&format!("\"{}.{metric}\"", workload.name())));
        }
        assert!(stdout.contains(&format!("checks {} attempted=", workload.name())));
    }
}

#[test]
fn bad_command_lines_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "static_shared", "--trace", "2"],
        &["--workload", "static_shared", "--seconds"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
