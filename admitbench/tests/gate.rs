//! End-to-end checks of the benchmark binary: a clean run prints every
//! metric `BENCHMARK.json` names, and the correctness gate bites.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_admitbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs")
}

/// The metric names of one section of `BENCHMARK.json`.
fn names(section: &str) -> Vec<String> {
    let spec = include_str!("../../BENCHMARK.json");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn last_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn clean_runs_print_every_metric_by_name_and_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = run(&[
            "--workload",
            "commit-small",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = last_line(&out);
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        let wanted = names(section);
        assert!(!wanted.is_empty());
        for name in wanted {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing from {json}"
            );
        }
    }
}

#[test]
fn a_wrong_expectation_fails_the_run() {
    let out = run(&[
        "--workload",
        "commit-small",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--wrong-expectation",
    ]);
    assert!(!out.status.success());
    assert!(!last_line(&out).contains("\"correct\""));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("amount-sign rule"), "{stderr}");
}

#[test]
fn unknown_workloads_are_refused() {
    let out = run(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!out.status.success());
}
