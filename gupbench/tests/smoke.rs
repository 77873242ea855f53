//! The benchmark's own tests: smoke-size runs of every workload must print
//! every metric `BENCHMARK.json` names, with its unit, and a deliberately
//! wrong expected count must trip the correctness gate.

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["point-large", "search-hard", "serve-stream"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`, which
/// lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.lines()
        .filter_map(|line| {
            let name = quoted_after(line, "\"name\": ")?;
            let unit = quoted_after(line, "\"unit\": ")?;
            Some((name, unit))
        })
        .collect()
}

fn quoted_after(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> Output {
    let traces = concat!(env!("CARGO_TARGET_TMPDIR"), "/traces");
    Command::new(env!("CARGO_BIN_EXE_gupbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--smoke", "--trace-dir", traces])
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

fn last_line(output: &Output) -> String {
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout.lines().last().unwrap_or_default().to_string()
}

fn assert_prints(section: &str, trace: &str) {
    let metrics = declared(section);
    assert!(metrics.len() >= 6, "{section} declares its metrics");
    for workload in WORKLOADS {
        let output = run(workload, trace, &[]);
        assert!(
            output.status.success(),
            "{workload} --trace {trace} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let line = last_line(&output);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
        for (name, unit) in &metrics {
            let key = format!("\"{name}\": {{\"value\": ");
            let at = line
                .find(&key)
                .unwrap_or_else(|| panic!("{workload} does not print {name}: {line}"));
            let tail = &line[at + key.len()..];
            let (value, rest) = tail.split_once(',').expect("value is followed by its unit");
            let value: f64 = value.parse().expect("value is a number");
            assert!(value.is_finite(), "{workload} {name} = {value}");
            assert!(
                rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                "{workload} prints {name} without unit {unit}: {line}"
            );
        }
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_its_unit() {
    assert_prints("end_to_end", "0");
}

#[test]
fn every_workload_prints_every_per_layer_metric_with_its_unit() {
    assert_prints("per_layer", "1");
}

#[test]
fn a_wrong_expected_count_trips_the_correctness_gate() {
    for workload in ["point-large", "serve-stream"] {
        let output = run(workload, "0", &["--inject-wrong-count"]);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{workload} must fail the gate"
        );
        assert!(last_line(&output).starts_with("{\"correct\": false,"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("correctness gate failed on {workload}")),
            "{stderr}"
        );
    }
}

#[test]
fn an_unknown_workload_is_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_gupbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
