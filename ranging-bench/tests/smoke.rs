//! Tiny-size smoke run of every workload, untraced and traced: the run
//! must pass its own output checks and print every metric that
//! `BENCHMARK.json` lists for its mode.
//!
//! `cargo test --release --manifest-path ranging-bench/Cargo.toml`

use std::process::Command;

/// The metric names of one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ranging-bench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_passes_its_checks_at_tiny_size() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = listed(section);
        assert!(!names.is_empty(), "{section} lists metrics");
        for workload in ["acquire", "roam", "tdoa"] {
            let result = run(workload, trace);
            assert!(
                result.starts_with("{\"correct\": true,") && result.contains("\"failed\": 0,"),
                "{workload} trace={trace}: {result}"
            );
            for name in &names {
                assert!(
                    result.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} trace={trace}: {name} missing"
                );
            }
        }
    }
}

#[test]
fn a_bad_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_ranging-bench"))
        .args(["--workload", "nope", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
