//! The runner against `BENCHMARK.json`: every workload, at `--quick`
//! scale, emits exactly the declared metric names with the declared
//! units, passes its correctness gate, and repeats its operation
//! stream for a repeated seed.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `name -> unit` of one metric section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("section is an array")
        .iter()
        .map(|metric| {
            let field = |key: &str| {
                metric
                    .get(key)
                    .and_then(Value::as_str)
                    .expect(key)
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    benchmark_json()
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

struct Run {
    success: bool,
    stdout: String,
}

impl Run {
    fn result(&self) -> Value {
        let last = self.stdout.lines().last().expect("a result line");
        json::parse(last).expect("the last line is one JSON object")
    }

    fn line_starting(&self, prefix: &str) -> &str {
        self.stdout
            .lines()
            .find(|line| line.starts_with(prefix))
            .unwrap_or_else(|| panic!("no line starts with {prefix:?}"))
    }
}

fn run(workload: &str, seed: u64, trace: &str) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_zerber-benchmark"))
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", trace, "--quick"])
        .output()
        .expect("the runner starts");
    Run {
        success: output.status.success(),
        stdout: String::from_utf8(output.stdout).expect("UTF-8 output"),
    }
}

fn emitted(result: &Value) -> BTreeMap<String, (f64, String)> {
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("metrics is an object");
    };
    metrics
        .iter()
        .map(|(name, metric)| {
            let value = metric.get("value").and_then(Value::as_f64).expect("value");
            let unit = metric.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), (value, unit.to_owned()))
        })
        .collect()
}

fn assert_result_shape(result: &Value) {
    let Value::Object(keys) = result else {
        panic!("the result is an object");
    };
    let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted")
            >= 1.0
    );
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
}

#[test]
fn benchmark_json_names_the_four_workloads_and_setup_s() {
    assert_eq!(
        workloads(),
        [
            "search_cold",
            "search_churn",
            "ingest_stream",
            "confidential"
        ]
    );
    let end_to_end = declared("end_to_end");
    assert_eq!(end_to_end.get("setup_s").map(String::as_str), Some("s"));
    let spec = benchmark_json();
    let paths = spec.get("paths").and_then(Value::as_array).expect("paths");
    assert_eq!(paths, [Value::String("benchmark".to_owned())]);
}

#[test]
fn untraced_runs_emit_exactly_the_end_to_end_metrics() {
    let declared = declared("end_to_end");
    for workload in workloads() {
        let run = run(&workload, 3, "0");
        assert!(run.success, "{workload} exited non-zero:\n{}", run.stdout);
        let result = run.result();
        assert_result_shape(&result);
        let emitted = emitted(&result);
        assert_eq!(
            emitted.keys().collect::<Vec<_>>(),
            declared.keys().collect::<Vec<_>>(),
            "{workload}"
        );
        for (name, (value, unit)) in &emitted {
            assert_eq!(unit, &declared[name], "{workload} {name}");
            // Every end-to-end metric is defined, and never zero, on
            // every workload.
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload} {name} = {value}"
            );
        }
    }
}

#[test]
fn traced_runs_emit_exactly_the_per_layer_metrics() {
    let declared = declared("per_layer");
    for workload in workloads() {
        let run = run(&workload, 3, "1");
        assert!(run.success, "{workload} exited non-zero:\n{}", run.stdout);
        let result = run.result();
        assert_result_shape(&result);
        let emitted = emitted(&result);
        assert_eq!(
            emitted.keys().collect::<Vec<_>>(),
            declared.keys().collect::<Vec<_>>(),
            "{workload}"
        );
        for (name, (value, unit)) in &emitted {
            assert_eq!(unit, &declared[name], "{workload} {name}");
            assert!(
                value.is_finite() && *value >= 0.0,
                "{workload} {name} = {value}"
            );
        }
        // The layers a workload is about must have been measured.
        let layer = match workload.as_str() {
            "search_cold" | "search_churn" => "query.terms_execute_ms",
            "ingest_stream" => "segment.insert_batch_ms_p50",
            _ => "shamir.split_melements_per_s",
        };
        assert!(emitted[layer].0 > 0.0, "{workload} never measured {layer}");
        assert!(
            emitted["obs.tracing_overhead_pct"].0 > 0.0,
            "{workload}: tracing overhead not stated"
        );
    }
}

#[test]
fn a_seed_fixes_the_operation_stream_and_the_exact_counts() {
    for workload in workloads() {
        let (first, again, other) = (
            run(&workload, 11, "0"),
            run(&workload, 11, "0"),
            run(&workload, 12, "0"),
        );
        let hash = "operation stream hash";
        assert_eq!(
            first.line_starting(hash),
            again.line_starting(hash),
            "{workload}"
        );
        assert_ne!(
            first.line_starting(hash),
            other.line_starting(hash),
            "{workload}"
        );
        let wire = |run: &Run| emitted(&run.result())["wire_bytes_per_op"].0;
        assert_eq!(
            wire(&first),
            wire(&again),
            "{workload}: wire bytes are an exact count"
        );
    }
}

#[test]
fn a_bad_invocation_prints_no_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_zerber-benchmark"))
        .args(["run", "--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("the runner starts");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
