//! The repository benchmark runner. See `README.md` for the workload
//! and metric glossary and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! zerber-benchmark run --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1 | --traced] [--quick]
//! zerber-benchmark calibrate [--runs <n>] [--seconds <n>] [--workload <name>] [--quick]
//! ```
//!
//! `run` prints every metric of the run by name with its unit, then —
//! as the last line of standard output — the JSON result object the
//! driver reads. It exits non-zero when an operation failed or a
//! correctness gate did not pass.

mod confidential;
mod harness;
mod ingest;
mod json;
mod layers;
mod metrics;
mod search;
mod trace;
mod workload;

use std::process::ExitCode;

use harness::RunConfig;
use metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Tracer;

/// `run_seconds` of `BENCHMARK.json`: what `--seconds` defaults to.
const DEFAULT_SECONDS: u64 = 10;

fn usage() -> ExitCode {
    eprintln!(
        "usage: zerber-benchmark run --workload <{}> --seed <u64> [--seconds <n>] [--trace 0|1 | --traced] [--quick]\n\
         \x20      zerber-benchmark calibrate [--runs <n>] [--seconds <n>] [--workload <name>] [--quick]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    traced: bool,
    quick: bool,
    runs: Option<usize>,
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut parsed = Args::default();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--workload" => parsed.workload = Some(rest.next()?.clone()),
            "--seed" => parsed.seed = rest.next()?.parse().ok()?,
            "--seconds" => parsed.seconds = Some(rest.next()?.parse().ok().filter(|&s| s >= 1)?),
            "--trace" => parsed.traced = matches!(rest.next()?.as_str(), "1" | "true"),
            "--traced" => parsed.traced = true,
            "--quick" => parsed.quick = true,
            "--runs" => parsed.runs = Some(rest.next()?.parse().ok().filter(|&r| r >= 2)?),
            _ => return None,
        }
    }
    Some(parsed)
}

/// Runs one workload and returns its report.
fn run_workload(workload: &str, config: &RunConfig) -> Report {
    let mut report = Report::default();
    let mut tracer = config.traced.then(Tracer::new);
    match workload {
        "search_cold" => search::run(search::Mode::Cold, config, &mut report, &mut tracer),
        "search_churn" => search::run(search::Mode::Churn, config, &mut report, &mut tracer),
        "ingest_stream" => ingest::run(config, &mut report, &mut tracer),
        "confidential" => confidential::run(config, &mut report, &mut tracer),
        other => unreachable!("workload {other} was validated"),
    }
    if let Some(tracer) = tracer {
        let path = harness::benchmark_dir()
            .join("out")
            .join(format!("trace-{workload}.json"));
        match tracer.write(&path) {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                tracer.len(),
                path.display()
            )),
            Err(error) => report.note(format!("trace file not written: {error}")),
        }
    }
    report.mark("workload torn down");
    report
}

fn run(args: &Args) -> ExitCode {
    let Some(workload) = args.workload.as_deref().filter(|w| WORKLOADS.contains(w)) else {
        return usage();
    };
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        quick: args.quick,
        traced: args.traced,
    };
    println!(
        "workload {workload} seed {} seconds {} traced {} quick {} nproc {}",
        config.seed,
        config.seconds,
        config.traced,
        config.quick,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let report = run_workload(workload, &config);
    print!("{}", report.listing(config.traced));
    println!("{}", report.json_line(config.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The bounds of `BENCHMARK.json`, by end-to-end metric name.
fn declared_bounds() -> Vec<(String, f64)> {
    let path = harness::benchmark_dir().join("..").join("BENCHMARK.json");
    let parsed = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| json::parse(&text));
    parsed
        .as_ref()
        .and_then(|root| root.get("end_to_end"))
        .and_then(json::Value::as_array)
        .map(|metrics| {
            metrics
                .iter()
                .filter_map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_owned(),
                        m.get("bound")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// One child run of this binary; the parsed result line, or `None`.
fn child_run(workload: &str, seed: u64, args: &Args, traced: bool) -> Option<json::Value> {
    let mut command = std::process::Command::new(std::env::current_exe().ok()?);
    command
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = json::parse(stdout.lines().last()?)?;
    (output.status.success() && parsed.get("correct")?.as_bool()?).then_some(parsed)
}

fn metric_value(result: &json::Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// N complete sets of runs, a fresh seed each: per end-to-end metric
/// the median, the quartiles and their distance as a share of the
/// median, beside the bound; then one traced run per workload for the
/// per-layer listing and the traced-versus-untraced rate.
fn calibrate(args: &Args) -> ExitCode {
    let runs = args.runs.unwrap_or(10);
    let bounds = declared_bounds();
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == *w))
        .collect();
    let mut all_within = true;
    for workload in workloads {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for run in 0..runs {
            let seed = 1_000 + run as u64;
            let started = std::time::Instant::now();
            let Some(result) = child_run(workload, seed, args, false) else {
                eprintln!("{workload} seed {seed}: run failed");
                return ExitCode::FAILURE;
            };
            for (column, &(name, _)) in samples.iter_mut().zip(END_TO_END) {
                column.extend(metric_value(&result, name));
            }
            eprintln!(
                "{workload} seed {seed}: {:.1} s",
                started.elapsed().as_secs_f64()
            );
        }
        println!("\n{workload}: {runs} runs");
        println!(
            "{:<20} {:>14} {:>14} {:>14} {:>8} {:>6}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (column, &(name, unit)) in samples.iter().zip(END_TO_END) {
            let median = metrics::median(column);
            let (q1, q3) = metrics::quartiles(column);
            let spread = (q3 - q1) / median;
            let bound = bounds.iter().find(|(n, _)| n == name).map(|&(_, b)| b);
            // The driver holds every spread but that of setup_s to
            // its bound.
            let within = name == "setup_s" || bound.is_none_or(|b| spread <= b);
            all_within &= within;
            println!(
                "{:<20} {median:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}% {:>5.0}% {unit}{}",
                name,
                100.0 * spread,
                100.0 * bound.unwrap_or(0.0),
                if within { "" } else { "  <-- beyond its bound" }
            );
        }
        let rate_column = END_TO_END.iter().position(|&(name, _)| name == "op_per_s");
        let untraced_rate = rate_column.map_or(0.0, |column| metrics::median(&samples[column]));
        if let Some(traced) = child_run(workload, 1_000, args, true) {
            println!("{workload}: traced run, seed 1000");
            for &(name, unit) in PER_LAYER {
                println!(
                    "  {name:<40} {:>16.4} {unit}",
                    metric_value(&traced, name).unwrap_or(0.0)
                );
            }
            println!("  (untraced op_per_s median {untraced_rate:.2})");
        }
    }
    if all_within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, flags)) = args.split_first() else {
        return usage();
    };
    let Some(parsed) = parse_args(flags) else {
        return usage();
    };
    if let Err(error) = harness::confine_scratch() {
        eprintln!("cannot create the scratch directory: {error}");
        return ExitCode::FAILURE;
    }
    match command.as_str() {
        "run" => run(&parsed),
        "calibrate" => calibrate(&parsed),
        _ => usage(),
    }
}
