//! `repro` — regenerates every table and figure of the paper's
//! evaluation section (Section 7) from the synthetic workloads.
//!
//! Usage:
//!
//! ```text
//! repro [--smoke]
//!       [all|table1|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|micro|bandwidth|storage|compression|security|ablation]
//! ```
//!
//! `--smoke` runs a reduced-scale variant (seconds instead of
//! minutes); the default scale preserves the paper's distributional
//! shapes at 200k documents and 200k queries. Absolute numbers differ
//! from the paper (different hardware and corpus scale); shapes,
//! orderings and crossovers are the reproduction target — see
//! docs/REPRO.md.
//!
//! This binary reproduces the paper and nothing else: the repository's
//! own performance numbers come from the benchmark package
//! (`BENCHMARK.json`, `benchmark/`).

use zerber_bench::experiments::{
    ablation, bandwidth, compression, fig10_qratio, fig11_efficiency, fig12_response, fig5_studip,
    fig6_workload, fig7_pt, fig8_r_vs_m, fig9_amplification, micro, security, storage, table1,
};
use zerber_bench::Scale;

/// Every experiment name `repro` accepts (`all` selects each of them).
const TARGETS: &str = "all table1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 micro bandwidth \
    storage compression security ablation";

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    smoke: bool,
    /// Selected experiments; empty means all.
    targets: Vec<String>,
}

/// Parses the command line, rejecting anything `repro` would not act
/// on: a CI line naming a renamed or removed target must fail, not
/// pass vacuously.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    for arg in args {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            target if TARGETS.split(' ').any(|t| t == target) => {
                parsed.targets.push(target.to_string())
            }
            unknown => {
                return Err(format!(
                    "unknown argument `{unknown}`\nflags: --smoke\ntargets: {TARGETS}"
                ))
            }
        }
    }
    Ok(parsed)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Default
    };
    let wanted = |name: &str| -> bool {
        args.targets.is_empty() || args.targets.iter().any(|s| s == "all" || s == name)
    };

    println!("Zerber reproduction harness (scale: {scale:?})");
    println!("================================================\n");

    let start = std::time::Instant::now();
    if wanted("table1") {
        println!("{}", table1::render(&table1::run(scale)));
    }
    if wanted("fig5") {
        println!("{}", fig5_studip::render(&fig5_studip::run(scale)));
    }
    if wanted("fig6") {
        println!("{}", fig6_workload::render(&fig6_workload::run(scale)));
    }
    if wanted("fig7") {
        println!("{}", fig7_pt::render(&fig7_pt::run(scale)));
    }
    if wanted("fig8") {
        println!("{}", fig8_r_vs_m::render(&fig8_r_vs_m::run(scale)));
    }
    if wanted("fig9") {
        println!(
            "{}",
            fig9_amplification::render(&fig9_amplification::run(scale))
        );
    }
    if wanted("fig10") {
        println!("{}", fig10_qratio::render(&fig10_qratio::run(scale), scale));
    }
    if wanted("fig11") {
        println!(
            "{}",
            fig11_efficiency::render(&fig11_efficiency::run(scale))
        );
    }
    if wanted("fig12") {
        println!("{}", fig12_response::render(&fig12_response::run(scale)));
    }
    if wanted("micro") {
        println!("{}", micro::render(&micro::run()));
    }
    if wanted("bandwidth") {
        println!("{}", bandwidth::render(&bandwidth::run(scale)));
    }
    if wanted("storage") {
        println!("{}", storage::render(&storage::run(scale)));
    }
    if wanted("compression") {
        println!("{}", compression::render(&compression::run(scale)));
    }
    if wanted("security") {
        println!("{}", security::render(&security::run(scale)));
    }
    if wanted("ablation") {
        println!("{}", ablation::render(&ablation::run(scale)));
    }
    println!("done in {:.1} s", start.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn unknown_targets_and_flags_are_usage_errors() {
        assert_eq!(
            parse("--smoke table1 fig8").unwrap(),
            Args {
                smoke: true,
                targets: vec!["table1".into(), "fig8".into()],
            }
        );
        assert_eq!(parse("").unwrap(), Args::default());
        // Typos, and every flag and target this binary once had: a
        // stale CI line or README command must fail, not run nothing.
        for bad in [
            "--smoke querry",
            "--smok",
            "--json out",
            "--socket",
            "--bulk",
            "--serve-peer 2",
            "scalability",
            "ingest",
            "query",
            "obs",
            "serving",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        // The usage error names what *is* valid.
        let usage = parse("figure8").unwrap_err();
        assert!(
            usage.contains("fig8") && usage.contains("--smoke"),
            "{usage}"
        );
    }
}
