//! `repro` — regenerates every table and figure of the paper's
//! evaluation section (Section 7) from the synthetic workloads.
//!
//! Usage:
//!
//! ```text
//! repro [--smoke] [--json <dir>] [--socket] [--bulk]
//!       [all|table1|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|micro|bandwidth|storage|compression|scalability|ingest|query|obs|serving|security|ablation]
//! ```
//!
//! The `serving` target replays a shaped Zipf query log (bag-of-words,
//! AND, phrase) through the sharded query engine: planned evaluators
//! oracle-checked and timed head-to-head (block-max TA vs MaxScore),
//! cached vs uncached latency split with the epoch-keyed result
//! cache's hit rate, and an interleaved-writes phase proving zero
//! stale hits. With `--json`, `BENCH_serving.json`.
//!
//! `--bulk` narrows the `ingest` target to the offline SPIMI
//! bulk-build path alone (skipping the slow incremental comparison):
//! the full corpus is bulk-loaded into a fresh segmented store,
//! oracle-checked, and reported as docs/s + write amplification. With
//! `--json`, the result lands in `BENCH_ingest_bulk.json`; the plain
//! `ingest` target's `BENCH_ingest.json` carries the same numbers in
//! its `bulk` section next to the incremental baseline and the
//! speedup ratio.
//!
//! `--socket` additionally runs the `scalability` kill-a-peer scenario
//! in multi-process mode: this binary re-executes itself as the shard
//! peers (hidden `--serve-peer <i>` mode), each serving its replica
//! shards over real length-framed TCP, and one child is SIGKILLed
//! halfway through the workload.
//!
//! `--smoke` runs a reduced-scale variant (seconds instead of
//! minutes); the default scale preserves the paper's distributional
//! shapes at ~200k documents. Absolute numbers differ from the paper
//! (different hardware and corpus scale); shapes, orderings and
//! crossovers are the reproduction target — see EXPERIMENTS.md.
//!
//! `--json <dir>` additionally writes machine-readable
//! `BENCH_<target>.json` files (currently for the perf-trajectory
//! targets `scalability`, `ingest`, `query`, and `obs`) so
//! qps/latency/bytes/blocks-decoded are trackable across commits; CI
//! uploads the directory as a workflow artifact. The `obs` target
//! measures the metrics registry's own cost (enabled vs kill switch)
//! plus the registry-derived latency quantiles, hedge rate, and
//! decode-skip rate for the query and scalability deployment shapes.

use zerber_bench::experiments::{
    ablation, bandwidth, compression, fig10_qratio, fig11_efficiency, fig12_response, fig5_studip,
    fig6_workload, fig7_pt, fig8_r_vs_m, fig9_amplification, ingest, micro, obs, query,
    scalability, security, serving, storage, table1,
};
use zerber_bench::Scale;

fn write_json(dir: &std::path::Path, target: &str, document: String) {
    std::fs::create_dir_all(dir).expect("--json directory is creatable");
    let path = dir.join(format!("BENCH_{target}.json"));
    std::fs::write(&path, document + "\n").expect("--json file is writable");
    println!("wrote {}", path.display());
}

/// Every experiment name `repro` accepts (`all` selects each of them).
const TARGETS: &str = "all table1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 micro bandwidth \
    storage compression scalability ingest query obs serving security ablation";

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    smoke: bool,
    socket: bool,
    bulk: bool,
    json_dir: Option<std::path::PathBuf>,
    /// Hidden child mode for `scalability --socket`: this process *is*
    /// shard peer `i` of the multi-process deployment.
    serve_peer: Option<usize>,
    /// With `--serve-peer`: start empty and mid-rebuild (the
    /// replacement process for a SIGKILLed peer).
    rebuild: bool,
    /// Selected experiments; empty means all.
    targets: Vec<String>,
}

/// Parses the command line, rejecting anything `repro` would not act
/// on: a CI line naming a renamed or removed target must fail, not
/// pass vacuously.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--socket" => parsed.socket = true,
            "--bulk" => parsed.bulk = true,
            "--rebuild" => parsed.rebuild = true,
            "--json" => match args.next().filter(|v| !v.starts_with("--")) {
                Some(dir) => parsed.json_dir = Some(dir.into()),
                None => return Err("--json needs a directory argument".into()),
            },
            "--serve-peer" => match args.next().and_then(|v| v.parse().ok()) {
                Some(peer) => parsed.serve_peer = Some(peer),
                None => return Err("--serve-peer needs a peer index".into()),
            },
            target if TARGETS.split(' ').any(|t| t == target) => {
                parsed.targets.push(target.to_string())
            }
            unknown => {
                return Err(format!(
                    "unknown argument `{unknown}`\nflags: --smoke --json <dir> --socket --bulk\ntargets: {TARGETS}"
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
    if let Some(peer) = args.serve_peer {
        scalability::serve_socket_peer(peer, scale, args.rebuild);
        return;
    }
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
    if wanted("scalability") {
        let mut result = scalability::run(scale);
        if args.socket {
            // Multi-process mode: this binary re-executes itself as
            // the shard peers (`--serve-peer <i>`), each serving its
            // replica shards over a real TCP socket.
            let exe = std::env::current_exe().expect("own path");
            let (failover, repair) = scalability::run_socket(scale, &mut |peer, rebuild| {
                let mut command = std::process::Command::new(&exe);
                command
                    .arg("--serve-peer")
                    .arg(peer.to_string())
                    .stdin(std::process::Stdio::piped())
                    .stdout(std::process::Stdio::piped());
                if rebuild {
                    command.arg("--rebuild");
                }
                if args.smoke {
                    command.arg("--smoke");
                }
                command.spawn()
            })
            .expect("socket-mode children");
            result.failover.push(failover);
            result.repair.push(repair);
        }
        println!("{}", scalability::render(&result));
        if let Some(dir) = &args.json_dir {
            write_json(dir, "scalability", scalability::to_json(&result));
        }
    }
    if wanted("ingest") {
        if args.bulk {
            let result = ingest::run_bulk(scale);
            println!("{}", ingest::render_bulk(&result));
            if let Some(dir) = &args.json_dir {
                write_json(dir, "ingest_bulk", ingest::bulk_to_json(&result));
            }
        } else {
            let result = ingest::run(scale);
            println!("{}", ingest::render(&result));
            if let Some(dir) = &args.json_dir {
                write_json(dir, "ingest", ingest::to_json(&result));
            }
        }
    }
    if wanted("query") {
        let result = query::run(scale);
        println!("{}", query::render(&result));
        if let Some(dir) = &args.json_dir {
            write_json(dir, "query", query::to_json(&result));
        }
    }
    if wanted("obs") {
        let result = obs::run(scale);
        println!("{}", obs::render(&result));
        if let Some(dir) = &args.json_dir {
            write_json(dir, "obs", obs::to_json(&result));
        }
    }
    if wanted("serving") {
        let result = serving::run(scale);
        println!("{}", serving::render(&result));
        if let Some(dir) = &args.json_dir {
            write_json(dir, "serving", serving::to_json(&result));
        }
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
            parse("--smoke --json out query fig8").unwrap(),
            Args {
                smoke: true,
                json_dir: Some("out".into()),
                targets: vec!["query".into(), "fig8".into()],
                ..Args::default()
            }
        );
        assert_eq!(
            parse("--serve-peer 2 --rebuild").unwrap().serve_peer,
            Some(2)
        );
        for bad in [
            "--smoke querry",
            "--smok",
            "--json",
            "--json --smoke",
            "--serve-peer x",
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
