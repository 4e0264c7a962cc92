//! Metric declarations, the percentile rule, and the run report.
//!
//! `END_TO_END` and `PER_LAYER` are the single list of names the
//! runner may emit; `tests/contract.rs` checks them against
//! `BENCHMARK.json`. A run emits *every* end-to-end metric untraced
//! and *every* per-layer metric traced, on every workload; a per-layer
//! metric whose layer the workload never enters reads 0.

use std::collections::BTreeMap;
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric. All seven are defined on
/// all four workloads (see README.md for what "op" and "load" mean on
/// each).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_per_s", "1/s"),
    ("op_geomean_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("load_docs_per_s", "1/s"),
    ("wire_bytes_per_op", "B"),
];

/// `(name, unit)` of every per-layer metric; the prefix is the crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query.terms_execute_ms", "ms"),
    ("query.and_execute_ms", "ms"),
    ("query.phrase_execute_ms", "ms"),
    ("query.blocks_decoded_per_query", "count"),
    ("query.blocks_total_per_query", "count"),
    ("query.decode_ratio", "ratio"),
    ("query.plan_ns", "ns"),
    ("query.cache_hit_pct", "%"),
    ("query.cache_get_ns", "ns"),
    ("query.cache_insert_ns", "ns"),
    ("query.cache_evictions", "count"),
    ("index.cursor_open_us", "us"),
    ("postings.decode_mpostings_per_s", "M/s"),
    ("postings.advance_ns", "ns"),
    ("postings.encode_mpostings_per_s", "M/s"),
    ("postings.merge_mpostings_per_s", "M/s"),
    ("postings.bytes_per_posting", "B"),
    ("segment.insert_batch_ms_p50", "ms"),
    ("segment.wal_append_us_p50", "us"),
    ("segment.wal_fsync_us_p50", "us"),
    ("segment.flush_ms_p50", "ms"),
    ("segment.compaction_ms_total", "ms"),
    ("segment.compactions", "count"),
    ("segment.bulk_docs_per_s", "1/s"),
    ("segment.bulk_runs", "count"),
    ("segment.bulk_merge_bytes", "B"),
    ("segment.snapshot_ns", "ns"),
    ("segment.delta_len_mean", "count"),
    ("segment.segments_final", "count"),
    ("segment.write_amp", "ratio"),
    ("segment.space_amp", "ratio"),
    ("segment.disk_bytes_per_posting", "B"),
    ("segment.recovery_ms", "ms"),
    ("net.planquery_encode_ns", "ns"),
    ("net.planquery_decode_ns", "ns"),
    ("net.topk_response_encode_ns", "ns"),
    ("net.topk_response_decode_ns", "ns"),
    ("net.indexdocs_encode_us", "us"),
    ("net.indexdocs_decode_us", "us"),
    ("net.request_bytes_per_query", "B"),
    ("net.response_bytes_per_query", "B"),
    ("net.share_response_decode_us", "us"),
    ("runtime.fanout_ms_p50", "ms"),
    ("runtime.rpc_ms_p50", "ms"),
    ("runtime.peer_eval_ms_p50", "ms"),
    ("runtime.transport_ms_p50", "ms"),
    ("runtime.gather_us_p50", "us"),
    ("runtime.coordinator_us_p50", "us"),
    ("runtime.shard_skew_ratio", "ratio"),
    ("runtime.candidates_received_per_query", "count"),
    ("runtime.candidates_examined_per_query", "count"),
    ("runtime.hedges", "count"),
    ("runtime.epoch_bumps", "count"),
    ("runtime.unexplained_pct", "%"),
    ("runtime.share_transport_ms_p50", "ms"),
    ("shamir.split_melements_per_s", "M/s"),
    ("shamir.reconstruct_melements_per_s", "M/s"),
    ("field.lagrange_weights_ns", "ns"),
    ("core.mergeplan_build_ms", "ms"),
    ("core.codec_encode_ns", "ns"),
    ("core.codec_decode_ns", "ns"),
    ("core.elements_received_per_query", "count"),
    ("core.false_positive_pct", "%"),
    ("server.insert_batch_melements_per_s", "M/s"),
    ("server.lookup_us_p50", "us"),
    ("client.owner_index_docs_per_s", "1/s"),
    ("client.query_execute_ms_p50", "ms"),
    ("obs.tracing_overhead_pct", "%"),
    // Client-observed figures that exist on some workloads only, so
    // they cannot be bounded end-to-end metrics; read them as
    // diagnostics of the traced run.
    ("e2e.terms_mean_ms", "ms"),
    ("e2e.and_mean_ms", "ms"),
    ("e2e.phrase_mean_ms", "ms"),
    ("e2e.write_p50_ms", "ms"),
    ("e2e.write_p95_ms", "ms"),
    ("e2e.op_p50_ms", "ms"),
    ("e2e.op_p99_ms", "ms"),
];

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "search_cold",
    "search_churn",
    "ingest_stream",
    "confidential",
];

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail percentile the sample supports: the highest of
/// p99/p95/p90 not above `cap` that leaves at least ten samples beyond
/// it; p90 when the sample supports none (fewer than 100 samples).
pub fn supported_tail(samples: usize, cap: f64) -> f64 {
    [0.99, 0.95, 0.90]
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| samples as f64 * (1.0 - p) >= 10.0)
        .unwrap_or(0.90)
}

/// Sorts a latency sample ascending.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    samples
}

pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples.to_vec());
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Geometric mean (the exponential of the mean logarithm): the typical
/// latency. Where a latency distribution has two modes (cache hit or
/// miss, compaction running or not) the median sits in the gap between
/// them and jumps from run to run, and any trimmed mean jumps with the
/// share of samples on either side of its cut; this weighs every
/// sample, yet a stall a hundred times the typical latency counts as
/// two doublings, not as a hundred samples.
pub fn geometric_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    // A latency is at least one clock tick; the floor only guards ln(0).
    (samples.iter().map(|&x| x.max(1e-6).ln()).sum::<f64>() / samples.len() as f64).exp()
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// driver computes its spreads from. Needs at least two values.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples.to_vec());
    let n = sorted.len();
    let at = |quarter: usize| {
        let position = quarter * (n + 1);
        let index = (position / 4).clamp(1, n - 1);
        // Outside 0..=4 where the index was clamped: like Python, the
        // end pair is extrapolated.
        let delta = position as f64 - (index * 4) as f64;
        (sorted[index - 1] * (4.0 - delta) + sorted[index] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The number after `field` in a `/proc/self/*` file of `field: value`
/// lines; 0 when the kernel does not report it.
fn proc_field(file: &str, field: &str) -> f64 {
    std::fs::read_to_string(file)
        .ok()
        .and_then(|text| {
            let rest = text.lines().find_map(|line| line.strip_prefix(field))?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`, reported in kB), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:") / 1024.0
}

/// Bytes this process has passed to `write`-family syscalls so far
/// (`wchar`): WAL records, segment and manifest files.
pub fn written_bytes() -> u64 {
    proc_field("/proc/self/io", "wchar:") as u64
}

/// Operations attempted and failed in one phase of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseOps {
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    started: Instant,
    /// Metric values by declared name.
    pub values: BTreeMap<&'static str, f64>,
    /// `(phase, attempted, failed)` in execution order.
    pub phases: Vec<(&'static str, PhaseOps)>,
    /// Whether every correctness gate passed.
    pub gate_passed: bool,
    /// Free-form lines for the human-readable listing (sample counts,
    /// stream hash, flush policy, diagnostics).
    pub notes: Vec<String>,
}

impl Default for Report {
    fn default() -> Self {
        Self {
            started: Instant::now(),
            values: BTreeMap::new(),
            phases: Vec::new(),
            gate_passed: false,
            notes: Vec::new(),
        }
    }
}

impl Report {
    /// Notes how far into the run `event` happened.
    pub fn mark(&mut self, event: &str) {
        let at = self.started.elapsed().as_secs_f64();
        self.notes.push(format!("t+{at:.3} s: {event}"));
    }

    /// Records a metric; the name must be declared above.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records the client-observed latency figures of the measured
    /// operations: the middle and the tail the sample supports end to
    /// end, the plain median and the deeper tail as diagnostics.
    pub fn set_op_latency(&mut self, sorted_ms: &[f64]) {
        let tail = supported_tail(sorted_ms.len(), 0.95);
        let deep_tail = supported_tail(sorted_ms.len(), 0.99);
        self.set("op_geomean_ms", geometric_mean(sorted_ms));
        self.set("op_p95_ms", percentile(sorted_ms, tail));
        self.set("e2e.op_p50_ms", percentile(sorted_ms, 0.5));
        self.set("e2e.op_p99_ms", percentile(sorted_ms, deep_tail));
        self.note(format!(
            "{} latency samples: median {:.4} ms, p{:.0} {:.4} ms (the end-to-end tail), p{:.0} {:.4} ms",
            sorted_ms.len(),
            percentile(sorted_ms, 0.5),
            tail * 100.0,
            percentile(sorted_ms, tail),
            deep_tail * 100.0,
            percentile(sorted_ms, deep_tail),
        ));
    }

    /// Counts one operation of `phase`; returns the value of a
    /// successful one. A failed operation yields no sample anywhere.
    pub fn op<T, E: std::fmt::Display>(
        &mut self,
        phase: &'static str,
        result: Result<T, E>,
    ) -> Option<T> {
        if self.phases.last().map(|(name, _)| *name) != Some(phase) {
            self.phases.push((phase, PhaseOps::default()));
        }
        let ops = &mut self.phases.last_mut().expect("just pushed").1;
        ops.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                ops.failed += 1;
                if ops.failed <= 3 {
                    self.notes
                        .push(format!("{phase}: operation failed: {error}"));
                }
                None
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|(_, ops)| ops.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|(_, ops)| ops.failed).sum()
    }

    /// Gate passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.gate_passed && self.failed() == 0
    }

    /// The human-readable listing: every metric of the run's kind by
    /// name with its unit, then phases and notes.
    pub fn listing(&self, traced: bool) -> String {
        let mut out = String::new();
        for &(name, unit) in declared(traced) {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            out.push_str(&format!("{name:<40} {value:>16.4} {unit}\n"));
        }
        for (phase, ops) in &self.phases {
            out.push_str(&format!(
                "phase {phase}: attempted {} failed {}\n",
                ops.attempted, ops.failed
            ));
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// The result line the driver reads.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = declared(traced)
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted().max(1),
            self.failed(),
            metrics.join(", ")
        )
    }
}

fn declared(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.50), 50.0);
        assert_eq!(percentile(&sample, 0.95), 95.0);
        assert_eq!(percentile(&sample, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 leaves 1 % beyond: ten samples need a thousand.
        assert_eq!(supported_tail(1_000, 0.99), 0.99);
        assert_eq!(supported_tail(999, 0.99), 0.95);
        assert_eq!(supported_tail(200, 0.99), 0.95);
        assert_eq!(supported_tail(199, 0.99), 0.90);
        assert_eq!(supported_tail(100, 0.99), 0.90);
        // Below a hundred nothing qualifies; p90 is the floor.
        assert_eq!(supported_tail(40, 0.99), 0.90);
        // The end-to-end tail is capped at p95 however many samples.
        assert_eq!(supported_tail(50_000, 0.95), 0.95);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&ten), 5.5);
    }

    #[test]
    fn geometric_mean_counts_a_stall_in_doublings() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(
            (geometric_mean(&[2.0, 2.0, 2.0, 2.0 * 64.0]) - 2.0 * 64f64.powf(0.25)).abs() < 1e-9
        );
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!(geometric_mean(&[0.0, 1.0]) > 0.0);
    }

    #[test]
    fn failed_operations_are_counted_and_fail_the_run() {
        let mut report = Report {
            gate_passed: true,
            ..Report::default()
        };
        assert_eq!(report.op("load", Ok::<u32, String>(1)), Some(1));
        assert_eq!(
            report.op("measure", Err::<u32, _>("refused".to_owned())),
            None
        );
        assert_eq!((report.attempted(), report.failed()), (2, 1));
        assert!(!report.correct());
        assert!(report.json_line(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
        }
    }
}
