//! Structured per-query traces: a span tree with per-stage wall
//! clock, counters, and outcome.
//!
//! Traces are plain data. The runtime assembles them (client side,
//! from its own clocks plus the per-stage numbers peers return on the
//! wire), and this module renders them for the slow-query log and the
//! flight recorder. No background collection thread exists — a trace
//! costs exactly the allocations the assembling code performs.

use std::fmt;
use std::time::Duration;

/// A query's trace identifier: the key its span tree is recorded
/// under in the coordinator's slow-query log and flight recorder. It
/// stays on the coordinator; requests to peers do not carry it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// How a span ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpanStatus {
    /// The stage completed normally.
    Ok,
    /// The stage failed; the payload says how (e.g. the transport
    /// error of a dead replica's RPC attempt).
    Failed(String),
}

/// One stage of a query: name, when it started (offset from the
/// trace's start), how long it ran, stage-local counters, and child
/// stages.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Stage name (`fan_out`, `shard 3`, `rpc index-server-1`, …).
    pub name: String,
    /// Offset from the trace start.
    pub start: Duration,
    /// Stage wall-clock duration.
    pub duration: Duration,
    /// Stage-local counters (`blocks_decoded`, `bytes_on_wire`, …).
    pub counters: Vec<(&'static str, u64)>,
    /// Outcome.
    pub status: SpanStatus,
    /// Nested stages.
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// A successful span with no counters or children yet.
    pub fn new(name: impl Into<String>, start: Duration, duration: Duration) -> Self {
        Self {
            name: name.into(),
            start,
            duration,
            counters: Vec::new(),
            status: SpanStatus::Ok,
            children: Vec::new(),
        }
    }

    /// Attaches a stage-local counter (builder style).
    pub fn with_counter(mut self, name: &'static str, value: u64) -> Self {
        self.counters.push((name, value));
        self
    }

    /// Marks the span failed (builder style).
    pub fn failed(mut self, why: impl Into<String>) -> Self {
        self.status = SpanStatus::Failed(why.into());
        self
    }

    /// Appends a child stage (builder style).
    pub fn with_child(mut self, child: SpanRecord) -> Self {
        self.children.push(child);
        self
    }

    /// Whether this span ended in failure.
    pub fn is_failed(&self) -> bool {
        matches!(self.status, SpanStatus::Failed(_))
    }

    /// Depth-first search for the first span whose name starts with
    /// `prefix`.
    pub fn find(&self, prefix: &str) -> Option<&SpanRecord> {
        if self.name.starts_with(prefix) {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(prefix))
    }

    fn render_into(&self, out: &mut String, indent: &str, last: bool) {
        let branch = if last { "└─ " } else { "├─ " };
        out.push_str(indent);
        out.push_str(branch);
        out.push_str(&self.name);
        out.push_str(&format!(" {:.3}ms", self.duration.as_secs_f64() * 1e3));
        if let SpanStatus::Failed(why) = &self.status {
            out.push_str(&format!(" [failed: {why}]"));
        }
        for (name, value) in &self.counters {
            out.push_str(&format!(" {name}={value}"));
        }
        out.push('\n');
        let child_indent = format!("{indent}{}", if last { "   " } else { "│  " });
        for (i, child) in self.children.iter().enumerate() {
            child.render_into(out, &child_indent, i + 1 == self.children.len());
        }
    }
}

/// A complete per-query span tree with its identity and end-to-end
/// wall clock.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryTrace {
    /// The trace id, unique within one coordinator.
    pub id: TraceId,
    /// Human label for the query (terms, k).
    pub label: String,
    /// End-to-end latency as measured at the client.
    pub total: Duration,
    /// The root stage (children: fan-out, gather, …).
    pub root: SpanRecord,
}

impl QueryTrace {
    /// Renders the span tree as an indented ASCII block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace {} · {} · {:.3}ms\n",
            self.id,
            self.label,
            self.total.as_secs_f64() * 1e3
        );
        self.root.render_into(&mut out, "", true);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn render_shows_every_stage_and_failure() {
        let trace = QueryTrace {
            id: TraceId(0xAB),
            label: "terms [1, 2] k=5".into(),
            total: ms(10),
            root: SpanRecord::new("query", ms(0), ms(10))
                .with_child(
                    SpanRecord::new("fan_out", ms(0), ms(8)).with_child(
                        SpanRecord::new("shard 0", ms(0), ms(8))
                            .with_child(
                                SpanRecord::new("rpc index-server-0", ms(0), ms(3))
                                    .failed("timeout"),
                            )
                            .with_child(
                                SpanRecord::new("rpc index-server-1", ms(3), ms(5)).with_child(
                                    SpanRecord::new("decode", ms(3), ms(1))
                                        .with_counter("blocks_decoded", 4),
                                ),
                            ),
                    ),
                )
                .with_child(
                    SpanRecord::new("gather", ms(8), ms(2)).with_counter("candidates_examined", 5),
                ),
        };
        let text = trace.render();
        // A header line, then one line per span.
        assert_eq!(text.lines().count(), 1 + 7);
        assert!(text.contains("trace 00000000000000ab"));
        assert!(text.contains("[failed: timeout]"));
        assert!(text.contains("blocks_decoded=4"));
        assert!(text.contains("└─ gather"));
        assert!(trace.root.find("rpc index-server-1").is_some());
        assert!(trace.root.find("decode").is_some());
    }
}
