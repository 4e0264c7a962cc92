//! The benchmark's span recorder (traced runs only).
//!
//! Spans are recorded from benchmark code around its calls into the
//! program, and the span trees the program already returns
//! (`ShardedQueryOutcome::trace`) are folded in under the call that
//! produced them. Everything stays in memory until [`Tracer::write`]
//! at the end of the run. The recorder times itself: that total is
//! the numerator of `obs.tracing_overhead_pct`.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use zerber_obs::SpanRecord;

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    /// The operation (query, write batch) this span belongs to.
    op: Option<u64>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    overhead: Duration,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            overhead: Duration::ZERO,
        }
    }

    /// Records one finished call of operation `op` — a root span —
    /// and returns its id.
    pub fn span(&mut self, name: &str, op: u64, start: Instant, end: Instant) -> u32 {
        let entered = Instant::now();
        let id = self.push(
            name.to_owned(),
            None,
            Some(op),
            start.duration_since(self.origin),
            end.duration_since(self.origin),
        );
        self.overhead += entered.elapsed();
        id
    }

    /// Folds a span tree the program returned under span `parent`.
    /// The tree's offsets are relative to the traced call's start.
    pub fn absorb(&mut self, parent: u32, op: u64, call_start: Instant, root: &SpanRecord) {
        let entered = Instant::now();
        let base = call_start.duration_since(self.origin);
        self.absorb_under(parent, op, base, root);
        self.overhead += entered.elapsed();
    }

    fn absorb_under(&mut self, parent: u32, op: u64, base: Duration, record: &SpanRecord) {
        let start = base + record.start;
        let id = self.push(
            record.name.clone(),
            Some(parent),
            Some(op),
            start,
            start + record.duration,
        );
        for child in &record.children {
            self.absorb_under(id, op, base, child);
        }
    }

    fn push(
        &mut self,
        name: String,
        parent: Option<u32>,
        op: Option<u64>,
        start: Duration,
        end: Duration,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Charges tracing-only work done outside the recorder (walking a
    /// returned span tree for the per-layer rows) to the overhead.
    pub fn charge(&mut self, spent: Duration) {
        self.overhead += spent;
    }

    pub fn overhead(&self) -> Duration {
        self.overhead
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (id, span) in self.spans.iter().enumerate() {
            let optional = |value: Option<u64>| value.map_or("null".to_owned(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"op\": {}}}{}",
                span.name.replace('\\', "\\\\").replace('"', "\\\""),
                span.start_ns,
                span.end_ns,
                optional(span.parent.map(u64::from)),
                optional(span.op),
                if id + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returned_trees_nest_under_the_call_that_produced_them() {
        let mut tracer = Tracer::new();
        let start = Instant::now();
        let call = tracer.span("query_shaped", 7, start, start + Duration::from_millis(3));
        let tree = SpanRecord::new("query", Duration::ZERO, Duration::from_millis(2)).with_child(
            SpanRecord::new(
                "fan_out",
                Duration::from_micros(10),
                Duration::from_millis(1),
            ),
        );
        tracer.absorb(call, 7, start, &tree);
        assert_eq!(tracer.len(), 3);
        assert_eq!(tracer.spans[1].parent, Some(call));
        assert_eq!(tracer.spans[2].parent, Some(1));
        assert_eq!(
            tracer.spans[2].start_ns - tracer.spans[1].start_ns,
            10_000,
            "child offsets are kept"
        );
        assert!(tracer.spans.iter().all(|s| s.op == Some(7)));
    }

    #[test]
    fn written_file_is_one_json_array_of_spans() {
        let mut tracer = Tracer::new();
        let now = Instant::now();
        let call = tracer.span("a \"quoted\" name", 1, now, now);
        tracer.absorb(
            call,
            1,
            now,
            &SpanRecord::new("b", Duration::ZERO, Duration::ZERO),
        );
        let path =
            std::env::temp_dir().join(format!("zerber-trace-test-{}.json", std::process::id()));
        tracer.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let parsed = crate::json::parse(&text).expect("valid JSON");
        let spans = parsed.as_array().expect("array");
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0].get("name").and_then(|v| v.as_str()),
            Some("a \"quoted\" name")
        );
        assert_eq!(spans[1].get("parent").and_then(|v| v.as_f64()), Some(0.0));
    }
}
