//! The lock-cheap metrics registry: counters, gauges, log-scale
//! histograms, and point-in-time snapshots.
//!
//! Hot-path cost model: every instrument holds an `Arc` to its own
//! atomic state. `inc`/`set`/`record` are one or three relaxed RMWs;
//! no locks are ever taken outside registration and snapshotting.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of histogram buckets: values 0–3 get exact buckets, then
/// four sub-buckets per power of two up to `u64::MAX`.
pub(crate) const HISTOGRAM_BUCKETS: usize = 252;

/// Maps a recorded value to its bucket index.
///
/// Buckets 0–3 hold the exact values 0–3; above that, value `v` with
/// floor-log2 `p` lands in bucket `4p - 4 + s` where `s` is the two
/// bits below the leading one — a fixed ≤ 25% relative bucket width.
pub(crate) fn bucket_index(value: u64) -> usize {
    if value < 4 {
        value as usize
    } else {
        let p = 63 - value.leading_zeros() as usize;
        4 * p - 4 + ((value >> (p - 2)) & 3) as usize
    }
}

/// The inclusive `(lower, upper)` value range of bucket `index`.
///
/// # Panics
/// Panics if `index >= HISTOGRAM_BUCKETS`.
pub(crate) fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
    let lower = |i: usize| -> u64 {
        if i < 4 {
            i as u64
        } else {
            let p = i / 4 + 1;
            let sub = (i % 4) as u64;
            (1u64 << p) + (sub << (p - 2))
        }
    };
    let lo = lower(index);
    let hi = if index + 1 < HISTOGRAM_BUCKETS {
        lower(index + 1) - 1
    } else {
        u64::MAX
    };
    (lo, hi)
}

/// Recovers a mutex guard even if a previous holder panicked: the
/// data inside is plain registration state, always consistent.
fn relock<T>(lock: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

struct CounterInner {
    name: String,
    value: AtomicU64,
}

/// A monotonically increasing counter (`zerber_*_total` metrics).
///
/// Cloning is cheap and shares the underlying value.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.inner.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }

    /// The registered metric name.
    pub(crate) fn name(&self) -> &str {
        &self.inner.name
    }
}

struct GaugeInner {
    name: String,
    value: AtomicI64,
}

/// An instantaneous level (queue depth, in-flight requests, segment
/// count). Unlike counters it may go down.
#[derive(Clone)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

impl Gauge {
    /// Sets the level outright.
    pub fn set(&self, v: i64) {
        self.inner.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (negative to decrease).
    pub fn add(&self, delta: i64) {
        self.inner.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current level.
    pub(crate) fn get(&self) -> i64 {
        self.inner.value.load(Ordering::Relaxed)
    }

    /// The registered metric name.
    pub(crate) fn name(&self) -> &str {
        &self.inner.name
    }
}

struct HistogramInner {
    name: String,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket log-scale histogram (latencies in nanoseconds,
/// sizes in bytes). Recording is three relaxed atomic adds; readout
/// happens on [`HistogramSnapshot`].
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// The registered metric name.
    pub(crate) fn name(&self) -> &str {
        &self.inner.name
    }

    /// A point-in-time copy of the buckets.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            name: self.inner.name.clone(),
            count: self.inner.count.load(Ordering::Relaxed),
            sum: self.inner.sum.load(Ordering::Relaxed),
            buckets: self
                .inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

struct RegistryInner {
    counters: Mutex<Vec<Counter>>,
    gauges: Mutex<Vec<Gauge>>,
    histograms: Mutex<Vec<Histogram>>,
}

/// A per-deployment registry of instruments.
///
/// Registration dedupes by name, so independent call sites asking for
/// the same metric share one instrument. Cloning the registry shares
/// the underlying store.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

fn assert_metric_name(name: &str) {
    // `zerber_<layer>_<name>`, optionally followed by one Prometheus
    // label block: `zerber_query_plan_total{plan="maxscore"}`.
    fn base_ok(base: &str) -> bool {
        !base.is_empty()
            && base
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    }
    let ok = match name.split_once('{') {
        None => base_ok(name),
        Some((base, labels)) => {
            base_ok(base)
                && labels.ends_with('}')
                && labels[..labels.len() - 1].bytes().all(|b| {
                    b.is_ascii_lowercase()
                        || b.is_ascii_digit()
                        || matches!(b, b'_' | b'=' | b'"' | b',')
                })
        }
    };
    debug_assert!(
        ok,
        "metric name {name:?} violates the zerber_<layer>_<name> scheme"
    );
}

impl MetricsRegistry {
    /// A fresh registry.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                counters: Mutex::new(Vec::new()),
                gauges: Mutex::new(Vec::new()),
                histograms: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Registers (or retrieves) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        assert_metric_name(name);
        let mut counters = relock(&self.inner.counters);
        if let Some(c) = counters.iter().find(|c| c.name() == name) {
            return c.clone();
        }
        let counter = Counter {
            inner: Arc::new(CounterInner {
                name: name.to_string(),
                value: AtomicU64::new(0),
            }),
        };
        counters.push(counter.clone());
        counter
    }

    /// Registers (or retrieves) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        assert_metric_name(name);
        let mut gauges = relock(&self.inner.gauges);
        if let Some(g) = gauges.iter().find(|g| g.name() == name) {
            return g.clone();
        }
        let gauge = Gauge {
            inner: Arc::new(GaugeInner {
                name: name.to_string(),
                value: AtomicI64::new(0),
            }),
        };
        gauges.push(gauge.clone());
        gauge
    }

    /// Registers (or retrieves) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        assert_metric_name(name);
        let mut histograms = relock(&self.inner.histograms);
        if let Some(h) = histograms.iter().find(|h| h.name() == name) {
            return h.clone();
        }
        let histogram = Histogram {
            inner: Arc::new(HistogramInner {
                name: name.to_string(),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        };
        histograms.push(histogram.clone());
        histogram
    }

    /// A point-in-time copy of every registered instrument, sorted by
    /// name for deterministic output.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<CounterSnapshot> = relock(&self.inner.counters)
            .iter()
            .map(|c| CounterSnapshot {
                name: c.name().to_string(),
                value: c.get(),
            })
            .collect();
        let mut gauges: Vec<GaugeSnapshot> = relock(&self.inner.gauges)
            .iter()
            .map(|g| GaugeSnapshot {
                name: g.name().to_string(),
                value: g.get(),
            })
            .collect();
        let mut histograms: Vec<HistogramSnapshot> = relock(&self.inner.histograms)
            .iter()
            .map(Histogram::snapshot)
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A counter's point-in-time value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name (`zerber_<layer>_<name>`).
    pub name: String,
    /// Accumulated count.
    pub value: u64,
}

/// A gauge's point-in-time level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Metric name (`zerber_<layer>_<name>`).
    pub name: String,
    /// Current level.
    pub value: i64,
}

/// A histogram's point-in-time buckets plus count and sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name (`zerber_<layer>_<name>`).
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (wrapping).
    pub sum: u64,
    /// Per-bucket observation counts, `HISTOGRAM_BUCKETS` long.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 < q <= 1.0`) as the upper bound of the
    /// bucket holding the ceil-rank observation — within one log-scale
    /// bucket (≤ 25% relative error above value 4) of the exact
    /// order statistic. Returns 0 for an empty histogram.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(HISTOGRAM_BUCKETS - 1).1
    }

    /// Median readout.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
}

/// A point-in-time copy of a whole registry, ready to serialize.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge level by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serializes to Prometheus text exposition format: `# TYPE`
    /// headers, cumulative `_bucket{le="…"}` series (non-empty
    /// buckets plus `+Inf`), `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            out.push_str(&format!(
                "# TYPE {} counter\n{} {}\n",
                c.name, c.name, c.value
            ));
        }
        for g in &self.gauges {
            out.push_str(&format!(
                "# TYPE {} gauge\n{} {}\n",
                g.name, g.name, g.value
            ));
        }
        for h in &self.histograms {
            out.push_str(&format!("# TYPE {} histogram\n", h.name));
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                out.push_str(&format!(
                    "{}_bucket{{le=\"{}\"}} {}\n",
                    h.name,
                    bucket_bounds(i).1,
                    cumulative
                ));
            }
            out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", h.name, h.count));
            out.push_str(&format!("{}_sum {}\n", h.name, h.sum));
            out.push_str(&format!("{}_count {}\n", h.name, h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_index_and_bounds_agree() {
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            if i + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(hi + 1, bucket_bounds(i + 1).0, "buckets {i} contiguous");
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn registration_dedupes_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("zerber_test_total");
        let b = registry.counter("zerber_test_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(registry.snapshot().counter("zerber_test_total"), Some(2));
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_complete() {
        let registry = MetricsRegistry::new();
        registry.counter("zerber_test_total").add(3);
        registry.gauge("zerber_test_depth").set(-2);
        let h = registry.histogram("zerber_test_ns");
        for v in [1u64, 5, 5, 900, 70_000] {
            h.record(v);
        }
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE zerber_test_total counter"));
        assert!(text.contains("zerber_test_total 3"));
        assert!(text.contains("zerber_test_depth -2"));
        assert!(text.contains("zerber_test_ns_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("zerber_test_ns_count 5"));
        // Bucket series must be cumulative and non-decreasing.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("zerber_test_ns_bucket"))
        {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "cumulative bucket counts: {line}");
            last = value;
        }
        assert_eq!(last, 5);
    }

    /// Exact ceil-rank order statistic, mirroring the bench crate's
    /// `percentile` convention.
    fn exact_quantile(values: &mut [u64], q: f64) -> u64 {
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        values[rank - 1]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Quantile readout lands within one log-scale bucket of the
        /// exact order statistic.
        #[test]
        fn quantile_is_within_one_bucket_of_exact(
            mut values in prop::collection::vec(0u64..10_000_000_000, 1..200),
            q_percent in 1u32..=100,
        ) {
            let q = f64::from(q_percent) / 100.0;
            let registry = MetricsRegistry::new();
            let h = registry.histogram("zerber_test_ns");
            for &v in &values {
                h.record(v);
            }
            let read = h.snapshot().quantile(q);
            let exact = exact_quantile(&mut values, q);
            let read_bucket = bucket_index(read) as i64;
            let exact_bucket = bucket_index(exact) as i64;
            prop_assert!(
                (read_bucket - exact_bucket).abs() <= 1,
                "quantile {} read {} (bucket {}) vs exact {} (bucket {})",
                q, read, read_bucket, exact, exact_bucket
            );
        }
    }
}
