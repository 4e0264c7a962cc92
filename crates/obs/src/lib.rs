//! Observability primitives for the Zerber runtime.
//!
//! Everything the serving stack measures goes through this crate:
//!
//! * [`MetricsRegistry`] — a per-deployment registry of lock-cheap
//!   instruments: [`Counter`] and [`Gauge`] (single relaxed atomics on
//!   the hot path) and [`Histogram`] (fixed-bucket log-scale, four
//!   sub-buckets per power of two, p50/p95/p99 readout). Registries
//!   are deliberately *per-deployment* (not global): the test suite
//!   runs many deployments concurrently in one process, and a
//!   process-global registry would interleave their counters.
//! * [`MetricsSnapshot`] — a point-in-time copy of every instrument,
//!   serializable to Prometheus text exposition format
//!   ([`MetricsSnapshot::to_prometheus`]). Histogram snapshots
//!   merge bucket-wise, which makes merging commutative and
//!   associative — property-tested order-independent.
//! * [`QueryTrace`] / [`SpanRecord`] — the structured per-query span
//!   tree (client → fan-out → per-replica RPC → decode → gather
//!   merge) with per-stage wall clock and counters. Traces are plain
//!   data assembled by the runtime; this crate renders them.
//! * [`SlowQueryLog`] and [`FlightRecorder`] — the forensics sinks: a
//!   bounded top-N-by-latency log of full span trees, and a ring
//!   buffer of the last K traces. Both recover from lock poisoning,
//!   so a panicking worker thread never makes the evidence
//!   unreadable.
//!
//! Metric names follow the `zerber_<layer>_<name>` scheme
//! (`zerber_query_latency_ns`, `zerber_segment_wal_fsync_ns`, …);
//! see `ARCHITECTURE.md` for the full catalogue.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod forensics;
mod metrics;
mod trace;

pub use forensics::{FlightRecorder, SlowQueryLog};
pub use metrics::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot,
};
pub use trace::{QueryTrace, SpanRecord, SpanStatus, TraceId};
