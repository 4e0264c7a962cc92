//! Per-deployment observability: the metrics registry, trace-id
//! allocator, and query forensics sinks one [`ShardedSearch`] (or a
//! hand-wired cluster like `examples/socket_cluster.rs`) records into.
//!
//! [`RuntimeObs`] is a cheap [`Clone`] handle around one shared state:
//! a [`MetricsRegistry`] with the query-path instruments
//! pre-registered (so the hot path never touches the registry's name
//! table), a monotonically increasing trace-id source, the top-N
//! [`SlowQueryLog`], and the last-K [`FlightRecorder`]. Deployments
//! each own their registry — integration tests run many deployments in
//! one process, so a global registry would cross-contaminate their
//! assertions.
//!
//! [`ShardedSearch`]: crate::runtime::ShardedSearch

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use zerber_net::TrafficMeter;
use zerber_obs::{
    Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, QueryTrace,
    SlowQueryLog, TraceId,
};
use zerber_query::QueryShape;

/// How many of the slowest queries the slow-query log retains.
pub(crate) const SLOW_QUERY_LOG_CAPACITY: usize = 8;

/// How many recent query traces the flight recorder retains.
pub(crate) const FLIGHT_RECORDER_CAPACITY: usize = 64;

struct ObsInner {
    registry: MetricsRegistry,
    /// Next trace id; starts at 1 because zero means *untraced* on the
    /// wire.
    next_trace: AtomicU64,
    slow_queries: SlowQueryLog,
    flight_recorder: FlightRecorder,
    /// Pre-registered query-path instruments.
    metrics: QueryMetrics,
}

/// The query-path instrument handles, registered once at construction.
pub(crate) struct QueryMetrics {
    /// `zerber_query_latency_ns`: end-to-end client latency.
    pub latency: Histogram,
    /// `zerber_query_total`: queries completed (success or failure).
    pub total: Counter,
    /// `zerber_gather_hedges_total`: beyond-primary requests sent.
    pub hedges: Counter,
    /// `zerber_gather_duplicate_responses_total`: late answers from
    /// hedged-away replicas.
    pub duplicate_responses: Counter,
    /// `zerber_gather_failed_attempts_total`: replica attempts that
    /// failed before their shard settled.
    pub failed_attempts: Counter,
    /// `zerber_gather_candidates_received_total`.
    pub candidates_received: Counter,
    /// `zerber_gather_candidates_examined_total`.
    pub candidates_examined: Counter,
    /// `zerber_transport_rpc_latency_ns`: per-attempt RPC wall clock.
    pub rpc_latency: Histogram,
    /// `zerber_peer_decode_latency_ns`: shard-local evaluation time as
    /// reported back by the answering peer.
    pub decode_latency: Histogram,
    /// `zerber_peer_blocks_decoded_total`.
    pub blocks_decoded: Counter,
    /// `zerber_peer_blocks_skipped_total` (block-max pruning wins).
    pub blocks_skipped: Counter,
    /// `zerber_transport_bytes_total` gauge: the deployment-wide
    /// payload-byte sum, pulled from the [`TrafficMeter`] at sync
    /// points (the meter stays the source of truth for the paper's
    /// bandwidth accounting; the registry mirrors it at read time).
    pub bytes_total: Gauge,
    /// `zerber_cache_hits_total`: planned queries answered from the
    /// epoch-keyed result cache.
    pub cache_hits: Counter,
    /// `zerber_cache_misses_total`: planned queries that fanned out.
    pub cache_misses: Counter,
    /// `zerber_cache_evictions_total`: entries pushed out by the LRU
    /// byte budget.
    pub cache_evictions: Counter,
    /// `zerber_query_plan_total{plan=...}`: one counter per query
    /// shape, labelled by the evaluator that shape runs on (labels are
    /// baked into the metric name so the hot path never formats).
    pub plan_maxscore: Counter,
    pub plan_conjunctive: Counter,
    pub plan_phrase: Counter,
    /// `zerber_repair_rebuilds_total`: shard copies rebuilt by
    /// snapshot shipping (one per shard per repaired replica).
    pub repair_rebuilds: Counter,
    /// `zerber_repair_segments_shipped_total`: snapshot files streamed
    /// during rebuilds (manifest + segments).
    pub repair_segments_shipped: Counter,
    /// `zerber_repair_bytes_shipped_total`: snapshot payload bytes
    /// streamed during rebuilds.
    pub repair_bytes_shipped: Counter,
    /// `zerber_repair_rebuild_ns`: wall clock of one shard rebuild
    /// (begin → snapshot → ship → commit).
    pub repair_rebuild_ns: Histogram,
    /// `zerber_membership_up` gauge: peers currently believed `Up`.
    pub membership_up: Gauge,
}

impl QueryMetrics {
    /// The `zerber_query_plan_total` counter for a query of `shape`.
    pub(crate) fn plan_counter(&self, shape: QueryShape) -> &Counter {
        match shape {
            QueryShape::Terms => &self.plan_maxscore,
            QueryShape::And => &self.plan_conjunctive,
            QueryShape::Phrase => &self.plan_phrase,
        }
    }
}

/// The observability handle of one deployment. Clones share state.
#[derive(Clone)]
pub struct RuntimeObs {
    inner: Arc<ObsInner>,
}

impl Default for RuntimeObs {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeObs {
    /// A fresh handle with its own registry and forensics sinks.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let metrics = QueryMetrics {
            latency: registry.histogram("zerber_query_latency_ns"),
            total: registry.counter("zerber_query_total"),
            hedges: registry.counter("zerber_gather_hedges_total"),
            duplicate_responses: registry.counter("zerber_gather_duplicate_responses_total"),
            failed_attempts: registry.counter("zerber_gather_failed_attempts_total"),
            candidates_received: registry.counter("zerber_gather_candidates_received_total"),
            candidates_examined: registry.counter("zerber_gather_candidates_examined_total"),
            rpc_latency: registry.histogram("zerber_transport_rpc_latency_ns"),
            decode_latency: registry.histogram("zerber_peer_decode_latency_ns"),
            blocks_decoded: registry.counter("zerber_peer_blocks_decoded_total"),
            blocks_skipped: registry.counter("zerber_peer_blocks_skipped_total"),
            bytes_total: registry.gauge("zerber_transport_bytes_total"),
            cache_hits: registry.counter("zerber_cache_hits_total"),
            cache_misses: registry.counter("zerber_cache_misses_total"),
            cache_evictions: registry.counter("zerber_cache_evictions_total"),
            plan_maxscore: registry.counter("zerber_query_plan_total{plan=\"maxscore\"}"),
            plan_conjunctive: registry.counter("zerber_query_plan_total{plan=\"conjunctive\"}"),
            plan_phrase: registry.counter("zerber_query_plan_total{plan=\"phrase\"}"),
            repair_rebuilds: registry.counter("zerber_repair_rebuilds_total"),
            repair_segments_shipped: registry.counter("zerber_repair_segments_shipped_total"),
            repair_bytes_shipped: registry.counter("zerber_repair_bytes_shipped_total"),
            repair_rebuild_ns: registry.histogram("zerber_repair_rebuild_ns"),
            membership_up: registry.gauge("zerber_membership_up"),
        };
        Self {
            inner: Arc::new(ObsInner {
                registry,
                next_trace: AtomicU64::new(1),
                slow_queries: SlowQueryLog::new(SLOW_QUERY_LOG_CAPACITY),
                flight_recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
                metrics,
            }),
        }
    }

    /// The underlying registry (snapshot it or share it).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Allocates the next trace id (never zero — zero is the wire's
    /// *untraced* marker).
    pub(crate) fn next_trace_id(&self) -> TraceId {
        TraceId(self.inner.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// The top-N-by-latency slow-query log.
    pub fn slow_queries(&self) -> &SlowQueryLog {
        &self.inner.slow_queries
    }

    /// The always-on ring buffer of the last K query traces.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.inner.flight_recorder
    }

    /// Files a finished query trace into both forensics sinks.
    pub(crate) fn record_trace(&self, trace: Arc<QueryTrace>) {
        self.inner.flight_recorder.record(Arc::clone(&trace));
        self.inner.slow_queries.offer(trace);
    }

    /// Pulls `meter`'s totals into the transport byte gauges, then
    /// snapshots the registry. Traffic is metered by the existing
    /// [`TrafficMeter`] (the paper's bandwidth accounting); the
    /// registry mirrors it at read time instead of double-counting on
    /// the hot path.
    pub fn snapshot_with_traffic(&self, meter: &TrafficMeter) -> MetricsSnapshot {
        self.sync_traffic(meter);
        self.inner.registry.snapshot()
    }

    /// Updates the `zerber_transport_bytes_total` gauge from `meter`.
    pub(crate) fn sync_traffic(&self, meter: &TrafficMeter) {
        self.inner.metrics.bytes_total.set(meter.total() as i64);
    }

    pub(crate) fn metrics(&self) -> &QueryMetrics {
        &self.inner.metrics
    }
}
