//! The read path: every ranked read of a [`ShardedSearch`] — cached
//! or not, complete or failed — runs through this module, and so do
//! the single-node references the tests compare it with.
//!
//! A shard nobody answers for fails the query closed
//! ([`QueryError::Unavailable`]): a silently partial top-k is a
//! *wrong* top-k. The one decision this module owns is *what every
//! finished query leaves behind* — one epilogue records its latency,
//! counts it and files its trace, whichever of the three exits it took.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zerber_index::{Document, InvertedIndex, RankedDoc, TermId};
use zerber_net::{AuthToken, Message, NodeId};
use zerber_obs::{QueryTrace, SpanRecord, TraceId};
use zerber_postings::CompressedPostingStore;
use zerber_query::{Forced, Query};

use super::gather::{
    self, gather_topk, hedged_fan_out, AttemptOutcome, GatherScratch, ShardAnswer, ShardFetch,
    ShardUnavailable,
};
use super::stats::TermStats;
use super::transport::{request_payload, TransportError};
use super::ShardedSearch;

thread_local! {
    /// Per-client-thread gather scratch: concurrent clients each keep
    /// their own, so queries stay `&self` without a lock and the
    /// gather stage stops allocating per query.
    static GATHER_SCRATCH: std::cell::RefCell<GatherScratch> =
        std::cell::RefCell::new(GatherScratch::default());
}

/// What one sharded query produced.
///
/// Hedge, duplicate-response, and failed-attempt *counts* moved off
/// this struct and into the deployment's metrics registry
/// ([`ShardedSearch::obs`], `zerber_gather_*` counter families); the
/// per-query evidence — per-stage wall clock, per-attempt RPC spans,
/// decode accounting — rides along as the full [`QueryTrace`].
#[derive(Debug, Clone)]
pub struct ShardedQueryOutcome {
    /// The global top-k, identical to single-node evaluation.
    pub ranked: Vec<RankedDoc>,
    /// Primary peers the query fanned out to (one per shard; hedged
    /// retries are counted in `zerber_gather_hedges_total`).
    pub peers_contacted: usize,
    /// Candidates shipped back by all peers.
    pub candidates_received: usize,
    /// Candidates the gather merge examined before the threshold
    /// bound cut it off.
    pub candidates_examined: usize,
    /// Replicas that failed or stayed silent before their shard
    /// settled, each with its terminal error (timeout vs. dead link
    /// vs. fault) — the dead are reported, never silently dropped.
    pub failed_peers: Vec<(NodeId, TransportError)>,
    /// The assembled span tree of this query: fan-out, per-shard RPC
    /// attempts (with hedges, failures, and duplicates), peer-side
    /// decode, and gather merge.
    pub trace: Arc<QueryTrace>,
}

/// Why a query could not complete. With the hedged gather, individual
/// replica failures never surface here — only a shard *none* of whose
/// replicas answered fails the query, and it fails closed with the
/// per-replica evidence rather than returning a silently partial
/// top-k.
#[derive(Debug)]
pub enum QueryError {
    /// A shard no replica answered for.
    Unavailable(ShardUnavailable),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Unavailable(s) => {
                write!(
                    f,
                    "shard {} unavailable after {} attempts",
                    s.shard,
                    s.attempts.len()
                )?;
                // The per-replica terminal evidence: a timeout reads
                // differently from a dead link or a fault frame, and
                // the operator debugging an outage needs to know which.
                for (peer, error) in s.failed() {
                    write!(f, "; {peer:?}: {error}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl ShardedSearch {
    /// Builds one query's fan-out list: one request per shard, fanned
    /// to that shard's replicas *minus* any tainted peer — a replica
    /// that missed an acknowledged write may hold stale postings, so
    /// it must not answer queries until repaired (correctness over
    /// availability). The map is read once, so a concurrent cutover
    /// flips between queries, never inside one.
    fn query_shards(&self, build: impl Fn(u32) -> Message) -> Vec<gather::ShardRequest> {
        let map = self.map.read();
        let tainted = self.tainted.lock();
        (0..map.shard_count())
            .map(|shard| {
                let replicas = map
                    .replica_peers(shard, self.replicas)
                    .into_iter()
                    .filter(|peer| !tainted.contains(peer))
                    .map(NodeId::IndexServer)
                    .collect();
                (shard, replicas, request_payload(&build(shard)))
            })
            .collect()
    }

    /// Executes a top-`k` query as anonymous client 0 (see
    /// `ShardedSearch::query_from`).
    pub fn query(&self, terms: &[TermId], k: usize) -> Result<ShardedQueryOutcome, QueryError> {
        self.query_from(0, terms, k)
    }

    /// The uncached disjunctive read: ranks `terms` (in caller order,
    /// duplicates scoring twice) under MaxScore as client `client`
    /// (distinct clients get distinct links in the traffic
    /// accounting). It never probes or fills the result cache, so
    /// every call reaches the transport — which is what the
    /// fault-injection tests rely on.
    /// [`ShardedSearch::query_shaped`] is the cached serving
    /// read over the same fan-out.
    pub(crate) fn query_from(
        &self,
        client: u32,
        terms: &[TermId],
        k: usize,
    ) -> Result<ShardedQueryOutcome, QueryError> {
        let query = Query::Terms {
            terms: terms.to_vec(),
            k,
        };
        self.fetch_and_gather(client, &query, Instant::now())
    }

    /// The cached serving read: executes a shaped top-`k` query
    /// ([`Query::Terms`] / [`Query::And`] / [`Query::Phrase`]) as
    /// client `client`.
    ///
    /// The query is normalized, then probed against the epoch-keyed
    /// result cache; a hit answers without touching any peer (the
    /// trace records a `cache` span instead of a fan-out). A miss runs
    /// the same fan-out as `ShardedSearch::query_from` and fills the
    /// cache under the epoch the probe used. Because writes bump the
    /// epoch *after* every replica acknowledges, a key minted before a
    /// write can never be looked up after it: stale hits are
    /// structurally impossible, not scrubbed.
    ///
    /// `forced` is kept only for `benchmark/`; ROADMAP item 1 deletes
    /// it.
    pub fn query_shaped(
        &self,
        client: u32,
        query: Query,
        _forced: Forced,
    ) -> Result<ShardedQueryOutcome, QueryError> {
        let started = Instant::now();
        let normalized = query.normalized();
        let epoch = self.epoch.load(Ordering::Acquire);
        let key = normalized.cache_key(epoch);
        let metrics = self.obs.metrics();
        if let Some(ranked) = self.cache.get(&key) {
            metrics.cache_hits.inc();
            let cache_span = SpanRecord::new("cache", Duration::ZERO, started.elapsed())
                .with_counter("hit", 1)
                .with_counter("epoch", epoch);
            let id = self.obs.next_trace_id();
            let trace = self.finish_query(started, id, &normalized, None, vec![cache_span]);
            return Ok(ShardedQueryOutcome {
                ranked: ranked.as_ref().clone(),
                peers_contacted: 0,
                candidates_received: 0,
                candidates_examined: 0,
                failed_peers: Vec::new(),
                trace,
            });
        }
        metrics.cache_misses.inc();
        let outcome = self.fetch_and_gather(client, &normalized, started)?;
        // Fill the cache under the epoch the probe used: if a write
        // landed mid-flight the epoch has moved on, this key names a
        // dead epoch, and no future probe can ever read it.
        let evicted = self.cache.insert(key, Arc::new(outcome.ranked.clone()));
        metrics.cache_evictions.add(evicted);
        Ok(outcome)
    }

    /// The one ranked-read path behind every public query entry point:
    /// global IDF weights → one [`Message::PlanQuery`] per shard →
    /// hedged, traced fan-out → fail closed on an unanswered shard →
    /// gather → [`ShardedSearch::finish_query`]. `query`'s terms ship in the
    /// order given (the caller normalizes, or not); `started` is when
    /// the caller's query began, so the trace covers any work done
    /// before the fan-out.
    ///
    /// The fan-out is *hedged*: each shard's request goes to its
    /// primary replica first, and only a replica that is silent for
    /// [`HedgePolicy::hedge_after`] (or answers with a fault) costs a
    /// retry on the next replica. Replica stores are identical copies,
    /// so whichever one answers, the gathered top-k is bit-identical
    /// to the single-node oracle — a dead peer changes availability
    /// accounting, never results.
    fn fetch_and_gather(
        &self,
        client: u32,
        query: &Query,
        started: Instant,
    ) -> Result<ShardedQueryOutcome, QueryError> {
        let k = query.k();
        let metrics = self.obs.metrics();
        metrics.plan_counter(query.shape()).inc();

        let weights = self.stats.read().stats.weights(query.terms());
        // Saturate rather than truncate: document ids are 32-bit, so
        // no shard can hold more than u32::MAX results anyway.
        let wire_k = u32::try_from(k).unwrap_or(u32::MAX);
        let shards = self.query_shards(|shard| Message::PlanQuery {
            shard,
            shape: query.shape().as_u8(),
            forced: Forced::Auto.as_u8(),
            terms: weights.clone(),
            k: wire_k,
        });
        let trace_id = self.obs.next_trace_id();
        let (fetches, fanout_span) = self.traced_fanout(NodeId::User(client), trace_id, &shards);

        let mut per_shard: Vec<Vec<RankedDoc>> = Vec::with_capacity(fetches.len());
        let mut failed_peers: Vec<(NodeId, TransportError)> = Vec::new();
        for fetch in fetches {
            match fetch {
                Ok(fetch) => {
                    failed_peers.extend(fetch.failed());
                    per_shard.push(fetch.answer.candidates);
                }
                Err(unavailable) => {
                    // A failed-closed query still counts, and leaves a
                    // *failure trace*: the slow-query log is exactly
                    // where an operator looks for the terminal
                    // per-replica errors.
                    let failure = format!("shard {} unavailable", unavailable.shard);
                    let spans = vec![fanout_span];
                    self.finish_query(started, trace_id, query, Some(failure), spans);
                    return Err(QueryError::Unavailable(unavailable));
                }
            }
        }
        let gather_started = Instant::now();
        let gathered =
            GATHER_SCRATCH.with(|scratch| gather_topk(&mut scratch.borrow_mut(), &per_shard, k));
        let gather_span = SpanRecord::new(
            "gather",
            gather_started.duration_since(started),
            gather_started.elapsed(),
        )
        .with_counter("candidates_received", gathered.candidates_received as u64)
        .with_counter("candidates_examined", gathered.candidates_examined as u64);

        metrics
            .candidates_received
            .add(gathered.candidates_received as u64);
        metrics
            .candidates_examined
            .add(gathered.candidates_examined as u64);
        self.obs.sync_traffic(self.traffic());
        let spans = vec![fanout_span, gather_span];
        let trace = self.finish_query(started, trace_id, query, None, spans);

        Ok(ShardedQueryOutcome {
            ranked: gathered.ranked,
            peers_contacted: per_shard.len(),
            candidates_received: gathered.candidates_received,
            candidates_examined: gathered.candidates_examined,
            failed_peers,
            trace,
        })
    }

    /// The one epilogue of every query, whichever exit it took (cache
    /// hit, failed closed, gathered): records the end-to-end latency,
    /// counts the query, builds the root span over `children` — marked
    /// failed with `failure` when there is one — and files the trace
    /// in the slow-query log and the flight recorder.
    fn finish_query(
        &self,
        started: Instant,
        id: TraceId,
        query: &Query,
        failure: Option<String>,
        children: Vec<SpanRecord>,
    ) -> Arc<QueryTrace> {
        let total = started.elapsed();
        let metrics = self.obs.metrics();
        metrics.latency.record(total.as_nanos() as u64);
        metrics.total.inc();
        let mut root =
            SpanRecord::new("query", Duration::ZERO, total).with_counter("k", query.k() as u64);
        if let Some(reason) = failure {
            root = root.failed(reason);
        }
        for child in children {
            root = root.with_child(child);
        }
        let trace = Arc::new(QueryTrace {
            id,
            label: format!(
                "{:?} terms={:?} k={}",
                query.shape(),
                query.terms(),
                query.k()
            ),
            total,
            root,
        });
        self.obs.record_trace(Arc::clone(&trace));
        trace
    }

    /// Runs [`hedged_fan_out`] under `trace`, folds the per-attempt
    /// RPC timings and the peers' decode accounting into the registry,
    /// and builds the `fan_out` span (one child per shard, one
    /// grandchild per replica attempt, a `decode` great-grandchild
    /// under each winning attempt) — from numbers that crossed the
    /// wire, so it reads the same whatever transport carried them.
    fn traced_fanout(
        &self,
        from: NodeId,
        trace: TraceId,
        shards: &[gather::ShardRequest],
    ) -> (Vec<Result<ShardFetch, ShardUnavailable>>, SpanRecord) {
        let started = Instant::now();
        let transport = self.transport.as_ref();
        let fetches = hedged_fan_out(transport, from, AuthToken(0), trace.0, shards, &self.policy);
        let fanout_wall = started.elapsed();
        let metrics = self.obs.metrics();

        let mut span = SpanRecord::new("fan_out", Duration::ZERO, fanout_wall);
        for fetch in &fetches {
            let (shard, attempts, settled_peer) = match fetch {
                Ok(fetch) => (fetch.shard, &fetch.attempts, Some(fetch.peer)),
                Err(unavailable) => (unavailable.shard, &unavailable.attempts, None),
            };
            let shard_wall = attempts
                .iter()
                .map(|a| a.started + a.duration)
                .max()
                .unwrap_or(Duration::ZERO);
            let mut shard_span =
                SpanRecord::new(format!("shard {shard}"), Duration::ZERO, shard_wall);
            if settled_peer.is_none() {
                shard_span = shard_span.failed("no replica answered");
            }
            for attempt in attempts {
                metrics
                    .rpc_latency
                    .record(attempt.duration.as_nanos() as u64);
                let mut rpc = SpanRecord::new(
                    format!("rpc {:?}", attempt.peer),
                    attempt.started,
                    attempt.duration,
                );
                match attempt.outcome {
                    AttemptOutcome::Answered => {
                        if let Some(Ok(fetch)) = (settled_peer == Some(attempt.peer))
                            .then_some(fetch)
                            .map(|f| f.as_ref())
                        {
                            let ShardAnswer {
                                decode_ns,
                                blocks_decoded,
                                blocks_total,
                                ..
                            } = fetch.answer;
                            metrics.decode_latency.record(decode_ns);
                            metrics.blocks_decoded.add(u64::from(blocks_decoded));
                            metrics
                                .blocks_skipped
                                .add(u64::from(blocks_total.saturating_sub(blocks_decoded)));
                            rpc = rpc.with_child(
                                SpanRecord::new(
                                    "decode",
                                    attempt.started,
                                    Duration::from_nanos(decode_ns),
                                )
                                .with_counter("blocks_decoded", u64::from(blocks_decoded))
                                .with_counter("blocks_total", u64::from(blocks_total)),
                            );
                        }
                    }
                    AttemptOutcome::Failed(error) => {
                        metrics.failed_attempts.inc();
                        rpc = rpc.failed(format!("{error}"));
                    }
                    AttemptOutcome::Duplicate => {
                        metrics.duplicate_responses.inc();
                        rpc = rpc.with_counter("duplicate", 1);
                    }
                }
                shard_span = shard_span.with_child(rpc);
            }
            if let Ok(fetch) = fetch {
                metrics.hedges.add(fetch.hedges() as u64);
            }
            span = span.with_child(shard_span);
        }
        (fetches, span)
    }
}

/// The single-node reference for [`ShardedSearch::query`]: the same
/// global IDF weights, the same MaxScore evaluation over `terms` in
/// caller order — on one unsharded in-memory store. `query`
/// returns exactly this wherever the shards' files live (the
/// `sharded_topk` property test proves bit-identity for arbitrary
/// corpora, peer counts, and `k`).
pub fn local_topk(docs: &[Document], terms: &[TermId], k: usize) -> Vec<RankedDoc> {
    let query = Query::Terms {
        terms: terms.to_vec(),
        k,
    };
    evaluate_locally(docs, &query)
}

/// The single-node reference for the shaped-query path: the same
/// global IDF weights, the same planned evaluator — without sharding,
/// caching, or the wire. [`ShardedSearch::query_shaped`] returns
/// exactly this (the `sharded_topk` shaped properties prove
/// bit-identity for arbitrary corpora, shapes, peer counts, and `k`).
pub fn local_planned(docs: &[Document], query: &Query) -> Vec<RankedDoc> {
    evaluate_locally(docs, &query.clone().normalized())
}

/// Evaluates `query` (terms in the order given) over one unsharded
/// store of `docs` with global IDF weights.
fn evaluate_locally(docs: &[Document], query: &Query) -> Vec<RankedDoc> {
    let store = CompressedPostingStore::from_index(&InvertedIndex::from_documents(docs));
    let slots = TermStats::from_documents(docs).weights(query.terms());
    zerber_query::execute(
        &store,
        query.shape(),
        &slots,
        query.k(),
        Forced::Auto,
        &mut zerber_index::TopKScratch::new(),
    )
    .ranked
}
