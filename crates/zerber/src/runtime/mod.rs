//! The concurrent sharded peer runtime.
//!
//! The paper's deployment model (Section 5) is a set of *untrusted
//! peers*, each doing its own work: index servers hold share columns,
//! DHT peers hold fractions of the index (Section 3's future-work
//! direction), and clients talk to all of them over a network. This
//! module makes that structure real inside one process:
//!
//! * [`transport`] — the message-passing substrate: every RPC is
//!   serialized to its exact [`zerber_net::Message`] wire bytes,
//!   metered per link on a [`zerber_net::TrafficMeter`], and handed to
//!   the destination peer ([`InProcTransport`] in one process,
//!   [`socket::SocketTransport`] over real length-framed TCP). The
//!   trait hands back a [`transport::PendingReply`] per request, which
//!   is what hedging and failover are built from.
//! * [`fault`] — the deterministic chaos harness:
//!   [`fault::FaultInjectTransport`] wraps any transport and injects
//!   seeded drops, delays, duplicates, torn writes, and peer kills,
//!   reproducible from a single seed.
//! * [`peer`] — one OS thread per peer. [`ServerService`] runs the
//!   share-holding index-server role (`ZerberSystem` hosts its `n`
//!   servers this way); [`ShardService`] serves one *document shard*
//!   of a plaintext collection behind the
//!   [`zerber_index::PostingStore`] trait and answers every ranked
//!   read ([`zerber_net::Message::PlanQuery`]) with the planner-chosen
//!   `zerber-query` evaluator over the lazy
//!   [`zerber_index::PostingStore::query_cursors`] — only blocks that
//!   survive the block-max bound ever decompress.
//! * [`gather`] — merges per-peer top-k candidates under the
//!   threshold-algorithm bound; with document sharding the merge is
//!   provably identical to single-node evaluation (property-tested in
//!   `tests/sharded_topk.rs`). Its [`gather::hedged_fan_out`] drives
//!   the replicated fetch: first live replica per shard wins, slow or
//!   dead replicas are hedged around and *reported*.
//! * [`ShardedSearch`] — the facade: place documents on `P` peers via
//!   the consistent-hash ring ([`zerber_dht::ShardMap`]), replicate
//!   each shard on `R` successor peers, build every shard store in
//!   parallel on its peer's thread, fan queries out, gather.
//!
//! # Query path
//!
//! ```text
//!  client thread                    peer threads (R replicas/shard)
//!  ─────────────                    ───────────────────────────────
//!  idf weights (global df)
//!  PlanQuery ─ hedged fan-out ─┬─▶  shard 0 @ peer 0 ─ evaluate ──┐
//!      (wire bytes             ├─▶  shard 1 @ peer 1 ─ evaluate ──┤
//!       metered per link;      └─▶  shard 2 @ peer 2 ✗ dead       │
//!       silent replica ⇒ hedge)  └▶ shard 2 @ peer 3 ─ evaluate ──┤
//!                                                             ▼
//!  ranked top-k  ◀── gather (TA bound) ◀── TopKResponse (sorted)
//! ```
//!
//! [`ShardedSearch::query`] / [`ShardedSearch::query_from`] (the
//! uncached `Terms`/block-max-TA read) and
//! [`ShardedSearch::query_shaped`] (the cached serving read) are both
//! thin entries over this one path.

pub mod fault;
pub mod gather;
pub mod handle;
pub mod membership;
pub mod obs;
pub mod peer;
pub mod repair;
pub mod shard;
pub mod socket;
pub mod transport;

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use zerber_dht::ShardMap;
use zerber_index::{DocId, Document, InvertedIndex, PostingBackend, RankedDoc, TermId};
use zerber_net::{AuthToken, Message, NodeId, TrafficMeter, WireDocument};
use zerber_obs::{QueryTrace, SpanRecord, TraceId};
use zerber_postings::CompressedPostingStore;
use zerber_query::{CacheConfig, Forced, Query, ResultCache};

pub use fault::{ChaosAction, FaultInjectTransport, FaultPlan};
pub use gather::{
    gather_topk, gather_topk_with, hedged_fan_out, AttemptOutcome, AttemptRecord, GatherOutcome,
    GatherScratch, HedgePolicy, ShardAnswer, ShardFetch, ShardUnavailable,
};
pub use handle::RuntimeHandle;
pub use membership::{MembershipTable, PeerStatus};
pub use obs::RuntimeObs;
pub use peer::{PeerRuntime, PeerService, RestoreFn, ServerService, ShardService};
pub use repair::{rebuild_shard, Backoff, RepairError, RepairStats};
pub use shard::{
    build_shard_store, build_shard_store_observed, restore_shard_store, ShardStore, ShardStoreError,
};
pub use transport::{InProcTransport, PendingReply, Transport, TransportError};

use crate::runtime::transport::DEFAULT_RPC_TIMEOUT;

use crate::config::{ConfigError, ZerberConfig};

thread_local! {
    /// Per-client-thread gather scratch: concurrent clients each keep
    /// their own, so queries stay `&self` without a lock and the
    /// gather stage stops allocating per query.
    static GATHER_SCRATCH: std::cell::RefCell<GatherScratch> =
        std::cell::RefCell::new(GatherScratch::default());
}

/// Global collection statistics driving IDF weights: total documents
/// and per-term document frequency. Computed over the *full*
/// collection before sharding, so every shard scores with the same
/// weights a single node would use.
#[derive(Debug, Clone, Default)]
pub struct TermStats {
    /// Total documents in the collection.
    pub doc_count: usize,
    /// Documents containing each term.
    pub df: HashMap<TermId, u32>,
}

impl TermStats {
    /// Gathers statistics from a document set.
    pub fn from_documents(docs: &[Document]) -> Self {
        let mut df: HashMap<TermId, u32> = HashMap::new();
        for doc in docs {
            for &(term, _) in &doc.terms {
                *df.entry(term).or_insert(0) += 1;
            }
        }
        Self {
            doc_count: docs.len(),
            df,
        }
    }

    /// The IDF factor of one term (0 for unseen terms) — delegates to
    /// the shared [`zerber_index::idf`] every ranking path uses.
    pub fn idf(&self, term: TermId) -> f64 {
        let df = self.df.get(&term).copied().unwrap_or(0) as usize;
        zerber_index::idf(self.doc_count, df)
    }

    /// Per-term `(term, idf)` weights for a query, in query order.
    pub fn weights(&self, terms: &[TermId]) -> Vec<(TermId, f64)> {
        terms.iter().map(|&t| (t, self.idf(t))).collect()
    }

    /// Accounts one newly indexed document (its distinct terms).
    /// Exact-integer df/doc-count updates keep incrementally
    /// maintained statistics *identical* to a from-scratch rebuild —
    /// the invariant that keeps live-mutated deployments bit-identical
    /// to the oracle.
    pub fn add_document(&mut self, terms: impl IntoIterator<Item = TermId>) {
        self.doc_count += 1;
        for term in terms {
            *self.df.entry(term).or_insert(0) += 1;
        }
    }

    /// Reverses [`TermStats::add_document`] for a removed document.
    pub fn remove_document(&mut self, terms: impl IntoIterator<Item = TermId>) {
        self.doc_count = self.doc_count.saturating_sub(1);
        for term in terms {
            if let Some(df) = self.df.get_mut(&term) {
                *df -= 1;
                if *df == 0 {
                    self.df.remove(&term);
                }
            }
        }
    }
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
    /// Shards *no* replica answered for, served as empty under
    /// [`DegradedMode::FlaggedPartial`]. Empty on a complete answer —
    /// and always empty under [`DegradedMode::FailClosed`], which
    /// turns the first uncovered shard into a [`QueryError`].
    pub partial_shards: Vec<u32>,
    /// The assembled span tree of this query: fan-out, per-shard RPC
    /// attempts (with hedges, failures, and duplicates), peer-side
    /// decode, and gather merge.
    pub trace: Arc<QueryTrace>,
}

/// What a query does when a shard has no answering replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedMode {
    /// Fail the whole query with the per-replica evidence
    /// ([`QueryError::Unavailable`]). The default: a silently partial
    /// top-k is a *wrong* top-k.
    #[default]
    FailClosed,
    /// Serve the covered shards and *flag* the uncovered ones in
    /// [`ShardedQueryOutcome::partial_shards`]. Partial answers never
    /// fill the result cache.
    FlaggedPartial,
}

/// A concurrent, document-sharded top-k search deployment.
///
/// Documents are placed on `config.peers` peer threads by the
/// consistent-hash ring; each peer indexes its shard on its own
/// thread (parallel build) and serves [`Message::PlanQuery`] with the
/// planned evaluator over the configured
/// [`zerber_index::PostingStore`] backend. `query` is `&self` and
/// thread-safe: concurrent clients fan out and gather independently.
///
/// This is the *plaintext* serving engine: shard peers enforce no
/// authentication or group ACLs (see [`ShardService`]) — use the
/// share-based [`crate::ZerberSystem`] path for access-controlled
/// collections.
///
/// # Example: a 4-peer deployment, end to end
///
/// ```
/// use zerber::runtime::{local_topk, ShardedSearch};
/// use zerber::ZerberConfig;
/// use zerber_index::{DocId, Document, GroupId, TermId};
///
/// // 40 documents; term 9 is everywhere, terms 0–6 rotate.
/// let docs: Vec<Document> = (0..40u32)
///     .map(|d| {
///         Document::from_term_counts(
///             DocId(d),
///             GroupId(0),
///             vec![(TermId(d % 7), 1 + d % 3), (TermId(9), 1)],
///         )
///     })
///     .collect();
///
/// let config = ZerberConfig::default().with_peers(4);
/// let search = ShardedSearch::launch(&config, &docs).unwrap();
/// assert_eq!(search.peer_count(), 4);
///
/// let query = [TermId(3), TermId(9)];
/// let outcome = search.query(&query, 5).unwrap();
/// assert_eq!(outcome.ranked.len(), 5);
/// assert_eq!(outcome.peers_contacted, 4);
///
/// // The sharded result is identical to single-node evaluation…
/// assert_eq!(outcome.ranked, local_topk(&docs, &query, 5));
/// // …and every byte that crossed a link was accounted for.
/// assert!(search.traffic().total() > 0);
/// ```
pub struct ShardedSearch {
    runtime: PeerRuntime,
    /// The transport clients speak through. Normally the runtime's own
    /// [`InProcTransport`]; [`ShardedSearch::launch_with_transport`]
    /// lets a caller wrap it (the chaos harness injects faults here
    /// without the peers knowing).
    transport: Arc<dyn Transport>,
    /// The serving shard → peer assignment. Queries read it; only a
    /// join/leave cutover writes it.
    map: RwLock<ShardMap>,
    /// The *next* assignment while a join/leave migration is in
    /// flight: writes fan to the union of old and new placement (so
    /// no acknowledged write misses a future replica), while queries
    /// keep serving from the old assignment until cutover.
    transition: Mutex<Option<ShardMap>>,
    /// Peers that missed an acknowledged write (their replica fan-out
    /// leg kept failing after retries): queries skip them until
    /// [`ShardedSearch::repair_peer`] re-ships their shards, because a
    /// replica that missed a write may not serve — bit-identity over
    /// availability.
    tainted: Mutex<HashSet<u32>>,
    /// Heartbeat-driven peer health (feeds `zerber_membership_up`).
    membership: Mutex<MembershipTable>,
    /// What queries do about a shard with no live replica.
    degraded: RwLock<DegradedMode>,
    /// The per-replica store backend — kept so repaired/joining peers
    /// rebuild their stores from shipped snapshots.
    backend: Arc<PostingBackend>,
    /// Copies per shard (`1` = unreplicated).
    replicas: u32,
    /// When queries hedge to the next replica.
    policy: HedgePolicy,
    /// Global statistics plus the per-document term registry that
    /// keeps them incrementally exact under inserts and deletes.
    stats: RwLock<StatsState>,
    /// Per-deployment metrics registry, trace allocator, and query
    /// forensics (slow-query log, flight recorder).
    obs: RuntimeObs,
    /// The epoch-keyed result cache behind
    /// [`ShardedSearch::query_shaped`].
    cache: ResultCache,
    /// Serving epoch: bumped after every acknowledged visible mutation
    /// (insert, bulk load, effective delete). Cache keys embed it, so
    /// entries minted before a write can never be looked up after it.
    epoch: AtomicU64,
}

struct StatsState {
    stats: TermStats,
    doc_terms: HashMap<DocId, Vec<TermId>>,
}

/// Why a live mutation did not land.
#[derive(Debug)]
pub enum IngestError {
    /// The transport failed (peer gone, wire damage).
    Transport(TransportError),
    /// The shard peer refused the mutation — `code` is the
    /// `zerber_net::message::fault` discriminant (shard not hosted,
    /// storage failure, malformed document).
    Rejected {
        /// Fault code from the peer.
        code: u8,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Transport(e) => write!(f, "ingest transport failure: {e}"),
            IngestError::Rejected { code } => write!(f, "shard rejected mutation (fault {code})"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<TransportError> for IngestError {
    fn from(e: TransportError) -> Self {
        IngestError::Transport(e)
    }
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

/// The backend one replica store should build: the segmented backend
/// gets a per-(peer, shard) subdirectory so replica stores never
/// collide on disk.
fn replica_backend(backend: &PostingBackend, peer: usize, shard: u32) -> PostingBackend {
    match backend {
        PostingBackend::Segmented { dir, compaction } => PostingBackend::Segmented {
            dir: dir.join(format!("peer-{peer:03}-shard-{shard:03}")),
            compaction: *compaction,
        },
        PostingBackend::Compressed => PostingBackend::Compressed,
    }
}

/// The label a query's trace is filed under.
fn trace_label(query: &Query, forced: Forced) -> String {
    format!(
        "{:?} terms={:?} k={} forced={forced:?}",
        query.shape(),
        query.terms(),
        query.k()
    )
}

fn to_wire(doc: &Document) -> WireDocument {
    WireDocument {
        doc: doc.id,
        group: doc.group,
        length: doc.length,
        terms: doc.terms.clone(),
    }
}

/// Merges one replica's write acknowledgement into the settled
/// response, preferring the highest `DeleteOk.removed` — a
/// mid-rebuild replica buffers deletes and acks `removed: 0`, so a
/// live replica's observation must win.
fn merge_write_ack(best: &mut Option<Message>, response: Message) {
    match (best.as_mut(), response) {
        (Some(Message::DeleteOk { removed }), Message::DeleteOk { removed: other }) => {
            *removed = (*removed).max(other);
        }
        (Some(_), _) => {}
        (None, response) => *best = Some(response),
    }
}

/// The snapshot-restore factory one peer's [`ShardService`] uses to
/// become a rebuild target: installed files build a fresh store on the
/// peer's own backend (and, for the segmented engine, in the peer's
/// own replica directory).
fn restore_factory(backend: Arc<PostingBackend>, peer: u32) -> peer::RestoreFn {
    Box::new(move |shard, files| {
        shard::restore_shard_store(&replica_backend(&backend, peer as usize, shard), files)
    })
}

impl ShardedSearch {
    /// Places `docs` on `config.peers` shards and spawns one
    /// indexing/serving thread per shard.
    ///
    /// The plaintext sharded engine places no Shamir shares, so the
    /// only ring requirement is `peers ≥ 1` — a single-peer deployment
    /// is the legitimate scaling baseline. (Share-placement rings are
    /// validated by [`ZerberConfig::validate`] at
    /// `ZerberSystem::bootstrap`.) This engine is what
    /// `config.postings` configures: every replica builds its store on
    /// that backend, after [`ZerberConfig::validate_storage`] has
    /// accepted it. Both backends take live
    /// [`ShardedSearch::insert_documents`] /
    /// [`ShardedSearch::delete_document`] traffic; with
    /// [`PostingBackend::Segmented`], each replica owns a durable
    /// store in a `peer-<p>-shard-<s>` subdirectory — created only for
    /// the shards that peer actually hosts. The segmented
    /// directories must be *fresh*: global statistics are computed
    /// from `docs`, so a shard peer panics rather than silently merge
    /// previously recovered state (reopen such stores with
    /// `zerber_segment::SegmentStore` directly).
    ///
    /// With `config.replication = R > 1`, every logical shard is also
    /// copied onto the `R - 1` successor peers on the ring
    /// ([`ShardMap::replica_peers`]): writes fan to all copies, and
    /// queries hedge to a successor when a replica is slow or dead —
    /// any single peer can be lost without losing a shard.
    pub fn launch(config: &ZerberConfig, docs: &[Document]) -> Result<Self, ConfigError> {
        Self::launch_with_transport(config, docs, |transport| transport)
    }

    /// [`ShardedSearch::launch`] with a transport wrapper: `wrap`
    /// receives the runtime's [`InProcTransport`] and returns the
    /// transport *clients* will speak through. Peers always reply via
    /// the inner transport; only the client side is wrapped — which is
    /// exactly where the fault-injection harness
    /// ([`FaultInjectTransport`]) sits.
    pub fn launch_with_transport<F>(
        config: &ZerberConfig,
        docs: &[Document],
        wrap: F,
    ) -> Result<Self, ConfigError>
    where
        F: FnOnce(Arc<InProcTransport>) -> Arc<dyn Transport>,
    {
        if config.peers == 0 {
            return Err(ConfigError::NoPeers);
        }
        if config.replication == 0 {
            return Err(ConfigError::NoReplicas);
        }
        config.validate_storage()?;
        let replicas = (config.replication as u32).min(config.peers as u32);
        let map = ShardMap::new(config.peers as u32);
        // Every peer needs read access to the shards it hosts (its own
        // plus, under replication, its predecessors'), so the
        // partition is shared rather than moved into one initializer.
        let shards = Arc::new(map.partition(docs, |doc| doc.id));
        let stats = TermStats::from_documents(docs);
        let doc_terms: HashMap<DocId, Vec<TermId>> = docs
            .iter()
            .map(|doc| (doc.id, doc.terms.iter().map(|&(t, _)| t).collect()))
            .collect();

        let obs = RuntimeObs::new();
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        // One shared backend description for every peer; the
        // per-replica variant (a subdirectory for the segmented
        // engine) is derived on the peer's own thread.
        let backend = Arc::new(config.postings.clone());
        for peer in 0..config.peers {
            let node = NodeId::IndexServer(peer as u32);
            let backend = Arc::clone(&backend);
            let shards = Arc::clone(&shards);
            let hosted = map.hosted_shards(peer as u32, replicas);
            // Segmented stores report WAL/flush/compaction timings
            // into the deployment's registry; the registry is shared
            // across all peers (instruments aggregate).
            let registry = obs.registry().clone();
            // The initializer runs on the peer's thread: every hosted
            // replica store builds (index, or seed the durable engine)
            // in parallel across all peers.
            runtime.spawn_peer(node, move || {
                let restore = restore_factory(Arc::clone(&backend), peer as u32);
                ShardService::hosting(hosted.into_iter().map(|shard| {
                    let store = shard::build_shard_store_observed(
                        &replica_backend(&backend, peer, shard),
                        &shards[shard as usize],
                        Some(&registry),
                    );
                    (shard, store)
                }))
                .with_restore(restore)
                .observed(&registry)
            });
        }
        let transport = wrap(Arc::clone(runtime.transport()));
        let membership =
            MembershipTable::new(map.peer_ids().iter().map(|&p| NodeId::IndexServer(p)));
        obs.metrics()
            .membership_up
            .set(membership.up_count() as i64);
        Ok(Self {
            runtime,
            transport,
            map: RwLock::new(map),
            transition: Mutex::new(None),
            tainted: Mutex::new(HashSet::new()),
            membership: Mutex::new(membership),
            degraded: RwLock::new(DegradedMode::default()),
            backend,
            replicas,
            policy: HedgePolicy::default(),
            stats: RwLock::new(StatsState { stats, doc_terms }),
            obs,
            cache: ResultCache::new(CacheConfig::default()),
            epoch: AtomicU64::new(0),
        })
    }

    /// Number of live shard peers (changes under join/leave).
    pub fn peer_count(&self) -> usize {
        self.map.read().peer_count() as usize
    }

    /// Number of logical shards (fixed at launch).
    pub fn shard_count(&self) -> u32 {
        self.map.read().shard_count()
    }

    /// A copy of the current serving shard → peer assignment.
    pub fn shard_map(&self) -> ShardMap {
        self.map.read().clone()
    }

    /// Copies of each shard (clamped to the peer count at launch).
    pub fn replication(&self) -> u32 {
        self.replicas
    }

    /// What queries do when a shard has no answering replica.
    pub fn set_degraded_mode(&self, mode: DegradedMode) {
        *self.degraded.write() = mode;
    }

    /// The peers currently excluded from query fan-out because they
    /// missed an acknowledged write (sorted; empty when healthy).
    pub fn tainted_peers(&self) -> Vec<u32> {
        let mut peers: Vec<u32> = self.tainted.lock().iter().copied().collect();
        peers.sort_unstable();
        peers
    }

    /// Replaces the hedging policy (when to give up on a replica and
    /// try its successor). Chaos tests tighten this to keep injected
    /// delays from dominating wall-clock time.
    pub fn set_hedge_policy(&mut self, policy: HedgePolicy) {
        self.policy = policy;
    }

    /// The transport clients of this deployment speak through.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// This deployment's observability handle: metrics registry,
    /// slow-query log, and flight recorder. Snapshot its registry for
    /// the `zerber_*` counter/gauge/histogram families the query,
    /// gather, and segment layers record into.
    pub fn obs(&self) -> &RuntimeObs {
        &self.obs
    }

    /// Kills one peer: its thread shuts down and every later request
    /// to it fails. With replication, queries keep answering from the
    /// survivors; without, its shard becomes unavailable. (The
    /// availability experiment and the failover tests use this.)
    pub fn kill_peer(&self, peer: u32) {
        self.runtime.transport().shutdown(NodeId::IndexServer(peer));
    }

    /// A copy of the current global collection statistics (the IDF
    /// source).
    pub fn stats(&self) -> TermStats {
        self.stats.read().stats.clone()
    }

    /// Number of live documents across all shards.
    pub fn document_count(&self) -> usize {
        self.stats.read().stats.doc_count
    }

    /// The per-link wire-byte accounting for this deployment.
    pub fn traffic(&self) -> &Arc<TrafficMeter> {
        self.runtime.transport().meter()
    }

    /// The peers one write to `shard` must reach: the current replica
    /// set, plus — during a join/leave migration — the new
    /// assignment's replicas, so no acknowledged write can miss a
    /// peer that is about to start serving the shard.
    fn write_peers(&self, shard: u32) -> Vec<u32> {
        let mut peers: Vec<u32> = self
            .map
            .read()
            .replica_peers(shard, self.replicas)
            .into_iter()
            .map(|p| p.0)
            .collect();
        if let Some(next) = self.transition.lock().as_ref() {
            for p in next.replica_peers(shard, self.replicas) {
                if !peers.contains(&p.0) {
                    peers.push(p.0);
                }
            }
        }
        peers
    }

    /// Begins one write on every peer in `peers` (all sends leave
    /// before any wait, so the round trip costs the slowest replica).
    fn begin_write(&self, from: NodeId, peers: &[u32], payload: &Arc<[u8]>) -> Vec<PendingReply> {
        peers
            .iter()
            .map(|&peer| {
                self.transport.begin(
                    from,
                    NodeId::IndexServer(peer),
                    AuthToken(0),
                    Arc::clone(payload),
                )
            })
            .collect()
    }

    /// Settles one shard's replica write fan-out under the
    /// retry-then-repair discipline:
    ///
    /// * a **fault** from any replica fails the write closed
    ///   ([`IngestError::Rejected`], no epoch bump, cache intact) —
    ///   the store itself said no, and retrying cannot change that;
    /// * a **transport failure** retries briefly with jittered
    ///   backoff; a replica that still will not take the write is
    ///   *tainted* — excluded from query fan-out until
    ///   [`ShardedSearch::repair_peer`] re-ships it the shard
    ///   (re-shipping is idempotent: replay applies documents by id);
    /// * the write **succeeds** while at least one replica
    ///   acknowledged — availability is preserved without ever letting
    ///   a stale replica answer queries.
    ///
    /// Responses are merged preferring the highest `DeleteOk.removed`:
    /// a mid-rebuild replica buffers the delete and acks `removed: 0`,
    /// so a live replica's count must win.
    fn settle_write(
        &self,
        from: NodeId,
        shard: u32,
        request: &Message,
        peers: &[u32],
        pendings: Vec<PendingReply>,
    ) -> Result<Message, IngestError> {
        let mut best: Option<Message> = None;
        let mut acked = 0usize;
        let mut last_error: Option<TransportError> = None;
        let mut retry: Vec<u32> = Vec::new();
        for (&peer, mut pending) in peers.iter().zip(pendings) {
            match pending.wait(DEFAULT_RPC_TIMEOUT) {
                Ok(Message::Fault { code, .. }) => return Err(IngestError::Rejected { code }),
                Ok(response) => {
                    acked += 1;
                    merge_write_ack(&mut best, response);
                }
                Err(error) => {
                    last_error = Some(error);
                    retry.push(peer);
                }
            }
        }
        if !retry.is_empty() {
            let mut backoff = repair::Backoff::for_seed(u64::from(shard) ^ 0x57A7_E0F5_ED11_BEEF);
            for peer in retry {
                let mut landed = false;
                for _ in 0..2 {
                    std::thread::sleep(backoff.next_delay());
                    match self.transport.request(
                        from,
                        NodeId::IndexServer(peer),
                        AuthToken(0),
                        request,
                    ) {
                        Ok(Message::Fault { code, .. }) => {
                            return Err(IngestError::Rejected { code })
                        }
                        Ok(response) => {
                            acked += 1;
                            merge_write_ack(&mut best, response);
                            landed = true;
                            break;
                        }
                        Err(error) => last_error = Some(error),
                    }
                }
                if !landed {
                    // The replica missed an acknowledged write: it may
                    // not serve queries again until repaired.
                    self.tainted.lock().insert(peer);
                }
            }
        }
        if acked == 0 {
            return Err(IngestError::Transport(
                last_error.expect("zero acks imply at least one error"),
            ));
        }
        Ok(best.expect("acked responses were merged"))
    }

    /// Fans one write to every replica of `shard` under the
    /// retry-then-repair discipline of
    /// [`ShardedSearch::settle_write`].
    fn fan_write(
        &self,
        from: NodeId,
        shard: u32,
        request: &Message,
    ) -> Result<Message, IngestError> {
        let payload: Arc<[u8]> = Arc::from(request.encode().as_ref());
        let peers = self.write_peers(shard);
        let pendings = self.begin_write(from, &peers, &payload);
        self.settle_write(from, shard, request, &peers, pendings)
    }

    /// Inserts (or replaces) documents live, as owner node `owner`:
    /// each document is routed to its shard by the consistent-hash
    /// ring, shipped to *every* replica of that shard, and the global
    /// statistics are updated exactly once all replicas acknowledge.
    /// Returns the number of documents shipped.
    ///
    /// Concurrent queries keep running against whichever side of the
    /// mutation they catch — a query observes either the old or the
    /// new state of each document, never a torn one.
    pub fn insert_documents(&self, owner: u32, docs: &[Document]) -> Result<usize, IngestError> {
        if docs.is_empty() {
            return Ok(0);
        }
        // Group per shard, preserving arrival order within each group
        // (later copies of a doc id must win).
        let mut per_shard: HashMap<u32, Vec<&Document>> = HashMap::new();
        {
            let map = self.map.read();
            for doc in docs {
                per_shard
                    .entry(map.shard_of(doc.id).0)
                    .or_default()
                    .push(doc);
            }
        }
        for (shard, group) in per_shard {
            let request = Message::IndexDocs {
                shard,
                docs: group.iter().map(|doc| to_wire(doc)).collect(),
            };
            match self.fan_write(NodeId::Owner(owner), shard, &request)? {
                Message::InsertOk => {}
                other => panic!("protocol violation: unexpected response {other:?}"),
            }
            // Account this shard's documents the moment its replicas
            // acknowledge: if a later shard fails, the statistics
            // still describe exactly the documents that landed.
            let mut state = self.stats.write();
            for doc in &group {
                let terms: Vec<TermId> = doc.terms.iter().map(|&(t, _)| t).collect();
                state.stats.add_document(terms.iter().copied());
                if let Some(old) = state.doc_terms.insert(doc.id, terms) {
                    state.stats.remove_document(old);
                }
            }
            drop(state);
            // Bump per acknowledged group, not once at the end: if a
            // later shard fails, the groups that *did* land must still
            // have invalidated the cache.
            self.epoch.fetch_add(1, Ordering::Release);
        }
        Ok(docs.len())
    }

    /// Bulk-loads documents along the offline path, as owner node
    /// `owner`. Routing and replacement semantics are identical to
    /// [`ShardedSearch::insert_documents`] — each document goes to its
    /// ring shard, every replica must acknowledge, and the global
    /// statistics account each shard once all its replicas ack — but
    /// the batch ships as [`Message::BulkLoad`], so a segmented
    /// replica builds block-compressed segments through the parallel
    /// SPIMI path (no WAL write) instead of journaling every posting.
    /// Each replica builds its *own* copy of the shard from the same
    /// wire batch, so replicas stay bit-identical without shipping
    /// segment files.
    ///
    /// Unlike the live path, every shard's replica fan-out is begun
    /// before any reply is awaited: bulk load is the throughput path,
    /// and all hosting peers should be building concurrently. The
    /// load costs the slowest replica, not the sum across shards.
    /// Returns the number of documents shipped.
    pub fn bulk_load(&self, owner: u32, docs: &[Document]) -> Result<usize, IngestError> {
        if docs.is_empty() {
            return Ok(0);
        }
        // Group per shard, preserving arrival order within each group
        // (later copies of a doc id must win).
        let mut per_shard: HashMap<u32, Vec<&Document>> = HashMap::new();
        {
            let map = self.map.read();
            for doc in docs {
                per_shard
                    .entry(map.shard_of(doc.id).0)
                    .or_default()
                    .push(doc);
            }
        }
        #[allow(clippy::type_complexity)]
        let mut inflight: Vec<(u32, Message, Vec<&Document>, Vec<u32>, Vec<PendingReply>)> =
            Vec::with_capacity(per_shard.len());
        for (shard, group) in per_shard {
            let request = Message::BulkLoad {
                shard,
                docs: group.iter().map(|doc| to_wire(doc)).collect(),
            };
            let payload: Arc<[u8]> = Arc::from(request.encode().as_ref());
            let peers = self.write_peers(shard);
            let pendings = self.begin_write(NodeId::Owner(owner), &peers, &payload);
            inflight.push((shard, request, group, peers, pendings));
        }
        for (shard, request, group, peers, pendings) in inflight {
            match self.settle_write(NodeId::Owner(owner), shard, &request, &peers, pendings)? {
                Message::InsertOk => {}
                other => panic!("protocol violation: unexpected response {other:?}"),
            }
            // Account this shard's documents the moment its replicas
            // all acknowledge — exactly the live-insert discipline, so
            // a failed shard leaves statistics describing only the
            // documents that actually landed.
            let mut state = self.stats.write();
            for doc in &group {
                let terms: Vec<TermId> = doc.terms.iter().map(|&(t, _)| t).collect();
                state.stats.add_document(terms.iter().copied());
                if let Some(old) = state.doc_terms.insert(doc.id, terms) {
                    state.stats.remove_document(old);
                }
            }
            drop(state);
            self.epoch.fetch_add(1, Ordering::Release);
        }
        Ok(docs.len())
    }

    /// Deletes one document live (routed like
    /// [`ShardedSearch::insert_documents`], fanned to every replica).
    /// Returns whether the document existed.
    pub fn delete_document(&self, owner: u32, doc: DocId) -> Result<bool, IngestError> {
        let shard = self.map.read().shard_of(doc).0;
        let request = Message::RemoveDoc { shard, doc };
        let removed = match self.fan_write(NodeId::Owner(owner), shard, &request)? {
            Message::DeleteOk { removed } => removed > 0,
            other => panic!("protocol violation: unexpected response {other:?}"),
        };
        if removed {
            let mut state = self.stats.write();
            if let Some(old) = state.doc_terms.remove(&doc) {
                state.stats.remove_document(old);
            }
            drop(state);
            // A miss (the doc never existed) changes no visible
            // result, so it keeps the epoch — and the cache — intact.
            self.epoch.fetch_add(1, Ordering::Release);
        }
        Ok(removed)
    }

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
                    .filter(|peer| !tainted.contains(&peer.0))
                    .map(|peer| NodeId::IndexServer(peer.0))
                    .collect();
                (shard, replicas, Arc::from(build(shard).encode().as_ref()))
            })
            .collect()
    }

    /// Executes a top-`k` query as anonymous client 0 (see
    /// [`ShardedSearch::query_from`]).
    pub fn query(&self, terms: &[TermId], k: usize) -> Result<ShardedQueryOutcome, QueryError> {
        self.query_from(0, terms, k)
    }

    /// The uncached disjunctive read: ranks `terms` (in caller order,
    /// duplicates scoring twice) under the block-max Threshold
    /// Algorithm as client `client` (distinct clients get distinct
    /// links in the traffic accounting). It never probes or fills the
    /// result cache, so every call reaches the transport — which is
    /// what the fault-injection tests rely on.
    /// [`ShardedSearch::query_shaped`] is the cached serving
    /// read over the same fan-out.
    pub fn query_from(
        &self,
        client: u32,
        terms: &[TermId],
        k: usize,
    ) -> Result<ShardedQueryOutcome, QueryError> {
        let query = Query::Terms {
            terms: terms.to_vec(),
            k,
        };
        self.fetch_and_gather(client, &query, Forced::BlockMaxTa, Instant::now())
    }

    /// The current serving epoch (the cache-key component writes bump).
    pub fn serving_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The epoch-keyed result cache behind
    /// [`ShardedSearch::query_shaped`].
    pub fn result_cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The cached serving read: executes a shaped top-`k` query
    /// ([`Query::Terms`] / [`Query::And`] / [`Query::Phrase`]) as
    /// client `client`.
    ///
    /// The query is normalized, then probed against the epoch-keyed
    /// result cache; a hit answers without touching any peer (the
    /// trace records a `cache` span instead of a fan-out). A miss runs
    /// the same fan-out as [`ShardedSearch::query_from`] and fills the
    /// cache under the epoch the probe used. Because writes bump the
    /// epoch *after* every replica acknowledges, a key minted before a
    /// write can never be looked up after it: stale hits are
    /// structurally impossible, not scrubbed.
    ///
    /// `forced` overrides the disjunctive planner choice
    /// ([`Forced::BlockMaxTa`] / [`Forced::MaxScore`]) so benchmarks
    /// can pit the evaluators against each other; every evaluator is
    /// bit-identical to the exhaustive oracle, so `forced` changes
    /// cost, never results.
    pub fn query_shaped(
        &self,
        client: u32,
        query: Query,
        forced: Forced,
    ) -> Result<ShardedQueryOutcome, QueryError> {
        let started = Instant::now();
        let normalized = query.normalized();
        let epoch = self.epoch.load(Ordering::Acquire);
        let key = normalized.cache_key(epoch);
        let metrics = self.obs.metrics();
        if let Some(ranked) = self.cache.get(&key) {
            metrics.cache_hits.inc();
            let total = started.elapsed();
            metrics.latency.record(total.as_nanos() as u64);
            metrics.total.inc();
            let cache_span = SpanRecord::new("cache", Duration::ZERO, total)
                .with_counter("hit", 1)
                .with_counter("epoch", epoch);
            let root = SpanRecord::new("query", Duration::ZERO, total)
                .with_counter("k", normalized.k() as u64)
                .with_child(cache_span);
            let trace = Arc::new(QueryTrace {
                id: self.obs.next_trace_id(),
                label: trace_label(&normalized, forced),
                total,
                root,
            });
            self.obs.record_trace(Arc::clone(&trace));
            return Ok(ShardedQueryOutcome {
                ranked: ranked.as_ref().clone(),
                peers_contacted: 0,
                candidates_received: 0,
                candidates_examined: 0,
                failed_peers: Vec::new(),
                partial_shards: Vec::new(),
                trace,
            });
        }
        metrics.cache_misses.inc();
        let outcome = self.fetch_and_gather(client, &normalized, forced, started)?;
        // Fill the cache under the epoch the probe used: if a write
        // landed mid-flight the epoch has moved on, this key names a
        // dead epoch, and no future probe can ever read it. A partial
        // answer (flagged-degraded mode with shards missing) never
        // fills the cache — it is not *the* answer for this epoch.
        if outcome.partial_shards.is_empty() {
            let evicted = self.cache.insert(key, Arc::new(outcome.ranked.clone()));
            metrics.cache_evictions.add(evicted);
        }
        Ok(outcome)
    }

    /// The one ranked-read path behind every public query entry point:
    /// global IDF weights → one [`Message::PlanQuery`] per shard →
    /// hedged, traced fan-out → degraded-mode decision → gather →
    /// metrics → trace. `query`'s terms ship in the order given (the
    /// caller normalizes, or not); `started` is when the caller's
    /// query began, so the trace covers any work done before the
    /// fan-out.
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
        forced: Forced,
        started: Instant,
    ) -> Result<ShardedQueryOutcome, QueryError> {
        let k = query.k();
        let metrics = self.obs.metrics();
        metrics
            .plan_counter(zerber_query::plan(
                query.shape(),
                query.terms().len(),
                forced,
            ))
            .inc();

        let weights = self.stats.read().stats.weights(query.terms());
        // Saturate rather than truncate: document ids are 32-bit, so
        // no shard can hold more than u32::MAX results anyway.
        let wire_k = u32::try_from(k).unwrap_or(u32::MAX);
        let shards = self.query_shards(|shard| Message::PlanQuery {
            shard,
            shape: query.shape().as_u8(),
            forced: forced.as_u8(),
            terms: weights.clone(),
            k: wire_k,
        });
        let trace_id = self.obs.next_trace_id();
        let (fetches, fanout_span) = traced_topk_fanout(
            &self.obs,
            self.transport.as_ref(),
            NodeId::User(client),
            AuthToken(0),
            trace_id,
            &shards,
            &self.policy,
        );

        let degraded = *self.degraded.read();
        let mut per_shard: Vec<Vec<RankedDoc>> = Vec::with_capacity(fetches.len());
        let mut failed_peers: Vec<(NodeId, TransportError)> = Vec::new();
        let mut partial_shards: Vec<u32> = Vec::new();
        for fetch in fetches {
            match fetch {
                Ok(fetch) => {
                    failed_peers.extend(fetch.failed());
                    per_shard.push(fetch.answer.candidates);
                }
                Err(unavailable) if degraded == DegradedMode::FlaggedPartial => {
                    partial_shards.push(unavailable.shard);
                    failed_peers.extend(unavailable.failed());
                }
                Err(unavailable) => {
                    // A failed-closed query still counts: record its
                    // latency, completion, and a *failure trace* (the
                    // slow-query log is exactly where an operator looks
                    // for the terminal per-replica errors) before
                    // surfacing the loss.
                    let total = started.elapsed();
                    metrics.latency.record(total.as_nanos() as u64);
                    metrics.total.inc();
                    let root = SpanRecord::new("query", Duration::ZERO, total)
                        .with_counter("k", k as u64)
                        .failed(format!("shard {} unavailable", unavailable.shard))
                        .with_child(fanout_span);
                    self.obs.record_trace(Arc::new(QueryTrace {
                        id: trace_id,
                        label: trace_label(query, forced),
                        total,
                        root,
                    }));
                    return Err(QueryError::Unavailable(unavailable));
                }
            }
        }
        let gather_started = Instant::now();
        let gathered = GATHER_SCRATCH
            .with(|scratch| gather_topk_with(&mut scratch.borrow_mut(), &per_shard, k));
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
        let total = started.elapsed();
        metrics.latency.record(total.as_nanos() as u64);
        metrics.total.inc();
        self.obs.sync_traffic(self.traffic());

        let root = SpanRecord::new("query", Duration::ZERO, total)
            .with_counter("k", k as u64)
            .with_child(fanout_span)
            .with_child(gather_span);
        let trace = Arc::new(QueryTrace {
            id: trace_id,
            label: trace_label(query, forced),
            total,
            root,
        });
        self.obs.record_trace(Arc::clone(&trace));

        Ok(ShardedQueryOutcome {
            ranked: gathered.ranked,
            peers_contacted: per_shard.len(),
            candidates_received: gathered.candidates_received,
            candidates_examined: gathered.candidates_examined,
            failed_peers,
            partial_shards,
            trace,
        })
    }

    /// The identity control-plane RPCs (heartbeats, shard rebuilds)
    /// travel as.
    const CONTROLLER: NodeId = NodeId::Owner(0);

    /// Probes every mapped peer with [`Message::Ping`] and feeds the
    /// outcomes into the membership table, returning each peer's
    /// debounced status. One missed probe makes a peer `Suspect`;
    /// a streak declares it `Down` (repair-eligible); any answer —
    /// including a fault — snaps it back to `Up`. Also refreshes the
    /// `zerber_membership_up` gauge.
    pub fn heartbeat(&self) -> Vec<(NodeId, PeerStatus)> {
        let peers: Vec<NodeId> = self
            .map
            .read()
            .peer_ids()
            .iter()
            .map(|&p| NodeId::IndexServer(p))
            .collect();
        let mut membership = self.membership.lock();
        for &node in &peers {
            let alive = repair::probe(self.transport.as_ref(), Self::CONTROLLER, node);
            if membership.status(node).is_none() {
                membership.admit(node);
            }
            if alive {
                membership.note_success(node);
            } else {
                membership.note_failure(node);
            }
        }
        self.obs
            .metrics()
            .membership_up
            .set(membership.up_count() as i64);
        peers
            .iter()
            .map(|&node| {
                (
                    node,
                    membership.status(node).expect("probed peers are tracked"),
                )
            })
            .collect()
    }

    /// Respawns a killed peer and rebuilds every shard it hosts from
    /// live replicas. The revived service starts mid-rebuild — it
    /// buffers writes and bounces reads from its very first request,
    /// so it can never serve the stale state it died with — and each
    /// shard starts serving again only when its snapshot commit (plus
    /// buffered-write replay) succeeds. Returns the total shipped.
    pub fn revive_peer(&self, peer: u32) -> Result<RepairStats, RepairError> {
        let hosted = self.map.read().hosted_shards(peer, self.replicas);
        let backend = Arc::clone(&self.backend);
        let registry = self.obs.registry().clone();
        self.runtime.spawn_peer(NodeId::IndexServer(peer), move || {
            ShardService::rebuilding(hosted)
                .with_restore(restore_factory(backend, peer))
                .observed(&registry)
        });
        self.repair_peer(peer)
    }

    /// Re-ships every shard hosted by `peer` from a live replica and,
    /// on success, clears the peer's taint and readmits it to
    /// membership. Safe to run on a currently-serving peer (the begin
    /// frame flips each shard to write-buffering) and idempotent:
    /// snapshot replay applies documents by id, so re-shipping state
    /// the peer already holds changes nothing.
    ///
    /// While the repair runs the peer is tainted — queries skip it —
    /// and it is untainted only once *every* hosted shard has cut
    /// over, so a half-repaired peer never answers.
    pub fn repair_peer(&self, peer: u32) -> Result<RepairStats, RepairError> {
        let map = self.map.read().clone();
        if !map.contains_peer(peer) {
            return Err(RepairError::Protocol(format!("peer {peer} is not mapped")));
        }
        let target = NodeId::IndexServer(peer);
        self.tainted.lock().insert(peer);
        let mut total = RepairStats::default();
        for shard in map.hosted_shards(peer, self.replicas) {
            let source = map
                .replica_peers(shard, self.replicas)
                .into_iter()
                .map(|p| p.0)
                .find(|&p| p != peer && !self.tainted.lock().contains(&p))
                .ok_or_else(|| {
                    RepairError::Protocol(format!("shard {shard} has no live replica to ship from"))
                })?;
            let stats = rebuild_shard(
                self.transport.as_ref(),
                Self::CONTROLLER,
                AuthToken(0),
                NodeId::IndexServer(source),
                target,
                shard,
                Some(&self.obs),
            )?;
            total.segments += stats.segments;
            total.bytes += stats.bytes;
        }
        self.tainted.lock().remove(&peer);
        let mut membership = self.membership.lock();
        membership.admit(target);
        self.obs
            .metrics()
            .membership_up
            .set(membership.up_count() as i64);
        Ok(total)
    }

    /// Tells `target` to start write-buffering `shard` (the begin
    /// frame of the rebuild protocol) — sent to every peer *gaining* a
    /// shard in a join/leave migration before writes start fanning to
    /// the new placement, so a gained peer acks (buffers) writes it
    /// cannot yet serve instead of rejecting them.
    fn begin_buffering(&self, shard: u32, target: NodeId) -> Result<(), RepairError> {
        let begin = Message::InstallShard {
            shard,
            epoch: 0,
            name: String::new(),
            crc: 0,
            commit: false,
            payload: zerber_net::Bytes::new(),
        };
        let mut backoff = Backoff::for_seed(u64::from(shard) ^ 0x0B5E_55ED_B00F_FEED);
        let response = repair::retry_request(
            self.transport.as_ref(),
            Self::CONTROLLER,
            target,
            AuthToken(0),
            &begin,
            3,
            &mut backoff,
        )
        .map_err(RepairError::Transport)?;
        match response {
            Message::InsertOk => Ok(()),
            Message::Fault { code, .. } => Err(RepairError::Refused { node: target, code }),
            other => Err(RepairError::Protocol(format!("begin answered {other:?}"))),
        }
    }

    /// Ships every [`zerber_dht::ShardMove`] of a computed transition:
    /// begin frames to all gaining peers, then the transition becomes
    /// the write fan-out union, then each moved shard streams from a
    /// live old-assignment source, and finally queries cut over to the
    /// new assignment atomically. On failure the transition stays
    /// installed — writes keep reaching both placements (so a retry
    /// ships a superset snapshot and loses nothing) and queries keep
    /// serving the old assignment.
    fn migrate(
        &self,
        next: ShardMap,
        moves: &[zerber_dht::ShardMove],
    ) -> Result<RepairStats, RepairError> {
        for mv in moves {
            for gained in &mv.gained {
                self.begin_buffering(mv.shard, NodeId::IndexServer(gained.0))?;
            }
        }
        *self.transition.lock() = Some(next.clone());
        let mut total = RepairStats::default();
        for mv in moves {
            let source = mv
                .sources
                .iter()
                .map(|p| p.0)
                .find(|p| !mv.gained.iter().any(|g| g.0 == *p) && !self.tainted.lock().contains(p))
                .ok_or_else(|| {
                    RepairError::Protocol(format!(
                        "shard {} has no live source to migrate from",
                        mv.shard
                    ))
                })?;
            for gained in &mv.gained {
                let stats = rebuild_shard(
                    self.transport.as_ref(),
                    Self::CONTROLLER,
                    AuthToken(0),
                    NodeId::IndexServer(source),
                    NodeId::IndexServer(gained.0),
                    mv.shard,
                    Some(&self.obs),
                )?;
                total.segments += stats.segments;
                total.bytes += stats.bytes;
            }
        }
        *self.map.write() = next;
        *self.transition.lock() = None;
        Ok(total)
    }

    /// Adds `peer` to the ring and rebalances: the joiner spawns
    /// mid-rebuild (buffering every shard it will host from its first
    /// request), every moved shard ships from a live source while
    /// queries keep serving the old assignment, and the cutover flips
    /// atomically once all copies are installed. Returns the total
    /// shipped across all moves.
    pub fn join_peer(&self, peer: u32) -> Result<RepairStats, RepairError> {
        let mut next = {
            let map = self.map.read();
            if map.contains_peer(peer) {
                return Err(RepairError::Protocol(format!("peer {peer} already mapped")));
            }
            map.clone()
        };
        let moves = next.join(peer, self.replicas);
        let hosted = next.hosted_shards(peer, self.replicas);
        let backend = Arc::clone(&self.backend);
        let registry = self.obs.registry().clone();
        self.runtime.spawn_peer(NodeId::IndexServer(peer), move || {
            ShardService::rebuilding(hosted)
                .with_restore(restore_factory(backend, peer))
                .observed(&registry)
        });
        let total = self.migrate(next, &moves)?;
        let mut membership = self.membership.lock();
        membership.admit(NodeId::IndexServer(peer));
        self.obs
            .metrics()
            .membership_up
            .set(membership.up_count() as i64);
        Ok(total)
    }

    /// Gracefully removes `peer` from the ring: its shards re-home
    /// onto the survivors, every moved copy ships (the leaver is a
    /// valid source until cutover), queries flip to the new
    /// assignment, and only then is the leaver shut down and evicted
    /// from membership. Returns the total shipped across all moves.
    pub fn leave_peer(&self, peer: u32) -> Result<RepairStats, RepairError> {
        let mut next = {
            let map = self.map.read();
            if !map.contains_peer(peer) {
                return Err(RepairError::Protocol(format!("peer {peer} is not mapped")));
            }
            if map.peer_count() <= 1 {
                return Err(RepairError::Protocol(
                    "cannot remove the last peer".to_string(),
                ));
            }
            map.clone()
        };
        let moves = next.leave(peer, self.replicas);
        let total = self.migrate(next, &moves)?;
        let mut membership = self.membership.lock();
        membership.evict(NodeId::IndexServer(peer));
        self.obs
            .metrics()
            .membership_up
            .set(membership.up_count() as i64);
        drop(membership);
        self.kill_peer(peer);
        Ok(total)
    }
}

/// Runs [`hedged_fan_out`] under `trace`, folds the per-attempt RPC
/// timings and the peers' decode accounting into `obs`'s registry, and
/// builds the `fan_out` span (one child per shard, one grandchild per
/// replica attempt, a `decode` great-grandchild under each winning
/// attempt).
///
/// Shared by [`ShardedSearch`]'s read path and hand-wired clusters
/// (`examples/socket_cluster.rs`, the observability tests) so the
/// in-process and multi-process socket paths assemble identical trace
/// shapes.
pub fn traced_topk_fanout(
    obs: &RuntimeObs,
    transport: &dyn Transport,
    from: NodeId,
    auth: AuthToken,
    trace: TraceId,
    shards: &[gather::ShardRequest],
    policy: &HedgePolicy,
) -> (Vec<Result<ShardFetch, ShardUnavailable>>, SpanRecord) {
    let started = Instant::now();
    let fetches = hedged_fan_out(transport, from, auth, trace.0, shards, policy);
    let fanout_wall = started.elapsed();
    let metrics = obs.metrics();

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
        let mut shard_span = SpanRecord::new(format!("shard {shard}"), Duration::ZERO, shard_wall);
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

/// The single-node reference for [`ShardedSearch::query`]: the same
/// global IDF weights, the same block-max Threshold Algorithm over
/// `terms` in caller order — on one unsharded in-memory store. `query`
/// returns exactly this on either backend (the `sharded_topk` property
/// test proves bit-identity for arbitrary corpora, peer counts, and
/// `k`).
pub fn local_topk(docs: &[Document], terms: &[TermId], k: usize) -> Vec<RankedDoc> {
    let query = Query::Terms {
        terms: terms.to_vec(),
        k,
    };
    evaluate_locally(docs, &query, Forced::BlockMaxTa)
}

/// The single-node reference for the shaped-query path: the same
/// global IDF weights, the same planned evaluator — without sharding,
/// caching, or the wire. [`ShardedSearch::query_shaped`] returns
/// exactly this (the `sharded_topk` shaped properties prove
/// bit-identity for arbitrary corpora, shapes, peer counts, and `k`).
pub fn local_planned(docs: &[Document], query: &Query, forced: Forced) -> Vec<RankedDoc> {
    evaluate_locally(docs, &query.clone().normalized(), forced)
}

/// Evaluates `query` (terms in the order given) over one unsharded
/// store of `docs` with global IDF weights.
fn evaluate_locally(docs: &[Document], query: &Query, forced: Forced) -> Vec<RankedDoc> {
    let store = CompressedPostingStore::from_index(&InvertedIndex::from_documents(docs));
    let slots = TermStats::from_documents(docs).weights(query.terms());
    zerber_query::execute(
        &store,
        query.shape(),
        &slots,
        query.k(),
        forced,
        &mut zerber_index::TopKScratch::new(),
    )
    .ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_index::{DocId, GroupId};

    fn corpus(docs: u32, terms: u32) -> Vec<Document> {
        (0..docs)
            .map(|d| {
                Document::from_term_counts(
                    DocId(d),
                    GroupId(0),
                    (0..3)
                        .map(|i| (TermId((d + i) % terms), 1 + (d * 7 + i) % 4))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn sharded_query_matches_local_reference() {
        let docs = corpus(120, 17);
        let config = ZerberConfig::default().with_peers(5);
        let search = ShardedSearch::launch(&config, &docs).unwrap();
        for terms in [
            vec![TermId(0)],
            vec![TermId(3), TermId(8)],
            vec![TermId(1), TermId(1), TermId(16)],
        ] {
            let outcome = search.query(&terms, 10).unwrap();
            assert_eq!(outcome.ranked, local_topk(&docs, &terms, 10));
            assert!(outcome.candidates_examined <= 10);
            assert!(outcome.candidates_received >= outcome.candidates_examined);
        }
    }

    #[test]
    fn compressed_backend_serves_identically() {
        // The cross-backend theorem at the deployment level: the
        // in-memory and the durable backend serve the same bits.
        let docs = corpus(200, 9);
        let dir = zerber_segment::scratch_dir("sharded-backends-unit");
        let compressed = ZerberConfig::default().with_peers(4);
        let segmented = compressed.clone().with_postings(PostingBackend::Segmented {
            dir: dir.clone(),
            compaction: zerber_index::SegmentPolicy::default(),
        });
        assert_eq!(compressed.postings, PostingBackend::Compressed);
        let a = ShardedSearch::launch(&compressed, &docs).unwrap();
        let b = ShardedSearch::launch(&segmented, &docs).unwrap();
        let terms = [TermId(2), TermId(5)];
        assert_eq!(
            a.query(&terms, 15).unwrap().ranked,
            b.query(&terms, 15).unwrap().ranked
        );
        drop(b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_clients_share_one_deployment() {
        let docs = corpus(150, 11);
        let config = ZerberConfig::default().with_peers(4);
        let search = ShardedSearch::launch(&config, &docs).unwrap();
        let reference = local_topk(&docs, &[TermId(4)], 8);
        std::thread::scope(|scope| {
            for client in 0..6u32 {
                let search = &search;
                let reference = &reference;
                scope.spawn(move || {
                    for _ in 0..10 {
                        let outcome = search.query_from(client, &[TermId(4)], 8).unwrap();
                        assert_eq!(&outcome.ranked, reference);
                    }
                });
            }
        });
        // Each client got its own metered links.
        for client in 0..6u32 {
            assert!(search.traffic().sent_by(NodeId::User(client)) > 0);
        }
    }

    #[test]
    fn unknown_terms_and_empty_queries_are_harmless() {
        let docs = corpus(30, 5);
        let config = ZerberConfig::default().with_peers(3);
        let search = ShardedSearch::launch(&config, &docs).unwrap();
        assert!(search.query(&[], 5).unwrap().ranked.is_empty());
        assert!(search.query(&[TermId(999)], 5).unwrap().ranked.is_empty());
        assert!(search.query(&[TermId(1)], 0).unwrap().ranked.is_empty());
    }

    #[test]
    fn live_mutation_tracks_the_rebuild_oracle_on_every_backend() {
        let initial = corpus(90, 13);
        let dir = zerber_segment::scratch_dir("sharded-mutation-unit");
        let backends = vec![
            PostingBackend::Compressed,
            PostingBackend::Segmented {
                dir: dir.clone(),
                compaction: zerber_index::SegmentPolicy {
                    flush_postings: 32,
                    max_segments: 2,
                    background: true,
                    sync_wal: false,
                },
            },
        ];
        for backend in backends {
            let config = ZerberConfig::default().with_peers(3).with_postings(backend);
            let search = ShardedSearch::launch(&config, &initial).unwrap();
            let mut live = initial.clone();
            // Replace one doc (dropping terms), delete one, add one.
            let replacement =
                Document::from_term_counts(DocId(4), GroupId(0), vec![(TermId(12), 2)]);
            let addition = Document::from_term_counts(DocId(500), GroupId(0), vec![(TermId(0), 1)]);
            search
                .insert_documents(0, std::slice::from_ref(&replacement))
                .unwrap();
            assert!(search.delete_document(0, DocId(7)).unwrap());
            assert!(!search.delete_document(0, DocId(7777)).unwrap());
            search
                .insert_documents(0, std::slice::from_ref(&addition))
                .unwrap();
            live.retain(|d| d.id != DocId(4) && d.id != DocId(7));
            live.push(replacement.clone());
            live.push(addition.clone());

            for terms in [vec![TermId(0)], vec![TermId(12), TermId(3)]] {
                let outcome = search.query(&terms, 10).unwrap();
                let expected = local_topk(&live, &terms, 10);
                assert_eq!(outcome.ranked.len(), expected.len());
                for (got, want) in outcome.ranked.iter().zip(&expected) {
                    assert_eq!(got.doc, want.doc);
                    assert_eq!(got.score.to_bits(), want.score.to_bits());
                }
            }
            assert_eq!(search.document_count(), live.len());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frozen_rejection_surfaces_as_ingest_error() {
        // A deployment whose peers refuse every write (here: none of
        // them hosts the shard a write is routed to) takes no
        // documents; the typed rejection must reach the caller.
        let docs = corpus(20, 4);
        let config = ZerberConfig::default().with_peers(2);
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let map = ShardMap::new(2);
        for peer in 0..2u32 {
            runtime.spawn_peer(NodeId::IndexServer(peer), move || {
                // Logical shard 9 is outside the two-shard map.
                ShardService::hosting([(9, build_shard_store(&PostingBackend::Compressed, &[]))])
            });
        }
        let transport: Arc<dyn Transport> = Arc::clone(runtime.transport()) as Arc<dyn Transport>;
        let membership =
            MembershipTable::new(map.peer_ids().iter().map(|&p| NodeId::IndexServer(p)));
        let search = ShardedSearch {
            runtime,
            transport,
            map: RwLock::new(map),
            transition: Mutex::new(None),
            tainted: Mutex::new(HashSet::new()),
            membership: Mutex::new(membership),
            degraded: RwLock::new(DegradedMode::default()),
            backend: Arc::new(config.postings.clone()),
            replicas: 1,
            policy: HedgePolicy::default(),
            stats: RwLock::new(StatsState {
                stats: TermStats::from_documents(&docs),
                doc_terms: HashMap::new(),
            }),
            obs: RuntimeObs::new(),
            cache: ResultCache::new(CacheConfig::default()),
            epoch: AtomicU64::new(0),
        };
        let doc = Document::from_term_counts(DocId(900), GroupId(0), vec![(TermId(1), 1)]);
        assert!(matches!(
            search.insert_documents(0, &[doc]),
            Err(IngestError::Rejected { .. })
        ));
    }

    #[test]
    fn single_peer_is_valid_and_zero_peers_fail_fast() {
        let docs = corpus(20, 4);
        let single = ZerberConfig::default().with_peers(1);
        let search = ShardedSearch::launch(&single, &docs).unwrap();
        assert_eq!(
            search.query(&[TermId(1)], 3).unwrap().ranked,
            local_topk(&docs, &[TermId(1)], 3)
        );
        let zero = ZerberConfig::default().with_peers(0);
        assert!(ShardedSearch::launch(&zero, &docs).is_err());
    }

    #[test]
    fn launch_validates_the_segment_backend() {
        // An empty directory would put `peer-000-shard-000/` under the
        // process's working directory; a zero threshold wedges the
        // engine. Neither may get as far as opening a store.
        let docs = corpus(20, 4);
        let policy = zerber_index::SegmentPolicy::default();
        for (dir, compaction) in [
            (std::path::PathBuf::new(), policy),
            (
                std::path::PathBuf::from("/tmp/zerber-launch-never-created"),
                zerber_index::SegmentPolicy {
                    flush_postings: 0,
                    ..policy
                },
            ),
        ] {
            let config = ZerberConfig::default()
                .with_peers(2)
                .with_postings(PostingBackend::Segmented { dir, compaction });
            assert!(matches!(
                ShardedSearch::launch(&config, &docs),
                Err(ConfigError::InvalidSegmentPolicy { .. })
            ));
        }
        assert!(!std::path::Path::new("peer-000-shard-000").exists());
    }
}
