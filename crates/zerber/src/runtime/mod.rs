//! The concurrent sharded peer runtime.
//!
//! The paper's deployment model (Section 5) is a set of *untrusted
//! peers*, each doing its own work: index servers hold share columns,
//! DHT peers hold fractions of the index (Section 3's future-work
//! direction), and clients talk to all of them over a network. This
//! module makes that structure real inside one process. One module
//! per seam, each owning one decision:
//!
//! | module | owns |
//! |---|---|
//! | this file | [`ShardedSearch`]'s fields, `launch*`, accessors — what a deployment *is* |
//! | `read` | the ranked-read path: cache probe → hedged fan-out → degraded-mode decision → gather → one epilogue; the single-node references `local_topk` / `local_planned` |
//! | `write` | the write fan-out: route → begin every shard → settle (retry, then taint) → account, for insert, bulk load and delete |
//! | `driver` | membership and repair: heartbeat, kill / revive / repair, join / leave, the membership gauge |
//! | `stats` | [`TermStats`] (the global IDF source) and the per-document registry that keeps it exact |
//! | [`repair`] | the wire protocol of one shard shipment ([`rebuild_shard`]), the three install-frame shapes, [`Backoff`] |
//! | [`service`] | what each frame does: [`ServerService`] (share-holding index server) and [`ShardService`], a (state × frame) decision table |
//! | [`peer`] | how a service gets its frames: [`PeerService`], the one service loop, [`PeerRuntime`]'s threads and inboxes |
//! | [`transport`] | the message-passing substrate: exact [`zerber_net::Message`] wire bytes, metered per link, a [`transport::PendingReply`] per request ([`InProcTransport`]; [`socket::SocketTransport`] over length-framed TCP) |
//! | [`gather`] | [`gather::hedged_fan_out`] (first live replica per shard wins, the dead are reported) and the threshold-bounded top-k merge, provably identical to single-node evaluation (`tests/sharded_topk.rs`) |
//! | [`fault`] | the deterministic chaos harness: seeded drops, delays, duplicates, torn writes, kills |
//! | [`membership`] | the Up / Suspect / Down table heartbeats feed |
//! | [`shard`] | [`ShardStore`] and its two backends |
//! | [`handle`], [`obs`] | the share path's client stub; the per-deployment metrics and trace sinks |
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

mod driver;
pub mod fault;
pub mod gather;
pub mod handle;
pub mod membership;
pub mod obs;
pub mod peer;
mod read;
pub mod repair;
pub mod service;
pub mod shard;
pub mod socket;
mod stats;
pub mod transport;
mod write;

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use zerber_dht::ShardMap;
use zerber_index::{Document, PostingBackend};
use zerber_net::{NodeId, TrafficMeter};
use zerber_query::{CacheConfig, ResultCache};

pub use fault::{ChaosAction, FaultInjectTransport, FaultPlan};
pub use gather::{
    gather_topk, gather_topk_with, hedged_fan_out, AttemptOutcome, AttemptRecord, GatherOutcome,
    GatherScratch, HedgePolicy, ShardAnswer, ShardFetch, ShardUnavailable,
};
pub use handle::RuntimeHandle;
pub use membership::{MembershipTable, PeerStatus};
pub use obs::RuntimeObs;
pub use peer::{PeerRuntime, PeerService};
pub use read::{
    local_planned, local_topk, traced_topk_fanout, DegradedMode, QueryError, ShardedQueryOutcome,
};
pub use repair::{rebuild_shard, Backoff, RepairError, RepairStats};
pub use service::{RestoreFn, ServerService, ShardService};
pub use shard::{
    build_shard_store, build_shard_store_observed, restore_shard_store, ShardStore, ShardStoreError,
};
pub use stats::TermStats;
pub use transport::{InProcTransport, PendingReply, Transport, TransportError};
pub use write::IngestError;

use crate::config::{ConfigError, ZerberConfig};
use stats::StatsState;

/// A concurrent, document-sharded top-k search deployment.
///
/// Documents are placed on `config.peers` peer threads by the
/// consistent-hash ring; each peer indexes its shard on its own
/// thread (parallel build) and serves
/// [`zerber_net::Message::PlanQuery`] with the planned evaluator over
/// the configured
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

/// The snapshot-restore factory one peer's [`ShardService`] uses to
/// become a rebuild target: installed files build a fresh store on the
/// peer's own backend (and, for the segmented engine, in the peer's
/// own replica directory).
fn restore_factory(backend: Arc<PostingBackend>, peer: u32) -> RestoreFn {
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
    /// is the legitimate scaling baseline. (The sharing invariants
    /// are [`ZerberConfig::validate`]'s, checked at
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
        let search = Self {
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
            stats: RwLock::new(StatsState::from_documents(docs)),
            obs,
            cache: ResultCache::new(CacheConfig::default()),
            epoch: AtomicU64::new(0),
        };
        search.update_membership(|_| ());
        Ok(search)
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

    /// The current serving epoch (the cache-key component writes bump).
    pub fn serving_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The epoch-keyed result cache behind
    /// [`ShardedSearch::query_shaped`].
    pub fn result_cache(&self) -> &ResultCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use zerber_index::{DocId, GroupId, TermId};

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
