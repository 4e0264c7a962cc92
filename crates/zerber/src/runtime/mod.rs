//! The concurrent sharded peer runtime.
//!
//! The paper's deployment model (Section 5) is a set of *untrusted
//! peers*, each doing its own work: index servers hold share columns,
//! DHT peers hold fractions of the index (Section 3's future-work
//! direction), and clients talk to all of them over a network. This
//! module is that structure in two halves that meet only at a
//! [`Transport`]: the *peer side* — a [`PeerService`] behind an inbox,
//! hosted as a thread of a [`PeerRuntime`] or as a process behind
//! [`socket::serve_peer`] — and the *coordinator*, [`ShardedSearch`],
//! which drives whatever peers its transport reaches.
//! [`ShardedSearch::launch`] is "host the peers in this process, then
//! [`ShardedSearch::connect`]"; `connect` alone coordinates peers
//! somebody else runs. One module per seam, each owning one decision:
//!
//! | module | side | owns |
//! |---|---|---|
//! | this file | coordinator | [`ShardedSearch`]'s fields, `launch*` (host) and `connect` (the one place the struct is built), accessors — what a deployment *is* |
//! | `read` | coordinator | the ranked-read path: cache probe → hedged fan-out → fail closed on an unanswered shard → gather → one epilogue; the single-node references [`local_topk`] / [`local_planned`] |
//! | `write` | coordinator | the write fan-out: route → begin every shard → settle (retry, then taint) → account, for insert, bulk load and delete |
//! | `driver` | coordinator | membership and repair: heartbeat, kill / revive / repair, join / leave, the membership gauge — and the only two host-dependent steps (the table on [`ShardedSearch::connect`]) |
//! | `gather` | coordinator | the hedged fan-out (first live replica per shard wins, the dead are reported) and the threshold-bounded top-k merge, provably identical to single-node evaluation (`tests/sharded_topk.rs`) |
//! | `repair` | coordinator | the wire protocol of one shard shipment, the three install-frame shapes, the retry backoff |
//! | `placement` | coordinator | [`ShardMap`]: the document → shard hash table fixed at launch, and each shard's live home peer and successor replicas under join / leave |
//! | `membership`, `stats`, `obs` | coordinator | the Up / Suspect / Down table heartbeats feed; `TermStats` (the global IDF source) and the per-document registry that keeps it exact; [`RuntimeObs`], the per-deployment metrics and trace sinks |
//! | `service` | peer | what each frame does: [`ServerService`] (share-holding index server) and [`ShardService`], a (state × frame) decision table with one constructor, [`ShardService::for_peer`] |
//! | `shard` | peer | what sits around a shard's one store (`zerber_segment::SegmentStore`): wire ↔ `Document`, where a replica's files live, open-empty, install-and-reopen |
//! | `peer` | peer | how a service gets its frames: [`PeerService`], the one service loop, [`PeerRuntime`]'s threads and inboxes |
//! | `transport`, [`socket`] | between | the message-passing substrate: exact [`zerber_net::Message`] wire bytes, metered per link, a [`PendingReply`] per request — [`InProcTransport`], and [`socket::SocketTransport`] / [`socket::serve_peer`] over length-framed TCP |
//! | [`fault`] | between | the deterministic chaos harness: seeded drops, delays, duplicates, torn writes, kills |
//! | `handle` | share path | [`RuntimeHandle`], the share path's client stub |
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
//! [`ShardedSearch::query`] / `ShardedSearch::query_from` (the
//! uncached `Terms` read) and
//! [`ShardedSearch::query_shaped`] (the cached serving read) are both
//! thin entries over this one path.

mod driver;
pub mod fault;
mod gather;
mod handle;
mod membership;
mod obs;
mod peer;
mod placement;
mod read;
mod repair;
mod service;
mod shard;
pub mod socket;
mod stats;
pub(crate) mod transport;
mod write;

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use zerber_index::{Document, PostingBackend};
use zerber_net::{DocumentFrame, NodeId, TrafficMeter};
use zerber_query::{CacheConfig, ResultCache};

pub use fault::{ChaosAction, FaultInjectTransport, FaultPlan};
pub use gather::{AttemptOutcome, AttemptRecord, HedgePolicy, ShardUnavailable};
pub use handle::RuntimeHandle;
pub use membership::PeerStatus;
pub use obs::RuntimeObs;
pub use peer::{PeerRuntime, PeerService};
pub use placement::ShardMap;
pub use read::{local_planned, local_topk, QueryError, ShardedQueryOutcome};
pub use repair::{RepairError, RepairStats};
pub use service::{ServerService, ShardService};
pub use transport::{InProcTransport, PendingReply, Transport, TransportError};
pub use write::IngestError;

use crate::config::{ConfigError, ZerberConfig};
use membership::MembershipTable;
use stats::StatsState;

/// A concurrent, document-sharded top-k search deployment.
///
/// Documents are placed on `config.peers` peer threads by
/// [`ShardMap`]; each peer indexes its shard on its own
/// thread (parallel build) and serves
/// [`zerber_net::Message::PlanQuery`] with the planned evaluator over
/// snapshots of its segment store. `query` is `&self` and
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
/// use zerber_net::NodeId;
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
/// // …and the query's bytes were accounted for.
/// assert!(search.traffic().sent_by(NodeId::User(0)) > 0);
/// ```
pub struct ShardedSearch {
    /// The in-process peer threads of a *launched* deployment; `None`
    /// on a *connected* one, whose peers are somebody else's processes.
    /// Only [`ShardedSearch::kill_peer`] and the spawn step of
    /// `revive_peer` / `join_peer` look at it.
    host: Option<PeerRuntime>,
    /// The transport every read, write, probe and repair goes through:
    /// the host's own [`InProcTransport`], a wrapper around it
    /// ([`ShardedSearch::launch_with_transport`] — the chaos harness
    /// injects faults here without the peers knowing), or whatever
    /// [`ShardedSearch::connect`] was given.
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
    /// Where a host-spawned replacement peer keeps its stores (a
    /// connected deployment's peers bring their own).
    backend: PostingBackend,
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

impl ShardedSearch {
    /// Spawns one serving thread per ring position of `config`, each
    /// hosting its shards' stores empty, then bulk-loads `docs` through
    /// [`ShardedSearch::bulk_load`] — the one way a corpus enters a
    /// deployment, so a launched corpus is routed, replicated and
    /// accounted exactly like any later load. The load's frames count
    /// in [`ShardedSearch::traffic`] like any other.
    ///
    /// The plaintext sharded engine places no Shamir shares, so the
    /// only ring requirement is `peers ≥ 1` — a single-peer deployment
    /// is the legitimate scaling baseline. (The sharing invariants
    /// are `ZerberConfig::validate`'s, checked at
    /// `ZerberSystem::bootstrap`.) This engine is what
    /// `config.postings` places: every replica is a
    /// `zerber_segment::SegmentStore` in a `peer-<p>-shard-<s>`
    /// subdirectory created only for the shards that peer actually
    /// hosts, after `ZerberConfig::validate_storage` has accepted the
    /// setting. Under the default [`PostingBackend::Ephemeral`] the
    /// directories sit in per-peer scratch space that goes away with
    /// the peer; under [`PostingBackend::Segmented`] they are the
    /// caller's, and must be *fresh*: the global statistics start
    /// empty, so a shard peer panics rather than silently serve
    /// previously recovered state (reopen such stores with
    /// `zerber_segment::SegmentStore` directly).
    ///
    /// With `config.replication = R > 1`, every logical shard is also
    /// copied onto the `R - 1` successor peers of its home peer
    /// ([`ShardMap`]): writes fan to all copies, and
    /// queries hedge to a successor when a replica is slow or dead —
    /// any single peer can be lost without losing a shard.
    ///
    /// # Panics
    /// Panics, naming the shard, if a shard does not acknowledge its
    /// part of `docs`.
    pub fn launch(config: &ZerberConfig, docs: &[Document]) -> Result<Self, ConfigError> {
        Self::launch_with_transport(config, docs, |transport| transport)
    }

    /// [`ShardedSearch::launch`] with a transport wrapper: `wrap`
    /// receives the host's [`InProcTransport`] and returns the
    /// transport the *coordinator* will speak through. Peers always
    /// reply via the inner transport; only the client side is wrapped
    /// — which is exactly where the fault-injection harness
    /// ([`FaultInjectTransport`]) sits. `docs` loads through the inner
    /// transport before the wrapper is installed, so a wrapper sees
    /// only the requests made after launch.
    ///
    /// Launching is *host, then coordinate*: spawn one peer thread per
    /// ring position, each running [`ShardService::for_peer`], then
    /// [`ShardedSearch::connect`] to them and load `docs`.
    pub fn launch_with_transport<F>(
        config: &ZerberConfig,
        docs: &[Document],
        wrap: F,
    ) -> Result<Self, ConfigError>
    where
        F: FnOnce(Arc<InProcTransport>) -> Arc<dyn Transport>,
    {
        let (map, replicas) = Self::ring(config)?;
        config.validate_storage()?;
        let obs = RuntimeObs::new();
        let host = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let (opened, all_opened) = std::sync::mpsc::channel::<()>();
        for &peer in map.peer_ids() {
            let opened = opened.clone();
            let backend = config.postings.clone();
            let hosted = map.hosted_shards(peer, replicas);
            // One registry for the whole deployment: instruments
            // aggregate across peers.
            let registry = obs.registry().clone();
            // The initializer runs on the peer's thread: every hosted
            // replica store opens in parallel across all peers.
            host.spawn_peer(NodeId::IndexServer(peer), move || {
                let service = ShardService::for_peer(&backend, peer, hosted, false, &registry);
                drop(opened);
                service
            });
        }
        // A launched deployment is a serving one: wait until every peer
        // has let go of its handle (opened its stores, or died trying —
        // which its first request reports), so no first query hedges
        // around a peer that is still opening them.
        drop(opened);
        let _ = all_opened.recv();
        let inner = Arc::clone(host.transport());
        let mut search = Self::connect(config, Arc::clone(&inner) as Arc<dyn Transport>, obs)?;
        if let Err((shard, error)) = search.write_documents(0, docs, DocumentFrame::BulkLoad) {
            panic!("launch could not load shard {shard}: {error}");
        }
        search.transport = wrap(inner);
        search.host = Some(host);
        Ok(search)
    }

    /// The ring a configuration describes: its shard map and its
    /// replication degree, clamped to one copy per peer.
    fn ring(config: &ZerberConfig) -> Result<(ShardMap, u32), ConfigError> {
        if config.peers == 0 {
            return Err(ConfigError::NoPeers);
        }
        if config.replication == 0 {
            return Err(ConfigError::NoReplicas);
        }
        let replicas = (config.replication as u32).min(config.peers as u32);
        Ok((ShardMap::new(config.peers as u32), replicas))
    }

    /// Coordinates peers it did not spawn: `transport` already reaches
    /// one [`ShardService::for_peer`] per ring position of `config`
    /// (`NodeId::IndexServer(0..peers)`, hosting what
    /// `ShardMap::hosted_shards` says, under `config.replication`),
    /// every one of them empty — over TCP
    /// ([`socket::SocketTransport`] + [`socket::serve_peer`]) or any
    /// other [`Transport`]. Everything a deployment does besides
    /// running its peers is built here, once: shard map, global
    /// statistics (empty: only acknowledged writes move them), result
    /// cache, serving epoch, taint set, membership, hedge policy; `obs`
    /// receives the metrics and traces (hand the same registry to the
    /// transport to see both).
    ///
    /// Every read, every write, [`ShardedSearch::heartbeat`],
    /// [`ShardedSearch::repair_peer`] and the migration inside
    /// `join_peer` / `leave_peer` work as on a launched deployment.
    /// What differs is who runs the peers:
    ///
    /// | | launched (`launch*`) | connected (`connect`) |
    /// |---|---|---|
    /// | `kill_peer` | stops the peer's thread | no-op: the caller stops its process |
    /// | `revive_peer` | spawns the peer rebuilding, then repairs it | the caller has started it rebuilding and registered its address; repairs it |
    /// | `join_peer` | spawns the joiner rebuilding, then migrates | the caller has started the joiner rebuilding and registered its address; migrates |
    /// | `leave_peer` | migrates, then stops the leaver's thread | migrates; the caller stops the leaver |
    /// | `repair_peer` | re-ships every hosted shard | the same |
    pub fn connect(
        config: &ZerberConfig,
        transport: Arc<dyn Transport>,
        obs: RuntimeObs,
    ) -> Result<Self, ConfigError> {
        let (map, replicas) = Self::ring(config)?;
        let membership =
            MembershipTable::new(map.peer_ids().iter().map(|&p| NodeId::IndexServer(p)));
        let search = Self {
            host: None,
            transport,
            map: RwLock::new(map),
            transition: Mutex::new(None),
            tainted: Mutex::new(HashSet::new()),
            membership: Mutex::new(membership),
            backend: config.postings.clone(),
            replicas,
            policy: HedgePolicy::default(),
            stats: RwLock::new(StatsState::default()),
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

    /// A copy of the current serving shard → peer assignment.
    pub fn shard_map(&self) -> ShardMap {
        self.map.read().clone()
    }

    /// Copies of each shard (clamped to the peer count at launch).
    pub fn replication(&self) -> u32 {
        self.replicas
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

    /// Number of live documents across all shards.
    pub fn document_count(&self) -> usize {
        self.stats.read().stats.doc_count
    }

    /// The per-link wire-byte accounting for this deployment.
    pub fn traffic(&self) -> &Arc<TrafficMeter> {
        self.transport.meter()
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
    fn ephemeral_and_named_directories_serve_identically() {
        // Where the files live is a deployment setting, not an engine:
        // scratch space and a caller's directory serve the same bits.
        let docs = corpus(200, 9);
        let dir = zerber_segment::ScratchDir::new("sharded-backends-unit");
        let ephemeral = ZerberConfig::default().with_peers(4);
        let named = ephemeral.clone().with_postings(PostingBackend::Segmented {
            dir: dir.to_path_buf(),
            compaction: zerber_index::SegmentPolicy::default(),
        });
        assert_eq!(ephemeral.postings, PostingBackend::Ephemeral);
        let a = ShardedSearch::launch(&ephemeral, &docs).unwrap();
        let b = ShardedSearch::launch(&named, &docs).unwrap();
        let terms = [TermId(2), TermId(5)];
        assert_eq!(
            a.query(&terms, 15).unwrap().ranked,
            b.query(&terms, 15).unwrap().ranked
        );
        assert!(dir.join("peer-003-shard-003").is_dir());
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

    /// `usize::MAX` asks for every match: each shape returns exactly
    /// what the single-node reference does, and the gather reserves for
    /// the candidates it received, not for `k`.
    #[test]
    fn unbounded_k_returns_every_match_on_every_shape() {
        use zerber_query::{Forced, Query};
        let docs = corpus(60, 6);
        let search = ShardedSearch::launch(&ZerberConfig::default().with_peers(3), &docs).unwrap();
        let k = usize::MAX;
        let all = search.query(&[TermId(1)], k).unwrap();
        assert_eq!(all.ranked, local_topk(&docs, &[TermId(1)], k));
        let terms = vec![TermId(1), TermId(2)];
        for query in [
            Query::Terms {
                terms: terms.clone(),
                k,
            },
            Query::And {
                terms: terms.clone(),
                k,
            },
            Query::Phrase { terms, k },
        ] {
            let served = search.query_shaped(0, query.clone(), Forced::Auto).unwrap();
            assert!(!served.ranked.is_empty(), "{query:?}");
            assert_eq!(served.ranked, local_planned(&docs, &query), "{query:?}");
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
        let dir = zerber_segment::ScratchDir::new("sharded-mutation-unit");
        let backends = vec![
            PostingBackend::Ephemeral,
            PostingBackend::Segmented {
                dir: dir.to_path_buf(),
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
    }

    #[test]
    fn frozen_rejection_surfaces_as_ingest_error() {
        // A deployment whose peers refuse every write (here: none of
        // them hosts the shard a write is routed to) takes no
        // documents; the typed rejection must reach the caller.
        let config = ZerberConfig::default().with_peers(2);
        let host = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        for peer in 0..2u32 {
            host.spawn_peer(NodeId::IndexServer(peer), move || {
                // Logical shard 9 is outside the two-shard map.
                let registry = zerber_obs::MetricsRegistry::new();
                ShardService::for_peer(&PostingBackend::Ephemeral, peer, [9], true, &registry)
            });
        }
        let transport = Arc::clone(host.transport()) as Arc<dyn Transport>;
        let search = ShardedSearch::connect(&config, transport, RuntimeObs::new()).unwrap();
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

    /// A shard that cannot take its part of the corpus fails the launch
    /// in the caller, not on a peer thread behind an `Ok`: here the
    /// peer refuses to open a store that recovered a previous launch.
    #[test]
    #[should_panic(expected = "launch could not load shard 0")]
    fn a_launch_over_recovered_stores_panics_naming_the_shard() {
        let dir = zerber_segment::ScratchDir::new("sharded-recovered-unit");
        let backend = PostingBackend::Segmented {
            dir: dir.to_path_buf(),
            compaction: zerber_index::SegmentPolicy::default(),
        };
        let config = ZerberConfig::default().with_peers(1).with_postings(backend);
        let docs = corpus(20, 4);
        drop(ShardedSearch::launch(&config, &docs).unwrap());
        let _ = ShardedSearch::launch(&config, &docs);
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
