//! Peer threads and the services they run.
//!
//! A *peer* is one OS thread with an inbox on the
//! [`InProcTransport`]. The thread
//! decodes each request from its wire bytes, hands it to its
//! [`PeerService`], and replies with the encoded response. Two
//! services exist:
//!
//! * [`ServerService`] hosts a share-holding
//!   [`IndexServer`] — the paper's index-server role
//!   (insert/delete/lookup, Section 5), now executing off the caller's
//!   thread;
//! * [`ShardService`] hosts the *document shards* this peer carries —
//!   its own shard plus, under replication, copies of its
//!   predecessors' — behind the [`ShardStore`] trait, and answers
//!   [`Message::PlanQuery`] with the addressed shard's planned top-k.
//!
//! Service state is built *inside* the peer thread (the spawn takes an
//! initializer closure), so expensive shard construction — tokenizing,
//! compressing posting blocks — runs on all peers in parallel and the
//! state never needs to be `Send`.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use zerber_index::cursor::TopKScratch;
use zerber_index::{DocId, Document, GroupId};
use zerber_net::framing::crc32;
use zerber_net::message::fault;
use zerber_net::{AuthToken, Message, NodeId, TrafficMeter, WireDocument};
use zerber_server::{IndexServer, ServerError};

use crate::runtime::shard::{ShardStore, ShardStoreError};
use crate::runtime::transport::{InProcTransport, PeerInbox};

/// One peer's request handler. `handle` runs on the peer's own thread;
/// requests from concurrent clients are serialized per peer.
pub trait PeerService {
    /// Produces the response for one decoded request.
    fn handle(&mut self, from: NodeId, auth: AuthToken, request: Message) -> Message;
}

/// Translates a server-side rejection into its wire fault frame
/// (the mapping itself lives with [`ServerError`]).
fn fault_of(error: ServerError) -> Message {
    let (code, group) = error.to_fault();
    Message::Fault { code, group }
}

/// The index-server role as a peer service: the narrow
/// insert/delete/lookup interface, driven by decoded wire messages.
pub struct ServerService {
    server: Arc<IndexServer>,
}

impl ServerService {
    /// Wraps a server. The `Arc` is shared with the control plane
    /// (membership administration, proactive refresh, adversary
    /// views), which stays direct — only the data plane crosses the
    /// transport.
    pub fn new(server: Arc<IndexServer>) -> Self {
        Self { server }
    }
}

impl PeerService for ServerService {
    fn handle(&mut self, _from: NodeId, auth: AuthToken, request: Message) -> Message {
        match request {
            Message::InsertBatch { entries } => match self.server.insert_batch(auth, &entries) {
                Ok(()) => Message::InsertOk,
                Err(e) => fault_of(e),
            },
            Message::Delete { elements } => match self.server.delete(auth, &elements) {
                Ok(removed) => Message::DeleteOk {
                    removed: removed as u64,
                },
                Err(e) => fault_of(e),
            },
            // Queries carry their token in the message body (the wire
            // format of Section 5.4.2); the envelope token is the same
            // session token and is ignored here.
            Message::Query { auth, pl_ids } => match self.server.get_posting_lists(auth, &pl_ids) {
                Ok(lists) => Message::QueryResponse { lists },
                Err(e) => fault_of(e),
            },
            _ => Message::Fault {
                code: fault::UNSUPPORTED,
                group: GroupId(0),
            },
        }
    }
}

/// The document shards one peer hosts: ranked reads plus the live
/// write stream, each request addressed to a logical shard by id.
///
/// Without replication a peer hosts exactly its own shard; with
/// `R`-fold replication it also carries copies of its `R - 1`
/// predecessors' shards (see `zerber_dht::ShardMap::hosted_shards`),
/// and the `shard` field on [`Message::PlanQuery`] /
/// [`Message::IndexDocs`] / [`Message::RemoveDoc`] selects which
/// store serves the request. A request addressed to a shard this peer
/// does not host bounces as an `UNSUPPORTED` fault — reported, never
/// silently misrouted.
///
/// Queries run [`ShardStore::query_planned`] — the planner-chosen
/// evaluator over the backend's lazy
/// [`zerber_index::PostingStore::query_cursors`], so the compressed
/// and segmented backends peek their stored block-max skip metadata
/// and only decompress blocks that survive the upper-bound test. The
/// service owns the [`TopKScratch`] (every evaluator's top-k collector), reused
/// across every RPC this peer serves. [`Message::IndexDocs`] and
/// [`Message::RemoveDoc`] mutate the addressed shard; a durable shard
/// that fails to persist answers `STORAGE`.
///
/// # No access control
///
/// Unlike the share path (where [`ServerService`] authenticates every
/// request and filters by group ACL), a shard peer serves its whole
/// collection to any caller and ignores the session token: it models
/// the *plaintext baseline* serving engine, where confidentiality is
/// out of scope and scale is the subject. Do not put
/// access-controlled collections behind it.
pub struct ShardService {
    /// The stores this peer hosts, by logical shard id.
    stores: HashMap<u32, HostedShard>,
    /// Per-peer reusable query scratch (the top-k heap), shared
    /// across all hosted stores (requests are serialized per peer).
    scratch: TopKScratch,
    /// Frozen snapshots awaiting [`Message::FetchSegment`] pulls, per
    /// shard (this peer acting as a rebuild *source*). Replaced by the
    /// next [`Message::PrepareSnapshot`] for the same shard.
    pending_snapshot: HashMap<u32, Vec<(String, Vec<u8>)>>,
    /// Builds a shard store from installed snapshot files (this peer
    /// acting as a rebuild *target*). Services launched without one
    /// answer [`Message::InstallShard`] commits with `UNSUPPORTED`.
    restore: Option<RestoreFn>,
    /// `zerber_peer_postings_scored_total`: candidates this peer's
    /// evaluators fully scored. Counted here, not by the querying
    /// client like the block counts beside it — the number never
    /// travels in `TopKResponse`.
    postings_scored: Option<zerber_obs::Counter>,
}

/// Builds a shard store from a shipped snapshot: `(shard, files)` →
/// store. Runs on the peer's own thread (it is handed to the service
/// inside the spawn initializer), so it needs no `Send` bound of its
/// own.
pub type RestoreFn =
    Box<dyn FnMut(u32, &[(String, Vec<u8>)]) -> Result<Box<dyn ShardStore>, ShardStoreError>>;

/// One write frame buffered while its shard rebuilds, replayed in
/// arrival order at commit. Replay is idempotent — a write that also
/// made the shipped snapshot re-applies as a same-bytes replacement
/// (doc-level shadowing), so the buffer may safely overlap the
/// snapshot.
enum BufferedWrite {
    /// A live [`Message::IndexDocs`] batch.
    Insert(Vec<Document>),
    /// An offline [`Message::BulkLoad`] batch.
    Bulk(Vec<Document>),
    /// A [`Message::RemoveDoc`].
    Remove(DocId),
}

/// The serving state of one hosted shard.
enum HostedShard {
    /// Normal operation: reads and writes hit the store directly.
    Serving(Box<dyn ShardStore>),
    /// Mid-rebuild: snapshot files stage here, reads bounce with
    /// [`fault::REBUILDING`] (the hedged gather fails over to a live
    /// replica), and writes are acknowledged into the replay buffer so
    /// the cluster-wide all-replicas-ack write discipline keeps
    /// working while the copy is shipped.
    Rebuilding {
        staged: Vec<(String, Vec<u8>)>,
        buffered: Vec<BufferedWrite>,
    },
}

/// Validates and converts one wire document. Wire input is untrusted:
/// unsorted or duplicate terms would violate `Document`'s invariant
/// (and panic deep in the index), so they bounce as `MALFORMED`.
fn decode_document(wire: WireDocument) -> Option<Document> {
    if !wire.terms.windows(2).all(|w| w[0].0 < w[1].0) {
        return None;
    }
    Some(Document {
        id: wire.doc,
        group: wire.group,
        terms: wire.terms,
        length: wire.length,
    })
}

fn shard_fault(error: ShardStoreError) -> Message {
    Message::Fault {
        code: match error {
            ShardStoreError::Storage(_) => fault::STORAGE,
        },
        group: GroupId(0),
    }
}

impl ShardService {
    /// Serves a single store as logical shard 0 (the unreplicated
    /// deployment shape).
    pub fn new(shard: Box<dyn ShardStore>) -> Self {
        Self::hosting(std::iter::once((0, shard)))
    }

    /// Serves several shard stores, each addressed by its logical
    /// shard id.
    pub fn hosting(stores: impl IntoIterator<Item = (u32, Box<dyn ShardStore>)>) -> Self {
        Self {
            stores: stores
                .into_iter()
                .map(|(shard, store)| (shard, HostedShard::Serving(store)))
                .collect(),
            scratch: TopKScratch::new(),
            pending_snapshot: HashMap::new(),
            restore: None,
            postings_scored: None,
        }
    }

    /// A service whose every hosted shard starts mid-rebuild: writes
    /// buffer from the first request, reads bounce with
    /// [`fault::REBUILDING`]. This is the *revived replica* launch
    /// shape — a peer respawned after a kill must never serve the
    /// stale (or empty) state it woke up with; it buffers until the
    /// repair controller ships it a snapshot and commits.
    pub fn rebuilding(shards: impl IntoIterator<Item = u32>) -> Self {
        Self {
            stores: shards
                .into_iter()
                .map(|shard| {
                    (
                        shard,
                        HostedShard::Rebuilding {
                            staged: Vec::new(),
                            buffered: Vec::new(),
                        },
                    )
                })
                .collect(),
            scratch: TopKScratch::new(),
            pending_snapshot: HashMap::new(),
            restore: None,
            postings_scored: None,
        }
    }

    /// Installs the snapshot-restore factory, enabling this service to
    /// be a rebuild *target* (see [`Message::InstallShard`]).
    /// Builder-style.
    pub fn with_restore(mut self, restore: RestoreFn) -> Self {
        self.restore = Some(restore);
        self
    }

    /// Counts this peer's scored postings into `registry`
    /// (`zerber_peer_postings_scored_total`). Builder-style.
    pub fn observed(mut self, registry: &zerber_obs::MetricsRegistry) -> Self {
        self.postings_scored = Some(registry.counter("zerber_peer_postings_scored_total"));
        self
    }
}

impl PeerService for ShardService {
    fn handle(&mut self, _from: NodeId, _auth: AuthToken, request: Message) -> Message {
        let malformed = Message::Fault {
            code: fault::MALFORMED,
            group: GroupId(0),
        };
        let not_hosted = Message::Fault {
            code: fault::UNSUPPORTED,
            group: GroupId(0),
        };
        let rebuilding = Message::Fault {
            code: fault::REBUILDING,
            group: GroupId(0),
        };
        let repair_fault = Message::Fault {
            code: fault::REPAIR,
            group: GroupId(0),
        };
        // Captured before the match consumes `request`: IndexDocs and
        // BulkLoad share one arm and differ only in the write path.
        let offline = matches!(request, Message::BulkLoad { .. });
        match request {
            Message::PlanQuery {
                shard,
                shape,
                forced,
                terms,
                k,
            } => {
                // Wire input is untrusted (the transport is designed
                // to be swappable for sockets): a NaN weight would
                // panic this thread inside the result ordering, and a
                // negative one would turn the block maxima into lower
                // bounds and silently corrupt the pruning. Reject both
                // as malformed — and likewise the two raw bytes the
                // planner consumes: an unknown shape or override is
                // malformed, not a panic.
                if terms
                    .iter()
                    .any(|&(_, weight)| !weight.is_finite() || weight < 0.0)
                {
                    return malformed;
                }
                let (Some(shape), Some(forced)) = (
                    zerber_query::QueryShape::from_u8(shape),
                    zerber_query::Forced::from_u8(forced),
                ) else {
                    return malformed;
                };
                let store = match self.stores.get_mut(&shard) {
                    Some(HostedShard::Serving(store)) => store,
                    Some(HostedShard::Rebuilding { .. }) => return rebuilding,
                    None => return not_hosted,
                };
                // Time the shard-local evaluation and ship the decode
                // accounting back with the candidates: the querying
                // client assembles its trace (and folds the counters
                // into *its* registry) from the response alone, so
                // in-process and remote socket peers report
                // identically.
                let started = std::time::Instant::now();
                let outcome =
                    store.query_planned(shape, &terms, k as usize, forced, &mut self.scratch);
                if let Some(scored) = &self.postings_scored {
                    scored.add(outcome.cost.postings_scored);
                }
                Message::TopKResponse {
                    decode_ns: started.elapsed().as_nanos() as u64,
                    blocks_decoded: outcome.cost.blocks_decoded as u32,
                    blocks_total: outcome.cost.blocks_total as u32,
                    candidates: outcome.ranked.iter().map(|r| (r.doc, r.score)).collect(),
                }
            }
            Message::IndexDocs { shard, docs } | Message::BulkLoad { shard, docs } => {
                let mut decoded = Vec::with_capacity(docs.len());
                for wire in docs {
                    match decode_document(wire) {
                        Some(doc) => decoded.push(doc),
                        None => return malformed,
                    }
                }
                match self.stores.get_mut(&shard) {
                    Some(HostedShard::Serving(store)) => {
                        let written = if offline {
                            store.bulk_load_documents(&decoded)
                        } else {
                            store.insert_documents(&decoded)
                        };
                        match written {
                            Ok(_) => Message::InsertOk,
                            Err(e) => shard_fault(e),
                        }
                    }
                    Some(HostedShard::Rebuilding { buffered, .. }) => {
                        // Acknowledge into the replay buffer: the
                        // cluster-wide all-replicas-ack discipline keeps
                        // committing while this copy is shipped, and the
                        // buffer replays (idempotently) at commit.
                        buffered.push(if offline {
                            BufferedWrite::Bulk(decoded)
                        } else {
                            BufferedWrite::Insert(decoded)
                        });
                        Message::InsertOk
                    }
                    None => not_hosted,
                }
            }
            Message::RemoveDoc { shard, doc } => {
                match self.stores.get_mut(&shard) {
                    Some(HostedShard::Serving(store)) => match store.delete_document(doc) {
                        Ok(removed) => Message::DeleteOk {
                            removed: u64::from(removed),
                        },
                        Err(e) => shard_fault(e),
                    },
                    Some(HostedShard::Rebuilding { buffered, .. }) => {
                        // `removed: 0` — this copy cannot know whether the
                        // doc exists; a live replica's count wins at the
                        // coordinator.
                        buffered.push(BufferedWrite::Remove(doc));
                        Message::DeleteOk { removed: 0 }
                    }
                    None => not_hosted,
                }
            }
            Message::PrepareSnapshot { shard } => {
                // Rebuild *source* side: freeze a consistent file-set
                // snapshot of the shard and advertise it. The files are
                // cached whole until the next PrepareSnapshot for the
                // same shard, so FetchSegment pulls are repeatable.
                let store = match self.stores.get_mut(&shard) {
                    Some(HostedShard::Serving(store)) => store,
                    Some(HostedShard::Rebuilding { .. }) => return rebuilding,
                    None => return not_hosted,
                };
                match store.export_snapshot() {
                    Ok((epoch, files)) => {
                        let manifest = files
                            .iter()
                            .map(|(name, bytes)| (name.clone(), bytes.len() as u64, crc32(bytes)))
                            .collect();
                        self.pending_snapshot.insert(shard, files);
                        Message::SnapshotManifest {
                            shard,
                            epoch,
                            files: manifest,
                        }
                    }
                    Err(e) => shard_fault(e),
                }
            }
            Message::FetchSegment { shard, name } => {
                let Some(files) = self.pending_snapshot.get(&shard) else {
                    return repair_fault;
                };
                match files.iter().find(|(n, _)| *n == name) {
                    Some((_, bytes)) => Message::SegmentData {
                        crc: crc32(bytes),
                        payload: zerber_net::Bytes::copy_from_slice(bytes),
                    },
                    None => repair_fault,
                }
            }
            Message::InstallShard {
                shard,
                name,
                crc,
                commit,
                payload,
                ..
            } => {
                // Rebuild *target* side. Three frame shapes:
                //   begin  — empty name, commit=false: enter Rebuilding
                //            (writes start buffering *before* the source
                //            snapshots, so no write can fall between),
                //   file   — named, commit=false: stage one CRC-checked
                //            snapshot file,
                //   commit — commit=true: restore a store from the staged
                //            files, replay the buffer, cut over.
                if !commit && name.is_empty() {
                    match self.stores.entry(shard) {
                        std::collections::hash_map::Entry::Occupied(mut slot) => {
                            match slot.get_mut() {
                                // Restart of a failed ship: keep the
                                // buffered writes (they are still owed),
                                // drop stale staged files.
                                HostedShard::Rebuilding { staged, .. } => staged.clear(),
                                serving => {
                                    *serving = HostedShard::Rebuilding {
                                        staged: Vec::new(),
                                        buffered: Vec::new(),
                                    };
                                }
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(slot) => {
                            // A shard this peer is *gaining* (join
                            // rebalance): host it, buffering from now.
                            slot.insert(HostedShard::Rebuilding {
                                staged: Vec::new(),
                                buffered: Vec::new(),
                            });
                        }
                    }
                    return Message::InsertOk;
                }
                if !commit {
                    if crc32(&payload) != crc {
                        return repair_fault;
                    }
                    return match self.stores.get_mut(&shard) {
                        Some(HostedShard::Rebuilding { staged, .. }) => {
                            staged.push((name, payload.to_vec()));
                            Message::InsertOk
                        }
                        // File frame without a begin: protocol error.
                        _ => repair_fault,
                    };
                }
                let Some(restore) = self.restore.as_mut() else {
                    return not_hosted;
                };
                let (staged, buffered) = match self.stores.remove(&shard) {
                    Some(HostedShard::Rebuilding { staged, buffered }) => (staged, buffered),
                    // Commit without a begin (or on a serving shard):
                    // protocol error, and the serving store must stay.
                    Some(serving) => {
                        self.stores.insert(shard, serving);
                        return repair_fault;
                    }
                    None => return repair_fault,
                };
                let mut store = match restore(shard, &staged) {
                    Ok(store) => store,
                    Err(_) => {
                        // Keep the owed writes; the controller re-ships.
                        self.stores.insert(
                            shard,
                            HostedShard::Rebuilding {
                                staged: Vec::new(),
                                buffered,
                            },
                        );
                        return repair_fault;
                    }
                };
                for write in buffered {
                    let applied = match write {
                        BufferedWrite::Insert(docs) => store.insert_documents(&docs).map(|_| ()),
                        BufferedWrite::Bulk(docs) => store.bulk_load_documents(&docs).map(|_| ()),
                        BufferedWrite::Remove(doc) => store.delete_document(doc).map(|_| ()),
                    };
                    if let Err(e) = applied {
                        // Never serve a possibly-diverged store: drop it
                        // and stay rebuilding (the controller restarts the
                        // whole ship, which re-captures these writes in
                        // its fresh snapshot).
                        self.stores.insert(
                            shard,
                            HostedShard::Rebuilding {
                                staged: Vec::new(),
                                buffered: Vec::new(),
                            },
                        );
                        return shard_fault(e);
                    }
                }
                self.stores.insert(shard, HostedShard::Serving(store));
                Message::InsertOk
            }
            _ => not_hosted,
        }
    }
}

/// A set of peer threads sharing one transport. Dropping the runtime
/// shuts every peer down and joins its thread.
///
/// The peer list is interior-mutable so repair — reviving a killed
/// peer, spawning a joining one — works through the `&self` handles
/// the query path already shares (e.g. a bench thread measuring
/// availability while the repair controller respawns a peer).
pub struct PeerRuntime {
    transport: Arc<InProcTransport>,
    peers: Mutex<Vec<(NodeId, thread::JoinHandle<()>)>>,
}

impl PeerRuntime {
    /// An empty runtime accounting traffic on `meter`.
    pub fn new(meter: Arc<TrafficMeter>) -> Self {
        Self {
            transport: Arc::new(InProcTransport::new(meter)),
            peers: Mutex::new(Vec::new()),
        }
    }

    /// The shared transport (clone the `Arc` into client handles).
    pub fn transport(&self) -> &Arc<InProcTransport> {
        &self.transport
    }

    /// Addresses of all spawned peers, in spawn order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.peers.lock().iter().map(|(node, _)| *node).collect()
    }

    /// Number of live peers.
    pub fn peer_count(&self) -> usize {
        self.peers.lock().len()
    }

    /// Spawns one peer thread at `node`. `init` runs *on the new
    /// thread* to build the service state, so per-peer construction
    /// (e.g. indexing a document shard) parallelizes across peers.
    ///
    /// Respawning a node that was previously shut down re-registers
    /// its inbox — this is the *revive* path of the repair protocol.
    pub fn spawn_peer<F, S>(&self, node: NodeId, init: F)
    where
        F: FnOnce() -> S + Send + 'static,
        S: PeerService + 'static,
    {
        let (inbox, requests) = mpsc::channel();
        self.transport.register(node, inbox);
        let handle = thread::spawn(move || {
            let mut service = init();
            // Ends on an explicit `Shutdown` or when every sender is
            // dropped.
            while let Some(PeerInbox::Request(envelope)) = next_message(&requests) {
                let response = match Message::decode(&envelope.payload) {
                    // Liveness probes are answered by the peer *loop*,
                    // not the service: any service type is probeable,
                    // and a Pong proves the thread itself is draining
                    // its inbox.
                    Ok(Message::Ping) => Message::Pong,
                    Ok(request) => service.handle(envelope.from, envelope.auth, request),
                    Err(_) => Message::Fault {
                        code: fault::MALFORMED,
                        group: GroupId(0),
                    },
                };
                envelope.reply.send(response.encode().to_vec());
            }
        });
        self.peers.lock().push((node, handle));
    }
}

/// How long an idle peer polls its inbox before it parks.
///
/// In a request/response loop the next request follows a reply within
/// tens of microseconds. A peer that parks in that gap is re-placed by
/// the scheduler on every wake-up, and with more runnable threads than
/// cores (two peers and their coordinator on two cores) the placement
/// regularly stacks both peers on one core while the other idles, for
/// stretches of sub-millisecond queries too short for the load balancer
/// to notice — measured on the repo benchmark as a quarter of all
/// queries evaluated serially and a run-to-run throughput spread of
/// 10 %. Polling through the gap keeps a busy peer on its core; a peer
/// with nothing to do parks after this long and costs nothing.
const INBOX_SPIN: Duration = Duration::from_micros(50);

/// The next inbox message: polled for [`INBOX_SPIN`], then awaited
/// blocking. `None` once every sender is gone.
fn next_message(requests: &mpsc::Receiver<PeerInbox>) -> Option<PeerInbox> {
    let parked_at = Instant::now() + INBOX_SPIN;
    loop {
        match requests.try_recv() {
            Ok(message) => return Some(message),
            Err(mpsc::TryRecvError::Disconnected) => return None,
            Err(mpsc::TryRecvError::Empty) => {}
        }
        if Instant::now() >= parked_at {
            return requests.recv().ok();
        }
        std::hint::spin_loop();
    }
}

impl Drop for PeerRuntime {
    fn drop(&mut self) {
        let mut peers = self.peers.lock();
        for (node, _) in peers.iter() {
            self.transport.shutdown(*node);
        }
        for (_, handle) in peers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::shard::LiveIndexShard;
    use crate::runtime::transport::Transport;
    use zerber_field::Fp;
    use zerber_index::{DocId, Document, TermId, UserId};
    use zerber_server::TokenAuth;

    /// A single-term disjunctive ranked read, pinned to block-max TA.
    fn topk_query(shard: u32, term: u32, weight: f64, k: u32) -> Message {
        Message::PlanQuery {
            shard,
            shape: 0,
            forced: 1,
            terms: vec![(TermId(term), weight)],
            k,
        }
    }

    fn live_shard(docs: &[Document]) -> ShardService {
        ShardService::new(Box::new(LiveIndexShard::new(docs)))
    }

    /// The inbox hands over a message whether it lands while the peer
    /// still polls or after it parked, and ends when the senders do.
    #[test]
    fn inbox_delivers_during_the_poll_and_after_parking() {
        let (inbox, requests) = mpsc::channel();
        inbox.send(PeerInbox::Shutdown).unwrap();
        assert!(matches!(next_message(&requests), Some(PeerInbox::Shutdown)));

        let late = thread::spawn(move || {
            thread::sleep(INBOX_SPIN * 40);
            inbox.send(PeerInbox::Shutdown).unwrap();
            // `inbox` drops here: the channel disconnects.
        });
        assert!(matches!(next_message(&requests), Some(PeerInbox::Shutdown)));
        late.join().unwrap();
        assert!(next_message(&requests).is_none());
    }

    #[test]
    fn server_peer_answers_over_the_wire() {
        let auth = Arc::new(TokenAuth::new());
        let server = Arc::new(IndexServer::new(0, Fp::new(5), auth.clone()));
        server.add_user_to_group(UserId(1), GroupId(0));
        let token = auth.issue(UserId(1));

        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let node = NodeId::IndexServer(0);
        runtime.spawn_peer(node, move || ServerService::new(server));
        let transport = runtime.transport().clone();

        let share = zerber_net::StoredShare {
            element: zerber_core::ElementId(1),
            group: GroupId(0),
            share: Fp::new(9),
        };
        let insert = Message::InsertBatch {
            entries: vec![(zerber_core::PlId(0), share)],
        };
        let response = transport
            .request(NodeId::Owner(0), node, token, &insert)
            .unwrap();
        assert_eq!(response, Message::InsertOk);

        let query = Message::Query {
            auth: token,
            pl_ids: vec![zerber_core::PlId(0)],
        };
        match transport
            .request(NodeId::User(1), node, token, &query)
            .unwrap()
        {
            Message::QueryResponse { lists } => assert_eq!(lists[0].1.len(), 1),
            other => panic!("unexpected response {other:?}"),
        }

        // An unauthenticated token comes back as a typed fault.
        match transport
            .request(NodeId::Owner(0), node, AuthToken(999), &insert)
            .unwrap()
        {
            Message::Fault { code, group } => {
                assert_eq!(
                    ServerError::from_fault(code, group),
                    Some(ServerError::AuthFailed)
                );
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn shard_peer_ranks_its_documents() {
        let docs: Vec<Document> = (1..=3u32)
            .map(|d| Document::from_term_counts(DocId(d), GroupId(0), vec![(TermId(1), d)]))
            .collect();
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let node = NodeId::IndexServer(0);
        runtime.spawn_peer(node, move || live_shard(&docs));

        let query = topk_query(0, 1, 1.0, 2);
        match runtime
            .transport()
            .request(NodeId::User(0), node, AuthToken(0), &query)
            .unwrap()
        {
            Message::TopKResponse { candidates, .. } => {
                assert_eq!(candidates.len(), 2);
                // All three docs have length d, so tf = count/length = 1
                // everywhere and ties break by doc id.
                assert_eq!(candidates[0].0, DocId(1));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn hostile_weights_are_rejected_not_served() {
        let docs = vec![Document::from_term_counts(DocId(1), GroupId(0), vec![(TermId(1), 1)]); 1];
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let node = NodeId::IndexServer(0);
        runtime.spawn_peer(node, move || live_shard(&docs));
        let unknown_bytes = |shape, forced| Message::PlanQuery {
            shard: 0,
            shape,
            forced,
            terms: vec![(TermId(1), 1.0)],
            k: 1,
        };
        for (query, expected) in [
            (topk_query(0, 1, f64::NAN, 1), fault::MALFORMED),
            (topk_query(0, 1, f64::INFINITY, 1), fault::MALFORMED),
            (topk_query(0, 1, -1.0, 1), fault::MALFORMED),
            (unknown_bytes(3, 0), fault::MALFORMED),
            (unknown_bytes(0, 3), fault::MALFORMED),
            // A shard this peer does not host: reported, not misrouted.
            (topk_query(7, 1, 1.0, 1), fault::UNSUPPORTED),
        ] {
            match runtime
                .transport()
                .request(NodeId::User(0), node, AuthToken(0), &query)
                .unwrap()
            {
                Message::Fault { code, .. } => assert_eq!(code, expected, "{query:?}"),
                other => panic!("{query:?} produced {other:?}"),
            }
        }
        // The peer survived and still serves valid queries.
        let ok = topk_query(0, 1, 1.0, 1);
        match runtime
            .transport()
            .request(NodeId::User(0), node, AuthToken(0), &ok)
            .unwrap()
        {
            Message::TopKResponse { candidates, .. } => assert_eq!(candidates.len(), 1),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn wrong_request_type_is_a_typed_fault() {
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let node = NodeId::IndexServer(0);
        runtime.spawn_peer(node, || live_shard(&[]));
        match runtime
            .transport()
            .request(NodeId::User(0), node, AuthToken(0), &Message::InsertOk)
            .unwrap()
        {
            Message::Fault { code, .. } => assert_eq!(code, fault::UNSUPPORTED),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn unhosted_shards_fault_on_mutation_frames() {
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let node = NodeId::IndexServer(0);
        runtime.spawn_peer(node, || live_shard(&[]));
        let insert = Message::IndexDocs {
            shard: 5,
            docs: vec![wire_doc(1, 0, 1)],
        };
        for request in [
            insert,
            Message::RemoveDoc {
                shard: 5,
                doc: DocId(1),
            },
        ] {
            match runtime
                .transport()
                .request(NodeId::Owner(0), node, AuthToken(0), &request)
                .unwrap()
            {
                Message::Fault { code, .. } => assert_eq!(code, fault::UNSUPPORTED),
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    #[test]
    fn mutable_shard_takes_inserts_and_deletes_over_the_wire() {
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let node = NodeId::IndexServer(0);
        runtime.spawn_peer(node, || live_shard(&[]));
        let transport = runtime.transport().clone();
        let insert = Message::IndexDocs {
            shard: 0,
            docs: vec![zerber_net::WireDocument {
                doc: DocId(4),
                group: GroupId(0),
                length: 3,
                terms: vec![(TermId(2), 3)],
            }],
        };
        assert_eq!(
            transport
                .request(NodeId::Owner(0), node, AuthToken(0), &insert)
                .unwrap(),
            Message::InsertOk
        );
        let query = topk_query(0, 2, 1.0, 5);
        match transport
            .request(NodeId::User(0), node, AuthToken(0), &query)
            .unwrap()
        {
            Message::TopKResponse { candidates, .. } => {
                assert_eq!(candidates.len(), 1);
                assert_eq!(candidates[0].0, DocId(4));
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(
            transport
                .request(
                    NodeId::Owner(0),
                    node,
                    AuthToken(0),
                    &Message::RemoveDoc {
                        shard: 0,
                        doc: DocId(4)
                    }
                )
                .unwrap(),
            Message::DeleteOk { removed: 1 }
        );
        match transport
            .request(NodeId::User(0), node, AuthToken(0), &query)
            .unwrap()
        {
            Message::TopKResponse { candidates, .. } => assert!(candidates.is_empty()),
            other => panic!("unexpected response {other:?}"),
        }
        // Unsorted wire terms violate the Document invariant: rejected,
        // peer survives.
        let hostile = Message::IndexDocs {
            shard: 0,
            docs: vec![zerber_net::WireDocument {
                doc: DocId(5),
                group: GroupId(0),
                length: 2,
                terms: vec![(TermId(3), 1), (TermId(3), 1)],
            }],
        };
        match transport
            .request(NodeId::Owner(0), node, AuthToken(0), &hostile)
            .unwrap()
        {
            Message::Fault { code, .. } => assert_eq!(code, fault::MALFORMED),
            other => panic!("unexpected response {other:?}"),
        }
    }

    fn wire_doc(id: u32, term: u32, count: u32) -> zerber_net::WireDocument {
        zerber_net::WireDocument {
            doc: DocId(id),
            group: GroupId(0),
            length: count,
            terms: vec![(TermId(term), count)],
        }
    }

    fn ranked_docs(transport: &Arc<InProcTransport>, node: NodeId, term: u32) -> Vec<u32> {
        match transport
            .request(
                NodeId::User(0),
                node,
                AuthToken(0),
                &topk_query(0, term, 1.0, 16),
            )
            .unwrap()
        {
            Message::TopKResponse { candidates, .. } => {
                candidates.into_iter().map(|(doc, _)| doc.0).collect()
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// The full rebuild protocol over the wire: a fresh peer launched
    /// in `rebuilding` state buffers writes and bounces reads, a live
    /// source snapshots and streams its files, and after commit the
    /// target serves snapshot ∪ buffered writes — including a write
    /// that overlapped the snapshot (idempotent replay).
    #[test]
    fn rebuild_protocol_ships_a_shard_and_replays_buffered_writes() {
        use crate::runtime::shard::restore_shard_store;
        use zerber_index::PostingBackend;

        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let source = NodeId::IndexServer(0);
        let target = NodeId::IndexServer(1);
        runtime.spawn_peer(source, || live_shard(&[]));
        runtime.spawn_peer(target, || {
            ShardService::rebuilding([0]).with_restore(Box::new(|_, files| {
                restore_shard_store(&PostingBackend::Compressed, files)
            }))
        });
        let transport = runtime.transport().clone();
        let controller = NodeId::Owner(0);
        let rpc = |node, message: &Message| {
            transport
                .request(controller, node, AuthToken(0), message)
                .unwrap()
        };

        // Seed the source, pre-rebuild.
        for id in 1..=3 {
            assert_eq!(
                rpc(
                    source,
                    &Message::IndexDocs {
                        shard: 0,
                        docs: vec![wire_doc(id, 7, id)],
                    }
                ),
                Message::InsertOk
            );
        }

        // Target pre-commit: reads bounce REBUILDING, writes buffer.
        match rpc(target, &topk_query(0, 7, 1.0, 4)) {
            Message::Fault { code, .. } => assert_eq!(code, fault::REBUILDING),
            other => panic!("unexpected response {other:?}"),
        }

        // Begin: from here on the target owes every write it acks.
        assert_eq!(
            rpc(
                target,
                &Message::InstallShard {
                    shard: 0,
                    epoch: 0,
                    name: String::new(),
                    crc: 0,
                    commit: false,
                    payload: zerber_net::Bytes::new(),
                }
            ),
            Message::InsertOk
        );
        // A write lands on both the source (pre-snapshot, so it is in
        // the shipped files) and the target's buffer: replay must
        // shadow, not duplicate.
        for node in [source, target] {
            assert_eq!(
                rpc(
                    node,
                    &Message::IndexDocs {
                        shard: 0,
                        docs: vec![wire_doc(4, 7, 2)],
                    }
                ),
                Message::InsertOk
            );
        }
        // A delete during rebuild acks removed=0 on the buffering copy.
        assert_eq!(
            rpc(
                source,
                &Message::RemoveDoc {
                    shard: 0,
                    doc: DocId(2)
                }
            ),
            Message::DeleteOk { removed: 1 }
        );
        assert_eq!(
            rpc(
                target,
                &Message::RemoveDoc {
                    shard: 0,
                    doc: DocId(2)
                }
            ),
            Message::DeleteOk { removed: 0 }
        );

        // Snapshot the source and stream every file to the target.
        let (epoch, manifest) = match rpc(source, &Message::PrepareSnapshot { shard: 0 }) {
            Message::SnapshotManifest {
                shard,
                epoch,
                files,
            } => {
                assert_eq!(shard, 0);
                (epoch, files)
            }
            other => panic!("unexpected response {other:?}"),
        };
        assert!(!manifest.is_empty());
        for (name, len, crc) in manifest {
            let payload = match rpc(
                source,
                &Message::FetchSegment {
                    shard: 0,
                    name: name.clone(),
                },
            ) {
                Message::SegmentData { crc: got, payload } => {
                    assert_eq!(got, crc, "{name} CRC mismatch on fetch");
                    assert_eq!(payload.len() as u64, len);
                    assert_eq!(crc32(&payload), crc);
                    payload
                }
                other => panic!("unexpected response {other:?}"),
            };
            assert_eq!(
                rpc(
                    target,
                    &Message::InstallShard {
                        shard: 0,
                        epoch,
                        name,
                        crc,
                        commit: false,
                        payload,
                    }
                ),
                Message::InsertOk
            );
        }
        // Commit: restore + replay + cut over.
        assert_eq!(
            rpc(
                target,
                &Message::InstallShard {
                    shard: 0,
                    epoch,
                    name: String::new(),
                    crc: 0,
                    commit: true,
                    payload: zerber_net::Bytes::new(),
                }
            ),
            Message::InsertOk
        );

        // The rebuilt copy is bit-identical to the live source.
        assert_eq!(
            ranked_docs(&transport, source, 7),
            ranked_docs(&transport, target, 7)
        );
        let mut docs = ranked_docs(&transport, target, 7);
        docs.sort_unstable();
        assert_eq!(docs, vec![1, 3, 4], "doc 2 deleted, doc 4 not duplicated");
        // And it serves writes like any live replica.
        assert_eq!(
            rpc(
                target,
                &Message::IndexDocs {
                    shard: 0,
                    docs: vec![wire_doc(9, 7, 1)],
                }
            ),
            Message::InsertOk
        );
        assert!(ranked_docs(&transport, target, 7).contains(&9));
    }

    /// Protocol misuse and corruption bounce with typed faults and
    /// never disturb a serving store.
    #[test]
    fn rebuild_frames_reject_corruption_and_misuse() {
        use crate::runtime::shard::restore_shard_store;
        use zerber_index::PostingBackend;

        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let node = NodeId::IndexServer(0);
        runtime.spawn_peer(node, || {
            ShardService::hosting([(0, Box::new(LiveIndexShard::new(&[])) as Box<dyn ShardStore>)])
                .with_restore(Box::new(|_, files| {
                    restore_shard_store(&PostingBackend::Compressed, files)
                }))
        });
        let transport = runtime.transport().clone();
        let rpc = |message: &Message| {
            transport
                .request(NodeId::Owner(0), node, AuthToken(0), message)
                .unwrap()
        };
        assert_eq!(
            rpc(&Message::IndexDocs {
                shard: 0,
                docs: vec![wire_doc(1, 3, 2)],
            }),
            Message::InsertOk
        );

        // Commit on a *serving* shard is a protocol error — and the
        // store must survive it.
        match rpc(&Message::InstallShard {
            shard: 0,
            epoch: 0,
            name: String::new(),
            crc: 0,
            commit: true,
            payload: zerber_net::Bytes::new(),
        }) {
            Message::Fault { code, .. } => assert_eq!(code, fault::REPAIR),
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(ranked_docs(&transport, node, 3), vec![1]);

        // Fetch without a prepared snapshot: REPAIR fault.
        match rpc(&Message::FetchSegment {
            shard: 0,
            name: "MANIFEST.zman".into(),
        }) {
            Message::Fault { code, .. } => assert_eq!(code, fault::REPAIR),
            other => panic!("unexpected response {other:?}"),
        }

        // Begin, then a torn file frame (CRC mismatch): rejected, and
        // the stage stays clean for a clean retry.
        assert_eq!(
            rpc(&Message::InstallShard {
                shard: 0,
                epoch: 0,
                name: String::new(),
                crc: 0,
                commit: false,
                payload: zerber_net::Bytes::new(),
            }),
            Message::InsertOk
        );
        match rpc(&Message::InstallShard {
            shard: 0,
            epoch: 0,
            name: "docs.zdump".into(),
            crc: 0xDEAD_BEEF,
            commit: false,
            payload: zerber_net::Bytes::from_static(b"not the right bytes"),
        }) {
            Message::Fault { code, .. } => assert_eq!(code, fault::REPAIR),
            other => panic!("unexpected response {other:?}"),
        }
        // Committing garbage staged files re-enters Rebuilding rather
        // than serving a broken store.
        match rpc(&Message::InstallShard {
            shard: 0,
            epoch: 0,
            name: String::new(),
            crc: 0,
            commit: true,
            payload: zerber_net::Bytes::new(),
        }) {
            Message::Fault { code, .. } => assert_eq!(code, fault::REPAIR),
            other => panic!("unexpected response {other:?}"),
        }
        match rpc(&topk_query(0, 3, 1.0, 1)) {
            Message::Fault { code, .. } => assert_eq!(code, fault::REBUILDING),
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// A commit on a service launched without a restore factory is
    /// `UNSUPPORTED` — distinct from retryable `REPAIR` faults.
    #[test]
    fn commit_without_restore_factory_is_unsupported() {
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let node = NodeId::IndexServer(0);
        runtime.spawn_peer(node, || ShardService::rebuilding([0]));
        match runtime
            .transport()
            .request(
                NodeId::Owner(0),
                node,
                AuthToken(0),
                &Message::InstallShard {
                    shard: 0,
                    epoch: 0,
                    name: String::new(),
                    crc: 0,
                    commit: true,
                    payload: zerber_net::Bytes::new(),
                },
            )
            .unwrap()
        {
            Message::Fault { code, .. } => assert_eq!(code, fault::UNSUPPORTED),
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// Every peer answers `Ping` from its loop — even one whose service
    /// would bounce the frame — and revived nodes re-register.
    #[test]
    fn ping_pong_and_revive_reregistration() {
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let node = NodeId::IndexServer(0);
        runtime.spawn_peer(node, || live_shard(&[]));
        let transport = runtime.transport().clone();
        let ping = |t: &Arc<InProcTransport>| {
            t.request(NodeId::Owner(0), node, AuthToken(0), &Message::Ping)
        };
        assert_eq!(ping(&transport).unwrap(), Message::Pong);
        // Kill the peer: probes now fail...
        transport.shutdown(node);
        assert!(ping(&transport).is_err());
        // ...until a respawn re-registers the same address.
        runtime.spawn_peer(node, || ShardService::rebuilding([0]));
        assert_eq!(ping(&transport).unwrap(), Message::Pong);
    }
}
