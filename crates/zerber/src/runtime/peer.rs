//! Peer threads: how a service gets its frames.
//!
//! A *peer* is one OS thread with an inbox. The thread decodes each
//! request from its wire bytes, lets the bytes go, hands the decoded
//! request to its [`PeerService`], and replies with the encoded
//! response — `serve`, the one service loop both the in-process
//! [`PeerRuntime`] and the TCP
//! [`serve_peer`](crate::runtime::socket::serve_peer) run. So a bulk
//! frame is resident until it is decoded, not through the index build
//! it starts. What the frames *do* is [`crate::runtime::service`]'s
//! business.
//!
//! Service state is built *inside* the peer thread (the spawn takes an
//! initializer closure), so expensive shard construction — tokenizing,
//! compressing posting blocks — runs on all peers in parallel and the
//! state never needs to be `Send`.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use zerber_index::GroupId;
use zerber_net::message::fault;
use zerber_net::{AuthToken, Message, NodeId, TrafficMeter};

use crate::runtime::transport::{InProcTransport, PeerInbox, RequestEnvelope};

/// One peer's request handler. `handle` runs on the peer's own thread;
/// requests from concurrent clients are serialized per peer.
pub trait PeerService {
    /// Produces the response for one decoded request.
    fn handle(&mut self, from: NodeId, auth: AuthToken, request: Message) -> Message;
}

/// A transport-level fault frame (one of
/// [`zerber_net::message::fault`]'s codes that names no group).
pub(crate) fn fault_frame(code: u8) -> Message {
    Message::Fault {
        code,
        group: GroupId(0),
    }
}

/// The service loop of one peer: decode → answer → encode → reply,
/// until an explicit [`PeerInbox::Shutdown`] or until every sender is
/// dropped. The request bytes are let go as soon as they are decoded:
/// a bulk frame is as large as the batch it carries, and the service
/// may run a whole index build on the decoded copy.
pub(crate) fn serve(mut service: impl PeerService, requests: &mpsc::Receiver<PeerInbox>) {
    while let Some(PeerInbox::Request(envelope)) = next_message(requests) {
        let RequestEnvelope {
            from,
            auth,
            payload,
            reply,
            ..
        } = envelope;
        let decoded = Message::decode(&payload);
        drop(payload);
        let response = match decoded {
            // Liveness probes are answered by the peer *loop*, not the
            // service: any service type is probeable, and a Pong
            // proves the thread itself is draining its inbox.
            Ok(Message::Ping) => Message::Pong,
            Ok(request) => service.handle(from, auth, request),
            Err(_) => fault_frame(fault::MALFORMED),
        };
        // The ReplySink meters the response before delivery.
        reply.send(response.encode());
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

    /// Spawns one peer thread at `node`. `init` runs *on the new
    /// thread* to build the service state, so peers open their stores
    /// in parallel.
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
        let handle = thread::spawn(move || serve(init(), &requests));
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
    use crate::runtime::service::{ServerService, ShardService};
    use crate::runtime::transport::Transport;
    use zerber_field::Fp;
    use zerber_index::{DocId, Document, PostingBackend, TermId, UserId};
    use zerber_net::framing::crc32;
    use zerber_obs::MetricsRegistry;
    use zerber_server::{IndexServer, ServerError, TokenAuth};

    /// A single-term disjunctive ranked read.
    fn topk_query(shard: u32, term: u32, weight: f64, k: u32) -> Message {
        Message::PlanQuery {
            shard,
            shape: 0,
            forced: 0,
            terms: vec![(TermId(term), weight)],
            k,
        }
    }

    /// Peer 0 of a default (ephemeral) deployment hosting shard 0,
    /// empty: serving, or (`rebuilding`) waiting to be shipped it.
    fn shard_zero(rebuilding: bool) -> ShardService {
        let registry = MetricsRegistry::new();
        ShardService::for_peer(&PostingBackend::Ephemeral, 0, [0], rebuilding, &registry)
    }

    /// Shard 0 serving `docs`, loaded as one `BulkLoad` frame.
    fn live_shard(docs: &[Document]) -> ShardService {
        let mut service = shard_zero(false);
        let docs: Vec<&Document> = docs.iter().collect();
        let frame = zerber_net::DocumentFrame::BulkLoad.encode(0, &docs);
        let load = Message::decode(&frame).expect("a bulk-load frame");
        let ack = service.handle(NodeId::Owner(0), AuthToken(0), load);
        assert_eq!(ack, Message::InsertOk);
        service
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
            lists: vec![(zerber_core::PlId(0), None)],
        };
        match transport
            .request(NodeId::User(1), node, token, &query)
            .unwrap()
        {
            Message::QueryResponse { lists } => assert_eq!(lists[0].len(), 1),
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
            // The retired evaluator overrides, and a never-used byte.
            (unknown_bytes(0, 1), fault::MALFORMED),
            (unknown_bytes(0, 2), fault::MALFORMED),
            (unknown_bytes(0, 3), fault::MALFORMED),
            // A shard this peer does not host: reported, not misrouted.
            (topk_query(7, 1, 1.0, 1), fault::UNSUPPORTED),
            // More slots than a query may cost: refused at decode.
            (
                Message::PlanQuery {
                    shard: 0,
                    shape: 0,
                    forced: 0,
                    terms: vec![(TermId(1), 1.0); zerber_net::MAX_QUERY_SLOTS + 1],
                    k: 1,
                },
                fault::MALFORMED,
            ),
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
        runtime.spawn_peer(node, || shard_zero(false));
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
        runtime.spawn_peer(node, || shard_zero(false));
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
        runtime.spawn_peer(node, || shard_zero(false));
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
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let source = NodeId::IndexServer(0);
        let target = NodeId::IndexServer(1);
        runtime.spawn_peer(source, || shard_zero(false));
        runtime.spawn_peer(target, || shard_zero(true));
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
            rpc(target, &Message::InstallBegin { shard: 0 }),
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
        let manifest = match rpc(source, &Message::PrepareSnapshot { shard: 0 }) {
            Message::SnapshotManifest { shard, files } => {
                assert_eq!(shard, 0);
                files
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
                    &Message::InstallFile {
                        shard: 0,
                        name,
                        crc,
                        payload,
                    }
                ),
                Message::InsertOk
            );
        }
        // Commit: restore + replay + cut over.
        assert_eq!(
            rpc(target, &Message::InstallCommit { shard: 0 }),
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
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let node = NodeId::IndexServer(0);
        runtime.spawn_peer(node, || shard_zero(false));
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
        match rpc(&Message::InstallCommit { shard: 0 }) {
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
        assert_eq!(rpc(&Message::InstallBegin { shard: 0 }), Message::InsertOk);
        let torn = Message::InstallFile {
            shard: 0,
            name: "MANIFEST.zman".into(),
            crc: 0xDEAD_BEEF,
            payload: b"not the right bytes".to_vec(),
        };
        match rpc(&torn) {
            Message::Fault { code, .. } => assert_eq!(code, fault::REPAIR),
            other => panic!("unexpected response {other:?}"),
        }
        // Committing garbage staged files re-enters Rebuilding rather
        // than serving a broken store.
        match rpc(&Message::InstallCommit { shard: 0 }) {
            Message::Fault { code, .. } => assert_eq!(code, fault::REPAIR),
            other => panic!("unexpected response {other:?}"),
        }
        match rpc(&topk_query(0, 3, 1.0, 1)) {
            Message::Fault { code, .. } => assert_eq!(code, fault::REBUILDING),
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// Every peer answers `Ping` from its loop — even one whose service
    /// would bounce the frame — and revived nodes re-register.
    #[test]
    fn ping_pong_and_revive_reregistration() {
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        let node = NodeId::IndexServer(0);
        runtime.spawn_peer(node, || shard_zero(false));
        let transport = runtime.transport().clone();
        let ping = |t: &Arc<InProcTransport>| {
            t.request(NodeId::Owner(0), node, AuthToken(0), &Message::Ping)
        };
        assert_eq!(ping(&transport).unwrap(), Message::Pong);
        // Kill the peer: probes now fail...
        transport.shutdown(node);
        assert!(ping(&transport).is_err());
        // ...until a respawn re-registers the same address.
        runtime.spawn_peer(node, || shard_zero(true));
        assert_eq!(ping(&transport).unwrap(), Message::Pong);
    }
}
