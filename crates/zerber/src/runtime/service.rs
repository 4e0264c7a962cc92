//! The services a peer runs: what each decoded frame does.
//!
//! * [`ServerService`] hosts a share-holding [`IndexServer`] — the
//!   paper's index-server role (insert/delete/lookup, Section 5),
//!   executing off the caller's thread;
//! * [`ShardService`] hosts the *document shards* this peer carries —
//!   its own shard plus, under replication, copies of its
//!   predecessors' — each in a [`SegmentStore`], and answers
//!   [`Message::PlanQuery`] with the addressed shard's planned top-k.
//!
//! This module owns one decision: *what a frame does to a shard in a
//! given serving state*. [`ShardService`] is a decision table over
//! (state × frame) — its `handle` picks the row, one method per row
//! holds the three cells — and the table-driven test at the bottom
//! checks every cell, so the table is complete and non-overlapping by
//! test, not by reading. How a peer *gets* its frames (thread, inbox,
//! socket) is [`crate::runtime::peer`]'s business.

use std::collections::HashMap;
use std::sync::Arc;

use zerber_index::cursor::TopKScratch;
use zerber_index::{DocId, Document, PostingBackend, TermId};
use zerber_net::framing::crc32;
use zerber_net::message::fault;
use zerber_net::{AuthToken, Message, NodeId, WireDocument};
use zerber_obs::MetricsRegistry;
use zerber_segment::{BulkConfig, SegmentError, SegmentStore};
use zerber_server::IndexServer;

use crate::runtime::peer::{fault_frame, PeerService};
use crate::runtime::repair::InstallFrame;
use crate::runtime::shard::{from_wire, ShardHome};

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
        let answer = match request {
            Message::InsertBatch { entries } => self
                .server
                .insert_batch(auth, &entries)
                .map(|()| Message::InsertOk),
            Message::Delete { elements } => {
                self.server
                    .delete(auth, &elements)
                    .map(|removed| Message::DeleteOk {
                        removed: removed as u64,
                    })
            }
            // Queries carry their token in the message body (the wire
            // format of Section 5.4.2); the envelope token is the same
            // session token and is ignored here.
            Message::Query { auth, pl_ids } => self
                .server
                .get_posting_lists(auth, &pl_ids)
                .map(|lists| Message::QueryResponse { lists }),
            _ => return fault_frame(fault::UNSUPPORTED),
        };
        // A server-side rejection travels as its wire fault frame (the
        // mapping itself lives with `ServerError`).
        answer.unwrap_or_else(|error| {
            let (code, group) = error.to_fault();
            Message::Fault { code, group }
        })
    }
}

/// The document shards one peer hosts: ranked reads plus the live
/// write stream, each request addressed to a logical shard by id.
///
/// Without replication a peer hosts exactly its own shard; with
/// `R`-fold replication it also carries copies of its `R - 1`
/// predecessors' shards (see [`crate::runtime::ShardMap::hosted_shards`]),
/// and the `shard` field on [`Message::PlanQuery`] /
/// [`Message::IndexDocs`] / [`Message::RemoveDoc`] selects which
/// store serves the request. A request addressed to a shard this peer
/// does not host bounces as an `UNSUPPORTED` fault — reported, never
/// silently misrouted.
///
/// Queries run [`zerber_query::execute`] — the shape's one evaluator —
/// over an MVCC snapshot of the addressed store and its lazy
/// [`zerber_index::PostingStore::query_cursors`], which seek by the
/// segments' stored skip metadata and decompress only the blocks an
/// evaluator reads. The service owns the
/// [`TopKScratch`] (every evaluator's top-k collector), reused across
/// every RPC this peer serves. [`Message::IndexDocs`] and
/// [`Message::RemoveDoc`] mutate the addressed shard; a store that
/// fails to persist answers `STORAGE`.
///
/// # The (state × frame) table
///
/// ```text
///                   Serving            Rebuilding           not hosted
///  PlanQuery        TopKResponse       REBUILDING           UNSUPPORTED
///  IndexDocs        InsertOk           InsertOk (buffered)  UNSUPPORTED
///  BulkLoad         InsertOk           InsertOk (buffered)  UNSUPPORTED
///  RemoveDoc        DeleteOk{n}        DeleteOk{0} (buff.)  UNSUPPORTED
///  PrepareSnapshot  SnapshotManifest   REBUILDING           UNSUPPORTED
///  FetchSegment     SegmentData if that file was prepared, else REPAIR
///  install begin    InsertOk → Rebuilding (a restart keeps the buffer)
///  install file     REPAIR             InsertOk (staged)    REPAIR
///  install commit   REPAIR             InsertOk → Serving   REPAIR
/// ```
///
/// Only the two arrows change a shard's state; a commit whose restore
/// or replay fails answers `REPAIR` / `STORAGE` and stays `Rebuilding`.
/// Malformed input (`MALFORMED`) is rejected before the state is
/// looked at.
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
    /// The stores this peer hosts, by logical shard id. Declared
    /// before `home`: the stores drop (and join their compactors)
    /// before an ephemeral home removes their directories.
    stores: HashMap<u32, HostedShard>,
    /// Per-peer reusable query scratch (the top-k heap), shared
    /// across all hosted stores (requests are serialized per peer).
    scratch: TopKScratch,
    /// Frozen snapshots awaiting [`Message::FetchSegment`] pulls, per
    /// shard (this peer acting as a rebuild *source*). Replaced by the
    /// next [`Message::PrepareSnapshot`] for the same shard.
    pending_snapshot: HashMap<u32, Vec<(String, Vec<u8>)>>,
    /// Where every store this service builds — at launch or from an
    /// installed snapshot (this peer acting as a rebuild *target*) —
    /// keeps its files and reports its `zerber_segment_*` instruments.
    home: ShardHome,
    /// `zerber_peer_postings_scored_total`: candidates this peer's
    /// evaluators fully scored. Counted here, not by the querying
    /// client like the block counts beside it — the number never
    /// travels in `TopKResponse`.
    postings_scored: zerber_obs::Counter,
}

/// One decoded write frame: applied at once to a serving shard,
/// buffered by a rebuilding one and replayed in arrival order at
/// commit. Replay is idempotent — a write that also made the shipped
/// snapshot re-applies as a same-bytes replacement (doc-level
/// shadowing), so the buffer may safely overlap the snapshot.
enum WriteOp {
    /// A live [`Message::IndexDocs`] batch.
    Insert(Vec<Document>),
    /// An offline [`Message::BulkLoad`] batch.
    Bulk(Vec<Document>),
    /// A [`Message::RemoveDoc`].
    Remove(DocId),
}

impl WriteOp {
    /// Applies the write; returns how many documents it removed.
    /// A bulk batch replaces older copies of its documents exactly
    /// like an insert batch, but skips the WAL and builds segments
    /// directly (the SPIMI path in `zerber-segment`).
    fn apply(&self, store: &SegmentStore) -> Result<u64, SegmentError> {
        match self {
            WriteOp::Insert(docs) => store.insert(docs).map(|_| 0),
            WriteOp::Bulk(docs) => store.bulk_load(docs, BulkConfig::default()).map(|_| 0),
            WriteOp::Remove(doc) => store.delete(*doc).map(u64::from),
        }
    }

    /// The acknowledgement of this write once it removed `removed`
    /// documents (`0` from a buffering copy, which cannot know — a
    /// live replica's count wins at the coordinator).
    fn ack(&self, removed: u64) -> Message {
        match self {
            WriteOp::Insert(_) | WriteOp::Bulk(_) => Message::InsertOk,
            WriteOp::Remove(_) => Message::DeleteOk { removed },
        }
    }
}

/// The serving state of one hosted shard.
enum HostedShard {
    /// Normal operation: reads and writes hit the store directly.
    Serving(SegmentStore),
    /// Mid-rebuild: snapshot files stage here, reads bounce with
    /// [`fault::REBUILDING`] (the hedged gather fails over to a live
    /// replica), and writes are acknowledged into the replay buffer so
    /// the cluster-wide all-replicas-ack write discipline keeps
    /// working while the copy is shipped.
    Rebuilding {
        staged: Vec<(String, Vec<u8>)>,
        buffered: Vec<WriteOp>,
    },
}

impl HostedShard {
    /// A rebuilding shard with nothing staged, still owing `buffered`.
    fn rebuilding(buffered: Vec<WriteOp>) -> Self {
        HostedShard::Rebuilding {
            staged: Vec::new(),
            buffered,
        }
    }
}

/// Every way a store can refuse a mutation is the engine failing to
/// persist it.
fn shard_fault(_: SegmentError) -> Message {
    fault_frame(fault::STORAGE)
}

impl ShardService {
    /// The service ring position `peer` runs — the one constructor,
    /// under either transport. With `Some(partition)` every shard in
    /// `hosted` serves `partition[shard]` (the output of
    /// [`crate::runtime::ShardMap::partition`] over the launch corpus); with
    /// `None` every one of them starts mid-rebuild — writes buffer
    /// from the first request, reads bounce with
    /// [`fault::REBUILDING`] — which is the *replacement* shape: a
    /// peer started in place of a dead one, or joining the ring, must
    /// never serve the stale (or empty) state it woke up with, only
    /// what the repair controller ships it.
    ///
    /// Each store lives in its own `peer-<p>-shard-<s>` subdirectory of
    /// where `backend` says (for [`PostingBackend::Ephemeral`], a
    /// scratch directory this service creates and removes when
    /// dropped) and reports into `registry`, as does every store later
    /// restored from an installed snapshot.
    ///
    /// # Panics
    /// Panics if a store cannot open a fresh directory — see
    /// `ShardedSearch::launch`.
    pub fn for_peer(
        backend: &PostingBackend,
        peer: u32,
        hosted: impl IntoIterator<Item = u32>,
        partition: Option<&[Vec<Document>]>,
        registry: &MetricsRegistry,
    ) -> Self {
        let home = ShardHome::new(backend, peer, registry);
        let stores = hosted
            .into_iter()
            .map(|shard| {
                let state = match partition {
                    Some(partition) => {
                        let docs = &partition[shard as usize];
                        HostedShard::Serving(home.build(shard, docs))
                    }
                    None => HostedShard::rebuilding(Vec::new()),
                };
                (shard, state)
            })
            .collect();
        Self {
            stores,
            scratch: TopKScratch::new(),
            pending_snapshot: HashMap::new(),
            home,
            postings_scored: registry.counter("zerber_peer_postings_scored_total"),
        }
    }
}

impl PeerService for ShardService {
    /// Picks the table row; each row method holds its three cells.
    fn handle(&mut self, _from: NodeId, _auth: AuthToken, request: Message) -> Message {
        match request {
            Message::PlanQuery {
                shard,
                shape,
                forced,
                terms,
                k,
            } => self.plan_query(shard, shape, forced, &terms, k),
            Message::IndexDocs { shard, docs } => self.write_docs(shard, docs, WriteOp::Insert),
            Message::BulkLoad { shard, docs } => self.write_docs(shard, docs, WriteOp::Bulk),
            Message::RemoveDoc { shard, doc } => self.write(shard, WriteOp::Remove(doc)),
            Message::PrepareSnapshot { shard } => self.prepare_snapshot(shard),
            Message::FetchSegment { shard, name } => self.fetch_segment(shard, &name),
            other => match InstallFrame::classify(other) {
                Ok((shard, InstallFrame::Begin)) => self.install_begin(shard),
                Ok((shard, InstallFrame::File { name, crc, payload })) => {
                    self.install_file(shard, name, crc, payload)
                }
                Ok((shard, InstallFrame::Commit)) => self.install_commit(shard),
                Err(_) => fault_frame(fault::UNSUPPORTED),
            },
        }
    }
}

impl ShardService {
    fn plan_query(
        &mut self,
        shard: u32,
        shape: u8,
        forced: u8,
        terms: &[(TermId, f64)],
        k: u32,
    ) -> Message {
        // Wire input is untrusted (the transport is designed to be
        // swappable for sockets): a NaN weight would panic this thread
        // inside the result ordering, and a negative one would turn
        // the block maxima into lower bounds and silently corrupt the
        // pruning. Reject both as malformed — and likewise the two raw
        // bytes the planner consumes: an unknown shape or override is
        // malformed, not a panic.
        if terms
            .iter()
            .any(|&(_, weight)| !weight.is_finite() || weight < 0.0)
        {
            return fault_frame(fault::MALFORMED);
        }
        let (Some(shape), Some(forced)) = (
            zerber_query::QueryShape::from_u8(shape),
            zerber_query::Forced::from_u8(forced),
        ) else {
            return fault_frame(fault::MALFORMED);
        };
        let store = match self.stores.get_mut(&shard) {
            Some(HostedShard::Serving(store)) => store,
            Some(HostedShard::Rebuilding { .. }) => return fault_frame(fault::REBUILDING),
            None => return fault_frame(fault::UNSUPPORTED),
        };
        // Time the shard-local evaluation and ship the decode
        // accounting back with the candidates: the querying client
        // assembles its trace (and folds the counters into *its*
        // registry) from the response alone, so in-process and remote
        // socket peers report identically.
        let started = std::time::Instant::now();
        // The snapshot pins the sources the cursors borrow from for
        // exactly the duration of this query.
        let snapshot = store.snapshot();
        let outcome = zerber_query::execute(
            &snapshot,
            shape,
            terms,
            k as usize,
            forced,
            &mut self.scratch,
        );
        self.postings_scored.add(outcome.cost.postings_scored);
        Message::TopKResponse {
            decode_ns: started.elapsed().as_nanos() as u64,
            blocks_decoded: outcome.cost.blocks_decoded as u32,
            blocks_total: outcome.cost.blocks_total as u32,
            candidates: outcome.ranked.iter().map(|r| (r.doc, r.score)).collect(),
        }
    }

    /// The `IndexDocs` / `BulkLoad` rows: validate the batch, then it
    /// is a write like any other.
    fn write_docs(
        &mut self,
        shard: u32,
        docs: Vec<WireDocument>,
        op: fn(Vec<Document>) -> WriteOp,
    ) -> Message {
        match docs.into_iter().map(from_wire).collect() {
            Some(decoded) => self.write(shard, op(decoded)),
            None => fault_frame(fault::MALFORMED),
        }
    }

    fn write(&mut self, shard: u32, op: WriteOp) -> Message {
        match self.stores.get_mut(&shard) {
            Some(HostedShard::Serving(store)) => match op.apply(store) {
                Ok(removed) => op.ack(removed),
                Err(e) => shard_fault(e),
            },
            Some(HostedShard::Rebuilding { buffered, .. }) => {
                // Acknowledge into the replay buffer: the cluster-wide
                // all-replicas-ack discipline keeps committing while
                // this copy is shipped, and the buffer replays
                // (idempotently) at commit.
                let ack = op.ack(0);
                buffered.push(op);
                ack
            }
            None => fault_frame(fault::UNSUPPORTED),
        }
    }

    /// Rebuild *source* side: freeze a consistent file-set snapshot of
    /// the shard and advertise it. The files are cached whole until
    /// the next `PrepareSnapshot` for the same shard, so
    /// `FetchSegment` pulls are repeatable.
    fn prepare_snapshot(&mut self, shard: u32) -> Message {
        let store = match self.stores.get_mut(&shard) {
            Some(HostedShard::Serving(store)) => store,
            Some(HostedShard::Rebuilding { .. }) => return fault_frame(fault::REBUILDING),
            None => return fault_frame(fault::UNSUPPORTED),
        };
        match store.export_files() {
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

    /// Answers from the prepared file set alone, whatever the shard's
    /// state has become since. The file stays prepared — a fetch whose
    /// answer was lost is retried — so the frame gets a copy.
    fn fetch_segment(&mut self, shard: u32, name: &str) -> Message {
        let mut prepared = self.pending_snapshot.get(&shard).into_iter().flatten();
        match prepared.find(|(n, _)| n == name) {
            Some((_, bytes)) => Message::SegmentData {
                crc: crc32(bytes),
                payload: bytes.clone(),
            },
            None => fault_frame(fault::REPAIR),
        }
    }

    /// Rebuild *target* side, begin: enter `Rebuilding`, so writes
    /// start buffering *before* the source snapshots and none can fall
    /// between. A shard this peer does not host yet is one it is
    /// *gaining* (join rebalance): host it, buffering from now.
    fn install_begin(&mut self, shard: u32) -> Message {
        let empty = || HostedShard::rebuilding(Vec::new());
        match self.stores.entry(shard).or_insert_with(empty) {
            // Restart of a failed ship: keep the buffered writes (they
            // are still owed), drop stale staged files.
            HostedShard::Rebuilding { staged, .. } => staged.clear(),
            serving => *serving = empty(),
        }
        Message::InsertOk
    }

    /// Stages one CRC-checked snapshot file. A file frame without a
    /// begin is a protocol error.
    fn install_file(&mut self, shard: u32, name: String, crc: u32, payload: Vec<u8>) -> Message {
        match self.stores.get_mut(&shard) {
            Some(HostedShard::Rebuilding { staged, .. }) if crc32(&payload) == crc => {
                staged.push((name, payload));
                Message::InsertOk
            }
            _ => fault_frame(fault::REPAIR),
        }
    }

    /// Restores a store from the staged files, replays the buffer,
    /// cuts over. A commit without a begin (or on a serving shard) is
    /// a protocol error, and the serving store stays.
    fn install_commit(&mut self, shard: u32) -> Message {
        // Taking both lists leaves the shard `Rebuilding` and empty
        // while the store is built.
        let (staged, buffered) = match self.stores.get_mut(&shard) {
            Some(HostedShard::Rebuilding { staged, buffered }) => {
                (std::mem::take(staged), std::mem::take(buffered))
            }
            _ => return fault_frame(fault::REPAIR),
        };
        let store = match self.home.restore(shard, &staged) {
            Ok(store) => store,
            Err(_) => {
                // Keep the owed writes; the controller re-ships.
                self.stores.insert(shard, HostedShard::rebuilding(buffered));
                return fault_frame(fault::REPAIR);
            }
        };
        for write in &buffered {
            if let Err(e) = write.apply(&store) {
                // Never serve a possibly-diverged store: drop it and
                // stay rebuilding with nothing owed (the controller
                // restarts the whole ship, which re-captures these
                // writes in its fresh snapshot).
                return shard_fault(e);
            }
        }
        self.stores.insert(shard, HostedShard::Serving(store));
        Message::InsertOk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_index::GroupId;

    /// The shard every frame of the table addresses.
    const SHARD: u32 = 0;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum State {
        Serving,
        Rebuilding,
        NotHosted,
    }

    /// What a cell answers, by frame kind (payloads are checked by the
    /// over-the-wire tests in `runtime::peer`).
    #[derive(Debug, PartialEq)]
    enum Answer {
        TopK,
        InsertOk,
        DeleteOk(u64),
        Manifest,
        SegmentData,
        Fault(u8),
    }

    fn answer_of(response: Message) -> Answer {
        match response {
            Message::TopKResponse { .. } => Answer::TopK,
            Message::InsertOk => Answer::InsertOk,
            Message::DeleteOk { removed } => Answer::DeleteOk(removed),
            Message::SnapshotManifest { .. } => Answer::Manifest,
            Message::SegmentData { .. } => Answer::SegmentData,
            Message::Fault { code, .. } => Answer::Fault(code),
            other => panic!("no cell answers {other:?}"),
        }
    }

    fn wire_doc(id: u32) -> WireDocument {
        WireDocument {
            doc: DocId(id),
            group: GroupId(0),
            length: 1,
            terms: vec![(TermId(7), 1)],
        }
    }

    fn live_docs() -> Vec<Document> {
        vec![from_wire(wire_doc(1)).expect("sorted terms")]
    }

    /// The file every snapshot carries, listed first.
    const MANIFEST: &str = "MANIFEST.zman";

    /// A valid snapshot of `live_docs()`, one install frame per file.
    fn file_frames() -> Vec<Message> {
        let home = ShardHome::new(&PostingBackend::Ephemeral, 0, &MetricsRegistry::new());
        let store = home.build(SHARD, &live_docs());
        let (_, files) = store.export_files().expect("export");
        assert_eq!(files[0].0, MANIFEST);
        assert!(files.len() > 1, "the seed is a sealed segment");
        files
            .into_iter()
            .map(|(name, payload)| {
                let crc = crc32(&payload);
                InstallFrame::File { name, crc, payload }.message(SHARD, 1)
            })
            .collect()
    }

    fn file_frame() -> Message {
        file_frames().swap_remove(0)
    }

    /// A service with `SHARD` in `state`. The serving copy has a
    /// snapshot prepared (it can be a rebuild source); the rebuilding
    /// copy has a valid snapshot staged (it can commit).
    fn service_in(state: State) -> ShardService {
        let hosted = match state {
            State::Serving => SHARD,
            State::Rebuilding | State::NotHosted => SHARD + 1,
        };
        let partition = vec![live_docs(); 2];
        let mut service = ShardService::for_peer(
            &PostingBackend::Ephemeral,
            0,
            [hosted],
            Some(&partition),
            &MetricsRegistry::new(),
        );
        let owner = NodeId::Owner(0);
        let setup: Vec<Message> = match state {
            State::Serving => vec![Message::PrepareSnapshot { shard: SHARD }],
            State::Rebuilding => std::iter::once(InstallFrame::Begin.message(SHARD, 0))
                .chain(file_frames())
                .collect(),
            State::NotHosted => vec![],
        };
        for frame in setup {
            let answer = answer_of(service.handle(owner, AuthToken(0), frame));
            assert!(!matches!(answer, Answer::Fault(_)), "{state:?} setup");
        }
        assert_eq!(state_of(&service), state);
        service
    }

    fn state_of(service: &ShardService) -> State {
        match service.stores.get(&SHARD) {
            Some(HostedShard::Serving(_)) => State::Serving,
            Some(HostedShard::Rebuilding { .. }) => State::Rebuilding,
            None => State::NotHosted,
        }
    }

    /// Every cell of the (state × frame) table: 9 frames × 3 states,
    /// each asserting the answer frame and the state it leaves.
    #[test]
    fn every_cell_of_the_state_by_frame_table() {
        use fault::{REBUILDING, REPAIR, UNSUPPORTED};
        use Answer::{DeleteOk, Fault, InsertOk, Manifest, SegmentData, TopK};
        use State::{NotHosted, Rebuilding, Serving};

        type Row = (&'static str, fn() -> Message, [(Answer, State); 3]);
        // Cells in the order Serving, Rebuilding, NotHosted.
        let table: [Row; 9] = [
            (
                "PlanQuery",
                || Message::PlanQuery {
                    shard: SHARD,
                    shape: 0,
                    forced: 0,
                    terms: vec![(TermId(7), 1.0)],
                    k: 4,
                },
                [
                    (TopK, Serving),
                    (Fault(REBUILDING), Rebuilding),
                    (Fault(UNSUPPORTED), NotHosted),
                ],
            ),
            (
                "IndexDocs",
                || Message::IndexDocs {
                    shard: SHARD,
                    docs: vec![wire_doc(2)],
                },
                [
                    (InsertOk, Serving),
                    (InsertOk, Rebuilding),
                    (Fault(UNSUPPORTED), NotHosted),
                ],
            ),
            (
                "BulkLoad",
                || Message::BulkLoad {
                    shard: SHARD,
                    docs: vec![wire_doc(2)],
                },
                [
                    (InsertOk, Serving),
                    (InsertOk, Rebuilding),
                    (Fault(UNSUPPORTED), NotHosted),
                ],
            ),
            (
                "RemoveDoc",
                || Message::RemoveDoc {
                    shard: SHARD,
                    doc: DocId(1),
                },
                [
                    (DeleteOk(1), Serving),
                    (DeleteOk(0), Rebuilding),
                    (Fault(UNSUPPORTED), NotHosted),
                ],
            ),
            (
                "PrepareSnapshot",
                || Message::PrepareSnapshot { shard: SHARD },
                [
                    (Manifest, Serving),
                    (Fault(REBUILDING), Rebuilding),
                    (Fault(UNSUPPORTED), NotHosted),
                ],
            ),
            (
                "FetchSegment",
                || Message::FetchSegment {
                    shard: SHARD,
                    name: MANIFEST.into(),
                },
                [
                    (SegmentData, Serving),
                    (Fault(REPAIR), Rebuilding),
                    (Fault(REPAIR), NotHosted),
                ],
            ),
            (
                "install begin",
                || InstallFrame::Begin.message(SHARD, 0),
                [
                    (InsertOk, Rebuilding),
                    (InsertOk, Rebuilding),
                    (InsertOk, Rebuilding),
                ],
            ),
            (
                "install file",
                file_frame,
                [
                    (Fault(REPAIR), Serving),
                    (InsertOk, Rebuilding),
                    (Fault(REPAIR), NotHosted),
                ],
            ),
            (
                "install commit",
                || InstallFrame::Commit.message(SHARD, 1),
                [
                    (Fault(REPAIR), Serving),
                    (InsertOk, Serving),
                    (Fault(REPAIR), NotHosted),
                ],
            ),
        ];
        for (frame, build, cells) in table {
            for (state, (answer, next)) in [Serving, Rebuilding, NotHosted].into_iter().zip(cells) {
                let mut service = service_in(state);
                let got = answer_of(service.handle(NodeId::Owner(0), AuthToken(0), build()));
                assert_eq!(got, answer, "{frame} × {state:?}: answer");
                assert_eq!(state_of(&service), next, "{frame} × {state:?}: next state");
            }
        }
    }

    /// What the table's footnotes say: a restart of a failed ship
    /// keeps the owed writes, and they replay at commit.
    #[test]
    fn restarted_ship_keeps_and_replays_the_buffer() {
        let mut service = service_in(State::Rebuilding);
        let mut rpc = |frame| answer_of(service.handle(NodeId::Owner(0), AuthToken(0), frame));
        let write = Message::IndexDocs {
            shard: SHARD,
            docs: vec![wire_doc(2)],
        };
        assert_eq!(rpc(write), Answer::InsertOk);
        // The restart drops the staged files (a commit now has nothing
        // to restore from) but not the buffered write.
        assert_eq!(rpc(InstallFrame::Begin.message(SHARD, 0)), Answer::InsertOk);
        assert_eq!(
            rpc(InstallFrame::Commit.message(SHARD, 1)),
            Answer::Fault(fault::REPAIR)
        );
        for frame in file_frames() {
            assert_eq!(rpc(frame), Answer::InsertOk);
        }
        assert_eq!(
            rpc(InstallFrame::Commit.message(SHARD, 1)),
            Answer::InsertOk
        );
        let removed = Message::RemoveDoc {
            shard: SHARD,
            doc: DocId(2),
        };
        assert_eq!(rpc(removed), Answer::DeleteOk(1), "the buffered doc landed");
    }
}
