//! The write fan-out: every live mutation of a [`ShardedSearch`] —
//! insert, bulk load, delete — is routed, shipped to every replica,
//! settled and accounted here.
//!
//! This module owns one decision: *when a write counts*. A shard's
//! write counts once at least one replica acknowledged it; replicas
//! that did not are tainted out of the read path; and the moment it
//! counts, the global statistics and the serving epoch move — per
//! shard, so whatever a failing batch did land is always accounted.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use zerber_index::{DocId, Document};
use zerber_net::{AuthToken, DocumentFrame, Message, NodeId};

use super::repair;
use super::transport::{
    request_payload, PendingReply, RequestPayload, TransportError, DEFAULT_RPC_TIMEOUT,
};
use super::ShardedSearch;

/// How many times a write is sent to each replica before the replica
/// is tainted: the fan-out's send, then the retries of
/// [`repair::retry`] (transport errors only; faults never retry).
const WRITE_ATTEMPTS: u32 = 3;

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
    /// The replicas acknowledged with a frame the write protocol does
    /// not expect (a buggy or hostile peer). Nothing is accounted for
    /// that shard: an answer of the wrong type proves nothing landed.
    Protocol(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Transport(e) => write!(f, "ingest transport failure: {e}"),
            IngestError::Rejected { code } => write!(f, "shard rejected mutation (fault {code})"),
            IngestError::Protocol(what) => write!(f, "ingest protocol violation: {what}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<TransportError> for IngestError {
    fn from(e: TransportError) -> Self {
        IngestError::Transport(e)
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

/// One shard's write, begun on every replica and not yet settled. It
/// holds no copy of the frame: the replicas' envelopes share the one
/// encoded buffer until each peer has decoded it, and a retry
/// re-encodes.
struct ShardWrite {
    shard: u32,
    replicas: Vec<(u32, PendingReply)>,
}

impl ShardedSearch {
    /// The peers one write to `shard` must reach: the current replica
    /// set, plus — during a join/leave migration — the new
    /// assignment's replicas, so no acknowledged write can miss a
    /// peer that is about to start serving the shard.
    fn write_peers(&self, shard: u32) -> Vec<u32> {
        let mut peers = self.map.read().replica_peers(shard, self.replicas);
        if let Some(next) = self.transition.lock().as_ref() {
            for p in next.replica_peers(shard, self.replicas) {
                if !peers.contains(&p) {
                    peers.push(p);
                }
            }
        }
        peers
    }

    /// Begins the encoded `payload` on every replica of `shard` (all
    /// sends leave before any wait, so the round trip costs the
    /// slowest replica).
    fn begin_write(&self, from: NodeId, shard: u32, payload: RequestPayload) -> ShardWrite {
        let replicas = self
            .write_peers(shard)
            .into_iter()
            .map(|peer| {
                let to = NodeId::IndexServer(peer);
                let pending = self
                    .transport
                    .begin(from, to, AuthToken(0), Arc::clone(&payload));
                (peer, pending)
            })
            .collect();
        ShardWrite { shard, replicas }
    }

    /// Settles one shard's replica write fan-out under the
    /// retry-then-repair discipline:
    ///
    /// * a **fault** from any replica fails the write closed
    ///   ([`IngestError::Rejected`], no epoch bump, cache intact) —
    ///   the store itself said no, and retrying cannot change that;
    /// * a **transport failure** retries briefly with jittered
    ///   backoff, up to [`WRITE_ATTEMPTS`] sends in all; a replica
    ///   that still will not take the write is
    ///   *tainted* — excluded from query fan-out until
    ///   [`ShardedSearch::repair_peer`] re-ships it the shard
    ///   (re-shipping is idempotent: replay applies documents by id);
    /// * the write **succeeds** while at least one replica
    ///   acknowledged — availability is preserved without ever letting
    ///   a stale replica answer queries.
    ///
    /// Responses are merged preferring the highest `DeleteOk.removed`:
    /// a mid-rebuild replica buffers the delete and acks `removed: 0`,
    /// so a live replica's count must win. A retry sends what `encode`
    /// builds afresh: the frame the write began with is gone by then.
    fn settle_write(
        &self,
        from: NodeId,
        write: ShardWrite,
        encode: impl Fn() -> RequestPayload,
    ) -> Result<Message, IngestError> {
        let mut best: Option<Message> = None;
        let mut last_error: Option<TransportError> = None;
        let mut retry: Vec<u32> = Vec::new();
        for (peer, mut pending) in write.replicas {
            match pending.wait(DEFAULT_RPC_TIMEOUT) {
                Ok(Message::Fault { code, .. }) => return Err(IngestError::Rejected { code }),
                Ok(response) => merge_write_ack(&mut best, response),
                Err(error) => {
                    last_error = Some(error);
                    retry.push(peer);
                }
            }
        }
        for peer in retry {
            match repair::retry(
                self.transport.as_ref(),
                from,
                NodeId::IndexServer(peer),
                AuthToken(0),
                write.shard,
                1..WRITE_ATTEMPTS,
                &encode,
            ) {
                Ok(Message::Fault { code, .. }) => return Err(IngestError::Rejected { code }),
                Ok(response) => merge_write_ack(&mut best, response),
                Err(error) => {
                    last_error = Some(error);
                    // The replica missed an acknowledged write: it may
                    // not serve queries again until repaired.
                    self.tainted.lock().insert(peer);
                }
            }
        }
        best.ok_or_else(|| {
            IngestError::Transport(last_error.expect("no ack from any replica implies an error"))
        })
    }

    /// The one routine behind [`ShardedSearch::insert_documents`] and
    /// [`ShardedSearch::bulk_load`]: route by the shard map, encode
    /// one `frame` per shard straight from the borrowed documents,
    /// begin *every* shard's replica fan-out, then settle each. A
    /// shard is accounted — statistics, document registry, serving
    /// epoch — the moment its replicas acknowledge, and the first
    /// error is returned only after every begun shard has been
    /// settled: a frame that is already on its peers will be applied
    /// whatever happens to its neighbours, so it must be waited for
    /// and counted. The error names the shard it came from.
    pub(super) fn write_documents(
        &self,
        owner: u32,
        docs: &[Document],
        frame: DocumentFrame,
    ) -> Result<usize, (u32, IngestError)> {
        // Group per shard, preserving arrival order within each group
        // (later copies of a doc id must win).
        let mut per_shard: BTreeMap<u32, Vec<&Document>> = BTreeMap::new();
        {
            let map = self.map.read();
            for doc in docs {
                per_shard.entry(map.shard_of(doc.id)).or_default().push(doc);
            }
        }
        let from = NodeId::Owner(owner);
        let encode = |shard, group: &[&Document]| Arc::new(frame.encode(shard, group));
        let inflight: Vec<(ShardWrite, Vec<&Document>)> = per_shard
            .into_iter()
            .map(|(shard, group)| (self.begin_write(from, shard, encode(shard, &group)), group))
            .collect();
        let mut first_error = None;
        for (write, group) in inflight {
            let shard = write.shard;
            match self.settle_write(from, write, || encode(shard, &group)) {
                Ok(Message::InsertOk) => {
                    self.stats.write().account_written(group);
                    // Bump per acknowledged shard, not once at the
                    // end: if another shard fails, the ones that *did*
                    // land must still have invalidated the cache.
                    self.epoch.fetch_add(1, Ordering::Release);
                }
                Ok(other) => {
                    first_error.get_or_insert((
                        shard,
                        IngestError::Protocol(format!(
                            "shard {shard} acknowledged a write with {other:?}"
                        )),
                    ));
                }
                Err(error) => {
                    first_error.get_or_insert((shard, error));
                }
            }
        }
        first_error.map_or(Ok(docs.len()), Err)
    }

    /// Inserts (or replaces) documents live, as owner node `owner`:
    /// each document is routed to its shard by
    /// [`ShardMap`](super::ShardMap), shipped to *every* replica of
    /// that shard, and the global statistics are updated exactly once
    /// that shard's replicas acknowledge. Returns the number of
    /// documents shipped.
    ///
    /// On `Err` the batch may have landed *in part*: every shard whose
    /// replicas acknowledged stays applied **and accounted** (its
    /// documents are served, counted in `ShardedSearch::stats`, and
    /// the serving epoch has moved past every cached result that
    /// predates them); only the failing shards' documents are missing.
    /// Re-sending the whole batch is safe — documents apply by id.
    ///
    /// Concurrent queries keep running against whichever side of the
    /// mutation they catch — a query observes either the old or the
    /// new state of each document, never a torn one.
    pub fn insert_documents(&self, owner: u32, docs: &[Document]) -> Result<usize, IngestError> {
        self.write_documents(owner, docs, DocumentFrame::IndexDocs)
            .map_err(|(_, error)| error)
    }

    /// Bulk-loads documents along the offline path, as owner node
    /// `owner`. Routing, replacement, accounting and error semantics
    /// are those of [`ShardedSearch::insert_documents`], but the batch
    /// ships as [`Message::BulkLoad`], so a segmented replica builds
    /// block-compressed segments through the parallel bulk path (no
    /// WAL write) instead of journaling every posting. Each replica
    /// builds its *own* copy of the shard from the same wire batch, so
    /// replicas stay bit-identical without shipping segment files.
    pub fn bulk_load(&self, owner: u32, docs: &[Document]) -> Result<usize, IngestError> {
        self.write_documents(owner, docs, DocumentFrame::BulkLoad)
            .map_err(|(_, error)| error)
    }

    /// Deletes one document live (routed like
    /// [`ShardedSearch::insert_documents`], fanned to every replica).
    /// Returns whether the document existed.
    pub fn delete_document(&self, owner: u32, doc: DocId) -> Result<bool, IngestError> {
        let shard = self.map.read().shard_of(doc);
        let from = NodeId::Owner(owner);
        let encode = || request_payload(&Message::RemoveDoc { shard, doc });
        let write = self.begin_write(from, shard, encode());
        let removed = match self.settle_write(from, write, encode)? {
            Message::DeleteOk { removed } => removed > 0,
            other => {
                return Err(IngestError::Protocol(format!(
                    "shard {shard} acknowledged a delete with {other:?}"
                )))
            }
        };
        if removed {
            self.stats.write().account_removed(doc);
            // A miss (the doc never existed) changes no visible
            // result, so it keeps the epoch — and the cache — intact.
            self.epoch.fetch_add(1, Ordering::Release);
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::local_topk;
    use crate::ZerberConfig;
    use zerber_index::{GroupId, TermId};
    use zerber_query::{Forced, QueryShape};

    /// A write to a dead replica is sent [`WRITE_ATTEMPTS`] times in
    /// all, then taints it; a repair hop to it is sent four times,
    /// then gives up. Each send is one `begin` on the harness, which
    /// counts them.
    #[test]
    fn a_dead_replica_costs_three_write_sends_and_four_per_repair_hop() {
        use crate::runtime::fault::{FaultInjectTransport, FaultPlan};
        use crate::runtime::repair::RepairError;

        let config = ZerberConfig::default().with_peers(2).with_replication(2);
        let mut harness = None;
        let search = ShardedSearch::launch_with_transport(&config, &[], |inner| {
            let chaos = Arc::new(FaultInjectTransport::new(inner, FaultPlan::quiet(3)));
            harness = Some(Arc::clone(&chaos));
            chaos
        })
        .unwrap();
        let chaos = harness.unwrap();
        let dead = NodeId::IndexServer(1);
        chaos.kill(dead);

        let doc = Document::from_term_counts(DocId(1), GroupId(0), vec![(TermId(2), 1)]);
        let before = chaos.requests_seen();
        assert_eq!(search.insert_documents(0, &[doc]).unwrap(), 1);
        assert_eq!(
            chaos.requests_seen() - before,
            1 + u64::from(WRITE_ATTEMPTS)
        );
        assert_eq!(search.tainted_peers(), [1]);

        let before = chaos.requests_seen();
        let repaired = search.repair_peer(1);
        assert!(
            matches!(repaired, Err(RepairError::Transport(TransportError::PeerGone(node))) if node == dead),
            "{repaired:?}"
        );
        assert_eq!(chaos.requests_seen() - before, 4, "one hop, four sends");
    }

    /// A batch that fails on one shard still counts on the other: the
    /// frame was already on the live shard's peer, so its documents
    /// are served — and must therefore be in the statistics and behind
    /// a new epoch, or the result cache would keep answering from
    /// before the load.
    #[test]
    fn a_partly_failed_batch_is_accounted_where_it_landed() {
        let config = ZerberConfig::default().with_peers(2);
        let search = ShardedSearch::launch(&config, &[]).unwrap();
        search.kill_peer(1);
        let map = search.shard_map();
        let lands = |doc: &Document| map.replica_peers(map.shard_of(doc.id), 1)[0] == 0;
        let live_shard = (0..map.shard_count())
            .find(|&shard| map.replica_peers(shard, 1)[0] == 0)
            .unwrap();

        let mut landed: Vec<Document> = Vec::new();
        // Several rounds per entry point: at the parent the outcome
        // hung on which shard a hash map happened to yield first.
        for round in 0..8u32 {
            let batch: Vec<Document> = (round * 16..round * 16 + 16)
                .map(|d| {
                    let terms = vec![(TermId(d % 3), 1 + d % 2), (TermId(9), 1)];
                    Document::from_term_counts(DocId(d), GroupId(0), terms)
                })
                .collect();
            assert!(batch.iter().any(&lands) && !batch.iter().all(&lands));
            let epoch = search.serving_epoch();
            let outcome = match round % 2 {
                0 => search.bulk_load(0, &batch),
                _ => search.insert_documents(0, &batch),
            };
            assert!(matches!(outcome, Err(IngestError::Transport(_))));
            landed.extend(batch.into_iter().filter(&lands));

            assert_eq!(search.document_count(), landed.len(), "round {round}");
            assert!(search.serving_epoch() > epoch, "round {round}");
            // The live shard serves exactly the landed documents, under
            // the coordinator's weights: ask its peer directly.
            let terms = [TermId(1), TermId(9)];
            let query = Message::PlanQuery {
                shard: live_shard,
                shape: QueryShape::Terms.as_u8(),
                forced: Forced::Auto.as_u8(),
                terms: search.stats.read().stats.weights(&terms),
                k: 10,
            };
            let served = search
                .transport()
                .request(
                    NodeId::User(0),
                    NodeId::IndexServer(0),
                    AuthToken(0),
                    &query,
                )
                .unwrap();
            let Message::TopKResponse { candidates, .. } = served else {
                panic!("round {round}: expected a top-k answer, got {served:?}");
            };
            let got: Vec<(u32, u64)> = candidates
                .iter()
                .map(|(doc, score)| (doc.0, score.to_bits()))
                .collect();
            let want: Vec<(u32, u64)> = local_topk(&landed, &terms, 10)
                .iter()
                .map(|r| (r.doc.0, r.score.to_bits()))
                .collect();
            assert_eq!(got, want, "round {round}");
        }
    }
}
