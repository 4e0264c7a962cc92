//! Merging per-peer top-k candidates with the threshold-algorithm
//! bound.
//!
//! Documents are sharded — every document's postings live on exactly
//! one peer — so each candidate arrives with its *complete* score and
//! the per-peer candidate sets are disjoint. Each peer's list is
//! sorted by `(score desc, doc asc)` (the order every evaluator
//! emits, [`RankedDoc::result_order`]), which makes it a *sorted
//! access* path in Fagin's sense: the head of each list upper-bounds
//! everything behind it. The gather loop therefore only ever pulls
//! the globally best head, and after `k` pulls the threshold `τ =
//! max(remaining heads)` certifies that no unexamined candidate can
//! enter the top-k — the same stopping rule as the Threshold
//! Algorithm, needing no random access because scores are already
//! complete.
//!
//! Correctness does not depend on the early stop: a global top-k
//! document ranks at least as high within its own shard, so it is
//! always inside that shard's local top-k and the first `k` pulls of
//! the merge reproduce the global order exactly (see the
//! `sharded_topk` property test).

use std::sync::Arc;
use std::time::{Duration, Instant};

use zerber_index::RankedDoc;
use zerber_net::message::fault;
use zerber_net::{AuthToken, Message, NodeId};

use crate::runtime::transport::{PendingReply, RequestPayload, Transport, TransportError};

/// One shard's fan-out unit: `(shard, replica list in placement
/// order, encoded request payload)`.
pub(crate) type ShardRequest = (u32, Vec<NodeId>, RequestPayload);

/// When to give up on a replica and try the next one.
///
/// `hedge_after` is the per-attempt patience: once a replica has been
/// silent that long, a *hedged* request goes to the next replica while
/// the first stays outstanding (its late answer is still collected —
/// and counted — if it arrives). `deadline` bounds the whole per-shard
/// effort; a shard none of whose replicas answered by then is reported
/// unavailable, never silently dropped.
#[derive(Debug, Clone, Copy)]
pub struct HedgePolicy {
    /// Patience per replica before hedging to the next.
    pub hedge_after: Duration,
    /// Total per-shard budget across all replicas.
    pub deadline: Duration,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        Self {
            // A healthy in-process peer answers in microseconds; 25 ms
            // of silence means it is wedged or the link is injected
            // with faults — stop stalling and hedge.
            hedge_after: Duration::from_millis(25),
            deadline: Duration::from_secs(5),
        }
    }
}

/// How one replica attempt within a shard's hedged fan-out ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// This attempt's answer settled the shard.
    Answered,
    /// The attempt failed (timeout, dead peer, fault frame, …).
    Failed(TransportError),
    /// A hedged-away replica's late answer arrived after the shard had
    /// already settled on another replica. Its bytes are metered; the
    /// gather uses exactly one response per shard.
    Duplicate,
}

/// One RPC attempt of the hedged fan-out: which replica, when it was
/// sent (relative to the fan-out start), how long until it resolved,
/// and how it ended. These records are the raw material for the
/// per-shard span in a [`zerber_obs::QueryTrace`].
#[derive(Debug, Clone, Copy)]
pub struct AttemptRecord {
    /// The replica this attempt was sent to.
    pub peer: NodeId,
    /// Offset of the send from the fan-out start (zero for primaries).
    pub started: Duration,
    /// Wall clock from send until the attempt resolved — for an
    /// unresolved laggard, until it was last observed silent.
    pub duration: Duration,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
}

/// A replica's decoded [`Message::TopKResponse`] — the only message
/// the hedged fan-out accepts as an answer.
#[derive(Debug)]
pub(crate) struct ShardAnswer {
    /// Peer-side wall clock of the shard-local evaluation.
    pub decode_ns: u64,
    /// Blocks the evaluation decompressed.
    pub blocks_decoded: u32,
    /// Blocks present across the query's posting lists.
    pub blocks_total: u32,
    /// The shard-local top-k, `(score desc, doc asc)`.
    pub candidates: Vec<RankedDoc>,
}

/// One shard's answer from the hedged fan-out, with the per-attempt
/// evidence the caller surfaces (and the tracer turns into spans).
#[derive(Debug)]
pub(crate) struct ShardFetch {
    /// The logical shard this answer covers.
    pub shard: u32,
    /// The replica whose response was used.
    pub peer: NodeId,
    /// That replica's answer.
    pub answer: ShardAnswer,
    /// Every attempt made for this shard, in send order. The first is
    /// the primary; exactly one has [`AttemptOutcome::Answered`].
    pub attempts: Vec<AttemptRecord>,
}

impl ShardFetch {
    /// Extra (hedged) requests sent beyond the primary.
    pub(crate) fn hedges(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// Replicas that failed before one answered — reported, never
    /// silently dropped.
    pub(crate) fn failed(&self) -> impl Iterator<Item = (NodeId, TransportError)> + '_ {
        failed_attempts(&self.attempts)
    }
}

fn failed_attempts(
    attempts: &[AttemptRecord],
) -> impl Iterator<Item = (NodeId, TransportError)> + '_ {
    attempts.iter().filter_map(|a| match a.outcome {
        AttemptOutcome::Failed(error) => Some((a.peer, error)),
        _ => None,
    })
}

/// A shard no replica answered for: the query cannot be completed
/// correctly, so the whole attempt fails *closed* with the per-replica
/// evidence.
#[derive(Debug)]
pub struct ShardUnavailable {
    /// The uncovered shard.
    pub shard: u32,
    /// Every attempted replica with its failure, in send order.
    pub attempts: Vec<AttemptRecord>,
}

impl ShardUnavailable {
    /// Each replica's terminal failure, in send order.
    pub fn failed(&self) -> impl Iterator<Item = (NodeId, TransportError)> + '_ {
        failed_attempts(&self.attempts)
    }
}

/// Classifies one resolved attempt: only a [`Message::TopKResponse`]
/// is the shard's answer. A fault frame is a *failed attempt* (another
/// replica may serve the identical request), and so is any other
/// message — a peer answering a ranked read with the wrong frame is
/// hostile or buggy, and is hedged around as [`fault::MALFORMED`]
/// rather than trusted or panicked on.
fn classify(result: Result<Message, TransportError>) -> Result<ShardAnswer, TransportError> {
    match result? {
        Message::TopKResponse {
            decode_ns,
            blocks_decoded,
            blocks_total,
            candidates,
        } => Ok(ShardAnswer {
            decode_ns,
            blocks_decoded,
            blocks_total,
            candidates: candidates
                .into_iter()
                .map(|(doc, score)| RankedDoc { doc, score })
                .collect(),
        }),
        Message::Fault { code, .. } => Err(TransportError::Rejected(code)),
        _ => Err(TransportError::Rejected(fault::MALFORMED)),
    }
}

/// Fans one request per shard out to that shard's replica list and
/// settles each shard on the first replica that answers.
///
/// All primary requests leave before any wait begins, so healthy
/// shards work in parallel exactly like the plain fan-out; only a
/// silent or failed replica costs `policy.hedge_after` before its
/// successor is tried. Results align with `shards` order. Replica
/// stores hold identical copies of their shard, so *which* replica
/// answers cannot change the result — the replicated top-k stays
/// bit-identical to the single-node oracle (property-tested in
/// `tests/seeded_chaos.rs`).
pub(crate) fn hedged_fan_out(
    transport: &dyn Transport,
    from: NodeId,
    auth: AuthToken,
    shards: &[ShardRequest],
    policy: &HedgePolicy,
) -> Vec<Result<ShardFetch, ShardUnavailable>> {
    let base = Instant::now();
    // Phase 1: the primary attempt for every shard — sends only, so
    // every shard's work overlaps. In process a send returns at once;
    // over sockets it can block on a dial or the in-flight cap (see
    // `Transport::begin`), and the shards behind it wait their
    // turn to be sent. A send that fails is not sent again here: the
    // hedge tries the next replica.
    let mut primaries: Vec<Option<PendingReply>> = shards
        .iter()
        .map(|(_, replicas, payload)| {
            replicas
                .first()
                .map(|&node| transport.begin(from, node, auth, Arc::clone(payload)))
        })
        .collect();
    // Phase 2: settle shard by shard, hedging down each replica list.
    shards
        .iter()
        .zip(primaries.iter_mut())
        .map(|((shard, replicas, payload), primary)| {
            settle_shard(
                transport,
                from,
                auth,
                *shard,
                replicas,
                payload,
                primary.take(),
                policy,
                base,
            )
        })
        .collect()
}

/// An attempt that timed out but whose channel is still open — a late
/// answer is still collectable and must update its attempt record.
struct Laggard {
    pending: PendingReply,
    /// Index of this attempt's record in the attempts vector.
    index: usize,
    /// When the attempt was sent (for resolving its final duration).
    sent_at: Instant,
}

#[allow(clippy::too_many_arguments)]
fn settle_shard(
    transport: &dyn Transport,
    from: NodeId,
    auth: AuthToken,
    shard: u32,
    replicas: &[NodeId],
    payload: &RequestPayload,
    primary: Option<PendingReply>,
    policy: &HedgePolicy,
    base: Instant,
) -> Result<ShardFetch, ShardUnavailable> {
    let deadline = Instant::now() + policy.deadline;
    let mut attempts: Vec<AttemptRecord> = Vec::new();
    let mut laggards: Vec<Laggard> = Vec::new();

    // The primary was sent at `base` (phase 1); hedges are sent here.
    let mut attempt = primary.map(|pending| (pending, base));
    let mut next_replica = 1usize;
    while let Some((mut pending, sent_at)) = attempt.take() {
        let peer = pending.peer();
        let index = attempts.len();
        let resolved = classify(pending.wait(policy.hedge_after));
        attempts.push(AttemptRecord {
            peer,
            started: sent_at.saturating_duration_since(base),
            duration: sent_at.elapsed(),
            outcome: match &resolved {
                Ok(_) => AttemptOutcome::Answered,
                Err(error) => AttemptOutcome::Failed(*error),
            },
        });
        match resolved {
            Ok(answer) => {
                return Ok(settled(shard, peer, answer, attempts, laggards));
            }
            Err(TransportError::Timeout(_)) => {
                // Silent so far — keep listening while hedging on.
                laggards.push(Laggard {
                    pending,
                    index,
                    sent_at,
                });
            }
            Err(_) => {}
        }
        if let Some(&node) = replicas.get(next_replica) {
            next_replica += 1;
            let now = Instant::now();
            attempt = Some((transport.begin(from, node, auth, Arc::clone(payload)), now));
        }
    }

    // Every replica has been tried; poll the laggards out to the
    // deadline in case a slow-but-alive replica still answers.
    while !laggards.is_empty() && Instant::now() < deadline {
        let mut index = 0;
        while index < laggards.len() {
            match laggards[index].pending.try_take() {
                None => index += 1,
                Some(result) => {
                    let laggard = laggards.swap_remove(index);
                    let peer = laggard.pending.peer();
                    // One attempt, one verdict: the late resolution
                    // supersedes the provisional Timeout record.
                    attempts[laggard.index].duration = laggard.sent_at.elapsed();
                    match classify(result) {
                        Ok(answer) => {
                            attempts[laggard.index].outcome = AttemptOutcome::Answered;
                            return Ok(settled(shard, peer, answer, attempts, laggards));
                        }
                        Err(error) => {
                            attempts[laggard.index].outcome = AttemptOutcome::Failed(error);
                        }
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }

    Err(ShardUnavailable { shard, attempts })
}

/// Builds the success record: drains already-arrived late answers from
/// the hedged-away laggards (their records flip from the provisional
/// Timeout to [`AttemptOutcome::Duplicate`]).
fn settled(
    shard: u32,
    peer: NodeId,
    answer: ShardAnswer,
    mut attempts: Vec<AttemptRecord>,
    laggards: Vec<Laggard>,
) -> ShardFetch {
    for mut laggard in laggards {
        if let Some(result) = laggard.pending.try_take() {
            attempts[laggard.index].duration = laggard.sent_at.elapsed();
            attempts[laggard.index].outcome = match classify(result) {
                Ok(_) => AttemptOutcome::Duplicate,
                Err(error) => AttemptOutcome::Failed(error),
            };
        }
    }
    ShardFetch {
        shard,
        peer,
        answer,
        attempts,
    }
}

/// What the gather stage produced, with its work accounting.
#[derive(Debug, Clone)]
pub(crate) struct GatherOutcome {
    /// The global top-k, sorted by `(score desc, doc asc)`.
    pub ranked: Vec<RankedDoc>,
    /// Candidates shipped by all peers (`≤ peers · k`).
    pub candidates_received: usize,
    /// Candidates the merge actually examined (`≤ k`): the rest were
    /// pruned by the threshold bound without being looked at.
    pub candidates_examined: usize,
}

/// Reusable scratch for [`gather_topk`]: the per-peer head cursors.
/// One lives per querying thread so the fan-out/gather path does not
/// allocate per query.
#[derive(Debug, Default)]
pub(crate) struct GatherScratch {
    cursors: Vec<usize>,
}

/// Merges per-peer candidate lists into the global top-`k`.
///
/// Each inner list must be sorted by [`RankedDoc::result_order`]
/// (debug-asserted) — the order peers produce. Lists may be shorter
/// than `k` (small shards) or empty.
pub(crate) fn gather_topk(
    scratch: &mut GatherScratch,
    per_peer: &[Vec<RankedDoc>],
    k: usize,
) -> GatherOutcome {
    debug_assert!(per_peer
        .iter()
        .all(|list| list.windows(2).all(|w| !w[1].ranks_before(&w[0]))));

    let candidates_received = per_peer.iter().map(Vec::len).sum();
    scratch.cursors.clear();
    scratch.cursors.resize(per_peer.len(), 0);
    let cursors = &mut scratch.cursors;
    // "Everything" is a legal `k` (`usize::MAX`): reserve for what can
    // be returned, not for what was asked.
    let mut ranked: Vec<RankedDoc> = Vec::with_capacity(k.min(candidates_received));

    while ranked.len() < k {
        // Sorted access over every peer's head; the best head is the
        // best remaining candidate overall.
        let mut best: Option<(usize, RankedDoc)> = None;
        for (peer, list) in per_peer.iter().enumerate() {
            if let Some(&head) = list.get(cursors[peer]) {
                let better = match &best {
                    None => true,
                    Some((_, current)) => head.ranks_before(current),
                };
                if better {
                    best = Some((peer, head));
                }
            }
        }
        let Some((peer, candidate)) = best else { break };
        cursors[peer] += 1;
        ranked.push(candidate);
    }

    if let (Some(bound), Some(last)) = (threshold_bound(per_peer, cursors), ranked.last()) {
        debug_assert!(
            last.score >= bound,
            "gather certificate violated: kth = {}, τ = {bound}",
            last.score
        );
    }

    GatherOutcome {
        candidates_examined: ranked.len(),
        ranked,
        candidates_received,
    }
}

/// The threshold `τ` once the merge stopped with its heads at
/// `cursors`: the best score any unexamined candidate could have,
/// `None` when every candidate was examined. `kth score ≥ τ` is the
/// gather's correctness certificate.
fn threshold_bound(per_peer: &[Vec<RankedDoc>], cursors: &[usize]) -> Option<f64> {
    per_peer
        .iter()
        .zip(cursors)
        .filter_map(|(list, &cursor)| list.get(cursor))
        .map(|head| head.score)
        .fold(None, |acc: Option<f64>, s| {
            Some(acc.map_or(s, |a| a.max(s)))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_index::DocId;

    fn doc(doc: u32, score: f64) -> RankedDoc {
        RankedDoc {
            doc: DocId(doc),
            score,
        }
    }

    /// One merge on a fresh scratch, with the threshold it stopped at.
    fn gather(per_peer: &[Vec<RankedDoc>], k: usize) -> (GatherOutcome, Option<f64>) {
        let mut scratch = GatherScratch::default();
        let outcome = gather_topk(&mut scratch, per_peer, k);
        (outcome, threshold_bound(per_peer, &scratch.cursors))
    }

    #[test]
    fn merges_disjoint_shards_in_global_order() {
        let peers = vec![
            vec![doc(1, 0.9), doc(4, 0.5)],
            vec![doc(2, 0.8), doc(5, 0.1)],
            vec![doc(3, 0.7)],
        ];
        let (outcome, bound) = gather(&peers, 3);
        let docs: Vec<u32> = outcome.ranked.iter().map(|r| r.doc.0).collect();
        assert_eq!(docs, vec![1, 2, 3]);
        assert_eq!(outcome.candidates_received, 5);
        assert_eq!(outcome.candidates_examined, 3);
        // τ = 0.5 (doc 4), and the 3rd result scores 0.7 ≥ τ.
        assert_eq!(bound, Some(0.5));
    }

    #[test]
    fn ties_across_peers_break_by_doc_id() {
        let peers = vec![vec![doc(9, 0.5)], vec![doc(2, 0.5)], vec![doc(5, 0.5)]];
        let (outcome, _) = gather(&peers, 2);
        let docs: Vec<u32> = outcome.ranked.iter().map(|r| r.doc.0).collect();
        assert_eq!(docs, vec![2, 5]);
    }

    #[test]
    fn k_exceeding_supply_returns_everything() {
        let peers = vec![vec![doc(1, 0.3)], vec![]];
        let (outcome, bound) = gather(&peers, 10);
        assert_eq!(outcome.ranked.len(), 1);
        assert_eq!(bound, None);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(gather(&[], 5).0.ranked.is_empty());
        let (outcome, _) = gather(&[vec![], vec![]], 5);
        assert!(outcome.ranked.is_empty());
        assert_eq!(outcome.candidates_examined, 0);
    }

    #[test]
    fn k_zero_examines_nothing() {
        let peers = vec![vec![doc(1, 1.0)]];
        let (outcome, bound) = gather(&peers, 0);
        assert!(outcome.ranked.is_empty());
        assert_eq!(outcome.candidates_examined, 0);
        assert_eq!(bound, Some(1.0));
    }
}
