//! Seeded chaos tests: the replicated query path under deterministic
//! fault injection.
//!
//! Two properties, split by what the fault schedule may contain:
//!
//! - **Fail closed, never wrong** (full mix: drops, torn writes,
//!   duplicates, delays): a query either returns the top-k
//!   *bit-identical* to the single-node oracle, or it returns
//!   [`QueryError::Unavailable`]. There is no third outcome — faults
//!   may cost availability, never correctness.
//! - **Survive with a live replica** (delays, duplicates, and muted
//!   peers only, with at least one unmuted replica per shard): every
//!   query succeeds, bit-identical to the oracle.
//!
//! Plus a pinned-seed regression run: one fixed seed whose schedule is
//! known to exercise every fault family, replayed twice to prove the
//! schedule (and the surviving results) are a pure function of the
//! seed. If this test ever fails, minimize the seed as described in
//! [`zerber::runtime::fault`]: keep the seed fixed, zero out one fault
//! family's rate at a time (families are mutually exclusive per
//! request, so removing one leaves the others' schedules intact), then
//! shrink the query count — per-link sequence numbers make any prefix
//! of the workload replay identically.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use zerber::runtime::{
    local_topk, ChaosAction, FaultInjectTransport, FaultPlan, HedgePolicy, QueryError,
    ShardedSearch,
};
use zerber::ZerberConfig;
use zerber_index::{DocId, Document, GroupId, TermId};
use zerber_net::NodeId;

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

/// Hedging tuned so the schedule is timing-independent: injected
/// failures resolve immediately (dropped attempts fail fast, not by
/// waiting), and `delay_for` stays well under `hedge_after` so a
/// delayed response never races the hedge decision.
fn chaos_policy() -> HedgePolicy {
    HedgePolicy {
        hedge_after: Duration::from_millis(15),
        deadline: Duration::from_millis(500),
    }
}

fn launch_chaotic(
    config: &ZerberConfig,
    docs: &[Document],
    plan: FaultPlan,
) -> (ShardedSearch, Arc<FaultInjectTransport>) {
    let mut harness = None;
    let mut search = ShardedSearch::launch_with_transport(config, docs, |inner| {
        let chaos = Arc::new(FaultInjectTransport::new(inner, plan));
        harness = Some(Arc::clone(&chaos));
        chaos
    })
    .expect("valid config");
    search.set_hedge_policy(chaos_policy());
    (search, harness.expect("wrap ran"))
}

/// What one query under chaos is allowed to look like.
#[derive(Debug, PartialEq, Eq)]
enum Observed {
    /// Succeeded: the ranked (doc, score-bits) pairs.
    Ok(Vec<(u32, u64)>),
    /// Failed closed: which shard was unavailable.
    Unavailable(u32),
}

fn observe(result: Result<zerber::runtime::ShardedQueryOutcome, QueryError>) -> Observed {
    match result {
        Ok(outcome) => Observed::Ok(
            outcome
                .ranked
                .iter()
                .map(|r| (r.doc.0, r.score.to_bits()))
                .collect(),
        ),
        Err(QueryError::Unavailable(shard)) => Observed::Unavailable(shard.shard),
    }
}

fn oracle_bits(docs: &[Document], terms: &[TermId], k: usize) -> Vec<(u32, u64)> {
    local_topk(docs, terms, k)
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

/// The pinned regression seed. Its schedule (4 peers, replication 2,
/// 40 queries) exercises every fault family — asserted below, so a
/// change to the roll function that silently stops covering a family
/// fails this test rather than weakening the suite.
const PINNED_SEED: u64 = 0x00C0_FFEE;

fn pinned_plan() -> FaultPlan {
    FaultPlan {
        seed: PINNED_SEED,
        drop_request: 60,
        drop_response: 60,
        duplicate: 80,
        torn: 50,
        delay: 150,
        delay_for: Duration::from_millis(2),
    }
}

/// One full run of the pinned workload: every query observed, plus the
/// fault counts the schedule produced and the deployment's final
/// metrics snapshot.
fn pinned_run() -> (
    Vec<Observed>,
    zerber::runtime::fault::FaultCounts,
    zerber_obs::MetricsSnapshot,
) {
    let docs = corpus(130, 17);
    let config = ZerberConfig::default().with_peers(4).with_replication(2);
    let (search, chaos) = launch_chaotic(&config, &docs, pinned_plan());
    // The launch load went through the host's own transport: the
    // schedule's clock starts at the first query.
    assert_eq!(chaos.requests_seen(), 0);
    assert_eq!(
        chaos.counts(),
        zerber::runtime::fault::FaultCounts::default()
    );
    chaos.arm();
    let observed = (0..40u32)
        .map(|q| {
            let terms = [TermId(q % 17), TermId((q * 5 + 2) % 17)];
            let seen = observe(search.query(&terms, 10));
            if let Observed::Ok(bits) = &seen {
                assert_eq!(
                    bits,
                    &oracle_bits(&docs, &terms, 10),
                    "chaos may cost availability, never correctness (query {q})"
                );
            }
            seen
        })
        .collect();
    let snapshot = search.obs().registry().snapshot();
    (observed, chaos.counts(), snapshot)
}

#[test]
fn pinned_seed_replays_identically_and_covers_every_fault_family() {
    let (first, counts, metrics) = pinned_run();
    assert!(
        counts.dropped_requests > 0,
        "schedule never dropped a request"
    );
    assert!(
        counts.dropped_responses > 0,
        "schedule never dropped a response"
    );
    assert!(counts.duplicated > 0, "schedule never duplicated");
    assert!(counts.torn > 0, "schedule never tore a frame");
    assert!(counts.delayed > 0, "schedule never delayed");
    assert!(
        first.iter().any(|o| matches!(o, Observed::Ok(_))),
        "the schedule must leave some queries alive"
    );

    // The injected faults are visible in the metrics registry: every
    // destroyed attempt was counted, every failover hedged, and every
    // query — survivor or failed-closed — completed.
    assert_eq!(metrics.counter("zerber_query_total"), Some(40));
    assert!(
        metrics
            .counter("zerber_gather_failed_attempts_total")
            .unwrap_or(0)
            > 0,
        "dropped requests/responses must surface as failed attempts"
    );
    assert!(
        metrics.counter("zerber_gather_hedges_total").unwrap_or(0) > 0,
        "failed primaries must surface as hedges"
    );
    let latency = metrics
        .histogram("zerber_query_latency_ns")
        .expect("query latency histogram");
    assert_eq!(latency.count, 40, "one latency sample per query");

    // Same seed, same workload, fresh deployment: the entire schedule
    // and every surviving result replay bit-identically.
    let (second, counts_again, _) = pinned_run();
    assert_eq!(first, second);
    assert_eq!(counts, counts_again);
}

/// A replica that dies between receiving the bulk fan-out and the
/// owner's gather — muted, the closest in-process model of "killed
/// mid-bulk-load". Under the retry-then-repair write discipline the
/// load **succeeds** on the surviving replicas and the silent one is
/// *tainted*: excluded from query fan-out, because the controller
/// cannot know whether it holds the write. Repair re-ships its shards
/// from a live replica and readmits it, converged bit-identically —
/// re-shipping is idempotent, so a replica that (like this one) did
/// apply the batch before going silent converges all the same.
#[test]
fn replica_killed_mid_bulk_load_taints_then_repairs_clean() {
    let dir = zerber_segment::ScratchDir::new("chaos-bulk");
    let config = ZerberConfig::default()
        .with_peers(3)
        .with_replication(2)
        .with_postings(zerber::PostingBackend::Segmented {
            dir: dir.to_path_buf(),
            compaction: zerber::SegmentPolicy {
                flush_postings: 32,
                max_segments: 2,
                background: true,
                sync_wal: false,
            },
        });
    let initial = corpus(60, 12);
    let (search, chaos) = launch_chaotic(&config, &initial, FaultPlan::quiet(7));
    // Never armed: only the explicit mute below fires.
    chaos.mute(NodeId::IndexServer(1));

    let bulk: Vec<Document> = (200..260u32)
        .map(|d| {
            Document::from_term_counts(
                DocId(d),
                GroupId(0),
                vec![(TermId(d % 11), 2 + d % 3), (TermId(11), 1)],
            )
        })
        .collect();
    search
        .bulk_load(0, &bulk)
        .expect("the surviving replicas acknowledge the load");
    assert!(
        search.tainted_peers().contains(&1),
        "the silent replica missed an acknowledged write and must be tainted"
    );

    // Queries keep serving bit-identically to the oracle *without* the
    // tainted peer ever answering.
    let live: Vec<Document> = initial.iter().chain(bulk.iter()).cloned().collect();
    assert_eq!(search.document_count(), live.len());
    for q in 0..12u32 {
        let terms = [TermId(q), TermId((q * 5 + 2) % 12)];
        assert_eq!(
            observe(search.query(&terms, 10)),
            Observed::Ok(oracle_bits(&live, &terms, 10)),
            "query {q} while degraded"
        );
    }

    // Revive and repair: the shard re-ships from a live replica, the
    // taint clears, and the readmitted peer serves converged state.
    chaos.revive(NodeId::IndexServer(1));
    let shipped = search
        .repair_peer(1)
        .expect("repair re-ships the tainted replica");
    assert!(shipped.bytes > 0, "the rebuild streamed real segment bytes");
    assert!(search.tainted_peers().is_empty());
    for q in 0..12u32 {
        let terms = [TermId(q), TermId((q * 5 + 2) % 12)];
        assert_eq!(
            observe(search.query(&terms, 10)),
            Observed::Ok(oracle_bits(&live, &terms, 10)),
            "query {q} after repair"
        );
    }
}

/// A replica that misses its first `BulkLoad` send and is back before
/// the retry: the retry re-encodes the frame from the caller's
/// documents, lands, and nothing is tainted. The revived replica then
/// holds the load on its own, bit-identically to the oracle, with the
/// other replica killed.
#[test]
fn a_bulk_load_retry_that_lands_taints_nothing() {
    let config = ZerberConfig::default().with_peers(2).with_replication(2);
    let initial = corpus(60, 12);
    let (search, chaos) = launch_chaotic(&config, &initial, FaultPlan::quiet(11));
    assert_eq!(chaos.requests_seen(), 0, "launch loads behind the harness");

    // One shard, so the load is exactly two sends, one per replica:
    // whichever goes to peer 1 fails, and the retry is the third.
    let map = search.shard_map();
    let bulk: Vec<Document> = (200..400u32)
        .filter(|&d| map.shard_of(DocId(d)) == 0)
        .map(|d| {
            Document::from_term_counts(
                DocId(d),
                GroupId(0),
                vec![(TermId(d % 11), 2 + d % 3), (TermId(11), 1)],
            )
        })
        .collect();
    assert!(!bulk.is_empty());
    let peer = NodeId::IndexServer(1);
    chaos.at_request(1, ChaosAction::Kill(peer));
    chaos.at_request(3, ChaosAction::Revive(peer));
    assert_eq!(
        search.bulk_load(0, &bulk).expect("the retry lands"),
        bulk.len()
    );
    assert_eq!(chaos.requests_seen(), 3, "two sends and one retry");
    assert!(search.tainted_peers().is_empty());

    let live: Vec<Document> = initial.iter().chain(bulk.iter()).cloned().collect();
    assert_eq!(search.document_count(), live.len());
    let check = |when: &str| {
        for q in 0..12u32 {
            let terms = [TermId(q), TermId((q * 5 + 2) % 12)];
            assert_eq!(
                observe(search.query(&terms, 10)),
                Observed::Ok(oracle_bits(&live, &terms, 10)),
                "query {q} {when}"
            );
        }
    };
    check("with both replicas");
    chaos.kill(NodeId::IndexServer(0));
    check("from the retried replica alone");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: under the *full* fault mix — requests lost, responses
    /// lost, frames torn mid-write, retransmit races, delays — every
    /// query either matches the oracle bit-for-bit or fails closed.
    #[test]
    fn chaos_never_corrupts_results(
        seed in any::<u64>(),
        peers in 2usize..5,
        docs in 30u32..120,
        terms in 6u32..18,
        queries in prop::collection::vec((0u32..18, 0u32..18), 1..4),
    ) {
        let docs = corpus(docs, terms);
        let config = ZerberConfig::default()
            .with_peers(peers)
            .with_replication(2);
        let plan = FaultPlan {
            seed,
            drop_request: 80,
            drop_response: 80,
            duplicate: 100,
            torn: 60,
            delay: 150,
            delay_for: Duration::from_millis(2),
        };
        let (search, chaos) = launch_chaotic(&config, &docs, plan);
        chaos.arm();
        for &(a, b) in &queries {
            let query = [TermId(a % terms), TermId(b % terms)];
            match search.query(&query, 8) {
                Ok(outcome) => {
                    let got: Vec<(u32, u64)> = outcome
                        .ranked
                        .iter()
                        .map(|r| (r.doc.0, r.score.to_bits()))
                        .collect();
                    prop_assert_eq!(got, oracle_bits(&docs, &query, 8));
                }
                Err(QueryError::Unavailable(shard)) => {
                    // Fail closed comes with evidence, not silence.
                    prop_assert!(!shard.attempts.is_empty());
                }
            }
        }
    }

    /// Property: with at least one unmuted replica per shard and only
    /// non-destructive faults (delays, retransmit races), every query
    /// succeeds and stays bit-identical — a slow or half-dead replica
    /// is invisible in the results.
    #[test]
    fn one_live_replica_per_shard_is_enough(
        seed in any::<u64>(),
        peers in 2usize..6,
        replication in 2usize..4,
        docs in 30u32..120,
        terms in 6u32..18,
        mute_pick in any::<u64>(),
        queries in prop::collection::vec((0u32..18, 0u32..18), 1..4),
    ) {
        let docs = corpus(docs, terms);
        let config = ZerberConfig::default()
            .with_peers(peers)
            .with_replication(replication);
        let plan = FaultPlan {
            seed,
            duplicate: 200,
            delay: 250,
            delay_for: Duration::from_millis(2),
            ..FaultPlan::quiet(seed)
        };
        let (search, chaos) = launch_chaotic(&config, &docs, plan);

        // Mute up to R-1 peers. A shard's replicas are R *consecutive*
        // peers, so any muted set smaller than R leaves every shard at
        // least one live replica.
        let effective = replication.min(peers);
        let mute_count = (mute_pick as usize) % effective; // 0..=R-1
        let muted: Vec<NodeId> = (0..mute_count)
            .map(|i| {
                let peer = (mute_pick.rotate_right(8 * (i as u32 + 1)) as usize) % peers;
                NodeId::IndexServer(peer as u32)
            })
            .collect();
        for &node in &muted {
            chaos.mute(node);
        }
        chaos.arm();

        for &(a, b) in &queries {
            let query = [TermId(a % terms), TermId(b % terms)];
            let outcome = search
                .query(&query, 8)
                .expect("a live replica per shard means no lost shard");
            let got: Vec<(u32, u64)> = outcome
                .ranked
                .iter()
                .map(|r| (r.doc.0, r.score.to_bits()))
                .collect();
            prop_assert_eq!(got, oracle_bits(&docs, &query, 8));
            // Every muted peer that was some shard's primary forced a
            // hedge; the dedup accounting keeps gathered responses at
            // one per shard regardless.
            prop_assert!(outcome.peers_contacted == peers);
        }
    }
}
