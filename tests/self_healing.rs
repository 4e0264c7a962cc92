//! Self-healing integration tests: replica rebuild after a kill,
//! join/leave rebalancing, degraded-mode policy, heartbeat debounce,
//! and the churn property — arbitrary kill→write→revive cycles with at
//! least one live replica per shard stay bit-identical to the oracle,
//! and a repaired cluster converges identical to a from-scratch
//! rebuild over the same documents.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use zerber::runtime::{
    local_topk, ChaosAction, DegradedMode, FaultInjectTransport, FaultPlan, HedgePolicy,
    PeerStatus, QueryError, RepairError, ShardedSearch,
};
use zerber::ZerberConfig;
use zerber_index::{DocId, Document, GroupId, TermId};
use zerber_net::NodeId;
use zerber_query::{Forced, Query};

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

fn fast_hedging() -> HedgePolicy {
    HedgePolicy {
        hedge_after: Duration::from_millis(3),
        deadline: Duration::from_secs(5),
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
    search.set_hedge_policy(fast_hedging());
    (search, harness.expect("wrap ran"))
}

fn oracle_bits(docs: &[Document], terms: &[TermId], k: usize) -> Vec<(u32, u64)> {
    local_topk(docs, terms, k)
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

fn ranked_bits(outcome: &zerber::runtime::ShardedQueryOutcome) -> Vec<(u32, u64)> {
    outcome
        .ranked
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

fn tagged(id: u32) -> Document {
    Document::from_term_counts(
        DocId(id),
        GroupId(0),
        vec![(TermId(id % 13), 1 + id % 3), (TermId(20), 1)],
    )
}

/// The tentpole sequence, deterministically: kill a replica for real
/// (its thread exits), keep writing — the survivors acknowledge and
/// the dead peer is tainted — then revive it. The revived peer
/// respawns mid-rebuild, streams every hosted shard from a live
/// replica, replays the writes it missed, and is readmitted. The
/// repaired cluster answers bit-identically both to the oracle and to
/// a cluster built from scratch over the final document set.
#[test]
fn kill_revive_rebuild_converges_to_from_scratch() {
    let docs = corpus(120, 13);
    let config = ZerberConfig::default().with_peers(5).with_replication(2);
    let mut search = ShardedSearch::launch(&config, &docs).expect("valid config");
    search.set_hedge_policy(fast_hedging());

    search.kill_peer(2);
    let mut live = docs.clone();
    for id in 500..520u32 {
        let doc = tagged(id);
        search
            .insert_documents(0, std::slice::from_ref(&doc))
            .expect("a surviving replica acknowledges");
        live.push(doc);
    }
    assert!(
        search.tainted_peers().contains(&2),
        "the dead peer missed acknowledged writes and must be tainted"
    );

    let shipped = search.revive_peer(2).expect("rebuild from a live replica");
    assert!(
        shipped.bytes > 0,
        "the rebuild streamed real snapshot bytes"
    );
    assert!(shipped.segments > 0);
    assert!(
        search.tainted_peers().is_empty(),
        "a completed repair clears the taint"
    );

    // Converged: identical to the oracle and to a from-scratch build.
    let fresh = ShardedSearch::launch(&config, &live).expect("valid config");
    for q in 0..10u32 {
        let terms = [TermId(q % 13), TermId((q * 5 + 2) % 13)];
        let repaired = search.query(&terms, 10).expect("healthy after repair");
        assert_eq!(
            ranked_bits(&repaired),
            oracle_bits(&live, &terms, 10),
            "query {q} after repair"
        );
        let scratch = fresh.query(&terms, 10).expect("healthy");
        assert_eq!(
            ranked_bits(&repaired),
            ranked_bits(&scratch),
            "repaired cluster must equal a from-scratch rebuild (query {q})"
        );
    }
}

/// A rebuilt replica stays observed: the store restored from the
/// shipped snapshot reports its WAL appends into the deployment's
/// registry exactly like the store it replaces. With the other replica
/// dead, the revived one is the only store left to record the write.
#[test]
fn a_revived_replica_keeps_reporting_its_segment_metrics() {
    let docs = corpus(60, 9);
    let dir = zerber_segment::ScratchDir::new("revived-metrics");
    let config = ZerberConfig::default()
        .with_peers(2)
        .with_replication(2)
        .with_postings(zerber::PostingBackend::Segmented {
            dir: dir.to_path_buf(),
            compaction: zerber::SegmentPolicy {
                background: false,
                ..zerber::SegmentPolicy::default()
            },
        });
    let search = ShardedSearch::launch(&config, &docs).expect("valid config");
    let wal_appends = |search: &ShardedSearch| {
        let metrics = search.obs().registry().snapshot();
        let appends = metrics.histogram("zerber_segment_wal_append_ns");
        appends.expect("segmented peers register it").count
    };

    // A peer answers only once every store it hosts is seeded.
    search.query(&[TermId(1)], 3).expect("healthy");
    let before = wal_appends(&search);
    search.kill_peer(0);
    search.revive_peer(0).expect("rebuild from peer 1");
    search.kill_peer(1);
    search
        .insert_documents(0, &[tagged(900), tagged(901)])
        .expect("the revived replica acknowledges");
    assert!(
        wal_appends(&search) > before,
        "the revived replica journaled the batch but reported nothing"
    );
}

/// A peer joining the ring: the joiner spawns write-buffering, moved
/// shards stream from live sources while queries keep serving the old
/// assignment, and after cutover both reads and writes use the new
/// placement — bit-identical throughout.
#[test]
fn join_rebalances_and_keeps_serving() {
    let docs = corpus(100, 11);
    let config = ZerberConfig::default().with_peers(3).with_replication(2);
    let mut search = ShardedSearch::launch(&config, &docs).expect("valid config");
    search.set_hedge_policy(fast_hedging());
    let terms = [TermId(2), TermId(7)];
    assert_eq!(
        ranked_bits(&search.query(&terms, 8).expect("healthy")),
        oracle_bits(&docs, &terms, 8)
    );
    assert_eq!(search.peer_count(), 3);

    let shipped = search.join_peer(3).expect("join rebalances");
    assert!(shipped.bytes > 0, "the joiner received real shard bytes");
    assert_eq!(search.peer_count(), 4);
    assert!(search.shard_map().contains_peer(3));

    // Reads after cutover match the oracle; writes land on the new
    // placement and are immediately visible.
    let mut live = docs.clone();
    for id in 700..712u32 {
        let doc = tagged(id);
        search
            .insert_documents(0, std::slice::from_ref(&doc))
            .expect("writes land after the join");
        live.push(doc);
    }
    for q in 0..8u32 {
        let terms = [TermId(q % 11), TermId((q * 3 + 1) % 11)];
        assert_eq!(
            ranked_bits(&search.query(&terms, 8).expect("healthy")),
            oracle_bits(&live, &terms, 8),
            "query {q} after join"
        );
    }
}

/// A peer leaving gracefully: its shards re-home onto the survivors
/// (the leaver is a valid source until cutover), then it is shut down
/// and evicted — no availability gap, no result drift.
#[test]
fn leave_rehomes_shards_before_shutdown() {
    let docs = corpus(110, 12);
    let config = ZerberConfig::default().with_peers(4).with_replication(2);
    let mut search = ShardedSearch::launch(&config, &docs).expect("valid config");
    search.set_hedge_policy(fast_hedging());

    let shipped = search.leave_peer(1).expect("leave re-homes");
    assert!(shipped.bytes > 0, "re-homed shards shipped real bytes");
    assert_eq!(search.peer_count(), 3);
    assert!(!search.shard_map().contains_peer(1));

    let mut live = docs.clone();
    for id in 800..812u32 {
        let doc = tagged(id);
        search
            .insert_documents(0, std::slice::from_ref(&doc))
            .expect("writes land after the leave");
        live.push(doc);
    }
    for q in 0..8u32 {
        let terms = [TermId(q % 12), TermId((q * 5 + 3) % 12)];
        assert_eq!(
            ranked_bits(&search.query(&terms, 8).expect("healthy")),
            oracle_bits(&live, &terms, 8),
            "query {q} after leave"
        );
    }
}

/// Reviving a peer the map does not know is refused with a typed error,
/// like repairing, joining or leaving one, and spawns nothing: the
/// deployment keeps serving exactly as before.
#[test]
fn reviving_an_unmapped_peer_is_a_protocol_error() {
    let docs = corpus(40, 7);
    let config = ZerberConfig::default().with_peers(3);
    let search = ShardedSearch::launch(&config, &docs).expect("valid config");
    assert!(matches!(
        search.revive_peer(99),
        Err(RepairError::Protocol(_))
    ));
    assert_eq!(search.peer_count(), 3);
    let terms = [TermId(1), TermId(4)];
    assert_eq!(
        ranked_bits(&search.query(&terms, 5).expect("healthy")),
        oracle_bits(&docs, &terms, 5)
    );
}

/// Epoch integrity (fail-closed writes never invalidate the cache): a
/// write that fails — every replica of its shard unreachable — must
/// not bump the serving epoch, so results cached before the failure
/// keep hitting. An epoch bump on a nack would evict correct cached
/// answers for a mutation that never happened.
#[test]
fn failed_write_keeps_epoch_and_cached_results() {
    let docs = corpus(90, 9);
    let config = ZerberConfig::default().with_peers(3); // replication = 1
    let mut search = ShardedSearch::launch(&config, &docs).expect("valid config");
    search.set_hedge_policy(fast_hedging());

    // Warm the cache while healthy.
    let query = Query::Terms {
        terms: vec![TermId(2), TermId(5)],
        k: 6,
    };
    let warm = search
        .query_shaped(0, query.clone(), Forced::Auto)
        .expect("healthy");
    assert!(warm.peers_contacted > 0, "the warm query fanned out");
    let epoch = search.serving_epoch();
    assert_eq!(search.result_cache().len(), 1);

    // Kill the only replica of some shard and aim a write at it.
    search.kill_peer(2);
    let doomed_id = (1000..)
        .find(|&id| search.shard_map().shard_of(DocId(id)) == 2)
        .expect("some id maps to the dead shard");
    let doomed = tagged(doomed_id);
    assert!(
        search
            .insert_documents(0, std::slice::from_ref(&doomed))
            .is_err(),
        "no replica of the shard is alive: the insert must fail closed"
    );
    assert!(search.bulk_load(0, std::slice::from_ref(&doomed)).is_err());
    assert_eq!(
        search.serving_epoch(),
        epoch,
        "a failed-closed write must not bump the serving epoch"
    );

    // The pre-failure cache entry still hits — served without fan-out,
    // so even the dead shard does not matter.
    let hit = search
        .query_shaped(0, query, Forced::Auto)
        .expect("cache hit needs no peers");
    assert_eq!(hit.peers_contacted, 0, "served from the result cache");
    assert_eq!(ranked_bits(&hit), ranked_bits(&warm));
}

/// [`DegradedMode::FlaggedPartial`]: the same lost unreplicated shard
/// that fails closed by default instead serves the covered shards,
/// flags the uncovered one, reports the dead replica — and never
/// fills the result cache with the partial answer.
#[test]
fn flagged_partial_serves_covered_shards_without_caching() {
    let docs = corpus(80, 7);
    let config = ZerberConfig::default().with_peers(3); // replication = 1
    let mut search = ShardedSearch::launch(&config, &docs).expect("valid config");
    search.set_hedge_policy(fast_hedging());
    search.kill_peer(2);

    let terms = [TermId(1), TermId(4)];
    match search.query(&terms, 6) {
        Err(QueryError::Unavailable(shard)) => assert_eq!(shard.shard, 2),
        other => panic!("FailClosed is the default, got {other:?}"),
    }

    search.set_degraded_mode(DegradedMode::FlaggedPartial);
    let outcome = search.query(&terms, 6).expect("flagged partial serves");
    assert_eq!(outcome.partial_shards, vec![2]);
    assert!(outcome
        .failed_peers
        .iter()
        .any(|(node, _)| *node == NodeId::IndexServer(2)));

    // The answer is exactly the oracle restricted to the covered
    // shards: global ranking, minus the lost shard's documents.
    let map = search.shard_map();
    let expected: Vec<(u32, u64)> = local_topk(&docs, &terms, docs.len())
        .iter()
        .filter(|r| map.shard_of(r.doc) != 2)
        .take(6)
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect();
    assert_eq!(ranked_bits(&outcome), expected);

    // A partial answer is not *the* answer for this epoch: the shaped
    // path must refuse to cache it.
    let shaped = search
        .query_shaped(
            0,
            Query::Terms {
                terms: terms.to_vec(),
                k: 6,
            },
            Forced::Auto,
        )
        .expect("flagged partial serves the shaped path too");
    assert_eq!(shaped.partial_shards, vec![2]);
    assert_eq!(
        search.result_cache().len(),
        0,
        "a partial answer must never fill the result cache"
    );
}

/// Heartbeat debounce: one missed probe makes a peer `Suspect` (a slow
/// peer is not an outage), a streak declares it `Down`, and a single
/// answer snaps it back to `Up` — all visible in the
/// `zerber_membership_up` gauge.
#[test]
fn heartbeat_debounces_suspect_before_down() {
    let docs = corpus(60, 8);
    let config = ZerberConfig::default().with_peers(3).with_replication(2);
    let (search, chaos) = launch_chaotic(&config, &docs, FaultPlan::quiet(3));
    let victim = NodeId::IndexServer(1);

    let gauge = |search: &ShardedSearch| {
        search
            .obs()
            .registry()
            .snapshot()
            .gauge("zerber_membership_up")
            .expect("membership gauge registered")
    };
    let status_of = |beat: &[(NodeId, PeerStatus)], node: NodeId| {
        beat.iter()
            .find(|(n, _)| *n == node)
            .map(|(_, s)| *s)
            .expect("probed peer")
    };

    let beat = search.heartbeat();
    assert!(beat.iter().all(|&(_, s)| s == PeerStatus::Up));
    assert_eq!(gauge(&search), 3);

    chaos.kill(victim);
    let beat = search.heartbeat();
    assert_eq!(
        status_of(&beat, victim),
        PeerStatus::Suspect,
        "one missed probe is suspicion, not a verdict"
    );
    assert_eq!(status_of(&beat, NodeId::IndexServer(0)), PeerStatus::Up);
    // A suspect peer is no longer counted Up.
    assert_eq!(gauge(&search), 2);

    search.heartbeat();
    let beat = search.heartbeat();
    assert_eq!(
        status_of(&beat, victim),
        PeerStatus::Down,
        "a streak of missed probes declares the peer down"
    );
    assert_eq!(gauge(&search), 2);

    chaos.revive(victim);
    let beat = search.heartbeat();
    assert_eq!(
        status_of(&beat, victim),
        PeerStatus::Up,
        "any answer snaps a peer back to Up"
    );
    assert_eq!(gauge(&search), 3);
}

/// The per-replica terminal evidence rides the error all the way to
/// the operator: `QueryError::Unavailable` renders which shard, how
/// many attempts, and each replica's failure — and the failed query's
/// trace lands in the flight recorder / slow-query log with the root
/// span marked failed. The kill itself arrives via a scheduled
/// [`ChaosAction`], exercising the request-clock schedule end to end.
#[test]
fn unavailable_error_carries_the_per_replica_evidence() {
    let docs = corpus(70, 6);
    let config = ZerberConfig::default().with_peers(3); // replication = 1
    let (search, chaos) = launch_chaotic(&config, &docs, FaultPlan::quiet(9));
    // Dead as of the very first request this transport carries.
    chaos.at_request(1, ChaosAction::Kill(NodeId::IndexServer(2)));

    let err = search
        .query(&[TermId(1)], 5)
        .expect_err("the scheduled kill loses the unreplicated shard");
    assert!(chaos.requests_seen() > 0, "the schedule clock advanced");
    let rendered = err.to_string();
    assert!(
        rendered.contains("shard 2 unavailable after 1 attempts"),
        "missing shard/attempt summary: {rendered}"
    );
    assert!(
        rendered.contains("IndexServer(2)"),
        "missing per-replica evidence: {rendered}"
    );

    // The failure is also recorded for forensics: the flight recorder
    // holds the trace, its root is failed, and the rendering names the
    // unavailable shard.
    let traces = search.obs().flight_recorder().snapshot();
    let trace = traces.last().expect("the failed query was recorded");
    assert!(
        trace.root.is_failed(),
        "the root span must be marked failed"
    );
    assert!(
        trace.render().contains("unavailable"),
        "trace rendering must name the outage:\n{}",
        trace.render()
    );
    let slowest = search
        .obs()
        .slow_queries()
        .slowest()
        .expect("the failed query reached the slow-query log");
    assert!(slowest.render().contains("unavailable"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The churn property: arbitrary kill→write→query→revive cycles —
    /// one dead peer at a time, so replication 2 guarantees every
    /// shard a live replica — never lose a write, never drift from
    /// the oracle, bump the epoch exactly once per acknowledged write,
    /// and converge to a state bit-identical to a from-scratch rebuild
    /// over the final document set.
    #[test]
    fn membership_churn_stays_bit_identical(
        cycles in prop::collection::vec((0u32..4, 0u32..16, 0u32..16), 1..4),
    ) {
        let docs = corpus(80, 16);
        let config = ZerberConfig::default().with_peers(4).with_replication(2);
        let mut search = ShardedSearch::launch(&config, &docs).expect("valid config");
        search.set_hedge_policy(fast_hedging());

        let mut live = docs.clone();
        let mut next_id = 2000u32;
        let mut expected_epoch = search.serving_epoch();
        for (cycle, &(victim, qa, qb)) in cycles.iter().enumerate() {
            let victim = victim % 4;
            search.kill_peer(victim);

            // Writes while a replica is down: every one must be
            // acknowledged by a survivor and bump the epoch exactly
            // once.
            for _ in 0..5 {
                let doc = tagged(next_id);
                search
                    .insert_documents(0, std::slice::from_ref(&doc))
                    .expect("a surviving replica acknowledges");
                expected_epoch += 1;
                live.push(doc);
                next_id += 1;
            }
            prop_assert_eq!(search.serving_epoch(), expected_epoch);

            // Queries while degraded stay bit-identical.
            let terms = [TermId(qa % 16), TermId(qb % 16)];
            let degraded = search.query(&terms, 8).expect("a live replica per shard");
            prop_assert_eq!(ranked_bits(&degraded), oracle_bits(&live, &terms, 8));

            // Revive: rebuild streams, taint clears, and the repaired
            // peer serves the writes it missed.
            search.revive_peer(victim).expect("rebuild converges");
            prop_assert!(
                search.tainted_peers().is_empty(),
                "cycle {} left taint behind", cycle
            );
            let healed = search.query(&terms, 8).expect("healthy after repair");
            prop_assert_eq!(ranked_bits(&healed), oracle_bits(&live, &terms, 8));
        }

        // Convergence: the churned-and-repaired cluster is
        // indistinguishable from one built from scratch.
        let fresh = ShardedSearch::launch(&config, &live).expect("valid config");
        for q in 0..6u32 {
            let terms = [TermId(q % 16), TermId((q * 7 + 3) % 16)];
            let churned = search.query(&terms, 10).expect("healthy");
            let scratch = fresh.query(&terms, 10).expect("healthy");
            prop_assert_eq!(ranked_bits(&churned), ranked_bits(&scratch));
        }
    }
}
