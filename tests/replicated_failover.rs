//! Failover integration tests: a replicated deployment must survive a
//! peer dying *mid-query* — after the fan-out reached it, before the
//! gather heard back — returning the oracle top-k bit-identically and
//! reporting the dead peer rather than silently dropping it.

use std::sync::Arc;
use std::time::Duration;

use zerber::runtime::{
    local_topk, FaultInjectTransport, FaultPlan, HedgePolicy, IngestError, PeerRuntime,
    PeerService, PendingReply, QueryError, RuntimeObs, ShardedSearch, Transport, TransportError,
};
use zerber::ZerberConfig;
use zerber_index::{DocId, Document, GroupId, TermId};
use zerber_net::message::fault;
use zerber_net::{AuthToken, Message, NodeId, TrafficMeter};

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

/// Hedge accounting lives in the deployment's metrics registry now
/// (`zerber_gather_hedges_total`), not on the per-query outcome.
fn hedges_total(search: &ShardedSearch) -> u64 {
    search
        .obs()
        .registry()
        .snapshot()
        .counter("zerber_gather_hedges_total")
        .unwrap_or(0)
}

/// A replicated deployment with the chaos harness between the clients
/// and the peers.
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

#[test]
fn peer_killed_between_fanout_and_gather_does_not_lose_the_query() {
    let docs = corpus(150, 13);
    let config = ZerberConfig::default().with_peers(4).with_replication(2);
    let (mut search, chaos) = launch_chaotic(&config, &docs, FaultPlan::quiet(0));
    let terms = [TermId(2), TermId(9)];
    let expected = local_topk(&docs, &terms, 10);

    // Baseline: healthy replicated deployment matches the oracle. It
    // runs under the shipped hedging policy, so a healthy peer that a
    // busy machine slows past `fast_hedging`'s 3 ms is not a hedge.
    search.set_hedge_policy(HedgePolicy::default());
    let healthy = search.query(&terms, 10).expect("all peers alive");
    assert_eq!(healthy.ranked, expected);
    assert_eq!(hedges_total(&search), 0, "healthy cluster never hedges");
    assert!(healthy.failed_peers.is_empty());

    // Mute peer 1: the fan-out still *delivers* shard 1's query to it
    // and the peer executes — its answer just never comes back. That
    // is precisely "died between fan-out and gather".
    let dead = NodeId::IndexServer(1);
    chaos.mute(dead);
    search.set_hedge_policy(fast_hedging());
    let outcome = search.query(&terms, 10).expect("replica covers the shard");
    assert_eq!(outcome.ranked.len(), expected.len());
    for (got, want) in outcome.ranked.iter().zip(&expected) {
        assert_eq!(got.doc, want.doc);
        assert_eq!(got.score.to_bits(), want.score.to_bits(), "bit-identical");
    }
    // The dead peer is reported, not silently dropped.
    assert!(
        outcome.failed_peers.iter().any(|(node, _)| *node == dead),
        "dead peer missing from {:?}",
        outcome.failed_peers
    );
    assert!(hedges_total(&search) >= 1, "the shard must have hedged");
    // The failover is also visible in the query's own trace: the muted
    // peer's RPC span is marked failed.
    let fanout = outcome.trace.root.find("fan_out").expect("fan-out span");
    assert!(
        fanout
            .children
            .iter()
            .flat_map(|shard| &shard.children)
            .any(|rpc| rpc.name == format!("rpc {dead:?}") && rpc.is_failed()),
        "muted peer's failed attempt missing from trace:\n{}",
        outcome.trace.render()
    );
}

#[test]
fn hard_killed_peer_fails_over_too() {
    // kill_peer shuts the peer thread down for real: requests to it
    // fail immediately instead of timing out, and the hedge covers.
    let docs = corpus(120, 11);
    let config = ZerberConfig::default().with_peers(5).with_replication(2);
    let mut search = ShardedSearch::launch(&config, &docs).expect("valid config");
    search.set_hedge_policy(fast_hedging());
    let terms = [TermId(4), TermId(7)];
    let expected = local_topk(&docs, &terms, 8);

    search.kill_peer(3);
    let outcome = search.query(&terms, 8).expect("replicas cover every shard");
    assert_eq!(outcome.ranked, expected);
    assert!(outcome
        .failed_peers
        .iter()
        .any(|(node, _)| *node == NodeId::IndexServer(3)));

    // Writes to the dead peer's shards retry briefly, then *taint* the
    // unreachable replica and succeed on the survivors: availability
    // is preserved, and the replica that missed acknowledged writes is
    // excluded from query fan-out until repair re-ships it.
    for d in 500..520u32 {
        let doc = Document::from_term_counts(DocId(d), GroupId(0), vec![(TermId(1), 1)]);
        search
            .insert_documents(0, &[doc])
            .expect("a surviving replica acknowledges");
    }
    assert!(
        search.tainted_peers().contains(&3),
        "some shard replicates onto the dead peer, which must be tainted"
    );
    // Queries keep answering — and exactly match an oracle holding the
    // post-write collection — without ever consulting the stale peer.
    let mut live = docs.clone();
    for d in 500..520u32 {
        live.push(Document::from_term_counts(
            DocId(d),
            GroupId(0),
            vec![(TermId(1), 1)],
        ));
    }
    let post = search.query(&[TermId(1)], 12).expect("still serving");
    assert_eq!(post.ranked, local_topk(&live, &[TermId(1)], 12));
}

#[test]
fn unreplicated_shard_loss_fails_closed() {
    let docs = corpus(80, 7);
    let config = ZerberConfig::default().with_peers(3); // replication = 1
    let (search, chaos) = launch_chaotic(&config, &docs, FaultPlan::quiet(0));
    chaos.mute(NodeId::IndexServer(2));
    match search.query(&[TermId(1)], 5) {
        Err(QueryError::Unavailable(shard)) => {
            assert_eq!(shard.shard, 2);
            assert_eq!(shard.attempts.len(), 1, "one replica, one attempt");
            assert_eq!(shard.attempts[0].peer, NodeId::IndexServer(2));
        }
        other => panic!("a lost unreplicated shard must fail closed, got {other:?}"),
    }
}

#[test]
fn hedged_responses_are_metered_but_gathered_once() {
    // The hedging accounting: a muted primary's response still crosses
    // the wire (metered at the peer), but the gather uses exactly one
    // response per shard — wire bytes and gather accounting diverge by
    // design, and both must be visible.
    let docs = corpus(100, 9);
    let config = ZerberConfig::default().with_peers(3).with_replication(2);
    let (search, chaos) = launch_chaotic(&config, &docs, FaultPlan::quiet(0));
    let user = NodeId::User(0);
    let primary = NodeId::IndexServer(0);
    chaos.mute(primary);

    let terms = [TermId(3)];
    let outcome = search.query(&terms, 6).expect("replicated");
    assert_eq!(outcome.ranked, local_topk(&docs, &terms, 6));
    assert_eq!(outcome.peers_contacted, 3, "one primary per shard");
    assert!(hedges_total(&search) >= 1);

    // The muted primary executed and answered: poll briefly for its
    // (asynchronous) response bytes to land on the meter.
    let meter = search.traffic();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while meter.link_bytes(primary, user) == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(
        meter.link_bytes(primary, user) > 0,
        "the hedged-away response still counts as wire bytes"
    );
    // And the shard that hedged got its answer from the successor.
    assert!(meter.link_bytes(NodeId::IndexServer(1), user) > 0);
}

/// A client-side transport on which one peer answers every ranked
/// read with an `InsertOk` — a well-formed frame of the wrong type, as
/// a buggy or hostile peer might send.
struct WrongFrameTransport {
    inner: Arc<dyn Transport>,
    liar: NodeId,
}

impl Transport for WrongFrameTransport {
    fn meter(&self) -> &Arc<TrafficMeter> {
        self.inner.meter()
    }

    fn begin(
        &self,
        from: NodeId,
        to: NodeId,
        auth: AuthToken,
        payload: Arc<Vec<u8>>,
    ) -> PendingReply {
        if to == self.liar && matches!(Message::decode(&payload), Ok(Message::PlanQuery { .. })) {
            let (tx, rx) = std::sync::mpsc::channel();
            tx.send(Message::InsertOk.encode().to_vec()).unwrap();
            return PendingReply::from_channel(to, rx);
        }
        self.inner.begin(from, to, auth, payload)
    }
}

#[test]
fn replica_answering_with_the_wrong_frame_is_hedged_around_not_trusted() {
    let docs = corpus(150, 13);
    let liar = NodeId::IndexServer(1);
    let launch = |replication| {
        let config = ZerberConfig::default()
            .with_peers(4)
            .with_replication(replication);
        ShardedSearch::launch_with_transport(&config, &docs, |inner| {
            Arc::new(WrongFrameTransport { inner, liar })
        })
        .expect("valid config")
    };
    let terms = [TermId(2), TermId(9)];
    let expected = local_topk(&docs, &terms, 10);

    // Replicated: the lying primary costs a hedge, never the result.
    let search = launch(2);
    let outcome = search.query(&terms, 10).expect("replica covers the shard");
    assert_eq!(outcome.ranked.len(), expected.len());
    for (got, want) in outcome.ranked.iter().zip(&expected) {
        assert_eq!(got.doc, want.doc);
        assert_eq!(got.score.to_bits(), want.score.to_bits(), "bit-identical");
    }
    assert!(
        outcome
            .failed_peers
            .contains(&(liar, TransportError::Rejected(fault::MALFORMED))),
        "lying peer missing from {:?}",
        outcome.failed_peers
    );
    assert!(hedges_total(&search) >= 1, "the shard must have hedged");

    // Unreplicated: every replica of shard 1 answered wrong, so the
    // query fails closed with that evidence instead of panicking.
    match launch(1).query(&terms, 10) {
        Err(QueryError::Unavailable(shard)) => {
            assert_eq!(shard.shard, 1);
            assert_eq!(
                shard.failed().collect::<Vec<_>>(),
                vec![(liar, TransportError::Rejected(fault::MALFORMED))]
            );
        }
        other => panic!("an all-replicas-wrong shard must fail closed, got {other:?}"),
    }
}

/// A shard service that acknowledges every frame with a `Pong` — a
/// well-formed frame no write expects.
struct PongService;

impl PeerService for PongService {
    fn handle(&mut self, _from: NodeId, _auth: AuthToken, _request: Message) -> Message {
        Message::Pong
    }
}

#[test]
fn replica_acking_a_write_with_the_wrong_frame_is_an_error_not_a_panic() {
    let config = ZerberConfig::default().with_peers(2);
    // The coordinator is connected to peers that answer everything
    // wrong.
    let liars = PeerRuntime::new(Arc::new(TrafficMeter::new()));
    for peer in 0..2 {
        liars.spawn_peer(NodeId::IndexServer(peer), || PongService);
    }
    let transport = Arc::clone(liars.transport()) as Arc<dyn Transport>;
    let search =
        ShardedSearch::connect(&config, transport, RuntimeObs::new()).expect("valid config");

    let epoch = search.serving_epoch();
    let write = Document::from_term_counts(DocId(900), GroupId(0), vec![(TermId(1), 1)]);
    for outcome in [
        search.insert_documents(0, std::slice::from_ref(&write)),
        search.bulk_load(0, std::slice::from_ref(&write)),
        search.delete_document(0, DocId(3)).map(usize::from),
    ] {
        assert!(
            matches!(outcome, Err(IngestError::Protocol(_))),
            "a wrong-frame ack must be a typed error, got {outcome:?}"
        );
    }
    // An answer of the wrong type proves nothing landed: nothing is
    // accounted and no cached result is invalidated.
    assert_eq!(search.document_count(), 0);
    assert_eq!(search.serving_epoch(), epoch);
}
