//! The connected deployment, end to end over real TCP: a
//! [`ShardedSearch`] that spawned none of its peers drives three
//! segmented `serve_peer`s through a `SocketTransport` — writes from
//! empty, shaped reads, the result cache, the loss of a peer, taint,
//! and the repair of its empty replacement from shipped segment files.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use zerber::runtime::socket::{serve_peer, SocketPeer, SocketTransport};
use zerber::runtime::{
    local_planned, HedgePolicy, PeerStatus, PendingReply, RuntimeObs, ShardMap, ShardService,
    ShardedSearch, Transport,
};
use zerber::{PostingBackend, SegmentPolicy, ZerberConfig};
use zerber_index::{DocId, Document, GroupId, RankedDoc, TermId};
use zerber_net::{AuthToken, Message, NodeId, TrafficMeter};
use zerber_obs::MetricsRegistry;
use zerber_query::{Forced, Query};

const PEERS: u32 = 3;
const REPLICATION: u32 = 2;

fn doc(id: u32) -> Document {
    Document::from_term_counts(
        DocId(id),
        GroupId(0),
        (0..3)
            .map(|i| (TermId((id + i) % 11), 1 + (id * 7 + i) % 4))
            .collect(),
    )
}

/// Serves ring position `peer` on an ephemeral loopback port: its
/// hosted shards empty and serving, or (`rebuilding`) waiting to be
/// shipped — the replacement for a lost peer.
fn serve(config: &ZerberConfig, peer: u32, rebuilding: bool) -> SocketPeer {
    let hosted = ShardMap::new(PEERS).hosted_shards(peer, REPLICATION);
    let backend = config.postings.clone();
    let init = move || {
        let empty = vec![Vec::new(); PEERS as usize];
        let partition = (!rebuilding).then_some(empty.as_slice());
        ShardService::for_peer(&backend, peer, hosted, partition, &MetricsRegistry::new())
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let meter = Arc::new(TrafficMeter::new());
    serve_peer(listener, NodeId::IndexServer(peer), init, meter).expect("serve on loopback")
}

/// The socket transport, noting the name of every snapshot file a
/// repair installs through it.
struct Recording {
    sockets: Arc<SocketTransport>,
    installed: Mutex<Vec<String>>,
}

impl Transport for Recording {
    fn meter(&self) -> &Arc<TrafficMeter> {
        self.sockets.meter()
    }

    fn begin_traced(
        &self,
        from: NodeId,
        to: NodeId,
        auth: AuthToken,
        trace: u64,
        payload: Arc<[u8]>,
    ) -> PendingReply {
        if let Ok(Message::InstallShard { name, .. }) = Message::decode(&payload) {
            if !name.is_empty() {
                self.installed.lock().unwrap().push(name);
            }
        }
        self.sockets.begin_traced(from, to, auth, trace, payload)
    }
}

fn bits(ranked: &[RankedDoc]) -> Vec<(u32, u64)> {
    ranked
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

#[test]
fn a_connected_deployment_writes_caches_fails_over_and_repairs_over_tcp() {
    let dir = zerber_segment::ScratchDir::new("socket-deployment");
    let config = ZerberConfig::default()
        .with_peers(PEERS as usize)
        .with_replication(REPLICATION as usize)
        .with_postings(PostingBackend::Segmented {
            dir: dir.to_path_buf(),
            compaction: SegmentPolicy {
                background: false,
                ..SegmentPolicy::default()
            },
        });
    let sockets = Arc::new(SocketTransport::new(Arc::new(TrafficMeter::new())));
    let mut peers: Vec<Option<SocketPeer>> = (0..PEERS)
        .map(|peer| {
            let handle = serve(&config, peer, false);
            sockets.register(NodeId::IndexServer(peer), handle.addr());
            Some(handle)
        })
        .collect();
    let wire = Arc::new(Recording {
        sockets: Arc::clone(&sockets),
        installed: Mutex::new(Vec::new()),
    });
    let transport = Arc::clone(&wire) as Arc<dyn Transport>;
    let mut search =
        ShardedSearch::connect(&config, &[], transport, RuntimeObs::new()).expect("valid config");
    search.set_hedge_policy(HedgePolicy {
        hedge_after: Duration::from_millis(250),
        deadline: Duration::from_secs(10),
    });

    // Every write path, from empty.
    let mut live: Vec<Document> = (0..120).map(doc).collect();
    assert_eq!(search.bulk_load(0, &live).expect("bulk load"), live.len());
    let streamed: Vec<Document> = (500..520).map(doc).collect();
    search.insert_documents(0, &streamed).expect("insert");
    live.extend(streamed);
    assert!(search.delete_document(0, DocId(7)).expect("delete"));
    assert!(!search.delete_document(0, DocId(7777)).expect("delete"));
    live.retain(|d| d.id != DocId(7));
    assert_eq!(search.document_count(), live.len());

    // Every shape at top-`k`, bit-identical to single-node evaluation
    // (a `k` not asked before cannot be answered from the cache).
    // Returns the replicas that failed along the way.
    let shapes = |k| {
        [
            Query::Terms {
                terms: vec![TermId(2), TermId(5)],
                k,
            },
            Query::And {
                terms: vec![TermId(3), TermId(4)],
                k,
            },
            Query::Phrase {
                terms: vec![TermId(6), TermId(7)],
                k,
            },
        ]
    };
    let check = |search: &ShardedSearch, live: &[Document], k: usize| -> Vec<NodeId> {
        let mut failed = Vec::new();
        for query in shapes(k) {
            let outcome = search
                .query_shaped(0, query.clone(), Forced::Auto)
                .unwrap_or_else(|e| panic!("{query:?}: {e}"));
            let expected = local_planned(live, &query);
            assert_eq!(bits(&outcome.ranked), bits(&expected), "{query:?}");
            assert!(!expected.is_empty(), "{query:?} matches nothing");
            failed.extend(outcome.failed_peers.iter().map(|(node, _)| *node));
        }
        failed
    };
    assert!(check(&search, &live, 8).is_empty());

    // A repeated query is a cache hit; a write invalidates it.
    let [repeat, ..] = shapes(8);
    let repeated = || search.query_shaped(0, repeat.clone(), Forced::Auto);
    assert_eq!(repeated().expect("cached").peers_contacted, 0);
    search.insert_documents(0, &[doc(600)]).expect("insert");
    live.push(doc(600));
    assert!(repeated().expect("refetched").peers_contacted > 0);

    // Lose a peer: its replicas answer, it is reported, and the write
    // it misses taints it.
    let victim = 1u32;
    drop(peers[victim as usize].take());
    let failed = check(&search, &live, 9);
    assert!(failed.contains(&NodeId::IndexServer(victim)), "{failed:?}");
    let batch: Vec<Document> = (700..730).map(doc).collect();
    search.insert_documents(0, &batch).expect("survivors ack");
    live.extend(batch);
    assert_eq!(search.tainted_peers(), [victim]);
    assert!(
        check(&search, &live, 10).is_empty(),
        "a tainted peer is skipped"
    );

    // Its empty replacement, registered under the same node, is
    // repaired from the survivors' segment files.
    let replacement = serve(&config, victim, true);
    sockets.register(NodeId::IndexServer(victim), replacement.addr());
    peers[victim as usize] = Some(replacement);
    let shipped = search.repair_peer(victim).expect("repair over TCP");
    let names = wire.installed.lock().unwrap().clone();
    assert!(shipped.segments > 0 && shipped.bytes > 0);
    assert_eq!(names.len() as u64, shipped.segments);
    assert!(names.iter().any(|name| name.starts_with("MANIFEST")));
    assert!(names.iter().any(|name| name.ends_with(".zseg")));
    assert!(
        names
            .iter()
            .all(|name| name.starts_with("MANIFEST") || name.ends_with(".zseg")),
        "a segmented replica ships its manifest and segment files only: {names:?}"
    );
    assert!(search.tainted_peers().is_empty());

    assert!(check(&search, &live, 11).is_empty());
    let beat = search.heartbeat();
    assert_eq!(beat.len(), PEERS as usize);
    assert!(beat.iter().all(|&(_, status)| status == PeerStatus::Up));
}
