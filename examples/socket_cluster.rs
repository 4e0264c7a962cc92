//! Multi-process socket cluster: four shard peers, each its own OS
//! process serving replica shards over length-framed TCP, a client
//! speaking [`SocketTransport`] — and one peer killed with SIGKILL
//! mid-session to show the hedged gather absorbing the loss, then
//! replaced by an empty process that is rebuilt from the surviving
//! replicas over the same sockets.
//!
//! Run with: `cargo run --example socket_cluster`
//!
//! The example re-executes itself as the peers: when
//! `ZERBER_SOCKET_PEER` is set, the process is a shard peer — it
//! rebuilds the (deterministic) corpus, serves its shards on an
//! ephemeral loopback port, prints `READY <addr>`, and holds until its
//! stdin closes (`<peer>:rebuild` starts it empty instead, waiting for
//! its shards to be shipped). The parent spawns the children, collects
//! their addresses, and drives queries over real TCP.
//!
//! The whole session is observed: every query runs under a trace id
//! that crosses the process boundary in the request frames, the client
//! assembles the full span tree (fan-out → per-replica RPC → decode →
//! gather), and the run ends with the deployment's metrics in
//! Prometheus exposition format plus the slowest recorded trace.

use std::io::BufRead as _;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zerber::runtime::socket::{serve_peer, SocketTransport};
use zerber::runtime::{
    build_shard_store, gather_topk, local_topk, rebuild_shard, restore_shard_store,
    traced_topk_fanout, HedgePolicy, RuntimeObs, ShardService, TermStats,
};
use zerber::ZerberConfig;
use zerber_dht::ShardMap;
use zerber_index::{DocId, Document, GroupId, RankedDoc, SegmentPolicy, TermId};
use zerber_net::{AuthToken, Message, NodeId, TrafficMeter};
use zerber_obs::{QueryTrace, SpanRecord};
use zerber_segment::SegmentStore;

const PEERS: u32 = 4;
const REPLICATION: u32 = 2;
const K: usize = 5;

/// The shared corpus — a pure function of nothing, so parent and
/// children agree on every document without any IPC.
fn corpus() -> Vec<Document> {
    (0..400u32)
        .map(|d| {
            Document::from_term_counts(
                DocId(d),
                GroupId(0),
                (0..4)
                    .map(|i| (TermId((d * 3 + i * 7) % 50), 1 + (d + i) % 5))
                    .collect(),
            )
        })
        .collect()
}

/// Child role: serve one peer's replica shards until stdin closes.
/// With `rebuild` the peer starts *empty*, every hosted shard
/// mid-rebuild — it buffers writes and bounces reads until the parent
/// ships each shard's snapshot over the socket and commits it: the
/// replacement process for a SIGKILLed peer.
fn run_peer(peer: u32, rebuild: bool) {
    let map = ShardMap::new(PEERS);
    let hosted = map.hosted_shards(peer, REPLICATION);
    let backend = ZerberConfig::default().postings;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = serve_peer(
        listener,
        NodeId::IndexServer(peer),
        move || {
            if rebuild {
                return ShardService::rebuilding(hosted).with_restore(Box::new(move |_, files| {
                    restore_shard_store(&backend, files)
                }));
            }
            let shards = map.partition(&corpus(), |doc| doc.id);
            ShardService::hosting(
                hosted
                    .into_iter()
                    .map(|shard| (shard, build_shard_store(&backend, &shards[shard as usize]))),
            )
        },
        Arc::new(TrafficMeter::new()),
    )
    .expect("serve on loopback");
    println!("READY {}", server.addr());
    use std::io::Read as _;
    let mut hold = String::new();
    std::io::stdin().read_to_string(&mut hold).ok();
}

/// Parent side: spawn this executable as peer `peer` (`rebuild`: as
/// its empty replacement), read its `READY <addr>` handshake, and
/// register the address with the transport.
fn spawn_peer(exe: &Path, transport: &SocketTransport, peer: u32, rebuild: bool) -> Child {
    let role = if rebuild {
        format!("{peer}:rebuild")
    } else {
        peer.to_string()
    };
    let mut child = Command::new(exe)
        .env("ZERBER_SOCKET_PEER", &role)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn peer process");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut ready = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut ready)
        .expect("child handshake");
    let addr = ready
        .trim()
        .strip_prefix("READY ")
        .expect("READY line")
        .parse()
        .expect("socket address");
    transport.register(NodeId::IndexServer(peer), addr);
    println!("peer {role} (pid {}) listening on {addr}", child.id());
    child
}

/// One hedged query over the socket transport — the same client path
/// as `ShardedSearch::query`, across process boundaries, traced end to
/// end. The trace id rides the request frames, the peers report their
/// decode accounting in the responses, and the client assembles the
/// span tree and files it in `obs`'s forensics sinks.
fn query(
    obs: &RuntimeObs,
    transport: &SocketTransport,
    map: &ShardMap,
    stats: &TermStats,
    terms: &[TermId],
) -> Option<(Vec<RankedDoc>, usize, Vec<NodeId>)> {
    let policy = HedgePolicy {
        hedge_after: Duration::from_millis(25),
        deadline: Duration::from_secs(2),
    };
    let weights = stats.weights(terms);
    let shards: Vec<(u32, Vec<NodeId>, Arc<[u8]>)> = (0..map.peer_count())
        .map(|shard| {
            let request = Message::PlanQuery {
                shard,
                shape: 0,
                forced: 1,
                terms: weights.clone(),
                k: K as u32,
            };
            let replicas = map
                .replica_peers(shard, REPLICATION)
                .into_iter()
                .map(|peer| NodeId::IndexServer(peer.0))
                .collect();
            (shard, replicas, Arc::from(request.encode().as_ref()))
        })
        .collect();
    let started = Instant::now();
    let trace_id = obs.next_trace_id();
    let (fetches, fanout_span) = traced_topk_fanout(
        obs,
        transport,
        NodeId::User(0),
        AuthToken(0),
        trace_id,
        &shards,
        &policy,
    );
    let mut per_shard = Vec::new();
    let mut hedges = 0;
    let mut failed = Vec::new();
    for fetch in fetches {
        let fetch = fetch.ok()?;
        hedges += fetch.hedges();
        failed.extend(fetch.failed().map(|(node, _)| node));
        per_shard.push(fetch.answer.candidates);
    }
    let gather_started = Instant::now();
    let gathered = gather_topk(&per_shard, K);
    let gather_span = SpanRecord::new(
        "gather",
        gather_started.duration_since(started),
        gather_started.elapsed(),
    )
    .with_counter("candidates_received", gathered.candidates_received as u64);
    let total = started.elapsed();
    let registry = obs.registry();
    registry
        .histogram("zerber_query_latency_ns")
        .record(total.as_nanos() as u64);
    registry.counter("zerber_query_total").inc();
    let root = SpanRecord::new("query", Duration::ZERO, total)
        .with_counter("k", K as u64)
        .with_child(fanout_span)
        .with_child(gather_span);
    obs.record_trace(Arc::new(QueryTrace {
        id: trace_id,
        label: format!("terms={terms:?} k={K}"),
        total,
        root,
    }));
    Some((gathered.ranked, hedges, failed))
}

/// A durable shard on the side, opened *observed* into the same
/// registry: seed, flush, delete, and compact a [`SegmentStore`] so
/// the WAL-fsync, flush, and compaction histograms show up in the
/// final metrics dump next to the query-path families.
fn durable_store_demo(obs: &RuntimeObs, docs: &[Document]) {
    let dir = std::env::temp_dir().join(format!("zerber-socket-cluster-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = SegmentPolicy {
        flush_postings: 64,
        max_segments: 2,
        sync_wal: true,
        background: false,
    };
    let store = SegmentStore::open_observed(&dir, policy, obs.registry()).expect("open observed");
    for batch in docs.chunks(40) {
        store.insert(batch).expect("seed batch");
    }
    store.delete(docs[0].id).expect("delete one");
    store.flush().expect("flush");
    store.compact().expect("compact");
    println!(
        "\ndurable side-store: {} segment(s) after compaction, {} bytes on disk",
        store.segment_count(),
        store.disk_bytes()
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    if let Ok(role) = std::env::var("ZERBER_SOCKET_PEER") {
        let (peer, rebuild) = match role.strip_suffix(":rebuild") {
            Some(peer) => (peer, true),
            None => (role.as_str(), false),
        };
        run_peer(peer.parse().expect("peer index"), rebuild);
        return;
    }

    // --- 1. Spawn one child process per shard peer. -----------------
    let exe = std::env::current_exe().expect("own path");
    let docs = corpus();
    let stats = TermStats::from_documents(&docs);
    let map = ShardMap::new(PEERS);
    let obs = RuntimeObs::new();
    let meter = Arc::new(TrafficMeter::new());
    let transport = SocketTransport::new(Arc::clone(&meter)).observed(obs.registry());
    let mut children: Vec<Child> = (0..PEERS)
        .map(|peer| spawn_peer(&exe, &transport, peer, false))
        .collect();

    // --- 2. Query the healthy cluster over TCP. ---------------------
    let terms = [TermId(9), TermId(21)];
    let expected = local_topk(&docs, &terms, K);
    let (ranked, hedges, _) =
        query(&obs, &transport, &map, &stats, &terms).expect("cluster healthy");
    assert_eq!(ranked, expected, "socket top-k must match single-node");
    println!("\nhealthy: top-{K} over TCP identical to single-node evaluation ({hedges} hedges)");
    for r in &ranked {
        println!("  doc {:>3}  score {:.4}", r.doc.0, r.score);
    }

    // --- 3. SIGKILL one peer; the hedged gather absorbs it. ---------
    let victim = 1u32;
    children[victim as usize].kill().expect("kill peer process");
    children[victim as usize].wait().ok();
    println!("\nkilled peer {victim} (SIGKILL)");
    let (ranked, hedges, failed) =
        query(&obs, &transport, &map, &stats, &terms).expect("replicas cover every shard");
    assert_eq!(ranked, expected, "failover must not change results");
    println!(
        "after kill: results still identical; {hedges} hedge(s), dead peers reported: {failed:?}"
    );

    // --- 4. Replace the dead peer; rebuild it over TCP. -------------
    // An empty process takes the victim's place, and every shard it
    // hosts streams from the surviving replica through the same
    // transport the queries use.
    children[victim as usize] = spawn_peer(&exe, &transport, victim, true);
    let hosted = map.hosted_shards(victim, REPLICATION);
    let (mut files, mut bytes) = (0, 0);
    for &shard in &hosted {
        let source = map
            .replica_peers(shard, REPLICATION)
            .into_iter()
            .find(|peer| peer.0 != victim)
            .expect("R = 2 leaves a live replica");
        let shipped = rebuild_shard(
            &transport,
            NodeId::Owner(0),
            AuthToken(0),
            NodeId::IndexServer(source.0),
            NodeId::IndexServer(victim),
            shard,
            Some(&obs),
        )
        .expect("the live replica ships the shard over TCP");
        files += shipped.segments;
        bytes += shipped.bytes;
    }
    assert!(files > 0 && bytes > 0, "a rebuild ships the shard's files");
    let (ranked, _, failed) =
        query(&obs, &transport, &map, &stats, &terms).expect("cluster repaired");
    assert_eq!(
        ranked, expected,
        "a rebuilt replica must not change results"
    );
    assert!(failed.is_empty(), "every replica answers again: {failed:?}");
    println!(
        "peer {victim} rebuilt over TCP: {} shard(s), {files} file(s), {bytes} bytes shipped; \
         results identical, no replica failed",
        hosted.len()
    );

    // --- 5. Durable storage under the same registry. ----------------
    durable_store_demo(&obs, &docs);

    // --- 6. Shut the cluster down. ----------------------------------
    for child in &mut children {
        child.kill().ok();
        child.wait().ok();
    }
    println!("\ncluster stopped; all {PEERS} peers reaped");

    // --- 7. Observability readout. ----------------------------------
    println!("\n=== metrics (Prometheus exposition) ===");
    print!("{}", obs.snapshot_with_traffic(&meter).to_prometheus());

    let slowest = obs.slow_queries().slowest().expect("queries were traced");
    println!("\n=== slowest recorded query trace ===");
    print!("{}", slowest.render());
}
