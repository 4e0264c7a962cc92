//! Multi-process socket cluster: four shard peers, each its own OS
//! process serving durable (segmented) replica shards over
//! length-framed TCP, and one coordinator — the same
//! [`ShardedSearch`] an in-process deployment runs, *connected* to
//! peers it did not spawn through a [`SocketTransport`]. It queries
//! them, streams writes to them, loses one to SIGKILL mid-session
//! (the hedged gather absorbs the loss, the write it misses taints
//! it), and repairs the empty process started in its place from the
//! surviving replicas' segment files, over the same sockets.
//!
//! Run with: `cargo run --example socket_cluster`
//!
//! The example re-executes itself as the peers: when
//! `ZERBER_SOCKET_PEER` is set (`<peer>:<serve|rebuild>:<storage root>`)
//! the process is a shard peer — it starts empty, serving (the parent
//! then bulk-loads the corpus through the coordinator), or with
//! `rebuild` waiting to be shipped its shards; serves on an ephemeral
//! loopback port; prints `READY <addr>`; and holds until its stdin
//! closes, when it prints its own metrics registry and exits. The
//! parent spawns the children, registers their addresses, and drives
//! everything over real TCP.
//!
//! The whole session is observed on both sides of the wire: the run
//! ends with each peer process's `zerber_segment_*` write-path metrics
//! (WAL fsync, flush, compaction), the coordinator's metrics in
//! Prometheus exposition format, and the slowest recorded query trace.

use std::io::{BufRead as _, BufReader, Read as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;

use zerber::runtime::socket::{serve_peer, SocketTransport};
use zerber::runtime::{
    local_planned, RuntimeObs, ShardMap, ShardService, ShardedSearch, Transport,
};
use zerber::{PostingBackend, SegmentPolicy, ZerberConfig};
use zerber_index::{DocId, Document, GroupId, RankedDoc, TermId};
use zerber_net::{NodeId, TrafficMeter};
use zerber_obs::MetricsRegistry;
use zerber_query::{Forced, Query};

const PEERS: u32 = 4;
const REPLICATION: u32 = 2;
const K: usize = 5;

/// The deployment parent and children agree on: a 4-peer ring, two
/// copies per shard, every replica a durable store under `root` that
/// fsyncs its WAL, flushes often and compacts behind every flush — so
/// a short session exercises the whole write path.
fn cluster_config(root: &Path) -> ZerberConfig {
    ZerberConfig::default()
        .with_peers(PEERS as usize)
        .with_replication(REPLICATION as usize)
        .with_postings(PostingBackend::Segmented {
            dir: root.to_path_buf(),
            compaction: SegmentPolicy {
                flush_postings: 64,
                max_segments: 2,
                sync_wal: true,
                background: true,
            },
        })
}

fn document(d: u32) -> Document {
    let terms = (0..4).map(|i| (TermId((d * 3 + i * 7) % 50), 1 + (d + i) % 5));
    Document::from_term_counts(DocId(d), GroupId(0), terms.collect())
}

/// Child role: serve one ring position, empty, until stdin closes,
/// then print this process's own metrics and exit. With `rebuild`
/// every hosted shard starts mid-rebuild — it buffers writes and
/// bounces reads until the coordinator ships each shard's snapshot
/// over the socket and commits it: the replacement process for a
/// SIGKILLed peer.
fn run_peer(peer: u32, rebuild: bool, root: &Path) {
    let backend = cluster_config(root).postings;
    let hosted = ShardMap::new(PEERS).hosted_shards(peer, REPLICATION);
    let registry = MetricsRegistry::new();
    let init = {
        let registry = registry.clone();
        move || ShardService::for_peer(&backend, peer, hosted, rebuild, &registry)
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let meter = Arc::new(TrafficMeter::new());
    let server =
        serve_peer(listener, NodeId::IndexServer(peer), init, meter).expect("serve on loopback");
    println!("READY {}", server.addr());
    std::io::stdin().read_to_string(&mut String::new()).ok();
    drop(server);
    println!("\n=== peer {peer} (pid {}) metrics ===", std::process::id());
    print!("{}", registry.snapshot().to_prometheus());
}

/// A peer process and the rest of what it will print.
struct PeerProcess {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl PeerProcess {
    /// Orderly shutdown: close the peer's stdin, relay the metrics it
    /// prints on the way out, reap it.
    fn stop(mut self) {
        drop(self.child.stdin.take());
        let mut metrics = String::new();
        self.stdout.read_to_string(&mut metrics).ok();
        print!("{metrics}");
        self.child.wait().ok();
    }
}

/// Parent side: spawn this executable as peer `peer` (`rebuild`: as
/// its empty replacement), read its `READY <addr>` handshake, and
/// register the address with the transport.
fn spawn_peer(transport: &SocketTransport, peer: u32, rebuild: bool, root: &Path) -> PeerProcess {
    let role = if rebuild { "rebuild" } else { "serve" };
    let mut child = Command::new(std::env::current_exe().expect("own path"))
        .env(
            "ZERBER_SOCKET_PEER",
            format!("{peer}:{role}:{}", root.display()),
        )
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn peer process");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("child handshake");
    let addr = ready.trim().strip_prefix("READY ").expect("READY line");
    let addr = addr.parse().expect("socket address");
    transport.register(NodeId::IndexServer(peer), addr);
    println!(
        "peer {peer} ({role}, pid {}) listening on {addr}",
        child.id()
    );
    PeerProcess { child, stdout }
}

/// How many `.zseg` segment files `peer`'s replica stores hold.
fn segment_files(root: &Path, peer: u32) -> usize {
    let files_of = |dir: PathBuf| std::fs::read_dir(dir).into_iter().flatten().flatten();
    files_of(root.to_path_buf())
        .filter(|replica| {
            let name = replica.file_name();
            name.to_string_lossy()
                .starts_with(&format!("peer-{peer:03}-"))
        })
        .flat_map(|replica| files_of(replica.path()))
        .filter(|file| file.file_name().to_string_lossy().ends_with(".zseg"))
        .count()
}

fn main() {
    if let Ok(role) = std::env::var("ZERBER_SOCKET_PEER") {
        let mut parts = role.splitn(3, ':');
        let mut next = || parts.next().expect("<peer>:<serve|rebuild>:<root>");
        let peer = next().parse().expect("peer index");
        let rebuild = next() == "rebuild";
        run_peer(peer, rebuild, Path::new(next()));
        return;
    }

    // --- 1. Spawn one empty child per ring position; connect; load. -
    let root = zerber_segment::ScratchDir::new("socket-cluster");
    let mut live: Vec<Document> = (0..400).map(document).collect();
    let obs = RuntimeObs::new();
    let meter = Arc::new(TrafficMeter::new());
    let transport = Arc::new(SocketTransport::new(meter).observed(obs.registry()));
    let mut peers: Vec<Option<PeerProcess>> = (0..PEERS)
        .map(|peer| Some(spawn_peer(&transport, peer, false, &root)))
        .collect();
    let wire = Arc::clone(&transport) as Arc<dyn Transport>;
    let search = ShardedSearch::connect(&cluster_config(&root), wire, obs)
        .expect("the cluster's configuration is valid");
    search
        .bulk_load(0, &live)
        .expect("a replica of every shard acknowledges");

    // Every read goes through the coordinator's serving path and must
    // equal single-node evaluation over the documents written so far.
    let query = Query::Terms {
        terms: vec![TermId(9), TermId(21)],
        k: K,
    };
    let ask = |live: &[Document]| {
        let outcome = search
            .query_shaped(0, query.clone(), Forced::Auto)
            .expect("a live replica covers every shard");
        let expected = local_planned(live, &query);
        assert_eq!(
            outcome.ranked, expected,
            "socket top-k must match single-node"
        );
        outcome
    };
    let mut next_doc = 1000;
    let mut stream = |live: &mut Vec<Document>, batches: u32| {
        for _ in 0..batches {
            let batch: Vec<Document> = (next_doc..next_doc + 40).map(document).collect();
            search
                .insert_documents(0, &batch)
                .expect("a replica of every shard acknowledges");
            live.extend(batch);
            next_doc += 40;
        }
    };

    // --- 2. Query the healthy cluster over TCP; stream writes. ------
    let healthy = ask(&live);
    println!("\nhealthy: top-{K} over TCP identical to single-node evaluation");
    for RankedDoc { doc, score } in &healthy.ranked {
        println!("  doc {:>3}  score {score:.4}", doc.0);
    }
    stream(&mut live, 3);
    println!(
        "streamed 3 write batches: {} documents live",
        search.document_count()
    );

    // --- 3. SIGKILL one peer; the hedged gather absorbs it. ---------
    let victim = 1u32;
    let mut killed = peers[victim as usize].take().expect("running");
    killed.child.kill().expect("kill peer process");
    killed.child.wait().ok();
    println!("\nkilled peer {victim} (SIGKILL)");
    let degraded = ask(&live);
    println!(
        "after kill: results still identical; dead peers reported: {:?}",
        degraded.failed_peers
    );
    stream(&mut live, 1);
    println!(
        "a write it missed taints it out of the read path: {:?}",
        search.tainted_peers()
    );

    // --- 4. Replace the dead peer; repair it over TCP. --------------
    // An empty process takes the victim's place, and every shard it
    // hosts streams from a surviving replica through the same
    // transport the queries use.
    peers[victim as usize] = Some(spawn_peer(&transport, victim, true, &root));
    let shipped = search
        .repair_peer(victim)
        .expect("live replicas ship its shards");
    let segments = segment_files(&root, victim);
    assert!(
        shipped.segments > 0 && segments > 0,
        "a repair ships segment files"
    );
    assert!(
        search.tainted_peers().is_empty(),
        "a repair clears the taint"
    );
    stream(&mut live, 1);
    let repaired = ask(&live);
    let failed = &repaired.failed_peers;
    assert!(failed.is_empty(), "every replica answers again: {failed:?}");
    println!(
        "peer {victim} rebuilt over TCP: {} file(s), {} bytes shipped, {segments} .zseg segment \
         file(s) installed; results identical, no replica failed, heartbeat: {:?}",
        shipped.segments,
        shipped.bytes,
        search.heartbeat()
    );

    // --- 5. Orderly shutdown: each peer reports its own metrics. ----
    for peer in peers.into_iter().flatten() {
        peer.stop();
    }
    println!("\ncluster stopped; all {PEERS} peers reaped");

    // --- 6. The coordinator's observability readout. ----------------
    println!("\n=== coordinator metrics (Prometheus exposition) ===");
    let metrics = search.obs().snapshot_with_traffic(search.traffic());
    print!("{}", metrics.to_prometheus());
    let slowest = search.obs().slow_queries().slowest();
    println!("\n=== slowest recorded query trace ===");
    print!("{}", slowest.expect("queries were traced").render());
}
