//! Scalability of the concurrent sharded peer runtime: throughput and
//! latency versus peer count under concurrent clients.
//!
//! The paper's system argument (Section 5, and the Section 3
//! DHT-extension direction) is that per-peer work shrinks as the index
//! spreads over more peers. This experiment deploys the document-
//! sharded [`ShardedSearch`] runtime at 1/2/4/8/16 peers, drives it
//! with several concurrent client threads replaying the shared query
//! log, and reports throughput, p50/p95 query latency, per-link wire
//! bytes, and the gather stage's work accounting. Before measuring,
//! every configuration's results are checked against the single-node
//! [`local_topk`] reference — the sharded path must be *identical*,
//! not just close (the `sharded_topk` property test proves this for
//! arbitrary corpora; here it is re-asserted on the real workload).

use std::sync::Arc;
use std::time::Instant;

use zerber::runtime::socket::{serve_peer, SocketTransport};
use zerber::runtime::{
    build_shard_store, gather_topk, hedged_fan_out, local_topk, rebuild_shard, restore_shard_store,
    HedgePolicy, ShardService, ShardedSearch, TermStats,
};
use zerber::ZerberConfig;
use zerber_dht::ShardMap;
use zerber_index::{RankedDoc, TermId};
use zerber_net::{AuthToken, Message, NodeId, TrafficMeter};

use crate::report::{percentile, Table};
use crate::scenario::{OdpScenario, Scale};

/// Ranked results to request per query.
const K: usize = 10;

/// Queries cross-checked against the single-node reference per
/// configuration.
const REFERENCE_CHECKS: usize = 5;

/// The peer counts the experiment sweeps.
pub const PEER_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// One measured deployment size.
#[derive(Debug)]
pub struct ScalabilityPoint {
    /// Shard peers in the deployment.
    pub peers: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Queries executed in the measured phase.
    pub queries: usize,
    /// Sustained queries per second across all clients.
    pub qps: f64,
    /// Median query latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile query latency, milliseconds.
    pub p95_ms: f64,
    /// Mean client→peer request bytes per query (all links).
    pub wire_up_per_query: f64,
    /// Mean peer→client response bytes per query (all links).
    pub wire_down_per_query: f64,
    /// Mean candidates shipped by peers per query.
    pub candidates_received_per_query: f64,
    /// Mean candidates the gather merge examined per query (the rest
    /// were cut off by the threshold bound).
    pub candidates_examined_per_query: f64,
    /// Whether every reference query returned results identical to
    /// single-node evaluation.
    pub matches_single_node: bool,
}

/// Peers in the kill-a-peer scenarios (in-proc and socket mode).
pub const FAILOVER_PEERS: usize = 4;
/// Replication factor in the kill-a-peer scenarios.
pub const FAILOVER_REPLICATION: usize = 2;
/// The peer the scenarios kill halfway through the workload.
pub const KILLED_PEER: u32 = 1;

/// Availability under failure: a replicated deployment with one peer
/// killed mid-workload. Queries keep flowing through the kill; the
/// survivors' hedged gather must absorb it.
#[derive(Debug)]
pub struct FailoverPoint {
    /// `"in-proc"` (message-passing transport, peer thread shut down)
    /// or `"socket"` (real TCP to child processes, one SIGKILLed).
    pub transport: &'static str,
    /// Shard peers in the deployment.
    pub peers: usize,
    /// Replicas per shard.
    pub replication: usize,
    /// Queries driven through the kill.
    pub queries: usize,
    /// Queries that returned a result (the rest failed closed).
    pub ok: usize,
    /// `ok / queries`, in percent.
    pub availability_pct: f64,
    /// Hedged (beyond-primary) requests per query.
    pub hedge_rate: f64,
    /// Median query latency across the whole run, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile query latency (the kill lives in the tail).
    pub p95_ms: f64,
    /// Whether post-kill results still match single-node evaluation.
    pub matches_single_node: bool,
}

/// Mean time to repair: after the kill-a-peer workload, the dead
/// replica is revived and every shard it hosts is re-shipped from a
/// live replica (in-proc: [`ShardedSearch::revive_peer`]; socket mode:
/// a fresh child process rebuilt over TCP). The row reports how long
/// the rebuild took, how much it shipped, and whether the repaired
/// deployment still answers bit-identically.
#[derive(Debug)]
pub struct RepairPoint {
    /// `"in-proc"` or `"socket"`.
    pub transport: &'static str,
    /// Shard peers in the deployment.
    pub peers: usize,
    /// Replicas per shard.
    pub replication: usize,
    /// Wall clock from starting the revival (socket mode: from
    /// respawning the child) to the last shard's cutover.
    pub mttr_ms: f64,
    /// Snapshot files streamed to the rebuilt replica.
    pub segments_shipped: u64,
    /// Snapshot payload bytes streamed to the rebuilt replica.
    pub bytes_shipped: u64,
    /// Queries replayed against the repaired deployment.
    pub queries: usize,
    /// How many of those succeeded.
    pub ok: usize,
    /// `ok / queries`, in percent — must be 100 after a repair.
    pub availability_pct: f64,
    /// Whether post-repair results match single-node evaluation.
    pub matches_single_node: bool,
}

/// The full sweep.
#[derive(Debug)]
pub struct Scalability {
    /// One point per peer count.
    pub points: Vec<ScalabilityPoint>,
    /// Reference queries compared per point.
    pub reference_checks: usize,
    /// Kill-a-peer scenarios (always the in-proc one; `repro
    /// scalability --socket` appends the multi-process point).
    pub failover: Vec<FailoverPoint>,
    /// Kill→revive→rebuild scenarios, paired with `failover` (the
    /// repair runs on the same deployment the kill degraded).
    pub repair: Vec<RepairPoint>,
}

/// Runs the sweep on the shared ODP scenario.
pub fn run(scale: Scale) -> Scalability {
    let scenario = OdpScenario::shared(scale);
    let docs = &scenario.corpus.documents;
    let (clients, sample) = match scale {
        Scale::Default => (8usize, 1_600usize),
        Scale::Smoke => (4, 160),
    };
    let queries: Vec<Vec<TermId>> = scenario
        .log
        .queries
        .iter()
        .filter(|q| !q.is_empty())
        .take(sample)
        .cloned()
        .collect();

    let base = ZerberConfig::default();
    let checks = REFERENCE_CHECKS.min(queries.len());
    let reference: Vec<Vec<RankedDoc>> = queries[..checks]
        .iter()
        .map(|q| local_topk(&base, docs, q, K))
        .collect();

    let mut points = Vec::new();
    for peers in PEER_COUNTS {
        let config = base.clone().with_peers(peers);
        let search = ShardedSearch::launch(&config, docs).expect("valid config");

        let mut matches_single_node = true;
        for (query, expected) in queries[..checks].iter().zip(&reference) {
            let outcome = search.query(query, K).expect("peers alive");
            matches_single_node &= &outcome.ranked == expected;
        }

        search.traffic().reset(); // measure the concurrent phase only
        let started = Instant::now();
        let per_client: Vec<(Vec<f64>, usize, usize)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..clients)
                .map(|client| {
                    let search = &search;
                    let queries = &queries;
                    scope.spawn(move || {
                        let mut latencies = Vec::new();
                        let mut received = 0usize;
                        let mut examined = 0usize;
                        // Strided assignment: client c takes queries
                        // c, c + C, c + 2C, …
                        let mut i = client;
                        while i < queries.len() {
                            let begun = Instant::now();
                            let outcome = search
                                .query_from(client as u32, &queries[i], K)
                                .expect("peers alive");
                            latencies.push(begun.elapsed().as_secs_f64() * 1e3);
                            received += outcome.candidates_received;
                            examined += outcome.candidates_examined;
                            i += clients;
                        }
                        (latencies, received, examined)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread"))
                .collect()
        });
        let wall = started.elapsed().as_secs_f64().max(1e-9);

        let mut latencies: Vec<f64> = per_client.iter().flat_map(|(l, _, _)| l.clone()).collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let received: usize = per_client.iter().map(|&(_, r, _)| r).sum();
        let examined: usize = per_client.iter().map(|&(_, _, e)| e).sum();
        let executed = latencies.len().max(1);

        let meter = search.traffic();
        let up = meter.total_matching(|from, to| {
            matches!(from, NodeId::User(_)) && matches!(to, NodeId::IndexServer(_))
        });
        let down = meter.total_matching(|from, to| {
            matches!(from, NodeId::IndexServer(_)) && matches!(to, NodeId::User(_))
        });

        points.push(ScalabilityPoint {
            peers,
            clients,
            queries: latencies.len(),
            qps: latencies.len() as f64 / wall,
            p50_ms: percentile(&latencies, 0.50),
            p95_ms: percentile(&latencies, 0.95),
            wire_up_per_query: up as f64 / executed as f64,
            wire_down_per_query: down as f64 / executed as f64,
            candidates_received_per_query: received as f64 / executed as f64,
            candidates_examined_per_query: examined as f64 / executed as f64,
            matches_single_node,
        });
    }

    let (failover_point, repair_point) = inproc_failover(docs, &queries, &reference);

    Scalability {
        points,
        reference_checks: checks,
        failover: vec![failover_point],
        repair: vec![repair_point],
    }
}

/// Sorts latencies and folds the common failover bookkeeping into a
/// [`FailoverPoint`].
fn failover_point(
    transport: &'static str,
    mut latencies: Vec<f64>,
    ok: usize,
    hedges: usize,
    matches_single_node: bool,
) -> FailoverPoint {
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let executed = latencies.len().max(1);
    FailoverPoint {
        transport,
        peers: FAILOVER_PEERS,
        replication: FAILOVER_REPLICATION,
        queries: latencies.len(),
        ok,
        availability_pct: 100.0 * ok as f64 / executed as f64,
        hedge_rate: hedges as f64 / executed as f64,
        p50_ms: percentile(&latencies, 0.50),
        p95_ms: percentile(&latencies, 0.95),
        matches_single_node,
    }
}

/// Folds a post-repair replay into a [`RepairPoint`].
#[allow(clippy::too_many_arguments)]
fn repair_point(
    transport: &'static str,
    mttr_ms: f64,
    segments_shipped: u64,
    bytes_shipped: u64,
    queries: usize,
    ok: usize,
    matches_single_node: bool,
) -> RepairPoint {
    RepairPoint {
        transport,
        peers: FAILOVER_PEERS,
        replication: FAILOVER_REPLICATION,
        mttr_ms,
        segments_shipped,
        bytes_shipped,
        queries,
        ok,
        availability_pct: 100.0 * ok as f64 / queries.max(1) as f64,
        matches_single_node,
    }
}

/// The in-proc kill-a-peer scenario: replicated deployment, one peer's
/// thread shut down halfway through the workload. With R = 2 no shard
/// is lost, so availability must hold at 100% while the hedge rate
/// records the failovers. Afterwards the dead peer is revived —
/// respawned mid-rebuild and re-shipped from live replicas — and the
/// repaired deployment replays the workload again, which must stay at
/// 100% availability and bit-identical results.
fn inproc_failover(
    docs: &[zerber_index::Document],
    queries: &[Vec<TermId>],
    reference: &[Vec<RankedDoc>],
) -> (FailoverPoint, RepairPoint) {
    let config = ZerberConfig::default()
        .with_peers(FAILOVER_PEERS)
        .with_replication(FAILOVER_REPLICATION);
    let search = ShardedSearch::launch(&config, docs).expect("valid config");
    let kill_at = queries.len() / 2;
    let mut latencies = Vec::with_capacity(queries.len());
    let mut ok = 0usize;
    for (i, query) in queries.iter().enumerate() {
        if i == kill_at {
            search.kill_peer(KILLED_PEER);
        }
        let begun = Instant::now();
        if search.query(query, K).is_ok() {
            ok += 1;
        }
        latencies.push(begun.elapsed().as_secs_f64() * 1e3);
    }
    // Hedge accounting moved to the metrics registry: snapshot before
    // the correctness replay below so only the workload's hedges count.
    let hedges = search
        .obs()
        .registry()
        .snapshot()
        .counter("zerber_gather_hedges_total")
        .unwrap_or(0) as usize;
    // Post-kill correctness: failover may never change results.
    let mut matches_single_node = true;
    for (query, expected) in queries[..reference.len()].iter().zip(reference) {
        matches_single_node &= match search.query(query, K) {
            Ok(outcome) => &outcome.ranked == expected,
            Err(_) => false,
        };
    }
    let failover = failover_point("in-proc", latencies, ok, hedges, matches_single_node);

    // Revive: the dead peer respawns mid-rebuild, every shard it hosts
    // streams back from a live replica, and the repaired deployment
    // replays the workload — 100% availability, bit-identical results.
    let begun = Instant::now();
    let shipped = search
        .revive_peer(KILLED_PEER)
        .expect("a live replica per shard to rebuild from");
    let mttr_ms = begun.elapsed().as_secs_f64() * 1e3;
    let mut repaired_ok = 0usize;
    for query in queries {
        if search.query(query, K).is_ok() {
            repaired_ok += 1;
        }
    }
    let mut repaired_matches = true;
    for (query, expected) in queries[..reference.len()].iter().zip(reference) {
        repaired_matches &= match search.query(query, K) {
            Ok(outcome) => &outcome.ranked == expected,
            Err(_) => false,
        };
    }
    let repair = repair_point(
        "in-proc",
        mttr_ms,
        shipped.segments,
        shipped.bytes,
        queries.len(),
        repaired_ok,
        repaired_matches,
    );
    (failover, repair)
}

// ---------------------------------------------------------------------
// Multi-process socket mode (`repro scalability --socket`): the same
// kill-a-peer scenario over real TCP, with each peer its own OS
// process. The parent spawns `repro --serve-peer <i>` children, which
// rebuild the (deterministic) shared scenario, serve their replica
// shards, and print `READY <addr>`; the parent then drives the query
// log through a `SocketTransport` and SIGKILLs one child halfway.
// ---------------------------------------------------------------------

/// Child-process entry for socket mode: serve peer `peer` of the
/// [`FAILOVER_PEERS`]-peer, [`FAILOVER_REPLICATION`]-replica
/// deployment on an ephemeral loopback port, announce `READY <addr>`
/// on stdout, and hold until stdin closes (or the process is killed —
/// which is the point of the scenario).
///
/// With `rebuild` the child starts *empty*, mid-rebuild: it buffers
/// writes and bounces reads on every hosted shard until the parent
/// streams each shard's snapshot over the socket and commits it —
/// the replacement process for a SIGKILLed peer.
pub fn serve_socket_peer(peer: usize, scale: Scale, rebuild: bool) {
    let map = ShardMap::new(FAILOVER_PEERS as u32);
    let hosted = map.hosted_shards(peer as u32, FAILOVER_REPLICATION as u32);
    let backend = ZerberConfig::default().postings;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let peer_handle = serve_peer(
        listener,
        NodeId::IndexServer(peer as u32),
        move || {
            if rebuild {
                ShardService::rebuilding(hosted.clone()).with_restore(Box::new(move |_, files| {
                    restore_shard_store(&backend, files)
                }))
            } else {
                let scenario = OdpScenario::shared(scale);
                let shards = map.partition(&scenario.corpus.documents, |doc| doc.id);
                ShardService::hosting(hosted.clone().into_iter().map(|shard| {
                    let store = build_shard_store(&backend, &shards[shard as usize]);
                    (shard, store)
                }))
            }
        },
        Arc::new(TrafficMeter::new()),
    )
    .expect("serve on loopback");
    println!("READY {}", peer_handle.addr());
    use std::io::Read as _;
    let mut hold = String::new();
    std::io::stdin().read_to_string(&mut hold).ok();
}

/// One query through the socket transport: the same client-side path
/// as [`ShardedSearch::query`] (global IDF weights, per-shard top-k,
/// hedged fan-out, TA gather), over TCP. Returns the ranked results
/// and the hedges spent, or `None` if a shard was unavailable.
fn socket_query(
    transport: &SocketTransport,
    map: &ShardMap,
    stats: &TermStats,
    policy: &HedgePolicy,
    terms: &[TermId],
) -> Option<(Vec<RankedDoc>, usize)> {
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
                .replica_peers(shard, FAILOVER_REPLICATION as u32)
                .into_iter()
                .map(|peer| NodeId::IndexServer(peer.0))
                .collect();
            (shard, replicas, Arc::from(request.encode().as_ref()))
        })
        .collect();
    let fetches = hedged_fan_out(transport, NodeId::User(0), AuthToken(0), 0, &shards, policy);
    let mut per_shard: Vec<Vec<RankedDoc>> = Vec::with_capacity(fetches.len());
    let mut hedges = 0usize;
    for fetch in fetches {
        let fetch = fetch.ok()?;
        hedges += fetch.hedges();
        per_shard.push(fetch.answer.candidates);
    }
    Some((gather_topk(&per_shard, K).ranked, hedges))
}

/// Reads one child's `READY <addr>` handshake and registers the
/// address with the transport.
fn register_child(
    transport: &SocketTransport,
    peer: usize,
    child: &mut std::process::Child,
) -> std::io::Result<()> {
    use std::io::BufRead as _;
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut ready = String::new();
    std::io::BufReader::new(stdout).read_line(&mut ready)?;
    let addr = ready
        .trim()
        .strip_prefix("READY ")
        .unwrap_or_else(|| panic!("bad child handshake: {ready:?}"))
        .parse()
        .expect("child printed a socket address");
    transport.register(NodeId::IndexServer(peer as u32), addr);
    Ok(())
}

/// Parent side of socket mode. `spawn` launches one peer child (the
/// `repro` binary re-executing itself with `--serve-peer <i>`, plus
/// `--rebuild` when the second argument is set) with piped
/// stdin/stdout; the parent reads each child's `READY <addr>`
/// handshake, registers the addresses, replays the query log, and
/// SIGKILLs peer [`KILLED_PEER`] halfway through. Afterwards the
/// killed peer is *replaced*: a fresh `--rebuild` child spawns empty,
/// every shard it hosts streams over TCP from a live peer, and the
/// repaired deployment is re-verified — the SIGKILL-and-rebuild MTTR
/// row.
pub fn run_socket(
    scale: Scale,
    spawn: &mut dyn FnMut(usize, bool) -> std::io::Result<std::process::Child>,
) -> std::io::Result<(FailoverPoint, RepairPoint)> {
    let scenario = OdpScenario::shared(scale);
    let docs = &scenario.corpus.documents;
    let sample = match scale {
        Scale::Default => 800usize,
        Scale::Smoke => 120,
    };
    let queries: Vec<Vec<TermId>> = scenario
        .log
        .queries
        .iter()
        .filter(|q| !q.is_empty())
        .take(sample)
        .cloned()
        .collect();
    let stats = TermStats::from_documents(docs);
    let map = ShardMap::new(FAILOVER_PEERS as u32);
    let transport = SocketTransport::new(Arc::new(TrafficMeter::new()));
    let policy = HedgePolicy {
        hedge_after: std::time::Duration::from_millis(25),
        deadline: std::time::Duration::from_secs(2),
    };

    let mut children = Vec::with_capacity(FAILOVER_PEERS);
    for peer in 0..FAILOVER_PEERS {
        let mut child = spawn(peer, false)?;
        register_child(&transport, peer, &mut child)?;
        children.push(child);
    }

    let base = ZerberConfig::default();
    let checks = REFERENCE_CHECKS.min(queries.len());
    let reference: Vec<Vec<RankedDoc>> = queries[..checks]
        .iter()
        .map(|q| local_topk(&base, docs, q, K))
        .collect();

    let kill_at = queries.len() / 2;
    let mut latencies = Vec::with_capacity(queries.len());
    let mut ok = 0usize;
    let mut hedges = 0usize;
    for (i, query) in queries.iter().enumerate() {
        if i == kill_at {
            children[KILLED_PEER as usize].kill()?;
        }
        let begun = Instant::now();
        if let Some((_, spent)) = socket_query(&transport, &map, &stats, &policy, query) {
            ok += 1;
            hedges += spent;
        }
        latencies.push(begun.elapsed().as_secs_f64() * 1e3);
    }
    let mut matches_single_node = true;
    for (query, expected) in queries[..checks].iter().zip(&reference) {
        matches_single_node &= match socket_query(&transport, &map, &stats, &policy, query) {
            Some((ranked, _)) => &ranked == expected,
            None => false,
        };
    }
    let failover = failover_point("socket", latencies, ok, hedges, matches_single_node);

    // Replace the SIGKILLed peer: a fresh `--rebuild` child spawns
    // empty (buffering writes, bouncing reads), and every shard it
    // hosts streams from a live peer over the same TCP transport the
    // queries use. MTTR covers respawn + handshake + every rebuild.
    let begun = Instant::now();
    let mut replacement = spawn(KILLED_PEER as usize, true)?;
    register_child(&transport, KILLED_PEER as usize, &mut replacement)?;
    let mut segments_shipped = 0u64;
    let mut bytes_shipped = 0u64;
    for shard in map.hosted_shards(KILLED_PEER, FAILOVER_REPLICATION as u32) {
        let source = map
            .replica_peers(shard, FAILOVER_REPLICATION as u32)
            .into_iter()
            .map(|p| p.0)
            .find(|&p| p != KILLED_PEER)
            .expect("R = 2 leaves a live replica");
        let shipped = rebuild_shard(
            &transport,
            NodeId::Owner(0),
            AuthToken(0),
            NodeId::IndexServer(source),
            NodeId::IndexServer(KILLED_PEER),
            shard,
            None,
        )
        .expect("the live replica ships the shard over TCP");
        segments_shipped += shipped.segments;
        bytes_shipped += shipped.bytes;
    }
    let mttr_ms = begun.elapsed().as_secs_f64() * 1e3;
    children[KILLED_PEER as usize] = replacement;

    // The repaired deployment replays the workload and re-verifies.
    let mut repaired_ok = 0usize;
    for query in &queries {
        if socket_query(&transport, &map, &stats, &policy, query).is_some() {
            repaired_ok += 1;
        }
    }
    let mut repaired_matches = true;
    for (query, expected) in queries[..checks].iter().zip(&reference) {
        repaired_matches &= match socket_query(&transport, &map, &stats, &policy, query) {
            Some((ranked, _)) => &ranked == expected,
            None => false,
        };
    }
    let repair = repair_point(
        "socket",
        mttr_ms,
        segments_shipped,
        bytes_shipped,
        queries.len(),
        repaired_ok,
        repaired_matches,
    );

    for child in &mut children {
        child.kill().ok();
        child.wait().ok();
    }
    Ok((failover, repair))
}

/// Formats the sweep.
pub fn render(result: &Scalability) -> String {
    let mut table = Table::new(
        "Scalability: sharded fan-out/gather vs peer count (concurrent clients)",
        &[
            "peers", "clients", "queries", "qps", "p50 ms", "p95 ms", "up B/q", "down B/q",
            "cand/q", "gathered", "= 1-node",
        ],
    );
    for p in &result.points {
        table.row(&[
            p.peers.to_string(),
            p.clients.to_string(),
            p.queries.to_string(),
            format!("{:.0}", p.qps),
            format!("{:.3}", p.p50_ms),
            format!("{:.3}", p.p95_ms),
            format!("{:.0}", p.wire_up_per_query),
            format!("{:.0}", p.wire_down_per_query),
            format!("{:.1}", p.candidates_received_per_query),
            format!("{:.1}", p.candidates_examined_per_query),
            if p.matches_single_node { "yes" } else { "NO" }.into(),
        ]);
    }
    let mut out = table.render();
    out.push_str(&format!(
        "per-query fan-out grows with peers (more links), while per-peer work shrinks; \
         every configuration's top-{K} verified identical to single-node evaluation \
         on {} reference queries\n",
        result.reference_checks
    ));

    let mut failover = Table::new(
        "Kill-a-peer: one replica killed mid-workload (queries keep flowing)",
        &[
            "transport",
            "peers",
            "R",
            "queries",
            "avail %",
            "hedges/q",
            "p50 ms",
            "p95 ms",
            "= 1-node",
        ],
    );
    for p in &result.failover {
        failover.row(&[
            p.transport.to_string(),
            p.peers.to_string(),
            p.replication.to_string(),
            p.queries.to_string(),
            format!("{:.2}", p.availability_pct),
            format!("{:.3}", p.hedge_rate),
            format!("{:.3}", p.p50_ms),
            format!("{:.3}", p.p95_ms),
            if p.matches_single_node { "yes" } else { "NO" }.into(),
        ]);
    }
    out.push('\n');
    out.push_str(&failover.render());
    out.push_str(&format!(
        "peer {KILLED_PEER} is killed halfway; with R = {FAILOVER_REPLICATION} every shard \
         keeps a live replica, so availability holds and the hedge rate records the \
         failovers (run `repro scalability --socket` for the multi-process TCP variant)\n",
    ));

    let mut repair = Table::new(
        "Repair: the killed replica revived and rebuilt from live replicas",
        &[
            "transport",
            "peers",
            "R",
            "mttr ms",
            "segments",
            "bytes",
            "queries",
            "avail %",
            "= 1-node",
        ],
    );
    for p in &result.repair {
        repair.row(&[
            p.transport.to_string(),
            p.peers.to_string(),
            p.replication.to_string(),
            format!("{:.3}", p.mttr_ms),
            p.segments_shipped.to_string(),
            p.bytes_shipped.to_string(),
            p.queries.to_string(),
            format!("{:.2}", p.availability_pct),
            if p.matches_single_node { "yes" } else { "NO" }.into(),
        ]);
    }
    out.push('\n');
    out.push_str(&repair.render());
    out.push_str(
        "mttr is the wall clock from starting the revival (socket mode: respawning the \
         replacement process) to the last hosted shard's cutover; the repaired deployment \
         replays the whole workload at 100% availability, bit-identical to single-node\n",
    );
    out
}

/// Machine-readable form for `repro --json`
/// (`BENCH_scalability.json`): one object per swept peer count.
pub fn to_json(result: &Scalability) -> String {
    use crate::json::{array, number, object};
    let points: Vec<String> = result
        .points
        .iter()
        .map(|p| {
            object(&[
                ("peers", number(p.peers as f64)),
                ("clients", number(p.clients as f64)),
                ("queries", number(p.queries as f64)),
                ("qps", number(p.qps)),
                ("p50_ms", number(p.p50_ms)),
                ("p95_ms", number(p.p95_ms)),
                ("wire_up_per_query", number(p.wire_up_per_query)),
                ("wire_down_per_query", number(p.wire_down_per_query)),
                (
                    "candidates_received_per_query",
                    number(p.candidates_received_per_query),
                ),
                (
                    "candidates_examined_per_query",
                    number(p.candidates_examined_per_query),
                ),
                (
                    "matches_single_node",
                    if p.matches_single_node {
                        "true"
                    } else {
                        "false"
                    }
                    .to_owned(),
                ),
            ])
        })
        .collect();
    let failover: Vec<String> = result
        .failover
        .iter()
        .map(|p| {
            object(&[
                ("transport", crate::json::string(p.transport)),
                ("peers", number(p.peers as f64)),
                ("replication", number(p.replication as f64)),
                ("killed_peer", number(f64::from(KILLED_PEER))),
                ("queries", number(p.queries as f64)),
                ("ok", number(p.ok as f64)),
                ("availability_pct", number(p.availability_pct)),
                ("hedge_rate", number(p.hedge_rate)),
                ("p50_ms", number(p.p50_ms)),
                ("p95_ms", number(p.p95_ms)),
                (
                    "matches_single_node",
                    if p.matches_single_node {
                        "true"
                    } else {
                        "false"
                    }
                    .to_owned(),
                ),
            ])
        })
        .collect();
    let repair: Vec<String> = result
        .repair
        .iter()
        .map(|p| {
            object(&[
                ("transport", crate::json::string(p.transport)),
                ("peers", number(p.peers as f64)),
                ("replication", number(p.replication as f64)),
                ("killed_peer", number(f64::from(KILLED_PEER))),
                ("mttr_ms", number(p.mttr_ms)),
                ("segments_shipped", number(p.segments_shipped as f64)),
                ("bytes_shipped", number(p.bytes_shipped as f64)),
                ("queries", number(p.queries as f64)),
                ("ok", number(p.ok as f64)),
                ("availability_pct", number(p.availability_pct)),
                (
                    "matches_single_node",
                    if p.matches_single_node {
                        "true"
                    } else {
                        "false"
                    }
                    .to_owned(),
                ),
            ])
        })
        .collect();
    object(&[
        ("k", number(K as f64)),
        ("reference_checks", number(result.reference_checks as f64)),
        ("points", array(&points)),
        ("failover", array(&failover)),
        ("repair", array(&repair)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_form_carries_every_point() {
        let result = Scalability {
            points: vec![ScalabilityPoint {
                peers: 2,
                clients: 4,
                queries: 10,
                qps: 123.0,
                p50_ms: 1.0,
                p95_ms: 2.0,
                wire_up_per_query: 100.0,
                wire_down_per_query: 200.0,
                candidates_received_per_query: 20.0,
                candidates_examined_per_query: 9.5,
                matches_single_node: true,
            }],
            reference_checks: 5,
            failover: vec![FailoverPoint {
                transport: "in-proc",
                peers: 4,
                replication: 2,
                queries: 100,
                ok: 100,
                availability_pct: 100.0,
                hedge_rate: 0.25,
                p50_ms: 1.0,
                p95_ms: 4.0,
                matches_single_node: true,
            }],
            repair: vec![RepairPoint {
                transport: "in-proc",
                peers: 4,
                replication: 2,
                mttr_ms: 12.5,
                segments_shipped: 4,
                bytes_shipped: 4096,
                queries: 100,
                ok: 100,
                availability_pct: 100.0,
                matches_single_node: true,
            }],
        };
        let json = to_json(&result);
        assert!(json.contains("\"points\":[{"));
        assert!(json.contains("\"qps\":123"));
        assert!(json.contains("\"matches_single_node\":true"));
        assert!(json.contains("\"failover\":[{"));
        assert!(json.contains("\"availability_pct\":100"));
        assert!(json.contains("\"hedge_rate\":0.25"));
        assert!(json.contains("\"transport\":\"in-proc\""));
        assert!(json.contains("\"repair\":[{"));
        assert!(json.contains("\"mttr_ms\":12.5"));
        assert!(json.contains("\"bytes_shipped\":4096"));
    }

    #[test]
    fn sweep_runs_and_matches_single_node() {
        let result = run(Scale::Smoke);
        assert_eq!(result.points.len(), PEER_COUNTS.len());
        assert!(result.reference_checks > 0);
        for point in &result.points {
            assert!(point.matches_single_node, "{} peers diverged", point.peers);
            assert!(point.queries > 0);
            assert!(point.qps > 0.0);
            assert!(point.p95_ms >= point.p50_ms);
            assert!(point.wire_up_per_query > 0.0);
            assert!(point.wire_down_per_query > 0.0);
            assert!(
                point.candidates_examined_per_query <= K as f64 + 1e-9,
                "gather examines at most k"
            );
            assert!(
                point.candidates_received_per_query >= point.candidates_examined_per_query - 1e-9
            );
        }
        // Fan-out cost: 16 peers ship more request bytes per query
        // than 1 peer.
        let first = &result.points[0];
        let last = result.points.last().unwrap();
        assert!(last.wire_up_per_query > first.wire_up_per_query);

        // The kill-a-peer scenario: R = 2 keeps every shard covered,
        // so no query is lost and the failovers show up as hedges.
        let failover = &result.failover[0];
        assert_eq!(failover.transport, "in-proc");
        assert_eq!(failover.ok, failover.queries, "no availability loss");
        assert!((failover.availability_pct - 100.0).abs() < 1e-9);
        assert!(failover.hedge_rate > 0.0, "the kill must force hedges");
        assert!(failover.matches_single_node, "failover changed results");

        // The repair row: the killed peer was revived, real bytes were
        // shipped, and the repaired deployment lost nothing.
        let repair = &result.repair[0];
        assert_eq!(repair.transport, "in-proc");
        assert!(repair.mttr_ms > 0.0);
        assert!(repair.segments_shipped > 0, "rebuild shipped no segments");
        assert!(repair.bytes_shipped > 0, "rebuild shipped no bytes");
        assert_eq!(repair.ok, repair.queries, "repair lost availability");
        assert!((repair.availability_pct - 100.0).abs() < 1e-9);
        assert!(repair.matches_single_node, "repair changed results");
    }
}
