//! End-to-end observability integration tests: the span tree a traced
//! query assembles (in-process and across the socket transport), its
//! consistency with externally measured latency, and the Prometheus
//! exposition of a deployment's registry.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zerber::runtime::socket::{serve_peer, SocketTransport};
use zerber::runtime::{
    local_topk, FaultInjectTransport, FaultPlan, HedgePolicy, RuntimeObs, ShardMap, ShardService,
    ShardedSearch,
};
use zerber::{SegmentPolicy, ZerberConfig};
use zerber_index::{DocId, Document, GroupId, TermId};
use zerber_net::{NodeId, TrafficMeter};
use zerber_query::{Forced, Query};
use zerber_segment::SegmentStore;

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

/// The confidential path's client reports its own stages: one
/// `execute` span whose children — fetch, recombine, rank — tile it in
/// order, with the counts each stage worked through.
#[test]
fn confidential_query_splits_into_fetch_recombine_rank() {
    let docs = corpus(60, 7);
    let index = zerber_index::InvertedIndex::from_documents(&docs);
    let config = ZerberConfig::default().with_merge(zerber_core::merge::MergeConfig::dfm(4));
    let mut system = zerber::ZerberSystem::bootstrap(config, &index.statistics()).expect("config");
    let reader = zerber_index::UserId(1);
    system.add_membership(reader, GroupId(0));
    system.index_corpus(&docs).expect("index");

    let outcome = system
        .query(reader, &[TermId(1), TermId(4)], 8)
        .expect("query");
    let execute = &outcome.trace;
    assert_eq!(execute.name, "execute");
    let names: Vec<&str> = execute.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["fetch", "recombine", "rank"]);
    let staged: Duration = execute.children.iter().map(|c| c.duration).sum();
    assert!(
        staged <= execute.duration,
        "stages {staged:?} exceed the query's {:?}",
        execute.duration
    );
    for pair in execute.children.windows(2) {
        assert_eq!(pair[0].start + pair[0].duration, pair[1].start);
    }
    let counter = |span: &str, name: &str| {
        let span = execute.find(span).expect("stage span");
        let found = span.counters.iter().find(|(n, _)| *n == name);
        found
            .unwrap_or_else(|| panic!("{name} missing from {span:?}"))
            .1
    };
    assert_eq!(counter("fetch", "lists"), outcome.lists_requested as u64);
    assert_eq!(counter("fetch", "shares"), outcome.elements_received as u64);
    assert_eq!(counter("recombine", "realigned_lists"), 0);
    assert_eq!(
        counter("recombine", "matching"),
        outcome.matching_elements.len() as u64
    );
    assert_eq!(
        counter("rank", "elements"),
        counter("recombine", "matching")
    );
    let holders = docs
        .iter()
        .filter(|doc| {
            doc.terms
                .iter()
                .any(|&(t, _)| t == TermId(1) || t == TermId(4))
        })
        .count();
    assert_eq!(counter("rank", "docs"), holders as u64);
}

/// A traced query through the chaos harness: muting a primary forces a
/// hedge, and both the failed attempt and the hedge must be visible in
/// the query's span tree and the registry.
#[test]
fn hedged_failover_is_recorded_in_the_span_tree() {
    let docs = corpus(120, 11);
    let config = ZerberConfig::default().with_peers(3).with_replication(2);
    let mut harness = None;
    let mut search = ShardedSearch::launch_with_transport(&config, &docs, |inner| {
        let chaos = Arc::new(FaultInjectTransport::new(inner, FaultPlan::quiet(0)));
        harness = Some(Arc::clone(&chaos));
        chaos
    })
    .expect("valid config");
    search.set_hedge_policy(HedgePolicy {
        hedge_after: Duration::from_millis(3),
        deadline: Duration::from_secs(5),
    });
    let chaos = harness.expect("wrap ran");

    let dead = NodeId::IndexServer(0);
    chaos.mute(dead);
    let outcome = search
        .query(&[TermId(1), TermId(4)], 8)
        .expect("replica covers the muted peer's shards");

    let fan_out = outcome.trace.root.find("fan_out").expect("fan-out span");
    let hedged_shard = fan_out
        .children
        .iter()
        .find(|shard| {
            shard
                .children
                .iter()
                .any(|rpc| rpc.name == format!("rpc {dead:?}") && rpc.is_failed())
        })
        .unwrap_or_else(|| {
            panic!(
                "muted primary's failed attempt missing from trace:\n{}",
                outcome.trace.render()
            )
        });
    assert!(
        hedged_shard.children.len() >= 2,
        "the hedge attempt must appear next to the failed one:\n{}",
        outcome.trace.render()
    );
    assert!(
        hedged_shard
            .children
            .iter()
            .any(|rpc| !rpc.is_failed() && rpc.find("decode").is_some()),
        "the winning attempt must carry the peer's decode span:\n{}",
        outcome.trace.render()
    );

    let metrics = search.obs().registry().snapshot();
    assert!(metrics.counter("zerber_gather_hedges_total").unwrap_or(0) >= 1);
    assert!(
        metrics
            .counter("zerber_gather_failed_attempts_total")
            .unwrap_or(0)
            >= 1
    );
}

/// One traced query through a real 4-peer replicated socket cluster,
/// driven by the same coordinator as an in-process deployment: the
/// span tree must be complete — fan-out, one span per shard,
/// per-replica RPC attempts, the peers' decode spans, gather — and
/// every stage must fit inside the externally measured end-to-end
/// latency.
#[test]
fn socket_cluster_query_yields_a_complete_consistent_trace() {
    const PEERS: u32 = 4;
    const REPLICATION: u32 = 2;
    const K: usize = 6;

    let docs = corpus(200, 17);
    let config = ZerberConfig::default()
        .with_peers(PEERS as usize)
        .with_replication(REPLICATION as usize);
    let map = ShardMap::new(PEERS);
    let shards = Arc::new(map.partition(&docs, |doc| doc.id));
    let obs = RuntimeObs::new();
    let transport = SocketTransport::new(Arc::new(TrafficMeter::new())).observed(obs.registry());
    let mut peers = Vec::new();
    for peer in 0..PEERS {
        let hosted = map.hosted_shards(peer, REPLICATION);
        let (backend, shards) = (config.postings.clone(), Arc::clone(&shards));
        let init = move || {
            let registry = zerber_obs::MetricsRegistry::new();
            ShardService::for_peer(&backend, peer, hosted, Some(&shards), &registry)
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let node = NodeId::IndexServer(peer);
        let handle = serve_peer(listener, node, init, Arc::new(TrafficMeter::new()))
            .expect("serve on loopback");
        transport.register(node, handle.addr());
        peers.push(handle);
    }
    let search =
        ShardedSearch::connect(&config, &docs, Arc::new(transport), obs).expect("valid config");

    let terms = [TermId(3), TermId(9)];
    let started = Instant::now();
    let outcome = search.query(&terms, K).expect("healthy cluster");
    let total = started.elapsed();
    let trace = &outcome.trace;

    // Correctness first: the traced socket query returns the oracle.
    assert_eq!(outcome.ranked, local_topk(&docs, &terms, K));

    // Completeness: one shard span per shard, each with at least one
    // RPC attempt, and every settled shard carries the winning peer's
    // decode span (assembled from numbers that crossed the wire).
    let fan_out = trace.root.find("fan_out").expect("fan-out span");
    assert_eq!(fan_out.children.len(), PEERS as usize);
    for shard_span in &fan_out.children {
        assert!(
            !shard_span.is_failed(),
            "healthy cluster: {}",
            trace.render()
        );
        assert!(!shard_span.children.is_empty(), "no RPC attempt recorded");
        let decode = shard_span
            .find("decode")
            .unwrap_or_else(|| panic!("decode span missing:\n{}", trace.render()));
        // …and the accounting counts blocks: a launched corpus is
        // served from sealed, block-compressed segments with skip
        // metadata, not from one decoded memtable.
        let blocks_total = decode
            .counters
            .iter()
            .find(|&&(name, _)| name == "blocks_total")
            .expect("decode span must carry the peer's block accounting");
        assert!(blocks_total.1 > 0, "{}", trace.render());
    }
    let gather = trace.root.find("gather").expect("gather span");

    // Consistency: stages nest inside the measured end-to-end latency.
    assert!(trace.total <= total);
    assert!(fan_out.duration + gather.duration <= trace.total);
    for shard_span in &fan_out.children {
        assert!(shard_span.duration <= fan_out.duration);
        for rpc in &shard_span.children {
            assert!(rpc.start + rpc.duration <= shard_span.duration + Duration::from_millis(1));
            if let Some(decode) = rpc.find("decode") {
                assert!(
                    decode.duration <= rpc.duration,
                    "a peer's compute is contained in the RPC that carried it"
                );
            }
        }
    }

    // The trace landed in both forensics sinks, and the transport's
    // client-side metrics saw the session.
    let obs = search.obs();
    assert_eq!(obs.flight_recorder().len(), 1);
    assert_eq!(
        obs.slow_queries().slowest().expect("one trace").id,
        trace.id
    );
    let metrics = obs.snapshot_with_traffic(search.traffic());
    assert!(metrics.counter("zerber_socket_requests_total").unwrap_or(0) >= PEERS as u64);
    assert!(metrics.gauge("zerber_transport_bytes_total").unwrap_or(0) > 0);
    assert_eq!(
        metrics
            .histogram("zerber_transport_rpc_latency_ns")
            .expect("rpc latency histogram")
            .count,
        PEERS as u64
    );
}

/// The shaped-query path's counters: every ask lands in exactly one of
/// `zerber_cache_{hits,misses}_total`, every miss increments its
/// evaluator's `zerber_query_plan_total{plan=...}` counter, and a
/// cache-served query's trace carries a `cache` span instead of a
/// fan-out.
#[test]
fn cache_and_plan_counters_track_the_shaped_path() {
    let docs = corpus(100, 11);
    let config = ZerberConfig::default().with_peers(3);
    let search = ShardedSearch::launch(&config, &docs).expect("valid config");

    let two_terms = Query::Terms {
        terms: vec![TermId(1), TermId(4)],
        k: 5,
    };
    let miss = search
        .query_shaped(0, two_terms.clone(), Forced::Auto)
        .expect("healthy");
    assert!(miss.peers_contacted > 0);
    assert!(miss.trace.root.find("fan_out").is_some());
    let hit = search
        .query_shaped(0, two_terms, Forced::Auto)
        .expect("healthy");
    assert_eq!(hit.peers_contacted, 0);
    assert_eq!(hit.ranked, miss.ranked);
    let cache_span = hit
        .trace
        .root
        .find("cache")
        .unwrap_or_else(|| panic!("cache span missing:\n{}", hit.trace.render()));
    assert!(cache_span.counters.iter().any(|&(name, _)| name == "hit"));
    assert!(hit.trace.root.find("fan_out").is_none());

    // One miss per remaining shape: single-term Terms plans MaxScore
    // too, And the conjunctive leapfrog, Phrase the phrase filter.
    for query in [
        Query::Terms {
            terms: vec![TermId(2)],
            k: 5,
        },
        Query::And {
            terms: vec![TermId(1), TermId(2)],
            k: 5,
        },
        Query::Phrase {
            terms: vec![TermId(1), TermId(2)],
            k: 5,
        },
    ] {
        search
            .query_shaped(0, query, Forced::Auto)
            .expect("healthy");
    }

    let metrics = search.obs().registry().snapshot();
    assert_eq!(metrics.counter("zerber_cache_hits_total"), Some(1));
    assert_eq!(metrics.counter("zerber_cache_misses_total"), Some(4));
    assert_eq!(metrics.counter("zerber_cache_evictions_total"), Some(0));
    for (plan, misses) in [("maxscore", 2), ("conjunctive", 1), ("phrase", 1)] {
        assert_eq!(
            metrics.counter(&format!("zerber_query_plan_total{{plan=\"{plan}\"}}")),
            Some(misses),
            "plan counter for {plan}"
        );
    }
    // The peers count what their evaluators scored (the number stays
    // process-local; the response frames carry only block counts), and
    // every returned document was scored on some peer.
    assert!(
        metrics.counter("zerber_peer_postings_scored_total") >= Some(miss.ranked.len() as u64),
        "peers must count scored postings"
    );
}

/// `query()` is the uncached read: it never probes or fills the result
/// cache — not even when the shaped path has cached the very same
/// query — so every call reaches the peers, and it counts under the
/// MaxScore plan every `Terms` query runs.
#[test]
fn uncached_query_bypasses_the_result_cache_and_counts_its_plan() {
    let docs = corpus(100, 11);
    let config = ZerberConfig::default().with_peers(3);
    let search = ShardedSearch::launch(&config, &docs).expect("valid config");
    let terms = [TermId(1), TermId(4)];

    let first = search.query(&terms, 5).expect("healthy");
    assert!(first.peers_contacted > 0);
    assert!(search.result_cache().is_empty(), "query() must not fill");
    let metrics = search.obs().registry().snapshot();
    assert_eq!(metrics.counter("zerber_cache_hits_total").unwrap_or(0), 0);
    assert_eq!(metrics.counter("zerber_cache_misses_total").unwrap_or(0), 0);

    // Cache the same query through the shaped path, then ask again.
    let shaped = Query::Terms {
        terms: terms.to_vec(),
        k: 5,
    };
    let cached = search
        .query_shaped(0, shaped, Forced::Auto)
        .expect("healthy");
    assert_eq!(cached.ranked, first.ranked);
    assert_eq!(search.result_cache().len(), 1);
    let again = search.query(&terms, 5).expect("healthy");
    assert!(again.peers_contacted > 0, "query() must not read the cache");
    assert!(again.trace.root.find("fan_out").is_some());

    let metrics = search.obs().registry().snapshot();
    assert_eq!(metrics.counter("zerber_cache_hits_total").unwrap_or(0), 0);
    assert_eq!(metrics.counter("zerber_cache_misses_total"), Some(1));
    assert_eq!(search.result_cache().len(), 1);
    assert_eq!(
        metrics.counter("zerber_query_plan_total{plan=\"maxscore\"}"),
        Some(3),
        "two query() calls and one shaped miss"
    );
}

/// The registry's Prometheus text exposition must parse line-by-line
/// and include the histogram families the dashboards are built on:
/// query latency, WAL fsync, and compaction duration.
#[test]
fn prometheus_exposition_parses_with_required_families() {
    let docs = corpus(150, 13);
    let config = ZerberConfig::default().with_peers(3).with_replication(2);
    let search = ShardedSearch::launch(&config, &docs).expect("valid config");
    for q in 0..5u32 {
        search
            .query(&[TermId(q % 13), TermId((q * 3 + 1) % 13)], 5)
            .expect("healthy cluster");
    }

    // A durable store observed into the same registry: drive enough
    // synced WAL appends, flushes, and one compaction that the segment
    // families carry samples, not just empty buckets.
    let dir = zerber_segment::ScratchDir::new("obs-prom");
    let store = SegmentStore::open_observed(
        &dir,
        SegmentPolicy {
            flush_postings: 48,
            max_segments: 2,
            background: false,
            sync_wal: true,
        },
        search.obs().registry(),
    )
    .expect("open observed");
    for batch in docs.chunks(30) {
        store.insert(batch).expect("seed batch");
    }
    store.flush().expect("flush");
    store.compact().expect("compact");
    // And one offline bulk load, so the SPIMI instruments carry
    // samples too.
    let bulk: Vec<Document> = (500..560u32)
        .map(|d| {
            Document::from_term_counts(DocId(d), GroupId(0), vec![(TermId(d % 13), 1 + d % 4)])
        })
        .collect();
    let before = search.obs().registry().snapshot();
    let bulk_stats = store
        .bulk_load(&bulk, zerber_segment::BulkConfig::default())
        .expect("bulk load");
    drop(store);

    // The bulk counters moved by the load that just ran (the
    // deployment's own stores were bulk-seeded into the same registry).
    let metrics = search.obs().registry().snapshot();
    let moved = |name: &str| metrics.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(moved("zerber_segment_bulk_docs_total"), bulk.len() as u64);
    assert_eq!(
        moved("zerber_segment_bulk_runs_total"),
        bulk_stats.runs as u64
    );
    assert_eq!(
        moved("zerber_segment_bulk_merge_bytes_total"),
        bulk_stats.merge_bytes
    );

    let text = search
        .obs()
        .snapshot_with_traffic(search.traffic())
        .to_prometheus();

    // Every line is either a comment (`# HELP` / `# TYPE`) or a sample
    // `name[{labels}] value` whose value parses as a finite number.
    let mut samples = 0usize;
    for line in text.lines() {
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(
                comment.starts_with("HELP ") || comment.starts_with("TYPE "),
                "unexpected comment line: {line}"
            );
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        assert!(value.is_finite(), "non-finite value in {line:?}");
        let name = name_part.split('{').next().expect("metric name");
        assert!(
            name.starts_with("zerber_"),
            "metric outside the zerber_<layer>_<name> scheme: {line:?}"
        );
        assert_eq!(
            name_part.contains('{'),
            name_part.ends_with('}'),
            "unbalanced label braces in {line:?}"
        );
        samples += 1;
    }
    assert!(samples > 0, "exposition was empty");

    // The required histogram families, each with observations.
    for family in [
        "zerber_query_latency_ns",
        "zerber_segment_wal_fsync_ns",
        "zerber_segment_compaction_ns",
        "zerber_segment_bulk_build_ns",
    ] {
        assert!(
            text.contains(&format!("{family}_bucket{{le=\"+Inf\"}}")),
            "missing +Inf bucket for {family}"
        );
        let count_line = text
            .lines()
            .find(|line| line.starts_with(&format!("{family}_count ")))
            .unwrap_or_else(|| panic!("missing {family}_count"));
        let count: u64 = count_line
            .rsplit_once(' ')
            .expect("count value")
            .1
            .parse()
            .expect("integer count");
        assert!(count > 0, "{family} recorded no observations");
    }
}

/// Repair observability: rebuilding a peer's shards accounts every
/// rebuilt copy, shipped segment, and shipped byte in the registry,
/// times each rebuild in the `zerber_repair_rebuild_ns` histogram, and
/// refreshes the `zerber_membership_up` gauge. The counters must agree
/// exactly with the [`RepairStats`] the repair itself returned — two
/// independent tallies of the same stream.
#[test]
fn repair_metrics_account_for_the_rebuild() {
    let docs = corpus(90, 9);
    let config = ZerberConfig::default().with_peers(3).with_replication(2);
    let search = ShardedSearch::launch(&config, &docs).expect("valid config");

    // Repairing a currently-serving peer is safe (the begin frame
    // flips its shards to write-buffering) and idempotent.
    let shipped = search.repair_peer(1).expect("repair a serving peer");
    assert!(shipped.segments > 0, "the rebuild streamed snapshot files");
    assert!(shipped.bytes > 0, "the rebuild streamed real bytes");

    let hosted = search
        .shard_map()
        .hosted_shards(1, search.replication())
        .len() as u64;
    let metrics = search.obs().registry().snapshot();
    assert_eq!(
        metrics.counter("zerber_repair_rebuilds_total"),
        Some(hosted)
    );
    assert_eq!(
        metrics.counter("zerber_repair_segments_shipped_total"),
        Some(shipped.segments)
    );
    assert_eq!(
        metrics.counter("zerber_repair_bytes_shipped_total"),
        Some(shipped.bytes)
    );
    let rebuild = metrics
        .histogram("zerber_repair_rebuild_ns")
        .expect("rebuild wall-clock histogram");
    assert_eq!(rebuild.count, hosted, "one timing sample per shard copy");
    assert_eq!(
        metrics.gauge("zerber_membership_up"),
        Some(3),
        "the readmitted peer counts as Up"
    );
}
