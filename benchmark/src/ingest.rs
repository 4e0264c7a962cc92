//! `ingest_stream`: bulk-load an empty 2-peer segmented deployment,
//! then stream batches of documents through `insert_documents` with a
//! delete after every fourth batch; shut down, reopen every shard
//! store from disk, and compare what recovered with a rebuild.

use std::collections::HashMap;
use std::time::Instant;

use zerber_index::{DocId, Document, InvertedIndex, Posting, PostingStore, TermId};
use zerber_net::NodeId;

use crate::harness::{
    flush_policy_note, repeated_setup, Deployment, RunConfig, SetupTiming, PEERS,
};
use crate::layers::{self, ReopenedShards, LOGICAL_POSTING_BYTES};
use crate::metrics::{peak_rss_mb, percentile, sorted, supported_tail, written_bytes, Report};
use crate::trace::Tracer;
use crate::workload::{Corpus, StreamHash, VOCABULARY};

/// Terms whose recovered posting lists the gate compares.
const GATE_TERMS: u32 = 200;

struct Prepared {
    deployment: Deployment,
    bulk: Vec<Document>,
    stream: Vec<Document>,
}

pub fn run(config: &RunConfig, report: &mut Report, tracer: &mut Option<Tracer>) {
    let bulk_docs: u32 = config.pick(40_000, 1_200);
    let batch_docs: usize = config.pick(64, 16);
    let batches = config.ops(52, 40);
    let stream_docs = (batches * batch_docs) as u32;

    let written_before = written_bytes();
    let prepared = repeated_setup(config, report, |report| {
        let corpus = Corpus::new(config.seed);
        let bulk = corpus.documents(0..bulk_docs);
        let stream = corpus.documents(bulk_docs..bulk_docs + stream_docs);
        let deployment = report.op("setup", Deployment::launch("ingest"))?;
        let started = Instant::now();
        report.op("setup", deployment.search().bulk_load(0, &bulk))?;
        let timing = SetupTiming {
            load_docs: bulk.len(),
            load_seconds: started.elapsed().as_secs_f64(),
        };
        Some((
            Prepared {
                deployment,
                bulk,
                stream,
            },
            timing,
        ))
    });
    let Some(mut prepared) = prepared else {
        return;
    };
    let search = prepared.deployment.search();

    // A delete follows every fourth batch and removes a bulk-loaded
    // document (each id at most once).
    let victim =
        |batch: usize| (batch % 4 == 3).then(|| DocId((batch as u32 / 4) * 53 % bulk_docs));
    let mut hash = StreamHash::default();
    prepared.bulk.iter().for_each(|doc| hash.document(doc));
    for (i, batch) in prepared.stream.chunks(batch_docs).enumerate() {
        batch.iter().for_each(|doc| hash.document(doc));
        hash.word(victim(i).map_or(u64::MAX, |d| u64::from(d.0)));
    }
    report.note(format!("operation stream hash {:016x}", hash.finish()));
    report.note(flush_policy_note());
    report.note(format!(
        "{bulk_docs} docs bulk-loaded on {PEERS} peers; closed loop, 1 client; \
         {stream_docs} docs streamed in {batches} batches of {batch_docs}"
    ));

    // ── Measured phase ─────────────────────────────────────────────
    report.mark("measured phase starts");
    let owner = NodeId::Owner(0);
    let owner_bytes = || search.traffic().sent_by(owner) + search.traffic().received_by(owner);
    let bytes_before = owner_bytes();
    let mut batch_ms = Vec::with_capacity(batches);
    let mut acked_docs = 0usize;
    let mut live: HashMap<DocId, &Document> = prepared.bulk.iter().map(|d| (d.id, d)).collect();
    let phase_started = Instant::now();
    for (i, batch) in prepared.stream.chunks(batch_docs).enumerate() {
        let started = Instant::now();
        let acked = search.insert_documents(0, batch);
        let ended = Instant::now();
        if report.op("measure", acked).is_some() {
            batch_ms.push(ended.duration_since(started).as_secs_f64() * 1e3);
            acked_docs += batch.len();
            live.extend(batch.iter().map(|d| (d.id, d)));
        }
        if let Some(tracer) = tracer {
            tracer.span("insert_documents", i as u64, started, ended);
        }
        if let Some(victim) = victim(i) {
            if report.op("measure", search.delete_document(0, victim)) == Some(true) {
                live.remove(&victim);
            }
        }
    }
    let wall = phase_started.elapsed().as_secs_f64();
    let wire_bytes = owner_bytes() - bytes_before;
    let rss = peak_rss_mb();
    let written = written_bytes() - written_before;
    report.mark("measured phase ends");

    let latency = sorted(batch_ms);
    report.set("op_per_s", acked_docs as f64 / wall);
    report.set_op_latency(&latency);
    report.set("peak_rss_mb", rss);
    report.set(
        "wire_bytes_per_op",
        wire_bytes as f64 / acked_docs.max(1) as f64,
    );
    report.note(format!("streamed {acked_docs} docs in {wall:.3} s"));

    // Deployment-side instruments must be read before the stores close.
    let registry = search.obs().registry().snapshot();

    // ── Recovery and gate (untimed but for the reopen itself) ──────
    let shard_dirs = prepared.deployment.shard_dirs();
    prepared.deployment.shut_down();
    let Some(reopened) = report
        .op("recover", shard_dirs)
        .and_then(|dirs| report.op("recover", ReopenedShards::open(&dirs)))
    else {
        return;
    };
    report.note(format!(
        "recovery: {} shard stores reopened in {:.3} ms",
        reopened.stores.len(),
        reopened.recovery_ms
    ));
    let live_docs: Vec<&Document> = live.into_values().collect();
    let live_postings: usize = live_docs.iter().map(|d| d.distinct_terms()).sum();
    let rebuilt = InvertedIndex::from_documents(live_docs.iter().copied());
    let snapshots: Vec<_> = reopened.stores.iter().map(|s| s.snapshot()).collect();
    // The hundred most frequent terms (their lists name nearly every
    // document, deleted ones included if a delete was lost) and a
    // hundred spread over the vocabulary.
    let terms = (0..GATE_TERMS / 2).chain(
        (0..GATE_TERMS / 2).map(|i| GATE_TERMS / 2 + i * (VOCABULARY / (GATE_TERMS / 2) - 1)),
    );
    let mut mismatched = 0;
    for term in terms.map(TermId) {
        let mut recovered: Vec<Posting> = snapshots.iter().flat_map(|s| s.postings(term)).collect();
        recovered.sort_unstable_by_key(|p| p.doc);
        if recovered != rebuilt.posting_list(term) {
            mismatched += 1;
            if mismatched == 1 {
                report.note(format!(
                    "gate: recovered postings of {term:?} differ from the rebuild"
                ));
            }
        }
    }
    report.note(format!(
        "gate: {GATE_TERMS} recovered posting lists compared with a rebuild over {} live docs, {mismatched} mismatched",
        live_docs.len()
    ));
    report.gate_passed = mismatched == 0;
    report.mark("gate ends");

    let Some(tracer) = tracer else {
        return;
    };

    // ── Per-layer rows (traced run only) ───────────────────────────
    report.set(
        "obs.tracing_overhead_pct",
        100.0 * tracer.overhead().as_secs_f64() / wall,
    );
    report.set("e2e.write_p50_ms", percentile(&latency, 0.5));
    report.set(
        "e2e.write_p95_ms",
        percentile(&latency, supported_tail(latency.len(), 0.95)),
    );
    let count = |name: &str| registry.counter(name).unwrap_or(0) as f64;
    report.set("segment.bulk_runs", count("zerber_segment_bulk_runs_total"));
    report.set(
        "segment.bulk_merge_bytes",
        count("zerber_segment_bulk_merge_bytes_total"),
    );
    report.set(
        "segment.compactions",
        count("zerber_segment_compactions_total"),
    );
    report.set(
        "segment.compaction_ms_total",
        registry
            .histogram("zerber_segment_compaction_ns")
            .map_or(0.0, |h| h.sum as f64 / 1e6),
    );
    let flushes = registry.histogram("zerber_segment_flush_ns");
    report.set(
        "segment.flush_ms_p50",
        flushes.map_or(0.0, |h| h.p50() as f64 / 1e6),
    );
    report.note(format!(
        "flushes during the run: {}",
        flushes.map_or(0, |h| h.count)
    ));
    report.set(
        "segment.wal_append_us_p50",
        registry
            .histogram("zerber_segment_wal_append_ns")
            .map_or(0.0, |h| h.p50() as f64 / 1e3),
    );
    let ingested_postings: usize = prepared
        .bulk
        .iter()
        .chain(&prepared.stream[..acked_docs])
        .map(Document::distinct_terms)
        .sum();
    report.set(
        "segment.write_amp",
        written as f64 / (ingested_postings as f64 * LOGICAL_POSTING_BYTES),
    );
    reopened.report_space(report, live_postings);
    drop(snapshots);
    drop(reopened);

    layers::net_index_docs(
        report,
        &prepared.stream[..batch_docs.min(prepared.stream.len())],
    );
    let sample = &prepared.bulk[..prepared.bulk.len().min(8_000)];
    layers::postings_codec(report, sample);
    layers::segment_store(report, sample);
}
