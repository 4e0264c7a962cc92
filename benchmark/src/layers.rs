//! Per-layer measurements of a traced run: benchmark code timing its
//! own calls into each crate's public functions, on inputs taken from
//! the run's workload. Nothing here runs untraced.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use zerber_index::{
    DocId, Document, InvertedIndex, PostingStore, RankedDoc, SegmentPolicy, TermId,
};
use zerber_net::{AuthToken, Message, NodeId, WireDocument};
use zerber_obs::MetricsRegistry;
use zerber_postings::CompressedPostingStore;
use zerber_query::{execute, plan, CacheConfig, Forced, Query, QueryShape, ResultCache};
use zerber_segment::{BulkConfig, SegmentError, SegmentStore};

use crate::harness::{flush_policy, ScratchDir};
use crate::metrics::{mean, percentile, sorted, Report};

/// Bytes of one posting before any encoding: the paper's "encoded
/// using 64 bits" element. The base of the amplification ratios.
pub const LOGICAL_POSTING_BYTES: f64 = 8.0;

/// Mean nanoseconds of `call` over `iterations` calls.
pub fn mean_ns<T>(iterations: usize, mut call: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    for _ in 0..iterations {
        black_box(call());
    }
    started.elapsed().as_nanos() as f64 / iterations.max(1) as f64
}

/// Mean nanoseconds of `call` per item of `items`.
fn mean_ns_each<I, T>(items: &[I], mut call: impl FnMut(&I) -> T) -> f64 {
    let started = Instant::now();
    for item in items {
        black_box(call(item));
    }
    started.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

fn encode_decode_ns(message: &Message) -> (f64, f64) {
    let bytes = message.encode();
    (
        mean_ns(2_000, || message.encode()),
        mean_ns(2_000, || Message::decode(&bytes)),
    )
}

/// `net`: the query frames. The request is built from a measured
/// query's slots; the response is a real one, fetched from shard 0's
/// peer over the deployment's own transport.
pub fn net_query_frames(
    report: &mut Report,
    search: &zerber::ShardedSearch,
    shape: QueryShape,
    slots: &[(TermId, f64)],
) {
    let request = Message::PlanQuery {
        shard: 0,
        shape: shape.as_u8(),
        forced: Forced::Auto.as_u8(),
        terms: slots.to_vec(),
        k: crate::workload::K as u32,
    };
    let (encode, decode) = encode_decode_ns(&request);
    report.set("net.planquery_encode_ns", encode);
    report.set("net.planquery_decode_ns", decode);
    let response = search.transport().request(
        NodeId::User(0),
        NodeId::IndexServer(0),
        AuthToken(0),
        &request,
    );
    if let Some(response) = report.op("layers", response) {
        let (encode, decode) = encode_decode_ns(&response);
        report.set("net.topk_response_encode_ns", encode);
        report.set("net.topk_response_decode_ns", decode);
    }
}

/// `net`: one write batch as it crosses the wire.
pub fn net_index_docs(report: &mut Report, batch: &[Document]) {
    let message = Message::IndexDocs {
        shard: 0,
        docs: batch
            .iter()
            .map(|doc| WireDocument {
                doc: doc.id,
                group: doc.group,
                length: doc.length,
                terms: doc.terms.clone(),
            })
            .collect(),
    };
    let bytes = message.encode();
    report.set(
        "net.indexdocs_encode_us",
        mean_ns(200, || message.encode()) / 1e3,
    );
    report.set(
        "net.indexdocs_decode_us",
        mean_ns(200, || Message::decode(&bytes)) / 1e3,
    );
}

/// `postings`: the block codec through `CompressedPostingStore` over a
/// sample of the corpus — encode (build), sequential decode of the
/// longest lists, `advance_past` seeks, and stored bytes per posting.
pub fn postings_codec(report: &mut Report, sample: &[Document]) {
    let index = InvertedIndex::from_documents(sample);
    let postings = index.total_postings() as f64;
    let started = Instant::now();
    let store = CompressedPostingStore::from_index(&index);
    report.set(
        "postings.encode_mpostings_per_s",
        postings / started.elapsed().as_secs_f64() / 1e6,
    );
    report.set(
        "postings.bytes_per_posting",
        store.posting_bytes() as f64 / postings,
    );

    let mut by_length: Vec<u32> = (0..index.term_count() as u32).collect();
    by_length.sort_by_key(|&t| std::cmp::Reverse(index.document_frequency(TermId(t))));
    let longest = &by_length[..by_length.len().min(64)];
    let started = Instant::now();
    let mut decoded = 0usize;
    for _ in 0..4 {
        for &term in longest {
            decoded += store.postings(TermId(term)).map(black_box).count();
        }
    }
    report.set(
        "postings.decode_mpostings_per_s",
        decoded as f64 / started.elapsed().as_secs_f64() / 1e6,
    );

    // Seek through each long list in strides of ~4 blocks, pinning the
    // posting after every seek.
    let last_doc = sample.iter().map(|d| d.id.0).max().unwrap_or(0);
    let stride = (last_doc / 64).max(1);
    let started = Instant::now();
    let mut seeks = 0usize;
    for &term in longest {
        let mut cursors = store.query_cursors(&[(TermId(term), 1.0)]);
        let cursor = &mut cursors[0];
        let mut bound = 0u32;
        while !cursor.at_end() && bound < last_doc {
            cursor.advance_past(DocId(bound));
            black_box(cursor.materialize());
            bound += stride;
            seeks += 1;
        }
    }
    report.set(
        "postings.advance_ns",
        started.elapsed().as_nanos() as f64 / seeks.max(1) as f64,
    );
}

/// `segment` (and the merge path of `postings`): stores the benchmark
/// owns, driven directly — WAL-journaled batches with and without
/// fsync, the SPIMI bulk path, and inline compaction for the merge
/// rate. Returns early, with the failure counted, if a store refuses.
pub fn segment_store(report: &mut Report, sample: &[Document]) {
    if let Err(error) = segment_store_inner(report, sample) {
        report.op::<(), _>("layers", Err(error));
    }
}

fn segment_store_inner(report: &mut Report, sample: &[Document]) -> Result<(), SegmentError> {
    let registry = MetricsRegistry::new();
    let batches: Vec<&[Document]> = sample.chunks(64).take(64).collect();

    let dir = ScratchDir::new("layer-insert");
    let store = SegmentStore::open_observed(dir.path(), flush_policy(), &registry)?;
    let mut insert_ms = Vec::with_capacity(batches.len());
    for batch in &batches {
        let started = Instant::now();
        store.insert(batch)?;
        insert_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    report.set(
        "segment.insert_batch_ms_p50",
        percentile(&sorted(insert_ms), 0.5),
    );
    let started = Instant::now();
    for _ in 0..1_000 {
        black_box(store.snapshot());
    }
    report.set(
        "segment.snapshot_ns",
        started.elapsed().as_nanos() as f64 / 1e3,
    );
    drop(store);

    let dir = ScratchDir::new("layer-fsync");
    let synced = SegmentPolicy {
        sync_wal: true,
        ..flush_policy()
    };
    let store = SegmentStore::open_observed(dir.path(), synced, &registry)?;
    for batch in batches.iter().take(16) {
        store.insert(batch)?;
    }
    drop(store);
    let snapshot = registry.snapshot();
    let p50_us = |name: &str| {
        snapshot
            .histogram(name)
            .map_or(0.0, |h| h.p50() as f64 / 1e3)
    };
    report.set(
        "segment.wal_fsync_us_p50",
        p50_us("zerber_segment_wal_fsync_ns"),
    );

    let dir = ScratchDir::new("layer-bulk");
    let store = SegmentStore::open_observed(dir.path(), flush_policy(), &registry)?;
    let started = Instant::now();
    store.bulk_load(sample, BulkConfig::default())?;
    report.set(
        "segment.bulk_docs_per_s",
        sample.len() as f64 / started.elapsed().as_secs_f64(),
    );
    drop(store);

    // Compaction down to one segment after every flush: the second,
    // third and fourth each merge everything flushed so far with the
    // new quarter, 2 + 3 + 4 = 9 quarters of postings in all.
    let dir = ScratchDir::new("layer-merge");
    let merging = SegmentPolicy {
        flush_postings: usize::MAX,
        max_segments: 1,
        background: false,
        sync_wal: false,
    };
    let merge_registry = MetricsRegistry::new();
    let store = SegmentStore::open_observed(dir.path(), merging, &merge_registry)?;
    let quarter = sample.len() / 4;
    let mut merged_postings = 0usize;
    let mut flushed_postings = 0usize;
    for (i, chunk) in sample.chunks(quarter.max(1)).take(4).enumerate() {
        store.insert(chunk)?;
        store.flush()?;
        store.compact()?;
        flushed_postings += chunk.iter().map(Document::distinct_terms).sum::<usize>();
        if i > 0 {
            merged_postings += flushed_postings;
        }
    }
    drop(store);
    let compaction_ns = merge_registry
        .snapshot()
        .histogram("zerber_segment_compaction_ns")
        .map_or(0, |h| h.sum);
    if compaction_ns > 0 {
        report.set(
            "postings.merge_mpostings_per_s",
            merged_postings as f64 / (compaction_ns as f64 / 1e9) / 1e6,
        );
    }
    Ok(())
}

/// `query`: normalize + plan + cache key per query, and the result
/// cache's own get/insert on a cache the benchmark owns, keyed by the
/// measured queries.
pub fn query_front(report: &mut Report, queries: &[Query], ranked: &[RankedDoc]) {
    let sample = &queries[..queries.len().min(2_000)];
    report.set(
        "query.plan_ns",
        mean_ns_each(sample, |query| {
            let normalized = query.clone().normalized();
            let evaluator = plan(normalized.shape(), normalized.terms().len(), Forced::Auto);
            (evaluator, normalized.cache_key(0))
        }),
    );

    let cache = ResultCache::new(CacheConfig::default());
    let keys: Vec<Vec<u8>> = sample
        .iter()
        .map(|q| q.clone().normalized().cache_key(0))
        .collect();
    let value = std::sync::Arc::new(ranked.to_vec());
    report.set(
        "query.cache_insert_ns",
        mean_ns_each(&keys, |key| {
            cache.insert(key.clone(), std::sync::Arc::clone(&value))
        }),
    );
    report.set(
        "query.cache_get_ns",
        mean_ns_each(&keys, |key| cache.get(key)),
    );
}

/// The shard stores of a shut-down deployment, reopened from disk.
pub struct ReopenedShards {
    pub stores: Vec<SegmentStore>,
    /// Wall time of all the opens: manifest load, segment CRC checks,
    /// WAL replay.
    pub recovery_ms: f64,
}

impl ReopenedShards {
    pub fn open(dirs: &[PathBuf]) -> Result<Self, SegmentError> {
        let registry = MetricsRegistry::new();
        let started = Instant::now();
        let stores = dirs
            .iter()
            .map(|dir| SegmentStore::open_observed(dir, flush_policy(), &registry))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            stores,
            recovery_ms: started.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// `segment`: what the stores hold on disk, per live posting.
    pub fn report_space(&self, report: &mut Report, live_postings: usize) {
        let disk: u64 = self.stores.iter().map(SegmentStore::disk_bytes).sum();
        let live = live_postings.max(1) as f64;
        report.set("segment.recovery_ms", self.recovery_ms);
        report.set("segment.disk_bytes_per_posting", disk as f64 / live);
        report.set(
            "segment.space_amp",
            disk as f64 / (live * LOGICAL_POSTING_BYTES),
        );
        let snapshots: Vec<_> = self.stores.iter().map(SegmentStore::snapshot).collect();
        let per_shard = snapshots.len().max(1) as f64;
        report.set(
            "segment.delta_len_mean",
            snapshots.iter().map(|s| s.delta_len()).sum::<usize>() as f64 / per_shard,
        );
        report.set(
            "segment.segments_final",
            snapshots.iter().map(|s| s.segment_len()).sum::<usize>() as f64 / per_shard,
        );
    }

    /// `query` and `index`: the measured queries evaluated on shard
    /// 0's snapshot alone — no cache, no wire, no gather — and their
    /// cursors opened without evaluation.
    pub fn report_reads(
        &self,
        report: &mut Report,
        queries: &[Query],
        slots_of: impl Fn(&Query) -> Vec<(TermId, f64)>,
    ) {
        let Some(store) = self.stores.first() else {
            return;
        };
        let snapshot = store.snapshot();
        let mut scratch = zerber_index::TopKScratch::new();
        for (shape, name) in [
            (QueryShape::Terms, "query.terms_execute_ms"),
            (QueryShape::And, "query.and_execute_ms"),
            (QueryShape::Phrase, "query.phrase_execute_ms"),
        ] {
            let mut millis = Vec::new();
            for query in queries.iter().filter(|q| q.shape() == shape).take(300) {
                let slots = slots_of(query);
                let started = Instant::now();
                black_box(execute(
                    &snapshot,
                    shape,
                    &slots,
                    query.k(),
                    Forced::Auto,
                    &mut scratch,
                ));
                millis.push(started.elapsed().as_secs_f64() * 1e3);
            }
            report.set(name, mean(&millis));
        }
        let mut open_us = Vec::new();
        for query in queries
            .iter()
            .filter(|q| q.shape() == QueryShape::Terms)
            .take(300)
        {
            let slots = slots_of(query);
            let started = Instant::now();
            let cursors = snapshot.query_cursors(&slots);
            open_us.push(started.elapsed().as_secs_f64() * 1e6);
            drop(cursors);
        }
        report.set("index.cursor_open_us", mean(&open_us));
    }
}
