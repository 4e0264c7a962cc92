//! `search_cold` and `search_churn`: shaped queries through
//! `ShardedSearch::query_shaped` over a bulk-loaded 2-peer segmented
//! deployment — once with no repeats and no writes, once replaying a
//! small pool with writes interleaved.

use std::collections::HashMap;
use std::time::Instant;

use zerber::ShardedSearch;
use zerber_index::{idf, DocId, Document, InvertedIndex, RankedDoc, TermId};
use zerber_net::NodeId;
use zerber_obs::SpanRecord;
use zerber_query::{oracle, Forced, Query, QueryShape};

use crate::harness::{flush_policy_note, repeated_setup, Deployment, RunConfig, SetupTiming};
use crate::layers::{self, ReopenedShards, LOGICAL_POSTING_BYTES};
use crate::metrics::{
    mean, peak_rss_mb, percentile, sorted, supported_tail, written_bytes, Report,
};
use crate::trace::Tracer;
use crate::workload::{replay_indices, shaped_queries, Corpus, StreamHash, K};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cold,
    Churn,
}

/// Queries checked against the oracle per shape.
const GATE_SAMPLE: usize = 50;
/// A phrase query is gated only if it has at most this many
/// conjunctive matches: the phrase oracle re-derives every match's
/// token positions by scanning every term slot.
const GATE_PHRASE_MATCHES: usize = 300;

struct Sizes {
    docs: u32,
    warmup: usize,
    /// Measured reads.
    reads: usize,
    /// Distinct queries the reads draw from (`reads` when cold).
    pool: usize,
    /// Of those, the ones with a popularity rank at any one time.
    active: usize,
    /// One write after this many reads (`usize::MAX` when cold).
    write_every: usize,
    write_docs: usize,
}

impl Sizes {
    fn of(mode: Mode, config: &RunConfig) -> Self {
        match mode {
            Mode::Cold => {
                let reads = config.ops(340, 150);
                Self {
                    docs: config.pick(50_000, 1_500),
                    warmup: config.pick(200, 20),
                    reads,
                    pool: reads,
                    active: reads,
                    write_every: usize::MAX,
                    write_docs: 0,
                }
            }
            Mode::Churn => Self {
                docs: config.pick(30_000, 1_000),
                warmup: config.pick(100, 10),
                reads: config.ops(350, 300),
                pool: config.pick(2_000, 240),
                active: config.pick(500, 60),
                write_every: 50,
                write_docs: config.pick(32, 8),
            },
        }
    }

    fn writes(&self) -> usize {
        if self.write_every == usize::MAX {
            0
        } else {
            (self.reads - 1) / self.write_every
        }
    }
}

/// One write of the churn stream: a batch of held-out documents, and
/// on every fourth write the deletion of a bulk-loaded one.
struct Write {
    insert: Vec<Document>,
    delete: Option<DocId>,
}

struct Prepared {
    deployment: Deployment,
    docs: Vec<Document>,
    /// The first `warmup` are replayed untimed; the rest are the pool.
    queries: Vec<Query>,
    /// Pool indices in replay order.
    replay: Vec<usize>,
    writes: Vec<Write>,
}

fn prepare(
    mode: Mode,
    config: &RunConfig,
    sizes: &Sizes,
    report: &mut Report,
) -> Option<(Prepared, SetupTiming)> {
    let corpus = Corpus::new(config.seed);
    let docs = corpus.documents(0..sizes.docs);
    let queries = shaped_queries(corpus.pool(), config.seed, sizes.warmup + sizes.pool);
    let replay = match mode {
        Mode::Cold => (0..sizes.pool).collect(),
        Mode::Churn => replay_indices(
            config.seed,
            sizes.pool,
            sizes.active,
            sizes.reads,
            sizes.write_every,
        ),
    };
    let held_out =
        corpus.documents(sizes.docs..sizes.docs + (sizes.writes() * sizes.write_docs) as u32);
    let writes = held_out
        .chunks(sizes.write_docs.max(1))
        .enumerate()
        .map(|(i, batch)| Write {
            insert: batch.to_vec(),
            // Spread over the bulk-loaded ids; each is deleted once.
            delete: (i % 4 == 3).then(|| DocId((i as u32 / 4) * 61 % sizes.docs)),
        })
        .collect();

    let deployment = report.op("setup", Deployment::launch("search"))?;
    let started = Instant::now();
    report.op("setup", deployment.search().bulk_load(0, &docs))?;
    let load_seconds = started.elapsed().as_secs_f64();
    for query in &queries[..sizes.warmup] {
        report.op(
            "setup",
            deployment
                .search()
                .query_shaped(0, query.clone(), Forced::Auto),
        )?;
    }
    let timing = SetupTiming {
        load_docs: docs.len(),
        load_seconds,
    };
    Some((
        Prepared {
            deployment,
            docs,
            queries,
            replay,
            writes,
        },
        timing,
    ))
}

/// The per-query rows a traced run takes from the span tree
/// `query_shaped` returns.
#[derive(Default)]
struct TraceRows {
    fanout_ms: Vec<f64>,
    rpc_ms: Vec<f64>,
    peer_eval_ms: Vec<f64>,
    transport_ms: Vec<f64>,
    gather_us: Vec<f64>,
    coordinator_us: Vec<f64>,
    skew: Vec<f64>,
    blocks_decoded: u64,
    blocks_total: u64,
    /// `(queries that fanned out, blocks decoded, blocks present)` per
    /// shape, indexed by the shape's wire byte.
    blocks_by_shape: [(u64, u64, u64); 3],
    /// Per query: the slowest shard's peer-side evaluation plus the
    /// gather or cache span — the time a directly measured span covers.
    covered_ms: Vec<f64>,
}

fn counter(span: &SpanRecord, name: &str) -> u64 {
    span.counters
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .sum::<u64>()
        + span.children.iter().map(|c| counter(c, name)).sum::<u64>()
}

impl TraceRows {
    fn absorb(&mut self, shape: QueryShape, root: &SpanRecord) {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let Some(fan_out) = root.children.iter().find(|c| c.name == "fan_out") else {
            // A cache hit: the lookup is the whole query.
            self.covered_ms
                .push(root.children.iter().map(|c| ms(c.duration)).sum());
            return;
        };
        let gather = root
            .children
            .iter()
            .find(|c| c.name == "gather")
            .map_or(0.0, |g| ms(g.duration));
        self.fanout_ms.push(ms(fan_out.duration));
        self.gather_us.push(gather * 1e3);
        self.coordinator_us
            .push((ms(root.duration) - ms(fan_out.duration) - gather).max(0.0) * 1e3);
        let mut shard_rpc = Vec::new();
        let mut slowest_eval = 0.0f64;
        for shard in &fan_out.children {
            // The answering attempt is the one carrying peer-side
            // spans (today a single `decode`: the whole evaluation).
            for rpc in shard.children.iter().filter(|rpc| !rpc.children.is_empty()) {
                let eval: f64 = rpc.children.iter().map(|c| ms(c.duration)).sum();
                self.rpc_ms.push(ms(rpc.duration));
                self.peer_eval_ms.push(eval);
                self.transport_ms.push((ms(rpc.duration) - eval).max(0.0));
                shard_rpc.push(ms(rpc.duration));
                slowest_eval = slowest_eval.max(eval);
            }
        }
        if !shard_rpc.is_empty() {
            let slowest = shard_rpc.iter().cloned().fold(0.0, f64::max);
            self.skew.push(slowest / mean(&shard_rpc).max(1e-9));
        }
        let (decoded, total) = (
            counter(fan_out, "blocks_decoded"),
            counter(fan_out, "blocks_total"),
        );
        self.blocks_decoded += decoded;
        self.blocks_total += total;
        let by_shape = &mut self.blocks_by_shape[shape.as_u8() as usize];
        *by_shape = (by_shape.0 + 1, by_shape.1 + decoded, by_shape.2 + total);
        self.covered_ms.push(slowest_eval + gather);
    }
}

/// The single-node reference: one index over the live document set.
struct Oracle {
    index: InvertedIndex,
    docs: HashMap<DocId, Document>,
}

impl Oracle {
    fn new(docs: HashMap<DocId, Document>) -> Self {
        Self {
            index: InvertedIndex::from_documents(docs.values()),
            docs,
        }
    }

    /// The normalized query's slots with the global IDF weights the
    /// deployment scores with.
    fn slots(&self, query: &Query) -> Vec<(TermId, f64)> {
        let n = self.index.document_count();
        query
            .clone()
            .normalized()
            .terms()
            .iter()
            .map(|&t| (t, idf(n, self.index.document_frequency(t))))
            .collect()
    }

    /// The exhaustive top-k, or `None` for a phrase query too broad to
    /// gate (see [`GATE_PHRASE_MATCHES`]).
    fn expected(&self, query: &Query) -> Option<Vec<RankedDoc>> {
        let slots = self.slots(query);
        Some(match query.shape() {
            QueryShape::Terms => oracle::oracle_terms(&self.index, &slots, K),
            QueryShape::And => oracle::oracle_and(&self.index, &slots, K),
            QueryShape::Phrase => {
                // Every phrase match is a conjunctive match, and both
                // score and positions are document-local, so the
                // phrase oracle over just those documents returns what
                // it would over the whole index.
                let matches = oracle::oracle_and(&self.index, &slots, usize::MAX);
                if matches.len() > GATE_PHRASE_MATCHES {
                    return None;
                }
                let subset =
                    InvertedIndex::from_documents(matches.iter().map(|m| &self.docs[&m.doc]));
                oracle::oracle_phrase(&subset, &slots, K)
            }
        })
    }
}

fn bit_identical(got: &[RankedDoc], want: &[RankedDoc]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.doc == w.doc && g.score.to_bits() == w.score.to_bits())
}

/// Re-asks [`GATE_SAMPLE`] pool queries per shape, evenly spaced, and
/// compares each answer bit for bit with the oracle.
fn gate(search: &ShardedSearch, oracle: &Oracle, pool: &[Query], report: &mut Report) -> bool {
    let mut passed = true;
    for shape in [QueryShape::Terms, QueryShape::And, QueryShape::Phrase] {
        let of_shape: Vec<&Query> = pool.iter().filter(|q| q.shape() == shape).collect();
        let stride = (of_shape.len() / GATE_SAMPLE).max(1);
        let mut checked = 0;
        let mut mismatched = 0;
        for query in of_shape.iter().step_by(stride) {
            if checked == GATE_SAMPLE {
                break;
            }
            let Some(want) = oracle.expected(query) else {
                continue;
            };
            let outcome = search.query_shaped(0, (*query).clone(), Forced::Auto);
            let Some(outcome) = report.op("gate", outcome) else {
                continue;
            };
            checked += 1;
            if !bit_identical(&outcome.ranked, &want) {
                mismatched += 1;
                if mismatched == 1 {
                    report.note(format!("gate: {query:?} diverged from the oracle"));
                }
            }
        }
        report.note(format!(
            "gate {shape:?}: {checked} queries checked, {mismatched} mismatched"
        ));
        passed &= mismatched == 0 && checked > 0;
    }
    passed
}

pub fn run(mode: Mode, config: &RunConfig, report: &mut Report, tracer: &mut Option<Tracer>) {
    let sizes = Sizes::of(mode, config);
    let written_before = written_bytes();
    let Some(mut prepared) = repeated_setup(config, report, |report| {
        prepare(mode, config, &sizes, report)
    }) else {
        return;
    };
    let pool = &prepared.queries[sizes.warmup..];
    let search = prepared.deployment.search();

    let mut hash = StreamHash::default();
    for &index in &prepared.replay {
        hash.word(index as u64);
        hash.query(&pool[index]);
    }
    for write in &prepared.writes {
        write.insert.iter().for_each(|doc| hash.document(doc));
        hash.word(write.delete.map_or(u64::MAX, |d| u64::from(d.0)));
    }
    report.note(format!("operation stream hash {:016x}", hash.finish()));
    report.note(flush_policy_note());
    report.note(format!(
        "{} docs bulk-loaded on {} peers; closed loop, 1 client; {} reads over {} distinct queries \
         ({} ranked at a time), {} writes",
        sizes.docs,
        crate::harness::PEERS,
        sizes.reads,
        sizes.pool,
        sizes.active,
        prepared.writes.len()
    ));

    // ── Measured phase ─────────────────────────────────────────────
    report.mark("measured phase starts");
    let client = NodeId::User(0);
    let client_bytes = |search: &ShardedSearch| {
        let meter = search.traffic();
        (meter.sent_by(client), meter.received_by(client))
    };
    let (sent_before, received_before) = client_bytes(search);
    let epoch_before = search.serving_epoch();
    let mut latency_ms: Vec<f64> = Vec::with_capacity(sizes.reads);
    let mut by_shape: [Vec<f64>; 3] = Default::default();
    let mut write_ms: Vec<f64> = Vec::new();
    let mut rows = TraceRows::default();
    let (mut hits, mut received, mut examined) = (0usize, 0usize, 0usize);
    let mut last_ranked: Vec<RankedDoc> = Vec::new();
    let mut writes = prepared.writes.iter();
    let phase_started = Instant::now();
    for (i, &index) in prepared.replay.iter().enumerate() {
        if i > 0 && i % sizes.write_every == 0 {
            if let Some(write) = writes.next() {
                let started = Instant::now();
                let acked = search.insert_documents(0, &write.insert);
                let ended = Instant::now();
                if report.op("measure", acked).is_some() {
                    write_ms.push(ended.duration_since(started).as_secs_f64() * 1e3);
                }
                if let Some(tracer) = tracer {
                    tracer.span("insert_documents", i as u64, started, ended);
                }
                if let Some(victim) = write.delete {
                    report.op("measure", search.delete_document(0, victim));
                }
            }
        }
        let query = pool[index].clone();
        let shape = query.shape();
        let started = Instant::now();
        let outcome = search.query_shaped(0, query, Forced::Auto);
        let ended = Instant::now();
        let Some(outcome) = report.op("measure", outcome) else {
            continue;
        };
        let millis = ended.duration_since(started).as_secs_f64() * 1e3;
        latency_ms.push(millis);
        by_shape[shape.as_u8() as usize].push(millis);
        hits += usize::from(outcome.peers_contacted == 0);
        received += outcome.candidates_received;
        examined += outcome.candidates_examined;
        if let Some(tracer) = tracer {
            let call = tracer.span("query_shaped", i as u64, started, ended);
            tracer.absorb(call, i as u64, started, &outcome.trace.root);
            let walking = Instant::now();
            rows.absorb(shape, &outcome.trace.root);
            tracer.charge(walking.elapsed());
            if !outcome.ranked.is_empty() {
                last_ranked = outcome.ranked;
            }
        }
    }
    let wall = phase_started.elapsed().as_secs_f64();
    let (sent_after, received_after) = client_bytes(search);
    let epoch_bumps = search.serving_epoch() - epoch_before;
    let rss = peak_rss_mb();
    let written = written_bytes() - written_before;
    report.mark("measured phase ends");

    let reads = latency_ms.len().max(1) as f64;
    let latency = sorted(latency_ms);
    report.set("op_per_s", reads / wall);
    report.set_op_latency(&latency);
    report.set("peak_rss_mb", rss);
    let request_bytes = (sent_after - sent_before) as f64 / reads;
    let response_bytes = (received_after - received_before) as f64 / reads;
    report.set("wire_bytes_per_op", request_bytes + response_bytes);
    report.note(format!(
        "measured {} queries in {wall:.3} s; cache hits {hits}",
        latency.len()
    ));
    for (shape, samples) in ["terms", "and", "phrase"].iter().zip(&by_shape) {
        report.note(format!(
            "shape {shape}: {} queries, mean {:.4} ms",
            samples.len(),
            mean(samples)
        ));
    }

    // ── Correctness gate (untimed): the live set is the bulk load
    // minus the deletes plus the inserts that were acknowledged. ────
    let ingested_postings: usize = prepared
        .docs
        .iter()
        .chain(
            prepared
                .writes
                .iter()
                .take(write_ms.len())
                .flat_map(|w| &w.insert),
        )
        .map(Document::distinct_terms)
        .sum();
    let mut live: HashMap<DocId, Document> = std::mem::take(&mut prepared.docs)
        .into_iter()
        .map(|d| (d.id, d))
        .collect();
    for write in prepared.writes.iter().take(write_ms.len()) {
        for doc in &write.insert {
            live.insert(doc.id, doc.clone());
        }
        if let Some(victim) = write.delete {
            live.remove(&victim);
        }
    }
    let live_postings: usize = live.values().map(Document::distinct_terms).sum();
    let oracle = Oracle::new(live);
    report.gate_passed = gate(search, &oracle, pool, report);
    report.mark("gate ends");

    let Some(tracer) = tracer else {
        return;
    };

    // ── Per-layer rows (traced run only) ───────────────────────────
    report.set(
        "obs.tracing_overhead_pct",
        100.0 * tracer.overhead().as_secs_f64() / wall,
    );
    report.set("e2e.terms_mean_ms", mean(&by_shape[0]));
    report.set("e2e.and_mean_ms", mean(&by_shape[1]));
    report.set("e2e.phrase_mean_ms", mean(&by_shape[2]));
    let write_sorted = sorted(write_ms);
    if !write_sorted.is_empty() {
        report.set("e2e.write_p50_ms", percentile(&write_sorted, 0.5));
        report.set(
            "e2e.write_p95_ms",
            percentile(&write_sorted, supported_tail(write_sorted.len(), 0.95)),
        );
    }
    report.set("net.request_bytes_per_query", request_bytes);
    report.set("net.response_bytes_per_query", response_bytes);
    report.set("query.cache_hit_pct", 100.0 * hits as f64 / reads);
    report.set(
        "query.blocks_decoded_per_query",
        rows.blocks_decoded as f64 / reads,
    );
    report.set(
        "query.blocks_total_per_query",
        rows.blocks_total as f64 / reads,
    );
    report.set(
        "query.decode_ratio",
        rows.blocks_decoded as f64 / rows.blocks_total.max(1) as f64,
    );
    for (shape, &(fanned_out, decoded, total)) in
        ["terms", "and", "phrase"].iter().zip(&rows.blocks_by_shape)
    {
        let per_query = |blocks: u64| blocks as f64 / fanned_out.max(1) as f64;
        report.note(format!(
            "shape {shape}: {fanned_out} queries fanned out, {:.1} of {:.1} blocks decoded per query",
            per_query(decoded),
            per_query(total)
        ));
    }
    report.set(
        "runtime.candidates_received_per_query",
        received as f64 / reads,
    );
    report.set(
        "runtime.candidates_examined_per_query",
        examined as f64 / reads,
    );
    report.set("runtime.epoch_bumps", epoch_bumps as f64);
    let p50 = |samples: &[f64]| percentile(&sorted(samples.to_vec()), 0.5);
    report.set("runtime.fanout_ms_p50", p50(&rows.fanout_ms));
    report.set("runtime.rpc_ms_p50", p50(&rows.rpc_ms));
    report.set("runtime.peer_eval_ms_p50", p50(&rows.peer_eval_ms));
    report.set("runtime.transport_ms_p50", p50(&rows.transport_ms));
    report.set("runtime.gather_us_p50", p50(&rows.gather_us));
    report.set("runtime.coordinator_us_p50", p50(&rows.coordinator_us));
    report.set("runtime.shard_skew_ratio", mean(&rows.skew));

    let registry = search.obs().registry().snapshot();
    let count = |name: &str| registry.counter(name).unwrap_or(0) as f64;
    report.set("runtime.hedges", count("zerber_gather_hedges_total"));
    report.set(
        "query.cache_evictions",
        count("zerber_cache_evictions_total"),
    );
    report.set("segment.bulk_runs", count("zerber_segment_bulk_runs_total"));
    report.set(
        "segment.bulk_merge_bytes",
        count("zerber_segment_bulk_merge_bytes_total"),
    );
    report.set(
        "segment.compactions",
        count("zerber_segment_compactions_total"),
    );
    let histogram = |name: &str| registry.histogram(name);
    report.set(
        "segment.compaction_ms_total",
        histogram("zerber_segment_compaction_ns").map_or(0.0, |h| h.sum as f64 / 1e6),
    );
    report.set(
        "segment.flush_ms_p50",
        histogram("zerber_segment_flush_ns").map_or(0.0, |h| h.p50() as f64 / 1e6),
    );
    report.set(
        "segment.wal_append_us_p50",
        histogram("zerber_segment_wal_append_ns").map_or(0.0, |h| h.p50() as f64 / 1e3),
    );
    report.set(
        "segment.write_amp",
        written as f64 / (ingested_postings as f64 * LOGICAL_POSTING_BYTES),
    );

    let sample_query = pool
        .iter()
        .find(|q| q.shape() == QueryShape::Terms)
        .unwrap_or(&pool[0]);
    layers::net_query_frames(
        report,
        search,
        sample_query.shape(),
        &oracle.slots(sample_query),
    );
    layers::query_front(report, pool, &last_ranked);
    let sample: Vec<Document> = oracle.docs.values().take(8_000).cloned().collect();
    if let Some(write) = prepared.writes.first() {
        layers::net_index_docs(report, &write.insert);
    } else {
        layers::net_index_docs(report, &sample[..sample.len().min(32)]);
    }
    layers::postings_codec(report, &sample);
    layers::segment_store(report, &sample);

    // What no directly measured span or layer call covers: inbox
    // waits, thread wake-ups, fan-out bookkeeping, trace assembly.
    let misses = rows.fanout_ms.len() as f64;
    let value = |report: &Report, name: &str| report.values.get(name).copied().unwrap_or(0.0);
    let shards = crate::harness::PEERS as f64;
    let codec_ms_per_miss = shards
        * (value(report, "net.planquery_encode_ns")
            + value(report, "net.planquery_decode_ns")
            + value(report, "net.topk_response_encode_ns")
            + value(report, "net.topk_response_decode_ns"))
        / 1e6;
    let front_ms = (value(report, "query.plan_ns") + value(report, "query.cache_get_ns")) / 1e6;
    let covered = mean(&rows.covered_ms) + front_ms + codec_ms_per_miss * misses / reads;
    let mean_latency = mean(&latency);
    report.set(
        "runtime.unexplained_pct",
        100.0 * (mean_latency - covered).max(0.0) / mean_latency.max(1e-9),
    );

    let shard_dirs = prepared.deployment.shard_dirs();
    prepared.deployment.shut_down();
    let reopened = report
        .op("layers", shard_dirs)
        .and_then(|dirs| report.op("layers", ReopenedShards::open(&dirs)));
    if let Some(reopened) = reopened {
        reopened.report_space(report, live_postings);
        reopened.report_reads(report, pool, |query| oracle.slots(query));
    }
}
