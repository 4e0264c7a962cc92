//! The serving benchmark: shaped Zipf query-log replay through the
//! sharded query engine — evaluator head-to-heads, result-cache
//! economics, and the epoch-invalidation stale-hit proof.
//!
//! Three sections, one deployment story:
//!
//! * **evaluators** — each planned evaluator (block-max TA, MaxScore,
//!   conjunctive leapfrog, phrase) timed on the same block-compressed
//!   store over the same shaped workload, every result asserted
//!   bit-identical to the exhaustive oracle. This is TA vs MaxScore
//!   per shape, with decode-work accounting.
//! * **cache** — the full shaped log replayed through
//!   [`ShardedSearch::query_shaped`]: Zipf popularity means repeats,
//!   repeats mean hits, and the hit/miss split yields cached vs
//!   uncached p50/p95 per shape plus the overall hit rate.
//! * **interleaved writes** — a smaller deployment replayed with
//!   inserts/deletes mixed in; *every* answer (hit or miss) is checked
//!   bit-identically against a from-scratch single-node evaluation of
//!   the live document set. `stale_hits` counts cache hits that
//!   disagreed with the oracle — the epoch key makes it structurally
//!   zero.
//!
//! [`ShardedSearch::query_shaped`]: zerber::runtime::ShardedSearch::query_shaped

use std::time::Instant;

use zerber::runtime::{local_planned, ShardedSearch};
use zerber::ZerberConfig;
use zerber_corpus::querylog::{QueryShape, ShapedLogConfig, ShapedQuery, ShapedQueryLog};
use zerber_corpus::QueryLogConfig;
use zerber_index::cursor::{QueryCost, TopKScratch};
use zerber_index::{idf, DocId, Document, GroupId, InvertedIndex, PostingStore, TermId};
use zerber_postings::CompressedPostingStore;
use zerber_query::{execute, oracle, Forced, Query};

use crate::report::{percentile, Table};
use crate::scenario::Scale;

const K: usize = 10;

/// One evaluator's measurements over one shape's query sample.
#[derive(Debug)]
pub struct EvaluatorPoint {
    /// Planner label (`block_max_ta`, `maxscore`, `conjunctive`,
    /// `phrase`).
    pub plan: &'static str,
    /// The workload shape the sample came from.
    pub shape: &'static str,
    /// Queries measured.
    pub queries: usize,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// Mean blocks decoded per query.
    pub blocks_decoded_per_query: f64,
    /// Mean blocks present across the query's lists.
    pub blocks_total_per_query: f64,
    /// Wall time per candidate the evaluator fully scored
    /// (`QueryCost::postings_scored`), nanoseconds — cursor open,
    /// decode, selection, scoring and collection all included.
    pub ns_per_scored_posting: f64,
    /// Whether every ranking was bit-identical to the exhaustive
    /// oracle.
    pub identical: bool,
}

/// Cache economics of one shape during the replay.
#[derive(Debug)]
pub struct CachePoint {
    /// The workload shape.
    pub shape: &'static str,
    /// Asks of this shape.
    pub asks: usize,
    /// Asks answered from the cache.
    pub hits: usize,
    /// Median/95th latency of cache-served asks, milliseconds (0 when
    /// no hits).
    pub cached_p50_ms: f64,
    pub cached_p95_ms: f64,
    /// Median/95th latency of fan-out asks, milliseconds.
    pub uncached_p50_ms: f64,
    pub uncached_p95_ms: f64,
}

/// The full serving result.
#[derive(Debug)]
pub struct ServingPerf {
    /// Documents in the replay deployment.
    pub docs: usize,
    /// Shard peers.
    pub peers: usize,
    /// Evaluator head-to-heads (TA vs MaxScore on Terms, plus the
    /// conjunctive and phrase evaluators).
    pub evaluators: Vec<EvaluatorPoint>,
    /// Per-shape cache economics.
    pub cache: Vec<CachePoint>,
    /// Hit fraction across all shapes.
    pub overall_hit_rate: f64,
    /// Entries the LRU byte budget evicted during the replay.
    pub evictions: u64,
    /// Asks in the interleaved-writes phase.
    pub interleaved_asks: usize,
    /// Mutations interleaved into that phase.
    pub interleaved_writes: usize,
    /// Hits there during that phase.
    pub interleaved_hits: usize,
    /// Cache hits that disagreed with the from-scratch oracle — the
    /// stale-hit count the epoch key drives to zero.
    pub stale_hits: usize,
}

/// A corpus whose documents carry consecutive term-id runs (so phrase
/// queries genuinely match under the canonical position convention)
/// plus scattered extra terms for disjunctive variety.
fn run_corpus(docs: usize, vocabulary: u32) -> Vec<Document> {
    (0..docs as u32)
        .map(|d| {
            let start = d % vocabulary.saturating_sub(3).max(1);
            let mut terms: Vec<(TermId, u32)> = (start..(start + 3).min(vocabulary))
                .map(|t| (TermId(t), 1 + (d + t) % 3))
                .collect();
            for offset in [7u32, 31] {
                let extra = (d.wrapping_mul(offset + 13) + offset) % vocabulary;
                if !terms.iter().any(|&(t, _)| t.0 == extra) {
                    terms.push((TermId(extra), 1 + d % 2));
                }
            }
            Document::from_term_counts(DocId(d), GroupId(0), terms)
        })
        .collect()
}

fn shaped_log(docs: &[Document], num_queries: usize, exponent: f64, seed: u64) -> ShapedQueryLog {
    let index = InvertedIndex::from_documents(docs);
    let stats = index.statistics();
    ShapedQueryLog::generate(
        &ShapedLogConfig {
            base: QueryLogConfig {
                num_queries,
                // A small head keeps the Zipf repeats frequent — the
                // cache economics the replay is about.
                distinct_terms: (index.term_count() / 2).max(16),
                zipf_exponent: exponent,
                seed,
                ..QueryLogConfig::default()
            },
            ..ShapedLogConfig::default()
        },
        &stats,
    )
}

fn shape_label(shape: QueryShape) -> &'static str {
    match shape {
        QueryShape::Terms => "terms",
        QueryShape::And => "and",
        QueryShape::Phrase => "phrase",
    }
}

fn to_query(q: &ShapedQuery) -> Query {
    let terms = q.terms.clone();
    match q.shape {
        QueryShape::Terms => Query::Terms { terms, k: K },
        QueryShape::And => Query::And { terms, k: K },
        QueryShape::Phrase => Query::Phrase { terms, k: K },
    }
}

/// Times `forced`-planned execution of `queries` on `store`, checking
/// every ranking bit-identically against the matching oracle.
fn measure_evaluator(
    plan: &'static str,
    shape: &'static str,
    store: &CompressedPostingStore,
    index: &InvertedIndex,
    queries: &[&ShapedQuery],
    forced: Forced,
) -> EvaluatorPoint {
    let doc_count = index.document_count();
    let mut latencies = Vec::with_capacity(queries.len());
    let mut scratch = TopKScratch::new();
    let mut identical = true;
    let mut cost = QueryCost::default();
    for query in queries {
        let slots: Vec<(TermId, f64)> = query
            .terms
            .iter()
            .map(|&t| (t, idf(doc_count, store.document_frequency(t))))
            .collect();
        let shape_enum = match query.shape {
            QueryShape::Terms => zerber_query::QueryShape::Terms,
            QueryShape::And => zerber_query::QueryShape::And,
            QueryShape::Phrase => zerber_query::QueryShape::Phrase,
        };
        let begun = Instant::now();
        let outcome = execute(store, shape_enum, &slots, K, forced, &mut scratch);
        latencies.push(begun.elapsed().as_secs_f64() * 1e3);
        cost.absorb(outcome.cost);
        let want = match query.shape {
            QueryShape::Terms => oracle::oracle_terms(index, &slots, K),
            QueryShape::And => oracle::oracle_and(index, &slots, K),
            QueryShape::Phrase => oracle::oracle_phrase(index, &slots, K),
        };
        identical &= outcome.ranked.len() == want.len()
            && outcome
                .ranked
                .iter()
                .zip(&want)
                .all(|(g, w)| g.doc == w.doc && g.score.to_bits() == w.score.to_bits());
    }
    let ns_per_scored_posting =
        latencies.iter().sum::<f64>() * 1e6 / cost.postings_scored.max(1) as f64;
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let executed = queries.len().max(1) as f64;
    EvaluatorPoint {
        plan,
        shape,
        queries: queries.len(),
        p50_ms: percentile(&latencies, 0.50),
        p95_ms: percentile(&latencies, 0.95),
        blocks_decoded_per_query: cost.blocks_decoded as f64 / executed,
        blocks_total_per_query: cost.blocks_total as f64 / executed,
        ns_per_scored_posting,
        identical,
    }
}

/// Runs the serving benchmark.
pub fn run(scale: Scale) -> ServingPerf {
    let (docs, vocabulary, peers, replay_asks, eval_sample, small_docs, small_asks) = match scale {
        Scale::Default => (
            20_000usize,
            400u32,
            4usize,
            1_500usize,
            120usize,
            1_500usize,
            240usize,
        ),
        Scale::Smoke => (2_000, 120, 3, 300, 30, 400, 80),
    };

    // ── Evaluator head-to-heads on one block-compressed store ──────
    let documents = run_corpus(docs, vocabulary);
    let index = InvertedIndex::from_documents(&documents);
    let store = CompressedPostingStore::from_index(&index);
    let log = shaped_log(&documents, replay_asks, 1.1, 1997);
    let sample_of = |shape: QueryShape| -> Vec<&ShapedQuery> {
        log.queries
            .iter()
            .filter(|q| q.shape == shape && !q.terms.is_empty())
            .take(eval_sample)
            .collect()
    };
    let terms_sample = sample_of(QueryShape::Terms);
    let and_sample = sample_of(QueryShape::And);
    let phrase_sample = sample_of(QueryShape::Phrase);
    let evaluators = vec![
        measure_evaluator(
            "block_max_ta",
            "terms",
            &store,
            &index,
            &terms_sample,
            Forced::BlockMaxTa,
        ),
        measure_evaluator(
            "maxscore",
            "terms",
            &store,
            &index,
            &terms_sample,
            Forced::MaxScore,
        ),
        measure_evaluator(
            "conjunctive",
            "and",
            &store,
            &index,
            &and_sample,
            Forced::Auto,
        ),
        measure_evaluator(
            "phrase",
            "phrase",
            &store,
            &index,
            &phrase_sample,
            Forced::Auto,
        ),
    ];

    // ── Cache economics: the full log through the sharded engine ───
    let config = ZerberConfig::default().with_peers(peers);
    let search = ShardedSearch::launch(&config, &documents).expect("valid config");
    // (shape, hit) → sorted latencies.
    let mut latencies: [[Vec<f64>; 2]; 3] = Default::default();
    for shaped in log.queries.iter().filter(|q| !q.terms.is_empty()) {
        let begun = Instant::now();
        let outcome = search
            .query_shaped(0, to_query(shaped), Forced::Auto)
            .expect("healthy deployment");
        let elapsed = begun.elapsed().as_secs_f64() * 1e3;
        let hit = usize::from(outcome.peers_contacted == 0);
        latencies[shaped.shape.as_u8() as usize][hit].push(elapsed);
    }
    let cache: Vec<CachePoint> = [QueryShape::Terms, QueryShape::And, QueryShape::Phrase]
        .into_iter()
        .map(|shape| {
            let [misses, hits] = &mut latencies[shape.as_u8() as usize];
            misses.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            hits.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            CachePoint {
                shape: shape_label(shape),
                asks: misses.len() + hits.len(),
                hits: hits.len(),
                cached_p50_ms: percentile(hits, 0.50),
                cached_p95_ms: percentile(hits, 0.95),
                uncached_p50_ms: percentile(misses, 0.50),
                uncached_p95_ms: percentile(misses, 0.95),
            }
        })
        .collect();
    let total_asks: usize = cache.iter().map(|p| p.asks).sum();
    let total_hits: usize = cache.iter().map(|p| p.hits).sum();
    let snapshot = search.obs().registry().snapshot();
    let evictions = snapshot
        .counter("zerber_cache_evictions_total")
        .unwrap_or(0);

    // ── Interleaved writes: the zero-stale-hit proof ───────────────
    let mut live = run_corpus(small_docs, vocabulary);
    let small_config = ZerberConfig::default().with_peers(peers);
    let small = ShardedSearch::launch(&small_config, &live).expect("valid config");
    // A sharper Zipf head here: hits must recur *between* writes for
    // the stale audit to have anything to audit.
    let small_log = shaped_log(&live, small_asks, 1.8, 7_331);
    let mut stale_hits = 0usize;
    let mut interleaved_hits = 0usize;
    let mut interleaved_writes = 0usize;
    let mut next_doc = live.len() as u32 + 10_000;
    for (i, shaped) in small_log
        .queries
        .iter()
        .filter(|q| !q.terms.is_empty())
        .enumerate()
    {
        if i > 0 && i % 10 == 0 {
            // Alternate inserts and deletes so both invalidation paths
            // run; every mutation bumps the serving epoch.
            if i % 20 == 0 {
                let doc = Document::from_term_counts(
                    DocId(next_doc),
                    GroupId(0),
                    vec![(TermId(next_doc % vocabulary), 2)],
                );
                next_doc += 1;
                small
                    .insert_documents(0, std::slice::from_ref(&doc))
                    .expect("insert");
                live.push(doc);
            } else if let Some(victim) = live.first().map(|d| d.id) {
                small.delete_document(0, victim).expect("delete");
                live.retain(|d| d.id != victim);
            }
            interleaved_writes += 1;
        }
        let query = to_query(shaped);
        let outcome = small
            .query_shaped(0, query.clone(), Forced::Auto)
            .expect("healthy deployment");
        let hit = outcome.peers_contacted == 0;
        interleaved_hits += usize::from(hit);
        if hit {
            // The stale-hit audit: a cache-served answer must equal a
            // from-scratch evaluation of the *current* document set.
            let want = local_planned(&small_config, &live, &query, Forced::Auto);
            let fresh = outcome.ranked.len() == want.len()
                && outcome
                    .ranked
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.doc == w.doc && g.score.to_bits() == w.score.to_bits());
            stale_hits += usize::from(!fresh);
        }
    }

    ServingPerf {
        docs,
        peers,
        evaluators,
        cache,
        overall_hit_rate: total_hits as f64 / total_asks.max(1) as f64,
        evictions,
        interleaved_asks: small_log
            .queries
            .iter()
            .filter(|q| !q.terms.is_empty())
            .count(),
        interleaved_writes,
        interleaved_hits,
        stale_hits,
    }
}

/// Formats the serving result.
pub fn render(result: &ServingPerf) -> String {
    let mut evaluators = Table::new(
        "Serving: planned evaluators on the block-compressed store (oracle-checked)",
        &[
            "plan",
            "shape",
            "queries",
            "p50 ms",
            "p95 ms",
            "dec blk/q",
            "tot blk/q",
            "ns/scored",
            "= oracle",
        ],
    );
    for p in &result.evaluators {
        evaluators.row(&[
            p.plan.to_string(),
            p.shape.to_string(),
            p.queries.to_string(),
            format!("{:.3}", p.p50_ms),
            format!("{:.3}", p.p95_ms),
            format!("{:.1}", p.blocks_decoded_per_query),
            format!("{:.1}", p.blocks_total_per_query),
            format!("{:.0}", p.ns_per_scored_posting),
            if p.identical { "yes" } else { "NO" }.into(),
        ]);
    }
    let mut cache = Table::new(
        "Serving: epoch-keyed result cache over the shaped Zipf replay",
        &[
            "shape",
            "asks",
            "hits",
            "hit rate",
            "cached p50",
            "cached p95",
            "uncached p50",
            "uncached p95",
        ],
    );
    for p in &result.cache {
        cache.row(&[
            p.shape.to_string(),
            p.asks.to_string(),
            p.hits.to_string(),
            format!("{:.1}%", 100.0 * p.hits as f64 / p.asks.max(1) as f64),
            format!("{:.4}", p.cached_p50_ms),
            format!("{:.4}", p.cached_p95_ms),
            format!("{:.4}", p.uncached_p50_ms),
            format!("{:.4}", p.uncached_p95_ms),
        ]);
    }
    format!(
        "{}ns/scored: evaluator wall time per fully scored posting\n\n{}\noverall hit rate {:.1}% over {} docs on {} peers ({} evictions); \
         interleaved phase: {} asks, {} writes, {} hits, {} stale hits (must be 0 — \
         writes bump the epoch, epochs key the cache)\n",
        evaluators.render(),
        cache.render(),
        100.0 * result.overall_hit_rate,
        result.docs,
        result.peers,
        result.evictions,
        result.interleaved_asks,
        result.interleaved_writes,
        result.interleaved_hits,
        result.stale_hits,
    )
}

/// Machine-readable form for `repro --json` (`BENCH_serving.json`).
pub fn to_json(result: &ServingPerf) -> String {
    use crate::json::{array, number, object, string};
    let evaluators: Vec<String> = result
        .evaluators
        .iter()
        .map(|p| {
            object(&[
                ("plan", string(p.plan)),
                ("shape", string(p.shape)),
                ("queries", number(p.queries as f64)),
                ("p50_ms", number(p.p50_ms)),
                ("p95_ms", number(p.p95_ms)),
                (
                    "blocks_decoded_per_query",
                    number(p.blocks_decoded_per_query),
                ),
                ("blocks_total_per_query", number(p.blocks_total_per_query)),
                ("ns_per_scored_posting", number(p.ns_per_scored_posting)),
                (
                    "identical",
                    if p.identical { "true" } else { "false" }.to_owned(),
                ),
            ])
        })
        .collect();
    let cache: Vec<String> = result
        .cache
        .iter()
        .map(|p| {
            object(&[
                ("shape", string(p.shape)),
                ("asks", number(p.asks as f64)),
                ("hits", number(p.hits as f64)),
                ("cached_p50_ms", number(p.cached_p50_ms)),
                ("cached_p95_ms", number(p.cached_p95_ms)),
                ("uncached_p50_ms", number(p.uncached_p50_ms)),
                ("uncached_p95_ms", number(p.uncached_p95_ms)),
            ])
        })
        .collect();
    object(&[
        ("docs", number(result.docs as f64)),
        ("peers", number(result.peers as f64)),
        ("evaluators", array(&evaluators)),
        ("cache", array(&cache)),
        ("overall_hit_rate", number(result.overall_hit_rate)),
        ("evictions", number(result.evictions as f64)),
        ("interleaved_asks", number(result.interleaved_asks as f64)),
        (
            "interleaved_writes",
            number(result.interleaved_writes as f64),
        ),
        ("interleaved_hits", number(result.interleaved_hits as f64)),
        ("stale_hits", number(result.stale_hits as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_replay_hits_the_cache_and_never_serves_stale() {
        let result = run(Scale::Smoke);
        assert_eq!(result.evaluators.len(), 4);
        for p in &result.evaluators {
            assert!(p.queries > 0, "{}: empty sample", p.plan);
            assert!(p.identical, "{} diverged from the oracle", p.plan);
            assert!(
                p.blocks_decoded_per_query <= p.blocks_total_per_query + 1e-9,
                "decode accounting out of range: {p:?}"
            );
        }
        assert!(
            result.overall_hit_rate > 0.0,
            "Zipf replay produced no cache hits"
        );
        assert!(result.interleaved_writes > 0);
        assert!(
            result.interleaved_hits > 0,
            "interleaved phase never hit the cache"
        );
        assert_eq!(result.stale_hits, 0, "stale cache hit after a write");
    }

    #[test]
    fn json_form_carries_all_sections() {
        let result = run(Scale::Smoke);
        let json = to_json(&result);
        for field in [
            "\"evaluators\":[{",
            "\"cache\":[{",
            "\"overall_hit_rate\"",
            "\"stale_hits\"",
            "\"identical\":true",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }
}
