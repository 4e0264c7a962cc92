//! Lazy decode-on-demand query pipeline versus eager materialization:
//! latency and decode-work accounting across corpus sizes and `k`.
//!
//! Both paths run the same block-max Threshold Algorithm over the same
//! block-compressed posting store and return bit-identical rankings
//! (asserted per query). They differ only in *when* postings decode:
//!
//! * **eager** — this harness's own baseline ([`eager_topk`], not a
//!   production path) decompresses every posting of every query term
//!   into scored lists before ranking starts: O(total postings) decode
//!   per query, independent of `k`;
//! * **lazy** — `PostingStore::query_cursors` +
//!   `block_max_topk_cursors` peek the stored block maxima first and
//!   decompress only blocks that survive the upper-bound test; the
//!   per-cursor counters report exactly how many blocks that was.
//!
//! A constructed *selective* scenario (one rare, dominant term plus
//! one very long common list) demonstrates the win at its sharpest:
//! once the heap holds the rare-term documents, the common tail's
//! block maxima fall below the k-th score and the lazy path skips
//! those blocks undecoded — strictly fewer blocks decoded than exist,
//! which the eager path decompresses in full every time.

use std::time::Instant;

use zerber_index::cursor::{
    block_max_topk_cursors, BlockCursor, QueryCost, ScoredListCursor, TopKScratch,
};
use zerber_index::store::SCORING_BLOCK;
use zerber_index::{
    idf, BlockScoredList, DocId, Document, GroupId, InvertedIndex, PostingStore, RankedDoc, TermId,
};
use zerber_postings::CompressedPostingStore;

use crate::report::{percentile, Table};
use crate::scenario::{OdpScenario, Scale};

/// One measured `(corpus size, k)` cell (or the selective scenario).
#[derive(Debug)]
pub struct QueryPoint {
    /// Scenario label (`odp` or `selective`).
    pub scenario: &'static str,
    /// Documents in the corpus.
    pub docs: usize,
    /// Ranked results requested.
    pub k: usize,
    /// Queries measured.
    pub queries: usize,
    /// Median lazy-path latency, milliseconds.
    pub lazy_p50_ms: f64,
    /// 95th-percentile lazy-path latency, milliseconds.
    pub lazy_p95_ms: f64,
    /// Median eager-path latency, milliseconds.
    pub eager_p50_ms: f64,
    /// 95th-percentile eager-path latency, milliseconds.
    pub eager_p95_ms: f64,
    /// Mean blocks the lazy path decompressed per query.
    pub blocks_decoded_per_query: f64,
    /// Mean blocks present across the query's posting lists — what the
    /// eager path decompresses every time.
    pub blocks_total_per_query: f64,
    /// Lazy-path wall time per candidate the evaluator fully scored
    /// (`QueryCost::postings_scored`), nanoseconds — cursor open,
    /// decode, selection, scoring and collection all included.
    pub ns_per_scored_posting: f64,
    /// Whether every query's lazy ranking was bit-identical to the
    /// eager one.
    pub identical: bool,
}

/// The full sweep plus the selective showcase.
#[derive(Debug)]
pub struct QueryPerf {
    /// One point per `(corpus size, k)` pair on the ODP workload.
    pub points: Vec<QueryPoint>,
    /// The constructed rare-plus-common scenario.
    pub selective: QueryPoint,
}

/// The eager baseline: decodes every posting of every query term into
/// a scored list up front, then ranks with the same block-max driver
/// the lazy path uses.
pub fn eager_topk(store: &dyn PostingStore, weights: &[(TermId, f64)], k: usize) -> Vec<RankedDoc> {
    let mut cursors: Vec<Box<dyn BlockCursor>> = weights
        .iter()
        .map(|&(term, weight)| {
            let list = BlockScoredList::from_doc_ordered(
                store
                    .postings(term)
                    .map(|p| (p.doc, p.term_frequency() * weight))
                    .collect(),
                SCORING_BLOCK,
            );
            Box::new(ScoredListCursor::new(list)) as Box<dyn BlockCursor>
        })
        .collect();
    let mut scratch = TopKScratch::new();
    block_max_topk_cursors(&mut cursors, k, &mut scratch);
    scratch.take_ranked()
}

/// Runs every query through both paths on one store, asserting
/// bit-identity per query, and folds the latencies and decode
/// accounting into one [`QueryPoint`].
fn measure(
    scenario: &'static str,
    store: &CompressedPostingStore,
    doc_count: usize,
    queries: &[Vec<TermId>],
    k: usize,
) -> QueryPoint {
    let mut lazy_ms = Vec::with_capacity(queries.len());
    let mut eager_ms = Vec::with_capacity(queries.len());
    let mut cost = QueryCost::default();
    let mut scratch = TopKScratch::new();
    let mut identical = true;
    for terms in queries {
        let weights: Vec<(TermId, f64)> = terms
            .iter()
            .map(|&t| (t, idf(doc_count, store.document_frequency(t))))
            .collect();

        let begun = Instant::now();
        let eager = eager_topk(store, &weights, k);
        eager_ms.push(begun.elapsed().as_secs_f64() * 1e3);

        let begun = Instant::now();
        let mut cursors = store.query_cursors(&weights);
        block_max_topk_cursors(&mut cursors, k, &mut scratch);
        lazy_ms.push(begun.elapsed().as_secs_f64() * 1e3);
        cost.absorb(QueryCost {
            postings_scored: scratch.scored(),
            ..QueryCost::of(&cursors)
        });

        identical &= scratch.ranked.len() == eager.len()
            && scratch
                .ranked
                .iter()
                .zip(&eager)
                .all(|(l, e)| l.doc == e.doc && l.score.to_bits() == e.score.to_bits());
    }
    let ns_per_scored_posting =
        lazy_ms.iter().sum::<f64>() * 1e6 / cost.postings_scored.max(1) as f64;
    lazy_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    eager_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let executed = queries.len().max(1) as f64;
    QueryPoint {
        scenario,
        docs: doc_count,
        k,
        queries: queries.len(),
        lazy_p50_ms: percentile(&lazy_ms, 0.50),
        lazy_p95_ms: percentile(&lazy_ms, 0.95),
        eager_p50_ms: percentile(&eager_ms, 0.50),
        eager_p95_ms: percentile(&eager_ms, 0.95),
        blocks_decoded_per_query: cost.blocks_decoded as f64 / executed,
        blocks_total_per_query: cost.blocks_total as f64 / executed,
        ns_per_scored_posting,
        identical,
    }
}

/// The constructed selective corpus: every document carries the common
/// term once; the first `rare` documents additionally carry the rare
/// term with a dominant count.
fn selective_store(docs: usize, rare: usize) -> CompressedPostingStore {
    let documents: Vec<Document> = (0..docs as u32)
        .map(|d| {
            let mut terms = vec![(TermId(1), 1u32)];
            if (d as usize) < rare {
                terms.insert(0, (TermId(0), 60));
            }
            Document::from_term_counts(DocId(d), GroupId(0), terms)
        })
        .collect();
    CompressedPostingStore::from_index(&InvertedIndex::from_documents(&documents))
}

/// Runs the sweep on the shared ODP scenario plus the selective
/// showcase.
pub fn run(scale: Scale) -> QueryPerf {
    let scenario = OdpScenario::shared(scale);
    let all_docs = &scenario.corpus.documents;
    let (sizes, ks, sample, selective_docs) = match scale {
        Scale::Default => (
            vec![all_docs.len() / 4, all_docs.len()],
            vec![1usize, 10, 100],
            300usize,
            50_000usize,
        ),
        Scale::Smoke => (
            vec![all_docs.len() / 3, all_docs.len()],
            vec![1, 10],
            60,
            4_000,
        ),
    };
    let queries: Vec<Vec<TermId>> = scenario
        .log
        .queries
        .iter()
        .filter(|q| !q.is_empty())
        .take(sample)
        .cloned()
        .collect();

    let mut points = Vec::new();
    for &size in &sizes {
        let size = size.max(1).min(all_docs.len());
        let index = InvertedIndex::from_documents(&all_docs[..size]);
        let store = CompressedPostingStore::from_index(&index);
        for &k in &ks {
            points.push(measure("odp", &store, size, &queries, k));
        }
    }

    let store = selective_store(selective_docs, 4);
    let selective_queries: Vec<Vec<TermId>> = (0..50).map(|_| vec![TermId(0), TermId(1)]).collect();
    let selective = measure("selective", &store, selective_docs, &selective_queries, 3);

    QueryPerf { points, selective }
}

/// Formats the sweep.
pub fn render(result: &QueryPerf) -> String {
    let mut table = Table::new(
        "Query path: lazy decode-on-demand vs eager materialization (block-compressed store)",
        &[
            "scenario",
            "docs",
            "k",
            "queries",
            "lazy p50",
            "lazy p95",
            "eager p50",
            "eager p95",
            "dec blk/q",
            "tot blk/q",
            "ns/scored",
            "= eager",
        ],
    );
    for p in result
        .points
        .iter()
        .chain(std::iter::once(&result.selective))
    {
        table.row(&[
            p.scenario.to_string(),
            p.docs.to_string(),
            p.k.to_string(),
            p.queries.to_string(),
            format!("{:.3}", p.lazy_p50_ms),
            format!("{:.3}", p.lazy_p95_ms),
            format!("{:.3}", p.eager_p50_ms),
            format!("{:.3}", p.eager_p95_ms),
            format!("{:.1}", p.blocks_decoded_per_query),
            format!("{:.1}", p.blocks_total_per_query),
            format!("{:.0}", p.ns_per_scored_posting),
            if p.identical { "yes" } else { "NO" }.into(),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "latencies in ms; the lazy path decodes only blocks surviving the block-max \
         bound (dec blk/q) while the eager path always materializes every block \
         (tot blk/q); ns/scored is the lazy path's wall time per scored posting \
         (block-max TA); rankings are bit-identical on every query\n",
    );
    out
}

/// Machine-readable form for `repro --json` (`BENCH_query.json`).
pub fn to_json(result: &QueryPerf) -> String {
    use crate::json::{array, number, object, string};
    let point = |p: &QueryPoint| {
        object(&[
            ("scenario", string(p.scenario)),
            ("docs", number(p.docs as f64)),
            ("k", number(p.k as f64)),
            ("queries", number(p.queries as f64)),
            ("lazy_p50_ms", number(p.lazy_p50_ms)),
            ("lazy_p95_ms", number(p.lazy_p95_ms)),
            ("eager_p50_ms", number(p.eager_p50_ms)),
            ("eager_p95_ms", number(p.eager_p95_ms)),
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
    };
    let points: Vec<String> = result.points.iter().map(point).collect();
    object(&[
        ("points", array(&points)),
        ("selective", point(&result.selective)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_path_is_identical_and_prunes_decode_work() {
        let result = run(Scale::Smoke);
        assert!(!result.points.is_empty());
        for p in result.points.iter().chain([&result.selective]) {
            assert!(
                p.identical,
                "{} docs={} k={} diverged",
                p.scenario, p.docs, p.k
            );
            assert!(p.queries > 0);
            assert!(
                p.blocks_decoded_per_query <= p.blocks_total_per_query + 1e-9,
                "decode accounting out of range: {p:?}"
            );
        }
        // The selective scenario must *strictly* prune: fewer blocks
        // decoded than the eager path materializes.
        assert!(
            result.selective.blocks_decoded_per_query < result.selective.blocks_total_per_query,
            "selective scenario failed to skip decode work: {:?}",
            result.selective
        );
    }

    #[test]
    fn json_form_carries_points_and_selective() {
        let result = run(Scale::Smoke);
        let json = to_json(&result);
        assert!(json.contains("\"points\":[{"));
        assert!(json.contains("\"selective\":{"));
        assert!(json.contains("\"lazy_p50_ms\""));
        assert!(json.contains("\"blocks_decoded_per_query\""));
        assert!(json.contains("\"identical\":true"));
    }
}
