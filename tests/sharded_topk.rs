//! Property test for the sharded peer runtime: fan-out/gather top-k
//! must be *bit-identical* to single-node evaluation — same
//! documents, same order, same f64 score bits — for arbitrary
//! corpora, peer counts, and k. Deployments run on the default
//! in-memory backend; that the segmented backend serves the same bits
//! is `runtime::tests::compressed_backend_serves_identically` and the
//! mutation battery in `sharded_mutation.rs`.
//!
//! Why this holds: documents are sharded (each document's postings
//! live on exactly one peer), every peer scores with the same global
//! IDF weights (shipped as exact f64 bit patterns), contributions
//! accumulate in the same query-term order, and the gather stage is a
//! sorted merge with the threshold-algorithm bound under the same
//! `(score desc, doc asc)` tie-breaking.
//!
//! Corpora may repeat a document id with different terms. As on every
//! write path, the last copy wins: it is the one the peers serve, the
//! one the global statistics count and the one the oracle indexes.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use zerber::runtime::{local_planned, local_topk, ShardedSearch};
use zerber::ZerberConfig;
use zerber_index::{DocId, Document, GroupId, TermId};
use zerber_query::{Forced, Query};

/// An arbitrary corpus: doc id → (term → count), with gaps in the doc
/// id space and shared vocabulary so shards genuinely overlap on
/// terms; then up to three later copies of existing ids, each with
/// terms of its own.
fn arb_corpus() -> impl Strategy<Value = Vec<Document>> {
    let terms = || prop::collection::btree_map(0u32..30, 1u32..6, 1..8);
    let docs = prop::collection::btree_map(0u32..500, terms(), 1..80);
    let repeats = prop::collection::vec((0usize..80, terms()), 0..4);
    (docs, repeats).prop_map(|(docs, repeats)| {
        let ids: Vec<u32> = docs.keys().copied().collect();
        let copies = repeats
            .into_iter()
            .map(|(at, terms)| (ids[at % ids.len()], terms));
        docs.into_iter().chain(copies).map(materialize).collect()
    })
}

fn arb_query() -> impl Strategy<Value = Vec<u32>> {
    // May contain duplicates and terms absent from the corpus.
    prop::collection::vec(0u32..35, 1..5)
}

fn materialize((doc, terms): (u32, BTreeMap<u32, u32>)) -> Document {
    let terms = terms.into_iter().map(|(t, c)| (TermId(t), c)).collect();
    Document::from_term_counts(DocId(doc), GroupId(0), terms)
}

/// How many distinct document ids `docs` holds, and one it repeats.
fn distinct_ids(docs: &[Document]) -> (usize, Option<DocId>) {
    let mut seen = BTreeSet::new();
    let repeated = docs
        .iter()
        .map(|d| d.id)
        .filter(|&id| !seen.insert(id))
        .last();
    (seen.len(), repeated)
}

proptest! {
    #[test]
    fn sharded_gather_is_bit_identical_to_single_node(
        docs in arb_corpus(),
        peers in 1usize..9,
        k in 1usize..15,
        query in arb_query(),
    ) {
        let terms: Vec<TermId> = query.into_iter().map(TermId).collect();
        let config = ZerberConfig::default().with_peers(peers);

        let expected = local_topk(&docs, &terms, k);
        let search = ShardedSearch::launch(&config, &docs).expect("valid config");
        let outcome = search.query(&terms, k).expect("peers alive");

        prop_assert_eq!(outcome.ranked.len(), expected.len());
        for (got, want) in outcome.ranked.iter().zip(&expected) {
            prop_assert_eq!(got.doc, want.doc);
            // Bit-identical floats, not approximately equal.
            prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
        }
        // The gather never examines more than k candidates.
        prop_assert!(outcome.candidates_examined <= k);

        // A repeated id is one document, before and after its delete.
        let (distinct, repeated) = distinct_ids(&docs);
        prop_assert_eq!(search.document_count(), distinct);
        if let Some(doc) = repeated {
            prop_assert!(search.delete_document(0, doc).expect("peers alive"));
            prop_assert_eq!(search.document_count(), distinct - 1);
            let live: Vec<Document> = docs.iter().filter(|d| d.id != doc).cloned().collect();
            let after = search.query(&terms, k).expect("peers alive");
            prop_assert_eq!(after.ranked, local_topk(&live, &terms, k));
        }
    }

    /// The shaped path extends the theorem to every planned evaluator:
    /// Terms (MaxScore), And (conjunctive leapfrog), and Phrase
    /// (positional filter) through the full PlanQuery fan-out — and
    /// the second, cache-served answer is the same bits again —
    /// whether the corpus came in through `launch` or a later
    /// `bulk_load`.
    #[test]
    fn shaped_sharded_queries_are_bit_identical_to_local_planned(
        docs in arb_corpus(),
        peers in 1usize..7,
        k in 1usize..12,
        query in arb_query(),
        shape in 0u8..3,
        loaded_later in any::<bool>(),
    ) {
        let terms: Vec<TermId> = query.into_iter().map(TermId).collect();
        let shaped = match shape {
            0 => Query::Terms { terms, k },
            1 => Query::And { terms, k },
            _ => Query::Phrase { terms, k },
        };
        let config = ZerberConfig::default().with_peers(peers);

        let expected = local_planned(&docs, &shaped);
        let search = if loaded_later {
            let search = ShardedSearch::launch(&config, &[]).expect("valid config");
            search.bulk_load(0, &docs).expect("peers alive");
            search
        } else {
            ShardedSearch::launch(&config, &docs).expect("valid config")
        };
        prop_assert_eq!(search.document_count(), distinct_ids(&docs).0);
        let miss = search
            .query_shaped(0, shaped.clone(), Forced::Auto)
            .expect("peers alive");
        prop_assert!(miss.peers_contacted > 0, "first ask must fan out");
        let hit = search
            .query_shaped(0, shaped, Forced::Auto)
            .expect("cache answers");
        prop_assert_eq!(hit.peers_contacted, 0, "second ask must hit the cache");
        for outcome in [&miss, &hit] {
            prop_assert_eq!(outcome.ranked.len(), expected.len());
            for (got, want) in outcome.ranked.iter().zip(&expected) {
                prop_assert_eq!(got.doc, want.doc);
                prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
            }
        }
    }
}

/// Interleaved writes can never serve a stale cached answer: every
/// acknowledged mutation bumps the serving epoch, the epoch is baked
/// into the cache key, so the post-write ask misses and re-evaluates
/// against the mutated shards.
#[test]
fn writes_invalidate_the_shaped_result_cache() {
    let mut docs: Vec<Document> = (0..60u32)
        .map(|d| {
            Document::from_term_counts(
                DocId(d),
                GroupId(0),
                vec![(TermId(d % 5), 1 + d % 3), (TermId(7), 1)],
            )
        })
        .collect();
    let config = ZerberConfig::default().with_peers(3);
    let search = ShardedSearch::launch(&config, &docs).expect("valid config");
    let query = Query::Terms {
        terms: vec![TermId(2), TermId(7)],
        k: 8,
    };

    let warm = search
        .query_shaped(0, query.clone(), Forced::Auto)
        .expect("healthy");
    assert!(warm.peers_contacted > 0);
    assert_eq!(
        search
            .query_shaped(0, query.clone(), Forced::Auto)
            .expect("healthy")
            .peers_contacted,
        0,
        "unwritten deployment serves from cache"
    );

    // Insert, delete, and bulk-load; after each, the next ask must
    // miss (no stale hit) and match a from-scratch local evaluation.
    let insert = Document::from_term_counts(DocId(900), GroupId(0), vec![(TermId(2), 9)]);
    search
        .insert_documents(0, std::slice::from_ref(&insert))
        .expect("insert");
    docs.push(insert);
    let after_insert = search
        .query_shaped(0, query.clone(), Forced::Auto)
        .expect("healthy");
    assert!(after_insert.peers_contacted > 0, "stale hit after insert");
    assert_eq!(after_insert.ranked, local_planned(&docs, &query));

    assert!(search.delete_document(0, DocId(2)).expect("delete"));
    docs.retain(|d| d.id != DocId(2));
    let after_delete = search
        .query_shaped(0, query.clone(), Forced::Auto)
        .expect("healthy");
    assert!(after_delete.peers_contacted > 0, "stale hit after delete");
    assert_eq!(after_delete.ranked, local_planned(&docs, &query));

    let bulk: Vec<Document> = (1000..1010u32)
        .map(|d| Document::from_term_counts(DocId(d), GroupId(0), vec![(TermId(7), 2)]))
        .collect();
    search.bulk_load(0, &bulk).expect("bulk load");
    docs.extend(bulk);
    let after_bulk = search
        .query_shaped(0, query.clone(), Forced::Auto)
        .expect("healthy");
    assert!(after_bulk.peers_contacted > 0, "stale hit after bulk load");
    assert_eq!(after_bulk.ranked, local_planned(&docs, &query));

    // And with no further writes, the refreshed entry serves again.
    assert_eq!(
        search
            .query_shaped(0, query, Forced::Auto)
            .expect("healthy")
            .peers_contacted,
        0
    );
}
