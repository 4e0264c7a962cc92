//! The evaluator bit-identity battery: every planned evaluator —
//! MaxScore, conjunctive, phrase — returns **bit-for-bit** the same
//! ranked results as
//! the exhaustive oracles (which walk the live index's lists), on
//! arbitrary corpora, across both posting backends (compressed blocks
//! in memory, and an LSM snapshot straddling two flushed segments and
//! a live memtable, with rewritten and deleted documents shadowed
//! across them). Plus the pruning claims: MaxScore never decodes more
//! blocks than exist, and on a selective workload decodes strictly
//! fewer.

use proptest::prelude::*;
use zerber_index::{
    DocId, Document, GroupId, InvertedIndex, PostingStore, RankedDoc, SegmentPolicy, TermId,
    TopKScratch,
};
use zerber_postings::CompressedPostingStore;
use zerber_query::{execute, oracle, Forced, QueryShape};
use zerber_segment::{ScratchDir, SegmentStore};

const TERMS: u32 = 12;

fn doc(id: u32, terms: &[(u32, u32)]) -> Document {
    Document::from_term_counts(
        DocId(id),
        GroupId(0),
        terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
    )
}

/// Arbitrary corpora over a small vocabulary: runs of consecutive term
/// ids are common, so phrase queries genuinely match.
fn arb_corpus() -> impl Strategy<Value = Vec<Document>> {
    prop::collection::btree_map(
        0..40u32,
        (
            // A consecutive run start + length: guarantees adjacency.
            0..TERMS,
            1..4u32,
            // Plus a few scattered extra terms.
            prop::collection::btree_map(0..TERMS, 1..3u32, 0..4),
        ),
        1..25,
    )
    .prop_map(|map| {
        map.into_iter()
            .map(|(id, (start, run, extra))| {
                let mut terms: Vec<(u32, u32)> = (start..(start + run).min(TERMS))
                    .map(|t| (t, 1 + (id + t) % 3))
                    .collect();
                for (t, c) in extra {
                    if !terms.iter().any(|&(have, _)| have == t) {
                        terms.push((t, c));
                    }
                }
                doc(id, &terms)
            })
            .collect()
    })
}

fn arb_query_terms() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..TERMS, 1..4)
}

/// IDF weights computed once (identical across backends — a weight
/// mismatch would trivially break cross-backend bit-identity).
fn slots(index: &InvertedIndex, terms: &[u32]) -> Vec<(TermId, f64)> {
    let n = index.document_count();
    terms
        .iter()
        .map(|&t| {
            let term = TermId(t);
            (term, zerber_index::idf(n, index.document_frequency(term)))
        })
        .collect()
}

/// Runs `check` against both posting backends.
fn for_each_backend(docs: &[Document], mut check: impl FnMut(&str, &dyn PostingStore)) {
    let index = InvertedIndex::from_documents(docs);
    check("compressed", &CompressedPostingStore::from_index(&index));

    // LSM snapshot whose net content is exactly `docs`, reached by a
    // history that puts every shadowing case on the query path: two
    // flushed segments under a live memtable, every third
    // document first written in a stale version holding *all* terms
    // (so its rewrite in a newer source keeps the query terms the
    // document really has and drops the others), and ghost documents
    // that exist only to be deleted from a newer source. Merged
    // cursors, positions read through a shadowed posting, the memtable
    // cursor and the forward-only shadow finger all serve these reads.
    let dir = ScratchDir::new("query-props");
    let store = SegmentStore::open(
        &dir,
        SegmentPolicy {
            flush_postings: 1_000_000,
            max_segments: 4,
            background: false,
            sync_wal: false,
        },
    )
    .expect("open");
    let every_term: Vec<(u32, u32)> = (0..TERMS).map(|t| (t, 2)).collect();
    let stale: Vec<Document> = docs
        .iter()
        .step_by(3)
        .map(|d| doc(d.id.0, &every_term))
        .collect();
    let ghosts: Vec<Document> = (0..4).map(|g| doc(100 + g, &every_term)).collect();
    let third = docs.len().div_ceil(3);
    let (first, rest) = docs.split_at(third.min(docs.len()));
    let (second, live) = rest.split_at(third.min(rest.len()));
    // Segment 1: the oldest third, every stale version, the ghosts.
    store.insert(&stale).expect("insert");
    store.insert(&ghosts).expect("insert");
    store.insert(first).expect("insert");
    store.flush().expect("flush");
    // Segment 2: the middle third (rewriting its stale versions) and
    // the first ghost deletions.
    store.insert(second).expect("insert");
    for ghost in &ghosts[..2] {
        store.delete(ghost.id).expect("delete");
    }
    store.flush().expect("flush");
    // The memtable: the rest, the remaining rewrites (`first`'s stale
    // versions sit under their real ones in segment 1 already — write
    // them again so the memtable shadows a segment too), the last
    // deletions.
    store.insert(live).expect("insert");
    store.insert(first).expect("insert");
    for ghost in &ghosts[2..] {
        store.delete(ghost.id).expect("delete");
    }
    let snapshot = store.snapshot();
    assert_eq!(
        (snapshot.segment_len(), snapshot.delta_len() > 0),
        (2, true)
    );
    check("segmented", &snapshot);
}

fn assert_bit_identical(label: &str, got: &[RankedDoc], want: &[RankedDoc]) {
    assert_eq!(got.len(), want.len(), "{label}: result count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.doc, w.doc, "{label}: doc order");
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "{label}: score bits for doc {:?}",
            g.doc
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn disjunctive_evaluators_match_the_oracle(
        docs in arb_corpus(),
        terms in arb_query_terms(),
        k in 1usize..8,
    ) {
        let index = InvertedIndex::from_documents(&docs);
        let slots = slots(&index, &terms);
        let want = oracle::oracle_terms(&index, &slots, k);
        let mut scratch = TopKScratch::new();
        for_each_backend(&docs, |backend, store| {
            let outcome =
                execute(store, QueryShape::Terms, &slots, k, Forced::Auto, &mut scratch);
            assert_bit_identical(&format!("{backend}/terms"), &outcome.ranked, &want);
            assert!(
                outcome.cost.blocks_decoded <= outcome.cost.blocks_total,
                "{backend}/terms: decoded beyond total"
            );
        });
    }

    #[test]
    fn conjunctive_evaluator_matches_the_oracle(
        docs in arb_corpus(),
        terms in arb_query_terms(),
        k in 1usize..8,
    ) {
        let index = InvertedIndex::from_documents(&docs);
        let slots = slots(&index, &terms);
        let want = oracle::oracle_and(&index, &slots, k);
        let mut scratch = TopKScratch::new();
        for_each_backend(&docs, |backend, store| {
            let outcome =
                execute(store, QueryShape::And, &slots, k, Forced::Auto, &mut scratch);
            assert_bit_identical(&format!("{backend}/and"), &outcome.ranked, &want);
        });
    }

    #[test]
    fn phrase_evaluator_matches_the_oracle(
        docs in arb_corpus(),
        start in 0..TERMS,
        len in 1u32..4,
        k in 1usize..8,
    ) {
        // Phrases are consecutive term-id runs — the shape the
        // canonical position convention makes matchable — so a healthy
        // fraction of cases have non-empty results.
        let terms: Vec<u32> = (start..(start + len).min(TERMS)).collect();
        let index = InvertedIndex::from_documents(&docs);
        let slots = slots(&index, &terms);
        let want = oracle::oracle_phrase(&index, &slots, k);
        let mut scratch = TopKScratch::new();
        for_each_backend(&docs, |backend, store| {
            let outcome =
                execute(store, QueryShape::Phrase, &slots, k, Forced::Auto, &mut scratch);
            assert_bit_identical(&format!("{backend}/phrase"), &outcome.ranked, &want);
        });
    }

    #[test]
    fn degenerate_phrases_match_the_oracle(
        docs in arb_corpus(),
        terms in prop::collection::vec(0..TERMS, 1..4),
        k in 1usize..8,
    ) {
        // Arbitrary (mostly non-adjacent, possibly repeating) phrases:
        // usually empty results, and the evaluator must agree exactly.
        let index = InvertedIndex::from_documents(&docs);
        let slots = slots(&index, &terms);
        let want = oracle::oracle_phrase(&index, &slots, k);
        let mut scratch = TopKScratch::new();
        for_each_backend(&docs, |backend, store| {
            let outcome =
                execute(store, QueryShape::Phrase, &slots, k, Forced::Auto, &mut scratch);
            assert_bit_identical(&format!("{backend}/degenerate"), &outcome.ranked, &want);
        });
    }
}

#[test]
fn selective_maxscore_decodes_strictly_fewer_blocks() {
    // A rare term over the first few documents and a common term over
    // every document: once the heap fills from the rare list, the
    // common list's σ falls below the threshold, demotes to
    // non-essential, and its blocks are only probed near rare-list
    // candidates — strictly fewer decodes than the block count.
    let docs: Vec<Document> = (0..1600u32)
        .map(|id| {
            let mut terms = vec![(0u32, 1u32)];
            if id < 4 {
                terms.push((1, 5));
            }
            doc(id, &terms)
        })
        .collect();
    let index = InvertedIndex::from_documents(&docs);
    let store = CompressedPostingStore::from_index(&index);
    let slots = vec![(TermId(0), 0.001), (TermId(1), 100.0)];
    let mut scratch = TopKScratch::new();
    let outcome = execute(
        &store,
        QueryShape::Terms,
        &slots,
        3,
        Forced::Auto,
        &mut scratch,
    );
    assert_eq!(outcome.ranked.len(), 3);
    assert_eq!(outcome.ranked[0].doc, DocId(0));
    assert!(
        outcome.cost.blocks_decoded < outcome.cost.blocks_total,
        "MaxScore must skip decode work on a selective query: {:?}",
        outcome.cost
    );
    // Eagerly materialized essential cursors may decode the one block
    // a lazy cursor would have been standing before when it demoted or
    // the loop ended — at most one per cursor beyond the lazy count
    // measured before (PR 14: 2 of 14 blocks).
    assert_eq!(outcome.cost.blocks_total, 14);
    assert!(
        (2..=2 + slots.len() as u64).contains(&outcome.cost.blocks_decoded),
        "{:?}",
        outcome.cost
    );
    // And the pruned result still matches the oracle bit for bit.
    let want = oracle::oracle_terms(&index, &slots, 3);
    for (g, w) in outcome.ranked.iter().zip(&want) {
        assert_eq!(g.doc, w.doc);
        assert_eq!(g.score.to_bits(), w.score.to_bits());
    }
}
