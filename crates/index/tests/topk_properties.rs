//! Property tests for the ranking algorithms: the cursor-driven
//! block-max Threshold Algorithm must return exactly the same top-k
//! documents and scores as the exhaustive evaluation, for arbitrary
//! corpora, k, and block sizes, while never decoding more blocks than
//! exist.

use std::collections::BTreeMap;

use proptest::prelude::*;
use zerber_index::cursor::{block_max_topk_cursors, QueryCost, ScoredListCursor, TopKScratch};
use zerber_index::topk::naive_topk;
use zerber_index::{BlockCursor, BlockScoredList, DocId, ScoredList};

fn arb_list() -> impl Strategy<Value = BTreeMap<u32, f64>> {
    // Scores must be non-negative and finite — the documented
    // precondition of `BlockScoredList` (TF-IDF contributions are).
    prop::collection::btree_map(0u32..200, 0.0..100.0f64, 0..60)
}

fn arb_lists() -> impl Strategy<Value = Vec<BTreeMap<u32, f64>>> {
    prop::collection::vec(arb_list(), 1..6)
}

proptest! {
    /// The cursor-driven lazy pipeline is bit-identical to the
    /// exhaustive oracle for arbitrary corpora, and its decoded-block
    /// accounting never exceeds the number of blocks that exist.
    #[test]
    fn cursor_topk_matches_naive_and_bounds_decode_work(
        lists in arb_lists(),
        k in 1usize..12,
        block_size in 1usize..10,
    ) {
        let blocked: Vec<BlockScoredList> = lists
            .iter()
            .map(|l| {
                BlockScoredList::from_doc_ordered(
                    l.iter().map(|(&d, &s)| (DocId(d), s)).collect(),
                    block_size,
                )
            })
            .collect();
        let scored: Vec<ScoredList> = lists
            .iter()
            .map(|l| ScoredList::new(l.iter().map(|(&d, &s)| (DocId(d), s)).collect()))
            .collect();
        let mut cursors: Vec<Box<dyn BlockCursor>> = blocked
            .into_iter()
            .map(|l| Box::new(ScoredListCursor::new(l)) as Box<dyn BlockCursor>)
            .collect();
        let mut scratch = TopKScratch::new();
        block_max_topk_cursors(&mut cursors, k, &mut scratch);
        let cost = QueryCost::of(&cursors);
        let slow = naive_topk(&scored, k);
        prop_assert_eq!(scratch.ranked.len(), slow.len());
        for (f, s) in scratch.ranked.iter().zip(&slow) {
            prop_assert_eq!(f.doc, s.doc);
            prop_assert_eq!(f.score, s.score);
        }
        prop_assert!(cost.blocks_decoded <= cost.blocks_total);
    }
}

/// On a constructed selective corpus — a handful of dominant rare-term
/// documents in front of a long, weak common list — the lazy pipeline
/// must decode *strictly* fewer blocks than exist: once the heap holds
/// the rare documents, the common tail's block maxima fall below the
/// k-th score and whole blocks skip undecoded.
#[test]
fn selective_corpus_decodes_strictly_fewer_blocks() {
    let rare: Vec<(DocId, f64)> = (0..4u32).map(|d| (DocId(d), 50.0)).collect();
    let common: Vec<(DocId, f64)> = (0..2048u32).map(|d| (DocId(d), 0.01)).collect();
    let lists = [
        BlockScoredList::from_doc_ordered(rare.clone(), 128),
        BlockScoredList::from_doc_ordered(common.clone(), 128),
    ];
    let mut cursors: Vec<Box<dyn BlockCursor>> = lists
        .into_iter()
        .map(|l| Box::new(ScoredListCursor::new(l)) as Box<dyn BlockCursor>)
        .collect();
    let mut scratch = TopKScratch::new();
    block_max_topk_cursors(&mut cursors, 3, &mut scratch);
    let cost = QueryCost::of(&cursors);
    assert!(
        cost.blocks_decoded < cost.blocks_total,
        "pruning must skip blocks outright: {cost:?}"
    );

    // And still bit-identical to the exhaustive oracle.
    let scored = vec![ScoredList::new(rare), ScoredList::new(common)];
    let slow = naive_topk(&scored, 3);
    assert_eq!(scratch.ranked.len(), slow.len());
    for (f, s) in scratch.ranked.iter().zip(&slow) {
        assert_eq!(f.doc, s.doc);
        assert_eq!(f.score.to_bits(), s.score.to_bits());
    }
}
