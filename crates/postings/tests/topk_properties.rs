//! Property tests for the ranking algorithm in `zerber-index`: the
//! cursor-driven block-max Threshold Algorithm must return exactly the
//! same top-k documents and scores as the exhaustive evaluation, for
//! arbitrary corpora and k, while never decoding more blocks than
//! exist. They live here because the driver needs real cursors to
//! drive: every case runs over both [`CompressedBlockCursor`] and
//! [`DecodedEntriesCursor`], on lists long enough to span several
//! [`BLOCK_SIZE`]-posting blocks.

use std::collections::BTreeMap;

use proptest::prelude::*;
use zerber_index::cursor::{block_max_topk_cursors, QueryCost, TopKScratch};
use zerber_index::topk::naive_topk;
use zerber_index::{BlockCursor, DocId, RankedDoc, ScoredList};
use zerber_postings::{
    CompressedBlockCursor, CompressedPostingBuilder, CompressedPostingList, DecodedEntriesCursor,
    RawEntry, BLOCK_SIZE,
};

/// Doc → `(count, doc_length)`: one term's postings as generated.
type Postings = BTreeMap<u32, (u32, u32)>;

/// One term's postings and the weight its cursors score with.
struct Fixture {
    entries: Vec<RawEntry>,
    list: CompressedPostingList,
    weight: f64,
}

impl Fixture {
    fn new(postings: &Postings, weight: f64) -> Self {
        let entries: Vec<RawEntry> = postings
            .iter()
            .map(|(&doc, &(count, doc_length))| RawEntry {
                doc: u64::from(doc),
                count,
                doc_length,
                pos: 0,
            })
            .collect();
        Self {
            list: CompressedPostingBuilder::from_sorted(entries.iter().copied()),
            entries,
            weight,
        }
    }

    /// Entries scoring `count / 10` under weight 1.
    fn tenths(entries: &[(u32, u32)]) -> Self {
        Self::new(
            &entries
                .iter()
                .map(|&(doc, count)| (doc, (count, 10)))
                .collect(),
            1.0,
        )
    }

    /// The exhaustive oracle's view: every `(doc, tf · weight)`.
    fn scored(&self) -> ScoredList {
        ScoredList::new(
            self.entries
                .iter()
                .map(|e| (DocId(e.doc as u32), e.term_frequency() * self.weight))
                .collect(),
        )
    }
}

/// Ranks `fixtures` with the cursor-driven driver, once over the
/// compressed lists and once over the decoded entries.
fn block_max_ranked(fixtures: &[Fixture], k: usize) -> [(Vec<RankedDoc>, QueryCost); 2] {
    let compressed: Vec<Box<dyn BlockCursor + '_>> = fixtures
        .iter()
        .map(|f| Box::new(CompressedBlockCursor::new(&f.list, f.weight)) as Box<dyn BlockCursor>)
        .collect();
    let decoded: Vec<Box<dyn BlockCursor + '_>> = fixtures
        .iter()
        .map(|f| Box::new(DecodedEntriesCursor::new(&f.entries, f.weight)) as Box<dyn BlockCursor>)
        .collect();
    [compressed, decoded].map(|mut cursors| {
        let mut scratch = TopKScratch::new();
        block_max_topk_cursors(&mut cursors, k, &mut scratch);
        (scratch.take_ranked(), QueryCost::of(&cursors))
    })
}

fn naive_ranked(fixtures: &[Fixture], k: usize) -> Vec<RankedDoc> {
    let scored: Vec<ScoredList> = fixtures.iter().map(Fixture::scored).collect();
    naive_topk(&scored, k)
}

/// Up to ~6 blocks per list over a doc space dense enough that lists
/// overlap. Scores are `count / doc_length · weight`: non-negative and
/// finite (the cursor contract), zero included, exact ties common.
fn arb_list() -> impl Strategy<Value = (Postings, f64)> {
    (
        prop::collection::btree_map(0u32..2_000, (0u32..64, 1u32..64), 0..6 * BLOCK_SIZE),
        0.0..100.0f64,
    )
}

fn arb_lists() -> impl Strategy<Value = Vec<(Postings, f64)>> {
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
    ) {
        let fixtures: Vec<Fixture> = lists
            .iter()
            .map(|(postings, weight)| Fixture::new(postings, *weight))
            .collect();
        let slow = naive_ranked(&fixtures, k);
        for (ranked, cost) in block_max_ranked(&fixtures, k) {
            prop_assert_eq!(ranked.len(), slow.len());
            for (f, s) in ranked.iter().zip(&slow) {
                prop_assert_eq!(f.doc, s.doc);
                prop_assert_eq!(f.score, s.score);
            }
            prop_assert!(cost.blocks_decoded <= cost.blocks_total);
        }
    }
}

/// On a constructed selective corpus — a handful of dominant rare-term
/// documents in front of a long, weak common list — the lazy pipeline
/// must decode *strictly* fewer blocks than exist: once the heap holds
/// the rare documents, the common tail's block maxima fall below the
/// k-th score and whole blocks skip undecoded.
#[test]
fn selective_corpus_decodes_strictly_fewer_blocks() {
    let rare: Postings = (0..4).map(|d| (d, (1, 1))).collect();
    let common: Postings = (0..2048).map(|d| (d, (1, 1))).collect();
    let fixtures = [Fixture::new(&rare, 50.0), Fixture::new(&common, 0.01)];
    let slow = naive_ranked(&fixtures, 3);
    for (ranked, cost) in block_max_ranked(&fixtures, 3) {
        assert!(
            cost.blocks_decoded < cost.blocks_total,
            "pruning must skip blocks outright: {cost:?}"
        );
        // And still bit-identical to the exhaustive oracle.
        assert_eq!(ranked.len(), slow.len());
        for (f, s) in ranked.iter().zip(&slow) {
            assert_eq!(f.doc, s.doc);
            assert_eq!(f.score.to_bits(), s.score.to_bits());
        }
    }
}

#[test]
fn block_max_matches_naive_on_fixed_example() {
    let fixtures = [
        Fixture::tenths(&[(1, 5), (2, 4), (3, 3), (4, 2), (7, 9), (9, 1)]),
        Fixture::tenths(&[(2, 2), (4, 9), (5, 1), (9, 8)]),
        Fixture::tenths(&[(1, 6), (5, 7)]),
    ];
    for k in 1..=8 {
        let slow = naive_ranked(&fixtures, k);
        for (fast, _) in block_max_ranked(&fixtures, k) {
            assert_eq!(fast.len(), slow.len(), "k = {k}");
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.doc, s.doc, "k = {k}");
                assert_eq!(f.score, s.score, "k = {k}");
            }
        }
    }
}

#[test]
fn block_max_skips_cannot_lose_tied_docs() {
    // Every document but one ties at the k-th score, across three
    // blocks; block-max pruning uses a strict bound, so all tied docs
    // must survive for tie-breaking.
    let entries: Vec<(u32, u32)> = (0..300).map(|d| (d, if d == 1 { 9 } else { 5 })).collect();
    for (top, _) in block_max_ranked(&[Fixture::tenths(&entries)], 3) {
        assert_eq!(
            top.iter().map(|r| r.doc.0).collect::<Vec<_>>(),
            vec![1, 0, 2]
        );
    }
}

#[test]
fn block_max_edge_cases() {
    for (ranked, _) in block_max_ranked(&[], 3) {
        assert!(ranked.is_empty());
    }
    let one = [Fixture::tenths(&[(1, 5)])];
    for (ranked, _) in block_max_ranked(&one, 0) {
        assert!(ranked.is_empty());
    }
    for (ranked, _) in block_max_ranked(&[Fixture::tenths(&[])], 3) {
        assert!(ranked.is_empty());
    }
    for (ranked, _) in block_max_ranked(&one, 10) {
        assert_eq!(ranked.len(), 1);
    }
}
