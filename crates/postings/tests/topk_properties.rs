//! Property tests for the ranking algorithm in `zerber-index`: the
//! cursor-driven MaxScore evaluator must return exactly the
//! same top-k documents and scores as the exhaustive evaluation, for
//! arbitrary corpora and k, while never decoding more blocks than
//! exist, and the bulk `drain_below` it reads essential lists with
//! must equal the posting-at-a-time walk. They live here because the
//! evaluator needs real cursors to rank over: every case runs the
//! [`CompressedBlockCursor`] over both of its sources — a compressed
//! list and the same postings decoded in memory — on lists long enough
//! to span several [`BLOCK_SIZE`]-posting blocks.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use zerber_index::cursor::{maxscore_topk, QueryCost, Shadow, ShadowedMergeCursor, TopKScratch};
use zerber_index::topk::naive_topk;
use zerber_index::{BlockCursor, DocId, RankedDoc, ScoredList};
use zerber_postings::{
    CompressedBlockCursor, CompressedPostingBuilder, CompressedPostingList, RawEntry, BLOCK_SIZE,
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
                doc,
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
                .map(|e| (DocId(e.doc), e.term_frequency() * self.weight))
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
        .map(|f| {
            Box::new(CompressedBlockCursor::decoded(&f.entries, f.weight)) as Box<dyn BlockCursor>
        })
        .collect();
    [compressed, decoded].map(|mut cursors| {
        let mut scratch = TopKScratch::new();
        maxscore_topk(&mut cursors, k, &mut scratch);
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
/// the rare documents, the common list's σ falls below the k-th score,
/// it demotes to non-essential, and seeks pass its blocks undecoded.
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
    // blocks; pruning uses a strict bound, so all tied docs
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

/// Per source rank, the documents its newer sources touch — their
/// postings and their tombstones — ascending.
#[derive(Clone)]
struct NewerTouch(Vec<Vec<u32>>);

impl Shadow for NewerTouch {
    fn next_touched(&mut self, rank: usize, doc: DocId) -> Option<DocId> {
        let touched = &self.0[rank];
        touched
            .get(touched.partition_point(|&d| d < doc.0))
            .map(|&d| DocId(d))
    }
}

/// The walk [`BlockCursor::drain_below`] must equal: materialize and
/// step while the cursor's lower bound is below `end`.
fn walk_below(cursor: &mut dyn BlockCursor, end: u64, out: &mut Vec<(DocId, f64)>) {
    while !cursor.at_end() && u64::from(cursor.doc_lower_bound().0) < end {
        match cursor.materialize() {
            Some((doc, score)) if u64::from(doc.0) < end => {
                out.push((doc, score));
                cursor.step();
            }
            _ => return,
        }
    }
}

/// One action of a drain script, at an ascending target document.
#[derive(Clone, Copy, Debug)]
enum Action {
    Drain,
    Advance,
    Materialize,
}

/// Runs `script` on `fast` (draining in bulk) and `slow` (walking),
/// then drains both to the end: the postings, score bits, decoded
/// blocks and final positions must agree after every action.
fn drains_like_the_walk(
    fast: &mut dyn BlockCursor,
    slow: &mut dyn BlockCursor,
    script: &[(Action, u32)],
) -> Result<(), TestCaseError> {
    let bits = |run: &[(DocId, f64)]| -> Vec<(u32, u64)> {
        run.iter()
            .map(|&(doc, score)| (doc.0, score.to_bits()))
            .collect()
    };
    let (mut got, mut want) = (Vec::new(), Vec::new());
    // The last drain runs past the top document id.
    let finish = (Action::Drain, 1 << 32);
    let steps = script
        .iter()
        .map(|&(action, target)| (action, u64::from(target)));
    for (action, target) in steps.chain([finish]) {
        match action {
            Action::Drain => {
                got.clear();
                want.clear();
                fast.drain_below(target, &mut got);
                walk_below(slow, target, &mut want);
                prop_assert_eq!(bits(&got), bits(&want), "drain below {}", target);
            }
            Action::Advance => {
                let bound = DocId(target as u32);
                fast.advance_past(bound);
                slow.advance_past(bound);
            }
            Action::Materialize => {
                let (got, want) = (fast.materialize(), slow.materialize());
                prop_assert_eq!(
                    got.map(|(doc, score)| (doc, score.to_bits())),
                    want.map(|(doc, score)| (doc, score.to_bits()))
                );
            }
        }
        prop_assert_eq!(
            fast.decoded_blocks(),
            slow.decoded_blocks(),
            "{:?} {}",
            action,
            target
        );
        prop_assert_eq!(fast.at_end(), slow.at_end());
        prop_assert_eq!(fast.is_exact(), slow.is_exact());
        if !fast.at_end() {
            prop_assert_eq!(fast.doc_lower_bound(), slow.doc_lower_bound());
        }
    }
    prop_assert!(fast.materialize().is_none() && slow.materialize().is_none());
    Ok(())
}

/// Up to three sources of one term, oldest first: each source's
/// postings and the documents it touches without the term
/// (re-inserted without it, or deleted).
fn arb_sources() -> impl Strategy<Value = Vec<(Postings, Vec<u32>)>> {
    prop::collection::vec(
        (
            prop::collection::btree_map(0u32..2_000, (0u32..64, 1u32..64), 0..3 * BLOCK_SIZE),
            prop::collection::vec(0u32..2_000, 0..40),
        ),
        1..4,
    )
}

/// Actions with targets drawn around the block boundaries of `lists`
/// (a block's first and last document, one past it, its middle, and
/// past every list), sorted ascending: a cursor is only ever asked
/// about documents that move forward.
fn script_over(lists: &[&CompressedPostingList], picks: &[(u8, usize, u32)]) -> Vec<(Action, u32)> {
    let mut targets = vec![0u32, 2_100];
    for block in lists.iter().flat_map(|list| list.blocks()) {
        let (first, last) = (block.first_doc, block.last_doc);
        targets.extend([first, last, last + 1, first + (last - first) / 2]);
    }
    let mut script: Vec<(Action, u32)> = picks
        .iter()
        .map(|&(kind, pick, jitter)| {
            let action = [Action::Drain, Action::Advance, Action::Materialize][kind as usize % 3];
            let target = (targets[pick % targets.len()] + jitter).saturating_sub(1);
            (action, target)
        })
        .collect();
    script.sort_by_key(|&(_, target)| target);
    script
}

proptest! {
    /// `drain_below` on every cursor the read path opens — compressed,
    /// decoded, and a shadowed merge over sources with shadowed and
    /// tombstoned documents — consumes exactly the postings the
    /// `materialize`/`step` walk does, with the same score bits, the
    /// same decoded blocks and the same position afterwards.
    #[test]
    fn drain_below_equals_the_materialize_step_walk(
        sources in arb_sources(),
        weight in 0.0..100.0f64,
        picks in prop::collection::vec((0u8..3, 0usize..10_000, 0u32..3), 0..24),
    ) {
        let fixtures: Vec<Fixture> = sources
            .iter()
            .map(|(postings, _)| Fixture::new(postings, weight))
            .collect();
        let lists: Vec<&CompressedPostingList> = fixtures.iter().map(|f| &f.list).collect();
        let script = script_over(&lists, &picks);
        let only = &fixtures[0];
        drains_like_the_walk(
            &mut CompressedBlockCursor::new(&only.list, weight),
            &mut CompressedBlockCursor::new(&only.list, weight),
            &script,
        )?;
        drains_like_the_walk(
            &mut CompressedBlockCursor::decoded(&only.entries, weight),
            &mut CompressedBlockCursor::decoded(&only.entries, weight),
            &script,
        )?;

        let touched: Vec<BTreeSet<u32>> = sources
            .iter()
            .map(|(postings, others)| postings.keys().chain(others).copied().collect())
            .collect();
        let shadow = NewerTouch(
            (0..sources.len())
                .map(|rank| {
                    let newer: BTreeSet<u32> = touched[rank + 1..].iter().flatten().copied().collect();
                    newer.into_iter().collect()
                })
                .collect(),
        );
        let compressed = || {
            let subs = fixtures
                .iter()
                .enumerate()
                .map(|(rank, f)| (rank, CompressedBlockCursor::new(&f.list, weight)))
                .collect();
            ShadowedMergeCursor::new(subs, shadow.clone())
        };
        drains_like_the_walk(&mut compressed(), &mut compressed(), &script)?;
        let decoded = || {
            let subs = fixtures
                .iter()
                .enumerate()
                .map(|(rank, f)| (rank, CompressedBlockCursor::decoded(&f.entries, weight)))
                .collect();
            ShadowedMergeCursor::new(subs, shadow.clone())
        };
        drains_like_the_walk(&mut decoded(), &mut decoded(), &script)?;
    }
}

/// Asserts both cursor kinds rank `fixtures` exactly as the exhaustive
/// oracle does, score bits included, and returns their costs.
fn assert_bit_identical(fixtures: &[Fixture], k: usize) -> Vec<QueryCost> {
    let want = naive_ranked(fixtures, k);
    block_max_ranked(fixtures, k)
        .into_iter()
        .map(|(ranked, cost)| {
            assert_eq!(ranked.len(), want.len());
            for (got, want) in ranked.iter().zip(&want) {
                assert_eq!(got.doc, want.doc);
                assert_eq!(got.score.to_bits(), want.score.to_bits(), "{:?}", got.doc);
            }
            cost
        })
        .collect()
}

#[test]
fn a_demoted_lower_slot_keeps_the_slot_order_sum() {
    // Slot 0 is a long weak list that demotes once the early documents
    // fill the heap; slots 1 and 2 stay essential and put their best
    // documents late, where slot 0 contributes only by probe. Summing
    // the drained slots before the probed one would round differently.
    let common: Postings = (0..3_000).map(|d| (d, (1 + d % 5, 3))).collect();
    let rare = |late: u32| -> Postings {
        (0..6)
            .map(|d| (d, (2, 7)))
            .chain((2_900..2_904).map(|d| (d, (late, 7))))
            .collect()
    };
    let fixtures = [
        Fixture::new(&common, 0.001),
        Fixture::new(&rare(5), 2.7),
        Fixture::new(&rare(6), 2.9),
    ];
    for cost in assert_bit_identical(&fixtures, 3) {
        assert!(cost.blocks_decoded < cost.blocks_total, "{cost:?}");
    }
    // The fixture discriminates: some ranked document's score differs
    // with the probed slot added last.
    let scores = |f: &Fixture, doc: DocId| {
        f.entries
            .iter()
            .find(|e| e.doc == doc.0)
            .map_or(0.0, |e| e.term_frequency() * f.weight)
    };
    assert!(naive_ranked(&fixtures, 3).iter().any(|r| {
        let [a, b, c] = [0, 1, 2].map(|slot| scores(&fixtures[slot], r.doc));
        (b + c + a).to_bits() != r.score.to_bits()
    }));
}

#[test]
fn a_list_demoted_inside_a_window_stops_enumerating() {
    // k = 1. The first window (cut at C's first block end) demotes C;
    // B stays essential into the second window until A's document 500
    // demotes it. B's later documents there must then be skipped, as
    // a loop re-partitioning per candidate never reaches them: probing
    // C for each would decode C's blocks 4..=9 as well.
    let a: Postings = [500, 1_500].map(|d| (d, (1, 1))).into();
    let b: Postings = (0..128).map(|i| (i * 10, (1, 2))).collect();
    let c: Postings = (0..2_000).map(|d| (d, (1, 1))).collect();
    let fixtures = [
        Fixture::new(&a, 10.0),
        Fixture::new(&b, 1.0),
        Fixture::new(&c, 0.001),
    ];
    for cost in assert_bit_identical(&fixtures, 1) {
        // A and B one block each; C blocks 0..=3 and the one holding
        // 1 500, of 16.
        assert_eq!((cost.blocks_decoded, cost.blocks_total), (7, 18));
    }
}

#[test]
fn a_block_wider_than_a_window_is_cut_mid_block() {
    // One block each, spanning ten times the window's document span:
    // the windows cut both blocks, which must still decode once each.
    let sparse = |step: u32, tf: u32| -> Postings {
        (0..100)
            .map(|i| (i * step, (1 + (i + tf) % 9, 10)))
            .collect()
    };
    let fixtures = [
        Fixture::new(&sparse(400, 0), 1.7),
        Fixture::new(&sparse(300, 4), 0.6),
    ];
    for cost in assert_bit_identical(&fixtures, 500) {
        assert_eq!((cost.blocks_decoded, cost.blocks_total), (2, 2));
    }
}

#[test]
fn duplicate_slots_each_contribute() {
    // Slots 0 and 2 hold the same list; each is a slot of its own.
    let a = || Fixture::tenths(&(0..400).map(|d| (d * 2, 1 + d % 7)).collect::<Vec<_>>());
    let b = Fixture::tenths(&(0..300).map(|d| (d * 3, 1 + d % 4)).collect::<Vec<_>>());
    let fixtures = [a(), b, a()];
    for k in [1, 10, 1_000] {
        assert_bit_identical(&fixtures, k);
    }
}

#[test]
fn the_top_document_id_is_ranked() {
    // A window reaching the end of the id space has no exclusive bound.
    let top = [u32::MAX - 300, u32::MAX - 1, u32::MAX];
    let fixtures = [
        Fixture::tenths(&top.map(|doc| (doc, 3))),
        Fixture::tenths(&[(5, 1), (u32::MAX, 2)]),
    ];
    assert_bit_identical(&fixtures, 5);
}
