//! A flush moves a memtable's postings into a segment and must leave
//! every query unchanged — not only what it returns, score bits
//! included, but what it costs. The one query cursor reads a
//! memtable's decoded list in [`BLOCK_SIZE`]-entry blocks cut where a
//! seal's builder seals them, with the list bound the sealed list
//! carries, so the blocks it loads and counts before the flush are the
//! blocks it decodes after.

use zerber_index::{DocId, Document, GroupId, QueryCost, SegmentPolicy, TermId, TopKScratch};
use zerber_postings::BLOCK_SIZE;
use zerber_query::{execute, Forced, QueryShape};
use zerber_segment::{ScratchDir, SegmentStore};

const DOCS: u32 = 700;

/// A query's shape, its `(term, weight)` slots and its `k`.
type Query = (QueryShape, Vec<(TermId, f64)>, usize);

/// Doc `d` holds term 1 unless `d` is even, term 2 unless `d` is a
/// multiple of 3, term 3 when `d % 5 < 2`, rare term 4 when `d < 40`,
/// and filler term 9, with counts (and so lengths and positions)
/// varying by doc.
fn document(d: u32) -> Document {
    let mut terms = vec![(TermId(9), d % 7 + 1)];
    if d < 40 {
        terms.push((TermId(4), 5));
    }
    if d % 2 == 1 {
        terms.push((TermId(1), d % 4 + 1));
    }
    if !d.is_multiple_of(3) {
        terms.push((TermId(2), d % 5 + 1));
    }
    if d % 5 < 2 {
        terms.push((TermId(3), d % 3 + 1));
    }
    Document::from_term_counts(DocId(d), GroupId(0), terms)
}

/// Fixed slots of every shape. The rare, heavy term 4 beside the
/// filler lets MaxScore and the leapfrog skip the filler's blocks.
/// Under the canonical token stream a phrase matches only terms
/// adjacent in term order: `[1, 2]` wherever both occur, `[1, 3]` only
/// where term 2 is absent, `[2, 1]` nowhere.
fn queries() -> Vec<Query> {
    let (one, two, three) = ((TermId(1), 0.7), (TermId(2), 1.3), (TermId(3), 2.1));
    let (rare, filler) = ((TermId(4), 10.0), (TermId(9), 0.01));
    vec![
        (QueryShape::Terms, vec![one, two, three], 10),
        (QueryShape::Terms, vec![two], 1000),
        (QueryShape::Terms, vec![three, one], 25),
        (QueryShape::Terms, vec![rare, filler], 5),
        (QueryShape::And, vec![one, two], 10),
        (QueryShape::And, vec![one, three], 1000),
        (QueryShape::And, vec![filler, rare], 10),
        (QueryShape::Phrase, vec![one, two], 10),
        (QueryShape::Phrase, vec![one, three], 1000),
        (QueryShape::Phrase, vec![two, one], 10),
    ]
}

/// Each query's ranked docs with their score bits, and its cost.
fn answers(store: &SegmentStore) -> Vec<(Vec<(DocId, u64)>, QueryCost)> {
    let snapshot = store.snapshot();
    let mut scratch = TopKScratch::new();
    queries()
        .iter()
        .map(|(shape, slots, k)| {
            let outcome = execute(&snapshot, *shape, slots, *k, Forced::Auto, &mut scratch);
            let ranked = outcome.ranked.iter().map(|r| (r.doc, r.score.to_bits()));
            (ranked.collect(), outcome.cost)
        })
        .collect()
}

#[test]
fn a_flush_changes_neither_what_a_query_returns_nor_what_it_costs() {
    let dir = ScratchDir::new("flush-invariance");
    let policy = SegmentPolicy {
        flush_postings: usize::MAX,
        max_segments: 4,
        background: false,
        sync_wal: false,
    };
    let store = SegmentStore::open(&dir, policy).unwrap();
    let batch: Vec<Document> = (0..DOCS).map(document).collect();
    store.insert(&batch).unwrap();
    // Every query term spans more than two blocks and ends on a
    // partial one.
    let snapshot = store.snapshot();
    for term in 1..=3 {
        let len = snapshot.live_postings(TermId(term)).len();
        assert!(len > 2 * BLOCK_SIZE, "term {term}: {len}");
        assert!(!len.is_multiple_of(BLOCK_SIZE), "term {term}: {len}");
    }
    assert_eq!(store.segment_count(), 0);

    let before = answers(&store);
    store.flush().unwrap();
    assert_eq!(store.segment_count(), 1);
    assert_eq!(store.snapshot().delta_len(), 0, "the memtable is empty");
    let after = answers(&store);

    for (i, (before, after)) in before.iter().zip(&after).enumerate() {
        assert_eq!(before, after, "query {i}: {:?}", queries()[i]);
    }
    // The queries rank documents and decode blocks, and some skip
    // blocks: the equality is not an empty one.
    let phrases: Vec<usize> = before[7..].iter().map(|(ranked, _)| ranked.len()).collect();
    assert_eq!(phrases[2], 0, "no doc holds term 2 before term 1");
    assert!(phrases[0] > 0 && phrases[1] > 0, "{phrases:?}");
    assert!(before.iter().all(|(_, cost)| cost.blocks_decoded > 0));
    assert!(before
        .iter()
        .any(|(_, cost)| cost.blocks_decoded < cost.blocks_total));
}
