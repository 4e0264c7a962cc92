//! Snapshot isolation: a snapshot keeps answering from the store as it
//! was when the snapshot was taken, whatever is written after, and its
//! cursors report each live document's canonical positions under
//! shadowing.

use zerber_index::{DocId, Document, GroupId, PostingStore, SegmentPolicy, TermId};
use zerber_segment::{ScratchDir, SegmentSnapshot, SegmentStore};

fn doc(id: u32, terms: &[(u32, u32)]) -> Document {
    Document::from_term_counts(
        DocId(id),
        GroupId(0),
        terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
    )
}

fn policy() -> SegmentPolicy {
    SegmentPolicy {
        flush_postings: 1_000_000, // flush only when asked
        max_segments: 1,           // any second segment compacts
        background: false,
        sync_wal: false,
    }
}

/// A snapshot captures the store at its point in time: a later write
/// is seen by a later snapshot and not by the pinned one.
#[test]
fn snapshots_capture_the_epoch_and_stay_pinned() {
    let dir = ScratchDir::new("epoch-snap");
    let store = SegmentStore::open(&dir, policy()).expect("open");
    store.insert(&[doc(1, &[(0, 1)])]).expect("insert");

    let old = store.snapshot();
    store.insert(&[doc(2, &[(0, 3)])]).expect("insert");
    let new = store.snapshot();
    // The pinned snapshot still answers from its own world.
    assert_eq!(old.document_frequency(TermId(0)), 1);
    assert_eq!(new.document_frequency(TermId(0)), 2);
}

/// The positional run `(first position, count)` the snapshot's cursor
/// for `term` reports on `doc` — `None` when no live posting exists.
fn stored_run(snapshot: &SegmentSnapshot, term: u32, doc: u32) -> Option<(u32, u32)> {
    let mut cursors = snapshot.query_cursors(&[(TermId(term), 1.0)]);
    let cursor = &mut cursors[0];
    while let Some((at, _)) = cursor.materialize() {
        if at == DocId(doc) {
            return Some(cursor.positions());
        }
        cursor.step();
    }
    None
}

/// The positional column under shadowing: a snapshot's cursors must
/// report the canonical run (terms in ascending id order, each
/// occupying `count` consecutive slots) of the *newest* version of a
/// document, wherever it lives — memtable over segment, newer segment
/// over older — and yield nothing once it is tombstoned.
#[test]
fn stored_positions_respect_shadowing_across_sources() {
    let dir = ScratchDir::new("epoch-pos");
    let store = SegmentStore::open(&dir, policy()).expect("open");

    // v1 of doc 1 in a segment: terms 2 (count 2) then 5 (count 1).
    store.insert(&[doc(1, &[(5, 1), (2, 2)])]).expect("insert");
    store.flush().expect("flush");
    let v1 = store.snapshot();
    assert_eq!(stored_run(&v1, 2, 1), Some((0, 2)));
    assert_eq!(stored_run(&v1, 5, 1), Some((2, 1)));
    assert_eq!(stored_run(&v1, 9, 1), None);

    // v2 in the memtable shadows the segment copy entirely.
    store.insert(&[doc(1, &[(7, 3)])]).expect("insert");
    let v2 = store.snapshot();
    assert_eq!(stored_run(&v2, 7, 1), Some((0, 3)));
    assert_eq!(
        stored_run(&v2, 2, 1),
        None,
        "the segment copy of term 2 is dead under the memtable"
    );

    // A tombstone hides every position; the pinned v2 still sees them.
    store.delete(DocId(1)).expect("delete");
    let v3 = store.snapshot();
    assert_eq!(stored_run(&v3, 7, 1), None);
    assert_eq!(stored_run(&v2, 7, 1), Some((0, 3)));

    // And on a multi-doc corpus split over a segment and the memtable, every
    // stored run is the one the documents themselves define.
    let store2 = SegmentStore::open(dir.join("agree"), policy()).expect("open");
    let docs: Vec<Document> = (0..40u32)
        .map(|id| doc(id, &[(id % 7, 1 + id % 3), (7 + id % 5, 2)]))
        .collect();
    store2.insert(&docs[..20]).expect("insert");
    store2.flush().expect("flush");
    store2.insert(&docs[20..]).expect("insert");
    let snap = store2.snapshot();
    for document in &docs {
        for term in 0..12u32 {
            let at = document.terms.iter().position(|&(t, _)| t == TermId(term));
            let canonical = at.map(|at| {
                let start: u32 = document.terms[..at].iter().map(|&(_, count)| count).sum();
                (start, document.terms[at].1)
            });
            assert_eq!(
                stored_run(&snap, term, document.id.0),
                canonical,
                "term {term} doc {:?}",
                document.id
            );
        }
    }
}
