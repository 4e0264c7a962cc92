//! A `background: false` store queues the jobs a production store
//! queues and runs them only when stepped. One fixed schedule of
//! writes and `step()`s, each followed by the same checks: a crossing
//! write leaves a frozen table beside one rotated log, a step taken
//! while a table is frozen seals it before any queued compaction, a
//! drained queue steps `Ok(false)`, and a copy of the directory taken
//! between any two actions reopens to every acknowledged batch.

use std::collections::BTreeMap;
use std::path::Path;

use zerber_index::{DocId, Document, GroupId, SegmentPolicy, TermId};
use zerber_segment::{ScratchDir, SegmentStore};

const TERMS: u32 = 5;

/// Live documents by id, with their sorted `(term, count)` pairs.
type Oracle = BTreeMap<u32, Vec<(u32, u32)>>;

/// Three distinct terms, ascending: each document weighs 3.
fn terms(id: u32) -> Vec<(u32, u32)> {
    vec![(0, 1 + id % 2), (1 + id % 3, 2), (4, 1)]
}

/// One action of the schedule, with what it must be seen to do.
enum Action {
    /// Insert these documents; the write must cross the threshold
    /// (freezing the active table) or not.
    Insert(&'static [u32], Write),
    /// Delete a document (weight 1); it crosses nothing here.
    Delete(u32),
    /// Run one queued job; it must be this one.
    Step(Ran),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Write {
    /// Folded into the active table, below the threshold or beside a
    /// frozen one.
    Folded,
    /// Froze the active table and rotated its log.
    Froze,
    /// Reached the active table's cap beside a frozen table nobody
    /// stepped: sealed that one where it stood, then froze.
    SealedAndFroze,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ran {
    /// Wrote the frozen table as a segment and deleted its log.
    Seal,
    /// Merged two segments into one.
    Compact,
    /// Ran a job that found nothing to do.
    Idle,
    /// Found no job: `Ok(false)`.
    Drained,
}

/// `flush_postings: 6` with three-term documents: two documents cross.
fn policy() -> SegmentPolicy {
    SegmentPolicy {
        flush_postings: 6,
        max_segments: 2,
        background: false,
        sync_wal: false,
    }
}

/// What the store shows without opening anything: its segments, its
/// rotated logs and the active log's size.
fn observe(store: &SegmentStore) -> (usize, usize, u64) {
    let rotated = std::fs::read_dir(store.dir())
        .expect("read store dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .filter(|name| name.to_string_lossy().starts_with("wal-"))
        .count();
    (store.segment_count(), rotated, store.wal_bytes())
}

/// A copy of the idle directory, reopened, against the oracle.
fn reopen_copy_matches(dir: &Path, oracle: &Oracle, when: &str) {
    let copy = ScratchDir::new("stepped-copy");
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let name = entry.expect("dir entry").file_name();
        std::fs::copy(dir.join(&name), copy.join(&name)).expect("copy a file");
    }
    let store = SegmentStore::open(&copy, policy()).expect("reopen the copy");
    let snapshot = store.snapshot();
    assert_eq!(snapshot.live_doc_count(), oracle.len(), "{when}");
    for term in 0..TERMS {
        let got: Vec<(u32, u32)> = snapshot
            .live_postings(TermId(term))
            .iter()
            .map(|entry| (entry.doc, entry.count))
            .collect();
        let want: Vec<(u32, u32)> = oracle
            .iter()
            .filter_map(|(&doc, terms)| {
                let &(_, count) = terms.iter().find(|&&(t, _)| t == term)?;
                Some((doc, count))
            })
            .collect();
        assert_eq!(got, want, "{when}: term {term}");
    }
}

#[test]
fn a_stepped_store_seals_before_it_compacts_and_every_idle_state_reopens() {
    use Action::{Delete, Insert, Step};
    let schedule = [
        Insert(&[0], Write::Folded),
        // Opening queued a compaction; this write queues a seal.
        Insert(&[1], Write::Froze),
        Step(Ran::Seal),
        Step(Ran::Idle), // the compaction: one segment is under the cap
        Step(Ran::Drained),
        Insert(&[2], Write::Folded),
        Delete(0),
        Insert(&[3], Write::Froze),
        Step(Ran::Seal), // two segments: the seal queued a compaction
        Insert(&[4, 5], Write::Froze),
        // Seal, then compaction: the seal takes the store over the cap.
        Step(Ran::Seal),
        Step(Ran::Compact),
        Step(Ran::Idle), // the compaction that merged queued another
        Step(Ran::Drained),
        // Nobody steps: the second crossing beside a frozen table
        // reaches the cap and seals it where it stands.
        Insert(&[6, 7], Write::Froze),
        Insert(&[1, 8], Write::Folded),
        Delete(4),
        Insert(&[9, 10], Write::SealedAndFroze),
        Step(Ran::Seal),
        Step(Ran::Compact),
        Step(Ran::Compact),
        Step(Ran::Idle),
        Step(Ran::Drained),
        Step(Ran::Drained),
    ];

    let dir = ScratchDir::new("stepped");
    let store = SegmentStore::open(&dir, policy()).expect("open");
    let mut oracle = Oracle::new();
    for (at, action) in schedule.iter().enumerate() {
        let (segments, rotated, _) = observe(&store);
        let when = format!("action {at}");
        match action {
            Insert(ids, expected) => {
                let docs: Vec<Document> = ids
                    .iter()
                    .map(|&id| {
                        let terms = terms(id).into_iter().map(|(t, c)| (TermId(t), c));
                        Document::from_term_counts(DocId(id), GroupId(0), terms.collect())
                    })
                    .collect();
                store.insert(&docs).expect("insert");
                oracle.extend(ids.iter().map(|&id| (id, terms(id))));
                let after = observe(&store);
                let seen = match after {
                    (s, 1, 0) if s == segments + 1 && rotated == 1 => Write::SealedAndFroze,
                    (s, 1, 0) if s == segments && rotated == 0 => Write::Froze,
                    (s, r, bytes) if s == segments && r == rotated && bytes > 0 => Write::Folded,
                    other => panic!("{when}: {other:?} after {:?}", (segments, rotated)),
                };
                assert_eq!(seen, *expected, "{when}");
                if seen != Write::Folded {
                    // The frozen table waits beside its one rotated log.
                    assert_eq!(store.snapshot().delta_len(), 1, "{when}");
                }
            }
            Delete(id) => {
                assert!(store.delete(DocId(*id)).expect("delete"), "{when}");
                oracle.remove(id);
                let (s, r, bytes) = observe(&store);
                assert_eq!((s, r), (segments, rotated), "{when}");
                assert!(bytes > 0, "{when}");
            }
            Step(expected) => {
                let ran = store.step().expect("step");
                let seen = match (ran, observe(&store)) {
                    (false, after) => {
                        assert_eq!(after.0, segments, "{when}");
                        Ran::Drained
                    }
                    (true, (s, 0, _)) if rotated == 1 && s == segments + 1 => Ran::Seal,
                    (true, (s, r, _)) if r == rotated && s + 1 == segments => Ran::Compact,
                    (true, (s, r, _)) if (s, r) == (segments, rotated) => Ran::Idle,
                    (true, other) => panic!("{when}: {other:?} after {:?}", (segments, rotated)),
                };
                assert_eq!(seen, *expected, "{when}");
                if rotated == 1 {
                    assert_eq!(seen, Ran::Seal, "{when}: a frozen table seals first");
                }
            }
        }
        reopen_copy_matches(&dir, &oracle, &when);
    }
    assert!(store.segment_count() <= policy().max_segments);
}
