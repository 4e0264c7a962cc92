//! Property: with the flusher and the compactor running
//! (`background: true`) and a tiny flush threshold — so tables freeze,
//! seal and merge all the time — every snapshot a reader takes while
//! one writer inserts and deletes is the state of *some* acknowledged
//! prefix of the writer's batches: its live postings and its query
//! cursors equal that prefix's oracle. The final state, and the state
//! after a reopen, equal the whole history's.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zerber_index::cursor::BlockCursor;
use zerber_index::{DocId, Document, GroupId, PostingStore, SegmentPolicy, TermId};
use zerber_obs::MetricsRegistry;
use zerber_postings::{CompressedBlockCursor, RawEntry};
use zerber_segment::{ScratchDir, SegmentSnapshot, SegmentStore};

const DOCS: u32 = 40;
const TERMS: u32 = 12;

/// Live documents by id, each with its sorted `(term, count)` pairs.
type Oracle = BTreeMap<u32, Vec<(u32, u32)>>;

#[derive(Debug, Clone)]
enum Batch {
    Insert(Vec<(u32, Vec<(u32, u32)>)>),
    Delete(u32),
}

/// A seeded history: three inserts of one to three documents to every
/// delete.
fn history(seed: u64, len: usize) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.random_range(0..4u32) == 0 {
                return Batch::Delete(rng.random_range(0..DOCS));
            }
            let docs = (0..rng.random_range(1..4usize))
                .map(|_| {
                    let mut terms: BTreeMap<u32, u32> = BTreeMap::new();
                    for _ in 0..rng.random_range(1..4usize) {
                        terms.insert(rng.random_range(0..TERMS), rng.random_range(1..4u32));
                    }
                    (rng.random_range(0..DOCS), terms.into_iter().collect())
                })
                .collect();
            Batch::Insert(docs)
        })
        .collect()
}

fn fold(oracle: &mut Oracle, batch: &Batch) {
    match batch {
        Batch::Insert(docs) => oracle.extend(docs.iter().cloned()),
        Batch::Delete(id) => {
            oracle.remove(id);
        }
    }
}

/// What a reader compares: per term, the live postings and the
/// `(doc, score bits, positions)` a cursor of weight 1.5 walks.
type Image = Vec<(Vec<RawEntry>, Vec<(u32, u64, (u32, u32))>)>;

/// Walks a cursor to its end.
fn walk(cursor: &mut dyn BlockCursor) -> Vec<(u32, u64, (u32, u32))> {
    let mut walked = Vec::new();
    while !cursor.at_end() {
        let Some((doc, score)) = cursor.materialize() else {
            break;
        };
        walked.push((doc.0, score.to_bits(), cursor.positions()));
        cursor.step();
    }
    walked
}

const WEIGHT: f64 = 1.5;

fn oracle_image(oracle: &Oracle) -> Image {
    (0..TERMS)
        .map(|term| {
            let entries: Vec<RawEntry> = oracle
                .iter()
                .filter_map(|(&doc, terms)| {
                    let at = terms.iter().position(|&(t, _)| t == term)?;
                    Some(RawEntry {
                        doc,
                        count: terms[at].1,
                        doc_length: terms.iter().map(|&(_, c)| c).sum(),
                        pos: terms[..at].iter().map(|&(_, c)| c).sum(),
                    })
                })
                .collect();
            let walked = walk(&mut CompressedBlockCursor::decoded(&entries, WEIGHT));
            (entries, walked)
        })
        .collect()
}

fn snapshot_image(snapshot: &SegmentSnapshot) -> Image {
    (0..TERMS)
        .map(|term| {
            let entries = snapshot.live_postings(TermId(term));
            let mut cursors = snapshot.query_cursors(&[(TermId(term), WEIGHT)]);
            (entries, walk(&mut *cursors[0]))
        })
        .collect()
}

fn apply(store: &SegmentStore, batch: &Batch) {
    match batch {
        Batch::Insert(docs) => {
            let docs: Vec<Document> = docs
                .iter()
                .map(|(id, terms)| {
                    let terms = terms.iter().map(|&(t, c)| (TermId(t), c)).collect();
                    Document::from_term_counts(DocId(*id), GroupId(0), terms)
                })
                .collect();
            store.insert(&docs).expect("insert");
        }
        Batch::Delete(id) => {
            store.delete(DocId(*id)).expect("delete");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn every_snapshot_is_an_acknowledged_prefix(seed in any::<u64>()) {
        let batches = history(seed, 240);
        // The image of every prefix, the empty one first.
        let mut oracle = Oracle::new();
        let mut prefixes = vec![oracle_image(&oracle)];
        for batch in &batches {
            fold(&mut oracle, batch);
            prefixes.push(oracle_image(&oracle));
        }

        let dir = ScratchDir::new("concurrent");
        let policy = SegmentPolicy {
            flush_postings: 5,
            max_segments: 2,
            background: true,
            sync_wal: false,
        };
        let registry = MetricsRegistry::new();
        let store = SegmentStore::open_observed(&dir, policy, &registry).expect("open");
        // Batches acknowledged so far: a snapshot taken between two
        // reads of it sees a prefix from the first read to one past the
        // second (a batch folds in before its call returns).
        let acked = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let finished = done.load(Ordering::Acquire);
                    let lo = acked.load(Ordering::Acquire);
                    let snapshot = store.snapshot();
                    let hi = (acked.load(Ordering::Acquire) + 1).min(batches.len());
                    let image = snapshot_image(&snapshot);
                    assert!(
                        (lo..=hi).any(|k| prefixes[k] == image),
                        "a snapshot taken between batches {lo} and {hi} is no prefix"
                    );
                    if finished {
                        break;
                    }
                });
            }
            for batch in &batches {
                apply(&store, batch);
                acked.fetch_add(1, Ordering::Release);
            }
            done.store(true, Ordering::Release);
        });

        let full = &prefixes[batches.len()];
        prop_assert!(&snapshot_image(&store.snapshot()) == full, "the final state");
        drop(store);
        let seals = registry.snapshot().histogram("zerber_segment_flush_ns").map_or(0, |h| h.count);
        prop_assert!(seals > 1, "the history froze and sealed tables: {}", seals);
        let reopened = SegmentStore::open(&dir, policy).expect("reopen");
        prop_assert!(&snapshot_image(&reopened.snapshot()) == full, "after the reopen");
    }
}
