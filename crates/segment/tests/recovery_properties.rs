//! Property: reopening after a crash that truncated the WAL or
//! corrupted its tail at an *arbitrary byte offset* recovers exactly
//! the acknowledged prefix — every batch whose record survived intact,
//! none lost, no partial batch ever applied — on top of everything
//! already sealed into segments.

use std::collections::BTreeMap;

use proptest::prelude::*;

use zerber_index::{DocId, Document, GroupId, PostingStore, SegmentPolicy, TermId};
use zerber_segment::{ScratchDir, SegmentStore};

/// One batch: inserts and deletes, applied atomically.
#[derive(Debug, Clone)]
enum Batch {
    Insert(Vec<(u32, Vec<(u32, u32)>)>),
    Delete(u32),
}

/// A batch followed by whether the store flushes right after it.
fn arb_step() -> impl Strategy<Value = (Batch, bool)> {
    let doc = (
        0u32..40,
        prop::collection::vec((0u32..15, 1u32..4), 1..4).prop_map(|mut terms| {
            terms.sort_by_key(|&(t, _)| t);
            terms.dedup_by_key(|&mut (t, _)| t);
            terms
        }),
    );
    let doc2 = (
        0u32..40,
        prop::collection::vec((0u32..15, 1u32..4), 1..4).prop_map(|mut terms| {
            terms.sort_by_key(|&(t, _)| t);
            terms.dedup_by_key(|&mut (t, _)| t);
            terms
        }),
    );
    // Uniform prop_oneof! in the vendored stub: a repeated arm weights
    // inserts over deletes.
    let batch = prop_oneof![
        prop::collection::vec(doc, 1..4).prop_map(Batch::Insert),
        prop::collection::vec(doc2, 1..4).prop_map(Batch::Insert),
        (0u32..40).prop_map(Batch::Delete),
    ];
    // Flush after ~1 in 5 batches.
    (batch, (0u32..5).prop_map(|v| v == 0))
}

fn materialize(id: u32, terms: &[(u32, u32)]) -> Document {
    Document::from_term_counts(
        DocId(id),
        GroupId(0),
        terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
    )
}

fn apply(oracle: &mut BTreeMap<u32, Vec<(u32, u32)>>, batch: &Batch) {
    match batch {
        Batch::Insert(docs) => {
            for (id, terms) in docs {
                oracle.insert(*id, terms.clone());
            }
        }
        Batch::Delete(id) => {
            oracle.remove(id);
        }
    }
}

fn check_against(
    snapshot: &zerber_segment::SegmentSnapshot,
    oracle: &BTreeMap<u32, Vec<(u32, u32)>>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(snapshot.live_doc_count(), oracle.len());
    for id in 0..40u32 {
        prop_assert_eq!(
            snapshot.contains_doc(DocId(id)),
            oracle.contains_key(&id),
            "doc {}",
            id
        );
    }
    for term in 0..15u32 {
        let df = oracle
            .values()
            .filter(|terms| terms.iter().any(|&(t, _)| t == term))
            .count();
        prop_assert_eq!(
            snapshot.document_frequency(TermId(term)),
            df,
            "term {}",
            term
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn damaged_wal_tails_lose_nothing_acknowledged(
        steps in prop::collection::vec(arb_step(), 1..15),
        damage_at in 0.0f64..1.0,
        flip in any::<bool>(),
    ) {
        let dir = ScratchDir::new("recovery");
        let policy = SegmentPolicy {
            flush_postings: usize::MAX, // flush only at explicit points
            max_segments: 2,
            background: false,
            sync_wal: false,
        };
        let store = SegmentStore::open(&dir, policy).expect("open");

        // `sealed` = net state durable in segments; `tail` = batches
        // whose records live in the WAL, with their record end offsets.
        let mut sealed: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
        let mut tail: Vec<(Batch, u64)> = Vec::new();
        let mut wal_end = 0u64;
        for (batch, flush_after) in &steps {
            match batch {
                Batch::Insert(docs) => {
                    let docs: Vec<Document> =
                        docs.iter().map(|(id, t)| materialize(*id, t)).collect();
                    store.insert(&docs).expect("insert");
                }
                Batch::Delete(id) => {
                    store.delete(DocId(*id)).expect("delete");
                }
            }
            wal_end = store.wal_bytes();
            tail.push((batch.clone(), wal_end));
            if *flush_after {
                store.flush().expect("flush");
                store.compact().expect("compact");
                for (batch, _) in tail.drain(..) {
                    apply(&mut sealed, &batch);
                }
                wal_end = 0;
            }
        }
        prop_assert_eq!(store.wal_bytes(), wal_end);
        drop(store);

        // Crash: damage the WAL at an arbitrary byte offset — either
        // truncate there (a torn write) or flip a bit (media damage).
        let wal_path = dir.join("wal.log");
        let bytes = std::fs::read(&wal_path).unwrap_or_default();
        let at = ((bytes.len() as f64) * damage_at) as usize;
        let surviving = |cut: u64| -> BTreeMap<u32, Vec<(u32, u32)>> {
            let mut state = sealed.clone();
            for (batch, end) in &tail {
                if *end <= cut {
                    apply(&mut state, batch);
                }
            }
            state
        };
        if !bytes.is_empty() {
            if flip {
                let mut damaged = bytes.clone();
                let at = at.min(bytes.len() - 1);
                damaged[at] ^= 0x20;
                std::fs::write(&wal_path, &damaged).expect("write damage");
            } else {
                std::fs::write(&wal_path, &bytes[..at]).expect("truncate");
            }
        }

        let reopened = SegmentStore::open(&dir, policy).expect("reopen never fails on WAL damage");
        let expected = if bytes.is_empty() {
            sealed.clone()
        } else if flip {
            // Bit flip at `at`: records entirely before `at` must
            // survive; the snapshot may not contain *more* batches
            // than were written (no fabricated state), which the
            // prefix check below captures for the surviving set.
            surviving(at.min(bytes.len() - 1) as u64)
        } else {
            surviving(at as u64)
        };
        check_against(&reopened.snapshot(), &expected)?;

        // And the recovered store keeps working: ingest after recovery.
        reopened
            .insert(&[materialize(39, &[(14, 3)])])
            .expect("post-recovery insert");
        prop_assert!(reopened.snapshot().contains_doc(DocId(39)));
    }
}

/// Every byte of a small store's `wal.log` — three batches, the second
/// a delete — damaged under three masks: the reopen never panics and
/// recovers exactly the batches whose records lie wholly before the
/// damaged byte.
#[test]
fn every_damaged_wal_byte_recovers_the_prefix_before_it() {
    let dir = ScratchDir::new("recovery-every-byte");
    let policy = SegmentPolicy {
        flush_postings: usize::MAX,
        max_segments: 2,
        background: false,
        sync_wal: false,
    };
    let batches = [
        Batch::Insert(vec![(1, vec![(0, 2), (3, 1)]), (2, vec![(3, 3)])]),
        Batch::Delete(1),
        Batch::Insert(vec![(4, vec![(0, 1), (14, 2)])]),
    ];
    // Each batch with the offset its record ends at.
    let mut ends = Vec::new();
    let store = SegmentStore::open(&dir, policy).expect("open");
    for batch in &batches {
        match batch {
            Batch::Insert(docs) => {
                let docs: Vec<Document> = docs.iter().map(|(id, t)| materialize(*id, t)).collect();
                store.insert(&docs).expect("insert");
            }
            Batch::Delete(id) => assert!(store.delete(DocId(*id)).expect("delete")),
        }
        ends.push(store.wal_bytes());
    }
    drop(store);
    let wal_path = dir.join("wal.log");
    let bytes = std::fs::read(&wal_path).expect("the log");
    assert_eq!(bytes.len() as u64, ends[2]);
    for at in 0..bytes.len() {
        let mut expected = BTreeMap::new();
        for (batch, &end) in batches.iter().zip(&ends) {
            if end <= at as u64 {
                apply(&mut expected, batch);
            }
        }
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut damaged = bytes.clone();
            damaged[at] ^= mask;
            std::fs::write(&wal_path, &damaged).expect("write damage");
            let reopened = std::panic::catch_unwind(|| SegmentStore::open(&dir, policy))
                .unwrap_or_else(|_| panic!("byte {at} ^ {mask:#04x}: the reopen panicked"))
                .expect("reopen never fails on WAL damage");
            if let Err(error) = check_against(&reopened.snapshot(), &expected) {
                panic!("byte {at} ^ {mask:#04x}: {error:?}");
            }
        }
    }
}
