//! Dropping a store while the background scheduler holds its jobs.
//! With tiny thresholds and many stores, seals and compactions are
//! queued and running when each store drops. Once `drop` returns, no
//! file of the store changes, and reopening it in the same process
//! serves exactly the acknowledged batches.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zerber_index::{DocId, Document, GroupId, SegmentPolicy, TermId};
use zerber_segment::{ScratchDir, SegmentSnapshot, SegmentStore};

const STORES: usize = 12;
const DOCS: u32 = 30;
const TERMS: u32 = 8;

/// Live documents by id, each with its sorted `(term, count)` pairs.
type Oracle = BTreeMap<u32, Vec<(u32, u32)>>;

/// Per term, the `(doc, count)` of every live posting.
fn oracle_image(oracle: &Oracle) -> Vec<Vec<(u32, u32)>> {
    (0..TERMS)
        .map(|term| {
            oracle
                .iter()
                .filter_map(|(&doc, terms)| {
                    let &(_, count) = terms.iter().find(|&&(t, _)| t == term)?;
                    Some((doc, count))
                })
                .collect()
        })
        .collect()
}

fn snapshot_image(snapshot: &SegmentSnapshot) -> Vec<Vec<(u32, u32)>> {
    (0..TERMS)
        .map(|term| {
            let entries = snapshot.live_postings(TermId(term));
            entries.iter().map(|e| (e.doc, e.count)).collect()
        })
        .collect()
}

/// Every file in `dir`, by name, with its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("list the store")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().expect("a file name");
            let bytes = std::fs::read(&path).expect("read a store file");
            (name.to_string_lossy().into_owned(), bytes)
        })
        .collect()
}

/// One seeded batch, applied to the store and, once acknowledged, to
/// its oracle: three inserts of one to three documents to every delete.
fn write(rng: &mut StdRng, store: &SegmentStore, oracle: &mut Oracle) {
    if rng.random_range(0..4u32) == 0 {
        let doc = rng.random_range(0..DOCS);
        store.delete(DocId(doc)).expect("delete");
        oracle.remove(&doc);
        return;
    }
    let docs: Vec<(u32, Vec<(u32, u32)>)> = (0..rng.random_range(1..4usize))
        .map(|_| {
            let mut terms: BTreeMap<u32, u32> = BTreeMap::new();
            for _ in 0..rng.random_range(1..4usize) {
                terms.insert(rng.random_range(0..TERMS), rng.random_range(1..4u32));
            }
            (rng.random_range(0..DOCS), terms.into_iter().collect())
        })
        .collect();
    let batch: Vec<Document> = docs
        .iter()
        .map(|(id, terms)| {
            let terms = terms.iter().map(|&(t, c)| (TermId(t), c)).collect();
            Document::from_term_counts(DocId(*id), GroupId(0), terms)
        })
        .collect();
    store.insert(&batch).expect("insert");
    oracle.extend(docs);
}

#[test]
fn no_file_changes_after_a_store_drops_mid_job() {
    let policy = SegmentPolicy {
        flush_postings: 3,
        max_segments: 1,
        background: true,
        sync_wal: false,
    };
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let dirs: Vec<ScratchDir> = (0..STORES)
            .map(|_| ScratchDir::new("drop-mid-job"))
            .collect();
        let stores: Vec<SegmentStore> = dirs
            .iter()
            .map(|dir| SegmentStore::open(dir, policy).expect("open"))
            .collect();
        let mut oracles = vec![Oracle::new(); STORES];
        for _ in 0..40 {
            for (store, oracle) in stores.iter().zip(&mut oracles) {
                write(&mut rng, store, oracle);
            }
        }
        // Drop each store while the others keep the workers busy, and
        // take its files the moment `drop` returns.
        let mut at_drop = Vec::new();
        for (store, dir) in stores.into_iter().zip(&dirs) {
            drop(store);
            at_drop.push(files(dir));
        }
        // Time for any job of a dropped store the scheduler still held.
        std::thread::sleep(Duration::from_millis(100));
        for ((dir, then), oracle) in dirs.iter().zip(&at_drop).zip(&oracles) {
            assert_eq!(&files(dir), then, "seed {seed}: a file changed after drop");
            let reopened = SegmentStore::open(dir, policy).expect("reopen");
            assert_eq!(
                snapshot_image(&reopened.snapshot()),
                oracle_image(oracle),
                "seed {seed}: the reopened store"
            );
        }
    }
}
