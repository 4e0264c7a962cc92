//! One background scheduler per process: eight `background: true`
//! stores, each driven past a background seal and a compaction, add no
//! threads beyond the scheduler's fixed pool. The test has a file of its
//! own, so no other test's threads come and go beside the count.

use std::time::{Duration, Instant};

use zerber_index::{DocId, Document, GroupId, SegmentPolicy, TermId};
use zerber_obs::MetricsRegistry;
use zerber_segment::{ScratchDir, SegmentStore};

/// The scheduler's pool: `WORKERS` in `src/background.rs`.
const WORKERS: usize = 3;

/// The threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .count()
}

#[test]
fn thread_count_does_not_grow_with_store_count() {
    let before = threads();
    let policy = SegmentPolicy {
        flush_postings: 4,
        max_segments: 1,
        background: true,
        sync_wal: false,
    };
    let dirs: Vec<ScratchDir> = (0..8).map(|_| ScratchDir::new("threads")).collect();
    let registries: Vec<MetricsRegistry> = dirs.iter().map(|_| MetricsRegistry::new()).collect();
    let stores: Vec<SegmentStore> = dirs
        .iter()
        .zip(&registries)
        .map(|(dir, registry)| SegmentStore::open_observed(dir, policy, registry).expect("open"))
        .collect();
    // Every batch reaches the threshold, so each freezes a table and
    // queues its seal; each seal queues a compaction.
    for round in 0..6u32 {
        for store in &stores {
            let docs: Vec<Document> = (0..4)
                .map(|d| {
                    Document::from_term_counts(
                        DocId(round * 4 + d),
                        GroupId(0),
                        vec![(TermId(d), 1)],
                    )
                })
                .collect();
            store.insert(&docs).expect("insert");
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    for (store, registry) in stores.iter().zip(&registries) {
        // Settled: nothing frozen or active, compacted down to the cap.
        while !(store.snapshot().delta_len() == 0
            && store.segment_count() == 1
            && registry
                .snapshot()
                .counter("zerber_segment_compactions_total")
                .is_some_and(|n| n > 0))
        {
            assert!(Instant::now() < deadline, "the scheduler settles {store:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let after = threads();
    assert!(
        after <= before + WORKERS,
        "{before} threads before 8 stores, {after} after"
    );
}
