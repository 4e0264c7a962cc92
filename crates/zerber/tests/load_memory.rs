//! The heap budget of a bulk load, held by measurement: a counting
//! `#[global_allocator]` (this test binary only) tracks the live heap
//! and its peak, and each load's peak above the live heap before the
//! call has to stay under a stated multiple of the batch's document
//! bytes (`Document` structs plus their term vectors).
//!
//! * **Through the runtime** (`ShardedSearch::bulk_load`, two
//!   in-process peers over segmented stores): the caller's batch is
//!   live before the call and not counted. On top of it sit one
//!   encoded `BulkLoad` frame per shard until its peer has decoded it,
//!   the decoded batch beside the lists its workers build, and then
//!   the segment body the lists are appended to, each freed once
//!   appended.
//! * **In the store** (`SegmentStore::bulk_load` handed an owned
//!   batch): the batch is live before the call and freed once the
//!   lists are built, before the body is laid out.
//! * **What the store keeps, and what reopening it takes**: the body
//!   of its segment file and a table of where each list's record lies,
//!   against the file's size.
//! * **What a restore takes** (`SegmentStore::install` handed an
//!   exported file set by value): each shipped buffer becomes the body
//!   of its segment, so above the live shipped set there is only the
//!   table of each list's record, against the shipped bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use zerber::{PostingBackend, SegmentPolicy, ShardedSearch, ZerberConfig};
use zerber_index::{DocId, Document, GroupId, TermId};
use zerber_obs::MetricsRegistry;
use zerber_segment::{BulkConfig, ScratchDir, SegmentStore};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counters
// are atomics and allocate nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    // A resized block counts at its new size only: the allocator may
    // move it, but the old block is gone when the call returns.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match new_size.checked_sub(layout.size()) {
            Some(more) => grow(more),
            None => shrink(layout.size() - new_size),
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The counters are process-wide; the two measurements take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs `load` and returns its heap peak above the live heap before
/// it, in bytes.
fn peak_above_live(load: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    load();
    PEAK.load(Ordering::Relaxed).saturating_sub(before)
}

/// `docs` seeded documents of 150 distinct terms each, drawn with a
/// skew toward small term ids from a 2 000-term vocabulary, so the
/// lists range from dense to a handful of postings.
fn corpus(docs: u32) -> Vec<Document> {
    let mut state = 0x10AD_3E30_u64;
    (0..docs)
        .map(|d| {
            let mut terms: BTreeMap<u32, u32> = BTreeMap::new();
            while terms.len() < 150 {
                let draw = zerber_field::splitmix64(&mut state);
                let uniform = (draw >> 11) as f64 / (1u64 << 53) as f64;
                let term = (uniform * uniform * 2_000.0) as u32;
                *terms.entry(term).or_insert(0) += 1 + (draw & 3) as u32;
            }
            let terms = terms.into_iter().map(|(t, c)| (TermId(t), c)).collect();
            Document::from_term_counts(DocId(d), GroupId(d % 4), terms)
        })
        .collect()
}

/// What the batch occupies on the heap.
fn document_bytes(docs: &[Document]) -> usize {
    let term = std::mem::size_of::<(TermId, u32)>();
    docs.iter()
        .map(|doc| std::mem::size_of::<Document>() + doc.terms.capacity() * term)
        .sum()
}

/// The runtime path. Both peers build at once, and whether their
/// builds peak together is up to the scheduler. The least of three
/// loads is what a load must hold: it read 2.8 × to 4.1 × the batch
/// over nine runs, and stays under 4.75 ×. A copy of the batch kept
/// for a retry, or a frame held through the peers' builds, adds a
/// batch each.
#[test]
fn a_runtime_bulk_load_holds_its_batch_once() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let docs = corpus(3_000);
    let bytes = document_bytes(&docs);
    let least = (0..3)
        .map(|_| {
            let dir = ScratchDir::new("load-memory");
            let config =
                ZerberConfig::default()
                    .with_peers(2)
                    .with_postings(PostingBackend::Segmented {
                        dir: dir.to_path_buf(),
                        compaction: SegmentPolicy::default(),
                    });
            let search = ShardedSearch::launch(&config, &[]).expect("valid config");
            let peak = peak_above_live(|| {
                let loaded = search.bulk_load(0, &docs).expect("both peers load");
                assert_eq!(loaded, docs.len());
            });
            assert_eq!(search.document_count(), docs.len());
            peak
        })
        .min()
        .expect("three loads");
    let multiple = least as f64 / bytes as f64;
    println!("runtime load: peak {least} B above live, {multiple:.2} x the batch ({bytes} B)");
    assert!(multiple < 4.75, "{multiple:.2} x the batch at the peak");
}

/// The store path, with one worker so the peak does not hang on
/// scheduling. The peak comes as the scan ends, with every list built
/// and each term's partial last block still buffered: 1.65 × the batch
/// above the live heap that held it, asserted under 1.81 ×. A batch
/// handed over by value is freed there, before the body is laid out.
#[test]
fn an_owned_batch_is_freed_before_the_write() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = ScratchDir::new("load-memory-store");
    let store = SegmentStore::open(dir.to_path_buf(), SegmentPolicy::default()).expect("opens");
    let docs = corpus(3_000);
    let count = docs.len();
    let bytes = document_bytes(&docs);
    let config = BulkConfig { workers: 1 };

    let peak = peak_above_live(|| {
        let stats = store.bulk_load(docs, config).expect("the load commits");
        assert_eq!(stats.docs, count);
    });
    let multiple = peak as f64 / bytes as f64;
    println!("store load: peak {peak} B above live, {multiple:.2} x the batch ({bytes} B)");
    assert_eq!(store.snapshot().live_doc_count(), count);
    assert!(multiple < 1.81, "{multiple:.2} x the batch at the peak");
}

/// What a store keeps of a load, and what reopening it takes: the
/// segment is held as the body of its file, so after a one-worker load
/// the store's live heap stays within 1.15 × its `disk_bytes()`, and
/// `open` peaks within 1.3 × the segment bytes above the live heap
/// before it — the body it reads, and a table of where each list's
/// record starts in it.
#[test]
fn a_store_holds_its_segment_once() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dir = ScratchDir::new("load-memory-kept");
    let store = SegmentStore::open(dir.to_path_buf(), SegmentPolicy::default()).expect("opens");
    let before = LIVE.load(Ordering::Relaxed);
    let docs = corpus(3_000);
    store
        .bulk_load(docs, BulkConfig { workers: 1 })
        .expect("the load commits");
    let kept = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let disk = store.disk_bytes();
    let segments = disk - store.wal_bytes();
    let kept_multiple = kept as f64 / disk as f64;
    println!("loaded store: keeps {kept} B live, {kept_multiple:.2} x its {disk} B on disk");
    drop(store);

    let peak = peak_above_live(|| {
        let reopened =
            SegmentStore::open(dir.to_path_buf(), SegmentPolicy::default()).expect("reopens");
        assert_eq!(reopened.snapshot().live_doc_count(), 3_000);
    });
    let open_multiple = peak as f64 / segments as f64;
    println!("reopen: peak {peak} B above live, {open_multiple:.2} x its {segments} B of segments");
    assert!(kept_multiple <= 1.15, "{kept_multiple:.2} x disk kept live");
    assert!(
        open_multiple <= 1.3,
        "{open_multiple:.2} x the segments at the peak"
    );
}

/// What a restore takes: a one-worker load's export, handed to
/// `install` by value. Each frame is checked where it lies and cut to
/// its body in the same buffer, which the installed segment keeps, and
/// no file is read back, so the peak above the live shipped set is the
/// table of where each list's record lies: 0.10 × the shipped bytes
/// (168 559 of 1 656 843 B), asserted under 0.112 ×. Staging the set
/// and then opening the directory reads every segment back while the
/// set is live: 1.10 × (1 825 578 B).
#[test]
fn a_restore_holds_each_shipped_segment_once() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let source_dir = ScratchDir::new("load-memory-source");
    let source =
        SegmentStore::open(source_dir.to_path_buf(), SegmentPolicy::default()).expect("opens");
    source
        .bulk_load(corpus(3_000), BulkConfig { workers: 1 })
        .expect("the load commits");
    let files = source.export_files().expect("exports");
    drop(source);
    let shipped: usize = files.iter().map(|(_, bytes)| bytes.len()).sum();
    let registry = MetricsRegistry::new();
    let target = ScratchDir::new("load-memory-restore");

    let peak = peak_above_live(|| {
        let restored = SegmentStore::install(
            target.to_path_buf(),
            files,
            SegmentPolicy::default(),
            &registry,
        )
        .expect("installs");
        assert_eq!(restored.snapshot().live_doc_count(), 3_000);
    });
    let multiple = peak as f64 / shipped as f64;
    println!("restore: peak {peak} B above live, {multiple:.2} x the {shipped} B shipped");
    assert!(
        multiple < 0.112,
        "{multiple:.2} x the shipped set at the peak"
    );
}
