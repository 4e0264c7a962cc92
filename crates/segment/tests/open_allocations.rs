//! Opening a store makes no allocation per list: each list is proven
//! where its record lies in the segment file, with stack scratch
//! (`CompressedPostingList::parse`), and kept as a view of it. A
//! counting `#[global_allocator]` (this test binary only) counts the
//! allocations the opening thread makes while it opens a store of 50
//! single-posting lists and one of 5 000, each written by one bulk
//! load; the two counts differ by at most a small constant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zerber_index::{DocId, Document, GroupId, SegmentPolicy, TermId};
use zerber_segment::{BulkConfig, ScratchDir, SegmentStore};

thread_local! {
    /// Whether this thread's allocations are being counted, and how
    /// many it has made since counting began.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    if COUNTING.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
    }
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counters
// are const-initialised thread-locals without destructors and
// allocate nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn policy() -> SegmentPolicy {
    SegmentPolicy {
        background: false,
        ..SegmentPolicy::default()
    }
}

/// The allocations opening a store of `lists` single-posting lists
/// makes: one bulk load of `lists` documents, each holding a term of
/// its own, writes its one segment; the store is dropped and opened
/// again.
fn open_allocations(lists: u32) -> usize {
    let dir = ScratchDir::new("open-allocations");
    let docs: Vec<Document> = (0..lists)
        .map(|i| Document::from_term_counts(DocId(i), GroupId(0), vec![(TermId(i), 1)]))
        .collect();
    let store = SegmentStore::open(&dir, policy()).expect("a fresh store opens");
    let loaded = store
        .bulk_load(docs, BulkConfig { workers: 1 })
        .expect("the load commits");
    assert_eq!(loaded.postings, lists as usize);
    drop(store);
    ALLOCATIONS.set(0);
    COUNTING.set(true);
    let opened = SegmentStore::open(&dir, policy());
    COUNTING.set(false);
    let store = opened.expect("the loaded store opens");
    assert_eq!(store.snapshot().live_doc_count(), lists as usize);
    ALLOCATIONS.get()
}

#[test]
fn opening_a_store_makes_no_allocation_per_list() {
    let (few, many) = (open_allocations(50), open_allocations(5_000));
    assert!(
        many.abs_diff(few) <= 8,
        "opening 50 lists made {few} allocations, 5 000 made {many}"
    );
}
