//! No file makes `SegmentStore::open` or `SegmentStore::install`
//! allocate for a count its bytes cannot back. Segments and MANIFESTs
//! arrive from other peers through `install`, behind a CRC their sender
//! computed, and a log record's CRC is as easy to forge. So for every
//! counted field —
//! a segment's live documents, tombstones and terms, a MANIFEST's
//! names, a log record's operations and an insert's terms — a
//! CRC-valid file that declares 2^32 − 1 entries and carries none must
//! fail closed: a segment or a MANIFEST opens as `Corrupt`, and a log
//! record is a torn tail, applying nothing; a segment or a MANIFEST
//! shipped to `install` is `Corrupt` too. No single allocation made
//! while opening or installing it may exceed what an empty store's
//! open makes plus a small multiple of the file's size. A counting
//! `#[global_allocator]` (this test binary only) records the largest
//! allocation the opening thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use zerber_index::SegmentPolicy;
use zerber_obs::MetricsRegistry;
use zerber_segment::crc::crc32;
use zerber_segment::{ScratchDir, SegmentError, SegmentStore};

thread_local! {
    /// Whether this thread's allocations are being measured, and the
    /// largest one since measuring began.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if MEASURING.get() {
        LARGEST.set(LARGEST.get().max(bytes));
    }
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counters
// are const-initialised thread-locals without destructors and
// allocate nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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

/// Opens the store in `dir` and returns the outcome, with the largest
/// single allocation made meanwhile.
fn open_measured(dir: &Path) -> (Result<SegmentStore, SegmentError>, usize) {
    LARGEST.set(0);
    MEASURING.set(true);
    let opened = SegmentStore::open(dir, policy());
    MEASURING.set(false);
    (opened, LARGEST.get())
}

/// Installs `files` into a fresh directory and returns the outcome,
/// with the largest single allocation made meanwhile.
fn install_measured(files: &Files) -> (Result<SegmentStore, SegmentError>, usize) {
    let dir = ScratchDir::new("alloc-install");
    let registry = MetricsRegistry::new();
    let files = files
        .iter()
        .map(|(name, file)| (name.to_string(), file.clone()))
        .collect();
    LARGEST.set(0);
    MEASURING.set(true);
    let installed = SegmentStore::install(&dir, files, policy(), &registry);
    MEASURING.set(false);
    (installed, LARGEST.get())
}

/// `body` in the frame segments and MANIFESTs share: magic "ZSEG",
/// version 4, body length, CRC-32 of the body, body.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut file = Vec::new();
    file.extend_from_slice(&0x5A53_4547u32.to_le_bytes());
    file.extend_from_slice(&4u32.to_le_bytes());
    file.extend_from_slice(&(body.len() as u64).to_le_bytes());
    file.extend_from_slice(&crc32(body).to_le_bytes());
    file.extend_from_slice(body);
    file
}

/// A MANIFEST body: `next_seq`, then each name behind its `u16` length.
fn manifest(names: &[&str]) -> Vec<u8> {
    let mut body = 2u64.to_le_bytes().to_vec();
    body.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for name in names {
        body.extend_from_slice(&(name.len() as u16).to_le_bytes());
        body.extend_from_slice(name.as_bytes());
    }
    body
}

/// A log record: length, CRC-32 of the payload, payload.
fn record(payload: &[u8]) -> Vec<u8> {
    let mut record = (payload.len() as u32).to_le_bytes().to_vec();
    record.extend_from_slice(&crc32(payload).to_le_bytes());
    record.extend_from_slice(payload);
    record
}

/// Little-endian `u32`s, concatenated.
fn words(values: &[u32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

const MAX: u32 = u32::MAX;

/// A store directory's files, by name.
type Files = Vec<(&'static str, Vec<u8>)>;

#[test]
fn no_declared_count_allocates_beyond_its_bytes() {
    // What opening costs with nothing to decode.
    let empty = ScratchDir::new("alloc-empty");
    let (opened, floor) = open_measured(&empty);
    drop(opened.expect("an empty store opens"));

    const SEGMENT: &str = "seg-000001.zseg";
    // Segment bodies: term slots, live table, tombstone table, then
    // the term count and its records.
    let segments = [
        ("segment live documents", words(&[0, MAX])),
        ("segment tombstones", words(&[0, 0, MAX])),
        ("segment terms", words(&[0, 0, 0, MAX])),
    ];
    let mut cases: Vec<(&str, Files)> = segments
        .into_iter()
        .map(|(what, body)| {
            let files = vec![
                ("MANIFEST.zman", framed(&manifest(&[SEGMENT]))),
                (SEGMENT, framed(&body)),
            ];
            (what, files)
        })
        .collect();
    let mut names = manifest(&[]);
    names[8..12].copy_from_slice(&MAX.to_le_bytes());
    cases.push(("manifest names", vec![("MANIFEST.zman", framed(&names))]));
    // Log payloads: an operation count, then per insert a tag, the
    // document, its length and a term count.
    let operations = record(&words(&[MAX]));
    cases.push(("log operations", vec![("wal.log", operations)]));
    let mut insert = words(&[1]);
    insert.push(0x01);
    insert.extend_from_slice(&words(&[7, 3, MAX]));
    cases.push(("log insert terms", vec![("wal.log", record(&insert))]));

    for (what, files) in cases {
        let dir = ScratchDir::new("alloc-hostile");
        let mut bytes = 0;
        for (name, file) in &files {
            std::fs::write(dir.join(name), file).expect("stage a file");
            bytes += file.len();
        }
        let mut outcomes = vec![("open", open_measured(&dir))];
        // Logs never ship: only a segment or a MANIFEST is installed.
        if !what.starts_with("log") {
            outcomes.push(("install", install_measured(&files)));
        }
        for (how, (opened, largest)) in outcomes {
            match opened {
                // Refused for its count, not for a frame version a
                // format bump left behind.
                Err(SegmentError::Corrupt { reason, .. }) if !what.starts_with("log") => {
                    assert_ne!(reason, "unsupported version", "{what} ({how})");
                }
                Ok(store) if what.starts_with("log") => {
                    assert_eq!(store.snapshot().live_doc_count(), 0, "{what}");
                }
                other => panic!("{what} ({how}): fails closed, got {other:?}"),
            }
            let limit = floor + 16 * bytes;
            assert!(
                largest <= limit,
                "{what} ({how}): a {bytes}-byte store allocated {largest} bytes at once (limit {limit})"
            );
        }
    }
}
