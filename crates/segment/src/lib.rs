//! Durable LSM-style posting storage for the Zerber reproduction.
//!
//! The paper's index is not a one-shot artifact: peers continuously
//! insert and delete document postings. The block-compressed store in
//! `zerber-postings` is a frozen snapshot; this crate supplies the
//! storage engine every shard peer serves from, which absorbs a *write
//! stream* and survives crashes:
//!
//! * `wal` — the checksummed write-ahead log: a batch is
//!   acknowledged only after its CRC'd record is on the log, and
//!   recovery stops at the first bad record across the logs and cuts
//!   it off before the next append, losing no acknowledged batch; a
//!   log is rotated when its memtable freezes and deleted once the
//!   segment holding its batches is listed,
//! * `memtable` — the one `Memtable` every acknowledged batch is
//!   folded into, newest op per document winning; it sits behind an
//!   `Arc`, so reader snapshots are pointer copies and a write copies
//!   it only while a snapshot still holds it,
//! * `segment` — immutable on-disk segments (`Segment`): per-term
//!   `zerber_postings::CompressedPostingList`s with their skip
//!   metadata and score maxima, the documents whose current version the segment
//!   defines, and absorbed tombstones — written atomically, and
//!   CRC-checked and every list proven by `parse` on load,
//! * [`bulk`] — the offline bulk-build knobs ([`BulkConfig`]): parallel
//!   workers, each owning a share of the vocabulary, compress every
//!   posting once straight into its list; the lists are the load's one
//!   segment, written once and registered through one atomic manifest
//!   swap, and no WAL is written on the offline path,
//! * `store` — the engine ([`SegmentStore`]): at the flush threshold a
//!   write freezes the memtable, and the process's one background
//!   scheduler (`background`, seals before compactions) seals it into
//!   a segment off the write path; size-balanced compaction bounds the
//!   segment count by merging the adjacent pair closest in size
//!   through the same streaming shadow-aware merge, garbage-collecting
//!   tombstones when a merge reaches the oldest segment, a `MANIFEST`
//!   names the live segment set atomically, and [`SegmentSnapshot`]
//!   implements `zerber_index::PostingStore` so the query evaluators
//!   and the sharded peer runtime serve from it unchanged.
//!
//! # Open → ingest → crash → recover
//!
//! ```
//! use zerber_index::{DocId, Document, GroupId, PostingStore, SegmentPolicy, TermId};
//! use zerber_segment::{ScratchDir, SegmentStore};
//!
//! let dir = ScratchDir::new("doctest"); // removed again when dropped
//! let policy = SegmentPolicy {
//!     flush_postings: 4, // tiny, to force a segment seal below
//!     ..SegmentPolicy::default()
//! };
//!
//! // Open an empty store and ingest live: an insert batch, then a
//! // delete. Each batch is journaled before it is acknowledged.
//! let store = SegmentStore::open(&dir, policy).unwrap();
//! let docs: Vec<Document> = (0..3)
//!     .map(|d| Document::from_term_counts(DocId(d), GroupId(0), vec![(TermId(7), 1 + d)]))
//!     .collect();
//! store.insert(&docs).unwrap(); // ≥ 4 postings → sealed into a segment
//! store.insert(&[Document::from_term_counts(DocId(9), GroupId(0), vec![(TermId(7), 5)])])
//!     .unwrap();
//! store.delete(DocId(0)).unwrap(); // tombstone, still in the WAL
//! assert_eq!(store.snapshot().document_frequency(TermId(7)), 3);
//!
//! // "Crash": drop the store with the latest batches only in the WAL,
//! // and tear the log mid-record as an interrupted write would.
//! drop(store);
//! let wal = dir.join("wal.log");
//! let mut bytes = std::fs::read(&wal).unwrap();
//! bytes.extend_from_slice(&[0x17, 0x00, 0x00, 0x00]); // torn partial record
//! std::fs::write(&wal, &bytes).unwrap();
//!
//! // Recovery replays every acknowledged batch and cuts the tail off.
//! let recovered = SegmentStore::open(&dir, policy).unwrap();
//! let snapshot = recovered.snapshot();
//! assert_eq!(snapshot.document_frequency(TermId(7)), 3); // docs 1, 2, 9
//! assert!(!snapshot.contains_doc(DocId(0)), "the delete survived");
//! assert!(snapshot.contains_doc(DocId(9)), "the unflushed insert survived");
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod background;
pub mod bulk;
pub(crate) mod error;
pub(crate) mod memtable;
pub(crate) mod segment;
pub(crate) mod store;
pub(crate) mod wal;

pub use bulk::BulkConfig;
pub use error::SegmentError;
pub use store::{SegmentSnapshot, SegmentStore};
/// The checksum of every durable byte range in this crate (the
/// workspace's one CRC-32, defined in `zerber-postings`).
pub use zerber_postings::crc;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Creates a unique empty directory under the system temp dir, so
/// every run stays hermetic.
///
/// The caller owns cleanup (`std::fs::remove_dir_all`); a leaked
/// directory under `$TMPDIR` is the worst failure mode. [`ScratchDir`]
/// is the same directory with the cleanup attached.
#[expect(
    clippy::expect_used,
    reason = "test and example scaffolding: without a writable temp dir nothing can run"
)]
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let path = std::env::temp_dir().join(format!(
        "zerber-segment-{tag}-{}-{}-{nanos}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::create_dir_all(&path).expect("temp dir is writable");
    path
}

/// A [`scratch_dir`] that removes itself — contents included — when
/// dropped, a panicking test's unwind included. Shared by this crate's
/// tests, the repository's persistence tests and examples, and the
/// peer runtime's ephemeral shard stores.
///
/// Drop every [`SegmentStore`] opened underneath *before* the guard
/// (declare the guard first, or as the last field): a store's
/// background jobs write into the directory until it drops.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh directory named after `tag`.
    pub fn new(tag: &str) -> Self {
        Self(scratch_dir(tag))
    }
}

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

/// So `SegmentStore::open(&dir, ..)` reads the same with a guard as
/// with a plain path.
impl From<&ScratchDir> for PathBuf {
    fn from(dir: &ScratchDir) -> PathBuf {
        dir.0.clone()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
