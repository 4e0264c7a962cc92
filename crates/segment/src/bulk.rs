//! Offline bulk-build knobs and accounting.
//!
//! The bulk path lives on [`crate::SegmentStore::bulk_load`]; this
//! module holds its configuration and its returned accounting. The
//! pipeline, a term-partitioned inversion:
//!
//! ```text
//! documents ──sort by id, last copy wins──► one doc-ascending batch
//!   worker w of W (parallel): scan the whole batch; push each posting
//!     of a term t with t % W == w into t's block compressor
//!   the workers' disjoint lists, in term order ──► the body ──► seg-S.zseg
//!   writer lock: seal the frozen and active memtables, append the
//!     bulk segment, MANIFEST
//! ```
//!
//! Each posting is compressed once and never decoded: a list is final
//! when its worker's scan ends, so nothing is merged. However many
//! workers there are, one load writes exactly one file, byte for byte
//! the one a flush of the same batch writes, and commits exactly one
//! segment.
//!
//! What is resident: the batch until the lists are built (an owned
//! batch, `bulk_load(docs)`, is freed there; a borrowed one, `&docs`,
//! stays its caller's) beside the lists growing in the workers'
//! compressors, then the segment body, allocated at its exact size,
//! with each list freed once its record is appended. The body is what
//! the store keeps and the file it writes; the lists it serves are
//! views of it. A load through the peer runtime hands over the batch
//! it decoded.
//!
//! No WAL record is ever written: the MANIFEST swap is the atomic
//! commit point. A crash before it leaves nothing, or one unlisted
//! `.zseg` (or its `.tmp`), which the next open garbage-collects — the
//! load is all-or-nothing.

/// Tuning for one [`crate::SegmentStore::bulk_load`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct BulkConfig {
    /// Parallel workers, each owning a share of the vocabulary; `0`
    /// resolves to the available parallelism (capped at 8 so per-shard
    /// loads inside a many-peer deployment do not oversubscribe the
    /// machine).
    pub workers: usize,
}

impl BulkConfig {
    /// The effective worker count.
    pub(crate) fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    }
}

/// What one bulk load did — the bench harness derives docs/s from
/// these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkStats {
    /// Distinct documents loaded (after last-copy-wins dedup).
    pub docs: usize,
    /// Postings stored in the bulk segment.
    pub postings: usize,
}
