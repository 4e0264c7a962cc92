//! Offline bulk-build (SPIMI) knobs and accounting.
//!
//! The bulk path lives on [`crate::SegmentStore::bulk_load`]; this
//! module holds its configuration, its returned accounting, and the
//! crash-injection failpoints the recovery tests drive it with. The
//! pipeline:
//!
//! ```text
//! documents ──sort by id, last copy wins──► W doc-ascending slices
//!   worker w: Memtable ──(≥ run_postings)──► sealed run, in memory
//!             (a segment image: compressed lists + skip metadata)
//!   one k-way merge_streaming of every run ──► seg-S.zseg, written once
//!                                              (a lone run is the image)
//!   writer lock: flush memtable, append the bulk segment, MANIFEST
//! ```
//!
//! The workers parallelize run building only: however many there are,
//! one load writes exactly one file and commits exactly one segment,
//! so a bulk-loaded term is read by one cursor rather than a shadowed
//! merge of the load's own doc-disjoint parts.
//!
//! What is resident: the batch until every run is sealed (an owned
//! batch, `bulk_load(docs)`, is freed there; a borrowed one, `&docs`,
//! stays its caller's), the runs until the merge, then the merged
//! image and its serialised body. A load through the peer runtime
//! hands over the batch it decoded, so the merge reuses its memory.
//!
//! No WAL record is ever written: the MANIFEST swap is the atomic
//! commit point. A crash before it leaves nothing, or one unlisted
//! `.zseg` (or its `.tmp`), which the next open garbage-collects — the
//! load is all-or-nothing.

/// Tuning for one [`crate::SegmentStore::bulk_load`] call.
#[derive(Debug, Clone, Copy)]
pub struct BulkConfig {
    /// Parallel SPIMI workers; `0` resolves to the available
    /// parallelism (capped at 8 so per-shard loads inside a
    /// many-peer deployment do not oversubscribe the machine).
    pub workers: usize,
    /// A worker seals its memtable once it holds this many postings
    /// (term-less documents count 1) — the bound on its unsealed
    /// memtable. Sealed runs stay resident until the merge.
    pub run_postings: usize,
}

impl Default for BulkConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            run_postings: 1 << 20,
        }
    }
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

/// What one bulk load did — the bench harness derives docs/s and the
/// bulk share of write amplification from these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkStats {
    /// Distinct documents loaded (after last-copy-wins dedup).
    pub docs: usize,
    /// Postings stored in the bulk segment.
    pub postings: usize,
    /// Sorted runs the workers sealed.
    pub runs: usize,
    /// How many bytes the merge phase wrote (a lone run is written
    /// once, unmerged, and costs nothing here).
    pub merge_bytes: u64,
}

/// Crash-injection points for the recovery tests: the bulk build
/// returns early *as if the process died* at the named boundary,
/// leaving exactly the on-disk state a real crash would. Hidden from
/// docs; not part of the stable API.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkFailpoint {
    /// Die once the segment file is written (end of phase 2, nothing
    /// registered): the directory holds one unlisted `.zseg`.
    AfterMerge,
    /// Die with the memtable sealed under the writer lock, just before
    /// the bulk segment's MANIFEST swap — the last moment the load
    /// must be invisible.
    BeforeManifest,
}
