//! Offline bulk-build (SPIMI) knobs and accounting.
//!
//! The bulk path lives on [`crate::SegmentStore::bulk_load`]; this
//! module holds its configuration, its returned accounting, and the
//! crash-injection failpoints the recovery tests drive it with. The
//! pipeline:
//!
//! ```text
//! documents ──dedup (last copy wins)──► W worker slices
//!   worker w: RunBuilder ──(≥ run_postings)──► sealed run, in memory
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
//! No WAL record is ever written: the MANIFEST swap is the atomic
//! commit point. A crash before it leaves nothing, or one unlisted
//! `.zseg` (or its `.tmp`), which the next open garbage-collects — the
//! load is all-or-nothing.

use zerber_index::Document;

/// Tuning for one [`crate::SegmentStore::bulk_load`] call.
#[derive(Debug, Clone, Copy)]
pub struct BulkConfig {
    /// Parallel SPIMI workers; `0` resolves to the available
    /// parallelism (capped at 8 so per-shard loads inside a
    /// many-peer deployment do not oversubscribe the machine).
    pub workers: usize,
    /// A worker seals its current run once it holds this many
    /// postings (term-less documents count 1) — the bound on its
    /// unsealed builder. Sealed runs stay resident until the merge.
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

/// Keeps the last copy of every document id ("only the most recent
/// copy of the document"), preserving first-occurrence order — the
/// same batch semantics as the WAL path's `Memtable::apply`.
pub(crate) fn dedup_last(docs: &[Document]) -> Vec<&Document> {
    let mut last: std::collections::HashMap<u32, usize> =
        std::collections::HashMap::with_capacity(docs.len());
    for (i, doc) in docs.iter().enumerate() {
        last.insert(doc.id.0, i);
    }
    docs.iter()
        .enumerate()
        .filter(|(i, doc)| last[&doc.id.0] == *i)
        .map(|(_, doc)| doc)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_index::{DocId, GroupId, TermId};

    #[test]
    fn dedup_keeps_the_last_copy() {
        let doc = |id: u32, count: u32| {
            Document::from_term_counts(DocId(id), GroupId(0), vec![(TermId(0), count)])
        };
        let docs = vec![doc(1, 1), doc(2, 1), doc(1, 9)];
        let unique = dedup_last(&docs);
        assert_eq!(unique.len(), 2);
        assert_eq!(unique[0].id, DocId(2));
        assert_eq!(unique[1].id, DocId(1));
        assert_eq!(unique[1].terms[0].1, 9);
    }
}
