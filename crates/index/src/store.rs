//! Read access to posting-list storage, and where a deployment keeps it.
//!
//! Ranked reads want a block-compressed representation (doc-id deltas
//! and bit-packed counts, see the `zerber-postings` crate) instead of
//! the index's `Vec<Posting>` lists, so read access is abstracted
//! behind [`PostingStore`]: an immutable, term-addressed view of the
//! posting data that the in-memory compressed store and the durable
//! segment snapshots implement.
//!
//! The mutable [`crate::InvertedIndex`] remains the build/update
//! surface of the single-node paths; a store is a frozen snapshot of
//! it. [`PostingBackend`] names *where* a deployment's shard stores
//! live, so configuration layers (the `zerber` facade, the bench
//! harness) can say so without depending on the storage engine.

use crate::cursor::BlockCursor;
use crate::postings::Posting;
use crate::types::TermId;

/// Where a deployment's shard peers keep their posting stores.
///
/// A deployment setting, not an engine choice: every shard replica is
/// served from the `zerber-segment` LSM store — a WAL-journaled
/// memtable over immutable block-compressed segments (bit-packed doc
/// gaps, counts, lengths and positions, per-block skip metadata) with
/// compaction — so live inserts and deletes cost their own postings.
/// The variants differ in where the files live and how long.
///
/// Not `Copy`: a directory is named.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PostingBackend {
    /// Under a scratch directory each hosting peer service creates
    /// below the system temp dir and removes when it is dropped, with
    /// [`SegmentPolicy::default`]: nothing to configure, nothing
    /// outlives the deployment.
    #[default]
    Ephemeral,
    /// Under a directory the caller names and keeps: the store
    /// survives a crash and can be reopened with
    /// `zerber_segment::SegmentStore::open`.
    Segmented {
        /// Root directory of the store. Multi-shard deployments create
        /// one `peer-<p>-shard-<s>` subdirectory per *hosted* replica
        /// underneath it (a peer never creates directories for shards
        /// it does not host).
        dir: std::path::PathBuf,
        /// Flush and compaction tuning.
        compaction: SegmentPolicy,
    },
}

/// Flush/compaction tuning of the segment store. Defined here (and
/// not in `zerber-segment`) so configuration layers can name it without
/// depending on the storage engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentPolicy {
    /// Seal the memtable into an on-disk segment once it holds at
    /// least this many postings. Must be ≥ 1.
    pub flush_postings: usize,
    /// Merge segments whenever more than this many exist (the adjacent
    /// pair closest in size, repeatedly, down to this count). Must be
    /// ≥ 1.
    pub max_segments: usize,
    /// Who runs the seals and compactions a store queues: the
    /// process's background scheduler (`true`), or the caller of
    /// `SegmentStore::step()`, one job at a time (`false`;
    /// deterministic, used by tests). A store nobody steps still seals
    /// at the active table's cap and compacts on `compact()`.
    pub background: bool,
    /// `fsync` the WAL after every acknowledged batch. Durability
    /// against machine crashes costs one disk sync per batch; process
    /// crashes are covered either way.
    pub sync_wal: bool,
}

impl Default for SegmentPolicy {
    fn default() -> Self {
        Self {
            flush_postings: 64 * 1024,
            max_segments: 4,
            background: true,
            sync_wal: false,
        }
    }
}

/// Read-only, term-addressed access to posting data.
///
/// Implementations must present each term's postings in strictly
/// increasing document-id order, matching [`crate::PostingList`] iteration.
pub trait PostingStore {
    /// Number of term slots (upper bound on distinct terms).
    fn term_count(&self) -> usize;

    /// Document frequency of a term (0 when unknown).
    fn document_frequency(&self, term: TermId) -> usize;

    /// Iterates a term's postings in document-id order (empty when the
    /// term is unknown).
    fn postings(&self, term: TermId) -> Box<dyn Iterator<Item = Posting> + '_>;

    /// Total posting elements across all terms.
    fn total_postings(&self) -> usize {
        (0..self.term_count())
            .map(|t| self.document_frequency(TermId(t as u32)))
            .sum()
    }

    /// Approximate heap footprint of the posting payload in bytes —
    /// the storage-accounting hook for the Section 7.2/7.3
    /// experiments.
    fn posting_bytes(&self) -> usize;

    /// One lazy [`BlockCursor`] per `(term, weight)` pair — the ranked
    /// read path every evaluator drives. Each cursor presents the
    /// term's `(doc, tf · weight)` entries in document order; weights
    /// must be non-negative and finite (IDF factors are). Entry values
    /// do not depend on the backend, so ranking is bit-identical across
    /// backends (property-tested); what differs is the decode work,
    /// reported through [`BlockCursor::decoded_blocks`]: a store only
    /// decompresses the blocks its cursors land in, and seeks pass the
    /// rest on their stored skip metadata.
    fn query_cursors<'a>(&'a self, terms: &[(TermId, f64)]) -> Vec<Box<dyn BlockCursor + 'a>>;
}

#[cfg(test)]
mod tests {
    use crate::doc::Document;
    use crate::postings::Posting;
    use crate::types::{DocId, GroupId, TermId};
    use crate::InvertedIndex;

    fn sample_index() -> InvertedIndex {
        let docs = vec![
            Document::from_term_counts(DocId(1), GroupId(0), vec![(TermId(0), 1), (TermId(1), 2)]),
            Document::from_term_counts(DocId(2), GroupId(0), vec![(TermId(0), 3)]),
        ];
        InvertedIndex::from_documents(&docs)
    }

    #[test]
    fn live_index_store_mirrors_the_index() {
        let index = sample_index();
        assert_eq!(index.term_count(), 2);
        assert_eq!(index.total_postings(), 3);
        assert_eq!(index.document_frequency(TermId(0)), 2);
        assert_eq!(index.document_frequency(TermId(9)), 0);
        let docs: Vec<u32> = index
            .posting_list(TermId(0))
            .iter()
            .map(|p| p.doc.0)
            .collect();
        assert_eq!(docs, vec![1, 2]);
        assert!(index.posting_list(TermId(9)).is_empty());
        assert_eq!(index.posting_bytes(), 3 * std::mem::size_of::<Posting>());
    }

    #[test]
    fn store_statistics_match_index_statistics() {
        let index = sample_index();
        let stats = index.statistics();
        assert_eq!(stats.document_frequency(TermId(0)), 2);
        assert_eq!(stats.document_frequency(TermId(1)), 1);
        assert_eq!(stats.total_document_frequency(), 3);
    }
}
