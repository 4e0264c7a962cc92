//! Pluggable posting-list storage backends.
//!
//! The index substrate historically hard-wired `Vec<Posting>` lists.
//! Production-scale corpora want a block-compressed representation
//! instead (doc-id deltas + bit-packed counts, see the
//! `zerber-postings` crate), so read access is abstracted behind
//! [`PostingStore`]: an immutable, term-addressed view of the posting
//! data that both the raw and the compressed backends implement.
//!
//! The mutable [`crate::InvertedIndex`] remains the build/update
//! surface; a store is a frozen snapshot of it. [`PostingBackend`]
//! names the backend choice so configuration layers (the `zerber`
//! facade, the bench harness) can select one without depending on the
//! compressed implementation directly.

use crate::cursor::{BlockCursor, ScoredListCursor};
use crate::postings::{Posting, PostingList};
use crate::stats::CorpusStats;
use crate::topk::BlockScoredList;
use crate::types::{DocId, TermId};
use crate::InvertedIndex;

/// Posting entries per block when a store materializes scored lists
/// (matches the compressed engine's physical block granularity).
pub const SCORING_BLOCK: usize = 128;

/// Which posting-list representation a deployment stores and serves.
///
/// Not `Copy`: the segmented backend names an on-disk directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PostingBackend {
    /// Plain `Vec<Posting>` lists — fastest random access, largest
    /// footprint.
    #[default]
    Raw,
    /// Block-compressed lists (varint doc-id deltas, bit-packed
    /// counts, per-block skip metadata) from `zerber-postings`.
    Compressed,
    /// The durable LSM-style store from `zerber-segment`: a
    /// WAL-journaled memtable plus immutable block-compressed on-disk
    /// segments with background compaction. The only backend that
    /// supports live inserts and deletes.
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

/// Flush/compaction tuning of the segmented backend. Defined here (and
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
    /// Run compaction on a background thread (`true`) or inline at
    /// flush time (`false`; deterministic, used by tests).
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
/// increasing document-id order, matching [`PostingList`] iteration.
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
    /// reported through [`BlockCursor::decoded_blocks`]: backends with
    /// stored per-block skip metadata (the compressed engine, the
    /// segmented store) only decompress blocks the block-max bound
    /// cannot rule out.
    ///
    /// The default serves backends without stored skip metadata (raw
    /// lists, the live [`InvertedIndex`]): it scores every posting of
    /// the term into [`SCORING_BLOCK`]-sized blocks with exact maxima,
    /// and the cursor merely counts the blocks the algorithm examines.
    fn query_cursors<'a>(&'a self, terms: &[(TermId, f64)]) -> Vec<Box<dyn BlockCursor + 'a>> {
        terms
            .iter()
            .map(|&(term, weight)| {
                let list = BlockScoredList::from_doc_ordered(
                    self.postings(term)
                        .map(|p| (p.doc, p.term_frequency() * weight))
                        .collect(),
                    SCORING_BLOCK,
                );
                Box::new(ScoredListCursor::new(list)) as Box<dyn BlockCursor + 'a>
            })
            .collect()
    }

    /// The term's occurrence positions in `doc`'s canonical token
    /// stream — `Some(positions)` when the document contains the term,
    /// `None` otherwise. The canonical convention: a document's token
    /// stream is its terms in ascending term-id order, each occupying
    /// `count` consecutive slots, so a term's positions are the
    /// contiguous run starting at the sum of the document's
    /// smaller-term counts.
    ///
    /// This is the point-lookup form, derived by scanning the
    /// smaller-id lists — no backend overrides it. Phrase evaluation
    /// reads the same run off the cursors it has aligned
    /// ([`BlockCursor::positions`]) and falls back to this method only
    /// for backends whose cursors keep no positional column (raw
    /// lists, the live index).
    fn term_positions(&self, term: TermId, doc: DocId) -> Option<Vec<u32>> {
        let hit = self.postings(term).find(|p| p.doc == doc)?;
        let start: u32 = (0..term.0)
            .map(|t| {
                self.postings(TermId(t))
                    .filter(|p| p.doc == doc)
                    .map(|p| p.count)
                    .sum::<u32>()
            })
            .sum();
        Some((start..start + hit.count).collect())
    }

    /// Corpus statistics over the stored document frequencies
    /// (formula (2)).
    fn statistics(&self) -> CorpusStats {
        CorpusStats::from_document_frequencies(
            (0..self.term_count())
                .map(|t| self.document_frequency(TermId(t as u32)) as u64)
                .collect(),
        )
    }
}

/// The raw backend: posting lists exactly as the mutable index holds
/// them.
#[derive(Debug, Clone, Default)]
pub struct RawPostingStore {
    lists: Vec<PostingList>,
}

impl RawPostingStore {
    /// Snapshots an index's posting lists.
    pub fn from_index(index: &InvertedIndex) -> Self {
        Self {
            lists: index.posting_lists().to_vec(),
        }
    }

    /// Wraps pre-built lists (term-id indexed).
    pub fn from_lists(lists: Vec<PostingList>) -> Self {
        Self { lists }
    }

    /// The underlying list for a term (empty slice when unknown).
    pub fn posting_list(&self, term: TermId) -> &[Posting] {
        self.lists
            .get(term.0 as usize)
            .map(PostingList::as_slice)
            .unwrap_or(&[])
    }
}

/// The mutable index itself is also a valid read backend: a *live*
/// view over its current posting lists. Unlike [`RawPostingStore`]
/// (a frozen snapshot), nothing is copied — the runtime's mutable
/// shard engine serves queries straight from the index it updates.
impl PostingStore for InvertedIndex {
    fn term_count(&self) -> usize {
        InvertedIndex::term_count(self)
    }

    fn document_frequency(&self, term: TermId) -> usize {
        InvertedIndex::document_frequency(self, term)
    }

    fn postings(&self, term: TermId) -> Box<dyn Iterator<Item = Posting> + '_> {
        Box::new(self.posting_list(term).iter().copied())
    }

    fn total_postings(&self) -> usize {
        InvertedIndex::total_postings(self)
    }

    fn posting_bytes(&self) -> usize {
        self.posting_lists()
            .iter()
            .map(|l| l.len() * std::mem::size_of::<Posting>())
            .sum()
    }
}

impl PostingStore for RawPostingStore {
    fn term_count(&self) -> usize {
        self.lists.len()
    }

    fn document_frequency(&self, term: TermId) -> usize {
        self.lists
            .get(term.0 as usize)
            .map(PostingList::len)
            .unwrap_or(0)
    }

    fn postings(&self, term: TermId) -> Box<dyn Iterator<Item = Posting> + '_> {
        Box::new(self.posting_list(term).iter().copied())
    }

    fn total_postings(&self) -> usize {
        self.lists.iter().map(PostingList::len).sum()
    }

    fn posting_bytes(&self) -> usize {
        self.lists
            .iter()
            .map(|l| l.len() * std::mem::size_of::<Posting>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::Document;
    use crate::types::{DocId, GroupId};

    fn sample_index() -> InvertedIndex {
        let docs = vec![
            Document::from_term_counts(DocId(1), GroupId(0), vec![(TermId(0), 1), (TermId(1), 2)]),
            Document::from_term_counts(DocId(2), GroupId(0), vec![(TermId(0), 3)]),
        ];
        InvertedIndex::from_documents(&docs)
    }

    #[test]
    fn raw_store_mirrors_the_index() {
        let index = sample_index();
        let store = RawPostingStore::from_index(&index);
        assert_eq!(store.term_count(), index.term_count());
        assert_eq!(store.total_postings(), index.total_postings());
        assert_eq!(store.document_frequency(TermId(0)), 2);
        assert_eq!(store.document_frequency(TermId(9)), 0);
        let docs: Vec<u32> = store.postings(TermId(0)).map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![1, 2]);
        assert!(store.postings(TermId(9)).next().is_none());
        assert_eq!(store.posting_bytes(), 3 * std::mem::size_of::<Posting>());
    }

    #[test]
    fn live_index_store_matches_frozen_snapshot() {
        let index = sample_index();
        let frozen = RawPostingStore::from_index(&index);
        assert_eq!(
            PostingStore::term_count(&index),
            PostingStore::term_count(&frozen)
        );
        assert_eq!(index.posting_bytes(), frozen.posting_bytes());
        let live: Vec<Posting> = PostingStore::postings(&index, TermId(0)).collect();
        let snap: Vec<Posting> = frozen.postings(TermId(0)).collect();
        assert_eq!(live, snap);
    }

    #[test]
    fn store_statistics_match_index_statistics() {
        let index = sample_index();
        let store = RawPostingStore::from_index(&index);
        let a = store.statistics();
        let b = index.statistics();
        assert_eq!(
            a.document_frequency(TermId(0)),
            b.document_frequency(TermId(0))
        );
        assert_eq!(a.total_document_frequency(), b.total_document_frequency());
    }
}
