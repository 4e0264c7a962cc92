//! The ordinary inverted index (paper Figure 1).
//!
//! This is both a substrate of Zerber (each document server "maintains
//! an inverted index (also useful for local search) of its local shared
//! documents", Section 7.2) and the baseline against which storage,
//! bandwidth and query costs are compared throughout Section 7.

use std::collections::HashMap;

use crate::doc::Document;
use crate::postings::{Posting, PostingList};
use crate::stats::CorpusStats;
use crate::types::{DocId, GroupId, TermId};

/// An in-memory inverted index over processed documents.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: Vec<PostingList>,
    documents: HashMap<DocId, DocMeta>,
}

#[derive(Debug, Clone)]
struct DocMeta {
    group: GroupId,
    terms: Vec<TermId>,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-builds an index from a document collection in one pass.
    ///
    /// Equivalent to inserting every document into an empty index (a
    /// duplicated document id keeps the last copy, like re-insertion),
    /// but accumulates each term's postings and sorts them once via
    /// `PostingList::from_sorted` instead of paying `upsert`'s
    /// shift-on-insert cost per posting — the difference between
    /// O(total · list) and O(total log total) on corpus-scale builds.
    pub fn from_documents<'a, I>(docs: I) -> Self
    where
        I: IntoIterator<Item = &'a Document>,
    {
        // Deduplicate by document id first; the last copy wins.
        let mut latest: HashMap<DocId, &Document> = HashMap::new();
        for doc in docs {
            latest.insert(doc.id, doc);
        }
        let mut per_term: Vec<Vec<Posting>> = Vec::new();
        let mut documents = HashMap::with_capacity(latest.len());
        for doc in latest.into_values() {
            for &(term, count) in &doc.terms {
                let slot = term.0 as usize;
                if slot >= per_term.len() {
                    per_term.resize_with(slot + 1, Vec::new);
                }
                per_term[slot].push(Posting {
                    doc: doc.id,
                    count,
                    doc_length: doc.length,
                });
            }
            documents.insert(
                doc.id,
                DocMeta {
                    group: doc.group,
                    terms: doc.terms.iter().map(|&(t, _)| t).collect(),
                },
            );
        }
        let postings = per_term
            .into_iter()
            .map(|mut entries| {
                entries.sort_unstable_by_key(|p| p.doc);
                PostingList::from_sorted(entries)
            })
            .collect();
        Self {
            postings,
            documents,
        }
    }

    /// Inserts (or re-inserts) a batch of documents in one pass per
    /// affected posting list.
    ///
    /// Semantically identical to calling [`InvertedIndex::insert`] per
    /// document (duplicate ids within the batch keep the last copy),
    /// but old versions are cleared with one
    /// [`PostingList::retain`] sweep per affected term and new
    /// postings land via [`PostingList::merge_from_sorted`] — so a
    /// batch of `B` documents costs `O(affected-list bytes + B log B)`
    /// instead of `upsert`'s per-posting shift.
    pub(crate) fn insert_batch(&mut self, docs: &[Document]) {
        use std::collections::HashSet;
        if docs.is_empty() {
            return;
        }
        // Last copy of each id wins, as with repeated insertion.
        let mut latest: HashMap<DocId, &Document> = HashMap::with_capacity(docs.len());
        for doc in docs {
            latest.insert(doc.id, doc);
        }
        // Clear previous versions: one retain pass per affected term.
        let mut stale: HashSet<DocId> = HashSet::new();
        let mut stale_terms: HashSet<TermId> = HashSet::new();
        for &id in latest.keys() {
            if let Some(meta) = self.documents.get(&id) {
                stale.insert(id);
                stale_terms.extend(meta.terms.iter().copied());
            }
        }
        for term in stale_terms {
            if let Some(list) = self.postings.get_mut(term.0 as usize) {
                list.retain(|p| !stale.contains(&p.doc));
            }
        }
        // Group the new postings per term, sort each group once, merge.
        let mut per_term: HashMap<TermId, Vec<Posting>> = HashMap::new();
        for doc in latest.values() {
            for &(term, count) in &doc.terms {
                per_term.entry(term).or_default().push(Posting {
                    doc: doc.id,
                    count,
                    doc_length: doc.length,
                });
            }
        }
        for (term, mut entries) in per_term {
            entries.sort_unstable_by_key(|p| p.doc);
            let slot = term.0 as usize;
            if slot >= self.postings.len() {
                self.postings.resize_with(slot + 1, PostingList::new);
            }
            self.postings[slot].merge_from_sorted(entries);
        }
        for doc in latest.into_values() {
            self.documents.insert(
                doc.id,
                DocMeta {
                    group: doc.group,
                    terms: doc.terms.iter().map(|&(t, _)| t).collect(),
                },
            );
        }
    }

    /// Inserts (or re-inserts) a document. Re-inserting a document id
    /// first removes its previous postings, so the index always reflects
    /// "only the most recent copy of the document" (Section 5.4.1,
    /// footnote 2).
    pub fn insert(&mut self, doc: &Document) {
        if self.documents.contains_key(&doc.id) {
            self.remove(doc.id);
        }
        for &(term, count) in &doc.terms {
            let slot = term.0 as usize;
            if slot >= self.postings.len() {
                self.postings.resize_with(slot + 1, PostingList::new);
            }
            self.postings[slot].upsert(Posting {
                doc: doc.id,
                count,
                doc_length: doc.length,
            });
        }
        self.documents.insert(
            doc.id,
            DocMeta {
                group: doc.group,
                terms: doc.terms.iter().map(|&(t, _)| t).collect(),
            },
        );
    }

    /// Removes a document and all its postings. Returns true iff the
    /// document was present.
    pub fn remove(&mut self, doc: DocId) -> bool {
        let Some(meta) = self.documents.remove(&doc) else {
            return false;
        };
        for term in meta.terms {
            if let Some(list) = self.postings.get_mut(term.0 as usize) {
                list.remove(doc);
            }
        }
        true
    }

    /// All posting lists, indexed by term id — the bulk-export surface
    /// used to build alternative posting-store backends (see
    /// [`crate::store::PostingStore`]).
    pub fn posting_lists(&self) -> &[PostingList] {
        &self.postings
    }

    /// The posting list for a term (empty if the term is unknown).
    pub fn posting_list(&self, term: TermId) -> &[Posting] {
        self.postings
            .get(term.0 as usize)
            .map(PostingList::as_slice)
            .unwrap_or(&[])
    }

    /// Document frequency of a term: the length of its posting list.
    pub fn document_frequency(&self, term: TermId) -> usize {
        self.posting_list(term).len()
    }

    /// Number of indexed documents.
    pub fn document_count(&self) -> usize {
        self.documents.len()
    }

    /// Number of term slots (upper bound on distinct terms seen).
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Total number of posting elements — the index size driver for the
    /// storage-overhead analysis of Section 7.2.
    pub fn total_postings(&self) -> usize {
        self.postings.iter().map(PostingList::len).sum()
    }

    /// Heap footprint of the uncompressed `Vec<Posting>` lists in
    /// bytes — the raw side of the Section 7.2/7.3 storage accounting,
    /// beside a frozen store's `PostingStore::posting_bytes`.
    pub fn posting_bytes(&self) -> usize {
        self.total_postings() * std::mem::size_of::<Posting>()
    }

    /// The owning group of a document, if indexed.
    pub(crate) fn document_group(&self, doc: DocId) -> Option<GroupId> {
        self.documents.get(&doc).map(|m| m.group)
    }

    /// Snapshot of per-term document frequencies, indexed by term id.
    pub(crate) fn document_frequencies(&self) -> Vec<u64> {
        self.postings.iter().map(|l| l.len() as u64).collect()
    }

    /// Computes corpus statistics (document frequencies and the
    /// normalized term probabilities `p_t` of formula (2)).
    pub fn statistics(&self) -> CorpusStats {
        CorpusStats::from_document_frequencies(self.document_frequencies())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u32, group: u32, terms: &[(u32, u32)]) -> Document {
        Document::from_term_counts(
            DocId(id),
            GroupId(group),
            terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
        )
    }

    #[test]
    fn figure_1_example() {
        // Figure 1: three posting lists, nine elements overall is the
        // illustration; here: Martha -> {d1}, ImClone -> {d1}, Layoff
        // -> {d2, d3}.
        let mut index = InvertedIndex::new();
        index.insert(&doc(1, 0, &[(0, 1), (1, 2)]));
        index.insert(&doc(2, 0, &[(2, 1)]));
        index.insert(&doc(3, 0, &[(2, 4)]));
        assert_eq!(index.document_frequency(TermId(0)), 1);
        assert_eq!(index.document_frequency(TermId(2)), 2);
        assert_eq!(index.total_postings(), 4);
        assert_eq!(index.document_count(), 3);
    }

    #[test]
    fn reinsert_replaces_old_version() {
        let mut index = InvertedIndex::new();
        index.insert(&doc(1, 0, &[(0, 1), (1, 1)]));
        // New version drops term 1, adds term 2.
        index.insert(&doc(1, 0, &[(0, 3), (2, 1)]));
        assert_eq!(index.document_frequency(TermId(1)), 0);
        assert_eq!(index.document_frequency(TermId(2)), 1);
        assert_eq!(index.posting_list(TermId(0))[0].count, 3);
        assert_eq!(index.document_count(), 1);
    }

    #[test]
    fn remove_clears_all_postings() {
        let mut index = InvertedIndex::new();
        index.insert(&doc(1, 0, &[(0, 1), (1, 1), (2, 1)]));
        assert!(index.remove(DocId(1)));
        assert!(!index.remove(DocId(1)));
        assert_eq!(index.total_postings(), 0);
        assert_eq!(index.document_count(), 0);
    }

    #[test]
    fn unknown_term_has_empty_list() {
        let index = InvertedIndex::new();
        assert!(index.posting_list(TermId(7)).is_empty());
        assert_eq!(index.document_frequency(TermId(7)), 0);
    }

    #[test]
    fn metadata_accessors() {
        let mut index = InvertedIndex::new();
        index.insert(&doc(5, 3, &[(0, 2), (1, 3)]));
        assert_eq!(index.document_group(DocId(5)), Some(GroupId(3)));
        assert_eq!(index.document_group(DocId(6)), None);
    }

    #[test]
    fn bulk_build_matches_incremental_inserts() {
        let docs = vec![
            doc(1, 0, &[(0, 1), (1, 2)]),
            doc(2, 1, &[(2, 1), (0, 3)]),
            doc(3, 0, &[(2, 4)]),
            // Duplicate id: the last copy must win, as with re-insert.
            doc(2, 1, &[(1, 7)]),
        ];
        let bulk = InvertedIndex::from_documents(&docs);
        let mut incremental = InvertedIndex::new();
        for d in &docs {
            incremental.insert(d);
        }
        assert_eq!(bulk.document_count(), incremental.document_count());
        assert_eq!(bulk.total_postings(), incremental.total_postings());
        for term in 0..4u32 {
            assert_eq!(
                bulk.posting_list(TermId(term)),
                incremental.posting_list(TermId(term)),
                "term {term}"
            );
        }
        assert_eq!(bulk.document_group(DocId(2)), Some(GroupId(1)));
        assert_eq!(bulk.posting_list(TermId(1))[1].count, 7);
    }

    #[test]
    fn insert_batch_matches_incremental_inserts() {
        let first = vec![doc(1, 0, &[(0, 1), (1, 2)]), doc(2, 1, &[(2, 1)])];
        let second = vec![
            // Replaces doc 1, dropping term 1 and adding term 3.
            doc(1, 0, &[(0, 5), (3, 1)]),
            doc(3, 0, &[(2, 4)]),
            // Duplicate id inside the batch: the last copy wins.
            doc(3, 0, &[(1, 9)]),
        ];
        let mut batched = InvertedIndex::new();
        batched.insert_batch(&first);
        batched.insert_batch(&second);
        let mut incremental = InvertedIndex::new();
        for d in first.iter().chain(&second) {
            incremental.insert(d);
        }
        assert_eq!(batched.document_count(), incremental.document_count());
        assert_eq!(batched.total_postings(), incremental.total_postings());
        for term in 0..4u32 {
            assert_eq!(
                batched.posting_list(TermId(term)),
                incremental.posting_list(TermId(term)),
                "term {term}"
            );
        }
        assert_eq!(batched.document_frequency(TermId(1)), 1); // doc 3 only
    }

    #[test]
    fn statistics_reflect_document_frequencies() {
        let mut index = InvertedIndex::new();
        index.insert(&doc(1, 0, &[(0, 1), (1, 1)]));
        index.insert(&doc(2, 0, &[(0, 1)]));
        let stats = index.statistics();
        assert_eq!(stats.document_frequency(TermId(0)), 2);
        assert_eq!(stats.document_frequency(TermId(1)), 1);
        // p_0 = 2/3, p_1 = 1/3 (formula 2 normalizes by the sum).
        assert!((stats.probability(TermId(0)) - 2.0 / 3.0).abs() < 1e-12);
    }
}
