//! Posting lists: the building block of the inverted index (Figure 1).

use crate::types::DocId;

/// One posting-list element of the *plain* (unencrypted) index: a
/// document id plus the raw term occurrence count. The Zerber element
/// additionally carries the term id and a global element id and is
/// secret-shared — see `zerber-core::element`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The containing document.
    pub doc: DocId,
    /// Raw occurrence count of the term in the document.
    pub count: u32,
    /// Document length (token count) — kept alongside so the
    /// normalized term frequency can be computed without a second
    /// lookup when ranking.
    pub doc_length: u32,
}

impl Posting {
    /// Normalized term frequency `count / doc_length` (Section 1: "a
    /// count of the number of times that term appears in that document,
    /// divided by the document's length").
    pub fn term_frequency(&self) -> f64 {
        if self.doc_length == 0 {
            0.0
        } else {
            self.count as f64 / self.doc_length as f64
        }
    }
}

/// A posting list: all documents containing one term, kept sorted by
/// document id for O(log n) membership checks and deterministic
/// iteration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    entries: Vec<Posting>,
}

impl PostingList {
    /// An empty list.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Builds a list from postings already sorted by strictly
    /// increasing document id — the bulk-construction path for corpus
    /// builds, which avoids the O(n²) repeated-`insert` cost of
    /// [`PostingList::upsert`] on large inputs.
    ///
    /// Sort order is debug-asserted; in release builds the caller's
    /// contract is trusted.
    pub(crate) fn from_sorted(entries: Vec<Posting>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].doc < w[1].doc),
            "postings must be sorted by strictly increasing doc id"
        );
        Self { entries }
    }

    /// Inserts or replaces the posting for `posting.doc`.
    pub(crate) fn upsert(&mut self, posting: Posting) {
        match self.entries.binary_search_by_key(&posting.doc, |p| p.doc) {
            Ok(i) => self.entries[i] = posting,
            Err(i) => self.entries.insert(i, posting),
        }
    }

    /// Merges a doc-id-sorted batch of postings into the list in one
    /// pass, replacing existing entries for the same document — the
    /// batched counterpart of repeated [`PostingList::upsert`], which
    /// pays a shift-on-insert per posting and turns bulk construction
    /// quadratic.
    ///
    /// Sort order of `updates` is debug-asserted, like
    /// [`PostingList::from_sorted`].
    pub(crate) fn merge_from_sorted(&mut self, updates: Vec<Posting>) {
        debug_assert!(
            updates.windows(2).all(|w| w[0].doc < w[1].doc),
            "batched postings must be sorted by strictly increasing doc id"
        );
        if updates.is_empty() {
            return;
        }
        if self
            .entries
            .last()
            .is_none_or(|last| last.doc < updates[0].doc)
        {
            // Pure append — the common case for fresh doc-id ranges.
            self.entries.extend(updates);
            return;
        }
        let mut merged = Vec::with_capacity(self.entries.len() + updates.len());
        let mut old = self.entries.drain(..).peekable();
        for update in updates {
            while let Some(kept) = old.next_if(|o| o.doc < update.doc) {
                merged.push(kept);
            }
            old.next_if(|o| o.doc == update.doc); // the update wins
            merged.push(update);
        }
        merged.extend(old);
        self.entries = merged;
    }

    /// Keeps only the postings `keep` accepts (one pass, order
    /// preserved) — the batched counterpart of repeated
    /// [`PostingList::remove`].
    pub(crate) fn retain(&mut self, keep: impl FnMut(&Posting) -> bool) {
        self.entries.retain(keep);
    }

    /// Removes the posting for `doc`, returning it if present.
    pub(crate) fn remove(&mut self, doc: DocId) -> Option<Posting> {
        match self.entries.binary_search_by_key(&doc, |p| p.doc) {
            Ok(i) => Some(self.entries.remove(i)),
            Err(_) => None,
        }
    }

    /// Document frequency: "the length of a term's posting list is its
    /// (global) document frequency" (Section 4).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Iterates postings in document-id order.
    pub fn iter(&self) -> impl Iterator<Item = &Posting> {
        self.entries.iter()
    }

    /// All postings as a slice.
    pub(crate) fn as_slice(&self) -> &[Posting] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The posting for `doc`, if the list holds one.
    fn get(list: &PostingList, doc: DocId) -> Option<Posting> {
        list.entries.iter().find(|p| p.doc == doc).copied()
    }

    fn posting(doc: u32, count: u32) -> Posting {
        Posting {
            doc: DocId(doc),
            count,
            doc_length: 100,
        }
    }

    #[test]
    fn from_sorted_matches_incremental_build() {
        let entries: Vec<Posting> = (1..=50).map(|doc| posting(doc, doc)).collect();
        let bulk = PostingList::from_sorted(entries.clone());
        let mut incremental = PostingList::new();
        for p in entries {
            incremental.upsert(p);
        }
        assert_eq!(bulk, incremental);
    }

    #[test]
    #[should_panic(expected = "sorted by strictly increasing doc id")]
    #[cfg(debug_assertions)]
    fn from_sorted_rejects_unsorted_input() {
        let _ = PostingList::from_sorted(vec![posting(2, 1), posting(1, 1)]);
    }

    #[test]
    fn upsert_keeps_sorted_order() {
        let mut list = PostingList::new();
        for doc in [5u32, 1, 3, 2, 4] {
            list.upsert(posting(doc, doc));
        }
        let docs: Vec<u32> = list.iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![1, 2, 3, 4, 5]);
        assert_eq!(list.len(), 5);
    }

    #[test]
    fn upsert_replaces_existing_doc() {
        let mut list = PostingList::new();
        list.upsert(posting(1, 2));
        list.upsert(posting(1, 9));
        assert_eq!(list.len(), 1);
        assert_eq!(get(&list, DocId(1)).unwrap().count, 9);
    }

    #[test]
    fn merge_from_sorted_matches_upsert_loop() {
        let existing: Vec<Posting> = [1u32, 3, 5, 8].iter().map(|&d| posting(d, d)).collect();
        let updates: Vec<Posting> = [0u32, 3, 9].iter().map(|&d| posting(d, d + 100)).collect();
        let mut batched = PostingList::from_sorted(existing.clone());
        batched.merge_from_sorted(updates.clone());
        let mut looped = PostingList::from_sorted(existing);
        for p in updates {
            looped.upsert(p);
        }
        assert_eq!(batched, looped);
        assert_eq!(get(&batched, DocId(3)).unwrap().count, 103);
    }

    #[test]
    fn merge_from_sorted_append_fast_path() {
        let mut list = PostingList::from_sorted(vec![posting(1, 1), posting(2, 2)]);
        list.merge_from_sorted(vec![posting(5, 5), posting(9, 9)]);
        list.merge_from_sorted(Vec::new());
        let docs: Vec<u32> = list.iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![1, 2, 5, 9]);
    }

    #[test]
    fn retain_filters_in_one_pass() {
        let mut list = PostingList::from_sorted((1..=6).map(|d| posting(d, d)).collect());
        list.retain(|p| p.doc.0 % 2 == 0);
        let docs: Vec<u32> = list.iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![2, 4, 6]);
    }

    #[test]
    fn remove_returns_the_posting() {
        let mut list = PostingList::new();
        list.upsert(posting(1, 2));
        assert_eq!(list.remove(DocId(1)).unwrap().count, 2);
        assert!(list.remove(DocId(1)).is_none());
        assert_eq!(list.len(), 0);
    }

    #[test]
    fn term_frequency_normalizes_by_length() {
        let p = Posting {
            doc: DocId(1),
            count: 5,
            doc_length: 50,
        };
        assert!((p.term_frequency() - 0.1).abs() < 1e-12);
        let zero = Posting {
            doc: DocId(1),
            count: 5,
            doc_length: 0,
        };
        assert_eq!(zero.term_frequency(), 0.0);
    }
}
