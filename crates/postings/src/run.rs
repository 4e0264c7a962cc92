//! SPIMI-style sorted-run construction for offline bulk indexing.
//!
//! A [`RunBuilder`] is the in-memory half of a single-pass in-memory
//! indexing (SPIMI) worker: documents stream in, postings accumulate
//! per term in arrival order, and [`RunBuilder::build`] seals the
//! accumulated slice of the corpus into a [`SortedRun`] — every
//! term's postings sorted by doc key and compressed through the same
//! [`CompressedPostingBuilder`] block codec the live engine writes,
//! block-max skip metadata included. Runs from parallel workers over
//! disjoint document ranges can then be k-way merged with
//! [`crate::merge_compressed`] without any decode-and-re-sort pass.
//!
//! The builder deliberately does *not* deduplicate document ids: a
//! bulk loader partitions the (already deduplicated) corpus across
//! workers, so each doc id reaches exactly one builder exactly once.

use std::collections::BTreeMap;

use crate::block::RawEntry;
use crate::builder::CompressedPostingBuilder;
use crate::list::CompressedPostingList;

/// Accumulates one sorted run of a SPIMI bulk build.
#[derive(Debug, Default)]
pub struct RunBuilder {
    /// Per-term postings in arrival order (sorted by doc at seal).
    terms: BTreeMap<u32, Vec<RawEntry>>,
    /// Document ids pushed, arrival order.
    docs: Vec<u32>,
    /// Accumulated memory pressure: postings, term-less docs count 1.
    weight: usize,
    /// One past the highest term id seen.
    term_slots: u32,
}

/// One sealed sorted run: the frozen image of a worker's document
/// slice, ready to be written as a segment or merged with sibling
/// runs.
#[derive(Debug)]
pub struct SortedRun {
    /// Document ids covered by this run, ascending.
    pub docs: Vec<u32>,
    /// One past the highest term id present.
    pub term_slots: u32,
    /// `(term, compressed list)` sorted by term id; only non-empty
    /// lists.
    pub terms: Vec<(u32, CompressedPostingList)>,
}

impl RunBuilder {
    /// An empty run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one document's postings to the run.
    ///
    /// `terms` holds `(term, raw occurrence count)` pairs; `length` is
    /// the term-frequency denominator. Each document id must be pushed
    /// at most once per run (the caller partitions a deduplicated
    /// corpus) — duplicates would make the doc-sorted seal panic in
    /// the block codec's strictly-increasing check rather than build a
    /// corrupt list.
    pub fn push_document(
        &mut self,
        doc: u32,
        length: u32,
        terms: impl IntoIterator<Item = (u32, u32)>,
    ) {
        self.docs.push(doc);
        // Canonical token-stream positions: terms laid out in
        // ascending term-id order, each occupying `count` consecutive
        // slots, so a term's run starts at the sum of smaller terms'
        // counts.
        let mut sorted: Vec<(u32, u32)> = terms.into_iter().collect();
        sorted.sort_unstable_by_key(|&(term, _)| term);
        let mut next_pos = 0u32;
        for &(term, count) in &sorted {
            self.term_slots = self.term_slots.max(term + 1);
            self.terms.entry(term).or_default().push(RawEntry {
                doc: doc as u64,
                count,
                doc_length: length,
                pos: next_pos,
            });
            next_pos += count;
        }
        self.weight += sorted.len().max(1);
    }

    /// Accumulated weight (postings, with term-less documents counting
    /// 1) — the seal trigger for bounded-memory workers.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// True iff no document has been pushed.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Seals the run: sorts every term's postings by doc key and
    /// compresses them block by block.
    pub fn build(self) -> SortedRun {
        let mut docs = self.docs;
        docs.sort_unstable();
        let terms = self
            .terms
            .into_iter()
            .map(|(term, mut entries)| {
                entries.sort_unstable_by_key(|e| e.doc);
                (term, CompressedPostingBuilder::from_sorted(entries))
            })
            .collect();
        SortedRun {
            docs,
            term_slots: self.term_slots,
            terms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_compressed;

    #[test]
    fn seals_doc_sorted_lists_regardless_of_arrival_order() {
        let mut run = RunBuilder::new();
        run.push_document(9, 4, [(0, 2), (3, 1)]);
        run.push_document(2, 8, [(0, 1)]);
        run.push_document(5, 2, [(3, 2)]);
        assert_eq!(run.weight(), 4);
        assert_eq!(run.docs.len(), 3);
        let sealed = run.build();
        assert_eq!(sealed.docs, vec![2, 5, 9]);
        assert_eq!(sealed.term_slots, 4);
        let term0: Vec<u64> = sealed.terms[0]
            .1
            .decode_all()
            .iter()
            .map(|e| e.doc)
            .collect();
        assert_eq!(term0, vec![2, 9]);
        let term3: Vec<u64> = sealed.terms[1]
            .1
            .decode_all()
            .iter()
            .map(|e| e.doc)
            .collect();
        assert_eq!(term3, vec![5, 9]);
    }

    #[test]
    fn termless_documents_still_weigh_and_appear() {
        let mut run = RunBuilder::new();
        run.push_document(7, 0, []);
        assert_eq!(run.weight(), 1);
        let sealed = run.build();
        assert_eq!(sealed.docs, vec![7]);
        assert!(sealed.terms.is_empty());
    }

    #[test]
    fn parallel_runs_merge_identically_to_one_big_run() {
        // Two workers over disjoint halves vs one worker over the
        // whole stream: per-term merged lists must be identical.
        let docs: Vec<(u32, Vec<(u32, u32)>)> = (0..300u32)
            .map(|d| (d * 3 % 601, vec![(d % 7, 1 + d % 4), (11, 2)]))
            .collect();
        let mut whole = RunBuilder::new();
        let mut left = RunBuilder::new();
        let mut right = RunBuilder::new();
        for (i, (doc, terms)) in docs.iter().enumerate() {
            whole.push_document(*doc, 10, terms.iter().copied());
            if i % 2 == 0 {
                left.push_document(*doc, 10, terms.iter().copied());
            } else {
                right.push_document(*doc, 10, terms.iter().copied());
            }
        }
        let whole = whole.build();
        let (left, right) = (left.build(), right.build());
        for (term, expected) in &whole.terms {
            let lists: Vec<&CompressedPostingList> = [&left, &right]
                .iter()
                .filter_map(|run| {
                    run.terms
                        .binary_search_by_key(term, |&(t, _)| t)
                        .ok()
                        .map(|i| &run.terms[i].1)
                })
                .collect();
            let merged = merge_compressed(&lists);
            assert_eq!(&merged, expected, "term {term}");
        }
    }
}
