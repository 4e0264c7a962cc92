//! The compressed posting-store backend.

use zerber_index::cursor::{BlockCursor, EmptyCursor};
use zerber_index::store::PostingStore;
use zerber_index::{DocId, InvertedIndex, Posting, TermId};

use crate::block::RawEntry;
use crate::builder::CompressedPostingBuilder;
use crate::cursor::CompressedBlockCursor;
use crate::list::CompressedPostingList;

/// A decoded block entry as the index layer's [`Posting`].
///
/// # Panics
/// Panics on a doc key wider than [`DocId`]: every key in a list was
/// built from a `DocId`, so this is a corrupted or foreign list.
pub fn to_posting(entry: RawEntry) -> Posting {
    Posting {
        // Doc keys built from `DocId` round-trip losslessly: the codec
        // layer is wider (u64) than today's 32-bit ids by design.
        doc: DocId(u32::try_from(entry.doc).expect("doc key fits the DocId width")),
        count: entry.count,
        doc_length: entry.doc_length,
    }
}

/// A frozen, block-compressed snapshot of an index's posting lists.
///
/// Term-addressed like the index it snapshots; each list is delta- and
/// bit-packed per `crate::block` and carries per-block skip
/// metadata, which [`CompressedBlockCursor`] reuses directly as the
/// `block_max_score` bounds of block-max top-k.
#[derive(Debug, Clone, Default)]
pub struct CompressedPostingStore {
    lists: Vec<CompressedPostingList>,
}

impl CompressedPostingStore {
    /// Compresses every posting list of an index.
    ///
    /// Positions follow the canonical token-stream convention: terms
    /// in ascending id order, each occupying `count` consecutive
    /// slots. Sweeping the term-ordered lists while tracking each
    /// document's cumulative count yields every entry's run start in
    /// one pass over the postings.
    pub fn from_index(index: &InvertedIndex) -> Self {
        let mut next_pos: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        Self {
            lists: index
                .posting_lists()
                .iter()
                .map(|list| {
                    CompressedPostingBuilder::from_sorted(list.iter().map(|posting| {
                        let slot = next_pos.entry(posting.doc.0).or_insert(0);
                        let pos = *slot;
                        *slot += posting.count;
                        RawEntry {
                            doc: u64::from(posting.doc.0),
                            count: posting.count,
                            doc_length: posting.doc_length,
                            pos,
                        }
                    }))
                })
                .collect(),
        }
    }

    /// The compressed list for a term, when the term is known.
    pub fn list(&self, term: TermId) -> Option<&CompressedPostingList> {
        self.lists.get(term.0 as usize)
    }

    /// Uncompressed wire footprint of all lists (8 B per element, the
    /// paper's accounting).
    pub fn raw_bytes(&self) -> usize {
        self.lists
            .iter()
            .map(CompressedPostingList::raw_bytes)
            .sum()
    }

    /// Overall compression ratio (raw / compressed; 1.0 when empty).
    pub fn compression_ratio(&self) -> f64 {
        let compressed = self.posting_bytes();
        if compressed == 0 {
            1.0
        } else {
            self.raw_bytes() as f64 / compressed as f64
        }
    }
}

impl PostingStore for CompressedPostingStore {
    fn term_count(&self) -> usize {
        self.lists.len()
    }

    fn document_frequency(&self, term: TermId) -> usize {
        self.list(term).map(CompressedPostingList::len).unwrap_or(0)
    }

    fn postings(&self, term: TermId) -> Box<dyn Iterator<Item = Posting> + '_> {
        match self.list(term) {
            Some(list) => Box::new(list.iter().map(to_posting)),
            None => Box::new(std::iter::empty()),
        }
    }

    fn total_postings(&self) -> usize {
        self.lists.iter().map(CompressedPostingList::len).sum()
    }

    fn posting_bytes(&self) -> usize {
        self.lists
            .iter()
            .map(CompressedPostingList::compressed_bytes)
            .sum()
    }

    /// One [`CompressedBlockCursor`] per term, decoding
    /// straight from the stored blocks on demand — the lazy hot path.
    /// No posting is touched here at all; the cursor's metadata peeks
    /// serve the block-max bounds and only surviving blocks ever
    /// decompress.
    fn query_cursors<'a>(&'a self, terms: &[(TermId, f64)]) -> Vec<Box<dyn BlockCursor + 'a>> {
        terms
            .iter()
            .map(|&(term, weight)| match self.list(term) {
                Some(list) if !list.is_empty() => {
                    Box::new(CompressedBlockCursor::new(list, weight)) as Box<dyn BlockCursor + 'a>
                }
                _ => Box::new(EmptyCursor) as Box<dyn BlockCursor + 'a>,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_index::Document;
    use zerber_index::GroupId;

    fn sample_docs(docs: usize, terms_per_doc: u32) -> Vec<Document> {
        (0..docs)
            .map(|d| {
                Document::from_term_counts(
                    DocId(d as u32),
                    GroupId(0),
                    (0..terms_per_doc)
                        .map(|t| (TermId((d as u32 + t) % 50), 1 + t % 3))
                        .collect(),
                )
            })
            .collect()
    }

    fn sample_index(docs: usize, terms_per_doc: u32) -> InvertedIndex {
        InvertedIndex::from_documents(&sample_docs(docs, terms_per_doc))
    }

    #[test]
    fn compressed_store_agrees_with_raw_store() {
        // "Raw" is the index's own uncompressed `Vec<Posting>` lists.
        let index = sample_index(500, 8);
        let compressed = CompressedPostingStore::from_index(&index);
        assert_eq!(index.term_count(), compressed.term_count());
        assert_eq!(index.total_postings(), compressed.total_postings());
        for term in 0..index.term_count() as u32 {
            let term = TermId(term);
            assert_eq!(
                index.document_frequency(term),
                compressed.document_frequency(term)
            );
            let b: Vec<Posting> = compressed.postings(term).collect();
            assert_eq!(index.posting_list(term), b, "term {term}");
        }
    }

    #[test]
    fn compressed_store_is_smaller_than_raw_accounting() {
        let index = sample_index(2_000, 10);
        let store = CompressedPostingStore::from_index(&index);
        assert!(
            store.compression_ratio() > 2.0,
            "ratio {}",
            store.compression_ratio()
        );
        assert!(store.posting_bytes() < store.raw_bytes());
    }

    #[test]
    fn lazy_cursors_rank_identically_and_prune_decode_work() {
        use zerber_index::cursor::{maxscore_topk, QueryCost, TopKScratch};
        use zerber_index::topk::naive_topk;
        use zerber_index::{RankedDoc, ScoredList};
        // The reference: every posting of the index's uncompressed
        // lists scored and summed in weight order, then sorted.
        fn raw_ranked(
            index: &InvertedIndex,
            weights: &[(TermId, f64)],
            k: usize,
        ) -> Vec<RankedDoc> {
            let lists: Vec<ScoredList> = weights
                .iter()
                .map(|&(term, weight)| {
                    ScoredList::new(
                        index
                            .posting_list(term)
                            .iter()
                            .map(|p| (p.doc, p.term_frequency() * weight))
                            .collect(),
                    )
                })
                .collect();
            naive_topk(&lists, k)
        }
        let index = sample_index(3_000, 8);
        let store = CompressedPostingStore::from_index(&index);
        // Includes a zero-weight term: its stored maxima scale to 0.
        let weights: Vec<(TermId, f64)> = (0..6u32).map(|t| (TermId(t), t as f64)).collect();
        let mut scratch = TopKScratch::new();
        for k in [1usize, 5, 50] {
            let reference = raw_ranked(&index, &weights, k);
            let mut cursors = store.query_cursors(&weights);
            maxscore_topk(&mut cursors, k, &mut scratch);
            let cost = QueryCost::of(&cursors);
            assert_eq!(scratch.ranked.len(), reference.len(), "k = {k}");
            for (lazy, r) in scratch.ranked.iter().zip(&reference) {
                assert_eq!(lazy.doc, r.doc, "k = {k}");
                assert_eq!(lazy.score.to_bits(), r.score.to_bits(), "k = {k}");
            }
            assert!(cost.blocks_decoded <= cost.blocks_total, "k = {k}");
        }
        // A selective query (one dominant rare term, small k) must
        // decode strictly fewer blocks than exist.
        let mut selective = InvertedIndex::new();
        for d in 0..2_000u32 {
            let mut terms = vec![(TermId(1), 1)];
            if d < 3 {
                terms.insert(0, (TermId(0), 60));
            }
            selective.insert(&Document::from_term_counts(DocId(d), GroupId(0), terms));
        }
        let store = CompressedPostingStore::from_index(&selective);
        let weights = vec![(TermId(0), 8.0), (TermId(1), 0.1)];
        let mut cursors = store.query_cursors(&weights);
        maxscore_topk(&mut cursors, 3, &mut scratch);
        let cost = QueryCost::of(&cursors);
        assert!(
            cost.blocks_decoded < cost.blocks_total,
            "pruning must skip decompression: {cost:?}"
        );
        assert_eq!(scratch.ranked, raw_ranked(&selective, &weights, 3));
    }

    #[test]
    fn stored_positions_match_the_derived_canonical_runs() {
        // The positional column a cursor reads off its current posting
        // must be the canonical run derived from the documents
        // themselves — terms in ascending id order, each occupying
        // `count` consecutive slots — for every (term, doc) pair, and
        // the list must hold exactly the pairs the documents have.
        let docs = sample_docs(300, 7);
        let compressed = CompressedPostingStore::from_index(&InvertedIndex::from_documents(&docs));
        for term in (0..compressed.term_count() as u32).map(TermId) {
            let mut cursors = compressed.query_cursors(&[(term, 1.0)]);
            let cursor = &mut cursors[0];
            let mut stored = Vec::new();
            while let Some((doc, _)) = cursor.materialize() {
                stored.push((doc, cursor.positions()));
                cursor.step();
            }
            let derived: Vec<(DocId, (u32, u32))> = docs
                .iter()
                .filter_map(|doc| {
                    let at = doc.terms.iter().position(|&(t, _)| t == term)?;
                    let start: u32 = doc.terms[..at].iter().map(|&(_, count)| count).sum();
                    Some((doc.id, (start, doc.terms[at].1)))
                })
                .collect();
            assert_eq!(stored, derived, "term {term}");
        }
    }

    #[test]
    fn unknown_terms_are_empty_everywhere() {
        let store = CompressedPostingStore::default();
        assert_eq!(store.document_frequency(TermId(3)), 0);
        assert!(store.postings(TermId(3)).next().is_none());
        assert!(store.query_cursors(&[(TermId(3), 1.0)])[0].at_end());
    }
}
