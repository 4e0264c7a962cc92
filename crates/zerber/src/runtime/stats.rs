//! Global collection statistics: the IDF source every shard scores
//! with, and the per-document term registry that keeps it exact under
//! live inserts and deletes.
//!
//! This module owns one decision: *what the coordinator believes the
//! collection holds*. The write path reports each shard's acknowledged
//! mutation here (and nowhere else), so the statistics always describe
//! exactly the documents that landed.

use std::collections::HashMap;

use zerber_index::{DocId, Document, TermId};

/// Global collection statistics driving IDF weights: total documents
/// and per-term document frequency. Kept over the *whole* collection,
/// not per shard, so every shard scores with the same weights a single
/// node would use.
#[derive(Debug, Clone, Default)]
pub(crate) struct TermStats {
    /// Total documents in the collection.
    pub doc_count: usize,
    /// Documents containing each term.
    pub df: HashMap<TermId, u32>,
}

impl TermStats {
    /// Gathers statistics from a document set in which, as on the
    /// write path, the last copy of a repeated document id wins.
    pub(crate) fn from_documents(docs: &[Document]) -> Self {
        let last: HashMap<DocId, &Document> = docs.iter().map(|doc| (doc.id, doc)).collect();
        let mut stats = Self::default();
        for doc in last.values() {
            stats.add_document(distinct_terms(doc));
        }
        stats
    }

    /// The IDF factor of one term (0 for unseen terms) — delegates to
    /// the shared [`zerber_index::idf`] every ranking path uses.
    pub(crate) fn idf(&self, term: TermId) -> f64 {
        let df = self.df.get(&term).copied().unwrap_or(0) as usize;
        zerber_index::idf(self.doc_count, df)
    }

    /// Per-term `(term, idf)` weights for a query, in query order.
    pub(crate) fn weights(&self, terms: &[TermId]) -> Vec<(TermId, f64)> {
        terms.iter().map(|&t| (t, self.idf(t))).collect()
    }

    /// Accounts one newly indexed document (its distinct terms).
    /// Exact-integer df/doc-count updates keep incrementally
    /// maintained statistics *identical* to a from-scratch rebuild —
    /// the invariant that keeps live-mutated deployments bit-identical
    /// to the oracle.
    pub(crate) fn add_document(&mut self, terms: impl IntoIterator<Item = TermId>) {
        self.doc_count += 1;
        for term in terms {
            *self.df.entry(term).or_insert(0) += 1;
        }
    }

    /// Reverses [`TermStats::add_document`] for a removed document.
    pub(crate) fn remove_document(&mut self, terms: impl IntoIterator<Item = TermId>) {
        self.doc_count = self.doc_count.saturating_sub(1);
        for term in terms {
            if let Some(df) = self.df.get_mut(&term) {
                *df -= 1;
                if *df == 0 {
                    self.df.remove(&term);
                }
            }
        }
    }
}

fn distinct_terms(doc: &Document) -> Vec<TermId> {
    doc.terms.iter().map(|&(t, _)| t).collect()
}

/// [`TermStats`] plus the terms each live document was accounted
/// with, so a replacement or delete can take exactly those back out.
#[derive(Default)]
pub(super) struct StatsState {
    pub(super) stats: TermStats,
    pub(super) doc_terms: HashMap<DocId, Vec<TermId>>,
}

impl StatsState {
    /// Accounts documents a shard's replicas just acknowledged, in
    /// arrival order: a document id already present is a replacement,
    /// and its previous terms are taken back out.
    pub(super) fn account_written<'a>(&mut self, docs: impl IntoIterator<Item = &'a Document>) {
        for doc in docs {
            let terms = distinct_terms(doc);
            self.stats.add_document(terms.iter().copied());
            if let Some(old) = self.doc_terms.insert(doc.id, terms) {
                self.stats.remove_document(old);
            }
        }
    }

    /// Accounts an acknowledged, effective delete.
    pub(super) fn account_removed(&mut self, doc: DocId) {
        if let Some(old) = self.doc_terms.remove(&doc) {
            self.stats.remove_document(old);
        }
    }
}
