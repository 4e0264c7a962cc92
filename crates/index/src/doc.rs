//! Documents: raw text and the processed term-frequency form.

use std::collections::HashMap;

use crate::dict::TermDict;
use crate::tokenizer::Tokenizer;
use crate::types::{DocId, GroupId, TermId};

/// An unprocessed shared document as a group member would upload it.
#[derive(Debug, Clone)]
pub struct RawDocument {
    /// Global document id (host + per-host number).
    pub id: DocId,
    /// The collaboration group allowed to read the document.
    pub group: GroupId,
    /// Full text.
    pub text: String,
}

impl RawDocument {
    /// Tokenizes and interns the document into its processed form.
    pub fn process(&self, tokenizer: &Tokenizer, dict: &mut TermDict) -> Document {
        let tokens = tokenizer.tokenize(&self.text);
        let mut counts: HashMap<TermId, u32> = HashMap::new();
        let total = tokens.len() as u32;
        for token in &tokens {
            *counts.entry(dict.intern(token)).or_insert(0) += 1;
        }
        let mut terms: Vec<(TermId, u32)> = counts.into_iter().collect();
        terms.sort_unstable_by_key(|&(t, _)| t);
        Document {
            id: self.id,
            group: self.group,
            terms,
            length: total,
        }
    }
}

/// A processed document: distinct terms with occurrence counts.
///
/// This is the unit the document owner encrypts: one posting element
/// per distinct term (Algorithm 1a is O(n·N) with N "the number of
/// distinct terms in the document").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Global document id.
    pub id: DocId,
    /// Owning collaboration group.
    pub group: GroupId,
    /// Distinct terms with raw occurrence counts, sorted by term id.
    pub terms: Vec<(TermId, u32)>,
    /// Total token count (denominator of the term frequency "count
    /// divided by the document's length", Section 1).
    pub length: u32,
}

impl Document {
    /// Builds a document directly from term counts (used by the
    /// synthetic corpus generators, which skip string tokenization).
    ///
    /// # Panics
    /// Panics if `terms` contains duplicate term ids.
    pub fn from_term_counts(id: DocId, group: GroupId, mut terms: Vec<(TermId, u32)>) -> Self {
        terms.sort_unstable_by_key(|&(t, _)| t);
        for window in terms.windows(2) {
            assert_ne!(window[0].0, window[1].0, "duplicate term in document");
        }
        let length = terms.iter().map(|&(_, c)| c).sum();
        Self {
            id,
            group,
            terms,
            length,
        }
    }

    /// Whether the document holds its invariant: term ids strictly
    /// ascending (so none repeats) and below `u32::MAX`, as a store
    /// keeps one slot per id up to the largest and that count must fit
    /// a `u32`; and counts whose sum fits a `u32`, as a store lays each
    /// term's occurrences out after the smaller terms' as `u32` token
    /// positions. Every door a document enters a store through (the
    /// wire, `insert`, `bulk_load`) refuses one that fails this,
    /// rather than panic deep in the index.
    pub fn is_well_formed(&self) -> bool {
        let ascending = self.terms.windows(2).all(|w| w[0].0 < w[1].0);
        ascending
            && self.terms.last().is_none_or(|&(term, _)| term.0 < u32::MAX)
            && self
                .terms
                .iter()
                .try_fold(0u32, |end, &(_, count)| end.checked_add(count))
                .is_some()
    }

    /// Number of distinct terms (the `N` of Algorithm 1a).
    pub fn distinct_terms(&self) -> usize {
        self.terms.len()
    }

    /// Raw occurrence count for a term.
    pub fn term_count(&self, term: TermId) -> u32 {
        match self.terms.binary_search_by_key(&term, |&(t, _)| t) {
            Ok(i) => self.terms[i].1,
            Err(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(text: &str) -> RawDocument {
        RawDocument {
            id: DocId::from_parts(1, 1),
            group: GroupId(0),
            text: text.to_owned(),
        }
    }

    #[test]
    fn process_counts_terms() {
        let mut dict = TermDict::new();
        let doc = raw("martha called martha about imclone").process(&Tokenizer::new(), &mut dict);
        assert_eq!(doc.length, 5);
        assert_eq!(doc.distinct_terms(), 4);
        let martha = dict.get("martha").unwrap();
        assert_eq!(doc.term_count(martha), 2);
    }

    #[test]
    fn missing_term_has_zero_frequency() {
        let mut dict = TermDict::new();
        let doc = raw("alpha beta").process(&Tokenizer::new(), &mut dict);
        assert_eq!(doc.term_count(TermId(999)), 0);
    }

    #[test]
    fn empty_document_is_harmless() {
        let mut dict = TermDict::new();
        let doc = raw("").process(&Tokenizer::new(), &mut dict);
        assert_eq!(doc.length, 0);
        assert_eq!(doc.distinct_terms(), 0);
    }

    #[test]
    fn from_term_counts_sorts_and_sums() {
        let doc =
            Document::from_term_counts(DocId(9), GroupId(1), vec![(TermId(5), 2), (TermId(1), 3)]);
        assert_eq!(doc.terms[0].0, TermId(1));
        assert_eq!(doc.length, 5);
    }

    #[test]
    #[should_panic(expected = "duplicate term")]
    fn duplicate_terms_panic() {
        let _ =
            Document::from_term_counts(DocId(9), GroupId(1), vec![(TermId(5), 2), (TermId(5), 3)]);
    }

    #[test]
    fn well_formed_means_ascending_terms_and_positions_that_fit() {
        let doc = |terms: Vec<(TermId, u32)>| Document {
            id: DocId(1),
            group: GroupId(0),
            length: 1,
            terms,
        };
        assert!(doc(vec![]).is_well_formed());
        assert!(!doc(vec![(TermId(1), 2), (TermId(u32::MAX), u32::MAX - 2)]).is_well_formed());
        assert!(doc(vec![(TermId(1), 2), (TermId(u32::MAX - 1), u32::MAX - 2)]).is_well_formed());
        assert!(!doc(vec![(TermId(5), 2), (TermId(5), 3)]).is_well_formed());
        assert!(!doc(vec![(TermId(6), 1), (TermId(5), 1)]).is_well_formed());
        assert!(!doc(vec![(TermId(1), u32::MAX), (TermId(2), 1)]).is_well_formed());
    }
}
