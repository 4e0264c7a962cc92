//! Client-side ranking: TF-IDF scoring and Fagin's Threshold Algorithm.
//!
//! Section 5.4.2: "Zerber uses client-side ranking with personalized
//! collection statistics obtained from the set of all documents
//! accessible to the user. We use a modification of Fagin's Threshold
//! Algorithm \[15\] that lets one obtain the top-K ranked results"
//! without scanning every posting element. The contract of this module
//! — verified by property tests — is that the threshold algorithm
//! returns exactly the same top-K as a full sort of the aggregate
//! scores.

use std::collections::{HashMap, HashSet};

use crate::inverted::InvertedIndex;
use crate::types::{DocId, TermId};

/// Per-term score contributions, pre-sorted descending by score — the
/// "relevance order" access path of a traditional ranked index.
#[derive(Debug, Clone)]
pub struct ScoredList {
    by_score: Vec<(DocId, f64)>,
    by_doc: HashMap<DocId, f64>,
}

impl ScoredList {
    /// Builds a list from arbitrary-order (doc, score) pairs.
    pub fn new(mut entries: Vec<(DocId, f64)>) -> Self {
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let by_doc = entries.iter().copied().collect();
        Self {
            by_score: entries,
            by_doc,
        }
    }

    /// Sorted access: the `i`-th best (doc, score) pair.
    pub(crate) fn sorted_access(&self, i: usize) -> Option<(DocId, f64)> {
        self.by_score.get(i).copied()
    }

    /// Random access: the score contribution of `doc` (0 when absent).
    pub(crate) fn random_access(&self, doc: DocId) -> f64 {
        self.by_doc.get(&doc).copied().unwrap_or(0.0)
    }

    /// Number of scored documents.
    pub(crate) fn len(&self) -> usize {
        self.by_score.len()
    }
}

/// One ranked search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedDoc {
    /// The document.
    pub doc: DocId,
    /// Aggregate relevance score (sum over query terms).
    pub score: f64,
}

impl RankedDoc {
    /// The canonical result ordering — score descending, ties broken
    /// by ascending document id. Every ranking path (TA, MaxScore,
    /// the sharded gather merge) sorts by exactly this, which is
    /// what makes their outputs comparable element for element.
    ///
    /// Scores compare by [`f64::total_cmp`]: no ranking path produces
    /// a NaN, and on other scores that is the numeric order (with
    /// `-0.0` below `0.0`).
    pub fn result_order(a: &Self, b: &Self) -> std::cmp::Ordering {
        b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc))
    }

    /// True iff `self` ranks strictly before `other` in
    /// [`RankedDoc::result_order`].
    pub fn ranks_before(&self, other: &Self) -> bool {
        Self::result_order(self, other) == std::cmp::Ordering::Less
    }
}

/// The IDF factor `ln(1 + N / df)` for a term with document frequency
/// `df` in a collection of `collection_size` documents (0 for unseen
/// terms). The single definition every ranking path — [`tfidf_lists`],
/// the client's personalized ranking, the sharded runtime's global
/// weights — must share, or their scores stop being comparable.
pub fn idf(collection_size: usize, df: usize) -> f64 {
    if df > 0 {
        (1.0 + collection_size as f64 / df as f64).ln()
    } else {
        0.0
    }
}

/// Fagin's Threshold Algorithm: returns the top-`k` documents by
/// aggregate score without necessarily scanning entire lists.
///
/// Performs lock-step sorted access over all lists; each newly seen
/// document is fully scored by random access; the scan stops as soon as
/// `k` documents score at least the threshold `τ = Σ_i (last sorted
/// score of list i)`, which upper-bounds every unseen document.
pub fn threshold_topk(lists: &[ScoredList], k: usize) -> Vec<RankedDoc> {
    if k == 0 || lists.is_empty() {
        return Vec::new();
    }
    let mut seen: HashSet<DocId> = HashSet::new();
    let mut results: Vec<RankedDoc> = Vec::new();
    let mut depth = 0usize;
    let max_depth = lists.iter().map(ScoredList::len).max().unwrap_or(0);

    while depth < max_depth {
        let mut threshold = 0.0;
        for list in lists {
            if let Some((doc, score)) = list.sorted_access(depth) {
                threshold += score;
                if seen.insert(doc) {
                    let total: f64 = lists.iter().map(|l| l.random_access(doc)).sum();
                    results.push(RankedDoc { doc, score: total });
                }
            }
        }
        depth += 1;

        // The stopping condition — k docs at or above the threshold for
        // everything not yet seen — cannot fire on a shorter buffer, so
        // only then is the buffer worth sorting.
        if results.len() >= k {
            results.sort_by(RankedDoc::result_order);
            if results[k - 1].score >= threshold {
                break;
            }
        }
    }

    results.sort_by(RankedDoc::result_order);
    results.truncate(k);
    results
}

/// Reference implementation: aggregates every posting and sorts — used
/// to validate [`threshold_topk`] and as the "return all answers" mode
/// Zerber actually ships to clients (the index returns *all* accessible
/// elements; ranking happens locally, Section 7.3).
pub fn naive_topk(lists: &[ScoredList], k: usize) -> Vec<RankedDoc> {
    let mut totals: HashMap<DocId, f64> = HashMap::new();
    for list in lists {
        for &(doc, score) in &list.by_score {
            *totals.entry(doc).or_insert(0.0) += score;
        }
    }
    let mut results: Vec<RankedDoc> = totals
        .into_iter()
        .map(|(doc, score)| RankedDoc { doc, score })
        .collect();
    results.sort_by(RankedDoc::result_order);
    results.truncate(k);
    results
}

/// Builds TF-IDF scored lists for a conjunctive-free ("OR" semantics,
/// like the paper's keyword queries) multi-term query over an index.
///
/// Score contribution of term `t` in document `d`:
/// `tf(t, d) · ln(1 + N / df(t))` with `tf` the normalized term
/// frequency. `N` is the number of documents in the *user-accessible*
/// collection — pass the personalized index (Section 5.4.2).
pub fn tfidf_lists(index: &InvertedIndex, terms: &[TermId]) -> Vec<ScoredList> {
    let n = index.document_count();
    terms
        .iter()
        .map(|&term| {
            let postings = index.posting_list(term);
            let weight = idf(n, postings.len());
            ScoredList::new(
                postings
                    .iter()
                    .map(|p| (p.doc, p.term_frequency() * weight))
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(entries: &[(u32, f64)]) -> ScoredList {
        ScoredList::new(entries.iter().map(|&(d, s)| (DocId(d), s)).collect())
    }

    #[test]
    fn single_list_topk_is_prefix() {
        let l = list(&[(1, 0.9), (2, 0.5), (3, 0.1)]);
        let top = threshold_topk(&[l], 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].doc, DocId(1));
        assert_eq!(top[1].doc, DocId(2));
    }

    #[test]
    fn aggregates_across_lists() {
        // doc 3 is mediocre in both lists but best overall.
        let a = list(&[(1, 1.0), (3, 0.8), (2, 0.1)]);
        let b = list(&[(2, 1.0), (3, 0.8), (1, 0.1)]);
        let top = threshold_topk(&[a, b], 1);
        assert_eq!(top[0].doc, DocId(3));
        assert!((top[0].score - 1.6).abs() < 1e-12);
    }

    #[test]
    fn matches_naive_on_fixed_example() {
        let lists = vec![
            list(&[(1, 0.5), (2, 0.4), (3, 0.3), (4, 0.2)]),
            list(&[(4, 0.9), (2, 0.2), (5, 0.1)]),
            list(&[(5, 0.7), (1, 0.6)]),
        ];
        for k in 1..=6 {
            let fast = threshold_topk(&lists, k);
            let slow = naive_topk(&lists, k);
            assert_eq!(fast.len(), slow.len(), "k = {k}");
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.doc, s.doc);
                assert!((f.score - s.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn k_zero_and_empty_lists() {
        let lists = vec![list(&[(1, 0.5)])];
        assert!(threshold_topk(&lists, 0).is_empty());
        assert!(threshold_topk(&[], 3).is_empty());
        let empty = vec![ScoredList::new(vec![])];
        assert!(threshold_topk(&empty, 3).is_empty());
    }

    #[test]
    fn k_larger_than_corpus_returns_everything() {
        let lists = vec![list(&[(1, 0.5), (2, 0.4)])];
        let top = threshold_topk(&lists, 10);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn ties_break_by_doc_id() {
        let lists = vec![list(&[(5, 0.5), (2, 0.5), (9, 0.5)])];
        let top = threshold_topk(&lists, 3);
        assert_eq!(
            top.iter().map(|r| r.doc.0).collect::<Vec<_>>(),
            vec![2, 5, 9]
        );
    }

    #[test]
    fn tfidf_weights_rare_terms_higher() {
        use crate::doc::Document;
        use crate::types::GroupId;
        let mut index = InvertedIndex::new();
        // term 0 in both docs; term 1 only in doc 2, same counts.
        for (doc, terms) in [
            (1u32, vec![(TermId(0), 1u32)]),
            (2, vec![(TermId(0), 1), (TermId(1), 1)]),
        ] {
            index.insert(&Document::from_term_counts(DocId(doc), GroupId(0), terms));
        }
        let lists = tfidf_lists(&index, &[TermId(0), TermId(1)]);
        let common_idf = lists[0].random_access(DocId(1));
        let rare_idf = lists[1].random_access(DocId(2));
        assert!(rare_idf > 0.0 && common_idf > 0.0);
        // Doc 2 is twice as long, so compare idf via tf-normalized values:
        // tf(doc1, t0) = 1, tf(doc2, t1) = 0.5; idf(t1) > idf(t0) must
        // still make the overall rare contribution competitive.
        assert!(lists[1].random_access(DocId(2)) > lists[0].random_access(DocId(2)));
    }

    #[test]
    fn tfidf_unknown_term_is_empty() {
        let index = InvertedIndex::new();
        let lists = tfidf_lists(&index, &[TermId(7)]);
        assert_eq!(lists[0].len(), 0);
    }
}
