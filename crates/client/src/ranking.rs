//! Personalised ranking — the last stage of Algorithm 2.
//!
//! Zerber ranks on the client with *personalized collection
//! statistics* (Section 5.4.2): document frequencies computed over the
//! set of documents the user can access, not the global corpus. By the
//! time the client ranks it holds every matching element decrypted, so
//! there is no list left to avoid scanning, and ranking only has to
//! group the elements by document. One read pass builds the four byte
//! histograms of `doc` and the per-term document frequencies; a stable
//! LSD radix pass per byte that not every element shares (two of four
//! below 65 536 documents) groups each document's elements, in arrival
//! order, under ascending document ids; the boundaries between groups
//! count the documents; a last walk over the groups sums each
//! document's TF-IDF contributions and offers it to the bounded top-k
//! collector. The result is exactly what Fagin's
//! Threshold Algorithm in `zerber_index::topk` returns over per-term
//! scored lists of the same elements — the reference
//! `tests/query_properties.rs` holds this against — down to the bits of
//! the scores, because the contributions are the same products summed
//! in the same (query-term) order.

use zerber_core::{ElementCodec, PostingElement};
use zerber_index::{RankedDoc, TermId, TopKScratch};

/// Personalized collection statistics of one result set: what
/// [`rank`] reads off the elements and weighs with.
#[derive(Debug, Clone, Default)]
pub struct PersonalizedStats {
    /// `(term, df)` per distinct term of the result set. A result set
    /// holds only the query's terms — a handful — so lookups scan.
    document_frequency: Vec<(TermId, usize)>,
    accessible_docs: usize,
}

impl PersonalizedStats {
    /// Counts one element of `term`.
    fn count(&mut self, term: TermId) {
        match self.document_frequency.iter_mut().find(|(t, _)| *t == term) {
            Some((_, df)) => *df += 1,
            None => self.document_frequency.push((term, 1)),
        }
    }

    /// Document frequency of a term within the accessible set.
    pub fn document_frequency(&self, term: TermId) -> usize {
        self.document_frequency
            .iter()
            .find(|(t, _)| *t == term)
            .map_or(0, |&(_, df)| df)
    }

    /// Number of distinct accessible documents.
    pub fn accessible_docs(&self) -> usize {
        self.accessible_docs
    }

    /// Inverse document frequency `ln(1 + N/df)`, 0 for unseen terms.
    pub(crate) fn idf(&self, term: TermId) -> f64 {
        zerber_index::idf(self.accessible_docs, self.document_frequency(term))
    }
}

/// One histogram per byte of a document id, least significant first.
type DocHistograms = [[usize; 256]; 4];

/// Ranks decrypted, ACL-filtered elements with TF-IDF over the
/// personalized collection they form and returns the top `k` under
/// [`RankedDoc::result_order`], with the statistics used.
///
/// A document's score sums one contribution per entry of `terms`, in
/// that order — a repeated query term counts twice, an absent one adds
/// `0.0`. Should a `(doc, term)` pair occur more than once (no honest
/// owner produces that), the lowest `tf_quantized` among them counts.
pub fn rank(
    elements: &[PostingElement],
    codec: &ElementCodec,
    terms: &[TermId],
    k: usize,
) -> (Vec<RankedDoc>, PersonalizedStats) {
    let mut stats = PersonalizedStats::default();
    let mut histograms: DocHistograms = [[0; 256]; 4];
    for element in elements {
        for (histogram, byte) in histograms.iter_mut().zip(element.doc.0.to_le_bytes()) {
            histogram[usize::from(byte)] += 1;
        }
        stats.count(element.term);
    }
    let grouped = group_by_doc(elements, &histograms);
    let boundaries = grouped.windows(2).filter(|pair| pair[0].doc != pair[1].doc);
    stats.accessible_docs = boundaries.count() + usize::from(!grouped.is_empty());
    let weights: Vec<f64> = terms.iter().map(|&term| stats.idf(term)).collect();

    let mut top = TopKScratch::new();
    top.begin(k);
    for document in grouped.chunk_by(|a, b| a.doc == b.doc) {
        let score: f64 = terms
            .iter()
            .zip(&weights)
            .map(|(&term, &weight)| {
                document
                    .iter()
                    .filter(|e| e.term == term)
                    .map(|e| e.tf_quantized)
                    .min()
                    .map_or(0.0, |tf| codec.dequantize_tf(tf) * weight)
            })
            .sum();
        top.offer(document[0].doc, score);
    }
    top.finish();
    (top.take_ranked(), stats)
}

/// `elements` ordered by document id, each document's elements in
/// arrival order: a stable LSD radix sort, one scatter pass per byte of
/// `doc` that some two elements differ in (`histograms` counts every
/// byte's values).
fn group_by_doc(elements: &[PostingElement], histograms: &DocHistograms) -> Vec<PostingElement> {
    let mut grouped = elements.to_vec();
    let mut spare = Vec::new();
    for (digit, histogram) in histograms.iter().enumerate() {
        if histogram.contains(&elements.len()) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut start = 0;
        for (next, &count) in next.iter_mut().zip(histogram) {
            *next = start;
            start += count;
        }
        spare.resize(elements.len(), elements[0]);
        for element in &grouped {
            let slot = &mut next[usize::from(element.doc.0.to_le_bytes()[digit])];
            spare[*slot] = *element;
            *slot += 1;
        }
        std::mem::swap(&mut grouped, &mut spare);
    }
    grouped
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_index::DocId;

    fn element(doc: u32, term: u32, tf_q: u32) -> PostingElement {
        PostingElement {
            doc: DocId(doc),
            term: TermId(term),
            tf_quantized: tf_q,
        }
    }

    fn stats_of(elements: &[PostingElement], terms: &[u32]) -> PersonalizedStats {
        let terms: Vec<TermId> = terms.iter().map(|&t| TermId(t)).collect();
        rank(elements, &ElementCodec::default(), &terms, 10).1
    }

    #[test]
    fn statistics_count_distinct_documents() {
        // Arrival order, not document order: `rank` sorts.
        let elements = vec![
            element(2, 10, 100),
            element(1, 20, 100),
            element(1, 10, 100),
        ];
        let stats = stats_of(&elements, &[10, 20]);
        assert_eq!(stats.accessible_docs(), 2);
        assert_eq!(stats.document_frequency(TermId(10)), 2);
        assert_eq!(stats.document_frequency(TermId(20)), 1);
        assert_eq!(stats.document_frequency(TermId(99)), 0);
    }

    #[test]
    fn rarer_terms_have_higher_idf() {
        let elements = vec![
            element(1, 10, 100),
            element(2, 10, 100),
            element(2, 20, 100),
        ];
        let stats = stats_of(&elements, &[10, 20]);
        assert!(stats.idf(TermId(20)) > stats.idf(TermId(10)));
        assert_eq!(stats.idf(TermId(99)), 0.0);
    }

    #[test]
    fn score_is_tf_times_idf() {
        let codec = ElementCodec::default();
        let elements = vec![element(1, 10, codec.quantize_tf(0.5))];
        let (ranked, _) = rank(&elements, &codec, &[TermId(10)], 1);
        let expected = 0.5 * (1.0f64 + 1.0).ln();
        assert_eq!(ranked[0].doc, DocId(1));
        assert!((ranked[0].score - expected).abs() < 1e-3);
    }

    #[test]
    fn empty_result_set_is_benign() {
        let (ranked, stats) = rank(&[], &ElementCodec::default(), &[TermId(0)], 10);
        assert!(ranked.is_empty());
        assert_eq!(stats.accessible_docs(), 0);
        assert_eq!(stats.idf(TermId(0)), 0.0);
    }

    #[test]
    fn repeated_and_absent_query_terms_follow_query_order() {
        let codec = ElementCodec::default();
        // doc 1 holds term 10 only; doc 2 holds both query terms.
        let elements = vec![
            element(1, 10, 2_000),
            element(2, 10, 1_000),
            element(2, 20, 1_000),
        ];
        let once = rank(&elements, &codec, &[TermId(10), TermId(20)], 10).0;
        let twice = rank(&elements, &codec, &[TermId(10), TermId(20), TermId(10)], 10).0;
        let score = |ranked: &[RankedDoc], doc| {
            ranked
                .iter()
                .find(|r| r.doc == DocId(doc))
                .expect("every matching document is ranked")
                .score
        };
        let idf10 = zerber_index::idf(2, 2);
        let tf = codec.dequantize_tf(2_000);
        assert_eq!(score(&once, 1), tf * idf10 + 0.0);
        assert_eq!(score(&twice, 1), tf * idf10 + 0.0 + tf * idf10);
        // k = 0 keeps nothing, but the statistics are still those of
        // the whole result set.
        let (none, stats) = rank(&elements, &codec, &[TermId(10)], 0);
        assert!(none.is_empty());
        assert_eq!(stats.accessible_docs(), 2);
    }

    #[test]
    fn a_duplicated_pair_counts_its_lowest_frequency() {
        let codec = ElementCodec::default();
        let elements = vec![element(1, 10, 3_000), element(1, 10, 1_000)];
        let (ranked, stats) = rank(&elements, &codec, &[TermId(10)], 10);
        assert_eq!(stats.document_frequency(TermId(10)), 2);
        let expected = codec.dequantize_tf(1_000) * zerber_index::idf(1, 2);
        assert_eq!(ranked[0].score.to_bits(), expected.to_bits());
    }

    #[test]
    fn grouping_keeps_arrival_order_within_a_document() {
        // Ids differing only in bytes 0 and 3, interleaved in arrival
        // order.
        let elements = vec![
            element(0x0100_0002, 1, 1),
            element(2, 1, 2),
            element(0x0100_0002, 2, 3),
            element(1, 1, 4),
            element(2, 2, 5),
        ];
        let mut histograms: DocHistograms = [[0; 256]; 4];
        for e in &elements {
            for (histogram, byte) in histograms.iter_mut().zip(e.doc.0.to_le_bytes()) {
                histogram[usize::from(byte)] += 1;
            }
        }
        let order: Vec<u32> = group_by_doc(&elements, &histograms)
            .iter()
            .map(|e| e.tf_quantized)
            .collect();
        assert_eq!(order, [4, 2, 5, 1, 3]);
    }
}
