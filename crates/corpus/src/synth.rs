//! The generic Zipfian document generator.
//!
//! Documents draw their tokens from a Zipf-distributed vocabulary, so
//! the resulting *document frequencies* follow the heavy-tailed shape
//! of the paper's Figure 7. Document lengths are log-normal around a
//! configurable mean — short emails to long reports, as in the
//! enterprise scenarios of Section 2.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zerber_index::{DocId, Document, GroupId, TermId};

use crate::zipf::{standard_normal, ZipfSampler};

/// Parameters of the generic generator.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of documents to generate.
    pub num_docs: usize,
    /// Vocabulary size (number of candidate distinct terms).
    pub vocabulary_size: usize,
    /// Zipf exponent of term popularity (≈1 for natural text).
    pub zipf_exponent: f64,
    /// Mean document length in tokens.
    pub avg_doc_length: usize,
    /// Log-normal spread of document lengths (σ of the underlying
    /// normal; 0 = constant length).
    pub doc_length_sigma: f64,
    /// Number of collaboration groups; documents are assigned
    /// round-robin unless a profile overrides this.
    pub num_groups: u32,
    /// RNG seed — generation is fully deterministic given the config.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            num_docs: 1_000,
            vocabulary_size: 20_000,
            zipf_exponent: 1.0,
            avg_doc_length: 200,
            doc_length_sigma: 0.5,
            num_groups: 10,
            seed: 42,
        }
    }
}

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct SyntheticCorpus {
    /// The processed documents (term ids with counts).
    pub documents: Vec<Document>,
    /// Number of groups documents were spread over.
    pub num_groups: u32,
    /// Size of the vocabulary the generator drew from (actual distinct
    /// terms used may be smaller).
    pub vocabulary_size: usize,
}

impl SyntheticCorpus {
    /// Generates a corpus from the configuration.
    pub fn generate(config: &CorpusConfig) -> Self {
        assert!(config.num_docs > 0, "corpus needs documents");
        assert!(config.num_groups > 0, "corpus needs groups");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let sampler = ZipfSampler::new(config.vocabulary_size, config.zipf_exponent);
        let mut documents = Vec::with_capacity(config.num_docs);
        let mut per_host_sequence = [0u32; DOC_HOST_SLOTS];
        for i in 0..config.num_docs {
            let group = GroupId(i as u32 % config.num_groups);
            let host = doc_host(group) as usize;
            let doc_id = doc_id_for(group, per_host_sequence[host]);
            per_host_sequence[host] += 1;
            documents.push(generate_document(
                doc_id,
                group,
                &sampler,
                config.avg_doc_length,
                config.doc_length_sigma,
                &mut rng,
            ));
        }
        Self {
            documents,
            num_groups: config.num_groups,
            vocabulary_size: config.vocabulary_size,
        }
    }

    /// Builds an inverted index over the whole corpus (bulk path: one
    /// sort per posting list instead of per-document inserts).
    pub fn build_index(&self) -> zerber_index::InvertedIndex {
        zerber_index::InvertedIndex::from_documents(&self.documents)
    }

    /// Per-term document frequencies (term-id indexed, over the full
    /// vocabulary size).
    pub fn document_frequencies(&self) -> Vec<u64> {
        let mut dfs = vec![0u64; self.vocabulary_size];
        for doc in &self.documents {
            for &(term, _) in &doc.terms {
                if let Some(slot) = dfs.get_mut(term.0 as usize) {
                    *slot += 1;
                }
            }
        }
        dfs
    }

    /// Corpus statistics (formula (2) probabilities).
    pub fn statistics(&self) -> zerber_index::CorpusStats {
        zerber_index::CorpusStats::from_document_frequencies(self.document_frequencies())
    }
}

/// Number of distinct host slots in the document id scheme: the
/// default wire codec packs a document id into 26 bits (6-bit host +
/// 20-bit local number), so generators must wrap group ids into this
/// space.
pub(crate) const DOC_HOST_SLOTS: usize = 1 << 6;

/// The host a group's documents live on (host id = group id, wrapped
/// into the 6-bit host space the default wire codec can carry).
pub(crate) fn doc_host(group: GroupId) -> u16 {
    (group.0 as usize % DOC_HOST_SLOTS) as u16
}

/// Derives the document id hosting scheme: each group's documents live
/// on that group's machine (host id = group id, wrapped per
/// [`doc_host`]).
///
/// Because groups 64 apart share a host slot, `sequence` numbers must
/// be allocated **per host** (not per group) or ids collide — the
/// generators in this crate all keep a `DOC_HOST_SLOTS`-sized counter
/// array indexed by [`doc_host`] for exactly this reason.
pub(crate) fn doc_id_for(group: GroupId, sequence: u32) -> DocId {
    DocId::from_parts(doc_host(group), sequence)
}

/// Generates a single document with Zipf-drawn tokens.
pub(crate) fn generate_document<R: Rng + ?Sized>(
    id: DocId,
    group: GroupId,
    sampler: &ZipfSampler,
    avg_len: usize,
    sigma: f64,
    rng: &mut R,
) -> Document {
    let length = sample_length(avg_len, sigma, rng);
    let mut counts: std::collections::HashMap<TermId, u32> = std::collections::HashMap::new();
    for _ in 0..length {
        let term = TermId(sampler.sample(rng) as u32);
        *counts.entry(term).or_insert(0) += 1;
    }
    Document::from_term_counts(id, group, counts.into_iter().collect())
}

/// Log-normal document length with mean `avg_len`, at least 1 token.
pub(crate) fn sample_length<R: Rng + ?Sized>(avg_len: usize, sigma: f64, rng: &mut R) -> usize {
    if sigma <= 0.0 {
        return avg_len.max(1);
    }
    // E[exp(N(μ, σ²))] = exp(μ + σ²/2); solve μ so the mean is avg_len.
    let mu = (avg_len as f64).ln() - sigma * sigma / 2.0;
    let length = (mu + sigma * standard_normal(rng)).exp().round() as usize;
    length.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CorpusConfig {
        CorpusConfig {
            num_docs: 300,
            vocabulary_size: 2_000,
            zipf_exponent: 1.0,
            avg_doc_length: 120,
            doc_length_sigma: 0.4,
            num_groups: 5,
            seed: 7,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticCorpus::generate(&small_config());
        let b = SyntheticCorpus::generate(&small_config());
        assert_eq!(a.documents, b.documents);
    }

    #[test]
    fn different_seeds_differ() {
        let mut config = small_config();
        let a = SyntheticCorpus::generate(&config);
        config.seed = 8;
        let b = SyntheticCorpus::generate(&config);
        assert_ne!(a.documents, b.documents);
    }

    #[test]
    fn groups_are_covered() {
        let corpus = SyntheticCorpus::generate(&small_config());
        let mut seen = std::collections::HashSet::new();
        for doc in &corpus.documents {
            seen.insert(doc.group);
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn mean_length_is_close_to_target() {
        let corpus = SyntheticCorpus::generate(&small_config());
        let mean: f64 = corpus
            .documents
            .iter()
            .map(|d| d.length as f64)
            .sum::<f64>()
            / corpus.documents.len() as f64;
        assert!((mean - 120.0).abs() < 25.0, "mean length {mean}");
    }

    #[test]
    fn document_frequencies_are_zipfian() {
        let corpus = SyntheticCorpus::generate(&CorpusConfig {
            num_docs: 800,
            vocabulary_size: 5_000,
            ..small_config()
        });
        let stats = corpus.statistics();
        let s = stats.zipf_exponent_estimate().expect("enough data");
        // Document-frequency Zipf slope is damped relative to the
        // token-level exponent (head terms saturate at DF = num_docs),
        // but must remain clearly heavy-tailed.
        assert!(s > 0.4 && s < 1.6, "estimated exponent {s}");
    }

    #[test]
    fn doc_ids_encode_group_hosts() {
        let corpus = SyntheticCorpus::generate(&small_config());
        for doc in &corpus.documents {
            assert_eq!(doc.id.host() as u32, doc.group.0 % (1 << 6));
        }
    }

    #[test]
    fn zero_sigma_gives_constant_length() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(sample_length(50, 0.0, &mut rng), 50);
        }
    }

    #[test]
    fn statistics_match_index_statistics() {
        let corpus = SyntheticCorpus::generate(&small_config());
        let via_corpus = corpus.statistics();
        let via_index = corpus.build_index().statistics();
        for t in 0..200u32 {
            assert_eq!(
                via_corpus.document_frequency(TermId(t)),
                via_index.document_frequency(TermId(t)),
                "term {t}"
            );
        }
    }
}
