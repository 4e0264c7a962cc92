//! The ODP-like corpus profile.
//!
//! Section 7.4.2: "We used a collection from the Open Directory
//! Project … with 237,000 documents and 987,700 distinct terms. The
//! crawler's strategy was to find pages on a variety of topics, such
//! that 100 topics were randomly selected; we used the set of documents
//! on one topic as the set of documents of one group."
//!
//! The generator reproduces the two features the evaluation depends
//! on: a global Zipfian document-frequency distribution (Figure 7b) and
//! topical grouping — each group has a preferred slice of the
//! vocabulary so that groups are *about* something, like ODP topics.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zerber_index::{Document, GroupId, TermId};

use crate::synth::{doc_id_for, sample_length};
use crate::zipf::ZipfSampler;

/// ODP-profile parameters. Defaults are a laptop-scale rendering of the
/// paper's corpus (same shape, smaller axes); set `num_docs: 237_000`
/// and `vocabulary_size: 987_700` for paper scale.
#[derive(Debug, Clone)]
pub struct OdpConfig {
    /// Number of documents.
    pub num_docs: usize,
    /// Global vocabulary size.
    pub vocabulary_size: usize,
    /// Number of topic groups (paper: 100).
    pub num_topics: u32,
    /// Zipf exponent of the global vocabulary.
    pub zipf_exponent: f64,
    /// Mean document length in tokens.
    pub avg_doc_length: usize,
    /// Log-normal length spread.
    pub doc_length_sigma: f64,
    /// Probability that a token is drawn from the topic's local
    /// vocabulary slice instead of the global distribution.
    pub topic_affinity: f64,
    /// Size of each topic's local vocabulary slice.
    pub topic_vocabulary: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OdpConfig {
    fn default() -> Self {
        Self {
            num_docs: 20_000,
            vocabulary_size: 120_000,
            num_topics: 100,
            zipf_exponent: 1.05,
            avg_doc_length: 250,
            doc_length_sigma: 0.6,
            topic_affinity: 0.3,
            topic_vocabulary: 1_000,
            seed: 2008,
        }
    }
}

/// A generated ODP-like corpus.
#[derive(Debug, Clone)]
pub struct OdpCorpus {
    /// The documents; `doc.group` is the topic.
    pub documents: Vec<Document>,
    /// Number of topics.
    pub num_topics: u32,
    /// Vocabulary size the generator drew from.
    pub vocabulary_size: usize,
}

impl OdpCorpus {
    /// Generates the corpus.
    pub fn generate(config: &OdpConfig) -> Self {
        assert!(config.num_topics > 0, "need at least one topic");
        assert!(
            (0.0..=1.0).contains(&config.topic_affinity),
            "topic affinity is a probability"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let global = ZipfSampler::new(config.vocabulary_size, config.zipf_exponent);
        let local = ZipfSampler::new(
            config.topic_vocabulary.min(config.vocabulary_size),
            config.zipf_exponent,
        );

        // Each topic's local slice starts at a random offset in the
        // tail half of the vocabulary, so topical terms are
        // mid-to-low-frequency globally (like real topic jargon).
        let tail_start = config.vocabulary_size / 2;
        let topic_offsets: Vec<usize> = (0..config.num_topics)
            .map(|_| {
                tail_start
                    + rng.random_range(
                        0..config
                            .vocabulary_size
                            .saturating_sub(tail_start + config.topic_vocabulary)
                            .max(1),
                    )
            })
            .collect();

        let mut documents = Vec::with_capacity(config.num_docs);
        // Sequence numbers are allocated per *host* slot, not per
        // topic: topics 64 apart share a host (see `doc_host`), so
        // per-topic counters would hand out colliding document ids
        // once `num_topics > 64`.
        let mut per_host_sequence = [0u32; crate::synth::DOC_HOST_SLOTS];
        for i in 0..config.num_docs {
            let topic = (i as u32) % config.num_topics;
            let group = GroupId(topic);
            let host = crate::synth::doc_host(group) as usize;
            let sequence = per_host_sequence[host];
            per_host_sequence[host] += 1;
            let length = sample_length(config.avg_doc_length, config.doc_length_sigma, &mut rng);
            let mut counts: std::collections::HashMap<TermId, u32> =
                std::collections::HashMap::new();
            for _ in 0..length {
                let term = if rng.random::<f64>() < config.topic_affinity {
                    TermId((topic_offsets[topic as usize] + local.sample(&mut rng)) as u32)
                } else {
                    TermId(global.sample(&mut rng) as u32)
                };
                *counts.entry(term).or_insert(0) += 1;
            }
            documents.push(Document::from_term_counts(
                doc_id_for(group, sequence),
                group,
                counts.into_iter().collect(),
            ));
        }
        Self {
            documents,
            num_topics: config.num_topics,
            vocabulary_size: config.vocabulary_size,
        }
    }

    /// Per-term document frequencies over the full vocabulary.
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

    /// Corpus statistics (formula (2)).
    pub fn statistics(&self) -> zerber_index::CorpusStats {
        zerber_index::CorpusStats::from_document_frequencies(self.document_frequencies())
    }

    /// Statistics learned from only the first `fraction` of documents —
    /// the paper learns merging from "the first 30% of the documents"
    /// (Section 7.5).
    pub fn prefix_statistics(&self, fraction: f64) -> zerber_index::CorpusStats {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0, 1]");
        let prefix = ((self.documents.len() as f64) * fraction).round() as usize;
        let mut dfs = vec![0u64; self.vocabulary_size];
        for doc in &self.documents[..prefix] {
            for &(term, _) in &doc.terms {
                if let Some(slot) = dfs.get_mut(term.0 as usize) {
                    *slot += 1;
                }
            }
        }
        zerber_index::CorpusStats::from_document_frequencies(dfs)
    }

    /// Builds an inverted index over the whole corpus (bulk path: one
    /// sort per posting list instead of per-document inserts).
    pub fn build_index(&self) -> zerber_index::InvertedIndex {
        zerber_index::InvertedIndex::from_documents(&self.documents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately small configuration.
    fn tiny() -> OdpConfig {
        OdpConfig {
            num_docs: 400,
            vocabulary_size: 6_000,
            num_topics: 10,
            avg_doc_length: 80,
            topic_vocabulary: 200,
            ..OdpConfig::default()
        }
    }

    /// Regression: with more than 64 topics the old 6-bit host wrap in
    /// `doc_id_for` aliased topic 64+ ids onto topic 0+, producing
    /// duplicate document ids at the default ODP scale (100 topics)
    /// that doc-level shadowing then silently dropped during ingest.
    #[test]
    fn document_ids_are_unique_above_64_topics() {
        let corpus = OdpCorpus::generate(&OdpConfig {
            num_docs: 2_000,
            num_topics: 100,
            ..tiny()
        });
        let mut ids: Vec<u32> = corpus.documents.iter().map(|d| d.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), corpus.documents.len());
    }

    #[test]
    fn every_topic_gets_documents() {
        let corpus = OdpCorpus::generate(&tiny());
        let mut counts = [0usize; 10];
        for doc in &corpus.documents {
            counts[doc.group.0 as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 40));
    }

    #[test]
    fn frequencies_are_heavy_tailed() {
        let corpus = OdpCorpus::generate(&tiny());
        let stats = corpus.statistics();
        let sorted = stats.terms_by_descending_frequency();
        let top = stats.probability(sorted[0]);
        let mid = stats.probability(sorted[sorted.len() / 4]);
        assert!(top > 20.0 * mid.max(1e-9), "top {top}, mid {mid}");
    }

    #[test]
    fn topic_vocabulary_is_group_specific() {
        // Terms from a topic's slice should be much more frequent in
        // that topic's documents than in others'.
        let config = tiny();
        let corpus = OdpCorpus::generate(&config);
        // Find, for each of two topics, the most frequent term that is
        // NOT in the global head (rank >= vocab/2 => topical slice).
        let head_cutoff = (config.vocabulary_size / 2) as u32;
        let topical_mass = |topic: u32| -> f64 {
            let docs: Vec<&Document> = corpus
                .documents
                .iter()
                .filter(|d| d.group.0 == topic)
                .collect();
            let tokens: u64 = docs.iter().map(|d| d.length as u64).sum();
            let topical: u64 = docs
                .iter()
                .flat_map(|d| d.terms.iter())
                .filter(|(t, _)| t.0 >= head_cutoff)
                .map(|&(_, c)| c as u64)
                .sum();
            topical as f64 / tokens as f64
        };
        // Topic affinity 0.3 means ~30%+ of tokens are topical.
        assert!(topical_mass(0) > 0.15);
        assert!(topical_mass(5) > 0.15);
    }

    #[test]
    fn prefix_statistics_cover_fewer_documents() {
        let corpus = OdpCorpus::generate(&tiny());
        let full = corpus.statistics();
        let prefix = corpus.prefix_statistics(0.3);
        assert!(prefix.total_document_frequency() < full.total_document_frequency());
        assert!(prefix.total_document_frequency() > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = OdpCorpus::generate(&tiny());
        let b = OdpCorpus::generate(&tiny());
        assert_eq!(a.documents, b.documents);
    }
}
