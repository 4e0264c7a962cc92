//! The μ-Serv baseline (paper Section 3, reference \[3\]).
//!
//! "μ-Serv has a centralized index based on a Bloom filter; it
//! responds to a keyword search by returning a list of sites that have
//! at least x% probability of having documents containing one of the
//! query keywords … Users then repeat their query at each suggested
//! site. The lack of precision in results from the central index
//! represents a tradeoff between search efficiency and confidentiality
//! preservation. … For example, if x = 5%, the user must query 20
//! times as many sites to get the relevant results."
//!
//! We model the per-site term Bloom filters directly: a higher
//! false-positive rate (lower x) hides more but wastes more per-site
//! queries. The per-site search itself reuses the shotgun machinery.

use std::collections::HashMap;

use zerber_index::{BloomFilter, CentralIndex, Document, GroupId, RankedDoc, TermId, UserId};

/// Query accounting for the μ-Serv comparison.
#[derive(Debug, Clone)]
pub struct MuServOutcome {
    /// Combined ranked results from the candidate sites.
    pub ranked: Vec<RankedDoc>,
    /// Sites the central index flagged as candidates (each costs a
    /// follow-up query).
    pub candidate_sites: usize,
    /// Candidate sites that actually held accessible matches.
    pub sites_with_hits: usize,
    /// Total sites registered.
    pub total_sites: usize,
}

/// A μ-Serv-style deployment: one Bloom filter per site at the
/// central index, full per-site indexes at the owners.
#[derive(Debug)]
pub struct MuServIndex {
    filters: HashMap<u16, BloomFilter>,
    sites: HashMap<u16, CentralIndex>,
    expected_terms_per_site: usize,
    false_positive_rate: f64,
}

impl MuServIndex {
    /// Creates a deployment whose per-site filters target the given
    /// false-positive rate (the μ-Serv `x%` precision knob).
    pub fn new(expected_terms_per_site: usize, false_positive_rate: f64) -> Self {
        Self {
            filters: HashMap::new(),
            sites: HashMap::new(),
            expected_terms_per_site,
            false_positive_rate,
        }
    }

    /// Indexes a batch of documents: per-site grouping, one Bloom
    /// insert pass, and a bulk merge into each site's index
    /// (`CentralIndex::insert_batch`) — the non-quadratic construction
    /// path for corpus-scale deployments.
    pub fn insert_batch(&mut self, docs: &[Document]) {
        let mut per_site: HashMap<u16, Vec<Document>> = HashMap::new();
        for doc in docs {
            per_site.entry(doc.id.host()).or_default().push(doc.clone());
        }
        for (host, site_docs) in per_site {
            let filter = self.filters.entry(host).or_insert_with(|| {
                BloomFilter::with_false_positive_rate(
                    self.expected_terms_per_site,
                    self.false_positive_rate,
                )
            });
            for doc in &site_docs {
                for &(term, _) in &doc.terms {
                    filter.insert(&term.0.to_le_bytes());
                }
            }
            self.sites.entry(host).or_default().insert_batch(&site_docs);
        }
    }

    /// Grants a membership at every site.
    pub fn add_user_to_group(&mut self, user: UserId, group: GroupId) {
        for site in self.sites.values_mut() {
            site.add_user_to_group(user, group);
        }
    }

    /// Central-index lookup only: which sites *might* hold any of the
    /// query terms.
    pub fn candidate_sites(&self, terms: &[TermId]) -> Vec<u16> {
        let mut candidates: Vec<u16> = self
            .filters
            .iter()
            .filter(|(_, filter)| terms.iter().any(|t| filter.contains(&t.0.to_le_bytes())))
            .map(|(&host, _)| host)
            .collect();
        candidates.sort_unstable();
        candidates
    }

    /// Full two-phase query: central Bloom lookup, then per-candidate
    /// site queries, then client-side merge.
    pub fn query(&self, user: UserId, terms: &[TermId], k: usize) -> MuServOutcome {
        let candidates = self.candidate_sites(terms);
        let mut combined: Vec<RankedDoc> = Vec::new();
        let mut sites_with_hits = 0usize;
        for host in &candidates {
            let hits = self.sites[host].search(user, terms, usize::MAX);
            if !hits.is_empty() {
                sites_with_hits += 1;
            }
            combined.extend(hits);
        }
        combined.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then(a.doc.cmp(&b.doc))
        });
        combined.truncate(k);
        MuServOutcome {
            ranked: combined,
            candidate_sites: candidates.len(),
            sites_with_hits,
            total_sites: self.sites.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_index::DocId;

    fn doc(host: u16, local: u32, terms: &[u32]) -> Document {
        Document::from_term_counts(
            DocId::from_parts(host, local),
            GroupId(0),
            terms.iter().map(|&t| (TermId(t), 1)).collect(),
        )
    }

    fn deployment(fp_rate: f64) -> MuServIndex {
        let mut muserv = MuServIndex::new(100, fp_rate);
        // Each site holds one doc with a site-specific term.
        let docs: Vec<Document> = (0..20u16)
            .map(|host| doc(host, 0, &[1000 + host as u32]))
            .collect();
        muserv.insert_batch(&docs);
        muserv.add_user_to_group(UserId(1), GroupId(0));
        muserv
    }

    #[test]
    fn precise_filters_prune_most_sites() {
        let muserv = deployment(0.001);
        let outcome = muserv.query(UserId(1), &[TermId(1005)], 10);
        assert_eq!(outcome.ranked.len(), 1);
        assert!(
            outcome.candidate_sites <= 3,
            "expected few candidates, got {}",
            outcome.candidate_sites
        );
        assert_eq!(outcome.sites_with_hits, 1);
    }

    #[test]
    fn results_are_exact_despite_filter_noise() {
        // False positives cost extra site queries but never wrong
        // results — the per-site index is exact.
        let muserv = deployment(0.3);
        let outcome = muserv.query(UserId(1), &[TermId(1005)], 10);
        assert_eq!(outcome.ranked.len(), 1);
        assert_eq!(outcome.ranked[0].doc, DocId::from_parts(5, 0));
    }

    #[test]
    fn higher_fp_rate_means_more_candidate_sites() {
        let precise = deployment(0.001);
        let sloppy = deployment(0.5);
        let term = [TermId(1005)];
        assert!(sloppy.candidate_sites(&term).len() >= precise.candidate_sites(&term).len());
    }

    #[test]
    fn absent_terms_hit_no_real_site() {
        let muserv = deployment(0.01);
        let outcome = muserv.query(UserId(1), &[TermId(999_999)], 10);
        assert!(outcome.ranked.is_empty());
        assert_eq!(outcome.sites_with_hits, 0);
    }

    #[test]
    fn batch_build_matches_per_doc_inserts() {
        let docs: Vec<Document> = (0..50u32)
            .map(|i| doc((i % 5) as u16, i, &[1000 + i % 12, 2000]))
            .collect();
        let mut batched = MuServIndex::new(100, 0.01);
        batched.insert_batch(&docs);
        let mut looped = MuServIndex::new(100, 0.01);
        for d in &docs {
            looped.insert_batch(std::slice::from_ref(d));
        }
        batched.add_user_to_group(UserId(1), GroupId(0));
        looped.add_user_to_group(UserId(1), GroupId(0));
        assert_eq!(batched.sites.len(), looped.sites.len());
        for term in [1000u32, 1005, 2000, 9999] {
            // Identical Bloom state (same per-site insert sequence per
            // filter) and identical indexes ⇒ identical answers.
            assert_eq!(
                batched.candidate_sites(&[TermId(term)]),
                looped.candidate_sites(&[TermId(term)]),
                "candidates for {term}"
            );
            assert_eq!(
                batched.query(UserId(1), &[TermId(term)], 30).ranked,
                looped.query(UserId(1), &[TermId(term)], 30).ranked,
                "ranked for {term}"
            );
        }
    }

    #[test]
    fn acl_still_applies_at_sites() {
        let mut muserv = MuServIndex::new(10, 0.01);
        muserv.insert_batch(&[doc(0, 0, &[7])]);
        // No membership granted.
        let outcome = muserv.query(UserId(9), &[TermId(7)], 10);
        assert!(outcome.ranked.is_empty());
        assert!(
            outcome.candidate_sites >= 1,
            "site flagged but inaccessible"
        );
    }
}
