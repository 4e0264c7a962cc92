//! Web-search query-log generation (Section 7.4.3, Figure 6).
//!
//! "Our query log has 7 million queries and 135,000 distinct query
//! terms. … The most frequent queries constitute nearly the whole
//! query workload. … confidentiality concerns require us to base
//! merging decisions on document frequencies rather than query
//! frequencies. These are correlated, though some frequent terms are
//! rarely queried (e.g., 'although')."
//!
//! The generator draws query terms from a Zipf distribution over a
//! *noisily reordered* document-frequency ranking: with `rank_noise =
//! 0` the query ranking equals the DF ranking; larger values shuffle
//! ranks (log-normally) so that some high-DF terms are rarely queried,
//! exactly the 'although' effect.

use rand::rngs::StdRng;
use rand::SeedableRng;

use zerber_index::cost::QueryWorkload;
use zerber_index::{CorpusStats, TermId};

use crate::zipf::{standard_normal, ZipfSampler};

/// Query-log generator parameters.
#[derive(Debug, Clone)]
pub struct QueryLogConfig {
    /// Number of queries to generate (paper: 7,000,000; default
    /// scaled).
    pub num_queries: usize,
    /// Number of distinct candidate query terms, taken from the head
    /// of the (noisy) document-frequency ranking (paper: 135,000).
    pub distinct_terms: usize,
    /// Mean number of terms per query (paper: 2.45).
    pub mean_terms_per_query: f64,
    /// Zipf exponent of query-term popularity.
    pub zipf_exponent: f64,
    /// Log-normal σ of the DF-rank → QF-rank perturbation; 0 keeps the
    /// rankings identical.
    pub rank_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryLogConfig {
    fn default() -> Self {
        Self {
            num_queries: 100_000,
            distinct_terms: 20_000,
            mean_terms_per_query: 2.45,
            zipf_exponent: 0.9,
            rank_noise: 0.8,
            seed: 1997,
        }
    }
}

/// A generated query log.
#[derive(Debug, Clone)]
pub struct QueryLog {
    /// The queries, each a set of distinct term ids.
    pub queries: Vec<Vec<TermId>>,
    /// Size of the term-id space the workload vector must cover.
    vocabulary_size: usize,
}

/// The noisy query-popularity ranking shared by the flat and shaped
/// generators: the DF ranking, each rank perturbed by a log-normal
/// factor, truncated to the `distinct_terms` head.
fn noisy_query_ranking(
    config: &QueryLogConfig,
    stats: &CorpusStats,
    rng: &mut StdRng,
) -> Vec<TermId> {
    let df_ranking = stats.terms_by_descending_frequency();
    let candidates: Vec<TermId> = df_ranking
        .into_iter()
        .filter(|&t| stats.probability(t) > 0.0)
        .collect();
    let mut keyed: Vec<(f64, TermId)> = candidates
        .iter()
        .enumerate()
        .map(|(df_rank, &term)| {
            let noise = (config.rank_noise * standard_normal(rng)).exp();
            ((df_rank as f64 + 1.0) * noise, term)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    keyed
        .into_iter()
        .map(|(_, t)| t)
        .take(config.distinct_terms)
        .collect()
}

/// Samples `target_len` distinct terms from `pool` under `popularity`,
/// giving up (with fewer terms) after a bounded number of rejections.
fn sample_distinct<R: rand::Rng + ?Sized>(
    pool: &[TermId],
    popularity: &ZipfSampler,
    target_len: usize,
    rng: &mut R,
) -> Vec<TermId> {
    let mut terms: Vec<TermId> = Vec::with_capacity(target_len);
    let mut attempts = 0;
    while terms.len() < target_len && attempts < target_len * 20 {
        let term = pool[popularity.sample(rng)];
        if !terms.contains(&term) {
            terms.push(term);
        }
        attempts += 1;
    }
    terms
}

impl QueryLog {
    /// Generates a log against corpus statistics: query-term popularity
    /// follows a Zipf over the noisy DF ranking.
    pub fn generate(config: &QueryLogConfig, stats: &CorpusStats) -> Self {
        assert!(config.mean_terms_per_query >= 1.0, "queries have >= 1 term");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let query_terms = noisy_query_ranking(config, stats, &mut rng);

        assert!(!query_terms.is_empty(), "no candidate query terms");
        let popularity = ZipfSampler::new(query_terms.len(), config.zipf_exponent);

        let mut queries = Vec::with_capacity(config.num_queries);
        for _ in 0..config.num_queries {
            let extra = crate::zipf::poisson(config.mean_terms_per_query - 1.0, &mut rng);
            let target_len = (1 + extra) as usize;
            queries.push(sample_distinct(
                &query_terms,
                &popularity,
                target_len,
                &mut rng,
            ));
        }

        Self {
            queries,
            vocabulary_size: stats.term_count(),
        }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True iff the log is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Mean terms per query.
    pub fn mean_terms_per_query(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        let total: usize = self.queries.iter().map(Vec::len).sum();
        total as f64 / self.queries.len() as f64
    }

    /// Number of distinct terms appearing in the log.
    pub fn distinct_terms(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for query in &self.queries {
            seen.extend(query.iter().copied());
        }
        seen.len()
    }

    /// Aggregates per-term query frequencies — the `q_j` of formula
    /// (6).
    pub fn workload(&self) -> QueryWorkload {
        let mut frequencies = vec![0u64; self.vocabulary_size];
        for query in &self.queries {
            for term in query {
                if let Some(slot) = frequencies.get_mut(term.0 as usize) {
                    *slot += 1;
                }
            }
        }
        QueryWorkload::from_frequencies(frequencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately small configuration.
    fn tiny() -> QueryLogConfig {
        QueryLogConfig {
            num_queries: 2_000,
            distinct_terms: 500,
            ..QueryLogConfig::default()
        }
    }

    /// Rank correlation (Spearman's ρ over shared terms) between document
    /// frequency and query frequency — used to validate the generator
    /// against the paper's "these are correlated" observation.
    fn df_qf_rank_correlation(stats: &CorpusStats, workload: &QueryWorkload) -> f64 {
        // Collect terms with both signals.
        let mut terms: Vec<TermId> = (0..stats.term_count() as u32)
            .map(TermId)
            .filter(|&t| stats.document_frequency(t) > 0 && workload.frequency(t) > 0)
            .collect();
        let n = terms.len();
        if n < 3 {
            return 0.0;
        }
        let rank_of = |key: &dyn Fn(TermId) -> u64,
                       terms: &[TermId]|
         -> std::collections::HashMap<TermId, f64> {
            let mut sorted = terms.to_vec();
            sorted.sort_by(|&a, &b| key(b).cmp(&key(a)).then(a.0.cmp(&b.0)));
            sorted
                .into_iter()
                .enumerate()
                .map(|(i, t)| (t, i as f64))
                .collect()
        };
        terms.sort_by_key(|t| t.0);
        let df_rank = rank_of(&|t| stats.document_frequency(t), &terms);
        let qf_rank = rank_of(&|t| workload.frequency(t), &terms);
        let d2: f64 = terms
            .iter()
            .map(|t| {
                let d = df_rank[t] - qf_rank[t];
                d * d
            })
            .sum();
        let n = n as f64;
        1.0 - 6.0 * d2 / (n * (n * n - 1.0))
    }

    fn zipf_stats(n: usize) -> CorpusStats {
        let dfs: Vec<u64> = (1..=n as u64).map(|rank| 1 + 50_000 / rank).collect();
        CorpusStats::from_document_frequencies(dfs)
    }

    #[test]
    fn mean_query_length_matches_target() {
        let stats = zipf_stats(2_000);
        let log = QueryLog::generate(&tiny(), &stats);
        let mean = log.mean_terms_per_query();
        assert!((mean - 2.45).abs() < 0.25, "mean terms/query {mean}");
    }

    #[test]
    fn queries_have_distinct_terms() {
        let stats = zipf_stats(2_000);
        let log = QueryLog::generate(&tiny(), &stats);
        for query in &log.queries {
            let mut sorted: Vec<u32> = query.iter().map(|t| t.0).collect();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), query.len());
        }
    }

    #[test]
    fn workload_totals_match_query_terms() {
        let stats = zipf_stats(2_000);
        let log = QueryLog::generate(&tiny(), &stats);
        let expected: u64 = log.queries.iter().map(|q| q.len() as u64).sum();
        assert_eq!(log.workload().total(), expected);
    }

    #[test]
    fn query_frequencies_are_zipfian() {
        // Figure 6: the most frequent queries dominate the workload.
        let stats = zipf_stats(2_000);
        let log = QueryLog::generate(
            &QueryLogConfig {
                num_queries: 20_000,
                ..tiny()
            },
            &stats,
        );
        let workload = log.workload();
        let order = workload.terms_by_descending_frequency();
        let top_decile: u64 = order
            .iter()
            .take(order.len() / 10)
            .map(|&t| workload.frequency(t))
            .sum();
        let total = workload.total();
        assert!(
            top_decile as f64 / total as f64 > 0.5,
            "top 10% of terms carry {}% of the workload",
            100 * top_decile / total
        );
    }

    #[test]
    fn df_and_qf_are_correlated_but_not_identical() {
        let stats = zipf_stats(2_000);
        let log = QueryLog::generate(
            &QueryLogConfig {
                num_queries: 30_000,
                ..tiny()
            },
            &stats,
        );
        let workload = log.workload();
        let rho = df_qf_rank_correlation(&stats, &workload);
        assert!(rho > 0.2, "correlation too weak: {rho}");
        assert!(rho < 0.999, "correlation implausibly perfect: {rho}");
    }

    #[test]
    fn zero_noise_aligns_rankings_tightly() {
        let stats = zipf_stats(1_000);
        let log = QueryLog::generate(
            &QueryLogConfig {
                rank_noise: 0.0,
                num_queries: 30_000,
                distinct_terms: 300,
                ..tiny()
            },
            &stats,
        );
        let rho = df_qf_rank_correlation(&stats, &log.workload());
        assert!(rho > 0.6, "noise-free correlation {rho}");
    }

    #[test]
    fn generation_is_deterministic() {
        let stats = zipf_stats(500);
        let a = QueryLog::generate(&tiny(), &stats);
        let b = QueryLog::generate(&tiny(), &stats);
        assert_eq!(a.queries, b.queries);
    }
}
