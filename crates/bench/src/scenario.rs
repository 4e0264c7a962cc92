//! Shared experiment scenarios.
//!
//! The paper's evaluation uses one ODP crawl + one web query log for
//! Figures 6–12 and Table 1, and the Stud IP snapshot for Figures 5
//! and 7a. This module materializes the synthetic equivalents once per
//! process (they are deterministic) at two scales.

use std::sync::OnceLock;

use zerber_corpus::{OdpConfig, OdpCorpus, QueryLog, QueryLogConfig};
use zerber_index::cost::QueryWorkload;
use zerber_index::CorpusStats;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale defaults: 200k documents, a 120k-term vocabulary,
    /// 200k queries. Same distributional shape as the paper.
    Default,
    /// Smoke-test scale for CI and unit tests.
    Smoke,
}

impl Scale {
    /// The merged-list counts swept in the paper (Table 1, Figures
    /// 7–11). At smoke scale the sweep shrinks proportionally.
    pub(crate) fn list_counts(self) -> Vec<u32> {
        match self {
            Scale::Default => vec![1_024, 2_048, 4_096, 32_768],
            Scale::Smoke => vec![64, 128, 256, 1_024],
        }
    }

    fn odp_config(self) -> OdpConfig {
        match self {
            Scale::Default => OdpConfig {
                num_docs: 200_000,
                vocabulary_size: 120_000,
                num_topics: 100,
                ..OdpConfig::default()
            },
            Scale::Smoke => OdpConfig {
                num_docs: 1_500,
                vocabulary_size: 15_000,
                num_topics: 20,
                avg_doc_length: 100,
                ..OdpConfig::default()
            },
        }
    }

    fn querylog_config(self) -> QueryLogConfig {
        match self {
            Scale::Default => QueryLogConfig {
                num_queries: 200_000,
                distinct_terms: 40_000,
                ..QueryLogConfig::default()
            },
            Scale::Smoke => QueryLogConfig {
                num_queries: 10_000,
                distinct_terms: 4_000,
                ..QueryLogConfig::default()
            },
        }
    }
}

/// The materialized ODP scenario: corpus, statistics and query
/// workload.
pub(crate) struct OdpScenario {
    /// The corpus.
    pub corpus: OdpCorpus,
    /// Full-corpus statistics.
    pub stats: CorpusStats,
    /// Statistics learned from the first 30% of documents (the
    /// paper's merging input, Section 7.5).
    pub learned_stats: CorpusStats,
    /// Per-term document frequencies.
    pub dfs: Vec<u64>,
    /// Aggregated query-term frequencies.
    pub workload: QueryWorkload,
}

impl OdpScenario {
    /// Builds the scenario (expensive; prefer [`OdpScenario::shared`]).
    pub(crate) fn build(scale: Scale) -> Self {
        let corpus = OdpCorpus::generate(&scale.odp_config());
        let stats = corpus.statistics();
        let learned_stats = corpus.prefix_statistics(0.3);
        let dfs = corpus.document_frequencies();
        let workload = QueryLog::generate(&scale.querylog_config(), &stats).workload();
        Self {
            corpus,
            stats,
            learned_stats,
            dfs,
            workload,
        }
    }

    /// Process-wide cached scenario for the given scale.
    pub(crate) fn shared(scale: Scale) -> &'static OdpScenario {
        static DEFAULT: OnceLock<OdpScenario> = OnceLock::new();
        static SMOKE: OnceLock<OdpScenario> = OnceLock::new();
        match scale {
            Scale::Default => DEFAULT.get_or_init(|| OdpScenario::build(scale)),
            Scale::Smoke => SMOKE.get_or_init(|| OdpScenario::build(scale)),
        }
    }

    /// Number of distinct terms actually present.
    pub(crate) fn distinct_terms(&self) -> usize {
        self.dfs.iter().filter(|&&df| df > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenario_is_consistent() {
        let scenario = OdpScenario::shared(Scale::Smoke);
        assert_eq!(scenario.corpus.documents.len(), 1_500);
        assert!(scenario.distinct_terms() > 1_000);
        // Every one of the 10 000 queries has at least one term.
        assert!(scenario.workload.total() >= 10_000);
        assert!(
            scenario.learned_stats.total_document_frequency()
                < scenario.stats.total_document_frequency()
        );
    }

    #[test]
    fn shared_returns_the_same_instance() {
        let a = OdpScenario::shared(Scale::Smoke) as *const _;
        let b = OdpScenario::shared(Scale::Smoke) as *const _;
        assert_eq!(a, b);
    }
}
