//! Posting-list merging heuristics (paper Section 6).
//!
//! Merging must satisfy the r-constraint (formula (5)) on every list
//! while minimizing the expected workload cost `Q` (formula (6)). The
//! paper proves the exact optimization NP-complete (reduction from
//! minimum sum of squares) and proposes three practical heuristics, all
//! driven by *document* frequencies (query frequencies would themselves
//! leak):
//!
//! * **DFM** (depth-first, Algorithm 3) — fixed table size `M`, terms
//!   dealt round-robin into lists until each list's probability mass
//!   exceeds `1/r`;
//! * **BFM** (breadth-first, Algorithm 4) — fixed `r`, lists filled one
//!   after another until each reaches mass `1/r`;
//! * **UDM** (uniform-distribution) — fixed `M`, pure round-robin,
//!   confidentiality computed after the fact (formula (7)).
//!
//! Rare terms below a configurable probability cut-off never enter the
//! public table; they are routed by the public hash of
//! [`MappingTable`] (Section 6.4).

mod bfm;
mod dfm;
mod udm;

pub(crate) use bfm::{breadth_first_merge, breadth_first_merge_with_list_target};
pub(crate) use dfm::depth_first_merge;
pub(crate) use udm::uniform_distribution_merge;

use rand::Rng;

use zerber_index::{CorpusStats, TermId};

use crate::mapping::{MappingTable, PlId};
use crate::rconf;

/// Which merging heuristic to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeHeuristic {
    /// Depth-First Merging (Algorithm 3).
    DepthFirst,
    /// Breadth-First Merging (Algorithm 4).
    BreadthFirst,
    /// Uniform Distribution Merging (Section 6.3).
    Uniform,
}

impl MergeHeuristic {
    /// All heuristics, handy for comparison sweeps.
    pub const ALL: [MergeHeuristic; 3] = [
        MergeHeuristic::DepthFirst,
        MergeHeuristic::BreadthFirst,
        MergeHeuristic::Uniform,
    ];

    /// Short display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            MergeHeuristic::DepthFirst => "DFM",
            MergeHeuristic::BreadthFirst => "BFM",
            MergeHeuristic::Uniform => "UDM",
        }
    }
}

/// What the caller fixes: the table size or the confidentiality level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MergeTarget {
    /// Produce exactly this many merged posting lists. DFM and UDM
    /// take it directly; BFM binary-searches its `r` input to match
    /// (the paper: "we tweaked the input value of r given to the BFM
    /// algorithm so that it would also produce the same number of
    /// lists").
    Lists(u32),
    /// Guarantee this confidentiality level. Only BFM supports a
    /// direct r target ("BFM allows us to specify the confidentiality
    /// value, but the resulting number of posting lists is unknown").
    Confidentiality(f64),
}

/// Full merging configuration.
#[derive(Debug, Clone, Copy)]
pub struct MergeConfig {
    /// The heuristic to run.
    pub heuristic: MergeHeuristic,
    /// Table size or confidentiality target.
    pub target: MergeTarget,
    /// Terms with occurrence probability strictly below this cut-off
    /// are considered *rare*: they never appear in the public mapping
    /// table and are routed by hash (Section 6.4). `0.0` disables hash
    /// merging.
    pub rare_term_cutoff: f64,
}

impl MergeConfig {
    /// A DFM configuration with `m` lists and no hash merging.
    pub fn dfm(m: u32) -> Self {
        Self {
            heuristic: MergeHeuristic::DepthFirst,
            target: MergeTarget::Lists(m),
            rare_term_cutoff: 0.0,
        }
    }

    /// A BFM configuration targeting confidentiality `r`.
    pub fn bfm_r(r: f64) -> Self {
        Self {
            heuristic: MergeHeuristic::BreadthFirst,
            target: MergeTarget::Confidentiality(r),
            rare_term_cutoff: 0.0,
        }
    }

    /// A BFM configuration tweaked to produce `m` lists.
    pub fn bfm_lists(m: u32) -> Self {
        Self {
            heuristic: MergeHeuristic::BreadthFirst,
            target: MergeTarget::Lists(m),
            rare_term_cutoff: 0.0,
        }
    }

    /// A UDM configuration with `m` lists.
    pub fn udm(m: u32) -> Self {
        Self {
            heuristic: MergeHeuristic::Uniform,
            target: MergeTarget::Lists(m),
            rare_term_cutoff: 0.0,
        }
    }

    /// Sets the rare-term hash cut-off.
    pub fn with_rare_term_cutoff(mut self, cutoff: f64) -> Self {
        self.rare_term_cutoff = cutoff;
        self
    }
}

/// Errors from plan construction.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// UDM and DFM need a list-count target.
    NeedsListTarget(MergeHeuristic),
    /// There are no terms to merge.
    EmptyCorpus,
    /// The requested target is unachievable (e.g. more lists than
    /// mergeable terms).
    Unachievable {
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::NeedsListTarget(h) => {
                write!(f, "{} requires MergeTarget::Lists", h.name())
            }
            MergeError::EmptyCorpus => write!(f, "no terms with non-zero probability to merge"),
            MergeError::Unachievable { reason } => write!(f, "unachievable target: {reason}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// The output of a merging heuristic: the public table plus the full
/// term assignment (including hash-routed rare terms) for analysis.
#[derive(Debug, Clone)]
pub struct MergePlan {
    table: MappingTable,
    lists: Vec<Vec<TermId>>,
    masses: Vec<f64>,
}

impl MergePlan {
    /// Runs the configured heuristic over the corpus statistics.
    ///
    /// The RNG is used only by BFM's final redistribution step
    /// ("randomly distribute its terms among the other posting lists")
    /// — DFM and UDM are fully deterministic.
    pub fn build<R: Rng + ?Sized>(
        config: MergeConfig,
        stats: &CorpusStats,
        rng: &mut R,
    ) -> Result<Self, MergeError> {
        // Separate explicit candidates from hash-routed rare terms.
        // Sorting is shared by all three heuristics ("sort terms into
        // descending order, based on p_t").
        let sorted = stats.terms_by_descending_frequency();
        let mut explicit_terms: Vec<TermId> = Vec::new();
        let mut rare_terms: Vec<TermId> = Vec::new();
        for term in sorted {
            let p = stats.probability(term);
            if p <= 0.0 {
                continue; // absent terms do not exist for merging
            }
            if p < config.rare_term_cutoff {
                rare_terms.push(term);
            } else {
                explicit_terms.push(term);
            }
        }
        if explicit_terms.is_empty() && rare_terms.is_empty() {
            return Err(MergeError::EmptyCorpus);
        }

        let probabilities: Vec<f64> = explicit_terms
            .iter()
            .map(|&t| stats.probability(t))
            .collect();

        let explicit_lists: Vec<Vec<TermId>> = match (config.heuristic, config.target) {
            (MergeHeuristic::DepthFirst, MergeTarget::Lists(m)) => {
                depth_first_merge(&explicit_terms, &probabilities, m, m as f64)
            }
            (MergeHeuristic::DepthFirst, MergeTarget::Confidentiality(_)) => {
                return Err(MergeError::NeedsListTarget(MergeHeuristic::DepthFirst));
            }
            (MergeHeuristic::BreadthFirst, MergeTarget::Confidentiality(r)) => {
                breadth_first_merge(&explicit_terms, &probabilities, r, rng)
            }
            (MergeHeuristic::BreadthFirst, MergeTarget::Lists(m)) => {
                breadth_first_merge_with_list_target(&explicit_terms, &probabilities, m, rng)
            }
            (MergeHeuristic::Uniform, MergeTarget::Lists(m)) => {
                uniform_distribution_merge(&explicit_terms, m)
            }
            (MergeHeuristic::Uniform, MergeTarget::Confidentiality(_)) => {
                return Err(MergeError::NeedsListTarget(MergeHeuristic::Uniform));
            }
        };

        if explicit_lists.is_empty() {
            return Err(MergeError::Unachievable {
                reason: "heuristic produced no posting lists".to_owned(),
            });
        }

        // The public hash route is unsalted: every party must compute
        // the same route, and nothing varies it.
        let table = MappingTable::from_lists(&explicit_lists, 0);

        // Route the rare tail through the public hash and fold it into
        // the analytical assignment.
        let mut lists = explicit_lists;
        for term in rare_terms {
            let pl = table.lookup(term);
            lists[pl.0 as usize].push(term);
        }

        let masses: Vec<f64> = lists
            .iter()
            .map(|list| rconf::list_mass(list, stats))
            .collect();

        Ok(Self {
            table,
            lists,
            masses,
        })
    }

    /// The public mapping table.
    pub fn table(&self) -> &MappingTable {
        &self.table
    }

    /// Number of merged posting lists `M`.
    pub fn list_count(&self) -> usize {
        self.lists.len()
    }

    /// The full term assignment (explicit + hash-routed), list-indexed.
    pub fn lists(&self) -> &[Vec<TermId>] {
        &self.lists
    }

    /// Probability mass per list.
    pub fn masses(&self) -> &[f64] {
        &self.masses
    }

    /// Which merged list a term belongs to.
    pub fn list_of(&self, term: TermId) -> PlId {
        self.table.lookup(term)
    }

    /// Achieved confidentiality — formula (7):
    /// `r = 1 / min_L Σ_{t∈L} p_t`.
    pub fn achieved_r(&self) -> f64 {
        self.masses
            .iter()
            .map(|&m| rconf::amplification_bound(m))
            .fold(1.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Zipf-ish document frequencies over `n` terms.
    fn zipf_stats(n: usize) -> CorpusStats {
        let dfs: Vec<u64> = (1..=n as u64).map(|rank| 1 + 100_000 / rank).collect();
        CorpusStats::from_document_frequencies(dfs)
    }

    #[test]
    fn every_heuristic_assigns_every_term_exactly_once() {
        let stats = zipf_stats(500);
        let mut rng = StdRng::seed_from_u64(1);
        for config in [
            MergeConfig::dfm(16),
            MergeConfig::bfm_lists(16),
            MergeConfig::udm(16),
            MergeConfig::bfm_r(64.0),
        ] {
            let plan = MergePlan::build(config, &stats, &mut rng).unwrap();
            let mut seen = vec![false; 500];
            for list in plan.lists() {
                for t in list {
                    assert!(!seen[t.0 as usize], "{config:?} duplicated {t:?}");
                    seen[t.0 as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "{config:?} dropped a term");
        }
    }

    #[test]
    fn dfm_and_udm_hit_exact_list_counts() {
        let stats = zipf_stats(300);
        let mut rng = StdRng::seed_from_u64(2);
        for m in [1u32, 4, 32, 100] {
            let dfm = MergePlan::build(MergeConfig::dfm(m), &stats, &mut rng).unwrap();
            assert_eq!(dfm.list_count(), m as usize);
            let udm = MergePlan::build(MergeConfig::udm(m), &stats, &mut rng).unwrap();
            assert_eq!(udm.list_count(), m as usize);
        }
    }

    #[test]
    fn bfm_respects_its_r_target() {
        let stats = zipf_stats(400);
        let mut rng = StdRng::seed_from_u64(3);
        for r in [2.0f64, 10.0, 50.0] {
            let plan = MergePlan::build(MergeConfig::bfm_r(r), &stats, &mut rng).unwrap();
            assert!(
                plan.achieved_r() <= r * (1.0 + 1e-9),
                "target {r}, achieved {}",
                plan.achieved_r()
            );
        }
    }

    #[test]
    fn bfm_list_target_matches_requested_m() {
        let stats = zipf_stats(400);
        let mut rng = StdRng::seed_from_u64(4);
        for m in [2u32, 8, 32] {
            let plan = MergePlan::build(MergeConfig::bfm_lists(m), &stats, &mut rng).unwrap();
            assert_eq!(plan.list_count(), m as usize, "m = {m}");
        }
    }

    #[test]
    fn single_list_reaches_r_one() {
        let stats = zipf_stats(100);
        let mut rng = StdRng::seed_from_u64(5);
        let plan = MergePlan::build(MergeConfig::dfm(1), &stats, &mut rng).unwrap();
        assert!((plan.achieved_r() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn udm_offers_less_confidentiality_than_dfm_on_zipf() {
        // Table 1 finding: "UDM offers less confidentiality on
        // average" — its min list mass is smaller because it ignores
        // the accumulated probability.
        let stats = zipf_stats(2000);
        let mut rng = StdRng::seed_from_u64(6);
        let m = 64;
        let dfm = MergePlan::build(MergeConfig::dfm(m), &stats, &mut rng).unwrap();
        let udm = MergePlan::build(MergeConfig::udm(m), &stats, &mut rng).unwrap();
        assert!(
            udm.achieved_r() >= dfm.achieved_r(),
            "UDM r = {}, DFM r = {}",
            udm.achieved_r(),
            dfm.achieved_r()
        );
    }

    #[test]
    fn bfm_and_dfm_achieve_similar_r_for_same_m() {
        // Table 1: "For a given number of posting lists, BFM and DFM
        // produce the same r value."
        let stats = zipf_stats(3000);
        let mut rng = StdRng::seed_from_u64(7);
        let m = 128;
        let dfm = MergePlan::build(MergeConfig::dfm(m), &stats, &mut rng).unwrap();
        let bfm = MergePlan::build(MergeConfig::bfm_lists(m), &stats, &mut rng).unwrap();
        let ratio = dfm.achieved_r() / bfm.achieved_r();
        assert!(
            (0.5..=2.0).contains(&ratio),
            "DFM r = {}, BFM r = {}",
            dfm.achieved_r(),
            bfm.achieved_r()
        );
    }

    #[test]
    fn rare_term_cutoff_keeps_tail_out_of_the_table() {
        let stats = zipf_stats(1000);
        let mut rng = StdRng::seed_from_u64(8);
        let cutoff = stats.probability(zerber_index::TermId(49)); // top-50 explicit
        let config = MergeConfig::dfm(16).with_rare_term_cutoff(cutoff);
        let plan = MergePlan::build(config, &stats, &mut rng).unwrap();
        assert!(plan.table().explicit_len() <= 50);
        // All terms still resolve and appear in analysis lists.
        let assigned: usize = plan.lists().iter().map(Vec::len).sum();
        assert_eq!(assigned, 1000);
    }

    #[test]
    fn heuristic_target_mismatches_error() {
        let stats = zipf_stats(10);
        let mut rng = StdRng::seed_from_u64(9);
        let bad_udm = MergeConfig {
            heuristic: MergeHeuristic::Uniform,
            target: MergeTarget::Confidentiality(4.0),
            rare_term_cutoff: 0.0,
        };
        assert!(matches!(
            MergePlan::build(bad_udm, &stats, &mut rng),
            Err(MergeError::NeedsListTarget(MergeHeuristic::Uniform))
        ));
        let bad_dfm = MergeConfig {
            heuristic: MergeHeuristic::DepthFirst,
            target: MergeTarget::Confidentiality(4.0),
            rare_term_cutoff: 0.0,
        };
        assert!(MergePlan::build(bad_dfm, &stats, &mut rng).is_err());
    }

    #[test]
    fn empty_corpus_errors() {
        let stats = CorpusStats::from_document_frequencies(vec![0, 0, 0]);
        let mut rng = StdRng::seed_from_u64(10);
        assert_eq!(
            MergePlan::build(MergeConfig::dfm(4), &stats, &mut rng).unwrap_err(),
            MergeError::EmptyCorpus
        );
    }
}
