//! Query-confidentiality leakage from posting-list request streams
//! (paper Section 8).
//!
//! "Another interesting question is how to support query
//! confidentiality, even when one server has been compromised and the
//! adversary can view the incoming stream of requests for posting
//! lists. BFM leaks probabilistic information in this situation, while
//! the other merging heuristics are more robust."
//!
//! The adversary sees which merged list each request touches. Her
//! posterior that a request for list `L` targets term `t ∈ L` is
//! `qf_t / Σ_{u∈L} qf_u` under her (assumed accurate) query-frequency
//! background. For a *singleton* list the queried term is identified
//! outright — and BFM/DFM give the most-queried head terms exactly
//! such lists, while UDM never does. We quantify leakage as the
//! expected posterior over the query stream.

use zerber_core::merge::MergePlan;
use zerber_index::cost::QueryWorkload;

/// Leakage metrics for one plan under one query workload.
#[derive(Debug, Clone)]
pub struct QueryLeakageReport {
    /// Expected adversary posterior for the true queried term, over
    /// the query stream (1.0 = every query fully identified).
    pub expected_posterior: f64,
    /// Fraction of the query volume that hits singleton lists (term
    /// identified with certainty).
    pub identified_fraction: f64,
    /// Number of distinct queried terms considered.
    pub queried_terms: usize,
}

/// Computes the leakage of a merge plan against a query workload.
pub fn query_leakage(plan: &MergePlan, workload: &QueryWorkload) -> QueryLeakageReport {
    let mut total_queries = 0.0f64;
    let mut posterior_mass = 0.0f64;
    let mut identified = 0.0f64;
    let mut queried_terms = 0usize;

    // Precompute per-list query mass.
    let list_query_mass: Vec<f64> = plan
        .lists()
        .iter()
        .map(|list| list.iter().map(|&u| workload.frequency(u) as f64).sum())
        .collect();

    for (list_index, list) in plan.lists().iter().enumerate() {
        let mass = list_query_mass[list_index];
        if mass <= 0.0 {
            continue;
        }
        for &term in list {
            let qf = workload.frequency(term) as f64;
            if qf == 0.0 {
                continue;
            }
            queried_terms += 1;
            total_queries += qf;
            // Each of the qf requests for `term` is seen as a request
            // for this list; the adversary's posterior for `term` is
            // its share of the list's query mass.
            posterior_mass += qf * (qf / mass);
            if list.len() == 1 {
                identified += qf;
            }
        }
    }

    QueryLeakageReport {
        expected_posterior: if total_queries == 0.0 {
            0.0
        } else {
            posterior_mass / total_queries
        },
        identified_fraction: if total_queries == 0.0 {
            0.0
        } else {
            identified / total_queries
        },
        queried_terms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zerber_core::merge::MergeConfig;
    use zerber_index::CorpusStats;

    fn setup(m: u32) -> (MergePlan, QueryWorkload) {
        // Zipf corpus where query frequency == document frequency (the
        // adversary's best case).
        let dfs: Vec<u64> = (1..=800u64).map(|r| 1 + 50_000 / r).collect();
        let stats = CorpusStats::from_document_frequencies(dfs.clone());
        let workload = QueryWorkload::from_frequencies(dfs);
        let mut rng = StdRng::seed_from_u64(5);
        let plan = MergePlan::build(MergeConfig::dfm(m), &stats, &mut rng).unwrap();
        (plan, workload)
    }

    #[test]
    fn singleton_lists_identify_their_queries() {
        let (plan, workload) = setup(64);
        let report = query_leakage(&plan, &workload);
        // DFM gives the head terms their own lists; since the head
        // carries most of the query volume, a large share of the
        // stream is fully identified.
        assert!(report.identified_fraction > 0.3, "{report:?}");
        assert!(report.expected_posterior > report.identified_fraction);
    }

    #[test]
    fn udm_is_more_robust_than_dfm() {
        // Section 8: the non-BFM/DFM heuristics are "more robust" for
        // query confidentiality because they have no singleton head.
        let dfs: Vec<u64> = (1..=800u64).map(|r| 1 + 50_000 / r).collect();
        let stats = CorpusStats::from_document_frequencies(dfs.clone());
        let workload = QueryWorkload::from_frequencies(dfs);
        let mut rng = StdRng::seed_from_u64(6);
        let dfm = MergePlan::build(MergeConfig::dfm(64), &stats, &mut rng).unwrap();
        let udm = MergePlan::build(MergeConfig::udm(64), &stats, &mut rng).unwrap();
        let dfm_report = query_leakage(&dfm, &workload);
        let udm_report = query_leakage(&udm, &workload);
        assert!(
            udm_report.identified_fraction < dfm_report.identified_fraction,
            "UDM {udm_report:?} vs DFM {dfm_report:?}"
        );
        assert!(udm_report.expected_posterior < dfm_report.expected_posterior);
    }

    #[test]
    fn single_list_leaks_only_priors() {
        let (plan, workload) = setup(1);
        let report = query_leakage(&plan, &workload);
        assert_eq!(report.identified_fraction, 0.0);
        // Expected posterior equals Σ qf_t^2 / (Σ qf)^2-ish — small.
        assert!(report.expected_posterior < 0.2, "{report:?}");
    }

    #[test]
    fn per_term_posterior_matches_definition() {
        // The expected posterior is the query-weighted mean of each
        // queried term's `qf_t / Σ_{u∈L} qf_u` over its own list.
        let (plan, workload) = setup(32);
        let (mut mass, mut queries) = (0.0f64, 0.0f64);
        for list in plan.lists() {
            let list_qf: f64 = list.iter().map(|&u| workload.frequency(u) as f64).sum();
            for &term in list {
                let qf = workload.frequency(term) as f64;
                if qf > 0.0 {
                    let posterior = qf / list_qf;
                    assert!(posterior > 0.0 && posterior <= 1.0);
                    mass += qf * posterior;
                    queries += qf;
                }
            }
        }
        let report = query_leakage(&plan, &workload);
        assert!((report.expected_posterior - mass / queries).abs() < 1e-12);
    }

    #[test]
    fn unqueried_terms_have_no_posterior() {
        let (plan, _) = setup(8);
        let empty = QueryWorkload::from_frequencies(vec![0; 800]);
        let report = query_leakage(&plan, &empty);
        assert_eq!(report.queried_terms, 0);
        assert_eq!(report.expected_posterior, 0.0);
    }
}
