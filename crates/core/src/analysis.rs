//! Quantitative analysis of a merge plan — the machinery behind
//! Figures 8–12 and Table 1 of the paper.
//!
//! * per-term **amplification** (Figure 9): how much an element of the
//!   merged list boosts the adversary's posterior over the prior,
//! * **QRatio** (formula (8), Figure 10): merged vs unmerged workload
//!   cost attributable to a term,
//! * **QRatio_eff** (formula (9), Figure 11): fraction of a merged
//!   list's elements that actually answer the query term,
//! * **response size** (Figure 12): total posting elements per merged
//!   list.

use zerber_index::cost::{unmerged_workload_cost, QueryWorkload};
use zerber_index::{CorpusStats, TermId};

use crate::merge::MergePlan;

/// Per-term probability amplification under a plan:
/// `(p_t / Σ_{u∈L(t)} p_u) / p_t = 1 / mass(L(t))` — the quantity
/// plotted in Figure 9 (all terms of one list share the same value).
///
/// Terms with zero prior probability get amplification 1 (the index
/// cannot amplify a prior of zero — Definition 1's ratio is taken over
/// terms the adversary deems possible).
pub(crate) fn term_amplification(plan: &MergePlan, stats: &CorpusStats, term: TermId) -> f64 {
    if stats.probability(term) <= 0.0 {
        return 1.0;
    }
    let mass = plan.masses()[plan.list_of(term).0 as usize];
    crate::rconf::amplification_bound(mass)
}

/// Amplifications for every term in descending-frequency order,
/// restricted to the `limit` most frequent terms (Figure 9 plots the
/// top 1,000).
pub fn amplification_profile(
    plan: &MergePlan,
    stats: &CorpusStats,
    limit: usize,
) -> Vec<(TermId, f64)> {
    stats
        .terms_by_descending_frequency()
        .into_iter()
        .filter(|&t| stats.probability(t) > 0.0)
        .take(limit)
        .map(|t| (t, term_amplification(plan, stats, t)))
        .collect()
}

/// QRatio(t) — formula (8): the workload cost of term `t`'s merged
/// list relative to the cost `t` would incur unmerged:
///
/// `QRatio(t) = (Σ_{u∈L} DF_u · Σ_{u∈L} qf_u) / (DF_t · qf_t)`.
///
/// Returns `None` when the term has zero document or query frequency
/// (the unmerged cost is zero, so the ratio is undefined).
pub fn qratio(
    plan: &MergePlan,
    dfs: &[u64],
    workload: &QueryWorkload,
    term: TermId,
) -> Option<f64> {
    let df_t = *dfs.get(term.0 as usize)? as f64;
    let qf_t = workload.frequency(term) as f64;
    if df_t == 0.0 || qf_t == 0.0 {
        return None;
    }
    let list = &plan.lists()[plan.list_of(term).0 as usize];
    let mut df_sum: f64 = list
        .iter()
        .map(|u| *dfs.get(u.0 as usize).unwrap_or(&0) as f64)
        .sum();
    let mut qf_sum: f64 = list.iter().map(|u| workload.frequency(*u) as f64).sum();
    // A term unseen while learning the plan (it arrived after the
    // merge was built) is hash-routed into this list but is not a
    // member of the analytical list; its own postings still land here.
    if !list.contains(&term) {
        df_sum += df_t;
        qf_sum += qf_t;
    }
    Some(df_sum * qf_sum / (df_t * qf_t))
}

/// QRatio_eff(t) — formula (9): the fraction of posting elements in
/// `t`'s merged list that belong to `t`:
/// `QRatio_eff(t) = DF_t / Σ_{u∈L} DF_u`. 1.0 means a query for `t`
/// downloads no false positives.
pub fn qratio_eff(plan: &MergePlan, dfs: &[u64], term: TermId) -> Option<f64> {
    let df_t = *dfs.get(term.0 as usize)? as f64;
    if df_t == 0.0 {
        return None;
    }
    let list = &plan.lists()[plan.list_of(term).0 as usize];
    let mut df_sum: f64 = list
        .iter()
        .map(|u| *dfs.get(u.0 as usize).unwrap_or(&0) as f64)
        .sum();
    if !list.contains(&term) {
        df_sum += df_t; // see qratio: late terms are hash-routed here
    }
    Some(df_t / df_sum)
}

/// Response size of each merged list in posting elements: "the sum of
/// document frequencies of the terms in a merged posting list"
/// (Figure 12).
pub fn response_sizes(plan: &MergePlan, dfs: &[u64]) -> Vec<u64> {
    plan.lists()
        .iter()
        .map(|list| {
            list.iter()
                .map(|t| *dfs.get(t.0 as usize).unwrap_or(&0))
                .sum()
        })
        .collect()
}

/// Total workload cost `Q` of the merged index (formula (6)).
pub(crate) fn merged_workload_cost(
    plan: &MergePlan,
    dfs: &[u64],
    workload: &QueryWorkload,
) -> u128 {
    zerber_index::cost::workload_cost(plan.lists(), dfs, workload)
}

/// Overall cost inflation of the plan: merged `Q` over the unmerged
/// cost — a single-number summary of Figure 10's trade-off.
pub fn cost_inflation(plan: &MergePlan, dfs: &[u64], workload: &QueryWorkload) -> f64 {
    let unmerged = unmerged_workload_cost(dfs, workload);
    if unmerged == 0 {
        return 1.0;
    }
    merged_workload_cost(plan, dfs, workload) as f64 / unmerged as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{MergeConfig, MergePlan};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tid(v: u32) -> TermId {
        TermId(v)
    }

    fn fixture() -> (MergePlan, CorpusStats, Vec<u64>, QueryWorkload) {
        let dfs: Vec<u64> = vec![1000, 500, 100, 50, 10, 5, 2, 1];
        let stats = CorpusStats::from_document_frequencies(dfs.clone());
        let mut rng = StdRng::seed_from_u64(99);
        let plan = MergePlan::build(MergeConfig::udm(2), &stats, &mut rng).unwrap();
        let workload = QueryWorkload::from_frequencies(vec![800, 400, 90, 40, 9, 4, 2, 1]);
        (plan, stats, dfs, workload)
    }

    #[test]
    fn amplification_is_inverse_list_mass() {
        let (plan, stats, _, _) = fixture();
        for t in 0..8u32 {
            let amp = term_amplification(&plan, &stats, tid(t));
            let mass = plan.masses()[plan.list_of(tid(t)).0 as usize];
            assert!((amp - 1.0 / mass).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_probability_terms_have_unit_amplification() {
        let dfs = vec![10, 0];
        let stats = CorpusStats::from_document_frequencies(dfs);
        let mut rng = StdRng::seed_from_u64(1);
        let plan = MergePlan::build(MergeConfig::udm(1), &stats, &mut rng).unwrap();
        assert_eq!(term_amplification(&plan, &stats, tid(1)), 1.0);
    }

    #[test]
    fn amplification_profile_is_sorted_and_limited() {
        let (plan, stats, _, _) = fixture();
        let profile = amplification_profile(&plan, &stats, 3);
        assert_eq!(profile.len(), 3);
        assert_eq!(profile[0].0, tid(0)); // most frequent first
    }

    #[test]
    fn qratio_formula_matches_hand_computation() {
        let (plan, _, dfs, workload) = fixture();
        // UDM(2): list0 = {0, 2, 4, 6}, list1 = {1, 3, 5, 7}.
        let term = tid(2);
        let list = &plan.lists()[plan.list_of(term).0 as usize];
        let df_sum: u64 = list.iter().map(|t| dfs[t.0 as usize]).sum();
        let qf_sum: u64 = list.iter().map(|t| workload.frequency(*t)).sum();
        let expected = (df_sum * qf_sum) as f64 / (dfs[2] * workload.frequency(term)) as f64;
        let actual = qratio(&plan, &dfs, &workload, term).unwrap();
        assert!((actual - expected).abs() < 1e-9);
        assert!(actual >= 1.0, "merging can only inflate per-term cost");
    }

    #[test]
    fn qratio_of_singleton_list_is_one() {
        let dfs = vec![100u64, 1];
        let stats = CorpusStats::from_document_frequencies(dfs.clone());
        let mut rng = StdRng::seed_from_u64(2);
        // DFM with m=2 and Zipf-ish head puts term 0 alone.
        let plan = MergePlan::build(MergeConfig::dfm(2), &stats, &mut rng).unwrap();
        let workload = QueryWorkload::from_frequencies(vec![10, 10]);
        if plan.lists()[plan.list_of(tid(0)).0 as usize].len() == 1 {
            assert!((qratio(&plan, &dfs, &workload, tid(0)).unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn qratio_undefined_for_unqueried_terms() {
        let (plan, _, dfs, _) = fixture();
        let no_queries = QueryWorkload::from_frequencies(vec![0; 8]);
        assert!(qratio(&plan, &dfs, &no_queries, tid(0)).is_none());
    }

    #[test]
    fn qratio_eff_is_df_share_of_list() {
        let (plan, _, dfs, _) = fixture();
        for t in 0..8u32 {
            let eff = qratio_eff(&plan, &dfs, tid(t)).unwrap();
            assert!(eff > 0.0 && eff <= 1.0, "t = {t}: {eff}");
        }
        // Rare terms sharing a list with frequent ones have low
        // efficiency.
        let rare = qratio_eff(&plan, &dfs, tid(6)).unwrap();
        let frequent = qratio_eff(&plan, &dfs, tid(0)).unwrap();
        assert!(rare < frequent);
    }

    #[test]
    fn response_sizes_sum_to_total_df() {
        let (plan, _, dfs, _) = fixture();
        let sizes = response_sizes(&plan, &dfs);
        assert_eq!(sizes.len(), plan.list_count());
        let total: u64 = sizes.iter().sum();
        assert_eq!(total, dfs.iter().sum::<u64>());
    }

    #[test]
    fn cost_inflation_is_at_least_one() {
        let (plan, _, dfs, workload) = fixture();
        assert!(cost_inflation(&plan, &dfs, &workload) >= 1.0);
    }

    #[test]
    fn fewer_lists_cost_more() {
        let dfs: Vec<u64> = (1..=200u64).map(|r| 1 + 10_000 / r).collect();
        let stats = CorpusStats::from_document_frequencies(dfs.clone());
        let workload = QueryWorkload::from_frequencies(dfs.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let coarse = MergePlan::build(MergeConfig::dfm(2), &stats, &mut rng).unwrap();
        let fine = MergePlan::build(MergeConfig::dfm(64), &stats, &mut rng).unwrap();
        assert!(cost_inflation(&coarse, &dfs, &workload) > cost_inflation(&fine, &dfs, &workload));
    }
}
