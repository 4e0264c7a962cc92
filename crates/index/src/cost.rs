//! The workload cost of formula (6).
//!
//! Section 7.4: "The time to scan a posting list is the sum of the seek
//! time … and the transfer time (the time to read the posting list). …
//! the total transfer time (and hence the total workload cost, since
//! the seek time is constant) is proportional to formula (6), which we
//! use as the workload cost in the experiments."
//!
//! Formula (6): `Q = Σ_{L_i ∈ M} [ length(L_i) · Σ_{j ∈ L_i} q_j ]`
//! where `q_j` is the query frequency of term `j` and `length(L_i)` the
//! number of elements in merged list `L_i`.

use crate::types::TermId;

/// Per-term query frequencies (indexed by term id), as extracted from a
/// query log.
#[derive(Debug, Clone, Default)]
pub struct QueryWorkload {
    frequencies: Vec<u64>,
}

impl QueryWorkload {
    /// Builds a workload from term-id-indexed query frequencies.
    pub fn from_frequencies(frequencies: Vec<u64>) -> Self {
        Self { frequencies }
    }

    /// Query frequency of one term (0 if never queried).
    pub fn frequency(&self, term: TermId) -> u64 {
        self.frequencies.get(term.0 as usize).copied().unwrap_or(0)
    }

    /// Total number of term occurrences across all queries.
    pub fn total(&self) -> u64 {
        self.frequencies.iter().sum()
    }

    /// Term ids ordered by descending query frequency (for the Figure 6
    /// cumulative-cost plot).
    pub fn terms_by_descending_frequency(&self) -> Vec<TermId> {
        let mut terms: Vec<TermId> = (0..self.frequencies.len() as u32).map(TermId).collect();
        terms.sort_by(|&a, &b| {
            self.frequency(b)
                .cmp(&self.frequency(a))
                .then(a.0.cmp(&b.0))
        });
        terms
    }
}

/// Workload cost `Q` of formula (6) for a partition of terms into
/// merged posting lists.
///
/// `partition[i]` lists the term ids merged into list `i`; `df[t]` is
/// term `t`'s document frequency (so `length(L) = Σ_{t∈L} df[t]`);
/// the workload supplies `q_t`.
pub fn workload_cost(partition: &[Vec<TermId>], df: &[u64], workload: &QueryWorkload) -> u128 {
    partition
        .iter()
        .map(|list| {
            let length: u128 = list
                .iter()
                .map(|t| *df.get(t.0 as usize).unwrap_or(&0) as u128)
                .sum();
            let query_mass: u128 = list.iter().map(|t| workload.frequency(*t) as u128).sum();
            length * query_mass
        })
        .sum()
}

/// Workload cost of the *unmerged* index: every term in its own posting
/// list, i.e. `Σ_t df_t · q_t`. The denominator of the QRatio analysis
/// (formula (8)).
pub fn unmerged_workload_cost(df: &[u64], workload: &QueryWorkload) -> u128 {
    df.iter()
        .enumerate()
        .map(|(t, &d)| d as u128 * workload.frequency(TermId(t as u32)) as u128)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(v: u32) -> TermId {
        TermId(v)
    }

    #[test]
    fn unmerged_cost_is_df_times_qf() {
        let df = vec![10, 20, 30];
        let workload = QueryWorkload::from_frequencies(vec![1, 2, 3]);
        assert_eq!(unmerged_workload_cost(&df, &workload), 10 + 40 + 90);
    }

    #[test]
    fn singleton_partition_matches_unmerged_cost() {
        let df = vec![10, 20, 30];
        let workload = QueryWorkload::from_frequencies(vec![1, 2, 3]);
        let partition = vec![vec![tid(0)], vec![tid(1)], vec![tid(2)]];
        assert_eq!(
            workload_cost(&partition, &df, &workload),
            unmerged_workload_cost(&df, &workload)
        );
    }

    #[test]
    fn merging_increases_cost() {
        let df = vec![10, 20, 30];
        let workload = QueryWorkload::from_frequencies(vec![1, 2, 3]);
        let merged = vec![vec![tid(0), tid(1), tid(2)]];
        // Q = (10+20+30) * (1+2+3) = 360 >= 140.
        assert_eq!(workload_cost(&merged, &df, &workload), 360);
        assert!(workload_cost(&merged, &df, &workload) >= unmerged_workload_cost(&df, &workload));
    }

    #[test]
    fn unqueried_terms_add_no_query_mass() {
        let df = vec![10, 20];
        let workload = QueryWorkload::from_frequencies(vec![5, 0]);
        let merged = vec![vec![tid(0), tid(1)]];
        assert_eq!(workload_cost(&merged, &df, &workload), 30 * 5);
    }

    #[test]
    fn out_of_range_terms_are_zero() {
        let df = vec![10];
        let workload = QueryWorkload::from_frequencies(vec![5]);
        let partition = vec![vec![tid(9)]];
        assert_eq!(workload_cost(&partition, &df, &workload), 0);
        assert_eq!(workload.frequency(tid(9)), 0);
    }

    #[test]
    fn workload_order_is_descending() {
        let workload = QueryWorkload::from_frequencies(vec![3, 9, 9, 1]);
        assert_eq!(
            workload.terms_by_descending_frequency(),
            vec![tid(1), tid(2), tid(0), tid(3)]
        );
        assert_eq!(workload.total(), 22);
    }
}
