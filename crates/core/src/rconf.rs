//! The r-confidentiality measure (Definition 1 and formulas (3)–(5),
//! (7)).
//!
//! For a merged term set `S` with occurrence probabilities `p_t`
//! (formula (2)), an adversary inspecting one element of the merged
//! list can assign term `t_u ∈ S` probability
//! `p_{t_u} / Σ_{t_i∈S} p_{t_i}` (formula (3)). Dividing by her prior
//! `p_{t_u}` gives the *amplification* `1 / Σ_{t_i∈S} p_{t_i}` — the
//! same for every term in the list. The scheme is r-confidential iff
//! every list's probability mass is at least `1/r` (formula (5)), and
//! the achieved r of a whole partition is `1 / min_L Σ_{t∈L} p_t`
//! (formula (7)).

use zerber_index::{CorpusStats, TermId};

/// Total occurrence-probability mass of one merged list:
/// `Σ_{t∈L} p_t`.
pub(crate) fn list_mass(list: &[TermId], stats: &CorpusStats) -> f64 {
    list.iter().map(|&t| stats.probability(t)).sum()
}

/// The probability-amplification factor an adversary gains on any term
/// of a list with the given mass — formula (4) rearranged: the factor
/// by which `P(t | element ∈ L)` exceeds the prior `p_t`.
///
/// Returns `f64::INFINITY` for an empty (zero-mass) list, which would
/// leak its terms' document frequencies outright.
pub(crate) fn amplification_bound(mass: f64) -> f64 {
    if mass <= 0.0 {
        f64::INFINITY
    } else {
        1.0 / mass
    }
}

/// Checks formula (5): every merged list carries mass at least `1/r`.
pub fn is_r_confidential(partition: &[Vec<TermId>], stats: &CorpusStats, r: f64) -> bool {
    assert!(r >= 1.0, "r is a probability amplification factor, r >= 1");
    partition
        .iter()
        .all(|list| list_mass(list, stats) >= 1.0 / r - 1e-12)
}

/// The achieved confidentiality level of a partition — formula (7):
/// `r = 1 / min_L Σ_{t∈L} p_t`.
///
/// Returns `f64::INFINITY` if any list is empty of probability mass
/// and `1.0` (perfect) for an empty partition (no lists leak nothing).
pub fn achieved_r(partition: &[Vec<TermId>], stats: &CorpusStats) -> f64 {
    partition
        .iter()
        .map(|list| amplification_bound(list_mass(list, stats)))
        .fold(1.0, f64::max)
}

/// Amplification of the adversary's ability to claim a term is *absent*
/// from a document (the second clause of Definition 1). Given an
/// element of list `L` with mass `m`, the posterior probability that it
/// is **not** term `t ∈ L` is `1 - p_t/m`; the prior is `1 - p_t`.
/// The paper notes this ratio is always `<= 1` ("smaller than the
/// original probability"), i.e. merging never helps absence claims.
pub fn absence_amplification(term_probability: f64, mass: f64) -> f64 {
    if mass <= 0.0 || term_probability >= 1.0 {
        return 1.0;
    }
    let posterior = 1.0 - term_probability / mass;
    let prior = 1.0 - term_probability;
    posterior / prior
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(dfs: &[u64]) -> CorpusStats {
        CorpusStats::from_document_frequencies(dfs.to_vec())
    }

    fn tid(v: u32) -> TermId {
        TermId(v)
    }

    #[test]
    fn uniform_terms_single_list_gives_r_one() {
        // Section 6: "if all terms are merged into one posting list,
        // then r = 1".
        let s = stats(&[10, 10, 10, 10]);
        let partition = vec![vec![tid(0), tid(1), tid(2), tid(3)]];
        assert!((achieved_r(&partition, &s) - 1.0).abs() < 1e-12);
        assert!(is_r_confidential(&partition, &s, 1.0));
    }

    #[test]
    fn uniform_terms_m_lists_gives_r_m() {
        // Section 6: with a uniform distribution, r equals the number
        // of merged posting lists.
        let s = stats(&[10; 8]);
        let partition: Vec<Vec<TermId>> =
            (0..4).map(|i| vec![tid(i * 2), tid(i * 2 + 1)]).collect();
        assert!((achieved_r(&partition, &s) - 4.0).abs() < 1e-12);
        assert!(is_r_confidential(&partition, &s, 4.0));
        assert!(!is_r_confidential(&partition, &s, 3.9));
    }

    #[test]
    fn achieved_r_is_driven_by_the_lightest_list() {
        let s = stats(&[50, 30, 15, 5]);
        let partition = vec![vec![tid(0)], vec![tid(1), tid(2), tid(3)]];
        // masses: 0.5 and 0.5 -> r = 2.
        assert!((achieved_r(&partition, &s) - 2.0).abs() < 1e-12);
        let unbalanced = vec![vec![tid(0), tid(1), tid(2)], vec![tid(3)]];
        // masses: 0.95 and 0.05 -> r = 20.
        assert!((achieved_r(&unbalanced, &s) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_list_is_infinitely_leaky() {
        let s = stats(&[10, 10]);
        let partition = vec![vec![tid(0), tid(1)], vec![]];
        assert_eq!(achieved_r(&partition, &s), f64::INFINITY);
        assert!(!is_r_confidential(&partition, &s, 1_000_000.0));
    }

    #[test]
    fn empty_partition_is_perfect() {
        let s = stats(&[10]);
        assert_eq!(achieved_r(&[], &s), 1.0);
    }

    #[test]
    fn amplification_bound_inverts_mass() {
        assert_eq!(amplification_bound(0.5), 2.0);
        assert_eq!(amplification_bound(0.0), f64::INFINITY);
    }

    #[test]
    fn absence_amplification_never_exceeds_one() {
        // Paper Section 5.2: the absence posterior is smaller than the
        // prior, so merging cannot help absence claims.
        for (pt, mass) in [(0.1, 0.5), (0.01, 0.02), (0.3, 1.0), (0.0, 0.4)] {
            let a = absence_amplification(pt, mass);
            assert!(a <= 1.0 + 1e-12, "pt = {pt}, mass = {mass}, a = {a}");
        }
    }

    #[test]
    #[should_panic(expected = "r >= 1")]
    fn sub_one_r_is_rejected() {
        let s = stats(&[1]);
        let _ = is_r_confidential(&[vec![tid(0)]], &s, 0.5);
    }
}
