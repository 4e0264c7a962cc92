//! Uniform Distribution Merging — Section 6.3.
//!
//! "UDM is a variation on DFM in which terms are assigned to lists in
//! rounds as in Algorithm 3, but without considering the resulting
//! accumulated probability value. Once all terms are assigned to
//! posting lists, we calculate the resulting confidentiality value"
//! with formula (7). UDM merges even the most popular terms (no
//! singleton lists), which "has the advantage of giving higher
//! confidentiality to very common terms" at the price of slowing down
//! queries over low-DF terms (Figure 10).

use zerber_index::TermId;

/// Runs UDM: pure round-robin assignment of the descending-frequency
/// term sequence into `m` lists.
///
/// # Panics
/// Panics if `m == 0`.
pub(crate) fn uniform_distribution_merge(terms: &[TermId], m: u32) -> Vec<Vec<TermId>> {
    assert!(m > 0, "UDM needs at least one posting list");
    let m = m as usize;
    let mut lists: Vec<Vec<TermId>> = vec![Vec::new(); m];
    for (i, &term) in terms.iter().enumerate() {
        lists[i % m].push(term);
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(v: u32) -> TermId {
        TermId(v)
    }

    #[test]
    fn deals_terms_in_rounds() {
        let terms: Vec<TermId> = (0..7).map(tid).collect();
        let lists = uniform_distribution_merge(&terms, 3);
        assert_eq!(lists[0], vec![tid(0), tid(3), tid(6)]);
        assert_eq!(lists[1], vec![tid(1), tid(4)]);
        assert_eq!(lists[2], vec![tid(2), tid(5)]);
    }

    #[test]
    fn balanced_within_one_term() {
        let terms: Vec<TermId> = (0..100).map(tid).collect();
        let lists = uniform_distribution_merge(&terms, 7);
        let min = lists.iter().map(Vec::len).min().unwrap();
        let max = lists.iter().map(Vec::len).max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn popular_terms_are_never_alone() {
        // Unlike DFM/BFM, the top term shares its list whenever there
        // are at least m+1 terms.
        let terms: Vec<TermId> = (0..10).map(tid).collect();
        let lists = uniform_distribution_merge(&terms, 4);
        assert!(lists[0].len() > 1, "UDM must merge even the top term");
    }

    #[test]
    fn empty_input_gives_empty_lists() {
        let lists = uniform_distribution_merge(&[], 3);
        assert_eq!(lists.len(), 3);
        assert!(lists.iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "at least one posting list")]
    fn zero_lists_panics() {
        let _ = uniform_distribution_merge(&[], 0);
    }
}
