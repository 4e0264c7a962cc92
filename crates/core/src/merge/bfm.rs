//! Breadth-First Merging — Algorithm 4.
//!
//! "The Breadth First Merging heuristic sorts terms on document
//! frequency, then assigns successive terms to the first posting list
//! until the r-condition is met. Then BFM moves to the second posting
//! list, and so on until all terms are assigned to a list. BFM does
//! not require us to predetermine M." If the trailing list cannot
//! reach mass `1/r`, it is deleted and its terms are randomly
//! distributed among the other lists (lines 7–8).

use rand::Rng;

use zerber_index::TermId;

/// Runs BFM over `terms` (sorted descending, aligned with
/// `probabilities`) with confidentiality target `r`. The RNG drives
/// only the final redistribution of an underweight last list.
///
/// # Panics
/// Panics if `r < 1` or the slices are misaligned.
pub(crate) fn breadth_first_merge<R: Rng + ?Sized>(
    terms: &[TermId],
    probabilities: &[f64],
    r: f64,
    rng: &mut R,
) -> Vec<Vec<TermId>> {
    assert!(r >= 1.0, "r is an amplification factor, r >= 1");
    assert_eq!(terms.len(), probabilities.len(), "misaligned inputs");
    let threshold = 1.0 / r;

    let mut lists: Vec<Vec<TermId>> = Vec::new();
    let mut masses: Vec<f64> = Vec::new();
    for (&term, &p) in terms.iter().zip(probabilities) {
        // Line 5: keep assigning "while … the sum of the p_t of terms
        // assigned to this posting list is less than 1/r".
        match (lists.last_mut(), masses.last_mut()) {
            (Some(list), Some(mass)) if *mass < threshold => {
                list.push(term);
                *mass += p;
            }
            _ => {
                lists.push(vec![term]);
                masses.push(p);
            }
        }
    }

    // Lines 7-8: delete an underweight last list and scatter its terms.
    if lists.len() > 1 && masses.last().is_some_and(|&mass| mass < threshold) {
        for term in lists.pop().into_iter().flatten() {
            let target = rng.random_range(0..lists.len());
            lists[target].push(term);
        }
    }

    lists
}

/// BFM with a *list-count* target: binary-searches the `r` input so the
/// heuristic yields exactly `m` lists, mirroring the paper's "we
/// tweaked the input value of r given to the BFM algorithm so that it
/// would also produce the same number of lists" (Section 7.5).
///
/// List count is monotone in `r` (a smaller `1/r` threshold closes
/// lists sooner), so bisection converges; if `m` is not exactly
/// attainable the closest achievable count is returned.
pub(crate) fn breadth_first_merge_with_list_target<R: Rng + ?Sized>(
    terms: &[TermId],
    probabilities: &[f64],
    m: u32,
    rng: &mut R,
) -> Vec<Vec<TermId>> {
    assert!(m > 0, "BFM needs at least one posting list");
    // Counting pass without the RNG-dependent redistribution: the
    // redistribution only ever removes one list, deterministically
    // when the last mass is short.
    let count_for = |r: f64| -> usize {
        let threshold = 1.0 / r;
        let mut count = 0usize;
        let mut mass = f64::INFINITY; // force-open the first list
        for &p in probabilities {
            if mass >= threshold {
                count += 1;
                mass = 0.0;
            }
            mass += p;
        }
        if count > 1 && mass < threshold {
            count -= 1;
        }
        count.max(1)
    };

    let target = m as usize;
    let mut lo = 1.0f64;
    let mut hi = 2.0f64;
    // Grow until hi yields at least the target (or give up at an
    // astronomically large r — more lists than terms can never help).
    while count_for(hi) < target && hi < 1e18 {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = (lo + hi) / 2.0;
        if count_for(mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    breadth_first_merge(terms, probabilities, hi, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tid(v: u32) -> TermId {
        TermId(v)
    }

    fn terms(n: u32) -> Vec<TermId> {
        (0..n).map(tid).collect()
    }

    #[test]
    fn fills_lists_to_threshold_in_order() {
        let mut rng = StdRng::seed_from_u64(1);
        // threshold 0.5: list0 = {0.4, 0.3} (0.7 >= 0.5), list1 = {0.2,
        // 0.1, 0.1} (0.4 < 0.5 -> redistributed)... masses: after 0.2,
        // 0.1, 0.1 the last list holds 0.4 < 0.5 so it is dissolved.
        let probabilities = [0.4, 0.3, 0.2, 0.05, 0.05];
        let lists = breadth_first_merge(&terms(5), &probabilities, 2.0, &mut rng);
        assert_eq!(lists.len(), 1);
        assert_eq!(lists[0].len(), 5);
    }

    #[test]
    fn respects_r_on_every_surviving_list() {
        let mut rng = StdRng::seed_from_u64(2);
        let probabilities: Vec<f64> = (1..=100u32).map(|i| 1.0 / (i as f64 * 5.187)).collect();
        let total: f64 = probabilities.iter().sum();
        let normalized: Vec<f64> = probabilities.iter().map(|p| p / total).collect();
        let r = 10.0;
        let lists = breadth_first_merge(&terms(100), &normalized, r, &mut rng);
        for (i, list) in lists.iter().enumerate() {
            let mass: f64 = list.iter().map(|t| normalized[t.0 as usize]).sum();
            assert!(mass >= 1.0 / r - 1e-9, "list {i} mass {mass}");
        }
    }

    #[test]
    fn all_terms_assigned_exactly_once() {
        let mut rng = StdRng::seed_from_u64(3);
        let probabilities: Vec<f64> = (1..=50u32).map(|i| 1.0 / i as f64 / 4.5).collect();
        let lists = breadth_first_merge(&terms(50), &probabilities, 20.0, &mut rng);
        let mut seen = [false; 50];
        for list in &lists {
            for t in list {
                assert!(!seen[t.0 as usize]);
                seen[t.0 as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn r_one_merges_everything_into_one_list() {
        let mut rng = StdRng::seed_from_u64(4);
        let probabilities = [0.5, 0.3, 0.2];
        let lists = breadth_first_merge(&terms(3), &probabilities, 1.0, &mut rng);
        assert_eq!(lists.len(), 1);
    }

    #[test]
    fn heavy_head_gets_singleton_lists() {
        let mut rng = StdRng::seed_from_u64(5);
        // threshold 0.1: first terms each exceed it alone; the tail
        // sums comfortably past the threshold so no redistribution
        // disturbs the head lists.
        let probabilities = [0.3, 0.25, 0.2, 0.05, 0.05, 0.05, 0.04, 0.06];
        let lists = breadth_first_merge(&terms(8), &probabilities, 10.0, &mut rng);
        assert_eq!(lists[0], vec![tid(0)]);
        assert_eq!(lists[1], vec![tid(1)]);
        assert_eq!(lists[2], vec![tid(2)]);
    }

    #[test]
    fn list_target_hits_m_on_zipf() {
        let mut rng = StdRng::seed_from_u64(6);
        let probabilities: Vec<f64> = {
            let raw: Vec<f64> = (1..=1000u32).map(|i| 1.0 / i as f64).collect();
            let total: f64 = raw.iter().sum();
            raw.into_iter().map(|p| p / total).collect()
        };
        for m in [1u32, 5, 20, 100] {
            let lists =
                breadth_first_merge_with_list_target(&terms(1000), &probabilities, m, &mut rng);
            assert_eq!(lists.len(), m as usize, "m = {m}");
        }
    }

    #[test]
    fn single_term_corpus() {
        let mut rng = StdRng::seed_from_u64(7);
        let lists = breadth_first_merge(&[tid(0)], &[1.0], 5.0, &mut rng);
        assert_eq!(lists.len(), 1);
        assert_eq!(lists[0], vec![tid(0)]);
    }

    #[test]
    #[should_panic(expected = "r >= 1")]
    fn sub_one_r_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = breadth_first_merge(&[tid(0)], &[1.0], 0.5, &mut rng);
    }
}
