//! Depth-First Merging — Algorithm 3.
//!
//! "DFM assigns the most frequent terms to separate posting lists,
//! using a predetermined value of M (the number of merged posting
//! lists) as the table size. … DFM fills the cells of the table from
//! top to bottom with terms sorted by document frequency in rounds
//! until the r-condition in each cell is satisfied."
//!
//! With the uniform per-list target `1/r = 1/M` (the best achievable
//! balance, cf. the horizontal `1/r` lines of Figure 7), the effect on
//! a Zipfian distribution is exactly the paper's: each of the most
//! frequent terms ends up alone in a list (its own probability already
//! exceeds `1/M`), while the tail is dealt round-robin across the
//! remaining lists until each accumulates `~1/M` of probability mass.

use zerber_index::TermId;

/// Runs DFM over `terms` (sorted by descending probability, aligned
/// with `probabilities`) into exactly `m` lists, using confidentiality
/// target `r` for the fill condition.
///
/// Algorithm 3 leaves the fate of terms that remain after *every* list
/// is marked filled unspecified (the loop would not terminate); we
/// follow the paper's own treatment of late/rare terms — "we assigned
/// them uniformly to the existing posting lists" (Section 7.5) — and
/// deal the remainder round-robin.
///
/// # Panics
/// Panics if `m == 0` or the slices are misaligned.
pub(crate) fn depth_first_merge(
    terms: &[TermId],
    probabilities: &[f64],
    m: u32,
    r: f64,
) -> Vec<Vec<TermId>> {
    assert!(m > 0, "DFM needs at least one posting list");
    assert_eq!(terms.len(), probabilities.len(), "misaligned inputs");
    let m = m as usize;
    let threshold = 1.0 / r;

    let mut lists: Vec<Vec<TermId>> = vec![Vec::new(); m];
    let mut masses = vec![0.0f64; m];
    let mut filled = vec![false; m];
    let mut unfilled_remaining = m;
    let mut cursor = 0usize;

    let mut index = 0usize;
    while index < terms.len() {
        if unfilled_remaining == 0 {
            // Fallback: deal the rare remainder uniformly (round-robin)
            // over all lists.
            for (offset, (&term, _)) in terms[index..]
                .iter()
                .zip(&probabilities[index..])
                .enumerate()
            {
                lists[(cursor + offset) % m].push(term);
            }
            for (offset, &p) in probabilities[index..].iter().enumerate() {
                masses[(cursor + offset) % m] += p;
            }
            break;
        }
        // Advance to the next unfilled cell (wrapping).
        while filled[cursor] {
            cursor = (cursor + 1) % m;
        }
        // Line 6: "if sum of the p_t of terms assigned to this list
        // exceeds 1/r then mark the posting list as filled and go to
        // the next list".
        if masses[cursor] > threshold {
            filled[cursor] = true;
            unfilled_remaining -= 1;
            cursor = (cursor + 1) % m;
            continue;
        }
        // Line 8: "else assign term t to this posting list".
        lists[cursor].push(terms[index]);
        masses[cursor] += probabilities[index];
        index += 1;
        cursor = (cursor + 1) % m;
    }

    lists
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(v: u32) -> TermId {
        TermId(v)
    }

    fn terms(n: u32) -> Vec<TermId> {
        (0..n).map(tid).collect()
    }

    #[test]
    fn top_terms_get_their_own_lists_on_zipf() {
        // p = [0.4, 0.3, 0.1, 0.08, 0.06, 0.04, 0.02] with M = 4 and
        // r = 4 (threshold 0.25): terms 0 and 1 exceed the threshold
        // alone; the tail accumulates in the remaining lists.
        let probabilities = [0.4, 0.3, 0.1, 0.08, 0.06, 0.04, 0.02];
        let lists = depth_first_merge(&terms(7), &probabilities, 4, 4.0);
        assert_eq!(lists.len(), 4);
        assert_eq!(lists[0], vec![tid(0)]);
        assert_eq!(lists[1], vec![tid(1)]);
        // All terms placed exactly once.
        let total: usize = lists.iter().map(Vec::len).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn round_robin_order_in_first_round() {
        // Uniform probabilities below threshold: the first round deals
        // terms 0..m to lists 0..m in order.
        let probabilities = [0.1; 6];
        let lists = depth_first_merge(&terms(6), &probabilities, 3, 2.0);
        assert_eq!(lists[0][0], tid(0));
        assert_eq!(lists[1][0], tid(1));
        assert_eq!(lists[2][0], tid(2));
        assert_eq!(lists[0][1], tid(3));
    }

    #[test]
    fn filled_lists_stop_accepting() {
        // First term saturates list 0 (p > 1/r); everything else must
        // land elsewhere.
        let probabilities = [0.9, 0.05, 0.03, 0.02];
        let lists = depth_first_merge(&terms(4), &probabilities, 2, 2.0);
        assert_eq!(lists[0], vec![tid(0)]);
        assert_eq!(lists[1], vec![tid(1), tid(2), tid(3)]);
    }

    #[test]
    fn overflow_terms_are_dealt_round_robin() {
        // Tiny threshold: every list fills after one term; the rest
        // must still be assigned (our documented fallback).
        let probabilities = [0.3, 0.3, 0.2, 0.1, 0.05, 0.05];
        let lists = depth_first_merge(&terms(6), &probabilities, 2, 1_000.0);
        let total: usize = lists.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
        // Fallback keeps the deal balanced within one term.
        assert!((lists[0].len() as i64 - lists[1].len() as i64).abs() <= 1);
    }

    #[test]
    fn single_list_takes_everything() {
        let probabilities = [0.5, 0.3, 0.2];
        let lists = depth_first_merge(&terms(3), &probabilities, 1, 1.0);
        assert_eq!(lists.len(), 1);
        assert_eq!(lists[0].len(), 3);
    }

    #[test]
    fn more_lists_than_terms_leaves_empties() {
        let probabilities = [0.6, 0.4];
        let lists = depth_first_merge(&terms(2), &probabilities, 5, 5.0);
        assert_eq!(lists.len(), 5);
        let non_empty = lists.iter().filter(|l| !l.is_empty()).count();
        assert_eq!(non_empty, 2);
    }

    #[test]
    #[should_panic(expected = "at least one posting list")]
    fn zero_lists_panics() {
        let _ = depth_first_merge(&terms(1), &[1.0], 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_inputs_panic() {
        let _ = depth_first_merge(&terms(2), &[1.0], 1, 1.0);
    }
}
