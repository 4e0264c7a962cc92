//! Planned evaluation: MaxScore ([`maxscore_topk`], from
//! `zerber-index`) for disjunctive queries, conjunctive leapfrog, and
//! phrase matching — all over [`BlockCursor`] sorted access, all
//! **bit-identical** to the exhaustive oracles in [`crate::oracle`].
//!
//! Bit-identity is the load-bearing invariant (shard fan-out merges
//! candidate lists by exact score, so a one-ulp divergence between
//! backends or evaluators would make sharded results depend on
//! placement). It rests on three rules every evaluator obeys:
//!
//! 1. A document's score is the sum of its per-slot contributions
//!    accumulated **in slot order** — f64 addition is commutative but
//!    not associative, so the grouping order is part of the contract.
//! 2. Pruning bounds are compared **strictly** (`<`), and any bound
//!    assembled in a different summation order than rule 1 prescribes
//!    is inflated by a rigorous rounding margin before use, so a
//!    tie-by-bits can never be skipped.
//! 3. The final ranking is [`RankedDoc::result_order`] cut at `k` —
//!    the same total order everywhere. Every evaluator ranks through
//!    the one bounded collector in [`TopKScratch`], which keeps the
//!    `k` best under exactly that order as candidates arrive (and
//!    doubles as the pruning threshold), so the rule holds by
//!    construction rather than by a final sort.
//!
//! An evaluator's cost is meant to be its postings' cost: a candidate
//! is selected, scored and offered in a constant number of cursor
//! calls, and nothing per candidate allocates, sorts or goes back to
//! the store — the phrase filter included, which reads positions off
//! the cursors the conjunctive leapfrog has just aligned
//! ([`BlockCursor::positions`]).

use zerber_index::{
    maxscore_topk, BlockCursor, DocId, PostingStore, QueryCost, RankedDoc, TermId, TopKScratch,
};

use crate::ast::QueryShape;
use crate::plan::Forced;

/// The result of one planned query evaluation on one store.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Top-k documents, `(score desc, doc asc)`.
    pub ranked: Vec<RankedDoc>,
    /// Block decode and scoring accounting for the evaluation.
    pub cost: QueryCost,
}

/// Evaluates one query against a store on its shape's evaluator
/// ([`crate::plan()`]). `slots` are the query's `(term, weight)` pairs
/// in query order (phrase order for [`QueryShape::Phrase`], duplicates
/// allowed); weights must be non-negative and finite.
///
/// `forced` is kept only for `benchmark/`; ROADMAP item 1 deletes it.
pub fn execute(
    store: &dyn PostingStore,
    shape: QueryShape,
    slots: &[(TermId, f64)],
    k: usize,
    _forced: Forced,
    scratch: &mut TopKScratch,
) -> QueryOutcome {
    // Conjunctive and phrase evaluation score each distinct term once;
    // each phrase slot reads positions from its term's cursor.
    let mut cursors;
    match shape {
        QueryShape::Terms => {
            cursors = store.query_cursors(slots);
            maxscore_topk(&mut cursors, k, scratch);
        }
        QueryShape::And => {
            cursors = store.query_cursors(&distinct_slots(slots).0);
            conjunctive_topk(&mut cursors, k, scratch, |_| true);
        }
        QueryShape::Phrase => {
            let (distinct, phrase) = distinct_slots(slots);
            cursors = store.query_cursors(&distinct);
            conjunctive_topk(&mut cursors, k, scratch, |aligned| {
                phrase_match(&phrase, aligned)
            });
        }
    }
    let mut cost = QueryCost::of(&cursors);
    cost.postings_scored = scratch.scored();
    QueryOutcome {
        ranked: scratch.take_ranked(),
        cost,
    }
}

/// The distinct `(term, weight)` slots in first-occurrence order —
/// the scoring slots of conjunctive and phrase evaluation (a phrase
/// repeating a term constrains positions twice but scores it once) —
/// and, per slot of `slots`, the index of its term's distinct slot.
pub(crate) fn distinct_slots(slots: &[(TermId, f64)]) -> (Vec<(TermId, f64)>, Vec<usize>) {
    let mut distinct: Vec<(TermId, f64)> = Vec::with_capacity(slots.len());
    let mut slot_of = Vec::with_capacity(slots.len());
    for &(term, weight) in slots {
        let at = match distinct.iter().position(|&(t, _)| t == term) {
            Some(at) => at,
            None => {
                distinct.push((term, weight));
                distinct.len() - 1
            }
        };
        slot_of.push(at);
    }
    (distinct, slot_of)
}

/// Does the document every cursor in `aligned` stands on contain the
/// exact phrase? `phrase` names, per phrase slot, the index of its
/// term's cursor in `aligned`.
///
/// Positions are canonical token-stream runs: a term occupies
/// `count` consecutive slots from `pos`, and the cursor holds both for
/// the posting it stands on ([`BlockCursor::positions`]), so the
/// filter costs one call per slot. The phrase matches iff some start
/// `p` has slot `i` occurring at `p + i` for every `i` — with runs,
/// iff the intervals `[pos_i − i, pos_i + count_i − i)` intersect.
fn phrase_match(phrase: &[usize], aligned: &[Box<dyn BlockCursor + '_>]) -> bool {
    let (mut lo, mut hi) = (i64::MIN, i64::MAX);
    for (i, &cursor) in phrase.iter().enumerate() {
        let (pos, count) = aligned[cursor].positions();
        lo = lo.max(i64::from(pos) - i as i64);
        hi = hi.min(i64::from(pos) + i64::from(count) - i as i64);
    }
    lo < hi
}

/// Conjunctive leapfrog top-k: all cursors align on a document via
/// `advance_past` seeks to the running maximum; each aligned document
/// passes through `accept` (the phrase filter — handed the aligned
/// cursors, whose current postings are that document's — or
/// always-true for plain AND), and accepted documents score as the
/// slot-order sum of their per-cursor contributions. No threshold
/// pruning — conjunctive selectivity already bounds the candidate set
/// — so every match is scored and offered. The result lands in
/// `scratch.ranked`.
pub(crate) fn conjunctive_topk(
    cursors: &mut [Box<dyn BlockCursor + '_>],
    k: usize,
    scratch: &mut TopKScratch,
    mut accept: impl FnMut(&[Box<dyn BlockCursor + '_>]) -> bool,
) {
    scratch.begin(k);
    if k == 0 || cursors.is_empty() {
        return;
    }
    'scan: loop {
        // Materialize everyone; the running maximum is the only doc
        // that could be a match.
        let mut target = DocId(0);
        for cursor in cursors.iter_mut() {
            let Some((doc, _)) = cursor.materialize() else {
                break 'scan;
            };
            target = target.max(doc);
        }
        // Leapfrog: cursors strictly below the target seek past
        // `target - 1`; a single pass may overshoot (raising the
        // target), so re-run until alignment. The same pass sums the
        // contributions in slot order — the bit-identity contract —
        // which is the candidate's score once every cursor is aligned.
        let mut aligned = true;
        let mut score = 0.0;
        for cursor in cursors.iter_mut() {
            let Some((doc, contribution)) = cursor.materialize() else {
                break 'scan;
            };
            if doc < target {
                cursor.advance_past(DocId(target.0 - 1));
                aligned = false;
            }
            score += contribution;
        }
        if !aligned {
            continue;
        }
        if accept(cursors) {
            scratch.offer(target, score);
        }
        for cursor in cursors.iter_mut() {
            cursor.step();
        }
    }
    scratch.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_index::{Document, GroupId, InvertedIndex};
    use zerber_postings::CompressedPostingStore;

    #[test]
    fn k_zero_decodes_nothing_on_every_shape() {
        let docs: Vec<Document> = (0..300u32)
            .map(|d| {
                let terms = vec![(TermId(1), 1), (TermId(2), 1 + d % 2)];
                Document::from_term_counts(DocId(d), GroupId(0), terms)
            })
            .collect();
        let store = CompressedPostingStore::from_index(&InvertedIndex::from_documents(&docs));
        let slots = [(TermId(1), 1.0), (TermId(2), 0.5)];
        let mut scratch = TopKScratch::new();
        for shape in [QueryShape::Terms, QueryShape::And, QueryShape::Phrase] {
            let outcome = execute(&store, shape, &slots, 0, Forced::Auto, &mut scratch);
            assert!(outcome.ranked.is_empty(), "{shape:?}");
            assert_eq!(outcome.cost.blocks_decoded, 0, "{shape:?}");
            assert!(outcome.cost.blocks_total > 0, "{shape:?}");
        }
    }
}
