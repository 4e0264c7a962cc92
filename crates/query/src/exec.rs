//! The evaluators: block-max TA, MaxScore, conjunctive leapfrog, and
//! phrase matching — all over [`BlockCursor`] sorted access, all
//! **bit-identical** to the exhaustive oracles in [`crate::oracle`].
//!
//! Bit-identity is the load-bearing invariant (shard fan-out merges
//! candidate lists by exact score, so a one-ulp divergence between
//! backends or evaluators would make sharded results depend on
//! placement). It rests on three rules every evaluator here obeys:
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
    block_max_topk_cursors, BlockCursor, DocId, PostingStore, QueryCost, RankedDoc, TermId,
    TopKScratch,
};

use crate::ast::QueryShape;
use crate::plan::{plan, EvaluatorKind, Forced};

/// The result of one planned query evaluation on one store.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Top-k documents, `(score desc, doc asc)`.
    pub ranked: Vec<RankedDoc>,
    /// Block decode and scoring accounting for the evaluation.
    pub cost: QueryCost,
    /// The evaluator the planner chose.
    pub plan: EvaluatorKind,
}

/// Plans and evaluates one query against a store. `slots` are the
/// query's `(term, weight)` pairs in query order (phrase order for
/// [`QueryShape::Phrase`], duplicates allowed); weights must be
/// non-negative and finite.
pub fn execute(
    store: &dyn PostingStore,
    shape: QueryShape,
    slots: &[(TermId, f64)],
    k: usize,
    forced: Forced,
    scratch: &mut TopKScratch,
) -> QueryOutcome {
    let plan = plan(shape, slots.len(), forced);
    // Conjunctive and phrase evaluation score each distinct term once.
    let distinct;
    let scoring = match plan {
        EvaluatorKind::BlockMaxTa | EvaluatorKind::MaxScore => slots,
        EvaluatorKind::Conjunctive | EvaluatorKind::Phrase => {
            distinct = distinct_slots(slots);
            &distinct
        }
    };
    let mut cursors = store.query_cursors(scoring);
    match plan {
        EvaluatorKind::BlockMaxTa => block_max_topk_cursors(&mut cursors, k, scratch),
        EvaluatorKind::MaxScore => maxscore_topk(&mut cursors, k, scratch),
        EvaluatorKind::Conjunctive => conjunctive_topk(&mut cursors, k, scratch, |_| true),
        EvaluatorKind::Phrase => {
            // Each phrase slot reads positions from its term's cursor.
            let phrase: Vec<usize> = slots
                .iter()
                .map(|&(term, _)| {
                    let cursor = scoring.iter().position(|&(t, _)| t == term);
                    cursor.expect("every slot's term is a scoring slot")
                })
                .collect();
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
        plan,
    }
}

/// The distinct `(term, weight)` slots in first-occurrence order —
/// the scoring slots of conjunctive and phrase evaluation (a phrase
/// repeating a term constrains positions twice but scores it once).
pub(crate) fn distinct_slots(slots: &[(TermId, f64)]) -> Vec<(TermId, f64)> {
    let mut distinct: Vec<(TermId, f64)> = Vec::with_capacity(slots.len());
    for &(term, weight) in slots {
        if !distinct.iter().any(|&(t, _)| t == term) {
            distinct.push((term, weight));
        }
    }
    distinct
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

/// MaxScore top-k: cursors are partitioned by their static whole-list
/// σ bound ([`BlockCursor::list_max_score`]) into *non-essential*
/// (smallest bounds, their σ prefix sum strictly below the current
/// k-th score) and *essential* (the rest). Candidates are enumerated
/// from the essential frontier only — a document absent from every
/// essential list scores at most the non-essential σ sum, which is
/// strictly below the k-th score, so it can never rank — and
/// non-essential lists are probed by `advance_past` seek per
/// candidate. As the threshold rises, more lists demote; the demotion
/// is monotone, so sorted-access work on long low-σ lists stops early.
///
/// Essential cursors are materialized **eagerly**: an essential list
/// is enumerated in full by definition, so every block of it gets
/// decoded whether its cursor is pinned now or when the frontier
/// reaches it, and the candidate is simply the minimum of the pinned
/// documents — one `materialize` per cursor, no bound-chasing
/// fixpoint. The only decode laziness could have saved is the block a
/// cursor stands before at the moment it demotes or the loop ends: at
/// most one per cursor per query.
///
/// Per-document pruning by partial score is deliberately **absent**: a
/// partial-sum bound would be assembled in σ order, not slot order,
/// and f64 addition is order-sensitive, so such a bound could undercut
/// the true slot-order score by ulps and skip a tie. List-level σ
/// prefix sums face the same hazard, which `safe_upper` covers with
/// a rigorous rounding margin. Scores themselves are always summed in
/// original slot order — bit-identical to the exhaustive oracle. The
/// result lands in `scratch.ranked`.
pub(crate) fn maxscore_topk(
    cursors: &mut [Box<dyn BlockCursor + '_>],
    k: usize,
    scratch: &mut TopKScratch,
) {
    scratch.begin(k);
    if k == 0 || cursors.is_empty() {
        return;
    }

    // Cursor indices ascending by σ; `prefix[n]` = σ sum of the n
    // smallest. Cursors stay in their original slots — `order` only
    // names them — so contribution sums keep the slot order.
    let mut order: Vec<usize> = (0..cursors.len()).collect();
    order.sort_by(|&a, &b| {
        cursors[a]
            .list_max_score()
            .total_cmp(&cursors[b].list_max_score())
    });
    let mut prefix = Vec::with_capacity(order.len() + 1);
    prefix.push(0.0f64);
    for &i in &order {
        prefix.push(prefix.last().unwrap() + cursors[i].list_max_score());
    }

    // Count of non-essential cursors (a prefix of `order`); only ever
    // grows, because the k-th score only rises.
    let mut n_non = 0usize;
    // Per slot: the essential cursor's pinned posting, then the
    // candidate's contribution.
    let mut heads: Vec<Option<(DocId, f64)>> = vec![None; cursors.len()];

    loop {
        if let Some(kth) = scratch.kth_score() {
            while n_non < order.len() && safe_upper(prefix[n_non + 1], n_non + 1) < kth {
                n_non += 1;
            }
        }
        if n_non >= order.len() {
            // Every document left is bounded strictly below the k-th
            // score by the full σ sum.
            break;
        }
        heads.fill(None);
        for &i in &order[n_non..] {
            heads[i] = cursors[i].materialize();
        }
        let Some(candidate) = heads.iter().flatten().map(|&(doc, _)| doc).min() else {
            // Essential lists exhausted; whatever remains lives only
            // in non-essential lists and is bounded below the k-th
            // score (n_non > 0 implies the collector is full).
            break;
        };

        // Essential cursors parked on the candidate contribute and
        // advance; the others' pinned postings are not contributions.
        for &i in &order[n_non..] {
            match heads[i] {
                Some((doc, _)) if doc == candidate => cursors[i].step(),
                _ => heads[i] = None,
            }
        }
        // Non-essential cursors are probed by seek: jump to the first
        // posting ≥ candidate, contribute on a hit.
        for &i in &order[..n_non] {
            let cursor = &mut cursors[i];
            if cursor.at_end() {
                continue;
            }
            if candidate.0 > 0 {
                cursor.advance_past(DocId(candidate.0 - 1));
            }
            if cursor.at_end() || cursor.doc_lower_bound() > candidate {
                continue;
            }
            if let Some((doc, score)) = cursor.materialize() {
                if doc == candidate {
                    heads[i] = Some((doc, score));
                    cursor.step();
                }
            }
        }

        // Sum in original slot order — the bit-identity contract.
        let mut score = 0.0;
        for &(_, contribution) in heads.iter().flatten() {
            score += contribution;
        }
        scratch.offer(candidate, score);
    }

    scratch.finish();
}

/// A rigorous upper bound on the sum of `n` non-negative f64 addends
/// whose σ-order computed sum is `computed`: any other summation order
/// (in particular the slot order actual scores use) differs from the
/// exact sum by at most `(n-1)·ε` relatively, so inflating by `2nε`
/// dominates both roundings. Without this margin a score equal to the
/// bound up to one ulp could be pruned — a lost tie.
fn safe_upper(computed: f64, n: usize) -> f64 {
    computed * (1.0 + 2.0 * n as f64 * f64::EPSILON)
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
    if cursors.is_empty() {
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
        // target), so re-run until alignment.
        let mut aligned = true;
        for cursor in cursors.iter_mut() {
            let Some((doc, _)) = cursor.materialize() else {
                break 'scan;
            };
            if doc < target {
                cursor.advance_past(DocId(target.0 - 1));
                aligned = false;
            }
        }
        if !aligned {
            continue;
        }
        if accept(cursors) {
            // Slot-order contribution sum — the bit-identity contract.
            let mut score = 0.0;
            for cursor in cursors.iter_mut() {
                let (doc, contribution) =
                    cursor.materialize().expect("aligned cursor has an entry");
                debug_assert_eq!(doc, target);
                score += contribution;
            }
            scratch.offer(target, score);
        }
        for cursor in cursors.iter_mut() {
            cursor.step();
        }
    }
    scratch.finish();
}
