//! Exhaustive reference evaluators — the ground truth the cursor
//! evaluators in `crate::exec` are property-tested against.
//!
//! Every oracle walks the raw `Vec<Posting>` lists of a rebuilt
//! [`InvertedIndex`] (no cursors, no pruning, no stored skip metadata,
//! no compressed backend under test) and accumulates
//! each document's score slot-by-slot **in slot order** — the same
//! floating-point summation sequence the evaluators use, so agreement
//! is checked bit for bit, not approximately. The phrase oracle
//! re-derives positions from scratch (summing smaller-term counts)
//! instead of reading any stored positional column, so a backend with
//! a buggy one cannot agree with it by accident.

use std::collections::HashMap;

use zerber_index::{DocId, InvertedIndex, RankedDoc, TermId};

use crate::exec::distinct_slots;

/// Exhaustive disjunctive top-k: every posting of every slot scored,
/// per-document sums accumulated in slot order.
pub fn oracle_terms(index: &InvertedIndex, slots: &[(TermId, f64)], k: usize) -> Vec<RankedDoc> {
    let mut scores: HashMap<u32, f64> = HashMap::new();
    for &(term, weight) in slots {
        for posting in index.posting_list(term) {
            *scores.entry(posting.doc.0).or_insert(0.0) += posting.term_frequency() * weight;
        }
    }
    rank(
        scores.into_iter().map(|(doc, score)| RankedDoc {
            doc: DocId(doc),
            score,
        }),
        k,
    )
}

/// Exhaustive conjunctive top-k over the distinct slots.
pub fn oracle_and(index: &InvertedIndex, slots: &[(TermId, f64)], k: usize) -> Vec<RankedDoc> {
    rank(conjunctive_matches(index, &distinct_slots(slots).0), k)
}

/// Exhaustive phrase top-k: conjunctive matches over the distinct
/// slots, filtered by an independently derived positional check.
pub fn oracle_phrase(index: &InvertedIndex, slots: &[(TermId, f64)], k: usize) -> Vec<RankedDoc> {
    let phrase: Vec<TermId> = slots.iter().map(|&(t, _)| t).collect();
    if phrase.is_empty() {
        return Vec::new();
    }
    let matches = conjunctive_matches(index, &distinct_slots(slots).0)
        .filter(|ranked| naive_phrase_match(index, &phrase, ranked.doc));
    rank(matches, k)
}

/// All documents containing every distinct slot term, scored in slot
/// order (iteration order of the result is arbitrary; [`rank`]
/// imposes the total order).
fn conjunctive_matches<'a>(
    index: &'a InvertedIndex,
    distinct: &[(TermId, f64)],
) -> impl Iterator<Item = RankedDoc> + 'a {
    let mut hits: HashMap<u32, (f64, usize)> = HashMap::new();
    for &(term, weight) in distinct {
        for posting in index.posting_list(term) {
            let slot = hits.entry(posting.doc.0).or_insert((0.0, 0));
            slot.0 += posting.term_frequency() * weight;
            slot.1 += 1;
        }
    }
    let needed = distinct.len();
    hits.into_iter()
        .filter(move |&(_, (_, seen))| seen == needed)
        .map(|(doc, (score, _))| RankedDoc {
            doc: DocId(doc),
            score,
        })
}

/// Phrase check from first principles: each slot's canonical run is
/// re-derived as `[start, start + count)` with `start` = the sum of
/// the document's smaller-term counts, scanned straight off the raw
/// posting lists.
fn naive_phrase_match(index: &InvertedIndex, phrase: &[TermId], doc: DocId) -> bool {
    // One pass over every term's list collects the doc's term counts.
    let mut counts: Vec<(u32, u32)> = Vec::new();
    for term in 0..index.term_count() as u32 {
        if let Some(posting) = index
            .posting_list(TermId(term))
            .iter()
            .find(|p| p.doc == doc)
        {
            counts.push((term, posting.count));
        }
    }
    let run = |term: TermId| -> Option<(u64, u64)> {
        let mut start = 0u64;
        for &(t, count) in &counts {
            if t < term.0 {
                start += u64::from(count);
            } else if t == term.0 {
                return Some((start, start + u64::from(count)));
            }
        }
        None
    };
    let Some((first_lo, first_hi)) = run(phrase[0]) else {
        return false;
    };
    (first_lo..first_hi).any(|p0| {
        phrase.iter().enumerate().skip(1).all(|(i, &term)| {
            run(term).is_some_and(|(lo, hi)| {
                let want = p0 + i as u64;
                want >= lo && want < hi
            })
        })
    })
}

/// The shared tail: total order `(score desc, doc asc)`, truncated.
fn rank(matches: impl Iterator<Item = RankedDoc>, k: usize) -> Vec<RankedDoc> {
    let mut ranked: Vec<RankedDoc> = matches.collect();
    ranked.sort_by(RankedDoc::result_order);
    ranked.truncate(k);
    ranked
}
