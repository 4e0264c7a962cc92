//! The in-memory side of the LSM store.
//!
//! Every acknowledged WAL batch is folded into one [`Memtable`]: the net
//! effect of all batches since the last flush (live documents with their
//! postings, plus tombstones), newest op per document winning. The
//! engine keeps it behind an `Arc`, so a reader snapshot is a pointer
//! copy; a write folds in place through `Arc::make_mut`, which copies
//! the table only while a snapshot still holds the old one. Sealing a
//! segment merges this one source through the block compressor. The
//! table serves the WAL path only: a bulk load compresses its postings
//! straight into the segment and builds no memtable.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use zerber_postings::RawEntry;

use crate::wal::WalOp;

/// A doc's net outcome within a batch: its `(length, term counts)` when
/// the last op was an insert, `None` when it was a delete.
type NetOutcome<'a> = Option<(u32, &'a [(u32, u32)])>;

/// The net effect of every batch applied since the last flush.
#[derive(Debug, Default, Clone)]
pub(crate) struct Memtable {
    /// Documents whose newest op is an insert, ascending.
    live: Vec<u32>,
    /// Documents whose newest op is a delete, ascending.
    tombstones: Vec<u32>,
    /// Per-term postings of the live documents; only non-empty lists.
    /// Hashed, not ordered: a batch's postings land all over the
    /// vocabulary, so sorting the terms once per flush costs less than
    /// ordered-map probes on every write.
    terms: HashMap<u32, TermList>,
    /// Every live document's term ids, so replacing or deleting it
    /// edits only the lists it is in.
    doc_terms: HashMap<u32, Vec<u32>>,
    /// One past the highest term id inserted (0 when none).
    term_slots: u32,
}

impl Memtable {
    /// Folds one batch in, its ops applied in order: a delete after an
    /// insert of the same doc tombstones it, an insert after a delete
    /// revives it, and a document's earlier version (from this batch or
    /// an older one) leaves every list it was in. Costs one hash probe
    /// per posting the batch adds or replaces, never a scan; only an id
    /// below a list's last one shifts that list's tail.
    ///
    /// Returns the batch's flush pressure: live postings (minimum 1 per
    /// inserted document, so term-less documents still count) plus
    /// tombstones.
    pub(crate) fn apply(&mut self, ops: &[WalOp]) -> usize {
        // Only a doc's last op in the batch survives it; doc-ascending,
        // so a batch of fresh ids appends everywhere.
        let mut net: BTreeMap<u32, NetOutcome<'_>> = BTreeMap::new();
        for op in ops {
            match op {
                WalOp::Insert { doc, length, terms } => {
                    net.insert(*doc, Some((*length, terms.as_slice())));
                }
                WalOp::Delete { doc } => {
                    net.insert(*doc, None);
                }
            }
        }
        let mut weight = 0;
        for (doc, outcome) in net {
            self.retire(doc);
            match outcome {
                Some((length, terms)) => weight += self.insert_live(doc, length, terms.to_vec()),
                None => {
                    insert_sorted(&mut self.tombstones, doc);
                    weight += 1;
                }
            }
        }
        weight
    }

    /// Drops `doc`'s current version here, if any: its postings and
    /// live entry, or its tombstone.
    fn retire(&mut self, doc: u32) {
        let Some(terms) = self.doc_terms.remove(&doc) else {
            remove_sorted(&mut self.tombstones, doc);
            return;
        };
        for term in terms {
            if let Entry::Occupied(mut list) = self.terms.entry(term) {
                if !list.get_mut().remove(doc) {
                    list.remove();
                }
            }
        }
        remove_sorted(&mut self.live, doc);
    }

    /// Adds a document the table does not hold and returns its weight:
    /// its postings, or 1 if term-less — every touched doc must add flush
    /// pressure, or a stream of empty inserts could grow the WAL and the
    /// memtable forever without crossing the threshold.
    fn insert_live(&mut self, doc: u32, length: u32, mut terms: Vec<(u32, u32)>) -> usize {
        debug_assert!(!self.touches(doc), "doc {doc} is already here");
        // Canonical token-stream positions: terms in ascending id
        // order, each occupying `count` consecutive slots.
        terms.sort_unstable_by_key(|&(term, _)| term);
        let mut next_pos = 0u32;
        for &(term, count) in &terms {
            self.term_slots = self.term_slots.max(term + 1);
            let entry = RawEntry {
                doc,
                count,
                doc_length: length,
                pos: next_pos,
            };
            match self.terms.entry(term) {
                Entry::Occupied(mut list) => list.get_mut().insert(entry),
                Entry::Vacant(slot) => {
                    slot.insert(TermList::One(entry));
                }
            }
            next_pos += count;
        }
        insert_sorted(&mut self.live, doc);
        self.doc_terms
            .insert(doc, terms.iter().map(|&(term, _)| term).collect());
        terms.len().max(1)
    }

    /// True iff no batch was applied since the last flush.
    pub(crate) fn is_empty(&self) -> bool {
        self.live.is_empty() && self.tombstones.is_empty()
    }

    /// Live documents, ascending.
    pub(crate) fn live_docs(&self) -> &[u32] {
        &self.live
    }

    /// Tombstoned documents, ascending.
    pub(crate) fn tombstones(&self) -> &[u32] {
        &self.tombstones
    }

    /// True iff the memtable defines `doc`'s current version (insert
    /// or tombstone) — the *shadowing* test: any posting for `doc` in a
    /// segment is dead.
    pub(crate) fn touches(&self, doc: u32) -> bool {
        self.doc_terms.contains_key(&doc) || self.tombstones.binary_search(&doc).is_ok()
    }

    /// The postings of one term, doc-ascending (empty slice when the
    /// term is absent).
    pub(crate) fn term_postings(&self, term: u32) -> &[RawEntry] {
        self.terms.get(&term).map(TermList::as_slice).unwrap_or(&[])
    }

    /// Every term with at least one posting and its doc-ascending
    /// postings, term-ascending.
    pub(crate) fn term_lists(&self) -> impl Iterator<Item = (u32, &[RawEntry])> + '_ {
        let mut lists: Vec<(u32, &[RawEntry])> =
            self.terms.iter().map(|(&t, v)| (t, v.as_slice())).collect();
        lists.sort_unstable_by_key(|&(term, _)| term);
        lists.into_iter()
    }

    /// One past the highest term id inserted since the last flush.
    pub(crate) fn term_slots(&self) -> u32 {
        self.term_slots
    }

    /// Approximate heap bytes of the posting payload (for the
    /// storage-accounting hook).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.terms
            .values()
            .map(|list| std::mem::size_of_val(list.as_slice()))
            .sum::<usize>()
            + (self.live.len() + self.tombstones.len()) * std::mem::size_of::<u32>()
    }
}

/// One term's postings, doc-ascending. Most terms of a memtable are
/// vocabulary tail holding a single posting, which lives inline in the
/// map and costs no allocation.
#[derive(Debug, Clone)]
enum TermList {
    One(RawEntry),
    Many(Vec<RawEntry>),
}

impl TermList {
    fn as_slice(&self) -> &[RawEntry] {
        match self {
            Self::One(entry) => std::slice::from_ref(entry),
            Self::Many(entries) => entries,
        }
    }

    /// Adds a posting of a document the list does not hold, appending
    /// when its id is the largest.
    fn insert(&mut self, entry: RawEntry) {
        if let Self::One(first) = *self {
            let mut entries = Vec::with_capacity(2);
            entries.push(first);
            *self = Self::Many(entries);
        }
        if let Self::Many(entries) = self {
            match entries.last() {
                Some(last) if last.doc > entry.doc => {
                    let at = entries.partition_point(|e| e.doc <= entry.doc);
                    entries.insert(at, entry);
                }
                _ => entries.push(entry),
            }
        }
    }

    /// Drops `doc`'s postings; returns whether any posting is left.
    fn remove(&mut self, doc: u32) -> bool {
        match self {
            Self::One(entry) => entry.doc != doc,
            Self::Many(entries) => {
                let from = entries.partition_point(|e| e.doc < doc);
                let to = entries.partition_point(|e| e.doc <= doc);
                entries.drain(from..to);
                !entries.is_empty()
            }
        }
    }
}

/// Adds `doc` to an ascending set, appending when it is the largest.
fn insert_sorted(docs: &mut Vec<u32>, doc: u32) {
    match docs.last() {
        Some(&last) if last >= doc => {
            if let Err(at) = docs.binary_search(&doc) {
                docs.insert(at, doc);
            }
        }
        _ => docs.push(doc),
    }
}

fn remove_sorted(docs: &mut Vec<u32>, doc: u32) {
    if let Ok(at) = docs.binary_search(&doc) {
        docs.remove(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn folded(batches: &[Vec<WalOp>]) -> (Memtable, usize) {
        let mut memtable = Memtable::default();
        let weight = batches.iter().map(|batch| memtable.apply(batch)).sum();
        (memtable, weight)
    }

    fn insert(doc: u32, terms: &[(u32, u32)]) -> WalOp {
        WalOp::Insert {
            doc,
            length: terms.iter().map(|&(_, c)| c).sum(),
            terms: terms.to_vec(),
        }
    }

    #[test]
    fn last_op_per_doc_wins() {
        let ops = vec![
            insert(1, &[(0, 1), (1, 1)]),
            WalOp::Delete { doc: 1 },
            WalOp::Delete { doc: 2 },
            insert(2, &[(5, 1)]),
        ];
        let (memtable, weight) = folded(&[ops]);
        assert_eq!(memtable.live_docs(), &[2]);
        assert_eq!(memtable.tombstones(), &[1]);
        assert!(memtable.touches(1) && memtable.touches(2) && !memtable.touches(3));
        assert_eq!(memtable.term_postings(5).len(), 1);
        assert!(memtable.term_postings(0).is_empty());
        assert_eq!(weight, 2); // one live posting + one tombstone
        assert_eq!(memtable.term_slots(), 6);
    }

    #[test]
    fn term_less_documents_still_add_flush_pressure() {
        let (memtable, weight) = folded(&[vec![insert(3, &[])]]);
        assert_eq!(memtable.live_docs(), &[3]);
        assert_eq!(weight, 1, "an empty doc must not weigh 0");
        assert_eq!(memtable.term_slots(), 0);
    }

    #[test]
    fn postings_are_doc_sorted_per_term() {
        // Out of order within a batch and across batches.
        let batch = |docs: &[u32]| -> Vec<WalOp> {
            docs.iter().map(|&doc| insert(doc, &[(7, 1)])).collect()
        };
        let (memtable, _) = folded(&[batch(&[5, 1, 9, 3]), batch(&[4, 11, 0])]);
        let docs: Vec<u32> = memtable.term_postings(7).iter().map(|e| e.doc).collect();
        assert_eq!(docs, vec![0, 1, 3, 4, 5, 9, 11]);
        assert_eq!(memtable.live_docs(), &[0, 1, 3, 4, 5, 9, 11]);
        let terms: Vec<u32> = memtable.term_lists().map(|(t, _)| t).collect();
        assert_eq!(terms, vec![7]);
    }

    /// One batch collapsed on its own (last op per doc wins) and frozen:
    /// the per-batch delta the memtable replaced, kept as the oracle.
    struct BatchDelta {
        live: Vec<u32>,
        tombstones: Vec<u32>,
        terms: BTreeMap<u32, Vec<RawEntry>>,
        weight: usize,
        term_slots: u32,
    }

    impl BatchDelta {
        fn from_ops(ops: &[WalOp]) -> Self {
            let mut net: BTreeMap<u32, NetOutcome<'_>> = BTreeMap::new();
            for op in ops {
                match op {
                    WalOp::Insert { doc, length, terms } => {
                        net.insert(*doc, Some((*length, terms.as_slice())));
                    }
                    WalOp::Delete { doc } => {
                        net.insert(*doc, None);
                    }
                }
            }
            let mut delta = BatchDelta {
                live: Vec::new(),
                tombstones: Vec::new(),
                terms: BTreeMap::new(),
                weight: 0,
                term_slots: 0,
            };
            for (doc, outcome) in net {
                match outcome {
                    Some((length, terms)) => {
                        let mut terms = terms.to_vec();
                        delta.live.push(doc);
                        delta.weight += terms.len().max(1);
                        terms.sort_unstable_by_key(|&(term, _)| term);
                        let mut next_pos = 0u32;
                        for (term, count) in terms {
                            delta.term_slots = delta.term_slots.max(term + 1);
                            delta.terms.entry(term).or_default().push(RawEntry {
                                doc,
                                count,
                                doc_length: length,
                                pos: next_pos,
                            });
                            next_pos += count;
                        }
                    }
                    None => {
                        delta.tombstones.push(doc);
                        delta.weight += 1;
                    }
                }
            }
            delta
        }

        fn touches(&self, doc: u32) -> bool {
            self.live.binary_search(&doc).is_ok() || self.tombstones.binary_search(&doc).is_ok()
        }
    }

    /// The masked read of a stack of per-batch deltas, oldest first: a
    /// document belongs to the newest delta touching it, and only that
    /// delta's postings of it are live.
    fn stack_image(stack: &[BatchDelta]) -> BatchDelta {
        let owner = |doc: u32| stack.iter().rposition(|delta| delta.touches(doc));
        let mut image = BatchDelta {
            live: Vec::new(),
            tombstones: Vec::new(),
            terms: BTreeMap::new(),
            weight: stack.iter().map(|delta| delta.weight).sum(),
            term_slots: 0,
        };
        for (i, delta) in stack.iter().enumerate() {
            let owned = |doc: &&u32| owner(**doc) == Some(i);
            image.live.extend(delta.live.iter().filter(owned));
            image
                .tombstones
                .extend(delta.tombstones.iter().filter(owned));
            for (&term, entries) in &delta.terms {
                let list = image.terms.entry(term).or_default();
                list.extend(entries.iter().filter(|e| owner(e.doc) == Some(i)));
            }
            image.term_slots = image.term_slots.max(delta.term_slots);
        }
        image.live.sort_unstable();
        image.tombstones.sort_unstable();
        image.terms.retain(|_, list| !list.is_empty());
        for list in image.terms.values_mut() {
            list.sort_by_key(|e| e.doc);
        }
        image
    }

    /// Folds `batches` one at a time and, after each, checks the
    /// memtable against the oracle stack of every batch so far.
    fn check_against_the_stack(batches: &[Vec<WalOp>], case: &str) {
        let (mut memtable, mut weight) = (Memtable::default(), 0usize);
        let mut stack: Vec<BatchDelta> = Vec::new();
        for (step, batch) in batches.iter().enumerate() {
            weight += memtable.apply(batch);
            stack.push(BatchDelta::from_ops(batch));
            let want = stack_image(&stack);
            let at = format!("{case}, after batch {step}");
            assert_eq!(memtable.live_docs(), want.live, "live, {at}");
            assert_eq!(memtable.tombstones(), want.tombstones, "tombstones, {at}");
            let lists: Vec<_> = memtable.term_lists().collect();
            let wanted: Vec<_> = want.terms.iter().map(|(&t, v)| (t, v.as_slice())).collect();
            assert_eq!(lists, wanted, "postings, {at}");
            assert_eq!(memtable.term_slots(), want.term_slots, "term slots, {at}");
            assert_eq!(weight, want.weight, "flush pressure, {at}");
            for doc in 0..40 {
                assert_eq!(
                    memtable.touches(doc),
                    want.touches(doc),
                    "touches {doc}, {at}"
                );
            }
        }
    }

    #[test]
    fn folding_equals_the_masked_stack_of_batches() {
        let named: [(&str, Vec<Vec<WalOp>>); 4] = [
            (
                "a rewrite that drops terms",
                vec![
                    vec![insert(1, &[(0, 1), (1, 2), (2, 1)]), insert(2, &[(1, 1)])],
                    vec![insert(1, &[(1, 3)])],
                ],
            ),
            (
                "insert, then delete in a later batch",
                vec![
                    vec![insert(4, &[(0, 2), (3, 1)]), insert(5, &[(3, 1)])],
                    vec![WalOp::Delete { doc: 4 }],
                ],
            ),
            (
                "delete, then reinsert in a later batch",
                vec![
                    vec![WalOp::Delete { doc: 6 }, insert(7, &[(2, 1)])],
                    vec![insert(6, &[(2, 2), (4, 1)])],
                    vec![WalOp::Delete { doc: 6 }],
                    vec![insert(6, &[(4, 5)])],
                ],
            ),
            (
                "an empty document, then one with terms, then empty again",
                vec![
                    vec![insert(8, &[])],
                    vec![insert(8, &[(1, 1)]), insert(9, &[])],
                    vec![insert(8, &[]), WalOp::Delete { doc: 9 }],
                ],
            ),
        ];
        for (case, batches) in &named {
            check_against_the_stack(batches, case);
        }

        let mut rng = StdRng::seed_from_u64(28);
        for case in 0..300 {
            let batches: Vec<Vec<WalOp>> = (0..rng.random_range(1..12usize))
                .map(|_| {
                    (0..rng.random_range(1..6usize))
                        .map(|_| {
                            let doc = rng.random_range(0..40u32);
                            if rng.random_range(0..4u32) == 0 {
                                return WalOp::Delete { doc };
                            }
                            // Distinct ascending terms, possibly none.
                            let terms: Vec<(u32, u32)> = (0..8u32)
                                .filter_map(|term| {
                                    let count = rng.random_range(0..4u32);
                                    (count > 0 && rng.random_range(0..3u32) == 0)
                                        .then_some((term, count))
                                })
                                .collect();
                            insert(doc, &terms)
                        })
                        .collect()
                })
                .collect();
            check_against_the_stack(&batches, &format!("random case {case}"));
        }
    }
}
