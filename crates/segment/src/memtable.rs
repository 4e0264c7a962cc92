//! The in-memory side of the LSM store.
//!
//! Each acknowledged WAL batch becomes one immutable [`MemDelta`]: the
//! batch's net effect (live documents with their postings, plus
//! tombstones), frozen behind an `Arc`. The engine's "memtable" is the
//! ordered list of deltas accumulated since the last flush — an
//! immutable-persistent structure, so reader snapshots are Arc clones
//! and never race the ingest path. Sealing a segment simply merges the
//! delta list (newest wins per document) through the block
//! compressor.

use std::collections::BTreeMap;

use zerber_postings::RawEntry;

use crate::wal::WalOp;

/// The net effect of one mutation batch, frozen.
#[derive(Debug, Default)]
pub struct MemDelta {
    /// Documents whose newest in-batch op is an insert, ascending.
    live: Vec<u32>,
    /// Documents whose newest in-batch op is a delete, ascending.
    tombstones: Vec<u32>,
    /// Per-term postings of the live documents, doc-ascending.
    terms: BTreeMap<u32, Vec<RawEntry>>,
    /// Memtable pressure toward the flush threshold: live postings
    /// (minimum 1 per inserted document, so term-less documents still
    /// count) plus tombstones.
    weight: usize,
    /// One past the highest term id seen (0 when none).
    term_slots: u32,
}

impl MemDelta {
    /// Collapses a batch (applied in order: a delete after an insert
    /// of the same doc tombstones it, an insert after a delete
    /// revives it) into a frozen delta.
    pub fn from_ops(ops: &[WalOp]) -> Self {
        /// A doc's net outcome within the batch: its `(length,
        /// term counts)` when the last op was an insert, `None` when
        /// it was a delete.
        type NetOutcome = Option<(u32, Vec<(u32, u32)>)>;
        let mut net: BTreeMap<u32, NetOutcome> = BTreeMap::new();
        for op in ops {
            match op {
                WalOp::Insert { doc, length, terms } => {
                    net.insert(*doc, Some((*length, terms.clone())));
                }
                WalOp::Delete { doc } => {
                    net.insert(*doc, None);
                }
            }
        }
        let mut delta = MemDelta::default();
        for (doc, outcome) in net {
            match outcome {
                Some((length, mut terms)) => {
                    delta.live.push(doc);
                    // A term-less document still weighs 1: every
                    // touched doc must add flush pressure, or a stream
                    // of empty inserts could grow the WAL and delta
                    // list forever without crossing the threshold.
                    delta.weight += terms.len().max(1);
                    // Canonical token-stream positions: terms in
                    // ascending id order, each occupying `count`
                    // consecutive slots.
                    terms.sort_unstable_by_key(|&(term, _)| term);
                    let mut next_pos = 0u32;
                    for (term, count) in terms {
                        delta.term_slots = delta.term_slots.max(term + 1);
                        delta.terms.entry(term).or_default().push(RawEntry {
                            doc: u64::from(doc),
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

    /// Documents inserted by this delta, ascending.
    pub fn live_docs(&self) -> &[u32] {
        &self.live
    }

    /// Documents tombstoned by this delta, ascending.
    pub fn tombstones(&self) -> &[u32] {
        &self.tombstones
    }

    /// True iff this delta defines `doc`'s current version (insert or
    /// tombstone) — the *shadowing* test: any posting for `doc` in an
    /// older source is dead.
    pub fn touches(&self, doc: u32) -> bool {
        self.live.binary_search(&doc).is_ok() || self.tombstones.binary_search(&doc).is_ok()
    }

    /// This delta's postings for one term, doc-ascending (empty slice
    /// when the term is absent).
    pub fn term_postings(&self, term: u32) -> &[RawEntry] {
        self.terms.get(&term).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every term with at least one posting and its doc-ascending
    /// postings, term-ascending.
    pub fn term_lists(&self) -> impl Iterator<Item = (u32, &[RawEntry])> + '_ {
        self.terms.iter().map(|(&t, v)| (t, v.as_slice()))
    }

    /// Flush pressure: live postings (≥ 1 per inserted document) plus
    /// tombstones.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// One past the highest term id seen.
    pub fn term_slots(&self) -> u32 {
        self.term_slots
    }

    /// Approximate heap bytes of the posting payload (for the
    /// storage-accounting hook).
    pub fn approx_bytes(&self) -> usize {
        self.terms
            .values()
            .map(|v| v.len() * std::mem::size_of::<RawEntry>())
            .sum::<usize>()
            + (self.live.len() + self.tombstones.len()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_op_per_doc_wins() {
        let ops = vec![
            WalOp::Insert {
                doc: 1,
                length: 2,
                terms: vec![(0, 1), (1, 1)],
            },
            WalOp::Delete { doc: 1 },
            WalOp::Delete { doc: 2 },
            WalOp::Insert {
                doc: 2,
                length: 1,
                terms: vec![(5, 1)],
            },
        ];
        let delta = MemDelta::from_ops(&ops);
        assert_eq!(delta.live_docs(), &[2]);
        assert_eq!(delta.tombstones(), &[1]);
        assert!(delta.touches(1) && delta.touches(2) && !delta.touches(3));
        assert_eq!(delta.term_postings(5).len(), 1);
        assert!(delta.term_postings(0).is_empty());
        assert_eq!(delta.weight(), 2); // one live posting + one tombstone
        assert_eq!(delta.term_slots(), 6);
    }

    #[test]
    fn term_less_documents_still_add_flush_pressure() {
        let delta = MemDelta::from_ops(&[WalOp::Insert {
            doc: 3,
            length: 0,
            terms: vec![],
        }]);
        assert_eq!(delta.live_docs(), &[3]);
        assert_eq!(delta.weight(), 1, "an empty doc must not weigh 0");
        assert_eq!(delta.term_slots(), 0);
    }

    #[test]
    fn postings_are_doc_sorted_per_term() {
        let ops: Vec<WalOp> = [5u32, 1, 9, 3]
            .iter()
            .map(|&doc| WalOp::Insert {
                doc,
                length: 1,
                terms: vec![(7, 1)],
            })
            .collect();
        let delta = MemDelta::from_ops(&ops);
        let docs: Vec<u64> = delta.term_postings(7).iter().map(|e| e.doc).collect();
        assert_eq!(docs, vec![1, 3, 5, 9]);
        let terms: Vec<u32> = delta.term_lists().map(|(t, _)| t).collect();
        assert_eq!(terms, vec![7]);
    }
}
