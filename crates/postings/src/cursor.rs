//! The decode-on-demand query cursor over a [`CompressedPostingList`].
//!
//! [`CompressedBlockCursor`] implements
//! [`zerber_index::cursor::BlockCursor`] directly against the stored
//! block payloads: the `(first_doc, last_doc, max_tf)` skip metadata
//! answers every peek ([`BlockCursor::block_max`],
//! [`BlockCursor::block_last_doc`], [`BlockCursor::doc_lower_bound`])
//! without touching the compressed bytes, and a block is decompressed
//! only when [`BlockCursor::materialize`] has to pin an exact
//! position. `advance_past` jumps whole blocks via the metadata alone,
//! so the block-max Threshold Algorithm skips decode work — not just
//! score evaluations — for blocks it proves non-contending.

use zerber_index::cursor::BlockCursor;
use zerber_index::DocId;

use crate::block::{decode_block, RawEntry, BLOCK_SIZE};
use crate::list::CompressedPostingList;

/// A lazy, weighted scoring cursor over one compressed posting list.
///
/// Entries surface as `(doc, tf · weight)` — exactly the values a
/// full decode of the list yields, so rankings are bit-identical to
/// the raw backend's; only the decode work differs. The per-cursor
/// decode counter feeds the query-cost accounting that proves pruning
/// skipped real decompression.
#[derive(Debug)]
pub struct CompressedBlockCursor<'a> {
    list: &'a CompressedPostingList,
    weight: f64,
    /// Static whole-list score bound: max block max_tf × weight,
    /// computed once at construction for MaxScore partitioning.
    max_score: f64,
    /// The logical position's doc key must be ≥ this.
    bound: u64,
    /// Current block (normalized: first block whose `last_doc` reaches
    /// `bound`; `blocks.len()` when exhausted).
    block: usize,
    /// Decoded entries of `decoded_block`.
    buffer: Vec<RawEntry>,
    /// Which block `buffer` holds (`usize::MAX` = none yet).
    decoded_block: usize,
    /// Index of the current posting in `buffer`, valid while `exact`.
    pos: usize,
    exact: bool,
    decoded: usize,
}

impl<'a> CompressedBlockCursor<'a> {
    /// A cursor positioned before the first posting, scoring with
    /// `weight` (a non-negative finite IDF factor).
    pub fn new(list: &'a CompressedPostingList, weight: f64) -> Self {
        let max_score = list
            .blocks()
            .iter()
            .map(|meta| meta.max_tf * weight)
            .fold(0.0, f64::max);
        Self {
            list,
            weight,
            max_score,
            bound: 0,
            block: 0,
            buffer: Vec::with_capacity(BLOCK_SIZE),
            decoded_block: usize::MAX,
            pos: 0,
            exact: false,
            decoded: 0,
        }
    }

    /// Skips blocks whose `last_doc` precedes the bound — metadata
    /// only, nothing decodes.
    fn normalize(&mut self) {
        let blocks = self.list.blocks();
        self.block += blocks[self.block.min(blocks.len())..]
            .partition_point(|meta| meta.last_doc < self.bound);
    }

    fn entry(&self) -> (DocId, f64) {
        let entry = self.buffer[self.pos];
        (
            DocId(u32::try_from(entry.doc).expect("doc keys originate from 32-bit DocIds")),
            entry.term_frequency() * self.weight,
        )
    }
}

impl BlockCursor for CompressedBlockCursor<'_> {
    fn total_blocks(&self) -> usize {
        self.list.blocks().len()
    }

    fn decoded_blocks(&self) -> usize {
        self.decoded
    }

    fn at_end(&self) -> bool {
        self.block >= self.list.blocks().len()
    }

    fn block_max(&self) -> f64 {
        self.list.blocks()[self.block].max_tf * self.weight
    }

    fn list_max_score(&self) -> f64 {
        self.max_score
    }

    fn block_last_doc(&self) -> DocId {
        DocId(
            u32::try_from(self.list.blocks()[self.block].last_doc)
                .expect("doc keys originate from 32-bit DocIds"),
        )
    }

    fn doc_lower_bound(&self) -> DocId {
        if self.exact {
            return self.entry().0;
        }
        let first = self.list.blocks()[self.block].first_doc;
        DocId(u32::try_from(first.max(self.bound)).expect("doc keys originate from 32-bit DocIds"))
    }

    fn is_exact(&self) -> bool {
        self.exact
    }

    fn materialize(&mut self) -> Option<(DocId, f64)> {
        if self.exact {
            return Some(self.entry());
        }
        loop {
            self.normalize();
            if self.at_end() {
                return None;
            }
            if self.decoded_block != self.block {
                decode_block(
                    &self.list.blocks()[self.block],
                    self.list.data(),
                    &mut self.buffer,
                )
                .expect("builder-produced blocks decode cleanly");
                self.decoded_block = self.block;
                self.decoded += 1;
            }
            let bound = self.bound;
            let offset = self.buffer.partition_point(|e| e.doc < bound);
            if offset < self.buffer.len() {
                self.pos = offset;
                self.exact = true;
                return Some(self.entry());
            }
            // Every entry of this block is consumed; the metadata said
            // `last_doc ≥ bound` only because bound == last_doc + … —
            // move on and re-normalize.
            self.block += 1;
        }
    }

    fn step(&mut self) {
        debug_assert!(self.exact, "step requires a materialized position");
        self.bound = self.buffer[self.pos].doc + 1;
        self.exact = false;
        self.normalize();
    }

    fn advance_past(&mut self, bound: DocId) {
        if self.exact && self.buffer[self.pos].doc > u64::from(bound.0) {
            return;
        }
        let target = u64::from(bound.0) + 1;
        if target > self.bound {
            self.bound = target;
        }
        self.exact = false;
        self.normalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CompressedPostingBuilder;

    fn list_of(docs: &[u64]) -> CompressedPostingList {
        CompressedPostingBuilder::from_sorted(docs.iter().map(|&doc| RawEntry {
            doc,
            count: (doc % 7) as u32 + 1,
            doc_length: 100,
            pos: 0,
        }))
    }

    #[test]
    fn cursor_walk_matches_the_decoding_iterator() {
        let docs: Vec<u64> = (0..400).map(|i| i * 3).collect();
        let list = list_of(&docs);
        let mut cursor = CompressedBlockCursor::new(&list, 2.0);
        let mut seen = Vec::new();
        while let Some((doc, score)) = cursor.materialize() {
            seen.push((u64::from(doc.0), score));
            cursor.step();
        }
        let expected: Vec<(u64, f64)> = list
            .iter()
            .map(|e| (e.doc, e.term_frequency() * 2.0))
            .collect();
        assert_eq!(seen, expected);
        assert_eq!(cursor.decoded_blocks(), cursor.total_blocks());
    }

    #[test]
    fn advance_past_skips_blocks_without_decoding() {
        let docs: Vec<u64> = (0..1024).collect(); // 8 full blocks
        let list = list_of(&docs);
        let mut cursor = CompressedBlockCursor::new(&list, 1.0);
        cursor.advance_past(DocId(899));
        assert_eq!(cursor.materialize().unwrap().0, DocId(900));
        assert_eq!(cursor.decoded_blocks(), 1, "only the landing block");
        // A backward advance is a no-op.
        cursor.advance_past(DocId(3));
        assert_eq!(cursor.materialize().unwrap().0, DocId(900));
        // The metadata peeks never decode.
        assert!(cursor.block_max() > 0.0);
        assert_eq!(cursor.decoded_blocks(), 1);
    }

    #[test]
    fn metadata_bounds_are_sound_without_decode() {
        let docs: Vec<u64> = (0..300).map(|i| i * 2 + 10).collect();
        let list = list_of(&docs);
        let cursor = CompressedBlockCursor::new(&list, 1.5);
        assert!(!cursor.at_end());
        assert_eq!(cursor.doc_lower_bound(), DocId(10));
        assert_eq!(cursor.block_last_doc(), DocId(10 + 127 * 2));
        assert_eq!(cursor.decoded_blocks(), 0);
    }

    #[test]
    fn empty_list_cursor_is_at_end() {
        let list = CompressedPostingList::default();
        let mut cursor = CompressedBlockCursor::new(&list, 1.0);
        assert!(cursor.at_end());
        assert!(cursor.materialize().is_none());
    }
}
