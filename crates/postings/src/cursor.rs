//! The query cursors over codec-layer postings.
//!
//! [`CompressedBlockCursor`] implements
//! [`zerber_index::cursor::BlockCursor`] directly against the stored
//! block payloads: the `(first_doc, last_doc, max_tf)` skip metadata
//! answers every peek ([`BlockCursor::block_max`],
//! [`BlockCursor::block_last_doc`], [`BlockCursor::doc_lower_bound`])
//! without touching the compressed bytes, and a block is decompressed
//! only when [`BlockCursor::materialize`] has to pin an exact
//! position. `advance_past` jumps whole blocks via the metadata alone,
//! so MaxScore's seeks on a demoted list skip decode work — not just
//! score evaluations — for every block they pass over.
//!
//! [`DecodedEntriesCursor`] is the same cursor over postings that are
//! already decoded in memory (a memtable delta's `&[RawEntry]`): it
//! borrows the slice, so opening one copies and sorts nothing.
//!
//! Both read the positional run of the posting they stand on
//! ([`BlockCursor::positions`]) from the entry itself.

use zerber_index::cursor::BlockCursor;
use zerber_index::DocId;

use crate::block::{decode_block, RawEntry, BLOCK_SIZE};
use crate::list::CompressedPostingList;

fn doc_id(key: u64) -> DocId {
    DocId(u32::try_from(key).expect("doc keys originate from 32-bit DocIds"))
}

/// A lazy, weighted scoring cursor over one compressed posting list.
///
/// Entries surface as `(doc, tf · weight)` — exactly the values a
/// full decode of the list yields, so rankings are bit-identical to
/// the exhaustive oracle's; only the decode work differs. The per-cursor
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
    /// only, nothing decodes. The current block is tested first:
    /// sequential reads and short seeks stay inside it.
    fn normalize(&mut self) {
        let blocks = self.list.blocks();
        if blocks
            .get(self.block)
            .is_some_and(|meta| meta.last_doc < self.bound)
        {
            self.block += 1;
            self.block += blocks[self.block..].partition_point(|meta| meta.last_doc < self.bound);
        }
    }

    fn entry(&self) -> (DocId, f64) {
        let entry = self.buffer[self.pos];
        (doc_id(entry.doc), entry.term_frequency() * self.weight)
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
        doc_id(self.list.blocks()[self.block].last_doc)
    }

    fn doc_lower_bound(&self) -> DocId {
        if self.exact {
            return doc_id(self.buffer[self.pos].doc);
        }
        let first = self.list.blocks()[self.block].first_doc;
        doc_id(first.max(self.bound))
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
                self.pos = 0;
            }
            // `pos` never runs ahead of the bound inside a decoded
            // block, so the search resumes from it.
            let bound = self.bound;
            self.pos += self.buffer[self.pos..].partition_point(|e| e.doc < bound);
            if self.pos < self.buffer.len() {
                self.exact = true;
                return Some(self.entry());
            }
            // The metadata's `last_doc ≥ bound` cannot hold for a
            // fully consumed block; kept as a guard — move on and
            // re-normalize.
            self.block += 1;
        }
    }

    fn positions(&self) -> (u32, u32) {
        debug_assert!(self.exact, "positions requires a materialized position");
        let entry = self.buffer[self.pos];
        (entry.pos, entry.count)
    }

    /// O(1) inside a decoded block: the next buffered entry becomes
    /// the (still exact) current posting; only leaving the block drops
    /// back to the metadata-only state.
    fn step(&mut self) {
        debug_assert!(self.exact, "step requires a materialized position");
        self.bound = self.buffer[self.pos].doc + 1;
        self.pos += 1;
        if self.pos == self.buffer.len() {
            self.exact = false;
            self.block += 1;
        }
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

/// A weighted scoring cursor borrowing postings that are already
/// decoded (a memtable delta's per-term slice): the same
/// `(doc, tf · weight)` values and the same [`BLOCK_SIZE`]-entry block
/// granularity as [`CompressedBlockCursor`], with "decoded" counting
/// the blocks whose entries the evaluator actually examined. Opening
/// one costs a single pass for the block maxima — no copy, no sort.
#[derive(Debug)]
pub struct DecodedEntriesCursor<'a> {
    entries: &'a [RawEntry],
    weight: f64,
    /// Per block: max term frequency × weight.
    block_max: Vec<f64>,
    max_score: f64,
    /// The logical position's doc key must be ≥ this.
    bound: u64,
    /// Index of the next not-yet-consumed entry candidate: every entry
    /// before it is below the bound.
    pos: usize,
    exact: bool,
    decoded: usize,
    /// Last block counted as decoded (blocks are touched in
    /// non-decreasing order, so equality suffices for distinctness).
    last_touched: usize,
}

impl<'a> DecodedEntriesCursor<'a> {
    /// A cursor positioned before the first of `entries` (strictly
    /// doc-ascending), scoring with `weight`.
    pub fn new(entries: &'a [RawEntry], weight: f64) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].doc < w[1].doc));
        let block_max: Vec<f64> = entries
            .chunks(BLOCK_SIZE)
            .map(|block| {
                block
                    .iter()
                    .map(|e| e.term_frequency() * weight)
                    .fold(0.0, f64::max)
            })
            .collect();
        let max_score = block_max.iter().copied().fold(0.0, f64::max);
        Self {
            entries,
            weight,
            block_max,
            max_score,
            bound: 0,
            pos: 0,
            exact: false,
            decoded: 0,
            last_touched: usize::MAX,
        }
    }

    fn block(&self) -> usize {
        self.pos / BLOCK_SIZE
    }

    fn block_end(&self) -> usize {
        ((self.block() + 1) * BLOCK_SIZE).min(self.entries.len())
    }

    /// Skips whole blocks that end before the bound by their last
    /// entry alone, leaving `pos` at the start of the landing block.
    fn normalize(&mut self) {
        while self.pos < self.entries.len() && self.entries[self.block_end() - 1].doc < self.bound {
            self.pos = self.block_end();
        }
    }
}

impl BlockCursor for DecodedEntriesCursor<'_> {
    fn total_blocks(&self) -> usize {
        self.block_max.len()
    }

    fn decoded_blocks(&self) -> usize {
        self.decoded
    }

    fn at_end(&self) -> bool {
        self.pos >= self.entries.len()
    }

    fn block_max(&self) -> f64 {
        self.block_max[self.block()]
    }

    fn list_max_score(&self) -> f64 {
        self.max_score
    }

    fn block_last_doc(&self) -> DocId {
        doc_id(self.entries[self.block_end() - 1].doc)
    }

    fn doc_lower_bound(&self) -> DocId {
        doc_id(self.entries[self.pos].doc.max(self.bound))
    }

    fn is_exact(&self) -> bool {
        self.exact
    }

    fn materialize(&mut self) -> Option<(DocId, f64)> {
        if !self.exact {
            self.normalize();
            if self.at_end() {
                return None;
            }
            // The landing block's last entry reaches the bound, so the
            // search ends inside it.
            let bound = self.bound;
            let end = self.block_end();
            self.pos += self.entries[self.pos..end].partition_point(|e| e.doc < bound);
            self.exact = true;
            if self.last_touched != self.block() {
                self.last_touched = self.block();
                self.decoded += 1;
            }
        }
        let entry = self.entries[self.pos];
        Some((doc_id(entry.doc), entry.term_frequency() * self.weight))
    }

    fn positions(&self) -> (u32, u32) {
        debug_assert!(self.exact, "positions requires a materialized position");
        let entry = self.entries[self.pos];
        (entry.pos, entry.count)
    }

    fn step(&mut self) {
        debug_assert!(self.exact, "step requires a materialized position");
        self.bound = self.entries[self.pos].doc + 1;
        self.pos += 1;
        // Exact stays free only inside the block already examined.
        self.exact = self.pos < self.entries.len() && !self.pos.is_multiple_of(BLOCK_SIZE);
    }

    fn advance_past(&mut self, bound: DocId) {
        if self.exact && self.entries[self.pos].doc > u64::from(bound.0) {
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
    use zerber_index::cursor::{
        maxscore_topk, QueryCost, Shadow, ShadowedMergeCursor, TopKScratch,
    };

    fn list_of(docs: &[u64]) -> CompressedPostingList {
        CompressedPostingBuilder::from_sorted(docs.iter().map(|&doc| RawEntry {
            doc,
            count: (doc % 7) as u32 + 1,
            doc_length: 100,
            pos: (doc % 50) as u32,
        }))
    }

    /// Entries scoring `count / 10` under weight 1.
    fn tenths(entries: &[(u64, u32)]) -> Vec<RawEntry> {
        entries
            .iter()
            .map(|&(doc, count)| RawEntry {
                doc,
                count,
                doc_length: 10,
                pos: 0,
            })
            .collect()
    }

    #[test]
    fn cursor_walk_yields_every_entry_in_order() {
        let entries = tenths(
            &(0..300)
                .map(|i| (i * 3, 1 + i as u32 % 9))
                .collect::<Vec<_>>(),
        );
        let mut cursor = DecodedEntriesCursor::new(&entries, 1.0);
        let mut seen = Vec::new();
        while let Some((doc, score)) = cursor.materialize() {
            seen.push((u64::from(doc.0), score));
            cursor.step();
        }
        let expected: Vec<(u64, f64)> = entries
            .iter()
            .map(|e| (e.doc, e.term_frequency()))
            .collect();
        assert_eq!(seen, expected);
        assert!(cursor.at_end());
        assert_eq!(cursor.decoded_blocks(), cursor.total_blocks());
    }

    #[test]
    fn advance_past_skips_blocks_without_touching_them() {
        let entries = tenths(&(0..1024).map(|doc| (doc, 5)).collect::<Vec<_>>());
        let mut cursor = DecodedEntriesCursor::new(&entries, 1.0);
        cursor.advance_past(DocId(899));
        assert_eq!(cursor.materialize(), Some((DocId(900), 0.5)));
        // Only the landing block was examined.
        assert_eq!(cursor.decoded_blocks(), 1);
        assert_eq!(cursor.total_blocks(), 8);
        // Advancing to a position already behind is a no-op.
        cursor.advance_past(DocId(3));
        assert_eq!(cursor.materialize(), Some((DocId(900), 0.5)));
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
    fn cursors_agree_with_the_entries_under_steps_and_seeks() {
        // Three blocks with gaps. Every script of steps and seeks must
        // surface, through both cursors, exactly the entries a plain
        // scan of the list yields from the same bound — doc, score and
        // positional run — with identical block accounting.
        let docs: Vec<u64> = (0..300).map(|i| i * 5 + (i % 3)).collect();
        let list = list_of(&docs);
        let entries = list.decode_all();
        for stride in [1u64, 2, 7, 64, 127, 128, 129, 500, 2000] {
            let mut compressed = CompressedBlockCursor::new(&list, 1.5);
            let mut decoded = DecodedEntriesCursor::new(&entries, 1.5);
            assert_eq!(compressed.total_blocks(), decoded.total_blocks());
            assert_eq!(compressed.list_max_score(), decoded.list_max_score());
            let mut bound = 0u64;
            let mut turn = 0u64;
            loop {
                let want = entries.iter().find(|e| e.doc >= bound);
                for cursor in [&mut compressed as &mut dyn BlockCursor, &mut decoded] {
                    if let Some(want) = want {
                        assert!(!cursor.at_end());
                        assert!(u64::from(cursor.doc_lower_bound().0) <= want.doc);
                        assert!(cursor.block_max() >= want.term_frequency() * 1.5);
                        assert!(u64::from(cursor.block_last_doc().0) >= want.doc);
                    }
                    let got = cursor.materialize();
                    assert_eq!(
                        got,
                        want.map(|e| (DocId(e.doc as u32), e.term_frequency() * 1.5)),
                        "stride {stride} bound {bound}"
                    );
                    if let Some(want) = want {
                        assert!(cursor.is_exact());
                        assert_eq!(cursor.positions(), (want.pos, want.count));
                    } else {
                        assert!(cursor.at_end());
                    }
                }
                let Some(want) = want else { break };
                // Alternate consuming the posting with seeking ahead.
                turn += 1;
                if turn.is_multiple_of(3) {
                    bound = want.doc + stride;
                    compressed.advance_past(DocId((bound - 1) as u32));
                    decoded.advance_past(DocId((bound - 1) as u32));
                } else {
                    bound = want.doc + 1;
                    compressed.step();
                    decoded.step();
                }
            }
            assert_eq!(compressed.decoded_blocks(), decoded.decoded_blocks());
        }
    }

    #[test]
    fn empty_list_cursor_is_at_end() {
        let list = CompressedPostingList::default();
        let mut cursor = CompressedBlockCursor::new(&list, 1.0);
        assert!(cursor.at_end());
        assert!(cursor.materialize().is_none());
    }

    #[test]
    fn selective_query_decodes_strictly_fewer_blocks() {
        // One rare, high-scoring term at the front of the id space and
        // one long, low-scoring common list: once the heap fills with
        // rare-term documents, the common tail's block maxima fall
        // below the k-th score and those blocks are skipped undecoded.
        let rare = tenths(&(0..4).map(|doc| (doc, 10)).collect::<Vec<_>>());
        let common = tenths(&(0..4096).map(|doc| (doc, 10)).collect::<Vec<_>>());
        let rare_list = CompressedPostingBuilder::from_sorted(rare.iter().copied());
        let common_list = CompressedPostingBuilder::from_sorted(common.iter().copied());
        let decoded: Vec<Box<dyn BlockCursor + '_>> = vec![
            Box::new(DecodedEntriesCursor::new(&rare, 100.0)),
            Box::new(DecodedEntriesCursor::new(&common, 0.001)),
        ];
        let compressed: Vec<Box<dyn BlockCursor + '_>> = vec![
            Box::new(CompressedBlockCursor::new(&rare_list, 100.0)),
            Box::new(CompressedBlockCursor::new(&common_list, 0.001)),
        ];
        let mut scratch = TopKScratch::new();
        for mut cursors in [decoded, compressed] {
            maxscore_topk(&mut cursors, 3, &mut scratch);
            let cost = QueryCost::of(&cursors);
            assert_eq!(scratch.ranked.len(), 3);
            assert_eq!(scratch.ranked[0].doc, DocId(0));
            // One-sweep selection pins exactly the cursors the
            // one-at-a-time restart did: the count measured before the
            // sweep replaced it (PR 14: 2 of 33 blocks).
            assert_eq!((cost.blocks_decoded, cost.blocks_total), (2, 33));
            assert_eq!(cost.postings_scored, 0, "QueryCost::of counts blocks only");
        }
    }

    /// Per source rank, the sorted docs its newer sources touch.
    struct NewerTouch(Vec<Vec<u32>>);

    impl Shadow for NewerTouch {
        fn next_touched(&mut self, rank: usize, doc: DocId) -> Option<DocId> {
            self.0[rank]
                .iter()
                .find(|&&d| d >= doc.0)
                .map(|&d| DocId(d))
        }
    }

    #[test]
    fn shadowed_merge_masks_older_sources() {
        // Source 0 (old): docs 1, 2, 3, 5. Source 1 (new): doc 2 with
        // a different score, and it also touches doc 3 (re-inserted
        // without the term) — so the live postings are 1 (old), 2
        // (new) and 5 (old), and 3 is dead.
        let old = CompressedPostingBuilder::from_sorted(tenths(&[(1, 1), (2, 2), (3, 3), (5, 4)]));
        let new = CompressedPostingBuilder::from_sorted(tenths(&[(2, 9)]));
        let subs = vec![
            (0, CompressedBlockCursor::new(&old, 1.0)),
            (1, CompressedBlockCursor::new(&new, 1.0)),
        ];
        let shadow = NewerTouch(vec![vec![2, 3], vec![]]);
        let mut merged = ShadowedMergeCursor::new(subs, shadow);
        let mut seen = Vec::new();
        while let Some((doc, score)) = merged.materialize() {
            seen.push((doc.0, score));
            merged.step();
        }
        assert_eq!(seen, vec![(1, 0.1), (2, 0.9), (5, 0.4)]);
        assert!(merged.at_end());
    }

    #[test]
    fn shadowed_merge_discovering_exhaustion_flips_at_end() {
        // Everything in the only source is shadowed: the metadata
        // cannot know, but materialize must settle it.
        let only = tenths(&[(5, 5)]);
        let subs = vec![(0, DecodedEntriesCursor::new(&only, 1.0))];
        let mut merged = ShadowedMergeCursor::new(subs, NewerTouch(vec![vec![5]]));
        assert!(!merged.at_end());
        assert!(merged.materialize().is_none());
        assert!(merged.at_end());
    }
}
