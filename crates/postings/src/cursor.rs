//! The one query cursor over codec-layer postings.
//!
//! [`CompressedBlockCursor`] implements
//! [`zerber_index::cursor::BlockCursor`] over [`BLOCK_SIZE`]-posting
//! blocks from either of two sources, chosen when it opens: a stored
//! compressed list ([`CompressedBlockCursor::new`]), or postings already
//! decoded in memory — a memtable's doc-ascending `&[RawEntry]`, cut
//! where a builder would seal it ([`CompressedBlockCursor::decoded`]).
//! The source answers block-level questions only: how many blocks, a
//! block's `(first_doc, last_doc)`, the first block reaching a bound,
//! and loading a block into the cursor's columns. For a compressed list
//! the block index answers the peeks
//! ([`BlockCursor::block_last_doc`], [`BlockCursor::doc_lower_bound`])
//! without touching the compressed bytes, and a block is decompressed
//! only when [`BlockCursor::materialize`] has to pin an exact position.
//! `advance_past` jumps whole blocks by their bounds alone, so
//! MaxScore's seeks on a demoted list skip decode work — not just score
//! evaluations — for every block they pass over. Every per-posting read
//! is the same code for both sources, over the loaded block's four
//! columns; [`BlockCursor::drain_below`] scores a run of them in one
//! pass, and [`BlockCursor::positions`] reads the position column.
//!
//! The cursor is also the one reader of a compressed list outside
//! queries: as an `Iterator` of [`RawEntry`] it serves
//! [`CompressedPostingList::iter`] — merges, full decodes, the
//! in-memory store's `postings` and a segment merge's carry-over
//! probe — with the same block walk and the same decode.

use zerber_index::cursor::BlockCursor;
use zerber_index::DocId;

use crate::block::{max_term_frequency, term_frequency, DecodedBlock, RawEntry, BLOCK_SIZE};
use crate::list::{meta, CompressedPostingList, ENTRY};

/// `doc`, raised to a cursor's exclusive seek `bound`. A cursor not at
/// its end holds a doc at or past its bound, so there the bound fits a
/// [`DocId`]; past `u32::MAX` it saturates.
fn at_least(doc: u32, bound: u64) -> DocId {
    DocId(doc.max(u32::try_from(bound).unwrap_or(u32::MAX)))
}

/// Where a cursor's blocks come from. Only block-level questions are
/// asked of it; the cursor reads every posting off the block it loads.
#[derive(Debug, Clone, Copy)]
enum Blocks<'a> {
    /// A compressed list's block index and payloads.
    Compressed {
        index: &'a [[u8; ENTRY]],
        data: &'a [u8],
    },
    /// Decoded postings, strictly doc-ascending, cut into
    /// [`BLOCK_SIZE`]-entry blocks.
    Decoded(&'a [RawEntry]),
}

impl Blocks<'_> {
    fn count(self) -> usize {
        match self {
            Blocks::Compressed { index, .. } => index.len(),
            Blocks::Decoded(entries) => entries.len().div_ceil(BLOCK_SIZE),
        }
    }

    /// Block `block`'s first and last doc.
    fn bounds(self, block: usize) -> (u32, u32) {
        match self {
            Blocks::Compressed { index, .. } => {
                let meta = meta(&index[block]);
                (meta.first_doc, meta.last_doc)
            }
            Blocks::Decoded(entries) => {
                let run = run(entries, block);
                (run[0].doc, run[run.len() - 1].doc)
            }
        }
    }

    /// The first block from `from` on whose last doc reaches `bound`;
    /// the block count when none does.
    fn reaching(self, from: usize, bound: u64) -> usize {
        match self {
            Blocks::Compressed { index, .. } => {
                from + index[from..]
                    .partition_point(|entry| u64::from(meta(entry).last_doc) < bound)
            }
            Blocks::Decoded(entries) => {
                // The block holding the first entry at or past the bound.
                let start = (from * BLOCK_SIZE).min(entries.len());
                let at = start + entries[start..].partition_point(|e| u64::from(e.doc) < bound);
                if at == entries.len() {
                    self.count()
                } else {
                    at / BLOCK_SIZE
                }
            }
        }
    }

    /// Loads block `block` into `buffer`.
    fn load(self, block: usize, buffer: &mut DecodedBlock) {
        match self {
            Blocks::Compressed { index, data } => buffer.decode(&meta(&index[block]), data),
            Blocks::Decoded(entries) => buffer.fill(run(entries, block)),
        }
    }
}

/// Block `block` of decoded `entries`: the postings a builder seals
/// into it.
fn run(entries: &[RawEntry], block: usize) -> &[RawEntry] {
    let start = block * BLOCK_SIZE;
    &entries[start..entries.len().min(start + BLOCK_SIZE)]
}

/// A lazy, weighted scoring cursor over one term's postings, stored
/// compressed or held decoded.
///
/// Entries surface as `(doc, tf · weight)` — exactly the values a
/// full decode of the list yields, so rankings are bit-identical to
/// the exhaustive oracle's; only the decode work differs. The per-cursor
/// count of blocks loaded feeds the query-cost accounting that proves
/// pruning skipped real decompression; a decoded source counts the
/// blocks its compressed form would decode.
#[derive(Debug)]
pub struct CompressedBlockCursor<'a> {
    blocks: Blocks<'a>,
    /// How many blocks `blocks` holds.
    total: usize,
    weight: f64,
    /// Static whole-list score bound: the list's max_tf × weight.
    max_score: f64,
    /// The logical position's doc key must be ≥ this; `u32::MAX + 1`
    /// once the last key is consumed.
    bound: u64,
    /// Current block (normalized: first block whose `last_doc` reaches
    /// `bound`; `total` when exhausted).
    block: usize,
    /// The columns of `decoded_block`.
    buffer: DecodedBlock,
    /// Which block `buffer` holds (`usize::MAX` = none yet).
    decoded_block: usize,
    /// Index of the current posting in `buffer`, valid while `exact`.
    pos: usize,
    exact: bool,
    decoded: usize,
}

impl<'a> CompressedBlockCursor<'a> {
    /// A cursor positioned before the first posting of `list`, scoring
    /// with `weight` (a non-negative finite IDF factor).
    pub fn new(list: &'a CompressedPostingList, weight: f64) -> Self {
        let blocks = Blocks::Compressed {
            index: list.index(),
            data: list.data(),
        };
        Self::over(blocks, list.max_tf() * weight, weight)
    }

    /// A cursor positioned before the first of `entries` (strictly
    /// doc-ascending), scoring with `weight`. Its blocks are the
    /// [`BLOCK_SIZE`]-entry runs a builder would seal the entries into,
    /// and its list bound is the one their compressed list would carry
    /// (found as the list check finds a block's), so it ranks and
    /// counts as that list's cursor does. Opening one copies and sorts
    /// nothing.
    pub fn decoded(entries: &'a [RawEntry], weight: f64) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].doc < w[1].doc));
        let max_tf = max_term_frequency(entries.iter().map(|e| (e.count, e.doc_length)));
        Self::over(Blocks::Decoded(entries), max_tf * weight, weight)
    }

    fn over(blocks: Blocks<'a>, max_score: f64, weight: f64) -> Self {
        Self {
            blocks,
            total: blocks.count(),
            weight,
            max_score,
            bound: 0,
            block: 0,
            buffer: DecodedBlock::default(),
            decoded_block: usize::MAX,
            pos: 0,
            exact: false,
            decoded: 0,
        }
    }

    /// Skips blocks whose `last_doc` precedes the bound — block bounds
    /// only, nothing loads. The current block is tested first:
    /// sequential reads and short seeks stay inside it.
    fn normalize(&mut self) {
        if self.block < self.total && u64::from(self.blocks.bounds(self.block).1) < self.bound {
            self.block = self.blocks.reaching(self.block + 1, self.bound);
        }
    }

    /// Posting `i` of the loaded block, scored.
    fn scored_at(&self, i: usize) -> (DocId, f64) {
        let block = &self.buffer;
        let tf = term_frequency(block.counts()[i], block.lengths()[i]);
        (DocId(block.docs()[i]), tf * self.weight)
    }

    /// [`BlockCursor::materialize`] without the score (its body, so
    /// inlined there): pins the first posting at or past the bound,
    /// loading its block unless the buffer holds it already; false at
    /// the end of the list.
    #[inline(always)]
    fn pin(&mut self) -> bool {
        if self.exact {
            return true;
        }
        loop {
            self.normalize();
            if self.at_end() {
                return false;
            }
            if self.decoded_block != self.block {
                self.blocks.load(self.block, &mut self.buffer);
                self.decoded_block = self.block;
                self.decoded += 1;
                self.pos = 0;
            }
            // `pos` never runs ahead of the bound inside a loaded
            // block, so the search resumes from it.
            let bound = self.bound;
            self.pos += self.buffer.docs()[self.pos..].partition_point(|&d| u64::from(d) < bound);
            if self.pos < self.buffer.len() {
                self.exact = true;
                return true;
            }
            // The block's `last_doc ≥ bound` cannot hold for a fully
            // consumed block; kept as a guard — move on and
            // re-normalize.
            self.block += 1;
        }
    }
}

/// The list's postings in full, from the one at the cursor on: each
/// `next` pins a posting as `materialize` would, reads it off the
/// loaded columns and steps past it. Merges, full decodes and
/// [`crate::CompressedPostingStore`]'s `postings` read a list this way;
/// no score is computed.
impl Iterator for CompressedBlockCursor<'_> {
    type Item = RawEntry;

    fn next(&mut self) -> Option<RawEntry> {
        if !self.pin() {
            return None;
        }
        let entry = self.buffer.entry(self.pos);
        self.step();
        Some(entry)
    }
}

impl BlockCursor for CompressedBlockCursor<'_> {
    fn total_blocks(&self) -> usize {
        self.total
    }

    fn decoded_blocks(&self) -> usize {
        self.decoded
    }

    fn at_end(&self) -> bool {
        self.block >= self.total
    }

    fn list_max_score(&self) -> f64 {
        self.max_score
    }

    fn block_last_doc(&self) -> DocId {
        DocId(self.blocks.bounds(self.block).1)
    }

    fn doc_lower_bound(&self) -> DocId {
        if self.exact {
            return DocId(self.buffer.docs()[self.pos]);
        }
        at_least(self.blocks.bounds(self.block).0, self.bound)
    }

    fn is_exact(&self) -> bool {
        self.exact
    }

    fn materialize(&mut self) -> Option<(DocId, f64)> {
        self.pin().then(|| self.scored_at(self.pos))
    }

    fn positions(&self) -> (u32, u32) {
        debug_assert!(self.exact, "positions requires a materialized position");
        (
            self.buffer.positions()[self.pos],
            self.buffer.counts()[self.pos],
        )
    }

    /// O(1) inside a loaded block: the next buffered entry becomes the
    /// (still exact) current posting; only leaving the block drops back
    /// to the bounds-only state.
    fn step(&mut self) {
        debug_assert!(self.exact, "step requires a materialized position");
        self.bound = u64::from(self.buffer.docs()[self.pos]) + 1;
        self.pos += 1;
        if self.pos == self.buffer.len() {
            self.exact = false;
            self.block += 1;
        }
    }

    fn advance_past(&mut self, bound: DocId) {
        if self.exact && self.buffer.docs()[self.pos] > bound.0 {
            return;
        }
        let target = u64::from(bound.0) + 1;
        if target > self.bound {
            self.bound = target;
        }
        self.exact = false;
        self.normalize();
    }

    /// Loads each block once, as `materialize` would, and scores its
    /// run below `end` straight off the columns in one pass, leaving
    /// the cursor where the `step` after that run's last posting
    /// would.
    fn drain_below(&mut self, end: u64, out: &mut Vec<(DocId, f64)>) {
        while !self.at_end() && u64::from(self.doc_lower_bound().0) < end {
            if !self.pin() {
                return;
            }
            let block = &self.buffer;
            let (from, docs) = (self.pos, block.docs());
            let to = from + docs[from..].partition_point(|&d| u64::from(d) < end);
            if to == from {
                return;
            }
            self.bound = u64::from(docs[to - 1]) + 1;
            let weight = self.weight;
            let columns = docs[from..to]
                .iter()
                .zip(&block.counts()[from..to])
                .zip(&block.lengths()[from..to]);
            out.extend(columns.map(|((&doc, &count), &length)| {
                (DocId(doc), term_frequency(count, length) * weight)
            }));
            self.pos = to;
            if to < docs.len() {
                return;
            }
            self.exact = false;
            self.block += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CompressedPostingBuilder;
    use zerber_index::cursor::{
        maxscore_topk, QueryCost, Shadow, ShadowedMergeCursor, TopKScratch,
    };

    fn list_of(docs: &[u32]) -> CompressedPostingList {
        CompressedPostingBuilder::from_sorted(docs.iter().map(|&doc| RawEntry {
            doc,
            count: doc % 7 + 1,
            doc_length: 100,
            pos: doc % 50,
        }))
    }

    /// Entries scoring `count / 10` under weight 1.
    fn tenths(entries: &[(u32, u32)]) -> Vec<RawEntry> {
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
        let entries = tenths(&(0..300).map(|i| (i * 3, 1 + i % 9)).collect::<Vec<_>>());
        let mut cursor = CompressedBlockCursor::decoded(&entries, 1.0);
        let mut seen = Vec::new();
        while let Some((doc, score)) = cursor.materialize() {
            seen.push((doc.0, score));
            cursor.step();
        }
        let expected: Vec<(u32, f64)> = entries
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
        let mut cursor = CompressedBlockCursor::decoded(&entries, 1.0);
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
        let docs: Vec<u32> = (0..400).map(|i| i * 3).collect();
        let list = list_of(&docs);
        let mut cursor = CompressedBlockCursor::new(&list, 2.0);
        let mut seen = Vec::new();
        while let Some((doc, score)) = cursor.materialize() {
            seen.push((doc.0, score));
            cursor.step();
        }
        let expected: Vec<(u32, f64)> = list
            .iter()
            .map(|e| (e.doc, e.term_frequency() * 2.0))
            .collect();
        assert_eq!(seen, expected);
        assert_eq!(cursor.decoded_blocks(), cursor.total_blocks());
    }

    #[test]
    fn advance_past_skips_blocks_without_decoding() {
        let docs: Vec<u32> = (0..1024).collect(); // 8 full blocks
        let list = list_of(&docs);
        let mut cursor = CompressedBlockCursor::new(&list, 1.0);
        cursor.advance_past(DocId(899));
        assert_eq!(cursor.materialize().unwrap().0, DocId(900));
        assert_eq!(cursor.decoded_blocks(), 1, "only the landing block");
        // A backward advance is a no-op.
        cursor.advance_past(DocId(3));
        assert_eq!(cursor.materialize().unwrap().0, DocId(900));
        // The metadata peeks never decode.
        assert_eq!(cursor.block_last_doc(), DocId(1023));
        assert_eq!(cursor.decoded_blocks(), 1);
    }

    #[test]
    fn metadata_bounds_are_sound_without_decode() {
        let docs: Vec<u32> = (0..300).map(|i| i * 2 + 10).collect();
        let list = list_of(&docs);
        let cursor = CompressedBlockCursor::new(&list, 1.5);
        assert!(!cursor.at_end());
        assert_eq!(cursor.doc_lower_bound(), DocId(10));
        assert_eq!(cursor.block_last_doc(), DocId(10 + 127 * 2));
        assert_eq!(cursor.decoded_blocks(), 0);
    }

    #[test]
    fn cursors_agree_with_the_entries_under_steps_and_seeks() {
        // Three blocks with gaps, the last of 44 postings. Every script
        // of steps and seeks — seeks past the end included — must
        // surface, through the cursor over either source, exactly the
        // entries a plain scan of the list yields from the same bound —
        // doc, score and positional run — with identical block
        // accounting.
        let docs: Vec<u32> = (0..300).map(|i| i * 5 + (i % 3)).collect();
        let list = list_of(&docs);
        let entries = list.decode_all();
        for stride in [1u32, 2, 7, 64, 127, 128, 129, 500, 2000] {
            let mut compressed = CompressedBlockCursor::new(&list, 1.5);
            let mut decoded = CompressedBlockCursor::decoded(&entries, 1.5);
            assert_eq!(compressed.total_blocks(), decoded.total_blocks());
            assert_eq!(compressed.list_max_score(), decoded.list_max_score());
            let mut bound = 0u32;
            let mut turn = 0u32;
            loop {
                let want = entries.iter().find(|e| e.doc >= bound);
                for cursor in [&mut compressed as &mut dyn BlockCursor, &mut decoded] {
                    if let Some(want) = want {
                        assert!(!cursor.at_end());
                        assert!(cursor.doc_lower_bound().0 <= want.doc);
                        assert!(cursor.block_last_doc().0 >= want.doc);
                    }
                    let got = cursor.materialize();
                    assert_eq!(
                        got,
                        want.map(|e| (DocId(e.doc), e.term_frequency() * 1.5)),
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
                    compressed.advance_past(DocId(bound - 1));
                    decoded.advance_past(DocId(bound - 1));
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
        // rare-term documents, the common list's σ bound falls below
        // the k-th score and its remaining blocks are skipped undecoded.
        let rare = tenths(&(0..4).map(|doc| (doc, 10)).collect::<Vec<_>>());
        let common = tenths(&(0..4096).map(|doc| (doc, 10)).collect::<Vec<_>>());
        let rare_list = CompressedPostingBuilder::from_sorted(rare.iter().copied());
        let common_list = CompressedPostingBuilder::from_sorted(common.iter().copied());
        let decoded: Vec<Box<dyn BlockCursor + '_>> = vec![
            Box::new(CompressedBlockCursor::decoded(&rare, 100.0)),
            Box::new(CompressedBlockCursor::decoded(&common, 0.001)),
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
        let subs = vec![(0, CompressedBlockCursor::decoded(&only, 1.0))];
        let mut merged = ShadowedMergeCursor::new(subs, NewerTouch(vec![vec![5]]));
        assert!(!merged.at_end());
        assert!(merged.materialize().is_none());
        assert!(merged.at_end());
    }
}
