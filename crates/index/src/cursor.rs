//! Lazy decode-on-demand cursors for block-max top-k.
//!
//! Ranking a query by first materializing every posting of every query
//! term costs O(total postings) regardless of `k`. This module makes
//! the read path lazy end-to-end: a [`BlockCursor`] exposes a term's
//! scored postings *by block*, with the block-max skip metadata
//! readable **without decoding** the block payload, and
//! [`block_max_topk_cursors`] consults those bounds *before* touching
//! entries — only blocks that survive the upper-bound test are ever
//! decompressed.
//!
//! Every backend implements the trait at its natural level of
//! laziness:
//!
//! * [`ScoredListCursor`] — the trivial adapter over a materialized
//!   [`BlockScoredList`] (raw posting lists have no stored skip
//!   metadata to exploit; "decoded" there counts blocks whose entries
//!   the algorithm actually examined);
//! * `CompressedBlockCursor` (in `zerber-postings`) — decodes straight
//!   from the stored compressed blocks, skipping via the persisted
//!   `(first_doc, last_doc, max_tf)` index;
//! * [`ShadowedMergeCursor`] — merges several sub-cursors (memtable
//!   deltas over on-disk segments) under the doc-level shadowing rule
//!   without flattening them into one list first.
//!
//! The cursor algorithm returns **bit-identical** results to the
//! exhaustive oracle: per-document contributions are accumulated in
//! list order exactly like [`crate::topk::naive_topk`], and pruning
//! uses strict bounds, so ties can never be lost (property-tested in
//! `topk_properties.rs`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::topk::{BlockScoredList, RankedDoc, Score};
use crate::types::DocId;

/// Lazy sorted access over one term's scored postings, at block
/// granularity.
///
/// A cursor has a *logical position*: the next not-yet-consumed
/// posting. The position's document id may be known only as a lower
/// bound until [`BlockCursor::materialize`] decodes the current block
/// — that deferral is the entire point, since
/// [`block_max_topk_cursors`] can often prove from
/// [`BlockCursor::block_max`] alone that a block cannot contend and
/// skip it via [`BlockCursor::advance_past`] without any decode.
///
/// # Contract
///
/// * Postings are in strictly increasing document order; scores are
///   non-negative and finite.
/// * While [`at_end`](Self::at_end) is `false`, the three metadata
///   methods are callable without decoding:
///   [`block_max`](Self::block_max) upper-bounds every remaining score
///   up to and including [`block_last_doc`](Self::block_last_doc), and
///   [`doc_lower_bound`](Self::doc_lower_bound) lower-bounds the next
///   posting's document (it is *exact* when
///   [`is_exact`](Self::is_exact) is `true`).
/// * `at_end() == false` does **not** guarantee a posting remains (a
///   merged cursor may discover that everything left is shadowed);
///   [`materialize`](Self::materialize) returning `None` settles it,
///   after which `at_end` must report `true`.
pub trait BlockCursor {
    /// Total blocks in the underlying list(s).
    fn total_blocks(&self) -> usize;

    /// Blocks decoded (payload touched) so far — the per-query
    /// pruning-effectiveness metric.
    fn decoded_blocks(&self) -> usize;

    /// `true` once the cursor is certainly exhausted (metadata-only
    /// check; see the trait contract for the merged-cursor caveat).
    fn at_end(&self) -> bool;

    /// Upper bound on the score of every remaining posting with
    /// document `≤ block_last_doc()`. Only meaningful while
    /// `!at_end()`.
    fn block_max(&self) -> f64;

    /// Static upper bound on the score of *every* posting in the
    /// underlying list(s) — the whole-list σ bound MaxScore partitions
    /// cursors by. Computed from metadata at construction; callable at
    /// any time (including after exhaustion) and constant for the
    /// cursor's lifetime.
    fn list_max_score(&self) -> f64;

    /// The last document the current block(s) cover. Only meaningful
    /// while `!at_end()`.
    fn block_last_doc(&self) -> DocId;

    /// Lower bound on the next posting's document id; exact when
    /// [`is_exact`](Self::is_exact). Only meaningful while
    /// `!at_end()`.
    fn doc_lower_bound(&self) -> DocId;

    /// `true` when the current posting is decoded and
    /// [`materialize`](Self::materialize) will return it without
    /// further work.
    fn is_exact(&self) -> bool;

    /// Decodes enough to pin the current posting exactly, returning
    /// `(doc, score)` — or `None` when the cursor turns out to be
    /// exhausted.
    fn materialize(&mut self) -> Option<(DocId, f64)>;

    /// Consumes the current posting. Callable only right after
    /// [`materialize`](Self::materialize) returned `Some` (i.e. while
    /// [`is_exact`](Self::is_exact)).
    fn step(&mut self);

    /// Moves the logical position past every posting with document
    /// `≤ bound`, skipping whole blocks via metadata without decoding
    /// them. A no-op when the current position is already beyond
    /// `bound`.
    fn advance_past(&mut self, bound: DocId);
}

/// Decode-work accounting for one query: how many blocks the cursors
/// actually decompressed versus how many exist across the query's
/// posting lists. `blocks_decoded < blocks_total` is the proof that
/// block-max pruning skipped real decode work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Blocks whose payload was decoded.
    pub blocks_decoded: u64,
    /// Blocks present across all query-term lists.
    pub blocks_total: u64,
}

impl QueryCost {
    /// Sums the accounting over a query's cursors.
    pub fn of(cursors: &[Box<dyn BlockCursor + '_>]) -> Self {
        Self {
            blocks_decoded: cursors.iter().map(|c| c.decoded_blocks() as u64).sum(),
            blocks_total: cursors.iter().map(|c| c.total_blocks() as u64).sum(),
        }
    }

    /// Accumulates another query's accounting.
    pub fn absorb(&mut self, other: QueryCost) {
        self.blocks_decoded += other.blocks_decoded;
        self.blocks_total += other.blocks_total;
    }
}

/// Reusable per-query scratch for [`block_max_topk_cursors`]: the
/// top-k min-heap and the result buffer. Owning one per serving thread
/// (the peer runtime's `ShardService` does) removes the per-RPC heap
/// and vector allocations from the fan-out hot path.
#[derive(Debug, Default)]
pub struct TopKScratch {
    pub(crate) best: BinaryHeap<Reverse<Score>>,
    /// The ranked output of the most recent
    /// [`block_max_topk_cursors`] call: `(score desc, doc asc)`,
    /// truncated to `k`.
    pub ranked: Vec<RankedDoc>,
}

impl TopKScratch {
    /// A fresh scratch (equivalent to `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the most recent result out (the scratch's result buffer
    /// is left empty with no capacity — callers that reuse the scratch
    /// across queries should read `ranked` in place instead).
    pub fn take_ranked(&mut self) -> Vec<RankedDoc> {
        std::mem::take(&mut self.ranked)
    }
}

/// A slot holding a cursor — lets [`select_exact_min`] serve both the
/// top-k driver's plain cursor slices and the merge cursor's
/// `(rank, cursor)` pairs without duplicating the fixpoint.
trait CursorSlot {
    fn cursor(&self) -> &dyn BlockCursor;
    fn cursor_mut(&mut self) -> &mut dyn BlockCursor;
}

impl<'a> CursorSlot for Box<dyn BlockCursor + 'a> {
    fn cursor(&self) -> &dyn BlockCursor {
        self.as_ref()
    }
    fn cursor_mut(&mut self) -> &mut dyn BlockCursor {
        self.as_mut()
    }
}

impl<'a> CursorSlot for (usize, Box<dyn BlockCursor + 'a>) {
    fn cursor(&self) -> &dyn BlockCursor {
        self.1.as_ref()
    }
    fn cursor_mut(&mut self) -> &mut dyn BlockCursor {
        self.1.as_mut()
    }
}

/// Finds the smallest current document across the slots' cursors,
/// decoding only the cursors whose lower bound ties the running
/// minimum: a cursor whose (metadata-only) bound already exceeds the
/// minimum provably cannot hold the candidate and stays undecoded. On
/// return every cursor that might contain the candidate
/// [`BlockCursor::is_exact`].
fn select_exact_min<S: CursorSlot>(slots: &mut [S]) -> Option<DocId> {
    loop {
        let mut min: Option<DocId> = None;
        for slot in slots.iter() {
            let cursor = slot.cursor();
            if !cursor.at_end() {
                let bound = cursor.doc_lower_bound();
                min = Some(min.map_or(bound, |m: DocId| m.min(bound)));
            }
        }
        let min = min?;
        let mut all_exact = true;
        for slot in slots.iter_mut() {
            let cursor = slot.cursor_mut();
            if !cursor.at_end() && !cursor.is_exact() && cursor.doc_lower_bound() == min {
                // May pin the position at `min`, raise the bound past
                // it, or discover exhaustion — re-evaluate either way.
                let _ = cursor.materialize();
                all_exact = false;
                break;
            }
        }
        if all_exact {
            return Some(min);
        }
    }
}

/// The cursor-driven block-max Threshold Algorithm: document-at-a-time
/// evaluation that consults each cursor's block maximum *before*
/// decoding, decompressing only blocks that survive the upper-bound
/// test.
///
/// Whenever `k` results are buffered and the sum of the current block
/// maxima is *strictly* below the current `k`-th best score, no
/// document inside the overlap of the current blocks can reach the
/// top-`k`: every cursor jumps past the nearest block boundary without
/// those blocks ever being decoded. Returns exactly the same ranked
/// results as the exhaustive oracle (contributions are accumulated in
/// list order, so even the floating-point sums match bit for bit); the
/// result lands in `scratch.ranked`.
pub fn block_max_topk_cursors(
    cursors: &mut [Box<dyn BlockCursor + '_>],
    k: usize,
    scratch: &mut TopKScratch,
) {
    scratch.best.clear();
    scratch.ranked.clear();
    if k == 0 || cursors.is_empty() {
        return;
    }

    loop {
        if scratch.best.len() == k {
            let mut live = false;
            let mut upper_bound = 0.0;
            for cursor in cursors.iter() {
                if !cursor.at_end() {
                    live = true;
                    upper_bound += cursor.block_max();
                }
            }
            if !live {
                break;
            }
            let kth = scratch.best.peek().expect("heap holds k scores").0 .0;
            if upper_bound < kth {
                // Skip to just past the nearest current-block boundary:
                // every document up to it is bounded by `upper_bound`.
                // Metadata only — nothing decodes.
                let boundary = cursors
                    .iter()
                    .filter(|c| !c.at_end())
                    .map(|c| c.block_last_doc())
                    .min()
                    .expect("a live cursor exists");
                for cursor in cursors.iter_mut() {
                    if !cursor.at_end() {
                        cursor.advance_past(boundary);
                    }
                }
                continue;
            }
        } else if cursors.iter().all(|c| c.at_end()) {
            break;
        }

        // A cursor may discover mid-materialization that only shadowed
        // postings remained; loop back and re-test exhaustion.
        let Some(candidate) = select_exact_min(cursors) else {
            continue;
        };

        // Fully score the candidate. Every cursor that could contain
        // it is exact (select_exact_min's postcondition); contributions
        // are summed in list order, matching the oracle bit for bit.
        let mut score = 0.0;
        for cursor in cursors.iter_mut() {
            if cursor.at_end() || !cursor.is_exact() {
                continue;
            }
            let (doc, s) = cursor.materialize().expect("exact cursor has an entry");
            if doc == candidate {
                score += s;
                cursor.step();
            }
        }
        scratch.ranked.push(RankedDoc {
            doc: candidate,
            score,
        });
        if scratch.best.len() < k {
            scratch.best.push(Reverse(Score(score)));
        } else if score > scratch.best.peek().expect("heap holds k scores").0 .0 {
            scratch.best.pop();
            scratch.best.push(Reverse(Score(score)));
        }
    }

    scratch.ranked.sort_by(RankedDoc::result_order);
    scratch.ranked.truncate(k);
}

/// A cursor over a list that holds no postings at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptyCursor;

impl BlockCursor for EmptyCursor {
    fn total_blocks(&self) -> usize {
        0
    }
    fn decoded_blocks(&self) -> usize {
        0
    }
    fn at_end(&self) -> bool {
        true
    }
    fn block_max(&self) -> f64 {
        0.0
    }
    fn list_max_score(&self) -> f64 {
        0.0
    }
    fn block_last_doc(&self) -> DocId {
        DocId(0)
    }
    fn doc_lower_bound(&self) -> DocId {
        DocId(0)
    }
    fn is_exact(&self) -> bool {
        false
    }
    fn materialize(&mut self) -> Option<(DocId, f64)> {
        None
    }
    fn step(&mut self) {}
    fn advance_past(&mut self, _bound: DocId) {}
}

/// The trivial adapter: a [`BlockCursor`] over an already-materialized
/// [`BlockScoredList`]. Raw posting lists carry no stored skip
/// metadata, so their scored form is built up front; the cursor still
/// skips whole blocks via the computed block index, and "decoded"
/// counts the blocks whose entries the algorithm actually examined.
#[derive(Debug)]
pub struct ScoredListCursor {
    list: BlockScoredList,
    /// Static whole-list score bound (max over the block maxima),
    /// computed once at construction for MaxScore partitioning.
    max_score: f64,
    /// The logical position's document id must be ≥ this (u64 so
    /// `last consumed + 1` can never overflow).
    bound: u64,
    /// Current block (normalized: the first block whose `last_doc`
    /// reaches `bound`; `blocks.len()` when exhausted).
    block: usize,
    /// Entry index of the current posting, valid while `exact`.
    pos: usize,
    exact: bool,
    decoded: usize,
    /// Last block counted as decoded (blocks are touched in
    /// non-decreasing order, so equality suffices for distinctness).
    last_touched: usize,
}

impl ScoredListCursor {
    /// A cursor positioned before the first posting of `list`.
    pub fn new(list: BlockScoredList) -> Self {
        let max_score = list.blocks.iter().map(|&(_, max)| max).fold(0.0, f64::max);
        Self {
            list,
            max_score,
            bound: 0,
            block: 0,
            pos: 0,
            exact: false,
            decoded: 0,
            last_touched: usize::MAX,
        }
    }

    fn entries(&self) -> &[(DocId, f64)] {
        &self.list.entries
    }

    fn blocks(&self) -> &[(DocId, f64)] {
        &self.list.blocks
    }

    fn block_size(&self) -> usize {
        self.list.block_size
    }

    /// Skips blocks that end before `bound` using the block index
    /// alone.
    fn normalize(&mut self) {
        while self.block < self.list.blocks.len()
            && u64::from(self.list.blocks[self.block].0 .0) < self.bound
        {
            self.block += 1;
        }
    }

    fn touch(&mut self, block: usize) {
        if self.last_touched != block {
            self.last_touched = block;
            self.decoded += 1;
        }
    }
}

impl BlockCursor for ScoredListCursor {
    fn total_blocks(&self) -> usize {
        self.blocks().len()
    }

    fn decoded_blocks(&self) -> usize {
        self.decoded
    }

    fn at_end(&self) -> bool {
        self.block >= self.blocks().len()
    }

    fn block_max(&self) -> f64 {
        self.blocks()[self.block].1
    }

    fn list_max_score(&self) -> f64 {
        self.max_score
    }

    fn block_last_doc(&self) -> DocId {
        self.blocks()[self.block].0
    }

    fn doc_lower_bound(&self) -> DocId {
        if self.exact {
            return self.entries()[self.pos].0;
        }
        let first_of_block = self.entries()[self.block * self.block_size()].0;
        // `first_of_block` is metadata-grade here: reading one entry's
        // doc id does not decode anything on this materialized list.
        DocId(u64::from(first_of_block.0).max(self.bound) as u32)
    }

    fn is_exact(&self) -> bool {
        self.exact
    }

    fn materialize(&mut self) -> Option<(DocId, f64)> {
        if self.exact {
            return Some(self.entries()[self.pos]);
        }
        loop {
            self.normalize();
            if self.at_end() {
                return None;
            }
            let block = self.block;
            let size = self.block_size();
            let start = block * size;
            let end = ((block + 1) * size).min(self.entries().len());
            self.touch(block);
            let bound = self.bound;
            let offset =
                self.entries()[start..end].partition_point(|&(d, _)| u64::from(d.0) < bound);
            if start + offset < end {
                self.pos = start + offset;
                self.exact = true;
                return Some(self.entries()[self.pos]);
            }
            self.block += 1;
        }
    }

    fn step(&mut self) {
        debug_assert!(self.exact, "step requires a materialized position");
        self.bound = u64::from(self.entries()[self.pos].0 .0) + 1;
        self.exact = false;
        self.normalize();
    }

    fn advance_past(&mut self, bound: DocId) {
        if self.exact && self.entries()[self.pos].0 > bound {
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

/// Lazily merges several sub-cursors over the *same term* from a stack
/// of sources (oldest first) under the doc-level shadowing rule: a
/// posting from source `i` is live iff no newer source touches its
/// document. Nothing is flattened — segment sub-cursors keep decoding
/// on demand, and the shadow test is a metadata lookup supplied by the
/// storage layer.
///
/// Document updates are whole-document replacements, so at most one
/// source holds the *live* posting of any document (a newer source
/// holding the `(term, doc)` posting also touches `doc`, shadowing
/// every older copy); the merged cursor therefore yields exactly the
/// masked, doc-ascending sequence of live postings.
pub struct ShadowedMergeCursor<'a> {
    /// `(source rank, cursor)` pairs; higher rank = newer source.
    subs: Vec<(usize, Box<dyn BlockCursor + 'a>)>,
    /// `shadow(rank, doc)`: does any source newer than `rank` touch
    /// `doc`?
    shadow: Box<dyn Fn(usize, DocId) -> bool + 'a>,
    /// The materialized current posting, once found.
    current: Option<(DocId, f64)>,
    done: bool,
}

impl std::fmt::Debug for ShadowedMergeCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowedMergeCursor")
            .field("subs", &self.subs.len())
            .field("current", &self.current)
            .field("done", &self.done)
            .finish()
    }
}

impl<'a> ShadowedMergeCursor<'a> {
    /// Builds a merged cursor. `subs` are `(source rank, cursor)`
    /// pairs over the same term, any order; `shadow(rank, doc)` must
    /// answer whether a source *newer* than `rank` defines `doc`'s
    /// current version.
    pub fn new(
        subs: Vec<(usize, Box<dyn BlockCursor + 'a>)>,
        shadow: Box<dyn Fn(usize, DocId) -> bool + 'a>,
    ) -> Self {
        Self {
            subs,
            shadow,
            current: None,
            done: false,
        }
    }

    /// The sub-cursor fixpoint: smallest current document across subs,
    /// decoding only bound-tied subs (shared [`select_exact_min`]).
    fn select_sub_min(&mut self) -> Option<DocId> {
        select_exact_min(&mut self.subs)
    }
}

impl BlockCursor for ShadowedMergeCursor<'_> {
    fn total_blocks(&self) -> usize {
        self.subs.iter().map(|(_, s)| s.total_blocks()).sum()
    }

    fn decoded_blocks(&self) -> usize {
        self.subs.iter().map(|(_, s)| s.decoded_blocks()).sum()
    }

    fn at_end(&self) -> bool {
        self.done || self.subs.iter().all(|(_, s)| s.at_end())
    }

    fn block_max(&self) -> f64 {
        // Valid bound for every document ≤ `block_last_doc()`: such a
        // document, if present at all, sits inside some live sub's
        // current block, whose maximum is included in this fold.
        self.subs
            .iter()
            .filter(|(_, s)| !s.at_end())
            .map(|(_, s)| s.block_max())
            .fold(0.0f64, f64::max)
    }

    fn list_max_score(&self) -> f64 {
        // Any merged posting comes from exactly one sub, so the max of
        // the subs' static bounds bounds every merged score.
        self.subs
            .iter()
            .map(|(_, s)| s.list_max_score())
            .fold(0.0f64, f64::max)
    }

    fn block_last_doc(&self) -> DocId {
        self.subs
            .iter()
            .filter(|(_, s)| !s.at_end())
            .map(|(_, s)| s.block_last_doc())
            .min()
            .expect("block_last_doc requires a live sub-cursor")
    }

    fn doc_lower_bound(&self) -> DocId {
        if let Some((doc, _)) = self.current {
            return doc;
        }
        self.subs
            .iter()
            .filter(|(_, s)| !s.at_end())
            .map(|(_, s)| s.doc_lower_bound())
            .min()
            .expect("doc_lower_bound requires a live sub-cursor")
    }

    fn is_exact(&self) -> bool {
        self.current.is_some()
    }

    fn materialize(&mut self) -> Option<(DocId, f64)> {
        if let Some(current) = self.current {
            return Some(current);
        }
        if self.done {
            return None;
        }
        loop {
            let Some(doc) = self.select_sub_min() else {
                self.done = true;
                return None;
            };
            // The newest source parked on `doc` holds its candidate
            // posting; it is live iff nothing newer touches the doc.
            let mut winner: Option<(usize, f64)> = None;
            for (rank, sub) in self.subs.iter_mut() {
                if sub.at_end() || !sub.is_exact() {
                    continue;
                }
                let (d, s) = sub.materialize().expect("exact sub has an entry");
                if d == doc && winner.is_none_or(|(r, _)| *rank > r) {
                    winner = Some((*rank, s));
                }
            }
            let (rank, score) = winner.expect("select_sub_min parked a sub on the minimum");
            if !(self.shadow)(rank, doc) {
                self.current = Some((doc, score));
                return self.current;
            }
            // Dead document: consume it from every sub parked on it.
            for (_, sub) in self.subs.iter_mut() {
                if sub.at_end() || !sub.is_exact() {
                    continue;
                }
                if sub.materialize().map(|(d, _)| d) == Some(doc) {
                    sub.step();
                }
            }
        }
    }

    fn step(&mut self) {
        let (doc, _) = self
            .current
            .take()
            .expect("step requires a materialized position");
        for (_, sub) in self.subs.iter_mut() {
            if sub.at_end() || !sub.is_exact() {
                continue;
            }
            if sub.materialize().map(|(d, _)| d) == Some(doc) {
                sub.step();
            }
        }
    }

    fn advance_past(&mut self, bound: DocId) {
        if let Some((doc, _)) = self.current {
            if doc > bound {
                return;
            }
            self.current = None;
        }
        for (_, sub) in self.subs.iter_mut() {
            if !sub.at_end() {
                sub.advance_past(bound);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_list(entries: &[(u32, f64)], block_size: usize) -> BlockScoredList {
        BlockScoredList::from_doc_ordered(
            entries.iter().map(|&(d, s)| (DocId(d), s)).collect(),
            block_size,
        )
    }

    fn run_cursors(
        cursors: Vec<Box<dyn BlockCursor + '_>>,
        k: usize,
    ) -> (Vec<RankedDoc>, QueryCost) {
        let mut cursors = cursors;
        let mut scratch = TopKScratch::new();
        block_max_topk_cursors(&mut cursors, k, &mut scratch);
        let cost = QueryCost::of(&cursors);
        (scratch.take_ranked(), cost)
    }

    #[test]
    fn cursor_walk_yields_every_entry_in_order() {
        let list = block_list(&[(1, 0.5), (4, 0.25), (9, 1.0), (12, 0.125), (20, 0.75)], 2);
        let mut cursor = ScoredListCursor::new(list);
        let mut seen = Vec::new();
        while let Some((doc, score)) = cursor.materialize() {
            seen.push((doc.0, score));
            cursor.step();
        }
        assert_eq!(
            seen,
            vec![(1, 0.5), (4, 0.25), (9, 1.0), (12, 0.125), (20, 0.75)]
        );
        assert!(cursor.at_end());
        assert_eq!(cursor.decoded_blocks(), cursor.total_blocks());
    }

    #[test]
    fn advance_past_skips_blocks_without_touching_them() {
        let entries: Vec<(u32, f64)> = (0..100).map(|d| (d, 0.5)).collect();
        let list = block_list(&entries, 10);
        let mut cursor = ScoredListCursor::new(list);
        cursor.advance_past(DocId(74));
        assert_eq!(cursor.materialize(), Some((DocId(75), 0.5)));
        // Only the landing block was examined.
        assert_eq!(cursor.decoded_blocks(), 1);
        assert_eq!(cursor.total_blocks(), 10);
        // Advancing to a position already behind is a no-op.
        cursor.advance_past(DocId(3));
        assert_eq!(cursor.materialize(), Some((DocId(75), 0.5)));
    }

    #[test]
    fn selective_query_decodes_strictly_fewer_blocks() {
        // One rare, high-scoring term at the front of the id space and
        // one long, low-scoring common list: once the heap fills with
        // rare-term documents, the common tail's block maxima fall
        // below the k-th score and those blocks are skipped undecoded.
        let rare: Vec<(u32, f64)> = (0..4).map(|d| (d, 100.0)).collect();
        let common: Vec<(u32, f64)> = (0..4096).map(|d| (d, 0.001)).collect();
        let lists = [block_list(&rare, 128), block_list(&common, 128)];
        let cursors: Vec<Box<dyn BlockCursor>> = lists
            .into_iter()
            .map(|l| Box::new(ScoredListCursor::new(l)) as Box<dyn BlockCursor>)
            .collect();
        let (ranked, cost) = run_cursors(cursors, 3);
        assert_eq!(ranked.len(), 3);
        assert_eq!(ranked[0].doc, DocId(0));
        assert!(
            cost.blocks_decoded < cost.blocks_total,
            "pruning must skip decode work: {cost:?}"
        );
    }

    #[test]
    fn empty_cursor_is_inert() {
        let mut cursor = EmptyCursor;
        assert!(cursor.at_end());
        assert!(cursor.materialize().is_none());
        let mut cursors: Vec<Box<dyn BlockCursor + '_>> = vec![Box::new(EmptyCursor)];
        let mut scratch = TopKScratch::new();
        block_max_topk_cursors(&mut cursors, 5, &mut scratch);
        assert!(scratch.ranked.is_empty());
    }

    #[test]
    fn shadowed_merge_masks_older_sources() {
        // Source 0 (old): docs 1, 2, 3. Source 1 (new): doc 2 with a
        // different score, and it also touches doc 3 (re-inserted
        // without the term) — so the live postings are 1 (old), 2
        // (new), and 3 is dead.
        let old = block_list(&[(1, 0.1), (2, 0.2), (3, 0.3)], 2);
        let new = block_list(&[(2, 0.9)], 2);
        let subs: Vec<(usize, Box<dyn BlockCursor + '_>)> = vec![
            (0, Box::new(ScoredListCursor::new(old))),
            (1, Box::new(ScoredListCursor::new(new))),
        ];
        let shadow =
            move |rank: usize, doc: DocId| rank == 0 && (doc == DocId(2) || doc == DocId(3));
        let mut merged = ShadowedMergeCursor::new(subs, Box::new(shadow));
        let mut seen = Vec::new();
        while let Some((doc, score)) = merged.materialize() {
            seen.push((doc.0, score));
            merged.step();
        }
        assert_eq!(seen, vec![(1, 0.1), (2, 0.9)]);
        assert!(merged.at_end());
    }

    #[test]
    fn shadowed_merge_discovering_exhaustion_flips_at_end() {
        // Everything in the only source is shadowed: the metadata
        // cannot know, but materialize must settle it.
        let only = block_list(&[(5, 0.5)], 2);
        let subs: Vec<(usize, Box<dyn BlockCursor + '_>)> =
            vec![(0, Box::new(ScoredListCursor::new(only)))];
        let mut merged = ShadowedMergeCursor::new(subs, Box::new(|_, _| true));
        assert!(!merged.at_end());
        assert!(merged.materialize().is_none());
        assert!(merged.at_end());
    }
}
