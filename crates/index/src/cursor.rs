//! Lazy decode-on-demand cursors and the one disjunctive evaluator.
//!
//! Ranking a query by first materializing every posting of every query
//! term costs O(total postings) regardless of `k`. This module makes
//! the read path lazy end-to-end: a [`BlockCursor`] exposes a term's
//! scored postings *by block*, with the skip metadata readable
//! **without decoding** the block payload, and [`maxscore_topk`] ranks
//! a disjunctive query by seeking the lists its σ bounds demote past
//! whole blocks — a block is decompressed only when an essential list
//! enumerates it or a seek lands in it.
//!
//! The trait has three implementations:
//!
//! * `CompressedBlockCursor` (in `zerber-postings`) — decodes straight
//!   from the stored compressed blocks, skipping via the persisted
//!   `(first_doc, last_doc)` block index, or reads a memtable's
//!   decoded postings in place, cut into the blocks a seal would write
//!   (there "decoded" counts the blocks the cursor loaded);
//! * [`ShadowedMergeCursor`] — merges several sub-cursors (the
//!   memtable's list over on-disk segments, at most one sub-cursor per
//!   source) under the doc-level shadowing rule without flattening them
//!   into one list first;
//! * [`EmptyCursor`] — a term with no postings.
//!
//! Every evaluator (this module's MaxScore and the conjunctive / phrase
//! evaluators in `zerber-query`) ranks through the [`TopKScratch`]
//! collector, a bounded heap under the one result order.
//!
//! MaxScore returns **bit-identical** results to the exhaustive
//! oracle: per-document contributions are accumulated in list order
//! exactly like [`crate::topk::naive_topk`], and pruning uses strict
//! bounds with a rounding margin, so ties can never be lost
//! (property-tested in `zerber-postings`' `topk_properties.rs`, beside
//! the cursors it needs as fixtures).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::topk::RankedDoc;
use crate::types::DocId;

/// Lazy sorted access over one term's scored postings, at block
/// granularity.
///
/// A cursor has a *logical position*: the next not-yet-consumed
/// posting. The position's document id may be known only as a lower
/// bound until [`BlockCursor::materialize`] decodes the current block
/// — that deferral is what lets [`maxscore_topk`] seek a demoted list
/// past whole blocks via [`BlockCursor::advance_past`] without any
/// decode.
///
/// # Contract
///
/// * Postings are in strictly increasing document order; scores are
///   non-negative and finite.
/// * While [`at_end`](Self::at_end) is `false`, the two metadata
///   methods are callable without decoding:
///   [`block_last_doc`](Self::block_last_doc) is the last document the
///   current block(s) cover, and
///   [`doc_lower_bound`](Self::doc_lower_bound) lower-bounds the next
///   posting's document (it is *exact* when
///   [`is_exact`](Self::is_exact) is `true`).
/// * `at_end() == false` does **not** guarantee a posting remains (a
///   merged cursor may discover that everything left is shadowed);
///   [`materialize`](Self::materialize) returning `None` settles it,
///   after which `at_end` must report `true`.
/// * Exactness is sticky where it is free: [`step`](Self::step) may
///   leave the cursor exact on the next posting of a block it has
///   already decoded, so callers must re-read
///   [`is_exact`](Self::is_exact) after stepping instead of assuming
///   `false`. A cursor never decodes a block to *become* exact except
///   inside `materialize`.
/// * The document sequence a cursor is asked about only moves forward:
///   `advance_past` bounds and the documents returned by `materialize`
///   never decrease over a cursor's lifetime. Implementations rely on
///   it (the segmented store's shadow test keeps a forward-only finger
///   per newer source).
pub trait BlockCursor {
    /// Total blocks in the underlying list(s).
    fn total_blocks(&self) -> usize;

    /// Blocks decoded (payload touched) so far — the per-query
    /// pruning-effectiveness metric.
    fn decoded_blocks(&self) -> usize;

    /// `true` once the cursor is certainly exhausted (metadata-only
    /// check; see the trait contract for the merged-cursor caveat).
    fn at_end(&self) -> bool;

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

    /// The current posting's positional run `(first position, count)`
    /// in its document's canonical token stream — terms in ascending
    /// term-id order, each occupying `count` consecutive slots, so the
    /// run starts at the sum of the document's smaller-term counts.
    /// Read off the posting the cursor already holds, no lookup.
    /// Callable only while [`is_exact`](Self::is_exact).
    fn positions(&self) -> (u32, u32);

    /// Consumes the current posting. Callable only right after
    /// [`materialize`](Self::materialize) returned `Some` (i.e. while
    /// [`is_exact`](Self::is_exact)).
    fn step(&mut self);

    /// Moves the logical position past every posting with document
    /// `≤ bound`, skipping whole blocks via metadata without decoding
    /// them. A no-op when the current position is already beyond
    /// `bound`.
    fn advance_past(&mut self, bound: DocId);

    /// Consumes every remaining posting with document `< end`,
    /// appending each `(doc, score)` to `out` in document order — the
    /// postings, scores and final state of the walk that materializes
    /// and steps while [`doc_lower_bound`](Self::doc_lower_bound) is
    /// below `end`, decoding the same blocks. `end` is a `u64` so that
    /// `u32::MAX + 1` takes every document. This default body is that
    /// walk; the block cursors override it to copy each decoded block's
    /// run below `end` in one pass.
    fn drain_below(&mut self, end: u64, out: &mut Vec<(DocId, f64)>) {
        while !self.at_end() && u64::from(self.doc_lower_bound().0) < end {
            match self.materialize() {
                Some((doc, score)) if u64::from(doc.0) < end => {
                    out.push((doc, score));
                    self.step();
                }
                _ => return,
            }
        }
    }
}

/// Work accounting for one query: how many blocks the cursors actually
/// decompressed versus how many exist across the query's posting
/// lists, and how many candidates the evaluator fully scored.
/// `blocks_decoded < blocks_total` is the proof that pruning skipped
/// real decode work; evaluation time over `postings_scored` is
/// the per-posting cost of the read path. Process-local: only the two
/// block counts travel in `TopKResponse`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Blocks whose payload was decoded.
    pub blocks_decoded: u64,
    /// Blocks present across all query-term lists.
    pub blocks_total: u64,
    /// Candidates the evaluator summed a full score for and offered to
    /// the top-k collector ([`TopKScratch::scored`]).
    pub postings_scored: u64,
}

impl QueryCost {
    /// Sums the block accounting over a query's cursors
    /// (`postings_scored` is the collector's to report).
    pub fn of(cursors: &[Box<dyn BlockCursor + '_>]) -> Self {
        Self {
            blocks_decoded: cursors.iter().map(|c| c.decoded_blocks() as u64).sum(),
            blocks_total: cursors.iter().map(|c| c.total_blocks() as u64).sum(),
            postings_scored: 0,
        }
    }
}

/// A candidate ordered by [`RankedDoc::result_order`], so a max-heap
/// keeps the *worst* retained result on top.
#[derive(Debug)]
struct ByRank(RankedDoc);

impl PartialEq for ByRank {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ByRank {}

impl PartialOrd for ByRank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByRank {
    fn cmp(&self, other: &Self) -> Ordering {
        RankedDoc::result_order(&self.0, &other.0)
    }
}

/// The top-k collector every evaluator ranks through, reusable across
/// queries (the peer runtime's `ShardService` owns one per serving
/// thread, so the heap is allocated once).
///
/// One bounded worst-first heap under [`RankedDoc::result_order`]:
/// [`offer`](Self::offer) keeps a candidate iff it ranks before the
/// worst of the `k` retained, `kth_score` reads MaxScore's pruning
/// threshold off the heap's top, and
/// [`finish`](Self::finish) drains it best-first into
/// [`ranked`](Self::ranked). The outcome is exactly
/// `sort_by(result_order)` + `truncate(k)` over everything offered —
/// the same total order, so which candidates were dropped early can
/// never show in the result. It also holds [`maxscore_topk`]'s window
/// buffers, so a reused scratch evaluates without allocating per
/// window.
#[derive(Debug, Default)]
pub struct TopKScratch {
    heap: BinaryHeap<ByRank>,
    k: usize,
    scored: u64,
    window: Window,
    /// The ranked output of the most recent evaluation: `(score desc,
    /// doc asc)`, at most `k` long.
    pub ranked: Vec<RankedDoc>,
}

/// Documents one [`maxscore_topk`] window spans at most.
const WINDOW: u64 = 4096;
/// `u64` words in a window's presence bitset.
const WINDOW_WORDS: usize = WINDOW as usize / 64;

/// One MaxScore window: the essential lists' postings inside it and
/// the documents any of them holds. Its size follows the postings
/// drained, never the query's slot count, and it is empty between
/// windows.
#[derive(Debug, Default)]
struct Window {
    /// Every essential slot's postings in the window, slot after slot.
    drained: Vec<(DocId, f64)>,
    /// Bit `offset % 64` of word `offset / 64`: some essential list
    /// holds the document `offset` past the window's base.
    present: Vec<u64>,
}

/// How one query slot contributes to the current window's candidates.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Essential when the window opened: its postings in the window
    /// are `drained[next..end]`, ascending.
    Drained { next: usize, end: usize },
    /// Non-essential, probed by seek.
    Probed,
}

impl Slot {
    /// A drained slot's score for `candidate` (`0.0` when absent),
    /// consuming its posting; candidates ascend, so it is the run's
    /// head or nothing.
    fn take(&mut self, drained: &[(DocId, f64)], candidate: DocId) -> f64 {
        match self {
            Slot::Drained { next, end } if *next < *end && drained[*next].0 == candidate => {
                *next += 1;
                drained[*next - 1].1
            }
            _ => 0.0,
        }
    }

    /// Does this drained slot hold `candidate`?
    fn holds(&self, drained: &[(DocId, f64)], candidate: DocId) -> bool {
        matches!(*self, Slot::Drained { next, end } if next < end && drained[next].0 == candidate)
    }
}

impl TopKScratch {
    /// A fresh scratch (equivalent to `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts collecting the top `k` of a new evaluation.
    pub fn begin(&mut self, k: usize) {
        self.heap.clear();
        self.ranked.clear();
        self.k = k;
        self.scored = 0;
    }

    /// Offers one fully scored candidate.
    pub fn offer(&mut self, doc: DocId, score: f64) {
        self.scored += 1;
        let candidate = ByRank(RankedDoc { doc, score });
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if candidate < *worst {
                *worst = candidate;
            }
        }
    }

    /// The `k`-th best score so far — the threshold a new candidate
    /// must reach to matter — once `k` candidates are retained.
    pub(crate) fn kth_score(&self) -> Option<f64> {
        self.heap
            .peek()
            .filter(|_| self.heap.len() == self.k)
            .map(|worst| worst.0.score)
    }

    /// Candidates offered since [`begin`](Self::begin).
    pub fn scored(&self) -> u64 {
        self.scored
    }

    /// Heap bytes the scratch keeps between evaluations. It follows
    /// `k` and what one window of an ordinary query drains, never the
    /// number of slots a query names.
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.heap.capacity() * size_of::<ByRank>()
            + self.ranked.capacity() * size_of::<RankedDoc>()
            + self.window.drained.capacity() * size_of::<(DocId, f64)>()
            + self.window.present.capacity() * size_of::<u64>()
    }

    /// Drains the retained candidates into [`ranked`](Self::ranked),
    /// best first.
    pub fn finish(&mut self) {
        while let Some(ByRank(worst)) = self.heap.pop() {
            self.ranked.push(worst);
        }
        self.ranked.reverse();
    }

    /// Moves the most recent result out (the scratch's result buffer
    /// is left empty with no capacity — callers that reuse the scratch
    /// across queries should read `ranked` in place instead).
    pub fn take_ranked(&mut self) -> Vec<RankedDoc> {
        std::mem::take(&mut self.ranked)
    }
}

/// MaxScore top-k, the one disjunctive evaluator: cursors are
/// partitioned by their static whole-list σ bound
/// ([`BlockCursor::list_max_score`]) into *non-essential* (smallest
/// bounds, their σ prefix sum strictly below the current k-th score)
/// and *essential* (the rest). Candidates are enumerated from the
/// essential lists only — a document absent from every essential
/// list scores at most the non-essential σ sum, which is strictly below
/// the k-th score, so it can never rank — and non-essential lists are
/// probed by `advance_past` seek per candidate. As the threshold rises,
/// more lists demote; the demotion is monotone, so sorted-access work
/// on long low-σ lists stops early.
///
/// Essential lists are consumed one **block-aligned window** at a time.
/// Every essential cursor is pinned on its next posting (one
/// `materialize` each); the window runs from the lowest pinned document
/// `base` up to `base + WINDOW` or the first current-block end among
/// them, whichever comes first, and each essential cursor drains its
/// postings inside it ([`BlockCursor::drain_below`]) into the scratch,
/// one ascending run per slot, while a bitset marks the documents they
/// hold. The window's documents are then walked in ascending order:
/// each drained slot contributes its run's head when that is the
/// candidate, non-essential lists are probed by seek, and the sum is
/// offered. The buffers grow with the postings drained, not with the
/// slot count, so a query naming many absent terms holds no more memory
/// than its postings need. An essential list is enumerated in full by
/// definition, so pinning decodes nothing it would not decode anyway,
/// except the block a cursor stands before when it demotes or the loop
/// ends — at most one per cursor per query. Ending a window at the
/// first block end means no essential cursor enters a new block inside
/// one, so the partition is re-read before every block any essential
/// cursor decodes. Inside a window the threshold is still re-read per
/// candidate: a document held only by lists demoted since the window
/// began is skipped unscored, and the evaluation stops once every list
/// is non-essential. A one-list query reads its whole list: the list's
/// own σ bounds every score, so it never demotes.
///
/// Per-document pruning by partial score is deliberately **absent**: a
/// partial-sum bound would be assembled in σ order, not slot order,
/// and f64 addition is order-sensitive, so such a bound could undercut
/// the true slot-order score by ulps and skip a tie. List-level σ
/// prefix sums face the same hazard, which `safe_upper` covers with
/// a rigorous rounding margin. Scores themselves are always summed over
/// every slot in original slot order, an absent slot adding `+0.0` (the
/// identity for non-negative scores) — bit-identical to the exhaustive
/// oracle. The result lands in `scratch.ranked`.
pub fn maxscore_topk(
    cursors: &mut [Box<dyn BlockCursor + '_>],
    k: usize,
    scratch: &mut TopKScratch,
) {
    scratch.begin(k);
    if k == 0 || cursors.is_empty() {
        return;
    }
    let slots = cursors.len();

    // Cursor indices ascending by σ; `prefix[n]` = σ sum of the n
    // smallest. Cursors stay in their original slots — `order` only
    // names them — so contribution sums keep the slot order.
    let mut order: Vec<usize> = (0..slots).collect();
    order.sort_by(|&a, &b| {
        cursors[a]
            .list_max_score()
            .total_cmp(&cursors[b].list_max_score())
    });
    let mut prefix = Vec::with_capacity(slots + 1);
    let mut sum = 0.0f64;
    prefix.push(sum);
    for &i in &order {
        sum += cursors[i].list_max_score();
        prefix.push(sum);
    }

    // Count of non-essential cursors (a prefix of `order`); only ever
    // grows, because the k-th score only rises.
    let mut n_non = 0usize;
    let demote = |n_non: &mut usize, scratch: &TopKScratch| {
        if let Some(kth) = scratch.kth_score() {
            while *n_non < slots && safe_upper(prefix[*n_non + 1], *n_non + 1) < kth {
                *n_non += 1;
            }
        }
    };
    let mut window = std::mem::take(&mut scratch.window);
    window.present.resize(WINDOW_WORDS, 0);
    let mut state = vec![Slot::Drained { next: 0, end: 0 }; slots];

    loop {
        demote(&mut n_non, scratch);
        if n_non >= slots {
            // Every document left is bounded strictly below the k-th
            // score by the full σ sum.
            break;
        }
        for &i in &order[..n_non] {
            if let Slot::Drained { .. } = state[i] {
                state[i] = Slot::Probed;
            }
        }
        let essential = &order[n_non..];
        let (mut base, mut end) = (u64::MAX, u64::MAX);
        for &i in essential {
            if let Some((doc, _)) = cursors[i].materialize() {
                base = base.min(u64::from(doc.0));
                end = end.min(u64::from(cursors[i].block_last_doc().0) + 1);
            }
        }
        if base == u64::MAX {
            // Essential lists exhausted; whatever remains lives only
            // in non-essential lists and is bounded below the k-th
            // score (n_non > 0 implies the collector is full).
            break;
        }
        let end = end.min(base + WINDOW);
        window.drained.clear();
        for &i in essential {
            let next = window.drained.len();
            cursors[i].drain_below(end, &mut window.drained);
            let end = window.drained.len();
            state[i] = Slot::Drained { next, end };
        }
        for &(doc, _) in &window.drained {
            let offset = u64::from(doc.0) - base;
            window.present[(offset / 64) as usize] |= 1 << (offset % 64);
        }

        let n_window = n_non;
        for word in 0..(end - base).div_ceil(64) as usize {
            let mut bits = std::mem::take(&mut window.present[word]);
            while bits != 0 {
                let offset = word as u64 * 64 + u64::from(bits.trailing_zeros());
                bits &= bits - 1;
                let candidate = DocId((base + offset) as u32);
                demote(&mut n_non, scratch);
                let drained = &window.drained;
                if n_non != n_window
                    && !order[n_non..]
                        .iter()
                        .any(|&i| state[i].holds(drained, candidate))
                {
                    // Held only by lists demoted inside this window.
                    for slot in &mut state {
                        slot.take(drained, candidate);
                    }
                    continue;
                }
                // Sum in original slot order — the bit-identity contract.
                let mut score = 0.0;
                for (cursor, slot) in cursors.iter_mut().zip(&mut state) {
                    score += match slot {
                        Slot::Drained { .. } => slot.take(drained, candidate),
                        Slot::Probed => probe(&mut **cursor, candidate),
                    };
                }
                scratch.offer(candidate, score);
            }
        }
    }

    // Hand the buffers back, keeping no more than an ordinary query
    // drains per window.
    window.drained.clear();
    window.drained.shrink_to(WINDOW as usize);
    scratch.window = window;
    scratch.finish();
}

/// A non-essential cursor's score for `candidate`, found by seek: jump
/// to its first posting `≥ candidate` and take it on a hit (`0.0` on a
/// miss).
fn probe(cursor: &mut dyn BlockCursor, candidate: DocId) -> f64 {
    if candidate.0 > 0 {
        cursor.advance_past(DocId(candidate.0 - 1));
    }
    if cursor.at_end() || cursor.doc_lower_bound() > candidate {
        return 0.0;
    }
    match cursor.materialize() {
        Some((doc, score)) if doc == candidate => {
            cursor.step();
            score
        }
        _ => 0.0,
    }
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
    fn positions(&self) -> (u32, u32) {
        (0, 0)
    }
    fn step(&mut self) {}
    fn advance_past(&mut self, _bound: DocId) {}
}

/// The shadow test a [`ShadowedMergeCursor`] asks of the storage layer
/// that stacks its sources.
pub trait Shadow {
    /// The first document `≥ doc` that a source newer than `rank`
    /// touches (inserts or tombstones), or `None` when no newer source
    /// touches any. Asked with non-decreasing `doc` (the merge's
    /// minimum only rises), so an implementation may answer from
    /// forward-only state.
    fn next_touched(&mut self, rank: usize, doc: DocId) -> Option<DocId>;
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
///
/// A term's postings tend to come from one source in long runs, so
/// while one sub leads the merge costs O(1) per posting: each sub keeps
/// a shadow watermark below which its postings are live without a
/// probe, and a selected posting remembers the other subs' lowest
/// frontier, so [`step`](BlockCursor::step) moves only the leading sub
/// and stays exact while its next (already decoded) posting sits below
/// both. Every other case takes the general one-sweep selection.
pub struct ShadowedMergeCursor<C, S> {
    subs: Vec<MergeSub<C>>,
    shadow: S,
    /// The materialized current posting and the index in `subs` of the
    /// sub-cursor holding it, once found.
    current: Option<(DocId, f64, usize)>,
    /// While `current` is set: the lowest document lower bound of the
    /// other live subs when it was selected (`u64::MAX`: none). They
    /// have not moved since, so it bounds every posting they hold.
    rest_min: u64,
    done: bool,
}

/// One sub-cursor of a merge: its source rank (higher = newer), the
/// cursor and its shadow watermark.
struct MergeSub<C> {
    rank: usize,
    cursor: C,
    /// Every posting of this sub below this document is live: the last
    /// probe found no newer source touching anything from its document
    /// up to here, the sources are immutable, and the sub's documents
    /// only ascend. `u64::MAX` once nothing further is touched.
    live_below: u64,
}

impl<C: BlockCursor> MergeSub<C> {
    /// `None` at end, else the cursor's document lower bound and
    /// whether it is exact.
    fn frontier(&self) -> Option<(DocId, bool)> {
        let cursor = &self.cursor;
        (!cursor.at_end()).then(|| (cursor.doc_lower_bound(), cursor.is_exact()))
    }

    /// The sub-cursor's posting when it is pinned on `doc`.
    fn posting_on(&mut self, doc: DocId) -> Option<f64> {
        if self.cursor.at_end() || !self.cursor.is_exact() {
            return None;
        }
        self.cursor
            .materialize()
            .and_then(|(d, score)| (d == doc).then_some(score))
    }
}

/// Finds the smallest current document across the subs' cursors,
/// decoding only the cursors whose lower bound ties the running
/// minimum: a cursor whose (metadata-only) bound already exceeds the
/// minimum provably cannot hold the candidate and stays undecoded.
/// Each round materializes *every* bound-tied cursor in one sweep and
/// re-evaluates — the minimum cannot rise while a tied cursor is still
/// inexact, so this pins exactly the cursors a one-at-a-time restart
/// would, in a number of sweeps that does not grow with the cursor
/// count. On return every cursor that might contain the candidate
/// [`BlockCursor::is_exact`].
fn select_exact_min<C: BlockCursor>(subs: &mut [MergeSub<C>]) -> Option<DocId> {
    loop {
        let min = subs
            .iter()
            .filter_map(|sub| Some(sub.frontier()?.0))
            .min()?;
        let mut settled = true;
        for sub in subs.iter_mut() {
            if sub.frontier() == Some((min, false)) {
                // May pin the position at `min`, raise the bound past
                // it, or discover exhaustion — re-evaluate either way.
                let _ = sub.cursor.materialize();
                settled = false;
            }
        }
        if settled {
            return Some(min);
        }
    }
}

impl<C, S> std::fmt::Debug for ShadowedMergeCursor<C, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowedMergeCursor")
            .field("subs", &self.subs.len())
            .field("current", &self.current)
            .field("done", &self.done)
            .finish()
    }
}

impl<C: BlockCursor, S: Shadow> ShadowedMergeCursor<C, S> {
    /// Builds a merged cursor. `subs` are `(source rank, cursor)`
    /// pairs over the same term, any order; `shadow` answers for the
    /// sources stacked by rank.
    pub fn new(subs: Vec<(usize, C)>, shadow: S) -> Self {
        let subs = subs
            .into_iter()
            .map(|(rank, cursor)| MergeSub {
                rank,
                cursor,
                live_below: 0,
            })
            .collect();
        Self {
            subs,
            shadow,
            current: None,
            rest_min: 0,
            done: false,
        }
    }

    /// Sub-cursors that have postings left.
    fn live_subs(&self) -> impl Iterator<Item = &MergeSub<C>> {
        self.subs.iter().filter(|sub| !sub.cursor.at_end())
    }

    /// Consumes `doc` from every sub-cursor parked on it.
    fn step_subs_on(&mut self, doc: DocId) {
        for sub in self.subs.iter_mut() {
            if sub.posting_on(doc).is_some() {
                sub.cursor.step();
            }
        }
    }

    /// Is sub `at`'s posting on `doc` live? Below the sub's watermark
    /// it is; otherwise the probe decides and raises the watermark.
    fn is_live(&mut self, at: usize, doc: DocId) -> bool {
        let sub = &mut self.subs[at];
        if u64::from(doc.0) < sub.live_below {
            return true;
        }
        match self.shadow.next_touched(sub.rank, doc) {
            Some(touched) if touched == doc => false,
            next => {
                sub.live_below = next.map_or(u64::MAX, |d| u64::from(d.0));
                true
            }
        }
    }

    /// Where the merge stands once the leading sub `at` has moved past
    /// the selected posting: on the sub's next posting if it is already
    /// decoded and below both the other subs' frontier and the sub's
    /// watermark (the merge's next live posting, found without a
    /// probe), else unselected.
    fn resume_lead(&mut self, at: usize) {
        let sub = &mut self.subs[at];
        if !sub.cursor.is_exact() {
            return;
        }
        if let Some((next, score)) = sub.cursor.materialize() {
            let key = u64::from(next.0);
            if key < self.rest_min && key < sub.live_below {
                self.current = Some((next, score, at));
            }
        }
    }
}

impl<C: BlockCursor, S: Shadow> BlockCursor for ShadowedMergeCursor<C, S> {
    fn total_blocks(&self) -> usize {
        self.subs.iter().map(|s| s.cursor.total_blocks()).sum()
    }

    fn decoded_blocks(&self) -> usize {
        self.subs.iter().map(|s| s.cursor.decoded_blocks()).sum()
    }

    fn at_end(&self) -> bool {
        self.current.is_none() && (self.done || self.live_subs().next().is_none())
    }

    fn list_max_score(&self) -> f64 {
        // Any merged posting comes from exactly one sub, so the max of
        // the subs' static bounds bounds every merged score.
        self.subs
            .iter()
            .map(|s| s.cursor.list_max_score())
            .fold(0.0f64, f64::max)
    }

    fn block_last_doc(&self) -> DocId {
        self.live_subs()
            .map(|s| s.cursor.block_last_doc())
            .min()
            .unwrap_or(DocId(0))
    }

    fn doc_lower_bound(&self) -> DocId {
        if let Some((doc, ..)) = self.current {
            return doc;
        }
        self.live_subs()
            .map(|s| s.cursor.doc_lower_bound())
            .min()
            .unwrap_or(DocId(0))
    }

    fn is_exact(&self) -> bool {
        self.current.is_some()
    }

    fn materialize(&mut self) -> Option<(DocId, f64)> {
        if let Some((doc, score, _)) = self.current {
            return Some((doc, score));
        }
        if self.done {
            return None;
        }
        loop {
            let Some(doc) = select_exact_min(&mut self.subs) else {
                self.done = true;
                return None;
            };
            // The newest source parked on `doc` holds its candidate
            // posting; it is live iff nothing newer touches the doc.
            // (select_exact_min parks at least one sub on it.)
            let newest = self
                .subs
                .iter_mut()
                .enumerate()
                .filter_map(|(at, sub)| Some((at, sub.rank, sub.posting_on(doc)?)))
                .max_by_key(|&(_, rank, _)| rank);
            let Some((at, _, score)) = newest else {
                self.done = true;
                return None;
            };
            if self.is_live(at, doc) {
                self.rest_min = self
                    .subs
                    .iter()
                    .enumerate()
                    .filter(|&(other, sub)| other != at && !sub.cursor.at_end())
                    .map(|(_, sub)| u64::from(sub.cursor.doc_lower_bound().0))
                    .min()
                    .unwrap_or(u64::MAX);
                self.current = Some((doc, score, at));
                return Some((doc, score));
            }
            // Dead document.
            self.step_subs_on(doc);
        }
    }

    fn positions(&self) -> (u32, u32) {
        self.current
            .map_or((0, 0), |(.., at)| self.subs[at].cursor.positions())
    }

    fn step(&mut self) {
        let Some((doc, _, at)) = self.current.take() else {
            return;
        };
        if self.rest_min <= u64::from(doc.0) {
            self.step_subs_on(doc);
            return;
        }
        // Only the leading sub holds `doc`: nothing is probed,
        // selected or decoded while its next posting stays in the lead.
        self.subs[at].cursor.step();
        self.resume_lead(at);
    }

    fn advance_past(&mut self, bound: DocId) {
        if let Some((doc, ..)) = self.current {
            if doc > bound {
                return;
            }
            self.current = None;
        }
        for sub in self.subs.iter_mut() {
            if !sub.cursor.at_end() {
                sub.cursor.advance_past(bound);
            }
        }
    }

    /// The bulk form of [`step`](BlockCursor::step)'s fast path: once
    /// a selected posting sits below the other subs' frontier, every
    /// posting its sub holds below that frontier and its watermark is
    /// the merge's next live posting, so that sub drains the run
    /// itself. Every other posting takes the general
    /// `materialize`/`step` step.
    fn drain_below(&mut self, end: u64, out: &mut Vec<(DocId, f64)>) {
        while !self.at_end() && u64::from(self.doc_lower_bound().0) < end {
            let Some((doc, score, at)) = self.materialize().and(self.current) else {
                return;
            };
            if u64::from(doc.0) >= end {
                return;
            }
            out.push((doc, score));
            if u64::from(doc.0) >= self.rest_min {
                self.step();
                continue;
            }
            self.current = None;
            let sub = &mut self.subs[at];
            sub.cursor.step();
            let stop = end.min(self.rest_min).min(sub.live_below);
            sub.cursor.drain_below(stop, out);
            self.resume_lead(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_equals_sort_and_truncate() {
        // Tied scores in both doc orders, so the doc-id tie-break and
        // the "equal score, later doc never displaces" case both bite.
        let offered: Vec<RankedDoc> = [
            (7, 0.5),
            (3, 0.5),
            (9, 1.25),
            (1, 0.25),
            (4, 0.5),
            (8, 1.25),
            (2, 0.0),
            (6, 0.5),
        ]
        .iter()
        .map(|&(doc, score)| RankedDoc {
            doc: DocId(doc),
            score,
        })
        .collect();
        let n = offered.len();
        let mut scratch = TopKScratch::new();
        for k in [0, 1, 3, n, n + 1] {
            let mut want = offered.clone();
            want.sort_by(RankedDoc::result_order);
            want.truncate(k);
            scratch.begin(k);
            for (i, candidate) in offered.iter().enumerate() {
                assert_eq!(
                    scratch.kth_score().is_some(),
                    k > 0 && i >= k,
                    "threshold exists iff k are retained (k = {k}, offered {i})"
                );
                scratch.offer(candidate.doc, candidate.score);
            }
            if let Some(kth) = scratch.kth_score() {
                assert_eq!(kth, want[k - 1].score, "k = {k}");
            }
            scratch.finish();
            assert_eq!(scratch.ranked, want, "k = {k}");
            assert_eq!(scratch.scored(), n as u64);
        }
        // Reuse across evaluations starts clean.
        scratch.begin(2);
        scratch.finish();
        assert!(scratch.ranked.is_empty());
        assert_eq!(scratch.scored(), 0);
    }

    #[test]
    fn empty_cursor_is_inert() {
        let mut cursor = EmptyCursor;
        assert!(cursor.at_end());
        assert!(cursor.materialize().is_none());
        assert_eq!(cursor.positions(), (0, 0));
        let mut cursors: Vec<Box<dyn BlockCursor + '_>> = vec![Box::new(EmptyCursor)];
        let mut scratch = TopKScratch::new();
        maxscore_topk(&mut cursors, 5, &mut scratch);
        assert!(scratch.ranked.is_empty());
    }
}
