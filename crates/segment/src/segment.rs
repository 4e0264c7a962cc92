//! Immutable on-disk segments.
//!
//! A segment is the frozen, block-compressed image of a run of
//! mutation batches: per-term [`CompressedPostingList`]s (the same
//! codec the wire/storage experiments use), the set of documents whose
//! *current version* this segment defines, and the tombstones it
//! absorbed. Files are written to a temp name, fsync'd, and renamed —
//! a segment either exists completely or not at all — and carry a
//! CRC-32 over the whole body, verified on load. Every list in the
//! process was sealed by the builder or proven by
//! [`CompressedPostingList::parse`], the one check a list gets: a
//! segment being written and a segment read from a file alike.
//!
//! In memory a segment is its file: each list is a view of its record
//! in it. A merge or a bulk load lays the file out record by record
//! and writes it as it is; a load keeps the file it read, and an
//! install the buffer it was shipped in.
//!
//! # Shadowing
//!
//! Document updates are whole-document replacements ("only the most
//! recent copy of the document"), so correctness needs *doc-level*
//! masking, not just per-(term, doc) recency: if a newer source
//! re-inserts doc `d` without term `t`, the old `(t, d)` posting must
//! die even though no newer `(t, d)` posting exists. Every source
//! therefore records the documents it *touches* (inserts ∪
//! tombstones), and a posting from source `i` is live iff no newer
//! source touches its document. The crate-internal `merge_streaming`
//! applies exactly that rule for flush and compaction alike; readers
//! apply it lazily per query.

use std::borrow::Cow;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use zerber_index::cursor::{BlockCursor, Shadow};
use zerber_index::DocId;
use zerber_postings::{
    merge_sorted, CompressedBlockCursor, CompressedPostingList, RawEntry, BLOCK_SIZE,
};

use crate::crc::crc32;
use crate::error::SegmentError;
use crate::memtable::Memtable;

/// A read source in the engine's recency order (segments oldest →
/// newest, then the memtable).
pub(crate) trait Source {
    /// Does this source define `doc`'s current version (insert or
    /// tombstone)?
    fn touches(&self, doc: u32) -> bool;
    /// Documents inserted here, ascending.
    fn live_docs(&self) -> &[u32];
    /// Documents tombstoned here, ascending.
    fn tombstones(&self) -> &[u32];
    /// One term's postings, when it has any.
    fn list(&self, term: u32) -> Option<TermPostings<'_>>;
    /// Every non-empty term with its postings, term-ascending.
    fn term_lists(&self) -> Box<dyn Iterator<Item = (u32, TermPostings<'_>)> + '_>;
    /// One past the highest term id.
    fn term_slots(&self) -> u32;
}

/// A sorted doc table read front to back: seeks must not decrease, so
/// each resumes where the last one stopped and gallops forward —
/// O(log gap) per seek, O(table) over a whole scan — where a cold
/// binary search costs O(log table) every time.
struct Finger<'a> {
    table: &'a [u32],
    /// Every entry before this index is below the last sought doc.
    at: usize,
}

impl Finger<'_> {
    /// The first entry `≥ doc`.
    fn seek(&mut self, doc: u32) -> Option<u32> {
        let rest = &self.table[self.at..];
        // Invariant: rest[..lo] < doc.
        let (mut lo, mut step) = (0usize, 1usize);
        while lo + step <= rest.len() && rest[lo + step - 1] < doc {
            lo += step;
            step *= 2;
        }
        let hi = (lo + step).min(rest.len());
        self.at += lo + rest[lo..hi].partition_point(|&d| d < doc);
        self.table.get(self.at).copied()
    }
}

/// The shadow test of one merged query cursor — "which is the first
/// document from `doc` on that a source newer than `rank` touches?"
/// ([`Source::touches`] over `sources[rank + 1..]`) — for a caller
/// whose documents only ascend: one [`Finger`] per live and tombstone
/// table, shared by every rank that probes the source.
pub(crate) struct ShadowProbe<'a> {
    /// Per source, oldest first: `[live, tombstones]`.
    fingers: Vec<[Finger<'a>; 2]>,
    /// The last probed doc (debug builds check the ascent).
    last: u32,
}

impl<'a> ShadowProbe<'a> {
    pub(crate) fn new(sources: &[&'a dyn Source]) -> Self {
        let finger = |table| Finger { table, at: 0 };
        Self {
            fingers: sources
                .iter()
                .map(|s| [finger(s.live_docs()), finger(s.tombstones())])
                .collect(),
            last: 0,
        }
    }
}

impl Shadow for ShadowProbe<'_> {
    fn next_touched(&mut self, rank: usize, doc: DocId) -> Option<DocId> {
        debug_assert!(doc.0 >= self.last, "shadow probes must ascend");
        self.last = doc.0;
        self.fingers[rank + 1..]
            .iter_mut()
            .flat_map(|[live, tombstones]| [live.seek(doc.0), tombstones.seek(doc.0)])
            .flatten()
            .min()
            .map(DocId)
    }
}

/// One term's postings inside a source, doc-ascending: segments hold
/// them block-compressed, the memtable decoded.
#[derive(Clone, Copy)]
pub(crate) enum TermPostings<'a> {
    Compressed(&'a CompressedPostingList),
    Decoded(&'a [RawEntry]),
}

impl<'a> TermPostings<'a> {
    /// The one query cursor over either form, scoring with `weight`.
    pub(crate) fn cursor(self, weight: f64) -> CompressedBlockCursor<'a> {
        match self {
            Self::Compressed(list) => CompressedBlockCursor::new(list, weight),
            Self::Decoded(entries) => CompressedBlockCursor::decoded(entries, weight),
        }
    }

    /// The postings in order. A merge reads a memtable's slice as it
    /// lies, not through the cursor's block copy.
    pub(crate) fn iter(self) -> TermIter<'a> {
        match self {
            Self::Compressed(list) => TermIter::Compressed(list.iter()),
            Self::Decoded(entries) => TermIter::Decoded(entries.iter()),
        }
    }
}

pub(crate) enum TermIter<'a> {
    Compressed(CompressedBlockCursor<'a>),
    Decoded(std::slice::Iter<'a, RawEntry>),
}

impl Iterator for TermIter<'_> {
    type Item = RawEntry;

    fn next(&mut self) -> Option<RawEntry> {
        match self {
            Self::Compressed(iter) => iter.next(),
            Self::Decoded(iter) => iter.next().copied(),
        }
    }
}

impl Source for Memtable {
    fn touches(&self, doc: u32) -> bool {
        Memtable::touches(self, doc)
    }
    fn live_docs(&self) -> &[u32] {
        Memtable::live_docs(self)
    }
    fn tombstones(&self) -> &[u32] {
        Memtable::tombstones(self)
    }
    fn list(&self, term: u32) -> Option<TermPostings<'_>> {
        let entries = self.term_postings(term);
        (!entries.is_empty()).then_some(TermPostings::Decoded(entries))
    }
    fn term_lists(&self) -> Box<dyn Iterator<Item = (u32, TermPostings<'_>)> + '_> {
        Box::new(Memtable::term_lists(self).map(|(t, entries)| (t, TermPostings::Decoded(entries))))
    }
    fn term_slots(&self) -> u32 {
        Memtable::term_slots(self)
    }
}

/// The image of one segment: its file, the doc tables the shadowing
/// rule reads, and a view of each list's record in the file's body.
/// A merge's output, a bulk load's lists and a loaded or shipped
/// segment file all hold one, parsed by [`SegmentContent::parse`], so
/// one [`Source`] impl serves every compressed input of a merge or a
/// read.
pub(crate) struct SegmentContent {
    /// The segment's file: its frame header, then its body.
    pub(crate) frame: Arc<Vec<u8>>,
    pub(crate) live: Vec<u32>,
    pub(crate) tombstones: Vec<u32>,
    pub(crate) term_slots: u32,
    /// `(term, list)` sorted by term id; only non-empty lists, each a
    /// view of its record in `body`.
    pub(crate) terms: Vec<(u32, CompressedPostingList)>,
}

impl Source for SegmentContent {
    fn touches(&self, doc: u32) -> bool {
        self.live.binary_search(&doc).is_ok() || self.tombstones.binary_search(&doc).is_ok()
    }
    fn live_docs(&self) -> &[u32] {
        &self.live
    }
    fn tombstones(&self) -> &[u32] {
        &self.tombstones
    }
    fn list(&self, term: u32) -> Option<TermPostings<'_>> {
        let list = SegmentContent::list(self, term).filter(|list| !list.is_empty());
        list.map(TermPostings::Compressed)
    }
    fn term_lists(&self) -> Box<dyn Iterator<Item = (u32, TermPostings<'_>)> + '_> {
        Box::new(
            self.terms
                .iter()
                .map(|(t, list)| (*t, TermPostings::Compressed(list))),
        )
    }
    fn term_slots(&self) -> u32 {
        self.term_slots
    }
}

/// One immutable segment: its image, fully resident (the file body,
/// posting payloads block-compressed; the file exists for recovery),
/// and the file that holds it.
pub(crate) struct Segment {
    content: SegmentContent,
    file_name: String,
    /// Postings across the image's lists, counted once at write/load:
    /// the compaction window rule reads it for every segment.
    postings: usize,
}

impl Segment {
    fn new(content: SegmentContent, file_name: String) -> Self {
        Self {
            postings: content.terms.iter().map(|(_, l)| l.len()).sum(),
            content,
            file_name,
        }
    }

    /// The image: its lists, and the [`Source`] reads and merges see.
    pub(crate) fn content(&self) -> &SegmentContent {
        &self.content
    }

    /// The file this segment was loaded from / written to.
    pub(crate) fn file_name(&self) -> &str {
        &self.file_name
    }

    /// On-disk footprint in bytes: the frame header and the body.
    pub(crate) fn disk_bytes(&self) -> u64 {
        self.content.frame.len() as u64
    }

    /// Total postings stored.
    pub(crate) fn posting_count(&self) -> usize {
        self.postings
    }
}

/// Merges sources (recency-ordered, oldest first) into one segment
/// image under the shadowing rule — the one merge behind flush and
/// compaction. With `gc_tombstones`, tombstones are dropped — only
/// sound when the merge covers the *oldest* level, so no older posting
/// can be left for a tombstone to mask.
///
/// Streaming: document ownership is resolved once from the sorted
/// doc tables into a (typically tiny) sorted list of shadowed docs per
/// input; terms are grouped by the inputs that actually hold them; a
/// list is carried over byte-for-byte when one input holds the term
/// and none of its docs is shadowed, and otherwise the inputs' block
/// cursors are k-way merged through the shadow filter straight into
/// the block compressor.
pub(crate) fn merge_streaming(inputs: &[&dyn Source], gc_tombstones: bool) -> SegmentContent {
    // Newest → oldest, `newer` holds every doc a newer input touches:
    // an input's live doc found there is shadowed, anything else is the
    // doc's final version.
    let mut shadowed: Vec<Vec<u32>> = vec![Vec::new(); inputs.len()];
    let (mut live, mut tombstones) = (Vec::new(), Vec::new());
    let mut newer: Vec<u32> = Vec::new();
    for (i, input) in inputs.iter().enumerate().rev() {
        for &doc in input.live_docs() {
            if newer.binary_search(&doc).is_ok() {
                shadowed[i].push(doc);
            } else {
                live.push(doc);
            }
        }
        if !gc_tombstones {
            let unshadowed = |doc: &&u32| newer.binary_search(doc).is_err();
            tombstones.extend(input.tombstones().iter().filter(unshadowed));
        }
        if i > 0 {
            newer.extend_from_slice(input.live_docs());
            newer.extend_from_slice(input.tombstones());
            newer.sort_unstable();
            newer.dedup();
        }
    }
    live.sort_unstable();
    tombstones.sort_unstable();

    // One `(term, input)` row per list that exists; the stable sort
    // keeps each term's rows in recency order.
    let mut held: Vec<(u32, usize, TermPostings<'_>)> = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        held.extend(input.term_lists().map(|(term, list)| (term, i, list)));
    }
    held.sort_by_key(|&(term, _, _)| term);

    let lists = held.chunk_by(|a, b| a.0 == b.0).filter_map(|group| {
        let list = match *group {
            [(_, i, TermPostings::Compressed(list))] if !holds_any(list, &shadowed[i]) => {
                Cow::Borrowed(list)
            }
            _ => Cow::Owned(merge_sorted(
                group
                    .iter()
                    .map(|&(_, i, list)| {
                        let dead = &shadowed[i];
                        list.iter()
                            .filter(move |e| dead.binary_search(&e.doc).is_err())
                    })
                    .collect(),
            )),
        };
        (!list.is_empty()).then_some((group[0].0, list))
    });
    let term_slots = inputs.iter().map(|s| s.term_slots()).max().unwrap_or(0);
    lay_out(term_slots, &live, &tombstones, lists, 0)
}

/// Lays out a segment file — the frame header, then a body of term
/// slots, the live and tombstone tables, the list count and each list's
/// record after its term id, terms ascending — with room for
/// `list_bytes` of term ids and records, and returns the image it
/// holds. An owned list is freed once its record is appended.
#[expect(
    clippy::expect_used,
    reason = "every record appended was sealed by the builder or parsed from a checked body"
)]
pub(crate) fn lay_out<'a>(
    term_slots: u32,
    live: &[u32],
    tombstones: &[u32],
    lists: impl Iterator<Item = (u32, Cow<'a, CompressedPostingList>)>,
    list_bytes: usize,
) -> SegmentContent {
    let mut body =
        Vec::with_capacity(HEADER + 16 + 4 * (live.len() + tombstones.len()) + list_bytes);
    body.resize(HEADER, 0);
    put_u32(&mut body, term_slots);
    for table in [live, tombstones] {
        put_u32(&mut body, table.len() as u32);
        body.extend(table.iter().flat_map(|doc| doc.to_le_bytes()));
    }
    let (count_at, mut count) = (body.len(), 0u32);
    put_u32(&mut body, 0);
    for (term, list) in lists {
        put_u32(&mut body, term);
        body.extend_from_slice(list.record());
        count += 1;
    }
    body[count_at..][..4].copy_from_slice(&count.to_le_bytes());
    body.shrink_to_fit();
    seal_frame(&mut body);
    SegmentContent::parse(body, "segment being written").expect("valid lists lay out a valid body")
}

/// Does `list` hold a posting of any of `docs` (ascending)? Exact when
/// probing (a block decode per doc at most) costs no more than
/// streaming the list through the filter would; a conservative `true`
/// otherwise, which only sends the list down the re-encoding path. One
/// cursor walks the probes, so each block decodes once.
fn holds_any(list: &CompressedPostingList, docs: &[u32]) -> bool {
    if docs.len() * BLOCK_SIZE > list.len() {
        return true;
    }
    let mut cursor = list.iter();
    docs.iter().any(|&doc| {
        if let Some(below) = doc.checked_sub(1) {
            cursor.advance_past(DocId(below));
        }
        cursor.materialize().is_some_and(|(at, _)| at == DocId(doc))
    })
}

const MAGIC: u32 = 0x5A53_4547; // "ZSEG"
/// Version 4 holds a block index's doc keys as `u32`, 3 packed gaps
/// behind a fourth width byte with one maximum per list, 2 added
/// positions. An older file would decode garbage, so the bump rejects
/// it cleanly as unsupported. The manifest shares this frame and its
/// version.
const VERSION: u32 = 4;

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a CRC-verified body
/// (segment files, the manifest and log records): running past the
/// end — or not reaching it — is [`SegmentError::Corrupt`], never a
/// panic.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    file: &'a str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8], file: &'a str) -> Self {
        Self {
            bytes,
            pos: 0,
            file,
        }
    }

    pub(crate) fn corrupt(&self, reason: &'static str) -> SegmentError {
        SegmentError::corrupt(self.file, reason)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SegmentError> {
        // `n` is read from the file: the end may not even fit a usize.
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or_else(|| self.corrupt("body shorter than declared layout"))?;
        self.pos += n;
        Ok(slice)
    }

    /// Every byte must have been consumed.
    pub(crate) fn finish(self) -> Result<(), SegmentError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.corrupt("trailing bytes after declared layout"))
        }
    }

    /// The next `N` bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SegmentError> {
        let bytes = self.bytes;
        let (head, _) = bytes[self.pos..]
            .split_first_chunk()
            .ok_or_else(|| self.corrupt("body shorter than declared layout"))?;
        self.pos += N;
        Ok(*head)
    }

    pub(crate) fn u16(&mut self) -> Result<u16, SegmentError> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SegmentError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SegmentError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` count of entries of at least `min_bytes` each, refused
    /// if the bytes left cannot hold them: nothing is allocated for a
    /// count the body cannot back.
    pub(crate) fn count(&mut self, min_bytes: usize) -> Result<usize, SegmentError> {
        let count = self.u32()? as usize;
        let left = self.bytes.len() - self.pos;
        if count > left / min_bytes {
            return Err(self.corrupt("count beyond the bytes left"));
        }
        Ok(count)
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, SegmentError> {
        let n = self.count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }
}

/// The size of a frame header — magic, version, body length, CRC-32 —
/// which a frame's writer leaves room for before its body.
pub(crate) const HEADER: usize = 20;

/// Fills in the header of `frame` for the body behind it.
pub(crate) fn seal_frame(frame: &mut [u8]) {
    let (header, body) = frame.split_at_mut(HEADER);
    header[..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8..16].copy_from_slice(&(body.len() as u64).to_le_bytes());
    header[16..].copy_from_slice(&crc32(body).to_le_bytes());
}

/// Checks a segment or MANIFEST file, `frame`, where it lies: its
/// magic, version, length (the declared length is compared with the
/// body's, never added to) and checksum.
pub(crate) fn check_frame(frame: &[u8], name: &str) -> Result<(), SegmentError> {
    let corrupt = |reason| SegmentError::corrupt(name, reason);
    let Some((header, body)) = frame.split_at_checked(HEADER) else {
        return Err(corrupt("shorter than the frame header"));
    };
    let mut r = Reader::new(header, name);
    let (magic, version, body_len, crc) = (r.u32()?, r.u32()?, r.u64()?, r.u32()?);
    if magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    if version != VERSION {
        return Err(corrupt("unsupported version"));
    }
    if body.len() as u64 != body_len {
        return Err(corrupt("length mismatch"));
    }
    if crc32(body) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(())
}

/// Writes `frame` to `path` via a temp file + fsync + atomic rename,
/// so the file exists whole or not at all, then fsyncs the parent
/// directory so the *rename itself* is durable — the manifest protocol
/// deletes a log only after this returns, so a power loss must not be
/// able to keep the deletion while dropping the rename's directory
/// entry.
pub(crate) fn write_framed(path: &Path, frame: &[u8]) -> Result<(), SegmentError> {
    let tmp: PathBuf = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(frame)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

impl SegmentContent {
    /// True iff the image holds no state at all (nothing to persist).
    pub(crate) fn is_empty(&self) -> bool {
        self.live.is_empty() && self.tombstones.is_empty()
    }

    /// The compressed list for a term, when present.
    pub(crate) fn list(&self, term: u32) -> Option<&CompressedPostingList> {
        self.terms
            .binary_search_by_key(&term, |&(t, _)| t)
            .ok()
            .map(|i| &self.terms[i].1)
    }

    /// Compressed posting payload bytes (excluding doc/tombstone
    /// tables).
    pub(crate) fn compressed_bytes(&self) -> usize {
        self.terms.iter().map(|(_, l)| l.compressed_bytes()).sum()
    }

    /// Persists the image as `seg-<seq>.zseg` in `dir` through
    /// [`write_framed`] (tmp + fsync + rename + directory fsync), so
    /// the file exists completely or not at all. Flush, compaction and
    /// the bulk load each write their segment once, here: the frame as
    /// it was laid out.
    pub(crate) fn write(self, dir: &Path, seq: u64) -> Result<Segment, SegmentError> {
        let file_name = format!("seg-{seq:06}.zseg");
        write_framed(&dir.join(&file_name), &self.frame)?;
        Ok(Segment::new(self, file_name))
    }

    /// Parses the body of a checked segment frame (read from `file`)
    /// into the image that views it: the doc tables are read out, and
    /// each list is proven where its record lies
    /// ([`CompressedPostingList::parse`]) and kept as a view of it. No
    /// list is copied.
    pub(crate) fn parse(frame: Vec<u8>, file: &str) -> Result<Self, SegmentError> {
        let frame = Arc::new(frame);
        let mut r = Reader::new(&frame, file);
        r.take(HEADER)?;
        let term_slots = r.u32()?;
        let live = r.u32_vec()?;
        let tombstones = r.u32_vec()?;
        // The shadow test binary-searches both tables.
        if !live.is_sorted_by(|a, b| a < b) || !tombstones.is_sorted_by(|a, b| a < b) {
            return Err(r.corrupt("document table out of order"));
        }
        // A term's record: its id, then its list's.
        let term_count = r.count(4 + CompressedPostingList::MIN_RECORD_BYTES)?;
        let mut terms: Vec<(u32, CompressedPostingList)> = Vec::with_capacity(term_count);
        for _ in 0..term_count {
            let term = r.u32()?;
            let list = CompressedPostingList::parse(&frame, r.pos).map_err(|why| r.corrupt(why))?;
            r.take(list.record().len())?;
            if terms.last().is_some_and(|&(previous, _)| previous >= term) {
                return Err(r.corrupt("terms out of order"));
            }
            terms.push((term, list));
        }
        r.finish()?;
        Ok(SegmentContent {
            frame,
            live,
            tombstones,
            term_slots,
            terms,
        })
    }
}

impl Segment {
    /// The segment in the file `file_name`, given whole as `frame` and
    /// kept: its frame checked ([`check_frame`]), then its body parsed,
    /// each list proven by [`CompressedPostingList::parse`] — a checksum
    /// does not prove this process's builder wrote it — in O(postings).
    pub(crate) fn read(frame: Vec<u8>, file_name: &str) -> Result<Segment, SegmentError> {
        check_frame(&frame, file_name)?;
        let content = SegmentContent::parse(frame, file_name)?;
        Ok(Segment::new(content, file_name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalOp;
    use crate::ScratchDir;
    use zerber_postings::CompressedPostingBuilder;

    /// The segment in the file at `path`, as an open loads it.
    fn load(path: &Path) -> Result<Segment, SegmentError> {
        Segment::read(std::fs::read(path)?, "segment under test")
    }

    /// `body` behind a frame header this build writes.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut frame = vec![0; HEADER];
        frame.extend_from_slice(body);
        seal_frame(&mut frame);
        frame
    }

    /// A memtable holding one batch: one input of a merge.
    fn delta(ops: &[WalOp]) -> Memtable {
        let mut memtable = Memtable::default();
        memtable.apply(ops);
        memtable
    }

    fn insert(doc: u32, terms: &[(u32, u32)]) -> WalOp {
        WalOp::Insert {
            doc,
            length: terms.iter().map(|&(_, c)| c).sum(),
            terms: terms.to_vec(),
        }
    }

    /// Runs `check` over the deltas as they are (decoded inputs) and
    /// over each sealed into its own segment image (compressed
    /// inputs): the one merge must decide identically through both.
    fn through_both_forms(deltas: &[Memtable], check: impl Fn(&[&dyn Source])) {
        let decoded: Vec<&dyn Source> = deltas.iter().map(|d| d as &dyn Source).collect();
        check(&decoded);
        let sealed: Vec<SegmentContent> = deltas
            .iter()
            .map(|d| merge_streaming(&[d], false))
            .collect();
        let compressed: Vec<&dyn Source> = sealed.iter().map(|s| s as &dyn Source).collect();
        check(&compressed);
    }

    #[test]
    fn shadow_probe_equals_touches_on_ascending_docs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(15);
        for case in 0..200 {
            // Sparse to dense tables, so the finger takes single steps
            // and long gallops; sources may be empty.
            let span = rng.random_range(1..400u32);
            let deltas: Vec<Memtable> = (0..rng.random_range(1..5usize))
                .map(|_| {
                    let density = rng.random_range(0..=100u32);
                    let ops: Vec<WalOp> = (0..span)
                        .filter_map(|doc| match rng.random_range(0..300u32) {
                            roll if roll >= 3 * density => None,
                            roll if roll.is_multiple_of(3) => Some(WalOp::Delete { doc }),
                            _ => Some(insert(doc, &[(0, 1)])),
                        })
                        .collect();
                    delta(&ops)
                })
                .collect();
            let sources: Vec<&dyn Source> = deltas.iter().map(|d| d as &dyn Source).collect();
            let mut probe = ShadowProbe::new(&sources);
            // Ascending docs with repeats, each probed from a random
            // subset of ranks in random order — one source's fingers
            // serve every rank below it. The answer is the first doc
            // from `doc` on that a newer source touches, brute-forced.
            let mut doc = 0u32;
            while doc <= span {
                for _ in 0..rng.random_range(1..4usize) {
                    let rank = rng.random_range(0..sources.len());
                    let want = (doc..=span)
                        .find(|&d| sources[rank + 1..].iter().any(|s| s.touches(d)))
                        .map(DocId);
                    assert_eq!(
                        probe.next_touched(rank, DocId(doc)),
                        want,
                        "case {case}: rank {rank} doc {doc}"
                    );
                }
                doc += rng.random_range(0..6u32);
            }
        }
    }

    #[test]
    fn merge_applies_doc_level_shadowing() {
        // Doc 1 first has terms {0, 1}; a newer delta re-inserts it
        // with only term 0 — the (1, d1) posting must die.
        let old = delta(&[insert(1, &[(0, 1), (1, 1)]), insert(2, &[(1, 2)])]);
        let new = delta(&[insert(1, &[(0, 5)])]);
        through_both_forms(&[old, new], |inputs| {
            let content = merge_streaming(inputs, false);
            assert_eq!(content.live, vec![1, 2]);
            let term0: Vec<RawEntry> = content.terms[0].1.decode_all();
            assert_eq!(term0.len(), 1);
            assert_eq!((term0[0].doc, term0[0].count), (1, 5));
            let term1: Vec<RawEntry> = content.terms[1].1.decode_all();
            assert_eq!(term1.len(), 1, "doc 1 dropped term 1");
            assert_eq!(term1[0].doc, 2);
        });
    }

    #[test]
    fn tombstones_survive_unless_collected() {
        let old = delta(&[insert(1, &[(0, 1)])]);
        let tomb = delta(&[WalOp::Delete { doc: 1 }, WalOp::Delete { doc: 7 }]);
        through_both_forms(&[old, tomb], |inputs| {
            let kept = merge_streaming(inputs, false);
            assert!(kept.live.is_empty());
            assert_eq!(kept.tombstones, vec![1, 7]);
            assert!(kept.terms.is_empty(), "no live postings remain");
            let collected = merge_streaming(inputs, true);
            assert!(collected.tombstones.is_empty());
            assert!(collected.is_empty());
        });
    }

    #[test]
    fn unshadowed_single_input_lists_are_carried_over_verbatim() {
        // Term 0 spans three blocks in `base`; doc 400 holds only
        // term 1.
        let mut ops: Vec<WalOp> = (0..300u32).map(|d| insert(d, &[(0, 1 + d % 3)])).collect();
        ops.push(insert(400, &[(1, 1)]));
        let base = merge_streaming(&[&delta(&ops)], false);
        let original = base.list(0).unwrap();
        assert_eq!(original.blocks().len(), 3);

        // A newer input that shadows nothing, and one that shadows a
        // doc outside the list: same bytes, same skip metadata.
        for newer in [
            delta(&[insert(900, &[(2, 2)])]),
            delta(&[WalOp::Delete { doc: 400 }]),
        ] {
            let merged = merge_streaming(&[&base, &newer], false);
            assert_eq!(&merged.terms[0].1, original);
        }

        // Shadow one of the list's docs: the list is re-encoded
        // without it.
        let merged = merge_streaming(&[&base, &delta(&[WalOp::Delete { doc: 130 }])], false);
        let expected =
            CompressedPostingBuilder::from_sorted(original.iter().filter(|e| e.doc != 130));
        assert_ne!(&merged.terms[0].1, original);
        assert_eq!(merged.terms[0].1, expected);
        assert_eq!(merged.tombstones, vec![130]);
    }

    #[test]
    fn holds_any_answers_exactly_as_a_scan_of_the_list() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // 1 000 postings, docs 3i + 1, in eight blocks: up to seven
        // probed docs are answered exactly.
        let list = CompressedPostingBuilder::from_sorted((0..1000u32).map(|i| RawEntry {
            doc: 3 * i + 1,
            count: 1,
            doc_length: 1,
            pos: i,
        }));
        assert_eq!(list.blocks().len(), 8);
        let stored = list.decode_all();
        let scan = |docs: &[u32]| {
            docs.iter()
                .any(|doc| stored.binary_search_by_key(doc, |e| e.doc).is_ok())
        };
        let (first, last) = (|b| list.block(b).first_doc, |b| list.block(b).last_doc);
        let mut cases: Vec<Vec<u32>> = vec![
            vec![],
            // Inside one block: between stored docs, then on one.
            vec![first(2) + 1, first(2) + 2, last(2) - 1],
            vec![first(2) + 1, first(2) + 3],
            // Outside the list: before its first doc, after its last.
            vec![0],
            vec![last(7) + 1, last(7) + 2, u32::MAX],
            vec![0, last(7) + 1],
            // Across block boundaries: between two blocks, then on
            // either side of one.
            vec![last(0) + 1, last(0) + 2, last(3) + 1],
            vec![last(0) + 1, first(1)],
            vec![last(0), first(1)],
            vec![last(4) + 2, last(7)],
        ];
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..300 {
            let mut docs: Vec<u32> = (0..rng.random_range(0..=7))
                .map(|_| rng.random_range(0..3100))
                .collect();
            docs.sort_unstable();
            docs.dedup();
            cases.push(docs);
        }
        for docs in cases {
            assert!(docs.len() * BLOCK_SIZE <= list.len());
            assert_eq!(holds_any(&list, &docs), scan(&docs), "{docs:?}");
        }
    }

    #[test]
    fn segment_round_trips_through_its_file() {
        let dir = ScratchDir::new("segment-roundtrip");
        let many: Vec<WalOp> = (0..400u32)
            .map(|d| insert(d * 3, &[(d % 17, 1 + d % 5), (40, 2)]))
            .collect();
        let content = merge_streaming(&[&delta(&many), &delta(&[WalOp::Delete { doc: 3 }])], false);
        let written = content.write(&dir, 7).unwrap();
        let loaded = load(&dir.join(written.file_name())).unwrap();
        assert_eq!(loaded.posting_count(), written.posting_count());
        assert_eq!(loaded.disk_bytes(), written.disk_bytes());
        let (loaded, written) = (loaded.content(), written.content());
        assert_eq!(loaded.live_docs(), written.live_docs());
        assert_eq!(loaded.tombstones(), written.tombstones());
        for term in 0..45u32 {
            assert_eq!(
                loaded.list(term).map(CompressedPostingList::decode_all),
                written.list(term).map(CompressedPostingList::decode_all),
                "term {term}"
            );
            // Skip metadata and the list maximum must round-trip
            // bit-exactly — MaxScore's σ bounds depend on it.
            match (loaded.list(term), written.list(term)) {
                (Some(a), Some(b)) => assert_eq!(a, b),
                (None, None) => {}
                _ => panic!("presence mismatch for term {term}"),
            }
        }
    }

    #[test]
    fn damaged_segment_files_are_rejected() {
        let dir = ScratchDir::new("segment-damage");
        let content = merge_streaming(&[&delta(&[insert(1, &[(0, 1)])])], false);
        let segment = content.write(&dir, 1).unwrap();
        let path = dir.join(segment.file_name());
        let pristine = std::fs::read(&path).unwrap();
        // Flip one byte at every offset: load must fail, never panic.
        for at in 0..pristine.len() {
            let mut damaged = pristine.clone();
            damaged[at] ^= 0x10;
            std::fs::write(&path, &damaged).unwrap();
            assert!(load(&path).is_err(), "byte {at}");
        }
        // Truncations too.
        for cut in 0..pristine.len() {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(load(&path).is_err(), "cut {cut}");
        }
        // A checksummed body that declares a posting payload of
        // u64::MAX bytes (the field after term_slots, one live doc, no
        // tombstones, term_count, term id and posting count).
        let mut hostile = pristine[HEADER..].to_vec();
        hostile[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        write_framed(&path, &framed(&hostile)).unwrap();
        assert!(matches!(load(&path), Err(SegmentError::Corrupt { .. })));
        std::fs::write(&path, &pristine).unwrap();
        assert!(load(&path).is_ok());
    }

    /// A one-term segment over 200 documents (two blocks), written to a
    /// scratch dir: its file, its body (frame header stripped) and the
    /// body offsets of its list's fields. The list's fields end the
    /// body: `data`, the list maximum (8 bytes), the block count, then
    /// each block's `first_doc`, `last_doc`, `len`, `offset` (18 bytes).
    struct TwoBlocks {
        _dir: ScratchDir,
        path: PathBuf,
        body: Vec<u8>,
        data_len: usize,
        /// Offset of the list maximum; the data ends here.
        max: usize,
        /// Each block's payload offset in the data.
        payloads: [usize; 2],
    }

    impl TwoBlocks {
        fn new(name: &str) -> Self {
            let dir = ScratchDir::new(name);
            let ops: Vec<WalOp> = (0..200u32)
                .map(|d| insert(d * 2, &[(0, 1 + d % 3)]))
                .collect();
            let segment = merge_streaming(&[&delta(&ops)], false)
                .write(&dir, 1)
                .unwrap();
            let path = dir.join(segment.file_name());
            let list = segment.content().list(0).unwrap();
            assert_eq!(list.blocks().len(), 2);
            let data_len = list.data().len();
            let body = std::fs::read(&path).unwrap()[20..].to_vec();
            let max = body.len() - 2 * 18 - 4 - 8;
            let payloads = [0, 1].map(|b| list.block(b).offset);
            Self {
                _dir: dir,
                path,
                body,
                data_len,
                max,
                payloads,
            }
        }

        /// Offset of block `b`'s index entry.
        fn block(&self, b: usize) -> usize {
            self.body.len() - 18 * (2 - b)
        }

        /// Offset of the list's data.
        fn data(&self) -> usize {
            self.max - self.data_len
        }

        /// Patches the body, re-frames it with a valid CRC — as disk
        /// damage the CRC misses or a hostile installer would — and
        /// loads it.
        fn load_patched(&self, edits: &[(usize, &[u8])]) -> Result<Segment, SegmentError> {
            let mut body = self.body.clone();
            for &(at, bytes) in edits {
                body[at..at + bytes.len()].copy_from_slice(bytes);
            }
            assert_ne!(body, self.body);
            write_framed(&self.path, &framed(&body)).unwrap();
            load(&self.path)
        }
    }

    #[test]
    fn block_metadata_no_builder_writes_opens_as_corrupt() {
        let file = TwoBlocks::new("segment-metadata");
        let (block, max) = (|b| file.block(b), file.max);
        // The list's posting count and data length precede its data.
        let list_len = file.data() - 16;
        // After term_slots and the live count.
        let live = 8;
        let check = |case: &str, edits: &[(usize, &[u8])]| {
            assert!(
                matches!(file.load_patched(edits), Err(SegmentError::Corrupt { .. })),
                "{case}"
            );
        };
        let (u32_le, u64_le) = (u32::to_le_bytes, u64::to_le_bytes);
        check("blocks overlap", &[(block(1), &u32_le(254))]);
        check("first after last", &[(block(0), &u32_le(255))]);
        check("span too narrow", &[(block(0) + 4, &u32_le(5))]);
        check("NaN maximum", &[(max, &f64::NAN.to_le_bytes())]);
        check("infinite maximum", &[(max, &f64::INFINITY.to_le_bytes())]);
        check("negative maximum", &[(max, &(-1.0f64).to_le_bytes())]);
        check("empty block", &[(block(1) + 8, &0u16.to_le_bytes())]);
        check("oversized block", &[(block(0) + 8, &129u16.to_le_bytes())]);
        check(
            "offset past the payload",
            &[(block(1) + 10, &u64_le(file.data_len as u64))],
        );
        check("offsets out of order", &[(block(1) + 10, &u64_le(0))]);
        check("first offset not 0", &[(block(0) + 10, &u64_le(1))]);
        check("list length", &[(list_len, &u64_le(201))]);
        check(
            "live table out of order",
            &[(live, &2u32.to_le_bytes()), (live + 4, &0u32.to_le_bytes())],
        );
        write_framed(&file.path, &framed(&file.body)).unwrap();
        assert!(load(&file.path).is_ok());
    }

    #[test]
    fn a_width_byte_no_builder_writes_opens_as_corrupt() {
        // Each block's payload size follows from its four width bytes
        // and its length, so a flipped width either leaves its range or
        // moves where the payload ends: either way the list no longer
        // tiles its data, and the load — not a query — refuses it.
        let file = TwoBlocks::new("segment-widths");
        for payload in file.payloads {
            for column in 0..4 {
                let at = file.data() + payload + column;
                for flip in [0x01u8, 0x10, 0x80] {
                    let width = [file.body[at] ^ flip];
                    assert!(
                        matches!(
                            file.load_patched(&[(at, &width)]),
                            Err(SegmentError::Corrupt { .. })
                        ),
                        "width byte {column} ^ {flip:#x}"
                    );
                }
            }
        }
    }
}
