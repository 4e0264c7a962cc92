//! The immutable block-compressed posting list — a view of one record
//! in a shared buffer — and its decoding iterator. The record, as a
//! built list holds it and a segment body stores it after its term id
//! (little-endian): `len` u64, `data_len` u64, the block payloads,
//! `max_tf` as f64 bits, the block count u32, then one 26-byte index
//! entry per block (`first_doc` u64, `last_doc` u64, `len` u16, payload
//! `offset` u64). [`CompressedPostingList::parse`] reads one where it
//! lies; `seal` writes one.

use std::sync::Arc;

use crate::block::{payload_end, BlockMeta, DecodedBlock, RawEntry};
use crate::varint;

/// How many bytes one posting element occupies uncompressed on the wire — the
/// paper's Section 7.3 accounting ("each posting element is encoded
/// using 64 bits").
pub(crate) const RAW_ELEMENT_BYTES: usize = 8;

/// Record bytes before the data (`len`, `data_len`) and between the
/// data and the index (`max_tf`, block count).
pub(crate) const HEAD: usize = 16;
const MID: usize = 12;
/// The size of one block-index entry, in bytes.
pub(crate) const ENTRY: usize = 26;

/// The little-endian `u64` at `at`.
fn u64_at(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(word)
}

/// The block an index entry describes.
#[inline]
pub(crate) fn meta(entry: &[u8; ENTRY]) -> BlockMeta {
    BlockMeta {
        first_doc: u64_at(entry, 0),
        last_doc: u64_at(entry, 8),
        len: u16::from_le_bytes([entry[16], entry[17]]),
        offset: u64_at(entry, 18) as usize,
    }
}

/// Decodes the block at `entry` of a checked list's `data` into
/// `buffer`, positions left packed.
#[expect(
    clippy::expect_used,
    reason = "a list's blocks were checked against its data when it was sealed or parsed"
)]
pub(crate) fn decode_block(buffer: &mut DecodedBlock, entry: &[u8; ENTRY], data: &[u8]) {
    buffer
        .decode(&meta(entry), data)
        .expect("builder-produced blocks decode cleanly");
}

/// The index entry of `meta`, whose payload starts `offset` bytes into
/// the data.
pub(crate) fn index_entry(meta: &BlockMeta, offset: usize) -> [u8; ENTRY] {
    let mut entry = [0; ENTRY];
    entry[..8].copy_from_slice(&meta.first_doc.to_le_bytes());
    entry[8..16].copy_from_slice(&meta.last_doc.to_le_bytes());
    entry[16..18].copy_from_slice(&meta.len.to_le_bytes());
    entry[18..].copy_from_slice(&(offset as u64).to_le_bytes());
    entry
}

/// Serialized size of one block's skip metadata in the accounting
/// model: varint first doc key, varint `last_doc − first_doc`, and a
/// one-byte entry count. Payload offsets are implicit in serial order:
/// each payload's size follows from its width bytes and count.
fn block_meta_bytes(meta: &BlockMeta) -> usize {
    varint::encoded_len(meta.first_doc) + varint::encoded_len(meta.last_doc - meta.first_doc) + 1
}

/// Serialized size of the list's maximum term frequency: 16 bits,
/// ceiling-quantized (an upper bound stays an upper bound). The list
/// and its segment keep the exact `f64`, so the score bound MaxScore
/// partitions by is the same in every store.
const MAX_TF_BYTES: usize = 2;

/// An immutable, block-compressed posting list: every column
/// bit-packed at one width per [`crate::BLOCK_SIZE`]-posting block,
/// a block index carrying `(first_doc, last_doc)` skip metadata, and
/// the list's largest term frequency, which bounds every score the
/// list can contribute.
///
/// The list is a view of its record (see the module docs) in a shared
/// buffer: its own when [`crate::CompressedPostingBuilder`] built it, a
/// segment body when parsed from one; a clone shares the buffer. Read
/// it through [`CompressedPostingIter`], which decodes one block at a
/// time and skips whole blocks on [`CompressedPostingIter::advance_to`].
#[derive(Clone)]
pub struct CompressedPostingList {
    buf: Arc<Vec<u8>>,
    /// Where the record starts in `buf`.
    at: usize,
    data_len: usize,
    block_count: usize,
    len: usize,
    max_tf: f64,
}

impl CompressedPostingList {
    /// The fewest bytes a record takes: a list of no blocks.
    pub const MIN_RECORD_BYTES: usize = HEAD + MID;

    /// The list over a record of its own: `record` holds [`HEAD`]
    /// bytes of room and then the block payloads (or nothing, for no
    /// blocks), `index` their entries ([`index_entry`]). Writes the
    /// head, appends the maximum and the index.
    pub(crate) fn seal(mut record: Vec<u8>, index: &[u8], len: usize, max_tf: f64) -> Self {
        record.resize(record.len().max(HEAD), 0);
        let (data_len, block_count) = (record.len() - HEAD, index.len() / ENTRY);
        record[..8].copy_from_slice(&(len as u64).to_le_bytes());
        record[8..HEAD].copy_from_slice(&(data_len as u64).to_le_bytes());
        record.extend(max_tf.to_bits().to_le_bytes());
        record.extend((block_count as u32).to_le_bytes());
        record.extend_from_slice(index);
        Self {
            buf: Arc::new(record),
            at: 0,
            data_len,
            block_count,
            len,
            max_tf,
        }
    }

    /// A view of the record that starts at `at` in `buf`, checked in
    /// O(blocks) against every invariant the builder keeps that can be
    /// read without unpacking a column: the record lies inside `buf`,
    /// the maximum is finite and non-negative, and the block index
    /// tiles the data in document order (each check below names its
    /// own). The packed values are trusted: storage layers checksum
    /// their files *before* parsing, and a malformed payload panics
    /// when decoded, like any builder-contract violation.
    pub fn parse(buf: &Arc<Vec<u8>>, at: usize) -> Result<Self, &'static str> {
        const SHORT: &str = "list record past the end of its buffer";
        let bytes = |at: usize| buf.get(at..).ok_or(SHORT);
        let word = |at| Ok(u64::from_le_bytes(*bytes(at)?.first_chunk().ok_or(SHORT)?));
        let (len, data_len) = (word(at)? as usize, word(at + 8)? as usize);
        let mid = (at + HEAD).checked_add(data_len).ok_or(SHORT)?;
        let max_tf = f64::from_bits(word(mid)?);
        let count = bytes(mid + 8)?.first_chunk().ok_or(SHORT)?;
        let block_count = u32::from_le_bytes(*count) as usize;
        if block_count * ENTRY > bytes(mid + MID)?.len() {
            return Err(SHORT);
        }
        let list = Self {
            buf: Arc::clone(buf),
            at,
            data_len,
            block_count,
            len,
            max_tf,
        };
        if !(max_tf.is_finite() && max_tf >= 0.0) {
            return Err("list maximum not finite and non-negative");
        }
        let (data, mut total, mut end) = (list.data(), 0usize, 0usize);
        let mut previous: Option<BlockMeta> = None;
        for block in list.blocks() {
            let count = usize::from(block.len);
            if block
                .last_doc
                .checked_sub(block.first_doc)
                .is_none_or(|span| span < (count as u64).saturating_sub(1))
            {
                return Err("block document span cannot hold its postings");
            }
            if previous.is_some_and(|previous| block.first_doc <= previous.last_doc) {
                return Err("blocks out of document order");
            }
            if block.offset != end {
                return Err("block payload does not start where the previous one ends");
            }
            end = payload_end(&block, data).map_err(|error| error.reason())?;
            total += count;
            previous = Some(block);
        }
        if end != data.len() {
            return Err("block payloads do not end where the data does");
        }
        if total != len {
            return Err("block lengths do not sum to the list length");
        }
        Ok(list)
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the list holds no postings.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole record: what a segment body stores for the list.
    pub fn record(&self) -> &[u8] {
        &self.buf[self.at..][..HEAD + self.data_len + MID + self.block_count * ENTRY]
    }

    /// The encoded payload bytes (block payloads in serial order).
    pub fn data(&self) -> &[u8] {
        &self.record()[HEAD..][..self.data_len]
    }

    /// The block index, one entry per block.
    pub(crate) fn index(&self) -> &[[u8; ENTRY]] {
        self.record()[HEAD + self.data_len + MID..].as_chunks().0
    }

    /// The skip metadata of block `block`, read from its index entry.
    pub fn block(&self, block: usize) -> BlockMeta {
        meta(&self.index()[block])
    }

    /// The block index, in block order.
    pub fn blocks(&self) -> impl DoubleEndedIterator<Item = BlockMeta> + ExactSizeIterator + '_ {
        self.index().iter().map(meta)
    }

    /// The first block from `from` on whose largest doc key reaches
    /// `doc` (the block count when none does), from the index alone.
    pub(crate) fn seek(&self, from: usize, doc: u64) -> usize {
        from + self.index()[from..].partition_point(|entry| meta(entry).last_doc < doc)
    }

    /// The largest normalized term frequency of any posting (0 for an
    /// empty list): times a term's IDF, the list's score bound.
    pub(crate) fn max_tf(&self) -> f64 {
        self.max_tf
    }

    /// Compressed footprint in bytes: the packed payloads plus the
    /// serialized block index (`block_meta_bytes` per block) and list
    /// maximum.
    pub fn compressed_bytes(&self) -> usize {
        self.data_len + self.blocks().map(|b| block_meta_bytes(&b)).sum::<usize>() + MAX_TF_BYTES
    }

    /// Uncompressed wire footprint under the paper's 64-bit-element
    /// accounting.
    pub(crate) fn raw_bytes(&self) -> usize {
        self.len * RAW_ELEMENT_BYTES
    }

    /// A decoding iterator positioned before the first posting.
    pub fn iter(&self) -> CompressedPostingIter<'_> {
        CompressedPostingIter {
            list: self,
            block: 0,
            buffer: DecodedBlock::default(),
            pos: 0,
            decoded_block: usize::MAX,
        }
    }

    /// Decodes the whole list (test/diagnostic convenience; hot paths
    /// should stream through [`CompressedPostingList::iter`]).
    pub fn decode_all(&self) -> Vec<RawEntry> {
        self.iter().collect()
    }

    /// Fully decodes block `block` into `buffer`, positions included.
    pub(crate) fn decode_into(&self, block: usize, buffer: &mut DecodedBlock) {
        decode_block(buffer, &self.index()[block], self.data());
        buffer.decode_positions(self.data());
    }

    /// The posting for `doc`, if the list contains one: a point lookup
    /// through the block index (one block decoded at most). Kept for
    /// the segment merge, which probes a list for a handful of
    /// shadowed documents to decide whether it can be carried over
    /// byte-for-byte; queries never call it — cursors hand out the
    /// posting they stand on.
    pub fn entry_for(&self, doc: u64) -> Option<RawEntry> {
        let block = self.seek(0, doc);
        if block == self.block_count || self.block(block).first_doc > doc {
            return None;
        }
        let mut buffer = DecodedBlock::default();
        self.decode_into(block, &mut buffer);
        let at = buffer.docs().binary_search(&doc).ok()?;
        Some(buffer.entry(at))
    }
}

/// Two lists are equal when their records are, wherever each lies.
impl PartialEq for CompressedPostingList {
    fn eq(&self, other: &Self) -> bool {
        self.record() == other.record()
    }
}

impl std::fmt::Debug for CompressedPostingList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (len, blocks) = (self.len, self.block_count);
        write!(f, "CompressedPostingList({len} postings, {blocks} blocks)")
    }
}

/// The empty list.
impl Default for CompressedPostingList {
    fn default() -> Self {
        Self::seal(Vec::new(), &[], 0, 0.0)
    }
}

impl<'a> IntoIterator for &'a CompressedPostingList {
    type Item = RawEntry;
    type IntoIter = CompressedPostingIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Streaming decoder over a [`CompressedPostingList`].
///
/// Holds at most one decoded block; `advance_to` consults only the
/// block index to jump over blocks that cannot contain the target.
#[derive(Debug, Clone)]
pub struct CompressedPostingIter<'a> {
    list: &'a CompressedPostingList,
    /// Index of the current block.
    block: usize,
    /// The columns of `decoded_block`.
    buffer: DecodedBlock,
    /// Next position within `buffer`.
    pos: usize,
    /// Which block `buffer` holds (`usize::MAX` = none yet).
    decoded_block: usize,
}

impl CompressedPostingIter<'_> {
    fn ensure_decoded(&mut self) -> bool {
        if self.block >= self.list.block_count {
            return false;
        }
        if self.decoded_block != self.block {
            self.list.decode_into(self.block, &mut self.buffer);
            self.decoded_block = self.block;
            self.pos = 0;
        }
        true
    }

    /// Postings not yet yielded.
    pub(crate) fn remaining(&self) -> usize {
        if self.block >= self.list.block_count {
            return 0;
        }
        let blocks = self.list.blocks().skip(self.block);
        let total: usize = blocks.map(|b| usize::from(b.len)).sum();
        let consumed = if self.decoded_block == self.block {
            self.pos
        } else {
            0
        };
        total - consumed
    }

    /// The next posting with doc key ≥ `doc`, consuming everything
    /// before it. Whole blocks whose `last_doc` precedes the target
    /// are skipped without decoding.
    pub fn advance_to(&mut self, doc: u64) -> Option<RawEntry> {
        loop {
            // Skip blocks entirely below the target via the block
            // index alone.
            self.block = self.list.seek(self.block, doc);
            if !self.ensure_decoded() {
                return None;
            }
            self.pos += self.buffer.docs()[self.pos..].partition_point(|&d| d < doc);
            if self.pos < self.buffer.len() {
                self.pos += 1;
                return Some(self.buffer.entry(self.pos - 1));
            }
            // The current block had already been consumed up to its
            // end; resume the search in the next block.
            self.block += 1;
        }
    }
}

impl Iterator for CompressedPostingIter<'_> {
    type Item = RawEntry;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if !self.ensure_decoded() {
                return None;
            }
            if self.pos < self.buffer.len() {
                self.pos += 1;
                return Some(self.buffer.entry(self.pos - 1));
            }
            self.block += 1;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.remaining();
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CompressedPostingBuilder;

    fn list_of(docs: &[u64]) -> CompressedPostingList {
        let mut builder = CompressedPostingBuilder::new();
        for &doc in docs {
            builder.push(RawEntry {
                doc,
                count: (doc % 7) as u32 + 1,
                doc_length: 100,
                pos: (doc % 50) as u32,
            });
        }
        builder.build()
    }

    #[test]
    fn iterates_across_block_boundaries() {
        let docs: Vec<u64> = (0..300).map(|i| i * 3).collect();
        let list = list_of(&docs);
        assert_eq!(list.len(), 300);
        assert_eq!(list.blocks().len(), 3); // 128 + 128 + 44
        let decoded: Vec<u64> = list.iter().map(|e| e.doc).collect();
        assert_eq!(decoded, docs);
    }

    #[test]
    fn advance_to_skips_blocks() {
        let docs: Vec<u64> = (0..1000).map(|i| i * 2).collect();
        let list = list_of(&docs);
        let mut iter = list.iter();
        // Target deep inside a later block: exact hit.
        assert_eq!(iter.advance_to(1000).unwrap().doc, 1000);
        // Between entries: next larger doc.
        assert_eq!(iter.advance_to(1501).unwrap().doc, 1502);
        // Past the end.
        assert!(iter.advance_to(u64::MAX).is_none());
    }

    #[test]
    fn advance_interleaves_with_next() {
        let docs: Vec<u64> = (0..500).collect();
        let list = list_of(&docs);
        let mut iter = list.iter();
        assert_eq!(iter.next().unwrap().doc, 0);
        assert_eq!(iter.advance_to(130).unwrap().doc, 130);
        assert_eq!(iter.next().unwrap().doc, 131);
        assert_eq!(iter.advance_to(131).unwrap().doc, 132);
        assert_eq!(iter.remaining(), 500 - 133);
    }

    #[test]
    fn advance_after_exhausting_a_block_moves_on() {
        let docs: Vec<u64> = (0..256).collect();
        let list = list_of(&docs);
        let mut iter = list.iter();
        for _ in 0..128 {
            iter.next().unwrap(); // consume block 0 exactly
        }
        // Target inside the consumed block: never rewinds, lands on
        // the first entry of the next block.
        assert_eq!(iter.advance_to(5).unwrap().doc, 128);
    }

    #[test]
    fn entry_for_finds_exactly_the_stored_docs() {
        let docs: Vec<u64> = (0..500).map(|i| i * 3 + 1).collect();
        let list = list_of(&docs);
        for &doc in &docs {
            let entry = list.entry_for(doc).expect("stored doc");
            assert_eq!(entry.doc, doc);
            assert_eq!(entry.pos, (doc % 50) as u32);
        }
        assert!(list.entry_for(0).is_none());
        assert!(list.entry_for(2).is_none()); // between stored keys
        assert!(list.entry_for(u64::MAX).is_none());
        assert!(CompressedPostingList::default().entry_for(7).is_none());
    }

    #[test]
    fn a_record_parses_where_it_lies() {
        let docs: Vec<u64> = (0..300).map(|i| i * 3).collect();
        let list = list_of(&docs);
        let mut bytes = vec![0xAB; 5];
        bytes.extend_from_slice(list.record());
        bytes.push(0xCD);
        let buf = Arc::new(bytes);
        let view = CompressedPostingList::parse(&buf, 5).unwrap();
        assert_eq!(view, list);
        assert_eq!(view.blocks().len(), 3);
        assert_eq!(view.decode_all(), list.decode_all());
        assert!(CompressedPostingList::parse(&buf, 6).is_err());
        let cut = Arc::new(buf[..buf.len() - 2].to_vec());
        assert!(CompressedPostingList::parse(&cut, 5).is_err());
    }

    #[test]
    fn compression_beats_raw_on_dense_lists() {
        let docs: Vec<u64> = (0..10_000).map(|i| i * 5).collect();
        let list = list_of(&docs);
        let ratio = list.raw_bytes() as f64 / list.compressed_bytes() as f64;
        assert!(ratio > 2.0, "ratio {ratio}");
    }

    #[test]
    fn empty_list_is_well_behaved() {
        let list = CompressedPostingList::default();
        assert!(list.is_empty());
        assert!(list.iter().next().is_none());
        assert!(list.iter().advance_to(0).is_none());
        assert_eq!(list.iter().remaining(), 0);
    }
}
