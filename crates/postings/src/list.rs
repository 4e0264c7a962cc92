//! The immutable block-compressed posting list — a view of one record
//! in a shared buffer. The record, as a built list holds it and a
//! segment body stores it after its term id (little-endian): `len`
//! u64, `data_len` u64, the block payloads, `max_tf` as f64 bits, the
//! block count u32, then one 18-byte index entry per block (`first_doc`
//! u32, `last_doc` u32, `len` u16, payload `offset` u64). Doc keys are
//! 32-bit; `len`, `data_len` and `offset` count postings and bytes, and
//! keep 64 bits. `seal` writes one; [`CompressedPostingList::parse`]
//! reads one where it lies and proves it, in one walk of its blocks,
//! against everything a reader relies on. Every list in the process was
//! sealed by the builder or proven by `parse`, so a reader decodes its
//! blocks without checking them again.

use std::sync::Arc;

use crate::block::{check_block, BlockMeta, DecodeError, RawEntry};
use crate::cursor::CompressedBlockCursor;
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
pub(crate) const ENTRY: usize = 18;

/// The block an index entry describes.
#[inline]
pub(crate) fn meta(entry: &[u8; ENTRY]) -> BlockMeta {
    let [f0, f1, f2, f3, l0, l1, l2, l3, n0, n1, offset @ ..] = *entry;
    BlockMeta {
        first_doc: u32::from_le_bytes([f0, f1, f2, f3]),
        last_doc: u32::from_le_bytes([l0, l1, l2, l3]),
        len: u16::from_le_bytes([n0, n1]),
        offset: u64::from_le_bytes(offset) as usize,
    }
}

/// The index entry of `meta`, whose payload starts `offset` bytes into
/// the data.
pub(crate) fn index_entry(meta: &BlockMeta, offset: usize) -> [u8; ENTRY] {
    let mut entry = [0; ENTRY];
    entry[..4].copy_from_slice(&meta.first_doc.to_le_bytes());
    entry[4..8].copy_from_slice(&meta.last_doc.to_le_bytes());
    entry[8..10].copy_from_slice(&meta.len.to_le_bytes());
    entry[10..].copy_from_slice(&(offset as u64).to_le_bytes());
    entry
}

/// Serialized size of one block's skip metadata in the accounting
/// model: varint first doc key, varint `last_doc − first_doc`, and a
/// one-byte entry count. Payload offsets are implicit in serial order:
/// each payload's size follows from its width bytes and count.
fn block_meta_bytes(meta: &BlockMeta) -> usize {
    let span = meta.last_doc - meta.first_doc;
    varint::encoded_len(meta.first_doc.into()) + varint::encoded_len(span.into()) + 1
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
/// it through a [`CompressedBlockCursor`] — a query's, or
/// [`CompressedPostingList::iter`]'s — which decodes one block at a
/// time and skips whole blocks on `advance_past`.
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

    /// A view of the record that starts at `at` in `buf`, proven in one
    /// walk of its block index against every invariant a reader relies
    /// on (each check below and in `check_block` names its own): the
    /// record lies inside `buf`, the maximum is finite and non-negative,
    /// and the block index tiles the data in document order. Each block's
    /// widths and exception indices are in range, its gaps land exactly
    /// on its `last_doc` without passing `u32::MAX`, and none of its
    /// postings scores above the maximum, which MaxScore's bounds trust.
    /// That unpacks each block's gap, count and length columns into
    /// stack scratch: O(postings), and no allocation. Every list in the
    /// process was sealed by the builder or proven here — a record read
    /// from a file, a store's own segment at open or one a peer shipped,
    /// as much as a body this process's builder just laid out.
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
            if previous.is_some_and(|previous| block.first_doc <= previous.last_doc) {
                return Err("blocks out of document order");
            }
            if block.offset != end {
                return Err("block payload does not start where the previous one ends");
            }
            end = check_block(&block, data, max_tf).map_err(DecodeError::reason)?;
            total += usize::from(block.len);
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

    /// The list's postings in order, read through one
    /// [`CompressedBlockCursor`] (weight 1): each block decodes once,
    /// as a query would decode it.
    pub fn iter(&self) -> CompressedBlockCursor<'_> {
        CompressedBlockCursor::new(self, 1.0)
    }

    /// Decodes the whole list (test/diagnostic convenience; hot paths
    /// should stream through [`CompressedPostingList::iter`]).
    pub fn decode_all(&self) -> Vec<RawEntry> {
        self.iter().collect()
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
    type IntoIter = CompressedBlockCursor<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CompressedPostingBuilder;
    use zerber_index::cursor::BlockCursor;
    use zerber_index::DocId;

    fn list_of(docs: &[u32]) -> CompressedPostingList {
        let mut builder = CompressedPostingBuilder::new();
        for &doc in docs {
            builder.push(RawEntry {
                doc,
                count: doc % 7 + 1,
                doc_length: 100,
                pos: doc % 50,
            });
        }
        builder.build()
    }

    #[test]
    fn a_posting_and_an_index_entry_are_32_bit_wide() {
        // A doc key wider than 32 bits would grow both.
        assert_eq!(std::mem::size_of::<RawEntry>(), 16);
        assert_eq!(ENTRY, 18);
    }

    #[test]
    fn iterates_across_block_boundaries() {
        let docs: Vec<u32> = (0..300).map(|i| i * 3).collect();
        let list = list_of(&docs);
        assert_eq!(list.len(), 300);
        assert_eq!(list.blocks().len(), 3); // 128 + 128 + 44
        let decoded: Vec<u32> = list.iter().map(|e| e.doc).collect();
        assert_eq!(decoded, docs);
    }

    /// The first unconsumed posting from `doc` on, consumed.
    fn seek(cursor: &mut CompressedBlockCursor<'_>, doc: u32) -> Option<RawEntry> {
        if let Some(below) = doc.checked_sub(1) {
            cursor.advance_past(DocId(below));
        }
        cursor.next()
    }

    #[test]
    fn seeks_skip_blocks() {
        let docs: Vec<u32> = (0..1000).map(|i| i * 2).collect();
        let list = list_of(&docs);
        let mut iter = list.iter();
        // Target deep inside a later block: exact hit.
        assert_eq!(seek(&mut iter, 1000).unwrap().doc, 1000);
        assert_eq!(iter.decoded_blocks(), 1, "only the landing block");
        // Between entries: next larger doc.
        assert_eq!(seek(&mut iter, 1501).unwrap().doc, 1502);
        // Past the end.
        assert!(seek(&mut iter, u32::MAX).is_none());
    }

    #[test]
    fn advance_interleaves_with_next() {
        let docs: Vec<u32> = (0..500).collect();
        let list = list_of(&docs);
        let mut iter = list.iter();
        assert_eq!(iter.next().unwrap().doc, 0);
        assert_eq!(seek(&mut iter, 130).unwrap().doc, 130);
        assert_eq!(iter.next().unwrap().doc, 131);
        assert_eq!(seek(&mut iter, 131).unwrap().doc, 132);
        // What is left to yield.
        assert_eq!(iter.count(), 500 - 133);
    }

    #[test]
    fn advance_after_exhausting_a_block_moves_on() {
        let docs: Vec<u32> = (0..256).collect();
        let list = list_of(&docs);
        let mut iter = list.iter();
        for _ in 0..128 {
            iter.next().unwrap(); // consume block 0 exactly
        }
        // Target inside the consumed block: never rewinds, lands on
        // the first entry of the next block.
        assert_eq!(seek(&mut iter, 5).unwrap().doc, 128);
    }

    #[test]
    fn point_probes_find_exactly_the_stored_docs() {
        // Each probe on a fresh cursor: a seek, then a key check.
        let docs: Vec<u32> = (0..500).map(|i| i * 3 + 1).collect();
        let list = list_of(&docs);
        let probe = |list: &CompressedPostingList, doc| {
            seek(&mut list.iter(), doc).filter(|e| e.doc == doc)
        };
        for &doc in &docs {
            let entry = probe(&list, doc).expect("stored doc");
            assert_eq!(entry.doc, doc);
            assert_eq!(entry.pos, doc % 50);
        }
        assert!(probe(&list, 0).is_none());
        assert!(probe(&list, 2).is_none()); // between stored keys
        assert!(probe(&list, u32::MAX).is_none());
        assert!(probe(&CompressedPostingList::default(), 7).is_none());
    }

    #[test]
    fn a_record_parses_where_it_lies() {
        let docs: Vec<u32> = (0..300).map(|i| i * 3).collect();
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

    /// `list`'s record with `edits` applied, parsed where it lies.
    fn parse_patched(
        list: &CompressedPostingList,
        edits: &[(usize, &[u8])],
    ) -> Result<CompressedPostingList, &'static str> {
        let mut record = list.record().to_vec();
        for &(at, bytes) in edits {
            record[at..at + bytes.len()].copy_from_slice(bytes);
        }
        CompressedPostingList::parse(&Arc::new(record), 0)
    }

    #[test]
    fn an_exception_index_past_the_gaps_fails_the_parse() {
        // 128 docs with a 2^24 jump every 40: one block whose gap
        // column is patched at width 0, with three 25-bit exceptions.
        let docs: Vec<u32> = (0..128).map(|i| i + ((i / 40) << 24)).collect();
        let list = list_of(&docs);
        let payload = HEAD;
        assert_eq!(list.record()[payload..][..6], [0x80, 3, 7, 6, 3, 25]);
        let first_index = payload + 6;
        assert_eq!(list.record()[first_index], 39);
        assert!(parse_patched(&list, &[(first_index, &[126])]).is_ok());
        for index in [127, 200, 255] {
            assert_eq!(
                parse_patched(&list, &[(first_index, &[index])]).err(),
                Some("gap exception index out of range"),
                "index {index}"
            );
        }
    }

    #[test]
    fn parse_refuses_gaps_that_miss_their_last_doc() {
        // One block of ten even docs, 0 to 18.
        let list = list_of(&(0..10).map(|i| 2 * i).collect::<Vec<u32>>());
        assert_eq!(parse_patched(&list, &[]), Ok(list.clone()));
        let entry = list.record().len() - ENTRY;
        // A last doc the gaps do not reach, and a first doc whose gaps
        // pass u32::MAX: each span holds ten postings, and the layout is
        // sound, so only the sum of the gaps refuses them.
        let wrong_last = parse_patched(&list, &[(entry + 4, &100u32.to_le_bytes())]);
        assert_eq!(
            wrong_last.err(),
            Some("block does not end on its last document")
        );
        let past_max = (u32::MAX - 9).to_le_bytes();
        let overflowing = parse_patched(&list, &[(entry, &past_max), (entry + 4, &[0xFF; 4])]);
        assert_eq!(overflowing.err(), Some("doc key overflows 32 bits"));
    }

    #[test]
    fn compression_beats_raw_on_dense_lists() {
        let docs: Vec<u32> = (0..10_000).map(|i| i * 5).collect();
        let list = list_of(&docs);
        let ratio = list.raw_bytes() as f64 / list.compressed_bytes() as f64;
        assert!(ratio > 2.0, "ratio {ratio}");
    }

    #[test]
    fn empty_list_is_well_behaved() {
        let list = CompressedPostingList::default();
        assert!(list.is_empty());
        assert!(list.iter().next().is_none());
        assert!(seek(&mut list.iter(), 0).is_none());
        assert_eq!(list.iter().count(), 0);
    }
}
