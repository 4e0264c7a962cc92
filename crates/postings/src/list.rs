//! The immutable block-compressed posting list and its decoding
//! iterator.

use crate::block::{payload_end, BlockMeta, DecodedBlock, RawEntry};
use crate::varint;

/// How many bytes one posting element occupies uncompressed on the wire — the
/// paper's Section 7.3 accounting ("each posting element is encoded
/// using 64 bits").
pub(crate) const RAW_ELEMENT_BYTES: usize = 8;

/// Serialized size of one block's skip metadata: varint first doc
/// key, varint `last_doc − first_doc`, and a one-byte entry count.
/// Payload offsets are implicit in serial order: each payload's size
/// follows from its width bytes and count.
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
/// Built by [`crate::CompressedPostingBuilder`]; read through
/// [`CompressedPostingIter`], which decodes one block at a time and
/// skips whole blocks on [`CompressedPostingIter::advance_to`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompressedPostingList {
    pub(crate) data: Vec<u8>,
    pub(crate) blocks: Vec<BlockMeta>,
    pub(crate) len: usize,
    pub(crate) max_tf: f64,
}

impl CompressedPostingList {
    /// Number of postings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the list holds no postings.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The block index.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// The encoded payload bytes (block payloads in serial order).
    /// Together with [`CompressedPostingList::blocks`],
    /// [`CompressedPostingList::len`] and
    /// [`CompressedPostingList::max_tf`] this is the list's complete
    /// state — the serialization surface for on-disk segment files.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The largest normalized term frequency of any posting (0 for an
    /// empty list): times a term's IDF, the list's score bound.
    pub fn max_tf(&self) -> f64 {
        self.max_tf
    }

    /// Reassembles a list from its serialized parts (the inverse of
    /// reading [`CompressedPostingList::data`] /
    /// [`CompressedPostingList::blocks`] /
    /// [`CompressedPostingList::len`] /
    /// [`CompressedPostingList::max_tf`] back from storage).
    ///
    /// The parts are checked against every invariant the builder keeps
    /// that can be read without unpacking a column, in O(blocks): each
    /// block holds 1..=[`crate::BLOCK_SIZE`] postings over a document
    /// span wide enough for them, blocks ascend by document without
    /// overlap, every column width is in range, each payload — whose
    /// size its width bytes and `len` fix — starts where the previous
    /// one ends (the first at 0) and the last ends at `data.len()`, the
    /// block lengths sum to `len`, and the maximum is finite and
    /// non-negative. The packed values themselves are trusted: storage
    /// layers must checksum their files and treat a mismatch as
    /// corruption *before* reconstructing, and decoding a malformed
    /// payload panics like any builder-contract violation.
    pub fn from_parts(
        data: Vec<u8>,
        blocks: Vec<BlockMeta>,
        len: usize,
        max_tf: f64,
    ) -> Result<Self, &'static str> {
        if !(max_tf.is_finite() && max_tf >= 0.0) {
            return Err("list maximum not finite and non-negative");
        }
        let mut total = 0usize;
        let mut end = 0usize;
        let mut previous: Option<&BlockMeta> = None;
        for block in &blocks {
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
            end = payload_end(block, &data).map_err(|error| error.reason())?;
            total += count;
            previous = Some(block);
        }
        if end != data.len() {
            return Err("block payloads do not end where the data does");
        }
        if total != len {
            return Err("block lengths do not sum to the list length");
        }
        Ok(Self {
            data,
            blocks,
            len,
            max_tf,
        })
    }

    /// Compressed footprint in bytes: the packed payloads plus the
    /// serialized block index (`block_meta_bytes` per block) and list
    /// maximum.
    pub fn compressed_bytes(&self) -> usize {
        self.data.len() + self.blocks.iter().map(block_meta_bytes).sum::<usize>() + MAX_TF_BYTES
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
        buffer
            .decode(&self.blocks[block], &self.data)
            .expect("builder-produced blocks decode cleanly");
        buffer.decode_positions(&self.data);
    }

    /// The posting for `doc`, if the list contains one: a point lookup
    /// through the block index (one block decoded at most). Kept for
    /// the segment merge, which probes a list for a handful of
    /// shadowed documents to decide whether it can be carried over
    /// byte-for-byte; queries never call it — cursors hand out the
    /// posting they stand on.
    pub fn entry_for(&self, doc: u64) -> Option<RawEntry> {
        let block = self.blocks.partition_point(|b| b.last_doc < doc);
        if self.blocks.get(block)?.first_doc > doc {
            return None;
        }
        let mut buffer = DecodedBlock::default();
        self.decode_into(block, &mut buffer);
        let at = buffer.docs().binary_search(&doc).ok()?;
        Some(buffer.entry(at))
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
        if self.block >= self.list.blocks.len() {
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
        if self.block >= self.list.blocks.len() {
            return 0;
        }
        let later: usize = self.list.blocks[self.block + 1..]
            .iter()
            .map(|b| b.len as usize)
            .sum();
        let current = self.list.blocks[self.block].len as usize;
        let consumed = if self.decoded_block == self.block {
            self.pos
        } else {
            0
        };
        current - consumed + later
    }

    /// The next posting with doc key ≥ `doc`, consuming everything
    /// before it. Whole blocks whose `last_doc` precedes the target
    /// are skipped without decoding.
    pub fn advance_to(&mut self, doc: u64) -> Option<RawEntry> {
        loop {
            // Skip blocks entirely below the target via the block
            // index alone.
            self.block += self.list.blocks[self.block..].partition_point(|b| b.last_doc < doc);
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
