//! Construction of block-compressed posting lists.

use crate::block::{encode_block, RawEntry, BLOCK_SIZE};
use crate::list::{index_entry, CompressedPostingList, HEAD};

/// Streaming builder: accepts postings in strictly increasing doc-key
/// order and seals a block every [`BLOCK_SIZE`] postings, so peak
/// memory is one block regardless of list length.
#[derive(Debug, Default)]
pub struct CompressedPostingBuilder {
    /// The list's record so far: room for its head, then the sealed
    /// blocks' payloads.
    record: Vec<u8>,
    /// The sealed blocks' index entries.
    index: Vec<u8>,
    max_tf: f64,
    pending: Vec<RawEntry>,
    len: usize,
    last_doc: Option<u32>,
}

impl CompressedPostingBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one posting.
    ///
    /// # Panics
    /// Panics if `entry.doc` does not exceed the previously pushed doc
    /// key — compressed lists are delta-coded and therefore
    /// append-only in doc order.
    pub fn push(&mut self, entry: RawEntry) {
        if let Some(last) = self.last_doc {
            assert!(
                entry.doc > last,
                "postings must arrive in strictly increasing doc order ({} after {last})",
                entry.doc
            );
        }
        self.last_doc = Some(entry.doc);
        self.pending.push(entry);
        self.len += 1;
        if self.pending.len() == BLOCK_SIZE {
            self.seal_block();
        }
    }

    fn seal_block(&mut self) {
        if self.record.is_empty() {
            self.record.resize(HEAD, 0);
        }
        let (meta, max_tf) = encode_block(&self.pending, &mut self.record);
        self.index
            .extend_from_slice(&index_entry(&meta, meta.offset - HEAD));
        self.max_tf = self.max_tf.max(max_tf);
        self.pending.clear();
    }

    /// Seals the final (possibly partial) block and returns the list.
    pub fn build(mut self) -> CompressedPostingList {
        if !self.pending.is_empty() {
            self.seal_block();
        }
        CompressedPostingList::seal(self.record, &self.index, self.len, self.max_tf)
    }

    /// Convenience: compresses an already-sorted slice of postings.
    pub fn from_sorted(entries: impl IntoIterator<Item = RawEntry>) -> CompressedPostingList {
        let mut builder = Self::new();
        for entry in entries {
            builder.push(entry);
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(doc: u32) -> RawEntry {
        RawEntry {
            doc,
            count: 1,
            doc_length: 10,
            pos: 0,
        }
    }

    #[test]
    fn builds_exact_multiples_of_the_block_size() {
        let list = CompressedPostingBuilder::from_sorted((0..256u32).map(entry));
        assert_eq!(list.len(), 256);
        assert_eq!(list.blocks().len(), 2);
        assert_eq!(list.block(1).len, 128);
        assert_eq!(list.decode_all().len(), 256);
    }

    #[test]
    fn empty_builder_yields_empty_list() {
        let list = CompressedPostingBuilder::new().build();
        assert!(list.is_empty());
        assert_eq!(list.blocks().len(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing doc order")]
    fn out_of_order_push_panics() {
        let mut builder = CompressedPostingBuilder::new();
        builder.push(entry(5));
        builder.push(entry(5));
    }

    #[test]
    fn block_metadata_tracks_contents() {
        let list = CompressedPostingBuilder::from_sorted((0..200u32).map(|i| RawEntry {
            doc: i * 2,
            count: i % 4,
            doc_length: 8,
            pos: i,
        }));
        assert_eq!(list.block(0).first_doc, 0);
        assert_eq!(list.block(0).last_doc, 254);
        assert_eq!(list.block(1).first_doc, 256);
        assert!((list.max_tf() - 3.0 / 8.0).abs() < 1e-12);
    }
}
