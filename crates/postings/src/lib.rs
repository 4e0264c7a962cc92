//! Block-compressed posting-list storage for the Zerber reproduction.
//!
//! The plaintext index substrate (`zerber-index`) keeps every posting
//! list as a plain `Vec<Posting>`. That is the right build/update
//! structure, but it caps corpus scale and leaves the paper's Section
//! 7.3 storage/bandwidth argument — *plaintext postings compress
//! well; Shamir share columns do not* — asserted rather than
//! demonstrated. This crate supplies the production-shaped storage
//! engine:
//!
//! * [`varint`] — LEB128 integers and the ZigZag mapping,
//! * [`crc`] — the workspace's one CRC-32 (slice-by-8), kept in the
//!   lowest crate both its users (`zerber-segment`, `zerber-net`)
//!   depend on,
//! * `block` — the block codec: [`block::BLOCK_SIZE`]-posting blocks
//!   whose doc-key gaps, counts, lengths and positions are each
//!   bit-packed at one width per block (frame of reference; gaps too
//!   wide for their block's width are patched in apart) and unpacked by
//!   one fixed-width loop per width, each block carrying
//!   `(first_doc, last_doc)` skip metadata,
//! * `builder` — [`CompressedPostingBuilder`], the streaming
//!   sorted-order constructor,
//! * `list` — the immutable [`CompressedPostingList`], a view of one
//!   list record (the layout a segment file stores) in a shared
//!   buffer; [`CompressedPostingList::iter`] reads it through the
//!   block cursor below,
//! * `merge` — [`merge_compressed`], a k-way merge that streams
//!   blocks instead of materializing whole lists ([`merge_sorted`] is
//!   the same merge over any sorted posting streams),
//! * [`mod@column`] — a general integer-column codec with a raw escape,
//!   used to reproduce the share-vs-plaintext compressibility
//!   experiment,
//! * `store` — [`CompressedPostingStore`], the
//!   [`zerber_index::store::PostingStore`] backend,
//! * `cursor` — [`CompressedBlockCursor`], the one reader of a list,
//!   stored compressed or held decoded in memory (a memtable's): seeks
//!   from the block bounds alone, one list-wide score bound from the
//!   list's maximum term frequency, and a block loaded into four
//!   columns only when a reader lands in it. Queries drive it as a
//!   [`zerber_index::cursor::BlockCursor`]; merges, full decodes and
//!   point probes walk a compressed list with it as an iterator of
//!   [`RawEntry`].

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod block;
pub(crate) mod builder;
pub mod column;
pub mod crc;
pub(crate) mod cursor;
pub(crate) mod list;
pub(crate) mod merge;
pub(crate) mod store;
pub mod varint;

pub use block::{BlockMeta, RawEntry, BLOCK_SIZE};
pub use builder::CompressedPostingBuilder;
pub use cursor::CompressedBlockCursor;
pub use list::CompressedPostingList;
pub use merge::{merge_compressed, merge_sorted, naive_merge};
pub use store::{to_posting, CompressedPostingStore};
