//! Inverted-index substrate for the Zerber reproduction.
//!
//! Zerber (EDBT'08) is built *on top of* a conventional inverted index:
//! "An inverted index is a sequence of posting lists, each of which
//! contains the IDs of all documents containing one particular term"
//! (Figure 1). This crate provides that substrate plus everything the
//! evaluation section needs around it:
//!
//! * `tokenizer` / `dict` — document parsing and term interning,
//! * `doc` / `postings` / `inverted` — documents, posting lists
//!   with term frequencies, and the index itself,
//! * [`store`] — the posting-storage read contract
//!   ([`store::PostingStore`]); the frozen block-compressed store lives
//!   in the `zerber-postings` crate, the engine shard peers serve from
//!   in `zerber-segment`,
//! * `stats` — corpus statistics: document frequencies and the
//!   normalized term-occurrence probability `p_t` of formula (2),
//! * [`cost`] — the workload cost `Q` of formula (6),
//! * [`topk`] — TF-IDF scoring and the Fagin-style Threshold Algorithm
//!   used for client-side ranking (Section 5.4.2),
//! * [`cursor`] — the lazy decode-on-demand query pipeline:
//!   [`cursor::BlockCursor`] sorted access with metadata-only seeks,
//!   and [`cursor::maxscore_topk`], the one disjunctive evaluator,
//!   which seeks its σ-demoted lists past blocks instead of decoding
//!   them,
//! * `baseline` — the "ideal" trusted central index of Section 2: an
//!   ordinary inverted index with an access-control check on the ranked
//!   result list.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod baseline;
pub mod cost;
pub mod cursor;
pub(crate) mod dict;
pub(crate) mod doc;
pub(crate) mod inverted;
pub(crate) mod postings;
pub(crate) mod stats;
pub mod store;
pub(crate) mod tokenizer;
pub mod topk;
pub(crate) mod types;

pub use baseline::CentralIndex;
pub use cursor::{maxscore_topk, BlockCursor, QueryCost, TopKScratch};
pub use dict::TermDict;
pub use doc::{Document, RawDocument};
pub use inverted::InvertedIndex;
pub use postings::{Posting, PostingList};
pub use stats::CorpusStats;
pub use store::{PostingBackend, PostingStore, SegmentPolicy};
pub use tokenizer::Tokenizer;
pub use topk::{idf, threshold_topk, RankedDoc, ScoredList};
pub use types::{DocId, GroupId, TermId, UserId};
