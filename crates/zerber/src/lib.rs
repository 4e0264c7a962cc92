//! The Zerber system facade: a full simulated deployment of the
//! EDBT'08 design.
//!
//! A [`ZerberSystem`] wires together:
//!
//! * `n` index servers ([`zerber_server::IndexServer`]), each owning a
//!   public Shamir x-coordinate and enforcing group ACLs,
//! * one document owner per collaboration group
//!   ([`zerber_client::DocumentOwner`]) that encrypts and distributes
//!   posting elements,
//! * query clients executing Algorithm 2 end to end,
//! * a shared [`zerber_net::TrafficMeter`] so every byte crossing the
//!   simulated network is accounted for,
//! * the public [`zerber_core::MappingTable`] produced by one of the
//!   merging heuristics.
//!
//! Since the runtime refactor every index server runs on its own peer
//! thread behind the message-passing [`runtime`] layer: data-plane
//! calls are serialized to their exact wire bytes, metered per link,
//! and executed off the caller's thread, and the same layer provides
//! [`runtime::ShardedSearch`] — a document-sharded, concurrent top-k
//! serving engine with a fan-out/gather query path, whose coordinator
//! launches its peers in-process or connects to peers already serving
//! over TCP (see its docs for a 4-peer end-to-end example).
//!
//! The trusted central index of Section 2, the "ideal scheme" every
//! answer is checked against, is [`zerber_index::CentralIndex`].
//!
//! # Example
//!
//! Deploy a 2-out-of-3 system over one tiny group, index a document,
//! and run an authorized query end to end:
//!
//! ```
//! use zerber::{ZerberConfig, ZerberSystem};
//! use zerber_core::merge::MergeConfig;
//! use zerber_index::{DocId, GroupId, InvertedIndex, RawDocument, TermDict, Tokenizer, UserId};
//!
//! let tokenizer = Tokenizer::new();
//! let mut dict = TermDict::new();
//! let raw = RawDocument {
//!     id: DocId::from_parts(0, 1),
//!     group: GroupId(0),
//!     text: "the quarterly layoff plan is confidential".to_owned(),
//! };
//! let doc = raw.process(&tokenizer, &mut dict);
//!
//! let mut index = InvertedIndex::new();
//! index.insert(&doc);
//! let config = ZerberConfig::default().with_merge(MergeConfig::dfm(4));
//! let mut system = ZerberSystem::bootstrap(config, &index.statistics()).unwrap();
//!
//! let reader = UserId(7);
//! system.add_membership(reader, GroupId(0));
//! system.index_document(&doc).unwrap();
//!
//! let term = dict.get("layoff").unwrap();
//! let outcome = system.query(reader, &[term], 10).unwrap();
//! assert_eq!(outcome.ranked[0].doc, doc.id);
//!
//! // A stranger without the group membership sees nothing.
//! let outsider = UserId(8);
//! let empty = system.query(outsider, &[term], 10).unwrap();
//! assert!(empty.ranked.is_empty());
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod config;
pub mod runtime;
pub(crate) mod system;

pub use config::{ConfigError, ZerberConfig};
pub use runtime::ShardedSearch;
pub use system::{SystemError, ZerberSystem};
pub use zerber_index::{PostingBackend, SegmentPolicy};
