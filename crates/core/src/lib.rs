//! `zerber-core` — the primary contribution of the paper: an
//! *r-confidential* inverted-index organization.
//!
//! The paper bounds what an index `I` may add to an adversary's
//! background knowledge `B` (Definition 1):
//!
//! > An indexing scheme is r-confidential iff
//! > `P(X | B, I) / P(X | B) <= r`
//!
//! for facts `X` of the form "term t is (not) in document d". Zerber
//! achieves a tunable `r` by **merging** the posting lists of several
//! terms into one list, so that a compromised index server sees only
//! the combined length. For a merged term set `S`, the probability that
//! an element belongs to term `t_u ∈ S` is `p_{t_u} / Σ_{t_i∈S} p_{t_i}`
//! (formula (3)), hence r-confidentiality holds iff every merged list
//! satisfies `Σ_{t_i∈S} p_{t_i} >= 1/r` (formula (5)).
//!
//! Modules:
//!
//! * `element` — the posting element `[document_ID, term_ID, tf]` and
//!   its packing into a single field element for secret sharing,
//! * [`rconf`] — the r-confidentiality measure itself (formulas (3)–(5)
//!   and (7)),
//! * `mapping` — the public term → posting-list mapping table with
//!   hash-based routing for rare terms (Section 6.4),
//! * [`merge`] — the DFM, BFM and UDM merging heuristics (Section 6),
//! * [`analysis`] — amplification, workload-cost ratio QRatio (formula
//!   (8)), query efficiency QRatio_eff (formula (9)) and response-size
//!   analysis backing Figures 9–12.

//! # Example
//!
//! ```
//! use zerber_core::merge::{MergeConfig, MergePlan};
//! use zerber_index::CorpusStats;
//! use rand::SeedableRng;
//!
//! // Zipf-ish document frequencies for 1,000 terms.
//! let dfs: Vec<u64> = (1..=1_000u64).map(|rank| 1 + 100_000 / rank).collect();
//! let stats = CorpusStats::from_document_frequencies(dfs);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! // Merge into 32 posting lists with the depth-first heuristic.
//! let plan = MergePlan::build(MergeConfig::dfm(32), &stats, &mut rng).unwrap();
//! assert_eq!(plan.list_count(), 32);
//! // Formula (7): the achieved confidentiality level.
//! assert!(plan.achieved_r() >= 1.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub(crate) mod element;
pub(crate) mod mapping;
pub mod merge;
pub mod rconf;

pub use element::{CodecError, ElementCodec, ElementId, PostingElement};
pub use mapping::{MappingTable, PlId};
pub use rconf::{achieved_r, is_r_confidential};
