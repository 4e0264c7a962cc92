//! The Zerber query engine: AST, planner, evaluators, result cache.
//!
//! The index crates answer "what are this term's scored postings";
//! this crate answers "what are this *query's* top-k documents". It
//! sits between the storage backends (anything implementing
//! [`zerber_index::PostingStore`]) and the serving runtime:
//!
//! * `ast` — the query shapes ([`Query::Terms`] / [`Query::And`] /
//!   [`Query::Phrase`]), normalization, and epoch-keyed cache keys;
//! * [`plan()`] — the shape → evaluator table, one evaluator per shape;
//! * `exec` — planned evaluation over [`zerber_index::BlockCursor`]
//!   sorted access: MaxScore with whole-list σ partitioning (from
//!   `zerber-index`, [`zerber_index::maxscore_topk`]), conjunctive
//!   leapfrog, and phrase matching over the positional column;
//! * [`oracle`] — exhaustive reference evaluators; every `exec`
//!   evaluator is property-tested **bit-identical** against them;
//! * `cache` — the sharded LRU result cache whose keys embed the
//!   store epoch, so write invalidation is free.

pub(crate) mod ast;
pub(crate) mod cache;
pub(crate) mod exec;
pub mod oracle;
pub(crate) mod plan;

pub use ast::{Query, QueryShape};
pub use cache::{CacheConfig, ResultCache};
pub use exec::{execute, QueryOutcome};
pub use plan::{plan, Forced};
