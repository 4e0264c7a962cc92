//! Zerber clients: the document-owner daemon and the querying user.
//!
//! Section 5.4 of the paper describes both sides:
//!
//! * **Indexing a document** (5.4.1): the owner parses the document,
//!   builds one posting element per distinct term, encrypts each with
//!   Algorithm 1a, assigns a global element id, and ships one share to
//!   each of the n servers — optionally *batched* across documents so
//!   an adversary watching a compromised server cannot correlate the
//!   elements of one document.
//! * **Processing queries** (5.4.2, Algorithm 2): the user maps her
//!   query terms to merged posting-list ids, fetches the accessible
//!   share columns from k servers (all k fetches begun before the
//!   first is waited for), and recombines them list by list — one
//!   comparison of the k element-id columns, then a straight weighted
//!   sum down the share columns, sorted and merge-joined only where
//!   servers disagree on the order — decrypting each complete set
//!   with Algorithm 1b as it is
//!   summed and dropping false positives (elements of co-merged
//!   terms); the rest are grouped by document with a radix pass over
//!   `doc` (no comparison sort) and ranked with statistics
//!   personalised to what the user may read, and snippets are finally
//!   pulled from the hosting peers.
//!
//! Modules: `transport` (the narrow server interface), `owner`,
//! `batching`, `query`, [`ranking`], `snippets`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod batching;
pub(crate) mod mixing;
pub(crate) mod owner;
pub(crate) mod query;
pub mod ranking;
pub(crate) mod snippets;
pub(crate) mod transport;

pub use batching::BatchPolicy;
pub use mixing::UpdateMixer;
pub use owner::{DocumentOwner, OwnerError};
pub use query::{recombine, QueryClient, QueryError, QueryOutcome};
pub use snippets::{OwnerSnippetService, SnippetProvider};
pub use transport::{PendingFetch, ServerHandle};
