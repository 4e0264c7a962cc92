//! A Zerber index server (paper Figure 3).
//!
//! Each of the `n` index servers holds **one share** of every posting
//! element, the user–group table, and the per-element group labels.
//! Its interface to the world is deliberately narrow: "only insert,
//! delete, and look up posting list elements" (Section 5). Before
//! serving a lookup, the server authenticates the user against the
//! enterprise authentication service and returns only elements whose
//! group the user belongs to (Algorithm 2, server side).
//!
//! A single compromised server exposes everything in this crate's
//! state — that is precisely the threat the secret sharing and term
//! merging defend against, and the [`IndexServer::adversary_view`]
//! accessor hands that state to the attack simulations of
//! `zerber-attacks`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod auth;
pub(crate) mod groups;
pub(crate) mod server;
pub(crate) mod store;

pub use auth::{AuthService, TokenAuth};
pub use server::{AdversaryView, IndexServer, ServerError};
