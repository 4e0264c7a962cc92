//! Workspace root crate for the Zerber reproduction.
//!
//! This crate only re-exports the workspace members so that the runnable
//! examples in `examples/` and the cross-crate integration tests in
//! `tests/` have a single dependency surface. The actual implementation
//! lives in the `crates/` subdirectories; start with [`zerber`] for the
//! system facade and [`zerber_core`] for the paper's primary
//! contribution (r-confidential term merging).
//!
//! ```
//! // Every workspace member is reachable through this facade.
//! use zerber_repro::zerber::ZerberConfig;
//! use zerber_repro::zerber_field::Fp;
//!
//! let _ = ZerberConfig::default();
//! assert_eq!(Fp::new(3) + Fp::new(4), Fp::new(7));
//! ```

#![deny(missing_docs)]

pub use zerber;
pub use zerber_attacks;
pub use zerber_client;
pub use zerber_core;
pub use zerber_corpus;
pub use zerber_field;
pub use zerber_index;
pub use zerber_net;
pub use zerber_postings;
pub use zerber_segment;
pub use zerber_server;
pub use zerber_shamir;
