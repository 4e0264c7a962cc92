//! Baseline systems the paper compares against.
//!
//! * **Trusted central index** — the "ideal solution" of Section 2: an
//!   ordinary inverted index with an ACL check on the ranked list.
//!   Re-exported from `zerber-index` as [`CentralIndex`].
//! * **Shotgun search** (`shotgun`) — Section 1's strawman: each
//!   owner indexes locally and every query is broadcast to all owners.
//! * **μ-Serv** (`muserv`) — Section 3's closest related system \[3\]:
//!   a central Bloom-filter index that returns *candidate sites*,
//!   which the user must then query individually.

pub(crate) mod muserv;
pub(crate) mod shotgun;

pub use muserv::MuServIndex;
pub use shotgun::ShotgunSearch;
pub use zerber_index::CentralIndex;
