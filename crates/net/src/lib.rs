//! Simulated enterprise network for the Zerber deployment.
//!
//! Section 7.3 evaluates Zerber's network behaviour analytically: "we
//! assume the following intranet setup: users connect over a 55 Mb/s
//! wireless LAN, while servers use 100 Mb/s LAN connections", posting
//! elements are "encoded using 64 bits", snippets are "about 250 B
//! including XML formatting", and — crucially — "Zerber's element
//! shares are almost random, so standard HTML compression is
//! ineffective". This crate provides:
//!
//! * [`message`] — binary wire formats for every Zerber RPC (insert
//!   batches, deletes, posting-list queries and responses) and every
//!   frame of the sharded peer runtime, length-exact,
//! * [`framing`] — length-prefixed, CRC-protected frames that carry
//!   those messages over real byte streams (TCP / Unix sockets),
//! * `bandwidth` — per-link traffic accounting and transfer-time
//!   models for the paper's link speeds,
//! * `sizes` — the storage/overhead arithmetic of Section 7.2
//!   (Zerber elements ≈ 1.5× ordinary elements, n-fold replication),
//! * `entropy` — a Shannon-entropy estimator used to demonstrate the
//!   incompressibility of secret shares.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod bandwidth;
pub(crate) mod entropy;
pub mod framing;
pub mod message;
pub(crate) mod sizes;

pub use bandwidth::{LinkSpec, NodeId, TrafficMeter};
pub use entropy::entropy_bits_per_byte;
pub use framing::{Frame, FrameDecoder, FrameRef};
pub use message::{
    AuthToken, DocumentFrame, ListVersion, Message, ShareColumns, StoredShare, WireDocument,
    WireError, MAX_QUERY_SLOTS,
};
pub use sizes::SizeModel;
