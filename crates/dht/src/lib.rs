//! Placement over a ring of peers — the direction the paper names as
//! future work in Section 3:
//!
//! > "Zerber distributes complete instances of an encrypted index to
//! > multiple servers for security reasons, while in DHTs each peer
//! > typically stores only a fraction of the index. The extension of
//! > r-confidential indexing to a DHT-based infrastructure is an
//! > interesting area for future research."
//!
//! Two pieces, both used by the peer runtime (`zerber::runtime`):
//!
//! * [`ConsistentHashRing`] — keys hash onto a 64-bit ring of virtual
//!   nodes; a key's replica set is its first `n` *distinct* physical
//!   successors, stable under unrelated joins.
//! * [`ShardMap`] — documents hash onto a fixed set of logical shards,
//!   each shard is homed on a live peer and replicated on its
//!   successors, and a join or leave moves whole shard assignments
//!   ([`ShardMove`]) instead of re-partitioning documents.
//!
//! Share placement over the ring (one Shamir share per element per
//! successor peer) is not implemented here: the share path keeps the
//! paper's `n` full index servers (`zerber::ZerberSystem`).

pub mod ring;
pub mod shard;

pub use ring::{ConsistentHashRing, PeerId};
pub use shard::{ShardMap, ShardMove};
