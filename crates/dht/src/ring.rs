//! A consistent-hash ring with virtual nodes.
//!
//! Keys hash onto a 64-bit ring; each physical peer owns several
//! virtual points so load stays balanced. A key's replica set is its
//! first `n` *distinct* physical successors.

use std::collections::BTreeMap;

/// A physical peer in the DHT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

/// Consistent-hash ring mapping keys to peer replica sets.
#[derive(Debug, Clone, Default)]
pub struct ConsistentHashRing {
    /// Ring position -> physical peer.
    points: BTreeMap<u64, PeerId>,
    virtual_nodes: u32,
    peer_count: usize,
}

fn mix(key: u64, salt: u64) -> u64 {
    let mut state = key ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    zerber_field::splitmix64(&mut state)
}

impl ConsistentHashRing {
    /// An empty ring placing `virtual_nodes` points per peer.
    ///
    /// # Panics
    /// Panics if `virtual_nodes == 0`.
    pub fn new(virtual_nodes: u32) -> Self {
        assert!(virtual_nodes > 0, "need at least one virtual node");
        Self {
            points: BTreeMap::new(),
            virtual_nodes,
            peer_count: 0,
        }
    }

    /// Adds a peer; returns false if it already exists.
    pub fn join(&mut self, peer: PeerId) -> bool {
        if self.contains(peer) {
            return false;
        }
        for v in 0..self.virtual_nodes {
            let position = mix(((peer.0 as u64) << 32) | v as u64, 0xD47);
            self.points.insert(position, peer);
        }
        self.peer_count += 1;
        true
    }

    /// Removes a peer; returns false if unknown.
    pub fn leave(&mut self, peer: PeerId) -> bool {
        let before = self.points.len();
        self.points.retain(|_, &mut p| p != peer);
        let removed = self.points.len() != before;
        if removed {
            self.peer_count -= 1;
        }
        removed
    }

    /// Whether the peer is on the ring.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.points.values().any(|&p| p == peer)
    }

    /// Number of physical peers.
    pub fn peer_count(&self) -> usize {
        self.peer_count
    }

    /// The first `replicas` distinct physical successors of `key` on
    /// the ring (clockwise, wrapping).
    ///
    /// # Panics
    /// Panics if the ring has fewer than `replicas` peers.
    pub fn replicas_for(&self, key: u64, replicas: usize) -> Vec<PeerId> {
        assert!(
            self.peer_count >= replicas,
            "ring has {} peers, need {replicas}",
            self.peer_count
        );
        let position = mix(key, 0x2E8B);
        let mut chosen: Vec<PeerId> = Vec::with_capacity(replicas);
        for (_, &peer) in self
            .points
            .range(position..)
            .chain(self.points.range(..position))
        {
            if !chosen.contains(&peer) {
                chosen.push(peer);
                if chosen.len() == replicas {
                    break;
                }
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(n: u32) -> ConsistentHashRing {
        let mut ring = ConsistentHashRing::new(32);
        for p in 0..n {
            ring.join(PeerId(p));
        }
        ring
    }

    #[test]
    fn join_and_leave_round_trip() {
        let mut ring = ConsistentHashRing::new(8);
        assert!(ring.join(PeerId(1)));
        assert!(!ring.join(PeerId(1)), "double join rejected");
        assert_eq!(ring.peer_count(), 1);
        assert!(ring.leave(PeerId(1)));
        assert!(!ring.leave(PeerId(1)));
        assert_eq!(ring.peer_count(), 0);
    }

    #[test]
    fn replica_sets_are_distinct_and_deterministic() {
        let ring = ring_of(10);
        for key in 0..200u64 {
            let a = ring.replicas_for(key, 3);
            let b = ring.replicas_for(key, 3);
            assert_eq!(a, b, "deterministic");
            let mut unique = a.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), 3, "distinct physical peers");
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = ring_of(8);
        let mut primary_load = [0usize; 8];
        let keys = 8_000u64;
        for key in 0..keys {
            primary_load[ring.replicas_for(key, 1)[0].0 as usize] += 1;
        }
        let expected = keys as usize / 8;
        for (peer, &load) in primary_load.iter().enumerate() {
            assert!(
                load > expected / 3 && load < expected * 3,
                "peer {peer} owns {load} of {keys} keys"
            );
        }
    }

    #[test]
    fn join_only_moves_a_fraction_of_keys() {
        // The consistent-hashing property: adding one peer to P peers
        // relocates ~1/(P+1) of the primary assignments.
        let before = ring_of(10);
        let mut after = ring_of(10);
        after.join(PeerId(99));
        let keys = 5_000u64;
        let moved = (0..keys)
            .filter(|&k| before.replicas_for(k, 1) != after.replicas_for(k, 1))
            .count();
        let fraction = moved as f64 / keys as f64;
        assert!(
            fraction < 0.30,
            "join moved {:.0}% of keys (expected ~9%)",
            fraction * 100.0
        );
        assert!(fraction > 0.01, "a new peer must take over some keys");
    }

    #[test]
    #[should_panic(expected = "need 3")]
    fn too_few_peers_panics() {
        let ring = ring_of(2);
        let _ = ring.replicas_for(1, 3);
    }
}
