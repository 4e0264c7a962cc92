//! Document sharding over the consistent-hash ring.
//!
//! The peer runtime partitions a collection *by document*: every
//! document's postings live on exactly one logical shard, so a peer
//! can rank its shard locally (each candidate's full score is
//! computable from one shard) and the gather stage merges disjoint
//! candidate sets. Placement is a [`ConsistentHashRing`] over the
//! logical shards.
//!
//! Since PR 10 the map separates *logical shards* (fixed at launch;
//! the unit documents hash onto) from *live peers* (which may join and
//! leave): `home[shard]` names the peer holding the shard's primary
//! copy, and replication walks the live-peer successor cycle from
//! there. A membership change therefore never re-partitions documents
//! — it only moves whole shard assignments, which is exactly what
//! makes segment-directory shipping the migration unit.

use zerber_index::DocId;

use crate::ring::{ConsistentHashRing, PeerId};

/// Virtual ring points per peer.
const VIRTUAL_NODES: u32 = 32;

/// One shard whose replica set changes under a join/leave transition:
/// the peers that must *gain* a copy (by migration from a current
/// replica), the peers that stop hosting one, and the surviving
/// replicas a copy can be shipped from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMove {
    /// The logical shard whose placement changes.
    pub shard: u32,
    /// Replicas under the *old* assignment — valid migration sources.
    pub sources: Vec<PeerId>,
    /// Peers that host a copy under the new assignment but not the
    /// old: each needs the shard shipped to it before cutover.
    pub gained: Vec<PeerId>,
    /// Peers that hosted a copy under the old assignment but no longer
    /// do (their directories become garbage after cutover).
    pub dropped: Vec<PeerId>,
}

/// A deterministic document → shard assignment over a fixed set of
/// logical shards, plus the live shard → peer placement.
#[derive(Debug, Clone)]
pub struct ShardMap {
    ring: ConsistentHashRing,
    /// Logical shard count, fixed at construction.
    shards: u32,
    /// Live peer ids, sorted ascending. Initially `0..shards`.
    peers: Vec<u32>,
    /// `home[shard]` = the peer holding the shard's primary copy.
    home: Vec<u32>,
}

impl ShardMap {
    /// A map of `peers` logical shards over peers `0..peers` (the
    /// launch-time identity assignment: shard `s` homes on peer `s`).
    ///
    /// # Panics
    /// Panics if `peers == 0`.
    pub fn new(peers: u32) -> Self {
        assert!(peers > 0, "need at least one peer");
        let mut ring = ConsistentHashRing::new(VIRTUAL_NODES);
        for p in 0..peers {
            ring.join(PeerId(p));
        }
        Self {
            ring,
            shards: peers,
            peers: (0..peers).collect(),
            home: (0..peers).collect(),
        }
    }

    /// Number of live peers in the map.
    pub fn peer_count(&self) -> u32 {
        self.peers.len() as u32
    }

    /// Number of logical shards (fixed at construction).
    pub fn shard_count(&self) -> u32 {
        self.shards
    }

    /// The live peer ids, sorted ascending.
    pub fn peer_ids(&self) -> &[u32] {
        &self.peers
    }

    /// Whether `peer` is a live member of the map.
    pub fn contains_peer(&self, peer: u32) -> bool {
        self.peers.binary_search(&peer).is_ok()
    }

    /// The shard that owns an arbitrary 64-bit key.
    pub fn shard_of_key(&self, key: u64) -> PeerId {
        self.ring.replicas_for(key, 1)[0]
    }

    /// The shard that owns a document (and all of its postings).
    pub fn shard_of(&self, doc: DocId) -> PeerId {
        self.shard_of_key(u64::from(doc.0))
    }

    /// Splits a document set into per-shard groups, indexed by shard.
    pub fn partition<T: Clone>(&self, docs: &[T], id_of: impl Fn(&T) -> DocId) -> Vec<Vec<T>> {
        let mut shards: Vec<Vec<T>> = vec![Vec::new(); self.shards as usize];
        for doc in docs {
            shards[self.shard_of(id_of(doc)).0 as usize].push(doc.clone());
        }
        shards
    }

    /// The peers hosting copies of logical shard `shard` under
    /// `replicas`-fold replication: the shard's home peer plus its
    /// successors on the live-peer cycle (chord-style successor lists —
    /// the same scheme Section 6 uses for posting-list share
    /// replicas). Replication degrees beyond the peer count clamp to
    /// one copy per peer.
    ///
    /// # Panics
    /// Panics if `replicas == 0` or `shard` is not a valid shard id.
    pub fn replica_peers(&self, shard: u32, replicas: u32) -> Vec<PeerId> {
        assert!(replicas > 0, "need at least one replica");
        assert!(shard < self.shards, "shard {shard} out of range");
        let live = self.peers.len() as u32;
        let pos = self
            .peers
            .binary_search(&self.home[shard as usize])
            .expect("every shard homes on a live peer");
        (0..replicas.min(live))
            .map(|j| PeerId(self.peers[(pos + j as usize) % self.peers.len()]))
            .collect()
    }

    /// The logical shards `peer` hosts under `replicas`-fold
    /// replication — the exact inverse of [`ShardMap::replica_peers`].
    ///
    /// # Panics
    /// Panics if `replicas == 0` or `peer` is not a live peer.
    pub fn hosted_shards(&self, peer: u32, replicas: u32) -> Vec<u32> {
        assert!(replicas > 0, "need at least one replica");
        assert!(self.contains_peer(peer), "peer {peer} not in the map");
        (0..self.shards)
            .filter(|&shard| self.replica_peers(shard, replicas).contains(&PeerId(peer)))
            .collect()
    }

    /// Admits `peer` to the map and rebalances shard homes onto it,
    /// returning every shard whose `replicas`-fold placement changed
    /// (the migration work list). Deterministic: the most-loaded peer
    /// cedes its lowest-numbered shard, repeatedly, until the joiner
    /// holds its fair share `⌈shards / peers⌉` of primaries — the
    /// ceiling, so a joiner always takes over real work even when
    /// peers outnumber shards.
    ///
    /// The map mutates immediately; callers own the cutover discipline
    /// (keep serving from a clone of the old map until every
    /// [`ShardMove::gained`] copy is installed).
    ///
    /// # Panics
    /// Panics if `peer` is already a member or `replicas == 0`.
    pub fn join(&mut self, peer: u32, replicas: u32) -> Vec<ShardMove> {
        assert!(!self.contains_peer(peer), "peer {peer} already joined");
        let old = self.snapshot_placement(replicas);
        let at = self.peers.binary_search(&peer).unwrap_err();
        self.peers.insert(at, peer);
        let fair = (self.shards as usize).div_ceil(self.peers.len());
        while self.primaries_of(peer) < fair {
            let donor = self.most_loaded_peer_except(peer);
            let shard = self
                .home
                .iter()
                .position(|&h| h == donor)
                .expect("donor holds a primary");
            self.home[shard] = peer;
        }
        self.diff_placement(&old, replicas)
    }

    /// Removes `peer` from the map, re-homing its shards onto the
    /// least-loaded survivors, and returns every shard whose
    /// `replicas`-fold placement changed. Like [`ShardMap::join`], the
    /// map mutates immediately and the returned [`ShardMove`]s name
    /// the copies that must ship before cutover ([`ShardMove::sources`]
    /// still lists the leaving peer — a graceful leaver is a valid
    /// migration source until it is shut down).
    ///
    /// # Panics
    /// Panics if `peer` is not a member, it is the last peer, or
    /// `replicas == 0`.
    pub fn leave(&mut self, peer: u32, replicas: u32) -> Vec<ShardMove> {
        assert!(self.peers.len() > 1, "cannot remove the last peer");
        let old = self.snapshot_placement(replicas);
        let at = self
            .peers
            .binary_search(&peer)
            .unwrap_or_else(|_| panic!("peer {peer} not in the map"));
        self.peers.remove(at);
        for shard in 0..self.shards as usize {
            if self.home[shard] == peer {
                let target = self.least_loaded_peer();
                self.home[shard] = target;
            }
        }
        self.diff_placement(&old, replicas)
    }

    fn primaries_of(&self, peer: u32) -> usize {
        self.home.iter().filter(|&&h| h == peer).count()
    }

    fn most_loaded_peer_except(&self, except: u32) -> u32 {
        *self
            .peers
            .iter()
            .filter(|&&p| p != except)
            .max_by_key(|&&p| (self.primaries_of(p), std::cmp::Reverse(p)))
            .expect("at least one other peer")
    }

    fn least_loaded_peer(&self) -> u32 {
        *self
            .peers
            .iter()
            .min_by_key(|&&p| (self.primaries_of(p), p))
            .expect("at least one peer")
    }

    fn snapshot_placement(&self, replicas: u32) -> Vec<Vec<PeerId>> {
        (0..self.shards)
            .map(|shard| self.replica_peers(shard, replicas))
            .collect()
    }

    fn diff_placement(&self, old: &[Vec<PeerId>], replicas: u32) -> Vec<ShardMove> {
        (0..self.shards)
            .filter_map(|shard| {
                let before = &old[shard as usize];
                let after = self.replica_peers(shard, replicas);
                let gained: Vec<PeerId> = after
                    .iter()
                    .filter(|p| !before.contains(p))
                    .copied()
                    .collect();
                let dropped: Vec<PeerId> = before
                    .iter()
                    .filter(|p| !after.contains(p))
                    .copied()
                    .collect();
                (!gained.is_empty() || !dropped.is_empty()).then(|| ShardMove {
                    shard,
                    sources: before.clone(),
                    gained,
                    dropped,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_document_lands_on_exactly_one_peer() {
        let map = ShardMap::new(5);
        let docs: Vec<DocId> = (0..500).map(DocId).collect();
        let shards = map.partition(&docs, |&d| d);
        assert_eq!(shards.len(), 5);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 500);
        for (peer, shard) in shards.iter().enumerate() {
            for &doc in shard {
                assert_eq!(map.shard_of(doc), PeerId(peer as u32));
            }
        }
    }

    #[test]
    fn single_peer_owns_everything() {
        let map = ShardMap::new(1);
        for d in 0..100 {
            assert_eq!(map.shard_of(DocId(d)), PeerId(0));
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let map = ShardMap::new(8);
        let docs: Vec<DocId> = (0..8_000).map(DocId).collect();
        let shards = map.partition(&docs, |&d| d);
        let expected = 1_000usize;
        for (peer, shard) in shards.iter().enumerate() {
            assert!(
                shard.len() > expected / 3 && shard.len() < expected * 3,
                "peer {peer} owns {} of 8000 docs",
                shard.len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn zero_peers_panics() {
        let _ = ShardMap::new(0);
    }

    #[test]
    fn replica_sets_are_successor_runs() {
        let map = ShardMap::new(5);
        assert_eq!(
            map.replica_peers(3, 3),
            vec![PeerId(3), PeerId(4), PeerId(0)]
        );
        assert_eq!(map.replica_peers(0, 1), vec![PeerId(0)]);
        // Over-replication clamps to one copy per peer.
        assert_eq!(map.replica_peers(2, 9).len(), 5);
    }

    #[test]
    fn hosted_shards_inverts_replica_peers() {
        for peers in 1..7u32 {
            let map = ShardMap::new(peers);
            for replicas in 1..=peers + 2 {
                for shard in 0..peers {
                    for peer in map.replica_peers(shard, replicas) {
                        assert!(
                            map.hosted_shards(peer.0, replicas).contains(&shard),
                            "peer {peer:?} hosts a replica of shard {shard} \
                             but hosted_shards omits it (P={peers}, R={replicas})"
                        );
                    }
                }
                // Total copies = shards × effective replication.
                let copies: usize = (0..peers)
                    .map(|p| map.hosted_shards(p, replicas).len())
                    .sum();
                assert_eq!(copies as u32, peers * replicas.min(peers));
            }
        }
    }

    #[test]
    fn join_rebalances_and_reports_exact_moves() {
        for replicas in 1..3u32 {
            let mut map = ShardMap::new(4);
            let before: Vec<Vec<PeerId>> = (0..4).map(|s| map.replica_peers(s, replicas)).collect();
            let moves = map.join(9, replicas);
            assert_eq!(map.peer_count(), 5);
            assert_eq!(map.shard_count(), 4, "shards never re-partition");
            assert!(map.contains_peer(9));
            // The joiner took over some hosting.
            assert!(
                moves.iter().any(|m| m.gained.contains(&PeerId(9))),
                "R={replicas}: joiner gained nothing: {moves:?}"
            );
            for m in &moves {
                // Every move's source list is the old replica set.
                assert_eq!(m.sources, before[m.shard as usize]);
                // Gains and drops are disjoint and real.
                for g in &m.gained {
                    assert!(!m.sources.contains(g));
                    assert!(map.replica_peers(m.shard, replicas).contains(g));
                }
                for d in &m.dropped {
                    assert!(m.sources.contains(d));
                    assert!(!map.replica_peers(m.shard, replicas).contains(d));
                }
            }
            // Shards not in the move list kept their placement.
            let moved: Vec<u32> = moves.iter().map(|m| m.shard).collect();
            for shard in 0..4 {
                if !moved.contains(&shard) {
                    assert_eq!(map.replica_peers(shard, replicas), before[shard as usize]);
                }
            }
        }
    }

    #[test]
    fn leave_rehomes_every_shard_and_keeps_coverage() {
        for replicas in 1..3u32 {
            let mut map = ShardMap::new(4);
            let moves = map.leave(1, replicas);
            assert_eq!(map.peer_count(), 3);
            assert!(!map.contains_peer(1));
            // No shard is ever homed on (or replicated to) the leaver.
            for shard in 0..4 {
                let set = map.replica_peers(shard, replicas);
                assert!(!set.contains(&PeerId(1)), "R={replicas} shard {shard}");
                assert_eq!(set.len() as u32, replicas.min(3));
            }
            // The leaver appears as a dropped host somewhere, and every
            // move still names it as a valid (pre-shutdown) source.
            assert!(moves
                .iter()
                .any(|m| m.dropped.contains(&PeerId(1)) || m.sources.contains(&PeerId(1))));
        }
    }

    #[test]
    fn join_then_leave_round_trips_placement() {
        let mut map = ShardMap::new(4);
        let reference = ShardMap::new(4);
        map.join(7, 2);
        map.leave(7, 2);
        // The rebalance heuristic may leave a different (but valid)
        // home permutation; coverage and inversion must still hold.
        for shard in 0..4 {
            assert_eq!(map.replica_peers(shard, 2).len(), 2);
        }
        let copies: usize = map
            .peer_ids()
            .to_vec()
            .iter()
            .map(|&p| map.hosted_shards(p, 2).len())
            .sum();
        let expected: usize = reference
            .peer_ids()
            .iter()
            .map(|&p| reference.hosted_shards(p, 2).len())
            .sum();
        assert_eq!(copies, expected);
    }

    #[test]
    #[should_panic(expected = "already joined")]
    fn double_join_panics() {
        let mut map = ShardMap::new(3);
        map.join(1, 1);
    }

    #[test]
    #[should_panic(expected = "cannot remove the last peer")]
    fn removing_the_last_peer_panics() {
        let mut map = ShardMap::new(1);
        map.leave(0, 1);
    }
}
