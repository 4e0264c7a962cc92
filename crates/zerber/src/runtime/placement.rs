//! Document placement: which logical shard a document lives on, and
//! which live peers host each shard.
//!
//! The paper leaves placement over a DHT as future work (Section 3);
//! the runtime needs only its fixed-membership core. Documents hash
//! onto a circle of [`POINTS_PER_SHARD`] points per logical shard, and
//! the shards are fixed at launch, so the circle is built once and a
//! lookup is one binary search. Every shard is homed on a live peer
//! and replicated on its successors, and a join or leave moves whole
//! shard assignments ([`ShardMove`]) instead of re-partitioning
//! documents — which is what makes segment-directory shipping the
//! migration unit.

use zerber_index::DocId;

use super::transport::mix;

/// Hash points per logical shard on the placement circle.
const POINTS_PER_SHARD: u32 = 32;
/// Salts keeping shard points and document keys apart on the circle.
const POINT_SALT: u64 = 0xD47u64.wrapping_mul(0x9e37_79b9_7f4a_7c15);
const DOC_SALT: u64 = 0x2E8Bu64.wrapping_mul(0x9e37_79b9_7f4a_7c15);

/// One shard whose replica set changes under a join/leave transition:
/// the peers that must *gain* a copy (by migration from a current
/// replica), the peers that stop hosting one, and the surviving
/// replicas a copy can be shipped from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardMove {
    /// The logical shard whose placement changes.
    pub(crate) shard: u32,
    /// Replicas under the *old* assignment — valid migration sources.
    pub(crate) sources: Vec<u32>,
    /// Peers that host a copy under the new assignment but not the
    /// old: each needs the shard shipped to it before cutover.
    pub(crate) gained: Vec<u32>,
    /// Peers that hosted a copy under the old assignment but no longer
    /// do (their directories become garbage after cutover).
    pub(crate) dropped: Vec<u32>,
}

/// A deterministic document → shard assignment over a fixed set of
/// logical shards, plus the live shard → peer placement.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// `(position, shard)` for every point on the circle, ascending by
    /// position. A document belongs to the first point at or after its
    /// own position, wrapping.
    points: Vec<(u64, u32)>,
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
        let mut points: Vec<(u64, u32)> = (0..peers)
            .flat_map(|shard| {
                (0..POINTS_PER_SHARD).map(move |v| {
                    (
                        mix((u64::from(shard) << 32 | u64::from(v)) ^ POINT_SALT),
                        shard,
                    )
                })
            })
            .collect();
        points.sort_unstable();
        Self {
            points,
            shards: peers,
            peers: (0..peers).collect(),
            home: (0..peers).collect(),
        }
    }

    /// Number of live peers in the map.
    pub(crate) fn peer_count(&self) -> u32 {
        self.peers.len() as u32
    }

    /// Number of logical shards (fixed at construction).
    pub(crate) fn shard_count(&self) -> u32 {
        self.shards
    }

    /// The live peer ids, sorted ascending.
    pub(crate) fn peer_ids(&self) -> &[u32] {
        &self.peers
    }

    /// Whether `peer` is a live member of the map.
    pub fn contains_peer(&self, peer: u32) -> bool {
        self.peers.binary_search(&peer).is_ok()
    }

    /// The shard that owns a document (and all of its postings).
    pub fn shard_of(&self, doc: DocId) -> u32 {
        let at = mix(u64::from(doc.0) ^ DOC_SALT);
        let next = self.points.partition_point(|&(point, _)| point < at);
        self.points[next % self.points.len()].1
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
    pub(crate) fn replica_peers(&self, shard: u32, replicas: u32) -> Vec<u32> {
        assert!(replicas > 0, "need at least one replica");
        assert!(shard < self.shards, "shard {shard} out of range");
        let live = self.peers.len() as u32;
        #[expect(
            clippy::expect_used,
            reason = "`join` and `leave` re-home every shard onto a member"
        )]
        let pos = self
            .peers
            .binary_search(&self.home[shard as usize])
            .expect("every shard homes on a live peer");
        (0..replicas.min(live))
            .map(|j| self.peers[(pos + j as usize) % self.peers.len()])
            .collect()
    }

    /// The logical shards `peer` hosts under `replicas`-fold
    /// replication — the exact inverse of `ShardMap::replica_peers`.
    /// A peer outside the map hosts none.
    ///
    /// # Panics
    /// Panics if `replicas == 0`.
    pub fn hosted_shards(&self, peer: u32, replicas: u32) -> Vec<u32> {
        assert!(replicas > 0, "need at least one replica");
        (0..self.shards)
            .filter(|&shard| self.replica_peers(shard, replicas).contains(&peer))
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
    pub(crate) fn join(&mut self, peer: u32, replicas: u32) -> Vec<ShardMove> {
        assert!(!self.contains_peer(peer), "peer {peer} already joined");
        let old = self.snapshot_placement(replicas);
        let at = self.peers.partition_point(|&p| p < peer);
        self.peers.insert(at, peer);
        let fair = (self.shards as usize).div_ceil(self.peers.len());
        while self.primaries_of(peer) < fair {
            // Below its share, the joiner leaves another peer holding a
            // primary: the most loaded one.
            let donor = self.most_loaded_peer_except(peer);
            let Some(shard) = donor.and_then(|donor| self.home.iter().position(|&h| h == donor))
            else {
                break;
            };
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
    pub(crate) fn leave(&mut self, peer: u32, replicas: u32) -> Vec<ShardMove> {
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

    fn most_loaded_peer_except(&self, except: u32) -> Option<u32> {
        self.peers
            .iter()
            .copied()
            .filter(|&p| p != except)
            .max_by_key(|&p| (self.primaries_of(p), std::cmp::Reverse(p)))
    }

    #[expect(
        clippy::expect_used,
        reason = "`leave` asserts a second peer before it removes one"
    )]
    fn least_loaded_peer(&self) -> u32 {
        *self
            .peers
            .iter()
            .min_by_key(|&&p| (self.primaries_of(p), p))
            .expect("at least one peer")
    }

    fn snapshot_placement(&self, replicas: u32) -> Vec<Vec<u32>> {
        (0..self.shards)
            .map(|shard| self.replica_peers(shard, replicas))
            .collect()
    }

    fn diff_placement(&self, old: &[Vec<u32>], replicas: u32) -> Vec<ShardMove> {
        (0..self.shards)
            .filter_map(|shard| {
                let before = &old[shard as usize];
                let after = self.replica_peers(shard, replicas);
                let gained: Vec<u32> = after
                    .iter()
                    .filter(|p| !before.contains(p))
                    .copied()
                    .collect();
                let dropped: Vec<u32> = before
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
    fn placement_is_pinned() {
        // Every document of every deployment keeps its shard, so stores
        // written under one build serve under the next: any change to
        // the points, the salts or the lookup moves documents and fails
        // this fold of 16 deployments × 200 000 documents.
        let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
        for shards in 1..=16u32 {
            let map = ShardMap::new(shards);
            for doc in 0..200_000u32 {
                digest =
                    (digest ^ u64::from(map.shard_of(DocId(doc)))).wrapping_mul(0x100_0000_01B3);
            }
        }
        assert_eq!(digest, 0x1A69_F4F7_0547_B17E);
    }

    #[test]
    fn every_document_lands_on_exactly_one_peer() {
        let map = ShardMap::new(5);
        let mut load = [0usize; 5];
        for doc in (0..500).map(DocId) {
            let shard = map.shard_of(doc);
            assert_eq!(map.replica_peers(shard, 1), vec![shard]);
            load[shard as usize] += 1;
        }
        assert!(load.iter().all(|&docs| docs > 0), "{load:?}");
    }

    #[test]
    fn single_peer_owns_everything() {
        let map = ShardMap::new(1);
        for d in 0..100 {
            assert_eq!(map.shard_of(DocId(d)), 0);
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let map = ShardMap::new(8);
        let mut load = [0usize; 8];
        for doc in 0..8_000 {
            load[map.shard_of(DocId(doc)) as usize] += 1;
        }
        let expected = 1_000usize;
        for (peer, &docs) in load.iter().enumerate() {
            assert!(
                docs > expected / 3 && docs < expected * 3,
                "peer {peer} owns {docs} of 8000 docs"
            );
        }
    }

    #[test]
    fn circle_load_is_roughly_balanced() {
        let map = ShardMap::new(8);
        let mut load = [0usize; 8];
        for doc in 0..8_000 {
            load[map.shard_of(DocId(doc)) as usize] += 1;
        }
        let expected = 1_000usize;
        for (shard, &docs) in load.iter().enumerate() {
            assert!(
                docs > expected / 3 && docs < expected * 3,
                "shard {shard} owns {docs} of 8000 docs"
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
        assert_eq!(map.replica_peers(3, 3), vec![3, 4, 0]);
        assert_eq!(map.replica_peers(0, 1), vec![0]);
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
                            map.hosted_shards(peer, replicas).contains(&shard),
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
    fn a_peer_outside_the_map_hosts_nothing() {
        let mut map = ShardMap::new(3);
        assert!(map.hosted_shards(7, 2).is_empty());
        map.leave(1, 2);
        assert!(map.hosted_shards(1, 2).is_empty());
    }

    #[test]
    fn join_rebalances_and_reports_exact_moves() {
        for replicas in 1..3u32 {
            let mut map = ShardMap::new(4);
            let before: Vec<Vec<u32>> = (0..4).map(|s| map.replica_peers(s, replicas)).collect();
            let moves = map.join(9, replicas);
            assert_eq!(map.peer_count(), 5);
            assert_eq!(map.shard_count(), 4, "shards never re-partition");
            assert!(map.contains_peer(9));
            // The joiner took over some hosting.
            assert!(
                moves.iter().any(|m| m.gained.contains(&9)),
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
                assert!(!set.contains(&1), "R={replicas} shard {shard}");
                assert_eq!(set.len() as u32, replicas.min(3));
            }
            // The leaver appears as a dropped host somewhere, and every
            // move still names it as a valid (pre-shutdown) source.
            assert!(moves
                .iter()
                .any(|m| m.dropped.contains(&1) || m.sources.contains(&1)));
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
