//! The membership / repair driver: everything a [`ShardedSearch`] does
//! about *which peers hold which shards* — heartbeats, killing,
//! reviving and repairing a peer, joining and leaving the ring.
//!
//! This module owns one decision: *when a peer may serve again*. A
//! peer that is being (re)filled is tainted out of the read path and
//! spawned mid-rebuild, every shard it hosts is shipped from a live,
//! untainted source ([`rebuild_shard`]), and only once all of them
//! have cut over is it untainted and readmitted. The wire protocol of
//! one shipment is [`crate::runtime::repair`]'s.

use zerber_net::{AuthToken, NodeId};

use super::membership::{MembershipTable, PeerStatus};
use super::placement::{ShardMap, ShardMove};
use super::repair::{self, rebuild_shard, RepairError, RepairStats};
use super::service::ShardService;
use super::ShardedSearch;

impl ShardedSearch {
    /// The identity control-plane RPCs (heartbeats, shard rebuilds)
    /// travel as.
    const CONTROLLER: NodeId = NodeId::Owner(0);

    /// Kills one hosted peer: its thread shuts down and every later
    /// request to it fails. With replication, queries keep answering
    /// from the survivors; without, its shard becomes unavailable. On
    /// a connected deployment there is no thread to stop — the caller
    /// stops the peer's process (the table on
    /// [`ShardedSearch::connect`]).
    pub fn kill_peer(&self, peer: u32) {
        if let Some(host) = &self.host {
            host.transport().shutdown(NodeId::IndexServer(peer));
        }
    }

    /// Applies `update` to the membership table and refreshes the
    /// `zerber_membership_up` gauge from the result — the one place
    /// the gauge is written.
    pub(super) fn update_membership<T>(&self, update: impl FnOnce(&mut MembershipTable) -> T) -> T {
        let mut membership = self.membership.lock();
        let out = update(&mut membership);
        let metrics = self.obs.metrics();
        metrics.membership_up.set(membership.up_count() as i64);
        out
    }

    /// Probes every mapped peer with [`zerber_net::Message::Ping`] and
    /// feeds the outcomes into the membership table, returning each
    /// peer's debounced status. One missed probe makes a peer
    /// `Suspect`; a streak declares it `Down` (repair-eligible); any
    /// answer — including a fault — snaps it back to `Up`. Also
    /// refreshes the `zerber_membership_up` gauge.
    pub fn heartbeat(&self) -> Vec<(NodeId, PeerStatus)> {
        let peers: Vec<NodeId> = self
            .map
            .read()
            .peer_ids()
            .iter()
            .map(|&p| NodeId::IndexServer(p))
            .collect();
        self.update_membership(|membership| {
            peers
                .iter()
                .map(|&node| {
                    let alive = repair::probe(self.transport.as_ref(), Self::CONTROLLER, node);
                    if membership.status(node).is_none() {
                        membership.admit(node);
                    }
                    let status = if alive {
                        membership.note_success(node)
                    } else {
                        membership.note_failure(node)
                    };
                    (node, status.expect("probed peers are tracked"))
                })
                .collect()
        })
    }

    /// Spawns `peer`'s thread with every shard in `hosted` mid-rebuild:
    /// it buffers writes and bounces reads from its very first
    /// request, so it can never serve a state it was not shipped. On a
    /// connected deployment the caller has already started exactly
    /// that service and registered its address.
    fn spawn_rebuilding(&self, peer: u32, hosted: Vec<u32>) {
        let Some(host) = &self.host else { return };
        let backend = self.backend.clone();
        let registry = self.obs.registry().clone();
        host.spawn_peer(NodeId::IndexServer(peer), move || {
            ShardService::for_peer(&backend, peer, hosted, true, &registry)
        });
    }

    /// Ships `shard` to every peer in `targets` from the first of
    /// `candidates` that is live to ship from: not itself a target,
    /// and not tainted (a replica that missed a write must not seed
    /// another). Adds what was shipped to `total`.
    fn ship_shard(
        &self,
        shard: u32,
        candidates: impl IntoIterator<Item = u32>,
        targets: &[u32],
        total: &mut RepairStats,
    ) -> Result<(), RepairError> {
        let source = candidates
            .into_iter()
            .find(|p| !targets.contains(p) && !self.tainted.lock().contains(p))
            .ok_or_else(|| {
                RepairError::Protocol(format!("shard {shard} has no live replica to ship from"))
            })?;
        for &target in targets {
            let stats = rebuild_shard(
                self.transport.as_ref(),
                Self::CONTROLLER,
                AuthToken(0),
                NodeId::IndexServer(source),
                NodeId::IndexServer(target),
                shard,
                &self.obs,
            )?;
            total.segments += stats.segments;
            total.bytes += stats.bytes;
        }
        Ok(())
    }

    /// Respawns a killed peer (a connected deployment's caller has
    /// done that part) and rebuilds every shard it hosts from live
    /// replicas. The revived service starts mid-rebuild — it
    /// buffers writes and bounces reads from its very first request,
    /// so it can never serve the stale state it died with — and each
    /// shard starts serving again only when its snapshot commit (plus
    /// buffered-write replay) succeeds. Returns the total shipped.
    pub fn revive_peer(&self, peer: u32) -> Result<RepairStats, RepairError> {
        let hosted = {
            let map = self.map.read();
            if !map.contains_peer(peer) {
                return Err(RepairError::Protocol(format!("peer {peer} is not mapped")));
            }
            map.hosted_shards(peer, self.replicas)
        };
        self.spawn_rebuilding(peer, hosted);
        self.repair_peer(peer)
    }

    /// Re-ships every shard hosted by `peer` from a live replica and,
    /// on success, clears the peer's taint and readmits it to
    /// membership. Safe to run on a currently-serving peer (the begin
    /// frame flips each shard to write-buffering) and idempotent:
    /// snapshot replay applies documents by id, so re-shipping state
    /// the peer already holds changes nothing.
    ///
    /// While the repair runs the peer is tainted — queries skip it —
    /// and it is untainted only once *every* hosted shard has cut
    /// over, so a half-repaired peer never answers.
    pub fn repair_peer(&self, peer: u32) -> Result<RepairStats, RepairError> {
        let map = self.map.read().clone();
        if !map.contains_peer(peer) {
            return Err(RepairError::Protocol(format!("peer {peer} is not mapped")));
        }
        self.tainted.lock().insert(peer);
        let mut total = RepairStats::default();
        for shard in map.hosted_shards(peer, self.replicas) {
            let replicas = map.replica_peers(shard, self.replicas);
            self.ship_shard(shard, replicas, &[peer], &mut total)?;
        }
        self.tainted.lock().remove(&peer);
        self.update_membership(|membership| membership.admit(NodeId::IndexServer(peer)));
        Ok(total)
    }

    /// Ships every [`ShardMove`] of a computed transition: begin
    /// frames to all gaining peers, then the transition becomes the
    /// write fan-out union, then each moved shard streams from a live
    /// old-assignment source, and finally queries cut over to the new
    /// assignment atomically. On failure the transition stays
    /// installed — writes keep reaching both placements (so a retry
    /// ships a superset snapshot and loses nothing) and queries keep
    /// serving the old assignment.
    fn migrate(&self, next: ShardMap, moves: &[ShardMove]) -> Result<RepairStats, RepairError> {
        for mv in moves {
            for &target in &mv.gained {
                repair::begin_install(
                    self.transport.as_ref(),
                    Self::CONTROLLER,
                    AuthToken(0),
                    NodeId::IndexServer(target),
                    mv.shard,
                )?;
            }
        }
        *self.transition.lock() = Some(next.clone());
        let mut total = RepairStats::default();
        for mv in moves {
            self.ship_shard(mv.shard, mv.sources.iter().copied(), &mv.gained, &mut total)?;
        }
        *self.map.write() = next;
        *self.transition.lock() = None;
        Ok(total)
    }

    /// Adds `peer` to the ring and rebalances: the joiner spawns
    /// mid-rebuild (buffering every shard it will host from its first
    /// request), every moved shard ships from a live source while
    /// queries keep serving the old assignment, and the cutover flips
    /// atomically once all copies are installed. Returns the total
    /// shipped across all moves.
    pub fn join_peer(&self, peer: u32) -> Result<RepairStats, RepairError> {
        let mut next = self.map.read().clone();
        if next.contains_peer(peer) {
            return Err(RepairError::Protocol(format!("peer {peer} already mapped")));
        }
        let moves = next.join(peer, self.replicas);
        self.spawn_rebuilding(peer, next.hosted_shards(peer, self.replicas));
        let total = self.migrate(next, &moves)?;
        self.update_membership(|membership| membership.admit(NodeId::IndexServer(peer)));
        Ok(total)
    }

    /// Gracefully removes `peer` from the ring: its shards re-home
    /// onto the survivors, every moved copy ships (the leaver is a
    /// valid source until cutover), queries flip to the new
    /// assignment, and only then is the leaver shut down and evicted
    /// from membership. Returns the total shipped across all moves.
    pub fn leave_peer(&self, peer: u32) -> Result<RepairStats, RepairError> {
        let mut next = self.map.read().clone();
        if !next.contains_peer(peer) {
            return Err(RepairError::Protocol(format!("peer {peer} is not mapped")));
        }
        if next.peer_count() <= 1 {
            return Err(RepairError::Protocol(
                "cannot remove the last peer".to_string(),
            ));
        }
        let moves = next.leave(peer, self.replicas);
        let total = self.migrate(next, &moves)?;
        self.update_membership(|membership| membership.evict(NodeId::IndexServer(peer)));
        self.kill_peer(peer);
        Ok(total)
    }
}
