//! Heartbeat-driven peer health: who is `Up`, who looks `Suspect`,
//! who is declared `Down` and needs repair.
//!
//! The table is deliberately dumb — it is a *local* failure detector,
//! not a consensus protocol. One controller (the deployment facade or
//! the bench harness) probes peers with [`Message::Ping`] and feeds
//! the outcomes in; the table debounces them into a three-state
//! health machine:
//!
//! ```text
//!            failure                 failure × DOWN_AFTER
//!   Up ────────────────▶ Suspect ────────────────────────▶ Down
//!    ▲                      │                                │
//!    └──────── success ─────┴──────────── success ───────────┘
//! ```
//!
//! `Suspect` exists so one dropped probe (a slow peer, an injected
//! timeout) does not trigger a multi-megabyte shard re-ship; only a
//! *streak* of failures does. Any success snaps the peer straight back
//! to `Up` — a peer that answers is healthy, whatever its history.
//!
//! [`Message::Ping`]: zerber_net::Message::Ping

use std::collections::HashMap;

use zerber_net::NodeId;

/// Consecutive probe failures after which a `Suspect` peer is
/// declared `Down` (the first failure already makes it `Suspect`).
pub(crate) const DEFAULT_DOWN_AFTER: u32 = 3;

/// One peer's health as this controller sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerStatus {
    /// Answering probes.
    Up,
    /// Missed at least one probe; queries still try it (hedging
    /// covers the risk) but no repair is triggered yet.
    Suspect,
    /// Missed three consecutive probes (`DEFAULT_DOWN_AFTER`):
    /// eligible for replacement and shard rebuild.
    Down,
}

#[derive(Debug, Clone, Copy)]
struct PeerHealth {
    status: PeerStatus,
    /// Consecutive failures since the last success.
    failures: u32,
}

/// The controller's view of every peer's health.
#[derive(Debug, Clone)]
pub(crate) struct MembershipTable {
    peers: HashMap<NodeId, PeerHealth>,
    down_after: u32,
}

impl MembershipTable {
    /// A table tracking `peers`, all initially `Up`, with the default
    /// failure-streak threshold.
    pub(crate) fn new(peers: impl IntoIterator<Item = NodeId>) -> Self {
        Self::with_down_after(peers, DEFAULT_DOWN_AFTER)
    }

    /// A table declaring peers `Down` after `down_after` consecutive
    /// failures (clamped to ≥ 1: a zero threshold would declare
    /// healthy peers dead).
    pub(crate) fn with_down_after(
        peers: impl IntoIterator<Item = NodeId>,
        down_after: u32,
    ) -> Self {
        Self {
            peers: peers
                .into_iter()
                .map(|node| {
                    (
                        node,
                        PeerHealth {
                            status: PeerStatus::Up,
                            failures: 0,
                        },
                    )
                })
                .collect(),
            down_after: down_after.max(1),
        }
    }

    /// Starts (or resets) tracking `node` as `Up` — the join /
    /// post-repair path.
    pub(crate) fn admit(&mut self, node: NodeId) {
        self.peers.insert(
            node,
            PeerHealth {
                status: PeerStatus::Up,
                failures: 0,
            },
        );
    }

    /// Stops tracking `node` — the planned-leave path.
    pub(crate) fn evict(&mut self, node: NodeId) {
        self.peers.remove(&node);
    }

    /// Records a successful probe (or any successful RPC — data-plane
    /// traffic is evidence of life too). Returns the new status,
    /// always [`PeerStatus::Up`] for a tracked peer.
    pub(crate) fn note_success(&mut self, node: NodeId) -> Option<PeerStatus> {
        let health = self.peers.get_mut(&node)?;
        health.failures = 0;
        health.status = PeerStatus::Up;
        Some(health.status)
    }

    /// Records a failed probe and returns the new status. The first
    /// failure demotes `Up` → `Suspect`; a streak of
    /// `down_after` declares `Down`.
    pub(crate) fn note_failure(&mut self, node: NodeId) -> Option<PeerStatus> {
        let down_after = self.down_after;
        let health = self.peers.get_mut(&node)?;
        health.failures = health.failures.saturating_add(1);
        health.status = if health.failures >= down_after {
            PeerStatus::Down
        } else {
            PeerStatus::Suspect
        };
        Some(health.status)
    }

    /// The tracked status of `node`.
    pub(crate) fn status(&self, node: NodeId) -> Option<PeerStatus> {
        self.peers.get(&node).map(|h| h.status)
    }

    /// Peers currently believed `Up` (feeds the
    /// `zerber_membership_up` gauge).
    pub(crate) fn up_count(&self) -> usize {
        self.peers
            .values()
            .filter(|h| h.status == PeerStatus::Up)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_streaks_walk_up_suspect_down() {
        let node = NodeId::IndexServer(0);
        let mut table = MembershipTable::with_down_after([node], 3);
        assert_eq!(table.status(node), Some(PeerStatus::Up));
        assert_eq!(table.note_failure(node), Some(PeerStatus::Suspect));
        assert_eq!(table.note_failure(node), Some(PeerStatus::Suspect));
        assert_eq!(table.note_failure(node), Some(PeerStatus::Down));
        // Still down on further failures; one success fully recovers.
        assert_eq!(table.note_failure(node), Some(PeerStatus::Down));
        assert_eq!(table.note_success(node), Some(PeerStatus::Up));
        assert_eq!(table.status(node), Some(PeerStatus::Up));
        // The streak counter reset: one new failure is only Suspect.
        assert_eq!(table.note_failure(node), Some(PeerStatus::Suspect));
    }

    #[test]
    fn up_count_and_down_list_track_transitions() {
        let a = NodeId::IndexServer(0);
        let b = NodeId::IndexServer(1);
        let mut table = MembershipTable::with_down_after([a, b], 1);
        assert_eq!(table.up_count(), 2);
        table.note_failure(b);
        assert_eq!(table.up_count(), 1);
        assert_eq!(table.status(b), Some(PeerStatus::Down));
        table.admit(b);
        assert_eq!(table.up_count(), 2);
        assert_eq!(table.status(b), Some(PeerStatus::Up));
        table.evict(a);
        assert_eq!(table.up_count(), 1);
        assert_eq!(table.status(a), None);
    }

    #[test]
    fn untracked_peers_are_ignored_not_invented() {
        let mut table = MembershipTable::new([NodeId::IndexServer(0)]);
        assert_eq!(table.note_failure(NodeId::IndexServer(9)), None);
        assert_eq!(table.note_success(NodeId::IndexServer(9)), None);
        assert_eq!(table.status(NodeId::IndexServer(9)), None);
    }
}
