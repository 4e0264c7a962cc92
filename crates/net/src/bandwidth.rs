//! Traffic accounting and link models.
//!
//! All Zerber traffic flows through a [`TrafficMeter`]; the experiments
//! read per-link byte totals from it and convert them to transfer
//! times with the paper's link speeds (55 Mb/s WLAN for users, 100
//! Mb/s LAN for servers — Section 7.3).

use std::collections::HashMap;

use parking_lot::Mutex;

/// A participant in the simulated deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// A querying user's machine.
    User(u32),
    /// A document owner's machine (also serves snippets).
    Owner(u32),
    /// One of the n index servers.
    IndexServer(u32),
}

/// A network link's nominal capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Capacity in megabits per second.
    pub megabits_per_second: f64,
}

impl LinkSpec {
    /// The paper's user link: 55 Mb/s wireless LAN.
    pub const WLAN_55: LinkSpec = LinkSpec {
        megabits_per_second: 55.0,
    };
    /// The paper's server link: 100 Mb/s LAN.
    pub const LAN_100: LinkSpec = LinkSpec {
        megabits_per_second: 100.0,
    };

    /// Time to move `bytes` over this link, in milliseconds.
    pub fn transfer_ms(&self, bytes: usize) -> f64 {
        let bits = bytes as f64 * 8.0;
        bits / (self.megabits_per_second * 1_000_000.0) * 1_000.0
    }
}

/// Byte totals for one directed link: the logical payload and what
/// actually crossed the wire (smaller when the payload shipped
/// compressed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LinkTraffic {
    raw: u64,
    wire: u64,
}

/// Thread-safe per-link byte accounting.
///
/// Every record tracks two totals: *raw* bytes (the uncompressed
/// payload size) and *wire* bytes (what actually crossed the link).
/// Plain [`TrafficMeter::record`] counts both equally;
/// [`TrafficMeter::record_compressed`] lets baselines claim their
/// posting-compression discount while Zerber's share traffic — which
/// the Section 7.3 entropy argument shows cannot compress — records
/// wire == raw. Unqualified totals report wire bytes (transfer time
/// is what the experiments derive from them).
#[derive(Debug, Default)]
pub struct TrafficMeter {
    links: Mutex<HashMap<(NodeId, NodeId), LinkTraffic>>,
}

impl TrafficMeter {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` sent `from → to` uncompressed (wire == raw).
    pub fn record(&self, from: NodeId, to: NodeId, bytes: usize) {
        self.record_compressed(from, to, bytes, bytes);
    }

    /// Records a payload of `raw_bytes` that crossed the link as
    /// `wire_bytes` after compression.
    pub fn record_compressed(&self, from: NodeId, to: NodeId, raw_bytes: usize, wire_bytes: usize) {
        let mut links = self.links.lock();
        let entry = links.entry((from, to)).or_default();
        entry.raw += raw_bytes as u64;
        entry.wire += wire_bytes as u64;
    }

    /// Total wire bytes sent over one directed link.
    pub fn link_bytes(&self, from: NodeId, to: NodeId) -> u64 {
        self.links
            .lock()
            .get(&(from, to))
            .map(|t| t.wire)
            .unwrap_or(0)
    }

    /// Total wire bytes sent by a node.
    pub fn sent_by(&self, node: NodeId) -> u64 {
        self.links
            .lock()
            .iter()
            .filter(|((from, _), _)| *from == node)
            .map(|(_, traffic)| traffic.wire)
            .sum()
    }

    /// Total wire bytes received by a node.
    pub fn received_by(&self, node: NodeId) -> u64 {
        self.links
            .lock()
            .iter()
            .filter(|((_, to), _)| *to == node)
            .map(|(_, traffic)| traffic.wire)
            .sum()
    }

    /// Grand total of wire bytes across every link.
    pub fn total(&self) -> u64 {
        self.links.lock().values().map(|t| t.wire).sum()
    }

    /// Overall compression savings: `1 - wire / raw` (0 when nothing
    /// was recorded or nothing compressed).
    pub fn compression_savings(&self) -> f64 {
        let (raw, wire) = {
            let links = self.links.lock();
            (
                links.values().map(|t| t.raw).sum::<u64>(),
                links.values().map(|t| t.wire).sum::<u64>(),
            )
        };
        if raw == 0 {
            0.0
        } else {
            1.0 - wire as f64 / raw as f64
        }
    }

    /// Total wire bytes that crossed links matching a predicate (e.g.
    /// all traffic into index servers).
    pub fn total_matching<F>(&self, mut predicate: F) -> u64
    where
        F: FnMut(NodeId, NodeId) -> bool,
    {
        self.links
            .lock()
            .iter()
            .filter(|((from, to), _)| predicate(*from, *to))
            .map(|(_, traffic)| traffic.wire)
            .sum()
    }

    /// Clears all counters.
    pub fn reset(&self) {
        self.links.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_link() {
        let meter = TrafficMeter::new();
        let user = NodeId::User(1);
        let server = NodeId::IndexServer(0);
        meter.record(user, server, 100);
        meter.record(user, server, 50);
        meter.record(server, user, 2_000);
        assert_eq!(meter.link_bytes(user, server), 150);
        assert_eq!(meter.link_bytes(server, user), 2_000);
        assert_eq!(meter.total(), 2_150);
    }

    #[test]
    fn per_node_aggregates() {
        let meter = TrafficMeter::new();
        let user = NodeId::User(1);
        meter.record(user, NodeId::IndexServer(0), 10);
        meter.record(user, NodeId::IndexServer(1), 20);
        meter.record(NodeId::IndexServer(0), user, 100);
        assert_eq!(meter.sent_by(user), 30);
        assert_eq!(meter.received_by(user), 100);
        assert_eq!(meter.received_by(NodeId::IndexServer(1)), 20);
    }

    #[test]
    fn predicate_totals() {
        let meter = TrafficMeter::new();
        meter.record(NodeId::Owner(0), NodeId::IndexServer(0), 10);
        meter.record(NodeId::Owner(0), NodeId::IndexServer(1), 10);
        meter.record(NodeId::User(0), NodeId::Owner(0), 5);
        let into_servers = meter.total_matching(|_, to| matches!(to, NodeId::IndexServer(_)));
        assert_eq!(into_servers, 20);
    }

    #[test]
    fn compressed_records_split_raw_and_wire() {
        let meter = TrafficMeter::new();
        let server = NodeId::IndexServer(0);
        let user = NodeId::User(1);
        // A baseline response: 10 KB of postings shipped as 4 KB.
        meter.record_compressed(server, user, 10_000, 4_000);
        // Share traffic: incompressible, wire == raw.
        meter.record(user, server, 2_000);
        assert_eq!(meter.link_bytes(server, user), 4_000);
        assert_eq!(meter.total(), 6_000);
        assert!((meter.compression_savings() - 0.5).abs() < 1e-12);
        assert_eq!(meter.received_by(user), 4_000);
    }

    #[test]
    fn savings_are_zero_without_traffic() {
        let meter = TrafficMeter::new();
        assert_eq!(meter.compression_savings(), 0.0);
        meter.record(NodeId::User(0), NodeId::User(1), 100);
        assert_eq!(meter.compression_savings(), 0.0);
    }

    #[test]
    fn reset_clears() {
        let meter = TrafficMeter::new();
        meter.record(NodeId::User(0), NodeId::User(1), 5);
        meter.reset();
        assert_eq!(meter.total(), 0);
    }

    #[test]
    fn transfer_times_match_link_speeds() {
        // 21.5 KB per query-term response over 55 Mb/s WLAN ≈ 3.2 ms
        // (the paper derives ~35 queries/second/user from ~2.45 terms
        // per query).
        let bytes = 21_500;
        let ms = LinkSpec::WLAN_55.transfer_ms(bytes);
        assert!((ms - 3.127).abs() < 0.1, "got {ms} ms");
        // The LAN is faster.
        assert!(LinkSpec::LAN_100.transfer_ms(bytes) < ms);
    }

    #[test]
    fn zero_bytes_is_instant() {
        assert_eq!(LinkSpec::WLAN_55.transfer_ms(0), 0.0);
    }
}
