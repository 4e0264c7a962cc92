//! The repair controller: rebuilds a dead (or joining) replica's
//! shard copy by streaming a live replica's snapshot over the wire,
//! with capped-exponential-backoff retries on every hop — and the one
//! retry loop ([`retry`]) that those hops and the write fan-out share.
//!
//! One rebuild is four phases of [`Message`] frames, one frame per
//! step, in an order chosen so that **no acknowledged write can be
//! lost**:
//!
//! ```text
//!  controller              target (rebuilding)        source (live)
//!  ──────────              ───────────────────        ─────────────
//!  1. InstallBegin ───────▶ buffer writes from now
//!  2.                                      PrepareSnapshot ─▶ freeze
//!     ◀──────────────────────────────────── SnapshotManifest
//!  3. FetchSegment ──────────────────────────────────▶ (per file)
//!     ◀─────────────────────────────────────── SegmentData (CRC)
//!     InstallFile ────────▶ stage (CRC re-check)
//!  4. InstallCommit ──────▶ restore + replay buffer + serve
//! ```
//!
//! The target acknowledges each install frame with
//! [`Message::InsertOk`]. The begin frame lands *before* the source snapshots, so every
//! write is either in the shipped snapshot (acked by the source
//! pre-freeze) or in the target's replay buffer (acked by the target
//! post-begin) — possibly both, which is safe because replay
//! re-applies documents by id (doc-level shadowing, PR 8's delete
//! semantics). Each file frame is CRC32-checked twice: once by this
//! controller against the manifest, once by the target against the
//! frame.
//!
//! Retrying is the coordinator's alone: a transport's `begin` is one
//! attempt, and [`retry`] is the only loop that sends again. It sleeps
//! a [`Backoff`] between attempts — capped exponential delay with
//! seeded (deterministic) jitter, so chaos tests reproduce from a seed
//! while real deployments still avoid thundering-herd redials. Only
//! *transport* errors retry — a typed fault is the peer answering
//! "no", and repeating the question would not change the answer.

use std::ops::Range;
use std::time::{Duration, Instant};

use zerber_net::framing::crc32;
use zerber_net::{AuthToken, Message, NodeId};

use crate::runtime::obs::RuntimeObs;
use crate::runtime::transport::{
    link_key, mix, request_payload, RequestPayload, Transport, TransportError, DEFAULT_RPC_TIMEOUT,
};

/// How many times each repair RPC is attempted before the rebuild is
/// abandoned (transport errors only; faults never retry).
const REPAIR_RPC_ATTEMPTS: u32 = 4;

/// First retry delay.
const BACKOFF_BASE: Duration = Duration::from_millis(2);

/// Retry-delay ceiling.
const BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Capped exponential backoff with deterministic jitter.
///
/// Attempt `n` waits a uniformly jittered duration in `[d/2, d]`
/// where `d = min(BACKOFF_CAP, BACKOFF_BASE · 2ⁿ)` — exponential
/// growth bounds retry pressure, the cap bounds worst-case latency,
/// and the half-to-full jitter window desynchronizes concurrent
/// retriers without ever collapsing the delay to zero.
#[derive(Debug, Clone)]
struct Backoff {
    attempt: u32,
    state: u64,
}

impl Backoff {
    /// A backoff jittered from `seed`.
    fn for_seed(seed: u64) -> Self {
        Self {
            attempt: 0,
            state: seed,
        }
    }

    /// The next delay to sleep before retrying. Advances the attempt
    /// counter and the jitter stream.
    fn next_delay(&mut self) -> Duration {
        let exp = BACKOFF_BASE
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(BACKOFF_CAP);
        self.attempt = self.attempt.saturating_add(1);
        self.state = mix(self.state);
        let nanos = exp.as_nanos() as u64;
        // Uniform in [nanos/2, nanos].
        let jittered = nanos / 2 + self.state % (nanos / 2 + 1);
        Duration::from_nanos(jittered)
    }
}

/// Why a repair attempt failed.
#[derive(Debug)]
pub enum RepairError {
    /// A hop kept failing at the transport layer after all retries.
    Transport(TransportError),
    /// A peer answered with a typed fault (e.g. the chosen source is
    /// itself rebuilding, or the target has no restore factory).
    Refused {
        /// The refusing peer.
        node: NodeId,
        /// Its wire fault code (see [`zerber_net::message::fault`]).
        code: u8,
    },
    /// A shipped file failed its CRC or length check against the
    /// manifest.
    Corrupt(String),
    /// A peer answered with a frame the protocol does not expect.
    Protocol(String),
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::Transport(e) => write!(f, "repair transport failure: {e}"),
            RepairError::Refused { node, code } => {
                write!(f, "peer {node:?} refused repair (fault code {code})")
            }
            RepairError::Corrupt(what) => write!(f, "snapshot corruption: {what}"),
            RepairError::Protocol(what) => write!(f, "repair protocol violation: {what}"),
        }
    }
}

impl std::error::Error for RepairError {}

/// What one completed shard rebuild shipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Snapshot files streamed (manifest included).
    pub segments: u64,
    /// Payload bytes streamed.
    pub bytes: u64,
}

/// The coordinator's one retry loop: sends what `encode` builds to
/// `to` once per attempt in `attempts`, until one is answered. The
/// attempts are numbered from the request's first send, so a caller
/// that made attempt 0 itself (the write fan-out) passes `1..n`; every
/// attempt but the zeroth sleeps a [`Backoff`] first, seeded from the
/// link and `shard`. Only a transport error sends again: a decoded
/// answer — fault or not — returns at once, as the peer is alive and
/// has spoken. An empty range sends nothing and reports the peer gone.
pub(crate) fn retry(
    transport: &dyn Transport,
    from: NodeId,
    to: NodeId,
    auth: AuthToken,
    shard: u32,
    attempts: Range<u32>,
    encode: impl Fn() -> RequestPayload,
) -> Result<Message, TransportError> {
    let mut backoff = Backoff::for_seed((u64::from(shard) << 32) ^ link_key(from, to));
    let mut last = TransportError::PeerGone(to);
    for attempt in attempts {
        if attempt > 0 {
            std::thread::sleep(backoff.next_delay());
        }
        match transport
            .begin(from, to, auth, encode())
            .wait(DEFAULT_RPC_TIMEOUT)
        {
            Err(error) => last = error,
            answered => return answered,
        }
    }
    Err(last)
}

/// One repair RPC about `shard`: transport failures retry up to
/// [`REPAIR_RPC_ATTEMPTS`] attempts; a fault is the peer answering
/// "no" and becomes [`RepairError::Refused`] at once.
fn repair_rpc(
    transport: &dyn Transport,
    from: NodeId,
    auth: AuthToken,
    to: NodeId,
    shard: u32,
    message: &Message,
) -> Result<Message, RepairError> {
    let encode = || request_payload(message);
    match retry(
        transport,
        from,
        to,
        auth,
        shard,
        0..REPAIR_RPC_ATTEMPTS,
        encode,
    ) {
        Ok(Message::Fault { code, .. }) => Err(RepairError::Refused { node: to, code }),
        Ok(response) => Ok(response),
        Err(error) => Err(RepairError::Transport(error)),
    }
}

/// Expects the plain acknowledgement every install frame is answered
/// with.
fn expect_ack(what: &str, response: Message) -> Result<(), RepairError> {
    match response {
        Message::InsertOk => Ok(()),
        other => Err(RepairError::Protocol(format!("{what} answered {other:?}"))),
    }
}

/// Phase 1 of a rebuild on its own: tells `target` to start
/// write-buffering `shard`. [`rebuild_shard`] opens with it, and a
/// join/leave migration sends it to every peer *gaining* a shard
/// before writes start fanning to the new placement, so a gained peer
/// acks (buffers) writes it cannot yet serve instead of rejecting
/// them.
pub(crate) fn begin_install(
    transport: &dyn Transport,
    from: NodeId,
    auth: AuthToken,
    target: NodeId,
    shard: u32,
) -> Result<(), RepairError> {
    let begin = Message::InstallBegin { shard };
    expect_ack(
        "begin",
        repair_rpc(transport, from, auth, target, shard, &begin)?,
    )
}

/// Rebuilds `target`'s copy of `shard` from live replica `source`:
/// begin → snapshot → stream → commit, as documented on this module.
/// Returns what was shipped; records the `zerber_repair_*` metrics
/// and the rebuild-latency histogram into `obs`.
pub(crate) fn rebuild_shard(
    transport: &dyn Transport,
    from: NodeId,
    auth: AuthToken,
    source: NodeId,
    target: NodeId,
    shard: u32,
    obs: &RuntimeObs,
) -> Result<RepairStats, RepairError> {
    let started = Instant::now();
    let rpc = |to: NodeId, message: &Message| repair_rpc(transport, from, auth, to, shard, message);

    // Phase 1 — begin: the target buffers every write it acks from
    // here on, *before* the source freezes its snapshot, so the
    // buffer ∪ snapshot covers all acknowledged writes.
    begin_install(transport, from, auth, target, shard)?;

    // Phase 2 — snapshot the source.
    let manifest = match rpc(source, &Message::PrepareSnapshot { shard })? {
        Message::SnapshotManifest { shard: got, files } => {
            if got != shard {
                return Err(RepairError::Protocol(format!(
                    "manifest for shard {got}, wanted {shard}"
                )));
            }
            files
        }
        other => {
            return Err(RepairError::Protocol(format!(
                "snapshot answered {other:?}"
            )))
        }
    };

    // Phase 3 — stream every file, verifying each hop.
    let mut stats = RepairStats::default();
    for (name, len, crc) in manifest {
        let fetch = Message::FetchSegment {
            shard,
            name: name.clone(),
        };
        let payload = match rpc(source, &fetch)? {
            Message::SegmentData {
                crc: framed,
                payload,
            } => {
                if framed != crc || payload.len() as u64 != len || crc32(&payload) != crc {
                    return Err(RepairError::Corrupt(format!(
                        "file {name:?}: manifest says {len}B crc {crc:#010x}, frame carries {}B crc {framed:#010x}",
                        payload.len(),
                    )));
                }
                payload
            }
            other => return Err(RepairError::Protocol(format!("fetch answered {other:?}"))),
        };
        stats.segments += 1;
        stats.bytes += payload.len() as u64;
        let what = format!("install of {name:?}");
        let install = Message::InstallFile {
            shard,
            name,
            crc,
            payload,
        };
        expect_ack(&what, rpc(target, &install)?)?;
    }

    // Phase 4 — commit: the target restores, replays its buffer, and
    // cuts over to serving.
    let commit = Message::InstallCommit { shard };
    expect_ack("commit", rpc(target, &commit)?)?;

    let metrics = obs.metrics();
    metrics.repair_rebuilds.inc();
    metrics.repair_segments_shipped.add(stats.segments);
    metrics.repair_bytes_shipped.add(stats.bytes);
    metrics
        .repair_rebuild_ns
        .record(started.elapsed().as_nanos() as u64);
    Ok(stats)
}

/// One liveness probe: does `node` answer [`Message::Ping`]? A fault
/// response still counts as alive — the peer's loop is draining its
/// inbox, which is what the probe measures.
pub(crate) fn probe(transport: &dyn Transport, from: NodeId, node: NodeId) -> bool {
    matches!(
        transport.request(from, node, AuthToken(0), &Message::Ping),
        Ok(Message::Pong) | Ok(Message::Fault { .. })
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let (base, cap) = (BACKOFF_BASE, BACKOFF_CAP);
        let mut a = Backoff::for_seed(42);
        let mut b = Backoff::for_seed(42);
        let delays: Vec<Duration> = (0..12).map(|_| a.next_delay()).collect();
        // Deterministic: same seed, same schedule.
        assert_eq!(delays, (0..12).map(|_| b.next_delay()).collect::<Vec<_>>());
        for (i, &d) in delays.iter().enumerate() {
            let exp = base.saturating_mul(1 << i.min(16)).min(cap);
            assert!(d <= exp, "attempt {i}: {d:?} above {exp:?}");
            assert!(d >= exp / 2, "attempt {i}: {d:?} below half of {exp:?}");
        }
        // The cap binds: late delays never exceed it.
        assert!(delays[11] <= cap);
        // Different seeds give different jitter somewhere.
        let mut c = Backoff::for_seed(43);
        assert_ne!(delays, (0..12).map(|_| c.next_delay()).collect::<Vec<_>>());
    }

    /// Over TCP a transport error costs one connection per attempt: a
    /// listener that hangs up on every connection sees exactly as many
    /// as the attempt range names, for a repair hop and for a write's
    /// retries alike.
    #[test]
    fn retry_dials_once_per_attempt_over_tcp() {
        use crate::runtime::socket::SocketTransport;
        use std::net::{TcpListener, TcpStream};
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::Arc;
        use zerber_net::TrafficMeter;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let hang_up = {
            let (accepted, stop) = (Arc::clone(&accepted), Arc::clone(&stop));
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    accepted.fetch_add(1, Ordering::SeqCst);
                    drop(conn);
                }
            })
        };
        let transport = SocketTransport::new(Arc::new(TrafficMeter::new()));
        let to = NodeId::IndexServer(0);
        transport.register(to, addr);
        let ping = || request_payload(&Message::Ping);
        let from = NodeId::Owner(0);
        for (attempts, dials) in [(0..REPAIR_RPC_ATTEMPTS, 4), (1..3, 2)] {
            accepted.store(0, Ordering::SeqCst);
            let outcome = retry(&transport, from, to, AuthToken(0), 0, attempts, ping);
            assert_eq!(outcome, Err(TransportError::PeerGone(to)));
            assert_eq!(accepted.load(Ordering::SeqCst), dials);
        }
        stop.store(true, Ordering::SeqCst);
        TcpStream::connect(addr).ok();
        hang_up.join().unwrap();
    }
}
