//! Deterministic fault injection: the chaos harness the failover
//! tests are built on.
//!
//! [`FaultInjectTransport`] wraps any [`Transport`] and misbehaves on
//! purpose — dropped requests, dropped responses, injected delays,
//! duplicated sends, torn (truncated) writes, and killed or muted
//! peers. Every *random* fault is a pure function of
//! `(seed, link, per-link sequence number)`, so a chaos schedule is
//! reproducible from its seed alone: re-running the same client
//! behavior against the same plan replays exactly the same faults
//! (see `tests/seeded_chaos.rs`, which pins one such schedule).
//!
//! The harness sits on the *client* side of the transport, which is
//! where a real network fails: peers never know their answer was
//! dropped, so their work — and their response bytes, metered at the
//! peer — still happens, exactly like a response lost on a real link.
//! The two explicit controls model peer death:
//!
//! * [`FaultInjectTransport::kill`] — the peer is gone: requests fail
//!   immediately, nothing is delivered.
//! * [`FaultInjectTransport::mute`] — the peer dies *between* fan-out
//!   and gather: the request is delivered and executed, the response
//!   never arrives. This is the adversarial window for a replicated
//!   query, and the one `tests/replicated_failover.rs` exercises.
//!
//! Random faults fire only after [`FaultInjectTransport::arm`], so a
//! test can ingest cleanly and then turn chaos on for the query phase.
//! Kills and mutes always apply.
//!
//! # Minimizing a failing seed
//!
//! A failing chaos run prints its seed. To minimize: re-run with the
//! same seed and bisect the *plan* — zero out one fault family's rate
//! at a time (`drop_request`, `drop_response`, `duplicate`, `torn`,
//! `delay`) and keep the seed fixed. Because decisions are
//! per-(link, seq) and families draw from one roll, removing a family
//! leaves every other family's decisions unchanged, so the failure
//! either persists (family irrelevant, keep it removed) or vanishes
//! (family implicated). Then shrink the query count: the per-link
//! sequence numbers make prefixes of the workload replay identically.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use zerber_net::{AuthToken, NodeId, TrafficMeter};

use crate::runtime::transport::{
    link_key, mix, node_key, PendingReply, RequestPayload, Transport, TransportError,
};

/// The fault mix: per-mille rates per request, drawn deterministically
/// from the seed. Rates are applied in the order of the fields below
/// from a single roll in `0..1000`, so the families are mutually
/// exclusive per request and their rates sum to at most 1000.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed of the whole schedule. Same seed, same plan, same client
    /// behavior ⇒ same faults.
    pub seed: u64,
    /// ‰ of requests whose *request* frame is lost: bytes leave the
    /// client (and are metered) but the peer never sees them.
    pub drop_request: u32,
    /// ‰ of requests whose *response* frame is lost: the peer executes
    /// and answers (response bytes metered at the peer), the client
    /// hears silence.
    pub drop_response: u32,
    /// ‰ of requests sent twice (a retransmit racing its original).
    /// Both copies cross the wire and both are metered; the extra
    /// response is an orphan the client never reads.
    pub duplicate: u32,
    /// ‰ of requests whose frame is torn mid-write: the peer receives
    /// a truncated payload, fails to decode it, and answers with a
    /// `MALFORMED` fault — which the hedged gather treats as a failed
    /// attempt and retries on the next replica.
    pub torn: u32,
    /// ‰ of responses held back by [`FaultPlan::delay_for`] before
    /// delivery.
    pub delay: u32,
    /// The injected network delay for delayed responses.
    pub delay_for: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop_request: 0,
            drop_response: 0,
            duplicate: 0,
            torn: 0,
            delay: 0,
            delay_for: Duration::from_millis(10),
        }
    }
}

impl FaultPlan {
    /// A plan with every random fault disabled (kills and mutes still
    /// work) — the base tests start from.
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// How many of each fault actually fired (for asserting a schedule did
/// exercise what it claims to).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Request frames lost.
    pub dropped_requests: usize,
    /// Response frames lost.
    pub dropped_responses: usize,
    /// Requests sent twice.
    pub duplicated: usize,
    /// Requests truncated mid-write.
    pub torn: usize,
    /// Responses delayed.
    pub delayed: usize,
}

/// One scheduled membership transition in a chaos run (see
/// [`FaultInjectTransport::at_request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Kill the peer: requests fail immediately, nothing delivered.
    Kill(NodeId),
    /// Mute the peer: requests execute, responses vanish.
    Mute(NodeId),
    /// Undo a kill/mute — the peer answers again (its *state* is
    /// whatever it was; rejoining the serving set correctly is the
    /// repair subsystem's job, which is exactly what the chaos tests
    /// exercise).
    Revive(NodeId),
}

/// The scheduled kill→revive script and the global request clock that
/// drives it.
struct ChaosSchedule {
    /// Requests observed so far, across every link — the deterministic
    /// clock scheduled actions key on.
    clock: u64,
    /// `(fire_at, action)`, kept sorted by `fire_at` (stable for equal
    /// ticks): applied as the clock passes each mark.
    pending: Vec<(u64, ChaosAction)>,
}

/// A seeded chaos wrapper around any [`Transport`].
///
/// See the [module docs](self) for the fault model. The wrapper is the
/// client's transport; the inner transport (and through it the peers)
/// is untouched, so arming chaos cannot corrupt peer state — only the
/// *observation* of it.
pub struct FaultInjectTransport {
    inner: Arc<dyn Transport>,
    plan: FaultPlan,
    armed: AtomicBool,
    /// Per-link request sequence numbers: the deterministic clock the
    /// schedule is keyed on.
    seq: Mutex<HashMap<(u64, u64), u64>>,
    killed: Mutex<HashSet<NodeId>>,
    muted: Mutex<HashSet<NodeId>>,
    counts: Mutex<FaultCounts>,
    schedule: Mutex<ChaosSchedule>,
}

impl FaultInjectTransport {
    /// Wraps `inner` with `plan`. Starts disarmed: pass-through until
    /// [`FaultInjectTransport::arm`].
    pub fn new(inner: Arc<dyn Transport>, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            armed: AtomicBool::new(false),
            seq: Mutex::new(HashMap::new()),
            killed: Mutex::new(HashSet::new()),
            muted: Mutex::new(HashSet::new()),
            counts: Mutex::new(FaultCounts::default()),
            schedule: Mutex::new(ChaosSchedule {
                clock: 0,
                pending: Vec::new(),
            }),
        }
    }

    /// Turns the random fault plan on.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Kills `node`: every request to it fails immediately with
    /// [`TransportError::PeerGone`]; nothing is delivered.
    pub fn kill(&self, node: NodeId) {
        self.killed.lock().insert(node);
    }

    /// Mutes `node`: requests are delivered and executed, responses
    /// never arrive — the peer "dies" between receiving the fan-out
    /// and the client's gather.
    pub fn mute(&self, node: NodeId) {
        self.muted.lock().insert(node);
    }

    /// Undoes [`FaultInjectTransport::kill`] /
    /// [`FaultInjectTransport::mute`] for `node`.
    pub fn revive(&self, node: NodeId) {
        self.killed.lock().remove(&node);
        self.muted.lock().remove(&node);
    }

    /// How many of each fault fired so far.
    pub fn counts(&self) -> FaultCounts {
        *self.counts.lock()
    }

    /// Schedules `action` to fire once the global request clock (every
    /// request on every link ticks it) passes `at`. Actions sharing a
    /// tick apply in the order they were scheduled. Because the clock
    /// counts *client behavior*, not wall time, a kill→revive→rejoin
    /// script replays identically on every run of the same workload —
    /// the membership-churn analogue of the seeded fault plan.
    pub fn at_request(&self, at: u64, action: ChaosAction) {
        let mut schedule = self.schedule.lock();
        let pos = schedule.pending.partition_point(|&(t, _)| t <= at);
        schedule.pending.insert(pos, (at, action));
    }

    /// The global request clock: requests observed so far on all links.
    pub fn requests_seen(&self) -> u64 {
        self.schedule.lock().clock
    }

    /// Advances the request clock one tick and applies every scheduled
    /// action whose mark has passed.
    fn tick(&self) {
        let due: Vec<ChaosAction> = {
            let mut schedule = self.schedule.lock();
            schedule.clock += 1;
            let clock = schedule.clock;
            let upto = schedule.pending.partition_point(|&(t, _)| t <= clock);
            schedule.pending.drain(..upto).map(|(_, a)| a).collect()
        };
        for action in due {
            match action {
                ChaosAction::Kill(node) => self.kill(node),
                ChaosAction::Mute(node) => self.mute(node),
                ChaosAction::Revive(node) => self.revive(node),
            }
        }
    }

    /// The deterministic roll for one request on one link.
    fn roll(&self, from: NodeId, to: NodeId, seq: u64) -> u64 {
        mix(self.plan.seed ^ link_key(from, to).wrapping_add(mix(seq))) % 1000
    }
}

impl Transport for FaultInjectTransport {
    fn meter(&self) -> &Arc<TrafficMeter> {
        self.inner.meter()
    }

    fn begin(
        &self,
        from: NodeId,
        to: NodeId,
        auth: AuthToken,
        payload: RequestPayload,
    ) -> PendingReply {
        // The membership script runs on the global request clock,
        // armed or not — churn is part of the scenario, not the noise.
        self.tick();
        // Explicit peer states apply armed or not: a dead peer is dead.
        if self.killed.lock().contains(&to) {
            return PendingReply::failed(to, TransportError::PeerGone(to));
        }
        if self.muted.lock().contains(&to) {
            // Delivered and executed; the response (metered at the
            // peer) vanishes on the way back.
            drop(self.inner.begin(from, to, auth, payload));
            return PendingReply::failed(to, TransportError::Timeout(to));
        }
        if !self.armed.load(Ordering::SeqCst) {
            return self.inner.begin(from, to, auth, payload);
        }

        let seq = {
            let mut seqs = self.seq.lock();
            let counter = seqs.entry((node_key(from), node_key(to))).or_insert(0);
            let seq = *counter;
            *counter += 1;
            seq
        };
        let roll = self.roll(from, to, seq);
        let plan = &self.plan;

        let mut bound = u64::from(plan.drop_request);
        if roll < bound {
            // The bytes left the client — they count — but the peer
            // never sees them.
            self.counts.lock().dropped_requests += 1;
            self.inner.meter().record(from, to, payload.len());
            return PendingReply::failed(to, TransportError::Timeout(to));
        }
        bound += u64::from(plan.drop_response);
        if roll < bound {
            self.counts.lock().dropped_responses += 1;
            drop(self.inner.begin(from, to, auth, payload));
            return PendingReply::failed(to, TransportError::Timeout(to));
        }
        bound += u64::from(plan.duplicate);
        if roll < bound {
            // The retransmit races the original; the orphan's request
            // and response bytes are both metered, the client reads
            // only the original.
            self.counts.lock().duplicated += 1;
            drop(self.inner.begin(from, to, auth, Arc::clone(&payload)));
            return self.inner.begin(from, to, auth, payload);
        }
        bound += u64::from(plan.torn);
        if roll < bound {
            self.counts.lock().torn += 1;
            let torn = RequestPayload::new(payload[..payload.len() / 2].to_vec());
            return self.inner.begin(from, to, auth, torn);
        }
        bound += u64::from(plan.delay);
        if roll < bound {
            self.counts.lock().delayed += 1;
            return self
                .inner
                .begin(from, to, auth, payload)
                .delayed(plan.delay_for);
        }
        self.inner.begin(from, to, auth, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::transport::{request_payload, InProcTransport, PeerInbox};
    use std::sync::mpsc;
    use std::thread;
    use zerber_net::Message;

    fn echo_peer(transport: &InProcTransport, node: NodeId) -> thread::JoinHandle<()> {
        let (tx, rx) = mpsc::channel();
        transport.register(node, tx);
        thread::spawn(move || {
            while let Ok(PeerInbox::Request(envelope)) = rx.recv() {
                envelope.reply.send(envelope.payload.to_vec());
            }
        })
    }

    fn harness(plan: FaultPlan) -> (Arc<FaultInjectTransport>, thread::JoinHandle<()>, NodeId) {
        let inner = Arc::new(InProcTransport::new(Arc::new(TrafficMeter::new())));
        let peer = NodeId::IndexServer(0);
        let handle = echo_peer(&inner, peer);
        let chaos = Arc::new(FaultInjectTransport::new(inner, plan));
        (chaos, handle, peer)
    }

    #[test]
    fn disarmed_harness_is_a_pass_through() {
        let (chaos, handle, peer) = harness(FaultPlan {
            drop_request: 1000,
            ..FaultPlan::quiet(7)
        });
        let message = Message::InsertOk;
        for _ in 0..20 {
            assert_eq!(
                chaos
                    .request(NodeId::User(0), peer, AuthToken(0), &message)
                    .unwrap(),
                message
            );
        }
        assert_eq!(chaos.counts(), FaultCounts::default());
        chaos.meter(); // the meter is the inner one
        drop(chaos);
        handle.join().ok();
    }

    #[test]
    fn identical_seeds_replay_identical_schedules() {
        let plan = FaultPlan {
            drop_request: 150,
            drop_response: 150,
            duplicate: 150,
            torn: 0, // echo peers don't decode, so torn frames echo fine
            delay: 150,
            delay_for: Duration::from_millis(1),
            ..FaultPlan::quiet(42)
        };
        let mut schedules = Vec::new();
        for _ in 0..2 {
            let (chaos, handle, peer) = harness(plan);
            chaos.arm();
            let mut outcomes = Vec::new();
            for i in 0..200u64 {
                let message = Message::DeleteOk { removed: i };
                let outcome = chaos
                    .request(NodeId::User(0), peer, AuthToken(0), &message)
                    .is_ok();
                outcomes.push(outcome);
            }
            schedules.push((outcomes, chaos.counts()));
            drop(chaos);
            handle.join().ok();
        }
        assert_eq!(schedules[0], schedules[1]);
        let counts = schedules[0].1;
        assert!(counts.dropped_requests > 0);
        assert!(counts.dropped_responses > 0);
        assert!(counts.duplicated > 0);
        assert!(counts.delayed > 0);
    }

    #[test]
    fn killed_peer_fails_fast_and_muted_peer_goes_silent() {
        let (chaos, handle, peer) = harness(FaultPlan::quiet(1));
        let message = Message::InsertOk;
        chaos.kill(peer);
        assert_eq!(
            chaos.request(NodeId::User(0), peer, AuthToken(0), &message),
            Err(TransportError::PeerGone(peer))
        );
        chaos.revive(peer);
        chaos.mute(peer);
        let mut pending = chaos.begin(
            NodeId::User(0),
            peer,
            AuthToken(0),
            request_payload(&message),
        );
        assert_eq!(
            pending.wait(Duration::from_millis(5)),
            Err(TransportError::Timeout(peer))
        );
        // The muted peer *did* execute and answer: its response bytes
        // land on the meter even though the client never saw them.
        // (The peer answers asynchronously — poll briefly.)
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while chaos.meter().link_bytes(peer, NodeId::User(0)) == 0
            && std::time::Instant::now() < deadline
        {
            thread::sleep(Duration::from_micros(200));
        }
        assert_eq!(
            chaos.meter().link_bytes(peer, NodeId::User(0)),
            message.encode().len() as u64
        );
        chaos.revive(peer);
        assert_eq!(
            chaos
                .request(NodeId::User(0), peer, AuthToken(0), &message)
                .unwrap(),
            message
        );
        drop(chaos);
        handle.join().ok();
    }

    #[test]
    fn scheduled_churn_replays_on_the_request_clock() {
        let (chaos, handle, peer) = harness(FaultPlan::quiet(11));
        let user = NodeId::User(0);
        let message = Message::InsertOk;
        // Dead as of the 2nd request, back as of the 4th — keyed to
        // the request clock, so the script is workload-deterministic.
        chaos.at_request(2, ChaosAction::Kill(peer));
        chaos.at_request(4, ChaosAction::Revive(peer));
        let outcomes: Vec<bool> = (0..6)
            .map(|_| chaos.request(user, peer, AuthToken(0), &message).is_ok())
            .collect();
        assert_eq!(outcomes, vec![true, false, false, true, true, true]);
        assert_eq!(chaos.requests_seen(), 6);
        drop(chaos);
        handle.join().ok();
    }

    #[test]
    fn duplicates_are_metered_twice_but_read_once() {
        // Satellite: hedge/retry accounting. A duplicated request puts
        // two requests and two responses on the wire; the caller reads
        // exactly one. The meter sees all four message crossings.
        let (chaos, handle, peer) = harness(FaultPlan {
            duplicate: 1000,
            ..FaultPlan::quiet(3)
        });
        chaos.arm();
        let user = NodeId::User(9);
        let message = Message::InsertOk;
        assert_eq!(
            chaos.request(user, peer, AuthToken(0), &message).unwrap(),
            message
        );
        assert_eq!(chaos.counts().duplicated, 1);
        let wire = message.encode().len() as u64;
        assert_eq!(chaos.meter().link_bytes(user, peer), 2 * wire);
        // Both responses may still be in flight for an instant; the
        // peer thread meters before sending, so join it first.
        drop(chaos);
        handle.join().ok();
    }

    #[test]
    fn dropped_requests_still_count_as_sent_bytes() {
        let (chaos, handle, peer) = harness(FaultPlan {
            drop_request: 1000,
            ..FaultPlan::quiet(5)
        });
        chaos.arm();
        let user = NodeId::User(2);
        let message = Message::InsertOk;
        assert_eq!(
            chaos.request(user, peer, AuthToken(0), &message),
            Err(TransportError::Timeout(peer))
        );
        assert_eq!(
            chaos.meter().link_bytes(user, peer),
            message.encode().len() as u64
        );
        assert_eq!(chaos.meter().link_bytes(peer, user), 0, "never delivered");
        drop(chaos);
        handle.join().ok();
    }
}
