//! Message-passing transport between runtime nodes.
//!
//! Every data-plane RPC crosses a [`Transport`]: the request is
//! serialized to its exact [`Message`] wire bytes, the per-link byte
//! count lands on the shared [`TrafficMeter`], and the peer decodes,
//! executes, and replies the same way. [`InProcTransport`] is the
//! in-process implementation — one mpsc inbox per peer thread — and
//! `runtime::socket::SocketTransport` is the real length-framed TCP
//! implementation; both speak through the same trait, so peers and
//! clients never know which one carries them.
//!
//! The trait is *asynchronous at the edges*: [`Transport::begin`]
//! sends one request and returns a [`PendingReply`] the caller waits
//! on with a timeout. That split is what failover is built from — the
//! hedged gather starts a pending reply per replica and takes the
//! first that answers, and the fault-injection harness fabricates
//! pendings that fail, stall, or deliver late, all without the peers
//! or the clients knowing.
//!
//! # Metering
//!
//! Request bytes are metered when the client sends; response bytes
//! are metered when the *peer* sends (the [`ReplySink`] records before
//! delivery). A response nobody waits for — the client hedged away,
//! the harness dropped it — still crossed the link and still counts,
//! which is exactly the honesty the hedging accounting needs:
//! duplicate sends are real wire bytes even though the gather uses
//! only one response per shard.
//!
//! The [`AuthToken`] accompanying a request models the authenticated
//! session (the enterprise authentication layer of Section 5.4.2); it
//! is carried by the envelope, not the message body, and is therefore
//! *not* counted in wire bytes — matching the paper's accounting,
//! which sizes payloads only.
//!
//! # Payloads
//!
//! What carries an encoded frame is decided here: a request travels as
//! a [`RequestPayload`], a reply as a [`ReplyPayload`], and there is no
//! third type, so no hop converts. In process neither is ever copied:
//! the buffer a request was encoded into is shared by every replica it
//! goes to, and a reply moves; the socket transport copies a payload
//! once into the frame it writes and once out of the stream buffer it
//! was read into.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use zerber_net::{AuthToken, Message, NodeId, TrafficMeter, WireError};

/// How long the blocking convenience call ([`Transport::request`])
/// and the write path wait before declaring a peer unresponsive.
/// Deliberately generous: a healthy in-process peer answers in
/// microseconds, and a *dead* one is detected immediately through the
/// closed channel — the timeout only catches a peer that is alive but
/// wedged.
pub(crate) const DEFAULT_RPC_TIMEOUT: Duration = Duration::from_secs(30);

/// A collision-free 64-bit key per node (tag in the high half).
pub(crate) fn node_key(node: NodeId) -> u64 {
    match node {
        NodeId::User(i) => (1 << 32) | u64::from(i),
        NodeId::Owner(i) => (2 << 32) | u64::from(i),
        NodeId::IndexServer(i) => (3 << 32) | u64::from(i),
    }
}

/// One step of the workspace's integer mixer
/// ([`zerber_field::splitmix64`]) by value: `x` in, mixed word out.
pub(crate) fn mix(mut x: u64) -> u64 {
    zerber_field::splitmix64(&mut x)
}

/// The well-mixed key of the directed link `from → to` — what every
/// seeded schedule (injected faults, repair jitter) keys on, so two
/// links never share one and a rerun reproduces it.
pub(crate) fn link_key(from: NodeId, to: NodeId) -> u64 {
    mix(node_key(from) ^ node_key(to).rotate_left(17))
}

/// Transport-level failures (distinct from server-side
/// [`zerber_server::ServerError`]s, which travel as
/// [`Message::Fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// No peer is registered under this address.
    UnknownPeer(NodeId),
    /// The peer's inbox or reply channel is closed (its thread exited
    /// or its connection dropped).
    PeerGone(NodeId),
    /// The peer did not answer within the caller's deadline. The
    /// request may still be executing — the caller must treat the
    /// outcome as unknown.
    Timeout(NodeId),
    /// The peer answered with a fault frame where the protocol
    /// expected data — surfaced by the hedged gather as a failed
    /// attempt so another replica can be tried.
    Rejected(u8),
    /// The response bytes did not decode.
    Wire(WireError),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownPeer(node) => write!(f, "unknown peer {node:?}"),
            TransportError::PeerGone(node) => write!(f, "peer {node:?} is gone"),
            TransportError::Timeout(node) => write!(f, "peer {node:?} timed out"),
            TransportError::Rejected(code) => write!(f, "peer rejected the request (fault {code})"),
            TransportError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// An encoded request [`Message`]: the buffer it was encoded into,
/// shared, because a write fan-out and a hedged read send the same
/// bytes to several replicas.
pub(crate) type RequestPayload = Arc<Vec<u8>>;

/// An encoded response [`Message`]: the buffer [`Message::encode`]
/// returned, moved from the peer to the caller.
pub(crate) type ReplyPayload = Vec<u8>;

/// Encodes `message` for sending — the one buffer of a request
/// payload, shared as it is.
pub(crate) fn request_payload(message: &Message) -> RequestPayload {
    Arc::new(message.encode())
}

/// The response path of one request: meters the bytes on the
/// `peer → client` link *before* delivery, so a response the client
/// abandoned (hedged away, timed out) is still accounted — it crossed
/// the wire regardless of who was listening.
pub(crate) struct ReplySink {
    meter: Arc<TrafficMeter>,
    /// The responding peer (source of the response link).
    peer: NodeId,
    /// The requesting node (destination of the response link).
    client: NodeId,
    tx: mpsc::Sender<ReplyPayload>,
}

impl ReplySink {
    /// A sink delivering to `tx`, metering `peer → client` response
    /// bytes on `meter`. Transport implementations (in-process and
    /// socket alike) build one per request.
    pub(crate) fn new(
        meter: Arc<TrafficMeter>,
        peer: NodeId,
        client: NodeId,
        tx: mpsc::Sender<ReplyPayload>,
    ) -> Self {
        Self {
            meter,
            peer,
            client,
            tx,
        }
    }

    /// Meters and delivers one encoded response. A vanished requester
    /// is not the peer's problem — the send outcome is ignored.
    pub(crate) fn send(&self, bytes: ReplyPayload) {
        self.meter.record(self.peer, self.client, bytes.len());
        let _ = self.tx.send(bytes);
    }
}

/// A request as a peer thread receives it.
pub(crate) struct RequestEnvelope {
    /// The calling node (per-link accounting and reply routing).
    pub from: NodeId,
    /// The caller's session token.
    pub auth: AuthToken,
    /// The caller's query-trace id (zero = untraced). Carried by the
    /// envelope — and by the socket transport's request frames — so
    /// peer-side work can be correlated with the client-side span
    /// tree even when the peer is a separate process. Like the auth
    /// token it is envelope metadata, not payload, and is not counted
    /// in wire bytes.
    #[expect(
        dead_code,
        reason = "no peer-side reader yet; peer spans will correlate on it"
    )]
    pub trace: u64,
    /// Encoded request [`Message`].
    pub payload: RequestPayload,
    /// Channel for the encoded response [`Message`].
    pub reply: ReplySink,
}

/// What arrives in a peer's inbox.
pub(crate) enum PeerInbox {
    /// A client request awaiting a reply.
    Request(RequestEnvelope),
    /// Orderly shutdown: drain nothing further and exit the thread.
    Shutdown,
}

enum PendingState {
    /// The response will arrive on this channel.
    Channel(mpsc::Receiver<ReplyPayload>),
    /// The request already failed (unknown peer, dead peer, injected
    /// fault); every wait reports the same error.
    Failed(TransportError),
}

/// One in-flight request: the handle [`Transport::begin`] returns.
///
/// The caller decides how long to wait — and may wait *again* after a
/// [`TransportError::Timeout`]: the response channel stays open, so a
/// hedged gather can come back to a laggard after trying another
/// replica and still collect its (late) answer.
pub struct PendingReply {
    peer: NodeId,
    state: PendingState,
    /// Nothing resolves before this instant (an injected network
    /// delay).
    not_before: Option<Instant>,
}

impl PendingReply {
    /// A pending whose response arrives on `rx` (the transport
    /// implementations' normal case).
    pub fn from_channel(peer: NodeId, rx: mpsc::Receiver<ReplyPayload>) -> Self {
        Self {
            peer,
            state: PendingState::Channel(rx),
            not_before: None,
        }
    }

    /// A pending that already failed. Used for dead peers and by the
    /// fault harness for dropped requests/responses.
    pub(crate) fn failed(peer: NodeId, error: TransportError) -> Self {
        Self {
            peer,
            state: PendingState::Failed(error),
            not_before: None,
        }
    }

    /// Withholds this pending's outcome for `delay` from now (the
    /// fault harness's injected network delay).
    pub(crate) fn delayed(mut self, delay: Duration) -> Self {
        self.not_before = Some(Instant::now() + delay);
        self
    }

    /// The peer this request went to.
    pub(crate) fn peer(&self) -> NodeId {
        self.peer
    }

    /// Blocks up to `timeout` for the response.
    ///
    /// `Err(Timeout)` leaves the pending intact — call `wait` or
    /// [`PendingReply::try_take`] again later to collect a late
    /// answer. Other errors are terminal and repeat on every call.
    pub(crate) fn wait(&mut self, timeout: Duration) -> Result<Message, TransportError> {
        let deadline = Instant::now() + timeout;
        if let Some(until) = self.not_before {
            if until >= deadline {
                // The injected delay outlasts the caller's patience:
                // behave exactly like a slow peer.
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                return Err(TransportError::Timeout(self.peer));
            }
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
        }
        match &mut self.state {
            PendingState::Failed(error) => Err(*error),
            PendingState::Channel(rx) => {
                let budget = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(budget) {
                    Ok(bytes) => Message::decode(&bytes).map_err(TransportError::Wire),
                    Err(mpsc::RecvTimeoutError::Timeout) => Err(TransportError::Timeout(self.peer)),
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        let error = TransportError::PeerGone(self.peer);
                        self.state = PendingState::Failed(error);
                        Err(error)
                    }
                }
            }
        }
    }

    /// Non-blocking poll: `Some` once the request has resolved (a
    /// response or a terminal error), `None` while still in flight.
    pub(crate) fn try_take(&mut self) -> Option<Result<Message, TransportError>> {
        if self.not_before.is_some_and(|until| Instant::now() < until) {
            return None;
        }
        match &mut self.state {
            PendingState::Failed(error) => Some(Err(*error)),
            PendingState::Channel(rx) => match rx.try_recv() {
                Ok(bytes) => Some(Message::decode(&bytes).map_err(TransportError::Wire)),
                Err(mpsc::TryRecvError::Empty) => None,
                Err(mpsc::TryRecvError::Disconnected) => {
                    let error = TransportError::PeerGone(self.peer);
                    self.state = PendingState::Failed(error);
                    Some(Err(error))
                }
            },
        }
    }
}

/// Request/response messaging between nodes, with per-link wire-byte
/// accounting.
pub trait Transport: Send + Sync {
    /// The traffic meter every byte through this transport lands on.
    fn meter(&self) -> &Arc<TrafficMeter>;

    /// Sends one pre-encoded request carrying a query-trace id and
    /// returns the in-flight handle; failures surface when the
    /// returned pending is waited on. It is one attempt on every
    /// transport: nothing here sends twice, and a failed send is a
    /// failed pending, so retrying is the caller's decision (the
    /// coordinator's one retry loop, `repair::retry`). In process it
    /// never blocks on the peer. Over `socket::SocketTransport` it
    /// can, two ways: dialling a new link waits up to
    /// `CONNECT_TIMEOUT` (5 s), and a link with `MAX_IN_FLIGHT` (64)
    /// unanswered requests holds the send until one drains. This is
    /// the one required send primitive; implementations must
    /// propagate `trace` onto the peer's `RequestEnvelope` (and, for
    /// the socket transport, onto the wire frame).
    fn begin_traced(
        &self,
        from: NodeId,
        to: NodeId,
        auth: AuthToken,
        trace: u64,
        payload: RequestPayload,
    ) -> PendingReply;

    /// Sends one pre-encoded untraced request (trace id zero) — the
    /// convenience form for control-plane and ingest traffic that no
    /// span tree follows.
    fn begin(
        &self,
        from: NodeId,
        to: NodeId,
        auth: AuthToken,
        payload: RequestPayload,
    ) -> PendingReply {
        self.begin_traced(from, to, auth, 0, payload)
    }

    /// Sends one request and blocks for the response (up to
    /// `DEFAULT_RPC_TIMEOUT`).
    fn request(
        &self,
        from: NodeId,
        to: NodeId,
        auth: AuthToken,
        message: &Message,
    ) -> Result<Message, TransportError> {
        self.begin(from, to, auth, request_payload(message))
            .wait(DEFAULT_RPC_TIMEOUT)
    }
}

/// The in-process transport: one mpsc inbox per registered peer.
#[derive(Default)]
pub struct InProcTransport {
    meter: Arc<TrafficMeter>,
    inboxes: Mutex<HashMap<NodeId, mpsc::Sender<PeerInbox>>>,
}

impl InProcTransport {
    /// A transport accounting on `meter`.
    pub(crate) fn new(meter: Arc<TrafficMeter>) -> Self {
        Self {
            meter,
            inboxes: Mutex::new(HashMap::new()),
        }
    }

    /// Registers a peer's inbox under its address. Replaces any
    /// previous registration.
    pub(crate) fn register(&self, node: NodeId, inbox: mpsc::Sender<PeerInbox>) {
        self.inboxes.lock().insert(node, inbox);
    }

    /// Sends a shutdown signal to a peer's inbox (ignored if the peer
    /// is already gone).
    pub(crate) fn shutdown(&self, node: NodeId) {
        if let Some(inbox) = self.inboxes.lock().remove(&node) {
            let _ = inbox.send(PeerInbox::Shutdown);
        }
    }
}

impl Transport for InProcTransport {
    fn meter(&self) -> &Arc<TrafficMeter> {
        &self.meter
    }

    fn begin_traced(
        &self,
        from: NodeId,
        to: NodeId,
        auth: AuthToken,
        trace: u64,
        payload: RequestPayload,
    ) -> PendingReply {
        let Some(inbox) = self.inboxes.lock().get(&to).cloned() else {
            return PendingReply::failed(to, TransportError::UnknownPeer(to));
        };
        // Request bytes leave the client here, delivered or not.
        self.meter.record(from, to, payload.len());
        let (tx, rx) = mpsc::channel();
        let envelope = RequestEnvelope {
            from,
            auth,
            trace,
            payload,
            reply: ReplySink {
                meter: Arc::clone(&self.meter),
                peer: to,
                client: from,
                tx,
            },
        };
        if inbox.send(PeerInbox::Request(envelope)).is_err() {
            return PendingReply::failed(to, TransportError::PeerGone(to));
        }
        PendingReply::from_channel(to, rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Spawns an echo peer that replies with the request bytes.
    fn echo_peer(transport: &InProcTransport, node: NodeId) -> thread::JoinHandle<()> {
        let (tx, rx) = mpsc::channel();
        transport.register(node, tx);
        thread::spawn(move || {
            while let Ok(PeerInbox::Request(envelope)) = rx.recv() {
                envelope.reply.send(envelope.payload.to_vec());
            }
        })
    }

    #[test]
    fn round_trip_meters_both_directions() {
        let meter = Arc::new(TrafficMeter::new());
        let transport = InProcTransport::new(meter.clone());
        let peer = NodeId::IndexServer(0);
        let handle = echo_peer(&transport, peer);

        let user = NodeId::User(1);
        let message = Message::Ping;
        let echoed = transport
            .request(user, peer, AuthToken(1), &message)
            .unwrap();
        assert_eq!(echoed, message);
        assert_eq!(meter.link_bytes(user, peer), message.encode().len() as u64);
        assert_eq!(meter.link_bytes(peer, user), message.encode().len() as u64);

        transport.shutdown(peer);
        handle.join().unwrap();
    }

    #[test]
    fn unknown_peer_is_an_error() {
        let transport = InProcTransport::new(Arc::new(TrafficMeter::new()));
        let result = transport.request(
            NodeId::User(0),
            NodeId::IndexServer(9),
            AuthToken(0),
            &Message::InsertOk,
        );
        assert_eq!(
            result,
            Err(TransportError::UnknownPeer(NodeId::IndexServer(9)))
        );
    }

    #[test]
    fn timeout_leaves_the_pending_collectable() {
        // A peer that answers only after we have already given up once.
        let transport = InProcTransport::new(Arc::new(TrafficMeter::new()));
        let peer = NodeId::IndexServer(0);
        let (tx, rx) = mpsc::channel();
        transport.register(peer, tx);
        let slow = thread::spawn(move || {
            if let Ok(PeerInbox::Request(envelope)) = rx.recv() {
                thread::sleep(Duration::from_millis(40));
                envelope.reply.send(Message::InsertOk.encode());
            }
        });

        let mut pending = transport.begin(
            NodeId::User(0),
            peer,
            AuthToken(0),
            request_payload(&Message::InsertOk),
        );
        assert_eq!(
            pending.wait(Duration::from_millis(1)),
            Err(TransportError::Timeout(peer)),
            "first wait times out"
        );
        assert_eq!(
            pending.wait(Duration::from_secs(5)),
            Ok(Message::InsertOk),
            "the late answer is still collectable"
        );
        slow.join().unwrap();
    }

    #[test]
    fn delayed_pending_withholds_then_delivers() {
        let transport = InProcTransport::new(Arc::new(TrafficMeter::new()));
        let peer = NodeId::IndexServer(0);
        let handle = echo_peer(&transport, peer);
        let payload = request_payload(&Message::InsertOk);
        let mut pending = transport
            .begin(NodeId::User(0), peer, AuthToken(0), payload)
            .delayed(Duration::from_millis(30));
        assert_eq!(
            pending.wait(Duration::from_millis(2)),
            Err(TransportError::Timeout(peer))
        );
        assert!(pending.try_take().is_none(), "still inside the delay");
        assert_eq!(pending.wait(Duration::from_secs(5)), Ok(Message::InsertOk));
        transport.shutdown(peer);
        handle.join().unwrap();
    }

    #[test]
    fn abandoned_response_is_still_metered() {
        let meter = Arc::new(TrafficMeter::new());
        let transport = InProcTransport::new(meter.clone());
        let peer = NodeId::IndexServer(0);
        let handle = echo_peer(&transport, peer);
        let user = NodeId::User(0);
        let message = Message::DeleteOk { removed: 1 };
        let pending = transport.begin(user, peer, AuthToken(0), request_payload(&message));
        drop(pending); // the client hedged away; the peer answers anyway
        transport.shutdown(peer);
        handle.join().unwrap();
        assert_eq!(
            meter.link_bytes(peer, user),
            message.encode().len() as u64,
            "the abandoned response still crossed the link"
        );
    }
}
