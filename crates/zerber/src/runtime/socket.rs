//! The real network transport: length-framed TCP links.
//!
//! [`SocketTransport`] implements [`Transport`] over loopback (or any)
//! TCP using the checksummed frames of [`zerber_net::framing`]:
//!
//! ```text
//!  client process                      peer process
//!  ──────────────                     ─────────────
//!  begin() ─ Frame::Request{id,…} ──▶ accept loop ─▶ conn thread
//!                 │ one pooled            │  FrameDecoder ─ Message
//!                 │ connection per        │  PeerService::handle
//!                 ▼ (from, to) link       ▼
//!  reader thread ◀─ Frame::Response{id,…} ────────────────┘
//!   └─ demux by id ─▶ the PendingReply that began it
//! ```
//!
//! One connection is opened per `(from, to)` link and reused for every
//! request on it; requests pipeline (the correlation `id` matches a
//! response to its [`PendingReply`], whatever order answers arrive
//! in). A per-link in-flight cap provides backpressure: `begin` blocks
//! once `MAX_IN_FLIGHT` requests are unanswered, so a
//! slow peer throttles its callers instead of buffering unboundedly.
//! Writes carry `WRITE_TIMEOUT`; a failed or timed-out
//! write, a torn frame, or a closed socket kills the link — every
//! pending request on it resolves to [`TransportError::PeerGone`], and
//! the next `begin` dials a fresh connection (so a restarted peer is
//! picked up transparently). A `begin` is one attempt: a failed dial
//! or write fails its pending at once, as a closed in-process inbox
//! does, and whether to send again is the coordinator's decision.
//!
//! # Metering
//!
//! Each process accounts its *own* view on its own
//! [`TrafficMeter`]: the client meters request payloads when they are
//! written and response payloads when they arrive; a peer serving via
//! [`serve_peer`] meters the same two directions as it sees them.
//! Metered bytes are the exact encoded [`zerber_net::Message`] payload bytes —
//! framing overhead (length prefix, correlation id, CRC) is the
//! socket's envelope, excluded just as the in-process envelope is, so
//! the paper's bandwidth accounting is identical whichever transport
//! carries it. Give the client and the peer *separate* meters when
//! both live in one process, or every payload double-counts.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread;
use std::time::Duration;

use parking_lot::Mutex;

use zerber_net::{AuthToken, Frame, FrameDecoder, FrameRef, NodeId, TrafficMeter};
use zerber_obs::{Counter, Gauge, MetricsRegistry};

use crate::runtime::peer::{self, PeerService};
use crate::runtime::transport::{
    PeerInbox, PendingReply, ReplyPayload, ReplySink, RequestEnvelope, RequestPayload, Transport,
    TransportError,
};

/// Dial timeout for a new link.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-write deadline; a link that cannot accept a frame within it is
/// declared dead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Unanswered requests allowed per link before `begin` blocks
/// (backpressure toward the caller).
const MAX_IN_FLIGHT: usize = 64;

/// The in-flight gate of one link: counts unanswered requests and
/// wakes writers as responses drain them. Uses the std primitives
/// because waiting is the point (the vendored `parking_lot` carries no
/// condvar).
struct InFlight {
    state: StdMutex<InFlightState>,
    drained: Condvar,
    /// Aggregated `zerber_socket_in_flight` gauge (shared across
    /// links).
    gauge: Gauge,
}

struct InFlightState {
    count: usize,
    dead: bool,
}

impl InFlight {
    fn new(gauge: Gauge) -> Self {
        Self {
            state: StdMutex::new(InFlightState {
                count: 0,
                dead: false,
            }),
            drained: Condvar::new(),
            gauge,
        }
    }

    /// Blocks until a slot frees up (or the link dies). Returns
    /// whether the link is still usable.
    fn acquire(&self, cap: usize) -> bool {
        let mut state = self.state.lock().expect("in-flight gate poisoned");
        while state.count >= cap && !state.dead {
            state = self.drained.wait(state).expect("in-flight gate poisoned");
        }
        if state.dead {
            return false;
        }
        state.count += 1;
        self.gauge.inc();
        true
    }

    fn release(&self) {
        let mut state = self.state.lock().expect("in-flight gate poisoned");
        // `kill` may already have zeroed the count (and the gauge);
        // never double-decrement.
        if state.count > 0 {
            state.count -= 1;
            self.gauge.dec();
        }
        drop(state);
        self.drained.notify_one();
    }

    fn kill(&self) {
        let mut state = self.state.lock().expect("in-flight gate poisoned");
        state.dead = true;
        // Requests still in flight on a dead link will never be
        // released; keep the aggregate gauge honest.
        self.gauge.add(-(state.count as i64));
        state.count = 0;
        drop(state);
        self.drained.notify_all();
    }
}

/// The demux table of one link: `request id → reply channel` for
/// unanswered requests; `None` once the link is dead (dropping the
/// senders fails every waiter closed).
type PendingMap = Arc<Mutex<Option<HashMap<u64, std::sync::mpsc::Sender<ReplyPayload>>>>>;

/// One pooled connection: the writer half, the demux table its reader
/// thread feeds, and the in-flight gate.
struct Link {
    writer: Mutex<TcpStream>,
    pending: PendingMap,
    next_id: AtomicU64,
    inflight: Arc<InFlight>,
}

impl Link {
    fn is_dead(&self) -> bool {
        self.pending.lock().is_none()
    }
}

/// Client-side socket instrumentation handles, pre-registered so the
/// hot path never touches the registry's name table.
struct SocketMetrics {
    /// `zerber_socket_requests_total`: frames handed to `begin_traced`.
    requests: Counter,
    /// `zerber_socket_write_failures_total`: writes that killed a link
    /// (timeout or error — alignment after a partial write is
    /// unknowable).
    write_failures: Counter,
    /// `zerber_socket_links_dialed_total`: fresh connections dialed
    /// (first use and every reconnect after a link death).
    links_dialed: Counter,
    /// `zerber_socket_in_flight` gauge, shared by every link's gate.
    in_flight: Gauge,
}

impl SocketMetrics {
    fn on(registry: &MetricsRegistry) -> Self {
        Self {
            requests: registry.counter("zerber_socket_requests_total"),
            write_failures: registry.counter("zerber_socket_write_failures_total"),
            links_dialed: registry.counter("zerber_socket_links_dialed_total"),
            in_flight: registry.gauge("zerber_socket_in_flight"),
        }
    }
}

/// [`Transport`] over real TCP links. See the [module docs](self).
pub struct SocketTransport {
    meter: Arc<TrafficMeter>,
    /// Client-side counters and gauge: on a registry of the
    /// transport's own until [`SocketTransport::observed`] names one.
    obs: SocketMetrics,
    /// Where each peer listens.
    addrs: Mutex<HashMap<NodeId, SocketAddr>>,
    /// Pooled connections, one per `(from, to)` link.
    links: Mutex<HashMap<(NodeId, NodeId), Arc<Link>>>,
}

impl SocketTransport {
    /// A transport accounting on `meter`.
    pub fn new(meter: Arc<TrafficMeter>) -> Self {
        Self {
            meter,
            obs: SocketMetrics::on(&MetricsRegistry::new()),
            addrs: Mutex::new(HashMap::new()),
            links: Mutex::new(HashMap::new()),
        }
    }

    /// Registers the client-side socket metric families
    /// (`zerber_socket_*`) on `registry` and records into them from
    /// now on. Call before the first request; builder-style.
    pub fn observed(mut self, registry: &MetricsRegistry) -> Self {
        self.obs = SocketMetrics::on(registry);
        self
    }

    /// Registers where `node` listens. Replaces any previous address
    /// (an existing pooled link keeps serving until it dies; the next
    /// reconnect dials the new address).
    pub fn register(&self, node: NodeId, addr: SocketAddr) {
        self.addrs.lock().insert(node, addr);
    }

    /// Returns the live pooled link for `(from, to)`, dialing a fresh
    /// connection if there is none or the pooled one is dead.
    fn link(&self, from: NodeId, to: NodeId) -> Result<Arc<Link>, TransportError> {
        let addr = match self.addrs.lock().get(&to) {
            Some(&addr) => addr,
            None => return Err(TransportError::UnknownPeer(to)),
        };
        {
            let links = self.links.lock();
            if let Some(link) = links.get(&(from, to)) {
                if !link.is_dead() {
                    return Ok(Arc::clone(link));
                }
            }
        }
        // Dial outside the pool lock: a slow connect must not stall
        // every other link.
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
            .map_err(|_| TransportError::PeerGone(to))?;
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok();
        let reader_stream = stream
            .try_clone()
            .map_err(|_| TransportError::PeerGone(to))?;
        self.obs.links_dialed.inc();
        let link = Arc::new(Link {
            writer: Mutex::new(stream),
            pending: Arc::new(Mutex::new(Some(HashMap::new()))),
            next_id: AtomicU64::new(1),
            inflight: Arc::new(InFlight::new(self.obs.in_flight.clone())),
        });
        spawn_link_reader(
            reader_stream,
            Arc::clone(&link.pending),
            Arc::clone(&link.inflight),
            Arc::clone(&self.meter),
            to,
            from,
        );
        let mut links = self.links.lock();
        // Another caller may have raced us to reconnect; keep one.
        let entry = links.entry((from, to)).or_insert_with(|| Arc::clone(&link));
        if entry.is_dead() {
            *entry = Arc::clone(&link);
        }
        Ok(Arc::clone(entry))
    }
}

/// Reads `stream` until EOF or a read error, handing each whole frame
/// to `on_frame` with its payload still in the stream buffer — the
/// handler copies it out once, into the type it travels on as. Stops
/// early when `on_frame` returns `false` or a frame is damaged:
/// framing is stateful, so a corrupt frame forfeits the whole
/// connection.
fn pump_frames(mut stream: &TcpStream, mut on_frame: impl FnMut(FrameRef<'_>) -> bool) {
    let mut decoder = FrameDecoder::new();
    // Each read stops at the end of a length prefix or of a frame, so
    // it completes at most one.
    while let Ok(true) = decoder.read_from(&mut stream) {
        match decoder.next_frame_ref() {
            Ok(None) => {}
            Ok(Some(frame)) => {
                if !on_frame(frame) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Demuxes one link's responses to their pending requests, metering
/// each payload as it arrives. Exits — failing every outstanding
/// request closed — when the link does (see [`pump_frames`]) or on a
/// request frame on the response path (a protocol violation).
fn spawn_link_reader(
    stream: TcpStream,
    pending: PendingMap,
    inflight: Arc<InFlight>,
    meter: Arc<TrafficMeter>,
    peer: NodeId,
    client: NodeId,
) {
    thread::spawn(move || {
        pump_frames(&stream, |frame| {
            let Frame::Response { id, payload } = frame else {
                return false;
            };
            // Response bytes arrived whether or not anyone is still
            // waiting (the requester may have hedged away) — they
            // count either way.
            meter.record(peer, client, payload.len());
            inflight.release();
            let waiter = pending.lock().as_mut().and_then(|map| map.remove(&id));
            if let Some(tx) = waiter {
                let _ = tx.send(payload.to_vec());
            }
            true
        });
        // Fail everything closed: dropping the senders disconnects
        // every waiting PendingReply (→ PeerGone).
        pending.lock().take();
        inflight.kill();
    });
}

impl Transport for SocketTransport {
    fn meter(&self) -> &Arc<TrafficMeter> {
        &self.meter
    }

    /// One attempt: take (or dial) the link, gate, register the
    /// pending, write the frame. A failure here killed the link (or
    /// found no peer), so the next `begin` dials fresh; whether to
    /// send again is the caller's decision.
    fn begin_traced(
        &self,
        from: NodeId,
        to: NodeId,
        auth: AuthToken,
        trace: u64,
        payload: RequestPayload,
    ) -> PendingReply {
        self.obs.requests.inc();
        let gone = || PendingReply::failed(to, TransportError::PeerGone(to));
        let link = match self.link(from, to) {
            Ok(link) => link,
            Err(error) => return PendingReply::failed(to, error),
        };
        if !link.inflight.acquire(MAX_IN_FLIGHT) {
            return gone();
        }
        let id = link.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = std::sync::mpsc::channel();
        match link.pending.lock().as_mut() {
            Some(map) => {
                map.insert(id, tx);
            }
            None => {
                link.inflight.release();
                return gone();
            }
        }
        let frame = Frame::Request {
            id,
            from,
            auth,
            trace,
            payload: payload.as_slice(),
        }
        .encode();
        // The request leaves the client here: meter the payload (not
        // the framing envelope), then write the frame.
        self.meter.record(from, to, payload.len());
        let wrote = {
            let mut writer = link.writer.lock();
            let result = writer.write_all(&frame).and_then(|()| writer.flush());
            if result.is_err() {
                // Kill the whole link: record alignment after a
                // partial write is unknowable, so every request on it
                // is lost. Closing the socket also unblocks the reader
                // thread, which fails the other pendings closed.
                writer.shutdown(std::net::Shutdown::Both).ok();
            }
            result
        };
        if wrote.is_err() {
            self.obs.write_failures.inc();
            link.pending.lock().take();
            link.inflight.kill();
            return gone();
        }
        PendingReply::from_channel(to, rx)
    }
}

/// A running socket peer: its accept loop, service thread, connection
/// threads, and listen address. Dropping (or `SocketPeer::shutdown`)
/// closes the listener and every live connection — clients observe
/// [`TransportError::PeerGone`], which is exactly what the
/// kill-a-peer scenario injects — and returns only once the service
/// has been dropped on its own thread.
pub struct SocketPeer {
    addr: SocketAddr,
    closing: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept: Option<thread::JoinHandle<()>>,
    inbox: std::sync::mpsc::Sender<PeerInbox>,
    service: Option<thread::JoinHandle<()>>,
}

impl SocketPeer {
    /// The address this peer accepts on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, severs every live connection, joins the
    /// accept loop, then stops and joins the service thread, so the
    /// service (and whatever scratch space it removes on drop) is
    /// gone when this returns.
    pub(crate) fn shutdown(&mut self) {
        self.closing.store(true, Ordering::SeqCst);
        for conn in self.conns.lock().iter() {
            conn.shutdown(std::net::Shutdown::Both).ok();
        }
        // Wake the accept loop with a throwaway dial.
        TcpStream::connect_timeout(&self.addr, Duration::from_millis(200)).ok();
        if let Some(handle) = self.accept.take() {
            handle.join().ok();
        }
        let _ = self.inbox.send(PeerInbox::Shutdown);
        if let Some(handle) = self.service.take() {
            handle.join().ok();
        }
    }
}

impl Drop for SocketPeer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves a [`PeerService`] as node `node` on `listener`.
///
/// `init` runs on a dedicated *service thread* — the same
/// one-thread-per-peer discipline as the in-process runtime, so the
/// service state never needs to be `Send` and expensive construction
/// (indexing a shard) happens off the accept path. Each accepted
/// connection gets a reader thread that forwards decoded request
/// frames to the service thread and writes back the correlated
/// response frames; requests from concurrent connections are
/// serialized by the service inbox exactly as the in-process peers
/// serialize theirs. Payload bytes both ways land on `meter`.
pub fn serve_peer<S, F>(
    listener: TcpListener,
    node: NodeId,
    init: F,
    meter: Arc<TrafficMeter>,
) -> std::io::Result<SocketPeer>
where
    S: PeerService + 'static,
    F: FnOnce() -> S + Send + 'static,
{
    let addr = listener.local_addr()?;
    let closing = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));

    // The service thread: owns the state and runs the same service
    // loop over the shared inbox as an in-process peer (the ReplySink
    // meters each response on the peer's meter before handing it to
    // the connection thread for framing).
    let (inbox, requests) = std::sync::mpsc::channel::<PeerInbox>();
    let service = thread::spawn(move || peer::serve(init(), &requests));

    let accept = {
        let inbox = inbox.clone();
        let closing = Arc::clone(&closing);
        let conns = Arc::clone(&conns);
        thread::spawn(move || {
            // Transient accept() failures (EMFILE pressure, a
            // connection aborted in the backlog) must not take the
            // whole peer down: note the error, back off briefly, and
            // keep accepting. Only a deliberate shutdown exits.
            let mut consecutive_errors = 0u32;
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if closing.load(Ordering::SeqCst) {
                            break;
                        }
                        consecutive_errors = 0;
                        stream.set_nodelay(true).ok();
                        if let Ok(watch) = stream.try_clone() {
                            conns.lock().push(watch);
                        }
                        let inbox = inbox.clone();
                        let meter = Arc::clone(&meter);
                        thread::spawn(move || serve_connection(stream, node, inbox, meter));
                    }
                    Err(_) if closing.load(Ordering::SeqCst) => break,
                    Err(error) => {
                        eprintln!("zerber: accept() on {node:?} failed transiently: {error}");
                        consecutive_errors = consecutive_errors.saturating_add(1);
                        // Linear backoff, capped: enough to ride out fd
                        // exhaustion without going silent for long.
                        thread::sleep(Duration::from_millis(
                            (10 * u64::from(consecutive_errors)).min(500),
                        ));
                    }
                }
            }
        })
    };
    Ok(SocketPeer {
        addr,
        closing,
        conns,
        accept: Some(accept),
        inbox,
        service: Some(service),
    })
}

/// One client connection: decode request frames, forward them to the
/// service thread, answer with correlated response frames. Any
/// framing damage (or a response frame on the request path) drops the
/// connection (fail closed) — the client's reader resolves its
/// pendings to `PeerGone` and a fresh connection re-dials.
fn serve_connection(
    stream: TcpStream,
    node: NodeId,
    inbox: std::sync::mpsc::Sender<PeerInbox>,
    meter: Arc<TrafficMeter>,
) {
    pump_frames(&stream, |frame| {
        let Frame::Request {
            id,
            from,
            auth,
            trace,
            payload,
        } = frame
        else {
            return false;
        };
        meter.record(from, node, payload.len());
        let (tx, rx) = std::sync::mpsc::channel();
        let envelope = RequestEnvelope {
            from,
            auth,
            trace,
            payload: RequestPayload::new(payload.to_vec()),
            reply: ReplySink::new(Arc::clone(&meter), node, from, tx),
        };
        if inbox.send(PeerInbox::Request(envelope)).is_err() {
            return false;
        }
        // One request at a time per connection: the service inbox is
        // shared with other connections, but this link's answers go
        // out in request order.
        let Ok(payload) = rx.recv() else { return false };
        let frame = Frame::Response { id, payload };
        (&stream).write_all(&frame.encode()).is_ok()
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::service::ShardService;
    use crate::runtime::transport::request_payload;
    use zerber_index::{DocId, Document, GroupId, PostingBackend, TermId};
    use zerber_net::Message;

    fn shard_peer(docs: &[Document], node: NodeId, meter: Arc<TrafficMeter>) -> SocketPeer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let docs: Vec<&Document> = docs.iter().collect();
        let frame = zerber_net::DocumentFrame::BulkLoad.encode(0, &docs);
        let init = move || {
            let registry = MetricsRegistry::new();
            let mut service =
                ShardService::for_peer(&PostingBackend::Ephemeral, 0, [0], false, &registry);
            let load = Message::decode(&frame).expect("a bulk-load frame");
            assert_eq!(service.handle(node, AuthToken(0), load), Message::InsertOk);
            service
        };
        serve_peer(listener, node, init, meter).unwrap()
    }

    /// A top-`k` ranked read of term 7 on shard 0.
    fn topk_query(k: u32) -> Message {
        Message::PlanQuery {
            shard: 0,
            shape: 0,
            forced: 0,
            terms: vec![(TermId(7), 1.0)],
            k,
        }
    }

    fn corpus(n: u32) -> Vec<Document> {
        (0..n)
            .map(|d| {
                Document::from_term_counts(
                    DocId(d),
                    GroupId(0),
                    vec![(TermId(d % 3), 1 + d % 2), (TermId(7), 1)],
                )
            })
            .collect()
    }

    #[test]
    fn rpc_round_trip_over_real_tcp() {
        let node = NodeId::IndexServer(0);
        let peer_meter = Arc::new(TrafficMeter::new());
        let peer = shard_peer(&corpus(8), node, Arc::clone(&peer_meter));

        let client_meter = Arc::new(TrafficMeter::new());
        let transport = SocketTransport::new(Arc::clone(&client_meter));
        transport.register(node, peer.addr());

        let user = NodeId::User(1);
        let query = topk_query(3);
        match transport.request(user, node, AuthToken(0), &query).unwrap() {
            Message::TopKResponse { candidates, .. } => assert_eq!(candidates.len(), 3),
            other => panic!("unexpected response {other:?}"),
        }
        // Both processes' meters saw the same payload bytes, framing
        // excluded: request on user→peer, response on peer→user.
        assert_eq!(
            client_meter.link_bytes(user, node),
            query.encode().len() as u64
        );
        assert_eq!(
            client_meter.link_bytes(user, node),
            peer_meter.link_bytes(user, node)
        );
        assert_eq!(
            client_meter.link_bytes(node, user),
            peer_meter.link_bytes(node, user)
        );
        assert!(client_meter.link_bytes(node, user) > 0);
    }

    #[test]
    fn one_connection_carries_many_requests() {
        let node = NodeId::IndexServer(3);
        let peer = shard_peer(&corpus(20), node, Arc::new(TrafficMeter::new()));
        let transport = SocketTransport::new(Arc::new(TrafficMeter::new()));
        transport.register(node, peer.addr());
        for k in 1..=10u32 {
            let query = topk_query(k);
            match transport
                .request(NodeId::User(0), node, AuthToken(0), &query)
                .unwrap()
            {
                Message::TopKResponse { candidates, .. } => {
                    assert_eq!(candidates.len(), k.min(20) as usize)
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(transport.links.lock().len(), 1, "the link was reused");
    }

    #[test]
    fn pipelined_requests_demux_by_id() {
        let node = NodeId::IndexServer(0);
        let peer = shard_peer(&corpus(30), node, Arc::new(TrafficMeter::new()));
        let transport = SocketTransport::new(Arc::new(TrafficMeter::new()));
        transport.register(node, peer.addr());
        let user = NodeId::User(0);
        // Begin many before waiting on any; answers must route to the
        // right pending whatever order they land in.
        let queries: Vec<Message> = (1..=8u32).map(topk_query).collect();
        let mut pendings: Vec<PendingReply> = queries
            .iter()
            .map(|q| transport.begin(user, node, AuthToken(0), request_payload(q)))
            .collect();
        for (k, pending) in (1..=8usize).zip(pendings.iter_mut()) {
            match pending.wait(Duration::from_secs(10)).unwrap() {
                Message::TopKResponse { candidates, .. } => assert_eq!(candidates.len(), k),
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_peer_and_dead_peer_fail_typed() {
        let transport = SocketTransport::new(Arc::new(TrafficMeter::new()));
        let node = NodeId::IndexServer(9);
        assert_eq!(
            transport.request(NodeId::User(0), node, AuthToken(0), &Message::InsertOk),
            Err(TransportError::UnknownPeer(node))
        );
        // A registered but unreachable address: dial fails → PeerGone.
        let vacated = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        transport.register(node, vacated);
        assert_eq!(
            transport.request(NodeId::User(0), node, AuthToken(0), &Message::InsertOk),
            Err(TransportError::PeerGone(node))
        );
    }

    #[test]
    fn a_begin_to_a_vacated_address_is_one_attempt() {
        let transport = SocketTransport::new(Arc::new(TrafficMeter::new()));
        let node = NodeId::IndexServer(4);
        let vacated = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        transport.register(node, vacated);
        // A refused dial fails its pending at once, with no sleep and
        // no second dial: sending again is the coordinator's call.
        let started = std::time::Instant::now();
        for _ in 0..20 {
            assert_eq!(
                transport.request(NodeId::User(0), node, AuthToken(0), &Message::Ping),
                Err(TransportError::PeerGone(node))
            );
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(150),
            "20 refused requests took {took:?}"
        );
    }

    /// A service that raises `dropped` when its peer thread lets it go.
    struct DropFlag {
        dropped: Arc<AtomicBool>,
    }

    impl PeerService for DropFlag {
        fn handle(&mut self, _: NodeId, _: AuthToken, _: Message) -> Message {
            Message::InsertOk
        }
    }

    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn dropping_a_socket_peer_drops_its_service() {
        let node = NodeId::IndexServer(2);
        let dropped = Arc::new(AtomicBool::new(false));
        let service = DropFlag {
            dropped: Arc::clone(&dropped),
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let meter = Arc::new(TrafficMeter::new());
        let peer = serve_peer(listener, node, move || service, meter).unwrap();
        let transport = SocketTransport::new(Arc::new(TrafficMeter::new()));
        transport.register(node, peer.addr());
        assert_eq!(
            transport.request(NodeId::User(0), node, AuthToken(0), &Message::InsertOk),
            Ok(Message::InsertOk)
        );
        drop(peer);
        assert!(
            dropped.load(Ordering::SeqCst),
            "the service outlived its SocketPeer"
        );
    }

    #[test]
    fn killed_peer_fails_pending_and_later_requests_closed() {
        let node = NodeId::IndexServer(1);
        let mut peer = shard_peer(&corpus(5), node, Arc::new(TrafficMeter::new()));
        let transport = SocketTransport::new(Arc::new(TrafficMeter::new()));
        transport.register(node, peer.addr());
        let ok = topk_query(1);
        transport
            .request(NodeId::User(0), node, AuthToken(0), &ok)
            .unwrap();
        peer.shutdown();
        // The pooled link dies; requests fail typed rather than hang.
        let mut saw_gone = false;
        for _ in 0..10 {
            match transport.request(NodeId::User(0), node, AuthToken(0), &ok) {
                Err(TransportError::PeerGone(n)) => {
                    assert_eq!(n, node);
                    saw_gone = true;
                    break;
                }
                Err(TransportError::Timeout(_)) | Ok(_) => {
                    // The OS may briefly accept into a dying backlog;
                    // retry until the death is visible.
                    thread::sleep(Duration::from_millis(10));
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(saw_gone, "peer death never surfaced as PeerGone");
    }

    #[test]
    fn malformed_payload_comes_back_as_fault_frame() {
        let node = NodeId::IndexServer(0);
        let peer = shard_peer(&corpus(5), node, Arc::new(TrafficMeter::new()));
        let transport = SocketTransport::new(Arc::new(TrafficMeter::new()));
        transport.register(node, peer.addr());
        // Valid frame, garbage payload: the peer answers MALFORMED
        // instead of dropping the link.
        let mut pending = transport.begin(
            NodeId::User(0),
            node,
            AuthToken(0),
            RequestPayload::new(b"\xFF\xFE\xFD".to_vec()),
        );
        match pending.wait(Duration::from_secs(10)).unwrap() {
            Message::Fault { code, .. } => {
                assert_eq!(code, zerber_net::message::fault::MALFORMED)
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
}
