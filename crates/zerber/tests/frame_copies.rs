//! The copy budget of one encoded frame, held by measurement: a
//! counting `#[global_allocator]` (this test binary only) sums the
//! bytes allocated in blocks of at least 64 KiB across one round trip
//! whose reply carries a 4 MiB payload, and each transport has to stay
//! under a stated multiple of that payload.
//!
//! * **In process** (`PeerRuntime`): 2 × — the buffer `Message::encode`
//!   fills, which the channel then moves to the caller untouched, and
//!   the payload `Message::decode` copies out of it. Asserted < 2.5 ×:
//!   one more payload-sized buffer anywhere on the path fails it.
//! * **Over loopback TCP** (`SocketTransport` / `serve_peer`, both ends
//!   in this process): 5 × — `encode` and the frame written, on the
//!   peer; the stream buffer (sized once, from the length prefix), the
//!   payload copied out of it and the decoded message, on the client.
//!   Asserted < 5.5 ×.
//!
//! And one request, a `BulkLoad` frame of at least 4 MiB, in process:
//! 1 × — the buffer `Message::encode` sizes exactly once and the
//! transport shares as it is; the decoded documents are small blocks.
//! Asserted < 1.5 ×.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use zerber::runtime::socket::{serve_peer, SocketTransport};
use zerber::runtime::{PeerRuntime, PeerService, Transport};
use zerber_index::{DocId, GroupId, TermId};
use zerber_net::{AuthToken, Message, NodeId, TrafficMeter, WireDocument};

/// Blocks this large are payload-sized; everything the runtime
/// allocates per request besides payloads is far smaller.
const LARGE_BLOCK: usize = 64 << 10;

const PAYLOAD: usize = 4 << 20;

static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

fn count(size: usize) {
    if size >= LARGE_BLOCK {
        LARGE_BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counter is
// an atomic and allocates nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // A grown block is counted at its new size: growing may move it,
    // and a buffer that doubles its way up to a payload has paid for
    // every step.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The counter is process-wide; the two measurements take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Answers its first request with the reply it was built with.
struct FixedReply(Option<Message>);

impl PeerService for FixedReply {
    fn handle(&mut self, _from: NodeId, _auth: AuthToken, _request: Message) -> Message {
        self.0.take().expect("one measured round trip")
    }
}

/// A `SegmentData` frame of [`PAYLOAD`] bytes, decoded from its wire
/// form so this file does not depend on how the message holds them.
fn big_reply() -> Message {
    let mut wire = vec![19u8, 0, 0, 0, 0];
    wire.extend_from_slice(&(PAYLOAD as u32).to_be_bytes());
    wire.resize(wire.len() + PAYLOAD, 0xA5);
    Message::decode(&wire).expect("a segment-data frame")
}

/// Large-block bytes allocated, as a multiple of the payload, while
/// `transport` carries one request to `node` and the big reply back.
/// A `Ping` first (the peer loop answers it without the service) dials
/// the link and warms both ends.
fn reply_allocation_multiple(transport: &dyn Transport, node: NodeId) -> f64 {
    let user = NodeId::User(0);
    let pong = transport.request(user, node, AuthToken(0), &Message::Ping);
    assert_eq!(pong, Ok(Message::Pong));

    let before = LARGE_BYTES.load(Ordering::Relaxed);
    let reply = transport
        .request(
            user,
            node,
            AuthToken(0),
            &Message::PrepareSnapshot { shard: 0 },
        )
        .expect("the reply arrives");
    let allocated = LARGE_BYTES.load(Ordering::Relaxed) - before;

    match reply {
        Message::SegmentData { payload, .. } => assert_eq!(payload.len(), PAYLOAD),
        other => panic!("unexpected reply {other:?}"),
    }
    allocated as f64 / PAYLOAD as f64
}

#[test]
fn an_in_process_reply_is_moved_not_copied() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let reply = big_reply();
    let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
    let node = NodeId::IndexServer(0);
    runtime.spawn_peer(node, move || FixedReply(Some(reply)));

    let multiple = reply_allocation_multiple(runtime.transport().as_ref(), node);
    println!("in process: {multiple:.2} x payload");
    assert!(multiple < 2.5, "{multiple:.2} x the payload allocated");
}

#[test]
fn a_tcp_reply_is_copied_once_per_side_and_buffer() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let reply = big_reply();
    let node = NodeId::IndexServer(0);
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback");
    let peer = serve_peer(
        listener,
        node,
        move || FixedReply(Some(reply)),
        Arc::new(TrafficMeter::new()),
    )
    .expect("peer serves");
    let transport = SocketTransport::new(Arc::new(TrafficMeter::new()));
    transport.register(node, peer.addr());

    let multiple = reply_allocation_multiple(&transport, node);
    println!("loopback tcp: {multiple:.2} x payload");
    assert!(multiple < 5.5, "{multiple:.2} x the payload allocated");
}

/// Acknowledges every request, whatever it carries.
struct Acknowledge;

impl PeerService for Acknowledge {
    fn handle(&mut self, _from: NodeId, _auth: AuthToken, _request: Message) -> Message {
        Message::InsertOk
    }
}

#[test]
fn an_in_process_request_is_encoded_once() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // 4 096 documents of 128 terms: 1 040 B each on the wire, so every
    // decoded term list is a small block and only payloads count.
    let docs = (0..4096)
        .map(|d| WireDocument {
            doc: DocId(d),
            group: GroupId(0),
            length: 512,
            terms: (0..128).map(|t| (TermId(t), 4)).collect(),
        })
        .collect();
    let load = Message::BulkLoad { shard: 0, docs };
    let payload = 9 + 4096 * (16 + 128 * 8);
    assert!(payload >= PAYLOAD);
    let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
    let node = NodeId::IndexServer(0);
    runtime.spawn_peer(node, || Acknowledge);
    let transport = runtime.transport();
    let user = NodeId::User(0);
    let pong = transport.request(user, node, AuthToken(0), &Message::Ping);
    assert_eq!(pong, Ok(Message::Pong));

    let before = LARGE_BYTES.load(Ordering::Relaxed);
    let ack = transport.request(user, node, AuthToken(0), &load);
    let allocated = LARGE_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(ack, Ok(Message::InsertOk));

    let multiple = allocated as f64 / payload as f64;
    println!("in-process request: {multiple:.2} x payload");
    assert!(multiple < 1.5, "{multiple:.2} x the payload allocated");
}
