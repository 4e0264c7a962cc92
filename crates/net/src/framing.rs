//! Length-framed, checksummed transport frames for socket links.
//!
//! [`Message`](crate::Message)s are *payloads*; this module defines the envelope that
//! carries them over a byte stream (TCP or a Unix socket), where the
//! peer reads a raw octet sequence with no record boundaries and no
//! integrity guarantees beyond what we add ourselves. Every frame is
//! length-prefixed and CRC-protected so a reader can (a) reassemble
//! records from arbitrarily split reads and (b) *fail closed* on torn
//! or corrupted input — a damaged frame must surface as a
//! [`FrameError`], never as a silently different decoded value and
//! never as a panic.
//!
//! # Wire layout
//!
//! ```text
//! frame     := len:u32 | body | crc32(body):u32
//!              (len counts body + crc, capped at MAX_FRAME_BODY)
//! body      := kind:u8 | header | payload
//! REQUEST   : kind=3 | id:u64 | from:node | auth:u64 | payload
//! RESPONSE  : kind=2 | id:u64 | payload
//! node      := tag:u8 (1=User 2=Owner 3=IndexServer) | index:u32
//! payload   := one encoded zerber_net::Message
//! ```
//!
//! `id` correlates a response with its request so one connection can
//! carry many requests concurrently (pipelining): the client stamps a
//! fresh id per RPC and the peer echoes it back. Kind 1 is retired:
//! it was a request that also carried a query-trace id no peer read,
//! and it now decodes as [`FrameError::BadKind`]. The frame CRC covers the whole body, so a flipped bit anywhere —
//! header or payload — is detected before `Message::decode` ever sees
//! the bytes.
//!
//! The *accounted* wire bytes of an RPC remain the encoded payload's
//! length: framing overhead (17–30 B per frame) plays the role of the
//! envelope in the in-process transport, which the
//! paper's bandwidth model also excludes (it sizes payloads only).

use std::io::{self, Read};

use crate::bandwidth::NodeId;
use crate::message::{AuthToken, Wire};

/// Upper bound on one frame's body, rejecting absurd length prefixes
/// (a corrupted or hostile length would otherwise ask the reader to
/// buffer gigabytes before the CRC could fail it).
pub(crate) const MAX_FRAME_BODY: usize = 64 << 20;

/// Fixed framing overhead per frame: length prefix + CRC.
pub(crate) const FRAME_OVERHEAD: usize = 4 + 4;

/// The longer of the two headers (a request's): kind, id, node, auth.
const MAX_HEADER: usize = 1 + 8 + 5 + 8;

const KIND_REQUEST: u8 = 3;
const KIND_RESPONSE: u8 = 2;

const NODE_USER: u8 = 1;
const NODE_OWNER: u8 = 2;
const NODE_SERVER: u8 = 3;

/// Why a frame failed to decode. Every variant is a *closed* failure:
/// the decoder discards the damaged frame and the link layer maps the
/// error to a transport fault instead of trusting any decoded field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds `MAX_FRAME_BODY`.
    TooLarge(usize),
    /// The body checksum did not match: torn write or bit damage.
    Corrupt,
    /// The body's kind octet is not a known frame kind.
    BadKind(u8),
    /// The body ended before its header was complete, or a node tag
    /// was unknown (the CRC matched, so this is a peer speaking a
    /// different protocol revision, not line noise).
    Malformed,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge(len) => write!(f, "frame body of {len} B exceeds the cap"),
            FrameError::Corrupt => write!(f, "frame checksum mismatch"),
            FrameError::BadKind(kind) => write!(f, "unknown frame kind {kind}"),
            FrameError::Malformed => write!(f, "frame header malformed"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One frame, holding its payload as `P`: its own bytes by default
/// (`Frame`), or — a [`FrameRef`] — a borrow of the buffer a sender
/// already holds or of the stream buffer a [`FrameDecoder`] read the
/// frame into, so that writing or reading one costs a single copy of
/// the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<P = Vec<u8>> {
    /// Client → peer: an RPC request envelope.
    Request {
        /// Correlation id, echoed by the response.
        id: u64,
        /// The calling node (link accounting and reply routing).
        from: NodeId,
        /// The caller's session token.
        auth: AuthToken,
        /// Encoded request [`crate::Message`] bytes.
        payload: P,
    },
    /// Peer → client: the response to the request with the same id.
    Response {
        /// Correlation id of the request being answered.
        id: u64,
        /// Encoded response [`crate::Message`] bytes.
        payload: P,
    },
}

/// A [`Frame`] whose payload lives elsewhere.
pub type FrameRef<'a> = Frame<&'a [u8]>;

impl<P: AsRef<[u8]>> Frame<P> {
    /// Serializes the frame (length prefix + body + CRC) into one
    /// buffer of its final size.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload();
        let mut out = Vec::with_capacity(FRAME_OVERHEAD + MAX_HEADER + payload.len());
        // The length prefix counts body + CRC; written last.
        0u32.put(&mut out);
        match self {
            Frame::Request { id, from, auth, .. } => {
                out.push(KIND_REQUEST);
                id.put(&mut out);
                put_node(&mut out, *from);
                auth.put(&mut out);
            }
            Frame::Response { id, .. } => {
                out.push(KIND_RESPONSE);
                id.put(&mut out);
            }
        }
        out.extend_from_slice(payload);
        let crc = crc32(&out[4..]);
        crc.put(&mut out);
        let framed_len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&framed_len.to_be_bytes());
        out
    }

    /// The encoded [`crate::Message`] bytes this frame carries.
    pub fn payload(&self) -> &[u8] {
        match self {
            Frame::Request { payload, .. } | Frame::Response { payload, .. } => payload.as_ref(),
        }
    }
}

impl<'a> FrameRef<'a> {
    /// The same frame holding its own copy of the payload.
    pub(crate) fn to_frame(&self) -> Frame {
        match *self {
            Frame::Request {
                id,
                from,
                auth,
                payload,
            } => Frame::Request {
                id,
                from,
                auth,
                payload: payload.to_vec(),
            },
            Frame::Response { id, payload } => Frame::Response {
                id,
                payload: payload.to_vec(),
            },
        }
    }

    fn decode_body(mut body: &'a [u8]) -> Result<Self, FrameError> {
        let kind = u8::take(&mut body).map_err(|_| FrameError::Malformed)?;
        match kind {
            KIND_REQUEST => Ok(Frame::Request {
                id: take_u64(&mut body)?,
                from: take_node(&mut body)?,
                auth: AuthToken(take_u64(&mut body)?),
                payload: body,
            }),
            KIND_RESPONSE => Ok(Frame::Response {
                id: take_u64(&mut body)?,
                payload: body,
            }),
            other => Err(FrameError::BadKind(other)),
        }
    }
}

fn put_node(buffer: &mut Vec<u8>, node: NodeId) {
    let (tag, index) = match node {
        NodeId::User(i) => (NODE_USER, i),
        NodeId::Owner(i) => (NODE_OWNER, i),
        NodeId::IndexServer(i) => (NODE_SERVER, i),
    };
    buffer.push(tag);
    index.put(buffer);
}

fn take_node(buffer: &mut &[u8]) -> Result<NodeId, FrameError> {
    let (tag, index) = <(u8, u32)>::take(buffer).map_err(|_| FrameError::Malformed)?;
    match tag {
        NODE_USER => Ok(NodeId::User(index)),
        NODE_OWNER => Ok(NodeId::Owner(index)),
        NODE_SERVER => Ok(NodeId::IndexServer(index)),
        _ => Err(FrameError::Malformed),
    }
}

fn take_u64(buffer: &mut &[u8]) -> Result<u64, FrameError> {
    u64::take(buffer).map_err(|_| FrameError::Malformed)
}

/// Incremental frame reassembly over an arbitrarily chunked byte
/// stream.
///
/// Feed it with [`FrameDecoder::read_from`] (a stream) or
/// [`FrameDecoder::push`] (bytes already in hand) and drain complete
/// frames with [`FrameDecoder::next_frame_ref`]; bytes
/// split mid-frame (torn writes, small MTUs, byte-at-a-time reads)
/// reassemble transparently. Any decode error is terminal for the
/// stream: framing is stateful (a bad length prefix loses record
/// alignment for good), so the link layer must drop the connection —
/// which is exactly the fail-closed behavior the property tests pin.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buffer: Vec<u8>,
    /// Consumed prefix of `buffer` (compacted opportunistically).
    consumed: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buffer.extend_from_slice(bytes);
    }

    /// Reads from `source`, straight into the reassembly buffer,
    /// exactly the bytes the frame in progress still needs — the rest
    /// of its length prefix, then the rest of the frame — so a payload
    /// is not copied on its way in and nothing of the frame after it
    /// is held. Blocks until they have arrived; `Ok(false)` means
    /// `source` ended first. Look at [`FrameDecoder::next_frame_ref`]
    /// after every call: that is where a bad length prefix is refused.
    pub fn read_from(&mut self, source: &mut impl Read) -> io::Result<bool> {
        self.compact();
        // Never reserve for a length `next_frame_ref` will refuse.
        let whole = self
            .framed_len()
            .map_or(4, |len| 4 + len.min(MAX_FRAME_BODY + 4));
        let need = whole.saturating_sub(self.pending_bytes());
        self.buffer.reserve(need);
        let read = source.take(need as u64).read_to_end(&mut self.buffer)?;
        Ok(read == need)
    }

    /// The length prefix of the frame in progress (it counts body +
    /// trailing CRC), once its four bytes are in.
    fn framed_len(&self) -> Option<usize> {
        let prefix = self.buffer[self.consumed..].first_chunk::<4>()?;
        Some(u32::from_be_bytes(*prefix) as usize)
    }

    /// Drops the consumed prefix before the buffer grows: keeps it
    /// bounded by one frame plus one read's worth of bytes.
    fn compact(&mut self) {
        if self.consumed > 0 && self.consumed == self.buffer.len() {
            self.buffer.clear();
            self.consumed = 0;
        } else if self.consumed > 4096 {
            self.buffer.drain(..self.consumed);
            self.consumed = 0;
        }
    }

    /// How many bytes are buffered but not yet consumed by a complete
    /// frame.
    pub fn pending_bytes(&self) -> usize {
        self.buffer.len() - self.consumed
    }

    /// [`FrameDecoder::next_frame_ref`] with the payload copied out.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        Ok(self.next_frame_ref()?.map(|frame| frame.to_frame()))
    }

    /// Pops the next complete frame, its payload still in the
    /// reassembly buffer; `Ok(None)` if more bytes are needed, or the
    /// terminal [`FrameError`] for this stream.
    pub fn next_frame_ref(&mut self) -> Result<Option<FrameRef<'_>>, FrameError> {
        let Some(framed_len) = self.framed_len() else {
            return Ok(None);
        };
        let pending = &self.buffer[self.consumed..];
        // Reject before buffering anything near a bogus size.
        if framed_len < 4 || framed_len - 4 > MAX_FRAME_BODY {
            return Err(FrameError::TooLarge(framed_len.saturating_sub(4)));
        }
        if pending.len() < 4 + framed_len {
            return Ok(None);
        }
        let body = &pending[4..4 + framed_len - 4];
        let stated = u32::from_be_bytes([
            pending[framed_len],
            pending[framed_len + 1],
            pending[framed_len + 2],
            pending[framed_len + 3],
        ]);
        if crc32(body) != stated {
            return Err(FrameError::Corrupt);
        }
        let frame = FrameRef::decode_body(body)?;
        self.consumed += 4 + framed_len;
        Ok(Some(frame))
    }
}

/// The frame checksum: the workspace's one CRC-32 (ISO-HDLC — the
/// same function `zerber-segment` seals WAL records and segment files
/// with), defined in `zerber-postings`.
pub use zerber_postings::crc::crc32;

#[cfg(test)]
mod tests {
    use super::*;

    fn request(payload: &[u8]) -> Frame {
        Frame::Request {
            id: 7,
            from: NodeId::User(3),
            auth: AuthToken(0xFEED),
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn frames_round_trip_whole() {
        for frame in [
            request(b"hello"),
            request(b""),
            Frame::Response {
                id: u64::MAX,
                payload: vec![0u8; 300],
            },
        ] {
            let encoded = frame.encode();
            let mut decoder = FrameDecoder::new();
            decoder.push(&encoded);
            assert_eq!(decoder.next_frame().unwrap().unwrap(), frame);
            assert_eq!(decoder.next_frame().unwrap(), None);
            assert_eq!(decoder.pending_bytes(), 0);
        }
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let frame = request(b"split me across many reads");
        let encoded = frame.encode();
        let mut decoder = FrameDecoder::new();
        for (i, byte) in encoded.iter().enumerate() {
            decoder.push(std::slice::from_ref(byte));
            let got = decoder.next_frame().unwrap();
            if i + 1 < encoded.len() {
                assert_eq!(got, None, "complete at byte {i} of {}", encoded.len());
            } else {
                assert_eq!(got, Some(frame.clone()));
            }
        }
    }

    /// A stream that hands out at most `chunk` bytes per read.
    struct Trickle<'a> {
        left: &'a [u8],
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.left.len().min(self.chunk).min(buf.len());
            buf[..n].copy_from_slice(&self.left[..n]);
            self.left = &self.left[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_from_stops_at_every_frame_boundary() {
        let frames = [request(b"first"), request(b""), request(&[7u8; 300])];
        let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        for chunk in [1, 3, 64, 4096] {
            let mut source = Trickle {
                left: &stream,
                chunk,
            };
            let mut decoder = FrameDecoder::new();
            let mut got = Vec::new();
            while decoder.read_from(&mut source).unwrap() {
                if let Some(frame) = decoder.next_frame_ref().unwrap() {
                    got.push(frame.to_frame());
                    assert_eq!(decoder.pending_bytes(), 0, "nothing of the next frame");
                }
            }
            assert_eq!(got, frames, "chunks of {chunk}");
        }
        // A stream that ends mid-frame reports the end, not a frame.
        let mut torn = Trickle {
            left: &stream[..stream.len() - 1],
            chunk: 64,
        };
        let mut decoder = FrameDecoder::new();
        let mut whole = 0;
        while decoder.read_from(&mut torn).unwrap() {
            whole += usize::from(decoder.next_frame_ref().unwrap().is_some());
        }
        assert_eq!(whole, 2);
    }

    #[test]
    fn back_to_back_frames_in_one_push() {
        let a = request(b"first");
        let b = Frame::Response {
            id: 9,
            payload: b"second".to_vec(),
        };
        let mut stream = a.encode();
        stream.extend_from_slice(&b.encode());
        let mut decoder = FrameDecoder::new();
        decoder.push(&stream);
        assert_eq!(decoder.next_frame().unwrap().unwrap(), a);
        assert_eq!(decoder.next_frame().unwrap().unwrap(), b);
        assert_eq!(decoder.next_frame().unwrap(), None);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let encoded = request(b"integrity").encode();
        for i in 0..encoded.len() {
            for bit in 0..8 {
                let mut damaged = encoded.clone();
                damaged[i] ^= 1 << bit;
                let mut decoder = FrameDecoder::new();
                decoder.push(&damaged);
                // A flipped length prefix may leave the frame
                // "incomplete" (Ok(None)) — also closed. What must
                // never happen is a successfully decoded frame.
                if let Ok(Some(frame)) = decoder.next_frame() {
                    panic!("flip at byte {i} bit {bit} decoded as {frame:?}")
                }
            }
        }
    }

    #[test]
    fn absurd_length_prefix_fails_before_buffering() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&u32::MAX.to_be_bytes());
        assert!(matches!(decoder.next_frame(), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn crc_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn unknown_kind_and_node_fail_closed() {
        // Hand-build a frame with a bogus kind but a valid CRC.
        let body = vec![99u8, 0, 0, 0];
        let mut encoded = Vec::new();
        encoded.extend_from_slice(&((body.len() + 4) as u32).to_be_bytes());
        let crc = crc32(&body);
        encoded.extend_from_slice(&body);
        encoded.extend_from_slice(&crc.to_be_bytes());
        let mut decoder = FrameDecoder::new();
        decoder.push(&encoded);
        assert_eq!(decoder.next_frame(), Err(FrameError::BadKind(99)));
    }
}
