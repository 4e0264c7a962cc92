//! Property tests for the length-framed socket codec: arbitrary
//! `zerber_net` messages of every live tag (generated from the frame
//! table) survive encode → split-at-every-byte-boundary
//! reassembly → decode, and damaged frames fail closed — an error,
//! never a panic and never a silently different message.

mod support;

use proptest::prelude::*;
use support::arb_message;
use zerber_net::framing::{Frame, FrameDecoder};
use zerber_net::{AuthToken, Message, NodeId};

fn arb_node() -> impl Strategy<Value = NodeId> {
    prop_oneof![
        any::<u32>().prop_map(NodeId::User),
        any::<u32>().prop_map(NodeId::Owner),
        any::<u32>().prop_map(NodeId::IndexServer),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u64>(), arb_node(), any::<u64>(), arb_message()).prop_map(
            |(id, from, auth, message)| Frame::Request {
                id,
                from,
                auth: AuthToken(auth),
                payload: message.encode().to_vec(),
            }
        ),
        (any::<u64>(), arb_message()).prop_map(|(id, message)| Frame::Response {
            id,
            payload: message.encode().to_vec(),
        }),
    ]
}

proptest! {
    /// Split the encoded frame at *every* byte boundary: each prefix /
    /// suffix pair must reassemble to the identical frame, and the
    /// carried message must decode to the original.
    #[test]
    fn split_at_every_boundary_reassembles(message in arb_message(), id in any::<u64>()) {
        let frame = Frame::Request {
            id,
            from: NodeId::User(1),
            auth: AuthToken(id ^ 0xA5A5),
            payload: message.encode().to_vec(),
        };
        let encoded = frame.encode();
        for cut in 0..=encoded.len() {
            let mut decoder = FrameDecoder::new();
            decoder.push(&encoded[..cut]);
            if cut < encoded.len() {
                prop_assert_eq!(decoder.next_frame().unwrap(), None, "premature at {}", cut);
            }
            decoder.push(&encoded[cut..]);
            let got = decoder.next_frame().unwrap().expect("complete frame");
            prop_assert_eq!(&got, &frame);
            prop_assert_eq!(Message::decode(got.payload()).unwrap(), message.clone());
            prop_assert_eq!(decoder.next_frame().unwrap(), None);
        }
    }

    /// A run of frames pushed as one arbitrary-chunked stream comes
    /// back in order, regardless of chunk sizes.
    #[test]
    fn chunked_stream_preserves_frame_order(
        frames in prop::collection::vec(arb_frame(), 1..6),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for frame in &frames {
            stream.extend_from_slice(&frame.encode());
        }
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            decoder.push(piece);
            while let Some(frame) = decoder.next_frame().unwrap() {
                got.push(frame);
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(decoder.pending_bytes(), 0);
    }

    /// Truncating a frame anywhere never yields a frame: the decoder
    /// either waits for more bytes or reports an error — fail closed.
    #[test]
    fn truncation_fails_closed(frame in arb_frame(), cut_seed in any::<u64>()) {
        let encoded = frame.encode();
        let cut = (cut_seed as usize) % encoded.len();
        let mut decoder = FrameDecoder::new();
        decoder.push(&encoded[..cut]);
        match decoder.next_frame() {
            Ok(None) | Err(_) => {}
            Ok(Some(frame)) => prop_assert!(false, "truncated decode produced {frame:?}"),
        }
    }

    /// Flipping any single byte is detected: no silently different
    /// frame ever comes out, and nothing panics.
    #[test]
    fn corruption_fails_closed(frame in arb_frame(), position in any::<u64>(), xor in 1u8..=255) {
        let mut encoded = frame.encode();
        let position = (position as usize) % encoded.len();
        encoded[position] ^= xor;
        let mut decoder = FrameDecoder::new();
        decoder.push(&encoded);
        match decoder.next_frame() {
            Ok(None) | Err(_) => {}
            Ok(Some(decoded)) => prop_assert!(
                false,
                "corrupt byte {position} decoded as {decoded:?}"
            ),
        }
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut decoder = FrameDecoder::new();
        decoder.push(&bytes);
        while let Ok(Some(_)) = decoder.next_frame() {}
    }
}

/// Every byte of one encoded request frame and one encoded response
/// frame, damaged under three masks: the decoder refuses the damage
/// with a `FrameError`, waits for bytes a grown length prefix declares
/// (a stream that ends there is torn), or yields exactly the frame
/// whose encoding the damaged bytes are — never a different frame, and
/// never a panic.
#[test]
fn every_damaged_byte_fails_closed() {
    use zerber_core::{ElementId, PlId};
    use zerber_index::DocId;
    let request = Frame::Request {
        id: 0x0102_0304_0506_0708,
        from: NodeId::Owner(7),
        auth: AuthToken(0xA5A5_5A5A),
        payload: Message::Delete {
            elements: vec![(PlId(4), ElementId(77)), (PlId(4), ElementId(78))],
        }
        .encode()
        .to_vec(),
    };
    let response = Frame::Response {
        id: 42,
        payload: Message::TopKResponse {
            decode_ns: 123_456,
            blocks_decoded: 3,
            blocks_total: 11,
            candidates: vec![(DocId(3), 1.0 / 3.0), (DocId(1), 0.0)],
        }
        .encode()
        .to_vec(),
    };
    for frame in [request, response] {
        let encoded = frame.encode();
        for at in 0..encoded.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut damaged = encoded.clone();
                damaged[at] ^= mask;
                let declared = u32::from_be_bytes(*damaged.first_chunk().unwrap()) as usize;
                let mut decoder = FrameDecoder::new();
                decoder.push(&damaged);
                let what = format!("byte {at} ^ {mask:#04x} of {frame:?}");
                match std::panic::catch_unwind(move || decoder.next_frame()) {
                    Ok(Err(_)) => {}
                    Ok(Ok(None)) => assert!(4 + declared > damaged.len(), "{what}: stalled"),
                    Ok(Ok(Some(decoded))) => {
                        assert_eq!(decoded.encode(), damaged, "{what}: a different frame")
                    }
                    Err(_) => panic!("{what}: panicked"),
                }
            }
        }
    }
}
