//! Property tests for the length-framed socket codec: arbitrary
//! `zerber_net` messages survive encode → split-at-every-byte-boundary
//! reassembly → decode, and damaged frames fail closed — an error,
//! never a panic and never a silently different message.

use proptest::prelude::*;
use zerber_core::{ElementId, PlId};
use zerber_field::Fp;
use zerber_index::{DocId, GroupId, TermId};
use zerber_net::framing::{Frame, FrameDecoder};
use zerber_net::{AuthToken, Message, NodeId, StoredShare, WireDocument};

fn arb_share() -> impl Strategy<Value = StoredShare> {
    (any::<u64>(), any::<u32>(), 0..zerber_field::MODULUS).prop_map(|(e, g, y)| StoredShare {
        element: ElementId(e),
        group: GroupId(g),
        share: Fp::from_canonical(y),
    })
}

fn arb_wire_doc() -> impl Strategy<Value = WireDocument> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec((any::<u32>().prop_map(TermId), any::<u32>()), 0..10),
    )
        .prop_map(|(doc, group, length, terms)| WireDocument {
            doc: DocId(doc),
            group: GroupId(group),
            length,
            terms,
        })
}

/// Arbitrary non-NaN float (NaN would defeat the equality assertions
/// without exercising anything extra in a bit-exact codec).
fn arb_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let value = f64::from_bits(bits);
        if value.is_nan() {
            0.5
        } else {
            value
        }
    })
}

/// Every message family, including the shard-addressed serving frames
/// the socket transport actually carries.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        prop::collection::vec((any::<u32>().prop_map(PlId), arb_share()), 0..20)
            .prop_map(|entries| Message::InsertBatch { entries }),
        (
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec((any::<u32>().prop_map(TermId), arb_f64()), 0..8)
        )
            .prop_map(|(shard, k, terms)| Message::PlanQuery {
                shard,
                shape: 0,
                forced: 1,
                terms,
                k,
            }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec((any::<u32>().prop_map(DocId), arb_f64()), 0..12)
        )
            .prop_map(|(decode_ns, blocks_decoded, blocks_total, candidates)| {
                Message::TopKResponse {
                    decode_ns,
                    blocks_decoded,
                    blocks_total,
                    candidates,
                }
            }),
        (any::<u32>(), prop::collection::vec(arb_wire_doc(), 0..6))
            .prop_map(|(shard, docs)| Message::IndexDocs { shard, docs }),
        (any::<u32>(), any::<u32>()).prop_map(|(shard, doc)| Message::RemoveDoc {
            shard,
            doc: DocId(doc),
        }),
        any::<u64>().prop_map(|removed| Message::DeleteOk { removed }),
        Just(Message::InsertOk),
    ]
}

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
