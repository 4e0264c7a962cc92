//! Property tests for the wire protocol: every message round-trips,
//! and neither truncation nor garbage decodes to something it is not.
//! The generators come from the frame table (`support`), so every live
//! tag is covered.

mod support;

use proptest::prelude::*;
use zerber_core::{ElementId, PlId};
use zerber_field::Fp;
use zerber_net::{Message, ShareColumns};

/// A share response of up to `lists` lists of fewer than `rows` rows.
fn arb_response(lists: usize, rows: usize) -> impl Strategy<Value = Message> {
    prop::collection::vec(support::arb_columns(rows), 0..lists)
        .prop_map(|lists| Message::QueryResponse { lists })
}

/// No strict prefix of a frame decodes, and a frame with any one byte
/// changed either fails to decode or decodes to the message that
/// encodes to exactly those bytes — never a panic, never a second
/// spelling of a value. A share response's id column has two block
/// encodings (deltas and the raw escape), so a damaged one need only
/// decode to something the encoder could have sent: it survives its
/// own round trip.
fn assert_fails_closed(message: &Message) -> Result<(), TestCaseError> {
    let encoded = message.encode();
    for cut in 0..encoded.len() {
        prop_assert!(Message::decode(&encoded[..cut]).is_err(), "cut at {}", cut);
    }
    let mut damaged = encoded.to_vec();
    for at in 0..damaged.len() {
        for mask in [0x01, 0x80, 0xff] {
            damaged[at] ^= mask;
            match Message::decode(&damaged) {
                Err(_) => {}
                Ok(decoded @ Message::QueryResponse { .. }) => {
                    prop_assert_eq!(Message::decode(&decoded.encode()), Ok(decoded));
                }
                Ok(decoded) => prop_assert_eq!(
                    decoded.encode(),
                    damaged.clone(),
                    "byte {} ^ {:#x} of {:?}",
                    at,
                    mask,
                    message
                ),
            }
            damaged[at] ^= mask;
        }
    }
    Ok(())
}

/// The same over one list long enough to span three id-column blocks,
/// the middle one (ids in no order at all) stored through the raw
/// escape.
#[test]
fn a_damaged_multi_block_share_response_fails_closed() {
    let mut list = ShareColumns::new(PlId(9));
    let mut wild = 0x9E37_79B9_7F4A_7C15u64;
    for row in 0..260u64 {
        wild = wild.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
        let element = if (128..256).contains(&row) {
            wild
        } else {
            (3 << 40) | (row * 200)
        };
        list.push(ElementId(element), Fp::new(wild >> 3));
    }
    let message = Message::QueryResponse {
        lists: vec![list, ShareColumns::new(PlId(10))],
    };
    // 128 raw ids cost 8 bytes each; the other 132 about two.
    let size = message.encode().len();
    assert!((260 * 8 + 128 * 8 + 132 * 2..260 * 8 + 128 * 8 + 132 * 3).contains(&size));
    assert_fails_closed(&message).unwrap();
}

proptest! {
    #[test]
    fn encode_decode_round_trips(
        message in prop_oneof![support::arb_message(), arb_response(8, 300)],
    ) {
        let encoded = message.encode();
        prop_assert_eq!(Message::decode(&encoded).unwrap(), message);
    }

    #[test]
    fn truncation_never_decodes_to_the_same_message(message in support::arb_message()) {
        let encoded = message.encode();
        prop_assume!(encoded.len() > 1);
        // Cutting the last byte must not silently yield the original.
        match Message::decode(&encoded[..encoded.len() - 1]) {
            Err(_) => {}
            Ok(decoded) => prop_assert_ne!(decoded, message),
        }
    }

    #[test]
    fn a_damaged_share_response_fails_closed(message in arb_response(4, 24)) {
        assert_fails_closed(&message)?;
    }

    /// One message of each of the 21 live tags per case, every byte of
    /// it damaged three ways.
    #[test]
    fn every_damaged_frame_fails_closed(messages in support::every_frame()) {
        prop_assert_eq!(messages.len(), 21);
        for message in &messages {
            assert_fails_closed(message)?;
        }
    }

    #[test]
    fn garbage_input_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Message::decode(&bytes); // must not panic
    }
}
