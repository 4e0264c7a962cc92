//! Property tests for the wire protocol: every message round-trips,
//! and neither truncation nor garbage decodes to something it is not.

use proptest::prelude::*;
use zerber_core::{ElementId, PlId};
use zerber_field::Fp;
use zerber_index::GroupId;
use zerber_net::{AuthToken, ListVersion, Message, ShareColumns, StoredShare};

fn arb_share() -> impl Strategy<Value = StoredShare> {
    (any::<u64>(), any::<u32>(), 0..zerber_field::MODULUS).prop_map(|(e, g, y)| StoredShare {
        element: ElementId(e),
        group: GroupId(g),
        share: Fp::from_canonical(y),
    })
}

/// Element ids as owners mint them (`owner << 40 | sequence`, a few
/// owners so a column jumps between them) or, one time in four, any
/// 64 bits at all — in whatever order the generator produced them.
fn arb_element() -> impl Strategy<Value = ElementId> {
    (0u8..4, 0u64..6, 0u64..5_000, any::<u64>()).prop_map(|(kind, owner, sequence, wild)| {
        ElementId(if kind == 0 {
            wild
        } else {
            (owner << 40) | sequence
        })
    })
}

/// A list version with counts of one to ten LEB128 bytes.
fn arb_version() -> impl Strategy<Value = ListVersion> {
    (0u32..64, any::<u64>(), 0u32..64, any::<u64>()).prop_map(|(a, content, b, membership)| {
        ListVersion {
            content: content >> a,
            membership: membership >> b,
        }
    })
}

/// The version a request holds for a list, if any.
fn arb_held() -> impl Strategy<Value = Option<ListVersion>> {
    (any::<bool>(), arb_version()).prop_map(|(held, version)| held.then_some(version))
}

/// A share response of up to `lists` lists of fewer than `rows` rows:
/// unchanged lists, empty lists, one-element lists and lists past the
/// id column's 128-value block among them, at any version and round.
fn arb_response(lists: usize, rows: usize) -> impl Strategy<Value = Message> {
    let row = (arb_element(), 0..zerber_field::MODULUS);
    let stamp = (arb_version(), any::<u64>(), 0u8..4);
    let list = (any::<u32>(), stamp, prop::collection::vec(row, 0..rows)).prop_map(
        |(pl, (version, round, state), rows)| {
            let round = round >> (16 * state);
            if state == 0 {
                return ShareColumns::unchanged(PlId(pl), version, round);
            }
            let mut list = ShareColumns::new(PlId(pl));
            for (element, y) in rows {
                list.push(element, Fp::from_canonical(y));
            }
            list.stamped(version, round)
        },
    );
    prop::collection::vec(list, 0..lists).prop_map(|lists| Message::QueryResponse { lists })
}

/// No strict prefix of a share response decodes, and a response with
/// any one byte changed either fails to decode or decodes to something
/// the encoder could have sent (it survives its own round trip) —
/// never a panic, never a value outside the frame's domain.
fn assert_fails_closed(message: &Message) -> Result<(), TestCaseError> {
    let encoded = message.encode();
    for cut in 0..encoded.len() {
        prop_assert!(Message::decode(&encoded[..cut]).is_err(), "cut at {}", cut);
    }
    let mut damaged = encoded.to_vec();
    for at in 0..damaged.len() {
        for mask in [0x01, 0x80, 0xff] {
            damaged[at] ^= mask;
            if let Ok(decoded) = Message::decode(&damaged) {
                prop_assert_eq!(Message::decode(&decoded.encode()), Ok(decoded));
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

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        prop::collection::vec((any::<u32>().prop_map(PlId), arb_share()), 0..40)
            .prop_map(|entries| Message::InsertBatch { entries }),
        prop::collection::vec(
            (
                any::<u32>().prop_map(PlId),
                any::<u64>().prop_map(ElementId)
            ),
            0..40
        )
        .prop_map(|elements| Message::Delete { elements }),
        (
            any::<u64>(),
            prop::collection::vec((any::<u32>().prop_map(PlId), arb_held()), 0..40)
        )
            .prop_map(|(auth, lists)| Message::Query {
                auth: AuthToken(auth),
                lists,
            }),
        arb_response(8, 300),
    ]
}

proptest! {
    #[test]
    fn encode_decode_round_trips(message in arb_message()) {
        let encoded = message.encode();
        prop_assert_eq!(Message::decode(&encoded).unwrap(), message);
    }

    #[test]
    fn truncation_never_decodes_to_the_same_message(message in arb_message()) {
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

    #[test]
    fn garbage_input_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Message::decode(&bytes); // must not panic
    }
}
