//! Property tests for the wire protocol: every message round-trips,
//! and neither truncation nor garbage decodes to something it is not.

use proptest::prelude::*;
use zerber_core::{ElementId, PlId};
use zerber_field::Fp;
use zerber_index::GroupId;
use zerber_net::{AuthToken, Message, StoredShare};

fn arb_share() -> impl Strategy<Value = StoredShare> {
    (any::<u64>(), any::<u32>(), 0..zerber_field::MODULUS).prop_map(|(e, g, y)| StoredShare {
        element: ElementId(e),
        group: GroupId(g),
        share: Fp::from_canonical(y),
    })
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
            prop::collection::vec(any::<u32>().prop_map(PlId), 0..40)
        )
            .prop_map(|(auth, pl_ids)| Message::Query {
                auth: AuthToken(auth),
                pl_ids,
            }),
        prop::collection::vec(
            (
                any::<u32>().prop_map(PlId),
                prop::collection::vec(arb_share(), 0..10)
            ),
            0..8
        )
        .prop_map(|lists| Message::QueryResponse { lists }),
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
    fn garbage_input_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Message::decode(&bytes); // must not panic
    }
}
