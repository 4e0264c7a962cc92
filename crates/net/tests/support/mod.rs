//! Generators for every live frame of the wire protocol, built from the
//! frame table itself (`zerber_net::wire_frames!`): one strategy per
//! row, each field drawn through its type's [`Arb`] impl, so a frame
//! added to the table is generated without a line here.

#![allow(dead_code)] // each test binary uses its own share of these

use proptest::prelude::*;
use zerber_core::{ElementId, PlId};
use zerber_field::{Fp, MODULUS};
use zerber_index::{DocId, GroupId, TermId};
use zerber_net::{AuthToken, ListVersion, Message, ShareColumns, StoredShare, WireDocument};

/// The strategy a frame field of this type is drawn from.
pub trait Arb: Sized + 'static {
    fn arb() -> BoxedStrategy<Self>;
}

macro_rules! arb_any {
    ($($ty:ty),*) => {$(
        impl Arb for $ty {
            fn arb() -> BoxedStrategy<Self> {
                any::<$ty>().boxed()
            }
        }
    )*};
}

arb_any!(u8, u32, u64);

macro_rules! arb_ids {
    ($($id:ident($int:ty)),*) => {$(
        impl Arb for $id {
            fn arb() -> BoxedStrategy<Self> {
                any::<$int>().prop_map($id).boxed()
            }
        }
    )*};
}

arb_ids!(
    AuthToken(u64),
    PlId(u32),
    GroupId(u32),
    TermId(u32),
    DocId(u32)
);

/// Any bit pattern but NaN's, which would defeat the equality
/// assertions without exercising anything extra in a bit-exact codec.
impl Arb for f64 {
    fn arb() -> BoxedStrategy<Self> {
        any::<u64>()
            .prop_map(|bits| match f64::from_bits(bits) {
                value if value.is_nan() => 0.5,
                value => value,
            })
            .boxed()
    }
}

impl Arb for Fp {
    fn arb() -> BoxedStrategy<Self> {
        (0..MODULUS).prop_map(Fp::from_canonical).boxed()
    }
}

/// Element ids as owners mint them (`owner << 40 | sequence`, a few
/// owners so a column jumps between them) or, one time in four, any
/// 64 bits at all — in whatever order the generator produced them.
impl Arb for ElementId {
    fn arb() -> BoxedStrategy<Self> {
        (0u8..4, 0u64..6, 0u64..5_000, any::<u64>())
            .prop_map(|(kind, owner, sequence, wild)| {
                ElementId(if kind == 0 {
                    wild
                } else {
                    (owner << 40) | sequence
                })
            })
            .boxed()
    }
}

/// Names of one- to four-byte characters, so a damaged byte can land
/// inside a multi-byte one.
impl Arb for String {
    fn arb() -> BoxedStrategy<Self> {
        let pieces = ["a", "Z", "-", ".", "é", "€", "🦀"];
        prop::collection::vec(0..pieces.len(), 0..8)
            .prop_map(move |picks| picks.into_iter().map(|at| pieces[at]).collect())
            .boxed()
    }
}

/// A list version with counts of one to ten LEB128 bytes.
impl Arb for ListVersion {
    fn arb() -> BoxedStrategy<Self> {
        (0u32..64, any::<u64>(), 0u32..64, any::<u64>())
            .prop_map(|(a, content, b, membership)| ListVersion {
                content: content >> a,
                membership: membership >> b,
            })
            .boxed()
    }
}

/// The version a request holds for a list, if any.
impl Arb for Option<ListVersion> {
    fn arb() -> BoxedStrategy<Self> {
        (any::<bool>(), ListVersion::arb())
            .prop_map(|(held, version)| held.then_some(version))
            .boxed()
    }
}

impl Arb for StoredShare {
    fn arb() -> BoxedStrategy<Self> {
        (any::<u64>(), GroupId::arb(), Fp::arb())
            .prop_map(|(element, group, share)| StoredShare {
                element: ElementId(element),
                group,
                share,
            })
            .boxed()
    }
}

impl Arb for ShareColumns {
    fn arb() -> BoxedStrategy<Self> {
        arb_columns(24).boxed()
    }
}

/// One list of a share response of fewer than `rows` rows: unchanged,
/// empty, one-element, and (for `rows` above 128) past the id column's
/// 128-value block, at any version and round.
pub fn arb_columns(rows: usize) -> impl Strategy<Value = ShareColumns> {
    let row = (ElementId::arb(), Fp::arb());
    let stamp = (ListVersion::arb(), any::<u64>(), 0u8..4);
    (any::<u32>(), stamp, prop::collection::vec(row, 0..rows)).prop_map(
        |(pl, (version, round, state), rows)| {
            let round = round >> (16 * state);
            if state == 0 {
                return ShareColumns::unchanged(PlId(pl), version, round);
            }
            let mut list = ShareColumns::new(PlId(pl));
            for (element, share) in rows {
                list.push(element, share);
            }
            list.stamped(version, round)
        },
    )
}

impl Arb for WireDocument {
    fn arb() -> BoxedStrategy<Self> {
        (DocId::arb(), GroupId::arb(), any::<u32>(), Vec::arb())
            .prop_map(|(doc, group, length, terms)| WireDocument {
                doc,
                group,
                length,
                terms,
            })
            .boxed()
    }
}

impl<A: Arb, B: Arb> Arb for (A, B) {
    fn arb() -> BoxedStrategy<Self> {
        (A::arb(), B::arb()).boxed()
    }
}

impl<A: Arb, B: Arb, C: Arb> Arb for (A, B, C) {
    fn arb() -> BoxedStrategy<Self> {
        (A::arb(), B::arb(), C::arb()).boxed()
    }
}

impl<T: Arb> Arb for Vec<T> {
    fn arb() -> BoxedStrategy<Self> {
        prop::collection::vec(T::arb(), 0..6).boxed()
    }
}

/// Writes [`every_frame`] from the table's rows.
macro_rules! frame_generators {
    ($(
        $(#[$meta:meta])*
        $tag:literal $name:ident $({ $(
            $(#[$field_meta:meta])*
            $field:ident: $ty:ty $(where len <= $cap:ident else $rule:literal)?
        ),* $(,)? })?
    ),* $(,)?) => {
        /// One generator per live tag, in table order: as a strategy,
        /// one message of every tag per case.
        pub fn every_frame() -> Vec<BoxedStrategy<Message>> {
            vec![$(
                (Just(()), $($(<$ty as Arb>::arb(),)*)?)
                    .prop_map(|((), $($($field,)*)?)| Message::$name $({ $($field),* })?)
                    .boxed()
            ),*]
        }
    };
}

zerber_net::wire_frames!(frame_generators);

/// A message of any live tag, each tag equally likely.
pub fn arb_message() -> impl Strategy<Value = Message> {
    proptest::Union::new(every_frame())
}
