//! The wire format, byte for byte: one instance of every live message
//! tag (1, 2, 8–16, 18, 19, 21, 22, 24–29) and of both frame kinds
//! (request 3, response 2), pinned as hex, and the retired tags 3, 17,
//! 20 and 23 and the retired request kind 1 refused in their last
//! pinned shape. A change to the codec's plumbing must leave this file
//! passing unmodified; a change to the format has to edit a line here
//! and say so.

use zerber_core::{ElementId, PlId};
use zerber_field::Fp;
use zerber_index::{DocId, GroupId, TermId};
use zerber_net::framing::{Frame, FrameDecoder, FrameError};
use zerber_net::message::fault;
use zerber_net::{
    AuthToken, ListVersion, Message, NodeId, ShareColumns, StoredShare, WireDocument, WireError,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|byte| format!("{byte:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    assert!(hex.len() & 1 == 0, "whole octets");
    (0..hex.len())
        .step_by(2)
        .map(|at| u8::from_str_radix(&hex[at..at + 2], 16).expect("hex digits"))
        .collect()
}

fn document() -> WireDocument {
    WireDocument {
        doc: DocId(7),
        group: GroupId(1),
        length: 12,
        terms: vec![(TermId(3), 2), (TermId(9), 10)],
    }
}

/// `(tag, message, encoding)` for every tag but the two that carry a
/// file payload (19, 26 — pinned below from their bytes, so this file
/// never names the payload's type).
fn golden_messages() -> Vec<(u8, Message, &'static str)> {
    let version = |content, membership| ListVersion {
        content,
        membership,
    };
    let mut columns = ShareColumns::new(PlId(5));
    columns.push(ElementId((3 << 40) | 100), Fp::new(0x0123_4567_89ab_cdef));
    columns.push(ElementId((3 << 40) | 300), Fp::new(2));
    let columns = columns.stamped(version(2, 1), 3);
    vec![
        (
            1,
            Message::InsertBatch {
                entries: vec![(
                    PlId(9),
                    StoredShare {
                        element: ElementId(0x0102_0304_0506_0708),
                        group: GroupId(3),
                        share: Fp::new(99_999),
                    },
                )],
            },
            "010000000100000009010203040506070800000003000000000001869f",
        ),
        (
            2,
            Message::Delete {
                elements: vec![(PlId(4), ElementId(77)), (PlId(4), ElementId(78))],
            },
            "020000000200000004000000000000004d00000004000000000000004e",
        ),
        (
            8,
            Message::TopKResponse {
                decode_ns: 123_456,
                blocks_decoded: 3,
                blocks_total: 11,
                candidates: vec![(DocId(3), 1.0 / 3.0), (DocId(1), 0.0)],
            },
            "08000000000001e240000000030000000b00000002000000033fd5555555555555000000010000000000000000",
        ),
        (9, Message::InsertOk, "09"),
        (10, Message::DeleteOk { removed: 42 }, "0a000000000000002a"),
        (
            11,
            Message::Fault {
                code: fault::NOT_GROUP_MEMBER,
                group: GroupId(9),
            },
            "0b0200000009",
        ),
        (
            12,
            Message::IndexDocs {
                shard: 5,
                docs: vec![document()],
            },
            "0c000000050000000100000007000000010000000c000000020000000300000002000000090000000a",
        ),
        (
            13,
            Message::RemoveDoc {
                shard: 1,
                doc: DocId(99),
            },
            "0d0000000100000063",
        ),
        (
            14,
            Message::BulkLoad {
                shard: 2,
                docs: vec![document()],
            },
            "0e000000020000000100000007000000010000000c000000020000000300000002000000090000000a",
        ),
        (
            15,
            Message::PlanQuery {
                shard: 2,
                shape: 2,
                forced: 1,
                terms: vec![(TermId(7), 0.1), (TermId(9), 3.75)],
                k: 10,
            },
            "0f0000000202010000000a00000002000000073fb999999999999a00000009400e000000000000",
        ),
        (16, Message::PrepareSnapshot { shard: 3 }, "1000000003"),
        (
            18,
            Message::FetchSegment {
                shard: 3,
                name: "seg-000001.zseg".to_string(),
            },
            "12000000030000000f7365672d3030303030312e7a736567",
        ),
        (21, Message::Ping, "15"),
        (22, Message::Pong, "16"),
        (
            24,
            Message::SnapshotManifest {
                shard: 3,
                files: vec![("MANIFEST".to_string(), 96, 0xdead_beef)],
            },
            "180000000300000001000000084d414e49464553540000000000000060deadbeef",
        ),
        (25, Message::InstallBegin { shard: 3 }, "1900000003"),
        (27, Message::InstallCommit { shard: 3 }, "1b00000003"),
        (
            28,
            Message::Query {
                auth: AuthToken(0xdead_beef),
                lists: vec![(PlId(0), None), (PlId(31_999), Some(version(300, 2)))],
            },
            "1c00000000deadbeef00000002000000000000007cff01ac0202",
        ),
        (
            29,
            Message::QueryResponse {
                lists: vec![
                    columns,
                    ShareColumns::unchanged(PlId(6), version(0, 1), 3),
                ],
            },
            "1d000000020000000502010301\
             0201c881808080c00190030123456789abcdef0000000000000002\
             0000000600010300",
        ),
    ]
}

const SEGMENT_DATA: &str = "13cafef00d0000000d7365676d656e74206279746573";
const INSTALL_FILE: &str = "1a000000030000000f7365672d3030303030312e7a736567\
     cafef00d0000000d7365676d656e74206279746573";

/// The last pinned bytes of the two retired repair frames: tag 17, the
/// snapshot manifest that carried the source store's epoch, and tag
/// 20, the install frame whose steps a name and a commit byte told
/// apart.
const RETIRED: [&str; 2] = [
    "1100000003000000000000001100000001000000084d414e49464553540000000000000060deadbeef",
    "140000000300000000000000110000000f7365672d3030303030312e7a736567\
     cafef00d010000000d7365676d656e74206279746573",
];

#[test]
fn every_live_tag_encodes_to_its_pinned_bytes() {
    let mut tags = Vec::new();
    for (tag, message, golden) in golden_messages() {
        assert_eq!(hex(&message.encode()), golden, "tag {tag}");
        assert_eq!(unhex(golden)[0], tag);
        assert_eq!(Message::decode(&unhex(golden)), Ok(message), "tag {tag}");
        tags.push(tag);
    }

    let segment_data = Message::decode(&unhex(SEGMENT_DATA)).expect("tag 19 decodes");
    match &segment_data {
        Message::SegmentData { crc, payload } => {
            assert_eq!(*crc, 0xcafe_f00d);
            assert_eq!(payload[..], b"segment bytes"[..]);
        }
        other => panic!("tag 19 decoded as {other:?}"),
    }
    assert_eq!(hex(&segment_data.encode()), SEGMENT_DATA);
    tags.push(unhex(SEGMENT_DATA)[0]);

    let install = Message::decode(&unhex(INSTALL_FILE)).expect("tag 26 decodes");
    match &install {
        Message::InstallFile {
            shard,
            name,
            crc,
            payload,
        } => {
            assert_eq!((*shard, *crc), (3, 0xcafe_f00d));
            assert_eq!(name, "seg-000001.zseg");
            assert_eq!(payload[..], b"segment bytes"[..]);
        }
        other => panic!("tag 26 decoded as {other:?}"),
    }
    assert_eq!(hex(&install.encode()), INSTALL_FILE);
    tags.push(unhex(INSTALL_FILE)[0]);

    tags.sort_unstable();
    let live: Vec<u8> = (1..=2)
        .chain(8..=16)
        .chain(18..=19)
        .chain(21..=22)
        .chain(24..=29)
        .collect();
    assert_eq!(tags, live, "one instance of every live tag");
}

#[test]
fn the_retired_repair_tags_stay_undecodable() {
    for (tag, retired) in [17, 20].into_iter().zip(RETIRED) {
        assert_eq!(
            Message::decode(&unhex(retired)),
            Err(WireError::UnknownTag(tag))
        );
    }
}

/// The last pinned bytes of the two retired share frames: tag 3, the
/// request that named no version, and tag 23, the response that carried
/// neither a version nor a refresh round.
const RETIRED_SHARE: [&str; 2] = [
    "0300000000deadbeef000000020000000000007cff",
    "1700000002000000050201c881808080c00190030123456789abcdef00000000000000020000000600",
];

#[test]
fn the_retired_share_tags_stay_undecodable() {
    for (tag, retired) in [3, 23].into_iter().zip(RETIRED_SHARE) {
        assert_eq!(
            Message::decode(&unhex(retired)),
            Err(WireError::UnknownTag(tag))
        );
    }
}

#[test]
fn both_frame_kinds_encode_to_their_pinned_bytes() {
    let request = Frame::Request {
        id: 7,
        from: NodeId::Owner(3),
        auth: AuthToken(0xfeed),
        payload: unhex("0a000000000000002a"),
    };
    let response = Frame::Response {
        id: u64::MAX,
        payload: unhex("0b0200000009"),
    };
    let pinned = [
        (
            request,
            "000000230300000000000000070200000003000000000000feed\
             0a000000000000002a9f72906c",
        ),
        (response, "0000001302ffffffffffffffff0b020000000924bfb8c0"),
    ];
    for (frame, golden) in pinned {
        assert_eq!(hex(&frame.encode()), golden);
        let mut decoder = FrameDecoder::new();
        decoder.push(&unhex(golden));
        assert_eq!(decoder.next_frame(), Ok(Some(frame)));
        assert_eq!(decoder.pending_bytes(), 0);
    }
}

/// The request frame of kind 1, which also carried a query-trace id,
/// in its last pinned shape: its CRC holds, and its kind is refused.
const RETIRED_REQUEST: &str =
    "0000002b0100000000000000070200000003000000000000feed00000000000decaf\
     0a000000000000002a05b5e206";

#[test]
fn the_retired_request_kind_stays_undecodable() {
    let mut decoder = FrameDecoder::new();
    decoder.push(&unhex(RETIRED_REQUEST));
    assert_eq!(decoder.next_frame(), Err(FrameError::BadKind(1)));
}
