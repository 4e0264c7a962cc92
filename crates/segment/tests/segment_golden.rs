//! The segment format, byte for byte: one small fixed batch flushed
//! into a store — one list of two blocks and one tombstone — with its
//! `.zseg` file and the MANIFEST naming it pinned as hex. A change to
//! how segments are built, held or written must leave this file
//! passing unmodified; a change to the format has to bump the frame
//! `VERSION` and re-pin both files here. The files format 3 wrote for
//! the same batch stay as test input: a store an older build left
//! behind must be refused, not misread.

use zerber_index::{DocId, Document, GroupId, SegmentPolicy, TermId};
use zerber_segment::{ScratchDir, SegmentError, SegmentStore};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|byte| format!("{byte:02x}")).collect()
}

/// A store that seals only on request and never compacts.
fn policy() -> SegmentPolicy {
    SegmentPolicy {
        flush_postings: usize::MAX,
        max_segments: usize::MAX,
        background: false,
        ..SegmentPolicy::default()
    }
}

fn doc(id: u32, terms: &[(u32, u32)]) -> Document {
    Document::from_term_counts(
        DocId(id),
        GroupId(0),
        terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
    )
}

/// `seg-000002.zseg`: the frame header, then term slots, the live and
/// tombstone tables, and the two lists (terms 0 and 2) as records.
const SEGMENT: &str = concat!(
    "4745535a04000000ab03000000000000e3ccc808030000008200000000000000030000000600000009000000",
    "0c0000000f0000001200000015000000180000001b0000001e0000002100000024000000270000002a000000",
    "2d000000300000003300000036000000390000003c0000003f0000004200000045000000480000004b000000",
    "4e0000005100000054000000570000005a0000005d000000600000006300000066000000690000006c000000",
    "6f0000007200000075000000780000007b0000007e0000008100000084000000870000008a0000008d000000",
    "900000009300000096000000990000009c0000009f000000a2000000a5000000a8000000ab000000ae000000",
    "b1000000b4000000b7000000ba000000bd000000c0000000c3000000c6000000c9000000cc000000cf000000",
    "d2000000d5000000d8000000db000000de000000e1000000e4000000e7000000ea000000ed000000f0000000",
    "f3000000f6000000f9000000fc000000ff0000000201000005010000080100000b0100000e01000011010000",
    "14010000170100001a0100001d010000200100002301000026010000290100002c0100002f01000032010000",
    "35010000380100003b0100003e0100004101000044010000470100004a0100004d0100005001000053010000",
    "56010000590100005c0100005f0100006201000065010000680100006b0100006e0100007101000074010000",
    "770100007a0100007d010000800100008301000001000000e803000002000000000000008200000000000000",
    "7b0000000000000002020300aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa2a",
    "799ee7799ee7799ee7799ee7799ee7799ee7799ee7799ee7799ee7799ee7799e1a356ad4a851a3468d1a356a",
    "d4a851a3468d1a356ad4a851a3468d1a356ad4a851a3468d1a356ad4a851a3468d1a356a0202030002071400",
    "0000000000e83f02000000000000007d01000080000000000000000000800100008301000002007400000000",
    "0000000200000082000000000000008c0000000000000002010302aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaa2affffffffffffffffffffffffffffffff1a356ad4a851a3468d1a356ad4",
    "a851a3468d1a356ad4a851a3468d1a356ad4a851a3468d1a356ad4a851a3468d1a356a799ee7799ee7799ee7",
    "799ee7799ee7799ee7799ee7799ee7799ee7799ee7799e0201030202031407000000000000e03f0200000000",
    "0000007d01000080000000000000000000800100008301000002008400000000000000",
);

/// `MANIFEST.zman`: the frame header, the next sequence number and the
/// two segment names.
const MANIFEST: &str = concat!(
    "4745535a040000002e000000000000000fa991a60300000000000000020000000f007365672d303030303031",
    "2e7a7365670f007365672d3030303030322e7a736567",
);

/// The parent format's files, as format 3 wrote the same batch: test
/// input for a store an older build left behind.
const SEGMENT_V3: &str = concat!(
    "4745535a03000000cb0300000000000043989ca1030000008200000000000000030000000600000009000000",
    "0c0000000f0000001200000015000000180000001b0000001e0000002100000024000000270000002a000000",
    "2d000000300000003300000036000000390000003c0000003f0000004200000045000000480000004b000000",
    "4e0000005100000054000000570000005a0000005d000000600000006300000066000000690000006c000000",
    "6f0000007200000075000000780000007b0000007e0000008100000084000000870000008a0000008d000000",
    "900000009300000096000000990000009c0000009f000000a2000000a5000000a8000000ab000000ae000000",
    "b1000000b4000000b7000000ba000000bd000000c0000000c3000000c6000000c9000000cc000000cf000000",
    "d2000000d5000000d8000000db000000de000000e1000000e4000000e7000000ea000000ed000000f0000000",
    "f3000000f6000000f9000000fc000000ff0000000201000005010000080100000b0100000e01000011010000",
    "14010000170100001a0100001d010000200100002301000026010000290100002c0100002f01000032010000",
    "35010000380100003b0100003e0100004101000044010000470100004a0100004d0100005001000053010000",
    "56010000590100005c0100005f0100006201000065010000680100006b0100006e0100007101000074010000",
    "770100007a0100007d010000800100008301000001000000e803000002000000000000008200000000000000",
    "7b0000000000000002020300aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa2a",
    "799ee7799ee7799ee7799ee7799ee7799ee7799ee7799ee7799ee7799ee7799e1a356ad4a851a3468d1a356a",
    "d4a851a3468d1a356ad4a851a3468d1a356ad4a851a3468d1a356ad4a851a3468d1a356a0202030002071400",
    "0000000000e83f0200000000000000000000007d010000000000008000000000000000000080010000000000",
    "008301000000000000020074000000000000000200000082000000000000008c0000000000000002010302aa",
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa2affffffffffffffffffffffffff",
    "ffffff1a356ad4a851a3468d1a356ad4a851a3468d1a356ad4a851a3468d1a356ad4a851a3468d1a356ad4a8",
    "51a3468d1a356a799ee7799ee7799ee7799ee7799ee7799ee7799ee7799ee7799ee7799ee7799e0201030202",
    "031407000000000000e03f0200000000000000000000007d0100000000000080000000000000000000800100",
    "0000000000830100000000000002008400000000000000",
);

/// The format-3 `MANIFEST.zman` naming the two segments.
const MANIFEST_V3: &str = concat!(
    "4745535a030000002e000000000000000fa991a60300000000000000020000000f007365672d303030303031",
    "2e7a7365670f007365672d3030303030322e7a736567",
);

#[test]
fn a_flushed_segment_and_its_manifest_are_pinned() {
    let dir = ScratchDir::new("segment-golden");
    let store = SegmentStore::open(&dir, policy()).unwrap();
    // An older segment, so the tombstone below has something to mask
    // and the flush keeps it.
    store.insert(&[doc(1_000, &[(1, 1)])]).unwrap();
    store.flush().unwrap();
    // Term 0 over 130 documents: a full block and a partial one.
    let batch: Vec<Document> = (0..130u32)
        .map(|d| doc(d * 3, &[(0, 1 + d % 3), (2, 1)]))
        .collect();
    store.insert(&batch).unwrap();
    store.delete(DocId(1_000)).unwrap();
    store.flush().unwrap();
    drop(store);

    let segment = std::fs::read(dir.join("seg-000002.zseg")).unwrap();
    let manifest = std::fs::read(dir.join("MANIFEST.zman")).unwrap();
    assert_eq!(hex(&segment), SEGMENT, "seg-000002.zseg");
    assert_eq!(hex(&manifest), MANIFEST, "MANIFEST.zman");
}

/// A store an older format left behind is refused, not misread: its
/// MANIFEST opens as `Corrupt` with "unsupported version", and the
/// open deletes, creates and rewrites nothing in its directory.
#[test]
fn a_format_3_store_opens_as_unsupported_and_is_left_as_it_was() {
    let dir = ScratchDir::new("segment-golden-v3");
    let unhex = |hex: &str| -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|at| u8::from_str_radix(&hex[at..at + 2], 16).unwrap())
            .collect()
    };
    std::fs::write(dir.join("seg-000002.zseg"), unhex(SEGMENT_V3)).unwrap();
    std::fs::write(dir.join("MANIFEST.zman"), unhex(MANIFEST_V3)).unwrap();
    let files = || {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&*dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .map(|path| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        files
    };
    let before = files();
    match SegmentStore::open(&dir, policy()) {
        Err(SegmentError::Corrupt { reason, .. }) => assert_eq!(reason, "unsupported version"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!(files(), before, "the directory is unchanged");
}
