//! Property tests for the compressed posting codec: encode→decode is
//! the identity for arbitrary sorted lists (including empty,
//! single-element, and keys and gaps up to the top of the 32-bit key
//! space), the block cursor's seeks (`advance_past`, then `next`) agree
//! with linear scanning, the streaming k-way merge matches the naive
//! merge, and the column codec round-trips arbitrary columns. A list
//! record damaged anywhere parses only if it reads back as its block
//! index and its maximum say.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use proptest::prelude::*;
use zerber_index::cursor::BlockCursor;
use zerber_index::DocId;
use zerber_postings::{
    column, merge_compressed, naive_merge, CompressedBlockCursor, CompressedPostingBuilder,
    CompressedPostingList, RawEntry,
};

/// Sorted lists with doc keys drawn from the full u32 range, so block
/// and list boundaries see gaps of up to 32 bits.
fn arb_entries() -> impl Strategy<Value = Vec<RawEntry>> {
    prop::collection::btree_map(
        any::<u32>(),
        (any::<u32>(), any::<u32>(), any::<u32>()),
        0..400,
    )
    .prop_map(|map: BTreeMap<u32, (u32, u32, u32)>| {
        map.into_iter()
            .map(|(doc, (count, doc_length, pos))| RawEntry {
                doc,
                count,
                doc_length,
                pos,
            })
            .collect()
    })
}

fn compress(entries: &[RawEntry]) -> CompressedPostingList {
    CompressedPostingBuilder::from_sorted(entries.iter().copied())
}

/// The first unconsumed posting with doc key >= `target`, consumed:
/// the cursor's `advance_past` to just below the target, then `next`,
/// whose `materialize` must score the same posting.
fn seek(cursor: &mut CompressedBlockCursor<'_>, target: u32) -> Option<RawEntry> {
    if let Some(below) = target.checked_sub(1) {
        cursor.advance_past(DocId(below));
    }
    let scored = cursor.materialize();
    let entry = cursor.next();
    assert_eq!(scored, entry.map(|e| (DocId(e.doc), e.term_frequency())));
    entry
}

proptest! {
    #[test]
    fn encode_decode_is_identity(entries in arb_entries()) {
        let list = compress(&entries);
        prop_assert_eq!(list.len(), entries.len());
        prop_assert_eq!(list.decode_all(), entries);
    }

    #[test]
    fn single_element_lists_round_trip(doc in any::<u32>(), count in any::<u32>()) {
        let entries = vec![RawEntry { doc, count, doc_length: count / 2, pos: count.wrapping_mul(3) }];
        prop_assert_eq!(compress(&entries).decode_all(), entries);
    }

    #[test]
    fn advance_past_matches_linear_scan(
        entries in arb_entries(),
        targets in prop::collection::vec(any::<u32>(), 1..20),
    ) {
        let list = compress(&entries);
        let mut iter = list.iter();
        // Reference cursor: the iterator never rewinds, so each seek
        // lands on the first *unconsumed* entry with doc >= target.
        let mut next_idx = 0usize;
        for target in targets {
            let pos = next_idx + entries[next_idx..].partition_point(|e| e.doc < target);
            let expected = entries.get(pos).copied();
            let got = seek(&mut iter, target);
            prop_assert_eq!(got, expected);
            next_idx = match expected {
                Some(_) => pos + 1,
                None => entries.len(),
            };
        }
    }

    #[test]
    fn merge_matches_naive_reference(
        lists in prop::collection::vec(arb_entries(), 0..5),
    ) {
        let compressed: Vec<CompressedPostingList> =
            lists.iter().map(|l| compress(l)).collect();
        let refs: Vec<&CompressedPostingList> = compressed.iter().collect();
        let merged = merge_compressed(&refs);
        prop_assert_eq!(merged.decode_all(), naive_merge(&refs));
    }

    #[test]
    fn column_codec_round_trips(values in prop::collection::vec(any::<u64>(), 0..600)) {
        let encoded = column::encode_column(&values);
        prop_assert_eq!(column::decode_column(&encoded), Some(values));
    }
}

#[test]
fn keys_at_the_top_of_the_range_cross_block_boundaries() {
    // 200 entries straddling a block boundary: doc 0, a gap of
    // u32::MAX − 198, then consecutive docs up to u32::MAX itself.
    let doc = |i: u32| if i == 0 { 0 } else { u32::MAX - 199 + i };
    let entries: Vec<RawEntry> = (0..200u32)
        .map(|i| RawEntry {
            doc: doc(i),
            count: i,
            doc_length: 1 + i,
            pos: i * 2,
        })
        .collect();
    let list = compress(&entries);
    assert_eq!(list.blocks().len(), 2);
    assert_eq!(list.block(1).last_doc, u32::MAX);
    assert_eq!(list.decode_all(), entries);
    let mut iter = list.iter();
    assert_eq!(seek(&mut iter, 1).unwrap().doc, doc(1));
    assert_eq!(seek(&mut iter, doc(150)).unwrap().doc, doc(150));
    assert_eq!(seek(&mut iter, u32::MAX).unwrap().doc, u32::MAX);
    assert!(seek(&mut iter, u32::MAX).is_none());
}

/// Why `list` does not read back as its record says, if it does not:
/// a read must yield exactly `len()` postings, strictly ascending, each
/// block ending on its index entry's `last_doc`, and none scoring above
/// the list's stated maximum (its score bound at weight 1).
fn inconsistency(list: &CompressedPostingList) -> Option<String> {
    let read = catch_unwind(AssertUnwindSafe(|| list.decode_all()));
    let Ok(entries) = read else {
        return Some("the read panicked".into());
    };
    if entries.len() != list.len() {
        return Some(format!("{} postings of {}", entries.len(), list.len()));
    }
    if !entries.windows(2).all(|pair| pair[0].doc < pair[1].doc) {
        return Some("doc keys not strictly ascending".into());
    }
    let mut rest = entries.as_slice();
    for (b, block) in list.blocks().enumerate() {
        let (held, later) = rest.split_at(usize::from(block.len));
        if held.last().map(|e| e.doc) != Some(block.last_doc) {
            return Some(format!("block {b} does not end on its last_doc"));
        }
        rest = later;
    }
    let max = list.iter().list_max_score();
    entries
        .iter()
        .find(|e| e.term_frequency() > max)
        .map(|e| format!("doc {} scores above the maximum {max}", e.doc))
}

#[test]
fn a_damaged_record_parses_only_if_it_reads_back_consistently() {
    // Three blocks: dense, patched (a 2^24 jump every 40 docs) and one
    // ending at u32::MAX, over counts and lengths of several widths.
    let dense = 0..128u32;
    let patched = (0..128u32).map(|i| 1000 + i + ((i / 40) << 24));
    let top = (0..44u32).map(|i| u32::MAX - 3 * (43 - i));
    let entries: Vec<RawEntry> = dense
        .chain(patched)
        .chain(top)
        .map(|doc| RawEntry {
            doc,
            count: doc % 5 + 1,
            doc_length: doc % 97 + 10,
            pos: doc % 300,
        })
        .collect();
    let list = compress(&entries);
    assert_eq!(list.blocks().len(), 3);
    assert_ne!(
        list.data()[list.block(1).offset] & 0x80,
        0,
        "block 1 is patched"
    );
    assert_eq!(list.block(2).last_doc, u32::MAX);
    assert_eq!(inconsistency(&list), None);
    let record = list.record();
    let (mut parsed, mut failures) = (0, Vec::new());
    for at in 0..record.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut damaged = record.to_vec();
            damaged[at] ^= mask;
            let Ok(damaged) = CompressedPostingList::parse(&Arc::new(damaged), 0) else {
                continue;
            };
            parsed += 1;
            if let Some(why) = inconsistency(&damaged) {
                failures.push(format!("byte {at} ^ {mask:#04x}: {why}"));
            }
        }
    }
    // Damage to a position, for one, leaves a consistent list.
    assert!(parsed > 0);
    assert!(
        failures.is_empty(),
        "{} of {parsed} parsed damaged records read back inconsistently: {failures:#?}",
        failures.len()
    );
}
