//! Property tests for the compressed posting codec: encode→decode is
//! the identity for arbitrary sorted lists (including empty,
//! single-element, and keys and gaps up to the top of the 32-bit key
//! space), the block cursor's seeks (`advance_past`, then `next`) agree
//! with linear scanning, the streaming k-way merge matches the naive
//! merge, and the column codec round-trips arbitrary columns.

use std::collections::BTreeMap;

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
