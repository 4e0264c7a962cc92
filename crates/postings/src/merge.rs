//! Streaming k-way merge of compressed posting lists.
//!
//! Segment compaction and server-side list consolidation both need to
//! combine many sorted lists into one. The merge here streams: each
//! input contributes one decoded block at a time through its
//! [`crate::CompressedBlockCursor`] (or any other sorted posting
//! stream, see [`merge_sorted`]) and output blocks are sealed as
//! they fill, so peak memory is `O(k · BLOCK_SIZE)` instead of the
//! total posting count a `Vec<Posting>`-materializing merge would
//! need.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::block::RawEntry;
use crate::builder::CompressedPostingBuilder;
use crate::list::CompressedPostingList;

/// Merges doc-key-sorted compressed lists into one compressed list.
///
/// When the same doc key appears in several inputs, the posting from
/// the **latest** list (highest index in `lists`) wins — inputs are
/// treated as segments in recency order, matching the "only the most
/// recent copy of the document" semantics of index re-insertion.
pub fn merge_compressed(lists: &[&CompressedPostingList]) -> CompressedPostingList {
    merge_sorted(lists.iter().map(|l| l.iter()).collect())
}

/// [`merge_compressed`] over arbitrary doc-key-sorted posting streams
/// (same latest-input-wins rule) — block cursors, decoded slices, or
/// either behind a caller's filter.
pub fn merge_sorted<I: Iterator<Item = RawEntry>>(mut iters: Vec<I>) -> CompressedPostingList {
    // Min-heap keyed on (doc, input index): pops group duplicates of a
    // doc together, in ascending recency order. While `(doc, i)` is in
    // the heap, `heads[i]` holds input i's posting for it.
    let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::with_capacity(iters.len());
    let blank = RawEntry {
        doc: 0,
        count: 0,
        doc_length: 0,
        pos: 0,
    };
    let mut heads = vec![blank; iters.len()];
    for i in 0..iters.len() {
        refill(&mut iters, &mut heads, &mut heap, i);
    }

    let mut builder = CompressedPostingBuilder::new();
    while let Some(Reverse((doc, first))) = heap.pop() {
        let (mut winner, mut entry) = (first, heads[first]);
        // Drain every other list parked on the same doc; recency
        // (highest list index) wins.
        while let Some(&Reverse((d, i))) = heap.peek() {
            if d != doc {
                break;
            }
            heap.pop();
            if i > winner {
                (winner, entry) = (i, heads[i]);
            }
            refill(&mut iters, &mut heads, &mut heap, i);
        }
        builder.push(entry);
        refill(&mut iters, &mut heads, &mut heap, first);
    }
    builder.build()
}

/// Parks input `idx`'s next posting in `heads` and the heap.
fn refill<I: Iterator<Item = RawEntry>>(
    iters: &mut [I],
    heads: &mut [RawEntry],
    heap: &mut BinaryHeap<Reverse<(u32, usize)>>,
    idx: usize,
) {
    if let Some(entry) = iters[idx].next() {
        heads[idx] = entry;
        heap.push(Reverse((entry.doc, idx)));
    }
}

/// Reference merge used by the equivalence tests: decodes everything,
/// concatenates, sorts, and deduplicates with the same
/// latest-list-wins policy.
pub fn naive_merge(lists: &[&CompressedPostingList]) -> Vec<RawEntry> {
    let mut all: Vec<(usize, RawEntry)> = lists
        .iter()
        .enumerate()
        .flat_map(|(i, list)| list.iter().map(move |e| (i, e)))
        .collect();
    // Sort by doc, then segment index; the last duplicate kept wins.
    all.sort_by_key(|&(i, e)| (e.doc, i));
    let mut merged: Vec<RawEntry> = Vec::with_capacity(all.len());
    for (_, entry) in all {
        match merged.last_mut() {
            Some(last) if last.doc == entry.doc => *last = entry,
            _ => merged.push(entry),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list_from(entries: &[(u32, u32)]) -> CompressedPostingList {
        CompressedPostingBuilder::from_sorted(entries.iter().map(|&(doc, count)| RawEntry {
            doc,
            count,
            doc_length: 50,
            pos: count % 10,
        }))
    }

    #[test]
    fn merges_disjoint_lists() {
        let a = list_from(&[(1, 1), (4, 1), (9, 1)]);
        let b = list_from(&[(2, 2), (3, 2)]);
        let merged = merge_compressed(&[&a, &b]);
        let docs: Vec<u32> = merged.iter().map(|e| e.doc).collect();
        assert_eq!(docs, vec![1, 2, 3, 4, 9]);
    }

    #[test]
    fn later_segment_wins_on_duplicates() {
        let old = list_from(&[(5, 1), (7, 1)]);
        let new = list_from(&[(5, 9)]);
        let merged = merge_compressed(&[&old, &new]);
        let entries = merged.decode_all();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].doc, 5);
        assert_eq!(entries[0].count, 9);
        // And the reference merge agrees.
        assert_eq!(naive_merge(&[&old, &new]), entries);
    }

    #[test]
    fn merge_of_empty_and_single_inputs() {
        let empty = CompressedPostingList::default();
        let one = list_from(&[(3, 1)]);
        assert!(merge_compressed(&[]).is_empty());
        assert!(merge_compressed(&[&empty]).is_empty());
        let merged = merge_compressed(&[&empty, &one, &empty]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.decode_all()[0].doc, 3);
    }

    #[test]
    fn large_multiblock_merge_matches_reference() {
        let a = list_from(&(0..400).map(|i| (i * 3, 1)).collect::<Vec<_>>());
        let b = list_from(&(0..400).map(|i| (i * 2 + 1, 2)).collect::<Vec<_>>());
        let c = list_from(&(0..300).map(|i| (i * 5, 3)).collect::<Vec<_>>());
        let merged = merge_compressed(&[&a, &b, &c]);
        assert_eq!(merged.decode_all(), naive_merge(&[&a, &b, &c]));
        // Output stays block-compressed.
        assert!(merged.blocks().len() > 1);
    }
}
