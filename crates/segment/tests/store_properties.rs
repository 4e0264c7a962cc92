//! Property: under *arbitrary* interleaved insert / delete / flush /
//! compact schedules, a [`SegmentStore`] snapshot is indistinguishable
//! from a rebuild-from-scratch oracle — same live documents, same
//! document frequencies, and **bit-identical** MaxScore top-k — and
//! reopening the store from disk preserves all of it.
//!
//! The oracle is the plain mutable [`InvertedIndex`] rebuilt from the
//! current live document set, ranked exhaustively (`naive_topk` over
//! every posting). The store side answers through the
//! *lazy* `PostingStore::query_cursors` + `maxscore_topk`
//! pipeline the runtime serves queries with (the memtable merged over
//! compressed segment cursors under the shadowing rule, decode on
//! demand).

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zerber_index::cursor::{maxscore_topk, BlockCursor, QueryCost, TopKScratch};
use zerber_index::topk::{naive_topk, tfidf_lists};
use zerber_index::{DocId, Document, GroupId, InvertedIndex, PostingStore, SegmentPolicy, TermId};
use zerber_postings::RawEntry;
use zerber_segment::{BulkConfig, ScratchDir, SegmentSnapshot, SegmentStore};

/// One step of a schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Insert (or replace) a batch of documents.
    Insert(Vec<(u32, Vec<(u32, u32)>)>),
    /// Delete one document id (present or not).
    Delete(u32),
    /// Seal the memtable.
    Flush,
    /// Run compaction to completion.
    Compact,
    /// Compare a top-k query against the oracle.
    Query(Vec<u32>, usize),
}

fn arb_doc() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (
        0u32..60,
        prop::collection::vec((0u32..25, 1u32..5), 1..6).prop_map(|mut terms| {
            terms.sort_by_key(|&(t, _)| t);
            terms.dedup_by_key(|&mut (t, _)| t);
            terms
        }),
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    // The vendored proptest stub's `prop_oneof!` draws uniformly;
    // repeated arms stand in for weights.
    prop_oneof![
        prop::collection::vec(arb_doc(), 1..5).prop_map(Op::Insert),
        prop::collection::vec(arb_doc(), 1..5).prop_map(Op::Insert),
        prop::collection::vec(arb_doc(), 1..5).prop_map(Op::Insert),
        (0u32..60).prop_map(Op::Delete),
        (0u32..60).prop_map(Op::Delete),
        Just(Op::Flush),
        Just(Op::Compact),
        (prop::collection::vec(0u32..30, 1..4), 1usize..8)
            .prop_map(|(terms, k)| Op::Query(terms, k)),
        (prop::collection::vec(0u32..30, 1..4), 1usize..8)
            .prop_map(|(terms, k)| Op::Query(terms, k)),
    ]
}

fn materialize(id: u32, terms: &[(u32, u32)]) -> Document {
    Document::from_term_counts(
        DocId(id),
        GroupId(0),
        terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
    )
}

/// The oracle's document frequency: live documents containing the
/// term.
fn oracle_df(live: &BTreeMap<u32, Document>, term: u32) -> usize {
    live.values()
        .filter(|d| d.terms.iter().any(|&(t, _)| t == TermId(term)))
        .count()
}

/// The rebuilt oracle's ranked answer: every posting of the rebuilt
/// index scored and summed in term order, then sorted.
fn oracle_topk(live: &BTreeMap<u32, Document>, terms: &[u32], k: usize) -> Vec<(DocId, u64)> {
    let docs: Vec<Document> = live.values().cloned().collect();
    let index = InvertedIndex::from_documents(&docs);
    let terms: Vec<TermId> = terms.iter().map(|&t| TermId(t)).collect();
    naive_topk(&tfidf_lists(&index, &terms), k)
        .iter()
        .map(|r| (r.doc, r.score.to_bits()))
        .collect()
}

/// A store's bit-pattern top-k through the cursor pipeline, asserting
/// the decode accounting stays sane.
fn ranked_bits(store: &dyn PostingStore, weights: &[(TermId, f64)], k: usize) -> Vec<(DocId, u64)> {
    let mut cursors = store.query_cursors(weights);
    let mut scratch = TopKScratch::new();
    maxscore_topk(&mut cursors, k, &mut scratch);
    let cost = QueryCost::of(&cursors);
    assert!(
        cost.blocks_decoded <= cost.blocks_total,
        "decode accounting out of range: {cost:?}"
    );
    scratch
        .ranked
        .iter()
        .map(|r| (r.doc, r.score.to_bits()))
        .collect()
}

/// The store's ranked answer through the *lazy* cursor pipeline the
/// runtime serves with, with IDF weights from the *oracle's*
/// statistics (both sides must agree on df for the comparison to be
/// meaningful — and they do, which `document_frequency` asserts
/// separately).
fn store_topk(
    snapshot: &zerber_segment::SegmentSnapshot,
    live: &BTreeMap<u32, Document>,
    terms: &[u32],
    k: usize,
) -> Vec<(DocId, u64)> {
    let weights: Vec<(TermId, f64)> = terms
        .iter()
        .map(|&t| {
            (
                TermId(t),
                zerber_index::idf(live.len(), snapshot.document_frequency(TermId(t))),
            )
        })
        .collect();
    ranked_bits(snapshot, &weights, k)
}

/// The snapshot against the rebuild oracle: live set, every document
/// frequency, and a bit-identical ranked probe.
fn assert_matches_oracle(
    snapshot: &zerber_segment::SegmentSnapshot,
    live: &BTreeMap<u32, Document>,
    when: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(snapshot.live_doc_count(), live.len(), "live docs {}", when);
    for term in 0..30u32 {
        prop_assert_eq!(
            snapshot.document_frequency(TermId(term)),
            oracle_df(live, term),
            "df {}, term {}",
            when,
            term
        );
    }
    let probe: Vec<u32> = (0..6).collect();
    prop_assert_eq!(
        store_topk(snapshot, live, &probe, 5),
        oracle_topk(live, &probe, 5),
        "top-k {}",
        when
    );
    Ok(())
}

/// Runs one schedule over a store that starts from `base` (bulk-loaded
/// by two overlapping loads when non-empty), checking the oracle after
/// every compaction, at the end, and across a reopen.
fn check_schedule(
    ops: &[Op],
    flush_postings: usize,
    max_segments: usize,
    base: &[Document],
) -> Result<(), TestCaseError> {
    let dir = ScratchDir::new("props");
    let policy = SegmentPolicy {
        flush_postings,
        max_segments,
        background: false, // stepped: deterministic seal and compaction points
        sync_wal: false,
    };
    let store = SegmentStore::open(&dir, policy).expect("open");
    let mut live: BTreeMap<u32, Document> = BTreeMap::new();
    if !base.is_empty() {
        // Two overlapping loads, one segment each: the second re-loads
        // the middle third, whose copies in the first are stale (other
        // counts, plus a term no base document has), so a newer load
        // must shadow an older one.
        let config = BulkConfig { workers: 3 };
        let (lo, hi) = (base.len() / 3, (2 * base.len()).div_ceil(3));
        let stale = |doc: &Document| {
            let mut terms: Vec<(TermId, u32)> =
                doc.terms.iter().map(|&(t, c)| (t, c + 1)).collect();
            terms.push((TermId(29), 1));
            Document::from_term_counts(doc.id, doc.group, terms)
        };
        let first: Vec<Document> = base[..lo]
            .iter()
            .cloned()
            .chain(base[lo..hi].iter().map(stale))
            .collect();
        store.bulk_load(&first, config).expect("first bulk load");
        store
            .bulk_load(&base[lo..], config)
            .expect("second bulk load");
        prop_assert!(store.segment_count() > 1, "the base spans several segments");
        live.extend(base.iter().map(|doc| (doc.id.0, doc.clone())));
    }

    for op in ops {
        match op {
            Op::Insert(batch) => {
                let docs: Vec<Document> = batch.iter().map(|(id, t)| materialize(*id, t)).collect();
                store.insert(&docs).expect("insert");
                for doc in docs {
                    live.insert(doc.id.0, doc);
                }
            }
            Op::Delete(id) => {
                let existed = store.delete(DocId(*id)).expect("delete");
                prop_assert_eq!(existed, live.remove(id).is_some());
            }
            Op::Flush => store.flush().expect("flush"),
            Op::Compact => {
                store.compact().expect("compact");
                prop_assert!(store.segment_count() <= max_segments);
                assert_matches_oracle(&store.snapshot(), &live, "after a compaction")?;
            }
            Op::Query(terms, k) => {
                let snapshot = store.snapshot();
                for &t in terms {
                    prop_assert_eq!(
                        snapshot.document_frequency(TermId(t)),
                        oracle_df(&live, t),
                        "df of term {}",
                        t
                    );
                }
                prop_assert_eq!(
                    store_topk(&snapshot, &live, terms, *k),
                    oracle_topk(&live, terms, *k)
                );
            }
        }
        // The jobs the op queued, run here: deterministic points.
        while store.step().expect("step") {}
        // Every batch folds into one memtable: never a stack.
        prop_assert!(store.snapshot().delta_len() <= 1, "after {:?}", op);
    }

    // Bounded segment count: the policy held after every explicit
    // compaction; run one more and check the bound.
    store.compact().expect("compact");
    prop_assert!(store.segment_count() <= max_segments);
    assert_matches_oracle(&store.snapshot(), &live, "at the end")?;

    // Durability: reopen from disk and re-verify everything.
    drop(store);
    let reopened = SegmentStore::open(&dir, policy).expect("reopen");
    assert_matches_oracle(&reopened.snapshot(), &live, "after reopen")?;
    drop(reopened);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn interleaved_schedules_match_the_rebuild_oracle(
        ops in prop::collection::vec(arb_op(), 1..40),
        flush_postings in 4usize..40,
        max_segments in 1usize..4,
    ) {
        check_schedule(&ops, flush_postings, max_segments, &[])?;
    }

    /// The same schedules over a multi-segment bulk-loaded base whose
    /// ids the schedule's inserts replace and deletes hit: compaction
    /// windows now fall anywhere in the stack (mid-stack merges carry
    /// tombstones that must keep masking base documents), under every
    /// segment cap.
    #[test]
    fn schedules_over_a_bulk_loaded_base_match_the_rebuild_oracle(
        ops in prop::collection::vec(arb_op(), 1..40),
        base in prop::collection::vec(arb_doc(), 12..40),
        flush_postings in 4usize..40,
        max_segments in 1usize..=4,
    ) {
        let mut base_docs: BTreeMap<u32, Document> = BTreeMap::new();
        for (id, terms) in &base {
            base_docs.insert(*id, materialize(*id, terms));
        }
        let base_docs: Vec<Document> = base_docs.into_values().collect();
        check_schedule(&ops, flush_postings, max_segments, &base_docs)?;
    }
}

/// One layer of writes over the sources below it: per document, its
/// new terms, or `None` for a delete.
type Layer = BTreeMap<u32, Option<Vec<(u32, u32)>>>;

/// Rewrites `doc` with term 0 (replacing its older term-0 posting) or
/// without it (shadowing that posting), deletes it, or leaves it.
fn touch(layer: &mut Layer, doc: u32, rng: &mut StdRng) {
    let terms = match rng.random_range(0..4u32) {
        0 => Some(vec![(0, rng.random_range(1..9u32)), (3, 1)]),
        1 => Some(vec![(1, 2), (3, rng.random_range(1..4u32))]),
        2 => None,
        _ => return,
    };
    layer.insert(doc, terms);
}

/// Drives `cursor` through a random script of `materialize`, `step`
/// and `advance_past`: every posting it yields must be the first of
/// `live` at or past the script's bound, with that entry's score and
/// positional run, and its metadata must bound what is left.
fn drive_script(
    cursor: &mut dyn BlockCursor,
    live: &[RawEntry],
    weight: f64,
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    // The next posting the script may see is at or past `bound`.
    let mut bound = 0u32;
    let mut pinned: Option<RawEntry> = None;
    loop {
        let want = live.iter().find(|e| e.doc >= bound);
        if let Some(want) = want {
            prop_assert!(!cursor.at_end());
            prop_assert!(cursor.doc_lower_bound().0 <= want.doc);
        }
        match (rng.random_range(0..5u32), pinned) {
            (0 | 1, Some(entry)) => {
                cursor.step();
                bound = entry.doc + 1;
                pinned = None;
            }
            (2, _) => {
                // Within a block, across a boundary, or far ahead.
                let reach = [1u32, 3, 64, 256, 700][rng.random_range(0..5usize)];
                let past = bound.saturating_sub(1) + rng.random_range(0..reach);
                cursor.advance_past(DocId(past));
                bound = bound.max(past + 1);
                pinned = pinned.filter(|entry| entry.doc >= bound);
            }
            _ => {
                let got = cursor.materialize();
                prop_assert_eq!(
                    got,
                    want.map(|e| (DocId(e.doc), e.term_frequency() * weight))
                );
                let Some(&want) = want else {
                    prop_assert!(cursor.at_end());
                    return Ok(());
                };
                prop_assert!(cursor.is_exact());
                prop_assert_eq!(cursor.positions(), (want.pos, want.count));
                pinned = Some(want);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Every term's cursor over 1–3 segments plus a memtable streams
    /// exactly the live postings under arbitrary scripts. The base
    /// list's postings 127/128/129 straddle its first block boundary
    /// and each newer source may rewrite, drop or delete them (and the
    /// previous layer's 127–129th fresh documents); each newer source
    /// starts its fresh odd ids in the middle of a base block, so the
    /// lead passes between sources mid-block.
    #[test]
    fn merged_cursors_stream_the_live_postings_under_any_script(
        segments in 1usize..=3,
        base_len in 260u32..420,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = ScratchDir::new("props-merge");
        let policy = SegmentPolicy {
            flush_postings: usize::MAX,
            max_segments: 4,
            background: false,
            sync_wal: false,
        };
        let store = SegmentStore::open(&dir, policy).expect("open");
        let base: Vec<Document> = (0..base_len)
            .map(|i| {
                let mut terms = vec![(0, 1 + i % 4)];
                if i % 3 != 0 {
                    terms.push((1, 1 + i % 3));
                }
                if i % 5 == 0 {
                    terms.push((2, 2));
                }
                materialize(2 * i, &terms)
            })
            .collect();
        store.bulk_load(&base, BulkConfig::default()).expect("bulk load");

        let mut fresh: Vec<u32> = Vec::new();
        for layer_no in 0..segments {
            let mut layer = Layer::new();
            for at in [127usize, 128, 129] {
                touch(&mut layer, 2 * at as u32, &mut rng);
                if let Some(&doc) = fresh.get(at) {
                    touch(&mut layer, doc, &mut rng);
                }
            }
            for _ in 0..rng.random_range(0..6u32) {
                touch(&mut layer, 2 * rng.random_range(0..base_len), &mut rng);
            }
            let start = rng.random_range(1..base_len);
            fresh = (0..rng.random_range(1..300u32))
                .map(|j| 2 * (start + j) + 1)
                .collect();
            for (j, &doc) in fresh.iter().enumerate() {
                layer.insert(doc, Some(vec![(0, 1 + j as u32 % 5), (3, 1)]));
            }
            let docs: Vec<Document> = layer
                .iter()
                .filter_map(|(&id, terms)| Some(materialize(id, terms.as_ref()?)))
                .collect();
            store.insert(&docs).expect("insert");
            for (&id, _) in layer.iter().filter(|(_, terms)| terms.is_none()) {
                store.delete(DocId(id)).expect("delete");
            }
            if layer_no + 1 < segments {
                store.flush().expect("flush");
            }
        }

        let snapshot = store.snapshot();
        prop_assert_eq!((snapshot.segment_len(), snapshot.delta_len()), (segments, 1));
        for term in 0..4u32 {
            let live = snapshot.live_postings(TermId(term));
            let weight = 0.5 + f64::from(term);
            for _ in 0..3 {
                let mut cursors = snapshot.query_cursors(&[(TermId(term), weight)]);
                drive_script(&mut *cursors[0], &live, weight, &mut rng)?;
            }
        }
    }
}

/// The live postings of the probe terms, as a snapshot serves them.
fn posting_image(snapshot: &SegmentSnapshot) -> Vec<Vec<RawEntry>> {
    (0..30u32)
        .map(|term| snapshot.live_postings(TermId(term)))
        .collect()
}

/// MVCC over the one memtable: a snapshot pinned before an insert, a
/// rewrite and a delete keeps its top-k and live postings (those
/// writes fold into a copy of the memtable it holds), while a fresh
/// snapshot — and the store reopened by replaying its WAL into one
/// memtable — match the rebuild oracle.
#[test]
fn a_pinned_snapshot_keeps_its_world_while_writes_fold_in() -> Result<(), TestCaseError> {
    let dir = ScratchDir::new("props-mvcc");
    let policy = SegmentPolicy {
        flush_postings: usize::MAX,
        max_segments: 4,
        background: false,
        sync_wal: false,
    };
    let store = SegmentStore::open(&dir, policy).expect("open");
    let base: Vec<Document> = (0..24u32)
        .map(|id| materialize(id, &[(id % 6, 1 + id % 3), (6 + id % 4, 2)]))
        .collect();
    // Half the base in a segment, half in the memtable over it.
    store.insert(&base[..12]).expect("insert");
    store.flush().expect("flush");
    store.insert(&base[12..]).expect("insert");
    let mut live: BTreeMap<u32, Document> = base.iter().map(|d| (d.id.0, d.clone())).collect();

    let pinned = store.snapshot();
    let pinned_live = live.clone();
    let probe: Vec<u32> = (0..6).collect();
    let pinned_topk = store_topk(&pinned, &pinned_live, &probe, 5);
    let pinned_image = posting_image(&pinned);
    assert_matches_oracle(&pinned, &pinned_live, "before the writes")?;

    // An insert of a new document, a rewrite of a memtable document that
    // drops one of its terms, and a delete of a segment document.
    let writes = [
        materialize(40, &[(0, 4), (1, 1)]),
        materialize(14, &[(2, 3)]),
    ];
    store.insert(&writes[..1]).expect("insert");
    store.insert(&writes[1..]).expect("rewrite");
    prop_assert!(store.delete(DocId(3)).expect("delete"));
    for doc in writes {
        live.insert(doc.id.0, doc);
    }
    live.remove(&3);

    prop_assert_eq!(store_topk(&pinned, &pinned_live, &probe, 5), pinned_topk);
    prop_assert_eq!(posting_image(&pinned), pinned_image);
    assert_matches_oracle(&pinned, &pinned_live, "pinned, after the writes")?;
    let fresh = store.snapshot();
    prop_assert_eq!((fresh.segment_len(), fresh.delta_len()), (1, 1));
    assert_matches_oracle(&fresh, &live, "after the writes")?;

    drop((pinned, fresh, store));
    let reopened = SegmentStore::open(&dir, policy).expect("reopen");
    let replayed = reopened.snapshot();
    prop_assert_eq!((replayed.segment_len(), replayed.delta_len()), (1, 1));
    assert_matches_oracle(&replayed, &live, "after the WAL replay")?;
    Ok(())
}

/// The names and bytes of every file in `dir`, sorted.
fn files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|entry| entry.expect("dir entry").path())
        .map(|path| {
            let name = path
                .file_name()
                .expect("a file")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&path).expect("read file"))
        })
        .collect();
    files.sort();
    files
}

/// A document that breaks `Document`'s invariant — a repeated term id,
/// misordered term ids, or counts whose sum overflows a `u32` — is
/// refused at the store's door with a typed error, and the refused
/// call writes nothing: not to the WAL (a flush and a reopen see only
/// the good documents), not as a bulk segment.
#[test]
fn a_malformed_document_is_refused_with_nothing_written() {
    use zerber_segment::SegmentError::MalformedDocument;
    let malformed = |terms: Vec<(TermId, u32)>| Document {
        id: DocId(9),
        group: GroupId(0),
        length: 3,
        terms,
    };
    let shapes = [
        malformed(vec![(TermId(4), 1), (TermId(4), 2)]),
        malformed(vec![(TermId(5), 1), (TermId(4), 2)]),
        malformed(vec![(TermId(1), u32::MAX), (TermId(2), 1)]),
        malformed(vec![(TermId(4), 1), (TermId(u32::MAX), 2)]),
    ];
    for bad in shapes {
        let dir = ScratchDir::new("malformed");
        let store = SegmentStore::open(&dir, SegmentPolicy::default()).expect("open");
        let good = vec![materialize(1, &[(4, 2)]), materialize(2, &[(4, 1), (7, 1)])];
        store.insert(&good).expect("a good batch");
        let before = files(&dir);

        let inserted = store.insert(&[good[0].clone(), bad.clone()]).map(drop);
        assert!(
            matches!(inserted, Err(MalformedDocument(DocId(9)))),
            "{inserted:?}"
        );
        assert_eq!(files(&dir), before, "insert wrote nothing");
        let loaded = store.bulk_load(vec![good[1].clone(), bad], BulkConfig::default());
        assert!(
            matches!(loaded, Err(MalformedDocument(DocId(9)))),
            "{loaded:?}"
        );
        assert_eq!(files(&dir), before, "bulk_load wrote nothing");

        store.flush().expect("the flush completes");
        drop(store);
        let reopened = SegmentStore::open(&dir, SegmentPolicy::default()).expect("reopen");
        let live: BTreeMap<u32, Document> = good.into_iter().map(|d| (d.id.0, d)).collect();
        assert_eq!(reopened.snapshot().live_doc_count(), live.len());
        assert!(!reopened.snapshot().contains_doc(DocId(9)));
        for term in [4, 7] {
            assert_eq!(
                reopened.snapshot().document_frequency(TermId(term)),
                oracle_df(&live, term)
            );
        }
    }
}
