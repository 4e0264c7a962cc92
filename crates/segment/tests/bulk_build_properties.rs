//! Property battery for the offline SPIMI bulk-build path.
//!
//! Two obligations, mirroring the WAL-path batteries in
//! `store_properties.rs` and `recovery_properties.rs`:
//!
//! 1. **Differential**: over arbitrary corpora (duplicate ids, odd
//!    shapes, term-less docs) a [`SegmentStore::bulk_load`] must be
//!    indistinguishable — live documents, document frequencies,
//!    per-term posting entries, **bit-identical** top-k — from the
//!    same batch fed through the incremental WAL `insert` path and
//!    from a rebuild-from-scratch [`InvertedIndex`] oracle, including
//!    after interleaved post-bulk inserts and deletes.
//! 2. **Crash safety**: the bulk load killed at *every* step boundary
//!    (after each run file, before the merge, after the merge, before
//!    the manifest swap, before run GC) reopens to an all-or-nothing
//!    state with every stray `run-*.zrun` / `*.tmp` file
//!    garbage-collected, and the store keeps working.
//! 3. **One load, one segment**: whatever the worker count and however
//!    many runs the workers seal, a load registers exactly one segment,
//!    and a load of one run is adopted by rename, rewriting nothing.

use std::collections::BTreeMap;

use proptest::prelude::*;

use zerber_index::cursor::{maxscore_topk, TopKScratch};
use zerber_index::topk::{naive_topk, tfidf_lists};
use zerber_index::{DocId, Document, GroupId, InvertedIndex, PostingStore, SegmentPolicy, TermId};
use zerber_segment::bulk::BulkFailpoint;
use zerber_segment::{BulkConfig, ScratchDir, SegmentStore};

const MAX_DOC: u32 = 80;
const MAX_TERM: u32 = 20;

/// A post-bulk mutation.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<(u32, Vec<(u32, u32)>)>),
    Delete(u32),
    Flush,
}

fn arb_doc() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (
        0u32..MAX_DOC,
        prop::collection::vec((0u32..MAX_TERM, 1u32..5), 0..5).prop_map(|mut terms| {
            terms.sort_by_key(|&(t, _)| t);
            terms.dedup_by_key(|&mut (t, _)| t);
            terms
        }),
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(arb_doc(), 1..4).prop_map(Op::Insert),
        (0u32..MAX_DOC).prop_map(Op::Delete),
        Just(Op::Flush),
    ]
}

fn materialize(id: u32, terms: &[(u32, u32)]) -> Document {
    Document::from_term_counts(
        DocId(id),
        GroupId(0),
        terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
    )
}

fn tiny_policy() -> SegmentPolicy {
    SegmentPolicy {
        flush_postings: 8,
        max_segments: 3,
        background: false,
        sync_wal: false,
    }
}

/// Tiny runs and single-worker-unfriendly settings so small corpora
/// still exercise multi-run seals and the k-way merge.
fn tiny_bulk() -> BulkConfig {
    BulkConfig {
        workers: 3,
        run_postings: 6,
    }
}

/// A store's bit-pattern top-12 through the cursor pipeline the
/// runtime serves with.
fn ranked_bits(store: &dyn PostingStore, weights: &[(TermId, f64)]) -> Vec<(DocId, u64)> {
    let mut cursors = store.query_cursors(weights);
    let mut scratch = TopKScratch::new();
    maxscore_topk(&mut cursors, 12, &mut scratch);
    scratch
        .ranked
        .iter()
        .map(|r| (r.doc, r.score.to_bits()))
        .collect()
}

/// The oracle's bit-pattern top-12 over every term (all postings of
/// the rebuilt index scored and sorted), plus df per term — the full
/// observable surface of a snapshot.
fn oracle_fingerprint(live: &BTreeMap<u32, Document>) -> (Vec<usize>, Vec<(DocId, u64)>) {
    let docs: Vec<Document> = live.values().cloned().collect();
    let index = InvertedIndex::from_documents(&docs);
    let terms: Vec<TermId> = (0..MAX_TERM).map(TermId).collect();
    let dfs: Vec<usize> = terms.iter().map(|&t| index.document_frequency(t)).collect();
    let topk = naive_topk(&tfidf_lists(&index, &terms), 12)
        .iter()
        .map(|r| (r.doc, r.score.to_bits()))
        .collect();
    (dfs, topk)
}

/// A store snapshot's answer to the same fingerprint.
fn store_fingerprint(
    snapshot: &zerber_segment::SegmentSnapshot,
    live_count: usize,
) -> (Vec<usize>, Vec<(DocId, u64)>) {
    let dfs: Vec<usize> = (0..MAX_TERM)
        .map(|t| snapshot.document_frequency(TermId(t)))
        .collect();
    let weights: Vec<(TermId, f64)> = (0..MAX_TERM)
        .map(|t| (TermId(t), zerber_index::idf(live_count, dfs[t as usize])))
        .collect();
    (dfs, ranked_bits(snapshot, &weights))
}

/// Asserts `snapshot` matches the oracle document-for-document,
/// term-for-term, bit-for-bit.
fn check_snapshot(
    snapshot: &zerber_segment::SegmentSnapshot,
    live: &BTreeMap<u32, Document>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(snapshot.live_doc_count(), live.len());
    for id in 0..MAX_DOC {
        prop_assert_eq!(
            snapshot.contains_doc(DocId(id)),
            live.contains_key(&id),
            "doc {}",
            id
        );
    }
    let (dfs, topk) = store_fingerprint(snapshot, live.len());
    let (want_dfs, want_topk) = oracle_fingerprint(live);
    prop_assert_eq!(dfs, want_dfs, "document frequencies diverged");
    prop_assert_eq!(topk, want_topk, "ranked answer diverged");
    Ok(())
}

/// Per-term live posting entries — the raw (doc, count, length)
/// triples after shadowing. Equality here is posting-level
/// bit-identity between two stores.
fn posting_image(
    snapshot: &zerber_segment::SegmentSnapshot,
) -> Vec<Vec<zerber_postings::RawEntry>> {
    (0..MAX_TERM)
        .map(|t| snapshot.live_postings(TermId(t)))
        .collect()
}

/// Disk entries that only a mid-bulk crash leaves behind.
fn stray_files(dir: &std::path::Path) -> Vec<String> {
    let mut strays = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        if name.ends_with(".zrun") || name.ends_with(".tmp") {
            strays.push(name);
        }
    }
    strays
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn bulk_load_is_bit_identical_to_wal_ingest_and_the_oracle(
        corpus in prop::collection::vec(arb_doc(), 0..40),
        ops in prop::collection::vec(arb_op(), 0..12),
    ) {
        let bulk_dir = ScratchDir::new("bulk-diff-b");
        let wal_dir = ScratchDir::new("bulk-diff-w");
        let bulk_store = SegmentStore::open(&bulk_dir, tiny_policy()).expect("open bulk");
        let wal_store = SegmentStore::open(&wal_dir, tiny_policy()).expect("open wal");

        let docs: Vec<Document> = corpus.iter().map(|(id, t)| materialize(*id, t)).collect();
        let mut live: BTreeMap<u32, Document> = BTreeMap::new();
        for doc in &docs {
            live.insert(doc.id.0, doc.clone());
        }

        // Same batch, two maximally different ingest paths.
        let stats = bulk_store.bulk_load(&docs, tiny_bulk()).expect("bulk load");
        prop_assert_eq!(stats.docs, live.len(), "dedup keeps one copy per id");
        wal_store.insert(&docs).expect("wal insert");

        check_snapshot(&bulk_store.snapshot(), &live)?;
        prop_assert_eq!(
            posting_image(&bulk_store.snapshot()),
            posting_image(&wal_store.snapshot()),
            "bulk vs WAL posting entries diverged after load"
        );

        // Interleaved post-bulk traffic: both stores take the same
        // live inserts/deletes/flushes and must keep agreeing.
        for op in &ops {
            match op {
                Op::Insert(batch) => {
                    let batch: Vec<Document> =
                        batch.iter().map(|(id, t)| materialize(*id, t)).collect();
                    bulk_store.insert(&batch).expect("post-bulk insert");
                    wal_store.insert(&batch).expect("post-bulk insert");
                    for doc in batch {
                        live.insert(doc.id.0, doc);
                    }
                }
                Op::Delete(id) => {
                    let a = bulk_store.delete(DocId(*id)).expect("post-bulk delete");
                    let b = wal_store.delete(DocId(*id)).expect("post-bulk delete");
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(a, live.remove(id).is_some());
                }
                Op::Flush => {
                    bulk_store.flush().expect("flush");
                    bulk_store.compact().expect("compact");
                }
            }
        }
        check_snapshot(&bulk_store.snapshot(), &live)?;
        prop_assert_eq!(
            posting_image(&bulk_store.snapshot()),
            posting_image(&wal_store.snapshot()),
            "bulk vs WAL posting entries diverged after post-bulk traffic"
        );

        // And the bulk-built store reopens to the same state (its
        // post-bulk WAL tail replays over the bulk segments).
        drop(bulk_store);
        let reopened = SegmentStore::open(&bulk_dir, tiny_policy()).expect("reopen");
        check_snapshot(&reopened.snapshot(), &live)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn bulk_load_killed_at_any_boundary_is_all_or_nothing(
        preload in prop::collection::vec(arb_doc(), 0..10),
        corpus in prop::collection::vec(arb_doc(), 1..30),
        boundary in 0usize..5,
        step in 1usize..4,
    ) {
        let failpoint = match boundary {
            0 => BulkFailpoint::AfterRun(step),
            1 => BulkFailpoint::BeforeMerge,
            2 => BulkFailpoint::AfterMerge,
            3 => BulkFailpoint::BeforeManifest,
            _ => BulkFailpoint::BeforeRunGc,
        };
        let dir = ScratchDir::new("bulk-crash");
        let store = SegmentStore::open(&dir, tiny_policy()).expect("open");

        // Pre-bulk state that must survive the crash untouched.
        let mut before: BTreeMap<u32, Document> = BTreeMap::new();
        let preload_docs: Vec<Document> =
            preload.iter().map(|(id, t)| materialize(*id, t)).collect();
        if !preload_docs.is_empty() {
            store.insert(&preload_docs).expect("preload");
            store.flush().expect("preload flush");
            for doc in &preload_docs {
                before.insert(doc.id.0, doc.clone());
            }
        }

        let docs: Vec<Document> = corpus.iter().map(|(id, t)| materialize(*id, t)).collect();
        let outcome = store
            .bulk_load_failpoint(&docs, tiny_bulk(), failpoint)
            .expect("an aborted bulk load is not an error");
        // The load is durable iff it ran to completion (a counted
        // failpoint like `AfterRun(3)` never fires on a small corpus)
        // or the kill landed at `BeforeRunGc` — the one boundary past
        // the manifest swap, where only the cleanup was lost.
        let committed = outcome.is_some() || matches!(failpoint, BulkFailpoint::BeforeRunGc);
        drop(store); // "crash": nothing else runs before reopen

        let expected = if committed {
            let mut all = before.clone();
            for doc in &docs {
                all.insert(doc.id.0, doc.clone());
            }
            all
        } else {
            before.clone()
        };
        let reopened = SegmentStore::open(&dir, tiny_policy()).expect("reopen");
        check_snapshot(&reopened.snapshot(), &expected)?;
        prop_assert_eq!(
            stray_files(&dir),
            Vec::<String>::new(),
            "open-time GC must remove every orphaned run/tmp file"
        );

        // The survivor keeps working: the same batch bulk-loads
        // cleanly and lands fully this time.
        reopened.bulk_load(&docs, tiny_bulk()).expect("retry bulk");
        let mut all = before;
        for doc in &docs {
            all.insert(doc.id.0, doc.clone());
        }
        check_snapshot(&reopened.snapshot(), &all)?;
    }
}

/// Applies a WAL-path history (inserts, deletes, plain flushes) to
/// `store`, mirroring it into `live`.
fn replay(store: &SegmentStore, history: &[Op], live: &mut BTreeMap<u32, Document>) {
    for op in history {
        match op {
            Op::Insert(batch) => {
                let batch: Vec<Document> =
                    batch.iter().map(|(id, t)| materialize(*id, t)).collect();
                store.insert(&batch).expect("history insert");
                live.extend(batch.into_iter().map(|doc| (doc.id.0, doc)));
            }
            Op::Delete(id) => {
                store.delete(DocId(*id)).expect("history delete");
                live.remove(id);
            }
            Op::Flush => store.flush().expect("history flush"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn one_bulk_load_commits_one_segment(
        history in prop::collection::vec(arb_op(), 0..8),
        corpus in prop::collection::vec(arb_doc(), 1..40),
        workers in 1usize..=4,
        run_postings in prop_oneof![1usize..8, Just(1usize << 20)],
    ) {
        // The store under test and a twin with the same history: the
        // twin's plain flush counts what the load's own memtable seal
        // adds (nothing for an empty or self-cancelling memtable).
        let (dir, twin_dir) = (ScratchDir::new("bulk-one"), ScratchDir::new("bulk-one-twin"));
        let store = SegmentStore::open(&dir, tiny_policy()).expect("open");
        let twin = SegmentStore::open(&twin_dir, tiny_policy()).expect("open twin");
        let mut live: BTreeMap<u32, Document> = BTreeMap::new();
        replay(&store, &history, &mut live);
        replay(&twin, &history, &mut BTreeMap::new());
        let before = store.segment_count();
        prop_assert_eq!(twin.segment_count(), before);
        twin.flush().expect("twin flush");
        let sealed = twin.segment_count() - before;

        let docs: Vec<Document> = corpus.iter().map(|(id, t)| materialize(*id, t)).collect();
        let config = BulkConfig { workers, run_postings };
        let stats = store.bulk_load(&docs, config).expect("bulk load");
        prop_assert_eq!(
            store.segment_count(),
            before + sealed + 1,
            "{} runs from {} workers commit one segment",
            stats.runs,
            workers
        );
        if stats.runs == 1 {
            prop_assert_eq!(stats.merge_bytes, 0, "a lone run is renamed, not rewritten");
        } else {
            prop_assert!(stats.merge_bytes > 0);
        }
        prop_assert_eq!(stray_files(&dir), Vec::<String>::new());
        for doc in docs {
            live.insert(doc.id.0, doc);
        }
        check_snapshot(&store.snapshot(), &live)?;
    }
}
