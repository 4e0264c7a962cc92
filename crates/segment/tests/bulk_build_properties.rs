//! Property battery for the offline bulk-build path.
//!
//! Three obligations, the first two mirroring the WAL-path batteries
//! in `store_properties.rs` and `recovery_properties.rs`:
//!
//! 1. **Differential**: over arbitrary corpora (duplicate ids, odd
//!    shapes, term-less docs) a [`SegmentStore::bulk_load`] must be
//!    indistinguishable — live documents, document frequencies,
//!    per-term posting entries, **bit-identical** top-k — from the
//!    same batch fed through the incremental WAL `insert` path and
//!    from a rebuild-from-scratch [`InvertedIndex`] oracle, including
//!    after interleaved post-bulk inserts and deletes.
//! 2. **Crash safety**: the bulk load killed at *every* step boundary
//!    that leaves something on disk (after the segment file is written,
//!    before the manifest swap) reopens to an all-or-nothing state with
//!    the unlisted segment garbage-collected, and the store keeps
//!    working. Each crash state is staged from files: the pre-load
//!    files, as written or as the load's registration seals them, plus
//!    the one segment a real load of the batch wrote. The lists are
//!    built in memory, so a load's only file is its one segment.
//! 3. **One load, one segment**: whatever the worker count, a load
//!    writes and registers exactly one segment.
//! 4. **A load's segment is a flush's segment**: a load under any
//!    partitioning of the vocabulary across workers and a flushed WAL
//!    batch of the same corpus leave the same file, byte for byte —
//!    block layout and skip metadata included — whatever order the
//!    batch arrives in.

use std::collections::BTreeMap;
use std::path::Path;

use proptest::prelude::*;

use zerber_index::cursor::{maxscore_topk, TopKScratch};
use zerber_index::topk::{naive_topk, tfidf_lists};
use zerber_index::{DocId, Document, GroupId, InvertedIndex, PostingStore, SegmentPolicy, TermId};
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

/// Several workers, so even small corpora split their vocabulary.
fn tiny_bulk() -> BulkConfig {
    BulkConfig { workers: 3 }
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

/// The names in `dir` with one of the given extensions, sorted.
fn files_ending(dir: &std::path::Path, extensions: &[&str]) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .filter(|name| extensions.iter().any(|ext| name.ends_with(ext)))
        .collect();
    names.sort();
    names
}

/// Disk entries that only a mid-bulk crash leaves behind: temp files,
/// and run files, which no load writes.
fn stray_files(dir: &std::path::Path) -> Vec<String> {
    files_ending(dir, &[".zrun", ".tmp"])
}

/// A directory's files, by name.
type Files = BTreeMap<String, Vec<u8>>;

/// Every file in `dir`.
fn files(dir: &Path) -> Files {
    std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|entry| entry.expect("dir entry").path())
        .map(|path| {
            let name = path.file_name().expect("a file name");
            let bytes = std::fs::read(&path).expect("read a store file");
            (name.to_string_lossy().into_owned(), bytes)
        })
        .collect()
}

/// The files in `dir` that `earlier` does not name.
fn new_files(dir: &Path, earlier: &Files) -> Files {
    let mut now = files(dir);
    now.retain(|name, _| !earlier.contains_key(name));
    now
}

/// A fresh directory holding `files`: a crash state, staged.
fn staged(tag: &str, files: &Files) -> ScratchDir {
    let dir = ScratchDir::new(tag);
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("stage a file");
    }
    dir
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
        boundary in 0usize..2,
    ) {
        let live = ScratchDir::new("bulk-crash-live");
        let store = SegmentStore::open(&live, tiny_policy()).expect("open");

        // Pre-bulk state that must survive the crash untouched.
        let mut before: BTreeMap<u32, Document> = BTreeMap::new();
        let preload_docs: Vec<Document> =
            preload.iter().map(|(id, t)| materialize(*id, t)).collect();
        if !preload_docs.is_empty() {
            store.insert(&preload_docs).expect("preload");
            for doc in &preload_docs {
                before.insert(doc.id.0, doc.clone());
            }
        }
        // The pre-load files at each boundary: as the writes left them
        // once the segment is written, and sealed just before the
        // manifest swap (the registration seals both memtables first).
        let written = files(&live);
        store.flush().expect("preload flush");
        let sealed = files(&live);

        let docs: Vec<Document> = corpus.iter().map(|(id, t)| materialize(*id, t)).collect();
        store.bulk_load(&docs, tiny_bulk()).expect("bulk load");
        drop(store);
        let segment: Files = new_files(&live, &sealed)
            .into_iter()
            .filter(|(name, _)| name.ends_with(".zseg"))
            .collect();
        prop_assert_eq!(segment.len(), 1, "one load, one segment");

        // Killed at the boundary: its pre-load files and the load's
        // segment, which no manifest lists. Both boundaries precede
        // the manifest swap: nothing landed.
        let after_write = boundary == 0;
        let mut crashed = if after_write { written } else { sealed };
        crashed.extend(segment);
        let dir = staged("bulk-crash", &crashed);
        let reopened = SegmentStore::open(&dir, tiny_policy()).expect("reopen");
        check_snapshot(&reopened.snapshot(), &before)?;
        prop_assert_eq!(
            stray_files(&dir),
            Vec::<String>::new(),
            "open-time GC must remove every orphaned tmp file"
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
        store.bulk_load(&docs, BulkConfig { workers }).expect("bulk load");
        prop_assert_eq!(
            store.segment_count(),
            before + sealed + 1,
            "{} workers commit one segment",
            workers
        );
        prop_assert_eq!(stray_files(&dir), Vec::<String>::new());
        for doc in docs {
            live.insert(doc.id.0, doc);
        }
        check_snapshot(&store.snapshot(), &live)?;
    }
}

/// The bytes of the one segment file a fresh store holds after `fill`,
/// or `None` when it holds none; more than one fails the case.
fn lone_segment(
    tag: &str,
    fill: impl FnOnce(&SegmentStore),
) -> Result<Option<Vec<u8>>, TestCaseError> {
    let dir = ScratchDir::new(tag);
    let store = SegmentStore::open(&dir, tiny_policy()).expect("open");
    fill(&store);
    drop(store);
    let segments = files_ending(&dir, &[".zseg"]);
    prop_assert!(segments.len() <= 1, "{}: {:?}", tag, segments);
    Ok(segments
        .first()
        .map(|name| std::fs::read(dir.join(name)).expect("read segment")))
}

/// [`lone_segment`] after one bulk load of `docs`.
fn loaded_segment(
    tag: &str,
    docs: &[Document],
    config: BulkConfig,
) -> Result<Option<Vec<u8>>, TestCaseError> {
    lone_segment(tag, |store| {
        store.bulk_load(docs, config).expect("bulk load");
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn a_load_writes_the_segment_a_flush_writes(
        corpus in prop::collection::vec(arb_doc(), 0..40),
    ) {
        let docs: Vec<Document> = corpus.iter().map(|(id, t)| materialize(*id, t)).collect();
        let one_run = BulkConfig { workers: 1 };
        let runs = loaded_segment("bulk-bytes-runs", &docs, tiny_bulk())?;
        let sealed = loaded_segment("bulk-bytes-one", &docs, one_run)?;
        let flushed = lone_segment("bulk-bytes-wal", |store| {
            store.insert(&docs).expect("insert");
            store.flush().expect("flush");
        })?;
        prop_assert_eq!(runs.is_none(), docs.is_empty(), "one segment iff any doc");
        prop_assert!(runs == sealed, "merged runs and one sealed memtable differ");
        prop_assert!(runs == flushed, "a load and a flush differ");

        // Distinct ids, so reversing changes the order and not which
        // copy wins.
        let mut distinct: BTreeMap<u32, Document> = BTreeMap::new();
        distinct.extend(docs.iter().map(|doc| (doc.id.0, doc.clone())));
        let forward: Vec<Document> = distinct.into_values().collect();
        let backward: Vec<Document> = forward.iter().rev().cloned().collect();
        let forward_bytes = loaded_segment("bulk-bytes-fwd", &forward, tiny_bulk())?;
        let backward_bytes = loaded_segment("bulk-bytes-rev", &backward, tiny_bulk())?;
        prop_assert!(forward_bytes == runs, "the distinct batch differs");
        prop_assert!(forward_bytes == backward_bytes, "the reversed batch differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn every_partitioning_writes_the_bytes_a_flush_writes(
        corpus in prop::collection::vec(arb_doc(), 0..40),
    ) {
        let docs: Vec<Document> = corpus.iter().map(|(id, t)| materialize(*id, t)).collect();
        let flushed = lone_segment("bulk-parts-wal", |store| {
            store.insert(&docs).expect("insert");
            store.flush().expect("flush");
        })?;
        for workers in 1..=8 {
            let loaded = loaded_segment("bulk-parts", &docs, BulkConfig { workers })?;
            prop_assert!(loaded == flushed, "{} workers and a flush differ", workers);
        }
    }
}

/// A term id at the top of the `u32` range lands in its worker's share
/// like any other and reads back from the loaded segment, before and
/// after a reopen.
#[test]
fn a_top_of_range_term_loads_and_reads_back() {
    let dir = ScratchDir::new("bulk-top-term");
    let top = TermId(u32::MAX - 1);
    let docs = vec![
        Document::from_term_counts(DocId(3), GroupId(0), vec![(TermId(2), 1), (top, 4)]),
        Document::from_term_counts(DocId(7), GroupId(0), vec![(top, 2)]),
    ];
    let store = SegmentStore::open(&dir, tiny_policy()).expect("open");
    store.bulk_load(&docs, tiny_bulk()).expect("bulk load");
    let check = |store: &SegmentStore| {
        let postings = store.snapshot().live_postings(top);
        let read: Vec<(u32, u32, u32)> = postings.iter().map(|e| (e.doc, e.count, e.pos)).collect();
        assert_eq!(read, vec![(3, 4, 1), (7, 2, 0)]);
        assert_eq!(store.snapshot().term_count(), u32::MAX as usize);
    };
    check(&store);
    drop(store);
    check(&SegmentStore::open(&dir, tiny_policy()).expect("reopen"));
}

/// A load from several workers puts exactly one file on disk — its
/// segment, no run or temp file — and, killed once that file is
/// written, reopens to the pre-load state.
#[test]
fn a_many_worker_load_puts_one_file_on_disk() {
    let live = ScratchDir::new("bulk-one-file-live");
    let store = SegmentStore::open(&live, tiny_policy()).expect("open");
    let preload: Vec<Document> = (0..4).map(|id| materialize(id, &[(0, 1)])).collect();
    store.insert(&preload).expect("preload");
    store.flush().expect("preload flush");
    let before: BTreeMap<u32, Document> = preload.into_iter().map(|d| (d.id.0, d)).collect();
    let preloaded = files(&live);
    let listed = files_ending(&live, &[".zseg"]);

    let docs: Vec<Document> = (0..60)
        .map(|id| materialize(id, &[(id % 7, 1 + id % 3), (MAX_TERM - 1, 1)]))
        .collect();
    let config = BulkConfig { workers: 3 };
    store.bulk_load(&docs, config).expect("bulk load");
    drop(store);

    let written = new_files(&live, &preloaded);
    let names: Vec<&String> = written.keys().collect();
    assert!(
        names.len() == 1 && names[0].ends_with(".zseg"),
        "one new segment, got {names:?}"
    );
    assert_eq!(
        stray_files(&live),
        Vec::<String>::new(),
        "no run or tmp file"
    );

    // Killed once the segment is written: the pre-load files and it.
    let mut crashed = preloaded;
    crashed.extend(written);
    let dir = staged("bulk-one-file", &crashed);
    let reopened = SegmentStore::open(&dir, tiny_policy()).expect("reopen");
    assert_eq!(files_ending(&dir, &[".zseg"]), listed, "open collects it");
    check_snapshot(&reopened.snapshot(), &before).expect("nothing landed");
    let stats = reopened.bulk_load(&docs, config).expect("retry bulk");
    assert_eq!(stats.docs, docs.len());
    let mut all = before;
    all.extend(docs.into_iter().map(|d| (d.id.0, d)));
    check_snapshot(&reopened.snapshot(), &all).expect("the retry landed");
}
