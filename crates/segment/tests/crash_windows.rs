//! The crash windows of the frozen-memtable write path, each staged
//! from files — a rotated log no seal has consumed, a rotated log left
//! beside the segment that holds its batches, a segment or temp file
//! no manifest names — then reopened and compared with the oracle of
//! every acknowledged batch. Recovery replays the rotated logs
//! (`wal-<seq>.log`) in ascending `seq`, then `wal.log`.

use std::collections::BTreeMap;
use std::path::Path;

use zerber_index::{DocId, Document, GroupId, SegmentPolicy, TermId};
use zerber_postings::RawEntry;
use zerber_segment::{BulkConfig, ScratchDir, SegmentStore};

/// Document ids and term ids the batches below draw from.
const DOCS: u32 = 24;
const TERMS: u32 = 12;

/// Live documents by id, each with its sorted `(term, count)` pairs.
type Oracle = BTreeMap<u32, Vec<(u32, u32)>>;

/// One acknowledged batch.
#[derive(Clone)]
enum Batch {
    Insert(Vec<u32>, u32),
    Delete(u32),
}

/// Document `id`'s terms under `salt`: two distinct terms, ascending.
fn terms(id: u32, salt: u32) -> Vec<(u32, u32)> {
    vec![(id % 5, 1 + salt), (5 + (id * 3 + salt) % 7, 2)]
}

fn document(id: u32, salt: u32) -> Document {
    let terms = terms(id, salt).into_iter().map(|(t, c)| (TermId(t), c));
    Document::from_term_counts(DocId(id), GroupId(0), terms.collect())
}

fn apply(store: &SegmentStore, batch: &Batch) {
    match batch {
        Batch::Insert(ids, salt) => {
            let docs: Vec<Document> = ids.iter().map(|&id| document(id, *salt)).collect();
            store.insert(&docs).expect("insert");
        }
        Batch::Delete(id) => {
            store.delete(DocId(*id)).expect("delete");
        }
    }
}

fn fold(oracle: &mut Oracle, batches: &[Batch]) {
    for batch in batches {
        match batch {
            Batch::Insert(ids, salt) => {
                oracle.extend(ids.iter().map(|&id| (id, terms(id, *salt))));
            }
            Batch::Delete(id) => {
                oracle.remove(id);
            }
        }
    }
}

/// The oracle of the given batch lists, applied in order.
fn oracle_of(lists: &[&[Batch]]) -> Oracle {
    let mut oracle = Oracle::new();
    for batches in lists {
        fold(&mut oracle, batches);
    }
    oracle
}

/// The sealed base: documents 0..8.
fn base() -> Vec<Batch> {
    vec![Batch::Insert((0..8).collect(), 0)]
}

/// The batches a frozen table holds: replacements of base documents,
/// new documents, a delete of a base document.
fn frozen() -> Vec<Batch> {
    vec![
        Batch::Insert((4..12).collect(), 1),
        Batch::Delete(1),
        Batch::Insert(vec![20], 1),
    ]
}

/// Later batches, in the active log: they delete and replace documents
/// the frozen batches wrote, and one of the base's.
fn later() -> Vec<Batch> {
    vec![
        Batch::Delete(9),
        Batch::Insert(vec![10, 2, 21], 2),
        Batch::Delete(20),
        Batch::Insert(vec![1], 2),
    ]
}

/// Seals explicitly, never compacts on its own.
fn policy() -> SegmentPolicy {
    SegmentPolicy {
        flush_postings: usize::MAX,
        max_segments: 16,
        background: false,
        sync_wal: false,
    }
}

/// The bytes of the `wal.log` a store writes for `batches`.
fn log_of(batches: &[Batch]) -> Vec<u8> {
    let dir = ScratchDir::new("crash-log");
    let store = SegmentStore::open(&dir, policy()).expect("open");
    batches.iter().for_each(|batch| apply(&store, batch));
    drop(store);
    std::fs::read(dir.join("wal.log")).expect("read log")
}

/// The bytes of the segment one seal of `batches` writes into a fresh
/// store (a segment's body does not name its sequence number).
fn segment_of(batches: &[Batch]) -> Vec<u8> {
    let dir = ScratchDir::new("crash-segment");
    let store = SegmentStore::open(&dir, policy()).expect("open");
    batches.iter().for_each(|batch| apply(&store, batch));
    store.flush().expect("flush");
    drop(store);
    let [name] = names(&dir, ".zseg").try_into().expect("one segment");
    std::fs::read(dir.join(name)).expect("read segment")
}

/// The names in `dir` ending in `suffix`, sorted.
fn names(dir: &Path, suffix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .filter(|name| name.ends_with(suffix))
        .collect();
    names.sort();
    names
}

/// The rotated logs in `dir`.
fn rotated(dir: &Path) -> Vec<String> {
    names(dir, ".log")
        .into_iter()
        .filter(|name| name.starts_with("wal-"))
        .collect()
}

/// The sequence number in a `seg-<seq>.zseg` name.
fn seq_of(name: &str) -> u64 {
    let digits = name.trim_start_matches("seg-").trim_end_matches(".zseg");
    digits.parse().expect("a segment name")
}

/// The live postings of `term` in the oracle, as a store serves them.
fn entries(oracle: &Oracle, term: u32) -> Vec<RawEntry> {
    oracle
        .iter()
        .filter_map(|(&doc, terms)| {
            let at = terms.iter().position(|&(t, _)| t == term)?;
            let pos = terms[..at].iter().map(|&(_, c)| c).sum();
            Some(RawEntry {
                doc,
                count: terms[at].1,
                doc_length: terms.iter().map(|&(_, c)| c).sum(),
                pos,
            })
        })
        .collect()
}

/// The store against the oracle: live set, membership, every list.
fn check(store: &SegmentStore, oracle: &Oracle, when: &str) {
    let snapshot = store.snapshot();
    assert_eq!(snapshot.live_doc_count(), oracle.len(), "{when}");
    for id in 0..DOCS {
        let live = oracle.contains_key(&id);
        assert_eq!(snapshot.contains_doc(DocId(id)), live, "{when}: doc {id}");
    }
    for term in 0..TERMS {
        let got = snapshot.live_postings(TermId(term));
        assert_eq!(got, entries(oracle, term), "{when}: term {term}");
    }
}

/// Writes `bytes` as `dir/name`.
fn stage(dir: &Path, name: &str, bytes: &[u8]) {
    std::fs::write(dir.join(name), bytes).expect("stage a file");
}

/// A store that sealed `sealed` (one segment per list) and then
/// stopped, cleanly. Returns the next sequence number after the
/// newest segment.
fn sealed_store(dir: &Path, sealed: &[&[Batch]]) -> u64 {
    let store = SegmentStore::open(dir, policy()).expect("open");
    for batches in sealed {
        batches.iter().for_each(|batch| apply(&store, batch));
        store.flush().expect("flush");
    }
    drop(store);
    assert!(rotated(dir).is_empty(), "a finished seal deletes its log");
    names(dir, ".zseg")
        .iter()
        .map(|n| seq_of(n))
        .max()
        .unwrap_or(0)
        + 1
}

/// Flushes the reopened store, which consumes every rotated log, and
/// checks it again, and again after another reopen.
fn flush_and_reopen(dir: &Path, store: SegmentStore, oracle: &Oracle) {
    store.flush().expect("flush");
    assert_eq!(rotated(dir), Vec::<String>::new(), "the seal deleted them");
    assert_eq!(store.wal_bytes(), 0);
    check(&store, oracle, "after the flush");
    drop(store);
    let reopened = SegmentStore::open(dir, policy()).expect("reopen");
    check(&reopened, oracle, "after the second reopen");
}

/// Killed after the rotation, before the seal's manifest: the rotated
/// log holds the frozen batches, and the segment the seal was writing
/// — whole, half-written as its temp file, or not begun — is listed
/// nowhere.
#[test]
fn rotated_and_not_sealed_replays_the_rotated_log() {
    let (base, frozen, later) = (base(), frozen(), later());
    let segment = segment_of(&frozen);
    for stray in ["", ".zseg", ".tmp"] {
        let dir = ScratchDir::new("crash-rotated");
        let seq = sealed_store(&dir, &[&base]);
        let listed = names(&dir, ".zseg");
        stage(&dir, &format!("wal-{seq:06}.log"), &log_of(&frozen));
        stage(&dir, "wal.log", &log_of(&later));
        match stray {
            ".zseg" => stage(&dir, &format!("seg-{seq:06}.zseg"), &segment),
            ".tmp" => stage(
                &dir,
                &format!("seg-{seq:06}.tmp"),
                &segment[..segment.len() / 2],
            ),
            _ => {}
        }

        let store = SegmentStore::open(&dir, policy()).expect("reopen");
        let oracle = oracle_of(&[&base, &frozen, &later]);
        check(&store, &oracle, &format!("reopened, stray {stray:?}"));
        assert_eq!(
            names(&dir, ".zseg"),
            listed,
            "the stray segment is collected"
        );
        assert_eq!(names(&dir, ".tmp"), Vec::<String>::new());
        assert_eq!(rotated(&dir).len(), 1, "kept until its batches are sealed");
        flush_and_reopen(&dir, store, &oracle);
    }
}

/// Two rotated logs — one replayed at an earlier open and frozen again
/// with the next — replay in ascending order, and the later one's
/// deletes and replacements win.
#[test]
fn rotated_logs_replay_in_ascending_order() {
    let (base, frozen, later) = (base(), frozen(), later());
    let newest = vec![Batch::Insert(vec![9, 21], 3), Batch::Delete(10)];
    let dir = ScratchDir::new("crash-two-logs");
    let seq = sealed_store(&dir, &[&base]);
    stage(&dir, &format!("wal-{seq:06}.log"), &log_of(&frozen));
    stage(&dir, &format!("wal-{:06}.log", seq + 1), &log_of(&later));
    stage(&dir, "wal.log", &log_of(&newest));

    let store = SegmentStore::open(&dir, policy()).expect("reopen");
    let oracle = oracle_of(&[&base, &frozen, &later, &newest]);
    check(&store, &oracle, "reopened");
    // The next seal takes a sequence number above both logs' and
    // deletes them both.
    flush_and_reopen(&dir, store, &oracle);
    let newest_segment = names(&dir, ".zseg").pop().expect("a segment");
    assert!(seq_of(&newest_segment) > seq + 1, "{newest_segment}");
}

/// Killed after the seal's manifest, before its log's delete: the
/// manifest lists `seg-N` and `wal-N.log` is still there, while later
/// batches in `wal.log` delete and replace documents of `seg-N`.
/// Replaying the leftover log re-applies what `seg-N` holds, and the
/// later batches still win.
#[test]
fn sealed_with_the_log_left_replays_it_idempotently() {
    let (base, frozen, later) = (base(), frozen(), later());
    let dir = ScratchDir::new("crash-sealed");
    let next = sealed_store(&dir, &[&base, &frozen]);
    let seq = next - 1; // the frozen batches' segment
    assert!(names(&dir, ".zseg").contains(&format!("seg-{seq:06}.zseg")));
    stage(&dir, &format!("wal-{seq:06}.log"), &log_of(&frozen));
    stage(&dir, "wal.log", &log_of(&later));

    let store = SegmentStore::open(&dir, policy()).expect("reopen");
    let oracle = oracle_of(&[&base, &frozen, &later]);
    check(&store, &oracle, "reopened");
    flush_and_reopen(&dir, store, &oracle);
}

/// A bulk load registered after a seal: every rotated log is gone
/// before the bulk segment is listed. Were one left, replaying its
/// older batches at the next open would shadow the newer bulk segment —
/// which the end of the test shows by putting it back.
#[test]
fn a_bulk_load_after_a_seal_leaves_no_log_to_shadow_it() {
    let (base, frozen, later) = (base(), frozen(), later());
    let dir = ScratchDir::new("crash-bulk");
    let seq = sealed_store(&dir, &[&base, &frozen]) - 1;
    let leftover = log_of(&frozen);
    stage(&dir, &format!("wal-{seq:06}.log"), &leftover);
    stage(&dir, "wal.log", &log_of(&later));
    let store = SegmentStore::open(&dir, policy()).expect("reopen");

    // The bulk batch rewrites documents of every earlier layer.
    let bulk_ids: Vec<u32> = vec![2, 4, 6, 8, 9, 10, 11, 20, 21];
    let bulk: Vec<Document> = bulk_ids.iter().map(|&id| document(id, 4)).collect();
    store
        .bulk_load(&bulk, BulkConfig::default())
        .expect("bulk load");
    assert_eq!(
        rotated(&dir),
        Vec::<String>::new(),
        "no log outlives the load"
    );
    assert_eq!(store.wal_bytes(), 0);
    let loaded = [Batch::Insert(bulk_ids, 4)];
    let oracle = oracle_of(&[&base, &frozen, &later, &loaded]);
    check(&store, &oracle, "after the load");
    drop(store);
    let reopened = SegmentStore::open(&dir, policy()).expect("reopen");
    check(&reopened, &oracle, "reopened after the load");
    drop(reopened);

    // The rule's reason: the same files plus the old log, replayed over
    // the bulk segment, bring back the frozen batches' versions.
    stage(&dir, &format!("wal-{seq:06}.log"), &leftover);
    let shadowed = SegmentStore::open(&dir, policy()).expect("reopen");
    let stale = oracle_of(&[&base, &frozen, &later, &loaded, &frozen]);
    assert_ne!(stale, oracle);
    check(&shadowed, &stale, "with the old log put back");
}

/// The same rule on a live store whose seals run on the flusher: a
/// bulk load right after writes that froze a table seals it, and the
/// active table, before it registers.
#[test]
fn a_bulk_load_seals_a_table_the_flusher_holds() {
    let dir = ScratchDir::new("crash-bulk-live");
    let live = SegmentPolicy {
        flush_postings: 6,
        background: true,
        ..policy()
    };
    let store = SegmentStore::open(&dir, live).expect("open");
    let (base, frozen, later) = (base(), frozen(), later());
    for batch in base.iter().chain(&frozen).chain(&later) {
        apply(&store, batch);
    }
    let bulk_ids: Vec<u32> = (0..DOCS).step_by(3).collect();
    let bulk: Vec<Document> = bulk_ids.iter().map(|&id| document(id, 5)).collect();
    store
        .bulk_load(&bulk, BulkConfig::default())
        .expect("bulk load");
    assert_eq!(rotated(&dir), Vec::<String>::new());
    assert_eq!(store.wal_bytes(), 0);
    let loaded = [Batch::Insert(bulk_ids, 5)];
    let oracle = oracle_of(&[&base, &frozen, &later, &loaded]);
    check(&store, &oracle, "after the load");
    drop(store);
    check(
        &SegmentStore::open(&dir, live).expect("reopen"),
        &oracle,
        "reopened",
    );
}

/// Killed after a compaction wrote its merged segment, before the
/// splice's manifest: the merged file — or its temp file — is listed
/// nowhere, and the inputs still are.
#[test]
fn a_compaction_written_and_not_spliced_is_garbage() {
    let (base, frozen, later) = (base(), frozen(), later());
    let more = vec![Batch::Insert(vec![12, 13, 3], 6), Batch::Delete(5)];
    for stray in [".zseg", ".tmp"] {
        let dir = ScratchDir::new("crash-compaction");
        sealed_store(&dir, &[&base, &frozen, &more]);
        stage(&dir, "wal.log", &log_of(&later));
        let listed = names(&dir, ".zseg");

        // The merge a two-segment policy writes, from a copy of the
        // store that ran it to the end.
        let twin = ScratchDir::new("crash-compaction-twin");
        for name in std::fs::read_dir(&*dir).expect("read store dir") {
            let name = name.expect("dir entry").file_name();
            std::fs::copy(dir.join(&name), twin.join(&name)).expect("copy");
        }
        let merging = SegmentPolicy {
            max_segments: 2,
            ..policy()
        };
        let store = SegmentStore::open(&twin, merging).expect("open the twin");
        store.compact().expect("compact");
        drop(store);
        let merged: Vec<String> = names(&twin, ".zseg")
            .into_iter()
            .filter(|name| !listed.contains(name))
            .collect();
        assert_eq!(merged.len(), 1, "{merged:?}");
        let bytes = std::fs::read(twin.join(&merged[0])).expect("read merged");
        match stray {
            ".tmp" => stage(
                &dir,
                &merged[0].replace(".zseg", ".tmp"),
                &bytes[..bytes.len() / 3],
            ),
            _ => stage(&dir, &merged[0], &bytes),
        }

        let store = SegmentStore::open(&dir, merging).expect("reopen");
        let oracle = oracle_of(&[&base, &frozen, &more, &later]);
        check(&store, &oracle, &format!("reopened, stray {stray:?}"));
        assert_eq!(
            names(&dir, ".zseg"),
            listed,
            "the unspliced merge is collected"
        );
        assert_eq!(names(&dir, ".tmp"), Vec::<String>::new());
        // The store compacts again, over the sequence number it reuses.
        store.compact().expect("compact");
        assert!(store.segment_count() <= 2);
        check(&store, &oracle, "compacted");
        drop(store);
        check(
            &SegmentStore::open(&dir, merging).expect("reopen"),
            &oracle,
            "reopened after compacting",
        );
    }
}

/// Under `sync_wal` the rotation syncs the directory before the next
/// append; the synced path seals and recovers like the buffered one.
#[test]
fn a_synced_store_rotates_seals_and_recovers() {
    let dir = ScratchDir::new("crash-synced");
    let synced = SegmentPolicy {
        flush_postings: 6,
        sync_wal: true,
        ..policy()
    };
    let (base, frozen, later) = (base(), frozen(), later());
    let store = SegmentStore::open(&dir, synced).expect("open");
    for batch in base.iter().chain(&frozen).chain(&later) {
        apply(&store, batch);
        while store.step().expect("step") {}
    }
    assert!(store.segment_count() > 1, "the threshold's seals ran");
    assert_eq!(rotated(&dir), Vec::<String>::new());
    let oracle = oracle_of(&[&base, &frozen, &later]);
    check(&store, &oracle, "live");
    drop(store);
    check(
        &SegmentStore::open(&dir, synced).expect("reopen"),
        &oracle,
        "reopened",
    );
}
