//! Replica-rebuild snapshot shipping: `export_files` on a live store
//! plus `install` into a fresh directory must reproduce a store
//! with identical query-visible state — including un-flushed memtable
//! contents (export seals them first) — and installed stores must
//! survive reopening like any other store. Hostile snapshot files —
//! path-escaping names, a set without a manifest, a CRC-valid manifest
//! with a malformed body or naming a file outside its store, not in it
//! or not a `.zseg`, a frame header declaring a body of `u64::MAX` bytes, any byte of
//! a segment or MANIFEST body damaged behind a correct CRC — are
//! refused as `SegmentError::Corrupt` or open, and never panic. A list
//! whose stored maximum understates its postings is refused too, since
//! MaxScore would rank by it.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use zerber_index::cursor::{maxscore_topk, BlockCursor, TopKScratch};
use zerber_index::{DocId, Document, GroupId, SegmentPolicy, TermId};
use zerber_obs::MetricsRegistry;
use zerber_postings::{
    CompressedBlockCursor, CompressedPostingBuilder, CompressedPostingList, RawEntry,
};
use zerber_segment::crc::crc32;
use zerber_segment::{ScratchDir, SegmentError, SegmentStore};

fn policy() -> SegmentPolicy {
    SegmentPolicy {
        flush_postings: 16,
        max_segments: 2,
        ..SegmentPolicy::default()
    }
}

/// Installs `files` into `dir` under [`policy`].
fn install(dir: &ScratchDir, files: Vec<(String, Vec<u8>)>) -> Result<SegmentStore, SegmentError> {
    SegmentStore::install(dir, files, policy(), &MetricsRegistry::new())
}

fn doc(id: u32, terms: &[(u32, u32)]) -> Document {
    Document::from_term_counts(
        DocId(id),
        GroupId(0),
        terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
    )
}

fn postings_table(store: &SegmentStore, terms: u32) -> BTreeMap<u32, Vec<(u32, u32, u32)>> {
    let snapshot = store.snapshot();
    (0..terms)
        .map(|t| {
            let entries = snapshot
                .live_postings(TermId(t))
                .into_iter()
                .map(|e| (e.doc, e.count, e.doc_length))
                .collect();
            (t, entries)
        })
        .collect()
}

#[test]
fn export_then_install_reproduces_the_store() {
    let source_dir = ScratchDir::new("export-src");
    let source = SegmentStore::open(&source_dir, policy()).unwrap();
    source
        .insert(&[doc(1, &[(0, 2), (3, 1)]), doc(2, &[(0, 1)])])
        .unwrap();
    source.flush().unwrap();
    source.insert(&[doc(3, &[(3, 4)])]).unwrap();
    source.delete(DocId(2)).unwrap();
    // Deliberately no flush: the export must seal the memtable itself.

    let files = source.export_files().unwrap();
    assert!(
        files.iter().any(|(name, _)| name == "MANIFEST.zman"),
        "manifest must ship with the snapshot"
    );

    let clone_dir = ScratchDir::new("export-dst");
    let clone = install(&clone_dir, files).unwrap();
    assert_eq!(postings_table(&source, 8), postings_table(&clone, 8));
    assert!(clone.snapshot().contains_doc(DocId(1)));
    assert!(!clone.snapshot().contains_doc(DocId(2)));

    // The installed store is a real store: it keeps taking writes and
    // survives reopen.
    clone.insert(&[doc(9, &[(5, 1)])]).unwrap();
    drop(clone);
    let reopened = SegmentStore::open(&clone_dir, policy()).unwrap();
    assert!(reopened.snapshot().contains_doc(DocId(9)));
}

#[test]
fn empty_store_exports_and_installs_cleanly() {
    let source_dir = ScratchDir::new("export-empty-src");
    let source = SegmentStore::open(&source_dir, policy()).unwrap();
    let files = source.export_files().unwrap();
    let clone_dir = ScratchDir::new("export-empty-dst");
    let clone = install(&clone_dir, files).unwrap();
    assert_eq!(clone.snapshot().live_doc_count(), 0);
}

#[test]
fn install_rejects_path_escaping_names() {
    for name in ["../evil", "a/b", "a\\b", ""] {
        let err = install(
            &ScratchDir::new("export-escape"),
            vec![(name.to_string(), vec![1, 2, 3])],
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("escapes"),
            "{name:?} should be rejected, got {err}"
        );
    }
}

#[test]
fn install_rejects_a_set_without_a_manifest() {
    // No files at all, or segments alone, is not a snapshot: opening
    // it would serve an empty store.
    for files in [vec![], vec![("seg-000001.zseg".to_string(), vec![1, 2, 3])]] {
        let dir = ScratchDir::new("export-no-manifest");
        assert!(matches!(
            install(&dir, files),
            Err(SegmentError::Corrupt { .. })
        ));
        assert!(std::fs::read_dir(&*dir).unwrap().next().is_none());
    }
}

/// A valid segment listed and shipped under a log's name is refused
/// before anything is staged: open would recover the file as a log
/// and cut it.
#[test]
fn install_refuses_a_segment_named_as_a_log() {
    let source_dir = ScratchDir::new("export-log-name-src");
    let source = SegmentStore::open(&source_dir, policy()).unwrap();
    source.insert(&[doc(1, &[(0, 1)])]).unwrap();
    let mut files = source.export_files().unwrap();
    let [(_, manifest), (_, segment)] = <[_; 2]>::try_from(std::mem::take(&mut files)).unwrap();
    let (header, body) = manifest.split_at(20);
    for name in ["wal.log", "wal-000001.log", "MANIFEST.zman"] {
        let mut named = body[..12].to_vec();
        named.extend_from_slice(&(name.len() as u16).to_le_bytes());
        named.extend_from_slice(name.as_bytes());
        let mut renamed = header[..8].to_vec();
        renamed.extend_from_slice(&(named.len() as u64).to_le_bytes());
        renamed.extend_from_slice(&crc32(&named).to_le_bytes());
        renamed.extend_from_slice(&named);
        let dir = ScratchDir::new("export-log-name");
        let shipped = vec![
            ("MANIFEST.zman".to_string(), renamed),
            (name.to_string(), segment.clone()),
        ];
        match install(&dir, shipped) {
            Err(SegmentError::Corrupt { .. }) => {}
            other => panic!("{name}: expected Corrupt, got {other:?}"),
        }
        assert!(std::fs::read_dir(&*dir).unwrap().next().is_none(), "{name}");
    }
}

/// A manifest whose frame (magic, version, length, CRC-32) is valid
/// but whose body is malformed must open as `Corrupt`, never panic:
/// every strict prefix of a real body, an over-long segment count, a
/// non-UTF-8 name, trailing bytes.
#[test]
fn hostile_manifests_open_as_corrupt() {
    let dir = ScratchDir::new("export-hostile-manifest");
    let manifest = dir.join("MANIFEST.zman");
    let store = SegmentStore::open(&dir, policy()).unwrap();
    for id in 0..2 {
        store.insert(&[doc(id, &[(0, 1)])]).unwrap();
        store.flush().unwrap();
    }
    drop(store);
    let valid = std::fs::read(&manifest).unwrap();
    // Frame layout: magic u32 | version u32 | body length u64 | CRC-32
    // of the body | body; the body is next_seq u64 | count u32 | count ×
    // (length u16 | name).
    let (header, body) = valid.split_at(20);
    assert_eq!(u32::from_le_bytes(body[8..12].try_into().unwrap()), 2);
    let reframed = |body: &[u8]| {
        let mut file = header[..8].to_vec();
        file.extend_from_slice(&(body.len() as u64).to_le_bytes());
        file.extend_from_slice(&zerber_segment::crc::crc32(body).to_le_bytes());
        file.extend_from_slice(body);
        file
    };
    assert_eq!(reframed(body), valid, "the test frames like the store");

    let mut hostile: Vec<(String, Vec<u8>)> = (0..body.len())
        .map(|cut| (format!("prefix of {cut} B"), body[..cut].to_vec()))
        .collect();
    let mut overlong = body.to_vec();
    overlong[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    hostile.push(("count of u32::MAX".into(), overlong));
    let mut not_utf8 = body.to_vec();
    not_utf8[14..16].copy_from_slice(&[0xFF, 0xFE]);
    hostile.push(("non-UTF-8 name".into(), not_utf8));
    let mut trailing = body.to_vec();
    trailing.push(0);
    hostile.push(("trailing byte".into(), trailing));
    // A sibling store with a segment of its own, named from this one's
    // manifest by a relative path and by an absolute one.
    let sibling = ScratchDir::new("export-hostile-sibling");
    let other = SegmentStore::open(&sibling, policy()).unwrap();
    other.insert(&[doc(42, &[(0, 1)])]).unwrap();
    other.flush().unwrap();
    drop(other);
    let naming = |name: &str| {
        let mut named = body[..8].to_vec();
        named.extend_from_slice(&1u32.to_le_bytes());
        named.extend_from_slice(&(name.len() as u16).to_le_bytes());
        named.extend_from_slice(name.as_bytes());
        named
    };
    let sibling_name = sibling.file_name().unwrap().to_str().unwrap();
    let climbing = format!("../{sibling_name}/seg-000001.zseg");
    hostile.push(("a name climbing out".into(), naming(&climbing)));
    let absolute = sibling.join("seg-000001.zseg");
    hostile.push((
        "an absolute name".into(),
        naming(absolute.to_str().unwrap()),
    ));
    // A damaged name, found by `every_damaged_body_opens_or_fails_closed`:
    // it named no file, and open collected the real segments first.
    hostile.push((
        "a segment the directory lacks".into(),
        naming("seg-000003.zseg"),
    ));

    for (what, body) in hostile {
        std::fs::write(&manifest, reframed(&body)).unwrap();
        match SegmentStore::open(&dir, policy()) {
            Err(SegmentError::Corrupt { .. }) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }
    // Nothing was collected on the way: the real manifest still opens.
    std::fs::write(&manifest, &valid).unwrap();
    let reopened = SegmentStore::open(&dir, policy()).unwrap();
    assert_eq!(reopened.snapshot().live_doc_count(), 2);
}

/// A MANIFEST or segment whose frame header declares a body length of
/// `u64::MAX` bytes opens as `Corrupt`: the declared length is compared
/// with the file's, never added to.
#[test]
fn frame_headers_declaring_a_huge_body_open_as_corrupt() {
    let dir = ScratchDir::new("export-hostile-length");
    let store = SegmentStore::open(&dir, policy()).unwrap();
    store.insert(&[doc(1, &[(0, 1)])]).unwrap();
    store.flush().unwrap();
    drop(store);
    let segment = std::fs::read_dir(&*dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|path| path.extension().is_some_and(|ext| ext == "zseg"))
        .expect("the flush wrote a segment");
    for path in [dir.join("MANIFEST.zman"), segment] {
        let valid = std::fs::read(&path).unwrap();
        let mut hostile = valid.clone();
        // Frame layout: magic u32 | version u32 | body length u64 | …
        hostile[8..16].copy_from_slice(&[0xFF; 8]);
        std::fs::write(&path, &hostile).unwrap();
        match SegmentStore::open(&dir, policy()) {
            Err(SegmentError::Corrupt { .. }) => {}
            other => panic!("{}: expected Corrupt, got {other:?}", path.display()),
        }
        std::fs::write(&path, &valid).unwrap();
    }
    let reopened = SegmentStore::open(&dir, policy()).unwrap();
    assert_eq!(reopened.snapshot().live_doc_count(), 1);
}

/// `body` behind the frame `header` opens with (magic and version),
/// with its length and a correct CRC-32: layout magic u32 | version
/// u32 | body length u64 | CRC-32 of the body | body.
fn reframed(header: &[u8], body: &[u8]) -> Vec<u8> {
    let mut file = header[..8].to_vec();
    file.extend_from_slice(&(body.len() as u64).to_le_bytes());
    file.extend_from_slice(&crc32(body).to_le_bytes());
    file.extend_from_slice(body);
    file
}

/// Installs `files` into a fresh directory and reads every list of
/// terms `0..terms`, catching a panic anywhere on the way.
fn install_and_serve(
    files: Vec<(String, Vec<u8>)>,
    terms: u32,
) -> std::thread::Result<Result<(), SegmentError>> {
    let dir = ScratchDir::new("export-served");
    std::panic::catch_unwind(|| {
        install(&dir, files).map(|store| drop(postings_table(&store, terms)))
    })
}

/// Every byte of a small store's segment body and MANIFEST body,
/// damaged under three masks and re-framed with a correct CRC — what a
/// hostile peer's `InstallFile` can ship — installs and opens as `Ok`,
/// and serves its lists, or fails as `Corrupt`, and never panics. One
/// list's block is patched, so the damage reaches exception indices
/// and high bits too.
#[test]
fn every_damaged_body_opens_or_fails_closed() {
    let source_dir = ScratchDir::new("export-damage-src");
    let source = SegmentStore::open(&source_dir, policy()).unwrap();
    source.insert(&[doc(1, &[(0, 2), (3, 1)])]).unwrap();
    source.flush().unwrap();
    let patched = [6, 7, 8, 1 << 20];
    let mut batch = vec![doc(2, &[(0, 1), (7, 3)]), doc(5, &[(3, 2)])];
    batch.extend(patched.map(|id| doc(id, &[(9, 1)])));
    source.insert(&batch).unwrap();
    source.delete(DocId(1)).unwrap();
    let files = source.export_files().unwrap();
    drop(source);
    let segment = files
        .iter()
        .rposition(|(name, _)| name.ends_with(".zseg"))
        .unwrap();
    // Term 9's list is one block whose gap column is patched.
    let list = CompressedPostingBuilder::from_sorted(patched.map(|doc| RawEntry {
        doc,
        count: 1,
        doc_length: 1,
        pos: 0,
    }));
    assert_eq!(list.data()[0], 0x80, "a patched zero-width gap column");
    let record = list.record();
    assert!(files[segment].1.windows(record.len()).any(|w| w == record));
    let mut failures = Vec::new();
    for target in [0, segment] {
        let (header, body) = files[target].1.split_at(20);
        for at in 0..body.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut damaged = body.to_vec();
                damaged[at] ^= mask;
                let mut shipped = files.clone();
                shipped[target].1 = reframed(header, &damaged);
                let what = format!("{} byte {at} ^ {mask:#04x}", files[target].0);
                match install_and_serve(shipped, 10) {
                    Ok(Ok(_) | Err(SegmentError::Corrupt { .. })) => {}
                    Ok(Err(other)) => failures.push(format!("{what}: {other}")),
                    Err(_) => failures.push(format!("{what}: panicked")),
                }
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// A CRC-valid segment no builder writes, whose block index is sound
/// but one of whose blocks cannot decode, ships with a MANIFEST naming
/// it: install refuses it as `Corrupt` and stages nothing, and no
/// reader panics on it. Written into a store directory directly, the
/// open refuses it as `Corrupt` too.
#[test]
fn hand_built_segments_with_undecodable_blocks_are_refused() {
    let entries = |docs: &[u32]| -> CompressedPostingList {
        CompressedPostingBuilder::from_sorted(docs.iter().map(|&doc| RawEntry {
            doc,
            count: 1,
            doc_length: 1,
            pos: 0,
        }))
    };
    // 128 docs with a 2^24 jump every 40: the block's gap column is
    // patched at width 0 with three exceptions, whose indices follow
    // the record's 16-byte head, the 4 width bytes and the exception
    // count and width.
    let jumps: Vec<u32> = (0..128).map(|i| i + ((i / 40) << 24)).collect();
    let mut bad_index = entries(&jumps).record().to_vec();
    assert_eq!(bad_index[16..22], [0x80, 1, 1, 0, 3, 25]);
    assert_eq!(bad_index[22], 39, "the first exception's gap index");
    bad_index[22] = 200;
    // Ten docs two apart, re-based by the index entry (the record's
    // last 18 bytes: first_doc u32 | last_doc u32 | len u16 | offset
    // u64) so that their gaps pass u32::MAX.
    let evens: Vec<u32> = (0..10).map(|i| 2 * i).collect();
    let mut overflowing = entries(&evens).record().to_vec();
    let entry = overflowing.len() - 18;
    overflowing[entry..entry + 4].copy_from_slice(&(u32::MAX - 9).to_le_bytes());
    overflowing[entry + 4..entry + 8].copy_from_slice(&u32::MAX.to_le_bytes());

    // The frame this build writes, from an empty store's export.
    let empty = ScratchDir::new("export-handbuilt-empty");
    let exported = SegmentStore::open(&empty, policy())
        .unwrap()
        .export_files()
        .unwrap();
    let header = &exported[0].1[..20];
    let name = "seg-000001.zseg";
    // MANIFEST body: next_seq u64 | count u32 | (length u16 | name).
    let mut manifest = 2u64.to_le_bytes().to_vec();
    manifest.extend_from_slice(&1u32.to_le_bytes());
    manifest.extend_from_slice(&(name.len() as u16).to_le_bytes());
    manifest.extend_from_slice(name.as_bytes());
    for (what, docs, record) in [
        ("an exception index past the gaps", &jumps, bad_index),
        ("gaps past u32::MAX", &evens, overflowing),
    ] {
        // Segment body: term slots | live count | live docs | tombstone
        // count | term count | term id | the list's record.
        let mut body = 1u32.to_le_bytes().to_vec();
        body.extend_from_slice(&(docs.len() as u32).to_le_bytes());
        body.extend(docs.iter().flat_map(|doc| doc.to_le_bytes()));
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&record);
        let files = vec![
            ("MANIFEST.zman".to_string(), reframed(header, &manifest)),
            (name.to_string(), reframed(header, &body)),
        ];
        match install_and_serve(files.clone(), 1) {
            Ok(Err(SegmentError::Corrupt { .. })) => {}
            Ok(other) => panic!("{what}: expected Corrupt, got {other:?}"),
            Err(_) => panic!("{what}: panicked"),
        }
        // Nothing was staged.
        let dir = ScratchDir::new("export-handbuilt");
        assert!(install(&dir, files.clone()).is_err());
        assert!(std::fs::read_dir(&*dir).unwrap().next().is_none(), "{what}");
        // Written straight into a store directory, past
        // `install`: the open decodes every list and refuses it.
        let dir = ScratchDir::new("export-handbuilt-direct");
        for (name, bytes) in &files {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let opened = std::panic::catch_unwind(|| {
            SegmentStore::open(&dir, policy()).map(|store| drop(postings_table(&store, 1)))
        });
        match opened {
            Ok(Err(SegmentError::Corrupt { .. })) => {}
            Ok(other) => panic!("{what}, written directly: expected Corrupt, got {other:?}"),
            Err(_) => panic!("{what}, written directly: panicked"),
        }
    }
}

/// A list whose stored maximum understates its postings would rank
/// wrongly and silently, since MaxScore demotes a list by its maximum.
/// List A holds doc 1 at 1/100 and doc 500 at 10/10, list B docs 1..199
/// at 1/2: stored honestly, the top document is 500 at 1.0. With A's
/// maximum lowered from 1.0 to 0.01 behind a valid CRC, the parse
/// refuses A, and a segment holding it is `Corrupt` on install, which
/// stages nothing, and on open.
#[test]
fn a_list_with_an_understated_maximum_is_refused_not_ranked() {
    let list = |entries: &[(u32, u32, u32)]| {
        CompressedPostingBuilder::from_sorted(entries.iter().map(|&(doc, count, doc_length)| {
            RawEntry {
                doc,
                count,
                doc_length,
                pos: 0,
            }
        }))
    };
    let a = list(&[(1, 1, 100), (500, 10, 10)]);
    let b = list(&(1..200).map(|doc| (doc, 1, 2)).collect::<Vec<_>>());
    let mut cursors: Vec<Box<dyn BlockCursor + '_>> = vec![
        Box::new(CompressedBlockCursor::new(&a, 1.0)),
        Box::new(CompressedBlockCursor::new(&b, 1.0)),
    ];
    let mut scratch = TopKScratch::new();
    maxscore_topk(&mut cursors, 1, &mut scratch);
    let top: Vec<(DocId, f64)> = scratch.ranked.iter().map(|r| (r.doc, r.score)).collect();
    assert_eq!(top, [(DocId(500), 1.0)]);

    // A's record opens with `len` and `data_len` (8 bytes each); its
    // maximum follows the data.
    let max = 16 + a.data().len();
    let understate = |record: &mut [u8]| {
        assert_eq!(record[max..max + 8], 1.0f64.to_le_bytes());
        record[max..max + 8].copy_from_slice(&0.01f64.to_le_bytes());
    };
    let mut understated = a.record().to_vec();
    understate(&mut understated);
    assert_eq!(
        CompressedPostingList::parse(&Arc::new(understated), 0).err(),
        Some("posting term frequency above the list maximum")
    );

    // A store whose term 0 is list A: doc 1 is 100 tokens long and
    // doc 500 ten, each term's run starting at position 0.
    let source_dir = ScratchDir::new("export-understated-src");
    let source = SegmentStore::open(&source_dir, policy()).unwrap();
    source
        .insert(&[doc(1, &[(0, 1), (1, 99)]), doc(500, &[(0, 10)])])
        .unwrap();
    let mut files = source.export_files().unwrap();
    drop(source);
    let segment = files
        .iter()
        .position(|(name, _)| name.ends_with(".zseg"))
        .unwrap();
    let (header, body) = files[segment].1.split_at(20);
    let mut body = body.to_vec();
    let at = body
        .windows(a.record().len())
        .position(|w| w == a.record())
        .expect("the segment stores list A as built");
    understate(&mut body[at..]);
    files[segment].1 = reframed(header, &body);

    let dir = ScratchDir::new("export-understated");
    match install(&dir, files.clone()) {
        Err(SegmentError::Corrupt { .. }) => {}
        other => panic!("install: expected Corrupt, got {other:?}"),
    }
    assert!(std::fs::read_dir(&*dir).unwrap().next().is_none());
    let dir = ScratchDir::new("export-understated-direct");
    for (name, bytes) in &files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    match SegmentStore::open(&dir, policy()) {
        Err(SegmentError::Corrupt { .. }) => {}
        other => panic!("open: expected Corrupt, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any write history (including deletes and mid-history flushes)
    /// exports to a file set whose install is posting-for-posting
    /// identical to the source.
    #[test]
    fn export_install_round_trips_any_history(
        steps in prop::collection::vec(
            (
                0u32..30,
                prop::collection::vec((0u32..10, 1u32..4), 0..3).prop_map(|mut terms| {
                    terms.sort_by_key(|&(t, _)| t);
                    terms.dedup_by_key(|&mut (t, _)| t);
                    terms
                }),
                0u32..6,
            ),
            1..20,
        ),
    ) {
        let source_dir = ScratchDir::new("export-prop-src");
        let source = SegmentStore::open(&source_dir, policy()).unwrap();
        for (id, terms, action) in &steps {
            if *action == 0 {
                source.delete(DocId(*id)).unwrap();
            } else {
                source.insert(&[doc(*id, terms)]).unwrap();
            }
            if *action == 1 {
                source.flush().unwrap();
            }
        }
        let files = source.export_files().unwrap();
        let clone_dir = ScratchDir::new("export-prop-dst");
        let clone = install(&clone_dir, files).unwrap();
        prop_assert_eq!(postings_table(&source, 10), postings_table(&clone, 10));
        prop_assert_eq!(
            source.snapshot().live_doc_count(),
            clone.snapshot().live_doc_count()
        );
    }
}
