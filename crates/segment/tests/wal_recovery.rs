//! Recovery gives an acknowledged prefix, and still does after the
//! next write. Replay stops at the first bad record across all logs
//! (every rotated `wal-<seq>.log` in `seq` order, then `wal.log`), and
//! open cuts that log there and removes the later ones before its first
//! append, so a write acknowledged after a reopen never lies behind a
//! record the next replay stops at. Under `sync_wal` a rotated log was
//! synced before its rotation: a bad record there is damage, and the
//! open is `Corrupt`.

use std::io::Write;
use std::path::{Path, PathBuf};

use zerber_index::{DocId, Document, GroupId, SegmentPolicy, TermId};
use zerber_segment::{ScratchDir, SegmentError, SegmentStore};

/// A document of one posting: its insert weighs 1 against
/// `flush_postings`, as does a delete.
fn doc(id: u32) -> Document {
    Document::from_term_counts(DocId(id), GroupId(0), vec![(TermId(0), 1)])
}

/// A store run without background workers, freezing its active table
/// at `flush_postings`.
fn policy(flush_postings: usize, sync_wal: bool) -> SegmentPolicy {
    SegmentPolicy {
        flush_postings,
        max_segments: 4,
        background: false,
        sync_wal,
    }
}

/// Which of `ids` the store serves.
fn live(store: &SegmentStore, ids: &[u32]) -> Vec<u32> {
    let snapshot = store.snapshot();
    ids.iter()
        .copied()
        .filter(|&id| snapshot.contains_doc(DocId(id)))
        .collect()
}

/// The one rotated log in `dir`.
fn rotated_log(dir: &Path) -> PathBuf {
    let mut logs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            name.starts_with("wal-") && name.ends_with(".log")
        })
        .collect();
    assert_eq!(logs.len(), 1, "one rotated log");
    logs.pop().unwrap()
}

/// Doc 1 is acknowledged, then `wal.log` gains a torn record: three
/// bytes of a header, or a header declaring 100 bytes followed by 5.
/// After the reopen, doc 2 is acknowledged and brings the active table
/// to the threshold, which freezes it; with `seal`, `step` seals it
/// before the store drops. Either way the next reopen serves both
/// documents: the write did not land behind the torn record.
#[test]
fn a_write_after_a_torn_tail_survives_the_next_reopen() {
    let mut declaring = 100u32.to_le_bytes().to_vec();
    declaring.extend_from_slice(&[0; 4]);
    declaring.extend_from_slice(&[1, 2, 3, 4, 5]);
    let tails = [
        ("3 header bytes", vec![100, 0, 0]),
        ("100 declared, 5 written", declaring),
    ];
    for (shape, tail) in &tails {
        for sync_wal in [false, true] {
            for seal in [false, true] {
                let what = format!("{shape}, sync_wal {sync_wal}, seal {seal}");
                let dir = ScratchDir::new("wal-torn-tail");
                let policy = policy(2, sync_wal);
                let store = SegmentStore::open(&dir, policy).unwrap();
                store.insert(&[doc(1)]).unwrap();
                drop(store);
                std::fs::OpenOptions::new()
                    .append(true)
                    .open(dir.join("wal.log"))
                    .unwrap()
                    .write_all(tail)
                    .unwrap();

                let store = SegmentStore::open(&dir, policy).unwrap();
                assert_eq!(live(&store, &[1, 2]), [1], "{what}");
                store.insert(&[doc(2)]).unwrap();
                assert_eq!(live(&store, &[1, 2]), [1, 2], "{what}");
                if seal {
                    while store.step().unwrap() {}
                    assert_eq!(store.segment_count(), 1, "{what}");
                }
                drop(store);

                let store = SegmentStore::open(&dir, policy).unwrap();
                assert_eq!(live(&store, &[1, 2]), [1, 2], "{what}");
                assert_eq!(store.snapshot().live_doc_count(), 2, "{what}");
            }
        }
    }
}

/// Insert A, delete A: the delete brings the table to the threshold,
/// which freezes it into a rotated log no seal consumes (a crash
/// between a freeze and its seal). Reopen, insert B into `wal.log`.
/// Every byte of the rotated log is then damaged under three masks.
/// Each damaged record ends the replay before B, so the reopen
/// recovers exactly the batches whose records end before the damaged
/// byte — never A resurrected beside B — or, under `sync_wal`, is
/// `Corrupt`; it never panics. After each reopen that succeeds, one
/// more write survives the reopen after it.
#[test]
fn every_damaged_rotated_log_byte_recovers_a_prefix_or_fails_closed() {
    let (a, b, c) = (1, 2, 3);
    let mut failures = Vec::new();
    for sync_wal in [false, true] {
        let dir = ScratchDir::new("wal-rotated-damage");
        let store = SegmentStore::open(&dir, policy(2, sync_wal)).unwrap();
        store.insert(&[doc(a)]).unwrap();
        let insert_end = store.wal_bytes();
        assert!(store.delete(DocId(a)).unwrap());
        drop(store);
        let log = rotated_log(&dir);
        let rotated = std::fs::read(&log).unwrap();
        // Never frozen again: B and the writes after it stay in wal.log.
        let holding = policy(usize::MAX, sync_wal);
        let store = SegmentStore::open(&dir, holding).unwrap();
        assert_eq!(live(&store, &[a, b]), [] as [u32; 0]);
        store.insert(&[doc(b)]).unwrap();
        drop(store);
        let active = std::fs::read(dir.join("wal.log")).unwrap();

        for at in 0..rotated.len() {
            // A is recovered iff its insert's record ends before `at`.
            let prefix: &[u32] = if (at as u64) < insert_end { &[] } else { &[a] };
            for mask in [0x01u8, 0x80, 0xFF] {
                let what = format!("sync_wal {sync_wal}, byte {at} ^ {mask:#04x}");
                let mut damaged = rotated.clone();
                damaged[at] ^= mask;
                std::fs::write(&log, &damaged).unwrap();
                std::fs::write(dir.join("wal.log"), &active).unwrap();
                let opened = std::panic::catch_unwind(|| SegmentStore::open(&dir, holding));
                let store = match opened {
                    Ok(Err(SegmentError::Corrupt { .. })) if sync_wal => continue,
                    Ok(Ok(store)) if !sync_wal => store,
                    Ok(Ok(store)) => {
                        failures.push(format!("{what}: opened {:?}", live(&store, &[a, b])));
                        continue;
                    }
                    Ok(Err(other)) => {
                        failures.push(format!("{what}: {other}"));
                        continue;
                    }
                    Err(_) => {
                        failures.push(format!("{what}: panicked"));
                        continue;
                    }
                };
                let recovered = live(&store, &[a, b]);
                if recovered != prefix {
                    failures.push(format!("{what}: recovered {recovered:?}, not {prefix:?}"));
                    continue;
                }
                store.insert(&[doc(c)]).unwrap();
                drop(store);
                let store = SegmentStore::open(&dir, holding).unwrap();
                let expected: Vec<u32> = prefix.iter().copied().chain([c]).collect();
                let recovered = live(&store, &[a, b, c]);
                if recovered != expected {
                    failures.push(format!("{what}: then {recovered:?}, not {expected:?}"));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} failed: {failures:#?}",
        failures.len()
    );
}
