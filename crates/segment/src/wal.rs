//! The checksummed write-ahead log.
//!
//! Every mutation batch is appended as one self-delimiting record
//! *before* it is applied to the memtable and acknowledged:
//!
//! ```text
//! record: [payload_len u32][payload_crc u32][payload]
//! payload: op_count u32, then per op
//!   0x01 doc u32, length u32, term_count u32, (term u32, count u32)*
//!   0x02 doc u32
//! ```
//!
//! (all fields little-endian). Replay reads records until the file
//! ends or a record fails its length or checksum — everything from the
//! first bad byte on is a *torn tail* from an interrupted write. A
//! failed append cuts its partial record off again, and until that cut
//! succeeds the log takes no append and no rotation, so acknowledged
//! batches always precede the tail: recovery keeps every acknowledged
//! batch and never applies a partial one (property-tested in
//! `tests/recovery_properties.rs` by truncating and corrupting logs at
//! arbitrary byte offsets).
//!
//! # Files
//!
//! The active log is `wal.log`. When the memtable it journals freezes,
//! the log is *rotated*: renamed to `wal-<seq>.log`, where `seq` is the
//! sequence number of the segment the frozen table will become, and a
//! fresh `wal.log` takes the next batch. A rotated log is deleted once
//! the manifest names the segment holding its batches. [`recover`]
//! replays every `wal-*.log` in ascending `seq`, then `wal.log`, up to
//! the first bad record across them all; it cuts that log there and
//! removes the later ones before `wal.log` takes an append
//! (`tests/wal_recovery.rs`).

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::error::SegmentError;
use crate::segment::{put_u32, Reader};

/// The active log's file name.
pub(crate) const WAL_FILE: &str = "wal.log";

/// The name the active log is rotated to when its memtable freezes
/// into the segment numbered `seq`.
fn rotated_name(seq: u64) -> String {
    format!("wal-{seq:06}.log")
}

/// The rotated logs in `dir`, `seq`-ascending — the order recovery
/// replays them in, before `wal.log`.
pub(crate) fn rotated_logs(dir: &Path) -> Result<Vec<(u64, PathBuf)>, SegmentError> {
    let mut logs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let seq = name.to_str().and_then(|name| {
            name.strip_prefix("wal-")?
                .strip_suffix(".log")?
                .parse()
                .ok()
        });
        if let Some(seq) = seq {
            logs.push((seq, entry.path()));
        }
    }
    logs.sort_unstable();
    Ok(logs)
}

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalOp {
    /// Insert (or replace) a document's postings.
    Insert {
        /// Document id.
        doc: u32,
        /// Token length (term-frequency denominator).
        length: u32,
        /// Distinct terms with occurrence counts, sorted by term id.
        terms: Vec<(u32, u32)>,
    },
    /// Remove a document (a tombstone once it reaches the memtable).
    Delete {
        /// Document id.
        doc: u32,
    },
}

const OP_INSERT: u8 = 0x01;
const OP_DELETE: u8 = 0x02;

/// Serializes one batch into a record payload.
pub(crate) fn encode_batch(ops: &[WalOp]) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u32(&mut payload, ops.len() as u32);
    for op in ops {
        match op {
            WalOp::Insert { doc, length, terms } => {
                payload.push(OP_INSERT);
                put_u32(&mut payload, *doc);
                put_u32(&mut payload, *length);
                put_u32(&mut payload, terms.len() as u32);
                for &(term, count) in terms {
                    put_u32(&mut payload, term);
                    put_u32(&mut payload, count);
                }
            }
            WalOp::Delete { doc } => {
                payload.push(OP_DELETE);
                put_u32(&mut payload, *doc);
            }
        }
    }
    payload
}

/// Decodes a record payload. `None` signals a malformed payload (only
/// reachable when a corrupted record also collides on its CRC — replay
/// still treats it as a torn tail rather than trusting it).
pub(crate) fn decode_batch(payload: &[u8]) -> Option<Vec<WalOp>> {
    let mut r = Reader::new(payload, WAL_FILE);
    // A delete, the shortest op: its tag and document.
    let count = r.count(5).ok()?;
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let op = match r.take(1).ok()? {
            [OP_INSERT] => {
                let (doc, length) = (r.u32().ok()?, r.u32().ok()?);
                let term_count = r.count(8).ok()?;
                let mut terms = Vec::with_capacity(term_count);
                for _ in 0..term_count {
                    terms.push((r.u32().ok()?, r.u32().ok()?));
                }
                WalOp::Insert { doc, length, terms }
            }
            [OP_DELETE] => WalOp::Delete { doc: r.u32().ok()? },
            _ => return None,
        };
        ops.push(op);
    }
    r.finish().ok().map(|()| ops)
}

/// The append handle for the live log.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    bytes: u64,
    /// A failed append left bytes after `bytes` that are not cut yet.
    partial: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` for appending after
    /// its end — after its last good record once [`recover`] has cut it.
    pub(crate) fn open(path: &Path) -> Result<Self, SegmentError> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        let bytes = file.seek(SeekFrom::End(0))?;
        Ok(Self {
            file,
            bytes,
            partial: false,
        })
    }

    /// Cuts what a failed append left after the last whole record. No
    /// record may follow a part of one: replay would stop there.
    fn cut_partial(&mut self) -> Result<(), SegmentError> {
        if self.partial {
            self.file.set_len(self.bytes)?;
            self.partial = false;
        }
        Ok(())
    }

    /// Appends one batch record; returns the bytes written. With
    /// `sync`, the record is fsync'd before the call returns (the
    /// durability point against machine crashes — process crashes are
    /// covered by the OS page cache either way).
    pub(crate) fn append(&mut self, ops: &[WalOp], sync: bool) -> Result<u64, SegmentError> {
        self.cut_partial()?;
        let payload = encode_batch(ops);
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        let mut written = self.file.write_all(&record);
        if sync && written.is_ok() {
            written = self.file.sync_data();
        }
        if let Err(e) = written {
            // Not acknowledged. A cut that fails here is retried before
            // the next append or rotation, which fail while it does.
            self.partial = true;
            let _ = self.cut_partial();
            return Err(e.into());
        }
        self.bytes += record.len() as u64;
        Ok(record.len() as u64)
    }

    /// Rotates the log at `dir/wal.log`: renames it to
    /// `wal-<seq>.log` and starts a fresh, empty `wal.log`. With `sync`,
    /// the directory is synced before
    /// the first append to the new log, so the rename is as durable as
    /// the records that follow it. If the new log cannot be opened the
    /// rename is undone and this handle keeps appending where it did.
    pub(crate) fn rotate(&mut self, dir: &Path, seq: u64, sync: bool) -> Result<(), SegmentError> {
        self.cut_partial()?;
        let (active, rotated) = (dir.join(WAL_FILE), dir.join(rotated_name(seq)));
        std::fs::rename(&active, &rotated)?;
        let fresh = match Self::open(&active) {
            Ok(fresh) => fresh,
            Err(e) => {
                let _ = std::fs::rename(&rotated, &active);
                return Err(e);
            }
        };
        if sync {
            File::open(dir)?.sync_all()?;
        }
        *self = fresh;
        Ok(())
    }

    /// Current log size in bytes.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Replays the log at `path`: its fully written, checksum-valid
/// batches in append order, up to its first bad record (a torn header
/// or payload, a checksum or a payload that fails), and — if a record
/// failed — the offset where the good ones end. A missing file is an
/// empty log.
pub(crate) fn replay(path: &Path) -> Result<(Vec<Vec<WalOp>>, Option<u64>), SegmentError> {
    let raw = match std::fs::read(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let mut batches = Vec::new();
    let mut rest = raw.as_slice();
    while let Some((len, tail)) = rest.split_first_chunk() {
        let Some((crc, tail)) = tail.split_first_chunk() else {
            break; // torn header
        };
        let Some(payload) = tail.get(..u32::from_le_bytes(*len) as usize) else {
            break; // torn payload
        };
        if crc32(payload) != u32::from_le_bytes(*crc) {
            break; // damaged record
        }
        let Some(ops) = decode_batch(payload) else {
            break; // CRC collision on garbage
        };
        batches.push(ops);
        rest = &tail[payload.len()..];
    }
    let damaged = (!rest.is_empty()).then_some((raw.len() - rest.len()) as u64);
    Ok((batches, damaged))
}

/// Recovers the logs in `dir` — every rotated log in `seq` order, then
/// `wal.log` — handing each good batch to `apply`, and opens `wal.log`
/// for the next append. Returns one past the highest rotated `seq`,
/// and the log. The rule is *point in time*: replay stops at the first
/// bad record across all logs, and nothing after it is replayed by
/// this open or any later one. So before the first append the later
/// logs are removed (`wal.log` included, the directory synced) and the
/// damaged log is cut at its last good record — a later write never
/// lies behind a record replay stops at. With `sync`, every record of
/// a rotated log was synced before the rotation, so a bad one there is
/// damage, not a torn write: the open is `Corrupt`.
pub(crate) fn recover(
    dir: &Path,
    sync: bool,
    mut apply: impl FnMut(Vec<WalOp>),
) -> Result<(u64, Wal), SegmentError> {
    let rotated = rotated_logs(dir)?;
    let after = rotated.last().map_or(0, |&(seq, _)| seq + 1);
    let mut logs: Vec<PathBuf> = rotated.into_iter().map(|(_, log)| log).collect();
    logs.push(dir.join(WAL_FILE));
    for (i, log) in logs.iter().enumerate() {
        let (batches, damaged) = replay(log)?;
        batches.into_iter().for_each(&mut apply);
        let Some(end) = damaged else { continue };
        let later = &logs[i + 1..];
        if sync && !later.is_empty() {
            let reason = "damaged record in a rotated log";
            return Err(SegmentError::corrupt(log.display().to_string(), reason));
        }
        // Later logs first: a crash before the cut finds the same bad
        // record, and nothing behind it, at the next open.
        for later in later.iter().filter(|later| later.exists()) {
            std::fs::remove_file(later)?;
        }
        File::open(dir)?.sync_all()?;
        let file = OpenOptions::new().write(true).open(log)?;
        file.set_len(end)?;
        file.sync_all()?;
        break;
    }
    Ok((after, Wal::open(&dir.join(WAL_FILE))?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;

    fn sample_batches() -> Vec<Vec<WalOp>> {
        vec![
            vec![
                WalOp::Insert {
                    doc: 1,
                    length: 4,
                    terms: vec![(0, 1), (3, 3)],
                },
                WalOp::Insert {
                    doc: 2,
                    length: 1,
                    terms: vec![(0, 1)],
                },
            ],
            vec![WalOp::Delete { doc: 1 }],
            vec![WalOp::Insert {
                doc: 9,
                length: 2,
                terms: vec![(5, 2)],
            }],
        ]
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = ScratchDir::new("wal-roundtrip");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        for batch in sample_batches() {
            wal.append(&batch, false).unwrap();
        }
        assert!(wal.bytes() > 0);
        drop(wal);
        assert_eq!(replay(&path).unwrap().0, sample_batches());
    }

    #[test]
    fn missing_log_is_empty() {
        let dir = ScratchDir::new("wal-missing");
        assert!(replay(&dir.join("absent.log")).unwrap().0.is_empty());
    }

    #[test]
    fn truncation_keeps_only_whole_records() {
        let dir = ScratchDir::new("wal-trunc");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        let batches = sample_batches();
        let mut boundaries = vec![0u64];
        for batch in &batches {
            let written = wal.append(batch, false).unwrap();
            boundaries.push(boundaries.last().unwrap() + written);
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (recovered, damaged) = replay(&path).unwrap();
            // Exactly the batches whose records fit entirely below the
            // cut — a strict prefix, never a partial batch — and where
            // the last of them ends, if a torn one follows.
            let expect = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(recovered.len(), expect, "cut at {cut}");
            assert_eq!(recovered, batches[..expect], "cut at {cut}");
            let end = boundaries[expect];
            assert_eq!(damaged, (end < cut as u64).then_some(end), "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_byte_ends_the_replay_at_that_record() {
        let dir = ScratchDir::new("wal-corrupt");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        let batches = sample_batches();
        let mut boundaries = vec![0u64];
        for batch in &batches {
            let written = wal.append(batch, false).unwrap();
            boundaries.push(boundaries.last().unwrap() + written);
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        for at in 0..full.len() {
            let mut damaged = full.clone();
            damaged[at] ^= 0x40;
            std::fs::write(&path, &damaged).unwrap();
            let recovered = replay(&path).unwrap().0;
            // Records strictly before the damaged one must survive.
            let intact = boundaries.iter().filter(|&&b| b <= at as u64).count() - 1;
            assert!(recovered.len() >= intact, "byte {at}");
            assert_eq!(recovered[..intact], batches[..intact], "byte {at}");
        }
    }

    #[test]
    fn rotation_renames_the_log_and_starts_an_empty_one() {
        let dir = ScratchDir::new("wal-rotate");
        let mut wal = Wal::open(&dir.join(WAL_FILE)).unwrap();
        let batches = sample_batches();
        wal.append(&batches[0], false).unwrap();
        wal.rotate(&dir, 7, true).unwrap();
        let rotated = dir.join("wal-000007.log");
        assert_eq!(wal.bytes(), 0);
        wal.append(&batches[1], false).unwrap();
        drop(wal);
        assert_eq!(replay(&rotated).unwrap().0, batches[..1]);
        assert_eq!(replay(&dir.join(WAL_FILE)).unwrap().0, batches[1..2]);
        assert_eq!(rotated_logs(&dir).unwrap(), vec![(7, rotated)]);
    }

    /// An append whose write and cut both fail holds the log: no
    /// append or rotation until the cut succeeds, and then the next
    /// record follows the last whole one.
    #[test]
    fn a_failed_cut_holds_the_log_until_it_succeeds() {
        let dir = ScratchDir::new("wal-failed-cut");
        let path = dir.join(WAL_FILE);
        let batches = sample_batches();
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&batches[0], false).unwrap();
        // A read-only handle fails the write and the cut alike.
        let writable = std::mem::replace(&mut wal.file, File::open(&path).unwrap());
        assert!(wal.append(&batches[1], false).is_err());
        assert!(wal.partial);
        // What a write that failed part-way leaves behind.
        let mut torn = OpenOptions::new().append(true).open(&path).unwrap();
        torn.write_all(&[7; 5]).unwrap();
        assert!(wal.append(&batches[1], false).is_err());
        assert!(wal.rotate(&dir, 7, false).is_err());
        assert!(rotated_logs(&dir).unwrap().is_empty());
        wal.file = writable;
        wal.append(&batches[2], false).unwrap();
        drop(wal);
        let whole = vec![batches[0].clone(), batches[2].clone()];
        assert_eq!(replay(&path).unwrap(), (whole, None));
    }

    #[test]
    fn reopening_appends_after_existing_records() {
        let dir = ScratchDir::new("wal-reopen");
        let path = dir.join("wal.log");
        let batches = sample_batches();
        for batch in &batches {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(batch, true).unwrap();
        }
        assert_eq!(replay(&path).unwrap().0, batches);
    }
}
