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
//! first bad byte on is a *torn tail* from an interrupted write and is
//! ignored. Acknowledged batches always precede the tail, so recovery
//! keeps every acknowledged batch and never applies a partial one
//! (property-tested in `tests/recovery_properties.rs` by truncating
//! and corrupting logs at arbitrary byte offsets).
//!
//! # Files
//!
//! The active log is `wal.log`. When the memtable it journals freezes,
//! the log is *rotated*: renamed to `wal-<seq>.log`, where `seq` is the
//! sequence number of the segment the frozen table will become, and a
//! fresh `wal.log` takes the next batch. A log is never truncated or
//! rewritten; a rotated one is deleted once the manifest names the
//! segment holding its batches. Recovery replays every `wal-*.log` in
//! ascending `seq`, then `wal.log`.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
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
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, positioned for
    /// appending after any existing records.
    pub(crate) fn open(path: &Path) -> Result<Self, SegmentError> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        let bytes = file.seek(SeekFrom::End(0))?;
        Ok(Self { file, bytes })
    }

    /// Appends one batch record; returns the bytes written. With
    /// `sync`, the record is fsync'd before the call returns (the
    /// durability point against machine crashes — process crashes are
    /// covered by the OS page cache either way).
    pub(crate) fn append(&mut self, ops: &[WalOp], sync: bool) -> Result<u64, SegmentError> {
        let payload = encode_batch(ops);
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        self.file.write_all(&record)?;
        if sync {
            self.file.sync_data()?;
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

/// Replays the log at `path`: all fully-written, checksum-valid
/// batches in append order. A missing file is an empty log. A torn or
/// corrupted tail ends the replay silently; everything before it is
/// returned.
pub(crate) fn replay(path: &Path) -> Result<Vec<Vec<WalOp>>, SegmentError> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    }
    let mut batches = Vec::new();
    let mut rest = raw.as_slice();
    // Ends at the clean end of the log, a torn header/payload, or a
    // corrupted record — whichever comes first.
    while let Some((len, tail)) = rest.split_first_chunk() {
        let Some((crc, tail)) = tail.split_first_chunk() else {
            break; // torn header
        };
        let Some(payload) = tail.get(..u32::from_le_bytes(*len) as usize) else {
            break; // torn payload
        };
        if crc32(payload) != u32::from_le_bytes(*crc) {
            break; // corrupted tail
        }
        let Some(ops) = decode_batch(payload) else {
            break; // CRC collision on garbage — still a tail
        };
        batches.push(ops);
        rest = &tail[payload.len()..];
    }
    // Anything left in `rest` is a torn header or payload: ignored.
    Ok(batches)
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
        assert_eq!(replay(&path).unwrap(), sample_batches());
    }

    #[test]
    fn missing_log_is_empty() {
        let dir = ScratchDir::new("wal-missing");
        assert!(replay(&dir.join("absent.log")).unwrap().is_empty());
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
            let recovered = replay(&path).unwrap();
            // Exactly the batches whose records fit entirely below the
            // cut — a strict prefix, never a partial batch.
            let expect = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(recovered.len(), expect, "cut at {cut}");
            assert_eq!(recovered, batches[..expect], "cut at {cut}");
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
            let recovered = replay(&path).unwrap();
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
        assert_eq!(replay(&rotated).unwrap(), batches[..1]);
        assert_eq!(replay(&dir.join(WAL_FILE)).unwrap(), batches[1..2]);
        assert_eq!(rotated_logs(&dir).unwrap(), vec![(7, rotated)]);
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
        assert_eq!(replay(&path).unwrap(), batches);
    }
}
