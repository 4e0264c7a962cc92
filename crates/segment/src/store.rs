//! The LSM engine: WAL → memtable → immutable segments, with
//! size-balanced compaction and MVCC reader snapshots.
//!
//! # Write path
//!
//! ```text
//! insert/delete batch                          (writer lock)
//!   │ 1. append checksummed record to wal.log  (ack point)
//!   │ 2. fold the batch into the active memtable
//!   ▼
//! active ─(≥ flush_postings, none frozen)─► freeze, O(1): wal.log →
//!                                           wal-N.log, fresh wal.log;
//!                                           active → frozen; queue seal
//! frozen ─(scheduler: seals first)────────► seal: merge → seg-N.zseg →
//!                                           MANIFEST (commit lock) →
//!                                           rm wal-N.log → slot empty
//! [segments ...] ─(> max_segments)────────► merge the best-balanced
//!                                           adjacent pair → one segment,
//!                                           written with no lock (GC of
//!                                           tombstones iff it starts at
//!                                           the oldest) → splice +
//!                                           MANIFEST (commit lock) → rm
//!                                           inputs
//! ```
//!
//! Below the active table's cap (see Backpressure) the writer lock
//! covers no file write but the WAL append and the freeze's rename:
//! segments are written by the jobs a store queues (`background.rs`),
//! which hold no lock a writer takes. `background: false` changes only
//! who runs them: not the process's workers, but a caller of
//! [`SegmentStore::step`], one job at a time.
//!
//! # Backpressure
//!
//! At most one table is frozen. While it is being sealed, writers keep
//! folding into the active table; the write that brings the active
//! table to [`ACTIVE_CAP`] × `flush_postings` waits for the seal in
//! flight (it runs the seal itself if no job has started it), then
//! freezes. Each wait is recorded in `zerber_segment_write_stall_ns`.
//! When a queued seal ends, it freezes the active table itself if it
//! crossed the threshold meanwhile.
//!
//! # Compaction windows
//!
//! One step merges the *adjacent pair whose posting counts are closest
//! in ratio* (`balanced_pair`): adjacent, because recency order is
//! what the shadowing rule reads; balanced, so a segment is rewritten
//! only once its neighbour has grown to its own order of magnitude —
//! O(log n) rewrites per posting instead of the whole base per flush.
//! Seal and compaction run the same streaming shadow-aware merge
//! (`segment::merge_streaming`); a bulk load merges nothing.
//!
//! # Crash safety
//!
//! The `MANIFEST` names the live segment set and is replaced
//! atomically (temp file + rename); segment files are written the same
//! way, and a log is only ever appended to, renamed, deleted, or cut at
//! open. Open deletes unlisted segment files, then replays every
//! `wal-*.log` in ascending `seq` and `wal.log` after them, up to the
//! first bad record across them all (`wal::recover`). So each crash
//! window recovers:
//!
//! * **rotated, not sealed** — `wal-N.log` still holds the frozen
//!   batches, and a `seg-N` the manifest does not list is garbage;
//! * **sealed, log not yet deleted** — the manifest lists `seg-N`, and
//!   replaying `wal-N.log` re-applies batches `seg-N` already carries,
//!   which is idempotent under newest-wins: no segment holding later
//!   batches is listed until the log is gone (the next seal waits for
//!   the slot, and a bulk load seals — deleting every rotated log —
//!   before it registers);
//! * **compaction written, not spliced** — an unlisted file.
//!
//! Each window is staged from files and reopened in
//! `tests/crash_windows.rs`.
//!
//! # Snapshots
//!
//! Readers clone `Arc`s of the segment list, the frozen table and the
//! active memtable (read order: segments → frozen → active) — no locks
//! are held while a query runs, so sustained top-k load never blocks
//! ingest and vice versa. A write folds into the active memtable in
//! place (`Arc::make_mut`); while a snapshot still holds the old one,
//! that write folds into a copy, so the snapshot keeps its world.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use zerber_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use zerber_index::cursor::{BlockCursor, EmptyCursor, ShadowedMergeCursor};
use zerber_index::{DocId, Document, Posting, PostingStore, SegmentPolicy, TermId};
use zerber_postings::{to_posting, CompressedPostingBuilder, CompressedPostingList, RawEntry};

use crate::background::{cancel, step, submit, Job};
use crate::bulk::{BulkConfig, BulkStats};
use crate::error::SegmentError;
use crate::memtable::Memtable;
use crate::segment::{
    check_frame, lay_out, merge_streaming, seal_frame, write_framed, Reader, Segment, ShadowProbe,
    Source, TermPostings, HEADER,
};
use crate::wal::{recover, rotated_logs, Wal, WalOp};

const MANIFEST_FILE: &str = "MANIFEST.zman";

/// The active memtable's cap while a frozen table is being sealed, in
/// multiples of `flush_postings`: the write that reaches it waits for
/// the seal. With at most one frozen table, the two memtables hold
/// about `(1 + ACTIVE_CAP) × flush_postings` between them at most.
const ACTIVE_CAP: usize = 2;

/// A frozen memtable on its way to becoming the segment `seq`. Its
/// batches are in the rotated logs numbered up to `seq` (more than one
/// when logs replayed at open froze with it), which its seal deletes
/// once the manifest names the segment.
struct Frozen {
    memtable: Arc<Memtable>,
    seq: u64,
}

/// The engine's current world: segments oldest → newest, then the
/// frozen table, then the active memtable over them. Read access
/// clones the `Arc`s.
struct EngineState {
    segments: Vec<Arc<Segment>>,
    /// The table being sealed, if any: one slot, so at most one table
    /// is frozen.
    frozen: Option<Frozen>,
    /// The active memtable every acknowledged batch folds into.
    memtable: Arc<Memtable>,
    /// Flush pressure: the sum of the weights of the batches applied
    /// to the active memtable since it was last frozen.
    mem_weight: usize,
}

/// Pre-registered instrument handles of one store. Lives on [`Inner`]
/// so background jobs (which only hold the `Inner`) record as well.
struct SegmentMetrics {
    /// `zerber_segment_wal_fsync_ns`: WAL append+fsync latency when
    /// `sync_wal` is on (the durable-ack critical path).
    wal_fsync: Histogram,
    /// `zerber_segment_wal_append_ns`: buffered WAL append latency
    /// when `sync_wal` is off.
    wal_append: Histogram,
    /// `zerber_segment_flush_ns`: one seal (frozen table → segment +
    /// manifest + log delete), wherever it runs.
    flush: Histogram,
    /// `zerber_segment_write_stall_ns`: how long a write at the active
    /// table's cap waited for the seal in flight.
    write_stall: Histogram,
    /// `zerber_segment_compaction_ns`: one compaction step (one pair
    /// merge).
    compaction: Histogram,
    /// `zerber_segment_segments` gauge: current on-disk segment count.
    segments: Gauge,
    /// `zerber_segment_compactions_total`: compaction steps completed.
    compactions: Counter,
    /// `zerber_segment_tombstones_gc_total`: tombstones retired by
    /// compaction merges that started at the oldest segment (a
    /// mid-stack merge carries its tombstones and counts nothing).
    tombstones_gc: Counter,
    /// `zerber_segment_flush_postings_total`: postings written by
    /// memtable seals.
    flush_postings: Counter,
    /// `zerber_segment_compaction_postings_total`: postings written by
    /// compaction merges — over the ingested postings, the policy's
    /// rewrite cost.
    compaction_postings: Counter,
    /// `zerber_segment_bulk_docs_total`: documents loaded through the
    /// offline bulk path.
    bulk_docs: Counter,
    /// `zerber_segment_bulk_build_ns`: end-to-end duration of one
    /// bulk load (dedup → lists → write → manifest).
    bulk_build: Histogram,
}

impl SegmentMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        Self {
            wal_fsync: registry.histogram("zerber_segment_wal_fsync_ns"),
            wal_append: registry.histogram("zerber_segment_wal_append_ns"),
            flush: registry.histogram("zerber_segment_flush_ns"),
            write_stall: registry.histogram("zerber_segment_write_stall_ns"),
            compaction: registry.histogram("zerber_segment_compaction_ns"),
            segments: registry.gauge("zerber_segment_segments"),
            compactions: registry.counter("zerber_segment_compactions_total"),
            tombstones_gc: registry.counter("zerber_segment_tombstones_gc_total"),
            flush_postings: registry.counter("zerber_segment_flush_postings_total"),
            compaction_postings: registry.counter("zerber_segment_compaction_postings_total"),
            bulk_docs: registry.counter("zerber_segment_bulk_docs_total"),
            bulk_build: registry.histogram("zerber_segment_bulk_build_ns"),
        }
    }
}

/// The store's shared core. Its locks are always taken in this order,
/// each step optional: `compaction` → `writer` → `sealing` → `commit`,
/// with `state` innermost and held only to read or swap `Arc`s. The
/// writer never waits on `compaction`, and waits on `sealing` only at
/// the active table's cap.
pub(crate) struct Inner {
    dir: PathBuf,
    pub(crate) policy: SegmentPolicy,
    state: RwLock<EngineState>,
    /// The active log. Its lock serialises every mutation (WAL order =
    /// apply order = ack order) and every freeze.
    writer: Mutex<Wal>,
    /// At most one seal at a time, held from merging the frozen table
    /// to emptying its slot: waiting on it is waiting for the slot.
    sealing: Mutex<()>,
    /// The next segment sequence number. Held for every change to the
    /// segment set — a seal's install, a compaction's splice, a bulk
    /// load's registration — and every MANIFEST write, so a manifest
    /// always matches the state it was derived from.
    commit: Mutex<u64>,
    /// At most one compaction at a time (explicit or background).
    compaction: Mutex<()>,
    /// Instrument handles, in the registry the store was opened with.
    obs: SegmentMetrics,
    /// With `background: false`, the store's queued jobs, which
    /// [`SegmentStore::step`] runs.
    pub(crate) stepped: Mutex<BTreeSet<Job>>,
}

/// A durable, crash-safe posting store with live inserts and deletes.
///
/// See the [crate docs](crate) for a full open → ingest → crash →
/// recover example. All methods take `&self`: the store is shared
/// across threads behind an `Arc` (or borrowed) — ingest, queries, and
/// background sealing and compaction proceed concurrently.
pub struct SegmentStore {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("dir", &self.inner.dir)
            .field("segments", &self.segment_count())
            .field("memtable_postings", &self.memtable_postings())
            .finish()
    }
}

/// Could `name` reach outside the directory it is joined to? Empty
/// names, path separators and `..` are refused wherever a file name
/// arrives from outside: in a MANIFEST, and in a snapshot's file set.
fn escapes(name: &str) -> bool {
    name.is_empty() || name.contains('/') || name.contains('\\') || name.contains("..")
}

/// The next segment sequence number a MANIFEST file, given whole as
/// `frame`, holds, and the segments it lists, oldest first: each file
/// given whole by `frame_of` once the manifest has parsed, and read
/// once ([`Segment::read`]).
fn load_manifest(
    frame: &[u8],
    mut frame_of: impl FnMut(&str) -> Result<Vec<u8>, SegmentError>,
) -> Result<(u64, Vec<Arc<Segment>>), SegmentError> {
    check_frame(frame, MANIFEST_FILE)?;
    let mut r = Reader::new(frame, MANIFEST_FILE);
    r.take(HEADER)?;
    let next_seq = r.u64()?;
    // A name: its `u16` length, then at least one byte.
    let count = r.count(3)?;
    let mut names = Vec::with_capacity(count);
    for _ in 0..count {
        let len = usize::from(r.u16()?);
        let name = std::str::from_utf8(r.take(len)?)
            .map_err(|_| r.corrupt("segment name is not UTF-8"))?;
        if escapes(name) {
            return Err(r.corrupt("segment name escapes the store directory"));
        }
        // Not a `.log` either, which open would recover and cut.
        if !name.ends_with(".zseg") {
            return Err(r.corrupt("segment name is not a .zseg file"));
        }
        names.push(name);
    }
    r.finish()?;
    let read = |name: &&str| Ok(Arc::new(Segment::read(frame_of(name)?, name)?));
    let segments = names
        .iter()
        .map(read)
        .collect::<Result<_, SegmentError>>()?;
    Ok((next_seq, segments))
}

/// The MANIFEST file naming `segments` in order, under `next_seq`.
fn manifest_frame(next_seq: u64, segments: &[Arc<Segment>]) -> Vec<u8> {
    let mut frame = vec![0; HEADER];
    frame.extend_from_slice(&next_seq.to_le_bytes());
    frame.extend_from_slice(&(segments.len() as u32).to_le_bytes());
    for segment in segments {
        let name = segment.file_name().as_bytes();
        frame.extend_from_slice(&(name.len() as u16).to_le_bytes());
        frame.extend_from_slice(name);
    }
    seal_frame(&mut frame);
    frame
}

impl Inner {
    /// Writes the manifest naming the given segment order. Called with
    /// the commit lock held (its value is `next_seq`), so manifest
    /// contents always match the engine state they were derived from.
    fn write_manifest(&self, next_seq: u64, segments: &[Arc<Segment>]) -> Result<(), SegmentError> {
        let frame = manifest_frame(next_seq, segments);
        write_framed(&self.dir.join(MANIFEST_FILE), &frame)
    }

    /// Takes the next segment sequence number. It becomes durable only
    /// with a manifest (or a rotated log's name); after a crash an
    /// unused number is simply reused.
    fn reserve_seq(&self) -> u64 {
        let mut next_seq = self.commit.lock();
        *next_seq += 1;
        *next_seq - 1
    }

    /// The flush threshold, in memtable weight.
    fn threshold(&self) -> usize {
        self.policy.flush_postings.max(1)
    }

    /// Freezes the active memtable in O(1): rotates `wal.log` to
    /// `wal-<seq>.log` under a fresh `seq`, moves the table into the
    /// frozen slot and starts an empty one. Writer lock held by the
    /// caller, and the slot empty. Returns whether anything froze (an
    /// empty table does not).
    fn freeze(&self, wal: &mut Wal) -> Result<bool, SegmentError> {
        if self.state.read().memtable.is_empty() {
            return Ok(false);
        }
        let seq = self.reserve_seq();
        wal.rotate(&self.dir, seq, self.policy.sync_wal)?;
        let mut state = self.state.write();
        debug_assert!(state.frozen.is_none(), "one frozen table at a time");
        let memtable = std::mem::take(&mut state.memtable);
        state.frozen = Some(Frozen { memtable, seq });
        state.mem_weight = 0;
        Ok(true)
    }

    /// The one seal: writes the frozen table as segment `seq`, lists it
    /// in the MANIFEST, deletes its logs and empties the slot — a no-op
    /// while the slot is empty. `sealing` is held throughout, so a
    /// caller that finds a seal in flight waits for it and then finds
    /// the slot empty. On an error the table and its logs stay frozen,
    /// and the next call retries.
    pub(crate) fn seal_frozen(&self) -> Result<(), SegmentError> {
        let _one_seal = self.sealing.lock();
        // Only the holder of `sealing` changes a full slot: what is
        // read here stays put until this seal empties it.
        let (memtable, seq, no_segments) = {
            let state = self.state.read();
            let Some(frozen) = &state.frozen else {
                return Ok(());
            };
            let no_segments = state.segments.is_empty();
            (Arc::clone(&frozen.memtable), frozen.seq, no_segments)
        };
        let started = Instant::now();
        // With no older segments a tombstone has nothing to mask. None
        // can appear meanwhile: seals are serial, and a bulk load seals
        // before it registers.
        let content = merge_streaming(&[memtable.as_ref()], no_segments);
        let segment = if content.is_empty() {
            None
        } else {
            Some(Arc::new(content.write(&self.dir, seq)?))
        };
        let postings = segment.as_ref().map_or(0, |s| s.posting_count());
        let next_seq = self.commit.lock();
        let mut segments = self.state.read().segments.clone();
        if let Some(segment) = segment {
            segments.push(segment);
            self.write_manifest(*next_seq, &segments)?;
        }
        // Only now are the logs redundant. They go before the slot
        // empties, so no segment holding later batches is ever listed
        // beside them.
        for (n, log) in rotated_logs(&self.dir)? {
            if n <= seq {
                std::fs::remove_file(log)?;
            }
        }
        let count = segments.len();
        {
            let mut state = self.state.write();
            state.segments = segments;
            state.frozen = None;
        }
        drop(next_seq);
        self.obs.flush.record(started.elapsed().as_nanos() as u64);
        self.obs.flush_postings.add(postings as u64);
        self.obs.segments.set(count as i64);
        Ok(())
    }

    /// Seals the frozen table, then the active one: the synchronous
    /// seal of `flush()`, `export_files` and a bulk load's
    /// registration. Writer lock held by the caller, so nothing refills
    /// the slot in between.
    fn seal_both(&self, wal: &mut Wal) -> Result<(), SegmentError> {
        self.seal_frozen()?;
        if self.freeze(wal)? {
            self.seal_frozen()?;
        }
        Ok(())
    }

    /// A seal job's check once its seal is done: freezes the active
    /// table if it crossed the threshold while the slot was full.
    /// Returns whether it froze.
    pub(crate) fn freeze_if_due(&self) -> Result<bool, SegmentError> {
        let mut wal = self.writer.lock();
        let due = {
            let state = self.state.read();
            state.frozen.is_none() && state.mem_weight >= self.threshold()
        };
        if due {
            self.freeze(&mut wal)
        } else {
            Ok(false)
        }
    }

    /// One compaction step: when more than `max_segments` segments
    /// exist, merge the adjacent pair [`balanced_pair`] names into one
    /// segment. The merge and the file write hold no lock a writer
    /// takes; only the splice and its manifest hold `commit`. Returns
    /// whether it did anything.
    pub(crate) fn compact_once(&self) -> Result<bool, SegmentError> {
        let _at_most_one = self.compaction.lock();
        let (at, inputs) = {
            let state = self.state.read();
            let sizes: Vec<usize> = state.segments.iter().map(|s| s.posting_count()).collect();
            let Some(at) = balanced_pair(&sizes, self.policy.max_segments) else {
                return Ok(false);
            };
            (at, state.segments[at..at + 2].to_vec())
        };
        let started = Instant::now();
        // Only a window starting at the oldest segment leaves nothing
        // older for its tombstones to mask; any other carries them.
        let gc_tombstones = at == 0;
        let sources: Vec<&dyn Source> = inputs.iter().map(|s| s.content() as &dyn Source).collect();
        let content = merge_streaming(&sources, gc_tombstones);
        let merged: Option<Arc<Segment>> = if content.is_empty() {
            None
        } else {
            Some(Arc::new(content.write(&self.dir, self.reserve_seq())?))
        };
        let postings = merged.as_ref().map_or(0, |s| s.posting_count());
        let next_seq = self.commit.lock();
        let segments = {
            let mut state = self.state.write();
            // Seals and bulk loads only append, and `compaction` is
            // locked: the inputs are still at `at`.
            debug_assert!(state.segments[at..at + 2]
                .iter()
                .zip(&inputs)
                .all(|(a, b)| Arc::ptr_eq(a, b)));
            state.segments.splice(at..at + 2, merged);
            state.segments.clone()
        };
        self.write_manifest(*next_seq, &segments)?;
        drop(next_seq);
        // The inputs are no longer reachable from the manifest; their
        // files are garbage (readers still holding snapshot Arcs read
        // from memory, not the files).
        for input in &inputs {
            let _ = std::fs::remove_file(self.dir.join(input.file_name()));
        }
        let obs = &self.obs;
        obs.compaction.record(started.elapsed().as_nanos() as u64);
        obs.compactions.inc();
        obs.compaction_postings.add(postings as u64);
        if gc_tombstones {
            let retired: usize = inputs.iter().map(|s| s.content().tombstones().len()).sum();
            obs.tombstones_gc.add(retired as u64);
        }
        obs.segments.set(segments.len() as i64);
        Ok(true)
    }
}

/// Refuses a batch that holds a document breaking `Document`'s
/// invariant, naming the first one.
fn refuse_malformed(docs: &[Document]) -> Result<(), SegmentError> {
    match docs.iter().find(|doc| !doc.is_well_formed()) {
        Some(doc) => Err(SegmentError::MalformedDocument(doc.id)),
        None => Ok(()),
    }
}

/// One bulk worker's share of the inversion: the lists of the terms
/// `t` with `t % parts == part`, term-ascending, each built by pushing
/// its postings in the batch's doc order into one compressor — the
/// order, and so the bytes, a flush of the same batch gives it. A
/// posting's `pos` is the running sum of its document's counts in term
/// order, as the memtable lays it out.
fn invert_partition(
    docs: &[&Document],
    part: u32,
    parts: u32,
) -> Vec<(u32, CompressedPostingList)> {
    let mut builders: HashMap<u32, CompressedPostingBuilder> = HashMap::new();
    for doc in docs {
        let mut pos = 0u32;
        for &(TermId(term), count) in &doc.terms {
            if term % parts == part {
                builders.entry(term).or_default().push(RawEntry {
                    doc: doc.id.0,
                    count,
                    doc_length: doc.length,
                    pos,
                });
            }
            pos += count;
        }
    }
    let mut lists: Vec<(u32, CompressedPostingList)> = builders
        .into_iter()
        .map(|(term, builder)| (term, builder.build()))
        .collect();
    lists.sort_unstable_by_key(|&(term, _)| term);
    lists
}

/// The compaction window rule, as a pure decision over the segments'
/// posting counts (oldest first): `None` while at most `max_segments`
/// exist, otherwise the index of the older half of the adjacent pair
/// whose counts are closest in ratio — ties go to the smaller combined
/// size, then to the older pair. Empty segments count as one posting.
fn balanced_pair(sizes: &[usize], max_segments: usize) -> Option<usize> {
    if sizes.len() <= max_segments.max(1) {
        return None;
    }
    // (larger, smaller, sum) of the pair starting at `at`; ratios are
    // compared exactly by cross-multiplication.
    let pair = |at: usize| {
        let (a, b) = (sizes[at].max(1) as u128, sizes[at + 1].max(1) as u128);
        (a.max(b), a.min(b), a + b)
    };
    (0..sizes.len() - 1).min_by(|&x, &y| {
        let ((hi_x, lo_x, sum_x), (hi_y, lo_y, sum_y)) = (pair(x), pair(y));
        (hi_x * lo_y).cmp(&(hi_y * lo_x)).then(sum_x.cmp(&sum_y))
    })
}

impl SegmentStore {
    /// Opens (or creates) the store rooted at `dir` and recovers its
    /// durable state: the manifest's segment set is loaded (CRC-checked,
    /// each list proven by [`CompressedPostingList::parse`]: every list
    /// a store holds was sealed by the builder or proven there), stray
    /// files from interrupted seals or compactions are deleted, and the
    /// logs are replayed — every rotated `wal-*.log` in `seq` order, then
    /// `wal.log` — up to the first bad record across them all. Before the
    /// first append that log is cut there and every later one removed;
    /// under [`SegmentPolicy::sync_wal`], a bad record in a rotated log
    /// is damage, and the open is `Corrupt`. Instruments go to a private
    /// registry; pass one to [`SegmentStore::open_observed`] to see them.
    pub fn open(dir: impl Into<PathBuf>, policy: SegmentPolicy) -> Result<Self, SegmentError> {
        Self::open_observed(dir, policy, &MetricsRegistry::new())
    }

    /// [`SegmentStore::open`] with the write-path instruments
    /// (`zerber_segment_*` WAL fsync/append, flush and compaction
    /// and write-stall histograms, segment-count gauge, compaction and
    /// tombstone-GC counters) registered in `registry`. Background
    /// seals and compactions record through the same handles.
    pub fn open_observed(
        dir: impl Into<PathBuf>,
        policy: SegmentPolicy,
        registry: &MetricsRegistry,
    ) -> Result<Self, SegmentError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let manifest = dir.join(MANIFEST_FILE);
        // Loaded before anything is collected: a manifest naming a file
        // the directory lacks is damaged, and deletes nothing.
        let (next_seq, segments) = if manifest.exists() {
            load_manifest(&std::fs::read(&manifest)?, |name| {
                let path = dir.join(name);
                if !path.is_file() {
                    return Err(SegmentError::corrupt(name, "listed segment is missing"));
                }
                Ok(std::fs::read(path)?)
            })?
        } else {
            (1, Vec::new())
        };
        Self::assemble(dir, next_seq, segments, policy, registry)
    }

    /// The one way a store comes up, from [`SegmentStore::open`] or
    /// [`SegmentStore::install`], over the manifest's `segments`: files
    /// it does not list are deleted, and the logs are recovered into the
    /// memtable (`wal::recover`).
    fn assemble(
        dir: PathBuf,
        next_seq: u64,
        segments: Vec<Arc<Segment>>,
        policy: SegmentPolicy,
        registry: &MetricsRegistry,
    ) -> Result<Self, SegmentError> {
        let listed: HashSet<&str> = segments.iter().map(|s| s.file_name()).collect();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            // Run files: an older build that crashed mid-load left some.
            let is_garbage =
                (name.ends_with(".zseg") || name.ends_with(".zrun") || name.ends_with(".tmp"))
                    && !listed.contains(name.as_str());
            if is_garbage {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        let mut memtable = Memtable::default();
        let mut mem_weight = 0;
        let (rotated_seq, wal) = recover(&dir, policy.sync_wal, |batch| {
            mem_weight += memtable.apply(&batch);
        })?;
        let obs = SegmentMetrics::register(registry);
        obs.segments.set(segments.len() as i64);
        let inner = Arc::new(Inner {
            dir,
            policy,
            state: RwLock::new(EngineState {
                segments,
                frozen: None,
                memtable: Arc::new(memtable),
                mem_weight,
            }),
            writer: Mutex::new(wal),
            sealing: Mutex::new(()),
            // A rotated log's seq was reserved in memory, maybe past
            // the manifest's `next_seq`: start above it, so that
            // nothing written later wears it.
            commit: Mutex::new(next_seq.max(rotated_seq)),
            compaction: Mutex::new(()),
            obs,
            stepped: Mutex::default(),
        });
        // A store dropped with compactions pending resumes them here.
        submit(&inner, Job::Compact);
        Ok(Self { inner })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Inserts (or replaces — "only the most recent copy") a batch of
    /// documents. Returns the batch's memtable weight (posting
    /// elements written; a term-less document counts as 1). The batch
    /// is acknowledged once its WAL record is written (and, under
    /// [`SegmentPolicy::sync_wal`], synced): from that moment it
    /// survives a crash. A batch holding a document that is not
    /// [`Document::is_well_formed`] is refused whole, before the WAL.
    pub fn insert(&self, docs: &[Document]) -> Result<usize, SegmentError> {
        refuse_malformed(docs)?;
        if docs.is_empty() {
            return Ok(0);
        }
        let ops: Vec<WalOp> = docs
            .iter()
            .map(|doc| WalOp::Insert {
                doc: doc.id.0,
                length: doc.length,
                terms: doc.terms.iter().map(|&(t, c)| (t.0, c)).collect(),
            })
            .collect();
        self.apply(ops)
    }

    /// Removes a document and all its postings. Returns whether the
    /// document was live *at the point the delete applied* — the
    /// liveness check runs under the same writer lock that orders the
    /// WAL, so the answer can never contradict the applied mutation
    /// order under concurrent writers. Durable like
    /// [`SegmentStore::insert`].
    pub fn delete(&self, doc: DocId) -> Result<bool, SegmentError> {
        let mut wal = self.inner.writer.lock();
        let existed = self.snapshot().contains_doc(doc);
        self.apply_locked(&mut wal, vec![WalOp::Delete { doc: doc.0 }])?;
        Ok(existed)
    }

    fn apply(&self, ops: Vec<WalOp>) -> Result<usize, SegmentError> {
        self.apply_locked(&mut self.inner.writer.lock(), ops)
    }

    /// Journals and folds one batch, then — at the threshold — freezes
    /// the active table and queues its seal.
    fn apply_locked(&self, wal: &mut Wal, ops: Vec<WalOp>) -> Result<usize, SegmentError> {
        let inner = &self.inner;
        let sync = inner.policy.sync_wal;
        let appended = Instant::now();
        wal.append(&ops, sync)?;
        let nanos = appended.elapsed().as_nanos() as u64;
        if sync {
            inner.obs.wal_fsync.record(nanos);
        } else {
            inner.obs.wal_append.record(nanos);
        }
        let (added, weight, slot_full) = {
            let mut state = inner.state.write();
            let added = Arc::make_mut(&mut state.memtable).apply(&ops);
            state.mem_weight += added;
            (added, state.mem_weight, state.frozen.is_some())
        };
        let threshold = inner.threshold();
        if weight < threshold {
            return Ok(added);
        }
        if slot_full {
            if weight < threshold.saturating_mul(ACTIVE_CAP) {
                return Ok(added);
            }
            let stalled = Instant::now();
            inner.seal_frozen()?;
            inner
                .obs
                .write_stall
                .record(stalled.elapsed().as_nanos() as u64);
        }
        if inner.freeze(wal)? {
            submit(inner, Job::Seal);
        }
        Ok(added)
    }

    /// Runs one of the jobs a `background: false` store has queued — a
    /// seal before a compaction — on the calling thread, and returns
    /// whether there was one: `while store.step()? {}` drains them. A
    /// write that crosses the flush threshold freezes the active table
    /// and queues its seal, a seal queues a compaction, and a
    /// compaction that merged queues the next. A store nobody steps
    /// still seals once a frozen table waits beside twice the threshold
    /// in the active one, and compacts on [`SegmentStore::compact`].
    /// With `background: true` the process's workers run the jobs, and
    /// this returns `Ok(false)`.
    pub fn step(&self) -> Result<bool, SegmentError> {
        step(&self.inner)
    }

    /// Seals the memtables into segments now, regardless of the flush
    /// threshold: a frozen table first (waiting for the seal in flight,
    /// if any), then the active one. On return every acknowledged batch
    /// is in a listed segment and `wal.log` is empty.
    pub fn flush(&self) -> Result<(), SegmentError> {
        let mut wal = self.inner.writer.lock();
        self.inner.seal_both(&mut wal)?;
        drop(wal);
        submit(&self.inner, Job::Compact);
        Ok(())
    }

    /// Runs compaction to completion on the calling thread
    /// (also available with `background: true`; the lock ensures at
    /// most one compaction runs either way).
    pub fn compact(&self) -> Result<(), SegmentError> {
        while self.inner.compact_once()? {}
        Ok(())
    }

    /// An immutable point-in-time view for queries. O(sources) `Arc`
    /// clones; never blocks or is blocked by ingest for longer than
    /// the state lock handover.
    pub fn snapshot(&self) -> SegmentSnapshot {
        let state = self.inner.state.read();
        SegmentSnapshot {
            segments: state.segments.clone(),
            frozen: state.frozen.as_ref().map(|f| Arc::clone(&f.memtable)),
            memtable: Arc::clone(&state.memtable),
        }
    }

    /// Number of on-disk segments.
    pub fn segment_count(&self) -> usize {
        self.inner.state.read().segments.len()
    }

    /// Flush pressure currently in the active memtable (live postings +
    /// tombstones).
    pub(crate) fn memtable_postings(&self) -> usize {
        self.inner.state.read().mem_weight
    }

    /// Current size of the active log, `wal.log`, in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.inner.writer.lock().bytes()
    }

    /// Current on-disk footprint: live segment files, the rotated logs
    /// not yet deleted, and the active log.
    pub fn disk_bytes(&self) -> u64 {
        let segments: u64 = {
            let state = self.inner.state.read();
            state.segments.iter().map(|s| s.disk_bytes()).sum()
        };
        let rotated: u64 = rotated_logs(&self.inner.dir)
            .unwrap_or_default()
            .iter()
            .filter_map(|(_, log)| std::fs::metadata(log).ok())
            .map(|meta| meta.len())
            .sum();
        segments + rotated + self.wal_bytes()
    }

    /// Loads a document batch through the offline bulk path — the
    /// high-throughput alternative to [`SegmentStore::insert`] for
    /// corpus-sized batches.
    ///
    /// The batch is sorted by document id, keeping the last copy of
    /// each id (like the WAL path). `BulkConfig::resolved_workers`
    /// workers then split the *vocabulary*: worker `w` of `W` scans the
    /// whole sorted batch and pushes each posting of a term `t` with
    /// `t % W == w` straight into that term's block compressor, so
    /// every list is final when the scan ends and each posting is
    /// compressed once. The workers' disjoint lists are appended in
    /// term order to the segment body, each freed once appended, and
    /// the body is written once as `seg-*.zseg` (tmp +
    /// fsync + rename + directory fsync) and registered in the
    /// `MANIFEST` under the writer lock — after sealing the frozen and
    /// the active memtable, so the bulk segment is strictly newest and
    /// replaces overlapping documents exactly like a fresh insert
    /// would, and no rotated log is left to replay over it. The
    /// file is byte for byte the one a flush of the same batch writes,
    /// whatever the worker count.
    ///
    /// **No WAL record is written.** The manifest swap is the single
    /// atomic commit point: a crash at any earlier step leaves nothing
    /// or one unlisted `.zseg` (or its `.tmp`), which the next
    /// [`SegmentStore::open`] garbage-collects — the load is
    /// all-or-nothing (property- and crash-tested in
    /// `tests/bulk_build_properties.rs`). Queries running from
    /// [`SegmentStore::snapshot`]s and background compactions are
    /// never blocked for longer than the registration lock handover.
    /// A batch holding a document that is not
    /// [`Document::is_well_formed`] is refused whole, before any work.
    ///
    /// The batch is borrowed (`&docs`) or handed over (`docs`): an
    /// owned batch is freed as soon as the lists are built, before the
    /// body is laid out.
    pub fn bulk_load<'a>(
        &self,
        docs: impl Into<Cow<'a, [Document]>>,
        config: BulkConfig,
    ) -> Result<BulkStats, SegmentError> {
        let docs: Cow<'_, [Document]> = docs.into();
        let started = Instant::now();
        refuse_malformed(&docs)?;
        // Doc-ascending, last copy of each id wins: the stable sort of
        // the reversed batch puts each id's last copy first, where the
        // dedup keeps it. Sorted, every list is pushed in doc order.
        let mut unique: Vec<&Document> = docs.iter().rev().collect();
        unique.sort_by_key(|doc| doc.id.0);
        unique.dedup_by_key(|doc| doc.id.0);
        if unique.is_empty() {
            return Ok(BulkStats::default());
        }
        let workers = config.resolved_workers().max(1) as u32;

        // --- Phase 1: term-partitioned workers build the lists. -----
        let mut terms: Vec<(u32, CompressedPostingList)> = thread::scope(|scope| {
            let unique = &unique;
            let handles: Vec<_> = (0..workers)
                .map(|part| scope.spawn(move || invert_partition(unique, part, workers)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        terms.sort_unstable_by_key(|&(term, _)| term);
        let live: Vec<u32> = unique.iter().map(|doc| doc.id.0).collect();
        let term_slots = unique
            .iter()
            .filter_map(|doc| doc.terms.last())
            .map(|&(TermId(term), _)| term + 1)
            .max()
            .unwrap_or(0);
        // The lists hold every posting now: let the batch go (an owned
        // one is freed) before the body is laid out.
        let doc_count = unique.len();
        drop(unique);
        drop(docs);
        // The body, what a flush of the batch's memtable writes: sized
        // exactly, each list freed once its record is appended.
        let list_bytes = terms.iter().map(|(_, list)| 4 + list.record().len()).sum();
        let lists = terms
            .into_iter()
            .map(|(term, list)| (term, Cow::Owned(list)));
        let content = lay_out(term_slots, &live, &[], lists, list_bytes);

        // --- Phase 2: write the segment once. ------------------------
        // The reservation only becomes durable with the registration
        // manifest; after a crash the number is simply reused (any
        // stray file wearing it was collected at open).
        let seq = self.inner.reserve_seq();
        let segment = content.write(&self.inner.dir, seq)?;
        let postings = segment.posting_count();

        // --- Phase 3: register atomically under the writer lock. ----
        let mut wal = self.inner.writer.lock();
        // Seal both memtables first: state ingested before this commit
        // point must stay *older* than the bulk segment, which replaces
        // overlapping documents like a fresh insert — and every rotated
        // log must be gone before it is listed, or a replay of an older
        // batch would shadow it.
        self.inner.seal_both(&mut wal)?;
        let next_seq = self.inner.commit.lock();
        let segments = {
            let mut state = self.inner.state.write();
            state.segments.push(Arc::new(segment));
            state.segments.clone()
        };
        self.inner.write_manifest(*next_seq, &segments)?;
        drop((next_seq, wal));
        submit(&self.inner, Job::Compact);
        let obs = &self.inner.obs;
        obs.bulk_docs.add(doc_count as u64);
        obs.bulk_build.record(started.elapsed().as_nanos() as u64);
        obs.segments.set(segments.len() as i64);
        Ok(BulkStats {
            docs: doc_count,
            postings,
        })
    }

    /// A consistent snapshot of the store for replica rebuild, which
    /// [`SegmentStore::install`] opens: both memtables sealed, a
    /// manifest naming the live segments (an empty store's too: it
    /// tells install a whole set arrived) and each segment's file,
    /// copied from memory, as named byte blobs.
    pub fn export_files(&self) -> Result<Vec<(String, Vec<u8>)>, SegmentError> {
        let mut wal = self.inner.writer.lock();
        self.inner.seal_both(&mut wal)?;
        let segments = self.inner.state.read().segments.clone();
        let manifest = manifest_frame(*self.inner.commit.lock(), &segments);
        let mut files = vec![(MANIFEST_FILE.to_string(), manifest)];
        for segment in &segments {
            let frame = segment.content().frame.to_vec();
            files.push((segment.file_name().to_owned(), frame));
        }
        Ok(files)
    }

    /// Opens, in `dir` and observed into `registry`, the store a shipped
    /// file set ([`SegmentStore::export_files`]) holds. Each segment's
    /// frame is checked and each list proven in the buffer it arrived
    /// in ([`CompressedPostingList::parse`], as an open proves it),
    /// which it keeps; only then are the files staged (tmp + fsync +
    /// rename + directory fsync, the manifest last). Nothing is read
    /// back. An escaping name, no manifest (that would serve an empty
    /// store), a listed segment missing, a file not listed, and a frame
    /// or segment that fails are `Corrupt`, and stage nothing.
    pub fn install(
        dir: impl Into<PathBuf>,
        mut files: Vec<(String, Vec<u8>)>,
        policy: SegmentPolicy,
        registry: &MetricsRegistry,
    ) -> Result<Self, SegmentError> {
        let dir = dir.into();
        if let Some((name, _)) = files.iter().find(|(name, _)| escapes(name)) {
            let reason = "snapshot file name escapes the target directory";
            return Err(SegmentError::corrupt(name, reason));
        }
        let mut take = |name: &str| match files.iter().position(|(shipped, _)| shipped == name) {
            Some(at) => Ok(files.swap_remove(at).1),
            None => Err(SegmentError::corrupt(name, "snapshot file is missing")),
        };
        let manifest = take(MANIFEST_FILE)?;
        let (next_seq, segments) = load_manifest(&manifest, take)?;
        if let Some((name, _)) = files.first() {
            return Err(SegmentError::corrupt(name, "snapshot file not listed"));
        }
        std::fs::create_dir_all(&dir)?;
        for segment in &segments {
            write_framed(&dir.join(segment.file_name()), &segment.content().frame)?;
        }
        write_framed(&dir.join(MANIFEST_FILE), &manifest)?;
        Self::assemble(dir, next_seq, segments, policy, registry)
    }
}

impl Drop for SegmentStore {
    /// Drops the store's queued jobs and waits for its running one, so
    /// no file of the store is written once this returns. A table left
    /// frozen is replayed from its rotated log at the next open, as
    /// after a crash.
    fn drop(&mut self) {
        cancel(&self.inner);
    }
}

/// A point-in-time view of the store: the `Arc`'d segments, frozen
/// table and memtable. Implements [`PostingStore`], so the query
/// evaluators, `ShardedSearch`, and the peer runtime's shard service
/// run on it unchanged.
#[derive(Clone)]
pub struct SegmentSnapshot {
    segments: Vec<Arc<Segment>>,
    frozen: Option<Arc<Memtable>>,
    memtable: Arc<Memtable>,
}

impl std::fmt::Debug for SegmentSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentSnapshot")
            .field("segments", &self.segments.len())
            .field("memtable", &self.delta_len())
            .finish()
    }
}

impl SegmentSnapshot {
    /// The in-memory tables that hold a batch, older first: the frozen
    /// table, then the active memtable.
    fn tables(&self) -> impl Iterator<Item = &Memtable> {
        let frozen = self.frozen.as_deref();
        frozen
            .into_iter()
            .chain([self.memtable.as_ref()])
            .filter(|table| !table.is_empty())
    }

    /// Segments oldest → newest, then [`SegmentSnapshot::tables`].
    fn sources(&self) -> Vec<&dyn Source> {
        self.segments
            .iter()
            .map(|s| s.content() as &dyn Source)
            .chain(self.tables().map(|table| table as &dyn Source))
            .collect()
    }

    /// The live postings of one term, doc-ascending, with every
    /// shadowed or tombstoned posting masked out.
    pub fn live_postings(&self, term: TermId) -> Vec<RawEntry> {
        let sources = self.sources();
        // Newest source wins per (term, doc)…
        let mut merged: std::collections::BTreeMap<u32, (usize, RawEntry)> = Default::default();
        for (i, source) in sources.iter().enumerate() {
            for entry in source.list(term.0).into_iter().flat_map(TermPostings::iter) {
                merged.insert(entry.doc, (i, entry));
            }
        }
        // …and survives only if no newer source redefines its doc
        // (a source holding a (term, doc) posting always touches doc,
        // so this is exactly the doc-level shadowing rule).
        merged
            .into_values()
            .filter(|&(i, entry)| !sources[i + 1..].iter().any(|s| s.touches(entry.doc)))
            .map(|(_, entry)| entry)
            .collect()
    }

    /// Is this document live in the snapshot?
    pub fn contains_doc(&self, doc: DocId) -> bool {
        for source in self.sources().into_iter().rev() {
            if source.live_docs().binary_search(&doc.0).is_ok() {
                return true;
            }
            if source.tombstones().binary_search(&doc.0).is_ok() {
                return false;
            }
        }
        false
    }

    /// Number of live documents.
    pub fn live_doc_count(&self) -> usize {
        let sources = self.sources();
        let mut seen: HashSet<u32> = HashSet::new();
        let mut count = 0usize;
        for source in sources.into_iter().rev() {
            for &doc in source.live_docs() {
                if seen.insert(doc) {
                    count += 1;
                }
            }
            for &doc in source.tombstones() {
                seen.insert(doc);
            }
        }
        count
    }

    /// Number of on-disk segments in view.
    pub fn segment_len(&self) -> usize {
        self.segments.len()
    }

    /// Number of in-memory sources in view: the frozen table while it
    /// is being sealed, plus the active memtable while it holds a batch
    /// applied since the last freeze — at most 2.
    pub fn delta_len(&self) -> usize {
        self.tables().count()
    }
}

impl PostingStore for SegmentSnapshot {
    fn term_count(&self) -> usize {
        self.sources()
            .iter()
            .map(|s| s.term_slots() as usize)
            .max()
            .unwrap_or(0)
    }

    fn document_frequency(&self, term: TermId) -> usize {
        self.live_postings(term).len()
    }

    fn postings(&self, term: TermId) -> Box<dyn Iterator<Item = Posting> + '_> {
        Box::new(self.live_postings(term).into_iter().map(to_posting))
    }

    fn posting_bytes(&self) -> usize {
        let segments: usize = self
            .segments
            .iter()
            .map(|s| s.content().compressed_bytes())
            .sum();
        segments + self.tables().map(Memtable::approx_bytes).sum::<usize>()
    }

    /// The lazy read path. Each term gets one cursor that merges the
    /// memtables *over* the on-disk segments under the doc-level
    /// shadowing rule **without flattening**: each source that holds
    /// the term gives one [`zerber_postings::CompressedBlockCursor`],
    /// over a segment's stored list (its skip metadata serves the
    /// peeks, and a block decompresses only when the cursor lands in
    /// it) or over a memtable's decoded list, borrowed in place. So a
    /// term has at most `segments + 2` sub-cursors, all of one type, and
    /// the shadow test walks the newer sources' doc tables with one
    /// forward-only finger each (`ShadowProbe`; a memtable is one
    /// live/tombstone pair). Every sub-cursor reads its posting's
    /// positional run off the block it holds, so phrase queries need no
    /// per-document lookup here. Entry values coincide with
    /// [`PostingStore::postings`]' masked merge, so ranking is
    /// bit-identical to a rebuilt index (property-tested in
    /// `store_properties.rs`); only the decode work differs.
    fn query_cursors<'a>(&'a self, terms: &[(TermId, f64)]) -> Vec<Box<dyn BlockCursor + 'a>> {
        let sources = self.sources();
        terms
            .iter()
            .map(|&(term, weight)| -> Box<dyn BlockCursor + 'a> {
                let subs: Vec<_> = sources
                    .iter()
                    .enumerate()
                    .filter_map(|(rank, source)| Some((rank, source.list(term.0)?.cursor(weight))))
                    .collect();
                let subs = match <[_; 1]>::try_from(subs) {
                    Err(none) if none.is_empty() => return Box::new(EmptyCursor),
                    // A term living entirely in the newest source can
                    // never be shadowed: skip the merge wrapper.
                    Ok([(rank, cursor)]) if rank + 1 == sources.len() => return Box::new(cursor),
                    Ok(one) => one.into(),
                    Err(many) => many,
                };
                Box::new(ShadowedMergeCursor::new(subs, ShadowProbe::new(&sources)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;
    use zerber_index::GroupId;

    /// `hi/lo` of the pair starting at `at`, empty segments as one.
    fn ratio(sizes: &[usize], at: usize) -> (usize, usize) {
        let (a, b) = (sizes[at].max(1), sizes[at + 1].max(1));
        (a.max(b), a.min(b))
    }

    /// Is pair `x` strictly better balanced than pair `y`?
    fn better_balanced(sizes: &[usize], x: usize, y: usize) -> bool {
        let ((hi_x, lo_x), (hi_y, lo_y)) = (ratio(sizes, x), ratio(sizes, y));
        hi_x * lo_y < hi_y * lo_x
    }

    /// The window rule as a decision table, checked for completeness
    /// (every over-cap input has a decision), range, and the stated
    /// priority order — exhaustively over every size vector of up to
    /// six segments drawn from a domain with zeros, ties and one
    /// dominant "base" size.
    #[test]
    fn window_rule_is_a_total_deterministic_decision_table() {
        const DOMAIN: [usize; 6] = [0, 1, 2, 3, 8, 1000];
        for len in 1..=6usize {
            for code in 0..DOMAIN.len().pow(len as u32) {
                let sizes: Vec<usize> = (0..len)
                    .map(|slot| DOMAIN[code / DOMAIN.len().pow(slot as u32) % DOMAIN.len()])
                    .collect();
                for max_segments in 0..=4usize {
                    let decision = balanced_pair(&sizes, max_segments);
                    if len <= max_segments.max(1) {
                        assert_eq!(decision, None, "{sizes:?} under cap {max_segments}");
                        continue;
                    }
                    let at = decision.expect("over the cap there is always a window");
                    assert!(at + 1 < len, "{sizes:?}: pair {at} out of range");
                    let sum = |p: usize| sizes[p].max(1) + sizes[p + 1].max(1);
                    for other in (0..len - 1).filter(|&p| p != at) {
                        // No other pair precedes the chosen one in
                        // (ratio, combined size, age) order — so the
                        // decision is unique.
                        assert!(
                            !better_balanced(&sizes, other, at),
                            "{sizes:?}: {other} vs {at}"
                        );
                        if !better_balanced(&sizes, at, other) {
                            assert!(sum(at) <= sum(other), "{sizes:?}: {other} vs {at}");
                            if sum(at) == sum(other) {
                                assert!(at < other, "{sizes:?}: ties go to the older pair");
                            }
                        }
                    }
                    // Corollary, and the reason the rule exists: the
                    // largest segment is rewritten only when no pair
                    // is strictly better balanced.
                    let largest = *sizes.iter().max().expect("non-empty");
                    if sizes[at] == largest || sizes[at + 1] == largest {
                        assert!((0..len - 1).all(|p| !better_balanced(&sizes, p, at)));
                    }
                }
            }
        }
    }

    #[test]
    fn mid_stack_merges_carry_tombstones_and_only_oldest_level_merges_count_gc() {
        let dir = ScratchDir::new("store-midstack");
        let registry = MetricsRegistry::new();
        let policy = SegmentPolicy {
            flush_postings: usize::MAX,
            max_segments: 2,
            background: false,
            sync_wal: false,
        };
        let store = SegmentStore::open_observed(&dir, policy, &registry).unwrap();
        let seal = |ids: std::ops::Range<u32>| {
            let docs: Vec<Document> = ids
                .map(|d| Document::from_term_counts(DocId(d), GroupId(0), vec![(TermId(0), 1)]))
                .collect();
            store.insert(&docs).unwrap();
            store.flush().unwrap();
        };
        let counter = |name: &str| registry.snapshot().counter(name).unwrap_or(0);
        seal(0..100); // the base
        seal(200..204);
        store.delete(DocId(5)).unwrap(); // a base document
        seal(210..214);
        // [100, 4, 4]: the balanced pair is the two small segments.
        store.compact().unwrap();
        assert_eq!(store.segment_count(), 2);
        assert_eq!(counter("zerber_segment_tombstones_gc_total"), 0);
        assert_eq!(store.snapshot().document_frequency(TermId(0)), 107);
        assert!(
            !store.snapshot().contains_doc(DocId(5)),
            "the carried tombstone masks"
        );

        seal(300..380);
        // [100, 8, 80]: still mid-stack (10 < 12.5).
        store.compact().unwrap();
        assert_eq!(counter("zerber_segment_tombstones_gc_total"), 0);
        assert!(!store.snapshot().contains_doc(DocId(5)));

        seal(400..405);
        // [100, 88, 5]: now the base pair is the balanced one, the
        // window starts at segment 0 and the tombstone is retired.
        store.compact().unwrap();
        assert_eq!(counter("zerber_segment_tombstones_gc_total"), 1);
        assert!(!store.snapshot().contains_doc(DocId(5)));
        assert_eq!(store.snapshot().document_frequency(TermId(0)), 192);

        assert_eq!(counter("zerber_segment_compactions_total"), 3);
        assert_eq!(
            counter("zerber_segment_flush_postings_total"),
            100 + 4 + 4 + 80 + 5
        );
        assert_eq!(
            counter("zerber_segment_compaction_postings_total"),
            8 + 88 + 187
        );
    }
}
