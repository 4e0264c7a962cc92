//! The LSM engine: WAL → memtable → immutable segments, with
//! size-balanced compaction and MVCC reader snapshots.
//!
//! # Write path
//!
//! ```text
//! insert/delete batch
//!   │ 1. append checksummed WAL record (ack point)
//!   │ 2. fold the batch into the memtable (brief write lock)
//!   ▼
//! memtable ──(≥ flush_postings)──────► seal: memtable → seg-N.zseg
//!                                      → MANIFEST → truncate WAL
//! [segments ...] ──(> max_segments)──► merge the best-balanced adjacent
//!                                      pair → one segment (tombstone GC
//!                                      iff it starts at the oldest)
//!                                      → MANIFEST → rm inputs
//! ```
//!
//! # Compaction windows
//!
//! One step merges the *adjacent pair whose posting counts are closest
//! in ratio* (`balanced_pair`): adjacent, because recency order is
//! what the shadowing rule reads; balanced, so a segment is rewritten
//! only once its neighbour has grown to its own order of magnitude —
//! O(log n) rewrites per posting instead of the whole base per flush.
//! Flush and compaction run the same streaming shadow-aware merge
//! (`segment::merge_streaming`); a bulk load merges nothing.
//!
//! # Crash safety
//!
//! The `MANIFEST` names the live segment set and is replaced
//! atomically (temp file + rename); segment files are written the same
//! way. Any crash therefore leaves one of two recoverable worlds:
//! either the manifest predates the crash (unlisted segment files are
//! garbage and deleted on open; the WAL still holds the batches) or it
//! includes the new segment (the WAL tail is then redundant — replay
//! re-applies batches whose content the segment already carries, which
//! is idempotent under newest-wins). The WAL is truncated only *after*
//! the manifest naming its data is durable.
//!
//! # Snapshots
//!
//! Readers clone `Arc`s of the current segment list and the memtable —
//! no locks are held while a query runs, so sustained top-k load never
//! blocks ingest and vice versa. A write folds into the memtable in
//! place (`Arc::make_mut`); while a snapshot still holds the old one,
//! that write folds into a copy, so the snapshot keeps its world.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use zerber_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use zerber_index::cursor::{BlockCursor, EmptyCursor, ShadowedMergeCursor};
use zerber_index::{DocId, Document, Posting, PostingStore, SegmentPolicy, TermId};
use zerber_postings::{
    to_posting, CompressedBlockCursor, CompressedPostingBuilder, CompressedPostingList,
    DecodedEntriesCursor, RawEntry,
};

use crate::bulk::{BulkConfig, BulkFailpoint, BulkStats};
use crate::error::SegmentError;
use crate::memtable::Memtable;
use crate::segment::{
    lay_out, merge_streaming, read_framed, write_framed, Reader, Segment, ShadowProbe, Source,
};
use crate::wal::{replay, Wal, WalOp};

const WAL_FILE: &str = "wal.log";
const MANIFEST_FILE: &str = "MANIFEST.zman";

/// The engine's current world: segments oldest → newest, then the
/// memtable over them. Read access clones the `Arc`s.
struct EngineState {
    segments: Vec<Arc<Segment>>,
    memtable: Arc<Memtable>,
    /// Flush pressure: the sum of the weights of the batches applied
    /// since the last flush.
    mem_weight: usize,
}

/// The WAL handle plus the segment sequence counter; its mutex also
/// serializes all mutations (WAL order = apply order = ack order).
struct Writer {
    wal: Wal,
    next_seq: u64,
}

/// Pre-registered instrument handles of one store. Lives on [`Inner`]
/// so the background compactor thread (which only holds an
/// `Arc<Inner>`) can record as well.
struct SegmentMetrics {
    /// `zerber_segment_wal_fsync_ns`: WAL append+fsync latency when
    /// `sync_wal` is on (the durable-ack critical path).
    wal_fsync: Histogram,
    /// `zerber_segment_wal_append_ns`: buffered WAL append latency
    /// when `sync_wal` is off.
    wal_append: Histogram,
    /// `zerber_segment_flush_ns`: memtable-seal (memtable → segment +
    /// manifest + WAL truncate) duration.
    flush: Histogram,
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

struct Inner {
    dir: PathBuf,
    policy: SegmentPolicy,
    state: RwLock<EngineState>,
    writer: Mutex<Writer>,
    /// At most one compaction at a time (explicit or background).
    compaction: Mutex<()>,
    /// Instrument handles, in the registry the store was opened with.
    obs: SegmentMetrics,
}

/// A durable, crash-safe posting store with live inserts and deletes.
///
/// See the [crate docs](crate) for a full open → ingest → crash →
/// recover example. All methods take `&self`: the store is shared
/// across threads behind an `Arc` (or borrowed) — ingest, queries, and
/// background compaction proceed concurrently.
pub struct SegmentStore {
    inner: Arc<Inner>,
    compactor: Option<(mpsc::Sender<()>, thread::JoinHandle<()>)>,
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

fn parse_manifest(path: &Path) -> Result<(u64, Vec<String>), SegmentError> {
    let body = read_framed(path)?;
    let file = path.display().to_string();
    let mut r = Reader::new(&body, &file);
    let next_seq = r.u64()?;
    let count = r.u32()? as usize;
    let mut names = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let len = usize::from(r.u16()?);
        let name = std::str::from_utf8(r.take(len)?)
            .map_err(|_| r.corrupt("segment name is not UTF-8"))?;
        if escapes(name) {
            return Err(r.corrupt("segment name escapes the store directory"));
        }
        names.push(name.to_owned());
    }
    r.finish()?;
    Ok((next_seq, names))
}

impl Inner {
    /// Writes the manifest naming the given segment order. Called with
    /// the writer lock held, so manifest contents always match the
    /// engine state it was derived from.
    fn write_manifest(&self, next_seq: u64, segments: &[Arc<Segment>]) -> Result<(), SegmentError> {
        let mut body = Vec::new();
        body.extend_from_slice(&next_seq.to_le_bytes());
        body.extend_from_slice(&(segments.len() as u32).to_le_bytes());
        for segment in segments {
            let name = segment.file_name().as_bytes();
            body.extend_from_slice(&(name.len() as u16).to_le_bytes());
            body.extend_from_slice(name);
        }
        write_framed(&self.dir.join(MANIFEST_FILE), &body)
    }

    /// Seals the memtable into one segment and resets it to empty.
    /// Writer lock held by the caller: the memtable cannot change
    /// underneath.
    fn flush_locked(&self, writer: &mut Writer) -> Result<(), SegmentError> {
        let (memtable, no_segments) = {
            let state = self.state.read();
            (Arc::clone(&state.memtable), state.segments.is_empty())
        };
        if memtable.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        // With no older segments a tombstone has nothing to mask.
        let content = merge_streaming(&[memtable.as_ref()], no_segments);
        if content.is_empty() {
            let mut state = self.state.write();
            state.memtable = Arc::default();
            state.mem_weight = 0;
            drop(state);
            return writer.wal.truncate();
        }
        let seq = writer.next_seq;
        writer.next_seq += 1;
        let segment = Arc::new(content.write(&self.dir, seq)?);
        let postings = segment.posting_count();
        let segments = {
            let mut state = self.state.write();
            state.segments.push(segment);
            state.memtable = Arc::default();
            state.mem_weight = 0;
            state.segments.clone()
        };
        self.write_manifest(writer.next_seq, &segments)?;
        // Only now is the WAL redundant.
        writer.wal.truncate()?;
        self.obs.flush.record(started.elapsed().as_nanos() as u64);
        self.obs.flush_postings.add(postings as u64);
        self.obs.segments.set(segments.len() as i64);
        Ok(())
    }

    /// One compaction step: when more than `max_segments` segments
    /// exist, merge the adjacent pair [`balanced_pair`] names into one
    /// segment. Returns whether it did anything.
    fn compact_once(&self) -> Result<bool, SegmentError> {
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
        let mut writer = self.writer.lock();
        let seq = writer.next_seq;
        writer.next_seq += 1;
        let merged: Option<Arc<Segment>> = if content.is_empty() {
            None
        } else {
            Some(Arc::new(content.write(&self.dir, seq)?))
        };
        let postings = merged.as_ref().map_or(0, |s| s.posting_count());
        let segments = {
            let mut state = self.state.write();
            // Flushes and bulk loads only append, and `compaction` is
            // locked: the inputs are still at `at`.
            debug_assert!(state.segments[at..at + 2]
                .iter()
                .zip(&inputs)
                .all(|(a, b)| Arc::ptr_eq(a, b)));
            state.segments.splice(at..at + 2, merged);
            state.segments.clone()
        };
        self.write_manifest(writer.next_seq, &segments)?;
        drop(writer);
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
                    doc: u64::from(doc.id.0),
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
    /// durable state: the manifest's segment set is loaded and
    /// CRC-verified, stray files from interrupted flushes or
    /// compactions are deleted, and the WAL is replayed — every fully
    /// written batch back into the memtable, a torn tail ignored. The
    /// store's instruments go to a registry of its own, which nobody
    /// reads; pass one to [`SegmentStore::open_observed`] to see them.
    pub fn open(dir: impl Into<PathBuf>, policy: SegmentPolicy) -> Result<Self, SegmentError> {
        Self::open_observed(dir, policy, &MetricsRegistry::new())
    }

    /// [`SegmentStore::open`] with the write-path instruments
    /// (`zerber_segment_*` WAL fsync/append, flush and compaction
    /// histograms, segment-count gauge, compaction and tombstone-GC
    /// counters) registered in `registry`. The background compactor
    /// records through the same handles.
    pub fn open_observed(
        dir: impl Into<PathBuf>,
        policy: SegmentPolicy,
        registry: &MetricsRegistry,
    ) -> Result<Self, SegmentError> {
        let dir = dir.into();
        let obs = SegmentMetrics::register(registry);
        std::fs::create_dir_all(&dir)?;
        let manifest = dir.join(MANIFEST_FILE);
        let (next_seq, names) = if manifest.exists() {
            parse_manifest(&manifest)?
        } else {
            (1, Vec::new())
        };
        let listed: HashSet<&str> = names.iter().map(String::as_str).collect();
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
        let mut segments = Vec::with_capacity(names.len());
        for name in &names {
            segments.push(Arc::new(Segment::load(&dir.join(name))?));
        }
        let mut memtable = Memtable::default();
        let mem_weight = replay(&dir.join(WAL_FILE))?
            .iter()
            .map(|batch| memtable.apply(batch))
            .sum();
        let wal = Wal::open(&dir.join(WAL_FILE))?;
        obs.segments.set(segments.len() as i64);
        let inner = Arc::new(Inner {
            dir,
            policy,
            state: RwLock::new(EngineState {
                segments,
                memtable: Arc::new(memtable),
                mem_weight,
            }),
            writer: Mutex::new(Writer { wal, next_seq }),
            compaction: Mutex::new(()),
            obs,
        });
        let compactor = policy.background.then(|| {
            let worker = Arc::clone(&inner);
            let (signal, wakeups) = mpsc::channel::<()>();
            let handle = thread::spawn(move || {
                while wakeups.recv().is_ok() {
                    // A failed background step leaves extra segments
                    // behind; the next signal retries. Reads and
                    // writes stay correct at any segment count.
                    while worker.compact_once().unwrap_or(false) {}
                    while wakeups.try_recv().is_ok() {}
                }
            });
            (signal, handle)
        });
        Ok(Self { inner, compactor })
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
        let mut writer = self.inner.writer.lock();
        let existed = self.snapshot().contains_doc(doc);
        self.apply_locked(&mut writer, vec![WalOp::Delete { doc: doc.0 }])?;
        drop(writer);
        self.wake_compactor();
        Ok(existed)
    }

    fn apply(&self, ops: Vec<WalOp>) -> Result<usize, SegmentError> {
        let mut writer = self.inner.writer.lock();
        let added = self.apply_locked(&mut writer, ops)?;
        drop(writer);
        self.wake_compactor();
        Ok(added)
    }

    fn apply_locked(&self, writer: &mut Writer, ops: Vec<WalOp>) -> Result<usize, SegmentError> {
        let sync = self.inner.policy.sync_wal;
        let appended = Instant::now();
        writer.wal.append(&ops, sync)?;
        let nanos = appended.elapsed().as_nanos() as u64;
        if sync {
            self.inner.obs.wal_fsync.record(nanos);
        } else {
            self.inner.obs.wal_append.record(nanos);
        }
        let (added, over_threshold) = {
            let mut state = self.inner.state.write();
            let added = Arc::make_mut(&mut state.memtable).apply(&ops);
            state.mem_weight += added;
            (
                added,
                state.mem_weight >= self.inner.policy.flush_postings.max(1),
            )
        };
        if over_threshold {
            self.inner.flush_locked(writer)?;
        }
        Ok(added)
    }

    fn wake_compactor(&self) {
        if let Some((signal, _)) = &self.compactor {
            let _ = signal.send(());
        }
    }

    /// Seals the memtable into a segment now, regardless of the flush
    /// threshold.
    pub fn flush(&self) -> Result<(), SegmentError> {
        let mut writer = self.inner.writer.lock();
        self.inner.flush_locked(&mut writer)?;
        drop(writer);
        self.wake_compactor();
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
            memtable: Arc::clone(&state.memtable),
        }
    }

    /// Number of on-disk segments.
    pub fn segment_count(&self) -> usize {
        self.inner.state.read().segments.len()
    }

    /// Flush pressure currently in the memtable (live postings +
    /// tombstones).
    pub(crate) fn memtable_postings(&self) -> usize {
        self.inner.state.read().mem_weight
    }

    /// Current WAL size in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.inner.writer.lock().wal.bytes()
    }

    /// Current on-disk footprint: live segment files plus the WAL.
    pub fn disk_bytes(&self) -> u64 {
        let segments: u64 = {
            let state = self.inner.state.read();
            state.segments.iter().map(|s| s.disk_bytes()).sum()
        };
        segments + self.wal_bytes()
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
    /// `MANIFEST` under the writer lock — after sealing any live
    /// memtable, so the bulk segment is strictly newest and replaces
    /// overlapping documents exactly like a fresh insert would. The
    /// file is byte for byte the one a flush of the same batch writes,
    /// whatever the worker count.
    ///
    /// **No WAL record is written.** The manifest swap is the single
    /// atomic commit point: a crash at any earlier step leaves nothing
    /// or one unlisted `.zseg` (or its `.tmp`), which the next
    /// [`SegmentStore::open`] garbage-collects — the load is
    /// all-or-nothing (property- and crash-tested in
    /// `tests/bulk_build_properties.rs`). Queries running from
    /// [`SegmentStore::snapshot`]s and the background compactor are
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
        self.bulk_load_inner(docs.into(), config, None)
    }

    /// Test hook: [`SegmentStore::bulk_load`] that "crashes" at the
    /// given boundary — it returns there, leaving the on-disk state as
    /// it is and the load unregistered. Not part of the stable API.
    #[doc(hidden)]
    pub fn bulk_load_failpoint<'a>(
        &self,
        docs: impl Into<Cow<'a, [Document]>>,
        config: BulkConfig,
        failpoint: BulkFailpoint,
    ) -> Result<(), SegmentError> {
        self.bulk_load_inner(docs.into(), config, Some(failpoint))
            .map(drop)
    }

    /// The bulk load; at an armed failpoint it returns there, with
    /// empty stats.
    fn bulk_load_inner(
        &self,
        docs: Cow<'_, [Document]>,
        config: BulkConfig,
        failpoint: Option<BulkFailpoint>,
    ) -> Result<BulkStats, SegmentError> {
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
        // Reserve the segment's seq under the writer lock. The
        // reservation only becomes durable with the registration
        // manifest; after a crash the number is simply reused (any
        // stray file wearing it was collected at open).
        let seq = {
            let mut writer = self.inner.writer.lock();
            writer.next_seq += 1;
            writer.next_seq - 1
        };
        let segment = content.write(&self.inner.dir, seq)?;
        let postings = segment.posting_count();
        if failpoint == Some(BulkFailpoint::AfterWrite) {
            return Ok(BulkStats::default());
        }

        // --- Phase 3: register atomically under the writer lock. ----
        let mut writer = self.inner.writer.lock();
        // Seal any live memtable first: state ingested before this
        // commit point must stay *older* than the bulk segment, which
        // replaces overlapping documents like a fresh insert.
        self.inner.flush_locked(&mut writer)?;
        if failpoint == Some(BulkFailpoint::BeforeManifest) {
            return Ok(BulkStats::default());
        }
        let segments = {
            let mut state = self.inner.state.write();
            state.segments.push(Arc::new(segment));
            state.segments.clone()
        };
        self.inner.write_manifest(writer.next_seq, &segments)?;
        drop(writer);
        self.wake_compactor();
        let obs = &self.inner.obs;
        obs.bulk_docs.add(doc_count as u64);
        obs.bulk_build.record(started.elapsed().as_nanos() as u64);
        obs.segments.set(segments.len() as i64);
        Ok(BulkStats {
            docs: doc_count,
            postings,
        })
    }

    /// Exports a consistent on-disk snapshot of the store for replica
    /// rebuild: seals the memtable (so the WAL holds nothing the
    /// segments don't), then — with compaction quiesced so no listed
    /// file can be rewritten or deleted mid-read — returns the manifest
    /// and every live segment file as named byte blobs. The manifest
    /// always ships, an empty store's too: it is what tells
    /// [`SegmentStore::install_files`] a whole snapshot arrived. Feeding
    /// the returned set to `install_files` and opening the target
    /// directory yields a store with identical query results.
    pub fn export_files(&self) -> Result<Vec<(String, Vec<u8>)>, SegmentError> {
        // Same order as `compact_once`: compaction lock before writer
        // lock, so this cannot deadlock against the compactor.
        let _quiesce = self.inner.compaction.lock();
        let mut writer = self.inner.writer.lock();
        self.inner.flush_locked(&mut writer)?;
        let manifest = self.inner.dir.join(MANIFEST_FILE);
        if !manifest.exists() {
            // A store that never sealed a segment has written none.
            self.inner.write_manifest(writer.next_seq, &[])?;
        }
        let (_, names) = parse_manifest(&manifest)?;
        let mut files = vec![(MANIFEST_FILE.to_string(), std::fs::read(&manifest)?)];
        for name in names {
            let bytes = std::fs::read(self.inner.dir.join(&name))?;
            files.push((name, bytes));
        }
        Ok(files)
    }

    /// Stages an exported file set into `dir` using the same
    /// durability protocol as the store's own commits (tmp + fsync +
    /// rename, then directory fsync). File names are confined to the
    /// target directory — anything resembling a path escapes with a
    /// `Corrupt` error — and a set without a manifest is refused the
    /// same way: it is no snapshot, and opening it would serve an empty
    /// store. After staging, open the directory with
    /// [`SegmentStore::open`] (or `open_observed`) to serve from it.
    pub fn install_files(
        dir: impl Into<PathBuf>,
        files: &[(String, Vec<u8>)],
    ) -> Result<(), SegmentError> {
        let dir = dir.into();
        for (name, _) in files {
            if escapes(name) {
                return Err(SegmentError::Corrupt {
                    file: name.clone(),
                    reason: "snapshot file name escapes the target directory",
                });
            }
        }
        if !files.iter().any(|(name, _)| name == MANIFEST_FILE) {
            return Err(SegmentError::Corrupt {
                file: MANIFEST_FILE.to_string(),
                reason: "snapshot carries no manifest",
            });
        }
        std::fs::create_dir_all(&dir)?;
        for (name, bytes) in files {
            let tmp = dir.join(format!("{name}.tmp"));
            std::fs::write(&tmp, bytes)?;
            std::fs::File::open(&tmp)?.sync_all()?;
            std::fs::rename(&tmp, dir.join(name))?;
        }
        std::fs::File::open(&dir)?.sync_all()?;
        Ok(())
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        if let Some((signal, handle)) = self.compactor.take() {
            drop(signal); // disconnects the channel; the worker exits
            let _ = handle.join();
        }
    }
}

/// A frozen view of the store: the `Arc`'d segments and memtable.
/// Implements [`PostingStore`], so the query evaluators,
/// `ShardedSearch`, and the peer runtime's shard service run on it
/// unchanged.
#[derive(Clone)]
pub struct SegmentSnapshot {
    segments: Vec<Arc<Segment>>,
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
    /// Segments oldest → newest, then the memtable unless it is empty.
    fn sources(&self) -> Vec<&dyn Source> {
        let memtable = (!self.memtable.is_empty()).then_some(self.memtable.as_ref() as &dyn Source);
        self.segments
            .iter()
            .map(|s| s.content() as &dyn Source)
            .chain(memtable)
            .collect()
    }

    /// The live postings of one term, doc-ascending, with every
    /// shadowed or tombstoned posting masked out.
    pub fn live_postings(&self, term: TermId) -> Vec<RawEntry> {
        let sources = self.sources();
        // Newest source wins per (term, doc)…
        let mut merged: std::collections::BTreeMap<u64, (usize, RawEntry)> = Default::default();
        for (i, source) in sources.iter().enumerate() {
            for entry in source.term_entries(term.0) {
                merged.insert(entry.doc, (i, entry));
            }
        }
        // …and survives only if no newer source redefines its doc
        // (a source holding a (term, doc) posting always touches doc,
        // so this is exactly the doc-level shadowing rule).
        merged
            .into_values()
            .filter(|&(i, entry)| {
                !sources[i + 1..]
                    .iter()
                    .any(|newer| newer.touches(entry.doc as u32))
            })
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

    /// Number of in-memory sources in view: 1 while the memtable holds
    /// a batch applied since the last flush, else 0.
    pub fn delta_len(&self) -> usize {
        usize::from(!self.memtable.is_empty())
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
        segments + self.memtable.approx_bytes()
    }

    /// The lazy read path. Each term gets one cursor that
    /// merges the memtable *over* the on-disk segments under the
    /// doc-level shadowing rule **without flattening**: segment
    /// postings stay block-compressed behind a
    /// [`CompressedBlockCursor`] (their stored skip metadata serves the
    /// peeks; a block decompresses only when a cursor lands in it),
    /// the memtable's list — already decoded in memory —
    /// is borrowed by a [`DecodedEntriesCursor`], so a term has at most
    /// `segments + 1` sub-cursors (held in a `SourceCursor` enum, not
    /// a box), and the shadow test walks the newer sources' doc tables
    /// with one forward-only finger each (`ShadowProbe`; the memtable
    /// is one live/tombstone pair). Every sub-cursor reads its
    /// posting's positional run off the entry it stands on, so phrase
    /// queries need no per-document lookup here.
    /// Entry values coincide with [`PostingStore::postings`]' masked
    /// merge, so ranking is bit-identical to a rebuilt index
    /// (property-tested in `store_properties.rs`); only the decode work
    /// differs.
    fn query_cursors<'a>(&'a self, terms: &[(TermId, f64)]) -> Vec<Box<dyn BlockCursor + 'a>> {
        let sources = self.sources();
        terms
            .iter()
            .map(|&(term, weight)| {
                let mut subs: Vec<(usize, SourceCursor<'a>)> = Vec::new();
                for (rank, segment) in self.segments.iter().enumerate() {
                    if let Some(list) = segment.content().list(term.0) {
                        if !list.is_empty() {
                            let cursor = CompressedBlockCursor::new(list, weight);
                            subs.push((rank, SourceCursor::Segment(cursor)));
                        }
                    }
                }
                let entries = self.memtable.term_postings(term.0);
                if !entries.is_empty() {
                    let cursor = DecodedEntriesCursor::new(entries, weight);
                    subs.push((self.segments.len(), SourceCursor::Memtable(cursor)));
                }
                let subs = match <[_; 1]>::try_from(subs) {
                    Err(none) if none.is_empty() => return Box::new(EmptyCursor) as Box<_>,
                    // A term living entirely in the newest source can
                    // never be shadowed: skip the merge wrapper.
                    Ok([(rank, cursor)]) if rank + 1 == sources.len() => return cursor.boxed(),
                    Ok(one) => one.into(),
                    Err(many) => many,
                };
                Box::new(ShadowedMergeCursor::new(subs, ShadowProbe::new(&sources)))
                    as Box<dyn BlockCursor + 'a>
            })
            .collect()
    }
}

/// A merge's sub-cursor over one source: a segment's compressed list
/// or the memtable's decoded one. An enum, not a box, so the merge
/// calls its sub-cursors without dynamic dispatch.
enum SourceCursor<'a> {
    Segment(CompressedBlockCursor<'a>),
    Memtable(DecodedEntriesCursor<'a>),
}

/// Runs `$call` on whichever cursor a [`SourceCursor`] holds, bound
/// to `$cursor`.
macro_rules! each {
    ($source:expr, $cursor:ident => $call:expr) => {
        match $source {
            SourceCursor::Segment($cursor) => $call,
            SourceCursor::Memtable($cursor) => $call,
        }
    };
}

impl<'a> SourceCursor<'a> {
    /// The cursor itself, boxed without the enum around it.
    fn boxed(self) -> Box<dyn BlockCursor + 'a> {
        each!(self, cursor => Box::new(cursor))
    }
}

impl BlockCursor for SourceCursor<'_> {
    fn total_blocks(&self) -> usize {
        each!(self, cursor => cursor.total_blocks())
    }
    fn decoded_blocks(&self) -> usize {
        each!(self, cursor => cursor.decoded_blocks())
    }
    fn at_end(&self) -> bool {
        each!(self, cursor => cursor.at_end())
    }
    fn list_max_score(&self) -> f64 {
        each!(self, cursor => cursor.list_max_score())
    }
    fn block_last_doc(&self) -> DocId {
        each!(self, cursor => cursor.block_last_doc())
    }
    fn doc_lower_bound(&self) -> DocId {
        each!(self, cursor => cursor.doc_lower_bound())
    }
    fn is_exact(&self) -> bool {
        each!(self, cursor => cursor.is_exact())
    }
    fn materialize(&mut self) -> Option<(DocId, f64)> {
        each!(self, cursor => cursor.materialize())
    }
    fn positions(&self) -> (u32, u32) {
        each!(self, cursor => cursor.positions())
    }
    fn step(&mut self) {
        each!(self, cursor => cursor.step())
    }
    fn advance_past(&mut self, bound: DocId) {
        each!(self, cursor => cursor.advance_past(bound))
    }
    fn drain_below(&mut self, end: u64, out: &mut Vec<(DocId, f64)>) {
        each!(self, cursor => cursor.drain_below(end, out))
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
