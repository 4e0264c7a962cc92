//! Mutable document-shard storage behind the peer runtime.
//!
//! A shard peer needs two capabilities: serve ranked reads
//! ([`ShardStore::query_planned`]: the planner-chosen evaluator over
//! the lazy [`zerber_index::PostingStore::query_cursors`] pipeline,
//! driven with a caller-owned [`TopKScratch`]) and absorb the *write
//! stream* — document inserts and deletes arriving as
//! [`zerber_net::Message::IndexDocs`] / `RemoveDoc` frames. The
//! backends differ sharply in how they take writes:
//!
//! * [`LiveIndexShard`] — the in-memory backend: writes go to a mutable
//!   [`InvertedIndex`], and the block-compressed store reads are served
//!   from is re-frozen lazily on the first query after a mutation
//!   (correct, but pays a full recompression — the measured reason the
//!   durable engine exists).
//! * [`SegmentShard`] — the `zerber-segment` LSM engine: writes land
//!   in the WAL + memtable, queries run on cheap MVCC snapshots, and
//!   crash recovery is free.

use zerber_index::cursor::TopKScratch;
use zerber_index::{DocId, Document, InvertedIndex, PostingBackend, TermId};
use zerber_net::{Message, WireDocument};
use zerber_obs::MetricsRegistry;
use zerber_postings::CompressedPostingStore;
use zerber_query::{execute, Forced, QueryOutcome, QueryShape};
use zerber_segment::{SegmentError, SegmentStore};

/// The virtual snapshot file the in-memory backend exports: one
/// [`Message::BulkLoad`] frame holding the shard's live documents.
pub(crate) const LIVE_SNAPSHOT_FILE: &str = "docs.zdump";

/// A document as it crosses the wire.
pub(crate) fn to_wire(doc: &Document) -> WireDocument {
    WireDocument {
        doc: doc.id,
        group: doc.group,
        length: doc.length,
        terms: doc.terms.clone(),
    }
}

/// Validates and converts one wire document. Wire input is untrusted:
/// unsorted or duplicate terms would violate `Document`'s invariant
/// (and panic deep in the index), so they are refused here.
pub(crate) fn from_wire(wire: WireDocument) -> Option<Document> {
    wire.terms
        .windows(2)
        .all(|w| w[0].0 < w[1].0)
        .then_some(Document {
            id: wire.doc,
            group: wire.group,
            terms: wire.terms,
            length: wire.length,
        })
}

/// One document shard's storage: ranked reads plus the write stream.
///
/// Not `Send`-bound — a shard store is built and driven entirely on
/// its peer's thread.
pub(crate) trait ShardStore {
    /// The ranked read path: dispatches a shaped query (disjunctive /
    /// conjunctive / phrase) through [`zerber_query::plan()`] to the
    /// chosen evaluator over the backend's lazy
    /// [`zerber_index::PostingStore::query_cursors`]. The caller's
    /// [`TopKScratch`] (the top-k collector) is reused across calls;
    /// the outcome carries the ranked top-`k` and the decode work
    /// pruning saved.
    fn query_planned(
        &mut self,
        shape: QueryShape,
        slots: &[(TermId, f64)],
        k: usize,
        forced: Forced,
        scratch: &mut TopKScratch,
    ) -> QueryOutcome;

    /// Inserts (or replaces) documents; returns posting elements
    /// written.
    fn insert_documents(&mut self, docs: &[Document]) -> Result<usize, SegmentError>;

    /// Bulk-indexes documents along the offline path; returns posting
    /// elements written.
    ///
    /// Semantically identical to [`ShardStore::insert_documents`] —
    /// the batch replaces any older copies of its documents — but a
    /// durable backend is free to skip its WAL and build segments
    /// directly (the SPIMI path in `zerber-segment`). The in-memory
    /// backend simply forwards to the insert path.
    fn bulk_load_documents(&mut self, docs: &[Document]) -> Result<usize, SegmentError> {
        self.insert_documents(docs)
    }

    /// Removes one document; returns whether it was live.
    fn delete_document(&mut self, doc: DocId) -> Result<bool, SegmentError>;

    /// Exports the shard's full state as a `(epoch, named files)`
    /// snapshot — the replica-rebuild shipping unit. A durable backend
    /// ships its sealed segment directory
    /// ([`SegmentStore::export_files`]); the in-memory backend ships
    /// one virtual [`LIVE_SNAPSHOT_FILE`] holding a
    /// [`Message::BulkLoad`] frame of its live documents.
    #[allow(clippy::type_complexity)]
    fn export_snapshot(&mut self) -> Result<(u64, Vec<(String, Vec<u8>)>), SegmentError>;
}

/// The in-memory mutable shard: an [`InvertedIndex`] taking the writes
/// and the [`CompressedPostingStore`] frozen from it serving the reads.
pub(crate) struct LiveIndexShard {
    index: InvertedIndex,
    /// `None` after a mutation; rebuilt by the next read.
    frozen: Option<CompressedPostingStore>,
}

impl LiveIndexShard {
    /// A shard over `docs`.
    pub(crate) fn new(docs: &[Document]) -> Self {
        Self {
            index: InvertedIndex::from_documents(docs),
            frozen: None,
        }
    }
}

impl ShardStore for LiveIndexShard {
    fn query_planned(
        &mut self,
        shape: QueryShape,
        slots: &[(TermId, f64)],
        k: usize,
        forced: Forced,
        scratch: &mut TopKScratch,
    ) -> QueryOutcome {
        let store = self
            .frozen
            .get_or_insert_with(|| CompressedPostingStore::from_index(&self.index));
        execute(store, shape, slots, k, forced, scratch)
    }

    fn insert_documents(&mut self, docs: &[Document]) -> Result<usize, SegmentError> {
        self.index.insert_batch(docs);
        self.frozen = None;
        Ok(docs.iter().map(Document::distinct_terms).sum())
    }

    fn delete_document(&mut self, doc: DocId) -> Result<bool, SegmentError> {
        let removed = self.index.remove(doc);
        if removed {
            self.frozen = None;
        }
        Ok(removed)
    }

    fn export_snapshot(&mut self) -> Result<(u64, Vec<(String, Vec<u8>)>), SegmentError> {
        // One virtual file: a BulkLoad frame of the live documents,
        // sorted by id so identical states export identical bytes. The
        // `shard` field is a placeholder — restore addresses by the
        // install frames, not the payload.
        let mut docs = self.index.export_documents();
        docs.sort_unstable_by_key(|doc| doc.id);
        let frame = Message::BulkLoad {
            shard: 0,
            docs: docs.iter().map(to_wire).collect(),
        };
        Ok((
            docs.len() as u64,
            vec![(LIVE_SNAPSHOT_FILE.to_string(), frame.encode().to_vec())],
        ))
    }
}

/// The durable shard: every mutation journaled and crash-safe, reads
/// on MVCC snapshots.
pub(crate) struct SegmentShard {
    store: SegmentStore,
}

impl ShardStore for SegmentShard {
    fn query_planned(
        &mut self,
        shape: QueryShape,
        slots: &[(TermId, f64)],
        k: usize,
        forced: Forced,
        scratch: &mut TopKScratch,
    ) -> QueryOutcome {
        // The MVCC snapshot pins the sources the cursors borrow from
        // for exactly the duration of this query.
        let snapshot = self.store.snapshot();
        execute(&snapshot, shape, slots, k, forced, scratch)
    }

    fn insert_documents(&mut self, docs: &[Document]) -> Result<usize, SegmentError> {
        self.store.insert(docs)
    }

    fn bulk_load_documents(&mut self, docs: &[Document]) -> Result<usize, SegmentError> {
        self.store
            .bulk_load(docs, zerber_segment::BulkConfig::default())
            .map(|stats| stats.postings)
    }

    fn delete_document(&mut self, doc: DocId) -> Result<bool, SegmentError> {
        self.store.delete(doc)
    }

    fn export_snapshot(&mut self) -> Result<(u64, Vec<(String, Vec<u8>)>), SegmentError> {
        self.store.export_files()
    }
}

/// The backend one replica store builds on: the segmented engine gets
/// a per-(peer, shard) subdirectory so replica stores never collide on
/// disk.
pub(crate) fn replica_backend(backend: &PostingBackend, peer: u32, shard: u32) -> PostingBackend {
    match backend {
        PostingBackend::Segmented { dir, compaction } => PostingBackend::Segmented {
            dir: dir.join(format!("peer-{peer:03}-shard-{shard:03}")),
            compaction: *compaction,
        },
        PostingBackend::Compressed => PostingBackend::Compressed,
    }
}

/// Builds the shard store a backend selection names, over an initial
/// document set. Runs on the peer's own thread, so per-shard
/// construction — indexing, compressing, seeding the durable store —
/// parallelizes across peers. A segmented store reports its
/// `zerber_segment_*` instruments (WAL, flush, compaction) into
/// `registry`; the in-memory backend has none.
///
/// # Panics
/// Panics if the segmented backend cannot open or seed its directory,
/// **or if the directory already holds recovered documents**: a
/// `ShardedSearch` deployment computes its global IDF statistics from
/// the launch-time document set alone, so silently merging recovered
/// state would serve documents the statistics don't know about —
/// diverging from the single-node oracle instead of failing. Reopen
/// recovered stores with [`SegmentStore::open`] directly, or launch
/// into a fresh directory. (A shard that cannot come up correctly is
/// a deployment bug, matching the runtime's dead-peer stance.)
pub(crate) fn build_shard_store(
    backend: &PostingBackend,
    docs: &[Document],
    registry: &MetricsRegistry,
) -> Box<dyn ShardStore> {
    match backend {
        PostingBackend::Compressed => Box::new(LiveIndexShard::new(docs)),
        PostingBackend::Segmented { dir, compaction } => {
            let store = SegmentStore::open_observed(dir.clone(), *compaction, registry)
                .expect("segmented shard store opens");
            let recovered = store.snapshot().live_doc_count();
            assert_eq!(
                recovered,
                0,
                "segmented shard dir {} holds {recovered} recovered documents; \
                 ShardedSearch::launch needs a fresh directory (reopen recovered \
                 stores with SegmentStore::open directly)",
                dir.display()
            );
            store.insert(docs).expect("segmented shard store seeds");
            Box::new(SegmentShard { store })
        }
    }
}

fn corrupt_snapshot(reason: &'static str) -> SegmentError {
    SegmentError::Corrupt {
        file: LIVE_SNAPSHOT_FILE.to_string(),
        reason,
    }
}

/// Rebuilds a shard store of backend `backend` from a shipped
/// snapshot — the install side of [`ShardStore::export_snapshot`].
///
/// For [`PostingBackend::Segmented`] the snapshot files are installed
/// into the backend's directory (tmp + fsync + rename per file; any
/// previous contents are discarded first — a rebuild *replaces* the
/// replica) and the store is reopened, observed into `registry` like
/// the store it replaces, without [`build_shard_store`]'s
/// fresh-directory assertion: recovered documents are exactly what a
/// rebuild installs. The in-memory backend decodes the virtual
/// [`LIVE_SNAPSHOT_FILE`] bulk-load frame back into documents.
pub(crate) fn restore_shard_store(
    backend: &PostingBackend,
    files: &[(String, Vec<u8>)],
    registry: &MetricsRegistry,
) -> Result<Box<dyn ShardStore>, SegmentError> {
    match backend {
        PostingBackend::Compressed => {
            let (_, bytes) = files
                .iter()
                .find(|(name, _)| name == LIVE_SNAPSHOT_FILE)
                .ok_or_else(|| corrupt_snapshot("snapshot carries no document dump"))?;
            let Ok(Message::BulkLoad { docs: wire, .. }) = Message::decode(bytes) else {
                return Err(corrupt_snapshot("document dump does not decode"));
            };
            // Snapshot bytes crossed a wire: re-validate the Document
            // invariant rather than panic on it.
            let docs: Vec<Document> = wire
                .into_iter()
                .map(from_wire)
                .collect::<Option<_>>()
                .ok_or_else(|| corrupt_snapshot("document dump has unsorted terms"))?;
            Ok(Box::new(LiveIndexShard::new(&docs)))
        }
        PostingBackend::Segmented { dir, compaction } => {
            // A rebuild replaces the replica wholesale; stale segments
            // or WAL records must not survive into the installed state.
            std::fs::remove_dir_all(dir).ok();
            SegmentStore::install_files(dir, files)?;
            let store = SegmentStore::open_observed(dir.clone(), *compaction, registry)?;
            Ok(Box::new(SegmentShard { store }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_index::GroupId;

    fn doc(id: u32, terms: &[(u32, u32)]) -> Document {
        Document::from_term_counts(
            DocId(id),
            GroupId(0),
            terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
        )
    }

    fn corpus() -> Vec<Document> {
        (0..40u32)
            .map(|d| doc(d, &[(d % 7, 1 + d % 3), (9, 1)]))
            .collect()
    }

    /// The rebuilt index over `docs_live` and its IDF weights for
    /// terms 0..10.
    fn rebuilt(docs_live: &[Document]) -> (InvertedIndex, Vec<(TermId, f64)>) {
        let index = InvertedIndex::from_documents(docs_live);
        let n = index.document_count();
        let weights = (0..10)
            .map(|t| {
                (
                    TermId(t),
                    zerber_index::idf(n, index.document_frequency(TermId(t))),
                )
            })
            .collect();
        (index, weights)
    }

    fn bits(ranked: &[zerber_index::RankedDoc]) -> Vec<(DocId, u64)> {
        ranked.iter().map(|r| (r.doc, r.score.to_bits())).collect()
    }

    fn topk_of(store: &mut dyn ShardStore, docs_live: &[Document]) -> Vec<(DocId, u64)> {
        let (_, weights) = rebuilt(docs_live);
        let outcome = store.query_planned(
            QueryShape::Terms,
            &weights,
            8,
            Forced::BlockMaxTa,
            &mut TopKScratch::new(),
        );
        assert!(outcome.cost.blocks_decoded <= outcome.cost.blocks_total);
        bits(&outcome.ranked)
    }

    /// Every posting of the rebuilt index scored and sorted.
    fn oracle(docs_live: &[Document]) -> Vec<(DocId, u64)> {
        let (index, weights) = rebuilt(docs_live);
        bits(&zerber_query::oracle::oracle_terms(&index, &weights, 8))
    }

    #[test]
    fn every_mutable_backend_tracks_the_oracle() {
        let initial = corpus();
        let dir = zerber_segment::scratch_dir("shard-backends");
        let segmented_backend = PostingBackend::Segmented {
            dir: dir.clone(),
            compaction: zerber_index::SegmentPolicy {
                flush_postings: 16,
                max_segments: 2,
                background: false,
                sync_wal: false,
            },
        };
        let registry = MetricsRegistry::new();
        let mut shards: Vec<Box<dyn ShardStore>> = vec![
            build_shard_store(&PostingBackend::Compressed, &initial, &registry),
            build_shard_store(&segmented_backend, &initial, &registry),
        ];
        let mut live = initial.clone();
        // Mutate: replace doc 3 (dropping its old terms), delete doc 9,
        // add doc 100.
        let replacement = doc(3, &[(5, 9)]);
        let addition = doc(100, &[(0, 2), (9, 4)]);
        // The bulk path replaces doc 5 and adds docs 200..204, exactly
        // like an insert batch would.
        let bulk: Vec<Document> = std::iter::once(doc(5, &[(2, 6)]))
            .chain((200..204u32).map(|d| doc(d, &[(d % 7, 2), (9, 1)])))
            .collect();
        for shard in &mut shards {
            shard
                .insert_documents(std::slice::from_ref(&replacement))
                .unwrap();
            assert!(shard.delete_document(DocId(9)).unwrap());
            assert!(!shard.delete_document(DocId(999)).unwrap());
            shard
                .insert_documents(std::slice::from_ref(&addition))
                .unwrap();
            shard.bulk_load_documents(&bulk).unwrap();
        }
        live.retain(|d| d.id != DocId(3) && d.id != DocId(9) && d.id != DocId(5));
        live.push(replacement);
        live.push(addition);
        live.extend(bulk.iter().cloned());
        let expected = oracle(&live);
        for (i, shard) in shards.iter_mut().enumerate() {
            assert_eq!(topk_of(shard.as_mut(), &live), expected, "backend {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_round_trips_every_mutable_backend() {
        let initial = corpus();
        let src_dir = zerber_segment::scratch_dir("shard-snap-src");
        let dst_dir = zerber_segment::scratch_dir("shard-snap-dst");
        let policy = zerber_index::SegmentPolicy {
            flush_postings: 16,
            max_segments: 2,
            background: false,
            sync_wal: false,
        };
        let backends = [
            (PostingBackend::Compressed, PostingBackend::Compressed),
            (
                PostingBackend::Segmented {
                    dir: src_dir.clone(),
                    compaction: policy,
                },
                PostingBackend::Segmented {
                    dir: dst_dir.clone(),
                    compaction: policy,
                },
            ),
        ];
        let registry = MetricsRegistry::new();
        for (source_backend, target_backend) in backends {
            let mut source = build_shard_store(&source_backend, &initial, &registry);
            source
                .insert_documents(&[doc(100, &[(0, 2), (9, 4)])])
                .unwrap();
            assert!(source.delete_document(DocId(9)).unwrap());
            let (_, files) = source.export_snapshot().unwrap();
            let mut restored = restore_shard_store(&target_backend, &files, &registry).unwrap();
            let mut live = initial.clone();
            live.retain(|d| d.id != DocId(9));
            live.push(doc(100, &[(0, 2), (9, 4)]));
            assert_eq!(
                topk_of(restored.as_mut(), &live),
                topk_of(source.as_mut(), &live),
            );
            // The restored replica keeps taking the write stream.
            restored.insert_documents(&[doc(300, &[(1, 1)])]).unwrap();
        }
        std::fs::remove_dir_all(&src_dir).ok();
        std::fs::remove_dir_all(&dst_dir).ok();
    }

    #[test]
    fn corrupt_snapshots_are_rejected_typed() {
        let registry = MetricsRegistry::new();
        assert!(restore_shard_store(&PostingBackend::Compressed, &[], &registry).is_err());
        let garbage = [(LIVE_SNAPSHOT_FILE.to_string(), vec![0xFF, 0xFE])];
        assert!(restore_shard_store(&PostingBackend::Compressed, &garbage, &registry).is_err());
    }
}
