//! What a shard peer keeps its documents in: one
//! [`zerber_segment::SegmentStore`] per hosted replica.
//!
//! A shard peer serves ranked reads (the planner-chosen evaluator over
//! a store snapshot's lazy [`zerber_index::PostingStore::query_cursors`])
//! and absorbs the *write stream* — document inserts and deletes
//! arriving as [`zerber_net::Message::IndexDocs`] / `RemoveDoc` frames
//! — and the segment store does both: writes land in its WAL +
//! memtable, reads run on cheap MVCC snapshots, and crash recovery is
//! free. [`crate::runtime::service`] calls the store directly; what is
//! left here is what sits *around* a store: the checked wire →
//! [`Document`] conversion, where a replica's files live ([`ShardHome`]), how a
//! fresh replica is opened empty, and how a shipped one is installed.

use std::path::PathBuf;

use zerber_index::{Document, PostingBackend, SegmentPolicy};
use zerber_net::WireDocument;
use zerber_obs::MetricsRegistry;
use zerber_segment::{ScratchDir, SegmentError, SegmentStore};

/// Converts one wire document, refusing one that breaks `Document`'s
/// invariant ([`Document::is_well_formed`]): wire input is untrusted.
pub(crate) fn from_wire(wire: WireDocument) -> Option<Document> {
    let doc = Document {
        id: wire.doc,
        group: wire.group,
        terms: wire.terms,
        length: wire.length,
    };
    doc.is_well_formed().then_some(doc)
}

/// Where one peer's replica stores live, and under which policy: the
/// directory a [`PostingBackend`] names — or, for
/// [`PostingBackend::Ephemeral`], a scratch directory this value owns
/// and removes when dropped — with one `peer-<p>-shard-<s>`
/// subdirectory per hosted replica, so replica stores never collide on
/// disk. Every store opened here reports its `zerber_segment_*`
/// instruments (WAL, flush, compaction, bulk) into one registry.
///
/// Holders drop their stores first (declare the home *after* them): a
/// store's background jobs write into the directory until it drops.
pub(crate) struct ShardHome {
    root: PathBuf,
    peer: u32,
    policy: SegmentPolicy,
    registry: MetricsRegistry,
    _scratch: Option<ScratchDir>,
}

impl ShardHome {
    /// The home of ring position `peer` under `backend`, observed
    /// into `registry`.
    pub(crate) fn new(backend: &PostingBackend, peer: u32, registry: &MetricsRegistry) -> Self {
        let (root, policy, scratch) = match backend {
            PostingBackend::Segmented { dir, compaction } => (dir.clone(), *compaction, None),
            PostingBackend::Ephemeral => {
                let scratch = ScratchDir::new("ephemeral");
                (
                    scratch.to_path_buf(),
                    SegmentPolicy::default(),
                    Some(scratch),
                )
            }
        };
        Self {
            root,
            peer,
            policy,
            registry: registry.clone(),
            _scratch: scratch,
        }
    }

    fn dir(&self, shard: u32) -> PathBuf {
        let peer = self.peer;
        self.root.join(format!("peer-{peer:03}-shard-{shard:03}"))
    }

    /// Opens `shard`'s store in its fresh directory, empty: documents
    /// reach it only as write frames.
    ///
    /// # Panics
    /// Panics if the directory cannot be opened, **or if it already
    /// holds recovered documents**: a `ShardedSearch` deployment's
    /// global IDF statistics count only the writes it acknowledged, so
    /// silently serving recovered state would serve documents the
    /// statistics don't know about — diverging from the single-node
    /// oracle instead of failing. Reopen recovered stores with
    /// [`SegmentStore::open`] directly, or launch into a fresh
    /// directory. (A shard that cannot come up correctly is a
    /// deployment bug, matching the runtime's dead-peer stance.)
    pub(crate) fn build(&self, shard: u32) -> SegmentStore {
        let dir = self.dir(shard);
        #[expect(
            clippy::expect_used,
            reason = "a shard that cannot open its store is a deployment bug (see Panics)"
        )]
        let store = SegmentStore::open_observed(dir.clone(), self.policy, &self.registry)
            .expect("shard store opens");
        let recovered = store.snapshot().live_doc_count();
        assert_eq!(
            recovered,
            0,
            "shard dir {} holds {recovered} recovered documents; \
             ShardedSearch::launch needs a fresh directory (reopen recovered \
             stores with SegmentStore::open directly)",
            dir.display()
        );
        store
    }

    /// Installs a shipped snapshot as `shard`'s store, observed like
    /// the store it replaces, over a directory emptied first: a rebuild
    /// *replaces* the replica, so no stale segment or WAL record
    /// survives into it, and what it serves is what was shipped.
    pub(crate) fn restore(
        &self,
        shard: u32,
        files: Vec<(String, Vec<u8>)>,
    ) -> Result<SegmentStore, SegmentError> {
        let dir = self.dir(shard);
        std::fs::remove_dir_all(&dir).ok();
        SegmentStore::install(dir, files, self.policy, &self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_index::cursor::TopKScratch;
    use zerber_index::{DocId, GroupId, InvertedIndex, TermId};
    use zerber_query::{execute, Forced, QueryShape};
    use zerber_segment::BulkConfig;

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

    /// A home under `scratch` whose policy flushes and compacts within
    /// a 40-document corpus.
    fn small_home(scratch: &ScratchDir) -> ShardHome {
        let backend = PostingBackend::Segmented {
            dir: scratch.to_path_buf(),
            compaction: SegmentPolicy {
                flush_postings: 16,
                max_segments: 2,
                background: false,
                sync_wal: false,
            },
        };
        ShardHome::new(&backend, 0, &MetricsRegistry::new())
    }

    /// `shard`'s fresh store, loaded with `docs` as a `BulkLoad` frame
    /// loads a batch.
    fn seeded(home: &ShardHome, shard: u32, docs: &[Document]) -> SegmentStore {
        let store = home.build(shard);
        store.bulk_load(docs, BulkConfig::default()).unwrap();
        store
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

    fn topk_of(store: &SegmentStore, docs_live: &[Document]) -> Vec<(DocId, u64)> {
        let (_, weights) = rebuilt(docs_live);
        let outcome = execute(
            &store.snapshot(),
            QueryShape::Terms,
            &weights,
            8,
            Forced::Auto,
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
    fn a_seeded_store_tracks_the_oracle_through_insert_replace_delete_and_bulk() {
        let scratch = ScratchDir::new("shard-oracle");
        let store = seeded(&small_home(&scratch), 0, &corpus());
        assert_eq!(topk_of(&store, &corpus()), oracle(&corpus()));
        assert!(
            store.segment_count() > 0,
            "the seed is sealed, not a memtable"
        );
        // Mutate: replace doc 3 (dropping its old terms), delete doc 9,
        // add doc 100.
        let replacement = doc(3, &[(5, 9)]);
        let addition = doc(100, &[(0, 2), (9, 4)]);
        // The bulk path replaces doc 5 and adds docs 200..204, exactly
        // like an insert batch would.
        let bulk: Vec<Document> = std::iter::once(doc(5, &[(2, 6)]))
            .chain((200..204u32).map(|d| doc(d, &[(d % 7, 2), (9, 1)])))
            .collect();
        store.insert(std::slice::from_ref(&replacement)).unwrap();
        assert!(store.delete(DocId(9)).unwrap());
        assert!(!store.delete(DocId(999)).unwrap());
        store.insert(std::slice::from_ref(&addition)).unwrap();
        store.bulk_load(&bulk, BulkConfig::default()).unwrap();
        let mut live = corpus();
        live.retain(|d| d.id != DocId(3) && d.id != DocId(9) && d.id != DocId(5));
        live.push(replacement);
        live.push(addition);
        live.extend(bulk);
        assert_eq!(topk_of(&store, &live), oracle(&live));
    }

    #[test]
    fn a_shipped_snapshot_installs_reopens_and_keeps_taking_writes() {
        let scratch = ScratchDir::new("shard-ship");
        let home = small_home(&scratch);
        let source = seeded(&home, 0, &corpus());
        let addition = doc(100, &[(0, 2), (9, 4)]);
        source.insert(std::slice::from_ref(&addition)).unwrap();
        assert!(source.delete(DocId(9)).unwrap());
        let files = source.export_files().unwrap();
        // Shard 1's directory holds a stale replica the install replaces.
        drop(seeded(&home, 1, &[doc(777, &[(9, 1)])]));
        let restored = home.restore(1, files).unwrap();
        let mut live = corpus();
        live.retain(|d| d.id != DocId(9));
        live.push(addition);
        assert_eq!(topk_of(&restored, &live), topk_of(&source, &live));
        assert_eq!(topk_of(&restored, &live), oracle(&live));
        // The restored replica keeps taking the write stream, and what
        // it takes survives a reopen.
        restored.insert(&[doc(300, &[(1, 1)])]).unwrap();
        let dir = restored.dir().to_path_buf();
        drop(restored);
        let reopened = SegmentStore::open(dir, SegmentPolicy::default()).unwrap();
        assert!(reopened.snapshot().contains_doc(DocId(300)));
        assert!(!reopened.snapshot().contains_doc(DocId(777)));
    }

    #[test]
    fn corrupt_snapshots_are_rejected_typed() {
        let scratch = ScratchDir::new("shard-corrupt");
        let home = small_home(&scratch);
        // No files at all is no snapshot — not an empty shard.
        assert!(matches!(
            home.restore(0, Vec::new()),
            Err(SegmentError::Corrupt { .. })
        ));
        let garbage = vec![("MANIFEST.zman".to_string(), vec![0xFF, 0xFE])];
        assert!(matches!(
            home.restore(0, garbage),
            Err(SegmentError::Corrupt { .. })
        ));
    }
}
