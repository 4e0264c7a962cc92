//! Property test for the *mutable* sharded peer runtime: under
//! arbitrary interleaved insert/delete/query schedules against the
//! durable segmented backend — flushes and compactions landing
//! wherever the tiny thresholds put them — every query's top-k must be
//! **bit-identical** to a single-node rebuild-from-scratch oracle over
//! the current live document set.
//!
//! This extends `tests/sharded_topk.rs` (static corpora) to live
//! traffic: inserts and deletes travel as `IndexDocs`/`RemoveDoc` wire
//! frames to the owning shard peers (`zerber-segment` stores
//! underneath, background compaction enabled), the global IDF
//! statistics are maintained incrementally, and the oracle rebuilds an
//! in-memory store from scratch each time — two maximally
//! different code paths that must agree to the last float bit.

use std::collections::BTreeMap;

use proptest::prelude::*;
use zerber::runtime::{local_topk, ShardedSearch};
use zerber::{PostingBackend, SegmentPolicy, ZerberConfig};
use zerber_index::{DocId, Document, GroupId, TermId};

#[derive(Debug, Clone)]
enum Step {
    Insert(Vec<(u32, Vec<(u32, u32)>)>),
    /// A batch through [`ShardedSearch::bulk_load`] — the offline
    /// SPIMI path on every segmented replica, racing the live queries
    /// and the background compactor of this schedule.
    Bulk(Vec<(u32, Vec<(u32, u32)>)>),
    Delete(u32),
    Query(Vec<u32>, usize),
}

fn arb_doc() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (
        0u32..120,
        prop::collection::vec((0u32..20, 1u32..5), 1..6).prop_map(|mut terms| {
            terms.sort_by_key(|&(t, _)| t);
            terms.dedup_by_key(|&mut (t, _)| t);
            terms
        }),
    )
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        prop::collection::vec(arb_doc(), 1..4).prop_map(Step::Insert),
        prop::collection::vec(arb_doc(), 1..4).prop_map(Step::Insert),
        prop::collection::vec(arb_doc(), 1..8).prop_map(Step::Bulk),
        (0u32..120).prop_map(Step::Delete),
        (prop::collection::vec(0u32..25, 1..4), 1usize..12)
            .prop_map(|(terms, k)| Step::Query(terms, k)),
        (prop::collection::vec(0u32..25, 1..4), 1usize..12)
            .prop_map(|(terms, k)| Step::Query(terms, k)),
    ]
}

fn materialize(id: u32, terms: &[(u32, u32)]) -> Document {
    Document::from_term_counts(
        DocId(id),
        GroupId(0),
        terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn mutated_sharded_topk_is_bit_identical_to_the_rebuild_oracle(
        initial in prop::collection::vec(arb_doc(), 0..30),
        steps in prop::collection::vec(arb_step(), 1..25),
        peers in 1usize..5,
        flush_postings in 4usize..40,
    ) {
        let dir = zerber_segment::ScratchDir::new("sharded-mutation");
        let config = ZerberConfig::default()
            .with_peers(peers)
            .with_postings(PostingBackend::Segmented {
                dir: dir.to_path_buf(),
                compaction: SegmentPolicy {
                    flush_postings,
                    max_segments: 2,
                    background: true, // compaction races queries; results must not care
                    sync_wal: false,
                },
            });

        // Oracle state: the live documents, newest copy per id.
        let mut live: BTreeMap<u32, Document> = BTreeMap::new();
        let initial_docs: Vec<Document> = {
            for (id, terms) in &initial {
                live.insert(*id, materialize(*id, terms));
            }
            live.values().cloned().collect()
        };
        let search = ShardedSearch::launch(&config, &initial_docs).expect("valid config");

        for step in &steps {
            match step {
                Step::Insert(batch) => {
                    let docs: Vec<Document> =
                        batch.iter().map(|(id, t)| materialize(*id, t)).collect();
                    search.insert_documents(0, &docs).expect("insert lands");
                    for doc in docs {
                        live.insert(doc.id.0, doc);
                    }
                }
                Step::Bulk(batch) => {
                    // Same replacement semantics as Insert — only the
                    // ingest machinery differs (segments built
                    // WAL-free on each replica).
                    let docs: Vec<Document> =
                        batch.iter().map(|(id, t)| materialize(*id, t)).collect();
                    search.bulk_load(0, &docs).expect("bulk load lands");
                    for doc in docs {
                        live.insert(doc.id.0, doc);
                    }
                }
                Step::Delete(id) => {
                    let removed = search.delete_document(0, DocId(*id)).expect("delete lands");
                    prop_assert_eq!(removed, live.remove(id).is_some());
                }
                Step::Query(terms, k) => {
                    let terms: Vec<TermId> = terms.iter().map(|&t| TermId(t)).collect();
                    let docs: Vec<Document> = live.values().cloned().collect();
                    let expected = local_topk(&docs, &terms, *k);
                    let outcome = search.query(&terms, *k).expect("peers alive");
                    prop_assert_eq!(outcome.ranked.len(), expected.len());
                    for (got, want) in outcome.ranked.iter().zip(&expected) {
                        prop_assert_eq!(got.doc, want.doc);
                        // Bit-identical floats, not approximately equal.
                        prop_assert_eq!(got.score.to_bits(), want.score.to_bits());
                    }
                    prop_assert!(outcome.candidates_examined <= *k);
                }
            }
        }
        prop_assert_eq!(search.document_count(), live.len());
    }
}

/// Regression: a replicated segmented deployment creates exactly one
/// `peer-<p>-shard-<s>` directory per *hosted* replica — never for
/// shards a peer does not host — and the offline
/// [`ShardedSearch::bulk_load`] path writes only into those.
#[test]
fn segmented_replicas_create_only_hosted_shard_dirs() {
    let dir = zerber_segment::ScratchDir::new("hosted-dirs");
    let peers = 4u32;
    let replication = 2u32;
    let config = ZerberConfig::default()
        .with_peers(peers as usize)
        .with_replication(replication as usize)
        .with_postings(PostingBackend::Segmented {
            dir: dir.to_path_buf(),
            compaction: SegmentPolicy {
                flush_postings: 16,
                max_segments: 2,
                background: true,
                sync_wal: false,
            },
        });
    let initial: Vec<Document> = (0..40u32)
        .map(|d| materialize(d, &[(d % 9, 1 + d % 3)]))
        .collect();
    let search = ShardedSearch::launch(&config, &initial).expect("valid config");
    let bulk: Vec<Document> = (100..160u32)
        .map(|d| materialize(d, &[(d % 9, 2), (11, 1)]))
        .collect();
    search.bulk_load(0, &bulk).expect("bulk load lands");

    // Peer p hosts its own shard plus its `replication - 1`
    // predecessors' (`ShardMap::hosted_shards`).
    let mut expected: Vec<String> = (0..peers)
        .flat_map(|peer| {
            (0..replication)
                .map(move |j| (peer, (peer + peers - j) % peers))
                .map(|(peer, shard)| format!("peer-{peer:03}-shard-{shard:03}"))
        })
        .collect();
    expected.sort();
    let mut found: Vec<String> = std::fs::read_dir(&*dir)
        .expect("store root exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    found.sort();
    assert_eq!(found, expected, "replica directory layout");
}
