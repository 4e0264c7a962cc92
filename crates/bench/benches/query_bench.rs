//! Criterion benchmarks for the end-to-end query path: Zerber
//! (k servers, decryption, filtering, ranking) against the trusted
//! central baseline — the paper's claim is that Zerber "answers most
//! of the queries almost as fast as an ordinary inverted index" —
//! plus the planned evaluators over the same corpus as a two-segment
//! LSM snapshot (a shadowed merge of two compressed cursors per term),
//! as one bulk-loaded segment (the cursor path of a freshly loaded
//! shard), as that segment under a memtable fed twenty write batches,
//! and in `search_churn`'s layout of a bulk segment, two flushed
//! segments and a memtable (the read path of a shard taking writes),
//! printed with each case's scored-posting and block counts so ns/iter
//! reads as ns per scored posting.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use zerber::baselines::CentralIndex;
use zerber::{ZerberConfig, ZerberSystem};
use zerber_core::merge::MergeConfig;
use zerber_corpus::{CorpusConfig, SyntheticCorpus};
use zerber_index::cursor::TopKScratch;
use zerber_index::{idf, GroupId, PostingStore, SegmentPolicy, TermId, UserId};
use zerber_query::{execute, Forced, QueryShape};
use zerber_segment::{BulkConfig, ScratchDir, SegmentSnapshot, SegmentStore};

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusConfig {
        num_docs: 500,
        vocabulary_size: 6_000,
        num_groups: 5,
        ..CorpusConfig::default()
    })
}

fn bench_query_paths(c: &mut Criterion) {
    let corpus = corpus();
    let stats = corpus.statistics();

    // Zerber deployment.
    let config = ZerberConfig::default().with_merge(MergeConfig::dfm(256));
    let mut system = ZerberSystem::bootstrap(config, &stats).unwrap();
    for group in 0..5u32 {
        system.add_membership(UserId(1), GroupId(group));
    }
    system.index_corpus(&corpus.documents).unwrap();

    // Ideal baseline.
    let mut central = CentralIndex::new();
    for doc in &corpus.documents {
        central.insert(doc);
    }
    for group in 0..5u32 {
        central.add_user_to_group(UserId(1), GroupId(group));
    }

    let queries: Vec<Vec<TermId>> = vec![
        vec![TermId(0)],
        vec![TermId(3), TermId(40)],
        vec![TermId(1), TermId(9), TermId(120)],
    ];

    let mut group = c.benchmark_group("query/end_to_end_top10");
    for (i, terms) in queries.iter().enumerate() {
        group.bench_function(format!("zerber_q{i}"), |b| {
            b.iter(|| black_box(system.query(UserId(1), black_box(terms), 10).unwrap()))
        });
        group.bench_function(format!("central_q{i}"), |b| {
            b.iter(|| black_box(central.search(UserId(1), black_box(terms), 10)))
        });
    }
    group.finish();
}

/// `execute` under the planner's own choice over the same corpus
/// stored four ways: as two flushed segments, where every term's
/// cursor is a shadow-aware merge of two compressed sub-cursors; as one
/// bulk-loaded segment, one compressed cursor per term; as that
/// segment under a memtable that twenty insert batches (each
/// rewriting ten segment documents) and five deletes of segment
/// documents were folded into, so a term merges the memtable's list
/// over the segment's; and in the layout a shard reaches under
/// `search_churn`'s write stream: most of the corpus bulk-loaded, then
/// batches of ten fresh documents, one bulk-loaded document deleted
/// every fourth batch, the first forty batches flushed into two
/// segments and the last twenty left in the memtable — a term merges
/// up to three segments and the memtable, but its postings come from
/// the bulk segment in long runs. The phrase filter reads positions
/// through each.
fn bench_planned_over_segments(c: &mut Criterion) {
    let corpus = SyntheticCorpus::generate(&CorpusConfig {
        num_docs: 4_000,
        vocabulary_size: 2_000,
        num_groups: 1,
        ..CorpusConfig::default()
    });
    let policy = SegmentPolicy {
        flush_postings: usize::MAX,
        background: false,
        ..SegmentPolicy::default()
    };
    let (two_dir, one_dir, churned_dir, layout_dir) = (
        ScratchDir::new("query-bench-two"),
        ScratchDir::new("query-bench-one"),
        ScratchDir::new("query-bench-churned"),
        ScratchDir::new("query-bench-churn-layout"),
    );
    let two = SegmentStore::open(&two_dir, policy).expect("open");
    for half in corpus.documents.chunks(corpus.documents.len().div_ceil(2)) {
        two.insert(half).expect("insert");
        two.flush().expect("flush");
    }
    let one = SegmentStore::open(&one_dir, policy).expect("open");
    one.bulk_load(&corpus.documents, BulkConfig::default())
        .expect("bulk load");
    let churned = SegmentStore::open(&churned_dir, policy).expect("open");
    churned
        .bulk_load(&corpus.documents, BulkConfig::default())
        .expect("bulk load");
    for batch in corpus.documents.chunks(10).take(20) {
        churned.insert(batch).expect("insert");
    }
    for doc in corpus.documents.iter().rev().step_by(97).take(5) {
        churned.delete(doc.id).expect("delete");
    }
    let (base, fresh) = corpus.documents.split_at(3_400);
    let layout = SegmentStore::open(&layout_dir, policy).expect("open");
    layout
        .bulk_load(base, BulkConfig::default())
        .expect("bulk load");
    for (i, batch) in fresh.chunks(10).enumerate() {
        layout.insert(batch).expect("insert");
        if i % 4 == 3 {
            layout.delete(base[i * 61 % base.len()].id).expect("delete");
        }
        if i == 19 || i == 39 {
            layout.flush().expect("flush");
        }
    }

    for (group, store, segments) in [
        ("query/planned_two_segments_top10", &two, 2),
        ("query/planned_one_segment_top10", &one, 1),
        ("query/planned_segment_under_memtable_top10", &churned, 1),
        ("query/planned_churn_layout_top10", &layout, 3),
    ] {
        let snapshot = store.snapshot();
        assert_eq!(snapshot.segment_len(), segments);
        bench_planned(c, group, &snapshot);
    }
}

/// One group of three planned top-10 queries over `snapshot`.
fn bench_planned(c: &mut Criterion, group: &str, snapshot: &SegmentSnapshot) {
    let n = snapshot.live_doc_count();
    let slots = |terms: &[u32]| -> Vec<(TermId, f64)> {
        terms
            .iter()
            .map(|&t| (TermId(t), idf(n, snapshot.document_frequency(TermId(t)))))
            .collect()
    };

    let mut bench_group = c.benchmark_group(group);
    for (name, shape, terms) in [
        ("terms_2", QueryShape::Terms, slots(&[0, 1])),
        ("terms_3", QueryShape::Terms, slots(&[0, 1, 2])),
        ("phrase_2", QueryShape::Phrase, slots(&[0, 1])),
    ] {
        let mut scratch = TopKScratch::new();
        let mut run = || {
            execute(
                snapshot,
                shape,
                black_box(&terms),
                10,
                Forced::Auto,
                &mut scratch,
            )
        };
        // The counts repeat exactly on every iteration, so ns/iter over
        // the scored postings is the read path's cost per posting.
        let cost = run().cost;
        println!(
            "{group}/{name}: {} postings scored, {}/{} blocks decoded",
            cost.postings_scored, cost.blocks_decoded, cost.blocks_total
        );
        bench_group.bench_function(name, |b| b.iter(|| black_box(run().ranked.len())));
    }
    bench_group.finish();
}

criterion_group!(benches, bench_query_paths, bench_planned_over_segments);
criterion_main!(benches);
