//! The compaction policy's cost, bounded on a deterministic schedule:
//! half a seeded corpus is bulk-loaded as one base segment and the
//! other half streamed over it in 32 flushes, each followed by an
//! inline compaction (`background: false`, so every count repeats
//! exactly).
//!
//! Size-balanced windows merge the 32 flushes like a binary counter —
//! each streamed posting rewritten about log2(32) = 5 times — and fold
//! in the equally large base only once a neighbour has grown to its
//! order of magnitude. A rule that rewrites the base on every step
//! past the segment cap costs about one base per flush instead, and
//! the second run below shows these bounds tell the two apart.
//!
//! Measured on this corpus (8 119 streamed postings):
//! `max_segments: 4` → 29 compactions, 5.09 postings per streamed
//! posting, 0 base rewrites; `max_segments: 1` → 32 compactions,
//! 48.20 postings per streamed posting, 32 base rewrites.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zerber_index::{DocId, Document, GroupId, SegmentPolicy, TermId};
use zerber_obs::MetricsRegistry;
use zerber_segment::{BulkConfig, ScratchDir, SegmentStore};

/// Flushes streamed over the bulk-loaded base.
const FLUSHES: usize = 32;

/// Bound on postings written by compaction merges per streamed posting.
const MAX_COMPACTION_POSTINGS_PER_STREAMED: f64 = 8.0;

/// Bound on how often the file holding the base is merged away while
/// the flushes stream in (once per flush past the cap would be 28).
const MAX_BASE_REWRITES: usize = 3;

/// 1 024 documents of up to 24 distinct terms over a head-heavy
/// 2 000-term vocabulary.
fn corpus() -> Vec<Document> {
    let mut rng = StdRng::seed_from_u64(0x5e9_2e47);
    (0..1_024u32)
        .map(|d| {
            let mut counts = BTreeMap::new();
            for _ in 0..rng.random_range(8..=24) {
                let (a, b) = (rng.random_range(0..2_000u32), rng.random_range(0..2_000u32));
                *counts.entry(TermId(a * b / 2_000)).or_insert(0) += 1;
            }
            Document::from_term_counts(DocId(d), GroupId(0), counts.into_iter().collect())
        })
        .collect()
}

/// The largest segment file in `dir` — the one holding the base.
fn largest_segment(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "zseg"))
        .max_by_key(|path| std::fs::metadata(path).unwrap().len())
        .expect("the base segment exists")
}

struct PolicyCost {
    compactions: u64,
    compaction_postings_per_streamed: f64,
    base_rewrites: usize,
}

fn policy_cost(docs: &[Document], max_segments: usize) -> PolicyCost {
    let (base, stream) = docs.split_at(docs.len() / 2);
    let streamed_postings: usize = stream.iter().map(Document::distinct_terms).sum();
    let policy = SegmentPolicy {
        flush_postings: usize::MAX, // sealed explicitly, once per batch
        max_segments,
        background: false,
        sync_wal: false,
    };
    let dir = ScratchDir::new("compaction-policy");
    let registry = MetricsRegistry::new();
    let store = SegmentStore::open_observed(&dir, policy, &registry).unwrap();
    let one_segment = BulkConfig { workers: 1 };
    store.bulk_load(base, one_segment).unwrap();
    assert_eq!(store.segment_count(), 1);
    let mut base_file = largest_segment(&dir);
    let mut base_rewrites = 0;
    for chunk in stream.chunks(stream.len().div_ceil(FLUSHES)) {
        store.insert(chunk).unwrap();
        store.flush().unwrap();
        store.compact().unwrap();
        if !base_file.exists() {
            base_rewrites += 1;
            base_file = largest_segment(&dir);
        }
    }
    assert!(store.segment_count() <= max_segments);
    assert_eq!(store.snapshot().live_doc_count(), docs.len());
    let metrics = registry.snapshot();
    let count = |name: &str| metrics.counter(name).unwrap_or(0);
    drop(store);
    PolicyCost {
        compactions: count("zerber_segment_compactions_total"),
        compaction_postings_per_streamed: count("zerber_segment_compaction_postings_total") as f64
            / streamed_postings as f64,
        base_rewrites,
    }
}

#[test]
fn balanced_windows_bound_the_rewrite_cost_and_spare_the_base() {
    let docs = corpus();

    let balanced = policy_cost(&docs, 4);
    assert!(
        balanced.compactions >= 1,
        "the stream must trigger compaction for the read-out to mean anything"
    );
    assert!(
        balanced.compaction_postings_per_streamed <= MAX_COMPACTION_POSTINGS_PER_STREAMED,
        "compaction wrote {:.2} postings per streamed posting (bound {})",
        balanced.compaction_postings_per_streamed,
        MAX_COMPACTION_POSTINGS_PER_STREAMED
    );
    assert!(
        balanced.base_rewrites <= MAX_BASE_REWRITES,
        "the base segment was rewritten {} times (bound {})",
        balanced.base_rewrites,
        MAX_BASE_REWRITES
    );

    // The degenerate policy — one segment, so every flush folds into
    // the base — breaks both bounds: they measure the window rule, not
    // just the schedule.
    let degenerate = policy_cost(&docs, 1);
    assert!(
        degenerate.base_rewrites > MAX_BASE_REWRITES,
        "rewriting the base on every flush counted only {} rewrites",
        degenerate.base_rewrites
    );
    assert!(
        degenerate.compaction_postings_per_streamed > MAX_COMPACTION_POSTINGS_PER_STREAMED,
        "rewriting the base on every flush cost only {:.2} postings per streamed posting",
        degenerate.compaction_postings_per_streamed
    );
}
