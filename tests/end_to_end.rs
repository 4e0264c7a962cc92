//! End-to-end integration: a full Zerber deployment must answer
//! queries *exactly* like the ideal trusted central index of Section 2
//! (ordinary inverted index + ACL check), while never storing a
//! plaintext term anywhere central.

use zerber::{ZerberConfig, ZerberSystem};
use zerber_core::merge::MergeConfig;
use zerber_corpus::{CorpusConfig, SyntheticCorpus};
use zerber_index::{CentralIndex, DocId, GroupId, TermId, UserId};

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusConfig {
        num_docs: 120,
        vocabulary_size: 800,
        zipf_exponent: 1.0,
        avg_doc_length: 60,
        doc_length_sigma: 0.4,
        num_groups: 4,
        seed: 99,
    })
}

/// Builds a Zerber system and the ideal baseline over the same corpus
/// and memberships.
fn build_pair() -> (ZerberSystem, CentralIndex, SyntheticCorpus) {
    let corpus = corpus();
    let stats = corpus.statistics();
    let config = ZerberConfig::default().with_merge(MergeConfig::dfm(32));
    let mut system = ZerberSystem::bootstrap(config, &stats).unwrap();
    let mut central = CentralIndex::new();

    // Users 0..8: user u belongs to groups {u % 4} and {(u+1) % 4}.
    for user in 0..8u32 {
        for group in [user % 4, (user + 1) % 4] {
            system.add_membership(UserId(user), GroupId(group));
            central.add_user_to_group(UserId(user), GroupId(group));
        }
    }
    central.insert_batch(&corpus.documents);
    system.index_corpus(&corpus.documents).unwrap();
    (system, central, corpus)
}

fn result_set(ranked: &[zerber_index::RankedDoc]) -> std::collections::BTreeSet<u32> {
    ranked.iter().map(|r| r.doc.0).collect()
}

#[test]
fn zerber_matches_the_ideal_index_result_sets() {
    let (system, central, _corpus) = build_pair();
    // Probe a spread of terms: frequent head, mid, and rare tail.
    for term in [0u32, 1, 5, 20, 50, 150, 400] {
        for user in [0u32, 3, 7] {
            let zerber_hits = system
                .query(UserId(user), &[TermId(term)], usize::MAX)
                .unwrap();
            let central_hits = central.search(UserId(user), &[TermId(term)], usize::MAX);
            assert_eq!(
                result_set(&zerber_hits.ranked),
                result_set(&central_hits),
                "user {user} term {term}"
            );
        }
    }
}

#[test]
fn multi_term_queries_match_too() {
    let (system, central, _corpus) = build_pair();
    let queries = [vec![0u32, 3], vec![1, 7, 12], vec![40, 90]];
    for terms in &queries {
        let term_ids: Vec<TermId> = terms.iter().map(|&t| TermId(t)).collect();
        let zerber_hits = system.query(UserId(2), &term_ids, usize::MAX).unwrap();
        let central_hits = central.search(UserId(2), &term_ids, usize::MAX);
        assert_eq!(
            result_set(&zerber_hits.ranked),
            result_set(&central_hits),
            "query {terms:?}"
        );
    }
}

#[test]
fn revocation_is_reflected_immediately() {
    let (system, _central, _corpus) = build_pair();
    let before = system
        .query(UserId(0), &[TermId(0)], usize::MAX)
        .unwrap()
        .ranked
        .len();
    assert!(before > 0, "user 0 must see group-0 docs on term 0");
    system.remove_membership(UserId(0), GroupId(0));
    system.remove_membership(UserId(0), GroupId(1));
    let after = system
        .query(UserId(0), &[TermId(0)], usize::MAX)
        .unwrap()
        .ranked
        .len();
    assert_eq!(after, 0, "no memberships, no results");
}

#[test]
fn deletion_matches_baseline() {
    let (mut system, mut central, corpus) = build_pair();
    // Delete the first 10 documents from both systems.
    let victims: Vec<(GroupId, DocId)> = corpus.documents[..10]
        .iter()
        .map(|d| (d.group, d.id))
        .collect();
    for &(group, doc) in &victims {
        assert!(system.delete_document(group, doc).unwrap() > 0);
        assert!(central.remove(doc));
    }
    for term in [0u32, 2, 9, 33] {
        let zerber_hits = system
            .query(UserId(1), &[TermId(term)], usize::MAX)
            .unwrap();
        let central_hits = central.search(UserId(1), &[TermId(term)], usize::MAX);
        assert_eq!(
            result_set(&zerber_hits.ranked),
            result_set(&central_hits),
            "term {term} after deletions"
        );
    }
}

#[test]
fn document_update_reflects_newest_version_only() {
    let (mut system, _central, corpus) = build_pair();
    // Take an existing doc, replace its content with a single marker
    // term, and re-index.
    let old = corpus.documents[0].clone();
    let marker = TermId(799);
    let updated = zerber_index::Document::from_term_counts(old.id, old.group, vec![(marker, 5)]);
    system.index_document(&updated).unwrap();
    system.flush_owners().unwrap();

    // The marker finds the doc; its old terms do not.
    let user = UserId(0); // groups 0 and 1; doc 0 is group 0
    let hits = system.query(user, &[marker], usize::MAX).unwrap();
    assert!(hits.ranked.iter().any(|r| r.doc == old.id));
    let old_term = old.terms[0].0;
    let old_hits = system.query(user, &[old_term], usize::MAX).unwrap();
    assert!(
        old_hits.ranked.iter().all(|r| r.doc != old.id),
        "stale postings must be gone"
    );
}

#[test]
fn storage_matches_the_replication_model() {
    let (system, central, _corpus) = build_pair();
    let postings = central.inverted().total_postings();
    assert_eq!(system.elements_per_server(), postings);
    for server in system.servers() {
        assert_eq!(server.total_elements(), postings, "full replication");
    }
    // Section 7.2 arithmetic: 1.5x per server, 1.5n total.
    let model = zerber_net::SizeModel::default();
    let plain = model.plain_index_bytes(postings);
    let total = model.zerber_total_bytes(postings, system.servers().len());
    assert_eq!(total, plain * 12 / 8 * 3);
}

#[test]
fn batched_system_converges_to_same_results() {
    let corpus = corpus();
    let stats = corpus.statistics();
    let config = ZerberConfig::default()
        .with_merge(MergeConfig::dfm(32))
        .with_batch(zerber_client::BatchPolicy::batched(500));
    let mut system = ZerberSystem::bootstrap(config, &stats).unwrap();
    system.add_membership(UserId(0), GroupId(0));
    // index_corpus flushes at the end, so everything must be visible.
    system.index_corpus(&corpus.documents).unwrap();
    let hits = system.query(UserId(0), &[TermId(0)], usize::MAX).unwrap();
    assert!(!hits.ranked.is_empty());
}

#[test]
fn bandwidth_is_metered_for_every_phase() {
    let (system, _central, _corpus) = build_pair();
    let _ = system.query(UserId(0), &[TermId(0)], 10).unwrap();
    let meter = system.traffic();
    let owner_upload = meter.total_matching(|from, to| {
        matches!(from, zerber_net::NodeId::Owner(_))
            && matches!(to, zerber_net::NodeId::IndexServer(_))
    });
    let query_down = meter.total_matching(|from, to| {
        matches!(from, zerber_net::NodeId::IndexServer(_))
            && matches!(to, zerber_net::NodeId::User(_))
    });
    assert!(owner_upload > 0, "indexing traffic recorded");
    assert!(query_down > 0, "query response traffic recorded");
}
