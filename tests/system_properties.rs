//! System-level property test: for random small corpora, group
//! layouts and queries, the Zerber deployment returns exactly the
//! result set of the ideal central index (Section 2's equivalence
//! contract), under every merging heuristic. And the paper's response
//! size model (Figure 12) holds exactly on a deployed system, with the
//! reader's session cache cold and warm.

use proptest::prelude::*;
use zerber::{ZerberConfig, ZerberSystem};
use zerber_core::analysis::response_sizes;
use zerber_core::merge::MergeConfig;
use zerber_core::PlId;
use zerber_corpus::{CorpusConfig, SyntheticCorpus};
use zerber_index::{CentralIndex, DocId, Document, GroupId, TermId, UserId};

fn arb_document(index: u32) -> impl Strategy<Value = Document> {
    (
        prop::collection::btree_map(0u32..30, 1u32..8, 1..8),
        0u32..3,
    )
        .prop_map(move |(terms, group)| {
            Document::from_term_counts(
                DocId(index),
                GroupId(group),
                terms.into_iter().map(|(t, c)| (TermId(t), c)).collect(),
            )
        })
}

fn arb_corpus() -> impl Strategy<Value = Vec<Document>> {
    (3u32..15).prop_flat_map(|n| (0..n).map(arb_document).collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn zerber_equals_ideal_index_on_random_corpora(
        corpus in arb_corpus(),
        merge_choice in 0usize..3,
        query_terms in prop::collection::vec(0u32..30, 1..4),
        user_groups in prop::collection::vec(0u32..3, 1..3),
    ) {
        let mut index = zerber_index::InvertedIndex::new();
        for doc in &corpus {
            index.insert(doc);
        }
        let stats = index.statistics();
        prop_assume!(stats.total_document_frequency() > 0);

        let merge = match merge_choice {
            0 => MergeConfig::dfm(4),
            1 => MergeConfig::udm(4),
            _ => MergeConfig::bfm_lists(4),
        };
        let config = ZerberConfig::default().with_merge(merge);
        let mut system = ZerberSystem::bootstrap(config, &stats).unwrap();
        let mut central = CentralIndex::new();

        let user = UserId(9);
        for &group in &user_groups {
            system.add_membership(user, GroupId(group));
            central.add_user_to_group(user, GroupId(group));
        }
        for doc in &corpus {
            central.insert(doc);
        }
        system.index_corpus(&corpus).unwrap();

        let terms: Vec<TermId> = query_terms.iter().map(|&t| TermId(t)).collect();
        let zerber_hits = system.query(user, &terms, usize::MAX).unwrap();
        let central_hits = central.search(user, &terms, usize::MAX);

        let zerber_set: std::collections::BTreeSet<u32> =
            zerber_hits.ranked.iter().map(|r| r.doc.0).collect();
        let central_set: std::collections::BTreeSet<u32> =
            central_hits.iter().map(|r| r.doc.0).collect();
        prop_assert_eq!(zerber_set, central_set);
    }
}

/// With the plan learned from the whole corpus and the reader in every
/// group, each server stores `response_sizes` rows per merged list, and
/// a query reads `k` times the sum over its lists — the logical count,
/// the same whether the session cache is cold or warm — of which every
/// row decodes to a matching element or a false positive.
#[test]
fn stored_and_received_elements_equal_the_response_size_model() {
    for seed in [7, 11] {
        let corpus = SyntheticCorpus::generate(&CorpusConfig {
            num_docs: 300,
            vocabulary_size: 2_000,
            avg_doc_length: 30,
            num_groups: 5,
            seed,
            ..CorpusConfig::default()
        });
        let config = ZerberConfig::default()
            .with_merge(MergeConfig::dfm(32))
            .with_seed(seed);
        let mut system = ZerberSystem::bootstrap(config, &corpus.statistics()).unwrap();
        let reader = UserId(1);
        for group in 0..corpus.num_groups {
            system.add_membership(reader, GroupId(group));
        }
        system.index_corpus(&corpus.documents).unwrap();

        let sizes = response_sizes(system.plan(), &corpus.document_frequencies());
        for server in system.servers() {
            let view = server.adversary_view();
            for (list, &size) in sizes.iter().enumerate() {
                assert_eq!(
                    view.list_len(PlId(list as u32)),
                    size as usize,
                    "seed {seed}"
                );
            }
        }

        let k = system.scheme().threshold();
        let mut warm_queries = 0;
        for query in 0..40u32 {
            let terms: Vec<TermId> = (0..1 + query % 3)
                .map(|i| TermId((query * 37 + i * 101) % 400))
                .collect();
            let mut lists: Vec<PlId> = terms.iter().map(|&t| system.table().lookup(t)).collect();
            lists.sort_unstable();
            lists.dedup();
            let rows: u64 = lists.iter().map(|pl| sizes[pl.0 as usize]).sum();
            for _ in 0..2 {
                let outcome = system.query(reader, &terms, 10).unwrap();
                assert_eq!(
                    outcome.elements_received as u64,
                    k as u64 * rows,
                    "seed {seed}"
                );
                let decoded = outcome.matching_elements.len() + outcome.false_positives;
                assert_eq!(decoded as u64, rows, "seed {seed}");
                warm_queries += usize::from(outcome.elements_fetched == 0);
            }
        }
        assert!(
            warm_queries >= 40,
            "seed {seed}: every repeat is served warm"
        );
    }
}
