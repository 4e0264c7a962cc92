//! Security integration tests: the r-confidentiality and k-compromise
//! guarantees checked against a *live* deployment, with the adversary
//! restricted to exactly what a compromised server exposes.

use rand::rngs::StdRng;
use rand::SeedableRng;

use zerber::{ZerberConfig, ZerberSystem};
use zerber_attacks::{
    correlation_attack_precision, share_distribution_test, verify_plan_r_bound,
    DfReconstructionAttack,
};
use zerber_core::merge::MergeConfig;
use zerber_core::PlId;
use zerber_corpus::{CorpusConfig, SyntheticCorpus};
use zerber_field::Fp;
use zerber_index::{GroupId, UserId};

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(&CorpusConfig {
        num_docs: 150,
        vocabulary_size: 1_000,
        zipf_exponent: 1.0,
        avg_doc_length: 80,
        doc_length_sigma: 0.3,
        num_groups: 3,
        seed: 31,
    })
}

fn deployed(m: u32) -> (ZerberSystem, SyntheticCorpus) {
    let corpus = corpus();
    let stats = corpus.statistics();
    let config = ZerberConfig::default().with_merge(MergeConfig::dfm(m));
    let mut system = ZerberSystem::bootstrap(config, &stats).unwrap();
    system.add_membership(UserId(1), GroupId(0));
    system.index_corpus(&corpus.documents).unwrap();
    (system, corpus)
}

#[test]
fn live_plan_respects_its_r_bound() {
    let (system, corpus) = deployed(16);
    let stats = corpus.statistics();
    let report = verify_plan_r_bound(system.plan(), &stats);
    assert!(report.holds(), "{report:?}");
}

#[test]
fn compromised_server_sees_only_merged_lengths() {
    let (system, corpus) = deployed(8);
    let view = system.servers()[0].adversary_view();
    // The adversary observes at most M distinct posting lists.
    let lengths = view.list_lengths();
    assert!(lengths.len() <= 8, "at most M observable lists");
    // Total observed elements equals total postings — nothing hidden,
    // nothing revealed beyond aggregates.
    let total: usize = lengths.values().sum();
    let expected: usize = corpus
        .documents
        .iter()
        .map(zerber_index::Document::distinct_terms)
        .sum();
    assert_eq!(total, expected);
}

#[test]
fn df_attack_on_live_server_is_blunted_by_merging() {
    let (coarse_system, corpus) = deployed(4);
    let (fine_system, _) = deployed(256);
    let dfs = corpus.document_frequencies();
    let stats = corpus.statistics();

    let observe = |system: &ZerberSystem, m: u32| -> Vec<u64> {
        let view = system.servers()[0].adversary_view();
        (0..m).map(|pl| view.list_len(PlId(pl)) as u64).collect()
    };

    let coarse_report = DfReconstructionAttack {
        background: &stats,
        plan: coarse_system.plan(),
    }
    .run(&observe(&coarse_system, 4), &dfs);
    let fine_report = DfReconstructionAttack {
        background: &stats,
        plan: fine_system.plan(),
    }
    .run(&observe(&fine_system, 256), &dfs);

    // With a perfect-background adversary the estimates match the
    // priors scaled by observed lengths; merging coarsely must not
    // *increase* her exact-recovery rate.
    assert!(coarse_report.exact_fraction <= fine_report.exact_fraction + 1e-9);
}

#[test]
fn fewer_than_k_shares_decrypt_nothing() {
    let (system, _corpus) = deployed(8);
    // Grab one stored share from server 0 for some non-empty list.
    let view = system.servers()[0].adversary_view();
    let (pl, _) = view
        .list_lengths()
        .into_iter()
        .find(|&(_, len)| len > 0)
        .expect("non-empty list exists");
    let shares = view.raw_list(pl);
    let share = shares[0];

    // k = 2: a single share admits *every* possible secret. For any
    // candidate secret s there is a degree-1 polynomial through
    // (0, s) and (x0, share.y) — verify constructively for several
    // candidates.
    let x0 = system.servers()[0].coordinate();
    for candidate in [0u64, 1, 999_999, (1 << 60) - 1] {
        let s = Fp::new(candidate);
        let slope = (share.share - s) * x0.inverse().unwrap();
        // The polynomial f(x) = s + slope*x passes through both points,
        // i.e. the share is perfectly consistent with secret s.
        assert_eq!(s + slope * x0, share.share);
    }
}

#[test]
fn stored_share_bytes_are_statistically_uniform() {
    let (system, _corpus) = deployed(8);
    // Gather all stored y-shares from server 0 and chi-square them
    // against uniform buckets.
    let view = system.servers()[0].adversary_view();
    let mut counts = vec![0u64; 16];
    let bucket = zerber_field::MODULUS / 16 + 1;
    let mut n = 0u64;
    for (pl, _) in view.list_lengths() {
        for share in view.raw_list(pl) {
            counts[(share.share.value() / bucket) as usize] += 1;
            n += 1;
        }
    }
    assert!(n > 1_000, "need a meaningful sample, got {n}");
    let chi = zerber_attacks::chi_square_uniform(&counts);
    // df = 15, mean 15, sd sqrt(30) ≈ 5.5; allow 6 sigma.
    assert!(chi < 15.0 + 6.0 * 30f64.sqrt(), "chi-square {chi}");
}

#[test]
fn share_distributions_do_not_depend_on_the_secret() {
    let mut rng = StdRng::seed_from_u64(7);
    let scheme = zerber_shamir::SharingScheme::random(2, 3, &mut rng).unwrap();
    let report =
        share_distribution_test(&scheme, Fp::new(42), Fp::new(1 << 59), 30_000, 16, &mut rng);
    assert!(report.plausible(4.5), "{report:?}");
}

#[test]
fn batching_blunts_the_update_correlation_attack() {
    let corpus = corpus();
    let doc_sizes: Vec<usize> = corpus
        .documents
        .iter()
        .map(zerber_index::Document::distinct_terms)
        .collect();
    let mut rng = StdRng::seed_from_u64(5);
    let immediate = correlation_attack_precision(&doc_sizes, 1, &mut rng);
    let batched = correlation_attack_precision(&doc_sizes, 20, &mut rng);
    assert_eq!(immediate.precision, 1.0);
    assert!(
        batched.precision < 0.15,
        "batching 20 docs leaves precision {}",
        batched.precision
    );
}

#[test]
fn proactive_refresh_invalidates_leaked_shares() {
    let (mut system, _corpus) = deployed(8);
    // Adversary exfiltrates server 0's shares.
    let view = system.servers()[0].adversary_view();
    let (pl, _) = view
        .list_lengths()
        .into_iter()
        .find(|&(_, len)| len > 0)
        .unwrap();
    let stolen = view.raw_list(pl);

    system.proactive_refresh();

    // Fresh shares from server 1 combined with stale stolen shares
    // from server 0 must NOT reconstruct the true elements. (A mixed
    // reconstruction is `secret + w1·δ_e(x1)`, a uniformly random field
    // element; the codec rejects about half of those outright — its 60
    // payload bits nearly fill the 61-bit field — and the rest decode
    // to a *wrong* triple. The attack succeeds only if δ_e(x1) = 0,
    // probability 1/p per element.)
    let fresh_0 = system.servers()[0].adversary_view().raw_list(pl);
    let fresh_1 = system.servers()[1].adversary_view().raw_list(pl);
    let x0 = system.servers()[0].coordinate();
    let x1 = system.servers()[1].coordinate();
    let weights = zerber_field::lagrange_weights_at_zero(&[x0, x1]);
    let codec = zerber_core::ElementCodec::default();

    let mut leaked = 0usize;
    let mut checked = 0usize;
    for stale in &stolen {
        let Some(new) = fresh_1.iter().find(|s| s.element == stale.element) else {
            continue;
        };
        let truth = fresh_0
            .iter()
            .find(|s| s.element == stale.element)
            .expect("element survives refresh on its own server");
        checked += 1;
        let mixed = stale.share * weights[0] + new.share * weights[1];
        let true_value = truth.share * weights[0] + new.share * weights[1];
        debug_assert!(codec.decode(true_value).is_ok());
        // The stale share leaks only if the mixed reconstruction still
        // round-trips to the true element.
        if codec.decode(mixed) == codec.decode(true_value) {
            leaked += 1;
        }
    }
    assert!(checked > 0);
    assert_eq!(
        leaked, 0,
        "stale+fresh shares reconstructed true elements {leaked}/{checked}"
    );
}

/// Section 5.4.1: the server "authenticates the user, checks his group
/// membership and accepts the update if appropriate" — for deletes as
/// for inserts. Element ids are stored in the clear and guessable, so
/// a logged-in member of one group must not be able to delete another
/// group's elements with them.
#[test]
fn a_member_of_one_group_cannot_delete_another_groups_elements() {
    let (mut system, corpus) = deployed(8);
    system.add_membership(UserId(2), GroupId(1));
    let insider = system.session(UserId(2));
    let before = system.elements_per_server();

    // What the insider needs is all readable off any one server.
    let view = system.servers()[0].adversary_view();
    let (pl, victim) = view
        .list_lengths()
        .into_keys()
        .find_map(|pl| {
            let foreign = view
                .raw_list(pl)
                .into_iter()
                .find(|s| s.group == GroupId(0))?;
            Some((pl, foreign))
        })
        .expect("group 0 has elements");
    for server in system.servers() {
        assert_eq!(
            server.delete(insider, &[(pl, victim.element)]),
            Err(zerber_server::ServerError::NotGroupMember(GroupId(0)))
        );
    }
    assert_eq!(system.elements_per_server(), before, "nothing was removed");

    // The group's own owner still deletes a whole document everywhere.
    let doc = corpus
        .documents
        .iter()
        .find(|d| d.group == GroupId(0))
        .expect("group 0 has documents");
    let removed = system.delete_document(GroupId(0), doc.id).unwrap();
    assert_eq!(removed, doc.terms.len());
    assert_eq!(system.elements_per_server(), before - removed);
}
