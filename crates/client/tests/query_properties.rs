//! Property tests for the query client's streaming pass, each against
//! the implementation it replaced (kept here, outside the crate, as
//! the oracle): `recombine` against a `(list, element id)`-keyed
//! accumulator, the personalised ranking against `zerber_index`'s
//! Threshold Algorithm and full-sort references over per-term scored
//! lists, and `rank`'s radix grouping against the comparison sort it
//! replaced. Two fixed examples pin what a tampered answer turns into.
//!
//! The client's cache of decoded lists is checked against the client
//! it replaced — a fresh one per query — under inserts, deletes,
//! refreshes (one racing a query) and membership changes, and a fixed
//! example pins what a refresh caught in flight does.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use zerber_client::ranking::rank;
use zerber_client::{
    recombine, BatchPolicy, DocumentOwner, PendingFetch, QueryClient, QueryError, QueryOutcome,
    ServerHandle,
};
use zerber_core::{ElementCodec, ElementId, MappingTable, PlId, PostingElement};
use zerber_field::{lagrange_weights_at_zero, Fp};
use zerber_index::topk::naive_topk;
use zerber_index::{
    threshold_topk, DocId, Document, GroupId, RankedDoc, ScoredList, TermId, TopKScratch, UserId,
};
use zerber_net::{AuthToken, ListVersion, ShareColumns, StoredShare};
use zerber_server::{IndexServer, ServerError, TokenAuth};
use zerber_shamir::{RefreshRound, SharingScheme};

const READER: UserId = UserId(1);
const GROUPS: u32 = 3;
const VOCABULARY: u32 = 30;
/// Far fewer lists than terms: every list is co-merged.
const LISTS: u32 = 4;

/// One row of an answer, as the oracles and the tampering closures
/// read it.
#[derive(Debug, Clone, Copy)]
struct Row {
    element: ElementId,
    share: Fp,
}

/// A server's answer row by row: what the tampering closures rewrite
/// and the hashing oracle consumes.
type Lists = Vec<(PlId, Vec<Row>)>;

fn to_rows(answer: Vec<ShareColumns>) -> Lists {
    let rows = |list: &ShareColumns| {
        list.rows()
            .map(|(element, share)| Row { element, share })
            .collect()
    };
    answer.iter().map(|list| (list.pl, rows(list))).collect()
}

/// A list's stamps: its version, the server's round, and whether it
/// was answered unchanged.
type Stamp = (ListVersion, u64, bool);

fn stamps(answer: &[ShareColumns]) -> Vec<(PlId, Stamp)> {
    let stamp = |list: &ShareColumns| (list.version, list.round, list.is_unchanged());
    answer.iter().map(|list| (list.pl, stamp(list))).collect()
}

/// `lists` as the server would have answered them with the `stamps`
/// of its honest answer (an unchanged list left empty stays
/// unchanged; a list it never answered is unstamped).
fn to_columns(lists: &Lists, stamps: &[(PlId, Stamp)]) -> Vec<ShareColumns> {
    lists
        .iter()
        .map(|(pl, rows)| {
            let stamp = stamps.iter().find(|(stamped, _)| stamped == pl);
            let (version, round, unchanged) = stamp.map_or_else(Default::default, |&(_, s)| s);
            if unchanged && rows.is_empty() {
                return ShareColumns::unchanged(*pl, version, round);
            }
            let mut list = ShareColumns::new(*pl);
            for row in rows {
                list.push(row.element, row.share);
            }
            list.stamped(version, round)
        })
        .collect()
}

/// Every list unconditionally: the request of a client with nothing
/// cached.
fn unconditional(lists: &[PlId]) -> Vec<(PlId, Option<ListVersion>)> {
    lists.iter().map(|&pl| (pl, None)).collect()
}

/// Lists `recombine` summed straight down after one slice comparison,
/// and lists it had to realign, over the whole run of property (a).
static STRAIGHT_LISTS: AtomicUsize = AtomicUsize::new(0);
static REALIGNED_LISTS: AtomicUsize = AtomicUsize::new(0);

fn arb_corpus() -> impl Strategy<Value = Vec<Document>> {
    let document = |index: u32| {
        (
            prop::collection::btree_map(0..VOCABULARY, 1u32..8, 1..8),
            0..GROUPS,
        )
            .prop_map(move |(terms, group)| {
                Document::from_term_counts(
                    DocId(index),
                    GroupId(group),
                    terms.into_iter().map(|(t, c)| (TermId(t), c)).collect(),
                )
            })
    };
    (3u32..24).prop_flat_map(move |n| (0..n).map(document).collect::<Vec<_>>())
}

/// One to four terms, the first optionally asked twice.
fn arb_query() -> impl Strategy<Value = Vec<TermId>> {
    (
        prop::collection::vec(0..VOCABULARY, 1..4),
        any::<u8>().prop_map(|b| b % 2 == 0),
    )
        .prop_map(|(mut terms, repeat_first)| {
            if repeat_first {
                terms.push(terms[0]);
            }
            terms.into_iter().map(TermId).collect()
        })
}

/// `(k, n)`: 2-of-3 or 3-of-5.
fn arb_scheme() -> impl Strategy<Value = (usize, usize)> {
    (0u8..2).prop_map(|wide| if wide == 1 { (3, 5) } else { (2, 3) })
}

struct World {
    servers: Vec<Arc<dyn ServerHandle>>,
    token: AuthToken,
    table: Arc<MappingTable>,
    codec: ElementCodec,
    threshold: usize,
}

impl World {
    fn build(corpus: &[Document], (threshold, servers): (usize, usize), seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let auth = Arc::new(TokenAuth::new());
        let scheme = SharingScheme::random(threshold, servers, &mut rng).unwrap();
        let handles: Vec<Arc<dyn ServerHandle>> = scheme
            .coordinates()
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let server = IndexServer::new(i as u32, x, auth.clone());
                for group in 0..GROUPS {
                    server.add_user_to_group(READER, GroupId(group));
                }
                Arc::new(server) as Arc<dyn ServerHandle>
            })
            .collect();
        let token = auth.issue(READER);
        let table = Arc::new(MappingTable::hash_only(LISTS, seed));
        let codec = ElementCodec::default();
        let mut owner = DocumentOwner::new(
            0,
            token,
            codec,
            scheme,
            table.clone(),
            BatchPolicy::batched(16),
        );
        for doc in corpus {
            owner.index_document(doc, &handles, &mut rng).unwrap();
        }
        owner.flush(&handles).unwrap();
        Self {
            servers: handles,
            token,
            table,
            codec,
            threshold,
        }
    }

    fn client(&self) -> QueryClient {
        QueryClient::new(self.token, self.codec, self.table.clone(), self.threshold)
    }

    fn requested(&self, terms: &[TermId]) -> Vec<PlId> {
        let mut lists: Vec<PlId> = terms.iter().map(|&t| self.table.lookup(t)).collect();
        lists.sort_unstable();
        lists.dedup();
        lists
    }
}

/// What a racing or dishonest server does to its answer, replayed
/// identically on every fetch.
#[derive(Clone, Copy, Debug)]
struct Disorder {
    seed: u64,
    /// Every list in an order of the server's own.
    shuffle: bool,
    /// This server lost about a third of its elements.
    lossy_server: Option<usize>,
    /// This server holds one share of some other polynomial.
    foreign_server: Option<usize>,
}

fn arb_disorder() -> impl Strategy<Value = Disorder> {
    (any::<u64>(), 0u8..2, 0usize..6, 0usize..6).prop_map(|(seed, shuffle, lossy, foreign)| {
        // Servers 0..3 exist under both schemes and the first two are
        // always contacted; 3.. stands for "none".
        Disorder {
            seed,
            shuffle: shuffle == 1,
            lossy_server: Some(lossy).filter(|&s| s < 3),
            foreign_server: Some(foreign).filter(|&s| s < 3),
        }
    })
}

/// A server that rewrites its answer before the client sees it.
struct Tampering<F> {
    inner: Arc<dyn ServerHandle>,
    tamper: F,
}

impl<F: Fn(&mut Lists) + Send + Sync> ServerHandle for Tampering<F> {
    fn coordinate(&self) -> Fp {
        self.inner.coordinate()
    }
    fn insert_batch(
        &self,
        token: AuthToken,
        entries: &[(PlId, StoredShare)],
    ) -> Result<(), ServerError> {
        self.inner.insert_batch(token, entries)
    }
    fn delete(
        &self,
        token: AuthToken,
        elements: &[(PlId, ElementId)],
    ) -> Result<usize, ServerError> {
        self.inner.delete(token, elements)
    }
    fn begin_fetch(&self, token: AuthToken, lists: &[(PlId, Option<ListVersion>)]) -> PendingFetch {
        PendingFetch::ready(self.inner.begin_fetch(token, lists).wait().map(|answer| {
            let stamps = stamps(&answer);
            let mut lists = to_rows(answer);
            (self.tamper)(&mut lists);
            to_columns(&lists, &stamps)
        }))
    }
}

/// `world`'s servers with server `index` answering through `tamper`.
fn tampered<F>(world: &World, index: usize, tamper: F) -> Vec<Arc<dyn ServerHandle>>
where
    F: Fn(&mut Lists) + Send + Sync + 'static,
{
    let mut servers = world.servers.clone();
    servers[index] = Arc::new(Tampering {
        inner: servers[index].clone(),
        tamper,
    });
    servers
}

/// Every server of `world` under `disorder`.
fn disordered(world: &World, disorder: Disorder) -> Vec<Arc<dyn ServerHandle>> {
    let tamper = move |index: usize, lists: &mut Lists| {
        let mut rng = StdRng::seed_from_u64(disorder.seed ^ index as u64);
        for (_, shares) in lists.iter_mut() {
            if disorder.shuffle {
                shares.shuffle(&mut rng);
            }
            if disorder.lossy_server == Some(index) {
                shares.retain(|_| rng.random_range(0..3) != 0);
            }
        }
        if disorder.foreign_server == Some(index) {
            if let Some(share) = lists.iter_mut().flat_map(|(_, s)| s.iter_mut()).next() {
                share.share = Fp::new(rng.random_range(0..u64::MAX >> 4));
            }
        }
    };
    world
        .servers
        .iter()
        .enumerate()
        .map(|(index, inner)| {
            Arc::new(Tampering {
                inner: inner.clone(),
                tamper: move |lists: &mut Lists| tamper(index, lists),
            }) as Arc<dyn ServerHandle>
        })
        .collect()
}

/// The accumulator `QueryClient::execute` used to fill: every fetched
/// share hashed under `(list, element id)`, complete sets kept.
fn oracle_recombine(responses: &[Lists], weights: &[Fp]) -> Vec<(PlId, ElementId, Fp)> {
    let mut accumulator: HashMap<(PlId, ElementId), (Fp, usize)> = HashMap::new();
    for (lists, &weight) in responses.iter().zip(weights) {
        for (pl, shares) in lists {
            for share in shares {
                let entry = accumulator
                    .entry((*pl, share.element))
                    .or_insert((Fp::ZERO, 0));
                entry.0 += share.share * weight;
                entry.1 += 1;
            }
        }
    }
    let mut complete: Vec<_> = accumulator
        .into_iter()
        .filter(|&(_, (_, contributions))| contributions >= responses.len())
        .map(|((pl, element), (sum, _))| (pl, element, sum))
        .collect();
    complete.sort_unstable_by_key(|&(pl, element, sum)| (pl, element, sum.value()));
    complete
}

/// Per-query-term scored lists built the way `execute` used to build
/// them: `df` and `N` hashed out of the matching elements.
fn oracle_lists(
    elements: &[PostingElement],
    codec: &ElementCodec,
    terms: &[TermId],
) -> Vec<ScoredList> {
    let mut df: HashMap<TermId, usize> = HashMap::new();
    let mut docs: HashSet<DocId> = HashSet::new();
    for element in elements {
        *df.entry(element.term).or_insert(0) += 1;
        docs.insert(element.doc);
    }
    let n = docs.len();
    terms
        .iter()
        .map(|&term| {
            let weight = zerber_index::idf(n, df.get(&term).copied().unwrap_or(0));
            ScoredList::new(
                elements
                    .iter()
                    .filter(|e| e.term == term)
                    .map(|e| (e.doc, e.term_frequency(codec) * weight))
                    .collect(),
            )
        })
        .collect()
}

/// The ranking `rank` replaced: a copy of the elements sorted by
/// `(doc, term, tf)`, the statistics counted off it, and per document
/// and query term the first (lowest-tf) element of that term. Returns
/// the ranking, the number of documents and every term's df.
fn oracle_rank(
    elements: &[PostingElement],
    codec: &ElementCodec,
    terms: &[TermId],
    k: usize,
) -> (Vec<RankedDoc>, usize, HashMap<TermId, usize>) {
    let mut sorted = elements.to_vec();
    sorted.sort_unstable_by_key(|e| (e.doc, e.term, e.tf_quantized));
    let mut df: HashMap<TermId, usize> = HashMap::new();
    for element in &sorted {
        *df.entry(element.term).or_insert(0) += 1;
    }
    let docs = sorted.chunk_by(|a, b| a.doc == b.doc).count();
    let weights: Vec<f64> = terms
        .iter()
        .map(|term| zerber_index::idf(docs, df.get(term).copied().unwrap_or(0)))
        .collect();
    let mut top = TopKScratch::new();
    top.begin(k);
    for document in sorted.chunk_by(|a, b| a.doc == b.doc) {
        let score: f64 = terms
            .iter()
            .zip(&weights)
            .map(|(&term, &weight)| {
                document
                    .iter()
                    .find(|e| e.term == term)
                    .map_or(0.0, |e| e.term_frequency(codec) * weight)
            })
            .sum();
        top.offer(document[0].doc, score);
    }
    top.finish();
    (top.take_ranked(), docs, df)
}

/// Terms the arbitrary elements carry; queries also ask for two more.
const ELEMENT_TERMS: u32 = 6;

/// Up to 96 elements over up to 24 documents, so `(doc, term)` pairs
/// repeat with different frequencies at arbitrary positions. The ids
/// share a random base outside a random subset of their four bytes:
/// every byte of a `u32` varies in some cases and is shared in others.
fn arb_elements() -> impl Strategy<Value = Vec<PostingElement>> {
    (
        any::<u32>(),
        0u32..16,
        prop::collection::vec(any::<u32>(), 1..24),
        prop::collection::vec((any::<usize>(), 0..ELEMENT_TERMS, 0u32..4096), 0..96),
    )
        .prop_map(|(base, varying, pool, raw)| {
            let mask = (0..4)
                .filter(|byte| varying >> byte & 1 == 1)
                .fold(0u32, |mask, byte| mask | 0xff << (8 * byte));
            raw.into_iter()
                .map(|(doc, term, tf)| PostingElement {
                    doc: DocId(base ^ (pool[doc % pool.len()] & mask)),
                    term: TermId(term),
                    tf_quantized: tf,
                })
                .collect()
        })
}

fn bits(ranked: &[RankedDoc]) -> Vec<(u32, u64)> {
    ranked
        .iter()
        .map(|r| (r.doc.0, r.score.to_bits()))
        .collect()
}

fn element_key(e: &PostingElement) -> (u32, u32, u32) {
    (e.doc.0, e.term.0, e.tf_quantized)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) `recombine` yields the oracle's complete share sets — as a
    /// multiset — whatever order each server answers in, whichever
    /// elements one server lost, and whatever a foreign share sums to;
    /// `execute` decrypts exactly the decodable, matching ones.
    fn recombine_equals_the_hashing_accumulator_in_every_case(
        corpus in arb_corpus(),
        scheme in arb_scheme(),
        terms in arb_query(),
        disorder in arb_disorder(),
    ) {
        let world = World::build(&corpus, scheme, disorder.seed);
        let servers = disordered(&world, disorder);
        let contacted = &servers[..world.threshold];
        let requested = world.requested(&terms);
        let answers: Vec<Vec<ShareColumns>> = contacted
            .iter()
            .map(|s| s.begin_fetch(world.token, &unconditional(&requested)).wait().unwrap())
            .collect();
        let responses: Vec<Lists> = answers.iter().cloned().map(to_rows).collect();
        let coordinates: Vec<Fp> = contacted.iter().map(|s| s.coordinate()).collect();
        let weights = lagrange_weights_at_zero(&coordinates);

        let mut recombined = Vec::new();
        let mut any_realigned = false;
        for (position, &pl) in requested.iter().enumerate() {
            let rows: Vec<&ShareColumns> = answers.iter().map(|lists| &lists[position]).collect();
            let realigned = recombine(&rows, &weights, |element, sum| {
                recombined.push((pl, element, sum));
            });
            let taken = if realigned { &REALIGNED_LISTS } else { &STRAIGHT_LISTS };
            taken.fetch_add(1, Ordering::Relaxed);
            any_realigned |= realigned;
        }
        recombined.sort_unstable_by_key(|&(pl, element, sum)| (pl, element, sum.value()));
        let expected = oracle_recombine(&responses, &weights);
        prop_assert_eq!(&recombined, &expected);
        let contacted_loses = disorder.lossy_server.is_some_and(|s| s < world.threshold);
        if !disorder.shuffle && !contacted_loses {
            prop_assert!(!any_realigned, "honest rows are walked in lock-step");
        }

        // Through `execute`: the same sets, decoded and filtered.
        let outcome = world.client().execute(&terms, &servers, 10).unwrap();
        let mut matching: Vec<_> = outcome.matching_elements.iter().map(element_key).collect();
        matching.sort_unstable();
        let decodable: Vec<PostingElement> = expected
            .iter()
            .filter_map(|&(_, _, sum)| world.codec.decode(sum).ok())
            .collect();
        let mut wanted: Vec<_> = decodable
            .iter()
            .filter(|e| terms.contains(&e.term))
            .map(element_key)
            .collect();
        wanted.sort_unstable();
        prop_assert_eq!(&matching, &wanted);
        prop_assert_eq!(outcome.false_positives, decodable.len() - wanted.len());
        prop_assert_eq!(
            outcome.elements_received,
            responses.iter().flatten().map(|(_, shares)| shares.len()).sum::<usize>()
        );
    }

    /// (b) `ranked` is the Threshold Algorithm's and the full sort's
    /// answer over the old per-term scored lists, score bits included,
    /// at every result budget — `usize::MAX`, where the old path went
    /// quadratic, among them.
    #[test]
    fn ranked_equals_the_threshold_algorithm(
        corpus in arb_corpus(),
        scheme in arb_scheme(),
        terms in arb_query(),
        seed in any::<u64>(),
    ) {
        let world = World::build(&corpus, scheme, seed);
        let client = world.client();
        for k in [0, 1, 10, usize::MAX] {
            let outcome = client.execute(&terms, &world.servers, k).unwrap();
            let lists = oracle_lists(&outcome.matching_elements, &world.codec, &terms);
            let ranked = bits(&outcome.ranked);
            let everything = naive_topk(&lists, usize::MAX);
            let sorted = bits(&naive_topk(&lists, k));
            prop_assert!(ranked == sorted, "k = {}: {:?} != full sort {:?}", k, ranked, sorted);
            let fagin = bits(&threshold_topk(&lists, k));
            // Where the cut falls inside a run of equal scores the
            // Threshold Algorithm may stop before it has seen every
            // document of the run, and keeps the ones it saw: the
            // scores still agree, which documents carry them need not.
            let cut_splits_a_tie = k > 0
                && everything.len() > k
                && everything[k - 1].score == everything[k].score;
            if cut_splits_a_tie {
                let scores = |ranked: &[(u32, u64)]| -> Vec<u64> {
                    ranked.iter().map(|&(_, score)| score).collect()
                };
                prop_assert_eq!(scores(&ranked), scores(&fagin));
            } else {
                prop_assert!(ranked == fagin, "k = {}: {:?} != TA {:?}", k, ranked, fagin);
            }
        }
    }

    /// (c) `rank` groups by radix exactly as the sort it replaced
    /// did: the same documents, score bits and statistics for
    /// repeated, absent and missing query terms at every budget.
    #[test]
    fn rank_equals_the_sorting_reference(
        elements in arb_elements(),
        terms in prop::collection::vec(0..ELEMENT_TERMS + 2, 0..5),
    ) {
        let codec = ElementCodec::default();
        let terms: Vec<TermId> = terms.into_iter().map(TermId).collect();
        for k in [0, 1, 10, usize::MAX] {
            let (ranked, stats) = rank(&elements, &codec, &terms, k);
            let (expected, docs, df) = oracle_rank(&elements, &codec, &terms, k);
            prop_assert_eq!(bits(&ranked), bits(&expected));
            prop_assert_eq!(stats.accessible_docs(), docs);
            for term in (0..ELEMENT_TERMS + 2).map(TermId) {
                let expected = df.get(&term).copied().unwrap_or(0);
                prop_assert_eq!(stats.document_frequency(term), expected);
            }
        }
    }

    /// (d) The same query over the same servers decrypts the same
    /// elements in the same order.
    #[test]
    fn matching_elements_are_deterministic(
        corpus in arb_corpus(),
        scheme in arb_scheme(),
        terms in arb_query(),
        disorder in arb_disorder(),
    ) {
        let world = World::build(&corpus, scheme, disorder.seed);
        let servers = disordered(&world, disorder);
        let client = world.client();
        let first = client.execute(&terms, &servers, 10).unwrap();
        let again = client.execute(&terms, &servers, 10).unwrap();
        prop_assert_eq!(&first.matching_elements, &again.matching_elements);
        prop_assert_eq!(bits(&first.ranked), bits(&again.ranked));
    }
}

/// Property (a) over its generated cases — which must have taken
/// `recombine` down both of its paths, or the property says nothing
/// about one of them.
#[test]
fn recombine_equals_the_hashing_accumulator() {
    recombine_equals_the_hashing_accumulator_in_every_case();
    let straight = STRAIGHT_LISTS.load(Ordering::Relaxed);
    let realigned = REALIGNED_LISTS.load(Ordering::Relaxed);
    assert!(
        straight > 0 && realigned > 0,
        "{straight} lists summed straight, {realigned} realigned"
    );
}

/// Six one-term documents of group 0, so `TermId(10)`'s list holds six
/// elements on every server.
fn six_documents() -> Vec<Document> {
    (1..=6u32)
        .map(|id| Document::from_term_counts(DocId(id), GroupId(0), vec![(TermId(10), id)]))
        .collect()
}

#[test]
fn a_misshapen_answer_is_an_error_not_a_panic() {
    let world = World::build(&six_documents(), (2, 3), 7);
    // Two query terms in distinct lists, so the request names two.
    let other = (11..200u32)
        .map(TermId)
        .find(|&t| world.table.lookup(t) != world.table.lookup(TermId(10)))
        .expect("4 lists");
    let terms = [TermId(10), other];
    let requested = world.requested(&terms);
    let client = world.client();
    let malformed = |servers: &[Arc<dyn ServerHandle>]| {
        client
            .execute(&terms, servers, 10)
            .expect_err("misshapen answer")
    };

    let short = tampered(&world, 1, |lists| {
        lists.pop();
    });
    assert_eq!(
        malformed(&short),
        QueryError::MalformedResponse {
            server: 1,
            position: 1,
            requested: Some(requested[1]),
            answered: None,
        }
    );
    let long = tampered(&world, 0, |lists| lists.push((PlId(77), Vec::new())));
    assert_eq!(
        malformed(&long),
        QueryError::MalformedResponse {
            server: 0,
            position: 2,
            requested: None,
            answered: Some(PlId(77)),
        }
    );
    let swapped = tampered(&world, 1, |lists| lists.swap(0, 1));
    assert_eq!(
        malformed(&swapped),
        QueryError::MalformedResponse {
            server: 1,
            position: 0,
            requested: Some(requested[0]),
            answered: Some(requested[1]),
        }
    );
}

#[test]
fn misaligned_rows_are_realigned_and_partial_sets_skipped() {
    let world = World::build(&six_documents(), (2, 3), 8);
    // A fresh client per query: a warm one would serve the list from
    // its cache and recombine nothing.
    let execute = |servers: &[Arc<dyn ServerHandle>]| {
        world.client().execute(&[TermId(10)], servers, 10).unwrap()
    };
    let recombine_counters = |outcome: &QueryOutcome| {
        let span = outcome.trace.find("recombine").expect("stage span");
        span.counters.clone()
    };
    let honest = execute(&world.servers);
    assert_eq!(
        recombine_counters(&honest),
        vec![("realigned_lists", 0), ("matching", 6), ("undecodable", 0)]
    );

    // The same shares in another order decrypt to the same ranking.
    let reversed = tampered(&world, 1, |lists| lists[0].1.reverse());
    let outcome = execute(&reversed);
    assert_eq!(bits(&outcome.ranked), bits(&honest.ranked));
    assert_eq!(recombine_counters(&outcome)[0], ("realigned_lists", 1));

    // One server lost an element mid-list: that element cannot be
    // decrypted and is skipped; the others still align.
    let lossy = tampered(&world, 0, |lists| {
        lists[0].1.remove(2);
    });
    let outcome = execute(&lossy);
    assert_eq!(outcome.matching_elements.len(), 5);
    assert_eq!(outcome.elements_received, 11);
    assert_eq!(recombine_counters(&outcome)[0], ("realigned_lists", 1));
}

/// The user who writes every document below: a member of every group,
/// whatever the reader's groups are.
const OWNER: UserId = UserId(2);

/// A 2-of-3 deployment whose servers the tests below also reach
/// directly: to refresh them, to change the reader's groups, and to
/// race a refresh with a query.
struct Deployment {
    raw: Vec<Arc<IndexServer>>,
    servers: Vec<Arc<dyn ServerHandle>>,
    scheme: SharingScheme,
    owner: DocumentOwner,
    reader: AuthToken,
    table: Arc<MappingTable>,
    rng: StdRng,
}

impl Deployment {
    /// The reader starts in group 0 only.
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let auth = Arc::new(TokenAuth::new());
        let scheme = SharingScheme::random(2, 3, &mut rng).unwrap();
        let raw: Vec<Arc<IndexServer>> = scheme
            .coordinates()
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let server = IndexServer::new(i as u32, x, auth.clone());
                for group in 0..GROUPS {
                    server.add_user_to_group(OWNER, GroupId(group));
                }
                server.add_user_to_group(READER, GroupId(0));
                Arc::new(server)
            })
            .collect();
        let servers = raw
            .iter()
            .map(|server| server.clone() as Arc<dyn ServerHandle>)
            .collect();
        let table = Arc::new(MappingTable::hash_only(LISTS, seed));
        let owner = DocumentOwner::new(
            0,
            auth.issue(OWNER),
            ElementCodec::default(),
            scheme.clone(),
            table.clone(),
            BatchPolicy::batched(16),
        );
        Self {
            raw,
            servers,
            scheme,
            owner,
            reader: auth.issue(READER),
            table,
            rng,
        }
    }

    /// A reader's client with nothing cached.
    fn client(&self) -> QueryClient {
        QueryClient::new(self.reader, ElementCodec::default(), self.table.clone(), 2)
    }

    fn insert(&mut self, doc: &Document) {
        let owner = &mut self.owner;
        owner
            .index_document(doc, &self.servers, &mut self.rng)
            .unwrap();
        owner.flush(&self.servers).unwrap();
    }

    fn round(&mut self) -> RefreshRound {
        RefreshRound::generate(&self.scheme, &mut self.rng)
    }

    fn refresh(&mut self) {
        let round = self.round();
        for server in &self.raw {
            server.apply_refresh(&round);
        }
    }

    fn set_reader_membership(&self, group: GroupId, member: bool) {
        for server in &self.raw {
            if member {
                server.add_user_to_group(READER, group);
            } else {
                server.remove_user_from_group(READER, group);
            }
        }
    }

    /// The servers, with server 1 — the last of the two a client
    /// contacts — applying `round` between its next `begin_fetch` and
    /// its answer: server 0 has answered at the round before by then.
    /// With `catch_up` the round then reaches servers 0 and 2, as a
    /// refresh visiting one server after another does; without, they
    /// never get it.
    fn racing(&self, round: RefreshRound, catch_up: bool) -> Vec<Arc<dyn ServerHandle>> {
        let then = if catch_up {
            vec![self.raw[0].clone(), self.raw[2].clone()]
        } else {
            Vec::new()
        };
        let mut servers = self.servers.clone();
        servers[1] = Arc::new(Racing {
            inner: self.raw[1].clone(),
            round: parking_lot::Mutex::new(Some(round)),
            then,
        });
        servers
    }
}

/// A server that a refresh reaches while its answer is being made.
struct Racing {
    inner: Arc<IndexServer>,
    round: parking_lot::Mutex<Option<RefreshRound>>,
    /// Servers the refresh reaches after this one has answered.
    then: Vec<Arc<IndexServer>>,
}

impl ServerHandle for Racing {
    fn coordinate(&self) -> Fp {
        self.inner.coordinate()
    }
    fn insert_batch(
        &self,
        token: AuthToken,
        entries: &[(PlId, StoredShare)],
    ) -> Result<(), ServerError> {
        self.inner.insert_batch(token, entries)
    }
    fn delete(
        &self,
        token: AuthToken,
        elements: &[(PlId, ElementId)],
    ) -> Result<usize, ServerError> {
        self.inner.delete(token, elements)
    }
    fn begin_fetch(&self, token: AuthToken, lists: &[(PlId, Option<ListVersion>)]) -> PendingFetch {
        let Some(round) = self.round.lock().take() else {
            return PendingFetch::ready(self.inner.lookup(token, lists));
        };
        self.inner.apply_refresh(&round);
        let answer = self.inner.lookup(token, lists);
        for server in &self.then {
            server.apply_refresh(&round);
        }
        PendingFetch::ready(answer)
    }
}

fn fetch_counter(outcome: &QueryOutcome, name: &str) -> u64 {
    let span = outcome.trace.find("fetch").expect("stage span");
    let found = span.counters.iter().find(|(counter, _)| *counter == name);
    found.expect("fetch counter").1
}

#[test]
fn a_refresh_in_flight_is_asked_again_never_recombined() {
    let mut deployment = Deployment::new(11);
    for doc in six_documents() {
        deployment.insert(&doc);
    }
    let terms = [TermId(10)];
    let quiet = deployment
        .client()
        .execute(&terms, &deployment.servers, 10)
        .unwrap();
    assert_eq!(quiet.elements_fetched, 12, "six rows from each of two");

    // Server 1 answers at the new round, server 0 at the old one: the
    // list is asked again, by then at one round everywhere.
    let round = deployment.round();
    let racing = deployment.racing(round, true);
    let client = deployment.client();
    let raced = client.execute(&terms, &racing, 10).unwrap();
    assert_eq!(bits(&raced.ranked), bits(&quiet.ranked));
    assert_eq!(raced.undecodable, 0);
    assert_eq!(raced.elements_received, quiet.elements_received);
    assert_eq!(raced.elements_fetched, 2 * quiet.elements_fetched);
    // What it decoded survives the refresh: the next query sends
    // versions and receives no rows.
    let warm = client.execute(&terms, &deployment.servers, 10).unwrap();
    assert_eq!(bits(&warm.ranked), bits(&quiet.ranked));
    assert_eq!(warm.elements_received, quiet.elements_received);
    assert_eq!(warm.elements_fetched, 0);
    assert_eq!(fetch_counter(&warm, "cached_lists"), 1);
    assert_eq!(fetch_counter(&warm, "fetched_rows"), 0);

    // A server the round never reaches: a typed error after the last
    // re-request, not undecodable rows, and nothing kept.
    let round = deployment.round();
    let stranded = deployment.racing(round.clone(), false);
    let client = deployment.client();
    let error = client.execute(&terms, &stranded, 10).unwrap_err();
    let pl = deployment.table.lookup(TermId(10));
    assert_eq!(error, QueryError::MixedAnswers { pl, attempts: 4 });
    for server in [&deployment.raw[0], &deployment.raw[2]] {
        server.apply_refresh(&round);
    }
    let caught_up = client.execute(&terms, &deployment.servers, 10).unwrap();
    assert_eq!(bits(&caught_up.ranked), bits(&quiet.ranked));
    assert_eq!(fetch_counter(&caught_up, "cached_lists"), 0);
    assert_eq!(caught_up.elements_fetched, quiet.elements_fetched);
}

/// Lists served from the cache, and racing queries that fetched rows,
/// over the whole run of property (e).
static CACHED_LISTS: AtomicUsize = AtomicUsize::new(0);
static RACED_FETCHES: AtomicUsize = AtomicUsize::new(0);

/// One to five terms, counts one to seven, in a random group.
fn random_document(id: u32, rng: &mut StdRng) -> Document {
    let terms: std::collections::BTreeMap<u32, u32> = (0..rng.random_range(1..6))
        .map(|_| (rng.random_range(0..VOCABULARY), rng.random_range(1..8)))
        .collect();
    Document::from_term_counts(
        DocId(id),
        GroupId(rng.random_range(0..GROUPS)),
        terms.into_iter().map(|(t, c)| (TermId(t), c)).collect(),
    )
}

fn sorted_keys(elements: &[PostingElement]) -> Vec<(u32, u32, u32)> {
    let mut keys: Vec<_> = elements.iter().map(element_key).collect();
    keys.sort_unstable();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (e) A client that lives through inserts, deletes, proactive
    /// refreshes — some racing its own query — and changes to its
    /// reader's groups answers every query exactly as a client with
    /// nothing cached: the same ranking, score bits included, the
    /// same matching elements as a multiset, the same logical counts.
    fn a_long_lived_client_answers_like_a_fresh_one_in_every_case(
        seed in any::<u64>(),
        steps in prop::collection::vec((0u8..14, any::<u64>()), 8..40),
    ) {
        let mut deployment = Deployment::new(seed);
        let long_lived = deployment.client();
        let mut live: Vec<DocId> = Vec::new();
        let mut next_doc = 0u32;
        for (kind, payload) in steps {
            let mut rng = StdRng::seed_from_u64(payload);
            let group = GroupId(rng.random_range(0..GROUPS));
            match kind {
                0..=3 => {
                    let doc = random_document(next_doc, &mut rng);
                    next_doc += 1;
                    deployment.insert(&doc);
                    live.push(doc.id);
                }
                4 if !live.is_empty() => {
                    let doc = live.swap_remove(rng.random_range(0..live.len()));
                    deployment.owner.delete_document(doc, &deployment.servers).unwrap();
                }
                5 => deployment.refresh(),
                6 => deployment.set_reader_membership(group, true),
                7 => deployment.set_reader_membership(group, false),
                _ => {
                    let terms: Vec<TermId> = (0..rng.random_range(1..4))
                        .map(|_| TermId(rng.random_range(0..VOCABULARY)))
                        .collect();
                    let racing = kind == 8;
                    let servers = if racing {
                        let round = deployment.round();
                        deployment.racing(round, true)
                    } else {
                        deployment.servers.clone()
                    };
                    let kept = long_lived.execute(&terms, &servers, 10).unwrap();
                    let fresh = deployment.client().execute(&terms, &deployment.servers, 10).unwrap();
                    prop_assert_eq!(bits(&kept.ranked), bits(&fresh.ranked));
                    prop_assert_eq!(
                        sorted_keys(&kept.matching_elements),
                        sorted_keys(&fresh.matching_elements)
                    );
                    let counts = |o: &QueryOutcome| {
                        (o.elements_received, o.false_positives, o.undecodable, o.lists_requested)
                    };
                    prop_assert_eq!(counts(&kept), counts(&fresh));
                    CACHED_LISTS.fetch_add(fetch_counter(&kept, "cached_lists") as usize, Ordering::Relaxed);
                    if racing && kept.elements_fetched > 0 {
                        RACED_FETCHES.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// Property (e) over its generated cases — which must have served
/// lists from the cache and raced refreshes against fetches, or the
/// property says nothing about either.
#[test]
fn a_long_lived_client_answers_like_a_fresh_one() {
    a_long_lived_client_answers_like_a_fresh_one_in_every_case();
    let cached = CACHED_LISTS.load(Ordering::Relaxed);
    let raced = RACED_FETCHES.load(Ordering::Relaxed);
    assert!(
        cached > 0 && raced > 0,
        "{cached} lists served from the cache, {raced} racing queries fetched rows"
    );
}
