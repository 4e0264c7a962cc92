//! Query execution — Algorithm 2, client side.
//!
//! The client maps query terms to merged posting-list ids (never
//! revealing the terms themselves), fetches those lists' share columns
//! from `k` index servers — every fetch begun before the first is
//! waited for, nothing spawned — and turns them into a ranking in one
//! streaming pass: [`recombine`] compares the `k` element-id columns of
//! each list once, sums straight down the share columns and hands
//! every complete share set's weighted sum to the decoder, false
//! positives (elements of co-merged terms) are dropped, and
//! [`crate::ranking::rank`] scores what is left. Nothing on this path
//! hashes a row; a response that does not have the requested shape is
//! a [`QueryError`], not a panic.
//!
//! A client keeps what it decoded. Per merged list it holds the
//! decoded elements and the [`ListVersion`] they were read at, names
//! that version in its next request for the list, and serves the list
//! from memory when all `k` servers answer "unchanged". A refresh
//! changes shares, never the secrets they decode to, so it bumps no
//! version. Rows are recombined only from `k` answers stamped with one
//! version and one refresh round; a mixed answer is asked again, a
//! bounded number of times. A list whose sums did not all decode is
//! not kept.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use zerber_core::{ElementCodec, ElementId, MappingTable, PlId, PostingElement};
use zerber_field::{lagrange_weights_at_zero, Fp};
use zerber_index::{RankedDoc, TermId};
use zerber_net::{AuthToken, ListVersion, ShareColumns};
use zerber_obs::SpanRecord;
use zerber_server::ServerError;

use crate::ranking::rank;
use crate::transport::{PendingFetch, ServerHandle};

/// How often `execute` asks its `k` servers for a list before answers
/// at different versions or refresh rounds are an error: the first
/// request and three re-requests.
const FETCH_ATTEMPTS: usize = 4;

/// Why a query produced no outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// Fewer servers were offered than the sharing threshold `k`;
    /// nothing can be decrypted, so nothing is fetched.
    TooFewServers {
        /// The scheme's threshold.
        need: usize,
        /// Servers offered.
        got: usize,
    },
    /// A server's answer does not list exactly the requested posting
    /// lists in request order.
    MalformedResponse {
        /// Index of the server among those contacted.
        server: usize,
        /// First list position that differs.
        position: usize,
        /// The list requested there (`None` past the request's end).
        requested: Option<PlId>,
        /// The list answered there (`None` past the answer's end).
        answered: Option<PlId>,
    },
    /// The `k` servers answered a list at different versions or
    /// refresh rounds on every one of `attempts` requests: a write or
    /// a refresh that did not finish meanwhile, or a server that
    /// missed one. Shares of different rounds are never recombined.
    MixedAnswers {
        /// The first list still mixed.
        pl: PlId,
        /// Requests made.
        attempts: usize,
    },
    /// A server rejected the request.
    Server(ServerError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::TooFewServers { need, got } => {
                write!(f, "need at least k = {need} servers, got {got}")
            }
            QueryError::MalformedResponse {
                server,
                position,
                requested,
                answered,
            } => write!(
                f,
                "server {server} answered {answered:?} at list position {position}, \
                 requested {requested:?}"
            ),
            QueryError::MixedAnswers { pl, attempts } => write!(
                f,
                "servers answered {pl:?} at different versions or refresh rounds \
                 {attempts} times"
            ),
            QueryError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ServerError> for QueryError {
    fn from(e: ServerError) -> Self {
        QueryError::Server(e)
    }
}

/// Everything a query run produces, including the accounting the
/// bandwidth experiments need.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Top-K ranked documents.
    pub ranked: Vec<RankedDoc>,
    /// All decrypted elements that matched the query terms, in the
    /// order their lists were requested and answered — within a list
    /// group by group (ascending group id), insert order inside a
    /// group. `ranked` does not depend on this order.
    pub matching_elements: Vec<PostingElement>,
    /// Posting elements the query read from each contacted server,
    /// summed — served from the client's cache or fetched alike (the
    /// response-size driver of Section 7.3).
    pub elements_received: usize,
    /// Rows that crossed the wire: what the servers sent, re-requests
    /// included. A list served from the cache sends none.
    pub elements_fetched: usize,
    /// Elements discarded as false positives (co-merged terms).
    pub false_positives: usize,
    /// Complete share sets whose sum is not a codeword (a corrupt or
    /// foreign share). They are left out of the result; above zero,
    /// the result may be short.
    pub undecodable: usize,
    /// Merged posting lists requested.
    pub lists_requested: usize,
    /// Where the time went: an `execute` span with children `fetch`
    /// (counters `lists`, `shares`, `cached_lists`, `fetched_rows`),
    /// `recombine` (`realigned_lists`, `matching`, `undecodable`) and
    /// `rank` (`elements`, `docs`).
    pub trace: SpanRecord,
}

/// Recombines one posting list from the `k` servers' columns: calls
/// `emit` with the element id and `Σ wⱼ·shareⱼ` of every element all
/// `k` servers hold, and returns whether the rows had to be realigned.
///
/// Honest servers apply the same batches in the same order, so server
/// `j` holds at row `i` its share of the element server 0 holds there:
/// one slice comparison per server establishes that, and the sums run
/// straight down the share columns. Where the id columns differ
/// (concurrent owners' batches applied in different orders, an element
/// deleted between two servers' answers) the rows from the first
/// differing position on are sorted by element id and merge-joined
/// instead; an element missing from any server cannot be decrypted and
/// is skipped. Element ids are unique within a list, so both walks
/// emit each complete share set exactly once.
///
/// An empty `lists` emits nothing and returns `false`.
///
/// # Panics
/// Panics if `weights` has a different length than `lists`.
pub fn recombine(
    lists: &[&ShareColumns],
    weights: &[Fp],
    mut emit: impl FnMut(ElementId, Fp),
) -> bool {
    assert_eq!(lists.len(), weights.len(), "one Lagrange weight per list");
    let Some((first, others)) = lists.split_first() else {
        return false;
    };
    let ids = first.elements();
    let aligned = if others.iter().all(|list| list.elements() == ids) {
        ids.len()
    } else {
        let agreeing = |list: &&ShareColumns| {
            let pairs = ids.iter().zip(list.elements());
            pairs.take_while(|(ours, theirs)| ours == theirs).count()
        };
        others.iter().map(agreeing).min().unwrap_or(ids.len())
    };
    let columns: Vec<&[Fp]> = lists.iter().map(|list| &list.shares()[..aligned]).collect();
    for (row, &id) in ids[..aligned].iter().enumerate() {
        let sum = columns.iter().zip(weights).map(|(c, &w)| c[row] * w).sum();
        emit(ElementId(id), sum);
    }
    if lists.iter().all(|list| list.len() == aligned) {
        return false;
    }

    let sorted: Vec<Vec<(ElementId, Fp)>> = lists
        .iter()
        .map(|list| {
            let mut rest: Vec<_> = list.rows().skip(aligned).collect();
            rest.sort_unstable_by_key(|&(element, _)| element);
            rest
        })
        .collect();
    let mut cursors = vec![0usize; sorted.len()];
    'elements: for &(element, share) in &sorted[0] {
        let mut sum = share * weights[0];
        for ((row, cursor), &weight) in sorted.iter().zip(&mut cursors).zip(weights).skip(1) {
            while row.get(*cursor).is_some_and(|&(other, _)| other < element) {
                *cursor += 1;
            }
            match row.get(*cursor) {
                Some(&(other, share)) if other == element => sum += share * weight,
                _ => continue 'elements,
            }
            *cursor += 1;
        }
        emit(element, sum);
    }
    true
}

/// A merged list as the client last recombined it.
#[derive(Debug)]
struct CachedList {
    /// The version all `k` servers stamped the rows with.
    version: ListVersion,
    /// Every element the list's sums decoded to, in recombination
    /// order.
    elements: Vec<PostingElement>,
    /// Rows the `k` servers sent for it: what serving it again counts
    /// as received.
    received: usize,
}

/// One requested list once the `k` servers agree on it.
enum Agreed {
    /// All answered "unchanged" at the version the cache holds.
    Cached(Arc<CachedList>),
    /// All sent rows at one version and one refresh round.
    Rows(Vec<ShareColumns>),
}

/// The querying client. It keeps, per merged list it has read, the
/// decoded elements and their version, for as long as it lives.
pub struct QueryClient {
    token: AuthToken,
    codec: ElementCodec,
    table: Arc<MappingTable>,
    threshold: usize,
    cache: Mutex<HashMap<PlId, Arc<CachedList>>>,
}

impl QueryClient {
    /// Creates a client with nothing cached. `threshold` is the
    /// scheme's `k` — how many servers must answer before decryption
    /// is possible.
    pub fn new(
        token: AuthToken,
        codec: ElementCodec,
        table: Arc<MappingTable>,
        threshold: usize,
    ) -> Self {
        assert!(threshold >= 1, "threshold must be at least 1");
        Self {
            token,
            codec,
            table,
            threshold,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The session token every request of this client presents.
    pub fn token(&self) -> AuthToken {
        self.token
    }

    /// Executes a keyword query against at least `k` of the given
    /// servers and returns the top-`k_results` documents.
    pub fn execute(
        &self,
        terms: &[TermId],
        servers: &[Arc<dyn ServerHandle>],
        k_results: usize,
    ) -> Result<QueryOutcome, QueryError> {
        let started = Instant::now();
        if servers.len() < self.threshold {
            return Err(QueryError::TooFewServers {
                need: self.threshold,
                got: servers.len(),
            });
        }
        let contacted = &servers[..self.threshold];

        // 1. Map query terms to merged posting lists (deduplicated —
        //    co-merged query terms share one fetch).
        let mut pl_ids: Vec<PlId> = terms.iter().map(|&t| self.table.lookup(t)).collect();
        pl_ids.sort_unstable();
        pl_ids.dedup();

        // 2. Fetch what changed since this client last read it.
        let held: Vec<Option<Arc<CachedList>>> = {
            let cache = self.cache.lock();
            pl_ids.iter().map(|pl| cache.get(pl).cloned()).collect()
        };
        let (agreed, elements_fetched) = self.fetch(contacted, &pl_ids, &held)?;
        let fetched_at = started.elapsed();

        // 3. Recombine list by list; 4. decrypt each complete share
        //    set as it is summed, keep what decoded, and drop false
        //    positives. ACLs are identical on honest servers, so an
        //    element arrives from all k servers or none.
        let coordinates: Vec<Fp> = contacted.iter().map(|s| s.coordinate()).collect();
        let weights = lagrange_weights_at_zero(&coordinates);
        let mut query_terms = terms.to_vec();
        query_terms.sort_unstable();
        query_terms.dedup();
        let mut matching: Vec<PostingElement> = Vec::new();
        let mut false_positives = 0usize;
        let mut elements_received = 0usize;
        let mut undecodable = 0usize;
        let mut realigned_lists = 0u64;
        let mut cached_lists = 0u64;
        let mut decoded_lists = Vec::new();
        for (&pl, agreed) in pl_ids.iter().zip(agreed) {
            let list = match agreed {
                Agreed::Cached(list) => {
                    cached_lists += 1;
                    list
                }
                Agreed::Rows(columns) => {
                    let rows: Vec<&ShareColumns> = columns.iter().collect();
                    let mut elements = Vec::with_capacity(columns[0].len());
                    let mut failed = 0usize;
                    let realigned = recombine(&rows, &weights, |_, sum| {
                        // A sum this codec did not produce (a corrupt or
                        // foreign share) is left out, and counted.
                        match self.codec.decode(sum) {
                            Ok(element) => elements.push(element),
                            Err(_) => failed += 1,
                        }
                    });
                    realigned_lists += u64::from(realigned);
                    undecodable += failed;
                    let list = Arc::new(CachedList {
                        version: columns[0].version,
                        elements,
                        received: columns.iter().map(ShareColumns::len).sum(),
                    });
                    if failed == 0 {
                        decoded_lists.push((pl, list.clone()));
                    }
                    list
                }
            };
            elements_received += list.received;
            for &element in &list.elements {
                if query_terms.contains(&element.term) {
                    matching.push(element);
                } else {
                    false_positives += 1;
                }
            }
        }
        if !decoded_lists.is_empty() {
            self.cache.lock().extend(decoded_lists);
        }
        let recombined_at = started.elapsed();

        // 5. Client-side ranking with personalized statistics derived
        //    from the accessible result set itself (Section 5.4.2).
        let (ranked, stats) = rank(&matching, &self.codec, terms, k_results);
        let ranked_at = started.elapsed();

        let trace = SpanRecord::new("execute", Duration::ZERO, ranked_at)
            .with_child(
                SpanRecord::new("fetch", Duration::ZERO, fetched_at)
                    .with_counter("lists", pl_ids.len() as u64)
                    .with_counter("shares", elements_received as u64)
                    .with_counter("cached_lists", cached_lists)
                    .with_counter("fetched_rows", elements_fetched as u64),
            )
            .with_child(
                SpanRecord::new("recombine", fetched_at, recombined_at - fetched_at)
                    .with_counter("realigned_lists", realigned_lists)
                    .with_counter("matching", matching.len() as u64)
                    .with_counter("undecodable", undecodable as u64),
            )
            .with_child(
                SpanRecord::new("rank", recombined_at, ranked_at - recombined_at)
                    .with_counter("elements", matching.len() as u64)
                    .with_counter("docs", stats.accessible_docs() as u64),
            );
        Ok(QueryOutcome {
            ranked,
            matching_elements: matching,
            elements_received,
            elements_fetched,
            false_positives,
            undecodable,
            lists_requested: pl_ids.len(),
            trace,
        })
    }

    /// Asks the `contacted` servers for every list in `pl_ids`, naming
    /// the version `held` has of it, until the servers agree on each —
    /// all "unchanged" at the held version, or all rows at one version
    /// and one round — and returns the agreed answers in `pl_ids`
    /// order with the rows fetched on the way. Every request begins at
    /// all `k` servers before the first answer is waited for, so the
    /// round trip costs the slowest server rather than the sum (the
    /// servers run on their own peer threads behind the runtime
    /// transport). A re-request names only the lists still mixed.
    fn fetch(
        &self,
        contacted: &[Arc<dyn ServerHandle>],
        pl_ids: &[PlId],
        held: &[Option<Arc<CachedList>>],
    ) -> Result<(Vec<Agreed>, usize), QueryError> {
        let mut agreed: Vec<Option<Agreed>> = pl_ids.iter().map(|_| None).collect();
        let mut mixed: Vec<usize> = (0..pl_ids.len()).collect();
        let mut fetched = 0usize;
        for _ in 0..FETCH_ATTEMPTS {
            let requests: Vec<(PlId, Option<ListVersion>)> = mixed
                .iter()
                .map(|&at| (pl_ids[at], held[at].as_ref().map(|list| list.version)))
                .collect();
            let fetches: Vec<PendingFetch> = contacted
                .iter()
                .map(|server| server.begin_fetch(self.token, &requests))
                .collect();
            let mut answers = Vec::with_capacity(contacted.len());
            for (server, fetch) in fetches.into_iter().enumerate() {
                let lists = fetch.wait()?;
                check_shape(server, &requests, &lists)?;
                fetched += lists.iter().map(ShareColumns::len).sum::<usize>();
                answers.push(lists.into_iter());
            }
            mixed.retain(|&at| {
                // The shape check leaves one answer per server here.
                let columns: Vec<ShareColumns> =
                    answers.iter_mut().flat_map(Iterator::next).collect();
                agreed[at] = agree(columns, held[at].as_ref());
                agreed[at].is_none()
            });
            if mixed.is_empty() {
                return Ok((agreed.into_iter().flatten().collect(), fetched));
            }
        }
        Err(QueryError::MixedAnswers {
            pl: pl_ids[mixed[0]],
            attempts: FETCH_ATTEMPTS,
        })
    }
}

/// What the `k` answers to one list agree on, if anything: all
/// "unchanged" at the version the client holds, or all rows stamped
/// with one version and one refresh round. Unchanged answers need not
/// share a round — what the client keeps is decoded.
fn agree(columns: Vec<ShareColumns>, held: Option<&Arc<CachedList>>) -> Option<Agreed> {
    let first = columns.first()?;
    let (version, round, unchanged) = (first.version, first.round, first.is_unchanged());
    let same = |list: &ShareColumns| list.version == version && list.is_unchanged() == unchanged;
    if !columns.iter().all(same) {
        return None;
    }
    if unchanged {
        let current = held.filter(|list| list.version == version);
        return current.cloned().map(Agreed::Cached);
    }
    let one_round = columns.iter().all(|list| list.round == round);
    one_round.then_some(Agreed::Rows(columns))
}

/// A server must answer exactly the requested lists in request order —
/// what lets `execute` index its answer by list position.
fn check_shape(
    server: usize,
    requested: &[(PlId, Option<ListVersion>)],
    lists: &[ShareColumns],
) -> Result<(), QueryError> {
    let asked = |position: usize| requested.get(position).map(|&(pl, _)| pl);
    let answered = |position: usize| lists.get(position).map(|list| list.pl);
    match (0..requested.len().max(lists.len()))
        .find(|&position| asked(position) != answered(position))
    {
        None => Ok(()),
        Some(position) => Err(QueryError::MalformedResponse {
            server,
            position,
            requested: asked(position),
            answered: answered(position),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zerber_core::ElementCodec;
    use zerber_index::{DocId, Document, GroupId, UserId};
    use zerber_server::{IndexServer, TokenAuth};
    use zerber_shamir::SharingScheme;

    use crate::batching::BatchPolicy;
    use crate::owner::DocumentOwner;

    struct World {
        servers: Vec<Arc<dyn ServerHandle>>,
        owner: DocumentOwner,
        auth: Arc<TokenAuth>,
        table: Arc<MappingTable>,
    }

    fn world() -> World {
        let auth = Arc::new(TokenAuth::new());
        let mut coordinates = Vec::new();
        let mut servers: Vec<Arc<dyn ServerHandle>> = Vec::new();
        for i in 0..3u32 {
            let x = Fp::new(11 * (i as u64 + 1));
            coordinates.push(x);
            let server = IndexServer::new(i, x, auth.clone());
            server.add_user_to_group(UserId(1), GroupId(0));
            server.add_user_to_group(UserId(2), GroupId(0));
            server.add_user_to_group(UserId(1), GroupId(1));
            servers.push(Arc::new(server));
        }
        let scheme = SharingScheme::with_coordinates(2, coordinates).unwrap();
        let table = Arc::new(MappingTable::hash_only(4, 99));
        let owner_token = auth.issue(UserId(1));
        let owner = DocumentOwner::new(
            1,
            owner_token,
            ElementCodec::default(),
            scheme,
            table.clone(),
            BatchPolicy::default(),
        );
        World {
            servers,
            owner,
            auth,
            table,
        }
    }

    fn doc(id: u32, group: u32, terms: &[(u32, u32)]) -> Document {
        Document::from_term_counts(
            DocId(id),
            GroupId(group),
            terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
        )
    }

    fn client(world: &World, user: u32) -> QueryClient {
        QueryClient::new(
            world.auth.issue(UserId(user)),
            ElementCodec::default(),
            world.table.clone(),
            2,
        )
    }

    #[test]
    fn end_to_end_query_finds_documents() {
        let mut w = world();
        let mut rng = StdRng::seed_from_u64(1);
        w.owner
            .index_document(&doc(1, 0, &[(10, 3), (20, 1)]), &w.servers, &mut rng)
            .unwrap();
        w.owner
            .index_document(&doc(2, 0, &[(10, 1), (30, 2)]), &w.servers, &mut rng)
            .unwrap();

        let outcome = client(&w, 2)
            .execute(&[TermId(10)], &w.servers, 10)
            .unwrap();
        let mut docs: Vec<u32> = outcome.ranked.iter().map(|r| r.doc.0).collect();
        docs.sort_unstable();
        assert_eq!(docs, vec![1, 2]);
        assert_eq!(outcome.matching_elements.len(), 2);
    }

    #[test]
    fn false_positives_are_filtered_not_returned() {
        let mut w = world();
        let mut rng = StdRng::seed_from_u64(2);
        // With only 4 merged lists and 8 distinct terms, collisions
        // are guaranteed; find a term pair sharing a list.
        let shared_pl = w.table.lookup(TermId(10));
        let collider = (11..200u32)
            .map(TermId)
            .find(|&t| w.table.lookup(t) == shared_pl && t != TermId(10))
            .expect("some term must collide in a 4-list table");
        w.owner
            .index_document(&doc(1, 0, &[(10, 1)]), &w.servers, &mut rng)
            .unwrap();
        w.owner
            .index_document(&doc(2, 0, &[(collider.0, 1)]), &w.servers, &mut rng)
            .unwrap();

        let outcome = client(&w, 2)
            .execute(&[TermId(10)], &w.servers, 10)
            .unwrap();
        assert_eq!(outcome.ranked.len(), 1);
        assert_eq!(outcome.ranked[0].doc, DocId(1));
        assert_eq!(outcome.false_positives, 1, "collider counted as fp");
        assert_eq!(outcome.elements_received, 4, "2 elements x 2 servers");
    }

    #[test]
    fn acl_hides_other_groups_documents() {
        let mut w = world();
        let mut rng = StdRng::seed_from_u64(3);
        w.owner
            .index_document(&doc(1, 0, &[(10, 1)]), &w.servers, &mut rng)
            .unwrap();
        w.owner
            .index_document(&doc(2, 1, &[(10, 5)]), &w.servers, &mut rng)
            .unwrap();

        // User 2 is only in group 0.
        let outcome = client(&w, 2)
            .execute(&[TermId(10)], &w.servers, 10)
            .unwrap();
        assert_eq!(outcome.ranked.len(), 1);
        assert_eq!(outcome.ranked[0].doc, DocId(1));
        // User 1 is in both groups and sees both.
        let outcome = client(&w, 1)
            .execute(&[TermId(10)], &w.servers, 10)
            .unwrap();
        assert_eq!(outcome.ranked.len(), 2);
    }

    #[test]
    fn multi_term_queries_rank_conjunctions_higher() {
        let mut w = world();
        let mut rng = StdRng::seed_from_u64(4);
        // doc 1 has both query terms, doc 2 only one (with same tf).
        w.owner
            .index_document(&doc(1, 0, &[(10, 1), (20, 1)]), &w.servers, &mut rng)
            .unwrap();
        w.owner
            .index_document(&doc(2, 0, &[(10, 1), (99, 1)]), &w.servers, &mut rng)
            .unwrap();

        let outcome = client(&w, 1)
            .execute(&[TermId(10), TermId(20)], &w.servers, 2)
            .unwrap();
        assert_eq!(outcome.ranked[0].doc, DocId(1));
    }

    #[test]
    fn duplicate_query_terms_fetch_each_list_once() {
        let mut w = world();
        let mut rng = StdRng::seed_from_u64(5);
        w.owner
            .index_document(&doc(1, 0, &[(10, 1)]), &w.servers, &mut rng)
            .unwrap();
        let outcome = client(&w, 1)
            .execute(&[TermId(10), TermId(10)], &w.servers, 10)
            .unwrap();
        assert_eq!(outcome.lists_requested, 1);
        assert_eq!(outcome.ranked.len(), 1);
    }

    #[test]
    fn results_decrypt_to_exact_tf_quantum() {
        let mut w = world();
        let mut rng = StdRng::seed_from_u64(6);
        // tf = 3/4.
        w.owner
            .index_document(&doc(1, 0, &[(10, 3), (20, 1)]), &w.servers, &mut rng)
            .unwrap();
        let outcome = client(&w, 1)
            .execute(&[TermId(10)], &w.servers, 10)
            .unwrap();
        let codec = ElementCodec::default();
        let element = outcome.matching_elements[0];
        assert_eq!(element.doc, DocId(1));
        assert_eq!(element.term, TermId(10));
        assert!((element.term_frequency(&codec) - 0.75).abs() < 1e-3);
    }

    /// A server whose share of one element is not the one it was sent.
    struct Forging {
        inner: Arc<dyn ServerHandle>,
        element: ElementId,
        share: Fp,
    }

    impl ServerHandle for Forging {
        fn coordinate(&self) -> Fp {
            self.inner.coordinate()
        }
        fn insert_batch(
            &self,
            token: AuthToken,
            entries: &[(PlId, zerber_net::StoredShare)],
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
        fn begin_fetch(
            &self,
            token: AuthToken,
            lists: &[(PlId, Option<ListVersion>)],
        ) -> PendingFetch {
            let forge = |honest: ShareColumns| {
                if honest.is_unchanged() {
                    return honest;
                }
                let mut list = ShareColumns::new(honest.pl);
                for (element, share) in honest.rows() {
                    list.push(
                        element,
                        if element == self.element {
                            self.share
                        } else {
                            share
                        },
                    );
                }
                list.stamped(honest.version, honest.round)
            };
            let answer = self.inner.begin_fetch(token, lists).wait();
            PendingFetch::ready(answer.map(|lists| lists.into_iter().map(forge).collect()))
        }
    }

    #[test]
    fn an_undecodable_sum_is_counted_and_the_rest_still_ranked() {
        let mut w = world();
        let mut rng = StdRng::seed_from_u64(7);
        for id in 1..=3 {
            w.owner
                .index_document(&doc(id, 0, &[(10, id)]), &w.servers, &mut rng)
                .unwrap();
        }
        // Move server 1's share of one element so that the pair sums
        // to 2^60, one past the codec's 60 payload bits.
        let token = w.auth.issue(UserId(2));
        let pl = [(w.table.lookup(TermId(10)), None)];
        let honest: Vec<ShareColumns> = w.servers[..2]
            .iter()
            .map(|server| server.begin_fetch(token, &pl).wait().unwrap().remove(0))
            .collect();
        let weights =
            lagrange_weights_at_zero(&[w.servers[0].coordinate(), w.servers[1].coordinate()]);
        let (element, share_0) = honest[0].rows().next().unwrap();
        assert_eq!(honest[1].elements()[0], element.0);
        w.servers[1] = Arc::new(Forging {
            inner: w.servers[1].clone(),
            element,
            share: (Fp::new(1 << 60) - share_0 * weights[0]) / weights[1],
        });

        let outcome = client(&w, 2)
            .execute(&[TermId(10)], &w.servers, 10)
            .unwrap();
        assert_eq!(outcome.undecodable, 1);
        assert_eq!(outcome.matching_elements.len(), 2);
        assert_eq!(outcome.ranked.len(), 2, "the other elements still rank");
        assert_eq!(outcome.false_positives, 0);
        let recombine = outcome.trace.find("recombine").expect("stage span");
        assert!(recombine.counters.contains(&("undecodable", 1)));
    }

    #[test]
    fn too_few_servers_is_an_error() {
        let w = world();
        let error = client(&w, 1)
            .execute(&[TermId(1)], &w.servers[..1], 10)
            .unwrap_err();
        assert_eq!(error, QueryError::TooFewServers { need: 2, got: 1 });
        assert_eq!(error.to_string(), "need at least k = 2 servers, got 1");
    }

    #[test]
    fn a_rejected_fetch_is_a_server_error() {
        let w = world();
        let stranger = QueryClient::new(AuthToken(7), ElementCodec::default(), w.table.clone(), 2);
        assert_eq!(
            stranger.execute(&[TermId(1)], &w.servers, 10).unwrap_err(),
            QueryError::Server(ServerError::AuthFailed)
        );
    }
}
