//! The benchmark's own seeded input generator.
//!
//! Everything a workload feeds the program is derived from the run's
//! `--seed` here and nowhere else: an ODP-shaped corpus (120k-term
//! Zipf vocabulary, 100 topic groups, ~165 distinct terms per
//! document, planted consecutive-term-id runs so phrase queries
//! match), the shaped query log (Terms:And:Phrase = 6:3:1), the
//! whole-query Zipf replay pool and the bag-of-words log of the share
//! path. The program under test only ever sees the generated values.
//!
//! Documents are a pure function of `(seed, doc id)`, so a held-out
//! range or the correctness gate can regenerate any document without
//! keeping the corpus alive.

use std::collections::HashSet;
use std::ops::Range;

use zerber_index::{DocId, Document, GroupId, TermId};
use zerber_query::Query;

/// Distinct terms the corpus draws from.
pub const VOCABULARY: u32 = 120_000;
/// Topic groups; a document's group is `id % TOPICS`.
pub const TOPICS: u32 = 100;
/// Terms in the query pool (the "noisy-DF head").
pub const QUERY_HEAD: usize = 40_000;
/// Result budget of every query.
pub const K: usize = 10;

const GLOBAL_EXPONENT: f64 = 1.05;
const TOPIC_VOCABULARY: u32 = 1_000;
const TOPIC_AFFINITY: f64 = 0.3;
const MEAN_TOKENS: f64 = 240.0;
const TOKEN_SIGMA: f64 = 0.6;
/// Consecutive-id runs planted per document, each three terms long.
const PLANTED_RUNS: usize = 2;
const QUERY_EXPONENT: f64 = 0.9;
const MEAN_QUERY_TERMS: f64 = 2.45;
const MAX_QUERY_TERMS: usize = 6;

/// One splitmix64 step: the generator's only source of bits.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent sub-seed of `seed` for stream `stream`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut state)
}

/// Sub-seed streams. Documents use their id as the stream (ids stay
/// far below `1 << 32`), everything else a constant above it.
mod stream {
    pub const TOPIC_OFFSETS: u64 = 1 << 40;
    pub const QUERY_POOL: u64 = 2 << 40;
    pub const SHAPED_LOG: u64 = 3 << 40;
    pub const REPLAY: u64 = 4 << 40;
    pub const BAG_LOG: u64 = 5 << 40;
}

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// One standard-normal draw (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// One Poisson draw (Knuth; `mean` is small here).
    pub fn poisson(&mut self, mean: f64) -> usize {
        let limit = (-mean).exp();
        let mut product = self.unit();
        let mut count = 0;
        while product > limit {
            product *= self.unit();
            count += 1;
        }
        count
    }
}

/// Samples ranks `0..n` with probability ∝ `1 / (rank + 1)^s`, in O(1)
/// per draw (Vose's alias method — corpus generation draws tens of
/// millions of tokens inside `setup_s`).
#[derive(Debug, Clone)]
pub struct Zipf {
    accept: Vec<f64>,
    alias: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let weights: Vec<f64> = (0..n).map(|rank| ((rank + 1) as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut accept = vec![1.0; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| scaled[i] < 1.0);
        while let (Some(&s_i), Some(&l_i)) = (small.last(), large.last()) {
            small.pop();
            accept[s_i] = scaled[s_i];
            alias[s_i] = l_i as u32;
            scaled[l_i] -= 1.0 - scaled[s_i];
            if scaled[l_i] < 1.0 {
                large.pop();
                small.push(l_i);
            }
        }
        Self { accept, alias }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let column = rng.below(self.accept.len() as u64) as usize;
        if rng.unit() < self.accept[column] {
            column
        } else {
            self.alias[column] as usize
        }
    }
}

/// The query-term pool: the `QUERY_HEAD` most frequent term ids,
/// reordered by a seed-derived noisy rank so that query popularity is
/// correlated with document frequency without equalling it, plus the
/// Zipf popularity over that order.
#[derive(Debug, Clone)]
pub struct QueryPool {
    ranking: Vec<u32>,
    popularity: Zipf,
}

impl QueryPool {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(sub_seed(seed, stream::QUERY_POOL));
        let mut keyed: Vec<(f64, u32)> = (0..QUERY_HEAD as u32)
            .map(|term| (f64::from(term + 1).ln() + 0.5 * rng.normal(), term))
            .collect();
        keyed.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
        Self {
            ranking: keyed.into_iter().map(|(_, term)| term).collect(),
            popularity: Zipf::new(QUERY_HEAD, QUERY_EXPONENT),
        }
    }

    fn term(&self, rng: &mut Rng) -> u32 {
        self.ranking[self.popularity.sample(rng)]
    }
}

/// The corpus: documents are generated on demand by id.
#[derive(Debug, Clone)]
pub struct Corpus {
    seed: u64,
    global: Zipf,
    local: Zipf,
    topic_offsets: Vec<u32>,
    pool: QueryPool,
}

impl Corpus {
    pub fn new(seed: u64) -> Self {
        // Topic slices sit in the tail half of the vocabulary, like
        // topical jargon: mid-to-low frequency globally.
        let mut rng = Rng::new(sub_seed(seed, stream::TOPIC_OFFSETS));
        let tail = VOCABULARY / 2;
        let topic_offsets = (0..TOPICS)
            .map(|_| tail + rng.below(u64::from(VOCABULARY - tail - TOPIC_VOCABULARY)) as u32)
            .collect();
        Self {
            seed,
            global: Zipf::new(VOCABULARY as usize, GLOBAL_EXPONENT),
            local: Zipf::new(TOPIC_VOCABULARY as usize, GLOBAL_EXPONENT),
            topic_offsets,
            pool: QueryPool::new(seed),
        }
    }

    pub fn pool(&self) -> &QueryPool {
        &self.pool
    }

    /// Document `id`: a log-normal number of tokens drawn from the
    /// global Zipf vocabulary (70 %) or the topic's slice (30 %), plus
    /// the planted phrase runs.
    pub fn document(&self, id: u32) -> Document {
        let mut rng = Rng::new(sub_seed(self.seed, u64::from(id)));
        let topic = id % TOPICS;
        let mu = MEAN_TOKENS.ln() - TOKEN_SIGMA * TOKEN_SIGMA / 2.0;
        let tokens = (mu + TOKEN_SIGMA * rng.normal())
            .exp()
            .round()
            .clamp(20.0, 2_000.0) as usize;
        let mut drawn: Vec<u32> = (0..tokens)
            .map(|_| {
                if rng.unit() < TOPIC_AFFINITY {
                    self.topic_offsets[topic as usize] + self.local.sample(&mut rng) as u32
                } else {
                    self.global.sample(&mut rng) as u32
                }
            })
            .collect();
        drawn.sort_unstable();
        let mut terms: Vec<(TermId, u32)> = Vec::with_capacity(drawn.len() + 3 * PLANTED_RUNS);
        for term in drawn {
            match terms.last_mut() {
                Some((last, count)) if last.0 == term => *count += 1,
                _ => terms.push((TermId(term), 1)),
            }
        }
        // A run `t, t+1, t+2` with a single occurrence of the middle
        // term is exactly what the canonical token stream (ascending
        // term ids, `count` slots each) matches as a phrase, for both
        // its two-term prefix and all three terms.
        for _ in 0..PLANTED_RUNS {
            let start = self.pool.term(&mut rng);
            let outer = 1 + rng.below(3) as u32;
            for (offset, count) in [(0, outer), (1, 1), (2, outer)] {
                let term = TermId(start + offset);
                match terms.binary_search_by_key(&term, |&(t, _)| t) {
                    Ok(slot) => terms[slot].1 = count,
                    Err(slot) => terms.insert(slot, (term, count)),
                }
            }
        }
        Document::from_term_counts(DocId(id), GroupId(topic), terms)
    }

    pub fn documents(&self, ids: Range<u32>) -> Vec<Document> {
        ids.map(|id| self.document(id)).collect()
    }
}

fn distinct_terms(pool: &QueryPool, rng: &mut Rng) -> Vec<TermId> {
    let want = (1 + rng.poisson(MEAN_QUERY_TERMS - 1.0)).min(MAX_QUERY_TERMS);
    let mut terms: Vec<TermId> = Vec::with_capacity(want);
    while terms.len() < want {
        let term = TermId(pool.term(rng));
        if !terms.contains(&term) {
            terms.push(term);
        }
    }
    terms
}

/// `count` pairwise-distinct shaped queries (distinct after
/// normalization, so no two can share a result-cache key). Shapes
/// cycle 6:3:1 by position rather than by draw: the mix is then the
/// same for every seed, and a median that falls between the cheap and
/// the expensive shapes does not move with it. Phrases are runs of two
/// or three consecutive term ids starting at a pool term.
pub fn shaped_queries(pool: &QueryPool, seed: u64, count: usize) -> Vec<Query> {
    let mut rng = Rng::new(sub_seed(seed, stream::SHAPED_LOG));
    let mut seen: HashSet<Query> = HashSet::with_capacity(count);
    let mut queries = Vec::with_capacity(count);
    while queries.len() < count {
        let query = match queries.len() % 10 {
            // Interleaved so that any ten consecutive queries hold the
            // whole mix.
            0 | 2 | 3 | 5 | 7 | 8 => Query::Terms {
                terms: distinct_terms(pool, &mut rng),
                k: K,
            },
            1 | 4 | 6 => Query::And {
                terms: distinct_terms(pool, &mut rng),
                k: K,
            },
            _ => {
                let start = pool.term(&mut rng);
                let len = 2 + rng.below(2) as u32;
                Query::Phrase {
                    terms: (start..start + len).map(TermId).collect(),
                    k: K,
                }
            }
        };
        if seen.insert(query.clone().normalized()) {
            queries.push(query);
        }
    }
    queries
}

/// `count` indices into a pool of `pool_len` whole queries. Every
/// `window` draws, `active` of them are dealt popularity ranks afresh
/// and the window's draws follow Zipf(1.0) over those ranks — the head
/// of the log is most of the workload, but which queries are the head
/// drifts, so a run averages over many heads instead of inheriting the
/// cost of the few its seed happened to pick.
pub fn replay_indices(
    seed: u64,
    pool_len: usize,
    active: usize,
    count: usize,
    window: usize,
) -> Vec<usize> {
    let mut rng = Rng::new(sub_seed(seed, stream::REPLAY));
    let popularity = Zipf::new(active, 1.0);
    let mut by_rank: Vec<usize> = (0..pool_len).collect();
    (0..count)
        .map(|draw| {
            if draw % window == 0 {
                for i in (1..pool_len).rev() {
                    by_rank.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            by_rank[popularity.sample(&mut rng)]
        })
        .collect()
}

/// `count` bag-of-words queries (mean 2.45 terms) over the `head` most
/// popular pool terms — the share path's query log. Repeats allowed.
pub fn bag_queries(pool: &QueryPool, seed: u64, head: usize, count: usize) -> Vec<Vec<TermId>> {
    let mut rng = Rng::new(sub_seed(seed, stream::BAG_LOG));
    let head_pool = QueryPool {
        ranking: pool.ranking[..head].to_vec(),
        popularity: Zipf::new(head, QUERY_EXPONENT),
    };
    (0..count)
        .map(|_| distinct_terms(&head_pool, &mut rng))
        .collect()
}

/// FNV-1a over a stream of words: the operation-stream fingerprint
/// printed by every run (same seed ⇒ same hash).
#[derive(Debug, Clone, Copy)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamHash {
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn query(&mut self, query: &Query) {
        self.word(u64::from(query.shape().as_u8()));
        self.terms(query.terms());
    }

    pub fn terms(&mut self, terms: &[TermId]) {
        self.word(terms.len() as u64);
        for term in terms {
            self.word(u64::from(term.0));
        }
    }

    pub fn document(&mut self, doc: &Document) {
        self.word(u64::from(doc.id.0));
        self.word(u64::from(doc.length));
        for &(term, count) in &doc.terms {
            self.word(u64::from(term.0) << 32 | u64::from(count));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_query::QueryShape;

    fn stream_hash(seed: u64) -> u64 {
        let corpus = Corpus::new(seed);
        let mut hash = StreamHash::default();
        for doc in corpus.documents(0..200) {
            hash.document(&doc);
        }
        for query in shaped_queries(corpus.pool(), seed, 300) {
            hash.query(&query);
        }
        for index in replay_indices(seed, 200, 50, 300, 50) {
            hash.word(index as u64);
        }
        for terms in bag_queries(corpus.pool(), seed, 10_000, 300) {
            hash.terms(&terms);
        }
        hash.finish()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        assert_eq!(stream_hash(7), stream_hash(7));
        assert_ne!(stream_hash(7), stream_hash(8));
    }

    #[test]
    fn documents_are_a_function_of_seed_and_id() {
        let corpus = Corpus::new(3);
        assert_eq!(corpus.document(41), Corpus::new(3).document(41));
        assert_eq!(corpus.documents(40..43)[1], corpus.document(41));
        assert_ne!(corpus.document(41).terms, corpus.document(42).terms);
    }

    #[test]
    fn documents_have_the_odp_shape() {
        let corpus = Corpus::new(11);
        let docs = corpus.documents(0..2_000);
        let mean = docs.iter().map(Document::distinct_terms).sum::<usize>() as f64 / 2_000.0;
        assert!((140.0..190.0).contains(&mean), "{mean} postings/doc");
        assert!(docs.iter().all(|d| d.group.0 == d.id.0 % TOPICS));
        assert!(docs
            .iter()
            .flat_map(|d| &d.terms)
            .all(|&(t, count)| t.0 < VOCABULARY && count >= 1));
    }

    #[test]
    fn shape_mix_is_six_three_one_and_queries_are_distinct() {
        let corpus = Corpus::new(5);
        let queries = shaped_queries(corpus.pool(), 5, 4_000);
        let share = |shape: QueryShape| {
            queries.iter().filter(|q| q.shape() == shape).count() as f64 / 4_000.0
        };
        // Exact: shapes cycle by position.
        assert_eq!(share(QueryShape::Terms), 0.6);
        assert_eq!(share(QueryShape::And), 0.3);
        assert_eq!(share(QueryShape::Phrase), 0.1);
        let keys: HashSet<Vec<u8>> = queries
            .iter()
            .map(|q| q.clone().normalized().cache_key(0))
            .collect();
        assert_eq!(keys.len(), queries.len(), "two queries share a cache key");
        let mean_terms = queries
            .iter()
            .filter(|q| q.shape() != QueryShape::Phrase)
            .map(|q| q.terms().len())
            .sum::<usize>() as f64
            / queries
                .iter()
                .filter(|q| q.shape() != QueryShape::Phrase)
                .count() as f64;
        assert!((mean_terms - MEAN_QUERY_TERMS).abs() < 0.15, "{mean_terms}");
    }

    /// The canonical token stream puts a document's terms in ascending
    /// id order, `count` slots each, so a run of consecutive ids is a
    /// phrase iff every term is present and the inner ones occur once.
    fn phrase_matches(doc: &Document, phrase: &[TermId]) -> bool {
        phrase.iter().enumerate().all(|(i, &term)| {
            let count = doc.term_count(term);
            count >= 1 && (i == 0 || i + 1 == phrase.len() || count == 1)
        })
    }

    #[test]
    fn at_least_seventy_percent_of_phrase_queries_match() {
        let corpus = Corpus::new(9);
        let docs = corpus.documents(0..20_000);
        let phrases: Vec<Query> = shaped_queries(corpus.pool(), 9, 2_000)
            .into_iter()
            .filter(|q| q.shape() == QueryShape::Phrase)
            .collect();
        let matched = phrases
            .iter()
            .filter(|q| docs.iter().any(|d| phrase_matches(d, q.terms())))
            .count();
        // Measured at the smallest corpus any workload uses; larger
        // corpora plant more runs and only raise the rate.
        assert!(
            matched as f64 >= 0.7 * phrases.len() as f64,
            "{matched} of {} phrase queries match",
            phrases.len()
        );
    }

    #[test]
    fn replay_repeats_within_a_window_and_drifts_between_windows() {
        let indices = replay_indices(1, 2_000, 500, 3_200, 50);
        let mut repeats = 0;
        let mut favourites = HashSet::new();
        for window in indices.chunks(50) {
            let mut counts: std::collections::HashMap<usize, usize> = Default::default();
            for &index in window {
                *counts.entry(index).or_default() += 1;
            }
            repeats += window.len() - counts.len();
            favourites.insert(*counts.iter().max_by_key(|&(_, &n)| n).expect("non-empty").0);
        }
        // Zipf(1.0) over 500 gives the ten top ranks 43 % of the draws.
        assert!(
            repeats * 4 > indices.len(),
            "{repeats} repeats in 3200 draws"
        );
        assert!(
            favourites.len() > 32,
            "{} heads over 64 windows",
            favourites.len()
        );
    }

    #[test]
    fn bag_queries_stay_in_the_head() {
        let corpus = Corpus::new(1);
        let head_terms: HashSet<u32> = corpus.pool().ranking[..10_000].iter().copied().collect();
        let bags = bag_queries(corpus.pool(), 1, 10_000, 1_000);
        assert!(bags.iter().flatten().all(|t| head_terms.contains(&t.0)));
        let mean = bags.iter().map(Vec::len).sum::<usize>() as f64 / 1_000.0;
        assert!((mean - MEAN_QUERY_TERMS).abs() < 0.15, "{mean}");
    }

    #[test]
    fn zipf_sampler_follows_its_weights() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = Rng::new(42);
        let mut counts = [0u32; 100];
        for _ in 0..200_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let harmonic: f64 = (1..=100).map(|r| 1.0 / f64::from(r)).sum();
        for rank in [0usize, 1, 9, 99] {
            let expected = 200_000.0 / ((rank + 1) as f64 * harmonic);
            let got = f64::from(counts[rank]);
            assert!(
                (got - expected).abs() < 0.1 * expected + 30.0,
                "rank {rank}"
            );
        }
    }
}
