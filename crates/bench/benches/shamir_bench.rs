//! Criterion micro-benchmarks for the secret-sharing layer
//! (Section 5.1/7.3: share creation and the two decryption paths), for
//! the client pass that consumes the shares (Algorithm 2) and for the
//! frame that carries them.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zerber_client::ranking::rank;
use zerber_client::{BatchPolicy, DocumentOwner, QueryClient, ServerHandle};
use zerber_core::{ElementCodec, MappingTable, PlId, PostingElement};
use zerber_field::Fp;
use zerber_index::{DocId, Document, GroupId, TermId, UserId};
use zerber_net::{AuthToken, Message};
use zerber_server::{IndexServer, TokenAuth};
use zerber_shamir::{BatchReconstructor, ServerId, SharingScheme};

fn bench_split(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let scheme = SharingScheme::random(2, 3, &mut rng).unwrap();
    c.bench_function("shamir/split_one_element_2of3", |b| {
        b.iter(|| black_box(scheme.split(black_box(Fp::new(123_456_789)), &mut rng)))
    });

    let secrets: Vec<Fp> = (0..5_000u64).map(Fp::new).collect();
    c.bench_function("shamir/split_5000_element_document", |b| {
        b.iter(|| black_box(scheme.split_batch(black_box(&secrets), &mut rng)))
    });
}

fn bench_reconstruct(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let scheme = SharingScheme::random(2, 3, &mut rng).unwrap();
    let shares = scheme.split(Fp::new(42), &mut rng);

    c.bench_function("shamir/reconstruct_lagrange_k2", |b| {
        b.iter(|| black_box(scheme.reconstruct(black_box(&shares)).unwrap()))
    });
    c.bench_function("shamir/reconstruct_gaussian_k2", |b| {
        b.iter(|| black_box(scheme.reconstruct_gaussian(black_box(&shares)).unwrap()))
    });

    // The batch fast path behind the paper's "700 elements per msec".
    let secrets: Vec<Fp> = (0..10_000u64).map(Fp::new).collect();
    let rows = scheme.split_batch(&secrets, &mut rng);
    let reconstructor = BatchReconstructor::new(&scheme, &[ServerId(0), ServerId(1)]).unwrap();
    let selected = vec![rows[0].clone(), rows[1].clone()];
    c.bench_function("shamir/batch_reconstruct_10k_elements", |b| {
        b.iter(|| black_box(reconstructor.reconstruct_all(black_box(&selected))))
    });
}

fn bench_k_scaling(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("shamir/reconstruct_vs_k");
    for k in [2usize, 4, 8] {
        let scheme = SharingScheme::random(k, k, &mut rng).unwrap();
        let shares = scheme.split(Fp::new(7), &mut rng);
        group.bench_function(format!("lagrange_k{k}"), |b| {
            b.iter(|| black_box(scheme.reconstruct(black_box(&shares)).unwrap()))
        });
        group.bench_function(format!("gaussian_k{k}"), |b| {
            b.iter(|| black_box(scheme.reconstruct_gaussian(black_box(&shares)).unwrap()))
        });
    }
    group.finish();
}

/// Three direct servers holding 4 000 documents x 5 of 40 terms over 4
/// merged lists — ~5 000 elements per list, a tenth of them any one
/// term's — and a two-term query that asks for two of the lists.
struct SharePath {
    servers: Vec<Arc<IndexServer>>,
    token: AuthToken,
    table: Arc<MappingTable>,
    codec: ElementCodec,
    terms: [TermId; 2],
}

fn share_path() -> SharePath {
    let mut rng = StdRng::seed_from_u64(4);
    let scheme = SharingScheme::random(2, 3, &mut rng).unwrap();
    let auth = Arc::new(TokenAuth::new());
    let reader = UserId(1);
    let servers: Vec<Arc<IndexServer>> = scheme
        .coordinates()
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let server = IndexServer::new(i as u32, x, auth.clone());
            server.add_user_to_group(reader, GroupId(0));
            Arc::new(server)
        })
        .collect();
    let token = auth.issue(reader);
    let table = Arc::new(MappingTable::hash_only(4, 4));
    let codec = ElementCodec::default();
    let mut owner = DocumentOwner::new(
        0,
        token,
        codec,
        scheme,
        table.clone(),
        BatchPolicy::batched(4_096),
    );
    let handles = handles(&servers);
    for d in 0..4_000u32 {
        let terms = (0..5).map(|i| (TermId((d * 7 + i * 9) % 40), 1 + (d + i) % 4));
        let doc = Document::from_term_counts(DocId(d), GroupId(0), terms.collect());
        owner.index_document(&doc, &handles, &mut rng).unwrap();
    }
    owner.flush(&handles).unwrap();

    let other = (1..40)
        .map(TermId)
        .find(|&t| table.lookup(t) != table.lookup(TermId(0)))
        .expect("40 terms over 4 lists");
    SharePath {
        servers,
        token,
        table,
        codec,
        terms: [TermId(0), other],
    }
}

fn handles(servers: &[Arc<IndexServer>]) -> Vec<Arc<dyn ServerHandle>> {
    servers
        .iter()
        .map(|server| server.clone() as Arc<dyn ServerHandle>)
        .collect()
}

/// `QueryClient::execute` over direct server handles: fetch (no
/// transport), recombination, decryption, filtering and ranking of a
/// two-list query with a few thousand elements per list.
fn bench_client_execute(c: &mut Criterion) {
    let world = share_path();
    let servers = handles(&world.servers);
    let client = QueryClient::new(world.token, world.codec, world.table, 2);
    let run = || {
        client
            .execute(black_box(&world.terms), &servers, 10)
            .unwrap()
    };
    // The counts repeat exactly on every iteration, so time over the
    // shares fetched is the share path's cost per share.
    let outcome = run();
    let (shares, ranked) = (outcome.elements_received, outcome.matching_elements.len());
    let mut iterations = 0u32;
    let started = Instant::now();
    c.bench_function("client/execute_2of3", |b| {
        b.iter(|| {
            iterations += 1;
            black_box(run().ranked.len())
        })
    });
    let ns_per_share = started.elapsed().as_nanos() as f64 / f64::from(iterations) / shares as f64;
    println!(
        "client/execute_2of3: {shares} shares recombined, {ranked} elements ranked, \
         {ns_per_share:.1} ns/share"
    );
}

/// `rank` over what a `confidential` benchmark query decrypts: three
/// query terms, each held by about 22 % of 20 000 documents — about
/// 13 k elements over about 10 k documents — arriving list by list.
fn bench_client_rank(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let codec = ElementCodec::default();
    let terms = [TermId(3), TermId(17), TermId(40)];
    let mut elements = Vec::new();
    for &term in &terms {
        for doc in 0..20_000u32 {
            if rng.random_range(0..100) < 22 {
                elements.push(PostingElement {
                    doc: DocId(doc),
                    term,
                    tf_quantized: rng.random_range(1..4_096),
                });
            }
        }
    }
    let (_, stats) = rank(&elements, &codec, &terms, 10);
    let mut iterations = 0u32;
    let started = Instant::now();
    c.bench_function("client/rank", |b| {
        b.iter(|| {
            iterations += 1;
            black_box(rank(black_box(&elements), &codec, &terms, 10))
        })
    });
    let ns_per_element =
        started.elapsed().as_nanos() as f64 / f64::from(iterations) / elements.len() as f64;
    println!(
        "client/rank: {} elements over {} documents, {ns_per_element:.1} ns/element",
        elements.len(),
        stats.accessible_docs()
    );
}

/// One server's answer to that query across the wire: encode and
/// decode of the `QueryResponse` frame, and what a share costs in it.
fn bench_share_response(c: &mut Criterion) {
    let world = share_path();
    let mut pl_ids: Vec<PlId> = world.terms.iter().map(|&t| world.table.lookup(t)).collect();
    pl_ids.sort_unstable();
    let lists = world.servers[0]
        .get_posting_lists(world.token, &pl_ids)
        .unwrap();
    let shares: usize = lists.iter().map(|list| list.len()).sum();
    let response = Message::QueryResponse { lists };
    let bytes = response.encode().len();
    let mut iterations = 0u32;
    let started = Instant::now();
    c.bench_function("net/share_response", |b| {
        b.iter(|| {
            iterations += 1;
            let encoded = black_box(&response).encode();
            black_box(Message::decode(&encoded).unwrap())
        })
    });
    let ns_per_share = started.elapsed().as_nanos() as f64 / f64::from(iterations) / shares as f64;
    println!(
        "net/share_response: {shares} shares in {bytes} B, {:.2} B/share on the wire \
         (8 B of it the y-share), {ns_per_share:.1} ns/share to encode and decode",
        bytes as f64 / shares as f64
    );
}

criterion_group!(
    benches,
    bench_split,
    bench_reconstruct,
    bench_k_scaling,
    bench_client_execute,
    bench_client_rank,
    bench_share_response
);
criterion_main!(benches);
