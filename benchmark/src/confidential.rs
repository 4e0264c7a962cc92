//! `confidential`: the paper's own path. A `ZerberSystem` with 2-of-3
//! sharing and DFM merging learned from the first 30 % of the corpus
//! indexes every document through batching owner daemons, then one
//! user who belongs to all 100 groups (the paper's worst case: nothing
//! is filtered by the ACL) asks bag-of-words queries.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use zerber::{ZerberConfig, ZerberSystem};
use zerber_client::{BatchPolicy, DocumentOwner, QueryClient, ServerHandle};
use zerber_core::merge::{MergeConfig, MergePlan};
use zerber_core::{ElementCodec, PlId, PostingElement};
use zerber_field::{lagrange_weights_at_zero, Fp};
use zerber_index::{CentralIndex, CorpusStats, Document, GroupId, RankedDoc, TermId, UserId};
use zerber_net::{Message, NodeId, StoredShare};
use zerber_server::{IndexServer, TokenAuth};
use zerber_shamir::{BatchReconstructor, ServerId, SharingScheme};

use crate::harness::{repeated_setup, RunConfig, SetupTiming};
use crate::layers::mean_ns;
use crate::metrics::{peak_rss_mb, percentile, sorted, Report};
use crate::trace::Tracer;
use crate::workload::{bag_queries, Corpus, StreamHash, K, TOPICS, VOCABULARY};

/// The reader: a member of every group.
const READER: UserId = UserId(1);
/// Owner-side batching, pinned: with the default
/// `BatchPolicy::immediate()` every element is its own RPC to every
/// server and indexing runs two orders of magnitude slower (README).
const OWNER_BATCH: usize = 4_096;
/// Queries whose matching-document sets the gate compares.
const GATE_SAMPLE: usize = 100;

struct Prepared {
    system: ZerberSystem,
    docs: Vec<Document>,
    queries: Vec<Vec<TermId>>,
    stats: CorpusStats,
    merge: MergeConfig,
}

/// Document frequencies over the first 30 % of the corpus — what the
/// merging heuristic is allowed to learn from (paper §7.5).
fn learned_statistics(docs: &[Document]) -> CorpusStats {
    let mut frequencies = vec![0u64; VOCABULARY as usize];
    for doc in &docs[..docs.len() * 3 / 10] {
        for &(term, _) in &doc.terms {
            frequencies[term.0 as usize] += 1;
        }
    }
    CorpusStats::from_document_frequencies(frequencies)
}

fn result_set(ranked: &[RankedDoc]) -> BTreeSet<u32> {
    ranked.iter().map(|r| r.doc.0).collect()
}

pub fn run(config: &RunConfig, report: &mut Report, tracer: &mut Option<Tracer>) {
    let doc_count: u32 = config.pick(20_000, 600);
    let merged_lists: u32 = config.pick(1_024, 64);
    let warmup = config.pick(50, 5);
    let query_count = config.ops(240, 80);
    let head = config.pick(10_000, 2_000);

    let prepared = repeated_setup(config, report, |report| {
        let corpus = Corpus::new(config.seed);
        let docs = corpus.documents(0..doc_count);
        let queries = bag_queries(corpus.pool(), config.seed, head, warmup + query_count);
        let stats = learned_statistics(&docs);
        let merge = MergeConfig::dfm(merged_lists);
        let system_config = ZerberConfig::default()
            .with_merge(merge)
            .with_batch(BatchPolicy::batched(OWNER_BATCH))
            .with_seed(config.seed);
        let mut system = report.op("setup", ZerberSystem::bootstrap(system_config, &stats))?;
        for group in 0..TOPICS {
            system.add_membership(READER, GroupId(group));
        }
        let started = Instant::now();
        report.op("setup", system.index_corpus(&docs))?;
        let load_seconds = started.elapsed().as_secs_f64();
        for terms in &queries[..warmup] {
            report.op("setup", system.query(READER, terms, K))?;
        }
        let timing = SetupTiming {
            load_docs: docs.len(),
            load_seconds,
        };
        Some((
            Prepared {
                system,
                docs,
                queries,
                stats,
                merge,
            },
            timing,
        ))
    });
    let Some(prepared) = prepared else {
        return;
    };
    let system = &prepared.system;
    let queries = &prepared.queries[warmup..];

    let mut hash = StreamHash::default();
    prepared.docs.iter().for_each(|doc| hash.document(doc));
    queries.iter().for_each(|terms| hash.terms(terms));
    report.note(format!("operation stream hash {:016x}", hash.finish()));
    report.note(format!(
        "{doc_count} docs ({} elements/server) indexed with 2-of-3 sharing, DFM M={merged_lists}, \
         owner policy batched({OWNER_BATCH}); closed loop, 1 client in all {TOPICS} groups; {} queries",
        system.elements_per_server(),
        queries.len()
    ));

    // ── Measured phase ─────────────────────────────────────────────
    report.mark("measured phase starts");
    let reader = NodeId::User(READER.0);
    let reader_bytes = || system.traffic().sent_by(reader) + system.traffic().received_by(reader);
    let bytes_before = reader_bytes();
    let mut latency_ms = Vec::with_capacity(queries.len());
    let (mut received, mut discarded, mut matched) = (0usize, 0usize, 0usize);
    let phase_started = Instant::now();
    for (i, terms) in queries.iter().enumerate() {
        let started = Instant::now();
        let outcome = system.query(READER, terms, K);
        let ended = Instant::now();
        if let Some(tracer) = tracer {
            tracer.span("ZerberSystem::query", i as u64, started, ended);
        }
        let Some(outcome) = report.op("measure", outcome) else {
            continue;
        };
        latency_ms.push(ended.duration_since(started).as_secs_f64() * 1e3);
        received += outcome.elements_received;
        discarded += outcome.false_positives;
        matched += outcome.matching_elements.len();
    }
    let wall = phase_started.elapsed().as_secs_f64();
    let wire_bytes = reader_bytes() - bytes_before;
    let rss = peak_rss_mb();
    report.mark("measured phase ends");

    let asked = latency_ms.len().max(1) as f64;
    let latency = sorted(latency_ms);
    report.set("op_per_s", asked / wall);
    report.set_op_latency(&latency);
    report.set("peak_rss_mb", rss);
    report.set("wire_bytes_per_op", wire_bytes as f64 / asked);
    report.note(format!(
        "measured {} queries in {wall:.3} s; {:.0} shares fetched/query",
        latency.len(),
        received as f64 / asked
    ));

    // ── Correctness gate (untimed): every document with a decrypted
    // element matching the query, against every document the ideal
    // trusted index returns. Sets, not orders: tf quantization may
    // reorder near-ties. (The matching elements do not depend on the
    // result budget, and ranking all of them client-side — a budget of
    // `usize::MAX` — is quadratic in their number.) ─────────────────
    let mut central = CentralIndex::new();
    for group in 0..TOPICS {
        central.add_user_to_group(READER, GroupId(group));
    }
    central.insert_batch(&prepared.docs);
    let stride = (queries.len() / GATE_SAMPLE).max(1);
    let (mut checked, mut mismatched) = (0, 0);
    for terms in queries.iter().step_by(stride).take(GATE_SAMPLE) {
        let Some(outcome) = report.op("gate", system.query(READER, terms, K)) else {
            continue;
        };
        checked += 1;
        let matched: BTreeSet<u32> = outcome.matching_elements.iter().map(|e| e.doc.0).collect();
        if matched != result_set(&central.search(READER, terms, usize::MAX)) {
            mismatched += 1;
            if mismatched == 1 {
                report.note(format!("gate: {terms:?} matched a different document set"));
            }
        }
    }
    report.note(format!(
        "gate: {checked} queries compared with CentralIndex::search, {mismatched} mismatched"
    ));
    report.gate_passed = checked > 0 && mismatched == 0;
    drop(central);
    report.mark("gate ends");

    let Some(tracer) = tracer else {
        return;
    };

    // ── Per-layer rows (traced run only) ───────────────────────────
    report.set(
        "obs.tracing_overhead_pct",
        100.0 * tracer.overhead().as_secs_f64() / wall,
    );
    report.set("core.elements_received_per_query", received as f64 / asked);
    report.set(
        "core.false_positive_pct",
        100.0 * discarded as f64 / (discarded + matched).max(1) as f64,
    );

    let mut rng = StdRng::seed_from_u64(config.seed);
    let started = Instant::now();
    let plan = MergePlan::build(prepared.merge, &prepared.stats, &mut rng);
    report.set(
        "core.mergeplan_build_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    report.op("layers", plan);

    // `field`/`shamir`/`core`: the elements of a slice of the corpus,
    // encoded, split per document as the owner does, and recombined
    // from the first two servers' rows.
    let codec = ElementCodec::default();
    let scheme: SharingScheme = system.scheme().clone();
    let slice = &prepared.docs[..prepared.docs.len().min(1_200)];
    let elements: Vec<PostingElement> = slice
        .iter()
        .flat_map(|doc| {
            doc.terms.iter().map(move |&(term, count)| PostingElement {
                doc: doc.id,
                term,
                tf_quantized: codec.quantize_tf(f64::from(count) / f64::from(doc.length.max(1))),
            })
        })
        .collect();
    let started = Instant::now();
    let secrets: Vec<Fp> = elements
        .iter()
        .map(|&e| codec.encode(e).expect("ids fit the default codec"))
        .collect();
    report.set(
        "core.codec_encode_ns",
        started.elapsed().as_nanos() as f64 / elements.len() as f64,
    );
    let started = Instant::now();
    for &secret in &secrets {
        std::hint::black_box(codec.decode(std::hint::black_box(secret)).is_ok());
    }
    report.set(
        "core.codec_decode_ns",
        started.elapsed().as_nanos() as f64 / secrets.len() as f64,
    );
    let started = Instant::now();
    let mut offset = 0;
    let mut rows: Vec<Vec<Fp>> = vec![Vec::with_capacity(secrets.len()); scheme.server_count()];
    for doc in slice {
        let split = scheme.split_batch(&secrets[offset..offset + doc.terms.len()], &mut rng);
        for (row, shares) in rows.iter_mut().zip(split) {
            row.extend(shares);
        }
        offset += doc.terms.len();
    }
    report.set(
        "shamir.split_melements_per_s",
        secrets.len() as f64 / started.elapsed().as_secs_f64() / 1e6,
    );
    let threshold = scheme.threshold();
    let reconstructor = BatchReconstructor::new(&scheme, &[ServerId(0), ServerId(1)]);
    if let Some(reconstructor) = report.op("layers", reconstructor) {
        let started = Instant::now();
        let recombined = reconstructor.reconstruct_all(&rows[..threshold]);
        report.set(
            "shamir.reconstruct_melements_per_s",
            recombined.len() as f64 / started.elapsed().as_secs_f64() / 1e6,
        );
        if recombined != secrets {
            report.gate_passed = false;
            report.note("layers: recombined shares differ from the secrets".to_owned());
        }
    }
    let coordinates = &scheme.coordinates()[..threshold];
    report.set(
        "field.lagrange_weights_ns",
        mean_ns(20_000, || lagrange_weights_at_zero(coordinates)),
    );

    // `client`/`server`: the same corpus and queries over direct
    // handles — three servers the benchmark owns, no transport, no
    // peer threads. What the end-to-end median has on top of the
    // direct one is the share path's transport.
    let auth = Arc::new(TokenAuth::new());
    let servers: Vec<Arc<IndexServer>> = scheme
        .coordinates()
        .iter()
        .enumerate()
        .map(|(i, &x)| Arc::new(IndexServer::new(i as u32, x, auth.clone())))
        .collect();
    let spare = IndexServer::new(3, Fp::new(0x5EED), auth.clone());
    for server in servers.iter().map(Arc::as_ref).chain([&spare]) {
        for group in 0..TOPICS {
            server.add_user_to_group(READER, GroupId(group));
        }
    }
    let token = auth.issue(READER);
    let handles: Vec<Arc<dyn ServerHandle>> = servers
        .iter()
        .map(|s| Arc::clone(s) as Arc<dyn ServerHandle>)
        .collect();
    let table = Arc::new(system.table().clone());
    let mut owner = DocumentOwner::new(
        0,
        token,
        codec,
        scheme.clone(),
        Arc::clone(&table),
        BatchPolicy::batched(OWNER_BATCH),
    );
    let started = Instant::now();
    let mut indexed = 0usize;
    for doc in &prepared.docs {
        if report
            .op("layers", owner.index_document(doc, &handles, &mut rng))
            .is_some()
        {
            indexed += 1;
        }
    }
    report.op("layers", owner.flush(&handles));
    report.set(
        "client.owner_index_docs_per_s",
        indexed as f64 / started.elapsed().as_secs_f64(),
    );

    let client = QueryClient::new(token, codec, Arc::clone(&table), threshold);
    let mut direct_ms = Vec::new();
    let mut lookup_us = Vec::new();
    let mut sample_lists = Vec::new();
    for terms in queries.iter().take(500) {
        let started = Instant::now();
        let outcome = client.execute(terms, &handles, K);
        let elapsed = started.elapsed();
        if report.op("layers", outcome).is_some() {
            direct_ms.push(elapsed.as_secs_f64() * 1e3);
        }
        let mut lists: Vec<PlId> = terms.iter().map(|&t| table.lookup(t)).collect();
        lists.sort_unstable();
        lists.dedup();
        let started = Instant::now();
        let fetched = servers[0].get_posting_lists(token, &lists);
        let elapsed = started.elapsed();
        if let Some(fetched) = report.op("layers", fetched) {
            lookup_us.push(elapsed.as_secs_f64() * 1e6);
            sample_lists = fetched;
        }
    }
    let direct_p50 = percentile(&sorted(direct_ms), 0.5);
    report.set("client.query_execute_ms_p50", direct_p50);
    report.set("server.lookup_us_p50", percentile(&sorted(lookup_us), 0.5));
    report.set(
        "runtime.share_transport_ms_p50",
        (percentile(&latency, 0.5) - direct_p50).max(0.0),
    );

    let response = Message::QueryResponse {
        lists: sample_lists,
    };
    let bytes = response.encode();
    report.set(
        "net.share_response_decode_us",
        mean_ns(50, || Message::decode(&bytes)) / 1e3,
    );

    let entries: Vec<(PlId, StoredShare)> = elements
        .iter()
        .zip(&rows[0])
        .enumerate()
        .map(|(i, (element, &share))| {
            (
                table.lookup(element.term),
                StoredShare {
                    element: zerber_core::ElementId(i as u64),
                    group: GroupId(element.doc.0 % TOPICS),
                    share,
                },
            )
        })
        .collect();
    let started = Instant::now();
    for batch in entries.chunks(OWNER_BATCH) {
        report.op("layers", spare.insert_batch(token, batch));
    }
    report.set(
        "server.insert_batch_melements_per_s",
        entries.len() as f64 / started.elapsed().as_secs_f64() / 1e6,
    );
}
