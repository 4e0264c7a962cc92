//! Section 7.3: network bandwidth of query processing.
//!
//! Paper setup: 2-out-of-3 sharing; the user has access to all 100
//! ODP collections (worst case); ~2,700 elements returned per query
//! term; 64-bit elements ⇒ ~21.5 KB per query term; 2.45 terms/query;
//! top-10 snippets ≈ 2.5 KB; total ≈ 24 KB vs Google 15 KB /
//! Altavista 37 KB / Yahoo 59 KB; shares are incompressible so HTTP
//! compression does not help.

use zerber::{ZerberConfig, ZerberSystem};
use zerber_core::merge::MergeConfig;
use zerber_corpus::{OdpConfig, OdpCorpus, QueryLog, QueryLogConfig};
use zerber_index::{GroupId, UserId};
use zerber_net::{entropy_bits_per_byte, LinkSpec, SizeModel};

use crate::report::Table;
use crate::scenario::Scale;

/// Bandwidth experiment results.
#[derive(Debug)]
pub struct Bandwidth {
    /// Mean posting elements returned per query term.
    pub elements_per_term: f64,
    /// Mean terms per query in the sampled workload.
    pub terms_per_query: f64,
    /// KB per query term under the paper's 8-byte element accounting.
    pub kb_per_term_model: f64,
    /// Block-compression ratio of this corpus's plaintext posting
    /// lists (measured with the `zerber-postings` codec).
    pub plain_compression_ratio: f64,
    /// KB per query term a *baseline* plaintext engine ships after
    /// compressing its postings at that ratio.
    pub kb_per_term_baseline_compressed: f64,
    /// KB per query term one Zerber server ships: 1.5× share elements
    /// that the incompressibility argument says must go out raw.
    pub kb_per_term_zerber_raw: f64,
    /// Fraction of baseline bytes saved by compression on the
    /// server→user link (from the raw-vs-wire traffic accounting).
    pub baseline_compression_savings: f64,
    /// KB per query measured on the wire format (one server), with the
    /// user's session serving every list no server changed from what it
    /// decoded before.
    pub kb_per_query_wire: f64,
    /// Response bytes per share element that crossed the wire (frame,
    /// list headers and unchanged answers included) — what the
    /// paper's model prices at 1.5 × 8 B.
    pub wire_bytes_per_element: f64,
    /// Total top-10 response size (elements + 10 snippets), bytes.
    pub top10_response_bytes: f64,
    /// Queries/second one user can sustain over 55 Mb/s WLAN
    /// (transfer from k servers + decryption).
    pub user_queries_per_sec: f64,
    /// Queries/second one server can sustain over 100 Mb/s LAN.
    pub server_queries_per_sec: f64,
    /// Entropy of the share bytes (bits/byte; 8 = incompressible).
    pub share_entropy: f64,
    /// Reference engine sizes (Google, Altavista, Yahoo) in bytes.
    pub engine_reference: (usize, usize, usize),
}

/// Runs the experiment on a deployment sized for minutes-scale runs.
pub fn run(scale: Scale) -> Bandwidth {
    let (num_docs, vocab, sample_queries) = match scale {
        Scale::Default => (6_000usize, 60_000usize, 150usize),
        Scale::Smoke => (800, 10_000, 40),
    };
    let corpus = OdpCorpus::generate(&OdpConfig {
        num_docs,
        vocabulary_size: vocab,
        num_topics: 100,
        ..OdpConfig::default()
    });
    let stats = corpus.statistics();
    let log = QueryLog::generate(
        &QueryLogConfig {
            num_queries: 5_000,
            distinct_terms: 10_000,
            ..QueryLogConfig::default()
        },
        &stats,
    );

    let config = ZerberConfig::default().with_merge(MergeConfig::dfm(1_024));
    let mut system = ZerberSystem::bootstrap(config, &stats).expect("bootstrap");
    // Worst case (paper): the user has access to all collections.
    let user = UserId(1);
    for topic in 0..corpus.num_topics {
        system.add_membership(user, GroupId(topic));
    }
    system.index_corpus(&corpus.documents).expect("index");
    system.traffic().reset(); // measure the query phase only

    let model = SizeModel::default();
    let mut elements = 0usize;
    let mut fetched = 0usize;
    let mut terms = 0usize;
    let mut queries = 0usize;
    for query in log.queries.iter().take(sample_queries) {
        if query.is_empty() {
            continue;
        }
        let outcome = system.query(user, query, 10).expect("query");
        elements += outcome.elements_received;
        fetched += outcome.elements_fetched;
        terms += query.len();
        queries += 1;
    }
    // elements_received counts shares from k servers; per-term payload
    // is the per-server element count.
    let k = system.scheme().threshold() as f64;
    let elements_per_term = elements as f64 / k / terms.max(1) as f64;
    let terms_per_query = terms as f64 / queries.max(1) as f64;
    let per_term_elements = elements_per_term.round() as usize;
    let kb_per_term_model = model.response_bytes(per_term_elements) as f64 / 1024.0;

    // The compression asymmetry of Section 7.3, with measured numbers:
    // a plaintext baseline ships its postings block-compressed at the
    // corpus's actual ratio; Zerber's share columns go out raw.
    let plain_compression_ratio =
        zerber_postings::CompressedPostingStore::from_index(&corpus.build_index())
            .compression_ratio();
    let baseline_raw = model.response_bytes(per_term_elements);
    let baseline_wire = model.compressed_response_bytes(per_term_elements, plain_compression_ratio);
    let zerber_raw = model.zerber_share_response_bytes(per_term_elements);
    let baseline_meter = zerber_net::TrafficMeter::new();
    baseline_meter.record_compressed(
        zerber_net::NodeId::IndexServer(0),
        zerber_net::NodeId::User(1),
        baseline_raw,
        baseline_wire,
    );
    let baseline_compression_savings = baseline_meter.compression_savings();

    let wire_down = system.traffic().total_matching(|from, to| {
        matches!(from, zerber_net::NodeId::IndexServer(_))
            && matches!(to, zerber_net::NodeId::User(_))
    });
    let kb_per_query_wire = wire_down as f64 / k / queries.max(1) as f64 / 1024.0;
    let wire_bytes_per_element = wire_down as f64 / fetched.max(1) as f64;

    let elements_per_query = elements_per_term * terms_per_query;
    let top10_response_bytes =
        model.topk_response_bytes(elements_per_query.round() as usize, 10) as f64;

    // Throughput model: transfer of the per-query payload from k
    // servers on the user's WLAN + decryption.
    let decrypt_per_ms = super::fig12_response::measure_decrypt_throughput();
    let per_query_bytes = elements_per_query * model.plain_element_bytes as f64;
    let user_ms = LinkSpec::WLAN_55.transfer_ms((per_query_bytes * k) as usize)
        + elements_per_query * k / decrypt_per_ms;
    let server_ms = LinkSpec::LAN_100.transfer_ms(per_query_bytes as usize);

    // Incompressibility: serialize the shares of one response.
    let share_entropy = {
        let view = system.servers()[0].adversary_view();
        let mut bytes = Vec::new();
        for (pl, len) in view.list_lengths() {
            if len > 0 {
                for share in view.raw_list(pl).iter().take(4_000) {
                    bytes.extend_from_slice(&share.share.value().to_le_bytes());
                }
            }
            if bytes.len() > 256_000 {
                break;
            }
        }
        entropy_bits_per_byte(&bytes)
    };

    Bandwidth {
        elements_per_term,
        terms_per_query,
        kb_per_term_model,
        plain_compression_ratio,
        kb_per_term_baseline_compressed: baseline_wire as f64 / 1024.0,
        kb_per_term_zerber_raw: zerber_raw as f64 / 1024.0,
        baseline_compression_savings,
        kb_per_query_wire,
        wire_bytes_per_element,
        top10_response_bytes,
        user_queries_per_sec: 1_000.0 / user_ms.max(1e-9),
        server_queries_per_sec: 1_000.0 / server_ms.max(1e-9),
        share_entropy,
        engine_reference: model.engine_reference_bytes,
    }
}

/// Formats the results next to the paper's.
pub fn render(bw: &Bandwidth) -> String {
    let mut table = Table::new(
        "Section 7.3: network bandwidth (2-out-of-3, user in all 100 groups)",
        &["metric", "measured", "paper"],
    );
    table.row(&[
        "elements / query term".into(),
        format!("{:.0}", bw.elements_per_term),
        "~2700".into(),
    ]);
    table.row(&[
        "terms / query".into(),
        format!("{:.2}", bw.terms_per_query),
        "2.45".into(),
    ]);
    table.row(&[
        "KB / query term (8 B elements)".into(),
        format!("{:.1}", bw.kb_per_term_model),
        "21.5".into(),
    ]);
    table.row(&[
        "KB / query on the wire (per server)".into(),
        format!("{:.1}", bw.kb_per_query_wire),
        "-".into(),
    ]);
    table.row(&[
        "B / share element on the wire".into(),
        format!("{:.1}", bw.wire_bytes_per_element),
        format!("{} (1.5 x 8)", SizeModel::default().zerber_element_bytes()),
    ]);
    table.row(&[
        "KB / term, baseline after compression".into(),
        format!(
            "{:.1} ({:.1}x, {:.0}% saved)",
            bw.kb_per_term_baseline_compressed,
            bw.plain_compression_ratio,
            bw.baseline_compression_savings * 100.0
        ),
        "compresses".into(),
    ]);
    table.row(&[
        "KB / term, Zerber shares (raw, 1.5x)".into(),
        format!("{:.1}", bw.kb_per_term_zerber_raw),
        "incompressible".into(),
    ]);
    table.row(&[
        "top-10 response incl. snippets".into(),
        format!("{:.1} KB", bw.top10_response_bytes / 1024.0),
        "24 KB".into(),
    ]);
    table.row(&[
        "user queries/sec (55 Mb/s WLAN)".into(),
        format!("{:.0}", bw.user_queries_per_sec),
        "35".into(),
    ]);
    table.row(&[
        "server queries/sec (100 Mb/s LAN)".into(),
        format!("{:.0}", bw.server_queries_per_sec),
        "200".into(),
    ]);
    table.row(&[
        "share-byte entropy".into(),
        format!("{:.2} bits/B", bw.share_entropy),
        "incompressible".into(),
    ]);
    let mut out = table.render();
    let (google, altavista, yahoo) = bw.engine_reference;
    out.push_str(&format!(
        "reference top-10 responses (paper's measurements): Google {} KB, Altavista {} KB, Yahoo {} KB\n",
        google / 1024,
        altavista / 1024,
        yahoo / 1024
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_shape_matches_the_paper() {
        let bw = run(Scale::Smoke);
        assert!(bw.elements_per_term > 0.0);
        assert!((bw.terms_per_query - 2.45).abs() < 1.0);
        // Shares are incompressible.
        assert!(bw.share_entropy > 7.5, "entropy {}", bw.share_entropy);
        // The asymmetry: baselines get a real compression discount,
        // Zerber pays the full (1.5x) share payload.
        assert!(bw.plain_compression_ratio > 1.2);
        assert!(bw.kb_per_term_baseline_compressed < bw.kb_per_term_model);
        assert!(bw.kb_per_term_zerber_raw > bw.kb_per_term_model);
        assert!(bw.baseline_compression_savings > 0.0);
        // On the wire an element is its 8-byte y-share plus a delta-
        // coded id: well under the 20 B a row of clear-text ids cost.
        assert!(
            (8.0..14.0).contains(&bw.wire_bytes_per_element),
            "{} B per element",
            bw.wire_bytes_per_element
        );
        // Interactive rates.
        assert!(bw.user_queries_per_sec > 1.0);
        assert!(bw.server_queries_per_sec > bw.user_queries_per_sec * 0.5);
    }
}
