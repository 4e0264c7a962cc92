//! Section 7.2: storage overhead.
//!
//! Paper: "each Zerber index server uses about 50% more space than an
//! ordinary inverted index. Since Zerber replicates the index on n
//! servers, the total index space required is 1.5n times more than for
//! an ordinary inverted index."

use zerber_index::PostingStore;
use zerber_net::SizeModel;
use zerber_postings::CompressedPostingStore;

use crate::report::Table;
use crate::scenario::{OdpScenario, Scale};

/// Storage accounting.
#[derive(Debug)]
pub struct Storage {
    /// Total posting elements in the corpus.
    pub total_postings: usize,
    /// Ordinary centralized index size, bytes.
    pub plain_bytes: usize,
    /// One Zerber server, bytes.
    pub per_server_bytes: usize,
    /// All n servers, bytes.
    pub total_bytes: usize,
    /// Servers.
    pub n: usize,
    /// Overall overhead factor (paper: 1.5 n).
    pub overhead_factor: f64,
    /// Measured footprint of the ordinary index as the live
    /// `InvertedIndex` holds it: `Vec<Posting>` lists, 12 B/posting.
    pub raw_backend_bytes: usize,
    /// Measured footprint of the same index frozen into a
    /// `CompressedPostingStore` — what a baseline engine actually pays
    /// once it adopts block compression (Zerber's share store cannot,
    /// per Section 7.3).
    pub compressed_backend_bytes: usize,
}

/// Runs the accounting over the shared ODP scenario.
pub fn run(scale: Scale) -> Storage {
    let scenario = OdpScenario::shared(scale);
    let total_postings: usize = scenario
        .corpus
        .documents
        .iter()
        .map(zerber_index::Document::distinct_terms)
        .sum();
    let model = SizeModel::default();
    let n = 3;
    // The paper's model arithmetic above; the two measured footprints
    // below.
    let index = scenario.corpus.build_index();
    let raw_backend_bytes = index.posting_bytes();
    let compressed_backend_bytes = CompressedPostingStore::from_index(&index).posting_bytes();
    Storage {
        total_postings,
        plain_bytes: model.plain_index_bytes(total_postings),
        per_server_bytes: model.zerber_server_bytes(total_postings),
        total_bytes: model.zerber_total_bytes(total_postings, n),
        n,
        overhead_factor: model.storage_overhead_factor(n),
        raw_backend_bytes,
        compressed_backend_bytes,
    }
}

/// Formats the accounting.
pub fn render(storage: &Storage) -> String {
    let mb = |bytes: usize| format!("{:.1} MB", bytes as f64 / (1024.0 * 1024.0));
    let mut table = Table::new(
        "Section 7.2: storage overhead (n = 3 index servers)",
        &["index", "size"],
    );
    table.row(&[
        "posting elements".into(),
        storage.total_postings.to_string(),
    ]);
    table.row(&["ordinary inverted index".into(), mb(storage.plain_bytes)]);
    table.row(&[
        "one Zerber server (1.5x)".into(),
        mb(storage.per_server_bytes),
    ]);
    table.row(&[
        format!("all {} Zerber servers", storage.n),
        mb(storage.total_bytes),
    ]);
    table.row(&[
        "measured live index (12 B/posting)".into(),
        mb(storage.raw_backend_bytes),
    ]);
    table.row(&[
        "measured compressed store".into(),
        mb(storage.compressed_backend_bytes),
    ]);
    let mut out = table.render();
    out.push_str(&format!(
        "overhead factor: {:.1}x (paper: 1.5 n = {:.1}x)\n",
        storage.overhead_factor,
        1.5 * storage.n as f64
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_exactly_one_point_five_n() {
        let storage = run(Scale::Smoke);
        assert!(storage.total_postings > 0);
        assert!((storage.overhead_factor - 4.5).abs() < 1e-12);
        assert_eq!(storage.per_server_bytes, storage.plain_bytes * 3 / 2);
        assert_eq!(storage.total_bytes, storage.per_server_bytes * 3);
    }

    #[test]
    fn backend_choice_changes_the_measured_footprint() {
        let storage = run(Scale::Smoke);
        assert!(storage.raw_backend_bytes > 0);
        assert!(
            storage.compressed_backend_bytes * 2 < storage.raw_backend_bytes,
            "compressed {} vs raw {}",
            storage.compressed_backend_bytes,
            storage.raw_backend_bytes
        );
    }
}
