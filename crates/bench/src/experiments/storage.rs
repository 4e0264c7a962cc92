//! Section 7.2: storage overhead.
//!
//! Paper: "each Zerber index server uses about 50% more space than an
//! ordinary inverted index. Since Zerber replicates the index on n
//! servers, the total index space required is 1.5n times more than for
//! an ordinary inverted index."

use zerber::{ZerberConfig, ZerberSystem};
use zerber_core::merge::MergeConfig;
use zerber_core::PlId;
use zerber_index::{GroupId, PostingStore, UserId};
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
    /// Measured bytes per share element in one index server's store
    /// right after a load: every row still in its list's unsettled
    /// tail, a padded `StoredShare` each.
    pub share_store_bytes_loaded: f64,
    /// The same once every list has been read: `(list, group)` runs of
    /// an id column and a y-share column.
    pub share_store_bytes_read: f64,
}

/// Loads a slice of the corpus into a 2-of-3 deployment through a
/// batching owner and measures server 0's store before and after a
/// reader in every group has fetched every list.
fn measured_share_store(scenario: &OdpScenario) -> (f64, f64) {
    let docs = &scenario.corpus.documents[..scenario.corpus.documents.len().min(2_000)];
    let config = ZerberConfig::default().with_merge(MergeConfig::dfm(256));
    let mut system = ZerberSystem::bootstrap(config, &scenario.stats).expect("bootstrap");
    let reader = UserId(1);
    for topic in 0..scenario.corpus.num_topics {
        system.add_membership(reader, GroupId(topic));
    }
    system.index_corpus(docs).expect("index");
    let server = &system.servers()[0];
    let per_element = || server.stored_bytes() as f64 / server.total_elements().max(1) as f64;
    let loaded = per_element();
    let lists: Vec<PlId> = (0..system.table().list_count()).map(PlId).collect();
    server
        .get_posting_lists(system.session(reader), &lists)
        .expect("reader is authenticated");
    (loaded, per_element())
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
    let (share_store_bytes_loaded, share_store_bytes_read) = measured_share_store(scenario);
    Storage {
        total_postings,
        plain_bytes: model.plain_index_bytes(total_postings),
        per_server_bytes: model.zerber_server_bytes(total_postings),
        total_bytes: model.zerber_total_bytes(total_postings, n),
        n,
        overhead_factor: model.storage_overhead_factor(n),
        raw_backend_bytes,
        compressed_backend_bytes,
        share_store_bytes_loaded,
        share_store_bytes_read,
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
    let model = SizeModel::default().zerber_element_bytes();
    table.row(&[
        "measured share store, as loaded".into(),
        format!(
            "{:.1} B/element (model: {model})",
            storage.share_store_bytes_loaded
        ),
    ]);
    table.row(&[
        "measured share store, once read".into(),
        format!(
            "{:.1} B/element (model: {model})",
            storage.share_store_bytes_read
        ),
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
    fn a_stored_share_costs_a_row_until_read_and_two_columns_after() {
        let storage = run(Scale::Smoke);
        assert_eq!(storage.share_store_bytes_loaded, 24.0);
        // 16 B of columns plus a group id per run.
        assert!(
            (16.0..17.0).contains(&storage.share_store_bytes_read),
            "{} B/element",
            storage.share_store_bytes_read
        );
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
