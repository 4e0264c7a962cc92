//! A default-config deployment serves from segment stores under
//! per-peer scratch directories, and every one of them is gone once the
//! deployment is — whatever state it was dropped in.
//!
//! One test function on purpose: the check counts this process's
//! `zerber-segment-ephemeral-<pid>-*` entries under the temp dir, so no
//! other test may launch a deployment beside it.

use zerber::runtime::{local_topk, ShardedSearch};
use zerber::ZerberConfig;
use zerber_index::{DocId, Document, GroupId, TermId};

fn corpus() -> Vec<Document> {
    (0..60u32)
        .map(|d| {
            Document::from_term_counts(
                DocId(d),
                GroupId(0),
                vec![(TermId(d % 7), 1 + d % 3), (TermId(9), 1)],
            )
        })
        .collect()
}

/// This process's ephemeral peer directories currently on disk.
fn ephemeral_dirs() -> usize {
    let prefix = format!("zerber-segment-ephemeral-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir lists")
        .filter_map(Result::ok)
        .filter(|entry| entry.file_name().to_string_lossy().starts_with(&prefix))
        .count()
}

/// Waits for the count to reach `want`: a killed peer's thread drops
/// its service (and with it the directory) on its own schedule.
fn settles_to(want: usize) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while ephemeral_dirs() != want && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    ephemeral_dirs() == want
}

#[test]
fn a_default_deployment_leaves_no_directory_behind() {
    let docs = corpus();
    let config = ZerberConfig::default().with_peers(3).with_replication(2);
    let query = [TermId(3), TermId(9)];
    assert_eq!(ephemeral_dirs(), 0);

    // Dropped while serving.
    let search = ShardedSearch::launch(&config, &docs).unwrap();
    assert_eq!(
        search.query(&query, 5).unwrap().ranked,
        local_topk(&docs, &query, 5)
    );
    assert_eq!(ephemeral_dirs(), 3, "one scratch directory per peer");
    drop(search);
    assert_eq!(ephemeral_dirs(), 0, "dropped while serving");

    // A killed peer takes its directory with it; its replacement gets a
    // fresh one, is rebuilt into it, and serves the same bits.
    let search = ShardedSearch::launch(&config, &docs).unwrap();
    search.kill_peer(1);
    search
        .revive_peer(1)
        .expect("a live replica of every shard");
    assert!(settles_to(3), "the dead peer's directory is gone");
    assert_eq!(
        search.query(&query, 5).unwrap().ranked,
        local_topk(&docs, &query, 5)
    );
    drop(search);
    assert_eq!(ephemeral_dirs(), 0, "dropped after kill + revive");

    // Dropped mid-rebuild: with peer 2 dead as well, shard 1 has no live
    // source, so peer 1's repair stops with the peer still rebuilding.
    let search = ShardedSearch::launch(&config, &docs).unwrap();
    search.kill_peer(1);
    search.kill_peer(2);
    assert!(search.revive_peer(1).is_err());
    drop(search);
    assert_eq!(ephemeral_dirs(), 0, "dropped mid-rebuild");
}
