//! What every workload shares: the run configuration, scratch
//! directories that clean up after themselves, and the repeated,
//! timed set-up.

use std::path::{Path, PathBuf};
use std::time::Instant;

use zerber::{PostingBackend, SegmentPolicy, ShardedSearch, ZerberConfig};

use crate::metrics::{median, Report};

/// Shard peers of every `ShardedSearch` deployment (the box has two
/// cores; `nproc` is printed with every run).
pub const PEERS: usize = 2;

/// How often a run sets up. `setup_s` and `load_docs_per_s` are the
/// medians over the repetitions; the last one is measured on.
pub const SETUP_REPETITIONS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Scales the fixed operation lists (see `ops`).
    pub seconds: u64,
    /// Test scale: tiny corpora and operation lists.
    pub quick: bool,
    /// Per-layer run: spans recorded, layer measurements taken.
    pub traced: bool,
}

impl RunConfig {
    /// Length of a measured operation list: `per_second` is the rate
    /// the workload sustained on the reference box, so the list takes
    /// about `--seconds` there. The count — not the time — is fixed,
    /// so two runs with one seed do identical work.
    pub fn ops(&self, per_second: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            per_second * self.seconds as usize
        }
    }

    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// The benchmark's own directory: every file a run writes lives under
/// its `out/`.
pub fn benchmark_dir() -> PathBuf {
    // `cargo run` exports the manifest directory of the checkout it
    // runs in; the compile-time value covers a bare binary.
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Points the system temp dir — and so `zerber_segment::scratch_dir` —
/// into `out/tmp`, so segment directories stay inside the checkout.
/// Call once, before any thread starts.
pub fn confine_scratch() -> std::io::Result<()> {
    let tmp = benchmark_dir().join("out").join("tmp");
    std::fs::create_dir_all(&tmp)?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(())
}

/// A `zerber_segment::scratch_dir` removed on drop — on success, on a
/// failed gate, and when a panic unwinds.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        Self(zerber_segment::scratch_dir(tag))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The flush policy of every segmented store in the benchmark, stated
/// in each run's listing.
pub fn flush_policy() -> SegmentPolicy {
    SegmentPolicy::default()
}

pub fn flush_policy_note() -> String {
    let policy = flush_policy();
    format!(
        "flush policy: flush_postings={} max_segments={} background_compaction={} sync_wal={}",
        policy.flush_postings, policy.max_segments, policy.background, policy.sync_wal
    )
}

/// An empty 2-peer segmented deployment over its own scratch
/// directory. Field order matters: the deployment (peer threads,
/// stores, compactors) is torn down before its directory is removed.
pub struct Deployment {
    pub search: Option<ShardedSearch>,
    pub dir: ScratchDir,
}

impl Deployment {
    pub fn launch(tag: &str) -> Result<Self, zerber::ConfigError> {
        let dir = ScratchDir::new(tag);
        let config =
            ZerberConfig::default()
                .with_peers(PEERS)
                .with_postings(PostingBackend::Segmented {
                    dir: dir.path().to_path_buf(),
                    compaction: flush_policy(),
                });
        let search = ShardedSearch::launch(&config, &[])?;
        Ok(Self {
            search: Some(search),
            dir,
        })
    }

    pub fn search(&self) -> &ShardedSearch {
        self.search.as_ref().expect("deployment is running")
    }

    /// Stops the peers and closes the stores, keeping the directory —
    /// the state a crash would leave, ready to be reopened.
    pub fn shut_down(&mut self) {
        self.search = None;
    }

    /// The `peer-*-shard-*` store directories, sorted.
    pub fn shard_dirs(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(self.dir.path())?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| {
                path.file_name()
                    .is_some_and(|name| name.to_string_lossy().starts_with("peer-"))
            })
            .collect();
        dirs.sort();
        Ok(dirs)
    }
}

/// What one set-up produced besides its result: how long the whole of
/// it took and the rate of the load call inside it.
pub struct SetupTiming {
    pub load_docs: usize,
    pub load_seconds: f64,
}

/// Runs `setup` [`SETUP_REPETITIONS`] times — each from nothing, the
/// previous result dropped first — records the medians as `setup_s`
/// and `load_docs_per_s`, and returns the last result. A traced run
/// reports neither metric and sets up once. `None` if a set-up failed
/// (the failure is already counted in `report`).
pub fn repeated_setup<T>(
    config: &RunConfig,
    report: &mut Report,
    mut setup: impl FnMut(&mut Report) -> Option<(T, SetupTiming)>,
) -> Option<T> {
    let repetitions = if config.traced { 1 } else { SETUP_REPETITIONS };
    let mut seconds = Vec::new();
    let mut rates = Vec::new();
    let mut last = None;
    for _ in 0..repetitions {
        drop(last.take());
        let started = Instant::now();
        let (result, timing) = setup(report)?;
        seconds.push(started.elapsed().as_secs_f64());
        rates.push(timing.load_docs as f64 / timing.load_seconds.max(1e-9));
        last = Some(result);
    }
    report.set("setup_s", median(&seconds));
    report.set("load_docs_per_s", median(&rates));
    report.note(format!(
        "set-up repeated {repetitions}x: seconds {seconds:.3?}, load docs/s {rates:.0?}"
    ));
    last
}
