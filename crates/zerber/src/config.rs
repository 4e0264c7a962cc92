//! Deployment configuration.

use zerber_client::BatchPolicy;
use zerber_core::merge::MergeConfig;
use zerber_core::ElementCodec;
use zerber_index::PostingBackend;

/// A structurally invalid [`ZerberConfig`], caught by
/// `ZerberConfig::validate` at bootstrap time instead of deep inside
/// sharing or storage code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `threshold` must be at least 1 — a 0-of-n sharing reconstructs
    /// from nothing.
    ThresholdZero,
    /// `threshold` exceeds `servers`: no quorum of `k` servers exists.
    ThresholdExceedsServers {
        /// The configured reconstruction threshold `k`.
        threshold: usize,
        /// The configured server count `n`.
        servers: usize,
    },
    /// The peer count is zero — nothing can host a shard or a share.
    NoPeers,
    /// The peer ring is smaller than the sharing degree: the `n`
    /// share-holding servers could not each sit on a *distinct* peer
    /// (see `ZerberConfig::validate` for what that guards).
    TooFewPeers {
        /// The configured ring width.
        peers: usize,
        /// The minimum ring width (`servers`).
        need: usize,
    },
    /// The posting backend's directory is empty or its policy is
    /// degenerate (a zero flush threshold or segment bound would wedge
    /// the engine).
    InvalidSegmentPolicy {
        /// Which knob is broken.
        reason: &'static str,
    },
    /// The shard replication degree is zero — no copy of any shard
    /// would exist.
    NoReplicas,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ThresholdZero => write!(f, "sharing threshold must be at least 1"),
            ConfigError::NoPeers => write!(f, "peer count must be at least 1"),
            ConfigError::ThresholdExceedsServers { threshold, servers } => write!(
                f,
                "threshold k = {threshold} exceeds server count n = {servers}"
            ),
            ConfigError::TooFewPeers { peers, need } => write!(
                f,
                "peer ring has {peers} peers but the n = {need} share-holding servers need \
                 distinct peers"
            ),
            ConfigError::InvalidSegmentPolicy { reason } => {
                write!(f, "posting backend misconfigured: {reason}")
            }
            ConfigError::NoReplicas => write!(f, "shard replication must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything needed to bootstrap a Zerber deployment.
///
/// `Clone` but not `Copy` since the posting backend can name a
/// storage directory.
#[derive(Debug, Clone)]
pub struct ZerberConfig {
    /// Number of index servers `n`.
    pub servers: usize,
    /// Reconstruction threshold `k` (the paper's experiments use
    /// 2-out-of-3).
    pub threshold: usize,
    /// Width of the peer ring: how many peers (and logical document
    /// shards) `runtime::ShardedSearch` launches.
    /// `ZerberConfig::validate` also holds it to at least `servers`.
    pub peers: usize,
    /// Copies of each document shard in the peer runtime: shard `s`
    /// lives on peers `s, s+1, …, s+R-1 (mod peers)` (chord-style
    /// successor replication — the same scheme Section 6 uses for
    /// posting-list shares). `1` means no redundancy; degrees beyond
    /// the peer count clamp to one copy per peer. Queries hedge across
    /// replicas, so a deployment survives any failure pattern that
    /// leaves at least one live replica per shard.
    pub replication: usize,
    /// Posting-list merging configuration.
    pub merge: MergeConfig,
    /// Posting-element bit layout.
    pub codec: ElementCodec,
    /// Owner-side update batching.
    pub batch: BatchPolicy,
    /// Where each shard replica of the plaintext peer runtime
    /// (`runtime::ShardedSearch`) keeps its segment store: scratch
    /// space that goes away with the peer, or a directory the caller
    /// names. The share path ([`crate::ZerberSystem`]) does not read
    /// it — share columns are incompressible by design (Section 7.3).
    pub postings: PostingBackend,
    /// Master RNG seed (coordinates, BFM redistribution, element
    /// encryption).
    pub seed: u64,
}

impl Default for ZerberConfig {
    /// The paper's experimental setup: 2-out-of-3 sharing, DFM
    /// merging; owners batch their updates (4096 elements per server
    /// RPC), and `ZerberSystem::index_document` flushes before it
    /// returns.
    fn default() -> Self {
        Self {
            servers: 3,
            threshold: 2,
            peers: 3,
            replication: 1,
            merge: MergeConfig::dfm(1024),
            codec: ElementCodec::default(),
            batch: BatchPolicy::batched(4096),
            postings: PostingBackend::default(),
            seed: 0xEDB7_2008,
        }
    }
}

impl ZerberConfig {
    /// Overrides the merge configuration.
    pub fn with_merge(mut self, merge: MergeConfig) -> Self {
        self.merge = merge;
        self
    }

    /// Overrides the peer-ring width.
    pub fn with_peers(mut self, peers: usize) -> Self {
        self.peers = peers;
        self
    }

    /// Overrides the shard replication degree of the peer runtime.
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    /// Checks the structural invariants: `1 ≤ threshold ≤ servers ≤
    /// peers`, at least one replica, and
    /// [`ZerberConfig::validate_storage`]. Called by
    /// `ZerberSystem::bootstrap` so a misconfiguration fails fast with
    /// a typed error.
    ///
    /// `servers ≤ peers` guards no code path today: `ZerberSystem`
    /// runs its `n` servers as `n` peer threads whatever `peers` says,
    /// and nothing places shares on the ring. It is kept as the
    /// paper's security precondition stated on the config — no box may
    /// hold two shares of one element (Section 5.1), i.e. `n` servers
    /// need `n` distinct peers — so that a configuration accepted now
    /// stays valid when the share path is hosted on the peer ring
    /// (ROADMAP item 3(c)).
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.threshold == 0 {
            return Err(ConfigError::ThresholdZero);
        }
        if self.threshold > self.servers {
            return Err(ConfigError::ThresholdExceedsServers {
                threshold: self.threshold,
                servers: self.servers,
            });
        }
        if self.peers < self.servers {
            return Err(ConfigError::TooFewPeers {
                peers: self.peers,
                need: self.servers,
            });
        }
        if self.replication == 0 {
            return Err(ConfigError::NoReplicas);
        }
        self.validate_storage()
    }

    /// Checks the posting backend alone: a named directory must not be
    /// empty and its policy must not be able to wedge the engine (the
    /// ephemeral default has neither to get wrong).
    /// Called by `runtime::ShardedSearch::launch*` — the consumer of
    /// [`ZerberConfig::postings`] — whose ring is deliberately not
    /// held to the sharing invariants above.
    pub(crate) fn validate_storage(&self) -> Result<(), ConfigError> {
        if let PostingBackend::Segmented { dir, compaction } = &self.postings {
            if dir.as_os_str().is_empty() {
                return Err(ConfigError::InvalidSegmentPolicy {
                    reason: "storage directory is empty",
                });
            }
            if compaction.flush_postings == 0 {
                return Err(ConfigError::InvalidSegmentPolicy {
                    reason: "flush_postings must be at least 1",
                });
            }
            if compaction.max_segments == 0 {
                return Err(ConfigError::InvalidSegmentPolicy {
                    reason: "max_segments must be at least 1",
                });
            }
        }
        Ok(())
    }

    /// Overrides the batch policy.
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the posting-storage backend.
    pub fn with_postings(mut self, postings: PostingBackend) -> Self {
        self.postings = postings;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let config = ZerberConfig::default();
        assert_eq!(config.servers, 3);
        assert_eq!(config.threshold, 2);
    }

    #[test]
    fn builders_override_fields() {
        let segmented = PostingBackend::Segmented {
            dir: std::path::PathBuf::from("/tmp/zerber-builders-never-created"),
            compaction: zerber_index::SegmentPolicy::default(),
        };
        let sharing = ZerberConfig {
            servers: 5,
            threshold: 3,
            ..ZerberConfig::default()
        };
        let config = sharing
            .with_seed(1)
            .with_batch(BatchPolicy::batched(50))
            .with_postings(segmented.clone());
        assert_eq!(config.servers, 5);
        assert_eq!(config.threshold, 3);
        assert_eq!(config.seed, 1);
        assert_eq!(config.batch, BatchPolicy::batched(50));
        assert_eq!(config.postings, segmented);
    }

    #[test]
    fn default_config_validates() {
        assert_eq!(ZerberConfig::default().validate(), Ok(()));
    }

    #[test]
    fn undersized_ring_is_rejected() {
        // Fewer ring peers than share-holding servers.
        let config = ZerberConfig::default().with_peers(2);
        assert_eq!(
            config.validate(),
            Err(ConfigError::TooFewPeers { peers: 2, need: 3 })
        );
    }

    #[test]
    fn degenerate_sharing_is_rejected() {
        let zero = ZerberConfig {
            threshold: 0,
            ..ZerberConfig::default()
        };
        assert_eq!(zero.validate(), Err(ConfigError::ThresholdZero));
        let over = ZerberConfig {
            threshold: 4,
            ..ZerberConfig::default()
        };
        assert_eq!(
            over.validate(),
            Err(ConfigError::ThresholdExceedsServers {
                threshold: 4,
                servers: 3
            })
        );
    }

    #[test]
    fn zero_replication_is_rejected() {
        let config = ZerberConfig::default().with_replication(0);
        assert_eq!(config.validate(), Err(ConfigError::NoReplicas));
        assert_eq!(
            ZerberConfig::default().with_replication(2).validate(),
            Ok(())
        );
    }

    #[test]
    fn segmented_policy_is_validated() {
        use zerber_index::SegmentPolicy;
        let good = ZerberConfig::default().with_postings(PostingBackend::Segmented {
            dir: std::path::PathBuf::from("/tmp/zerber-validate-never-created"),
            compaction: SegmentPolicy::default(),
        });
        assert_eq!(good.validate(), Ok(()));
        for (policy, what) in [
            (
                SegmentPolicy {
                    flush_postings: 0,
                    ..SegmentPolicy::default()
                },
                "flush",
            ),
            (
                SegmentPolicy {
                    max_segments: 0,
                    ..SegmentPolicy::default()
                },
                "segments",
            ),
        ] {
            let bad = ZerberConfig::default().with_postings(PostingBackend::Segmented {
                dir: std::path::PathBuf::from("/tmp/zerber-validate-never-created"),
                compaction: policy,
            });
            assert!(
                matches!(
                    bad.validate(),
                    Err(ConfigError::InvalidSegmentPolicy { .. })
                ),
                "{what}"
            );
        }
        let empty_dir = ZerberConfig::default().with_postings(PostingBackend::Segmented {
            dir: std::path::PathBuf::new(),
            compaction: SegmentPolicy::default(),
        });
        assert!(matches!(
            empty_dir.validate(),
            Err(ConfigError::InvalidSegmentPolicy { .. })
        ));
    }
}
