//! Threat-model simulations for Zerber (paper Sections 4 and 7.1).
//!
//! The paper names three attack goals: reconstruct a document's
//! content/term frequencies, learn aggregate document frequencies, and
//! test whether a particular term appears anywhere. This crate plays
//! the adversary — "Alice" — with exactly the knowledge a compromised
//! index server grants (list lengths, opaque shares, the public
//! mapping table, plus language-statistics background knowledge) and
//! measures how far she gets:
//!
//! * [`df_attack`] — document-frequency reconstruction from merged
//!   list lengths; quantifies the information destroyed by merging,
//! * `amplification` — empirical verification that the posterior /
//!   prior ratio never exceeds the plan's achieved `r` (Definition 1),
//! * `share_uniformity` — statistical indistinguishability of
//!   sub-threshold share sets (the k-1 compromise guarantee),
//! * `correlation` — the update-watching correlation attack of
//!   Section 5.4.1/7.1 and how batching blunts it.

pub(crate) mod amplification;
pub(crate) mod correlation;
pub mod df_attack;
pub mod query_leakage;
pub(crate) mod share_uniformity;

pub use amplification::{verify_plan_r_bound, AmplificationReport};
pub use correlation::{correlation_attack_precision, CorrelationReport};
pub use df_attack::DfReconstructionAttack;
pub use query_leakage::query_leakage;
pub use share_uniformity::{chi_square_uniform, share_distribution_test, UniformityReport};
