//! Synthetic workload substrate for the Zerber reproduction.
//!
//! The paper evaluates on three artifacts we do not have: an Open
//! Directory Project crawl (237,000 documents, 987,700 distinct terms,
//! 100 topic groups), Stud IP learning-management dumps from four
//! universities (8,500 documents, 570,000 terms in the mid-semester
//! snapshot of Figure 5), and a commercial web-search query log
//! (7 million queries, 135,000 distinct query terms, 2.45 terms per
//! query on average). Every evaluated quantity depends on the *shape*
//! of these datasets — Zipfian document frequencies (Figure 7), skewed
//! group sizes (Figure 5), Zipfian query frequencies imperfectly
//! correlated with document frequencies (Figure 6) — so this crate
//! generates synthetic equivalents with exactly those shapes, with all
//! scale parameters configurable up to paper scale.
//!
//! * `zipf` — an O(log n) cumulative-table Zipf sampler plus
//!   dependency-free normal/Poisson helpers,
//! * `synth` — the generic Zipfian document generator,
//! * `odp` — the ODP-like profile (topic groups with local
//!   vocabulary skew),
//! * `studip` — the Stud-IP-like profile reproducing the four
//!   distributions of Figure 5,
//! * `querylog` — the web-search-log generator behind Figures 6, 10
//!   and 11,
//! * `groups` — user ↔ group membership generation.

pub(crate) mod groups;
pub(crate) mod odp;
pub(crate) mod querylog;
pub(crate) mod studip;
pub(crate) mod synth;
pub(crate) mod zipf;

pub use groups::GroupAssignments;
pub use odp::{OdpConfig, OdpCorpus};
pub use querylog::{QueryLog, QueryLogConfig};
pub use studip::{StudipConfig, StudipData};
pub use synth::{CorpusConfig, SyntheticCorpus};
