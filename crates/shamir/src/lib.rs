//! Shamir *k-out-of-n* secret sharing, the cryptographic core of Zerber
//! (paper Section 5.1, Algorithms 1a and 1b).
//!
//! Every posting-list element is encoded as a field element and split
//! into `n` shares such that any `k` reconstruct it while `k - 1` reveal
//! *nothing* (information-theoretic secrecy). Each of the `n` index
//! servers holds exactly one share per element, so an adversary must
//! compromise at least `k` servers — owned by different factions of the
//! enterprise — to decrypt a single element.
//!
//! The module layout mirrors the paper:
//!
//! * `scheme` — the public parameters `(p, k, x_1..x_n)` and the
//!   split/reconstruct operations (Algorithms 1a/1b), including the
//!   O(k^3) Gaussian variant the paper describes and the O(k^2)
//!   Lagrange variant used on the hot path.
//! * `batch` — amortized reconstruction of whole query responses
//!   ("700 elements per msec", Section 7.3); amortized splitting is
//!   `SharingScheme::split_batch`.
//! * `proactive` — share refresh à la Herzberg et al. \[21\], which the
//!   paper cites for recovering from partial share exposure.

//! # Example
//!
//! ```
//! use zerber_field::Fp;
//! use zerber_shamir::SharingScheme;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let scheme = SharingScheme::random(2, 3, &mut rng).unwrap(); // 2-out-of-3
//! let shares = scheme.split(Fp::new(123_456), &mut rng);
//! // Any two servers' shares reconstruct; one alone is useless.
//! assert_eq!(scheme.reconstruct(&shares[1..]).unwrap(), Fp::new(123_456));
//! assert!(scheme.reconstruct(&shares[..1]).is_err());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod batch;
pub(crate) mod error;
pub(crate) mod proactive;
pub(crate) mod scheme;

pub use batch::BatchReconstructor;
pub use error::ShamirError;
pub use proactive::RefreshRound;
pub use scheme::{ServerId, Share, SharingScheme};
