//! Finite-field arithmetic for Zerber's secret-sharing layer.
//!
//! Shamir's scheme (paper Section 5.1) performs all operations "in the
//! finite field Z_p" for a public prime `p` large enough to hold any
//! posting element. Zerber encodes a posting element
//! `[document_ID, term_ID, tf]` in 64 bits (Section 7.3), so we pick the
//! Mersenne prime `p = 2^61 - 1`: it admits a very fast reduction using
//! 128-bit intermediates and leaves 60 usable bits for the element codec
//! defined in `zerber-core`.
//!
//! The crate provides:
//!
//! * [`Fp`] — an element of Z_p with full operator overloads,
//! * `poly` — polynomial evaluation, random polynomials with a fixed
//!   constant term (the secret), and Lagrange interpolation,
//! * `linalg` — Gaussian elimination over Z_p, matching the O(k^3)
//!   system-of-equations decryption the paper describes (Algorithm 1b).

//! # Example
//!
//! ```
//! use zerber_field::{Fp, interpolate_at_zero, Polynomial};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // Hide a secret in the constant term of a random degree-1 polynomial.
//! let secret = Fp::new(42);
//! let f = Polynomial::random_with_constant(secret, 1, &mut rng);
//! // Any two points recover it.
//! let points = vec![(Fp::new(3), f.evaluate(Fp::new(3))),
//!                   (Fp::new(7), f.evaluate(Fp::new(7)))];
//! assert_eq!(interpolate_at_zero(&points), secret);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod fp;
pub(crate) mod linalg;
pub(crate) mod mix;
pub(crate) mod poly;

pub use fp::{Fp, MODULUS};
pub use linalg::{solve_vandermonde_gaussian, GaussianError};
pub use mix::splitmix64;
pub use poly::{interpolate_at, interpolate_at_zero, lagrange_weights_at_zero, Polynomial};
