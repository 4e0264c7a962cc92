//! The k-out-of-n sharing scheme: public parameters and Algorithms 1a/1b.
//!
//! The scheme's public data is the prime `p` (fixed by `zerber-field`),
//! the threshold `k`, and one non-zero x-coordinate per index server.
//! "These numbers p and x_i are made public, so all users know them"
//! (Section 5.1) — secrecy rests entirely on the random polynomial
//! coefficients chosen per element.

use rand::Rng;

use zerber_field::{
    interpolate_at, lagrange_weights_at_zero, solve_vandermonde_gaussian, Fp, Polynomial,
};

use crate::error::ShamirError;

/// Identifies an index server within a scheme (position in the public
/// x-coordinate list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

impl ServerId {
    /// The position of this server in the scheme's coordinate list.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One secret share: the evaluation point of the element polynomial at a
/// server's public x-coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    /// The server's public x-coordinate.
    pub x: Fp,
    /// The polynomial evaluation `f(x)` — the confidential part.
    pub y: Fp,
}

/// Public parameters of a k-out-of-n sharing scheme.
#[derive(Debug, Clone)]
pub struct SharingScheme {
    k: usize,
    coordinates: Vec<Fp>,
}

impl SharingScheme {
    /// Creates a scheme with `n` servers whose x-coordinates are drawn
    /// uniformly at random ("each server i is assigned a unique random
    /// value x_i in Z_p").
    pub fn random<R: Rng + ?Sized>(k: usize, n: usize, rng: &mut R) -> Result<Self, ShamirError> {
        if k == 0 || k > n {
            return Err(ShamirError::InvalidThreshold { k, n });
        }
        let mut coordinates = Vec::with_capacity(n);
        while coordinates.len() < n {
            let candidate = Fp::random_nonzero(rng);
            if !coordinates.contains(&candidate) {
                coordinates.push(candidate);
            }
        }
        Ok(Self { k, coordinates })
    }

    /// Creates a scheme from explicit server coordinates.
    pub fn with_coordinates(k: usize, coordinates: Vec<Fp>) -> Result<Self, ShamirError> {
        if k == 0 || k > coordinates.len() {
            return Err(ShamirError::InvalidThreshold {
                k,
                n: coordinates.len(),
            });
        }
        for (i, x) in coordinates.iter().enumerate() {
            if x.is_zero() || coordinates[..i].contains(x) {
                return Err(ShamirError::InvalidCoordinates);
            }
        }
        Ok(Self { k, coordinates })
    }

    /// The reconstruction threshold `k`.
    pub fn threshold(&self) -> usize {
        self.k
    }

    /// The number of servers `n`.
    pub fn server_count(&self) -> usize {
        self.coordinates.len()
    }

    /// The public x-coordinates, indexed by [`ServerId`].
    pub fn coordinates(&self) -> &[Fp] {
        &self.coordinates
    }

    /// The x-coordinate of one server.
    pub(crate) fn coordinate(&self, server: ServerId) -> Option<Fp> {
        self.coordinates.get(server.index()).copied()
    }

    /// Algorithm 1a: splits `secret` into one share per server.
    ///
    /// Samples a fresh degree-(k-1) polynomial with constant term
    /// `secret` and evaluates it at every server coordinate. Complexity
    /// O(n·k) field operations per element.
    pub fn split<R: Rng + ?Sized>(&self, secret: Fp, rng: &mut R) -> Vec<Share> {
        let polynomial = Polynomial::random_with_constant(secret, self.k - 1, rng);
        self.coordinates
            .iter()
            .map(|&x| Share {
                x,
                y: polynomial.evaluate(x),
            })
            .collect()
    }

    /// Algorithm 1a over a whole batch: splits every secret, returning
    /// `n` rows where row `i` holds the y-shares destined for server
    /// `i`, aligned with `secrets`.
    ///
    /// The per-element cost drops to pure field arithmetic: each
    /// server's coordinate powers `x_i^0 … x_i^{k-1}` are precomputed
    /// once per call, and the fresh random coefficients live in one
    /// scratch buffer reused across elements — no `Polynomial` (or any
    /// other) allocation per element, unlike [`split`](Self::split). Each
    /// share is the dot product `Σ_j c_j · x_i^j`, exactly the value
    /// Horner evaluation produces (field arithmetic is exact), and the
    /// coefficients are drawn in the same order — so the output is
    /// identical to calling [`split`](Self::split) per element with
    /// the same RNG.
    pub fn split_batch<R: Rng + ?Sized>(&self, secrets: &[Fp], rng: &mut R) -> Vec<Vec<Fp>> {
        let k = self.k;
        // Per-server power tables, server-major: powers[i·k + j] = x_i^j.
        let mut powers: Vec<Fp> = Vec::with_capacity(self.coordinates.len() * k);
        for &x in &self.coordinates {
            let mut power = Fp::ONE;
            for _ in 0..k {
                powers.push(power);
                power *= x;
            }
        }
        let mut rows: Vec<Vec<Fp>> = self
            .coordinates
            .iter()
            .map(|_| Vec::with_capacity(secrets.len()))
            .collect();
        let mut coefficients: Vec<Fp> = Vec::with_capacity(k);
        for &secret in secrets {
            coefficients.clear();
            coefficients.push(secret);
            for _ in 1..k {
                coefficients.push(Fp::random(rng));
            }
            for (row, table) in rows.iter_mut().zip(powers.chunks_exact(k)) {
                let mut y = Fp::ZERO;
                for (&c, &p) in coefficients.iter().zip(table) {
                    y += c * p;
                }
                row.push(y);
            }
        }
        rows
    }

    /// Algorithm 1b (fast path): recovers the secret from at least `k`
    /// shares via Lagrange interpolation at zero — O(k^2).
    pub fn reconstruct(&self, shares: &[Share]) -> Result<Fp, ShamirError> {
        let shares = self.validated(shares)?;
        let points: Vec<(Fp, Fp)> = shares.iter().map(|s| (s.x, s.y)).collect();
        Ok(zerber_field::interpolate_at_zero(&points))
    }

    /// Algorithm 1b exactly as printed: recovers the secret by solving
    /// the k linear equations with Gaussian elimination — O(k^3). Kept
    /// for fidelity and as an ablation baseline; produces identical
    /// results to [`reconstruct`](Self::reconstruct).
    pub fn reconstruct_gaussian(&self, shares: &[Share]) -> Result<Fp, ShamirError> {
        let shares = self.validated(shares)?;
        let xs: Vec<Fp> = shares.iter().map(|s| s.x).collect();
        let ys: Vec<Fp> = shares.iter().map(|s| s.y).collect();
        let coefficients =
            solve_vandermonde_gaussian(&xs, &ys).map_err(|_| ShamirError::DuplicateShare)?;
        Ok(coefficients[0])
    }

    /// Dynamic extension (Section 5.1): derives the share for a *new*
    /// server at `new_x` from any `k` existing shares, "by just
    /// selecting additional points on the polynomial curve" — no
    /// recalculation of existing shares.
    pub fn derive_share_for(&self, shares: &[Share], new_x: Fp) -> Result<Share, ShamirError> {
        if new_x.is_zero() {
            return Err(ShamirError::InvalidCoordinates);
        }
        let shares = self.validated(shares)?;
        let points: Vec<(Fp, Fp)> = shares.iter().map(|s| (s.x, s.y)).collect();
        Ok(Share {
            x: new_x,
            y: interpolate_at(&points, new_x),
        })
    }

    /// Precomputes Lagrange weights at zero for a fixed subset of
    /// servers, enabling O(k) per-element reconstruction.
    pub(crate) fn weights_for(&self, servers: &[ServerId]) -> Result<Vec<Fp>, ShamirError> {
        if servers.len() < self.k {
            return Err(ShamirError::NotEnoughShares {
                needed: self.k,
                got: servers.len(),
            });
        }
        let mut xs = Vec::with_capacity(servers.len());
        for &server in servers {
            let x = self
                .coordinate(server)
                .ok_or(ShamirError::UnknownCoordinate)?;
            if xs.contains(&x) {
                return Err(ShamirError::DuplicateShare);
            }
            xs.push(x);
        }
        Ok(lagrange_weights_at_zero(&xs))
    }

    /// Validates a share set: at least `k` shares with distinct
    /// x-coordinates. Returns the first `k` (extra shares are redundant
    /// for a correct sharing).
    fn validated<'a>(&self, shares: &'a [Share]) -> Result<&'a [Share], ShamirError> {
        if shares.len() < self.k {
            return Err(ShamirError::NotEnoughShares {
                needed: self.k,
                got: shares.len(),
            });
        }
        let head = &shares[..self.k];
        for (i, share) in head.iter().enumerate() {
            if share.x.is_zero() {
                return Err(ShamirError::InvalidCoordinates);
            }
            if head[..i].iter().any(|other| other.x == share.x) {
                return Err(ShamirError::DuplicateShare);
            }
        }
        Ok(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scheme_2_of_3() -> SharingScheme {
        SharingScheme::with_coordinates(2, vec![Fp::new(11), Fp::new(22), Fp::new(33)]).unwrap()
    }

    #[test]
    fn split_then_reconstruct_round_trips() {
        let mut rng = StdRng::seed_from_u64(1);
        let scheme = scheme_2_of_3();
        let secret = Fp::new(123_456_789);
        let shares = scheme.split(secret, &mut rng);
        assert_eq!(shares.len(), 3);
        // Any 2 of 3 shares suffice.
        for pair in [[0, 1], [0, 2], [1, 2]] {
            let subset = [shares[pair[0]], shares[pair[1]]];
            assert_eq!(scheme.reconstruct(&subset).unwrap(), secret);
            assert_eq!(scheme.reconstruct_gaussian(&subset).unwrap(), secret);
        }
    }

    #[test]
    fn one_share_reveals_nothing_computable() {
        let scheme = scheme_2_of_3();
        let mut rng = StdRng::seed_from_u64(2);
        let shares = scheme.split(Fp::new(42), &mut rng);
        let err = scheme.reconstruct(&shares[..1]).unwrap_err();
        assert_eq!(err, ShamirError::NotEnoughShares { needed: 2, got: 1 });
    }

    #[test]
    fn duplicate_shares_rejected() {
        let scheme = scheme_2_of_3();
        let mut rng = StdRng::seed_from_u64(3);
        let shares = scheme.split(Fp::new(42), &mut rng);
        let err = scheme.reconstruct(&[shares[0], shares[0]]).unwrap_err();
        assert_eq!(err, ShamirError::DuplicateShare);
    }

    #[test]
    fn invalid_thresholds_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(matches!(
            SharingScheme::random(0, 3, &mut rng),
            Err(ShamirError::InvalidThreshold { .. })
        ));
        assert!(matches!(
            SharingScheme::random(4, 3, &mut rng),
            Err(ShamirError::InvalidThreshold { .. })
        ));
    }

    #[test]
    fn explicit_coordinates_must_be_distinct_nonzero() {
        assert_eq!(
            SharingScheme::with_coordinates(1, vec![Fp::ZERO]).unwrap_err(),
            ShamirError::InvalidCoordinates
        );
        assert_eq!(
            SharingScheme::with_coordinates(1, vec![Fp::new(5), Fp::new(5)]).unwrap_err(),
            ShamirError::InvalidCoordinates
        );
    }

    #[test]
    fn k_equals_one_broadcasts_the_secret() {
        // Degenerate but legal: every share *is* the secret.
        let scheme = SharingScheme::with_coordinates(1, vec![Fp::new(7), Fp::new(9)]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let shares = scheme.split(Fp::new(101), &mut rng);
        assert!(shares.iter().all(|s| s.y.value() == 101));
    }

    #[test]
    fn k_equals_n_requires_all_shares() {
        let scheme =
            SharingScheme::with_coordinates(3, vec![Fp::new(1), Fp::new(2), Fp::new(3)]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let secret = Fp::new(2_000_000_000);
        let shares = scheme.split(secret, &mut rng);
        assert_eq!(scheme.reconstruct(&shares).unwrap(), secret);
        assert!(scheme.reconstruct(&shares[..2]).is_err());
    }

    #[test]
    fn dynamic_extension_preserves_existing_shares() {
        let mut rng = StdRng::seed_from_u64(7);
        let scheme = scheme_2_of_3();
        let secret = Fp::new(987_654);
        let shares = scheme.split(secret, &mut rng);

        let new_x = Fp::new(44);
        let new_share = scheme.derive_share_for(&shares[..2], new_x).unwrap();

        // Old share + brand-new share reconstruct the same secret.
        let mixed = [shares[2], new_share];
        assert_eq!(scheme.reconstruct(&mixed).unwrap(), secret);
    }

    #[test]
    fn weights_reconstruct_in_constant_time_per_element() {
        let mut rng = StdRng::seed_from_u64(8);
        let scheme = scheme_2_of_3();
        let servers = [ServerId(0), ServerId(2)];
        let weights = scheme.weights_for(&servers).unwrap();
        for _ in 0..10 {
            let secret = Fp::random(&mut rng);
            let shares = scheme.split(secret, &mut rng);
            let recovered = shares[0].y * weights[0] + shares[2].y * weights[1];
            assert_eq!(recovered, secret);
        }
    }

    #[test]
    fn weights_for_unknown_server_errors() {
        let scheme = scheme_2_of_3();
        assert_eq!(
            scheme.weights_for(&[ServerId(0), ServerId(9)]).unwrap_err(),
            ShamirError::UnknownCoordinate
        );
    }

    #[test]
    fn random_scheme_has_distinct_nonzero_coordinates() {
        let mut rng = StdRng::seed_from_u64(9);
        let scheme = SharingScheme::random(3, 10, &mut rng).unwrap();
        let coordinates = scheme.coordinates();
        assert_eq!(coordinates.len(), 10);
        for (i, x) in coordinates.iter().enumerate() {
            assert!(!x.is_zero());
            assert!(!coordinates[..i].contains(x));
        }
    }

    #[test]
    fn split_batch_matches_per_element_split() {
        // Same RNG stream, same coefficients, exact field arithmetic:
        // the power-table dot product must equal Horner evaluation
        // share for share.
        let scheme = SharingScheme::with_coordinates(
            3,
            vec![Fp::new(11), Fp::new(22), Fp::new(33), Fp::new(44)],
        )
        .unwrap();
        let secrets: Vec<Fp> = (0..50u64).map(|v| Fp::new(v * 31 + 5)).collect();
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let rows = scheme.split_batch(&secrets, &mut rng_a);
        assert_eq!(rows.len(), 4);
        for (e, &secret) in secrets.iter().enumerate() {
            let shares = scheme.split(secret, &mut rng_b);
            for (i, share) in shares.iter().enumerate() {
                assert_eq!(rows[i][e], share.y, "element {e}, server {i}");
            }
        }
        // And the rows reconstruct.
        let subset = [
            Share {
                x: Fp::new(22),
                y: rows[1][7],
            },
            Share {
                x: Fp::new(33),
                y: rows[2][7],
            },
            Share {
                x: Fp::new(44),
                y: rows[3][7],
            },
        ];
        assert_eq!(scheme.reconstruct(&subset).unwrap(), secrets[7]);
    }

    #[test]
    fn split_batch_of_nothing_is_empty_rows() {
        let scheme = scheme_2_of_3();
        let mut rng = StdRng::seed_from_u64(1);
        let rows = scheme.split_batch(&[], &mut rng);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(Vec::is_empty));
    }
}
