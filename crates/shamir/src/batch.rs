//! Batch reconstruction.
//!
//! Section 7.3 of the paper reports that 700 elements are decrypted
//! per millisecond. That number relies on amortization: the Lagrange
//! weights are computed once per *server subset* and reused for every
//! element. The splitting side of the same section, 33 ms per server
//! for a 5,000-distinct-term document, is
//! [`SharingScheme::split_batch`].

use zerber_field::Fp;

use crate::error::ShamirError;
use crate::scheme::{ServerId, SharingScheme};

/// Reconstructs many secrets from per-server share rows with
/// precomputed Lagrange weights — O(k) per element.
#[derive(Debug, Clone)]
pub struct BatchReconstructor {
    weights: Vec<Fp>,
}

impl BatchReconstructor {
    /// Prepares reconstruction for a fixed subset of at least `k`
    /// servers. Only the first `k` of `servers` are used.
    pub fn new(scheme: &SharingScheme, servers: &[ServerId]) -> Result<Self, ShamirError> {
        let k = scheme.threshold();
        if servers.len() < k {
            return Err(ShamirError::NotEnoughShares {
                needed: k,
                got: servers.len(),
            });
        }
        let weights = scheme.weights_for(&servers[..k])?;
        Ok(Self { weights })
    }

    /// Reconstructs a whole batch. `rows[i]` must hold the shares from
    /// the `i`-th server given to [`BatchReconstructor::new`], all rows
    /// equally long and aligned by element.
    ///
    /// # Panics
    /// Panics if rows are missing or misaligned.
    pub fn reconstruct_all(&self, rows: &[Vec<Fp>]) -> Vec<Fp> {
        assert_eq!(rows.len(), self.weights.len(), "one row per chosen server");
        let len = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|row| row.len() == len),
            "share rows must be aligned"
        );
        let mut out = Vec::with_capacity(len);
        for element in 0..len {
            let mut acc = Fp::ZERO;
            for (row, &w) in rows.iter().zip(&self.weights) {
                acc += row[element] * w;
            }
            out.push(acc);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scheme() -> SharingScheme {
        SharingScheme::with_coordinates(2, vec![Fp::new(101), Fp::new(202), Fp::new(303)]).unwrap()
    }

    #[test]
    fn batch_round_trip() {
        let mut rng = StdRng::seed_from_u64(21);
        let scheme = scheme();
        let secrets: Vec<Fp> = (0..100u64).map(|v| Fp::new(v * v + 7)).collect();
        let rows = scheme.split_batch(&secrets, &mut rng);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.len() == secrets.len()));

        let reconstructor = BatchReconstructor::new(&scheme, &[ServerId(0), ServerId(2)]).unwrap();
        let selected = vec![rows[0].clone(), rows[2].clone()];
        let recovered = reconstructor.reconstruct_all(&selected);
        assert_eq!(recovered, secrets);
    }

    #[test]
    fn reconstruct_one_matches_scheme_reconstruct() {
        let mut rng = StdRng::seed_from_u64(22);
        let scheme = scheme();
        let secret = Fp::new(5_000_000);
        let shares = scheme.split(secret, &mut rng);
        let reconstructor = BatchReconstructor::new(&scheme, &[ServerId(1), ServerId(2)]).unwrap();
        let recovered = reconstructor.reconstruct_all(&[vec![shares[1].y], vec![shares[2].y]]);
        assert_eq!(recovered, vec![secret]);
    }

    #[test]
    fn too_few_servers_rejected() {
        let scheme = scheme();
        assert!(matches!(
            BatchReconstructor::new(&scheme, &[ServerId(0)]),
            Err(ShamirError::NotEnoughShares { needed: 2, got: 1 })
        ));
    }

    #[test]
    fn extra_servers_are_ignored_beyond_k() {
        let mut rng = StdRng::seed_from_u64(23);
        let scheme = scheme();
        let reconstructor =
            BatchReconstructor::new(&scheme, &[ServerId(0), ServerId(1), ServerId(2)]).unwrap();
        assert_eq!(reconstructor.weights.len(), 2);
        let secret = Fp::new(77);
        let shares = scheme.split(secret, &mut rng);
        assert_eq!(
            reconstructor.reconstruct_all(&[vec![shares[0].y], vec![shares[1].y]]),
            vec![secret]
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let scheme = scheme();
        let reconstructor = BatchReconstructor::new(&scheme, &[ServerId(0), ServerId(1)]).unwrap();
        let rows = vec![vec![], vec![]];
        assert!(reconstructor.reconstruct_all(&rows).is_empty());
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_rows_panic() {
        let scheme = scheme();
        let reconstructor = BatchReconstructor::new(&scheme, &[ServerId(0), ServerId(1)]).unwrap();
        let rows = vec![vec![Fp::ONE], vec![]];
        let _ = reconstructor.reconstruct_all(&rows);
    }
}
