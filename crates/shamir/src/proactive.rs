//! Proactive share refresh (Herzberg et al. \[21\], cited in Section 5.1).
//!
//! "If an adversary learns some of the shares, proactive sharing
//! techniques can be used to prevent the adversary from getting k
//! shares. With this technique, the shares are updated so that those
//! she already knows become useless."
//!
//! Every stored element is an *independent* Shamir sharing, so a round
//! must refresh each element with its **own** zero-constant polynomial
//! `δ_e(x)`; server `i` adds `δ_e(x_i)` to its share of element `e`.
//! The shared secret (the constant term) is unchanged, but any
//! pre-refresh share becomes statistically independent of the
//! post-refresh sharing, so old leaked shares cannot be combined with
//! new ones. Using one common delta for a server's whole share column
//! would be unsound: a single known plaintext would reveal the column's
//! shift and un-refresh every other element.
//!
//! To avoid shipping one polynomial per stored element, a round carries
//! only a random 64-bit key; every server derives `δ_e`'s coefficients
//! deterministically from `(key, e)` with a splitmix64 chain. This
//! models the coordinated pairwise sub-share exchange of the real
//! protocol while keeping the refresh O(1) in communication.

use rand::Rng;

use zerber_field::{splitmix64, Fp};

use crate::scheme::{ServerId, Share, SharingScheme};

/// One proactive refresh round: a key from which per-element,
/// per-server additive deltas are derived.
#[derive(Debug, Clone)]
pub struct RefreshRound {
    coordinates: Vec<Fp>,
    degree: usize,
    key: u64,
}

impl RefreshRound {
    /// Samples a refresh round for the given scheme.
    pub fn generate<R: Rng + ?Sized>(scheme: &SharingScheme, rng: &mut R) -> Self {
        Self {
            coordinates: scheme.coordinates().to_vec(),
            degree: scheme.threshold() - 1,
            key: rng.random::<u64>(),
        }
    }

    /// Evaluates element `element`'s delta polynomial `δ_e` at `x`.
    ///
    /// `δ_e(x) = c_1 x + … + c_d x^d` with coefficients derived from
    /// `(key, element)`; the constant term is zero so the secret is
    /// preserved. For a threshold-1 scheme the polynomial is empty and
    /// the delta is zero: a single share *is* the secret, and no
    /// refresh can invalidate it.
    fn delta_at(&self, element: u64, x: Fp) -> Fp {
        let mut state = self.key ^ element.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut delta = Fp::ZERO;
        let mut power = Fp::ONE;
        for _ in 0..self.degree {
            power *= x;
            delta += Fp::new(splitmix64(&mut state)) * power;
        }
        delta
    }

    /// The additive delta for element `element` held by `server`, or
    /// `None` for an unknown server id.
    pub fn delta_for(&self, server: ServerId, element: u64) -> Option<Fp> {
        let x = *self.coordinates.get(server.index())?;
        Some(self.delta_at(element, x))
    }

    /// Applies the round to `server`'s share of element `element`.
    ///
    /// # Panics
    /// Panics if `server` is not a server of the scheme the round was
    /// generated for.
    #[expect(
        clippy::expect_used,
        reason = "a round holds every coordinate of its scheme, so only a foreign server id misses"
    )]
    pub fn apply(&self, server: ServerId, element: u64, share: Share) -> Share {
        let delta = self
            .delta_for(server, element)
            .expect("refresh round covers every server");
        Share {
            x: share.x,
            y: share.y + delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scheme() -> SharingScheme {
        SharingScheme::with_coordinates(2, vec![Fp::new(3), Fp::new(5), Fp::new(8)]).unwrap()
    }

    #[test]
    fn refresh_preserves_secret() {
        let mut rng = StdRng::seed_from_u64(31);
        let scheme = scheme();
        let secret = Fp::new(600_613);
        let shares = scheme.split(secret, &mut rng);
        let round = RefreshRound::generate(&scheme, &mut rng);
        let refreshed: Vec<Share> = shares
            .iter()
            .enumerate()
            .map(|(i, &s)| round.apply(ServerId(i as u32), 7, s))
            .collect();
        assert_eq!(scheme.reconstruct(&refreshed[..2]).unwrap(), secret);
        assert_eq!(scheme.reconstruct(&refreshed[1..]).unwrap(), secret);
    }

    #[test]
    fn refresh_changes_shares() {
        let mut rng = StdRng::seed_from_u64(32);
        let scheme = scheme();
        let shares = scheme.split(Fp::new(1), &mut rng);
        let round = RefreshRound::generate(&scheme, &mut rng);
        let changed = (0..shares.len())
            .filter(|&i| round.apply(ServerId(i as u32), 7, shares[i]).y != shares[i].y)
            .count();
        // With overwhelming probability all shares move; require most.
        assert!(changed >= 2, "refresh should re-randomize shares");
    }

    #[test]
    fn deltas_are_independent_per_element() {
        let mut rng = StdRng::seed_from_u64(35);
        let scheme = scheme();
        let round = RefreshRound::generate(&scheme, &mut rng);
        let deltas: Vec<Fp> = (0..64u64)
            .map(|e| round.delta_for(ServerId(0), e).unwrap())
            .collect();
        let mut unique: Vec<u64> = deltas.iter().map(|f| f.value()).collect();
        unique.sort_unstable();
        unique.dedup();
        // A column-wide common delta (the unsound variant) would give
        // exactly one unique value here.
        assert!(unique.len() >= 60, "per-element deltas look correlated");
    }

    #[test]
    fn stale_share_mixed_with_fresh_shares_is_useless() {
        let mut rng = StdRng::seed_from_u64(33);
        let scheme = scheme();
        let secret = Fp::new(424_242);
        let shares = scheme.split(secret, &mut rng);
        let round = RefreshRound::generate(&scheme, &mut rng);
        let fresh_1 = round.apply(ServerId(1), 7, shares[1]);
        // Adversary leaked shares[0] *before* the refresh; combining it
        // with a post-refresh share yields garbage, not the secret.
        let mixed = [shares[0], fresh_1];
        let wrong = scheme.reconstruct(&mixed).unwrap();
        assert_ne!(wrong, secret);
    }

    #[test]
    fn apply_all_shifts_whole_column() {
        let mut rng = StdRng::seed_from_u64(34);
        let scheme = scheme();
        let round = RefreshRound::generate(&scheme, &mut rng);
        let x = scheme.coordinates()[0];
        for (element, y) in [(10, Fp::new(1)), (11, Fp::new(2)), (12, Fp::new(3))] {
            let refreshed = round.apply(ServerId(0), element, Share { x, y });
            let delta = round.delta_for(ServerId(0), element).unwrap();
            assert_eq!(refreshed, Share { x, y: y + delta });
        }
    }
}
