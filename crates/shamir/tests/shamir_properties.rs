//! Property tests for the secret-sharing invariants Zerber's security
//! argument depends on (Section 5.1 and Section 7.1).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zerber_field::{Fp, MODULUS};
use zerber_shamir::{BatchReconstructor, RefreshRound, ServerId, SharingScheme};

fn arb_secret() -> impl Strategy<Value = Fp> {
    (0..MODULUS).prop_map(Fp::from_canonical)
}

proptest! {
    /// Any k of n shares reconstruct the secret, for all (k, n) pairs in
    /// a practical range.
    #[test]
    fn any_k_of_n_shares_reconstruct(
        secret in arb_secret(),
        k in 1usize..5,
        extra in 0usize..4,
        seed in any::<u64>(),
    ) {
        let n = k + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = SharingScheme::random(k, n, &mut rng).unwrap();
        let shares = scheme.split(secret, &mut rng);
        // Sliding windows of size k over the share vector.
        for window in shares.windows(k) {
            prop_assert_eq!(scheme.reconstruct(window).unwrap(), secret);
        }
    }

    /// Gaussian elimination (paper's Algorithm 1b) and Lagrange agree.
    #[test]
    fn gaussian_equals_lagrange(
        secret in arb_secret(),
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = SharingScheme::random(k, k + 1, &mut rng).unwrap();
        let shares = scheme.split(secret, &mut rng);
        prop_assert_eq!(
            scheme.reconstruct(&shares).unwrap(),
            scheme.reconstruct_gaussian(&shares).unwrap()
        );
    }

    /// With fixed coefficient randomness, the k-1 shares observed by an
    /// adversary are a *bijection* of the secret-independent randomness:
    /// for k = 2, fixing the random coefficient a1 and varying the
    /// secret produces share values that differ by exactly the secret
    /// difference — i.e. for ANY candidate secret there exists equally
    /// likely randomness explaining the observed share. We verify the
    /// consistency property computationally: given one share, every
    /// candidate secret admits a polynomial passing through it.
    #[test]
    fn single_share_is_consistent_with_every_secret(
        secret_a in arb_secret(),
        secret_b in arb_secret(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = SharingScheme::random(2, 3, &mut rng).unwrap();
        let shares = scheme.split(secret_a, &mut rng);
        let observed = shares[0];
        // Construct the unique degree-1 polynomial through (0, secret_b)
        // and (x0, observed.y): it exists and is a valid sharing of
        // secret_b producing the very same observed share.
        let x0 = observed.x;
        let slope = (observed.y - secret_b) * x0.inverse().unwrap();
        let reconstructed_share = secret_b + slope * x0;
        prop_assert_eq!(reconstructed_share, observed.y);
    }

    /// Batch splitting is equivalent to element-wise splitting in terms
    /// of reconstructability.
    #[test]
    fn batch_operations_round_trip(
        secrets in prop::collection::vec(arb_secret(), 0..40),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = SharingScheme::random(2, 3, &mut rng).unwrap();
        let rows = scheme.split_batch(&secrets, &mut rng);
        let reconstructor =
            BatchReconstructor::new(&scheme, &[ServerId(2), ServerId(0)]).unwrap();
        let selected = vec![rows[2].clone(), rows[0].clone()];
        prop_assert_eq!(reconstructor.reconstruct_all(&selected), secrets);
    }

    /// Proactive refresh never changes the secret and always invalidates
    /// mixed old/new share sets (up to the negligible chance of a zero
    /// delta difference).
    #[test]
    fn refresh_preserves_secret_for_all_subsets(
        secret in arb_secret(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = SharingScheme::random(3, 5, &mut rng).unwrap();
        let shares = scheme.split(secret, &mut rng);
        let round = RefreshRound::generate(&scheme, &mut rng);
        let refreshed: Vec<_> = shares
            .iter()
            .enumerate()
            .map(|(i, &s)| round.apply(ServerId(i as u32), 7, s))
            .collect();
        for window in refreshed.windows(3) {
            prop_assert_eq!(scheme.reconstruct(window).unwrap(), secret);
        }
    }

    /// A new server derived from k shares is indistinguishable from one
    /// provisioned at split time.
    #[test]
    fn derived_share_reconstructs_with_any_partner(
        secret in arb_secret(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scheme = SharingScheme::random(2, 3, &mut rng).unwrap();
        let shares = scheme.split(secret, &mut rng);
        let new_x = Fp::new(1_234_567_890_123);
        prop_assume!(!scheme.coordinates().contains(&new_x));
        let derived = scheme.derive_share_for(&shares[..2], new_x).unwrap();
        for &old in &shares {
            prop_assert_eq!(scheme.reconstruct(&[old, derived]).unwrap(), secret);
        }
    }
}
