//! Polynomials over Z_p and Lagrange interpolation.
//!
//! Algorithm 1a of the paper encrypts a posting element `a0` by sampling
//! a degree-(k-1) polynomial `f(x) = a_{k-1} x^{k-1} + … + a_1 x + a_0`
//! with uniform random coefficients and handing server `i` the point
//! `f(x_i)`. Decryption (Algorithm 1b) recovers `a_0` from any `k`
//! points. The paper solves the k×k Vandermonde system by Gaussian
//! elimination (see [`crate::linalg`]); this module additionally offers
//! O(k^2) Lagrange interpolation and precomputed-weight O(k) per-element
//! reconstruction, which is what makes the "700 elements per msec"
//! throughput of Section 7.3 attainable.

use rand::Rng;

use crate::fp::Fp;

/// A dense polynomial over Z_p, least-significant coefficient first.
///
/// `coefficients[0]` is the constant term — the shared secret in
/// Shamir's scheme.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Polynomial {
    coefficients: Vec<Fp>,
}

impl Polynomial {
    /// Builds a polynomial from coefficients (constant term first).
    ///
    /// Trailing zero coefficients are retained: a Shamir polynomial of
    /// nominal degree k-1 keeps all k coefficient slots even if the top
    /// coefficient randomly comes out zero, because the *scheme* degree
    /// is what matters for share bookkeeping.
    pub fn new(coefficients: Vec<Fp>) -> Self {
        Self { coefficients }
    }

    /// Samples a polynomial of exactly `degree` (i.e. `degree + 1`
    /// coefficient slots) with the given constant term and uniformly
    /// random remaining coefficients — Algorithm 1a, steps 1–2.
    pub fn random_with_constant<R: Rng + ?Sized>(constant: Fp, degree: usize, rng: &mut R) -> Self {
        let mut coefficients = Vec::with_capacity(degree + 1);
        coefficients.push(constant);
        for _ in 0..degree {
            coefficients.push(Fp::random(rng));
        }
        Self { coefficients }
    }

    /// Evaluates the polynomial at `x` using Horner's rule — O(k).
    pub fn evaluate(&self, x: Fp) -> Fp {
        let mut acc = Fp::ZERO;
        for &coefficient in self.coefficients.iter().rev() {
            acc = acc * x + coefficient;
        }
        acc
    }
}

/// Computes the Lagrange interpolation weights for evaluating at `x = 0`
/// given distinct sample abscissae `xs`.
///
/// With weights `w_i`, the secret of any polynomial of degree
/// `< xs.len()` sampled at those abscissae is `Σ w_i · y_i`. Computing
/// the weights once per *set of servers* and reusing them for every
/// posting element is the batch-decryption fast path.
///
/// # Panics
/// Panics if any two abscissae coincide or any abscissa is zero (a zero
/// x-coordinate would hand that server the secret directly).
pub fn lagrange_weights_at_zero(xs: &[Fp]) -> Vec<Fp> {
    assert!(
        xs.iter().all(|x| !x.is_zero()),
        "server x-coordinate must be non-zero"
    );
    let mut weights = Vec::with_capacity(xs.len());
    for (i, &xi) in xs.iter().enumerate() {
        let mut numerator = Fp::ONE;
        let mut denominator = Fp::ONE;
        for (j, &xj) in xs.iter().enumerate() {
            if i == j {
                continue;
            }
            // ℓ_i(0) = Π_{j≠i} (0 - x_j) / (x_i - x_j)
            numerator *= -xj;
            let difference = xi - xj;
            assert!(
                !difference.is_zero(),
                "duplicate x-coordinates in share set"
            );
            denominator *= difference;
        }
        #[expect(
            clippy::expect_used,
            reason = "the duplicate-x assert leaves a product of non-zero differences, which Z_p inverts"
        )]
        weights.push(numerator * denominator.inverse().expect("non-zero denominator"));
    }
    weights
}

/// Interpolates the unique degree-`< points.len()` polynomial through
/// `points` and evaluates it at zero — recovering the Shamir secret in
/// O(k^2).
///
/// # Panics
/// Panics on duplicate or zero abscissae (see
/// [`lagrange_weights_at_zero`]).
pub fn interpolate_at_zero(points: &[(Fp, Fp)]) -> Fp {
    let xs: Vec<Fp> = points.iter().map(|&(x, _)| x).collect();
    let weights = lagrange_weights_at_zero(&xs);
    points.iter().zip(weights).map(|(&(_, y), w)| y * w).sum()
}

/// Interpolates the polynomial through `points` and evaluates it at an
/// arbitrary `target` (used for dynamic server extension: generating a
/// share for a *new* server from k existing shares).
///
/// # Panics
/// Panics on duplicate abscissae.
pub fn interpolate_at(points: &[(Fp, Fp)], target: Fp) -> Fp {
    let mut result = Fp::ZERO;
    for (i, &(xi, yi)) in points.iter().enumerate() {
        let mut numerator = Fp::ONE;
        let mut denominator = Fp::ONE;
        for (j, &(xj, _)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            numerator *= target - xj;
            let difference = xi - xj;
            assert!(
                !difference.is_zero(),
                "duplicate x-coordinates in share set"
            );
            denominator *= difference;
        }
        #[expect(
            clippy::expect_used,
            reason = "the duplicate-x assert leaves a product of non-zero differences, which Z_p inverts"
        )]
        let inverse = denominator.inverse().expect("non-zero denominator");
        result += yi * numerator * inverse;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fp(v: u64) -> Fp {
        Fp::new(v)
    }

    #[test]
    fn evaluate_matches_hand_computation() {
        // f(x) = 3x^2 + 2x + 7
        let f = Polynomial::new(vec![fp(7), fp(2), fp(3)]);
        assert_eq!(f.evaluate(fp(0)).value(), 7);
        assert_eq!(f.evaluate(fp(1)).value(), 12);
        assert_eq!(f.evaluate(fp(10)).value(), 327);
    }

    #[test]
    fn empty_polynomial_evaluates_to_zero() {
        let f = Polynomial::new(vec![]);
        assert_eq!(f.evaluate(fp(17)).value(), 0);
    }

    #[test]
    fn random_with_constant_pins_the_secret() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = Polynomial::random_with_constant(fp(424_242), 4, &mut rng);
        assert_eq!(f.coefficients.len(), 5);
        assert_eq!(f.coefficients[0].value(), 424_242);
        assert_eq!(f.evaluate(Fp::ZERO).value(), 424_242);
    }

    #[test]
    fn interpolation_recovers_constant() {
        let mut rng = StdRng::seed_from_u64(2);
        for degree in 0..6 {
            let secret = Fp::random(&mut rng);
            let f = Polynomial::random_with_constant(secret, degree, &mut rng);
            let points: Vec<(Fp, Fp)> = (1..=degree as u64 + 1)
                .map(|x| (fp(x), f.evaluate(fp(x))))
                .collect();
            assert_eq!(interpolate_at_zero(&points), secret, "degree {degree}");
        }
    }

    #[test]
    fn interpolation_with_more_points_than_degree_still_works() {
        let mut rng = StdRng::seed_from_u64(3);
        let f = Polynomial::random_with_constant(fp(99), 2, &mut rng);
        let points: Vec<(Fp, Fp)> = (1..=7u64).map(|x| (fp(x), f.evaluate(fp(x)))).collect();
        assert_eq!(interpolate_at_zero(&points).value(), 99);
    }

    #[test]
    fn weights_reconstruct_many_polynomials() {
        let mut rng = StdRng::seed_from_u64(4);
        let xs: Vec<Fp> = vec![fp(11), fp(23), fp(35)];
        let weights = lagrange_weights_at_zero(&xs);
        for _ in 0..20 {
            let secret = Fp::random(&mut rng);
            let f = Polynomial::random_with_constant(secret, 2, &mut rng);
            let recovered: Fp = xs
                .iter()
                .zip(&weights)
                .map(|(&x, &w)| f.evaluate(x) * w)
                .sum();
            assert_eq!(recovered, secret);
        }
    }

    #[test]
    fn interpolate_at_extends_to_new_server() {
        let mut rng = StdRng::seed_from_u64(5);
        let f = Polynomial::random_with_constant(fp(55), 2, &mut rng);
        let points: Vec<(Fp, Fp)> = (1..=3u64).map(|x| (fp(x), f.evaluate(fp(x)))).collect();
        // A brand-new server at x = 1000 gets a consistent share.
        let new_share = interpolate_at(&points, fp(1000));
        assert_eq!(new_share, f.evaluate(fp(1000)));
    }

    #[test]
    #[should_panic(expected = "duplicate x-coordinates")]
    fn duplicate_abscissae_panic() {
        let points = vec![(fp(1), fp(2)), (fp(1), fp(3))];
        let _ = interpolate_at_zero(&points);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_abscissa_panics() {
        let points = vec![(fp(0), fp(2)), (fp(1), fp(3))];
        let _ = interpolate_at_zero(&points);
    }

    #[test]
    fn zero_constant_polynomial_refreshes_without_changing_secret() {
        let mut rng = StdRng::seed_from_u64(6);
        let f = Polynomial::random_with_constant(fp(777), 3, &mut rng);
        let delta = Polynomial::random_with_constant(Fp::ZERO, 3, &mut rng);
        let refreshed = Polynomial::new(
            (f.coefficients.iter().zip(&delta.coefficients))
                .map(|(&a, &b)| a + b)
                .collect(),
        );
        assert_eq!(refreshed.coefficients[0].value(), 777);
        // Shares move, secret stays.
        assert_ne!(refreshed.evaluate(fp(5)), f.evaluate(fp(5)));
        let points: Vec<(Fp, Fp)> = (1..=4u64)
            .map(|x| (fp(x), refreshed.evaluate(fp(x))))
            .collect();
        assert_eq!(interpolate_at_zero(&points).value(), 777);
    }
}
