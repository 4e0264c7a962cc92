//! The prime field Z_p with p = 2^61 - 1 (a Mersenne prime).
//!
//! All Shamir shares, polynomial coefficients and encoded posting
//! elements live in this field. The Mersenne structure allows reduction
//! without division: for `x < 2^122`, `x mod p` is computed by folding
//! the high 61-bit limb onto the low one twice.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

/// The field modulus `p = 2^61 - 1 = 2_305_843_009_213_693_951`.
pub const MODULUS: u64 = (1u64 << 61) - 1;

/// An element of Z_p, kept in canonical form (`0 <= value < p`).
///
/// `Fp` is `Copy` and all arithmetic is branch-light; a multiplication
/// is one `u128` widening multiply plus two folds. This is the hot type
/// of the whole system: encrypting a document with `N` distinct terms
/// for `n` servers costs `O(n * N * k)` field multiplications
/// (Algorithm 1a), and query decryption costs `O(k)` per element once
/// Lagrange weights are fixed (Algorithm 1b).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fp(u64);

impl Fp {
    /// The additive identity.
    pub const ZERO: Fp = Fp(0);
    /// The multiplicative identity.
    pub const ONE: Fp = Fp(1);

    /// Creates a field element, reducing `value` modulo `p`.
    #[inline]
    pub const fn new(value: u64) -> Self {
        // One fold suffices for a u64 input: value = hi * 2^61 + lo with
        // hi < 8, and hi * 2^61 ≡ hi (mod p).
        let folded = (value & MODULUS) + (value >> 61);
        if folded >= MODULUS {
            Fp(folded - MODULUS)
        } else {
            Fp(folded)
        }
    }

    /// Creates a field element from a value already known to be `< p`.
    ///
    /// # Panics
    /// Panics in debug builds if `value >= p`.
    #[inline]
    pub const fn from_canonical(value: u64) -> Self {
        debug_assert!(value < MODULUS);
        Fp(value)
    }

    /// Returns the canonical representative in `[0, p)`.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Reduces a 128-bit intermediate modulo `p`.
    #[inline]
    const fn reduce128(x: u128) -> u64 {
        // x < 2^122. First fold: x = hi * 2^61 + lo, hi < 2^61, and
        // 2^61 ≡ 1 (mod p) so x ≡ hi + lo. The sum is < 2^62, so one
        // more fold plus a conditional subtraction lands in [0, p).
        let lo = (x as u64) & MODULUS;
        let hi = (x >> 61) as u64;
        let folded = lo + (hi & MODULUS) + (hi >> 61);
        let folded = (folded & MODULUS) + (folded >> 61);
        if folded >= MODULUS {
            folded - MODULUS
        } else {
            folded
        }
    }

    /// Raises `self` to the power `exp` by square-and-multiply.
    pub(crate) fn pow(self, mut exp: u64) -> Self {
        let mut base = self;
        let mut acc = Fp::ONE;
        while exp != 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base *= base;
            exp >>= 1;
        }
        acc
    }

    /// Returns the multiplicative inverse via Fermat's little theorem
    /// (`a^(p-2)`), or `None` for zero.
    pub fn inverse(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            Some(self.pow(MODULUS - 2))
        }
    }

    /// Returns true iff this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Samples a uniformly random field element.
    ///
    /// Uses rejection sampling on the low 61 bits of a `u64`, so every
    /// residue is equally likely — important because Shamir coefficients
    /// must be uniform for the (k-1)-share secrecy argument to hold.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let candidate = rng.random::<u64>() & MODULUS;
            if candidate < MODULUS {
                return Fp(candidate);
            }
        }
    }

    /// Samples a uniformly random *non-zero* field element.
    pub fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let candidate = Self::random(rng);
            if !candidate.is_zero() {
                return candidate;
            }
        }
    }
}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp({})", self.0)
    }
}

impl fmt::Display for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Fp {
    #[inline]
    fn from(value: u64) -> Self {
        Fp::new(value)
    }
}

impl From<u32> for Fp {
    #[inline]
    fn from(value: u32) -> Self {
        Fp(value as u64)
    }
}

impl From<Fp> for u64 {
    #[inline]
    fn from(value: Fp) -> Self {
        value.0
    }
}

impl Add for Fp {
    type Output = Fp;
    #[inline]
    fn add(self, rhs: Fp) -> Fp {
        let sum = self.0 + rhs.0; // < 2^62, no overflow
        Fp(if sum >= MODULUS { sum - MODULUS } else { sum })
    }
}

impl Sub for Fp {
    type Output = Fp;
    #[inline]
    fn sub(self, rhs: Fp) -> Fp {
        let (diff, borrow) = self.0.overflowing_sub(rhs.0);
        Fp(if borrow {
            diff.wrapping_add(MODULUS)
        } else {
            diff
        })
    }
}

impl Mul for Fp {
    type Output = Fp;
    #[inline]
    fn mul(self, rhs: Fp) -> Fp {
        Fp(Self::reduce128(self.0 as u128 * rhs.0 as u128))
    }
}

impl Div for Fp {
    type Output = Fp;
    /// # Panics
    /// Panics on division by zero.
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS mul by inverse in Z_p
    #[expect(
        clippy::expect_used,
        reason = "every non-zero element of Z_p has an inverse; a zero divisor is the documented panic"
    )]
    fn div(self, rhs: Fp) -> Fp {
        self * rhs.inverse().expect("division by zero in Z_p")
    }
}

impl Neg for Fp {
    type Output = Fp;
    #[inline]
    fn neg(self) -> Fp {
        if self.0 == 0 {
            self
        } else {
            Fp(MODULUS - self.0)
        }
    }
}

impl AddAssign for Fp {
    #[inline]
    fn add_assign(&mut self, rhs: Fp) {
        *self = *self + rhs;
    }
}

impl SubAssign for Fp {
    #[inline]
    fn sub_assign(&mut self, rhs: Fp) {
        *self = *self - rhs;
    }
}

impl MulAssign for Fp {
    #[inline]
    fn mul_assign(&mut self, rhs: Fp) {
        *self = *self * rhs;
    }
}

impl DivAssign for Fp {
    #[inline]
    fn div_assign(&mut self, rhs: Fp) {
        *self = *self / rhs;
    }
}

impl Sum for Fp {
    fn sum<I: Iterator<Item = Fp>>(iter: I) -> Fp {
        iter.fold(Fp::ZERO, Add::add)
    }
}

impl Product for Fp {
    fn product<I: Iterator<Item = Fp>>(iter: I) -> Fp {
        iter.fold(Fp::ONE, Mul::mul)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn modulus_is_mersenne_61() {
        assert_eq!(MODULUS, 2_305_843_009_213_693_951);
    }

    #[test]
    fn new_reduces_values_above_modulus() {
        assert_eq!(Fp::new(MODULUS).value(), 0);
        assert_eq!(Fp::new(MODULUS + 1).value(), 1);
        assert_eq!(Fp::new(u64::MAX).value(), u64::MAX % MODULUS);
    }

    #[test]
    fn addition_wraps_at_modulus() {
        let a = Fp::new(MODULUS - 1);
        assert_eq!((a + Fp::ONE).value(), 0);
        assert_eq!((a + Fp::new(5)).value(), 4);
    }

    #[test]
    fn subtraction_borrows_through_zero() {
        assert_eq!((Fp::ZERO - Fp::ONE).value(), MODULUS - 1);
        assert_eq!((Fp::new(3) - Fp::new(10)).value(), MODULUS - 7);
    }

    #[test]
    fn multiplication_matches_u128_reference() {
        let cases = [
            (0u64, 0u64),
            (1, MODULUS - 1),
            (MODULUS - 1, MODULUS - 1),
            (123_456_789, 987_654_321),
            (1 << 60, 1 << 60),
        ];
        for (a, b) in cases {
            let expected = ((a as u128 * b as u128) % MODULUS as u128) as u64;
            assert_eq!((Fp::new(a) * Fp::new(b)).value(), expected, "{a} * {b}");
        }
    }

    #[test]
    fn negation_is_additive_inverse() {
        for v in [0u64, 1, 42, MODULUS - 1] {
            let a = Fp::new(v);
            assert_eq!((a + (-a)).value(), 0);
        }
    }

    #[test]
    fn pow_small_cases() {
        assert_eq!(Fp::new(2).pow(10).value(), 1024);
        assert_eq!(Fp::new(7).pow(0).value(), 1);
        assert_eq!(Fp::ZERO.pow(0).value(), 1, "0^0 = 1 by convention");
        assert_eq!(Fp::ZERO.pow(5).value(), 0);
    }

    #[test]
    fn fermat_little_theorem_holds() {
        // a^(p-1) = 1 for a != 0.
        for v in [1u64, 2, 3, 99_999_999, MODULUS - 2] {
            assert_eq!(Fp::new(v).pow(MODULUS - 1).value(), 1);
        }
    }

    #[test]
    fn inverse_round_trips() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let a = Fp::random_nonzero(&mut rng);
            let inv = a.inverse().unwrap();
            assert_eq!((a * inv).value(), 1);
        }
        assert!(Fp::ZERO.inverse().is_none());
    }

    #[test]
    fn division_is_multiplication_by_inverse() {
        let a = Fp::new(9176);
        let b = Fp::new(313);
        assert_eq!((a / b * b).value(), a.value());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Fp::ONE / Fp::ZERO;
    }

    #[test]
    fn random_elements_are_canonical_and_varied() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let element = Fp::random(&mut rng);
            assert!(element.value() < MODULUS);
            seen.insert(element.value());
        }
        assert!(seen.len() > 90, "uniform sampling should rarely collide");
    }

    #[test]
    fn sum_and_product_fold_correctly() {
        let values = [Fp::new(1), Fp::new(2), Fp::new(3), Fp::new(4)];
        assert_eq!(values.iter().copied().sum::<Fp>().value(), 10);
        assert_eq!(values.iter().copied().product::<Fp>().value(), 24);
    }
}
