//! Gaussian elimination over Z_p.
//!
//! The paper's Algorithm 1b recovers a posting element by "solving the
//! following system of k linear equations … in O(k^3) time with Gaussian
//! elimination methods". We implement exactly that (the equations form a
//! Vandermonde system in the polynomial coefficients) so the bench suite
//! can compare it against the O(k^2) Lagrange path used in production
//! code, reproducing the design discussion of Section 5.1.

use crate::fp::Fp;

/// Errors from the Gaussian solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaussianError {
    /// The system matrix was singular — with distinct abscissae this
    /// cannot happen for a Vandermonde system, so it indicates
    /// duplicated share x-coordinates.
    Singular,
    /// Input slices had mismatched or empty dimensions.
    Dimension,
}

impl std::fmt::Display for GaussianError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GaussianError::Singular => write!(f, "singular system (duplicate x-coordinates?)"),
            GaussianError::Dimension => write!(f, "dimension mismatch or empty system"),
        }
    }
}

impl std::error::Error for GaussianError {}

/// Solves the k×k Vandermonde system
/// `y_i = a_{k-1} x_i^{k-1} + … + a_1 x_i + a_0` for the coefficient
/// vector `[a_0, …, a_{k-1}]` by Gaussian elimination with partial
/// pivoting, as Algorithm 1b prescribes.
///
/// Returns all polynomial coefficients; the secret is element 0.
pub fn solve_vandermonde_gaussian(xs: &[Fp], ys: &[Fp]) -> Result<Vec<Fp>, GaussianError> {
    let k = xs.len();
    if k == 0 || ys.len() != k {
        return Err(GaussianError::Dimension);
    }

    // Build the augmented matrix [V | y] with V[i][j] = x_i^j.
    let mut matrix: Vec<Vec<Fp>> = Vec::with_capacity(k);
    for (&x, &y) in xs.iter().zip(ys) {
        let mut row = Vec::with_capacity(k + 1);
        let mut power = Fp::ONE;
        for _ in 0..k {
            row.push(power);
            power *= x;
        }
        row.push(y);
        matrix.push(row);
    }

    // Forward elimination.
    for column in 0..k {
        let pivot_row = (column..k)
            .find(|&row| !matrix[row][column].is_zero())
            .ok_or(GaussianError::Singular)?;
        matrix.swap(column, pivot_row);

        let pivot_inverse = matrix[column][column]
            .inverse()
            .ok_or(GaussianError::Singular)?;
        for entry in matrix[column][column..].iter_mut() {
            *entry *= pivot_inverse;
        }
        for row in column + 1..k {
            let factor = matrix[row][column];
            if factor.is_zero() {
                continue;
            }
            #[allow(clippy::needless_range_loop)] // two rows of `matrix` are borrowed
            for index in column..=k {
                let scaled = matrix[column][index] * factor;
                matrix[row][index] -= scaled;
            }
        }
    }

    // Back substitution.
    let mut solution = vec![Fp::ZERO; k];
    for row in (0..k).rev() {
        let mut accumulated = matrix[row][k];
        for column in row + 1..k {
            accumulated -= matrix[row][column] * solution[column];
        }
        solution[row] = accumulated; // pivot already normalized to 1
    }
    Ok(solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Polynomial;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fp(v: u64) -> Fp {
        Fp::new(v)
    }

    #[test]
    fn solves_linear_system() {
        // f(x) = 5x + 3 through (1, 8), (2, 13).
        let coefficients = solve_vandermonde_gaussian(&[fp(1), fp(2)], &[fp(8), fp(13)]).unwrap();
        assert_eq!(coefficients[0].value(), 3);
        assert_eq!(coefficients[1].value(), 5);
    }

    #[test]
    fn recovers_random_polynomials() {
        let mut rng = StdRng::seed_from_u64(11);
        for k in 1..=8usize {
            let secret = Fp::random(&mut rng);
            let f = Polynomial::random_with_constant(secret, k - 1, &mut rng);
            let xs: Vec<Fp> = (1..=k as u64).map(|x| fp(x * 17 + 3)).collect();
            let ys: Vec<Fp> = xs.iter().map(|&x| f.evaluate(x)).collect();
            let coefficients = solve_vandermonde_gaussian(&xs, &ys).unwrap();
            assert_eq!(coefficients.len(), k);
            assert_eq!(coefficients[0], secret, "k = {k}");
            assert_eq!(Polynomial::new(coefficients), f);
        }
    }

    #[test]
    fn agrees_with_lagrange() {
        let mut rng = StdRng::seed_from_u64(12);
        let f = Polynomial::random_with_constant(fp(31_337), 3, &mut rng);
        let xs: Vec<Fp> = vec![fp(2), fp(9), fp(21), fp(44)];
        let ys: Vec<Fp> = xs.iter().map(|&x| f.evaluate(x)).collect();
        let gaussian = solve_vandermonde_gaussian(&xs, &ys).unwrap()[0];
        let points: Vec<(Fp, Fp)> = xs.iter().copied().zip(ys.iter().copied()).collect();
        let lagrange = crate::poly::interpolate_at_zero(&points);
        assert_eq!(gaussian, lagrange);
        assert_eq!(gaussian.value(), 31_337);
    }

    #[test]
    fn duplicate_points_are_singular() {
        let result = solve_vandermonde_gaussian(&[fp(4), fp(4)], &[fp(1), fp(2)]);
        assert_eq!(result.unwrap_err(), GaussianError::Singular);
    }

    #[test]
    fn empty_and_mismatched_inputs_error() {
        assert_eq!(
            solve_vandermonde_gaussian(&[], &[]).unwrap_err(),
            GaussianError::Dimension
        );
        assert_eq!(
            solve_vandermonde_gaussian(&[fp(1)], &[fp(1), fp(2)]).unwrap_err(),
            GaussianError::Dimension
        );
    }
}
