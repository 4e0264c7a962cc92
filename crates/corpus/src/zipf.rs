//! Zipf sampling and small distribution helpers.
//!
//! "The document frequency distribution in real documents is usually
//! Zipfian" (Section 6, Figure 7) — every generator in this crate
//! bottoms out in this sampler. Implemented via a precomputed
//! cumulative table with binary search (O(n) memory, O(log n) per
//! sample) to stay dependency-free.

use rand::Rng;

/// Samples ranks `0..n` with probability proportional to
/// `1 / (rank + 1)^s`.
#[derive(Debug, Clone)]
pub(crate) struct ZipfSampler {
    cumulative: Vec<f64>,
    total: f64,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite and non-negative.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be finite and >= 0"
        );
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Self { cumulative, total }
    }

    /// Draws one rank.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let needle = rng.random::<f64>() * self.total;
        // partition_point returns the first index with cumulative >
        // needle, i.e. the sampled rank.
        self.cumulative
            .partition_point(|&c| c <= needle)
            .min(self.cumulative.len() - 1)
    }
}

/// One standard-normal draw via Box–Muller (keeps `rand_distr` out of
/// the dependency set).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1 = rng.random::<f64>();
        let u2 = rng.random::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// One Poisson draw (Knuth's method; fine for the small λ used for
/// query lengths).
pub(crate) fn poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u32 {
    assert!(lambda >= 0.0, "Poisson rate must be non-negative");
    let limit = (-lambda).exp();
    let mut k = 0u32;
    let mut product = 1.0f64;
    loop {
        product *= rng.random::<f64>();
        if product <= limit {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // defensive bound; unreachable for sane λ
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Probability of one rank, read off the cumulative table.
    fn probability(sampler: &ZipfSampler, rank: usize) -> f64 {
        let hi = sampler.cumulative[rank];
        let lo = if rank == 0 {
            0.0
        } else {
            sampler.cumulative[rank - 1]
        };
        (hi - lo) / sampler.total
    }

    #[test]
    fn probabilities_sum_to_one() {
        let sampler = ZipfSampler::new(100, 1.0);
        let sum: f64 = (0..100).map(|r| probability(&sampler, r)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_is_most_likely() {
        let sampler = ZipfSampler::new(50, 1.2);
        for rank in 1..50 {
            assert!(probability(&sampler, 0) >= probability(&sampler, rank));
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let sampler = ZipfSampler::new(10, 0.0);
        for rank in 0..10 {
            assert!((probability(&sampler, rank) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn empirical_frequencies_match_theory() {
        let sampler = ZipfSampler::new(20, 1.0);
        let mut rng = StdRng::seed_from_u64(77);
        let mut counts = [0usize; 20];
        let draws = 200_000;
        for _ in 0..draws {
            counts[sampler.sample(&mut rng)] += 1;
        }
        for (rank, &count) in counts.iter().enumerate() {
            let observed = count as f64 / draws as f64;
            let expected = probability(&sampler, rank);
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {rank}: {observed} vs {expected}"
            );
        }
    }

    #[test]
    fn samples_stay_in_range() {
        let sampler = ZipfSampler::new(5, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(sampler.sample(&mut rng) < 5);
        }
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let sampler = ZipfSampler::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut rng), 0);
        }
    }

    #[test]
    fn normal_has_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean: f64 = draws.iter().sum::<f64>() / n as f64;
        let variance: f64 = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((variance - 1.0).abs() < 0.05, "variance {variance}");
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = StdRng::seed_from_u64(4);
        let lambda = 1.45;
        let n = 100_000;
        let total: u64 = (0..n).map(|_| poisson(lambda, &mut rng) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_sampler_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}
