//! Shannon-entropy estimation.
//!
//! Section 7.3: "Zerber's element shares are almost random, so
//! standard HTML compression is ineffective." Rather than pull in a
//! compressor, the experiments demonstrate this with a byte-entropy
//! estimate: uniformly random share bytes approach 8 bits/byte
//! (incompressible), while text sits far lower.

/// Shannon entropy of the byte histogram, in bits per byte.
/// Returns 0 for empty input.
pub fn entropy_bits_per_byte(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut counts = [0u64; 256];
    for &byte in data {
        counts[byte as usize] += 1;
    }
    let n = data.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_input_has_zero_entropy() {
        assert_eq!(entropy_bits_per_byte(&[]), 0.0);
    }

    #[test]
    fn constant_bytes_have_zero_entropy() {
        assert_eq!(entropy_bits_per_byte(&[7u8; 4096]), 0.0);
    }

    #[test]
    fn uniform_random_bytes_approach_eight_bits() {
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<u8> = (0..1 << 16).map(|_| rng.random()).collect();
        let entropy = entropy_bits_per_byte(&data);
        assert!(entropy > 7.95, "entropy {entropy}");
    }

    #[test]
    fn english_text_is_compressible() {
        let text = b"the quick brown fox jumps over the lazy dog and the \
                     lazy dog sleeps while the quick brown fox runs away \
                     the end the end the end";
        let entropy = entropy_bits_per_byte(text);
        assert!(entropy < 4.6, "entropy {entropy}");
    }

    #[test]
    fn entropy_is_bounded_by_eight() {
        let data: Vec<u8> = (0..=255u8).collect();
        let entropy = entropy_bits_per_byte(&data);
        assert!((entropy - 8.0).abs() < 1e-9);
    }
}
