//! A Bloom filter, the substrate of the μ-Serv baseline.
//!
//! Related work (Section 3): "μ-Serv has a centralized index based on a
//! Bloom filter; it responds to a keyword search by returning a list of
//! sites that have at least x% probability of having documents
//! containing one of the query keywords." We implement a classic Bloom
//! filter with double hashing (Kirsch–Mitzenmacher) over an FNV-1a
//! base hash, dependency-free.

/// A fixed-size Bloom filter over byte strings.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    bit_count: usize,
    hash_count: u32,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a(seed: u64, data: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET ^ seed.wrapping_mul(FNV_PRIME);
    for &byte in data {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

impl BloomFilter {
    /// Creates a filter with `bit_count` bits and `hash_count` hash
    /// functions.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    pub(crate) fn new(bit_count: usize, hash_count: u32) -> Self {
        assert!(bit_count > 0, "bloom filter needs at least one bit");
        assert!(hash_count > 0, "bloom filter needs at least one hash");
        Self {
            bits: vec![0; bit_count.div_ceil(64)],
            bit_count,
            hash_count,
        }
    }

    /// Sizes a filter for an expected number of items and a target
    /// false-positive probability, using the standard formulas
    /// `m = -n ln(p) / (ln 2)^2` and `k = (m/n) ln 2`.
    pub fn with_false_positive_rate(expected_items: usize, probability: f64) -> Self {
        assert!(
            probability > 0.0 && probability < 1.0,
            "false-positive rate must be in (0, 1)"
        );
        let n = expected_items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * probability.ln() / (ln2 * ln2)).ceil().max(64.0) as usize;
        let k = ((m as f64 / n) * ln2).round().max(1.0) as u32;
        Self::new(m, k)
    }

    fn indices(&self, item: &[u8]) -> impl Iterator<Item = usize> + '_ {
        let h1 = fnv1a(0x517c_c1b7_2722_0a95, item);
        let h2 = fnv1a(0x9e37_79b9_7f4a_7c15, item) | 1; // odd => full period
        let m = self.bit_count as u64;
        (0..self.hash_count as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
    }

    /// Inserts an item.
    pub fn insert(&mut self, item: &[u8]) {
        let indices: Vec<usize> = self.indices(item).collect();
        for index in indices {
            self.bits[index / 64] |= 1u64 << (index % 64);
        }
    }

    /// Membership test: false means *definitely absent*; true means
    /// present with probability `1 - fp_rate`.
    pub fn contains(&self, item: &[u8]) -> bool {
        self.indices(item)
            .all(|index| self.bits[index / 64] & (1u64 << (index % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_items_are_found() {
        let mut filter = BloomFilter::new(1024, 4);
        for word in ["martha", "imclone", "layoff"] {
            filter.insert(word.as_bytes());
        }
        for word in ["martha", "imclone", "layoff"] {
            assert!(filter.contains(word.as_bytes()), "{word} must be present");
        }
    }

    #[test]
    fn absent_items_mostly_rejected() {
        let mut filter = BloomFilter::with_false_positive_rate(100, 0.01);
        for i in 0..100u32 {
            filter.insert(&i.to_le_bytes());
        }
        let false_positives = (1000u32..2000)
            .filter(|i| filter.contains(&i.to_le_bytes()))
            .count();
        // 1% nominal rate over 1000 probes: allow generous slack.
        assert!(
            false_positives < 50,
            "got {false_positives} false positives"
        );
    }

    #[test]
    fn sizing_formula_is_sane() {
        let filter = BloomFilter::with_false_positive_rate(1000, 0.01);
        // ~9.6 bits per item for 1% fp.
        assert!(filter.bit_count >= 9 * 1000);
        assert!(filter.hash_count >= 5 && filter.hash_count <= 10);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_panics() {
        let _ = BloomFilter::new(0, 1);
    }

    #[test]
    fn estimated_rate_tracks_fill() {
        // The false-positive rate follows the fill: none while empty,
        // most absent items once 200 of them crowd 256 bits.
        let mut filter = BloomFilter::new(256, 3);
        let false_positives = |filter: &BloomFilter| {
            (1000u32..2000)
                .filter(|i| filter.contains(&i.to_le_bytes()))
                .count()
        };
        assert_eq!(false_positives(&filter), 0);
        for i in 0..200u32 {
            filter.insert(&i.to_le_bytes());
        }
        assert!(false_positives(&filter) > 100);
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let filter = BloomFilter::new(128, 2);
        assert!(!filter.contains(b"anything"));
    }
}
