//! Figure 12: response size per merged posting list for the DFM index
//! at the largest table size.
//!
//! Paper reading (DFM, 32K lists, ODP): "only 40% of the posting lists
//! have a response size exceeding 100 posting elements. The largest
//! response … contains 10K posting elements. … 700 posting elements
//! are decrypted in 1 msec … thus only 14.3 msec are needed to decrypt
//! the search results from one server for this response."

use rand::rngs::StdRng;
use rand::SeedableRng;

use zerber_core::analysis::response_sizes;
use zerber_core::merge::{MergeConfig, MergePlan};

use crate::report::Table;
use crate::scenario::{OdpScenario, Scale};

/// The response-size distribution.
#[derive(Debug)]
pub struct Fig12 {
    /// Per-list response sizes in posting elements, ascending.
    pub sizes: Vec<u64>,
    /// Fraction of lists whose response exceeds 100 elements.
    pub over_100_fraction: f64,
    /// The largest response.
    pub max_response: u64,
    /// Measured decryption throughput (elements per millisecond).
    pub decrypt_elements_per_ms: f64,
    /// Time to decrypt the largest response, in milliseconds.
    pub max_decrypt_ms: f64,
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig12 {
    let scenario = OdpScenario::shared(scale);
    let stats = &scenario.learned_stats;
    let m = *scale.list_counts().last().unwrap();
    let mut rng = StdRng::seed_from_u64(12);
    let plan = MergePlan::build(MergeConfig::dfm(m), stats, &mut rng).unwrap();

    let mut sizes = response_sizes(&plan, &scenario.dfs);
    sizes.sort_unstable();
    let over_100 = sizes.iter().filter(|&&s| s > 100).count();
    let max_response = sizes.last().copied().unwrap_or(0);

    let decrypt_elements_per_ms = measure_decrypt_throughput();
    Fig12 {
        over_100_fraction: over_100 as f64 / sizes.len().max(1) as f64,
        max_response,
        decrypt_elements_per_ms,
        max_decrypt_ms: max_response as f64 / decrypt_elements_per_ms,
        sizes,
    }
}

/// Measures batch-decryption throughput with precomputed Lagrange
/// weights (2-out-of-3, like the paper's setup).
pub(crate) fn measure_decrypt_throughput() -> f64 {
    use zerber_field::Fp;
    use zerber_shamir::{BatchReconstructor, ServerId, SharingScheme};

    let mut rng = StdRng::seed_from_u64(99);
    let scheme = SharingScheme::random(2, 3, &mut rng).unwrap();
    let secrets: Vec<Fp> = (0..50_000u64).map(Fp::new).collect();
    let rows = scheme.split_batch(&secrets, &mut rng);
    let reconstructor = BatchReconstructor::new(&scheme, &[ServerId(0), ServerId(1)]).unwrap();
    let selected = vec![rows[0].clone(), rows[1].clone()];

    let start = std::time::Instant::now();
    let recovered = reconstructor.reconstruct_all(&selected);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(recovered.len(), secrets.len());
    secrets.len() as f64 / elapsed_ms.max(1e-6)
}

/// Formats the distribution.
pub fn render(fig: &Fig12) -> String {
    let mut table = Table::new(
        "Figure 12: response size per posting list (DFM, largest M)",
        &["percentile", "elements"],
    );
    let pick = |q: f64| -> u64 {
        if fig.sizes.is_empty() {
            return 0;
        }
        fig.sizes[((fig.sizes.len() - 1) as f64 * q) as usize]
    };
    for (label, q) in [("p10", 0.1), ("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        table.row(&[label.to_string(), pick(q).to_string()]);
    }
    table.row(&["max".to_string(), fig.max_response.to_string()]);
    let mut out = table.render();
    out.push_str(&format!(
        "lists with > 100 elements: {:.1}% (paper: ~40%)\n",
        fig.over_100_fraction * 100.0
    ));
    out.push_str(&format!(
        "decrypt throughput: {:.0} elements/ms (paper: ~700); largest response: {:.2} ms (paper: 14.3 ms for 10K elements)\n",
        fig.decrypt_elements_per_ms, fig.max_decrypt_ms
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_distribution_is_heavy_tailed() {
        let fig = run(Scale::Smoke);
        assert!(!fig.sizes.is_empty());
        assert!(fig.max_response >= fig.sizes[fig.sizes.len() / 2]);
        assert!(fig.over_100_fraction <= 1.0);
        assert!(fig.decrypt_elements_per_ms > 0.0);
        // Decryption is fast enough that even the max response is
        // interactive (the paper's qualitative point).
        assert!(fig.max_decrypt_ms < 1_000.0, "{} ms", fig.max_decrypt_ms);
    }
}
