//! Section 5.1 / 7.3 micro-measurements.
//!
//! Paper numbers (2-CPU 2.0 GHz Intel T2500, 2 GB RAM):
//! * share creation for one server, 5,000-distinct-term document:
//!   33 ms;
//! * decryption: 700 elements per millisecond;
//! * Gaussian elimination is O(k^3) but "affordable given that k is
//!   quite small in practice".

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

use zerber_field::Fp;
use zerber_shamir::{BatchReconstructor, ServerId, SharingScheme};

use crate::report::Table;

/// Results of the micro benchmark.
#[derive(Debug)]
pub struct Micro {
    /// Milliseconds to create all shares of a 5,000-element document
    /// (n = 3, k = 2).
    pub split_5000_ms: f64,
    /// Per-server share-creation cost (paper: 33 ms).
    pub split_per_server_ms: f64,
    /// Batch (Lagrange, precomputed weights) decryption throughput in
    /// elements/ms (paper: 700).
    pub lagrange_elements_per_ms: f64,
    /// Gaussian-elimination (Algorithm 1b verbatim) decryption
    /// throughput in elements/ms.
    pub gaussian_elements_per_ms: f64,
    /// Per-k Gaussian vs Lagrange single-element reconstruction
    /// timings `(k, gaussian_ns, lagrange_ns)`.
    pub per_k: Vec<(usize, f64, f64)>,
}

/// Runs all micro measurements.
pub fn run() -> Micro {
    let mut rng = StdRng::seed_from_u64(73);
    let scheme = SharingScheme::random(2, 3, &mut rng).unwrap();

    // --- Split a 5,000-distinct-term document. -----------------------
    let secrets: Vec<Fp> = (0..5_000u64).map(|v| Fp::new(v * 977 + 13)).collect();
    // Warm-up + timed runs.
    let _ = scheme.split_batch(&secrets, &mut rng);
    let runs = 20;
    let start = Instant::now();
    for _ in 0..runs {
        std::hint::black_box(scheme.split_batch(&secrets, &mut rng));
    }
    let split_5000_ms = start.elapsed().as_secs_f64() * 1_000.0 / runs as f64;

    // --- Decrypt throughput, Lagrange fast path. ---------------------
    let big: Vec<Fp> = (0..200_000u64).map(Fp::new).collect();
    let rows = scheme.split_batch(&big, &mut rng);
    let reconstructor = BatchReconstructor::new(&scheme, &[ServerId(0), ServerId(2)]).unwrap();
    let selected = vec![rows[0].clone(), rows[2].clone()];
    let start = Instant::now();
    let recovered = reconstructor.reconstruct_all(&selected);
    let lagrange_ms = start.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(recovered, big);
    let lagrange_elements_per_ms = big.len() as f64 / lagrange_ms.max(1e-9);

    // --- Decrypt throughput, Gaussian (paper's Algorithm 1b). --------
    let sample = 20_000usize;
    let shares: Vec<[zerber_shamir::Share; 2]> = (0..sample)
        .map(|i| {
            let all = scheme.split(big[i], &mut rng);
            [all[0], all[2]]
        })
        .collect();
    let start = Instant::now();
    for share_pair in &shares {
        std::hint::black_box(scheme.reconstruct_gaussian(share_pair).unwrap());
    }
    let gaussian_ms = start.elapsed().as_secs_f64() * 1_000.0;
    let gaussian_elements_per_ms = sample as f64 / gaussian_ms.max(1e-9);

    // --- Gaussian vs Lagrange across k. -------------------------------
    let mut per_k = Vec::new();
    for k in [2usize, 3, 5, 8] {
        let scheme_k = SharingScheme::random(k, k, &mut rng).unwrap();
        let shares: Vec<Vec<zerber_shamir::Share>> = (0..2_000)
            .map(|i| scheme_k.split(Fp::new(i), &mut rng))
            .collect();
        let start = Instant::now();
        for s in &shares {
            std::hint::black_box(scheme_k.reconstruct_gaussian(s).unwrap());
        }
        let gaussian_ns = start.elapsed().as_secs_f64() * 1e9 / shares.len() as f64;
        let start = Instant::now();
        for s in &shares {
            std::hint::black_box(scheme_k.reconstruct(s).unwrap());
        }
        let lagrange_ns = start.elapsed().as_secs_f64() * 1e9 / shares.len() as f64;
        per_k.push((k, gaussian_ns, lagrange_ns));
    }

    Micro {
        split_5000_ms,
        split_per_server_ms: split_5000_ms / 3.0,
        lagrange_elements_per_ms,
        gaussian_elements_per_ms,
        per_k,
    }
}

/// Formats the measurements next to the paper's.
pub fn render(micro: &Micro) -> String {
    let mut table = Table::new(
        "Section 5.1/7.3 micro-measurements (2-out-of-3 unless noted)",
        &["metric", "measured", "paper"],
    );
    table.row(&[
        "share creation, 5000-term doc, per server".into(),
        format!("{:.1} ms", micro.split_per_server_ms),
        "33 ms".into(),
    ]);
    table.row(&[
        "share creation, 5000-term doc, all 3 servers".into(),
        format!("{:.1} ms", micro.split_5000_ms),
        "-".into(),
    ]);
    table.row(&[
        "decrypt throughput (Lagrange batch)".into(),
        format!("{:.0} elements/ms", micro.lagrange_elements_per_ms),
        "700 elements/ms".into(),
    ]);
    table.row(&[
        "decrypt throughput (Gaussian, Algorithm 1b)".into(),
        format!("{:.0} elements/ms", micro.gaussian_elements_per_ms),
        "-".into(),
    ]);
    let mut out = table.render();

    let mut ablation = Table::new(
        "Ablation: reconstruction cost per element vs k",
        &["k", "Gaussian O(k^3)", "Lagrange O(k^2)"],
    );
    for &(k, gaussian_ns, lagrange_ns) in &micro.per_k {
        ablation.row(&[
            k.to_string(),
            format!("{gaussian_ns:.0} ns"),
            format!("{lagrange_ns:.0} ns"),
        ]);
    }
    out.push_str(&ablation.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plausible(micro: &Micro) -> Result<(), String> {
        // Modern hardware beats the 2006 laptop; throughput must at
        // least reach the paper's numbers.
        if micro.lagrange_elements_per_ms <= 700.0 {
            return Err(format!("Lagrange {} el/ms", micro.lagrange_elements_per_ms));
        }
        if micro.split_per_server_ms >= 33.0 * 10.0 {
            return Err(format!("split {} ms/server", micro.split_per_server_ms));
        }
        // Lagrange beats Gaussian for every k, increasingly so.
        for &(k, gaussian_ns, lagrange_ns) in &micro.per_k {
            if gaussian_ns <= lagrange_ns * 0.8 {
                return Err(format!(
                    "k = {k}: gaussian {gaussian_ns} vs lagrange {lagrange_ns}"
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn micro_measurements_are_plausible() {
        // Wall-clock measurements share the CPU with every other test
        // binary `cargo test` runs in parallel — including the
        // scalability sweep, which deliberately saturates all cores
        // with peer and client threads. Retry with a backoff so a
        // contended scheduler slice doesn't fail the suite.
        let mut last = String::new();
        for attempt in 0..6 {
            std::thread::sleep(std::time::Duration::from_millis(250 * attempt));
            match plausible(&run()) {
                Ok(()) => return,
                Err(reason) => last = reason,
            }
        }
        panic!("micro measurements implausible after 6 attempts: {last}");
    }
}
