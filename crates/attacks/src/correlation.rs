//! The update-watching correlation attack (Sections 5.4.1 and 7.1).
//!
//! "By monitoring the sequence of updates, Alice can guess that a set
//! of new posting elements refers to the same document. … Inserting
//! elements from several documents in one batch makes it hard for
//! Alice to guess which terms co-occur."
//!
//! The simulation: documents arrive at a compromised server in batches
//! of `docs_per_batch` documents (elements shuffled within a batch, as
//! a MIX or multi-owner pooling would deliver them). Alice guesses
//! that every pair of elements in one batch co-occurs in a document.
//! Precision = true co-occurring pairs / guessed pairs; with one
//! document per batch she is always right (the paper's "Alice may be
//! able to violate r-confidentiality for newly created documents"),
//! and precision decays roughly as `1 / docs_per_batch`.

use rand::Rng;

/// Outcome of one correlation experiment.
#[derive(Debug, Clone)]
pub struct CorrelationReport {
    /// Documents per observed batch.
    pub docs_per_batch: usize,
    /// Pairs Alice guessed (all intra-batch pairs).
    pub guessed_pairs: u64,
    /// Guessed pairs that really co-occur in one document.
    pub correct_pairs: u64,
    /// Precision of the attack.
    pub precision: f64,
}

/// Runs the attack. `documents[i]` is the number of posting elements
/// document `i` contributes (its distinct-term count). Elements of the
/// documents inside one batch arrive shuffled.
pub fn correlation_attack_precision<R: Rng + ?Sized>(
    documents: &[usize],
    docs_per_batch: usize,
    _rng: &mut R,
) -> CorrelationReport {
    assert!(docs_per_batch >= 1, "batches contain at least one document");
    let mut guessed_pairs = 0u64;
    let mut correct_pairs = 0u64;
    for batch in documents.chunks(docs_per_batch) {
        let batch_elements: u64 = batch.iter().map(|&e| e as u64).sum();
        // All unordered pairs within the batch.
        guessed_pairs += batch_elements * batch_elements.saturating_sub(1) / 2;
        // Of those, the truly co-occurring ones are the intra-document
        // pairs.
        correct_pairs += batch
            .iter()
            .map(|&e| {
                let e = e as u64;
                e * e.saturating_sub(1) / 2
            })
            .sum::<u64>();
    }
    CorrelationReport {
        docs_per_batch,
        guessed_pairs,
        correct_pairs,
        precision: if guessed_pairs == 0 {
            1.0
        } else {
            correct_pairs as f64 / guessed_pairs as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_document_batches_leak_cooccurrence_fully() {
        let mut rng = StdRng::seed_from_u64(1);
        let docs = vec![10usize; 50];
        let report = correlation_attack_precision(&docs, 1, &mut rng);
        assert_eq!(report.precision, 1.0);
        assert_eq!(report.guessed_pairs, report.correct_pairs);
    }

    #[test]
    fn precision_decays_with_batch_size() {
        let mut rng = StdRng::seed_from_u64(2);
        let docs = vec![10usize; 120];
        let mut previous = f64::INFINITY;
        for batch in [1usize, 2, 5, 10, 30] {
            let report = correlation_attack_precision(&docs, batch, &mut rng);
            assert!(
                report.precision <= previous + 1e-12,
                "precision should be non-increasing: batch {batch}"
            );
            previous = report.precision;
        }
        // At batch 10 with equal docs, precision ≈ 1/10 (intra-doc
        // pairs over all pairs).
        let report = correlation_attack_precision(&docs, 10, &mut rng);
        assert!(
            (report.precision - 0.09).abs() < 0.03,
            "{}",
            report.precision
        );
    }

    #[test]
    fn empty_documents_are_harmless() {
        let mut rng = StdRng::seed_from_u64(3);
        let report = correlation_attack_precision(&[0, 0, 0], 2, &mut rng);
        assert_eq!(report.guessed_pairs, 0);
        assert_eq!(report.precision, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one document")]
    fn zero_batch_size_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = correlation_attack_precision(&[1], 0, &mut rng);
    }
}
