//! Figure 10: workload-cost ratio QRatio(t) (formula (8)) for terms of
//! low/medium/high document frequency, across table sizes and
//! heuristics.
//!
//! Paper reading: "merging mostly affects the costs of queries with
//! rarer terms. Overall, increasing M significantly improves the cost
//! ratios for terms with low and medium DF … queries over terms with
//! high and medium DF are nearly unaffected by merging [at 32K].
//! UDM slows down queries over low-DF terms more than the other
//! schemes do."
//!
//! The paper's DF targets {1, 1000, 3500} are fractions of its 237k
//! documents; we scale them to the synthetic corpus size.

use rand::rngs::StdRng;
use rand::SeedableRng;

use zerber_core::analysis::qratio;
use zerber_core::merge::{MergeConfig, MergeHeuristic, MergePlan};
use zerber_index::TermId;

use crate::report::Table;
use crate::scenario::{OdpScenario, Scale};

/// One measured cell.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Cell {
    /// Heuristic.
    pub heuristic: MergeHeuristic,
    /// Table size.
    pub m: u32,
    /// The DF bucket's nominal target.
    pub df_target: u64,
    /// Geometric-mean QRatio over sampled terms of that DF.
    pub qratio: f64,
    /// Terms averaged.
    pub terms: usize,
}

/// DF targets scaled from the paper's {1, 1000, 3500} @ 237k docs.
pub(crate) fn df_targets(num_docs: usize) -> [u64; 3] {
    let scale = num_docs as f64 / 237_000.0;
    [
        1,
        ((1_000.0 * scale).round() as u64).max(2),
        ((3_500.0 * scale).round() as u64).max(4),
    ]
}

/// Runs the full sweep.
pub fn run(scale: Scale) -> Vec<Fig10Cell> {
    let scenario = OdpScenario::shared(scale);
    let stats = &scenario.learned_stats;
    let targets = df_targets(scenario.corpus.documents.len());
    let mut rng = StdRng::seed_from_u64(10);

    // Sample terms whose true DF is closest to each target and which
    // are actually queried (QRatio needs qf > 0).
    let sample_terms = |target: u64| -> Vec<TermId> {
        let mut candidates: Vec<(u64, TermId)> = scenario
            .dfs
            .iter()
            .enumerate()
            .filter(|&(t, &df)| df > 0 && scenario.workload.frequency(TermId(t as u32)) > 0)
            .map(|(t, &df)| (df.abs_diff(target), TermId(t as u32)))
            .collect();
        candidates.sort_unstable();
        candidates.into_iter().take(30).map(|(_, t)| t).collect()
    };
    let buckets: Vec<(u64, Vec<TermId>)> = targets.iter().map(|&t| (t, sample_terms(t))).collect();

    let mut cells = Vec::new();
    for m in scale.list_counts() {
        for heuristic in MergeHeuristic::ALL {
            let config = match heuristic {
                MergeHeuristic::DepthFirst => MergeConfig::dfm(m),
                MergeHeuristic::BreadthFirst => MergeConfig::bfm_lists(m),
                MergeHeuristic::Uniform => MergeConfig::udm(m),
            };
            let plan = MergePlan::build(config, stats, &mut rng).unwrap();
            for (target, terms) in &buckets {
                let ratios: Vec<f64> = terms
                    .iter()
                    .filter_map(|&t| qratio(&plan, &scenario.dfs, &scenario.workload, t))
                    .collect();
                let geo_mean = if ratios.is_empty() {
                    f64::NAN
                } else {
                    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
                };
                cells.push(Fig10Cell {
                    heuristic,
                    m,
                    df_target: *target,
                    qratio: geo_mean,
                    terms: ratios.len(),
                });
            }
        }
    }
    cells
}

/// Formats one sub-figure per heuristic, like the paper's three plots.
pub fn render(cells: &[Fig10Cell], scale: Scale) -> String {
    let mut out = String::new();
    let ms = scale.list_counts();
    for heuristic in MergeHeuristic::ALL {
        let targets: Vec<u64> = {
            let mut t: Vec<u64> = cells
                .iter()
                .filter(|c| c.heuristic == heuristic)
                .map(|c| c.df_target)
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        let mut table = Table::new(
            format!(
                "Figure 10 ({}): QRatio (merged/unmerged cost) by DF bucket",
                heuristic.name()
            ),
            &["M", "DF=low", "DF=med", "DF=high"],
        );
        for &m in &ms {
            let mut row = vec![m.to_string()];
            for &target in &targets {
                let cell = cells
                    .iter()
                    .find(|c| c.heuristic == heuristic && c.m == m && c.df_target == target)
                    .expect("cell exists");
                row.push(format!("{:.1}", cell.qratio));
            }
            table.row(&row);
        }
        out.push_str(&table.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qratio_shape_matches_the_paper() {
        let cells = run(Scale::Smoke);
        let max_m = *Scale::Smoke.list_counts().last().unwrap();
        let min_m = Scale::Smoke.list_counts()[0];

        let get = |h: MergeHeuristic, m: u32, bucket: usize| -> f64 {
            let targets = {
                let mut t: Vec<u64> = cells.iter().map(|c| c.df_target).collect();
                t.sort_unstable();
                t.dedup();
                t
            };
            cells
                .iter()
                .find(|c| c.heuristic == h && c.m == m && c.df_target == targets[bucket])
                .unwrap()
                .qratio
        };

        // More lists => lower QRatio for low-DF terms.
        let coarse = get(MergeHeuristic::DepthFirst, min_m, 0);
        let fine = get(MergeHeuristic::DepthFirst, max_m, 0);
        assert!(fine < coarse, "low-DF: fine {fine} vs coarse {coarse}");

        // High-DF terms are nearly unaffected at the largest M
        // (QRatio close to 1 under DFM/BFM).
        let high = get(MergeHeuristic::DepthFirst, max_m, 2);
        assert!(high < 10.0, "high-DF QRatio at max M: {high}");

        // UDM penalizes low-DF terms at least as much as DFM at max M.
        let udm_low = get(MergeHeuristic::Uniform, max_m, 0);
        let dfm_low = get(MergeHeuristic::DepthFirst, max_m, 0);
        assert!(
            udm_low >= dfm_low * 0.5,
            "UDM low-DF {udm_low} vs DFM {dfm_low}"
        );

        // All ratios are >= 1 (merging never speeds a term up).
        for cell in &cells {
            assert!(cell.qratio >= 1.0 - 1e-9 || cell.qratio.is_nan());
        }
    }
}
