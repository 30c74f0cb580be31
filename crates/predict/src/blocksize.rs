//! Block-size optimisation from performance models (paper Section IV-A2).

use dla_algos::{trinv_trace, TrinvVariant};
use dla_blas::flops::trinv_useful_flops;
use dla_blas::Call;
use dla_model::Result;

use crate::predictor::{efficiency_from_ticks, EfficiencyPrediction, TraceEvaluator};

/// The outcome of a block-size sweep for one algorithm variant.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSizeSweep {
    /// The variant that was tuned.
    pub variant: TrinvVariant,
    /// The problem size the sweep was performed for.
    pub n: usize,
    /// `(block size, predicted efficiency)` for every candidate.
    pub candidates: Vec<(usize, EfficiencyPrediction)>,
    /// Calls predicted (non-degenerate calls) over all candidate traces
    /// combined.  The batched path evaluates a repeated call once but
    /// counts every repeat here.
    pub evaluated_calls: usize,
}

impl BlockSizeSweep {
    /// The block size with the highest predicted median efficiency.
    ///
    /// `NaN` predictions never win: they are skipped, and if every candidate
    /// predicts `NaN` there is no meaningful optimum, so `None` is returned.
    pub fn best_block_size(&self) -> Option<usize> {
        self.candidates
            .iter()
            .filter(|(_, e)| !e.median.is_nan())
            .max_by(|a, b| a.1.median.total_cmp(&b.1.median))
            .map(|(b, _)| *b)
    }

    /// The predicted efficiency at the best block size.
    pub fn best_efficiency(&self) -> Option<f64> {
        self.best_block_size().and_then(|b| {
            self.candidates
                .iter()
                .find(|(bs, _)| *bs == b)
                .map(|(_, e)| e.median)
        })
    }
}

/// Default candidate block sizes: multiples of 8 between 8 and 256, the range
/// the paper sweeps in Figures I.2 and IV.2.
pub fn default_block_size_candidates() -> Vec<usize> {
    (1..=32).map(|i| i * 8).collect()
}

/// Sweeps candidate block sizes for a triangular-inversion variant and
/// returns the predictions.
///
/// Generic over the evaluator: pass a [`Predictor`](crate::Predictor) for
/// one-shot evaluation or a [`ModelService`](crate::ModelService) for
/// concurrent serving with refinement telemetry.
pub fn optimize_block_size_trinv<E: TraceEvaluator>(
    evaluator: &E,
    variant: TrinvVariant,
    n: usize,
    candidates: &[usize],
) -> Result<BlockSizeSweep> {
    let kept: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&b| b > 0 && b <= n)
        .collect();
    // One batched pass over all candidate traces (the compiled engine's bulk
    // entry point) instead of a predict call per candidate.
    let traces: Vec<Vec<Call>> = kept
        .iter()
        .map(|&b| trinv_trace(variant, n, b, n))
        .collect();
    let trace_refs: Vec<&[Call]> = traces.iter().map(|t| t.as_slice()).collect();
    let predictions = evaluator.predict_traces(&trace_refs)?;
    let evaluated_calls: usize = predictions.iter().map(|p| p.predicted_calls).sum();
    let useful_flops = trinv_useful_flops(n);
    let results = kept
        .into_iter()
        .zip(predictions)
        .map(|(b, p)| {
            (
                b,
                efficiency_from_ticks(evaluator.machine(), useful_flops, &p.ticks),
            )
        })
        .collect();
    Ok(BlockSizeSweep {
        variant,
        n,
        candidates: results,
        evaluated_calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modelset::{build_repository, ModelSetConfig, Workload};
    use crate::predictor::Predictor;
    use dla_machine::presets::harpertown_openblas;
    use dla_machine::Locality;

    #[test]
    fn all_nan_sweep_has_no_best_block_size() {
        let nan = EfficiencyPrediction {
            median: f64::NAN,
            mean: f64::NAN,
            min: f64::NAN,
            max: f64::NAN,
        };
        let mut sweep = BlockSizeSweep {
            variant: TrinvVariant::V1,
            n: 128,
            candidates: vec![(32, nan), (64, nan)],
            evaluated_calls: 0,
        };
        assert_eq!(sweep.best_block_size(), None);
        assert_eq!(sweep.best_efficiency(), None);
        // A single finite candidate wins over any number of NaN ones.
        let finite = EfficiencyPrediction {
            median: 0.5,
            mean: 0.5,
            min: 0.4,
            max: 0.6,
        };
        sweep.candidates.push((96, finite));
        assert_eq!(sweep.best_block_size(), Some(96));
    }

    #[test]
    fn candidate_list_matches_paper_range() {
        let c = default_block_size_candidates();
        assert_eq!(c.first(), Some(&8));
        assert_eq!(c.last(), Some(&256));
        assert!(c.iter().all(|b| b % 8 == 0));
    }

    #[test]
    fn sweep_prefers_moderate_block_sizes() {
        let machine = harpertown_openblas();
        let cfg = ModelSetConfig::quick(512);
        let (repo, _) = build_repository(&machine, Locality::InCache, 5, &cfg, &[Workload::Trinv]);
        let predictor = Predictor::new(&repo, machine, Locality::InCache);
        let sweep = optimize_block_size_trinv(
            &predictor,
            TrinvVariant::V3,
            448,
            &[8, 16, 32, 64, 96, 128, 192, 256],
        )
        .unwrap();
        let best = sweep.best_block_size().unwrap();
        assert!(
            (32..=192).contains(&best),
            "optimal block size {best} should be moderate"
        );
        // Tiny block sizes are clearly worse than the optimum.
        let eff_at = |b: usize| {
            sweep
                .candidates
                .iter()
                .find(|(bs, _)| *bs == b)
                .map(|(_, e)| e.median)
                .unwrap()
        };
        assert!(sweep.best_efficiency().unwrap() > 1.3 * eff_at(8));
        assert_eq!(sweep.variant, TrinvVariant::V3);
        assert_eq!(sweep.n, 448);
    }

    #[test]
    fn candidates_larger_than_n_are_skipped() {
        let machine = harpertown_openblas();
        let cfg = ModelSetConfig::quick(128);
        let (repo, _) = build_repository(&machine, Locality::InCache, 6, &cfg, &[Workload::Trinv]);
        let predictor = Predictor::new(&repo, machine, Locality::InCache);
        let sweep =
            optimize_block_size_trinv(&predictor, TrinvVariant::V1, 96, &[32, 64, 512, 0]).unwrap();
        assert_eq!(sweep.candidates.len(), 2);
    }
}
