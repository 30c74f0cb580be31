//! Ranking algorithms by predicted performance and validating the ranking
//! against measurements.

use std::cmp::Ordering;

use dla_blas::Call;
use dla_model::Result;

use crate::predictor::{efficiency_from_ticks, EfficiencyPrediction, TraceEvaluator};

/// Total order for ranking scores best (largest) first, with `NaN` sorted
/// last.
///
/// Predictions can turn out `NaN` (e.g. a degenerate model fit); a ranking
/// must tolerate that instead of panicking mid-sort, and a `NaN` score should
/// never be declared the winner.  Built on [`f64::total_cmp`].
pub fn by_score_desc(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => b.total_cmp(&a),
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (true, true) => Ordering::Equal,
    }
}

/// Ranks labelled traces by predicted median efficiency, best first, in one
/// batched evaluation pass over the evaluator.
///
/// Each candidate is `(label, trace, useful_flops)`; the traces are predicted
/// through [`TraceEvaluator::predict_traces`] — the batch entry point of the
/// compiled evaluation engine — converted to efficiencies, and sorted with
/// [`by_score_desc`] (`NaN` predictions last).  This is the shared core of
/// the pipeline's variant rankings.
pub fn rank_traces_by_efficiency<T, E: TraceEvaluator>(
    evaluator: &E,
    candidates: Vec<(T, Vec<Call>, f64)>,
) -> Result<Vec<(T, EfficiencyPrediction)>> {
    let traces: Vec<&[Call]> = candidates.iter().map(|(_, t, _)| t.as_slice()).collect();
    let predictions = evaluator.predict_traces(&traces)?;
    let mut ranked: Vec<(T, EfficiencyPrediction)> = candidates
        .into_iter()
        .zip(predictions)
        .map(|((label, _, useful_flops), prediction)| {
            let efficiency =
                efficiency_from_ticks(evaluator.machine(), useful_flops, &prediction.ticks);
            (label, efficiency)
        })
        .collect();
    ranked.sort_by(|a, b| by_score_desc(a.1.median, b.1.median));
    Ok(ranked)
}

/// Kendall's τ rank-correlation coefficient between two scorings of the same
/// candidates (identified by index).  Returns a value in `[-1, 1]`; `1` means
/// the two scorings order every pair identically.
pub fn kendall_tau(scores_a: &[f64], scores_b: &[f64]) -> f64 {
    assert_eq!(
        scores_a.len(),
        scores_b.len(),
        "kendall_tau: length mismatch"
    );
    let n = scores_a.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = scores_a[i] - scores_a[j];
            let db = scores_b[i] - scores_b[j];
            let product = da * db;
            if product > 0.0 {
                concordant += 1;
            } else if product < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

/// Returns `true` if the two scorings agree on which candidate is best.
///
/// `lower_is_better` selects whether the best candidate has the smallest or
/// the largest score.
pub fn top_choice_agrees(scores_a: &[f64], scores_b: &[f64], lower_is_better: bool) -> bool {
    assert_eq!(scores_a.len(), scores_b.len());
    if scores_a.is_empty() {
        return true;
    }
    let best = |s: &[f64]| -> usize {
        let mut idx = 0;
        for (i, &v) in s.iter().enumerate() {
            let better = if lower_is_better {
                v < s[idx]
            } else {
                v > s[idx]
            };
            if better {
                idx = i;
            }
        }
        idx
    };
    best(scores_a) == best(scores_b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_scores_sort_last_without_panicking() {
        assert_eq!(by_score_desc(1.0, 2.0), Ordering::Greater);
        assert_eq!(by_score_desc(2.0, 1.0), Ordering::Less);
        assert_eq!(by_score_desc(f64::NAN, 1.0), Ordering::Greater);
        assert_eq!(by_score_desc(1.0, f64::NAN), Ordering::Less);
        assert_eq!(by_score_desc(f64::NAN, f64::NAN), Ordering::Equal);
        // -0.0 and +0.0 keep a stable total order.
        assert_eq!(by_score_desc(-0.0, 0.0), Ordering::Greater);

        let mut scores = [f64::NAN, 0.1, 0.9];
        scores.sort_by(|a, b| by_score_desc(*a, *b));
        assert_eq!(scores[..2], [0.9, 0.1]);
        assert!(scores[2].is_nan());
    }

    #[test]
    fn kendall_tau_perfect_and_inverted() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(kendall_tau(&a, &b), 1.0);
        let c = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(kendall_tau(&a, &c), -1.0);
        assert_eq!(kendall_tau(&[1.0], &[2.0]), 1.0);
    }

    #[test]
    fn kendall_tau_partial_agreement() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 3.0, 2.0];
        // one of three pairs is discordant: tau = (2 - 1) / 3
        assert!((kendall_tau(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn top_choice_agreement() {
        let predicted = [10.0, 5.0, 20.0];
        let measured = [11.0, 6.0, 18.0];
        assert!(top_choice_agrees(&predicted, &measured, true));
        assert!(top_choice_agrees(&predicted, &measured, false));
        let measured_flipped = [4.0, 6.0, 18.0];
        assert!(!top_choice_agrees(&predicted, &measured_flipped, true));
        assert!(top_choice_agrees(&[], &[], true));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn kendall_tau_length_mismatch_panics() {
        let _ = kendall_tau(&[1.0], &[1.0, 2.0]);
    }
}
