//! Wiring the paper's two workloads to the Predictor and to simulated
//! "measurements".
//!
//! A *prediction* evaluates stored models over an algorithm's trace.  A
//! *measurement* executes the same trace call by call on an executor (the
//! simulated machine with noise, or the native executor) and sums the
//! measured ticks — this is the reproduction's stand-in for actually running
//! the algorithm on hardware, and it is what the predictions are validated
//! against in every figure of Section IV.

use dla_algos::{sylv_trace, trinv_trace, SylvVariant, TrinvVariant};
use dla_blas::flops::{is_empty_call, sylv_flops, trinv_useful_flops};
use dla_blas::Call;
use dla_machine::{Executor, Locality};
use dla_model::Result;

use crate::predictor::{EfficiencyPrediction, TraceEvaluator};
use crate::ranking::rank_traces_by_efficiency;

/// How operand locality is chosen when "measuring" a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasurementMode {
    /// Every call runs with the given locality.
    Fixed(Locality),
    /// Calls whose operands fit in half of the last-level cache run in-cache,
    /// larger calls run out-of-cache.  Real executions sit between the two
    /// pure scenarios (paper Section IV-A1); this mode reproduces that.
    Auto,
}

/// The measured (simulated) execution of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceMeasurement {
    /// Total measured ticks.
    pub ticks: f64,
    /// Efficiency with respect to the workload's useful flop count.
    pub efficiency: f64,
    /// Number of calls executed.
    pub calls: usize,
}

/// Warms up the executor's "library" by running one tiny call of every
/// routine appearing in the trace, so that the measurement itself does not
/// include the first-invocation initialisation penalty (the paper explicitly
/// neglects these first measurements, Section II-B).
pub fn warm_up_library<E: Executor>(executor: &mut E, trace: &[Call]) {
    let mut seen = std::collections::HashSet::new();
    for call in trace {
        let routine = call.routine();
        if seen.insert(routine) {
            let sizes = vec![8; routine.size_count()];
            let tiny = call.with_sizes(&sizes);
            let _ = executor.execute(&tiny, Locality::InCache);
        }
    }
}

/// Executes every call of a trace once and accumulates the ticks.
///
/// The executor's library is warmed up first (see [`warm_up_library`]).
pub fn measure_trace<E: Executor>(
    executor: &mut E,
    trace: &[Call],
    useful_flops: f64,
    mode: MeasurementMode,
) -> TraceMeasurement {
    warm_up_library(executor, trace);
    let half_llc = executor
        .machine()
        .cpu
        .last_level_cache()
        .map(|c| c.size_bytes / 2)
        .unwrap_or(usize::MAX);
    let mut ticks = 0.0;
    let mut calls = 0;
    for call in trace {
        if is_empty_call(call) {
            continue;
        }
        let locality = match mode {
            MeasurementMode::Fixed(l) => l,
            MeasurementMode::Auto => {
                if call.operand_bytes() <= half_llc {
                    Locality::InCache
                } else {
                    Locality::OutOfCache
                }
            }
        };
        ticks += executor.execute(call, locality).ticks;
        calls += 1;
    }
    let efficiency = executor.machine().efficiency(useful_flops, ticks);
    TraceMeasurement {
        ticks,
        efficiency,
        calls,
    }
}

/// Predicts the efficiency of one triangular-inversion variant.
///
/// Generic over the evaluator: pass a [`Predictor`](crate::Predictor) for
/// one-shot evaluation or a [`ModelService`](crate::ModelService) for
/// concurrent serving.
pub fn predict_trinv<E: TraceEvaluator>(
    evaluator: &E,
    variant: TrinvVariant,
    n: usize,
    block_size: usize,
) -> Result<EfficiencyPrediction> {
    let trace = trinv_trace(variant, n, block_size, n);
    evaluator.predict_efficiency(&trace, trinv_useful_flops(n))
}

/// Predicts the efficiency of every triangular-inversion variant and returns
/// them ranked best first (by predicted median efficiency, `NaN` last), in
/// one batched evaluation pass.
pub fn rank_trinv_variants<E: TraceEvaluator>(
    evaluator: &E,
    n: usize,
    block_size: usize,
) -> Result<Vec<(TrinvVariant, EfficiencyPrediction)>> {
    let useful_flops = trinv_useful_flops(n);
    let candidates: Vec<(TrinvVariant, Vec<Call>, f64)> = TrinvVariant::ALL
        .iter()
        .map(|&v| (v, trinv_trace(v, n, block_size, n), useful_flops))
        .collect();
    rank_traces_by_efficiency(evaluator, candidates)
}

/// Predicts the efficiency of every Sylvester variant on an `n x n` problem
/// and returns them ranked best first, in one batched evaluation pass.
pub fn rank_sylv_variants<E: TraceEvaluator>(
    evaluator: &E,
    n: usize,
    block_size: usize,
) -> Result<Vec<(SylvVariant, EfficiencyPrediction)>> {
    let useful_flops = sylv_flops(n, n);
    let candidates: Vec<(SylvVariant, Vec<Call>, f64)> = SylvVariant::all()
        .into_iter()
        .map(|v| (v, sylv_trace(v, n, n, block_size, n), useful_flops))
        .collect();
    rank_traces_by_efficiency(evaluator, candidates)
}

/// Measures (by simulated execution) the efficiency of one
/// triangular-inversion variant.
pub fn measure_trinv<E: Executor>(
    executor: &mut E,
    variant: TrinvVariant,
    n: usize,
    block_size: usize,
    mode: MeasurementMode,
) -> TraceMeasurement {
    let trace = trinv_trace(variant, n, block_size, n);
    measure_trace(executor, &trace, trinv_useful_flops(n), mode)
}

/// Predicts the efficiency of one Sylvester variant on an `n x n` problem.
pub fn predict_sylv<E: TraceEvaluator>(
    evaluator: &E,
    variant: SylvVariant,
    n: usize,
    block_size: usize,
) -> Result<EfficiencyPrediction> {
    let trace = sylv_trace(variant, n, n, block_size, n);
    evaluator.predict_efficiency(&trace, sylv_flops(n, n))
}

/// Measures (by simulated execution) the efficiency of one Sylvester variant.
pub fn measure_sylv<E: Executor>(
    executor: &mut E,
    variant: SylvVariant,
    n: usize,
    block_size: usize,
    mode: MeasurementMode,
) -> TraceMeasurement {
    let trace = sylv_trace(variant, n, n, block_size, n);
    measure_trace(executor, &trace, sylv_flops(n, n), mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modelset::{build_repository, ModelSetConfig, Workload};
    use crate::predictor::Predictor;
    use crate::ranking::{kendall_tau, top_choice_agrees};
    use dla_machine::presets::harpertown_openblas;
    use dla_machine::SimExecutor;

    #[test]
    fn measured_trinv_ranks_variant4_last() {
        let machine = harpertown_openblas();
        let mut executor = SimExecutor::new(machine, 7);
        let effs: Vec<f64> = TrinvVariant::ALL
            .iter()
            .map(|&v| measure_trinv(&mut executor, v, 512, 96, MeasurementMode::Auto).efficiency)
            .collect();
        // Variant 4 performs ~2.5x the work and must be clearly slowest.
        for i in 0..3 {
            assert!(
                effs[i] > 1.5 * effs[3],
                "variant {} ({}) should beat variant 4 ({})",
                i + 1,
                effs[i],
                effs[3]
            );
        }
        // Efficiencies are sane fractions of peak.
        assert!(effs.iter().all(|&e| e > 0.0 && e < 1.0));
    }

    #[test]
    fn predictions_rank_trinv_variants_like_measurements() {
        let machine = harpertown_openblas();
        let cfg = ModelSetConfig::quick(512);
        let (repo, _) = build_repository(&machine, Locality::InCache, 3, &cfg, &[Workload::Trinv]);
        let predictor = Predictor::new(&repo, machine.clone(), Locality::InCache);
        let n = 448;
        let b = 96;
        let predicted: Vec<f64> = TrinvVariant::ALL
            .iter()
            .map(|&v| predict_trinv(&predictor, v, n, b).unwrap().median)
            .collect();
        let mut executor = SimExecutor::new(machine, 11);
        let measured: Vec<f64> = TrinvVariant::ALL
            .iter()
            .map(|&v| {
                measure_trinv(
                    &mut executor,
                    v,
                    n,
                    b,
                    MeasurementMode::Fixed(Locality::InCache),
                )
                .efficiency
            })
            .collect();
        assert!(
            kendall_tau(&predicted, &measured) >= 0.6,
            "predicted {predicted:?} vs measured {measured:?}"
        );
        assert!(top_choice_agrees(&predicted, &measured, false));
        // In-cache predictions bound the mixed-locality measurement from above
        // for the fastest variant (paper Fig. IV.1).
        let mut executor = SimExecutor::new(harpertown_openblas(), 13);
        let auto =
            measure_trinv(&mut executor, TrinvVariant::V3, n, b, MeasurementMode::Auto).efficiency;
        assert!(predicted[2] >= auto * 0.8);
    }

    #[test]
    fn sylvester_groups_are_separated_in_measurement() {
        let machine = harpertown_openblas();
        let mut executor = SimExecutor::new(machine, 21);
        let n = 768;
        let effs: Vec<(SylvVariant, f64)> = SylvVariant::all()
            .into_iter()
            .map(|v| {
                let e = measure_sylv(&mut executor, v, n, 96, MeasurementMode::Auto).efficiency;
                (v, e)
            })
            .collect();
        let fast: Vec<f64> = effs
            .iter()
            .filter(|(v, _)| v.is_gemm_rich())
            .map(|(_, e)| *e)
            .collect();
        let slow: Vec<f64> = effs
            .iter()
            .filter(|(v, _)| !v.is_gemm_rich())
            .map(|(_, e)| *e)
            .collect();
        let worst_fast = fast.iter().cloned().fold(f64::INFINITY, f64::min);
        let best_slow = slow.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            worst_fast > 2.0 * best_slow,
            "fast group {fast:?} must clearly beat slow group {slow:?}"
        );
    }

    #[test]
    fn measurement_modes_differ() {
        let machine = harpertown_openblas();
        let mut executor = SimExecutor::new(machine, 5);
        let ic = measure_trinv(
            &mut executor,
            TrinvVariant::V1,
            256,
            64,
            MeasurementMode::Fixed(Locality::InCache),
        );
        let oc = measure_trinv(
            &mut executor,
            TrinvVariant::V1,
            256,
            64,
            MeasurementMode::Fixed(Locality::OutOfCache),
        );
        assert!(oc.ticks > ic.ticks);
        assert!(oc.efficiency < ic.efficiency);
        assert_eq!(ic.calls, oc.calls);
    }
}
