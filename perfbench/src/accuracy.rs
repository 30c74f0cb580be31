//! What every workload measures besides speed: prediction accuracy over fixed
//! probe sets (computed after the timed phase, so it is a pure function of
//! the seed), and the refresh round (report → refine → publish → checkpoint).

use dla_core::algos::TrinvVariant;
use dla_core::blas::{Diag, Side, Trans, Uplo};
use dla_core::machine::cost::estimate_ticks;
use dla_core::machine::{Executor, SimExecutor};
use dla_core::mat::stats::Summary;
use dla_core::model::binfmt;
use dla_core::modeler::online::dedupe_templates;
use dla_core::modeler::{OnlineRefiner, OnlineRefinerConfig, RefinementConfig};
use dla_core::predict::blocksize::{default_block_size_candidates, optimize_block_size_trinv};
use dla_core::predict::modelset::{workload_templates, ModelSetConfig, Workload};
use dla_core::predict::ranking::kendall_tau;
use dla_core::predict::workloads::{
    measure_sylv, measure_trinv, rank_sylv_variants, rank_trinv_variants, MeasurementMode,
};
use dla_core::predict::{ModelService, TraceEvaluator};
use dla_core::{Call, Locality, MachineConfig, RefineOutcome};

use crate::stats::mean;
use crate::trace::{span, span_counted, Layer};

/// Ranking probes `(trinv?, n, b)`: the paper's fig. IV.1/IV.5 question.
const RANK_PROBES: [(bool, usize, usize); 8] = [
    (true, 320, 32),
    (true, 576, 64),
    (true, 832, 96),
    (true, 1000, 128),
    (false, 256, 32),
    (false, 448, 64),
    (false, 640, 96),
    (false, 896, 128),
];

/// Block-size sweep probes `(variant, n)` over the 32 default candidates:
/// the fig. IV.2 question.
const SWEEP_PROBES: [(TrinvVariant, usize); 6] = [
    (TrinvVariant::V1, 448),
    (TrinvVariant::V2, 704),
    (TrinvVariant::V3, 960),
    (TrinvVariant::V1, 832),
    (TrinvVariant::V2, 384),
    (TrinvVariant::V3, 576),
];

/// Ranking and tuning accuracy of one evaluator against simulated
/// measurements of the machine it should describe.
#[derive(Debug, Default)]
pub struct RankingAccuracy {
    /// Kendall τ per ranking probe.
    pub taus: Vec<f64>,
    /// `1 − measured efficiency at the predicted best b ÷ best measured
    /// efficiency`, per sweep probe.
    pub regrets: Vec<f64>,
    /// `|predicted − measured| / measured` ticks of every ranked variant.
    pub trace_errors: Vec<f64>,
}

impl RankingAccuracy {
    pub fn extend(&mut self, other: RankingAccuracy) {
        self.taus.extend(other.taus);
        self.regrets.extend(other.regrets);
        self.trace_errors.extend(other.trace_errors);
    }

    pub fn rank_tau(&self) -> f64 {
        mean(&self.taus)
    }

    pub fn bs_regret(&self) -> f64 {
        mean(&self.regrets)
    }
}

/// Ranks the probe variants and sweeps the probe block sizes through
/// `evaluator` (the public `rank_*_variants` / `optimize_block_size_trinv`
/// entry points), and measures every candidate on the simulated `truth`
/// machine: rankings with `seed`'s measurement noise, sweeps without noise
/// (near its flat optimum the measured best block size would otherwise be
/// decided by the noise, not by the model).
pub fn ranking_accuracy<E: TraceEvaluator>(
    evaluator: &E,
    truth: &MachineConfig,
    locality: Locality,
    seed: u64,
) -> Result<RankingAccuracy, String> {
    let mut executor = SimExecutor::new(truth.clone(), seed);
    let mut noiseless = SimExecutor::noiseless(truth.clone());
    let mode = MeasurementMode::Fixed(locality);
    let mut out = RankingAccuracy::default();
    for &(trinv, n, b) in &RANK_PROBES {
        let (predicted, measured): (Vec<f64>, Vec<f64>) = if trinv {
            let ranked = rank_trinv_variants(evaluator, n, b).map_err(|e| e.to_string())?;
            TrinvVariant::ALL
                .iter()
                .map(|&v| {
                    let p = ranked
                        .iter()
                        .find(|(rv, _)| *rv == v)
                        .map(|(_, p)| p.median);
                    (p, measure_trinv(&mut executor, v, n, b, mode).efficiency)
                })
                .map(|(p, m)| (p.unwrap_or(f64::NAN), m))
                .unzip()
        } else {
            let ranked = rank_sylv_variants(evaluator, n, b).map_err(|e| e.to_string())?;
            ranked
                .iter()
                .map(|&(v, p)| {
                    (
                        p.median,
                        measure_sylv(&mut executor, v, n, b, mode).efficiency,
                    )
                })
                .unzip()
        };
        if predicted.iter().any(|p| !p.is_finite() || *p <= 0.0) {
            return Err(format!("non-finite ranking prediction at n={n}, b={b}"));
        }
        out.taus.push(kendall_tau(&predicted, &measured));
        // Efficiency is inversely proportional to ticks.
        out.trace_errors.extend(
            predicted
                .iter()
                .zip(&measured)
                .map(|(p, m)| (m / p - 1.0).abs()),
        );
    }
    let candidates = default_block_size_candidates();
    for &(variant, n) in &SWEEP_PROBES {
        let sweep = optimize_block_size_trinv(evaluator, variant, n, &candidates)
            .map_err(|e| e.to_string())?;
        let best = sweep
            .best_block_size()
            .ok_or("sweep without a finite candidate")?;
        let measured: Vec<(usize, f64)> = sweep
            .candidates
            .iter()
            .map(|&(b, _)| {
                (
                    b,
                    measure_trinv(&mut noiseless, variant, n, b, mode).efficiency,
                )
            })
            .collect();
        let top = measured.iter().map(|m| m.1).fold(0.0, f64::max);
        let at_best = measured.iter().find(|m| m.0 == best).map_or(0.0, |m| m.1);
        out.regrets.push(1.0 - at_best / top);
    }
    Ok(out)
}

/// Single-call probes inside every routine's default model space: each
/// trinv/sylv routine at a spread of sizes away from the sample grid.
pub fn probe_calls() -> Vec<Call> {
    let sizes = [20usize, 52, 100, 164, 236, 300, 452, 620, 780, 1012];
    let mut calls = Vec::new();
    for (i, &m) in sizes.iter().enumerate() {
        let n = sizes[(i + 3) % sizes.len()];
        let k = [24usize, 72, 136, 200, 250][i % 5];
        calls.push(Call::trmm(
            Side::Right,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            m,
            n,
            1.0,
        ));
        calls.push(Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            m,
            n,
            1.0,
        ));
        calls.push(Call::trsm(
            Side::Right,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            m,
            n,
            1.0,
        ));
        calls.push(Call::gemm(
            Trans::NoTrans,
            Trans::NoTrans,
            m,
            n,
            k,
            1.0,
            1.0,
        ));
        calls.push(Call::sylv_unb(m.min(250), n.min(250)));
        calls.push(Call::trtri_unb(Uplo::Lower, Diag::NonUnit, m.min(250)));
    }
    calls
}

/// `|predicted − truth| / truth` of every probe call, with the truth the
/// noise-free cost of `truth` (the machine the model should describe).
pub fn call_errors(
    truth: &MachineConfig,
    locality: Locality,
    mut predict: impl FnMut(&Call) -> Result<Summary, String>,
) -> Result<Vec<f64>, String> {
    probe_calls()
        .iter()
        .map(|call| {
            let predicted = predict(call)?.median;
            let actual = estimate_ticks(truth, call, locality);
            Ok((predicted - actual).abs() / actual)
        })
        .collect()
}

/// `machine` after a library update: same id, slower kernels (the drift of
/// the `online_refinement` example).  Refresh rounds refine against it.
pub fn drifted(machine: &MachineConfig) -> MachineConfig {
    let mut m = machine.clone();
    m.blas.gemm.peak_efficiency *= 0.55;
    m.blas.trsm.peak_efficiency *= 0.62;
    m.blas.trmm.peak_efficiency *= 0.58;
    m.blas.trsm.half_dim *= 1.8;
    m.blas.trtri_unb.peak_efficiency *= 0.7;
    m
}

/// A long-lived refiner for one service: measures `machine` (possibly
/// drifted from what the models were built on) through `executor`.
pub fn refiner<E: Executor>(executor: E, locality: Locality) -> OnlineRefiner<E> {
    let config = ModelSetConfig::default();
    let templates: Vec<Call> = [Workload::Trinv, Workload::Sylv]
        .iter()
        .flat_map(|&w| workload_templates(w, &config))
        .flat_map(|(calls, _)| calls)
        .collect();
    OnlineRefiner::new(
        executor,
        locality,
        config.repetitions,
        OnlineRefinerConfig {
            fit: RefinementConfig {
                error_bound: 0.10,
                min_region_size: 64,
                grid_per_dim: 4,
                degree: 2,
            },
            ..OnlineRefinerConfig::default()
        },
    )
    .with_templates(&dedupe_templates(&templates))
}

/// The per-layer counts of a run's refresh rounds: mean samples used and
/// cells refined per round.
pub fn round_counts(rounds: &[RefineOutcome]) -> [(&'static str, f64); 2] {
    let samples: Vec<f64> = rounds.iter().map(|r| r.samples_used as f64).collect();
    let cells: Vec<f64> = rounds.iter().map(|r| r.cells_refined as f64).collect();
    [
        ("modeler.online.samples", mean(&samples)),
        ("modeler.online.cells", mean(&cells)),
    ]
}

/// One refresh round: snapshot the served telemetry, re-sample the hottest
/// cells, publish the delta, and write a binary checkpoint of the result.
pub fn refresh<E: Executor>(
    service: &ModelService,
    refiner: &mut OnlineRefiner<E>,
) -> Result<RefineOutcome, String> {
    let report = span(Layer::Report, || service.refinement_report());
    let snapshot = service.snapshot();
    let (delta, outcome) = span_counted(
        Layer::Refine,
        || refiner.refine(&snapshot, &report),
        |r| r.1.samples_used as u64,
    );
    if !delta.is_empty() {
        span(Layer::Publish, || service.merge(delta)).map_err(|e| format!("publish: {e}"))?;
    }
    span_counted(
        Layer::Encode,
        || binfmt::encode(&service.compiled_snapshot()),
        |b| b.as_ref().map_or(0, |b| b.len() as u64),
    )
    .map_err(|e| format!("checkpoint: {e}"))?;
    Ok(outcome)
}
