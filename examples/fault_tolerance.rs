//! Fault tolerance sweep: drift recovery of the online refinement loop as a
//! function of the measurement fault rate.
//!
//! The scenario is the `online_refinement` example's drifted machine, but the
//! refiner measures through a [`ChaosExecutor`] injecting a mixed fault
//! schedule (40 % transient harness failures, 30 % ×10 latency spikes, 30 %
//! non-finite ticks at the configured rate).  For each fault rate the loop
//! runs the same number of telemetry → refine → merge rounds and reports how
//! much of the drift it recovered and what the fault handling cost:
//! retries, discarded samples, failed fits, quarantined and recovered cells.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use std::sync::Arc;

use dlaperf::blas::{Diag, Side, Trans, Uplo};
use dlaperf::machine::cost::estimate_ticks;
use dlaperf::machine::presets::harpertown_openblas;
use dlaperf::machine::{ChaosConfig, ChaosExecutor, SimExecutor};
use dlaperf::modeler::online::dedupe_templates;
use dlaperf::modeler::{OnlineRefiner, OnlineRefinerConfig, RefinementConfig};
use dlaperf::predict::modelset::{build_repository, workload_templates, ModelSetConfig};
use dlaperf::{Call, Locality, MachineConfig, ModelService, Workload};

/// The post-drift machine: identical id, degraded kernels.
fn drifted(machine: &MachineConfig) -> MachineConfig {
    let mut m = machine.clone();
    m.blas.gemm.peak_efficiency *= 0.55;
    m.blas.trsm.peak_efficiency *= 0.62;
    m.blas.trmm.peak_efficiency *= 0.58;
    m.blas.trsm.half_dim *= 1.8;
    m.blas.trtri_unb.peak_efficiency *= 0.7;
    m
}

/// The served traffic: a mix of trsm/trmm/gemm calls inside the model space.
fn traffic() -> Vec<Call> {
    let mut calls = Vec::new();
    for m in [24usize, 64, 120, 176, 232] {
        for n in [24usize, 72, 136, 200, 248] {
            calls.push(Call::trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                m,
                n,
                1.0,
            ));
            calls.push(Call::trmm(
                Side::Right,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                m,
                n,
                1.0,
            ));
        }
    }
    for m in [32usize, 96, 160, 224] {
        for n in [40usize, 104, 168, 240] {
            for k in [16usize, 64, 112] {
                calls.push(Call::gemm(
                    Trans::NoTrans,
                    Trans::NoTrans,
                    m,
                    n,
                    k,
                    1.0,
                    1.0,
                ));
            }
        }
    }
    calls
}

fn mean_error(service: &ModelService, truth: &MachineConfig, calls: &[Call]) -> f64 {
    let mut acc = 0.0;
    for call in calls {
        let predicted = service.predict_call(call).expect("prediction").median;
        let actual = estimate_ticks(truth, call, Locality::InCache);
        acc += (predicted - actual).abs() / actual;
    }
    acc / calls.len() as f64
}

struct SweepRow {
    rate: f64,
    error_before: f64,
    error_after: f64,
    retries: u64,
    discarded: u64,
    fit_failures: usize,
    quarantined: usize,
    recovered: usize,
}

fn main() {
    let machine = harpertown_openblas();
    let drifted_machine = drifted(&machine);
    let cfg = ModelSetConfig::quick(256);
    let (repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
    let calls = traffic();
    let templates: Vec<Call> = workload_templates(Workload::Trinv, &cfg)
        .into_iter()
        .flat_map(|(calls, _)| calls)
        .collect();
    let templates = dedupe_templates(&templates);
    const ROUNDS: usize = 6;

    println!("machine: {} (drifted)", machine.id());
    println!("refinement rounds per fault rate: {ROUNDS}\n");

    let mut rows = Vec::new();
    for rate in [0.0, 0.10, 0.20, 0.40] {
        let service = Arc::new(ModelService::new(
            repo.clone(),
            machine.clone(),
            Locality::InCache,
        ));
        let error_before = mean_error(&service, &drifted_machine, &calls);
        let chaos = ChaosExecutor::new(
            SimExecutor::new(drifted_machine.clone(), 0xd41f7),
            ChaosConfig::mixed(0xc4a05, rate),
        );
        let mut refiner = OnlineRefiner::new(
            chaos,
            Locality::InCache,
            5,
            OnlineRefinerConfig {
                fit: RefinementConfig {
                    error_bound: 0.10,
                    min_region_size: 64,
                    grid_per_dim: 4,
                    degree: 2,
                },
                sample_budget: 4096,
                max_cells: 256,
            },
        )
        .with_templates(&templates);
        refiner.set_max_retries(6);

        let mut row = SweepRow {
            rate,
            error_before,
            error_after: error_before,
            retries: 0,
            discarded: 0,
            fit_failures: 0,
            quarantined: 0,
            recovered: 0,
        };
        for _ in 0..ROUNDS {
            // Serving the traffic is what feeds the refinement telemetry.
            let _ = mean_error(&service, &drifted_machine, &calls);
            let report = service.refinement_report();
            if report.is_empty() {
                break;
            }
            let (delta, outcome) = refiner.refine(&service.snapshot(), &report);
            service.record_refinement(&outcome);
            if !delta.is_empty() {
                service
                    .merge(delta)
                    .expect("refiner deltas pass the publication gate");
            }
            row.retries += outcome.sample_retries;
            row.discarded += outcome.samples_discarded;
            row.fit_failures += outcome.fit_failures;
            row.quarantined += outcome.cells_quarantined;
            row.recovered += outcome.cells_recovered;
        }
        row.error_after = mean_error(&service, &drifted_machine, &calls);

        let health = service.health();
        assert_eq!(health.publishes_rejected, 0, "refiner deltas never reject");
        println!(
            "fault rate {:>4.0}%: error {:>5.1}% -> {:>4.1}%  \
             (retries {:>4}, discarded {:>4}, failed fits {:>2}, \
             quarantined {}, recovered {})",
            100.0 * row.rate,
            100.0 * row.error_before,
            100.0 * row.error_after,
            row.retries,
            row.discarded,
            row.fit_failures,
            row.quarantined,
            row.recovered,
        );
        rows.push(row);
    }

    println!();
    for row in &rows {
        // The acceptance bar: the loop must recover the drift (2x error
        // reduction) at every fault rate up to 20%.
        if row.rate <= 0.20 {
            assert!(
                row.error_after * 2.0 <= row.error_before,
                "drift must be recovered 2x at {:.0}% faults \
                 (before {}, after {})",
                100.0 * row.rate,
                row.error_before,
                row.error_after
            );
        } else {
            // Heavier chaos may degrade convergence but must never corrupt
            // the served surface: strictly better than before, always.
            assert!(
                row.error_after < row.error_before,
                "even at {:.0}% faults refinement must improve predictions",
                100.0 * row.rate
            );
        }
    }
    println!("fault tolerance sweep complete: drift recovered 2x at up to 20% faults");
}
