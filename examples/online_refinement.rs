//! Online adaptive refinement: close the loop from serving telemetry back to
//! the Sampler on a machine that drifted after the models were built.
//!
//! The flow (telemetry → report → targeted refine → hot swap):
//!
//! 1. build models offline on the simulated Harpertown machine;
//! 2. let the machine *drift* (same identity, slower kernels — think library
//!    update or a noisy neighbour) so the served predictions go stale;
//! 3. serve prediction traffic through the [`ModelService`] — its per-region
//!    telemetry counts which `(routine, flags, region)` cells answer;
//! 4. ask for a `refinement_report()` (cells ranked by `queries × fit_error`)
//!    and hand it to an [`OnlineRefiner`] measuring the *drifted* machine;
//! 5. the refiner re-samples only the offending regions within a sample
//!    budget and returns a delta repository, which the service publishes via
//!    its submodel-granular hot-swap merge — serving never stops.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example online_refinement
//! ```

use std::time::Instant;

use dlaperf::blas::{Diag, Side, Trans, Uplo};
use dlaperf::machine::cost::estimate_ticks;
use dlaperf::machine::presets::harpertown_openblas;
use dlaperf::machine::SimExecutor;
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

fn main() {
    let machine = harpertown_openblas();
    println!("machine: {}", machine.id());

    // 1. Offline build on the pre-drift machine.
    let cfg = ModelSetConfig::quick(256);
    let (repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
    let service = ModelService::new(repo, machine.clone(), Locality::InCache);

    // 2. The machine drifts.
    let drifted_machine = drifted(&machine);
    assert_eq!(machine.id(), drifted_machine.id());
    println!("machine drifted: kernels now run 40-45% slower than modelled");

    // 3. Serve traffic; telemetry accumulates per answering region.
    let calls = traffic();
    let error_before = mean_error(&service, &drifted_machine, &calls);
    println!(
        "served {} predictions; mean error vs drifted machine: {:.1}%",
        calls.len(),
        100.0 * error_before
    );

    // 4. The refinement report ranks the served cells by queries x fit_error.
    let report = service.refinement_report();
    println!(
        "refinement report: {} hot cells over {} queries (generation {})",
        report.cells.len(),
        report.total_queries,
        report.generation
    );
    for cell in report.top(3) {
        println!(
            "  hot: {} flags {:?} region {} (error {:.3}, {} queries)",
            cell.routine, cell.flags, cell.region, cell.fit_error, cell.queries
        );
    }

    // 5. Targeted refinement on the *drifted* machine, then hot-swap publish.
    let templates: Vec<Call> = workload_templates(Workload::Trinv, &cfg)
        .into_iter()
        .flat_map(|(calls, _)| calls)
        .collect();
    let mut refiner = OnlineRefiner::new(
        SimExecutor::new(drifted_machine.clone(), 0xd41f7),
        Locality::InCache,
        3,
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
    .with_templates(&dedupe_templates(&templates));

    let refine_start = Instant::now();
    let snapshot = service.snapshot();
    let (delta, outcome) = refiner.refine(&snapshot, &report);
    let refine_time = refine_start.elapsed();
    let swap_start = Instant::now();
    service.merge(delta).unwrap();
    let swap_time = swap_start.elapsed();
    println!(
        "refined {} cells ({} regions -> {} regions, {} samples) in {:.1?}; \
         merge + hot swap in {:.1?}",
        outcome.cells_refined,
        outcome.regions_rebuilt,
        outcome.regions_added,
        outcome.samples_used,
        refine_time,
        swap_time
    );

    // The served predictions track the drifted machine again.
    let error_after = mean_error(&service, &drifted_machine, &calls);
    println!(
        "mean error vs drifted machine after refinement: {:.1}% ({:.1}x better)",
        100.0 * error_after,
        error_before / error_after
    );
    assert!(
        error_after * 2.0 <= error_before,
        "online refinement must reduce the mean prediction error at least 2x \
         (before {error_before}, after {error_after})"
    );
    println!("online refinement loop closed: telemetry -> report -> refine -> hot swap");
}
