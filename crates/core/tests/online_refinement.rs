//! End-to-end online adaptive refinement on a drifting simulated machine.
//!
//! The scenario the tentpole exists for: models are built offline on machine
//! state A, the machine then drifts to state B (same identity, different
//! performance — a library update, a frequency policy change, a neighbour
//! stealing memory bandwidth), and the served predictions go stale.  The
//! serving telemetry → refinement report → targeted re-sampling → submodel-
//! granular hot-swap loop has to pull the predictions back towards the
//! *current* machine behaviour, while the service keeps answering queries
//! concurrently, within a fixed sample budget, and driven **solely** by
//! `ModelService::refinement_report()`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dla_core::blas::{Diag, Side, Trans, Uplo};
use dla_core::machine::cost::estimate_ticks;
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::SimExecutor;
use dla_core::modeler::online::dedupe_templates;
use dla_core::modeler::{OnlineRefiner, OnlineRefinerConfig, RefinementConfig};
use dla_core::predict::modelset::{build_repository, workload_templates, ModelSetConfig};
use dla_core::{Call, Locality, MachineConfig, ModelService, Workload};

/// The drifted machine: identical identity (same id string — this is the
/// same machine as far as the repository is concerned), different
/// performance characteristics.
fn drifted(machine: &MachineConfig) -> MachineConfig {
    let mut m = machine.clone();
    m.blas.gemm.peak_efficiency *= 0.55;
    m.blas.trsm.peak_efficiency *= 0.62;
    m.blas.trmm.peak_efficiency *= 0.58;
    m.blas.trsm.half_dim *= 1.8;
    m.blas.trtri_unb.peak_efficiency *= 0.7;
    m
}

/// Calls spanning the quick(256) trinv model spaces (all strictly inside,
/// so clamping never blurs the comparison).
fn eval_calls() -> Vec<Call> {
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

/// Mean relative error of the served predictions against the *drifted*
/// machine's deterministic cost surface.
fn mean_error(service: &ModelService, truth_machine: &MachineConfig, calls: &[Call]) -> f64 {
    let mut acc = 0.0;
    for call in calls {
        let predicted = service.predict_call(call).expect("prediction").median;
        let truth = estimate_ticks(truth_machine, call, Locality::InCache);
        acc += (predicted - truth).abs() / truth;
    }
    acc / calls.len() as f64
}

#[test]
fn online_refinement_recovers_from_machine_drift() {
    let machine = harpertown_openblas();
    let drifted_machine = drifted(&machine);
    assert_eq!(
        machine.id(),
        drifted_machine.id(),
        "drift must not change the machine's identity"
    );

    // Offline build on the pre-drift machine.
    let cfg = ModelSetConfig::quick(256);
    let (repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
    let service = Arc::new(ModelService::new(repo, machine.clone(), Locality::InCache));

    // The machine drifts.  Serve the evaluation traffic: this both measures
    // how stale the predictions are and feeds the refinement telemetry.
    let calls = eval_calls();
    let error_before = mean_error(&service, &drifted_machine, &calls);
    assert!(
        error_before > 0.2,
        "the drift must actually hurt predictions (got {error_before})"
    );

    // The refinement loop is driven *solely* by the service's report.
    let report = service.refinement_report();
    assert!(!report.is_empty());
    assert_eq!(report.total_queries as usize, calls.len());
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

    // Serving stays live while the refiner samples and the delta is merged:
    // reader threads hammer predict_call throughout and must never fail.
    let generation_before = report.generation;
    let stop = AtomicBool::new(false);
    let outcome = std::thread::scope(|scope| {
        for reader in 0..3 {
            let service = Arc::clone(&service);
            let stop = &stop;
            let calls = &calls;
            scope.spawn(move || {
                let mut i = reader;
                while !stop.load(Ordering::Relaxed) {
                    let call = &calls[i % calls.len()];
                    service
                        .predict_call(call)
                        .expect("serving must continue during refine + swap");
                    i += 1;
                }
            });
        }
        let snapshot = service.snapshot();
        let (delta, outcome) = refiner.refine(&snapshot, &report);
        assert!(!delta.is_empty());
        service.merge(delta).unwrap();
        stop.store(true, Ordering::Relaxed);
        outcome
    });

    assert!(outcome.cells_refined > 0);
    assert!(outcome.samples_used > 0);
    assert!(
        outcome.samples_used <= 4096 + 256,
        "budget may only be overshot by the final cell ({} used)",
        outcome.samples_used
    );
    assert!(
        service.refinement_report().generation > generation_before,
        "the publish must go through the hot-swap generation machinery"
    );

    // The served predictions must track the drifted machine again:
    // strictly better, and by at least 2x, within the fixed budget.
    let error_after = mean_error(&service, &drifted_machine, &calls);
    assert!(
        error_after < error_before,
        "prediction error must strictly decrease ({error_before} -> {error_after})"
    );
    assert!(
        error_after * 2.0 <= error_before,
        "refinement must reduce mean prediction error at least 2x \
         (before {error_before}, after {error_after})"
    );

    // Provenance: the rebuilt regions carry bumped revisions, the untouched
    // ones do not.
    let snapshot = service.snapshot();
    let revised = snapshot
        .iter()
        .flat_map(|(_, m)| m.submodels.values())
        .flat_map(|s| s.regions.iter())
        .filter(|r| r.revision > 0)
        .count();
    assert_eq!(revised, outcome.regions_added);

    // A second round over fresh telemetry refines the *new* hottest cells;
    // rebuilt regions show up with their bumped revision in the report.
    let report2 = service.refinement_report();
    assert!(report2.cells.iter().any(|c| c.revision > 0));
    let (delta2, outcome2) = refiner.refine(&service.snapshot(), &report2);
    if !delta2.is_empty() {
        service.merge(delta2).unwrap();
        let error_round2 = mean_error(&service, &drifted_machine, &calls);
        assert!(
            error_round2 <= error_after * 1.5,
            "a second round must not regress materially \
             ({error_after} -> {error_round2})"
        );
        assert!(outcome2.cells_refined > 0);
    }
}
