//! End-to-end drift recovery under measurement chaos: the same scenario as
//! `online_refinement.rs` (offline build, machine drifts, telemetry-driven
//! refinement pulls the served predictions back), but the refiner's executor
//! is wrapped in a [`ChaosExecutor`] injecting a ~20 % mixed fault rate —
//! transient harness failures, ×10 latency spikes and non-finite ticks.
//!
//! The fault-tolerance acceptance criteria:
//!
//! - the chaotic loop still converges, to within 2× of the fault-free run
//!   given the same round budget, and still recovers the drift by ≥ 2×,
//! - every fault is absorbed structurally (retries, robust trimming,
//!   quarantine) — zero panics, and the retry/discard/quarantine provenance
//!   is visible in the per-round [`RefineOutcome`]s,
//! - the [`ServiceHealth`] ledger accounts the whole campaign.

use std::sync::Arc;

use dla_core::blas::{Diag, Side, Trans, Uplo};
use dla_core::machine::cost::estimate_ticks;
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::{ChaosConfig, ChaosExecutor, Executor, SimExecutor};
use dla_core::modeler::online::{dedupe_templates, QUARANTINE_COOLDOWN, QUARANTINE_THRESHOLD};
use dla_core::modeler::{OnlineRefiner, OnlineRefinerConfig, RefinementConfig};
use dla_core::predict::modelset::{build_repository, workload_templates, ModelSetConfig};
use dla_core::{Call, Locality, MachineConfig, ModelService, RefineOutcome, Workload};

/// The same drift as the fault-free end-to-end test: identical identity,
/// degraded performance characteristics.
fn drifted(machine: &MachineConfig) -> MachineConfig {
    let mut m = machine.clone();
    m.blas.gemm.peak_efficiency *= 0.55;
    m.blas.trsm.peak_efficiency *= 0.62;
    m.blas.trmm.peak_efficiency *= 0.58;
    m.blas.trsm.half_dim *= 1.8;
    m.blas.trtri_unb.peak_efficiency *= 0.7;
    m
}

/// Calls spanning the quick(256) trinv model spaces.
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

/// Mean relative error of the served predictions against the drifted
/// machine's deterministic cost surface.  Serving the evaluation traffic is
/// also what feeds the refinement telemetry.
fn mean_error(service: &ModelService, truth_machine: &MachineConfig, calls: &[Call]) -> f64 {
    let mut acc = 0.0;
    for call in calls {
        let predicted = service.predict_call(call).expect("prediction").median;
        let truth = estimate_ticks(truth_machine, call, Locality::InCache);
        acc += (predicted - truth).abs() / truth;
    }
    acc / calls.len() as f64
}

fn refiner_config() -> OnlineRefinerConfig {
    OnlineRefinerConfig {
        fit: RefinementConfig {
            error_bound: 0.10,
            min_region_size: 64,
            grid_per_dim: 4,
            degree: 2,
        },
        sample_budget: 4096,
        max_cells: 256,
    }
}

/// Drives `rounds` telemetry → refine → merge rounds and returns the
/// per-round outcomes plus the final mean error.  Identical for the
/// fault-free and the chaotic refiner — only the executor differs.
fn run_rounds<E: Executor>(
    service: &ModelService,
    refiner: &mut OnlineRefiner<E>,
    truth: &MachineConfig,
    calls: &[Call],
    rounds: usize,
) -> (Vec<RefineOutcome>, f64) {
    let mut outcomes = Vec::new();
    for _ in 0..rounds {
        // Serve the evaluation traffic: the refinement loop is driven solely
        // by the telemetry this leaves behind.
        let _ = mean_error(service, truth, calls);
        let report = service.refinement_report();
        if report.is_empty() {
            break;
        }
        let (delta, outcome) = refiner.refine(&service.snapshot(), &report);
        service.record_refinement(&outcome);
        if !delta.is_empty() {
            service
                .merge(delta)
                .expect("the refiner's own validation makes its deltas publishable");
        }
        outcomes.push(outcome);
    }
    (outcomes, mean_error(service, truth, calls))
}

#[test]
fn chaotic_refinement_converges_within_2x_of_fault_free() {
    let machine = harpertown_openblas();
    let drifted_machine = drifted(&machine);
    let cfg = ModelSetConfig::quick(256);
    let (repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
    let calls = eval_calls();
    let templates: Vec<Call> = workload_templates(Workload::Trinv, &cfg)
        .into_iter()
        .flat_map(|(calls, _)| calls)
        .collect();
    let templates = dedupe_templates(&templates);
    const ROUNDS: usize = 4;
    const REPETITIONS: usize = 5; // ≥ MIN_ROBUST_SAMPLES, so MAD trimming is live

    // Reference: the fault-free loop, same drift, same budget, same rounds.
    let fault_free_service = Arc::new(ModelService::new(
        repo.clone(),
        machine.clone(),
        Locality::InCache,
    ));
    let mut fault_free_refiner = OnlineRefiner::new(
        SimExecutor::new(drifted_machine.clone(), 0xd41f7),
        Locality::InCache,
        REPETITIONS,
        refiner_config(),
    )
    .with_templates(&templates);
    let (fault_free_outcomes, fault_free_error) = run_rounds(
        &fault_free_service,
        &mut fault_free_refiner,
        &drifted_machine,
        &calls,
        ROUNDS,
    );
    assert!(
        fault_free_outcomes
            .iter()
            .all(|o| o.sample_retries == 0 && o.cells_quarantined == 0),
        "the fault-free executor must not trigger the retry or quarantine paths"
    );

    // Under test: the same loop with ~20 % of measurements faulted (40 %
    // transient failures, 30 % ×10 spikes, 30 % non-finite ticks).  The
    // retry budget is raised: one transient anywhere in a measurement batch
    // fails the whole attempt, so per-point failure odds compound.
    let service = Arc::new(ModelService::new(repo, machine, Locality::InCache));
    let error_before = mean_error(&service, &drifted_machine, &calls);
    assert!(
        error_before > 0.2,
        "the drift must actually hurt predictions (got {error_before})"
    );
    let chaos = ChaosExecutor::new(
        SimExecutor::new(drifted_machine.clone(), 0xd41f7),
        ChaosConfig::mixed(0xc4a05, 0.20),
    );
    assert!((chaos.config().fault_rate() - 0.20).abs() < 1e-12);
    let mut refiner = OnlineRefiner::new(chaos, Locality::InCache, REPETITIONS, refiner_config())
        .with_templates(&templates);
    refiner.set_max_retries(6);
    let (outcomes, error_after) =
        run_rounds(&service, &mut refiner, &drifted_machine, &calls, ROUNDS);

    // Chaos was really injected, and every fault was absorbed structurally.
    let faults = refiner.executor_mut().fault_counts();
    assert!(faults.total() > 0, "the chaos schedule must actually fire");
    assert!(faults.transient > 0 && faults.non_finite > 0);
    let retries: u64 = outcomes.iter().map(|o| o.sample_retries).sum();
    let discarded: u64 = outcomes.iter().map(|o| o.samples_discarded).sum();
    assert!(retries > 0, "transient faults must surface as retries");
    assert!(
        discarded > 0,
        "non-finite/spiked ticks must surface as discards"
    );

    // Convergence: the drift is recovered (≥ 2× error reduction) and the
    // chaotic loop lands within 2× of the fault-free loop's final error.
    assert!(
        error_after * 2.0 <= error_before,
        "chaotic refinement must still recover the drift \
         (before {error_before}, after {error_after})"
    );
    assert!(
        error_after <= fault_free_error * 2.0,
        "20% faults may cost at most 2x of the fault-free convergence \
         (fault-free {fault_free_error}, chaotic {error_after})"
    );

    // Quarantine provenance is structurally consistent in every round: a
    // reported cell carries its strike count (at/above the threshold) and a
    // cooldown no longer than configured.
    for outcome in &outcomes {
        for cell in &outcome.quarantined {
            assert!(cell.failures >= QUARANTINE_THRESHOLD);
            assert!(cell.cooldown_remaining <= QUARANTINE_COOLDOWN);
        }
    }

    // The health ledger accounts the whole campaign: every accepted merge,
    // every retry, discard, fit failure and recovery, and zero rejections —
    // the refiner's own validation means nothing bad was ever offered.
    let health = service.health();
    assert_eq!(health.publishes_rejected, 0);
    // The chaos service starts at generation 0 and only the loop's accepted
    // merges advanced it, so the generation IS the accepted-publish count.
    let generation = service.refinement_report().generation;
    assert!(generation > 0, "at least one round must publish a delta");
    assert_eq!(health.last_good_generation, generation);
    assert_eq!(
        health.sample_retries,
        outcomes.iter().map(|o| o.sample_retries).sum::<u64>()
    );
    assert_eq!(
        health.samples_discarded,
        outcomes.iter().map(|o| o.samples_discarded).sum::<u64>()
    );
    assert_eq!(
        health.fit_failures,
        outcomes.iter().map(|o| o.fit_failures as u64).sum::<u64>()
    );
    assert_eq!(
        health.cells_recovered,
        outcomes
            .iter()
            .map(|o| o.cells_recovered as u64)
            .sum::<u64>()
    );
    assert_eq!(
        health.quarantined_regions,
        outcomes
            .last()
            .map(|o| o.quarantined.len() as u64)
            .unwrap_or(0)
    );
}

/// End-to-end quarantine → cooldown → probe → recovery, visible through the
/// service's health ledger: a harness so broken that every measurement fails
/// transiently quarantines the hot cells, the service keeps serving its last
/// good generation throughout, and once the harness heals the half-open
/// probes rebuild the cells and the drift is finally recovered.
#[test]
fn quarantined_cells_recover_through_the_service_once_the_harness_heals() {
    let machine = harpertown_openblas();
    let drifted_machine = drifted(&machine);
    let cfg = ModelSetConfig::quick(256);
    let (repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
    let calls = eval_calls();
    let templates: Vec<Call> = workload_templates(Workload::Trinv, &cfg)
        .into_iter()
        .flat_map(|(calls, _)| calls)
        .collect();
    let templates = dedupe_templates(&templates);

    let service = Arc::new(ModelService::new(repo, machine, Locality::InCache));
    let error_before = mean_error(&service, &drifted_machine, &calls);
    let chaos = ChaosExecutor::new(
        SimExecutor::new(drifted_machine.clone(), 0xd41f7),
        ChaosConfig {
            seed: 0xbad,
            transient_probability: 1.0,
            ..ChaosConfig::default()
        },
    );
    let mut refiner = OnlineRefiner::new(chaos, Locality::InCache, 5, refiner_config())
        .with_templates(&templates);

    // Two rounds against the dead harness: every cell strikes out twice and
    // lands in quarantine.  Nothing publishes, the served surface is frozen
    // at the last good generation, and the ledger says so.
    let (broken_outcomes, error_broken) =
        run_rounds(&service, &mut refiner, &drifted_machine, &calls, 2);
    assert_eq!(broken_outcomes.len(), 2);
    assert!(broken_outcomes.iter().all(|o| o.cells_refined == 0));
    let quarantined: usize = broken_outcomes.iter().map(|o| o.cells_quarantined).sum();
    assert!(quarantined > 0, "a dead harness must trip circuit breakers");
    let health = service.health();
    assert_eq!(health.last_good_generation, 0, "nothing was published");
    assert_eq!(health.quarantined_regions, quarantined as u64);
    assert_eq!(
        error_broken, error_before,
        "degraded mode serves the unchanged last good generation"
    );

    // The harness heals (the chaos stream continues — only the fault rates
    // change, so the schedule stays deterministic).  Cooldown is 2: one
    // skipped round, then half-open probes rebuild every quarantined cell.
    refiner.executor_mut().config_mut().transient_probability = 0.0;
    let (healed_outcomes, error_healed) =
        run_rounds(&service, &mut refiner, &drifted_machine, &calls, 2);
    assert_eq!(healed_outcomes.len(), 2);
    assert_eq!(
        healed_outcomes[0].skipped_quarantined, quarantined,
        "the first healed round still sits out the cooldown"
    );
    let recovered: usize = healed_outcomes.iter().map(|o| o.cells_recovered).sum();
    assert_eq!(recovered, quarantined, "every probe must close its breaker");
    assert!(healed_outcomes.last().unwrap().quarantined.is_empty());

    let health = service.health();
    assert_eq!(health.cells_recovered, recovered as u64);
    assert_eq!(health.quarantined_regions, 0);
    assert!(health.last_good_generation > 0);
    assert!(
        error_healed * 2.0 <= error_before,
        "recovered cells must pull the drift back \
         (before {error_before}, after {error_healed})"
    );
}
