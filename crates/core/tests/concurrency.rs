//! Concurrency guarantees of the parallel build stage and the serving layer:
//! parallel model construction is byte-identical to the serial build, and a
//! [`ModelService`] answers consistent predictions from many threads while
//! repositories are hot-swapped underneath it.

use std::sync::Arc;

use dla_core::machine::presets::harpertown_openblas;
use dla_core::predict::modelset::{build_repository, ModelSetConfig, Workload};
use dla_core::{Call, Locality, ModelService, Pipeline, Predictor, Routine, TrinvVariant};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For random quick configurations and seeds, the parallel build stage
    /// reproduces the serial repository bit for bit (reports included).
    #[test]
    fn parallel_build_reproduces_serial_build(
        seed in 0u64..1_000_000,
        max_size in 64usize..129,
        workers in 2usize..9,
    ) {
        let machine = harpertown_openblas();
        let serial_cfg = ModelSetConfig::quick(max_size).with_workers(1);
        let parallel_cfg = ModelSetConfig::quick(max_size).with_workers(workers);
        let workloads = [Workload::Trinv, Workload::Sylv];
        let (serial, serial_reports) =
            build_repository(&machine, Locality::InCache, seed, &serial_cfg, &workloads);
        let (parallel, parallel_reports) =
            build_repository(&machine, Locality::InCache, seed, &parallel_cfg, &workloads);
        prop_assert_eq!(serial.to_text().unwrap(), parallel.to_text().unwrap());
        prop_assert_eq!(serial_reports, parallel_reports);
    }
}

fn quick_service() -> ModelService {
    let machine = harpertown_openblas();
    let cfg = ModelSetConfig::quick(192);
    let (repo, _) = build_repository(&machine, Locality::InCache, 11, &cfg, &[Workload::Trinv]);
    ModelService::new(repo, machine, Locality::InCache)
}

/// Eight threads hammer one service with the same mix of per-call and trace
/// predictions; every thread must see identical, panic-free answers, equal
/// bit for bit to an uncached predictor compiled from the same repository.
#[test]
fn service_serves_eight_threads_consistently() {
    let service = Arc::new(quick_service());
    let uncached = Predictor::shared(
        service.snapshot(),
        service.machine().clone(),
        Locality::InCache,
    );
    let reference: Vec<f64> = (1..=8)
        .map(|i| {
            let call = Call::gemm(
                dla_core::blas::Trans::NoTrans,
                dla_core::blas::Trans::NoTrans,
                i * 16,
                i * 16,
                32,
                1.0,
                1.0,
            );
            uncached.predict_call(&call).unwrap().median
        })
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let service = Arc::clone(&service);
            let reference = reference.clone();
            scope.spawn(move || {
                for _round in 0..50 {
                    for (i, &expected) in reference.iter().enumerate() {
                        let call = Call::gemm(
                            dla_core::blas::Trans::NoTrans,
                            dla_core::blas::Trans::NoTrans,
                            (i + 1) * 16,
                            (i + 1) * 16,
                            32,
                            1.0,
                            1.0,
                        );
                        let median = service.predict_call(&call).unwrap().median;
                        assert_eq!(median.to_bits(), expected.to_bits());
                    }
                    // Snapshot predictors work concurrently too.
                    let predictor = service.predictor();
                    let trace = [Call::trsm(
                        dla_core::blas::Side::Left,
                        dla_core::blas::Uplo::Lower,
                        dla_core::blas::Trans::NoTrans,
                        dla_core::blas::Diag::NonUnit,
                        96,
                        96,
                        1.0,
                    )];
                    assert!(predictor.predict_trace(&trace).unwrap().ticks.median > 0.0);
                }
            });
        }
    });
    // The service counted its queries (8 threads × 50 rounds × 8 calls):
    // increments racing on one counter may be lost, so the total is
    // bounded, not exact.
    let report = service.refinement_report();
    assert!(report.total_queries > 0);
    assert!(report.total_queries <= 8 * 50 * 8);
    assert!(service
        .snapshot()
        .get(Routine::Gemm, &service.machine().id(), Locality::InCache)
        .is_some());
}

/// Readers keep getting consistent answers while another thread repeatedly
/// hot-swaps the repository; predictors handed out before a swap survive it.
#[test]
fn hot_swap_under_concurrent_readers_is_panic_free() {
    let service = Arc::new(quick_service());
    let repo = service.snapshot();
    let call = Call::gemm(
        dla_core::blas::Trans::NoTrans,
        dla_core::blas::Trans::NoTrans,
        96,
        96,
        32,
        1.0,
        1.0,
    );
    let expected = service.predict_call(&call).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let service = Arc::clone(&service);
            let call = call.clone();
            scope.spawn(move || {
                for _ in 0..200 {
                    // The same repository content is swapped in and out, so
                    // every prediction must succeed with the same value.
                    let summary = service.predict_call(&call).unwrap();
                    assert_eq!(summary, expected);
                }
            });
        }
        let swapper = Arc::clone(&service);
        let swap_repo = Arc::clone(&repo);
        scope.spawn(move || {
            for _ in 0..50 {
                swapper.swap((*swap_repo).clone()).unwrap();
            }
        });
    });
    // A predictor taken now survives any later swap.
    let predictor = service.predictor();
    service.swap(dla_core::ModelRepository::new()).unwrap();
    assert_eq!(predictor.predict_call(&call).unwrap(), expected);
}

/// An `Arc`-shared pipeline ranks workloads from several threads at once.
#[test]
fn pipeline_ranks_concurrently_through_the_service() {
    let mut pipeline = Pipeline::new(harpertown_openblas())
        .with_model_config(ModelSetConfig::quick(192))
        .with_seed(5);
    pipeline.build_models(&[Workload::Trinv]);
    let pipeline = Arc::new(pipeline);
    let expected = pipeline.rank_trinv(160, 32).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let pipeline = Arc::clone(&pipeline);
            let expected = expected.clone();
            scope.spawn(move || {
                for _ in 0..10 {
                    let ranking = pipeline.rank_trinv(160, 32).unwrap();
                    assert_eq!(ranking.len(), expected.len());
                    for (got, want) in ranking.iter().zip(expected.iter()) {
                        assert_eq!(got.0, want.0);
                        assert_eq!(got.1.median, want.1.median);
                    }
                }
            });
        }
    });
    assert_ne!(expected[0].0, TrinvVariant::V4);
}
