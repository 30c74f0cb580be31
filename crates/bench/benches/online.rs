//! Criterion benchmarks of the online-refinement subsystem: the serving hot
//! path with telemetry against a bare predictor, and the
//! latency of a full refine-and-swap round
//! (report → targeted re-sampling → submodel-granular merge + hot swap).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dla_core::blas::{Call, Diag, Side, Trans, Uplo};
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::SimExecutor;
use dla_core::modeler::online::dedupe_templates;
use dla_core::modeler::{OnlineRefiner, OnlineRefinerConfig};
use dla_core::predict::modelset::{build_repository, workload_templates, ModelSetConfig};
use dla_core::{Locality, ModelService, Workload};

fn service_and_calls() -> (ModelService, Vec<Call>) {
    let machine = harpertown_openblas();
    let cfg = ModelSetConfig::quick(512);
    let (repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
    let service = ModelService::new(repo, machine, Locality::InCache);
    let mut calls = Vec::new();
    for m in [24usize, 96, 200, 320, 440] {
        for n in [32usize, 120, 256, 384, 480] {
            calls.push(Call::trsm(
                Side::Left,
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
                64,
                1.0,
                1.0,
            ));
        }
    }
    (service, calls)
}

/// Telemetry overhead on the serving hot path: the same prediction loop
/// through the service (handle read plus per-region query counting) and
/// through a bare predictor (neither).  The service/bare ratio bounds what
/// counting costs.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let (service, calls) = service_and_calls();
    let mut group = c.benchmark_group("telemetry_overhead");
    group.bench_function("predict_call_telemetry_on", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for call in &calls {
                acc += service.predict_call(black_box(call)).unwrap().median;
            }
            acc
        });
    });
    // The same loop through a bare predictor (no handle read, no counting).
    let predictor = service.predictor();
    group.bench_function("predict_call_bare_predictor", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for call in &calls {
                acc += predictor.predict_call(black_box(call)).unwrap().median;
            }
            acc
        });
    });
    group.finish();
}

/// A full refine-and-swap round: consume a refinement report, re-sample the
/// offending regions on the (simulated) machine, and publish the delta
/// through the submodel-granular hot-swap merge.
fn bench_refine_and_swap(c: &mut Criterion) {
    let (service, calls) = service_and_calls();
    for call in &calls {
        let _ = service.predict_call(call).unwrap();
    }
    let report = service.refinement_report();
    assert!(!report.is_empty());
    let snapshot = service.snapshot();
    let machine = service.machine().clone();
    let cfg = ModelSetConfig::quick(512);
    let templates: Vec<Call> = workload_templates(Workload::Trinv, &cfg)
        .into_iter()
        .flat_map(|(t, _)| t)
        .collect();
    let templates = dedupe_templates(&templates);

    let mut group = c.benchmark_group("refine_and_swap");
    group.bench_function("refine_round_budget_2048", |bench| {
        let mut refiner = OnlineRefiner::new(
            SimExecutor::new(machine.clone(), 7),
            Locality::InCache,
            3,
            OnlineRefinerConfig {
                sample_budget: 2048,
                max_cells: 64,
                ..Default::default()
            },
        )
        .with_templates(&templates);
        bench.iter(|| {
            let (delta, outcome) = refiner.refine(black_box(&snapshot), black_box(&report));
            assert!(outcome.cells_refined > 0);
            delta.len()
        });
    });
    group.bench_function("refine_round_plus_merge_swap", |bench| {
        let mut refiner = OnlineRefiner::new(
            SimExecutor::new(machine.clone(), 8),
            Locality::InCache,
            3,
            OnlineRefinerConfig {
                sample_budget: 2048,
                max_cells: 64,
                ..Default::default()
            },
        )
        .with_templates(&templates);
        bench.iter(|| {
            let (delta, _) = refiner.refine(black_box(&snapshot), black_box(&report));
            service.merge(delta).unwrap();
            service.snapshot().len()
        });
    });
    // The publish step alone: merge + compile + hot swap of a small delta.
    group.bench_function("merge_swap_only", |bench| {
        let mut refiner = OnlineRefiner::new(
            SimExecutor::new(machine.clone(), 9),
            Locality::InCache,
            3,
            OnlineRefinerConfig {
                sample_budget: 2048,
                max_cells: 64,
                ..Default::default()
            },
        )
        .with_templates(&templates);
        let (delta, _) = refiner.refine(&snapshot, &report);
        bench.iter(|| {
            service.merge(delta.clone()).unwrap();
            service.snapshot().len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead, bench_refine_and_swap);
criterion_main!(benches);
