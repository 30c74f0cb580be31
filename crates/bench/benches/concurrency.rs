//! Criterion benchmarks of the concurrency layer: parallel model
//! construction speedup over the serial build, and multi-threaded query
//! throughput of the [`ModelService`] serving layer.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::Locality;
use dla_core::predict::modelset::{build_repository, ModelSetConfig, Workload};
use dla_core::{Call, ModelService};

/// Worker counts the build benchmark sweeps: serial, two fixed fan-outs (the
/// threaded path is exercised even on a single-core host) and whatever the
/// host offers.
fn worker_counts() -> Vec<usize> {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1, 2, 4];
    if !counts.contains(&available) {
        counts.push(available);
    }
    counts.sort_unstable();
    counts
}

fn bench_parallel_build(c: &mut Criterion) {
    let machine = harpertown_openblas();
    let mut group = c.benchmark_group("build_repository_trinv_sylv_256");
    for workers in worker_counts() {
        let cfg = ModelSetConfig::quick(256).with_workers(workers);
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |bench, _| {
                bench.iter(|| {
                    build_repository(
                        &machine,
                        Locality::InCache,
                        1,
                        &cfg,
                        &[Workload::Trinv, Workload::Sylv],
                    )
                })
            },
        );
    }
    group.finish();
}

fn query_mix() -> Vec<Call> {
    use dla_core::blas::Trans;
    (1..=16)
        .map(|i| Call::gemm(Trans::NoTrans, Trans::NoTrans, i * 16, i * 16, 64, 1.0, 1.0))
        .collect()
}

fn bench_service_throughput(c: &mut Criterion) {
    let machine = harpertown_openblas();
    let cfg = ModelSetConfig::quick(256);
    let (repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
    let service = Arc::new(ModelService::new(repo, machine, Locality::InCache));
    let calls = query_mix();
    // 4096 predictions per iteration, split across the thread count.
    const TOTAL_QUERIES: usize = 4096;
    let mut group = c.benchmark_group("service_predict_call_4096");
    for threads in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |bench, &threads| {
                bench.iter(|| {
                    let per_thread = TOTAL_QUERIES / threads;
                    std::thread::scope(|scope| {
                        for _ in 0..threads {
                            let service = Arc::clone(&service);
                            let calls = &calls;
                            scope.spawn(move || {
                                for i in 0..per_thread {
                                    let call = &calls[i % calls.len()];
                                    let _ = service.predict_call(call).unwrap();
                                }
                            });
                        }
                    });
                })
            },
        );
    }
    group.finish();

    // The bare baseline: snapshot predictors evaluate without the service's
    // handle read and telemetry count.
    let mut group = c.benchmark_group("predictor_predict_call_4096");
    for threads in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |bench, &threads| {
                bench.iter(|| {
                    let per_thread = TOTAL_QUERIES / threads;
                    std::thread::scope(|scope| {
                        for _ in 0..threads {
                            let predictor = service.predictor();
                            let calls = &calls;
                            scope.spawn(move || {
                                for i in 0..per_thread {
                                    let call = &calls[i % calls.len()];
                                    let _ = predictor.predict_call(call).unwrap();
                                }
                            });
                        }
                    });
                })
            },
        );
    }
    group.finish();
}

criterion_group!(concurrency, bench_parallel_build, bench_service_throughput);
criterion_main!(concurrency);
