//! Benchmarks of the concurrency layer: parallel model construction against
//! the serial build, and multi-threaded query throughput of the
//! [`ModelService`] serving layer against bare snapshot predictors.  The
//! 1-worker and 1-thread rows are the baselines the others are read
//! against.  Writes `BENCH_concurrency.json`.

use std::error::Error;
use std::sync::Arc;

use dla_bench::harness::Bench;
use dla_core::blas::Trans;
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::Locality;
use dla_core::predict::modelset::{build_repository, ModelSetConfig, Workload};
use dla_core::{Call, ModelService};

/// Predictions per iteration of the query rows, split across the threads.
const TOTAL_QUERIES: usize = 4096;

/// Worker counts the build rows sweep: serial, two fixed fan-outs (the
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

/// Runs `TOTAL_QUERIES` predictions over `threads` scoped threads; each
/// thread asks the predictor `per_thread()` made for it for the calls of the
/// mix in turn.
fn query_threads<P: FnMut(&Call) + Send>(
    threads: usize,
    calls: &[Call],
    per_thread: impl Fn() -> P,
) {
    let queries = TOTAL_QUERIES / threads;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let mut predict = per_thread();
            scope.spawn(move || {
                for i in 0..queries {
                    predict(&calls[i % calls.len()]);
                }
            });
        }
    });
}

fn main() -> Result<(), Box<dyn Error>> {
    let machine = harpertown_openblas();
    let mut bench = Bench::new("concurrency");
    for workers in worker_counts() {
        let cfg = ModelSetConfig::quick(256).with_workers(workers);
        bench.time(
            &format!("build_repository_trinv_sylv_256/workers/{workers}"),
            "modeler.build",
            || {
                build_repository(
                    &machine,
                    Locality::InCache,
                    1,
                    &cfg,
                    &[Workload::Trinv, Workload::Sylv],
                )
            },
        )?;
    }

    let cfg = ModelSetConfig::quick(256);
    let (repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
    let service = Arc::new(ModelService::new(repo, machine, Locality::InCache));
    let calls: Vec<Call> = (1..=16)
        .map(|i| Call::gemm(Trans::NoTrans, Trans::NoTrans, i * 16, i * 16, 64, 1.0, 1.0))
        .collect();
    for threads in [1usize, 4, 8] {
        bench.time(
            &format!("service_predict_call_4096/threads/{threads}"),
            "predict.service.call",
            || {
                query_threads(threads, &calls, || {
                    let service = Arc::clone(&service);
                    move |call: &Call| {
                        service.predict_call(call).unwrap();
                    }
                })
            },
        )?;
    }
    // The bare baseline: snapshot predictors evaluate without the service's
    // handle read and telemetry count.
    for threads in [1usize, 4, 8] {
        bench.time(
            &format!("predictor_predict_call_4096/threads/{threads}"),
            "predict",
            || {
                query_threads(threads, &calls, || {
                    let predictor = service.predictor();
                    move |call: &Call| {
                        predictor.predict_call(call).unwrap();
                    }
                })
            },
        )?;
    }
    Ok(bench.finish()?)
}
