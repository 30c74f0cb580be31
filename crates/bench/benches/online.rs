//! Telemetry overhead on the serving hot path: the same prediction loop
//! through the service (handle read plus per-region query counting) and
//! through a bare predictor (neither).  The service/bare ratio bounds what
//! counting costs.  The refine-and-swap round is timed by perfbench
//! (`modeler.online.refine_ms`, `predict.service.publish_ms`,
//! `refresh_ms`).  Writes `BENCH_online.json`.

use std::error::Error;
use std::hint::black_box;

use dla_bench::harness::Bench;
use dla_core::blas::{Call, Diag, Side, Trans, Uplo};
use dla_core::machine::presets::harpertown_openblas;
use dla_core::predict::modelset::{build_repository, ModelSetConfig};
use dla_core::{Locality, ModelService, Workload};

fn main() -> Result<(), Box<dyn Error>> {
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

    let mut bench = Bench::new("online");
    let on = bench.time(
        "telemetry_overhead/predict_call_telemetry_on",
        "predict.service.call",
        || {
            let mut acc = 0.0;
            for call in &calls {
                acc += service.predict_call(black_box(call)).unwrap().median;
            }
            acc
        },
    )?;
    let predictor = service.predictor();
    let bare = bench.time(
        "telemetry_overhead/predict_call_bare_predictor",
        "predict",
        || {
            let mut acc = 0.0;
            for call in &calls {
                acc += predictor.predict_call(black_box(call)).unwrap().median;
            }
            acc
        },
    )?;
    println!("  service vs bare: {:.2}x", on / bare);
    Ok(bench.finish()?)
}
