//! Benchmarks of the compiled evaluation engine against the reference
//! (naive) evaluator: piecewise point evaluation, trace prediction, and a
//! block-size sweep; plus the engine alone on a `serve`-shaped call mix.
//! Writes `BENCH_eval.json`.

use std::error::Error;
use std::hint::black_box;

use dla_bench::harness::Bench;
use dla_core::algos::sylv_trace;
use dla_core::blas::flops::is_empty_call;
use dla_core::blas::{Call, Trans};
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::{derive_stream_seed, Locality};
use dla_core::mat::stats::Summary;
use dla_core::model::{submodel_key, CompiledPiecewise, PiecewiseModel, Region};
use dla_core::predict::blocksize::optimize_block_size_trinv;
use dla_core::predict::modelset::{build_repository, ModelSetConfig, Workload};
use dla_core::predict::TraceEvaluator;
use dla_core::{
    algos::trinv_trace, MachineConfig, ModelRepository, Predictor, Routine, SylvVariant,
    TrinvVariant,
};

/// Trace requests in the `serve`-shaped call mix.
const SERVE_MIX_OPS: u64 = 24;

/// The pre-compiled-engine evaluator: repository lookup plus
/// `RoutineModel::estimate` per call.  This is the "before" side of every
/// comparison below.
struct NaiveEvaluator {
    repository: ModelRepository,
    machine: MachineConfig,
}

impl TraceEvaluator for NaiveEvaluator {
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    fn predict_call(&self, call: &Call) -> dla_core::model::Result<Summary> {
        self.repository
            .get(call.routine(), &self.machine.id(), Locality::InCache)
            .ok_or_else(|| {
                dla_core::model::ModelError::MissingSubmodel(format!(
                    "no model for {}",
                    call.routine()
                ))
            })?
            .estimate(call)
    }
}

fn setup() -> (ModelRepository, MachineConfig) {
    let machine = harpertown_openblas();
    let cfg = ModelSetConfig::quick(512);
    let (repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
    (repo, machine)
}

/// The 3-D gemm submodel (the most region-rich piecewise model of the set)
/// and a point grid over its space.
fn gemm_submodel(
    repo: &ModelRepository,
    machine: &MachineConfig,
) -> (PiecewiseModel, Vec<Vec<usize>>) {
    let model = repo
        .get(Routine::Gemm, &machine.id(), Locality::InCache)
        .expect("gemm model");
    let template = Call::gemm(Trans::NoTrans, Trans::NoTrans, 8, 8, 8, 1.0, 1.0);
    let submodel = model
        .submodel(submodel_key(&template))
        .expect("gemm NN submodel")
        .clone();
    let space = Region::new(model.space.lo().to_vec(), model.space.hi().to_vec());
    let points = space.sample_grid(8, 1);
    (submodel, points)
}

/// The non-empty calls of `ops` seeded trace requests shaped like
/// perfbench `serve`'s: trinv or sylv, any variant, n in 64..=512 and a
/// block size of 16, 32 or 48.
fn serve_mix(seed: u64, ops: u64) -> Vec<Call> {
    let mut calls = Vec::new();
    for op in 0..ops {
        let draw = |k: u64| derive_stream_seed(seed, op * 4 + k) as usize;
        let n = 64 + draw(0) % 449;
        let b = [16, 32, 48][draw(1) % 3];
        let variant = draw(2) % 16;
        let trace = if draw(3) % 2 == 0 {
            trinv_trace(TrinvVariant::ALL[variant % 4], n, b, n)
        } else {
            let v = SylvVariant::new(variant + 1).expect("variant index in 1..=16");
            sylv_trace(v, n, n, b, n)
        };
        calls.extend(trace.into_iter().filter(|c| !is_empty_call(c)));
    }
    calls
}

fn main() -> Result<(), Box<dyn Error>> {
    let (repo, machine) = setup();
    let mut bench = Bench::new("eval");

    let (submodel, points) = gemm_submodel(&repo, &machine);
    let compiled = CompiledPiecewise::compile(&submodel).expect("compilable submodel");
    assert!(compiled.is_indexed());
    let naive = bench.time("piecewise_point_eval/naive_512pts", "model", || {
        let mut acc = 0.0;
        for p in &points {
            acc += submodel.eval(black_box(p)).unwrap().median;
        }
        acc
    })?;
    let fast = bench.time("piecewise_point_eval/compiled_512pts", "model", || {
        let mut acc = 0.0;
        for p in &points {
            acc += compiled.eval(black_box(p)).unwrap().median;
        }
        acc
    })?;
    println!("  compiled vs naive: {:.1}x", naive / fast);

    let naive_evaluator = NaiveEvaluator {
        repository: repo.clone(),
        machine: machine.clone(),
    };
    let predictor = Predictor::new(&repo, machine, Locality::InCache);
    let trace = trinv_trace(TrinvVariant::V3, 448, 96, 448);
    let naive = bench.time(
        "cold_trace_prediction/naive_trinv_v3_n448",
        "predict.eval",
        || naive_evaluator.predict_trace(black_box(&trace)).unwrap(),
    )?;
    let fast = bench.time(
        "cold_trace_prediction/compiled_trinv_v3_n448",
        "predict.eval",
        || predictor.predict_trace(black_box(&trace)).unwrap(),
    )?;
    println!("  compiled vs naive: {:.1}x", naive / fast);

    let candidates: Vec<usize> = (1..=32).map(|i| i * 8).collect();
    let naive = bench.time("blocksize_sweep_trinv_v3_n448/naive", "predict", || {
        optimize_block_size_trinv(
            &naive_evaluator,
            TrinvVariant::V3,
            448,
            black_box(&candidates),
        )
        .unwrap()
    })?;
    let fast = bench.time("blocksize_sweep_trinv_v3_n448/compiled", "predict", || {
        optimize_block_size_trinv(&predictor, TrinvVariant::V3, 448, black_box(&candidates))
            .unwrap()
    })?;
    println!("  compiled vs naive: {:.1}x", naive / fast);

    // The engine behind every `serve` query, on the repository `serve`
    // builds: `ModelSetConfig::default()` trinv+sylv models.
    let machine = harpertown_openblas();
    let (repo, _) = build_repository(
        &machine,
        Locality::InCache,
        1,
        &ModelSetConfig::default(),
        &[Workload::Trinv, Workload::Sylv],
    );
    let predictor = Predictor::new(&repo, machine, Locality::InCache);
    let calls = serve_mix(1, SERVE_MIX_OPS);
    bench.count(
        "predict_call/serve_mix_calls",
        "predict",
        "calls",
        calls.len(),
    );
    let mix = bench.time("predict_call/serve_mix", "predict.eval", || {
        let mut acc = 0.0;
        for call in &calls {
            acc += predictor.predict_call(black_box(call)).unwrap().median;
        }
        acc
    })?;
    println!("  {:.1} ns per call", mix * 1e3 / calls.len() as f64);
    Ok(bench.finish()?)
}
