//! Benchmarks of the compiled evaluation engine against the reference
//! (naive) evaluator: piecewise point evaluation, trace prediction, and a
//! block-size sweep.  Writes `BENCH_eval.json`.

use std::error::Error;
use std::hint::black_box;

use dla_bench::harness::Bench;
use dla_core::blas::{Call, Trans};
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::Locality;
use dla_core::mat::stats::Summary;
use dla_core::model::{submodel_key, CompiledPiecewise, PiecewiseModel, Region};
use dla_core::predict::blocksize::optimize_block_size_trinv;
use dla_core::predict::modelset::{build_repository, ModelSetConfig, Workload};
use dla_core::predict::TraceEvaluator;
use dla_core::{
    algos::trinv_trace, MachineConfig, ModelRepository, Predictor, Routine, TrinvVariant,
};

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
    Ok(bench.finish()?)
}
