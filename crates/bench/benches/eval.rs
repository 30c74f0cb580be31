//! Criterion benchmarks of the compiled evaluation engine against the
//! reference (naive) evaluator: piecewise point evaluation, trace
//! prediction, and a block-size sweep.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dla_core::blas::{Call, Trans};
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::Locality;
use dla_core::mat::stats::Summary;
use dla_core::model::{submodel_key, BatchPoints, CompiledPiecewise, PiecewiseModel, Region};
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

fn bench_point_eval(c: &mut Criterion) {
    let (repo, machine) = setup();
    let (submodel, points) = gemm_submodel(&repo, &machine);
    let compiled = CompiledPiecewise::compile(&submodel).expect("compilable submodel");
    assert!(compiled.is_indexed());
    let mut group = c.benchmark_group("piecewise_point_eval");
    group.bench_function("naive_512pts", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for p in &points {
                acc += submodel.eval(black_box(p)).unwrap().median;
            }
            acc
        })
    });
    group.bench_function("compiled_512pts", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for p in &points {
                acc += compiled.eval(black_box(p)).unwrap().median;
            }
            acc
        })
    });
    group.bench_function("compiled_batch_512pts", |bench| {
        let batch = BatchPoints::from_rows(points[0].len(), &points).unwrap();
        let mut out = Vec::new();
        bench.iter(|| {
            compiled
                .eval_batch_into(black_box(&batch), &mut out)
                .unwrap();
            out.iter().map(|s| s.median).sum::<f64>()
        })
    });
    group.finish();
}

/// Batch-evaluation throughput at batch sizes 1 / 64 / 4096, against the
/// single-point compiled `eval` over the same points — the satellite
/// measurement behind the EXPERIMENTS.md throughput table.
fn bench_batch_throughput(c: &mut Criterion) {
    let (repo, machine) = setup();
    let (submodel, grid) = gemm_submodel(&repo, &machine);
    let compiled = CompiledPiecewise::compile(&submodel).expect("compilable submodel");
    let mut group = c.benchmark_group("batch_eval_throughput");
    for batch in [1usize, 64, 4096] {
        let points: Vec<Vec<usize>> = (0..batch).map(|i| grid[i % grid.len()].clone()).collect();
        let soa = BatchPoints::from_rows(grid[0].len(), &points).unwrap();
        let mut out = Vec::new();
        group.bench_function(format!("batched/{batch}"), |bench| {
            bench.iter(|| {
                compiled.eval_batch_into(black_box(&soa), &mut out).unwrap();
                out.len()
            })
        });
        group.bench_function(format!("pointwise/{batch}"), |bench| {
            bench.iter(|| {
                let mut acc = 0.0;
                for p in &points {
                    acc += compiled.eval(black_box(p)).unwrap().median;
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_cold_trace_prediction(c: &mut Criterion) {
    let (repo, machine) = setup();
    let naive = NaiveEvaluator {
        repository: repo.clone(),
        machine: machine.clone(),
    };
    let predictor = Predictor::new(&repo, machine, Locality::InCache);
    let trace = trinv_trace(TrinvVariant::V3, 448, 96, 448);
    let mut group = c.benchmark_group("cold_trace_prediction");
    group.bench_function("naive_trinv_v3_n448", |bench| {
        bench.iter(|| naive.predict_trace(black_box(&trace)).unwrap())
    });
    group.bench_function("compiled_trinv_v3_n448", |bench| {
        bench.iter(|| predictor.predict_trace(black_box(&trace)).unwrap())
    });
    group.finish();
}

fn bench_blocksize_sweep(c: &mut Criterion) {
    let (repo, machine) = setup();
    let naive = NaiveEvaluator {
        repository: repo.clone(),
        machine: machine.clone(),
    };
    let predictor = Predictor::new(&repo, machine, Locality::InCache);
    let candidates: Vec<usize> = (1..=32).map(|i| i * 8).collect();
    let mut group = c.benchmark_group("blocksize_sweep_trinv_v3_n448");
    group.bench_function("naive", |bench| {
        bench.iter(|| {
            optimize_block_size_trinv(&naive, TrinvVariant::V3, 448, black_box(&candidates))
                .unwrap()
        })
    });
    group.bench_function("compiled", |bench| {
        bench.iter(|| {
            optimize_block_size_trinv(&predictor, TrinvVariant::V3, 448, black_box(&candidates))
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    eval,
    bench_point_eval,
    bench_batch_throughput,
    bench_cold_trace_prediction,
    bench_blocksize_sweep
);
criterion_main!(eval);
