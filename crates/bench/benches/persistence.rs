//! Repository persistence and batched trace-path measurements.
//!
//! Three comparisons back the EXPERIMENTS.md tables:
//!
//! * **Load time to serve-ready**: a repository is serve-ready once a
//!   `ModelService` publishes it.  Text parses, then `swap` validates and
//!   compiles it; `binfmt::decode` reads the binary file's bulk numeric
//!   sections and compiles the models, then `swap_compiled` validates them.
//!   That decode alone is perfbench's `model.binfmt.decode_ms`.  The run
//!   fails unless binary reaches serve-ready at least 2x faster than text,
//!   the reason the binary format exists.
//! * **Duplicate-rich batch**: the 16 Sylvester-variant traces that
//!   `rank_sylv_variants` predicts at n = 1024, b = 32 (22 328 calls, 296
//!   distinct shapes), through the batched trace path, which evaluates each
//!   distinct shape once, versus the pointwise walk over every call.  The
//!   run fails unless the batched path is at least 2x faster, the reason
//!   it exists.
//! * **Block-size sweep** (duplicate-poor): the paper's trinv block-size
//!   sweep driven by the batched trace path versus the same call stream
//!   answered one `eval` at a time (reference and compiled).  The sweep row
//!   also generates its traces; `sweep/batched_traces` times the batched
//!   path alone over the traces the pointwise rows walk.
//!
//! Run with `cargo bench -p dla-bench --bench persistence`; writes
//! `BENCH_persistence.json`.

use std::collections::HashSet;
use std::error::Error;
use std::hint::black_box;
use std::sync::Arc;

use dla_bench::harness::Bench;
use dla_core::algos::{sylv_trace, trinv_trace, SylvVariant, TrinvVariant};
use dla_core::blas::flops::is_empty_call;
use dla_core::blas::Call;
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::Locality;
use dla_core::model::submodel_key;
use dla_core::predict::blocksize::{default_block_size_candidates, optimize_block_size_trinv};
use dla_core::predict::modelset::{build_repository, ModelSetConfig, Workload};
use dla_core::predict::TraceEvaluator;
use dla_core::{ModelRepository, ModelService, Predictor};

/// Number of distinct call shapes (routine, submodel key, sizes) among the
/// non-degenerate calls of `traces`: the evaluations the batched path makes.
fn distinct_shapes(traces: &[Vec<Call>]) -> usize {
    traces
        .iter()
        .flatten()
        .filter(|c| !is_empty_call(c))
        .map(|c| (c.routine(), submodel_key(c), c.sizes()))
        .collect::<HashSet<_>>()
        .len()
}

fn main() -> Result<(), Box<dyn Error>> {
    // The quickstart repository: the trinv workload's models at quick(512).
    let machine = harpertown_openblas();
    let cfg = ModelSetConfig::quick(512);
    let (repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
    let text = repo.to_text()?;
    let binary = repo.to_binary()?;
    let mut bench = Bench::new("persistence");
    bench.count("repository/models", "model", "count", repo.len());
    bench.count("repository/text_bytes", "model", "bytes", text.len());
    bench.count(
        "repository/binary_bytes",
        "model.binfmt.encode",
        "bytes",
        binary.len(),
    );

    // Load → serve-ready: each path ends with the repository published by a
    // running service.  Text parses, then `swap` validates and compiles;
    // binary decodes and compiles, then `swap_compiled` validates.  Each
    // swap also frees the generation it replaces.
    let service = ModelService::new(ModelRepository::new(), machine.clone(), Locality::InCache);
    let text_load = bench.time("load/text_parse_swap", "predict.service.swap", || {
        let loaded = ModelRepository::from_text(&text).expect("parse text");
        service.swap(loaded).expect("publish text");
    })?;
    let binary_load = bench.time("load/binary_decode_swap", "predict.service.swap", || {
        let compiled = dla_core::model::binfmt::decode(&binary).expect("decode binary");
        service
            .swap_compiled(Arc::new(compiled))
            .expect("publish binary");
    })?;
    assert!(!service.compiled_snapshot().is_empty());
    let speedup = text_load / binary_load;
    println!("  binary vs text: {speedup:.1}x");
    assert!(
        speedup >= 2.0,
        "binary load to serve-ready is only {speedup:.1}x faster than text"
    );

    // Duplicate-rich batch: the Sylvester ranking's 16 variant traces,
    // predicted by the batched trace path and by the pointwise walk.
    let (sylv_repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Sylv]);
    let sylv_predictor = Predictor::new(&sylv_repo, machine.clone(), Locality::InCache);
    let (rank_n, rank_b) = (1024, 32);
    let rank_traces: Vec<Vec<Call>> = SylvVariant::all()
        .into_iter()
        .map(|v| sylv_trace(v, rank_n, rank_n, rank_b, rank_n))
        .collect();
    let rank_slices: Vec<&[Call]> = rank_traces.iter().map(Vec::as_slice).collect();
    let walk = || -> Vec<_> {
        rank_slices
            .iter()
            .map(|t| TraceEvaluator::predict_trace(&sylv_predictor, t).expect("trace"))
            .collect()
    };
    let batched = sylv_predictor.predict_traces(&rank_slices)?;
    assert_eq!(batched, walk(), "batched and pointwise predictions differ");
    let rank_calls: usize = batched.iter().map(|p| p.predicted_calls).sum();
    bench.count("duplicate_rich/calls", "predict", "count", rank_calls);
    bench.count(
        "duplicate_rich/distinct",
        "predict",
        "count",
        distinct_shapes(&rank_traces),
    );
    let rank_batched = bench.time("duplicate_rich/batched", "predict.eval", || {
        sylv_predictor.predict_traces(&rank_slices).expect("batch")
    })?;
    let rank_pointwise = bench.time("duplicate_rich/pointwise", "predict.eval", walk)?;
    let batch_speedup = rank_pointwise / rank_batched;
    println!("  batched vs pointwise: {batch_speedup:.2}x");
    assert!(
        batch_speedup >= 2.0,
        "the batched trace path is only {batch_speedup:.2}x faster than the pointwise walk"
    );

    // Block-size sweep: the paper's trinv tuning sweep, evaluated three ways
    // over the same candidate traces.
    let predictor = Predictor::new(&repo, machine.clone(), Locality::InCache);
    let candidates = default_block_size_candidates();
    let n = 448;
    let traces: Vec<Vec<Call>> = candidates
        .iter()
        .filter(|&&b| b > 0 && b <= n)
        .map(|&b| trinv_trace(TrinvVariant::V3, n, b, n))
        .collect();
    let calls: Vec<&Call> = traces
        .iter()
        .flatten()
        .filter(|c| !is_empty_call(c))
        .collect();
    let sweep = optimize_block_size_trinv(&predictor, TrinvVariant::V3, n, &candidates)?;
    assert_eq!(sweep.evaluated_calls, calls.len());
    bench.count("sweep/calls", "predict", "count", calls.len());
    bench.count(
        "sweep/distinct",
        "predict",
        "count",
        distinct_shapes(&traces),
    );
    let sweep_batched = bench.time("sweep/batched", "predict", || {
        optimize_block_size_trinv(&predictor, TrinvVariant::V3, n, &candidates).expect("sweep")
    })?;
    let slices: Vec<&[Call]> = traces.iter().map(Vec::as_slice).collect();
    let sweep_traces = bench.time("sweep/batched_traces", "predict.eval", || {
        predictor.predict_traces(&slices).expect("batch")
    })?;
    let sweep_compiled = bench.time("sweep/compiled_pointwise", "predict.eval", || {
        for t in &traces {
            black_box(TraceEvaluator::predict_trace(&predictor, t).expect("trace"));
        }
    })?;
    let sweep_reference = bench.time("sweep/reference", "model", || {
        let mut acc = 0.0;
        for call in &calls {
            let model = repo
                .get(call.routine(), &machine.id(), Locality::InCache)
                .expect("model");
            acc += model.estimate(call).expect("in-domain call").median;
        }
        acc
    })?;
    println!(
        "  batched vs reference: {:.2}x, vs compiled pointwise: {:.2}x \
         (batched traces alone: {:.2}x)",
        sweep_reference / sweep_batched,
        sweep_compiled / sweep_batched,
        sweep_compiled / sweep_traces
    );
    Ok(bench.finish()?)
}
