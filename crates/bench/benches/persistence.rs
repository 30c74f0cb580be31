//! Repository persistence and batch-throughput measurements (plain harness).
//!
//! Three comparisons back the EXPERIMENTS.md tables:
//!
//! * **Load time to serve-ready**: a repository is serve-ready once a
//!   `ModelService` publishes it.  Text parses, then `swap` validates and
//!   compiles it; binary decodes straight into the compiled layout (no
//!   re-parse, no re-compile), then `swap_compiled` validates it.  The
//!   binary decode alone is reported as a component.
//! * **Batch evaluation throughput**: the reference single-point `eval`
//!   (`PiecewiseModel::eval`, the model's original query API) versus the
//!   compiled single-point path versus the SoA batch kernel, at batch sizes
//!   1 / 64 / 4096, in queries per second.
//! * **Block-size sweep throughput**: the paper's trinv block-size sweep
//!   driven by the batched trace path versus the same call stream answered
//!   one `eval` at a time (reference and compiled).
//!
//! Run with `cargo bench -p dla-bench --bench persistence`; results are
//! printed and written to `BENCH_persistence.json` at the repository root.

use std::sync::Arc;
use std::time::Instant;

use dla_core::algos::{trinv_trace, TrinvVariant};
use dla_core::blas::flops::is_empty_call;
use dla_core::blas::{Call, Trans};
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::Locality;
use dla_core::model::{submodel_key, BatchPoints, CompiledPiecewise, Region};
use dla_core::predict::blocksize::{default_block_size_candidates, optimize_block_size_trinv};
use dla_core::predict::modelset::{build_repository, ModelSetConfig, Workload};
use dla_core::predict::TraceEvaluator;
use dla_core::{ModelRepository, ModelService, Predictor, Routine};

/// Seconds per iteration, minimum over `iters` timed runs after `warmup`
/// untimed ones (the minimum is the least noisy statistic for short,
/// deterministic workloads).
fn time_min<F: FnMut()>(warmup: usize, iters: usize, mut f: F) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    // The quickstart repository: the trinv workload's models at quick(512).
    let machine = harpertown_openblas();
    let cfg = ModelSetConfig::quick(512);
    let (repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);

    let text = repo.to_text().expect("text serialisation");
    let binary = repo.to_binary().expect("binary serialisation");
    println!(
        "repository: {} models, text {} bytes, binary {} bytes",
        repo.len(),
        text.len(),
        binary.len()
    );

    // Load → serve-ready: each path ends with the repository published by a
    // running service.  Text parses, then `swap` validates and compiles;
    // binary decodes into the compiled layout, then `swap_compiled`
    // validates.  Each swap also frees the generation it replaces.
    let service = ModelService::new(ModelRepository::new(), machine.clone(), Locality::InCache);
    let text_s = time_min(3, 30, || {
        let loaded = ModelRepository::from_text(&text).expect("parse text");
        service.swap(loaded).expect("publish text");
    });
    let binary_s = time_min(3, 30, || {
        let compiled = dla_core::model::binfmt::decode(&binary).expect("decode binary");
        service
            .swap_compiled(Arc::new(compiled))
            .expect("publish binary");
    });
    let decode_s = time_min(3, 30, || {
        let compiled = dla_core::model::binfmt::decode(&binary).expect("decode binary");
        assert!(!compiled.is_empty());
    });
    assert!(!service.compiled_snapshot().is_empty());
    let load_speedup = text_s / binary_s;
    println!("load to serve-ready:");
    println!("  text parse + swap            {:>10.3} ms", 1e3 * text_s);
    println!("  binary decode + swap_compiled {:>9.3} ms", 1e3 * binary_s);
    println!("    of which binary decode     {:>10.3} ms", 1e3 * decode_s);
    println!("  speedup                      {load_speedup:>10.1}x");

    // Batch throughput on the most region-rich piecewise model (3-D gemm).
    // Three evaluators answer the same query stream: the reference
    // single-point `eval` (linear region scan, per-call allocation), the
    // compiled single-point path, and the SoA batch kernel.
    let model = repo
        .get(Routine::Gemm, &machine.id(), Locality::InCache)
        .expect("gemm model");
    let template = Call::gemm(Trans::NoTrans, Trans::NoTrans, 8, 8, 8, 1.0, 1.0);
    let submodel = model
        .submodel(submodel_key(&template))
        .expect("gemm NN submodel");
    let compiled = CompiledPiecewise::compile(submodel).expect("compilable submodel");
    let space = Region::new(model.space.lo().to_vec(), model.space.hi().to_vec());
    let grid = space.sample_grid(16, 1);

    println!("batch evaluation throughput (queries/sec):");
    println!(
        "  {:>6} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "batch", "ref eval", "compiled pt", "batched", "vs ref", "vs pt"
    );
    let mut rows = Vec::new();
    for batch in [1usize, 64, 4096] {
        let points: Vec<Vec<usize>> = (0..batch).map(|i| grid[i % grid.len()].clone()).collect();
        let soa = BatchPoints::from_rows(grid[0].len(), &points).expect("uniform arity");
        let mut out = Vec::new();
        let ref_s = time_min(3, 30, || {
            let mut acc = 0.0;
            for p in &points {
                acc += submodel.eval(p).expect("in-arity point").median;
            }
            std::hint::black_box(acc);
        });
        let point_s = time_min(3, 30, || {
            let mut acc = 0.0;
            for p in &points {
                acc += compiled.eval(p).expect("in-arity point").median;
            }
            std::hint::black_box(acc);
        });
        let batch_s = time_min(3, 30, || {
            compiled
                .eval_batch_into(&soa, &mut out)
                .expect("in-arity batch");
            std::hint::black_box(out.len());
        });
        let ref_qps = batch as f64 / ref_s;
        let point_qps = batch as f64 / point_s;
        let batch_qps = batch as f64 / batch_s;
        let vs_ref = batch_qps / ref_qps;
        let vs_point = batch_qps / point_qps;
        println!(
            "  {batch:>6} {ref_qps:>14.0} {point_qps:>14.0} {batch_qps:>14.0} {vs_ref:>8.2}x {vs_point:>8.2}x"
        );
        rows.push((batch, ref_qps, point_qps, batch_qps, vs_ref, vs_point));
    }

    // Block-size sweep throughput: the paper's trinv tuning sweep, evaluated
    // three ways over the same candidate traces.
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
    let total_calls = calls.len();
    let sweep =
        optimize_block_size_trinv(&predictor, TrinvVariant::V3, n, &candidates).expect("sweep");
    assert_eq!(sweep.evaluated_calls, total_calls);
    let sweep_batched_s = time_min(3, 30, || {
        std::hint::black_box(
            optimize_block_size_trinv(&predictor, TrinvVariant::V3, n, &candidates).expect("sweep"),
        );
    });
    let sweep_compiled_s = time_min(3, 30, || {
        for t in &traces {
            std::hint::black_box(TraceEvaluator::predict_trace(&predictor, t).expect("trace"));
        }
    });
    let sweep_ref_s = time_min(3, 30, || {
        let mut acc = 0.0;
        for call in &calls {
            let model = repo
                .get(call.routine(), &machine.id(), Locality::InCache)
                .expect("model");
            acc += model.estimate(call).expect("in-domain call").median;
        }
        std::hint::black_box(acc);
    });
    let sweep_ref_qps = total_calls as f64 / sweep_ref_s;
    let sweep_compiled_qps = total_calls as f64 / sweep_compiled_s;
    let sweep_batched_qps = total_calls as f64 / sweep_batched_s;
    let sweep_vs_ref = sweep_batched_qps / sweep_ref_qps;
    let sweep_vs_compiled = sweep_batched_qps / sweep_compiled_qps;
    println!("block-size sweep throughput ({total_calls} model queries):");
    println!("  single-point ref eval  {sweep_ref_qps:>14.0} q/s");
    println!("  single-point compiled  {sweep_compiled_qps:>14.0} q/s");
    println!("  batched sweep          {sweep_batched_qps:>14.0} q/s");
    println!("  batched vs ref eval    {sweep_vs_ref:>13.2}x");
    println!("  batched vs compiled    {sweep_vs_compiled:>13.2}x");

    // Machine-readable record for CI artifacts and EXPERIMENTS.md.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"repository\": {{\"models\": {}, \"text_bytes\": {}, \"binary_bytes\": {}}},\n",
        repo.len(),
        text.len(),
        binary.len()
    ));
    json.push_str(&format!(
        "  \"load_to_serve_ready\": {{\"text_parse_swap_ms\": {:.6}, \"binary_decode_swap_ms\": {:.6}, \"binary_decode_ms\": {:.6}, \"speedup\": {:.2}}},\n",
        1e3 * text_s,
        1e3 * binary_s,
        1e3 * decode_s,
        load_speedup
    ));
    json.push_str("  \"batch_throughput\": [\n");
    for (i, (batch, ref_qps, point_qps, batch_qps, vs_ref, vs_point)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"batch\": {batch}, \"reference_qps\": {ref_qps:.0}, \"pointwise_qps\": {point_qps:.0}, \"batched_qps\": {batch_qps:.0}, \"speedup_vs_reference\": {vs_ref:.2}, \"speedup_vs_pointwise\": {vs_point:.2}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"blocksize_sweep\": {{\"queries\": {total_calls}, \"reference_qps\": {sweep_ref_qps:.0}, \"compiled_pointwise_qps\": {sweep_compiled_qps:.0}, \"batched_qps\": {sweep_batched_qps:.0}, \"speedup_vs_reference\": {sweep_vs_ref:.2}, \"speedup_vs_pointwise\": {sweep_vs_compiled:.2}}}\n"
    ));
    json.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persistence.json");
    std::fs::write(path, &json).expect("write BENCH_persistence.json");
    println!("wrote {path}");
}
