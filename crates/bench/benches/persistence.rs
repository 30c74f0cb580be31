//! Repository persistence and batched trace-path measurements (plain
//! harness).
//!
//! Three comparisons back the EXPERIMENTS.md tables:
//!
//! * **Load time to serve-ready**: a repository is serve-ready once a
//!   `ModelService` publishes it.  Text parses, then `swap` validates and
//!   compiles it; binary decodes straight into the compiled layout (no
//!   re-parse, no re-compile), then `swap_compiled` validates it.  The
//!   binary decode alone is reported as a component.
//! * **Duplicate-rich batch**: the 16 Sylvester-variant traces that
//!   `rank_sylv_variants` predicts at n = 1024, b = 32 (22 328 calls, 296
//!   distinct shapes), through the batched trace path, which evaluates each
//!   distinct shape once, versus the pointwise walk over every call.
//! * **Block-size sweep throughput** (duplicate-poor): the paper's trinv
//!   block-size sweep driven by the batched trace path versus the same call
//!   stream answered one `eval` at a time (reference and compiled).
//!
//! Run with `cargo bench -p dla-bench --bench persistence`; results are
//! printed and written to `BENCH_persistence.json` at the repository root.

use std::sync::Arc;
use std::time::Instant;

use std::collections::HashSet;

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
    let batched = sylv_predictor.predict_traces(&rank_slices).expect("batch");
    assert_eq!(batched, walk(), "batched and pointwise predictions differ");
    let rank_calls: usize = batched.iter().map(|p| p.predicted_calls).sum();
    let rank_distinct = distinct_shapes(&rank_traces);
    let rank_batched_s = time_min(3, 30, || {
        std::hint::black_box(sylv_predictor.predict_traces(&rank_slices).expect("batch"));
    });
    let rank_pointwise_s = time_min(3, 30, || {
        std::hint::black_box(walk());
    });
    let rank_pointwise_qps = rank_calls as f64 / rank_pointwise_s;
    let rank_batched_qps = rank_calls as f64 / rank_batched_s;
    let rank_speedup = rank_batched_qps / rank_pointwise_qps;
    println!(
        "duplicate-rich batch: rank_sylv_variants n={rank_n} b={rank_b} \
         ({rank_calls} calls, {rank_distinct} distinct):"
    );
    println!("  compiled pointwise walk {rank_pointwise_qps:>14.0} q/s");
    println!("  batched trace path      {rank_batched_qps:>14.0} q/s");
    println!("  batched vs pointwise    {rank_speedup:>13.2}x");

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
    let sweep_distinct = distinct_shapes(&traces);
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
    println!(
        "block-size sweep throughput ({total_calls} model queries, {sweep_distinct} distinct):"
    );
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
    json.push_str(&format!(
        "  \"duplicate_rich_batch\": {{\"request\": \"rank_sylv_variants\", \"n\": {rank_n}, \"block_size\": {rank_b}, \"queries\": {rank_calls}, \"distinct\": {rank_distinct}, \"compiled_pointwise_qps\": {rank_pointwise_qps:.0}, \"batched_qps\": {rank_batched_qps:.0}, \"speedup_vs_pointwise\": {rank_speedup:.2}}},\n"
    ));
    json.push_str(&format!(
        "  \"blocksize_sweep\": {{\"queries\": {total_calls}, \"distinct\": {sweep_distinct}, \"reference_qps\": {sweep_ref_qps:.0}, \"compiled_pointwise_qps\": {sweep_compiled_qps:.0}, \"batched_qps\": {sweep_batched_qps:.0}, \"speedup_vs_reference\": {sweep_vs_ref:.2}, \"speedup_vs_pointwise\": {sweep_vs_compiled:.2}}}\n"
    ));
    json.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persistence.json");
    std::fs::write(path, &json).expect("write BENCH_persistence.json");
    println!("wrote {path}");
}
