//! Binary persistence: save a model repository in the binary format, load it
//! back serve-ready, and drive a block-size sweep from the loaded models.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example binary_persistence
//! ```
//!
//! The example demonstrates the round trip CI relies on:
//!
//! 1. build the quickstart repository and save it twice — `.dlapb` (binary)
//!    and `.txt` (the text debug format);
//! 2. time "load → serve-ready" for both codecs (the binary decoder reads
//!    bulk numeric sections instead of parsing text; both then compile the
//!    loaded models once);
//! 3. hot-swap the binary-loaded repository into the serving pipeline and
//!    sweep trinv block sizes from it, checking the sweep matches the built
//!    repository's exactly;
//! 4. verify the save→load→save cycle is byte-identical.

use std::time::Instant;

use dlaperf::machine::presets::harpertown_openblas;
use dlaperf::model::RepositoryFormat;
use dlaperf::predict::blocksize::default_block_size_candidates;
use dlaperf::predict::modelset::ModelSetConfig;
use dlaperf::{CompiledRepository, ModelRepository, Pipeline, TrinvVariant, Workload};

fn main() {
    let machine = harpertown_openblas();
    println!("machine: {}", machine.id());

    // 1. Build the quickstart repository and save it in both formats.
    let mut pipeline = Pipeline::new(machine.clone()).with_model_config(ModelSetConfig::quick(512));
    pipeline.build_models(&[Workload::Trinv]);
    let dir = std::env::temp_dir().join("dlaperf_binary_persistence");
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let bin_path = dir.join("models.dlapb");
    let text_path = dir.join("models.txt");
    pipeline.save_repository(&bin_path).expect("save binary");
    pipeline.save_repository(&text_path).expect("save text");
    let bin_len = std::fs::metadata(&bin_path).expect("stat binary").len();
    let text_len = std::fs::metadata(&text_path).expect("stat text").len();
    println!("saved {} bytes binary, {} bytes text", bin_len, text_len);

    // 2. Load → serve-ready, both codecs (the front door sniffs the magic
    //    bytes, so the caller never states the format on load).
    let start = Instant::now();
    let from_text =
        CompiledRepository::compile(ModelRepository::load_file(&text_path).expect("load text"));
    let text_ms = 1e3 * start.elapsed().as_secs_f64();
    let start = Instant::now();
    let from_binary =
        CompiledRepository::compile(ModelRepository::load_file(&bin_path).expect("load binary"));
    let binary_ms = 1e3 * start.elapsed().as_secs_f64();
    assert_eq!(from_text.len(), from_binary.len());
    println!("load to serve-ready: text {text_ms:.3} ms, binary {binary_ms:.3} ms");

    // 3. Serve from the binary-loaded models: hot-swap them into a fresh
    //    pipeline and sweep trinv block sizes (the batched evaluation path).
    let mut serving = Pipeline::new(machine);
    serving.load_repository(&bin_path).expect("hot-swap binary");
    let n = 448;
    let sweep = serving
        .tune_trinv_block_size(TrinvVariant::V3, n, &default_block_size_candidates())
        .expect("sweep from binary-loaded models");
    let best = sweep.best_block_size().expect("a finite best block size");
    println!(
        "swept {} block sizes for n = {n}: best b = {best} ({} model queries)",
        sweep.candidates.len(),
        sweep.evaluated_calls,
    );

    // The binary-loaded models must predict exactly what the builder's did.
    let original = pipeline
        .tune_trinv_block_size(TrinvVariant::V3, n, &default_block_size_candidates())
        .expect("sweep from built models");
    assert_eq!(original.candidates, sweep.candidates);
    println!("binary-loaded predictions match the built repository exactly");

    // 4. Byte-identical persistence: save → load → save reproduces the file.
    let first = std::fs::read(&bin_path).expect("read saved binary");
    let reloaded = ModelRepository::load_file(&bin_path).expect("reload binary");
    let roundtrip = dir.join("models_roundtrip.dlapb");
    reloaded
        .save_file_as(&roundtrip, RepositoryFormat::Binary)
        .expect("re-save binary");
    let second = std::fs::read(&roundtrip).expect("read re-saved binary");
    assert_eq!(first, second, "save → load → save must be byte-identical");
    println!(
        "save → load → save is byte-identical ({} bytes)",
        first.len()
    );
}
