//! Benchmarks of per-region fitting: the reference fit retained on the
//! model types against the fit engine the Modeler uses.  Repository builds
//! and hot swaps are timed by perfbench (`modeler.self_ms`,
//! `model.compile_ms`).  Writes `BENCH_construction.json`.

use std::error::Error;
use std::hint::black_box;

use dla_bench::harness::Bench;
use dla_core::mat::stats::Summary;
use dla_core::model::{FitWorkspace, Region, RegionModel};

/// A smooth synthetic measurement surface (no sampler in the loop, so the
/// rows below time the *fit* itself).
fn fake_summary(p: &[usize]) -> Summary {
    let x = p[0] as f64;
    let y = p.get(1).map(|&v| v as f64).unwrap_or(1.0);
    let z = p.get(2).map(|&v| v as f64).unwrap_or(1.0);
    let median = 1000.0 + 2.0 * x + 3.0 * y + 0.5 * z + 0.01 * x * y + 0.002 * y * z;
    Summary {
        min: median * 0.95,
        mean: median * 1.01,
        median,
        max: median * 1.10,
        std_dev: median * 0.02,
        count: 10,
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut bench = Bench::new("construction");
    for (case, region, per_dim) in [
        ("2d_deg2_25pts", Region::new(vec![8, 8], vec![512, 512]), 5),
        (
            "3d_deg2_64pts",
            Region::new(vec![8, 8, 8], vec![256, 256, 128]),
            4,
        ),
    ] {
        let samples: Vec<(Vec<usize>, Summary)> = region
            .sample_grid(per_dim, 8)
            .into_iter()
            .map(|p| {
                let s = fake_summary(&p);
                (p, s)
            })
            .collect();
        let (points, sums): (Vec<_>, Vec<_>) = samples.iter().cloned().unzip();
        let naive = bench.time(&format!("region_fit/naive_{case}"), "model", || {
            RegionModel::fit(region.clone(), black_box(&samples), 2).unwrap()
        })?;
        let mut ws = FitWorkspace::new();
        let engine = bench.time(&format!("region_fit/engine_{case}"), "model", || {
            RegionModel::fit_with(&mut ws, region.clone(), black_box(&points), &sums, 2).unwrap()
        })?;
        println!("  engine vs naive: {:.1}x", naive / engine);
    }
    Ok(bench.finish()?)
}
