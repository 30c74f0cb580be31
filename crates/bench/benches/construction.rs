//! Criterion benchmarks of the model-construction path: per-region fitting,
//! full repository builds and the hot-swap rebuild that `ModelService`
//! serving gates on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::Locality;
use dla_core::mat::stats::Summary;
use dla_core::model::{FitWorkspace, Region, RegionModel};
use dla_core::predict::modelset::{build_repository, ModelSetConfig, Workload};
use dla_core::ModelService;

/// A smooth synthetic measurement surface (no sampler in the loop, so the
/// benches below time the *fit* itself).
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

fn grid_samples(region: &Region, per_dim: usize) -> Vec<(Vec<usize>, Summary)> {
    region
        .sample_grid(per_dim, 8)
        .into_iter()
        .map(|p| {
            let s = fake_summary(&p);
            (p, s)
        })
        .collect()
}

fn bench_region_fit(c: &mut Criterion) {
    let region2 = Region::new(vec![8, 8], vec![512, 512]);
    let samples2 = grid_samples(&region2, 5);
    let region3 = Region::new(vec![8, 8, 8], vec![256, 256, 128]);
    let samples3 = grid_samples(&region3, 4);
    let (points2, sums2): (Vec<_>, Vec<_>) = samples2.iter().cloned().unzip();
    let (points3, sums3): (Vec<_>, Vec<_>) = samples3.iter().cloned().unzip();
    let mut group = c.benchmark_group("region_fit");
    group.bench_function("naive_2d_deg2_25pts", |bench| {
        bench.iter(|| RegionModel::fit(region2.clone(), black_box(&samples2), 2).unwrap())
    });
    group.bench_function("engine_2d_deg2_25pts", |bench| {
        let mut ws = FitWorkspace::new();
        bench.iter(|| {
            RegionModel::fit_with(&mut ws, region2.clone(), black_box(&points2), &sums2, 2).unwrap()
        })
    });
    group.bench_function("naive_3d_deg2_64pts", |bench| {
        bench.iter(|| RegionModel::fit(region3.clone(), black_box(&samples3), 2).unwrap())
    });
    group.bench_function("engine_3d_deg2_64pts", |bench| {
        let mut ws = FitWorkspace::new();
        bench.iter(|| {
            RegionModel::fit_with(&mut ws, region3.clone(), black_box(&points3), &sums3, 2).unwrap()
        })
    });
    group.finish();
}

fn bench_build_repository(c: &mut Criterion) {
    let machine = harpertown_openblas();
    let cfg = ModelSetConfig::quick(512).with_workers(1);
    c.bench_function("build_repository_trinv_512_workers1", |bench| {
        bench.iter(|| {
            build_repository(
                &machine,
                Locality::InCache,
                1,
                black_box(&cfg),
                &[Workload::Trinv],
            )
        })
    });
}

fn bench_hot_swap_rebuild(c: &mut Criterion) {
    let machine = harpertown_openblas();
    let cfg = ModelSetConfig::quick(256).with_workers(1);
    let (initial, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
    let service = ModelService::new(initial, machine.clone(), Locality::InCache);
    c.bench_function("hot_swap_rebuild_trinv_256", |bench| {
        bench.iter(|| {
            let (repo, _) = build_repository(
                &machine,
                Locality::InCache,
                2,
                black_box(&cfg),
                &[Workload::Trinv],
            );
            service.swap(repo)
        })
    });
}

criterion_group!(
    construction,
    bench_region_fit,
    bench_build_repository,
    bench_hot_swap_rebuild
);
criterion_main!(construction);
