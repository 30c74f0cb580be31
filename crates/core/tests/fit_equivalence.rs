//! Equivalence of the compiled fit engine and the reference fit path.
//!
//! The fit engine (`dla_model::FitWorkspace`, threaded through the Modeler's
//! strategies) must be a pure performance optimisation: for random sample
//! sets — smooth, noisy, rank-deficient, and too small for the requested
//! degree (the constant-fit fallback) — it has to agree with the reference
//! implementations (`VectorPolynomial::fit`, `RegionModel::fit`, and the
//! pre-engine refinement loop) to within floating-point noise.

use dla_core::blas::{Call, Diag, Side, Trans, Uplo};
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::SimExecutor;
use dla_core::mat::stats::Summary;
use dla_core::model::{
    error_order, FitWorkspace, PiecewiseModel, Region, RegionModel, VectorPolynomial,
};
use dla_core::modeler::{RefinementConfig, SampleOracle};
use dla_core::sampler::{Sampler, SamplerConfig};
use proptest::prelude::*;

/// Tiny deterministic generator (splitmix64) so the test needs no RNG dep.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }

    /// Uniform draw from `[-scale, scale]`.
    fn coeff(&mut self, scale: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (2.0 * unit - 1.0) * scale
    }
}

fn close(a: f64, b: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// A smooth synthetic measurement at a raw point.
fn summary_at(gen_mix: &[f64; 4], p: &[usize]) -> Summary {
    let x = p[0] as f64;
    let y = p.get(1).map(|&v| v as f64).unwrap_or(0.0);
    let z = p.get(2).map(|&v| v as f64).unwrap_or(0.0);
    let median =
        1000.0 + gen_mix[0] * x + gen_mix[1] * y + gen_mix[2] * z + gen_mix[3] * 0.01 * x * y;
    Summary {
        min: median * 0.93,
        mean: median * 1.02,
        median,
        max: median * 1.12,
        std_dev: median.abs() * 0.03,
        count: 8,
    }
}

/// Random sample set over a random region: grid points plus duplicates
/// (revisited points), degenerate collinear sets, and out-of-region garbage.
#[allow(clippy::type_complexity)]
fn random_sample_set(gen: &mut Gen) -> (Region, Vec<Vec<usize>>, Vec<Summary>, u32) {
    let dim = gen.range(1, 3);
    let lo: Vec<usize> = (0..dim).map(|_| 8 * gen.range(1, 4)).collect();
    let hi: Vec<usize> = lo.iter().map(|&l| l + 8 * gen.range(2, 40)).collect();
    let region = Region::new(lo, hi);
    let mix = [
        gen.coeff(5.0),
        gen.coeff(5.0),
        gen.coeff(2.0),
        gen.coeff(1.0),
    ];
    let mut points = match gen.range(0, 3) {
        // Degenerate: all points on the diagonal (collinear coordinates make
        // the design matrix rank deficient for degree >= 1 in 2-D/3-D).
        0 => {
            let n = gen.range(2, 12);
            (0..n)
                .map(|i| {
                    let t = region.lo()[0] + (region.extent(0) * i) / n.max(1);
                    (0..dim)
                        .map(|d| t.clamp(region.lo()[d], region.hi()[d]))
                        .collect()
                })
                .collect::<Vec<Vec<usize>>>()
        }
        // Tiny sets that force the constant-fit fallback at degree 2.
        1 => {
            let n = gen.range(1, 4);
            (0..n)
                .map(|_| {
                    (0..dim)
                        .map(|d| gen.range(region.lo()[d], region.hi()[d]))
                        .collect()
                })
                .collect()
        }
        // Regular fitting grids.
        _ => region.sample_grid(gen.range(3, 5), 8),
    };
    // Duplicates (cached revisits) and out-of-region garbage.
    if !points.is_empty() && gen.range(0, 1) == 0 {
        let dup = points[gen.range(0, points.len() - 1)].clone();
        points.push(dup);
    }
    points.push(
        (0..dim)
            .map(|d| region.hi()[d] + gen.range(8, 64))
            .collect(),
    );
    let summaries: Vec<Summary> = points.iter().map(|p| summary_at(&mix, p)).collect();
    let degree = gen.range(0, 3) as u32;
    (region, points, summaries, degree)
}

fn polys_close(a: &VectorPolynomial, b: &VectorPolynomial) -> std::result::Result<(), String> {
    for (q, (pa, pb)) in a.polynomials().iter().zip(b.polynomials()).enumerate() {
        if pa.exponents() != pb.exponents() {
            return Err(format!("quantity {q}: monomial plans differ"));
        }
        for (t, (ca, cb)) in pa.coefficients().iter().zip(pb.coefficients()).enumerate() {
            if !close(*ca, *cb) {
                return Err(format!("quantity {q} term {t}: {ca} vs {cb}"));
            }
        }
    }
    Ok(())
}

fn region_models_close(a: &RegionModel, b: &RegionModel) -> std::result::Result<(), String> {
    if a.region != b.region {
        return Err("regions differ".to_string());
    }
    if a.samples_used != b.samples_used {
        return Err(format!(
            "samples_used {} vs {}",
            a.samples_used, b.samples_used
        ));
    }
    if !close(a.error, b.error) {
        return Err(format!("errors {} vs {}", a.error, b.error));
    }
    polys_close(&a.poly, &b.poly)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Engine region fits (plain and fallback-folded) match the reference
    /// implementation on random sample sets, including rank-deficient and
    /// too-small (degree-fallback) ones.
    #[test]
    fn engine_region_fit_matches_reference(seed in 0u64..1_000_000) {
        let mut gen = Gen(seed);
        let (region, points, summaries, degree) = random_sample_set(&mut gen);
        let pairs: Vec<(Vec<usize>, Summary)> = points
            .iter()
            .cloned()
            .zip(summaries.iter().copied())
            .collect();
        let mut ws = FitWorkspace::new();

        // Plain fit: identical success/failure, equivalent models.
        let reference = RegionModel::fit(region.clone(), &pairs, degree);
        let engine = RegionModel::fit_with(&mut ws, region.clone(), &points, &summaries, degree);
        match (reference, engine) {
            (Ok(r), Ok(e)) => {
                if let Err(msg) = region_models_close(&r, &e) {
                    return Err(format!("seed {seed}: {msg}"));
                }
            }
            (Err(_), Err(_)) => {}
            (r, e) => {
                return Err(format!(
                    "seed {seed}: reference {r:?} vs engine {e:?}"
                ));
            }
        }

        // Folded fallback vs the reference two-call fallback.
        let naive_fallback = RegionModel::fit(region.clone(), &pairs, degree)
            .or_else(|_| RegionModel::fit(region.clone(), &pairs, 0));
        let engine_fallback =
            RegionModel::fit_with_fallback(&mut ws, region, &points, &summaries, degree);
        match (naive_fallback, engine_fallback) {
            (Ok(r), Ok(e)) => {
                if let Err(msg) = region_models_close(&r, &e) {
                    return Err(format!("seed {seed} fallback: {msg}"));
                }
            }
            (Err(_), Err(_)) => {}
            (r, e) => {
                return Err(format!(
                    "seed {seed} fallback: reference {r:?} vs engine {e:?}"
                ));
            }
        }
    }

    /// Engine vector-polynomial fits match the reference on normalised
    /// points (the workspace is reused across cases to exercise buffer and
    /// plan recycling).
    #[test]
    fn engine_vector_fit_matches_reference(seed in 0u64..1_000_000) {
        let mut gen = Gen(seed);
        let mut ws = FitWorkspace::new();
        for _ in 0..3 {
            let (region, points, summaries, degree) = random_sample_set(&mut gen);
            let normalised: Vec<Vec<f64>> = points
                .iter()
                .filter(|p| region.contains(p))
                .map(|p| region.normalize(p))
                .collect();
            let kept: Vec<Summary> = points
                .iter()
                .zip(&summaries)
                .filter(|(p, _)| region.contains(p))
                .map(|(_, s)| *s)
                .collect();
            if normalised.is_empty() {
                continue;
            }
            let reference = VectorPolynomial::fit(&normalised, &kept, degree);
            let engine = VectorPolynomial::fit_with(&mut ws, &normalised, &kept, degree);
            match (reference, engine) {
                (Ok(r), Ok(e)) => {
                    if let Err(msg) = polys_close(&r, &e) {
                        return Err(format!("seed {seed}: {msg}"));
                    }
                }
                (Err(_), Err(_)) => {}
                (r, e) => {
                    return Err(format!(
                        "seed {seed}: reference {r:?} vs engine {e:?}"
                    ));
                }
            }
        }
    }
}

/// The pre-engine Adaptive Refinement loop, reimplemented verbatim as the
/// reference: per-region `sample_grid` + reference `RegionModel::fit` with
/// the two-call degree fallback.
fn reference_refinement(
    config: &RefinementConfig,
    oracle: &mut SampleOracle<'_, SimExecutor>,
    space: &Region,
) -> PiecewiseModel {
    let mut stack = vec![space.clone()];
    let mut regions: Vec<RegionModel> = Vec::new();
    let step = oracle.grid_step();
    while let Some(region) = stack.pop() {
        let points = region.sample_grid(config.grid_per_dim, step);
        let mut summaries = Vec::new();
        let Ok(()) = oracle.measure_into(&points, &mut summaries);
        let samples: Vec<(Vec<usize>, Summary)> = points.into_iter().zip(summaries).collect();
        let fitted =
            RegionModel::fit(region.clone(), &samples, config.degree).unwrap_or_else(|_| {
                RegionModel::fit(region.clone(), &samples, 0)
                    .expect("constant fit succeeds with at least one sample")
            });
        let splittable_children = region.split(config.min_region_size, step);
        let can_split = splittable_children.len() > 1;
        if fitted.error <= config.error_bound || !can_split {
            regions.push(fitted);
        } else {
            stack.extend(splittable_children);
        }
    }
    let total = oracle.unique_samples();
    regions.sort_by(|a, b| error_order(a.error, b.error));
    PiecewiseModel::new(space.clone(), regions, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A full refinement-built piecewise model is equivalent whether the
    /// regions are fitted by the engine (production path) or the reference
    /// fit: same split decisions, same regions, models within 1e-9.
    #[test]
    fn refinement_models_are_equivalent(seed in 0u64..1_000) {
        let mut gen = Gen(seed);
        let dim = gen.range(1, 2);
        let hi = 8 * gen.range(24, 64);
        let space = Region::new(vec![8; dim], vec![hi; dim]);
        let config = RefinementConfig {
            error_bound: 0.05 + 0.05 * gen.range(1, 3) as f64,
            min_region_size: 8 * gen.range(4, 12),
            grid_per_dim: gen.range(3, 4),
            degree: 2,
        };
        let template = if dim == 1 {
            Call::trtri_unb(Uplo::Lower, Diag::NonUnit, 8)
        } else {
            Call::trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, 8, 8, 1.0)
        };
        // Noiseless executor: summaries are a pure function of the point, so
        // the two builds see identical measurements regardless of sampling
        // order.
        let machine = harpertown_openblas();
        let mut sampler = Sampler::new(
            SimExecutor::noiseless(machine.clone()),
            SamplerConfig::in_cache(1),
        );
        let mut oracle = SampleOracle::new(&mut sampler, template.clone(), 8);
        let engine_model = config.build(&mut oracle, &space);

        let mut ref_sampler = Sampler::new(
            SimExecutor::noiseless(machine),
            SamplerConfig::in_cache(1),
        );
        let mut ref_oracle = SampleOracle::new(&mut ref_sampler, template, 8);
        let reference_model = reference_refinement(&config, &mut ref_oracle, &space);

        prop_assert_eq!(engine_model.region_count(), reference_model.region_count());
        prop_assert_eq!(engine_model.total_samples, reference_model.total_samples);
        for (e, r) in engine_model.regions.iter().zip(&reference_model.regions) {
            if let Err(msg) = region_models_close(e, r) {
                return Err(format!("seed {seed}: {msg}"));
            }
        }
        // The resulting models answer queries identically (within 1e-9).
        for p in space.sample_grid(7, 1) {
            let a = engine_model.eval(&p).unwrap();
            let b = reference_model.eval(&p).unwrap();
            prop_assert!(
                close(a.median, b.median) && close(a.min, b.min) && close(a.max, b.max),
                "query {:?}: {:?} vs {:?}",
                p,
                a,
                b
            );
        }
    }
}
