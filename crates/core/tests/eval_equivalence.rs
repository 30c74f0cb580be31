//! Equivalence of the compiled evaluation engine and the reference
//! implementation.
//!
//! The compiled engine (`dla_model::CompiledRepository` and friends) must be
//! a pure performance optimisation: for random piecewise models and query
//! points — covered, overlapping, uncovered-fallback and outside-the-space —
//! it has to agree with `PiecewiseModel::eval` within floating-point noise,
//! and rankings computed through either evaluator must order the algorithm
//! variants identically.

use dla_core::machine::presets::harpertown_openblas;
use dla_core::mat::stats::Quantity;
use dla_core::model::{
    monomial_exponents, CompiledPiecewise, PiecewiseModel, Polynomial, Region, RegionModel,
    VectorPolynomial,
};
use dla_core::predict::modelset::{build_repository, ModelSetConfig, Workload};
use dla_core::predict::workloads::{rank_sylv_variants, rank_trinv_variants};
use dla_core::predict::TraceEvaluator;
use dla_core::{Call, Locality, MachineConfig, ModelRepository, Predictor};
use dla_mat::stats::Summary;
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

/// A random piecewise model: random space, random (possibly overlapping,
/// possibly non-covering) regions, random low-degree polynomials, and an
/// occasional NaN fit error.
fn random_model(gen: &mut Gen) -> PiecewiseModel {
    let dim = gen.range(1, 3);
    let lo: Vec<usize> = (0..dim).map(|_| gen.range(1, 16)).collect();
    let hi: Vec<usize> = lo.iter().map(|&l| l + gen.range(32, 512)).collect();
    let space = Region::new(lo, hi);
    let region_count = gen.range(1, 6);
    let mut regions = Vec::with_capacity(region_count);
    for _ in 0..region_count {
        let rlo: Vec<usize> = (0..dim)
            .map(|d| gen.range(space.lo()[d], space.hi()[d]))
            .collect();
        let rhi: Vec<usize> = (0..dim).map(|d| gen.range(rlo[d], space.hi()[d])).collect();
        let region = Region::new(rlo, rhi);
        let degree = gen.range(0, 2) as u32;
        let exponents = monomial_exponents(dim, degree);
        let polys: Vec<Polynomial> = (0..5)
            .map(|_| {
                let coeffs: Vec<f64> = exponents.iter().map(|_| gen.coeff(100.0)).collect();
                Polynomial::new(dim, exponents.clone(), coeffs).unwrap()
            })
            .collect();
        let error = if gen.range(0, 9) == 0 {
            f64::NAN
        } else {
            gen.coeff(0.5).abs()
        };
        regions.push(RegionModel {
            region,
            poly: VectorPolynomial::new(polys).unwrap(),
            error,
            samples_used: 4,
            revision: 0,
        });
    }
    PiecewiseModel::new(space, regions, 16)
}

/// Query points exercising every evaluation path: covered and uncovered
/// interior points, region corners (overlap boundaries), and points outside
/// the space (fallback extrapolation).
fn query_points(gen: &mut Gen, model: &PiecewiseModel) -> Vec<Vec<usize>> {
    let space = &model.space;
    let dim = space.dim();
    let mut points = space.sample_grid(4, 1);
    for _ in 0..24 {
        points.push(
            (0..dim)
                .map(|d| gen.range(space.lo()[d], space.hi()[d]))
                .collect(),
        );
    }
    for r in &model.regions {
        points.push(r.region.lo().to_vec());
        points.push(r.region.hi().to_vec());
    }
    for _ in 0..6 {
        points.push((0..dim).map(|d| space.hi()[d] + gen.range(1, 64)).collect());
    }
    points
}

fn close(a: f64, b: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn summaries_close(a: &Summary, b: &Summary) -> bool {
    Quantity::ALL.iter().all(|&q| close(a.get(q), b.get(q)))
}

/// `true` when the two rankings order the candidates identically, up to
/// permutations *within* groups of tied scores: some variant pairs predict
/// efficiencies equal to the last ulp, and a tie may legitimately break
/// either way across the two evaluators' (equivalent but not bitwise
/// identical) arithmetic.
fn same_order_up_to_ties<T: PartialEq>(
    a: &[(T, dla_core::EfficiencyPrediction)],
    b: &[(T, dla_core::EfficiencyPrediction)],
) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        // The tie group: consecutive positions with (transitively) close medians.
        let mut j = i + 1;
        while j < a.len() && close(a[j - 1].1.median, a[j].1.median) {
            j += 1;
        }
        // The other ranking must hold the same labels in the same positions.
        let mut pool: Vec<&T> = b[i..j].iter().map(|(t, _)| t).collect();
        for (t, _) in &a[i..j] {
            match pool.iter().position(|p| *p == t) {
                Some(k) => {
                    pool.remove(k);
                }
                None => return false,
            }
        }
        i = j;
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Compiled evaluation matches the reference on random piecewise models
    /// and query points (covered, overlapping, fallback, out-of-space): the
    /// same answering region, which the serving telemetry counts, and the
    /// same summary.
    #[test]
    fn compiled_piecewise_matches_reference(seed in 0u64..1_000_000) {
        let mut gen = Gen(seed);
        let model = random_model(&mut gen);
        let compiled = CompiledPiecewise::compile(&model)
            .expect("random low-degree models always compile");
        prop_assert_eq!(compiled.region_count(), model.region_count());
        let points = query_points(&mut gen, &model);
        for point in &points {
            let (reference, reference_region) = model.eval_traced(point).unwrap();
            let (fast, fast_region) = compiled.eval_traced(point).unwrap();
            prop_assert!(
                fast_region as usize == reference_region,
                "region at {:?}: reference {} vs compiled {}",
                point,
                reference_region,
                fast_region
            );
            prop_assert!(
                summaries_close(&reference, &fast),
                "mismatch at {:?}: reference {:?} vs compiled {:?}",
                point,
                reference,
                fast
            );
        }
        // Arity errors surface on both paths.
        let bad = vec![8usize; model.space.dim() + 1];
        prop_assert!(model.eval(&bad).is_err());
        prop_assert!(compiled.eval(&bad).is_err());
    }
}

/// The pre-PR-3 uncompiled evaluator: repository lookup plus
/// `RoutineModel::estimate` per call.  Kept here as the reference
/// implementation the compiled `Predictor` must agree with.
struct NaiveEvaluator<'a> {
    repository: &'a ModelRepository,
    machine: MachineConfig,
    locality: Locality,
}

impl TraceEvaluator for NaiveEvaluator<'_> {
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    fn predict_call(&self, call: &Call) -> dla_core::model::Result<Summary> {
        self.repository
            .get(call.routine(), &self.machine.id(), self.locality)
            .ok_or_else(|| {
                dla_core::model::ModelError::MissingSubmodel(format!(
                    "no model for {} on {}",
                    call.routine(),
                    self.machine.id()
                ))
            })?
            .estimate(call)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// On a real (refinement-built) repository, per-call predictions and
    /// whole-variant rankings are identical under the compiled and the
    /// naive evaluator.
    #[test]
    fn rankings_are_identical_under_both_evaluators(seed in 0u64..1_000) {
        let machine = harpertown_openblas();
        let cfg = ModelSetConfig::quick(256);
        let (repo, _) = build_repository(
            &machine,
            Locality::InCache,
            seed,
            &cfg,
            &[Workload::Trinv, Workload::Sylv],
        );
        let naive = NaiveEvaluator {
            repository: &repo,
            machine: machine.clone(),
            locality: Locality::InCache,
        };
        let compiled = Predictor::new(&repo, machine.clone(), Locality::InCache);

        // Per-call equivalence over a spread of calls.
        for n in [8usize, 65, 96, 130, 224, 256, 400] {
            let calls = [
                Call::gemm(
                    dla_core::blas::Trans::NoTrans,
                    dla_core::blas::Trans::NoTrans,
                    n,
                    n,
                    n.min(96),
                    1.0,
                    1.0,
                ),
                Call::trsm(
                    dla_core::blas::Side::Left,
                    dla_core::blas::Uplo::Lower,
                    dla_core::blas::Trans::NoTrans,
                    dla_core::blas::Diag::NonUnit,
                    n,
                    n,
                    1.0,
                ),
                Call::trtri_unb(dla_core::blas::Uplo::Lower, dla_core::blas::Diag::NonUnit, n),
                Call::sylv_unb(n, n),
            ];
            for call in &calls {
                let a = naive.predict_call(call).unwrap();
                let b = compiled.predict_call(call).unwrap();
                prop_assert!(
                    summaries_close(&a, &b),
                    "{call}: naive {:?} vs compiled {:?}",
                    a,
                    b
                );
            }
        }

        // Ranking order equivalence (identical up to last-ulp ties) and
        // per-position efficiency closeness.
        let naive_trinv = rank_trinv_variants(&naive, 224, 32).unwrap();
        let fast_trinv = rank_trinv_variants(&compiled, 224, 32).unwrap();
        prop_assert!(same_order_up_to_ties(&naive_trinv, &fast_trinv));
        for ((_, ea), (_, eb)) in naive_trinv.iter().zip(&fast_trinv) {
            prop_assert!(close(ea.median, eb.median));
        }
        let naive_sylv = rank_sylv_variants(&naive, 192, 32).unwrap();
        let fast_sylv = rank_sylv_variants(&compiled, 192, 32).unwrap();
        prop_assert!(same_order_up_to_ties(&naive_sylv, &fast_sylv));
        for ((_, ea), (_, eb)) in naive_sylv.iter().zip(&fast_sylv) {
            prop_assert!(close(ea.median, eb.median));
        }
    }
}
