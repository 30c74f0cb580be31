//! Persistence equivalence: a repository — including one assembled by the
//! online-refinement path's submodel-granular merge — survives
//! save → load → compile with *identical* compiled-engine predictions
//! (≤ 1e-12, which the shortest-roundtrip float formatting makes exact),
//! for arbitrary contents including `NaN`/`±inf` region errors and
//! coefficients.

use dla_core::blas::{Call, Diag, Routine, Side, Trans, Uplo};
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::SimExecutor;
use dla_core::mat::stats::{Quantity, Summary};
use dla_core::model::{
    submodel_key, CompiledRepository, CompiledRoutineModel, FlagKey, ModelRepository,
    PiecewiseModel, Polynomial, Region, RegionModel, RoutineModel, VectorPolynomial,
};
use dla_core::modeler::online::dedupe_templates;
use dla_core::modeler::{OnlineRefiner, OnlineRefinerConfig};
use dla_core::predict::modelset::{build_repository, workload_templates, ModelSetConfig};
use dla_core::{Locality, ModelService, Workload};
use proptest::prelude::*;

/// Tiny deterministic generator (splitmix64), as in the sibling equivalence
/// suites.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }

    fn coeff(&mut self, scale: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (2.0 * unit - 1.0) * scale
    }

    /// A coefficient that is occasionally `NaN` or `±inf`.
    fn wild_coeff(&mut self) -> f64 {
        match self.range(0, 9) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => self.coeff(1e3),
        }
    }
}

/// `a` and `b` agree to the 1e-12 criterion (NaN matches NaN, infinities
/// must match exactly).
fn same(a: f64, b: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

fn assert_same_summary(a: &Summary, b: &Summary) {
    for q in Quantity::ALL {
        assert!(
            same(a.get(q), b.get(q)),
            "{q:?}: {} vs {}",
            a.get(q),
            b.get(q)
        );
    }
}

/// A random region model over `region`: a fitted-looking polynomial basis
/// with random (occasionally non-finite) coefficients and a random
/// (occasionally non-finite) fit error.
fn random_region_model(gen: &mut Gen, region: &Region) -> RegionModel {
    let dim = region.dim();
    let degree = gen.range(0, 2) as u32;
    let exponents = dla_core::model::monomial_exponents(dim, degree);
    let polys: Vec<Polynomial> = (0..Quantity::ALL.len())
        .map(|_| {
            let coeffs: Vec<f64> = exponents.iter().map(|_| gen.wild_coeff()).collect();
            Polynomial::new(dim, exponents.clone(), coeffs).unwrap()
        })
        .collect();
    let error = match gen.range(0, 7) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => gen.coeff(0.5).abs(),
    };
    RegionModel {
        region: region.clone(),
        poly: VectorPolynomial::new(polys).unwrap(),
        error,
        samples_used: gen.range(1, 99),
        revision: 0,
    }
}

/// The submodel key of a `routine` call whose flags all have index `f`:
/// a key the routine's calls produce.
fn uniform_key(routine: Routine, f: usize) -> FlagKey {
    let (side, uplo, trans, diag) = (
        Side::VALUES[f],
        Uplo::VALUES[f],
        Trans::VALUES[f],
        Diag::VALUES[f],
    );
    let call = match routine {
        Routine::Gemm => Call::gemm(trans, trans, 8, 8, 8, 1.0, 0.0),
        Routine::Trsm => Call::trsm(side, uplo, trans, diag, 8, 8, 1.0),
        Routine::Trmm => Call::trmm(side, uplo, trans, diag, 8, 8, 1.0),
        Routine::TrtriUnb => Call::trtri_unb(uplo, diag, 8),
        Routine::SylvUnb => Call::sylv_unb(8, 8),
    };
    submodel_key(&call)
}

/// A random routine model with 1–3 flag-variant submodels.
fn random_routine_model(gen: &mut Gen, routine: Routine, machine_id: &str) -> RoutineModel {
    let dim = routine.size_count();
    let hi = 8 * gen.range(8, 48);
    let space = Region::new(vec![8; dim], vec![hi; dim]);
    let mut model = RoutineModel::new(routine, machine_id, Locality::InCache, space.clone());
    let variants = gen.range(1, 3);
    for v in 0..variants {
        let mut regions = Vec::new();
        for part in space.split(gen.range(16, 64), 8) {
            regions.push(random_region_model(gen, &part));
        }
        if gen.range(0, 1) == 1 {
            // An extra overlapping region exercises min-error selection.
            regions.push(random_region_model(gen, &space));
        }
        let total = regions.iter().map(|r| r.samples_used).sum();
        model.insert_submodel(
            uniform_key(routine, v % 2),
            PiecewiseModel::new(space.clone(), regions, total),
        );
    }
    model
}

fn random_repository(seed: u64) -> ModelRepository {
    let mut gen = Gen(seed);
    let mut repo = ModelRepository::new();
    for routine in [
        Routine::Trsm,
        Routine::Gemm,
        Routine::TrtriUnb,
        Routine::SylvUnb,
    ] {
        if gen.range(0, 3) > 0 {
            repo.insert(random_routine_model(&mut gen, routine, "machine_a"));
        }
    }
    if repo.is_empty() {
        repo.insert(random_routine_model(&mut gen, Routine::Trsm, "machine_a"));
    }
    repo
}

/// Probe points across (and slightly outside) a submodel's space.
fn probe_points(space: &Region) -> Vec<Vec<usize>> {
    let mut points = space.sample_grid(4, 1);
    let outside: Vec<usize> = space.hi().iter().map(|&h| h + 37).collect();
    points.push(outside);
    points
}

/// The compiled model of `routine` on `machine_id` under `locality`, looked
/// up through the routing table, as `Predictor` serves it.
fn compiled_model<'a>(
    compiled: &'a CompiledRepository,
    routine: Routine,
    machine_id: &str,
    locality: Locality,
) -> Option<&'a CompiledRoutineModel> {
    let slot = compiled.resolve(machine_id, locality).slot(routine)?;
    compiled.model_at(slot)
}

/// Both repositories produce identical compiled-engine predictions on every
/// submodel (compiled vs compiled, probing through the repository-level
/// compiled form).
fn assert_compiled_equivalent(original: &ModelRepository, reloaded: &ModelRepository) {
    assert_eq!(original.len(), reloaded.len());
    let compiled_a = original.compiled();
    let compiled_b = reloaded.compiled();
    for (key, model) in original.iter() {
        let locality = Locality::from_name(&key.locality).unwrap();
        let routine = Routine::from_name(&key.routine).unwrap();
        let a = compiled_model(&compiled_a, routine, &key.machine_id, locality)
            .expect("original compiled model");
        let b = compiled_model(&compiled_b, routine, &key.machine_id, locality)
            .expect("reloaded compiled model");
        assert_eq!(a.submodel_count(), b.submodel_count());
        for (flags, submodel) in &model.submodels {
            // Probe through the routine-model estimate when a call shape
            // exists; always probe the piecewise layer directly.
            let reloaded_model = reloaded
                .get(routine, &key.machine_id, locality)
                .expect("reloaded source model");
            let reloaded_sub = reloaded_model
                .submodel(*flags)
                .expect("reloaded submodel for flags");
            for p in probe_points(&submodel.space) {
                let ours = submodel.eval(&p).unwrap();
                let theirs = reloaded_sub.eval(&p).unwrap();
                assert_same_summary(&ours, &theirs);
            }
        }
        // Compiled estimates agree on a concrete call where constructible.
        if routine == Routine::Trsm {
            let call = Call::trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                100,
                60,
                1.0,
            );
            match (a.estimate(&call), b.estimate(&call)) {
                (Ok(x), Ok(y)) => assert_same_summary(&x, &y),
                (Err(_), Err(_)) => {}
                (x, y) => panic!("estimate mismatch: {x:?} vs {y:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary repositories — NaN/±inf errors and coefficients included —
    /// roundtrip through the text format with byte-identical re-serialisation
    /// and identical compiled predictions.
    #[test]
    fn save_load_compile_equivalence(seed in 0u64..1_000_000_000) {
        let repo = random_repository(seed);
        let text = repo.to_text().unwrap();
        let reloaded = ModelRepository::from_text(&text).unwrap();
        // The shortest-roundtrip float formatting makes the text form a
        // fixed point: serialising the reloaded repository reproduces it.
        prop_assert_eq!(&text, &reloaded.to_text().unwrap());
        assert_compiled_equivalent(&repo, &reloaded);
    }

    /// A submodel-granular merge of two repositories holding disjoint flag
    /// variants persists and reloads with identical compiled predictions.
    #[test]
    fn merged_repository_persists_equivalently(seed in 0u64..1_000_000_000) {
        let full = random_repository(seed);
        // Split every routine model's flag variants across two repositories.
        let mut left = ModelRepository::new();
        let mut right = ModelRepository::new();
        for (_, model) in full.iter() {
            let mut l = model.clone();
            let mut r = model.clone();
            let keys: Vec<FlagKey> = model.submodels.keys().copied().collect();
            for (i, key) in keys.iter().enumerate() {
                if i % 2 == 0 {
                    r.submodels.remove(key);
                } else {
                    l.submodels.remove(key);
                }
            }
            if !l.submodels.is_empty() {
                left.insert(l);
            }
            if !r.submodels.is_empty() {
                right.insert(r);
            }
        }
        let mut merged = left;
        merged.merge_models(right);
        // The merge must reassemble every flag variant of the original.
        for (key, model) in full.iter() {
            let locality = Locality::from_name(&key.locality).unwrap();
            let routine = Routine::from_name(&key.routine).unwrap();
            let m = merged.get(routine, &key.machine_id, locality).unwrap();
            prop_assert_eq!(m.submodel_count(), model.submodel_count());
        }
        let text = merged.to_text().unwrap();
        let reloaded = ModelRepository::from_text(&text).unwrap();
        assert_compiled_equivalent(&merged, &reloaded);
    }
}

/// The non-random end of the criterion: a repository actually produced by
/// the online-refinement loop (build → serve → refine → submodel-granular
/// merge) persists and reloads with identical compiled predictions.
#[test]
fn refined_repository_survives_save_load_compile() {
    let machine = harpertown_openblas();
    let cfg = ModelSetConfig::quick(192);
    let (repo, _) = build_repository(&machine, Locality::InCache, 5, &cfg, &[Workload::Trinv]);
    let service = ModelService::new(repo, machine.clone(), Locality::InCache);

    // Serve traffic, refine the hottest cells, publish.
    for n in [32usize, 64, 96, 128, 160] {
        let call = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            n,
            n,
            1.0,
        );
        let _ = service.predict_call(&call).unwrap();
    }
    let report = service.refinement_report();
    assert!(!report.is_empty());
    let templates: Vec<Call> = workload_templates(Workload::Trinv, &cfg)
        .into_iter()
        .flat_map(|(calls, _)| calls)
        .collect();
    let mut refiner = OnlineRefiner::new(
        SimExecutor::new(machine.clone(), 31),
        Locality::InCache,
        2,
        OnlineRefinerConfig::default(),
    )
    .with_templates(&dedupe_templates(&templates));
    let (delta, outcome) = refiner.refine(&service.snapshot(), &report);
    assert!(outcome.cells_refined > 0);
    service.merge(delta).unwrap();

    // Persist → reload → compile: identical predictions everywhere.
    let refined = (*service.snapshot()).clone();
    let text = refined.to_text().unwrap();
    let reloaded = ModelRepository::from_text(&text).unwrap();
    assert_eq!(text, reloaded.to_text().unwrap());
    let compiled_a = refined.compiled();
    let compiled_b = reloaded.compiled();
    let model_a = compiled_model(&compiled_a, Routine::Trsm, &machine.id(), Locality::InCache);
    let model_b = compiled_model(&compiled_b, Routine::Trsm, &machine.id(), Locality::InCache);
    let (model_a, model_b) = (model_a.unwrap(), model_b.unwrap());
    for n in (16..=176).step_by(8) {
        let call = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            n,
            n + 8,
            1.0,
        );
        let a = model_a.estimate(&call).unwrap();
        let b = model_b.estimate(&call).unwrap();
        for q in Quantity::ALL {
            assert!(
                same(a.get(q), b.get(q)),
                "{q:?} at n={n}: {} vs {}",
                a.get(q),
                b.get(q)
            );
        }
    }
}
