//! Chaos test for the guarded publication path: NaN/∞-poisoned repository
//! deltas are thrown at [`ModelService::merge`] while four predict threads
//! hammer the service.  The invariants under fire:
//!
//! - no served prediction is ever non-finite,
//! - the served generation never adopts a rejected repository,
//! - every rejection (and every accepted publish) is accounted in the
//!   [`ServiceHealth`](dla_core::predict::ServiceHealth) ledger,
//! - valid publishes interleaved with the poison still go through.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dla_core::blas::{Diag, Side, Trans, Uplo};
use dla_core::machine::presets::harpertown_openblas;
use dla_core::model::{
    submodel_key, PiecewiseModel, Polynomial, Region, RegionModel, RoutineModel, VectorPolynomial,
};
use dla_core::predict::modelset::{build_repository, ModelSetConfig, Workload};
use dla_core::{Call, Locality, ModelRepository, ModelService, Routine};
use proptest::prelude::*;

/// A delta carrying exactly one poisoned coefficient: `value` (NaN or ±∞) at
/// vector-polynomial component `component` of a gemm submodel.  Everything
/// else about the delta is well formed, so the validator's rejection is
/// attributable to the single non-finite coefficient.
fn poisoned_delta(machine_id: &str, value: f64, component: usize) -> ModelRepository {
    let space = Region::new(vec![8, 8, 8], vec![128, 128, 128]);
    let clean = Polynomial::new(3, vec![vec![0, 0, 0]], vec![1.0]).unwrap();
    let poisoned = Polynomial::new(3, vec![vec![0, 0, 0]], vec![value]).unwrap();
    let mut polys = vec![clean; 5];
    polys[component % 5] = poisoned;
    let poly = VectorPolynomial::new(polys).unwrap();
    let region = RegionModel {
        region: space.clone(),
        poly,
        error: 0.0,
        samples_used: 1,
        revision: 0,
    };
    let piecewise = PiecewiseModel::new(space.clone(), vec![region], 1);
    let mut model = RoutineModel::new(Routine::Gemm, machine_id, Locality::InCache, space);
    let template = Call::gemm(Trans::NoTrans, Trans::NoTrans, 8, 8, 8, 1.0, 1.0);
    model.insert_submodel(submodel_key(&template), piecewise);
    let mut repo = ModelRepository::new();
    repo.insert(model);
    repo
}

/// Calls strictly inside the quick(192) trinv model spaces.
fn serving_calls() -> Vec<Call> {
    let mut calls = Vec::new();
    for m in [24usize, 72, 120, 168] {
        for n in [32usize, 88, 144, 184] {
            calls.push(Call::trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                m,
                n,
                1.0,
            ));
            calls.push(Call::trmm(
                Side::Right,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                m,
                n,
                1.0,
            ));
            calls.push(Call::gemm(
                Trans::NoTrans,
                Trans::NoTrans,
                m,
                n,
                48,
                1.0,
                1.0,
            ));
        }
    }
    calls
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random poison patterns (which non-finite value, which coefficient,
    /// how many attempts, where the one valid publish lands in between)
    /// never reach the serving path.
    #[test]
    fn poisoned_merges_never_reach_serving_under_concurrent_predicts(
        value_kind in 0usize..3,
        component in 0usize..5,
        attempts in 2usize..6,
        valid_after in 0usize..6,
    ) {
        let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][value_kind];
        let machine = harpertown_openblas();
        let machine_id = machine.id();
        let cfg = ModelSetConfig::quick(192);
        let (repo, _) =
            build_repository(&machine, Locality::InCache, 11, &cfg, &[Workload::Trinv]);
        let service = Arc::new(ModelService::new(repo, machine, Locality::InCache));
        let calls = serving_calls();

        // Every serving answer is finite before the chaos starts; remember
        // the baseline so the raced answers can be compared exactly.
        let baseline: Vec<f64> = calls
            .iter()
            .map(|c| service.predict_call(c).unwrap().median)
            .collect();
        prop_assert!(baseline.iter().all(|m| m.is_finite()));
        let health_before = service.health();
        let generation_before = service.refinement_report().generation;

        let stop = AtomicBool::new(false);
        let poison_outcome = std::thread::scope(|scope| {
            // Four predict threads hammer the service throughout the
            // poisoned publishes; they must only ever see the published
            // (finite) surface.
            for reader in 0..4 {
                let service = Arc::clone(&service);
                let stop = &stop;
                let calls = &calls;
                let baseline = &baseline;
                scope.spawn(move || {
                    let mut i = reader;
                    while !stop.load(Ordering::Relaxed) {
                        let idx = i % calls.len();
                        let median = service
                            .predict_call(&calls[idx])
                            .expect("serving must survive poisoned publishes")
                            .median;
                        assert!(
                            median.is_finite(),
                            "a non-finite prediction leaked into serving"
                        );
                        // The poison never lands, and the one valid publish
                        // republishes the same content, so the surface is
                        // bit-stable the whole time.
                        assert_eq!(median, baseline[idx]);
                        i += 1;
                    }
                });
            }

            let mut rejected = 0usize;
            let mut accepted = 0usize;
            for attempt in 0..attempts {
                if attempt == valid_after {
                    // A valid publish interleaved with the poison: merging a
                    // clone of the served repository must still be accepted.
                    service
                        .merge((*service.snapshot()).clone())
                        .expect("a clone of the served repository is valid");
                    accepted += 1;
                }
                let delta = poisoned_delta(&machine_id, value, component + attempt);
                let err = service
                    .merge(delta)
                    .expect_err("a non-finite delta must be rejected");
                assert!(matches!(err, dla_core::model::ModelError::Validation(_)));
                rejected += 1;
            }
            stop.store(true, Ordering::Relaxed);
            (rejected, accepted)
        });
        let (rejected, accepted) = poison_outcome;

        // The ledger accounts every publication attempt.
        let health = service.health();
        prop_assert_eq!(
            health.publishes_rejected,
            health_before.publishes_rejected + rejected as u64
        );
        prop_assert_eq!(
            health.last_good_generation,
            health_before.last_good_generation + accepted as u64
        );

        // The generation only ever advanced for accepted publishes, and the
        // last good generation tracks the served one.
        let generation_after = service.refinement_report().generation;
        prop_assert_eq!(generation_after, generation_before + accepted as u64);
        prop_assert_eq!(health.last_good_generation, generation_after);

        // Nothing non-finite became visible in the served snapshot.
        let snapshot = service.snapshot();
        prop_assert!(snapshot
            .iter()
            .flat_map(|(_, m)| m.submodels.values())
            .flat_map(|s| s.regions.iter())
            .flat_map(|r| r.poly.polynomials())
            .all(|p| p.coefficients().iter().all(|c| c.is_finite())));

        // And the served answers are still the baseline ones.
        for (call, expected) in calls.iter().zip(&baseline) {
            prop_assert_eq!(service.predict_call(call).unwrap().median, *expected);
        }
    }
}
