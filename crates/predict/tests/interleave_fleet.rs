//! Model-checked concurrency invariants of the fleet tier's breaker state
//! machine and last-good slot, explored exhaustively by the vendored
//! `interleave` checker.
//!
//! Only compiled under `--cfg interleave` (the `dla_sync` facade then routes
//! the breaker word and the snapshot slot's lock through the checker's shim
//! types, so these tests explore the *real* fleet code):
//!
//! ```text
//! RUSTFLAGS="--cfg interleave" cargo test -p dla-predict --test interleave_fleet
//! ```

#![cfg(interleave)]

use dla_blas::{Call, Diag, Routine, Side, Trans, Uplo};
use dla_machine::presets::harpertown_openblas;
use dla_machine::{ChaosConfig, Locality};
use dla_mat::stats::Summary;
use dla_model::sync::Arc;
use dla_model::{FlagKey, ModelRepository, PiecewiseModel, Region, RegionModel, RoutineModel};
use dla_predict::{
    Admission, BreakerConfig, BreakerState, ChaosShard, CircuitBreaker, FleetBuilder, FleetConfig,
    FleetQuery, LastGoodSnapshot, ModelService, Predictor, Priority, Served, ServiceClient,
    ShardClient,
};

fn config() -> BreakerConfig {
    BreakerConfig {
        degraded_threshold: 2,
        down_threshold: 2,
        cooldown: 1,
    }
}

/// Invariant: two failure recorders racing at the Healthy → Degraded
/// threshold trip the breaker **exactly once** — the packed-word CAS makes
/// one recorder the trip winner and the other a plain strike, in every
/// interleaving.
#[test]
fn racing_failures_trip_exactly_once() {
    interleave::model(|| {
        let breaker = Arc::new(CircuitBreaker::new());
        let cfg = config();
        breaker.record_failure(&cfg); // one strike on the board
        let racer = Arc::clone(&breaker);
        let racer_cfg = cfg.clone();
        let other = interleave::thread::spawn(move || {
            racer.record_failure(&racer_cfg);
        });
        breaker.record_failure(&cfg);
        other.join().unwrap();
        // Three strikes against thresholds (2, 2): Degraded after the
        // second, one more strike toward Down — never two Degraded trips,
        // and the third strike alone can reach Down at most once.
        let stats = breaker.stats();
        assert_eq!(stats.trips_degraded, 1, "the Degraded trip must count once");
        assert!(stats.trips_down <= 1);
        assert!(matches!(
            stats.state,
            BreakerState::Degraded | BreakerState::Down
        ));
    });
}

/// Invariant: when a Down breaker's cooldown expires, concurrent admitters
/// claim **exactly one** half-open probe — the probe CAS re-arms the
/// cooldown, so the loser is rejected, in every interleaving.
#[test]
fn concurrent_admits_claim_one_probe() {
    interleave::model(|| {
        let breaker = Arc::new(CircuitBreaker::new());
        let cfg = config();
        // Healthy → Degraded → Down (thresholds 2/2), then burn the
        // one-query cooldown so the probe slot is open.
        for _ in 0..4 {
            breaker.record_failure(&cfg);
        }
        assert_eq!(breaker.state(), BreakerState::Down);
        assert_eq!(breaker.admit(&cfg), Admission::Reject);

        let racer = Arc::clone(&breaker);
        let racer_cfg = cfg.clone();
        let other = interleave::thread::spawn(move || racer.admit(&racer_cfg));
        let mine = breaker.admit(&cfg);
        let theirs = other.join().unwrap();
        let probes = [mine, theirs]
            .iter()
            .filter(|&&a| a == Admission::Probe)
            .count();
        assert_eq!(probes, 1, "exactly one admitter may win the probe slot");
        assert!(!matches!(mine, Admission::Allow));
        assert!(!matches!(theirs, Admission::Allow));
        assert_eq!(breaker.stats().probes, 1);
    });
}

/// Invariant: a success racing a failure on a Degraded breaker settles into
/// a valid serialization — either the success landed last (Healthy, one
/// recovery) or the failure did (still broken, no phantom recovery) — and
/// the recovery is never double-counted.
#[test]
fn success_racing_failure_serializes() {
    interleave::model(|| {
        let breaker = Arc::new(CircuitBreaker::new());
        let cfg = config();
        breaker.record_failure(&cfg);
        breaker.record_failure(&cfg);
        assert_eq!(breaker.state(), BreakerState::Degraded);
        let racer = Arc::clone(&breaker);
        let racer_cfg = cfg.clone();
        let other = interleave::thread::spawn(move || {
            racer.record_failure(&racer_cfg);
        });
        breaker.record_success();
        other.join().unwrap();
        let stats = breaker.stats();
        assert_eq!(stats.recoveries, 1, "the recovery must count exactly once");
        // Failure-last leaves one strike on a Healthy board (or the failure
        // ran first and the success wiped a Down board) — every
        // serialization lands in one of these states.
        assert!(matches!(
            stats.state,
            BreakerState::Healthy | BreakerState::Down
        ));
    });
}

/// Invariant: two retainers racing the last-good slot with different
/// generations never tear it and never regress it — the slot always ends at
/// the newer generation's handle.
#[test]
fn racing_retainers_keep_the_slot_monotone() {
    interleave::model(|| {
        let service = ModelService::new(
            ModelRepository::new(),
            harpertown_openblas(),
            Locality::InCache,
        );
        let older = service.published();
        service.swap(ModelRepository::new()).unwrap();
        let newer = service.published();
        let slot = Arc::new(LastGoodSnapshot::new());
        let racer_slot = Arc::clone(&slot);
        let racer_handle = Arc::clone(&newer);
        let other = interleave::thread::spawn(move || {
            racer_slot.retain(racer_handle);
        });
        slot.retain(Arc::clone(&older));
        other.join().unwrap();
        let held = slot.get().expect("the slot must hold a generation");
        assert_eq!(
            held.generation(),
            1,
            "the newer generation must win every race"
        );
        assert!(
            Arc::ptr_eq(&held, &newer),
            "the held handle must be the one published as generation 1"
        );
        assert_eq!(
            slot.generation(),
            Some(1),
            "the lock-free generation must mirror the held handle"
        );
    });
}

/// A one-region Trsm repository whose predictions scale with `factor`, so
/// two generations answer the same call differently.
fn trsm_repo(machine_id: &str, factor: f64) -> ModelRepository {
    let space = Region::new(vec![8, 8], vec![1024, 1024]);
    let samples: Vec<(Vec<usize>, Summary)> = space
        .sample_grid(4, 8)
        .into_iter()
        .map(|p| {
            let median = factor * (500.0 + p[0] as f64 * p[1] as f64 * 0.3);
            let summary = Summary {
                min: median * 0.9,
                mean: median,
                median,
                max: median * 1.2,
                std_dev: median * 0.05,
                count: 8,
            };
            (p, summary)
        })
        .collect();
    let rm = RegionModel::fit(space.clone(), &samples, 2).unwrap();
    let pw = PiecewiseModel::new(space.clone(), vec![rm], samples.len());
    let mut model = RoutineModel::new(Routine::Trsm, machine_id, Locality::InCache, space);
    model.insert_submodel(FlagKey::from_slice(&[0, 0, 0]).unwrap(), pw);
    let mut repo = ModelRepository::new();
    repo.insert(model);
    repo
}

fn trsm_query(id: u64, machine_id: &str) -> FleetQuery {
    FleetQuery {
        id,
        machine_id: machine_id.to_string(),
        call: Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            300,
            700,
            1.0,
        ),
        deadline: 1000,
        priority: Priority::Normal,
    }
}

/// Invariant: a swap racing a fresh answer never mistags the answer and
/// never leaves the last-good slot holding models that were not published
/// under its generation.  The fresh answer must come from exactly the
/// repository its generation tag names.  After the race, the shard is forced
/// down so the next query is answered stale from the slot: that answer too
/// must match its tag, in every interleaving.
#[test]
fn swap_racing_a_fresh_answer_retains_a_consistent_generation() {
    let machine = harpertown_openblas();
    let machine_id = machine.id();
    let old_repo = trsm_repo(&machine_id, 1.0);
    let new_repo = trsm_repo(&machine_id, 3.0);
    let answer = |repo: &ModelRepository| {
        Predictor::new(repo, machine.clone(), Locality::InCache)
            .predict_call(&trsm_query(0, &machine_id).call)
            .unwrap()
    };
    let old_answer = answer(&old_repo);
    let new_answer = answer(&new_repo);
    assert_ne!(old_answer, new_answer);
    interleave::model(|| {
        let service = Arc::new(ModelService::new(
            old_repo.clone(),
            machine.clone(),
            Locality::InCache,
        ));
        let chaos = Arc::new(ChaosShard::new(
            ServiceClient::new(Arc::clone(&service), 8),
            ChaosConfig::default(),
        ));
        let client: Arc<dyn ShardClient> = chaos.clone();
        let fleet = FleetBuilder::new(FleetConfig::default())
            .shard_with_client(Arc::clone(&service), client)
            .build()
            .unwrap();
        let swapper_service = Arc::clone(&service);
        let repo = new_repo.clone();
        let swapper = interleave::thread::spawn(move || {
            swapper_service.swap(repo).unwrap();
        });
        let fresh = fleet.query(&trsm_query(1, &machine_id)).unwrap();
        swapper.join().unwrap();
        let Served::Fresh { generation } = fresh.served else {
            panic!("a healthy shard answers fresh");
        };
        let expected = if generation == 0 {
            old_answer
        } else {
            new_answer
        };
        assert_eq!(
            fresh.summary,
            Some(expected),
            "fresh answer tagged generation {generation} came from other models"
        );

        chaos.set_forced_down(true);
        let stale = fleet.query(&trsm_query(2, &machine_id)).unwrap();
        let Served::Stale { generation } = stale.served else {
            panic!("a downed shard with a retained generation answers stale");
        };
        let expected = if generation == 0 {
            old_answer
        } else {
            new_answer
        };
        assert_eq!(
            stale.summary,
            Some(expected),
            "the stale answer tagged generation {generation} came from other models"
        );
    });
}
