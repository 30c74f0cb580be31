//! Chaos suite for the fleet serving tier (the degraded-mode guarantee):
//!
//! * **Acceptance scenario** — one of three shards hard-down, 20% timeout
//!   faults on the rest: the fleet still answers 100% of in-deadline
//!   queries (tagged Stale/Proxied, zero unhandled errors), proxied
//!   predictions stay within the documented error bound, and the
//!   [`FleetHealth`] roll-up exactly accounts every retry, trip, recovery
//!   and shed.
//! * **Forced-outage round trip** — a shard taken hard-down after earning a
//!   last-good snapshot serves Stale for the whole outage, then recovers
//!   through a half-open probe once the outage clears.
//! * **Determinism** — responses and fleet counters are identical no matter
//!   how many worker threads drive the fleet (proptest over seeds and
//!   deadlines), because backoff schedules and chaos draws are pure
//!   functions of `(seed, query id, attempt)`.

use std::sync::{Arc, OnceLock};

use dla_core::blas::{Diag, Side, Trans, Uplo};
use dla_core::machine::presets::{
    harpertown_openblas, sandy_bridge_openblas, sandy_bridge_openblas_threaded,
};
use dla_core::machine::ChaosConfig;
use dla_core::predict::modelset::{build_repository, ModelSetConfig, Workload};
use dla_core::predict::{
    BreakerConfig, BreakerState, ChaosShard, FleetBuilder, FleetConfig, FleetQuery, FleetResponse,
    FleetService, Priority, Served, ServiceClient, ShardClient,
};
use dla_core::{Call, Locality, MachineConfig, ModelRepository, ModelService};
use proptest::prelude::*;

/// Documented bound on the relative error of **proxied** medians against the
/// target machine's own (clean) model: the per-routine efficiency surface
/// (multilinear in log-size over the calibration grid) transfers the nearest
/// machine's prediction to within this factor on the trinv serving mix
/// (worst case measured 0.102 on this scenario; see EXPERIMENTS.md "Fleet
/// degradation under injected faults").  A single whole-mix geometric-mean
/// ratio is nowhere near this tight — it measures 0.89 on the same mix,
/// because the cross-machine ratio itself varies by over an order of
/// magnitude with routine and problem size (paper fig. IV.3/IV.4).
const PROXY_ERROR_BOUND: f64 = 0.15;

/// The three machines of the fleet, in shard order.
fn machines() -> Vec<MachineConfig> {
    vec![
        harpertown_openblas(),
        sandy_bridge_openblas(),
        sandy_bridge_openblas_threaded(),
    ]
}

/// One quick(64) trinv repository per machine, built once per process.
fn repositories() -> &'static Vec<(MachineConfig, ModelRepository)> {
    static REPOS: OnceLock<Vec<(MachineConfig, ModelRepository)>> = OnceLock::new();
    REPOS.get_or_init(|| {
        let cfg = ModelSetConfig::quick(64);
        machines()
            .into_iter()
            .enumerate()
            .map(|(i, machine)| {
                let (repo, _) = build_repository(
                    &machine,
                    Locality::InCache,
                    11 + i as u64,
                    &cfg,
                    &[Workload::Trinv],
                );
                (machine, repo)
            })
            .collect()
    })
}

/// Calls strictly inside the quick(64) trinv model spaces.
fn serving_calls() -> Vec<Call> {
    let mut calls = Vec::new();
    for m in [12usize, 28, 44, 60] {
        for n in [16usize, 36, 52] {
            calls.push(Call::trsm(
                Side::Left,
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
                24,
                1.0,
                1.0,
            ));
        }
    }
    calls
}

/// An offline calibration sweep per routine: a size grid offset from (but
/// bracketing) the serving mix, so the measured proxy bound reflects genuine
/// interpolation error rather than calibrating on the queried calls.
fn calibration_calls() -> Vec<Call> {
    let mut calls = Vec::new();
    for m in [8usize, 20, 36, 52, 64] {
        for n in [12usize, 28, 44, 56] {
            calls.push(Call::trsm(
                Side::Left,
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
                24,
                1.0,
                1.0,
            ));
        }
    }
    calls
}

struct ChaosFleet {
    fleet: FleetService,
    ids: Vec<String>,
    chaos: Vec<Arc<ChaosShard<ServiceClient>>>,
    services: Vec<Arc<ModelService>>,
}

/// Builds the acceptance fleet: shard 1 (sandy bridge) hard-down from the
/// start, shards 0 and 2 with `timeout_rate` timeout faults.
fn chaos_fleet(config: FleetConfig, timeout_rate: f64, chaos_seed: u64) -> ChaosFleet {
    let mut builder = FleetBuilder::new(config.clone());
    let mut ids = Vec::new();
    let mut chaos = Vec::new();
    let mut services = Vec::new();
    for (index, (machine, repo)) in repositories().iter().enumerate() {
        let service = Arc::new(ModelService::new(
            repo.clone(),
            machine.clone(),
            Locality::InCache,
        ));
        let schedule = if index == 1 {
            ChaosConfig {
                seed: chaos_seed + index as u64,
                transient_probability: 1.0,
                ..ChaosConfig::default()
            }
        } else {
            ChaosConfig {
                seed: chaos_seed + index as u64,
                timeout_probability: timeout_rate,
                ..ChaosConfig::default()
            }
        };
        let shard = Arc::new(ChaosShard::new(
            ServiceClient::new(Arc::clone(&service), config.nominal_cost),
            schedule,
        ));
        let client: Arc<dyn ShardClient> = Arc::clone(&shard) as Arc<dyn ShardClient>;
        ids.push(machine.id());
        chaos.push(shard);
        services.push(Arc::clone(&service));
        builder = builder.shard_with_client(service, client);
    }
    let fleet = builder.build().expect("three distinct machines");
    ChaosFleet {
        fleet,
        ids,
        chaos,
        services,
    }
}

fn acceptance_config() -> FleetConfig {
    FleetConfig {
        seed: 0xACC3_97A4,
        calibration_calls: calibration_calls(),
        ..FleetConfig::default()
    }
}

fn queries(ids: &[String], count: usize, deadline: u64) -> Vec<FleetQuery> {
    let calls = serving_calls();
    (0..count)
        .map(|i| FleetQuery {
            id: i as u64,
            machine_id: ids[i % ids.len()].clone(),
            call: calls[i % calls.len()].clone(),
            deadline,
            priority: Priority::Normal,
        })
        .collect()
}

#[test]
fn degraded_fleet_answers_every_in_deadline_query() {
    let ChaosFleet {
        fleet,
        ids,
        chaos,
        services,
    } = chaos_fleet(acceptance_config(), 0.2, 0xC4A0_5EED);
    let queries = queries(&ids, 300, 600);

    let mut responses: Vec<FleetResponse> = Vec::new();
    for query in &queries {
        let response = fleet.query(query).expect("routable machine");
        assert!(
            response.served.is_answer(),
            "query {} was shed: {:?}",
            query.id,
            response.served
        );
        let summary = response.summary.as_ref().expect("answers carry a summary");
        assert!(
            summary.median.is_finite() && summary.mean.is_finite(),
            "query {} got a non-finite answer",
            query.id
        );
        assert!(response.elapsed <= query.deadline, "deadline overrun");
        responses.push(response);
    }

    // The hard-down shard never answered fresh: every one of its queries
    // was proxied (it never earned a last-good snapshot to serve stale).
    let health = fleet.health();
    let down = &health.shards[1];
    assert_eq!(down.fresh, 0, "a hard-down shard cannot answer fresh");
    assert_eq!(down.stale, 0, "no last-good snapshot was ever earned");
    assert_eq!(down.proxied, down.queries, "all its queries were proxied");
    assert_eq!(down.last_good_generation, None);
    // Its breaker walked the ladder exactly once and never recovered.
    assert_eq!(down.state, BreakerState::Down);
    assert_eq!(down.trips_degraded, 1);
    assert_eq!(down.trips_down, 1);
    assert_eq!(down.recoveries, 0);
    // Half-open probes ran (and failed) while Down: every probe is counted.
    assert!(down.probes > 0, "cooldown expiry must admit probes");

    // The timeout shards stayed healthy enough to serve almost everything
    // fresh; any full-query failure fell back to the last-good snapshot.
    for index in [0usize, 2] {
        let shard = &health.shards[index];
        assert!(shard.fresh > 0);
        assert_eq!(shard.proxied, 0, "live shards never needed a proxy");
        assert_eq!(
            shard.fresh + shard.stale + shard.shed,
            shard.queries,
            "shard {index} accounting"
        );
        assert!(
            shard.timeouts > 0,
            "20% timeout faults must reach shard {index}'s counters"
        );
    }

    // Exact fleet-wide accounting: every query has exactly one outcome, the
    // roll-up is the exact sum of the shard slices, and the per-response
    // counters reconcile with the health counters.
    assert_eq!(health.queries, queries.len() as u64);
    assert_eq!(health.shed, 0, "the acceptance scenario sheds nothing");
    assert!((health.availability() - 1.0).abs() < f64::EPSILON);
    assert_eq!(
        health.fresh + health.stale + health.proxied + health.shed,
        health.queries
    );
    for (field, total) in [
        (health.fresh, health.shards.iter().map(|s| s.fresh).sum()),
        (health.stale, health.shards.iter().map(|s| s.stale).sum()),
        (
            health.proxied,
            health.shards.iter().map(|s| s.proxied).sum(),
        ),
        (
            health.retries,
            health.shards.iter().map(|s| s.retries).sum(),
        ),
        (
            health.timeouts,
            health.shards.iter().map(|s| s.timeouts).sum(),
        ),
        (health.errors, health.shards.iter().map(|s| s.errors).sum()),
        (
            health.trips_down,
            health.shards.iter().map(|s| s.trips_down).sum(),
        ),
        (health.probes, health.shards.iter().map(|s| s.probes).sum()),
    ] {
        let total: u64 = total;
        assert_eq!(field, total, "roll-up fields are exact sums");
    }
    assert_eq!(
        health.retries,
        responses.iter().map(|r| r.retries).sum::<u64>(),
        "every backoff-retry is accounted"
    );
    assert_eq!(
        health.timeouts,
        responses.iter().map(|r| r.timeouts).sum::<u64>(),
        "every attempt timeout is accounted"
    );
    assert_eq!(
        health.errors,
        responses.iter().map(|r| r.errors).sum::<u64>(),
        "every attempt error is accounted"
    );

    // The injected faults actually happened (the scenario is not vacuous).
    // Once the breaker is Down most queries are rejected without touching
    // the shard, so the transient count tracks attempts, not queries.
    assert!(chaos[1].fault_counts().transient > 0);
    assert!(chaos[0].fault_counts().timeouts > 0);
    assert!(chaos[2].fault_counts().timeouts > 0);

    // The hard-down shard's counters saw its attempt errors.
    assert!(down.errors > 0);

    // Proxied answers stay within the documented error bound of the target
    // machine's own (clean, chaos-free) model.
    let reference = services[1].predictor();
    let mut worst = 0.0f64;
    for (query, response) in queries.iter().zip(&responses) {
        if let Served::Proxied { ratio, .. } = &response.served {
            assert!(ratio.is_finite() && *ratio > 0.0);
            let truth = reference
                .predict_call(&query.call)
                .expect("the clean model serves the whole mix")
                .median;
            let proxied = response.summary.as_ref().unwrap().median;
            let error = (proxied - truth).abs() / truth;
            worst = worst.max(error);
        }
    }
    assert!(health.proxied > 0);
    assert!(
        worst <= PROXY_ERROR_BOUND,
        "worst proxied relative error {worst:.4} exceeds the documented bound {PROXY_ERROR_BOUND}"
    );
}

#[test]
fn forced_outage_serves_stale_then_recovers_via_probe() {
    let config = FleetConfig {
        seed: 0x57A1_E5EE,
        calibration_calls: calibration_calls(),
        breaker: BreakerConfig {
            degraded_threshold: 2,
            down_threshold: 2,
            cooldown: 3,
        },
        ..FleetConfig::default()
    };
    // No injected faults; the outage is forced explicitly.
    let ChaosFleet {
        fleet, ids, chaos, ..
    } = chaos_fleet(config, 0.0, 0x0DD5_EED5);
    let calls = serving_calls();
    let target = &ids[0];

    // Phase 1: earn a last-good snapshot with clean traffic.
    for i in 0..4u64 {
        let response = fleet
            .query(&FleetQuery {
                id: i,
                machine_id: target.clone(),
                call: calls[i as usize % calls.len()].clone(),
                deadline: 400,
                priority: Priority::Normal,
            })
            .unwrap();
        assert!(matches!(response.served, Served::Fresh { .. }));
    }
    assert!(fleet.health().shards[0].last_good_generation.is_some());

    // Phase 2: hard outage — every query is answered Stale from the
    // retained snapshot (never proxied, never shed).
    chaos[0].set_forced_down(true);
    for i in 100..120u64 {
        let response = fleet
            .query(&FleetQuery {
                id: i,
                machine_id: target.clone(),
                call: calls[i as usize % calls.len()].clone(),
                deadline: 400,
                priority: Priority::Normal,
            })
            .unwrap();
        assert!(
            matches!(response.served, Served::Stale { .. }),
            "outage query {i} served {:?}",
            response.served
        );
    }
    let during = &fleet.health().shards[0];
    assert_eq!(&during.machine_id, target);
    assert_eq!(during.state, BreakerState::Down);
    assert_eq!(during.trips_degraded, 1);
    assert_eq!(during.trips_down, 1);

    // Phase 3: outage clears — the next admitted half-open probe succeeds
    // and the breaker recovers to Healthy; traffic is Fresh again.
    chaos[0].set_forced_down(false);
    let mut fresh_again = false;
    for i in 200..220u64 {
        let response = fleet
            .query(&FleetQuery {
                id: i,
                machine_id: target.clone(),
                call: calls[i as usize % calls.len()].clone(),
                deadline: 400,
                priority: Priority::Normal,
            })
            .unwrap();
        assert!(response.served.is_answer());
        if matches!(response.served, Served::Fresh { .. }) {
            fresh_again = true;
        }
    }
    assert!(fresh_again, "the probe must reopen the shard");
    let after = &fleet.health().shards[0];
    assert_eq!(after.state, BreakerState::Healthy);
    assert_eq!(after.recoveries, 1, "exactly one recovery");
    assert!(after.probes >= 1);
}

/// Everything observable about one response: served tag, median bits,
/// retries, timeouts, errors, elapsed.
type Observation = (String, u64, u64, u64, u64, u64);

/// The aggregate fleet counters compared across worker counts: queries,
/// fresh, stale, proxied, shed, retries, timeouts, errors.
type HealthCounters = (u64, u64, u64, u64, u64, u64, u64, u64);

/// Runs `queries` against `fleet` with `workers` threads (queries assigned
/// round-robin), returning per-query observations in query order.
fn run_with_workers(
    fleet: &FleetService,
    queries: &[FleetQuery],
    workers: usize,
) -> Vec<Observation> {
    let mut observations: Vec<Option<Observation>> = (0..queries.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut per_worker: Vec<Vec<(usize, &mut Option<Observation>)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (index, slot) in observations.iter_mut().enumerate() {
            per_worker[index % workers].push((index, slot));
        }
        for pairs in per_worker {
            scope.spawn(move || {
                for (index, slot) in pairs {
                    let response = fleet.query(&queries[index]).expect("routable machine");
                    let median = response
                        .summary
                        .as_ref()
                        .map(|s| s.median.to_bits())
                        .unwrap_or(0);
                    *slot = Some((
                        format!("{:?}", response.served),
                        median,
                        response.retries,
                        response.timeouts,
                        response.errors,
                        response.elapsed,
                    ));
                }
            });
        }
    });
    observations
        .into_iter()
        .map(|o| o.expect("every query ran"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Seeded backoff schedules and shard routing make fleet responses a
    /// pure function of the query set: running the same queries with 1, 2
    /// or 4 workers yields identical per-query outcomes and identical
    /// fleet counters.
    #[test]
    fn fleet_responses_are_deterministic_across_worker_counts(
        fleet_seed in 0u64..1_000_000,
        chaos_seed in 0u64..1_000_000,
        deadline in 150u64..500,
    ) {
        let config = FleetConfig {
            seed: fleet_seed,
            calibration_calls: calibration_calls(),
            // Trip-free breaker: admission never depends on cross-query
            // history, so worker interleaving cannot change outcomes.
            breaker: BreakerConfig {
                degraded_threshold: u32::MAX,
                down_threshold: u32::MAX,
                cooldown: 1,
            },
            ..FleetConfig::default()
        };

        let mut baseline: Option<Vec<Observation>> = None;
        let mut baseline_health: Option<HealthCounters> = None;
        for workers in [1usize, 2, 4] {
            // A fresh fleet per worker count: same shards, same seeds.
            let ChaosFleet { fleet, ids, .. } = chaos_fleet(config.clone(), 0.0, chaos_seed);
            let queries = queries(&ids, 60, deadline);
            let observed = run_with_workers(&fleet, &queries, workers);
            let health = fleet.health();
            let counters = (
                health.queries,
                health.fresh,
                health.stale,
                health.proxied,
                health.shed,
                health.retries,
                health.timeouts,
                health.errors,
            );
            match (&baseline, &baseline_health) {
                (None, _) => {
                    baseline = Some(observed);
                    baseline_health = Some(counters);
                }
                (Some(expected), Some(expected_health)) => {
                    prop_assert_eq!(expected, &observed);
                    prop_assert_eq!(expected_health, &counters);
                }
                _ => unreachable!(),
            }
        }
    }
}
