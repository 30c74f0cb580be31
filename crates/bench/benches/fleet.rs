//! Benchmarks of the fleet serving tier: the overhead of a fresh
//! fleet-routed query over a bare [`ModelService`] prediction, and the cost
//! of the two degraded answer paths (stale snapshot, efficiency-scaled
//! proxy) relative to the fresh path.  Writes `BENCH_fleet.json`.

use std::error::Error;
use std::sync::Arc;

use dla_bench::harness::Bench;
use dla_core::blas::{Diag, Side, Trans, Uplo};
use dla_core::machine::presets::{
    harpertown_openblas, sandy_bridge_openblas, sandy_bridge_openblas_threaded,
};
use dla_core::machine::{ChaosConfig, Locality};
use dla_core::predict::modelset::{build_repository, ModelSetConfig, Workload};
use dla_core::predict::{
    ChaosShard, FleetBuilder, FleetConfig, FleetQuery, FleetService, Priority, ServiceClient,
    ShardClient,
};
use dla_core::{Call, MachineConfig, ModelRepository, ModelService};

fn repositories() -> Vec<(MachineConfig, ModelRepository)> {
    let cfg = ModelSetConfig::quick(64);
    [
        harpertown_openblas(),
        sandy_bridge_openblas(),
        sandy_bridge_openblas_threaded(),
    ]
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
}

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

/// Builds a fleet; `down` lists shard indices forced hard-down (their
/// queries exercise the degraded paths).
fn build_fleet(
    repos: &[(MachineConfig, ModelRepository)],
    down: &[usize],
) -> (FleetService, Vec<String>) {
    let config = FleetConfig {
        seed: 0xBE4C_F1EE,
        calibration_calls: calibration_calls(),
        ..FleetConfig::default()
    };
    let mut builder = FleetBuilder::new(config.clone());
    let mut ids = Vec::new();
    for (index, (machine, repo)) in repos.iter().enumerate() {
        let service = Arc::new(ModelService::new(
            repo.clone(),
            machine.clone(),
            Locality::InCache,
        ));
        ids.push(machine.id());
        if down.contains(&index) {
            let shard = Arc::new(ChaosShard::new(
                ServiceClient::new(Arc::clone(&service), config.nominal_cost),
                ChaosConfig {
                    seed: 7 + index as u64,
                    transient_probability: 1.0,
                    ..ChaosConfig::default()
                },
            ));
            builder =
                builder.shard_with_client(service, Arc::clone(&shard) as Arc<dyn ShardClient>);
        } else {
            builder = builder.shard(service);
        }
    }
    (builder.build().expect("distinct machines"), ids)
}

fn query(ids: &[String], target: usize, call: &Call, id: u64) -> FleetQuery {
    FleetQuery {
        id,
        machine_id: ids[target].clone(),
        call: call.clone(),
        deadline: 600,
        priority: Priority::Normal,
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let repos = repositories();
    let calls = serving_calls();
    let mut bench = Bench::new("fleet");
    let layer = "predict.fleet.request";

    // Baseline: the bare service, no fleet tier around it.
    let service = ModelService::new(repos[1].1.clone(), repos[1].0.clone(), Locality::InCache);
    let mut i = 0usize;
    let bare = bench.time("fleet_query/bare_service", "predict.service.call", || {
        let call = &calls[i % calls.len()];
        i += 1;
        service.predict_call(call).expect("in-space call")
    })?;

    // Fresh path: every shard healthy, the fleet only adds routing and
    // breaker bookkeeping.
    let (fleet, ids) = build_fleet(&repos, &[]);
    let mut i = 0u64;
    let fresh = bench.time("fleet_query/fresh", layer, || {
        let q = query(&ids, 1, &calls[i as usize % calls.len()], i);
        i += 1;
        fleet.query(&q).expect("routable")
    })?;

    // Stale path: the target is hard-down but retains a last-good snapshot
    // (earned before the chaos flag flips), so every answer is a local
    // stale evaluation after the breaker opens.
    let (fleet, ids) = {
        let config = FleetConfig {
            seed: 0xBE4C_F1EF,
            calibration_calls: calibration_calls(),
            ..FleetConfig::default()
        };
        let mut builder = FleetBuilder::new(config.clone());
        let mut ids = Vec::new();
        let mut flags = Vec::new();
        for (machine, repo) in &repos {
            let service = Arc::new(ModelService::new(
                repo.clone(),
                machine.clone(),
                Locality::InCache,
            ));
            ids.push(machine.id());
            let shard = Arc::new(ChaosShard::new(
                ServiceClient::new(Arc::clone(&service), config.nominal_cost),
                ChaosConfig::default(),
            ));
            flags.push(Arc::clone(&shard));
            builder =
                builder.shard_with_client(service, Arc::clone(&shard) as Arc<dyn ShardClient>);
        }
        let fleet = builder.build().expect("distinct machines");
        // Earn the snapshot, then cut the shard off.
        let warm = query(&ids, 1, &calls[0], u64::MAX);
        fleet.query(&warm).expect("routable");
        flags[1].set_forced_down(true);
        (fleet, ids)
    };
    let mut i = 0u64;
    let stale = bench.time("fleet_query/stale", layer, || {
        let q = query(&ids, 1, &calls[i as usize % calls.len()], i);
        i += 1;
        fleet.query(&q).expect("routable")
    })?;

    // Proxied path: the target is hard-down with no snapshot, so every
    // answer comes from the nearest machine, efficiency-scaled.
    let (fleet, ids) = build_fleet(&repos, &[1]);
    let mut i = 0u64;
    let proxied = bench.time("fleet_query/proxied", layer, || {
        let q = query(&ids, 1, &calls[i as usize % calls.len()], i);
        i += 1;
        fleet.query(&q).expect("routable")
    })?;

    println!("  fresh vs bare service: {:.2}x", fresh / bare);
    println!("  stale vs fresh:        {:.2}x", stale / fresh);
    println!("  proxied vs fresh:      {:.2}x", proxied / fresh);
    Ok(bench.finish()?)
}
