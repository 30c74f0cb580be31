//! Building the repositories the workloads serve: trinv+sylv at
//! `ModelSetConfig::default()` (the paper's model spaces).

use dla_core::machine::SimExecutor;
use dla_core::modeler::ModelingReport;
use dla_core::predict::modelset::{
    build_repository, build_tasks, enumerate_build_tasks, ModelSetConfig, Workload,
};
use dla_core::predict::ModelService;
use dla_core::{Locality, MachineConfig, ModelRepository};

use crate::trace::{span, Layer, TracedExecutor};

/// Model-build threads, pinned so results do not depend on the host.
const WORKERS: usize = 2;

const WORKLOADS: [Workload; 2] = [Workload::Trinv, Workload::Sylv];

/// Builds the trinv+sylv repository.  This runs the two stages of
/// `build_repository` itself, so the `Executor` seam can be wrapped;
/// [`check_serial_build`] checks the result against `build_repository`.
pub fn build_models(
    machine: &MachineConfig,
    locality: Locality,
    seed: u64,
) -> (ModelRepository, Vec<ModelingReport>) {
    let config = ModelSetConfig::default().with_workers(WORKERS);
    span(Layer::Modeler, || {
        let executor = TracedExecutor::new(SimExecutor::new(machine.clone(), seed));
        let tasks = enumerate_build_tasks(&WORKLOADS, &config);
        build_tasks(&executor, locality, &config, &tasks)
    })
}

/// Checks that `service`'s repository, built with `WORKERS` threads from
/// `seed`, is byte for byte the repository a one-thread `build_repository`
/// produces.
pub fn check_serial_build(service: &ModelService, seed: u64) -> Result<(), String> {
    let config = ModelSetConfig::default().with_workers(1);
    let machine = service.machine();
    let (serial, _) = build_repository(machine, service.locality(), seed, &config, &WORKLOADS);
    let parallel = service.snapshot().to_binary().map_err(|e| e.to_string())?;
    if serial.to_binary().map_err(|e| e.to_string())? != parallel {
        return Err(format!(
            "the {WORKERS}-worker build differs from the 1-worker build"
        ));
    }
    Ok(())
}

/// Builds a repository and compiles it into a service.
pub fn build_service(
    machine: &MachineConfig,
    locality: Locality,
    seed: u64,
) -> (ModelService, Vec<ModelingReport>) {
    let (repository, reports) = build_models(machine, locality, seed);
    let service = span(Layer::Compile, || {
        ModelService::new(repository, machine.clone(), locality)
    });
    (service, reports)
}
