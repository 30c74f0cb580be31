//! Building the standard model repository for the paper's workloads.
//!
//! Repository construction is split into two stages: a cheap, deterministic
//! **enumeration** stage that lists every template/parameter-space combination
//! to model ([`enumerate_build_tasks`]), and a **build** stage that fans the
//! per-task model builds across worker threads ([`build_tasks`]).  Each task
//! gets its own executor, forked from the base executor with the task index as
//! the stream id, so every task is hermetic: the resulting repository is byte
//! for byte identical for any worker count, including the serial `workers = 1`
//! build.

use std::sync::atomic::{AtomicUsize, Ordering};

use dla_blas::{Call, Diag, Side, Trans, Uplo};
use dla_machine::{Executor, Locality, MachineConfig, SimExecutor};
use dla_model::{ModelRepository, Region, RoutineModel};
use dla_modeler::{Modeler, ModelingReport, Strategy};

/// Which workload a repository must be able to predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Triangular inversion (`trinv`): needs `dtrmm`, `dtrsm`, `dgemm` and the
    /// unblocked triangular inversion.
    Trinv,
    /// Triangular Sylvester equation (`sylv`): needs `dgemm` and the unblocked
    /// Sylvester solver.
    Sylv,
}

/// Configuration of the repository-building step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSetConfig {
    /// Upper bound of the integer parameter space for the level-3 routines.
    pub max_size: usize,
    /// Upper bound for the unblocked kernels (the paper limits these models to
    /// sizes below 256 since they are only called on small blocks).
    pub unblocked_max: usize,
    /// Upper bound of the inner (`k`) dimension modelled for `dgemm`; in the
    /// blocked algorithms `k` never exceeds the block size, so a reduced range
    /// keeps the 3-D model cheap without losing accuracy where it matters.
    pub gemm_k_max: usize,
    /// Number of repetitions the Sampler takes per point.
    pub repetitions: usize,
    /// Model-generation strategy.
    pub strategy: Strategy,
    /// Number of worker threads the build stage fans out across; `0` selects
    /// [`std::thread::available_parallelism`].  Any worker count produces a
    /// byte-identical repository.
    pub workers: usize,
}

impl Default for ModelSetConfig {
    fn default() -> Self {
        ModelSetConfig {
            max_size: 1024,
            unblocked_max: 256,
            gemm_k_max: 256,
            repetitions: 5,
            strategy: Strategy::paper_default(),
            workers: 0,
        }
    }
}

impl ModelSetConfig {
    /// A cheaper configuration for tests and examples: smaller spaces, fewer
    /// repetitions, coarser regions.
    pub fn quick(max_size: usize) -> ModelSetConfig {
        ModelSetConfig {
            max_size,
            unblocked_max: max_size.min(256),
            gemm_k_max: max_size.min(128),
            repetitions: 2,
            strategy: Strategy::Refinement(dla_modeler::RefinementConfig {
                error_bound: 0.10,
                min_region_size: 64,
                grid_per_dim: 4,
                degree: 2,
            }),
            workers: 0,
        }
    }

    /// The same configuration with an explicit worker count.
    pub fn with_workers(mut self, workers: usize) -> ModelSetConfig {
        self.workers = workers;
        self
    }

    /// The effective worker count: `workers`, or the machine's available
    /// parallelism when `workers == 0`.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// The call templates and parameter spaces a workload needs modelled.
pub fn workload_templates(workload: Workload, config: &ModelSetConfig) -> Vec<(Vec<Call>, Region)> {
    let max = config.max_size.max(16);
    let unb = config.unblocked_max.max(16);
    let kmax = config.gemm_k_max.max(16);
    let space2 = Region::new(vec![8, 8], vec![max, max]);
    let gemm_space = Region::new(vec![8, 8, 8], vec![max, max, kmax]);
    match workload {
        Workload::Trinv => vec![
            (
                vec![Call::trmm(
                    Side::Right,
                    Uplo::Lower,
                    Trans::NoTrans,
                    Diag::NonUnit,
                    8,
                    8,
                    1.0,
                )],
                space2.clone(),
            ),
            (
                vec![
                    Call::trsm(
                        Side::Left,
                        Uplo::Lower,
                        Trans::NoTrans,
                        Diag::NonUnit,
                        8,
                        8,
                        1.0,
                    ),
                    Call::trsm(
                        Side::Right,
                        Uplo::Lower,
                        Trans::NoTrans,
                        Diag::NonUnit,
                        8,
                        8,
                        1.0,
                    ),
                ],
                space2,
            ),
            (
                vec![Call::gemm(
                    Trans::NoTrans,
                    Trans::NoTrans,
                    8,
                    8,
                    8,
                    1.0,
                    1.0,
                )],
                gemm_space,
            ),
            (
                vec![Call::trtri_unb(Uplo::Lower, Diag::NonUnit, 8)],
                Region::new(vec![8], vec![unb]),
            ),
        ],
        Workload::Sylv => vec![
            (
                vec![Call::gemm(
                    Trans::NoTrans,
                    Trans::NoTrans,
                    8,
                    8,
                    8,
                    1.0,
                    1.0,
                )],
                gemm_space,
            ),
            (
                vec![Call::sylv_unb(8, 8)],
                Region::new(vec![8, 8], vec![max, max]),
            ),
        ],
    }
}

/// One unit of model-construction work: a routine's call templates over a
/// parameter space, plus the noise-stream id its worker executor is forked
/// with (the task's position in enumeration order).
#[derive(Debug, Clone, PartialEq)]
pub struct BuildTask {
    /// The call templates (all invoking the same routine).
    pub templates: Vec<Call>,
    /// The integer parameter space to model.
    pub space: Region,
    /// Deterministic stream id for [`dla_machine::Executor::fork`].
    pub stream: u64,
}

/// Stage 1: enumerates the deduplicated build tasks for a set of workloads.
///
/// A routine/space combination shared by several workloads is listed once, so
/// each routine is modelled exactly once per distinct parameter space.
pub fn enumerate_build_tasks(workloads: &[Workload], config: &ModelSetConfig) -> Vec<BuildTask> {
    let mut tasks: Vec<BuildTask> = Vec::new();
    for &w in workloads {
        for (templates, space) in workload_templates(w, config) {
            let duplicate = tasks
                .iter()
                .any(|t| t.templates[0].routine() == templates[0].routine() && t.space == space);
            if duplicate {
                continue;
            }
            let stream = tasks.len() as u64;
            tasks.push(BuildTask {
                templates,
                space,
                stream,
            });
        }
    }
    tasks
}

fn build_one_task<E: Executor>(
    executor: &E,
    locality: Locality,
    config: &ModelSetConfig,
    task: &BuildTask,
) -> (RoutineModel, ModelingReport) {
    let mut modeler = Modeler::new(
        executor.fork(task.stream),
        locality,
        config.repetitions,
        config.strategy,
    );
    modeler.build_routine_model(&task.templates, &task.space)
}

/// Stage 2: builds every task's routine model, fanning out across
/// `config.workers` threads (`0` = available parallelism), and merges the
/// results in task order.
///
/// Each task runs on an executor forked from `executor` with the task's
/// stream id, so the output is independent of scheduling: serial and parallel
/// builds produce byte-identical repositories.
pub fn build_tasks<E: Executor + Sync>(
    executor: &E,
    locality: Locality,
    config: &ModelSetConfig,
    tasks: &[BuildTask],
) -> (ModelRepository, Vec<ModelingReport>) {
    let workers = config.effective_workers().min(tasks.len()).max(1);
    let next = AtomicUsize::new(0);
    let mut built: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // ordering: Relaxed — the counter only hands out
                        // distinct task indices; results come back through
                        // the join handles, not through this atomic.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else {
                            return done;
                        };
                        done.push((i, build_one_task(executor, locality, config, task)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    built.sort_unstable_by_key(|&(i, _)| i);
    let mut repo = ModelRepository::new();
    let mut reports = Vec::with_capacity(tasks.len());
    for (_, (model, report)) in built {
        repo.insert(model);
        reports.push(report);
    }
    (repo, reports)
}

/// Builds a model repository covering the given workloads on the given machine
/// and locality scenario, using the simulated executor.
///
/// This is the two-stage pipeline: [`enumerate_build_tasks`] followed by
/// [`build_tasks`] with a [`SimExecutor`] seeded with `seed`.  Returns the
/// repository together with the per-routine modeling reports (samples used,
/// regions, average error).
pub fn build_repository(
    machine: &MachineConfig,
    locality: Locality,
    seed: u64,
    config: &ModelSetConfig,
    workloads: &[Workload],
) -> (ModelRepository, Vec<ModelingReport>) {
    let executor = SimExecutor::new(machine.clone(), seed);
    let tasks = enumerate_build_tasks(workloads, config);
    build_tasks(&executor, locality, config, &tasks)
}

/// Builds a repository and wraps it in a ready-to-serve
/// [`ModelService`](crate::ModelService): per-routine model construction fans
/// out across worker threads, and the result is run through the compiled
/// evaluation engine exactly once, as the service takes ownership.
pub fn build_service(
    machine: &MachineConfig,
    locality: Locality,
    seed: u64,
    config: &ModelSetConfig,
    workloads: &[Workload],
) -> (crate::ModelService, Vec<ModelingReport>) {
    let (repository, reports) = build_repository(machine, locality, seed, config, workloads);
    let service = crate::ModelService::new(repository, machine.clone(), locality);
    (service, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_blas::Routine;
    use dla_machine::presets::harpertown_openblas;

    #[test]
    fn trinv_templates_cover_needed_routines() {
        let cfg = ModelSetConfig::quick(128);
        let templates = workload_templates(Workload::Trinv, &cfg);
        let routines: Vec<Routine> = templates.iter().map(|(t, _)| t[0].routine()).collect();
        assert!(routines.contains(&Routine::Trmm));
        assert!(routines.contains(&Routine::Trsm));
        assert!(routines.contains(&Routine::Gemm));
        assert!(routines.contains(&Routine::TrtriUnb));
        // the trsm entry carries both side variants
        let trsm = templates
            .iter()
            .find(|(t, _)| t[0].routine() == Routine::Trsm)
            .unwrap();
        assert_eq!(trsm.0.len(), 2);
    }

    #[test]
    fn build_quick_repository_for_both_workloads() {
        let machine = harpertown_openblas();
        let cfg = ModelSetConfig::quick(96);
        let (repo, reports) = build_repository(
            &machine,
            Locality::InCache,
            1,
            &cfg,
            &[Workload::Trinv, Workload::Sylv],
        );
        // 4 routines for trinv + sylv_unb (gemm shared... distinct space so rebuilt)
        assert!(repo.len() >= 5);
        assert!(!reports.is_empty());
        let id = machine.id();
        for routine in [
            Routine::Trmm,
            Routine::Trsm,
            Routine::Gemm,
            Routine::TrtriUnb,
            Routine::SylvUnb,
        ] {
            assert!(
                repo.get(routine, &id, Locality::InCache).is_some(),
                "missing model for {routine}"
            );
        }
        assert!(repo.total_samples() > 0);
    }

    #[test]
    fn gemm_space_is_shared_between_workloads() {
        let machine = harpertown_openblas();
        let cfg = ModelSetConfig::quick(64);
        let (_, reports) = build_repository(
            &machine,
            Locality::InCache,
            1,
            &cfg,
            &[Workload::Trinv, Workload::Sylv],
        );
        let gemm_reports = reports
            .iter()
            .filter(|r| r.routine == Routine::Gemm)
            .count();
        assert_eq!(gemm_reports, 1, "gemm must only be modelled once");
    }

    #[test]
    fn default_config_is_paper_sized() {
        let cfg = ModelSetConfig::default();
        assert_eq!(cfg.max_size, 1024);
        assert_eq!(cfg.unblocked_max, 256);
        assert_eq!(cfg.strategy.name(), "adaptive-refinement");
        assert_eq!(cfg.workers, 0);
        assert!(cfg.effective_workers() >= 1);
        assert_eq!(cfg.with_workers(3).effective_workers(), 3);
    }

    #[test]
    fn enumeration_dedups_and_numbers_streams() {
        let cfg = ModelSetConfig::quick(64);
        let tasks = enumerate_build_tasks(&[Workload::Trinv, Workload::Sylv], &cfg);
        // 4 trinv tasks + sylv_unb; gemm is shared between the workloads.
        assert_eq!(tasks.len(), 5);
        for (i, task) in tasks.iter().enumerate() {
            assert_eq!(task.stream, i as u64);
        }
        let gemm_tasks = tasks
            .iter()
            .filter(|t| t.templates[0].routine() == Routine::Gemm)
            .count();
        assert_eq!(gemm_tasks, 1);
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        let machine = harpertown_openblas();
        let serial_cfg = ModelSetConfig::quick(96).with_workers(1);
        let parallel_cfg = ModelSetConfig::quick(96).with_workers(4);
        let workloads = [Workload::Trinv, Workload::Sylv];
        let (serial, serial_reports) =
            build_repository(&machine, Locality::InCache, 7, &serial_cfg, &workloads);
        let (parallel, parallel_reports) =
            build_repository(&machine, Locality::InCache, 7, &parallel_cfg, &workloads);
        assert_eq!(serial.to_text().unwrap(), parallel.to_text().unwrap());
        assert_eq!(serial_reports, parallel_reports);
    }
}
