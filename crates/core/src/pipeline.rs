//! The high-level modeling → prediction → ranking pipeline.

use std::path::Path;
use std::sync::Arc;

use dla_algos::{SylvVariant, TrinvVariant};
use dla_machine::{Executor, Locality, MachineConfig, SimExecutor};
use dla_model::{ModelRepository, RefinementReport, Result};
use dla_modeler::online::dedupe_templates;
use dla_modeler::{ModelingReport, OnlineRefiner, OnlineRefinerConfig, RefineOutcome};
use dla_predict::blocksize::{optimize_block_size_trinv, BlockSizeSweep};
use dla_predict::modelset::{build_repository, workload_templates, ModelSetConfig, Workload};
use dla_predict::workloads::{
    measure_sylv, measure_trinv, rank_sylv_variants, rank_trinv_variants, MeasurementMode,
    TraceMeasurement,
};
use dla_predict::{EfficiencyPrediction, ModelService, Predictor};

/// End-to-end driver: builds models once, then answers prediction, ranking,
/// tuning and validation queries against them.
///
/// This is the programmatic equivalent of the paper's workflow: run the
/// Modeler over the routines an algorithm needs, store the models in the
/// repository, then evaluate and combine them to rank algorithms without
/// executing them.
///
/// Models are served through a [`ModelService`]: model construction fans out
/// across worker threads (see
/// [`ModelSetConfig::workers`](dla_predict::modelset::ModelSetConfig)), and
/// the built repository is hot-swapped into the service, which any number of
/// threads can query concurrently (share the pipeline behind an `Arc`, or
/// hand out [`Pipeline::predictor`] snapshots).
pub struct Pipeline {
    machine: MachineConfig,
    locality: Locality,
    model_config: ModelSetConfig,
    seed: u64,
    service: ModelService,
    reports: Vec<ModelingReport>,
    /// Workloads built so far — the template registry for online refinement
    /// (empty after `load_repository` alone; refinement then falls back to
    /// every known workload's templates).
    workloads: Vec<Workload>,
    /// The long-lived online refiner: one sampler (whose noise stream
    /// advances across rounds, so every round takes fresh measurements),
    /// one fit workspace, and the deduped template registry, all reused
    /// round to round.  Reset whenever the templates could change.
    refiner: Option<OnlineRefiner<SimExecutor>>,
}

impl Pipeline {
    /// Creates a pipeline for a machine configuration with default settings
    /// (in-cache models, paper-default Adaptive Refinement, full 1024-sized
    /// parameter spaces).
    pub fn new(machine: MachineConfig) -> Pipeline {
        let service = ModelService::new(ModelRepository::new(), machine.clone(), Locality::InCache);
        Pipeline {
            machine,
            locality: Locality::InCache,
            model_config: ModelSetConfig::default(),
            seed: 0x5eed,
            service,
            reports: Vec::new(),
            workloads: Vec::new(),
            refiner: None,
        }
    }

    /// Selects the memory-locality scenario the models describe.
    pub fn with_locality(mut self, locality: Locality) -> Pipeline {
        self.locality = locality;
        let repository = (*self.service.snapshot()).clone();
        self.service = ModelService::new(repository, self.machine.clone(), locality);
        self.refiner = None;
        self
    }

    /// Replaces the model-building configuration.
    pub fn with_model_config(mut self, config: ModelSetConfig) -> Pipeline {
        self.model_config = config;
        self.refiner = None;
        self
    }

    /// Sets the seed of the simulated measurement noise.
    pub fn with_seed(mut self, seed: u64) -> Pipeline {
        self.seed = seed;
        self.refiner = None;
        self
    }

    /// The machine configuration being modelled.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The locality scenario of the stored models.
    pub fn locality(&self) -> Locality {
        self.locality
    }

    /// A snapshot of the model repository (possibly empty before
    /// [`Pipeline::build_models`]).
    pub fn repository(&self) -> Arc<ModelRepository> {
        self.service.snapshot()
    }

    /// The serving layer: share it (behind an `Arc`-wrapped pipeline) to
    /// answer predictions from many threads concurrently.
    pub fn service(&self) -> &ModelService {
        &self.service
    }

    /// The per-routine modeling reports of the last build.
    pub fn reports(&self) -> &[ModelingReport] {
        &self.reports
    }

    /// Builds (or extends) the model repository for the given workloads by
    /// running the Modeler on the simulated machine, fanning the per-routine
    /// builds across `model_config.workers` threads, and hot-swaps the result
    /// into the serving layer.
    pub fn build_models(&mut self, workloads: &[Workload]) {
        let (built, reports) = build_repository(
            &self.machine,
            self.locality,
            self.seed,
            &self.model_config,
            workloads,
        );
        self.service
            .merge(built)
            // lint: allow(unwrap): the pipeline's own offline build samples a simulated executor with finite noise, so its coefficients validate by construction
            .expect("freshly built models validate");
        self.reports.extend(reports);
        for &w in workloads {
            if !self.workloads.contains(&w) {
                self.workloads.push(w);
                // The template registry grew: rebuild the refiner lazily.
                self.refiner = None;
            }
        }
    }

    /// A ranked snapshot of the serving layer's refinement telemetry: which
    /// `(routine, flags, region)` cells answered the queries served since the
    /// last swap/merge, hottest (`queries × fit_error`) first.
    pub fn refinement_report(&self) -> RefinementReport {
        self.service.refinement_report()
    }

    /// One online-refinement round: consumes the service's current
    /// [`refinement_report`](Pipeline::refinement_report), re-samples the
    /// hottest badly-fitting regions on the simulated machine within
    /// `config`'s budget, and publishes the rebuilt flag-variant submodels
    /// through the serving layer's submodel-granular hot-swap merge.
    ///
    /// Serving continues throughout: readers keep answering from the old
    /// snapshot until the merged repository is swapped in atomically.  The
    /// refiner persists across rounds (one sampler whose noise stream
    /// advances per round, one fit workspace, one deduped template
    /// registry); its templates come from the workloads built so far, or —
    /// when the repository was loaded from disk instead of built — from
    /// every known workload, so a loaded repository refines just as well.
    pub fn refine_online(&mut self, config: OnlineRefinerConfig) -> RefineOutcome {
        let report = self.service.refinement_report();
        if report.is_empty() {
            return RefineOutcome::default();
        }
        let mut refiner = match self.refiner.take() {
            Some(refiner) => refiner,
            None => {
                let registry: &[Workload] = if self.workloads.is_empty() {
                    &[Workload::Trinv, Workload::Sylv]
                } else {
                    &self.workloads
                };
                let templates: Vec<_> = registry
                    .iter()
                    .flat_map(|&w| workload_templates(w, &self.model_config))
                    .flat_map(|(calls, _)| calls)
                    .collect();
                OnlineRefiner::new(
                    // A deterministic noise stream independent of the build
                    // streams (which use the task index as stream id); it
                    // advances across rounds, so every round measures fresh.
                    self.executor().fork(0x0e1e_0000),
                    self.locality,
                    self.model_config.repetitions,
                    config,
                )
                .with_templates(&dedupe_templates(&templates))
            }
        };
        refiner.set_config(config);
        let snapshot = self.service.snapshot();
        let (delta, outcome) = refiner.refine(&snapshot, &report);
        self.refiner = Some(refiner);
        if !delta.is_empty() {
            // A delta the publication gate rejects is dropped: the service
            // keeps serving the last good generation, and the rejection is
            // accounted in [`ModelService::health`] (the refiner's own
            // per-submodel validation makes this a second line of defense,
            // so an actual rejection here indicates a refiner bug — but a
            // degraded service beats a poisoned one).
            let _ = self.service.merge(delta);
        }
        // Fold the round's quarantine and sampling-fault statistics into the
        // serving-health ledger, next to the publication accounting.
        self.service.record_refinement(&outcome);
        outcome
    }

    /// Loads a previously saved repository instead of rebuilding models.
    ///
    /// The codec is sniffed from the file's leading bytes
    /// ([`ModelRepository::load_file`]); the loaded models then pass the
    /// serving layer's publication gate and are compiled once by
    /// [`ModelService::swap`].
    pub fn load_repository(&mut self, path: &Path) -> Result<()> {
        self.service.swap(ModelRepository::load_file(path)?)?;
        Ok(())
    }

    /// Saves the current repository to a file, choosing the codec from the
    /// extension (`.dlapb`/`.bin` → binary, anything else → text; see
    /// [`dla_model::RepositoryFormat::for_path`]).
    pub fn save_repository(&self, path: &Path) -> Result<()> {
        self.service.snapshot().save_file(path)
    }

    /// A predictor over a snapshot of the current repository.
    ///
    /// The predictor owns its snapshot, so it can be moved to other threads
    /// and keeps answering consistently across later rebuilds.
    pub fn predictor(&self) -> Predictor {
        self.service.predictor()
    }

    /// A fresh simulated executor for "measurements" on this machine.
    pub fn executor(&self) -> SimExecutor {
        SimExecutor::new(self.machine.clone(), self.seed.wrapping_add(1))
    }

    /// Predicts the efficiency of every triangular-inversion variant and
    /// returns them ranked best first (by predicted median efficiency).
    ///
    /// Routed through the [`ModelService`] in one batched pass, so the
    /// ranking's traffic feeds the refinement telemetry.
    pub fn rank_trinv(
        &self,
        n: usize,
        block_size: usize,
    ) -> Result<Vec<(TrinvVariant, EfficiencyPrediction)>> {
        rank_trinv_variants(&self.service, n, block_size)
    }

    /// Predicts the efficiency of every Sylvester variant and returns them
    /// ranked best first (through the [`ModelService`]).
    pub fn rank_sylv(
        &self,
        n: usize,
        block_size: usize,
    ) -> Result<Vec<(SylvVariant, EfficiencyPrediction)>> {
        rank_sylv_variants(&self.service, n, block_size)
    }

    /// Sweeps block sizes for a triangular-inversion variant (through the
    /// [`ModelService`]).
    pub fn tune_trinv_block_size(
        &self,
        variant: TrinvVariant,
        n: usize,
        candidates: &[usize],
    ) -> Result<BlockSizeSweep> {
        optimize_block_size_trinv(&self.service, variant, n, candidates)
    }

    /// "Measures" a triangular-inversion variant by simulated execution.
    pub fn measure_trinv(
        &self,
        variant: TrinvVariant,
        n: usize,
        block_size: usize,
        mode: MeasurementMode,
    ) -> TraceMeasurement {
        let mut executor = self.executor();
        measure_trinv(&mut executor, variant, n, block_size, mode)
    }

    /// "Measures" a Sylvester variant by simulated execution.
    pub fn measure_sylv(
        &self,
        variant: SylvVariant,
        n: usize,
        block_size: usize,
        mode: MeasurementMode,
    ) -> TraceMeasurement {
        let mut executor = self.executor();
        measure_sylv(&mut executor, variant, n, block_size, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_blas::{Call, Routine, Trans};
    use dla_machine::presets::harpertown_openblas;
    use dla_model::{
        submodel_key, PiecewiseModel, Polynomial, Region, RegionModel, RoutineModel,
        VectorPolynomial,
    };

    fn quick_pipeline() -> Pipeline {
        let mut p = Pipeline::new(harpertown_openblas())
            .with_model_config(ModelSetConfig::quick(256))
            .with_seed(3);
        p.build_models(&[Workload::Trinv]);
        p
    }

    /// A gemm model whose every prediction is NaN, over the quick space.
    fn nan_gemm_model(machine_id: &str) -> RoutineModel {
        let space = Region::new(vec![8, 8, 8], vec![256, 256, 128]);
        let nan_poly = Polynomial::new(3, vec![vec![0, 0, 0]], vec![f64::NAN]).unwrap();
        let poly = VectorPolynomial::new(vec![nan_poly; 5]).unwrap();
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
        model
    }

    #[test]
    fn poisoned_repository_is_rejected_and_service_keeps_ranking() {
        let p = quick_pipeline();
        let before = p.service().health();
        let generation_before = p.service().refinement_report().generation;
        let mut poisoned = (*p.repository()).clone();
        poisoned.insert(nan_gemm_model(&p.machine().id()));
        // The publication gate refuses the NaN-carrying repository...
        let err = p.service().swap(poisoned).unwrap_err();
        assert!(matches!(err, dla_model::ModelError::Validation(_)));
        let after = p.service().health();
        assert_eq!(after.publishes_rejected, before.publishes_rejected + 1);
        assert_eq!(after.last_good_generation, before.last_good_generation);
        assert_eq!(
            p.service().refinement_report().generation,
            generation_before,
            "a rejected publish must not bump the served generation"
        );
        // ...and the service keeps answering from the last good repository,
        // with every prediction finite.
        let ranking = p.rank_trinv(224, 32).unwrap();
        assert_eq!(ranking.len(), 4);
        assert!(ranking.iter().all(|(_, pred)| pred.median.is_finite()));
    }

    #[test]
    fn nan_predictions_rank_last_instead_of_panicking() {
        // The serving gate (above) keeps NaN models out of a `ModelService`;
        // this regression guards the evaluator itself, for predictors built
        // directly over an unguarded snapshot.
        let p = quick_pipeline();
        let mut poisoned = (*p.repository()).clone();
        poisoned.insert(nan_gemm_model(&p.machine().id()));
        let predictor =
            dla_predict::Predictor::new(&poisoned, p.machine().clone(), Locality::InCache);
        // Regression: this used to panic in the sort's `expect("finite")`.
        let ranking = dla_predict::workloads::rank_trinv_variants(&predictor, 224, 32).unwrap();
        assert_eq!(ranking.len(), 4);
        // v1 performs no gemm, so its prediction stays finite and must not be
        // displaced by the NaN-scored variants.
        assert!(ranking[0].1.median.is_finite());
        let first_nan = ranking
            .iter()
            .position(|(_, p)| p.median.is_nan())
            .expect("gemm-based variants must predict NaN");
        assert!(ranking[..first_nan]
            .iter()
            .all(|(_, p)| p.median.is_finite()));
        assert!(ranking[first_nan..].iter().all(|(_, p)| p.median.is_nan()));
        assert!(ranking[..first_nan]
            .iter()
            .any(|(v, _)| *v == TrinvVariant::V1));
    }

    #[test]
    fn pipeline_builds_models_and_ranks_variants() {
        let p = quick_pipeline();
        assert!(!p.repository().is_empty());
        assert!(!p.reports().is_empty());
        let ranking = p.rank_trinv(224, 32).unwrap();
        assert_eq!(ranking.len(), 4);
        // best-first ordering
        for w in ranking.windows(2) {
            assert!(w[0].1.median >= w[1].1.median);
        }
        // variant 4 is never the predicted best
        assert_ne!(ranking[0].0, TrinvVariant::V4);
    }

    #[test]
    fn rankings_through_the_service_match_an_uncached_predictor() {
        let p = quick_pipeline();
        let first = p.rank_trinv(224, 32).unwrap();
        let uncached =
            dla_predict::Predictor::shared(p.repository(), p.machine().clone(), Locality::InCache);
        let direct = dla_predict::workloads::rank_trinv_variants(&uncached, 224, 32).unwrap();
        assert_eq!(first, direct);
        // Ranking again answers the same bits and counts the traffic again.
        let served = p.refinement_report().total_queries;
        assert!(served > 0);
        let second = p.rank_trinv(224, 32).unwrap();
        assert_eq!(first, second);
        assert_eq!(p.refinement_report().total_queries, 2 * served);
    }

    #[test]
    fn pipeline_tunes_block_size_and_measures() {
        let p = quick_pipeline();
        let sweep = p
            .tune_trinv_block_size(TrinvVariant::V1, 224, &[8, 32, 64, 128])
            .unwrap();
        assert!(sweep.best_block_size().is_some());
        let m = p.measure_trinv(TrinvVariant::V1, 224, 32, MeasurementMode::Auto);
        assert!(m.ticks > 0.0);
        assert!(m.efficiency > 0.0 && m.efficiency < 1.0);
    }

    #[test]
    fn refine_online_consumes_telemetry_and_republishes() {
        let mut p = quick_pipeline();
        // No traffic yet: an empty report means a no-op round.
        let idle = p.refine_online(OnlineRefinerConfig::default());
        assert_eq!(idle, RefineOutcome::default());

        // Serve a ranking to generate telemetry, then refine.
        let before = p.rank_trinv(224, 32).unwrap();
        let report = p.refinement_report();
        assert!(!report.is_empty());
        let generation_before = report.generation;
        let outcome = p.refine_online(OnlineRefinerConfig {
            max_cells: 3,
            ..Default::default()
        });
        assert!(outcome.cells_refined >= 1);
        assert!(outcome.samples_used > 0);
        assert_eq!(outcome.skipped_no_template, 0);

        // The publish bumped the served generation and regions carry their
        // provenance; the service still answers the same queries.
        let _ = p.rank_trinv(224, 32).unwrap();
        let report_after = p.refinement_report();
        assert!(report_after.generation > generation_before);
        let revised: usize = p
            .repository()
            .iter()
            .flat_map(|(_, m)| m.submodels.values())
            .flat_map(|s| s.regions.iter())
            .filter(|r| r.revision > 0)
            .count();
        assert_eq!(revised, outcome.regions_added);
        let after = p.rank_trinv(224, 32).unwrap();
        assert_eq!(after.len(), before.len());
    }

    #[test]
    fn refine_online_works_on_a_loaded_repository() {
        // Regression: the refiner's template registry used to come only from
        // `build_models`, so a pipeline serving a *loaded* repository
        // skipped every hot cell with `skipped_no_template` and silently
        // never refined.
        let p = quick_pipeline();
        let dir = std::env::temp_dir().join("dlaperf-refine-loaded-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.txt");
        p.save_repository(&path).unwrap();

        let mut q = Pipeline::new(harpertown_openblas())
            .with_model_config(ModelSetConfig::quick(256))
            .with_seed(9);
        q.load_repository(&path).unwrap();
        let _ = q.rank_trinv(224, 32).unwrap(); // serve traffic → telemetry
        let outcome = q.refine_online(OnlineRefinerConfig {
            max_cells: 2,
            ..Default::default()
        });
        assert_eq!(outcome.skipped_no_template, 0);
        assert!(outcome.cells_refined >= 1);
        assert!(q.rank_trinv(224, 32).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pipeline_repository_roundtrip() {
        let p = quick_pipeline();
        let dir = std::env::temp_dir().join("dlaperf-pipeline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repo.txt");
        p.save_repository(&path).unwrap();
        let mut q = Pipeline::new(harpertown_openblas());
        q.load_repository(&path).unwrap();
        assert_eq!(q.repository().len(), p.repository().len());
        let r1 = p.rank_trinv(224, 32).unwrap();
        let r2 = q.rank_trinv(224, 32).unwrap();
        assert_eq!(r1[0].0, r2[0].0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_models_surface_as_errors() {
        let p = Pipeline::new(harpertown_openblas());
        assert!(p.rank_trinv(128, 32).is_err());
        assert!(p.rank_sylv(128, 32).is_err());
    }
}
