//! The Modeler orchestrator.

use dla_blas::{Call, Routine};
use dla_machine::{Executor, Locality};
use dla_model::{
    submodel_key, FitWorkspace, ModelRepository, PiecewiseModel, Region, RoutineModel,
};
use dla_sampler::{Sampler, SamplerConfig};

use crate::online::dedupe_templates;
use crate::oracle::GRID_STEP;
use crate::{ExpansionConfig, RefinementConfig, SampleOracle};

/// A model-generation strategy (one of the two described in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Model Expansion.
    Expansion(ExpansionConfig),
    /// Adaptive Refinement.
    Refinement(RefinementConfig),
}

impl Strategy {
    /// The strategy the paper selects for its prediction experiments:
    /// Adaptive Refinement with ε = 10 % and a minimum region size of 32.
    pub fn paper_default() -> Strategy {
        Strategy::Refinement(RefinementConfig::paper_c())
    }

    /// Builds a piecewise model for one flag combination over `space`.
    pub fn build<E: Executor>(
        &self,
        oracle: &mut SampleOracle<'_, E>,
        space: &Region,
    ) -> PiecewiseModel {
        self.build_with(oracle, &mut FitWorkspace::new(), space)
    }

    /// Builds a piecewise model for one flag combination over `space`,
    /// fitting through the given [`FitWorkspace`].
    pub fn build_with<E: Executor>(
        &self,
        oracle: &mut SampleOracle<'_, E>,
        workspace: &mut FitWorkspace,
        space: &Region,
    ) -> PiecewiseModel {
        match self {
            Strategy::Expansion(cfg) => cfg.build_with(oracle, workspace, space),
            Strategy::Refinement(cfg) => cfg.build_with(oracle, workspace, space),
        }
    }

    /// A short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Expansion(_) => "model-expansion",
            Strategy::Refinement(_) => "adaptive-refinement",
        }
    }
}

/// Summary of one model-generation run (what the paper's Figures III.6–III.8
/// tabulate per configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelingReport {
    /// The modelled routine.
    pub routine: Routine,
    /// The strategy used.
    pub strategy_name: String,
    /// Number of distinct sample points taken.
    pub samples: usize,
    /// Number of regions in the resulting model(s).
    pub regions: usize,
    /// Extent-weighted average relative fit error across regions.
    pub average_error: f64,
}

/// The Modeler: builds routine models by driving a Sampler with a strategy.
///
/// The Modeler owns one [`FitWorkspace`] that persists across every region,
/// submodel and routine it builds, so monomial plans and fit buffers are
/// allocated once per Modeler rather than once per fit.
pub struct Modeler<E: Executor> {
    sampler: Sampler<E>,
    strategy: Strategy,
    workspace: FitWorkspace,
}

impl<E: Executor> Modeler<E> {
    /// Creates a Modeler.
    ///
    /// `locality` selects the memory-locality scenario the models describe;
    /// `repetitions` is how many measurements the Sampler takes per point.
    pub fn new(
        executor: E,
        locality: Locality,
        repetitions: usize,
        strategy: Strategy,
    ) -> Modeler<E> {
        let config = SamplerConfig {
            locality,
            repetitions,
            warmup_discard: 1,
        };
        Modeler {
            sampler: Sampler::new(executor, config),
            strategy,
            workspace: FitWorkspace::new(),
        }
    }

    /// The strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The identifier of the machine configuration being modelled.
    pub fn machine_id(&self) -> String {
        self.sampler.machine().id()
    }

    /// The locality scenario the models are built for.
    pub fn locality(&self) -> Locality {
        self.sampler.config().locality
    }

    /// Total number of raw measurements the Sampler has performed.
    pub fn measurements_taken(&self) -> usize {
        self.sampler.samples_taken()
    }

    /// Builds the piecewise model for a single call template (one flag
    /// combination) over `space`, returning the model and the number of
    /// distinct points sampled for it.
    pub fn build_submodel(&mut self, template: &Call, space: &Region) -> (PiecewiseModel, usize) {
        let mut oracle = SampleOracle::new(&mut self.sampler, template.clone(), GRID_STEP);
        let model = self
            .strategy
            .build_with(&mut oracle, &mut self.workspace, space);
        let samples = oracle.unique_samples();
        (model, samples)
    }

    /// Builds a [`RoutineModel`] covering every distinct flag combination that
    /// appears in `templates` (all templates must invoke the same routine).
    ///
    /// Returns the model together with a [`ModelingReport`].
    pub fn build_routine_model(
        &mut self,
        templates: &[Call],
        space: &Region,
    ) -> (RoutineModel, ModelingReport) {
        assert!(!templates.is_empty(), "at least one template call required");
        let routine = templates[0].routine();
        assert!(
            templates.iter().all(|t| t.routine() == routine),
            "all templates must invoke the same routine"
        );
        assert_eq!(
            space.dim(),
            routine.size_count(),
            "parameter space dimension must match the routine's size count"
        );

        let mut model =
            RoutineModel::new(routine, self.machine_id(), self.locality(), space.clone());
        let mut total_samples = 0;
        let mut total_regions = 0;
        let mut error_acc = 0.0;
        // One representative template per distinct submodel key, built in
        // key order.
        for template in dedupe_templates(templates) {
            let (submodel, samples) = self.build_submodel(&template, space);
            total_samples += samples;
            total_regions += submodel.region_count();
            error_acc += submodel.average_error();
            model.insert_submodel(submodel_key(&template), submodel);
        }
        let submodel_count = model.submodel_count().max(1);
        let report = ModelingReport {
            routine,
            strategy_name: self.strategy.name().to_string(),
            samples: total_samples,
            regions: total_regions,
            average_error: error_acc / submodel_count as f64,
        };
        (model, report)
    }

    /// Builds routine models for several routines (given one template list per
    /// routine with its parameter space) and stores them in `repository`.
    ///
    /// Returns the per-routine reports.
    pub fn populate_repository(
        &mut self,
        repository: &mut ModelRepository,
        routines: &[(Vec<Call>, Region)],
    ) -> Vec<ModelingReport> {
        let mut reports = Vec::with_capacity(routines.len());
        for (templates, space) in routines {
            let (model, report) = self.build_routine_model(templates, space);
            repository.insert(model);
            reports.push(report);
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_blas::{Diag, Side, Trans, Uplo};
    use dla_machine::presets::harpertown_openblas;
    use dla_machine::SimExecutor;

    fn modeler(strategy: Strategy) -> Modeler<SimExecutor> {
        Modeler::new(
            SimExecutor::noiseless(harpertown_openblas()),
            Locality::InCache,
            1,
            strategy,
        )
    }

    fn trsm_templates() -> Vec<Call> {
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
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::Unit,
                8,
                8,
                -1.0,
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
        ]
    }

    #[test]
    fn routine_model_has_one_submodel_per_flag_combination() {
        let mut m = modeler(Strategy::Refinement(RefinementConfig {
            error_bound: 0.15,
            min_region_size: 128,
            grid_per_dim: 3,
            degree: 2,
        }));
        let space = Region::new(vec![8, 8], vec![384, 384]);
        let (model, report) = m.build_routine_model(&trsm_templates(), &space);
        // Unit and NonUnit left-lower templates share a submodel (diag folded),
        // the right-side template gets its own.
        assert_eq!(model.submodel_count(), 2);
        assert_eq!(report.routine, Routine::Trsm);
        assert!(report.samples > 0);
        assert!(report.regions >= 2);
        assert_eq!(report.strategy_name, "adaptive-refinement");
        // Estimates exist for all three templates.
        for t in trsm_templates() {
            let call = t.with_sizes(&[256, 256]);
            assert!(model.estimate(&call).unwrap().median > 0.0);
        }
        assert!(m.measurements_taken() > 0);
        assert_eq!(model.machine_id, m.machine_id());
    }

    #[test]
    fn both_strategies_produce_usable_models() {
        let space = Region::new(vec![8, 8], vec![256, 256]);
        for strategy in [
            Strategy::Expansion(ExpansionConfig {
                initial_size: 64,
                grid_per_dim: 3,
                ..Default::default()
            }),
            Strategy::Refinement(RefinementConfig {
                min_region_size: 64,
                grid_per_dim: 3,
                ..Default::default()
            }),
        ] {
            let mut m = modeler(strategy);
            let template = Call::trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                8,
                8,
                1.0,
            );
            let (submodel, samples) = m.build_submodel(&template, &space);
            assert!(samples > 0, "{} took no samples", strategy.name());
            assert!(submodel.covers_space(5));
        }
    }

    #[test]
    fn populate_repository_stores_models_for_lookup() {
        let mut m = modeler(Strategy::Refinement(RefinementConfig {
            error_bound: 0.2,
            min_region_size: 128,
            grid_per_dim: 3,
            degree: 2,
        }));
        let mut repo = ModelRepository::new();
        let gemm_space = Region::new(vec![8, 8, 8], vec![128, 128, 128]);
        let trsm_space = Region::new(vec![8, 8], vec![256, 256]);
        let reports = m.populate_repository(
            &mut repo,
            &[
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
                    vec![Call::trsm(
                        Side::Left,
                        Uplo::Lower,
                        Trans::NoTrans,
                        Diag::NonUnit,
                        8,
                        8,
                        1.0,
                    )],
                    trsm_space,
                ),
            ],
        );
        assert_eq!(reports.len(), 2);
        assert_eq!(repo.len(), 2);
        let id = m.machine_id();
        assert!(repo.get(Routine::Gemm, &id, Locality::InCache).is_some());
        assert!(repo.get(Routine::Trsm, &id, Locality::InCache).is_some());
        assert!(repo.get(Routine::Trmm, &id, Locality::InCache).is_none());
    }

    #[test]
    #[should_panic(expected = "same routine")]
    fn mixed_routines_panic() {
        let mut m = modeler(Strategy::paper_default());
        let space = Region::new(vec![8, 8], vec![64, 64]);
        let _ = m.build_routine_model(
            &[
                Call::trsm(
                    Side::Left,
                    Uplo::Lower,
                    Trans::NoTrans,
                    Diag::NonUnit,
                    8,
                    8,
                    1.0,
                ),
                Call::trmm(
                    Side::Left,
                    Uplo::Lower,
                    Trans::NoTrans,
                    Diag::NonUnit,
                    8,
                    8,
                    1.0,
                ),
            ],
            &space,
        );
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn wrong_space_dimension_panics() {
        let mut m = modeler(Strategy::paper_default());
        let space = Region::new(vec![8], vec![64]);
        let _ = m.build_routine_model(
            &[Call::trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                8,
                8,
                1.0,
            )],
            &space,
        );
    }

    #[test]
    fn strategy_names_and_default() {
        assert_eq!(Strategy::paper_default().name(), "adaptive-refinement");
        assert_eq!(
            Strategy::Expansion(ExpansionConfig::default()).name(),
            "model-expansion"
        );
    }
}
