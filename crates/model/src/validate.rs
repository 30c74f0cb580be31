//! Publication gate: structural validation of repositories before serving.
//!
//! The serving layer must never adopt a repository that could make it serve a
//! non-finite prediction or lose coverage of a parameter space it previously
//! answered.  [`RepositoryValidator`] checks exactly the invariants evaluation
//! relies on — one model dimension per size argument of the routine, finite
//! polynomial coefficients, non-empty models, regions inside their submodel
//! space, and a non-degenerate region cover — so
//! `ModelService::swap`/`merge` can reject a corrupt repository and keep
//! serving the last good generation instead.
//!
//! A NaN *fit error* is deliberately not rejected: fit errors are refinement
//! telemetry, not served values, and the ranking paths order NaN explicitly
//! (see [`error_order`](crate::error_order)).

use crate::routine_model::check_model_dim;
use crate::{ModelError, ModelRepository, PiecewiseModel, Result, RoutineModel};

/// Probe-grid resolution per dimension for the region-cover check (the same
/// grid [`PiecewiseModel::covers_space`] samples).
const PROBE_PER_DIM: usize = 5;

/// Validates repositories against the structural invariants serving relies on.
///
/// An **empty** repository is valid: swapping one in is the documented way to
/// clear a service, and an empty repository cannot serve anything non-finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepositoryValidator;

impl RepositoryValidator {
    /// A validator.
    pub fn new() -> RepositoryValidator {
        RepositoryValidator
    }

    /// Validates a whole repository; the first violation is reported with the
    /// offending routine/machine/flags in the message.
    pub fn validate(&self, repository: &ModelRepository) -> Result<()> {
        for (_, model) in repository.iter() {
            self.validate_model(model)?;
        }
        Ok(())
    }

    /// Validates one routine model.
    pub fn validate_model(&self, model: &RoutineModel) -> Result<()> {
        let context = format!(
            "{} on {} ({:?})",
            model.routine.name(),
            model.machine_id,
            model.locality
        );
        check_model_dim(model.routine, model.space.dim())
            .map_err(|msg| ModelError::Validation(format!("{context}: {msg}")))?;
        if model.submodels.is_empty() {
            return Err(ModelError::Validation(format!(
                "{context}: routine model has no submodels"
            )));
        }
        for (flags, submodel) in &model.submodels {
            self.validate_submodel(submodel).map_err(|e| match e {
                ModelError::Validation(msg) => {
                    ModelError::Validation(format!("{context}, flags {flags:?}: {msg}"))
                }
                other => other,
            })?;
        }
        Ok(())
    }

    /// Validates one submodel (piecewise model).
    pub fn validate_submodel(&self, submodel: &PiecewiseModel) -> Result<()> {
        if submodel.regions.is_empty() {
            return Err(ModelError::Validation("submodel has no regions".into()));
        }
        for (i, region) in submodel.regions.iter().enumerate() {
            if !submodel.space.contains_region(&region.region) {
                return Err(ModelError::Validation(format!(
                    "region {i} {:?} escapes the submodel space {:?}",
                    region.region, submodel.space
                )));
            }
            for poly in region.poly.polynomials() {
                if poly.coefficients().iter().any(|c| !c.is_finite()) {
                    return Err(ModelError::Validation(format!(
                        "region {i} {:?} has non-finite polynomial coefficients",
                        region.region
                    )));
                }
            }
        }
        if !submodel.covers_space(PROBE_PER_DIM) {
            return Err(ModelError::Validation(format!(
                "degenerate region cover: a {PROBE_PER_DIM}-per-dim probe grid of the space {:?} \
                 is not covered by the regions",
                submodel.space
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Polynomial, Region, RegionModel, VectorPolynomial};
    use dla_blas::Routine;
    use dla_machine::Locality;
    use dla_mat::stats::Summary;

    fn fitted_region(lo: Vec<usize>, hi: Vec<usize>) -> RegionModel {
        let region = Region::new(lo, hi);
        let samples: Vec<(Vec<usize>, Summary)> = region
            .sample_grid(3, 1)
            .into_iter()
            .map(|p| {
                let v = p.iter().sum::<usize>() as f64;
                (p, Summary::exact(v))
            })
            .collect();
        RegionModel::fit(region, &samples, 1).unwrap()
    }

    fn model_with(submodel: PiecewiseModel) -> RoutineModel {
        let mut model = RoutineModel::new(
            Routine::Trsm,
            "machine-a",
            Locality::InCache,
            submodel.space.clone(),
        );
        model.insert_submodel(crate::FlagKey::from_slice(&[0, 0]).unwrap(), submodel);
        model
    }

    #[test]
    fn valid_model_passes() {
        let space = Region::new(vec![8, 8], vec![64, 64]);
        let sub = PiecewiseModel::new(space, vec![fitted_region(vec![8, 8], vec![64, 64])], 9);
        let mut repo = ModelRepository::new();
        repo.insert(model_with(sub));
        assert!(RepositoryValidator::new().validate(&repo).is_ok());
    }

    #[test]
    fn empty_repository_is_valid() {
        assert!(RepositoryValidator::new()
            .validate(&ModelRepository::new())
            .is_ok());
    }

    #[test]
    fn empty_routine_model_is_rejected() {
        let mut repo = ModelRepository::new();
        repo.insert(RoutineModel::new(
            Routine::Trsm,
            "machine-a",
            Locality::InCache,
            Region::new(vec![8, 8], vec![64, 64]),
        ));
        let err = RepositoryValidator::new().validate(&repo).unwrap_err();
        assert!(matches!(err, ModelError::Validation(ref m) if m.contains("no submodels")));
    }

    #[test]
    fn empty_submodel_is_rejected() {
        let space = Region::new(vec![8, 8], vec![64, 64]);
        let sub = PiecewiseModel::new(space, vec![], 0);
        let mut repo = ModelRepository::new();
        repo.insert(model_with(sub));
        let err = RepositoryValidator::new().validate(&repo).unwrap_err();
        assert!(matches!(err, ModelError::Validation(ref m) if m.contains("no regions")));
    }

    #[test]
    fn non_finite_coefficients_are_rejected() {
        let space = Region::new(vec![8, 8], vec![64, 64]);
        let mut region = fitted_region(vec![8, 8], vec![64, 64]);
        let dim = region.poly.polynomials()[0].dim();
        let bad = Polynomial::new(dim, vec![vec![0; dim]], vec![f64::NAN]).unwrap();
        region.poly = VectorPolynomial::new(vec![bad; 5]).unwrap();
        let sub = PiecewiseModel::new(space, vec![region], 9);
        let mut repo = ModelRepository::new();
        repo.insert(model_with(sub));
        let err = RepositoryValidator::new().validate(&repo).unwrap_err();
        assert!(matches!(err, ModelError::Validation(ref m) if m.contains("non-finite")));
    }

    #[test]
    fn region_escaping_the_space_is_rejected() {
        let space = Region::new(vec![8, 8], vec![64, 64]);
        let sub = PiecewiseModel::new(space, vec![fitted_region(vec![8, 8], vec![128, 128])], 9);
        let mut repo = ModelRepository::new();
        repo.insert(model_with(sub));
        let err = RepositoryValidator::new().validate(&repo).unwrap_err();
        assert!(matches!(err, ModelError::Validation(ref m) if m.contains("escapes")));
    }

    #[test]
    fn degenerate_cover_is_rejected() {
        // One region covering only a corner of the space: probe grid misses.
        let space = Region::new(vec![8, 8], vec![512, 512]);
        let sub = PiecewiseModel::new(space, vec![fitted_region(vec![8, 8], vec![16, 16])], 9);
        let mut repo = ModelRepository::new();
        repo.insert(model_with(sub));
        let err = RepositoryValidator::new().validate(&repo).unwrap_err();
        assert!(matches!(err, ModelError::Validation(ref m) if m.contains("degenerate")));
    }

    #[test]
    fn a_model_whose_dimension_is_not_its_size_count_is_rejected() {
        // trsm calls have two sizes: a one-dimensional trsm model would
        // answer every trsm call with an arity error.
        let space = Region::new(vec![8], vec![64]);
        let sub = PiecewiseModel::new(space, vec![fitted_region(vec![8], vec![64])], 3);
        assert!(RepositoryValidator::new().validate_submodel(&sub).is_ok());
        let mut repo = ModelRepository::new();
        repo.insert(model_with(sub));
        let err = RepositoryValidator::new().validate(&repo).unwrap_err();
        assert!(
            matches!(err, ModelError::Validation(ref m) if m.contains("dimension 1")),
            "{err:?}"
        );
    }

    #[test]
    fn nan_fit_error_is_tolerated() {
        // Fit errors are telemetry, not served values; serving must keep
        // accepting a model whose error is NaN (ranked explicitly elsewhere).
        let space = Region::new(vec![8, 8], vec![64, 64]);
        let mut region = fitted_region(vec![8, 8], vec![64, 64]);
        region.error = f64::NAN;
        let sub = PiecewiseModel::new(space, vec![region], 9);
        let mut repo = ModelRepository::new();
        repo.insert(model_with(sub));
        assert!(RepositoryValidator::new().validate(&repo).is_ok());
    }
}
