//! Adaptive Refinement (paper Section III-C2).
//!
//! One split/accept loop, [`RefinementConfig::try_build_with`], serves both
//! the offline build and the online refiner's region rebuilds; they differ
//! only in the measurement their [`SampleOracle`] was created with (see the
//! oracle's module docs).  Every region is fitted by the oracle's one
//! grid-fit step, which Model Expansion shares.

use dla_machine::Executor;
use dla_model::{error_order, FitWorkspace, PiecewiseModel, Region, RegionModel};

use crate::SampleOracle;

/// Configuration of the Adaptive Refinement strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinementConfig {
    /// Relative error bound ε on the median fit.
    pub error_bound: f64,
    /// Minimum region extent; regions are not split below this size even if
    /// their fit error exceeds the bound (they are accepted anyway, as in the
    /// paper).
    pub min_region_size: usize,
    /// Number of grid points per dimension used when fitting a region.
    pub grid_per_dim: usize,
    /// Total degree of the fitted polynomials.
    pub degree: u32,
}

impl Default for RefinementConfig {
    fn default() -> Self {
        RefinementConfig {
            error_bound: 0.10,
            min_region_size: 32,
            grid_per_dim: 4,
            degree: 2,
        }
    }
}

impl RefinementConfig {
    /// The configuration used in the paper's Figure III.7a.
    pub fn paper_a() -> Self {
        RefinementConfig {
            error_bound: 0.10,
            min_region_size: 64,
            ..Default::default()
        }
    }

    /// The configuration used in the paper's Figure III.7b.
    pub fn paper_b() -> Self {
        RefinementConfig {
            error_bound: 0.05,
            min_region_size: 64,
            ..Default::default()
        }
    }

    /// The configuration used in the paper's Figure III.7c — the configuration
    /// the paper selects for all later experiments (ε = 10 %, s_min = 32).
    pub fn paper_c() -> Self {
        RefinementConfig {
            error_bound: 0.10,
            min_region_size: 32,
            ..Default::default()
        }
    }

    /// The configuration used in the paper's Figure III.7d.
    pub fn paper_d() -> Self {
        RefinementConfig {
            error_bound: 0.05,
            min_region_size: 32,
            ..Default::default()
        }
    }

    /// Builds a piecewise model over `space` by Adaptive Refinement, with a
    /// fresh fit workspace.
    pub fn build<E: Executor>(
        &self,
        oracle: &mut SampleOracle<'_, E>,
        space: &Region,
    ) -> PiecewiseModel {
        self.build_with(oracle, &mut FitWorkspace::new(), space)
    }

    /// Builds a piecewise model over `space` by Adaptive Refinement, fitting
    /// every region through the given [`FitWorkspace`] (the Modeler passes
    /// one workspace across the whole region stack and all submodels).
    pub fn build_with<E: Executor>(
        &self,
        oracle: &mut SampleOracle<'_, E>,
        workspace: &mut FitWorkspace,
        space: &Region,
    ) -> PiecewiseModel {
        let Ok(model) = self.try_build_with(oracle, workspace, space);
        model
    }

    /// Builds a piecewise model over `space` by Adaptive Refinement with the
    /// oracle's measurement, propagating the first measurement that fails.
    ///
    /// This is the one split/accept loop of both builds: offline builds
    /// (through [`build_with`](RefinementConfig::build_with)) measure with
    /// the plain path and cannot fail; online rebuilds measure through the
    /// sampler's fallible, retrying path.  On error, everything measured so
    /// far stays in the oracle's cache — a retried build pays only for the
    /// missing points.
    pub fn try_build_with<E: Executor, Err>(
        &self,
        oracle: &mut SampleOracle<'_, E, Err>,
        workspace: &mut FitWorkspace,
        space: &Region,
    ) -> Result<PiecewiseModel, Err> {
        let mut stack = vec![space.clone()];
        let mut regions: Vec<RegionModel> = Vec::new();
        let step = oracle.grid_step();

        while let Some(region) = stack.pop() {
            let fitted = oracle.fit_region(workspace, &region, self.grid_per_dim, self.degree)?;
            let splittable_children = region.split(self.min_region_size, step);
            let can_split = splittable_children.len() > 1;
            if fitted.error <= self.error_bound || !can_split {
                regions.push(fitted);
            } else {
                stack.extend(splittable_children);
            }
        }

        let total = oracle.unique_samples();
        // NaN fit errors (degenerate fits) sort last instead of panicking
        // mid-sort in `partial_cmp(...).expect(...)`.
        regions.sort_by(|a, b| error_order(a.error, b.error));
        Ok(PiecewiseModel::new(space.clone(), regions, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_blas::{Call, Diag, Side, Trans, Uplo};
    use dla_machine::presets::harpertown_openblas;
    use dla_machine::SimExecutor;
    use dla_sampler::{Sampler, SamplerConfig};

    fn build_with(config: RefinementConfig, space: Region) -> (PiecewiseModel, usize) {
        let mut sampler = Sampler::new(
            SimExecutor::noiseless(harpertown_openblas()),
            SamplerConfig::in_cache(1),
        );
        let template = if space.dim() == 1 {
            Call::trtri_unb(Uplo::Lower, Diag::NonUnit, 8)
        } else {
            Call::trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                8,
                8,
                0.5,
            )
        };
        let mut oracle = SampleOracle::new(&mut sampler, template, 8);
        let model = config.build(&mut oracle, &space);
        let samples = oracle.unique_samples();
        (model, samples)
    }

    #[test]
    fn always_covers_the_space() {
        let space = Region::new(vec![8, 8], vec![512, 512]);
        let (model, samples) = build_with(RefinementConfig::default(), space);
        assert!(model.covers_space(9));
        assert!(model.region_count() >= 1);
        assert!(samples >= model.region_count());
        assert_eq!(model.total_samples, samples);
    }

    #[test]
    fn regions_partition_without_overlap_violations() {
        // Refinement regions never overlap except along shared boundaries;
        // verify by checking a probe grid is covered by at least one region
        // and that region areas sum to roughly the space area.
        let space = Region::new(vec![8, 8], vec![520, 520]);
        let (model, _) = build_with(RefinementConfig::default(), space.clone());
        let space_area = ((space.extent(0) + 1) * (space.extent(1) + 1)) as f64;
        let area_sum: f64 = model
            .regions
            .iter()
            .map(|r| ((r.region.extent(0) + 1) * (r.region.extent(1) + 1)) as f64)
            .sum();
        // Shared boundaries double-count one row/column per cut, so the sum
        // slightly exceeds the area but must stay in the same ballpark.
        assert!(area_sum >= space_area * 0.99);
        assert!(
            area_sum <= space_area * 1.25,
            "area sum {area_sum} vs {space_area}"
        );
    }

    #[test]
    fn tighter_bound_creates_more_regions_and_samples() {
        let space = Region::new(vec![8, 8], vec![512, 512]);
        let (loose, loose_samples) = build_with(RefinementConfig::paper_a(), space.clone());
        let (tight, tight_samples) = build_with(RefinementConfig::paper_d(), space);
        assert!(tight.region_count() >= loose.region_count());
        assert!(tight_samples >= loose_samples);
        assert!(tight.average_error() <= loose.average_error() + 1e-9);
    }

    #[test]
    fn smaller_min_region_size_allows_finer_regions() {
        let space = Region::new(vec![8, 8], vec![512, 512]);
        let coarse_cfg = RefinementConfig {
            error_bound: 0.0005,
            min_region_size: 256,
            ..Default::default()
        };
        let fine_cfg = RefinementConfig {
            error_bound: 0.0005,
            min_region_size: 32,
            ..Default::default()
        };
        let (coarse, _) = build_with(coarse_cfg, space.clone());
        let (fine, _) = build_with(fine_cfg, space);
        let min_extent_coarse = coarse
            .regions
            .iter()
            .map(|r| r.region.min_extent())
            .min()
            .unwrap();
        let min_extent_fine = fine
            .regions
            .iter()
            .map(|r| r.region.min_extent())
            .min()
            .unwrap();
        assert!(min_extent_fine <= min_extent_coarse);
        assert!(fine.region_count() >= coarse.region_count());
    }

    #[test]
    fn one_dimensional_space_works() {
        let space = Region::new(vec![8], vec![1024]);
        let (model, _) = build_with(
            RefinementConfig {
                error_bound: 0.05,
                min_region_size: 64,
                grid_per_dim: 5,
                degree: 2,
            },
            space,
        );
        assert!(model.covers_space(33));
        for n in [8usize, 96, 250, 768, 1024] {
            assert!(model.eval(&[n]).unwrap().median > 0.0);
        }
    }

    #[test]
    fn nan_error_regions_sort_last_in_region_order() {
        // Regression for the `partial_cmp(...).expect("finite errors")` sort:
        // a degenerate fit can leave a NaN error, and the most-accurate-first
        // region order must tolerate it (NaN last) instead of panicking.
        let space = Region::new(vec![8, 8], vec![256, 256]);
        let (model, _) = build_with(RefinementConfig::default(), space);
        let mut regions: Vec<_> = model.regions.clone();
        let mut poisoned = regions[0].clone();
        poisoned.error = f64::NAN;
        regions.insert(0, poisoned);
        regions.sort_by(|a, b| dla_model::error_order(a.error, b.error));
        assert!(regions.last().unwrap().error.is_nan());
        assert!(regions[..regions.len() - 1]
            .windows(2)
            .all(|w| w[0].error <= w[1].error));
    }

    #[test]
    fn paper_configurations_differ() {
        assert_eq!(RefinementConfig::paper_a().min_region_size, 64);
        assert_eq!(RefinementConfig::paper_c().min_region_size, 32);
        assert!(RefinementConfig::paper_b().error_bound < RefinementConfig::paper_a().error_bound);
        assert_eq!(RefinementConfig::paper_d().error_bound, 0.05);
    }
}
