//! Model Expansion (paper Section III-C1).

use std::collections::{HashSet, VecDeque};

use dla_machine::Executor;
use dla_model::{error_order, FitWorkspace, PiecewiseModel, Region, RegionModel};

use crate::SampleOracle;

/// Direction in which regions are expanded across the parameter space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Start near the origin and expand toward larger parameter values (the
    /// paper's ↗).
    AwayFromOrigin,
    /// Start at the far corner and expand toward the origin (the paper's ↙,
    /// which the authors found preferable).
    TowardOrigin,
}

/// Configuration of the Model Expansion strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpansionConfig {
    /// Relative error bound ε on the median fit.
    pub error_bound: f64,
    /// Expansion direction.
    pub direction: Direction,
    /// Initial (and per-step growth) size of regions, in parameter units.
    pub initial_size: usize,
    /// Number of grid points per dimension used when fitting a region.
    pub grid_per_dim: usize,
    /// Total degree of the fitted polynomials.
    pub degree: u32,
}

impl Default for ExpansionConfig {
    fn default() -> Self {
        ExpansionConfig {
            error_bound: 0.10,
            direction: Direction::TowardOrigin,
            initial_size: 64,
            grid_per_dim: 4,
            degree: 2,
        }
    }
}

impl ExpansionConfig {
    /// The configuration used in the paper's Figure III.6a.
    pub fn paper_a() -> Self {
        ExpansionConfig {
            error_bound: 0.10,
            direction: Direction::AwayFromOrigin,
            initial_size: 64,
            ..Default::default()
        }
    }

    /// The configuration used in the paper's Figure III.6b.
    pub fn paper_b() -> Self {
        ExpansionConfig {
            error_bound: 0.10,
            direction: Direction::TowardOrigin,
            initial_size: 64,
            ..Default::default()
        }
    }

    /// The configuration used in the paper's Figure III.6c.
    pub fn paper_c() -> Self {
        ExpansionConfig {
            error_bound: 0.05,
            direction: Direction::TowardOrigin,
            initial_size: 64,
            ..Default::default()
        }
    }

    /// The configuration used in the paper's Figure III.6d.
    pub fn paper_d() -> Self {
        ExpansionConfig {
            error_bound: 0.05,
            direction: Direction::TowardOrigin,
            initial_size: 32,
            ..Default::default()
        }
    }

    /// Builds a piecewise model over `space` by Model Expansion, with a fresh
    /// fit workspace.
    pub fn build<E: Executor>(
        &self,
        oracle: &mut SampleOracle<'_, E>,
        space: &Region,
    ) -> PiecewiseModel {
        self.build_with(oracle, &mut FitWorkspace::new(), space)
    }

    /// Builds a piecewise model over `space` by Model Expansion, fitting
    /// every candidate region through the given [`FitWorkspace`].
    pub fn build_with<E: Executor>(
        &self,
        oracle: &mut SampleOracle<'_, E>,
        workspace: &mut FitWorkspace,
        space: &Region,
    ) -> PiecewiseModel {
        let dim = space.dim();
        let step = oracle.grid_step();
        let cell = self.initial_size.max(step).max(1);

        // Number of cells along each dimension.
        let cells_per_dim: Vec<usize> = (0..dim)
            .map(|d| (space.extent(d) + cell - 1) / cell.max(1) + 1)
            .collect();

        // The seed cell sits in the corner opposite to the expansion direction.
        let seed: Vec<usize> = match self.direction {
            Direction::AwayFromOrigin => vec![0; dim],
            Direction::TowardOrigin => cells_per_dim.iter().map(|&c| c - 1).collect(),
        };

        let cell_region = |cell_idx: &[usize]| -> Region {
            let lo: Vec<usize> = (0..dim)
                .map(|d| (space.lo()[d] + cell_idx[d] * cell).min(space.hi()[d]))
                .collect();
            let hi: Vec<usize> = (0..dim)
                .map(|d| (space.lo()[d] + (cell_idx[d] + 1) * cell).min(space.hi()[d]))
                .collect();
            Region::new(lo, hi)
        };

        let mut covered: HashSet<Vec<usize>> = HashSet::new();
        let mut queue: VecDeque<Vec<usize>> = VecDeque::new();
        queue.push_back(seed);
        let mut regions: Vec<RegionModel> = Vec::new();

        while let Some(cell_idx) = queue.pop_front() {
            if covered.contains(&cell_idx) {
                continue;
            }
            // Skip cells already covered by an accepted region, but still
            // propagate the frontier through them.
            let this_cell = cell_region(&cell_idx);
            let already = regions.iter().any(|r| r.region.contains_region(&this_cell));
            if !already {
                let final_region = self.grow_region(oracle, workspace, space, this_cell.clone());
                let Ok(fitted) =
                    oracle.fit_region(workspace, &final_region, self.grid_per_dim, self.degree);
                regions.push(fitted);
            }
            covered.insert(cell_idx.clone());
            // Push the neighbouring cells.
            for d in 0..dim {
                for delta in [-1isize, 1] {
                    let v = cell_idx[d] as isize + delta;
                    if v < 0 || v as usize >= cells_per_dim[d] {
                        continue;
                    }
                    let mut neighbour = cell_idx.clone();
                    neighbour[d] = v as usize;
                    if !covered.contains(&neighbour) {
                        queue.push_back(neighbour);
                    }
                }
            }
        }

        let total = oracle.unique_samples();
        // Order regions by fit error so diagnostics read naturally; NaN fit
        // errors (degenerate fits) sort last instead of panicking mid-sort.
        regions.sort_by(|a, b| error_order(a.error, b.error));
        PiecewiseModel::new(space.clone(), regions, total)
    }

    /// Expands a region dimension by dimension while the fit error stays below
    /// the bound.
    fn grow_region<E: Executor>(
        &self,
        oracle: &mut SampleOracle<'_, E>,
        workspace: &mut FitWorkspace,
        space: &Region,
        start: Region,
    ) -> Region {
        let dim = space.dim();
        let forward = matches!(self.direction, Direction::AwayFromOrigin);
        let mut region = start;
        let mut blocked = vec![false; dim];
        let growth = self.initial_size.max(oracle.grid_step());

        while blocked.iter().any(|&b| !b) {
            let mut progressed = false;
            for (d, blocked_d) in blocked.iter_mut().enumerate() {
                if *blocked_d {
                    continue;
                }
                let candidate = region.grown(d, growth, forward, space);
                if candidate == region {
                    *blocked_d = true;
                    continue;
                }
                let Ok(fitted) =
                    oracle.fit_region(workspace, &candidate, self.grid_per_dim, self.degree);
                if fitted.error <= self.error_bound {
                    region = candidate;
                    progressed = true;
                } else {
                    *blocked_d = true;
                }
            }
            if !progressed {
                break;
            }
        }
        region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_blas::{Call, Diag, Side, Trans, Uplo};
    use dla_machine::presets::harpertown_openblas;
    use dla_machine::SimExecutor;
    use dla_sampler::{Sampler, SamplerConfig};

    fn build_with(config: ExpansionConfig, space: Region) -> (PiecewiseModel, usize) {
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
    fn covers_small_space_1d() {
        let space = Region::new(vec![8], vec![512]);
        let (model, samples) = build_with(
            ExpansionConfig {
                initial_size: 64,
                ..Default::default()
            },
            space,
        );
        assert!(model.region_count() >= 1);
        assert!(model.covers_space(17));
        assert!(samples > 0);
        assert_eq!(model.total_samples, samples);
        // Every grid point evaluates to a positive tick estimate.
        for n in (8..=512).step_by(64) {
            let est = model.eval(&[n]).unwrap();
            assert!(est.median > 0.0, "median at {n} is {}", est.median);
        }
    }

    #[test]
    fn covers_2d_space_both_directions() {
        let space = Region::new(vec![8, 8], vec![384, 384]);
        for direction in [Direction::AwayFromOrigin, Direction::TowardOrigin] {
            let (model, _) = build_with(
                ExpansionConfig {
                    direction,
                    initial_size: 96,
                    grid_per_dim: 4,
                    ..Default::default()
                },
                space.clone(),
            );
            assert!(
                model.covers_space(7),
                "direction {direction:?} left holes in the space"
            );
            assert!(model.region_count() >= 1);
        }
    }

    #[test]
    fn tighter_error_bound_uses_more_samples() {
        let space = Region::new(vec![8, 8], vec![384, 384]);
        let (loose_model, loose_samples) = build_with(
            ExpansionConfig {
                error_bound: 0.25,
                initial_size: 96,
                ..Default::default()
            },
            space.clone(),
        );
        let (tight_model, tight_samples) = build_with(
            ExpansionConfig {
                error_bound: 0.02,
                initial_size: 96,
                ..Default::default()
            },
            space,
        );
        assert!(tight_samples >= loose_samples);
        assert!(tight_model.region_count() >= loose_model.region_count());
    }

    #[test]
    fn estimates_track_the_cost_model() {
        let space = Region::new(vec![8, 8], vec![512, 512]);
        let (model, _) = build_with(ExpansionConfig::default(), space);
        // Compare the model's median estimate with the noiseless simulator.
        let machine = harpertown_openblas();
        let template = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            8,
            8,
            0.5,
        )
        .with_leading_dims(2500);
        let mut worst: f64 = 0.0;
        for &m in &[64usize, 128, 256, 384, 512] {
            for &n in &[64usize, 128, 256, 384, 512] {
                let call = template.with_sizes(&[m, n]);
                let truth = dla_machine::cost::estimate_ticks(
                    &machine,
                    &call,
                    dla_machine::Locality::InCache,
                );
                let est = model.eval(&[m, n]).unwrap().median;
                worst = worst.max((est - truth).abs() / truth);
            }
        }
        assert!(worst < 0.35, "worst relative error {worst}");
    }

    #[test]
    fn paper_configurations_differ() {
        assert_eq!(
            ExpansionConfig::paper_a().direction,
            Direction::AwayFromOrigin
        );
        assert_eq!(
            ExpansionConfig::paper_b().direction,
            Direction::TowardOrigin
        );
        assert!(ExpansionConfig::paper_c().error_bound < ExpansionConfig::paper_b().error_bound);
        assert!(ExpansionConfig::paper_d().initial_size < ExpansionConfig::paper_c().initial_size);
    }
}
