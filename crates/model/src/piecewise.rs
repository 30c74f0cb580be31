//! Piecewise, vector-valued polynomial models.

use std::cmp::Ordering;

use dla_mat::stats::{Quantity, Summary};

use crate::{ModelError, Polynomial, Region, Result};

/// Ascending total order on fit errors with `NaN` sorted last.
///
/// A region whose fit degenerated to a `NaN` error must never be preferred
/// over a region with a finite error, and sorting by error must not panic
/// mid-comparison.  This comparator is shared by [`PiecewiseModel::eval`],
/// the compiled evaluation engine and the Modeler's region sort.  Note that
/// plain [`f64::total_cmp`] is not enough: it orders *negative* `NaN` before
/// every number.
pub fn error_order(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.total_cmp(&b),
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (true, true) => Ordering::Equal,
    }
}

/// One polynomial per statistical quantity (min / mean / median / max / std).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorPolynomial {
    polys: Vec<Polynomial>,
}

impl VectorPolynomial {
    /// Creates a vector polynomial from one polynomial per quantity, in
    /// [`Quantity::ALL`] order.
    pub fn new(polys: Vec<Polynomial>) -> Result<VectorPolynomial> {
        if polys.len() != Quantity::ALL.len() {
            return Err(ModelError::Fit(format!(
                "expected {} polynomials, got {}",
                Quantity::ALL.len(),
                polys.len()
            )));
        }
        Ok(VectorPolynomial { polys })
    }

    /// Fits one polynomial per quantity to the given samples.
    ///
    /// `points` are normalised coordinates; `summaries` are the measured
    /// statistics at those points.
    pub fn fit(
        points: &[Vec<f64>],
        summaries: &[Summary],
        degree: u32,
    ) -> Result<VectorPolynomial> {
        if points.len() != summaries.len() {
            return Err(ModelError::Fit(
                "points/summaries length mismatch".to_string(),
            ));
        }
        let mut polys = Vec::with_capacity(Quantity::ALL.len());
        for q in Quantity::ALL {
            let values: Vec<f64> = summaries.iter().map(|s| s.get(q)).collect();
            polys.push(Polynomial::fit(points, &values, degree)?);
        }
        Ok(VectorPolynomial { polys })
    }

    /// Evaluates every quantity polynomial at the normalised point.
    ///
    /// All quantities are clamped to be non-negative: the modelled values are
    /// execution times, so a polynomial dipping below zero between its sample
    /// points is a fitting artefact, not a meaningful prediction.  `NaN`
    /// values are preserved (`f64::max` would silently turn them into `0.0`,
    /// i.e. a degenerate fit would masquerade as a zero-cost prediction);
    /// downstream ranking sorts `NaN` predictions last.
    pub fn eval(&self, point: &[f64]) -> Summary {
        // The polynomials are stored in `Quantity::ALL` order, which is
        // quantity index order.
        let mut values = [0.0; 5];
        for (value, poly) in values.iter_mut().zip(&self.polys) {
            let v = poly.eval(point);
            *value = if v.is_nan() { v } else { v.max(0.0) };
        }
        Summary::from_quantities(&values)
    }

    /// Access to the per-quantity polynomials.
    pub fn polynomials(&self) -> &[Polynomial] {
        &self.polys
    }

    /// The polynomial for one quantity.
    pub fn polynomial(&self, q: Quantity) -> &Polynomial {
        &self.polys[q.index()]
    }
}

/// One region of the parameter space together with its fitted polynomials.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionModel {
    /// The covered region (raw, unnormalised coordinates).
    pub region: Region,
    /// The fitted vector polynomial over normalised region coordinates.
    pub poly: VectorPolynomial,
    /// Maximum relative error of the *median* quantity over the fit samples
    /// (the Modeler's accuracy measure).
    pub error: f64,
    /// Number of distinct sample points used to fit this region.
    pub samples_used: usize,
    /// Provenance / age: how many online-refinement rebuilds produced this
    /// region (`0` = initial offline build, `n` = the region was re-fitted
    /// `n` times by [`OnlineRefiner`]-style targeted refinement).  This is
    /// runtime-only bookkeeping: the repository text format does not persist
    /// it, so reloaded repositories start back at revision 0.
    ///
    /// [`OnlineRefiner`]: https://docs.rs/dla-modeler
    pub revision: u32,
}

impl RegionModel {
    /// Fits a region model to samples (raw points paired with summaries).
    ///
    /// Only samples lying inside the region are used.
    pub fn fit(
        region: Region,
        samples: &[(Vec<usize>, Summary)],
        degree: u32,
    ) -> Result<RegionModel> {
        let in_region: Vec<&(Vec<usize>, Summary)> =
            samples.iter().filter(|(p, _)| region.contains(p)).collect();
        let points: Vec<Vec<f64>> = in_region.iter().map(|(p, _)| region.normalize(p)).collect();
        let summaries: Vec<Summary> = in_region.iter().map(|(_, s)| *s).collect();
        if points.is_empty() {
            return Err(ModelError::NotEnoughSamples { have: 0, need: 1 });
        }
        let poly = VectorPolynomial::fit(&points, &summaries, degree)?;
        let medians: Vec<f64> = summaries.iter().map(|s| s.median).collect();
        let error = poly
            .polynomial(Quantity::Median)
            .max_relative_error(&points, &medians);
        Ok(RegionModel {
            region,
            poly,
            error,
            samples_used: points.len(),
            revision: 0,
        })
    }

    /// Evaluates the region model at a raw (unnormalised) point.
    pub fn eval(&self, point: &[usize]) -> Summary {
        self.poly.eval(&self.region.normalize(point))
    }
}

/// A piecewise model covering the integer parameter space of one submodel
/// (one flag combination of one routine).
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseModel {
    /// The full parameter space the model is defined over.
    pub space: Region,
    /// The regions covering the space (they may overlap; evaluation picks the
    /// most accurate region containing the query point).
    pub regions: Vec<RegionModel>,
    /// Total number of distinct sample points used to build the model.
    pub total_samples: usize,
}

impl PiecewiseModel {
    /// Creates a piecewise model from fitted regions.
    pub fn new(space: Region, regions: Vec<RegionModel>, total_samples: usize) -> PiecewiseModel {
        PiecewiseModel {
            space,
            regions,
            total_samples,
        }
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Average of the per-region fit errors, weighted by region extent along
    /// each dimension (a simple proxy for area coverage).
    pub fn average_error(&self) -> f64 {
        if self.regions.is_empty() {
            return 0.0;
        }
        let mut weighted = 0.0;
        let mut total = 0.0;
        for r in &self.regions {
            let w: f64 = (0..r.region.dim())
                .map(|d| (r.region.extent(d) + 1) as f64)
                .product();
            weighted += r.error * w;
            total += w;
        }
        weighted / total
    }

    /// Evaluates the model at a raw integer point.
    ///
    /// If several regions contain the point, the most accurate one (smallest
    /// fit error) is used, as in the paper.  Points outside every region but
    /// inside the parameter space fall back to the nearest region; points
    /// outside the space return an error.
    pub fn eval(&self, point: &[usize]) -> Result<Summary> {
        self.eval_traced(point).map(|(summary, _)| summary)
    }

    /// [`PiecewiseModel::eval`], additionally reporting *which* region
    /// answered the query (its index into [`PiecewiseModel::regions`]) — the
    /// hook the serving layer's per-region telemetry is built on.
    pub fn eval_traced(&self, point: &[usize]) -> Result<(Summary, usize)> {
        if self.regions.is_empty() {
            return Err(ModelError::OutOfDomain("model has no regions".to_string()));
        }
        if point.len() != self.space.dim() {
            return Err(ModelError::OutOfDomain(format!(
                "point arity {} does not match model dimension {}",
                point.len(),
                self.space.dim()
            )));
        }
        if let Some((i, best)) = self
            .regions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.region.contains(point))
            .min_by(|(_, a), (_, b)| error_order(a.error, b.error))
        {
            return Ok((best.eval(point), i));
        }
        // Fall back to the region whose centre is closest to the point; this
        // covers query points that slip between region boundaries due to grid
        // snapping, and mild extrapolation right outside the space.
        let (i, best) = self
            .regions
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da = region_distance(&a.region, point);
                let db = region_distance(&b.region, point);
                da.total_cmp(&db)
            })
            // lint: allow(unwrap): PiecewiseModel construction guarantees at least one region
            .expect("non-empty regions");
        Ok((best.eval(point), i))
    }

    /// Returns `true` if every probe point of a `per_dim` grid over the space
    /// lies inside at least one region.
    pub fn covers_space(&self, per_dim: usize) -> bool {
        self.space
            .sample_grid(per_dim, 1)
            .iter()
            .all(|p| self.regions.iter().any(|r| r.region.contains(p)))
    }
}

fn region_distance(region: &Region, point: &[usize]) -> f64 {
    let mut acc = 0.0;
    for (&pt, (&rlo, &rhi)) in point.iter().zip(region.lo().iter().zip(region.hi())) {
        let p = pt as f64;
        let lo = rlo as f64;
        let hi = rhi as f64;
        let dd = if p < lo {
            lo - p
        } else if p > hi {
            p - hi
        } else {
            0.0
        };
        acc += dd * dd;
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic "measurement": a smooth function of the point.
    fn fake_summary(p: &[usize]) -> Summary {
        let x = p[0] as f64;
        let y = p.get(1).map(|&v| v as f64).unwrap_or(0.0);
        let median = 1000.0 + 2.0 * x + 3.0 * y + 0.01 * x * y;
        Summary {
            min: median * 0.95,
            mean: median * 1.01,
            median,
            max: median * 1.10,
            std_dev: median * 0.02,
            count: 10,
        }
    }

    fn samples_on(region: &Region, per_dim: usize) -> Vec<(Vec<usize>, Summary)> {
        region
            .sample_grid(per_dim, 8)
            .into_iter()
            .map(|p| {
                let s = fake_summary(&p);
                (p, s)
            })
            .collect()
    }

    #[test]
    fn vector_polynomial_roundtrip() {
        let region = Region::new(vec![8, 8], vec![512, 512]);
        let samples = samples_on(&region, 4);
        let points: Vec<Vec<f64>> = samples.iter().map(|(p, _)| region.normalize(p)).collect();
        let sums: Vec<Summary> = samples.iter().map(|(_, s)| *s).collect();
        let vp = VectorPolynomial::fit(&points, &sums, 2).unwrap();
        let est = vp.eval(&region.normalize(&[256, 256]));
        let truth = fake_summary(&[256, 256]);
        assert!((est.median - truth.median).abs() / truth.median < 0.05);
        assert!(est.std_dev >= 0.0);
        assert_eq!(vp.polynomials().len(), 5);
    }

    #[test]
    fn vector_polynomial_wrong_arity_errors() {
        assert!(VectorPolynomial::new(vec![Polynomial::zero(1); 3]).is_err());
        assert!(VectorPolynomial::new(vec![Polynomial::zero(1); 5]).is_ok());
    }

    #[test]
    fn region_model_fit_and_eval() {
        let region = Region::new(vec![8, 8], vec![1024, 1024]);
        let samples = samples_on(&region, 5);
        let rm = RegionModel::fit(region.clone(), &samples, 2).unwrap();
        assert!(rm.error < 0.05, "error {}", rm.error);
        assert_eq!(rm.samples_used, samples.len());
        let est = rm.eval(&[500, 700]);
        let truth = fake_summary(&[500, 700]);
        assert!((est.median - truth.median).abs() / truth.median < 0.05);
    }

    #[test]
    fn region_model_ignores_outside_samples() {
        let region = Region::new(vec![8], vec![128]);
        let mut samples = samples_on(&region, 6);
        // Add garbage samples outside the region: they must not affect the fit.
        samples.push((vec![4096], Summary::exact(1.0)));
        let rm = RegionModel::fit(region, &samples, 2).unwrap();
        assert!(rm.error < 0.05);
        assert_eq!(rm.samples_used, samples.len() - 1);
    }

    #[test]
    fn region_model_fit_requires_samples() {
        let region = Region::new(vec![8], vec![128]);
        assert!(matches!(
            RegionModel::fit(region, &[], 2),
            Err(ModelError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn piecewise_picks_most_accurate_region() {
        let space = Region::new(vec![8, 8], vec![1024, 1024]);
        let left = Region::new(vec![8, 8], vec![512, 1024]);
        let right = Region::new(vec![512, 8], vec![1024, 1024]);
        let mut rm_left = RegionModel::fit(left, &samples_on(&space, 5), 2).unwrap();
        let mut rm_right = RegionModel::fit(right, &samples_on(&space, 5), 2).unwrap();
        rm_left.error = 0.01;
        rm_right.error = 0.2;
        let model = PiecewiseModel::new(space, vec![rm_left.clone(), rm_right], 50);
        // Point in the overlap column x = 512: the more accurate (left) wins.
        let est = model.eval(&[512, 512]).unwrap();
        let expected = rm_left.eval(&[512, 512]);
        assert_eq!(est, expected);
        assert_eq!(model.region_count(), 2);
        assert!(model.covers_space(5));
    }

    #[test]
    fn nan_error_region_never_beats_a_finite_one() {
        let space = Region::new(vec![8, 8], vec![1024, 1024]);
        let mut rm_nan = RegionModel::fit(space.clone(), &samples_on(&space, 5), 2).unwrap();
        let mut rm_ok = RegionModel::fit(space.clone(), &samples_on(&space, 5), 2).unwrap();
        rm_nan.error = f64::NAN;
        rm_ok.error = 0.3;
        // Regression: selecting the best of two overlapping regions used to
        // panic in `partial_cmp(...).expect("no NaN errors")` when one fit
        // error was NaN; now the NaN region sorts last in either order.
        for regions in [
            vec![rm_nan.clone(), rm_ok.clone()],
            vec![rm_ok.clone(), rm_nan.clone()],
        ] {
            let model = PiecewiseModel::new(space.clone(), regions, 50);
            let est = model.eval(&[512, 512]).unwrap();
            assert_eq!(est, rm_ok.eval(&[512, 512]));
        }
        // All-NaN errors still evaluate (there is no better region to prefer).
        let model = PiecewiseModel::new(space.clone(), vec![rm_nan.clone()], 50);
        assert!(model.eval(&[512, 512]).is_ok());
        // The comparator itself: ascending, NaN last, no panic.
        assert_eq!(error_order(0.1, 0.2), std::cmp::Ordering::Less);
        assert_eq!(error_order(f64::NAN, 0.2), std::cmp::Ordering::Greater);
        assert_eq!(error_order(0.2, f64::NAN), std::cmp::Ordering::Less);
        assert_eq!(error_order(-f64::NAN, 0.2), std::cmp::Ordering::Greater);
        assert_eq!(error_order(f64::NAN, f64::NAN), std::cmp::Ordering::Equal);
    }

    #[test]
    fn piecewise_falls_back_to_nearest_region() {
        let space = Region::new(vec![8], vec![1024]);
        let covered = Region::new(vec![8], vec![512]);
        let rm = RegionModel::fit(covered, &samples_on(&space, 9), 2).unwrap();
        let model = PiecewiseModel::new(space, vec![rm], 9);
        // 900 is inside the space but outside the single region; the fallback
        // must still produce a finite estimate.
        let est = model.eval(&[900]).unwrap();
        assert!(est.median.is_finite());
        assert!(!model.covers_space(9));
    }

    #[test]
    fn piecewise_error_cases() {
        let space = Region::new(vec![8], vec![64]);
        let empty = PiecewiseModel::new(space.clone(), vec![], 0);
        assert!(empty.eval(&[16]).is_err());
        assert_eq!(empty.average_error(), 0.0);
        let rm = RegionModel::fit(space.clone(), &samples_on(&space, 8), 2).unwrap();
        let model = PiecewiseModel::new(space, vec![rm], 8);
        assert!(model.eval(&[16, 16]).is_err());
        assert!(model.average_error() >= 0.0);
    }
}
