//! The compiled fit engine: single-QR multi-RHS region fitting with a
//! reusable workspace.
//!
//! [`VectorPolynomial::fit`] / [`RegionModel::fit`] are the *reference*
//! implementations: per fit they regenerate the monomial basis (six times —
//! once per quantity polynomial plus once for the sample-count check),
//! rebuild the same Vandermonde design matrix five times with a `powi` per
//! entry, clone it into five independent Householder QR factorisations, and
//! then re-evaluate the fitted polynomial pointwise to obtain the fit error.
//! That is fine for one-off fits, but the Modeler's adaptive refinement loop
//! fits hundreds of regions per submodel, so construction — the dominant
//! offline cost, and the latency a `ModelService` rebuild/hot-swap is gated
//! on — has to be fast.
//!
//! [`FitWorkspace`] is the construction-side analogue of the compiled
//! evaluation engine:
//!
//! * **Cached monomial plans**: the `(dim, degree)` basis is generated once
//!   and shared (`Arc`) by every polynomial fitted against it, together with
//!   a [`DesignBuilder`] whose power ladder fills design-matrix rows without
//!   `powi`.
//! * **Single QR, five back-solves**: the design matrix is factored once and
//!   all five quantity vectors are back-solved against the shared factors
//!   ([`QrFactorization::solve_into`]); the rank-deficient ridge fallback is
//!   likewise derived from the stored factors, once.
//! * **Reusable buffers**: normalised points, per-quantity values, the design
//!   matrix (whose backing buffer is reclaimed from the factorisation after
//!   each fit) and the solution vectors all live in the workspace, so a
//!   steady-state region fit performs no heap allocation beyond the five
//!   coefficient vectors of the returned model.
//! * **Fit error from `A·c`**: the maximum relative error of the median fit
//!   is computed from the design matrix applied to the solved coefficients
//!   instead of re-evaluating the polynomial pointwise.
//! * **Folded degree fallback**: [`RegionModel::fit_with_fallback`] filters
//!   and normalises the samples once and retries degenerate fits at degree 0
//!   on the already-prepared buffers, where the reference path re-filters and
//!   re-normalises from scratch.
//!
//! Equivalence with the reference path is enforced by property tests
//! (`crates/core/tests/fit_equivalence.rs`), including rank-deficient and
//! fallback-degree sample sets.

use std::collections::HashMap;
use std::sync::Arc;

use dla_mat::qr::{DesignBuilder, QrFactorization, LSTSQ_RIDGE_LAMBDA};
use dla_mat::stats::{relative_error, Quantity, Summary};
use dla_mat::{MatError, Matrix};

use crate::poly::monomial_exponents;
use crate::{ModelError, Polynomial, Region, RegionModel, Result, VectorPolynomial};

/// Number of fitted quantities (one polynomial each).
const QUANTITIES: usize = 5;

/// A cached monomial basis for one `(dim, degree)` combination.
struct FitPlan {
    /// The exponent tuples, shared by every polynomial fitted with this plan.
    exponents: Arc<Vec<Vec<u32>>>,
    /// Ladder-based design-matrix row filler for the basis.
    builder: DesignBuilder,
}

impl FitPlan {
    fn new(dim: usize, degree: u32) -> FitPlan {
        let exponents = monomial_exponents(dim, degree);
        let builder = DesignBuilder::new(dim, &exponents)
            // lint: allow(unwrap): monomial_exponents is non-empty for every degree and matches dim by construction
            .expect("monomial_exponents produces a non-empty, arity-consistent basis");
        FitPlan {
            exponents: Arc::new(exponents),
            builder,
        }
    }
}

/// A reusable workspace for least-squares model fitting.
///
/// Create one per construction run (the Modeler holds one across its whole
/// region stack) and pass it to [`VectorPolynomial::fit_with`] /
/// [`RegionModel::fit_with`]; see the [module docs](self) for what is cached
/// and reused.
#[derive(Default)]
pub struct FitWorkspace {
    plans: HashMap<(usize, u32), FitPlan>,
    /// Normalised in-region coordinates, point-major (`m * dim`).
    points: Vec<f64>,
    /// Per-quantity sample values, quantity-major (`5 * m`).
    values: Vec<f64>,
    /// Backing buffer recycled through every design matrix / factorisation.
    design: Vec<f64>,
    /// Copy of the filled design matrix, kept for the `A·c` error pass.
    saved: Vec<f64>,
    /// Right-hand-side scratch (`m`).
    qtb: Vec<f64>,
    /// Solved coefficients, quantity-major (`5 * n`).
    coeffs: Vec<f64>,
    /// Normal-equation right-hand-side scratch for the ridge fallback (`n`).
    atb: Vec<f64>,
    /// In-region summary scratch for the region-filter pass.
    kept: Vec<Summary>,
}

impl FitWorkspace {
    /// Creates an empty workspace; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> FitWorkspace {
        FitWorkspace::default()
    }

    /// Number of distinct `(dim, degree)` monomial plans cached so far.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Copies the summaries' quantity values into the quantity-major buffer.
    fn load_values(&mut self, summaries: impl Iterator<Item = Summary>, m: usize) {
        self.values.clear();
        self.values.resize(QUANTITIES * m, 0.0);
        let mut i = 0;
        for s in summaries {
            for (q, quantity) in Quantity::ALL.iter().enumerate() {
                self.values[q * m + i] = s.get(*quantity);
            }
            i += 1;
        }
        debug_assert_eq!(i, m);
    }

    /// Fits the five quantity polynomials to the buffered points/values.
    ///
    /// Returns the vector polynomial and the maximum relative error of the
    /// median fit (computed from `A·c`).
    fn fit_prepared(
        &mut self,
        dim: usize,
        m: usize,
        degree: u32,
    ) -> Result<(VectorPolynomial, f64)> {
        let plan = self
            .plans
            .entry((dim, degree))
            .or_insert_with(|| FitPlan::new(dim, degree));
        let n = plan.builder.terms();
        if m < n {
            return Err(ModelError::NotEnoughSamples { have: m, need: n });
        }

        // Design matrix in the recycled buffer, one ladder-filled row per point.
        let mut data = std::mem::take(&mut self.design);
        data.clear();
        data.resize(m * n, 0.0);
        let mut a = Matrix::from_data(m, n, data)
            .map_err(|e| ModelError::Fit(format!("design matrix: {e}")))?;
        plan.builder.fill_matrix(&mut a, &self.points[..m * dim]);
        self.saved.clear();
        self.saved.extend_from_slice(a.as_slice());

        // One factorisation, five back-solves against the shared factors.
        let qr = QrFactorization::new(a).map_err(|e| ModelError::Fit(format!("lstsq: QR: {e}")))?;
        self.coeffs.clear();
        self.coeffs.resize(QUANTITIES * n, 0.0);
        self.qtb.resize(m, 0.0);
        let mut ridge: Option<QrFactorization> = None;
        for q in 0..QUANTITIES {
            self.qtb.copy_from_slice(&self.values[q * m..(q + 1) * m]);
            let x = &mut self.coeffs[q * n..(q + 1) * n];
            match qr.solve_into(&mut self.qtb, x) {
                Ok(()) => {}
                Err(MatError::Numerical { .. }) => {
                    // Rank-deficient system: ridge fallback from the stored
                    // factors, computed once and shared by all five solves.
                    if ridge.is_none() {
                        ridge = Some(
                            qr.ridge_factorization(LSTSQ_RIDGE_LAMBDA)
                                .map_err(|e| ModelError::Fit(format!("lstsq: ridge: {e}")))?,
                        );
                    }
                    // lint: allow(unwrap): the ridge factorization was installed two lines above
                    let rqr = ridge.as_ref().expect("just installed");
                    self.atb.resize(n, 0.0);
                    qr.rt_apply(&self.qtb, &mut self.atb)
                        .map_err(|e| ModelError::Fit(format!("lstsq: {e}")))?;
                    self.qtb[..n].copy_from_slice(&self.atb);
                    rqr.solve_into(&mut self.qtb[..n], x)
                        .map_err(|e| ModelError::Fit(format!("lstsq: ridge solve: {e}")))?;
                }
                Err(e) => return Err(ModelError::Fit(format!("lstsq: {e}"))),
            }
        }

        // Fit error from the already-available A·c predictions (median fit).
        // lint: hot-path begin
        let qm = Quantity::Median.index();
        // lint: allow(panic-free): prepare() sizes values to QUANTITIES * m
        let medians = &self.values[qm * m..(qm + 1) * m];
        // lint: allow(panic-free): prepare() sizes coeffs to QUANTITIES * n
        let c_med = &self.coeffs[qm * n..(qm + 1) * n];
        let mut error = 0.0f64;
        for (i, &median) in medians.iter().enumerate() {
            let mut pred = 0.0;
            for (t, &c) in c_med.iter().enumerate() {
                // lint: allow(panic-free): saved holds n * m entries from prepare()
                pred += c * self.saved[t * m + i];
            }
            error = error.max(relative_error(pred, median));
        }
        // lint: hot-path end

        let mut polys = Vec::with_capacity(QUANTITIES);
        for q in 0..QUANTITIES {
            polys.push(Polynomial::from_shared(
                dim,
                plan.exponents.clone(),
                self.coeffs[q * n..(q + 1) * n].to_vec(),
            )?);
        }

        // Reclaim the design buffer from the consumed factorisation.
        self.design = qr.into_factors().into_data();
        Ok((VectorPolynomial::new(polys)?, error))
    }
}

impl VectorPolynomial {
    /// Fits one polynomial per quantity through the fit engine: equivalent to
    /// [`VectorPolynomial::fit`], but with a single QR factorisation shared
    /// by all five quantities and the workspace's cached plans and buffers.
    ///
    /// `points` are normalised coordinates; `summaries` are the measured
    /// statistics at those points.
    pub fn fit_with(
        ws: &mut FitWorkspace,
        points: &[Vec<f64>],
        summaries: &[Summary],
        degree: u32,
    ) -> Result<VectorPolynomial> {
        if points.len() != summaries.len() {
            return Err(ModelError::Fit(
                "points/summaries length mismatch".to_string(),
            ));
        }
        if points.is_empty() {
            return Err(ModelError::Fit("0 points but 0 values".to_string()));
        }
        let dim = points[0].len();
        if points.iter().any(|p| p.len() != dim) {
            return Err(ModelError::Fit(
                "design_matrix: inconsistent point dimension".to_string(),
            ));
        }
        let m = points.len();
        ws.points.clear();
        ws.points.reserve(m * dim);
        for p in points {
            ws.points.extend_from_slice(p);
        }
        ws.load_values(summaries.iter().copied(), m);
        ws.fit_prepared(dim, m, degree).map(|(vp, _)| vp)
    }
}

impl RegionModel {
    /// Fits a region model through the fit engine: equivalent to
    /// [`RegionModel::fit`] (samples outside the region are ignored), but
    /// with one QR factorisation, cached monomial plans, reused buffers and
    /// the fit error taken from the `A·c` predictions.
    ///
    /// `points` and `summaries` are parallel slices of raw sample points and
    /// their measured statistics.
    pub fn fit_with(
        ws: &mut FitWorkspace,
        region: Region,
        points: &[Vec<usize>],
        summaries: &[Summary],
        degree: u32,
    ) -> Result<RegionModel> {
        let m = prepare_region(ws, &region, points, summaries)?;
        let (poly, error) = ws.fit_prepared(region.dim(), m, degree)?;
        Ok(RegionModel {
            region,
            poly,
            error,
            samples_used: m,
            revision: 0,
        })
    }

    /// [`RegionModel::fit_with`] with the Modeler's degree fallback folded
    /// in: if the requested degree cannot be fitted (typically too few
    /// distinct samples in a fringe region), the fit is retried at degree 0
    /// on the **already filtered and normalised** buffers instead of
    /// re-preparing the sample set from scratch.
    ///
    /// Errors only when no sample lies inside the region (the constant fit
    /// succeeds with a single sample).
    pub fn fit_with_fallback(
        ws: &mut FitWorkspace,
        region: Region,
        points: &[Vec<usize>],
        summaries: &[Summary],
        degree: u32,
    ) -> Result<RegionModel> {
        let m = prepare_region(ws, &region, points, summaries)?;
        let dim = region.dim();
        let (poly, error) = match ws.fit_prepared(dim, m, degree) {
            Ok(fit) => fit,
            Err(_) => ws.fit_prepared(dim, m, 0)?,
        };
        Ok(RegionModel {
            region,
            poly,
            error,
            samples_used: m,
            revision: 0,
        })
    }
}

/// Filters the samples to the region and loads normalised coordinates and
/// quantity values into the workspace buffers; returns the in-region count.
fn prepare_region(
    ws: &mut FitWorkspace,
    region: &Region,
    points: &[Vec<usize>],
    summaries: &[Summary],
) -> Result<usize> {
    if points.len() != summaries.len() {
        return Err(ModelError::Fit(
            "points/summaries length mismatch".to_string(),
        ));
    }
    ws.points.clear();
    let mut kept = std::mem::take(&mut ws.kept);
    kept.clear();
    for (p, s) in points.iter().zip(summaries) {
        if !region.contains(p) {
            continue;
        }
        // Same arithmetic as `Region::normalize`, written into the flat buffer.
        for (d, &pd) in p.iter().enumerate() {
            let extent = region.extent(d);
            ws.points.push(if extent == 0 {
                0.0
            } else {
                (pd as f64 - region.lo()[d] as f64) / extent as f64
            });
        }
        kept.push(*s);
    }
    let m = kept.len();
    if m == 0 {
        ws.kept = kept;
        return Err(ModelError::NotEnoughSamples { have: 0, need: 1 });
    }
    ws.load_values(kept.iter().copied(), m);
    ws.kept = kept;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn grid(region: &Region, per_dim: usize) -> (Vec<Vec<usize>>, Vec<Summary>) {
        let points = region.sample_grid(per_dim, 8);
        let summaries = points.iter().map(|p| fake_summary(p)).collect();
        (points, summaries)
    }

    #[test]
    fn engine_fit_matches_reference_fit() {
        let region = Region::new(vec![8, 8], vec![512, 512]);
        let (points, summaries) = grid(&region, 5);
        let pairs: Vec<(Vec<usize>, Summary)> = points
            .iter()
            .cloned()
            .zip(summaries.iter().copied())
            .collect();
        let reference = RegionModel::fit(region.clone(), &pairs, 2).unwrap();
        let mut ws = FitWorkspace::new();
        let engine = RegionModel::fit_with(&mut ws, region, &points, &summaries, 2).unwrap();
        assert_eq!(engine.samples_used, reference.samples_used);
        assert!((engine.error - reference.error).abs() < 1e-12);
        for (pe, pr) in engine
            .poly
            .polynomials()
            .iter()
            .zip(reference.poly.polynomials())
        {
            assert_eq!(pe.exponents(), pr.exponents());
            for (a, b) in pe.coefficients().iter().zip(pr.coefficients()) {
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn workspace_is_reusable_across_shapes() {
        let mut ws = FitWorkspace::new();
        for (lo, hi, per_dim, degree) in [
            (vec![8usize, 8], vec![512usize, 512], 5, 2),
            (vec![8], vec![1024], 6, 2),
            (vec![8, 8, 8], vec![128, 128, 128], 3, 1),
            (vec![8, 8], vec![512, 512], 4, 0),
        ] {
            let region = Region::new(lo, hi);
            let (points, summaries) = grid(&region, per_dim);
            let model =
                RegionModel::fit_with(&mut ws, region, &points, &summaries, degree).unwrap();
            assert!(model.error.is_finite());
        }
        // (2, 2), (1, 2), (3, 1), (2, 0): four distinct plans.
        assert_eq!(ws.cached_plans(), 4);
    }

    #[test]
    fn fallback_fits_constant_when_samples_are_scarce() {
        let region = Region::new(vec![8, 8], vec![24, 24]);
        let points = vec![vec![8, 8], vec![16, 16], vec![24, 24]];
        let summaries: Vec<Summary> = points.iter().map(|p| fake_summary(p)).collect();
        let mut ws = FitWorkspace::new();
        // 3 samples < 6 monomials: the direct fit fails, ...
        assert!(matches!(
            RegionModel::fit_with(&mut ws, region.clone(), &points, &summaries, 2),
            Err(ModelError::NotEnoughSamples { have: 3, need: 6 })
        ));
        // ... the folded fallback succeeds at degree 0.
        let model =
            RegionModel::fit_with_fallback(&mut ws, region, &points, &summaries, 2).unwrap();
        assert_eq!(model.poly.polynomials()[0].term_count(), 1);
        assert_eq!(model.samples_used, 3);
    }

    #[test]
    fn fallback_requires_at_least_one_in_region_sample() {
        let region = Region::new(vec![8], vec![64]);
        let mut ws = FitWorkspace::new();
        assert!(matches!(
            RegionModel::fit_with_fallback(
                &mut ws,
                region,
                &[vec![512]],
                &[Summary::exact(1.0)],
                2
            ),
            Err(ModelError::NotEnoughSamples { have: 0, need: 1 })
        ));
    }

    #[test]
    fn vector_fit_with_validates_input() {
        let mut ws = FitWorkspace::new();
        assert!(VectorPolynomial::fit_with(&mut ws, &[], &[], 1).is_err());
        assert!(VectorPolynomial::fit_with(
            &mut ws,
            &[vec![0.0]],
            &[Summary::exact(1.0), Summary::exact(2.0)],
            1
        )
        .is_err());
        assert!(VectorPolynomial::fit_with(
            &mut ws,
            &[vec![0.0], vec![0.5, 0.5]],
            &[Summary::exact(1.0), Summary::exact(2.0)],
            0
        )
        .is_err());
    }

    #[test]
    fn zero_dimensional_constant_fit_matches_reference() {
        // Dim-0 points (a constant fit with no parameters) worked on the
        // reference path before the engine existed; both paths must agree.
        let points = vec![vec![], vec![], vec![]];
        let summaries = vec![
            Summary::exact(2.0),
            Summary::exact(4.0),
            Summary::exact(6.0),
        ];
        let reference = VectorPolynomial::fit(&points, &summaries, 2).unwrap();
        let mut ws = FitWorkspace::new();
        let engine = VectorPolynomial::fit_with(&mut ws, &points, &summaries, 2).unwrap();
        assert_eq!(reference, engine);
        assert_eq!(engine.polynomials()[0].coefficients(), &[4.0]);
    }
}
