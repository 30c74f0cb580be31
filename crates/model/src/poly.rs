//! Multivariate polynomials and least-squares fitting.

use std::sync::Arc;

use dla_mat::qr::{design_matrix, lstsq};
use dla_mat::stats::relative_error;

use crate::{ModelError, Result};

/// Generates the exponent tuples of all monomials in `dim` variables with
/// total degree at most `degree`, in graded lexicographic order.
///
/// The tuples are emitted directly in their final order — ascending total
/// degree, lexicographic within a degree — so no post-sort (with its
/// per-comparison key clone) is needed.
pub fn monomial_exponents(dim: usize, degree: u32) -> Vec<Vec<u32>> {
    /// Emits every composition of exactly `remaining` over the trailing
    /// `dim - current.len()` positions, in lexicographic order.
    fn rec(dim: usize, remaining: u32, current: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if current.len() + 1 == dim {
            // Last position takes the remainder: total degree is exact.
            current.push(remaining);
            out.push(current.clone());
            current.pop();
            return;
        }
        for e in 0..=remaining {
            current.push(e);
            rec(dim, remaining - e, current, out);
            current.pop();
        }
    }
    let mut all = Vec::new();
    if dim == 0 {
        all.push(Vec::new());
        return all;
    }
    let mut scratch = Vec::with_capacity(dim);
    for total in 0..=degree {
        rec(dim, total, &mut scratch, &mut all);
    }
    all
}

/// A multivariate polynomial `p(x) = sum_t c_t * prod_d x_d^{e_{t,d}}`.
///
/// The exponent table is shared behind an [`Arc`]: the five quantity
/// polynomials of one fit (and every clone of a fitted model) reference a
/// single monomial plan instead of deep-copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    dim: usize,
    exponents: Arc<Vec<Vec<u32>>>,
    coefficients: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from explicit monomials and coefficients.
    pub fn new(dim: usize, exponents: Vec<Vec<u32>>, coefficients: Vec<f64>) -> Result<Polynomial> {
        Polynomial::from_shared(dim, Arc::new(exponents), coefficients)
    }

    /// Creates a polynomial that shares an existing monomial plan (no copy of
    /// the exponent table — the fit engine hands the same plan to all five
    /// quantity polynomials).
    pub fn from_shared(
        dim: usize,
        exponents: Arc<Vec<Vec<u32>>>,
        coefficients: Vec<f64>,
    ) -> Result<Polynomial> {
        if exponents.len() != coefficients.len() {
            return Err(ModelError::Fit(format!(
                "{} exponent tuples but {} coefficients",
                exponents.len(),
                coefficients.len()
            )));
        }
        if exponents.iter().any(|e| e.len() != dim) {
            return Err(ModelError::Fit("exponent arity mismatch".to_string()));
        }
        Ok(Polynomial {
            dim,
            exponents,
            coefficients,
        })
    }

    /// The constant zero polynomial in `dim` variables.
    pub fn zero(dim: usize) -> Polynomial {
        Polynomial {
            dim,
            exponents: Arc::new(vec![vec![0; dim]]),
            coefficients: vec![0.0],
        }
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of monomial terms.
    pub fn term_count(&self) -> usize {
        self.coefficients.len()
    }

    /// The monomial exponents.
    pub fn exponents(&self) -> &[Vec<u32>] {
        &self.exponents
    }

    /// The coefficients, in the same order as [`Polynomial::exponents`].
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Evaluates the polynomial at `point`.
    ///
    /// Panics if the point has the wrong dimension.
    // lint: allow(panic-free): the arity assert is the documented contract and
    // bounds the indexing
    pub fn eval(&self, point: &[f64]) -> f64 {
        assert_eq!(point.len(), self.dim, "polynomial evaluated at wrong arity");
        let mut acc = 0.0;
        for (e, c) in self.exponents.iter().zip(self.coefficients.iter()) {
            let mut term = *c;
            for d in 0..self.dim {
                term *= point[d].powi(e[d] as i32);
            }
            acc += term;
        }
        acc
    }

    /// Fits a polynomial of total degree `degree` to the given samples by
    /// least squares.
    ///
    /// Returns an error when there are fewer samples than monomials.
    pub fn fit(points: &[Vec<f64>], values: &[f64], degree: u32) -> Result<Polynomial> {
        if points.is_empty() || points.len() != values.len() {
            return Err(ModelError::Fit(format!(
                "{} points but {} values",
                points.len(),
                values.len()
            )));
        }
        let dim = points[0].len();
        let exponents = monomial_exponents(dim, degree);
        if points.len() < exponents.len() {
            return Err(ModelError::NotEnoughSamples {
                have: points.len(),
                need: exponents.len(),
            });
        }
        let a = design_matrix(points, &exponents)
            .map_err(|e| ModelError::Fit(format!("design matrix: {e}")))?;
        let coeffs = lstsq(a, values).map_err(|e| ModelError::Fit(format!("lstsq: {e}")))?;
        Polynomial::new(dim, exponents, coeffs)
    }

    /// Maximum relative error of the polynomial over the given samples
    /// (the accuracy measure used by the Modeler).
    pub fn max_relative_error(&self, points: &[Vec<f64>], values: &[f64]) -> f64 {
        points
            .iter()
            .zip(values.iter())
            .map(|(p, &v)| relative_error(self.eval(p), v))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomials_1d() {
        let m = monomial_exponents(1, 2);
        assert_eq!(m, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(monomial_exponents(1, 0), vec![vec![0]]);
    }

    #[test]
    fn monomials_2d_quadratic() {
        let m = monomial_exponents(2, 2);
        // 1, x, y, x^2, xy, y^2
        assert_eq!(m.len(), 6);
        assert!(m.contains(&vec![0, 0]));
        assert!(m.contains(&vec![1, 1]));
        assert!(m.contains(&vec![2, 0]));
        assert!(m.contains(&vec![0, 2]));
        // graded order: constant first
        assert_eq!(m[0], vec![0, 0]);
    }

    #[test]
    fn monomials_3d_count() {
        // C(3+2, 2) = 10 monomials of total degree <= 2 in 3 variables
        assert_eq!(monomial_exponents(3, 2).len(), 10);
    }

    #[test]
    fn monomial_count_is_binomial() {
        // There are C(d + k, k) monomials of total degree <= k in d variables.
        fn binomial(n: u64, k: u64) -> u64 {
            (1..=k).fold(1, |acc, i| acc * (n - k + i) / i)
        }
        for dim in 1..=4usize {
            for degree in 0..=4u32 {
                let monomials = monomial_exponents(dim, degree);
                let expected = binomial((dim as u64) + u64::from(degree), u64::from(degree));
                assert_eq!(
                    monomials.len() as u64,
                    expected,
                    "dim {dim} degree {degree}"
                );
                // All distinct and within the degree bound.
                let mut unique = monomials.clone();
                unique.sort();
                unique.dedup();
                assert_eq!(unique.len(), monomials.len());
                assert!(monomials.iter().all(|e| e.iter().sum::<u32>() <= degree));
            }
        }
    }

    #[test]
    fn eval_simple_polynomial() {
        // p(x, y) = 2 + 3x + 4y^2
        let p = Polynomial::new(
            2,
            vec![vec![0, 0], vec![1, 0], vec![0, 2]],
            vec![2.0, 3.0, 4.0],
        )
        .unwrap();
        assert_eq!(p.eval(&[0.0, 0.0]), 2.0);
        assert_eq!(p.eval(&[1.0, 1.0]), 9.0);
        assert_eq!(p.eval(&[2.0, 3.0]), 2.0 + 6.0 + 36.0);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.term_count(), 3);
    }

    #[test]
    fn construction_errors() {
        assert!(Polynomial::new(2, vec![vec![0, 0]], vec![1.0, 2.0]).is_err());
        assert!(Polynomial::new(2, vec![vec![0]], vec![1.0]).is_err());
        let z = Polynomial::zero(3);
        assert_eq!(z.eval(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn fit_recovers_exact_quadratic() {
        // f(x, y) = 1 + 2x - y + 0.5x^2 + 0.25xy
        let f = |x: f64, y: f64| 1.0 + 2.0 * x - y + 0.5 * x * x + 0.25 * x * y;
        let mut points = Vec::new();
        let mut values = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let (x, y) = (i as f64 * 0.2, j as f64 * 0.2);
                points.push(vec![x, y]);
                values.push(f(x, y));
            }
        }
        let p = Polynomial::fit(&points, &values, 2).unwrap();
        assert!(p.max_relative_error(&points, &values) < 1e-9);
        assert!((p.eval(&[0.35, 0.77]) - f(0.35, 0.77)).abs() < 1e-9);
    }

    #[test]
    fn fit_reports_insufficient_samples() {
        let points = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let values = vec![1.0, 2.0];
        match Polynomial::fit(&points, &values, 2) {
            Err(ModelError::NotEnoughSamples { have, need }) => {
                assert_eq!(have, 2);
                assert_eq!(need, 6);
            }
            other => panic!("expected NotEnoughSamples, got {other:?}"),
        }
        assert!(Polynomial::fit(&[], &[], 2).is_err());
        assert!(Polynomial::fit(&points, &values[..1], 1).is_err());
    }

    #[test]
    fn error_metrics() {
        // constant polynomial fitted to noisy constant data
        let points: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let values: Vec<f64> = (0..10).map(|i| if i == 5 { 1.2 } else { 1.0 }).collect();
        let p = Polynomial::fit(&points, &values, 0).unwrap();
        let max_err = p.max_relative_error(&points, &values);
        assert!(max_err > 0.1 && max_err < 0.2, "max_err = {max_err}");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn eval_wrong_arity_panics() {
        let p = Polynomial::zero(2);
        let _ = p.eval(&[1.0]);
    }
}
