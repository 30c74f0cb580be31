//! Deterministic test-matrix generators.
//!
//! All generators are seeded, so correctness tests, the native executor and the
//! figure-regeneration binaries are reproducible run to run.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::Matrix;

/// A deterministic generator of dense test matrices.
#[derive(Debug, Clone)]
pub struct MatrixGenerator {
    rng: SmallRng,
}

impl MatrixGenerator {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        MatrixGenerator {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A general `rows x cols` matrix with entries uniform in `[-1, 1)`.
    pub fn general(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m.set(i, j, self.rng.gen_range(-1.0..1.0));
            }
        }
        m
    }

    /// A well-conditioned lower-triangular matrix.
    ///
    /// The strict lower part is uniform in `[-0.5, 0.5)` scaled by `1/n`, and
    /// the diagonal is pushed away from zero (`|d| in [1, 2)`), which keeps the
    /// condition number of the triangular inversion workloads modest so the
    /// blocked variants can be validated to tight tolerances.
    pub fn lower_triangular(&mut self, n: usize, unit_diag: bool) -> Matrix {
        let scale = 1.0 / (n.max(1) as f64);
        let mut m = Matrix::zeros(n, n);
        for j in 0..n {
            for i in (j + 1)..n {
                m.set(i, j, self.rng.gen_range(-0.5..0.5) * scale);
            }
            let d = if unit_diag {
                1.0
            } else {
                let sign = if self.rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                sign * self.rng.gen_range(1.0..2.0)
            };
            m.set(j, j, d);
        }
        m
    }

    /// A well-conditioned upper-triangular matrix (transpose of a lower one).
    pub fn upper_triangular(&mut self, n: usize, unit_diag: bool) -> Matrix {
        self.lower_triangular(n, unit_diag).transposed()
    }

    /// A vector with entries uniform in `[-1, 1)`.
    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.rng.gen_range(-1.0..1.0)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{invert_lower_triangular, matmul};

    #[test]
    fn determinism() {
        let a = MatrixGenerator::new(7).general(5, 4);
        let b = MatrixGenerator::new(7).general(5, 4);
        assert!(a.approx_eq(&b, 0.0));
        let c = MatrixGenerator::new(8).general(5, 4);
        assert!(!a.approx_eq(&c, 0.0));
    }

    #[test]
    fn lower_triangular_structure() {
        let l = MatrixGenerator::new(1).lower_triangular(8, false);
        for j in 0..8 {
            for i in 0..j {
                assert_eq!(l[(i, j)], 0.0, "({i},{j}) must be zero");
            }
            assert!(l[(j, j)].abs() >= 1.0);
        }
        let lu = MatrixGenerator::new(2).lower_triangular(8, true);
        for j in 0..8 {
            assert_eq!(lu[(j, j)], 1.0);
        }
    }

    #[test]
    fn upper_triangular_structure() {
        let u = MatrixGenerator::new(3).upper_triangular(6, false);
        for j in 0..6 {
            for i in (j + 1)..6 {
                assert_eq!(u[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn generated_triangular_is_well_conditioned() {
        let l = MatrixGenerator::new(11).lower_triangular(64, false);
        let inv = invert_lower_triangular(&l, false).unwrap();
        let prod = matmul(1.0, &l, &inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(64), 1e-9));
    }

    #[test]
    fn vector_length_and_range() {
        let v = MatrixGenerator::new(4).vector(100);
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
    }
}
