//! Level-2 BLAS: the triangular matrix-vector kernels.
//!
//! `dtrsm` and `dtrmm` are built on them: they apply [`dtrsv`] or [`dtrmv`]
//! to one column or row of the right-hand side at a time.

use dla_mat::MatRef;

use crate::{Diag, Trans, Uplo};

/// Triangular solve `x <- op(A)^-1 x` with `A` triangular.
pub fn dtrsv(uplo: Uplo, trans: Trans, diag: Diag, a: MatRef<'_>, x: &mut [f64]) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "dtrsv: A must be square");
    assert_eq!(x.len(), n, "dtrsv: x length");
    let lower = matches!(uplo, Uplo::Lower);
    let forward = lower ^ matches!(trans, Trans::Trans);
    let idx: Vec<usize> = if forward {
        (0..n).collect()
    } else {
        (0..n).rev().collect()
    };
    for &i in &idx {
        let mut acc = x[i];
        match trans {
            Trans::NoTrans => {
                if lower {
                    for k in 0..i {
                        acc -= a.get(i, k) * x[k];
                    }
                } else {
                    for k in (i + 1)..n {
                        acc -= a.get(i, k) * x[k];
                    }
                }
            }
            Trans::Trans => {
                if lower {
                    for k in (i + 1)..n {
                        acc -= a.get(k, i) * x[k];
                    }
                } else {
                    for k in 0..i {
                        acc -= a.get(k, i) * x[k];
                    }
                }
            }
        }
        let d = match diag {
            Diag::Unit => 1.0,
            Diag::NonUnit => a.get(i, i),
        };
        x[i] = acc / d;
    }
}

/// Triangular matrix-vector product `x <- op(A) * x` with `A` triangular.
pub fn dtrmv(uplo: Uplo, trans: Trans, diag: Diag, a: MatRef<'_>, x: &mut [f64]) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "dtrmv: A must be square");
    assert_eq!(x.len(), n, "dtrmv: x length");
    let lower = matches!(uplo, Uplo::Lower);
    let out: Vec<f64> = (0..n)
        .map(|i| {
            let mut acc = 0.0;
            for k in 0..n {
                let aik = match trans {
                    Trans::NoTrans => {
                        let stored = if lower { i >= k } else { i <= k };
                        if !stored {
                            continue;
                        }
                        if i == k && matches!(diag, Diag::Unit) {
                            1.0
                        } else {
                            a.get(i, k)
                        }
                    }
                    Trans::Trans => {
                        let stored = if lower { k >= i } else { k <= i };
                        if !stored {
                            continue;
                        }
                        if i == k && matches!(diag, Diag::Unit) {
                            1.0
                        } else {
                            a.get(k, i)
                        }
                    }
                };
                acc += aik * x[k];
            }
            acc
        })
        .collect();
    x.copy_from_slice(&out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_mat::gen::MatrixGenerator;
    use dla_mat::ops;

    #[test]
    fn trsv_all_flag_combinations() {
        let mut g = MatrixGenerator::new(3);
        let n = 12;
        for uplo in Uplo::VALUES {
            for trans in Trans::VALUES {
                for diag in Diag::VALUES {
                    let tri = match uplo {
                        Uplo::Lower => g.lower_triangular(n, matches!(diag, Diag::Unit)),
                        Uplo::Upper => g.upper_triangular(n, matches!(diag, Diag::Unit)),
                    };
                    let x_true = g.vector(n);
                    // b = op(A) * x_true computed with the reference ops
                    let eff = match (uplo, diag) {
                        (Uplo::Lower, Diag::Unit) => ops::lower_triangular(&tri, true).unwrap(),
                        (Uplo::Lower, Diag::NonUnit) => tri.clone(),
                        (Uplo::Upper, Diag::Unit) => ops::upper_triangular(&tri, true).unwrap(),
                        (Uplo::Upper, Diag::NonUnit) => tri.clone(),
                    };
                    let op_a = match trans {
                        Trans::NoTrans => eff.clone(),
                        Trans::Trans => eff.transposed(),
                    };
                    let mut b = vec![0.0; n];
                    for i in 0..n {
                        for k in 0..n {
                            b[i] += op_a[(i, k)] * x_true[k];
                        }
                    }
                    let mut x = b.clone();
                    dtrsv(uplo, trans, diag, tri.as_ref(), &mut x);
                    for i in 0..n {
                        assert!(
                            (x[i] - x_true[i]).abs() < 1e-9,
                            "uplo={uplo:?} trans={trans:?} diag={diag:?} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trmv_all_flag_combinations() {
        let mut g = MatrixGenerator::new(4);
        let n = 9;
        for uplo in Uplo::VALUES {
            for trans in Trans::VALUES {
                for diag in Diag::VALUES {
                    let tri = match uplo {
                        Uplo::Lower => g.lower_triangular(n, false),
                        Uplo::Upper => g.upper_triangular(n, false),
                    };
                    let eff = match (uplo, diag) {
                        (Uplo::Lower, Diag::Unit) => ops::lower_triangular(&tri, true).unwrap(),
                        (Uplo::Lower, Diag::NonUnit) => tri.clone(),
                        (Uplo::Upper, Diag::Unit) => ops::upper_triangular(&tri, true).unwrap(),
                        (Uplo::Upper, Diag::NonUnit) => tri.clone(),
                    };
                    let op_a = match trans {
                        Trans::NoTrans => eff.clone(),
                        Trans::Trans => eff.transposed(),
                    };
                    let x0 = g.vector(n);
                    let mut expected = vec![0.0; n];
                    for i in 0..n {
                        for k in 0..n {
                            expected[i] += op_a[(i, k)] * x0[k];
                        }
                    }
                    let mut x = x0.clone();
                    dtrmv(uplo, trans, diag, tri.as_ref(), &mut x);
                    for i in 0..n {
                        assert!(
                            (x[i] - expected[i]).abs() < 1e-10,
                            "uplo={uplo:?} trans={trans:?} diag={diag:?} i={i}"
                        );
                    }
                }
            }
        }
    }
}
