//! Real execution of routine calls on synthetic operands.
//!
//! The simulated machine of `dla-machine` predicts ticks analytically; this
//! module provides the complementary *native* path: given a [`Call`], allocate
//! operands of the right shapes (triangular operands are well-conditioned so
//! repeated execution stays numerically sane), and run the corresponding
//! pure-Rust kernel.  The `NativeExecutor` wraps timing around
//! [`PreparedCall::run`].

use dla_mat::gen::MatrixGenerator;
use dla_mat::Matrix;

use crate::{dgemm, dsylv_unb, dtrmm, dtrsm, dtrtri_unb, Call, Diag, Side, Trans, Uplo};

/// A routine call together with allocated operands, ready to run repeatedly.
#[derive(Debug)]
pub struct PreparedCall {
    call: Call,
    kernel: Kernel,
    /// The operand the kernel overwrites (C, B, A or X).
    out: Matrix,
    /// Pristine copy of `out`, used by [`PreparedCall::reset`].
    pristine: Matrix,
}

/// The kernel a call runs, with its parameters and read-only operands: each
/// variant holds exactly the operands its routine reads.
#[derive(Debug)]
enum Kernel {
    Gemm {
        transa: Trans,
        transb: Trans,
        alpha: f64,
        beta: f64,
        a: Matrix,
        b: Matrix,
    },
    Trsm {
        side: Side,
        uplo: Uplo,
        transa: Trans,
        diag: Diag,
        alpha: f64,
        a: Matrix,
    },
    Trmm {
        side: Side,
        uplo: Uplo,
        transa: Trans,
        diag: Diag,
        alpha: f64,
        a: Matrix,
    },
    Trtri {
        uplo: Uplo,
        diag: Diag,
    },
    Sylv {
        l: Matrix,
        u: Matrix,
    },
}

impl PreparedCall {
    /// Allocates and initialises the operands of `call` deterministically from
    /// `seed`.
    pub fn new(call: &Call, seed: u64) -> PreparedCall {
        let mut g = MatrixGenerator::new(seed);
        let triangular = |g: &mut MatrixGenerator, uplo: Uplo, order: usize| match uplo {
            Uplo::Lower => g.lower_triangular(order, false),
            Uplo::Upper => g.upper_triangular(order, false),
        };
        let (kernel, out) = match *call {
            Call::Gemm {
                transa,
                transb,
                m,
                n,
                k,
                alpha,
                beta,
                ..
            } => {
                let a = match transa {
                    Trans::NoTrans => g.general(m, k),
                    Trans::Trans => g.general(k, m),
                };
                let b = match transb {
                    Trans::NoTrans => g.general(k, n),
                    Trans::Trans => g.general(n, k),
                };
                let kernel = Kernel::Gemm {
                    transa,
                    transb,
                    alpha,
                    beta,
                    a,
                    b,
                };
                (kernel, g.general(m, n))
            }
            Call::Trsm {
                side,
                uplo,
                transa,
                diag,
                m,
                n,
                alpha,
                ..
            }
            | Call::Trmm {
                side,
                uplo,
                transa,
                diag,
                m,
                n,
                alpha,
                ..
            } => {
                let order = match side {
                    Side::Left => m,
                    Side::Right => n,
                };
                let a = triangular(&mut g, uplo, order);
                let kernel = if matches!(call, Call::Trsm { .. }) {
                    Kernel::Trsm {
                        side,
                        uplo,
                        transa,
                        diag,
                        alpha,
                        a,
                    }
                } else {
                    Kernel::Trmm {
                        side,
                        uplo,
                        transa,
                        diag,
                        alpha,
                        a,
                    }
                };
                (kernel, g.general(m, n))
            }
            Call::TrtriUnb { uplo, diag, n, .. } => {
                (Kernel::Trtri { uplo, diag }, triangular(&mut g, uplo, n))
            }
            Call::SylvUnb { m, n, .. } => {
                let l = g.lower_triangular(m, false);
                let u = g.upper_triangular(n, false);
                (Kernel::Sylv { l, u }, g.general(m, n))
            }
        };
        PreparedCall {
            call: call.clone(),
            kernel,
            pristine: out.clone(),
            out,
        }
    }

    /// The call this instance executes.
    pub fn call(&self) -> &Call {
        &self.call
    }

    /// Total size of the allocated operands in bytes.
    pub fn operand_bytes(&self) -> usize {
        let inputs = match &self.kernel {
            Kernel::Gemm { a, b, .. } => a.as_slice().len() + b.as_slice().len(),
            Kernel::Trsm { a, .. } | Kernel::Trmm { a, .. } => a.as_slice().len(),
            Kernel::Trtri { .. } => 0,
            Kernel::Sylv { l, u } => l.as_slice().len() + u.as_slice().len(),
        };
        (inputs + self.out.as_slice().len()) * std::mem::size_of::<f64>()
    }

    /// Restores the overwritten operand to its pristine contents so that
    /// repeated `run()` calls operate on identical data.
    pub fn reset(&mut self) {
        self.out
            .copy_from(&self.pristine)
            // lint: allow(unwrap): the pristine copy was cloned from `out` at construction
            .expect("pristine copy matches");
    }

    /// Executes the kernel once on the prepared operands.
    pub fn run(&mut self) {
        let out = self.out.as_mut();
        match &self.kernel {
            Kernel::Gemm {
                transa,
                transb,
                alpha,
                beta,
                a,
                b,
            } => dgemm(*transa, *transb, *alpha, a.as_ref(), b.as_ref(), *beta, out),
            Kernel::Trsm {
                side,
                uplo,
                transa,
                diag,
                alpha,
                a,
            } => dtrsm(*side, *uplo, *transa, *diag, *alpha, a.as_ref(), out),
            Kernel::Trmm {
                side,
                uplo,
                transa,
                diag,
                alpha,
                a,
            } => dtrmm(*side, *uplo, *transa, *diag, *alpha, a.as_ref(), out),
            Kernel::Trtri { uplo, diag } => dtrtri_unb(*uplo, *diag, out),
            Kernel::Sylv { l, u } => dsylv_unb(l.as_ref(), u.as_ref(), out),
        }
    }

    /// Convenience: reset then run.
    pub fn reset_and_run(&mut self) {
        self.reset();
        self.run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_gemm_runs_and_resets() {
        let call = Call::gemm(Trans::NoTrans, Trans::Trans, 12, 9, 7, 1.0, 0.5);
        let mut p = PreparedCall::new(&call, 1);
        assert_eq!(p.call(), &call);
        let before = p.out.clone();
        p.run();
        assert!(!p.out.approx_eq(&before, 1e-15));
        p.reset();
        assert!(p.out.approx_eq(&before, 0.0));
    }

    #[test]
    fn prepared_trsm_is_repeatable_after_reset() {
        let call = Call::trsm(
            Side::Right,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::Unit,
            32,
            16,
            0.37,
        );
        let mut p = PreparedCall::new(&call, 2);
        p.reset_and_run();
        let first = p.out.clone();
        p.reset_and_run();
        assert!(first.approx_eq(&p.out, 0.0));
    }

    #[test]
    fn prepared_trtri_inverts_in_place() {
        let call = Call::trtri_unb(Uplo::Lower, Diag::NonUnit, 24);
        let mut p = PreparedCall::new(&call, 3);
        let original = p.out.clone();
        p.run();
        assert!(!p.out.approx_eq(&original, 1e-15));
        p.reset();
        assert!(p.out.approx_eq(&original, 0.0));
    }

    #[test]
    fn prepared_sylv_runs() {
        let mut p = PreparedCall::new(&Call::sylv_unb(10, 14), 4);
        p.reset_and_run();
    }

    #[test]
    fn operand_bytes_accounts_for_all_operands() {
        let call = Call::gemm(Trans::NoTrans, Trans::NoTrans, 10, 10, 10, 1.0, 0.0);
        let p = PreparedCall::new(&call, 6);
        assert_eq!(p.operand_bytes(), 3 * 100 * 8);
        let call = Call::trtri_unb(Uplo::Lower, Diag::NonUnit, 10);
        let p = PreparedCall::new(&call, 7);
        assert_eq!(p.operand_bytes(), 100 * 8);
    }

    #[test]
    fn deterministic_operands_for_same_seed() {
        let call = Call::gemm(Trans::NoTrans, Trans::NoTrans, 5, 5, 5, 1.0, 0.0);
        let p1 = PreparedCall::new(&call, 42);
        let p2 = PreparedCall::new(&call, 42);
        assert!(p1.out.approx_eq(&p2.out, 0.0));
        let p3 = PreparedCall::new(&call, 43);
        assert!(!p1.out.approx_eq(&p3.out, 0.0));
    }
}
