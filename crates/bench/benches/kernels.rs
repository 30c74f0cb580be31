//! Benchmarks of the pure-Rust BLAS kernels.
//!
//! These measure the reproduction's own compute substrate (used by the native
//! executor and the correctness tests); the performance-modeling experiments
//! themselves run on the simulated machine and are regenerated by the `fig_*`
//! binaries.  Writes `BENCH_kernels.json`.

use std::error::Error;

use dla_bench::harness::Bench;
use dla_core::blas::{dgemm, dtrsm, dtrtri_unb, Diag, Side, Trans, Uplo};
use dla_core::mat::gen::MatrixGenerator;

fn main() -> Result<(), Box<dyn Error>> {
    let mut bench = Bench::new("kernels");
    for n in [64usize, 128, 256] {
        let mut g = MatrixGenerator::new(1);
        let a = g.general(n, n);
        let b = g.general(n, n);
        let mut out = g.general(n, n);
        bench.time(&format!("dgemm_square/{n}"), "blas", || {
            dgemm(
                Trans::NoTrans,
                Trans::NoTrans,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                out.as_mut(),
            )
        })?;
    }
    for n in [64usize, 128, 256] {
        let mut g = MatrixGenerator::new(3);
        let a = g.lower_triangular(n, false);
        let mut b = g.general(n, n);
        bench.time(&format!("dtrsm_left_lower/{n}"), "blas", || {
            dtrsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                1.0,
                a.as_ref(),
                b.as_mut(),
            )
        })?;
    }
    for n in [32usize, 96, 192] {
        let mut g = MatrixGenerator::new(4);
        let a = g.lower_triangular(n, false);
        bench.time_with_setup(
            &format!("dtrtri_unb/{n}"),
            "blas",
            || a.clone(),
            |mut work| dtrtri_unb(Uplo::Lower, Diag::NonUnit, work.as_mut()),
        )?;
    }
    Ok(bench.finish()?)
}
