//! Floating-point operation counts.
//!
//! These formulas convert a routine call (or a whole algorithm) into its
//! useful flop count, which the paper divides by `ticks * fips` to obtain the
//! `efficiency` metric.  The counts follow the standard LAPACK working notes
//! conventions: one multiply and one add each count as one flop.

use crate::{Call, Side};

/// Flop count of a general matrix multiply `C <- alpha op(A) op(B) + beta C`.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Flop count of a triangular solve with multiple right-hand sides.
pub fn trsm_flops(side: Side, m: usize, n: usize) -> f64 {
    match side {
        Side::Left => m as f64 * m as f64 * n as f64,
        Side::Right => m as f64 * n as f64 * n as f64,
    }
}

/// Flop count of a triangular matrix-matrix multiply.
pub fn trmm_flops(side: Side, m: usize, n: usize) -> f64 {
    trsm_flops(side, m, n)
}

/// Flop count of a symmetric rank-k update.
pub fn syrk_flops(n: usize, k: usize) -> f64 {
    n as f64 * (n as f64 + 1.0) * k as f64
}

/// Flop count of inverting a triangular matrix of order `n`.
pub fn trtri_flops(n: usize) -> f64 {
    let n = n as f64;
    n * n * n / 3.0 + 2.0 * n / 3.0
}

/// Flop count of the triangular Sylvester solve `L X + X U = C` with
/// `L` of order `m` and `U` of order `n`.
pub fn sylv_flops(m: usize, n: usize) -> f64 {
    let m = m as f64;
    let n = n as f64;
    m * n * (m + n)
}

/// The "useful" flop count of the triangular inversion workload, as used by
/// the paper's efficiency formula for `trinv` (Section IV-A):
/// `efficiency = (n^3/6 + n^2/2 + n/3) * 2 / ticks / fips` — i.e. the minimal
/// operation count of the operation itself, independent of the algorithmic
/// variant executed.
pub fn trinv_useful_flops(n: usize) -> f64 {
    let n = n as f64;
    2.0 * (n * n * n / 6.0 + n * n / 2.0 + n / 3.0)
}

/// The useful flop count of the triangular Sylvester workload, matching the
/// paper's `efficiency = (n^3 + n^2) / (2 ticks)` formula up to the `fips`
/// normalisation applied by the machine model.
pub fn sylv_useful_flops(m: usize, n: usize) -> f64 {
    let m = m as f64;
    let n = n as f64;
    0.5 * (m * n * (m + n) + m * n)
}

/// Flop count of an arbitrary [`Call`].
pub fn call_flops(call: &Call) -> f64 {
    match call {
        Call::Gemm { m, n, k, .. } => gemm_flops(*m, *n, *k),
        Call::Trsm { side, m, n, .. } => trsm_flops(*side, *m, *n),
        Call::Trmm { side, m, n, .. } => trmm_flops(*side, *m, *n),
        Call::Syrk { n, k, .. } => syrk_flops(*n, *k),
        Call::TrtriUnb { n, .. } => trtri_flops(*n),
        Call::SylvUnb { m, n, .. } => sylv_flops(*m, *n),
    }
}

/// Flop count of a whole trace (sequence of calls).
pub fn trace_flops(calls: &[Call]) -> f64 {
    calls.iter().map(call_flops).sum()
}

/// Returns `true` if the call performs no floating-point work (some algorithm
/// traces contain degenerate calls with a zero dimension in early iterations).
pub fn is_empty_call(call: &Call) -> bool {
    let (sizes, len) = call.sizes_fixed();
    sizes[..len].contains(&0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Diag, Trans, Uplo};

    #[test]
    fn gemm_flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48.0);
        assert_eq!(gemm_flops(0, 3, 4), 0.0);
    }

    #[test]
    fn trsm_flops_depends_on_side() {
        assert_eq!(trsm_flops(Side::Left, 10, 5), 500.0);
        assert_eq!(trsm_flops(Side::Right, 10, 5), 250.0);
        assert_eq!(trmm_flops(Side::Left, 10, 5), trsm_flops(Side::Left, 10, 5));
    }

    #[test]
    fn cubic_formulas_scale_correctly() {
        // Doubling n multiplies the cubic counts by ~8.
        let r1 = trtri_flops(100);
        let r2 = trtri_flops(200);
        assert!((r2 / r1 - 8.0).abs() < 0.1);
        let s1 = sylv_flops(100, 100);
        let s2 = sylv_flops(200, 200);
        assert!((s2 / s1 - 8.0).abs() < 0.01);
    }

    #[test]
    fn useful_flops_are_close_to_minimal_algorithm_cost() {
        // The sum of the per-call flops of an *efficient* trinv variant is
        // close to the useful count; variant 4 in the paper does ~3x more.
        let useful = trinv_useful_flops(1000);
        assert!(useful > 3.3e8 && useful < 3.4e8, "useful = {useful}");
        let sylv = sylv_useful_flops(1000, 1000);
        assert!(sylv > 1.0e9 && sylv < 1.01e9, "sylv = {sylv}");
    }

    #[test]
    fn call_flops_dispatch() {
        let c = Call::gemm(Trans::NoTrans, Trans::NoTrans, 8, 8, 8, 1.0, 0.0);
        assert_eq!(call_flops(&c), 1024.0);
        let c = Call::trtri_unb(Uplo::Lower, Diag::NonUnit, 10);
        assert!((call_flops(&c) - (1000.0 / 3.0 + 20.0 / 3.0)).abs() < 1e-9);
        let c = Call::sylv_unb(10, 20);
        assert_eq!(call_flops(&c), 6000.0);
        let c = Call::syrk(Uplo::Lower, Trans::NoTrans, 10, 4, 1.0, 0.0);
        assert_eq!(call_flops(&c), 440.0);
    }

    #[test]
    fn trace_flops_sums() {
        let calls = vec![
            Call::gemm(Trans::NoTrans, Trans::NoTrans, 2, 2, 2, 1.0, 0.0),
            Call::gemm(Trans::NoTrans, Trans::NoTrans, 3, 3, 3, 1.0, 0.0),
        ];
        assert_eq!(trace_flops(&calls), 16.0 + 54.0);
        assert_eq!(trace_flops(&[]), 0.0);
    }

    #[test]
    fn empty_call_detection() {
        let c = Call::gemm(Trans::NoTrans, Trans::NoTrans, 0, 5, 5, 1.0, 0.0);
        assert!(is_empty_call(&c));
        let c = Call::gemm(Trans::NoTrans, Trans::NoTrans, 5, 5, 5, 1.0, 0.0);
        assert!(!is_empty_call(&c));
    }
}
