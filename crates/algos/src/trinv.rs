//! Blocked inversion of a lower-triangular matrix (`L <- L^-1`).
//!
//! The four algorithmic variants are taken verbatim from the paper
//! (Section IV-A).  At every step the matrix is partitioned as
//!
//! ```text
//!       | L00  0    0   |
//!   L = | L10  L11  0   |        L00: j x j   (already processed)
//!       | L20  L21  L22 |        L11: b' x b' (current block, b' = min(b, n - j))
//! ```
//!
//! and a variant-specific sequence of updates is applied, followed by the
//! inversion of the diagonal block with the unblocked kernel.

use dla_blas::inplace::{dgemm_blocks, dtrmm_blocks, dtrsm_blocks, dtrtri_block};
use dla_blas::{Call, Diag, Side, Trans, Uplo};
use dla_mat::{Matrix, Rect};

/// The four blocked triangular-inversion variants of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrinvVariant {
    /// Variant 1: works on the `L10` panel with `dtrmm`/`dtrsm`.
    V1,
    /// Variant 2: works on the `L21` panel with two `dtrsm`s (one against the
    /// large trailing triangle `L22`).
    V2,
    /// Variant 3: gemm-rich variant (the fastest on the Harpertown setup).
    V3,
    /// Variant 4: touches `L22`, `L20` and `L00` every iteration and performs
    /// roughly 2.5x the minimal operation count (the slowest variant).
    V4,
}

impl TrinvVariant {
    /// All variants in paper order.
    pub const ALL: [TrinvVariant; 4] = [
        TrinvVariant::V1,
        TrinvVariant::V2,
        TrinvVariant::V3,
        TrinvVariant::V4,
    ];

    /// 1-based variant number as used in the paper's figures.
    pub fn id(&self) -> usize {
        match self {
            TrinvVariant::V1 => 1,
            TrinvVariant::V2 => 2,
            TrinvVariant::V3 => 3,
            TrinvVariant::V4 => 4,
        }
    }

    /// Human-readable name ("variant 3").
    pub fn name(&self) -> String {
        format!("variant {}", self.id())
    }
}

/// The operations a blocked triangular-inversion variant performs, expressed
/// over blocks of the single matrix being inverted.
///
/// All triangular operands are lower triangular, non-transposed and non-unit;
/// `gemm` always accumulates into the target block (`beta = 1`).
pub trait TrinvCtx {
    /// `B <- alpha * op(tri) * B` (side = Left) or `B <- alpha * B * op(tri)`.
    fn trmm(&mut self, side: Side, alpha: f64, tri: Rect, b: Rect);
    /// `B <- alpha * tri^-1 * B` (side = Left) or `B <- alpha * B * tri^-1`.
    fn trsm(&mut self, side: Side, alpha: f64, tri: Rect, b: Rect);
    /// `C <- alpha * A * B + C`.
    fn gemm(&mut self, alpha: f64, a: Rect, b: Rect, c: Rect);
    /// In-place unblocked inversion of the triangular block `a`.
    fn trtri(&mut self, a: Rect);
}

/// Runs one blocked variant over an `n x n` matrix with block size `b`,
/// issuing its updates to the context.
pub fn trinv_blocked<C: TrinvCtx>(variant: TrinvVariant, ctx: &mut C, n: usize, b: usize) {
    let b = b.max(1);
    let mut j = 0;
    while j < n {
        let bp = b.min(n - j);
        let r = n - j - bp;
        let l00 = Rect::new(0, 0, j, j);
        let l10 = Rect::new(j, 0, bp, j);
        let l11 = Rect::new(j, j, bp, bp);
        let l20 = Rect::new(j + bp, 0, r, j);
        let l21 = Rect::new(j + bp, j, r, bp);
        let l22 = Rect::new(j + bp, j + bp, r, r);
        match variant {
            TrinvVariant::V1 => {
                ctx.trmm(Side::Right, 1.0, l00, l10);
                ctx.trsm(Side::Left, -1.0, l11, l10);
                ctx.trtri(l11);
            }
            TrinvVariant::V2 => {
                ctx.trsm(Side::Left, 1.0, l22, l21);
                ctx.trsm(Side::Right, -1.0, l11, l21);
                ctx.trtri(l11);
            }
            TrinvVariant::V3 => {
                ctx.trsm(Side::Right, -1.0, l11, l21);
                ctx.gemm(1.0, l21, l10, l20);
                ctx.trsm(Side::Left, 1.0, l11, l10);
                ctx.trtri(l11);
            }
            TrinvVariant::V4 => {
                ctx.trsm(Side::Left, -1.0, l22, l21);
                ctx.gemm(-1.0, l21, l10, l20);
                ctx.trmm(Side::Right, 1.0, l00, l10);
                ctx.trtri(l11);
            }
        }
        j += bp;
    }
}

/// Compute context: applies the updates in place on a real matrix.
pub struct TrinvCompute<'a> {
    l: &'a mut Matrix,
}

impl<'a> TrinvCompute<'a> {
    /// Wraps a lower-triangular matrix for in-place inversion.
    pub fn new(l: &'a mut Matrix) -> Self {
        assert!(l.is_square(), "trinv operates on square matrices");
        TrinvCompute { l }
    }
}

impl TrinvCtx for TrinvCompute<'_> {
    fn trmm(&mut self, side: Side, alpha: f64, tri: Rect, b: Rect) {
        if b.is_empty() || tri.is_empty() {
            return;
        }
        dtrmm_blocks(
            self.l,
            side,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            alpha,
            tri,
            b,
        );
    }

    fn trsm(&mut self, side: Side, alpha: f64, tri: Rect, b: Rect) {
        if b.is_empty() || tri.is_empty() {
            return;
        }
        dtrsm_blocks(
            self.l,
            side,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            alpha,
            tri,
            b,
        );
    }

    fn gemm(&mut self, alpha: f64, a: Rect, b: Rect, c: Rect) {
        if a.is_empty() || b.is_empty() || c.is_empty() {
            return;
        }
        dgemm_blocks(self.l, Trans::NoTrans, Trans::NoTrans, alpha, a, b, 1.0, c);
    }

    fn trtri(&mut self, a: Rect) {
        if a.is_empty() {
            return;
        }
        dtrtri_block(self.l, Uplo::Lower, Diag::NonUnit, a);
    }
}

/// Trace context: records the call sequence without executing it.
pub struct TrinvTrace {
    ld: usize,
    calls: Vec<Call>,
}

impl TrinvTrace {
    /// Creates a trace recorder; `ld` is the leading dimension reported in the
    /// recorded calls (the full matrix order, as in the paper's example trace).
    pub fn new(ld: usize) -> Self {
        TrinvTrace {
            ld: ld.max(1),
            calls: Vec::new(),
        }
    }

    /// The recorded calls.
    pub fn into_calls(self) -> Vec<Call> {
        self.calls
    }
}

impl TrinvCtx for TrinvTrace {
    fn trmm(&mut self, side: Side, alpha: f64, tri: Rect, b: Rect) {
        let _ = tri;
        self.calls.push(Call::Trmm {
            side,
            uplo: Uplo::Lower,
            transa: Trans::NoTrans,
            diag: Diag::NonUnit,
            m: b.rows,
            n: b.cols,
            alpha,
            lda: self.ld,
            ldb: self.ld,
        });
    }

    fn trsm(&mut self, side: Side, alpha: f64, tri: Rect, b: Rect) {
        let _ = tri;
        self.calls.push(Call::Trsm {
            side,
            uplo: Uplo::Lower,
            transa: Trans::NoTrans,
            diag: Diag::NonUnit,
            m: b.rows,
            n: b.cols,
            alpha,
            lda: self.ld,
            ldb: self.ld,
        });
    }

    fn gemm(&mut self, alpha: f64, a: Rect, b: Rect, c: Rect) {
        let _ = b;
        self.calls.push(Call::Gemm {
            transa: Trans::NoTrans,
            transb: Trans::NoTrans,
            m: c.rows,
            n: c.cols,
            k: a.cols,
            alpha,
            beta: 1.0,
            lda: self.ld,
            ldb: self.ld,
            ldc: self.ld,
        });
    }

    fn trtri(&mut self, a: Rect) {
        self.calls.push(Call::TrtriUnb {
            uplo: Uplo::Lower,
            diag: Diag::NonUnit,
            n: a.rows,
            lda: self.ld,
        });
    }
}

/// Inverts the lower-triangular matrix `l` in place using the given blocked
/// variant and block size.
pub fn trinv_compute(variant: TrinvVariant, l: &mut Matrix, block_size: usize) {
    let n = l.rows();
    let mut ctx = TrinvCompute::new(l);
    trinv_blocked(variant, &mut ctx, n, block_size);
}

/// Returns the call trace of running the given variant on an `n x n` matrix
/// with leading dimension `ld` and the given block size.
pub fn trinv_trace(variant: TrinvVariant, n: usize, block_size: usize, ld: usize) -> Vec<Call> {
    let mut ctx = TrinvTrace::new(ld);
    trinv_blocked(variant, &mut ctx, n, block_size);
    ctx.into_calls()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_blas::flops::{trace_flops, trinv_useful_flops};
    use dla_blas::Routine;
    use dla_mat::gen::MatrixGenerator;
    use dla_mat::ops::{invert_lower_triangular, lower_triangular};

    #[test]
    fn all_variants_invert_correctly() {
        let mut g = MatrixGenerator::new(100);
        for &n in &[1usize, 7, 16, 33, 96, 150] {
            for &b in &[4usize, 8, 32, 96] {
                let l = g.lower_triangular(n, false);
                let reference = invert_lower_triangular(&l, false).unwrap();
                for variant in TrinvVariant::ALL {
                    let mut work = l.clone();
                    trinv_compute(variant, &mut work, b);
                    let result = lower_triangular(&work, false).unwrap();
                    let diff = result.max_abs_diff(&reference);
                    assert!(
                        diff < 1e-8,
                        "{} n={n} b={b}: max diff {diff}",
                        variant.name()
                    );
                }
            }
        }
    }

    #[test]
    fn variant_ids_roundtrip() {
        for (i, v) in TrinvVariant::ALL.into_iter().enumerate() {
            assert_eq!(v.id(), i + 1);
        }
        assert_eq!(TrinvVariant::V3.name(), "variant 3");
    }

    #[test]
    fn traces_have_expected_structure() {
        // The paper lists the trace of variant 1 for n = 250, b = 100:
        // 3 iterations x (dtrmm, dtrsm, unblocked inversion).
        let calls = trinv_trace(TrinvVariant::V1, 250, 100, 250);
        assert_eq!(calls.len(), 9);
        assert_eq!(calls[0].routine(), Routine::Trmm);
        assert_eq!(calls[1].routine(), Routine::Trsm);
        assert_eq!(calls[2].routine(), Routine::TrtriUnb);
        // First iteration: L10 is 100 x 0 (empty), last iteration blocks are 50 wide.
        assert_eq!(calls[0].sizes(), vec![100, 0]);
        assert_eq!(calls[6].sizes(), vec![50, 200]);
        assert_eq!(calls[8].sizes(), vec![50]);
        // Leading dimensions are the full matrix order.
        assert!(calls
            .iter()
            .all(|c| c.leading_dims().iter().all(|&ld| ld == 250)));
    }

    #[test]
    fn variant_flop_counts_match_expectations() {
        let n = 960;
        let b = 96;
        let useful = trinv_useful_flops(n);
        let flops: Vec<f64> = TrinvVariant::ALL
            .iter()
            .map(|&v| trace_flops(&trinv_trace(v, n, b, n)))
            .collect();
        // Variants 1-3 perform close to the minimal operation count ...
        for (i, &f) in flops.iter().enumerate().take(3) {
            assert!(
                f < 1.6 * useful && f > 0.7 * useful,
                "variant {} flops {f} vs useful {useful}",
                i + 1
            );
        }
        // ... while variant 4 performs roughly 2-3x more work.
        assert!(
            flops[3] > 2.0 * useful && flops[3] < 3.5 * useful,
            "variant 4 flops {} vs useful {useful}",
            flops[3]
        );
    }

    #[test]
    fn variant3_is_gemm_dominated() {
        let calls = trinv_trace(TrinvVariant::V3, 960, 96, 960);
        let gemm_flops: f64 = calls
            .iter()
            .filter(|c| c.routine() == Routine::Gemm)
            .map(|c| c.flops())
            .sum();
        let total = trace_flops(&calls);
        assert!(
            gemm_flops / total > 0.6,
            "gemm share {}",
            gemm_flops / total
        );
        // Variant 1 contains no gemm at all.
        let v1 = trinv_trace(TrinvVariant::V1, 960, 96, 960);
        assert!(v1.iter().all(|c| c.routine() != Routine::Gemm));
    }

    #[test]
    fn block_size_larger_than_matrix_degenerates_to_unblocked() {
        let calls = trinv_trace(TrinvVariant::V1, 64, 96, 64);
        // Single iteration: trmm (empty), trsm (empty), trtri of the whole matrix.
        assert_eq!(calls.len(), 3);
        assert_eq!(calls[2].sizes(), vec![64]);
        let mut g = MatrixGenerator::new(101);
        let l = g.lower_triangular(20, false);
        let mut work = l.clone();
        trinv_compute(TrinvVariant::V2, &mut work, 50);
        let reference = invert_lower_triangular(&l, false).unwrap();
        assert!(lower_triangular(&work, false)
            .unwrap()
            .approx_eq(&reference, 1e-9));
    }

    #[test]
    fn compute_and_trace_issue_the_same_number_of_operations() {
        // A counting context verifies trace generation and computation follow
        // the same control flow.
        struct Counter(usize);
        impl TrinvCtx for Counter {
            fn trmm(&mut self, _: Side, _: f64, _: Rect, _: Rect) {
                self.0 += 1;
            }
            fn trsm(&mut self, _: Side, _: f64, _: Rect, _: Rect) {
                self.0 += 1;
            }
            fn gemm(&mut self, _: f64, _: Rect, _: Rect, _: Rect) {
                self.0 += 1;
            }
            fn trtri(&mut self, _: Rect) {
                self.0 += 1;
            }
        }
        for variant in TrinvVariant::ALL {
            let mut counter = Counter(0);
            trinv_blocked(variant, &mut counter, 500, 64);
            let trace = trinv_trace(variant, 500, 64, 500);
            assert_eq!(counter.0, trace.len(), "{}", variant.name());
        }
    }
}
