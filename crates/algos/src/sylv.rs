//! Blocked solution of the triangular Sylvester equation `L X + X U = C`.
//!
//! `L` is lower triangular (`m x m`), `U` is upper triangular (`n x n`) and
//! `X` (`m x n`) holds `C` on entry and the solution on exit.
//!
//! The paper generates sixteen blocked algorithmic variants with CL1CK; they
//! differ in how the matrices are traversed and where the update GEMMs and the
//! recursive solves happen, which splits them into a small group of fast,
//! GEMM-rich variants and a large group of slow variants that push most of
//! their work through low-efficiency panel solves.  This module reproduces
//! that structure with a systematically parameterised family: each variant
//! is defined by four binary choices —
//!
//! * the order in which the row panel and the column panel of each diagonal
//!   step are processed,
//! * whether updates are applied **eagerly** (propagated to the trailing
//!   matrix right after each step) or **lazily** (accumulated right before a
//!   block is solved),
//! * whether the **row panels** are solved block by block (GEMM-rich, fast) or
//!   as a single unblocked panel solve (slow), and
//! * the same choice for the **column panels**.
//!
//! With the numbering used here the four variants whose panels are both
//! solved block by block are variants 1, 2, 5 and 6 — the same indices the
//! paper reports as the fast group.

use dla_blas::{dgemm, dsylv_unb, Call, Trans};
use dla_mat::{Matrix, Rect};

/// One of the sixteen blocked Sylvester variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SylvVariant {
    id: usize,
}

impl SylvVariant {
    /// Creates a variant from its 1-based index (1..=16).
    pub fn new(id: usize) -> Option<SylvVariant> {
        if (1..=16).contains(&id) {
            Some(SylvVariant { id })
        } else {
            None
        }
    }

    /// All sixteen variants in index order.
    pub fn all() -> Vec<SylvVariant> {
        (1..=16).map(|id| SylvVariant { id }).collect()
    }

    /// The 1-based variant index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Human-readable name ("variant 7").
    pub fn name(&self) -> String {
        format!("variant {}", self.id)
    }

    fn bits(&self) -> (bool, bool, bool, bool) {
        let v = self.id - 1;
        (v & 1 != 0, v & 2 != 0, v & 4 != 0, v & 8 != 0)
    }

    /// Whether the column panel is processed before the row panel.
    pub fn column_panel_first(&self) -> bool {
        self.bits().0
    }

    /// Whether the row panels are solved with a single unblocked panel solve.
    pub fn row_panel_unblocked(&self) -> bool {
        self.bits().1
    }

    /// Whether updates are propagated eagerly to the trailing matrix.
    pub fn eager(&self) -> bool {
        self.bits().2
    }

    /// Whether the column panels are solved with a single unblocked panel solve.
    pub fn column_panel_unblocked(&self) -> bool {
        self.bits().3
    }

    /// Variants whose panels are both processed block by block route almost
    /// all of their work through `dgemm` and form the fast group.
    pub fn is_gemm_rich(&self) -> bool {
        !self.row_panel_unblocked() && !self.column_panel_unblocked()
    }
}

/// The operations a blocked Sylvester variant performs.
///
/// All operands are identified by rectangular blocks of the three matrices:
/// `L` blocks in the first argument of [`SylvCtx::gemm_lx`], `U` blocks in the
/// second argument of [`SylvCtx::gemm_xu`], and `X` blocks everywhere else.
pub trait SylvCtx {
    /// `X[c] <- X[c] + alpha * L[a] * X[b]`.
    fn gemm_lx(&mut self, alpha: f64, a: Rect, b: Rect, c: Rect);
    /// `X[c] <- X[c] + alpha * X[a] * U[b]`.
    fn gemm_xu(&mut self, alpha: f64, a: Rect, b: Rect, c: Rect);
    /// Solves `L[l] * X[x] + X[x] * U[u] = X[x]` in place (unblocked kernel).
    fn solve(&mut self, l: Rect, u: Rect, x: Rect);
}

/// Partitions a dimension of length `total` into blocks of size `b` (the last
/// block may be smaller); returns `(start, len)` pairs.
fn blocks(total: usize, b: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < total {
        let len = b.min(total - start);
        out.push((start, len));
        start += len;
    }
    out
}

/// Contiguous span covering blocks `i0..i1` of a partition.
fn span(partition: &[(usize, usize)], i0: usize, i1: usize) -> (usize, usize) {
    if i0 >= i1 {
        let start = partition.get(i0).map(|&(s, _)| s).unwrap_or(0);
        return (start, 0);
    }
    let start = partition[i0].0;
    let end = partition[i1 - 1].0 + partition[i1 - 1].1;
    (start, end - start)
}

/// Runs one blocked variant, issuing its updates to the context.
pub fn sylv_blocked<C: SylvCtx>(variant: SylvVariant, ctx: &mut C, m: usize, n: usize, b: usize) {
    let b = b.max(1);
    let rb = blocks(m, b);
    let cb = blocks(n, b);
    let (mm, nn) = (rb.len(), cb.len());
    let kk = mm.min(nn);
    let eager = variant.eager();

    // Rect constructors: L is indexed by row blocks in both dimensions, U by
    // column blocks in both dimensions, X by row blocks x column blocks.
    let l_rect = |r0: usize, r1: usize, c0: usize, c1: usize| {
        let (rs, rl) = span(&rb, r0, r1);
        let (cs, cl) = span(&rb, c0, c1);
        Rect::new(rs, cs, rl, cl)
    };
    let u_rect = |r0: usize, r1: usize, c0: usize, c1: usize| {
        let (rs, rl) = span(&cb, r0, r1);
        let (cs, cl) = span(&cb, c0, c1);
        Rect::new(rs, cs, rl, cl)
    };
    let x_rect = |r0: usize, r1: usize, c0: usize, c1: usize| {
        let (rs, rl) = span(&rb, r0, r1);
        let (cs, cl) = span(&cb, c0, c1);
        Rect::new(rs, cs, rl, cl)
    };
    let nonempty = |r: &Rect| !r.is_empty();

    let gemm_lx = |ctx: &mut C, a: Rect, x: Rect, c: Rect| {
        if nonempty(&a) && nonempty(&x) && nonempty(&c) {
            ctx.gemm_lx(-1.0, a, x, c);
        }
    };
    let gemm_xu = |ctx: &mut C, x: Rect, u: Rect, c: Rect| {
        if nonempty(&x) && nonempty(&u) && nonempty(&c) {
            ctx.gemm_xu(-1.0, x, u, c);
        }
    };

    for k in 0..kk {
        // --- diagonal block X_kk ---
        if !eager && k > 0 {
            gemm_lx(
                ctx,
                l_rect(k, k + 1, 0, k),
                x_rect(0, k, k, k + 1),
                x_rect(k, k + 1, k, k + 1),
            );
            gemm_xu(
                ctx,
                x_rect(k, k + 1, 0, k),
                u_rect(0, k, k, k + 1),
                x_rect(k, k + 1, k, k + 1),
            );
        }
        ctx.solve(
            l_rect(k, k + 1, k, k + 1),
            u_rect(k, k + 1, k, k + 1),
            x_rect(k, k + 1, k, k + 1),
        );

        // --- the two panels of this step ---
        let row_panel = |ctx: &mut C| {
            if k + 1 >= nn {
                return;
            }
            if variant.row_panel_unblocked() {
                let panel = x_rect(k, k + 1, k + 1, nn);
                if eager {
                    ctx.gemm_xu(
                        -1.0,
                        x_rect(k, k + 1, k, k + 1),
                        u_rect(k, k + 1, k + 1, nn),
                        panel,
                    );
                } else {
                    if k > 0 {
                        ctx.gemm_lx(-1.0, l_rect(k, k + 1, 0, k), x_rect(0, k, k + 1, nn), panel);
                    }
                    ctx.gemm_xu(
                        -1.0,
                        x_rect(k, k + 1, 0, k + 1),
                        u_rect(0, k + 1, k + 1, nn),
                        panel,
                    );
                }
                ctx.solve(
                    l_rect(k, k + 1, k, k + 1),
                    u_rect(k + 1, nn, k + 1, nn),
                    panel,
                );
            } else {
                for j in (k + 1)..nn {
                    let target = x_rect(k, k + 1, j, j + 1);
                    if eager {
                        ctx.gemm_xu(-1.0, x_rect(k, k + 1, k, j), u_rect(k, j, j, j + 1), target);
                    } else {
                        if k > 0 {
                            ctx.gemm_lx(
                                -1.0,
                                l_rect(k, k + 1, 0, k),
                                x_rect(0, k, j, j + 1),
                                target,
                            );
                        }
                        ctx.gemm_xu(-1.0, x_rect(k, k + 1, 0, j), u_rect(0, j, j, j + 1), target);
                    }
                    ctx.solve(
                        l_rect(k, k + 1, k, k + 1),
                        u_rect(j, j + 1, j, j + 1),
                        target,
                    );
                }
            }
        };
        let col_panel = |ctx: &mut C| {
            if k + 1 >= mm {
                return;
            }
            if variant.column_panel_unblocked() {
                let panel = x_rect(k + 1, mm, k, k + 1);
                if eager {
                    ctx.gemm_lx(
                        -1.0,
                        l_rect(k + 1, mm, k, k + 1),
                        x_rect(k, k + 1, k, k + 1),
                        panel,
                    );
                } else {
                    ctx.gemm_lx(
                        -1.0,
                        l_rect(k + 1, mm, 0, k + 1),
                        x_rect(0, k + 1, k, k + 1),
                        panel,
                    );
                    if k > 0 {
                        ctx.gemm_xu(-1.0, x_rect(k + 1, mm, 0, k), u_rect(0, k, k, k + 1), panel);
                    }
                }
                ctx.solve(
                    l_rect(k + 1, mm, k + 1, mm),
                    u_rect(k, k + 1, k, k + 1),
                    panel,
                );
            } else {
                for i in (k + 1)..mm {
                    let target = x_rect(i, i + 1, k, k + 1);
                    if eager {
                        ctx.gemm_lx(-1.0, l_rect(i, i + 1, k, i), x_rect(k, i, k, k + 1), target);
                    } else {
                        ctx.gemm_lx(-1.0, l_rect(i, i + 1, 0, i), x_rect(0, i, k, k + 1), target);
                        if k > 0 {
                            ctx.gemm_xu(
                                -1.0,
                                x_rect(i, i + 1, 0, k),
                                u_rect(0, k, k, k + 1),
                                target,
                            );
                        }
                    }
                    ctx.solve(
                        l_rect(i, i + 1, i, i + 1),
                        u_rect(k, k + 1, k, k + 1),
                        target,
                    );
                }
            }
        };
        if variant.column_panel_first() {
            col_panel(ctx);
            row_panel(ctx);
        } else {
            row_panel(ctx);
            col_panel(ctx);
        }

        // --- eager trailing update ---
        if eager && k + 1 < mm && k + 1 < nn {
            let trailing = x_rect(k + 1, mm, k + 1, nn);
            gemm_lx(
                ctx,
                l_rect(k + 1, mm, k, k + 1),
                x_rect(k, k + 1, k + 1, nn),
                trailing,
            );
            gemm_xu(
                ctx,
                x_rect(k + 1, mm, k, k + 1),
                u_rect(k, k + 1, k + 1, nn),
                trailing,
            );
        }
    }
}

/// Compute context: applies the updates to real matrices.
pub struct SylvCompute<'a> {
    l: &'a Matrix,
    u: &'a Matrix,
    x: &'a mut Matrix,
}

impl<'a> SylvCompute<'a> {
    /// Wraps the three operands; `x` holds `C` on entry and the solution on
    /// exit.
    pub fn new(l: &'a Matrix, u: &'a Matrix, x: &'a mut Matrix) -> Self {
        assert!(l.is_square(), "L must be square");
        assert!(u.is_square(), "U must be square");
        assert_eq!(l.rows(), x.rows(), "L order must equal X rows");
        assert_eq!(u.rows(), x.cols(), "U order must equal X cols");
        SylvCompute { l, u, x }
    }
}

impl SylvCtx for SylvCompute<'_> {
    fn gemm_lx(&mut self, alpha: f64, a: Rect, b: Rect, c: Rect) {
        let (c_view, refs) = self
            .x
            .split_one_mut(c, &[b])
            // lint: allow(unwrap): the blocked algorithm's partitioning makes target and source blocks disjoint by construction
            .expect("gemm_lx: target block overlaps source block");
        // lint: allow(unwrap): partition rectangles are within the operand by construction
        let a_view = self.l.block(a).expect("gemm_lx: L block out of bounds");
        dgemm(
            Trans::NoTrans,
            Trans::NoTrans,
            alpha,
            a_view,
            refs[0],
            1.0,
            c_view,
        );
    }

    fn gemm_xu(&mut self, alpha: f64, a: Rect, b: Rect, c: Rect) {
        let (c_view, refs) = self
            .x
            .split_one_mut(c, &[a])
            // lint: allow(unwrap): the blocked algorithm's partitioning makes target and source blocks disjoint by construction
            .expect("gemm_xu: target block overlaps source block");
        // lint: allow(unwrap): partition rectangles are within the operand by construction
        let b_view = self.u.block(b).expect("gemm_xu: U block out of bounds");
        dgemm(
            Trans::NoTrans,
            Trans::NoTrans,
            alpha,
            refs[0],
            b_view,
            1.0,
            c_view,
        );
    }

    fn solve(&mut self, l: Rect, u: Rect, x: Rect) {
        // lint: allow(unwrap): partition rectangles are within the operand by construction
        let l_view = self.l.block(l).expect("solve: L block out of bounds");
        // lint: allow(unwrap): partition rectangles are within the operand by construction
        let u_view = self.u.block(u).expect("solve: U block out of bounds");
        // lint: allow(unwrap): partition rectangles are within the operand by construction
        let x_view = self.x.block_mut(x).expect("solve: X block out of bounds");
        dsylv_unb(l_view, u_view, x_view);
    }
}

/// Trace context: records the call sequence without executing it.
pub struct SylvTrace {
    ld: usize,
    calls: Vec<Call>,
}

impl SylvTrace {
    /// Creates a trace recorder; `ld` is the leading dimension reported for
    /// every operand.
    pub fn new(ld: usize) -> Self {
        SylvTrace {
            ld: ld.max(1),
            calls: Vec::new(),
        }
    }

    /// The recorded calls.
    pub fn into_calls(self) -> Vec<Call> {
        self.calls
    }
}

impl SylvCtx for SylvTrace {
    fn gemm_lx(&mut self, alpha: f64, a: Rect, b: Rect, c: Rect) {
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

    fn gemm_xu(&mut self, alpha: f64, a: Rect, b: Rect, c: Rect) {
        let _ = a;
        self.calls.push(Call::Gemm {
            transa: Trans::NoTrans,
            transb: Trans::NoTrans,
            m: c.rows,
            n: c.cols,
            k: b.rows,
            alpha,
            beta: 1.0,
            lda: self.ld,
            ldb: self.ld,
            ldc: self.ld,
        });
    }

    fn solve(&mut self, l: Rect, u: Rect, x: Rect) {
        let _ = (l, u);
        self.calls.push(Call::SylvUnb {
            m: x.rows,
            n: x.cols,
            ldl: self.ld,
            ldu: self.ld,
            ldx: self.ld,
        });
    }
}

/// Solves `L X + X U = C` in place (`x` holds `C` on entry) with the given
/// blocked variant and block size.
pub fn sylv_compute(
    variant: SylvVariant,
    l: &Matrix,
    u: &Matrix,
    x: &mut Matrix,
    block_size: usize,
) {
    let (m, n) = (x.rows(), x.cols());
    let mut ctx = SylvCompute::new(l, u, x);
    sylv_blocked(variant, &mut ctx, m, n, block_size);
}

/// Returns the call trace of running the given variant on an `m x n` problem.
pub fn sylv_trace(
    variant: SylvVariant,
    m: usize,
    n: usize,
    block_size: usize,
    ld: usize,
) -> Vec<Call> {
    let mut ctx = SylvTrace::new(ld);
    sylv_blocked(variant, &mut ctx, m, n, block_size);
    ctx.into_calls()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_blas::flops::{sylv_flops, trace_flops};
    use dla_blas::Routine;
    use dla_mat::gen::MatrixGenerator;
    use dla_mat::ops::{add, matmul, sub};

    fn residual(l: &Matrix, u: &Matrix, x: &Matrix, c: &Matrix) -> f64 {
        let lx = matmul(1.0, l, x).unwrap();
        let xu = matmul(1.0, x, u).unwrap();
        let sum = add(&lx, &xu).unwrap();
        sub(&sum, c).unwrap().max_abs()
    }

    #[test]
    fn all_sixteen_variants_solve_square_problems() {
        let mut g = MatrixGenerator::new(200);
        for &(m, n, b) in &[(48usize, 48usize, 16usize), (60, 60, 24), (33, 33, 8)] {
            let l = g.lower_triangular(m, false);
            let u = g.upper_triangular(n, false);
            let c = g.general(m, n);
            for variant in SylvVariant::all() {
                let mut x = c.clone();
                sylv_compute(variant, &l, &u, &mut x, b);
                let r = residual(&l, &u, &x, &c);
                assert!(
                    r < 1e-8,
                    "{} m={m} n={n} b={b}: residual {r}",
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn rectangular_problems_are_solved() {
        let mut g = MatrixGenerator::new(201);
        for &(m, n) in &[(40usize, 72usize), (72, 40), (25, 10), (10, 25)] {
            let l = g.lower_triangular(m, false);
            let u = g.upper_triangular(n, false);
            let c = g.general(m, n);
            for variant in SylvVariant::all() {
                let mut x = c.clone();
                sylv_compute(variant, &l, &u, &mut x, 16);
                let r = residual(&l, &u, &x, &c);
                assert!(r < 1e-8, "{} m={m} n={n}: residual {r}", variant.name());
            }
        }
    }

    #[test]
    fn block_size_larger_than_problem_reduces_to_unblocked() {
        let mut g = MatrixGenerator::new(202);
        let l = g.lower_triangular(12, false);
        let u = g.upper_triangular(12, false);
        let c = g.general(12, 12);
        let mut x = c.clone();
        sylv_compute(SylvVariant::new(1).unwrap(), &l, &u, &mut x, 100);
        assert!(residual(&l, &u, &x, &c) < 1e-10);
        let trace = sylv_trace(SylvVariant::new(1).unwrap(), 12, 12, 100, 12);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].routine(), Routine::SylvUnb);
    }

    #[test]
    fn variant_ids_and_classification() {
        assert!(SylvVariant::new(0).is_none());
        assert!(SylvVariant::new(17).is_none());
        assert_eq!(SylvVariant::all().len(), 16);
        let fast: Vec<usize> = SylvVariant::all()
            .into_iter()
            .filter(|v| v.is_gemm_rich())
            .map(|v| v.id())
            .collect();
        assert_eq!(
            fast,
            vec![1, 2, 5, 6],
            "fast group must match the paper's indices"
        );
    }

    #[test]
    fn gemm_rich_variants_route_work_through_gemm() {
        let (m, n, b) = (480, 480, 96);
        for variant in SylvVariant::all() {
            let trace = sylv_trace(variant, m, n, b, m);
            let total = trace_flops(&trace);
            let sylv_share: f64 = trace
                .iter()
                .filter(|c| c.routine() == Routine::SylvUnb)
                .map(|c| c.flops())
                .sum::<f64>()
                / total;
            if variant.is_gemm_rich() {
                assert!(
                    sylv_share < 0.22,
                    "{}: unblocked share {sylv_share}",
                    variant.name()
                );
            } else {
                assert!(
                    sylv_share > 0.25,
                    "{}: unblocked share {sylv_share}",
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn total_flops_stay_close_to_the_minimal_count() {
        let (m, n, b) = (480, 480, 96);
        let minimal = sylv_flops(m, n);
        for variant in SylvVariant::all() {
            let total = trace_flops(&sylv_trace(variant, m, n, b, m));
            assert!(
                total > 0.8 * minimal && total < 2.5 * minimal,
                "{}: {total} vs minimal {minimal}",
                variant.name()
            );
        }
    }

    #[test]
    fn trace_and_compute_follow_the_same_control_flow() {
        struct Counter(usize);
        impl SylvCtx for Counter {
            fn gemm_lx(&mut self, _: f64, _: Rect, _: Rect, _: Rect) {
                self.0 += 1;
            }
            fn gemm_xu(&mut self, _: f64, _: Rect, _: Rect, _: Rect) {
                self.0 += 1;
            }
            fn solve(&mut self, _: Rect, _: Rect, _: Rect) {
                self.0 += 1;
            }
        }
        for variant in SylvVariant::all() {
            let mut counter = Counter(0);
            sylv_blocked(variant, &mut counter, 300, 300, 64);
            let trace = sylv_trace(variant, 300, 300, 64, 300);
            assert_eq!(counter.0, trace.len(), "{}", variant.name());
        }
    }

    #[test]
    fn eager_and_lazy_variants_differ_in_call_shapes_not_solutions() {
        let mut g = MatrixGenerator::new(203);
        let l = g.lower_triangular(64, false);
        let u = g.upper_triangular(64, false);
        let c = g.general(64, 64);
        let lazy = SylvVariant::new(1).unwrap();
        let eager = SylvVariant::new(5).unwrap();
        assert!(!lazy.eager());
        assert!(eager.eager());
        let mut x1 = c.clone();
        let mut x2 = c.clone();
        sylv_compute(lazy, &l, &u, &mut x1, 16);
        sylv_compute(eager, &l, &u, &mut x2, 16);
        assert!(x1.approx_eq(&x2, 1e-8));
        let t1 = sylv_trace(lazy, 64, 64, 16, 64);
        let t2 = sylv_trace(eager, 64, 64, 16, 64);
        assert_ne!(t1, t2);
    }
}
