//! The compiled evaluation engine: constant-time region lookup and fused,
//! zero-allocation polynomial evaluation.
//!
//! [`PiecewiseModel::eval`] is the *reference* implementation: it scans every
//! region linearly, heap-allocates the normalised coordinates per call, and
//! re-computes monomial powers for each of the five quantity polynomials.
//! That is fine for one-off queries, but rankings and block-size sweeps
//! evaluate models thousands of times per request, so the cold path itself
//! has to be fast.  This module compiles a repository **once** — at build or
//! hot-swap time — into a form that answers point queries without allocating:
//!
//! * **Fused polynomials**: the five quantity polynomials of a
//!   [`VectorPolynomial`] share one monomial plan; each monomial is computed
//!   once per point from per-dimension power ladders (no `powi`) and feeds
//!   five fused dot products against an SoA coefficient matrix.  Evaluation
//!   dispatches once on the dimension into a kernel specialised for it,
//!   whose coordinates and ladders are fixed-size arrays.
//! * **Region index** ([`CompiledPiecewise`]): refinement regions stem from
//!   axis-aligned splits, so their boundaries induce per-dimension sorted cut
//!   arrays that divide the space into a grid of cells.  Every cell
//!   precomputes its best (minimum-error) containing region, or is marked
//!   uncovered.  A per-dimension table maps every coordinate between the
//!   first and the last cut straight to its cell's offset in the cell table,
//!   so locating a point is one table load per dimension.  A point in an
//!   uncovered cell or outside the cut range is answered by the nearest
//!   region, found by scanning every region.  The cut arrays, cell table and
//!   locate tables are derived when a model is compiled; none of them is
//!   serialised.
//! * **Zero-allocation path**: normalised coordinates live in fixed scratch
//!   ([`MAX_DIM`]), submodel lookup uses the fixed-size
//!   [`FlagKey`](crate::FlagKey), and [`CompiledRepository::resolve`]
//!   pre-resolves machine/locality into a [`RoutineTable`] so the per-call
//!   path performs no hashing and no string comparison.
//! * **Cell ids**: [`CompiledRepository::compile`] numbers every region of
//!   the repository once, densely from 0: models in key order, then
//!   submodels in flag-key order, then regions in source order.  The traced
//!   evaluation ([`CompiledRoutineModel::estimate_traced`]) reports the
//!   answering region by that id, and [`CompiledRepository::cells`] maps an
//!   id back to its routine, submodel key and source region, so the serving
//!   layer's telemetry is one counter array indexed by it.
//!
//! Shapes the fast path cannot represent (dimension above [`MAX_DIM`],
//! exponents beyond the power ladder, a cell table or locate table beyond
//! 2^18 entries) are served by the reference implementation, so compiled
//! evaluation is always *available*, merely not always accelerated.
//! Equivalence between the two implementations is enforced by property
//! tests (`crates/core/tests/eval_equivalence.rs`).
//!
//! Every query is a point query: there is no separate batch kernel.  Batch
//! callers (`dla-predict`'s batched trace path) evaluate each distinct call
//! once through [`CompiledRoutineModel::estimate_parts`], which takes the
//! submodel key and sizes they already extracted, so a call is decoded
//! once.

// The compile-time builders below are index-heavy loops over fixed-size
// arrays; iterator rewrites obscure the per-dimension structure (same policy
// as the kernel crates).
#![allow(clippy::needless_range_loop)]

use std::cmp::Ordering;
use std::sync::Arc;

use dla_blas::{Call, Routine};
use dla_machine::Locality;
use dla_mat::stats::Summary;

use crate::piecewise::error_order;
use crate::routine_model::{decode_call, FlagKey};
use crate::{
    ModelError, ModelKey, ModelRepository, PiecewiseModel, Region, RegionModel, Result,
    RoutineModel, VectorPolynomial,
};

/// Dimensionality bound of the zero-allocation scratch buffers (the modelled
/// routines have at most 3 integer parameters).
pub const MAX_DIM: usize = 4;

/// Largest monomial exponent the power ladder supports; polynomials with
/// higher exponents fall back to the reference evaluator.
pub(crate) const MAX_EXP: usize = 7;

// The kernel reads ladder entry `e & MAX_EXP`: for the validated exponents
// `e <= MAX_EXP` that is `e`, and it is in bounds for any byte.
const _: () = assert!((MAX_EXP + 1).is_power_of_two());

/// Upper bound on the size of a cell table, and on the summed coordinate
/// span of the per-dimension locate tables; a model whose index would be
/// larger is not compiled, and the reference evaluator serves it.
const CELL_CAP: usize = 1 << 18;

/// The cell-table entry of a cell no region covers.  It is no region's
/// index, so looking it up in the region list finds nothing.
const UNCOVERED: u32 = u32::MAX;

/// The dimension of a compiled model, `1..=MAX_DIM`: evaluation dispatches
/// on it once into a kernel specialised for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arity {
    One = 1,
    Two,
    Three,
    Four,
}

const _: () = assert!(Arity::Four as usize == MAX_DIM);

impl Arity {
    fn new(dim: usize) -> Option<Arity> {
        match dim {
            1 => Some(Arity::One),
            2 => Some(Arity::Two),
            3 => Some(Arity::Three),
            4 => Some(Arity::Four),
            _ => None,
        }
    }
}

/// The five quantity polynomials of a [`VectorPolynomial`] compiled into one
/// shared monomial plan with an SoA coefficient matrix.
#[derive(Debug, Clone, PartialEq)]
struct CompiledVectorPolynomial {
    arity: Arity,
    /// Term-major exponent matrix, `term_count * dim` entries, each at most
    /// [`MAX_EXP`].
    exponents: Vec<u8>,
    /// Term-major coefficient matrix, `term_count * 5` entries; column `q`
    /// holds the coefficient of quantity `q` (zero where a quantity's
    /// polynomial lacks the term).
    coefficients: Vec<f64>,
    /// Per-dimension largest exponent (power-ladder length).
    max_exp: [u8; MAX_DIM],
}

impl CompiledVectorPolynomial {
    /// Compiles a vector polynomial; `None` when the shape does not fit the
    /// fast path (wrong arity, dimension above [`MAX_DIM`], exponent above
    /// the ladder bound).
    fn compile(vp: &VectorPolynomial, dim: usize) -> Option<CompiledVectorPolynomial> {
        let arity = Arity::new(dim)?;
        // The shared plan: union of the five exponent lists, first-seen order
        // (the polynomials of one fit share the same basis, so the common
        // case is plan == basis of the first polynomial).
        let mut plan: Vec<&[u32]> = Vec::new();
        for poly in vp.polynomials() {
            if poly.dim() != dim {
                return None;
            }
            for e in poly.exponents() {
                if e.iter().any(|&x| x as usize > MAX_EXP) {
                    return None;
                }
                if !plan.contains(&e.as_slice()) {
                    plan.push(e);
                }
            }
        }
        let term_count = plan.len();
        let mut exponents = Vec::with_capacity(term_count * dim);
        let mut max_exp = [0u8; MAX_DIM];
        for e in &plan {
            for (d, &x) in e.iter().enumerate() {
                exponents.push(x as u8);
                max_exp[d] = max_exp[d].max(x as u8);
            }
        }
        let mut coefficients = vec![0.0; term_count * 5];
        for (q, poly) in vp.polynomials().iter().enumerate() {
            for (e, &c) in poly.exponents().iter().zip(poly.coefficients()) {
                let t = plan
                    .iter()
                    .position(|p| *p == e.as_slice())
                    // lint: allow(unwrap): the plan was built from the union of these exact exponent tuples
                    .expect("every exponent tuple is in the plan");
                // `+=`, not `=`: duplicate tuples within one polynomial sum,
                // matching the reference evaluator.
                coefficients[t * 5 + q] += c;
            }
        }
        Some(CompiledVectorPolynomial {
            arity,
            exponents,
            coefficients,
            max_exp,
        })
    }

    /// The fused kernel for `D` equal to the polynomial's dimension: all
    /// five quantities at a normalised point, with the same non-negativity
    /// clamp and NaN preservation as [`VectorPolynomial::eval`].  One power
    /// ladder per dimension, then one basis product and five multiply-adds
    /// per term, in term order.
    #[inline(always)]
    fn kernel<const D: usize>(&self, x: &[f64; D]) -> [f64; 5] {
        // lint: hot-path begin
        // Power ladders: pows[d][e] = x[d]^e, built with one multiply per
        // entry instead of a `powi` per term and quantity.
        let mut pows = [[1.0f64; MAX_EXP + 1]; D];
        for ((ladder, &xd), &top) in pows.iter_mut().zip(x).zip(&self.max_exp) {
            let mut p = 1.0;
            for (slot, _) in ladder.iter_mut().skip(1).zip(0..top) {
                p *= xd;
                *slot = p;
            }
        }
        let mut acc = [0.0f64; 5];
        let terms = self.exponents.chunks_exact(D);
        for (exps, coeffs) in terms.zip(self.coefficients.chunks_exact(5)) {
            let mut basis = 1.0;
            for (ladder, &e) in pows.iter().zip(exps) {
                // Exponents are validated <= MAX_EXP, so the mask keeps `e`
                // and lets the bounds check fold away.
                if let Some(&power) = ladder.get(usize::from(e) & MAX_EXP) {
                    basis *= power;
                }
            }
            for (a, &c) in acc.iter_mut().zip(coeffs) {
                *a += c * basis;
            }
        }
        for v in &mut acc {
            if !v.is_nan() {
                *v = v.max(0.0);
            }
        }
        // lint: hot-path end
        acc
    }
}

/// One region with precomputed bounds and its compiled polynomial.
#[derive(Debug, Clone, PartialEq)]
struct CompiledRegion {
    lo: [usize; MAX_DIM],
    hi: [usize; MAX_DIM],
    lo_f: [f64; MAX_DIM],
    hi_f: [f64; MAX_DIM],
    extent_f: [f64; MAX_DIM],
    error: f64,
    poly: CompiledVectorPolynomial,
}

impl CompiledRegion {
    fn compile(region: &Region, poly: CompiledVectorPolynomial, error: f64) -> CompiledRegion {
        let dim = region.dim();
        let mut r = CompiledRegion {
            lo: [0; MAX_DIM],
            hi: [0; MAX_DIM],
            lo_f: [0.0; MAX_DIM],
            hi_f: [0.0; MAX_DIM],
            extent_f: [0.0; MAX_DIM],
            error,
            poly,
        };
        for d in 0..dim {
            r.lo[d] = region.lo()[d];
            r.hi[d] = region.hi()[d];
            r.lo_f[d] = region.lo()[d] as f64;
            r.hi_f[d] = region.hi()[d] as f64;
            r.extent_f[d] = region.extent(d) as f64;
        }
        r
    }

    /// Same arithmetic as the reference `region_distance`.  The point holds
    /// exactly the region's dimension of coordinates (checked at the public
    /// entry).
    #[inline]
    fn distance(&self, point: &[usize]) -> f64 {
        let mut acc = 0.0;
        let bounds = self.lo_f.iter().zip(&self.hi_f);
        for (&p, (&lo, &hi)) in point.iter().zip(bounds) {
            let p = p as f64;
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

    /// Normalises (same arithmetic as [`Region::normalize`]) and evaluates
    /// the fused polynomial on the kernel of the region's dimension.  The
    /// point holds exactly that many coordinates (checked at the public
    /// entry).
    #[inline]
    fn eval(&self, point: &[usize]) -> Summary {
        let quantities = match self.poly.arity {
            Arity::One => self.eval_dim::<1>(point),
            Arity::Two => self.eval_dim::<2>(point),
            Arity::Three => self.eval_dim::<3>(point),
            Arity::Four => self.eval_dim::<4>(point),
        };
        Summary::from_quantities(&quantities)
    }

    #[inline(always)]
    fn eval_dim<const D: usize>(&self, point: &[usize]) -> [f64; 5] {
        // lint: hot-path begin
        let mut x = [0.0f64; D];
        let frame = self.lo_f.iter().zip(&self.extent_f);
        for ((x, &p), (&lo, &extent)) in x.iter_mut().zip(point).zip(frame) {
            *x = if extent == 0.0 {
                0.0
            } else {
                (p as f64 - lo) / extent
            };
        }
        let quantities = self.poly.kernel(&x);
        // lint: hot-path end
        quantities
    }
}

/// One dimension's slice of a [`CompiledPiecewise`]'s locate tables: for
/// every coordinate `p` in `first..first + span` (from the first cut up to,
/// excluding, the last), entry `start + (p - first)` is `i * stride`, where
/// `i` is the index along this dimension of the cell holding `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Axis {
    first: usize,
    span: usize,
    start: usize,
}

/// A [`PiecewiseModel`] compiled into an indexed, allocation-free evaluator.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPiecewise {
    dim: usize,
    regions: Vec<CompiledRegion>,
    /// Per-dimension sorted cut coordinates; cell `i` along dimension `d`
    /// spans `[cuts[d][i], cuts[d][i + 1] - 1]`.
    cuts: Vec<Vec<usize>>,
    /// Row-major cell table: each cell's precomputed best region, or
    /// [`UNCOVERED`].
    cells: Vec<u32>,
    strides: [usize; MAX_DIM],
    /// The per-dimension locate tables, back to back: `axes[d]` delimits
    /// dimension `d`'s.  Derived from `cuts` and `strides` (never
    /// serialised).
    offsets: Vec<u32>,
    axes: [Axis; MAX_DIM],
}

/// The summed coordinate span of the cut arrays, `Σ_d (last − first)`: the
/// length of the locate tables.  `None` on overflow.
fn coordinate_span(cuts: &[Vec<usize>]) -> Option<usize> {
    cuts.iter().try_fold(0usize, |acc, c| {
        acc.checked_add(c.last()?.checked_sub(*c.first()?)?)
    })
}

/// Row-major strides of the cell grid: the last dimension is contiguous.
fn cell_strides(cuts: &[Vec<usize>]) -> [usize; MAX_DIM] {
    let mut strides = [0usize; MAX_DIM];
    let mut stride = 1;
    for d in (0..cuts.len()).rev() {
        strides[d] = stride;
        stride *= cuts[d].len() - 1;
    }
    strides
}

/// Builds the locate tables from ascending cut arrays whose cell grid and
/// coordinate span both fit [`CELL_CAP`] (so every entry fits a `u32`).
fn locate_tables(cuts: &[Vec<usize>], strides: &[usize; MAX_DIM]) -> (Vec<u32>, [Axis; MAX_DIM]) {
    let mut offsets = Vec::with_capacity(coordinate_span(cuts).unwrap_or(0));
    let mut axes = [Axis::default(); MAX_DIM];
    for ((axis, c), &stride) in axes.iter_mut().zip(cuts).zip(strides) {
        let start = offsets.len();
        for (i, w) in c.windows(2).enumerate() {
            offsets.extend(std::iter::repeat_n((i * stride) as u32, w[1] - w[0]));
        }
        *axis = Axis {
            first: c[0],
            span: offsets.len() - start,
            start,
        };
    }
    (offsets, axes)
}

impl CompiledPiecewise {
    /// Compiles a piecewise model; `None` when the shape does not fit the
    /// fast path (no regions, dimension 0 or above [`MAX_DIM`], arity
    /// mismatches, exponents beyond the power ladder, or a cell table or
    /// locate table beyond 2^18 entries).
    pub fn compile(model: &PiecewiseModel) -> Option<CompiledPiecewise> {
        let dim = model.space.dim();
        if dim == 0 || dim > MAX_DIM || model.regions.is_empty() {
            return None;
        }
        let mut regions = Vec::with_capacity(model.regions.len());
        for rm in &model.regions {
            if rm.region.dim() != dim {
                return None;
            }
            let poly = CompiledVectorPolynomial::compile(&rm.poly, dim)?;
            regions.push(CompiledRegion::compile(&rm.region, poly, rm.error));
        }
        // The cut arrays: every region boundary starts (lo) or ends (hi + 1)
        // a cell, so containment is uniform within a cell.
        let mut cuts: Vec<Vec<usize>> = vec![Vec::new(); dim];
        for rm in &model.regions {
            for d in 0..dim {
                cuts[d].push(rm.region.lo()[d]);
                cuts[d].push(rm.region.hi()[d].checked_add(1)?);
            }
        }
        for c in &mut cuts {
            c.sort_unstable();
            c.dedup();
        }
        // Checked product and sum, before any table is allocated: a
        // degenerate model with enough region boundaries, or with huge
        // coordinates, could overflow, which must leave the model to the
        // reference evaluator, not wrap.
        let total_cells = cuts
            .iter()
            .try_fold(1usize, |acc, c| acc.checked_mul(c.len() - 1))
            .filter(|&t| t <= CELL_CAP)?;
        coordinate_span(&cuts).filter(|&s| s <= CELL_CAP)?;
        let strides = cell_strides(&cuts);
        let (offsets, axes) = locate_tables(&cuts, &strides);
        // Winners: every region boundary is a cut, so a region covers a
        // whole box of cells.  Claiming each region's box in region order,
        // replacing the holder only on a strictly better error, picks for
        // every cell the first minimal-error region containing it (the
        // reference evaluator's choice), without testing every region
        // against every cell.
        let mut cells = vec![UNCOVERED; total_cells];
        for (i, r) in regions.iter().enumerate() {
            let mut first = [0usize; MAX_DIM];
            let mut end = [0usize; MAX_DIM];
            for d in 0..dim {
                first[d] = cuts[d].partition_point(|&c| c < r.lo[d]);
                end[d] = cuts[d].partition_point(|&c| c <= r.hi[d]);
            }
            let mut idx = first;
            'cells: loop {
                let flat: usize = (0..dim).map(|d| idx[d] * strides[d]).sum();
                let held = cells[flat];
                if held == UNCOVERED
                    || error_order(r.error, regions[held as usize].error) == Ordering::Less
                {
                    cells[flat] = i as u32;
                }
                let mut d = dim;
                loop {
                    if d == 0 {
                        break 'cells;
                    }
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < end[d] {
                        break;
                    }
                    idx[d] = first[d];
                }
            }
        }
        Some(CompiledPiecewise {
            dim,
            regions,
            cuts,
            cells,
            strides,
            offsets,
            axes,
        })
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Evaluates the compiled model at a raw integer point — the fast,
    /// allocation-free equivalent of [`PiecewiseModel::eval`].
    pub fn eval(&self, point: &[usize]) -> Result<Summary> {
        self.eval_traced(point).map(|(summary, _)| summary)
    }

    /// [`CompiledPiecewise::eval`], additionally reporting which region
    /// answered (its index in compiled — i.e. source — region order).
    /// [`CompiledRoutineModel::estimate_traced`] adds the submodel's first
    /// cell id to it; tracing adds no work beyond returning the index the
    /// evaluator already holds.
    pub fn eval_traced(&self, point: &[usize]) -> Result<(Summary, u32)> {
        if point.len() != self.dim {
            // lint: allow(hot-path): arity-error branch, never taken by in-contract callers
            return Err(ModelError::OutOfDomain(format!(
                "point arity {} does not match model dimension {}",
                point.len(),
                self.dim
            )));
        }
        match self.locate(point) {
            Some((index, region)) => Ok((region.eval(point), index)),
            None => self.nearest(point),
        }
    }

    /// The cell-table index of the cell holding `point`: one locate-table
    /// load per dimension.  `None` when a coordinate lies below its
    /// dimension's first cut or at or above its last, hence outside every
    /// region.
    #[inline]
    fn cell_of(&self, point: &[usize]) -> Option<usize> {
        // lint: hot-path begin
        let mut cell = 0usize;
        for (&p, axis) in point.iter().zip(&self.axes) {
            // Below the first cut the subtraction wraps to a huge offset, so
            // one comparison tests both ends of the range.
            let off = p.wrapping_sub(axis.first);
            if off >= axis.span {
                return None;
            }
            cell += *self.offsets.get(axis.start + off)? as usize;
        }
        // lint: hot-path end
        Some(cell)
    }

    /// The region that answers `point` and its index: its cell's
    /// precomputed winner.  `None` when no region contains the point, either
    /// because its cell is [`UNCOVERED`] or because it lies outside the cut
    /// range.
    #[inline]
    fn locate(&self, point: &[usize]) -> Option<(u32, &CompiledRegion)> {
        // lint: hot-path begin
        let index = *self.cell_of(point).and_then(|cell| self.cells.get(cell))?;
        let region = self.regions.get(index as usize)?;
        // lint: hot-path end
        Some((index, region))
    }

    /// The nearest region to `point` over all regions, with the reference
    /// evaluator's first-minimum semantics, and its answer.
    fn nearest(&self, point: &[usize]) -> Result<(Summary, u32)> {
        let mut regions = (0u32..).zip(&self.regions);
        let Some(mut best) = regions.next() else {
            return Err(ModelError::OutOfDomain("model has no regions".to_string()));
        };
        // lint: hot-path begin
        let mut best_distance = best.1.distance(point);
        for (index, region) in regions {
            let d = region.distance(point);
            if d.total_cmp(&best_distance) == Ordering::Less {
                best = (index, region);
                best_distance = d;
            }
        }
        // lint: hot-path end
        Ok((best.1.eval(point), best.0))
    }
}

/// One submodel in compiled form, or the reference model when the fast path
/// cannot represent it.
#[derive(Debug, Clone, PartialEq)]
enum CompiledSubmodel {
    /// Compiled onto the indexed, fused fast path.
    Fast(CompiledPiecewise),
    /// Shapes the fast path cannot represent (see
    /// [`CompiledPiecewise::compile`]) fall back to the reference evaluator.
    Reference(PiecewiseModel),
}

impl CompiledSubmodel {
    fn compile(model: &PiecewiseModel) -> CompiledSubmodel {
        match CompiledPiecewise::compile(model) {
            Some(fast) => CompiledSubmodel::Fast(fast),
            None => CompiledSubmodel::Reference(model.clone()),
        }
    }

    /// Traced evaluation; both paths report the answering region's index in
    /// source region order.
    fn eval_traced(&self, point: &[usize]) -> Result<(Summary, u32)> {
        match self {
            CompiledSubmodel::Fast(c) => c.eval_traced(point),
            CompiledSubmodel::Reference(m) => {
                m.eval_traced(point).map(|(summary, i)| (summary, i as u32))
            }
        }
    }
}

/// A [`RoutineModel`] compiled for allocation-free call estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRoutineModel {
    routine: Routine,
    space_lo: [usize; MAX_DIM],
    space_hi: [usize; MAX_DIM],
    /// Submodels under fixed-size keys, each with the cell id of its first
    /// region; the handful of flag combinations per routine makes an
    /// in-order scan faster than hashing.
    submodels: Vec<(FlagKey, u32, CompiledSubmodel)>,
}

impl CompiledRoutineModel {
    /// Compiles a routine model, keeping its submodels in key order and
    /// numbering their regions from the cell id `next_cell` on, which it
    /// advances past them.
    pub(crate) fn compile(model: &RoutineModel, next_cell: &mut u32) -> CompiledRoutineModel {
        let mut space_lo = [0usize; MAX_DIM];
        let mut space_hi = [usize::MAX; MAX_DIM];
        let dims = model.space.dim().min(MAX_DIM);
        space_lo[..dims].copy_from_slice(&model.space.lo()[..dims]);
        space_hi[..dims].copy_from_slice(&model.space.hi()[..dims]);
        let submodels = model
            .submodels
            .iter()
            .map(|(&key, submodel)| {
                let first = *next_cell;
                *next_cell += submodel.regions.len() as u32;
                (key, first, CompiledSubmodel::compile(submodel))
            })
            .collect();
        CompiledRoutineModel {
            routine: model.routine,
            space_lo,
            space_hi,
            submodels,
        }
    }

    /// The modelled routine.
    pub fn routine(&self) -> Routine {
        self.routine
    }

    /// Number of compiled submodels.
    pub fn submodel_count(&self) -> usize {
        self.submodels.len()
    }

    /// Estimates the performance of `call` — the allocation-free equivalent
    /// of [`RoutineModel::estimate`], with identical clamping semantics.
    pub fn estimate(&self, call: &Call) -> Result<Summary> {
        self.estimate_traced(call).map(|(summary, _)| summary)
    }

    /// [`CompiledRoutineModel::estimate`], additionally reporting the cell id
    /// of the region that answered (see [`CompiledRepository::cells`]) — the
    /// per-call hook behind the serving layer's refinement telemetry.
    pub fn estimate_traced(&self, call: &Call) -> Result<(Summary, u32)> {
        let (_, key, sizes, len) = decode_call(call);
        let sizes = sizes.get(..len).unwrap_or_default();
        self.estimate_parts(call, key, sizes)
    }

    /// The evaluation step of
    /// [`estimate_traced`](CompiledRoutineModel::estimate_traced), from the
    /// submodel key and sizes that [`decode_call`] read from `call`: the
    /// batched trace path decodes every call once to intern it, and
    /// evaluates only the first call of each distinct shape, here.  `call`
    /// itself is read only for its routine and for the flag spelling of a
    /// missing-submodel error.  Returns the estimate and the answering
    /// region's cell id.
    pub fn estimate_parts(
        &self,
        call: &Call,
        key: FlagKey,
        sizes: &[usize],
    ) -> Result<(Summary, u32)> {
        if call.routine() != self.routine {
            return Err(ModelError::MissingSubmodel(format!(
                "model is for {}, call is {}",
                self.routine,
                call.routine()
            )));
        }
        let (first, submodel) = self
            .submodels
            .iter()
            .find(|(k, _, _)| *k == key)
            .map(|(_, first, s)| (*first, s))
            .ok_or_else(|| {
                ModelError::MissingSubmodel(format!(
                    "no submodel for {} flags {:?} ({})",
                    self.routine,
                    key,
                    call.flag_chars()
                ))
            })?;
        let mut clamped = [0usize; MAX_DIM];
        let bounds = self.space_lo.iter().zip(&self.space_hi);
        for ((c, &size), (&lo, &hi)) in clamped.iter_mut().zip(sizes).zip(bounds) {
            *c = size.clamp(lo, hi);
        }
        // More sizes than MAX_DIM leave an empty point, which the
        // submodel's arity check rejects.
        let point = clamped.get(..sizes.len()).unwrap_or_default();
        // Offsetting the region index in place turns it into the cell id
        // and lets the submodel write its answer straight into the return
        // value, without copying the summary.
        let mut answer = submodel.eval_traced(point);
        if let Ok((_, region)) = &mut answer {
            *region += first;
        }
        answer
    }
}

/// A fully compiled [`ModelRepository`]: the source repository plus one
/// [`CompiledRoutineModel`] per stored model.
///
/// Compilation happens once — the serving layer (`dla-predict`'s
/// `ModelService`) compiles at construction and on every swap/merge, so
/// every reader snapshot is already compiled.  [`compile`] is the only
/// constructor: the binary loader ([`crate::binfmt::decode`]) decodes the
/// source models and compiles them with it, as the text loader's callers do.
///
/// [`compile`]: CompiledRepository::compile
#[derive(Debug, Clone)]
pub struct CompiledRepository {
    source: Arc<ModelRepository>,
    entries: Vec<(ModelKey, CompiledRoutineModel)>,
}

impl CompiledRepository {
    /// Compiles a repository, taking ownership of the source.
    pub fn compile(repository: ModelRepository) -> CompiledRepository {
        CompiledRepository::compile_arc(Arc::new(repository))
    }

    /// Compiles an already-shared repository snapshot, numbering its
    /// regions in [`cells`](CompiledRepository::cells) order.
    pub fn compile_arc(source: Arc<ModelRepository>) -> CompiledRepository {
        let mut next_cell = 0;
        let entries = source
            .iter()
            .map(|(key, model)| {
                let compiled = CompiledRoutineModel::compile(model, &mut next_cell);
                (key.clone(), compiled)
            })
            .collect();
        CompiledRepository { source, entries }
    }

    /// Every region of the repository with its routine and submodel key, in
    /// cell-id order: the `i`-th item is the region that the traced
    /// evaluation reports as cell `i`.  Models come in key order, submodels
    /// in flag-key order and regions in source order, the order
    /// [`compile_arc`](CompiledRepository::compile_arc) numbers them in.
    pub fn cells(&self) -> impl Iterator<Item = (Routine, FlagKey, &RegionModel)> {
        self.source.iter().flat_map(|(_, model)| {
            model.submodels.iter().flat_map(move |(&key, submodel)| {
                let regions = submodel.regions.iter();
                regions.map(move |region| (model.routine, key, region))
            })
        })
    }

    /// The uncompiled source repository (the reference implementation).
    pub fn source(&self) -> &Arc<ModelRepository> {
        &self.source
    }

    /// Number of compiled models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the repository holds no models.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pre-resolves one machine/locality combination into a per-routine
    /// routing table, so per-call lookups are a plain array index.
    pub fn resolve(&self, machine_id: &str, locality: Locality) -> RoutineTable {
        let mut table = RoutineTable::default();
        for routine in Routine::ALL {
            if let Some(slot) = table.slots.get_mut(routine.index()) {
                *slot = self
                    .entries
                    .iter()
                    .position(|(key, _)| {
                        key.routine == routine.name()
                            && key.locality == locality.name()
                            && key.machine_id == machine_id
                    })
                    .map(|i| i as u32);
            }
        }
        table
    }

    /// The compiled model at a [`RoutineTable`] slot; `None` for a slot
    /// outside this repository.
    pub fn model_at(&self, slot: usize) -> Option<&CompiledRoutineModel> {
        self.entries.get(slot).map(|(_, model)| model)
    }
}

/// A pre-resolved (machine, locality) routing table: one optional
/// [`CompiledRepository`] slot per routine.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoutineTable {
    slots: [Option<u32>; Routine::TABLE_LEN],
}

impl RoutineTable {
    /// The repository slot of `routine`'s model, if present.
    pub fn slot(&self, routine: Routine) -> Option<usize> {
        let slot = self.slots.get(routine.index()).copied().flatten();
        slot.map(|i| i as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Polynomial, RegionModel};
    use dla_mat::stats::Quantity;

    fn quadratic_summary(p: &[usize]) -> Summary {
        let x = p[0] as f64;
        let y = p.get(1).map(|&v| v as f64).unwrap_or(0.0);
        let median = 900.0 + 1.7 * x + 2.3 * y + 0.013 * x * y;
        Summary {
            min: median * 0.9,
            mean: median * 1.02,
            median,
            max: median * 1.2,
            std_dev: median * 0.03,
            count: 9,
        }
    }

    fn fitted_region(region: &Region, grid: usize) -> RegionModel {
        let samples: Vec<(Vec<usize>, Summary)> = region
            .sample_grid(grid, 8)
            .into_iter()
            .map(|p| {
                let s = quadratic_summary(&p);
                (p, s)
            })
            .collect();
        RegionModel::fit(region.clone(), &samples, 2).unwrap()
    }

    fn close(a: f64, b: f64) -> bool {
        if a.is_nan() || b.is_nan() {
            return a.is_nan() && b.is_nan();
        }
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    /// The same answering region as the reference, and the same summary
    /// within floating-point noise.
    fn assert_matches(naive: &PiecewiseModel, compiled: &CompiledPiecewise, point: &[usize]) {
        let (n, n_region) = naive.eval_traced(point).unwrap();
        let (c, c_region) = compiled.eval_traced(point).unwrap();
        assert_eq!(c_region as usize, n_region, "region at {point:?}");
        for q in Quantity::ALL {
            assert!(
                close(n.get(q), c.get(q)),
                "{q:?} at {point:?}: naive {} vs compiled {}",
                n.get(q),
                c.get(q)
            );
        }
    }

    #[test]
    fn fused_polynomial_matches_reference() {
        let region = Region::new(vec![8, 8], vec![512, 512]);
        let rm = fitted_region(&region, 5);
        let compiled = CompiledVectorPolynomial::compile(&rm.poly, 2).unwrap();
        for p in region.sample_grid(7, 8) {
            let x_vec = region.normalize(&p);
            let reference = rm.poly.eval(&x_vec);
            let fused = compiled.kernel::<2>(&[x_vec[0], x_vec[1]]);
            for q in Quantity::ALL {
                assert!(
                    close(reference.get(q), fused[q.index()]),
                    "{q:?}: {} vs {}",
                    reference.get(q),
                    fused[q.index()]
                );
            }
        }
        // The plan holds the six terms of a degree-2 fit in two dimensions.
        assert!(compiled.coefficients.len() / 5 >= 6);
    }

    #[test]
    fn compiled_piecewise_matches_reference_on_split_regions() {
        let space = Region::new(vec![8, 8], vec![512, 512]);
        let mut regions: Vec<RegionModel> = space
            .split(32, 8)
            .iter()
            .map(|r| fitted_region(r, 4))
            .collect();
        // Give the overlap boundaries a deterministic winner ordering.
        for (i, r) in regions.iter_mut().enumerate() {
            r.error = 0.01 * (i + 1) as f64;
        }
        let model = PiecewiseModel::new(space.clone(), regions, 64);
        let compiled = CompiledPiecewise::compile(&model).unwrap();
        assert!(compiled.cells.len() >= 4);
        assert_eq!(compiled.region_count(), model.region_count());
        for p in space.sample_grid(9, 1) {
            assert_matches(&model, &compiled, &p);
        }
    }

    /// The cell table equals a per-cell scan of the source model: the first
    /// minimal-error region containing the cell (NaN errors last, ties to the
    /// lower index), or [`UNCOVERED`] where no region does.
    #[test]
    fn cell_table_matches_a_per_cell_scan() {
        let space = Region::new(vec![8, 8], vec![512, 512]);
        let boxes = [
            ([8, 8], [200, 300], 0.2),
            ([100, 50], [400, 256], 0.1),
            ([150, 150], [512, 512], 0.1),
            ([8, 400], [64, 512], f64::NAN),
            ([300, 8], [512, 100], 0.05),
            ([8, 280], [120, 450], f64::NAN),
        ];
        let regions: Vec<RegionModel> = boxes
            .iter()
            .map(|(lo, hi, error)| {
                let mut rm = fitted_region(&Region::new(lo.to_vec(), hi.to_vec()), 3);
                rm.error = *error;
                rm
            })
            .collect();
        let model = PiecewiseModel::new(space, regions, 54);
        let compiled = CompiledPiecewise::compile(&model).unwrap();
        let per_dim: Vec<usize> = compiled.cuts.iter().map(|c| c.len() - 1).collect();
        let mut uncovered = 0;
        for i in 0..per_dim[0] {
            for j in 0..per_dim[1] {
                let rep = [compiled.cuts[0][i], compiled.cuts[1][j]];
                let winner = model
                    .regions
                    .iter()
                    .enumerate()
                    .filter(|(_, rm)| rm.region.contains(&rep))
                    .min_by(|(_, a), (_, b)| error_order(a.error, b.error))
                    .map_or(UNCOVERED, |(k, _)| k as u32);
                let cell = compiled.cells[i * compiled.strides[0] + j];
                assert_eq!(cell, winner, "cell at {rep:?}");
                uncovered += usize::from(cell == UNCOVERED);
            }
        }
        assert!(uncovered > 0, "the layout leaves uncovered cells");
        assert_eq!(compiled.cells.len(), per_dim[0] * per_dim[1]);
    }

    /// The binary search the locate tables replace: the cell-table index of
    /// `point`'s cell, `None` when a coordinate lies outside its dimension's
    /// cut range.
    fn searched_cell(compiled: &CompiledPiecewise, point: &[usize]) -> Option<usize> {
        let mut cell = 0;
        for (d, &p) in point.iter().enumerate() {
            let cuts = &compiled.cuts[d];
            if p < cuts[0] || p >= *cuts.last().unwrap() {
                return None;
            }
            cell += (cuts.partition_point(|&b| b <= p) - 1) * compiled.strides[d];
        }
        Some(cell)
    }

    /// Sweeps every dimension from two below its first cut to two above its
    /// last, with the other coordinates at their first cut, a middle cut and
    /// their last covered coordinate, and checks the table locate against
    /// the binary search: the same cell inside the cut range, no region
    /// outside it, and otherwise the cell's winner, or no region in an
    /// uncovered cell.  Returns how many probes fell in uncovered cells.
    fn assert_tables_match_binary_search(compiled: &CompiledPiecewise) -> usize {
        let probes: Vec<[usize; 3]> = compiled
            .cuts
            .iter()
            .map(|c| [c[0], c[c.len() / 2], c[c.len() - 1] - 1])
            .collect();
        let mut checked = 0;
        let mut uncovered = 0;
        for d in 0..compiled.dim {
            let cuts = &compiled.cuts[d];
            let others = probes.len() - 1;
            for combo in 0..3usize.pow(others as u32) {
                let mut point: Vec<usize> = Vec::with_capacity(compiled.dim);
                let mut digits = combo;
                for (e, probe) in probes.iter().enumerate() {
                    if e == d {
                        point.push(0);
                    } else {
                        point.push(probe[digits % 3]);
                        digits /= 3;
                    }
                }
                for p in cuts[0].saturating_sub(2)..=cuts[cuts.len() - 1] + 2 {
                    point[d] = p;
                    let expected = searched_cell(compiled, &point);
                    assert_eq!(compiled.cell_of(&point), expected, "cell at {point:?}");
                    match (compiled.locate(&point), expected) {
                        (None, None) => {}
                        (Some((i, region)), Some(cell)) => {
                            assert_eq!(i, compiled.cells[cell], "winner at {point:?}");
                            assert_eq!(region, &compiled.regions[i as usize]);
                        }
                        (None, Some(cell)) => {
                            assert_eq!(compiled.cells[cell], UNCOVERED, "cell at {point:?}");
                            uncovered += 1;
                        }
                        (Some((i, _)), None) => {
                            panic!("{point:?}: located region {i} outside the cut range")
                        }
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
        uncovered
    }

    #[test]
    fn locate_tables_match_a_binary_search() {
        // A 2-D model with overlaps and uncovered cells.
        let space = Region::new(vec![8, 8], vec![512, 512]);
        let boxes = [
            ([8, 8], [200, 300], 0.2),
            ([100, 50], [400, 256], 0.1),
            ([150, 150], [512, 512], 0.1),
            ([8, 400], [64, 512], 0.3),
            ([300, 8], [512, 100], 0.05),
        ];
        let regions: Vec<RegionModel> = boxes
            .iter()
            .map(|(lo, hi, error)| {
                let mut rm = fitted_region(&Region::new(lo.to_vec(), hi.to_vec()), 3);
                rm.error = *error;
                rm
            })
            .collect();
        let compiled =
            CompiledPiecewise::compile(&PiecewiseModel::new(space, regions, 45)).unwrap();
        assert!(
            compiled.cells.contains(&UNCOVERED),
            "the layout leaves uncovered cells"
        );
        assert!(assert_tables_match_binary_search(&compiled) > 0);

        // A gemm-shaped 3-D model: the default gemm space, split twice in
        // places so the cuts are uneven.
        let space = Region::new(vec![8, 8, 8], vec![1024, 1024, 256]);
        let mut boxes = Vec::new();
        for (i, r) in space.split(32, 8).into_iter().enumerate() {
            if i % 3 == 0 {
                boxes.extend(r.split(32, 8));
            } else {
                boxes.push(r);
            }
        }
        let regions: Vec<RegionModel> = boxes
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut rm = fitted_region(r, 3);
                rm.error = 0.01 * (i + 1) as f64;
                rm
            })
            .collect();
        let model = PiecewiseModel::new(space, regions, 27);
        let compiled = CompiledPiecewise::compile(&model).unwrap();
        assert!(compiled.cuts.iter().all(|c| c.len() > 3));
        assert_eq!(compiled.offsets.len(), 1017 + 1017 + 249);
        assert!(
            !compiled.cells.contains(&UNCOVERED),
            "the split covers the space"
        );
        assert_eq!(assert_tables_match_binary_search(&compiled), 0);
    }

    #[test]
    fn spans_beyond_the_cap_fall_back_to_the_reference_evaluator() {
        // One cell, but a coordinate span past CELL_CAP: the locate tables
        // would be oversized, so the model is not compiled and the reference
        // evaluator serves it, with the same answers and region indices.
        let wide = Region::new(vec![8], vec![CELL_CAP + 8]);
        let model = PiecewiseModel::new(wide.clone(), vec![fitted_region(&wide, 6)], 6);
        assert!(CompiledPiecewise::compile(&model).is_none());
        let sub = CompiledSubmodel::compile(&model);
        assert!(matches!(sub, CompiledSubmodel::Reference(_)));
        for p in [0, 8, 1000, CELL_CAP, CELL_CAP + 8, CELL_CAP + 100] {
            let (summary, region) = sub.eval_traced(&[p]).unwrap();
            let (expected, expected_region) = model.eval_traced(&[p]).unwrap();
            assert_eq!(summary, expected, "at {p}");
            assert_eq!(region as usize, expected_region, "at {p}");
        }
        // The same model one coordinate narrower fits the cap exactly.
        let fits = Region::new(vec![8], vec![CELL_CAP + 7]);
        let model = PiecewiseModel::new(fits.clone(), vec![fitted_region(&fits, 6)], 6);
        let compiled = CompiledPiecewise::compile(&model).unwrap();
        assert_eq!(compiled.offsets.len(), CELL_CAP);
        assert!(matches!(
            CompiledSubmodel::compile(&model),
            CompiledSubmodel::Fast(_)
        ));
        // The cell count has the same cap: `n` one-point regions on the
        // diagonal cut each dimension into `n` cells, so the grid holds `n²`
        // cells over a coordinate span of only `2n`.
        let diagonal = |n: usize| {
            let regions = (0..n)
                .map(|k| {
                    let constant = Polynomial::new(2, vec![vec![0, 0]], vec![k as f64]).unwrap();
                    RegionModel {
                        region: Region::new(vec![k, k], vec![k, k]),
                        poly: VectorPolynomial::new(vec![constant; 5]).unwrap(),
                        error: 0.0,
                        samples_used: 1,
                        revision: 0,
                    }
                })
                .collect();
            PiecewiseModel::new(Region::new(vec![0, 0], vec![n - 1, n - 1]), regions, n)
        };
        assert!(CompiledPiecewise::compile(&diagonal(513)).is_none());
        let compiled = CompiledPiecewise::compile(&diagonal(512)).unwrap();
        assert_eq!(compiled.cells.len(), CELL_CAP);
    }

    #[test]
    fn compiled_fallback_matches_reference_outside_coverage() {
        let space = Region::new(vec![8], vec![1024]);
        let left = Region::new(vec![8], vec![256]);
        let right = Region::new(vec![640], vec![1024]);
        let model = PiecewiseModel::new(
            space.clone(),
            vec![fitted_region(&left, 6), fitted_region(&right, 6)],
            12,
        );
        let compiled = CompiledPiecewise::compile(&model).unwrap();
        // Covered, uncovered-between, and outside-the-space points.
        for p in [8usize, 100, 256, 300, 448, 500, 639, 640, 1024, 1500, 2000] {
            assert_matches(&model, &compiled, &[p]);
        }
    }

    #[test]
    fn compiled_piecewise_rejects_bad_arity_and_prefers_low_error() {
        let space = Region::new(vec![8, 8], vec![256, 256]);
        let mut a = fitted_region(&space, 4);
        let mut b = fitted_region(&space, 4);
        a.error = 0.5;
        b.error = 0.01;
        let model = PiecewiseModel::new(space, vec![a, b.clone()], 32);
        let compiled = CompiledPiecewise::compile(&model).unwrap();
        assert!(compiled.eval(&[64]).is_err());
        assert_eq!(compiled.eval(&[64, 64]).unwrap(), b.eval(&[64, 64]));
        // NaN-error region sorts last here too.
        let mut c = b.clone();
        c.error = f64::NAN;
        let model = PiecewiseModel::new(
            Region::new(vec![8, 8], vec![256, 256]),
            vec![c, b.clone()],
            32,
        );
        let compiled = CompiledPiecewise::compile(&model).unwrap();
        assert_eq!(compiled.eval(&[64, 64]).unwrap(), b.eval(&[64, 64]));
    }

    #[test]
    fn uncompilable_shapes_fall_back_to_reference() {
        // Degree-9 exponents exceed the power ladder.
        let region = Region::new(vec![8], vec![128]);
        let tall = Polynomial::new(1, vec![vec![9]], vec![1.0]).unwrap();
        let vp = VectorPolynomial::new(vec![tall; 5]).unwrap();
        assert!(CompiledVectorPolynomial::compile(&vp, 1).is_none());
        let rm = RegionModel {
            region: region.clone(),
            poly: vp,
            error: 0.0,
            samples_used: 1,
            revision: 0,
        };
        let model = PiecewiseModel::new(region, vec![rm], 1);
        assert!(CompiledPiecewise::compile(&model).is_none());
        // An empty model cannot be compiled either.
        let empty = PiecewiseModel::new(Region::new(vec![8], vec![128]), vec![], 0);
        assert!(CompiledPiecewise::compile(&empty).is_none());
        // The submodel wrapper still evaluates through the reference path.
        let sub = CompiledSubmodel::compile(&model);
        assert!(matches!(sub, CompiledSubmodel::Reference(_)));
        let (summary, region) = sub.eval_traced(&[64]).unwrap();
        assert!(close(summary.median, model.eval(&[64]).unwrap().median));
        assert_eq!(region as usize, model.eval_traced(&[64]).unwrap().1);
    }

    #[test]
    fn compiled_repository_resolves_and_estimates() {
        use dla_blas::{Diag, Side, Trans, Uplo};

        let space = Region::new(vec![8, 8], vec![512, 512]);
        let mut model =
            RoutineModel::new(Routine::Trsm, "machine-a", Locality::InCache, space.clone());
        let rm = fitted_region(&space, 5);
        let pw = PiecewiseModel::new(space.clone(), vec![rm], 25);
        model.insert_submodel(crate::FlagKey::from_slice(&[0, 0, 0]).unwrap(), pw.clone());
        let mut repo = ModelRepository::new();
        repo.insert(model.clone());
        let compiled = CompiledRepository::compile(repo);
        assert_eq!(compiled.len(), 1);
        assert!(!compiled.is_empty());
        assert_eq!(compiled.source().len(), 1);

        let call = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::Unit,
            300,
            700,
            1.0,
        );
        let table = compiled.resolve("machine-a", Locality::InCache);
        let slot = table.slot(Routine::Trsm).unwrap();
        let fast = compiled.model_at(slot).unwrap();
        assert_eq!(fast.routine(), Routine::Trsm);
        assert_eq!(fast.submodel_count(), 1);
        assert!(matches!(fast.submodels[0].2, CompiledSubmodel::Fast(_)));
        assert!(compiled.model_at(compiled.len()).is_none());
        let estimate = fast.estimate(&call).unwrap();
        let reference = model.estimate(&call).unwrap();
        assert!(close(estimate.median, reference.median));
        // Clamping matches the reference too (700 > 512).
        assert!(close(estimate.max, reference.max));

        // Missing pieces surface exactly like the reference.
        assert!(table.slot(Routine::Gemm).is_none());
        assert!(compiled
            .resolve("machine-b", Locality::InCache)
            .slot(Routine::Trsm)
            .is_none());
        assert!(compiled
            .resolve("machine-a", Locality::OutOfCache)
            .slot(Routine::Trsm)
            .is_none());
        let upper = Call::trsm(
            Side::Left,
            Uplo::Upper,
            Trans::NoTrans,
            Diag::NonUnit,
            64,
            64,
            1.0,
        );
        assert!(matches!(
            fast.estimate(&upper),
            Err(ModelError::MissingSubmodel(_))
        ));
        let gemm = Call::gemm(Trans::NoTrans, Trans::NoTrans, 8, 8, 8, 1.0, 0.0);
        assert!(fast.estimate(&gemm).is_err());
    }

    /// A routine model over `space` with one submodel per `(call, regions)`
    /// pair, keyed by the call's flags.
    fn routine_model(space: &Region, submodels: Vec<(Call, Vec<RegionModel>)>) -> RoutineModel {
        let routine = submodels[0].0.routine();
        let mut model = RoutineModel::new(routine, "m", Locality::InCache, space.clone());
        for (call, regions) in submodels {
            let samples = regions.len();
            let pw = PiecewiseModel::new(space.clone(), regions, samples);
            model.insert_submodel(crate::submodel_key(&call), pw);
        }
        model
    }

    /// Every cell id that the traced evaluation reports names, through
    /// [`CompiledRepository::cells`], the routine, the submodel key and the
    /// source region that the reference evaluator picks for the call.
    #[test]
    fn cell_ids_name_the_reference_region() {
        use dla_blas::{Diag, Side, Trans, Uplo};

        let space = Region::new(vec![8, 8], vec![512, 512]);
        let trsm =
            |side, m, n| Call::trsm(side, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, m, n, 1.0);
        let trmm = |m, n| {
            Call::trmm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                m,
                n,
                1.0,
            )
        };
        // Fast submodels with four and three regions (the three overlap, so
        // the error order picks between them).
        let quarters: Vec<RegionModel> = space
            .split(32, 8)
            .iter()
            .map(|r| fitted_region(r, 3))
            .collect();
        assert_eq!(quarters.len(), 4);
        let mut thirds: Vec<RegionModel> = [
            ([8, 8], [512, 200]),
            ([8, 200], [300, 512]),
            ([250, 150], [512, 512]),
        ]
        .iter()
        .map(|(lo, hi)| fitted_region(&Region::new(lo.to_vec(), hi.to_vec()), 3))
        .collect();
        for (i, rm) in thirds.iter_mut().enumerate() {
            rm.error = 0.1 * (3 - i) as f64;
        }
        // A reference submodel: degree-9 exponents exceed the power ladder.
        let steep = |k: usize| {
            let poly =
                Polynomial::new(2, vec![vec![9, 0], vec![0, 0]], vec![1.0, k as f64]).unwrap();
            VectorPolynomial::new(vec![poly; 5]).unwrap()
        };
        let halves: Vec<RegionModel> = [([8, 8], [256, 512]), ([257, 8], [512, 512])]
            .iter()
            .enumerate()
            .map(|(k, (lo, hi))| RegionModel {
                region: Region::new(lo.to_vec(), hi.to_vec()),
                poly: steep(k + 1),
                error: 0.0,
                samples_used: 1,
                revision: 0,
            })
            .collect();
        let mut repo = ModelRepository::new();
        repo.insert(routine_model(
            &space,
            vec![
                (trsm(Side::Left, 8, 8), quarters),
                (trsm(Side::Right, 8, 8), thirds),
            ],
        ));
        repo.insert(routine_model(&space, vec![(trmm(8, 8), halves)]));
        let compiled = CompiledRepository::compile(repo);
        let table = compiled.resolve("m", Locality::InCache);
        let trmm_model = compiled
            .model_at(table.slot(Routine::Trmm).unwrap())
            .unwrap();
        assert!(matches!(
            trmm_model.submodels[0].2,
            CompiledSubmodel::Reference(_)
        ));

        let total: usize = compiled
            .source()
            .iter()
            .flat_map(|(_, model)| model.submodels.values())
            .map(|submodel| submodel.region_count())
            .sum();
        assert_eq!(total, 9);
        assert_eq!(compiled.cells().count(), total);

        // A grid over the space and past its upper bounds (clamped).
        let sizes: Vec<usize> = (0..12).map(|i| 8 + 48 * i).collect();
        let mut calls = Vec::new();
        for &m in &sizes {
            for &n in &sizes {
                calls.extend([trsm(Side::Left, m, n), trsm(Side::Right, m, n), trmm(m, n)]);
            }
        }
        let mut reached = vec![false; total];
        for call in &calls {
            let model = compiled
                .model_at(table.slot(call.routine()).unwrap())
                .unwrap();
            let (summary, id) = model.estimate_traced(call).unwrap();
            let (routine, key, region) = compiled.cells().nth(id as usize).unwrap();
            let (_, call_key, raw, len) = decode_call(call);
            assert_eq!((routine, key), (call.routine(), call_key), "{call}");
            // The reference evaluator, on the clamped point.
            let source = compiled
                .source()
                .get(routine, "m", Locality::InCache)
                .unwrap();
            let point: Vec<usize> = raw[..len]
                .iter()
                .zip(source.space.lo().iter().zip(source.space.hi()))
                .map(|(&p, (&lo, &hi))| p.clamp(lo, hi))
                .collect();
            let submodel = source.submodel(call_key).unwrap();
            let (expected, index) = submodel.eval_traced(&point).unwrap();
            assert!(std::ptr::eq(region, &submodel.regions[index]), "{call}");
            assert!(close(summary.median, expected.median), "{call}");
            reached[id as usize] = true;
        }
        assert!(reached.iter().all(|&r| r), "unreached cells: {reached:?}");
    }
}
