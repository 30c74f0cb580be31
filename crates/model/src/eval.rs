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
//! * **Fused polynomials** ([`CompiledVectorPolynomial`]): the five quantity
//!   polynomials of a [`VectorPolynomial`] share one monomial plan; each
//!   monomial is computed once per point from per-dimension power ladders
//!   (no `powi`) and feeds five fused dot products against an SoA
//!   coefficient matrix.  Evaluation dispatches once on the dimension into a
//!   kernel specialised for it, whose coordinates and ladders are
//!   fixed-size arrays.
//! * **Region index** ([`CompiledPiecewise`]): refinement regions stem from
//!   axis-aligned splits, so their boundaries induce per-dimension sorted cut
//!   arrays that divide the space into a grid of cells.  Every cell
//!   precomputes its best (minimum-error) containing region, and uncovered
//!   cells precompute the candidate set for the nearest-region fallback.  A
//!   per-dimension table maps every coordinate between the first and the
//!   last cut straight to its cell's offset in the cell table, so locating a
//!   point is one table load per dimension.  The tables are derived from the
//!   cut arrays when a model is compiled or decoded; they are never
//!   serialised.
//! * **Zero-allocation path**: normalised coordinates live in fixed scratch
//!   ([`MAX_DIM`]), submodel lookup uses the fixed-size
//!   [`FlagKey`](crate::FlagKey), and [`CompiledRepository::resolve`]
//!   pre-resolves machine/locality into a [`RoutineTable`] so the per-call
//!   path performs no hashing and no string comparison.
//!
//! Shapes the fast path cannot represent (dimension above [`MAX_DIM`],
//! exponents beyond the power ladder) transparently fall back to the
//! reference implementation, and models whose index would be oversized
//! locate by an in-order region scan, so compiled evaluation is always
//! *available*, merely not always accelerated.  Equivalence between the two
//! implementations is enforced by property tests
//! (`crates/core/tests/eval_equivalence.rs`).
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
use crate::routine_model::{submodel_key, FlagKey};
use crate::{
    ModelError, ModelKey, ModelRepository, PiecewiseModel, Region, Result, RoutineModel,
    VectorPolynomial,
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
/// span of the per-dimension locate tables; larger indexes degrade to an
/// in-order (but still allocation-free) region scan.
const CELL_CAP: usize = 1 << 18;

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
pub struct CompiledVectorPolynomial {
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
    pub fn compile(vp: &VectorPolynomial, dim: usize) -> Option<CompiledVectorPolynomial> {
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

    /// Number of terms in the shared monomial plan.
    pub fn term_count(&self) -> usize {
        self.coefficients.len() / 5
    }

    /// The arity of the compiled plan.
    pub(crate) fn dim(&self) -> usize {
        self.arity as usize
    }

    /// The term-major exponent matrix (`term_count * dim` bytes) — the exact
    /// bytes the binary repository format serialises.
    pub(crate) fn exponent_bytes(&self) -> &[u8] {
        &self.exponents
    }

    /// The term-major SoA coefficient matrix (`term_count * 5` doubles) — the
    /// exact doubles the binary repository format serialises.
    pub(crate) fn coefficient_matrix(&self) -> &[f64] {
        &self.coefficients
    }

    /// Reassembles a compiled polynomial from its serialised parts,
    /// revalidating every invariant the evaluator relies on (the binary
    /// loader must never panic on corrupt-but-well-framed input).
    pub(crate) fn from_raw_parts(
        dim: usize,
        exponents: Vec<u8>,
        coefficients: Vec<f64>,
    ) -> Result<CompiledVectorPolynomial> {
        let Some(arity) = Arity::new(dim) else {
            return Err(ModelError::Parse(format!(
                "binary repository: compiled polynomial dimension {dim} outside 1..={MAX_DIM}"
            )));
        };
        if !exponents.len().is_multiple_of(dim) {
            return Err(ModelError::Parse(format!(
                "binary repository: exponent matrix length {} is not a multiple of dim {dim}",
                exponents.len()
            )));
        }
        let term_count = exponents.len() / dim;
        if coefficients.len() != term_count * 5 {
            return Err(ModelError::Parse(format!(
                "binary repository: coefficient matrix length {} does not match {term_count} terms",
                coefficients.len()
            )));
        }
        let mut max_exp = [0u8; MAX_DIM];
        for term in exponents.chunks_exact(dim) {
            for (d, &e) in term.iter().enumerate() {
                if e as usize > MAX_EXP {
                    return Err(ModelError::Parse(format!(
                        "binary repository: exponent {e} exceeds the power-ladder bound {MAX_EXP}"
                    )));
                }
                max_exp[d] = max_exp[d].max(e);
            }
        }
        Ok(CompiledVectorPolynomial {
            arity,
            exponents,
            coefficients,
            max_exp,
        })
    }

    /// Evaluates all five quantities at a normalised point (its first `dim`
    /// coordinates), with the same non-negativity clamp and NaN preservation
    /// as [`VectorPolynomial::eval`].
    pub fn eval(&self, x: &[f64; MAX_DIM]) -> [f64; 5] {
        match self.arity {
            Arity::One => self.kernel(&leading::<1>(x)),
            Arity::Two => self.kernel(&leading::<2>(x)),
            Arity::Three => self.kernel(&leading::<3>(x)),
            Arity::Four => self.kernel(&leading::<4>(x)),
        }
    }

    /// The fused kernel for `D == self.dim()`: one power ladder per
    /// dimension, then one basis product and five multiply-adds per term, in
    /// term order.
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

/// The first `D` coordinates of a scratch point.
#[inline(always)]
fn leading<const D: usize>(x: &[f64; MAX_DIM]) -> [f64; D] {
    let mut out = [0.0; D];
    for (o, &v) in out.iter_mut().zip(x) {
        *o = v;
    }
    out
}

/// One region with precomputed bounds and its compiled polynomial.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledRegion {
    lo: [usize; MAX_DIM],
    hi: [usize; MAX_DIM],
    lo_f: [f64; MAX_DIM],
    hi_f: [f64; MAX_DIM],
    extent_f: [f64; MAX_DIM],
    error: f64,
    pub(crate) poly: CompiledVectorPolynomial,
}

impl CompiledRegion {
    pub(crate) fn compile(
        region: &Region,
        poly: CompiledVectorPolynomial,
        error: f64,
    ) -> CompiledRegion {
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

    /// Whether the region contains the first `dim` coordinates of `point`.
    #[inline]
    fn contains(&self, dim: usize, point: &[usize]) -> bool {
        let bounds = self.lo.iter().zip(&self.hi);
        point
            .iter()
            .zip(bounds)
            .zip(0..dim)
            .all(|((&p, (&lo, &hi)), _)| p >= lo && p <= hi)
    }

    /// Same arithmetic as the reference `region_distance`, over the first
    /// `dim` coordinates of `point`.
    #[inline]
    fn distance(&self, dim: usize, point: &[usize]) -> f64 {
        let mut acc = 0.0;
        let bounds = self.lo_f.iter().zip(&self.hi_f);
        for ((&p, (&lo, &hi)), _) in point.iter().zip(bounds).zip(0..dim) {
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

/// Where a point resolved during location: a concrete region, a cell's
/// precomputed fallback candidate set, or the full nearest-region scan.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PointLoc<'a> {
    /// Covered by this region, at this index in source region order.
    Region(u32, &'a CompiledRegion),
    /// Uncovered but inside the index: nearest among this fallback set.
    NearestAmong(&'a [u32]),
    /// Outside the indexed range (or unindexed and uncovered): nearest over
    /// all regions.
    NearestAll,
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
    /// Row-major cell table.  A value `v < regions.len()` is the cell's
    /// precomputed best region; `v >= regions.len()` indexes
    /// `fallbacks[v - regions.len()]`, the candidate set of the
    /// nearest-region fallback for an uncovered cell.
    cells: Vec<u32>,
    strides: [usize; MAX_DIM],
    /// Candidate region sets for uncovered cells.
    fallbacks: Vec<Vec<u32>>,
    /// The per-dimension locate tables, back to back: `axes[d]` delimits
    /// dimension `d`'s.  Derived from `cuts` and `strides` (never
    /// serialised); empty when not indexed.
    offsets: Vec<u32>,
    axes: [Axis; MAX_DIM],
    /// `false` when the cell table or the locate tables would exceed
    /// [`CELL_CAP`]: point location then degrades to an in-order region
    /// scan (still allocation-free).
    indexed: bool,
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
    /// mismatches, exponents beyond the power ladder).
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
        let cells_per_dim: Vec<usize> = cuts.iter().map(|c| c.len() - 1).collect();
        // Checked product and sum: a degenerate model with enough region
        // boundaries, or with huge coordinates, could overflow, which must
        // degrade to the scan path, not wrap.
        let total_cells = cells_per_dim
            .iter()
            .try_fold(1usize, |acc, &c| acc.checked_mul(c));
        let indexed = matches!(total_cells, Some(t) if (1..=CELL_CAP).contains(&t))
            && matches!(coordinate_span(&cuts), Some(s) if s <= CELL_CAP);

        let mut compiled = CompiledPiecewise {
            dim,
            regions,
            cuts,
            cells: Vec::new(),
            strides: [0; MAX_DIM],
            fallbacks: Vec::new(),
            offsets: Vec::new(),
            axes: [Axis::default(); MAX_DIM],
            indexed,
        };
        if !indexed {
            return Some(compiled);
        }
        // lint: allow(unwrap): the indexed flag is only set together with a valid cell count
        let total_cells = total_cells.expect("indexed implies a valid cell count");
        compiled.strides = cell_strides(&compiled.cuts);
        (compiled.offsets, compiled.axes) = locate_tables(&compiled.cuts, &compiled.strides);
        // Winners: every region boundary is a cut, so a region covers a
        // whole box of cells.  Claiming each region's box in region order,
        // replacing the holder only on a strictly better error, picks the
        // same first-minimal-error winner `best_containing` would for every
        // cell, without testing every region against every cell.
        const UNCOVERED: u32 = u32::MAX;
        let mut cells = vec![UNCOVERED; total_cells];
        for (i, r) in compiled.regions.iter().enumerate() {
            let mut first = [0usize; MAX_DIM];
            let mut end = [0usize; MAX_DIM];
            for d in 0..dim {
                first[d] = compiled.cuts[d].partition_point(|&c| c < r.lo[d]);
                end[d] = compiled.cuts[d].partition_point(|&c| c <= r.hi[d]);
            }
            let mut idx = first;
            'cells: loop {
                let flat: usize = (0..dim).map(|d| idx[d] * compiled.strides[d]).sum();
                let held = cells[flat];
                if held == UNCOVERED
                    || error_order(r.error, compiled.regions[held as usize].error) == Ordering::Less
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
        // Fallback candidate sets for the uncovered cells, in row-major cell
        // order (odometer over per-dimension cell indices).
        let mut idx = [0usize; MAX_DIM];
        for cell in cells.iter_mut() {
            if *cell == UNCOVERED {
                let mut rep = [0usize; MAX_DIM];
                let mut cell_hi = [0usize; MAX_DIM];
                for d in 0..dim {
                    rep[d] = compiled.cuts[d][idx[d]];
                    cell_hi[d] = compiled.cuts[d][idx[d] + 1] - 1;
                }
                let candidates = fallback_candidates(&compiled.regions, dim, &rep, &cell_hi);
                compiled.fallbacks.push(candidates);
                *cell = (compiled.regions.len() + compiled.fallbacks.len() - 1) as u32;
            }
            // Advance the odometer (last dimension fastest, matching the
            // row-major strides).
            for d in (0..dim).rev() {
                idx[d] += 1;
                if idx[d] < cells_per_dim[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        compiled.cells = cells;
        Some(compiled)
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Returns `true` when point location uses the precomputed cell table
    /// (as opposed to the scan fallback for oversized grids).
    pub fn is_indexed(&self) -> bool {
        self.indexed
    }

    /// Number of cells in the index (0 when not indexed).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Point dimensionality this model evaluates.
    pub fn dim(&self) -> usize {
        self.dim
    }

    pub(crate) fn regions(&self) -> &[CompiledRegion] {
        &self.regions
    }

    pub(crate) fn cuts(&self) -> &[Vec<usize>] {
        &self.cuts
    }

    pub(crate) fn cells(&self) -> &[u32] {
        &self.cells
    }

    pub(crate) fn fallbacks(&self) -> &[Vec<u32>] {
        &self.fallbacks
    }

    /// Rebuilds a compiled piecewise model from serialized sections,
    /// re-validating every invariant [`compile`](CompiledPiecewise::compile)
    /// establishes so corrupt inputs surface as errors, never panics, and
    /// re-deriving the locate tables.
    pub(crate) fn from_raw_parts(
        dim: usize,
        regions: Vec<CompiledRegion>,
        cuts: Vec<Vec<usize>>,
        cells: Vec<u32>,
        fallbacks: Vec<Vec<u32>>,
        indexed: bool,
    ) -> Result<CompiledPiecewise> {
        let bad = |msg: String| Err(ModelError::Parse(format!("binary repository: {msg}")));
        if dim == 0 || dim > MAX_DIM {
            return bad(format!("piecewise dimension {dim} out of range"));
        }
        if regions.is_empty() {
            return bad("piecewise model with no regions".to_string());
        }
        // Cut arrays exist in both modes (compile() builds them before the
        // index-size decision); the cell table only in indexed mode.
        if cuts.len() != dim {
            return bad(format!("expected {dim} cut arrays, found {}", cuts.len()));
        }
        let mut total = 1usize;
        for c in &cuts {
            if c.len() < 2 || c.windows(2).any(|w| w[0] >= w[1]) {
                return bad("cut array not strictly ascending".to_string());
            }
            total = match total.checked_mul(c.len() - 1) {
                Some(t) => t,
                None => {
                    if indexed {
                        return bad("cell table size overflows".to_string());
                    }
                    // Oversized grids are exactly why the model degraded to
                    // the scan path; the product is unused there.
                    usize::MAX
                }
            };
        }
        let mut strides = [0usize; MAX_DIM];
        let mut offsets = Vec::new();
        let mut axes = [Axis::default(); MAX_DIM];
        if indexed {
            if total != cells.len() {
                return bad(format!(
                    "cell table length {} does not match cut grid ({total} cells)",
                    cells.len()
                ));
            }
            // Checked before the tables are allocated: a corrupt cut must
            // not turn into a huge allocation.
            if !matches!(coordinate_span(&cuts), Some(s) if s <= CELL_CAP) {
                return bad(format!(
                    "indexed model's cut coordinates span more than {CELL_CAP}"
                ));
            }
            let limit = regions.len() + fallbacks.len();
            if cells.iter().any(|&v| (v as usize) >= limit) {
                return bad("cell entry out of range".to_string());
            }
            if fallbacks
                .iter()
                .any(|f| f.iter().any(|&r| (r as usize) >= regions.len()))
            {
                return bad("fallback candidate out of range".to_string());
            }
            strides = cell_strides(&cuts);
            (offsets, axes) = locate_tables(&cuts, &strides);
        } else if !cells.is_empty() || !fallbacks.is_empty() {
            return bad("unindexed model carries a cell table".to_string());
        }
        Ok(CompiledPiecewise {
            dim,
            regions,
            cuts,
            cells,
            strides,
            fallbacks,
            offsets,
            axes,
            indexed,
        })
    }

    /// Evaluates the compiled model at a raw integer point — the fast,
    /// allocation-free equivalent of [`PiecewiseModel::eval`].
    pub fn eval(&self, point: &[usize]) -> Result<Summary> {
        self.eval_traced(point).map(|(summary, _)| summary)
    }

    /// [`CompiledPiecewise::eval`], additionally reporting which region
    /// answered (its index in compiled — i.e. source — region order).  The
    /// serving layer's telemetry records this index per query; tracing adds
    /// no work beyond returning the index the evaluator already holds.
    pub fn eval_traced(&self, point: &[usize]) -> Result<(Summary, u32)> {
        if point.len() != self.dim {
            // lint: allow(hot-path): arity-error branch, never taken by in-contract callers
            return Err(ModelError::OutOfDomain(format!(
                "point arity {} does not match model dimension {}",
                point.len(),
                self.dim
            )));
        }
        Ok(match self.locate(point) {
            PointLoc::Region(index, region) => (region.eval(point), index),
            PointLoc::NearestAmong(candidates) => self.nearest(point, Some(candidates)),
            PointLoc::NearestAll => self.nearest(point, None),
        })
    }

    /// The cell-table index of the cell holding `point`: one locate-table
    /// load per dimension.  `None` when a coordinate lies below its
    /// dimension's first cut or at or above its last, hence outside every
    /// region.  Only meaningful on an indexed model.
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

    /// Locates the region that answers `point`: the cell table's precomputed
    /// winner on the indexed path, the in-order scan otherwise, or a
    /// nearest-region fallback directive for uncovered points.
    #[inline]
    fn locate(&self, point: &[usize]) -> PointLoc<'_> {
        // lint: hot-path begin
        let found = if self.indexed {
            match self.cell_of(point).and_then(|cell| self.cells.get(cell)) {
                Some(&v) => v as usize,
                // Outside the indexed range in some dimension: exact
                // nearest-region fallback.
                None => return PointLoc::NearestAll,
            }
        } else {
            match best_containing(&self.regions, self.dim, point) {
                Some(best) => best,
                None => return PointLoc::NearestAll,
            }
        };
        if let Some(region) = self.regions.get(found) {
            return PointLoc::Region(found as u32, region);
        }
        match self.fallbacks.get(found - self.regions.len()) {
            Some(candidates) => PointLoc::NearestAmong(candidates),
            None => PointLoc::NearestAll,
        }
        // lint: hot-path end
    }

    /// Nearest-region fallback over a candidate subset (or all regions),
    /// with the same first-minimum semantics as the reference evaluator.
    // lint: allow(panic-free): candidate indices come from the fallback table or
    // 0..regions.len(), and compile() rejects models with no regions
    fn nearest(&self, point: &[usize], candidates: Option<&[u32]>) -> (Summary, u32) {
        // lint: hot-path begin
        let mut best = 0usize;
        let mut best_distance = f64::INFINITY;
        let mut consider = |i: usize| {
            let d = self.regions[i].distance(self.dim, point);
            if d.total_cmp(&best_distance) == Ordering::Less {
                best = i;
                best_distance = d;
            }
        };
        match candidates {
            Some(list) => list.iter().for_each(|&i| consider(i as usize)),
            None => (0..self.regions.len()).for_each(&mut consider),
        }
        // lint: hot-path end
        (self.regions[best].eval(point), best as u32)
    }
}

/// The best (minimum-error, NaN-last, first-wins) region containing `point`,
/// iterating in stored order exactly like the reference evaluator.
fn best_containing(regions: &[CompiledRegion], dim: usize, point: &[usize]) -> Option<usize> {
    // lint: hot-path begin
    let mut best: Option<(usize, f64)> = None;
    for (i, r) in regions.iter().enumerate() {
        if !r.contains(dim, point) {
            continue;
        }
        if best.is_none_or(|(_, error)| error_order(r.error, error) == Ordering::Less) {
            best = Some((i, r.error));
        }
    }
    // lint: hot-path end
    best.map(|(i, _)| i)
}

/// The regions that can be nearest to *some* point of the cell
/// `[cell_lo, cell_hi]`: region `r` qualifies iff its minimum possible
/// squared distance over the cell does not exceed the smallest maximum
/// squared distance of any region (interval arithmetic per dimension; both
/// bounds are attained at cell corners, so the bounds are tight).
fn fallback_candidates(
    regions: &[CompiledRegion],
    dim: usize,
    cell_lo: &[usize; MAX_DIM],
    cell_hi: &[usize; MAX_DIM],
) -> Vec<u32> {
    let dd = |p: f64, lo: f64, hi: f64| {
        if p < lo {
            lo - p
        } else if p > hi {
            p - hi
        } else {
            0.0
        }
    };
    let mut min2 = Vec::with_capacity(regions.len());
    let mut max2 = Vec::with_capacity(regions.len());
    for r in regions {
        let mut dmin2 = 0.0;
        let mut dmax2 = 0.0;
        for d in 0..dim {
            let (clo, chi) = (cell_lo[d] as f64, cell_hi[d] as f64);
            let lo_d = if chi < r.lo_f[d] {
                r.lo_f[d] - chi
            } else if clo > r.hi_f[d] {
                clo - r.hi_f[d]
            } else {
                0.0
            };
            let hi_d = dd(clo, r.lo_f[d], r.hi_f[d]).max(dd(chi, r.lo_f[d], r.hi_f[d]));
            dmin2 += lo_d * lo_d;
            dmax2 += hi_d * hi_d;
        }
        min2.push(dmin2);
        max2.push(dmax2);
    }
    let threshold = max2.iter().cloned().fold(f64::INFINITY, f64::min);
    (0..regions.len())
        .filter(|&i| min2[i] <= threshold)
        .map(|i| i as u32)
        .collect()
}

/// One submodel in compiled form, or the reference model when the fast path
/// cannot represent it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CompiledSubmodel {
    /// Compiled onto the indexed, fused fast path.
    Fast(CompiledPiecewise),
    /// Shapes the fast path cannot represent fall back to the reference
    /// evaluator.
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

    fn is_fast(&self) -> bool {
        matches!(self, CompiledSubmodel::Fast(_))
    }
}

/// A [`RoutineModel`] compiled for allocation-free call estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRoutineModel {
    routine: Routine,
    space_lo: [usize; MAX_DIM],
    space_hi: [usize; MAX_DIM],
    /// Submodels under fixed-size keys; the handful of flag combinations per
    /// routine makes an in-order scan faster than hashing.
    submodels: Vec<(FlagKey, CompiledSubmodel)>,
}

impl CompiledRoutineModel {
    /// Compiles a routine model, keeping its submodels in key order.
    pub fn compile(model: &RoutineModel) -> CompiledRoutineModel {
        let mut space_lo = [0usize; MAX_DIM];
        let mut space_hi = [usize::MAX; MAX_DIM];
        let dims = model.space.dim().min(MAX_DIM);
        space_lo[..dims].copy_from_slice(&model.space.lo()[..dims]);
        space_hi[..dims].copy_from_slice(&model.space.hi()[..dims]);
        let submodels = model
            .submodels
            .iter()
            .map(|(&key, submodel)| (key, CompiledSubmodel::compile(submodel)))
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

    /// Number of submodels on the fast (indexed, fused) path.
    pub fn fast_submodel_count(&self) -> usize {
        self.submodels.iter().filter(|(_, s)| s.is_fast()).count()
    }

    /// Estimates the performance of `call` — the allocation-free equivalent
    /// of [`RoutineModel::estimate`], with identical clamping semantics.
    pub fn estimate(&self, call: &Call) -> Result<Summary> {
        self.estimate_traced(call).map(|(summary, _, _)| summary)
    }

    /// [`CompiledRoutineModel::estimate`], additionally reporting which
    /// submodel (flag key) and region (index in source region order) answered
    /// — the per-call hook behind the serving layer's refinement telemetry.
    pub fn estimate_traced(&self, call: &Call) -> Result<(Summary, FlagKey, u32)> {
        let key = submodel_key(call);
        let (sizes, len) = call.sizes_fixed();
        let sizes = sizes.get(..len).unwrap_or_default();
        let (summary, region) = self.estimate_parts(call, key, sizes)?;
        Ok((summary, key, region))
    }

    /// The evaluation step of
    /// [`estimate_traced`](CompiledRoutineModel::estimate_traced), from the
    /// submodel key and sizes already extracted from `call`: callers that
    /// key calls by shape decode each call once.  `call` itself is read
    /// only for its routine and for the flag spelling of a missing-submodel
    /// error.  Returns the estimate and the answering region.
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
        let submodel = self
            .submodels
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, s)| s)
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
        submodel.eval_traced(clamped.get(..sizes.len()).unwrap_or_default())
    }

    pub(crate) fn submodels(&self) -> &[(FlagKey, CompiledSubmodel)] {
        &self.submodels
    }

    /// Rebuilds a compiled routine model from serialized sections, applying
    /// the same space-clamp initialisation as
    /// [`compile`](CompiledRoutineModel::compile).
    pub(crate) fn from_raw_parts(
        routine: Routine,
        space: &Region,
        submodels: Vec<(FlagKey, CompiledSubmodel)>,
    ) -> CompiledRoutineModel {
        let mut space_lo = [0usize; MAX_DIM];
        let mut space_hi = [usize::MAX; MAX_DIM];
        let dims = space.dim().min(MAX_DIM);
        space_lo[..dims].copy_from_slice(&space.lo()[..dims]);
        space_hi[..dims].copy_from_slice(&space.hi()[..dims]);
        CompiledRoutineModel {
            routine,
            space_lo,
            space_hi,
            submodels,
        }
    }
}

/// A fully compiled [`ModelRepository`]: the source repository plus one
/// [`CompiledRoutineModel`] per stored model.
///
/// Compilation happens once — the serving layer (`dla-predict`'s
/// `ModelService`) compiles at construction and on every swap/merge, so
/// every reader snapshot is already compiled.  Binary-loaded repositories
/// ([`crate::binfmt::decode`]) rebuild both halves in one decode pass, with
/// no re-compilation.
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

    /// Compiles an already-shared repository snapshot.
    pub fn compile_arc(source: Arc<ModelRepository>) -> CompiledRepository {
        let entries = source
            .iter()
            .map(|(key, model)| (key.clone(), CompiledRoutineModel::compile(model)))
            .collect();
        CompiledRepository { source, entries }
    }

    /// Assembles a compiled repository from a decoded source and its
    /// decoded compiled entries (the binary loader's entry point).
    pub(crate) fn from_parts(
        source: ModelRepository,
        entries: Vec<(ModelKey, CompiledRoutineModel)>,
    ) -> CompiledRepository {
        CompiledRepository {
            source: Arc::new(source),
            entries,
        }
    }

    pub(crate) fn entries(&self) -> &[(ModelKey, CompiledRoutineModel)] {
        &self.entries
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

    /// Looks up the compiled model for a routine / machine / locality
    /// combination.
    pub fn get(
        &self,
        routine: Routine,
        machine_id: &str,
        locality: Locality,
    ) -> Option<&CompiledRoutineModel> {
        // Qualified calls: dla-lint resolves a `.name()` method call to every
        // workspace `name` method, some of which allocate, and a slice
        // `.get(…)` on the query path resolves to this function.
        let routine_name = Routine::name(&routine);
        let locality_name = Locality::name(&locality);
        self.entries
            .iter()
            .find(|(key, _)| {
                key.routine == routine_name
                    && key.locality == locality_name
                    && key.machine_id == machine_id
            })
            .map(|(_, model)| model)
    }

    /// Pre-resolves one machine/locality combination into a per-routine
    /// routing table, so per-call lookups are a plain array index.
    // lint: allow(panic-free): routine.index() is bounded by Routine::ALL, the
    // slots array's length
    pub fn resolve(&self, machine_id: &str, locality: Locality) -> RoutineTable {
        let mut table = RoutineTable::default();
        for routine in Routine::ALL {
            table.slots[routine.index()] = self
                .entries
                .iter()
                .position(|(key, _)| {
                    key.routine == routine.name()
                        && key.locality == locality.name()
                        && key.machine_id == machine_id
                })
                .map(|i| i as u32);
        }
        table
    }

    /// The compiled model at a [`RoutineTable`] slot.
    // lint: allow(panic-free): slots come from resolve()'s position() over the
    // same entries vec
    pub fn model_at(&self, slot: usize) -> &CompiledRoutineModel {
        &self.entries[slot].1
    }
}

/// A pre-resolved (machine, locality) routing table: one optional
/// [`CompiledRepository`] slot per routine.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoutineTable {
    slots: [Option<u32>; Routine::ALL.len()],
}

impl RoutineTable {
    /// The repository slot of `routine`'s model, if present.
    // lint: allow(panic-free): routine.index() is bounded by Routine::ALL, the
    // slots array's length
    pub fn slot(&self, routine: Routine) -> Option<usize> {
        self.slots[routine.index()].map(|i| i as usize)
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

    fn assert_matches(naive: &PiecewiseModel, compiled: &CompiledPiecewise, point: &[usize]) {
        let n = naive.eval(point).unwrap();
        let c = compiled.eval(point).unwrap();
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
            let mut x = [0.0; MAX_DIM];
            x[..2].copy_from_slice(&x_vec);
            let reference = rm.poly.eval(&x_vec);
            let fused = compiled.eval(&x);
            for q in Quantity::ALL {
                assert!(
                    close(reference.get(q), fused[q.index()]),
                    "{q:?}: {} vs {}",
                    reference.get(q),
                    fused[q.index()]
                );
            }
        }
        assert!(compiled.term_count() >= 6);
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
        assert!(compiled.is_indexed());
        assert!(compiled.cell_count() >= 4);
        assert_eq!(compiled.region_count(), model.region_count());
        for p in space.sample_grid(9, 1) {
            assert_matches(&model, &compiled, &p);
        }
    }

    /// The cell table equals a per-cell scan: the first minimal-error region
    /// containing the cell (NaN errors last, ties to the lower index), or —
    /// for uncovered cells — the cell's fallback candidate set, numbered in
    /// row-major cell order.
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
        assert!(compiled.is_indexed());
        let n = compiled.regions.len();
        let per_dim: Vec<usize> = compiled.cuts.iter().map(|c| c.len() - 1).collect();
        let mut fallbacks_seen = 0;
        for i in 0..per_dim[0] {
            for j in 0..per_dim[1] {
                let rep = [compiled.cuts[0][i], compiled.cuts[1][j], 0, 0];
                let hi = [
                    compiled.cuts[0][i + 1] - 1,
                    compiled.cuts[1][j + 1] - 1,
                    0,
                    0,
                ];
                let cell = compiled.cells[i * compiled.strides[0] + j] as usize;
                match best_containing(&compiled.regions, 2, &rep[..2]) {
                    Some(winner) => assert_eq!(cell, winner, "cell at {rep:?}"),
                    None => {
                        assert_eq!(cell, n + fallbacks_seen, "fallback order at {rep:?}");
                        assert_eq!(
                            compiled.fallbacks[cell - n],
                            fallback_candidates(&compiled.regions, 2, &rep, &hi)
                        );
                        fallbacks_seen += 1;
                    }
                }
            }
        }
        assert!(fallbacks_seen > 0, "the layout leaves uncovered cells");
        assert_eq!(fallbacks_seen, compiled.fallbacks.len());
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
    /// the binary search: the same cell inside the cut range, `NearestAll`
    /// outside it, and otherwise the cell's winner or fallback set.
    fn assert_tables_match_binary_search(compiled: &CompiledPiecewise) {
        assert!(compiled.is_indexed());
        let n = compiled.regions.len();
        let probes: Vec<[usize; 3]> = compiled
            .cuts
            .iter()
            .map(|c| [c[0], c[c.len() / 2], c[c.len() - 1] - 1])
            .collect();
        let mut checked = 0;
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
                        (PointLoc::NearestAll, None) => {}
                        (PointLoc::Region(i, region), Some(cell)) => {
                            assert_eq!(i, compiled.cells[cell], "winner at {point:?}");
                            assert_eq!(region, &compiled.regions[i as usize]);
                        }
                        (PointLoc::NearestAmong(candidates), Some(cell)) => {
                            let v = compiled.cells[cell] as usize;
                            assert!(v >= n, "fallback at a covered cell {point:?}");
                            assert_eq!(candidates, compiled.fallbacks[v - n].as_slice());
                        }
                        (loc, expected) => {
                            panic!("{point:?}: located {loc:?}, searched {expected:?}")
                        }
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
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
            !compiled.fallbacks.is_empty(),
            "the layout leaves uncovered cells"
        );
        assert_tables_match_binary_search(&compiled);

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
        assert_tables_match_binary_search(&compiled);
    }

    #[test]
    fn spans_beyond_the_cap_locate_by_scan() {
        // One cell, but a coordinate span past CELL_CAP: the locate tables
        // would be oversized, so the model is not indexed.
        let wide = Region::new(vec![8], vec![CELL_CAP + 8]);
        let model = PiecewiseModel::new(wide.clone(), vec![fitted_region(&wide, 6)], 6);
        let compiled = CompiledPiecewise::compile(&model).unwrap();
        assert!(!compiled.is_indexed());
        assert!(compiled.offsets.is_empty());
        for p in [0, 8, 1000, CELL_CAP, CELL_CAP + 8, CELL_CAP + 100] {
            assert_matches(&model, &compiled, &[p]);
        }
        // The same model one coordinate narrower fits the cap exactly.
        let fits = Region::new(vec![8], vec![CELL_CAP + 7]);
        let model = PiecewiseModel::new(fits.clone(), vec![fitted_region(&fits, 6)], 6);
        let compiled = CompiledPiecewise::compile(&model).unwrap();
        assert!(compiled.is_indexed());
        assert_eq!(compiled.offsets.len(), CELL_CAP);
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
        assert!(!sub.is_fast());
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
        let fast = compiled.model_at(slot);
        assert_eq!(fast.routine(), Routine::Trsm);
        assert_eq!(fast.submodel_count(), 1);
        assert_eq!(fast.fast_submodel_count(), 1);
        let estimate = fast.estimate(&call).unwrap();
        let reference = model.estimate(&call).unwrap();
        assert!(close(estimate.median, reference.median));
        // Clamping matches the reference too (700 > 512).
        assert!(close(estimate.max, reference.max));

        // Missing pieces surface exactly like the reference.
        assert!(table.slot(Routine::Gemm).is_none());
        assert!(compiled
            .get(Routine::Trsm, "machine-b", Locality::InCache)
            .is_none());
        assert!(compiled
            .get(Routine::Trsm, "machine-a", Locality::OutOfCache)
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
}
