//! The compiled evaluation engine: indexed region lookup and fused,
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
//!   coefficient matrix.
//! * **Region index** ([`CompiledPiecewise`]): refinement regions stem from
//!   axis-aligned splits, so their boundaries induce per-dimension sorted cut
//!   arrays.  A query point maps to a grid cell by binary search; every cell
//!   precomputes its best (minimum-error) containing region, and uncovered
//!   cells precompute the candidate set for the nearest-region fallback.
//! * **Zero-allocation path**: normalised coordinates live in fixed scratch
//!   ([`MAX_DIM`]), submodel lookup uses the fixed-size
//!   [`FlagKey`](crate::FlagKey), and [`CompiledRepository::resolve`]
//!   pre-resolves machine/locality into a [`RoutineTable`] so the per-call
//!   path performs no hashing and no string comparison.
//!
//! Shapes the fast path cannot represent (dimension above [`MAX_DIM`],
//! exponents beyond the power ladder, oversized cell tables) transparently
//! fall back to the reference implementation, so compiled evaluation is
//! always *available*, merely not always accelerated.  Equivalence between
//! the two implementations is enforced by property tests
//! (`crates/core/tests/eval_equivalence.rs`).

// The evaluators below are index-heavy numeric loops over fixed-size scratch
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

/// Points per micro-tile of the batch evaluator: small enough that the five
/// accumulator lanes live in registers across the whole monomial plan and the
/// power-ladder scratch (a few hundred bytes) never leaves L1, while every
/// inner loop still runs over `TILE` contiguous doubles — the shape
/// auto-vectorizers want.
const TILE: usize = 8;

/// Upper bound on the size of a cell table; larger index grids degrade to an
/// in-order (but still allocation-free) region scan.
const CELL_CAP: usize = 1 << 18;

/// A flat, structure-of-arrays batch of integer query points: one contiguous
/// `[usize]` column per dimension.
///
/// This is the first-class input of the batch evaluation hot path
/// ([`CompiledPiecewise::eval_batch`]): the kernel reads whole columns with
/// unit stride, normalises them into per-tile `f64` lanes, and evaluates the
/// shared power-ladder basis across the block in auto-vectorizable loops.
/// Row-major callers (`&[Vec<usize>]`) convert once through
/// [`BatchPoints::from_rows`] or the [`CompiledPiecewise::eval_batch_rows`]
/// adapter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchPoints {
    /// One column per dimension; all columns share the same length.
    columns: Vec<Vec<usize>>,
    len: usize,
}

impl BatchPoints {
    /// An empty batch of `dim`-dimensional points.
    pub fn new(dim: usize) -> BatchPoints {
        BatchPoints {
            columns: vec![Vec::new(); dim],
            len: 0,
        }
    }

    /// An empty batch with room for `capacity` points per column.
    pub fn with_capacity(dim: usize, capacity: usize) -> BatchPoints {
        BatchPoints {
            columns: (0..dim).map(|_| Vec::with_capacity(capacity)).collect(),
            len: 0,
        }
    }

    /// Converts a row-major point list into columns.  Every row must have
    /// arity `dim`.
    pub fn from_rows(dim: usize, points: &[Vec<usize>]) -> Result<BatchPoints> {
        let mut batch = BatchPoints::with_capacity(dim, points.len());
        for point in points {
            if point.len() != dim {
                return Err(ModelError::OutOfDomain(format!(
                    "point arity {} does not match batch dimension {dim}",
                    point.len()
                )));
            }
            batch.push(point);
        }
        Ok(batch)
    }

    /// Appends one point.
    ///
    /// # Panics
    ///
    /// Panics when `point.len()` differs from the batch dimension (the same
    /// contract as [`Region::new`]'s arity check).
    // lint: allow(panic-free): the arity assert is the documented contract;
    // serving batches are built with the model's dimension
    pub fn push(&mut self, point: &[usize]) {
        assert_eq!(
            point.len(),
            self.columns.len(),
            "point arity must match the batch dimension"
        );
        for (column, &value) in self.columns.iter_mut().zip(point) {
            column.push(value);
        }
        self.len += 1;
    }

    /// Number of dimensions (columns).
    pub fn dim(&self) -> usize {
        self.columns.len()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the batch holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all points, keeping the column allocations for reuse.
    pub fn clear(&mut self) {
        for column in &mut self.columns {
            column.clear();
        }
        self.len = 0;
    }

    /// The contiguous column of dimension `d`.
    pub fn column(&self, d: usize) -> &[usize] {
        &self.columns[d]
    }

    /// Copies point `i` into fixed scratch (dimensions above [`MAX_DIM`] are
    /// ignored; callers reject such batches before reading points).
    #[inline]
    pub(crate) fn read_point(&self, i: usize, out: &mut [usize; MAX_DIM]) {
        for (d, column) in self.columns.iter().take(MAX_DIM).enumerate() {
            out[d] = column[i];
        }
    }
}

/// The five quantity polynomials of a [`VectorPolynomial`] compiled into one
/// shared monomial plan with an SoA coefficient matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledVectorPolynomial {
    dim: usize,
    term_count: usize,
    /// Term-major exponent matrix, `term_count * dim` entries.
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
        if dim == 0 || dim > MAX_DIM {
            return None;
        }
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
            dim,
            term_count,
            exponents,
            coefficients,
            max_exp,
        })
    }

    /// Number of terms in the shared monomial plan.
    pub fn term_count(&self) -> usize {
        self.term_count
    }

    /// The arity of the compiled plan.
    pub(crate) fn dim(&self) -> usize {
        self.dim
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
        if dim == 0 || dim > MAX_DIM {
            return Err(ModelError::Parse(format!(
                "binary repository: compiled polynomial dimension {dim} outside 1..={MAX_DIM}"
            )));
        }
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
            dim,
            term_count,
            exponents,
            coefficients,
            max_exp,
        })
    }

    /// Evaluates all five quantities at a normalised point, with the same
    /// non-negativity clamp and NaN preservation as
    /// [`VectorPolynomial::eval`].
    // lint: allow(panic-free): dim and max_exp are clamped to MAX_DIM/MAX_EXP at
    // compile time, and the exponent/coefficient slices are sized term_count*dim
    // and term_count*5 by construction
    #[inline]
    pub fn eval(&self, x: &[f64; MAX_DIM]) -> [f64; 5] {
        // lint: hot-path begin
        // Power ladders: pows[d][e] = x[d]^e, built with one multiply per
        // entry instead of a `powi` per term and quantity.
        let mut pows = [[1.0f64; MAX_EXP + 1]; MAX_DIM];
        for d in 0..self.dim {
            let mut p = 1.0;
            for e in 1..=self.max_exp[d] as usize {
                p *= x[d];
                pows[d][e] = p;
            }
        }
        let mut acc = [0.0f64; 5];
        for t in 0..self.term_count {
            let exps = &self.exponents[t * self.dim..(t + 1) * self.dim];
            let mut basis = 1.0;
            for (d, &e) in exps.iter().enumerate() {
                basis *= pows[d][e as usize];
            }
            let coeffs = &self.coefficients[t * 5..t * 5 + 5];
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

    // lint: allow(panic-free): d < dim <= MAX_DIM bounds the fixed arrays, and
    // point arity is validated at the public entry
    #[inline]
    fn contains(&self, dim: usize, point: &[usize]) -> bool {
        (0..dim).all(|d| point[d] >= self.lo[d] && point[d] <= self.hi[d])
    }

    /// Same arithmetic as the reference `region_distance`.
    // lint: allow(panic-free): d < dim <= MAX_DIM bounds the fixed arrays, and
    // point arity is validated at the public entry
    #[inline]
    fn distance(&self, dim: usize, point: &[usize]) -> f64 {
        let mut acc = 0.0;
        for d in 0..dim {
            let p = point[d] as f64;
            let dd = if p < self.lo_f[d] {
                self.lo_f[d] - p
            } else if p > self.hi_f[d] {
                p - self.hi_f[d]
            } else {
                0.0
            };
            acc += dd * dd;
        }
        acc.sqrt()
    }

    /// Normalises into fixed scratch (same arithmetic as
    /// [`Region::normalize`]) and evaluates the fused polynomial.
    // lint: allow(panic-free): the scratch array is MAX_DIM-sized, d < dim <=
    // MAX_DIM, and point arity is validated at the public entry
    #[inline]
    fn eval(&self, dim: usize, point: &[usize]) -> Summary {
        // lint: hot-path begin
        let mut x = [0.0f64; MAX_DIM];
        for d in 0..dim {
            x[d] = if self.extent_f[d] == 0.0 {
                0.0
            } else {
                (point[d] as f64 - self.lo_f[d]) / self.extent_f[d]
            };
        }
        let summary = Summary::from_quantities(&self.poly.eval(&x));
        // lint: hot-path end
        summary
    }
}

/// Where a point resolved during location: a concrete region, a cell's
/// precomputed fallback candidate set, or the full nearest-region scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PointLoc {
    /// Covered by the region at this index (source region order).
    Region(usize),
    /// Uncovered but inside the index: nearest among this fallback set.
    NearestAmong(usize),
    /// Outside the indexed range (or unindexed and uncovered): nearest over
    /// all regions.
    NearestAll,
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
    /// `false` when the cell table would exceed [`CELL_CAP`]: point location
    /// then degrades to an in-order region scan (still allocation-free).
    indexed: bool,
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
        // Checked product: a degenerate model with enough region boundaries
        // could overflow, which must degrade to the scan path, not wrap.
        let total_cells = cells_per_dim
            .iter()
            .try_fold(1usize, |acc, &c| acc.checked_mul(c));
        let indexed = matches!(total_cells, Some(t) if (1..=CELL_CAP).contains(&t));

        let mut compiled = CompiledPiecewise {
            dim,
            regions,
            cuts,
            cells: Vec::new(),
            strides: [0; MAX_DIM],
            fallbacks: Vec::new(),
            indexed,
        };
        if !indexed {
            return Some(compiled);
        }
        // lint: allow(unwrap): the indexed flag is only set together with a valid cell count
        let total_cells = total_cells.expect("indexed implies a valid cell count");
        // Row-major strides: last dimension contiguous.
        let mut stride = 1;
        for d in (0..dim).rev() {
            compiled.strides[d] = stride;
            stride *= cells_per_dim[d];
        }
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
    /// establishes so corrupt inputs surface as errors, never panics.
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
        if indexed {
            if total != cells.len() {
                return bad(format!(
                    "cell table length {} does not match cut grid ({total} cells)",
                    cells.len()
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
            let mut stride = 1usize;
            for d in (0..dim).rev() {
                strides[d] = stride;
                stride *= cuts[d].len() - 1;
            }
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
            // lint: allow(panic-free): locate only returns indices into self.regions
            PointLoc::Region(r) => (self.regions[r].eval(self.dim, point), r as u32),
            // lint: allow(panic-free): locate only returns indices into self.fallbacks
            PointLoc::NearestAmong(f) => self.nearest(point, Some(&self.fallbacks[f])),
            PointLoc::NearestAll => self.nearest(point, None),
        })
    }

    /// Locates the region that answers `point`: the cell table's precomputed
    /// winner on the indexed path, the in-order scan otherwise, or a
    /// nearest-region fallback directive for uncovered points.
    // lint: allow(panic-free): point arity is validated by eval_traced, d < dim
    // bounds the cut/stride tables, and the cell index stays inside the table
    // because every dimension's contribution is clamped by partition_point
    #[inline]
    fn locate(&self, point: &[usize]) -> PointLoc {
        // lint: hot-path begin
        if !self.indexed {
            return match best_containing(&self.regions, self.dim, point) {
                Some(best) => PointLoc::Region(best),
                None => PointLoc::NearestAll,
            };
        }
        let mut cell = 0usize;
        for d in 0..self.dim {
            let cuts = &self.cuts[d];
            let p = point[d];
            // lint: allow(unwrap): the index is only built for models with at least one region, so cuts are non-empty
            if p < cuts[0] || p >= *cuts.last().expect("non-empty cuts") {
                // Outside the indexed range in this dimension, hence outside
                // every region: exact nearest-region fallback.
                return PointLoc::NearestAll;
            }
            cell += (cuts.partition_point(|&b| b <= p) - 1) * self.strides[d];
        }
        let v = self.cells[cell] as usize;
        // lint: hot-path end
        if v < self.regions.len() {
            PointLoc::Region(v)
        } else {
            PointLoc::NearestAmong(v - self.regions.len())
        }
    }

    /// Evaluates the model at every point of a batch through the SoA block
    /// kernel (one output allocation, zero allocations per point; results are
    /// bit-identical to pointwise [`eval`](CompiledPiecewise::eval)).
    pub fn eval_batch(&self, points: &BatchPoints) -> Result<Vec<Summary>> {
        let mut out = Vec::with_capacity(points.len());
        self.eval_batch_into(points, &mut out)?;
        Ok(out)
    }

    /// Row-major adapter for [`eval_batch`](CompiledPiecewise::eval_batch):
    /// converts `&[Vec<usize>]` callers once and runs the same tile kernel.
    pub fn eval_batch_rows(&self, points: &[Vec<usize>]) -> Result<Vec<Summary>> {
        self.eval_batch(&BatchPoints::from_rows(self.dim, points)?)
    }

    /// Streaming batch evaluation into a caller-owned output slab (cleared
    /// and refilled), so sweeps can reuse one allocation across batches.
    pub fn eval_batch_into(&self, points: &BatchPoints, out: &mut Vec<Summary>) -> Result<()> {
        self.eval_batch_traced_into(points, out, None)
    }

    /// [`eval_batch_into`](CompiledPiecewise::eval_batch_into), additionally
    /// reporting the answering region index per point (source region order)
    /// when `regions` is given — the batch counterpart of
    /// [`eval_traced`](CompiledPiecewise::eval_traced) that the serving
    /// layer's telemetry consumes.
    pub fn eval_batch_traced_into(
        &self,
        points: &BatchPoints,
        out: &mut Vec<Summary>,
        mut regions: Option<&mut Vec<u32>>,
    ) -> Result<()> {
        if points.dim() != self.dim {
            return Err(ModelError::OutOfDomain(format!(
                "point arity {} does not match model dimension {}",
                points.dim(),
                self.dim
            )));
        }
        out.clear();
        if let Some(r) = regions.as_deref_mut() {
            r.clear();
        }
        let n = points.len();
        if n == 0 {
            return Ok(());
        }
        let mut scratch = [0usize; MAX_DIM];
        if n <= 2 {
            // Tiny batches: the scalar path beats the batch machinery's
            // fixed costs (slab allocation, grouping), and results are
            // identical either way.
            for i in 0..n {
                points.read_point(i, &mut scratch);
                let (summary, region) = self.eval_traced(&scratch[..self.dim])?;
                out.push(summary);
                if let Some(regs) = regions.as_deref_mut() {
                    regs.push(region);
                }
            }
            return Ok(());
        }
        if n > u32::MAX as usize {
            return Err(ModelError::OutOfDomain(format!(
                "batch of {n} points exceeds the supported maximum {}",
                u32::MAX
            )));
        }
        // Results are scattered back by point index, so grouping below can
        // reorder evaluation freely without changing the output order.
        out.resize(n, Summary::from_quantities(&[0.0; 5]));
        if let Some(r) = regions.as_deref_mut() {
            r.resize(n, 0);
        }
        // Locate pass: record every covered point's answering region and
        // resolve uncovered points through the exact scalar fallback right
        // away.  The per-region counts feed a counting sort below —
        // O(n + regions) instead of a comparison sort, and stable in point
        // order, so grouping is fully deterministic.
        const UNCOVERED: u32 = u32::MAX;
        let mut locs: Vec<u32> = Vec::with_capacity(n);
        let mut counts = vec![0u32; self.regions.len()];
        for i in 0..n {
            points.read_point(i, &mut scratch);
            match self.locate(&scratch[..self.dim]) {
                PointLoc::Region(r) => {
                    counts[r] += 1;
                    locs.push(r as u32);
                }
                loc => {
                    let (summary, region) = match loc {
                        PointLoc::NearestAmong(f) => {
                            self.nearest(&scratch[..self.dim], Some(&self.fallbacks[f]))
                        }
                        _ => self.nearest(&scratch[..self.dim], None),
                    };
                    out[i] = summary;
                    if let Some(regs) = regions.as_deref_mut() {
                        regs[i] = region;
                    }
                    locs.push(UNCOVERED);
                }
            }
        }
        // Counting sort: exclusive prefix sum over the region counts, then
        // one placement pass scatters each covered point's index into its
        // region's slice of `order`.
        let mut cursor: Vec<u32> = Vec::with_capacity(counts.len());
        let mut covered = 0u32;
        for &c in &counts {
            cursor.push(covered);
            covered += c;
        }
        let mut order = vec![0u32; covered as usize];
        for (i, &r) in locs.iter().enumerate() {
            if r != UNCOVERED {
                order[cursor[r as usize] as usize] = i as u32;
                cursor[r as usize] += 1;
            }
        }
        // Per-region evaluation over the gathered groups.
        let mut begin = 0usize;
        for (r, &count) in counts.iter().enumerate() {
            let count = count as usize;
            if count == 0 {
                continue;
            }
            let ids = &order[begin..begin + count];
            self.eval_region_batch(r, points, ids, out);
            if let Some(regs) = regions.as_deref_mut() {
                for &i in ids {
                    regs[i as usize] = r as u32;
                }
            }
            begin += count;
        }
        Ok(())
    }

    /// Evaluates one region's fused polynomial over a gathered group of
    /// batch points (`ids` holds the point indices) in micro-tiles of
    /// [`TILE`].  Per tile: gather and normalise the coordinates into
    /// per-dimension lanes, grow the power ladders one multiply per level,
    /// then stream the shared monomial plan with the five accumulator lanes
    /// held in registers — every inner loop runs over `TILE` contiguous
    /// doubles, and the only memory traffic per term is the ladder loads.
    /// The per-point operation order matches the scalar evaluator exactly
    /// (skipped `x^0` factors multiply by literal `1.0` there, which is
    /// bit-exact), so batch results equal pointwise results bit-for-bit.
    // lint: allow(panic-free): tile lanes are bounded by TILE, ladder levels by
    // MAX_EXP/MAX_DIM, `ids` holds validated point indices, and term slices are
    // sized at compile time
    fn eval_region_batch(
        &self,
        region: usize,
        points: &BatchPoints,
        ids: &[u32],
        out: &mut [Summary],
    ) {
        let reg = &self.regions[region];
        let poly = &reg.poly;
        let dim = self.dim;
        // lint: hot-path begin
        // The ladder scratch is zeroed once per group: lanes past the tail
        // length are never read, and zero-extent dimensions (never written)
        // must read as the scalar path's `x = 0.0`.
        let mut lad = [[[0.0f64; TILE]; MAX_EXP]; MAX_DIM];
        let mut base = 0;
        while base < ids.len() {
            let tl = (ids.len() - base).min(TILE);
            let tile = &ids[base..base + tl];
            // Gathered, normalised coordinates (same arithmetic as the
            // scalar path, including the zero-extent rule), then the power
            // ladders: level `e` lane = level `e - 1` lane times `x`, the
            // same single multiply per entry as the scalar ladder.
            for d in 0..dim {
                if reg.extent_f[d] != 0.0 {
                    let column = points.column(d);
                    let lo = reg.lo_f[d];
                    let extent = reg.extent_f[d];
                    for (j, &i) in tile.iter().enumerate() {
                        lad[d][0][j] = (column[i as usize] as f64 - lo) / extent;
                    }
                }
                let levels = poly.max_exp[d] as usize;
                for e in 1..levels {
                    for j in 0..tl {
                        lad[d][e][j] = lad[d][e - 1][j] * lad[d][0][j];
                    }
                }
            }
            // Stream the monomial plan: build each term's basis lane from the
            // ladders (skipping exact `* 1.0` factors), then feed the five
            // register-resident accumulator lanes.
            let mut acc = [[0.0f64; TILE]; 5];
            for t in 0..poly.term_count {
                let exps = &poly.exponents[t * dim..(t + 1) * dim];
                let mut basis = [0.0f64; TILE];
                let mut have_factor = false;
                for (d, &e) in exps.iter().enumerate() {
                    if e == 0 {
                        continue;
                    }
                    let level = &lad[d][e as usize - 1];
                    if have_factor {
                        for j in 0..TILE {
                            basis[j] *= level[j];
                        }
                    } else {
                        basis.copy_from_slice(level);
                        have_factor = true;
                    }
                }
                if !have_factor {
                    basis.fill(1.0);
                }
                let coeffs = &poly.coefficients[t * 5..t * 5 + 5];
                for (row, &c) in acc.iter_mut().zip(coeffs) {
                    for j in 0..TILE {
                        row[j] += c * basis[j];
                    }
                }
            }
            // Clamp and scatter back to each point's slot, identical to the
            // scalar epilogue.
            for (j, &i) in tile.iter().enumerate() {
                let mut values = [acc[0][j], acc[1][j], acc[2][j], acc[3][j], acc[4][j]];
                for v in &mut values {
                    if !v.is_nan() {
                        *v = v.max(0.0);
                    }
                }
                out[i as usize] = Summary::from_quantities(&values);
            }
            base += tl;
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
        (self.regions[best].eval(self.dim, point), best as u32)
    }
}

/// The best (minimum-error, NaN-last, first-wins) region containing `point`,
/// iterating in stored order exactly like the reference evaluator.
// lint: allow(panic-free): `b` indexes the same slice enumerate produced it from
fn best_containing(regions: &[CompiledRegion], dim: usize, point: &[usize]) -> Option<usize> {
    // lint: hot-path begin
    let mut best: Option<usize> = None;
    for (i, r) in regions.iter().enumerate() {
        if !r.contains(dim, point) {
            continue;
        }
        match best {
            None => best = Some(i),
            Some(b) => {
                if error_order(r.error, regions[b].error) == Ordering::Less {
                    best = Some(i);
                }
            }
        }
    }
    // lint: hot-path end
    best
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
        if call.routine() != self.routine {
            return Err(ModelError::MissingSubmodel(format!(
                "model is for {}, call is {}",
                self.routine,
                call.routine()
            )));
        }
        let key = submodel_key(call);
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
        let (sizes, len) = call.sizes_fixed();
        let mut clamped = [0usize; MAX_DIM];
        for d in 0..len.min(MAX_DIM) {
            // lint: allow(panic-free): d < len.min(MAX_DIM) bounds every array
            clamped[d] = sizes[d].clamp(self.space_lo[d], self.space_hi[d]);
        }
        submodel
            // lint: allow(panic-free): len <= Call::MAX_SIZES, which never exceeds MAX_DIM
            .eval_traced(&clamped[..len])
            .map(|(summary, region)| (summary, key, region))
    }

    /// Returns `true` when a compiled submodel exists for this flag key.
    pub fn has_submodel(&self, key: FlagKey) -> bool {
        self.submodels.iter().any(|(k, _)| *k == key)
    }

    /// Clamps `sizes` into the model's sampled space — the exact per-call
    /// clamping [`estimate_traced`](CompiledRoutineModel::estimate_traced)
    /// applies before evaluation, exposed so batch callers can pre-clamp
    /// points into a [`BatchPoints`] column store.
    pub fn clamp_sizes(&self, sizes: &[usize], clamped: &mut [usize; MAX_DIM]) {
        for d in 0..sizes.len().min(MAX_DIM) {
            clamped[d] = sizes[d].clamp(self.space_lo[d], self.space_hi[d]);
        }
    }

    /// Batch counterpart of the evaluation step of
    /// [`estimate_traced`](CompiledRoutineModel::estimate_traced): evaluates
    /// every (already clamped) point of `points` against the submodel for
    /// `key`, filling `out` (and `regions`, when given, with the answering
    /// region index per point).  Results are bit-identical to the pointwise
    /// path.
    pub fn estimate_batch_clamped(
        &self,
        key: FlagKey,
        points: &BatchPoints,
        out: &mut Vec<Summary>,
        mut regions: Option<&mut Vec<u32>>,
    ) -> Result<()> {
        let submodel = self
            .submodels
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, s)| s)
            .ok_or_else(|| {
                ModelError::MissingSubmodel(format!(
                    "no submodel for {} flags {:?}",
                    self.routine, key
                ))
            })?;
        match submodel {
            CompiledSubmodel::Fast(c) => {
                c.eval_batch_traced_into(points, out, regions.as_deref_mut())
            }
            CompiledSubmodel::Reference(m) => {
                let dim = points.dim();
                if dim > MAX_DIM {
                    return Err(ModelError::OutOfDomain(format!(
                        "point arity {dim} exceeds the supported maximum {MAX_DIM}"
                    )));
                }
                out.clear();
                out.reserve(points.len());
                if let Some(r) = regions.as_deref_mut() {
                    r.clear();
                    r.reserve(points.len());
                }
                let mut scratch = [0usize; MAX_DIM];
                for i in 0..points.len() {
                    points.read_point(i, &mut scratch);
                    let (summary, region) = m.eval_traced(&scratch[..dim])?;
                    out.push(summary);
                    if let Some(r) = regions.as_deref_mut() {
                        r.push(region as u32);
                    }
                }
                Ok(())
            }
        }
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
        let routine_name = routine.name();
        let locality_name = locality.name();
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
        // Batch evaluation agrees bit-for-bit with pointwise evaluation,
        // through both the row adapter and the column store directly.
        let points = space.sample_grid(5, 8);
        let batch = compiled.eval_batch_rows(&points).unwrap();
        for (p, b) in points.iter().zip(&batch) {
            assert_eq!(compiled.eval(p).unwrap(), *b);
        }
        let columns = BatchPoints::from_rows(2, &points).unwrap();
        assert_eq!(columns.len(), points.len());
        assert_eq!(compiled.eval_batch(&columns).unwrap(), batch);
        // The traced variant reports the same regions as scalar tracing.
        let mut out = Vec::new();
        let mut regs = Vec::new();
        compiled
            .eval_batch_traced_into(&columns, &mut out, Some(&mut regs))
            .unwrap();
        for ((p, s), r) in points.iter().zip(&out).zip(&regs) {
            let (scalar, region) = compiled.eval_traced(p).unwrap();
            assert_eq!(scalar, *s);
            assert_eq!(region, *r);
        }
        // Arity mismatches surface as errors on the batch path too.
        let wrong = BatchPoints::from_rows(1, &[vec![64]]).unwrap();
        assert!(compiled.eval_batch(&wrong).is_err());
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
