//! Axis-aligned regions of the integer parameter space.

/// An axis-aligned box `[lo_d, hi_d]` (inclusive on both ends) in the integer
/// parameter space of a routine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    lo: Vec<usize>,
    hi: Vec<usize>,
}

impl Region {
    /// Creates a region; panics if the bounds have different arity or are
    /// inverted.
    pub fn new(lo: Vec<usize>, hi: Vec<usize>) -> Region {
        assert!(
            Region::valid_bounds(&lo, &hi),
            "region bounds inverted or of different arity: {lo:?}..{hi:?}"
        );
        Region { lo, hi }
    }

    /// Creates a region, or `None` if the bounds have different arity or are
    /// inverted: the form decoders of untrusted input use.
    pub fn try_new(lo: Vec<usize>, hi: Vec<usize>) -> Option<Region> {
        Region::valid_bounds(&lo, &hi).then_some(Region { lo, hi })
    }

    fn valid_bounds(lo: &[usize], hi: &[usize]) -> bool {
        lo.len() == hi.len() && lo.iter().zip(hi).all(|(l, h)| l <= h)
    }

    /// A one-dimensional region.
    pub fn interval(lo: usize, hi: usize) -> Region {
        Region::new(vec![lo], vec![hi])
    }

    /// Dimensionality of the region.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner (inclusive).
    pub fn lo(&self) -> &[usize] {
        &self.lo
    }

    /// Upper corner (inclusive).
    pub fn hi(&self) -> &[usize] {
        &self.hi
    }

    /// Side length along dimension `d` (inclusive extent).
    // lint: allow(panic-free): callers pass d < dim(), the arity Region::new validated
    pub fn extent(&self, d: usize) -> usize {
        self.hi[d] - self.lo[d]
    }

    /// Smallest side extent across the dimensions.
    pub fn min_extent(&self) -> usize {
        (0..self.dim()).map(|d| self.extent(d)).min().unwrap_or(0)
    }

    /// Returns `true` if the point lies inside the region (inclusive bounds).
    // lint: allow(panic-free): the arity conjunct guarantees d < dim before the
    // bounds are read
    pub fn contains(&self, point: &[usize]) -> bool {
        point.len() == self.dim()
            && point
                .iter()
                .enumerate()
                .all(|(d, &p)| p >= self.lo[d] && p <= self.hi[d])
    }

    /// Returns `true` if `other` overlaps this region in every dimension.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.dim() == other.dim()
            && (0..self.dim()).all(|d| self.lo[d] <= other.hi[d] && other.lo[d] <= self.hi[d])
    }

    /// Returns `true` if `other` is entirely inside this region.
    pub fn contains_region(&self, other: &Region) -> bool {
        self.dim() == other.dim()
            && (0..self.dim()).all(|d| other.lo[d] >= self.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Grows the region along dimension `d` by `amount` in the positive
    /// (`forward = true`) or negative direction, clamping at `bound`.
    pub fn grown(&self, d: usize, amount: usize, forward: bool, bound: &Region) -> Region {
        let mut r = self.clone();
        if forward {
            r.hi[d] = (r.hi[d] + amount).min(bound.hi[d]);
        } else {
            r.lo[d] = r.lo[d].saturating_sub(amount).max(bound.lo[d]);
        }
        r
    }

    /// Splits the region in half along every dimension whose extent exceeds
    /// `min_extent`, producing up to `2^dim` sub-regions aligned to `step`.
    pub fn split(&self, min_extent: usize, step: usize) -> Vec<Region> {
        let dim = self.dim();
        // Determine, per dimension, the split point (if splittable).
        let mut cuts: Vec<Option<usize>> = Vec::with_capacity(dim);
        for d in 0..dim {
            if self.extent(d) >= min_extent.max(1) * 2 {
                let raw_mid = self.lo[d] + self.extent(d) / 2;
                let mid = if step > 1 {
                    (raw_mid / step) * step
                } else {
                    raw_mid
                };
                if mid > self.lo[d] && mid < self.hi[d] {
                    cuts.push(Some(mid));
                } else {
                    cuts.push(None);
                }
            } else {
                cuts.push(None);
            }
        }
        if cuts.iter().all(|c| c.is_none()) {
            return vec![self.clone()];
        }
        // Enumerate all combinations of (lower half / upper half) per cut dim.
        let mut result = vec![Region::new(self.lo.clone(), self.hi.clone())];
        for (d, cut) in cuts.iter().enumerate() {
            if let Some(mid) = *cut {
                let mut next = Vec::with_capacity(result.len() * 2);
                for r in result {
                    let mut low = r.clone();
                    low.hi[d] = mid;
                    let mut high = r.clone();
                    high.lo[d] = mid.min(r.hi[d]);
                    next.push(low);
                    next.push(high);
                }
                result = next;
            }
        }
        result
    }

    /// Generates a grid of sample points inside the region: `per_dim` points
    /// along every dimension (including both endpoints), snapped to multiples
    /// of `step` and deduplicated.
    ///
    /// The points come out in ascending lexicographic order: each axis is
    /// strictly increasing after snapping and deduplication, so the Cartesian
    /// product is emitted directly in sorted order by an odometer walk — no
    /// intermediate product stages, no post-sort, no post-dedup.
    pub fn sample_grid(&self, per_dim: usize, step: usize) -> Vec<Vec<usize>> {
        let mut points = Vec::new();
        self.sample_grid_into(per_dim, step, &mut points);
        points
    }

    /// [`Region::sample_grid`] into a reusable buffer: the outer vector and
    /// as many inner point vectors as it already holds are recycled, so a
    /// caller looping over many regions (the Modeler fits hundreds per
    /// submodel) allocates grid points only on its first iteration.
    pub fn sample_grid_into(&self, per_dim: usize, step: usize, out: &mut Vec<Vec<usize>>) {
        let dim = self.dim();
        let per_dim = per_dim.max(2);
        let mut axes: Vec<Vec<usize>> = Vec::with_capacity(dim);
        for d in 0..dim {
            let lo = self.lo[d];
            let hi = self.hi[d];
            let mut axis = Vec::with_capacity(per_dim);
            for i in 0..per_dim {
                let t = i as f64 / (per_dim - 1) as f64;
                let raw = lo as f64 + t * (hi - lo) as f64;
                let mut v = if step > 1 {
                    ((raw / step as f64).round() as usize) * step
                } else {
                    raw.round() as usize
                };
                v = v.clamp(lo, hi);
                axis.push(v);
            }
            // The snapped axis is non-decreasing, so adjacent dedup leaves it
            // strictly increasing.
            axis.dedup();
            axes.push(axis);
        }
        // Cartesian product via an odometer over the axis indices.
        let total: usize = axes.iter().map(|a| a.len()).product();
        out.truncate(total);
        out.reserve(total - out.len());
        let mut idx = vec![0usize; dim];
        for slot in 0..total {
            if slot < out.len() {
                out[slot].clear();
            } else {
                out.push(Vec::with_capacity(dim));
            }
            let p = &mut out[slot];
            for (axis, &i) in axes.iter().zip(&idx) {
                p.push(axis[i]);
            }
            // Advance the least-significant (last) dimension first.
            for d in (0..dim).rev() {
                idx[d] += 1;
                if idx[d] < axes[d].len() {
                    break;
                }
                idx[d] = 0;
            }
        }
    }

    /// Normalises a point to `[0, 1]^dim` coordinates relative to this region.
    // lint: allow(panic-free): the arity assert is the documented contract and
    // bounds the indexing
    pub fn normalize(&self, point: &[usize]) -> Vec<f64> {
        assert_eq!(point.len(), self.dim());
        (0..self.dim())
            .map(|d| {
                let extent = self.extent(d);
                if extent == 0 {
                    0.0
                } else {
                    (point[d] as f64 - self.lo[d] as f64) / extent as f64
                }
            })
            .collect()
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self
            .lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| format!("[{l},{h}]"))
            .collect();
        write!(f, "{}", parts.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let r = Region::new(vec![8, 8], vec![1024, 512]);
        assert_eq!(r.dim(), 2);
        assert_eq!(r.extent(0), 1016);
        assert_eq!(r.extent(1), 504);
        assert_eq!(r.min_extent(), 504);
        assert!(r.contains(&[8, 8]));
        assert!(r.contains(&[1024, 512]));
        assert!(!r.contains(&[1025, 512]));
        assert!(!r.contains(&[8]));
        assert_eq!(Region::interval(1, 5).dim(), 1);
        assert_eq!(r.to_string(), "[8,1024]x[8,512]");
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_bounds_panic() {
        let _ = Region::new(vec![10], vec![5]);
    }

    #[test]
    fn overlap_and_containment() {
        let a = Region::new(vec![0, 0], vec![10, 10]);
        let b = Region::new(vec![10, 10], vec![20, 20]);
        let c = Region::new(vec![11, 0], vec![20, 9]);
        assert!(a.overlaps(&b)); // share the corner point (10, 10)
        assert!(!a.overlaps(&c));
        assert!(a.contains_region(&Region::new(vec![2, 3], vec![4, 5])));
        assert!(!a.contains_region(&b));
    }

    #[test]
    fn grow_respects_bounds() {
        let space = Region::new(vec![8, 8], vec![1024, 1024]);
        let r = Region::new(vec![8, 8], vec![64, 64]);
        let g = r.grown(0, 64, true, &space);
        assert_eq!(g.hi(), &[128, 64]);
        let g = g.grown(1, 2000, true, &space);
        assert_eq!(g.hi(), &[128, 1024]);
        let h = r.grown(0, 100, false, &space);
        assert_eq!(h.lo(), &[8, 8]);
        let far = Region::new(vec![512, 512], vec![1024, 1024]);
        let h = far.grown(1, 256, false, &space);
        assert_eq!(h.lo(), &[512, 256]);
    }

    #[test]
    fn split_produces_cover() {
        let r = Region::new(vec![8, 8], vec![1024, 1024]);
        let parts = r.split(32, 8);
        assert_eq!(parts.len(), 4);
        // Every part is inside the parent and the union covers the corners.
        for p in &parts {
            assert!(r.contains_region(p));
        }
        assert!(parts.iter().any(|p| p.contains(&[8, 8])));
        assert!(parts.iter().any(|p| p.contains(&[1024, 1024])));
        assert!(parts.iter().any(|p| p.contains(&[8, 1024])));
        assert!(parts.iter().any(|p| p.contains(&[1024, 8])));
    }

    #[test]
    fn split_stops_at_min_extent() {
        let r = Region::new(vec![8], vec![40]);
        // extent 32 < 2 * 32, so no split possible
        let parts = r.split(32, 8);
        assert_eq!(parts, vec![r]);
    }

    #[test]
    fn sample_grid_endpoints_and_step() {
        let r = Region::new(vec![8, 8], vec![104, 104]);
        let grid = r.sample_grid(3, 8);
        assert!(grid.contains(&vec![8, 8]));
        assert!(grid.contains(&vec![104, 104]));
        assert!(grid.iter().all(|p| p.iter().all(|v| v % 8 == 0)));
        assert!(grid.iter().all(|p| r.contains(p)));
        assert_eq!(grid.len(), 9);
        // The odometer emits the product directly in sorted, deduplicated
        // order (the fit path relies on a stable point order).
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        // degenerate region: single point
        let single = Region::new(vec![16], vec![16]);
        assert_eq!(single.sample_grid(4, 8), vec![vec![16]]);
    }

    #[test]
    fn sample_grid_into_recycles_buffers() {
        let big = Region::new(vec![8, 8], vec![104, 104]);
        let small = Region::new(vec![8], vec![24]);
        let mut buf: Vec<Vec<usize>> = Vec::new();
        big.sample_grid_into(3, 8, &mut buf);
        assert_eq!(buf, big.sample_grid(3, 8));
        // Refill with a smaller grid: the buffer shrinks to the new size and
        // holds exactly the fresh points.
        small.sample_grid_into(3, 8, &mut buf);
        assert_eq!(buf, small.sample_grid(3, 8));
        big.sample_grid_into(3, 8, &mut buf);
        assert_eq!(buf, big.sample_grid(3, 8));
    }

    #[test]
    fn normalization() {
        let r = Region::new(vec![8, 8], vec![1008, 8]);
        let n = r.normalize(&[508, 8]);
        assert!((n[0] - 0.5).abs() < 1e-12);
        assert_eq!(n[1], 0.0);
        assert_eq!(r.normalize(&[8, 8])[0], 0.0);
        assert_eq!(r.normalize(&[1008, 8])[0], 1.0);
    }
}
