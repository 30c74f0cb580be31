//! Serving telemetry: which regions answer queries, and where refinement
//! should spend its next samples.
//!
//! The paper's core idea is *error-driven* sampling: measure where the model
//! is wrong, not everywhere.  Offline, that drives Adaptive Refinement; the
//! types in this module carry the same signal **online**, from the serving
//! layer back to the Modeler.  The serving layer counts, per `(routine,
//! flags, region)` cell, how many queries each region answered (the compiled
//! evaluators report the answering region at zero extra cost, and the counts
//! are plain relaxed atomics on the hot path).  A [`RefinementReport`]
//! snapshots those counters and ranks the cells by `queries × fit_error` —
//! the regions that are both *hot* (queried a lot) and *bad* (large recorded
//! fit error) come first, and an online refiner can re-sample exactly those
//! through the normal fit fast paths.
//!
//! The report is a plain value: producing it does not pause serving, and
//! consuming it requires nothing but a model repository snapshot.  The
//! counters themselves belong to the serving layer's published generation.

use std::cmp::Ordering;

use dla_blas::Routine;
use dla_machine::Locality;

use crate::piecewise::error_order;
use crate::{FlagKey, Region};

/// One queried `(routine, flags, region)` cell of a [`RefinementReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct HotRegion {
    /// The routine whose model answered.
    pub routine: Routine,
    /// The submodel key (flag combination) that answered.
    pub flags: FlagKey,
    /// The answering region's bounds (raw parameter-space coordinates).
    pub region: Region,
    /// The region's recorded fit error (`NaN` for degenerate fits).
    pub fit_error: f64,
    /// The region's provenance counter at serving time (see
    /// [`RegionModel::revision`](crate::RegionModel::revision)).
    pub revision: u32,
    /// Number of queries this region answered since the served repository
    /// generation was installed.
    pub queries: u64,
}

impl HotRegion {
    /// The ranking score: `queries × fit_error`.
    ///
    /// `NaN` fit errors (degenerate fits) rank *above* every finite score —
    /// a region that answers real traffic with a degenerate fit is the most
    /// urgent thing to rebuild.
    pub fn priority(&self) -> f64 {
        self.queries as f64 * self.fit_error
    }
}

/// A ranked snapshot of the serving layer's per-region telemetry.
///
/// Cells are ordered hottest-first: descending [`HotRegion::priority`], with
/// `NaN` fit errors first and ties broken by query count (then by flags and
/// region bounds, so the order is deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementReport {
    /// The machine configuration the served models describe.
    pub machine_id: String,
    /// The served memory-locality scenario.
    pub locality: Locality,
    /// The repository generation the counters belong to.  A report is only
    /// actionable against the snapshot of the same generation; after a
    /// swap/merge the serving layer starts fresh counters.
    pub generation: u64,
    /// Total queries answered (sum over all cells, including unreported
    /// zero-query regions' zero contribution).
    pub total_queries: u64,
    /// The queried cells, hottest first.
    pub cells: Vec<HotRegion>,
}

impl RefinementReport {
    /// An empty report (no telemetry observed for `generation`).
    pub fn empty(machine_id: String, locality: Locality, generation: u64) -> RefinementReport {
        RefinementReport {
            machine_id,
            locality,
            generation,
            total_queries: 0,
            cells: Vec::new(),
        }
    }

    /// Sorts `cells` hottest-first and wraps them into a report.
    pub fn ranked(
        machine_id: String,
        locality: Locality,
        generation: u64,
        total_queries: u64,
        mut cells: Vec<HotRegion>,
    ) -> RefinementReport {
        cells.sort_by(rank_order);
        RefinementReport {
            machine_id,
            locality,
            generation,
            total_queries,
            cells,
        }
    }

    /// Returns `true` when no cell was queried.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The `n` hottest cells.
    pub fn top(&self, n: usize) -> &[HotRegion] {
        &self.cells[..n.min(self.cells.len())]
    }
}

/// Hottest-first order: descending priority with `NaN` fit errors ranked
/// above all finite scores, then more-queried first, then a deterministic
/// structural tie-break.
fn rank_order(a: &HotRegion, b: &HotRegion) -> Ordering {
    // `error_order` sorts ascending with NaN last; reversing it yields the
    // descending-with-NaN-first order the ranking needs.
    error_order(a.priority(), b.priority())
        .reverse()
        .then_with(|| b.queries.cmp(&a.queries))
        .then_with(|| (a.routine as u32).cmp(&(b.routine as u32)))
        .then_with(|| a.flags.cmp(&b.flags))
        .then_with(|| a.region.lo().cmp(b.region.lo()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(queries: u64, fit_error: f64, lo: usize) -> HotRegion {
        HotRegion {
            routine: Routine::Gemm,
            flags: FlagKey::from_slice(&[0, 0]).unwrap(),
            region: Region::new(vec![lo], vec![lo + 64]),
            fit_error,
            revision: 0,
            queries,
        }
    }

    #[test]
    fn ranking_is_priority_descending_with_nan_first() {
        let report = RefinementReport::ranked(
            "m".to_string(),
            Locality::InCache,
            3,
            111,
            vec![
                cell(10, 0.01, 0),
                cell(1, f64::NAN, 64),
                cell(2, 0.5, 128),
                cell(1000, 0.002, 192),
            ],
        );
        assert_eq!(report.generation, 3);
        assert_eq!(report.total_queries, 111);
        assert!(report.cells[0].fit_error.is_nan());
        let priorities: Vec<f64> = report.cells[1..].iter().map(|c| c.priority()).collect();
        assert!(priorities.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(report.top(2).len(), 2);
        assert_eq!(report.top(99).len(), 4);
        assert!(!report.is_empty());
    }

    #[test]
    fn ties_break_deterministically() {
        let a = cell(4, 0.25, 0);
        let b = cell(4, 0.25, 64);
        let ranked = RefinementReport::ranked(
            "m".to_string(),
            Locality::InCache,
            0,
            8,
            vec![b.clone(), a.clone()],
        );
        assert_eq!(ranked.cells, vec![a, b]);
        assert!(RefinementReport::empty("m".to_string(), Locality::InCache, 0).is_empty());
    }
}
