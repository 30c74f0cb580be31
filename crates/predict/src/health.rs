//! Serving-health telemetry: the degraded-serving ledger of the
//! fault-tolerant publication path.
//!
//! Every publication attempt on a [`ModelService`](crate::ModelService) is
//! accounted here: rejected ones (repositories that failed
//! [`RepositoryValidator`](dla_model::RepositoryValidator)) bump a rejection
//! counter while the service keeps serving the previous generation, and the
//! snapshot reports the generation actually served, read from the published
//! handle.  The refinement loop feeds its per-round [`RefineOutcome`] in as
//! well, so one [`ServiceHealth`] snapshot answers the operational questions
//! of a degraded deployment: *what generation am I actually serving, how
//! many publishes were turned away, how many regions are quarantined, and
//! how hard is the sampler fighting for its measurements?*
//!
//! The counters live on the `dla_sync` facade ([`dla_model::sync`]) like the
//! rest of the serving tier, so `--cfg interleave` model-checks them together
//! with the published handle they describe.

use dla_model::sync::atomic::{AtomicU64, Ordering};
use dla_modeler::RefineOutcome;

/// A point-in-time snapshot of the service's fault-tolerance ledger (see
/// [`ModelService::health`](crate::ModelService::health)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceHealth {
    /// The served repository generation: 0 for the constructor's
    /// repository, +1 per accepted swap/merge/compiled swap (a rejected
    /// publish leaves it unchanged), so it also counts accepted publishes.
    pub last_good_generation: u64,
    /// Publications rejected by the pre-publication validator; each one kept
    /// the previous generation serving.
    pub publishes_rejected: u64,
    /// Regions currently quarantined by the online refiner's circuit
    /// breakers, as of the last recorded refinement round.
    pub quarantined_regions: u64,
    /// Quarantined cells that recovered via a successful half-open probe
    /// (cumulative across recorded rounds).
    pub cells_recovered: u64,
    /// Region rebuilds that failed sampling or validation (cumulative).
    pub fit_failures: u64,
    /// Measurement attempts retried after a transient fault (cumulative).
    pub sample_retries: u64,
    /// Samples discarded as non-finite or robust-aggregation outliers
    /// (cumulative).
    pub samples_discarded: u64,
}

impl std::fmt::Display for ServiceHealth {
    /// One summary line of the whole ledger — the form tests and examples
    /// print instead of spelling the counters out field by field.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gen {} · {} publishes rejected · refine: {} quarantined, {} recovered, \
             {} fit failures, {} retries, {} discarded",
            self.last_good_generation,
            self.publishes_rejected,
            self.quarantined_regions,
            self.cells_recovered,
            self.fit_failures,
            self.sample_retries,
            self.samples_discarded,
        )
    }
}

/// The live counters behind [`ServiceHealth`].  All increments and loads are
/// relaxed: each field is an independent statistic — nothing is published
/// *through* them, and a snapshot racing an increment merely reads a
/// momentarily stale total.
pub(crate) struct HealthCounters {
    publishes_rejected: AtomicU64,
    quarantined_regions: AtomicU64,
    cells_recovered: AtomicU64,
    fit_failures: AtomicU64,
    sample_retries: AtomicU64,
    samples_discarded: AtomicU64,
}

impl HealthCounters {
    /// Zeroed counters.
    pub(crate) fn new() -> HealthCounters {
        HealthCounters {
            publishes_rejected: AtomicU64::new(0),
            quarantined_regions: AtomicU64::new(0),
            cells_recovered: AtomicU64::new(0),
            fit_failures: AtomicU64::new(0),
            sample_retries: AtomicU64::new(0),
            samples_discarded: AtomicU64::new(0),
        }
    }

    /// Records a publication rejected by the validator.
    pub(crate) fn record_rejected(&self) {
        // ordering: Relaxed — standalone statistic.
        self.publishes_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one refinement round's outcome into the ledger.  Each counter
    /// is an independent statistic, accumulated from the (single-threaded)
    /// refinement loop and read by snapshots, so every access is relaxed.
    pub(crate) fn record_refinement(&self, outcome: &RefineOutcome) {
        // ordering: Relaxed — latest-round gauge, independent statistic.
        self.quarantined_regions
            .store(outcome.quarantined.len() as u64, Ordering::Relaxed);
        // ordering: Relaxed — independent statistic.
        self.cells_recovered
            .fetch_add(outcome.cells_recovered as u64, Ordering::Relaxed);
        // ordering: Relaxed — independent statistic.
        self.fit_failures
            .fetch_add(outcome.fit_failures as u64, Ordering::Relaxed);
        // ordering: Relaxed — independent statistic.
        self.sample_retries
            .fetch_add(outcome.sample_retries, Ordering::Relaxed);
        // ordering: Relaxed — independent statistic.
        self.samples_discarded
            .fetch_add(outcome.samples_discarded, Ordering::Relaxed);
    }

    /// A point-in-time snapshot, reporting `generation` as the served one.
    /// A statistics snapshot tolerates momentarily stale individual fields
    /// by definition, so every load is relaxed.
    pub(crate) fn snapshot(&self, generation: u64) -> ServiceHealth {
        ServiceHealth {
            last_good_generation: generation,
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            publishes_rejected: self.publishes_rejected.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            quarantined_regions: self.quarantined_regions.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            cells_recovered: self.cells_recovered.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            fit_failures: self.fit_failures.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            sample_retries: self.sample_retries.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            samples_discarded: self.samples_discarded.load(Ordering::Relaxed),
        }
    }
}
