//! Serving-health telemetry: the degraded-serving ledger of the
//! fault-tolerant publication path.
//!
//! Every publication attempt on a [`ModelService`](crate::ModelService) is
//! accounted here: accepted swaps/merges advance the *last good generation*,
//! rejected ones (repositories that failed
//! [`RepositoryValidator`](dla_model::RepositoryValidator)) bump a rejection
//! counter while the service keeps serving the previous generation.  The
//! refinement loop feeds its per-round [`RefineOutcome`] in as well, so one
//! [`ServiceHealth`] snapshot answers the operational questions of a degraded
//! deployment: *what generation am I actually serving, how many publishes were
//! turned away, how many regions are quarantined, and how hard is the sampler
//! fighting for its measurements?*
//!
//! The counters live on the `dla_sync` facade ([`dla_model::sync`]) like the
//! rest of the serving tier, so `--cfg interleave` model-checks them together
//! with the cache and telemetry state they describe.

use dla_model::sync::atomic::{AtomicU64, Ordering};
use dla_modeler::RefineOutcome;

/// A point-in-time snapshot of the service's fault-tolerance ledger (see
/// [`ModelService::health`](crate::ModelService::health)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceHealth {
    /// The repository generation of the most recent *accepted* publication
    /// (the generation being served, unless a publish was rejected since —
    /// in which case this is the generation the service fell back to).
    pub last_good_generation: u64,
    /// Publications (swap/merge/compiled swap) that passed validation.
    pub publishes_accepted: u64,
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
    /// Per-query failures observed by the serving tier: shard calls that
    /// errored, returned a corrupt (non-finite) reply, or found the harness
    /// unavailable.  Recorded by the fleet's query path (see
    /// [`ModelService::record_query_error`](crate::ModelService::record_query_error));
    /// one of the inputs driving the fleet's per-shard circuit breakers.
    pub query_errors: u64,
    /// Per-query deadline overruns observed by the serving tier (see
    /// [`ModelService::record_query_timeout`](crate::ModelService::record_query_timeout)).
    pub query_timeouts: u64,
}

impl std::fmt::Display for ServiceHealth {
    /// One summary line of the whole ledger — the form tests and examples
    /// print instead of spelling the counters out field by field.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gen {} · publishes {}+/{}- · queries {} err / {} t/o · refine: {} quarantined, \
             {} recovered, {} fit failures, {} retries, {} discarded",
            self.last_good_generation,
            self.publishes_accepted,
            self.publishes_rejected,
            self.query_errors,
            self.query_timeouts,
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
    last_good_generation: AtomicU64,
    publishes_accepted: AtomicU64,
    publishes_rejected: AtomicU64,
    quarantined_regions: AtomicU64,
    cells_recovered: AtomicU64,
    fit_failures: AtomicU64,
    sample_retries: AtomicU64,
    samples_discarded: AtomicU64,
    query_errors: AtomicU64,
    query_timeouts: AtomicU64,
}

impl HealthCounters {
    /// Fresh counters; `generation` is the initial repository's generation
    /// (the constructor-supplied repository is the first "last good" one).
    pub(crate) fn new(generation: u64) -> HealthCounters {
        HealthCounters {
            last_good_generation: AtomicU64::new(generation),
            publishes_accepted: AtomicU64::new(0),
            publishes_rejected: AtomicU64::new(0),
            quarantined_regions: AtomicU64::new(0),
            cells_recovered: AtomicU64::new(0),
            fit_failures: AtomicU64::new(0),
            sample_retries: AtomicU64::new(0),
            samples_discarded: AtomicU64::new(0),
            query_errors: AtomicU64::new(0),
            query_timeouts: AtomicU64::new(0),
        }
    }

    /// Records a failed serving-tier query against this shard.
    pub(crate) fn record_query_error(&self) {
        // ordering: Relaxed — standalone statistic.
        self.query_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a serving-tier query that overran its deadline.
    pub(crate) fn record_query_timeout(&self) {
        // ordering: Relaxed — standalone statistic.
        self.query_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an accepted publication of `generation`.
    pub(crate) fn record_accepted(&self, generation: u64) {
        // ordering: Relaxed — standalone statistic; the repository handoff
        // itself synchronises through the service's publication lock, not
        // through this counter.
        self.publishes_accepted.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — generations are monotone, and `fetch_max` keeps
        // the ledger monotone too when two accepted publishes race (the later
        // generation wins regardless of which thread records first).
        self.last_good_generation
            .fetch_max(generation, Ordering::Relaxed);
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

    /// A point-in-time snapshot.  A statistics snapshot tolerates momentarily
    /// stale individual fields by definition, so every load is relaxed.
    pub(crate) fn snapshot(&self) -> ServiceHealth {
        ServiceHealth {
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            last_good_generation: self.last_good_generation.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            publishes_accepted: self.publishes_accepted.load(Ordering::Relaxed),
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
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            query_errors: self.query_errors.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            query_timeouts: self.query_timeouts.load(Ordering::Relaxed),
        }
    }
}
