//! The sampling engine.

use dla_blas::Call;
use dla_machine::{ExecError, Executor, Locality, MachineConfig};
use dla_mat::stats::{StatsError, Summary};

/// Why a fallible sampling attempt produced no summary.
///
/// Measurement faults (transient harness failures, all-corrupt sample sets)
/// surface here as structured errors after the sampler's bounded retry is
/// exhausted, so the Modeler can quarantine the affected region instead of
/// fitting garbage or panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleError {
    /// Every attempt failed with a transient execution error.
    RetriesExhausted {
        /// Number of attempts performed (1 + retries).
        attempts: usize,
        /// The last execution error observed.
        last: ExecError,
    },
    /// Measurements were delivered, but no attempt yielded a single usable
    /// (finite) observation.
    Degenerate {
        /// Number of attempts performed (1 + retries).
        attempts: usize,
        /// The last statistics error observed.
        last: StatsError,
    },
    /// Every attempt's observations were too dispersed to trust: the scaled
    /// MAD exceeded the configured fraction of the median.  Median/MAD
    /// trimming breaks down at 50 % contamination (e.g. two ×k latency
    /// spikes among four kept observations inflate median and MAD together,
    /// so nothing is trimmed), and this is how such a batch looks from the
    /// outside — rejecting it turns a silently corrupted summary into a
    /// retried measurement.
    Dispersed {
        /// Number of attempts performed (1 + retries).
        attempts: usize,
        /// Scaled MAD of the last attempt's finite observations.
        scaled_mad: f64,
        /// Median of the last attempt's finite observations.
        median: f64,
    },
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::RetriesExhausted { attempts, last } => {
                write!(f, "sampling failed after {attempts} attempts: {last}")
            }
            SampleError::Degenerate { attempts, last } => {
                write!(f, "no usable samples after {attempts} attempts: {last}")
            }
            SampleError::Dispersed {
                attempts,
                scaled_mad,
                median,
            } => {
                write!(
                    f,
                    "samples too dispersed after {attempts} attempts \
                     (scaled MAD {scaled_mad:.3} vs median {median:.3})"
                )
            }
        }
    }
}

impl std::error::Error for SampleError {}

/// Monotone counters describing the sampler's fault handling so far.
///
/// The online refiner snapshots these around a round to report per-round
/// retry/discard telemetry in its outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleTelemetry {
    /// Retry attempts performed (attempts beyond the first, per call).
    pub retries: u64,
    /// Measurements discarded because they were NaN or infinite.
    pub discarded_non_finite: u64,
    /// Finite measurements trimmed as outliers by the median/MAD rule.
    pub discarded_outliers: u64,
    /// Calls that exhausted every attempt and returned a [`SampleError`].
    pub failures: u64,
}

impl SampleTelemetry {
    /// Total discarded measurements (non-finite plus trimmed outliers).
    pub fn discarded(&self) -> u64 {
        self.discarded_non_finite + self.discarded_outliers
    }

    /// Field-wise difference against an earlier snapshot of the same counters.
    pub fn since(&self, earlier: &SampleTelemetry) -> SampleTelemetry {
        SampleTelemetry {
            retries: self.retries - earlier.retries,
            discarded_non_finite: self.discarded_non_finite - earlier.discarded_non_finite,
            discarded_outliers: self.discarded_outliers - earlier.discarded_outliers,
            failures: self.failures - earlier.failures,
        }
    }
}

/// Configuration of a sampling campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Memory-locality scenario the operands are placed in.
    pub locality: Locality,
    /// Number of measurements collected per call.
    pub repetitions: usize,
    /// Number of leading measurements discarded (library initialisation — the
    /// paper discards the first invocation, which is an order of magnitude
    /// slower than the rest).
    pub warmup_discard: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            locality: Locality::InCache,
            repetitions: 10,
            warmup_discard: 1,
        }
    }
}

impl SamplerConfig {
    /// In-cache sampling with the given repetition count.
    pub fn in_cache(repetitions: usize) -> SamplerConfig {
        SamplerConfig {
            locality: Locality::InCache,
            repetitions,
            warmup_discard: 1,
        }
    }
}

/// The result of sampling one routine call.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleResult {
    /// The call that was measured.
    pub call: Call,
    /// The locality scenario it was measured under.
    pub locality: Locality,
    /// Summary of the measured ticks (after discarding warm-up measurements).
    pub ticks: Summary,
    /// Summary of the corresponding efficiencies.
    pub efficiency: Summary,
    /// The raw tick measurements that the summary was computed from.
    pub raw_ticks: Vec<f64>,
    /// Measurements that were discarded as warm-up.
    pub discarded: Vec<f64>,
}

impl SampleResult {
    /// The measured flop count of the call.
    pub fn flops(&self) -> f64 {
        self.call.flops()
    }
}

/// The Sampler: drives an executor to produce summary statistics per call.
#[derive(Debug)]
pub struct Sampler<E: Executor> {
    executor: E,
    config: SamplerConfig,
    samples_taken: usize,
    /// Reusable tick-measurement buffer for the repetition loop.
    scratch: Vec<f64>,
    /// Maximum retries after a failed attempt of [`Sampler::try_sample_ticks`].
    max_retries: usize,
    telemetry: SampleTelemetry,
}

impl<E: Executor> Sampler<E> {
    /// Default retry bound of the fallible sampling path.
    pub const DEFAULT_MAX_RETRIES: usize = 3;
    /// MAD multiple for robust outlier trimming (≈5σ for Gaussian noise —
    /// generous enough to never trim the simulator's honest noise, tight
    /// enough to shed ×10 latency spikes).
    pub const DEFAULT_MAD_K: f64 = 5.0;
    /// Bound on a batch's relative dispersion (scaled MAD over |median|).
    /// Honest measurement noise is a few percent of the median; a batch at
    /// 50 % dispersion is contaminated past the breakdown point of median/MAD
    /// trimming and gets retried instead of trusted.
    pub const DEFAULT_MAX_DISPERSION: f64 = 0.5;

    /// Creates a sampler around an executor.
    pub fn new(executor: E, config: SamplerConfig) -> Sampler<E> {
        Sampler {
            executor,
            config,
            samples_taken: 0,
            scratch: Vec::new(),
            max_retries: Self::DEFAULT_MAX_RETRIES,
            telemetry: SampleTelemetry::default(),
        }
    }

    /// The sampler's configuration.
    pub fn config(&self) -> SamplerConfig {
        self.config
    }

    /// Changes the locality scenario for subsequent samples.
    pub fn set_locality(&mut self, locality: Locality) {
        self.config.locality = locality;
    }

    /// Changes the number of repetitions per sampled call.
    pub fn set_repetitions(&mut self, repetitions: usize) {
        self.config.repetitions = repetitions.max(1);
    }

    /// The machine configuration of the underlying executor.
    pub fn machine(&self) -> &MachineConfig {
        self.executor.machine()
    }

    /// Total number of individual measurements performed so far (including
    /// discarded warm-up measurements); the Modeler uses this as its sample
    /// budget accounting.
    pub fn samples_taken(&self) -> usize {
        self.samples_taken
    }

    /// Access to the wrapped executor.
    pub fn executor_mut(&mut self) -> &mut E {
        &mut self.executor
    }

    /// Bounds the retries of [`Sampler::try_sample_ticks`].
    pub fn set_max_retries(&mut self, max_retries: usize) {
        self.max_retries = max_retries;
    }

    /// Monotone fault-handling counters (see [`SampleTelemetry`]).
    pub fn telemetry(&self) -> SampleTelemetry {
        self.telemetry
    }

    /// Runs the measurement loop for one call into `self.scratch`; the first
    /// `warmup` entries are warm-up measurements, the rest are kept.
    ///
    /// Returns `warmup` (the number of leading scratch entries to discard).
    fn collect_ticks(&mut self, call: &Call) -> usize {
        let total = (self.config.repetitions + self.config.warmup_discard).max(1);
        let warmup = if total > self.config.warmup_discard {
            self.config.warmup_discard
        } else {
            0
        };
        self.scratch.clear();
        self.executor
            .execute_ticks(call, self.config.locality, total, &mut self.scratch);
        self.samples_taken += total;
        warmup
    }

    /// Measures one call and returns only the tick summary.
    ///
    /// This is the hot path for the Modeler's sampling oracle: it performs the
    /// same measurement loop as [`Sampler::sample`] (identical executor
    /// invocations, so the two are interchangeable without perturbing a
    /// deterministic noise stream) but skips the efficiency summary, the raw
    /// sample retention and the call clone of the full [`SampleResult`], and
    /// reuses one measurement buffer across calls.
    pub fn sample_ticks(&mut self, call: &Call) -> Summary {
        let warmup = self.collect_ticks(call);
        // lint: allow(unwrap): collect_ticks always keeps at least one sample
        Summary::from_samples(&self.scratch[warmup..]).expect("at least one kept sample")
    }

    /// Fault-tolerant variant of [`Sampler::sample_ticks`]: fallible
    /// execution, bounded retry, and robust aggregation.
    ///
    /// Each attempt runs the full measurement loop through the executor's
    /// fallible surface.  A transient execution failure, or an attempt whose
    /// measurements are all non-finite, triggers a retry — up to
    /// `max_retries` times.  Backoff is deterministic and counted in
    /// *samples*, not wall-clock: attempt `k` discards `k` extra leading
    /// measurements, giving a transient machine phase that many more
    /// executions to pass (the chaos schedules are seed-driven, so tests stay
    /// reproducible).  Delivered measurements are aggregated robustly via
    /// [`Summary::from_samples_robust`]: non-finite ticks are discarded and
    /// latency outliers beyond [`DEFAULT_MAD_K`](Sampler::DEFAULT_MAD_K)
    /// scaled MADs from the median are trimmed.  A batch that aggregates but
    /// remains over-dispersed (scaled MAD above
    /// [`DEFAULT_MAX_DISPERSION`](Sampler::DEFAULT_MAX_DISPERSION) of the
    /// median — contamination past the trimming rule's breakdown point) is
    /// rejected and retried as [`SampleError::Dispersed`].  Every retry and discard is recorded in
    /// [`SampleTelemetry`];
    /// failed attempts still count toward [`Sampler::samples_taken`] (budget
    /// is spent whether or not the harness delivers).
    pub fn try_sample_ticks(&mut self, call: &Call) -> Result<Summary, SampleError> {
        let attempts = self.max_retries + 1;
        let mut last_failure = SampleError::Degenerate {
            attempts,
            last: StatsError::Empty,
        };
        for attempt in 0..attempts {
            if attempt > 0 {
                self.telemetry.retries += 1;
            }
            // Deterministic attempt-count backoff: `attempt` extra warm-up
            // discards per retry.
            let total = (self.config.repetitions + self.config.warmup_discard + attempt).max(1);
            let warmup = (self.config.warmup_discard + attempt).min(total - 1);
            self.scratch.clear();
            self.samples_taken += total;
            if let Err(e) = self.executor.try_execute_ticks(
                call,
                self.config.locality,
                total,
                &mut self.scratch,
            ) {
                last_failure = SampleError::RetriesExhausted { attempts, last: e };
                continue;
            }
            match Summary::from_samples_robust(&self.scratch[warmup..], Self::DEFAULT_MAD_K) {
                Ok((summary, trim)) => {
                    self.telemetry.discarded_non_finite += trim.non_finite as u64;
                    self.telemetry.discarded_outliers += trim.outliers as u64;
                    // Dispersion guard: a batch whose scaled MAD is a large
                    // fraction of its median is contaminated past the 50 %
                    // breakdown point of the trimming rule (two spikes among
                    // four kept observations trim nothing) — reject and
                    // retry rather than hand a corrupted median to a fit.
                    if trim.scaled_mad > Self::DEFAULT_MAX_DISPERSION * summary.median.abs() {
                        last_failure = SampleError::Dispersed {
                            attempts,
                            scaled_mad: trim.scaled_mad,
                            median: summary.median,
                        };
                        continue;
                    }
                    return Ok(summary);
                }
                Err(e) => {
                    if let StatsError::NonFinite { non_finite, .. } = e {
                        self.telemetry.discarded_non_finite += non_finite as u64;
                    }
                    last_failure = SampleError::Degenerate { attempts, last: e };
                }
            }
        }
        self.telemetry.failures += 1;
        Err(last_failure)
    }

    /// Measures one call.
    pub fn sample(&mut self, call: &Call) -> SampleResult {
        let warmup = self.collect_ticks(call);
        let discarded = self.scratch[..warmup].to_vec();
        let kept = self.scratch[warmup..].to_vec();
        // lint: allow(unwrap): collect_ticks always keeps at least one sample
        let ticks = Summary::from_samples(&kept).expect("at least one kept sample");
        let flops = call.flops();
        let machine = self.executor.machine();
        let efficiencies: Vec<f64> = kept.iter().map(|&t| machine.efficiency(flops, t)).collect();
        // lint: allow(unwrap): one efficiency per kept tick sample, hence non-empty
        let efficiency = Summary::from_samples(&efficiencies).expect("non-empty");
        SampleResult {
            call: call.clone(),
            locality: self.config.locality,
            ticks,
            efficiency,
            raw_ticks: kept,
            discarded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_blas::Trans;
    use dla_machine::presets::harpertown_openblas;
    use dla_machine::SimExecutor;

    fn sampler(reps: usize) -> Sampler<SimExecutor> {
        Sampler::new(
            SimExecutor::new(harpertown_openblas(), 42),
            SamplerConfig::in_cache(reps),
        )
    }

    fn call(n: usize) -> Call {
        Call::gemm(Trans::NoTrans, Trans::NoTrans, n, n, n, 1.0, 0.0)
    }

    #[test]
    fn sample_counts_and_discard() {
        let mut s = sampler(8);
        let r = s.sample(&call(128));
        assert_eq!(r.raw_ticks.len(), 8);
        assert_eq!(r.discarded.len(), 1);
        assert_eq!(r.ticks.count, 8);
        assert_eq!(s.samples_taken(), 9);
        // The discarded first measurement includes the library-initialisation
        // penalty and dwarfs the typical measurement.
        assert!(r.discarded[0] > 3.0 * r.ticks.median);
    }

    #[test]
    fn summary_is_consistent_with_raw_samples() {
        let mut s = sampler(16);
        let r = s.sample(&call(200));
        let min = r.raw_ticks.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = r.raw_ticks.iter().cloned().fold(0.0f64, f64::max);
        assert_eq!(r.ticks.min, min);
        assert_eq!(r.ticks.max, max);
        assert!(r.ticks.min <= r.ticks.median && r.ticks.median <= r.ticks.max);
    }

    #[test]
    fn efficiency_is_inverse_to_ticks() {
        let mut s = sampler(10);
        let r = s.sample(&call(300));
        // The fastest run has the highest efficiency.
        let machine = harpertown_openblas();
        let best = machine.efficiency(r.flops(), r.ticks.min);
        assert!((r.efficiency.max - best).abs() / best < 1e-12);
        assert!(r.efficiency.max <= 1.0);
        assert!(r.efficiency.min > 0.0);
    }

    #[test]
    fn locality_switch_changes_results() {
        let mut s = sampler(6);
        let ic = s.sample(&call(64)).ticks.median;
        s.set_locality(Locality::OutOfCache);
        let oc = s.sample(&call(64)).ticks.median;
        assert!(oc > ic);
        assert_eq!(s.config().locality, Locality::OutOfCache);
    }

    #[test]
    fn zero_repetitions_still_returns_one_sample() {
        let mut s = Sampler::new(
            SimExecutor::new(harpertown_openblas(), 1),
            SamplerConfig {
                locality: Locality::InCache,
                repetitions: 0,
                warmup_discard: 0,
            },
        );
        let r = s.sample(&call(16));
        assert_eq!(r.raw_ticks.len(), 1);
        assert!(r.discarded.is_empty());
    }

    #[test]
    fn sample_ticks_matches_full_sample() {
        // Same seed, same call sequence: the tick-only fast path must report
        // exactly the summary of the full path (identical executor stream).
        let mut full = sampler(6);
        let mut fast = sampler(6);
        for n in [64usize, 128, 64, 256] {
            let a = full.sample(&call(n)).ticks;
            let b = fast.sample_ticks(&call(n));
            assert_eq!(a, b);
        }
        assert_eq!(full.samples_taken(), fast.samples_taken());
    }

    #[test]
    fn try_sample_ticks_matches_plain_path_on_a_clean_executor() {
        // Without noise or faults, the robust path must agree exactly with
        // the plain path (nothing trimmed, no retries).
        let mut plain = Sampler::new(
            SimExecutor::noiseless(harpertown_openblas()),
            SamplerConfig::in_cache(8),
        );
        let mut robust = Sampler::new(
            SimExecutor::noiseless(harpertown_openblas()),
            SamplerConfig::in_cache(8),
        );
        for n in [64usize, 128, 256] {
            let a = plain.sample_ticks(&call(n));
            let b = robust.try_sample_ticks(&call(n)).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(robust.telemetry(), SampleTelemetry::default());
        assert_eq!(plain.samples_taken(), robust.samples_taken());

        // With the executor's honest noise, medians still track closely (the
        // robust path may legitimately trim the simulator's own outliers).
        let mut plain = sampler(8);
        let mut robust = sampler(8);
        for n in [64usize, 128, 256] {
            let a = plain.sample_ticks(&call(n));
            let b = robust.try_sample_ticks(&call(n)).unwrap();
            assert!((b.median / a.median - 1.0).abs() < 0.05);
        }
        assert_eq!(robust.telemetry().retries, 0);
        assert_eq!(robust.telemetry().failures, 0);
    }

    #[test]
    fn try_sample_ticks_retries_transient_failures() {
        use dla_machine::{ChaosConfig, ChaosExecutor};
        // 8% per-measurement transient rate: each 9-measurement batch fails
        // with p ≈ 0.53, so retries are certain across 8 calls while 4
        // attempts keep per-call success above 90%.
        let chaos = ChaosConfig {
            transient_probability: 0.08,
            ..ChaosConfig::default()
        };
        let mut s = Sampler::new(
            ChaosExecutor::new(SimExecutor::new(harpertown_openblas(), 42), chaos),
            SamplerConfig::in_cache(8),
        );
        let mut ok = 0;
        for n in [32usize, 64, 96, 128, 160, 192, 224, 256] {
            if let Ok(summary) = s.try_sample_ticks(&call(n)) {
                assert!(summary.mean.is_finite());
                ok += 1;
            }
        }
        assert!(ok >= 6, "most calls should survive 8% transient faults");
        let t = s.telemetry();
        assert!(t.retries > 0, "batch failure rate ~50% must force retries");
    }

    #[test]
    fn try_sample_ticks_trims_spikes_and_non_finite() {
        use dla_machine::{ChaosConfig, ChaosExecutor};
        let chaos = ChaosConfig {
            spike_probability: 0.15,
            spike_factor: 50.0,
            non_finite_probability: 0.15,
            ..ChaosConfig::default()
        };
        let mut s = Sampler::new(
            ChaosExecutor::new(SimExecutor::new(harpertown_openblas(), 7), chaos),
            SamplerConfig::in_cache(12),
        );
        let mut clean = sampler(12);
        let mut worst = 0.0f64;
        for n in [64usize, 128, 192, 256] {
            let noisy = s.try_sample_ticks(&call(n)).unwrap();
            let base = clean.sample_ticks(&call(n));
            assert!(noisy.max.is_finite());
            // Spikes are x50; robust trimming must keep the median within a
            // few percent of the fault-free run.
            worst = worst.max((noisy.median / base.median - 1.0).abs());
        }
        assert!(
            worst < 0.1,
            "robust medians should track clean ones: {worst}"
        );
        let t = s.telemetry();
        assert!(t.discarded() > 0, "faults at 30% must discard something");
        assert_eq!(t.failures, 0);
    }

    #[test]
    fn try_sample_ticks_exhausts_retries_with_structured_error() {
        use dla_machine::{ChaosConfig, ChaosExecutor};
        let chaos = ChaosConfig {
            transient_probability: 1.0,
            ..ChaosConfig::default()
        };
        let mut s = Sampler::new(
            ChaosExecutor::new(SimExecutor::new(harpertown_openblas(), 3), chaos),
            SamplerConfig::in_cache(4),
        );
        s.set_max_retries(2);
        match s.try_sample_ticks(&call(64)) {
            Err(SampleError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected retries-exhausted, got {other:?}"),
        }
        let t = s.telemetry();
        assert_eq!(t.retries, 2);
        assert_eq!(t.failures, 1);
        // Budget is charged for failed attempts: 3 attempts with increasing
        // backoff (5 + 6 + 7 measurements).
        assert_eq!(s.samples_taken(), 18);
    }

    #[test]
    fn try_sample_ticks_all_non_finite_is_degenerate() {
        use dla_machine::{ChaosConfig, ChaosExecutor};
        let chaos = ChaosConfig {
            non_finite_probability: 1.0,
            ..ChaosConfig::default()
        };
        let mut s = Sampler::new(
            ChaosExecutor::new(SimExecutor::new(harpertown_openblas(), 5), chaos),
            SamplerConfig::in_cache(4),
        );
        match s.try_sample_ticks(&call(64)) {
            Err(SampleError::Degenerate { .. }) => {}
            other => panic!("expected degenerate, got {other:?}"),
        }
        assert!(s.telemetry().discarded_non_finite > 0);
    }

    #[test]
    fn noiseless_executor_gives_zero_spread() {
        let mut s = Sampler::new(
            SimExecutor::noiseless(harpertown_openblas()),
            SamplerConfig::in_cache(5),
        );
        let r = s.sample(&call(100));
        assert_eq!(r.ticks.std_dev, 0.0);
        assert_eq!(r.ticks.min, r.ticks.max);
    }
}
