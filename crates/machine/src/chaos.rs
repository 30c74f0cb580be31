//! Deterministic fault injection for the measurement path.
//!
//! The follow-up cache study to the source paper (arXiv:1402.5897) shows that
//! real kernel timings are noisy and state-dependent; production measurement
//! sweeps additionally suffer transient harness failures, scheduler-induced
//! latency spikes, corrupt counter reads, runs that never come back and
//! outages of the whole harness.  [`ChaosExecutor`] wraps any
//! [`Executor`] and injects exactly these fault classes on a deterministic,
//! seed-forked schedule, so every downstream defense (retrying sampler,
//! robust aggregation, refinement quarantine, publication validation) is
//! testable under plain `cargo test` with no wall-clock dependence.

use dla_blas::Call;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::executor::derive_stream_seed;
use crate::{ExecError, Executor, Locality, MachineConfig, Measurement};

/// Fault schedule for a [`ChaosExecutor`].
///
/// All probabilities are per executed measurement and drawn from the chaos
/// executor's own seeded stream — independent of the wrapped executor's noise
/// stream, so enabling injection never perturbs the underlying measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the chaos decision stream ([`Executor::fork`] derives child
    /// seeds from it, like the simulated executor's noise stream).
    pub seed: u64,
    /// Probability that a measurement fails transiently.  On the fallible
    /// surface this is an [`ExecError::Transient`]; on the infallible surface
    /// the lost measurement is reported as NaN ticks.
    pub transient_probability: f64,
    /// Probability of a latency outlier (`ticks × spike_factor`).
    pub spike_probability: f64,
    /// Multiplier applied to spiked measurements.
    pub spike_factor: f64,
    /// Probability that a measurement's ticks are corrupted to a non-finite
    /// value (alternating NaN and +∞).
    pub non_finite_probability: f64,
    /// Probability that a measurement overruns the harness deadline.  On the
    /// infallible surface the measurement reports +∞ ticks (it "never came
    /// back"); on the fallible surface it is a [`ExecError::Transient`] —
    /// like a transient failure, a timed-out run delivers nothing and may
    /// succeed on retry.  The serving-layer `ChaosShard` reuses this field to
    /// inject distinguishable per-query timeouts.
    pub timeout_probability: f64,
    /// Probability that a measurement opens a **hard outage window**: this
    /// measurement and the next `outage_draws - 1` all fail (the harness is
    /// down, not merely unlucky).  Lost measurements inside the window report
    /// NaN on the infallible surface and [`ExecError::Transient`] on the
    /// fallible one, and consume no chaos draws — a down harness does not
    /// advance the fault schedule.
    pub outage_probability: f64,
    /// Length, in measurements, of each outage window (0 behaves as 1).
    pub outage_draws: u64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            transient_probability: 0.0,
            spike_probability: 0.0,
            spike_factor: 10.0,
            non_finite_probability: 0.0,
            timeout_probability: 0.0,
            outage_probability: 0.0,
            outage_draws: 4,
        }
    }
}

impl ChaosConfig {
    /// A mixed schedule at the given total per-measurement fault rate:
    /// 40 % transient failures, 30 % latency spikes (×10) and 30 % non-finite
    /// ticks.  This is the composition the acceptance experiments use
    /// (e.g. `mixed(seed, 0.2)` for a 20 % fault rate).
    pub fn mixed(seed: u64, fault_rate: f64) -> ChaosConfig {
        let rate = fault_rate.clamp(0.0, 1.0);
        ChaosConfig {
            seed,
            transient_probability: 0.4 * rate,
            spike_probability: 0.3 * rate,
            non_finite_probability: 0.3 * rate,
            ..ChaosConfig::default()
        }
    }

    /// A mixed **serving-layer** schedule at the given total per-call fault
    /// rate: 30 % transient failures, 30 % harness timeouts, 20 % ×8 latency
    /// spikes and 20 % non-finite corruption.  This is the composition the
    /// fleet chaos suite and `examples/fleet_degradation.rs` inject through
    /// `ChaosShard`.
    pub fn serving(seed: u64, fault_rate: f64) -> ChaosConfig {
        let rate = fault_rate.clamp(0.0, 1.0);
        ChaosConfig {
            seed,
            transient_probability: 0.3 * rate,
            timeout_probability: 0.3 * rate,
            spike_probability: 0.2 * rate,
            spike_factor: 8.0,
            non_finite_probability: 0.2 * rate,
            ..ChaosConfig::default()
        }
    }

    /// Total per-measurement probability that *some* randomized fault fires.
    pub fn fault_rate(&self) -> f64 {
        self.transient_probability
            + self.spike_probability
            + self.non_finite_probability
            + self.timeout_probability
            + self.outage_probability
    }
}

/// Counts of every fault injected so far, for assertions and telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Transient failures injected.
    pub transient: u64,
    /// Latency spikes injected.
    pub spikes: u64,
    /// Measurements corrupted to NaN/∞.
    pub non_finite: u64,
    /// Measurements that overran the harness deadline.
    pub timeouts: u64,
    /// Hard outage windows opened.
    pub outages: u64,
    /// Measurements lost inside outage windows (the window-opening
    /// measurement included).
    pub outage_lost: u64,
}

impl FaultCounts {
    /// Total faults injected.  Outages count one per lost measurement, not
    /// one per window.
    pub fn total(&self) -> u64 {
        self.transient + self.spikes + self.non_finite + self.timeouts + self.outage_lost
    }
}

/// What the chaos schedule decided for one measurement.
enum Fault {
    None,
    Transient,
    Spike,
    NonFinite,
    /// The measurement overran the harness deadline (+∞ ticks / no delivery).
    Timeout,
    /// The measurement fell into a hard outage window (every measurement in
    /// the window reports this kind).
    Outage,
}

impl Fault {
    /// Whether the fallible surface delivers nothing for this fault.
    /// Transient failures, timeouts and outage losses all mean "no
    /// measurement came back; retrying may succeed" — exactly
    /// [`ExecError::Transient`]'s contract.
    fn undelivered(&self) -> bool {
        matches!(self, Fault::Transient | Fault::Timeout | Fault::Outage)
    }
}

/// An [`Executor`] wrapper that injects faults on a deterministic schedule.
///
/// The wrapped executor always runs first (its noise stream advances exactly
/// as without injection), then one chaos decision is drawn per delivered
/// measurement.  The infallible [`Executor::execute`]/
/// [`Executor::execute_ticks`] surface cannot report a transient failure, so
/// there the lost measurement appears as NaN ticks — which the robust
/// sampling layer must catch, exactly like a corrupt counter read.  The
/// fallible `try_*` surface reports it as [`ExecError::Transient`] and
/// delivers nothing.
#[derive(Debug, Clone)]
pub struct ChaosExecutor<E> {
    inner: E,
    config: ChaosConfig,
    rng: SmallRng,
    executions: u64,
    /// Measurements left in the currently open outage window (0 = no window).
    outage_left: u64,
    counts: FaultCounts,
}

impl<E: Executor> ChaosExecutor<E> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: E, config: ChaosConfig) -> ChaosExecutor<E> {
        ChaosExecutor {
            inner,
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            executions: 0,
            outage_left: 0,
            counts: FaultCounts::default(),
        }
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwraps into the inner executor.
    pub fn into_inner(self) -> E {
        self.inner
    }

    /// The fault schedule.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Mutable access to the fault schedule, e.g. to lift or change the fault
    /// rates mid-scenario (a recovered machine).  The random stream is not
    /// reseeded: draws continue from wherever the previous schedule left off,
    /// so a toggle stays deterministic for a fixed seed and call sequence.
    pub fn config_mut(&mut self) -> &mut ChaosConfig {
        &mut self.config
    }

    /// Faults injected so far.
    pub fn fault_counts(&self) -> FaultCounts {
        self.counts
    }

    /// Number of measurements processed so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Applies the schedule to one measurement's ticks.  Consumes exactly one
    /// random draw whenever any randomized fault has non-zero probability, so
    /// `execute` and `execute_ticks` sequences replay identically.
    fn transform(&mut self, ticks: f64) -> (f64, Fault) {
        self.executions += 1;
        let c = self.config;
        // An open outage window swallows the measurement before any draw is
        // consumed: a down harness does not advance the fault schedule.
        if self.outage_left > 0 {
            self.outage_left -= 1;
            self.counts.outage_lost += 1;
            return (f64::NAN, Fault::Outage);
        }
        let p_transient = c.transient_probability.max(0.0);
        let p_spike = c.spike_probability.max(0.0);
        let p_non_finite = c.non_finite_probability.max(0.0);
        let p_timeout = c.timeout_probability.max(0.0);
        let p_outage = c.outage_probability.max(0.0);
        if p_transient + p_spike + p_non_finite + p_timeout + p_outage <= 0.0 {
            return (ticks, Fault::None);
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        if u < p_transient {
            self.counts.transient += 1;
            (f64::NAN, Fault::Transient)
        } else if u < p_transient + p_spike {
            self.counts.spikes += 1;
            (ticks * c.spike_factor, Fault::Spike)
        } else if u < p_transient + p_spike + p_non_finite {
            self.counts.non_finite += 1;
            // Alternate the two non-finite corruptions so both are exercised.
            let bad = if self.counts.non_finite % 2 == 1 {
                f64::NAN
            } else {
                f64::INFINITY
            };
            (bad, Fault::NonFinite)
        } else if u < p_transient + p_spike + p_non_finite + p_timeout {
            self.counts.timeouts += 1;
            // Overran the harness deadline: the run "never came back".
            (f64::INFINITY, Fault::Timeout)
        } else if u < p_transient + p_spike + p_non_finite + p_timeout + p_outage {
            // Open a hard outage window; this measurement is its first loss.
            let window = c.outage_draws.max(1);
            self.counts.outages += 1;
            self.counts.outage_lost += 1;
            self.outage_left = window - 1;
            (f64::NAN, Fault::Outage)
        } else {
            (ticks, Fault::None)
        }
    }
}

impl<E: Executor> Executor for ChaosExecutor<E> {
    fn machine(&self) -> &MachineConfig {
        self.inner.machine()
    }

    fn execute(&mut self, call: &Call, locality: Locality) -> Measurement {
        let mut m = self.inner.execute(call, locality);
        let (ticks, _) = self.transform(m.ticks);
        m.ticks = ticks;
        m
    }

    fn try_execute(&mut self, call: &Call, locality: Locality) -> Result<Measurement, ExecError> {
        let mut m = self.inner.execute(call, locality);
        let (ticks, fault) = self.transform(m.ticks);
        if fault.undelivered() {
            return Err(ExecError::Transient {
                execution: self.executions,
            });
        }
        m.ticks = ticks;
        Ok(m)
    }

    fn execute_ticks(&mut self, call: &Call, locality: Locality, count: usize, out: &mut Vec<f64>) {
        let start = out.len();
        self.inner.execute_ticks(call, locality, count, out);
        for t in &mut out[start..] {
            let (ticks, _) = self.transform(*t);
            *t = ticks;
        }
    }

    /// Batched fallible repetitions.  On a transient fault, `out` is restored
    /// to its pre-call length and the remaining repetitions of the batch
    /// consume no chaos draws — a failed batch aborts at the fault, exactly
    /// like a harness run that dies partway through.
    fn try_execute_ticks(
        &mut self,
        call: &Call,
        locality: Locality,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), ExecError> {
        let start = out.len();
        self.inner.execute_ticks(call, locality, count, out);
        for i in start..out.len() {
            let (ticks, fault) = self.transform(out[i]);
            if fault.undelivered() {
                out.truncate(start);
                return Err(ExecError::Transient {
                    execution: self.executions,
                });
            }
            out[i] = ticks;
        }
        Ok(())
    }

    fn fork(&self, stream: u64) -> ChaosExecutor<E> {
        let mut config = self.config;
        config.seed = derive_stream_seed(self.config.seed, stream);
        ChaosExecutor::new(self.inner.fork(stream), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blasprofile::openblas_like;
    use crate::{CpuSpec, SimExecutor};
    use dla_blas::Trans;

    fn machine() -> MachineConfig {
        MachineConfig::new(CpuSpec::harpertown(), openblas_like(), 1)
    }

    fn call() -> Call {
        Call::gemm(Trans::NoTrans, Trans::NoTrans, 100, 100, 100, 1.0, 0.0)
    }

    #[test]
    fn zero_config_is_bit_identical_passthrough() {
        let mut raw = SimExecutor::new(machine(), 42);
        let mut chaotic =
            ChaosExecutor::new(SimExecutor::new(machine(), 42), ChaosConfig::default());
        let mut a = Vec::new();
        let mut b = Vec::new();
        raw.execute_ticks(&call(), Locality::InCache, 8, &mut a);
        chaotic.execute_ticks(&call(), Locality::InCache, 8, &mut b);
        assert_eq!(a, b);
        assert_eq!(
            raw.execute(&call(), Locality::OutOfCache).ticks,
            chaotic.execute(&call(), Locality::OutOfCache).ticks
        );
        assert_eq!(chaotic.fault_counts(), FaultCounts::default());
    }

    #[test]
    fn same_seed_replays_the_same_faults() {
        let config = ChaosConfig::mixed(7, 0.5);
        let mut a = ChaosExecutor::new(SimExecutor::new(machine(), 1), config);
        let mut b = ChaosExecutor::new(SimExecutor::new(machine(), 1), config);
        let mut ta = Vec::new();
        let mut tb = Vec::new();
        a.execute_ticks(&call(), Locality::InCache, 64, &mut ta);
        b.execute_ticks(&call(), Locality::InCache, 64, &mut tb);
        assert_eq!(ta.len(), tb.len());
        for (x, y) in ta.iter().zip(&tb) {
            assert!(x == y || (x.is_nan() && y.is_nan()));
        }
        assert_eq!(a.fault_counts(), b.fault_counts());
        assert!(a.fault_counts().total() > 0);
    }

    #[test]
    fn execute_and_execute_ticks_consume_the_stream_identically() {
        let config = ChaosConfig::mixed(3, 0.4);
        let mut batched = ChaosExecutor::new(SimExecutor::new(machine(), 5), config);
        let mut looped = ChaosExecutor::new(SimExecutor::new(machine(), 5), config);
        let mut a = Vec::new();
        batched.execute_ticks(&call(), Locality::InCache, 32, &mut a);
        let b: Vec<f64> = (0..32)
            .map(|_| looped.execute(&call(), Locality::InCache).ticks)
            .collect();
        for (x, y) in a.iter().zip(&b) {
            assert!(x == y || (x.is_nan() && y.is_nan()));
        }
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let parent =
            ChaosExecutor::new(SimExecutor::new(machine(), 9), ChaosConfig::mixed(11, 0.3));
        let mut a = parent.fork(2);
        let mut b = parent.fork(2);
        let mut c = parent.fork(5);
        let mut ta = Vec::new();
        let mut tb = Vec::new();
        let mut tc = Vec::new();
        a.execute_ticks(&call(), Locality::InCache, 64, &mut ta);
        b.execute_ticks(&call(), Locality::InCache, 64, &mut tb);
        c.execute_ticks(&call(), Locality::InCache, 64, &mut tc);
        assert_eq!(a.fault_counts(), b.fault_counts());
        assert_ne!(
            a.fault_counts(),
            c.fault_counts(),
            "different streams should draw different fault schedules"
        );
    }

    #[test]
    fn fault_rates_match_the_schedule_roughly() {
        let config = ChaosConfig::mixed(123, 0.2);
        let mut ex = ChaosExecutor::new(SimExecutor::new(machine(), 2), config);
        let mut ticks = Vec::new();
        ex.execute_ticks(&call(), Locality::InCache, 4000, &mut ticks);
        let counts = ex.fault_counts();
        let observed = counts.total() as f64 / 4000.0;
        assert!(
            (observed - 0.2).abs() < 0.03,
            "observed fault rate {observed}, want ~0.2 ({counts:?})"
        );
        assert!(counts.transient > 0 && counts.spikes > 0 && counts.non_finite > 0);
        let non_finite_ticks = ticks.iter().filter(|t| !t.is_finite()).count() as u64;
        // Transient faults surface as NaN on the infallible surface.
        assert_eq!(non_finite_ticks, counts.transient + counts.non_finite);
    }

    #[test]
    fn try_execute_ticks_reports_transient_and_restores_out() {
        let config = ChaosConfig {
            transient_probability: 0.5,
            ..ChaosConfig::mixed(77, 0.0)
        };
        let mut ex = ChaosExecutor::new(SimExecutor::new(machine(), 4), config);
        let mut out = vec![1.0, 2.0];
        let mut failures = 0;
        for _ in 0..10 {
            let start = out.len();
            match ex.try_execute_ticks(&call(), Locality::InCache, 8, &mut out) {
                Ok(()) => assert_eq!(out.len(), start + 8),
                Err(ExecError::Transient { .. }) => {
                    failures += 1;
                    assert_eq!(out.len(), start, "failed batch must deliver nothing");
                }
            }
        }
        assert!(failures > 0, "p=0.5 over 80 reps must fail at least once");
        assert_eq!(&out[..2], &[1.0, 2.0]);
    }

    #[test]
    fn try_execute_reports_transient() {
        let config = ChaosConfig {
            transient_probability: 1.0,
            ..ChaosConfig::default()
        };
        let mut ex = ChaosExecutor::new(SimExecutor::new(machine(), 6), config);
        match ex.try_execute(&call(), Locality::InCache) {
            Err(ExecError::Transient { execution }) => assert_eq!(execution, 1),
            other => panic!("expected transient failure, got {other:?}"),
        }
        // The infallible surface reports the same fault as NaN ticks.
        assert!(ex.execute(&call(), Locality::InCache).ticks.is_nan());
    }

    #[test]
    fn chaos_executor_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ChaosExecutor<SimExecutor>>();
    }

    #[test]
    fn timeouts_surface_as_infinity_and_transient_error() {
        let config = ChaosConfig {
            timeout_probability: 1.0,
            ..ChaosConfig::default()
        };
        let mut ex = ChaosExecutor::new(SimExecutor::new(machine(), 8), config);
        // Infallible surface: the run "never came back" — +∞ ticks.
        assert_eq!(ex.execute(&call(), Locality::InCache).ticks, f64::INFINITY);
        // Fallible surface: delivered nothing, retry may succeed.
        assert!(matches!(
            ex.try_execute(&call(), Locality::InCache),
            Err(ExecError::Transient { .. })
        ));
        assert_eq!(ex.fault_counts().timeouts, 2);
        assert_eq!(ex.fault_counts().total(), 2);
    }

    #[test]
    fn outage_windows_lose_exactly_their_draws_then_recover() {
        // Guarantee the very first draw opens the window, and no other
        // randomized fault competes with it.
        let config = ChaosConfig {
            outage_probability: 1.0,
            outage_draws: 5,
            ..ChaosConfig::default()
        };
        let mut ex = ChaosExecutor::new(SimExecutor::noiseless(machine()), config);
        let mut ticks = Vec::new();
        // First execution opens a 5-measurement window; measurements 1–5 are
        // lost.  Execution 6 draws again (probability 1) and opens the next
        // window immediately, so with p = 1 everything is lost — assert the
        // window accounting instead.
        ex.execute_ticks(&call(), Locality::InCache, 12, &mut ticks);
        assert!(ticks.iter().all(|t| t.is_nan()));
        let counts = ex.fault_counts();
        assert_eq!(counts.outage_lost, 12);
        // Windows of 5: executions 1 and 6 and 11 opened one each.
        assert_eq!(counts.outages, 3);

        // A finite-probability window closes and lets measurements through.
        let config = ChaosConfig {
            seed: 3,
            outage_probability: 0.05,
            outage_draws: 4,
            ..ChaosConfig::default()
        };
        let mut ex = ChaosExecutor::new(SimExecutor::noiseless(machine()), config);
        let mut ticks = Vec::new();
        ex.execute_ticks(&call(), Locality::InCache, 400, &mut ticks);
        let counts = ex.fault_counts();
        assert!(
            counts.outages > 0,
            "p=0.05 over 400 draws must open windows"
        );
        assert!(
            ticks.iter().any(|t| t.is_finite()),
            "the harness must recover between windows"
        );
        let lost = ticks.iter().filter(|t| t.is_nan()).count() as u64;
        assert_eq!(lost, counts.outage_lost);
    }

    #[test]
    fn outage_windows_do_not_advance_the_fault_schedule() {
        // Two executors with the same seed: one whose first 6 measurements
        // fall into an outage window, one without.  After the window, both
        // must draw the identical fault schedule (the window consumed only
        // its single opening draw).
        let mixed = ChaosConfig::mixed(21, 0.4);
        let windowed = ChaosConfig {
            seed: 21,
            outage_probability: 1.0,
            outage_draws: 6,
            ..ChaosConfig::default()
        };
        let mut a = ChaosExecutor::new(SimExecutor::noiseless(machine()), windowed);
        let mut ta = Vec::new();
        // Execution 1 opens the window (consuming one draw), 2–6 consume none.
        a.execute_ticks(&call(), Locality::InCache, 6, &mut ta);
        assert_eq!(a.fault_counts().outage_lost, 6);

        let mut b = ChaosExecutor::new(SimExecutor::noiseless(machine()), mixed);
        let mut tb = Vec::new();
        b.execute_ticks(&call(), Locality::InCache, 1, &mut tb); // consume draw 1

        // From here on, both streams must decide identically — switch the
        // windowed executor onto the mixed schedule without reseeding.
        *a.config_mut() = ChaosConfig { seed: 21, ..mixed };
        let mut rest_a = Vec::new();
        let mut rest_b = Vec::new();
        a.execute_ticks(&call(), Locality::InCache, 64, &mut rest_a);
        b.execute_ticks(&call(), Locality::InCache, 64, &mut rest_b);
        for (x, y) in rest_a.iter().zip(&rest_b) {
            assert!(x == y || (x.is_nan() && y.is_nan()));
        }
    }

    #[test]
    fn serving_schedule_composes_the_rate() {
        let config = ChaosConfig::serving(5, 0.2);
        assert!((config.fault_rate() - 0.2).abs() < 1e-12);
        assert!(config.timeout_probability > 0.0);
        assert_eq!(config.spike_factor, 8.0);
        let mut ex = ChaosExecutor::new(SimExecutor::new(machine(), 2), config);
        let mut ticks = Vec::new();
        ex.execute_ticks(&call(), Locality::InCache, 4000, &mut ticks);
        let counts = ex.fault_counts();
        let observed = counts.total() as f64 / 4000.0;
        assert!(
            (observed - 0.2).abs() < 0.03,
            "observed fault rate {observed}, want ~0.2 ({counts:?})"
        );
        assert!(counts.timeouts > 0, "serving schedule must inject timeouts");
    }
}
