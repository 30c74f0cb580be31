//! Executors: the objects the Sampler hands routine calls to.

use dla_blas::Call;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cost::estimate_ticks;
use crate::{Locality, MachineConfig, Measurement};

/// Why an execution attempt produced no usable measurement.
///
/// Real measurement harnesses fail transiently — a competing process steals
/// the machine, a counter read glitches, the library call is interrupted.
/// The fallible [`Executor::try_execute`]/[`Executor::try_execute_ticks`]
/// surface reports these as structured errors so callers can retry instead of
/// ingesting garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The call failed transiently; retrying the same call may succeed.
    Transient {
        /// Executor-local 1-based index of the execution that failed.
        execution: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Transient { execution } => {
                write!(f, "transient execution failure (execution #{execution})")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Something that can "run" a routine call and report a measurement.
///
/// Two implementations exist: [`SimExecutor`] (the simulated machine) and
/// [`crate::NativeExecutor`] (wall-clock timing of the pure-Rust kernels).
///
/// Executors are `Send` so that model construction can fan out across worker
/// threads, each owning its own executor obtained via [`Executor::fork`].
pub trait Executor: Send {
    /// The machine configuration this executor represents.
    fn machine(&self) -> &MachineConfig;

    /// Executes `call` under the given memory-locality scenario and reports
    /// the measurement.  Successive invocations of the same call may return
    /// different values (measurement noise).
    fn execute(&mut self, call: &Call, locality: Locality) -> Measurement;

    /// Executes `call` `count` times, appending only the tick measurements to
    /// `out` — the Sampler's repetition loop.
    ///
    /// The default implementation loops [`Executor::execute`]; implementations
    /// whose per-call cost is dominated by deterministic state (the simulated
    /// machine re-deriving the identical cost estimate per repetition) can
    /// override it, **provided** the observable measurements stay identical to
    /// the looped default — including any internal noise-stream consumption,
    /// so that a mixed sequence of `execute` and `execute_ticks` calls
    /// reproduces bit for bit.
    fn execute_ticks(&mut self, call: &Call, locality: Locality, count: usize, out: &mut Vec<f64>) {
        for _ in 0..count {
            out.push(self.execute(call, locality).ticks);
        }
    }

    /// Fallible variant of [`Executor::execute`].
    ///
    /// The default implementation never fails (the simulated and native
    /// executors always deliver a measurement); wrappers that model flaky
    /// harnesses — [`crate::ChaosExecutor`] — override it to report
    /// [`ExecError::Transient`] instead of a measurement.
    fn try_execute(&mut self, call: &Call, locality: Locality) -> Result<Measurement, ExecError> {
        Ok(self.execute(call, locality))
    }

    /// Fallible variant of [`Executor::execute_ticks`].
    ///
    /// On error, `out` is left exactly as it was before the call (no partial
    /// batch is delivered), so callers can retry without cleanup.
    fn try_execute_ticks(
        &mut self,
        call: &Call,
        locality: Locality,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), ExecError> {
        self.execute_ticks(call, locality, count, out);
        Ok(())
    }

    /// Creates an independent executor for the given worker stream.
    ///
    /// Forks carry the same machine configuration but fresh library state.
    /// For a fixed parent, the fork is a deterministic function of `stream`
    /// alone — two forks with the same stream id behave identically, which is
    /// what makes parallel model construction reproduce the serial build bit
    /// for bit.  [`SimExecutor`] derives an independent child noise stream;
    /// [`crate::NativeExecutor`] forks by clone (wall-clock timing carries no
    /// executor-owned randomness).
    fn fork(&self, stream: u64) -> Self
    where
        Self: Sized;
}

/// Mixes a base seed and a stream id into an independent child seed
/// (splitmix64-style finalizer, so even adjacent streams are uncorrelated).
///
/// This is the derivation every seed-forked subsystem shares — executor
/// noise streams, chaos fault schedules, and the fleet serving tier's
/// per-query retry/backoff streams — so "same seed, same stream id" always
/// means "same decisions", independent of scheduling or worker counts.
pub fn derive_stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The simulated-machine executor.
///
/// Wraps the deterministic cost model with the stochastic phenomena the paper
/// discusses in Section II-B: multiplicative measurement noise of a few
/// percent, occasional outliers, and a large one-off penalty for the first
/// call into the library (BLAS initialisation).
#[derive(Debug, Clone)]
pub struct SimExecutor {
    machine: MachineConfig,
    seed: u64,
    rng: SmallRng,
    /// Bitmask of routines that have paid the library-initialisation penalty
    /// (one bit per [`Routine`] discriminant — cheaper than a hash set on the
    /// per-measurement hot path).
    initialised: u32,
    executions: u64,
}

impl SimExecutor {
    /// Creates a simulated executor with a deterministic noise stream.
    pub fn new(machine: MachineConfig, seed: u64) -> SimExecutor {
        SimExecutor {
            machine,
            seed,
            rng: SmallRng::seed_from_u64(seed),
            initialised: 0,
            executions: 0,
        }
    }

    /// Creates an executor whose measurements carry no noise, no outliers and
    /// no initialisation overhead — useful for tests and for probing the
    /// deterministic cost surface.
    pub fn noiseless(machine: MachineConfig) -> SimExecutor {
        let mut machine = machine;
        machine.blas.noise_sigma = 0.0;
        machine.blas.outlier_probability = 0.0;
        machine.blas.init_overhead_factor = 1.0;
        SimExecutor::new(machine, 0)
    }

    /// Number of calls executed so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    fn noise_factor(&mut self) -> f64 {
        let sigma = self.machine.blas.noise_sigma;
        let mut factor = 1.0;
        if sigma > 0.0 {
            // Sum of 4 uniforms approximates a Gaussian well enough for a
            // noise model; clamp to avoid negative times.
            let mut g = 0.0;
            for _ in 0..4 {
                g += self.rng.gen_range(-1.0f64..1.0);
            }
            g *= 0.5; // roughly unit variance
            factor *= (1.0 + sigma * g).max(0.2);
        }
        let p_out = self.machine.blas.outlier_probability;
        if p_out > 0.0 && self.rng.gen_bool(p_out.clamp(0.0, 1.0)) {
            factor *= self.machine.blas.outlier_factor;
        }
        factor
    }
}

impl Executor for SimExecutor {
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    fn execute(&mut self, call: &Call, locality: Locality) -> Measurement {
        self.executions += 1;
        let mut ticks = estimate_ticks(&self.machine, call, locality);

        // First call into the library for this routine: initialisation cost.
        let bit = 1u32 << (call.routine() as u32);
        if self.initialised & bit == 0 {
            self.initialised |= bit;
            ticks *= self.machine.blas.init_overhead_factor.max(1.0);
        }

        ticks *= self.noise_factor();
        Measurement {
            ticks,
            flops: call.flops(),
        }
    }

    fn fork(&self, stream: u64) -> SimExecutor {
        SimExecutor::new(self.machine.clone(), derive_stream_seed(self.seed, stream))
    }

    /// Batched repetitions: the deterministic cost estimate is computed once
    /// and only the stochastic layer (initialisation penalty, noise stream)
    /// runs per repetition, in exactly the order the looped default would —
    /// the returned ticks are bit-identical to `count` [`Executor::execute`]
    /// calls, at a fraction of the cost.
    fn execute_ticks(&mut self, call: &Call, locality: Locality, count: usize, out: &mut Vec<f64>) {
        if count == 0 {
            return;
        }
        let estimate = estimate_ticks(&self.machine, call, locality);
        let bit = 1u32 << (call.routine() as u32);
        for _ in 0..count {
            self.executions += 1;
            let mut ticks = estimate;
            if self.initialised & bit == 0 {
                self.initialised |= bit;
                ticks *= self.machine.blas.init_overhead_factor.max(1.0);
            }
            ticks *= self.noise_factor();
            out.push(ticks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blasprofile::openblas_like;
    use crate::CpuSpec;
    use dla_blas::Trans;

    fn machine() -> MachineConfig {
        MachineConfig::new(CpuSpec::harpertown(), openblas_like(), 1)
    }

    fn call() -> Call {
        Call::gemm(Trans::NoTrans, Trans::NoTrans, 200, 200, 200, 1.0, 0.0)
    }

    #[test]
    fn first_call_is_much_slower() {
        let mut ex = SimExecutor::new(machine(), 1);
        let first = ex.execute(&call(), Locality::InCache).ticks;
        let later: Vec<f64> = (0..5)
            .map(|_| ex.execute(&call(), Locality::InCache).ticks)
            .collect();
        let typical = later.iter().sum::<f64>() / later.len() as f64;
        assert!(
            first > 5.0 * typical,
            "first call {first} should dwarf typical {typical}"
        );
        assert_eq!(ex.executions(), 6);
    }

    #[test]
    fn noise_is_a_few_percent() {
        let mut ex = SimExecutor::new(machine(), 3);
        let _ = ex.execute(&call(), Locality::InCache); // discard init
        let samples: Vec<f64> = (0..200)
            .map(|_| ex.execute(&call(), Locality::InCache).ticks)
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let base = estimate_ticks(&machine(), &call(), Locality::InCache);
        assert!(
            (mean / base - 1.0).abs() < 0.1,
            "mean {mean} vs base {base}"
        );
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min, "noise should spread the measurements");
        // Fluctuations of roughly the order the paper reports (a few percent
        // to ~10 % including outliers).
        assert!((max - min) / mean < 1.2);
        assert!((max - min) / mean > 0.01);
    }

    #[test]
    fn noiseless_executor_is_deterministic() {
        let mut ex = SimExecutor::noiseless(machine());
        let a = ex.execute(&call(), Locality::InCache).ticks;
        let b = ex.execute(&call(), Locality::InCache).ticks;
        assert_eq!(a, b);
        assert_eq!(
            a,
            estimate_ticks(&ex.machine().clone(), &call(), Locality::InCache)
        );
    }

    #[test]
    fn same_seed_reproduces_measurements() {
        let mut ex1 = SimExecutor::new(machine(), 77);
        let mut ex2 = SimExecutor::new(machine(), 77);
        for _ in 0..10 {
            let a = ex1.execute(&call(), Locality::OutOfCache).ticks;
            let b = ex2.execute(&call(), Locality::OutOfCache).ticks;
            assert_eq!(a, b);
        }
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let ex = SimExecutor::new(machine(), 9);
        let mut a = ex.fork(3);
        let mut b = ex.fork(3);
        let mut c = ex.fork(4);
        let mut distinct = false;
        for _ in 0..10 {
            let ta = a.execute(&call(), Locality::InCache).ticks;
            let tb = b.execute(&call(), Locality::InCache).ticks;
            let tc = c.execute(&call(), Locality::InCache).ticks;
            assert_eq!(ta, tb, "same stream id must replay the same noise");
            if ta != tc {
                distinct = true;
            }
        }
        assert!(distinct, "different streams must produce different noise");
    }

    #[test]
    fn fork_starts_with_fresh_library_state() {
        let mut ex = SimExecutor::new(machine(), 10);
        let _ = ex.execute(&call(), Locality::InCache);
        let warm = ex.execute(&call(), Locality::InCache).ticks;
        let mut child = ex.fork(0);
        let cold = child.execute(&call(), Locality::InCache).ticks;
        assert!(cold > 3.0 * warm, "fork must pay the first-call penalty");
    }

    #[test]
    fn executors_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SimExecutor>();
        assert_send::<crate::NativeExecutor>();
    }

    #[test]
    fn measurement_reports_flops_and_efficiency() {
        let mut ex = SimExecutor::new(machine(), 5);
        let m = ex.execute(&call(), Locality::InCache);
        assert_eq!(m.flops, call().flops());
        assert!(m.efficiency(ex.machine()) > 0.0);
    }
}
