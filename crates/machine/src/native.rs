//! Wall-clock execution of the pure-Rust kernels.
//!
//! The simulated machine makes the experiments hermetic and reproducible, but
//! the stack also supports modeling the machine the reproduction itself runs
//! on: the [`NativeExecutor`] prepares real operands, executes the `dla-blas`
//! kernels and converts the measured wall-clock time into ticks using the
//! configured clock frequency.

use std::time::Instant;

use dla_blas::execute::PreparedCall;
use dla_blas::Call;

use crate::{Executor, Locality, MachineConfig, Measurement};

/// Executes calls natively and measures wall-clock time.
#[derive(Debug, Clone)]
pub struct NativeExecutor {
    machine: MachineConfig,
    seed: u64,
    /// Scratch buffer larger than the last-level cache, touched before every
    /// out-of-cache measurement to evict the operands.
    flush_buffer: Vec<f64>,
}

impl NativeExecutor {
    /// Creates a native executor.
    ///
    /// `machine` describes the host (its `freq_ghz` converts seconds into
    /// ticks; its cache sizes size the eviction buffer).
    pub fn new(machine: MachineConfig, seed: u64) -> NativeExecutor {
        let llc = machine
            .cpu
            .last_level_cache()
            .map(|c| c.size_bytes)
            .unwrap_or(8 * 1024 * 1024);
        // Twice the LLC, in doubles.
        let flush_len = (2 * llc) / std::mem::size_of::<f64>();
        NativeExecutor {
            machine,
            seed,
            flush_buffer: vec![0.0; flush_len.max(1)],
        }
    }

    fn flush_caches(&mut self) {
        // Write the whole buffer so the cache is filled with unrelated lines.
        for (i, v) in self.flush_buffer.iter_mut().enumerate() {
            *v = (i % 1024) as f64;
        }
        // Prevent the loop from being optimised away.
        std::hint::black_box(&self.flush_buffer);
    }
}

impl Executor for NativeExecutor {
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    fn execute(&mut self, call: &Call, locality: Locality) -> Measurement {
        let mut prepared = PreparedCall::new(call, self.seed);
        match locality {
            Locality::InCache => {
                // Warm the operands (and the instruction paths) once.
                prepared.reset_and_run();
            }
            Locality::OutOfCache => {
                prepared.reset();
                self.flush_caches();
            }
        }
        prepared.reset();
        let start = Instant::now();
        prepared.run();
        let seconds = start.elapsed().as_secs_f64();
        Measurement {
            ticks: self.machine.cpu.seconds_to_ticks(seconds),
            flops: call.flops(),
        }
    }

    fn fork(&self, _stream: u64) -> NativeExecutor {
        // Wall-clock timing carries no executor-owned randomness, so a fork
        // is simply a clone (each worker gets its own flush buffer).
        self.clone()
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

    #[test]
    fn native_measurements_are_positive_and_scale_with_size() {
        let mut ex = NativeExecutor::new(machine(), 1);
        let small = Call::gemm(Trans::NoTrans, Trans::NoTrans, 16, 16, 16, 1.0, 0.0);
        let large = Call::gemm(Trans::NoTrans, Trans::NoTrans, 96, 96, 96, 1.0, 0.0);
        let t_small = ex.execute(&small, Locality::InCache).ticks;
        let t_large = ex.execute(&large, Locality::InCache).ticks;
        assert!(t_small > 0.0);
        assert!(t_large > t_small, "{t_large} should exceed {t_small}");
    }

    #[test]
    fn out_of_cache_path_runs() {
        let mut ex = NativeExecutor::new(machine(), 2);
        let call = Call::gemm(Trans::NoTrans, Trans::NoTrans, 32, 32, 32, 1.0, 0.0);
        let m = ex.execute(&call, Locality::OutOfCache);
        assert!(m.ticks > 0.0);
        assert_eq!(m.flops, call.flops());
    }
}
