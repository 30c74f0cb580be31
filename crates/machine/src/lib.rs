//! # dla-machine
//!
//! The measurement substrate of the `dlaperf` stack.
//!
//! The original paper measures BLAS routines on real Intel Harpertown and
//! Sandy Bridge machines through RDTSC/PAPI and three proprietary BLAS
//! implementations (OpenBLAS, MKL, ATLAS).  None of that hardware or software
//! is available to a reproduction that must run hermetically, so this crate
//! provides a substitution.  The paper's models are built from ticks alone,
//! so a [`Measurement`] reports ticks and the call's flop count, and no
//! hardware counter is simulated:
//!
//! * [`CpuSpec`] / [`CacheLevel`] — analytical machine descriptions with
//!   presets for a Harpertown-class and a Sandy Bridge-class CPU.
//! * [`BlasProfile`] — per-implementation performance signatures (peak kernel
//!   efficiency, saturation dimensions, blocking kinks, call overheads, noise
//!   levels, library-initialisation cost) with `OpenBLAS`-, `MKL`- and
//!   `ATLAS`-like presets.
//! * [`cost`] — the deterministic roofline-style cost model mapping a
//!   [`dla_blas::Call`] plus a memory-locality scenario to `ticks`.
//! * [`SimExecutor`] — the stochastic executor: deterministic cost model plus
//!   multiplicative measurement noise, outliers and first-call overhead; this
//!   is what the Sampler "runs" calls on.
//! * [`NativeExecutor`] — the real-hardware path: executes the pure-Rust
//!   kernels of `dla-blas` and measures wall-clock time, for users who want to
//!   model the machine the reproduction itself runs on.
//! * [`ChaosExecutor`] — deterministic fault injection wrapping any executor
//!   (transient failures, latency spikes, NaN/∞ ticks, timeouts, outage
//!   windows) for testing the fault-tolerant measurement-to-serving path.
//! * [`presets`] — ready-made machine configurations used by the experiments.
//!
//! The simulator is *not* a cycle-accurate model; it is calibrated so that the
//! qualitative phenomena the paper's methodology relies on are present:
//! efficiency saturating with problem size, piecewise-polynomial behaviour
//! with kinks at cache-capacity boundaries, flag-dependent performance,
//! in-cache vs out-of-cache gaps, ~4–8 % measurement noise with outliers,
//! slow first invocations, and implementation- and architecture-dependent
//! rankings of the blocked algorithm variants.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

mod blasprofile;
mod chaos;
mod config;
mod cpu;
mod executor;
mod native;

pub mod cost;
pub mod presets;

pub use blasprofile::{BlasProfile, RoutineParams};
pub use chaos::{ChaosConfig, ChaosExecutor, FaultCounts};
pub use config::{Locality, MachineConfig, Measurement};
pub use cpu::{CacheLevel, CpuSpec};
pub use executor::{derive_stream_seed, ExecError, Executor, SimExecutor};
pub use native::NativeExecutor;
