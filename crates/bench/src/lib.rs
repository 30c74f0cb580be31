//! # dla-bench
//!
//! The benchmark and figure-regeneration harness.
//!
//! Every figure of the paper has a corresponding binary (`fig_i1`, `fig_ii1`,
//! ..., `fig_iv5`) that regenerates the figure's data series on the simulated
//! machine and prints them as plain-text tables; `EXPERIMENTS.md` records the
//! paper-vs-measured comparison for each of them.  The bench targets in
//! `benches/` time what perfbench does not: the kernels, the reference
//! paths the compiled engines replaced, the modeling strategies, the
//! degraded fleet rungs and multi-threaded serving.  They run on the
//! [`harness`] module, which writes one `BENCH_<target>.json` per target.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod figures;
pub mod harness;
pub mod support;
