//! # dla-blas
//!
//! A from-scratch, pure-Rust subset of BLAS (and two unblocked LAPACK-style
//! kernels) sufficient to run and model the dense linear algebra workloads of
//! *Performance Modeling for Dense Linear Algebra* (Peise & Bientinesi,
//! SC 2012):
//!
//! * Level-3: [`dgemm`], [`dtrsm`], [`dtrmm`], [`dsyrk`] with the full BLAS
//!   flag semantics (`side`, `uplo`, `trans`, `diag`).
//! * Level-2: [`dtrsv`] and [`dtrmv`], on which `dtrsm` and `dtrmm` are
//!   built.
//! * Unblocked kernels: [`dtrtri_unb`] (triangular inversion) and
//!   [`dsylv_unb`] (triangular Sylvester solve), the recursion bottoms of the
//!   blocked algorithm variants in `dla-algos`.
//! * [`Call`] — the routine-call descriptor (routine, flags, sizes, scalars
//!   and leading dimensions) that the Sampler measures, the Modeler models and
//!   the Predictor evaluates.  This is the exact analogue of the paper's
//!   argument tuples such as `(dtrsm, R, L, N, U, 512, 128, 0.37, A, 256, B, 512)`.
//! * [`flops`] — operation-count formulas per routine, used to convert ticks
//!   into the paper's `efficiency` metric.
//!
//! The kernels are reference-quality: correct for every flag combination and
//! cache-blocked where it matters (`dgemm`), but they do not attempt
//! hand-tuned micro-kernels.  The performance *modeling* experiments run on
//! the simulated machine of `dla-machine`; the real kernels exist so that the
//! algorithms can be verified numerically and so that a `NativeExecutor` can
//! measure genuine wall-clock behaviour.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]
// Triangular kernels index several operands by one loop variable over partial
// ranges; the BLAS-style indexed form is clearer than iterator chains here.
#![allow(clippy::needless_range_loop)]

mod call;
mod flags;
mod gemm;
mod level2;
mod syrk;
mod trmm;
mod trsm;
mod unblocked;

pub mod execute;
pub mod flops;
pub mod inplace;

pub use call::{Call, Routine};
pub use flags::{Diag, Side, Trans, Uplo};
pub use gemm::dgemm;
pub use level2::{dtrmv, dtrsv};
pub use syrk::dsyrk;
pub use trmm::dtrmm;
pub use trsm::dtrsm;
pub use unblocked::{dsylv_unb, dtrtri_unb};
