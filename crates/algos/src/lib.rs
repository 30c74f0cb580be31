//! # dla-algos
//!
//! The blocked dense-linear-algebra workloads whose variants the paper ranks:
//!
//! * [`trinv`] — inversion of a lower-triangular matrix (`L <- L^-1`), the
//!   paper's motivating example, with the four blocked algorithmic variants of
//!   Section IV-A built on `dtrmm`, `dtrsm`, `dgemm` and an unblocked
//!   triangular inversion.
//! * [`sylv`] — the triangular Sylvester equation `L X + X U = C` of
//!   Section IV-B, with a systematically parameterised family of sixteen
//!   blocked variants (its module documentation describes how the family
//!   maps onto the CL1CK-generated variants of the paper).
//!
//! Each algorithm is written once against a small *context* trait
//! ([`trinv::TrinvCtx`], [`sylv::SylvCtx`]) and instantiated twice:
//!
//! * a **compute context** executes the updates on real matrices using the
//!   pure-Rust kernels of `dla-blas` (used by the correctness tests and the
//!   native executor), and
//! * a **trace context** records the sequence of routine calls without
//!   touching any data (used by the Predictor, exactly like the paper's
//!   "list of subroutine invocations").

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod sylv;
pub mod trinv;

pub use sylv::{sylv_compute, sylv_trace, SylvVariant};
pub use trinv::{trinv_compute, trinv_trace, TrinvVariant};
