//! # dla-model
//!
//! Statistical performance models for BLAS/LAPACK building blocks (paper
//! Section III-B).
//!
//! A model represents the performance of one routine, for a fixed
//! implementation, machine, thread count and memory-locality scenario, as a
//! function of the routine's arguments.  Internally:
//!
//! * only a subset of the arguments are model parameters: the **flags** and
//!   the **integer sizes** (scalars, data pointers and leading dimensions are
//!   dropped for the reasons discussed in the paper);
//! * each combination of flag values gets its own **submodel**
//!   ([`PiecewiseModel`]) over the integer parameter space — with the
//!   exception of the `diag` flag, whose influence is minor and which is
//!   therefore folded into a single submodel;
//! * a submodel is a **piecewise, vector-valued, multivariate polynomial**:
//!   the integer parameter space is covered by axis-aligned [`Region`]s, each
//!   carrying one low-order [`Polynomial`] per statistical quantity
//!   (min / mean / median / max / standard deviation);
//! * evaluating a model at a routine call extracts the parameters, selects the
//!   submodel for the flag combination, finds the most accurate region
//!   containing the integer point and evaluates its polynomials, yielding a
//!   [`Summary`](dla_mat::stats::Summary) estimate.
//!
//! Models are stored in a [`ModelRepository`], which persists to a plain-text,
//! versioned format (or to the [`binfmt`] binary format, which stores the
//! same models) so that a model built once can be reused by later runs —
//! the paper's "repository of models".  Concurrent serving and hot swaps
//! live one layer up, in `dla-predict`'s `ModelService`.
//!
//! Evaluation has two implementations: the allocating *reference* path on the
//! model types themselves ([`PiecewiseModel::eval`],
//! [`RoutineModel::estimate`]), and the **compiled evaluation engine**
//! ([`CompiledRepository`]) which the serving layers use — repositories are
//! compiled once (at build or hot-swap time) into indexed, fused,
//! zero-allocation evaluators that answer the same queries several times
//! faster.  The reference path is kept as the equivalence baseline for tests.
//!
//! Fitting mirrors that split: the reference fit lives on the model types
//! ([`VectorPolynomial::fit`], [`RegionModel::fit`]), and the **compiled fit
//! engine** ([`FitWorkspace`]) — cached monomial plans, one QR factorisation
//! shared by all five quantity solves, recycled buffers — is what the
//! Modeler's construction loop drives.  The two are equivalence-tested
//! against each other in `crates/core/tests/fit_equivalence.rs`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod binfmt;
mod eval;
mod fit;
mod piecewise;
mod poly;
mod region;
mod repo;
mod routine_model;
pub mod sync;
mod telemetry;
mod validate;

pub use eval::{
    CompiledPiecewise, CompiledRepository, CompiledRoutineModel, RoutineTable, MAX_DIM,
};
pub use fit::FitWorkspace;
pub use piecewise::{error_order, PiecewiseModel, RegionModel, VectorPolynomial};
pub use poly::{monomial_exponents, Polynomial};
pub use region::Region;
pub use repo::{ModelKey, ModelRepository, RepositoryFormat};
pub use routine_model::{decode_call, submodel_key, FlagKey, RoutineModel};
pub use telemetry::{HotRegion, RefinementReport};
pub use validate::RepositoryValidator;

/// Errors raised while building, evaluating or (de)serialising models.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Not enough samples to fit the requested polynomial.
    NotEnoughSamples {
        /// Samples available.
        have: usize,
        /// Samples required.
        need: usize,
    },
    /// The requested point lies outside the model's parameter space.
    OutOfDomain(String),
    /// The requested submodel (flag combination) does not exist.
    MissingSubmodel(String),
    /// Least-squares fitting failed.
    Fit(String),
    /// A repository file could not be parsed.
    Parse(String),
    /// A repository could not be serialised (e.g. a machine id the text
    /// format cannot represent).
    Serialize(String),
    /// An I/O error occurred while reading or writing the repository.
    Io(String),
    /// A repository failed pre-publication validation (see
    /// [`RepositoryValidator`]) and must not be served.
    Validation(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NotEnoughSamples { have, need } => {
                write!(f, "not enough samples: have {have}, need {need}")
            }
            ModelError::OutOfDomain(d) => write!(f, "point outside model domain: {d}"),
            ModelError::MissingSubmodel(d) => write!(f, "missing submodel: {d}"),
            ModelError::Fit(d) => write!(f, "fit failed: {d}"),
            ModelError::Parse(d) => write!(f, "parse error: {d}"),
            ModelError::Serialize(d) => write!(f, "serialisation error: {d}"),
            ModelError::Io(d) => write!(f, "i/o error: {d}"),
            ModelError::Validation(d) => write!(f, "validation failed: {d}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Result alias for model operations.
pub type Result<T> = std::result::Result<T, ModelError>;
