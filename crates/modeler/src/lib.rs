//! # dla-modeler
//!
//! The **Modeler** (paper Section III-C): a tool that automatically generates
//! piecewise-polynomial performance models by driving the Sampler.
//!
//! Two model-generation strategies are implemented, exactly mirroring the
//! paper:
//!
//! * [`ExpansionConfig`] — **Model Expansion**: start from a small region in a
//!   corner of the integer parameter space, expand it dimension by dimension
//!   while the polynomial's relative fit error stays below the bound, then
//!   seed new adjacent regions until the whole space is covered.  Options: the
//!   error bound ε, the expansion direction (towards or away from the origin)
//!   and the initial region size.
//! * [`RefinementConfig`] — **Adaptive Refinement**: start from one coarse
//!   region spanning the whole space and recursively split regions whose fit
//!   error exceeds ε, until the error bound is met or the minimum region size
//!   is reached.  Options: the error bound ε and the minimum region size.
//!
//! The [`Modeler`] orchestrates a strategy over a routine: it groups template
//! calls by flag combination, builds one piecewise submodel per combination,
//! fixes all leading dimensions to a large constant (2500, as in the paper)
//! and records how many distinct sample points were spent.
//!
//! Construction runs through the compiled fit engine: the Modeler owns one
//! [`dla_model::FitWorkspace`] that persists across every region, submodel
//! and routine it builds (`build_with` on either strategy), and the
//! [`SampleOracle`] caches measurements under fixed-size, allocation-free
//! point keys.  Both strategies fit each region through the oracle's one
//! grid-fit step; the [`online`] refiner rebuilds regions through the same
//! Adaptive Refinement loop as the offline build, with only the oracle's
//! measurement differing.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

mod expansion;
mod modeler;
pub mod online;
mod oracle;
mod refinement;

pub use expansion::{Direction, ExpansionConfig};
pub use modeler::{Modeler, ModelingReport, Strategy};
pub use online::{OnlineRefiner, OnlineRefinerConfig, QuarantinedCell, RefineOutcome};
pub use oracle::{Measure, SampleCache, SampleOracle};
pub use refinement::RefinementConfig;
