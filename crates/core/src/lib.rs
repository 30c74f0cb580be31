//! # dla-core
//!
//! Facade crate for the `dlaperf` stack — the Rust reproduction of
//! *Performance Modeling for Dense Linear Algebra* (Peise & Bientinesi,
//! SC 2012).
//!
//! The crate re-exports the individual layers under short module names and
//! provides [`Pipeline`], a high-level API that wires them together:
//!
//! ```
//! use dla_core::{Pipeline, Workload};
//! use dla_core::machine::presets::harpertown_openblas;
//!
//! // Build performance models for the triangular-inversion workload on the
//! // simulated Harpertown machine (a small, fast configuration for doc tests).
//! let mut pipeline = Pipeline::new(harpertown_openblas())
//!     .with_model_config(dla_core::predict::modelset::ModelSetConfig::quick(256));
//! pipeline.build_models(&[Workload::Trinv]);
//!
//! // Rank the four algorithmic variants for n = 224, block size 32.
//! let ranking = pipeline.rank_trinv(224, 32).unwrap();
//! assert_eq!(ranking.len(), 4);
//! assert!(ranking[0].1.median >= ranking[3].1.median);
//! ```
//!
//! Layer overview:
//!
//! * [`mat`] — matrices, views, least squares, statistics.
//! * [`blas`] — pure-Rust BLAS kernels and routine-call descriptors.
//! * [`machine`] — the simulated machine (CPU, caches, implementation
//!   profiles, cost model, executors).
//! * [`sampler`] — the Sampler.
//! * [`model`] — piecewise polynomial models and the model repository.
//! * [`modeler`] — Model Expansion, Adaptive Refinement, the Modeler.
//! * [`algos`] — the trinv and sylv blocked algorithm variants.
//! * [`predict`] — the Predictor, ranking, block-size optimisation, and the
//!   thread-safe [`ModelService`] serving layer.
//!
//! Model construction fans out across worker threads (configure via
//! [`predict::modelset::ModelSetConfig::workers`]; any worker count produces
//! a byte-identical repository), and the built models are served through a
//! [`ModelService`] that supports concurrent queries and atomic hot-swap of a
//! rebuilt repository.  Evaluation runs on the compiled engine
//! ([`CompiledRepository`]): repositories are compiled once per build/swap
//! into indexed, fused, zero-allocation evaluators, with the naive model
//! evaluators retained as the equivalence-tested reference.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub use dla_algos as algos;
pub use dla_blas as blas;
pub use dla_machine as machine;
pub use dla_mat as mat;
pub use dla_model as model;
pub use dla_modeler as modeler;
pub use dla_predict as predict;
pub use dla_sampler as sampler;

mod pipeline;

pub use pipeline::Pipeline;

// The most commonly used types, re-exported at the crate root.
pub use dla_algos::{SylvVariant, TrinvVariant};
pub use dla_blas::{Call, Routine};
pub use dla_machine::{Locality, MachineConfig};
pub use dla_model::{CompiledRepository, ModelRepository, RefinementReport};
pub use dla_modeler::{OnlineRefiner, OnlineRefinerConfig, RefineOutcome, Strategy};
pub use dla_predict::modelset::Workload;
pub use dla_predict::{EfficiencyPrediction, ModelService, Predictor};
