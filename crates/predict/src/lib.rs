//! # dla-predict
//!
//! Prediction, ranking and block-size optimisation (paper Section IV).
//!
//! The pipeline is exactly the paper's: an algorithm's execution is described
//! by its **trace** — the sequence of BLAS/unblocked-kernel calls it performs
//! (produced by `dla-algos` without executing anything).  The [`Predictor`]
//! looks up the performance model of every call in a
//! [`ModelRepository`](dla_model::ModelRepository), evaluates it, and
//! accumulates the per-call estimates into a whole-algorithm prediction with
//! full statistical information (min / mean / median / max / standard
//! deviation).  Predictions are then used to
//!
//! * [`rank`](ranking::rank_traces_by_efficiency) equivalent algorithmic
//!   variants,
//! * [`optimize the block size`](blocksize::optimize_block_size_trinv), and
//! * validate against "measurements" (simulated executions) with ranking
//!   agreement metrics such as Kendall's τ.
//!
//! The [`workloads`] module wires the two workloads of the paper (triangular
//! inversion and the triangular Sylvester equation) to the Predictor, and
//! [`modelset`] builds the standard model repository those workloads need.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

//! For concurrent serving, [`ModelService`] publishes each repository
//! generation as one atomically hot-swappable [`Published`] handle, answers
//! every query straight from the compiled engine, and hands out
//! snapshot-owning [`Predictor`]s to any number of threads.
//!
//! All evaluators run on the compiled evaluation engine
//! ([`dla_model::CompiledRepository`]): repositories are compiled once (at
//! predictor construction or, for the service, at swap/merge time) into
//! indexed, fused, zero-allocation models, and rankings / block-size sweeps
//! go through the batched [`TraceEvaluator::predict_traces`] entry point.

pub mod blocksize;
pub mod fleet;
pub mod health;
pub mod modelset;
pub mod predictor;
pub mod ranking;
pub mod service;
pub mod workloads;

pub use fleet::{
    Admission, BreakerConfig, BreakerState, ChaosShard, CircuitBreaker, FleetBuilder, FleetConfig,
    FleetError, FleetHealth, FleetQuery, FleetResponse, FleetService, LastGoodSnapshot, Priority,
    Served, ServiceClient, ShardBudget, ShardCall, ShardClient, ShardError, ShardHealth,
    ShardReply, ShedReason,
};
pub use health::ServiceHealth;
pub use predictor::{EfficiencyPrediction, Predictor, TraceEvaluator, TracePrediction};
pub use service::{ModelService, Published};
