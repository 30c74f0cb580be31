//! Trace prediction: evaluating and accumulating per-call model estimates.
//!
//! A trace is predicted as the paper does it (Section IV): evaluate the
//! model of every call and accumulate the estimates.  Minima, means,
//! medians and maxima add in call order; the variances add too, and the
//! trace's standard deviation is their square root, taken once.  Blocked
//! algorithms issue the same calls again and again, so the batched path
//! behind [`TraceEvaluator::predict_traces`] runs in three passes: it
//! interns every call of a batch by one exact integer key (routine number,
//! submodel flag bits and raw sizes), evaluates each distinct shape once
//! from its first call, and accumulates each trace in call order from those
//! answers.  The results are bit-identical to the pointwise walk of
//! [`TraceEvaluator::predict_trace`].

use std::sync::Arc;

use dla_blas::flops::is_empty_call;
use dla_blas::{Call, Routine};
use dla_machine::{Locality, MachineConfig};
use dla_mat::stats::Summary;
use dla_model::{
    decode_call, CompiledRepository, CompiledRoutineModel, FlagKey, ModelError, ModelRepository,
    Result, RoutineTable,
};

/// The predicted execution time of a whole trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TracePrediction {
    /// Accumulated tick statistics: the per-call minima, means, medians and
    /// maxima summed in call order, and the square root of the summed
    /// variances, taken once per trace.
    pub ticks: Summary,
    /// Total floating-point operations of the trace.
    pub flops: f64,
    /// Calls predicted (non-degenerate calls).  The batched path evaluates
    /// a repeated call once but counts every repeat here.
    pub predicted_calls: usize,
    /// Number of degenerate calls (a zero dimension) skipped at zero cost.
    pub skipped_calls: usize,
}

/// A prediction converted to the paper's `efficiency` metric.
///
/// Note the inversion: the *maximum* efficiency corresponds to the *minimum*
/// predicted ticks and vice versa.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyPrediction {
    /// Efficiency computed from the median predicted ticks.
    pub median: f64,
    /// Efficiency computed from the mean predicted ticks.
    pub mean: f64,
    /// Lower bound: efficiency at the maximum predicted ticks.
    pub min: f64,
    /// Upper bound: efficiency at the minimum predicted ticks.
    pub max: f64,
}

/// Anything that can predict the performance of a call trace: the plain
/// [`Predictor`] (model evaluation over one repository snapshot) or the
/// hot-swappable [`ModelService`](crate::ModelService) serving layer.
///
/// Workload-level prediction helpers ([`predict_trinv`],
/// [`optimize_block_size_trinv`], ...) are generic over this trait, so the
/// same code path serves both one-shot scripts and concurrent serving.
///
/// [`predict_trinv`]: crate::workloads::predict_trinv
/// [`optimize_block_size_trinv`]: crate::blocksize::optimize_block_size_trinv
pub trait TraceEvaluator {
    /// The machine configuration predictions refer to.
    fn machine(&self) -> &MachineConfig;

    /// Predicts the performance of a single call.
    fn predict_call(&self, call: &Call) -> Result<Summary>;

    /// Predicts the performance of a whole trace by accumulating the per-call
    /// estimates (paper Section IV: "these estimates are then accumulated");
    /// degenerate calls (a zero dimension) are skipped at zero cost.
    fn predict_trace(&self, trace: &[Call]) -> Result<TracePrediction> {
        let mut sum = TraceSum::default();
        for call in trace {
            if is_empty_call(call) {
                sum.prediction.skipped_calls += 1;
            } else {
                sum.add(&self.predict_call(call)?, call.flops());
            }
        }
        Ok(sum.finish())
    }

    /// Predicts a batch of traces — the bulk entry point used by rankings
    /// and block-size sweeps, which evaluate many related traces at once.
    fn predict_traces(&self, traces: &[&[Call]]) -> Result<Vec<TracePrediction>> {
        traces.iter().map(|t| self.predict_trace(t)).collect()
    }

    /// Predicts the efficiency of a trace for an operation whose useful flop
    /// count is `useful_flops`.
    fn predict_efficiency(
        &self,
        trace: &[Call],
        useful_flops: f64,
    ) -> Result<EfficiencyPrediction> {
        let prediction = self.predict_trace(trace)?;
        Ok(efficiency_from_ticks(
            self.machine(),
            useful_flops,
            &prediction.ticks,
        ))
    }
}

/// A trace's running sum, shared by the pointwise and the batched walk so
/// that both give the same bits: the prediction's `std_dev` stays zero
/// until [`finish`](TraceSum::finish) takes the root of `variance`.
#[derive(Default)]
struct TraceSum {
    prediction: TracePrediction,
    variance: f64,
}

impl TraceSum {
    /// Adds one predicted call: its estimate's minimum, mean, median, max,
    /// count and variance, and its flop count.
    fn add(&mut self, estimate: &Summary, flops: f64) {
        let sum = &mut self.prediction;
        sum.ticks.min += estimate.min;
        sum.ticks.mean += estimate.mean;
        sum.ticks.median += estimate.median;
        sum.ticks.max += estimate.max;
        sum.ticks.count += estimate.count;
        sum.flops += flops;
        sum.predicted_calls += 1;
        self.variance += estimate.std_dev * estimate.std_dev;
    }

    /// The trace's prediction, with the one square root of its variance.
    fn finish(mut self) -> TracePrediction {
        self.prediction.ticks.std_dev = self.variance.sqrt();
        self.prediction
    }
}

/// The error returned when a repository holds no model for a routine on a
/// machine/locality combination.
fn missing_model_error(routine: Routine, machine_id: &str, locality: Locality) -> ModelError {
    ModelError::MissingSubmodel(format!(
        "no model for {routine} on {machine_id} ({locality})"
    ))
}

/// Evaluates stored models to predict whole-algorithm performance.
///
/// Evaluation runs on the compiled engine
/// ([`CompiledRepository`]): the repository is
/// compiled once at predictor construction (or inherited, already compiled,
/// from a [`ModelService`](crate::ModelService) snapshot), and the
/// machine/locality combination is pre-resolved into a routing table, so the
/// per-call path performs no allocation and no hashing.
///
/// A predictor owns its compiled snapshot, so it can be cloned and moved
/// freely across threads and outlives the repository it was built from.
#[derive(Clone)]
pub struct Predictor {
    compiled: Arc<CompiledRepository>,
    table: RoutineTable,
    machine: MachineConfig,
    locality: Locality,
}

impl Predictor {
    /// Creates a predictor that reads models for `machine` under `locality`,
    /// compiling a copy of the repository for fast evaluation.
    pub fn new(repository: &ModelRepository, machine: MachineConfig, locality: Locality) -> Self {
        Predictor::from_compiled(Arc::new(repository.compiled()), machine, locality)
    }

    /// Creates a predictor over a shared repository snapshot, compiling it
    /// without copying the source.
    pub fn shared(
        repository: Arc<ModelRepository>,
        machine: MachineConfig,
        locality: Locality,
    ) -> Predictor {
        let compiled = Arc::new(CompiledRepository::compile_arc(repository));
        Predictor::from_compiled(compiled, machine, locality)
    }

    /// Creates a predictor over an already-compiled repository (no
    /// recompilation; this is how [`ModelService`](crate::ModelService)
    /// hands out snapshot predictors).
    pub fn from_compiled(
        compiled: Arc<CompiledRepository>,
        machine: MachineConfig,
        locality: Locality,
    ) -> Predictor {
        let table = compiled.resolve(&machine.id(), locality);
        Predictor {
            compiled,
            table,
            machine,
            locality,
        }
    }

    /// The repository being evaluated.
    pub fn repository(&self) -> &ModelRepository {
        self.compiled.source().as_ref()
    }

    /// The compiled form the predictor evaluates.
    pub fn compiled(&self) -> &Arc<CompiledRepository> {
        &self.compiled
    }

    /// The machine configuration predictions refer to.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The memory-locality scenario of the models being used.
    pub fn locality(&self) -> Locality {
        self.locality
    }

    /// Predicts the performance of a single call (compiled, allocation-free
    /// fast path: routing-table lookup, fixed-size submodel key, indexed
    /// region location, fused polynomial evaluation).
    pub fn predict_call(&self, call: &Call) -> Result<Summary> {
        self.model(call.routine())?.estimate(call)
    }

    /// [`predict_call`](Predictor::predict_call), additionally reporting the
    /// cell id of the region that answered (see
    /// [`CompiledRepository::cells`]) — the hook behind the service's
    /// per-region telemetry.
    pub(crate) fn predict_call_traced(&self, call: &Call) -> Result<(Summary, u32)> {
        self.model(call.routine())?.estimate_traced(call)
    }

    /// The compiled model serving `routine`, through the routing table.
    fn model(&self, routine: Routine) -> Result<&CompiledRoutineModel> {
        self.table
            .slot(routine)
            .and_then(|slot| self.compiled.model_at(slot))
            .ok_or_else(|| missing_model_error(routine, &self.machine.id(), self.locality))
    }

    /// Predicts the performance of a whole trace (see
    /// [`TraceEvaluator::predict_trace`]).
    pub fn predict_trace(&self, trace: &[Call]) -> Result<TracePrediction> {
        TraceEvaluator::predict_trace(self, trace)
    }

    /// Predicts a batch of traces (see [`TraceEvaluator::predict_traces`]).
    pub fn predict_traces(&self, traces: &[&[Call]]) -> Result<Vec<TracePrediction>> {
        TraceEvaluator::predict_traces(self, traces)
    }

    /// The batched trace path, shared by [`Predictor`] and
    /// [`ModelService`](crate::ModelService): predicts each distinct call
    /// shape of the batch once and accumulates every trace in call order.
    ///
    /// It runs in three passes over the batch:
    ///
    /// 1. **Intern.**  Every call is decoded once, by [`decode_call`], into
    ///    one exact `u128` key: the three raw sizes in 32-bit lanes, the
    ///    submodel key's flag bits and the routine number.  A degenerate
    ///    call (a zero size) gets the `DEGENERATE` id; any other call the id
    ///    of its shape, which the per-batch [`ShapeTable`] finds with one
    ///    multiplicative hash and integer compares.  A call with a size past
    ///    its lane gets an id of its own.
    /// 2. **Evaluate.**  The distinct shapes are evaluated back to back, in
    ///    first-occurrence order, each from its first call, through
    ///    [`predict_call_traced`](Predictor::predict_call_traced).
    ///    First-occurrence order is batch order, so the first failing shape
    ///    is the first failing call, and the batch returns the error the
    ///    pointwise walk would.
    /// 3. **Accumulate.**  Each trace sums its calls' answers in call order
    ///    and takes one square root of its summed variances.
    ///
    /// The results are bit-identical to
    /// [`TraceEvaluator::predict_trace`] over each trace.
    ///
    /// When `answered` is given and the whole batch succeeds, it is called
    /// once per evaluated shape with the cell id of the region that answered
    /// and the number of predicted calls of that shape: the counts a
    /// call-by-call walk over
    /// [`predict_call_traced`](Predictor::predict_call_traced) would see.
    ///
    /// # Panics
    ///
    /// If the batch holds `u32::MAX` calls or more (shape ids are `u32`).
    pub(crate) fn predict_traces_batched(
        &self,
        traces: &[&[Call]],
        answered: Option<&mut dyn FnMut(u32, u64)>,
    ) -> Result<Vec<TracePrediction>> {
        let calls = traces.iter().map(|trace| trace.len()).sum();
        assert!(
            calls < DEGENERATE as usize,
            "a batch of {calls} calls overflows its u32 shape ids"
        );

        // Pass 1: intern.
        let mut table = ShapeTable::for_calls(calls);
        let mut ids: Vec<u32> = Vec::with_capacity(calls);
        // lint: hot-path begin
        for call in traces.iter().flat_map(|trace| trace.iter()) {
            let (routine, flags, sizes, len) = decode_call(call);
            // Sizes past `len` are zero: only the first `len` count.
            let [s0, s1, s2] = sizes;
            let id = if s0 == 0 || (s1 == 0 && len > 1) || (s2 == 0 && len > 2) {
                DEGENERATE
            } else {
                table.intern(shape_key(routine, flags, sizes), call)
            };
            ids.push(id);
        }
        // lint: hot-path end

        // Pass 2: evaluate each distinct shape once, in batch order.
        let mut answers = Vec::with_capacity(table.shapes.len());
        for &(_, call) in &table.shapes {
            let (summary, cell) = self.predict_call_traced(call)?;
            answers.push(Answer {
                summary,
                flops: call.flops(),
                cell,
                uses: 0,
            });
        }

        // Pass 3: accumulate every trace in call order.
        let mut out = Vec::with_capacity(traces.len());
        let mut rest = ids.as_slice();
        for trace in traces {
            let (trace_ids, tail) = rest.split_at(trace.len());
            rest = tail;
            let mut sum = TraceSum::default();
            // lint: hot-path begin
            for &id in trace_ids {
                // `DEGENERATE` is past every answer.
                match answers.get_mut(id as usize) {
                    Some(answer) => {
                        answer.uses += 1;
                        sum.add(&answer.summary, answer.flops);
                    }
                    None => sum.prediction.skipped_calls += 1,
                }
            }
            // lint: hot-path end
            out.push(sum.finish());
        }
        if let Some(answered) = answered {
            for answer in &answers {
                answered(answer.cell, answer.uses);
            }
        }
        Ok(out)
    }

    /// Predicts the efficiency of a trace for an operation whose useful flop
    /// count is `useful_flops`.
    pub fn predict_efficiency(
        &self,
        trace: &[Call],
        useful_flops: f64,
    ) -> Result<EfficiencyPrediction> {
        TraceEvaluator::predict_efficiency(self, trace, useful_flops)
    }
}

/// A call's shape as one exact integer: the three raw sizes in 32-bit lanes
/// from bit 0 up, then the submodel key's flag bits above the routine
/// number (below 8) in the top lane.  A routine fixes its key's flag count
/// and [`decode_call`] gives every flag as 0 or 1, so distinct shapes get
/// distinct keys; calls that differ only in scalars, leading dimensions or
/// `diag` share one.  `None` if a size does not fit its lane.
fn shape_key(routine: Routine, flags: FlagKey, sizes: [usize; Call::MAX_SIZES]) -> Option<u128> {
    let bits = flags.flags().fold(0, |bits, flag| bits << 1 | flag);
    let head = (bits << 3 | routine.index()) as u128;
    sizes.iter().rev().try_fold(head, |key, &size| {
        Some(key << 32 | u128::from(u32::try_from(size).ok()?))
    })
}

/// The shape id of a degenerate call, which no shape has.
const DEGENERATE: u32 = u32::MAX;

/// One shape's answer in a batch.
struct Answer {
    summary: Summary,
    flops: f64,
    /// The cell id of the region that answered.
    cell: u32,
    /// Predicted calls of the batch that this answer stands for.
    uses: u64,
}

/// Most slots a batch's shape table holds.  The table remembers at most half
/// as many shapes; past them, each call of a shape the table does not hold
/// gets an id of its own and is evaluated once.  The bound also caps what a
/// batch of shapes crafted to collide can cost: probes stay within one
/// 64 KiB table.
const MAX_SLOTS: usize = 1 << 14;

/// A batch's distinct shapes by id, each with its key and first call, and
/// an open-addressed index over them (linear probing, load at most one
/// half) whose slots hold one plus a remembered shape's id, or 0 when free.
struct ShapeTable<'a> {
    shapes: Vec<(u128, &'a Call)>,
    slots: Vec<u32>,
    /// `128 - log2(slots.len())`: a key's hash's top bits pick its first slot.
    shift: u32,
}

impl<'a> ShapeTable<'a> {
    /// A table sized for a batch of `calls` calls: twice the call count,
    /// rounded up to a power of two, within 16..=[`MAX_SLOTS`].
    fn for_calls(calls: usize) -> ShapeTable<'a> {
        let len = (2 * calls.min(MAX_SLOTS / 2)).next_power_of_two().max(16);
        ShapeTable {
            shapes: Vec::new(),
            slots: vec![0; len],
            shift: 128 - len.trailing_zeros(),
        }
    }

    /// The id of `call`'s shape, keyed `key`.  A key the table holds keeps
    /// its id; any other makes `call` the first call of a new shape, which
    /// the table remembers while it holds fewer shapes than half its slots.
    /// A call without a key gets an id of its own.
    fn intern(&mut self, key: Option<u128>, call: &'a Call) -> u32 {
        // Below `DEGENERATE`: the batch holds fewer calls.
        let id = self.shapes.len() as u32;
        if let Some(key) = key {
            // One multiply spreads the key; its top bits are the best mixed.
            const MIX: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835;
            let mask = self.slots.len() - 1;
            let mut slot = (key.wrapping_mul(MIX) >> self.shift) as usize;
            while let Some(&held) = self.slots.get(slot).filter(|&&held| held != 0) {
                if self.shapes.get(held as usize - 1).map(|&(k, _)| k) == Some(key) {
                    return held - 1;
                }
                slot = (slot + 1) & mask;
            }
            if (id as usize) < self.slots.len() / 2 {
                if let Some(free) = self.slots.get_mut(slot) {
                    *free = id + 1;
                }
            }
        }
        self.shapes.push((key.unwrap_or_default(), call));
        id
    }
}

impl TraceEvaluator for Predictor {
    fn machine(&self) -> &MachineConfig {
        Predictor::machine(self)
    }

    fn predict_call(&self, call: &Call) -> Result<Summary> {
        Predictor::predict_call(self, call)
    }

    fn predict_traces(&self, traces: &[&[Call]]) -> Result<Vec<TracePrediction>> {
        self.predict_traces_batched(traces, None)
    }
}

/// Converts a tick summary into an efficiency prediction.
pub fn efficiency_from_ticks(
    machine: &MachineConfig,
    useful_flops: f64,
    ticks: &Summary,
) -> EfficiencyPrediction {
    EfficiencyPrediction {
        median: machine.efficiency(useful_flops, ticks.median),
        mean: machine.efficiency(useful_flops, ticks.mean),
        min: machine.efficiency(useful_flops, ticks.max),
        max: machine.efficiency(useful_flops, ticks.min),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_blas::{Diag, Side, Trans, Uplo};
    use dla_machine::presets::harpertown_openblas;
    use dla_machine::SimExecutor;
    use dla_model::Region;
    use dla_modeler::{Modeler, RefinementConfig, Strategy};

    fn small_repo() -> (ModelRepository, MachineConfig) {
        small_repo_measured_by(SimExecutor::noiseless(harpertown_openblas()), 1)
    }

    /// trsm and trmm models on harpertown, fitted to `executor`'s samples,
    /// `repetitions` per point.
    fn small_repo_measured_by(
        executor: SimExecutor,
        repetitions: usize,
    ) -> (ModelRepository, MachineConfig) {
        let machine = harpertown_openblas();
        let mut modeler = Modeler::new(
            executor,
            Locality::InCache,
            repetitions,
            Strategy::Refinement(RefinementConfig {
                error_bound: 0.15,
                min_region_size: 128,
                grid_per_dim: 3,
                degree: 2,
            }),
        );
        let mut repo = ModelRepository::new();
        modeler.populate_repository(
            &mut repo,
            &[
                (
                    vec![Call::trsm(
                        Side::Left,
                        Uplo::Lower,
                        Trans::NoTrans,
                        Diag::NonUnit,
                        8,
                        8,
                        1.0,
                    )],
                    Region::new(vec![8, 8], vec![512, 512]),
                ),
                (
                    vec![Call::trmm(
                        Side::Right,
                        Uplo::Lower,
                        Trans::NoTrans,
                        Diag::NonUnit,
                        8,
                        8,
                        1.0,
                    )],
                    Region::new(vec![8, 8], vec![512, 512]),
                ),
            ],
        );
        (repo, machine)
    }

    #[test]
    fn predict_single_call_matches_cost_model_within_model_error() {
        let (repo, machine) = small_repo();
        let predictor = Predictor::new(&repo, machine.clone(), Locality::InCache);
        let call = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            300,
            200,
            1.0,
        );
        let predicted = predictor.predict_call(&call).unwrap();
        let truth = dla_machine::cost::estimate_ticks(&machine, &call, Locality::InCache);
        let rel = (predicted.median - truth).abs() / truth;
        assert!(rel < 0.35, "relative error {rel}");
        assert_eq!(predictor.locality(), Locality::InCache);
    }

    #[test]
    fn predict_trace_accumulates() {
        // Repeated noisy samples, so that every estimate has a spread.
        let executor = SimExecutor::new(harpertown_openblas(), 7);
        let (repo, machine) = small_repo_measured_by(executor, 5);
        let predictor = Predictor::new(&repo, machine, Locality::InCache);
        let a = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            256,
            256,
            1.0,
        );
        let b = Call::trmm(
            Side::Right,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            256,
            256,
            1.0,
        );
        let single_a = predictor.predict_trace(std::slice::from_ref(&a)).unwrap();
        let single_b = predictor.predict_trace(std::slice::from_ref(&b)).unwrap();
        let (sd_a, sd_b) = (single_a.ticks.std_dev, single_b.ticks.std_dev);
        assert!(sd_a > 0.0 && sd_b > 0.0, "{sd_a} {sd_b}");
        let both = predictor.predict_trace(&[a.clone(), b.clone()]).unwrap();
        // Location quantities add in call order; the variances add and the
        // trace takes one square root.
        let median = single_a.ticks.median + single_b.ticks.median;
        assert_eq!(both.ticks.median.to_bits(), median.to_bits());
        let std_dev = (sd_a * sd_a + sd_b * sd_b).sqrt();
        assert_eq!(both.ticks.std_dev.to_bits(), std_dev.to_bits());
        assert_eq!(both.predicted_calls, 2);
        assert_eq!(both.flops, a.flops() + b.flops());
        // A longer trace, on which a square root per call rounds
        // differently: one root of the variances summed in call order.
        let trace = [a.clone(), b.clone(), a.clone(), a, b];
        let long = predictor.predict_trace(&trace).unwrap();
        let sds = [sd_a, sd_b, sd_a, sd_a, sd_b];
        let variance: f64 = sds.iter().map(|sd| sd * sd).sum();
        assert_eq!(long.ticks.std_dev.to_bits(), variance.sqrt().to_bits());
    }

    #[test]
    fn empty_calls_are_skipped() {
        let (repo, machine) = small_repo();
        let predictor = Predictor::new(&repo, machine, Locality::InCache);
        let empty = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            128,
            0,
            1.0,
        );
        let p = predictor.predict_trace(&[empty]).unwrap();
        assert_eq!(p.predicted_calls, 0);
        assert_eq!(p.skipped_calls, 1);
        assert_eq!(p.ticks.median, 0.0);
    }

    #[test]
    fn shapes_past_the_table_bound_are_still_answered() {
        let (repo, machine) = small_repo();
        let predictor = Predictor::new(&repo, machine, Locality::InCache);
        let trsm = |m: usize, n: usize| {
            Call::trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                m,
                n,
                1.0,
            )
        };
        // More distinct shapes than the table remembers, then repeats of
        // shapes from both sides of the bound.
        let first: Vec<Call> = (0..MAX_SLOTS / 2 + 500)
            .map(|i| trsm(8 + i % 128, 8 + i / 128))
            .collect();
        let again: Vec<Call> = first.iter().rev().step_by(7).cloned().collect();
        let traces: Vec<&[Call]> = vec![&first, &again];
        let pointwise: Vec<TracePrediction> = traces
            .iter()
            .map(|t| TraceEvaluator::predict_trace(&predictor, t).unwrap())
            .collect();
        let mut counted = std::collections::BTreeMap::new();
        let batched = predictor
            .predict_traces_batched(
                &traces,
                Some(&mut |cell, uses| {
                    *counted.entry(cell).or_insert(0) += uses;
                }),
            )
            .unwrap();
        assert_eq!(batched, pointwise);
        let mut walked = std::collections::BTreeMap::new();
        for call in traces.iter().flat_map(|t| t.iter()) {
            let (_, cell) = predictor.predict_call_traced(call).unwrap();
            *walked.entry(cell).or_insert(0) += 1;
        }
        assert_eq!(counted, walked);
    }

    #[test]
    fn missing_model_is_an_error() {
        let (repo, machine) = small_repo();
        let predictor = Predictor::new(&repo, machine, Locality::InCache);
        let gemm = Call::gemm(Trans::NoTrans, Trans::NoTrans, 64, 64, 64, 1.0, 1.0);
        assert!(predictor.predict_trace(&[gemm]).is_err());
        // Wrong locality also misses.
        let (repo, machine) = small_repo();
        let predictor = Predictor::new(&repo, machine, Locality::OutOfCache);
        let call = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            64,
            64,
            1.0,
        );
        assert!(predictor.predict_call(&call).is_err());
    }

    #[test]
    fn shared_predictor_matches_borrowed_and_moves_across_threads() {
        let (repo, machine) = small_repo();
        let call = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            300,
            200,
            1.0,
        );
        let borrowed = Predictor::new(&repo, machine.clone(), Locality::InCache);
        let expected = borrowed.predict_call(&call).unwrap();
        let shared = Predictor::shared(Arc::new(repo.clone()), machine, Locality::InCache);
        assert_eq!(shared.predict_call(&call).unwrap(), expected);
        assert_eq!(shared.repository().len(), repo.len());
        let from_thread = std::thread::spawn(move || shared.predict_call(&call).unwrap())
            .join()
            .unwrap();
        assert_eq!(from_thread, expected);
    }

    #[test]
    fn efficiency_prediction_inverts_ticks() {
        let machine = harpertown_openblas();
        let ticks = Summary {
            min: 100.0,
            mean: 210.0,
            median: 200.0,
            max: 400.0,
            std_dev: 10.0,
            count: 5,
        };
        let eff = efficiency_from_ticks(&machine, 800.0, &ticks);
        assert!(eff.max > eff.median && eff.median > eff.min);
        assert!((eff.max - machine.efficiency(800.0, 100.0)).abs() < 1e-12);
        assert!((eff.min - machine.efficiency(800.0, 400.0)).abs() < 1e-12);
        assert!(eff.mean < eff.median);
    }
}
