//! Trace prediction: evaluating and accumulating per-call model estimates.
//!
//! A trace is predicted as the paper does it (Section IV): evaluate the
//! model of every call and accumulate the estimates.  Blocked algorithms
//! issue the same calls again and again, so the batched path behind
//! [`TraceEvaluator::predict_traces`] runs in three passes: it interns
//! every call of a batch as a shape id (routine, submodel key, raw sizes,
//! decoded in one `match`), evaluates the distinct shapes back to back on
//! the compiled engine, and accumulates each trace in call order from those
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
#[derive(Debug, Clone, PartialEq)]
pub struct TracePrediction {
    /// Accumulated tick statistics (per-call estimates summed; standard
    /// deviations combined in quadrature).
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
        let mut ticks = Summary::zero();
        let mut flops = 0.0;
        let mut predicted = 0;
        let mut skipped = 0;
        for call in trace {
            if is_empty_call(call) {
                skipped += 1;
                continue;
            }
            let estimate = self.predict_call(call)?;
            ticks.accumulate(&estimate);
            flops += call.flops();
            predicted += 1;
        }
        Ok(TracePrediction {
            ticks,
            flops,
            predicted_calls: predicted,
            skipped_calls: skipped,
        })
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
    ///    its [`Shape`] (routine, submodel key, raw sizes).  A degenerate
    ///    call (a zero size) gets the `DEGENERATE` id; any other call the id
    ///    of its shape in the batch's list of distinct shapes, which the
    ///    per-batch [`ShapeTable`] finds.
    /// 2. **Evaluate.**  The distinct shapes are evaluated back to back, in
    ///    first-occurrence order, each from its first call, through
    ///    [`CompiledRoutineModel::estimate_parts`].  First-occurrence order
    ///    is batch order, so the first failing shape is the first failing
    ///    call, and the batch returns the error the pointwise walk would.
    /// 3. **Accumulate.**  Each trace sums its calls' answers in call order.
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

        // Pass 1: intern.  `shapes[i]` was first seen at `firsts[i]`.
        let mut table = ShapeTable::for_calls(calls);
        let mut shapes: Vec<Shape> = Vec::new();
        let mut firsts: Vec<&Call> = Vec::new();
        let mut ids: Vec<u32> = Vec::with_capacity(calls);
        for trace in traces {
            for call in *trace {
                let (routine, key, sizes, len) = decode_call(call);
                // Sizes past `len` are zero: only the first `len` count.
                let [s0, s1, s2] = sizes;
                if s0 == 0 || (s1 == 0 && len > 1) || (s2 == 0 && len > 2) {
                    ids.push(DEGENERATE);
                    continue;
                }
                let shape = Shape {
                    routine,
                    key,
                    sizes,
                };
                let id = match table.probe(&shape, &shapes) {
                    Ok(id) => id,
                    Err(slot) => {
                        table.remember(slot, shapes.len());
                        shapes.push(shape);
                        firsts.push(call);
                        shapes.len() - 1
                    }
                };
                // Below `DEGENERATE`: the batch holds fewer calls.
                ids.push(id as u32);
            }
        }

        // Pass 2: evaluate each distinct shape once, in batch order.
        let mut answers = Vec::with_capacity(shapes.len());
        for (shape, call) in shapes.iter().zip(&firsts) {
            let sizes = &shape.sizes[..shape.routine.size_count()];
            let (summary, cell) = self
                .model(shape.routine)?
                .estimate_parts(call, shape.key, sizes)?;
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
            let mut ticks = Summary::zero();
            let mut flops = 0.0;
            let mut predicted = 0;
            let mut skipped = 0;
            for &id in trace_ids {
                if id == DEGENERATE {
                    skipped += 1;
                    continue;
                }
                let answer = &mut answers[id as usize];
                answer.uses += 1;
                ticks.accumulate(&answer.summary);
                flops += answer.flops;
                predicted += 1;
            }
            out.push(TracePrediction {
                ticks,
                flops,
                predicted_calls: predicted,
                skipped_calls: skipped,
            });
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

/// A call's shape: everything its estimate and flop count depend on (the
/// routine, the submodel key with `diag` folded away, and the raw sizes).
/// Calls that differ only in scalars, leading dimensions or `diag` share a
/// shape.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Shape {
    routine: Routine,
    key: FlagKey,
    /// [`Call::sizes_fixed`]'s array: entries past the routine's size count
    /// are zero, so comparing whole arrays compares the sizes exactly.
    sizes: [usize; Call::MAX_SIZES],
}

impl Shape {
    /// A multiplicative mix of every field.  The table compares shapes
    /// exactly, so the hash only has to spread them; its top bits are the
    /// best mixed.
    fn hash(&self) -> u64 {
        const MIX: u64 = 0x9e37_79b9_7f4a_7c15;
        let head = self.key.to_bits() << 3 | self.routine.index() as u64;
        let mut h = head.wrapping_mul(MIX);
        for &size in &self.sizes {
            h = (h ^ size as u64).wrapping_mul(MIX);
        }
        h
    }
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

/// A batch's open-addressed shape table (linear probing, load at most one
/// half): a slot holds one plus the id of a remembered shape, or 0 when
/// free.
struct ShapeTable {
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a hash's top bits pick its first slot.
    shift: u32,
}

impl ShapeTable {
    /// A table sized for a batch of `calls` calls: twice the call count,
    /// rounded up to a power of two, within 16..=[`MAX_SLOTS`].
    fn for_calls(calls: usize) -> ShapeTable {
        let len = (2 * calls.min(MAX_SLOTS / 2)).next_power_of_two().max(16);
        ShapeTable {
            slots: vec![0; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// The index of `shape` in `shapes`, or the free slot that ends its
    /// probe.
    fn probe(&self, shape: &Shape, shapes: &[Shape]) -> std::result::Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (shape.hash() >> self.shift) as usize;
        loop {
            match self.slots[slot] as usize {
                0 => return Err(slot),
                held if shapes[held - 1] == *shape => return Ok(held - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Remembers shape `id` in the free `slot` that
    /// [`probe`](ShapeTable::probe) returned, unless the table already holds
    /// its share of shapes.
    fn remember(&mut self, slot: usize, id: usize) {
        if id < self.slots.len() / 2 {
            self.slots[slot] = id as u32 + 1;
        }
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
        let machine = harpertown_openblas();
        let mut modeler = Modeler::new(
            SimExecutor::noiseless(machine.clone()),
            Locality::InCache,
            1,
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
        let (repo, machine) = small_repo();
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
        let both = predictor.predict_trace(&[a.clone(), b.clone()]).unwrap();
        assert!((both.ticks.median - single_a.ticks.median - single_b.ticks.median).abs() < 1e-6);
        assert_eq!(both.predicted_calls, 2);
        assert_eq!(both.flops, a.flops() + b.flops());
        // std devs combine in quadrature, so the total is below the plain sum
        assert!(both.ticks.std_dev <= single_a.ticks.std_dev + single_b.ticks.std_dev + 1e-9);
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
