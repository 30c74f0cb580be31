//! Trace prediction: evaluating and accumulating per-call model estimates.

use std::sync::Arc;

use dla_blas::flops::is_empty_call;
use dla_blas::{Call, Routine};
use dla_machine::{Locality, MachineConfig};
use dla_mat::stats::Summary;
use dla_model::{
    submodel_key, BatchPoints, CompiledRepository, CompiledRoutineModel, FlagKey, ModelError,
    ModelRepository, Result, RoutineTable, MAX_DIM,
};

/// The predicted execution time of a whole trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePrediction {
    /// Accumulated tick statistics (per-call estimates summed; standard
    /// deviations combined in quadrature).
    pub ticks: Summary,
    /// Total floating-point operations of the trace.
    pub flops: f64,
    /// Number of calls whose models were evaluated.
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
    /// submodel (flag key) and region index that answered — the hook behind
    /// the service's per-region telemetry.
    pub(crate) fn predict_call_traced(&self, call: &Call) -> Result<(Summary, FlagKey, u32)> {
        self.model(call.routine())?.estimate_traced(call)
    }

    /// The compiled model serving `routine`, through the routing table.
    fn model(&self, routine: Routine) -> Result<&CompiledRoutineModel> {
        self.table
            .slot(routine)
            .map(|slot| self.compiled.model_at(slot))
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
    /// [`ModelService`](crate::ModelService): groups every call of every
    /// trace by (routine, flag key, arity) into flat [`BatchPoints`] column
    /// stores, evaluates each group through the SoA block kernel, then
    /// accumulates per trace in original call order — bit-identical results
    /// to the pointwise path.
    ///
    /// When `answered` is given it is called once per predicted call, in
    /// trace order, with the routine, submodel and region that answered —
    /// exactly the sequence a call-by-call walk over
    /// [`predict_call_traced`](Predictor::predict_call_traced) would see,
    /// collapsed duplicates included.
    pub(crate) fn predict_traces_batched(
        &self,
        traces: &[&[Call]],
        mut answered: Option<&mut dyn FnMut(Routine, FlagKey, u32)>,
    ) -> Result<Vec<TracePrediction>> {
        enum Placement {
            Skip,
            At(usize, usize),
        }
        struct Group {
            slot: usize,
            routine: Routine,
            key: FlagKey,
            dim: usize,
            points: BatchPoints,
            summaries: Vec<Summary>,
            regions: Vec<u32>,
        }
        let mut groups: Vec<Group> = Vec::new();
        let mut placements: Vec<Vec<Placement>> = Vec::with_capacity(traces.len());
        for trace in traces {
            let mut places = Vec::with_capacity(trace.len());
            for call in *trace {
                if is_empty_call(call) {
                    places.push(Placement::Skip);
                    continue;
                }
                let slot = self.table.slot(call.routine()).ok_or_else(|| {
                    missing_model_error(call.routine(), &self.machine.id(), self.locality)
                })?;
                let model = self.compiled.model_at(slot);
                let key = submodel_key(call);
                if !model.has_submodel(key) {
                    // Reproduce the exact pointwise error (with the call's
                    // flag characters) by asking the scalar path.
                    return match model.estimate(call) {
                        Err(e) => Err(e),
                        Ok(_) => Err(ModelError::MissingSubmodel(format!(
                            "submodel for {} appeared mid-batch",
                            call.routine()
                        ))),
                    };
                }
                let (sizes, len) = call.sizes_fixed();
                let mut clamped = [0usize; MAX_DIM];
                model.clamp_sizes(&sizes[..len], &mut clamped);
                let group = match groups
                    .iter()
                    .position(|g| g.slot == slot && g.key == key && g.dim == len)
                {
                    Some(g) => g,
                    None => {
                        groups.push(Group {
                            slot,
                            routine: call.routine(),
                            key,
                            dim: len,
                            points: BatchPoints::new(len),
                            summaries: Vec::new(),
                            regions: Vec::new(),
                        });
                        groups.len() - 1
                    }
                };
                // Consecutive duplicates collapse onto one batch slot: loop
                // algorithms re-issue identical calls every iteration (e.g.
                // the constant-size unblocked factor in a blocked sweep), and
                // the placement table already shares indices naturally.
                let last = groups[group].points.len();
                let dup = last > 0
                    && (0..len).all(|d| groups[group].points.column(d)[last - 1] == clamped[d]);
                let index = if dup {
                    last - 1
                } else {
                    groups[group].points.push(&clamped[..len]);
                    last
                };
                places.push(Placement::At(group, index));
            }
            placements.push(places);
        }
        let want_regions = answered.is_some();
        for g in &mut groups {
            self.compiled.model_at(g.slot).estimate_batch_clamped(
                g.key,
                &g.points,
                &mut g.summaries,
                want_regions.then_some(&mut g.regions),
            )?;
        }
        let mut out = Vec::with_capacity(traces.len());
        for (trace, places) in traces.iter().zip(&placements) {
            let mut ticks = Summary::zero();
            let mut flops = 0.0;
            let mut predicted = 0;
            let mut skipped = 0;
            for (call, place) in trace.iter().zip(places) {
                match place {
                    Placement::Skip => skipped += 1,
                    Placement::At(g, i) => {
                        let group = &groups[*g];
                        ticks.accumulate(&group.summaries[*i]);
                        if let Some(answered) = answered.as_mut() {
                            answered(group.routine, group.key, group.regions[*i]);
                        }
                        flops += call.flops();
                        predicted += 1;
                    }
                }
            }
            out.push(TracePrediction {
                ticks,
                flops,
                predicted_calls: predicted,
                skipped_calls: skipped,
            });
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
