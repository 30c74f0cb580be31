//! The serving layer: a thread-safe front end to a hot-swappable model
//! repository.
//!
//! The paper's repository is a long-lived asset: models are built once and
//! then answer many downstream queries.  [`ModelService`] is the concurrent
//! embodiment of that shape:
//!
//! * every repository generation is compiled once and published as one
//!   [`Published`] handle: the generation number, a [`Predictor`] over the
//!   compiled snapshot ([`CompiledRepository`]) with its machine/locality
//!   routing table, and the generation's telemetry counters.  The handle is
//!   built outside the lock by [`new`](ModelService::new),
//!   [`swap`](ModelService::swap), [`merge`](ModelService::merge) and
//!   [`swap_compiled`](ModelService::swap_compiled), and only the `Arc` is
//!   replaced under one `RwLock`, so readers never wait on compilation and
//!   a reader holding a handle sees one consistent generation;
//! * every query is answered by the compiled engine directly:
//!   [`predict_call`](ModelService::predict_call) is one read of the handle,
//!   one traced evaluation and one relaxed counter increment, and
//!   [`predict_traces`](ModelService::predict_traces) runs the
//!   [`Predictor`]'s batched trace path, which evaluates each distinct call
//!   shape of the batch once and counts each answering region once, with
//!   its number of calls, in one relaxed `fetch_add`.  There is no memo
//!   cache across requests: a compiled evaluation costs less than hashing
//!   the call into a shared, synchronised one, while a batch's own shape
//!   table is private and hashes cheaply;
//! * it keeps lightweight **refinement telemetry**: the compiled engine
//!   reports the cell id of the region that answered each query (every
//!   region of a compiled repository has one, see
//!   [`CompiledRepository::cells`]), and the service counts queries in one
//!   relaxed atomic per cell, indexed by that id.
//!   [`refinement_report`](ModelService::refinement_report) reads each
//!   queried cell's routine, flags, bounds and fit error through the engine
//!   and ranks the cells by `queries × fit_error` — the input an online
//!   refiner needs to re-sample exactly where serving traffic meets model
//!   error.  The counters belong to the published handle, so every
//!   swap/merge starts the next generation with a clean slate and no query
//!   can count into a generation it did not evaluate.
//!
//! The service is `Sync`: wrap it in an `Arc` and clone the handle into as
//! many threads as needed.
//!
//! All concurrency primitives come from the `dla_sync` facade
//! ([`dla_model::sync`]): under `--cfg interleave` they become the vendored
//! model checker's shims, and `tests/interleave_service.rs` exhaustively
//! explores this file's races (torn publications, merge retries, reports
//! racing counted queries).  The facade's locks are non-poisoning: the only critical
//! section here replaces one `Arc`, so recovering from a panicked holder
//! serves a consistent generation instead of unwinding the serving tier.

use dla_blas::Call;
use dla_machine::{Locality, MachineConfig};
use dla_mat::stats::Summary;
// Concurrency primitives come from the `dla_sync` facade (model-checked
// under `--cfg interleave`, non-poisoning locks); `dla-lint` enforces that
// this file never reaches for `std::sync` directly.
use dla_model::sync::atomic::{AtomicU64, Ordering};
use dla_model::sync::{Arc, RwLock};
use dla_model::{
    CompiledRepository, HotRegion, ModelRepository, RefinementReport, RepositoryValidator,
};
use dla_modeler::RefineOutcome;

use crate::health::{HealthCounters, ServiceHealth};
use crate::predictor::{EfficiencyPrediction, Predictor, TraceEvaluator, TracePrediction};

/// Per-generation refinement telemetry: one relaxed query counter per cell
/// of the compiled repository, indexed by the cell id that the traced
/// evaluation reports (see [`CompiledRepository::cells`]).
struct Telemetry {
    counters: Box<[AtomicU64]>,
}

impl Telemetry {
    /// One zeroed counter per cell of `compiled`.  Runs once per repository
    /// generation, next to the routing-table resolution, never on the query
    /// path.
    fn new(compiled: &CompiledRepository) -> Telemetry {
        Telemetry {
            counters: compiled.cells().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Counts one query answered by cell `cell`; an id outside the
    /// repository is not counted.
    ///
    /// The increment is a relaxed load + store, **deliberately not an RMW**:
    /// a lock-prefixed `fetch_add` costs a sizable share of the one compiled
    /// evaluation it counts.  A concurrent count landing between the load
    /// and the store is lost: another query's 1, or a whole batch's count
    /// for this cell (see [`count_batch`](Telemetry::count_batch)).  The
    /// window is a few instructions and the statistic is best-effort
    /// (refinement ranks by magnitudes, not exact counts).  Counts from a
    /// single thread are exact.
    fn count_one(&self, cell: u32) {
        if let Some(counter) = self.counters.get(cell as usize) {
            // ordering: Relaxed on both halves — no other memory depends on
            // this value; see the method docs for what a race can lose.
            counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
    }

    /// Counts the `queries` calls of one batch that cell `cell` answered.
    ///
    /// One relaxed `fetch_add`: a batch counts each cell once with all its
    /// calls, so the RMW is paid once per distinct shape, and two batches
    /// never lose each other's counts.
    fn count_batch(&self, cell: u32, queries: u64) {
        if let Some(counter) = self.counters.get(cell as usize) {
            // ordering: Relaxed — no other memory depends on this value.
            counter.fetch_add(queries, Ordering::Relaxed);
        }
    }
}

/// One published repository generation: everything a query needs, behind
/// one `Arc` — the generation number, a [`Predictor`] over the compiled
/// snapshot (routing table resolved for the service's machine and locality)
/// and the generation's telemetry counters.
///
/// A handle pins one consistent generation: its number, models and counters
/// can never disagree, however many publications land while it is held.
/// Evaluating through [`predictor`](Published::predictor) counts no
/// telemetry, which is how the fleet answers stale queries from a retained
/// generation without mixing them into the served generation's traffic.
pub struct Published {
    generation: u64,
    predictor: Predictor,
    telemetry: Telemetry,
}

impl Published {
    /// Resolves the routing table and allocates the telemetry counters for
    /// an already compiled repository.  The generation number is assigned at
    /// publication, under the service's lock.
    fn build(
        compiled: Arc<CompiledRepository>,
        machine: &MachineConfig,
        locality: Locality,
    ) -> Published {
        let telemetry = Telemetry::new(&compiled);
        Published {
            generation: 0,
            predictor: Predictor::from_compiled(compiled, machine.clone(), locality),
            telemetry,
        }
    }

    /// The repository generation this handle was published as (0 for the
    /// constructor's repository, +1 per accepted swap/merge).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The generation's compiled repository.
    pub fn compiled(&self) -> &Arc<CompiledRepository> {
        self.predictor.compiled()
    }

    /// An evaluator over the generation's models; it counts no telemetry.
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }
}

impl std::fmt::Debug for Published {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Published")
            .field("generation", &self.generation)
            .field("models", &self.compiled().len())
            .finish_non_exhaustive()
    }
}

/// A thread-safe prediction service over a hot-swappable model repository.
pub struct ModelService {
    machine: MachineConfig,
    locality: Locality,
    /// The served generation.  Publications build the replacement outside
    /// the lock and only swap the `Arc` under it.
    current: RwLock<Arc<Published>>,
    /// Pre-publication gate: every swap/merge validates the incoming models
    /// before they can reach readers (see [`RepositoryValidator`]).
    validator: RepositoryValidator,
    /// The degraded-serving ledger behind [`health`](ModelService::health).
    health: HealthCounters,
}

impl ModelService {
    /// Creates a service over a repository, for one machine and locality.
    ///
    /// The constructor-supplied repository is trusted (it is typically the
    /// service's own offline build, and an intentionally empty service is
    /// legitimate); validation gates *publications* — see
    /// [`swap`](ModelService::swap).
    pub fn new(
        repository: ModelRepository,
        machine: MachineConfig,
        locality: Locality,
    ) -> ModelService {
        let compiled = Arc::new(CompiledRepository::compile(repository));
        let first = Published::build(compiled, &machine, locality);
        ModelService {
            machine,
            locality,
            current: RwLock::new(Arc::new(first)),
            validator: RepositoryValidator::new(),
            health: HealthCounters::new(),
        }
    }

    /// The machine configuration predictions refer to.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The memory-locality scenario of the served models.
    pub fn locality(&self) -> Locality {
        self.locality
    }

    /// The currently published generation, as a cheap `Arc` clone.  The
    /// handle stays valid (and internally consistent) across later
    /// publications.
    pub fn published(&self) -> Arc<Published> {
        Arc::clone(&self.current.read())
    }

    /// A consistent snapshot of the current repository.
    pub fn snapshot(&self) -> Arc<ModelRepository> {
        Arc::clone(self.published().compiled().source())
    }

    /// The current compiled snapshot, as a cheap `Arc` clone — what binary
    /// persistence encodes without recompiling anything.
    pub fn compiled_snapshot(&self) -> Arc<CompiledRepository> {
        Arc::clone(self.published().compiled())
    }

    /// A predictor over the current snapshot.
    ///
    /// The predictor owns its snapshot, so it can be handed to other threads
    /// and outlives later [`swap`](ModelService::swap)s.  It is a clone of
    /// the published generation's own predictor: nothing is compiled or
    /// resolved.  It counts no telemetry, which makes it the way to evaluate
    /// without feeding the refinement report.
    pub fn predictor(&self) -> Predictor {
        self.published().predictor().clone()
    }

    /// Runs the pre-publication gate, accounting a rejection in the health
    /// ledger.
    fn admit(&self, repository: &ModelRepository) -> dla_model::Result<()> {
        let verdict = self.validator.validate(repository);
        if verdict.is_err() {
            self.health.record_rejected();
        }
        verdict
    }

    /// Installs `next` as the successor of the generation in `current` (a
    /// held write guard), returning the replaced handle.
    fn install_next(&self, current: &mut Arc<Published>, mut next: Published) -> Arc<Published> {
        next.generation = current.generation + 1;
        std::mem::replace(current, Arc::new(next))
    }

    /// Builds the handle of `compiled` outside the lock and publishes it as
    /// the next generation, returning the replaced generation's source.
    fn publish(&self, compiled: Arc<CompiledRepository>) -> Arc<ModelRepository> {
        let next = Published::build(compiled, &self.machine, self.locality);
        let mut current = self.current.write();
        let previous = self.install_next(&mut current, next);
        // Release the lock before the replaced generation is freed.
        drop(current);
        Arc::clone(previous.compiled().source())
    }

    /// Atomically replaces the repository (hot swap), returning the previous
    /// one.  In-flight predictors and published handles keep their
    /// generation; new queries see the replacement.
    ///
    /// Every publication passes the [`RepositoryValidator`] first: a
    /// repository carrying non-finite coefficients, empty submodels or a
    /// degenerate region cover is **rejected** — the service keeps serving
    /// the previous generation, the rejection is accounted in
    /// [`health`](ModelService::health), and the caller gets the validation
    /// error back.  (An intentionally *empty* repository is a valid
    /// publication: it clears the service.)
    pub fn swap(&self, repository: ModelRepository) -> dla_model::Result<Arc<ModelRepository>> {
        self.admit(&repository)?;
        Ok(self.publish(Arc::new(CompiledRepository::compile(repository))))
    }

    /// Merges freshly built models into the served repository (hot swap).
    ///
    /// The merge and its compilation run *outside* the lock; a generation
    /// check under the write lock detects a racing publication, in which
    /// case the merge is redone against the newer repository, so two racing
    /// merges both land.  The incoming delta passes the same
    /// pre-publication validation as [`swap`](ModelService::swap): a
    /// rejected delta changes nothing — the served generation and its
    /// telemetry stay in place.
    pub fn merge(&self, other: ModelRepository) -> dla_model::Result<()> {
        self.admit(&other)?;
        loop {
            let base = self.published();
            let mut merged = (**base.compiled().source()).clone();
            merged.merge_models(other.clone());
            let compiled = Arc::new(CompiledRepository::compile(merged));
            let next = Published::build(compiled, &self.machine, self.locality);
            let mut current = self.current.write();
            if current.generation == base.generation {
                // `base` still holds the replaced generation, so it is freed
                // on return, after the lock is released.
                self.install_next(&mut current, next);
                return Ok(());
            }
        }
    }

    /// Atomically replaces the repository with an **already compiled** one,
    /// such as [`dla_model::binfmt::decode`] returns, without compiling it
    /// again.  Returns the previous source repository.
    ///
    /// The compiled repository's source is validated like any other
    /// publication (repositories loaded from disk are exactly where
    /// corruption enters).
    pub fn swap_compiled(
        &self,
        compiled: Arc<CompiledRepository>,
    ) -> dla_model::Result<Arc<ModelRepository>> {
        self.admit(compiled.source())?;
        Ok(self.publish(compiled))
    }

    /// A point-in-time snapshot of the service's fault-tolerance ledger:
    /// the served generation (read from the published handle), the
    /// rejected-publication count, and the refinement loop's quarantine and
    /// sampling-fault statistics (see
    /// [`record_refinement`](ModelService::record_refinement)).
    pub fn health(&self) -> ServiceHealth {
        let generation = self.current.read().generation;
        self.health.snapshot(generation)
    }

    /// Folds one refinement round's [`RefineOutcome`] into the health
    /// ledger (quarantined-region count, recoveries, fit failures, sampler
    /// retry/discard totals).  The refinement loop calls this once per round,
    /// next to the merge of the round's delta.
    pub fn record_refinement(&self, outcome: &RefineOutcome) {
        self.health.record_refinement(outcome);
    }

    /// Predicts the performance of a single call on the compiled engine,
    /// counting the answering region in the served generation's telemetry.
    // lint: panic-free
    pub fn predict_call(&self, call: &Call) -> dla_model::Result<Summary> {
        self.predict_call_tagged(call).map(|(summary, _)| summary)
    }

    /// [`predict_call`](ModelService::predict_call), also returning the
    /// number of the generation that answered, read under the same guard as
    /// the evaluation, so a racing publication cannot mistag the answer.
    // lint: panic-free
    pub(crate) fn predict_call_tagged(&self, call: &Call) -> dla_model::Result<(Summary, u64)> {
        let current = self.current.read();
        let (summary, cell) = current.predictor.predict_call_traced(call)?;
        current.telemetry.count_one(cell);
        Ok((summary, current.generation))
    }

    /// Snapshots the current generation's telemetry into a ranked
    /// [`RefinementReport`]: every `(routine, flags, region)` cell that
    /// answered at least one query since the served repository generation was
    /// published, hottest (`queries × fit_error`, `NaN` first) first.
    ///
    /// Producing the report does not pause serving — it reads the relaxed
    /// counters in place.  The report is empty when nothing was queried since
    /// the last swap/merge (counters are per-generation by design: a rebuilt
    /// region must re-earn its place in the next report).
    pub fn refinement_report(&self) -> RefinementReport {
        let current = self.published();
        let mut total_queries = 0u64;
        let mut cells = Vec::new();
        let counters = current.telemetry.counters.iter();
        for ((routine, flags, region), counter) in current.compiled().cells().zip(counters) {
            // ordering: Relaxed — each counter is an independent statistic;
            // the report needs magnitudes, not a cross-counter snapshot, and
            // the handle pins the generation the counts belong to.
            let queries = counter.load(Ordering::Relaxed);
            total_queries += queries;
            if queries > 0 {
                cells.push(HotRegion {
                    routine,
                    flags,
                    region: region.region.clone(),
                    fit_error: region.error,
                    revision: region.revision,
                    queries,
                });
            }
        }
        RefinementReport::ranked(
            self.machine.id(),
            self.locality,
            current.generation,
            total_queries,
            cells,
        )
    }

    /// Predicts a whole trace by accumulating per-call estimates (see
    /// [`TraceEvaluator::predict_trace`]).
    pub fn predict_trace(&self, trace: &[Call]) -> dla_model::Result<TracePrediction> {
        TraceEvaluator::predict_trace(self, trace)
    }

    /// Predicts a batch of traces against one generation, through the
    /// [`Predictor`]'s batched trace path (see
    /// [`TraceEvaluator::predict_traces`]), which evaluates each distinct
    /// call shape once.  Telemetry is counted once per shape with its number
    /// of predicted calls, so every cell ends with the count a call-by-call
    /// walk would give it; a batch that fails counts nothing.
    pub fn predict_traces(&self, traces: &[&[Call]]) -> dla_model::Result<Vec<TracePrediction>> {
        let current = self.published();
        let telemetry = &current.telemetry;
        current.predictor.predict_traces_batched(
            traces,
            Some(&mut |cell, uses| telemetry.count_batch(cell, uses)),
        )
    }

    /// Predicts the efficiency of a trace for an operation with the given
    /// useful flop count.
    pub fn predict_efficiency(
        &self,
        trace: &[Call],
        useful_flops: f64,
    ) -> dla_model::Result<EfficiencyPrediction> {
        TraceEvaluator::predict_efficiency(self, trace, useful_flops)
    }
}

impl TraceEvaluator for ModelService {
    fn machine(&self) -> &MachineConfig {
        ModelService::machine(self)
    }

    fn predict_call(&self, call: &Call) -> dla_model::Result<Summary> {
        ModelService::predict_call(self, call)
    }

    fn predict_traces(&self, traces: &[&[Call]]) -> dla_model::Result<Vec<TracePrediction>> {
        ModelService::predict_traces(self, traces)
    }
}

impl std::fmt::Debug for ModelService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelService")
            .field("machine", &self.machine.id())
            .field("locality", &self.locality)
            .field("published", &*self.published())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modelset::{build_repository, ModelSetConfig, Workload};
    use dla_blas::flops::is_empty_call;
    use dla_blas::{Diag, Routine, Side, Trans, Uplo};
    use dla_machine::presets::harpertown_openblas;
    use dla_model::{submodel_key, ModelError, Region};

    fn quick_service() -> ModelService {
        let machine = harpertown_openblas();
        let cfg = ModelSetConfig::quick(128);
        let (repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
        ModelService::new(repo, machine, Locality::InCache)
    }

    fn empty_service() -> ModelService {
        ModelService::new(
            ModelRepository::new(),
            harpertown_openblas(),
            Locality::InCache,
        )
    }

    /// A predictor compiled afresh from the service's source repository —
    /// shares nothing with the service's published handle.
    fn uncached_predictor(service: &ModelService) -> Predictor {
        Predictor::shared(
            service.snapshot(),
            service.machine().clone(),
            Locality::InCache,
        )
    }

    fn gemm(n: usize) -> Call {
        Call::gemm(Trans::NoTrans, Trans::NoTrans, n, n, n.min(64), 1.0, 1.0)
    }

    #[test]
    fn service_is_sync_and_send() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<ModelService>();
        assert_sync::<Published>();
    }

    #[test]
    fn predictions_match_an_uncached_predictor() {
        let service = quick_service();
        let predictor = uncached_predictor(&service);
        for n in [8, 32, 96, 128, 4096] {
            let call = gemm(n);
            let direct = predictor.predict_call(&call).unwrap();
            // Repeated queries answer the same bits every time.
            assert_eq!(service.predict_call(&call).unwrap(), direct);
            assert_eq!(service.predict_call(&call).unwrap(), direct);
        }
    }

    #[test]
    fn scalars_and_leading_dims_do_not_change_predictions() {
        let service = quick_service();
        let a = Call::gemm(Trans::NoTrans, Trans::NoTrans, 96, 96, 64, 1.0, 1.0);
        let b = Call::gemm(Trans::NoTrans, Trans::NoTrans, 96, 96, 64, -2.5, 0.0)
            .with_leading_dims(4000);
        assert_eq!(
            service.predict_call(&a).unwrap(),
            service.predict_call(&b).unwrap()
        );
        // Both land in the same telemetry cell.
        let report = service.refinement_report();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].queries, 2);
    }

    #[test]
    fn swap_replaces_the_served_models_but_not_snapshots() {
        let service = quick_service();
        let call = gemm(80);
        let expected = service.predict_call(&call).unwrap();
        let old_predictor = service.predictor();
        let old_handle = service.published();
        // An intentionally empty repository is a *valid* publication: it
        // clears the service.
        let old = service.swap(ModelRepository::new()).unwrap();
        assert!(!old.is_empty());
        assert_eq!(
            service.published().generation(),
            old_handle.generation() + 1
        );
        // The service now serves the empty repository...
        assert!(service.predict_call(&call).is_err());
        assert!(service.snapshot().is_empty());
        // ...but the predictor and the handle taken before the swap still
        // answer from their own generation.
        assert_eq!(old_predictor.predict_call(&call).unwrap(), expected);
        assert_eq!(
            old_handle.predictor().predict_call(&call).unwrap(),
            expected
        );
        // Swapping the old repository back restores service.
        service.swap((*old).clone()).unwrap();
        assert_eq!(service.predict_call(&call).unwrap(), expected);
    }

    #[test]
    fn snapshots_survive_swaps() {
        let service = empty_service();
        let before = service.snapshot();
        assert!(before.is_empty());
        assert_eq!(service.published().generation(), 0);
        let old = service.swap(ModelRepository::new()).unwrap();
        assert!(Arc::ptr_eq(&before, &old));
        assert_eq!(service.published().generation(), 1);
        // The old snapshot is still usable after the swap.
        assert!(before.is_empty());
        assert!(!Arc::ptr_eq(&before, &service.snapshot()));
    }

    #[test]
    fn compiled_handle_tracks_the_source() {
        let service = empty_service();
        let compiled = service.compiled_snapshot();
        assert!(compiled.is_empty());
        assert!(Arc::ptr_eq(compiled.source(), &service.snapshot()));
        service.swap(ModelRepository::new()).unwrap();
        // A fresh handle follows the swap; the old one keeps its view.
        assert!(!Arc::ptr_eq(compiled.source(), &service.snapshot()));
    }

    #[test]
    fn concurrent_snapshots_and_swaps_do_not_panic() {
        let service = Arc::new(empty_service());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let published = service.published();
                        assert!(published.compiled().is_empty());
                        assert!(service.snapshot().is_empty());
                    }
                });
            }
            let swapper = Arc::clone(&service);
            scope.spawn(move || {
                for _ in 0..50 {
                    swapper.swap(ModelRepository::new()).unwrap();
                }
            });
        });
        assert_eq!(service.published().generation(), 50);
        assert_eq!(service.health().last_good_generation, 50);
    }

    #[test]
    fn merge_extends_the_served_repository() {
        let machine = harpertown_openblas();
        let cfg = ModelSetConfig::quick(96);
        let (trinv_repo, _) =
            build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
        let (sylv_repo, _) =
            build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Sylv]);
        let service = ModelService::new(trinv_repo, machine, Locality::InCache);
        let before = service.snapshot().len();
        service.merge(sylv_repo).unwrap();
        assert!(service.snapshot().len() > before);
        assert_eq!(service.published().generation(), 1);
        let sylv_call = Call::sylv_unb(64, 64);
        assert!(service.predict_call(&sylv_call).is_ok());
    }

    #[test]
    fn telemetry_counts_queries_per_region_and_ranks_them() {
        let service = quick_service();
        // Nothing queried yet: the report is empty.
        assert!(service.refinement_report().is_empty());

        // 7 queries on one call, 2 on another; every repeat counts.
        for _ in 0..7 {
            let _ = service.predict_call(&gemm(96)).unwrap();
        }
        for _ in 0..2 {
            let _ = service.predict_call(&gemm(32)).unwrap();
        }
        let report = service.refinement_report();
        assert_eq!(report.total_queries, 9);
        assert!(!report.is_empty());
        assert_eq!(report.machine_id, service.machine().id());
        assert_eq!(report.locality, Locality::InCache);
        let gemm_queries: u64 = report
            .cells
            .iter()
            .filter(|c| c.routine == Routine::Gemm)
            .map(|c| c.queries)
            .sum();
        assert_eq!(gemm_queries, 9);
        // Every reported cell names a real region of the served snapshot.
        let snapshot = service.snapshot();
        for cell in &report.cells {
            let model = snapshot
                .get(cell.routine, &report.machine_id, report.locality)
                .expect("reported routine is served");
            let submodel = model.submodel(cell.flags).expect("reported flags exist");
            assert!(
                submodel.regions.iter().any(|r| r.region == cell.region),
                "reported region {} not found",
                cell.region
            );
            assert_eq!(cell.revision, 0, "initial build regions are revision 0");
        }
        // Ranking: hottest first.
        let priorities: Vec<f64> = report.cells.iter().map(|c| c.priority()).collect();
        assert!(priorities.windows(2).all(|w| w[0] >= w[1] || w[0].is_nan()));
    }

    #[test]
    fn telemetry_resets_on_swap_and_predictors_count_nothing() {
        let service = quick_service();
        let _ = service.predict_call(&gemm(96)).unwrap();
        assert_eq!(service.refinement_report().total_queries, 1);

        // A swap starts a new generation: counters restart at zero.
        let current = (*service.snapshot()).clone();
        service.swap(current).unwrap();
        assert_eq!(service.refinement_report().total_queries, 0);
        let _ = service.predict_call(&gemm(96)).unwrap();
        assert_eq!(service.refinement_report().total_queries, 1);

        // Evaluating through a predictor, on both the call and the batch
        // path, counts nothing...
        let trace = [gemm(48)];
        for predictor in [service.predictor(), service.published().predictor().clone()] {
            let _ = predictor.predict_call(&gemm(96)).unwrap();
            let _ = predictor.predict_traces(&[&trace[..]]).unwrap();
        }
        assert_eq!(service.refinement_report().total_queries, 1);
        // ...while the service itself keeps counting.
        let _ = service.predict_call(&gemm(48)).unwrap();
        assert_eq!(service.refinement_report().total_queries, 2);
    }

    /// A gemm model whose only coefficient is NaN — invalid by construction.
    fn nan_gemm_repo(machine_id: &str) -> ModelRepository {
        use dla_model::{PiecewiseModel, Polynomial, RegionModel, RoutineModel, VectorPolynomial};
        let space = Region::new(vec![8, 8, 8], vec![128, 128, 128]);
        let nan_poly = Polynomial::new(3, vec![vec![0, 0, 0]], vec![f64::NAN]).unwrap();
        let poly = VectorPolynomial::new(vec![nan_poly; 5]).unwrap();
        let region = RegionModel {
            region: space.clone(),
            poly,
            error: 0.0,
            samples_used: 1,
            revision: 0,
        };
        let piecewise = PiecewiseModel::new(space.clone(), vec![region], 1);
        let mut model = RoutineModel::new(Routine::Gemm, machine_id, Locality::InCache, space);
        model.insert_submodel(submodel_key(&gemm(8)), piecewise);
        let mut repo = ModelRepository::new();
        repo.insert(model);
        repo
    }

    #[test]
    fn health_ledger_accounts_every_publication() {
        let service = quick_service();
        let initial = service.health();
        assert_eq!(initial.last_good_generation, 0);
        assert_eq!(initial.publishes_rejected, 0);

        // An accepted swap advances the last good generation.
        let current = (*service.snapshot()).clone();
        service.swap(current).unwrap();
        let after_swap = service.health();
        assert_eq!(after_swap.last_good_generation, 1);

        // A poisoned merge is rejected: the ledger records it and the served
        // generation stays put.
        let machine_id = service.machine().id();
        let err = service.merge(nan_gemm_repo(&machine_id)).unwrap_err();
        assert!(matches!(err, ModelError::Validation(_)));
        let after_reject = service.health();
        assert_eq!(after_reject.publishes_rejected, 1);
        assert_eq!(
            after_reject.last_good_generation,
            after_swap.last_good_generation
        );
        // The poisoned models never became visible.
        assert!(service
            .snapshot()
            .get(Routine::Gemm, &machine_id, Locality::InCache)
            .map(|m| m
                .submodels
                .values()
                .flat_map(|s| s.regions.iter())
                .flat_map(|r| r.poly.polynomials())
                .all(|p| p.coefficients().iter().all(|c| c.is_finite())))
            .unwrap_or(true));

        // A poisoned compiled swap is rejected through the same gate.
        let compiled = Arc::new(nan_gemm_repo(&machine_id).compiled());
        assert!(service.swap_compiled(compiled).is_err());
        assert_eq!(service.health().publishes_rejected, 2);

        // Refinement outcomes fold into the same ledger.
        let outcome = RefineOutcome {
            cells_recovered: 2,
            fit_failures: 3,
            sample_retries: 7,
            samples_discarded: 11,
            ..Default::default()
        };
        service.record_refinement(&outcome);
        let after_round = service.health();
        assert_eq!(after_round.cells_recovered, 2);
        assert_eq!(after_round.fit_failures, 3);
        assert_eq!(after_round.sample_retries, 7);
        assert_eq!(after_round.samples_discarded, 11);
        assert_eq!(after_round.quarantined_regions, 0);
    }

    #[test]
    fn a_swap_keying_a_submodel_no_call_reaches_is_rejected() {
        let service = quick_service();
        let call = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            64,
            64,
            1.0,
        );
        let answer = service.predict_call(&call).unwrap();
        // trsm calls keep three flags: published under the key [0, 0], the
        // trsm model would fail every trsm call.
        let machine_id = service.machine().id();
        let mut repo = (*service.snapshot()).clone();
        let mut model = repo
            .get(Routine::Trsm, &machine_id, Locality::InCache)
            .unwrap()
            .clone();
        let (_, sub) = model.submodels.pop_first().unwrap();
        model.submodels.clear();
        model.insert_submodel(dla_model::FlagKey::from_slice(&[0, 0]).unwrap(), sub);
        repo.insert(model);
        let err = service.swap(repo).unwrap_err();
        assert!(matches!(err, ModelError::Validation(_)), "{err:?}");
        let health = service.health();
        assert_eq!(health.publishes_rejected, 1);
        assert_eq!(health.last_good_generation, 0);
        assert_eq!(service.predict_call(&call).unwrap(), answer);
    }

    #[test]
    fn trace_predictions_match_an_uncached_predictor() {
        let service = quick_service();
        let predictor = uncached_predictor(&service);
        let trace: Vec<Call> = (0..50).map(|i| gemm(32 + 16 * (i % 3))).collect();
        let prediction = service.predict_trace(&trace).unwrap();
        assert_eq!(prediction.predicted_calls, 50);
        assert_eq!(prediction, predictor.predict_trace(&trace).unwrap());
        let short = [gemm(96), gemm(8)];
        let traces: Vec<&[Call]> = vec![&trace, &short, &[]];
        assert_eq!(
            service.predict_traces(&traces).unwrap(),
            predictor.predict_traces(&traces).unwrap()
        );
    }

    #[test]
    fn a_failing_batch_counts_no_telemetry() {
        let service = quick_service();
        // The trinv repository models no sylv_unb: the batch's last call
        // fails after three shapes have been evaluated.
        let sylv = Call::sylv_unb(64, 64);
        let traces: Vec<Vec<Call>> = vec![vec![gemm(96), gemm(32), gemm(96)], vec![gemm(64), sylv]];
        let slices: Vec<&[Call]> = traces.iter().map(Vec::as_slice).collect();
        assert!(service.predict_traces(&slices).is_err());
        let report = service.refinement_report();
        assert_eq!(report.total_queries, 0);
        assert!(report.cells.is_empty(), "{:?}", report.cells);
        // Without the failing trace, every predicted call counts.
        service.predict_traces(&slices[..1]).unwrap();
        assert_eq!(service.refinement_report().total_queries, 3);
    }

    #[test]
    fn batched_traces_count_telemetry_like_a_call_by_call_walk() {
        let walked = quick_service();
        let batched = quick_service();
        let empty = Call::gemm(Trans::NoTrans, Trans::NoTrans, 0, 64, 32, 1.0, 1.0);
        // One shape, repeated non-consecutively across three traces; its
        // scalars and leading dimensions vary without changing the shape.
        let repeated =
            |alpha: f64| Call::gemm(Trans::NoTrans, Trans::NoTrans, 48, 80, 16, alpha, 1.0);
        let traces: Vec<Vec<Call>> = vec![
            // Consecutive repeats...
            (0..20).map(|_| gemm(96)).collect(),
            // ...non-consecutive repeats, within and across traces, and a
            // degenerate call that must not count.
            vec![
                gemm(32),
                repeated(1.0),
                gemm(96),
                gemm(32),
                empty,
                gemm(4096),
                repeated(-2.0).with_leading_dims(4000),
                gemm(32),
            ],
            vec![repeated(1.0), gemm(96), gemm(64), gemm(96), repeated(0.5)],
            vec![gemm(64), repeated(1.0), gemm(8), repeated(1.0)],
        ];
        let slices: Vec<&[Call]> = traces.iter().map(Vec::as_slice).collect();
        for trace in &slices {
            for call in trace.iter().filter(|c| !is_empty_call(c)) {
                walked.predict_call(call).unwrap();
            }
        }
        batched.predict_traces(&slices).unwrap();
        let expected_calls = traces
            .iter()
            .flatten()
            .filter(|c| !is_empty_call(c))
            .count();
        let report = batched.refinement_report();
        assert_eq!(report.total_queries, expected_calls as u64);
        // Same totals, same cells, same per-cell counts.
        assert_eq!(report, walked.refinement_report());
        // The repeated shape's cell counts every call it answered, each
        // repeat included, although the batch evaluated the shape once.
        let predictor = batched.predictor();
        let (_, cell) = predictor.predict_call_traced(&repeated(1.0)).unwrap();
        let in_cell = slices
            .iter()
            .flat_map(|trace| trace.iter())
            .filter(|c| !is_empty_call(c))
            .filter(|c| predictor.predict_call_traced(c).unwrap().1 == cell)
            .count();
        assert!(in_cell >= 6, "{in_cell}");
        let compiled = batched.compiled_snapshot();
        let (routine, key, answering) = compiled.cells().nth(cell as usize).unwrap();
        assert_eq!(routine, Routine::Gemm);
        let cell = report
            .cells
            .iter()
            .find(|c| c.flags == key && c.region == answering.region)
            .unwrap();
        assert_eq!(cell.queries, in_cell as u64);
    }

    #[test]
    fn a_model_of_the_wrong_dimension_is_not_published() {
        use dla_model::{PiecewiseModel, RegionModel, RoutineModel};
        let service = quick_service();
        let call = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            96,
            64,
            1.0,
        );
        let expected = service.predict_call(&call).unwrap();
        // A one-dimensional trsm model: every trsm call has two sizes, so
        // serving it would answer every trsm call with an arity error.
        let space = Region::new(vec![8], vec![128]);
        let samples: Vec<(Vec<usize>, Summary)> = space
            .sample_grid(4, 8)
            .into_iter()
            .map(|p| (p.clone(), Summary::exact(100.0 + p[0] as f64)))
            .collect();
        let region = RegionModel::fit(space.clone(), &samples, 1).unwrap();
        let mut model = RoutineModel::new(
            Routine::Trsm,
            service.machine().id(),
            Locality::InCache,
            space.clone(),
        );
        model.insert_submodel(
            submodel_key(&call),
            PiecewiseModel::new(space, vec![region], samples.len()),
        );
        let mut repo = ModelRepository::new();
        repo.insert(model);
        let err = service.swap(repo).unwrap_err();
        assert!(matches!(err, ModelError::Validation(ref m) if m.contains("dimension")));
        let health = service.health();
        assert_eq!(health.publishes_rejected, 1);
        assert_eq!(health.last_good_generation, 0);
        // The previous generation still answers.
        assert_eq!(service.published().generation(), 0);
        assert_eq!(service.predict_call(&call).unwrap(), expected);
    }
}
