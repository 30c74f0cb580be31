//! Model-checked concurrency invariants of [`ModelService`]'s publication
//! protocol and serving hot path, explored exhaustively by the vendored
//! `interleave` checker.
//!
//! Only compiled under `--cfg interleave` (the `dla_sync` facade then routes
//! the service's publication lock and telemetry counters through the
//! checker's shim types, so these tests explore the *real* serving code):
//!
//! ```text
//! RUSTFLAGS="--cfg interleave" cargo test -p dla-predict --test interleave_service
//! ```
#![cfg(interleave)]

use dla_blas::{Call, Diag, Routine, Side, Trans, Uplo};
use dla_machine::presets::harpertown_openblas;
use dla_machine::Locality;
use dla_mat::stats::Summary;
use dla_model::sync::Arc;
use dla_model::{FlagKey, ModelRepository, PiecewiseModel, Region, RegionModel, RoutineModel};
use dla_predict::ModelService;

fn has(repo: &ModelRepository, routine: Routine, machine_id: &str) -> bool {
    repo.get(routine, machine_id, Locality::InCache).is_some()
}

fn sample_summary(p: &[usize]) -> Summary {
    let x = p[0] as f64;
    let y = p.get(1).map(|&v| v as f64).unwrap_or(1.0);
    let median = 500.0 + x * y * 0.3 + x * 2.0;
    Summary {
        min: median * 0.9,
        mean: median,
        median,
        max: median * 1.2,
        std_dev: median * 0.05,
        count: 8,
    }
}

/// A one-region, one-submodel repository for `routine` on the harpertown
/// preset — cheap enough to compile inside every explored execution.
fn repo_with(routine: Routine, machine_id: &str) -> ModelRepository {
    let space = Region::new(vec![8, 8], vec![1024, 1024]);
    let samples: Vec<(Vec<usize>, Summary)> = space
        .sample_grid(4, 8)
        .into_iter()
        .map(|p| {
            let s = sample_summary(&p);
            (p, s)
        })
        .collect();
    let rm = RegionModel::fit(space.clone(), &samples, 2).unwrap();
    let pw = PiecewiseModel::new(space.clone(), vec![rm], samples.len());
    let mut model = RoutineModel::new(routine, machine_id, Locality::InCache, space);
    model.insert_submodel(FlagKey::from_slice(&[0, 0, 0]).unwrap(), pw);
    let mut repo = ModelRepository::new();
    repo.insert(model);
    repo
}

/// Hits the `[0, 0, 0]` submodel of a Trsm model.
fn trsm_call() -> Call {
    Call::trsm(
        Side::Left,
        Uplo::Lower,
        Trans::NoTrans,
        Diag::NonUnit,
        300,
        700,
        1.0,
    )
}

/// Hits the `[0, 0, 0]` submodel of a Trmm model.
fn trmm_call() -> Call {
    Call::trmm(
        Side::Left,
        Uplo::Lower,
        Trans::NoTrans,
        Diag::NonUnit,
        300,
        700,
        1.0,
    )
}

/// Invariant: a hot swap racing a query never strands that query's telemetry
/// in a counter block no report will ever read.  After the race settles, the
/// report reflects at most the one racing query, and the *next* query is
/// counted exactly once on top of it — whatever interleaving the swap's
/// publication took against the query's handle read and count.  (The
/// counters travel inside the published handle, so a query can only count
/// into the generation that answered it.)
#[test]
fn swap_racing_predict_never_orphans_telemetry() {
    let machine = harpertown_openblas();
    let repo = repo_with(Routine::Trsm, &machine.id());
    interleave::model(|| {
        let service = Arc::new(ModelService::new(
            repo.clone(),
            machine.clone(),
            Locality::InCache,
        ));
        service.predict_call(&trsm_call()).unwrap();
        let swapper_service = Arc::clone(&service);
        let next = repo.clone();
        let swapper = interleave::thread::spawn(move || {
            swapper_service.swap(next).unwrap();
        });
        service.predict_call(&trsm_call()).unwrap();
        swapper.join().unwrap();
        // The racing query either counted against the dead generation or
        // against the new one — never more than once.
        let settled = service.refinement_report().total_queries;
        assert!(
            settled <= 1,
            "the racing query counted {settled} times against the new generation"
        );
        // A fresh query after the race must land in the served generation's
        // counters: if it bumped a counter block no published handle owns,
        // its count would be silently lost to every future refinement report.
        service.predict_call(&trsm_call()).unwrap();
        let after = service.refinement_report().total_queries;
        assert_eq!(
            after,
            settled + 1,
            "a post-swap query's count was orphaned by the swap"
        );
    });
}

/// Invariant: hot-swap never serves a torn generation.  A reader's handle
/// always pairs the generation number with exactly the repository published
/// under it — generation 0 is the (empty) seed, generation 1 the (non-empty)
/// replacement — in every interleaving with the racing swap.
#[test]
fn hot_swap_never_serves_torn_state() {
    let machine = harpertown_openblas();
    let swapped = repo_with(Routine::Trsm, &machine.id());
    interleave::model(|| {
        let service = Arc::new(ModelService::new(
            ModelRepository::new(),
            machine.clone(),
            Locality::InCache,
        ));
        let writer_service = Arc::clone(&service);
        let repo = swapped.clone();
        let writer = interleave::thread::spawn(move || {
            writer_service.swap(repo).unwrap();
        });
        let published = service.published();
        assert_eq!(
            published.generation() == 1,
            !published.compiled().is_empty(),
            "generation {} served with the wrong repository",
            published.generation()
        );
        assert_eq!(
            published.generation() == 1,
            published.predictor().predict_call(&trsm_call()).is_ok(),
            "generation {} answered from the wrong models",
            published.generation()
        );
        writer.join().unwrap();
        assert_eq!(service.published().generation(), 1);
    });
}

/// Invariant: merge-during-swap linearizes.  Whatever the interleaving, the
/// outcome must be *some* serial order of the two operations: the swapped-in
/// repository always survives (a merge may never resurrect a replaced base),
/// and the merged-in model appears iff the merge serialized after the swap.
#[test]
fn merge_during_swap_linearizes() {
    let machine = harpertown_openblas();
    let machine_id = machine.id();
    let swap_repo = repo_with(Routine::Gemm, &machine_id);
    let merge_repo = repo_with(Routine::Trsm, &machine_id);
    interleave::model(|| {
        let service = Arc::new(ModelService::new(
            ModelRepository::new(),
            machine.clone(),
            Locality::InCache,
        ));
        let swapper_service = Arc::clone(&service);
        let repo = swap_repo.clone();
        let swapper = interleave::thread::spawn(move || {
            swapper_service.swap(repo).unwrap();
        });
        service.merge(merge_repo.clone()).unwrap();
        swapper.join().unwrap();
        assert_eq!(
            service.published().generation(),
            2,
            "each operation publishes exactly once"
        );
        let final_repo = service.snapshot();
        assert!(
            has(&final_repo, Routine::Gemm, &machine_id),
            "the swapped-in repository must survive every interleaving"
        );
        // merge-then-swap leaves {gemm}; swap-then-merge (including a merge
        // that started early and redid itself) leaves {gemm, trsm}.
        assert!(
            final_repo.len() == 1
                || (final_repo.len() == 2 && has(&final_repo, Routine::Trsm, &machine_id)),
            "not a serialization of swap and merge: {} models",
            final_repo.len()
        );
    });
}

/// Invariant: concurrent merges lose nothing.  The generation check under
/// the publication lock must make two racing merges both land, whichever
/// wins the lock.
#[test]
fn concurrent_merges_lose_nothing() {
    let machine = harpertown_openblas();
    let machine_id = machine.id();
    let merge_a = repo_with(Routine::Trsm, &machine_id);
    let merge_b = repo_with(Routine::Gemm, &machine_id);
    interleave::model(|| {
        let service = Arc::new(ModelService::new(
            ModelRepository::new(),
            machine.clone(),
            Locality::InCache,
        ));
        let merger_service = Arc::clone(&service);
        let repo = merge_a.clone();
        let merger = interleave::thread::spawn(move || {
            merger_service.merge(repo).unwrap();
        });
        service.merge(merge_b.clone()).unwrap();
        merger.join().unwrap();
        assert_eq!(service.published().generation(), 2);
        let final_repo = service.snapshot();
        assert!(
            has(&final_repo, Routine::Trsm, &machine_id)
                && has(&final_repo, Routine::Gemm, &machine_id),
            "a racing merge was lost"
        );
    });
}

/// Invariant: merge-during-predict linearizes.  A query for a routine present
/// in *every* generation must succeed in every interleaving with a racing
/// merge, and once the merge returns, both the old and the merged-in routine
/// are served.
#[test]
fn merge_during_predict_linearizes() {
    let machine = harpertown_openblas();
    let repo = repo_with(Routine::Trsm, &machine.id());
    let merged = repo_with(Routine::Trmm, &machine.id());
    interleave::model(|| {
        let service = Arc::new(ModelService::new(
            repo.clone(),
            machine.clone(),
            Locality::InCache,
        ));
        service.predict_call(&trsm_call()).unwrap();
        let merger_service = Arc::clone(&service);
        let other = merged.clone();
        let merger = interleave::thread::spawn(move || {
            merger_service.merge(other).unwrap();
        });
        // Trsm is in every generation: the racing query must never observe a
        // state in which it is unserved.
        service
            .predict_call(&trsm_call())
            .expect("a routine present before and after the merge must always be served");
        merger.join().unwrap();
        service
            .predict_call(&trsm_call())
            .expect("the pre-merge routine survives the merge");
        service
            .predict_call(&trmm_call())
            .expect("the merged-in routine is served once merge returns");
    });
}

/// Invariant: a report racing a counted query reads a valid serialization —
/// the query's count is either visible or not yet, never torn — and once
/// the query returns its count is settled exactly.
#[test]
fn report_races_predict_and_reads_a_serialization() {
    let machine = harpertown_openblas();
    let repo = repo_with(Routine::Trsm, &machine.id());
    interleave::model(|| {
        let service = Arc::new(ModelService::new(
            repo.clone(),
            machine.clone(),
            Locality::InCache,
        ));
        service.predict_call(&trsm_call()).unwrap();
        let reporter_service = Arc::clone(&service);
        let reporter =
            interleave::thread::spawn(move || reporter_service.refinement_report().total_queries);
        service.predict_call(&trsm_call()).unwrap();
        let racing_total = reporter.join().unwrap();
        assert!(
            (1..=2).contains(&racing_total),
            "racing report read {racing_total} queries"
        );
        // Both queries were counted by one thread: the settled total is
        // exact.
        assert_eq!(service.refinement_report().total_queries, 2);
    });
}

/// A repository whose only submodel carries a NaN coefficient — every
/// publication gate must reject it.
fn poisoned_repo(machine_id: &str) -> ModelRepository {
    use dla_model::{Polynomial, VectorPolynomial};
    let space = Region::new(vec![8, 8], vec![1024, 1024]);
    let nan_poly = Polynomial::new(2, vec![vec![0, 0]], vec![f64::NAN]).unwrap();
    let poly = VectorPolynomial::new(vec![nan_poly; 5]).unwrap();
    let region = RegionModel {
        region: space.clone(),
        poly,
        error: 0.0,
        samples_used: 1,
        revision: 0,
    };
    let pw = PiecewiseModel::new(space.clone(), vec![region], 1);
    let mut model = RoutineModel::new(Routine::Trsm, machine_id, Locality::InCache, space);
    model.insert_submodel(FlagKey::from_slice(&[0, 0, 0]).unwrap(), pw);
    let mut repo = ModelRepository::new();
    repo.insert(model);
    repo
}

/// Invariant: a rejected publication racing a query changes *nothing* the
/// query can observe — the served generation stays, the prediction stays
/// finite, and the health ledger accounts exactly one rejection with the
/// last good generation unchanged, in every interleaving.
#[test]
fn rejected_publish_racing_predict_keeps_serving_last_good_generation() {
    let machine = harpertown_openblas();
    let repo = repo_with(Routine::Trsm, &machine.id());
    let machine_id = machine.id();
    interleave::model(move || {
        let service = Arc::new(ModelService::new(
            repo.clone(),
            machine.clone(),
            Locality::InCache,
        ));
        let baseline = service.predict_call(&trsm_call()).unwrap();
        assert!(baseline.median.is_finite());
        let good_generation = service.health().last_good_generation;
        let publisher_service = Arc::clone(&service);
        let poisoned = poisoned_repo(&machine_id);
        let publisher = interleave::thread::spawn(move || {
            publisher_service
                .swap(poisoned)
                .expect_err("the NaN repository must be rejected")
        });
        // The racing query must keep answering the last good generation,
        // with the exact same finite summary.
        let raced = service.predict_call(&trsm_call()).unwrap();
        assert_eq!(raced, baseline, "a rejected publish leaked into serving");
        publisher.join().unwrap();
        // Settled: nothing was adopted, and the ledger accounts the refusal.
        let health = service.health();
        assert_eq!(health.publishes_rejected, 1);
        assert_eq!(
            health.last_good_generation, good_generation,
            "no publication was accepted"
        );
        assert_eq!(service.predict_call(&trsm_call()).unwrap(), baseline);
    });
}
