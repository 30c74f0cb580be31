//! Real-thread races over [`ModelService`]: reporting and swapping
//! concurrent with serving queries.
//!
//! These run under the normal cfg with OS threads and real contention —
//! the probabilistic complement of the exhaustive-but-bounded model suite in
//! `tests/interleave_service.rs` (which needs `--cfg interleave`).

use dla_blas::{Call, Diag, Routine, Side, Trans, Uplo};
use dla_machine::presets::harpertown_openblas;
use dla_machine::Locality;
use dla_mat::stats::Summary;
use dla_model::{FlagKey, ModelRepository, PiecewiseModel, Region, RegionModel, RoutineModel};
use dla_predict::ModelService;
use std::sync::Arc;

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

fn trsm_repo(machine_id: &str) -> ModelRepository {
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
    let mut model = RoutineModel::new(Routine::Trsm, machine_id, Locality::InCache, space);
    model.insert_submodel(FlagKey::from_slice(&[0, 0, 0]).unwrap(), pw);
    let mut repo = ModelRepository::new();
    repo.insert(model);
    repo
}

fn trsm_call(m: usize, n: usize) -> Call {
    Call::trsm(
        Side::Left,
        Uplo::Lower,
        Trans::NoTrans,
        Diag::NonUnit,
        m,
        n,
        1.0,
    )
}

/// Query threads hammer `predict_call` while the main thread takes reports
/// the whole time.  Every query must succeed, every report must be
/// internally consistent and bounded by the queries issued, and once the
/// workers are joined each further query counts exactly once.
#[test]
fn reports_race_serving_threads() {
    const THREADS: usize = 4;
    const QUERIES: usize = 500;

    let machine = harpertown_openblas();
    let service = Arc::new(ModelService::new(
        trsm_repo(&machine.id()),
        machine,
        Locality::InCache,
    ));

    let workers: Vec<_> = (0..THREADS)
        .map(|worker| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for i in 0..QUERIES {
                    // A handful of distinct calls per worker, all answered
                    // by the one region, so every worker races on one
                    // counter.
                    let m = 100 + 50 * ((worker + i) % 4);
                    service.predict_call(&trsm_call(m, 700)).unwrap();
                }
            })
        })
        .collect();

    // Race the reporter against the serving threads.  Only queries bump
    // the counters, so no report can exceed what all workers could have
    // issued.  (Counting is a relaxed load + store, so a stale store can
    // overwrite a racing increment: totals are bounded, not monotone.)
    for _ in 0..200 {
        let report = service.refinement_report();
        assert!(report.total_queries <= (THREADS * QUERIES) as u64);
        for cell in &report.cells {
            assert!(cell.queries > 0, "reported cells answered queries");
        }
        std::thread::yield_now();
    }
    for worker in workers {
        worker.join().unwrap();
    }

    // Quiesced: a single-threaded query counts exactly once.
    let settled = service.refinement_report().total_queries;
    assert!(settled > 0 && settled <= (THREADS * QUERIES) as u64);
    service.predict_call(&trsm_call(100, 700)).unwrap();
    assert_eq!(service.refinement_report().total_queries, settled + 1);
}

/// Swaps race serving threads: queries must never observe a torn service
/// (they may legitimately fail only while an *empty* repository is
/// installed — here every generation serves Trsm, so they must all succeed),
/// and each settled generation's report starts from a clean slate.
#[test]
fn swaps_race_serving_threads() {
    const THREADS: usize = 4;
    const QUERIES: usize = 300;

    let machine = harpertown_openblas();
    let machine_id = machine.id();
    let service = Arc::new(ModelService::new(
        trsm_repo(&machine_id),
        machine,
        Locality::InCache,
    ));

    let workers: Vec<_> = (0..THREADS)
        .map(|worker| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for i in 0..QUERIES {
                    let m = 100 + 50 * ((worker + i) % 4);
                    service.predict_call(&trsm_call(m, 700)).unwrap();
                }
            })
        })
        .collect();

    for _ in 0..30 {
        service.swap(trsm_repo(&machine_id)).unwrap();
        std::thread::yield_now();
    }
    for worker in workers {
        worker.join().unwrap();
    }

    // Quiesced: a fresh query after the last swap must be counted exactly
    // once on top of whatever the racing queries left in this generation —
    // the regression the model checker pinned down (see
    // `swap_racing_predict_never_orphans_telemetry`).
    let settled = service.refinement_report().total_queries;
    service.predict_call(&trsm_call(100, 700)).unwrap();
    assert_eq!(service.refinement_report().total_queries, settled + 1);
}
