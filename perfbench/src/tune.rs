//! `tune`: the paper's own use.  Set-up builds one harpertown trinv+sylv
//! repository into a `ModelService`; each op is one tuning request drawn
//! from a coarse (n, b) grid: rank the 4 trinv variants, rank the 16 sylv
//! variants, or sweep the 32 default block sizes for one trinv variant.
//! Requests share almost all their calls, so trace generation, the memo
//! cache and the batch trace path do most of the work; construction happens
//! only in set-up.

use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::SimExecutor;
use dla_core::modeler::{ModelingReport, OnlineRefiner};
use dla_core::predict::blocksize::{default_block_size_candidates, optimize_block_size_trinv};
use dla_core::predict::workloads::{rank_sylv_variants, rank_trinv_variants};
use dla_core::predict::{EfficiencyPrediction, ModelService, Predictor, TraceEvaluator};
use dla_core::{Locality, RefineOutcome, SylvVariant, TrinvVariant};

use crate::accuracy::{drifted, ranking_accuracy, refiner, refresh, round_counts};
use crate::models::{build_service, check_serial_build};
use crate::stats::{median, Draws};
use crate::trace::{self, TracedEvaluator};
use crate::{Deterministic, Finish};

const N_GRID: [usize; 7] = [256, 384, 512, 640, 768, 896, 1024];
const B_GRID: [usize; 4] = [32, 64, 96, 128];

/// Grid cycles per sample of the timed phase: 1008 ops, 10 of them beyond
/// p99.
const SAMPLE_CYCLES: u64 = 12;

/// Every this many ops, the request and the service's answer are kept and
/// re-answered by an uncached `Predictor` after the timed phase.
const CHECK_EVERY: u64 = 61;

/// Noise seeds of the simulated machine: the repository and the accuracy
/// probes are the same for every workload seed, which draws the requests.
const BUILD_SEED: u64 = 0x7e;
const PROBE_SEED: u64 = 0xacc;

/// The traffic sent to the copy of the served repository before each
/// refresh round.
const ROUND_TRAFFIC: [Request; 4] = [
    Request::RankTrinv { n: 512, b: 64 },
    Request::RankTrinv { n: 640, b: 64 },
    Request::RankTrinv { n: 768, b: 96 },
    Request::Sweep {
        variant: TrinvVariant::V3,
        n: 896,
    },
];

#[derive(Debug, Clone, Copy)]
enum Request {
    RankTrinv { n: usize, b: usize },
    RankSylv { n: usize, b: usize },
    Sweep { variant: TrinvVariant, n: usize },
}

#[derive(Debug, PartialEq)]
enum Answer {
    Trinv(Vec<(TrinvVariant, EfficiencyPrediction)>),
    Sylv(Vec<(SylvVariant, EfficiencyPrediction)>),
    Sweep(Vec<(usize, EfficiencyPrediction)>, usize),
}

impl Answer {
    fn medians(&self) -> Vec<f64> {
        match self {
            Answer::Trinv(r) => r.iter().map(|p| p.1.median).collect(),
            Answer::Sylv(r) => r.iter().map(|p| p.1.median).collect(),
            Answer::Sweep(c, _) => c.iter().map(|p| p.1.median).collect(),
        }
    }
}

/// Every request of the grid: both rankings at each (n, b), and a sweep of
/// each trinv variant at each n.
fn grid() -> Vec<Request> {
    let mut requests = Vec::new();
    for &n in &N_GRID {
        for &b in &B_GRID {
            requests.push(Request::RankTrinv { n, b });
            requests.push(Request::RankSylv { n, b });
        }
        for &variant in &TrinvVariant::ALL {
            requests.push(Request::Sweep { variant, n });
        }
    }
    requests
}

fn answer<E: TraceEvaluator>(evaluator: &E, request: Request) -> Result<Answer, String> {
    let answer = match request {
        Request::RankTrinv { n, b } => {
            Answer::Trinv(rank_trinv_variants(evaluator, n, b).map_err(|e| e.to_string())?)
        }
        Request::RankSylv { n, b } => {
            Answer::Sylv(rank_sylv_variants(evaluator, n, b).map_err(|e| e.to_string())?)
        }
        Request::Sweep { variant, n } => {
            let sweep =
                optimize_block_size_trinv(evaluator, variant, n, &default_block_size_candidates())
                    .map_err(|e| e.to_string())?;
            Answer::Sweep(sweep.candidates, sweep.evaluated_calls)
        }
    };
    Ok(answer)
}

pub struct Tune {
    seed: u64,
    service: Option<ModelService>,
    reports: Vec<ModelingReport>,
    checked: Vec<(Request, Answer)>,
    grid: Vec<Request>,
    /// A copy of the served repository and a refiner that measures the
    /// drifted machine.  Refresh rounds run on the copy, between samples, so
    /// the tuning service itself stays read-only.
    shadow: Option<(ModelService, OnlineRefiner<SimExecutor>)>,
    refresh_ms: Vec<f64>,
    rounds: Vec<RefineOutcome>,
    /// The current cycle's order through the grid: every cycle visits each
    /// request once, in an order drawn from the seed, so every stretch of
    /// the run has the same mix of light and heavy requests.
    order: Vec<usize>,
}

impl Tune {
    pub fn new(seed: u64) -> Tune {
        Tune {
            seed,
            service: None,
            reports: Vec::new(),
            checked: Vec::new(),
            grid: grid(),
            shadow: None,
            refresh_ms: Vec::new(),
            rounds: Vec::new(),
            order: Vec::new(),
        }
    }
}

impl crate::Workload for Tune {
    fn setup(&mut self) -> Result<(), String> {
        self.service = None;
        let (service, reports) =
            build_service(&harpertown_openblas(), Locality::InCache, BUILD_SEED);
        self.service = Some(service);
        self.reports = reports;
        self.shadow = None;
        Ok(())
    }

    fn op(&mut self, i: u64) -> Result<bool, String> {
        let service = self.service.as_ref().ok_or("no service")?;
        if i.is_multiple_of(self.grid.len() as u64) {
            self.order =
                Draws::new(self.seed, i / self.grid.len() as u64).permutation(self.grid.len());
        }
        let request = self.grid[self.order[(i % self.grid.len() as u64) as usize]];
        let Ok(answer) = answer(&TracedEvaluator::new(service), request) else {
            return Ok(false);
        };
        let medians = answer.medians();
        if medians.is_empty() || medians.iter().any(|m| !m.is_finite() || *m <= 0.0) {
            return Err(format!("op {i}: {request:?} answered {answer:?}"));
        }
        if i.is_multiple_of(CHECK_EVERY) {
            self.checked.push((request, answer));
        }
        Ok(true)
    }

    /// One refresh round on the copy, after `ROUND_TRAFFIC`.  Every round
    /// refines 14–16 cells and publishes; rounds spread over the whole run,
    /// so bursts of host contention reach few of them.
    fn after_sample(&mut self) -> Result<(), String> {
        let service = self.service.as_ref().ok_or("no service")?;
        let (copy, refiner) = self.shadow.get_or_insert_with(|| {
            let machine = service.machine();
            let copy = ModelService::new(
                (*service.snapshot()).clone(),
                machine.clone(),
                Locality::InCache,
            );
            let executor = SimExecutor::new(drifted(machine), PROBE_SEED ^ 1);
            (copy, refiner(executor, Locality::InCache))
        });
        for request in ROUND_TRAFFIC {
            answer(copy, request)?;
        }
        let start = trace::now();
        self.rounds.push(refresh(copy, refiner)?);
        self.refresh_ms.push((trace::now() - start) as f64 / 1e6);
        Ok(())
    }

    fn finish(&mut self) -> Result<Finish, String> {
        let service = self.service.as_ref().ok_or("no service")?;
        let machine = service.machine().clone();
        check_serial_build(service, BUILD_SEED)?;
        let predictor = Predictor::shared(service.snapshot(), machine.clone(), Locality::InCache);
        for (request, served) in &self.checked {
            let direct = answer(&predictor, *request)?;
            if &direct != served {
                return Err(format!(
                    "{request:?}: service answered {served:?}, predictor {direct:?}"
                ));
            }
        }
        let accuracy = ranking_accuracy(service, &machine, Locality::InCache, PROBE_SEED)?;
        let samples: usize = self.reports.iter().map(|r| r.samples).sum();
        let regions: usize = self.reports.iter().map(|r| r.regions).sum();
        Ok(Finish {
            deterministic: Deterministic {
                pred_err_med: median(&accuracy.trace_errors),
                rank_tau: accuracy.rank_tau(),
                bs_regret: accuracy.bs_regret(),
                build_samples: samples as f64,
            },
            refresh_ms: self.refresh_ms.clone(),
            counts: [
                ("modeler.samples", samples as f64),
                ("modeler.regions", regions as f64),
            ]
            .into_iter()
            .chain(round_counts(&self.rounds))
            .collect(),
        })
    }

    /// Whole grid cycles, so every sample holds the same requests.
    fn sample(&self) -> (u64, f64) {
        (SAMPLE_CYCLES * self.grid.len() as u64, 99.0)
    }
}
