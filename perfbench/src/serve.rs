//! `serve`: the service layer `tune` uses read-only, now behind a fleet,
//! with little reuse and with writes that invalidate its state.
//!
//! Set-up builds trinv+sylv repositories for three machines, takes each
//! through `binfmt` encode → decode → `swap_compiled`, and makes them the
//! shards of a `FleetService` with a fixed fault schedule: attempt timeouts
//! on every shard and outage windows on one.  Harpertown's true machine has
//! drifted after its models were built.  Each op predicts the runtime of a
//! random trinv/sylv variant at an integer-granular n on a random machine,
//! sending its trace call by call through `FleetService::query`.  Every
//! `REFRESH_EVERY` ops a refresh round runs inline against the drifted
//! machine.  The batch trace path is not used here.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use dla_core::algos::{sylv_trace, trinv_trace};
use dla_core::blas::flops::is_empty_call;
use dla_core::blas::{Diag, Side, Trans, Uplo};
use dla_core::machine::presets::{
    harpertown_openblas, sandy_bridge_openblas, sandy_bridge_openblas_threaded,
};
use dla_core::machine::{derive_stream_seed, ChaosConfig, SimExecutor};
use dla_core::mat::stats::Summary;
use dla_core::model::{binfmt, ModelError, Result as ModelResult};
use dla_core::modeler::ModelingReport;
use dla_core::modeler::OnlineRefiner;
use dla_core::predict::{
    ChaosShard, FleetBuilder, FleetConfig, FleetQuery, FleetResponse, FleetService, Priority,
    Served, ServiceClient, ShardClient, TraceEvaluator,
};
use dla_core::{
    Call, Locality, MachineConfig, ModelRepository, ModelService, RefineOutcome, SylvVariant,
    TrinvVariant,
};

use crate::accuracy::{
    call_errors, drifted, ranking_accuracy, refiner, refresh, round_counts, RankingAccuracy,
};
use crate::models::build_models;
use crate::stats::{median, Draws};
use crate::trace::{self, span, span_counted, Layer, TracedClient, TracedExecutor};
use crate::{Deterministic, Finish};

const MACHINES: [fn() -> MachineConfig; 3] = [
    harpertown_openblas,
    sandy_bridge_openblas,
    sandy_bridge_openblas_threaded,
];

/// Ops between two refresh rounds.
const REFRESH_EVERY: u64 = 2000;
/// Ops right after a publish whose shard calls count as cold.
const COLD_OPS: u64 = 8;
/// The traced pass records layer spans in one op of this many (and in every
/// cold op).
const DETAIL_EVERY: u64 = 8;
/// Ops (and the refresh rounds among them) replayed on a fresh fleet before
/// the accuracy probes, so the probed state depends on the seed alone.
const REPLAY_OPS: u64 = 4 * REFRESH_EVERY;
const DEADLINE: u64 = 600;
/// Noise seeds of the simulated machines: the repositories, the refiner's
/// measurements and the accuracy probes are the same for every workload
/// seed, which draws the requests.
const BUILD_SEED: u64 = 0x5e0;
const PROBE_SEED: u64 = 0xacc;
const B_GRID: [usize; 3] = [16, 32, 48];

/// The machine shard `k`'s answers should describe: harpertown has drifted.
fn truth(k: usize) -> MachineConfig {
    let machine = MACHINES[k]();
    if k == 0 {
        drifted(&machine)
    } else {
        machine
    }
}

/// The offline sweep the fleet calibrates cross-machine proxy ratios on.
fn calibration_calls() -> Vec<Call> {
    let mut calls = Vec::new();
    for &m in &[16usize, 48, 112, 208, 352, 512] {
        for &n in &[24usize, 96, 240, 448] {
            calls.push(Call::trmm(
                Side::Right,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                m,
                n,
                1.0,
            ));
            calls.push(Call::trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                m,
                n,
                1.0,
            ));
            calls.push(Call::trsm(
                Side::Right,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                m,
                n,
                1.0,
            ));
            calls.push(Call::gemm(
                Trans::NoTrans,
                Trans::NoTrans,
                m,
                n,
                96,
                1.0,
                1.0,
            ));
            calls.push(Call::sylv_unb(m.min(128), n.min(128)));
        }
        calls.push(Call::trtri_unb(Uplo::Lower, Diag::NonUnit, m.min(128)));
    }
    calls
}

/// Fleet answers counted by tag.
#[derive(Default)]
struct Tally {
    queries: u64,
    fresh: u64,
    stale: u64,
    proxied: u64,
    shed: u64,
    attempts: u64,
}

impl Tally {
    /// Counts one response; fails if it is untagged or not finite.
    fn count(&mut self, response: &FleetResponse) -> Result<(), String> {
        self.queries += 1;
        let mut attempts = response.timeouts + response.errors;
        match &response.served {
            Served::Fresh { .. } => {
                self.fresh += 1;
                attempts += 1;
            }
            Served::Stale { .. } => self.stale += 1,
            Served::Proxied { .. } => {
                self.proxied += 1;
                attempts += 1;
            }
            Served::Shed { .. } => self.shed += 1,
        }
        self.attempts += attempts;
        match (&response.summary, response.served.is_answer()) {
            (Some(s), true) if s.median.is_finite() && s.mean.is_finite() => Ok(()),
            (None, false) => Ok(()),
            _ => Err(format!("malformed fleet response {response:?}")),
        }
    }

    fn ratio(&self, n: u64) -> f64 {
        n as f64 / self.queries as f64
    }
}

/// The fleet and everything around it.
struct FleetState {
    fleet: FleetService,
    services: Vec<Arc<ModelService>>,
    /// One reusable query per machine (the id and call change per query).
    queries: RefCell<Vec<FleetQuery>>,
    next_id: Cell<u64>,
    refiner: OnlineRefiner<TracedExecutor<SimExecutor>>,
}

impl FleetState {
    /// Loads the encoded repositories into a fresh fleet.  Its shard
    /// clients and refiner sit behind the seam wrappers, which only forward
    /// while tracing is off.
    fn load(encoded: &[Vec<u8>], seed: u64) -> Result<FleetState, String> {
        let config = FleetConfig {
            seed: 0xF1EE_7D3B,
            calibration_calls: calibration_calls(),
            ..FleetConfig::default()
        };
        let mut builder = FleetBuilder::new(config.clone());
        let mut services = Vec::new();
        for (k, bytes) in encoded.iter().enumerate() {
            let compiled =
                span(Layer::Decode, || binfmt::decode(bytes)).map_err(|e| e.to_string())?;
            let service = Arc::new(ModelService::new(
                ModelRepository::new(),
                MACHINES[k](),
                Locality::InCache,
            ));
            span(Layer::Swap, || service.swap_compiled(Arc::new(compiled)))
                .map_err(|e| e.to_string())?;
            let schedule = ChaosConfig {
                seed: 0xC4A0_5000 + k as u64,
                timeout_probability: 0.05,
                outage_probability: if k == 1 { 0.01 } else { 0.0 },
                outage_draws: 24,
                ..ChaosConfig::default()
            };
            let client = ServiceClient::new(Arc::clone(&service), config.nominal_cost);
            let shard: Arc<dyn ShardClient> =
                Arc::new(ChaosShard::new(TracedClient::new(client), schedule));
            builder = builder.shard_with_client(Arc::clone(&service), shard);
            services.push(service);
        }
        let fleet = span(Layer::FleetBuild, || builder.build()).map_err(|e| e.to_string())?;
        let queries = services
            .iter()
            .map(|s| FleetQuery {
                id: 0,
                machine_id: s.machine().id(),
                call: Call::sylv_unb(8, 8),
                deadline: DEADLINE,
                priority: Priority::Normal,
            })
            .collect();
        let executor = TracedExecutor::new(SimExecutor::new(truth(0), PROBE_SEED ^ 1));
        let refiner = refiner(executor, Locality::InCache);
        let state = FleetState {
            fleet,
            services,
            queries: RefCell::new(queries),
            next_id: Cell::new(derive_stream_seed(seed, 0x1d) >> 16),
            refiner,
        };
        // Every shard answers once before traffic, so each holds a last-good
        // snapshot to fall back on.
        for k in 0..MACHINES.len() {
            state.query(
                k,
                &Call::trsm(
                    Side::Left,
                    Uplo::Lower,
                    Trans::NoTrans,
                    Diag::NonUnit,
                    64,
                    64,
                    1.0,
                ),
            )?;
        }
        Ok(state)
    }

    fn query(&self, machine: usize, call: &Call) -> Result<FleetResponse, String> {
        let mut queries = self.queries.borrow_mut();
        let query = &mut queries[machine];
        query.id = self.next_id.get();
        self.next_id.set(query.id + 1);
        query.call.clone_from(call);
        self.fleet.query(query).map_err(|e| e.to_string())
    }

    /// Op `i`: one trace request.  Returns whether every call was answered.
    fn op(&self, seed: u64, i: u64, tally: &mut Tally) -> Result<bool, String> {
        let mut d = Draws::new(seed, 0x5e7e_0000_0000 + i);
        let machine = d.below(MACHINES.len());
        let n = d.range(64, 512);
        let b = B_GRID[d.below(B_GRID.len())];
        let trinv = d.below(2) == 0;
        let variant = d.below(16);
        let trace = span_counted(
            Layer::Trace,
            || {
                if trinv {
                    trinv_trace(TrinvVariant::ALL[variant % 4], n, b, n)
                } else {
                    let v = SylvVariant::new(variant + 1).expect("variant index in 1..=16");
                    sylv_trace(v, n, n, b, n)
                }
            },
            |t| t.len() as u64,
        );
        span_counted(
            Layer::FleetRequest,
            || -> Result<(bool, u64), String> {
                let mut answered = true;
                let mut ticks = Summary::zero();
                let mut queries = 0;
                for call in trace.iter().filter(|c| !is_empty_call(c)) {
                    let response = self.query(machine, call)?;
                    tally.count(&response)?;
                    queries += 1;
                    match &response.summary {
                        Some(s) => ticks.accumulate(s),
                        None => answered = false,
                    }
                }
                if answered && !(ticks.median > 0.0 && ticks.median.is_finite()) {
                    return Err(format!("op {i}: predicted {ticks:?}"));
                }
                Ok((answered, queries))
            },
            |r| r.as_ref().map_or(0, |r| r.1),
        )
        .map(|(answered, _)| answered)
    }

    /// One refresh round of the harpertown shard.
    fn refresh(&mut self) -> Result<RefineOutcome, String> {
        refresh(&self.services[0], &mut self.refiner)
    }
}

/// Predicts traces through the fleet, call by call, for one machine.
struct FleetEvaluator<'a> {
    state: &'a FleetState,
    machine: usize,
}

impl TraceEvaluator for FleetEvaluator<'_> {
    fn machine(&self) -> &MachineConfig {
        self.state.services[self.machine].machine()
    }

    fn predict_call(&self, call: &Call) -> ModelResult<Summary> {
        let response = self
            .state
            .query(self.machine, call)
            .map_err(ModelError::MissingSubmodel)?;
        response
            .summary
            .ok_or_else(|| ModelError::MissingSubmodel(format!("shed: {:?}", response.served)))
    }
}

pub struct Serve {
    seed: u64,
    encoded: Vec<Vec<u8>>,
    reports: Vec<ModelingReport>,
    state: Option<FleetState>,
    tally: Tally,
    last_op: u64,
    cold_until: u64,
    refresh_ms: Vec<f64>,
    rounds: Vec<RefineOutcome>,
}

impl Serve {
    pub fn new(seed: u64) -> Serve {
        Serve {
            seed,
            encoded: Vec::new(),
            reports: Vec::new(),
            state: None,
            tally: Tally::default(),
            last_op: 0,
            cold_until: 0,
            refresh_ms: Vec::new(),
            rounds: Vec::new(),
        }
    }
}

impl crate::Workload for Serve {
    fn setup(&mut self) -> Result<(), String> {
        self.state = None;
        self.encoded.clear();
        self.reports.clear();
        for (k, machine) in MACHINES.iter().enumerate() {
            let machine = machine();
            let seed = derive_stream_seed(BUILD_SEED, k as u64);
            let (repository, reports) = build_models(&machine, Locality::InCache, seed);
            let compiled = span(Layer::Compile, || repository.compiled());
            let bytes = span_counted(
                Layer::Encode,
                || binfmt::encode(&compiled),
                |b| b.as_ref().map_or(0, |b| b.len() as u64),
            )
            .map_err(|e| e.to_string())?;
            self.encoded.push(bytes);
            self.reports.extend(reports);
        }
        self.state = Some(FleetState::load(&self.encoded, self.seed)?);
        Ok(())
    }

    fn op(&mut self, i: u64) -> Result<bool, String> {
        self.last_op = i;
        let state = self.state.as_ref().ok_or("no fleet")?;
        state.op(self.seed, i, &mut self.tally)
    }

    fn round_after(&self, i: u64) -> bool {
        (i + 1).is_multiple_of(REFRESH_EVERY)
    }

    fn round(&mut self) -> Result<(), String> {
        let state = self.state.as_mut().ok_or("no fleet")?;
        let start = trace::now();
        let round = state.refresh()?;
        self.refresh_ms.push((trace::now() - start) as f64 / 1e6);
        if round.cells_refined > 0 {
            self.cold_until = self.last_op + 1 + COLD_OPS;
        }
        self.rounds.push(round);
        Ok(())
    }

    fn detail(&self, i: u64) -> (bool, u64) {
        if i < self.cold_until {
            (true, 1)
        } else {
            (i.is_multiple_of(DETAIL_EVERY), 0)
        }
    }

    fn finish(&mut self) -> Result<Finish, String> {
        if self.rounds.is_empty() {
            return Err("the timed phase ended before the first refresh round".into());
        }
        let mut replay = FleetState::load(&self.encoded, self.seed)?;
        let mut tally = Tally::default();
        for i in 0..REPLAY_OPS {
            replay.op(self.seed, i, &mut tally)?;
            if (i + 1).is_multiple_of(REFRESH_EVERY) {
                replay.refresh()?;
            }
        }
        let mut errors = Vec::new();
        let mut ranking = RankingAccuracy::default();
        for k in 0..MACHINES.len() {
            let truth = truth(k);
            errors.extend(call_errors(&truth, Locality::InCache, |call| {
                let response = replay.query(k, call)?;
                response
                    .summary
                    .ok_or_else(|| format!("probe shed: {:?}", response.served))
            })?);
            let evaluator = FleetEvaluator {
                state: &replay,
                machine: k,
            };
            let seed = derive_stream_seed(PROBE_SEED, k as u64);
            ranking.extend(ranking_accuracy(
                &evaluator,
                &truth,
                Locality::InCache,
                seed,
            )?);
        }
        let t = &self.tally;
        let mut counts = vec![
            (
                "modeler.samples",
                self.reports.iter().map(|r| r.samples).sum::<usize>() as f64
                    / MACHINES.len() as f64,
            ),
            (
                "modeler.regions",
                self.reports.iter().map(|r| r.regions).sum::<usize>() as f64
                    / MACHINES.len() as f64,
            ),
            ("predict.fleet.attempts_per_query", t.ratio(t.attempts)),
            ("predict.fleet.fresh_ratio", t.ratio(t.fresh)),
            ("predict.fleet.stale_ratio", t.ratio(t.stale)),
            ("predict.fleet.proxied_ratio", t.ratio(t.proxied)),
            ("predict.fleet.shed_ratio", t.ratio(t.shed)),
        ];
        counts.extend(round_counts(&self.rounds));
        Ok(Finish {
            deterministic: Deterministic {
                pred_err_med: median(&errors),
                rank_tau: ranking.rank_tau(),
                bs_regret: ranking.bs_regret(),
                build_samples: self.reports.iter().map(|r| r.samples).sum::<usize>() as f64
                    / MACHINES.len() as f64,
            },
            refresh_ms: self.refresh_ms.clone(),
            counts,
        })
    }

    /// One refresh period with its round: 2000 ops, 10 of them beyond p99.5.
    fn sample(&self) -> (u64, f64) {
        (REFRESH_EVERY, 99.5)
    }
}
