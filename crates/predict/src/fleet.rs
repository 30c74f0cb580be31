//! The fleet serving tier: health-routed shards, deadlines/retries, and
//! degraded-mode prediction.
//!
//! A [`FleetService`] owns one [`ModelService`] **shard** per machine preset
//! (Harpertown, Sandy Bridge, their threaded variants, …), routed by a scan
//! of the shards' machine ids (a fleet holds a handful; build rejects a
//! repeated id), so the same query always lands on the same shard.  Every
//! query carries a **deadline budget** in deterministic virtual cost units;
//! against that budget the fleet runs a layered defence:
//!
//! 1. **Bounded retry.**  Shard calls get at most two retries with seeded
//!    exponential backoff plus deterministic jitter — the schedule is a pure
//!    function of `(fleet seed, query id, attempt)`, so it is reproducible
//!    across runs *and across worker counts*.
//! 2. **Circuit breaking.**  A per-shard [`CircuitBreaker`] driven by query
//!    failures (timeouts, unavailability, over-budget or corrupt replies; a
//!    definitive [`ShardError::Failed`] is the call's fault, not the
//!    shard's) and by the shard's [`ServiceHealth`] ledger (rejected
//!    publishes; see [`FleetService::apply_ledger_pressure`]) trips
//!    Healthy → Degraded → Down, with half-open probing after a cooldown:
//!    exactly one query wins the probe slot, everyone else is rejected
//!    without touching the shard.
//! 3. **Degraded serving.**  When the direct path fails or is not admitted,
//!    the query is answered from the shard's retained **last-good
//!    generation** ([`LastGoodSnapshot`]) if one exists ([`Served::Stale`]);
//!    otherwise it is
//!    **proxied** through the nearest healthy machine's model, scaled by a
//!    calibrated cross-machine efficiency ratio ([`Served::Proxied`]) — the
//!    paper's cross-platform transfer result (fig. IV.3/IV.4) turned into a
//!    failover path.  Only when every layer is exhausted is the query shed
//!    ([`Served::Shed`]), and even that is a tagged answer, not an error.
//!
//! Every retry, timeout, error, trip, recovery, probe and shed is accounted
//! in the [`FleetHealth`] roll-up, which also drives the **refinement budget
//! arbitration** ([`FleetService::arbitrate_refinement_budget`]): the shared
//! sampling budget is apportioned toward the shard whose drift × traffic
//! pressure is worst, closing the loop back into each shard's
//! [`OnlineRefiner`](dla_modeler::OnlineRefiner) via
//! [`set_sample_budget`](dla_modeler::OnlineRefiner::set_sample_budget).
//!
//! Fault injection mirrors the measurement layer's
//! [`ChaosExecutor`](dla_machine::ChaosExecutor): a [`ChaosShard`] wraps any
//! [`ShardClient`] and injects timeouts, hard outages and slow phases from
//! the same [`ChaosConfig`] schedule vocabulary, with **stateless** draws
//! keyed by `(seed, query id, attempt)` so concurrency never changes which
//! query sees which fault.
//!
//! Concurrency primitives come from the [`dla_model::sync`] facade: under
//! `--cfg interleave` the breaker word and the last-good slot run on the
//! vendored model checker's shims (see `tests/interleave_fleet.rs`).

use std::collections::HashMap;

use dla_blas::{Call, Routine};
use dla_machine::{derive_stream_seed, ChaosConfig, FaultCounts};
use dla_mat::stats::Summary;
use dla_model::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use dla_model::sync::{Arc, RwLock};

use crate::health::ServiceHealth;
use crate::predictor::Predictor;
use crate::service::{ModelService, Published};

// ---------------------------------------------------------------------------
// Queries and responses
// ---------------------------------------------------------------------------

/// Caller-declared priority of a fleet query.  The fleet does not read it:
/// every query runs the same degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background traffic (sweeps, speculative rankings).
    Low,
    /// Ordinary interactive traffic.
    #[default]
    Normal,
    /// Traffic the caller marks as urgent.
    High,
}

/// One prediction query against the fleet.
#[derive(Debug, Clone)]
pub struct FleetQuery {
    /// Caller-assigned query id.  The id seeds the query's backoff and
    /// chaos streams, so reissuing the same id reproduces the exact same
    /// schedule regardless of how many workers drive the fleet.
    pub id: u64,
    /// The machine whose model should answer (routes to a shard).
    pub machine_id: String,
    /// The routine call to predict.
    pub call: Call,
    /// Total budget for this query, in virtual cost units.  Attempts,
    /// backoff pauses and degraded-mode evaluation all spend from it.
    pub deadline: u64,
    /// Caller-declared priority; unread by the fleet.
    pub priority: Priority,
}

/// How a fleet answer was produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Served {
    /// The shard's live model answered within budget.
    Fresh {
        /// Repository generation whose models produced the answer (the
        /// shard's [`ShardReply::generation`]).
        generation: u64,
    },
    /// The shard failed or was not admitted; the answer came from its
    /// retained last-good compiled snapshot.
    Stale {
        /// Generation of the retained snapshot.
        generation: u64,
    },
    /// The shard had no usable snapshot; the answer came from another
    /// machine's model, scaled by the calibrated efficiency ratio.
    Proxied {
        /// Machine id of the shard that actually answered.
        via: String,
        /// Applied scale factor (target ticks ÷ proxy ticks).
        ratio: f64,
    },
    /// Every serving layer was exhausted; no prediction was produced.
    Shed {
        /// Why the query was shed.
        reason: ShedReason,
    },
}

impl Served {
    /// Returns `true` when a prediction was produced (anything but shed).
    pub fn is_answer(&self) -> bool {
        !matches!(self, Served::Shed { .. })
    }
}

/// Why a query was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The deadline budget ran out before any layer could answer.
    DeadlineExhausted,
    /// Direct, stale and every proxy candidate failed within budget.
    NoFallback,
}

/// The fleet's answer to one [`FleetQuery`].
#[derive(Debug, Clone)]
pub struct FleetResponse {
    /// The prediction, absent only when [`Served::Shed`].
    pub summary: Option<Summary>,
    /// How the answer was produced.
    pub served: Served,
    /// Backoff-retries performed across direct and proxy attempts.
    pub retries: u64,
    /// Attempts that overran their per-attempt budget.
    pub timeouts: u64,
    /// Attempts that errored (unavailable shard, corrupt or failed reply).
    pub errors: u64,
    /// Virtual cost units spent answering (≤ the deadline).
    pub elapsed: u64,
}

/// Errors a fleet query can raise (everything else degrades to a tagged
/// [`FleetResponse`] instead of failing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// No shard serves the requested machine id.
    UnknownMachine(String),
    /// A fleet cannot be built with zero shards.
    EmptyFleet,
    /// Two shards were registered for the same machine id.
    DuplicateMachine(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownMachine(id) => write!(f, "no shard serves machine '{id}'"),
            FleetError::EmptyFleet => write!(f, "a fleet needs at least one shard"),
            FleetError::DuplicateMachine(id) => {
                write!(f, "machine '{id}' is registered twice")
            }
        }
    }
}

impl std::error::Error for FleetError {}

// ---------------------------------------------------------------------------
// Retry schedule
// ---------------------------------------------------------------------------

/// Retries after the first shard attempt.
const MAX_RETRIES: u32 = 2;

/// Base backoff pause, in virtual cost units.
const BACKOFF_BASE: u64 = 4;

/// Upper bound on the exponential part of the pause.
const BACKOFF_CAP: u64 = 32;

/// Maximum additive jitter (inclusive).
const BACKOFF_JITTER: u64 = 3;

/// The pause before retrying after failed attempt `attempt` (0-based), for
/// the query whose backoff stream is seeded by `stream_seed`:
/// `min(BACKOFF_BASE · 2^attempt, BACKOFF_CAP) + jitter_draw`, where
/// `jitter_draw ∈ [0, BACKOFF_JITTER]` is a pure function of the seed and the
/// attempt index — no shared RNG state, so schedules are identical no matter
/// how many workers run queries concurrently.
fn backoff(stream_seed: u64, attempt: u32) -> u64 {
    let exponential = BACKOFF_BASE
        .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
        .min(BACKOFF_CAP);
    // The splitmix64 finaliser behind `derive_stream_seed` scrambles the
    // attempt index into an independent draw; modulo bias over a span of
    // a few units is irrelevant for a pause length.
    let draw = derive_stream_seed(stream_seed, 0x6a09_e667_f3bc_c909 ^ u64::from(attempt));
    exponential + draw % (BACKOFF_JITTER + 1)
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failed queries that trip Healthy → Degraded.
    pub degraded_threshold: u32,
    /// Further consecutive failed queries that trip Degraded → Down.
    pub down_threshold: u32,
    /// Queries rejected while Down before one half-open probe is admitted.
    pub cooldown: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            degraded_threshold: 2,
            down_threshold: 4,
            cooldown: 8,
        }
    }
}

/// Breaker states, in order of escalation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Serving normally.
    Healthy,
    /// Accumulating failures; still admitting queries.
    Degraded,
    /// Rejecting queries except for half-open probes.
    Down,
}

/// What the breaker decided about one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Proceed normally.
    Allow,
    /// Proceed as the single half-open probe of a Down shard.
    Probe,
    /// Rejected; go straight to the degraded path.
    Reject,
}

/// Point-in-time breaker statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerStats {
    /// Current state.
    pub state: BreakerState,
    /// Healthy → Degraded transitions.
    pub trips_degraded: u64,
    /// Degraded → Down transitions.
    pub trips_down: u64,
    /// Transitions back to Healthy from a non-Healthy state.
    pub recoveries: u64,
    /// Half-open probes admitted while Down.
    pub probes: u64,
}

const STATE_HEALTHY: u64 = 0;
const STATE_DEGRADED: u64 = 1;
const STATE_DOWN: u64 = 2;
const STATE_MASK: u64 = 0b11;
const FAIL_SHIFT: u32 = 2;
const FAIL_MASK: u64 = (1 << 30) - 1;
const COOL_SHIFT: u32 = 32;

fn pack(state: u64, failures: u64, cooldown: u64) -> u64 {
    state | ((failures & FAIL_MASK) << FAIL_SHIFT) | (cooldown << COOL_SHIFT)
}

/// A lock-free per-shard circuit breaker: Healthy → Degraded → Down on
/// consecutive failed queries, half-open probing after a cooldown.
///
/// The whole state machine lives in one packed word (`state | failures |
/// cooldown`) advanced by compare-exchange, so concurrent recorders can
/// never tear a transition: for any interleaving, each trip and each
/// recovery is observed — and counted — exactly once, by the CAS winner
/// (model-checked in `tests/interleave_fleet.rs`).
#[derive(Debug)]
pub struct CircuitBreaker {
    word: AtomicU64,
    trips_degraded: AtomicU64,
    trips_down: AtomicU64,
    recoveries: AtomicU64,
    probes: AtomicU64,
}

impl Default for CircuitBreaker {
    fn default() -> CircuitBreaker {
        CircuitBreaker::new()
    }
}

impl CircuitBreaker {
    /// A healthy breaker with zeroed statistics.
    pub fn new() -> CircuitBreaker {
        CircuitBreaker {
            word: AtomicU64::new(pack(STATE_HEALTHY, 0, 0)),
            trips_degraded: AtomicU64::new(0),
            trips_down: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            probes: AtomicU64::new(0),
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        // ordering: Acquire pairs with the AcqRel transitions so a caller
        // that observes Down also observes the failure history that caused
        // it (the state is used to gate side effects, not just statistics).
        match self.word.load(Ordering::Acquire) & STATE_MASK {
            STATE_HEALTHY => BreakerState::Healthy,
            STATE_DEGRADED => BreakerState::Degraded,
            _ => BreakerState::Down,
        }
    }

    /// Decides whether one query may touch the shard.  While Down, each
    /// rejection spends one unit of cooldown; the query that finds the
    /// cooldown exhausted claims the **single** half-open probe slot (the
    /// CAS re-arms the cooldown, so concurrent callers are rejected until
    /// the probe resolves).
    pub fn admit(&self, config: &BreakerConfig) -> Admission {
        loop {
            // ordering: Acquire — the admit/transition CAS protocol: every
            // RMW below publishes with AcqRel, so this load observes the
            // latest committed state word before attempting to advance it.
            let word = self.word.load(Ordering::Acquire);
            if word & STATE_MASK != STATE_DOWN {
                return Admission::Allow;
            }
            let failures = (word >> FAIL_SHIFT) & FAIL_MASK;
            let cooldown = word >> COOL_SHIFT;
            let next = if cooldown > 0 {
                pack(STATE_DOWN, failures, cooldown - 1)
            } else {
                pack(STATE_DOWN, failures, u64::from(config.cooldown))
            };
            // ordering: AcqRel on success — the CAS both consumes the
            // observed word (Acquire) and publishes the decremented
            // cooldown / claimed probe slot (Release) so exactly one caller
            // can win the probe; Acquire on failure to retry on fresh state.
            if self
                .word
                .compare_exchange(word, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if cooldown > 0 {
                    return Admission::Reject;
                }
                // ordering: Relaxed — standalone statistic; the probe claim
                // itself was published by the CAS above.
                self.probes.fetch_add(1, Ordering::Relaxed);
                return Admission::Probe;
            }
        }
    }

    /// Records one successfully answered query: any state collapses back to
    /// Healthy, counting a recovery if the state actually changed.
    pub fn record_success(&self) {
        let healthy = pack(STATE_HEALTHY, 0, 0);
        loop {
            // ordering: Acquire — see the CAS protocol note in `admit`.
            let word = self.word.load(Ordering::Acquire);
            if word == healthy {
                return;
            }
            // ordering: AcqRel on success — publishes the reset so a racing
            // failure recorder starts from Healthy, not from stale failure
            // counts; Acquire on failure to retry on fresh state.
            if self
                .word
                .compare_exchange(word, healthy, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if word & STATE_MASK != STATE_HEALTHY {
                    // ordering: Relaxed — standalone statistic, incremented
                    // only by the CAS winner so each recovery counts once.
                    self.recoveries.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
        }
    }

    /// Records one failed query (one strike per query, not per attempt):
    /// Healthy escalates to Degraded after `degraded_threshold` consecutive
    /// strikes, Degraded to Down after `down_threshold` more; a strike while
    /// Down (a failed probe) re-arms the cooldown.
    pub fn record_failure(&self, config: &BreakerConfig) {
        loop {
            // ordering: Acquire — see the CAS protocol note in `admit`.
            let word = self.word.load(Ordering::Acquire);
            let state = word & STATE_MASK;
            let failures = (word >> FAIL_SHIFT) & FAIL_MASK;
            let (next, trip) = match state {
                STATE_HEALTHY => {
                    if failures + 1 >= u64::from(config.degraded_threshold.max(1)) {
                        (pack(STATE_DEGRADED, 0, 0), Some(BreakerState::Degraded))
                    } else {
                        (pack(STATE_HEALTHY, failures + 1, 0), None)
                    }
                }
                STATE_DEGRADED => {
                    if failures + 1 >= u64::from(config.down_threshold.max(1)) {
                        (
                            pack(STATE_DOWN, 0, u64::from(config.cooldown)),
                            Some(BreakerState::Down),
                        )
                    } else {
                        (pack(STATE_DEGRADED, failures + 1, 0), None)
                    }
                }
                _ => (pack(STATE_DOWN, failures, u64::from(config.cooldown)), None),
            };
            // ordering: AcqRel on success — publishes the transition so only
            // the CAS winner counts the trip below (exactly-once trip
            // accounting under races); Acquire on failure to retry.
            if self
                .word
                .compare_exchange(word, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                match trip {
                    Some(BreakerState::Degraded) => {
                        // ordering: Relaxed — standalone statistic, CAS
                        // winner only.
                        self.trips_degraded.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(BreakerState::Down) => {
                        // ordering: Relaxed — standalone statistic, CAS
                        // winner only.
                        self.trips_down.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
                return;
            }
        }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> BreakerStats {
        BreakerStats {
            state: self.state(),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            trips_degraded: self.trips_degraded.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            trips_down: self.trips_down.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            recoveries: self.recoveries.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            probes: self.probes.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Shard clients
// ---------------------------------------------------------------------------

/// One attempt's context, handed to a [`ShardClient`].
#[derive(Debug)]
pub struct ShardCall<'a> {
    /// The routine call to predict.
    pub call: &'a Call,
    /// The query's caller-assigned id (seeds per-query fault streams).
    pub query_id: u64,
    /// 0-based attempt index within this query.
    pub attempt: u32,
    /// Cost budget for this attempt; replies costing more are timeouts.
    pub budget: u64,
}

/// A successful shard answer.
#[derive(Debug, Clone)]
pub struct ShardReply {
    /// The prediction.
    pub summary: Summary,
    /// Virtual cost of producing it.
    pub cost: u64,
    /// Repository generation whose models produced `summary`; a fresh fleet
    /// answer carries it as its tag.
    pub generation: u64,
}

/// A failed shard attempt.  Every variant carries the cost the attempt
/// consumed before failing, so the deadline accounting stays exact.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// The shard could not be reached (retryable).
    Unavailable {
        /// Cost consumed before giving up.
        cost: u64,
    },
    /// The attempt overran its budget (retryable).
    Timeout {
        /// Cost consumed (≥ the attempt budget).
        cost: u64,
    },
    /// The shard answered with a definitive error — e.g. the call is outside
    /// the model space.  Not retryable: the same call will fail again.
    Failed {
        /// Why.
        reason: String,
        /// Cost consumed.
        cost: u64,
    },
}

impl ShardError {
    /// Cost the failed attempt consumed.
    pub fn cost(&self) -> u64 {
        match self {
            ShardError::Unavailable { cost }
            | ShardError::Timeout { cost }
            | ShardError::Failed { cost, .. } => *cost,
        }
    }
}

/// The call path to one shard.  Implementations must be deterministic in the
/// [`ShardCall`] context (same query id + attempt → same outcome) so fleet
/// behaviour is reproducible across worker counts.
pub trait ShardClient: Send + Sync {
    /// Runs one prediction attempt.
    fn predict(&self, call: &ShardCall<'_>) -> Result<ShardReply, ShardError>;
}

impl<C: ShardClient + ?Sized> ShardClient for Arc<C> {
    fn predict(&self, call: &ShardCall<'_>) -> Result<ShardReply, ShardError> {
        (**self).predict(call)
    }
}

/// The plain client: answers from the shard's live [`ModelService`] at a
/// fixed nominal cost.
#[derive(Debug)]
pub struct ServiceClient {
    service: Arc<ModelService>,
    cost: u64,
}

impl ServiceClient {
    /// Wraps `service`, charging `cost` units per answered attempt.
    pub fn new(service: Arc<ModelService>, cost: u64) -> ServiceClient {
        ServiceClient { service, cost }
    }
}

impl ShardClient for ServiceClient {
    fn predict(&self, call: &ShardCall<'_>) -> Result<ShardReply, ShardError> {
        match self.service.predict_call_tagged(call.call) {
            Ok((summary, generation)) => Ok(ShardReply {
                summary,
                cost: self.cost,
                generation,
            }),
            Err(err) => Err(ShardError::Failed {
                reason: err.to_string(),
                cost: self.cost,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos shard
// ---------------------------------------------------------------------------

/// Fault-injecting wrapper over any [`ShardClient`] — the serving-tier
/// sibling of [`ChaosExecutor`](dla_machine::ChaosExecutor), sharing its
/// [`ChaosConfig`] vocabulary:
///
/// * `transient_probability` → [`ShardError::Unavailable`],
/// * `timeout_probability` → [`ShardError::Timeout`] consuming the whole
///   attempt budget,
/// * `spike_probability` → a slow phase: the reply's cost is multiplied by
///   `spike_factor` (often pushing it over budget),
/// * `non_finite_probability` → a **corrupt reply**: the summary is poisoned
///   to NaN and must be caught by the fleet's reply validation,
/// * `outage_probability` → a hard outage window: this and the next
///   `outage_draws − 1` attempts are unavailable.
///
/// Per-attempt draws are **stateless**: a pure hash of `(seed, query id,
/// attempt)` via [`derive_stream_seed`], so which query hits which fault is
/// independent of thread interleaving.  Only outage windows keep state (an
/// atomic countdown), which stays deterministic under single-threaded
/// drivers such as the degradation example.
pub struct ChaosShard<C> {
    inner: C,
    config: ChaosConfig,
    outage_left: AtomicU64,
    forced_down: AtomicBool,
    transient: AtomicU64,
    timeouts: AtomicU64,
    spikes: AtomicU64,
    non_finite: AtomicU64,
    outages: AtomicU64,
    outage_lost: AtomicU64,
}

impl<C> std::fmt::Debug for ChaosShard<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosShard")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<C: ShardClient> ChaosShard<C> {
    /// Wraps `inner` with the fault schedule `config`.
    pub fn new(inner: C, config: ChaosConfig) -> ChaosShard<C> {
        ChaosShard {
            inner,
            config,
            outage_left: AtomicU64::new(0),
            forced_down: AtomicBool::new(false),
            transient: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            spikes: AtomicU64::new(0),
            non_finite: AtomicU64::new(0),
            outages: AtomicU64::new(0),
            outage_lost: AtomicU64::new(0),
        }
    }

    /// Forces every attempt to fail as unavailable (a hard shard outage),
    /// until cleared — the switch the chaos suites use to take a shard down
    /// without touching probabilities.
    pub fn set_forced_down(&self, down: bool) {
        // ordering: Relaxed — an independent test/chaos switch; attempts
        // observing it a moment late merely see one more/fewer fault, which
        // is within the injected-fault contract.
        self.forced_down.store(down, Ordering::Relaxed);
    }

    /// Injected-fault totals so far, in the measurement layer's
    /// [`FaultCounts`] shape.
    pub fn fault_counts(&self) -> FaultCounts {
        FaultCounts {
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            transient: self.transient.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            spikes: self.spikes.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            non_finite: self.non_finite.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            timeouts: self.timeouts.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            outages: self.outages.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics snapshot, staleness tolerated.
            outage_lost: self.outage_lost.load(Ordering::Relaxed),
        }
    }

    /// The unit draw for `(query, attempt)` — a pure function, shared by no
    /// one: chaining two splitmix64 finalisations keys an independent
    /// stream per query and an independent draw per attempt.
    fn unit(&self, query_id: u64, attempt: u32) -> f64 {
        let word = derive_stream_seed(
            derive_stream_seed(self.config.seed, query_id),
            u64::from(attempt),
        );
        (word >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Claims one draw of an open outage window, if any.
    fn consume_outage_draw(&self) -> bool {
        loop {
            // ordering: Relaxed — the countdown is an independent fault
            // gauge; the CAS below makes each decrement exclusive, and no
            // other data is published through it.
            let left = self.outage_left.load(Ordering::Relaxed);
            if left == 0 {
                return false;
            }
            // ordering: Relaxed on both — same reasoning: exclusivity comes
            // from the CAS itself, no cross-variable publication.
            if self
                .outage_left
                .compare_exchange(left, left - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }
}

impl<C: ShardClient> ShardClient for ChaosShard<C> {
    fn predict(&self, call: &ShardCall<'_>) -> Result<ShardReply, ShardError> {
        // ordering: Relaxed — see `set_forced_down`.
        if self.forced_down.load(Ordering::Relaxed) {
            // ordering: Relaxed — standalone statistic.
            self.transient.fetch_add(1, Ordering::Relaxed);
            return Err(ShardError::Unavailable { cost: 1 });
        }
        if self.consume_outage_draw() {
            // ordering: Relaxed — standalone statistic.
            self.outage_lost.fetch_add(1, Ordering::Relaxed);
            return Err(ShardError::Unavailable { cost: 1 });
        }
        let u = self.unit(call.query_id, call.attempt);
        let c = &self.config;
        let mut edge = c.transient_probability;
        if u < edge {
            // ordering: Relaxed — standalone statistic.
            self.transient.fetch_add(1, Ordering::Relaxed);
            return Err(ShardError::Unavailable { cost: 1 });
        }
        edge += c.timeout_probability;
        if u < edge {
            // ordering: Relaxed — standalone statistic.
            self.timeouts.fetch_add(1, Ordering::Relaxed);
            return Err(ShardError::Timeout { cost: call.budget });
        }
        edge += c.outage_probability;
        if u < edge {
            // ordering: Relaxed — standalone statistic.
            self.outages.fetch_add(1, Ordering::Relaxed);
            // ordering: Relaxed — standalone statistic (the opening draw is
            // itself lost, like the executor-side outage accounting).
            self.outage_lost.fetch_add(1, Ordering::Relaxed);
            if c.outage_draws > 1 {
                // ordering: Relaxed — see `consume_outage_draw`.
                self.outage_left
                    .store(c.outage_draws - 1, Ordering::Relaxed);
            }
            return Err(ShardError::Unavailable { cost: 1 });
        }
        edge += c.spike_probability;
        if u < edge {
            // ordering: Relaxed — standalone statistic.
            self.spikes.fetch_add(1, Ordering::Relaxed);
            let reply = self.inner.predict(call)?;
            let factor = if c.spike_factor.is_finite() && c.spike_factor > 1.0 {
                c.spike_factor
            } else {
                1.0
            };
            let slowed = (reply.cost as f64 * factor).ceil() as u64;
            return Ok(ShardReply {
                cost: slowed.max(reply.cost),
                ..reply
            });
        }
        edge += c.non_finite_probability;
        if u < edge {
            // ordering: Relaxed — standalone statistic.
            self.non_finite.fetch_add(1, Ordering::Relaxed);
            let reply = self.inner.predict(call)?;
            return Ok(ShardReply {
                summary: reply.summary.scale(f64::NAN),
                ..reply
            });
        }
        self.inner.predict(call)
    }
}

// ---------------------------------------------------------------------------
// Fleet configuration
// ---------------------------------------------------------------------------

/// Per-attempt budget cap, in virtual cost units; attempts costing more
/// count as timeouts.
const ATTEMPT_TIMEOUT: u64 = 64;

/// Cost of a local degraded answer (stale evaluation or proxy scaling).  The
/// direct and proxy phases always leave this much headroom in the deadline
/// so a degraded answer still fits.
const LOCAL_EVAL_COST: u64 = 1;

/// Fleet-wide serving knobs.  All durations are deterministic virtual cost
/// units (the same currency as [`FleetQuery::deadline`]); each attempt is
/// capped at 64 units, a shard call is retried at most twice, and a local
/// degraded answer costs 1.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Root seed for per-query backoff streams.
    pub seed: u64,
    /// Nominal cost charged per [`ServiceClient`] answer.
    pub nominal_cost: u64,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Calls used to calibrate cross-machine efficiency ratios at build
    /// time.  Empty ⇒ uncalibrated proxying (ratio 1.0 between all pairs).
    pub calibration_calls: Vec<Call>,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            seed: 0x5eed_f1ee_7000_0001,
            nominal_cost: 8,
            breaker: BreakerConfig::default(),
            calibration_calls: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Health roll-ups
// ---------------------------------------------------------------------------

/// Per-shard slice of the fleet health roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHealth {
    /// Machine id this shard serves.
    pub machine_id: String,
    /// Current breaker state.
    pub state: BreakerState,
    /// Queries routed to this shard: `fresh + stale + proxied + shed`, since
    /// every routed query ends in exactly one of the four outcomes.
    pub queries: u64,
    /// Answered fresh.
    pub fresh: u64,
    /// Answered from the last-good snapshot.
    pub stale: u64,
    /// Answered by proxying through another shard.
    pub proxied: u64,
    /// Shed.
    pub shed: u64,
    /// Backoff-retries spent on this shard's queries (direct + proxy).
    pub retries: u64,
    /// Attempt timeouts observed on this shard's queries.
    pub timeouts: u64,
    /// Attempt errors observed on this shard's queries.
    pub errors: u64,
    /// Healthy → Degraded trips.
    pub trips_degraded: u64,
    /// Degraded → Down trips.
    pub trips_down: u64,
    /// Recoveries back to Healthy.
    pub recoveries: u64,
    /// Half-open probes admitted.
    pub probes: u64,
    /// Generation of the retained last-good handle, if any.
    pub last_good_generation: Option<u64>,
    /// The shard service's own fault-tolerance ledger.
    pub service: ServiceHealth,
}

/// The fleet-wide health roll-up: per-shard slices plus their exact sums.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHealth {
    /// Total queries routed (Σ shards): `fresh + stale + proxied + shed`.
    pub queries: u64,
    /// Fresh answers (Σ shards).
    pub fresh: u64,
    /// Stale answers (Σ shards).
    pub stale: u64,
    /// Proxied answers (Σ shards).
    pub proxied: u64,
    /// Shed queries (Σ shards).
    pub shed: u64,
    /// Backoff-retries (Σ shards).
    pub retries: u64,
    /// Attempt timeouts (Σ shards).
    pub timeouts: u64,
    /// Attempt errors (Σ shards).
    pub errors: u64,
    /// Healthy → Degraded trips (Σ shards).
    pub trips_degraded: u64,
    /// Degraded → Down trips (Σ shards).
    pub trips_down: u64,
    /// Recoveries (Σ shards).
    pub recoveries: u64,
    /// Half-open probes (Σ shards).
    pub probes: u64,
    /// Per-shard slices, in registration order.
    pub shards: Vec<ShardHealth>,
}

impl FleetHealth {
    /// Fraction of routed queries that got an answer (any tag but shed).
    pub fn availability(&self) -> f64 {
        if self.queries == 0 {
            return 1.0;
        }
        (self.queries - self.shed) as f64 / self.queries as f64
    }
}

impl std::fmt::Display for FleetHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "availability {:.4} · {} queries = {} fresh + {} stale + {} proxied + {} shed · \
             {} retries, {} timeouts, {} errors · trips {}D/{}d, {} recoveries, {} probes",
            self.availability(),
            self.queries,
            self.fresh,
            self.stale,
            self.proxied,
            self.shed,
            self.retries,
            self.timeouts,
            self.errors,
            self.trips_degraded,
            self.trips_down,
            self.recoveries,
            self.probes,
        )
    }
}

/// One shard's slice of an arbitrated refinement budget (see
/// [`FleetService::arbitrate_refinement_budget`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardBudget {
    /// Machine id of the shard.
    pub machine_id: String,
    /// The shard's drift × traffic pressure (Σ hot-region priorities).
    pub pressure: f64,
    /// Samples apportioned to the shard this round — feed it to the shard's
    /// refiner via [`set_sample_budget`](dla_modeler::OnlineRefiner::set_sample_budget).
    pub sample_budget: usize,
}

// ---------------------------------------------------------------------------
// Fleet internals
// ---------------------------------------------------------------------------

/// A retention slot for the most recent **known-good** published generation
/// of a serving shard — the degraded-serving fallback of the fleet tier.
///
/// The fleet's query path retains the shard's [`Published`] handle after a
/// fresh answer from a generation newer than the held one (once per
/// publication); when the shard later trips its circuit breaker or misses
/// its deadline, queries are answered from the retained handle and
/// explicitly tagged *stale* with its generation.  The handle is one `Arc`,
/// so the generation tag and the models that answer can never disagree.
/// The slot is monotone in the generation:
/// [`retain`](LastGoodSnapshot::retain) only replaces the held handle with
/// one of a **newer** generation, so two racing retainers can never regress
/// the slot to an older repository (the generation check runs under the
/// write lock; model-checked under `--cfg interleave` in
/// `tests/interleave_fleet.rs`).
///
/// The held generation is mirrored in an atomic, so
/// [`generation`](LastGoodSnapshot::generation) — what the query path reads
/// after every fresh answer — is one load and takes no lock.
///
/// Like the rest of the serving tier, the lock comes from the
/// [`dla_model::sync`] facade and is non-poisoning: a panicking retainer can
/// only abandon its replacement handle, never half-apply it.
#[derive(Debug)]
pub struct LastGoodSnapshot {
    slot: RwLock<Option<Arc<Published>>>,
    /// The held handle's generation + 1, or 0 while the slot is empty;
    /// stored only under the slot's write lock.
    held: AtomicU64,
}

impl Default for LastGoodSnapshot {
    fn default() -> LastGoodSnapshot {
        LastGoodSnapshot::new()
    }
}

impl LastGoodSnapshot {
    /// An empty slot (nothing known-good yet).
    pub fn new() -> LastGoodSnapshot {
        LastGoodSnapshot {
            slot: RwLock::new(None),
            held: AtomicU64::new(0),
        }
    }

    /// Retains `published` as the last-good generation, unless the slot
    /// already holds the same or a newer generation.  Returns `true` when
    /// the slot was updated.
    pub fn retain(&self, published: Arc<Published>) -> bool {
        let generation = published.generation();
        // Cheap fast path: a slot already at this generation or past it
        // never needs the write lock.
        if self.generation().is_some_and(|held| held >= generation) {
            return false;
        }
        let mut guard = self.slot.write();
        // Re-check the guarded handle under the write lock: a racing
        // retainer with a newer generation must win regardless of who gets
        // the lock first.
        if guard
            .as_ref()
            .is_some_and(|held| held.generation() >= generation)
        {
            return false;
        }
        *guard = Some(published);
        // ordering: Release, under the write lock — pairs with the Acquire
        // load in `generation`, so a reader that sees the new mirror value
        // also sees the handle stored just above.
        self.held.store(generation + 1, Ordering::Release);
        true
    }

    /// The retained handle, if any — a cheap `Arc` clone.
    pub fn get(&self) -> Option<Arc<Published>> {
        self.slot.read().clone()
    }

    /// The generation of the retained handle, if any — one atomic load.
    pub fn generation(&self) -> Option<u64> {
        // ordering: Acquire — pairs with the Release store in `retain`.
        self.held.load(Ordering::Acquire).checked_sub(1)
    }
}

/// Per-shard fleet-side counters.  Relaxed throughout: each field is an
/// independent statistic folded in once per query.  Routed queries are not
/// counted apart: each ends in exactly one of the four outcomes, so their
/// sum is the query count.
struct ShardCounters {
    fresh: AtomicU64,
    stale: AtomicU64,
    proxied: AtomicU64,
    shed: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    errors: AtomicU64,
}

impl ShardCounters {
    fn new() -> ShardCounters {
        ShardCounters {
            fresh: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            proxied: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }
}

struct Shard {
    machine_id: String,
    service: Arc<ModelService>,
    client: Arc<dyn ShardClient>,
    breaker: CircuitBreaker,
    last_good: LastGoodSnapshot,
    counters: ShardCounters,
    /// Indices of the shards that can stand in for this one, nearest
    /// efficiency first (see [`order_fallbacks`]).
    fallbacks: Vec<usize>,
    /// Watermark of `publishes_rejected` last seen by
    /// [`FleetService::apply_ledger_pressure`].
    rejected_seen: AtomicU64,
}

/// Per-query running totals, folded into the target shard's counters once
/// when the response is built.
#[derive(Default)]
struct QueryStats {
    retries: u64,
    timeouts: u64,
    errors: u64,
    elapsed: u64,
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Builds a [`FleetService`] shard by shard.
pub struct FleetBuilder {
    config: FleetConfig,
    shards: Vec<(Arc<ModelService>, Arc<dyn ShardClient>)>,
}

impl FleetBuilder {
    /// Starts a fleet with `config`.
    pub fn new(config: FleetConfig) -> FleetBuilder {
        FleetBuilder {
            config,
            shards: Vec::new(),
        }
    }

    /// Registers a shard served directly by `service` (a [`ServiceClient`]
    /// at the configured nominal cost).
    pub fn shard(self, service: Arc<ModelService>) -> FleetBuilder {
        let client: Arc<dyn ShardClient> = Arc::new(ServiceClient::new(
            Arc::clone(&service),
            self.config.nominal_cost,
        ));
        self.shard_with_client(service, client)
    }

    /// Registers a shard whose call path goes through `client` (e.g. a
    /// [`ChaosShard`]); `service` remains the authority for health,
    /// snapshots and refinement reports.
    pub fn shard_with_client(
        mut self,
        service: Arc<ModelService>,
        client: Arc<dyn ShardClient>,
    ) -> FleetBuilder {
        self.shards.push((service, client));
        self
    }

    /// Builds the fleet: keeps the shards in registration order, calibrates
    /// cross-machine efficiency ratios over
    /// [`FleetConfig::calibration_calls`], and orders each shard's proxy
    /// fallbacks nearest-efficiency-first.  A fleet without shards, or with
    /// two shards for one machine id, is a build error.
    pub fn build(self) -> Result<FleetService, FleetError> {
        if self.shards.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        let mut shards: Vec<Shard> = Vec::with_capacity(self.shards.len());
        for (service, client) in self.shards {
            let machine_id = service.machine().id();
            if shards.iter().any(|shard| shard.machine_id == machine_id) {
                return Err(FleetError::DuplicateMachine(machine_id));
            }
            shards.push(Shard {
                machine_id,
                service,
                client,
                breaker: CircuitBreaker::new(),
                last_good: LastGoodSnapshot::new(),
                counters: ShardCounters::new(),
                fallbacks: Vec::new(),
                rejected_seen: AtomicU64::new(0),
            });
        }

        let calibration = calibrate_ratios(&shards, &self.config.calibration_calls);
        for (shard, fallbacks) in shards.iter_mut().zip(order_fallbacks(&calibration.global)) {
            shard.fallbacks = fallbacks;
        }

        Ok(FleetService {
            config: self.config,
            shards,
            calibration,
        })
    }
}

/// Cross-machine efficiency calibration: `global[a][b]` estimates
/// `ticks_a / ticks_b` as the geometric mean over **all** calibration calls
/// of both shards' (offline, chaos-free) predictions, and `curves[a][b]`
/// refines that per [`Routine`] as a [`SizeCurve`] over the call's size
/// space — the cross-machine performance relation varies with both routine
/// and problem size (paper fig. IV.3/IV.4 plot efficiency against size, per
/// routine; across this repo's presets the pairwise ratio spans more than
/// an order of magnitude over one serving mix), so proxy scaling
/// interpolates the routine's own calibrated surface at the query's sizes
/// and falls back to the global geometric mean for uncalibrated routines.
/// `NaN` marks an uncalibratable pair; with no calibration calls every pair
/// is 1.0 (uncalibrated proxying).
struct Calibration {
    global: Vec<Vec<f64>>,
    curves: Vec<Vec<HashMap<Routine, SizeCurve>>>,
}

impl Calibration {
    /// The scale for standing in for shard `a` with shard `b`'s answer to
    /// `call`: the routine's calibrated surface interpolated at the call's
    /// sizes, else the global geometric mean.
    // lint: allow(panic-free): a and b are routed shard indices; the square
    // tables cover every shard
    fn ratio(&self, a: usize, b: usize, call: &Call) -> f64 {
        let Some(curve) = self.curves[a][b].get(&call.routine()) else {
            return self.global[a][b];
        };
        let coords: Vec<f64> = call.sizes().iter().map(|&s| (s as f64).ln()).collect();
        curve.eval(&coords).exp()
    }
}

/// A calibrated log-ratio surface over one routine's log-size space.
///
/// When the calibration calls form a complete Cartesian grid over the
/// routine's size axes, evaluation is multilinear interpolation (clamped at
/// the grid's edges).  For scattered or incomplete calibrations it degrades
/// to the nearest calibrated point in log-size space (deterministic
/// tie-break: lexicographically first).
#[derive(Clone)]
struct SizeCurve {
    /// Per-dimension sorted unique log-size coordinates.
    axes: Vec<Vec<f64>>,
    /// Row-major log-ratio values over `axes`; empty when the points do not
    /// form a complete grid.
    grid: Vec<f64>,
    /// All calibrated `(log-sizes, log-ratio)` points, lexicographically
    /// sorted — the nearest-neighbour fallback.
    points: Vec<(Vec<f64>, f64)>,
}

impl SizeCurve {
    /// Builds the surface from scattered points; same-coordinate duplicates
    /// collapse to their mean so the surface is a function.
    fn build(mut points: Vec<(Vec<f64>, f64)>) -> SizeCurve {
        points.sort_by(|p, q| {
            p.0.iter()
                .zip(q.0.iter())
                .map(|(a, b)| a.total_cmp(b))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        points.dedup_by(|next, kept| {
            if next.0 == kept.0 {
                kept.1 = (kept.1 + next.1) / 2.0;
                true
            } else {
                false
            }
        });
        let dims = points.first().map_or(0, |(c, _)| c.len());
        let mut axes: Vec<Vec<f64>> = vec![Vec::new(); dims];
        for (coords, _) in &points {
            for (axis, &x) in axes.iter_mut().zip(coords.iter()) {
                let at = axis.partition_point(|&a| a < x);
                if axis.get(at) != Some(&x) {
                    axis.insert(at, x);
                }
            }
        }
        let cells: usize = axes.iter().map(Vec::len).product();
        let mut grid = vec![f64::NAN; cells.max(1)];
        if dims > 0 && points.len() == cells {
            for (coords, value) in &points {
                let index = axes.iter().zip(coords.iter()).fold(0, |acc, (axis, x)| {
                    acc * axis.len() + axis.partition_point(|&a| a < *x)
                });
                grid[index] = *value;
            }
        }
        if grid.iter().any(|v| v.is_nan()) {
            grid.clear();
        }
        SizeCurve { axes, grid, points }
    }

    /// Interpolates the log-ratio at log-size `coords`.
    // lint: allow(panic-free): grid and axes are built together — every
    // per-dimension index is clamped to axis.len() - 1 and the mixed-radix
    // corner index stays below the grid length
    fn eval(&self, coords: &[f64]) -> f64 {
        if self.grid.is_empty() || coords.len() != self.axes.len() {
            return self.eval_nearest(coords);
        }
        // Per dimension: the bracketing lower index and the weight of the
        // upper neighbour, clamped to the grid's edges.
        let dims = self.axes.len();
        let mut lower = vec![0usize; dims];
        let mut upper_weight = vec![0.0f64; dims];
        for (d, axis) in self.axes.iter().enumerate() {
            let x = coords[d];
            if axis.len() == 1 || x <= axis[0] {
                lower[d] = 0;
            } else if x >= axis[axis.len() - 1] {
                lower[d] = axis.len() - 2;
                upper_weight[d] = 1.0;
            } else {
                let hi = axis.partition_point(|&a| a < x);
                lower[d] = hi - 1;
                upper_weight[d] = (x - axis[hi - 1]) / (axis[hi] - axis[hi - 1]);
            }
        }
        let mut acc = 0.0;
        for corner in 0..(1usize << dims) {
            let mut weight = 1.0;
            let mut index = 0usize;
            for (d, axis) in self.axes.iter().enumerate() {
                let upper = (corner >> d) & 1 == 1;
                weight *= if upper {
                    upper_weight[d]
                } else {
                    1.0 - upper_weight[d]
                };
                let i = if upper {
                    (lower[d] + 1).min(axis.len() - 1)
                } else {
                    lower[d]
                };
                index = index * axis.len() + i;
            }
            if weight > 0.0 {
                acc += weight * self.grid[index];
            }
        }
        acc
    }

    fn eval_nearest(&self, coords: &[f64]) -> f64 {
        self.points
            .iter()
            .min_by(|p, q| {
                distance_squared(&p.0, coords).total_cmp(&distance_squared(&q.0, coords))
            })
            .map_or(0.0, |(_, value)| *value)
    }
}

fn distance_squared(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn calibrate_ratios(shards: &[Shard], calls: &[Call]) -> Calibration {
    let n = shards.len();
    if calls.is_empty() {
        return Calibration {
            global: vec![vec![1.0; n]; n],
            curves: vec![vec![HashMap::new(); n]; n],
        };
    }
    let predictors: Vec<Predictor> = shards.iter().map(|s| s.service.predictor()).collect();
    let ticks: Vec<Vec<Option<f64>>> = predictors
        .iter()
        .map(|p| {
            calls
                .iter()
                .map(|call| match p.predict_call(call) {
                    Ok(summary) if summary.median.is_finite() && summary.median > 0.0 => {
                        Some(summary.median)
                    }
                    _ => None,
                })
                .collect()
        })
        .collect();
    let mut global = vec![vec![f64::NAN; n]; n];
    let mut curves = vec![vec![HashMap::new(); n]; n];
    for a in 0..n {
        global[a][a] = 1.0;
        for b in 0..n {
            if a == b {
                continue;
            }
            let mut log_sum = 0.0;
            let mut count = 0usize;
            let mut by_routine: HashMap<Routine, Vec<(Vec<f64>, f64)>> = HashMap::new();
            for (k, call) in calls.iter().enumerate() {
                if let (Some(ta), Some(tb)) = (ticks[a][k], ticks[b][k]) {
                    let log_ratio = (ta / tb).ln();
                    log_sum += log_ratio;
                    count += 1;
                    let coords = call.sizes().iter().map(|&s| (s as f64).ln()).collect();
                    by_routine
                        .entry(call.routine())
                        .or_default()
                        .push((coords, log_ratio));
                }
            }
            if count > 0 {
                global[a][b] = (log_sum / count as f64).exp();
            }
            curves[a][b] = by_routine
                .into_iter()
                .map(|(routine, points)| (routine, SizeCurve::build(points)))
                .collect();
        }
    }
    Calibration { global, curves }
}

/// `fallbacks[a]`: the other shards, nearest efficiency first (smallest
/// `|ln ratio|`, ties by index); uncalibratable (`NaN`) pairs are excluded.
fn order_fallbacks(ratios: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = ratios.len();
    (0..n)
        .map(|a| {
            let mut candidates: Vec<(f64, usize)> = (0..n)
                .filter(|&b| b != a && ratios[a][b].is_finite() && ratios[a][b] > 0.0)
                .map(|b| (ratios[a][b].ln().abs(), b))
                .collect();
            candidates.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
            candidates.into_iter().map(|(_, b)| b).collect()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The fleet service
// ---------------------------------------------------------------------------

/// The fleet serving tier; see the [module docs](self) for the full
/// degradation ladder.
pub struct FleetService {
    config: FleetConfig,
    /// In registration order, immutable after build, so routing is
    /// reproducible across runs and worker counts.
    shards: Vec<Shard>,
    calibration: Calibration,
}

impl std::fmt::Debug for FleetService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let machines: Vec<&str> = self.shards.iter().map(|s| s.machine_id.as_str()).collect();
        f.debug_struct("FleetService")
            .field("machines", &machines)
            .finish_non_exhaustive()
    }
}

impl FleetService {
    /// Answers one query; see the [module docs](self) for the degradation
    /// ladder.  Only an unroutable machine id is an error — everything else
    /// is a tagged [`FleetResponse`].
    // lint: panic-free
    pub fn query(&self, query: &FleetQuery) -> Result<FleetResponse, FleetError> {
        let Some((target, shard)) = self
            .shards
            .iter()
            .enumerate()
            .find(|(_, shard)| shard.machine_id == query.machine_id)
        else {
            return Err(FleetError::UnknownMachine(query.machine_id.clone()));
        };

        let mut stats = QueryStats::default();
        let backoff_seed = derive_stream_seed(self.config.seed, query.id);

        // 1. Direct path.
        if let Some(reply) = self.call_shard(shard, query, backoff_seed, &mut stats) {
            let served = Served::Fresh {
                generation: reply.generation,
            };
            return Ok(self.finish(shard, Some(reply.summary), served, stats));
        }

        // 2. Stale path: the retained last-good generation, if any.  Its
        // predictor counts no telemetry: stale answers are not traffic of
        // the served generation.
        if stats.elapsed + LOCAL_EVAL_COST <= query.deadline {
            if let Some(held) = shard.last_good.get() {
                if let Ok(summary) = held.predictor().predict_call(&query.call) {
                    if summary.median.is_finite() && summary.mean.is_finite() {
                        stats.elapsed += LOCAL_EVAL_COST;
                        return Ok(self.finish(
                            shard,
                            Some(summary),
                            Served::Stale {
                                generation: held.generation(),
                            },
                            stats,
                        ));
                    }
                }
            }
        }

        // 3. Proxy path: nearest healthy machine, efficiency-scaled.
        for &via in &shard.fallbacks {
            if stats.elapsed + LOCAL_EVAL_COST > query.deadline {
                break;
            }
            let Some(proxy) = self.shards.get(via) else {
                continue;
            };
            let via_seed = derive_stream_seed(backoff_seed, 0x9e37_79b9_7f4a_7c15 ^ via as u64);
            if let Some(reply) = self.call_shard(proxy, query, via_seed, &mut stats) {
                if stats.elapsed + LOCAL_EVAL_COST > query.deadline {
                    break;
                }
                stats.elapsed += LOCAL_EVAL_COST;
                let ratio = self.calibration.ratio(target, via, &query.call);
                return Ok(self.finish(
                    shard,
                    Some(reply.summary.scale(ratio)),
                    Served::Proxied {
                        via: proxy.machine_id.clone(),
                        ratio,
                    },
                    stats,
                ));
            }
        }

        // 4. Shed — still a tagged answer, accounted like everything else.
        let reason = if stats.elapsed + LOCAL_EVAL_COST > query.deadline {
            ShedReason::DeadlineExhausted
        } else {
            ShedReason::NoFallback
        };
        Ok(self.finish(shard, None, Served::Shed { reason }, stats))
    }

    /// Runs the bounded-retry attempt loop against `shard`, returning its
    /// finite in-budget reply, if any.  The loop always leaves
    /// [`LOCAL_EVAL_COST`] units of deadline headroom so a degraded answer
    /// still fits afterwards.
    ///
    /// The breaker is struck once when an attempt timed out, found the
    /// shard unavailable, or got an over-budget or corrupt reply.  A
    /// definitive [`ShardError::Failed`] ends the loop without a strike: the
    /// shard answered, the call was at fault.  A breaker rejection, or a
    /// deadline too short for any attempt, learns nothing and strikes
    /// nothing either.
    fn call_shard(
        &self,
        shard: &Shard,
        query: &FleetQuery,
        backoff_seed: u64,
        stats: &mut QueryStats,
    ) -> Option<ShardReply> {
        if shard.breaker.admit(&self.config.breaker) == Admission::Reject {
            return None;
        }
        let mut attempt: u32 = 0;
        let mut faulted = false;
        loop {
            let headroom = query
                .deadline
                .saturating_sub(stats.elapsed)
                .saturating_sub(LOCAL_EVAL_COST);
            let budget = headroom.min(ATTEMPT_TIMEOUT);
            if budget == 0 {
                break;
            }
            let outcome = shard.client.predict(&ShardCall {
                call: &query.call,
                query_id: query.id,
                attempt,
                budget,
            });
            match outcome {
                Ok(reply) => {
                    if reply.cost > budget {
                        // Took longer than the attempt budget: we stop
                        // waiting at the budget boundary.
                        stats.elapsed += budget;
                        stats.timeouts += 1;
                    } else if !(reply.summary.median.is_finite() && reply.summary.mean.is_finite())
                    {
                        // Corrupt reply: paid for, but unusable.
                        stats.elapsed += reply.cost;
                        stats.errors += 1;
                    } else {
                        stats.elapsed += reply.cost;
                        shard.breaker.record_success();
                        // The slot only moves after a publication: one
                        // atomic load per answer.  The retained handle is
                        // one `Arc`, so its generation number and models
                        // cannot disagree, whatever swap lands now.
                        if shard
                            .last_good
                            .generation()
                            .is_none_or(|held| held < reply.generation)
                        {
                            shard.last_good.retain(shard.service.published());
                        }
                        return Some(reply);
                    }
                }
                Err(ShardError::Failed { cost, .. }) => {
                    stats.elapsed += cost.min(budget);
                    stats.errors += 1;
                    break;
                }
                Err(error) => {
                    stats.elapsed += error.cost().min(budget);
                    if matches!(error, ShardError::Timeout { .. }) {
                        stats.timeouts += 1;
                    } else {
                        stats.errors += 1;
                    }
                }
            }
            faulted = true;
            if attempt >= MAX_RETRIES {
                break;
            }
            let pause = backoff(backoff_seed, attempt);
            let headroom = query
                .deadline
                .saturating_sub(stats.elapsed)
                .saturating_sub(LOCAL_EVAL_COST);
            if pause >= headroom {
                break;
            }
            stats.elapsed += pause;
            stats.retries += 1;
            attempt += 1;
        }
        if faulted {
            shard.breaker.record_failure(&self.config.breaker);
        }
        None
    }

    /// Folds the query's running totals into the target shard's counters
    /// (once per query: one outcome increment, plus each non-zero fault
    /// total) and builds the response.
    fn finish(
        &self,
        shard: &Shard,
        summary: Option<Summary>,
        served: Served,
        stats: QueryStats,
    ) -> FleetResponse {
        let counters = &shard.counters;
        let outcome = match &served {
            Served::Fresh { .. } => &counters.fresh,
            Served::Stale { .. } => &counters.stale,
            Served::Proxied { .. } => &counters.proxied,
            Served::Shed { .. } => &counters.shed,
        };
        // ordering: Relaxed — standalone statistic.
        outcome.fetch_add(1, Ordering::Relaxed);
        for (counter, value) in [
            (&counters.retries, stats.retries),
            (&counters.timeouts, stats.timeouts),
            (&counters.errors, stats.errors),
        ] {
            if value > 0 {
                // ordering: Relaxed — standalone statistic.
                counter.fetch_add(value, Ordering::Relaxed);
            }
        }
        FleetResponse {
            summary,
            served,
            retries: stats.retries,
            timeouts: stats.timeouts,
            errors: stats.errors,
            elapsed: stats.elapsed,
        }
    }

    /// Feeds each shard's [`ServiceHealth`] ledger into its breaker: a
    /// publish rejected since the last application strikes the breaker
    /// once.  Returns the post-application breaker states, in shard
    /// order.  Call this from the same maintenance loop that publishes
    /// refinement deltas.
    pub fn apply_ledger_pressure(&self) -> Vec<BreakerState> {
        self.shards
            .iter()
            .map(|shard| {
                let health = shard.service.health();
                // ordering: Relaxed — the watermark is an independent
                // maintenance cursor; the swap makes each rejection delta
                // observed by exactly one application.
                let seen = shard
                    .rejected_seen
                    .swap(health.publishes_rejected, Ordering::Relaxed);
                if health.publishes_rejected > seen {
                    shard.breaker.record_failure(&self.config.breaker);
                }
                shard.breaker.state()
            })
            .collect()
    }

    /// Apportions a shared refinement sample budget across the shards,
    /// proportionally to each shard's drift × traffic pressure (the sum of
    /// its [`refinement_report`](ModelService::refinement_report) cell
    /// priorities, `queries × fit_error`; `NaN` priorities count as a large
    /// fixed pressure so unmeasurable drift is refined first).  Largest-
    /// remainder apportionment: the slices always sum exactly to `total`.
    /// With no pressure anywhere the budget is split evenly.
    pub fn arbitrate_refinement_budget(&self, total: usize) -> Vec<ShardBudget> {
        const NAN_PRESSURE: f64 = 1e12;
        let pressures: Vec<f64> = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .service
                    .refinement_report()
                    .cells
                    .iter()
                    .map(|cell| {
                        let p = cell.priority();
                        if p.is_finite() {
                            p
                        } else {
                            NAN_PRESSURE
                        }
                    })
                    .sum()
            })
            .collect();
        let weights: Vec<f64> = if pressures.iter().all(|&p| p <= 0.0) {
            vec![1.0; pressures.len()]
        } else {
            pressures.clone()
        };
        let sum: f64 = weights.iter().sum();
        let quotas: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
        let mut budgets: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let assigned: usize = budgets.iter().sum();
        let mut order: Vec<usize> = (0..quotas.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = quotas[a] - quotas[a].floor();
            let fb = quotas[b] - quotas[b].floor();
            fb.total_cmp(&fa).then(a.cmp(&b))
        });
        for &index in order.iter().take(total.saturating_sub(assigned)) {
            budgets[index] += 1;
        }
        self.shards
            .iter()
            .zip(pressures)
            .zip(budgets)
            .map(|((shard, pressure), sample_budget)| ShardBudget {
                machine_id: shard.machine_id.clone(),
                pressure,
                sample_budget,
            })
            .collect()
    }

    /// The fleet-wide health roll-up; the fleet-level fields are exact sums
    /// of the per-shard slices.
    pub fn health(&self) -> FleetHealth {
        let shards: Vec<ShardHealth> = self
            .shards
            .iter()
            .map(|shard| {
                let breaker = shard.breaker.stats();
                // ordering: Relaxed — statistics snapshot.
                let fresh = shard.counters.fresh.load(Ordering::Relaxed);
                // ordering: Relaxed — statistics snapshot.
                let stale = shard.counters.stale.load(Ordering::Relaxed);
                // ordering: Relaxed — statistics snapshot.
                let proxied = shard.counters.proxied.load(Ordering::Relaxed);
                // ordering: Relaxed — statistics snapshot.
                let shed = shard.counters.shed.load(Ordering::Relaxed);
                ShardHealth {
                    machine_id: shard.machine_id.clone(),
                    state: breaker.state,
                    queries: fresh + stale + proxied + shed,
                    fresh,
                    stale,
                    proxied,
                    shed,
                    // ordering: Relaxed — statistics snapshot.
                    retries: shard.counters.retries.load(Ordering::Relaxed),
                    // ordering: Relaxed — statistics snapshot.
                    timeouts: shard.counters.timeouts.load(Ordering::Relaxed),
                    // ordering: Relaxed — statistics snapshot.
                    errors: shard.counters.errors.load(Ordering::Relaxed),
                    trips_degraded: breaker.trips_degraded,
                    trips_down: breaker.trips_down,
                    recoveries: breaker.recoveries,
                    probes: breaker.probes,
                    last_good_generation: shard.last_good.generation(),
                    service: shard.service.health(),
                }
            })
            .collect();
        FleetHealth {
            queries: shards.iter().map(|s| s.queries).sum(),
            fresh: shards.iter().map(|s| s.fresh).sum(),
            stale: shards.iter().map(|s| s.stale).sum(),
            proxied: shards.iter().map(|s| s.proxied).sum(),
            shed: shards.iter().map(|s| s.shed).sum(),
            retries: shards.iter().map(|s| s.retries).sum(),
            timeouts: shards.iter().map(|s| s.timeouts).sum(),
            errors: shards.iter().map(|s| s.errors).sum(),
            trips_degraded: shards.iter().map(|s| s.trips_degraded).sum(),
            trips_down: shards.iter().map(|s| s.trips_down).sum(),
            recoveries: shards.iter().map(|s| s.recoveries).sum(),
            probes: shards.iter().map(|s| s.probes).sum(),
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_blas::{Diag, Side, Trans, Uplo};
    use dla_machine::presets::{
        harpertown_openblas, sandy_bridge_openblas, sandy_bridge_openblas_threaded,
    };
    use dla_machine::{Locality, MachineConfig};
    use dla_model::ModelRepository;

    fn empty_shard(machine: MachineConfig) -> Arc<ModelService> {
        Arc::new(ModelService::new(
            ModelRepository::new(),
            machine,
            Locality::InCache,
        ))
    }

    fn trsm_call() -> Call {
        Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            64,
            64,
            1.0,
        )
    }

    fn query_for(machine_id: String) -> FleetQuery {
        FleetQuery {
            id: 7,
            machine_id,
            call: trsm_call(),
            deadline: 200,
            priority: Priority::Normal,
        }
    }

    #[test]
    fn build_without_shards_is_an_empty_fleet() {
        let err = FleetBuilder::new(FleetConfig::default())
            .build()
            .unwrap_err();
        assert_eq!(err, FleetError::EmptyFleet);
    }

    #[test]
    fn two_shards_for_one_machine_are_a_duplicate() {
        let err = FleetBuilder::new(FleetConfig::default())
            .shard(empty_shard(harpertown_openblas()))
            .shard(empty_shard(sandy_bridge_openblas()))
            .shard(empty_shard(harpertown_openblas()))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            FleetError::DuplicateMachine(harpertown_openblas().id())
        );
    }

    #[test]
    fn queries_for_unregistered_machines_are_unknown() {
        let fleet = FleetBuilder::new(FleetConfig::default())
            .shard(empty_shard(harpertown_openblas()))
            .build()
            .unwrap();
        let err = fleet.query(&query_for("nowhere".into())).unwrap_err();
        assert_eq!(err, FleetError::UnknownMachine("nowhere".into()));
        assert_eq!(
            fleet.health().queries,
            0,
            "an unroutable query counts nowhere"
        );
    }

    #[test]
    fn health_lists_shards_in_registration_order() {
        let machines = [
            sandy_bridge_openblas(),
            harpertown_openblas(),
            sandy_bridge_openblas_threaded(),
        ];
        let fleet = machines
            .iter()
            .fold(FleetBuilder::new(FleetConfig::default()), |b, m| {
                b.shard(empty_shard(m.clone()))
            })
            .build()
            .unwrap();
        let ids: Vec<String> = machines.iter().map(MachineConfig::id).collect();
        let listed: Vec<String> = fleet
            .health()
            .shards
            .into_iter()
            .map(|s| s.machine_id)
            .collect();
        assert_eq!(listed, ids);
        // A query lands on the shard registered under its machine id (empty
        // models cannot answer, so it is shed, but it is counted there).
        let response = fleet.query(&query_for(ids[1].clone())).unwrap();
        assert!(!response.served.is_answer());
        let queries: Vec<u64> = fleet.health().shards.iter().map(|s| s.queries).collect();
        assert_eq!(queries, [0, 1, 0]);
    }

    fn breaker_config() -> BreakerConfig {
        BreakerConfig {
            degraded_threshold: 2,
            down_threshold: 3,
            cooldown: 2,
        }
    }

    #[test]
    fn breaker_walks_the_escalation_ladder() {
        let config = breaker_config();
        let breaker = CircuitBreaker::new();
        assert_eq!(breaker.state(), BreakerState::Healthy);
        assert_eq!(breaker.admit(&config), Admission::Allow);

        breaker.record_failure(&config);
        assert_eq!(breaker.state(), BreakerState::Healthy);
        breaker.record_failure(&config);
        assert_eq!(breaker.state(), BreakerState::Degraded);
        assert_eq!(breaker.admit(&config), Admission::Allow);

        breaker.record_failure(&config);
        breaker.record_failure(&config);
        assert_eq!(breaker.state(), BreakerState::Degraded);
        breaker.record_failure(&config);
        assert_eq!(breaker.state(), BreakerState::Down);

        let stats = breaker.stats();
        assert_eq!(stats.trips_degraded, 1);
        assert_eq!(stats.trips_down, 1);
        assert_eq!(stats.recoveries, 0);

        // Cooldown: two rejects, then exactly one probe.
        assert_eq!(breaker.admit(&config), Admission::Reject);
        assert_eq!(breaker.admit(&config), Admission::Reject);
        assert_eq!(breaker.admit(&config), Admission::Probe);
        // The probe claim re-armed the cooldown.
        assert_eq!(breaker.admit(&config), Admission::Reject);

        // Probe failure keeps it Down; probe success recovers.
        breaker.record_failure(&config);
        assert_eq!(breaker.state(), BreakerState::Down);
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Healthy);
        assert_eq!(breaker.admit(&config), Admission::Allow);
        let stats = breaker.stats();
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.probes, 1);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let config = breaker_config();
        let breaker = CircuitBreaker::new();
        breaker.record_failure(&config);
        breaker.record_success();
        breaker.record_failure(&config);
        assert_eq!(breaker.state(), BreakerState::Healthy);
        // A success while already Healthy does not count a recovery.
        assert_eq!(breaker.stats().recoveries, 0);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        for attempt in 0..8 {
            let a = backoff(42, attempt);
            let b = backoff(42, attempt);
            assert_eq!(a, b, "backoff must be a pure function");
            let exponential = (4u64 << attempt).min(32);
            assert!(a >= exponential && a <= exponential + 3, "a = {a}");
        }
    }

    #[test]
    fn backoff_schedule_is_pinned_bit_for_bit() {
        // Every retried query pays these pauses against its deadline, so a
        // change to the base, cap, jitter or draw moves which queries still
        // fit a retry: the fleet's deterministic outcomes depend on them.
        for (seed, pauses) in [
            (0, [6, 9, 16]),
            (42, [6, 10, 17]),
            (FleetConfig::default().seed, [6, 10, 16]),
        ] {
            let got: Vec<u64> = (0..=2).map(|attempt| backoff(seed, attempt)).collect();
            assert_eq!(got, pauses, "seed {seed:#x}");
        }
    }

    #[test]
    fn fallback_ordering_prefers_the_nearest_efficiency() {
        // ratios[0]: machine 1 is 1.1× off, machine 2 is 4× off.
        let ratios = vec![
            vec![1.0, 1.1, 4.0],
            vec![0.9, 1.0, f64::NAN],
            vec![0.25, f64::NAN, 1.0],
        ];
        let fallbacks = order_fallbacks(&ratios);
        assert_eq!(fallbacks[0], [1, 2]);
        assert_eq!(fallbacks[1], [0], "NaN pairs are excluded");
        assert_eq!(fallbacks[2], [0]);
    }

    #[test]
    fn shard_error_cost_and_retryability() {
        assert_eq!(ShardError::Unavailable { cost: 3 }.cost(), 3);
        let failed = ShardError::Failed {
            reason: "out of domain".into(),
            cost: 2,
        };
        assert_eq!(failed.cost(), 2);
        // The attempt loop retries an unreachable shard and a timed-out
        // attempt until the retries run out, and never a definitive failure.
        struct Always(ShardError);
        impl ShardClient for Always {
            fn predict(&self, _: &ShardCall<'_>) -> Result<ShardReply, ShardError> {
                Err(self.0.clone())
            }
        }
        for (error, retries) in [
            (ShardError::Unavailable { cost: 3 }, 2),
            (ShardError::Timeout { cost: 9 }, 2),
            (failed, 0),
        ] {
            let machine = harpertown_openblas();
            let fleet = FleetBuilder::new(FleetConfig::default())
                .shard_with_client(empty_shard(machine.clone()), Arc::new(Always(error)))
                .build()
                .unwrap();
            let response = fleet.query(&query_for(machine.id())).unwrap();
            assert_eq!(response.retries, retries);
        }
    }

    #[test]
    fn priorities_order_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn last_good_slot_and_published_handle_are_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<LastGoodSnapshot>();
        assert_sync::<Published>();
    }

    /// A trsm repository for `machine` with one region over the whole
    /// space, answering `value` with the recorded fit error `fit_error`.
    fn one_region_trsm(machine: &MachineConfig, fit_error: f64, value: f64) -> ModelRepository {
        use dla_model::{
            submodel_key, PiecewiseModel, Polynomial, Region, RegionModel, RoutineModel,
            VectorPolynomial,
        };
        let space = Region::new(vec![8, 8], vec![512, 512]);
        let poly = Polynomial::new(2, vec![vec![0, 0]], vec![value]).unwrap();
        let region = RegionModel {
            region: space.clone(),
            poly: VectorPolynomial::new(vec![poly; 5]).unwrap(),
            error: fit_error,
            samples_used: 1,
            revision: 0,
        };
        let mut model = RoutineModel::new(
            Routine::Trsm,
            machine.id(),
            Locality::InCache,
            space.clone(),
        );
        model.insert_submodel(
            submodel_key(&trsm_call()),
            PiecewiseModel::new(space, vec![region], 1),
        );
        let mut repo = ModelRepository::new();
        repo.insert(model);
        repo
    }

    /// A shard serving a one-region trsm model with the given fit error,
    /// queried `queries` times so its pressure is `queries × fit_error`.
    fn pressured_shard(
        machine: MachineConfig,
        fit_error: f64,
        queries: usize,
    ) -> Arc<ModelService> {
        let repo = one_region_trsm(&machine, fit_error, 1000.0);
        let service = Arc::new(ModelService::new(repo, machine, Locality::InCache));
        for _ in 0..queries {
            service.predict_call(&trsm_call()).unwrap();
        }
        service
    }

    fn fleet_of(shards: Vec<Arc<ModelService>>) -> FleetService {
        shards
            .into_iter()
            .fold(FleetBuilder::new(FleetConfig::default()), |b, s| b.shard(s))
            .build()
            .unwrap()
    }

    fn slices(budgets: &[ShardBudget]) -> Vec<usize> {
        budgets.iter().map(|b| b.sample_budget).collect()
    }

    #[test]
    fn budget_splits_evenly_without_pressure() {
        let fleet = fleet_of(vec![
            empty_shard(harpertown_openblas()),
            empty_shard(sandy_bridge_openblas()),
            empty_shard(sandy_bridge_openblas_threaded()),
        ]);
        let budgets = fleet.arbitrate_refinement_budget(10);
        assert!(budgets.iter().all(|b| b.pressure == 0.0));
        // Three equal quotas of 3⅓: the one left-over sample goes to the
        // lowest shard index.
        assert_eq!(slices(&budgets), [4, 3, 3]);
        assert_eq!(slices(&fleet.arbitrate_refinement_budget(9)), [3, 3, 3]);
        assert_eq!(slices(&fleet.arbitrate_refinement_budget(0)), [0, 0, 0]);
    }

    #[test]
    fn budget_slices_follow_pressure_by_largest_remainder() {
        // Pressures 3 × 0.5 = 1.5, 2 × 0.25 = 0.5 and 0.
        let fleet = fleet_of(vec![
            pressured_shard(harpertown_openblas(), 0.5, 3),
            pressured_shard(sandy_bridge_openblas(), 0.25, 2),
            empty_shard(sandy_bridge_openblas_threaded()),
        ]);
        let budgets = fleet.arbitrate_refinement_budget(7);
        let pressures: Vec<f64> = budgets.iter().map(|b| b.pressure).collect();
        assert_eq!(pressures, [1.5, 0.5, 0.0]);
        let ids: Vec<&str> = budgets.iter().map(|b| b.machine_id.as_str()).collect();
        assert_eq!(
            ids,
            [
                harpertown_openblas().id(),
                sandy_bridge_openblas().id(),
                sandy_bridge_openblas_threaded().id()
            ]
        );
        // Quotas 5.25 / 1.75 / 0: the left-over sample goes to the largest
        // fractional part, not to the heaviest shard.
        assert_eq!(slices(&budgets), [5, 2, 0]);
        // Quotas 7.5 / 2.5 / 0: equal fractional parts tie, and the tie goes
        // to the lower shard index.
        assert_eq!(slices(&fleet.arbitrate_refinement_budget(10)), [8, 2, 0]);
        for total in 0..40 {
            let sum: usize = slices(&fleet.arbitrate_refinement_budget(total))
                .iter()
                .sum();
            assert_eq!(sum, total, "slices of {total} must sum to it");
        }
    }

    #[test]
    fn nan_fit_errors_count_as_the_fixed_pressure() {
        let fleet = fleet_of(vec![
            pressured_shard(harpertown_openblas(), f64::NAN, 1),
            pressured_shard(sandy_bridge_openblas(), 0.5, 4),
        ]);
        let budgets = fleet.arbitrate_refinement_budget(100);
        assert_eq!(budgets[0].pressure, 1e12);
        assert_eq!(budgets[1].pressure, 2.0);
        assert_eq!(slices(&budgets), [100, 0]);
    }

    #[test]
    fn each_rejected_publish_strikes_the_breaker_once() {
        let target = pressured_shard(harpertown_openblas(), 0.1, 0);
        let fleet = fleet_of(vec![
            empty_shard(sandy_bridge_openblas()),
            Arc::clone(&target),
        ]);
        let reject = || {
            let poisoned = one_region_trsm(&harpertown_openblas(), 0.1, f64::NAN);
            assert!(target.swap(poisoned).is_err());
        };
        assert_eq!(
            fleet.apply_ledger_pressure(),
            [BreakerState::Healthy, BreakerState::Healthy]
        );
        // The default breaker degrades on its second strike, so the state
        // shows how many strikes one rejection caused.
        reject();
        assert_eq!(
            fleet.apply_ledger_pressure(),
            [BreakerState::Healthy, BreakerState::Healthy]
        );
        // No new rejection: applying again must not strike again.
        assert_eq!(
            fleet.apply_ledger_pressure(),
            [BreakerState::Healthy, BreakerState::Healthy]
        );
        reject();
        assert_eq!(
            fleet.apply_ledger_pressure(),
            [BreakerState::Healthy, BreakerState::Degraded]
        );
    }

    /// A one-shard fleet over a one-region trsm repository answering 1000,
    /// whose call path runs through a fault-free [`ChaosShard`] the test can
    /// force down.
    fn trsm_fleet() -> (
        Arc<ModelService>,
        Arc<ChaosShard<ServiceClient>>,
        FleetService,
    ) {
        let machine = harpertown_openblas();
        let repo = one_region_trsm(&machine, 0.1, 1000.0);
        let service = Arc::new(ModelService::new(repo, machine, Locality::InCache));
        let chaos = Arc::new(ChaosShard::new(
            ServiceClient::new(Arc::clone(&service), 8),
            ChaosConfig::default(),
        ));
        let client: Arc<dyn ShardClient> = chaos.clone();
        let fleet = FleetBuilder::new(FleetConfig::default())
            .shard_with_client(Arc::clone(&service), client)
            .build()
            .unwrap();
        (service, chaos, fleet)
    }

    fn ask(fleet: &FleetService, id: u64, call: Call) -> FleetResponse {
        let query = FleetQuery {
            id,
            call,
            ..query_for(harpertown_openblas().id())
        };
        fleet.query(&query).unwrap()
    }

    #[test]
    fn definitive_call_errors_do_not_strike_the_breaker() {
        let (_, _, fleet) = trsm_fleet();
        assert_eq!(
            ask(&fleet, 0, trsm_call()).served,
            Served::Fresh { generation: 0 }
        );
        // The shard has no syrk model: each syrk call fails definitively.
        // The shard did answer, so its breaker must not be struck — six
        // strikes would take the default breaker down.
        let syrk = Call::syrk(Uplo::Lower, Trans::NoTrans, 64, 64, 1.0, 1.0);
        for id in 1..=6 {
            let response = ask(&fleet, id, syrk.clone());
            assert_eq!(
                response.served,
                Served::Shed {
                    reason: ShedReason::NoFallback
                }
            );
            assert_eq!((response.errors, response.retries), (1, 0));
        }
        assert_eq!(fleet.health().shards[0].state, BreakerState::Healthy);
        for id in 7..=9 {
            assert_eq!(
                ask(&fleet, id, trsm_call()).served,
                Served::Fresh { generation: 0 },
                "query {id} must still reach the live models"
            );
        }
        let health = fleet.health();
        assert_eq!((health.fresh, health.shed, health.queries), (4, 6, 10));
        assert_eq!((health.trips_degraded, health.trips_down), (0, 0));
    }

    #[test]
    fn fresh_answers_carry_the_last_good_slot_across_publications() {
        let (service, chaos, fleet) = trsm_fleet();
        let first = ask(&fleet, 1, trsm_call());
        assert_eq!(first.served, Served::Fresh { generation: 0 });

        let machine = harpertown_openblas();
        service
            .swap(one_region_trsm(&machine, 0.1, 3000.0))
            .unwrap();
        let second = ask(&fleet, 2, trsm_call());
        assert_eq!(second.served, Served::Fresh { generation: 1 });
        assert_ne!(second.summary, first.summary);

        // With the shard down, the slot must answer from the generation the
        // last fresh answer came from, not the first one it retained.
        chaos.set_forced_down(true);
        let stale = ask(&fleet, 3, trsm_call());
        assert_eq!(stale.served, Served::Stale { generation: 1 });
        assert_eq!(stale.summary, second.summary);
        assert_eq!(fleet.health().shards[0].last_good_generation, Some(1));
    }

    #[test]
    fn last_good_slot_is_monotone_in_the_generation() {
        let service = ModelService::new(
            ModelRepository::new(),
            harpertown_openblas(),
            Locality::InCache,
        );
        let slot = LastGoodSnapshot::new();
        assert!(slot.get().is_none());
        assert_eq!(slot.generation(), None);

        let old = service.published();
        service.swap(ModelRepository::new()).unwrap();
        let new = service.published();
        assert!(slot.retain(Arc::clone(&old)));
        assert_eq!(slot.generation(), Some(0));

        // The same generation is refused.
        assert!(!slot.retain(Arc::clone(&old)));
        // A newer generation replaces...
        assert!(slot.retain(Arc::clone(&new)));
        // ...and an older one never regresses the slot.
        assert!(!slot.retain(Arc::clone(&old)));
        let held = slot.get().expect("slot holds a generation");
        assert_eq!(held.generation(), 1);
        assert!(Arc::ptr_eq(&held, &new));
    }
}
