//! Online adaptive refinement: closing the loop from serving telemetry back
//! to the Sampler.
//!
//! Offline, Adaptive Refinement (Section III-C2) spends samples where the
//! *fit* is bad.  Online, the interesting signal is where the fit is bad
//! **and** traffic actually lands: the serving layer's [`RefinementReport`]
//! ranks the served `(routine, flags, region)` cells by
//! `queries × fit_error`, and the [`OnlineRefiner`] walks that ranking with
//! a fixed sample budget, re-samples only the offending regions through the
//! offline build's own Adaptive Refinement loop
//! ([`RefinementConfig::try_build_with`], with the [`SampleOracle`]
//! measuring through the sampler's retrying, outlier-trimming path and the
//! compiled fit engine's [`FitWorkspace`]), and produces a **delta
//! repository** holding just the rebuilt flag-variant submodels.  Publishing
//! the delta through the serving layer's submodel-granular merge
//! (`ModelService::merge` → `ModelRepository::merge_models`) hot-swaps the
//! refreshed regions in without disturbing in-flight readers — the paper's
//! error-driven sampling, running continuously under load.
//!
//! Rebuilt regions carry their provenance: each replacement region's
//! [`revision`](dla_model::RegionModel::revision) is the replaced region's
//! revision plus one, so a repeatedly-rebuilt region is visible in later
//! reports.
//!
//! A cell is identified by its routine, its submodel [`FlagKey`] and its
//! region; the per-cell circuit breaker's policy (how many strikes open it,
//! how long it cools down, what fit counts as a failure, how often a round
//! retries a rebuild) is fixed by this module's constants.

use std::collections::BTreeMap;

use dla_blas::{Call, Routine};
use dla_machine::{Executor, Locality};
use dla_model::{
    error_order, submodel_key, FitWorkspace, FlagKey, ModelRepository, PiecewiseModel,
    RefinementReport, Region, RepositoryValidator, RoutineModel,
};
use dla_sampler::{Sampler, SamplerConfig};

use crate::oracle::GRID_STEP;
use crate::{RefinementConfig, SampleCache, SampleOracle};

/// Cells with fewer queries than this are ignored (traffic too cold to
/// justify spending samples on).
pub const MIN_QUERIES: u64 = 1;

/// Consecutive rebuild failures after which a cell's circuit breaker opens
/// and the cell is quarantined (skipped instead of rebuilt).
pub const QUARANTINE_THRESHOLD: u32 = 2;

/// Rounds a quarantined cell sits out before a half-open probe rebuild is
/// allowed.  A successful probe closes the breaker; a failed probe re-opens
/// it for another cooldown.
pub const QUARANTINE_COOLDOWN: u32 = 2;

/// A rebuilt fit is counted as failed when any replacement region's fit
/// error is non-finite or exceeds `MAX_ERROR_FACTOR` times the *larger* of
/// the configured `fit.error_bound` and the replaced region's own error.
/// Refinement legitimately accepts errors above the bound for minimum-size
/// regions (a discontinuity inside an unsplittable region), so the gate is
/// relative to the error precedent the cell already set: only fits
/// catastrophically worse than both the bound and what they replace — the
/// signature of corrupt measurements — trip the breaker.
pub const MAX_ERROR_FACTOR: f64 = 10.0;

/// Build attempts per cell and round before the failure counts as a strike.
/// The round's sample cache survives a failed build — every point measured
/// before the failure stays cached — so a reattempt pays only for the points
/// still missing.  Against independent per-measurement faults this compounds
/// fast: a cell needing dozens of grid points is all-or-nothing within one
/// attempt, but near-certain across two.
pub const REBUILD_ATTEMPTS: usize = 2;

/// Configuration of one online-refinement round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineRefinerConfig {
    /// How rebuilt regions are re-fitted (error bound, minimum region size,
    /// fit grid, degree) — the offending region is treated as the space of a
    /// fresh Adaptive Refinement run, so a badly-fitting region may come
    /// back as several smaller, tighter regions.
    pub fit: RefinementConfig,
    /// Budget of *distinct* sample points per [`OnlineRefiner::refine`]
    /// round (the paper's currency for comparing strategies).  Refinement
    /// stops taking on new cells once the budget is spent; the cell being
    /// refined when the budget runs out is completed, so the budget may be
    /// overshot by at most one region rebuild.
    pub sample_budget: usize,
    /// Upper bound on the number of report cells refined per round.
    pub max_cells: usize,
}

impl Default for OnlineRefinerConfig {
    fn default() -> Self {
        OnlineRefinerConfig {
            fit: RefinementConfig::default(),
            sample_budget: 512,
            max_cells: 16,
        }
    }
}

/// Provenance of one quarantined `(routine, flags, region)` cell, reported in
/// [`RefineOutcome::quarantined`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedCell {
    /// The routine of the quarantined cell.
    pub routine: Routine,
    /// The flag combination (submodel key) of the quarantined cell.
    pub flags: FlagKey,
    /// The offending region.
    pub region: Region,
    /// Consecutive rebuild failures recorded for the cell.
    pub failures: u32,
    /// Rounds remaining before a half-open probe; `0` means the next report
    /// of this cell triggers a probe rebuild.
    pub cooldown_remaining: u32,
}

/// What one [`OnlineRefiner::refine`] round did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RefineOutcome {
    /// Report cells examined (in ranking order).
    pub cells_examined: usize,
    /// Cells whose region was actually rebuilt.
    pub cells_refined: usize,
    /// Regions removed from their submodels (one per refined cell).
    pub regions_rebuilt: usize,
    /// Replacement regions produced (≥ `regions_rebuilt`; a rebuild may
    /// split the offending region).
    pub regions_added: usize,
    /// Distinct sample points spent across all rebuilds (including rebuilds
    /// that then failed — budget is spent whether or not the fit lands).
    pub samples_used: usize,
    /// Cells skipped because the snapshot no longer contains the reported
    /// region (the report outlived a swap/merge).
    pub skipped_stale: usize,
    /// Cells skipped because no registered template covers their
    /// routine/flag combination.
    pub skipped_no_template: usize,
    /// Rebuild attempts that failed this round (unrecoverable sample errors
    /// or fits rejected by the validator/error bound); the failed cell keeps
    /// its old regions and is **never** merged.
    pub fit_failures: usize,
    /// Cells whose circuit breaker newly opened this round.
    pub cells_quarantined: usize,
    /// Cells skipped because their breaker was open and still cooling down.
    pub skipped_quarantined: usize,
    /// Half-open probe rebuilds attempted on cooled-down quarantined cells.
    pub probes: usize,
    /// Quarantined cells whose probe rebuild succeeded (breaker closed).
    pub cells_recovered: usize,
    /// Sampler retry attempts performed during this round.
    pub sample_retries: u64,
    /// Measurements discarded during this round (non-finite + outliers).
    pub samples_discarded: u64,
    /// Every cell still quarantined after this round, with provenance.
    pub quarantined: Vec<QuarantinedCell>,
}

/// Re-samples and rebuilds the regions a [`RefinementReport`] names, within
/// a sample budget.
///
/// The refiner owns a [`Sampler`] (with its own executor — typically a fork
/// of the build executor, or one observing the *current* machine behaviour
/// when the machine has drifted) and one [`FitWorkspace`] that persists
/// across rounds, exactly like the offline [`Modeler`](crate::Modeler).
/// Templates registered via [`with_templates`](OnlineRefiner::with_templates)
/// tell it how to turn a `(routine, flags)` cell back into a concrete call.
pub struct OnlineRefiner<E: Executor> {
    sampler: Sampler<E>,
    workspace: FitWorkspace,
    templates: Vec<Call>,
    config: OnlineRefinerConfig,
    /// Circuit-breaker state per `(routine, flags, region)` cell, persisted
    /// across rounds.  Keyed by the routine discriminant plus the flag and
    /// region coordinates (all `Ord`); the state carries the original typed
    /// cell for provenance reporting.
    quarantine: BTreeMap<QuarantineKey, QuarantineState>,
}

type QuarantineKey = (u32, FlagKey, Vec<usize>, Vec<usize>);

#[derive(Debug, Clone)]
struct QuarantineState {
    routine: Routine,
    flags: FlagKey,
    region: Region,
    /// Consecutive rebuild failures; the breaker is open once this reaches
    /// [`QUARANTINE_THRESHOLD`].
    failures: u32,
    /// Rounds left before a half-open probe is allowed (only meaningful
    /// while the breaker is open).
    cooldown: u32,
}

fn quarantine_key(routine: Routine, flags: FlagKey, region: &Region) -> QuarantineKey {
    (
        routine as u32,
        flags,
        region.lo().to_vec(),
        region.hi().to_vec(),
    )
}

impl<E: Executor> OnlineRefiner<E> {
    /// Creates a refiner measuring through `executor` under `locality`, with
    /// `repetitions` measurements per sample point.
    pub fn new(
        executor: E,
        locality: Locality,
        repetitions: usize,
        config: OnlineRefinerConfig,
    ) -> OnlineRefiner<E> {
        let sampler_config = SamplerConfig {
            locality,
            repetitions,
            warmup_discard: 1,
        };
        OnlineRefiner {
            sampler: Sampler::new(executor, sampler_config),
            workspace: FitWorkspace::new(),
            templates: Vec::new(),
            config,
            quarantine: BTreeMap::new(),
        }
    }

    /// Registers the call templates the refiner may be asked to re-sample
    /// (one representative call per routine/flag combination; extra
    /// templates are harmless).  Returns `self` for chaining.
    pub fn with_templates(mut self, templates: &[Call]) -> OnlineRefiner<E> {
        self.templates.extend_from_slice(templates);
        self
    }

    /// The refiner's configuration.
    pub fn config(&self) -> OnlineRefinerConfig {
        self.config
    }

    /// Replaces the configuration for subsequent rounds (a long-lived
    /// refiner keeps its sampler, templates and fit workspace across rounds;
    /// the budget/fit parameters may still vary per round).
    pub fn set_config(&mut self, config: OnlineRefinerConfig) {
        self.config = config;
    }

    /// Sets only the per-round distinct-sample budget, keeping every other
    /// knob (and all cross-round state: quarantine breakers, sampler,
    /// templates, fit workspace) in place.  This is the fleet tier's budget
    /// arbitration hook: each round, the fleet splits one shared measurement
    /// budget across its shards proportionally to drift × traffic
    /// (`FleetService::arbitrate_refinement_budget`) and hands every shard's
    /// refiner its slice through this method.
    pub fn set_sample_budget(&mut self, samples: usize) {
        self.config.sample_budget = samples;
    }

    /// The machine id of the refiner's executor.
    pub fn machine_id(&self) -> String {
        self.sampler.machine().id()
    }

    /// The locality scenario rebuilt models describe.
    pub fn locality(&self) -> Locality {
        self.sampler.config().locality
    }

    /// Total raw measurements taken across all rounds.
    pub fn measurements_taken(&self) -> usize {
        self.sampler.samples_taken()
    }

    /// One refinement round: walks `report` hottest-first, rebuilds up to
    /// `max_cells` offending regions within the sample budget, and returns a
    /// **delta repository** holding only the routine models whose submodels
    /// changed (and, inside them, only the changed flag variants).
    ///
    /// The delta is meant for a submodel-granular publish:
    /// `service.merge(delta)` replaces exactly the rebuilt flag variants and
    /// leaves everything else serving untouched.  `snapshot` must be the
    /// repository generation the report was produced against; cells whose
    /// region no longer exists in the snapshot are counted as stale and
    /// skipped.  The refiner's machine id and locality must match the
    /// report's (a report from a different machine is answered with an empty
    /// delta).
    pub fn refine(
        &mut self,
        snapshot: &ModelRepository,
        report: &RefinementReport,
    ) -> (ModelRepository, RefineOutcome) {
        let mut outcome = RefineOutcome::default();
        if report.machine_id != self.machine_id() || report.locality != self.locality() {
            return (ModelRepository::new(), outcome);
        }
        let telemetry_before = self.sampler.telemetry();
        // One round has passed for every open breaker: tick the cooldowns.
        // A cell quarantined with cooldown `k` is skipped for `k - 1` full
        // rounds and probed (half-open) in the `k`-th.
        for state in self.quarantine.values_mut() {
            if state.failures >= QUARANTINE_THRESHOLD && state.cooldown > 0 {
                state.cooldown -= 1;
            }
        }
        // Working set of *rebuilt flag variants only*, keyed by routine: a
        // later cell of the same submodel must see the earlier cell's
        // rebuild, and the delta must carry nothing but what changed —
        // emitting untouched sibling variants (or models merely examined and
        // then skipped) would let the merge roll back anything published
        // concurrently since the snapshot was taken.
        let mut rebuilt: BTreeMap<&'static str, RoutineModel> = BTreeMap::new();
        // One measurement cache per (routine, flags) for the whole round:
        // adjacent regions of one submodel share grid-aligned boundary
        // points, which must be measured and budgeted once, not once per
        // cell.  Scoped to this round so every round takes fresh
        // measurements (the machine may still be drifting).
        let mut caches: BTreeMap<(u32, FlagKey), SampleCache> = BTreeMap::new();
        let mut budget = self.config.sample_budget;

        for cell in &report.cells {
            if outcome.cells_refined >= self.config.max_cells || budget == 0 {
                break;
            }
            outcome.cells_examined += 1;
            if cell.queries < MIN_QUERIES {
                continue;
            }
            let Some(template) = self
                .templates
                .iter()
                .find(|t| t.routine() == cell.routine && submodel_key(t) == cell.flags)
                .cloned()
            else {
                outcome.skipped_no_template += 1;
                continue;
            };
            let Some(snapshot_model) =
                snapshot.get(cell.routine, &report.machine_id, report.locality)
            else {
                outcome.skipped_stale += 1;
                continue;
            };
            // The current state of this flag variant: rebuilt earlier in
            // this round, or straight from the snapshot.
            let Some(submodel) = rebuilt
                .get(cell.routine.name())
                .and_then(|m| m.submodel(cell.flags))
                .or_else(|| snapshot_model.submodel(cell.flags))
            else {
                outcome.skipped_stale += 1;
                continue;
            };
            let Some(position) = submodel
                .regions
                .iter()
                .position(|r| r.region == cell.region)
            else {
                outcome.skipped_stale += 1;
                continue;
            };

            // Circuit breaker: an open breaker skips the cell while cooling
            // down, and turns the first rebuild after cooldown into a
            // half-open probe (success closes the breaker, failure re-opens
            // it for another cooldown).
            let key = quarantine_key(cell.routine, cell.flags, &cell.region);
            let mut probing = false;
            if let Some(state) = self.quarantine.get(&key) {
                if state.failures >= QUARANTINE_THRESHOLD {
                    if state.cooldown > 0 {
                        outcome.skipped_quarantined += 1;
                        continue;
                    }
                    probing = true;
                    outcome.probes += 1;
                }
            }

            // Re-sample and re-fit the offending region: a fresh Adaptive
            // Refinement run over just this region, through the fallible
            // retrying measurement path, the shared fit workspace and the
            // round's shared per-submodel point cache.
            let revision = submodel.regions[position].revision + 1;
            let space = submodel.space.clone();
            let total_samples = submodel.total_samples;
            let mut regions = submodel.regions.clone();
            let cache_key = (cell.routine as u32, cell.flags);
            let cache = caches.remove(&cache_key).unwrap_or_default();
            let (built, samples) = {
                let mut oracle = SampleOracle::with_cache(
                    &mut self.sampler,
                    template.clone(),
                    GRID_STEP,
                    cache,
                    Sampler::try_sample_ticks,
                );
                let already_measured = oracle.unique_samples();
                let mut built =
                    self.config
                        .fit
                        .try_build_with(&mut oracle, &mut self.workspace, &cell.region);
                // Failed builds keep their measured points in the oracle's
                // cache, so each reattempt only pays for the missing ones.
                for _ in 1..REBUILD_ATTEMPTS {
                    if built.is_ok() {
                        break;
                    }
                    built = self.config.fit.try_build_with(
                        &mut oracle,
                        &mut self.workspace,
                        &cell.region,
                    );
                }
                let samples = oracle.unique_samples() - already_measured;
                caches.insert(cache_key, oracle.into_cache());
                (built, samples)
            };
            // Budget is spent whether or not the rebuild lands: failed
            // attempts consumed real measurements.
            budget = budget.saturating_sub(samples);
            outcome.samples_used += samples;

            let replaced_error = submodel.regions[position].error;
            let acceptable = built
                .as_ref()
                .map(|fresh| self.fit_acceptable(fresh, replaced_error))
                .unwrap_or(false);
            let Some(fresh) = built.ok().filter(|_| acceptable) else {
                // Rebuild failed — record a strike; the cell keeps its old
                // regions and nothing of this attempt reaches the delta.
                outcome.fit_failures += 1;
                let state = self
                    .quarantine
                    .entry(key)
                    .or_insert_with(|| QuarantineState {
                        routine: cell.routine,
                        flags: cell.flags,
                        region: cell.region.clone(),
                        failures: 0,
                        cooldown: 0,
                    });
                state.failures += 1;
                if state.failures >= QUARANTINE_THRESHOLD {
                    if state.failures == QUARANTINE_THRESHOLD {
                        outcome.cells_quarantined += 1;
                    }
                    state.cooldown = QUARANTINE_COOLDOWN;
                }
                continue;
            };
            // Success: close the breaker (and clear sub-threshold strikes).
            if self.quarantine.remove(&key).is_some() && probing {
                outcome.cells_recovered += 1;
            }
            outcome.cells_refined += 1;
            outcome.regions_rebuilt += 1;
            outcome.regions_added += fresh.region_count();

            regions.remove(position);
            for mut region in fresh.regions {
                region.revision = revision;
                regions.push(region);
            }
            regions.sort_by(|a, b| error_order(a.error, b.error));
            let updated = PiecewiseModel::new(space, regions, total_samples + samples);
            rebuilt
                .entry(cell.routine.name())
                .or_insert_with(|| {
                    RoutineModel::new(
                        cell.routine,
                        report.machine_id.clone(),
                        report.locality,
                        snapshot_model.space.clone(),
                    )
                })
                .insert_submodel(cell.flags, updated);
        }

        // The delta carries only the routine models — and within them, only
        // the flag variants — that were actually rebuilt; the consumer
        // merges them at submodel granularity.
        let mut delta = ModelRepository::new();
        for (_, model) in rebuilt {
            delta.insert(model);
        }
        let round_telemetry = self.sampler.telemetry().since(&telemetry_before);
        outcome.sample_retries = round_telemetry.retries;
        outcome.samples_discarded = round_telemetry.discarded();
        outcome.quarantined = self.quarantined_cells();
        (delta, outcome)
    }

    /// Whether a rebuilt submodel is fit to serve: structurally valid
    /// (finite coefficients, full cover of the rebuilt region — see
    /// [`RepositoryValidator`]) and with every region's fit error finite and
    /// under `MAX_ERROR_FACTOR × max(fit.error_bound, replaced_error)` — the
    /// replaced region's own error is the precedent a legitimate rebuild is
    /// allowed to match (see [`MAX_ERROR_FACTOR`]).
    fn fit_acceptable(&self, fresh: &PiecewiseModel, replaced_error: f64) -> bool {
        if RepositoryValidator::new().validate_submodel(fresh).is_err() {
            return false;
        }
        let baseline = if replaced_error.is_finite() {
            self.config.fit.error_bound.max(replaced_error)
        } else {
            self.config.fit.error_bound
        };
        let bound = MAX_ERROR_FACTOR * baseline;
        fresh
            .regions
            .iter()
            .all(|r| r.error.is_finite() && r.error <= bound)
    }

    /// Every cell whose circuit breaker is currently open, with provenance.
    pub fn quarantined_cells(&self) -> Vec<QuarantinedCell> {
        self.quarantine
            .values()
            .filter(|s| s.failures >= QUARANTINE_THRESHOLD)
            .map(|s| QuarantinedCell {
                routine: s.routine,
                flags: s.flags,
                region: s.region.clone(),
                failures: s.failures,
                cooldown_remaining: s.cooldown,
            })
            .collect()
    }

    /// Mutable access to the underlying executor — chaos scenarios use this
    /// to change fault schedules between refinement rounds.
    pub fn executor_mut(&mut self) -> &mut E {
        self.sampler.executor_mut()
    }

    /// Raises (or lowers) the sampler's per-point retry budget.  A refiner
    /// running against a fault-prone harness wants more attempts per point:
    /// one transient failure anywhere in a measurement batch fails the whole
    /// attempt, so the per-cell failure probability compounds quickly with
    /// the number of grid points.
    pub fn set_max_retries(&mut self, max_retries: usize) {
        self.sampler.set_max_retries(max_retries);
    }
}

/// Collects every distinct `(routine, flags)` template from a list of call
/// templates, in `(routine, submodel key)` order: the first call with a
/// given routine and key wins.  The offline
/// [`Modeler::build_routine_model`](crate::Modeler::build_routine_model)
/// builds one submodel per template this returns.
pub fn dedupe_templates(templates: &[Call]) -> Vec<Call> {
    let mut by_key: BTreeMap<(u32, FlagKey), Call> = BTreeMap::new();
    for t in templates {
        by_key
            .entry((t.routine() as u32, submodel_key(t)))
            .or_insert_with(|| t.clone());
    }
    by_key.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_blas::{Diag, Routine, Side, Trans, Uplo};
    use dla_machine::presets::harpertown_openblas;
    use dla_machine::SimExecutor;
    use dla_model::{HotRegion, Region};

    fn trsm_template() -> Call {
        Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            8,
            8,
            1.0,
        )
    }

    /// A one-routine repository built offline with the given executor.
    fn build_snapshot(executor: SimExecutor) -> ModelRepository {
        let mut modeler = crate::Modeler::new(
            executor,
            Locality::InCache,
            1,
            crate::Strategy::Refinement(RefinementConfig {
                error_bound: 0.15,
                min_region_size: 128,
                grid_per_dim: 3,
                degree: 2,
            }),
        );
        let mut repo = ModelRepository::new();
        modeler.populate_repository(
            &mut repo,
            &[(
                vec![trsm_template()],
                Region::new(vec![8, 8], vec![512, 512]),
            )],
        );
        repo
    }

    fn report_for(snapshot: &ModelRepository, machine_id: &str, queries: u64) -> RefinementReport {
        let model = snapshot
            .get(Routine::Trsm, machine_id, Locality::InCache)
            .unwrap();
        let flags = submodel_key(&trsm_template());
        let submodel = model.submodel(flags).unwrap();
        let cells = submodel
            .regions
            .iter()
            .map(|r| HotRegion {
                routine: Routine::Trsm,
                flags,
                region: r.region.clone(),
                fit_error: r.error,
                revision: r.revision,
                queries,
            })
            .collect();
        RefinementReport::ranked(machine_id.to_string(), Locality::InCache, 0, queries, cells)
    }

    #[test]
    fn refine_rebuilds_only_reported_regions_and_bumps_revisions() {
        let machine = harpertown_openblas();
        let snapshot = build_snapshot(SimExecutor::noiseless(machine.clone()));
        let machine_id = machine.id();
        let report = report_for(&snapshot, &machine_id, 10);
        let region_count_before = snapshot
            .get(Routine::Trsm, &machine_id, Locality::InCache)
            .unwrap()
            .submodel(submodel_key(&trsm_template()))
            .unwrap()
            .region_count();

        let mut refiner = OnlineRefiner::new(
            SimExecutor::noiseless(machine.clone()),
            Locality::InCache,
            1,
            OnlineRefinerConfig {
                max_cells: 1,
                ..Default::default()
            },
        )
        .with_templates(&[trsm_template()]);
        let (delta, outcome) = refiner.refine(&snapshot, &report);

        assert_eq!(outcome.cells_refined, 1);
        assert_eq!(outcome.regions_rebuilt, 1);
        assert!(outcome.regions_added >= 1);
        assert!(outcome.samples_used > 0);
        assert_eq!(refiner.measurements_taken(), 2 * outcome.samples_used);
        assert_eq!(delta.len(), 1);

        let rebuilt = delta
            .get(Routine::Trsm, &machine_id, Locality::InCache)
            .unwrap();
        let submodel = rebuilt.submodel(submodel_key(&trsm_template())).unwrap();
        // The untouched regions are still revision 0; the rebuilt ones are 1.
        let revised: Vec<u32> = submodel.regions.iter().map(|r| r.revision).collect();
        assert!(revised.contains(&1));
        assert!(revised.contains(&0), "untouched regions keep revision 0");
        assert_eq!(
            submodel.region_count(),
            region_count_before - outcome.regions_rebuilt + outcome.regions_added
        );
        // Coverage is preserved: the rebuilt submodel still answers
        // everywhere the old one did.
        assert!(submodel.covers_space(7));
    }

    #[test]
    fn refine_respects_budget_and_skips_cold_or_stale_cells() {
        let machine = harpertown_openblas();
        let snapshot = build_snapshot(SimExecutor::noiseless(machine.clone()));
        let machine_id = machine.id();
        let mut report = report_for(&snapshot, &machine_id, 10);
        // Add a stale cell (bounds that no region has) and a cold cell.
        report.cells.push(HotRegion {
            routine: Routine::Trsm,
            flags: submodel_key(&trsm_template()),
            region: Region::new(vec![1, 1], vec![3, 3]),
            fit_error: 9.0,
            revision: 0,
            queries: 10,
        });
        report.cells.push(HotRegion {
            routine: Routine::Trsm,
            flags: submodel_key(&trsm_template()),
            region: Region::new(vec![8, 8], vec![512, 512]),
            fit_error: 9.0,
            revision: 0,
            queries: 0,
        });

        // Zero budget: nothing is refined, the delta is empty.
        let mut refiner = OnlineRefiner::new(
            SimExecutor::noiseless(machine.clone()),
            Locality::InCache,
            1,
            OnlineRefinerConfig {
                sample_budget: 0,
                ..Default::default()
            },
        )
        .with_templates(&[trsm_template()]);
        let (delta, outcome) = refiner.refine(&snapshot, &report);
        assert!(delta.is_empty());
        assert_eq!(outcome.cells_refined, 0);

        // With budget: stale and cold cells are skipped, the rest refined.
        let mut refiner = OnlineRefiner::new(
            SimExecutor::noiseless(machine.clone()),
            Locality::InCache,
            1,
            OnlineRefinerConfig::default(),
        )
        .with_templates(&[trsm_template()]);
        let (_, outcome) = refiner.refine(&snapshot, &report);
        assert!(outcome.cells_refined >= 1);
        assert!(outcome.skipped_stale >= 1);

        // No template for the cell's routine: counted, not refined.
        let mut refiner = OnlineRefiner::new(
            SimExecutor::noiseless(machine.clone()),
            Locality::InCache,
            1,
            OnlineRefinerConfig::default(),
        );
        let (delta, outcome) = refiner.refine(&snapshot, &report);
        assert!(delta.is_empty());
        assert!(outcome.skipped_no_template >= 1);

        // A report from another machine is refused outright.
        let mut foreign = report_for(&snapshot, &machine_id, 5);
        foreign.machine_id = "other-machine".to_string();
        let mut refiner = OnlineRefiner::new(
            SimExecutor::noiseless(machine),
            Locality::InCache,
            1,
            OnlineRefinerConfig::default(),
        )
        .with_templates(&[trsm_template()]);
        let (delta, outcome) = refiner.refine(&snapshot, &foreign);
        assert!(delta.is_empty());
        assert_eq!(outcome.cells_examined, 0);
    }

    #[test]
    fn delta_carries_only_rebuilt_flag_variants() {
        // Regression: the delta used to hold full clones of every touched
        // routine model (all flag variants, even models merely examined and
        // then skipped as stale), so merging it could roll back sibling
        // variants published concurrently since the snapshot.
        let machine = harpertown_openblas();
        let right_template = Call::trsm(
            Side::Right,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            8,
            8,
            1.0,
        );
        let mut modeler = crate::Modeler::new(
            SimExecutor::noiseless(machine.clone()),
            Locality::InCache,
            1,
            crate::Strategy::Refinement(RefinementConfig {
                error_bound: 0.15,
                min_region_size: 128,
                grid_per_dim: 3,
                degree: 2,
            }),
        );
        let mut snapshot = ModelRepository::new();
        modeler.populate_repository(
            &mut snapshot,
            &[(
                vec![trsm_template(), right_template.clone()],
                Region::new(vec![8, 8], vec![512, 512]),
            )],
        );
        let machine_id = machine.id();
        assert_eq!(
            snapshot
                .get(Routine::Trsm, &machine_id, Locality::InCache)
                .unwrap()
                .submodel_count(),
            2
        );

        // Report: one valid cell for the *left* variant only, plus a stale
        // cell for a routine the snapshot does not hold.
        let mut report = report_for(&snapshot, &machine_id, 10);
        report.cells.truncate(1);
        report.cells.push(HotRegion {
            routine: Routine::Gemm,
            flags: FlagKey::from_slice(&[0, 0]).unwrap(),
            region: Region::new(vec![8, 8, 8], vec![64, 64, 64]),
            fit_error: 1.0,
            revision: 0,
            queries: 5,
        });
        let gemm_template = Call::gemm(Trans::NoTrans, Trans::NoTrans, 8, 8, 8, 1.0, 1.0);
        let mut refiner = OnlineRefiner::new(
            SimExecutor::noiseless(machine),
            Locality::InCache,
            1,
            OnlineRefinerConfig::default(),
        )
        .with_templates(&[trsm_template(), right_template, gemm_template]);
        let (delta, outcome) = refiner.refine(&snapshot, &report);

        assert_eq!(outcome.cells_refined, 1);
        assert_eq!(outcome.skipped_stale, 1);
        // The delta holds exactly one routine model with exactly the one
        // rebuilt flag variant — no untouched sibling, no stale gemm model.
        assert_eq!(delta.len(), 1);
        let model = delta
            .get(Routine::Trsm, &machine_id, Locality::InCache)
            .unwrap();
        assert_eq!(model.submodel_count(), 1);
        assert!(model.submodel(submodel_key(&trsm_template())).is_some());
        assert!(delta
            .get(Routine::Gemm, &machine_id, Locality::InCache)
            .is_none());
    }

    #[test]
    fn shared_round_cache_measures_boundary_points_once() {
        // Two adjacent cells of one submodel share grid-aligned boundary
        // points; with the per-round shared cache those points are measured
        // and budgeted once.
        let machine = harpertown_openblas();
        let snapshot = build_snapshot(SimExecutor::noiseless(machine.clone()));
        let machine_id = machine.id();
        let report = report_for(&snapshot, &machine_id, 10);
        assert!(report.cells.len() >= 2, "need adjacent regions to share");
        let mut refiner = OnlineRefiner::new(
            SimExecutor::noiseless(machine),
            Locality::InCache,
            1,
            OnlineRefinerConfig::default(),
        )
        .with_templates(&[trsm_template()]);
        let (_, outcome) = refiner.refine(&snapshot, &report);
        assert!(outcome.cells_refined >= 2);
        // Every distinct point is measured exactly once (repetitions 1 +
        // warm-up 1 = 2 raw measurements per distinct point): if boundary
        // points were re-measured per cell, measurements would exceed this.
        assert_eq!(refiner.measurements_taken(), 2 * outcome.samples_used);
    }

    #[test]
    fn failing_cells_are_quarantined_cooled_down_probed_and_recovered() {
        use dla_machine::{ChaosConfig, ChaosExecutor};

        let machine = harpertown_openblas();
        let snapshot = build_snapshot(SimExecutor::noiseless(machine.clone()));
        let machine_id = machine.id();
        let mut report = report_for(&snapshot, &machine_id, 10);
        report.cells.truncate(1);
        let hot = report.cells[0].clone();

        // Every measurement fails until the schedule is lifted below.
        let chaos = ChaosExecutor::new(
            SimExecutor::noiseless(machine.clone()),
            ChaosConfig {
                seed: 7,
                transient_probability: 1.0,
                ..Default::default()
            },
        );
        let mut refiner =
            OnlineRefiner::new(chaos, Locality::InCache, 1, OnlineRefinerConfig::default())
                .with_templates(&[trsm_template()]);

        // Round 1: rebuild fails — first strike, breaker still closed.
        let (delta, o1) = refiner.refine(&snapshot, &report);
        assert_eq!(delta.len(), 0, "a failed rebuild must not reach the delta");
        assert_eq!(o1.fit_failures, 1);
        assert_eq!(o1.cells_quarantined, 0);
        assert!(o1.quarantined.is_empty());
        assert!(o1.sample_retries > 0, "retries must be accounted");

        // Round 2: second strike opens the breaker with full provenance.
        let (delta, o2) = refiner.refine(&snapshot, &report);
        assert_eq!(delta.len(), 0);
        assert_eq!(o2.fit_failures, 1);
        assert_eq!(o2.cells_quarantined, 1);
        assert_eq!(o2.quarantined.len(), 1);
        let q = &o2.quarantined[0];
        assert_eq!(q.routine, Routine::Trsm);
        assert_eq!(q.flags, hot.flags);
        assert_eq!(q.region, hot.region);
        assert_eq!(q.failures, 2);
        assert_eq!(q.cooldown_remaining, 2);
        assert_eq!(refiner.quarantined_cells(), o2.quarantined);

        // Round 3: breaker open — the cell is skipped without sampling.
        let (delta, o3) = refiner.refine(&snapshot, &report);
        assert_eq!(delta.len(), 0);
        assert_eq!(o3.skipped_quarantined, 1);
        assert_eq!(o3.fit_failures, 0);
        assert_eq!(o3.probes, 0);
        assert_eq!(o3.samples_used, 0);

        // Round 4: cooldown expired — half-open probe fails and re-opens.
        let (delta, o4) = refiner.refine(&snapshot, &report);
        assert_eq!(delta.len(), 0);
        assert_eq!(o4.probes, 1);
        assert_eq!(o4.fit_failures, 1);
        assert_eq!(o4.cells_quarantined, 0, "re-opening is not a new cell");
        assert_eq!(o4.quarantined[0].failures, 3);
        assert_eq!(o4.quarantined[0].cooldown_remaining, 2);

        // Round 5: cooling down again.
        let (_, o5) = refiner.refine(&snapshot, &report);
        assert_eq!(o5.skipped_quarantined, 1);

        // Lift the faults: the machine has recovered.
        refiner.executor_mut().config_mut().transient_probability = 0.0;

        // Round 6: the probe succeeds — breaker closes, the cell is rebuilt
        // and the delta finally carries the refreshed submodel.
        let (delta, o6) = refiner.refine(&snapshot, &report);
        assert_eq!(o6.probes, 1);
        assert_eq!(o6.cells_recovered, 1);
        assert_eq!(o6.cells_refined, 1);
        assert!(o6.quarantined.is_empty());
        assert!(refiner.quarantined_cells().is_empty());
        assert_eq!(delta.len(), 1);
        let rebuilt = delta
            .get(Routine::Trsm, &machine_id, Locality::InCache)
            .unwrap();
        assert!(rebuilt.submodel(hot.flags).unwrap().covers_space(5));
    }

    #[test]
    fn sub_threshold_strikes_clear_on_success() {
        use dla_machine::{ChaosConfig, ChaosExecutor};

        let machine = harpertown_openblas();
        let snapshot = build_snapshot(SimExecutor::noiseless(machine.clone()));
        let machine_id = machine.id();
        let mut report = report_for(&snapshot, &machine_id, 10);
        report.cells.truncate(1);

        let chaos = ChaosExecutor::new(
            SimExecutor::noiseless(machine.clone()),
            ChaosConfig {
                seed: 11,
                transient_probability: 1.0,
                ..Default::default()
            },
        );
        let mut refiner =
            OnlineRefiner::new(chaos, Locality::InCache, 1, OnlineRefinerConfig::default())
                .with_templates(&[trsm_template()]);

        // One strike, then a clean round: the strike record is cleared, so
        // two later failures are needed to quarantine (no stale strikes).
        let (_, o1) = refiner.refine(&snapshot, &report);
        assert_eq!(o1.fit_failures, 1);
        refiner.executor_mut().config_mut().transient_probability = 0.0;
        let (_, o2) = refiner.refine(&snapshot, &report);
        assert_eq!(o2.cells_refined, 1);
        assert_eq!(o2.cells_recovered, 0, "closed breaker means no recovery");
        refiner.executor_mut().config_mut().transient_probability = 1.0;
        let (_, o3) = refiner.refine(&snapshot, &report);
        assert_eq!(o3.fit_failures, 1);
        assert_eq!(o3.cells_quarantined, 0, "strike count restarted from zero");
    }

    #[test]
    fn dedupe_templates_keeps_one_call_per_submodel_key() {
        let a = trsm_template();
        let b = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::Unit,
            16,
            16,
            -1.0,
        );
        let c = Call::trsm(
            Side::Right,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            8,
            8,
            1.0,
        );
        let gemm = Call::gemm(Trans::NoTrans, Trans::NoTrans, 8, 8, 8, 1.0, 1.0);
        let deduped = dedupe_templates(&[a.clone(), b, c.clone(), gemm.clone()]);
        // a and b share a key (diag folded): 3 distinct templates remain.
        assert_eq!(deduped.len(), 3);
        assert!(deduped.iter().any(|t| submodel_key(t) == submodel_key(&a)));
        assert!(deduped.iter().any(|t| submodel_key(t) == submodel_key(&c)));
        assert!(deduped.iter().any(|t| t.routine() == Routine::Gemm));
    }
}
