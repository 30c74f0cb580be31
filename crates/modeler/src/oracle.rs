//! The sampling oracle used by the modeling strategies.
//!
//! One oracle serves both kinds of build; its creator picks the measurement.
//! Offline builds ([`SampleOracle::new`]) take [`Sampler::sample_ticks`], the
//! plain median of the repetitions, which cannot fail.  Online rebuilds pass
//! [`Sampler::try_sample_ticks`] to [`SampleOracle::with_cache`]: it retries
//! failed measurements and trims outliers, so it can report a
//! [`SampleError`](dla_sampler::SampleError) and its summaries differ from
//! the plain path's.  Everything else — the point cache, the grid
//! measurement loop and the region fit — is one implementation, generic over
//! the measurement's error type ([`Infallible`] offline).

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{BuildHasherDefault, Hasher};

use dla_blas::Call;
use dla_machine::Executor;
use dla_mat::stats::Summary;
use dla_model::{FitWorkspace, Region, RegionModel};
use dla_sampler::Sampler;

/// Leading dimension the paper fixes all operands to during model generation.
pub const MODEL_LEADING_DIM: usize = 2500;

/// The grid step the Modeler and the online refiner align sample points to
/// (the paper samples only multiples of 8 to avoid small-scale
/// fluctuations).
pub(crate) const GRID_STEP: usize = 8;

/// How an oracle measures a point it has not cached: one call through the
/// sampler, or the error that measurement reports.
pub type Measure<E, Err> = fn(&mut Sampler<E>, &Call) -> Result<Summary, Err>;

/// The offline builds' measurement: [`Sampler::sample_ticks`].
fn plain_ticks<E: Executor>(sampler: &mut Sampler<E>, call: &Call) -> Result<Summary, Infallible> {
    Ok(sampler.sample_ticks(call))
}

/// Fixed-size cache key for a sample point (mirrors `Call::sizes_fixed`: no
/// routine takes more than [`Call::MAX_SIZES`] integer sizes, so points are
/// padded with zeros instead of heap-allocated).
type PointKey = [usize; Call::MAX_SIZES];

/// Multiply-mix hasher for the point cache.
///
/// The cache key is three machine words, hashed on every single grid lookup
/// of every region fit; the default SipHash costs more than the arithmetic it
/// guards against here (the keys are trusted internal sample coordinates, so
/// HashDoS resistance buys nothing).
#[derive(Default)]
struct PointHasher(u64);

impl Hasher for PointHasher {
    // lint: allow(panic-free): chunks(8) yields at most 8 bytes, the scratch word's size
    fn write(&mut self, bytes: &[u8]) {
        // Fixed-size integer keys arrive here as one raw-byte write; fold
        // them a word at a time.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0 ^ u64::from_le_bytes(word)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_usize(&mut self, v: usize) {
        self.0 = (self.0 ^ v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        // Final avalanche so grid-aligned (multiple-of-8) coordinates spread
        // across the table's low bits.
        let mut h = self.0;
        h ^= h >> 29;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^ (h >> 32)
    }
}

type PointCache = HashMap<PointKey, Summary, BuildHasherDefault<PointHasher>>;

/// An opaque, detachable cache of measured points.
///
/// An oracle's cache can be taken out ([`SampleOracle::into_cache`]) and
/// threaded into a later oracle over the *same template*
/// ([`SampleOracle::with_cache`]), so several oracles created in sequence —
/// e.g. one per refined region of one submodel within an online-refinement
/// round — share measurements instead of re-measuring shared grid points
/// (and instead of double-counting them as distinct samples).
#[derive(Default)]
pub struct SampleCache(PointCache);

/// A caching front end between a modeling strategy and the Sampler.
///
/// The oracle owns the call template (routine + flags + scalars) and the
/// measurement its creator chose (see the module docs); a strategy asks for
/// measurements at integer-parameter points, and the oracle instantiates the
/// template at that point, fixes the leading dimensions, measures it, and
/// caches the summary so revisiting a point is free.  Failed measurements
/// are not cached, so a later attempt re-measures them.  The number of
/// *distinct* points sampled is the "number of samples" the paper reports
/// when comparing strategies.
///
/// The cache is keyed by fixed-size arrays and populated through the map's
/// entry API, so a lookup — hit or miss — hashes the point exactly once and
/// never allocates.
pub struct SampleOracle<'a, E: Executor, Err = Infallible> {
    sampler: &'a mut Sampler<E>,
    measure: Measure<E, Err>,
    template: Call,
    cache: PointCache,
    grid_step: usize,
    dim: usize,
    /// Reusable sample-grid buffers of [`SampleOracle::fit_region`].
    points: Vec<Vec<usize>>,
    summaries: Vec<Summary>,
}

impl<'a, E: Executor> SampleOracle<'a, E> {
    /// Creates an oracle for a call template that measures with
    /// [`Sampler::sample_ticks`], as offline builds do.
    pub fn new(sampler: &'a mut Sampler<E>, template: Call, grid_step: usize) -> Self {
        SampleOracle::with_cache(
            sampler,
            template,
            grid_step,
            SampleCache::default(),
            plain_ticks,
        )
    }
}

impl<'a, E: Executor, Err> SampleOracle<'a, E, Err> {
    /// Creates an oracle that measures with `measure`, seeded with a
    /// previously detached cache (see [`SampleCache`]); cached points answer
    /// without touching the sampler.  The cache must come from an oracle over
    /// the same template — points are keyed by sizes only.
    pub fn with_cache(
        sampler: &'a mut Sampler<E>,
        template: Call,
        grid_step: usize,
        cache: SampleCache,
        measure: Measure<E, Err>,
    ) -> Self {
        let dim = template.routine().size_count();
        debug_assert!(dim <= Call::MAX_SIZES);
        SampleOracle {
            sampler,
            measure,
            template: template.with_leading_dims(MODEL_LEADING_DIM),
            cache: cache.0,
            grid_step: grid_step.max(1),
            dim,
            points: Vec::new(),
            summaries: Vec::new(),
        }
    }

    /// Detaches the measured-point cache for reuse by a later oracle over
    /// the same template.
    pub fn into_cache(self) -> SampleCache {
        SampleCache(self.cache)
    }

    /// The grid step the strategies should align sample points to (the paper
    /// samples only multiples of 8 to avoid small-scale fluctuations).
    pub fn grid_step(&self) -> usize {
        self.grid_step
    }

    /// The call template (with normalised leading dimensions).
    pub fn template(&self) -> &Call {
        &self.template
    }

    /// Measures the template at an integer-parameter point (cached).
    pub fn measure(&mut self, point: &[usize]) -> Result<Summary, Err> {
        assert_eq!(
            point.len(),
            self.dim,
            "sample point arity does not match the template routine"
        );
        let mut key: PointKey = [0; Call::MAX_SIZES];
        key[..point.len()].copy_from_slice(point);
        use std::collections::hash_map::Entry;
        match self.cache.entry(key) {
            Entry::Occupied(e) => Ok(*e.get()),
            Entry::Vacant(v) => {
                let summary = (self.measure)(self.sampler, &self.template.with_sizes(point))?;
                Ok(*v.insert(summary))
            }
        }
    }

    /// Measures a whole set of points into a reusable buffer (cleared first);
    /// `out[i]` is the summary for `points[i]`.  Stops at the first point
    /// whose measurement fails, so a fit is given a complete sample set or
    /// none at all.
    pub fn measure_into(
        &mut self,
        points: &[Vec<usize>],
        out: &mut Vec<Summary>,
    ) -> Result<(), Err> {
        out.clear();
        out.reserve(points.len());
        for p in points {
            let s = self.measure(p)?;
            out.push(s);
        }
        Ok(())
    }

    /// Fits one region on its sample grid: measures the region's
    /// `grid_per_dim`-per-dimension grid (aligned to the grid step) and fits
    /// a polynomial of total degree `degree` through `workspace`.  Regions
    /// too small for the degree (fringe cells) fall back to a constant fit
    /// inside [`RegionModel::fit_with_fallback`] without re-preparing the
    /// samples.  The one fit step of both strategies.
    pub(crate) fn fit_region(
        &mut self,
        workspace: &mut FitWorkspace,
        region: &Region,
        grid_per_dim: usize,
        degree: u32,
    ) -> Result<RegionModel, Err> {
        let mut points = std::mem::take(&mut self.points);
        let mut summaries = std::mem::take(&mut self.summaries);
        region.sample_grid_into(grid_per_dim, self.grid_step, &mut points);
        let measured = self.measure_into(&points, &mut summaries);
        let fitted = measured.map(|()| {
            RegionModel::fit_with_fallback(workspace, region.clone(), &points, &summaries, degree)
                // lint: allow(unwrap): fit_with_fallback degrades to a constant fit, which cannot fail with >= 1 sample
                .expect("constant fit succeeds with at least one sample")
        });
        self.points = points;
        self.summaries = summaries;
        fitted
    }

    /// Number of distinct points sampled so far.
    pub fn unique_samples(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_blas::{Diag, Side, Trans, Uplo};
    use dla_machine::presets::harpertown_openblas;
    use dla_machine::SimExecutor;
    use dla_sampler::SamplerConfig;

    fn template() -> Call {
        Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            8,
            8,
            0.5,
        )
    }

    #[test]
    fn caches_points_and_counts_unique_samples() {
        let mut sampler = Sampler::new(
            SimExecutor::new(harpertown_openblas(), 3),
            SamplerConfig::in_cache(4),
        );
        let mut oracle = SampleOracle::new(&mut sampler, template(), 8);
        let Ok(a) = oracle.measure(&[64, 64]);
        let Ok(b) = oracle.measure(&[64, 64]);
        assert_eq!(a, b, "second lookup must come from the cache");
        assert_eq!(oracle.unique_samples(), 1);
        let Ok(_) = oracle.measure(&[128, 64]);
        assert_eq!(oracle.unique_samples(), 2);
        // Each distinct point triggered executor work once (4 repetitions +
        // 1 warm-up); the cached revisit took nothing.
        assert_eq!(sampler.samples_taken(), 2 * 5);
    }

    #[test]
    fn template_leading_dims_are_normalised() {
        let mut sampler = Sampler::new(
            SimExecutor::new(harpertown_openblas(), 3),
            SamplerConfig::in_cache(2),
        );
        let oracle = SampleOracle::new(&mut sampler, template(), 8);
        assert!(oracle
            .template()
            .leading_dims()
            .iter()
            .all(|&ld| ld == MODEL_LEADING_DIM));
        assert_eq!(oracle.grid_step(), 8);
    }

    #[test]
    fn larger_sizes_take_longer() {
        let mut sampler = Sampler::new(
            SimExecutor::new(harpertown_openblas(), 5),
            SamplerConfig::in_cache(4),
        );
        let mut oracle = SampleOracle::new(&mut sampler, template(), 8);
        let Ok(small) = oracle.measure(&[64, 64]);
        let Ok(large) = oracle.measure(&[512, 512]);
        assert!(large.median > small.median * 10.0);
    }

    #[test]
    fn measure_into_returns_summaries_in_point_order() {
        let mut sampler = Sampler::new(
            SimExecutor::new(harpertown_openblas(), 5),
            SamplerConfig::in_cache(2),
        );
        let mut oracle = SampleOracle::new(&mut sampler, template(), 8);
        let points = vec![vec![32, 32], vec![64, 32], vec![32, 32]];
        let mut results = Vec::new();
        let Ok(()) = oracle.measure_into(&points, &mut results);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], results[2], "same point, same cached summary");
        assert_eq!(oracle.unique_samples(), 2);
        // The buffer is cleared and reused, and cached points answer alike.
        let mut buf = Vec::new();
        let Ok(()) = oracle.measure_into(&points, &mut buf);
        assert_eq!(buf, results);
        let Ok(()) = oracle.measure_into(&points[..1], &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0], results[0]);
    }

    #[test]
    fn failed_measurements_are_not_cached() {
        use dla_machine::{ChaosConfig, ChaosExecutor};
        // Every measurement fails until the faults are lifted: the failed
        // point must be measured again, not answered from the cache.
        let mut sampler = Sampler::new(
            ChaosExecutor::new(
                SimExecutor::noiseless(harpertown_openblas()),
                ChaosConfig {
                    transient_probability: 1.0,
                    ..Default::default()
                },
            ),
            SamplerConfig::in_cache(2),
        );
        let mut oracle = SampleOracle::with_cache(
            &mut sampler,
            template(),
            8,
            SampleCache::default(),
            Sampler::try_sample_ticks,
        );
        let points = vec![vec![32, 32], vec![64, 32]];
        let mut out = Vec::new();
        assert!(oracle.measure_into(&points, &mut out).is_err());
        assert_eq!(oracle.unique_samples(), 0);
        let cache = oracle.into_cache();
        sampler.executor_mut().config_mut().transient_probability = 0.0;
        let mut oracle = SampleOracle::with_cache(
            &mut sampler,
            template(),
            8,
            cache,
            Sampler::try_sample_ticks,
        );
        oracle.measure_into(&points, &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(oracle.unique_samples(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_point_panics() {
        let mut sampler = Sampler::new(
            SimExecutor::new(harpertown_openblas(), 3),
            SamplerConfig::in_cache(2),
        );
        let mut oracle = SampleOracle::new(&mut sampler, template(), 8);
        let _ = oracle.measure(&[64]);
    }
}
