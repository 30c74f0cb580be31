//! Summary statistics for repeated measurements.
//!
//! The paper treats the performance of a routine not as a single number but as
//! a probability distribution, summarised by a handful of statistical
//! quantities (Section II-B).  This module provides that summary type; it is
//! shared by the Sampler (which produces summaries of measurements), the
//! Modeler (which fits one polynomial per quantity) and the Predictor (which
//! accumulates per-call estimates into per-algorithm predictions).

/// The statistical quantities tracked for every measured or predicted value.
///
/// The order matters: models are vector-valued with one polynomial per
/// quantity, and the repository serialises them in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantity {
    /// Smallest observed value.
    Min,
    /// Arithmetic mean.
    Mean,
    /// Median (50th percentile).
    Median,
    /// Largest observed value.
    Max,
    /// Sample standard deviation.
    StdDev,
}

impl Quantity {
    /// All quantities, in serialisation order.
    pub const ALL: [Quantity; 5] = [
        Quantity::Min,
        Quantity::Mean,
        Quantity::Median,
        Quantity::Max,
        Quantity::StdDev,
    ];

    /// Short lower-case name used in reports and the repository format.
    pub fn name(&self) -> &'static str {
        match self {
            Quantity::Min => "min",
            Quantity::Mean => "mean",
            Quantity::Median => "median",
            Quantity::Max => "max",
            Quantity::StdDev => "std",
        }
    }

    /// Parses a quantity from its short name.
    pub fn from_name(name: &str) -> Option<Quantity> {
        Quantity::ALL.into_iter().find(|q| q.name() == name)
    }

    /// Index of this quantity in [`Quantity::ALL`].
    pub fn index(&self) -> usize {
        match self {
            Quantity::Min => 0,
            Quantity::Mean => 1,
            Quantity::Median => 2,
            Quantity::Max => 3,
            Quantity::StdDev => 4,
        }
    }
}

/// Why a sample set could not be summarised.
///
/// Historically `Summary::from_samples` returned `Option` and panicked on NaN
/// input; with fault injection in the measurement path, empty and non-finite
/// sample sets are expected events and must surface as structured errors that
/// callers can retry on instead of silently producing NaN statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// No observations were provided.
    Empty,
    /// At least one observation was NaN or infinite.
    NonFinite {
        /// Total number of observations provided.
        total: usize,
        /// How many of them were non-finite.
        non_finite: usize,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples to summarise"),
            StatsError::NonFinite { total, non_finite } => {
                write!(f, "{non_finite} of {total} samples are non-finite")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Bookkeeping from [`Summary::from_samples_robust`]: how many observations
/// were discarded and why, plus the dispersion the trimming rule saw.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RobustTrim {
    /// Observations dropped because they were NaN or infinite.
    pub non_finite: usize,
    /// Finite observations dropped as outliers by the median/MAD rule.
    pub outliers: usize,
    /// Scaled (×1.4826) median-absolute-deviation of the finite observations
    /// *before* trimming; 0 for a single observation.  Callers use this as a
    /// contamination signal: median/MAD trimming breaks down at 50 %
    /// contamination (e.g. two spikes among four kept observations inflate
    /// the median *and* the MAD, so nothing gets trimmed), and a batch whose
    /// scaled MAD is a large fraction of its median is exactly that case —
    /// corrupted past what trimming can repair.
    pub scaled_mad: f64,
}

impl RobustTrim {
    /// Total number of discarded observations.
    pub fn discarded(&self) -> usize {
        self.non_finite + self.outliers
    }
}

/// Summary of a set of repeated measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Smallest observation.
    pub min: f64,
    /// Arithmetic mean of the observations.
    pub mean: f64,
    /// Median of the observations.
    pub median: f64,
    /// Largest observation.
    pub max: f64,
    /// Sample standard deviation (0 for fewer than two observations).
    pub std_dev: f64,
    /// Number of observations the summary was computed from.
    pub count: usize,
}

impl Summary {
    /// Fewest finite observations for which [`Summary::from_samples_robust`]
    /// attempts median/MAD outlier trimming; below this the set summarises
    /// untrimmed (a 2- or 3-point MAD is dominated by any outlier present).
    pub const MIN_ROBUST_SAMPLES: usize = 4;

    /// Computes a summary of the given observations.
    ///
    /// Returns [`StatsError::Empty`] for an empty slice and
    /// [`StatsError::NonFinite`] if any observation is NaN or infinite, so bad
    /// measurements surface as errors instead of propagating NaN statistics
    /// into fits.  Small sample sets (up to 16 observations — every Sampler
    /// repetition count the Modeler uses) are summarised in stack scratch
    /// without allocating.
    pub fn from_samples(samples: &[f64]) -> Result<Summary, StatsError> {
        if samples.is_empty() {
            return Err(StatsError::Empty);
        }
        let non_finite = samples.iter().filter(|v| !v.is_finite()).count();
        if non_finite > 0 {
            return Err(StatsError::NonFinite {
                total: samples.len(),
                non_finite,
            });
        }
        if samples.len() <= 16 {
            let mut buf = [0.0f64; 16];
            let scratch = &mut buf[..samples.len()];
            scratch.copy_from_slice(samples);
            scratch.sort_by(f64::total_cmp);
            return Ok(Summary::from_sorted(scratch));
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(Summary::from_sorted(&sorted))
    }

    /// Computes a summary robust to injected faults: non-finite observations
    /// are discarded, then finite observations farther than `mad_k` scaled
    /// median-absolute-deviations from the median are trimmed as outliers.
    ///
    /// The MAD is scaled by 1.4826 so that for Gaussian noise `mad_k` is
    /// comparable to a standard-deviation multiple.  When the MAD is zero
    /// (at least half the samples identical) a tiny relative tolerance around
    /// the median is used instead, so duplicate-heavy sample sets still shed
    /// isolated spikes.  The median itself always survives trimming, so a set
    /// with at least one finite observation always summarises.
    ///
    /// Fewer than [`Summary::MIN_ROBUST_SAMPLES`] finite observations carry
    /// too little information to estimate a scale at all — the MAD of 2 or 3
    /// points is dominated by the very outlier it is meant to detect — so
    /// small sets skip outlier trimming entirely (non-finite observations are
    /// still discarded) and summarise exactly like [`Summary::from_samples`].
    ///
    /// Returns the summary of the surviving observations together with a
    /// [`RobustTrim`] account of everything discarded.
    pub fn from_samples_robust(
        samples: &[f64],
        mad_k: f64,
    ) -> Result<(Summary, RobustTrim), StatsError> {
        if samples.is_empty() {
            return Err(StatsError::Empty);
        }
        let mut finite: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        let non_finite = samples.len() - finite.len();
        if finite.is_empty() {
            return Err(StatsError::NonFinite {
                total: samples.len(),
                non_finite,
            });
        }
        finite.sort_by(f64::total_cmp);
        let n = finite.len();
        let median = if n % 2 == 1 {
            finite[n / 2]
        } else {
            0.5 * (finite[n / 2 - 1] + finite[n / 2])
        };
        let mut deviations: Vec<f64> = finite.iter().map(|v| (v - median).abs()).collect();
        deviations.sort_by(f64::total_cmp);
        let mad = if n % 2 == 1 {
            deviations[n / 2]
        } else {
            0.5 * (deviations[n / 2 - 1] + deviations[n / 2])
        };
        // 1.4826 makes the MAD a consistent estimator of sigma under Gaussian
        // noise; the zero-MAD fallback keeps exact duplicates and trims spikes.
        let scaled_mad = 1.4826 * mad;
        if n < Summary::MIN_ROBUST_SAMPLES {
            return Ok((
                Summary::from_sorted(&finite),
                RobustTrim {
                    non_finite,
                    outliers: 0,
                    scaled_mad,
                },
            ));
        }
        let threshold = if mad > 0.0 {
            mad_k * scaled_mad
        } else {
            median.abs().max(1.0) * 1e-9
        };
        let kept: Vec<f64> = finite
            .iter()
            .copied()
            .filter(|v| (v - median).abs() <= threshold)
            .collect();
        let (summary, outliers) = if kept.is_empty() {
            // Degenerate threshold (e.g. two distinct duplicates straddling the
            // median): keep the observations closest to the median.
            let best = deviations[0];
            let closest: Vec<f64> = finite
                .iter()
                .copied()
                .filter(|v| (v - median).abs() <= best)
                .collect();
            let outliers = n - closest.len();
            (Summary::from_sorted(&closest), outliers)
        } else {
            let outliers = n - kept.len();
            (Summary::from_sorted(&kept), outliers)
        };
        Ok((
            summary,
            RobustTrim {
                non_finite,
                outliers,
                scaled_mad,
            },
        ))
    }

    /// Summary of an already ascending-sorted, non-empty sample slice.
    fn from_sorted(sorted: &[f64]) -> Summary {
        let n = sorted.len();
        let min = sorted[0];
        let max = sorted[n - 1];
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        };
        let std_dev = if n < 2 {
            0.0
        } else {
            let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        };
        Summary {
            min,
            mean,
            median,
            max,
            std_dev,
            count: n,
        }
    }

    /// A summary describing a single exact value (used for analytic estimates).
    pub fn exact(value: f64) -> Summary {
        Summary {
            min: value,
            mean: value,
            median: value,
            max: value,
            std_dev: 0.0,
            count: 1,
        }
    }

    /// Reads the value of one statistical quantity.
    pub fn get(&self, q: Quantity) -> f64 {
        match q {
            Quantity::Min => self.min,
            Quantity::Mean => self.mean,
            Quantity::Median => self.median,
            Quantity::Max => self.max,
            Quantity::StdDev => self.std_dev,
        }
    }

    /// Builds a summary from explicit per-quantity values in
    /// [`Quantity::ALL`] order (count is synthetic).
    #[inline]
    pub fn from_quantities(values: &[f64; 5]) -> Summary {
        let [min, mean, median, max, std_dev] = *values;
        Summary {
            min,
            mean,
            median,
            max,
            std_dev,
            count: 0,
        }
    }

    /// Returns the per-quantity values in [`Quantity::ALL`] order.
    pub fn to_quantities(&self) -> [f64; 5] {
        [self.min, self.mean, self.median, self.max, self.std_dev]
    }

    /// Accumulates another summary describing an *independent, sequential*
    /// stage of execution: minima, means, medians and maxima add, and the
    /// variances add (standard deviations combine in quadrature).  Each call
    /// takes a square root, so a long sum that needs only its final spread
    /// is cheaper summing the variances and taking the root once.
    pub fn accumulate(&mut self, other: &Summary) {
        self.min += other.min;
        self.mean += other.mean;
        self.median += other.median;
        self.max += other.max;
        self.std_dev = (self.std_dev * self.std_dev + other.std_dev * other.std_dev).sqrt();
        self.count += other.count;
    }

    /// The zero summary, the identity element of [`Summary::accumulate`].
    pub fn zero() -> Summary {
        Summary {
            min: 0.0,
            mean: 0.0,
            median: 0.0,
            max: 0.0,
            std_dev: 0.0,
            count: 0,
        }
    }

    /// Scales every location quantity (and the spread) by a constant factor.
    pub fn scale(&self, factor: f64) -> Summary {
        Summary {
            min: self.min * factor,
            mean: self.mean * factor,
            median: self.median * factor,
            max: self.max * factor,
            std_dev: self.std_dev * factor.abs(),
            count: self.count,
        }
    }
}

/// Computes the `p`-quantile (0 <= p <= 1) of a sample set by linear
/// interpolation between order statistics.
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let pos = p * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Relative error `|estimate - reference| / |reference|`, with a guard for a
/// zero reference value (returns the absolute error in that case).
pub fn relative_error(estimate: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        estimate.abs()
    } else {
        (estimate - reference).abs() / reference.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_simple_samples() {
        let s = Summary::from_samples(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.count, 4);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_odd_count_median() {
        let s = Summary::from_samples(&[10.0, 30.0, 20.0]).unwrap();
        assert_eq!(s.median, 20.0);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(&[7.5]).unwrap();
        assert_eq!(s.min, 7.5);
        assert_eq!(s.max, 7.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn summary_empty_is_structured_error() {
        assert_eq!(Summary::from_samples(&[]), Err(StatsError::Empty));
    }

    #[test]
    fn summary_non_finite_is_structured_error() {
        assert_eq!(
            Summary::from_samples(&[1.0, f64::NAN, 2.0]),
            Err(StatsError::NonFinite {
                total: 3,
                non_finite: 1
            })
        );
        assert_eq!(
            Summary::from_samples(&[f64::INFINITY]),
            Err(StatsError::NonFinite {
                total: 1,
                non_finite: 1
            })
        );
        let msg = StatsError::NonFinite {
            total: 3,
            non_finite: 1,
        }
        .to_string();
        assert!(msg.contains("non-finite"));
    }

    #[test]
    fn robust_summary_trims_non_finite_and_spikes() {
        let samples = [10.0, 10.2, 9.8, f64::NAN, 10.1, 500.0, 9.9, f64::INFINITY];
        let (s, trim) = Summary::from_samples_robust(&samples, 5.0).unwrap();
        assert_eq!(trim.non_finite, 2);
        assert_eq!(trim.outliers, 1);
        assert_eq!(trim.discarded(), 3);
        assert_eq!(s.count, 5);
        assert!(s.max <= 10.2);
        assert!((s.median - 10.0).abs() < 1e-12);
    }

    #[test]
    fn robust_summary_zero_mad_sheds_isolated_spike() {
        // MAD is zero (three identical observations); the spike must still go.
        let (s, trim) = Summary::from_samples_robust(&[1.0, 1.0, 1.0, 100.0], 5.0).unwrap();
        assert_eq!(trim.outliers, 1);
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 1.0);
    }

    #[test]
    fn robust_summary_keeps_clean_samples_intact() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        let (robust, trim) = Summary::from_samples_robust(&samples, 5.0).unwrap();
        let plain = Summary::from_samples(&samples).unwrap();
        assert_eq!(trim.discarded(), 0);
        // median 2.5, deviations {0.5, 0.5, 1.5, 1.5}, MAD 1.0, scaled 1.4826.
        assert!((trim.scaled_mad - 1.4826).abs() < 1e-12);
        assert_eq!(robust, plain);
    }

    #[test]
    fn robust_summary_all_non_finite_is_error() {
        assert_eq!(
            Summary::from_samples_robust(&[f64::NAN, f64::NAN], 5.0),
            Err(StatsError::NonFinite {
                total: 2,
                non_finite: 2
            })
        );
        assert_eq!(
            Summary::from_samples_robust(&[], 5.0),
            Err(StatsError::Empty)
        );
    }

    #[test]
    fn exact_and_quantity_roundtrip() {
        let s = Summary::exact(3.0);
        for q in Quantity::ALL {
            match q {
                Quantity::StdDev => assert_eq!(s.get(q), 0.0),
                _ => assert_eq!(s.get(q), 3.0),
            }
        }
        let vals = s.to_quantities();
        let back = Summary::from_quantities(&vals);
        assert_eq!(back.mean, 3.0);
        assert_eq!(back.std_dev, 0.0);
        // Distinct values pin the order: `from_quantities` and `index`
        // both follow `Quantity::ALL`.
        let distinct = [1.0, 2.0, 3.0, 4.0, 5.0];
        let back = Summary::from_quantities(&distinct);
        assert_eq!(back.to_quantities(), distinct);
        for (i, q) in Quantity::ALL.into_iter().enumerate() {
            assert_eq!(q.index(), i);
            assert_eq!(back.get(q), distinct[i]);
        }
    }

    #[test]
    fn quantity_names_roundtrip() {
        for q in Quantity::ALL {
            assert_eq!(Quantity::from_name(q.name()), Some(q));
        }
        assert_eq!(Quantity::from_name("bogus"), None);
        assert_eq!(Quantity::Median.index(), 2);
    }

    #[test]
    fn accumulate_adds_and_combines_variance() {
        let mut acc = Summary::zero();
        let a = Summary {
            min: 1.0,
            mean: 2.0,
            median: 2.0,
            max: 3.0,
            std_dev: 3.0,
            count: 10,
        };
        let b = Summary {
            min: 10.0,
            mean: 20.0,
            median: 20.0,
            max: 30.0,
            std_dev: 4.0,
            count: 10,
        };
        acc.accumulate(&a);
        acc.accumulate(&b);
        assert_eq!(acc.min, 11.0);
        assert_eq!(acc.mean, 22.0);
        assert_eq!(acc.max, 33.0);
        assert!((acc.std_dev - 5.0).abs() < 1e-12);
        assert_eq!(acc.count, 20);
    }

    #[test]
    fn scale_summary() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0]).unwrap().scale(2.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert_eq!(s.mean, 4.0);
        let neg = Summary::exact(1.0).scale(-1.0);
        assert!(neg.std_dev >= 0.0);
    }

    #[test]
    fn quantiles() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&v, 1.5), None);
        assert_eq!(quantile(&[42.0], 0.9), Some(42.0));
    }

    #[test]
    fn relative_error_handles_zero_reference() {
        assert_eq!(relative_error(11.0, 10.0), 0.1);
        assert_eq!(relative_error(9.0, 10.0), 0.1);
        assert_eq!(relative_error(0.5, 0.0), 0.5);
        assert_eq!(relative_error(-11.0, -10.0), 0.1);
    }
}
