//! Performance signatures of BLAS implementations.
//!
//! The paper models three libraries (OpenBLAS, MKL, ATLAS) whose performance
//! differs in asymptotic efficiency, sensitivity to small dimensions, internal
//! blocking kinks, call overheads and measurement noise.  A [`BlasProfile`]
//! captures exactly those degrees of freedom for the simulated machine; the
//! presets are calibrated to reproduce the qualitative signatures reported in
//! the paper (see `EXPERIMENTS.md`), not the absolute tick counts of any
//! specific library version.

use dla_blas::{Call, Routine};

/// Per-routine performance parameters of an implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutineParams {
    /// Asymptotic fraction of peak the kernel reaches for large, well-shaped
    /// problems (0..1).
    pub peak_efficiency: f64,
    /// Dimension at which the kernel reaches half of its asymptotic
    /// efficiency (the saturation constant of the `d / (d + k0)` curve).
    pub half_dim: f64,
    /// Fraction of the ideal speedup retained when the call runs on multiple
    /// threads (0..1); models how well the kernel's shape parallelises.
    pub parallel_efficiency: f64,
    /// Optional locality decay: when set, the efficiency is additionally
    /// multiplied by `decay / (decay + max_dim)`.  Used for unblocked,
    /// level-2-like kernels whose working set grows with the problem and whose
    /// cache behaviour therefore degrades sharply on long panels.
    pub large_dim_decay: Option<f64>,
}

impl RoutineParams {
    /// Creates a parameter set.
    pub fn new(peak_efficiency: f64, half_dim: f64, parallel_efficiency: f64) -> RoutineParams {
        RoutineParams {
            peak_efficiency,
            half_dim,
            parallel_efficiency,
            large_dim_decay: None,
        }
    }

    /// Adds a locality-decay constant (see [`RoutineParams::large_dim_decay`]).
    pub fn with_large_dim_decay(mut self, decay: f64) -> RoutineParams {
        self.large_dim_decay = Some(decay);
        self
    }
}

/// The performance signature of one BLAS implementation on one architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct BlasProfile {
    /// Implementation name ("openblas-like", ...).
    pub name: String,
    /// Per-routine parameters for `dgemm`.
    pub gemm: RoutineParams,
    /// Per-routine parameters for `dtrsm`.
    pub trsm: RoutineParams,
    /// Per-routine parameters for `dtrmm`.
    pub trmm: RoutineParams,
    /// Per-routine parameters for the unblocked triangular inversion.
    pub trtri_unb: RoutineParams,
    /// Per-routine parameters for the unblocked Sylvester solve.
    pub sylv_unb: RoutineParams,
    /// Fixed cost of every library call, in cycles.
    pub call_overhead_cycles: f64,
    /// Extra cycles per spawned worker when the call runs multi-threaded.
    pub thread_spawn_cycles: f64,
    /// Relative efficiency spread across flag combinations (0 = flags do not
    /// matter, 0.15 = up to 15 % between the best and worst combination).
    pub flag_spread: f64,
    /// Internal blocking dimension: crossing a multiple of it costs a small
    /// efficiency dip (creates the kinks visible in the paper's Fig. III.2/3).
    pub internal_block: usize,
    /// Relative efficiency lost right after crossing an internal-block
    /// boundary.
    pub block_kink_drop: f64,
    /// Extra slowdown factor applied to out-of-cache executions of small
    /// working sets (latency-dominated regime).
    pub out_of_cache_small_penalty: f64,
    /// Residual out-of-cache slowdown for large working sets (streaming
    /// regime).
    pub out_of_cache_stream_penalty: f64,
    /// Relative standard deviation of the multiplicative measurement noise.
    pub noise_sigma: f64,
    /// Probability that a measurement is an outlier.
    pub outlier_probability: f64,
    /// Multiplicative slowdown of an outlier measurement.
    pub outlier_factor: f64,
    /// Multiplicative slowdown of the very first call into the library
    /// (initialisation cost, paper Section II-B).
    pub init_overhead_factor: f64,
}

impl BlasProfile {
    /// Parameters for a given routine.
    pub fn routine_params(&self, routine: Routine) -> RoutineParams {
        match routine {
            Routine::Gemm => self.gemm,
            Routine::Trsm => self.trsm,
            Routine::Trmm => self.trmm,
            Routine::TrtriUnb => self.trtri_unb,
            Routine::SylvUnb => self.sylv_unb,
        }
    }

    /// Deterministic efficiency factor in `[1 - flag_spread, 1]` for the flag
    /// combination of `call`.
    ///
    /// The paper observes (Fig. III.1) that flag combinations affect
    /// performance with no obvious pattern, except that `diag` has only a
    /// minor impact.  We reproduce that with a small hash of the routine's
    /// stable number ([`Routine::index`]) and the flag indices, where the
    /// last flag of `dtrsm`/`dtrmm` (`diag`) is given a much smaller weight.
    /// Renumbering a routine would change every measurement of it.
    pub fn flag_factor(&self, call: &Call) -> f64 {
        let (flags, flag_len) = call.flag_indices_fixed();
        let flags = &flags[..flag_len];
        if flags.is_empty() || self.flag_spread == 0.0 {
            return 1.0;
        }
        let routine = call.routine();
        let mut h: u64 = 0xcbf29ce484222325 ^ (routine as u64).wrapping_mul(0x100000001b3);
        let diag_position = match routine {
            Routine::Trsm | Routine::Trmm => Some(3),
            Routine::TrtriUnb => Some(1),
            _ => None,
        };
        let mut diag_value = 0usize;
        for (i, &f) in flags.iter().enumerate() {
            if Some(i) == diag_position {
                diag_value = f as usize;
                continue;
            }
            h ^= (f as u64 + 1)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .rotate_left(i as u32 * 13);
            h = h.wrapping_mul(0x100000001b3);
        }
        // Mix the profile name so different implementations rank flag
        // combinations differently (as in the paper).
        for b in self.name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let major = 1.0 - self.flag_spread * unit;
        // `diag` contributes at most a tenth of the spread.
        let minor = 1.0 - self.flag_spread * 0.1 * diag_value as f64;
        major * minor
    }
}

/// An OpenBLAS-like profile: high asymptotic efficiency, modest call
/// overhead, clearly visible internal-blocking kinks, low noise.
pub fn openblas_like() -> BlasProfile {
    BlasProfile {
        name: "openblas-like".to_string(),
        gemm: RoutineParams::new(0.90, 24.0, 0.85),
        trsm: RoutineParams::new(0.80, 28.0, 0.75),
        trmm: RoutineParams::new(0.83, 26.0, 0.80),
        trtri_unb: RoutineParams::new(0.16, 12.0, 0.20).with_large_dim_decay(512.0),
        sylv_unb: RoutineParams::new(0.24, 20.0, 0.20).with_large_dim_decay(96.0),
        call_overhead_cycles: 2_000.0,
        thread_spawn_cycles: 12_000.0,
        flag_spread: 0.12,
        internal_block: 512,
        block_kink_drop: 0.06,
        out_of_cache_small_penalty: 1.6,
        out_of_cache_stream_penalty: 0.18,
        noise_sigma: 0.025,
        outlier_probability: 0.015,
        outlier_factor: 1.9,
        init_overhead_factor: 14.0,
    }
}

/// An MKL-like profile: the highest asymptotic efficiency and the fastest
/// saturation, slightly larger noise.
pub fn mkl_like() -> BlasProfile {
    BlasProfile {
        name: "mkl-like".to_string(),
        gemm: RoutineParams::new(0.93, 18.0, 0.88),
        trsm: RoutineParams::new(0.86, 20.0, 0.80),
        trmm: RoutineParams::new(0.86, 20.0, 0.82),
        trtri_unb: RoutineParams::new(0.18, 10.0, 0.22).with_large_dim_decay(512.0),
        sylv_unb: RoutineParams::new(0.26, 18.0, 0.22).with_large_dim_decay(104.0),
        call_overhead_cycles: 3_000.0,
        thread_spawn_cycles: 10_000.0,
        flag_spread: 0.10,
        internal_block: 384,
        block_kink_drop: 0.03,
        out_of_cache_small_penalty: 1.2,
        out_of_cache_stream_penalty: 0.12,
        noise_sigma: 0.035,
        outlier_probability: 0.02,
        outlier_factor: 1.7,
        init_overhead_factor: 18.0,
    }
}

/// An ATLAS-like profile: noticeably lower asymptotic efficiency, slower
/// saturation, higher noise — the weakest of the three implementations.
pub fn atlas_like() -> BlasProfile {
    BlasProfile {
        name: "atlas-like".to_string(),
        gemm: RoutineParams::new(0.72, 40.0, 0.70),
        trsm: RoutineParams::new(0.60, 44.0, 0.62),
        trmm: RoutineParams::new(0.62, 42.0, 0.65),
        trtri_unb: RoutineParams::new(0.12, 14.0, 0.18).with_large_dim_decay(448.0),
        sylv_unb: RoutineParams::new(0.20, 24.0, 0.18).with_large_dim_decay(80.0),
        call_overhead_cycles: 4_000.0,
        thread_spawn_cycles: 16_000.0,
        flag_spread: 0.15,
        internal_block: 256,
        block_kink_drop: 0.05,
        out_of_cache_small_penalty: 2.1,
        out_of_cache_stream_penalty: 0.25,
        noise_sigma: 0.045,
        outlier_probability: 0.03,
        outlier_factor: 2.2,
        init_overhead_factor: 11.0,
    }
}

/// A Sandy Bridge flavour of the OpenBLAS-like profile.
///
/// Compared to the Harpertown flavour, the triangular level-3 kernels are
/// relatively stronger and `dgemm` with a thin inner dimension saturates more
/// slowly — this reproduces the paper's observation (Fig. IV.3) that on Sandy
/// Bridge the trmm-dominated variant 1 becomes the fastest triangular-inversion
/// variant while the gemm-dominated variant 3 loses its lead.
pub fn openblas_like_sandy_bridge() -> BlasProfile {
    let mut p = openblas_like();
    p.name = "openblas-like-snb".to_string();
    p.gemm = RoutineParams::new(0.82, 90.0, 0.70);
    p.trsm = RoutineParams::new(0.84, 36.0, 0.85);
    p.trmm = RoutineParams::new(0.88, 30.0, 0.88);
    p.internal_block = 768;
    p.block_kink_drop = 0.04;
    p
}

/// The multi-threaded flavour of the Sandy Bridge OpenBLAS-like profile.
///
/// Thread-spawn costs are significant and the thin rank-`b` `dgemm` updates of
/// the blocked algorithms parallelise poorly compared to the large triangular
/// solves, which is what produces the variant re-ordering and the
/// variant-3/variant-4 crossover of the paper's Fig. IV.4.
pub fn openblas_like_sandy_bridge_threaded() -> BlasProfile {
    let mut p = openblas_like_sandy_bridge();
    p.name = "openblas-like-snb-mt".to_string();
    p.gemm.parallel_efficiency = 0.28;
    p.trsm.parallel_efficiency = 0.80;
    p.trmm.parallel_efficiency = 0.85;
    p.trtri_unb.parallel_efficiency = 0.10;
    p.sylv_unb.parallel_efficiency = 0.10;
    p.thread_spawn_cycles = 30_000.0;
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_blas::{Diag, Side, Trans, Uplo};

    #[test]
    fn presets_are_ordered_as_expected() {
        let o = openblas_like();
        let m = mkl_like();
        let a = atlas_like();
        assert!(m.gemm.peak_efficiency > o.gemm.peak_efficiency);
        assert!(o.gemm.peak_efficiency > a.gemm.peak_efficiency);
        // unblocked kernels are much less efficient than level-3 kernels
        assert!(o.trtri_unb.peak_efficiency < 0.3 * o.gemm.peak_efficiency);
    }

    #[test]
    fn routine_params_dispatch() {
        let p = openblas_like();
        assert_eq!(p.routine_params(Routine::Gemm), p.gemm);
        assert_eq!(p.routine_params(Routine::SylvUnb), p.sylv_unb);
        assert_eq!(p.routine_params(Routine::TrtriUnb), p.trtri_unb);
    }

    #[test]
    fn flag_factor_is_deterministic_and_bounded() {
        let p = openblas_like();
        let c = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            256,
            256,
            0.5,
        );
        let f1 = p.flag_factor(&c);
        let f2 = p.flag_factor(&c);
        assert_eq!(f1, f2);
        assert!(f1 > 1.0 - p.flag_spread * 1.2 && f1 <= 1.0);
    }

    #[test]
    fn diag_flag_has_minor_impact() {
        let p = openblas_like();
        let base = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            256,
            256,
            0.5,
        );
        let unit = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::Unit,
            256,
            256,
            0.5,
        );
        let other = Call::trsm(
            Side::Right,
            Uplo::Upper,
            Trans::NoTrans,
            Diag::NonUnit,
            256,
            256,
            0.5,
        );
        let d_diag = (p.flag_factor(&base) - p.flag_factor(&unit)).abs();
        let d_major = (p.flag_factor(&base) - p.flag_factor(&other)).abs();
        assert!(d_diag <= p.flag_spread * 0.1 + 1e-12);
        // major flags generally move the factor more than diag does
        assert!(d_major + 1e-12 >= d_diag);
    }

    #[test]
    fn different_implementations_rank_flags_differently_or_equal() {
        // The factor depends on the profile name, so at least one combination
        // differs between two implementations.
        let o = openblas_like();
        let m = mkl_like();
        let mut any_diff = false;
        for side in Side::VALUES {
            for uplo in Uplo::VALUES {
                for trans in Trans::VALUES {
                    let c = Call::trsm(side, uplo, trans, Diag::NonUnit, 128, 128, 1.0);
                    if (o.flag_factor(&c) - m.flag_factor(&c)).abs() > 1e-6 {
                        any_diff = true;
                    }
                }
            }
        }
        assert!(any_diff);
    }

    #[test]
    fn gemm_without_flag_spread_is_unaffected() {
        let mut p = openblas_like();
        p.flag_spread = 0.0;
        let c = Call::gemm(Trans::NoTrans, Trans::Trans, 64, 64, 64, 1.0, 0.0);
        assert_eq!(p.flag_factor(&c), 1.0);
    }

    #[test]
    fn sandy_bridge_profiles_shift_the_balance() {
        let h = openblas_like();
        let s = openblas_like_sandy_bridge();
        assert!(h.gemm.peak_efficiency > h.trmm.peak_efficiency);
        assert!(s.trmm.peak_efficiency > s.gemm.peak_efficiency);
        let t = openblas_like_sandy_bridge_threaded();
        assert!(t.gemm.parallel_efficiency < t.trsm.parallel_efficiency);
    }
}
