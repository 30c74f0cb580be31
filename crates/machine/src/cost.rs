//! The deterministic analytical cost model.
//!
//! Given a machine configuration, a routine call and a memory-locality
//! scenario, [`estimate_ticks`] returns the modelled execution time in clock
//! ticks.  The model is a roofline with several refinements chosen so the
//! phenomena the paper's methodology depends on are present:
//!
//! * **Kernel efficiency** saturates with the smallest size argument
//!   (`d / (d + k0)`), is scaled by an implementation-specific asymptotic
//!   peak per routine, and by a deterministic flag-combination factor.
//! * **Cache-capacity steps**: the operand working set determines which cache
//!   level serves the data; crossing a capacity boundary lowers the memory
//!   bandwidth and therefore introduces kinks in the ticks-vs-size curves.
//! * **Internal blocking kinks**: crossing multiples of the implementation's
//!   internal block size costs a small efficiency dip.
//! * **Out-of-cache penalty**: latency-dominated for small working sets and a
//!   residual streaming cost for large ones.
//! * **Multi-threading**: the compute part scales with the per-routine
//!   parallel efficiency, a per-call spawn cost is added, and DRAM bandwidth
//!   is shared among threads.
//! * **Call overhead**: every call pays a fixed cost, which is what makes very
//!   small block sizes unattractive in the block-size tuning experiments.
//!
//! The stochastic layer (noise, outliers, library initialisation) lives in the
//! executor, not here: the cost model itself is deterministic so that tests
//! and the Modeler's reference grids are reproducible.

use dla_blas::{flops::is_empty_call, Call};

use crate::{Locality, MachineConfig};

/// Deterministic kernel efficiency (fraction of peak) for a call.
pub fn kernel_efficiency(machine: &MachineConfig, call: &Call) -> f64 {
    let profile = &machine.blas;
    let params = profile.routine_params(call.routine());
    let (sizes, size_len) = call.sizes_fixed();
    let sizes = &sizes[..size_len];
    let min_dim = sizes.iter().copied().filter(|&s| s > 0).min().unwrap_or(0);
    if min_dim == 0 {
        return params.peak_efficiency * 0.01;
    }
    let max_dim = sizes.iter().copied().max().unwrap_or(min_dim);

    // Saturation with the smallest dimension.
    let saturation = min_dim as f64 / (min_dim as f64 + params.half_dim);

    // Mild penalty for very skewed shapes (panel-like operands reach a lower
    // fraction of peak than square ones).
    let aspect = max_dim as f64 / min_dim as f64;
    let shape_factor = 1.0 / (1.0 + 0.04 * aspect.ln().max(0.0));

    // Internal blocking: right after crossing a multiple of the internal block
    // size the kernel runs with a partially filled tile.
    let ib = profile.internal_block.max(1);
    let remainder = max_dim % ib;
    let kink_factor = if max_dim >= ib && remainder > 0 && remainder < ib / 4 {
        1.0 - profile.block_kink_drop
    } else {
        1.0
    };

    let flag_factor = profile.flag_factor(call);

    // Locality decay for unblocked, level-2-like kernels: their efficiency
    // collapses on long panels whose columns no longer fit in cache.
    let decay_factor = match params.large_dim_decay {
        Some(decay) => decay / (decay + max_dim as f64),
        None => 1.0,
    };

    (params.peak_efficiency * saturation * shape_factor * kink_factor * flag_factor * decay_factor)
        .max(1e-4)
}

/// Memory bandwidth (bytes per cycle) and latency (cycles) that serve the
/// call's working set under the given locality.
fn memory_channel(machine: &MachineConfig, bytes: usize, locality: Locality) -> (f64, f64) {
    match locality {
        Locality::InCache => match machine.cpu.smallest_fitting_cache(bytes) {
            Some(level) => (level.bandwidth_bytes_per_cycle, level.latency_cycles),
            None => (
                machine.cpu.dram_bandwidth_bytes_per_cycle,
                machine.cpu.dram_latency_cycles,
            ),
        },
        Locality::OutOfCache => (
            machine.cpu.dram_bandwidth_bytes_per_cycle,
            machine.cpu.dram_latency_cycles,
        ),
    }
}

/// Out-of-cache slowdown factor: latency-dominated for small working sets,
/// residual streaming overhead for large ones.
fn out_of_cache_factor(machine: &MachineConfig, bytes: usize) -> f64 {
    let profile = &machine.blas;
    let reference = machine
        .cpu
        .last_level_cache()
        .map(|c| c.size_bytes as f64)
        .unwrap_or(1.0e6);
    let smallness = (-(bytes as f64) / reference).exp();
    1.0 + profile.out_of_cache_small_penalty * smallness + profile.out_of_cache_stream_penalty
}

/// Estimates the execution time of `call` in ticks.
pub fn estimate_ticks(machine: &MachineConfig, call: &Call, locality: Locality) -> f64 {
    let profile = &machine.blas;
    if is_empty_call(call) {
        return profile.call_overhead_cycles;
    }

    let threads = machine.effective_threads();
    let flops = call.flops();
    let eff = kernel_efficiency(machine, call);
    let params = profile.routine_params(call.routine());

    // Sequential compute time.
    let compute_seq = flops / (machine.cpu.flops_per_cycle * eff);

    // Parallel compute time: ideal scaling damped by the routine's parallel
    // efficiency, plus a spawn cost per extra worker.
    let (compute, spawn_overhead) = if threads > 1 {
        let speedup = 1.0 + (threads as f64 - 1.0) * params.parallel_efficiency;
        (
            compute_seq / speedup,
            profile.thread_spawn_cycles * (threads as f64 - 1.0),
        )
    } else {
        (compute_seq, 0.0)
    };

    // Memory time.
    let bytes = call.operand_bytes();
    let (bw_per_core, latency) = memory_channel(machine, bytes, locality);
    // Cache bandwidth scales with the number of cores touching private
    // caches; DRAM bandwidth is shared.
    let dram_bound =
        (bw_per_core - machine.cpu.dram_bandwidth_bytes_per_cycle).abs() < f64::EPSILON;
    let total_bw = if dram_bound {
        bw_per_core
    } else {
        bw_per_core * threads as f64
    };
    let memory = bytes as f64 / total_bw + latency;

    let overhead = profile.call_overhead_cycles + spawn_overhead;

    // Compute and memory partially overlap; the non-dominant term leaks a
    // quarter of its cost into the total.
    let mut ticks = compute.max(memory) + 0.25 * compute.min(memory) + overhead;
    if matches!(locality, Locality::OutOfCache) {
        ticks *= out_of_cache_factor(machine, bytes);
    }
    ticks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blasprofile::{atlas_like, mkl_like, openblas_like};
    use crate::CpuSpec;
    use dla_blas::{Diag, Side, Trans, Uplo};

    fn harpertown_openblas() -> MachineConfig {
        MachineConfig::new(CpuSpec::harpertown(), openblas_like(), 1)
    }

    fn square_gemm(n: usize) -> Call {
        Call::gemm(Trans::NoTrans, Trans::NoTrans, n, n, n, 1.0, 0.0)
    }

    #[test]
    fn efficiency_saturates_with_size() {
        let m = harpertown_openblas();
        let e_small = kernel_efficiency(&m, &square_gemm(8));
        let e_mid = kernel_efficiency(&m, &square_gemm(128));
        let e_big = kernel_efficiency(&m, &square_gemm(1024));
        assert!(e_small < e_mid && e_mid < e_big);
        assert!(e_big < 1.0);
        assert!(e_big > 0.6, "large gemm should approach peak, got {e_big}");
        let e_256 = kernel_efficiency(&m, &square_gemm(256));
        assert!(e_256 > 0.0 && e_256 < 1.0);
    }

    #[test]
    fn ticks_grow_with_size_and_follow_cubic_trend() {
        let m = harpertown_openblas();
        let t256 = estimate_ticks(&m, &square_gemm(256), Locality::InCache);
        let t512 = estimate_ticks(&m, &square_gemm(512), Locality::InCache);
        assert!(t512 > t256 * 5.0, "expected roughly cubic growth");
        assert!(t512 < t256 * 12.0);
    }

    #[test]
    fn in_cache_is_faster_than_out_of_cache() {
        let m = harpertown_openblas();
        let call = Call::trsm(
            Side::Right,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::Unit,
            512,
            128,
            0.37,
        );
        let ic = estimate_ticks(&m, &call, Locality::InCache);
        let oc = estimate_ticks(&m, &call, Locality::OutOfCache);
        assert!(
            oc > ic * 1.2,
            "out-of-cache {oc} should exceed in-cache {ic}"
        );
    }

    #[test]
    fn out_of_cache_gap_shrinks_for_huge_working_sets() {
        let m = harpertown_openblas();
        let small = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            64,
            64,
            1.0,
        );
        let huge = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            1600,
            1600,
            1.0,
        );
        let ratio_small = estimate_ticks(&m, &small, Locality::OutOfCache)
            / estimate_ticks(&m, &small, Locality::InCache);
        let ratio_huge = estimate_ticks(&m, &huge, Locality::OutOfCache)
            / estimate_ticks(&m, &huge, Locality::InCache);
        assert!(ratio_small > 1.0);
        assert!(ratio_small > ratio_huge);
    }

    #[test]
    fn implementations_are_ranked_for_large_gemm() {
        let cpu = CpuSpec::harpertown();
        let call = square_gemm(768);
        let t_mkl = estimate_ticks(
            &MachineConfig::new(cpu.clone(), mkl_like(), 1),
            &call,
            Locality::InCache,
        );
        let t_open = estimate_ticks(
            &MachineConfig::new(cpu.clone(), openblas_like(), 1),
            &call,
            Locality::InCache,
        );
        let t_atlas = estimate_ticks(
            &MachineConfig::new(cpu, atlas_like(), 1),
            &call,
            Locality::InCache,
        );
        assert!(t_mkl < t_open);
        assert!(t_open < t_atlas);
    }

    #[test]
    fn empty_calls_cost_only_overhead() {
        let m = harpertown_openblas();
        let call = Call::gemm(Trans::NoTrans, Trans::NoTrans, 0, 128, 64, 1.0, 0.0);
        for locality in Locality::ALL {
            assert_eq!(
                estimate_ticks(&m, &call, locality),
                m.blas.call_overhead_cycles
            );
        }
    }

    #[test]
    fn multithreading_helps_large_calls_and_hurts_tiny_ones() {
        let cpu = CpuSpec::sandy_bridge();
        let seq = MachineConfig::new(cpu.clone(), openblas_like(), 1);
        let par = MachineConfig::new(cpu, openblas_like(), 8);
        let big = square_gemm(1024);
        let tiny = square_gemm(16);
        assert!(
            estimate_ticks(&par, &big, Locality::InCache)
                < estimate_ticks(&seq, &big, Locality::InCache)
        );
        assert!(
            estimate_ticks(&par, &tiny, Locality::InCache)
                > estimate_ticks(&seq, &tiny, Locality::InCache)
        );
    }

    #[test]
    fn unblocked_kernels_have_low_efficiency() {
        let m = harpertown_openblas();
        let tri = Call::trtri_unb(Uplo::Lower, Diag::NonUnit, 96);
        let gem = square_gemm(96);
        assert!(kernel_efficiency(&m, &tri) < 0.3 * kernel_efficiency(&m, &gem));
    }
}
