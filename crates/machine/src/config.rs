//! Machine configurations and measurement records.

use crate::{BlasProfile, CpuSpec};

/// Memory-locality scenario of a measurement (paper Section II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Locality {
    /// All operands reside in the lowest cache level that can hold them.
    InCache,
    /// All operands reside in main memory.
    OutOfCache,
}

impl Locality {
    /// Both scenarios.
    pub const ALL: [Locality; 2] = [Locality::InCache, Locality::OutOfCache];

    /// Short name used in reports and the model repository.
    pub fn name(&self) -> &'static str {
        match self {
            Locality::InCache => "in-cache",
            Locality::OutOfCache => "out-of-cache",
        }
    }

    /// Parses a locality from its short name.
    pub fn from_name(name: &str) -> Option<Locality> {
        Locality::ALL.into_iter().find(|l| l.name() == name)
    }
}

impl std::fmt::Display for Locality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A complete execution environment: CPU, BLAS implementation signature and
/// the number of threads the library uses.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// The CPU description.
    pub cpu: CpuSpec,
    /// The BLAS implementation signature.
    pub blas: BlasProfile,
    /// Number of threads the BLAS library uses (1 = sequential).
    pub threads: usize,
}

impl MachineConfig {
    /// Creates a configuration.
    pub fn new(cpu: CpuSpec, blas: BlasProfile, threads: usize) -> MachineConfig {
        MachineConfig {
            cpu,
            blas,
            threads: threads.max(1),
        }
    }

    /// Effective number of worker threads (capped at the physical core count).
    pub fn effective_threads(&self) -> usize {
        self.threads.clamp(1, self.cpu.cores)
    }

    /// Peak flops per cycle of the resource set used by this configuration
    /// (`fips` in the paper's efficiency formula, summed over the used cores).
    pub fn peak_flops_per_cycle(&self) -> f64 {
        self.cpu.peak_flops_per_cycle(self.effective_threads())
    }

    /// Converts ticks into the paper's `efficiency` metric for a computation
    /// performing `useful_flops` floating-point operations.
    pub fn efficiency(&self, useful_flops: f64, ticks: f64) -> f64 {
        if ticks <= 0.0 {
            return 0.0;
        }
        useful_flops / (ticks * self.peak_flops_per_cycle())
    }

    /// A short identifier combining CPU, implementation and thread count,
    /// used to key the model repository.
    pub fn id(&self) -> String {
        format!(
            "{}+{}+{}t",
            self.cpu.name.replace(' ', "_"),
            self.blas.name,
            self.effective_threads()
        )
    }
}

/// The result of executing (or simulating) one routine call.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Elapsed time in clock ticks (the paper's primary metric).
    pub ticks: f64,
    /// Floating-point operations performed by the call.
    pub flops: f64,
}

impl Measurement {
    /// Efficiency of this single measurement under the given configuration.
    pub fn efficiency(&self, machine: &MachineConfig) -> f64 {
        machine.efficiency(self.flops, self.ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blasprofile::openblas_like;

    #[test]
    fn locality_names_roundtrip() {
        for l in Locality::ALL {
            assert_eq!(Locality::from_name(l.name()), Some(l));
        }
        assert_eq!(Locality::from_name("bogus"), None);
        assert_eq!(Locality::InCache.to_string(), "in-cache");
    }

    #[test]
    fn effective_threads_capped() {
        let m = MachineConfig::new(CpuSpec::harpertown(), openblas_like(), 16);
        assert_eq!(m.effective_threads(), 4);
        let m = MachineConfig::new(CpuSpec::harpertown(), openblas_like(), 0);
        assert_eq!(m.effective_threads(), 1);
        assert_eq!(m.peak_flops_per_cycle(), 4.0);
    }

    #[test]
    fn efficiency_formula() {
        let m = MachineConfig::new(CpuSpec::harpertown(), openblas_like(), 1);
        // 4 flops/cycle peak: 400 flops in 200 ticks = 50 % efficiency
        assert!((m.efficiency(400.0, 200.0) - 0.5).abs() < 1e-12);
        assert_eq!(m.efficiency(400.0, 0.0), 0.0);
    }

    #[test]
    fn id_mentions_all_components() {
        let m = MachineConfig::new(CpuSpec::sandy_bridge(), openblas_like(), 8);
        let id = m.id();
        assert!(id.contains("Sandy_Bridge"));
        assert!(id.contains("openblas-like"));
        assert!(id.contains("8t"));
    }
}
