//! Device property sheets.

/// GPU micro-architecture generations the queueing model distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Fermi: "application-level context switching is necessary ...
    /// queued tasks are performed serially in their submission orders"
    /// (paper §III-A). One task in flight per device.
    Fermi,
    /// Kepler: "the Hyper-Q technique can allow for up to 32
    /// simultaneous connections from multiple MPI processes". Several
    /// tasks may be active concurrently.
    Kepler,
}

/// Static properties of a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProps {
    /// Marketing name, for logs and reports.
    pub name: &'static str,
    /// Architecture generation (controls queue concurrency).
    pub architecture: Architecture,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// CUDA cores per SM.
    pub cores_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Peak double-precision throughput in GFLOP/s.
    pub dp_gflops: f64,
    /// On-board memory in bytes.
    pub memory_bytes: u64,
    /// Host link bandwidth in bytes/s (PCIe 2.0 x16 ≈ 8 GB/s
    /// theoretical, ~6 GB/s effective).
    pub pcie_bytes_per_sec: f64,
    /// Number of simultaneously active tasks the device accepts
    /// (1 on Fermi; >1 with Hyper-Q on Kepler).
    pub concurrent_tasks: u32,
}

impl DeviceProps {
    /// The paper's device: NVIDIA Tesla C2075 — Fermi, 448 cores
    /// (14 SMs × 32), 1.15 GHz, 515 DP GFLOP/s, 6 GB GDDR5, PCIe 2.0.
    #[must_use]
    pub fn tesla_c2075() -> DeviceProps {
        DeviceProps {
            name: "Tesla C2075",
            architecture: Architecture::Fermi,
            sm_count: 14,
            cores_per_sm: 32,
            clock_ghz: 1.15,
            dp_gflops: 515.0,
            memory_bytes: 6 * 1024 * 1024 * 1024,
            pcie_bytes_per_sec: 6.0e9,
            concurrent_tasks: 1,
        }
    }

    /// A Kepler-generation card with Hyper-Q, for the queueing-discipline
    /// ablation (paper §III-A mentions "for some Kepler GPUs, the count
    /// of active task may be more than one").
    #[must_use]
    pub fn tesla_k20() -> DeviceProps {
        DeviceProps {
            name: "Tesla K20",
            architecture: Architecture::Kepler,
            sm_count: 13,
            cores_per_sm: 192,
            clock_ghz: 0.706,
            dp_gflops: 1170.0,
            memory_bytes: 5 * 1024 * 1024 * 1024,
            pcie_bytes_per_sec: 6.0e9,
            concurrent_tasks: 32,
        }
    }

    /// Total CUDA core count.
    #[must_use]
    pub fn total_cores(&self) -> u32 {
        self.sm_count * self.cores_per_sm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c2075_matches_paper_specs() {
        let d = DeviceProps::tesla_c2075();
        assert_eq!(d.total_cores(), 448);
        assert_eq!(d.architecture, Architecture::Fermi);
        assert_eq!(d.concurrent_tasks, 1);
        assert!((d.dp_gflops - 515.0).abs() < 1.0);
        assert_eq!(d.memory_bytes, 6 * 1024 * 1024 * 1024);
    }

    #[test]
    fn k20_has_hyper_q() {
        let d = DeviceProps::tesla_k20();
        assert_eq!(d.architecture, Architecture::Kepler);
        assert!(d.concurrent_tasks > 1);
        assert!(d.dp_gflops > DeviceProps::tesla_c2075().dp_gflops);
    }
}
