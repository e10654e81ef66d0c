//! The real-threaded hybrid runtime — paper Fig. 2 end to end.
//!
//! The batch entry point: [`HybridRunner::run`] computes one fixed
//! [`ParameterSpace`] and returns. Since the service PR it is a thin
//! client of the **resident** [`crate::engine::Engine`] — it brings an
//! engine up, streams every grid point's coarse-grained tasks through
//! the bounded ion-task queue (each task asks the shared-memory
//! scheduler for a device, paper Algorithm 1; granted tasks run the
//! RRC kernel on a [`gpu_sim::SimGpu`], rejected tasks run QAGS on the
//! engine worker's thread), reassembles per-point spectra from the
//! per-task partials in deterministic (ion, level) order, and shuts
//! the engine down. Results are numerically comparable with the
//! serial reference; the deterministic reassembly makes a given
//! configuration's output independent of task placement races up to
//! the kernel-chunking last-ulp effects documented in
//! [`crate::engine`].

use std::sync::Arc;
use std::time::Instant;

use atomdb::AtomDatabase;
use gpu_sim::{DeviceRule, Precision};
use hybrid_sched::SchedPolicy;
use quadrature::MathMode;
use rrc_spectral::{EnergyGrid, Integrator, ParameterSpace, Spectrum};

use crate::engine::{Engine, EngineConfig, IonJob};
use crate::resilience::ResilienceConfig;
use crate::task::Granularity;

/// Configuration of a real hybrid run.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Atomic database (shared read-only by every rank and device).
    pub db: Arc<AtomDatabase>,
    /// Energy grid of the output spectra.
    pub grid: EnergyGrid,
    /// Grid points to compute.
    pub space: ParameterSpace,
    /// MPI rank count (paper: 24).
    pub ranks: usize,
    /// Simulated GPU count (0 = pure CPU run; the paper's "run normally
    /// in the runtime environment without GPU device").
    pub gpus: usize,
    /// Maximum queue length per device.
    pub max_queue_len: u64,
    /// Placement policy: cost-aware weighted balancing (default) or
    /// the paper's task-count policy ([`SchedPolicy::PaperCount`]) for
    /// A/B ablation.
    pub policy: SchedPolicy,
    /// Task granularity.
    pub granularity: Granularity,
    /// Device-side integration rule (paper: Simpson over 64 pieces).
    pub gpu_rule: DeviceRule,
    /// Device arithmetic precision (Fermi-era kernels ran in f32; see
    /// [`gpu_sim::Precision`]). `Double` keeps the GPU path bit-exact
    /// against the CPU path under the same rule.
    pub gpu_precision: Precision,
    /// CPU fallback integrator (paper: QAGS).
    pub cpu_integrator: Integrator,
    /// Math mode for the fused kernels and CPU fallback:
    /// [`MathMode::Exact`] (default) keeps the seed's scalar arithmetic
    /// bitwise; [`MathMode::Vector`] routes exponentials and the f64
    /// accumulations through the lane-parallel [`quadrature::simd`]
    /// layer (max relative deviation ≤ 1e-12).
    pub math: MathMode,
    /// Fault injection, retry/backoff and device-breaker configuration
    /// (see [`crate::resilience::ResilienceConfig`]; the default is
    /// fault-free).
    pub resilience: ResilienceConfig,
}

impl HybridConfig {
    /// A small configuration suitable for tests and examples: a reduced
    /// database (`max_z`), a modest grid, 4 ranks, 2 GPUs.
    #[must_use]
    pub fn small(max_z: u8, bins: usize, points: usize) -> HybridConfig {
        let db = AtomDatabase::generate(atomdb::DatabaseConfig {
            max_z,
            ..atomdb::DatabaseConfig::default()
        });
        HybridConfig {
            db: Arc::new(db),
            grid: EnergyGrid::linear(50.0, 2000.0, bins),
            space: ParameterSpace {
                temperatures_k: (0..points).map(|i| 9.0e6 + 5e4 * i as f64).collect(),
                densities_cm3: vec![1.0],
                times_s: vec![0.0],
            },
            ranks: 4,
            gpus: 2,
            max_queue_len: 6,
            policy: SchedPolicy::CostAware,
            granularity: Granularity::Ion,
            gpu_rule: DeviceRule::Simpson { panels: 64 },
            gpu_precision: Precision::Double,
            cpu_integrator: Integrator::paper_cpu(),
            math: MathMode::Exact,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Outcome of a real hybrid run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// One spectrum per grid point, in point order.
    pub spectra: Vec<Spectrum>,
    /// Tasks executed on devices.
    pub gpu_tasks: u64,
    /// Tasks that fell back to rank CPUs.
    pub cpu_tasks: u64,
    /// Wall-clock seconds of the run (host machine time; *not* the
    /// virtual-time model — see `desmodel` for paper-scale timing).
    pub wall_s: f64,
    /// Per-device history task counts from the scheduler.
    pub device_history: Vec<u64>,
    /// Per-device modeled busy time (cost-model seconds: launch + PCIe
    /// + kernel per task) — what the run would cost on real C2075s.
    pub device_virtual_seconds: Vec<f64>,
    /// Per-device peak on-board memory (bytes) over the run.
    pub device_peak_memory: Vec<u64>,
    /// QAGS workspaces actually constructed across the rank pools
    /// (steady state: at most one per rank that ever fell back to CPU).
    pub workspaces_created: u64,
    /// Workspace acquisitions served by the rank pools (one per CPU
    /// task); `workspace_acquisitions - workspaces_created` is the
    /// number of allocations the pooling avoided.
    pub workspace_acquisitions: u64,
    /// Device-task failures the engine's recovery ladder handled
    /// (zero on a fault-free run).
    pub task_faults: u64,
    /// Retry attempts the ladder issued.
    pub task_retries: u64,
    /// Tasks released to the host path after the ladder ran out.
    pub fault_cpu_fallbacks: u64,
    /// Final per-device breaker states.
    pub device_breakers: Vec<hybrid_sched::BreakerState>,
    /// Device breaker transitions over the run, summed across devices.
    pub breaker_counters: hybrid_sched::BreakerCounters,
}

impl RunReport {
    /// Fraction of tasks that ran on GPUs, percent.
    #[must_use]
    pub fn gpu_ratio_percent(&self) -> f64 {
        let total = self.gpu_tasks + self.cpu_tasks;
        if total == 0 {
            0.0
        } else {
            100.0 * self.gpu_tasks as f64 / total as f64
        }
    }
}

/// The runtime: owns the devices and the scheduler for one or more
/// runs of the same configuration.
pub struct HybridRunner {
    config: HybridConfig,
}

impl HybridRunner {
    /// Create a runner for `config`.
    #[must_use]
    pub fn new(config: HybridConfig) -> HybridRunner {
        HybridRunner { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// Execute the whole parameter space. Brings a resident engine up,
    /// streams every task through it, reassembles per-point spectra in
    /// deterministic (point, ion, level) order, shuts the engine down.
    #[must_use]
    pub fn run(&self) -> RunReport {
        let cfg = &self.config;
        let start = Instant::now();
        let engine = Engine::start(EngineConfig::from_hybrid(cfg));
        // The bin table is identical for every task of the run: build it
        // once and share it, instead of re-deriving it per submission.
        let bin_pairs: Arc<Vec<(f64, f64)>> = Arc::new(cfg.grid.bin_pairs());

        let tasks = (0..cfg.space.len()).flat_map(|point_idx| {
            let point = cfg.space.point(point_idx).expect("index in range");
            (0..cfg.db.ions().len()).flat_map(move |ion_index| {
                let level_count = cfg.db.levels_by_index(ion_index).len();
                let ranges: Vec<std::ops::Range<usize>> = match cfg.granularity {
                    #[allow(clippy::single_range_in_vec_init)] // one task covering all levels
                    Granularity::Ion => vec![0..level_count],
                    Granularity::Level => (0..level_count).map(|l| l..l + 1).collect(),
                };
                ranges
                    .into_iter()
                    .map(move |range| (point_idx, point, ion_index, range))
            })
        });
        // Submission blocks for queue slots: the bounded queue is the
        // backpressure edge, the workers drain it continuously, so the
        // producer simply waits when it outpaces them — and then parks
        // once for the whole run's outcomes.
        let mut submitted = 0usize;
        let fanned = engine.fan_out(
            tasks,
            |(point_idx, point, ion_index, level_range), reply| {
                submitted += 1;
                IonJob {
                    ion_index,
                    level_range,
                    point,
                    grid: cfg.grid.clone(),
                    bins: Arc::clone(&bin_pairs),
                    tag: point_idx as u64,
                    deadline: f64::INFINITY,
                    reply,
                }
            },
        );
        assert!(!fanned.closed, "engine stays live for the whole run");

        // Fold every partial in a fixed order: accumulation does not
        // depend on placement races, so a given configuration's
        // spectra are reproducible run to run.
        let mut outcomes = fanned.outcomes;
        assert_eq!(outcomes.len(), submitted, "every task must be answered");
        outcomes.sort_by_key(|o| (o.tag, o.ion_index, o.level_start));
        let mut spectra: Vec<Spectrum> = (0..cfg.space.len())
            .map(|_| Spectrum::zeros(cfg.grid.clone()))
            .collect();
        for outcome in outcomes {
            let spectrum = &mut spectra[outcome.tag as usize];
            for (acc, v) in spectrum.bins_mut().iter_mut().zip(&outcome.partial) {
                *acc += v;
            }
        }

        let report = engine.shutdown();
        debug_assert_eq!(report.leaked_grants, 0, "run leaked scheduler grants");
        RunReport {
            spectra,
            gpu_tasks: report.gpu_tasks,
            cpu_tasks: report.cpu_tasks,
            wall_s: start.elapsed().as_secs_f64(),
            device_history: report.device_history,
            device_virtual_seconds: report.device_virtual_seconds,
            device_peak_memory: report.device_peak_memory,
            workspaces_created: report.workspaces_created,
            workspace_acquisitions: report.workspace_acquisitions,
            task_faults: report.task_faults,
            task_retries: report.task_retries,
            fault_cpu_fallbacks: report.fault_cpu_fallbacks,
            device_breakers: report.device_breakers,
            breaker_counters: report.breaker_counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_spectral::SerialCalculator;

    #[test]
    fn hybrid_matches_serial_reference_exactly_with_same_rule() {
        // With Simpson on both paths, hybrid and serial must agree to
        // round-off regardless of where each task ran.
        let mut cfg = HybridConfig::small(6, 48, 3);
        cfg.cpu_integrator = Integrator::Simpson { panels: 64 };
        let runner = HybridRunner::new(cfg);
        let report = runner.run();
        let serial = SerialCalculator::new(
            (*runner.config().db).clone(),
            runner.config().grid.clone(),
            Integrator::Simpson { panels: 64 },
        );
        for (i, spectrum) in report.spectra.iter().enumerate() {
            let point = runner.config().space.point(i).unwrap();
            let reference = serial.spectrum_at(&point);
            for (a, b) in spectrum.bins().iter().zip(reference.bins()) {
                assert!(
                    (a - b).abs() <= 1e-12 * b.abs().max(1e-300),
                    "point {i}: {a} vs {b}"
                );
            }
        }
        assert_eq!(
            report.gpu_tasks + report.cpu_tasks,
            (runner.config().space.len() * runner.config().db.ions().len()) as u64
        );
    }

    #[test]
    fn qags_fallback_stays_close_to_gpu_simpson() {
        let cfg = HybridConfig::small(6, 48, 2);
        let report = HybridRunner::new(cfg).run();
        assert_eq!(report.spectra.len(), 2);
        assert!(report.spectra.iter().all(|s| s.total() > 0.0));
    }

    #[test]
    fn no_gpu_configuration_runs_everything_on_cpu() {
        let mut cfg = HybridConfig::small(4, 32, 2);
        cfg.gpus = 0;
        let report = HybridRunner::new(cfg).run();
        assert_eq!(report.gpu_tasks, 0);
        assert!(report.cpu_tasks > 0);
        assert!(report.spectra.iter().all(|s| s.total() > 0.0));
    }

    #[test]
    fn level_granularity_produces_identical_spectra() {
        let mut ion_cfg = HybridConfig::small(5, 40, 2);
        ion_cfg.cpu_integrator = Integrator::Simpson { panels: 64 };
        let mut level_cfg = ion_cfg.clone();
        level_cfg.granularity = Granularity::Level;
        let a = HybridRunner::new(ion_cfg).run();
        let b = HybridRunner::new(level_cfg).run();
        for (sa, sb) in a.spectra.iter().zip(&b.spectra) {
            for (x, y) in sa.bins().iter().zip(sb.bins()) {
                assert!((x - y).abs() <= 1e-12 * y.abs().max(1e-300));
            }
        }
        // Level granularity schedules strictly more tasks.
        assert!(
            b.gpu_tasks + b.cpu_tasks > a.gpu_tasks + a.cpu_tasks,
            "{b:?} vs {a:?}"
        );
    }

    #[test]
    fn device_accounting_is_populated() {
        let cfg = HybridConfig::small(6, 32, 2);
        let report = HybridRunner::new(cfg).run();
        assert_eq!(report.device_virtual_seconds.len(), 2);
        assert_eq!(report.device_peak_memory.len(), 2);
        // Every device that did work charged virtual time and held the
        // per-task result buffer.
        for (d, &h) in report.device_history.iter().enumerate() {
            if h > 0 {
                assert!(report.device_virtual_seconds[d] > 0.0, "device {d}");
                assert!(report.device_peak_memory[d] >= 32 * 8, "device {d}");
            }
        }
    }

    #[test]
    fn workspace_pool_reuses_across_cpu_tasks() {
        // All-CPU run: every task acquires a workspace, but each rank
        // builds at most one.
        let mut cfg = HybridConfig::small(5, 32, 3);
        cfg.gpus = 0;
        let ranks = cfg.ranks as u64;
        let report = HybridRunner::new(cfg).run();
        assert_eq!(report.workspace_acquisitions, report.cpu_tasks);
        assert!(report.workspaces_created <= ranks);
        assert!(
            report.workspaces_created < report.workspace_acquisitions,
            "pooling avoided no allocations: {report:?}"
        );
    }

    #[test]
    fn device_histories_account_for_gpu_tasks() {
        let cfg = HybridConfig::small(6, 32, 3);
        let report = HybridRunner::new(cfg).run();
        let history_total: u64 = report.device_history.iter().sum();
        assert_eq!(history_total, report.gpu_tasks);
    }
}
