//! The hybrid CPU/GPU spectral-calculation framework — the paper's
//! primary contribution.
//!
//! Two execution paths share one scheduling policy
//! ([`hybrid_sched::policy`]):
//!
//! * [`engine`] / [`runtime`] — the **real** runtime: a resident
//!   [`engine::Engine`] whose worker threads pull coarse-grained ion
//!   tasks from a bounded queue, ask the shared-memory scheduler for a
//!   device, and run the RRC kernel on `gpu-sim` devices with QAGS CPU
//!   fallback. [`runtime::HybridRunner`] is its batch client (paper
//!   Fig. 7/8 and all correctness tests); the `rrc-service` crate is
//!   its long-lived query-service client.
//! * [`desmodel`] — the **virtual-time replica**: the same ranks /
//!   scheduler / devices / PCIe bus / contended CPU cores replayed on
//!   [`desim`] with service times from [`calib`]. Produces the paper's
//!   timing results (Fig. 3–6, Tables I–II) deterministically.
//!
//! [`task`] defines the two task granularities the paper compares (one
//! *ion* vs one *energy level*); [`workload`] materializes the paper's
//! test workload (24 grid points × 496 ions); [`experiments`] contains
//! one driver per paper table/figure.

pub mod calib;
pub mod cost;
pub mod desmodel;
pub mod engine;
pub mod experiments;
pub mod hydro;
pub mod pool;
pub mod resident;
pub mod resilience;
pub mod runtime;
pub mod spec;
pub mod task;
pub mod workload;

pub use calib::Calibration;
pub use cost::ion_task_cost;
pub use desmodel::{DesConfig, DesReport};
pub use engine::{Engine, EngineConfig, EngineReport, ExecPath, FanOut, IonJob, IonOutcome};
pub use hybrid_sched::SchedPolicy;
pub use hydro::SedovBlast;
pub use pool::WorkspacePool;
pub use resident::{RecalcSummary, ResidentError, ResidentSpectrum};
pub use resilience::ResilienceConfig;
pub use runtime::{HybridConfig, HybridRunner, RunReport};
pub use spec::{RuleSpec, RunSpec};
pub use task::{Granularity, TaskSpec};
pub use workload::SpectralWorkload;
