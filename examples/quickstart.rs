//! Quickstart: compute an RRC spectrum with the hybrid CPU/GPU runtime
//! and compare it against the serial reference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use hybridspec::hybrid::{Granularity, HybridConfig, HybridRunner};
use hybridspec::spectral::{EnergyGrid, Integrator, ParameterSpace, SerialCalculator};

fn main() {
    // 1. A synthetic atomic database: every recombining ionization stage
    //    of H..Ga — the paper's 496 ions. (Use `max_z` to shrink it.)
    let db = atomdb::AtomDatabase::generate(atomdb::DatabaseConfig::default());
    println!(
        "atomic database: {} ions, {} levels",
        db.stats().ions,
        db.stats().levels
    );

    // 2. An energy grid over the paper's plotted waveband (10-45 A).
    let grid = EnergyGrid::paper_waveband(400);

    // 3. One hot-plasma grid point.
    let space = ParameterSpace {
        temperatures_k: vec![3.5e6],
        densities_cm3: vec![1.0],
        times_s: vec![0.0],
    };

    // 4. The hybrid runtime: 8 MPI-style ranks, 2 simulated Tesla C2075
    //    GPUs, ion-granularity tasks, Simpson-64 on the device and QAGS
    //    as the CPU fallback — the paper's configuration.
    let config = HybridConfig {
        db: Arc::new(db.clone()),
        grid: grid.clone(),
        space,
        ranks: 8,
        gpus: 2,
        max_queue_len: 6,
        policy: hybridspec::sched::SchedPolicy::CostAware,
        granularity: Granularity::Ion,
        gpu_rule: hybridspec::gpu::DeviceRule::Simpson { panels: 64 },
        gpu_precision: hybridspec::gpu::Precision::Double,
        cpu_integrator: Integrator::paper_cpu(),
        math: hybridspec::quadrature::MathMode::Exact,
        resilience: hybridspec::hybrid::ResilienceConfig::default(),
    };
    let report = HybridRunner::new(config).run();
    println!(
        "hybrid run: {} GPU tasks, {} CPU-fallback tasks ({:.2}% on GPU), {:.2}s wall",
        report.gpu_tasks,
        report.cpu_tasks,
        report.gpu_ratio_percent(),
        report.wall_s
    );

    // 5. Compare with the serial QAGS reference.
    let point = rrc_spectral::GridPoint {
        temperature_k: 3.5e6,
        density_cm3: 1.0,
        time_s: 0.0,
        index: 0,
    };
    let serial = SerialCalculator::new(db, grid, Integrator::paper_cpu());
    let reference = serial.spectrum_at(&point);
    let errors = report.spectra[0].significant_relative_errors_percent(&reference, 1e-9);
    let worst = errors.iter().fold(0.0f64, |m, e| m.max(e.abs()));
    println!(
        "accuracy vs serial QAGS: worst relative error {worst:.2e}% over {} flux bins",
        errors.len()
    );

    // 6. Print the spectrum's peak region.
    let series = report.spectra[0].normalized().wavelength_series();
    let peak = series
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite flux"))
        .expect("non-empty");
    println!("spectrum peak at {:.2} A (normalized flux 1.0)", peak.0);
}
