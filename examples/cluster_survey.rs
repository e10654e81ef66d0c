//! Galaxy-cluster survey scenario: a grid of plasma temperatures (the
//! kind of parameter space the paper's Fig. 1 sketches), computed with
//! the hybrid runtime, then a crude "fit" of a mock observation by
//! chi-square over the grid.
//!
//! ```sh
//! cargo run --release --example cluster_survey
//! ```

use std::sync::Arc;

use hybridspec::hybrid::{Granularity, HybridConfig, HybridRunner};
use hybridspec::spectral::{EnergyGrid, InstrumentResponse, Integrator, ParameterSpace};

fn main() {
    // A coarse survey grid: 8 temperatures x 1 density. Real surveys use
    // 128^3 points (the paper's 0.5M CPU-hours estimate); the machinery
    // is identical.
    let temperatures: Vec<f64> = (0..8).map(|i| 2.0e6 + 1.0e6 * i as f64).collect();
    let space = ParameterSpace {
        temperatures_k: temperatures.clone(),
        densities_cm3: vec![1.0],
        times_s: vec![0.0],
    };
    let db = atomdb::AtomDatabase::generate(atomdb::DatabaseConfig {
        max_z: 14, // H..Si keeps the survey quick
        ..atomdb::DatabaseConfig::default()
    });
    let grid = EnergyGrid::paper_waveband(160);

    let config = HybridConfig {
        db: Arc::new(db),
        grid: grid.clone(),
        space,
        ranks: 8,
        gpus: 3,
        max_queue_len: 6,
        policy: hybridspec::sched::SchedPolicy::CostAware,
        granularity: Granularity::Ion,
        gpu_rule: hybridspec::gpu::DeviceRule::Simpson { panels: 64 },
        gpu_precision: hybridspec::gpu::Precision::Double,
        cpu_integrator: Integrator::paper_cpu(),
        math: hybridspec::quadrature::MathMode::Exact,
        resilience: hybridspec::hybrid::ResilienceConfig::default(),
    };
    println!(
        "computing {} survey spectra on {} ranks / {} simulated GPUs...",
        temperatures.len(),
        config.ranks,
        config.gpus
    );
    let report = HybridRunner::new(config).run();
    println!(
        "done: {:.2}s wall, {:.1}% of tasks on GPU, device histories {:?}\n",
        report.wall_s,
        report.gpu_ratio_percent(),
        report.device_history
    );

    // Mock observation: the 5e6 K model folded through a CCD-like
    // instrument response (finite energy resolution + effective area),
    // which is what a telescope would actually record.
    let truth_idx = 3;
    let response = InstrumentResponse::ccd();
    let observed = response.fold(&report.spectra[truth_idx]);

    println!("  T (K)       chi^2 vs folded observation");
    let mut best = (0usize, f64::MAX);
    for (i, spectrum) in report.spectra.iter().enumerate() {
        let folded = response.fold(spectrum);
        let chi2 = chi_square(&observed, &folded);
        let marker = if i == truth_idx { "  <- truth" } else { "" };
        println!("  {:8.2e}  {chi2:12.6}{marker}", temperatures[i]);
        if chi2 < best.1 {
            best = (i, chi2);
        }
    }
    println!(
        "\nbest fit: T = {:.2e} K ({})",
        temperatures[best.0],
        if best.0 == truth_idx {
            "recovered the injected temperature"
        } else {
            "MISSED the injected temperature"
        }
    );
}

fn chi_square(observed: &[f64], model_counts: &[f64]) -> f64 {
    // Normalize both to unit peak (the survey fits shape, not flux) and
    // weight by a crude counting-noise model.
    let norm = |v: &[f64]| -> Vec<f64> {
        let peak = v.iter().cloned().fold(0.0f64, f64::max).max(1e-300);
        v.iter().map(|x| x / peak).collect()
    };
    let o = norm(observed);
    let m = norm(model_counts);
    o.iter()
        .zip(&m)
        .map(|(o, m)| {
            let sigma = 0.02 + 0.05 * m;
            ((o - m) / sigma).powi(2)
        })
        .sum::<f64>()
        / o.len() as f64
}
