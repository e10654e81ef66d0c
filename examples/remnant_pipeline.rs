//! The full production pipeline, end to end: a synthetic hydrodynamic
//! snapshot (Sedov–Taylor blast) → per-shell grid points → hybrid
//! CPU/GPU spectra → the remnant's integrated spectrum, plus the NEI
//! ionization state of a swept-up tracer. This is the workflow the
//! paper's Fig. 1 sketches, with every stage running in this repository.
//!
//! ```sh
//! cargo run --release --example remnant_pipeline
//! ```

use std::sync::Arc;

use hybridspec::hybrid::{Granularity, HybridConfig, HybridRunner, SedovBlast};
use hybridspec::spectral::{EnergyGrid, Integrator, Spectrum};

const YEAR_S: f64 = 3.156e7;

fn main() {
    // Stage 1: the "astrophysical simulation" — a 500-year-old remnant
    // in a thin medium (low n_e * t is what makes NEI matter).
    let blast = SedovBlast {
        ambient_cm3: 0.1,
        ..SedovBlast::default()
    };
    let age = 500.0 * YEAR_S;
    let shells = 8;
    let space = blast.snapshot(age, shells);
    println!(
        "Sedov remnant at {:.0} yr: shock radius {:.2} pc, post-shock T {:.2e} K",
        age / YEAR_S,
        blast.shock_radius_cm(age) / 3.086e18,
        blast.postshock_temperature_k(age)
    );

    // Stage 2: hybrid spectral calculation, one grid point per shell.
    let db = atomdb::AtomDatabase::generate(atomdb::DatabaseConfig {
        max_z: 14,
        ..atomdb::DatabaseConfig::default()
    });
    let grid = EnergyGrid::paper_waveband(200);
    let config = HybridConfig {
        db: Arc::new(db),
        grid: grid.clone(),
        space,
        ranks: 4,
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
        "computed {} shell spectra ({} GPU tasks, {:.1}% on GPU, {:.2}s wall)",
        report.spectra.len(),
        report.gpu_tasks,
        report.gpu_ratio_percent(),
        report.wall_s
    );

    // Stage 3: volume-weighted integration over shells (outer shells
    // dominate: weight ~ x^2 dx).
    let mut total = Spectrum::zeros(grid);
    for (i, spectrum) in report.spectra.iter().enumerate() {
        let x = (i as f64 + 0.5) / shells as f64;
        let weight = x * x;
        let mut weighted = spectrum.clone();
        for v in weighted.bins_mut() {
            *v *= weight;
        }
        total.accumulate(&weighted);
    }
    let series = total.normalized().wavelength_series();
    let peak = series
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty");
    println!("integrated remnant spectrum peaks at {:.2} A", peak.0);

    // Stage 4: the NEI state of a tracer the shock swept up 50 yr ago.
    let sweep = 450.0 * YEAR_S;
    let history = blast.tracer_history(sweep, age, 8);
    let solver = hybridspec::nei::LsodaSolver::default();
    let mut oxygen = vec![0.0; 9];
    oxygen[0] = 1.0;
    let stats = history.integrate(&solver, 8, &mut oxygen, 0.0, age, 4);
    let mean_charge: f64 = oxygen.iter().enumerate().map(|(q, f)| q as f64 * f).sum();
    let eq = hybridspec::nei::equilibrium_fractions(&hybridspec::nei::NeiSystem {
        z: 8,
        electron_density: blast.postshock_density_cm3(),
        temperature_k: blast.postshock_temperature_k(age),
    });
    let eq_charge: f64 = eq.iter().enumerate().map(|(q, f)| q as f64 * f).sum();
    println!(
        "tracer oxygen after {:.0} yr behind the shock: <q> = {mean_charge:.2} \
         (CIE would be {eq_charge:.2}; the lag IS the NEI effect) [{} solver steps]",
        (age - sweep) / YEAR_S,
        stats.steps
    );
}
