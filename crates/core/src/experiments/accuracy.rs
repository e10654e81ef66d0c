//! Paper Fig. 7 (serial vs hybrid spectra over 10–45 Å) and Fig. 8
//! (distribution of per-bin relative errors).
//!
//! This experiment runs **real numerics** on both paths: the serial
//! reference integrates every bin with QAGS; the hybrid runtime ships
//! ion tasks to the simulated GPUs, whose SIMT kernel integrates with
//! composite Simpson (64 panels), with QAGS on CPU-fallback tasks —
//! exactly the paper's method split.

use std::sync::Arc;

use gpu_sim::{DeviceRule, Precision};
use rrc_spectral::{ErrorHistogram, Integrator, ParameterSpace, SerialCalculator, Spectrum};

use crate::runtime::{HybridConfig, HybridRunner};
use crate::task::Granularity;

/// Scale knobs for the accuracy run (the physics is identical at any
/// scale; bins and `max_z` only set how long the run takes).
#[derive(Debug, Clone, Copy)]
pub struct AccuracyConfig {
    /// Database cutoff element.
    pub max_z: u8,
    /// Energy bins across the 10–45 Å waveband.
    pub bins: usize,
    /// Rank threads.
    pub ranks: usize,
    /// Simulated GPUs.
    pub gpus: usize,
}

impl Default for AccuracyConfig {
    fn default() -> Self {
        AccuracyConfig {
            max_z: 31,
            bins: 600,
            ranks: 8,
            gpus: 2,
        }
    }
}

/// The Fig. 7 + Fig. 8 bundle.
#[derive(Debug, Clone)]
pub struct AccuracyReport {
    /// Serial (QAGS) normalized flux vs wavelength (Fig. 7a).
    pub serial_series: Vec<(f64, f64)>,
    /// Hybrid (GPU Simpson) normalized flux vs wavelength (Fig. 7b).
    pub hybrid_series: Vec<(f64, f64)>,
    /// Signed per-bin relative errors, percent (over flux-carrying
    /// bins).
    pub errors_percent: Vec<f64>,
    /// Histogram of the errors (Fig. 8 curve).
    pub histogram: ErrorHistogram,
    /// Percent of errors with |e| <= 0.0005% (paper: "more than 99%").
    pub within_half_milli_percent: f64,
    /// Extremes of the error distribution (paper: −0.0003%..0.0033%).
    pub min_error: f64,
    /// Largest error, percent.
    pub max_error: f64,
    /// Share of hybrid tasks that actually ran on the GPU.
    pub gpu_ratio_percent: f64,
}

/// Run the accuracy comparison.
#[must_use]
pub fn run(cfg: AccuracyConfig) -> AccuracyReport {
    let db = atomdb::AtomDatabase::generate(atomdb::DatabaseConfig {
        max_z: cfg.max_z,
        ..atomdb::DatabaseConfig::default()
    });
    let grid = rrc_spectral::EnergyGrid::paper_waveband(cfg.bins);
    // One representative hot-plasma point (the paper plots one spectrum).
    let space = ParameterSpace {
        temperatures_k: vec![3.5e6],
        densities_cm3: vec![1.0],
        times_s: vec![0.0],
    };
    let point = space.point(0).expect("one point");

    let serial = SerialCalculator::new(db.clone(), grid.clone(), Integrator::paper_cpu());
    let serial_spectrum = serial.spectrum_at(&point);

    let hybrid_cfg = HybridConfig {
        db: Arc::new(db),
        grid,
        space,
        ranks: cfg.ranks,
        gpus: cfg.gpus,
        max_queue_len: 6,
        policy: hybrid_sched::SchedPolicy::CostAware,
        granularity: Granularity::Ion,
        gpu_rule: DeviceRule::Simpson { panels: 64 },
        // Fermi-era production kernels ran in single precision — that is
        // the error scale the paper's Fig. 8 shows (1e-5..1e-4 relative).
        gpu_precision: Precision::Single,
        cpu_integrator: Integrator::paper_cpu(),
        math: quadrature::MathMode::Exact,
        resilience: crate::resilience::ResilienceConfig::default(),
    };
    let report = HybridRunner::new(hybrid_cfg).run();
    let hybrid_spectrum = &report.spectra[0];

    build_report(
        &serial_spectrum,
        hybrid_spectrum,
        report.gpu_ratio_percent(),
    )
}

fn build_report(
    serial_spectrum: &Spectrum,
    hybrid_spectrum: &Spectrum,
    gpu_ratio_percent: f64,
) -> AccuracyReport {
    let errors = hybrid_spectrum.significant_relative_errors_percent(serial_spectrum, 1e-9);
    let histogram = ErrorHistogram::build(&errors, 40);
    let within = ErrorHistogram::fraction_within(&errors, 5e-4);
    AccuracyReport {
        serial_series: serial_spectrum.normalized().wavelength_series(),
        hybrid_series: hybrid_spectrum.normalized().wavelength_series(),
        min_error: histogram.min,
        max_error: histogram.max,
        errors_percent: errors,
        histogram,
        within_half_milli_percent: within,
        gpu_ratio_percent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_report() -> AccuracyReport {
        run(AccuracyConfig {
            max_z: 8,
            bins: 96,
            ranks: 4,
            gpus: 2,
        })
    }

    #[test]
    fn spectra_overlay_visually() {
        // Fig. 7's two panels are indistinguishable by eye: normalized
        // fluxes agree everywhere to far better than a pixel.
        let r = small_report();
        assert_eq!(r.serial_series.len(), r.hybrid_series.len());
        for ((wa, fa), (wb, fb)) in r.serial_series.iter().zip(&r.hybrid_series) {
            assert_eq!(wa, wb);
            assert!((fa - fb).abs() < 1e-3, "at {wa} Å: {fa} vs {fb}");
        }
    }

    #[test]
    fn errors_are_tiny_like_fig8() {
        let r = small_report();
        assert!(!r.errors_percent.is_empty());
        // The paper's window is [-0.0003%, 0.0033%]; ours must be of the
        // same order.
        assert!(
            r.max_error.abs() < 0.01 && r.min_error.abs() < 0.01,
            "range [{}, {}]",
            r.min_error,
            r.max_error
        );
        assert!(
            r.within_half_milli_percent > 90.0,
            "{}% within 0.0005%",
            r.within_half_milli_percent
        );
    }

    #[test]
    fn wavelength_axis_covers_10_to_45_angstrom() {
        let r = small_report();
        let first = r.serial_series.first().unwrap().0;
        let last = r.serial_series.last().unwrap().0;
        assert!((10.0..11.0).contains(&first), "{first}");
        assert!(last > 44.0 && last <= 45.0, "{last}");
    }

    #[test]
    fn histogram_covers_all_errors() {
        let r = small_report();
        let total: f64 = r.histogram.probability.iter().sum();
        assert!((total - 100.0).abs() < 1e-6);
    }
}
