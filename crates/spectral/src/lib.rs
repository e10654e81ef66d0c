//! Mini-APEC: Radiative Recombination Continuum (RRC) spectral
//! calculation.
//!
//! This crate is the spectral substrate of the hybrid system — the part
//! of APEC the paper actually accelerates. It provides:
//!
//! * [`physics`] — the RRC integrand of paper Eq. 1: the differential
//!   emitted power `dP/dE` for recombination of an electron onto one
//!   level of one ion in a Maxwellian plasma,
//! * [`grid`] — energy-bin grids and wavelength conversion (the paper's
//!   spectra are plotted over 10–45 Å),
//! * [`params`] — the three-dimensional (temperature, density, time)
//!   parameter space of paper Fig. 1,
//! * [`ionpop`] — a simple collisional-ionization-equilibrium population
//!   model supplying the ion densities `n_{Z,j+1}`,
//! * [`spectrum`] — accumulated per-bin emissivity, normalization and
//!   spectrum comparison (relative-error distribution, paper Fig. 8),
//! * [`calculator`] — the serial reference calculator ("original serial
//!   APEC"): three nested loops — ions, levels, energy bins — each bin
//!   being one small definite integral (paper Eq. 2). Its level-window
//!   helpers ([`level_window`], [`window_bin_range`], [`ion_integrands`])
//!   are shared with the engine's GPU kernel builder and cost model, so
//!   every path skips exactly the same bins.

pub mod calculator;
pub mod grid;
pub mod ionpop;
pub mod lines;
pub mod params;
pub mod physics;
pub mod response;
pub mod spectrum;

pub use calculator::{
    emissivity_bins_into_mode, emissivity_fused_into, emissivity_fused_into_mode, emissivity_into,
    emissivity_into_mode, emissivity_per_bin_into, ion_emissivity_into, ion_emissivity_into_mode,
    ion_integrands, level_window, window_bin_range, Integrator, SerialCalculator,
};
pub use grid::EnergyGrid;
pub use ionpop::cie_fractions;
pub use lines::{full_spectrum, ion_lines_into, lines_for_ion, Line};
pub use params::{GridPoint, ParameterSpace};
pub use physics::{PreparedIntegrand, RrcIntegrand, VectorPrepared};
pub use response::InstrumentResponse;
pub use spectrum::{ErrorHistogram, Spectrum};

/// Planck constant times speed of light in eV·Å: converts photon energy
/// to wavelength, `lambda_angstrom = HC_EV_ANGSTROM / energy_ev`.
pub const HC_EV_ANGSTROM: f64 = 12_398.419_84;

/// Electron rest energy in eV, used in the Maxwellian prefactor.
pub const ME_C2_EV: f64 = 510_998.95;
