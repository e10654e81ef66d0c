//! The serial reference spectral calculator and the shared per-ion
//! kernel body.
//!
//! [`ion_emissivity_into`] is the *single* implementation of "compute
//! the RRC emissivity of one ion into the energy bins": the serial
//! calculator, the CPU fallback path of the hybrid runtime, and the
//! simulated GPU kernel all call it (with different integrator choices),
//! so accuracy comparisons measure integration method differences only —
//! exactly what paper Fig. 7/8 compare.

use atomdb::AtomDatabase;
use quadrature::{
    qags_with, romberg, simpson, AdaptiveConfig, BatchSampler, BinPlan, BinRule, MathMode,
    QagsWorkspace,
};

use crate::grid::EnergyGrid;
use crate::ionpop::ion_density;
use crate::params::GridPoint;
use crate::physics::{RrcIntegrand, VectorPrepared};
use crate::spectrum::Spectrum;

/// The integration back-end used for each energy-bin integral.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Integrator {
    /// Adaptive QAGS — the paper's serial / CPU-fallback method.
    Qags {
        /// Absolute tolerance.
        errabs: f64,
        /// Relative tolerance.
        errrel: f64,
    },
    /// Composite Simpson with a fixed panel count — the paper's GPU
    /// default ("64 equal pieces").
    Simpson {
        /// Panels per bin.
        panels: usize,
    },
    /// Romberg with `k` dichotomy levels — the paper's high-accuracy GPU
    /// variant (Fig. 6 / Table I sweep k = 7, 9, 11, 13).
    Romberg {
        /// Dichotomy levels.
        k: u32,
    },
}

impl Integrator {
    /// The paper's CPU reference configuration.
    #[must_use]
    pub fn paper_cpu() -> Integrator {
        Integrator::Qags {
            errabs: 1e-30,
            errrel: 1e-10,
        }
    }

    /// The paper's GPU configuration (Simpson over 64 pieces).
    #[must_use]
    pub fn paper_gpu() -> Integrator {
        Integrator::Simpson { panels: 64 }
    }

    /// Integrate `f` over `[lo, hi]`.
    ///
    /// QAGS failure (subdivision limit on a kinky edge bin) falls back to
    /// the carried best estimate — the spectral loops must never abort on
    /// one awkward bin, matching APEC's tolerant use of QUADPACK.
    pub fn integrate<F: FnMut(f64) -> f64>(
        self,
        ws: &mut QagsWorkspace,
        f: F,
        lo: f64,
        hi: f64,
    ) -> f64 {
        match self {
            Integrator::Qags { errabs, errrel } => {
                let cfg = AdaptiveConfig {
                    errabs,
                    errrel,
                    ..AdaptiveConfig::default()
                };
                match qags_with(ws, cfg, f, lo, hi) {
                    Ok(est) => est.value,
                    Err(quadrature::QuadError::MaxSubdivisions { best, .. })
                    | Err(quadrature::QuadError::RoundoffDetected { best }) => best.value,
                    Err(_) => 0.0,
                }
            }
            Integrator::Simpson { panels } => simpson(f, lo, hi, panels).value,
            Integrator::Romberg { k } => romberg(f, lo, hi, k).value,
        }
    }

    /// The fused bin-range rule equivalent to this integrator, when one
    /// exists. Fixed-node rules (Simpson, Romberg) fuse — their shared
    /// bin-edge samples can be reused across a contiguous run of bins;
    /// adaptive QAGS places nodes per bin and stays on the per-bin path.
    #[must_use]
    pub fn bin_rule(self) -> Option<BinRule> {
        match self {
            Integrator::Qags { .. } => None,
            Integrator::Simpson { panels } => Some(BinRule::Simpson { panels }),
            Integrator::Romberg { k } => Some(BinRule::Romberg { k }),
        }
    }
}

/// Multiples of `kT` past the recombination edge beyond which the RRC
/// integrand is treated as zero (`exp(-40) ~ 4e-18` of the edge value).
/// Shared by the CPU path and the GPU kernel window so both paths skip
/// exactly the same bins.
pub const CUTOFF_KT: f64 = 40.0;

/// The support window `(threshold, cutoff)` of one level's integrand:
/// nonzero only for photon energies in `[binding, binding + 40 kT)`.
#[must_use]
pub fn level_window(binding_ev: f64, kt_ev: f64) -> (f64, f64) {
    (binding_ev, binding_ev + CUTOFF_KT * kt_ev)
}

/// Build the bound integrands (one per level in `level_range`) of an
/// ion at a plasma state, or `None` when the ion's population is zero
/// there. Shared by the CPU path and the GPU kernel builder.
#[must_use]
pub fn ion_integrands(
    db: &AtomDatabase,
    ion_index: usize,
    level_range: std::ops::Range<usize>,
    point: &GridPoint,
) -> Option<Vec<RrcIntegrand>> {
    let ion = db.ions()[ion_index];
    let levels = db.levels_by_index(ion_index);
    let n_ion = ion_density(ion.z, ion.charge, point.temperature_k, point.density_cm3);
    if n_ion <= 0.0 {
        return None;
    }
    let kt = point.kt_ev();
    Some(
        levels[level_range]
            .iter()
            .map(|level| {
                RrcIntegrand::new(
                    kt,
                    level.binding_energy_ev,
                    level.n,
                    point.density_cm3,
                    n_ion,
                )
            })
            .collect(),
    )
}

/// Resolve a level's support window to the bin-index range it touches:
/// `(skip, end, clamped_lo)` — bins `skip..end` overlap the window, and
/// the leading bin's lower limit is clamped up to the threshold
/// (`clamped_lo > bins[skip].0` exactly when the threshold falls inside
/// that bin). Shared by the serial fused path and the SIMT kernel so
/// both skip exactly the same bins.
#[must_use]
pub fn window_bin_range(bins: &[(f64, f64)], threshold: f64, cutoff: f64) -> (usize, usize, f64) {
    let skip = bins.partition_point(|&(_, hi)| hi <= threshold);
    let end = bins.partition_point(|&(lo, _)| lo < cutoff);
    let clamped_lo = if skip < end {
        bins[skip].0.max(threshold)
    } else {
        0.0
    };
    (skip, end, clamped_lo)
}

/// Accumulate the emissivity of pre-built `integrands` into `out` with
/// the fused bin-range quadrature: per level, the contiguous run of
/// in-window bins is integrated in one [`BinPlan::integrate`] call (shared
/// bin edges evaluated once), with a threshold-clamped leading bin
/// integrated on its own. The prepared integrand samples each bin's
/// uniform node grid with its exponential-recurrence batch path, so
/// per-bin results agree with the per-bin path under the same rule to
/// within a few parts in `1e13` relative (see
/// [`crate::physics::PreparedIntegrand`]'s `sample_batch`).
///
/// Returns the number of bin integrals evaluated (the same work measure
/// [`emissivity_into`] reports).
///
/// # Panics
/// Panics if `out.len() != bins.len()`.
pub fn emissivity_fused_into(
    integrands: &[RrcIntegrand],
    kt_ev: f64,
    rule: BinRule,
    bins: &[(f64, f64)],
    out: &mut [f64],
) -> u64 {
    emissivity_fused_into_mode(integrands, kt_ev, rule, bins, out, MathMode::Exact)
}

/// [`emissivity_fused_into`] with an explicit [`MathMode`].
///
/// `Exact` is the seed behavior (recurrence sampler, scalar
/// accumulation, bitwise reproducible). `Vector` samples every level's
/// node grids through the lane-parallel [`quadrature::vexp`]
/// ([`VectorPrepared`]) and accumulates with chunked partial sums —
/// per-bin relative deviation from `Exact` stays ≤ 1e−12.
///
/// # Panics
/// Panics if `out.len() != bins.len()`.
pub fn emissivity_fused_into_mode(
    integrands: &[RrcIntegrand],
    kt_ev: f64,
    rule: BinRule,
    bins: &[(f64, f64)],
    out: &mut [f64],
    math: MathMode,
) -> u64 {
    assert_eq!(out.len(), bins.len(), "output slice / bins mismatch");
    // One plan for the whole ion: what depends only on the bins is
    // worked out once and shared by every level.
    let plan = BinPlan::new(rule, bins, math);
    let mut integrals = 0u64;
    for integrand in integrands {
        let prepared = integrand.prepare();
        let window = level_window(integrand.binding_ev, kt_ev);
        integrals += match math {
            MathMode::Exact => fused_level(prepared, window, &plan, out),
            MathMode::Vector => fused_level(VectorPrepared(prepared), window, &plan, out),
        };
    }
    integrals
}

/// One level of the fused path, generic over the sampler the math mode
/// selected.
fn fused_level<S: BatchSampler>(
    mut p: S,
    (threshold, cutoff): (f64, f64),
    plan: &BinPlan<'_>,
    out: &mut [f64],
) -> u64 {
    let bins = plan.bins();
    let (skip, end, clamped_lo) = window_bin_range(bins, threshold, cutoff);
    if skip >= end {
        return 0;
    }
    if clamped_lo > bins[skip].0 {
        // The threshold bin: integrated alone over the clamped
        // sub-interval, exactly as the per-bin path does.
        plan.integrate_clamped(&mut p, skip..end, clamped_lo, &mut out[skip..end]);
    } else {
        plan.integrate(&mut p, skip..end, &mut out[skip..end]);
    }
    (end - skip) as u64
}

/// Accumulate the RRC emissivity of levels `level_range` of the
/// `ion_index`-th ion of `db` at plasma state `point` into `out` (one
/// slot per grid bin).
///
/// This is the body of paper Algorithm 2 seen from the physics side:
/// for every level and every energy bin, one small definite integral of
/// Eq. 1 over the bin (Eq. 2), accumulated per bin.
///
/// Returns the number of integrals evaluated (level-bin pairs actually
/// above threshold), which the cost models use as the work measure.
///
/// # Panics
/// Panics if `out.len() != grid.bins()`, `ion_index` is out of range,
/// or `level_range` exceeds the ion's level list.
#[allow(clippy::too_many_arguments)] // mirrors the QUADPACK-style call contract
pub fn emissivity_into(
    db: &AtomDatabase,
    ion_index: usize,
    level_range: std::ops::Range<usize>,
    point: &GridPoint,
    grid: &EnergyGrid,
    integrator: Integrator,
    ws: &mut QagsWorkspace,
    out: &mut [f64],
) -> u64 {
    emissivity_into_mode(
        db,
        ion_index,
        level_range,
        point,
        grid,
        integrator,
        ws,
        out,
        MathMode::Exact,
    )
}

/// [`emissivity_into`] with an explicit [`MathMode`].
///
/// The mode only touches the fixed-rule fused path; adaptive QAGS stays
/// scalar in either mode — its node placement is data-dependent (each
/// bisection decision consumes the previous samples), so there is no
/// whole-grid batch to hand to the vector layer.
///
/// # Panics
/// Panics if `out.len() != grid.bins()`, `ion_index` is out of range,
/// or `level_range` exceeds the ion's level list.
#[allow(clippy::too_many_arguments)]
pub fn emissivity_into_mode(
    db: &AtomDatabase,
    ion_index: usize,
    level_range: std::ops::Range<usize>,
    point: &GridPoint,
    grid: &EnergyGrid,
    integrator: Integrator,
    ws: &mut QagsWorkspace,
    out: &mut [f64],
    math: MathMode,
) -> u64 {
    emissivity_bins_into_mode(
        db,
        ion_index,
        level_range,
        point,
        &grid.bin_pairs(),
        integrator,
        ws,
        out,
        math,
    )
}

/// [`emissivity_into_mode`] over an already materialized bin table
/// (`grid.bin_pairs()`), for callers that hold one shared by many ion
/// tasks and should not rebuild it per task.
///
/// # Panics
/// Panics if `out.len() != bins.len()`, `ion_index` is out of range,
/// or `level_range` exceeds the ion's level list.
#[allow(clippy::too_many_arguments)]
pub fn emissivity_bins_into_mode(
    db: &AtomDatabase,
    ion_index: usize,
    level_range: std::ops::Range<usize>,
    point: &GridPoint,
    bins: &[(f64, f64)],
    integrator: Integrator,
    ws: &mut QagsWorkspace,
    out: &mut [f64],
    math: MathMode,
) -> u64 {
    assert_eq!(out.len(), bins.len(), "output slice / grid mismatch");
    let Some(integrands) = ion_integrands(db, ion_index, level_range, point) else {
        return 0;
    };
    let kt = point.kt_ev();
    if let Some(rule) = integrator.bin_rule() {
        return emissivity_fused_into_mode(&integrands, kt, rule, bins, out, math);
    }
    let mut integrals = 0u64;
    for integrand in &integrands {
        let p = integrand.prepare();
        let (threshold, cutoff) = level_window(integrand.binding_ev, kt);
        for (slot, &(lo, hi)) in out.iter_mut().zip(bins) {
            if hi <= threshold || lo >= cutoff {
                continue;
            }
            let a = lo.max(threshold);
            let value = integrator.integrate(ws, |e| p.evaluate(e), a, hi);
            *slot += value;
            integrals += 1;
        }
    }
    integrals
}

/// The seed's bin-at-a-time loop, kept as the A/B baseline for the
/// hot-path benchmarks: every bin is an independent
/// [`Integrator::integrate`] call (shared bin edges evaluated twice,
/// integrand invariants not hoisted past the closure). Results agree
/// with [`emissivity_into`] under the same fixed rule to within the
/// fused pipeline's `1e-13`-relative accuracy budget.
#[allow(clippy::too_many_arguments)]
pub fn emissivity_per_bin_into(
    db: &AtomDatabase,
    ion_index: usize,
    level_range: std::ops::Range<usize>,
    point: &GridPoint,
    grid: &EnergyGrid,
    integrator: Integrator,
    ws: &mut QagsWorkspace,
    out: &mut [f64],
) -> u64 {
    assert_eq!(out.len(), grid.bins(), "output slice / grid mismatch");
    let Some(integrands) = ion_integrands(db, ion_index, level_range, point) else {
        return 0;
    };
    let kt = point.kt_ev();
    let mut integrals = 0u64;
    for integrand in &integrands {
        let (threshold, cutoff) = level_window(integrand.binding_ev, kt);
        for (bin, slot) in out.iter_mut().enumerate() {
            let (lo, hi) = grid.bin(bin);
            if hi <= threshold || lo >= cutoff {
                continue;
            }
            let a = lo.max(threshold);
            let value = integrator.integrate(ws, |e| integrand.evaluate(e), a, hi);
            *slot += value;
            integrals += 1;
        }
    }
    integrals
}

/// [`emissivity_into`] over all levels of the ion — the Ion-granularity
/// task body.
pub fn ion_emissivity_into(
    db: &AtomDatabase,
    ion_index: usize,
    point: &GridPoint,
    grid: &EnergyGrid,
    integrator: Integrator,
    ws: &mut QagsWorkspace,
    out: &mut [f64],
) -> u64 {
    let levels = db.levels_by_index(ion_index).len();
    emissivity_into(db, ion_index, 0..levels, point, grid, integrator, ws, out)
}

/// [`ion_emissivity_into`] with an explicit [`MathMode`].
#[allow(clippy::too_many_arguments)]
pub fn ion_emissivity_into_mode(
    db: &AtomDatabase,
    ion_index: usize,
    point: &GridPoint,
    grid: &EnergyGrid,
    integrator: Integrator,
    ws: &mut QagsWorkspace,
    out: &mut [f64],
    math: MathMode,
) -> u64 {
    let levels = db.levels_by_index(ion_index).len();
    emissivity_into_mode(
        db,
        ion_index,
        0..levels,
        point,
        grid,
        integrator,
        ws,
        out,
        math,
    )
}

/// The "original serial APEC": computes the whole spectrum of a grid
/// point by looping ions → levels → bins on one thread.
///
/// ```
/// use atomdb::{AtomDatabase, DatabaseConfig};
/// use rrc_spectral::{EnergyGrid, GridPoint, Integrator, SerialCalculator};
///
/// let db = AtomDatabase::generate(DatabaseConfig { max_z: 4, ..Default::default() });
/// let calc = SerialCalculator::new(
///     db,
///     EnergyGrid::linear(50.0, 500.0, 32),
///     Integrator::Simpson { panels: 64 },
/// );
/// let point = GridPoint { temperature_k: 2e6, density_cm3: 1.0, time_s: 0.0, index: 0 };
/// let spectrum = calc.spectrum_at(&point);
/// assert!(spectrum.total() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SerialCalculator {
    db: AtomDatabase,
    grid: EnergyGrid,
    integrator: Integrator,
}

impl SerialCalculator {
    /// Build a calculator over `db` and `grid` using `integrator` for
    /// every bin.
    #[must_use]
    pub fn new(db: AtomDatabase, grid: EnergyGrid, integrator: Integrator) -> SerialCalculator {
        SerialCalculator {
            db,
            grid,
            integrator,
        }
    }

    /// The database in use.
    #[must_use]
    pub fn database(&self) -> &AtomDatabase {
        &self.db
    }

    /// The grid in use.
    #[must_use]
    pub fn grid(&self) -> &EnergyGrid {
        &self.grid
    }

    /// Emissivity spectrum of one ion at `point`.
    #[must_use]
    pub fn ion_spectrum(&self, ion_index: usize, point: &GridPoint) -> Spectrum {
        let mut spectrum = Spectrum::zeros(self.grid.clone());
        let mut ws = QagsWorkspace::new();
        ion_emissivity_into(
            &self.db,
            ion_index,
            point,
            &self.grid,
            self.integrator,
            &mut ws,
            spectrum.bins_mut(),
        );
        spectrum
    }

    /// Full spectrum of `point`: the sum over all ions.
    #[must_use]
    pub fn spectrum_at(&self, point: &GridPoint) -> Spectrum {
        let mut spectrum = Spectrum::zeros(self.grid.clone());
        let mut ws = QagsWorkspace::new();
        for ion_index in 0..self.db.ions().len() {
            ion_emissivity_into(
                &self.db,
                ion_index,
                point,
                &self.grid,
                self.integrator,
                &mut ws,
                spectrum.bins_mut(),
            );
        }
        spectrum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomdb::DatabaseConfig;

    fn small_db() -> AtomDatabase {
        AtomDatabase::generate(DatabaseConfig {
            max_z: 8,
            ..DatabaseConfig::default()
        })
    }

    fn point() -> GridPoint {
        GridPoint {
            temperature_k: 1e7,
            density_cm3: 1.0,
            time_s: 0.0,
            index: 0,
        }
    }

    fn grid() -> EnergyGrid {
        EnergyGrid::linear(50.0, 2000.0, 64)
    }

    #[test]
    fn spectrum_is_nonnegative_and_nonzero() {
        let calc = SerialCalculator::new(small_db(), grid(), Integrator::paper_gpu());
        let s = calc.spectrum_at(&point());
        assert!(s.bins().iter().all(|&v| v >= 0.0));
        assert!(s.total() > 0.0);
    }

    #[test]
    fn qags_and_simpson_agree_closely() {
        // The paper's accuracy claim (Fig. 8): GPU Simpson vs serial QAGS
        // relative errors are tiny.
        let db = small_db();
        let g = grid();
        let serial = SerialCalculator::new(db.clone(), g.clone(), Integrator::paper_cpu());
        let gpu = SerialCalculator::new(db, g, Integrator::paper_gpu());
        let a = serial.spectrum_at(&point());
        let b = gpu.spectrum_at(&point());
        let errs = b.significant_relative_errors_percent(&a, 1e-6);
        assert!(!errs.is_empty());
        let worst = errs.iter().cloned().fold(0.0f64, |m, e| m.max(e.abs()));
        assert!(worst < 0.01, "worst relative error {worst}%");
    }

    #[test]
    fn ion_spectra_sum_to_total() {
        let calc = SerialCalculator::new(small_db(), grid(), Integrator::paper_gpu());
        let p = point();
        let total = calc.spectrum_at(&p);
        let mut summed = Spectrum::zeros(calc.grid().clone());
        for i in 0..calc.database().ions().len() {
            summed.accumulate(&calc.ion_spectrum(i, &p));
        }
        for (a, b) in total.bins().iter().zip(summed.bins()) {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1e-300));
        }
    }

    #[test]
    fn work_count_tracks_bins_above_threshold() {
        let db = small_db();
        let g = EnergyGrid::linear(50.0, 2000.0, 32);
        let p = point();
        let mut out = vec![0.0; g.bins()];
        let mut ws = QagsWorkspace::new();
        // Oxygen fully-stripped ion (z=8, charge 8): dense index of (8,8).
        let idx = atomdb::Ion::new(8, 8).unwrap().dense_index();
        let n = ion_emissivity_into(&db, idx, &p, &g, Integrator::paper_gpu(), &mut ws, &mut out);
        assert!(n > 0);
        // Upper bound: every level-bin pair.
        let levels = db.levels_by_index(idx).len() as u64;
        assert!(n <= levels * g.bins() as u64);
    }

    #[test]
    fn hotter_point_shifts_spectrum_blueward() {
        let calc = SerialCalculator::new(small_db(), grid(), Integrator::paper_gpu());
        let cold = calc.spectrum_at(&GridPoint {
            temperature_k: 3e6,
            ..point()
        });
        let hot = calc.spectrum_at(&GridPoint {
            temperature_k: 3e7,
            ..point()
        });
        // Flux-weighted mean photon energy increases with temperature.
        let mean = |s: &Spectrum| {
            let mut num = 0.0;
            let mut den = 0.0;
            for i in 0..s.grid().bins() {
                num += s.grid().center_ev(i) * s.bins()[i];
                den += s.bins()[i];
            }
            num / den
        };
        assert!(mean(&hot) > mean(&cold));
    }

    #[test]
    fn vector_mode_tracks_exact_within_budget() {
        // The Vector math mode re-associates sums and swaps libm exp
        // for vexp: every populated bin must stay within 1e-12
        // relative of the Exact path, for both fusable rules.
        let db = small_db();
        let g = grid();
        let p = point();
        for integrator in [Integrator::paper_gpu(), Integrator::Romberg { k: 5 }] {
            let mut ws = QagsWorkspace::new();
            let mut exact = vec![0.0; g.bins()];
            let mut vector = vec![0.0; g.bins()];
            let mut n_exact = 0;
            let mut n_vector = 0;
            for ion in 0..db.ions().len() {
                n_exact += ion_emissivity_into_mode(
                    &db,
                    ion,
                    &p,
                    &g,
                    integrator,
                    &mut ws,
                    &mut exact,
                    MathMode::Exact,
                );
                n_vector += ion_emissivity_into_mode(
                    &db,
                    ion,
                    &p,
                    &g,
                    integrator,
                    &mut ws,
                    &mut vector,
                    MathMode::Vector,
                );
            }
            assert_eq!(n_exact, n_vector, "same work in either mode");
            assert!(exact.iter().sum::<f64>() > 0.0);
            for (i, (&a, &b)) in exact.iter().zip(&vector).enumerate() {
                let scale = a.abs().max(1e-300);
                assert!(
                    ((b - a) / scale).abs() <= 1e-12,
                    "{integrator:?} bin {i}: {b} vs {a}"
                );
            }
        }
    }

    #[test]
    fn exact_mode_is_the_default_bitwise() {
        // The delegating wrappers must keep today's results untouched.
        let db = small_db();
        let g = grid();
        let p = point();
        let mut ws = QagsWorkspace::new();
        let mut a = vec![0.0; g.bins()];
        let mut b = vec![0.0; g.bins()];
        for ion in 0..db.ions().len() {
            ion_emissivity_into(&db, ion, &p, &g, Integrator::paper_gpu(), &mut ws, &mut a);
            ion_emissivity_into_mode(
                &db,
                ion,
                &p,
                &g,
                Integrator::paper_gpu(),
                &mut ws,
                &mut b,
                MathMode::Exact,
            );
        }
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn romberg_matches_qags_tightly() {
        let db = small_db();
        let g = EnergyGrid::linear(200.0, 1500.0, 24);
        let serial = SerialCalculator::new(db.clone(), g.clone(), Integrator::paper_cpu());
        let romb = SerialCalculator::new(db, g, Integrator::Romberg { k: 9 });
        let a = serial.spectrum_at(&point());
        let b = romb.spectrum_at(&point());
        let errs = b.significant_relative_errors_percent(&a, 1e-6);
        let worst = errs.iter().cloned().fold(0.0f64, |m, e| m.max(e.abs()));
        assert!(worst < 0.01, "worst relative error {worst}%");
    }
}
