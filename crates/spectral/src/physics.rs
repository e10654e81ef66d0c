//! The RRC integrand (paper Eq. 1).
//!
//! For a free electron of a Maxwellian plasma at temperature `kT`
//! recombining onto level `n` (binding energy `I = I_{Z,j,n}`) of ion
//! `(Z, j)`, the differential emitted power per photon energy is
//!
//! ```text
//! dP/dE = n_e * n_{Z,j+1} * 4 * (E_g - I)/kT * sqrt(1/(2 pi m_e kT)) * A
//! A     = sigma_rec_n(E_g - I) * exp(-(E_g - I)/kT) * E_g
//! ```
//!
//! The photon energy `E_g` must exceed the binding energy: below
//! threshold the integrand is identically zero, which puts a kink at the
//! recombination edge — the feature that makes per-bin adaptive
//! quadrature worthwhile near edges.
//!
//! # The prepared hot path
//!
//! Everything in Eq. 1 except the `exp` depends only on the
//! (ion, level, plasma-state) triple, not on the sample energy: with the
//! Kramers cross section `sigma_rec_n(E_e) = sigma_0 I^2 / (n E_e E_g)`
//! the `E_e` and `E_g` factors cancel and the whole integrand collapses
//! to
//!
//! ```text
//! dP/dE = C * exp(-(E_g - I)/kT),   C = prefactor * sigma_0 I^2 / (n kT)
//! ```
//!
//! [`PreparedIntegrand`] hoists `C`, `1/kT` and the threshold out of the
//! per-sample path, leaving one compare, one subtract, one multiply and
//! one `exp` per sample. This is the form the serial calculator, the
//! QAGS fallback and the SIMT kernel all evaluate.

use atomdb::recombination_cross_section_times_energy;
use quadrature::{uniform_step, LaneGrid, LaneRow, BIN_LANES};

use crate::ME_C2_EV;

/// The fully bound RRC integrand for one (ion, level, plasma state)
/// triple: a reusable `E_gamma -> dP/dE` function.
///
/// Constructed with [`RrcIntegrand::new`], which precomputes the
/// per-sample invariants once; the descriptive fields stay public for
/// reading, and the cached [`PreparedIntegrand`] keeps them consistent
/// by being derived at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RrcIntegrand {
    /// Plasma temperature as `kT` in eV.
    pub kt_ev: f64,
    /// Level binding energy `I_{Z,j,n}` in eV.
    pub binding_ev: f64,
    /// Principal quantum number of the capturing level.
    pub n: u16,
    /// Electron density `n_e` in cm^-3.
    pub electron_density: f64,
    /// Density of the recombining ion `n_{Z,j+1}` in cm^-3.
    pub ion_density: f64,
    /// Cached per-sample invariants (kept private so it cannot drift
    /// from the fields above).
    prepared: PreparedIntegrand,
}

/// The per-sample invariants of one RRC integrand, hoisted out of the
/// evaluation loop: `dP/dE = coeff * exp(-(E_g - threshold) * inv_kt)`
/// above threshold, zero below.
///
/// `Copy` and 24 bytes — kernels copy it into their hot loop instead of
/// chasing the full [`RrcIntegrand`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedIntegrand {
    /// Recombination threshold (the level binding energy), eV.
    pub threshold_ev: f64,
    /// `1/kT` in 1/eV.
    pub inv_kt: f64,
    /// The collapsed constant `prefactor * sigma_0 I^2 / (n kT)`.
    pub coeff: f64,
}

impl PreparedIntegrand {
    /// Evaluate `dP/dE` at photon energy `e_gamma_ev`: the hot-path
    /// form, one compare + subtract + multiply + `exp`.
    #[inline]
    #[must_use]
    pub fn evaluate(&self, e_gamma_ev: f64) -> f64 {
        let electron_ev = e_gamma_ev - self.threshold_ev;
        if electron_ev < 0.0 {
            return 0.0;
        }
        self.coeff * (-electron_ev * self.inv_kt).exp()
    }
}

/// Batched evaluation for the quadrature hot path.
///
/// On the (uniform, ascending) node grids the bin-range quadrature
/// routines produce, the collapsed integrand `C * exp(-(x - t)/kT)`
/// advances from node to node by the constant factor `exp(-h/kT)` — so
/// a whole grid costs one `exp` (re-anchored every few hundred nodes to
/// bound round-off drift) plus one multiply per node, instead of one
/// `exp` per node. Nodes below threshold stay exactly zero, matching
/// [`PreparedIntegrand::evaluate`]. Grids that are not uniform and
/// ascending fall back to per-node evaluation, so results are only ever
/// *faster*, never different by more than ~1e-13 relative (recurrence
/// drift plus the grid's deviation from exact uniformity).
impl quadrature::BatchSampler for PreparedIntegrand {
    #[inline]
    fn sample(&mut self, x: f64) -> f64 {
        self.evaluate(x)
    }

    fn sample_batch(&mut self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "xs / out length mismatch");
        let n = xs.len();
        let per_node = |out: &mut [f64]| {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = self.evaluate(x);
            }
        };
        if n < 4 || self.coeff == 0.0 {
            return per_node(out);
        }
        // Anything but an ascending uniform grid takes the exact
        // per-node path.
        let Some(step) = uniform_step(xs) else {
            return per_node(out);
        };
        // Zero prefix below threshold, same predicate as `evaluate`.
        let zeros = xs.partition_point(|&x| x - self.threshold_ev < 0.0);
        for o in &mut out[..zeros] {
            *o = 0.0;
        }
        let decay = (-step * self.inv_kt).exp();
        // Fresh anchor every 256 nodes: drift stays under ~3e-14.
        let mut j = zeros;
        while j < n {
            let run_end = (j + 256).min(n);
            let mut v = self.coeff * (-(xs[j] - self.threshold_ev) * self.inv_kt).exp();
            out[j] = v;
            for o in &mut out[j + 1..run_end] {
                v *= decay;
                *o = v;
            }
            j = run_end;
        }
    }

    fn lockstep(&self) -> bool {
        true
    }

    /// [`BIN_LANES`] recurrences side by side. Each lane runs the
    /// operation sequence `sample_batch` runs on its grid — the same
    /// anchor `exp` arguments, the same 256-node re-anchoring, one
    /// multiply per node — so the bits cannot differ; only the
    /// latency-bound `v *= decay` chains now overlap. A grid
    /// `sample_batch` would not send down the recurrence from its first
    /// node (fewer than 4 nodes, zero coefficient, non-uniform, any
    /// node below threshold) declines the whole group.
    fn sample_lanes(&mut self, grid: &LaneGrid, out: &mut [LaneRow]) -> bool {
        assert_eq!(grid.len(), out.len(), "grid / out length mismatch");
        if grid.len() < 4 || self.coeff == 0.0 || !grid.all_uniform() {
            return false;
        }
        // Subtraction rounds monotonically, so a node is below
        // threshold exactly when the smallest one is.
        if grid.min().iter().any(|&x| x - self.threshold_ev < 0.0) {
            return false;
        }
        let mut decay = [0.0; BIN_LANES];
        for (d, &step) in decay.iter_mut().zip(grid.step()) {
            *d = (-step * self.inv_kt).exp();
        }
        for (run, out) in out.chunks_mut(256).enumerate() {
            let x = grid.row(256 * run);
            let mut v = [0.0; BIN_LANES];
            for k in 0..BIN_LANES {
                v[k] = self.coeff * (-(x[k] - self.threshold_ev) * self.inv_kt).exp();
            }
            out[0] = v;
            for o in &mut out[1..] {
                for k in 0..BIN_LANES {
                    v[k] *= decay[k];
                }
                *o = v;
            }
        }
        true
    }
}

/// The `MathMode::Vector` sampler: a [`PreparedIntegrand`] whose
/// batches evaluate whole node grids through the lane-parallel
/// [`quadrature::vexp`] instead of the scalar exp-recurrence.
///
/// Uniform ascending grids (the case every fixed-rule quadrature
/// routine produces) take a *lane-parallel* geometric recurrence: one
/// `vexp` call seeds [`LANES`] anchor values, and from there the batch
/// advances [`LANES`] independent multiply chains by the constant
/// `exp(-LANES·h/kT)` — the vector analogue of the `Exact` sampler's
/// single serial chain, with the same 256-node re-anchoring to bound
/// round-off drift. Non-uniform grids get an independent exponential
/// per node, so arbitrary (even unsorted) batches still work; nodes
/// below threshold come out exactly zero on either path (their
/// argument is forced to `-∞`, which `vexp` flushes to `0.0`).
/// Relative deviation from the `Exact` sampler stays bounded by
/// `vexp`'s ≤ 1e−14 per-element budget plus the shared recurrence
/// drift — comfortably inside the documented 1e−12 spectral budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorPrepared(pub PreparedIntegrand);

/// Lane width of the geometric recurrence (matches
/// [`quadrature::simd::LANES`]).
const LANES: usize = quadrature::simd::LANES;

impl VectorPrepared {
    /// Per-node path: fill the argument grid, one `vexp` pass, then
    /// the coefficient multiply.
    fn sample_vexp(&self, xs: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            let dx = x - self.0.threshold_ev;
            *o = if dx < 0.0 {
                f64::NEG_INFINITY
            } else {
                -dx * self.0.inv_kt
            };
        }
        quadrature::vexp(out);
        for o in out.iter_mut() {
            *o *= self.0.coeff;
        }
    }
}

impl quadrature::BatchSampler for VectorPrepared {
    #[inline]
    fn sample(&mut self, x: f64) -> f64 {
        let dx = x - self.0.threshold_ev;
        if dx < 0.0 {
            return 0.0;
        }
        let mut one = [-dx * self.0.inv_kt];
        quadrature::vexp(&mut one);
        self.0.coeff * one[0]
    }

    fn sample_batch(&mut self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "xs / out length mismatch");
        let n = xs.len();
        if n < 4 * LANES || self.0.coeff == 0.0 {
            return self.sample_vexp(xs, out);
        }
        // Same uniformity predicate as the Exact recurrence: ascending
        // and affine to within a few ulps of the node magnitudes. The
        // deviation is accumulated per lane with no early exit so the
        // whole pass vectorizes.
        let x0 = xs[0];
        let step = (xs[n - 1] - x0) / (n - 1) as f64;
        let tol = 8.0 * f64::EPSILON * xs[0].abs().max(xs[n - 1].abs());
        let mut dev = [0.0f64; LANES];
        let mut chunks = xs.chunks_exact(LANES);
        let mut base = 0.0f64;
        for chunk in &mut chunks {
            for (l, d) in dev.iter_mut().enumerate() {
                *d = d.max((chunk[l] - (x0 + (base + l as f64) * step)).abs());
            }
            base += LANES as f64;
        }
        let mut worst = dev.iter().fold(0.0f64, |a, &d| a.max(d));
        for (l, &x) in chunks.remainder().iter().enumerate() {
            worst = worst.max((x - (x0 + (base + l as f64) * step)).abs());
        }
        if step <= 0.0 || worst > tol {
            return self.sample_vexp(xs, out);
        }
        // Zero prefix below threshold, same predicate as `evaluate`.
        let zeros = xs.partition_point(|&x| x - self.0.threshold_ev < 0.0);
        for o in &mut out[..zeros] {
            *o = 0.0;
        }
        // Two vectors' worth of independent chains: the multiply
        // latency of one chain hides behind the other's.
        const STRIDE: usize = 2 * LANES;
        // exp(-STRIDE·h/kT): the per-step decay of each lane chain.
        let growth = quadrature::vexp1(-(STRIDE as f64 * step) * self.0.inv_kt);
        let mut j = zeros;
        while j < n {
            // Fresh vexp anchors every 256 nodes, like the Exact path.
            let run_end = (j + 256).min(n);
            let seed = STRIDE.min(run_end - j);
            self.sample_vexp(&xs[j..j + seed], &mut out[j..j + seed]);
            if seed == STRIDE {
                let mut carry = [0.0f64; STRIDE];
                carry.copy_from_slice(&out[j..j + STRIDE]);
                let mut i = j + STRIDE;
                while i + STRIDE <= run_end {
                    for (l, c) in carry.iter_mut().enumerate() {
                        *c *= growth;
                        out[i + l] = *c;
                    }
                    i += STRIDE;
                }
                for l in 0..run_end - i {
                    out[i + l] = carry[l] * growth;
                }
            }
            j = run_end;
        }
    }
}

impl RrcIntegrand {
    /// Bind an integrand, precomputing the per-sample invariants (the
    /// Maxwellian prefactor, `1/kT`, and the collapsed cross-section
    /// constant) once.
    #[must_use]
    pub fn new(
        kt_ev: f64,
        binding_ev: f64,
        n: u16,
        electron_density: f64,
        ion_density: f64,
    ) -> RrcIntegrand {
        let prepared = if kt_ev > 0.0 {
            let prefactor = electron_density * ion_density * 4.0 / kt_ev
                * (1.0 / (2.0 * std::f64::consts::PI * ME_C2_EV * kt_ev)).sqrt();
            // sigma_rec_n(E_e) * E_e * E_g = sigma_0 I^2 / n for the
            // Kramers cross section, so the sample-dependent factors
            // collapse; `times_energy` at E_e = 0 yields sigma_0 I / n,
            // hence the extra factor of I.
            let sigma_const =
                recombination_cross_section_times_energy(n, binding_ev, 0.0) * binding_ev;
            PreparedIntegrand {
                threshold_ev: binding_ev,
                inv_kt: 1.0 / kt_ev,
                coeff: prefactor * sigma_const / kt_ev,
            }
        } else {
            PreparedIntegrand {
                threshold_ev: binding_ev,
                inv_kt: 0.0,
                coeff: 0.0,
            }
        };
        RrcIntegrand {
            kt_ev,
            binding_ev,
            n,
            electron_density,
            ion_density,
            prepared,
        }
    }

    /// The Maxwellian prefactor `4/kT * sqrt(1/(2 pi m_e kT))` with the
    /// electron mass expressed through its rest energy (natural units:
    /// the overall absolute scale is arbitrary for a normalized-flux
    /// spectrum, the *shape* in `kT` is what matters). Cached at
    /// construction — this used to be recomputed per sample.
    #[must_use]
    pub fn prefactor(&self) -> f64 {
        if self.kt_ev <= 0.0 {
            return 0.0;
        }
        self.electron_density * self.ion_density * 4.0 / self.kt_ev
            * (1.0 / (2.0 * std::f64::consts::PI * ME_C2_EV * self.kt_ev)).sqrt()
    }

    /// The hoisted per-sample invariants, for hot loops that want the
    /// 24-byte form instead of `&self`.
    #[inline]
    #[must_use]
    pub fn prepare(&self) -> PreparedIntegrand {
        self.prepared
    }

    /// Evaluate `dP/dE` at photon energy `e_gamma_ev`. Zero below the
    /// recombination threshold; *at* threshold the `1/E_e` divergence of
    /// the Kramers cross section cancels the Maxwellian `E_e` factor, so
    /// the continuous limit value is returned (closed quadrature rules
    /// sample the threshold endpoint).
    ///
    /// Uses the cached [`PreparedIntegrand`]; agrees with the seed's
    /// unprepared arithmetic ([`RrcIntegrand::evaluate_unprepared`]) to
    /// a few ulp (well inside 1e-12 relative).
    #[inline]
    #[must_use]
    pub fn evaluate(&self, e_gamma_ev: f64) -> f64 {
        self.prepared.evaluate(e_gamma_ev)
    }

    /// The seed's per-sample arithmetic, kept verbatim (Maxwellian
    /// prefactor — `sqrt` and several divides — recomputed on every
    /// sample) as the A/B baseline for the hot-path benchmarks and as an
    /// independent numerical cross-check of the prepared form.
    #[must_use]
    pub fn evaluate_unprepared(&self, e_gamma_ev: f64) -> f64 {
        let electron_ev = e_gamma_ev - self.binding_ev;
        if electron_ev < 0.0 || self.kt_ev <= 0.0 {
            return 0.0;
        }
        let sigma_e =
            recombination_cross_section_times_energy(self.n, self.binding_ev, electron_ev);
        let a = sigma_e * (-electron_ev / self.kt_ev).exp() * e_gamma_ev;
        self.prefactor() * a / self.kt_ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn integrand() -> RrcIntegrand {
        RrcIntegrand::new(
            862.0, // ~1e7 K
            870.0, 1, 1.0, 1e-4,
        )
    }

    #[test]
    fn zero_below_threshold_finite_at_threshold() {
        let f = integrand();
        assert_eq!(f.evaluate(f.binding_ev - 1.0), 0.0);
        assert_eq!(f.evaluate(0.0), 0.0);
        // At the edge the continuous limit is positive and matches the
        // just-above-threshold value.
        let at = f.evaluate(f.binding_ev);
        let above = f.evaluate(f.binding_ev + 1e-9);
        assert!(at > 0.0);
        assert!((at - above).abs() / at < 1e-9);
    }

    #[test]
    fn positive_above_threshold() {
        let f = integrand();
        assert!(f.evaluate(f.binding_ev + 1.0) > 0.0);
        assert!(f.evaluate(f.binding_ev + 500.0) > 0.0);
    }

    #[test]
    fn exponential_cutoff_far_above_threshold() {
        let f = integrand();
        let near = f.evaluate(f.binding_ev + f.kt_ev);
        let far = f.evaluate(f.binding_ev + 20.0 * f.kt_ev);
        assert!(far < near * 1e-4);
    }

    #[test]
    fn scales_linearly_with_densities() {
        let f = integrand();
        let f2 = RrcIntegrand::new(
            f.kt_ev,
            f.binding_ev,
            f.n,
            f.electron_density * 3.0,
            f.ion_density * 2.0,
        );
        let e = f.binding_ev + 100.0;
        assert!((f2.evaluate(e) / f.evaluate(e) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn hotter_plasma_has_harder_tail() {
        let cold = integrand();
        let hot = RrcIntegrand::new(
            4.0 * cold.kt_ev,
            cold.binding_ev,
            cold.n,
            cold.electron_density,
            cold.ion_density,
        );
        let e = cold.binding_ev + 10.0 * cold.kt_ev;
        // Relative to its near-threshold value, the hot plasma keeps more
        // flux far above threshold.
        let cold_ratio = cold.evaluate(e) / cold.evaluate(cold.binding_ev + cold.kt_ev);
        let hot_ratio = hot.evaluate(e) / hot.evaluate(cold.binding_ev + cold.kt_ev);
        assert!(hot_ratio > cold_ratio);
    }

    #[test]
    fn integrand_is_finite_and_smooth_above_edge() {
        let f = integrand();
        let mut prev = f.evaluate(f.binding_ev + 1e-6);
        assert!(prev.is_finite());
        for i in 1..1000 {
            let e = f.binding_ev + 1e-6 + i as f64;
            let v = f.evaluate(e);
            assert!(v.is_finite());
            // No wild oscillation: neighbouring samples stay within 10x.
            if prev > 0.0 && v > 0.0 {
                let r = v / prev;
                assert!(r < 10.0 && r > 0.1, "jump at {e}: {r}");
            }
            prev = v;
        }
    }

    #[test]
    fn prepared_matches_unprepared_arithmetic() {
        // The collapsed form rearranges the seed arithmetic; over the
        // whole support (including 40 kT into the exponential tail) the
        // two must agree far inside the 1e-12 budget the accuracy
        // experiments assume.
        for (kt, binding, n) in [(862.0, 870.0, 1u16), (86.2, 13.6, 2), (8620.0, 5432.1, 5)] {
            let f = RrcIntegrand::new(kt, binding, n, 2.5, 3e-4);
            for i in 0..4000 {
                let e = binding + f64::from(i) * 0.01 * kt;
                let fast = f.evaluate(e);
                let slow = f.evaluate_unprepared(e);
                if slow == 0.0 {
                    assert_eq!(fast, 0.0);
                } else {
                    assert!(
                        ((fast - slow) / slow).abs() < 1e-13,
                        "kT={kt} e={e}: {fast} vs {slow}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_sampling_matches_per_node_within_budget() {
        use quadrature::BatchSampler;
        // Uniform ascending grids straddling the threshold: the batch
        // recurrence must agree with per-node evaluation inside the
        // fused pipeline's 1e-12 budget, with the zero prefix exact.
        for (kt, binding, n_level) in [(862.0, 870.0, 1u16), (8.62, 870.0, 3), (8620.0, 13.6, 2)] {
            let f = RrcIntegrand::new(kt, binding, n_level, 2.5, 3e-4);
            let mut p = f.prepare();
            let lo = binding - 2.0 * kt;
            let step = 40.0 * kt / 1000.0;
            let xs: Vec<f64> = (0..1000).map(|j| lo + f64::from(j) * step).collect();
            let mut out = vec![f64::NAN; xs.len()];
            p.sample_batch(&xs, &mut out);
            for (j, (&x, &got)) in xs.iter().zip(&out).enumerate() {
                let want = f.evaluate(x);
                if want == 0.0 {
                    assert_eq!(got, 0.0, "node {j}");
                } else {
                    assert!(
                        ((got - want) / want).abs() < 1e-13,
                        "kT={kt} node {j}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_sampling_falls_back_exactly_on_nonuniform_grids() {
        use quadrature::BatchSampler;
        let f = integrand();
        let mut p = f.prepare();
        // Geometric (non-uniform) grid: must take the per-node path and
        // therefore agree bitwise with evaluate().
        let xs: Vec<f64> = (0..64).map(|j| 800.0 * 1.01f64.powi(j)).collect();
        let mut out = vec![0.0; xs.len()];
        p.sample_batch(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            assert_eq!(got, f.evaluate(x));
        }
    }

    #[test]
    fn vector_sampler_matches_exact_within_vexp_budget() {
        use quadrature::BatchSampler;
        for (kt, binding, n_level) in [(862.0, 870.0, 1u16), (8.62, 870.0, 3), (8620.0, 13.6, 2)] {
            let f = RrcIntegrand::new(kt, binding, n_level, 2.5, 3e-4);
            let mut v = VectorPrepared(f.prepare());
            let lo = binding - 2.0 * kt;
            let step = 40.0 * kt / 777.0;
            let xs: Vec<f64> = (0..777).map(|j| lo + f64::from(j) * step).collect();
            let mut out = vec![f64::NAN; xs.len()];
            v.sample_batch(&xs, &mut out);
            for (j, (&x, &got)) in xs.iter().zip(&out).enumerate() {
                let want = f.evaluate(x);
                if want == 0.0 {
                    assert_eq!(got, 0.0, "below-threshold node {j} must be exactly zero");
                } else {
                    assert!(
                        ((got - want) / want).abs() <= 1e-13,
                        "kT={kt} node {j}: {got} vs {want}"
                    );
                }
                // Single-sample form agrees with the batch to within
                // the recurrence drift (bitwise at exact zeros).
                let single = v.sample(x);
                if got == 0.0 {
                    assert_eq!(single, 0.0, "node {j}");
                } else {
                    assert!(
                        ((single - got) / got).abs() <= 1e-13,
                        "node {j}: batch {got} vs single {single}"
                    );
                }
            }
        }
    }

    #[test]
    fn vector_sampler_needs_no_uniform_grid() {
        use quadrature::BatchSampler;
        let f = integrand();
        let mut v = VectorPrepared(f.prepare());
        // Geometric grid — the recurrence sampler's fallback case; the
        // vector sampler treats it like any other batch.
        let xs: Vec<f64> = (0..37).map(|j| 800.0 * 1.01f64.powi(j)).collect();
        let mut out = vec![0.0; xs.len()];
        v.sample_batch(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            let want = f.evaluate(x);
            if want == 0.0 {
                assert_eq!(got, 0.0);
            } else {
                assert!(((got - want) / want).abs() <= 1e-13);
            }
        }
    }

    #[test]
    fn zero_temperature_is_identically_zero() {
        let f = RrcIntegrand::new(0.0, 870.0, 1, 1.0, 1.0);
        assert_eq!(f.evaluate(1000.0), 0.0);
        assert_eq!(f.prefactor(), 0.0);
    }
}
