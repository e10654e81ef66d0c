//! Energy-bin grids and wavelength conversion.

use std::sync::Arc;

use crate::HC_EV_ANGSTROM;

/// A contiguous grid of photon-energy bins.
///
/// Paper Eq. 2 integrates the RRC emissivity over each bin
/// `[E0, E1]`; the bin count per level is the paper's "10^5 energy bins"
/// knob (we default far smaller so real-mode runs finish in seconds; the
/// DES performance model charges work for the full-size grid).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyGrid {
    min_ev: f64,
    max_ev: f64,
    bins: usize,
    log_spaced: bool,
    /// The `bins + 1` edge values, materialized once at construction.
    /// Log-spaced grids used to recompute `min_ev.ln()` / `max_ev.ln()`
    /// (and an `exp`) on *every* edge call; now [`EnergyGrid::edge`] is
    /// a table lookup with the same bit patterns. Shared, so cloning a
    /// grid (every engine job carries one) copies a pointer, not the
    /// table.
    edges: Arc<[f64]>,
    /// `ln(min_ev)` and `ln(max_ev) - ln(min_ev)`, cached for
    /// [`EnergyGrid::locate`] (zeros on linear grids, never read).
    ln_min: f64,
    ln_span: f64,
}

impl EnergyGrid {
    fn build(min_ev: f64, max_ev: f64, bins: usize, log_spaced: bool) -> EnergyGrid {
        // These cached values are exactly the subexpressions the seed
        // evaluated per edge call, so the table entries are bitwise
        // identical to what `edge()` used to return.
        let ln_min = if log_spaced { min_ev.ln() } else { 0.0 };
        let ln_span = if log_spaced {
            max_ev.ln() - min_ev.ln()
        } else {
            0.0
        };
        let edges = (0..=bins)
            .map(|i| {
                let t = i as f64 / bins as f64;
                if log_spaced {
                    (ln_min + t * ln_span).exp()
                } else {
                    min_ev + t * (max_ev - min_ev)
                }
            })
            .collect();
        EnergyGrid {
            min_ev,
            max_ev,
            bins,
            log_spaced,
            edges,
            ln_min,
            ln_span,
        }
    }

    /// A linear grid of `bins` bins over `[min_ev, max_ev]`.
    ///
    /// # Panics
    /// Panics if the interval is empty/non-finite or `bins == 0`.
    #[must_use]
    pub fn linear(min_ev: f64, max_ev: f64, bins: usize) -> EnergyGrid {
        assert!(
            min_ev.is_finite() && max_ev.is_finite() && min_ev < max_ev,
            "bad energy range [{min_ev}, {max_ev}]"
        );
        assert!(bins > 0, "grid needs at least one bin");
        EnergyGrid::build(min_ev, max_ev, bins, false)
    }

    /// A logarithmic grid of `bins` bins over `[min_ev, max_ev]`
    /// (requires `min_ev > 0`).
    ///
    /// # Panics
    /// Panics on an empty/non-finite interval, `min_ev <= 0`, or
    /// `bins == 0`.
    #[must_use]
    pub fn logarithmic(min_ev: f64, max_ev: f64, bins: usize) -> EnergyGrid {
        assert!(
            min_ev.is_finite() && max_ev.is_finite() && 0.0 < min_ev && min_ev < max_ev,
            "bad energy range [{min_ev}, {max_ev}]"
        );
        assert!(bins > 0, "grid needs at least one bin");
        EnergyGrid::build(min_ev, max_ev, bins, true)
    }

    /// The grid covering the paper's plotted wavelength range, 10–45 Å
    /// (photon energies ~275.5–1239.8 eV).
    #[must_use]
    pub fn paper_waveband(bins: usize) -> EnergyGrid {
        EnergyGrid::linear(HC_EV_ANGSTROM / 45.0, HC_EV_ANGSTROM / 10.0, bins)
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Lower edge of the whole grid in eV.
    #[must_use]
    pub fn min_ev(&self) -> f64 {
        self.min_ev
    }

    /// Upper edge of the whole grid in eV.
    #[must_use]
    pub fn max_ev(&self) -> f64 {
        self.max_ev
    }

    /// The `i`-th bin edge, `i` in `0..=bins` — a lookup into the table
    /// built at construction.
    #[must_use]
    pub fn edge(&self, i: usize) -> f64 {
        debug_assert!(i <= self.bins);
        self.edges[i]
    }

    /// The `(lo, hi)` edges of bin `i`, `i` in `0..bins`.
    #[must_use]
    pub fn bin(&self, i: usize) -> (f64, f64) {
        (self.edge(i), self.edge(i + 1))
    }

    /// Midpoint energy of bin `i` in eV.
    #[must_use]
    pub fn center_ev(&self, i: usize) -> f64 {
        let (lo, hi) = self.bin(i);
        0.5 * (lo + hi)
    }

    /// Midpoint wavelength of bin `i` in Å.
    #[must_use]
    pub fn center_angstrom(&self, i: usize) -> f64 {
        HC_EV_ANGSTROM / self.center_ev(i)
    }

    /// Materialize every bin as a `(lo, hi)` pair, reusing `out`'s
    /// allocation. Adjacent bins share their edge value bitwise (each
    /// edge is computed once), which is what lets the fused quadrature
    /// path ([`quadrature`'s `integrate_bins`]) reuse edge samples.
    pub fn fill_bin_pairs(&self, out: &mut Vec<(f64, f64)>) {
        out.clear();
        out.reserve(self.bins);
        let mut lo = self.edge(0);
        for i in 0..self.bins {
            let hi = self.edge(i + 1);
            out.push((lo, hi));
            lo = hi;
        }
    }

    /// [`EnergyGrid::fill_bin_pairs`] into a fresh vector.
    #[must_use]
    pub fn bin_pairs(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        self.fill_bin_pairs(&mut out);
        out
    }

    /// Which bin contains `energy_ev`, or `None` outside the grid.
    #[must_use]
    pub fn locate(&self, energy_ev: f64) -> Option<usize> {
        if energy_ev < self.min_ev || energy_ev >= self.max_ev {
            return None;
        }
        let t = if self.log_spaced {
            (energy_ev.ln() - self.ln_min) / self.ln_span
        } else {
            (energy_ev - self.min_ev) / (self.max_ev - self.min_ev)
        };
        Some(((t * self.bins as f64) as usize).min(self.bins - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_edges_are_uniform() {
        let g = EnergyGrid::linear(0.0, 10.0, 5);
        for i in 0..5 {
            let (lo, hi) = g.bin(i);
            assert!((hi - lo - 2.0).abs() < 1e-12);
        }
        assert_eq!(g.edge(0), 0.0);
        assert_eq!(g.edge(5), 10.0);
    }

    #[test]
    fn log_edges_have_constant_ratio() {
        let g = EnergyGrid::logarithmic(1.0, 16.0, 4);
        for i in 0..4 {
            let (lo, hi) = g.bin(i);
            assert!((hi / lo - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn bins_partition_the_range() {
        for g in [
            EnergyGrid::linear(3.0, 47.0, 13),
            EnergyGrid::logarithmic(0.5, 99.0, 13),
        ] {
            for i in 0..g.bins() - 1 {
                assert_eq!(g.bin(i).1, g.bin(i + 1).0);
            }
        }
    }

    #[test]
    fn locate_finds_containing_bin() {
        let g = EnergyGrid::linear(0.0, 100.0, 10);
        for i in 0..10 {
            let c = g.center_ev(i);
            assert_eq!(g.locate(c), Some(i));
        }
        assert_eq!(g.locate(-1.0), None);
        assert_eq!(g.locate(100.0), None);
        assert_eq!(g.locate(0.0), Some(0));
    }

    #[test]
    fn paper_waveband_covers_10_to_45_angstrom() {
        let g = EnergyGrid::paper_waveband(100);
        let wl_max = HC_EV_ANGSTROM / g.min_ev();
        let wl_min = HC_EV_ANGSTROM / g.max_ev();
        assert!((wl_max - 45.0).abs() < 1e-9);
        assert!((wl_min - 10.0).abs() < 1e-9);
    }

    #[test]
    fn wavelength_center_is_consistent() {
        let g = EnergyGrid::linear(100.0, 200.0, 4);
        for i in 0..4 {
            let wl = g.center_angstrom(i);
            assert!((wl * g.center_ev(i) - HC_EV_ANGSTROM).abs() < 1e-6);
        }
    }

    #[test]
    fn edge_table_matches_the_seed_formula_bitwise() {
        // The table must reproduce exactly what the per-call formula
        // used to return, or every downstream bitwise-parity guarantee
        // (shared bin edges, windowing) silently shifts.
        let lin = EnergyGrid::linear(3.25, 47.5, 29);
        let log = EnergyGrid::logarithmic(0.75, 99.5, 29);
        for i in 0..=29usize {
            let t = i as f64 / 29f64;
            let lin_want = 3.25 + t * (47.5 - 3.25);
            let log_want = (0.75f64.ln() + t * (99.5f64.ln() - 0.75f64.ln())).exp();
            assert_eq!(lin.edge(i).to_bits(), lin_want.to_bits(), "linear edge {i}");
            assert_eq!(log.edge(i).to_bits(), log_want.to_bits(), "log edge {i}");
        }
    }

    #[test]
    fn clone_shares_the_edge_table() {
        let g = EnergyGrid::logarithmic(0.75, 99.5, 29);
        let c = g.clone();
        assert!(Arc::ptr_eq(&g.edges, &c.edges), "clone must be O(1)");
        assert_eq!(g, c);
        assert_ne!(g, EnergyGrid::logarithmic(0.75, 99.5, 30));
    }

    #[test]
    #[should_panic(expected = "bad energy range")]
    fn rejects_reversed_range() {
        let _ = EnergyGrid::linear(10.0, 1.0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn rejects_zero_bins() {
        let _ = EnergyGrid::linear(0.0, 1.0, 0);
    }
}
