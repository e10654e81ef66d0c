//! Hydrogenic energy levels with per-ion cutoffs.
//!
//! Real ions have "theoretically ... an infinite number principal energy
//! levels"; the paper cuts the calculation off. We use a hydrogenic
//! model: level `n` of the recombined ion binds the captured electron
//! with `I = Ry * q_eff^2 / n^2`, and each ion carries a deterministic
//! cutoff `n_max` so that the number of levels — and therefore the work
//! per ion task — varies across ions exactly like a real database's
//! level census does.

use crate::ion::Ion;
use crate::RYDBERG_EV;

/// One bound level of a recombined ion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Level {
    /// Principal quantum number, `1..=n_max`.
    pub n: u16,
    /// Binding energy `I_{Z,j,n}` in eV: the captured electron's binding
    /// energy in this level (paper Eq. 1).
    pub binding_energy_ev: f64,
    /// Statistical weight `2 n^2` of the hydrogenic shell.
    pub weight: f64,
}

/// Deterministic level-census model.
///
/// `n_max(ion)` is a hash-like but fully deterministic function of the
/// ion spreading cutoffs over `[min_levels, max_levels]`. The defaults
/// give a mean of ~10 levels per ion, making per-ion task sizes uneven —
/// which is what exercises the load balancer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelModel {
    /// Smallest allowed cutoff (inclusive).
    pub min_levels: u16,
    /// Largest allowed cutoff (inclusive).
    pub max_levels: u16,
}

impl Default for LevelModel {
    fn default() -> Self {
        LevelModel {
            min_levels: 4,
            max_levels: 16,
        }
    }
}

impl LevelModel {
    /// The level cutoff for `ion`: deterministic, in
    /// `[min_levels, max_levels]`.
    #[must_use]
    pub fn n_max(&self, ion: Ion) -> u16 {
        let span = u32::from(self.max_levels.saturating_sub(self.min_levels)) + 1;
        let mix = u32::from(ion.z) * 13 + u32::from(ion.charge) * 7;
        self.min_levels + (mix % span) as u16
    }

    /// Materialize all levels of `ion`, ordered by increasing `n`
    /// (decreasing binding energy).
    #[must_use]
    pub fn levels(&self, ion: Ion) -> Vec<Level> {
        let mut levels = Vec::with_capacity(usize::from(self.n_max(ion)));
        self.extend_levels(ion, &mut levels);
        levels
    }

    /// Append the levels of `ion` to `out`, in the order of
    /// [`LevelModel::levels`] — for callers that keep many ions' levels
    /// in one allocation.
    pub fn extend_levels(&self, ion: Ion, out: &mut Vec<Level>) {
        let q = ion.effective_charge();
        out.extend((1..=self.n_max(ion)).map(|n| {
            let nf = f64::from(n);
            Level {
                n,
                binding_energy_ev: RYDBERG_EV * q * q / (nf * nf),
                weight: 2.0 * nf * nf,
            }
        }));
    }

    /// Total number of levels over all 496 ions — the work census used by
    /// the calibration module.
    #[must_use]
    pub fn total_levels(&self) -> u64 {
        let mut total = 0u64;
        for z in 1..=crate::MAX_Z {
            for charge in 1..=z {
                let ion = Ion::new(z, charge).expect("valid by construction");
                total += u64::from(self.n_max(ion));
            }
        }
        total
    }

    /// Mean number of levels per ion.
    #[must_use]
    pub fn mean_levels(&self) -> f64 {
        self.total_levels() as f64 / 496.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ion(z: u8, charge: u8) -> Ion {
        Ion::new(z, charge).unwrap()
    }

    #[test]
    fn binding_energy_decreases_with_n() {
        let model = LevelModel::default();
        let levels = model.levels(ion(26, 24));
        for pair in levels.windows(2) {
            assert!(pair[0].binding_energy_ev > pair[1].binding_energy_ev);
        }
    }

    #[test]
    fn ground_level_matches_hydrogenic_formula() {
        let model = LevelModel::default();
        let levels = model.levels(ion(2, 2)); // He III recombining to He II
        assert!((levels[0].binding_energy_ev - 4.0 * RYDBERG_EV).abs() < 1e-9);
    }

    #[test]
    fn cutoff_in_configured_range() {
        let model = LevelModel::default();
        for z in 1..=crate::MAX_Z {
            for charge in 1..=z {
                let n = model.n_max(ion(z, charge));
                assert!(n >= model.min_levels && n <= model.max_levels);
            }
        }
    }

    #[test]
    fn census_is_deterministic() {
        let a = LevelModel::default();
        let b = LevelModel::default();
        assert_eq!(a.total_levels(), b.total_levels());
        for z in [1u8, 8, 26, 31] {
            for charge in 1..=z {
                assert_eq!(a.levels(ion(z, charge)), b.levels(ion(z, charge)));
            }
        }
    }

    #[test]
    fn mean_levels_is_mid_range() {
        let model = LevelModel::default();
        let mean = model.mean_levels();
        assert!(mean > 6.0 && mean < 14.0, "mean {mean}");
    }

    #[test]
    fn weights_are_hydrogenic() {
        let model = LevelModel::default();
        for level in model.levels(ion(10, 5)) {
            let n = f64::from(level.n);
            assert_eq!(level.weight, 2.0 * n * n);
        }
    }

    #[test]
    fn degenerate_model_has_constant_cutoff() {
        let model = LevelModel {
            min_levels: 8,
            max_levels: 8,
        };
        for z in 1..=crate::MAX_Z {
            assert_eq!(model.n_max(ion(z, 1)), 8);
        }
        assert_eq!(model.total_levels(), 8 * 496);
    }
}
