//! The assembled synthetic database.

use crate::element::{Element, MAX_Z};
use crate::ion::Ion;
use crate::levels::{Level, LevelModel};

/// Generation parameters for [`AtomDatabase`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatabaseConfig {
    /// The level-census model (cutoff range per ion).
    pub level_model: LevelModel,
    /// Restrict the database to elements `1..=max_z`; defaults to the full
    /// range (496 ions). Smaller values give scaled-down workloads for
    /// tests and examples.
    pub max_z: u8,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            level_model: LevelModel::default(),
            max_z: MAX_Z,
        }
    }
}

/// Aggregate counts used by workload generators and the calibration
/// module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatabaseStats {
    /// Number of ions in the database.
    pub ions: usize,
    /// Total number of levels across all ions.
    pub levels: u64,
    /// Largest level count of any single ion.
    pub max_levels_per_ion: u16,
}

/// The synthetic atomic database: ions, their levels, and the physics
/// lookups the spectral and NEI substrates need.
///
/// Levels are materialized eagerly — the full default database is ~5000
/// levels, trivially small — and stored ion-major in one allocation, so
/// generating a database costs three allocations rather than one per
/// ion and an ion task borrows its level slice without indirection.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomDatabase {
    config: DatabaseConfig,
    ions: Vec<Ion>,
    /// Every ion's levels, ion-major.
    levels: Vec<Level>,
    /// `levels[offsets[i]..offsets[i + 1]]` holds the levels of
    /// `ions[i]`.
    offsets: Vec<u32>,
}

impl AtomDatabase {
    /// Generate the database deterministically from `config`.
    #[must_use]
    pub fn generate(config: DatabaseConfig) -> AtomDatabase {
        let max_z = config.max_z.clamp(1, MAX_Z);
        let n_ions = usize::from(max_z) * (usize::from(max_z) + 1) / 2;
        let mut ions = Vec::with_capacity(n_ions);
        let mut offsets = Vec::with_capacity(n_ions + 1);
        let mut total = 0u32;
        offsets.push(total);
        for z in 1..=max_z {
            for charge in 1..=z {
                let ion = Ion::new(z, charge).expect("valid by construction");
                ions.push(ion);
                total += u32::from(config.level_model.n_max(ion));
                offsets.push(total);
            }
        }
        let mut levels = Vec::with_capacity(total as usize);
        for &ion in &ions {
            config.level_model.extend_levels(ion, &mut levels);
        }
        AtomDatabase {
            config,
            ions,
            levels,
            offsets,
        }
    }

    /// The generation parameters.
    #[must_use]
    pub fn config(&self) -> &DatabaseConfig {
        &self.config
    }

    /// All ions, element-major then charge-minor.
    #[must_use]
    pub fn ions(&self) -> &[Ion] {
        &self.ions
    }

    /// Levels of the `i`-th ion of [`AtomDatabase::ions`].
    #[must_use]
    pub fn levels_by_index(&self, i: usize) -> &[Level] {
        &self.levels[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Levels of `ion`, or `None` if the ion is outside this database's
    /// element range.
    #[must_use]
    pub fn levels(&self, ion: Ion) -> Option<&[Level]> {
        if ion.z > self.config.max_z.clamp(1, MAX_Z) {
            return None;
        }
        // ions are stored in dense_index order restricted to max_z.
        let idx = ion.dense_index();
        (idx < self.ions.len()).then(|| self.levels_by_index(idx))
    }

    /// The element of the `i`-th ion.
    #[must_use]
    pub fn element_by_index(&self, i: usize) -> &'static Element {
        self.ions[i].element()
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> DatabaseStats {
        let max = self
            .offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as u16)
            .max()
            .unwrap_or(0);
        DatabaseStats {
            ions: self.ions.len(),
            levels: self.levels.len() as u64,
            max_levels_per_ion: max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_database_has_496_ions() {
        let db = AtomDatabase::generate(DatabaseConfig::default());
        assert_eq!(db.stats().ions, 496);
    }

    #[test]
    fn restricted_database_is_smaller() {
        let db = AtomDatabase::generate(DatabaseConfig {
            max_z: 8,
            ..DatabaseConfig::default()
        });
        // 1+2+...+8 = 36 ions.
        assert_eq!(db.stats().ions, 36);
    }

    #[test]
    fn levels_lookup_matches_index_lookup() {
        let db = AtomDatabase::generate(DatabaseConfig::default());
        for (i, &ion) in db.ions().iter().enumerate() {
            assert_eq!(db.levels(ion), Some(db.levels_by_index(i)));
        }
    }

    #[test]
    fn lookup_outside_range_is_none() {
        let db = AtomDatabase::generate(DatabaseConfig {
            max_z: 8,
            ..DatabaseConfig::default()
        });
        assert!(db.levels(Ion::new(26, 1).unwrap()).is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = AtomDatabase::generate(DatabaseConfig::default());
        let b = AtomDatabase::generate(DatabaseConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn stats_levels_agree_with_model_census() {
        let cfg = DatabaseConfig::default();
        let db = AtomDatabase::generate(cfg);
        assert_eq!(db.stats().levels, cfg.level_model.total_levels());
        assert!(db.stats().max_levels_per_ion <= cfg.level_model.max_levels);
    }

    #[test]
    fn clone_preserves_structure() {
        // The database no longer serializes (it regenerates
        // deterministically from `DatabaseConfig` instead, which is what
        // run specs store); cloning must stay a faithful deep copy.
        let db = AtomDatabase::generate(DatabaseConfig {
            max_z: 4,
            ..DatabaseConfig::default()
        });
        let back = db.clone();
        assert_eq!(db.ions, back.ions);
        assert_eq!(db.config, back.config);
        for i in 0..db.ions.len() {
            let (a, b) = (db.levels_by_index(i), back.levels_by_index(i));
            assert_eq!(a.len(), b.len());
            for (la, lb) in a.iter().zip(b) {
                assert_eq!(la.n, lb.n);
                assert!((la.binding_energy_ev - lb.binding_energy_ev).abs() < 1e-12);
            }
        }
    }
}
