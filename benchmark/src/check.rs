//! Reference answers. The stack's bitwise contract is that a response
//! equals the ascending-ion fold of `SerialCalculator::ion_spectrum`
//! partials under the same Simpson-64 rule, wherever each partial was
//! computed or cached; this module is that fold.

use std::collections::HashMap;
use std::sync::Arc;

use atomdb::AtomDatabase;
use rrc_service::{selected_ions, SpectrumRequest};
use rrc_spectral::{EnergyGrid, Integrator, SerialCalculator};

/// The integration rule every deterministic config pins on both paths.
pub const RULE: Integrator = Integrator::Simpson { panels: 64 };

/// Serial reference over one database and grid, memoized per plasma
/// state (the repeated-state workloads check thousands of responses
/// against a few dozen distinct references).
pub struct Reference {
    db: Arc<AtomDatabase>,
    calc: SerialCalculator,
    memo: HashMap<(u64, u64), Arc<Vec<f64>>>,
}

impl Reference {
    pub fn new(db: &Arc<AtomDatabase>, grid: &EnergyGrid) -> Reference {
        Reference {
            db: Arc::clone(db),
            calc: SerialCalculator::new((**db).clone(), grid.clone(), RULE),
            memo: HashMap::new(),
        }
    }

    /// The reference bins of `request`, computed from a zero vector by
    /// adding each selected ion's partial in ascending ion order —
    /// the same association `rrc_service::assemble` uses.
    pub fn fold(&self, request: &SpectrumRequest) -> Vec<f64> {
        let mut out = vec![0.0f64; self.calc.grid().bins()];
        for ion in selected_ions(&self.db, request) {
            let partial = self.calc.ion_spectrum(ion, &request.point);
            for (acc, v) in out.iter_mut().zip(partial.bins()) {
                *acc += v;
            }
        }
        out
    }

    /// [`Reference::fold`], memoized on the plasma state. Callers use
    /// one element selection per `Reference`.
    pub fn bins(&mut self, request: &SpectrumRequest) -> Arc<Vec<f64>> {
        let key = (
            request.point.temperature_k.to_bits(),
            request.point.density_cm3.to_bits(),
        );
        if let Some(hit) = self.memo.get(&key) {
            return Arc::clone(hit);
        }
        let bins = Arc::new(self.fold(request));
        self.memo.insert(key, Arc::clone(&bins));
        bins
    }
}

/// FNV-1a over the bit patterns of `bins`: answers kept aside for a
/// bitwise check are kept as this hash, not as their 768 bytes.
pub fn bits_hash(bins: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ bins.len() as u64;
    for v in bins {
        h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Every bin within `tol` relative of the reference (the batch
/// runtime's multi-chunk launches re-associate sums, so it is held to
/// 1e-12 rather than to the bit).
pub fn within_relative(got: &[f64], want: &[f64], tol: f64) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() <= tol * b.abs().max(1e-300))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomdb::DatabaseConfig;
    use rrc_service::ElementSelection;
    use rrc_spectral::GridPoint;

    #[test]
    fn comparisons() {
        assert!(bitwise_equal(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!bitwise_equal(&[0.0], &[-0.0]));
        assert!(!bitwise_equal(&[1.0], &[1.0, 2.0]));
        assert_eq!(bits_hash(&[1.0, 2.0]), bits_hash(&[1.0, 2.0]));
        assert_ne!(bits_hash(&[1.0, 2.0]), bits_hash(&[2.0, 1.0]));
        assert_ne!(bits_hash(&[0.0]), bits_hash(&[-0.0]));
        assert_ne!(bits_hash(&[0.0]), bits_hash(&[0.0, 0.0]));
        assert!(within_relative(&[1.0 + 1e-13], &[1.0], 1e-12));
        assert!(!within_relative(&[1.0 + 1e-11], &[1.0], 1e-12));
    }

    #[test]
    fn subset_fold_is_memoized_and_smaller_than_the_whole() {
        let db = Arc::new(AtomDatabase::generate(DatabaseConfig {
            max_z: 4,
            ..DatabaseConfig::default()
        }));
        let grid = EnergyGrid::paper_waveband(16);
        let mut reference = Reference::new(&db, &grid);
        let point = GridPoint {
            temperature_k: 1.0e7,
            density_cm3: 1.0,
            time_s: 0.0,
            index: 0,
        };
        let all = SpectrumRequest::new(point, ElementSelection::All, 0);
        let some = SpectrumRequest::new(point, ElementSelection::Elements(vec![1, 2]), 0);
        let whole = reference.fold(&all);
        let part = reference.fold(&some);
        assert!(whole.iter().sum::<f64>() > part.iter().sum::<f64>());
        let first = reference.bins(&all);
        let second = reference.bins(&all);
        assert!(Arc::ptr_eq(&first, &second));
        assert!(bitwise_equal(&first, &whole));
    }
}
