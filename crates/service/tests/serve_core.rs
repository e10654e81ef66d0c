//! The serving core's two fill paths give the same bits: the engine
//! fan-out of [`ServeCore::serve`] and the calling-thread
//! [`ServeCore::serve_inline`] (the caller-runs policy) each answer a
//! state's ions, cold and then from the cache, and every fold of their
//! partials equals the serial calculator's ascending-order fold.

use std::collections::BTreeMap;
use std::sync::Arc;

use atomdb::{AtomDatabase, DatabaseConfig};
use hybrid_spectral::engine::EngineConfig;
use rrc_service::{assemble, Quantizer, ServeCore, Served};
use rrc_spectral::{EnergyGrid, GridPoint, Integrator, SerialCalculator};

fn core(db: &Arc<AtomDatabase>, grid: &EnergyGrid) -> ServeCore {
    ServeCore::start(
        EngineConfig::deterministic(Arc::clone(db), 2),
        vec![grid.clone()],
        4096,
        4,
        2,
    )
}

fn fold(bins: usize, ions: &[usize], served: Served) -> Vec<f64> {
    assert!(served.failed.is_empty(), "unanswered: {:?}", served.failed);
    let partials: BTreeMap<usize, Arc<Vec<f64>>> = served.partials.into_iter().collect();
    assemble(bins, ions, &partials)
}

fn assert_bitwise(context: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{context}: bin count");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: bin {i}: {a} vs {b}");
    }
}

#[test]
fn caller_runs_and_fan_out_agree_bitwise_cold_and_cached() {
    let db = Arc::new(AtomDatabase::generate(DatabaseConfig {
        max_z: 8,
        ..DatabaseConfig::default()
    }));
    let grid = EnergyGrid::linear(50.0, 2000.0, 48);
    let point = GridPoint {
        temperature_k: 9.1e6,
        density_cm3: 1.5,
        time_s: 0.0,
        index: 0,
    };
    let key = Quantizer::new(0).state_key(&point, 0);
    let ions: Vec<usize> = (0..db.ions().len()).collect();

    let serial = SerialCalculator::new(
        (*db).clone(),
        grid.clone(),
        Integrator::Simpson { panels: 64 },
    );
    let mut want = vec![0.0f64; grid.bins()];
    for &ion in &ions {
        let spectrum = serial.ion_spectrum(ion, &point);
        for (acc, v) in want.iter_mut().zip(spectrum.bins()) {
            *acc += v;
        }
    }

    let fanned = core(&db, &grid);
    let inline = core(&db, &grid);
    for (pass, expected_hits) in [("cold", 0), ("cached", ions.len())] {
        let by_engine = fanned.serve(key, &point, &ions, f64::INFINITY);
        let by_caller = inline.serve_inline(key, &point, &ions);
        assert_eq!(by_engine.hits, expected_hits, "{pass}: serve hits");
        assert_eq!(by_caller.hits, expected_hits, "{pass}: serve_inline hits");
        let computed: Vec<usize> = by_engine.partials[expected_hits..]
            .iter()
            .map(|&(ion, _)| ion)
            .collect();
        assert_eq!(
            computed,
            ions[expected_hits..],
            "{pass}: computed ascending"
        );
        let engine_bins = fold(grid.bins(), &ions, by_engine);
        let caller_bins = fold(grid.bins(), &ions, by_caller);
        assert_bitwise(
            &format!("{pass}: serve vs serve_inline"),
            &engine_bins,
            &caller_bins,
        );
        assert_bitwise(&format!("{pass}: serve vs serial"), &engine_bins, &want);
    }

    for core in [fanned, inline] {
        let report = core.shutdown();
        assert_eq!(report.engine.leaked_grants, 0);
        assert_eq!(report.cache.hits, ions.len() as u64);
    }
}
