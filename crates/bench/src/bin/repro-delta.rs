//! Regenerate `BENCH_delta.json`: acceptance gates for device-resident
//! spectra with delta recalculation.
//!
//! Four legs, all on the deterministic single-chunk kernel with the
//! same Simpson-64 rule on both paths:
//!
//! 1. **Tolerance-0 parity matrix** — a short sweep at tolerance 0
//!    across {0, 1, 2} GPUs × both scheduling policies. Gate: every
//!    `recalc` result is **bitwise identical** to a fresh full compute
//!    of the same point, and no trial leaks a device grant.
//! 2. **Drift sweep** — many small temperature steps (ΔT/T = 1e-15) at
//!    the default 1e-12 tolerance. Gates: the delta path actually
//!    reuses resident partials, and the swept spectrum's relative
//!    deviation from a fresh full compute stays ≤ the tolerance.
//! 3. **Speedup** — median per-step latency of the delta sweep vs the
//!    same sweep recomputed from scratch every step. Gate: ≥ 5×.
//! 4. **Device loss** — both devices are force-lost mid-sweep. Gates:
//!    the next `recalc` reports invalidation + full recompute, its
//!    bits match a fault-free reference, and nothing leaks.
//!
//! `--smoke` shrinks the database and the sweeps for CI; every gate
//! stays asserted and the JSON is still written.

use std::sync::Arc;
use std::time::Instant;

use atomdb::{AtomDatabase, DatabaseConfig};
use hybrid_sched::SchedPolicy;
use hybrid_spectral::engine::{Engine, EngineConfig};
use hybrid_spectral::ResidentSpectrum;
use jsonlite::ObjectBuilder;
use rrc_spectral::{EnergyGrid, GridPoint};

fn engine_config(db: &Arc<AtomDatabase>, gpus: usize, policy: SchedPolicy) -> EngineConfig {
    EngineConfig {
        gpus,
        max_queue_len: 4,
        policy,
        queue_depth: 8,
        ..EngineConfig::deterministic(Arc::clone(db), 3)
    }
}

fn point_at(temperature_k: f64, index: usize) -> GridPoint {
    GridPoint {
        temperature_k,
        density_cm3: 1.0,
        time_s: 0.0,
        index,
    }
}

fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Largest per-bin relative deviation between two spectra.
fn max_rel_deviation(got: &[f64], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(g, w)| ((g - w) / w.abs().max(f64::MIN_POSITIVE)).abs())
        .fold(0.0, f64::max)
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    samples[samples.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (max_z, bins, steps): (u8, usize, usize) = if smoke { (5, 32, 10) } else { (8, 64, 24) };
    let db = Arc::new(AtomDatabase::generate(DatabaseConfig {
        max_z,
        ..DatabaseConfig::default()
    }));
    let grid = EnergyGrid::linear(50.0, 2000.0, bins);
    let base_t = 1.0e7;

    // -- 1. tolerance-0 parity matrix ---------------------------------------
    eprintln!("tolerance-0 parity across gpus x policy ...");
    let parity_points = [base_t, base_t * (1.0 + 1e-15), 1.4e7];
    let mut parity_trials: Vec<jsonlite::Value> = Vec::new();
    let mut parity_pass = true;
    for gpus in [0usize, 1, 2] {
        for policy in [SchedPolicy::CostAware, SchedPolicy::PaperCount] {
            let engine = Engine::start(engine_config(&db, gpus, policy));
            let mut trial_bitwise = true;
            {
                let mut resident = ResidentSpectrum::new(&engine, grid.clone()).with_tolerance(0.0);
                let mut fresh = ResidentSpectrum::new(&engine, grid.clone());
                for (i, &t) in parity_points.iter().enumerate() {
                    let point = point_at(t, i);
                    resident.recalc(&point).expect("recalc");
                    fresh.compute(&point).expect("full compute");
                    let equal = bitwise_equal(
                        resident.spectrum().expect("swept"),
                        fresh.spectrum().expect("computed"),
                    );
                    trial_bitwise &= equal;
                }
            }
            let report = engine.shutdown();
            let pass = trial_bitwise && report.leaked_grants == 0;
            parity_pass &= pass;
            eprintln!(
                "  gpus={gpus} policy={policy:?}: bitwise {trial_bitwise}  leaked {}",
                report.leaked_grants
            );
            assert!(pass, "tolerance-0 parity: gpus={gpus} policy={policy:?}");
            parity_trials.push(
                ObjectBuilder::new()
                    .field("gpus", gpus as u64)
                    .field("policy", format!("{policy:?}"))
                    .field("bitwise", trial_bitwise)
                    .field("leaked_grants", report.leaked_grants)
                    .field("pass", pass)
                    .build(),
            );
        }
    }

    // -- 2 + 3. drift sweep: accuracy and per-step latency ------------------
    eprintln!("drift sweep ({steps} steps of dT/T = 1e-15) ...");
    let drift = 1e-15;
    let engine = Engine::start(engine_config(&db, 2, SchedPolicy::CostAware));
    let mut delta_ms: Vec<f64> = Vec::new();
    let mut full_ms: Vec<f64> = Vec::new();
    let (reused_total, recomputed_total, deviation);
    {
        let mut resident = ResidentSpectrum::new(&engine, grid.clone());
        let mut fresh = ResidentSpectrum::new(&engine, grid.clone());
        // Cold fill outside the timed sweep: the gate compares steady
        // sweep steps, not first-touch cost.
        resident.compute(&point_at(base_t, 0)).expect("cold fill");
        fresh.compute(&point_at(base_t, 0)).expect("cold fill");
        let mut reused = 0u64;
        let mut recomputed = 0u64;
        for step in 1..=steps {
            let point = point_at(base_t * (1.0 + drift * step as f64), step);
            let started = Instant::now();
            let summary = resident.recalc(&point).expect("delta step");
            delta_ms.push(started.elapsed().as_secs_f64() * 1e3);
            reused += summary.reused as u64;
            recomputed += summary.recomputed as u64;
            let started = Instant::now();
            fresh.compute(&point).expect("full step");
            full_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        deviation = max_rel_deviation(
            resident.spectrum().expect("swept"),
            fresh.spectrum().expect("computed"),
        );
        (reused_total, recomputed_total) = (reused, recomputed);
    }
    let sweep_report = engine.shutdown();
    let median_delta = median_ms(&mut delta_ms);
    let median_full = median_ms(&mut full_ms);
    let speedup = median_full / median_delta.max(1e-6);
    let tolerance = resident_tolerance();
    let accuracy_pass = deviation <= tolerance && reused_total > 0;
    let speedup_pass = speedup >= 5.0;
    let sweep_leaks = sweep_report.leaked_grants;
    eprintln!(
        "  reused {reused_total} / recomputed {recomputed_total} ion-steps; \
         deviation {deviation:.3e} (tolerance {tolerance:.0e})"
    );
    eprintln!(
        "  median step: delta {median_delta:.3} ms vs full {median_full:.3} ms \
         ({speedup:.1}x)"
    );
    assert!(
        accuracy_pass,
        "drift sweep: deviation {deviation:.3e} > {tolerance:.0e} or nothing reused"
    );
    assert!(speedup_pass, "delta speedup {speedup:.1}x below 5x");
    assert_eq!(sweep_leaks, 0, "drift sweep leaked grants");

    // -- 4. device loss: invalidate + recover -------------------------------
    eprintln!("device loss mid-sweep ...");
    let engine = Engine::start(engine_config(&db, 2, SchedPolicy::CostAware));
    let reference = Engine::start(engine_config(&db, 0, SchedPolicy::CostAware));
    let (loss_invalidated, loss_full, loss_bitwise);
    {
        let mut resident = ResidentSpectrum::new(&engine, grid.clone());
        resident.compute(&point_at(base_t, 0)).expect("warm");
        for d in 0..2 {
            engine.device_faults(d).expect("device exists").force_lose();
        }
        let after = point_at(base_t * 1.01, 1);
        let summary = resident.recalc(&after).expect("recovery recalc");
        loss_invalidated = summary.invalidated;
        loss_full = summary.full;
        let mut want = ResidentSpectrum::new(&reference, grid.clone());
        want.compute(&after).expect("reference");
        loss_bitwise = bitwise_equal(
            resident.spectrum().expect("recovered"),
            want.spectrum().expect("reference"),
        );
    }
    let loss_report = engine.shutdown();
    let reference_report = reference.shutdown();
    let loss_pass = loss_invalidated
        && loss_full
        && loss_bitwise
        && loss_report.resident_invalidations >= 1
        && loss_report.leaked_grants == 0
        && reference_report.leaked_grants == 0;
    eprintln!(
        "  invalidated {loss_invalidated}  full {loss_full}  bitwise {loss_bitwise}  \
         leaked {}",
        loss_report.leaked_grants
    );
    assert!(loss_pass, "device-loss invalidation/recovery gate");

    // -- bundle -------------------------------------------------------------
    let bundle = ObjectBuilder::new()
        .field("smoke", smoke)
        .field(
            "workload",
            ObjectBuilder::new()
                .field("max_z", u64::from(max_z))
                .field("bins", bins as u64)
                .field("ions", db.ions().len() as u64)
                .field("sweep_steps", steps as u64)
                .field("drift_per_step", drift)
                .field("tolerance", tolerance)
                .field(
                    "kernel",
                    "deterministic single-chunk, Simpson 64 both paths",
                )
                .build(),
        )
        .field("tolerance_zero_parity", parity_trials)
        .field(
            "drift_sweep",
            ObjectBuilder::new()
                .field("reused_ion_steps", reused_total)
                .field("recomputed_ion_steps", recomputed_total)
                .field("max_rel_deviation", deviation)
                .field("median_delta_step_ms", median_delta)
                .field("median_full_step_ms", median_full)
                .field("speedup", speedup)
                .field("delta_recalcs", sweep_report.resident_delta_recalcs)
                .field("full_recomputes", sweep_report.resident_full_recomputes)
                .field("resident_bytes_peak", sweep_report.resident_bytes_peak)
                .field("leaked_grants", sweep_leaks)
                .build(),
        )
        .field(
            "device_loss",
            ObjectBuilder::new()
                .field("invalidated", loss_invalidated)
                .field("full_recompute", loss_full)
                .field("bitwise_recovery", loss_bitwise)
                .field("invalidations", loss_report.resident_invalidations)
                .field("leaked_grants", loss_report.leaked_grants)
                .field("pass", loss_pass)
                .build(),
        )
        .field(
            "gates",
            ObjectBuilder::new()
                .field(
                    "tolerance_zero_bitwise",
                    ObjectBuilder::new().field("pass", parity_pass).build(),
                )
                .field(
                    "deviation_within_tolerance",
                    ObjectBuilder::new()
                        .field("deviation", deviation)
                        .field("tolerance", tolerance)
                        .field("pass", accuracy_pass)
                        .build(),
                )
                .field(
                    "median_step_speedup_5x",
                    ObjectBuilder::new()
                        .field("speedup", speedup)
                        .field("pass", speedup_pass)
                        .build(),
                )
                .field(
                    "device_loss_recovery",
                    ObjectBuilder::new().field("pass", loss_pass).build(),
                )
                .field(
                    "zero_leaked_grants",
                    ObjectBuilder::new()
                        .field("pass", sweep_leaks == 0 && loss_pass)
                        .build(),
                )
                .build(),
        )
        .build();

    let path = "BENCH_delta.json";
    std::fs::write(path, bundle.to_pretty()).expect("write results");
    println!("wrote {path}");
    println!(
        "delta acceptance: bitwise at tolerance 0 across 6 configs, deviation \
         {deviation:.2e} <= {tolerance:.0e}, median step speedup {speedup:.1}x (>= 5x), \
         loss invalidation + bitwise recovery, zero leaked grants"
    );
}

/// The default tolerance the sweep runs at (mirrors
/// [`hybrid_spectral::resident::DEFAULT_TOLERANCE`]).
fn resident_tolerance() -> f64 {
    hybrid_spectral::resident::DEFAULT_TOLERANCE
}
