//! Service behavior under injected device faults: the degradation
//! ladder keeps answers bitwise correct when the CPU fallback is on,
//! and surfaces a typed [`ServiceError::DeviceFailed`] — distinct from
//! admission-control `Overloaded` — when it is off and the fan-out
//! retry budget runs dry.

use std::sync::Arc;
use std::time::Duration;

use atomdb::{AtomDatabase, DatabaseConfig};
use gpu_sim::FaultPlan;
use hybrid_sched::BreakerConfig;
use hybrid_spectral::ResilienceConfig;
use rrc_service::{
    ElementSelection, ServiceConfig, ServiceError, SpectralService, SpectrumRequest,
};
use rrc_spectral::{EnergyGrid, GridPoint, Integrator, SerialCalculator};

fn db() -> Arc<AtomDatabase> {
    Arc::new(AtomDatabase::generate(DatabaseConfig {
        max_z: 6,
        ..DatabaseConfig::default()
    }))
}

fn request(i: usize) -> SpectrumRequest {
    SpectrumRequest::new(
        GridPoint {
            temperature_k: 8.0e6 + 5.0e5 * i as f64,
            density_cm3: 1.0,
            time_s: 0.0,
            index: i,
        },
        ElementSelection::All,
        0,
    )
}

fn reference(database: &AtomDatabase, grid: &EnergyGrid, req: &SpectrumRequest) -> Vec<f64> {
    let serial = SerialCalculator::new(
        database.clone(),
        grid.clone(),
        Integrator::Simpson { panels: 64 },
    );
    let mut out = vec![0.0f64; grid.bins()];
    for (ion_index, ion) in database.ions().iter().enumerate() {
        if !req.elements.selects(ion.z) {
            continue;
        }
        let spectrum = serial.ion_spectrum(ion_index, &req.point);
        for (acc, v) in out.iter_mut().zip(spectrum.bins()) {
            *acc += v;
        }
    }
    out
}

/// Heavy mixed faults with the CPU fallback armed: every request is
/// still answered, bitwise identical to the serial reference, and no
/// request sees `DeviceFailed`.
#[test]
fn faulty_devices_degrade_to_cpu_with_bitwise_parity() {
    let database = db();
    let grid = EnergyGrid::linear(50.0, 2000.0, 48);
    let mut cfg = ServiceConfig::deterministic(Arc::clone(&database), vec![grid.clone()]);
    cfg.cache_capacity = 0;
    cfg.engine.resilience = ResilienceConfig {
        faults: (0..2)
            .map(|d| {
                FaultPlan::seeded(31 + d)
                    .launch_error_rate(0.2)
                    .kernel_panic_rate(0.1)
                    .dma_error_rate(0.1)
            })
            .collect(),
        backoff: Duration::from_micros(20),
        backoff_cap: Duration::from_micros(200),
        ..ResilienceConfig::default()
    };
    let service = SpectralService::start(cfg);
    for i in 0..4 {
        let req = request(i);
        let response = service
            .submit(req.clone())
            .expect("admitted")
            .wait()
            .expect("answered despite faults");
        let want = reference(&database, &grid, &req);
        for (bin, (a, b)) in response.bins.iter().zip(&want).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "request {i} bin {bin}: {a} vs {b}"
            );
        }
    }
    let metrics = service.metrics();
    assert_eq!(metrics.device_failures, 0);
    assert_eq!(metrics.scheduler_breakers.len(), 2);
    let report = service.shutdown();
    assert_eq!(report.engine.leaked_grants, 0);
    assert!(
        report.engine.task_faults > 0,
        "fault plan at 20% launch errors must have fired"
    );
}

/// With the CPU fallback disabled, zero retries, and a device that
/// refuses every launch but whose breaker never opens, dropped ion partials
/// exhaust the service's fan-out budget and the request is refused
/// with the typed `DeviceFailed` — and the counters record both the
/// re-fan-outs and the refusal.
#[test]
fn exhausted_retry_budget_surfaces_typed_device_failed() {
    let database = db();
    let grid = EnergyGrid::linear(50.0, 2000.0, 32);
    let mut cfg = ServiceConfig::deterministic(database, vec![grid]);
    cfg.cache_capacity = 0;
    cfg.fanout_retries = 1;
    cfg.engine.gpus = 1;
    cfg.engine.max_queue_len = 64;
    cfg.engine.resilience = ResilienceConfig {
        faults: vec![FaultPlan::seeded(7).launch_error_rate(1.0)],
        max_retries: 0,
        backoff: Duration::ZERO,
        cpu_fallback_on_fault: false,
        // Keep the sick device eligible forever so every fan-out lands
        // on it and is dropped (an open breaker would otherwise divert
        // the retries to the healthy CPU path).
        breaker: BreakerConfig {
            failure_threshold: 2.0,
            ..BreakerConfig::default()
        },
        ..ResilienceConfig::default()
    };
    let service = SpectralService::start(cfg);
    let outcome = service
        .submit(request(0))
        .expect("admitted — failure is post-admission")
        .wait();
    assert!(
        matches!(outcome, Err(ServiceError::DeviceFailed)),
        "want DeviceFailed, got {:?}",
        outcome.map(|r| (r.ions_computed, r.ions_from_cache))
    );
    let metrics = service.metrics();
    assert!(metrics.device_failures >= 1, "{metrics:?}");
    assert!(metrics.fanout_retried_ions >= 1, "{metrics:?}");
    let report = service.shutdown();
    assert_eq!(report.engine.leaked_grants, 0);
}
