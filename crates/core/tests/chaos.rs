//! Chaos tests: the engine under deterministic fault injection.
//!
//! The contract being proven: **faults change placement and timing,
//! never numerics or completeness**. With the deterministic kernel and
//! a shared bin rule, every ion partial must stay bitwise identical to
//! the fault-free [`SerialCalculator`] reference no matter which
//! injected launch refusals, kernel panics, stalls, DMA failures or
//! sticky device losses fire — and every submitted task must be
//! answered, with zero leaked scheduler grants, even while device
//! breakers open and retries bounce between lanes mid-shutdown.
//! Breaker cooldowns run on a manual engine clock that the tests
//! advance; nothing here sleeps.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use desim::VirtualClock;
use gpu_sim::{FaultKind, FaultOp, FaultPlan};
use hybrid_sched::{BreakerConfig, BreakerState};
use hybrid_spectral::engine::{Engine, EngineConfig, IonJob, IonOutcome};
use hybrid_spectral::resilience::ResilienceConfig;
use hybrid_spectral::SchedPolicy;
use rrc_spectral::{EnergyGrid, GridPoint, Integrator, SerialCalculator};

fn point() -> GridPoint {
    GridPoint {
        temperature_k: 1.0e7,
        density_cm3: 1.0,
        time_s: 0.0,
        index: 0,
    }
}

fn chaos_config(gpus: usize, resilience: ResilienceConfig) -> EngineConfig {
    let db = atomdb::AtomDatabase::generate(atomdb::DatabaseConfig {
        max_z: 6,
        ..atomdb::DatabaseConfig::default()
    });
    EngineConfig {
        gpus,
        max_queue_len: 4,
        queue_depth: 8,
        resilience,
        ..EngineConfig::deterministic(Arc::new(db), 3)
    }
}

/// Fast ladder settings so tests spend microseconds, not milliseconds,
/// in backoff sleeps.
fn fast_ladder() -> ResilienceConfig {
    ResilienceConfig {
        backoff: Duration::from_micros(20),
        backoff_cap: Duration::from_micros(200),
        ..ResilienceConfig::default()
    }
}

/// Submit every ion of the engine's database `waves` times and collect
/// all outcomes, sorted (wave, ion) for deterministic comparison.
fn run_all_ions(engine: &Engine, grid: &EnergyGrid, waves: u64) -> Vec<IonOutcome> {
    let bins = Arc::new(grid.bin_pairs());
    let ions = engine.config().db.ions().len();
    let (tx, rx) = channel();
    for wave in 0..waves {
        for ion_index in 0..ions {
            let levels = engine.config().db.levels_by_index(ion_index).len();
            engine
                .submit(IonJob {
                    ion_index,
                    level_range: 0..levels,
                    point: point(),
                    grid: grid.clone(),
                    bins: Arc::clone(&bins),
                    tag: wave,
                    deadline: f64::INFINITY,
                    reply: tx.clone(),
                })
                .ok()
                .expect("engine accepts while live");
        }
    }
    drop(tx);
    let mut outcomes: Vec<IonOutcome> = rx.iter().collect();
    outcomes.sort_by_key(|o| (o.tag, o.ion_index));
    outcomes
}

fn serial_reference(config: &EngineConfig, grid: &EnergyGrid) -> Vec<Vec<f64>> {
    let serial = SerialCalculator::new(
        (*config.db).clone(),
        grid.clone(),
        Integrator::Simpson { panels: 64 },
    );
    (0..config.db.ions().len())
        .map(|i| serial.ion_spectrum(i, &point()).bins().to_vec())
        .collect()
}

fn assert_bitwise(outcomes: &[IonOutcome], reference: &[Vec<f64>], label: &str) {
    for outcome in outcomes {
        let expect = &reference[outcome.ion_index];
        assert_eq!(outcome.partial.len(), expect.len(), "{label}");
        for (bin, (&got, &want)) in outcome.partial.iter().zip(expect).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{label}: ion {} bin {bin} diverged ({got:e} vs {want:e}, path {:?})",
                outcome.ion_index,
                outcome.path,
            );
        }
    }
}

#[test]
fn random_fault_schedules_preserve_bitwise_parity_and_accounting() {
    // Property sweep: seeded random fault schedules × device counts ×
    // policies. Whatever fires, every task completes, every partial is
    // bitwise the serial reference, and scheduler accounting drains to
    // exactly zero.
    let grid = EnergyGrid::linear(50.0, 2000.0, 32);
    for seed in [11u64, 29] {
        for gpus in [0usize, 1, 2] {
            for policy in [SchedPolicy::CostAware, SchedPolicy::PaperCount] {
                let mut resilience = fast_ladder();
                resilience.faults = (0..gpus)
                    .map(|d| {
                        FaultPlan::seeded(seed.wrapping_mul(31).wrapping_add(d as u64))
                            .launch_error_rate(0.15)
                            .kernel_panic_rate(0.10)
                            .dma_error_rate(0.10)
                            .stall_rate(0.05, 1)
                    })
                    .collect();
                let mut cfg = chaos_config(gpus, resilience);
                cfg.policy = policy;
                let engine = Engine::start(cfg);
                let ions = engine.config().db.ions().len();
                let reference = serial_reference(engine.config(), &grid);
                let label = format!("seed={seed} gpus={gpus} policy={policy:?}");

                let outcomes = run_all_ions(&engine, &grid, 2);
                assert_eq!(outcomes.len(), 2 * ions, "{label}: every task answered");
                assert_bitwise(&outcomes, &reference, &label);

                let snap = engine.scheduler_snapshot();
                assert!(
                    snap.loads.iter().all(|&l| l == 0),
                    "{label}: loads drained, got {:?}",
                    snap.loads
                );
                assert!(
                    snap.weighted_loads.iter().all(|&w| w == 0),
                    "{label}: weighted backlog drained, got {:?}",
                    snap.weighted_loads
                );
                let report = engine.shutdown();
                assert_eq!(report.leaked_grants, 0, "{label}");
                assert_eq!(
                    report.gpu_tasks + report.cpu_tasks,
                    2 * ions as u64,
                    "{label}: completion accounting"
                );
                let retry_bound = u64::from(ResilienceConfig::default().max_retries) + 1;
                assert!(
                    report.max_task_attempts <= retry_bound,
                    "{label}: attempts {} exceed bound {retry_bound}",
                    report.max_task_attempts
                );
                assert_eq!(report.worker_panics, 0, "{label}: no engine thread died");
            }
        }
    }
}

#[test]
fn kernel_panic_mid_run_completes_without_deadlock() {
    // Satellite regression: a panic inside a device kernel must become
    // a task failure (retried, then recovered), never a poisoned lock
    // or a dead pump — the run completes and stays bitwise clean.
    let mut resilience = fast_ladder();
    resilience.faults = vec![FaultPlan::default()
        .fire_at(FaultOp::Kernel, 0, FaultKind::KernelPanic)
        .fire_at(FaultOp::Kernel, 3, FaultKind::KernelPanic)];
    let engine = Engine::start(chaos_config(1, resilience));
    let grid = EnergyGrid::linear(50.0, 2000.0, 32);
    let ions = engine.config().db.ions().len();
    let reference = serial_reference(engine.config(), &grid);

    let outcomes = run_all_ions(&engine, &grid, 2);
    assert_eq!(outcomes.len(), 2 * ions);
    assert_bitwise(&outcomes, &reference, "kernel panic");

    let report = engine.shutdown();
    assert!(
        report.device_faults[0].kernel_panics >= 2,
        "both indexed panics fired: {:?}",
        report.device_faults[0]
    );
    assert!(report.task_faults >= 2, "failures rode the ladder");
    assert_eq!(report.leaked_grants, 0);
    assert_eq!(report.worker_panics, 0);
}

#[test]
fn sticky_loss_of_one_of_two_devices_completes_everything() {
    // The headline degradation gate: one of two devices dies for good
    // mid-run. Its tasks reassign to the surviving device (or the host
    // path), its breaker opens for good, and every
    // task still answers with bitwise-clean partials.
    let mut resilience = fast_ladder();
    resilience.faults = vec![FaultPlan::default(), FaultPlan::default().lose_device_at(4)];
    let engine = Engine::start(chaos_config(2, resilience));
    let grid = EnergyGrid::linear(50.0, 2000.0, 32);
    let ions = engine.config().db.ions().len();
    let reference = serial_reference(engine.config(), &grid);

    let outcomes = run_all_ions(&engine, &grid, 3);
    assert_eq!(outcomes.len(), 3 * ions, "100% completion under loss");
    assert_bitwise(&outcomes, &reference, "sticky loss");

    let report = engine.shutdown();
    assert_eq!(report.leaked_grants, 0);
    assert!(report.device_faults[1].lost, "device 1 was lost");
    assert_eq!(
        report.device_breakers[1],
        BreakerState::Open,
        "a lost device's breaker stays open"
    );
    assert_eq!(
        report.breaker_counters.half_opens, 0,
        "a lost device never probes"
    );
    assert_eq!(report.worker_panics, 0);
}

#[test]
fn shutdown_under_fault_does_not_hang() {
    // Satellite regression: close-and-drain while a device is sick and
    // retries are in flight. The drain must finish — a wedged pump or
    // a stranded retry would hang this forever, so run the shutdown on
    // a watchdog thread.
    let mut resilience = fast_ladder();
    resilience.breaker = BreakerConfig {
        cooldown_s: 1.0,
        ..BreakerConfig::default()
    };
    resilience.faults = vec![
        FaultPlan::seeded(7)
            .launch_error_rate(0.5)
            .kernel_panic_rate(0.2)
            .dma_error_rate(0.2),
        FaultPlan::default().lose_device_at(2),
    ];
    let mut cfg = chaos_config(2, resilience);
    cfg.clock = VirtualClock::manual();
    let engine = Engine::start(cfg);
    let grid = EnergyGrid::linear(50.0, 2000.0, 24);
    let ions = engine.config().db.ions().len();
    let bins = Arc::new(grid.bin_pairs());
    let (tx, rx) = channel();
    for ion_index in 0..ions {
        let levels = engine.config().db.levels_by_index(ion_index).len();
        engine
            .submit(IonJob {
                ion_index,
                level_range: 0..levels,
                point: point(),
                grid: grid.clone(),
                bins: Arc::clone(&bins),
                tag: 0,
                deadline: f64::INFINITY,
                reply: tx.clone(),
            })
            .ok()
            .expect("live");
    }
    drop(tx);
    // Shut down immediately — jobs are still queued, staged, launching
    // and failing right now. The cooldown lapses first, so a breaker
    // that already opened re-admits probes during the drain.
    engine.config().clock.advance(1.0);
    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        let report = engine.shutdown();
        let _ = done_tx.send(report);
    });
    let report = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown under fault must complete, not hang");
    assert_eq!(report.leaked_grants, 0);
    // Every job was answered or is answerable: drain the reply stream.
    let answered = rx.iter().count();
    assert_eq!(answered, ions, "no task stranded by shutdown");
}

#[test]
fn breaker_cycle_recovers_a_flapping_device() {
    // Device 0 fails its first two launches back-to-back, its breaker
    // opens, sits out the cooldown on the engine clock, is re-admitted
    // by a half-open probe, and serves cleanly afterwards.
    let mut resilience = fast_ladder();
    resilience.breaker = BreakerConfig {
        min_samples: 2,
        cooldown_s: 1.0,
        ..BreakerConfig::default()
    };
    resilience.faults = vec![
        FaultPlan::default()
            .fire_at(FaultOp::Launch, 0, FaultKind::LaunchError)
            .fire_at(FaultOp::Launch, 1, FaultKind::LaunchError),
        FaultPlan::default(),
    ];
    let mut cfg = chaos_config(2, resilience);
    cfg.clock = VirtualClock::manual();
    let engine = Engine::start(cfg);
    let grid = EnergyGrid::linear(50.0, 2000.0, 24);
    let ions = engine.config().db.ions().len();
    let reference = serial_reference(engine.config(), &grid);
    let mut total = 0usize;
    for _ in 0..4 {
        let outcomes = run_all_ions(&engine, &grid, 1);
        assert_bitwise(&outcomes, &reference, "flapping device");
        total += outcomes.len();
        // Let the cooldown lapse between waves.
        engine.config().clock.advance(1.0);
    }
    assert_eq!(total, 4 * ions);
    let report = engine.shutdown();
    let c = report.breaker_counters;
    assert!(c.opens >= 1, "device 0 tripped: {report:?}");
    assert!(c.half_opens >= 1, "probe admitted: {report:?}");
    assert!(c.closes >= 1, "probe succeeded: {report:?}");
    assert_eq!(report.device_breakers, vec![BreakerState::Closed; 2]);
    assert_eq!(report.leaked_grants, 0);
}
