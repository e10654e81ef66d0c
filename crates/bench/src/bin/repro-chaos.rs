//! Regenerate `BENCH_chaos.json`: acceptance gates for the fault
//! ladder — deterministic fault injection, bounded retries, per-device
//! circuit breakers, and graceful degradation to the CPU path.
//!
//! Four trials, every one against the same workload (every ion of a
//! reduced database, several waves, deterministic single-chunk
//! kernel):
//!
//! 1. **Baseline** — fault-free run; its sorted outcome bits are the
//!    reference every chaos trial must reproduce exactly.
//! 2. **Rate sweep** — seeded mixed fault plans (launch errors, kernel
//!    panics, DMA errors, stalls) at rates up to 30%. Gates per rate:
//!    100% completion, bitwise parity with the baseline, zero leaked
//!    grants, per-task attempts within the configured retry bound.
//! 3. **Sticky loss** — one of two devices dies for good mid-run.
//!    Gates: 100% completion, parity, the lost device's breaker ends
//!    Open.
//! 4. **Breaker cycle** — a flapping device fails its first launches,
//!    its breaker opens, and it must earn its way back through a
//!    half-open probe. The engine runs on a manual clock that is
//!    advanced past the cooldown between a fixed number of waves (no
//!    sleeps). Gate: at least one `Open`, one `HalfOpen` and one
//!    `Closed` transition observed.
//!
//! `--smoke` shrinks the workload and the sweep for CI; every gate
//! stays asserted and the JSON is still written.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use atomdb::{AtomDatabase, DatabaseConfig};
use desim::VirtualClock;
use gpu_sim::{FaultKind, FaultOp, FaultPlan};
use hybrid_sched::{BreakerConfig, BreakerState};
use hybrid_spectral::engine::{Engine, EngineConfig, EngineReport, IonJob, IonOutcome};
use hybrid_spectral::ResilienceConfig;
use jsonlite::ObjectBuilder;
use rrc_spectral::{EnergyGrid, GridPoint};

fn point() -> GridPoint {
    GridPoint {
        temperature_k: 1.0e7,
        density_cm3: 1.0,
        time_s: 0.0,
        index: 0,
    }
}

fn engine_config(
    db: &Arc<AtomDatabase>,
    gpus: usize,
    resilience: ResilienceConfig,
) -> EngineConfig {
    EngineConfig {
        gpus,
        max_queue_len: 4,
        queue_depth: 8,
        resilience,
        ..EngineConfig::deterministic(Arc::clone(db), 3)
    }
}

/// Waves of the breaker-cycle trial, and the engine-clock seconds its
/// manual clock advances between them (the breaker cooldown).
const CYCLE_WAVES: u64 = 4;
const CYCLE_COOLDOWN_S: f64 = 1.0;

/// Microsecond-scale backoff so the sweep spends its time computing,
/// not sleeping.
fn fast_ladder() -> ResilienceConfig {
    ResilienceConfig {
        backoff: Duration::from_micros(20),
        backoff_cap: Duration::from_micros(200),
        ..ResilienceConfig::default()
    }
}

/// Submit every ion `waves` times, collect all outcomes sorted
/// (wave, ion) so runs are comparable position-by-position.
fn run_all_ions(engine: &Engine, grid: &EnergyGrid, waves: u64) -> Vec<IonOutcome> {
    let bins = Arc::new(grid.bin_pairs());
    let ions = engine.config().db.ions().len();
    let (tx, rx) = channel();
    for wave in 0..waves {
        for ion_index in 0..ions {
            let levels = engine.config().db.levels_by_index(ion_index).len();
            let accepted = engine.submit(IonJob {
                ion_index,
                level_range: 0..levels,
                point: point(),
                grid: grid.clone(),
                bins: Arc::clone(&bins),
                tag: wave,
                deadline: f64::INFINITY,
                reply: tx.clone(),
            });
            assert!(accepted.is_ok(), "engine accepts while live");
        }
    }
    drop(tx);
    let mut outcomes: Vec<IonOutcome> = rx.iter().collect();
    outcomes.sort_by_key(|o| (o.tag, o.ion_index));
    outcomes
}

/// Position-by-position bitwise comparison against the baseline run.
fn bitwise_equal(outcomes: &[IonOutcome], baseline: &[IonOutcome]) -> bool {
    outcomes.len() == baseline.len()
        && outcomes.iter().zip(baseline).all(|(a, b)| {
            a.ion_index == b.ion_index
                && a.partial.len() == b.partial.len()
                && a.partial
                    .iter()
                    .zip(&b.partial)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

struct Trial {
    label: String,
    answered: u64,
    expected: u64,
    parity: bool,
    report: EngineReport,
    retry_bound: u64,
}

impl Trial {
    fn completion_pass(&self) -> bool {
        self.answered == self.expected
    }
    fn leak_pass(&self) -> bool {
        self.report.leaked_grants == 0
    }
    fn retry_pass(&self) -> bool {
        self.report.max_task_attempts <= self.retry_bound
    }
    fn pass(&self) -> bool {
        self.completion_pass() && self.parity && self.leak_pass() && self.retry_pass()
    }

    fn json(&self) -> jsonlite::Value {
        let r = &self.report;
        ObjectBuilder::new()
            .field("label", self.label.as_str())
            .field("answered", self.answered)
            .field("expected", self.expected)
            .field("bitwise_parity", self.parity)
            .field("gpu_tasks", r.gpu_tasks)
            .field("cpu_tasks", r.cpu_tasks)
            .field("leaked_grants", r.leaked_grants)
            .field("task_faults", r.task_faults)
            .field("task_retries", r.task_retries)
            .field("task_timeouts", r.task_timeouts)
            .field("fault_cpu_fallbacks", r.fault_cpu_fallbacks)
            .field("max_task_attempts", r.max_task_attempts)
            .field("retry_bound", self.retry_bound)
            .field("worker_panics", r.worker_panics)
            .field("breaker_opens", r.breaker_counters.opens)
            .field("breaker_half_opens", r.breaker_counters.half_opens)
            .field("breaker_closes", r.breaker_counters.closes)
            .field(
                "device_breakers",
                r.device_breakers
                    .iter()
                    .map(|b| b.label())
                    .collect::<Vec<_>>(),
            )
            .field("pass", self.pass())
            .build()
    }
}

/// Run one chaos trial and gate it against the baseline.
fn trial(
    label: String,
    db: &Arc<AtomDatabase>,
    gpus: usize,
    resilience: ResilienceConfig,
    grid: &EnergyGrid,
    waves: u64,
    baseline: &[IonOutcome],
) -> Trial {
    let retry_bound = u64::from(resilience.max_retries) + 1;
    let engine = Engine::start(engine_config(db, gpus, resilience));
    let outcomes = run_all_ions(&engine, grid, waves);
    let report = engine.shutdown();
    let expected = waves * db.ions().len() as u64;
    let t = Trial {
        parity: bitwise_equal(&outcomes, baseline),
        answered: outcomes.len() as u64,
        expected,
        report,
        retry_bound,
        label,
    };
    eprintln!(
        "  {:<18} answered {}/{}  parity {}  faults {}  retries {}  cpu-fallbacks {}  \
         attempts {}/{}  leaked {}",
        t.label,
        t.answered,
        t.expected,
        t.parity,
        t.report.task_faults,
        t.report.task_retries,
        t.report.fault_cpu_fallbacks,
        t.report.max_task_attempts,
        t.retry_bound,
        t.report.leaked_grants,
    );
    assert!(
        t.completion_pass(),
        "{}: answered {}/{}",
        t.label,
        t.answered,
        t.expected
    );
    assert!(
        t.parity,
        "{}: bitwise parity vs fault-free baseline",
        t.label
    );
    assert!(
        t.leak_pass(),
        "{}: leaked {} grants",
        t.label,
        t.report.leaked_grants
    );
    assert!(
        t.retry_pass(),
        "{}: attempts {} exceed bound {}",
        t.label,
        t.report.max_task_attempts,
        t.retry_bound
    );
    t
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (max_z, bins, waves): (u8, usize, u64) = if smoke { (5, 32, 2) } else { (8, 64, 3) };
    let rates: Vec<f64> = if smoke {
        vec![0.10, 0.30]
    } else {
        vec![0.05, 0.10, 0.20, 0.30]
    };
    let db = Arc::new(AtomDatabase::generate(DatabaseConfig {
        max_z,
        ..DatabaseConfig::default()
    }));
    let grid = EnergyGrid::linear(50.0, 2000.0, bins);

    // -- 1. fault-free baseline -------------------------------------------
    eprintln!("baseline (fault-free) ...");
    let engine = Engine::start(engine_config(&db, 2, ResilienceConfig::default()));
    let baseline = run_all_ions(&engine, &grid, waves);
    let baseline_report = engine.shutdown();
    assert_eq!(baseline.len() as u64, waves * db.ions().len() as u64);
    assert_eq!(baseline_report.leaked_grants, 0);

    // -- 2. fault-rate sweep ----------------------------------------------
    eprintln!("fault-rate sweep {rates:?} ...");
    let mut sweep: Vec<Trial> = Vec::new();
    for &rate in &rates {
        let mut resilience = fast_ladder();
        resilience.faults = (0..2)
            .map(|d| {
                FaultPlan::seeded(101 + d)
                    .launch_error_rate(rate)
                    .kernel_panic_rate(rate / 2.0)
                    .dma_error_rate(rate / 2.0)
                    .stall_rate(rate / 4.0, 1)
            })
            .collect();
        sweep.push(trial(
            format!("rate={rate:.2}"),
            &db,
            2,
            resilience,
            &grid,
            waves,
            &baseline,
        ));
    }

    // -- 3. sticky device loss --------------------------------------------
    eprintln!("sticky loss of device 1 of 2 ...");
    let mut resilience = fast_ladder();
    resilience.faults = vec![FaultPlan::default(), FaultPlan::default().lose_device_at(4)];
    let sticky = trial(
        "sticky-loss".into(),
        &db,
        2,
        resilience,
        &grid,
        waves,
        &baseline,
    );
    let sticky_lost = sticky.report.device_faults[1].lost;
    let sticky_open = sticky.report.device_breakers[1] == BreakerState::Open;
    assert!(sticky_lost, "device 1 must be sticky-lost");
    assert!(sticky_open, "a lost device's breaker stays open");

    // -- 4. open → half-open → closed breaker cycle ----------------------
    eprintln!("breaker cycle ...");
    let mut resilience = fast_ladder();
    resilience.breaker = BreakerConfig {
        min_samples: 2,
        cooldown_s: CYCLE_COOLDOWN_S,
        ..BreakerConfig::default()
    };
    resilience.faults = vec![
        FaultPlan::default()
            .fire_at(FaultOp::Launch, 0, FaultKind::LaunchError)
            .fire_at(FaultOp::Launch, 1, FaultKind::LaunchError),
        FaultPlan::default(),
    ];
    let retry_bound = u64::from(resilience.max_retries) + 1;
    let engine = Engine::start(EngineConfig {
        clock: VirtualClock::manual(),
        ..engine_config(&db, 2, resilience)
    });
    let mut cycle_answered = 0u64;
    // Single waves with the cooldown lapsing in between: the first
    // trips device 0, the next carries its half-open probe.
    for _ in 0..CYCLE_WAVES {
        cycle_answered += run_all_ions(&engine, &grid, 1).len() as u64;
        engine.config().clock.advance(CYCLE_COOLDOWN_S);
    }
    let cycle_report = engine.shutdown();
    let cycle_expected = CYCLE_WAVES * db.ions().len() as u64;
    let transitions = cycle_report.breaker_counters;
    let cycle_pass = transitions.opens >= 1
        && transitions.half_opens >= 1
        && transitions.closes >= 1
        && cycle_answered == cycle_expected
        && cycle_report.leaked_grants == 0;
    eprintln!(
        "  cycle: waves {CYCLE_WAVES}  opens {}  half-opens {}  closes {}",
        transitions.opens, transitions.half_opens, transitions.closes
    );
    assert!(
        cycle_pass,
        "full breaker cycle not observed: {cycle_report:?}"
    );

    // -- bundle -------------------------------------------------------------
    let all_retries_bounded = sweep.iter().all(Trial::retry_pass)
        && sticky.retry_pass()
        && cycle_report.max_task_attempts <= retry_bound;
    let all_leak_free = sweep.iter().all(Trial::leak_pass)
        && sticky.leak_pass()
        && baseline_report.leaked_grants == 0
        && cycle_report.leaked_grants == 0;
    let sweep_parity = sweep.iter().all(|t| t.parity);

    let bundle = ObjectBuilder::new()
        .field("smoke", smoke)
        .field(
            "workload",
            ObjectBuilder::new()
                .field("max_z", u64::from(max_z))
                .field("bins", bins as u64)
                .field("waves", waves)
                .field("ions", db.ions().len() as u64)
                .field("gpus", 2u64)
                .field("fault_rates", rates.clone())
                .field(
                    "kernel",
                    "deterministic single-chunk, Simpson 64 both paths",
                )
                .build(),
        )
        .field(
            "baseline",
            ObjectBuilder::new()
                .field("answered", baseline.len() as u64)
                .field("gpu_tasks", baseline_report.gpu_tasks)
                .field("cpu_tasks", baseline_report.cpu_tasks)
                .field("leaked_grants", baseline_report.leaked_grants)
                .build(),
        )
        .field("sweep", sweep.iter().map(Trial::json).collect::<Vec<_>>())
        .field("sticky_loss", sticky.json())
        .field(
            "breaker_cycle",
            ObjectBuilder::new()
                .field("waves", CYCLE_WAVES)
                .field("cooldown_s", CYCLE_COOLDOWN_S)
                .field("answered", cycle_answered)
                .field("expected", cycle_expected)
                .field("opens", transitions.opens)
                .field("half_opens", transitions.half_opens)
                .field("closes", transitions.closes)
                .field("leaked_grants", cycle_report.leaked_grants)
                .field("pass", cycle_pass)
                .build(),
        )
        .field(
            "gates",
            ObjectBuilder::new()
                .field(
                    "bitwise_parity_all_rates",
                    ObjectBuilder::new().field("pass", sweep_parity).build(),
                )
                .field(
                    "completion_under_sticky_loss",
                    ObjectBuilder::new()
                        .field("answered", sticky.answered)
                        .field("expected", sticky.expected)
                        .field("device_lost", sticky_lost)
                        .field("device_breaker_open", sticky_open)
                        .field("pass", sticky.pass() && sticky_lost && sticky_open)
                        .build(),
                )
                .field(
                    "zero_leaked_grants",
                    ObjectBuilder::new().field("pass", all_leak_free).build(),
                )
                .field(
                    "bounded_retries",
                    ObjectBuilder::new()
                        .field("pass", all_retries_bounded)
                        .build(),
                )
                .field(
                    "full_breaker_cycle",
                    ObjectBuilder::new().field("pass", cycle_pass).build(),
                )
                .build(),
        )
        .build();

    let path = "BENCH_chaos.json";
    std::fs::write(path, bundle.to_pretty()).expect("write results");
    println!("wrote {path}");
    println!(
        "chaos acceptance: parity at all {} rates, sticky-loss completion {}/{}, \
         zero leaked grants, retries bounded, full breaker cycle observed",
        sweep.len(),
        sticky.answered,
        sticky.expected,
    );
}
