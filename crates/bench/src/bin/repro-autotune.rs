//! Regenerate `BENCH_autotune.json`: acceptance gates for the
//! measured-cost feedback loop and the resident online tuner.
//!
//! Three gates, all deterministic (virtual time and modeled cost — no
//! wall clock), so they are asserted in smoke and full runs alike:
//!
//! 1. **Adaptive vs. best fixed** — the real [`OnlineTuner`] drives
//!    the live knob block against a drifting workload model (element-
//!    mix shift → device degradation → load ramp, each phase with its
//!    own latency optimum per knob). The controller must beat the best
//!    *fixed* configuration from a dense grid by ≥ 1.15x on p95
//!    latency or throughput, and must re-settle within a bounded
//!    number of epochs after every drift.
//! 2. **Measured-cost placement** — on a mispredicted class mix (two
//!    task classes with identical static cost but 8x different true
//!    cost), blending online measured cost into placement must cut the
//!    device imbalance of true seconds by ≥ 1.2x vs. static-only cost.
//!    Uses the real [`Scheduler`] and [`CostModel`].
//! 3. **Bitwise parity** — with the tuner *and* measured-cost
//!    placement live, every Exact-mode engine ion partial stays
//!    bitwise identical to the serial reference across GPU counts and
//!    both placement policies, with zero leaked grants.
//!
//! `--smoke` shrinks the parity workload for CI; gates stay asserted.

use std::sync::mpsc::channel;
use std::sync::Arc;

use atomdb::{AtomDatabase, DatabaseConfig};
use hybrid_sched::{
    CostKey, CostModel, Knob, OnlineTuner, SchedPolicy, Scheduler, TunerDim, TunerKnobs,
    TuningConfig,
};
use hybrid_spectral::engine::{Engine, EngineConfig, IonJob, IonOutcome};
use jsonlite::ObjectBuilder;
use rrc_spectral::{EnergyGrid, GridPoint, Integrator, SerialCalculator};

// ------------------------------------------------------------------
// Gate 1: adaptive controller vs. the best fixed configuration
// ------------------------------------------------------------------

/// One stationary stretch of the drifting workload: a base service
/// time and the knob values that minimize latency during it.
struct Phase {
    name: &'static str,
    base_s: f64,
    opt_batch: f64,
    opt_ranks: f64,
    epochs: usize,
}

/// The drift schedule: each phase moves the optimum of at least one
/// knob, so no fixed configuration is good everywhere.
fn drift_schedule() -> Vec<Phase> {
    vec![
        Phase {
            // Many tiny ions: coalescing wide batches amortizes
            // per-launch overhead; few CPU ranks are needed.
            name: "element_mix_shift",
            base_s: 1.0,
            opt_batch: 24.0,
            opt_ranks: 2.0,
            epochs: 80,
        },
        Phase {
            // A degraded device: small batches bound the blast radius
            // and work shifts back to CPU ranks.
            name: "device_degradation",
            base_s: 1.6,
            opt_batch: 8.0,
            opt_ranks: 6.0,
            epochs: 80,
        },
        Phase {
            // Load ramp: the widest batches win again.
            name: "load_ramp",
            base_s: 2.4,
            opt_batch: 32.0,
            opt_ranks: 4.0,
            epochs: 80,
        },
    ]
}

/// Unimodal penalty for running knob value `x` away from the phase
/// optimum: `1` at the optimum, symmetric in log-space.
fn bowl(x: f64, opt: f64) -> f64 {
    0.5 * (x / opt + opt / x)
}

/// The modeled per-request latency of one epoch under `(batch,
/// ranks)` during `phase`.
fn epoch_latency(phase: &Phase, batch: f64, ranks: f64) -> f64 {
    phase.base_s * bowl(batch, phase.opt_batch) * bowl(ranks, phase.opt_ranks)
}

fn p95(latencies: &[f64]) -> f64 {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * 0.95).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn throughput(latencies: &[f64]) -> f64 {
    latencies.iter().map(|l| 1.0 / l).sum()
}

struct PhaseConvergence {
    name: &'static str,
    epochs_to_settle: Option<usize>,
}

/// Run the real controller over the drift schedule; returns the
/// per-epoch latencies it achieved and when it settled in each phase.
fn run_adaptive(tuning: TuningConfig) -> (Vec<f64>, Vec<PhaseConvergence>) {
    let knobs = Arc::new(TunerKnobs::new(0, 8, 4));
    let tuner = OnlineTuner::new(Arc::clone(&knobs), tuning.patience);
    tuner.add_dim(TunerDim {
        knob: Knob::MaxBatch,
        min: 1,
        max: 32,
        step: 4,
    });
    tuner.add_dim(TunerDim {
        knob: Knob::ActiveRanks,
        min: 1,
        max: 8,
        step: 1,
    });
    let mut latencies = Vec::new();
    let mut convergence = Vec::new();
    for phase in drift_schedule() {
        let mut settled_at = None;
        for epoch in 0..phase.epochs {
            let lat = epoch_latency(
                &phase,
                knobs.max_batch() as f64,
                knobs.active_ranks() as f64,
            );
            latencies.push(lat);
            tuner.observe_epoch(lat);
            if settled_at.is_none() && tuner.settled() {
                settled_at = Some(epoch + 1);
            }
        }
        convergence.push(PhaseConvergence {
            name: phase.name,
            epochs_to_settle: settled_at,
        });
    }
    (latencies, convergence)
}

/// Evaluate one frozen configuration over the same drift schedule.
fn run_fixed(batch: f64, ranks: f64) -> Vec<f64> {
    drift_schedule()
        .iter()
        .flat_map(|phase| std::iter::repeat_n(epoch_latency(phase, batch, ranks), phase.epochs))
        .collect()
}

// ------------------------------------------------------------------
// Gate 2: measured-cost placement on a mispredicted class mix
// ------------------------------------------------------------------

/// Drive alternating heavy/light waves through the real scheduler and
/// return the imbalance (max/min) of *true* seconds across 2 devices.
/// `blend` = `None` places on raw static cost; `Some(model)` places on
/// the blended estimate and feeds each settled task's measured
/// seconds back in — exactly the engine's pump-loop protocol.
fn placement_imbalance(blend: Option<&CostModel>, waves: usize, tasks_per_wave: usize) -> f64 {
    // Two classes with the *same* static cost: the static model cannot
    // tell them apart, but the heavy class truly costs 8x more.
    let heavy = (CostKey::bucketed(2, 1, 16), 10u64, 8.0e-3f64);
    let light = (CostKey::bucketed(20, 1, 16), 10u64, 1.0e-3f64);
    let scheduler = Scheduler::new(2, tasks_per_wave as u64);
    let mut device_true_s = [0.0f64; 2];
    for _ in 0..waves {
        let mut in_flight = Vec::new();
        for t in 0..tasks_per_wave {
            let (key, static_units, true_s) = if t % 2 == 0 { &heavy } else { &light };
            let cost = blend.map_or(*static_units, |m| m.blended(key, *static_units));
            let grant = scheduler
                .alloc_cost(cost)
                .expect("queue bound sized for the whole wave");
            device_true_s[grant.device.0] += true_s;
            in_flight.push((grant, *key, *static_units, *true_s));
        }
        for (grant, key, static_units, true_s) in in_flight {
            if let Some(model) = blend {
                model.observe(&key, static_units, true_s);
            }
            scheduler.free(grant);
        }
    }
    assert_eq!(scheduler.in_flight(), 0, "placement wave leaked grants");
    let hi = device_true_s[0].max(device_true_s[1]);
    let lo = device_true_s[0].min(device_true_s[1]).max(1e-12);
    hi / lo
}

// ------------------------------------------------------------------
// Gate 3: bitwise parity with the tuner and measured cost live
// ------------------------------------------------------------------

fn tuned_engine_config(db: &Arc<AtomDatabase>, gpus: usize, policy: SchedPolicy) -> EngineConfig {
    EngineConfig {
        gpus,
        max_queue_len: 4,
        policy,
        queue_depth: 8,
        // Tiny epochs so the controller provably moves during the run.
        tuning: TuningConfig {
            epoch_tasks: 4,
            ..TuningConfig::enabled()
        },
        ..EngineConfig::deterministic(Arc::clone(db), 3)
    }
}

fn parity_point() -> GridPoint {
    GridPoint {
        temperature_k: 1.0e7,
        density_cm3: 1.0,
        time_s: 0.0,
        index: 0,
    }
}

/// Run `waves` full-table waves through a tuned engine and check every
/// partial bitwise against the serial reference. Returns (tuner
/// epochs, cost observations) so the caller can assert both loops ran.
fn parity_run(
    db: &Arc<AtomDatabase>,
    grid: &EnergyGrid,
    reference: &[Vec<f64>],
    gpus: usize,
    policy: SchedPolicy,
    waves: u64,
) -> (u64, u64) {
    let engine = Engine::start(tuned_engine_config(db, gpus, policy));
    let bins = Arc::new(grid.bin_pairs());
    let (tx, rx) = channel();
    let mut submitted = 0u64;
    for wave in 0..waves {
        for ion_index in 0..db.ions().len() {
            let levels = db.levels_by_index(ion_index).len();
            engine
                .submit(IonJob {
                    ion_index,
                    level_range: 0..levels,
                    point: parity_point(),
                    grid: grid.clone(),
                    bins: Arc::clone(&bins),
                    tag: wave,
                    deadline: f64::INFINITY,
                    reply: tx.clone(),
                })
                .ok()
                .expect("engine accepts the parity workload");
            submitted += 1;
        }
    }
    drop(tx);
    let outcomes: Vec<IonOutcome> = rx.iter().collect();
    assert_eq!(outcomes.len() as u64, submitted, "every task must reply");
    for outcome in &outcomes {
        let want = &reference[outcome.ion_index];
        assert_eq!(outcome.partial.len(), want.len());
        for (bin, (&a, &r)) in outcome.partial.iter().zip(want).enumerate() {
            assert_eq!(
                a.to_bits(),
                r.to_bits(),
                "gpus={gpus} policy={policy:?} ion {} bin {bin}",
                outcome.ion_index
            );
        }
    }
    let snapshot = engine.scheduler_snapshot();
    let tuner_epochs = snapshot.tuner.as_ref().map_or(0, |t| t.epoch);
    let observations = snapshot.cost_observations;
    let report = engine.shutdown();
    assert_eq!(report.leaked_grants, 0, "tuned engine leaked a grant");
    (tuner_epochs, observations)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // ------------------------------------------- gate 1: adaptive vs fixed
    eprintln!("driving the online tuner over the drift schedule ...");
    let tuning = TuningConfig::enabled();
    let (adaptive_lats, convergence) = run_adaptive(tuning);
    let adaptive_p95 = p95(&adaptive_lats);
    let adaptive_tp = throughput(&adaptive_lats);

    let mut best_fixed: Option<(f64, f64, f64, f64)> = None; // (b, r, p95, tp)
    for &b in &[1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0] {
        for &r in &[1.0, 2.0, 4.0, 6.0, 8.0] {
            let lats = run_fixed(b, r);
            let tp = throughput(&lats);
            if best_fixed.is_none_or(|(.., best_tp)| tp > best_tp) {
                best_fixed = Some((b, r, p95(&lats), tp));
            }
        }
    }
    let (fixed_b, fixed_r, fixed_p95, fixed_tp) = best_fixed.expect("grid is non-empty");
    let tp_ratio = adaptive_tp / fixed_tp;
    let p95_ratio = fixed_p95 / adaptive_p95;
    let adaptive_pass = tp_ratio >= 1.15 || p95_ratio >= 1.15;
    assert!(
        adaptive_pass,
        "adaptive gate: throughput ratio {tp_ratio:.3}x, p95 ratio {p95_ratio:.3}x (< 1.15x)"
    );

    // Bounded-epoch re-convergence after every drift.
    let settle_bound = 60usize;
    let mut convergence_pass = true;
    for phase in &convergence {
        let ok = phase.epochs_to_settle.is_some_and(|e| e <= settle_bound);
        convergence_pass &= ok;
        assert!(
            ok,
            "convergence gate: phase {} settled at {:?} (bound {settle_bound})",
            phase.name, phase.epochs_to_settle
        );
    }

    // -------------------------------------- gate 2: measured-cost placement
    eprintln!("comparing static vs blended placement on the mispredicted mix ...");
    let placement_waves = 6;
    let tasks_per_wave = 64;
    let static_imbalance = placement_imbalance(None, placement_waves, tasks_per_wave);
    let model = CostModel::new();
    let blended_imbalance = placement_imbalance(Some(&model), placement_waves, tasks_per_wave);
    let imbalance_ratio = static_imbalance / blended_imbalance.max(1e-12);
    let measured_pass = imbalance_ratio >= 1.2;
    assert!(
        measured_pass,
        "measured-cost gate: imbalance improved only {imbalance_ratio:.2}x \
         (static {static_imbalance:.2}, blended {blended_imbalance:.2})"
    );

    // ------------------------------------------------ gate 3: bitwise parity
    eprintln!("checking Exact-mode bitwise parity with the tuner live ...");
    let db = Arc::new(AtomDatabase::generate(DatabaseConfig {
        max_z: if smoke { 5 } else { 8 },
        ..DatabaseConfig::default()
    }));
    let grid = EnergyGrid::linear(50.0, 2000.0, if smoke { 32 } else { 64 });
    let serial = SerialCalculator::new(
        (*db).clone(),
        grid.clone(),
        Integrator::Simpson { panels: 64 },
    );
    let reference: Vec<Vec<f64>> = (0..db.ions().len())
        .map(|i| serial.ion_spectrum(i, &parity_point()).bins().to_vec())
        .collect();
    let gpu_counts: &[usize] = if smoke { &[2] } else { &[0, 1, 2] };
    let waves = if smoke { 3 } else { 4 };
    let mut parity_runs = 0u64;
    let mut max_tuner_epochs = 0u64;
    let mut max_observations = 0u64;
    for &gpus in gpu_counts {
        for policy in [SchedPolicy::CostAware, SchedPolicy::PaperCount] {
            let (epochs, observations) = parity_run(&db, &grid, &reference, gpus, policy, waves);
            max_tuner_epochs = max_tuner_epochs.max(epochs);
            max_observations = max_observations.max(observations);
            parity_runs += 1;
        }
    }
    assert!(max_tuner_epochs > 0, "tuner never saw an epoch");
    assert!(
        max_observations > 0,
        "no measured-cost observation reached the model"
    );
    let parity_pass = true; // asserted bitwise above

    // ---------------------------------------------------------------- report
    let pass = adaptive_pass && convergence_pass && measured_pass && parity_pass;
    let convergence_rows = jsonlite::Value::Array(
        convergence
            .iter()
            .map(|phase| {
                ObjectBuilder::new()
                    .field("phase", phase.name)
                    .field(
                        "epochs_to_settle",
                        phase.epochs_to_settle.map_or(-1.0, |e| e as f64),
                    )
                    .field("bound", settle_bound)
                    .field(
                        "pass",
                        phase.epochs_to_settle.is_some_and(|e| e <= settle_bound),
                    )
                    .build()
            })
            .collect(),
    );
    let bundle = ObjectBuilder::new()
        .field("smoke", smoke)
        .field(
            "adaptive",
            ObjectBuilder::new()
                .field("epochs", adaptive_lats.len())
                .field("patience", tuning.patience)
                .field("adaptive_p95_s", adaptive_p95)
                .field("adaptive_throughput", adaptive_tp)
                .field(
                    "best_fixed",
                    ObjectBuilder::new()
                        .field("max_batch", fixed_b)
                        .field("active_ranks", fixed_r)
                        .field("p95_s", fixed_p95)
                        .field("throughput", fixed_tp)
                        .build(),
                )
                .field("throughput_ratio", tp_ratio)
                .field("p95_ratio", p95_ratio)
                .field("gate", 1.15)
                .field("pass", adaptive_pass)
                .build(),
        )
        .field("convergence", convergence_rows)
        .field(
            "measured_cost",
            ObjectBuilder::new()
                .field("waves", placement_waves as u64)
                .field("static_imbalance", static_imbalance)
                .field("blended_imbalance", blended_imbalance)
                .field("improvement", imbalance_ratio)
                .field("gate", 1.2)
                .field("pass", measured_pass)
                .build(),
        )
        .field(
            "parity",
            ObjectBuilder::new()
                .field("bitwise", true)
                .field("runs", parity_runs)
                .field("tuner_epochs", max_tuner_epochs)
                .field("cost_observations", max_observations)
                .field("leaked_grants", 0u64)
                .field("pass", parity_pass)
                .build(),
        )
        .field("pass", pass)
        .build();

    let path = "BENCH_autotune.json";
    std::fs::write(path, bundle.to_pretty()).expect("write results");
    println!("wrote {path}");
    println!(
        "adaptive vs best fixed ({fixed_b:.0}/{fixed_r:.0}): \
         throughput {tp_ratio:.2}x, p95 {p95_ratio:.2}x"
    );
    println!(
        "measured-cost placement imbalance: static {static_imbalance:.2} -> \
         blended {blended_imbalance:.2} ({imbalance_ratio:.2}x)"
    );
    println!("parity: {parity_runs} tuned runs bitwise-identical to serial");
}
