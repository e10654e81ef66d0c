//! Regenerate `BENCH_sched.json`: acceptance gates for cost-aware
//! weighted scheduling, bounded work stealing, measured-cost
//! placement, and the resident engine.
//!
//! Three parts, all deterministic (fixed workload, no randomness):
//!
//! 1. **Placement simulation** — a discrete-event list-scheduling model
//!    of two devices fed the full-periodic-table ion mix, with per-task
//!    costs from the *real* cost model
//!    ([`hybrid_spectral::ion_task_cost`]) and an adversarially
//!    interleaved arrival order (heaviest/lightest pairs — the worst
//!    case for cost-oblivious placement). Placement is committed at
//!    submission time, as in the paper's Algorithm 1. Three schedulers
//!    run the identical stream: the paper's task-count policy, the
//!    cost-aware weighted policy, and cost-aware + idle-steal. Gates:
//!    weighted+stealing beats the paper policy by >= 1.3x on makespan,
//!    and busy-time imbalance (max/min) shrinks by >= 2x.
//! 2. **Measured-cost placement** — on a mispredicted class mix (two
//!    task classes with identical static cost but 8x different true
//!    cost), blending measured cost into placement must cut the device
//!    imbalance of true seconds by >= 1.2x vs. static-only cost. Uses
//!    the real [`Scheduler`] and [`CostModel`].
//! 3. **Engine acceptance** — the real resident engine, 2 simulated
//!    GPUs, deterministic single-chunk kernel, run under BOTH policies:
//!    every ion partial must match the serial reference **bitwise**
//!    (placement and steals change timing, never bits), and shutdown
//!    must free every scheduler grant. Steal counters are reported.
//!
//! `--smoke` shrinks the simulation and the engine run for CI; every
//! gate stays asserted and the JSON is still written.

use std::collections::VecDeque;
use std::sync::mpsc::channel;
use std::sync::Arc;

use atomdb::{AtomDatabase, DatabaseConfig};
use hybrid_sched::{CostKey, CostModel, SchedPolicy, Scheduler};
use hybrid_spectral::engine::{Engine, EngineConfig, IonJob, IonOutcome};
use hybrid_spectral::ion_task_cost;
use jsonlite::ObjectBuilder;
use rrc_spectral::{EnergyGrid, GridPoint, Integrator, SerialCalculator};

/// Device queue bound in the simulation (paper default).
const QUEUE_BOUND: usize = 6;
/// Simulated device seconds per cost unit.
const UNIT_S: f64 = 1.0;

// ---------------------------------------------------------------- part 1

#[derive(Clone, Copy, PartialEq, Eq)]
enum SimPolicy {
    PaperCount,
    CostAware,
}

#[derive(Debug, Clone, Copy)]
struct SimResult {
    makespan_s: f64,
    imbalance: f64, // max busy / min busy
    steals: u64,
}

/// Discrete-event list scheduling of `costs` onto two devices.
///
/// Placement follows Algorithm 1's structure: the device is chosen **at
/// submission time** (SCHE-ALLOC commits the task to one device queue),
/// and the batch producer is orders of magnitude faster than device
/// service, so the whole stream is placed before the first completion.
/// The selection chain mirrors `hybrid_sched::policy` — min load metric
/// (task count for PaperCount, outstanding weighted cost for
/// CostAware), then history, then index. Admission control (the
/// CPU-fallback queue bound) is deliberately out of scope here — it is
/// exercised by the engine half and the fairness suite; this half
/// isolates placement quality.
///
/// With `steal`, a device that drains its own queue takes the
/// *largest* staged task from the other device (the engine pump's
/// idle-steal rule).
fn simulate(costs: &[u64], policy: SimPolicy, steal: bool) -> SimResult {
    struct Dev {
        queue: VecDeque<u64>,
        cur: Option<(f64, u64)>, // (end time, cost) of the in-service task
        busy: f64,
        history: u64,
        weighted_out: u64,
    }
    let mut devs: Vec<Dev> = (0..2)
        .map(|_| Dev {
            queue: VecDeque::new(),
            cur: None,
            busy: 0.0,
            history: 0,
            weighted_out: 0,
        })
        .collect();

    // Submission phase: every task is bound to a device in arrival
    // order, before any service completes.
    for &cost in costs {
        let d = (0..devs.len())
            .min_by_key(|&d| {
                let load = match policy {
                    SimPolicy::PaperCount => devs[d].queue.len() as u64,
                    SimPolicy::CostAware => devs[d].weighted_out,
                };
                (load, devs[d].history, d)
            })
            .expect("two devices");
        devs[d].queue.push_back(cost);
        devs[d].weighted_out += cost;
        devs[d].history += 1;
    }

    // Service phase.
    let mut t = 0.0f64;
    let mut steals = 0u64;
    loop {
        // Start work on idle devices (stealing when the local lane is dry).
        for d in 0..devs.len() {
            if devs[d].cur.is_none() {
                if devs[d].queue.is_empty() && steal {
                    let other = 1 - d;
                    if let Some((pos, _)) = devs[other]
                        .queue
                        .iter()
                        .enumerate()
                        .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
                    {
                        let c = devs[other].queue.remove(pos).expect("position valid");
                        devs[other].weighted_out -= c;
                        devs[other].history -= 1;
                        devs[d].queue.push_back(c);
                        devs[d].weighted_out += c;
                        devs[d].history += 1;
                        steals += 1;
                    }
                }
                if let Some(c) = devs[d].queue.pop_front() {
                    devs[d].cur = Some((t + c as f64 * UNIT_S, c));
                }
            }
        }
        // Advance virtual time to the earliest completion.
        let Some(t_next) = devs
            .iter()
            .filter_map(|d| d.cur.map(|(end, _)| end))
            .min_by(|a, b| a.partial_cmp(b).expect("finite times"))
        else {
            break; // all devices idle: stream fully served
        };
        t = t_next;
        for dev in &mut devs {
            if let Some((end, c)) = dev.cur {
                if end <= t {
                    dev.busy += c as f64 * UNIT_S;
                    dev.weighted_out -= c;
                    dev.cur = None;
                }
            }
        }
    }
    let max = devs.iter().map(|d| d.busy).fold(0.0f64, f64::max);
    let min = devs.iter().map(|d| d.busy).fold(f64::INFINITY, f64::min);
    SimResult {
        makespan_s: t,
        imbalance: max / min.max(1e-12),
        steals,
    }
}

/// The full-periodic-table cost stream, adversarially ordered: heaviest
/// and lightest tasks interleaved in pairs, so a cost-oblivious policy
/// that alternates on count ties systematically funnels heavy tasks to
/// one device.
fn skewed_costs(max_z: u8, bins: usize, temperatures_k: &[f64]) -> Vec<u64> {
    let db = AtomDatabase::generate(DatabaseConfig {
        max_z,
        ..DatabaseConfig::default()
    });
    let grid = EnergyGrid::paper_waveband(bins);
    let bin_pairs = grid.bin_pairs();
    let mut costs = Vec::new();
    for (pi, &temperature_k) in temperatures_k.iter().enumerate() {
        let point = GridPoint {
            temperature_k,
            density_cm3: 1.0,
            time_s: 0.0,
            index: pi,
        };
        for ion in 0..db.ions().len() {
            let levels = db.levels_by_index(ion).len();
            costs.push(ion_task_cost(&db, ion, 0..levels, &point, &bin_pairs));
        }
    }
    costs.sort_unstable_by(|a, b| b.cmp(a)); // heaviest first
    let mut ordered = Vec::with_capacity(costs.len());
    let (mut lo, mut hi) = (0usize, costs.len());
    while lo < hi {
        ordered.push(costs[lo]); // heaviest remaining
        lo += 1;
        if lo < hi {
            hi -= 1;
            ordered.push(costs[hi]); // lightest remaining
        }
    }
    ordered
}

// ---------------------------------------------------------------- part 2

/// Waves of the measured-cost placement run.
const PLACEMENT_WAVES: usize = 6;
/// Tasks per wave (the queue bound is sized to hold a whole wave).
const PLACEMENT_TASKS: usize = 64;

/// Drive alternating heavy/light waves through the real scheduler and
/// return the imbalance (max/min) of *true* seconds across 2 devices.
/// `blend` = `None` places on raw static cost; `Some(model)` places on
/// the blended estimate and feeds each settled task's measured seconds
/// back in — the engine's settle protocol.
fn placement_imbalance(blend: Option<&CostModel>) -> f64 {
    // Two classes with the *same* static cost: the static model cannot
    // tell them apart, but the heavy class truly costs 8x more.
    let heavy = (CostKey::bucketed(2, 1, 16), 10u64, 8.0e-3f64);
    let light = (CostKey::bucketed(20, 1, 16), 10u64, 1.0e-3f64);
    let scheduler = Scheduler::new(2, PLACEMENT_TASKS as u64);
    let mut device_true_s = [0.0f64; 2];
    for _ in 0..PLACEMENT_WAVES {
        let mut in_flight = Vec::new();
        for t in 0..PLACEMENT_TASKS {
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

// ---------------------------------------------------------------- part 3

struct EngineRun {
    gpu_tasks: u64,
    cpu_tasks: u64,
    steals: Vec<u64>,
    cpu_steals: u64,
    leaked_grants: u64,
    bins_compared: u64,
}

/// Run every ion of a reduced database through the real engine under
/// `policy` with the deterministic kernel, and compare each partial
/// bitwise against the serial reference.
fn engine_parity(policy: SchedPolicy, max_z: u8, bins: usize) -> EngineRun {
    let db = Arc::new(AtomDatabase::generate(DatabaseConfig {
        max_z,
        ..DatabaseConfig::default()
    }));
    let grid = EnergyGrid::linear(50.0, 2000.0, bins);
    let bin_pairs = Arc::new(grid.bin_pairs());
    let point = GridPoint {
        temperature_k: 1.0e7,
        density_cm3: 1.0,
        time_s: 0.0,
        index: 0,
    };
    let engine = Engine::start(EngineConfig {
        max_queue_len: QUEUE_BOUND as u64,
        policy,
        queue_depth: 8,
        ..EngineConfig::deterministic(Arc::clone(&db), 3)
    });
    let ions = db.ions().len();
    let (tx, rx) = channel();
    for ion in 0..ions {
        let levels = db.levels_by_index(ion).len();
        let accepted = engine.submit(IonJob {
            ion_index: ion,
            level_range: 0..levels,
            point,
            grid: grid.clone(),
            bins: Arc::clone(&bin_pairs),
            tag: ion as u64,
            deadline: f64::INFINITY,
            reply: tx.clone(),
        });
        assert!(accepted.is_ok(), "engine accepts while live");
    }
    drop(tx);
    let mut outcomes: Vec<IonOutcome> = rx.iter().collect();
    assert_eq!(outcomes.len(), ions, "{policy:?}: every ion answered");
    outcomes.sort_by_key(|o| o.ion_index);
    let report = engine.shutdown();

    let serial = SerialCalculator::new((*db).clone(), grid, Integrator::Simpson { panels: 64 });
    let mut bins_compared = 0u64;
    for outcome in &outcomes {
        let reference = serial.ion_spectrum(outcome.ion_index, &point);
        for (b, (x, y)) in outcome.partial.iter().zip(reference.bins()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{policy:?} ion {} bin {b}: engine {x} vs serial {y}",
                outcome.ion_index
            );
            bins_compared += 1;
        }
    }
    EngineRun {
        gpu_tasks: report.gpu_tasks,
        cpu_tasks: report.cpu_tasks,
        steals: report.steals,
        cpu_steals: report.cpu_steals,
        leaked_grants: report.leaked_grants,
        bins_compared,
    }
}

fn engine_json(run: &EngineRun) -> jsonlite::Value {
    ObjectBuilder::new()
        .field("gpu_tasks", run.gpu_tasks)
        .field("cpu_tasks", run.cpu_tasks)
        .field("steals", run.steals.clone())
        .field("cpu_steals", run.cpu_steals)
        .field("leaked_grants", run.leaked_grants)
        .field("bins_compared", run.bins_compared)
        .build()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sim_max_z, sim_bins, temps): (u8, usize, Vec<f64>) = if smoke {
        (20, 64, vec![1.0e7])
    } else {
        (31, 128, vec![3.5e6, 1.0e7, 3.0e7])
    };
    let (eng_max_z, eng_bins): (u8, usize) = if smoke { (5, 32) } else { (8, 64) };

    // -- 1. placement simulation ------------------------------------------
    eprintln!("simulating placement over the periodic-table mix ...");
    let costs = skewed_costs(sim_max_z, sim_bins, &temps);
    let total: u64 = costs.iter().sum();
    let heaviest = *costs.iter().max().expect("nonempty");
    let paper = simulate(&costs, SimPolicy::PaperCount, false);
    let paper_stealing = simulate(&costs, SimPolicy::PaperCount, true);
    let weighted = simulate(&costs, SimPolicy::CostAware, false);
    let stealing = simulate(&costs, SimPolicy::CostAware, true);

    let speedup = paper.makespan_s / stealing.makespan_s;
    let imbalance_reduction = paper.imbalance / stealing.imbalance;
    let speedup_pass = speedup >= 1.3;
    let imbalance_pass = imbalance_reduction >= 2.0;
    eprintln!(
        "  paper-count:      makespan {:>10.0}s  imbalance {:.3}",
        paper.makespan_s, paper.imbalance
    );
    eprintln!(
        "  paper + stealing: makespan {:>10.0}s  imbalance {:.3}  ({} steals)",
        paper_stealing.makespan_s, paper_stealing.imbalance, paper_stealing.steals
    );
    eprintln!(
        "  cost-aware:       makespan {:>10.0}s  imbalance {:.3}",
        weighted.makespan_s, weighted.imbalance
    );
    eprintln!(
        "  + idle stealing:  makespan {:>10.0}s  imbalance {:.3}  ({} steals)",
        stealing.makespan_s, stealing.imbalance, stealing.steals
    );
    eprintln!("  speedup {speedup:.2}x (gate >= 1.3), imbalance reduction {imbalance_reduction:.2}x (gate >= 2)");
    assert!(
        speedup_pass,
        "speedup gate: weighted+stealing {speedup:.3}x over paper-count, need >= 1.3x"
    );
    assert!(
        imbalance_pass,
        "imbalance gate: reduction {imbalance_reduction:.3}x, need >= 2x"
    );

    // -- 2. measured-cost placement on the mispredicted mix ----------------
    eprintln!("static vs blended placement on the mispredicted mix ...");
    let static_imbalance = placement_imbalance(None);
    let blended_imbalance = placement_imbalance(Some(&CostModel::new()));
    let measured_ratio = static_imbalance / blended_imbalance.max(1e-12);
    let measured_pass = measured_ratio >= 1.2;
    eprintln!(
        "  imbalance static {static_imbalance:.2} -> blended {blended_imbalance:.2} \
         ({measured_ratio:.2}x, gate >= 1.2)"
    );
    assert!(
        measured_pass,
        "measured-cost gate: imbalance improved only {measured_ratio:.2}x, need >= 1.2x"
    );

    // -- 3. engine acceptance under both policies --------------------------
    eprintln!("engine parity (cost-aware) ...");
    let eng_cost_aware = engine_parity(SchedPolicy::CostAware, eng_max_z, eng_bins);
    eprintln!("engine parity (paper-count) ...");
    let eng_paper = engine_parity(SchedPolicy::PaperCount, eng_max_z, eng_bins);
    let parity_pass = true; // asserted bitwise above, per bin
    let leak_pass = eng_cost_aware.leaked_grants == 0 && eng_paper.leaked_grants == 0;
    assert!(leak_pass, "engine leaked scheduler grants");

    let bundle = ObjectBuilder::new()
        .field("smoke", smoke)
        .field(
            "workload",
            ObjectBuilder::new()
                .field("sim_max_z", u64::from(sim_max_z))
                .field("sim_bins", sim_bins as u64)
                .field("sim_temperatures_k", temps.clone())
                .field("sim_tasks", costs.len() as u64)
                .field("sim_total_cost", total)
                .field("sim_heaviest_task", heaviest)
                .field("arrival_order", "adversarial heavy/light pair interleave")
                .field("placement", "committed at submission (Algorithm 1)")
                .field("engine_queue_bound", QUEUE_BOUND as u64)
                .field("engine_max_z", u64::from(eng_max_z))
                .field("engine_bins", eng_bins as u64)
                .build(),
        )
        .field(
            "simulation",
            ObjectBuilder::new()
                .field(
                    "paper_count",
                    ObjectBuilder::new()
                        .field("makespan_s", paper.makespan_s)
                        .field("imbalance", paper.imbalance)
                        .build(),
                )
                .field(
                    "paper_count_stealing",
                    ObjectBuilder::new()
                        .field("makespan_s", paper_stealing.makespan_s)
                        .field("imbalance", paper_stealing.imbalance)
                        .field("steals", paper_stealing.steals)
                        .build(),
                )
                .field(
                    "cost_aware",
                    ObjectBuilder::new()
                        .field("makespan_s", weighted.makespan_s)
                        .field("imbalance", weighted.imbalance)
                        .build(),
                )
                .field(
                    "cost_aware_stealing",
                    ObjectBuilder::new()
                        .field("makespan_s", stealing.makespan_s)
                        .field("imbalance", stealing.imbalance)
                        .field("steals", stealing.steals)
                        .build(),
                )
                .build(),
        )
        .field(
            "measured_cost",
            ObjectBuilder::new()
                .field("waves", PLACEMENT_WAVES as u64)
                .field("tasks_per_wave", PLACEMENT_TASKS as u64)
                .field("static_imbalance", static_imbalance)
                .field("blended_imbalance", blended_imbalance)
                .build(),
        )
        .field(
            "gates",
            ObjectBuilder::new()
                .field(
                    "speedup_vs_paper",
                    ObjectBuilder::new()
                        .field("value", speedup)
                        .field("threshold", 1.3)
                        .field("pass", speedup_pass)
                        .build(),
                )
                .field(
                    "imbalance_reduction",
                    ObjectBuilder::new()
                        .field("value", imbalance_reduction)
                        .field("threshold", 2.0)
                        .field("pass", imbalance_pass)
                        .build(),
                )
                .field(
                    "measured_cost_placement",
                    ObjectBuilder::new()
                        .field("value", measured_ratio)
                        .field("threshold", 1.2)
                        .field("pass", measured_pass)
                        .build(),
                )
                .field(
                    "bitwise_parity_both_policies",
                    ObjectBuilder::new()
                        .field(
                            "bins_compared",
                            eng_cost_aware.bins_compared + eng_paper.bins_compared,
                        )
                        .field("pass", parity_pass)
                        .build(),
                )
                .field(
                    "zero_leaked_grants",
                    ObjectBuilder::new().field("pass", leak_pass).build(),
                )
                .build(),
        )
        .field(
            "engine",
            ObjectBuilder::new()
                .field("cost_aware", engine_json(&eng_cost_aware))
                .field("paper_count", engine_json(&eng_paper))
                .build(),
        )
        .build();

    let path = "BENCH_sched.json";
    std::fs::write(path, bundle.to_pretty()).expect("write results");
    println!("wrote {path}");
    println!(
        "sched acceptance: speedup {speedup:.2}x, imbalance reduction {imbalance_reduction:.2}x, \
         measured-cost placement {measured_ratio:.2}x, parity bitwise, zero leaked grants"
    );
}
