//! Regenerate `BENCH_shard.json`: acceptance gates for the sharded
//! multi-engine service tier (`rrc-router`).
//!
//! Four legs, all on the deterministic single-chunk kernel with the
//! same Simpson-64 rule on both paths:
//!
//! 1. **Parity matrix** — the sharded tier answers **bitwise
//!    identically** (tolerance 0) to the single-engine
//!    `SpectralService` across {1, 2, 4} shards × both scheduling
//!    policies, with exact per-ion accounting and no leaked grants.
//! 2. **Aggregate throughput** — a cache-cold, mixed-element,
//!    open-loop load on 4 single-device shards vs 1. The host has too
//!    few cores to time 5 simulated engines honestly in wall-clock,
//!    so the gate compares **modeled makespans**: the maximum device
//!    `virtual_busy_seconds` across each tier's engines (devices and
//!    engines run concurrently; the busiest device bounds the tier).
//!    Gate: ≥ 1.8× at 4 shards.
//! 3. **Demotion chaos** — every device of one replica is
//!    sticky-lost under concurrent load, so all its device breakers
//!    open for good. Gates: 100% of in-flight and
//!    subsequent requests complete (replica re-route, CPU fallback as
//!    last resort), the victim demotes out of selection, zero leaked
//!    grants.
//! 4. **Rebalance** — a deliberately skewed ring (one vnode per
//!    segment) is levelled by the capacity rebalancer under
//!    concurrent load. Gates: ions migrate, the capacity skew
//!    narrows, no request is lost or double-computed (exact per-ion
//!    accounting + bitwise responses throughout), zero leaked grants.
//!
//! `--smoke` shrinks the database and the load for CI; every gate
//! stays asserted and the JSON is still written.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use atomdb::{AtomDatabase, DatabaseConfig};
use hybrid_sched::SchedPolicy;
use jsonlite::ObjectBuilder;
use rrc_router::{RouterConfig, RouterReport, ShardRouter};
use rrc_service::{ElementSelection, ServiceConfig, SpectralService, SpectrumRequest};
use rrc_spectral::{EnergyGrid, GridPoint};

struct Scale {
    max_z: u8,
    bins: usize,
    parity_points: usize,
    throughput_requests: usize,
    chaos_requests_per_worker: usize,
}

fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale {
            max_z: 5,
            bins: 32,
            parity_points: 2,
            throughput_requests: 10,
            chaos_requests_per_worker: 6,
        }
    } else {
        Scale {
            max_z: 8,
            bins: 64,
            parity_points: 3,
            throughput_requests: 24,
            chaos_requests_per_worker: 12,
        }
    }
}

fn point_at(index: usize) -> GridPoint {
    GridPoint {
        temperature_k: 9.0e6 + 6.7e5 * index as f64,
        density_cm3: 1.0,
        time_s: 0.0,
        index,
    }
}

fn all_request(index: usize) -> SpectrumRequest {
    SpectrumRequest::new(point_at(index), ElementSelection::All, 0)
}

/// Mixed-element open-loop load: rotate between the full selection and
/// light/heavy element subsets, every request at a distinct plasma
/// state (cache-cold by construction).
fn mixed_request(index: usize, max_z: u8) -> SpectrumRequest {
    let elements = match index % 3 {
        0 => ElementSelection::All,
        1 => ElementSelection::Elements((1..=max_z / 2).collect()),
        _ => ElementSelection::Elements((max_z / 2 + 1..=max_z).collect()),
    };
    SpectrumRequest::new(point_at(index), elements, 0)
}

fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Single-engine ground truth, leak-checked.
fn baseline(
    db: &Arc<AtomDatabase>,
    grids: &[EnergyGrid],
    requests: &[SpectrumRequest],
) -> Vec<Vec<f64>> {
    let service =
        SpectralService::start(ServiceConfig::deterministic(Arc::clone(db), grids.to_vec()));
    let out = requests
        .iter()
        .map(|r| {
            service
                .submit(r.clone())
                .expect("baseline submit")
                .wait()
                .expect("baseline response")
                .bins
        })
        .collect();
    let report = service.shutdown();
    assert_eq!(report.engine.leaked_grants, 0, "baseline leaked grants");
    out
}

/// The modeled tier makespan: devices within an engine and engines
/// within the tier run concurrently, so the busiest device bounds the
/// whole tier's virtual completion time.
fn modeled_makespan(report: &RouterReport) -> f64 {
    report
        .engines
        .iter()
        .flat_map(|e| e.device_virtual_seconds.iter().copied())
        .fold(0.0, f64::max)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let s = scale(smoke);
    let db = Arc::new(AtomDatabase::generate(DatabaseConfig {
        max_z: s.max_z,
        ..DatabaseConfig::default()
    }));
    let grids = vec![EnergyGrid::paper_waveband(s.bins)];
    let total_ions = db.ions().len() as u64;

    // -- 1. parity matrix ----------------------------------------------------
    eprintln!("parity across shards x policy ...");
    let parity_requests: Vec<SpectrumRequest> = (0..s.parity_points).map(all_request).collect();
    let expected = baseline(&db, &grids, &parity_requests);
    let mut parity_trials: Vec<jsonlite::Value> = Vec::new();
    let mut parity_pass = true;
    for shards in [1usize, 2, 4] {
        for policy in [SchedPolicy::CostAware, SchedPolicy::PaperCount] {
            let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids.clone());
            cfg.shards = shards;
            cfg.engine.policy = policy;
            let router = ShardRouter::start(cfg);
            let mut trial_bitwise = true;
            let mut trial_exact = true;
            for (req, want) in parity_requests.iter().zip(&expected) {
                let got = router.query(req).expect("sharded response");
                trial_bitwise &= bitwise_equal(&got.bins, want);
                trial_exact &= got.ions_computed + got.ions_from_cache == total_ions;
            }
            let report = router.shutdown();
            let pass = trial_bitwise && trial_exact && report.leaked_grants == 0;
            parity_pass &= pass;
            eprintln!(
                "  shards={shards} policy={policy:?}: bitwise {trial_bitwise}  \
                 exact {trial_exact}  leaked {}",
                report.leaked_grants
            );
            assert!(pass, "parity: shards={shards} policy={policy:?}");
            parity_trials.push(
                ObjectBuilder::new()
                    .field("shards", shards as u64)
                    .field("policy", format!("{policy:?}"))
                    .field("bitwise", trial_bitwise)
                    .field("exact_accounting", trial_exact)
                    .field("leaked_grants", report.leaked_grants)
                    .field("pass", pass)
                    .build(),
            );
        }
    }

    // -- 2. aggregate throughput (modeled makespan) --------------------------
    eprintln!("cache-cold mixed-element throughput, 4 shards vs 1 ...");
    let run_tier = |shards: usize| -> (u64, RouterReport) {
        let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids.clone());
        cfg.shards = shards;
        cfg.engine.gpus = 1; // one device per shard: resources scale with shards
        cfg.engine.max_queue_len = 100_000; // keep every task device-placed
        cfg.cache_capacity = 0; // cache-cold
        let router = ShardRouter::start(cfg);
        // Level ring skew from the capacity model before the timed
        // load so the 4-shard figure measures sharding, not ring luck.
        let mut passes = 0u32;
        while router.rebalance().is_some() && passes < 32 {
            passes += 1;
        }
        let mut served = 0u64;
        for i in 0..s.throughput_requests {
            let got = router
                .query(&mixed_request(i, s.max_z))
                .expect("throughput request");
            assert!(got.bins.iter().all(|b| b.is_finite()));
            served += 1;
        }
        (served, router.shutdown())
    };
    let (served_1, report_1) = run_tier(1);
    let (served_4, report_4) = run_tier(4);
    let makespan_1 = modeled_makespan(&report_1);
    let makespan_4 = modeled_makespan(&report_4);
    let throughput_ratio = makespan_1 / makespan_4.max(1e-12);
    let throughput_pass = served_1 == s.throughput_requests as u64
        && served_4 == s.throughput_requests as u64
        && report_1.leaked_grants == 0
        && report_4.leaked_grants == 0
        && throughput_ratio >= 1.8;
    eprintln!(
        "  modeled makespan: 1 shard {makespan_1:.3}s vs 4 shards {makespan_4:.3}s \
         ({throughput_ratio:.2}x)"
    );
    assert!(
        throughput_pass,
        "aggregate throughput {throughput_ratio:.2}x below 1.8x at 4 shards"
    );

    // -- 3. demotion chaos --------------------------------------------------
    eprintln!("demotion chaos: sticky-lose one replica's devices under load ...");
    let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids.clone());
    cfg.shards = 2;
    cfg.replicas = 2;
    cfg.cache_capacity = 0;
    let router = Arc::new(ShardRouter::start(cfg));
    let victim_gpus = router.replica(0, 0).engine().gpus();
    let fault_dropped = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let router = Arc::clone(&router);
            let fault_dropped = Arc::clone(&fault_dropped);
            let per_worker = s.chaos_requests_per_worker;
            std::thread::spawn(move || {
                let mut completed = 0u64;
                for i in 0..per_worker {
                    // Drop the fault mid-load from worker 0: requests
                    // already in flight and everything after must
                    // still complete.
                    if w == 0 && i == per_worker / 3 {
                        for d in 0..victim_gpus {
                            router
                                .replica(0, 0)
                                .engine()
                                .device_faults(d)
                                .expect("device exists")
                                .force_lose();
                        }
                        fault_dropped.store(true, Ordering::Release);
                    }
                    let req = all_request(w * per_worker + i);
                    let got = router.query(&req).expect("request completes under chaos");
                    assert_eq!(
                        got.ions_computed + got.ions_from_cache,
                        total_ions,
                        "exact accounting under chaos"
                    );
                    completed += 1;
                }
                completed
            })
        })
        .collect();
    let completed: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
    assert!(fault_dropped.load(Ordering::Acquire));
    // The victim may need one more routed request to notice both
    // losses; poke until the ladder demotes it (bounded).
    let mut demoted = router.replica(0, 0).demoted();
    let mut pokes = 0;
    while !demoted && pokes < 16 {
        let _ = router.query(&all_request(1000 + pokes)).expect("poke");
        demoted = router.replica(0, 0).demoted();
        pokes += 1;
    }
    let issued = 2 * s.chaos_requests_per_worker as u64;
    let chaos_report = Arc::try_unwrap(router)
        .ok()
        .expect("chaos workers joined")
        .shutdown();
    let chaos_pass = completed == issued
        && demoted
        && chaos_report.leaked_grants == 0
        && chaos_report.snapshot.counters.device_failed == 0;
    eprintln!(
        "  completed {completed}/{issued}  demoted {demoted}  leaked {}  refused {}",
        chaos_report.leaked_grants, chaos_report.snapshot.counters.device_failed
    );
    assert!(chaos_pass, "demotion chaos gate");

    // -- 4. rebalance under load ---------------------------------------------
    eprintln!("capacity rebalance under concurrent load ...");
    let probe: Vec<SpectrumRequest> = (0..s.parity_points).map(all_request).collect();
    let probe_expected = baseline(&db, &grids, &probe);
    let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids.clone());
    cfg.shards = 2;
    cfg.vnodes = 1; // coarse ring: guaranteed skew for the rebalancer
    cfg.rebalance_factor = 1.0;
    let router = Arc::new(ShardRouter::start(cfg));
    let skew = |r: &ShardRouter| -> u64 {
        let costs: Vec<u64> = r
            .snapshot()
            .segments
            .iter()
            .map(|g| g.capacity_cost)
            .collect();
        costs.iter().max().unwrap() - costs.iter().min().unwrap()
    };
    let skew_before = skew(&router);
    let stop = Arc::new(AtomicBool::new(false));
    let served_counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let load: Vec<_> = (0..2)
        .map(|w| {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let served_counter = Arc::clone(&served_counter);
            let probe = probe.clone();
            let expected = probe_expected.clone();
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut ok = true;
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    let slot = i % probe.len();
                    let got = router.query(&probe[slot]).expect("query during rebalance");
                    ok &= bitwise_equal(&got.bins, &expected[slot]);
                    ok &= got.ions_computed + got.ions_from_cache == total_ions;
                    served += 1;
                    served_counter.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
                (served, ok)
            })
        })
        .collect();
    let mut migrated = 0u64;
    let mut passes = 0u64;
    while let Some(report) = router.rebalance() {
        migrated += report.ions.len() as u64;
        passes += 1;
        if passes >= 32 {
            break;
        }
    }
    // The rebalancer may converge before the load threads complete a
    // single request; keep the concurrent load alive until a few
    // responses have actually raced the (already migrated) table.
    while served_counter.load(Ordering::Relaxed) < 4 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    let mut served_during = 0u64;
    let mut load_ok = true;
    for handle in load {
        let (served, ok) = handle.join().expect("load worker");
        served_during += served;
        load_ok &= ok;
    }
    let skew_after = skew(&router);
    // Post-migration probes must still match the single-engine bits.
    let mut post_ok = true;
    for (req, want) in probe.iter().zip(&probe_expected) {
        let got = router.query(req).expect("post-migration response");
        post_ok &= bitwise_equal(&got.bins, want);
    }
    let rebalance_report = Arc::try_unwrap(router)
        .ok()
        .expect("load workers joined")
        .shutdown();
    let rebalance_pass = migrated > 0
        && skew_after < skew_before
        && served_during > 0
        && load_ok
        && post_ok
        && rebalance_report.leaked_grants == 0
        && rebalance_report.snapshot.counters.device_failed == 0;
    eprintln!(
        "  migrated {migrated} ions over {passes} passes; skew {skew_before} -> {skew_after}; \
         {served_during} concurrent requests all exact+bitwise: {load_ok}"
    );
    assert!(rebalance_pass, "rebalance gate");

    // -- bundle --------------------------------------------------------------
    let bundle = ObjectBuilder::new()
        .field("smoke", smoke)
        .field(
            "workload",
            ObjectBuilder::new()
                .field("max_z", u64::from(s.max_z))
                .field("bins", s.bins as u64)
                .field("ions", total_ions)
                .field(
                    "kernel",
                    "deterministic single-chunk, Simpson 64 both paths",
                )
                .build(),
        )
        .field("parity", parity_trials)
        .field(
            "throughput",
            ObjectBuilder::new()
                .field("requests", s.throughput_requests as u64)
                .field("modeled_makespan_1_shard_s", makespan_1)
                .field("modeled_makespan_4_shards_s", makespan_4)
                .field("ratio", throughput_ratio)
                .field(
                    "leaked_grants",
                    report_1.leaked_grants + report_4.leaked_grants,
                )
                .build(),
        )
        .field(
            "demotion",
            ObjectBuilder::new()
                .field("issued", issued)
                .field("completed", completed)
                .field("victim_demoted", demoted)
                .field("refused", chaos_report.snapshot.counters.device_failed)
                .field("reroutes", chaos_report.snapshot.counters.reroutes)
                .field(
                    "demoted_skips",
                    chaos_report.snapshot.counters.demoted_skips,
                )
                .field("leaked_grants", chaos_report.leaked_grants)
                .build(),
        )
        .field(
            "rebalance",
            ObjectBuilder::new()
                .field("migrated_ions", migrated)
                .field("passes", passes)
                .field("capacity_skew_before", skew_before)
                .field("capacity_skew_after", skew_after)
                .field("concurrent_requests", served_during)
                .field("leaked_grants", rebalance_report.leaked_grants)
                .build(),
        )
        .field(
            "gates",
            ObjectBuilder::new()
                .field(
                    "sharded_bitwise_parity",
                    ObjectBuilder::new().field("pass", parity_pass).build(),
                )
                .field(
                    "aggregate_throughput_1_8x",
                    ObjectBuilder::new()
                        .field("ratio", throughput_ratio)
                        .field("pass", throughput_pass)
                        .build(),
                )
                .field(
                    "demotion_full_completion",
                    ObjectBuilder::new().field("pass", chaos_pass).build(),
                )
                .field(
                    "rebalance_exactly_once",
                    ObjectBuilder::new().field("pass", rebalance_pass).build(),
                )
                .field(
                    "zero_leaked_grants",
                    ObjectBuilder::new()
                        .field(
                            "pass",
                            report_1.leaked_grants
                                + report_4.leaked_grants
                                + chaos_report.leaked_grants
                                + rebalance_report.leaked_grants
                                == 0,
                        )
                        .build(),
                )
                .build(),
        )
        .build();

    let path = "BENCH_shard.json";
    std::fs::write(path, bundle.to_pretty()).expect("write results");
    println!("wrote {path}");
    println!(
        "shard acceptance: bitwise parity across 6 shard/policy configs, modeled \
         aggregate throughput {throughput_ratio:.2}x (>= 1.8x) at 4 shards, demotion \
         chaos {completed}/{issued} completed with the victim demoted, rebalance migrated \
         {migrated} ions exactly-once, zero leaked grants"
    );
}
