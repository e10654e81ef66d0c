//! Regenerate `BENCH_slo.json`: acceptance gates for request-level
//! resilience — deadline propagation, SLO-driven admission with
//! priority tiers, hedged re-scatter against stragglers, and
//! per-replica circuit breakers.
//!
//! Five legs, all on the deterministic single-chunk kernel with the
//! same Simpson rule on both paths:
//!
//! 1. **Hedged parity matrix** — hedging + priorities + deadlines +
//!    breakers under universal lane stalls answer **bitwise
//!    identically** (tolerance 0) to the unhedged, fault-free tier
//!    across {1, 2, 4} shards × both routing policies (affinity
//!    on/off). Hedging may reorder timing, never bits.
//! 2. **Tail-latency rescue** — one lane out of eight (a 4-shard ×
//!    2-replica tier) carries a persistent slow-replica skew. Gates:
//!    hedged p99 beats unhedged p99 by ≥ 1.5×, and the token bucket is
//!    never exhausted (zero denials, tokens left over).
//! 3. **Overload protection** — a bulk flood several times past the
//!    bulk queue's capacity runs while interactive traffic is
//!    measured. Gates: interactive p95 stays within 2× of the
//!    unloaded tier, interactive sheds nothing while bulk absorbs all
//!    shedding; separately, every infeasible-deadline request is
//!    refused with the typed error at admission before any fan-out
//!    (zero batches — zero wasted compute).
//! 4. **Breaker starvation + probe** — a replica whose lane drops
//!    every delivery trips its breaker, serves **zero** requests while
//!    open, is re-admitted through a single half-open probe after the
//!    cooldown, and rejoins the rotation.
//! 5. **Zero leaked grants** across every tier and service above.
//!
//! `--smoke` shrinks the database and the load for CI; every gate
//! stays asserted and the JSON is still written.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atomdb::{AtomDatabase, DatabaseConfig};
use desim::{Deadline, Priority, VirtualClock};
use hybrid_sched::BreakerState;
use jsonlite::ObjectBuilder;
use mpi_sim::LaneFaultPlan;
use rrc_router::{RouterConfig, ShardRouter};
use rrc_service::{
    ElementSelection, ServiceConfig, ServiceError, SpectralService, SpectrumRequest,
};
use rrc_spectral::{EnergyGrid, GridPoint};

struct Scale {
    max_z: u8,
    bins: usize,
    parity_points: usize,
    tail_requests: usize,
    interactive_requests: usize,
    bulk_flood: usize,
    infeasible_requests: usize,
}

fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale {
            max_z: 5,
            bins: 32,
            parity_points: 2,
            tail_requests: 12,
            interactive_requests: 6,
            bulk_flood: 24,
            infeasible_requests: 4,
        }
    } else {
        Scale {
            max_z: 7,
            bins: 48,
            parity_points: 3,
            tail_requests: 40,
            interactive_requests: 12,
            bulk_flood: 48,
            infeasible_requests: 8,
        }
    }
}

fn point_at(index: usize) -> GridPoint {
    GridPoint {
        temperature_k: 8.8e6 + 6.3e5 * index as f64,
        density_cm3: 1.0,
        time_s: 0.0,
        index,
    }
}

fn all_request(index: usize) -> SpectrumRequest {
    SpectrumRequest::new(point_at(index), ElementSelection::All, 0)
}

/// Parity traffic exercises the whole request envelope: alternating
/// priority tiers, every request under a generous (feasible) absolute
/// deadline that must survive propagation without changing bits.
fn enveloped_request(index: usize) -> SpectrumRequest {
    let priority = if index.is_multiple_of(2) {
        Priority::Interactive
    } else {
        Priority::Bulk
    };
    all_request(index)
        .with_priority(priority)
        .with_deadline(Deadline::at(1.0e9))
}

fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Nearest-rank percentile of a latency sample (q in (0, 1]).
fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let s = scale(smoke);
    let db = Arc::new(AtomDatabase::generate(DatabaseConfig {
        max_z: s.max_z,
        ..DatabaseConfig::default()
    }));
    let grids = vec![EnergyGrid::paper_waveband(s.bins)];
    let mut leaked_total = 0u64;

    // -- 1. hedged parity matrix ---------------------------------------------
    eprintln!("hedged parity across shards x policy under universal stalls ...");
    let parity_requests: Vec<SpectrumRequest> =
        (0..s.parity_points).map(enveloped_request).collect();
    let mut parity_trials: Vec<jsonlite::Value> = Vec::new();
    let mut parity_pass = true;
    let mut parity_hedges = 0u64;
    for shards in [1usize, 2, 4] {
        for affinity in [false, true] {
            let mut base_cfg = RouterConfig::deterministic(Arc::clone(&db), grids.clone());
            base_cfg.shards = shards;
            base_cfg.replicas = 2;
            base_cfg.affinity = affinity;
            let baseline = ShardRouter::start(base_cfg.clone());
            let want: Vec<Vec<f64>> = parity_requests
                .iter()
                .map(|r| baseline.query(r).expect("baseline answers").bins)
                .collect();
            let base_report = baseline.shutdown();
            leaked_total += base_report.leaked_grants;

            let mut hedged_cfg = base_cfg;
            hedged_cfg.hedge_quantile = 0.5;
            hedged_cfg.hedge_min_wait = Duration::from_millis(1);
            let hedged = ShardRouter::start(hedged_cfg);
            // Every lane straggles past the hedge trigger: every slot
            // re-scatters to its sibling and first-writer-wins decides.
            for lane in 0..shards * 2 {
                hedged.set_lane_faults(
                    lane,
                    LaneFaultPlan::seeded(17 + lane as u64).stall_rate(1.0, 6),
                );
            }
            let mut trial_bitwise = true;
            for (req, want) in parity_requests.iter().zip(&want) {
                let got = hedged.query(req).expect("hedged answers");
                trial_bitwise &= bitwise_equal(&got.bins, want);
            }
            let hedges = hedged.snapshot().counters.hedges;
            parity_hedges += hedges;
            let report = hedged.shutdown();
            leaked_total += report.leaked_grants;
            let pass = trial_bitwise && hedges >= 1 && report.leaked_grants == 0;
            parity_pass &= pass;
            eprintln!(
                "  shards={shards} affinity={affinity}: bitwise {trial_bitwise}  \
                 hedges {hedges}  leaked {}",
                report.leaked_grants
            );
            assert!(pass, "hedged parity: shards={shards} affinity={affinity}");
            parity_trials.push(
                ObjectBuilder::new()
                    .field("shards", shards as u64)
                    .field("affinity", affinity)
                    .field("bitwise", trial_bitwise)
                    .field("hedges", hedges)
                    .field("leaked_grants", report.leaked_grants)
                    .field("pass", pass)
                    .build(),
            );
        }
    }

    // -- 2. tail-latency rescue under slow-replica skew ----------------------
    eprintln!("tail rescue: 1 of 8 lanes skewed, hedged vs unhedged p99 ...");
    let run_skewed = |hedge: bool| -> (Vec<f64>, u64, u64, f64, u64) {
        let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids.clone());
        cfg.shards = 4;
        cfg.replicas = 2;
        cfg.affinity = false;
        cfg.cache_capacity = 0; // cold computes: every request fans out
        if hedge {
            // The floor sits above normal part latency and well below
            // the injected skew, and the bucket is sized for the
            // tier's worst-case hedge volume: only genuinely
            // straggling parts spend tokens, and the budget never
            // runs dry.
            cfg.hedge_quantile = 0.5;
            cfg.hedge_min_wait = Duration::from_millis(15);
            cfg.hedge_tokens = 128.0;
            cfg.hedge_refill_per_sec = 32.0;
        }
        let tier = ShardRouter::start(cfg);
        // Lane 0 (segment 0, replica 0) is the persistent straggler:
        // every delivery it serves arrives late by a fixed skew.
        tier.set_lane_faults(0, LaneFaultPlan::seeded(29).delay(60));
        let mut lat = Vec::with_capacity(s.tail_requests);
        for i in 0..s.tail_requests {
            let started = Instant::now();
            let _ = tier.query(&all_request(i)).expect("skewed tier answers");
            lat.push(started.elapsed().as_secs_f64());
        }
        let snapshot = tier.snapshot();
        let tokens_left = tier.hedge_tokens_available();
        let report = tier.shutdown();
        (
            lat,
            snapshot.counters.hedges,
            snapshot.counters.hedge_denied,
            tokens_left,
            report.leaked_grants,
        )
    };
    let (unhedged_lat, _, _, _, unhedged_leaked) = run_skewed(false);
    let (hedged_lat, tail_hedges, tail_denied, tokens_left, hedged_leaked) = run_skewed(true);
    leaked_total += unhedged_leaked + hedged_leaked;
    let p99_unhedged = percentile(&unhedged_lat, 0.99);
    let p99_hedged = percentile(&hedged_lat, 0.99);
    let tail_ratio = p99_unhedged / p99_hedged.max(1e-9);
    let tail_pass = tail_ratio >= 1.5
        && tail_hedges >= 1
        && tail_denied == 0
        && tokens_left > 0.0
        && unhedged_leaked + hedged_leaked == 0;
    eprintln!(
        "  p99 unhedged {:.1}ms vs hedged {:.1}ms ({tail_ratio:.2}x); \
         hedges {tail_hedges}, denied {tail_denied}, tokens left {tokens_left:.1}",
        p99_unhedged * 1e3,
        p99_hedged * 1e3
    );
    assert!(
        tail_pass,
        "tail rescue {tail_ratio:.2}x below 1.5x (denied {tail_denied})"
    );

    // -- 3. overload protection ----------------------------------------------
    eprintln!("overload: bulk flood vs measured interactive p95 ...");
    let service_cfg = || {
        let mut cfg = ServiceConfig::deterministic(Arc::clone(&db), grids.clone());
        cfg.cache_capacity = 0; // cold computes: load is real
        cfg.request_queue_depth = 64;
        cfg.bulk_queue_depth = 2;
        cfg.max_batch = 2;
        cfg.interactive_weight = 4;
        cfg
    };
    let measure_interactive = |service: &SpectralService, base: usize| -> u64 {
        let mut answered = 0u64;
        for i in 0..s.interactive_requests {
            let response = service
                .submit(all_request(base + i).with_priority(Priority::Interactive))
                .expect("interactive must never shed here")
                .wait()
                .expect("interactive answered");
            assert!(response.bins.iter().all(|b| b.is_finite()));
            answered += 1;
        }
        answered
    };

    // Unloaded reference tier.
    let unloaded = SpectralService::start(service_cfg());
    measure_interactive(&unloaded, 0);
    let p95_unloaded = unloaded.metrics().per_priority[Priority::Interactive.index()].p95_s;
    let unloaded_report = unloaded.shutdown();
    leaked_total += unloaded_report.engine.leaked_grants;

    // Loaded tier: a background bulk flood several times past the bulk
    // queue's depth runs for the whole interactive measurement.
    let loaded = Arc::new(SpectralService::start(service_cfg()));
    let stop = Arc::new(AtomicBool::new(false));
    let bulk_refused = Arc::new(AtomicU64::new(0));
    let flood = {
        let service = Arc::clone(&loaded);
        let stop = Arc::clone(&stop);
        let bulk_refused = Arc::clone(&bulk_refused);
        let flood_len = s.bulk_flood;
        std::thread::spawn(move || {
            let mut tickets = Vec::new();
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) || i < flood_len {
                // Cheap single-element sweeps: the flood saturates the
                // bulk queue without monopolizing the device.
                let req = SpectrumRequest::new(
                    point_at(10_000 + i),
                    ElementSelection::Elements(vec![1]),
                    0,
                )
                .with_priority(Priority::Bulk);
                match service.submit(req) {
                    Ok(ticket) => tickets.push(ticket),
                    Err(ServiceError::Overloaded) => {
                        bulk_refused.fetch_add(1, Ordering::AcqRel);
                    }
                    Err(e) => panic!("flood may only shed on capacity, got {e}"),
                }
                i += 1;
                // Paced overload, not a busy-loop: the arrival rate
                // stays several times past the bulk queue's drain rate
                // without the flood thread itself monopolizing a core.
                std::thread::sleep(Duration::from_micros(400));
            }
            for ticket in tickets {
                let _ = ticket.wait().expect("admitted bulk answered");
            }
        })
    };
    measure_interactive(&loaded, 1_000);
    stop.store(true, Ordering::Release);
    flood.join().expect("flood worker");
    let loaded_metrics = loaded.metrics();
    let p95_loaded = loaded_metrics.per_priority[Priority::Interactive.index()].p95_s;
    let loaded_report = Arc::try_unwrap(loaded)
        .ok()
        .expect("flood joined")
        .shutdown();
    leaked_total += loaded_report.engine.leaked_grants;
    let p95_ratio = p95_loaded / p95_unloaded.max(1e-9);
    let bulk_shed = bulk_refused.load(Ordering::Acquire);
    let overload_pass = p95_ratio <= 2.0
        && bulk_shed >= 1
        && loaded_metrics.shed_queue_full == bulk_shed
        && loaded_metrics.shed_infeasible == 0
        && loaded_report.engine.leaked_grants == 0;
    eprintln!(
        "  interactive p95 unloaded {:.2}ms vs loaded {:.2}ms ({p95_ratio:.2}x); \
         bulk shed {bulk_shed}, interactive shed 0",
        p95_unloaded * 1e3,
        p95_loaded * 1e3
    );
    assert!(
        overload_pass,
        "overload: interactive p95 {p95_ratio:.2}x above 2x (bulk shed {bulk_shed})"
    );

    // Infeasible deadlines never reach the fan-out: a fresh tier
    // refuses every one with the typed error and runs zero batches.
    let gated = SpectralService::start(service_cfg());
    for i in 0..s.infeasible_requests {
        let outcome = gated.submit(all_request(i).with_deadline(Deadline::at(0.0)));
        assert!(
            matches!(outcome, Err(ServiceError::DeadlineInfeasible)),
            "expired deadline must shed typed"
        );
    }
    let gated_metrics = gated.metrics();
    let gated_report = gated.shutdown();
    leaked_total += gated_report.engine.leaked_grants;
    let infeasible_pass = gated_metrics.shed_infeasible == s.infeasible_requests as u64
        && gated_metrics.submitted == 0
        && gated_metrics.batches == 0
        && gated_report.engine.leaked_grants == 0;
    eprintln!(
        "  infeasible deadlines: {} refused typed, {} batches (zero wasted fan-outs)",
        gated_metrics.shed_infeasible, gated_metrics.batches
    );
    assert!(infeasible_pass, "infeasible-deadline admission gate");

    // -- 4. breaker starvation + half-open probe -----------------------------
    eprintln!("breaker: drop-everything lane trips, starves, probes, rejoins ...");
    let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids.clone());
    cfg.shards = 1;
    cfg.replicas = 2;
    cfg.affinity = false;
    cfg.cache_capacity = 0;
    cfg.engine.clock = VirtualClock::manual();
    let tier = ShardRouter::start(cfg);
    tier.set_lane_faults(0, LaneFaultPlan::seeded(3).drop_rate(1.0));
    let mut sent = 0usize;
    while tier.breaker(0, 0).state() != BreakerState::Open {
        assert!(sent < 64, "breaker should trip within a few dozen drops");
        let _ = tier.query(&all_request(sent)).expect("sibling covers");
        sent += 1;
    }
    // Heal the lane; the open breaker must still starve the replica.
    tier.set_lane_faults(0, LaneFaultPlan::default());
    let frozen = tier.replica(0, 0).metrics().responded;
    for i in 0..8 {
        let _ = tier.query(&all_request(100 + i)).expect("replica 1 serves");
    }
    let starved = tier.replica(0, 0).metrics().responded == frozen
        && tier.breaker(0, 0).state() == BreakerState::Open;
    // Past the cooldown the next request carries the half-open probe.
    tier.clock().advance(1.0);
    let _ = tier.query(&all_request(200)).expect("probe succeeds");
    let probed = tier.breaker(0, 0).state() == BreakerState::Closed
        && tier.replica(0, 0).metrics().responded == frozen + 1;
    for i in 0..8 {
        let _ = tier.query(&all_request(300 + i)).expect("both serve");
    }
    let rejoined = tier.replica(0, 0).metrics().responded > frozen + 1;
    let transitions = tier.breaker(0, 0).counters();
    let breaker_skips = tier.snapshot().counters.breaker_skips;
    let breaker_report = tier.shutdown();
    leaked_total += breaker_report.leaked_grants;
    let breaker_pass = starved
        && probed
        && rejoined
        && transitions.opens >= 1
        && transitions.half_opens >= 1
        && transitions.closes >= 1
        && breaker_report.leaked_grants == 0;
    eprintln!(
        "  tripped after {sent} requests; starved {starved}, probe closed {probed}, \
         rejoined {rejoined} ({transitions:?}, {breaker_skips} open-skips)"
    );
    assert!(breaker_pass, "breaker starvation/probe gate");

    // -- 5. zero leaked grants everywhere ------------------------------------
    let leak_pass = leaked_total == 0;
    assert!(leak_pass, "leaked {leaked_total} grants across the run");

    // -- bundle --------------------------------------------------------------
    let bundle = ObjectBuilder::new()
        .field("smoke", smoke)
        .field(
            "workload",
            ObjectBuilder::new()
                .field("max_z", u64::from(s.max_z))
                .field("bins", s.bins as u64)
                .field("ions", db.ions().len() as u64)
                .field(
                    "kernel",
                    "deterministic single-chunk, Simpson rule both paths",
                )
                .build(),
        )
        .field("parity", parity_trials)
        .field(
            "tail_rescue",
            ObjectBuilder::new()
                .field("requests", s.tail_requests as u64)
                .field("skewed_lanes", 1u64)
                .field("lanes", 8u64)
                .field("p99_unhedged_s", p99_unhedged)
                .field("p99_hedged_s", p99_hedged)
                .field("ratio", tail_ratio)
                .field("hedges", tail_hedges)
                .field("hedge_denied", tail_denied)
                .field("hedge_tokens_left", tokens_left)
                .build(),
        )
        .field(
            "overload",
            ObjectBuilder::new()
                .field("interactive_requests", s.interactive_requests as u64)
                .field("interactive_p95_unloaded_s", p95_unloaded)
                .field("interactive_p95_loaded_s", p95_loaded)
                .field("p95_ratio", p95_ratio)
                .field("bulk_shed", bulk_shed)
                .field("interactive_shed", 0u64)
                .field("infeasible_refused", gated_metrics.shed_infeasible)
                .field("infeasible_batches", gated_metrics.batches)
                .build(),
        )
        .field(
            "breaker",
            ObjectBuilder::new()
                .field("requests_to_trip", sent as u64)
                .field("starved_while_open", starved)
                .field("probe_closed", probed)
                .field("rejoined", rejoined)
                .field("opens", transitions.opens)
                .field("half_opens", transitions.half_opens)
                .field("closes", transitions.closes)
                .field("open_skips", breaker_skips)
                .build(),
        )
        .field(
            "gates",
            ObjectBuilder::new()
                .field(
                    "hedged_bitwise_parity",
                    ObjectBuilder::new()
                        .field("hedges", parity_hedges)
                        .field("pass", parity_pass)
                        .build(),
                )
                .field(
                    "tail_rescue_1_5x",
                    ObjectBuilder::new()
                        .field("ratio", tail_ratio)
                        .field("pass", tail_pass)
                        .build(),
                )
                .field(
                    "interactive_p95_within_2x",
                    ObjectBuilder::new()
                        .field("ratio", p95_ratio)
                        .field("pass", overload_pass)
                        .build(),
                )
                .field(
                    "infeasible_shed_before_fanout",
                    ObjectBuilder::new().field("pass", infeasible_pass).build(),
                )
                .field(
                    "breaker_starves_until_probe",
                    ObjectBuilder::new().field("pass", breaker_pass).build(),
                )
                .field(
                    "zero_leaked_grants",
                    ObjectBuilder::new().field("pass", leak_pass).build(),
                )
                .build(),
        )
        .build();

    let path = "BENCH_slo.json";
    std::fs::write(path, bundle.to_pretty()).expect("write results");
    println!("wrote {path}");
    println!(
        "slo acceptance: hedged bitwise parity across 6 shard/policy configs, tail p99 \
         rescue {tail_ratio:.2}x (>= 1.5x) with zero hedge denials, interactive p95 \
         {p95_ratio:.2}x (<= 2x) under bulk flood with typed infeasible shedding before \
         fan-out, breaker starves its replica until the half-open probe, zero leaked grants"
    );
}
