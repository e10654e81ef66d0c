//! Request-level resilience properties of the sharded tier:
//!
//! * hedged re-scatter under injected lane stalls is **bitwise
//!   identical** to the unhedged tier across shard counts and both
//!   affinity policies — hedging may reorder timing, never bits;
//! * the hedge token bucket is a hard budget: under a 100% straggler
//!   storm with a frozen clock the router spends exactly `capacity`
//!   hedges and denies the rest;
//! * a replica whose lane drops every delivery trips its circuit
//!   breaker, receives **zero** requests while the breaker is open,
//!   and is re-admitted through a single half-open probe once the
//!   cooldown elapses.

use std::sync::Arc;
use std::time::Duration;

use atomdb::{AtomDatabase, DatabaseConfig};
use desim::VirtualClock;
use hybrid_sched::BreakerState;
use mpi_sim::LaneFaultPlan;
use rrc_router::{RouterConfig, ShardRouter};
use rrc_service::{ElementSelection, SpectrumRequest};
use rrc_spectral::{EnergyGrid, GridPoint};

fn db() -> Arc<AtomDatabase> {
    Arc::new(AtomDatabase::generate(DatabaseConfig {
        max_z: 6,
        ..DatabaseConfig::default()
    }))
}

fn grids() -> Vec<EnergyGrid> {
    vec![EnergyGrid::paper_waveband(48)]
}

fn request(i: usize) -> SpectrumRequest {
    SpectrumRequest::new(
        GridPoint {
            temperature_k: 8.5e6 + 6.1e5 * i as f64,
            density_cm3: 1.0,
            time_s: 0.0,
            index: i,
        },
        ElementSelection::All,
        0,
    )
}

fn assert_bits_equal(got: &[f64], want: &[f64], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: bin count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{context}: bin {i} differs ({g:e} vs {w:e})"
        );
    }
}

/// Hedged fan-out under universal lane stalls returns the identical
/// bits the unhedged tier produces, across {1, 2, 4} shards and both
/// routing policies (affinity on/off) — and the stalls really do force
/// hedges to fire.
#[test]
fn hedged_rescatter_is_bitwise_identical_across_shards_and_policies() {
    let db = db();
    let requests: Vec<SpectrumRequest> = (0..3).map(request).collect();
    for shards in [1usize, 2, 4] {
        for affinity in [false, true] {
            let mut base_cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
            base_cfg.shards = shards;
            base_cfg.replicas = 2;
            base_cfg.affinity = affinity;
            let baseline = ShardRouter::start(base_cfg.clone());
            let want: Vec<Vec<f64>> = requests
                .iter()
                .map(|r| baseline.query(r).expect("baseline answers").bins)
                .collect();
            assert_eq!(baseline.shutdown().leaked_grants, 0);

            let mut hedged_cfg = base_cfg;
            hedged_cfg.hedge_quantile = 0.5;
            hedged_cfg.hedge_min_wait = Duration::from_millis(1);
            let hedged = ShardRouter::start(hedged_cfg);
            // Every lane straggles: each primary part stalls well past
            // the hedge trigger, so every slot hedges to its sibling.
            for lane in 0..shards * 2 {
                hedged.set_lane_faults(
                    lane,
                    LaneFaultPlan::seeded(41 + lane as u64).stall_rate(1.0, 8),
                );
            }
            for (i, r) in requests.iter().enumerate() {
                let got = hedged.query(r).expect("hedged answers");
                assert_bits_equal(
                    &got.bins,
                    &want[i],
                    &format!("shards={shards} affinity={affinity} request={i}"),
                );
            }
            let snapshot = hedged.snapshot();
            assert!(
                snapshot.counters.hedges >= 1,
                "shards={shards} affinity={affinity}: stalls past the \
                 trigger must hedge, got {:?}",
                snapshot.counters
            );
            assert_eq!(hedged.shutdown().leaked_grants, 0);
        }
    }
}

/// With a frozen manual clock (no refill) every hedge attempt beyond
/// the bucket's capacity is denied: a 100% straggler storm spends
/// exactly `capacity` tokens, never more.
#[test]
fn hedge_token_bucket_is_a_hard_budget_under_straggler_storm() {
    let db = db();
    let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
    cfg.shards = 1;
    cfg.replicas = 2;
    cfg.affinity = false;
    cfg.hedge_quantile = 0.5;
    cfg.hedge_min_wait = Duration::from_millis(1);
    cfg.hedge_tokens = 2.0;
    cfg.hedge_refill_per_sec = 1000.0; // irrelevant: the clock is frozen
    cfg.engine.clock = VirtualClock::manual();
    let tier = ShardRouter::start(cfg);
    // Both replicas straggle on every delivery, far past the trigger:
    // every request's single slot attempts exactly one hedge.
    for lane in 0..2 {
        tier.set_lane_faults(
            lane,
            LaneFaultPlan::seeded(7 + lane as u64).stall_rate(1.0, 30),
        );
    }
    for i in 0..6 {
        let _ = tier.query(&request(i)).expect("storm answers, slowly");
    }
    let counters = tier.snapshot().counters;
    assert_eq!(
        counters.hedges, 2,
        "exactly the bucket's capacity may hedge: {counters:?}"
    );
    assert_eq!(
        counters.hedge_denied, 4,
        "every further attempt must be denied: {counters:?}"
    );
    assert_eq!(tier.hedge_tokens_available(), 0.0, "bucket spent dry");
    assert_eq!(tier.shutdown().leaked_grants, 0);
}

/// A replica whose lane drops everything trips its breaker; while the
/// breaker is open the replica serves **zero** requests; once the
/// cooldown elapses the very next request carries the half-open probe,
/// and a healed replica closes the breaker and rejoins.
#[test]
fn open_breaker_starves_replica_until_probe_succeeds() {
    let db = db();
    let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
    cfg.shards = 1;
    cfg.replicas = 2;
    cfg.affinity = false;
    cfg.cache_capacity = 0;
    cfg.engine.clock = VirtualClock::manual();
    let tier = ShardRouter::start(cfg);
    // Replica 0's lane eats every delivery; its parts resolve missing
    // and re-route to replica 1, each miss feeding the breaker.
    tier.set_lane_faults(0, LaneFaultPlan::seeded(3).drop_rate(1.0));
    let mut sent = 0usize;
    while tier.breaker(0, 0).state() != BreakerState::Open {
        assert!(sent < 64, "breaker should trip within a few dozen drops");
        let _ = tier.query(&request(sent)).expect("sibling covers the drop");
        sent += 1;
    }
    assert!(tier.breaker(0, 0).counters().opens >= 1);

    // Heal the lane — but the breaker is open and the (manual) clock
    // has not reached the cooldown, so replica 0 must see no traffic.
    tier.set_lane_faults(0, LaneFaultPlan::default());
    let frozen = tier.replica(0, 0).metrics().responded;
    for i in 0..8 {
        let _ = tier.query(&request(100 + i)).expect("replica 1 serves");
    }
    assert_eq!(
        tier.replica(0, 0).metrics().responded,
        frozen,
        "an open breaker must starve its replica completely"
    );
    assert_eq!(tier.breaker(0, 0).state(), BreakerState::Open);
    assert!(tier.snapshot().counters.breaker_skips >= 1);

    // Past the cooldown the next request is the probe — it must land
    // on replica 0 (probe-first selection), succeed, and close the
    // breaker.
    tier.clock().advance(1.0);
    let _ = tier.query(&request(200)).expect("probe succeeds");
    assert_eq!(tier.breaker(0, 0).state(), BreakerState::Closed);
    assert_eq!(
        tier.replica(0, 0).metrics().responded,
        frozen + 1,
        "the probe itself carries real traffic"
    );
    let transitions = tier.breaker(0, 0).counters();
    assert!(transitions.half_opens >= 1, "{transitions:?}");
    assert!(transitions.closes >= 1, "{transitions:?}");

    // A closed breaker readmits the replica to normal rotation.
    for i in 0..8 {
        let _ = tier.query(&request(300 + i)).expect("both replicas serve");
    }
    assert!(
        tier.replica(0, 0).metrics().responded > frozen + 1,
        "a recovered replica must rejoin the rotation"
    );
    assert_eq!(tier.shutdown().leaked_grants, 0);
}
