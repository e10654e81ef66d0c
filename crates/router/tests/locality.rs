//! Locality-tier invariants (router-level route cache, single-flight
//! coalescing, state affinity, hot-state replication, migration cache
//! handoff):
//!
//! * a route-cache replay is **bitwise identical** to the cache-off
//!   fan-out across shard counts and scheduler policies;
//! * concurrent identical misses admit exactly one fan-out (the rest
//!   coalesce onto the leader's flight or hit the fresh cache entry);
//! * affinity degrades to the baseline replica order when the
//!   preferred replica demotes, with every answer still correct;
//! * a rebalance ships the donor's cached partials to the new owner
//!   exactly once, so post-migration traffic replays instead of
//!   recomputing;
//! * promoting a hot state replicates its partials into sibling
//!   replica caches.

use std::sync::{Arc, Barrier};

use atomdb::{AtomDatabase, DatabaseConfig};
use hybrid_sched::SchedPolicy;
use rrc_router::{preferred_replica, RouterConfig, ShardRouter};
use rrc_service::{ElementSelection, Quantizer, ServiceConfig, SpectralService, SpectrumRequest};
use rrc_spectral::{EnergyGrid, GridPoint};

fn db() -> Arc<AtomDatabase> {
    Arc::new(AtomDatabase::generate(DatabaseConfig {
        max_z: 8,
        ..DatabaseConfig::default()
    }))
}

fn grids() -> Vec<EnergyGrid> {
    vec![EnergyGrid::paper_waveband(64)]
}

fn point(i: usize) -> GridPoint {
    GridPoint {
        temperature_k: 9.0e6 + 7.3e5 * i as f64,
        density_cm3: 1.0,
        time_s: 0.0,
        index: i,
    }
}

fn request(i: usize) -> SpectrumRequest {
    SpectrumRequest::new(point(i), ElementSelection::All, 0)
}

/// Single-engine ground truth for `requests`, leak-checked.
fn baseline(db: &Arc<AtomDatabase>, requests: &[SpectrumRequest]) -> Vec<Vec<f64>> {
    let service = SpectralService::start(ServiceConfig::deterministic(Arc::clone(db), grids()));
    let out: Vec<Vec<f64>> = requests
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

#[test]
fn route_cache_replay_is_bitwise_identical_to_the_cache_off_fan_out() {
    let db = db();
    let requests: Vec<SpectrumRequest> = (0..3).map(request).collect();
    let expected = baseline(&db, &requests);
    let total_ions = db.ions().len() as u64;
    for shards in [1usize, 2, 4] {
        for policy in [SchedPolicy::CostAware, SchedPolicy::PaperCount] {
            let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
            cfg.shards = shards;
            cfg.replicas = 2;
            cfg.engine.policy = policy;
            cfg.route_cache_capacity = 64;
            let router = ShardRouter::start(cfg);
            // First pass fans out and populates the route cache.
            for (req, want) in requests.iter().zip(&expected) {
                let got = router.query(req).expect("cold response");
                assert_bits_equal(
                    &got.bins,
                    want,
                    &format!(
                        "cold, {shards} shards, {policy:?}, point {}",
                        req.point.index
                    ),
                );
                assert_eq!(got.ions_computed + got.ions_from_cache, total_ions);
            }
            // Second pass must replay the cached assembly: identical
            // bits, zero scatter/gather, every ion accounted cached.
            for (req, want) in requests.iter().zip(&expected) {
                let got = router.query(req).expect("warm response");
                assert_bits_equal(
                    &got.bins,
                    want,
                    &format!(
                        "warm, {shards} shards, {policy:?}, point {}",
                        req.point.index
                    ),
                );
                assert_eq!(got.ions_computed, 0, "a route hit must not recompute");
                assert_eq!(got.ions_from_cache, total_ions);
            }
            let report = router.shutdown();
            assert_eq!(report.leaked_grants, 0, "router leaked grants");
            let c = &report.snapshot.counters;
            assert_eq!(c.route_hits, requests.len() as u64, "second pass all hits");
            assert_eq!(c.fanouts, requests.len() as u64, "first pass all fan-outs");
            assert_eq!(
                c.requests,
                c.route_hits + c.coalesced + c.fanouts,
                "every request is a hit, a coalesce, or a fan-out"
            );
        }
    }
}

#[test]
fn racing_identical_misses_admit_exactly_one_fan_out() {
    let db = db();
    let req = request(0);
    let expected = baseline(&db, std::slice::from_ref(&req));
    let total_ions = db.ions().len() as u64;

    let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
    cfg.shards = 2;
    cfg.route_cache_capacity = 16;
    let router = Arc::new(ShardRouter::start(cfg));

    const RACERS: usize = 8;
    let barrier = Arc::new(Barrier::new(RACERS));
    let racers: Vec<_> = (0..RACERS)
        .map(|_| {
            let router = Arc::clone(&router);
            let barrier = Arc::clone(&barrier);
            let req = req.clone();
            std::thread::spawn(move || {
                barrier.wait();
                router.query(&req).expect("racing query")
            })
        })
        .collect();
    for (i, racer) in racers.into_iter().enumerate() {
        let got = racer.join().expect("racer panicked");
        assert_bits_equal(&got.bins, &expected[0], &format!("racer {i}"));
        assert_eq!(got.ions_computed + got.ions_from_cache, total_ions);
    }

    let router = Arc::try_unwrap(router).ok().expect("racers joined");
    let report = router.shutdown();
    assert_eq!(report.leaked_grants, 0);
    let c = &report.snapshot.counters;
    assert_eq!(c.requests, RACERS as u64);
    assert_eq!(
        c.fanouts, 1,
        "concurrent identical misses must trigger exactly one fan-out"
    );
    assert_eq!(
        c.route_hits + c.coalesced,
        RACERS as u64 - 1,
        "every non-leader replays the leader's route"
    );
}

#[test]
fn affinity_falls_back_to_the_baseline_order_when_preferred_demotes() {
    let db = db();
    let req = request(0);
    let expected = baseline(&db, std::slice::from_ref(&req));

    let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
    cfg.shards = 1;
    cfg.replicas = 2;
    cfg.cache_capacity = 0; // force real compute so the fault is exercised
    let ring_seed = cfg.ring_seed;
    let router = ShardRouter::start(cfg);

    // The replica affinity would pick for this state, derived exactly
    // as the router derives it (same quantizer, same seed).
    let key = Quantizer::new(0).state_key(&req.point, req.grid_id);
    let pref = preferred_replica(&key, 0, 2, ring_seed);

    // Sticky-lose every device of the preferred replica: the first
    // task each device touches fails Lost and opens its breaker.
    let victim = router.replica(0, pref);
    for d in 0..victim.engine().gpus() {
        victim
            .engine()
            .device_faults(d)
            .expect("device exists")
            .force_lose();
    }

    let mut demoted_seen = false;
    for round in 0..24 {
        let got = router
            .query(&req)
            .expect("every request completes despite the lost preferred replica");
        assert_bits_equal(&got.bins, &expected[0], &format!("round {round}"));
        demoted_seen = demoted_seen || router.replica(0, pref).demoted();
    }
    assert!(
        demoted_seen,
        "sticky loss must demote the preferred replica"
    );

    let report = router.shutdown();
    assert_eq!(report.leaked_grants, 0, "zero leaked grants after chaos");
    let c = &report.snapshot.counters;
    assert_eq!(c.device_failed, 0, "no refusals");
    assert!(
        c.affinity_fallbacks > 0,
        "a demoted preferred replica must fall back to the baseline order"
    );
    assert_eq!(
        c.affinity_picks + c.affinity_fallbacks,
        c.requests,
        "with one segment, every request either picks or falls back"
    );
}

#[test]
fn migration_handoff_ships_cached_partials_exactly_once() {
    let db = db();
    let total_ions = db.ions().len() as u64;
    let probe: Vec<SpectrumRequest> = (0..4).map(request).collect();
    let expected = baseline(&db, &probe);

    let run = |handoff: bool| {
        let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
        cfg.shards = 2;
        cfg.vnodes = 1; // coarse ring => guaranteed capacity skew
        cfg.rebalance_factor = 1.0;
        cfg.migration_handoff = handoff;
        let router = ShardRouter::start(cfg);

        // Warm the tier: every segment computes and caches its ions.
        for (req, want) in probe.iter().zip(&expected) {
            let got = router.query(req).expect("warming query");
            assert_bits_equal(&got.bins, want, "warming response");
        }

        let mut handed_off = 0u64;
        let mut migrated = 0u64;
        for _ in 0..32 {
            match router.rebalance() {
                Some(report) => {
                    migrated += report.ions.len() as u64;
                    handed_off += report.handed_off;
                }
                None => break,
            }
        }
        assert!(migrated > 0, "the skewed ring must trigger a migration");

        // Post-migration replays: with handoff every ion answers from
        // a shard cache (the new owner received the donor's bits).
        let mut recomputed = 0u64;
        for (req, want) in probe.iter().zip(&expected) {
            let got = router.query(req).expect("post-migration response");
            assert_bits_equal(&got.bins, want, "post-migration response");
            assert_eq!(
                got.ions_computed + got.ions_from_cache,
                total_ions,
                "exactly-once: every ion answered once"
            );
            recomputed += got.ions_computed;
        }
        let report = router.shutdown();
        assert_eq!(report.leaked_grants, 0);
        assert_eq!(
            report.snapshot.counters.handoff_partials, handed_off,
            "counter mirrors the per-migration reports"
        );
        let warmed: u64 = report.engines.iter().map(|e| e.warmed_ions).sum();
        (handed_off, recomputed, warmed)
    };

    let (handed_off, recomputed, warmed) = run(true);
    assert!(handed_off > 0, "the warm donor must ship cached partials");
    assert_eq!(
        recomputed, 0,
        "handed-off partials must make post-migration traffic replay, not recompute"
    );
    assert!(
        warmed <= handed_off,
        "absent-only inserts never exceed the shipped entries"
    );
    assert!(warmed > 0, "the new owner must actually absorb entries");

    let (handed_off_off, recomputed_off, warmed_off) = run(false);
    assert_eq!(handed_off_off, 0, "handoff disabled ships nothing");
    assert_eq!(warmed_off, 0);
    assert!(
        recomputed_off > 0,
        "without handoff the migrated ions must be recomputed (the control \
         proving the handoff is what avoided the recompute)"
    );
}

#[test]
fn hot_state_promotion_replicates_partials_into_sibling_caches() {
    let db = db();
    let req = request(0);
    let expected = baseline(&db, std::slice::from_ref(&req));
    let total_ions = db.ions().len() as u64;

    let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
    cfg.shards = 1;
    cfg.replicas = 2;
    cfg.hot_state_k = 2;
    let ring_seed = cfg.ring_seed;
    let router = ShardRouter::start(cfg);

    let key = Quantizer::new(0).state_key(&req.point, req.grid_id);
    let pref = preferred_replica(&key, 0, 2, ring_seed);
    let sibling = 1 - pref;

    for round in 0..4 {
        let got = router.query(&req).expect("hot query");
        assert_bits_equal(&got.bins, &expected[0], &format!("hot round {round}"));
        assert_eq!(got.ions_computed + got.ions_from_cache, total_ions);
    }

    let snapshot = router.snapshot();
    assert!(
        snapshot.segments[0].replicas[sibling].cache.warm_insertions >= total_ions,
        "promotion must push the hot state's partials into the sibling \
         replica's cache (got {} warm insertions, want >= {total_ions})",
        snapshot.segments[0].replicas[sibling].cache.warm_insertions
    );

    let report = router.shutdown();
    assert_eq!(report.leaked_grants, 0);
    let c = &report.snapshot.counters;
    assert!(
        c.warmed_partials >= total_ions,
        "the router must account the replicated partials"
    );
    let warmed: u64 = report.engines.iter().map(|e| e.warmed_ions).sum();
    assert_eq!(
        warmed, c.warmed_partials,
        "engine audit matches the router counter"
    );
}
