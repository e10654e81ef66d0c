//! Tier-level routing invariants:
//!
//! * a sharded response is **bitwise identical** to the single-engine
//!   service's across shard counts and scheduler policies;
//! * routing is stable across restarts (same seed => same owners) and
//!   seed-sensitive;
//! * a replica whose devices are all sticky-lost demotes out of
//!   selection while every request still completes (replica re-route
//!   with the CPU fallback as last resort) and no grants leak;
//! * a capacity rebalance under concurrent load migrates ownership
//!   with no lost and no double-computed work.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use atomdb::{AtomDatabase, DatabaseConfig};
use hybrid_sched::SchedPolicy;
use rrc_router::{RouterConfig, ShardRouter};
use rrc_service::{ElementSelection, ServiceConfig, SpectralService, SpectrumRequest};
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
fn sharded_response_is_bitwise_identical_to_single_engine() {
    let db = db();
    let requests: Vec<SpectrumRequest> = (0..3).map(request).collect();
    let expected = baseline(&db, &requests);
    let total_ions = db.ions().len() as u64;
    for shards in [1usize, 2, 4] {
        for policy in [SchedPolicy::CostAware, SchedPolicy::PaperCount] {
            let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
            cfg.shards = shards;
            cfg.engine.policy = policy;
            let router = ShardRouter::start(cfg);
            for (req, want) in requests.iter().zip(&expected) {
                let got = router.query(req).expect("sharded response");
                assert_bits_equal(
                    &got.bins,
                    want,
                    &format!("{shards} shards, {policy:?}, point {}", req.point.index),
                );
                assert_eq!(
                    got.ions_computed + got.ions_from_cache,
                    total_ions,
                    "every ion answered exactly once"
                );
            }
            let report = router.shutdown();
            assert_eq!(report.leaked_grants, 0, "router leaked grants");
            assert_eq!(report.snapshot.counters.device_failed, 0);
        }
    }
}

#[test]
fn element_subset_requests_keep_parity_too() {
    let db = db();
    let subset = SpectrumRequest::new(point(1), ElementSelection::Elements(vec![2, 7]), 0);
    let expected = baseline(&db, std::slice::from_ref(&subset));
    let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
    cfg.shards = 3;
    let router = ShardRouter::start(cfg);
    let got = router.query(&subset).expect("subset response");
    assert_bits_equal(&got.bins, &expected[0], "element subset, 3 shards");
    assert_eq!(router.shutdown().leaked_grants, 0);
}

#[test]
fn same_seed_routes_same_ion_to_same_shard_across_restarts() {
    let db = db();
    let start = |seed: u64| {
        let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
        cfg.shards = 4;
        cfg.ring_seed = seed;
        ShardRouter::start(cfg)
    };
    let owners = |router: &ShardRouter| -> Vec<usize> {
        (0..db.ions().len()).map(|i| router.segment_of(i)).collect()
    };
    let first = start(17);
    let map = owners(&first);
    assert_eq!(first.shutdown().leaked_grants, 0);
    // A "restart": a brand-new router built from configuration alone.
    let second = start(17);
    assert_eq!(owners(&second), map, "same seed must route identically");
    assert_eq!(second.shutdown().leaked_grants, 0);
    let reseeded = start(18);
    assert_ne!(owners(&reseeded), map, "the seed must matter");
    assert_eq!(reseeded.shutdown().leaked_grants, 0);
}

#[test]
fn lost_replica_demotes_and_rerouted_traffic_completes_fully() {
    let db = db();
    let requests: Vec<SpectrumRequest> = (0..24).map(request).collect();
    let expected = baseline(&db, &requests);
    let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
    cfg.shards = 2;
    cfg.replicas = 2;
    cfg.cache_capacity = 0; // force real compute so the fault is exercised
    let router = ShardRouter::start(cfg);

    // Sticky-lose every device of replica (0, 0): the first task each
    // device touches fails Lost, which opens its breaker for good.
    let victim = router.replica(0, 0);
    for d in 0..victim.engine().gpus() {
        victim
            .engine()
            .device_faults(d)
            .expect("device exists")
            .force_lose();
    }

    let mut demoted_seen = false;
    for (req, want) in requests.iter().zip(&expected) {
        let got = router
            .query(req)
            .expect("every request completes despite the lost replica");
        assert_bits_equal(&got.bins, want, "response under replica loss");
        demoted_seen = demoted_seen || router.replica(0, 0).demoted();
    }
    assert!(
        demoted_seen,
        "sticky loss of every device must demote the replica"
    );

    // Post-demotion traffic still completes, now avoiding the victim.
    let after = request(100);
    let after_expected = baseline(&db, std::slice::from_ref(&after));
    let got = router.query(&after).expect("post-demotion response");
    assert_bits_equal(&got.bins, &after_expected[0], "post-demotion response");

    let snapshot = router.snapshot();
    assert!(
        snapshot.segments[0].replicas[0].demoted,
        "snapshot must report the demotion"
    );
    let report = router.shutdown();
    assert_eq!(report.leaked_grants, 0, "zero leaked grants after chaos");
    assert_eq!(report.snapshot.counters.device_failed, 0, "no refusals");
}

#[test]
fn rebalance_migrates_heavy_segment_without_losing_or_doubling_work() {
    let db = db();
    let total_ions = db.ions().len();
    let probe: Vec<SpectrumRequest> = (0..4).map(request).collect();
    let expected = baseline(&db, &probe);

    let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
    cfg.shards = 2;
    cfg.vnodes = 1; // coarse ring => guaranteed capacity skew to level
    cfg.rebalance_factor = 1.0;
    let router = Arc::new(ShardRouter::start(cfg));

    let skew_before = {
        let s = router.snapshot();
        let costs: Vec<u64> = s.segments.iter().map(|g| g.capacity_cost).collect();
        assert_eq!(
            s.segments.iter().map(|g| g.owned_ions).sum::<u64>(),
            total_ions as u64
        );
        *costs.iter().max().unwrap() - *costs.iter().min().unwrap()
    };

    // Concurrent open-loop load while the rebalancer runs.
    let stop = Arc::new(AtomicBool::new(false));
    let served_counter = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let served_counter = Arc::clone(&served_counter);
            let probe = probe.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let slot = (w + i) % probe.len();
                    let got = router.query(&probe[slot]).expect("query during rebalance");
                    assert_bits_equal(
                        &got.bins,
                        &expected[slot],
                        "concurrent response during migration",
                    );
                    assert_eq!(
                        got.ions_computed + got.ions_from_cache,
                        total_ions as u64,
                        "exactly-once: every ion answered once, none dropped or doubled"
                    );
                    served += 1;
                    served_counter.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
                served
            })
        })
        .collect();

    let mut migrated = 0usize;
    for _ in 0..32 {
        match router.rebalance() {
            Some(report) => {
                assert_ne!(report.from, report.to);
                assert!(!report.ions.is_empty());
                migrated += report.ions.len();
                // Ownership really moved, and nothing was lost.
                for &ion in &report.ions {
                    assert_eq!(router.segment_of(ion), report.to);
                }
            }
            None => break,
        }
    }
    // The rebalancer can converge before a slow-starting worker
    // finishes its first query (e.g. under full-suite parallel load):
    // keep the tier under load until both workers have demonstrably
    // overlapped the migrated table before calling time.
    while served_counter.load(Ordering::Relaxed) < 4 {
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    let served: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
    assert!(served > 0, "workers made progress during migration");
    assert!(migrated > 0, "the skewed ring must trigger a migration");

    let snapshot = router.snapshot();
    assert_eq!(
        snapshot.segments.iter().map(|g| g.owned_ions).sum::<u64>(),
        total_ions as u64,
        "no ion lost or double-owned by migration"
    );
    let costs: Vec<u64> = snapshot.segments.iter().map(|g| g.capacity_cost).collect();
    let skew_after = *costs.iter().max().unwrap() - *costs.iter().min().unwrap();
    assert!(
        skew_after < skew_before,
        "rebalance must narrow the capacity skew ({skew_before} -> {skew_after})"
    );

    // Post-migration queries still match the single-engine bits.
    for (req, want) in probe.iter().zip(&expected) {
        let got = router.query(req).expect("post-migration response");
        assert_bits_equal(&got.bins, want, "post-migration response");
    }
    let router = Arc::try_unwrap(router).ok().expect("workers joined");
    let report = router.shutdown();
    assert_eq!(report.leaked_grants, 0);
    assert!(report.snapshot.counters.rebalances > 0);
    assert_eq!(report.snapshot.counters.device_failed, 0);
}

#[test]
fn unknown_grid_is_refused_and_closed_router_reports_closed() {
    let db = db();
    let mut cfg = RouterConfig::deterministic(Arc::clone(&db), grids());
    cfg.shards = 1;
    let router = ShardRouter::start(cfg);
    let bad = SpectrumRequest::new(point(0), ElementSelection::All, 9);
    assert!(matches!(
        router.query(&bad),
        Err(rrc_service::ServiceError::UnknownGrid)
    ));
    assert_eq!(router.shutdown().leaked_grants, 0);
}
