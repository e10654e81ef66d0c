//! Golden-file lock on the operator-facing JSON contract of
//! [`rrc_router::RouterSnapshot::to_json`] (which embeds the service
//! tier's [`rrc_service::MetricsSnapshot::to_json`] per replica).
//!
//! The fixture is a hand-built snapshot with distinctive values so a
//! renamed/retyped/reordered key anywhere in the document fails the
//! byte comparison. To bless an intentional schema change, delete
//! `tests/golden/router_snapshot.json` and re-run this test once — it
//! rewrites the file and fails, and the next run passes. Commit the
//! regenerated file with the change that motivated it.

use hybrid_sched::{BreakerCounters, BreakerState};
use rrc_router::{ReplicaSnapshot, RouterCounters, RouterSnapshot, SegmentSnapshot};
use rrc_service::{CacheStats, MetricsSnapshot, StageLatency};

fn stage(count: u64, scale: f64) -> StageLatency {
    StageLatency {
        count,
        mean_s: 0.002 * scale,
        p50_s: 0.0015 * scale,
        p95_s: 0.004 * scale,
        p99_s: 0.005 * scale,
    }
}

fn cache_stats(hits: u64, misses: u64, insertions: u64, warm: u64, evictions: u64) -> CacheStats {
    CacheStats {
        hits,
        misses,
        insertions,
        warm_insertions: warm,
        evictions,
    }
}

fn service_metrics(demoted: bool) -> MetricsSnapshot {
    MetricsSnapshot {
        submitted: 40,
        responded: 39,
        shed: 3,
        shed_queue_full: 1,
        shed_infeasible: 2,
        caller_runs: 0,
        batches: 13,
        batched_requests: 39,
        queue_depth_peak: 5,
        fanout_retried_ions: 2,
        device_failures: 0,
        queue: stage(39, 0.5),
        compute: stage(39, 1.0),
        total: stage(39, 1.5),
        per_priority: [stage(30, 1.2), stage(9, 3.0)],
        scheduler_steals: vec![4, 0],
        scheduler_cpu_steals: 1,
        scheduler_weighted_loads: vec![120, 80],
        scheduler_breakers: if demoted {
            vec![BreakerState::Open, BreakerState::Open]
        } else {
            vec![BreakerState::Closed, BreakerState::HalfOpen]
        },
        scheduler_breaker_counters: BreakerCounters {
            opens: 2 + u64::from(demoted),
            half_opens: 1,
            closes: u64::from(!demoted),
        },
        scheduler_cost_residual_milli: 37,
        scheduler_cost_observations: 210,
        cache: cache_stats(25, 15, 13, 2, 0),
        cache_shards: vec![cache_stats(20, 10, 9, 1, 0), cache_stats(5, 5, 4, 1, 0)],
    }
}

fn fixture() -> RouterSnapshot {
    RouterSnapshot {
        shards: 2,
        replicas_per_shard: 2,
        counters: RouterCounters {
            requests: 80,
            responded: 79,
            device_failed: 1,
            reroutes: 3,
            demoted_skips: 12,
            rebalances: 1,
            migrated_ions: 7,
            route_hits: 21,
            route_misses: 58,
            coalesced: 5,
            fanouts: 53,
            affinity_picks: 48,
            affinity_fallbacks: 5,
            warmed_partials: 18,
            handoff_partials: 6,
            hedges: 9,
            hedge_wins: 4,
            hedge_denied: 2,
            breaker_skips: 3,
            latency: stage(79, 2.0),
        },
        segments: vec![
            SegmentSnapshot {
                segment: 0,
                owned_ions: 30,
                capacity_cost: 61_234,
                replicas: vec![
                    ReplicaSnapshot {
                        replica: 0,
                        demoted: false,
                        outstanding: 1,
                        breaker: "closed",
                        breaker_opens: 0,
                        breaker_half_opens: 0,
                        breaker_closes: 0,
                        cache: cache_stats(25, 15, 13, 2, 0),
                        cache_shards: vec![
                            cache_stats(20, 10, 9, 1, 0),
                            cache_stats(5, 5, 4, 1, 0),
                        ],
                        service: service_metrics(false),
                    },
                    ReplicaSnapshot {
                        replica: 1,
                        demoted: true,
                        outstanding: 0,
                        breaker: "open",
                        breaker_opens: 2,
                        breaker_half_opens: 1,
                        breaker_closes: 0,
                        cache: cache_stats(10, 30, 30, 0, 4),
                        cache_shards: vec![cache_stats(10, 30, 30, 0, 4)],
                        service: service_metrics(true),
                    },
                ],
            },
            SegmentSnapshot {
                segment: 1,
                owned_ions: 14,
                capacity_cost: 9_876,
                replicas: vec![ReplicaSnapshot {
                    replica: 0,
                    demoted: false,
                    outstanding: 2,
                    breaker: "half_open",
                    breaker_opens: 1,
                    breaker_half_opens: 1,
                    breaker_closes: 1,
                    cache: cache_stats(0, 0, 0, 0, 0),
                    cache_shards: vec![cache_stats(0, 0, 0, 0, 0)],
                    service: service_metrics(false),
                }],
            },
        ],
    }
}

#[test]
fn router_snapshot_json_matches_the_golden_file() {
    let rendered = fixture().to_json().to_pretty();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("router_snapshot.json");
    if !path.exists() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, format!("{rendered}\n")).expect("write golden");
        panic!(
            "golden file was missing; wrote {} — re-run and commit it",
            path.display()
        );
    }
    let golden = std::fs::read_to_string(&path).expect("read golden");
    assert_eq!(
        rendered.trim_end(),
        golden.trim_end(),
        "RouterSnapshot::to_json drifted from the golden schema; if the \
         change is intentional, delete the golden file, re-run, and \
         commit the regenerated one"
    );
}
