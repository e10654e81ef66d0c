//! Router-level observability: request/re-route/rebalance counters and
//! the per-segment, per-replica rollup of each shard's
//! [`rrc_service::ServiceMetrics`].
//!
//! [`RouterSnapshot::to_json`] is the operator-facing document for the
//! whole tier — a **stable contract** (keys sorted by `jsonlite`'s
//! object ordering) covered by a golden-file test in this crate. Every
//! shard contributes its own [`rrc_service::MetricsSnapshot`] JSON
//! under `segments[].replicas[].service`, so one document answers both
//! "how is the tier doing" and "which replica is hurting".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use desim::LatencyHistogram;
use rrc_service::{CacheStats, MetricsSnapshot, StageLatency};

/// Shared router counters; every field is updated concurrently.
#[derive(Default)]
pub struct RouterMetrics {
    requests: AtomicU64,
    responded: AtomicU64,
    device_failed: AtomicU64,
    reroutes: AtomicU64,
    demoted_skips: AtomicU64,
    rebalances: AtomicU64,
    migrated_ions: AtomicU64,
    route_hits: AtomicU64,
    route_misses: AtomicU64,
    coalesced: AtomicU64,
    fanouts: AtomicU64,
    affinity_picks: AtomicU64,
    affinity_fallbacks: AtomicU64,
    warmed_partials: AtomicU64,
    handoff_partials: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    hedge_denied: AtomicU64,
    breaker_skips: AtomicU64,
    latency: Mutex<LatencyHistogram>,
}

impl RouterMetrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> RouterMetrics {
        RouterMetrics::default()
    }

    /// Record one request accepted for routing.
    pub fn on_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one assembled response and its end-to-end latency.
    pub fn on_responded(&self, total_s: f64) {
        self.responded.fetch_add(1, Ordering::Relaxed);
        self.latency
            .lock()
            .expect("latency histogram poisoned")
            .record(total_s);
    }

    /// Record one request refused after the re-route budget ran out.
    pub fn on_device_failed(&self) {
        self.device_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `parts` shard sub-requests sent to a different replica
    /// after a failed or missing first answer.
    pub fn on_reroute(&self, parts: u64) {
        self.reroutes.fetch_add(parts, Ordering::Relaxed);
    }

    /// Record a replica passed over during selection because every
    /// one of its device breakers was Open.
    pub fn on_demoted_skip(&self) {
        self.demoted_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one rebalance pass that migrated `ions` ion ownerships.
    pub fn on_rebalance(&self, ions: u64) {
        self.rebalances.fetch_add(1, Ordering::Relaxed);
        self.migrated_ions.fetch_add(ions, Ordering::Relaxed);
    }

    /// Record one request answered entirely from the route cache.
    pub fn on_route_hit(&self) {
        self.route_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one route-cache lookup that missed.
    pub fn on_route_miss(&self) {
        self.route_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request answered by following another request's
    /// in-flight fan-out (single-flight coalescing).
    pub fn on_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one scatter/gather fan-out actually performed.
    pub fn on_fanout(&self) {
        self.fanouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one replica selection that took the rendezvous-preferred
    /// replica.
    pub fn on_affinity_pick(&self) {
        self.affinity_picks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one replica selection where affinity was enabled but the
    /// preferred replica was tried, demoted, or saturated, so the
    /// baseline untried→non-demoted→least-outstanding order decided.
    pub fn on_affinity_fallback(&self) {
        self.affinity_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` partials actually inserted into sibling replicas by
    /// hot-state replication.
    pub fn on_warmed(&self, n: u64) {
        self.warmed_partials.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` unique donor cache entries shipped to the new owner
    /// by a migration cache handoff.
    pub fn on_handoff(&self, n: u64) {
        self.handoff_partials.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one hedge actually sent (a straggling part speculatively
    /// re-scattered to a sibling replica).
    pub fn on_hedge(&self) {
        self.hedges.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one hedge that resolved its part before the original
    /// (the speculation paid off).
    pub fn on_hedge_win(&self) {
        self.hedge_wins.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one hedge the token bucket refused (duplicate-load
    /// budget exhausted).
    pub fn on_hedge_denied(&self) {
        self.hedge_denied.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a replica passed over during selection because its
    /// circuit breaker refused traffic.
    pub fn on_breaker_skip(&self) {
        self.breaker_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the counters and latency summary out (segments are filled
    /// in by the router, which owns the replica handles).
    #[must_use]
    pub fn snapshot(&self) -> RouterCounters {
        let latency = {
            let h = self.latency.lock().expect("latency histogram poisoned");
            StageLatency {
                count: h.count(),
                mean_s: h.mean_s(),
                p50_s: h.quantile_s(0.50),
                p95_s: h.quantile_s(0.95),
                p99_s: h.quantile_s(0.99),
            }
        };
        RouterCounters {
            requests: self.requests.load(Ordering::Relaxed),
            responded: self.responded.load(Ordering::Relaxed),
            device_failed: self.device_failed.load(Ordering::Relaxed),
            reroutes: self.reroutes.load(Ordering::Relaxed),
            demoted_skips: self.demoted_skips.load(Ordering::Relaxed),
            rebalances: self.rebalances.load(Ordering::Relaxed),
            migrated_ions: self.migrated_ions.load(Ordering::Relaxed),
            route_hits: self.route_hits.load(Ordering::Relaxed),
            route_misses: self.route_misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            fanouts: self.fanouts.load(Ordering::Relaxed),
            affinity_picks: self.affinity_picks.load(Ordering::Relaxed),
            affinity_fallbacks: self.affinity_fallbacks.load(Ordering::Relaxed),
            warmed_partials: self.warmed_partials.load(Ordering::Relaxed),
            handoff_partials: self.handoff_partials.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            hedge_denied: self.hedge_denied.load(Ordering::Relaxed),
            breaker_skips: self.breaker_skips.load(Ordering::Relaxed),
            latency,
        }
    }
}

/// Point-in-time copy of the router's own counters.
#[derive(Debug, Clone)]
pub struct RouterCounters {
    /// Requests accepted for routing (unknown-grid rejects excluded).
    pub requests: u64,
    /// Responses assembled and returned.
    pub responded: u64,
    /// Requests refused with `DeviceFailed` after re-route retries.
    pub device_failed: u64,
    /// Shard sub-requests re-sent to an alternate replica.
    pub reroutes: u64,
    /// Replica selections that skipped a fault-demoted replica.
    pub demoted_skips: u64,
    /// Rebalance passes that migrated at least one ion.
    pub rebalances: u64,
    /// Total ion ownerships migrated across all rebalances.
    pub migrated_ions: u64,
    /// Requests answered entirely from the route-level assembled-
    /// spectrum cache (zero scatter/gather).
    pub route_hits: u64,
    /// Route-cache lookups that missed.
    pub route_misses: u64,
    /// Requests answered by following another request's in-flight
    /// fan-out (single-flight coalescing).
    pub coalesced: u64,
    /// Scatter/gather fan-outs actually performed — with the route
    /// cache on, `requests = route_hits + coalesced + fanouts` for
    /// successful traffic.
    pub fanouts: u64,
    /// Replica selections that took the rendezvous-preferred replica.
    pub affinity_picks: u64,
    /// Replica selections where the preferred replica was unavailable
    /// (tried/demoted/saturated) and the baseline order decided.
    pub affinity_fallbacks: u64,
    /// Partials inserted into sibling replicas by hot-state
    /// replication.
    pub warmed_partials: u64,
    /// Unique donor cache entries shipped by migration cache handoffs.
    pub handoff_partials: u64,
    /// Straggling parts speculatively re-scattered to a sibling.
    pub hedges: u64,
    /// Hedges whose answer beat the original part's.
    pub hedge_wins: u64,
    /// Hedge attempts refused by the token bucket.
    pub hedge_denied: u64,
    /// Replica selections that skipped a breaker-blocked replica.
    pub breaker_skips: u64,
    /// End-to-end router latency quantiles/mean, seconds.
    pub latency: StageLatency,
}

/// One replica's view inside a [`SegmentSnapshot`].
#[derive(Debug, Clone)]
pub struct ReplicaSnapshot {
    /// Replica index within its segment.
    pub replica: usize,
    /// Whether this replica is demoted (every device breaker Open; a
    /// CPU-only replica is never demoted).
    pub demoted: bool,
    /// Shard sub-requests in flight on this replica right now.
    pub outstanding: u64,
    /// The replica's circuit-breaker state label
    /// (`"closed"`/`"open"`/`"half_open"`).
    pub breaker: &'static str,
    /// Lifetime Closed/HalfOpen → Open breaker transitions.
    pub breaker_opens: u64,
    /// Lifetime Open → HalfOpen transitions (probes granted).
    pub breaker_half_opens: u64,
    /// Lifetime HalfOpen → Closed transitions (probes succeeded).
    pub breaker_closes: u64,
    /// This replica's per-ion cache counters, totalled across cache
    /// shards.
    pub cache: CacheStats,
    /// The same counters per cache shard, in shard order.
    pub cache_shards: Vec<CacheStats>,
    /// This replica's service metrics with its engine's scheduler
    /// view (device breaker states live under `scheduler.breakers`).
    pub service: MetricsSnapshot,
}

/// One ring segment's view inside a [`RouterSnapshot`].
#[derive(Debug, Clone)]
pub struct SegmentSnapshot {
    /// Segment id (ring position).
    pub segment: usize,
    /// Ions the routing table currently assigns to this segment.
    pub owned_ions: u64,
    /// Sum of the static per-ion cost estimates over the owned ions —
    /// the capacity-accounting figure the rebalancer levels.
    pub capacity_cost: u64,
    /// Every replica serving this segment.
    pub replicas: Vec<ReplicaSnapshot>,
}

/// The router-level rollup: tier shape, router counters, and all
/// per-segment/per-replica detail.
#[derive(Debug, Clone)]
pub struct RouterSnapshot {
    /// Ring segments (shards).
    pub shards: usize,
    /// Replicas per segment.
    pub replicas_per_shard: usize,
    /// The router's own counters and latency.
    pub counters: RouterCounters,
    /// Per-segment detail, ascending segment id.
    pub segments: Vec<SegmentSnapshot>,
}

impl RouterSnapshot {
    /// The operator-facing JSON rendering of the whole tier — a
    /// **stable contract**: keys are sorted by `jsonlite`'s object
    /// ordering, segments and replicas appear in ascending id order,
    /// and each replica embeds its service's own stable
    /// [`MetricsSnapshot::to_json`] document. Changing a key or shape
    /// here (or in the service document) must update
    /// `tests/golden/router_snapshot.json`.
    #[must_use]
    pub fn to_json(&self) -> jsonlite::Value {
        let segments: Vec<jsonlite::Value> = self
            .segments
            .iter()
            .map(|seg| {
                let replicas: Vec<jsonlite::Value> = seg
                    .replicas
                    .iter()
                    .map(|r| {
                        jsonlite::ObjectBuilder::new()
                            .field("replica", r.replica)
                            .field("demoted", r.demoted)
                            .field("outstanding", r.outstanding)
                            .field("breaker", r.breaker)
                            .field("breaker_opens", r.breaker_opens)
                            .field("breaker_half_opens", r.breaker_half_opens)
                            .field("breaker_closes", r.breaker_closes)
                            .field("cache", r.cache.to_json())
                            .field(
                                "cache_shards",
                                r.cache_shards
                                    .iter()
                                    .map(CacheStats::to_json)
                                    .collect::<Vec<_>>(),
                            )
                            .field("service", r.service.to_json())
                            .build()
                    })
                    .collect();
                jsonlite::ObjectBuilder::new()
                    .field("segment", seg.segment)
                    .field("owned_ions", seg.owned_ions)
                    .field("capacity_cost", seg.capacity_cost)
                    .field("replicas", replicas)
                    .build()
            })
            .collect();
        jsonlite::ObjectBuilder::new()
            .field("shards", self.shards)
            .field("replicas_per_shard", self.replicas_per_shard)
            .field("requests", self.counters.requests)
            .field("responded", self.counters.responded)
            .field("device_failed", self.counters.device_failed)
            .field("reroutes", self.counters.reroutes)
            .field("demoted_skips", self.counters.demoted_skips)
            .field("rebalances", self.counters.rebalances)
            .field("migrated_ions", self.counters.migrated_ions)
            .field("route_hits", self.counters.route_hits)
            .field("route_misses", self.counters.route_misses)
            .field("coalesced", self.counters.coalesced)
            .field("fanouts", self.counters.fanouts)
            .field("affinity_picks", self.counters.affinity_picks)
            .field("affinity_fallbacks", self.counters.affinity_fallbacks)
            .field("warmed_partials", self.counters.warmed_partials)
            .field("handoff_partials", self.counters.handoff_partials)
            .field("hedges", self.counters.hedges)
            .field("hedge_wins", self.counters.hedge_wins)
            .field("hedge_denied", self.counters.hedge_denied)
            .field("breaker_skips", self.counters.breaker_skips)
            .field("latency", self.counters.latency.to_json())
            .field("segments", segments)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = RouterMetrics::new();
        m.on_request();
        m.on_request();
        m.on_responded(1e-3);
        m.on_reroute(3);
        m.on_demoted_skip();
        m.on_device_failed();
        m.on_rebalance(12);
        m.on_route_hit();
        m.on_route_miss();
        m.on_route_miss();
        m.on_coalesced();
        m.on_fanout();
        m.on_affinity_pick();
        m.on_affinity_pick();
        m.on_affinity_fallback();
        m.on_warmed(5);
        m.on_handoff(7);
        m.on_hedge();
        m.on_hedge();
        m.on_hedge_win();
        m.on_hedge_denied();
        m.on_breaker_skip();
        let s = m.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.responded, 1);
        assert_eq!(s.reroutes, 3);
        assert_eq!(s.demoted_skips, 1);
        assert_eq!(s.device_failed, 1);
        assert_eq!((s.rebalances, s.migrated_ions), (1, 12));
        assert_eq!((s.route_hits, s.route_misses, s.coalesced), (1, 2, 1));
        assert_eq!(s.fanouts, 1);
        assert_eq!((s.affinity_picks, s.affinity_fallbacks), (2, 1));
        assert_eq!((s.warmed_partials, s.handoff_partials), (5, 7));
        assert_eq!((s.hedges, s.hedge_wins, s.hedge_denied), (2, 1, 1));
        assert_eq!(s.breaker_skips, 1);
        assert_eq!(s.latency.count, 1);
    }
}
