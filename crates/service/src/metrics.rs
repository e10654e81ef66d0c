//! Service-level observability: counters, queue-depth watermark, and
//! per-stage latency histograms.
//!
//! Latency is recorded into [`desim::LatencyHistogram`]s (log-bucketed,
//! nearest-rank quantiles) at three stages of the request lifecycle:
//!
//! * **queue** — submit accepted → batcher picked the request up;
//! * **compute** — batcher pickup → response ready (includes the
//!   engine fan-out and cache fills of the request's batch);
//! * **total** — submit accepted → response delivered (what a caller
//!   observes on [`crate::Ticket::wait`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use desim::{LatencyHistogram, Priority};

/// Shared counters + histograms; every field is updated concurrently.
#[derive(Default)]
pub struct ServiceMetrics {
    submitted: AtomicU64,
    responded: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_infeasible: AtomicU64,
    caller_runs: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    queue_depth_peak: AtomicU64,
    fanout_retried_ions: AtomicU64,
    device_failures: AtomicU64,
    queue_latency: Mutex<LatencyHistogram>,
    compute_latency: Mutex<LatencyHistogram>,
    total_latency: Mutex<LatencyHistogram>,
    /// End-to-end latency split by request class, indexed by
    /// [`Priority::index`] — the per-tier SLO view (interactive p95
    /// must hold while bulk absorbs overload).
    priority_latency: [Mutex<LatencyHistogram>; 2],
}

/// Point-in-time copy of the metrics for reporting.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Responses delivered by the batcher.
    pub responded: u64,
    /// Requests refused at admission for any reason (the sum of the
    /// two split counters below).
    pub shed: u64,
    /// Requests refused because their class queue was at capacity
    /// under the shed policy ([`crate::ServiceError::Overloaded`] —
    /// retrying later can succeed).
    pub shed_queue_full: u64,
    /// Requests refused because the remaining deadline budget could
    /// not cover the cost model's estimate
    /// ([`crate::ServiceError::DeadlineInfeasible`] — shed *before*
    /// any fan-out, so an impossible SLO wastes zero compute).
    pub shed_infeasible: u64,
    /// Requests answered inline by the caller-runs admission policy.
    pub caller_runs: u64,
    /// Batches the batcher processed.
    pub batches: u64,
    /// Requests across all batches (mean batch size =
    /// `batched_requests / batches`).
    pub batched_requests: u64,
    /// Highest request-queue occupancy observed at submit time.
    pub queue_depth_peak: u64,
    /// Ion partials the engine left unanswered (device faults with CPU
    /// fallback disabled) that the batcher re-fanned-out.
    pub fanout_retried_ions: u64,
    /// Requests refused with [`crate::ServiceError::DeviceFailed`]
    /// after the fan-out retry budget was exhausted.
    pub device_failures: u64,
    /// Queue-stage latency quantiles/mean, seconds.
    pub queue: StageLatency,
    /// Compute-stage latency quantiles/mean, seconds.
    pub compute: StageLatency,
    /// End-to-end latency quantiles/mean, seconds.
    pub total: StageLatency,
    /// End-to-end latency split by request class, indexed by
    /// [`Priority::index`] (`[interactive, bulk]`).
    pub per_priority: [StageLatency; 2],
    /// Per-device staged tasks stolen from another device's lane
    /// (filled from the engine's scheduler by
    /// [`crate::SpectralService::metrics`]; empty for a bare
    /// [`ServiceMetrics::snapshot`]).
    pub scheduler_steals: Vec<u64>,
    /// Staged device tasks pulled back to worker CPUs by the fallback
    /// swap.
    pub scheduler_cpu_steals: u64,
    /// Per-device outstanding weighted (cost-unit) backlog at snapshot
    /// time.
    pub scheduler_weighted_loads: Vec<u64>,
    /// Per-device breaker state at snapshot time.
    pub scheduler_breakers: Vec<hybrid_sched::BreakerState>,
    /// Device breaker transitions, summed across devices.
    pub scheduler_breaker_counters: hybrid_sched::BreakerCounters,
    /// Mean absolute measured-vs-static cost residual across the
    /// online cost model's tracked classes, in milli cost units
    /// (`0` until the first measured settle).
    pub scheduler_cost_residual_milli: u64,
    /// Measured-cost samples the online cost model has folded in.
    pub scheduler_cost_observations: u64,
    /// Ion-partial cache effectiveness, totalled across shards (filled
    /// by [`MetricsSnapshot::with_cache`]; all-zero for a bare
    /// [`ServiceMetrics::snapshot`]).
    pub cache: crate::cache::CacheStats,
    /// The same counters, per cache shard in shard order — shows
    /// *which* shard is thrashing, not just that one is.
    pub cache_shards: Vec<crate::cache::CacheStats>,
}

impl MetricsSnapshot {
    /// Fill the cache-view fields from the live ion-partial cache.
    #[must_use]
    pub fn with_cache(mut self, cache: &crate::cache::ShardedLruCache) -> MetricsSnapshot {
        self.cache_shards = cache.shard_stats();
        self.cache = self
            .cache_shards
            .iter()
            .fold(crate::cache::CacheStats::default(), |acc, s| acc.merged(s));
        self
    }

    /// Fill the scheduler-view fields from a live scheduler snapshot.
    #[must_use]
    pub fn with_scheduler(mut self, sched: &hybrid_sched::SchedulerSnapshot) -> MetricsSnapshot {
        self.scheduler_steals = sched.steals.clone();
        self.scheduler_cpu_steals = sched.cpu_steals;
        self.scheduler_weighted_loads = sched.weighted_loads.clone();
        self.scheduler_breakers = sched.breakers.clone();
        self.scheduler_breaker_counters = sched.breaker_counters;
        self.scheduler_cost_residual_milli = sched.cost_residual_milli;
        self.scheduler_cost_observations = sched.cost_observations;
        self
    }

    /// The operator-facing JSON rendering of this snapshot — a
    /// **stable contract** (keys sorted by `jsonlite`'s object
    /// ordering, breaker states lowercased). The router rolls these
    /// per-shard documents into its own snapshot; changing a key or
    /// shape here must update the golden file in `rrc-router`.
    #[must_use]
    pub fn to_json(&self) -> jsonlite::Value {
        jsonlite::ObjectBuilder::new()
            .field("submitted", self.submitted)
            .field("responded", self.responded)
            .field("shed", self.shed)
            .field("shed_queue_full", self.shed_queue_full)
            .field("shed_infeasible", self.shed_infeasible)
            .field("caller_runs", self.caller_runs)
            .field("batches", self.batches)
            .field("batched_requests", self.batched_requests)
            .field("queue_depth_peak", self.queue_depth_peak)
            .field("fanout_retried_ions", self.fanout_retried_ions)
            .field("device_failures", self.device_failures)
            .field("cache", self.cache.to_json())
            .field(
                "cache_shards",
                self.cache_shards
                    .iter()
                    .map(crate::cache::CacheStats::to_json)
                    .collect::<Vec<_>>(),
            )
            .field(
                "latency",
                jsonlite::ObjectBuilder::new()
                    .field("queue", self.queue.to_json())
                    .field("compute", self.compute.to_json())
                    .field("total", self.total.to_json())
                    .field(
                        "interactive",
                        self.per_priority[Priority::Interactive.index()].to_json(),
                    )
                    .field("bulk", self.per_priority[Priority::Bulk.index()].to_json())
                    .build(),
            )
            .field(
                "scheduler",
                jsonlite::ObjectBuilder::new()
                    .field("steals", self.scheduler_steals.clone())
                    .field("cpu_steals", self.scheduler_cpu_steals)
                    .field("weighted_loads", self.scheduler_weighted_loads.clone())
                    .field(
                        "breakers",
                        self.scheduler_breakers
                            .iter()
                            .map(|b| b.label())
                            .collect::<Vec<_>>(),
                    )
                    .field("breaker_opens", self.scheduler_breaker_counters.opens)
                    .field(
                        "breaker_half_opens",
                        self.scheduler_breaker_counters.half_opens,
                    )
                    .field("breaker_closes", self.scheduler_breaker_counters.closes)
                    .field("cost_observations", self.scheduler_cost_observations)
                    .field("cost_residual_milli", self.scheduler_cost_residual_milli)
                    .build(),
            )
            .build()
    }
}

/// p50/p95/p99 + mean of one lifecycle stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageLatency {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency.
    pub mean_s: f64,
    /// Median.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
}

impl StageLatency {
    /// Stable JSON rendering of one stage (see
    /// [`MetricsSnapshot::to_json`]).
    #[must_use]
    pub fn to_json(&self) -> jsonlite::Value {
        jsonlite::ObjectBuilder::new()
            .field("count", self.count)
            .field("mean_s", self.mean_s)
            .field("p50_s", self.p50_s)
            .field("p95_s", self.p95_s)
            .field("p99_s", self.p99_s)
            .build()
    }
}

fn stage(h: &Mutex<LatencyHistogram>) -> StageLatency {
    let h = h.lock().expect("latency histogram poisoned");
    StageLatency {
        count: h.count(),
        mean_s: h.mean_s(),
        p50_s: h.quantile_s(0.50),
        p95_s: h.quantile_s(0.95),
        p99_s: h.quantile_s(0.99),
    }
}

impl ServiceMetrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> ServiceMetrics {
        ServiceMetrics::default()
    }

    /// Record one accepted request and the queue occupancy it saw.
    pub fn on_submitted(&self, queue_len_after: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth_peak
            .fetch_max(queue_len_after as u64, Ordering::Relaxed);
    }

    /// Record one request refused because its class queue was full
    /// under the shed policy.
    pub fn on_shed_queue_full(&self) {
        self.shed_queue_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request refused at SLO admission (remaining deadline
    /// budget below the cost estimate).
    pub fn on_shed_infeasible(&self) {
        self.shed_infeasible.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one caller-runs inline answer and its end-to-end time.
    pub fn on_caller_run(&self, priority: Priority, total_s: f64) {
        self.caller_runs.fetch_add(1, Ordering::Relaxed);
        self.total_latency
            .lock()
            .expect("latency histogram poisoned")
            .record(total_s);
        self.priority_latency[priority.index()]
            .lock()
            .expect("latency histogram poisoned")
            .record(total_s);
    }

    /// Record `ions` unanswered ion partials being re-fanned-out.
    pub fn on_fanout_retry(&self, ions: u64) {
        self.fanout_retried_ions.fetch_add(ions, Ordering::Relaxed);
    }

    /// Record one request refused with [`crate::ServiceError::DeviceFailed`].
    pub fn on_device_failure(&self) {
        self.device_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one batch of `requests` coalesced requests.
    pub fn on_batch(&self, requests: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(requests as u64, Ordering::Relaxed);
    }

    /// Record one request's queue-stage latency at batcher pickup.
    pub fn on_picked_up(&self, queue_s: f64) {
        self.queue_latency
            .lock()
            .expect("latency histogram poisoned")
            .record(queue_s);
    }

    /// Record one delivered response with its class, compute, and
    /// total times.
    pub fn on_responded(&self, priority: Priority, compute_s: f64, total_s: f64) {
        self.responded.fetch_add(1, Ordering::Relaxed);
        self.compute_latency
            .lock()
            .expect("latency histogram poisoned")
            .record(compute_s);
        self.total_latency
            .lock()
            .expect("latency histogram poisoned")
            .record(total_s);
        self.priority_latency[priority.index()]
            .lock()
            .expect("latency histogram poisoned")
            .record(total_s);
    }

    /// Copy every counter and histogram summary out.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let shed_queue_full = self.shed_queue_full.load(Ordering::Relaxed);
        let shed_infeasible = self.shed_infeasible.load(Ordering::Relaxed);
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            responded: self.responded.load(Ordering::Relaxed),
            shed: shed_queue_full + shed_infeasible,
            shed_queue_full,
            shed_infeasible,
            caller_runs: self.caller_runs.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            fanout_retried_ions: self.fanout_retried_ions.load(Ordering::Relaxed),
            device_failures: self.device_failures.load(Ordering::Relaxed),
            queue: stage(&self.queue_latency),
            compute: stage(&self.compute_latency),
            total: stage(&self.total_latency),
            per_priority: [
                stage(&self.priority_latency[0]),
                stage(&self.priority_latency[1]),
            ],
            scheduler_steals: Vec::new(),
            scheduler_cpu_steals: 0,
            scheduler_weighted_loads: Vec::new(),
            scheduler_breakers: Vec::new(),
            scheduler_breaker_counters: hybrid_sched::BreakerCounters::default(),
            scheduler_cost_residual_milli: 0,
            scheduler_cost_observations: 0,
            cache: crate::cache::CacheStats::default(),
            cache_shards: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_counters_accumulate() {
        let m = ServiceMetrics::new();
        m.on_submitted(3);
        m.on_submitted(7);
        m.on_shed_queue_full();
        m.on_shed_infeasible();
        m.on_shed_infeasible();
        m.on_batch(2);
        m.on_picked_up(1e-4);
        m.on_picked_up(2e-4);
        m.on_responded(Priority::Interactive, 5e-4, 7e-4);
        m.on_responded(Priority::Bulk, 5e-4, 9e-4);
        m.on_caller_run(Priority::Interactive, 3e-3);
        let s = m.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.shed, 3, "shed is the sum of the split counters");
        assert_eq!(s.shed_queue_full, 1);
        assert_eq!(s.shed_infeasible, 2);
        assert_eq!(
            (
                s.per_priority[Priority::Interactive.index()].count,
                s.per_priority[Priority::Bulk.index()].count
            ),
            (2, 1),
            "per-class histograms split what total aggregates"
        );
        assert_eq!(s.caller_runs, 1);
        assert_eq!(s.responded, 2);
        assert_eq!(
            s.per_priority.iter().map(|p| p.count).sum::<u64>(),
            s.total.count,
            "every total-latency sample lands in exactly one class"
        );
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_requests, 2);
        assert_eq!(s.queue_depth_peak, 7);
        assert_eq!(s.queue.count, 2);
        assert_eq!(s.compute.count, 2);
        assert_eq!(s.total.count, 3, "caller-runs records total latency too");
        // Log-bucketed histograms answer within ~9% of the true value.
        assert!((s.compute.p50_s - 5e-4).abs() / 5e-4 < 0.1);
        assert!(s.total.p99_s >= s.total.p50_s);
    }
}
