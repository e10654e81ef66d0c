//! One shard replica: a private [`ServeCore`] (engine, simulated
//! devices, scheduler, fault ladder, per-ion cache) and a worker
//! thread popping [`ShardRequest`] envelopes off its
//! [`mpi_sim::collective`] lane.
//!
//! A replica answers **per-ion partials**, never pre-summed spectra:
//! floating-point addition is non-associative, so the fold must happen
//! in exactly one place — the router, via [`rrc_service::assemble`] in
//! ascending ion order — for the sharded answer to be bitwise
//! identical to the single-engine one. The worker serves through the
//! same [`ServeCore::serve`] as the service batcher and reports
//! whatever is still missing as `failed` so the router can re-route
//! those ions to a sibling replica.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use desim::Priority;
use hybrid_spectral::engine::{Engine, EngineReport};
use mpi_sim::Lane;
use rrc_service::{CacheKey, ServeCore, StateKey};
use rrc_spectral::GridPoint;

/// One envelope on a replica's lane: either a query for per-ion
/// partials or a cache-warming push. Both ride the same
/// [`mpi_sim::collective`] lanes and the same worker loop, so warming
/// needs no second fabric and is naturally serialized with queries on
/// each replica.
#[derive(Debug, Clone)]
pub enum ShardRequest {
    /// Compute/fetch per-ion partials for one quantized state.
    Query {
        /// Quantized plasma state + grid — the replica's cache key
        /// space.
        key: StateKey,
        /// The representative plasma point of `key` (computed once by
        /// the router so every shard evaluates the identical state).
        point: GridPoint,
        /// Ions this shard owns for the request, ascending.
        ions: Vec<usize>,
        /// The originating request's priority class, carried through
        /// for per-class latency accounting on the replica.
        priority: Priority,
        /// Absolute virtual-clock deadline of the originating request
        /// (`f64::INFINITY` when none): [`ServeCore::serve`] puts it on
        /// every engine job, so EDF staging orders urgent work first
        /// even inside a shard.
        deadline: f64,
    },
    /// Push already-computed partials into this replica's cache
    /// (hot-state replication to siblings, migration cache handoff).
    /// The values are the donor's cache entries themselves; under the
    /// deterministic kernel they are the exact bits this replica would
    /// have computed.
    Warm {
        /// `(key, partial)` pairs to insert if absent.
        entries: Vec<(CacheKey, Arc<Vec<f64>>)>,
    },
}

/// A shard's answer: per-ion partial spectra plus accounting.
#[derive(Debug, Clone)]
pub struct ShardResponse {
    /// `(ion, partial)` pairs for every ion that was answered. The
    /// `Arc` is the cache entry itself, so repeated hits return the
    /// identical allocation (bitwise-stable responses).
    pub partials: Vec<(usize, Arc<Vec<f64>>)>,
    /// Ions computed by the engine this time.
    pub computed: u64,
    /// Ions answered from this replica's cache.
    pub from_cache: u64,
    /// Ions the engine never answered (device faults with the retry
    /// budget exhausted) — the router re-routes these.
    pub failed: Vec<usize>,
    /// Warm entries actually inserted (absent-only) by a
    /// [`ShardRequest::Warm`]; always 0 for queries.
    pub warmed: u64,
}

/// Serve one envelope: queries through the core's lookup/fill path,
/// warm pushes straight into its cache.
fn answer(core: &ServeCore, req: &ShardRequest) -> ShardResponse {
    match req {
        ShardRequest::Query {
            key,
            point,
            ions,
            priority,
            deadline,
        } => {
            let started = Instant::now();
            let served = core.serve(*key, point, ions, *deadline);
            let metrics = core.recorder();
            if !served.failed.is_empty() {
                metrics.on_device_failure();
            }
            let elapsed = started.elapsed().as_secs_f64();
            metrics.on_responded(*priority, elapsed, elapsed);
            ShardResponse {
                computed: (served.partials.len() - served.hits) as u64,
                from_cache: served.hits as u64,
                partials: served.partials,
                failed: served.failed,
                warmed: 0,
            }
        }
        ShardRequest::Warm { entries } => ShardResponse {
            partials: Vec::new(),
            computed: 0,
            from_cache: 0,
            failed: Vec::new(),
            warmed: core.warm(entries),
        },
    }
}

/// A running shard replica and its worker thread. Stop by closing the
/// lane (the router's scatter/gather `close()` does this for every
/// replica at once) and calling `ShardReplica::stop`.
pub struct ShardReplica {
    segment: usize,
    replica: usize,
    core: Arc<ServeCore>,
    outstanding: Arc<AtomicU64>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl ShardReplica {
    /// Bring the replica up on `core`: its worker thread serves `lane`.
    pub(crate) fn start(
        segment: usize,
        replica: usize,
        core: ServeCore,
        lane: Lane<ShardRequest, ShardResponse>,
    ) -> ShardReplica {
        let core = Arc::new(core);
        let outstanding = Arc::new(AtomicU64::new(0));
        let worker = {
            let core = Arc::clone(&core);
            let outstanding = Arc::clone(&outstanding);
            std::thread::Builder::new()
                .name(format!("shard-{segment}.{replica}"))
                .spawn(move || {
                    while let Some(envelope) = lane.pop() {
                        let (req, promise) = envelope.split();
                        promise.fulfill(answer(&core, &req));
                        outstanding.fetch_sub(1, Ordering::AcqRel);
                    }
                })
                .expect("spawn shard worker")
        };
        ShardReplica {
            segment,
            replica,
            core,
            outstanding,
            worker: Some(worker),
        }
    }

    /// Segment id this replica serves.
    #[must_use]
    pub fn segment(&self) -> usize {
        self.segment
    }

    /// Replica index within its segment.
    #[must_use]
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// Sub-requests scattered to this replica and not yet answered.
    /// The router increments before scatter; the worker decrements
    /// after fulfilling, so a zero reading after a routing-table swap
    /// means the replica has drained its in-flight work.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Acquire)
    }

    pub(crate) fn add_outstanding(&self) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
    }

    /// Router-side decrement for a part that resolved as missing
    /// (dropped at delivery, closed lane, dead worker): the worker
    /// never saw the envelope, so it cannot balance the increment
    /// itself — without this the victim replica's in-flight count
    /// would drift upward forever.
    pub(crate) fn sub_outstanding(&self) {
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
    }

    /// Whether this replica is demoted: every simulated device's
    /// breaker is Open. A CPU-only replica (no devices) is never
    /// demoted — its CPU path answers.
    #[must_use]
    pub fn demoted(&self) -> bool {
        self.core.engine().all_devices_open()
    }

    /// This replica's engine (fault injection, breaker, scheduler
    /// introspection for tests and benches).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        self.core.engine()
    }

    /// This replica's cache counters, totalled across cache shards.
    #[must_use]
    pub fn cache_stats(&self) -> rrc_service::CacheStats {
        self.core.cache().stats()
    }

    /// This replica's cache counters per cache shard, in shard order.
    #[must_use]
    pub fn cache_shard_stats(&self) -> Vec<rrc_service::CacheStats> {
        self.core.cache().shard_stats()
    }

    /// Every cached entry for the given ions, in deterministic
    /// `(ion_index, state)` order — the donor side of migration cache
    /// handoff. Stats- and recency-neutral.
    #[must_use]
    pub fn export_ions(&self, ions: &[usize]) -> Vec<(CacheKey, Arc<Vec<f64>>)> {
        self.core.cache().export_ions(ions)
    }

    /// This replica's service metrics joined with its engine's live
    /// scheduler view and its cache counters.
    #[must_use]
    pub fn metrics(&self) -> rrc_service::MetricsSnapshot {
        self.core.metrics()
    }

    /// Join the worker (the lane must already be closed, or the worker
    /// would never exit) and drain the engine.
    ///
    /// # Panics
    /// Panics if the worker thread panicked.
    #[must_use]
    pub(crate) fn stop(mut self) -> EngineReport {
        if let Some(worker) = self.worker.take() {
            worker.join().expect("shard worker panicked");
        }
        let core = Arc::try_unwrap(self.core)
            .ok()
            .expect("worker joined; no other holders of the serving core");
        core.shutdown().engine
    }
}
