//! One shard replica: a private [`Engine`] (rank pool, simulated
//! devices, scheduler, fault ladder), a private per-ion cache, and a
//! worker thread popping [`ShardRequest`] envelopes off its
//! [`mpi_sim::collective`] lane.
//!
//! A replica answers **per-ion partials**, never pre-summed spectra:
//! floating-point addition is non-associative, so the fold must happen
//! in exactly one place — the router, via [`rrc_service::assemble`] in
//! ascending ion order — for the sharded answer to be bitwise
//! identical to the single-engine one. The worker fills its cache
//! misses with the service batcher's own [`rrc_service::fill_misses`]
//! and reports whatever is still missing as `failed` so the router can
//! re-route those ions to a sibling replica.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use desim::Priority;
use hybrid_spectral::engine::{Engine, EngineConfig, EngineReport, IonJob};
use mpi_sim::Lane;
use rrc_service::{fill_misses, CacheKey, ServiceMetrics, ShardedLruCache, StateKey};
use rrc_spectral::{EnergyGrid, GridPoint};

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
        /// (`f64::INFINITY` when none): propagated into every
        /// [`IonJob`] so the engine's EDF staging orders urgent work
        /// first even inside a shard.
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

/// State shared between a replica's worker thread and its handle.
pub(crate) struct ReplicaCtx {
    engine: Engine,
    cache: ShardedLruCache,
    grids: Vec<EnergyGrid>,
    bin_tables: Vec<Arc<Vec<(f64, f64)>>>,
    metrics: ServiceMetrics,
    outstanding: AtomicU64,
    fanout_retries: u32,
}

impl ReplicaCtx {
    /// Serve one envelope: queries go through the batcher-mirroring
    /// compute path, warm pushes go straight into the cache.
    fn handle(&self, req: &ShardRequest) -> ShardResponse {
        match req {
            ShardRequest::Query {
                key,
                point,
                ions,
                priority,
                deadline,
            } => self.handle_query(*key, point, ions, *priority, *deadline),
            ShardRequest::Warm { entries } => self.handle_warm(entries),
        }
    }

    /// Insert pushed partials if absent. An entry the replica already
    /// holds is skipped — the local bits are the same bits under the
    /// deterministic kernel, and warming must never steal recency from
    /// entries real traffic is using.
    fn handle_warm(&self, entries: &[(CacheKey, Arc<Vec<f64>>)]) -> ShardResponse {
        let mut warmed = 0u64;
        for (key, value) in entries {
            if self.cache.warm_insert(*key, Arc::clone(value)) {
                warmed += 1;
            }
        }
        if warmed > 0 {
            // Attribute warmed ions in the engine's own report so
            // exactly-once audits (computed + warmed vs. total) can be
            // settled per engine, not just per router.
            self.engine.note_warm_insert(warmed);
        }
        ShardResponse {
            partials: Vec::new(),
            computed: 0,
            from_cache: 0,
            failed: Vec::new(),
            warmed,
        }
    }

    /// Serve one query: cache lookups, then the service batcher's miss
    /// path, so a shard's partial bits match the single-engine
    /// service's exactly (deterministic kernel assumed).
    fn handle_query(
        &self,
        key: StateKey,
        point: &GridPoint,
        ions: &[usize],
        priority: Priority,
        deadline: f64,
    ) -> ShardResponse {
        let started = Instant::now();
        let db = &self.engine.config().db;
        let grid = &self.grids[key.grid_id];
        let bins = &self.bin_tables[key.grid_id];

        let mut partials: Vec<(usize, Arc<Vec<f64>>)> = Vec::with_capacity(ions.len());
        let mut pending: Vec<usize> = Vec::new();
        for &ion in ions {
            let cache_key = CacheKey {
                ion_index: ion,
                state: key,
            };
            match self.cache.get(&cache_key) {
                Some(hit) => partials.push((ion, hit)),
                None => pending.push(ion),
            }
        }
        let from_cache = partials.len() as u64;

        // An engine closing underneath us (shutdown race) answers
        // short: whatever is still pending becomes `failed`.
        let (answered, _closed) = fill_misses(
            &self.engine,
            &self.cache,
            &self.metrics,
            self.fanout_retries,
            key,
            &mut pending,
            |ion, reply| IonJob {
                ion_index: ion,
                level_range: 0..db.levels_by_index(ion).len(),
                point: *point,
                grid: grid.clone(),
                bins: Arc::clone(bins),
                tag: ion as u64,
                deadline,
                reply,
            },
        );
        let computed = answered.len() as u64;
        partials.extend(answered);

        if !pending.is_empty() {
            self.metrics.on_device_failure();
        }
        let elapsed = started.elapsed().as_secs_f64();
        self.metrics.on_responded(priority, elapsed, elapsed);
        ShardResponse {
            partials,
            computed,
            from_cache,
            failed: pending,
            warmed: 0,
        }
    }
}

/// Everything a replica needs at startup besides its lane. Bundled so
/// the router can stamp one spec per `(segment, replica)` slot.
pub(crate) struct ReplicaSpec {
    pub segment: usize,
    pub replica: usize,
    pub engine: EngineConfig,
    pub cache_capacity: usize,
    pub cache_shards: usize,
    pub fanout_retries: u32,
    pub grids: Vec<EnergyGrid>,
    pub bin_tables: Vec<Arc<Vec<(f64, f64)>>>,
}

/// A running shard replica and its worker thread. Stop by closing the
/// lane (the router's scatter/gather `close()` does this for every
/// replica at once) and calling `ShardReplica::stop`.
pub struct ShardReplica {
    segment: usize,
    replica: usize,
    ctx: Arc<ReplicaCtx>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl ShardReplica {
    /// Bring the replica up: engine, cache, worker thread on `lane`.
    pub(crate) fn start(
        spec: ReplicaSpec,
        lane: Lane<ShardRequest, ShardResponse>,
    ) -> ShardReplica {
        let ReplicaSpec {
            segment,
            replica,
            engine,
            cache_capacity,
            cache_shards,
            fanout_retries,
            grids,
            bin_tables,
        } = spec;
        let ctx = Arc::new(ReplicaCtx {
            engine: Engine::start(engine),
            cache: ShardedLruCache::new(cache_capacity, cache_shards),
            grids,
            bin_tables,
            metrics: ServiceMetrics::new(),
            outstanding: AtomicU64::new(0),
            fanout_retries,
        });
        let worker = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("shard-{segment}.{replica}"))
                .spawn(move || {
                    while let Some(envelope) = lane.pop() {
                        let (req, promise) = envelope.split();
                        let resp = ctx.handle(&req);
                        promise.fulfill(resp);
                        ctx.outstanding.fetch_sub(1, Ordering::AcqRel);
                    }
                })
                .expect("spawn shard worker")
        };
        ShardReplica {
            segment,
            replica,
            ctx,
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
        self.ctx.outstanding.load(Ordering::Acquire)
    }

    pub(crate) fn add_outstanding(&self) {
        self.ctx.outstanding.fetch_add(1, Ordering::AcqRel);
    }

    /// Router-side decrement for a part that resolved as missing
    /// (dropped at delivery, closed lane, dead worker): the worker
    /// never saw the envelope, so it cannot balance the increment
    /// itself — without this the victim replica's in-flight count
    /// would drift upward forever.
    pub(crate) fn sub_outstanding(&self) {
        self.ctx.outstanding.fetch_sub(1, Ordering::AcqRel);
    }

    /// Whether this replica is demoted: every simulated device's
    /// breaker is Open. A CPU-only replica (no devices) is never
    /// demoted — its CPU path answers.
    #[must_use]
    pub fn demoted(&self) -> bool {
        self.ctx.engine.all_devices_open()
    }

    /// This replica's engine (fault injection, breaker, scheduler
    /// introspection for tests and benches).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.ctx.engine
    }

    /// This replica's cache counters, totalled across cache shards.
    #[must_use]
    pub fn cache_stats(&self) -> rrc_service::CacheStats {
        self.ctx.cache.stats()
    }

    /// This replica's cache counters per cache shard, in shard order.
    #[must_use]
    pub fn cache_shard_stats(&self) -> Vec<rrc_service::CacheStats> {
        self.ctx.cache.shard_stats()
    }

    /// Every cached entry for the given ions, in deterministic
    /// `(ion_index, state)` order — the donor side of migration cache
    /// handoff. Stats- and recency-neutral.
    #[must_use]
    pub fn export_ions(&self, ions: &[usize]) -> Vec<(CacheKey, Arc<Vec<f64>>)> {
        self.ctx.cache.export_ions(ions)
    }

    /// This replica's service metrics joined with its engine's live
    /// scheduler view and its cache counters.
    #[must_use]
    pub fn metrics(&self) -> rrc_service::MetricsSnapshot {
        self.ctx
            .metrics
            .snapshot()
            .with_scheduler(&self.ctx.engine.scheduler_snapshot())
            .with_cache(&self.ctx.cache)
    }

    /// Join the worker (the lane must already be closed, or the worker
    /// would never exit) and drain the engine.
    ///
    /// # Panics
    /// Panics if the worker thread panicked, or if called while other
    /// clones of the replica context are still alive.
    #[must_use]
    pub(crate) fn stop(mut self) -> EngineReport {
        if let Some(worker) = self.worker.take() {
            worker.join().expect("shard worker panicked");
        }
        let ctx = Arc::try_unwrap(self.ctx)
            .ok()
            .expect("worker joined; no other holders of the replica context");
        ctx.engine.shutdown()
    }
}
