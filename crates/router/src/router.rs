//! The shard router: consistent-hash ion ownership, replica
//! selection, scatter/gather fan-out, health-aware re-routing, and the
//! capacity rebalancer.
//!
//! # Routing
//!
//! A [`HashRing`] seeded from [`RouterConfig::ring_seed`] maps every
//! ion index onto a segment; the live assignment is materialised in a
//! routing **table** (`ion -> segment`) so the rebalancer can migrate
//! individual ions off the ring's default placement. A request reads
//! the table **once**: all its ions' owners are fixed for the
//! request's lifetime even if a rebalance swaps the table mid-flight,
//! which is what makes migration exactly-once — a request computes on
//! the owner it saw, never on both.
//!
//! # Bitwise parity with the single-engine service
//!
//! Shards answer **per-ion partials**; the router folds them itself
//! through [`rrc_service::assemble`] in ascending ion order from a
//! zero vector — the identical floating-point op sequence the
//! single-engine service executes. With the engines configured for
//! the deterministic kernel (single-chunk launches make each partial
//! placement-invariant), a sharded response is bitwise identical to
//! the unsharded one regardless of shard count, replica choice, or
//! migration history.
//!
//! # Replication and health
//!
//! Each segment is served by `replicas` identical engines. A read
//! picks the least-loaded replica (in-flight envelope count, ties
//! broken by a consistent hash of the quantized state) among those not
//! demoted — a replica whose device breakers are all Open routes
//! around until its CPU-fallback siblings are also exhausted, in which
//! case it still serves (its CPU path answers). Failed or unanswered
//! ions re-route to a different replica up to
//! [`RouterConfig::reroute_retries`] times.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use atomdb::AtomDatabase;
use desim::{Priority, VirtualClock};
use hybrid_sched::{BreakerConfig, BreakerState, CircuitBreaker};
use hybrid_spectral::engine::{EngineConfig, EngineReport};
use hybrid_spectral::ion_task_cost;
use mpi_sim::{OpenGather, ScatterGather};
use rrc_service::{
    assemble, selected_ions, CacheKey, Quantizer, ServiceError, SpectrumRequest, SpectrumResponse,
    StateKey,
};
use rrc_spectral::{EnergyGrid, GridPoint};

use crate::locality::{
    preferred_replica, CachedRoute, HotTracker, Join, RouteCache, RouteKey, SingleFlight,
};
use crate::metrics::{ReplicaSnapshot, RouterMetrics, RouterSnapshot, SegmentSnapshot};
use crate::resilience::{QuantileWindow, TokenBucket};
use crate::ring::{splitmix64, HashRing};
use crate::shard::{ReplicaSpec, ShardReplica, ShardRequest, ShardResponse};

/// Cache entries to warm-push, grouped by owning segment.
type WarmBatches = BTreeMap<usize, Vec<(CacheKey, Arc<Vec<f64>>)>>;

/// Configuration of a [`ShardRouter`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-replica engine template (every replica starts an identical
    /// engine; the `Arc`ed atomic database is shared, devices are not).
    pub engine: EngineConfig,
    /// Energy grids a request may name by index.
    pub grids: Vec<EnergyGrid>,
    /// Ring segments (shards).
    pub shards: usize,
    /// Replicas per segment.
    pub replicas: usize,
    /// Per-replica ion-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Per-replica cache shard count.
    pub cache_shards: usize,
    /// Mantissa bits dropped when quantizing plasma states.
    pub quantize_drop_bits: u32,
    /// Capacity of each replica's request lane.
    pub lane_depth: usize,
    /// Shard-internal engine re-fan-out budget (mirrors
    /// [`rrc_service::ServiceConfig::fanout_retries`]).
    pub fanout_retries: u32,
    /// How many times the router re-routes failed/unanswered ions to a
    /// different replica before refusing with
    /// [`ServiceError::DeviceFailed`].
    pub reroute_retries: u32,
    /// Hash-ring seed: restarts must reuse the seed for stable
    /// key-to-shard routing.
    pub ring_seed: u64,
    /// Virtual ring points per segment.
    pub vnodes: u32,
    /// A segment whose capacity cost exceeds `rebalance_factor x` the
    /// mean triggers migration in [`ShardRouter::rebalance`].
    pub rebalance_factor: f64,
    /// Longest a rebalance waits for the migrated-from segment to
    /// drain its in-flight envelopes.
    pub drain_timeout: Duration,
    /// Route reads to the rendezvous-preferred replica of each segment
    /// (state affinity) instead of spreading purely by load. Falls
    /// back to the baseline untried→non-demoted→least-outstanding
    /// order whenever the preferred replica is already tried, demoted,
    /// or saturated — so affinity can only relocate work, never strand
    /// it.
    pub affinity: bool,
    /// In-flight envelopes on the preferred replica at or above which
    /// affinity falls back to the baseline order (backpressure so a
    /// hot state cannot bury its home replica).
    pub affinity_saturation: u64,
    /// Assembled-route cache entries at the router (0 disables — the
    /// default, since whole-response caching is only sound per
    /// normalized route key and costs memory per distinct route).
    pub route_cache_capacity: usize,
    /// Hot-state promotion budget: the top-K sketch-estimated states
    /// get their per-ion partials replicated to every sibling replica
    /// after a fan-out (0 disables hot-state replication).
    pub hot_state_k: usize,
    /// Ship the donor's cached partials for migrated ions to the new
    /// owner's replicas during [`ShardRouter::rebalance`], so a
    /// migration does not manufacture a cold start.
    pub migration_handoff: bool,
    /// Straggler quantile of a replica's recent latencies at which an
    /// unanswered part is hedged to a sibling (0 disables hedging;
    /// hedging also needs `replicas >= 2`).
    pub hedge_quantile: f64,
    /// Floor on the straggler wait — no part hedges before waiting at
    /// least this long, even when a replica's latency window says it
    /// is usually faster.
    pub hedge_min_wait: Duration,
    /// Hedge token-bucket capacity: the burst of speculative
    /// duplicates the router may have in flight before refilling.
    pub hedge_tokens: f64,
    /// Hedge tokens minted per clock second (the sustained duplicate
    /// rate bound).
    pub hedge_refill_per_sec: f64,
    /// Per-replica circuit-breaker tuning (rolling failure window,
    /// trip threshold, probe cooldown in seconds of the engine clock —
    /// [`EngineConfig::clock`], which the breakers and the hedge bucket
    /// read, so a manual clock there makes their decisions replayable
    /// in tests).
    pub breaker: BreakerConfig,
}

impl RouterConfig {
    /// A bitwise-deterministic sharded tier over `db` and `grids`:
    /// each replica runs the fused deterministic kernel with the same
    /// Simpson rule on devices and the CPU fallback, so responses are
    /// identical regardless of shard count or placement (and equal to
    /// the single-engine [`rrc_service::SpectralService`] under
    /// [`rrc_service::ServiceConfig::deterministic`]).
    #[must_use]
    pub fn deterministic(db: Arc<AtomDatabase>, grids: Vec<EnergyGrid>) -> RouterConfig {
        RouterConfig {
            engine: EngineConfig::deterministic(db, 2),
            grids,
            shards: 2,
            replicas: 1,
            cache_capacity: 4096,
            cache_shards: 8,
            quantize_drop_bits: 0,
            lane_depth: 16,
            fanout_retries: 2,
            reroute_retries: 2,
            ring_seed: 17,
            vnodes: 64,
            rebalance_factor: 1.25,
            drain_timeout: Duration::from_secs(5),
            affinity: true,
            affinity_saturation: 4,
            route_cache_capacity: 0,
            hot_state_k: 0,
            migration_handoff: true,
            hedge_quantile: 0.0,
            hedge_min_wait: Duration::from_millis(10),
            hedge_tokens: 32.0,
            hedge_refill_per_sec: 8.0,
            breaker: BreakerConfig::default(),
        }
    }
}

/// What one [`ShardRouter::rebalance`] pass migrated.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Segment the ions moved off (the heavy one).
    pub from: usize,
    /// Segment that took them over (the lightest one).
    pub to: usize,
    /// Migrated ion indices, ascending.
    pub ions: Vec<usize>,
    /// Capacity cost that moved with them.
    pub cost_moved: u64,
    /// Unique donor cache entries (one per `(ion, state)`) shipped to
    /// the new owner's replicas before the drain — 0 when
    /// [`RouterConfig::migration_handoff`] is off or the donor held
    /// nothing for the migrated ions.
    pub handed_off: u64,
    /// Whether the old owner drained its in-flight envelopes within
    /// the configured timeout (the handoff is correct either way — a
    /// straggler request that routed before the swap still completes
    /// on the old owner; `false` only means overlap lasted longer
    /// than the drain window).
    pub drained: bool,
}

/// Everything [`ShardRouter::shutdown`] reports after draining.
#[derive(Debug, Clone)]
pub struct RouterReport {
    /// The tier rollup taken just before teardown.
    pub snapshot: RouterSnapshot,
    /// Every replica engine's drained report, in flat
    /// `segment * replicas + replica` order.
    pub engines: Vec<EngineReport>,
    /// Sum of the engines' leaked memory grants — must be zero.
    pub leaked_grants: u64,
}

/// The running sharded tier. Submit queries from any thread; shut
/// down (or drop) to close the lanes, join the workers, and drain
/// every engine.
pub struct ShardRouter {
    db: Arc<AtomDatabase>,
    grids: Vec<EnergyGrid>,
    quantizer: Quantizer,
    replicas_per_segment: usize,
    reroute_retries: u32,
    rebalance_factor: f64,
    drain_timeout: Duration,
    ring: HashRing,
    /// Live ion ownership: `table[ion] = segment`. Starts at the
    /// ring's placement; the rebalancer migrates entries.
    table: RwLock<Vec<usize>>,
    /// Static per-ion capacity costs at the reference plasma state.
    costs: Vec<u64>,
    sg: ScatterGather<ShardRequest, ShardResponse>,
    replicas: Vec<ShardReplica>,
    metrics: RouterMetrics,
    ring_seed: u64,
    affinity: bool,
    affinity_saturation: u64,
    migration_handoff: bool,
    route_cache: RouteCache,
    flight: SingleFlight,
    hot: HotTracker,
    clock: VirtualClock,
    hedge_quantile: f64,
    hedge_min_wait_s: f64,
    hedge_bucket: TokenBucket,
    /// One breaker per flat `segment * replicas + replica` slot.
    breakers: Vec<CircuitBreaker>,
    /// Tier-wide rolling window of part latencies. Deliberately global,
    /// not per-lane: a straggler is a part that is slow relative to how
    /// the *tier* usually answers — a per-lane baseline would let a
    /// persistently slow replica normalize its own slowness and never
    /// be hedged.
    lat: QuantileWindow,
}

/// The fixed plasma state the capacity model prices ions at. Absolute
/// scale is irrelevant to balancing — only the ratios matter — so one
/// representative mid-range coronal state serves all workloads.
const CAPACITY_REF_POINT: GridPoint = GridPoint {
    temperature_k: 1.0e7,
    density_cm3: 1.0,
    time_s: 0.0,
    index: 0,
};

/// One logical scattered part of a gather round: the ions it covers
/// and whether a winner has landed / a hedge has been attempted.
struct Slot {
    /// Owning segment (where a hedge must find a sibling).
    segment: usize,
    /// Ions this part covers, ascending.
    ions: Vec<usize>,
    /// Whether a first writer already resolved this slot.
    resolved: bool,
    /// Whether this slot has spent its one hedge attempt.
    hedged: bool,
}

/// Bookkeeping for one sent part (primary or hedge), indexed by the
/// gather's resolution seq.
#[derive(Clone, Copy)]
struct SeqInfo {
    /// Flat replica lane the part went to.
    lane: usize,
    /// Logical slot the part serves.
    slot: usize,
    /// Seconds after the round started that this part was sent.
    sent: f64,
    /// Whether this part is a speculative duplicate.
    hedge: bool,
}

/// What one fan-out produced, before response assembly decides what to
/// cache, warm, or return.
struct FanOutcome {
    /// Folded spectrum bins.
    bins: Vec<f64>,
    /// Ions the engines computed this time.
    computed: u64,
    /// Ions answered from replica caches.
    from_cache: u64,
    /// Per-ion partials (the replicas' cache entries), for hot-state
    /// warming.
    partials: BTreeMap<usize, Arc<Vec<f64>>>,
    /// The owner segment each ion routed to this request.
    owner: BTreeMap<usize, usize>,
}

impl ShardRouter {
    /// Bring the tier up: ring, routing table, capacity model, one
    /// scatter/gather fabric, and `shards x replicas` engines.
    ///
    /// # Panics
    /// Panics if `config.grids` is empty or `shards`/`replicas` is 0.
    #[must_use]
    pub fn start(config: RouterConfig) -> ShardRouter {
        assert!(!config.grids.is_empty(), "router needs at least one grid");
        assert!(config.shards >= 1, "router needs at least one shard");
        assert!(
            config.replicas >= 1,
            "each shard needs at least one replica"
        );
        let db = Arc::clone(&config.engine.db);
        let bin_tables: Vec<Arc<Vec<(f64, f64)>>> = config
            .grids
            .iter()
            .map(|g| Arc::new(g.bin_pairs()))
            .collect();
        let ring = HashRing::new(config.ring_seed, config.shards, config.vnodes);
        let table: Vec<usize> = (0..db.ions().len())
            .map(|ion| ring.owner(ion as u64))
            .collect();
        let capacity_bins = &bin_tables[0];
        let costs: Vec<u64> = (0..db.ions().len())
            .map(|ion| {
                let levels = db.levels_by_index(ion).len();
                ion_task_cost(&db, ion, 0..levels, &CAPACITY_REF_POINT, capacity_bins)
            })
            .collect();
        let sg = ScatterGather::new(config.shards * config.replicas, config.lane_depth.max(1));
        let mut replicas = Vec::with_capacity(config.shards * config.replicas);
        for segment in 0..config.shards {
            for replica in 0..config.replicas {
                let lane = sg.lane(segment * config.replicas + replica);
                replicas.push(ShardReplica::start(
                    ReplicaSpec {
                        segment,
                        replica,
                        engine: config.engine.clone(),
                        cache_capacity: config.cache_capacity,
                        cache_shards: config.cache_shards,
                        fanout_retries: config.fanout_retries,
                        grids: config.grids.clone(),
                        bin_tables: bin_tables.clone(),
                    },
                    lane,
                ));
            }
        }
        ShardRouter {
            db,
            grids: config.grids,
            quantizer: Quantizer::new(config.quantize_drop_bits),
            replicas_per_segment: config.replicas,
            reroute_retries: config.reroute_retries,
            rebalance_factor: config.rebalance_factor.max(1.0),
            drain_timeout: config.drain_timeout,
            ring,
            table: RwLock::new(table),
            costs,
            sg,
            replicas,
            metrics: RouterMetrics::new(),
            ring_seed: config.ring_seed,
            affinity: config.affinity,
            affinity_saturation: config.affinity_saturation.max(1),
            migration_handoff: config.migration_handoff,
            route_cache: RouteCache::new(config.route_cache_capacity),
            flight: SingleFlight::new(),
            // The hot tracker reuses the ring seed: one seed in the
            // config reproduces the whole routing + locality state on
            // restart.
            hot: HotTracker::new(config.hot_state_k, config.ring_seed),
            clock: config.engine.clock.clone(),
            hedge_quantile: config.hedge_quantile.clamp(0.0, 1.0),
            hedge_min_wait_s: config.hedge_min_wait.as_secs_f64(),
            hedge_bucket: TokenBucket::new(config.hedge_tokens, config.hedge_refill_per_sec),
            breakers: (0..config.shards * config.replicas)
                .map(|_| CircuitBreaker::new(config.breaker))
                .collect(),
            lat: QuantileWindow::new(256),
        }
    }

    /// Ring segments (shards).
    #[must_use]
    pub fn segments(&self) -> usize {
        self.ring_segments()
    }

    fn ring_segments(&self) -> usize {
        self.replicas.len() / self.replicas_per_segment
    }

    /// Replicas per segment.
    #[must_use]
    pub fn replicas_per_segment(&self) -> usize {
        self.replicas_per_segment
    }

    /// The seeded consistent-hash ring (the routing table's initial
    /// placement; restarts with the same seed reproduce it).
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The segment currently owning `ion`.
    ///
    /// # Panics
    /// Panics if `ion` is out of range for the database.
    #[must_use]
    pub fn segment_of(&self, ion: usize) -> usize {
        self.table.read().expect("routing table poisoned")[ion]
    }

    /// A replica handle (fault injection, health and scheduler
    /// introspection for tests, benches, and chaos drills).
    ///
    /// # Panics
    /// Panics if `segment`/`replica` is out of range.
    #[must_use]
    pub fn replica(&self, segment: usize, replica: usize) -> &ShardReplica {
        assert!(replica < self.replicas_per_segment, "replica out of range");
        &self.replicas[segment * self.replicas_per_segment + replica]
    }

    /// The circuit breaker guarding one replica (state/counters for
    /// tests and benches).
    ///
    /// # Panics
    /// Panics if `segment`/`replica` is out of range.
    #[must_use]
    pub fn breaker(&self, segment: usize, replica: usize) -> &CircuitBreaker {
        assert!(replica < self.replicas_per_segment, "replica out of range");
        &self.breakers[segment * self.replicas_per_segment + replica]
    }

    /// The clock breaker cooldowns and the hedge token bucket read (the
    /// replica engines' [`EngineConfig::clock`]).
    #[must_use]
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Hedge tokens currently available (refilled to the clock's now).
    #[must_use]
    pub fn hedge_tokens_available(&self) -> f64 {
        self.hedge_bucket.available(self.clock.now())
    }

    /// The scatter/gather fabric's fault hook: install a seeded
    /// [`mpi_sim::LaneFaultPlan`] on the flat
    /// `segment * replicas + replica` lane (chaos drills: stalls,
    /// drops, slow-replica skew).
    ///
    /// # Panics
    /// Panics if `lane` is out of range.
    pub fn set_lane_faults(&self, lane: usize, plan: mpi_sim::LaneFaultPlan) {
        self.sg.set_lane_faults(lane, plan);
    }

    /// Answer one spectral query through the sharded tier.
    ///
    /// With the route cache enabled, a request whose normalized route
    /// key was answered before returns a clone of the cached bins with
    /// **zero** scatter/gather; concurrent misses for one key coalesce
    /// into a single fan-out (the followers reuse the leader's
    /// result). Both shortcuts return the exact bits a fresh fan-out
    /// would have produced (deterministic kernel assumed), so the
    /// bitwise-parity invariant survives every path.
    ///
    /// # Errors
    /// [`ServiceError::UnknownGrid`] for an out-of-range grid id;
    /// [`ServiceError::DeviceFailed`] when some ion stayed unanswered
    /// after the re-route budget (every owning segment's replicas
    /// failed it); [`ServiceError::Closed`] after shutdown began.
    pub fn query(&self, request: &SpectrumRequest) -> Result<SpectrumResponse, ServiceError> {
        if request.grid_id >= self.grids.len() {
            return Err(ServiceError::UnknownGrid);
        }
        if self.sg.is_closed() {
            return Err(ServiceError::Closed);
        }
        let started = Instant::now();
        self.metrics.on_request();
        let key = self.quantizer.state_key(&request.point, request.grid_id);
        let point = self.quantizer.representative(&key);

        if !self.route_cache.enabled() {
            let outcome = self.fan_out(request, &key, &point)?;
            let response = self.finish(request, &key, outcome);
            self.metrics.on_responded(started.elapsed().as_secs_f64());
            return Ok(response);
        }

        let route_key = RouteKey::new(key, &request.elements);
        if let Some(hit) = self.route_cache.get(&route_key) {
            self.metrics.on_route_hit();
            let response = Self::replay(request, &hit);
            self.metrics.on_responded(started.elapsed().as_secs_f64());
            return Ok(response);
        }
        self.metrics.on_route_miss();
        loop {
            match self.flight.join(route_key.clone()) {
                Join::Leader(guard) => {
                    // Re-probe before fanning out: a leader elected
                    // after a predecessor published necessarily sees
                    // the predecessor's insert (insertion precedes
                    // flight retirement), so a thread whose first
                    // probe raced the publish coalesces here instead
                    // of duplicating the fan-out.
                    if let Some(hit) = self.route_cache.get(&route_key) {
                        self.metrics.on_route_hit();
                        guard.publish(Some(hit.clone()));
                        let response = Self::replay(request, &hit);
                        self.metrics.on_responded(started.elapsed().as_secs_f64());
                        return Ok(response);
                    }
                    // An erroring fan-out drops the guard, which
                    // publishes failure — a waiting follower retries
                    // as the next leader instead of inheriting the
                    // refusal.
                    let outcome = self.fan_out(request, &key, &point)?;
                    let response = self.finish(request, &key, outcome);
                    let cached = CachedRoute {
                        bins: Arc::new(response.bins.clone()),
                        ions: response.ions_computed + response.ions_from_cache,
                    };
                    self.route_cache.insert(route_key, cached.clone());
                    guard.publish(Some(cached));
                    self.metrics.on_responded(started.elapsed().as_secs_f64());
                    return Ok(response);
                }
                Join::Follower(Some(route)) => {
                    self.metrics.on_coalesced();
                    let response = Self::replay(request, &route);
                    self.metrics.on_responded(started.elapsed().as_secs_f64());
                    return Ok(response);
                }
                // The leader failed: loop to re-join — this caller
                // becomes the next leader (or follows a newer one).
                Join::Follower(None) => {}
            }
        }
    }

    /// A response replayed from a cached route: the shared bins cloned
    /// (identical bits), every covered ion accounted as cached.
    fn replay(request: &SpectrumRequest, route: &CachedRoute) -> SpectrumResponse {
        SpectrumResponse {
            bins: route.bins.as_ref().clone(),
            grid_id: request.grid_id,
            ions_computed: 0,
            ions_from_cache: route.ions,
            caller_ran: false,
        }
    }

    /// Turn a fan-out's outcome into the response; on the way, feed
    /// the hot-state tracker and replicate a hot state's partials to
    /// sibling replicas.
    fn finish(
        &self,
        request: &SpectrumRequest,
        key: &StateKey,
        outcome: FanOutcome,
    ) -> SpectrumResponse {
        if self.hot.k() > 0 && self.hot.observe(key) {
            self.warm_hot(key, &outcome);
        }
        SpectrumResponse {
            bins: outcome.bins,
            grid_id: request.grid_id,
            ions_computed: outcome.computed,
            ions_from_cache: outcome.from_cache,
            caller_ran: false,
        }
    }

    /// One full scatter/gather fan-out with health-aware re-routing,
    /// straggler hedging, and per-replica breaker accounting — the
    /// only place shard queries are issued.
    fn fan_out(
        &self,
        request: &SpectrumRequest,
        key: &StateKey,
        point: &GridPoint,
    ) -> Result<FanOutcome, ServiceError> {
        self.metrics.on_fanout();
        let ions = selected_ions(&self.db, request);
        let grid = &self.grids[request.grid_id];
        let priority = request.priority;
        let deadline = request.deadline_secs();
        // Hedging needs a sibling to hedge onto and an enabled
        // quantile; with either missing the round degenerates to the
        // plain blocking gather.
        let hedging = self.hedge_quantile > 0.0 && self.replicas_per_segment > 1;

        // ONE routing-table read per request: each ion's owner is
        // fixed for this request's lifetime even if a rebalance swaps
        // the table mid-flight. Exactly-once migration follows — a
        // request computes on the owner it saw, never on both.
        let owner: BTreeMap<usize, usize> = {
            let table = self.table.read().expect("routing table poisoned");
            ions.iter().map(|&ion| (ion, table[ion])).collect()
        };

        let mut partials: BTreeMap<usize, Arc<Vec<f64>>> = BTreeMap::new();
        let mut computed = 0u64;
        let mut from_cache = 0u64;
        let mut pending: Vec<usize> = ions.clone();
        let mut tried: Vec<Vec<usize>> = vec![Vec::new(); self.ring_segments()];
        let mut attempt = 0u32;
        loop {
            let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &ion in &pending {
                groups.entry(owner[&ion]).or_default().push(ion);
            }
            let mut parts: Vec<(usize, ShardRequest)> = Vec::with_capacity(groups.len());
            let mut slots: Vec<Slot> = Vec::with_capacity(groups.len());
            let mut seq_info: Vec<SeqInfo> = Vec::with_capacity(groups.len());
            for (segment, seg_ions) in groups {
                let replica = self.pick_replica(segment, key, &tried[segment]);
                tried[segment].push(replica);
                let flat = segment * self.replicas_per_segment + replica;
                self.replicas[flat].add_outstanding();
                parts.push((
                    flat,
                    ShardRequest::Query {
                        key: *key,
                        point: *point,
                        ions: seg_ions.clone(),
                        priority,
                        deadline,
                    },
                ));
                seq_info.push(SeqInfo {
                    lane: flat,
                    slot: slots.len(),
                    sent: 0.0,
                    hedge: false,
                });
                slots.push(Slot {
                    segment,
                    ions: seg_ions,
                    resolved: false,
                    hedged: false,
                });
            }
            if attempt > 0 {
                self.metrics.on_reroute(parts.len() as u64);
            }
            // Each slot may hedge at most once per round.
            let hedge_slots = if hedging { parts.len() } else { 0 };
            let open = self.sg.scatter_open(parts, hedge_slots);
            pending.clear();
            self.gather_round(
                open,
                key,
                point,
                priority,
                deadline,
                &mut slots,
                &mut seq_info,
                &mut tried,
                &mut partials,
                &mut pending,
                &mut computed,
                &mut from_cache,
                hedging,
            );
            if pending.is_empty() {
                break;
            }
            if attempt >= self.reroute_retries {
                self.metrics.on_device_failed();
                return Err(ServiceError::DeviceFailed);
            }
            attempt += 1;
        }

        let bins = assemble(grid.bins(), &ions, &partials);
        Ok(FanOutcome {
            bins,
            computed,
            from_cache,
            partials,
            owner,
        })
    }

    /// Drain one scatter round: receive resolutions (**first writer
    /// wins** per slot — a later duplicate from a hedge or its
    /// straggling original is discarded, so hedging can reorder timing
    /// but never bits), hedge overdue parts under the token budget,
    /// and record each resolution's latency and breaker outcome
    /// against the replica that produced it. Unanswered ions land in
    /// `pending` for the caller's re-route pass.
    #[allow(clippy::too_many_arguments)]
    fn gather_round(
        &self,
        mut open: OpenGather<ShardResponse>,
        key: &StateKey,
        point: &GridPoint,
        priority: Priority,
        deadline: f64,
        slots: &mut [Slot],
        seq_info: &mut Vec<SeqInfo>,
        tried: &mut [Vec<usize>],
        partials: &mut BTreeMap<usize, Arc<Vec<f64>>>,
        pending: &mut Vec<usize>,
        computed: &mut u64,
        from_cache: &mut u64,
        hedging: bool,
    ) {
        let started = Instant::now();
        let mut unresolved = slots.len();
        // Exit as soon as every slot has a winner: straggling
        // duplicates resolve into the (refcounted) reply queue after
        // this gather is dropped and are simply never read.
        while unresolved > 0 {
            let hedge_armed = hedging
                && open.hedge_slots_left() > 0
                && slots.iter().any(|s| !s.resolved && !s.hedged);
            let (seq, answer) = if hedge_armed {
                match open.recv_timeout(self.next_hedge_wait(slots, seq_info, started)) {
                    Some(resolution) => resolution,
                    None => {
                        self.hedge_due(
                            &mut open, key, point, priority, deadline, slots, seq_info, tried,
                            started,
                        );
                        continue;
                    }
                }
            } else {
                open.recv()
            };
            let info = seq_info[seq];
            let now = self.clock.now();
            self.lat.record(started.elapsed().as_secs_f64() - info.sent);
            // A reply with failed ions still counts against the
            // replica: its devices are erring even though the lane is
            // alive.
            match &answer {
                Some(resp) if resp.failed.is_empty() => {
                    self.breakers[info.lane].record_success(now);
                }
                _ => self.breakers[info.lane].record_failure(now),
            }
            if answer.is_none() {
                // The envelope never reached the worker (dropped at
                // delivery, closed lane, dead worker), so the worker
                // cannot balance the router's in-flight increment.
                self.replicas[info.lane].sub_outstanding();
            }
            if slots[info.slot].resolved {
                continue;
            }
            slots[info.slot].resolved = true;
            unresolved -= 1;
            if info.hedge && answer.is_some() {
                self.metrics.on_hedge_win();
            }
            match answer {
                Some(resp) => {
                    *computed += resp.computed;
                    *from_cache += resp.from_cache;
                    for (ion, partial) in resp.partials {
                        partials.insert(ion, partial);
                    }
                    pending.extend(resp.failed);
                }
                // Lane refused or the worker died before replying: the
                // whole part re-routes to a sibling replica.
                None => pending.extend(slots[info.slot].ions.iter().copied()),
            }
        }
        // Every slot has a winner; drain whatever straggler duplicates
        // already resolved so their breaker/latency/in-flight
        // accounting is not lost (later ones are simply never read —
        // their workers balance the in-flight count themselves).
        while let Some((seq, answer)) = open.recv_timeout(Duration::ZERO) {
            let info = seq_info[seq];
            let now = self.clock.now();
            self.lat.record(started.elapsed().as_secs_f64() - info.sent);
            match &answer {
                Some(resp) if resp.failed.is_empty() => {
                    self.breakers[info.lane].record_success(now);
                }
                _ => self.breakers[info.lane].record_failure(now),
            }
            if answer.is_none() {
                self.replicas[info.lane].sub_outstanding();
            }
        }
    }

    /// How long to wait for the next resolution before re-checking
    /// stragglers: until the earliest un-hedged slot crosses its
    /// replica's straggler threshold (clamped to a sane polling band).
    fn next_hedge_wait(&self, slots: &[Slot], seq_info: &[SeqInfo], started: Instant) -> Duration {
        let elapsed = started.elapsed().as_secs_f64();
        let mut earliest = f64::INFINITY;
        for info in seq_info {
            if info.hedge || slots[info.slot].resolved || slots[info.slot].hedged {
                continue;
            }
            earliest = earliest.min(info.sent + self.straggler_threshold());
        }
        Duration::from_secs_f64((earliest - elapsed).clamp(5e-4, 0.05))
    }

    /// Hedge every overdue slot: speculatively re-send its work to an
    /// untried sibling replica, spending one token per hedge. A slot
    /// gets exactly one hedge attempt per round — denied tokens and
    /// exhausted siblings are final for the round, not retried in a
    /// loop.
    #[allow(clippy::too_many_arguments)]
    fn hedge_due(
        &self,
        open: &mut OpenGather<ShardResponse>,
        key: &StateKey,
        point: &GridPoint,
        priority: Priority,
        deadline: f64,
        slots: &mut [Slot],
        seq_info: &mut Vec<SeqInfo>,
        tried: &mut [Vec<usize>],
        started: Instant,
    ) {
        let elapsed = started.elapsed().as_secs_f64();
        let primaries = seq_info.len();
        for seq in 0..primaries {
            let info = seq_info[seq];
            if info.hedge || slots[info.slot].resolved || slots[info.slot].hedged {
                continue;
            }
            if elapsed < info.sent + self.straggler_threshold() {
                continue;
            }
            slots[info.slot].hedged = true;
            let segment = slots[info.slot].segment;
            let sibling = self.pick_replica(segment, key, &tried[segment]);
            if tried[segment].contains(&sibling) {
                // Every sibling already carries this work — nothing
                // fresh to hedge onto.
                continue;
            }
            if !self.hedge_bucket.try_take(self.clock.now()) {
                self.metrics.on_hedge_denied();
                continue;
            }
            let flat = segment * self.replicas_per_segment + sibling;
            let req = ShardRequest::Query {
                key: *key,
                point: *point,
                ions: slots[info.slot].ions.clone(),
                priority,
                deadline,
            };
            let Some(new_seq) = open.send_more(&self.sg, flat, req) else {
                continue;
            };
            tried[segment].push(sibling);
            self.replicas[flat].add_outstanding();
            seq_info.push(SeqInfo {
                lane: flat,
                slot: info.slot,
                sent: elapsed,
                hedge: true,
            });
            debug_assert_eq!(new_seq + 1, seq_info.len());
            self.metrics.on_hedge();
        }
    }

    /// The wait beyond which a part counts as straggling: the
    /// configured quantile of the tier's recent part latencies,
    /// floored at the configured minimum wait (which also covers the
    /// cold window at startup).
    fn straggler_threshold(&self) -> f64 {
        self.lat
            .quantile(self.hedge_quantile)
            .map_or(self.hedge_min_wait_s, |q| q.max(self.hedge_min_wait_s))
    }

    /// Replicate a hot state's per-ion partials to every replica of
    /// each owning segment. The serving replica already holds them —
    /// its `warm_insert` no-ops — so the push only fills siblings.
    fn warm_hot(&self, key: &StateKey, outcome: &FanOutcome) {
        let mut per_segment = WarmBatches::new();
        for (&ion, partial) in &outcome.partials {
            per_segment.entry(outcome.owner[&ion]).or_default().push((
                CacheKey {
                    ion_index: ion,
                    state: *key,
                },
                Arc::clone(partial),
            ));
        }
        let warmed = self.warm_segments(&per_segment);
        if warmed > 0 {
            self.metrics.on_warmed(warmed);
        }
    }

    /// Scatter warm pushes to every replica of each listed segment
    /// over the same lanes queries use, and gather the insert counts.
    /// Returns how many entries were actually inserted (absent-only).
    fn warm_segments(&self, entries: &WarmBatches) -> u64 {
        if self.sg.is_closed() {
            return 0;
        }
        let mut parts: Vec<(usize, ShardRequest)> = Vec::new();
        for (&segment, seg_entries) in entries {
            if seg_entries.is_empty() {
                continue;
            }
            for r in 0..self.replicas_per_segment {
                let flat = segment * self.replicas_per_segment + r;
                self.replicas[flat].add_outstanding();
                parts.push((
                    flat,
                    ShardRequest::Warm {
                        entries: seg_entries.clone(),
                    },
                ));
            }
        }
        if parts.is_empty() {
            return 0;
        }
        let lanes: Vec<usize> = parts.iter().map(|&(lane, _)| lane).collect();
        let results = self.sg.scatter(parts).gather();
        let mut warmed = 0u64;
        for (answer, &lane) in results.into_iter().zip(&lanes) {
            match answer {
                Some(resp) => warmed += resp.warmed,
                // A warm push that never reached its worker (dropped or
                // closed lane) must still balance the in-flight count.
                None => self.replicas[lane].sub_outstanding(),
            }
        }
        warmed
    }

    /// Pick a replica of `segment` for a read. With affinity enabled,
    /// the rendezvous-preferred replica serves whenever it is untried,
    /// healthy, and below the saturation bound — concentrating each
    /// state's partials on one home replica
    /// instead of diluting them across R caches. Otherwise — and
    /// always with affinity disabled — fall back to the baseline:
    /// prefer replicas not yet tried this request, among those prefer
    /// ones not demoted, and take the least-loaded (ties spread by a
    /// consistent hash of the quantized state). When every replica is demoted the least-loaded one
    /// still serves — its CPU fallback answers (graceful degradation,
    /// not refusal).
    fn pick_replica(&self, segment: usize, key: &StateKey, tried: &[usize]) -> usize {
        let base = segment * self.replicas_per_segment;
        // Probes outrank everything: a breaker that grants one (cooldown
        // elapsed, nothing in flight on the replica) gets this request
        // to prove itself. Closed breakers skip the clock read.
        for r in 0..self.replicas_per_segment {
            if tried.contains(&r) {
                continue;
            }
            let breaker = &self.breakers[base + r];
            if breaker.state() != BreakerState::Closed
                && breaker.allow(self.clock.now(), self.replicas[base + r].outstanding())
            {
                return r;
            }
        }
        if self.affinity {
            let pref = preferred_replica(key, segment, self.replicas_per_segment, self.ring_seed);
            let rep = &self.replicas[base + pref];
            if !tried.contains(&pref)
                && !rep.demoted()
                && self.breakers[base + pref].state() == BreakerState::Closed
                && rep.outstanding() < self.affinity_saturation
            {
                self.metrics.on_affinity_pick();
                return pref;
            }
            self.metrics.on_affinity_fallback();
        }
        let fresh: Vec<usize> = (0..self.replicas_per_segment)
            .filter(|r| !tried.contains(r))
            .collect();
        let pool: Vec<usize> = if fresh.is_empty() {
            (0..self.replicas_per_segment).collect()
        } else {
            fresh
        };
        let healthy: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|&r| !self.replicas[base + r].demoted())
            .collect();
        let pool = if healthy.is_empty() {
            pool
        } else {
            if healthy.len() < pool.len() {
                self.metrics.on_demoted_skip();
            }
            healthy
        };
        // Breaker-blocked replicas route around like demoted ones —
        // and like demotion, when every candidate is blocked the
        // least-loaded one still serves (degrade, never strand).
        let flowing: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|&r| self.breakers[base + r].state() == BreakerState::Closed)
            .collect();
        let pool = if flowing.is_empty() {
            pool
        } else {
            if flowing.len() < pool.len() {
                self.metrics.on_breaker_skip();
            }
            flowing
        };
        pool.into_iter()
            .min_by_key(|&r| {
                (
                    self.replicas[base + r].outstanding(),
                    splitmix64(key.stable_hash(self.ring_seed) ^ r as u64),
                )
            })
            .expect("segment has at least one replica")
    }

    /// One capacity-rebalance pass: if the costliest segment exceeds
    /// `rebalance_factor x` the mean capacity cost, migrate its
    /// costliest ions to the lightest segment (greedily, while each
    /// move narrows the gap without reversing it), then wait for the
    /// old owner to drain its in-flight envelopes.
    ///
    /// Returns `None` when the tier is already balanced (or has a
    /// single segment). Run repeatedly to converge.
    ///
    /// # Panics
    /// Panics if the routing-table lock is poisoned.
    pub fn rebalance(&self) -> Option<MigrationReport> {
        let (from, to, ions, cost_moved) = {
            let mut table = self.table.write().expect("routing table poisoned");
            let nseg = self.ring_segments();
            if nseg < 2 {
                return None;
            }
            let mut seg_cost = vec![0u64; nseg];
            for (ion, &seg) in table.iter().enumerate() {
                seg_cost[seg] += self.costs[ion];
            }
            let total: u64 = seg_cost.iter().sum();
            let mean = total as f64 / nseg as f64;
            let heavy = (0..nseg)
                .max_by_key(|&s| seg_cost[s])
                .expect("nseg >= 2 checked above");
            let light = (0..nseg)
                .min_by_key(|&s| seg_cost[s])
                .expect("nseg >= 2 checked above");
            if heavy == light || (seg_cost[heavy] as f64) <= self.rebalance_factor * mean {
                return None;
            }
            let mut owned: Vec<usize> = (0..table.len())
                .filter(|&ion| table[ion] == heavy)
                .collect();
            owned.sort_by_key(|&ion| std::cmp::Reverse(self.costs[ion]));
            let mut heavy_cost = seg_cost[heavy];
            let mut light_cost = seg_cost[light];
            let mut moved = Vec::new();
            let mut cost_moved = 0u64;
            for ion in owned {
                let c = self.costs[ion];
                // Moving c keeps heavy' = heavy - c >= light + c =
                // light', so the gap narrows monotonically and the
                // pass cannot oscillate.
                if heavy_cost >= light_cost + 2 * c {
                    table[ion] = light;
                    heavy_cost -= c;
                    light_cost += c;
                    moved.push(ion);
                    cost_moved += c;
                }
            }
            if moved.is_empty() {
                return None;
            }
            moved.sort_unstable();
            (heavy, light, moved, cost_moved)
            // Write lock drops here: from now on every new request
            // routes the moved ions to their new owner.
        };
        // Cache handoff before the drain: new requests already route
        // to `to`, so the sooner its replicas hold the donor's
        // partials the fewer migrated ions cold-start. Entries are
        // absent-only inserts of the donor's exact cache values —
        // bitwise the same partials, so parity is unaffected.
        let handed_off = if self.migration_handoff {
            self.handoff(from, to, &ions)
        } else {
            0
        };
        let drained = self.drain_segment(from);
        self.metrics.on_rebalance(ions.len() as u64);
        Some(MigrationReport {
            from,
            to,
            ions,
            cost_moved,
            handed_off,
            drained,
        })
    }

    /// Ship the donor segment's cached partials for the migrated ions
    /// to every replica of the new owner. Returns the unique entries
    /// (one per `(ion, state)`) shipped.
    fn handoff(&self, from: usize, to: usize, ions: &[usize]) -> u64 {
        let base = from * self.replicas_per_segment;
        let mut entries: Vec<(CacheKey, Arc<Vec<f64>>)> = (0..self.replicas_per_segment)
            .flat_map(|r| self.replicas[base + r].export_ions(ions))
            .collect();
        // Donor replicas overlap in what they cached; ship one copy
        // per key, in deterministic order.
        entries.sort_by_key(|(k, _)| (k.ion_index, k.state));
        entries.dedup_by_key(|(k, _)| *k);
        if entries.is_empty() {
            return 0;
        }
        let unique = entries.len() as u64;
        let _ = self.warm_segments(&BTreeMap::from([(to, entries)]));
        self.metrics.on_handoff(unique);
        unique
    }

    /// Wait (bounded) until every replica of `segment` has zero
    /// in-flight envelopes.
    fn drain_segment(&self, segment: usize) -> bool {
        let base = segment * self.replicas_per_segment;
        let deadline = Instant::now() + self.drain_timeout;
        loop {
            let busy =
                (0..self.replicas_per_segment).any(|r| self.replicas[base + r].outstanding() > 0);
            if !busy {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The tier rollup: router counters plus per-segment ownership,
    /// capacity cost, and every replica's cache/health/service view.
    ///
    /// # Panics
    /// Panics if the routing-table lock is poisoned.
    #[must_use]
    pub fn snapshot(&self) -> RouterSnapshot {
        let table = self.table.read().expect("routing table poisoned").clone();
        let nseg = self.ring_segments();
        let mut owned = vec![0u64; nseg];
        let mut cost = vec![0u64; nseg];
        for (ion, &seg) in table.iter().enumerate() {
            owned[seg] += 1;
            cost[seg] += self.costs[ion];
        }
        let segments = (0..nseg)
            .map(|seg| SegmentSnapshot {
                segment: seg,
                owned_ions: owned[seg],
                capacity_cost: cost[seg],
                replicas: (0..self.replicas_per_segment)
                    .map(|r| {
                        let flat = seg * self.replicas_per_segment + r;
                        let rep = &self.replicas[flat];
                        let breaker = &self.breakers[flat];
                        let transitions = breaker.counters();
                        ReplicaSnapshot {
                            replica: r,
                            demoted: rep.demoted(),
                            outstanding: rep.outstanding(),
                            breaker: breaker.state().label(),
                            breaker_opens: transitions.opens,
                            breaker_half_opens: transitions.half_opens,
                            breaker_closes: transitions.closes,
                            cache: rep.cache_stats(),
                            cache_shards: rep.cache_shard_stats(),
                            service: rep.metrics(),
                        }
                    })
                    .collect(),
            })
            .collect();
        RouterSnapshot {
            shards: nseg,
            replicas_per_shard: self.replicas_per_segment,
            counters: self.metrics.snapshot(),
            segments,
        }
    }

    /// Graceful shutdown: refuse new queries, resolve everything
    /// in-flight (queued envelopes resolve as missing; already-popped
    /// ones are answered), join every worker, drain every engine.
    #[must_use]
    pub fn shutdown(mut self) -> RouterReport {
        self.do_shutdown().expect("router not yet shut down")
    }

    fn do_shutdown(&mut self) -> Option<RouterReport> {
        if self.replicas.is_empty() {
            return None;
        }
        let snapshot = self.snapshot();
        self.sg.close();
        let engines: Vec<EngineReport> = self.replicas.drain(..).map(ShardReplica::stop).collect();
        let leaked_grants = engines.iter().map(|e| e.leaked_grants).sum();
        Some(RouterReport {
            snapshot,
            engines,
            leaked_grants,
        })
    }
}

impl Drop for ShardRouter {
    /// Dropping without [`ShardRouter::shutdown`] still closes the
    /// lanes, joins the workers, and drains the engines.
    fn drop(&mut self) {
        let _ = self.do_shutdown();
    }
}
