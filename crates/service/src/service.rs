//! The spectral query service: admission → batching → engine fan-out →
//! cache fill → response assembly.
//!
//! One batcher thread drains the bounded request queue. Each drain
//! takes everything immediately available (up to `max_batch`), groups
//! the requests by quantized plasma state + grid ([`StateKey`]), and
//! per group fans the *union* of the requested ions out to the
//! resident [`Engine`] — one [`IonJob`] per ion that the cache cannot
//! already answer. Computed partials are wrapped in `Arc`s, stored in
//! the cache, and every request of the group is answered by summing
//! its selected ions **in ascending ion order**. Because the fold
//! order is fixed and cached partials are the identical allocations
//! the engine produced, a cache hit changes *which* computation
//! produced the bits but never the bits themselves (with the
//! engine's deterministic kernel configured — see
//! [`hybrid_spectral::engine`]).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Instant;

use atomdb::AtomDatabase;
use desim::{Priority, VirtualClock};
use hybrid_sched::SchedulerSnapshot;
use hybrid_spectral::engine::{Engine, EngineConfig, EngineReport, IonJob, IonOutcome};
use mpi_sim::TryPushError;
use rrc_spectral::EnergyGrid;

use crate::api::{AdmissionPolicy, ServiceError, SpectrumRequest, SpectrumResponse, Ticket};
use crate::cache::{CacheKey, CacheStats, ShardedLruCache};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::pqueue::PriorityQueues;
use crate::quantize::{Quantizer, StateKey};

/// Configuration of a [`SpectralService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The resident engine backing the service.
    pub engine: EngineConfig,
    /// Energy grids a request may name by index ([`SpectrumRequest::grid_id`]).
    pub grids: Vec<EnergyGrid>,
    /// Total per-ion cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Cache shard count (clamped to `[1, cache_capacity]`).
    pub cache_shards: usize,
    /// Mantissa bits dropped when quantizing plasma states (0 = exact
    /// keys, no state snapping).
    pub quantize_drop_bits: u32,
    /// What to do with requests that arrive while the queue is full.
    pub admission: AdmissionPolicy,
    /// Interactive-class request-queue capacity — the service-tier
    /// admission bound for latency-sensitive traffic.
    pub request_queue_depth: usize,
    /// Bulk-class request-queue capacity. Separate from the
    /// interactive bound so a bulk sweep saturating its own queue
    /// sheds bulk, never interactive.
    pub bulk_queue_depth: usize,
    /// Weighted-fair service ratio: interactive requests dequeued per
    /// bulk one while both classes are backlogged (floored at 1 — bulk
    /// never starves).
    pub interactive_weight: u32,
    /// Most requests one batch may coalesce.
    pub max_batch: usize,
    /// How many times a batch re-fans-out ion partials the engine
    /// failed to answer (device faults with CPU fallback disabled)
    /// before affected requests are refused with
    /// [`ServiceError::DeviceFailed`]. The engine's own per-task retry
    /// ladder runs *inside* each fan-out; this budget bounds the
    /// service's attempts above it.
    pub fanout_retries: u32,
}

impl ServiceConfig {
    /// A bitwise-deterministic service over `db` and `grids`: the
    /// engine runs the fused kernel in single-chunk mode with the same
    /// Simpson bin rule on both the device and the CPU fallback, so an
    /// answer is identical no matter where (or whether cached) each
    /// ion partial was computed.
    #[must_use]
    pub fn deterministic(db: Arc<AtomDatabase>, grids: Vec<EnergyGrid>) -> ServiceConfig {
        ServiceConfig {
            engine: EngineConfig::deterministic(db, 4),
            grids,
            cache_capacity: 4096,
            cache_shards: 8,
            quantize_drop_bits: 0,
            admission: AdmissionPolicy::Shed,
            request_queue_depth: 64,
            bulk_queue_depth: 64,
            interactive_weight: 4,
            max_batch: 16,
            fanout_retries: 2,
        }
    }
}

/// Everything [`SpectralService::shutdown`] reports after draining.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// The drained engine's counters (task split, device accounting,
    /// leaked grants — must be zero).
    pub engine: EngineReport,
    /// Cache effectiveness counters.
    pub cache: CacheStats,
    /// Service counters and latency quantiles.
    pub metrics: MetricsSnapshot,
}

struct QueuedRequest {
    request: SpectrumRequest,
    submitted_at: Instant,
    reply: Sender<Result<SpectrumResponse, ServiceError>>,
}

struct Shared {
    grids: Vec<EnergyGrid>,
    bin_tables: Vec<Arc<Vec<(f64, f64)>>>,
    /// Most requests one batch coalesces ([`ServiceConfig::max_batch`],
    /// floored at 1).
    max_batch: usize,
    /// The one quantizer every request is keyed with
    /// ([`ServiceConfig::quantize_drop_bits`]).
    quantizer: Quantizer,
    fanout_retries: u32,
    queue: PriorityQueues<QueuedRequest>,
    engine: Engine,
    cache: ShardedLruCache,
    metrics: ServiceMetrics,
}

/// The running service. Submit from any thread; shut down (or drop)
/// to drain the queue, stop the batcher, and tear the engine down.
pub struct SpectralService {
    shared: Option<Arc<Shared>>,
    admission: AdmissionPolicy,
    batcher: Option<std::thread::JoinHandle<()>>,
}

impl SpectralService {
    /// Bring the service up: engine, cache, metrics, batcher thread.
    ///
    /// # Panics
    /// Panics if `config.grids` is empty — a service with no grid can
    /// answer nothing.
    #[must_use]
    pub fn start(config: ServiceConfig) -> SpectralService {
        assert!(!config.grids.is_empty(), "service needs at least one grid");
        let bin_tables = config
            .grids
            .iter()
            .map(|g| Arc::new(g.bin_pairs()))
            .collect();
        let shared = Arc::new(Shared {
            bin_tables,
            max_batch: config.max_batch.max(1),
            quantizer: Quantizer::new(config.quantize_drop_bits),
            fanout_retries: config.fanout_retries,
            queue: PriorityQueues::new(
                [
                    config.request_queue_depth.max(1),
                    config.bulk_queue_depth.max(1),
                ],
                config.interactive_weight,
            ),
            engine: Engine::start(config.engine),
            cache: ShardedLruCache::new(config.cache_capacity, config.cache_shards),
            metrics: ServiceMetrics::new(),
            grids: config.grids,
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("service-batcher".into())
                .spawn(move || batcher_loop(&shared))
                .expect("spawn service batcher")
        };
        SpectralService {
            shared: Some(shared),
            admission: config.admission,
            batcher: Some(batcher),
        }
    }

    fn shared(&self) -> &Arc<Shared> {
        self.shared
            .as_ref()
            .expect("service is live until consumed")
    }

    /// Submit one request. Returns a [`Ticket`] for the response, or an
    /// admission/validation error.
    ///
    /// Admission runs two gates in order. First the **SLO gate**: a
    /// request carrying a [`desim::Deadline`] whose remaining budget
    /// cannot cover the cost model's blended compute estimate is shed
    /// with [`ServiceError::DeadlineInfeasible`] *before* touching any
    /// queue — an impossible deadline must waste zero fan-outs. Then
    /// the **capacity gate**: the request's class queue either accepts
    /// it or the configured [`AdmissionPolicy`] decides.
    ///
    /// # Errors
    /// [`ServiceError::UnknownGrid`] for an out-of-range grid id;
    /// [`ServiceError::DeadlineInfeasible`] from the SLO gate;
    /// [`ServiceError::Overloaded`] when the class queue is full under
    /// the shed policy; [`ServiceError::Closed`] during shutdown. Under
    /// the caller-runs policy a full queue computes the answer on this
    /// thread and returns an already-resolved ticket.
    pub fn submit(&self, request: SpectrumRequest) -> Result<Ticket, ServiceError> {
        let shared = self.shared();
        if request.grid_id >= shared.grids.len() {
            return Err(ServiceError::UnknownGrid);
        }
        if let Some(deadline) = request.deadline {
            let estimate = estimate_request_seconds(shared, &request);
            if deadline.remaining(&shared.engine.config().clock) < estimate {
                shared.metrics.on_shed_infeasible();
                return Err(ServiceError::DeadlineInfeasible);
            }
        }
        let priority = request.priority;
        let (tx, rx) = channel();
        let queued = QueuedRequest {
            request,
            submitted_at: Instant::now(),
            reply: tx,
        };
        match shared.queue.try_push(priority, queued) {
            Ok(()) => {
                shared.metrics.on_submitted(shared.queue.len());
                Ok(Ticket { rx })
            }
            Err(TryPushError::Closed(_)) => Err(ServiceError::Closed),
            Err(TryPushError::Full(queued)) => match self.admission {
                AdmissionPolicy::Shed => {
                    shared.metrics.on_shed_queue_full();
                    Err(ServiceError::Overloaded)
                }
                AdmissionPolicy::CallerRuns => {
                    let start = queued.submitted_at;
                    let response = caller_run(shared, &queued.request);
                    shared
                        .metrics
                        .on_caller_run(priority, start.elapsed().as_secs_f64());
                    Ok(Ticket::resolved(Ok(response)))
                }
            },
        }
    }

    /// Current request-queue occupancy across both priority classes.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.shared().queue.len()
    }

    /// Current occupancy of one priority class's queue.
    #[must_use]
    pub fn class_queue_len(&self, priority: Priority) -> usize {
        self.shared().queue.class_len(priority)
    }

    /// The interactive-class request-queue capacity (admission bound).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared().queue.capacity(Priority::Interactive)
    }

    /// The clock this service measures request deadlines against (the
    /// engine's [`EngineConfig::clock`]).
    #[must_use]
    pub fn clock(&self) -> &VirtualClock {
        &self.shared().engine.config().clock
    }

    /// Live metrics snapshot, including the scheduler's steal counters
    /// and weighted backlogs.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let shared = self.shared();
        shared
            .metrics
            .snapshot()
            .with_scheduler(&shared.engine.scheduler_snapshot())
            .with_cache(&shared.cache)
    }

    /// Live cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.shared().cache.stats()
    }

    /// Live scheduler load/history view of the backing engine.
    #[must_use]
    pub fn scheduler_snapshot(&self) -> SchedulerSnapshot {
        self.shared().engine.scheduler_snapshot()
    }

    /// Graceful shutdown: refuse new requests, answer everything
    /// already queued, join the batcher, drain the engine, report.
    #[must_use]
    pub fn shutdown(mut self) -> ServiceReport {
        self.do_shutdown().expect("service not yet shut down")
    }

    fn do_shutdown(&mut self) -> Option<ServiceReport> {
        let shared = self.shared.take()?;
        shared.queue.close();
        if let Some(handle) = self.batcher.take() {
            handle.join().expect("service batcher panicked");
        }
        let shared = Arc::try_unwrap(shared)
            .ok()
            .expect("batcher joined; no other holders of the service state");
        let cache = shared.cache.stats();
        let metrics = shared
            .metrics
            .snapshot()
            .with_scheduler(&shared.engine.scheduler_snapshot())
            .with_cache(&shared.cache);
        let engine = shared.engine.shutdown();
        Some(ServiceReport {
            engine,
            cache,
            metrics,
        })
    }
}

impl Drop for SpectralService {
    /// Dropping without [`SpectralService::shutdown`] still drains and
    /// joins — queued requests are answered, grants are freed.
    fn drop(&mut self) {
        let _ = self.do_shutdown();
    }
}

/// The ions of the database a request selects, ascending. Public
/// because the shard router must partition exactly this set: the
/// sharded fold reproduces the single-engine response bitwise only
/// when both tiers agree on which ions a request names and in which
/// order their partials are summed.
#[must_use]
pub fn selected_ions(db: &AtomDatabase, request: &SpectrumRequest) -> Vec<usize> {
    db.ions()
        .iter()
        .enumerate()
        .filter(|(_, ion)| request.elements.selects(ion.z))
        .map(|(i, _)| i)
        .collect()
}

/// Sum `ions`' partials (ascending order is the caller's contract)
/// into a fresh bin vector. Public for the shard router: gathering
/// per-ion partials from shards and folding them **here**, in the same
/// ascending order starting from the same zero vector, is what makes a
/// sharded response bitwise identical to the single-engine one —
/// floating-point addition is non-associative, so folding per-shard
/// pre-sums instead would change the bits.
///
/// # Panics
/// Panics if any of `ions` has no entry in `partials`.
#[must_use]
pub fn assemble(
    bins: usize,
    ions: &[usize],
    partials: &BTreeMap<usize, Arc<Vec<f64>>>,
) -> Vec<f64> {
    let mut out = vec![0.0f64; bins];
    for ion in ions {
        let partial = &partials[ion];
        for (acc, v) in out.iter_mut().zip(partial.iter()) {
            *acc += v;
        }
    }
    out
}

/// Compute the cache-missing `pending` ions of state `key` on `engine`
/// and cache each answer under `(ion, key)` — the miss path the service
/// batcher and every shard replica share. `job` builds one ion's
/// [`IonJob`] around its reply sender. Under the engine's recovery
/// ladder every job normally answers (retry → reassign → CPU
/// fallback), but with CPU fallback disabled a job that exhausts its
/// device retries is dropped without a reply: the unanswered ions are
/// fanned out again up to `retries` times, each re-fan counted with
/// [`ServiceMetrics::on_fanout_retry`].
///
/// Returns the answered partials (the `Arc`s now cached) and whether
/// the engine refused a submission because it is shutting down;
/// `pending` is left holding the ions that never answered.
pub fn fill_misses(
    engine: &Engine,
    cache: &ShardedLruCache,
    metrics: &ServiceMetrics,
    retries: u32,
    key: StateKey,
    pending: &mut Vec<usize>,
    job: impl Fn(usize, Sender<IonOutcome>) -> IonJob,
) -> (BTreeMap<usize, Arc<Vec<f64>>>, bool) {
    let mut answered = BTreeMap::new();
    let mut closed = false;
    let mut refanouts = 0u32;
    while !pending.is_empty() {
        let fanned = engine.fan_out(pending.iter().copied(), &job);
        closed |= fanned.closed;
        for outcome in fanned.outcomes {
            let value = Arc::new(outcome.partial);
            cache.insert(
                CacheKey {
                    ion_index: outcome.ion_index,
                    state: key,
                },
                Arc::clone(&value),
            );
            answered.insert(outcome.ion_index, value);
        }
        pending.retain(|ion| !answered.contains_key(ion));
        if pending.is_empty() || refanouts >= retries {
            break;
        }
        refanouts += 1;
        metrics.on_fanout_retry(pending.len() as u64);
    }
    (answered, closed)
}

/// The caller-runs admission path: resolve the whole request on the
/// submitting thread via [`Engine::compute_inline`], still consulting
/// and filling the shared cache (so an overloaded burst of repeated
/// queries stays cheap).
fn caller_run(shared: &Shared, request: &SpectrumRequest) -> SpectrumResponse {
    let db = &shared.engine.config().db;
    let key = shared.quantizer.state_key(&request.point, request.grid_id);
    let point = shared.quantizer.representative(&key);
    let grid = &shared.grids[request.grid_id];
    let ions = selected_ions(db, request);
    let mut partials: BTreeMap<usize, Arc<Vec<f64>>> = BTreeMap::new();
    let mut computed = 0u64;
    for &ion in &ions {
        let cache_key = CacheKey {
            ion_index: ion,
            state: key,
        };
        let partial = match shared.cache.get(&cache_key) {
            Some(hit) => hit,
            None => {
                let levels = db.levels_by_index(ion).len();
                let outcome = shared.engine.compute_inline(ion, 0..levels, &point, grid);
                computed += 1;
                let value = Arc::new(outcome.partial);
                shared.cache.insert(cache_key, Arc::clone(&value));
                value
            }
        };
        partials.insert(ion, partial);
    }
    SpectrumResponse {
        bins: assemble(grid.bins(), &ions, &partials),
        grid_id: request.grid_id,
        ions_computed: computed,
        ions_from_cache: ions.len() as u64 - computed,
        caller_ran: true,
    }
}

/// The optimistic wall-seconds estimate SLO admission prices a request
/// at: blended per-ion cost units rescaled by the fastest observed
/// device rate, summed over the selected ions, divided by the device
/// count (the fan-out runs ions in parallel). Optimistic on purpose —
/// admission must only shed requests that are infeasible even under
/// the best placement. Before the first measured settle the estimate
/// is 0 (no absolute time scale yet → admit).
fn estimate_request_seconds(shared: &Shared, request: &SpectrumRequest) -> f64 {
    let db = &shared.engine.config().db;
    let bins = &shared.bin_tables[request.grid_id];
    let serial: f64 = selected_ions(db, request)
        .into_iter()
        .map(|ion| {
            let levels = db.levels_by_index(ion).len();
            shared
                .engine
                .estimate_task_seconds(ion, 0..levels, &request.point, bins)
        })
        .sum();
    serial / shared.engine.gpus().max(1) as f64
}

fn batcher_loop(shared: &Shared) {
    while let Some((_, first)) = shared.queue.pop() {
        let mut batch = vec![first];
        while batch.len() < shared.max_batch {
            match shared.queue.try_pop() {
                Some((_, next)) => batch.push(next),
                None => break,
            }
        }
        let picked_at = Instant::now();
        for queued in &batch {
            shared
                .metrics
                .on_picked_up(picked_at.duration_since(queued.submitted_at).as_secs_f64());
        }
        shared.metrics.on_batch(batch.len());
        process_batch(shared, batch, picked_at);
    }
}

fn process_batch(shared: &Shared, batch: Vec<QueuedRequest>, picked_at: Instant) {
    let db = &shared.engine.config().db;
    // Group requests sharing a quantized plasma state + grid; BTreeMap
    // so group processing order is deterministic.
    let mut groups: BTreeMap<StateKey, Vec<usize>> = BTreeMap::new();
    for (i, queued) in batch.iter().enumerate() {
        let key = shared
            .quantizer
            .state_key(&queued.request.point, queued.request.grid_id);
        groups.entry(key).or_default().push(i);
    }

    for (key, members) in groups {
        let point = shared.quantizer.representative(&key);
        let grid = &shared.grids[key.grid_id];
        let bins = &shared.bin_tables[key.grid_id];

        // Per-request ion lists and their union — one fan-out serves
        // every member of the group.
        let member_ions: Vec<Vec<usize>> = members
            .iter()
            .map(|&i| selected_ions(db, &batch[i].request))
            .collect();
        let union: BTreeSet<usize> = member_ions.iter().flatten().copied().collect();
        // The group's earliest deadline rides on every fanned-out ion:
        // one fan-out serves all members, so EDF staging must honour
        // the most urgent of them (INFINITY when none carries an SLO).
        let group_deadline = members
            .iter()
            .map(|&i| batch[i].request.deadline_secs())
            .fold(f64::INFINITY, f64::min);

        let mut partials: BTreeMap<usize, Arc<Vec<f64>>> = BTreeMap::new();
        let mut computed: BTreeSet<usize> = BTreeSet::new();
        let mut pending: Vec<usize> = Vec::new();
        for &ion in &union {
            let cache_key = CacheKey {
                ion_index: ion,
                state: key,
            };
            match shared.cache.get(&cache_key) {
                Some(hit) => {
                    partials.insert(ion, hit);
                }
                None => {
                    computed.insert(ion);
                    pending.push(ion);
                }
            }
        }

        // Requests touching an ion the engine never answered are
        // refused.
        let (answered, closed) = fill_misses(
            &shared.engine,
            &shared.cache,
            &shared.metrics,
            shared.fanout_retries,
            key,
            &mut pending,
            |ion, reply| IonJob {
                ion_index: ion,
                level_range: 0..db.levels_by_index(ion).len(),
                point,
                grid: grid.clone(),
                bins: Arc::clone(bins),
                tag: ion as u64,
                deadline: group_deadline,
                reply,
            },
        );
        assert!(!closed, "engine outlives the batcher");
        partials.extend(answered);
        let failed: BTreeSet<usize> = pending.into_iter().collect();

        for (&i, ions) in members.iter().zip(&member_ions) {
            let queued = &batch[i];
            if ions.iter().any(|ion| failed.contains(ion)) {
                shared.metrics.on_device_failure();
                let _ = queued.reply.send(Err(ServiceError::DeviceFailed));
                continue;
            }
            let from_cache = ions.iter().filter(|ion| !computed.contains(ion)).count();
            let response = SpectrumResponse {
                bins: assemble(grid.bins(), ions, &partials),
                grid_id: key.grid_id,
                ions_computed: (ions.len() - from_cache) as u64,
                ions_from_cache: from_cache as u64,
                caller_ran: false,
            };
            // Count the response before releasing its waiter: a caller
            // that reads the metrics right after `Ticket::wait` returns
            // must find its own response in them.
            let now = Instant::now();
            shared.metrics.on_responded(
                queued.request.priority,
                now.duration_since(picked_at).as_secs_f64(),
                now.duration_since(queued.submitted_at).as_secs_f64(),
            );
            let _ = queued.reply.send(Ok(response));
        }
    }
}
