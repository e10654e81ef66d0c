//! The spectral query service: admission → batching → engine fan-out →
//! cache fill → response assembly.
//!
//! One batcher thread drains the bounded request queue. Each drain
//! takes everything immediately available (up to `max_batch`), groups
//! the requests by quantized plasma state + grid ([`StateKey`]), and
//! per group serves the *union* of the requested ions through the
//! [`ServeCore`] — one engine job per ion that the cache cannot
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
use hybrid_spectral::engine::{EngineConfig, EngineReport};
use mpi_sim::TryPushError;
use rrc_spectral::EnergyGrid;

use crate::api::{AdmissionPolicy, ServiceError, SpectrumRequest, SpectrumResponse, Ticket};
use crate::cache::CacheStats;
use crate::metrics::MetricsSnapshot;
use crate::pqueue::PriorityQueues;
use crate::quantize::{Quantizer, StateKey};
use crate::serve::ServeCore;

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
    core: ServeCore,
    /// Most requests one batch coalesces ([`ServiceConfig::max_batch`],
    /// floored at 1).
    max_batch: usize,
    /// The one quantizer every request is keyed with
    /// ([`ServiceConfig::quantize_drop_bits`]).
    quantizer: Quantizer,
    queue: PriorityQueues<QueuedRequest>,
}

/// The running service. Submit from any thread; shut down (or drop)
/// to drain the queue, stop the batcher, and tear the engine down.
pub struct SpectralService {
    shared: Option<Arc<Shared>>,
    admission: AdmissionPolicy,
    batcher: Option<std::thread::JoinHandle<()>>,
}

impl SpectralService {
    /// Bring the service up: serving core, queues, batcher thread.
    ///
    /// # Panics
    /// Panics if `config.grids` is empty — a service with no grid can
    /// answer nothing.
    #[must_use]
    pub fn start(config: ServiceConfig) -> SpectralService {
        assert!(!config.grids.is_empty(), "service needs at least one grid");
        let shared = Arc::new(Shared {
            max_batch: config.max_batch.max(1),
            quantizer: Quantizer::new(config.quantize_drop_bits),
            queue: PriorityQueues::new(
                [
                    config.request_queue_depth.max(1),
                    config.bulk_queue_depth.max(1),
                ],
                config.interactive_weight,
            ),
            core: ServeCore::start(
                config.engine,
                config.grids,
                config.cache_capacity,
                config.cache_shards,
                config.fanout_retries,
            ),
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
        let metrics = shared.core.recorder();
        if request.grid_id >= shared.core.grids().len() {
            return Err(ServiceError::UnknownGrid);
        }
        if let Some(deadline) = request.deadline {
            let estimate = estimate_request_seconds(&shared.core, &request);
            if deadline.remaining(&shared.core.engine().config().clock) < estimate {
                metrics.on_shed_infeasible();
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
                metrics.on_submitted(shared.queue.len());
                Ok(Ticket { rx })
            }
            Err(TryPushError::Closed(_)) => Err(ServiceError::Closed),
            Err(TryPushError::Full(queued)) => match self.admission {
                AdmissionPolicy::Shed => {
                    metrics.on_shed_queue_full();
                    Err(ServiceError::Overloaded)
                }
                AdmissionPolicy::CallerRuns => {
                    let start = queued.submitted_at;
                    let response = caller_run(shared, &queued.request);
                    metrics.on_caller_run(priority, start.elapsed().as_secs_f64());
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
        &self.shared().core.engine().config().clock
    }

    /// Live metrics snapshot, including the scheduler's steal counters
    /// and weighted backlogs.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared().core.metrics()
    }

    /// Live cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.shared().core.cache().stats()
    }

    /// Live scheduler load/history view of the backing engine.
    #[must_use]
    pub fn scheduler_snapshot(&self) -> SchedulerSnapshot {
        self.shared().core.engine().scheduler_snapshot()
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
        Some(shared.core.shutdown())
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

/// The caller-runs admission path: resolve the whole request on the
/// submitting thread via [`ServeCore::serve_inline`], still consulting
/// and filling the shared cache (so an overloaded burst of repeated
/// queries stays cheap).
fn caller_run(shared: &Shared, request: &SpectrumRequest) -> SpectrumResponse {
    let core = &shared.core;
    let key = shared.quantizer.state_key(&request.point, request.grid_id);
    let point = shared.quantizer.representative(&key);
    let ions = selected_ions(&core.engine().config().db, request);
    let served = core.serve_inline(key, &point, &ions);
    let from_cache = served.hits as u64;
    let partials: BTreeMap<usize, Arc<Vec<f64>>> = served.partials.into_iter().collect();
    SpectrumResponse {
        bins: assemble(core.grids()[request.grid_id].bins(), &ions, &partials),
        grid_id: request.grid_id,
        ions_computed: ions.len() as u64 - from_cache,
        ions_from_cache: from_cache,
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
fn estimate_request_seconds(core: &ServeCore, request: &SpectrumRequest) -> f64 {
    let engine = core.engine();
    let db = &engine.config().db;
    let bins = core.bins(request.grid_id);
    let serial: f64 = selected_ions(db, request)
        .into_iter()
        .map(|ion| {
            let levels = db.levels_by_index(ion).len();
            engine.estimate_task_seconds(ion, 0..levels, &request.point, bins)
        })
        .sum();
    serial / engine.gpus().max(1) as f64
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
        let metrics = shared.core.recorder();
        for queued in &batch {
            metrics.on_picked_up(picked_at.duration_since(queued.submitted_at).as_secs_f64());
        }
        metrics.on_batch(batch.len());
        process_batch(shared, batch, picked_at);
    }
}

fn process_batch(shared: &Shared, batch: Vec<QueuedRequest>, picked_at: Instant) {
    let core = &shared.core;
    let metrics = core.recorder();
    let db = &core.engine().config().db;
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
        let grid = &core.grids()[key.grid_id];

        // Per-request ion lists and their ascending union — one serve
        // answers every member of the group.
        let member_ions: Vec<Vec<usize>> = members
            .iter()
            .map(|&i| selected_ions(db, &batch[i].request))
            .collect();
        let mut union: Vec<usize> = member_ions.concat();
        union.sort_unstable();
        union.dedup();
        // The group's earliest deadline rides on every fanned-out ion:
        // one fan-out serves all members, so EDF staging must honour
        // the most urgent of them (INFINITY when none carries an SLO).
        let group_deadline = members
            .iter()
            .map(|&i| batch[i].request.deadline_secs())
            .fold(f64::INFINITY, f64::min);

        let served = core.serve(key, &point, &union, group_deadline);
        let computed: BTreeSet<usize> = served.partials[served.hits..]
            .iter()
            .map(|&(ion, _)| ion)
            .collect();
        let partials: BTreeMap<usize, Arc<Vec<f64>>> = served.partials.into_iter().collect();
        let failed = served.failed;

        // Requests touching an ion the engine never answered are
        // refused.
        for (&i, ions) in members.iter().zip(&member_ions) {
            let queued = &batch[i];
            if ions.iter().any(|ion| failed.contains(ion)) {
                metrics.on_device_failure();
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
            metrics.on_responded(
                queued.request.priority,
                now.duration_since(picked_at).as_secs_f64(),
                now.duration_since(queued.submitted_at).as_secs_f64(),
            );
            let _ = queued.reply.send(Ok(response));
        }
    }
}
