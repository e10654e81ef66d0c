//! The resident hybrid engine — paper Fig. 2 as a long-lived service
//! backend.
//!
//! [`crate::runtime::HybridRunner`] runs one fixed
//! [`rrc_spectral::ParameterSpace`] to completion and tears everything
//! down. A query service cannot work that way: it needs the rank
//! workers, the shared-memory scheduler and the simulated devices
//! brought up **once**, fed coarse-grained ion tasks for as long as the
//! process lives, and torn down gracefully (drain the queues, free
//! every [`hybrid_sched::Grant`], join every thread). [`Engine`] is that
//! resident form; `HybridRunner::run` is now a thin batch client of it.
//!
//! ## Cost-aware staged execution
//!
//! Submission of one [`IonJob`] generalizes the paper's Algorithm 1
//! step: a worker estimates the task's work with
//! [`crate::cost::ion_task_cost`], asks the scheduler for a device
//! under the configured [`SchedPolicy`], and **stages** the granted
//! task on that device's [`StealQueues`] lane rather than launching it
//! itself. One *pump* thread per device drains its lane in FIFO order —
//! and when its own lane runs dry, steals the largest-cost task from
//! the most-backlogged other lane (the grant moves with
//! [`Scheduler::reassign`], so accounting never leaks). When every
//! device queue is full, the worker runs the task on its own CPU
//! (paper fallback) — first offering to *swap*: if some staged device
//! task is heavier than the incoming one, the worker pulls that task
//! back to its CPU ([`Scheduler::release_to_cpu`]) and stages the
//! lighter incoming task in the freed slot.
//!
//! ## Synchronous device lanes
//!
//! A lane is one thread. The pump runs each task's kernel **itself**,
//! as the device's work ([`gpu_sim::SimGpu::run_inline`]: the busy-time,
//! task and panic accounting of a queued command, the unwind contained),
//! then settles it — deadline watchdog, copy-back fault point, cost-model
//! charge, grant free with the observed service time, reply — and only
//! then looks at its lane again. This is the paper's executor ("the CPU
//! will be blocked until the result is back"). The simulated device is
//! a host thread and the settle is accounting, so handing kernel and
//! settle to further threads overlapped nothing and cost a relay of
//! wake-ups per ion that, once the kernel was fast, matched the kernel
//! itself (DESIGN.md "Synchronous device lanes" has the measurements).
//!
//! ## One wake per fan-out
//!
//! A request is a set of ion jobs whose outcomes are wanted together.
//! [`Engine::fan_out`] submits them and parks the caller **once**: a
//! countdown rides beside every job inside the engine and is released
//! wherever the job ends — reply sent, job dropped unanswered, engine
//! shutting down — so the caller wakes when the last one is accounted
//! for and can never wait on a job that will not answer.
//!
//! ## Placement-invariant numerics
//!
//! With [`EngineConfig::deterministic_kernel`] set, device tasks launch
//! the fused kernel as a **single chunk** (`LaunchConfig::new(1, 1)`),
//! which makes the kernel's operation sequence identical to the host
//! fused path ([`rrc_spectral::emissivity_into`] under the same bin
//! rule). When the CPU integrator is that same bin rule, an ion
//! partial is then **bitwise identical** no matter where the scheduler
//! placed it — or whether a steal moved it — because overlap and
//! stealing change *timing and placement*, never the operation
//! sequence. With it unset, device tasks use the covering launch
//! geometry (higher simulated parallelism, last-ulp placement
//! dependence — the PR 1 behaviour, kept for the batch runtime and its
//! benches).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Instant;

use atomdb::AtomDatabase;
use desim::VirtualClock;
use gpu_sim::{
    DeviceFault, DevicePtr, DeviceRule, FaultCounters, FusedBinKernel, LaunchConfig, Precision,
    SimGpu,
};
use hybrid_sched::{
    BreakerCounters, BreakerState, CostKey, CostModel, DeviceId, Grant, Next, SchedPolicy,
    Scheduler, SchedulerSnapshot, StealQueues,
};
use mpi_sim::{BoundedQueue, TryPushError};
use quadrature::MathMode;
use rrc_spectral::{
    emissivity_bins_into_mode, emissivity_into_mode, ion_integrands, level_window, EnergyGrid,
    GridPoint, Integrator, PreparedIntegrand, VectorPrepared,
};

use crate::cost::ion_task_cost;
use crate::pool::WorkspacePool;
use crate::resilience::{FaultStats, ResilienceConfig};
use crate::runtime::HybridConfig;

/// Configuration of a resident engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Atomic database (shared read-only by every worker and device).
    pub db: Arc<AtomDatabase>,
    /// Worker threads (the resident analogue of MPI ranks).
    pub workers: usize,
    /// Simulated GPU count (0 = every task runs on worker CPUs).
    pub gpus: usize,
    /// Maximum queue length per device (paper Algorithm 1).
    pub max_queue_len: u64,
    /// Placement policy: cost-aware weighted balancing (default) or
    /// the paper's count policy for A/B ablation.
    pub policy: SchedPolicy,
    /// Device-side integration rule.
    pub gpu_rule: DeviceRule,
    /// Device arithmetic precision.
    pub gpu_precision: Precision,
    /// CPU fallback integrator (paper: QAGS).
    pub cpu_integrator: Integrator,
    /// Capacity of the bounded ion-task queue feeding the workers —
    /// the engine-tier admission bound.
    pub queue_depth: usize,
    /// Single-chunk kernel launches for bitwise placement invariance
    /// (see the module docs). The service tier turns this on; the
    /// batch runtime leaves it off.
    pub deterministic_kernel: bool,
    /// Math mode for the fused device kernels and the worker/caller CPU
    /// paths: [`MathMode::Exact`] keeps the seed's scalar arithmetic
    /// bitwise; [`MathMode::Vector`] routes exponentials and the f64
    /// Simpson/Romberg accumulations through the lane-parallel
    /// [`quadrature::simd`] layer.
    pub math: MathMode,
    /// Fault injection, retry/backoff, deadline-watchdog and
    /// device-breaker configuration. [`ResilienceConfig::default`] is
    /// the fault-free production shape.
    pub resilience: ResilienceConfig,
    /// The stack's one clock: device breaker cooldowns run on it, and
    /// the service and router tiers built on this engine measure
    /// request deadlines, replica breaker cooldowns and the hedge
    /// budget on it. Production uses [`VirtualClock::real`];
    /// deterministic tests install [`VirtualClock::manual`] and advance
    /// it explicitly.
    pub clock: VirtualClock,
}

impl EngineConfig {
    /// A bitwise-deterministic engine over `db` with `workers` ranks:
    /// Simpson-64 on the devices and the CPU fallback, f64, Exact math
    /// and single-chunk kernel launches, so an ion partial has the same
    /// bits wherever it runs. Two devices of queue length 6 under
    /// cost-aware placement, an ion-task queue of twice the workers,
    /// fault-free, a real clock. The service and router
    /// tiers start from this.
    #[must_use]
    pub fn deterministic(db: Arc<AtomDatabase>, workers: usize) -> EngineConfig {
        EngineConfig {
            db,
            workers,
            gpus: 2,
            max_queue_len: 6,
            policy: SchedPolicy::CostAware,
            gpu_rule: DeviceRule::Simpson { panels: 64 },
            gpu_precision: Precision::Double,
            cpu_integrator: Integrator::Simpson { panels: 64 },
            queue_depth: 2 * workers,
            deterministic_kernel: true,
            math: MathMode::Exact,
            resilience: ResilienceConfig::default(),
            clock: VirtualClock::real(),
        }
    }

    /// Derive a resident-engine configuration from a batch
    /// [`HybridConfig`] (same devices, ranks-as-workers, same
    /// numerics; covering kernel launches; a real clock).
    #[must_use]
    pub fn from_hybrid(cfg: &HybridConfig) -> EngineConfig {
        EngineConfig {
            db: Arc::clone(&cfg.db),
            workers: cfg.ranks.max(1),
            gpus: cfg.gpus,
            max_queue_len: cfg.max_queue_len,
            policy: cfg.policy,
            gpu_rule: cfg.gpu_rule,
            gpu_precision: cfg.gpu_precision,
            cpu_integrator: cfg.cpu_integrator,
            queue_depth: 2 * cfg.ranks.max(1),
            deterministic_kernel: false,
            math: cfg.math,
            resilience: cfg.resilience.clone(),
            clock: VirtualClock::real(),
        }
    }
}

/// Where one ion task actually executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// On simulated GPU `device` via a scheduler grant.
    Gpu(usize),
    /// On an engine worker's CPU after the scheduler reported all
    /// device queues full (paper Algorithm 1 fallback).
    WorkerCpu,
    /// On the submitting caller's own thread
    /// ([`Engine::compute_inline`] — the service tier's caller-runs
    /// overload policy).
    CallerCpu,
}

/// One coarse-grained task: some levels of one ion at one plasma
/// state, integrated over one bin table.
pub struct IonJob {
    /// Index into [`AtomDatabase::ions`].
    pub ion_index: usize,
    /// Level sub-range of the ion (full range for Ion granularity).
    pub level_range: Range<usize>,
    /// Plasma state.
    pub point: GridPoint,
    /// The target spectrum grid.
    pub grid: EnergyGrid,
    /// The grid's bin bounds, hoisted once per grid and shared by
    /// every task (must equal `grid.bin_pairs()`): the GPU kernel and
    /// the worker CPU fallback both integrate over this table.
    pub bins: Arc<Vec<(f64, f64)>>,
    /// Caller correlation id, echoed in the outcome (the batch client
    /// stores the grid-point index here; the service stores the batch
    /// slot).
    pub tag: u64,
    /// Absolute completion deadline in clock seconds
    /// ([`f64::INFINITY`] = no deadline). Propagated from the request
    /// tier into the staging lanes, where local dequeue is
    /// earliest-deadline-first — a deadline never changes *where* a
    /// task runs (placement stays cost-aware) or its bits, only the
    /// order a device's staged backlog launches in.
    pub deadline: f64,
    /// Where to deliver the result.
    pub reply: Sender<IonOutcome>,
}

/// Result of one [`IonJob`].
#[derive(Debug)]
pub struct IonOutcome {
    /// Echo of [`IonJob::ion_index`].
    pub ion_index: usize,
    /// Echo of `IonJob::level_range.start` (orders Level-granularity
    /// partials deterministically).
    pub level_start: usize,
    /// Echo of [`IonJob::tag`].
    pub tag: u64,
    /// Per-bin partial emissivity (one slot per bin of the job's grid;
    /// all zeros for ions with no population at this state).
    pub partial: Vec<f64>,
    /// Where the task ran.
    pub path: ExecPath,
    /// Integrand evaluations performed (the cost-model work measure).
    pub evals: u64,
}

/// What [`Engine::fan_out`] hands back.
#[derive(Debug)]
pub struct FanOut {
    /// One outcome per answered job, in completion order.
    pub outcomes: Vec<IonOutcome>,
    /// The engine began shutting down during submission: the job it
    /// refused and every job after it were never submitted.
    pub closed: bool,
}

/// The caller side of one [`Engine::fan_out`]: how many of its jobs are
/// still somewhere inside the engine (plus one hold the submitter keeps
/// until it has submitted them all), and whom to wake at zero.
struct Countdown {
    remaining: AtomicUsize,
    waiter: std::thread::Thread,
}

/// Rides beside a job through the engine and releases one count of its
/// fan-out's [`Countdown`] when dropped — after the reply is sent,
/// when the job is dropped unanswered, when a refused submission hands
/// it back, or when a thread unwinds with it. Jobs submitted singly
/// carry an empty ticket.
struct Ticket(Option<Arc<Countdown>>);

impl Drop for Ticket {
    fn drop(&mut self) {
        if let Some(countdown) = &self.0 {
            // AcqRel: the reply sent before this drop happens-before
            // the waiter's Acquire read of zero, so its drain of the
            // reply channel sees every outcome.
            if countdown.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                countdown.waiter.unpark();
            }
        }
    }
}

/// A submitted job waiting in the ion-task queue.
struct Queued {
    job: IonJob,
    ticket: Ticket,
}

/// A granted-but-not-yet-launched device task parked on a steal lane.
struct StagedTask {
    job: IonJob,
    ticket: Ticket,
    grant: Grant,
    /// Launch attempts that already failed (0 on first staging); the
    /// recovery ladder bounds this by `resilience.max_retries`.
    attempts: u32,
    /// Workload class of the task — the settle reports measured device
    /// seconds against this key.
    key: CostKey,
    /// The static (a-priori) cost estimate, kept alongside the grant's
    /// possibly-blended cost so measured-vs-static residuals compare
    /// like with like.
    static_cost: u64,
    /// The granted device's virtual clock when the task was staged on
    /// its lane: the settle reports the modeled seconds charged since
    /// as [`gpu_sim::MeasuredCost::queue_wait_s`].
    staged_virtual_s: f64,
}

/// Counters one worker accumulates over its lifetime.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerStats {
    cpu_tasks: u64,
    workspaces_created: u64,
    workspace_acquisitions: u64,
}

/// What [`Engine::shutdown`] reports after draining.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Tasks executed on devices.
    pub gpu_tasks: u64,
    /// Tasks that fell back to worker CPUs.
    pub cpu_tasks: u64,
    /// Per-device history task counts from the scheduler.
    pub device_history: Vec<u64>,
    /// Per-device modeled busy seconds (cost-model time).
    pub device_virtual_seconds: Vec<f64>,
    /// Per-device peak on-board memory over the engine's life (bytes).
    pub device_peak_memory: Vec<u64>,
    /// Tasks each device stole from another device's staging lane.
    pub steals: Vec<u64>,
    /// Staged device tasks pulled back to worker CPUs by the fallback
    /// swap.
    pub cpu_steals: u64,
    /// QAGS workspaces constructed across the worker pools.
    pub workspaces_created: u64,
    /// Workspace acquisitions served by the worker pools.
    pub workspace_acquisitions: u64,
    /// Grants still outstanding after the drain — **must** be zero; a
    /// nonzero value means queue capacity leaked (also debug-asserted
    /// by the scheduler's drop).
    pub leaked_grants: u64,
    /// Device-task failures the recovery ladder handled (launch
    /// refusals, kernel panics, DMA failures, deadline overruns).
    pub task_faults: u64,
    /// Retry attempts issued (same-device re-stage or cross-device
    /// reassignment).
    pub task_retries: u64,
    /// Failures classified as deadline overruns by the settle watchdog.
    pub task_timeouts: u64,
    /// Tasks released to the host QAGS path after the ladder ran out of
    /// device options.
    pub fault_cpu_fallbacks: u64,
    /// Highest launch-attempt count any single task consumed — bounded
    /// by `resilience.max_retries + 1`.
    pub max_task_attempts: u64,
    /// Engine threads (workers or pumps) that died to a panic. The
    /// drain survives these; nonzero means a bug worth chasing.
    pub worker_panics: u64,
    /// Per-device count of device tasks that panicked on a device
    /// worker (injected kernel panics land here).
    pub device_panics: Vec<u64>,
    /// Per-device injected-fault counters from each device's
    /// [`gpu_sim::FaultInjector`].
    pub device_faults: Vec<FaultCounters>,
    /// Final breaker state of every device.
    pub device_breakers: Vec<BreakerState>,
    /// Device breaker transitions over the run, summed across devices.
    pub breaker_counters: BreakerCounters,
    /// Ion partials pushed into this engine's tier from outside its own
    /// compute path — hot-state replication and migration cache handoff
    /// (see [`Engine::note_warm_insert`]). These ions were *never
    /// computed here*; accounting them separately keeps exactly-once
    /// audits honest (`computed + handed-off + cached == total`).
    pub warmed_ions: u64,
}

/// The resident engine handle. Submit [`IonJob`]s from any number of
/// threads; call [`Engine::shutdown`] (or drop) to drain and join.
pub struct Engine {
    config: EngineConfig,
    queue: BoundedQueue<Queued>,
    staged: StealQueues<StagedTask>,
    scheduler: Scheduler,
    devices: Arc<Vec<SimGpu>>,
    workers: Vec<std::thread::JoinHandle<WorkerStats>>,
    pumps: Vec<std::thread::JoinHandle<()>>,
    fault_stats: Arc<FaultStats>,
    /// The online measured-cost blend: placement reads it, every device
    /// settle feeds it.
    cost: Arc<CostModel>,
    warm_inserts: AtomicU64,
}

impl Engine {
    /// Bring the engine up: devices, scheduler, staging lanes, worker
    /// threads, and one pump thread per device.
    #[must_use]
    pub fn start(config: EngineConfig) -> Engine {
        let devices: Arc<Vec<SimGpu>> = Arc::new(
            (0..config.gpus)
                .map(|d| {
                    SimGpu::with_faults(
                        gpu_sim::DeviceProps::tesla_c2075(),
                        config.resilience.plan_for(d),
                    )
                })
                .collect(),
        );
        let scheduler = Scheduler::with_breakers(
            config.gpus,
            config.max_queue_len,
            config.policy,
            config.resilience.breaker,
            config.clock.clone(),
        );
        let fault_stats = Arc::new(FaultStats::default());
        let queue: BoundedQueue<Queued> = BoundedQueue::new(config.queue_depth.max(1));
        let staged: StealQueues<StagedTask> = StealQueues::new(config.gpus);
        let cost = Arc::new(CostModel::new());
        let workers = (0..config.workers.max(1))
            .map(|w| {
                let queue = queue.clone();
                let scheduler = scheduler.clone();
                let staged = staged.clone();
                let devices = Arc::clone(&devices);
                let config = config.clone();
                let cost = Arc::clone(&cost);
                std::thread::Builder::new()
                    .name(format!("engine-worker-{w}"))
                    .spawn(move || {
                        worker_loop(&config, &queue, &scheduler, &staged, &devices, &cost)
                    })
                    .expect("spawn engine worker")
            })
            .collect();
        let pumps = (0..config.gpus)
            .map(|d| {
                let scheduler = scheduler.clone();
                let staged = staged.clone();
                let devices = Arc::clone(&devices);
                let config = config.clone();
                let fault_stats = Arc::clone(&fault_stats);
                let cost = Arc::clone(&cost);
                std::thread::Builder::new()
                    .name(format!("engine-pump-{d}"))
                    .spawn(move || {
                        pump_loop(&Lane {
                            d,
                            config: &config,
                            scheduler: &scheduler,
                            staged: &staged,
                            devices: &devices,
                            fault_stats: &fault_stats,
                            cost: &cost,
                        })
                    })
                    .expect("spawn engine pump")
            })
            .collect();
        Engine {
            config,
            queue,
            staged,
            scheduler,
            devices,
            workers,
            pumps,
            fault_stats,
            cost,
            warm_inserts: AtomicU64::new(0),
        }
    }

    /// Record `n` ion partials warmed into this engine's tier from
    /// outside its own compute path (hot-state replication, migration
    /// cache handoff). The engine never computes these; the hook exists
    /// so [`EngineReport::warmed_ions`] can attribute warmed work in
    /// the same report that attributes computed work.
    pub fn note_warm_insert(&self, n: u64) {
        self.warm_inserts.fetch_add(n, Ordering::Relaxed);
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Blocking submit: waits for a free queue slot.
    ///
    /// # Errors
    /// Returns the job back if the engine is shutting down.
    // The Err variant is the job itself so callers keep ownership on
    // shutdown; boxing it would push an allocation onto every submit.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, job: IonJob) -> Result<(), IonJob> {
        let ticket = Ticket(None);
        self.queue.push(Queued { job, ticket }).map_err(|q| q.job)
    }

    /// Non-blocking submit — the admission-control edge: a `Full`
    /// refusal hands the job back so the caller can shed it or run it
    /// inline.
    ///
    /// # Errors
    /// [`TryPushError::Full`] at capacity, [`TryPushError::Closed`]
    /// during shutdown; the job rides back inside the error.
    #[allow(clippy::result_large_err)] // the error carrying the job back IS the contract
    pub fn try_submit(&self, job: IonJob) -> Result<(), TryPushError<IonJob>> {
        let ticket = Ticket(None);
        self.queue
            .try_push(Queued { job, ticket })
            .map_err(|e| match e {
                TryPushError::Full(q) => TryPushError::Full(q.job),
                TryPushError::Closed(q) => TryPushError::Closed(q.job),
            })
    }

    /// Submit one job per item — `job` builds it around the reply
    /// sender it is handed — and return their outcomes, parking the
    /// caller **once** for the whole set rather than once per reply.
    /// Submission blocks for queue slots like [`Engine::submit`].
    ///
    /// Returns when every submitted job is accounted for, answered or
    /// not: a job the recovery ladder drops with
    /// `cpu_fallback_on_fault` off, or one refused because the engine
    /// is shutting down, simply contributes no outcome (callers re-fan
    /// the missing ions out or fail them).
    pub fn fan_out<T>(
        &self,
        items: impl IntoIterator<Item = T>,
        mut job: impl FnMut(T, Sender<IonOutcome>) -> IonJob,
    ) -> FanOut {
        let (tx, rx) = channel();
        let countdown = Arc::new(Countdown {
            remaining: AtomicUsize::new(1),
            waiter: std::thread::current(),
        });
        let mut closed = false;
        for item in items {
            countdown.remaining.fetch_add(1, Ordering::Relaxed);
            let queued = Queued {
                job: job(item, tx.clone()),
                ticket: Ticket(Some(Arc::clone(&countdown))),
            };
            // A refusal drops the job and with it the ticket.
            if self.queue.push(queued).is_err() {
                closed = true;
                break;
            }
        }
        // Give up the submitter's own hold (it kept the count above
        // zero, so no ticket has woken us yet), then sleep until the
        // last ticket does. `park` may return spuriously: re-check.
        countdown.remaining.fetch_sub(1, Ordering::AcqRel);
        while countdown.remaining.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        FanOut {
            outcomes: rx.try_iter().collect(),
            closed,
        }
    }

    /// Execute one ion task synchronously on the **caller's** thread —
    /// the paper's QAGS fallback lifted to the service tier (caller-runs
    /// overload policy). Uses the same CPU path as rejected tasks, so
    /// under a bin-rule integrator the result is bitwise identical to
    /// the queued paths.
    #[must_use]
    pub fn compute_inline(
        &self,
        ion_index: usize,
        level_range: Range<usize>,
        point: &GridPoint,
        grid: &EnergyGrid,
    ) -> IonOutcome {
        thread_local! {
            static POOL: std::cell::RefCell<WorkspacePool> =
                std::cell::RefCell::new(WorkspacePool::new());
        }
        let mut partial = vec![0.0f64; grid.bins()];
        let evals = POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            let mut ws = pool.acquire();
            let evals = emissivity_into_mode(
                &self.config.db,
                ion_index,
                level_range.clone(),
                point,
                grid,
                self.config.cpu_integrator,
                &mut ws,
                &mut partial,
                self.config.math,
            );
            pool.release(ws);
            evals
        });
        IonOutcome {
            ion_index,
            level_start: level_range.start,
            tag: 0,
            partial,
            path: ExecPath::CallerCpu,
            evals,
        }
    }

    /// Current occupancy of the ion-task queue.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Capacity of the ion-task queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.capacity()
    }

    /// Number of simulated devices.
    #[must_use]
    pub fn gpus(&self) -> usize {
        self.config.gpus
    }

    /// The fault injector of device `device` — the chaos hook tests and
    /// benches use to force deterministic device loss
    /// ([`gpu_sim::FaultInjector::force_lose`]).
    #[must_use]
    pub fn device_faults(&self, device: usize) -> Option<&gpu_sim::FaultInjector> {
        self.devices.get(device).map(SimGpu::faults)
    }

    /// Scheduler load/history/steal read for the metrics layer, with
    /// the engine-held measured-cost state overlaid: measured-vs-static
    /// cost residual and observation count.
    #[must_use]
    pub fn scheduler_snapshot(&self) -> SchedulerSnapshot {
        let mut snap = self.scheduler.snapshot();
        snap.cost_residual_milli = self.cost.residual_milli();
        snap.cost_observations = self.cost.observations();
        snap
    }

    /// The online measured-cost blend placement consults.
    #[must_use]
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// Optimistic wall-seconds estimate for one ion task: the blended
    /// cost units of the task's class rescaled by the **fastest**
    /// device's observed seconds-per-unit EWMA. Optimistic on purpose —
    /// SLO admission uses this to shed only requests that are
    /// infeasible even under the best placement, so admission can
    /// never refuse work the engine might still have finished in time.
    #[must_use]
    pub fn estimate_task_seconds(
        &self,
        ion_index: usize,
        level_range: Range<usize>,
        point: &GridPoint,
        bins: &Arc<Vec<(f64, f64)>>,
    ) -> f64 {
        let static_cost =
            ion_task_cost(&self.config.db, ion_index, level_range.clone(), point, bins);
        let key = CostKey::bucketed(
            self.config.db.ions()[ion_index].z,
            level_range.len(),
            bins.len(),
        );
        let units = self.cost.blended(&key, static_cost);
        // Until a first settle there is no absolute time scale: the
        // estimate is 0 (admit everything) rather than pricing work
        // off the placement prior.
        let rate = self.scheduler.min_observed_secs_per_unit().unwrap_or(0.0);
        units as f64 * rate
    }

    /// Whether every device's breaker is Open — the routing tier's
    /// demotion signal (a replica whose devices are all out routes
    /// around while its siblings can serve). `false` for a CPU-only
    /// engine.
    #[must_use]
    pub fn all_devices_open(&self) -> bool {
        self.scheduler.all_open()
    }

    /// Graceful shutdown: refuse new work, drain queued jobs, run every
    /// staged device task to its settle (freeing its grant), join
    /// workers and pumps, and report.
    #[must_use]
    pub fn shutdown(mut self) -> EngineReport {
        self.drain_and_join()
    }

    fn drain_and_join(&mut self) -> EngineReport {
        // Order matters: close the job queue and join workers first, so
        // no new tasks can be staged; then close the staging lanes and
        // join pumps (they drain every remaining staged task, stealing
        // across lanes if needed). A panicked thread is counted, not
        // propagated — shutdown must complete even mid-fault.
        self.queue.close();
        let mut totals = WorkerStats::default();
        let mut worker_panics = 0u64;
        for handle in self.workers.drain(..) {
            match handle.join() {
                Ok(stats) => {
                    totals.cpu_tasks += stats.cpu_tasks;
                    totals.workspaces_created += stats.workspaces_created;
                    totals.workspace_acquisitions += stats.workspace_acquisitions;
                }
                Err(_) => worker_panics += 1,
            }
        }
        self.staged.close();
        for handle in self.pumps.drain(..) {
            if handle.join().is_err() {
                worker_panics += 1;
            }
        }
        let snap = self.scheduler.snapshot();
        let fs = &self.fault_stats;
        EngineReport {
            gpu_tasks: fs.gpu_completions.load(Ordering::Relaxed),
            cpu_tasks: totals.cpu_tasks + fs.cpu_fallbacks.load(Ordering::Relaxed),
            device_history: snap.histories,
            device_virtual_seconds: self
                .devices
                .iter()
                .map(SimGpu::virtual_busy_seconds)
                .collect(),
            device_peak_memory: self.devices.iter().map(SimGpu::memory_peak).collect(),
            steals: snap.steals,
            cpu_steals: snap.cpu_steals,
            workspaces_created: totals.workspaces_created,
            workspace_acquisitions: totals.workspace_acquisitions,
            leaked_grants: self.scheduler.in_flight(),
            task_faults: fs.task_faults.load(Ordering::Relaxed),
            task_retries: fs.task_retries.load(Ordering::Relaxed),
            task_timeouts: fs.task_timeouts.load(Ordering::Relaxed),
            fault_cpu_fallbacks: fs.cpu_fallbacks.load(Ordering::Relaxed),
            max_task_attempts: fs.max_attempts.load(Ordering::Relaxed),
            worker_panics,
            device_panics: self.devices.iter().map(SimGpu::tasks_panicked).collect(),
            device_faults: self.devices.iter().map(|g| g.faults().counters()).collect(),
            device_breakers: snap.breakers,
            breaker_counters: snap.breaker_counters,
            warmed_ions: self.warm_inserts.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Engine {
    /// Dropping without [`Engine::shutdown`] still drains and joins —
    /// a resident process must never strand device tasks or grants.
    fn drop(&mut self) {
        if !self.workers.is_empty() || !self.pumps.is_empty() {
            let _ = self.drain_and_join();
        }
    }
}

/// Run one job on the calling worker's CPU and deliver its outcome.
/// The ticket is released on return — after the reply is sent.
fn run_cpu_task(config: &EngineConfig, pool: &mut WorkspacePool, job: IonJob, _ticket: Ticket) {
    let mut partial = vec![0.0f64; job.grid.bins()];
    let mut ws = pool.acquire();
    let evals = emissivity_bins_into_mode(
        &config.db,
        job.ion_index,
        job.level_range.clone(),
        &job.point,
        &job.bins,
        config.cpu_integrator,
        &mut ws,
        &mut partial,
        config.math,
    );
    pool.release(ws);
    let _ = job.reply.send(IonOutcome {
        ion_index: job.ion_index,
        level_start: job.level_range.start,
        tag: job.tag,
        partial,
        path: ExecPath::WorkerCpu,
        evals,
    });
}

/// Record one device failure in the device's breaker: sticky loss
/// opens it for good, anything transient feeds its rolling window.
fn note_device_failure(scheduler: &Scheduler, d: usize, fault: DeviceFault) {
    if fault == DeviceFault::Lost {
        scheduler.breaker(DeviceId(d)).lose();
    } else {
        scheduler.record_failure(DeviceId(d));
    }
}

/// Stage `task` on device `t`'s lane under its grant's cost and its
/// job's deadline, sampling that device's virtual clock so the settle
/// can report how long the task sat behind earlier charges.
fn stage_on(staged: &StealQueues<StagedTask>, devices: &[SimGpu], t: usize, mut task: StagedTask) {
    task.staged_virtual_s = devices[t].virtual_busy_seconds();
    let (cost, deadline) = (task.grant.cost, task.job.deadline);
    staged.stage_deadline(t, cost, deadline, task);
}

fn worker_loop(
    config: &EngineConfig,
    queue: &BoundedQueue<Queued>,
    scheduler: &Scheduler,
    staged: &StealQueues<StagedTask>,
    devices: &[SimGpu],
    cost_model: &CostModel,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let mut pool = WorkspacePool::new();
    while let Some(Queued { job, ticket }) = queue.pop() {
        let static_cost = ion_task_cost(
            &config.db,
            job.ion_index,
            job.level_range.clone(),
            &job.point,
            &job.bins,
        );
        let key = CostKey::bucketed(
            config.db.ions()[job.ion_index].z,
            job.level_range.len(),
            job.bins.len(),
        );
        // Placement compares *blended* units: static shape estimate
        // rescaled by the class's measured seconds-per-unit (exactly
        // the static units until the class has been observed).
        let cost = cost_model.blended(&key, static_cost);
        let stage = |grant: Grant, job: IonJob, ticket: Ticket| {
            let task = StagedTask {
                job,
                ticket,
                grant,
                attempts: 0,
                key,
                static_cost,
                staged_virtual_s: 0.0,
            };
            stage_on(staged, devices, grant.device.0, task);
        };
        let mut run_here = |job: IonJob, ticket: Ticket| {
            run_cpu_task(config, &mut pool, job, ticket);
            stats.cpu_tasks += 1;
        };
        match scheduler.alloc_cost(cost) {
            Some(grant) => stage(grant, job, ticket),
            None => {
                // All device queues full. Before burning this CPU on
                // the incoming task, check whether a *heavier* task is
                // still staged on a device: swapping it onto the CPU
                // and staging the light task in its slot shortens the
                // expected makespan (the slot the swap frees almost
                // always admits the lighter task).
                if let Some((_victim, heavy)) = staged.try_steal_over(cost) {
                    let heavy = heavy.item;
                    scheduler.release_to_cpu(heavy.grant);
                    match scheduler.alloc_cost(cost) {
                        Some(grant) => stage(grant, job, ticket),
                        None => run_here(job, ticket),
                    }
                    run_here(heavy.job, heavy.ticket);
                } else {
                    run_here(job, ticket);
                }
            }
        }
    }
    stats.workspaces_created = pool.created();
    stats.workspace_acquisitions = pool.acquired();
    stats
}

/// One device lane: what its pump thread needs to carry a staged task
/// through kernel, settle and recovery without leaving the thread.
struct Lane<'a> {
    d: usize,
    config: &'a EngineConfig,
    scheduler: &'a Scheduler,
    staged: &'a StealQueues<StagedTask>,
    devices: &'a [SimGpu],
    fault_stats: &'a FaultStats,
    cost: &'a CostModel,
}

/// Per-device pump: drain the device's staging lane (stealing when
/// idle) and run each task to completion on this thread — kernel, then
/// settle — before looking at the lane again.
///
/// Every fault point of the simulated device routes through here: a
/// launch refusal is caught before the kernel runs, a kernel panic is
/// contained by [`SimGpu::run_inline`] and surfaces as
/// [`gpu_sim::TaskError::Lost`], an injected stall trips the settle's
/// deadline watchdog, a DMA failure is detected by the settle itself —
/// and all of them feed [`Lane::recover_or_fallback`]. A retry may be
/// re-staged on any lane, including one whose pump has already exited
/// a closing engine; the pump that re-staged it is still running, and
/// in closed mode [`StealQueues::next`] hands it leftovers from *any*
/// lane, so retries staged during shutdown still drain.
fn pump_loop(lane: &Lane<'_>) {
    let Lane {
        d,
        config,
        scheduler,
        staged,
        ..
    } = *lane;
    let device = &lane.devices[d];
    // The lane's one device-side result buffer (a lane runs one task
    // at a time), re-sized when a task brings a different bin table.
    let mut buf: Option<DevicePtr> = None;

    loop {
        // Steal only with room to hold the reassigned grant — and only
        // while this device may receive work at all (a device whose
        // breaker is Open must not pull tasks toward itself); `next` itself
        // only steals once this lane is empty (device idle).
        let can_steal = scheduler.load(DeviceId(d)) < config.max_queue_len
            && scheduler.device_eligible(DeviceId(d));
        let task = match staged.next(d, can_steal) {
            Next::Local(t) => t.item,
            Next::Stolen { victim, task } => match scheduler.reassign(task.item.grant, DeviceId(d))
            {
                Ok(grant) => StagedTask {
                    grant,
                    staged_virtual_s: device.virtual_busy_seconds(),
                    ..task.item
                },
                Err(_) => {
                    // Raced to the bound: hand the task back and look
                    // again. No spin — the grants that filled this
                    // device are staged on (or on their way to) this
                    // lane, and `can_steal` is re-read first.
                    staged.stage(victim, task.cost, task.item);
                    continue;
                }
            },
            Next::Closed => break,
        };

        // Fault point 1 — kernel launch refusal (or sticky loss),
        // caught before anything runs.
        if let Err(fault) = device.faults().check_launch() {
            note_device_failure(scheduler, d, fault);
            lane.recover_or_fallback(task);
            continue;
        }

        let bytes = 8 * task.job.bins.len() as u64;
        if buf.map(|b| b.bytes) != Some(bytes) {
            if let Some(old) = buf.take() {
                device.free(old);
            }
            buf = device.malloc(bytes).ok();
        }
        lane.launch(task, buf.map_or(0, |b| b.bytes));
    }
    if let Some(ptr) = buf {
        device.free(ptr);
    }
}

impl Lane<'_> {
    /// Run one task on this thread as the device's work: the kernel,
    /// then the settle — copy-back accounting over `bytes_out` result
    /// bytes, grant free with the observed service time, reply.
    fn launch(&self, task: StagedTask, bytes_out: u64) {
        let (d, config, scheduler) = (self.d, self.config, self.scheduler);
        let device = &self.devices[d];
        let bytes_in = 64 + 16 * task.job.level_range.len() as u64;

        // Fault point 2 rides inside the device work: `fire_kernel`
        // injects panics (contained by `run_inline` — the settle sees
        // `TaskError::Lost`) and transient stalls (the settle's
        // deadline watchdog sees those).
        let launched_at = Instant::now();
        let result = device.run_inline(|| {
            device.faults().fire_kernel();
            run_kernel(config, &task.job)
        });

        // The settle is device work too (on hardware, the copy engine's
        // turn): same accounting, and a panic in it must not take the
        // lane down.
        let _ = device.run_inline(|| {
            // Watchdog: the deadline is measured from launch and
            // enforced here — injected stalls are finite, so the
            // settle always runs; a late result is discarded and the
            // task retried. Fault point 3 is the copy-back.
            let timed_out = config
                .resilience
                .task_deadline
                .is_some_and(|dl| launched_at.elapsed() > dl);
            let dma_fault = if result.is_ok() && !timed_out {
                device.faults().check_dma().err()
            } else {
                None
            };
            match result {
                Ok((partial, evals)) if !timed_out && dma_fault.is_none() => {
                    scheduler.record_success(DeviceId(d));
                    FaultStats::bump(&self.fault_stats.gpu_completions);
                    let measured = device.charge_task_measured(
                        evals,
                        bytes_in,
                        bytes_out,
                        task.staged_virtual_s,
                    );
                    // The in-situ measurement feeds both calibration
                    // loops: the per-class blend placement consults
                    // and the per-device seconds-per-unit EWMA.
                    self.cost
                        .observe(&task.key, task.static_cost, measured.device_s());
                    scheduler.free_observed(task.grant, measured.device_s());
                    let job = &task.job;
                    let _ = job.reply.send(IonOutcome {
                        ion_index: job.ion_index,
                        level_start: job.level_range.start,
                        tag: job.tag,
                        partial,
                        path: ExecPath::Gpu(d),
                        evals,
                    });
                }
                result => {
                    if result.is_err() {
                        // Kernel panic — or the whole device went.
                        let fault = if device.faults().is_lost() {
                            DeviceFault::Lost
                        } else {
                            DeviceFault::LaunchFailed
                        };
                        note_device_failure(scheduler, d, fault);
                    } else if timed_out {
                        FaultStats::bump(&self.fault_stats.task_timeouts);
                        scheduler.record_failure(DeviceId(d));
                    } else if let Some(fault) = dma_fault {
                        note_device_failure(scheduler, d, fault);
                    }
                    self.recover_or_fallback(task);
                }
            }
        });
    }

    /// The recovery ladder for one failed device task: bounded
    /// exponential backoff, then reassignment to another
    /// placement-eligible device (exact grant accounting via
    /// [`Scheduler::reassign`]), then a same-device re-stage if this
    /// device may still receive work, then
    /// [`Scheduler::release_to_cpu`] and the host QAGS path on this
    /// pump's own CPU.
    fn recover_or_fallback(&self, mut task: StagedTask) {
        let (from, scheduler, fault_stats) = (self.d, self.scheduler, self.fault_stats);
        let res = &self.config.resilience;
        let failures = task.attempts + 1; // the attempt that just failed
        fault_stats.note_attempts(failures);
        FaultStats::bump(&fault_stats.task_faults);
        if failures <= res.max_retries {
            std::thread::sleep(res.backoff_for(failures));
            task.attempts = failures;
            // Prefer moving the grant to a *different* eligible device —
            // retrying in place is pointless against a sticky loss and
            // counter-productive against a sick device.
            for t in (0..scheduler.devices())
                .filter(|&t| t != from && scheduler.device_eligible(DeviceId(t)))
            {
                match scheduler.reassign(task.grant, DeviceId(t)) {
                    Ok(grant) => {
                        task.grant = grant;
                        FaultStats::bump(&fault_stats.task_retries);
                        stage_on(self.staged, self.devices, t, task);
                        return;
                    }
                    Err(grant) => task.grant = grant,
                }
            }
            if scheduler.device_eligible(DeviceId(from)) {
                FaultStats::bump(&fault_stats.task_retries);
                stage_on(self.staged, self.devices, from, task);
                return;
            }
        }
        // Ladder exhausted (or no device will take the task): drop the
        // grant from device accounting and run on the host. With the
        // fallback disabled (ladder tests only) the job is dropped
        // here: its reply sender goes unsent, its ticket is released,
        // and the caller observes a missing outcome.
        scheduler.release_to_cpu(task.grant);
        if res.cpu_fallback_on_fault {
            FaultStats::bump(&fault_stats.cpu_fallbacks);
            thread_local! {
                static POOL: std::cell::RefCell<WorkspacePool> =
                    std::cell::RefCell::new(WorkspacePool::new());
            }
            POOL.with(|pool| {
                run_cpu_task(self.config, &mut pool.borrow_mut(), task.job, task.ticket);
            });
        }
    }
}

/// Execute one ion task's kernel: integrand construction, windowing,
/// launch-geometry choice, and the fused kernel execution.
/// [`EngineConfig::deterministic_kernel`] selects the single-chunk
/// launch (see the module docs); otherwise the covering geometry is
/// used.
fn run_kernel(config: &EngineConfig, job: &IonJob) -> (Vec<f64>, u64) {
    let bin_pairs: &[(f64, f64)] = &job.bins;
    let (precision, rule, math) = (config.gpu_precision, config.gpu_rule, config.math);
    let mut emi = vec![0.0f64; bin_pairs.len()];
    let Some(integrands) = ion_integrands(
        &config.db,
        job.ion_index,
        job.level_range.clone(),
        &job.point,
    ) else {
        return (emi, 0);
    };
    let kt = job.point.kt_ev();
    let windows: Vec<(f64, f64)> = integrands
        .iter()
        .map(|f| level_window(f.binding_ev, kt))
        .collect();
    let cfg = if config.deterministic_kernel {
        LaunchConfig::new(1, 1)
    } else {
        LaunchConfig::cover(bin_pairs.len())
    };
    // Prepared 24-byte integrands, fused bin runs, batched sampling per
    // bin grid — exponential recurrence in Exact mode, whole-grid
    // `vexp` in Vector mode.
    let prepared: Vec<PreparedIntegrand> = integrands
        .iter()
        .map(rrc_spectral::RrcIntegrand::prepare)
        .collect();
    let evals = match math {
        MathMode::Exact => {
            let kernel = FusedBinKernel {
                integrands: &prepared,
                bins: bin_pairs,
                precision,
                windows: Some(&windows),
                rule,
                math,
            };
            kernel.execute(cfg, &mut emi)
        }
        MathMode::Vector => {
            let vectored: Vec<VectorPrepared> = prepared.into_iter().map(VectorPrepared).collect();
            let kernel = FusedBinKernel {
                integrands: &vectored,
                bins: bin_pairs,
                precision,
                windows: Some(&windows),
                rule,
                math,
            };
            kernel.execute(cfg, &mut emi)
        }
    };
    (emi, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrc_spectral::{EnergyGrid, SerialCalculator};
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn small_config(gpus: usize) -> EngineConfig {
        let db = AtomDatabase::generate(atomdb::DatabaseConfig {
            max_z: 6,
            ..atomdb::DatabaseConfig::default()
        });
        EngineConfig {
            gpus,
            max_queue_len: 4,
            queue_depth: 8,
            ..EngineConfig::deterministic(Arc::new(db), 3)
        }
    }

    fn point() -> GridPoint {
        GridPoint {
            temperature_k: 1.0e7,
            density_cm3: 1.0,
            time_s: 0.0,
            index: 0,
        }
    }

    #[test]
    fn resident_engine_serves_repeated_submissions() {
        let engine = Engine::start(small_config(2));
        let grid = EnergyGrid::linear(50.0, 2000.0, 48);
        let bins = Arc::new(grid.bin_pairs());
        let ions = engine.config().db.ions().len();
        // Three successive waves through the same engine — resident
        // reuse, not run-to-completion.
        for wave in 0..3u64 {
            let (tx, rx) = channel();
            for ion_index in 0..ions {
                let levels = engine.config().db.levels_by_index(ion_index).len();
                engine
                    .submit(IonJob {
                        ion_index,
                        level_range: 0..levels,
                        point: point(),
                        grid: grid.clone(),
                        bins: Arc::clone(&bins),
                        tag: wave,
                        deadline: f64::INFINITY,
                        reply: tx.clone(),
                    })
                    .ok()
                    .expect("engine accepts while live");
            }
            drop(tx);
            let outcomes: Vec<IonOutcome> = rx.iter().collect();
            assert_eq!(outcomes.len(), ions);
            assert!(outcomes.iter().all(|o| o.tag == wave));
        }
        let report = engine.shutdown();
        assert_eq!(report.gpu_tasks + report.cpu_tasks, 3 * ions as u64);
        assert_eq!(report.leaked_grants, 0);
    }

    #[test]
    fn both_policies_serve_and_leak_nothing() {
        for policy in [SchedPolicy::CostAware, SchedPolicy::PaperCount] {
            let mut cfg = small_config(2);
            cfg.policy = policy;
            let engine = Engine::start(cfg);
            let grid = EnergyGrid::linear(50.0, 2000.0, 32);
            let bins = Arc::new(grid.bin_pairs());
            let ions = engine.config().db.ions().len();
            let (tx, rx) = channel();
            for ion_index in 0..ions {
                let levels = engine.config().db.levels_by_index(ion_index).len();
                engine
                    .submit(IonJob {
                        ion_index,
                        level_range: 0..levels,
                        point: point(),
                        grid: grid.clone(),
                        bins: Arc::clone(&bins),
                        tag: 0,
                        deadline: f64::INFINITY,
                        reply: tx.clone(),
                    })
                    .ok()
                    .unwrap();
            }
            drop(tx);
            let outcomes: Vec<IonOutcome> = rx.iter().collect();
            assert_eq!(outcomes.len(), ions, "{policy:?}");
            let report = engine.shutdown();
            assert_eq!(report.leaked_grants, 0, "{policy:?}");
            assert_eq!(report.gpu_tasks + report.cpu_tasks, ions as u64);
        }
    }

    #[test]
    fn deterministic_kernel_is_placement_invariant_bitwise() {
        // The same ion computed via every path — GPU kernel, worker
        // CPU (0 GPUs), caller inline — must agree bitwise when the
        // single-chunk launch and a shared bin rule are configured.
        let grid = EnergyGrid::linear(50.0, 2000.0, 64);
        let bins = Arc::new(grid.bin_pairs());
        let ions;
        let gpu_partials: Vec<Vec<f64>>;
        {
            let engine = Engine::start(small_config(2));
            ions = engine.config().db.ions().len();
            let (tx, rx) = channel();
            for ion_index in 0..ions {
                let levels = engine.config().db.levels_by_index(ion_index).len();
                engine
                    .submit(IonJob {
                        ion_index,
                        level_range: 0..levels,
                        point: point(),
                        grid: grid.clone(),
                        bins: Arc::clone(&bins),
                        tag: ion_index as u64,
                        deadline: f64::INFINITY,
                        reply: tx.clone(),
                    })
                    .ok()
                    .unwrap();
            }
            drop(tx);
            let mut outcomes: Vec<IonOutcome> = rx.iter().collect();
            outcomes.sort_by_key(|o| o.ion_index);
            assert!(
                outcomes.iter().any(|o| matches!(o.path, ExecPath::Gpu(_))),
                "expected at least one device placement"
            );
            gpu_partials = outcomes.into_iter().map(|o| o.partial).collect();
            let report = engine.shutdown();
            assert_eq!(report.leaked_grants, 0);
        }

        let engine = Engine::start(small_config(0));
        let serial = SerialCalculator::new(
            (*engine.config().db).clone(),
            grid.clone(),
            Integrator::Simpson { panels: 64 },
        );
        for (ion_index, gpu_partial) in gpu_partials.iter().enumerate().take(ions) {
            let levels = engine.config().db.levels_by_index(ion_index).len();
            let inline = engine.compute_inline(ion_index, 0..levels, &point(), &grid);
            assert_eq!(inline.path, ExecPath::CallerCpu);
            let reference = serial.ion_spectrum(ion_index, &point());
            for (bin, ((&a, &b), &r)) in gpu_partial
                .iter()
                .zip(&inline.partial)
                .zip(reference.bins())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "ion {ion_index} bin {bin}: device vs inline"
                );
                assert_eq!(
                    b.to_bits(),
                    r.to_bits(),
                    "ion {ion_index} bin {bin}: inline vs serial reference"
                );
            }
        }
        let report = engine.shutdown();
        assert_eq!(report.gpu_tasks, 0);
        assert_eq!(report.leaked_grants, 0);
    }

    #[test]
    fn measured_cost_keeps_partials_bitwise_serial() {
        // Property test: with the measured-cost blend feeding placement,
        // every deterministic-kernel partial stays bitwise identical to
        // the serial calculator across {0, 1, 2} devices and both
        // policies, because the blend only moves *where* work runs.
        let grid = EnergyGrid::linear(50.0, 2000.0, 64);
        let bins = Arc::new(grid.bin_pairs());
        let db = small_config(0).db;
        let serial = SerialCalculator::new(
            (*db).clone(),
            grid.clone(),
            Integrator::Simpson { panels: 64 },
        );
        let reference: Vec<Vec<f64>> = (0..db.ions().len())
            .map(|i| serial.ion_spectrum(i, &point()).bins().to_vec())
            .collect();

        for gpus in [0usize, 1, 2] {
            for policy in [SchedPolicy::CostAware, SchedPolicy::PaperCount] {
                let mut cfg = small_config(gpus);
                cfg.policy = policy;
                let engine = Engine::start(cfg);
                let ions = engine.config().db.ions().len();
                let (tx, rx) = channel();
                // Several waves so the measured-cost blend has
                // observations by the time the later waves place.
                let waves = 4u64;
                for wave in 0..waves {
                    for ion_index in 0..ions {
                        let levels = engine.config().db.levels_by_index(ion_index).len();
                        engine
                            .submit(IonJob {
                                ion_index,
                                level_range: 0..levels,
                                point: point(),
                                grid: grid.clone(),
                                bins: Arc::clone(&bins),
                                tag: wave,
                                deadline: f64::INFINITY,
                                reply: tx.clone(),
                            })
                            .ok()
                            .unwrap();
                    }
                }
                drop(tx);
                let outcomes: Vec<IonOutcome> = rx.iter().collect();
                assert_eq!(outcomes.len(), (waves as usize) * ions);
                for o in &outcomes {
                    for (bin, (&got, &want)) in
                        o.partial.iter().zip(&reference[o.ion_index]).enumerate()
                    {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "gpus={gpus} {policy:?} ion {} bin {bin}: engine vs serial",
                            o.ion_index
                        );
                    }
                }
                let snap = engine.scheduler_snapshot();
                if gpus > 0 {
                    assert!(
                        snap.cost_observations > 0,
                        "gpus={gpus} {policy:?}: settles must feed the blend"
                    );
                }
                let report = engine.shutdown();
                assert_eq!(report.leaked_grants, 0, "gpus={gpus} {policy:?}");
                assert_eq!(report.gpu_tasks + report.cpu_tasks, waves * ions as u64);
            }
        }
    }

    #[test]
    fn cold_blend_places_identically_to_static_cost() {
        // Property test (satellite a), engine level: with zero
        // measured-cost observations the blended model must hand the
        // scheduler exactly the static units — so a cold engine's
        // placement accounting (weighted histories) is identical to
        // what raw ion_task_cost produces.
        let cfg = small_config(2);
        let engine = Engine::start(cfg);
        let grid = EnergyGrid::linear(50.0, 2000.0, 48);
        let bins = Arc::new(grid.bin_pairs());
        let model = CostModel::new();
        for ion_index in 0..engine.config().db.ions().len() {
            let levels = engine.config().db.levels_by_index(ion_index).len();
            let static_units =
                ion_task_cost(&engine.config().db, ion_index, 0..levels, &point(), &bins);
            let key = CostKey::bucketed(engine.config().db.ions()[ion_index].z, levels, bins.len());
            assert_eq!(
                model.blended(&key, static_units),
                static_units,
                "ion {ion_index}: cold blend must degenerate to static"
            );
        }
        assert_eq!(engine.scheduler_snapshot().cost_observations, 0);
        let report = engine.shutdown();
        assert_eq!(report.leaked_grants, 0);
    }

    #[test]
    fn try_submit_sheds_when_queue_full() {
        // One worker, a tiny queue, and jobs that stack up behind a
        // single slow drain: eventually try_submit must refuse.
        let mut cfg = small_config(0);
        cfg.workers = 1;
        cfg.queue_depth = 2;
        let engine = Engine::start(cfg);
        let grid = EnergyGrid::linear(50.0, 2000.0, 256);
        let bins = Arc::new(grid.bin_pairs());
        let (tx, rx) = channel();
        let mut accepted = 0u64;
        let mut refused = 0u64;
        for i in 0..200 {
            let job = IonJob {
                ion_index: i % engine.config().db.ions().len(),
                level_range: 0..1,
                point: point(),
                grid: grid.clone(),
                bins: Arc::clone(&bins),
                tag: i as u64,
                deadline: f64::INFINITY,
                reply: tx.clone(),
            };
            match engine.try_submit(job) {
                Ok(()) => accepted += 1,
                Err(TryPushError::Full(_)) => refused += 1,
                Err(TryPushError::Closed(_)) => unreachable!("engine is live"),
            }
        }
        drop(tx);
        let outcomes: Vec<IonOutcome> = rx.iter().collect();
        assert_eq!(outcomes.len() as u64, accepted);
        assert!(refused > 0, "queue depth 2 must refuse under a burst");
        let report = engine.shutdown();
        assert_eq!(report.cpu_tasks, accepted);
        assert_eq!(report.leaked_grants, 0);
    }

    #[test]
    fn drop_without_shutdown_drains_cleanly() {
        let engine = Engine::start(small_config(1));
        let grid = EnergyGrid::linear(50.0, 2000.0, 32);
        let bins = Arc::new(grid.bin_pairs());
        let (tx, rx) = channel();
        for ion_index in 0..engine.config().db.ions().len() {
            engine
                .submit(IonJob {
                    ion_index,
                    level_range: 0..1,
                    point: point(),
                    grid: grid.clone(),
                    bins: Arc::clone(&bins),
                    tag: 0,
                    deadline: f64::INFINITY,
                    reply: tx.clone(),
                })
                .ok()
                .unwrap();
        }
        drop(tx);
        drop(engine); // must drain, free grants, join — not strand
        let delivered = rx.iter().count();
        assert!(delivered > 0);
    }

    /// Fan every ion of the engine's database out `waves` times
    /// through [`Engine::fan_out`] (tag = wave).
    fn fan_all(engine: &Engine, grid: &EnergyGrid, waves: u64) -> FanOut {
        let bins = Arc::new(grid.bin_pairs());
        let db = &engine.config().db;
        let items = (0..waves).flat_map(|wave| (0..db.ions().len()).map(move |ion| (wave, ion)));
        engine.fan_out(items, |(wave, ion_index), reply| IonJob {
            ion_index,
            level_range: 0..db.levels_by_index(ion_index).len(),
            point: point(),
            grid: grid.clone(),
            bins: Arc::clone(&bins),
            tag: wave,
            deadline: f64::INFINITY,
            reply,
        })
    }

    /// [`fan_all`] then shutdown, on a watchdog: a fan-out that never
    /// returns fails the test instead of hanging it.
    fn fan_all_then_shutdown(engine: Engine, bins: usize, waves: u64) -> (FanOut, EngineReport) {
        let (tx, rx) = channel();
        let run = std::thread::spawn(move || {
            let fanned = fan_all(&engine, &EnergyGrid::linear(50.0, 2000.0, bins), waves);
            let _ = tx.send((fanned, engine.shutdown()));
        });
        let result = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("fan_out must return, not hang");
        run.join().expect("fan-out thread");
        result
    }

    /// Every `(wave, ion)` answered at most once.
    fn assert_no_duplicates(outcomes: &[IonOutcome]) {
        let mut seen: Vec<(u64, usize)> = outcomes.iter().map(|o| (o.tag, o.ion_index)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), outcomes.len(), "an ion was answered twice");
    }

    fn fast_ladder() -> ResilienceConfig {
        ResilienceConfig {
            backoff: Duration::from_micros(20),
            backoff_cap: Duration::from_micros(200),
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn fan_out_returns_exactly_one_outcome_per_job() {
        for gpus in [0usize, 1, 2] {
            let engine = Engine::start(small_config(gpus));
            let ions = engine.config().db.ions().len();
            let (fanned, report) = fan_all_then_shutdown(engine, 48, 3);
            assert!(!fanned.closed);
            assert_eq!(fanned.outcomes.len(), 3 * ions, "gpus={gpus}");
            assert_no_duplicates(&fanned.outcomes);
            assert_eq!(report.gpu_tasks + report.cpu_tasks, 3 * ions as u64);
            assert_eq!(report.leaked_grants, 0, "gpus={gpus}");
        }
        // No jobs: nothing to wait for.
        let engine = Engine::start(small_config(1));
        let (fanned, report) = fan_all_then_shutdown(engine, 48, 0);
        assert!(fanned.outcomes.is_empty() && !fanned.closed);
        assert_eq!(report.leaked_grants, 0);
    }

    #[test]
    fn fan_out_returns_when_jobs_are_dropped_unanswered() {
        // No retries and no CPU fallback: every injected failure drops
        // its job on the floor. The fan-out must come back with the
        // answered jobs only — where `rx.iter()` used to end on
        // disconnect, the dropped job's ticket now releases the count.
        let mut cfg = small_config(1);
        cfg.resilience = ResilienceConfig {
            max_retries: 0,
            cpu_fallback_on_fault: false,
            faults: vec![gpu_sim::FaultPlan::default()
                .fire_at(gpu_sim::FaultOp::Launch, 0, gpu_sim::FaultKind::LaunchError)
                .fire_at(gpu_sim::FaultOp::Kernel, 1, gpu_sim::FaultKind::KernelPanic)
                .fire_at(gpu_sim::FaultOp::Dma, 2, gpu_sim::FaultKind::DmaError)],
            ..fast_ladder()
        };
        let engine = Engine::start(cfg);
        let ions = engine.config().db.ions().len();
        let (fanned, report) = fan_all_then_shutdown(engine, 32, 2);
        assert!(!fanned.closed);
        assert_eq!(report.task_faults, 3, "each indexed fault fired once");
        assert_eq!(
            fanned.outcomes.len(),
            2 * ions - 3,
            "dropped jobs are absent"
        );
        assert_no_duplicates(&fanned.outcomes);
        assert_eq!(report.fault_cpu_fallbacks, 0);
        assert_eq!(report.leaked_grants, 0);
        assert_eq!(report.worker_panics, 0);
    }

    #[test]
    fn fan_out_returns_when_the_engine_closes_underneath_it() {
        // The queue closes while the fan-out is building job `CUT`
        // (hand-shake, no sleeps): jobs before it are answered, it and
        // everything after are never submitted, and the caller returns.
        const CUT: usize = 5;
        let engine = Engine::start(small_config(1));
        let ions = engine.config().db.ions().len();
        assert!(ions > CUT);
        let grid = EnergyGrid::linear(50.0, 2000.0, 32);
        let bins = Arc::new(grid.bin_pairs());
        let (at_cut_tx, at_cut_rx) = channel::<()>();
        let (closed_tx, closed_rx) = channel::<()>();
        let queue = engine.queue.clone();
        let closer = std::thread::spawn(move || {
            at_cut_rx.recv().expect("fan-out reaches the cut");
            queue.close();
            closed_tx.send(()).expect("fan-out is waiting");
        });
        let mut built = 0usize;
        let fanned = engine.fan_out(0..ions, |ion_index, reply| {
            if ion_index == CUT {
                at_cut_tx.send(()).expect("closer is waiting");
                closed_rx.recv().expect("closer closed the queue");
            }
            built += 1;
            IonJob {
                ion_index,
                level_range: 0..engine.config().db.levels_by_index(ion_index).len(),
                point: point(),
                grid: grid.clone(),
                bins: Arc::clone(&bins),
                tag: 0,
                deadline: f64::INFINITY,
                reply,
            }
        });
        closer.join().expect("closer thread");
        assert!(fanned.closed);
        assert_eq!(built, CUT + 1, "submission stops at the refusal");
        let mut answered: Vec<usize> = fanned.outcomes.iter().map(|o| o.ion_index).collect();
        answered.sort_unstable();
        assert_eq!(answered, (0..CUT).collect::<Vec<_>>());
        let report = engine.shutdown();
        assert_eq!(report.gpu_tasks + report.cpu_tasks, CUT as u64);
        assert_eq!(report.leaked_grants, 0);
    }

    #[test]
    fn kernel_panic_is_contained_on_the_pump_thread() {
        // The very first kernel panics — on the pump thread itself now.
        // The unwind must stop at the device boundary: counted as a
        // device panic, the task retried, the pump alive. A second
        // fan-out then finds the device idle, so its first jobs are
        // granted and staged — and only a live pump can answer those.
        let mut cfg = small_config(1);
        cfg.resilience = ResilienceConfig {
            faults: vec![gpu_sim::FaultPlan::default().fire_at(
                gpu_sim::FaultOp::Kernel,
                0,
                gpu_sim::FaultKind::KernelPanic,
            )],
            ..fast_ladder()
        };
        let engine = Engine::start(cfg);
        let ions = engine.config().db.ions().len();
        let grid = EnergyGrid::linear(50.0, 2000.0, 32);
        let first = fan_all(&engine, &grid, 1);
        assert_eq!(
            first.outcomes.len(),
            ions,
            "the panicked task still answers"
        );
        let second = fan_all(&engine, &grid, 1);
        assert_eq!(second.outcomes.len(), ions);
        assert!(
            second.outcomes.iter().any(|o| o.path == ExecPath::Gpu(0)),
            "the lane kept serving after the panic"
        );
        let report = engine.shutdown();
        assert_eq!(report.device_panics, vec![1], "tasks_panicked rose");
        assert_eq!(report.worker_panics, 0, "the pump thread survived");
        assert_eq!(report.task_faults, 1);
        assert_eq!(report.task_retries + report.fault_cpu_fallbacks, 1);
        assert_eq!(report.leaked_grants, 0);
    }

    #[test]
    fn stall_beyond_the_task_deadline_is_counted_and_retried() {
        // The first kernel wedges for well over the watchdog deadline;
        // its late result is discarded, the overrun counted, the task
        // retried. (A loaded host may push further kernels over the
        // deadline too — they ride the same ladder, hence `>=`.)
        let mut cfg = small_config(1);
        cfg.resilience = ResilienceConfig {
            task_deadline: Some(Duration::from_millis(100)),
            faults: vec![gpu_sim::FaultPlan::default().fire_at(
                gpu_sim::FaultOp::Kernel,
                0,
                gpu_sim::FaultKind::Stall { millis: 250 },
            )],
            ..fast_ladder()
        };
        let engine = Engine::start(cfg);
        let ions = engine.config().db.ions().len();
        let (fanned, report) = fan_all_then_shutdown(engine, 32, 1);
        assert_eq!(
            fanned.outcomes.len(),
            ions,
            "the stalled task still answers"
        );
        assert_no_duplicates(&fanned.outcomes);
        assert_eq!(report.device_faults[0].stalls, 1);
        assert!(report.task_timeouts >= 1, "{report:?}");
        assert!(report.task_retries + report.fault_cpu_fallbacks >= 1);
        assert_eq!(report.leaked_grants, 0);
    }

    #[test]
    fn lane_launch_retries_a_panicked_kernel_on_its_own_lane() {
        // Drive one lane by hand (no threads, no timing): the first
        // kernel panics, the ladder re-stages the task on the lane with
        // its grant, and launching it again answers the serial bits.
        let mut cfg = small_config(1);
        cfg.resilience = ResilienceConfig {
            faults: vec![gpu_sim::FaultPlan::default().fire_at(
                gpu_sim::FaultOp::Kernel,
                0,
                gpu_sim::FaultKind::KernelPanic,
            )],
            ..fast_ladder()
        };
        let devices = vec![SimGpu::with_faults(
            gpu_sim::DeviceProps::tesla_c2075(),
            cfg.resilience.plan_for(0),
        )];
        let scheduler = Scheduler::with_policy(1, 8, cfg.policy);
        let staged: StealQueues<StagedTask> = StealQueues::new(1);
        let fault_stats = FaultStats::default();
        let cost = CostModel::new();
        let lane = Lane {
            d: 0,
            config: &cfg,
            scheduler: &scheduler,
            staged: &staged,
            devices: &devices,
            fault_stats: &fault_stats,
            cost: &cost,
        };
        let grid = EnergyGrid::linear(50.0, 2000.0, 32);
        let bins = Arc::new(grid.bin_pairs());
        let bytes_out = 8 * bins.len() as u64;
        let ion_index = cfg.db.ions().len() - 1;
        let (tx, rx) = channel();
        let task = StagedTask {
            job: IonJob {
                ion_index,
                level_range: 0..cfg.db.levels_by_index(ion_index).len(),
                point: point(),
                grid: grid.clone(),
                bins: Arc::clone(&bins),
                tag: 0,
                deadline: f64::INFINITY,
                reply: tx,
            },
            ticket: Ticket(None),
            grant: scheduler.alloc_cost(10).expect("a free slot"),
            attempts: 0,
            key: CostKey::bucketed(1, 1, 32),
            static_cost: 10,
            staged_virtual_s: 0.0,
        };
        lane.launch(task, bytes_out);

        assert!(
            rx.try_recv().is_err(),
            "the panicked launch answers nothing"
        );
        assert_eq!(devices[0].tasks_panicked(), 1);
        assert_eq!(fault_stats.task_faults.load(Ordering::Relaxed), 1);
        assert_eq!(scheduler.in_flight(), 1, "only the retried grant is out");
        let Next::Local(retry) = staged.next(0, false) else {
            panic!("expected the task back on its own lane");
        };
        assert_eq!(retry.item.attempts, 1);

        lane.launch(retry.item, bytes_out);
        let outcome = rx.try_recv().expect("the retry answers");
        assert_eq!(outcome.path, ExecPath::Gpu(0));
        let serial =
            SerialCalculator::new((*cfg.db).clone(), grid, Integrator::Simpson { panels: 64 });
        let reference = serial.ion_spectrum(ion_index, &point());
        assert!(outcome.partial.iter().any(|&v| v > 0.0));
        for (bin, (&got, &want)) in outcome.partial.iter().zip(reference.bins()).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "bin {bin}: lane vs serial");
        }
        assert_eq!(scheduler.in_flight(), 0);
    }
}
