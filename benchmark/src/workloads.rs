//! The four workloads: their fixed sizes, their stacks, and one timed
//! round of each. Client counts, rates and sizes are constants here —
//! never derived from the host — so two machines run the same load.
//!
//! Every stack uses the bitwise-deterministic configs
//! (`RouterConfig::deterministic` / `ServiceConfig::deterministic`:
//! Simpson-64 on device and CPU, `MathMode::Exact`, single-chunk
//! kernel), so answers can be checked against [`crate::check`].

use std::sync::mpsc::{channel, TryRecvError};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use atomdb::{AtomDatabase, DatabaseConfig};
use desim::SimRng;
use hybrid_spectral::{EngineReport, HybridConfig, HybridRunner, RunReport};
use rrc_router::{RouterConfig, RouterCounters, RouterReport, RouterSnapshot, ShardRouter};
use rrc_service::{
    CacheStats, ElementSelection, MetricsSnapshot, ServiceConfig, SpectralService, SpectrumRequest,
    SpectrumResponse, Ticket,
};
use rrc_spectral::{EnergyGrid, GridPoint, ParameterSpace};

use crate::check::{bits_hash, within_relative, Reference, RULE};
use crate::inputs::{self, Zipf};
use crate::stats::Summary;

/// Rounds per run; every end-to-end value is the median of the rounds.
pub const ROUNDS: usize = 3;
/// Closed-loop client threads (`cold_sweep`, `hot_zipf`).
pub const CLIENTS: usize = 2;
/// Ring segments × replicas of the router workloads.
pub const SHARDS: usize = 2;
pub const REPLICAS: usize = 1;
/// Bins of the serving workloads' grid (`EnergyGrid::paper_waveband`).
pub const SERVING_BINS: usize = 96;
/// Every `CHECK_EVERY`-th response of a client is checked against the
/// serial reference, as are the first `CHECK_HEAD` of the first round.
pub const CHECK_EVERY: u64 = 50;
pub const CHECK_HEAD: u64 = 64;

pub const COLD_ROUTE_CACHE: usize = 64;
pub const COLD_LIMIT_S: f64 = 0.040;

pub const HOT_STATES: usize = 64;
pub const HOT_ZIPF_S: f64 = 1.1;
pub const HOT_ROUTE_CACHE: usize = 16;
pub const HOT_LIMIT_S: f64 = 0.001;

pub const OPEN_RATE_HZ: f64 = 150.0;
pub const OPEN_STATES: usize = 4096;
pub const OPEN_ZIPF_S: f64 = 0.9;
pub const OPEN_INTERACTIVE_SHARE: f64 = 0.75;
pub const OPEN_ELEMENTS: std::ops::RangeInclusive<u8> = 1..=5;
pub const OPEN_LIMIT_S: f64 = 0.050;

pub const BATCH_BINS: usize = 48;
pub const BATCH_RANKS: usize = 2;
/// Grid points per `HybridRunner::run` call — one job.
pub const BATCH_POINTS_PER_JOB: usize = 1;
pub const BATCH_LIMIT_S: f64 = 0.150;
/// Batch spectra are held to this relative tolerance (multi-chunk
/// launches re-associate the per-bin sums).
pub const BATCH_TOLERANCE: f64 = 1e-12;
/// Jobs of the first round whose spectra are all checked.
pub const BATCH_CHECK_HEAD: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdSweep,
    HotZipf,
    OpenSlo,
    BatchGrid,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdSweep,
        Workload::HotZipf,
        Workload::OpenSlo,
        Workload::BatchGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold_sweep",
            Workload::HotZipf => "hot_zipf",
            Workload::OpenSlo => "open_slo",
            Workload::BatchGrid => "batch_grid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The latency limit behind `slo_met_fraction`.
    pub fn limit_s(self) -> f64 {
        match self {
            Workload::ColdSweep => COLD_LIMIT_S,
            Workload::HotZipf => HOT_LIMIT_S,
            Workload::OpenSlo => OPEN_LIMIT_S,
            Workload::BatchGrid => BATCH_LIMIT_S,
        }
    }
}

/// `full` is what `BENCHMARK.json` runs; `smoke` is the same code on a
/// five-element database, for quick checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    pub fn rounds(self) -> usize {
        match self {
            Scale::Full => ROUNDS,
            Scale::Smoke => 1,
        }
    }

    fn max_z(self, workload: Workload) -> u8 {
        match (self, workload) {
            (Scale::Smoke, _) => 5,
            (Scale::Full, Workload::BatchGrid) => 30,
            (Scale::Full, _) => 8,
        }
    }
}

/// The inputs shared by every round of one run: database, grid, and
/// what the request streams draw from.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub db: Arc<AtomDatabase>,
    pub grid: EnergyGrid,
    table: Option<(Arc<Vec<GridPoint>>, Arc<Zipf>)>,
}

pub fn generate_db(workload: Workload, scale: Scale) -> Arc<AtomDatabase> {
    Arc::new(AtomDatabase::generate(DatabaseConfig {
        max_z: scale.max_z(workload),
        ..DatabaseConfig::default()
    }))
}

impl Inputs {
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Inputs {
        let db = generate_db(workload, scale);
        let grid = match workload {
            Workload::BatchGrid => EnergyGrid::linear(50.0, 2000.0, BATCH_BINS),
            _ => EnergyGrid::paper_waveband(SERVING_BINS),
        };
        let table = match workload {
            Workload::HotZipf => Some((HOT_STATES, HOT_ZIPF_S)),
            Workload::OpenSlo => Some((OPEN_STATES, OPEN_ZIPF_S)),
            Workload::ColdSweep | Workload::BatchGrid => None,
        }
        .map(|(n, s)| {
            let states = inputs::state_table(&mut inputs::stream(seed, 0x57A7E5), n);
            (Arc::new(states), Arc::new(Zipf::new(n, s)))
        });
        Inputs {
            workload,
            seed,
            db,
            grid,
            table,
        }
    }

    pub fn elements(&self) -> ElementSelection {
        match self.workload {
            Workload::OpenSlo => ElementSelection::Elements(OPEN_ELEMENTS.collect()),
            _ => ElementSelection::All,
        }
    }

    /// The plasma states the repeated-state workloads draw from.
    pub fn states(&self) -> &[GridPoint] {
        self.table.as_ref().map_or(&[], |(t, _)| t.as_slice())
    }

    /// Client `client`'s request stream for round `round`. Each round
    /// draws its own requests from the seed, so the median of the rounds
    /// also averages over the luck of the draw, not only over the host.
    pub fn stream(&self, client: usize, round: usize) -> RequestStream {
        RequestStream {
            rng: inputs::stream(self.seed, (1 + client + 16 * round) as u64),
            table: self.table.clone(),
            elements: self.elements(),
            interactive_share: (self.workload == Workload::OpenSlo)
                .then_some(OPEN_INTERACTIVE_SHARE),
            issued: 0,
        }
    }

    pub fn reference(&self) -> Reference {
        Reference::new(&self.db, &self.grid)
    }
}

/// A seeded, endless request sequence.
pub struct RequestStream {
    rng: SimRng,
    table: Option<(Arc<Vec<GridPoint>>, Arc<Zipf>)>,
    elements: ElementSelection,
    interactive_share: Option<f64>,
    issued: usize,
}

impl RequestStream {
    pub fn next_request(&mut self) -> SpectrumRequest {
        let point = match &self.table {
            Some((states, zipf)) => states[zipf.draw(&mut self.rng)],
            None => inputs::draw_point(&mut self.rng, self.issued),
        };
        self.issued += 1;
        let request = SpectrumRequest::new(point, self.elements.clone(), 0);
        match self.interactive_share {
            Some(share) => request.with_priority(inputs::draw_priority(&mut self.rng, share)),
            None => request,
        }
    }
}

/// What one timed round observed.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub elapsed_s: f64,
    /// Operations sent.
    pub attempted: u64,
    /// Refused, shed, or answered with an error.
    pub errors: u64,
    /// Answers that failed the reference check.
    pub wrong: u64,
    /// Answers checked against the reference.
    pub checked: u64,
    /// Latency of the completed operations, seconds. The raw samples
    /// are summarised when the round ends and dropped, so that the
    /// process's peak memory is the stack's, not the harness's.
    pub latency: Summary,
    /// Completed operations whose latency met the workload's limit.
    pub within_limit: u64,
    /// Open loop only: how late each request was sent, seconds.
    pub late: Summary,
    /// Per-layer counters read from the stack's public reports.
    pub counters: Vec<(&'static str, f64)>,
    /// Grants the engines still held at shutdown (must be 0).
    pub leaked_grants: u64,
}

impl Round {
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    /// Operations answered.
    pub fn completed(&self) -> u64 {
        self.latency.n
    }

    pub fn throughput_ops_s(&self) -> f64 {
        self.completed() as f64 / self.elapsed_s.max(1e-9)
    }

    /// Share of operations sent that completed correctly within the
    /// workload's limit; a failed or refused operation misses.
    pub fn slo_met_fraction(&self) -> f64 {
        self.within_limit.saturating_sub(self.wrong) as f64 / self.attempted.max(1) as f64
    }

    /// Summarise the completed operations' latencies.
    fn close(&mut self, latencies_s: Vec<f64>, limit_s: f64) {
        self.within_limit = latencies_s.iter().filter(|&&l| l <= limit_s).count() as u64;
        self.latency = Summary::of(latencies_s);
    }
}

// ---------------------------------------------------------------------------
// stacks

pub fn router_config(inputs: &Inputs) -> RouterConfig {
    let mut cfg = RouterConfig::deterministic(Arc::clone(&inputs.db), vec![inputs.grid.clone()]);
    cfg.shards = SHARDS;
    cfg.replicas = REPLICAS;
    cfg.route_cache_capacity = match inputs.workload {
        Workload::HotZipf => HOT_ROUTE_CACHE,
        _ => COLD_ROUTE_CACHE,
    };
    cfg
}

pub fn service_config(inputs: &Inputs) -> ServiceConfig {
    ServiceConfig::deterministic(Arc::clone(&inputs.db), vec![inputs.grid.clone()])
}

pub fn batch_config(inputs: &Inputs) -> HybridConfig {
    // `HybridConfig::small` with the database built once per set-up
    // instead of once per job, two ranks, and Simpson pinned on the CPU
    // fallback: with the paper's QAGS there, work depends on placement
    // and throughput spread was 18 %.
    let mut cfg = HybridConfig::small(1, BATCH_BINS, 1);
    cfg.db = Arc::clone(&inputs.db);
    cfg.grid = inputs.grid.clone();
    cfg.ranks = BATCH_RANKS;
    cfg.cpu_integrator = RULE;
    cfg
}

/// Start the router and, on `hot_zipf`, serve every state once so the
/// measured window starts with warm partial caches.
pub fn start_router(inputs: &Inputs) -> ShardRouter {
    let router = ShardRouter::start(router_config(inputs));
    if inputs.workload == Workload::HotZipf {
        for point in inputs.states() {
            let request = SpectrumRequest::new(*point, inputs.elements(), 0);
            router.query(&request).expect("warm-up query");
        }
    }
    router
}

// ---------------------------------------------------------------------------
// counters

/// Engine-level totals over every engine a round used.
#[derive(Debug, Default)]
pub struct EngineTotals {
    gpu_tasks: u64,
    cpu_tasks: u64,
    imbalance: f64,
    modeled_s: f64,
    peak_bytes: u64,
    faults: u64,
    retries: u64,
    steals: u64,
    cpu_steals: u64,
    panics: u64,
    pub leaked: u64,
}

fn imbalance(history: &[u64]) -> f64 {
    let max = history.iter().copied().max().unwrap_or(0);
    let min = history.iter().copied().min().unwrap_or(0);
    if max == 0 {
        0.0
    } else {
        max as f64 / min.max(1) as f64
    }
}

impl EngineTotals {
    pub fn add_engine(&mut self, e: &EngineReport) {
        self.gpu_tasks += e.gpu_tasks;
        self.cpu_tasks += e.cpu_tasks;
        self.imbalance = self.imbalance.max(imbalance(&e.device_history));
        self.modeled_s += e.device_virtual_seconds.iter().sum::<f64>();
        self.peak_bytes = self
            .peak_bytes
            .max(e.device_peak_memory.iter().copied().max().unwrap_or(0));
        self.faults += e.task_faults;
        self.retries += e.task_retries;
        self.steals += e.steals.iter().sum::<u64>();
        self.cpu_steals += e.cpu_steals;
        self.panics += e.worker_panics;
        self.leaked += e.leaked_grants;
    }

    /// `HybridRunner::run` reports a subset of its engine's counters;
    /// steals, panics and leaked grants are not among them.
    pub fn add_run(&mut self, r: &RunReport) {
        self.gpu_tasks += r.gpu_tasks;
        self.cpu_tasks += r.cpu_tasks;
        self.imbalance = self.imbalance.max(imbalance(&r.device_history));
        self.modeled_s += r.device_virtual_seconds.iter().sum::<f64>();
        self.peak_bytes = self
            .peak_bytes
            .max(r.device_peak_memory.iter().copied().max().unwrap_or(0));
        self.faults += r.task_faults;
        self.retries += r.task_retries;
    }

    /// `ops` is every operation the engines served, warm-up included —
    /// the engine reports cover their whole life.
    pub fn counters(&self, ops: u64) -> Vec<(&'static str, f64)> {
        let tasks = self.gpu_tasks + self.cpu_tasks;
        vec![
            (
                "core.gpu_task_ratio",
                self.gpu_tasks as f64 / tasks.max(1) as f64,
            ),
            ("core.cpu_steals", self.cpu_steals as f64),
            ("core.task_faults", self.faults as f64),
            ("core.task_retries", self.retries as f64),
            ("core.worker_panics", self.panics as f64),
            ("core.leaked_grants", self.leaked as f64),
            ("sched.steals", self.steals as f64),
            ("sched.device_imbalance", self.imbalance),
            ("gpusim.peak_device_bytes", self.peak_bytes as f64),
            (
                "gpusim.modeled_device_s_per_op",
                self.modeled_s / ops.max(1) as f64,
            ),
        ]
    }
}

pub fn ms(seconds: f64) -> f64 {
    1e3 * seconds
}

/// Count-weighted mean of one quantile across several snapshots (the
/// router tier keeps one `ServiceMetrics` per replica).
fn weighted(parts: &[(u64, f64)]) -> f64 {
    let n: u64 = parts.iter().map(|p| p.0).sum();
    if n == 0 {
        0.0
    } else {
        parts.iter().map(|&(c, v)| c as f64 * v).sum::<f64>() / n as f64
    }
}

/// Service-tier counters from one or more `MetricsSnapshot`s. `cache`
/// is the cache activity of the measured window only.
pub fn service_counters(snaps: &[MetricsSnapshot], cache: CacheStats) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&MetricsSnapshot) -> u64| snaps.iter().map(f).sum::<u64>() as f64;
    let stage =
        |f: fn(&MetricsSnapshot) -> (u64, f64)| weighted(&snaps.iter().map(f).collect::<Vec<_>>());
    let batches = sum(|s| s.batches);
    vec![
        (
            "service.queue_wait_ms_p50",
            ms(stage(|s| (s.queue.count, s.queue.p50_s))),
        ),
        (
            "service.queue_wait_ms_p95",
            ms(stage(|s| (s.queue.count, s.queue.p95_s))),
        ),
        (
            "service.compute_ms_p50",
            ms(stage(|s| (s.compute.count, s.compute.p50_s))),
        ),
        (
            "service.batch_size_mean",
            if batches == 0.0 {
                0.0
            } else {
                sum(|s| s.batched_requests) / batches
            },
        ),
        ("service.cache_hit_ratio", cache.hit_rate()),
        ("service.cache_evictions", cache.evictions as f64),
        (
            "service.interactive_p95_ms",
            ms(stage(|s| {
                (s.per_priority[0].count, s.per_priority[0].p95_s)
            })),
        ),
        (
            "service.bulk_p95_ms",
            ms(stage(|s| {
                (s.per_priority[1].count, s.per_priority[1].p95_s)
            })),
        ),
        (
            "service.queue_depth_peak",
            snaps.iter().map(|s| s.queue_depth_peak).max().unwrap_or(0) as f64,
        ),
        ("service.shed_queue_full", sum(|s| s.shed_queue_full)),
        ("service.shed_infeasible", sum(|s| s.shed_infeasible)),
        ("service.device_failures", sum(|s| s.device_failures)),
        (
            "sched.cost_residual_milli",
            snaps
                .iter()
                .map(|s| s.scheduler_cost_residual_milli)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "sched.cost_observations",
            sum(|s| s.scheduler_cost_observations),
        ),
    ]
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
        warm_insertions: after.warm_insertions - before.warm_insertions,
        evictions: after.evictions - before.evictions,
    }
}

fn replica_snapshots(snapshot: &RouterSnapshot) -> Vec<MetricsSnapshot> {
    snapshot
        .segments
        .iter()
        .flat_map(|s| s.replicas.iter().map(|r| r.service.clone()))
        .collect()
}

fn replica_cache(snapshot: &RouterSnapshot) -> CacheStats {
    snapshot
        .segments
        .iter()
        .flat_map(|s| s.replicas.iter().map(|r| r.cache))
        .fold(CacheStats::default(), |acc, c| acc.merged(&c))
}

/// Router-tier counters over the measured window: `before` is the
/// snapshot taken after set-up (warm-up included), `report` the
/// shutdown report.
fn router_counters(before: &RouterSnapshot, report: &RouterReport) -> Vec<(&'static str, f64)> {
    let a: &RouterCounters = &report.snapshot.counters;
    let b: &RouterCounters = &before.counters;
    let requests = (a.requests - b.requests).max(1) as f64;
    let picks = (a.affinity_picks - b.affinity_picks) as f64;
    let fallbacks = (a.affinity_fallbacks - b.affinity_fallbacks) as f64;
    let mut out = vec![
        (
            "router.route_hit_ratio",
            (a.route_hits - b.route_hits) as f64 / requests,
        ),
        (
            "router.fanouts_per_request",
            (a.fanouts - b.fanouts) as f64 / requests,
        ),
        ("router.coalesced", (a.coalesced - b.coalesced) as f64),
        (
            "router.affinity_pick_ratio",
            if picks + fallbacks == 0.0 {
                0.0
            } else {
                picks / (picks + fallbacks)
            },
        ),
        ("router.reroutes", (a.reroutes - b.reroutes) as f64),
        ("router.hedges", (a.hedges - b.hedges) as f64),
        (
            "router.breaker_skips",
            (a.breaker_skips - b.breaker_skips) as f64,
        ),
        (
            "router.device_failed",
            (a.device_failed - b.device_failed) as f64,
        ),
    ];
    out.extend(service_counters(
        &replica_snapshots(&report.snapshot),
        cache_delta(replica_cache(&report.snapshot), replica_cache(before)),
    ));
    let mut engines = EngineTotals::default();
    for e in &report.engines {
        engines.add_engine(e);
    }
    out.extend(engines.counters(a.requests));
    out
}

// ---------------------------------------------------------------------------
// rounds

/// A response kept aside during the timed window and checked after it:
/// the plasma state asked about and a hash of the answer's bits.
type Stashed = (GridPoint, u64);

/// Latency samples a client's log reserves up front, so that growing
/// the log never copies it inside the timed window.
const LOG_CAPACITY: usize = 1 << 20;

struct ClientLog {
    latencies_s: Vec<f64>,
    late_s: Vec<f64>,
    attempted: u64,
    errors: u64,
    ions_computed: u64,
    ions_from_cache: u64,
    stash: Vec<Stashed>,
}

impl ClientLog {
    fn new() -> ClientLog {
        ClientLog {
            latencies_s: Vec::with_capacity(LOG_CAPACITY),
            late_s: Vec::new(),
            attempted: 0,
            errors: 0,
            ions_computed: 0,
            ions_from_cache: 0,
            stash: Vec::new(),
        }
    }

    fn record(
        &mut self,
        request: &SpectrumRequest,
        result: Result<SpectrumResponse, rrc_service::ServiceError>,
        latency_s: f64,
        head: u64,
    ) {
        match result {
            Ok(response) => {
                let nth = self.latencies_s.len() as u64;
                self.latencies_s.push(latency_s);
                self.ions_computed += response.ions_computed;
                self.ions_from_cache += response.ions_from_cache;
                if nth < head || nth.is_multiple_of(CHECK_EVERY) {
                    self.stash.push((request.point, bits_hash(&response.bins)));
                }
            }
            Err(_) => self.errors += 1,
        }
    }
}

/// Fold the clients' logs into `round` and check the stashed answers
/// bitwise against the serial reference.
fn settle(round: &mut Round, inputs: &Inputs, logs: Vec<ClientLog>, reference: &mut Reference) {
    let mut computed = 0u64;
    let mut cached = 0u64;
    let mut latencies_s = Vec::new();
    for log in logs {
        round.attempted += log.attempted;
        round.errors += log.errors;
        if latencies_s.is_empty() {
            latencies_s = log.latencies_s;
        } else {
            latencies_s.extend(log.latencies_s);
        }
        round.late = Summary::of(log.late_s);
        computed += log.ions_computed;
        cached += log.ions_from_cache;
        for (point, hash) in log.stash {
            round.checked += 1;
            let request = SpectrumRequest::new(point, inputs.elements(), 0);
            if hash != bits_hash(&reference.bins(&request)) {
                round.wrong += 1;
            }
        }
    }
    round.close(latencies_s, inputs.workload.limit_s());
    let ops = round.completed().max(1) as f64;
    round
        .counters
        .push(("core.ions_computed_per_op", computed as f64 / ops));
    round
        .counters
        .push(("core.ions_from_cache_per_op", cached as f64 / ops));
}

/// `clients` threads each send their stream's next request as soon as
/// the previous one is answered, for `seconds`.
fn closed_loop(
    router: &ShardRouter,
    inputs: &Inputs,
    clients: usize,
    round: usize,
    seconds: f64,
    head: u64,
) -> (Vec<ClientLog>, f64) {
    let barrier = Barrier::new(clients + 1);
    let mut started = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let barrier = &barrier;
                let mut stream = inputs.stream(client, round);
                scope.spawn(move || {
                    let mut log = ClientLog::new();
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    loop {
                        let request = stream.next_request();
                        let sent = Instant::now();
                        if sent >= deadline {
                            break;
                        }
                        let result = router.query(&request);
                        let latency_s = sent.elapsed().as_secs_f64();
                        log.attempted += 1;
                        log.record(&request, result, latency_s, head / clients as u64);
                    }
                    log
                })
            })
            .collect();
        barrier.wait();
        started = Instant::now();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (logs, started.elapsed().as_secs_f64())
}

/// One round of a router workload on a freshly started tier.
pub fn router_round(
    inputs: &Inputs,
    router: ShardRouter,
    clients: usize,
    index: usize,
    seconds: f64,
    head: u64,
    reference: &mut Reference,
) -> Round {
    let mut round = Round::default();
    let before = router.snapshot();
    let (logs, elapsed_s) = closed_loop(&router, inputs, clients, index, seconds, head);
    round.elapsed_s = elapsed_s;
    let report = router.shutdown();
    round.leaked_grants = report.leaked_grants;
    round.counters = router_counters(&before, &report);
    settle(&mut round, inputs, logs, reference);
    round
}

/// How far ahead of a due time the generator stops sleeping and spins.
const SPIN_AHEAD_S: f64 = 0.0005;
/// How long the collector sleeps between sweeps of the pending tickets.
const COLLECT_INTERVAL: Duration = Duration::from_micros(50);

/// Open loop: a generator thread submits on the seeded schedule
/// whatever the service is doing; a collector thread polls the pending
/// tickets. Latency runs from the *due* time, so a stall that delays
/// later sends is charged to them.
fn open_loop(
    service: &SpectralService,
    inputs: &Inputs,
    round: usize,
    seconds: f64,
    head: u64,
) -> (ClientLog, f64) {
    let schedule = inputs::poisson_schedule(
        OPEN_RATE_HZ,
        seconds,
        &mut inputs::stream(inputs.seed, (0xA11 + round) as u64),
    );
    let mut stream = inputs.stream(0, round);
    let (tx, rx) = channel::<(f64, SpectrumRequest, Ticket)>();
    let started = Instant::now();
    let log = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut late_s = Vec::with_capacity(schedule.len());
            let mut errors = 0u64;
            for &due in &schedule {
                let request = stream.next_request();
                let ahead = due - started.elapsed().as_secs_f64();
                if ahead > 2.0 * SPIN_AHEAD_S {
                    std::thread::sleep(Duration::from_secs_f64(ahead - SPIN_AHEAD_S));
                }
                while started.elapsed().as_secs_f64() < due {
                    std::hint::spin_loop();
                }
                late_s.push(started.elapsed().as_secs_f64() - due);
                match service.submit(request.clone()) {
                    Ok(ticket) => tx.send((due, request, ticket)).expect("collector alive"),
                    Err(_) => errors += 1,
                }
            }
            (schedule.len() as u64, errors, late_s)
        });
        let collector = scope.spawn(move || {
            let mut log = ClientLog::new();
            let mut pending: Vec<(f64, SpectrumRequest, Ticket)> = Vec::new();
            let mut open = true;
            while open || !pending.is_empty() {
                loop {
                    match rx.try_recv() {
                        Ok(sent) => pending.push(sent),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                let mut i = 0;
                while i < pending.len() {
                    match pending[i].2.poll() {
                        Some(result) => {
                            let (due, request, _) = pending.swap_remove(i);
                            let latency_s = started.elapsed().as_secs_f64() - due;
                            log.record(&request, result, latency_s, head);
                        }
                        None => i += 1,
                    }
                }
                std::thread::sleep(COLLECT_INTERVAL);
            }
            log
        });
        let (attempted, errors, late_s) = generator.join().expect("generator thread");
        let mut log = collector.join().expect("collector thread");
        log.attempted = attempted;
        log.errors += errors;
        log.late_s = late_s;
        log
    });
    (log, started.elapsed().as_secs_f64())
}

/// One round of `open_slo` on a freshly started single-engine service.
pub fn open_round(
    inputs: &Inputs,
    service: SpectralService,
    index: usize,
    seconds: f64,
    head: u64,
    reference: &mut Reference,
) -> Round {
    let mut round = Round::default();
    let (log, elapsed_s) = open_loop(&service, inputs, index, seconds, head);
    round.elapsed_s = elapsed_s;
    let report = service.shutdown();
    round.leaked_grants = report.engine.leaked_grants;
    round.counters = service_counters(std::slice::from_ref(&report.metrics), report.cache);
    let mut engines = EngineTotals::default();
    engines.add_engine(&report.engine);
    round
        .counters
        .extend(engines.counters(report.metrics.submitted));
    settle(&mut round, inputs, vec![log], reference);
    round
}

/// One job of `batch_grid`: `HybridRunner::run` over the next
/// [`BATCH_POINTS_PER_JOB`] states of `stream`.
pub fn batch_job(base: &HybridConfig, stream: &mut RequestStream) -> (Vec<GridPoint>, RunReport) {
    let points: Vec<GridPoint> = (0..BATCH_POINTS_PER_JOB)
        .map(|_| stream.next_request().point)
        .collect();
    let mut cfg = base.clone();
    // One density and one epoch, so point i of the space is state i.
    cfg.space = ParameterSpace {
        temperatures_k: points.iter().map(|p| p.temperature_k).collect(),
        densities_cm3: vec![points[0].density_cm3],
        times_s: vec![points[0].time_s],
    };
    (points, HybridRunner::new(cfg).run())
}

/// One round of `batch_grid`: jobs back to back for `seconds`. One
/// operation is one grid point.
pub fn batch_round(
    inputs: &Inputs,
    base: &HybridConfig,
    index: usize,
    seconds: f64,
    head: u64,
    reference: &mut Reference,
) -> Round {
    let mut stream = inputs.stream(0, index);
    let mut round = Round::default();
    let mut engines = EngineTotals::default();
    let mut stash: Vec<(GridPoint, Vec<f64>)> = Vec::new();
    let mut latencies_s = Vec::new();
    let started = Instant::now();
    let mut jobs = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        let sent = Instant::now();
        let (points, report) = batch_job(base, &mut stream);
        let per_point_s = sent.elapsed().as_secs_f64() / points.len() as f64;
        engines.add_run(&report);
        for (point, spectrum) in points.into_iter().zip(&report.spectra) {
            round.attempted += 1;
            latencies_s.push(per_point_s);
            if jobs < head || jobs.is_multiple_of(CHECK_EVERY) {
                stash.push((point, spectrum.bins().to_vec()));
            }
        }
        jobs += 1;
    }
    round.elapsed_s = started.elapsed().as_secs_f64();
    round.close(latencies_s, inputs.workload.limit_s());
    let ions = inputs.db.ions().len() as f64;
    round.counters = engines.counters(round.attempted);
    round.counters.push(("core.ions_computed_per_op", ions));
    round.counters.push(("core.ions_from_cache_per_op", 0.0));
    for (point, bins) in stash {
        round.checked += 1;
        let request = SpectrumRequest::new(point, ElementSelection::All, 0);
        if !within_relative(&bins, &reference.bins(&request), BATCH_TOLERANCE) {
            round.wrong += 1;
        }
    }
    round
}

/// A started stack, ready for load. One exists per round, so the
/// variants' size difference costs nothing worth a `Box`.
#[allow(clippy::large_enum_variant)]
pub enum Stack {
    Router(ShardRouter),
    Service(SpectralService),
    Batch(HybridConfig),
}

/// Everything a round needs before its first operation: generate the
/// database and the inputs from the seed, start the stack, warm it
/// where the workload says so. The returned seconds are `setup_s`.
pub fn setup(workload: Workload, scale: Scale, seed: u64) -> (Inputs, Stack, f64) {
    let started = Instant::now();
    let inputs = Inputs::generate(workload, scale, seed);
    let stack = match workload {
        Workload::ColdSweep | Workload::HotZipf => Stack::Router(start_router(&inputs)),
        Workload::OpenSlo => Stack::Service(SpectralService::start(service_config(&inputs))),
        Workload::BatchGrid => Stack::Batch(batch_config(&inputs)),
    };
    let setup_s = started.elapsed().as_secs_f64();
    (inputs, stack, setup_s)
}

/// Round `index` on a fresh `stack`. The leading answers of round 0
/// are all checked.
pub fn run_round(
    inputs: &Inputs,
    stack: Stack,
    index: usize,
    seconds: f64,
    reference: &mut Reference,
) -> Round {
    let head = |n: u64| if index == 0 { n } else { 0 };
    match stack {
        Stack::Router(router) => router_round(
            inputs,
            router,
            CLIENTS,
            index,
            seconds,
            head(CHECK_HEAD),
            reference,
        ),
        Stack::Service(service) => {
            open_round(inputs, service, index, seconds, head(CHECK_HEAD), reference)
        }
        Stack::Batch(base) => batch_round(
            inputs,
            &base,
            index,
            seconds,
            head(BATCH_CHECK_HEAD),
            reference,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("warm"), None);
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("huge"), None);
    }

    fn points(inputs: &Inputs, client: usize, n: usize) -> Vec<(u64, desim::Priority)> {
        let mut stream = inputs.stream(client, 0);
        (0..n)
            .map(|_| {
                let r = stream.next_request();
                (r.point.temperature_k.to_bits(), r.priority)
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_request_lists() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, Scale::Smoke, 42);
            let b = Inputs::generate(workload, Scale::Smoke, 42);
            let c = Inputs::generate(workload, Scale::Smoke, 43);
            assert_eq!(points(&a, 0, 200), points(&b, 0, 200), "{workload:?}");
            assert_ne!(points(&a, 0, 200), points(&c, 0, 200), "{workload:?}");
            assert_ne!(points(&a, 0, 200), points(&a, 1, 200), "{workload:?}");
        }
    }

    #[test]
    fn streams_match_their_workload() {
        let cold = Inputs::generate(Workload::ColdSweep, Scale::Smoke, 1);
        let distinct: std::collections::BTreeSet<u64> =
            points(&cold, 0, 500).into_iter().map(|p| p.0).collect();
        assert_eq!(distinct.len(), 500, "cold_sweep never repeats a state");

        let hot = Inputs::generate(Workload::HotZipf, Scale::Smoke, 1);
        let distinct: std::collections::BTreeSet<u64> =
            points(&hot, 0, 5000).into_iter().map(|p| p.0).collect();
        assert!(distinct.len() <= HOT_STATES);
        assert_eq!(hot.states().len(), HOT_STATES);

        let open = Inputs::generate(Workload::OpenSlo, Scale::Smoke, 1);
        let bulk = points(&open, 0, 4000)
            .into_iter()
            .filter(|p| p.1 == desim::Priority::Bulk)
            .count();
        assert!((bulk as f64 / 4000.0 - 0.25).abs() < 0.03);
        assert_eq!(
            open.elements(),
            ElementSelection::Elements(vec![1, 2, 3, 4, 5])
        );
    }

    #[test]
    fn slo_fraction_counts_failures_as_misses() {
        let mut round = Round {
            attempted: 10,
            errors: 2,
            wrong: 1,
            ..Round::default()
        };
        // 8 completed in time, one of them wrong, of 10 sent.
        round.close(vec![0.001; 8], 0.01);
        assert!((round.slo_met_fraction() - 0.7).abs() < 1e-12);
        assert_eq!(round.completed(), 8);
        assert_eq!(round.failed(), 3);
        round.close(vec![0.001; 8], 0.0001);
        assert_eq!(round.slo_met_fraction(), 0.0);
    }

    #[test]
    fn device_imbalance_is_max_over_min() {
        assert_eq!(imbalance(&[30, 10]), 3.0);
        assert_eq!(imbalance(&[0, 0]), 0.0);
        assert_eq!(imbalance(&[5, 0]), 5.0);
    }
}
