//! The paper's shared-memory dynamic load balancer, generalized to
//! cost-aware placement.
//!
//! Paper Algorithm 1: each MPI process asks the local scheduler for a
//! GPU before every task. The scheduler keeps, in shared memory, two
//! arrays indexed by device — the current *load* (active + waiting
//! tasks) and the *history task count* — and picks the device with the
//! minimum load, breaking ties by minimum history count. If every
//! device is at the *maximum queue length*, the process computes the
//! task itself on its CPU (QAGS).
//!
//! RRC ion tasks are wildly skewed (an Fe ion carries orders of
//! magnitude more levels than H/He), so this crate generalizes the
//! count arrays to **weighted sums**: every grant carries a `cost` in
//! abstract work units, placement under [`SchedPolicy::CostAware`]
//! minimizes the weighted backlog scaled by each device's observed
//! service-time-per-unit EWMA (calibrated online from completions),
//! and idle consumers may **steal** staged tasks — with the grant
//! accounting moved exactly, never leaked. The paper's count policy
//! stays selectable as [`SchedPolicy::PaperCount`] for A/B runs.
//!
//! Split into:
//!
//! * [`policy`] — the pure selection function, shared verbatim by the
//!   real-thread runtime and the discrete-event performance replica, so
//!   the two cannot drift;
//! * [`Scheduler`] — the concurrent implementation over a
//!   [`mpi_sim::SharedRegion`] (atomic reservation via CAS so the queue
//!   bound holds under races);
//! * [`steal`] — per-device staging queues with largest-cost work
//!   stealing for granted-but-not-yet-launched tasks;
//! * [`autotune`] — the paper's "automatic test" that raises the maximum
//!   queue length until the performance inflexion point;
//! * [`cost`] — the online blend of the static task-cost model with
//!   measured per-task device seconds, keyed by workload class;
//! * [`breaker`] — the per-target [`CircuitBreaker`] that takes a
//!   failing device (or, at the routing tier, replica) out of
//!   placement and lets it back in on a probe.

pub mod autotune;
pub mod breaker;
pub mod cost;
pub mod policy;
pub mod steal;

pub use autotune::AutoTuner;
pub use breaker::{BreakerConfig, BreakerCounters, BreakerState, CircuitBreaker};
pub use cost::{CostKey, CostModel};
pub use policy::{
    select_device, select_device_for, select_device_with, select_device_work_aware, SchedPolicy,
    Selection, TieBreak,
};
pub use steal::{Next, Staged, StealQueues};

use std::sync::Arc;

use desim::VirtualClock;
use mpi_sim::SharedRegion;

/// Identifier of a GPU device managed by a [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

/// A granted queue slot. Dropping it without
/// [`Scheduler::free`] would leak queue capacity, so it is
/// `#[must_use]`; the runtime calls `free` when the GPU reports task
/// completion (paper `SCHE-FREE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a granted slot must be freed via Scheduler::free"]
pub struct Grant {
    /// The device the task was queued on.
    pub device: DeviceId,
    /// The estimated work units this grant reserved — what `free`
    /// subtracts from the device's weighted load.
    pub cost: u64,
}

/// A coherent-enough read of the scheduler's shared arrays: per-device
/// loads, history counts, weighted (cost-unit) backlogs, and steal
/// counters (each word individually atomic; the vector is not a
/// consistent cut, same as the paper's scheduler scanning `l_i`/`h_i`
/// without a global lock).
///
/// This is the read surface the service metrics layer and the
/// `repro-service`/`repro-sched` regenerators use to report placement
/// quality without poking `SharedRegion` internals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerSnapshot {
    /// Current queue occupancy per device (task count).
    pub loads: Vec<u64>,
    /// Completed-plus-granted task count per device since startup.
    pub histories: Vec<u64>,
    /// Current weighted (cost-unit) backlog per device.
    pub weighted_loads: Vec<u64>,
    /// Completed-plus-granted cost units per device since startup.
    pub weighted_histories: Vec<u64>,
    /// Tasks stolen *by* each device from another device's staging
    /// queue ([`Scheduler::reassign`]).
    pub steals: Vec<u64>,
    /// Staged device tasks pulled back to the CPU-fallback path
    /// ([`Scheduler::release_to_cpu`]).
    pub cpu_steals: u64,
    /// Current breaker state per device.
    pub breakers: Vec<BreakerState>,
    /// Breaker transitions summed across devices.
    pub breaker_counters: BreakerCounters,
    /// Measured-vs-static cost residual EWMA in milli-units (1000 =
    /// the static model mispredicts by 100%); `0` until the engine's
    /// [`CostModel`] has observations. Filled by the engine layer — a
    /// bare [`Scheduler::snapshot`] reports `0`.
    pub cost_residual_milli: u64,
    /// Measured-cost observations folded into the blend so far (filled
    /// by the engine layer).
    pub cost_observations: u64,
}

impl SchedulerSnapshot {
    /// Total grants currently outstanding across all devices.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.loads.iter().sum()
    }

    /// Total grants ever issued across all devices.
    #[must_use]
    pub fn total_history(&self) -> u64 {
        self.histories.iter().sum()
    }

    /// Total steals across devices and the CPU-fallback path.
    #[must_use]
    pub fn total_steals(&self) -> u64 {
        self.steals.iter().sum::<u64>() + self.cpu_steals
    }

    /// `(load, history)` of one device.
    ///
    /// # Panics
    /// Panics if `device` is out of range.
    #[must_use]
    pub fn device(&self, device: DeviceId) -> (u64, u64) {
        (self.loads[device.0], self.histories[device.0])
    }
}

/// EWMA smoothing factor for the per-device service-time-per-unit
/// estimate: new observations get a quarter of the weight, so one
/// outlier task cannot swing placement while genuine rate shifts show
/// within a few completions.
const EWMA_ALPHA: f64 = 0.25;

/// Fixed-point scale applied to `weighted_load × ewma_rate` before the
/// integer policy comparison, preserving sub-unit rate differences.
const RATE_SCALE: f64 = 1024.0;

/// The concurrent scheduler state over shared memory.
///
/// Word layout in the region (d = device count): `[0, d)` = per-device
/// load, `[d, 2d)` = history count, `[2d, 3d)` = weighted load,
/// `[3d, 4d)` = weighted history, `[4d, 5d)` = steal count,
/// `[5d, 6d)` = service-time-per-unit EWMA (`f64` bits; `0` =
/// unobserved), `[6d]` = CPU-steal count. Cloning shares state, like
/// multiple ranks attaching the same shm segment.
///
/// In a resident process a leaked [`Grant`] silently removes one queue
/// slot *forever*, so the last handle's drop debug-asserts that every
/// granted slot was freed; [`Scheduler::in_flight`] exposes the same
/// counter for release-mode shutdown checks.
///
/// ```
/// use hybrid_sched::Scheduler;
///
/// // 2 GPUs, maximum queue length 1 (paper Algorithm 1).
/// let scheduler = Scheduler::new(2, 1);
/// let a = scheduler.alloc().expect("device 0 free");
/// let b = scheduler.alloc().expect("device 1 free");
/// assert!(scheduler.alloc().is_none()); // all full -> CPU fallback
/// scheduler.free(a);
/// scheduler.free(b);
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    region: SharedRegion,
    devices: usize,
    max_queue_len: u64,
    policy: SchedPolicy,
    /// One breaker per device, shared by every clone.
    breakers: Arc<Vec<CircuitBreaker>>,
    /// The clock breaker cooldowns are measured on.
    clock: VirtualClock,
}

impl Scheduler {
    /// Create a cost-aware scheduler for `devices` GPUs with the given
    /// maximum queue length (`>= 1`). With unit costs this behaves
    /// exactly like the paper's count policy (see the `policy` module's
    /// degeneracy property test), so it is the default.
    #[must_use]
    pub fn new(devices: usize, max_queue_len: u64) -> Scheduler {
        Scheduler::with_policy(devices, max_queue_len, SchedPolicy::CostAware)
    }

    /// Create a scheduler running an explicit placement policy
    /// ([`SchedPolicy::PaperCount`] is the paper-ablation baseline).
    #[must_use]
    pub fn with_policy(devices: usize, max_queue_len: u64, policy: SchedPolicy) -> Scheduler {
        Scheduler::with_breakers(
            devices,
            max_queue_len,
            policy,
            BreakerConfig::default(),
            VirtualClock::real(),
        )
    }

    /// [`Scheduler::with_policy`] with explicit per-device breaker
    /// tuning and the clock its cooldowns run on (tests and chaos runs
    /// pass a manual clock and advance it).
    #[must_use]
    pub fn with_breakers(
        devices: usize,
        max_queue_len: u64,
        policy: SchedPolicy,
        breaker: BreakerConfig,
        clock: VirtualClock,
    ) -> Scheduler {
        Scheduler {
            region: SharedRegion::new(6 * devices + 1),
            devices,
            max_queue_len: max_queue_len.max(1),
            policy,
            breakers: Arc::new((0..devices).map(|_| CircuitBreaker::new(breaker)).collect()),
            clock,
        }
    }

    /// The breaker guarding `device`.
    ///
    /// # Panics
    /// Panics if `device` is out of range.
    #[must_use]
    pub fn breaker(&self, device: DeviceId) -> &CircuitBreaker {
        &self.breakers[device.0]
    }

    /// Record a successful task on `device` at the clock's now.
    pub fn record_success(&self, device: DeviceId) {
        self.breaker(device).record_success(self.clock.now());
    }

    /// Record a failed task attempt on `device` at the clock's now.
    pub fn record_failure(&self, device: DeviceId) {
        self.breaker(device).record_failure(self.clock.now());
    }

    /// Whether every device's breaker is Open — the routing tier's
    /// demotion signal. `false` with no devices at all (a CPU-only
    /// scheduler is degraded by construction, not by faults).
    #[must_use]
    pub fn all_open(&self) -> bool {
        !self.breakers.is_empty()
            && self
                .breakers
                .iter()
                .all(|b| b.state() == BreakerState::Open)
    }

    /// Whether `device`, with `load` grants outstanding, may receive new
    /// work now. A Closed breaker answers without reading the clock.
    fn admits(&self, device: usize, load: u64) -> bool {
        let breaker = &self.breakers[device];
        breaker.state() == BreakerState::Closed || breaker.allow(self.clock.now(), load)
    }

    /// Whether `device` may receive new work right now: its breaker is
    /// Closed, or grants it a probe (see [`CircuitBreaker::allow`]).
    /// Consumers check this before stealing for themselves.
    #[must_use]
    pub fn device_eligible(&self, device: DeviceId) -> bool {
        device.0 < self.devices && self.admits(device.0, self.region.load(device.0))
    }

    /// Number of managed devices.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// The configured maximum queue length.
    #[must_use]
    pub fn max_queue_len(&self) -> u64 {
        self.max_queue_len
    }

    /// The placement policy this scheduler runs.
    #[must_use]
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Paper `SCHE-ALLOC` with unit cost: pick a device per the
    /// configured policy and reserve one queue slot on it. Returns
    /// `None` when all devices are at the maximum queue length — the
    /// caller must then run the task on its own CPU.
    pub fn alloc(&self) -> Option<Grant> {
        self.alloc_cost(1)
    }

    /// Cost-aware `SCHE-ALLOC`: reserve one queue slot for a task of
    /// `cost` estimated work units. Under [`SchedPolicy::CostAware`]
    /// the device minimizing `weighted_load × ewma_secs_per_unit` wins
    /// (ties: history, then index); under [`SchedPolicy::PaperCount`]
    /// costs only affect the accounting, not the choice. Returns `None`
    /// when every device is at the maximum queue length.
    ///
    /// The reservation is a CAS on the load word so that two racing
    /// ranks cannot push a queue past the bound.
    pub fn alloc_cost(&self, cost: u64) -> Option<Grant> {
        if self.devices == 0 {
            return None;
        }
        let cost = cost.max(1);
        loop {
            let loads: Vec<u64> = (0..self.devices).map(|i| self.region.load(i)).collect();
            let histories: Vec<u64> = (0..self.devices)
                .map(|i| self.region.load(self.devices + i))
                .collect();
            let backlogs: Vec<u64> = (0..self.devices)
                .map(|i| {
                    let weighted = self.region.load(2 * self.devices + i) as f64;
                    (weighted * self.rate(i) * RATE_SCALE) as u64
                })
                .collect();
            // Breaker mask: devices whose breaker refuses are
            // presented to the (pure, breaker-unaware) policy as full,
            // so Open cards drop out of placement and HalfOpen cards
            // admit one probe. The CAS below still uses the *real*
            // load — an eligible device's masked and real loads agree.
            let masked: Vec<u64> = loads
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    if self.admits(i, l) {
                        l
                    } else {
                        self.max_queue_len
                    }
                })
                .collect();
            match policy::select_device_for(
                self.policy,
                &masked,
                &backlogs,
                &histories,
                self.max_queue_len,
            ) {
                Selection::Device(d) => {
                    // Publish the weighted backlog BEFORE reserving the
                    // queue slot: the cost-aware policy selects on this
                    // word, and a thread preempted between reservation
                    // and publication would otherwise leave the device
                    // looking falsely idle — attracting every
                    // concurrent allocator for a whole timeslice. An
                    // optimistic add only ever *overestimates*, which
                    // repels peers and self-corrects on rollback.
                    self.region.fetch_add(2 * self.devices + d, cost);
                    // Reserve: load[d] observed -> observed + 1.
                    if self
                        .region
                        .compare_exchange(d, loads[d], loads[d] + 1)
                        .is_ok()
                    {
                        self.region.fetch_add(self.devices + d, 1);
                        self.region.fetch_add(3 * self.devices + d, cost);
                        return Some(Grant {
                            device: DeviceId(d),
                            cost,
                        });
                    }
                    // Lost a race; roll the optimistic add back,
                    // re-read, retry.
                    self.region
                        .fetch_sub_saturating_by(2 * self.devices + d, cost);
                }
                Selection::AllBusy => return None,
            }
        }
    }

    /// Paper `SCHE-FREE`: release the queue slot of a completed task
    /// (count and weighted load both drop; history stays).
    pub fn free(&self, grant: Grant) {
        self.region.fetch_sub_saturating(grant.device.0);
        self.region
            .fetch_sub_saturating_by(2 * self.devices + grant.device.0, grant.cost);
    }

    /// [`Scheduler::free`] plus online calibration: fold the observed
    /// `service_s` seconds into the device's service-time-per-unit
    /// EWMA, so future cost-aware placement compares backlogs in
    /// estimated *time* rather than raw units (heterogeneous devices
    /// self-calibrate; identical devices converge to identical rates).
    pub fn free_observed(&self, grant: Grant, service_s: f64) {
        if service_s.is_finite() && service_s >= 0.0 {
            let observed = service_s / grant.cost.max(1) as f64;
            self.region
                .fetch_update(5 * self.devices + grant.device.0, |bits| {
                    if bits == 0 {
                        observed.to_bits()
                    } else {
                        let prev = f64::from_bits(bits);
                        (EWMA_ALPHA * observed + (1.0 - EWMA_ALPHA) * prev).to_bits()
                    }
                });
        }
        self.free(grant);
    }

    /// Move a staged grant from its device to `thief` — the work-steal
    /// bookkeeping half (the task payload itself moves through
    /// [`StealQueues`]). Reserves a slot on the thief first (CAS, same
    /// bound as `alloc_cost`), then releases the victim's slot, moves
    /// the history and weighted sums, and charges the thief's steal
    /// counter. Total in-flight grants are conserved at every
    /// interleaving point except the instant both slots are held, so
    /// accounting can never leak.
    ///
    /// # Errors
    /// Hands the grant back unchanged when the thief is at the maximum
    /// queue length (the caller keeps or re-stages the task).
    pub fn reassign(&self, grant: Grant, thief: DeviceId) -> Result<Grant, Grant> {
        if thief == grant.device {
            return Ok(grant);
        }
        // Reserve the thief slot.
        loop {
            let load = self.region.load(thief.0);
            if load >= self.max_queue_len {
                return Err(grant);
            }
            if self
                .region
                .compare_exchange(thief.0, load, load + 1)
                .is_ok()
            {
                break;
            }
        }
        let victim = grant.device.0;
        // Release the victim slot and move the sums.
        self.region.fetch_sub_saturating(victim);
        self.region
            .fetch_sub_saturating_by(2 * self.devices + victim, grant.cost);
        self.region.fetch_sub_saturating(self.devices + victim);
        self.region
            .fetch_sub_saturating_by(3 * self.devices + victim, grant.cost);
        self.region.fetch_add(self.devices + thief.0, 1);
        self.region
            .fetch_add(2 * self.devices + thief.0, grant.cost);
        self.region
            .fetch_add(3 * self.devices + thief.0, grant.cost);
        self.region.fetch_add(4 * self.devices + thief.0, 1);
        Ok(Grant {
            device: thief,
            cost: grant.cost,
        })
    }

    /// Release a staged grant back to the CPU-fallback path (the task
    /// will run on a host thread instead): the device's load, history
    /// and weighted sums all drop — as if the grant had never been
    /// issued — and the CPU-steal counter records the move.
    pub fn release_to_cpu(&self, grant: Grant) {
        let victim = grant.device.0;
        self.region.fetch_sub_saturating(victim);
        self.region
            .fetch_sub_saturating_by(2 * self.devices + victim, grant.cost);
        self.region.fetch_sub_saturating(self.devices + victim);
        self.region
            .fetch_sub_saturating_by(3 * self.devices + victim, grant.cost);
        self.region.fetch_add(6 * self.devices, 1);
    }

    /// Current load of `device`.
    #[must_use]
    pub fn load(&self, device: DeviceId) -> u64 {
        self.region.load(device.0)
    }

    /// History task count of `device`.
    #[must_use]
    pub fn history(&self, device: DeviceId) -> u64 {
        self.region.load(self.devices + device.0)
    }

    /// Current weighted (cost-unit) backlog of `device`.
    #[must_use]
    pub fn weighted_load(&self, device: DeviceId) -> u64 {
        self.region.load(2 * self.devices + device.0)
    }

    /// Observed service-time-per-unit EWMA of one device, seconds per
    /// cost unit.
    fn rate(&self, device: usize) -> f64 {
        let bits = self.region.load(5 * self.devices + device);
        if bits == 0 {
            1.0
        } else {
            f64::from_bits(bits)
        }
    }

    /// The per-device service-time-per-unit EWMA estimates, seconds per
    /// cost unit (`1.0` until a device's first observed completion).
    #[must_use]
    pub fn ewma_secs_per_unit(&self) -> Vec<f64> {
        (0..self.devices).map(|i| self.rate(i)).collect()
    }

    /// The fastest **observed** service rate across devices, seconds
    /// per cost unit — `None` until some device has settled a task.
    /// Placement can use the `1.0` prior of [`Self::ewma_secs_per_unit`]
    /// because only ratios matter there; absolute-time consumers (SLO
    /// admission pricing a deadline) must not mistake the prior for a
    /// measurement, so the unobserved state is explicit here.
    #[must_use]
    pub fn min_observed_secs_per_unit(&self) -> Option<f64> {
        (0..self.devices)
            .filter_map(|i| {
                let bits = self.region.load(5 * self.devices + i);
                (bits != 0).then(|| f64::from_bits(bits))
            })
            .reduce(f64::min)
    }

    /// Read the per-device load, history, weighted and steal arrays.
    #[must_use]
    pub fn snapshot(&self) -> SchedulerSnapshot {
        let snap = self.region.snapshot();
        let d = self.devices;
        SchedulerSnapshot {
            loads: snap[..d].to_vec(),
            histories: snap[d..2 * d].to_vec(),
            weighted_loads: snap[2 * d..3 * d].to_vec(),
            weighted_histories: snap[3 * d..4 * d].to_vec(),
            steals: snap[4 * d..5 * d].to_vec(),
            cpu_steals: snap[6 * d],
            breakers: self.breakers.iter().map(CircuitBreaker::state).collect(),
            breaker_counters: self.breakers.iter().map(CircuitBreaker::counters).sum(),
            cost_residual_milli: 0,
            cost_observations: 0,
        }
    }

    /// Grants currently outstanding (allocated, not yet freed) across
    /// all devices. Zero at a clean shutdown; anything else means queue
    /// capacity has leaked.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        (0..self.devices).map(|i| self.region.load(i)).sum()
    }
}

impl Drop for Scheduler {
    /// Leak detection for resident processes: when the *last* handle to
    /// the shared region is dropped with grants still outstanding,
    /// those queue slots can never be reclaimed — `#[must_use]` on
    /// [`Grant`] only warns, and a dropped grant today leaks silently.
    /// Debug builds fail fast; release builds stay silent (callers that
    /// care check [`Scheduler::in_flight`] before dropping).
    fn drop(&mut self) {
        if self.region.handle_count() == 1 && !std::thread::panicking() {
            let leaked = self.in_flight();
            debug_assert_eq!(
                leaked, 0,
                "scheduler dropped with {leaked} grant(s) never freed \
                 (leaked queue capacity)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_prefers_least_loaded() {
        let s = Scheduler::new(3, 4);
        // Occupy device 0 twice and device 1 once.
        let g0 = s.alloc().unwrap();
        let g1 = s.alloc().unwrap();
        let g2 = s.alloc().unwrap();
        // Round-robin by history when loads tie, so 0, 1, 2.
        assert_eq!(g0.device, DeviceId(0));
        assert_eq!(g1.device, DeviceId(1));
        assert_eq!(g2.device, DeviceId(2));
        s.free(g1); // device 1 now least loaded
        let g3 = s.alloc().unwrap();
        assert_eq!(g3.device, DeviceId(1));
        for g in [g0, g2, g3] {
            s.free(g);
        }
    }

    #[test]
    fn alloc_respects_max_queue_length() {
        let s = Scheduler::new(2, 2);
        let grants: Vec<_> = (0..4).map(|_| s.alloc().unwrap()).collect();
        assert!(s.alloc().is_none(), "all queues full");
        assert_eq!(s.load(DeviceId(0)), 2);
        assert_eq!(s.load(DeviceId(1)), 2);
        for g in grants {
            s.free(g);
        }
        let g = s.alloc().expect("drained queues accept again");
        s.free(g);
    }

    #[test]
    fn history_counts_accumulate() {
        let s = Scheduler::new(2, 8);
        for _ in 0..6 {
            let g = s.alloc().unwrap();
            s.free(g);
        }
        let total = s.history(DeviceId(0)) + s.history(DeviceId(1));
        assert_eq!(total, 6);
        // Tie-breaking by history keeps the split even.
        assert_eq!(s.history(DeviceId(0)), 3);
        assert_eq!(s.history(DeviceId(1)), 3);
    }

    #[test]
    fn zero_devices_always_falls_back() {
        let s = Scheduler::new(0, 4);
        assert!(s.alloc().is_none());
    }

    #[test]
    fn cost_aware_alloc_balances_weighted_backlog() {
        let s = Scheduler::new(2, 8);
        // One heavy grant on device 0.
        let heavy = s.alloc_cost(1000).unwrap();
        assert_eq!(heavy.device, DeviceId(0));
        assert_eq!(s.weighted_load(DeviceId(0)), 1000);
        // Light tasks all avoid the heavy device until device 1's
        // weighted backlog catches up.
        let mut lights = Vec::new();
        for _ in 0..4 {
            let g = s.alloc_cost(10).unwrap();
            assert_eq!(g.device, DeviceId(1), "light tasks avoid the heavy queue");
            lights.push(g);
        }
        assert_eq!(s.weighted_load(DeviceId(1)), 40);
        // The paper's count policy would have alternated instead.
        let paper = Scheduler::with_policy(2, 8, SchedPolicy::PaperCount);
        let h = paper.alloc_cost(1000).unwrap();
        let l = paper.alloc_cost(10).unwrap();
        assert_eq!(h.device, DeviceId(0));
        assert_eq!(l.device, DeviceId(1));
        let l2 = paper.alloc_cost(10).unwrap();
        assert_eq!(l2.device, DeviceId(0), "count policy ignores cost");
        for g in [h, l, l2] {
            paper.free(g);
        }
        s.free(heavy);
        for g in lights {
            s.free(g);
        }
        assert_eq!(s.weighted_load(DeviceId(0)), 0);
        assert_eq!(s.weighted_load(DeviceId(1)), 0);
    }

    #[test]
    fn ewma_calibration_steers_placement() {
        let s = Scheduler::new(2, 8);
        // Device 1 is observed to be 10x slower per unit.
        for _ in 0..8 {
            let g0 = s.alloc_cost(100).unwrap();
            let g1 = s.alloc_cost(100).unwrap();
            assert_ne!(g0.device, g1.device);
            let (fast, slow) = if g0.device == DeviceId(0) {
                (g0, g1)
            } else {
                (g1, g0)
            };
            s.free_observed(fast, 0.001);
            s.free_observed(slow, 0.010);
        }
        let rates = s.ewma_secs_per_unit();
        assert!(
            rates[1] > 5.0 * rates[0],
            "device 1 must calibrate slower: {rates:?}"
        );
        // Time-scaled placement: 100 units queued on the fast device
        // (~1 ms estimated) still beat 20 units on the slow one
        // (~2 ms estimated), where raw-unit comparison would say the
        // opposite.
        let pin_fast = s.alloc_cost(100).unwrap();
        assert_eq!(pin_fast.device, DeviceId(0), "empty queues: fast wins ties");
        let pin_slow = s.alloc_cost(20).unwrap();
        assert_eq!(pin_slow.device, DeviceId(1), "slow queue was empty");
        let next = s.alloc_cost(100).unwrap();
        assert_eq!(
            next.device,
            DeviceId(0),
            "backlog is compared in estimated seconds, not units: {rates:?}"
        );
        s.free(pin_fast);
        s.free(pin_slow);
        s.free(next);
    }

    #[test]
    fn reassign_moves_accounting_exactly() {
        let s = Scheduler::new(2, 4);
        let g = s.alloc_cost(500).unwrap();
        assert_eq!(g.device, DeviceId(0));
        let stolen = s.reassign(g, DeviceId(1)).expect("thief has room");
        assert_eq!(stolen.device, DeviceId(1));
        assert_eq!(stolen.cost, 500);
        let snap = s.snapshot();
        assert_eq!(snap.loads, vec![0, 1]);
        assert_eq!(snap.weighted_loads, vec![0, 500]);
        assert_eq!(snap.histories, vec![0, 1], "history moved with the task");
        assert_eq!(snap.weighted_histories, vec![0, 500]);
        assert_eq!(snap.steals, vec![0, 1]);
        assert_eq!(snap.cpu_steals, 0);
        assert_eq!(snap.in_flight(), 1, "no grant leaked by the move");
        s.free(stolen);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn reassign_to_full_thief_hands_the_grant_back() {
        let s = Scheduler::new(2, 1);
        let a = s.alloc_cost(10).unwrap();
        let b = s.alloc_cost(10).unwrap();
        assert_ne!(a.device, b.device);
        let a = s.reassign(a, b.device).expect_err("thief at bound");
        assert_eq!(s.in_flight(), 2, "failed steal changes nothing");
        s.free(a);
        s.free(b);
    }

    #[test]
    fn reassign_to_same_device_is_identity() {
        let s = Scheduler::new(1, 2);
        let g = s.alloc_cost(7).unwrap();
        let same = s.reassign(g, g.device).unwrap();
        assert_eq!(same, g);
        assert_eq!(s.snapshot().steals, vec![0]);
        s.free(same);
    }

    #[test]
    fn release_to_cpu_retires_the_grant() {
        let s = Scheduler::new(2, 4);
        let g = s.alloc_cost(900).unwrap();
        s.release_to_cpu(g);
        let snap = s.snapshot();
        assert_eq!(snap.in_flight(), 0);
        assert_eq!(snap.weighted_loads, vec![0, 0]);
        assert_eq!(snap.histories, vec![0, 0], "CPU steal uncounts history");
        assert_eq!(snap.cpu_steals, 1);
        assert_eq!(snap.total_steals(), 1);
    }

    #[test]
    fn concurrent_alloc_free_preserves_invariants() {
        let s = Scheduler::new(3, 5);
        let total_granted = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let s = s.clone();
                let total = &total_granted;
                scope.spawn(move || {
                    for i in 0..500 {
                        if let Some(g) = s.alloc_cost(1 + (t * 31 + i) % 97) {
                            // Queue bound must hold at all times.
                            assert!(s.load(g.device) <= 5);
                            total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            s.free(g);
                        }
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert!(
            snap.loads.iter().all(|&l| l == 0),
            "all slots freed: {:?}",
            snap.loads
        );
        assert!(
            snap.weighted_loads.iter().all(|&w| w == 0),
            "all weighted load drained: {:?}",
            snap.weighted_loads
        );
        assert_eq!(
            snap.total_history(),
            total_granted.load(std::sync::atomic::Ordering::Relaxed)
        );
        assert_eq!(snap.in_flight(), 0);
    }

    #[test]
    fn concurrent_steals_never_leak_grants() {
        let s = Scheduler::new(4, 3);
        std::thread::scope(|scope| {
            // Half the threads alloc+free, half alloc+reassign+free.
            for t in 0..8usize {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..400usize {
                        let Some(g) = s.alloc_cost(1 + (i % 50) as u64) else {
                            continue;
                        };
                        if t % 2 == 0 {
                            let thief = DeviceId((g.device.0 + 1 + i % 3) % 4);
                            match s.reassign(g, thief) {
                                Ok(moved) => s.free_observed(moved, 1e-6),
                                Err(kept) => s.free(kept),
                            }
                        } else if i % 7 == 0 {
                            s.release_to_cpu(g);
                        } else {
                            s.free(g);
                        }
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.in_flight(), 0, "loads drained: {:?}", snap.loads);
        assert!(
            snap.weighted_loads.iter().all(|&w| w == 0),
            "weighted drained: {:?}",
            snap.weighted_loads
        );
        assert!(snap.total_steals() > 0, "contended run must have stolen");
    }

    /// Two devices whose breakers cool down for 1 s of a manual clock.
    fn manual_breakers() -> (Scheduler, VirtualClock) {
        let clock = VirtualClock::manual();
        let breaker = BreakerConfig {
            cooldown_s: 1.0,
            ..BreakerConfig::default()
        };
        let s = Scheduler::with_breakers(2, 4, SchedPolicy::CostAware, breaker, clock.clone());
        (s, clock)
    }

    #[test]
    fn open_breakers_drop_devices_out_of_placement() {
        let (s, clock) = manual_breakers();
        s.breaker(DeviceId(0)).lose();
        for _ in 0..4 {
            let g = s.alloc().expect("healthy peer has room");
            assert_eq!(g.device, DeviceId(1), "lost device must not place");
            s.free(g);
        }
        assert!(!s.device_eligible(DeviceId(0)));
        assert!(s.device_eligible(DeviceId(1)));
        assert!(!s.all_open());
        s.breaker(DeviceId(1)).lose();
        clock.advance(1e6);
        assert!(s.alloc().is_none(), "all devices lost -> CPU fallback");
        assert!(s.all_open());
        let snap = s.snapshot();
        assert_eq!(snap.breakers, vec![BreakerState::Open, BreakerState::Open]);
        assert_eq!(snap.breaker_counters.opens, 2);
        assert_eq!(snap.breaker_counters.half_opens, 0, "lost never probes");
    }

    #[test]
    fn half_open_admits_one_probe_at_a_time() {
        let (s, clock) = manual_breakers();
        for _ in 0..4 {
            s.record_failure(DeviceId(0));
        }
        assert_eq!(s.breaker(DeviceId(0)).state(), BreakerState::Open);
        let g = s.alloc().expect("room on the closed peer");
        assert_eq!(g.device, DeviceId(1), "open device must not place");
        s.free(g);
        clock.advance(1.0);
        // Past the cooldown the device re-enters half-open: it may take
        // exactly one task until that probe completes.
        let mut grants = Vec::new();
        let mut on_zero = 0;
        for _ in 0..4 {
            let g = s.alloc().expect("room somewhere");
            if g.device == DeviceId(0) {
                on_zero += 1;
            }
            grants.push(g);
        }
        assert_eq!(on_zero, 1, "half-open admits a single probe");
        assert_eq!(s.breaker(DeviceId(0)).state(), BreakerState::HalfOpen);
        for g in grants {
            s.free(g);
        }
        s.record_success(DeviceId(0));
        let snap = s.snapshot();
        assert_eq!(snap.breakers, vec![BreakerState::Closed; 2]);
        let c = snap.breaker_counters;
        assert_eq!((c.opens, c.half_opens, c.closes), (1, 1, 1));
    }

    #[test]
    fn clones_share_state() {
        let a = Scheduler::new(1, 1);
        let b = a.clone();
        let g = a.alloc().unwrap();
        assert!(b.alloc().is_none());
        b.free(g);
        let g = b.alloc().expect("slot visible through either handle");
        a.free(g);
    }

    #[test]
    fn snapshot_tracks_alloc_free_sequences() {
        let s = Scheduler::new(2, 3);
        assert_eq!(s.snapshot().loads, vec![0, 0]);
        assert_eq!(s.snapshot().histories, vec![0, 0]);

        // Three grants: round-robin 0, 1, 0 (load then history
        // tie-break).
        let g0 = s.alloc().unwrap();
        let g1 = s.alloc().unwrap();
        let g2 = s.alloc().unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.loads, vec![2, 1]);
        assert_eq!(snap.histories, vec![2, 1]);
        assert_eq!(snap.weighted_loads, vec![2, 1], "unit costs mirror counts");
        assert_eq!(snap.in_flight(), 3);
        assert_eq!(snap.total_history(), 3);
        assert_eq!(snap.device(DeviceId(0)), (2, 2));
        assert_eq!(s.in_flight(), 3);

        // Frees drain loads but never histories.
        s.free(g0);
        s.free(g2);
        let snap = s.snapshot();
        assert_eq!(snap.loads, vec![0, 1]);
        assert_eq!(snap.histories, vec![2, 1]);
        s.free(g1);
        let snap = s.snapshot();
        assert_eq!(snap.in_flight(), 0);
        assert_eq!(snap.total_history(), 3);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn in_flight_counts_outstanding_grants() {
        let s = Scheduler::new(3, 2);
        let grants: Vec<Grant> = (0..5).map(|_| s.alloc().unwrap()).collect();
        assert_eq!(s.in_flight(), 5);
        for (i, g) in grants.into_iter().enumerate() {
            s.free(g);
            assert_eq!(s.in_flight(), 4 - i as u64);
        }
    }

    /// A `Grant` that is dropped (it is `Copy`, so nothing runs) instead
    /// of freed leaks a queue slot; the last scheduler handle's drop
    /// must flag it in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never freed")]
    fn dropping_last_handle_with_leaked_grant_panics_in_debug() {
        let s = Scheduler::new(1, 2);
        let _leaked = s.alloc().unwrap();
        drop(s);
    }

    #[test]
    fn clone_drops_do_not_trigger_leak_check() {
        let s = Scheduler::new(1, 2);
        let g = s.alloc().unwrap();
        // A non-final handle dropping while a grant is outstanding is
        // fine — only the last handle audits.
        drop(s.clone());
        s.free(g);
    }
}
