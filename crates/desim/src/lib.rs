//! Deterministic discrete-event simulation kernel.
//!
//! The paper evaluates its hybrid runtime on a 2011 testbed (2× Xeon
//! E5-2640 + 4× Tesla C2075). To reproduce the *timing* figures without
//! that hardware, the whole hybrid system — MPI ranks, the shared-memory
//! scheduler, the PCIe bus, per-GPU queues and contended CPU cores — is
//! replayed on a virtual clock by this engine (see `DESIGN.md`,
//! substitution table).
//!
//! Design:
//!
//! * [`Simulation<W>`] owns the virtual clock, the event queue, all
//!   resources, and a user world `W`. Events are boxed `FnOnce`
//!   continuations; everything is strictly ordered by `(time, sequence)`
//!   so runs are bit-deterministic.
//! * Resources are FCFS servers with a fixed capacity: `acquire`
//!   either grants immediately or enqueues the continuation; `release`
//!   wakes the next waiter. Each resource keeps a time-weighted
//!   [`LoadHistogram`] (the raw data behind paper Fig. 6) plus busy-time
//!   and grant counters.
//! * [`rng()`](fn@rng) provides seeded, reproducible randomness for
//!   workload jitter.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

pub mod clock;
pub mod rng;
pub mod stats;
pub mod timeseries;

pub use clock::{Deadline, Priority, VirtualClock};
pub use rng::{rng, SimRng};
pub use stats::{LatencyHistogram, LoadHistogram};
pub use timeseries::TimeSeries;

type EventFn<W> = Box<dyn FnOnce(&mut Simulation<W>)>;

struct ScheduledEvent<W: 'static> {
    time: f64,
    seq: u64,
    run: EventFn<W>,
}

impl<W> PartialEq for ScheduledEvent<W> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<W> Eq for ScheduledEvent<W> {}
impl<W> PartialOrd for ScheduledEvent<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for ScheduledEvent<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest (time, seq)
        // pops first. Times are finite by construction.
        other
            .time
            .partial_cmp(&self.time)
            .expect("finite event times")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Identifier of a resource within its simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(usize);

/// A FCFS server pool inside the simulation.
struct Resource<W: 'static> {
    capacity: usize,
    busy: usize,
    waiters: VecDeque<EventFn<W>>,
    stats: ResourceStats,
}

/// Counters and time-weighted statistics of one resource.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceStats {
    /// Total number of grants handed out.
    pub grants: u64,
    /// Integral of busy servers over time (busy-server-seconds).
    pub busy_time: f64,
    /// Time-weighted histogram of the *load* (busy + queued).
    pub load: LoadHistogram,
}

/// The simulation: virtual clock, event queue, resources and a user
/// world `W` that events may freely mutate.
///
/// ```
/// use desim::Simulation;
///
/// let mut sim = Simulation::new(0u32);
/// sim.schedule(2.0, |sim| {
///     sim.world += 1;
///     sim.schedule(3.0, |sim| sim.world += 10);
/// });
/// let end = sim.run();
/// assert_eq!((end, sim.world), (5.0, 11));
/// ```
pub struct Simulation<W: 'static> {
    now: f64,
    seq: u64,
    queue: BinaryHeap<ScheduledEvent<W>>,
    resources: Vec<Resource<W>>,
    executed: u64,
    /// User state, reachable from every event continuation.
    pub world: W,
}

impl<W: 'static> Simulation<W> {
    /// Create a simulation at virtual time 0 owning `world`.
    pub fn new(world: W) -> Simulation<W> {
        Simulation {
            now: 0.0,
            seq: 0,
            queue: BinaryHeap::new(),
            resources: Vec::new(),
            executed: 0,
            world,
        }
    }

    /// Current virtual time in seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of events executed so far.
    #[must_use]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Schedule `event` to run after `delay` seconds of virtual time.
    /// Negative or non-finite delays are clamped to zero (events never
    /// travel back in time).
    pub fn schedule<F>(&mut self, delay: f64, event: F)
    where
        F: FnOnce(&mut Simulation<W>) + 'static,
    {
        let delay = if delay.is_finite() && delay > 0.0 {
            delay
        } else {
            0.0
        };
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at absolute virtual time `time` (clamped to now).
    pub fn schedule_at<F>(&mut self, time: f64, event: F)
    where
        F: FnOnce(&mut Simulation<W>) + 'static,
    {
        let time = if time.is_finite() && time > self.now {
            time
        } else {
            self.now
        };
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(ScheduledEvent {
            time,
            seq,
            run: Box::new(event),
        });
    }

    /// Create a FCFS resource with `capacity` concurrent slots
    /// (`capacity >= 1`).
    pub fn create_resource(&mut self, capacity: usize) -> ResourceId {
        self.resources.push(Resource {
            capacity: capacity.max(1),
            busy: 0,
            waiters: VecDeque::new(),
            stats: ResourceStats::default(),
        });
        ResourceId(self.resources.len() - 1)
    }

    /// Request one slot of `id`. `granted` runs (as an event at the grant
    /// time) once a slot is available — immediately if the resource has
    /// capacity, otherwise after FIFO queueing. The caller must
    /// eventually [`release`](Simulation::release) the slot.
    pub fn acquire<F>(&mut self, id: ResourceId, granted: F)
    where
        F: FnOnce(&mut Simulation<W>) + 'static,
    {
        let now = self.now;
        let res = &mut self.resources[id.0];
        res.stats
            .load
            .record(now, (res.busy + res.waiters.len() + 1) as u32);
        if res.busy < res.capacity {
            res.busy += 1;
            res.stats.grants += 1;
            // Run as a scheduled zero-delay event, keeping execution
            // order deterministic relative to other same-time events.
            self.schedule(0.0, granted);
        } else {
            res.waiters.push_back(Box::new(granted));
        }
    }

    /// Release one slot of `id`, waking the oldest waiter if any.
    ///
    /// # Panics
    /// Panics if the resource has no outstanding grant.
    pub fn release(&mut self, id: ResourceId) {
        let now = self.now;
        let res = &mut self.resources[id.0];
        assert!(res.busy > 0, "release without matching acquire");
        res.stats
            .load
            .record(now, (res.busy + res.waiters.len() - 1) as u32);
        if let Some(next) = res.waiters.pop_front() {
            // Slot transfers directly to the next waiter.
            res.stats.grants += 1;
            self.schedule(0.0, next);
        } else {
            res.busy -= 1;
        }
    }

    /// Current load (busy + queued) of `id`.
    #[must_use]
    pub fn load(&self, id: ResourceId) -> usize {
        let res = &self.resources[id.0];
        res.busy + res.waiters.len()
    }

    /// Statistics of `id`, finalized up to the current virtual time.
    #[must_use]
    pub fn resource_stats(&mut self, id: ResourceId) -> ResourceStats {
        let now = self.now;
        let capacity = self.resources[id.0].capacity;
        let res = &mut self.resources[id.0];
        let current = (res.busy + res.waiters.len()) as u32;
        res.stats.load.record(now, current); // flush elapsed time
        let mut stats = res.stats.clone();
        // Busy time = integral of min(load, capacity) over time.
        stats.busy_time = stats.load.busy_integral(capacity as u32);
        stats
    }

    /// Run until the event queue drains. Returns the final virtual time.
    pub fn run(&mut self) -> f64 {
        while let Some(ev) = self.queue.pop() {
            debug_assert!(ev.time >= self.now, "time must be monotonic");
            self.now = ev.time;
            self.executed += 1;
            (ev.run)(self);
        }
        self.now
    }

    /// Run events with `time <= t`, then set the clock to exactly `t`.
    pub fn run_until(&mut self, t: f64) -> f64 {
        while let Some(ev) = self.queue.peek() {
            if ev.time > t {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            self.now = ev.time;
            self.executed += 1;
            (ev.run)(self);
        }
        self.now = self.now.max(t);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(());
        for (delay, tag) in [(3.0, 'c'), (1.0, 'a'), (2.0, 'b')] {
            let log = Rc::clone(&log);
            sim.schedule(delay, move |_| log.borrow_mut().push(tag));
        }
        let end = sim.run();
        assert_eq!(*log.borrow(), vec!['a', 'b', 'c']);
        assert_eq!(end, 3.0);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn same_time_events_run_in_schedule_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(());
        for tag in 0..10 {
            let log = Rc::clone(&log);
            sim.schedule(1.0, move |_| log.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulation::new(0u32);
        sim.schedule(1.0, |sim| {
            sim.world += 1;
            sim.schedule(2.0, |sim| {
                sim.world += 10;
            });
        });
        let end = sim.run();
        assert_eq!(sim.world, 11);
        assert_eq!(end, 3.0);
    }

    #[test]
    fn negative_delay_clamps_to_now() {
        let mut sim = Simulation::new(Vec::<f64>::new());
        sim.schedule(5.0, |sim| {
            sim.schedule(-3.0, |sim| {
                let t = sim.now();
                sim.world.push(t);
            });
        });
        sim.run();
        assert_eq!(sim.world, vec![5.0]);
    }

    #[test]
    fn resource_grants_up_to_capacity_then_queues() {
        let mut sim = Simulation::new(Vec::<(f64, u32)>::new());
        let res = sim.create_resource(2);
        for i in 0..4u32 {
            sim.schedule(0.0, move |sim| {
                sim.acquire(res, move |sim| {
                    let t = sim.now();
                    sim.world.push((t, i));
                    // Hold the slot for 10 s.
                    sim.schedule(10.0, move |sim| sim.release(res));
                });
            });
        }
        sim.run();
        // First two granted at t=0, next two at t=10.
        assert_eq!(sim.world.len(), 4);
        assert_eq!(sim.world[0], (0.0, 0));
        assert_eq!(sim.world[1], (0.0, 1));
        assert_eq!(sim.world[2].0, 10.0);
        assert_eq!(sim.world[3].0, 10.0);
        // FIFO: waiter 2 before waiter 3.
        assert_eq!(sim.world[2].1, 2);
        assert_eq!(sim.world[3].1, 3);
    }

    #[test]
    fn load_counts_busy_plus_queued() {
        let mut sim = Simulation::new(());
        let res = sim.create_resource(1);
        for _ in 0..3 {
            sim.schedule(0.0, move |sim| {
                sim.acquire(res, move |sim| {
                    sim.schedule(5.0, move |sim| sim.release(res));
                });
            });
        }
        sim.run_until(1.0);
        assert_eq!(sim.load(res), 3); // 1 busy + 2 queued
        sim.run_until(6.0);
        assert_eq!(sim.load(res), 2);
        sim.run();
        assert_eq!(sim.load(res), 0);
    }

    #[test]
    fn stats_grants_and_busy_time() {
        let mut sim = Simulation::new(());
        let res = sim.create_resource(1);
        for _ in 0..2 {
            sim.schedule(0.0, move |sim| {
                sim.acquire(res, move |sim| {
                    sim.schedule(3.0, move |sim| sim.release(res));
                });
            });
        }
        sim.run();
        let stats = sim.resource_stats(res);
        assert_eq!(stats.grants, 2);
        // Server busy from t=0 to t=6 (two back-to-back 3 s services).
        assert!((stats.busy_time - 6.0).abs() < 1e-9, "{}", stats.busy_time);
    }

    #[test]
    #[should_panic(expected = "release without matching acquire")]
    fn release_without_acquire_panics() {
        let mut sim = Simulation::new(());
        let res = sim.create_resource(1);
        sim.schedule(0.0, move |sim| sim.release(res));
        sim.run();
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut sim = Simulation::new(0u32);
        sim.schedule(1.0, |sim| sim.world += 1);
        sim.schedule(2.0, |sim| sim.world += 1);
        sim.schedule(3.0, |sim| sim.world += 1);
        let t = sim.run_until(2.0);
        assert_eq!(t, 2.0);
        assert_eq!(sim.world, 2);
        sim.run();
        assert_eq!(sim.world, 3);
    }

    #[test]
    fn deterministic_rng() {
        let mut a = rng(42);
        let mut b = rng(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = rng(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn capacity_is_never_exceeded() {
        // Stress: many overlapping holders of a capacity-3 resource.
        struct World {
            active: usize,
            max_active: usize,
        }
        let mut sim = Simulation::new(World {
            active: 0,
            max_active: 0,
        });
        let res = sim.create_resource(3);
        let mut r = rng(7);
        for _ in 0..200 {
            let start: f64 = r.gen_range(0.0..50.0);
            let dur: f64 = r.gen_range(0.1..5.0);
            sim.schedule(start, move |sim| {
                sim.acquire(res, move |sim| {
                    sim.world.active += 1;
                    sim.world.max_active = sim.world.max_active.max(sim.world.active);
                    sim.schedule(dur, move |sim| {
                        sim.world.active -= 1;
                        sim.release(res);
                    });
                });
            });
        }
        sim.run();
        assert!(sim.world.max_active <= 3, "{}", sim.world.max_active);
        assert_eq!(sim.world.active, 0);
    }
}
