//! Per-device staging queues with bounded, largest-cost work stealing.
//!
//! The [`crate::Scheduler`] decides *where* a task should run and
//! reserves the queue slot; this module holds the granted-but-not-yet-
//! launched task payloads so an idle device can take work from a
//! loaded one instead of draining its own empty queue. Stealing moves
//! the **largest-cost** staged task from the **most-backlogged** victim
//! — the move that best shortens the makespan tail — and the caller
//! then moves the grant accounting with [`crate::Scheduler::reassign`]
//! (or [`crate::Scheduler::release_to_cpu`] for the CPU-fallback
//! steal), so counters and payloads can never disagree for longer than
//! one in-flight handoff.
//!
//! One mutex guards all queues. That is deliberate: steals need a
//! consistent cross-queue view (argmax backlog), the critical sections
//! are a few pointer moves, and tasks here are *ion-sized* — thousands
//! per run, not millions — so a sharded design would buy nothing but
//! races.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// A staged task payload with its scheduling metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Staged<T> {
    /// Estimated work units (same scale as [`crate::Grant::cost`]).
    pub cost: u64,
    /// Global staging sequence number — ties on cost steal the oldest
    /// entry first, which keeps every selection deterministic.
    pub seq: u64,
    /// Absolute deadline in clock seconds ([`f64::INFINITY`] = none).
    /// Local dequeue is earliest-deadline-first with `seq` breaking
    /// ties, so all-equal deadlines degrade exactly to FIFO.
    pub deadline: f64,
    /// The task payload.
    pub item: T,
}

impl<T> Staged<T> {
    /// EDF ordering key: earliest deadline first, oldest entry on ties.
    fn edf_key(&self) -> (f64, u64) {
        (self.deadline, self.seq)
    }
}

/// `(deadline, seq)` comparison with a total order on the deadline
/// (`NaN` never occurs; infinities must compare).
fn edf_less(a: (f64, u64), b: (f64, u64)) -> bool {
    match a.0.total_cmp(&b.0) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.1 < b.1,
    }
}

/// What [`StealQueues::next`] handed the consumer.
#[derive(Debug, PartialEq)]
pub enum Next<T> {
    /// A task from the consumer's own queue (FIFO order).
    Local(Staged<T>),
    /// A task stolen from `victim`'s queue (its largest-cost entry).
    /// The consumer must move the grant with
    /// [`crate::Scheduler::reassign`] before launching — and re-stage
    /// the task back to `victim` if that fails.
    Stolen {
        /// Device index the task was staged on.
        victim: usize,
        /// The stolen entry.
        task: Staged<T>,
    },
    /// The queues are closed and globally empty; the consumer should
    /// exit.
    Closed,
}

#[derive(Debug)]
struct Inner<T> {
    queues: Vec<VecDeque<Staged<T>>>,
    /// Sum of staged costs per queue, maintained incrementally so steal
    /// victim selection is O(devices), not O(tasks).
    backlog: Vec<u64>,
    closed: bool,
    next_seq: u64,
}

/// The staging structure: one FIFO queue per device plus a condvar for
/// blocking consumers. Cloning shares state (producers and per-device
/// pump threads each hold a handle).
#[derive(Debug)]
pub struct StealQueues<T> {
    inner: Arc<(Mutex<Inner<T>>, Condvar)>,
}

// Manual impl: a clone shares the queues, so `T: Clone` (which derive
// would demand) is not needed.
impl<T> Clone for StealQueues<T> {
    fn clone(&self) -> StealQueues<T> {
        StealQueues {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// How long a blocked consumer sleeps between re-examining the queues.
/// The timeout (rather than pure notification) makes the wait loop
/// trivially live: even a missed edge case in wakeup coverage costs at
/// most one interval, never a hang.
const WAIT_INTERVAL: Duration = Duration::from_micros(200);

impl<T> StealQueues<T> {
    /// Create queues for `devices` consumers.
    #[must_use]
    pub fn new(devices: usize) -> StealQueues<T> {
        StealQueues {
            inner: Arc::new((
                Mutex::new(Inner {
                    queues: (0..devices).map(|_| VecDeque::new()).collect(),
                    backlog: vec![0; devices],
                    closed: false,
                    next_seq: 0,
                }),
                Condvar::new(),
            )),
        }
    }

    /// Stage a task of `cost` units on `device`'s queue and wake
    /// consumers (no deadline: dequeued after every deadlined task,
    /// FIFO among its peers).
    ///
    /// # Panics
    /// Panics if `device` is out of range.
    pub fn stage(&self, device: usize, cost: u64, item: T) {
        self.stage_deadline(device, cost, f64::INFINITY, item);
    }

    /// Stage a task carrying an absolute `deadline` (clock seconds) on
    /// `device`'s queue and wake consumers. Local dequeue is EDF over
    /// these deadlines; [`f64::INFINITY`] marks deadline-free work.
    ///
    /// # Panics
    /// Panics if `device` is out of range.
    pub fn stage_deadline(&self, device: usize, cost: u64, deadline: f64, item: T) {
        let (lock, cvar) = &*self.inner;
        let mut inner = lock.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.queues[device].push_back(Staged {
            cost,
            seq,
            deadline,
            item,
        });
        inner.backlog[device] += cost;
        drop(inner);
        cvar.notify_all();
    }

    /// Blocking fetch for `device`'s consumer: its own queue in EDF
    /// order first (earliest deadline, then staging order — plain FIFO
    /// when no deadlines are in play); when that is empty and
    /// `can_steal` holds (or the queues are closed — draining leftovers
    /// is always worth it), the largest-cost task from the
    /// most-backlogged other queue. Blocks until work arrives or
    /// [`StealQueues::close`] has been called and every queue is empty.
    ///
    /// # Panics
    /// Panics if `device` is out of range.
    pub fn next(&self, device: usize, can_steal: bool) -> Next<T> {
        let (lock, cvar) = &*self.inner;
        let mut inner = lock.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(task) = inner.pop_edf(device) {
                inner.backlog[device] -= task.cost;
                return Next::Local(task);
            }
            if can_steal || inner.closed {
                if let Some((victim, task)) = inner.steal_from_busiest(device) {
                    return Next::Stolen { victim, task };
                }
            }
            if inner.closed && inner.queues.iter().all(VecDeque::is_empty) {
                return Next::Closed;
            }
            let (guard, _timeout) = cvar
                .wait_timeout(inner, WAIT_INTERVAL)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    /// Non-blocking global steal for the CPU-fallback path: remove and
    /// return the single largest-cost staged task across *all* queues,
    /// provided its cost exceeds `cost_floor` — swapping a queued heavy
    /// task onto the CPU only pays off when it is heavier than the task
    /// the caller is about to run there anyway.
    pub fn try_steal_over(&self, cost_floor: u64) -> Option<(usize, Staged<T>)> {
        let (lock, _) = &*self.inner;
        let mut inner = lock.lock().unwrap_or_else(PoisonError::into_inner);
        let mut best: Option<(usize, usize)> = None; // (queue, position)
        for (q, queue) in inner.queues.iter().enumerate() {
            for (p, task) in queue.iter().enumerate() {
                let better = match best {
                    None => true,
                    Some((bq, bp)) => {
                        let b = &inner.queues[bq][bp];
                        (task.cost, std::cmp::Reverse(task.seq))
                            > (b.cost, std::cmp::Reverse(b.seq))
                    }
                };
                if task.cost > cost_floor && better {
                    best = Some((q, p));
                }
            }
        }
        let (q, p) = best?;
        let task = inner.queues[q].remove(p).expect("position just scanned");
        inner.backlog[q] -= task.cost;
        Some((q, task))
    }

    /// Close the queues: staged tasks already present still drain, then
    /// every blocked consumer receives [`Next::Closed`].
    pub fn close(&self) {
        let (lock, cvar) = &*self.inner;
        lock.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        cvar.notify_all();
    }

    /// Total staged (not yet fetched) tasks across all queues.
    #[must_use]
    pub fn staged_len(&self) -> usize {
        let (lock, _) = &*self.inner;
        lock.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queues
            .iter()
            .map(VecDeque::len)
            .sum()
    }
}

impl<T> Inner<T> {
    /// Remove and return `device`'s EDF-next entry (earliest deadline,
    /// then oldest), or `None` on an empty queue.
    fn pop_edf(&mut self, device: usize) -> Option<Staged<T>> {
        let queue = &mut self.queues[device];
        let mut best: Option<usize> = None;
        for (p, task) in queue.iter().enumerate() {
            if best.is_none_or(|b| edf_less(task.edf_key(), queue[b].edf_key())) {
                best = Some(p);
            }
        }
        queue.remove(best?)
    }

    /// Take the largest-cost task (oldest wins ties) from the
    /// most-backlogged queue other than `thief`'s own.
    fn steal_from_busiest(&mut self, thief: usize) -> Option<(usize, Staged<T>)> {
        let victim = (0..self.queues.len())
            .filter(|&q| q != thief && !self.queues[q].is_empty())
            .max_by_key(|&q| (self.backlog[q], std::cmp::Reverse(q)))?;
        let pos = (0..self.queues[victim].len())
            .max_by_key(|&p| {
                let t = &self.queues[victim][p];
                (t.cost, std::cmp::Reverse(t.seq))
            })
            .expect("victim queue is non-empty");
        let task = self.queues[victim].remove(pos).expect("position in range");
        self.backlog[victim] -= task.cost;
        Some((victim, task))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_fetch_is_fifo() {
        let q: StealQueues<&str> = StealQueues::new(2);
        q.stage(0, 5, "a");
        q.stage(0, 50, "b");
        q.stage(0, 1, "c");
        for expected in ["a", "b", "c"] {
            match q.next(0, false) {
                Next::Local(t) => assert_eq!(t.item, expected),
                other => panic!("expected Local({expected}), got {other:?}"),
            }
        }
        assert_eq!(q.staged_len(), 0);
    }

    #[test]
    fn local_fetch_is_edf_when_deadlines_differ() {
        let q: StealQueues<&str> = StealQueues::new(1);
        q.stage_deadline(0, 1, 5.0, "later");
        q.stage(0, 1, "never"); // INFINITY: always last
        q.stage_deadline(0, 1, 2.0, "soon");
        q.stage_deadline(0, 1, 2.0, "soon-but-younger");
        for expected in ["soon", "soon-but-younger", "later", "never"] {
            match q.next(0, false) {
                Next::Local(t) => assert_eq!(t.item, expected),
                other => panic!("expected Local({expected}), got {other:?}"),
            }
        }
    }

    #[test]
    fn edf_degenerates_to_fifo_on_equal_deadlines() {
        // Property (seeded sweep): under any staging order, when every
        // deadline is the same value — finite or not — EDF dequeue is
        // indistinguishable from plain FIFO.
        let mut rng = desim::rng(11);
        for trial in 0..50 {
            let deadline = match trial % 3 {
                0 => f64::INFINITY,
                1 => 0.0,
                _ => rng.gen_range(0.1..100.0),
            };
            let n = 1 + (rng.next_u64() % 24) as usize;
            let q: StealQueues<usize> = StealQueues::new(2);
            for i in 0..n {
                let cost = 1 + rng.next_u64() % 97; // cost must not matter
                q.stage_deadline(0, cost, deadline, i);
            }
            for i in 0..n {
                match q.next(0, false) {
                    Next::Local(t) => {
                        assert_eq!(t.item, i, "trial {trial}: FIFO order broken at {i}");
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn steal_takes_largest_cost_from_most_backlogged() {
        let q: StealQueues<u32> = StealQueues::new(3);
        // Queue 1 backlog 60, queue 2 backlog 100.
        q.stage(1, 10, 10);
        q.stage(1, 50, 11);
        q.stage(2, 30, 20);
        q.stage(2, 70, 21);
        match q.next(0, true) {
            Next::Stolen { victim, task } => {
                assert_eq!(victim, 2, "most backlogged queue loses");
                assert_eq!(task.cost, 70, "largest-cost entry, not FIFO head");
                assert_eq!(task.item, 21);
            }
            other => panic!("expected steal, got {other:?}"),
        }
        // Queue 1 (60) now out-backlogs queue 2 (30).
        match q.next(0, true) {
            Next::Stolen { victim, task } => {
                assert_eq!(victim, 1);
                assert_eq!(task.cost, 50);
            }
            other => panic!("expected steal, got {other:?}"),
        }
    }

    #[test]
    fn own_queue_wins_over_stealing() {
        let q: StealQueues<u32> = StealQueues::new(2);
        q.stage(1, 1000, 9);
        q.stage(0, 1, 1);
        match q.next(0, true) {
            Next::Local(t) => assert_eq!(t.item, 1),
            other => panic!("expected local task, got {other:?}"),
        }
    }

    #[test]
    fn equal_costs_steal_oldest_first() {
        let q: StealQueues<u32> = StealQueues::new(2);
        q.stage(1, 10, 100);
        q.stage(1, 10, 101);
        match q.next(0, true) {
            Next::Stolen { task, .. } => assert_eq!(task.item, 100),
            other => panic!("expected steal, got {other:?}"),
        }
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q: StealQueues<u32> = StealQueues::new(2);
        q.stage(0, 1, 7);
        q.stage(1, 1, 8);
        q.close();
        match q.next(0, false) {
            Next::Local(t) => assert_eq!(t.item, 7),
            other => panic!("{other:?}"),
        }
        // Closed queues let a consumer drain *other* queues even when
        // it could not normally steal.
        match q.next(0, false) {
            Next::Stolen { victim, task } => {
                assert_eq!(victim, 1);
                assert_eq!(task.item, 8);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(q.next(0, false), Next::Closed);
        assert_eq!(q.next(1, true), Next::Closed);
    }

    /// Spawn a consumer that hand-shakes on a barrier before blocking
    /// in `next`, so the caller's stage/close races a consumer that is
    /// already on its way into the wait rather than one not yet started.
    fn consumer(
        q: &StealQueues<u32>,
        can_steal: bool,
    ) -> (std::thread::JoinHandle<Next<u32>>, Arc<std::sync::Barrier>) {
        let ready = Arc::new(std::sync::Barrier::new(2));
        let (qc, rc) = (q.clone(), Arc::clone(&ready));
        let handle = std::thread::spawn(move || {
            rc.wait();
            qc.next(0, can_steal)
        });
        (handle, ready)
    }

    #[test]
    fn blocked_consumer_wakes_on_stage() {
        let q: StealQueues<u32> = StealQueues::new(1);
        let (consumer, ready) = consumer(&q, false);
        ready.wait();
        q.stage(0, 1, 42);
        match consumer.join().unwrap() {
            Next::Local(t) => assert_eq!(t.item, 42),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q: StealQueues<u32> = StealQueues::new(1);
        let (consumer, ready) = consumer(&q, true);
        ready.wait();
        q.close();
        assert_eq!(consumer.join().unwrap(), Next::Closed);
    }

    #[test]
    fn cpu_steal_respects_the_cost_floor() {
        let q: StealQueues<u32> = StealQueues::new(2);
        q.stage(0, 10, 1);
        q.stage(1, 40, 2);
        assert!(
            q.try_steal_over(40).is_none(),
            "nothing strictly heavier than 40"
        );
        let (victim, task) = q.try_steal_over(39).expect("40 > 39");
        assert_eq!(victim, 1);
        assert_eq!(task.cost, 40);
        assert_eq!(q.staged_len(), 1);
    }

    #[test]
    fn poisoned_lock_does_not_deadlock_consumers() {
        // An out-of-range stage panics while holding the queue mutex,
        // poisoning it — exactly what a worker panic mid-operation
        // does. Every later operation must keep working on the
        // recovered state instead of cascading unwrap panics.
        let q: StealQueues<u32> = StealQueues::new(1);
        q.stage(0, 1, 7);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.stage(5, 1, 99); // out of range: panics under the lock
        }));
        assert!(poison.is_err());
        assert_eq!(q.staged_len(), 1, "pre-panic state intact");
        match q.next(0, false) {
            Next::Local(t) => assert_eq!(t.item, 7),
            other => panic!("{other:?}"),
        }
        q.close();
        assert_eq!(q.next(0, false), Next::Closed);
    }

    #[test]
    fn restaging_a_failed_steal_preserves_the_task() {
        let q: StealQueues<u32> = StealQueues::new(2);
        q.stage(1, 30, 5);
        let Next::Stolen { victim, task } = q.next(0, true) else {
            panic!("expected steal");
        };
        // Thief's reassign failed: hand the task back.
        q.stage(victim, task.cost, task.item);
        match q.next(1, false) {
            Next::Local(t) => assert_eq!(t.item, 5),
            other => panic!("{other:?}"),
        }
    }
}
