//! Per-target circuit breakers over a rolling outcome window — the one
//! failure state machine of the stack.
//!
//! Placement must react to failures, not just queue depth: a target
//! refusing every request still looks attractively idle to a load
//! balancer, which would keep feeding it work that only comes back as
//! retries. The [`crate::Scheduler`] keeps one breaker per simulated
//! device and the routing tier keeps one per replica; both run the
//! classic three-state machine:
//!
//! ```text
//!            failure rate ≥ threshold
//!            (≥ min_samples in window)
//!   Closed ───────────────────────────► Open ◄─────── lose() (forever)
//!     ▲                                  │ cooldown elapsed
//!     │ probe succeeds                   │ and nothing in flight
//!     │                                  ▼
//!     └────────────────────────────── HalfOpen ──► Open (probe fails)
//! ```
//!
//! While Open, every [`CircuitBreaker::allow`] is refused. Once the
//! cooldown has elapsed, the first caller that finds **nothing in
//! flight** on the target moves the breaker to HalfOpen and is granted
//! the probe. HalfOpen keeps admitting only while nothing is in flight,
//! so exactly one probe runs at a time — and a probe that was granted
//! but never placed (the caller routed elsewhere, or a peer stole the
//! task) does not strand the breaker: the next caller that sees the
//! target idle is granted a fresh one. The probe's outcome decides:
//! success closes the breaker (window reset), failure re-opens it for
//! another cooldown. [`CircuitBreaker::lose`] opens a breaker for good
//! (a device that is gone): its cooldown never elapses.
//!
//! Time is an explicit `now` in clock seconds (a
//! [`desim::VirtualClock`] reading) rather than `Instant`, so breaker
//! decisions replay deterministically under a manual test clock. The
//! state is mirrored in an atomic, so a Closed breaker answers
//! [`CircuitBreaker::state`] without taking its lock; hot paths check
//! for Closed first and read the clock only for a breaker that is not.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};

/// The breaker's position in the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; outcomes feed the rolling window.
    Closed,
    /// Traffic refused until the cooldown elapses (forever once lost).
    Open,
    /// On trial: one probe at a time; its outcome decides the next
    /// state.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-case label for JSON snapshots.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    fn from_u8(raw: u8) -> BreakerState {
        match raw {
            0 => BreakerState::Closed,
            1 => BreakerState::Open,
            _ => BreakerState::HalfOpen,
        }
    }
}

/// Tuning knobs of one breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Rolling window length in outcomes.
    pub window: usize,
    /// Failure fraction within the window that trips the breaker.
    pub failure_threshold: f64,
    /// Minimum outcomes in the window before it may trip (a single
    /// early failure must not open a cold breaker).
    pub min_samples: usize,
    /// Clock seconds the breaker stays Open before granting a probe.
    pub cooldown_s: f64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: 16,
            failure_threshold: 0.5,
            min_samples: 4,
            cooldown_s: 0.25,
        }
    }
}

/// Lifetime transition counters (snapshot observability).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerCounters {
    /// Closed/HalfOpen → Open transitions.
    pub opens: u64,
    /// Open → HalfOpen transitions (probes granted).
    pub half_opens: u64,
    /// HalfOpen → Closed transitions (probes succeeded).
    pub closes: u64,
}

impl std::iter::Sum for BreakerCounters {
    fn sum<I: Iterator<Item = BreakerCounters>>(iter: I) -> BreakerCounters {
        iter.fold(BreakerCounters::default(), |a, b| BreakerCounters {
            opens: a.opens + b.opens,
            half_opens: a.half_opens + b.half_opens,
            closes: a.closes + b.closes,
        })
    }
}

#[derive(Debug)]
struct BreakerInner {
    /// Rolling outcomes, `true` = failure.
    window: VecDeque<bool>,
    failures: usize,
    /// Clock second the breaker last opened (`+∞` once lost, so the
    /// cooldown never elapses).
    opened_at: f64,
    counters: BreakerCounters,
}

/// One breaker guarding one target (module docs). Thread-safe; every
/// method that may change state takes the current clock seconds
/// explicitly.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    /// The [`BreakerState`] as `u8`: stored (Release) only under
    /// `inner`'s lock, loaded (Acquire) without it. A lock-free reader
    /// acts on nothing but the state itself; anything that also needs
    /// the window or the open time re-reads the state under the lock.
    state: AtomicU8,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker with `config`.
    #[must_use]
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: AtomicU8::new(BreakerState::Closed as u8),
            inner: Mutex::new(BreakerInner {
                window: VecDeque::new(),
                failures: 0,
                opened_at: 0.0,
                counters: BreakerCounters::default(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn set(&self, state: BreakerState) {
        self.state.store(state as u8, Ordering::Release);
    }

    /// May new work go to the target right now, given `in_flight` work
    /// already outstanding on it? Closed: yes. Open: no — unless the
    /// cooldown has elapsed and nothing is in flight, which moves the
    /// breaker to HalfOpen and grants this caller the probe. HalfOpen:
    /// only while nothing is in flight (one probe at a time; a granted
    /// probe that never arrived is re-granted).
    pub fn allow(&self, now: f64, in_flight: u64) -> bool {
        if self.state() == BreakerState::Closed {
            return true;
        }
        let mut inner = self.lock();
        match self.state() {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => in_flight == 0,
            BreakerState::Open => {
                if in_flight > 0 || now - inner.opened_at < self.config.cooldown_s {
                    return false;
                }
                self.set(BreakerState::HalfOpen);
                inner.counters.half_opens += 1;
                true
            }
        }
    }

    /// Record a successful outcome against the target.
    pub fn record_success(&self, now: f64) {
        self.record(now, false);
    }

    /// Record a failed (or timed-out) outcome against the target.
    pub fn record_failure(&self, now: f64) {
        self.record(now, true);
    }

    /// The target is gone for good: open the breaker with a cooldown
    /// that never elapses.
    pub fn lose(&self) {
        let mut inner = self.lock();
        if self.state() != BreakerState::Open {
            self.open(&mut inner, 0.0);
        }
        inner.opened_at = f64::INFINITY;
    }

    fn record(&self, now: f64, failed: bool) {
        let mut inner = self.lock();
        match self.state() {
            BreakerState::HalfOpen => {
                // The probe's verdict.
                if failed {
                    self.open(&mut inner, now);
                } else {
                    self.set(BreakerState::Closed);
                    inner.window.clear();
                    inner.failures = 0;
                    inner.counters.closes += 1;
                }
            }
            BreakerState::Closed => {
                inner.window.push_back(failed);
                if failed {
                    inner.failures += 1;
                }
                while inner.window.len() > self.config.window {
                    if inner.window.pop_front() == Some(true) {
                        inner.failures -= 1;
                    }
                }
                let n = inner.window.len();
                if n >= self.config.min_samples.max(1)
                    && inner.failures as f64 >= self.config.failure_threshold * n as f64
                {
                    self.open(&mut inner, now);
                }
            }
            // Late outcomes of work that was in flight when the breaker
            // opened carry no new information.
            BreakerState::Open => {}
        }
    }

    fn open(&self, inner: &mut BreakerInner, now: f64) {
        self.set(BreakerState::Open);
        inner.opened_at = now;
        inner.window.clear();
        inner.failures = 0;
        inner.counters.opens += 1;
    }

    /// The current state (Open is reported as-is even when the cooldown
    /// has elapsed — only [`allow`](Self::allow) moves the machine).
    #[must_use]
    pub fn state(&self) -> BreakerState {
        BreakerState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Lifetime transition counters.
    #[must_use]
    pub fn counters(&self) -> BreakerCounters {
        self.lock().counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            failure_threshold: 0.5,
            min_samples: 4,
            cooldown_s: 1.0,
        }
    }

    fn tripped() -> CircuitBreaker {
        let b = CircuitBreaker::new(fast());
        for _ in 0..4 {
            b.record_failure(0.0);
        }
        b
    }

    #[test]
    fn stays_closed_under_sparse_failures() {
        let b = CircuitBreaker::new(fast());
        for i in 0..32 {
            assert!(b.allow(i as f64 * 0.01, 0));
            if i % 4 == 0 {
                b.record_failure(i as f64 * 0.01);
            } else {
                b.record_success(i as f64 * 0.01);
            }
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.counters().opens, 0);
    }

    #[test]
    fn trips_after_min_samples_at_threshold() {
        let b = CircuitBreaker::new(fast());
        // Three failures: under min_samples, must not trip.
        for _ in 0..3 {
            b.record_failure(0.0);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(0.0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.counters().opens, 1);
        assert!(!b.allow(0.5, 0), "cooldown not elapsed");
    }

    #[test]
    fn half_open_grants_exactly_one_probe() {
        let b = tripped();
        assert!(b.allow(1.5, 0), "cooldown elapsed: the probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(1.6, 1), "second caller refused while probing");
        assert!(!b.allow(99.0, 1), "time alone cannot mint more probes");
        assert_eq!(b.counters().half_opens, 1);
    }

    #[test]
    fn half_open_admits_only_with_nothing_in_flight() {
        let b = tripped();
        assert!(!b.allow(1.5, 2), "work still in flight: no probe yet");
        assert_eq!(b.state(), BreakerState::Open, "no probe, no transition");
        assert_eq!(b.counters().half_opens, 0);
        assert!(b.allow(1.5, 0), "drained: the probe");
        for in_flight in 1..4 {
            assert!(!b.allow(2.0, in_flight), "the probe is out");
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn unplaced_probe_is_granted_again() {
        // The probe's caller routed elsewhere (or a peer stole the
        // task): nothing ever reached the target, so nothing will ever
        // record a verdict. The next caller that finds it idle probes.
        let b = tripped();
        assert!(b.allow(1.5, 0));
        assert!(b.allow(1.6, 0), "nothing in flight: re-granted");
        assert_eq!(b.counters().half_opens, 1, "still one transition");
        b.record_success(1.7);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn lost_target_never_half_opens() {
        let b = CircuitBreaker::new(fast());
        b.lose();
        assert_eq!(b.state(), BreakerState::Open);
        for now in [1.0, 1e3, 1e9, f64::MAX] {
            assert!(!b.allow(now, 0), "a lost target never probes (t={now})");
        }
        b.record_success(2.0);
        assert_eq!(b.state(), BreakerState::Open, "late outcomes ignored");
        // Losing an already-open breaker counts no second open.
        let tripped = tripped();
        tripped.lose();
        assert!(!tripped.allow(5.0, 0));
        assert_eq!(tripped.counters().opens, 1);
    }

    #[test]
    fn probe_success_closes_probe_failure_reopens() {
        let b = tripped();
        assert!(b.allow(1.5, 0));
        b.record_failure(1.6); // probe fails
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(2.0, 0), "new cooldown restarts from the re-open");
        assert!(b.allow(2.7, 0));
        b.record_success(2.8); // probe succeeds
        assert_eq!(b.state(), BreakerState::Closed);
        let c = b.counters();
        assert_eq!((c.opens, c.half_opens, c.closes), (2, 2, 1));
        // The window reset: old failures don't haunt the fresh state.
        b.record_failure(3.0);
        b.record_failure(3.0);
        b.record_failure(3.0);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn rolling_window_forgets_old_outcomes() {
        let b = CircuitBreaker::new(fast());
        // A healthy prefix, two failures, then a run of successes
        // longer than the window: the failures age out, later failures
        // count alone.
        for _ in 0..4 {
            b.record_success(0.0);
        }
        b.record_failure(0.0);
        b.record_failure(0.0);
        for _ in 0..8 {
            b.record_success(0.1);
        }
        b.record_failure(0.2);
        b.record_failure(0.2);
        b.record_failure(0.2);
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "3 of 8 in-window failures is under the 0.5 threshold"
        );
    }

    #[test]
    fn outcomes_while_open_are_ignored() {
        let b = tripped();
        b.record_success(0.1); // straggler reply from before the trip
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(1.5, 0), "cooldown still measured from the open");
    }

    #[test]
    fn flapping_target_trips_on_rate_without_a_streak() {
        // Alternating outcomes never build a streak, but half the
        // window failing is at the threshold.
        let b = CircuitBreaker::new(fast());
        for _ in 0..2 {
            b.record_success(0.0);
            b.record_failure(0.0);
        }
        assert_eq!(b.state(), BreakerState::Open, "50% failure rate trips");
    }

    #[test]
    fn counters_sum_across_breakers() {
        let a = tripped();
        let b = tripped();
        assert!(b.allow(1.5, 0));
        b.record_success(1.6);
        let total: BreakerCounters = [a.counters(), b.counters()].into_iter().sum();
        assert_eq!((total.opens, total.half_opens, total.closes), (2, 1, 1));
    }
}
