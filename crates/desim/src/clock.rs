//! Request-time primitives: a shareable clock, absolute deadlines, and
//! priority classes.
//!
//! The service and routing tiers above this crate attach an SLO to
//! every request: an absolute [`Deadline`] on a [`VirtualClock`] plus a
//! [`Priority`] class. The clock abstracts *whose* time the deadline is
//! measured against — production uses [`VirtualClock::real`] (anchored
//! monotonic wall time), tests use [`VirtualClock::manual`] and advance
//! it explicitly so admission and breaker cooldown decisions replay
//! bit-for-bit. One clock serves the whole stack: the engine
//! configuration carries it, the scheduler's per-device circuit
//! breakers run their cooldowns on it, and the service and router read
//! the engine's clock for request deadlines, per-replica breakers and
//! the hedge budget. Placing these types here (the lowest crate in the
//! workspace) lets the scheduler, engine, service, and router all speak
//! the same deadline vocabulary without a dependency cycle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Monotonic seconds source shared across threads.
///
/// Cloning is cheap (an `Arc` handle); every clone reads the same
/// timeline. The manual mode stores seconds as `f64` bits in an atomic
/// and only ever moves forward.
#[derive(Clone)]
pub struct VirtualClock {
    inner: Arc<ClockInner>,
}

enum ClockInner {
    /// Wall time, anchored at construction so `now()` starts near 0.
    Real(Instant),
    /// Test time: advanced explicitly, never by itself.
    Manual(AtomicU64),
}

impl std::fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.inner {
            ClockInner::Real(_) => write!(f, "VirtualClock::Real({:.6}s)", self.now()),
            ClockInner::Manual(_) => write!(f, "VirtualClock::Manual({:.6}s)", self.now()),
        }
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock::real()
    }
}

impl VirtualClock {
    /// A clock reading anchored monotonic wall time (production).
    #[must_use]
    pub fn real() -> VirtualClock {
        VirtualClock {
            inner: Arc::new(ClockInner::Real(Instant::now())),
        }
    }

    /// A clock that stands still until [`advance`](Self::advance)d
    /// (deterministic tests).
    #[must_use]
    pub fn manual() -> VirtualClock {
        VirtualClock {
            inner: Arc::new(ClockInner::Manual(AtomicU64::new(0f64.to_bits()))),
        }
    }

    /// Seconds elapsed on this clock's timeline.
    #[must_use]
    pub fn now(&self) -> f64 {
        match &*self.inner {
            ClockInner::Real(anchor) => anchor.elapsed().as_secs_f64(),
            ClockInner::Manual(bits) => f64::from_bits(bits.load(Ordering::Acquire)),
        }
    }

    /// Move a manual clock forward by `seconds` (no-op on a real clock;
    /// negative or non-finite amounts are ignored — time never runs
    /// backwards).
    pub fn advance(&self, seconds: f64) {
        if !(seconds.is_finite() && seconds > 0.0) {
            return;
        }
        if let ClockInner::Manual(bits) = &*self.inner {
            // CAS loop: concurrent advancers must both land.
            let mut cur = bits.load(Ordering::Acquire);
            loop {
                let next = (f64::from_bits(cur) + seconds).to_bits();
                match bits.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// An absolute deadline `budget_s` seconds from now on this clock.
    #[must_use]
    pub fn deadline_in(&self, budget_s: f64) -> Deadline {
        Deadline {
            at_s: self.now() + budget_s.max(0.0),
        }
    }
}

/// An absolute point on a [`VirtualClock`] timeline by which a request
/// must complete.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deadline {
    /// Absolute clock seconds.
    pub at_s: f64,
}

impl Deadline {
    /// A deadline at absolute clock second `at_s`.
    #[must_use]
    pub fn at(at_s: f64) -> Deadline {
        Deadline { at_s }
    }

    /// Budget left on `clock` (negative once the deadline has passed).
    #[must_use]
    pub fn remaining(&self, clock: &VirtualClock) -> f64 {
        self.at_s - clock.now()
    }

    /// Whether the deadline has already passed on `clock`.
    #[must_use]
    pub fn expired(&self, clock: &VirtualClock) -> bool {
        self.remaining(clock) <= 0.0
    }
}

/// Request priority class. Two tiers are enough to separate latency-
/// sensitive interactive sweeps from bulk precompute; the ordering
/// (`Interactive` first) is the dequeue preference order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive foreground work (default).
    #[default]
    Interactive,
    /// Throughput-oriented background precompute.
    Bulk,
}

impl Priority {
    /// All classes in dequeue preference order.
    pub const ALL: [Priority; 2] = [Priority::Interactive, Priority::Bulk];

    /// Stable index for per-class arrays (`ALL[p.index()] == p`).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Bulk => 1,
        }
    }

    /// Stable lower-case label for CLI flags and JSON snapshots.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Bulk => "bulk",
        }
    }

    /// Parse a CLI label (`interactive` | `bulk`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "bulk" => Some(Priority::Bulk),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_only_explicitly() {
        let clock = VirtualClock::manual();
        assert_eq!(clock.now(), 0.0);
        clock.advance(1.5);
        assert_eq!(clock.now(), 1.5);
        clock.advance(-3.0); // ignored
        clock.advance(f64::NAN); // ignored
        assert_eq!(clock.now(), 1.5);
    }

    #[test]
    fn clones_share_the_timeline() {
        let clock = VirtualClock::manual();
        let other = clock.clone();
        clock.advance(2.0);
        assert_eq!(other.now(), 2.0);
    }

    #[test]
    fn real_clock_moves_forward() {
        let clock = VirtualClock::real();
        let a = clock.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(clock.now() > a);
        clock.advance(100.0); // no-op on real clocks
        assert!(clock.now() < 50.0);
    }

    #[test]
    fn deadline_remaining_and_expiry() {
        let clock = VirtualClock::manual();
        let d = clock.deadline_in(2.0);
        assert_eq!(d.remaining(&clock), 2.0);
        assert!(!d.expired(&clock));
        clock.advance(2.5);
        assert_eq!(d.remaining(&clock), -0.5);
        assert!(d.expired(&clock));
    }

    #[test]
    fn negative_budget_clamps_to_now() {
        let clock = VirtualClock::manual();
        clock.advance(5.0);
        let d = clock.deadline_in(-3.0);
        assert_eq!(d.at_s, 5.0);
    }

    #[test]
    fn priority_roundtrips() {
        for p in Priority::ALL {
            assert_eq!(Priority::ALL[p.index()], p);
            assert_eq!(Priority::parse(p.label()), Some(p));
        }
        assert_eq!(Priority::parse("urgent"), None);
        assert_eq!(Priority::default(), Priority::Interactive);
    }
}
