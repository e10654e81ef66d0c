//! Fault-tolerance knobs and counters for the resident engine.
//!
//! The engine's recovery ladder (see [`crate::engine`] and DESIGN.md's
//! "Fault model & degradation ladder") is driven entirely by this
//! configuration: which [`FaultPlan`] each simulated device runs under,
//! how many retries a failed task gets, how the retry backoff grows,
//! the optional per-task deadline the settle watchdog enforces, and the
//! [`BreakerConfig`] of the per-device circuit breakers.
//!
//! The default is the fault-free production shape: empty fault plans,
//! three retries with a 100 µs exponential backoff capped at 5 ms, no
//! deadline, CPU fallback enabled, default breakers (a 16-outcome
//! window tripping at 50 % failures once 4 outcomes are in, 0.25
//! engine-clock seconds of cooldown). Every
//! pre-existing construction site gets this via `..Default::default()`
//! semantics ([`ResilienceConfig::default`]), so fault tolerance is a
//! zero-cost opt-in: with empty plans the injector fast-path is a
//! single `Option` check per operation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use gpu_sim::FaultPlan;
use hybrid_sched::BreakerConfig;

/// Fault-injection and recovery configuration of one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Per-device fault plans (index = device id). Devices beyond the
    /// vector's length run fault-free; the empty vector is the
    /// production default.
    pub faults: Vec<FaultPlan>,
    /// Retries a failed device task gets before it is released to the
    /// CPU fallback path (0 = first failure goes straight to the
    /// ladder's next rung).
    pub max_retries: u32,
    /// Base of the exponential retry backoff: attempt *n* sleeps
    /// `backoff * 2^(n-1)`, capped at [`ResilienceConfig::backoff_cap`].
    pub backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Per-task deadline measured from kernel launch, enforced when the
    /// settle runs: a result arriving later than this is discarded and
    /// the task retried (the watchdog against injected stalls).
    pub task_deadline: Option<Duration>,
    /// Whether a task that exhausts its retries (or finds no eligible
    /// device) runs on the host QAGS path instead of failing. Disabled
    /// only by tests probing the ladder itself.
    pub cpu_fallback_on_fault: bool,
    /// The per-device circuit breakers (`Closed → Open → HalfOpen`);
    /// the cooldown is in seconds of [`crate::EngineConfig::clock`].
    pub breaker: BreakerConfig,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            faults: Vec::new(),
            max_retries: 3,
            backoff: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(5),
            task_deadline: None,
            cpu_fallback_on_fault: true,
            breaker: BreakerConfig::default(),
        }
    }
}

impl ResilienceConfig {
    /// The fault plan for device `d` (empty when none was configured).
    #[must_use]
    pub fn plan_for(&self, d: usize) -> FaultPlan {
        self.faults.get(d).cloned().unwrap_or_default()
    }

    /// Backoff before retry attempt `attempt` (1-based): exponential
    /// from [`ResilienceConfig::backoff`], capped.
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        if self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        (self.backoff * factor).min(self.backoff_cap)
    }

    /// Whether any device has a non-empty fault plan.
    #[must_use]
    pub fn any_faults(&self) -> bool {
        self.faults.iter().any(|p| !p.is_empty())
    }
}

/// Recovery counters shared by every pump thread and read by the
/// engine's shutdown report.
#[derive(Debug, Default)]
pub(crate) struct FaultStats {
    /// Device-task failures observed (launch refusals, kernel panics,
    /// DMA failures, deadline overruns) — before any retry succeeded.
    pub(crate) task_faults: AtomicU64,
    /// Retry attempts issued (re-staged on the same or another device).
    pub(crate) task_retries: AtomicU64,
    /// Failures classified as deadline overruns by the settle watchdog.
    pub(crate) task_timeouts: AtomicU64,
    /// Tasks released to the host QAGS path after the ladder ran out.
    pub(crate) cpu_fallbacks: AtomicU64,
    /// Highest attempt count any single task reached (1 = first try).
    pub(crate) max_attempts: AtomicU64,
    /// Device tasks that settled successfully (the report's
    /// `gpu_tasks`); counted at settle, not launch, so a retried task
    /// counts once no matter how many launches it burned.
    pub(crate) gpu_completions: AtomicU64,
}

impl FaultStats {
    pub(crate) fn note_attempts(&self, attempts: u32) {
        self.max_attempts
            .fetch_max(u64::from(attempts), Ordering::Relaxed);
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let cfg = ResilienceConfig {
            backoff: Duration::from_micros(100),
            backoff_cap: Duration::from_micros(350),
            ..ResilienceConfig::default()
        };
        assert_eq!(cfg.backoff_for(1), Duration::from_micros(100));
        assert_eq!(cfg.backoff_for(2), Duration::from_micros(200));
        assert_eq!(cfg.backoff_for(3), Duration::from_micros(350), "capped");
        assert_eq!(cfg.backoff_for(31), Duration::from_micros(350));
    }

    #[test]
    fn zero_backoff_stays_zero() {
        let cfg = ResilienceConfig {
            backoff: Duration::ZERO,
            ..ResilienceConfig::default()
        };
        assert_eq!(cfg.backoff_for(5), Duration::ZERO);
    }

    #[test]
    fn default_is_fault_free() {
        let cfg = ResilienceConfig::default();
        assert!(!cfg.any_faults());
        assert!(cfg.plan_for(3).is_empty());
        assert!(cfg.cpu_fallback_on_fault);
    }
}
