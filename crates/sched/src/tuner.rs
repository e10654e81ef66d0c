//! The resident online autotuner.
//!
//! The paper's §III-A `AutoTuner` ([`crate::AutoTuner`]) is a one-shot
//! inflexion finder: sweep a queue-length candidate ladder offline,
//! freeze the best. That is the wrong shape for a long-lived service —
//! the optimum moves as the element mix shifts, devices degrade, and
//! load ramps. [`OnlineTuner`] keeps the same probe/patience idea but
//! runs it continuously against live decision epochs:
//!
//! * all tunable knobs live in one [`TunerKnobs`] block of atomics the
//!   runtime reads on its hot paths (quantizer drop bits, service
//!   batch size, active rank count);
//! * each registered [`TunerDim`] is probed **one at a time** — the
//!   controller nudges the knob one step, watches the next epoch's
//!   signal (lower = better), and commits the move only if it improves
//!   the baseline by more than a hysteresis margin, rolling back
//!   otherwise (with `patience` repeated probes before giving up a
//!   direction, inherited from the one-shot tuner's non-improving
//!   budget);
//! * a full probe cycle across every dimension with no committed move
//!   parks the controller in a **settled** state where no knob moves at
//!   all; it wakes only when the signal drifts beyond a relative band,
//!   which is what bounds re-convergence after a drift event while
//!   guaranteeing quiet operation on a stationary workload.
//!
//! The tuner decides *where and when* work runs, never *what* is
//! computed: with the deterministic engine profile every knob it can
//! reach is placement/batching-only (and the drop-bits dimension is
//! registered only for configurations that already quantize lossily).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Identity of one tunable runtime knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Knob {
    /// Service quantizer mantissa bits dropped.
    DropBits,
    /// Service batcher coalescing bound.
    MaxBatch,
    /// Engine CPU ranks allowed to pull work (elastic capacity).
    ActiveRanks,
}

impl Knob {
    /// Stable lowercase label used in JSON exports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Knob::DropBits => "drop_bits",
            Knob::MaxBatch => "max_batch",
            Knob::ActiveRanks => "active_ranks",
        }
    }
}

/// The live knob block: one atomic per knob, shared between the tuner
/// (writer) and the runtime hot paths (readers). Reads are relaxed —
/// a stale value for a few tasks is harmless because every knob is
/// placement/batching-only.
#[derive(Debug)]
pub struct TunerKnobs {
    drop_bits: AtomicU64,
    max_batch: AtomicU64,
    active_ranks: AtomicU64,
}

impl TunerKnobs {
    /// Seed the block with the configured (frozen) values.
    #[must_use]
    pub fn new(drop_bits: u64, max_batch: u64, active_ranks: u64) -> TunerKnobs {
        TunerKnobs {
            drop_bits: AtomicU64::new(drop_bits),
            max_batch: AtomicU64::new(max_batch),
            active_ranks: AtomicU64::new(active_ranks),
        }
    }

    fn cell(&self, knob: Knob) -> &AtomicU64 {
        match knob {
            Knob::DropBits => &self.drop_bits,
            Knob::MaxBatch => &self.max_batch,
            Knob::ActiveRanks => &self.active_ranks,
        }
    }

    /// Current value of `knob`.
    #[must_use]
    pub fn get(&self, knob: Knob) -> u64 {
        self.cell(knob).load(Ordering::Relaxed)
    }

    /// Set `knob` to `value`.
    pub fn set(&self, knob: Knob, value: u64) {
        self.cell(knob).store(value, Ordering::Relaxed);
    }

    /// Service quantizer drop bits.
    #[must_use]
    pub fn drop_bits(&self) -> u64 {
        self.get(Knob::DropBits)
    }

    /// Service batch coalescing bound.
    #[must_use]
    pub fn max_batch(&self) -> u64 {
        self.get(Knob::MaxBatch)
    }

    /// CPU ranks allowed to pull work.
    #[must_use]
    pub fn active_ranks(&self) -> u64 {
        self.get(Knob::ActiveRanks)
    }
}

/// One tunable dimension: the knob, its inclusive range, and the probe
/// step. A dimension with `min == max` is registered but pinned (never
/// probed) — useful to surface a knob in snapshots without letting the
/// controller move it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunerDim {
    /// Which knob this dimension moves.
    pub knob: Knob,
    /// Lowest value the controller may set.
    pub min: u64,
    /// Highest value the controller may set.
    pub max: u64,
    /// Probe step size.
    pub step: u64,
}

/// Point-in-time view of one tuned dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimSnapshot {
    /// The knob.
    pub knob: Knob,
    /// Its current live value.
    pub value: u64,
    /// Direction of the last committed move: +1, -1, or 0 (none yet).
    pub last_move: i8,
}

/// Point-in-time view of the controller, embedded in
/// [`crate::SchedulerSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TunerSnapshot {
    /// Decision epochs observed so far.
    pub epoch: u64,
    /// Whether the controller is parked (no knob will move until the
    /// signal drifts out of band).
    pub settled: bool,
    /// Per-dimension current value and last committed direction.
    pub dims: Vec<DimSnapshot>,
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Waiting for one epoch to (re)measure the baseline at the
    /// current configuration before probing.
    Baseline,
    /// A probe step has been applied to `dims[cursor]`; the next
    /// signal decides commit vs rollback.
    Probing { dir: i8, prev: u64, misses: u32 },
    /// Converged: no knob moves until the signal drifts out of band.
    Settled,
}

#[derive(Debug)]
struct TunerState {
    dims: Vec<TunerDim>,
    last_move: Vec<i8>,
    cursor: usize,
    mode: Mode,
    baseline: f64,
    committed_in_cycle: bool,
    tried_down: bool,
    epoch: u64,
}

/// The resident controller. Passive: some driver (the engine's epoch
/// thread) calls [`OnlineTuner::observe_epoch`] once per decision
/// epoch with a scalar signal where **lower is better** (e.g. mean
/// end-to-end latency, or modeled device seconds per task).
#[derive(Debug)]
pub struct OnlineTuner {
    knobs: Arc<TunerKnobs>,
    patience: u32,
    hysteresis: f64,
    drift_band: f64,
    state: Mutex<TunerState>,
}

/// Relative improvement a probe must show to be committed.
const HYSTERESIS: f64 = 0.02;

/// Relative signal drift that wakes a settled controller.
const DRIFT_BAND: f64 = 0.10;

impl OnlineTuner {
    /// New controller over `knobs` with the configured probe patience
    /// (clamped to ≥ 1, like [`crate::AutoTuner`]). Starts with no
    /// dimensions; add them with [`OnlineTuner::add_dim`].
    #[must_use]
    pub fn new(knobs: Arc<TunerKnobs>, patience: u32) -> OnlineTuner {
        OnlineTuner {
            knobs,
            patience: patience.max(1),
            hysteresis: HYSTERESIS,
            drift_band: DRIFT_BAND,
            state: Mutex::new(TunerState {
                dims: Vec::new(),
                last_move: Vec::new(),
                cursor: 0,
                mode: Mode::Baseline,
                baseline: f64::INFINITY,
                committed_in_cycle: false,
                tried_down: false,
                epoch: 0,
            }),
        }
    }

    /// The shared knob block this controller writes.
    #[must_use]
    pub fn knobs(&self) -> &Arc<TunerKnobs> {
        &self.knobs
    }

    fn lock(&self) -> MutexGuard<'_, TunerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a dimension. The live knob value is clamped into the
    /// dimension's range; a settled controller wakes up to probe the
    /// new dimension.
    pub fn add_dim(&self, dim: TunerDim) {
        let mut s = self.lock();
        let cur = self.knobs.get(dim.knob);
        let clamped = cur.clamp(dim.min, dim.max);
        if clamped != cur {
            self.knobs.set(dim.knob, clamped);
        }
        s.dims.push(dim);
        s.last_move.push(0);
        if matches!(s.mode, Mode::Settled) {
            s.mode = Mode::Baseline;
            s.cursor = s.dims.len() - 1;
        }
    }

    /// Feed one decision epoch's signal (lower = better) and let the
    /// controller move, commit, roll back, or stay parked.
    pub fn observe_epoch(&self, signal: f64) {
        if !signal.is_finite() {
            return;
        }
        let mut s = self.lock();
        s.epoch += 1;
        if s.dims.is_empty() {
            return;
        }
        match s.mode {
            Mode::Settled => {
                let drift = if s.baseline > 0.0 {
                    (signal - s.baseline).abs() / s.baseline
                } else {
                    signal.abs()
                };
                if drift > self.drift_band {
                    // Workload drifted: re-measure and re-probe.
                    s.baseline = signal;
                    s.cursor = 0;
                    s.committed_in_cycle = false;
                    self.begin_dim(&mut s);
                }
            }
            Mode::Baseline => {
                s.baseline = signal;
                self.begin_dim(&mut s);
            }
            Mode::Probing { dir, prev, misses } => {
                let dim = s.dims[s.cursor];
                if signal < s.baseline * (1.0 - self.hysteresis) {
                    // Commit the move and keep climbing this direction.
                    s.baseline = signal;
                    let cursor = s.cursor;
                    s.last_move[cursor] = dir;
                    s.committed_in_cycle = true;
                    if let Some(prev) = try_apply(&self.knobs, dim, dir) {
                        s.mode = Mode::Probing {
                            dir,
                            prev,
                            misses: 0,
                        };
                    } else {
                        s.cursor += 1;
                        self.begin_dim(&mut s);
                    }
                } else if misses + 1 < self.patience {
                    // Non-improving, but re-measure the same candidate
                    // before giving up (the one-shot tuner's patience).
                    s.mode = Mode::Probing {
                        dir,
                        prev,
                        misses: misses + 1,
                    };
                } else {
                    // Roll back; try the other direction, else move on.
                    self.knobs.set(dim.knob, prev);
                    if dir > 0 && !s.tried_down {
                        s.tried_down = true;
                        if let Some(prev) = try_apply(&self.knobs, dim, -1) {
                            s.mode = Mode::Probing {
                                dir: -1,
                                prev,
                                misses: 0,
                            };
                            return;
                        }
                    }
                    s.cursor += 1;
                    self.begin_dim(&mut s);
                }
            }
        }
    }

    /// Start probing `dims[cursor]` (skipping pinned dimensions); when
    /// the cycle completes without a committed move, park in
    /// [`Mode::Settled`].
    fn begin_dim(&self, s: &mut TunerState) {
        loop {
            if s.cursor >= s.dims.len() {
                if s.committed_in_cycle {
                    s.committed_in_cycle = false;
                    s.cursor = 0;
                    continue;
                }
                s.mode = Mode::Settled;
                return;
            }
            let dim = s.dims[s.cursor];
            s.tried_down = false;
            if let Some(prev) = try_apply(&self.knobs, dim, 1) {
                s.mode = Mode::Probing {
                    dir: 1,
                    prev,
                    misses: 0,
                };
                return;
            }
            s.tried_down = true;
            if let Some(prev) = try_apply(&self.knobs, dim, -1) {
                s.mode = Mode::Probing {
                    dir: -1,
                    prev,
                    misses: 0,
                };
                return;
            }
            s.cursor += 1;
        }
    }

    /// Whether the controller is parked.
    #[must_use]
    pub fn settled(&self) -> bool {
        matches!(self.lock().mode, Mode::Settled)
    }

    /// Point-in-time view for snapshots/JSON export.
    #[must_use]
    pub fn snapshot(&self) -> TunerSnapshot {
        let s = self.lock();
        TunerSnapshot {
            epoch: s.epoch,
            settled: matches!(s.mode, Mode::Settled),
            dims: s
                .dims
                .iter()
                .zip(&s.last_move)
                .map(|(d, &m)| DimSnapshot {
                    knob: d.knob,
                    value: self.knobs.get(d.knob),
                    last_move: m,
                })
                .collect(),
        }
    }
}

/// Apply one probe step to `dim` in direction `dir`, clamped to the
/// dimension's range. Returns the previous value, or `None` when the
/// knob cannot move that way (already at the bound, or `step == 0`).
fn try_apply(knobs: &TunerKnobs, dim: TunerDim, dir: i8) -> Option<u64> {
    let cur = knobs.get(dim.knob);
    let next = if dir > 0 {
        cur.saturating_add(dim.step).min(dim.max)
    } else {
        cur.saturating_sub(dim.step).max(dim.min)
    };
    if next == cur {
        return None;
    }
    knobs.set(dim.knob, next);
    Some(cur)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs() -> Arc<TunerKnobs> {
        Arc::new(TunerKnobs::new(0, 16, 4))
    }

    /// A convex single-dimension plant: signal is minimized at
    /// `target`, growing linearly away from it.
    fn plant(value: u64, target: u64) -> f64 {
        1.0 + 0.1 * (value as f64 - target as f64).abs()
    }

    #[test]
    fn converges_to_a_convex_optimum_and_settles() {
        let k = knobs();
        let tuner = OnlineTuner::new(Arc::clone(&k), 1);
        tuner.add_dim(TunerDim {
            knob: Knob::MaxBatch,
            min: 1,
            max: 64,
            step: 4,
        });
        for _ in 0..64 {
            tuner.observe_epoch(plant(k.max_batch(), 32));
        }
        assert!(tuner.settled(), "controller should have parked");
        let got = k.max_batch();
        assert!(
            (28..=36).contains(&got),
            "should sit within one step of the optimum, got {got}"
        );
    }

    #[test]
    fn stationary_workload_stays_quiet_for_at_least_ten_epochs() {
        let k = knobs();
        let tuner = OnlineTuner::new(Arc::clone(&k), 1);
        tuner.add_dim(TunerDim {
            knob: Knob::MaxBatch,
            min: 1,
            max: 64,
            step: 4,
        });
        tuner.add_dim(TunerDim {
            knob: Knob::DropBits,
            min: 0,
            max: 64,
            step: 8,
        });
        let signal = |k: &TunerKnobs| plant(k.max_batch(), 24) + plant(k.drop_bits(), 16);
        for _ in 0..256 {
            tuner.observe_epoch(signal(&k));
        }
        assert!(tuner.settled(), "must converge on a stationary workload");
        let frozen = (k.max_batch(), k.drop_bits());
        // ≥ 10 quiet epochs: no oscillation, no knob movement at all.
        for epoch in 0..12 {
            tuner.observe_epoch(signal(&k));
            assert!(tuner.settled(), "woke up on a stationary signal");
            assert_eq!(
                (k.max_batch(), k.drop_bits()),
                frozen,
                "knob moved in quiet epoch {epoch}"
            );
        }
    }

    #[test]
    fn drift_wakes_a_settled_controller_and_reconverges() {
        let k = knobs();
        let tuner = OnlineTuner::new(Arc::clone(&k), 1);
        tuner.add_dim(TunerDim {
            knob: Knob::MaxBatch,
            min: 1,
            max: 64,
            step: 4,
        });
        for _ in 0..64 {
            tuner.observe_epoch(plant(k.max_batch(), 32));
        }
        assert!(tuner.settled());
        // The optimum moves; the absolute signal level jumps with it.
        for _ in 0..96 {
            tuner.observe_epoch(3.0 * plant(k.max_batch(), 8));
        }
        assert!(tuner.settled(), "must re-converge after the drift");
        let got = k.max_batch();
        assert!(
            (4..=12).contains(&got),
            "should track the moved optimum, got {got}"
        );
    }

    #[test]
    fn rollback_restores_the_knob_when_probes_do_not_improve() {
        let k = knobs();
        let tuner = OnlineTuner::new(Arc::clone(&k), 2);
        k.set(Knob::ActiveRanks, 2);
        tuner.add_dim(TunerDim {
            knob: Knob::ActiveRanks,
            min: 1,
            max: 8,
            step: 1,
        });
        // Flat plant: nothing ever improves, so every probe must roll
        // back and the knob must end where it started.
        for _ in 0..32 {
            tuner.observe_epoch(1.0);
        }
        assert!(tuner.settled());
        assert_eq!(k.active_ranks(), 2, "rollback must restore the seed value");
        assert_eq!(
            tuner.snapshot().dims[0].last_move,
            0,
            "no move was ever committed"
        );
    }

    #[test]
    fn pinned_dimension_never_moves() {
        let k = knobs();
        let tuner = OnlineTuner::new(Arc::clone(&k), 1);
        tuner.add_dim(TunerDim {
            knob: Knob::DropBits,
            min: 0,
            max: 0,
            step: 1,
        });
        for _ in 0..8 {
            tuner.observe_epoch(1.0);
        }
        assert_eq!(k.drop_bits(), 0);
        assert!(tuner.settled());
    }

    #[test]
    fn add_dim_clamps_live_value_into_range() {
        let k = knobs();
        k.set(Knob::MaxBatch, 500);
        let tuner = OnlineTuner::new(Arc::clone(&k), 1);
        tuner.add_dim(TunerDim {
            knob: Knob::MaxBatch,
            min: 1,
            max: 64,
            step: 4,
        });
        assert_eq!(k.max_batch(), 64);
    }

    #[test]
    fn snapshot_reports_epoch_values_and_moves() {
        let k = knobs();
        let tuner = OnlineTuner::new(Arc::clone(&k), 1);
        tuner.add_dim(TunerDim {
            knob: Knob::MaxBatch,
            min: 1,
            max: 64,
            step: 4,
        });
        for _ in 0..20 {
            tuner.observe_epoch(plant(k.max_batch(), 40));
        }
        let snap = tuner.snapshot();
        assert_eq!(snap.epoch, 20);
        assert_eq!(snap.dims.len(), 1);
        assert_eq!(snap.dims[0].knob, Knob::MaxBatch);
        assert_eq!(snap.dims[0].value, k.max_batch());
        assert_eq!(
            snap.dims[0].last_move, 1,
            "climbing toward 40 commits upward moves"
        );
    }
}
