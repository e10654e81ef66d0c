//! Device-resident spectra with delta recalculation.
//!
//! The batch pipeline recomputes every per-ion partial from scratch
//! and folds on the host for each plasma state. Real query traffic
//! (parameter sweeps, fan-outs of *similar* states) changes `(T, n_e)`
//! by small amounts between requests, so [`ResidentSpectrum`] keeps
//! the per-ion partials **resident** across requests and answers
//! `recalc(ΔT, Δn_e)` by re-integrating only the *affected ion set* —
//! the ions whose in-window contribution can have changed beyond a
//! tolerance, per [`rrc_spectral::delta::classify_ion`]'s analytic
//! bound over the hydrogenic level windows. Untouched ions' resident
//! partials are reused verbatim (the same `Arc`'d bits), and the
//! abundance-weighted fold runs in one
//! [`gpu_sim::WeightedFoldKernel`] pass, so only the folded spectrum
//! crosses the simulated PCIe link.
//!
//! ## State lifecycle
//!
//! - **Cold** → [`ResidentSpectrum::compute`] fans every ion out
//!   through the engine (cost-aware placement, stealing and the
//!   resilience ladder all apply), then *installs* the partials:
//!   each GPU-computed partial gets a [`DevicePtr`] allocation on its
//!   home device, modeling the partial staying on-board; CPU-path
//!   partials stay host-side with no device allocation.
//! - **Warm** → [`ResidentSpectrum::recalc`] classifies every ion
//!   between the state its resident partial was computed at and the
//!   requested state. Reusable ions keep their partial *and* its
//!   `computed_at` anchor (so drift across a sweep accumulates into
//!   the bound and eventually forces a refresh — the bound is always
//!   against the bits actually resident, never against the previous
//!   request). The rest are re-fanned-out and their old residency
//!   freed/re-allocated.
//! - **Invalidated** → any resident partial whose home device is lost
//!   poisons the whole state: residency on *live* devices is freed
//!   (the lost device's allocations died with it), the state drops,
//!   and the request is served by a full recompute — which the
//!   engine's recovery ladder routes around the dead device.
//!   [`Drop`] likewise frees all live-device residency, so a
//!   `ResidentSpectrum` can never strand simulated device memory past
//!   its lifetime.
//!
//! ## Determinism contract
//!
//! The fold accumulates ions in ascending index order per bin and bins
//! are independent, so the fold is bitwise launch-geometry invariant;
//! with unit weights it is bitwise equal to the ascending-ion host
//! `assemble` sum. Under `deterministic_kernel`, partials themselves
//! are placement-invariant, so at tolerance zero (where only provably
//! bitwise-identical ions are reused) a delta recalc is **bitwise
//! equal** to a full recompute across any GPU count and scheduling
//! policy. At a nonzero tolerance every reused ion deviates by at most
//! the classifier's bound and summands are nonnegative, so each
//! assembled bin deviates by at most the tolerance, relatively.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpu_sim::{DevicePtr, LaunchConfig, WeightedFoldKernel};
use rrc_spectral::{classify_ion, EnergyGrid, GridPoint};

use crate::engine::{Engine, ExecPath, IonJob};

/// Default tolerance: the maximum per-bin relative deviation a delta
/// recalc may introduce versus a full recompute.
pub const DEFAULT_TOLERANCE: f64 = 1e-12;

/// Scale between one fold multiply-add and one integrand evaluation in
/// the device cost model: a fused MAC streams resident data with no
/// `exp`, so it is charged at 1/16 of an integrand eval.
const FOLD_EVAL_SCALE: u64 = 16;

/// Shared resident-state counters, owned by the [`Engine`] (so they
/// survive into [`crate::engine::EngineReport`]) and bumped by every
/// [`ResidentSpectrum`] attached to it.
#[derive(Debug, Default)]
pub struct ResidentCounters {
    delta_recalcs: AtomicU64,
    full_recomputes: AtomicU64,
    reused_ions: AtomicU64,
    recomputed_ions: AtomicU64,
    affected_max: AtomicU64,
    invalidations: AtomicU64,
    bytes: AtomicU64,
    bytes_peak: AtomicU64,
}

impl ResidentCounters {
    /// Delta recalculations served from resident state.
    #[must_use]
    pub fn delta_recalcs(&self) -> u64 {
        self.delta_recalcs.load(Ordering::Relaxed)
    }

    /// Full recomputations (cold computes and invalidation recoveries).
    #[must_use]
    pub fn full_recomputes(&self) -> u64 {
        self.full_recomputes.load(Ordering::Relaxed)
    }

    /// Ions reused verbatim across all delta recalcs.
    #[must_use]
    pub fn reused_ions(&self) -> u64 {
        self.reused_ions.load(Ordering::Relaxed)
    }

    /// Ions re-integrated across all delta recalcs.
    #[must_use]
    pub fn recomputed_ions(&self) -> u64 {
        self.recomputed_ions.load(Ordering::Relaxed)
    }

    /// Largest single affected-ion set a delta recalc re-integrated.
    #[must_use]
    pub fn affected_max(&self) -> u64 {
        self.affected_max.load(Ordering::Relaxed)
    }

    /// Resident-state invalidations caused by device loss.
    #[must_use]
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Bytes of partial state currently resident on devices.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Peak resident bytes over the engine's life.
    #[must_use]
    pub fn bytes_peak(&self) -> u64 {
        self.bytes_peak.load(Ordering::Relaxed)
    }

    fn add_bytes(&self, bytes: u64) {
        let now = self.bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.bytes_peak.fetch_max(now, Ordering::Relaxed);
    }

    fn sub_bytes(&self, bytes: u64) {
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// What a [`ResidentSpectrum::compute`] / [`ResidentSpectrum::recalc`]
/// request did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecalcSummary {
    /// Whether this was a full recompute (cold, forced, or after
    /// invalidation) rather than a delta recalc.
    pub full: bool,
    /// Whether resident state was invalidated by device loss first.
    pub invalidated: bool,
    /// Ions re-integrated by this request.
    pub recomputed: usize,
    /// Ions whose resident partials were reused verbatim.
    pub reused: usize,
}

/// Failure of a resident request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidentError {
    /// The engine refused the fan-out (shutting down).
    EngineClosed,
    /// This many ions stayed unanswered after the re-fanout budget
    /// (possible only with CPU fallback disabled in the resilience
    /// config).
    Unanswered(usize),
}

impl std::fmt::Display for ResidentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResidentError::EngineClosed => write!(f, "engine is shutting down"),
            ResidentError::Unanswered(n) => {
                write!(f, "{n} ion tasks unanswered after re-fanout budget")
            }
        }
    }
}

impl std::error::Error for ResidentError {}

/// One ion's resident partial: the bits, the plasma state they were
/// integrated at, and — when the integration ran on a device — the
/// on-board allocation modeling the partial staying resident there.
struct IonResidency {
    partial: Arc<Vec<f64>>,
    computed_at: GridPoint,
    home: Option<usize>,
    ptr: Option<DevicePtr>,
}

struct ResidentState {
    /// The most recently requested plasma state.
    point: GridPoint,
    /// One residency per ion, ascending ion order.
    ions: Vec<IonResidency>,
    /// The folded spectrum at `point` (the only data that crossed the
    /// simulated PCIe link).
    folded: Vec<f64>,
}

/// The device-resident spectrum handle (see module docs). Borrows the
/// engine, so the borrow checker guarantees it is dropped — and its
/// device allocations freed — before [`Engine::shutdown`].
pub struct ResidentSpectrum<'e> {
    engine: &'e Engine,
    grid: EnergyGrid,
    bins: Arc<Vec<(f64, f64)>>,
    tolerance: f64,
    fanout_retries: u32,
    weights: Vec<f64>,
    state: Option<ResidentState>,
}

impl<'e> ResidentSpectrum<'e> {
    /// A cold resident spectrum over `grid` with the
    /// [`DEFAULT_TOLERANCE`] and unit abundance weights.
    #[must_use]
    pub fn new(engine: &'e Engine, grid: EnergyGrid) -> ResidentSpectrum<'e> {
        let bins = Arc::new(grid.bin_pairs());
        let ions = engine.config().db.ions().len();
        ResidentSpectrum {
            engine,
            grid,
            bins,
            tolerance: DEFAULT_TOLERANCE,
            fanout_retries: 2,
            weights: vec![1.0; ions],
            state: None,
        }
    }

    /// Set the delta tolerance (0 ⇒ only provably bitwise-identical
    /// ions are ever reused; the recalc is then bitwise equal to a
    /// full recompute under `deterministic_kernel`).
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> ResidentSpectrum<'e> {
        self.tolerance = tolerance.max(0.0);
        self
    }

    /// The delta tolerance.
    #[must_use]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Set one ion's abundance weight for the fold (default 1.0).
    /// Invalidates nothing: the next fold picks the new weight up.
    ///
    /// # Panics
    /// Panics if `ion_index` is out of range.
    pub fn set_weight(&mut self, ion_index: usize, weight: f64) {
        self.weights[ion_index] = weight;
    }

    /// The folded spectrum of the last request, if any.
    #[must_use]
    pub fn spectrum(&self) -> Option<&[f64]> {
        self.state.as_ref().map(|s| s.folded.as_slice())
    }

    /// The plasma state of the last request, if any.
    #[must_use]
    pub fn point(&self) -> Option<GridPoint> {
        self.state.as_ref().map(|s| s.point)
    }

    /// Number of ions with partials resident on some device.
    #[must_use]
    pub fn resident_ions(&self) -> usize {
        self.state
            .as_ref()
            .map_or(0, |s| s.ions.iter().filter(|r| r.ptr.is_some()).count())
    }

    /// Full recompute at `point`: drop any resident state, fan every
    /// ion out through the engine, install residency, and fold.
    ///
    /// # Errors
    /// [`ResidentError`] when the engine refuses or drops the fan-out.
    pub fn compute(&mut self, point: &GridPoint) -> Result<RecalcSummary, ResidentError> {
        self.compute_summarized(point, false)
    }

    /// Delta recalculation at `point`. Falls back to a full recompute
    /// when there is no resident state or when device loss invalidated
    /// it; otherwise re-integrates only the affected ion set and
    /// reuses every other resident partial verbatim.
    ///
    /// # Errors
    /// [`ResidentError`] when the engine refuses or drops the fan-out.
    pub fn recalc(&mut self, point: &GridPoint) -> Result<RecalcSummary, ResidentError> {
        let counters = self.engine.resident_counters();
        let Some(state) = &self.state else {
            return self.compute_summarized(point, false);
        };
        if state
            .ions
            .iter()
            .any(|r| r.home.is_some_and(|d| self.engine.device_lost(d)))
        {
            // A home device died: its resident partials are gone, so
            // the whole state is suspect. Free live residency and
            // recover with a full recompute (the engine's ladder
            // routes around the dead device).
            counters.invalidations.fetch_add(1, Ordering::Relaxed);
            self.invalidate();
            return self.compute_summarized(point, true);
        }

        // Classify every ion between the state its resident bits were
        // actually computed at and the requested state.
        let db = &self.engine.config().db;
        let affected: Vec<usize> = state
            .ions
            .iter()
            .enumerate()
            .filter(|(ion, r)| {
                !classify_ion(db, *ion, &r.computed_at, point, &self.bins).reusable(self.tolerance)
            })
            .map(|(ion, _)| ion)
            .collect();

        let fresh = self.fan_out(point, &affected)?;
        let state = self.state.as_mut().expect("state checked above");
        let counters = self.engine.resident_counters();
        for (ion, (partial, home)) in fresh {
            let r = &mut state.ions[ion];
            Self::release(self.engine, counters, r);
            *r = Self::install(self.engine, counters, self.bins.len(), partial, home, point);
        }
        state.point = *point;
        let reused = state.ions.len() - affected.len();
        counters.delta_recalcs.fetch_add(1, Ordering::Relaxed);
        counters
            .recomputed_ions
            .fetch_add(affected.len() as u64, Ordering::Relaxed);
        counters
            .reused_ions
            .fetch_add(reused as u64, Ordering::Relaxed);
        counters
            .affected_max
            .fetch_max(affected.len() as u64, Ordering::Relaxed);
        self.fold();
        Ok(RecalcSummary {
            full: false,
            invalidated: false,
            recomputed: affected.len(),
            reused,
        })
    }

    /// Drop all resident state, freeing device allocations on live
    /// devices (a lost device's allocations died with the device).
    pub fn invalidate(&mut self) {
        let Some(mut state) = self.state.take() else {
            return;
        };
        let counters = self.engine.resident_counters();
        for r in &mut state.ions {
            Self::release(self.engine, counters, r);
        }
    }

    fn compute_summarized(
        &mut self,
        point: &GridPoint,
        invalidated: bool,
    ) -> Result<RecalcSummary, ResidentError> {
        let ions = self.engine.config().db.ions().len();
        let all: Vec<usize> = (0..ions).collect();
        let fresh = self.fan_out(point, &all)?;
        self.invalidate();
        let counters = self.engine.resident_counters();
        let residencies = fresh
            .into_iter()
            .map(|(_, (partial, home))| {
                Self::install(self.engine, counters, self.bins.len(), partial, home, point)
            })
            .collect();
        counters.full_recomputes.fetch_add(1, Ordering::Relaxed);
        self.state = Some(ResidentState {
            point: *point,
            ions: residencies,
            folded: Vec::new(),
        });
        self.fold();
        Ok(RecalcSummary {
            full: true,
            invalidated,
            recomputed: ions,
            reused: 0,
        })
    }

    /// Fan `ions` out through the engine and collect one partial per
    /// ion, re-fanning unanswered ions out up to `fanout_retries`
    /// times (mirroring the service batcher's recovery discipline).
    #[allow(clippy::type_complexity)]
    fn fan_out(
        &self,
        point: &GridPoint,
        ions: &[usize],
    ) -> Result<BTreeMap<usize, (Arc<Vec<f64>>, Option<usize>)>, ResidentError> {
        let db = &self.engine.config().db;
        let mut got: BTreeMap<usize, (Arc<Vec<f64>>, Option<usize>)> = BTreeMap::new();
        let mut pending: Vec<usize> = ions.to_vec();
        let mut refanouts = 0u32;
        while !pending.is_empty() {
            let fanned = self.engine.fan_out(&pending, |&ion, reply| IonJob {
                ion_index: ion,
                level_range: 0..db.levels_by_index(ion).len(),
                point: *point,
                grid: self.grid.clone(),
                bins: Arc::clone(&self.bins),
                tag: ion as u64,
                deadline: f64::INFINITY,
                reply,
            });
            if fanned.closed {
                return Err(ResidentError::EngineClosed);
            }
            for outcome in fanned.outcomes {
                let home = match outcome.path {
                    ExecPath::Gpu(d) => Some(d),
                    ExecPath::WorkerCpu | ExecPath::CallerCpu => None,
                };
                got.insert(outcome.ion_index, (Arc::new(outcome.partial), home));
            }
            pending.retain(|ion| !got.contains_key(ion));
            if !pending.is_empty() {
                refanouts += 1;
                if refanouts > self.fanout_retries {
                    return Err(ResidentError::Unanswered(pending.len()));
                }
            }
        }
        Ok(got)
    }

    /// Install one freshly computed partial as resident state: a
    /// GPU-computed partial gets an on-board allocation on its home
    /// device (skipped when the device is already lost or out of
    /// memory — the partial then lives host-side only).
    fn install(
        engine: &Engine,
        counters: &ResidentCounters,
        nbins: usize,
        partial: Arc<Vec<f64>>,
        home: Option<usize>,
        point: &GridPoint,
    ) -> IonResidency {
        let bytes = 8 * nbins as u64;
        let ptr = home.and_then(|d| {
            let device = &engine.devices()[d];
            if device.faults().is_lost() {
                return None;
            }
            let ptr = device.malloc(bytes).ok();
            if ptr.is_some() {
                counters.add_bytes(bytes);
            }
            ptr
        });
        IonResidency {
            partial,
            computed_at: *point,
            home: if ptr.is_some() { home } else { None },
            ptr,
        }
    }

    /// Free one residency's device allocation, if it still has a live
    /// home (a lost device's memory died with the device).
    fn release(engine: &Engine, counters: &ResidentCounters, r: &mut IonResidency) {
        if let (Some(d), Some(ptr)) = (r.home, r.ptr.take()) {
            counters.sub_bytes(ptr.bytes);
            if !engine.device_lost(d) {
                engine.devices()[d].free(ptr);
            }
        }
        r.home = None;
    }

    /// Fold all resident partials (ascending ion order, abundance
    /// weights) with the fused [`WeightedFoldKernel`], charging the
    /// pass to the live device holding the most resident partials.
    /// Only the folded spectrum is copied back over the simulated
    /// PCIe link.
    fn fold(&mut self) {
        let Some(state) = &mut self.state else {
            return;
        };
        let views: Vec<&[f64]> = state.ions.iter().map(|r| r.partial.as_slice()).collect();
        let kernel = WeightedFoldKernel {
            partials: &views,
            weights: &self.weights,
        };
        let nbins = self.bins.len();
        let cfg = if self.engine.config().deterministic_kernel {
            LaunchConfig::new(1, 1)
        } else {
            LaunchConfig::cover(nbins)
        };
        let mut folded = vec![0.0f64; nbins];
        let ops = kernel.execute(cfg, &mut folded);
        // Charge the fold to the device with the most resident
        // partials (cost model only — the fold itself is bitwise
        // launch- and device-invariant). The weight table rides in
        // host→device; the folded spectrum is the only copy-back.
        let mut residents_per_device = vec![0u64; self.engine.gpus()];
        for r in &state.ions {
            if let Some(d) = r.home {
                residents_per_device[d] += 1;
            }
        }
        let fold_device = residents_per_device
            .iter()
            .enumerate()
            .filter(|&(d, &n)| n > 0 && !self.engine.device_lost(d))
            .max_by_key(|&(_, &n)| n)
            .map(|(d, _)| d);
        if let Some(d) = fold_device {
            let _ = self.engine.devices()[d].charge_task(
                ops / FOLD_EVAL_SCALE,
                8 * self.weights.len() as u64,
                8 * nbins as u64,
            );
        }
        state.folded = folded;
    }
}

impl Drop for ResidentSpectrum<'_> {
    fn drop(&mut self) {
        self.invalidate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use atomdb::AtomDatabase;
    use hybrid_sched::SchedPolicy;
    use rrc_spectral::emissivity_into_mode;

    fn small_config(gpus: usize, policy: SchedPolicy) -> EngineConfig {
        let db = AtomDatabase::generate(atomdb::DatabaseConfig {
            max_z: 6,
            ..atomdb::DatabaseConfig::default()
        });
        EngineConfig {
            gpus,
            max_queue_len: 4,
            policy,
            queue_depth: 8,
            ..EngineConfig::deterministic(Arc::new(db), 3)
        }
    }

    fn grid() -> EnergyGrid {
        EnergyGrid::linear(50.0, 2000.0, 48)
    }

    fn point(t: f64) -> GridPoint {
        GridPoint {
            temperature_k: t,
            density_cm3: 1.0,
            time_s: 0.0,
            index: 0,
        }
    }

    /// Host reference: per-ion partials via the same fused Simpson
    /// path, folded ascending with unit weights.
    fn reference(config: &EngineConfig, grid: &EnergyGrid, p: &GridPoint) -> Vec<f64> {
        let mut folded = vec![0.0f64; grid.bins()];
        let mut ws = quadrature::QagsWorkspace::new();
        for ion in 0..config.db.ions().len() {
            let levels = config.db.levels_by_index(ion).len();
            let mut partial = vec![0.0f64; grid.bins()];
            emissivity_into_mode(
                &config.db,
                ion,
                0..levels,
                p,
                grid,
                config.cpu_integrator,
                &mut ws,
                &mut partial,
                config.math,
            );
            for (slot, v) in folded.iter_mut().zip(&partial) {
                *slot += 1.0 * v;
            }
        }
        folded
    }

    fn assert_bitwise(got: &[f64], want: &[f64], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (b, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: bin {b}");
        }
    }

    /// Satellite property (b): at tolerance zero a delta recalc is
    /// bitwise equal to a full recompute — across 0/1/2 GPUs and both
    /// scheduling policies — and both match the host reference fold.
    #[test]
    fn tolerance_zero_recalc_is_bitwise_full_recompute() {
        let grid = grid();
        let sweep = [point(1.0e7), point(1.0e7 * (1.0 + 1e-15)), point(1.4e7)];
        for gpus in [0usize, 1, 2] {
            for policy in [SchedPolicy::CostAware, SchedPolicy::PaperCount] {
                let config = small_config(gpus, policy);
                let refs: Vec<Vec<f64>> =
                    sweep.iter().map(|p| reference(&config, &grid, p)).collect();
                let engine = Engine::start(config);
                {
                    let mut rs = ResidentSpectrum::new(&engine, grid.clone()).with_tolerance(0.0);
                    for (i, p) in sweep.iter().enumerate() {
                        let summary = if i == 0 {
                            rs.compute(p).expect("compute")
                        } else {
                            rs.recalc(p).expect("recalc")
                        };
                        if i > 0 {
                            assert!(!summary.full, "warm recalc stays a delta");
                        }
                        let ctx = format!("gpus {gpus} {policy:?} step {i}");
                        assert_bitwise(rs.spectrum().expect("folded"), &refs[i], &ctx);
                    }
                }
                let report = engine.shutdown();
                assert_eq!(report.leaked_grants, 0, "gpus {gpus} {policy:?}");
                assert_eq!(report.resident_bytes, 0, "residency freed on drop");
            }
        }
    }

    /// A tiny temperature step at the default tolerance reuses most
    /// ions and stays within 1e-12 of the full recompute per bin.
    #[test]
    fn delta_recalc_reuses_and_stays_within_tolerance() {
        let config = small_config(2, SchedPolicy::CostAware);
        let grid = grid();
        let p0 = point(1.0e7);
        let p1 = point(1.0e7 * (1.0 + 1e-15));
        let full = reference(&config, &grid, &p1);
        let engine = Engine::start(config);
        {
            let mut rs = ResidentSpectrum::new(&engine, grid.clone());
            rs.compute(&p0).expect("compute");
            let summary = rs.recalc(&p1).expect("recalc");
            assert!(summary.reused > 0, "tiny step must reuse some ions");
            assert!(!summary.full);
            for (b, (g, w)) in rs.spectrum().expect("folded").iter().zip(&full).enumerate() {
                let rel = if *w == 0.0 {
                    (g - w).abs()
                } else {
                    (g - w).abs() / w
                };
                assert!(rel <= 1e-12, "bin {b}: rel {rel:e}");
            }
        }
        let report = engine.shutdown();
        assert_eq!(report.resident_delta_recalcs, 1);
        assert_eq!(report.resident_full_recomputes, 1);
        assert!(report.resident_reused_ions > 0);
        assert_eq!(report.leaked_grants, 0);
    }

    /// Satellite property (c): device loss mid-sweep invalidates the
    /// resident state, the next request full-recomputes correctly, and
    /// no grants leak.
    #[test]
    fn device_loss_invalidates_and_recovers() {
        let config = small_config(2, SchedPolicy::CostAware);
        let grid = grid();
        let p0 = point(1.0e7);
        let p1 = point(1.0e7 * (1.0 + 1e-15));
        let full = reference(&config, &grid, &p1);
        let engine = Engine::start(config);
        {
            let mut rs = ResidentSpectrum::new(&engine, grid.clone()).with_tolerance(0.0);
            rs.compute(&p0).expect("compute");
            assert!(
                rs.resident_ions() > 0,
                "two healthy GPUs must hold some residency"
            );
            let bytes_before = engine.resident_counters().bytes();
            assert!(bytes_before > 0);
            // Lose every device that holds resident state, at a point
            // of our choosing — deterministic chaos.
            for d in 0..engine.gpus() {
                engine.device_faults(d).expect("device").force_lose();
            }
            let summary = rs.recalc(&p1).expect("recalc after loss");
            assert!(summary.invalidated, "loss must invalidate");
            assert!(summary.full, "recovery is a full recompute");
            assert_bitwise(rs.spectrum().expect("folded"), &full, "post-loss");
            assert_eq!(rs.resident_ions(), 0, "all devices lost ⇒ nothing resident");
        }
        let report = engine.shutdown();
        assert_eq!(report.resident_invalidations, 1);
        assert_eq!(report.resident_full_recomputes, 2);
        assert_eq!(report.leaked_grants, 0);
        assert_eq!(report.resident_bytes, 0);
    }

    /// Residency is accounted on the devices: installing partials
    /// allocates on-board memory, invalidation returns it.
    #[test]
    fn residency_shows_up_in_device_memory() {
        let config = small_config(2, SchedPolicy::CostAware);
        let grid = grid();
        let engine = Engine::start(config);
        let mut rs = ResidentSpectrum::new(&engine, grid.clone());
        rs.compute(&point(1.0e7)).expect("compute");
        let resident = rs.resident_ions() as u64;
        assert!(resident > 0);
        let expected = resident * 8 * grid.bins() as u64;
        assert_eq!(engine.resident_counters().bytes(), expected);
        let held: u64 = (0..engine.gpus())
            .map(|d| engine.devices()[d].memory_used())
            .sum();
        assert!(
            held >= expected,
            "device memory ({held}) must include residency ({expected})"
        );
        rs.invalidate();
        assert_eq!(engine.resident_counters().bytes(), 0);
        assert!(rs.spectrum().is_none(), "invalidation drops the fold");
    }

    /// Abundance weights reweight the fold without recomputation and
    /// match the host weighted sum bitwise.
    #[test]
    fn weighted_fold_matches_host_weighted_sum() {
        let config = small_config(1, SchedPolicy::CostAware);
        let db = Arc::clone(&config.db);
        let grid = grid();
        let p = point(1.0e7);
        let engine = Engine::start(config.clone());
        let mut rs = ResidentSpectrum::new(&engine, grid.clone());
        for ion in 0..db.ions().len() {
            rs.set_weight(ion, 0.5 + ion as f64 * 0.25);
        }
        rs.compute(&p).expect("compute");
        let mut want = vec![0.0f64; grid.bins()];
        let mut ws = quadrature::QagsWorkspace::new();
        for ion in 0..db.ions().len() {
            let levels = db.levels_by_index(ion).len();
            let mut partial = vec![0.0f64; grid.bins()];
            emissivity_into_mode(
                &db,
                ion,
                0..levels,
                &p,
                &grid,
                config.cpu_integrator,
                &mut ws,
                &mut partial,
                config.math,
            );
            let w = 0.5 + ion as f64 * 0.25;
            for (slot, v) in want.iter_mut().zip(&partial) {
                *slot += w * v;
            }
        }
        assert_bitwise(rs.spectrum().expect("folded"), &want, "weighted");
    }
}
