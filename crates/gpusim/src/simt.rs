//! The SIMT kernel executor — paper Algorithm 2 run for real.
//!
//! CUDA semantics kept: a launch has a grid of blocks of threads; every
//! thread computes `idx = threadIdx.x + blockIdx.x * blockDim.x` and
//! works on its contiguous chunk of energy bins; each bin is integrated
//! with the composite Simpson rule (or Romberg for the high-accuracy
//! variant) and accumulated into the per-bin emissivity array `emi`,
//! which stays "on the device" until the task finishes (one D2H copy
//! per task, not per integral — the whole point of the paper's
//! coarse-grained task).
//!
//! A launch owns no host thread: the simulated threads run one after
//! another, in ascending `global_id` order, on the thread that calls
//! [`launch`] — which *is* the device (an engine pump lane, a queue
//! worker, a test). Host parallelism lives across devices and ranks;
//! inside a kernel that lasts tens of microseconds a host fan-out costs
//! more than it saves. Each simulated thread gets its disjoint `&mut`
//! chunk carved with `split_at_mut`, and the chunk table is computed
//! arithmetically instead of being heap-allocated per launch.

use quadrature::{romberg, simpson, BatchSampler, BinPlan, BinRule, GaussLegendre, MathMode};

/// A CUDA-style launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks (`gridDim.x`).
    pub grid_dim: u32,
    /// Threads per block (`blockDim.x`).
    pub block_dim: u32,
}

impl LaunchConfig {
    /// A config with `grid_dim * block_dim` total threads.
    #[must_use]
    pub fn new(grid_dim: u32, block_dim: u32) -> LaunchConfig {
        LaunchConfig {
            grid_dim: grid_dim.max(1),
            block_dim: block_dim.max(1),
        }
    }

    /// The paper-era default: 128-thread blocks covering `work` items.
    #[must_use]
    pub fn cover(work: usize) -> LaunchConfig {
        let block_dim = 128u32;
        let grid_dim = work.div_ceil(block_dim as usize).max(1) as u32;
        LaunchConfig::new(grid_dim, block_dim)
    }

    /// Total thread count.
    #[must_use]
    pub fn total_threads(&self) -> usize {
        self.grid_dim as usize * self.block_dim as usize
    }
}

/// Per-thread identity, mirroring CUDA's built-ins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCtx {
    /// `blockIdx.x`.
    pub block_idx: u32,
    /// `threadIdx.x`.
    pub thread_idx: u32,
    /// `blockDim.x`.
    pub block_dim: u32,
    /// `gridDim.x`.
    pub grid_dim: u32,
}

impl ThreadCtx {
    /// `threadIdx.x + blockIdx.x * blockDim.x` (Algorithm 2 line 3).
    #[must_use]
    pub fn global_id(&self) -> usize {
        self.thread_idx as usize + self.block_idx as usize * self.block_dim as usize
    }
}

/// Launch `body` over `out`: the output is split into one contiguous
/// chunk per thread (threads at the front get the remainder, as in the
/// usual CUDA chunking idiom) and every thread runs `body(ctx, chunk)`,
/// in ascending `global_id` order on the calling thread.
///
/// Threads whose chunk would be empty (idle lanes when
/// `total_threads > out.len()`) are skipped entirely. Nothing is
/// spawned, queried from the OS or heap-allocated per launch.
pub fn launch<T, F>(cfg: LaunchConfig, out: &mut [T], body: F)
where
    T: Send,
    F: Fn(ThreadCtx, &mut [T]) + Sync,
{
    let total = cfg.total_threads();
    let base = out.len() / total;
    let extra = out.len() % total;
    // Simulated threads with a non-empty chunk: when base is 0 only the
    // first `extra` lanes hold an element each.
    let effective = if base == 0 { extra } else { total };
    let mut rest = out;
    for t in 0..effective {
        // Thread t owns base + (t < extra) elements.
        let (chunk, tail) = rest.split_at_mut(base + usize::from(t < extra));
        rest = tail;
        let ctx = ThreadCtx {
            block_idx: (t / cfg.block_dim as usize) as u32,
            thread_idx: (t % cfg.block_dim as usize) as u32,
            block_dim: cfg.block_dim,
            grid_dim: cfg.grid_dim,
        };
        body(ctx, chunk);
    }
}

/// Arithmetic precision of the device kernel.
///
/// The Tesla C2075's double-precision units run at 1/2 the
/// single-precision rate, and Fermi-era production kernels (including
/// the error scale visible in the paper's Fig. 8, ~1e-5 relative)
/// accumulated in `float`. [`Precision::Single`] emulates that: every
/// integrand sample and every accumulation step is rounded to `f32`
/// before use, while [`Precision::Double`] keeps full `f64` arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full f64 arithmetic.
    #[default]
    Double,
    /// Emulated f32 kernel arithmetic (samples and accumulations
    /// rounded to f32).
    Single,
}

/// The per-bin integration rule the device kernel applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceRule {
    /// Composite Simpson with `panels` pieces (paper default: 64).
    Simpson {
        /// Panels per bin.
        panels: usize,
    },
    /// Romberg with `k` dichotomy levels (paper Fig. 6 / Table I).
    Romberg {
        /// Dichotomy levels.
        k: u32,
    },
    /// Fixed-order Gauss–Legendre — a third back-end exercising the
    /// paper's pluggable-integrator interface ("different numerical
    /// integration algorithms can be connected to the main program on
    /// demand").
    GaussLegendre {
        /// Rule order (points per bin).
        order: usize,
    },
}

impl DeviceRule {
    /// Integrand evaluations this rule spends per bin — the work unit
    /// the cost model charges.
    #[must_use]
    pub fn evals_per_bin(&self) -> u64 {
        match *self {
            DeviceRule::Simpson { panels } => 2 * panels.max(1) as u64 + 1,
            DeviceRule::Romberg { k } => quadrature::romberg::romberg_evaluations(k),
            DeviceRule::GaussLegendre { order } => order.clamp(1, 256) as u64,
        }
    }

    /// The fused bin-range form of this rule, when it has shareable
    /// edge nodes.
    fn bin_rule(&self) -> Option<BinRule> {
        match *self {
            DeviceRule::Simpson { panels } => Some(BinRule::Simpson { panels }),
            DeviceRule::Romberg { k } => Some(BinRule::Romberg { k }),
            DeviceRule::GaussLegendre { .. } => None,
        }
    }

    fn integrate<F: FnMut(f64) -> f64>(
        &self,
        mut f: F,
        lo: f64,
        hi: f64,
        precision: Precision,
    ) -> f64 {
        match precision {
            Precision::Double => match *self {
                DeviceRule::Simpson { panels } => simpson(f, lo, hi, panels).value,
                DeviceRule::Romberg { k } => romberg(f, lo, hi, k).value,
                DeviceRule::GaussLegendre { order } => {
                    GaussLegendre::new(order).integrate(f, lo, hi).value
                }
            },
            Precision::Single => match *self {
                DeviceRule::Simpson { panels } => simpson_f32(f, lo, hi, panels),
                DeviceRule::Romberg { k } => romberg_f32(f, lo, hi, k),
                DeviceRule::GaussLegendre { order } => {
                    // Round each sample to f32, as the float kernel would.
                    GaussLegendre::new(order)
                        .integrate(|x| f64::from(f(x) as f32), lo, hi)
                        .value
                }
            },
        }
    }
}

/// Composite Simpson with f32 accumulation: samples are taken in f64
/// (abscissa computation stays exact enough either way) but every value
/// is rounded to f32 and the running sums are kept in f32, as a float
/// CUDA kernel would.
fn simpson_f32<F: FnMut(f64) -> f64>(mut f: F, lo: f64, hi: f64, panels: usize) -> f64 {
    let n = panels.max(1);
    let h = ((hi - lo) / n as f64) as f32;
    let mut sum = f(lo) as f32 + f(hi) as f32;
    for i in 0..n {
        let a = lo + (hi - lo) * i as f64 / n as f64;
        let mid = a + 0.5 * (hi - lo) / n as f64;
        sum += 4.0f32 * f(mid) as f32;
        if i + 1 < n {
            sum += 2.0f32 * f(a + (hi - lo) / n as f64) as f32;
        }
    }
    f64::from(sum * h / 6.0f32)
}

/// Romberg with an f32 tableau (see [`simpson_f32`]).
fn romberg_f32<F: FnMut(f64) -> f64>(mut f: F, lo: f64, hi: f64, k: u32) -> f64 {
    let k = k.clamp(1, 24) as usize;
    let h0 = hi - lo;
    let mut trap = (0.5 * h0) as f32 * (f(lo) as f32 + f(hi) as f32);
    let mut prev: Vec<f32> = vec![trap];
    for level in 1..=k {
        let panels_before = 1usize << (level - 1);
        let h = h0 / panels_before as f64;
        let mut mid_sum = 0.0f32;
        for i in 0..panels_before {
            mid_sum += f(lo + (i as f64 + 0.5) * h) as f32;
        }
        trap = 0.5f32 * (trap + h as f32 * mid_sum);
        let mut row = vec![trap];
        let mut pow4 = 1.0f32;
        for m in 1..=level {
            pow4 *= 4.0;
            row.push((pow4 * row[m - 1] - prev[m - 1]) / (pow4 - 1.0));
        }
        prev = row;
    }
    f64::from(*prev.last().expect("k >= 1"))
}

/// The RRC bin-integration kernel (paper Algorithm 2, extended with the
/// in-device accumulation over an ion's levels that makes the Ion
/// granularity win).
///
/// `integrands` is one closure per energy level; the kernel accumulates
/// `sum_level rule(f_level, bin)` into each bin of `emi`.
///
/// ```
/// use gpu_sim::{BinIntegrationKernel, DeviceRule, LaunchConfig, Precision};
///
/// let f = |x: f64| x * x;
/// let bins = [(0.0, 1.0), (1.0, 2.0)];
/// let kernel = BinIntegrationKernel {
///     integrands: std::slice::from_ref(&f),
///     bins: &bins,
///     precision: Precision::Double,
///     windows: None,
///     rule: DeviceRule::Simpson { panels: 64 },
/// };
/// let mut emi = [0.0; 2];
/// kernel.execute(LaunchConfig::cover(2), &mut emi);
/// assert!((emi[0] - 1.0 / 3.0).abs() < 1e-12);
/// assert!((emi[1] - 7.0 / 3.0).abs() < 1e-12);
/// ```
pub struct BinIntegrationKernel<'a, F> {
    /// One integrand per level of the ion (a single-element slice for
    /// Level granularity).
    pub integrands: &'a [F],
    /// Per-bin integration bounds `(lo, hi)`; bins need not be uniform
    /// (the spectral grid clamps edge bins at recombination thresholds).
    pub bins: &'a [(f64, f64)],
    /// Kernel arithmetic precision (see [`Precision`]).
    pub precision: Precision,
    /// Optional per-integrand support window `(threshold, cutoff)`:
    /// bins entirely outside are skipped and the bin's lower bound is
    /// clamped to the threshold — the recombination-edge handling of the
    /// RRC physics, kept identical to the CPU path so the two paths
    /// differ only in integration rule.
    pub windows: Option<&'a [(f64, f64)]>,
    /// Per-bin rule.
    pub rule: DeviceRule,
}

impl<F> BinIntegrationKernel<'_, F>
where
    F: Fn(f64) -> f64 + Sync,
{
    /// Execute the kernel with `cfg`, accumulating into `emi` (one slot
    /// per bin). Returns the number of integrand evaluations charged.
    ///
    /// # Panics
    /// Panics if `emi.len() != self.bins.len()`.
    pub fn execute(&self, cfg: LaunchConfig, emi: &mut [f64]) -> u64 {
        assert_eq!(emi.len(), self.bins.len(), "emi / bins mismatch");
        if let Some(w) = self.windows {
            assert_eq!(w.len(), self.integrands.len(), "one window per integrand");
        }
        let bins = self.bins;
        let integrands = self.integrands;
        let windows = self.windows;
        let rule = self.rule;
        let precision = self.precision;
        let n = bins.len();
        let threads = cfg.total_threads();
        let base = n / threads;
        let extra = n % threads;
        let evals = std::sync::atomic::AtomicU64::new(0);

        launch(cfg, emi, |ctx, chunk| {
            let t = ctx.global_id();
            let mut local_evals = 0u64;
            // Recover this thread's bin offset from the chunking law.
            let start = t * base + t.min(extra);
            for (i, slot) in chunk.iter_mut().enumerate() {
                let (lo, hi) = bins[start + i];
                let mut acc = 0.0;
                for (level, f) in integrands.iter().enumerate() {
                    let (lo, hi) = match windows {
                        Some(w) => {
                            let (threshold, cutoff) = w[level];
                            if hi <= threshold || lo >= cutoff {
                                continue;
                            }
                            (lo.max(threshold), hi)
                        }
                        None => (lo, hi),
                    };
                    let value = rule.integrate(f, lo, hi, precision);
                    acc = match precision {
                        Precision::Double => acc + value,
                        Precision::Single => f64::from(acc as f32 + value as f32),
                    };
                    local_evals += rule.evals_per_bin();
                }
                *slot += acc;
            }
            evals.fetch_add(local_evals, std::sync::atomic::Ordering::Relaxed);
        });
        evals.into_inner()
    }
}

/// The fused-hot-path variant of [`BinIntegrationKernel`].
///
/// Semantics are the same — accumulate `sum_level rule(f_level, bin)`
/// into each bin — but each thread integrates its whole contiguous bin
/// chunk per level with [`quadrature::integrate_bins_sampled`], so
/// every shared bin edge is sampled exactly once, and window handling
/// splits the chunk into (skipped bins) + (one clamped leading bin) +
/// (a fused contiguous tail) instead of testing the window per bin.
///
/// Integrands are [`BatchSampler`]s rather than plain closures: every
/// bin's node grid is evaluated in one `sample_batch` call, so
/// structured integrands (the prepared RRC form, which needs only one
/// `exp` per bin) get their fast path, while
/// [`quadrature::FnSampler`]-wrapped closures behave — bitwise —
/// exactly like the legacy kernel.
///
/// `emi` is *overwritten* (zeroed, then accumulated): the pooled
/// per-task device buffers the runtime recycles may hold stale data, so
/// the kernel owns initialization. With the buffer starting at zero the
/// f64 results are bitwise identical to [`BinIntegrationKernel`] with
/// [`DeviceRule::Simpson`]/[`DeviceRule::Romberg`], and `Single`
/// precision reproduces the legacy f32 rounding sequence exactly.
///
/// [`DeviceRule::GaussLegendre`] has no shareable edge nodes; it runs
/// per-bin exactly as the legacy kernel does (still benefiting from the
/// prepared integrands and pooled buffers upstream).
///
/// # One-bin threads run as a warp
///
/// A launch with at least one simulated thread per bin
/// (`bins.len() <= cfg.total_threads()`: [`LaunchConfig::cover`], the
/// paper's geometry) gives every effective thread one bin, so no shared
/// edge exists and every bin is the head of its own run. For the f64
/// fused rules such a launch is executed warp-wise: per level, the
/// threshold-clamped bin alone and the other supported bins as isolated
/// lanes of one [`BinPlan::isolated`] over the whole bin array,
/// [`quadrature::BIN_LANES`] bins per step where the sampler has a
/// lockstep form. Each bin sees exactly the operations its own thread
/// would have run, levels in the same order, so outputs and the
/// returned evaluation count are bit for bit those of the
/// thread-by-thread walk, which remains for multi-bin chunks,
/// [`Precision::Single`] and Gauss–Legendre.
///
/// # Precondition
///
/// Window handling finds the supported bins of a chunk by binary
/// search, so `bins` must ascend without overlap
/// (`bins[i].1 <= bins[i + 1].0`) whenever `windows` is set.
pub struct FusedBinKernel<'a, S> {
    /// One integrand per level of the ion (a single-element slice for
    /// Level granularity). Each thread works on a private copy, so the
    /// sampler's `&mut self` methods never contend.
    pub integrands: &'a [S],
    /// Per-bin integration bounds `(lo, hi)`.
    pub bins: &'a [(f64, f64)],
    /// Kernel arithmetic precision (see [`Precision`]).
    pub precision: Precision,
    /// Optional per-integrand support window `(threshold, cutoff)`,
    /// same semantics as [`BinIntegrationKernel::windows`].
    pub windows: Option<&'a [(f64, f64)]>,
    /// Per-bin rule.
    pub rule: DeviceRule,
    /// Accumulation math: [`MathMode::Exact`] keeps the seed's scalar
    /// summation order bitwise; [`MathMode::Vector`] runs the f64
    /// Simpson/Romberg weighted sums lane-parallel. f32 and
    /// Gauss–Legendre paths ignore the mode (they have no fused f64
    /// accumulation to vectorize).
    pub math: MathMode,
}

impl<S> FusedBinKernel<'_, S>
where
    S: BatchSampler + Copy + Sync,
{
    /// Execute the kernel with `cfg`, overwriting `emi` (one slot per
    /// bin). Returns the number of integrand evaluations performed —
    /// with fusion this is *less* than the legacy kernel charges for
    /// the same work, which is the saving the cost model should see.
    ///
    /// # Panics
    /// Panics if `emi.len() != self.bins.len()`.
    pub fn execute(&self, cfg: LaunchConfig, emi: &mut [f64]) -> u64 {
        assert_eq!(emi.len(), self.bins.len(), "emi / bins mismatch");
        if let Some(w) = self.windows {
            assert_eq!(w.len(), self.integrands.len(), "one window per integrand");
        }
        let bins = self.bins;
        let integrands = self.integrands;
        let windows = self.windows;
        let rule = self.rule;
        let precision = self.precision;
        let math = self.math;
        let n = bins.len();
        let threads = cfg.total_threads();
        let fused_f64 = match precision {
            Precision::Double => rule.bin_rule(),
            Precision::Single => None,
        };
        // One chunk's work: every level, in order, accumulated over the
        // chunk's bins. `plan` is the chunk's when the rule has an f64
        // fused form.
        let run_chunk = |plan: Option<&BinPlan<'_>>, my_bins: &[(f64, f64)], chunk: &mut [f64]| {
            // Pooled buffers may hold a previous task's values.
            chunk.fill(0.0);
            let mut evals = 0u64;
            for (level, f) in integrands.iter().enumerate() {
                // Private copy: sampling needs `&mut`, the slice is shared.
                let mut f = *f;
                let window = windows.map(|w| w[level]);
                evals += integrate_chunk(rule, precision, plan, &mut f, my_bins, window, chunk);
            }
            evals
        };
        if let Some(bin_rule) = fused_f64.filter(|_| n <= threads) {
            // One bin per simulated thread: the whole launch is one
            // chunk of run heads (see the type docs).
            let plan = BinPlan::isolated(bin_rule, bins, math);
            return run_chunk(Some(&plan), bins, emi);
        }
        let base = n / threads;
        let extra = n % threads;
        let evals = std::sync::atomic::AtomicU64::new(0);

        launch(cfg, emi, |ctx, chunk| {
            let t = ctx.global_id();
            // Recover this thread's bin offset from the chunking law.
            let start = t * base + t.min(extra);
            let my_bins = &bins[start..start + chunk.len()];
            // The f64 fused rules share one plan across the levels.
            let plan = fused_f64.map(|rule| BinPlan::new(rule, my_bins, math));
            let local_evals = run_chunk(plan.as_ref(), my_bins, chunk);
            evals.fetch_add(local_evals, std::sync::atomic::Ordering::Relaxed);
        });
        evals.into_inner()
    }
}

/// Accumulate one integrand over one thread's bin chunk, fusing shared
/// edges where the rule allows it. `plan` is the chunk's [`BinPlan`]
/// when the rule has an f64 fused form.
fn integrate_chunk<S: BatchSampler>(
    rule: DeviceRule,
    precision: Precision,
    plan: Option<&BinPlan<'_>>,
    s: &mut S,
    bins: &[(f64, f64)],
    window: Option<(f64, f64)>,
    out: &mut [f64],
) -> u64 {
    // Resolve the window to the sub-range of bins with support:
    // `skip..end`, with bin `skip` possibly clamped at the threshold.
    let (skip, end, clamped_lo) = match window {
        None => (0, bins.len(), None),
        Some((threshold, cutoff)) => {
            let skip = bins.partition_point(|&(_, hi)| hi <= threshold);
            let end = bins.partition_point(|&(lo, _)| lo < cutoff);
            if skip >= end {
                return 0;
            }
            let (lo, _) = bins[skip];
            let clamped = lo.max(threshold);
            (skip, end, if clamped > lo { Some(clamped) } else { None })
        }
    };
    let bins = &bins[skip..end];
    let out = &mut out[skip..end];
    match (rule, precision) {
        (DeviceRule::Simpson { .. } | DeviceRule::Romberg { .. }, Precision::Double) => {
            // The clamped leading bin (if any) integrates alone, the
            // contiguous remainder as one run.
            let plan = plan.expect("f64 fused rules carry a plan");
            match clamped_lo {
                Some(lo) => plan.integrate_clamped(s, skip..end, lo, out),
                None => plan.integrate(s, skip..end, out),
            }
        }
        (DeviceRule::Simpson { panels }, Precision::Single) => {
            fused_simpson_f32(s, bins, clamped_lo, out, panels)
        }
        (DeviceRule::Romberg { k }, Precision::Single) => {
            perbin_f32(rule, s, bins, clamped_lo, out, romberg_f32_adapter(k))
        }
        (DeviceRule::GaussLegendre { order }, _) => {
            // No shared edge nodes: per-bin exactly like the legacy path.
            let gl = GaussLegendre::new(order);
            let mut evals = 0u64;
            for (slot, (i, &(lo, hi))) in out.iter_mut().zip(bins.iter().enumerate()) {
                let lo = if i == 0 { clamped_lo.unwrap_or(lo) } else { lo };
                let value = match precision {
                    Precision::Double => gl.integrate(|x| s.sample(x), lo, hi).value,
                    Precision::Single => {
                        gl.integrate(|x| f64::from(s.sample(x) as f32), lo, hi)
                            .value
                    }
                };
                accumulate(slot, value, precision);
                evals += rule.evals_per_bin();
            }
            evals
        }
    }
}

/// Round-and-accumulate matching the legacy kernel's per-level step.
fn accumulate(slot: &mut f64, value: f64, precision: Precision) {
    *slot = match precision {
        Precision::Double => *slot + value,
        Precision::Single => f64::from(*slot as f32 + value as f32),
    };
}

/// Fused composite Simpson with f32 accumulation: per-bin arithmetic
/// identical to the legacy `simpson_f32` — the same node expressions and
/// the same f32 rounding sequence — with each bin's nodes gathered into
/// one ascending `sample_batch` call and the raw f64 edge sample cached
/// across shared edges (rounding happens at accumulation, so reuse
/// cannot change the result).
fn fused_simpson_f32<S: BatchSampler>(
    s: &mut S,
    bins: &[(f64, f64)],
    clamped_lo: Option<f64>,
    out: &mut [f64],
    panels: usize,
) -> u64 {
    let n = panels.max(1);
    let mut evals = 0u64;
    let mut edge: Option<(f64, f64)> = None;
    // Ascending per-bin grid: lo, then (mid_j, interior_j) per panel,
    // then hi — mid_j lands at 2j+1, interior_j at 2j+2, hi at 2n.
    let mut xs: Vec<f64> = Vec::with_capacity(2 * n + 1);
    let mut vals: Vec<f64> = vec![0.0; 2 * n + 1];
    for (i, (slot, &(lo, hi))) in out.iter_mut().zip(bins).enumerate() {
        let lo = if i == 0 { clamped_lo.unwrap_or(lo) } else { lo };
        xs.clear();
        xs.push(lo);
        for j in 0..n {
            let a = lo + (hi - lo) * j as f64 / n as f64;
            xs.push(a + 0.5 * (hi - lo) / n as f64);
            if j + 1 < n {
                xs.push(a + (hi - lo) / n as f64);
            }
        }
        xs.push(hi);
        match edge {
            Some((x, v)) if x == lo => {
                vals[0] = v;
                s.sample_batch(&xs[1..], &mut vals[1..2 * n + 1]);
                evals += 2 * n as u64;
            }
            _ => {
                s.sample_batch(&xs, &mut vals[..2 * n + 1]);
                evals += 2 * n as u64 + 1;
            }
        }
        // Mirrors `simpson_f32` exactly from here.
        let h = ((hi - lo) / n as f64) as f32;
        let mut sum = vals[0] as f32 + vals[2 * n] as f32;
        for j in 0..n {
            sum += 4.0f32 * vals[2 * j + 1] as f32;
            if j + 1 < n {
                sum += 2.0f32 * vals[2 * j + 2] as f32;
            }
        }
        accumulate(slot, f64::from(sum * h / 6.0f32), Precision::Single);
        edge = Some((hi, vals[2 * n]));
    }
    evals
}

/// Adapter handing `romberg_f32` to [`perbin_f32`].
fn romberg_f32_adapter(k: u32) -> impl Fn(&mut dyn FnMut(f64) -> f64, f64, f64) -> f64 {
    move |f, lo, hi| romberg_f32(&mut *f, lo, hi, k)
}

/// Per-bin f32 fallback for rules without a fused f32 form; arithmetic
/// identical to the legacy kernel.
fn perbin_f32<S: BatchSampler>(
    rule: DeviceRule,
    s: &mut S,
    bins: &[(f64, f64)],
    clamped_lo: Option<f64>,
    out: &mut [f64],
    integrate: impl Fn(&mut dyn FnMut(f64) -> f64, f64, f64) -> f64,
) -> u64 {
    let mut evals = 0u64;
    for (i, (slot, &(lo, hi))) in out.iter_mut().zip(bins).enumerate() {
        let lo = if i == 0 { clamped_lo.unwrap_or(lo) } else { lo };
        accumulate(
            slot,
            integrate(&mut |x| s.sample(x), lo, hi),
            Precision::Single,
        );
        evals += rule.evals_per_bin();
    }
    evals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_covers_every_element_exactly_once() {
        let mut out = vec![0u32; 1003];
        launch(LaunchConfig::new(4, 32), &mut out, |_ctx, chunk| {
            for v in chunk {
                *v += 1;
            }
        });
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let mut out = vec![0u8; 3];
        launch(LaunchConfig::new(2, 64), &mut out, |_ctx, chunk| {
            for v in chunk {
                *v = 1;
            }
        });
        assert_eq!(out, vec![1, 1, 1]);
    }

    #[test]
    fn thread_ids_follow_cuda_convention() {
        let cfg = LaunchConfig::new(3, 4);
        let mut out = vec![0usize; 12];
        launch(cfg, &mut out, |ctx, chunk| {
            assert!(ctx.block_idx < 3 && ctx.thread_idx < 4);
            for v in chunk {
                *v = ctx.global_id();
            }
        });
        // With 12 elements and 12 threads, element i belongs to thread i.
        assert_eq!(out, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn launch_runs_threads_in_order_on_the_calling_thread() {
        // Uneven chunks (10 elements over 4 threads) and idle lanes (3
        // elements over 8 threads): no host thread but the caller's ever
        // runs a simulated thread, and ids ascend.
        let caller = std::thread::current().id();
        for (cfg, n) in [(LaunchConfig::new(2, 2), 10), (LaunchConfig::new(2, 4), 3)] {
            let seen = std::sync::Mutex::new(Vec::new());
            launch(cfg, &mut vec![0u8; n], |ctx, _chunk| {
                assert_eq!(std::thread::current().id(), caller);
                seen.lock().unwrap().push(ctx.global_id());
            });
            let effective = n.min(cfg.total_threads());
            assert_eq!(
                seen.into_inner().unwrap(),
                (0..effective).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn kernel_matches_serial_simpson() {
        // One "level": integrate x^2 over [0, 1] split into 10 bins.
        let f = |x: f64| x * x;
        let bins: Vec<(f64, f64)> = (0..10)
            .map(|i| (i as f64 / 10.0, (i + 1) as f64 / 10.0))
            .collect();
        let kernel = BinIntegrationKernel {
            integrands: std::slice::from_ref(&f),
            bins: &bins,
            precision: Precision::Double,
            windows: None,
            rule: DeviceRule::Simpson { panels: 4 },
        };
        let mut emi = vec![0.0; 10];
        let evals = kernel.execute(LaunchConfig::new(2, 3), &mut emi);
        let total: f64 = emi.iter().sum();
        assert!((total - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(evals, 9 * 10);
        // Per-bin values match the serial rule exactly (same arithmetic).
        for (i, &(lo, hi)) in bins.iter().enumerate() {
            let serial = quadrature::simpson(f, lo, hi, 4).value;
            assert_eq!(emi[i], serial, "bin {i}");
        }
    }

    #[test]
    fn kernel_accumulates_over_levels() {
        let f1 = |x: f64| x;
        let f2 = |x: f64| 1.0 - x;
        let fs: Vec<&(dyn Fn(f64) -> f64 + Sync)> = vec![&f1, &f2];
        let bins = vec![(0.0, 1.0)];
        let kernel = BinIntegrationKernel {
            integrands: &fs,
            bins: &bins,
            precision: Precision::Double,
            windows: None,
            rule: DeviceRule::Simpson { panels: 2 },
        };
        let mut emi = vec![0.0];
        kernel.execute(LaunchConfig::new(1, 1), &mut emi);
        // f1 + f2 = 1, so the bin integrates to exactly 1.
        assert!((emi[0] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn kernel_accumulates_into_existing_values() {
        let f = |x: f64| x;
        let bins = vec![(0.0, 2.0)];
        let kernel = BinIntegrationKernel {
            integrands: std::slice::from_ref(&f),
            bins: &bins,
            precision: Precision::Double,
            windows: None,
            rule: DeviceRule::Simpson { panels: 1 },
        };
        let mut emi = vec![10.0];
        kernel.execute(LaunchConfig::new(1, 4), &mut emi);
        assert!((emi[0] - 12.0).abs() < 1e-12);
    }

    #[test]
    fn gauss_legendre_rule_is_pluggable() {
        let f = |x: f64| x * x * x + 2.0;
        let bins = vec![(0.0, 1.0), (1.0, 2.0)];
        let kernel = BinIntegrationKernel {
            integrands: std::slice::from_ref(&f),
            bins: &bins,
            precision: Precision::Double,
            windows: None,
            rule: DeviceRule::GaussLegendre { order: 8 },
        };
        let mut emi = vec![0.0; 2];
        let evals = kernel.execute(LaunchConfig::new(1, 2), &mut emi);
        assert!((emi[0] - (0.25 + 2.0)).abs() < 1e-12);
        assert!((emi[1] - (4.0 - 0.25 + 2.0)).abs() < 1e-12);
        assert_eq!(evals, 8 * 2);
    }

    #[test]
    fn romberg_rule_charges_exponential_work() {
        let r7 = DeviceRule::Romberg { k: 7 };
        let r9 = DeviceRule::Romberg { k: 9 };
        assert_eq!(r7.evals_per_bin(), (1 << 7) + 1);
        assert_eq!(r9.evals_per_bin(), (1 << 9) + 1);
    }

    #[test]
    fn deterministic_across_launch_configs() {
        // The same work split across different grids must give the same
        // answer bit-for-bit (each bin's arithmetic is independent).
        let f = |x: f64| (x * 3.7).sin().abs() + 0.5;
        let bins: Vec<(f64, f64)> = (0..64)
            .map(|i| (i as f64 * 0.1, (i + 1) as f64 * 0.1))
            .collect();
        let run = |cfg: LaunchConfig| {
            let kernel = BinIntegrationKernel {
                integrands: std::slice::from_ref(&f),
                bins: &bins,
                precision: Precision::Double,
                windows: None,
                rule: DeviceRule::Simpson { panels: 8 },
            };
            let mut emi = vec![0.0; bins.len()];
            kernel.execute(cfg, &mut emi);
            emi
        };
        let a = run(LaunchConfig::new(1, 1));
        let b = run(LaunchConfig::new(4, 16));
        let c = run(LaunchConfig::cover(bins.len()));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn windows_clamp_and_skip_bins() {
        // Integrand constant 1 with support starting at 0.5: bins below
        // the threshold contribute nothing, the straddling bin is
        // clamped, bins past the cutoff are skipped.
        let f = |_: f64| 1.0;
        let bins = vec![(0.0, 0.4), (0.4, 0.8), (0.8, 1.2), (1.2, 1.6)];
        let windows = vec![(0.5, 1.2)];
        let kernel = BinIntegrationKernel {
            integrands: std::slice::from_ref(&f),
            bins: &bins,
            precision: Precision::Double,
            windows: Some(&windows),
            rule: DeviceRule::Simpson { panels: 2 },
        };
        let mut emi = vec![0.0; 4];
        let evals = kernel.execute(LaunchConfig::new(1, 2), &mut emi);
        assert_eq!(emi[0], 0.0); // fully below threshold
        assert!((emi[1] - 0.3).abs() < 1e-14); // clamped to [0.5, 0.8]
        assert!((emi[2] - 0.4).abs() < 1e-14); // fully inside
        assert_eq!(emi[3], 0.0); // at/after cutoff
                                 // Work is only charged for the 2 bins actually integrated.
        assert_eq!(evals, 2 * 5);
    }

    #[test]
    fn single_precision_errors_are_float_scale() {
        let f = |x: f64| (x * 0.37).exp() * (1.0 + x).recip();
        let bins: Vec<(f64, f64)> = (0..32)
            .map(|i| (i as f64 * 0.5, (i + 1) as f64 * 0.5))
            .collect();
        let run = |precision: Precision| {
            let kernel = BinIntegrationKernel {
                integrands: std::slice::from_ref(&f),
                bins: &bins,
                precision,
                windows: None,
                rule: DeviceRule::Simpson { panels: 64 },
            };
            let mut emi = vec![0.0; bins.len()];
            kernel.execute(LaunchConfig::cover(bins.len()), &mut emi);
            emi
        };
        let double = run(Precision::Double);
        let single = run(Precision::Single);
        let mut worst: f64 = 0.0;
        for (d, s) in double.iter().zip(&single) {
            worst = worst.max(((s - d) / d).abs());
        }
        // f32 accumulation over 129 samples: relative error around 1e-7
        // to 1e-5, never f64-tiny and never catastrophic.
        assert!(worst > 1e-9, "worst {worst} suspiciously exact");
        assert!(worst < 1e-4, "worst {worst} too large");
    }

    #[test]
    fn cover_config_spans_the_work() {
        let cfg = LaunchConfig::cover(1000);
        assert!(cfg.total_threads() >= 1000);
        let cfg = LaunchConfig::cover(0);
        assert!(cfg.total_threads() >= 1);
    }
}
