//! Bin-range composite quadrature with shared-edge reuse.
//!
//! The spectral hot path integrates one integrand over a *contiguous
//! run* of energy bins (paper Algorithm 2: each GPU thread walks its
//! chunk of bins). Integrating the bins independently evaluates every
//! interior bin edge twice — once as bin `i`'s upper node and once as
//! bin `i+1`'s lower node. [`integrate_bins`] performs the whole run in
//! one call, evaluating each shared edge exactly once and writing the
//! per-bin results into a caller-provided slice.
//!
//! The per-bin arithmetic (node placement, summation order, scaling) is
//! kept *identical* to the per-bin routines [`crate::simpson`] and
//! [`crate::romberg()`], so per-bin results are bitwise equal to the
//! unfused path — the only change is that the cached edge sample is
//! reused instead of recomputed. Edge reuse keys on bitwise equality of
//! the abscissas (`bins[i].1 == bins[i+1].0`); runs whose bins do not
//! share edges (e.g. a threshold-clamped leading bin) simply fall back
//! to a fresh evaluation for that bin's lower node.
//!
//! # Lane lockstep
//!
//! One (integrand, bin) integral is two serial chains — the sampler's
//! recurrence and the Simpson sum — so a lone bin leaves the vector
//! units idle. In `Exact` mode a sampler with a lockstep form
//! ([`BatchSampler::sample_lanes`]) therefore advances
//! [`BIN_LANES`] edge-linked bins per step, one bin per lane: lane `k`
//! takes its lower-edge sample from lane `k − 1`'s upper edge and every
//! lane runs exactly the operation sequence the scalar loop runs for
//! that bin, so results and evaluation counts are bit-identical. What a
//! lane needs to know about its node grid depends only on the bins, so
//! a [`BinPlan`] measures it once for every integrand integrated over
//! the same bin array. Bins with no cached predecessor edge (the head
//! of every run), groups the sampler declines, `Vector` mode, Romberg
//! and samplers without a lockstep form take the scalar loop.
//!
//! A launch that gives every simulated thread a single bin forms no run
//! at all: each bin is a run head and pays its own lower-edge sample.
//! [`BinPlan::isolated`] integrates such bins as *isolated lanes* —
//! [`BIN_LANES`] heads per step, each lane sampling its full `2n + 1`
//! node grid — again with the scalar loop's exact per-bin sequence.

use std::cell::{Cell, OnceCell};
use std::ops::Range;

use crate::sampler::{BatchSampler, FnSampler, LaneGrid, LaneRow, BIN_LANES};
use crate::simd::{MathMode, LANES};

/// The composite rule applied per bin by [`integrate_bins`].
///
/// Only the rules with shareable edge nodes are offered here;
/// interior-node rules (Gauss–Legendre) gain nothing from fusion and
/// keep using their per-bin form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinRule {
    /// Composite Simpson with `panels` pieces per bin (paper GPU
    /// default: 64).
    Simpson {
        /// Panels per bin.
        panels: usize,
    },
    /// Romberg with `k` dichotomy levels per bin (paper Fig. 6).
    Romberg {
        /// Dichotomy levels.
        k: u32,
    },
}

impl BinRule {
    /// Integrand evaluations per *isolated* bin (the first bin of a
    /// run, or any bin whose lower edge cannot be reused).
    #[must_use]
    pub fn evals_per_isolated_bin(&self) -> u64 {
        match *self {
            BinRule::Simpson { panels } => 2 * panels.max(1) as u64 + 1,
            BinRule::Romberg { k } => crate::romberg::romberg_evaluations(k),
        }
    }

    /// Integrand evaluations per bin whose lower-edge sample is shared
    /// with the previous bin — one fewer than the isolated count.
    #[must_use]
    pub fn evals_per_fused_bin(&self) -> u64 {
        self.evals_per_isolated_bin() - 1
    }
}

/// Integrate `f` over every bin of `bins` with `rule`, accumulating the
/// per-bin integral into the matching slot of `out` (`out[i] +=
/// integral of f over bins[i]`).
///
/// Whenever `bins[i].0` is bitwise equal to `bins[i-1].1` the sample
/// `f` took at that edge is reused, saving one evaluation per interior
/// edge of each contiguous run. Returns the number of integrand
/// evaluations actually performed.
///
/// Per-bin results are bitwise identical to calling
/// [`crate::simpson`] / [`crate::romberg()`] on each bin separately.
///
/// # Panics
/// Panics if `out.len() != bins.len()`.
///
/// ```
/// use quadrature::{integrate_bins, simpson, BinRule};
///
/// let f = |x: f64| (-x).exp();
/// let bins = [(0.0, 0.5), (0.5, 1.0), (1.0, 1.5)];
/// let mut fused = [0.0; 3];
/// let evals = integrate_bins(BinRule::Simpson { panels: 8 }, f, &bins, &mut fused);
/// for (i, &(lo, hi)) in bins.iter().enumerate() {
///     assert_eq!(fused[i], simpson(f, lo, hi, 8).value);
/// }
/// // 17 nodes for the first bin, 16 for each fused successor.
/// assert_eq!(evals, 17 + 16 + 16);
/// ```
pub fn integrate_bins<F: FnMut(f64) -> f64>(
    rule: BinRule,
    f: F,
    bins: &[(f64, f64)],
    out: &mut [f64],
) -> u64 {
    integrate_bins_sampled(rule, &mut FnSampler(f), bins, out)
}

/// [`integrate_bins`] over a [`BatchSampler`]: each bin's node grid is
/// evaluated with one `sample_batch` call, letting structured integrands
/// (the prepared RRC form) amortize per-node transcendentals. With the
/// default per-node `sample_batch` this is *exactly* [`integrate_bins`]
/// — same nodes, same accumulation order, bitwise identical results.
pub fn integrate_bins_sampled<S: BatchSampler>(
    rule: BinRule,
    s: &mut S,
    bins: &[(f64, f64)],
    out: &mut [f64],
) -> u64 {
    integrate_bins_sampled_mode(rule, s, bins, out, MathMode::Exact)
}

/// [`integrate_bins_sampled`] with an explicit [`MathMode`].
///
/// `Exact` is the seed behavior: the scalar accumulation loops, bitwise
/// identical to the per-bin rules. `Vector` replaces the weighted
/// accumulation with lane-parallel partial sums (explicit remainder
/// handling for node counts not divisible by the lane width); per-bin
/// relative deviation from `Exact` stays ≤ 1e−12 for well-conditioned
/// integrands — it is a re-association of the same products.
pub fn integrate_bins_sampled_mode<S: BatchSampler>(
    rule: BinRule,
    s: &mut S,
    bins: &[(f64, f64)],
    out: &mut [f64],
    math: MathMode,
) -> u64 {
    BinPlan::new(rule, bins, math).integrate(s, 0..bins.len(), out)
}

/// A bin array bound to a rule and a math mode, for integrating *many*
/// integrands over (sub-ranges of) the same bins — the shape of the
/// spectral kernel, which walks every level of an ion over one grid.
///
/// What depends only on `(bins, rule)` is worked out once and shared by
/// every [`BinPlan::integrate`] call: for `Exact` composite Simpson
/// that is each bin's [`LaneGrid`] measurement (node expressions,
/// uniformity verdict, smallest node), which lets a sampler with a
/// lockstep form ([`BatchSampler::lockstep`]) advance [`BIN_LANES`]
/// edge-linked bins per step. Results and evaluation counts are
/// bitwise those of [`integrate_bins_sampled_mode`] on the same range,
/// which is itself a one-shot plan.
///
/// An [isolated](BinPlan::isolated) plan shares no edges: every bin of
/// a range is integrated as if it were the range's only bin.
#[derive(Debug)]
pub struct BinPlan<'a> {
    rule: BinRule,
    bins: &'a [(f64, f64)],
    math: MathMode,
    /// Whether every bin is a run head.
    isolated: bool,
    /// One measured grid per [`BIN_LANES`]-aligned block of `bins`,
    /// built when the first lockstep sampler arrives.
    lanes: OnceCell<Vec<LaneGrid>>,
}

impl<'a> BinPlan<'a> {
    /// Plan integrations of `rule` over `bins` in `math` mode.
    #[must_use]
    pub fn new(rule: BinRule, bins: &'a [(f64, f64)], math: MathMode) -> BinPlan<'a> {
        BinPlan {
            rule,
            bins,
            math,
            isolated: false,
            lanes: OnceCell::new(),
        }
    }

    /// [`BinPlan::new`] for bins that share no samples: every bin pays
    /// its own lower-edge evaluation, and per-bin results and
    /// evaluation counts are bitwise those of [`BinPlan::new`]'s
    /// `integrate(i..i + 1)` on each bin `i` in turn — what a launch of
    /// one-bin simulated threads computes. With a lockstep sampler,
    /// [`BIN_LANES`] such bins advance per step.
    #[must_use]
    pub fn isolated(rule: BinRule, bins: &'a [(f64, f64)], math: MathMode) -> BinPlan<'a> {
        BinPlan {
            isolated: true,
            ..BinPlan::new(rule, bins, math)
        }
    }

    /// The planned bin array.
    #[must_use]
    pub fn bins(&self) -> &'a [(f64, f64)] {
        self.bins
    }

    /// Integrate `s` over `bins[range]`, accumulating into `out` (one
    /// slot per bin of the range). Returns the number of integrand
    /// evaluations performed.
    ///
    /// # Panics
    /// Panics if `out.len() != range.len()` or `range` exceeds the bins.
    pub fn integrate<S: BatchSampler>(
        &self,
        s: &mut S,
        range: Range<usize>,
        out: &mut [f64],
    ) -> u64 {
        assert_eq!(out.len(), range.len(), "out / bins length mismatch");
        let bins = &self.bins[range.clone()];
        match self.rule {
            BinRule::Simpson { panels } => {
                let n = panels.max(1);
                // Lanes need an edge-linked bin or a second run head,
                // so at least two bins.
                let lanes =
                    (self.math == MathMode::Exact && bins.len() > 1 && s.lockstep()).then(|| {
                        LaneTable {
                            blocks: self.lanes.get_or_init(|| {
                                self.bins
                                    .chunks(BIN_LANES)
                                    .map(|block| LaneGrid::measure(block, n, self.isolated))
                                    .collect()
                            }),
                            offset: range.start,
                        }
                    });
                simpson_bins(s, bins, out, n, self.math, lanes, self.isolated)
            }
            BinRule::Romberg { k } => romberg_bins(s, bins, out, k, self.math, self.isolated),
        }
    }

    /// [`BinPlan::integrate`] with the first bin's lower limit raised
    /// to `lo` — a support threshold falling inside that bin. The
    /// clamped bin is integrated on its own over `[lo, hi]`, the rest of
    /// the range as one run, exactly as the per-bin rules would.
    ///
    /// # Panics
    /// As [`BinPlan::integrate`], and if `range` is empty.
    pub fn integrate_clamped<S: BatchSampler>(
        &self,
        s: &mut S,
        range: Range<usize>,
        lo: f64,
        out: &mut [f64],
    ) -> u64 {
        let first = [(lo, self.bins[range.start].1)];
        let (head, rest) = out.split_at_mut(1);
        let evals = BinPlan::new(self.rule, &first, self.math).integrate(&mut *s, 0..1, head);
        evals + self.integrate(s, range.start + 1..range.end, rest)
    }
}

/// The measured lane grids of a plan, addressed by index into the
/// range being integrated.
#[derive(Clone, Copy)]
struct LaneTable<'a> {
    blocks: &'a [LaneGrid],
    /// Plan index of the range's first bin.
    offset: usize,
}

impl LaneTable<'_> {
    /// The grids of range bins `i..i + live` (`live <= BIN_LANES`),
    /// padded with copies of the last one.
    fn group(&self, i: usize, live: usize) -> LaneGrid {
        let first = self.offset + i;
        let mut grid = self.blocks[first / BIN_LANES];
        if !first.is_multiple_of(BIN_LANES) || live < BIN_LANES {
            for k in 0..BIN_LANES {
                let bin = first + k.min(live - 1);
                grid.copy_lane(k, &self.blocks[bin / BIN_LANES], bin % BIN_LANES);
            }
        }
        grid
    }
}

/// Fill `xs` with composite-Simpson nodes in ascending order:
/// `lo, m_0, i_1, m_1, i_2, ..., m_{n-1}, hi` (2n+1 nodes). Node
/// expressions match `rules::simpson` bit for bit.
fn simpson_nodes(xs: &mut Vec<f64>, lo: f64, hi: f64, n: usize) {
    let h = (hi - lo) / n as f64;
    xs.clear();
    xs.push(lo);
    for i in 0..n {
        let a = lo + i as f64 * h;
        xs.push(a + 0.5 * h);
        if i + 1 < n {
            xs.push(a + h);
        }
    }
    xs.push(hi);
}

/// Lane-parallel weighted sum of the interior Simpson nodes
/// `vals[1..2n]`. The interior weights alternate `4, 2, 4, 2, …`
/// starting and ending on `4`, so every aligned chunk of [`LANES`]
/// nodes sees the constant weight vector `[4, 2, 4, 2]`; the trailing
/// `(2n − 1) % LANES` nodes get an explicit scalar remainder pass.
fn simpson_interior_lanes(interior: &[f64]) -> f64 {
    const W: [f64; LANES] = [4.0, 2.0, 4.0, 2.0];
    // Two accumulator vectors so the add-latency chains of consecutive
    // chunks overlap.
    let mut acc = [0.0f64; LANES];
    let mut acc2 = [0.0f64; LANES];
    let mut pairs = interior.chunks_exact(2 * LANES);
    for pair in &mut pairs {
        for j in 0..LANES {
            acc[j] += pair[j] * W[j];
        }
        for j in 0..LANES {
            acc2[j] += pair[LANES + j] * W[j];
        }
    }
    let mut tail = pairs.remainder().chunks_exact(LANES);
    for chunk in &mut tail {
        for j in 0..LANES {
            acc[j] += chunk[j] * W[j];
        }
    }
    // Chunks have even length, so the remainder restarts on weight 4.
    let mut rem = 0.0;
    let mut w = 4.0;
    for &v in tail.remainder() {
        rem += w * v;
        w = 6.0 - w;
    }
    for j in 0..LANES {
        acc[j] += acc2[j];
    }
    ((acc[0] + acc[2]) + (acc[1] + acc[3])) + rem
}

/// Lane-parallel plain sum with a scalar remainder, for the Romberg
/// midpoint batches.
fn sum_lanes(vals: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = vals.chunks_exact(LANES);
    for chunk in &mut chunks {
        for j in 0..LANES {
            acc[j] += chunk[j];
        }
    }
    let mut rem = 0.0;
    for &v in chunks.remainder() {
        rem += v;
    }
    ((acc[0] + acc[2]) + (acc[1] + acc[3])) + rem
}

/// Node and value scratch of [`simpson_bins`], parked per thread
/// between calls so the per-level hot path never allocates. A nested
/// call (an integrand that itself integrates bins) finds the slot empty
/// and starts from fresh vectors.
#[derive(Default)]
struct SimpsonScratch {
    xs: Vec<f64>,
    vals: Vec<f64>,
    lane_vals: Vec<LaneRow>,
}

thread_local! {
    static SIMPSON_SCRATCH: Cell<SimpsonScratch> = Cell::default();
}

/// Number of leading bins of `bins` (at most [`BIN_LANES`]) that form an
/// edge-linked run starting at the cached edge abscissa `edge_x`.
fn linked_run(bins: &[(f64, f64)], edge_x: f64) -> usize {
    let mut prev = edge_x;
    let mut run = 0;
    for &(lo, hi) in bins.iter().take(BIN_LANES) {
        if lo != prev {
            break;
        }
        prev = hi;
        run += 1;
    }
    run
}

/// Integrate the first `out.len()` lanes of `grid` in lockstep,
/// accumulating into `out`. Every lane performs exactly the operation
/// sequence the scalar loop of [`simpson_bins`] performs for its bin:
/// an isolated lane samples its own lower edge (row 0), an edge-linked
/// lane `k` is handed lane `k − 1`'s upper-edge sample (lane 0 the
/// predecessor's, `edge_v`), and the Simpson sum runs in the same order.
///
/// Returns the last live bin's upper-edge sample, or `None` (nothing
/// written) when the sampler declines the group.
fn simpson_lane_group<S: BatchSampler>(
    s: &mut S,
    grid: &LaneGrid,
    edge_v: f64,
    out: &mut [f64],
    vals: &mut Vec<LaneRow>,
) -> Option<f64> {
    let nodes = grid.len();
    vals.resize(nodes, [0.0; BIN_LANES]);
    if !s.sample_lanes(grid, vals) {
        return None;
    }
    let last = vals[nodes - 1];
    let (first, interior) = if grid.is_isolated() {
        (vals[0], &vals[1..nodes - 1])
    } else {
        let mut first = [edge_v; BIN_LANES];
        first[1..].copy_from_slice(&last[..BIN_LANES - 1]);
        (first, &vals[..nodes - 1])
    };
    let mut sum: LaneRow = std::array::from_fn(|k| first[k] + last[k]);
    // The interior nodes between the two (already summed) edges:
    // midpoints on even rows, panel ends on odd rows.
    for pair in interior.chunks(2) {
        for k in 0..BIN_LANES {
            sum[k] += 4.0 * pair[0][k];
        }
        if let Some(end) = pair.get(1) {
            for k in 0..BIN_LANES {
                sum[k] += 2.0 * end[k];
            }
        }
    }
    let h = grid.panel_width();
    for (k, slot) in out.iter_mut().enumerate() {
        *slot += sum[k] * h[k] / 6.0;
    }
    Some(last[out.len() - 1])
}

fn simpson_bins<S: BatchSampler>(
    s: &mut S,
    bins: &[(f64, f64)],
    out: &mut [f64],
    n: usize,
    math: MathMode,
    lanes: Option<LaneTable<'_>>,
    isolated: bool,
) -> u64 {
    let mut evals: u64 = 0;
    // The cached sample at the previous bin's upper edge; isolated bins
    // never cache one.
    let mut edge: Option<(f64, f64)> = None;
    let mut scratch = SIMPSON_SCRATCH.take();
    scratch.vals.resize(2 * n + 1, 0.0);
    // Bins before this index belong to a group the sampler declined
    // and take the scalar loop.
    let mut declined_until = 0;
    let mut i = 0;
    while i < bins.len() {
        if let Some(table) = lanes.filter(|_| i >= declined_until) {
            // Run heads group as they come; an edge-linked group
            // continues the run the cached edge ends.
            let (live, edge_v) = if isolated {
                ((bins.len() - i).min(BIN_LANES), 0.0)
            } else {
                edge.map_or((0, 0.0), |(x, v)| (linked_run(&bins[i..], x), v))
            };
            if live > 0 {
                let grid = table.group(i, live);
                let slots = &mut out[i..i + live];
                if let Some(last) =
                    simpson_lane_group(s, &grid, edge_v, slots, &mut scratch.lane_vals)
                {
                    evals += (live * grid.len()) as u64;
                    edge = (!isolated).then_some((bins[i + live - 1].1, last));
                    i += live;
                    continue;
                }
                declined_until = i + live;
            }
        }
        let (lo, hi) = bins[i];
        let (xs, vals) = (&mut scratch.xs, &mut scratch.vals);
        simpson_nodes(xs, lo, hi, n);
        match edge {
            Some((x, v)) if x == lo => {
                vals[0] = v;
                s.sample_batch(&xs[1..], &mut vals[1..]);
                evals += 2 * n as u64;
            }
            _ => {
                s.sample_batch(xs, vals);
                evals += 2 * n as u64 + 1;
            }
        }
        let h = (hi - lo) / n as f64;
        let sum = match math {
            // The accumulation mirrors `rules::simpson` exactly:
            // endpoints first, then per panel 4x the midpoint and 2x
            // the interior node, scaled by h/6.
            MathMode::Exact => {
                let mut sum = vals[0] + vals[2 * n];
                for i in 0..n {
                    sum += 4.0 * vals[2 * i + 1];
                    if i + 1 < n {
                        sum += 2.0 * vals[2 * i + 2];
                    }
                }
                sum
            }
            MathMode::Vector => vals[0] + vals[2 * n] + simpson_interior_lanes(&vals[1..2 * n]),
        };
        out[i] += sum * h / 6.0;
        edge = (!isolated).then_some((hi, vals[2 * n]));
        i += 1;
    }
    SIMPSON_SCRATCH.set(scratch);
    evals
}

fn romberg_bins<S: BatchSampler>(
    s: &mut S,
    bins: &[(f64, f64)],
    out: &mut [f64],
    k: u32,
    math: MathMode,
    isolated: bool,
) -> u64 {
    let k = k.clamp(1, 30) as usize;
    let mut evals: u64 = 0;
    let mut edge: Option<(f64, f64)> = None;
    // Tableau rows and node/value scratch hoisted out of the bin loop:
    // allocation-free after the first bin.
    let mut row: Vec<f64> = Vec::with_capacity(k + 1);
    let mut prev: Vec<f64> = Vec::with_capacity(k + 1);
    let mut xs: Vec<f64> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    for (slot, &(lo, hi)) in out.iter_mut().zip(bins) {
        let f_lo = match edge {
            Some((x, v)) if x == lo => v,
            _ => {
                evals += 1;
                s.sample(lo)
            }
        };
        let f_hi = s.sample(hi);
        evals += 1;
        // From here the arithmetic mirrors `romberg::romberg` exactly;
        // each level's midpoints form one ascending uniform batch.
        let h0 = hi - lo;
        let mut trap = 0.5 * h0 * (f_lo + f_hi);
        prev.clear();
        prev.push(trap);
        let mut diag_prev = trap;
        for level in 1..=k {
            let panels_before = 1usize << (level - 1);
            let h = h0 / panels_before as f64;
            xs.clear();
            for i in 0..panels_before {
                xs.push(lo + (i as f64 + 0.5) * h);
            }
            vals.resize(panels_before, 0.0);
            s.sample_batch(&xs, &mut vals[..panels_before]);
            let mid_sum = match math {
                MathMode::Exact => {
                    let mut mid_sum = 0.0;
                    for &v in &vals[..panels_before] {
                        mid_sum += v;
                    }
                    mid_sum
                }
                MathMode::Vector => sum_lanes(&vals[..panels_before]),
            };
            evals += panels_before as u64;
            trap = 0.5 * (trap + h * mid_sum);
            row.clear();
            row.push(trap);
            let mut pow4 = 1.0;
            for m in 1..=level {
                pow4 *= 4.0;
                let t = (pow4 * row[m - 1] - prev[m - 1]) / (pow4 - 1.0);
                row.push(t);
            }
            diag_prev = row[level];
            std::mem::swap(&mut prev, &mut row);
        }
        *slot += diag_prev;
        edge = (!isolated).then_some((hi, f_hi));
    }
    evals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{romberg, simpson};

    fn grid(lo: f64, hi: f64, bins: usize) -> Vec<(f64, f64)> {
        // Shared edges are computed once, so adjacent bins agree bitwise.
        let edge = |i: usize| lo + (hi - lo) * (i as f64 / bins as f64);
        (0..bins).map(|i| (edge(i), edge(i + 1))).collect()
    }

    #[test]
    fn simpson_bins_match_per_bin_rule_bitwise() {
        let f = |x: f64| (-(x * 0.31)).exp() * (x + 1.0).recip();
        let bins = grid(0.3, 9.7, 41);
        let mut out = vec![0.0; bins.len()];
        integrate_bins(BinRule::Simpson { panels: 16 }, f, &bins, &mut out);
        for (i, &(lo, hi)) in bins.iter().enumerate() {
            assert_eq!(out[i], simpson(f, lo, hi, 16).value, "bin {i}");
        }
    }

    #[test]
    fn romberg_bins_match_per_bin_rule_bitwise() {
        let f = |x: f64| (x * 0.8).sin() + 2.0;
        let bins = grid(-1.0, 4.0, 17);
        let mut out = vec![0.0; bins.len()];
        integrate_bins(BinRule::Romberg { k: 6 }, f, &bins, &mut out);
        for (i, &(lo, hi)) in bins.iter().enumerate() {
            assert_eq!(out[i], romberg(f, lo, hi, 6).value, "bin {i}");
        }
    }

    #[test]
    fn shared_edges_are_evaluated_once() {
        for (rule, isolated) in [
            (BinRule::Simpson { panels: 8 }, 17u64),
            (BinRule::Romberg { k: 5 }, 33u64),
        ] {
            assert_eq!(rule.evals_per_isolated_bin(), isolated);
            let bins = grid(0.0, 1.0, 10);
            let mut calls = 0u64;
            let mut out = vec![0.0; bins.len()];
            let reported = integrate_bins(
                rule,
                |x| {
                    calls += 1;
                    x * x
                },
                &bins,
                &mut out,
            );
            assert_eq!(calls, reported);
            // First bin pays full price; the 9 successors share an edge.
            assert_eq!(reported, isolated + 9 * (isolated - 1));
        }
    }

    #[test]
    fn non_contiguous_bins_fall_back_to_fresh_edges() {
        // A gap between bins 1 and 2: no reuse across the gap.
        let bins = vec![(0.0, 1.0), (1.0, 2.0), (3.0, 4.0)];
        let mut calls = 0u64;
        let mut out = vec![0.0; 3];
        let rule = BinRule::Simpson { panels: 4 };
        let reported = integrate_bins(
            rule,
            |x| {
                calls += 1;
                x
            },
            &bins,
            &mut out,
        );
        assert_eq!(calls, reported);
        let full = rule.evals_per_isolated_bin();
        assert_eq!(reported, full + (full - 1) + full);
        for (i, &(lo, hi)) in bins.iter().enumerate() {
            assert_eq!(out[i], simpson(|x| x, lo, hi, 4).value, "bin {i}");
        }
    }

    #[test]
    fn accumulates_into_existing_values() {
        let bins = vec![(0.0, 2.0)];
        let mut out = vec![10.0];
        integrate_bins(BinRule::Simpson { panels: 2 }, |x| x, &bins, &mut out);
        assert!((out[0] - 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_a_no_op() {
        let mut out: Vec<f64> = Vec::new();
        let evals = integrate_bins(BinRule::Simpson { panels: 8 }, |x| x, &[], &mut out);
        assert_eq!(evals, 0);
    }

    #[test]
    fn vector_mode_handles_every_lane_remainder() {
        // Panel counts chosen so the interior node count 2n-1 covers
        // every residue mod LANES, plus the paper's 64-panel rule; bin
        // counts likewise not multiples of the lane width.
        let f = |x: f64| (-(x * 0.47)).exp() * (x * 1.3).cos();
        for panels in [1usize, 2, 3, 4, 5, 6, 7, 9, 64] {
            for bins_n in [1usize, 2, 3, 5, 7, 13] {
                let bins = grid(0.1, 6.3, bins_n);
                let mut exact = vec![0.0; bins_n];
                let mut vector = vec![0.0; bins_n];
                let rule = BinRule::Simpson { panels };
                let e1 = integrate_bins_sampled_mode(
                    rule,
                    &mut FnSampler(f),
                    &bins,
                    &mut exact,
                    MathMode::Exact,
                );
                let e2 = integrate_bins_sampled_mode(
                    rule,
                    &mut FnSampler(f),
                    &bins,
                    &mut vector,
                    MathMode::Vector,
                );
                assert_eq!(e1, e2, "same nodes regardless of mode");
                // Exact mode must stay bitwise identical to the
                // per-bin rule even at odd panel counts...
                for (i, &(lo, hi)) in bins.iter().enumerate() {
                    assert_eq!(exact[i], simpson(f, lo, hi, panels).value);
                    // ...and Vector mode is a re-association of the
                    // same products: ≤ 1e-12 relative.
                    let scale = exact[i].abs().max(1e-300);
                    assert!(
                        ((vector[i] - exact[i]) / scale).abs() <= 1e-12,
                        "panels {panels} bins {bins_n} bin {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn romberg_vector_mode_matches_exact_within_budget() {
        let f = |x: f64| (0.4 * x).exp() + x.sin();
        // k up to 6 gives midpoint batches of 1,2,4,8,16,32 — both
        // sub-lane and multi-chunk sizes.
        for k in [1u32, 2, 3, 4, 5, 6] {
            let bins = grid(-0.5, 2.5, 7);
            let mut exact = vec![0.0; 7];
            let mut vector = vec![0.0; 7];
            let rule = BinRule::Romberg { k };
            integrate_bins_sampled_mode(
                rule,
                &mut FnSampler(f),
                &bins,
                &mut exact,
                MathMode::Exact,
            );
            integrate_bins_sampled_mode(
                rule,
                &mut FnSampler(f),
                &bins,
                &mut vector,
                MathMode::Vector,
            );
            for (i, (&a, &b)) in exact.iter().zip(&vector).enumerate() {
                assert_eq!(a, romberg(f, bins[i].0, bins[i].1, k).value);
                let scale = a.abs().max(1e-300);
                assert!(((b - a) / scale).abs() <= 1e-12, "k {k} bin {i}");
            }
        }
    }

    #[test]
    fn lane_grids_hold_the_scalar_nodes_and_verdicts() {
        use crate::sampler::uniform_step;
        // Well-formed linear and logarithmic bins, plus lanes a sampler
        // must refuse: an empty bin (step 0), a reversed one, a bin so
        // narrow its nodes collapse, and NaN bounds.
        let mut bins = grid(0.3, 9.7, 5);
        bins.extend((0..5).map(|i| (1.5f64.powi(i), 1.5f64.powi(i + 1))));
        bins.extend([
            (2.0, 2.0),
            (3.0, 1.0),
            (1e9, 1e9 + 1e-7),
            (f64::NAN, 1.0),
            (-4.0, -1.0),
        ]);
        let mut xs = Vec::new();
        for (panels, isolated) in [1usize, 2, 3, 64, 130]
            .into_iter()
            .flat_map(|p| [(p, false), (p, true)])
        {
            for group in bins.chunks(BIN_LANES).chain(bins[3..].chunks(5)) {
                let lanes = LaneGrid::measure(group, panels, isolated);
                assert_eq!(lanes.len(), 2 * panels + usize::from(isolated));
                for k in 0..BIN_LANES {
                    // Short groups repeat their last bin.
                    let (lo, hi) = group[k.min(group.len() - 1)];
                    simpson_nodes(&mut xs, lo, hi, panels);
                    // An isolated lane keeps the bin's lower edge.
                    let nodes = &xs[usize::from(!isolated)..];
                    for (j, x) in nodes.iter().enumerate() {
                        assert_eq!(lanes.row(j)[k].to_bits(), x.to_bits(), "node {j}");
                    }
                    assert_eq!(
                        lanes.panel_width()[k].to_bits(),
                        ((hi - lo) / panels as f64).to_bits()
                    );
                    let min = nodes.iter().copied().fold(f64::INFINITY, f64::min);
                    assert_eq!(
                        lanes.min()[k].to_bits(),
                        min.to_bits(),
                        "min of ({lo}, {hi})"
                    );
                    let lane = LaneGrid::measure(&[(lo, hi)], panels, isolated);
                    match uniform_step(nodes) {
                        Some(step) => {
                            assert!(lane.all_uniform(), "({lo}, {hi}) x {panels}");
                            assert_eq!(lanes.step()[k].to_bits(), step.to_bits());
                        }
                        None => assert!(!lane.all_uniform(), "({lo}, {hi}) x {panels}"),
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut out = vec![0.0; 2];
        let _ = integrate_bins(
            BinRule::Simpson { panels: 8 },
            |x| x,
            &[(0.0, 1.0)],
            &mut out,
        );
    }
}
