//! Batched integrand sampling.
//!
//! The bin-range hot path ([`crate::integrate_bins_sampled`]) evaluates
//! an integrand on whole grids of quadrature nodes at once. For an
//! arbitrary closure that is just a loop — bitwise identical to calling
//! it per node — but integrands that know their own analytic structure
//! can override [`BatchSampler::sample_batch`] and evaluate the grid
//! far faster than node-by-node (the RRC integrand replaces one `exp`
//! per node with one `exp` per bin plus a running multiply).

/// Number of bins the Exact Simpson hot path advances in lockstep: a
/// [`LaneRow`] holds one quantity for that many consecutive bins.
pub const BIN_LANES: usize = 8;

/// One value per lane.
pub type LaneRow = [f64; BIN_LANES];

/// The step of an ascending, uniform node grid — `None` when `xs` is
/// not one. Uniform means affine to within a few ulps of the node
/// magnitudes (the rounding scale of affine node computation). This is
/// the predicate structured samplers use to decide whether a recurrence
/// may replace per-node evaluation; [`LaneGrid`] records the same
/// verdict per lane, bit for bit.
///
/// # Panics
/// Panics if `xs` has fewer than two nodes.
#[must_use]
pub fn uniform_step(xs: &[f64]) -> Option<f64> {
    let n = xs.len();
    let x0 = xs[0];
    let step = (xs[n - 1] - x0) / (n - 1) as f64;
    let tol = 8.0 * f64::EPSILON * xs[0].abs().max(xs[n - 1].abs());
    let off_grid = |(j, &x): (usize, &f64)| (x - (x0 + j as f64 * step)).abs() > tol;
    if step <= 0.0 || xs.iter().enumerate().any(off_grid) {
        None
    } else {
        Some(step)
    }
}

/// [`BIN_LANES`] composite-Simpson node grids side by side, one bin per
/// lane, in one of two forms. *Edge-linked*: the grid of lane `k` is bin
/// nodes `1..=2n` (the lower-edge node is handed over from the previous
/// bin). *Isolated*: all `2n + 1` nodes, row 0 being the bin's own
/// lower edge. Either way a lane's grid is exactly the slice
/// [`BatchSampler::sample_batch`] receives for such a bin.
///
/// Nodes are not stored: [`LaneGrid::row`] recomputes them with the
/// node expressions of `rules::simpson`, and the facts a structured
/// sampler derives from a whole grid — its [`uniform_step`] verdict and
/// its smallest node — are measured once and carried along, so they
/// are paid once per bin array instead of once per integrand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneGrid {
    panels: usize,
    isolated: bool,
    lo: LaneRow,
    hi: LaneRow,
    h: LaneRow,
    step: LaneRow,
    min: LaneRow,
    uniform: [bool; BIN_LANES],
}

impl LaneGrid {
    /// Measure the grids of `bins` (at most [`BIN_LANES`]; a short
    /// group is padded with copies of its last bin) for `panels`
    /// Simpson panels per bin, in the isolated or the edge-linked form.
    pub(crate) fn measure(bins: &[(f64, f64)], panels: usize, isolated: bool) -> LaneGrid {
        let mut lo = [0.0; BIN_LANES];
        let mut hi = [0.0; BIN_LANES];
        let mut h = [0.0; BIN_LANES];
        for k in 0..BIN_LANES {
            (lo[k], hi[k]) = bins[k.min(bins.len() - 1)];
            h[k] = (hi[k] - lo[k]) / panels as f64;
        }
        let mut grid = LaneGrid {
            panels,
            isolated,
            lo,
            hi,
            h,
            step: [0.0; BIN_LANES],
            min: [f64::INFINITY; BIN_LANES],
            uniform: [false; BIN_LANES],
        };
        // The `uniform_step` predicate, every lane at once: verdicts are
        // OR-ed as integer masks without early exit so the pass
        // vectorizes across the lanes.
        let first = grid.row(0);
        let mut tol = [0.0; BIN_LANES];
        let mut off_grid = [0u64; BIN_LANES];
        for k in 0..BIN_LANES {
            grid.step[k] = (hi[k] - first[k]) / (grid.len() - 1) as f64;
            tol[k] = 8.0 * f64::EPSILON * first[k].abs().max(hi[k].abs());
            off_grid[k] = u64::from(grid.step[k] <= 0.0);
        }
        for j in 0..grid.len() {
            let row = grid.row(j);
            for k in 0..BIN_LANES {
                let affine = first[k] + j as f64 * grid.step[k];
                off_grid[k] |= u64::from((row[k] - affine).abs() > tol[k]);
                if row[k] < grid.min[k] {
                    grid.min[k] = row[k];
                }
            }
        }
        grid.uniform = off_grid.map(|mask| mask == 0);
        grid
    }

    /// Lane `dst` takes the bin measured in lane `src` of `from`.
    pub(crate) fn copy_lane(&mut self, dst: usize, from: &LaneGrid, src: usize) {
        self.lo[dst] = from.lo[src];
        self.hi[dst] = from.hi[src];
        self.h[dst] = from.h[src];
        self.step[dst] = from.step[src];
        self.min[dst] = from.min[src];
        self.uniform[dst] = from.uniform[src];
    }

    /// Whether row 0 is each bin's own lower edge.
    pub(crate) fn is_isolated(&self) -> bool {
        self.isolated
    }

    /// Nodes per lane: `2n` edge-linked, `2n + 1` isolated.
    #[must_use]
    #[allow(clippy::len_without_is_empty)] // a grid always has nodes
    pub fn len(&self) -> usize {
        2 * self.panels + usize::from(self.isolated)
    }

    /// Node `j` of every lane — `xs[j]` of the slice `sample_batch`
    /// would receive, bit for bit.
    ///
    /// # Panics
    /// Panics if `j >= self.len()`.
    #[must_use]
    #[inline]
    pub fn row(&self, j: usize) -> LaneRow {
        assert!(j < self.len(), "node {j} out of range");
        if j + 1 == self.len() {
            return self.hi;
        }
        // Row j is bin node j + 1, or bin node j when isolated.
        let Some(j) = j.checked_sub(usize::from(self.isolated)) else {
            return self.lo;
        };
        // Bin node j + 1: odd ones are panel midpoints `a + h/2`, even
        // ones panel ends `a + h`, with `a = lo + i h` the panel start.
        let i = (j / 2) as f64;
        let offset = if j.is_multiple_of(2) { 0.5 } else { 1.0 };
        std::array::from_fn(|k| {
            let a = self.lo[k] + i * self.h[k];
            a + offset * self.h[k]
        })
    }

    /// Per-lane panel width `(hi − lo) / n`.
    #[must_use]
    pub fn panel_width(&self) -> &LaneRow {
        &self.h
    }

    /// Per-lane [`uniform_step`] of the grid (meaningful only where
    /// [`LaneGrid::all_uniform`] holds).
    #[must_use]
    pub fn step(&self) -> &LaneRow {
        &self.step
    }

    /// Per-lane smallest node (NaN nodes ignored).
    #[must_use]
    pub fn min(&self) -> &LaneRow {
        &self.min
    }

    /// Whether every lane's grid is ascending and uniform.
    #[must_use]
    pub fn all_uniform(&self) -> bool {
        self.uniform == [true; BIN_LANES]
    }
}

/// An integrand that can be sampled one node at a time or over a whole
/// node grid.
///
/// `sample_batch`'s default implementation calls [`BatchSampler::sample`]
/// once per node in order, so implementing only `sample` gives exactly
/// the per-node behavior. Overrides may return values that differ from
/// the per-node path by at most a few parts in `1e-13` relative — the
/// documented accuracy budget of the fused pipeline.
pub trait BatchSampler {
    /// Evaluate the integrand at `x`.
    fn sample(&mut self, x: f64) -> f64;

    /// Fill `out[j] = f(xs[j])` for every node.
    ///
    /// `xs` is sorted ascending whenever the quadrature routines in
    /// this crate call it (each batch is one bin's nodes, or one
    /// Romberg level's midpoints), which is what structured overrides
    /// rely on.
    ///
    /// # Panics
    /// Implementations may assume and assert `xs.len() == out.len()`.
    fn sample_batch(&mut self, xs: &[f64], out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.sample(x);
        }
    }

    /// Whether [`BatchSampler::sample_lanes`] can ever accept a group.
    /// `false` (the default) keeps the bin-range routines from
    /// measuring lane grids nobody will use.
    fn lockstep(&self) -> bool {
        false
    }

    /// Sample the [`BIN_LANES`] node grids of `grid` in lockstep,
    /// writing node `j` of every lane to `out[j]`.
    ///
    /// Returning `true` promises that lane `k` of `out` now holds,
    /// **bit for bit**, what `sample_batch` writes for lane `k`'s grid;
    /// lanes may repeat (a short group is padded with copies of its
    /// last bin). Returning `false` declines — `out` is then unspecified
    /// and the caller samples the bins one after another through
    /// `sample_batch`. The default declines, so closures and samplers
    /// without a lockstep form keep their call count and call order.
    ///
    /// # Panics
    /// Implementations may assume and assert `out.len() == grid.len()`.
    fn sample_lanes(&mut self, grid: &LaneGrid, out: &mut [LaneRow]) -> bool {
        let _ = (grid, out);
        false
    }
}

/// Adapter giving any `FnMut(f64) -> f64` closure the per-node
/// [`BatchSampler`] behavior.
#[derive(Debug, Clone, Copy)]
pub struct FnSampler<F>(pub F);

impl<F: FnMut(f64) -> f64> BatchSampler for FnSampler<F> {
    #[inline]
    fn sample(&mut self, x: f64) -> f64 {
        (self.0)(x)
    }
}

/// `S` with its lockstep form switched off: forwards `sample` and
/// `sample_batch` and keeps the declining defaults, so every bin takes
/// the scalar loop. The reference the lane path is held bit-identical
/// to, in tests and in `repro-hotpath`.
#[derive(Debug, Clone, Copy)]
pub struct ScalarLanes<S>(pub S);

impl<S: BatchSampler> BatchSampler for ScalarLanes<S> {
    #[inline]
    fn sample(&mut self, x: f64) -> f64 {
        self.0.sample(x)
    }

    #[inline]
    fn sample_batch(&mut self, xs: &[f64], out: &mut [f64]) {
        self.0.sample_batch(xs, out);
    }
}

impl<S: BatchSampler + ?Sized> BatchSampler for &mut S {
    #[inline]
    fn sample(&mut self, x: f64) -> f64 {
        (**self).sample(x)
    }

    #[inline]
    fn sample_batch(&mut self, xs: &[f64], out: &mut [f64]) {
        (**self).sample_batch(xs, out);
    }

    #[inline]
    fn lockstep(&self) -> bool {
        (**self).lockstep()
    }

    #[inline]
    fn sample_lanes(&mut self, grid: &LaneGrid, out: &mut [LaneRow]) -> bool {
        (**self).sample_lanes(grid, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_batch_is_per_node() {
        let mut calls = 0u32;
        let mut s = FnSampler(|x: f64| {
            calls += 1;
            x * 2.0
        });
        let xs = [1.0, 2.0, 3.0];
        let mut out = [0.0; 3];
        s.sample_batch(&xs, &mut out);
        assert_eq!(out, [2.0, 4.0, 6.0]);
        assert_eq!(calls, 3);
    }

    #[test]
    fn mut_ref_delegates() {
        let mut s = FnSampler(|x: f64| x + 1.0);
        let mut r = &mut s;
        assert_eq!(r.sample(1.0), 2.0);
        let mut out = [0.0];
        (&mut r).sample_batch(&[4.0], &mut out);
        assert_eq!(out, [5.0]);
    }
}
