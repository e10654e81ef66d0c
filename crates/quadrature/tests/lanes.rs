//! Lane-lockstep Simpson ≡ the scalar loop, bit for bit, at the
//! quadrature layer: run detection, edge hand-over between lanes,
//! padding of short groups, declined groups, evaluation counts — for
//! edge-linked runs and for the isolated lanes of one-bin threads.
//!
//! The reference is always the same integrand wrapped in
//! [`ScalarLanes`], which keeps the declining defaults and therefore
//! walks every bin through `sample_batch`.

use quadrature::{
    integrate_bins, integrate_bins_sampled_mode, BatchSampler, BinPlan, BinRule, LaneGrid, LaneRow,
    MathMode, ScalarLanes, BIN_LANES,
};

/// The simplest honest lockstep form: evaluate the integrand at every
/// node of every lane. Declines any group reaching below
/// `decline_below`, standing in for a sampler whose lockstep form has
/// preconditions.
#[derive(Clone, Copy)]
struct Nodewise {
    rate: f64,
    decline_below: f64,
    /// Groups sampled in lockstep so far.
    groups: usize,
}

fn nodewise(rate: f64, decline_below: f64) -> Nodewise {
    Nodewise {
        rate,
        decline_below,
        groups: 0,
    }
}

impl BatchSampler for Nodewise {
    fn sample(&mut self, x: f64) -> f64 {
        (-(x * self.rate)).exp() * (x.abs() + 1.0).recip()
    }

    fn lockstep(&self) -> bool {
        true
    }

    fn sample_lanes(&mut self, grid: &LaneGrid, out: &mut [LaneRow]) -> bool {
        assert_eq!(grid.len(), out.len());
        if grid.min().iter().any(|&x| x < self.decline_below) {
            return false;
        }
        for (j, o) in out.iter_mut().enumerate() {
            let row = grid.row(j);
            for k in 0..BIN_LANES {
                o[k] = self.sample(row[k]);
            }
        }
        self.groups += 1;
        true
    }
}

fn linear(lo: f64, hi: f64, bins: usize) -> Vec<(f64, f64)> {
    let edge = |i: usize| lo + (hi - lo) * (i as f64 / bins as f64);
    (0..bins).map(|i| (edge(i), edge(i + 1))).collect()
}

fn logarithmic(lo: f64, hi: f64, bins: usize) -> Vec<(f64, f64)> {
    let edge = |i: usize| lo * (hi / lo).powf(i as f64 / bins as f64);
    (0..bins).map(|i| (edge(i), edge(i + 1))).collect()
}

/// Integrate with the lockstep sampler and with its scalar-only twin;
/// outputs and evaluation counts must be identical. Returns how many
/// groups ran in lockstep.
fn assert_lanes_equal_scalar(
    mut s: Nodewise,
    bins: &[(f64, f64)],
    panels: usize,
    what: &str,
) -> usize {
    let rule = BinRule::Simpson { panels };
    let mut lanes = vec![0.25; bins.len()];
    let mut scalar = lanes.clone();
    let e_lanes = integrate_bins_sampled_mode(rule, &mut s, bins, &mut lanes, MathMode::Exact);
    let e_scalar = integrate_bins_sampled_mode(
        rule,
        &mut ScalarLanes(s),
        bins,
        &mut scalar,
        MathMode::Exact,
    );
    assert_eq!(e_lanes, e_scalar, "{what}: evals");
    for (i, (a, b)) in lanes.iter().zip(&scalar).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: bin {i}");
    }
    s.groups
}

/// Integrate `bins[range]` through an isolated plan and, as the
/// reference, every bin of the range alone through the scalar loop;
/// outputs and evaluation counts must be identical. Returns how many
/// groups ran in lockstep.
fn assert_isolated_equals_per_bin(
    mut s: Nodewise,
    bins: &[(f64, f64)],
    panels: usize,
    range: std::ops::Range<usize>,
    what: &str,
) -> usize {
    let rule = BinRule::Simpson { panels };
    let mut lanes = vec![0.25; range.len()];
    let mut alone = lanes.clone();
    let plan = BinPlan::isolated(rule, bins, MathMode::Exact);
    let e_lanes = plan.integrate(&mut s, range.clone(), &mut lanes);
    let mut e_alone = 0;
    for (i, slot) in range.zip(alone.chunks_mut(1)) {
        let bin = &bins[i..=i];
        e_alone +=
            integrate_bins_sampled_mode(rule, &mut ScalarLanes(s), bin, slot, MathMode::Exact);
    }
    assert_eq!(e_lanes, e_alone, "{what}: evals");
    assert_eq!(e_lanes, (lanes.len() * (2 * panels + 1)) as u64, "{what}");
    for (i, (a, b)) in lanes.iter().zip(&alone).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: bin {i}");
    }
    s.groups
}

const PANELS: [usize; 5] = [1, 2, 3, 64, 130];

#[test]
fn every_run_length_and_panel_count_matches_scalar() {
    let s = nodewise(0.31, f64::NEG_INFINITY);
    // 1..=40 bins: every remainder mod BIN_LANES after the head bin,
    // runs shorter than one group, several full groups.
    for n_bins in 1usize..=40 {
        for panels in PANELS {
            let what = format!("{n_bins} bins, {panels} panels");
            // Every bin but the head is edge-linked.
            let groups = (n_bins - 1).div_ceil(BIN_LANES);
            let linear = linear(0.3, 9.7, n_bins);
            assert_eq!(assert_lanes_equal_scalar(s, &linear, panels, &what), groups);
            let log = logarithmic(0.3, 9.7, n_bins);
            assert_eq!(assert_lanes_equal_scalar(s, &log, panels, &what), groups);
        }
    }
}

#[test]
fn isolated_groups_equal_the_per_bin_scalar_loop() {
    // Range lengths around one and two groups, starting at every
    // alignment relative to the plan's measured blocks. 130 panels put
    // 261 nodes in a lane: the 256-node re-anchoring of a recurrence.
    let s = nodewise(0.31, f64::NEG_INFINITY);
    for bins in [linear(0.3, 9.7, 30), logarithmic(0.3, 9.7, 30)] {
        for panels in PANELS {
            for start in 0..=12 {
                for len in 1usize..=17 {
                    let what = format!("{start}..+{len}, {panels} panels");
                    let groups =
                        assert_isolated_equals_per_bin(s, &bins, panels, start..start + len, &what);
                    // A lone bin has no second head to share a step with.
                    let expected = if len > 1 { len.div_ceil(BIN_LANES) } else { 0 };
                    assert_eq!(groups, expected, "{what}");
                }
            }
        }
    }
}

#[test]
fn declined_isolated_groups_fall_back_bin_by_bin() {
    // The sampler declines every group touching x < limit; an isolated
    // lane also holds its bin's lower edge, so the group that *starts*
    // at the limit is the first one accepted.
    let bins = linear(1.0, 9.0, 32);
    for (limit, accepted) in [(-1.0, 4), (3.0, 3), (3.1, 2), (8.9, 0), (20.0, 0)] {
        let s = nodewise(0.4, limit);
        let what = format!("limit {limit}");
        let groups = assert_isolated_equals_per_bin(s, &bins, 64, 0..bins.len(), &what);
        assert_eq!(groups, accepted, "{what}");
    }
}

#[test]
fn a_gap_mid_run_breaks_the_group_not_the_bits() {
    let s = nodewise(0.2, f64::NEG_INFINITY);
    for gap_at in [1usize, 2, 7, 8, 9, 15, 16, 17, 29] {
        let mut bins = linear(1.0, 7.0, 30);
        for b in &mut bins[gap_at..] {
            b.0 += 0.5;
            b.1 += 0.5;
        }
        for panels in PANELS {
            // Two runs, each headed by a scalar bin.
            let groups = (gap_at - 1).div_ceil(BIN_LANES) + (29 - gap_at).div_ceil(BIN_LANES);
            let what = format!("gap at {gap_at}");
            assert_eq!(assert_lanes_equal_scalar(s, &bins, panels, &what), groups);
        }
    }
}

#[test]
fn declined_groups_fall_back_and_later_groups_still_run_in_lanes() {
    // The sampler declines every group touching x < limit: the groups
    // below walk the scalar loop, the ones above run in lockstep, and
    // the one straddling the limit declines as a whole.
    for limit in [-1.0, 0.9, 4.0, 6.35, 20.0] {
        let s = nodewise(0.4, limit);
        for n_bins in [3usize, 9, 24, 33] {
            let what = format!("limit {limit}, {n_bins} bins");
            let groups = assert_lanes_equal_scalar(s, &linear(1.0, 9.0, n_bins), 64, &what);
            let all = (n_bins - 1).div_ceil(BIN_LANES);
            match limit {
                l if l < 1.0 => assert_eq!(groups, all, "{what}"),
                l if l > 9.0 => assert_eq!(groups, 0, "{what}"),
                _ if n_bins > 2 * BIN_LANES => assert!(0 < groups && groups < all, "{what}"),
                _ => assert!(groups < all, "{what}"),
            }
        }
    }
}

#[test]
fn a_shared_plan_equals_one_shot_calls_on_any_sub_range() {
    // Sub-ranges start at every alignment relative to the plan's
    // measured blocks, and a clamped head bin rides along.
    let s = nodewise(0.27, f64::NEG_INFINITY);
    let bins = logarithmic(0.5, 40.0, 37);
    let rule = BinRule::Simpson { panels: 3 };
    let plan = BinPlan::new(rule, &bins, MathMode::Exact);
    for start in 0..bins.len() {
        for end in [
            start + 1,
            start + 2,
            (start + 11).min(bins.len()),
            bins.len(),
        ] {
            if end > bins.len() || end <= start {
                continue;
            }
            let mut planned = vec![0.0; end - start];
            let mut one_shot = planned.clone();
            let e1 = plan.integrate(&mut { s }, start..end, &mut planned);
            let e2 = integrate_bins_sampled_mode(
                rule,
                &mut ScalarLanes(s),
                &bins[start..end],
                &mut one_shot,
                MathMode::Exact,
            );
            assert_eq!(e1, e2, "{start}..{end}");
            assert_eq!(planned, one_shot, "{start}..{end}");

            let lo = 0.5 * (bins[start].0 + bins[start].1);
            let mut clamped = vec![0.0; end - start];
            let e3 = plan.integrate_clamped(&mut { s }, start..end, lo, &mut clamped);
            let mut by_hand = vec![0.0; end - start];
            let mut e4 = integrate_bins_sampled_mode(
                rule,
                &mut ScalarLanes(s),
                &[(lo, bins[start].1)],
                &mut by_hand[..1],
                MathMode::Exact,
            );
            e4 += integrate_bins_sampled_mode(
                rule,
                &mut ScalarLanes(s),
                &bins[start + 1..end],
                &mut by_hand[1..],
                MathMode::Exact,
            );
            assert_eq!(e3, e4, "clamped {start}..{end}");
            assert_eq!(clamped, by_hand, "clamped {start}..{end}");
        }
    }
}

#[test]
fn closures_keep_their_call_count_and_call_order() {
    // A closure has no lockstep form: it must see exactly the nodes of
    // the bin-at-a-time walk, in that order — each bin's ascending
    // grid, a shared lower edge skipped.
    for panels in [1usize, 2, 64] {
        let bins = linear(0.0, 3.0, 19);
        let mut seen = Vec::new();
        let mut out = vec![0.0; bins.len()];
        let evals = integrate_bins(
            BinRule::Simpson { panels },
            |x| {
                seen.push(x);
                x * x
            },
            &bins,
            &mut out,
        );
        let mut expected = Vec::new();
        for (b, &(lo, hi)) in bins.iter().enumerate() {
            let h = (hi - lo) / panels as f64;
            if b == 0 {
                expected.push(lo);
            }
            for i in 0..panels {
                let a = lo + i as f64 * h;
                expected.push(a + 0.5 * h);
                if i + 1 < panels {
                    expected.push(a + h);
                }
            }
            expected.push(hi);
        }
        assert_eq!(evals as usize, expected.len());
        assert_eq!(seen.len(), expected.len(), "{panels} panels: call count");
        for (i, (a, b)) in seen.iter().zip(&expected).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{panels} panels: call {i}");
        }
    }
}

#[test]
fn vector_mode_and_romberg_never_enter_the_lanes() {
    // A sampler that panics in its lockstep form: only Exact Simpson
    // may reach it.
    struct NoLanes;
    impl BatchSampler for NoLanes {
        fn sample(&mut self, x: f64) -> f64 {
            x
        }
        fn lockstep(&self) -> bool {
            true
        }
        fn sample_lanes(&mut self, _: &LaneGrid, _: &mut [LaneRow]) -> bool {
            panic!("lockstep form reached");
        }
    }
    let bins = linear(0.0, 2.0, 12);
    let mut out = vec![0.0; bins.len()];
    integrate_bins_sampled_mode(
        BinRule::Simpson { panels: 8 },
        &mut NoLanes,
        &bins,
        &mut out,
        MathMode::Vector,
    );
    integrate_bins_sampled_mode(
        BinRule::Romberg { k: 4 },
        &mut NoLanes,
        &bins,
        &mut out,
        MathMode::Exact,
    );
    // Isolated plans likewise: every bin pays its own lower edge and
    // equals the same rule on that bin alone.
    for (rule, math) in [
        (BinRule::Simpson { panels: 8 }, MathMode::Vector),
        (BinRule::Romberg { k: 4 }, MathMode::Exact),
        (BinRule::Romberg { k: 4 }, MathMode::Vector),
    ] {
        let mut isolated = vec![0.0; bins.len()];
        let evals = BinPlan::isolated(rule, &bins, math).integrate(
            &mut NoLanes,
            0..bins.len(),
            &mut isolated,
        );
        assert_eq!(evals, bins.len() as u64 * rule.evals_per_isolated_bin());
        for (i, got) in isolated.iter().enumerate() {
            let mut alone = [0.0];
            integrate_bins_sampled_mode(rule, &mut NoLanes, &bins[i..=i], &mut alone, math);
            assert_eq!(
                got.to_bits(),
                alone[0].to_bits(),
                "{rule:?} {math:?}: bin {i}"
            );
        }
    }
}
