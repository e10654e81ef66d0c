//! The RRC integrand's lane-lockstep recurrence ≡ its scalar
//! `sample_batch`, bit for bit: every lane must run the operation
//! sequence the scalar path runs for that bin, so outputs and
//! evaluation counts are identical to the same integrand wrapped in
//! [`ScalarLanes`] (scalar loop only).

use atomdb::{AtomDatabase, DatabaseConfig};
use quadrature::{
    integrate_bins_sampled_mode, BatchSampler, BinPlan, BinRule, LaneGrid, LaneRow, MathMode,
    ScalarLanes, BIN_LANES,
};
use rrc_spectral::{
    emissivity_fused_into, ion_integrands, level_window, window_bin_range, EnergyGrid, GridPoint,
    PreparedIntegrand, RrcIntegrand,
};

fn linear(lo: f64, hi: f64, bins: usize) -> Vec<(f64, f64)> {
    let edge = |i: usize| lo + (hi - lo) * (i as f64 / bins as f64);
    (0..bins).map(|i| (edge(i), edge(i + 1))).collect()
}

fn logarithmic(lo: f64, hi: f64, bins: usize) -> Vec<(f64, f64)> {
    let edge = |i: usize| lo * (hi / lo).powf(i as f64 / bins as f64);
    (0..bins).map(|i| (edge(i), edge(i + 1))).collect()
}

/// The prepared integrand, counting the groups its lockstep form
/// accepts — so a comparison cannot pass by never entering the lanes.
struct Counting(PreparedIntegrand, usize);

impl BatchSampler for Counting {
    fn sample(&mut self, x: f64) -> f64 {
        self.0.sample(x)
    }

    fn sample_batch(&mut self, xs: &[f64], out: &mut [f64]) {
        self.0.sample_batch(xs, out);
    }

    fn lockstep(&self) -> bool {
        self.0.lockstep()
    }

    fn sample_lanes(&mut self, grid: &LaneGrid, out: &mut [LaneRow]) -> bool {
        let accepted = self.0.sample_lanes(grid, out);
        self.1 += usize::from(accepted);
        accepted
    }
}

/// Integrate with the lane sampler and with its scalar-only twin;
/// outputs and evaluation counts must be identical. Returns how many
/// groups ran in lockstep.
fn assert_lanes_equal_scalar(
    p: PreparedIntegrand,
    bins: &[(f64, f64)],
    panels: usize,
    what: &str,
) -> usize {
    let rule = BinRule::Simpson { panels };
    let mut lanes = vec![0.0; bins.len()];
    let mut scalar = vec![0.0; bins.len()];
    let mut counting = Counting(p, 0);
    let e_lanes =
        integrate_bins_sampled_mode(rule, &mut counting, bins, &mut lanes, MathMode::Exact);
    let e_scalar = integrate_bins_sampled_mode(
        rule,
        &mut ScalarLanes(p),
        bins,
        &mut scalar,
        MathMode::Exact,
    );
    assert_eq!(e_lanes, e_scalar, "{what}: evals");
    for (i, (a, b)) in lanes.iter().zip(&scalar).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: bin {i}: {a:e} vs {b:e}");
    }
    counting.1
}

const PANELS: [usize; 5] = [1, 2, 3, 64, 130];

#[test]
fn every_run_shape_matches_the_scalar_recurrence() {
    // Threshold below the run (every linked bin in lanes), inside it
    // (groups reaching below threshold decline as a whole, the rest run
    // in lockstep), and above it (all zeros, everything declines).
    // 130 panels put 260 nodes in a lane: the 256-node re-anchoring.
    // One panel leaves two nodes, too few for the recurrence.
    for threshold in [50.0, 437.5, 5000.0] {
        let p = RrcIntegrand::new(862.0, threshold, 2, 1.0, 1e-4).prepare();
        for n_bins in 1usize..=40 {
            for panels in PANELS {
                let what = format!("threshold {threshold}, {n_bins} bins, {panels} panels");
                let linear = linear(100.0, 1300.0, n_bins);
                let groups = assert_lanes_equal_scalar(p, &linear, panels, &what);
                let log = logarithmic(100.0, 1300.0, n_bins);
                let log_groups = assert_lanes_equal_scalar(p, &log, panels, &what);
                let all = (n_bins - 1).div_ceil(BIN_LANES);
                if panels == 1 || threshold > 1300.0 {
                    assert_eq!((groups, log_groups), (0, 0), "{what}");
                } else if threshold < 100.0 {
                    assert_eq!((groups, log_groups), (all, all), "{what}");
                } else if n_bins > 3 * BIN_LANES {
                    assert!(0 < groups && groups < all, "{what}: {groups} of {all}");
                }
            }
        }
    }
}

#[test]
fn a_gap_mid_run_and_a_zero_coefficient_match_scalar() {
    let p = RrcIntegrand::new(86.2, 20.0, 3, 2.5, 3e-4).prepare();
    for gap_at in [1usize, 5, 8, 9, 17, 26] {
        let mut bins = linear(30.0, 300.0, 27);
        for b in &mut bins[gap_at..] {
            b.0 += 4.0;
            b.1 += 4.0;
        }
        for panels in PANELS {
            let groups = assert_lanes_equal_scalar(p, &bins, panels, &format!("gap at {gap_at}"));
            // Two runs, each headed by a scalar bin.
            let all = (gap_at - 1).div_ceil(BIN_LANES) + (26 - gap_at).div_ceil(BIN_LANES);
            assert_eq!(groups, if panels == 1 { 0 } else { all }, "gap at {gap_at}");
        }
    }
    // kT = 0 collapses the coefficient to zero: the recurrence is never
    // entered, lanes decline, and both paths return exact zeros.
    let dead = RrcIntegrand::new(0.0, 20.0, 3, 2.5, 3e-4).prepare();
    assert_eq!(dead.coeff, 0.0);
    for panels in PANELS {
        let groups =
            assert_lanes_equal_scalar(dead, &linear(30.0, 300.0, 27), panels, "coeff == 0");
        assert_eq!(groups, 0);
    }
}

/// Integrate `bins[range]` through an isolated plan and, as the
/// reference, every bin of the range alone through the scalar-only
/// sampler. Returns how many groups ran in lockstep.
fn assert_isolated_equals_per_bin(
    p: PreparedIntegrand,
    bins: &[(f64, f64)],
    panels: usize,
    range: std::ops::Range<usize>,
    what: &str,
) -> usize {
    let rule = BinRule::Simpson { panels };
    let mut lanes = vec![0.0; range.len()];
    let mut alone = vec![0.0; range.len()];
    let mut counting = Counting(p, 0);
    let plan = BinPlan::isolated(rule, bins, MathMode::Exact);
    let e_lanes = plan.integrate(&mut counting, range.clone(), &mut lanes);
    let mut e_alone = 0;
    for (i, slot) in range.zip(alone.chunks_mut(1)) {
        let bin = &bins[i..=i];
        e_alone +=
            integrate_bins_sampled_mode(rule, &mut ScalarLanes(p), bin, slot, MathMode::Exact);
    }
    assert_eq!(e_lanes, e_alone, "{what}: evals");
    for (i, (a, b)) in lanes.iter().zip(&alone).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: bin {i}: {a:e} vs {b:e}");
    }
    counting.1
}

#[test]
fn isolated_lanes_match_the_scalar_recurrence_and_decline_like_it() {
    // What a one-bin simulated thread computes: each bin's full 2n + 1
    // node grid, lower edge included. 130 panels cross the 256-node
    // re-anchor; one panel leaves three nodes, too few for the
    // recurrence, so every group declines.
    let p = RrcIntegrand::new(862.0, 50.0, 2, 1.0, 1e-4).prepare();
    for bins in [linear(100.0, 1300.0, 30), logarithmic(100.0, 1300.0, 30)] {
        for panels in PANELS {
            for start in [0usize, 1, 5, 8, 11] {
                for len in 1usize..=17 {
                    let what = format!("{start}..+{len}, {panels} panels");
                    let groups =
                        assert_isolated_equals_per_bin(p, &bins, panels, start..start + len, &what);
                    let expected = if panels > 1 && len > 1 {
                        len.div_ceil(BIN_LANES)
                    } else {
                        0
                    };
                    assert_eq!(groups, expected, "{what}");
                }
            }
        }
    }
    let bins = linear(100.0, 1300.0, 32);
    // A threshold inside bin 11: the group holding a lane that reaches
    // below it declines as a whole (those bins walk the zero-prefix
    // scalar path), the groups above run in lockstep.
    let inside = RrcIntegrand::new(862.0, 520.0, 2, 1.0, 1e-4).prepare();
    // kT = 0 collapses the coefficient to zero: nothing enters a lane.
    let dead = RrcIntegrand::new(0.0, 50.0, 2, 1.0, 1e-4).prepare();
    assert_eq!(dead.coeff, 0.0);
    // A reversed bin is not an ascending uniform grid: its group
    // declines, the others do not.
    let mut reversed = bins.clone();
    reversed[19] = (bins[19].1, bins[19].0);
    for panels in [2usize, 3, 64, 130] {
        for (p, bins, accepted, what) in [
            (inside, &bins, 2, "threshold inside a lane"),
            (dead, &bins, 0, "coeff == 0"),
            (p, &reversed, 3, "non-uniform lane"),
        ] {
            let groups = assert_isolated_equals_per_bin(p, bins, panels, 0..32, what);
            assert_eq!(groups, accepted, "{what}, {panels} panels");
        }
    }
}

#[test]
fn clamped_head_bins_and_shared_plans_match_scalar_per_level() {
    // The calculator's shape: one plan per ion, every level integrated
    // over its own window, the threshold bin clamped and integrated
    // alone. The reference replays the same calls through one-shot
    // integrations of the scalar-only sampler.
    let db = AtomDatabase::generate(DatabaseConfig {
        max_z: 8,
        ..DatabaseConfig::default()
    });
    let point = GridPoint {
        temperature_k: 3.1e6,
        density_cm3: 1.0,
        time_s: 0.0,
        index: 0,
    };
    let kt = point.kt_ev();
    let rule = BinRule::Simpson { panels: 64 };
    for grid in [
        EnergyGrid::paper_waveband(96),
        EnergyGrid::logarithmic(20.0, 3000.0, 53),
    ] {
        let bins = grid.bin_pairs();
        let mut clamped_levels = 0;
        for ion in 0..db.ions().len() {
            let levels = db.levels_by_index(ion).len();
            let Some(integrands) = ion_integrands(&db, ion, 0..levels, &point) else {
                continue;
            };
            let mut fused = vec![0.0; bins.len()];
            emissivity_fused_into(&integrands, kt, rule, &bins, &mut fused);

            let mut reference = vec![0.0; bins.len()];
            let plan = BinPlan::new(rule, &bins, MathMode::Exact);
            let mut planned = vec![0.0; bins.len()];
            for f in &integrands {
                let (threshold, cutoff) = level_window(f.binding_ev, kt);
                let (skip, end, clamped_lo) = window_bin_range(&bins, threshold, cutoff);
                if skip >= end {
                    continue;
                }
                let mut s = ScalarLanes(f.prepare());
                let mut start = skip;
                let mut e_ref = 0;
                if clamped_lo > bins[skip].0 {
                    clamped_levels += 1;
                    e_ref += integrate_bins_sampled_mode(
                        rule,
                        &mut s,
                        &[(clamped_lo, bins[skip].1)],
                        &mut reference[skip..=skip],
                        MathMode::Exact,
                    );
                    start += 1;
                }
                e_ref += integrate_bins_sampled_mode(
                    rule,
                    &mut s,
                    &bins[start..end],
                    &mut reference[start..end],
                    MathMode::Exact,
                );
                let mut p = f.prepare();
                let e_plan = if clamped_lo > bins[skip].0 {
                    plan.integrate_clamped(&mut p, skip..end, clamped_lo, &mut planned[skip..end])
                } else {
                    plan.integrate(&mut p, skip..end, &mut planned[skip..end])
                };
                assert_eq!(e_plan, e_ref, "ion {ion}: evals");
            }
            for (b, ((a, r), p)) in fused.iter().zip(&reference).zip(&planned).enumerate() {
                assert_eq!(a.to_bits(), r.to_bits(), "ion {ion} bin {b}: calculator");
                assert_eq!(p.to_bits(), r.to_bits(), "ion {ion} bin {b}: plan");
            }
        }
        assert!(
            clamped_levels > 0,
            "no level had its threshold inside a bin"
        );
    }
}
