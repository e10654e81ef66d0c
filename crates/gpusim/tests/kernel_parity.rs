//! Property tests: the SIMT kernel must agree with the host quadrature
//! library for arbitrary launch geometries and integrand families —
//! the "GPU" is a different execution of the same mathematics.
//!
//! Deterministic seeded sweeps (`desim::rng`) stand in for an external
//! property-testing framework.

use desim::rng;
use gpu_sim::{BinIntegrationKernel, DeviceRule, FusedBinKernel, LaunchConfig, Precision};
use quadrature::FnSampler;

#[test]
fn kernel_equals_host_simpson() {
    let mut r = rng(0x51A71);
    for _ in 0..60 {
        let grid_dim = r.gen_range_usize(1..6) as u32;
        let block_dim = r.gen_range_usize(1..65) as u32;
        let n_bins = r.gen_range_usize(1..80);
        let a = r.gen_range(-2.0..2.0);
        let b = r.gen_range(-2.0..2.0);
        let f = move |x: f64| (a * x).sin() + b * x * x + 1.5;
        let bins: Vec<(f64, f64)> = (0..n_bins)
            .map(|i| (i as f64 * 0.25, (i + 1) as f64 * 0.25))
            .collect();
        let kernel = BinIntegrationKernel {
            integrands: std::slice::from_ref(&f),
            bins: &bins,
            precision: Precision::Double,
            windows: None,
            rule: DeviceRule::Simpson { panels: 16 },
        };
        let mut emi = vec![0.0; n_bins];
        kernel.execute(LaunchConfig::new(grid_dim, block_dim), &mut emi);
        for (i, &(lo, hi)) in bins.iter().enumerate() {
            let host = quadrature::simpson(f, lo, hi, 16).value;
            assert_eq!(emi[i], host, "bin {i}");
        }
    }
}

#[test]
fn kernel_work_count_is_exact() {
    let mut r = rng(0x3C0);
    for _ in 0..60 {
        let n_bins = r.gen_range_usize(1..50);
        let levels = r.gen_range_usize(1..6);
        let panels = r.gen_range_usize(1..40);
        let fs: Vec<_> = (0..levels).map(|l| move |x: f64| x + l as f64).collect();
        let bins: Vec<(f64, f64)> = (0..n_bins).map(|i| (i as f64, i as f64 + 1.0)).collect();
        let kernel = BinIntegrationKernel {
            integrands: &fs,
            bins: &bins,
            precision: Precision::Double,
            windows: None,
            rule: DeviceRule::Simpson { panels },
        };
        let mut emi = vec![0.0; n_bins];
        let evals = kernel.execute(LaunchConfig::cover(n_bins), &mut emi);
        assert_eq!(
            evals,
            (2 * panels as u64 + 1) * n_bins as u64 * levels as u64
        );
    }
}

#[test]
fn windows_never_create_negative_work() {
    let mut r = rng(0x3149D0);
    for _ in 0..60 {
        let n_bins = r.gen_range_usize(1..40);
        let threshold = r.gen_range(0.0..10.0);
        let width = r.gen_range(0.1..10.0);
        let f = |_x: f64| 1.0;
        let bins: Vec<(f64, f64)> = (0..n_bins)
            .map(|i| (i as f64 * 0.5, (i + 1) as f64 * 0.5))
            .collect();
        let windows = vec![(threshold, threshold + width)];
        let kernel = BinIntegrationKernel {
            integrands: std::slice::from_ref(&f),
            bins: &bins,
            precision: Precision::Double,
            windows: Some(&windows),
            rule: DeviceRule::Simpson { panels: 4 },
        };
        let mut emi = vec![0.0; n_bins];
        kernel.execute(LaunchConfig::cover(n_bins), &mut emi);
        // Integrating the constant 1 over clamped sub-bins: every value
        // in [0, bin width], total <= window width.
        for (i, &v) in emi.iter().enumerate() {
            assert!((0.0..=0.5 + 1e-12).contains(&v), "bin {i}: {v}");
        }
        // The cutoff is a skip heuristic, not a clamp (bins that start
        // inside the window integrate to their own upper edge, exactly
        // like the CPU path), so the straddling bin may overshoot by up
        // to one bin width.
        let total: f64 = emi.iter().sum();
        assert!(total <= width + 0.5 + 1e-9);
    }
}

/// Run both kernels on the same random task and return their outputs
/// and eval counts.
#[allow(clippy::type_complexity)]
fn run_pair(
    r: &mut desim::SimRng,
    precision: Precision,
    rule: DeviceRule,
) -> (Vec<f64>, u64, Vec<f64>, u64) {
    let grid_dim = r.gen_range_usize(1..5) as u32;
    let block_dim = r.gen_range_usize(1..33) as u32;
    let n_bins = r.gen_range_usize(1..70);
    let levels = r.gen_range_usize(1..4);
    let params: Vec<(f64, f64)> = (0..levels)
        .map(|_| (r.gen_range(-2.0..2.0), r.gen_range(0.2..2.0)))
        .collect();
    let fs: Vec<_> = params
        .iter()
        .map(|&(a, b)| move |x: f64| (a * x).cos() * (-b * x * 0.1).exp() + 2.0)
        .collect();
    let bins: Vec<(f64, f64)> = (0..n_bins)
        .map(|i| (i as f64 * 0.3, (i + 1) as f64 * 0.3))
        .collect();
    // Random per-level windows, sometimes clamping mid-bin.
    let windows: Vec<(f64, f64)> = (0..levels)
        .map(|_| {
            let t = r.gen_range(0.0..n_bins as f64 * 0.3);
            (t, t + r.gen_range(0.5..n_bins as f64 * 0.3 + 1.0))
        })
        .collect();
    let cfg = LaunchConfig::new(grid_dim, block_dim);
    let legacy = BinIntegrationKernel {
        integrands: &fs,
        bins: &bins,
        precision,
        windows: Some(&windows),
        rule,
    };
    let mut legacy_emi = vec![0.0; n_bins];
    let legacy_evals = legacy.execute(cfg, &mut legacy_emi);
    // FnSampler-wrapped closures take the per-node default batch path,
    // which the fused kernel must keep bitwise-identical to the legacy
    // kernel.
    let samplers: Vec<_> = fs.iter().copied().map(FnSampler).collect();
    let fused = FusedBinKernel {
        integrands: &samplers,
        bins: &bins,
        precision,
        windows: Some(&windows),
        rule,
        math: quadrature::MathMode::Exact,
    };
    // Poison the fused buffer: the fused kernel owns initialization.
    let mut fused_emi = vec![f64::NAN; n_bins];
    let fused_evals = fused.execute(cfg, &mut fused_emi);
    (legacy_emi, legacy_evals, fused_emi, fused_evals)
}

/// The fused kernel is bitwise identical to the legacy per-bin kernel in
/// f64, for every rule, and never does more integrand evaluations.
#[test]
fn fused_kernel_matches_legacy_bitwise_f64() {
    let mut r = rng(0xF05ED);
    for rule in [
        DeviceRule::Simpson { panels: 16 },
        DeviceRule::Romberg { k: 5 },
        DeviceRule::GaussLegendre { order: 8 },
    ] {
        for _ in 0..25 {
            let (legacy, legacy_evals, fused, fused_evals) =
                run_pair(&mut r, Precision::Double, rule);
            assert_eq!(legacy, fused, "{rule:?}");
            assert!(fused_evals <= legacy_evals, "{rule:?}");
        }
    }
}

/// Emulated-f32 behavior is preserved exactly: the fused kernel rounds
/// at the same points the legacy kernel does, so Single-precision
/// results are bitwise identical too (the Fig. 8 error scale depends on
/// this rounding sequence).
#[test]
fn fused_kernel_preserves_f32_behavior() {
    let mut r = rng(0xF32);
    for rule in [
        DeviceRule::Simpson { panels: 16 },
        DeviceRule::Romberg { k: 5 },
        DeviceRule::GaussLegendre { order: 8 },
    ] {
        for _ in 0..25 {
            let (legacy, _, fused, _) = run_pair(&mut r, Precision::Single, rule);
            assert_eq!(legacy, fused, "{rule:?}");
        }
    }
}

/// Fusion saves exactly one evaluation per shared interior edge of each
/// thread's contiguous in-window run (Simpson / Romberg; Gauss–Legendre
/// has no edge nodes to share).
#[test]
fn fused_kernel_saves_shared_edges() {
    let f = |x: f64| x * x + 1.0;
    let n_bins = 48;
    let bins: Vec<(f64, f64)> = (0..n_bins)
        .map(|i| (i as f64 * 0.5, (i + 1) as f64 * 0.5))
        .collect();
    // One thread owns the whole run: 47 interior edges shared.
    let cfg = LaunchConfig::new(1, 1);
    let samplers = [FnSampler(f)];
    let fused = FusedBinKernel {
        integrands: &samplers,
        bins: &bins,
        precision: Precision::Double,
        windows: None,
        rule: DeviceRule::Simpson { panels: 8 },
        math: quadrature::MathMode::Exact,
    };
    let mut emi = vec![0.0; n_bins];
    let evals = fused.execute(cfg, &mut emi);
    let isolated = 2 * 8 + 1;
    assert_eq!(evals, isolated + (n_bins as u64 - 1) * (isolated - 1));
}

/// Ten hydrogen-like levels at ~1e7 K, thresholds from inside the bin
/// range (clamped head bins) down to below it.
fn rrc_levels() -> Vec<rrc_spectral::PreparedIntegrand> {
    (1..=10u16)
        .map(|n| {
            rrc_spectral::RrcIntegrand::new(862.0, 13.6 * 64.0 / f64::from(n * n), n, 1.0, 1e-4)
                .prepare()
        })
        .collect()
}

#[test]
fn lane_lockstep_kernel_equals_per_thread_scalar_execution() {
    // The prepared RRC integrand advances BIN_LANES bins per step
    // wherever a simulated thread owns an edge-linked run; wrapped in
    // `ScalarLanes` the same kernel walks every bin alone. Spectra and
    // evaluation counts (hence modeled device seconds) must be equal
    // bit for bit under every launch geometry: one thread owning all
    // bins (the serving geometry), 64 threads with short runs, and
    // one-bin threads where no run forms.
    let levels = rrc_levels();
    let scalar: Vec<_> = levels
        .iter()
        .copied()
        .map(quadrature::ScalarLanes)
        .collect();
    let kt = 862.0;
    let windows: Vec<(f64, f64)> = levels
        .iter()
        .map(|p| (p.threshold_ev, p.threshold_ev + 40.0 * kt))
        .collect();
    for n_bins in [1usize, 7, 8, 9, 96, 131] {
        let linear: Vec<(f64, f64)> = {
            let edge = |i: usize| 100.0 + 1200.0 * (i as f64 / n_bins as f64);
            (0..n_bins).map(|i| (edge(i), edge(i + 1))).collect()
        };
        let log: Vec<(f64, f64)> = {
            let edge = |i: usize| 5.0 * 400f64.powf(i as f64 / n_bins as f64);
            (0..n_bins).map(|i| (edge(i), edge(i + 1))).collect()
        };
        for bins in [&linear, &log] {
            for rule in [
                DeviceRule::Simpson { panels: 64 },
                DeviceRule::Simpson { panels: 130 },
                DeviceRule::Simpson { panels: 3 },
            ] {
                for cfg in [
                    LaunchConfig::new(1, 1),
                    LaunchConfig::new(4, 16),
                    LaunchConfig::cover(n_bins),
                ] {
                    let mut lane_out = vec![f64::NAN; n_bins];
                    let lane_evals = FusedBinKernel {
                        integrands: &levels,
                        bins,
                        precision: Precision::Double,
                        windows: Some(&windows),
                        rule,
                        math: quadrature::MathMode::Exact,
                    }
                    .execute(cfg, &mut lane_out);
                    let mut scalar_out = vec![f64::NAN; n_bins];
                    let scalar_evals = FusedBinKernel {
                        integrands: &scalar,
                        bins,
                        precision: Precision::Double,
                        windows: Some(&windows),
                        rule,
                        math: quadrature::MathMode::Exact,
                    }
                    .execute(cfg, &mut scalar_out);
                    assert_eq!(lane_evals, scalar_evals, "{n_bins} bins {rule:?} {cfg:?}");
                    for (b, (a, r)) in lane_out.iter().zip(&scalar_out).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            r.to_bits(),
                            "{n_bins} bins {rule:?} {cfg:?}: bin {b}"
                        );
                    }
                }
            }
        }
    }
}

/// What a launch of one-bin simulated threads computes, written without
/// the kernel: per bin, the levels in order; per level the window rule
/// of a one-bin chunk (skip a bin outside the window, raise the lower
/// limit to the threshold), then the scalar loop over that single bin.
fn one_bin_reference(
    levels: &[rrc_spectral::PreparedIntegrand],
    bins: &[(f64, f64)],
    windows: Option<&[(f64, f64)]>,
    rule: quadrature::BinRule,
    math: quadrature::MathMode,
) -> (Vec<f64>, u64) {
    let mut out = vec![0.0; bins.len()];
    let mut evals = 0;
    for (slot, &(lo, hi)) in out.iter_mut().zip(bins) {
        for (level, f) in levels.iter().enumerate() {
            let lo = match windows.map(|w| w[level]) {
                Some((threshold, cutoff)) if hi <= threshold || lo >= cutoff => continue,
                Some((threshold, _)) => lo.max(threshold),
                None => lo,
            };
            evals += quadrature::integrate_bins_sampled_mode(
                rule,
                &mut quadrature::ScalarLanes(*f),
                &[(lo, hi)],
                std::slice::from_mut(slot),
                math,
            );
        }
    }
    (out, evals)
}

#[test]
fn one_bin_threads_equal_an_independent_per_bin_reference() {
    // The lane-vs-`ScalarLanes` comparison above sends both sides
    // through the same `execute`, so it cannot see a slip in how the
    // warp-wise launch resolves a level's window. Levels here put
    // their threshold inside bin 0, inside a middle bin, below every
    // bin, above every bin, and one window ends before the first bin.
    let kt = 862.0;
    let levels: Vec<_> = [120.0, 700.0, 50.0, 5000.0, 10.0]
        .into_iter()
        .map(|threshold| rrc_spectral::RrcIntegrand::new(kt, threshold, 2, 1.0, 1e-4).prepare())
        .collect();
    let mut windows: Vec<(f64, f64)> = levels
        .iter()
        .map(|p| (p.threshold_ev, p.threshold_ev + 40.0 * kt))
        .collect();
    windows[4].1 = 60.0;
    let n_bins = 21;
    let linear: Vec<(f64, f64)> = {
        let edge = |i: usize| 100.0 + 1200.0 * (i as f64 / n_bins as f64);
        (0..n_bins).map(|i| (edge(i), edge(i + 1))).collect()
    };
    let log: Vec<(f64, f64)> = {
        let edge = |i: usize| 100.0 * 13f64.powf(i as f64 / n_bins as f64);
        (0..n_bins).map(|i| (edge(i), edge(i + 1))).collect()
    };
    use quadrature::{BinRule, MathMode};
    for bins in [&linear, &log] {
        for (rule, bin_rule, math) in [
            (
                DeviceRule::Simpson { panels: 64 },
                BinRule::Simpson { panels: 64 },
                MathMode::Exact,
            ),
            (
                DeviceRule::Simpson { panels: 3 },
                BinRule::Simpson { panels: 3 },
                MathMode::Exact,
            ),
            (
                DeviceRule::Simpson { panels: 64 },
                BinRule::Simpson { panels: 64 },
                MathMode::Vector,
            ),
            (
                DeviceRule::Romberg { k: 4 },
                BinRule::Romberg { k: 4 },
                MathMode::Exact,
            ),
        ] {
            for windows in [Some(windows.as_slice()), None] {
                let kernel = FusedBinKernel {
                    integrands: &levels,
                    bins,
                    precision: Precision::Double,
                    windows,
                    rule,
                    math,
                };
                let (want, want_evals) = one_bin_reference(&levels, bins, windows, bin_rule, math);
                // threads == bins, and threads > bins.
                for cfg in [
                    LaunchConfig::new(1, n_bins as u32),
                    LaunchConfig::cover(n_bins),
                ] {
                    let mut emi = vec![f64::NAN; n_bins];
                    let evals = kernel.execute(cfg, &mut emi);
                    assert_eq!(evals, want_evals, "{rule:?} {math:?} {cfg:?}");
                    for (b, (got, want)) in emi.iter().zip(&want).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{rule:?} {math:?} {cfg:?}: bin {b}"
                        );
                    }
                }
                // One thread short: thread 0 owns bins 0 and 1, so this
                // launch must walk thread by thread — seen in the one
                // sample saved per level that has both bins in a run
                // (windowed: only the level whose threshold is below
                // every bin; the clamped bin 0 of another runs alone).
                let shared = if windows.is_some() { 1 } else { levels.len() };
                let mut emi = vec![f64::NAN; n_bins];
                let evals = kernel.execute(LaunchConfig::new(1, n_bins as u32 - 1), &mut emi);
                assert_eq!(evals, want_evals - shared as u64, "{rule:?} {math:?}");
                assert_eq!(emi[2..], want[2..], "{rule:?} {math:?}");
            }
        }
    }
}
