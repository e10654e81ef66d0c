//! Regenerate `BENCH_hotpath.json`: the fused hot-path A/B.
//!
//! Times the same Ion-task workload (10 levels x 512 bins, Simpson-64)
//! through the seed pipeline — `BinIntegrationKernel` over closures that
//! recompute the Maxwellian prefactor per sample — and through the fused
//! pipeline — `FusedBinKernel` over [`PreparedIntegrand`]s — plus the
//! host-side per-bin vs `integrate_bins_sampled` pair, and writes both
//! throughput numbers (legacy-equivalent integrand evaluations per
//! second over the identical workload) to `BENCH_hotpath.json`.
//!
//! Those kernel lanes launch 512 threads × 1 bin: no edge-linked run
//! forms, and the fused kernel integrates the bins as isolated lanes.
//! The `covering` section holds that geometry — `LaunchConfig::new(8,
//! 64)` and `LaunchConfig::cover(512)` — to the same integrands wrapped
//! in [`ScalarLanes`] (scalar loop only), bit for bit in outputs and
//! evaluation counts, and times the pair. The `serving` section does
//! the same for the geometry the service tiers actually launch —
//! `LaunchConfig::new(1, 1)`, `MathMode::Exact`, all bins in one chunk.
//!
//! Gates: `covering.bitwise` and `serving.bitwise` (always enforced),
//! `kernel.speedup >= 11` and `serving.speedup >= 1.5` (wall-clock:
//! measured and reported under `--smoke`, enforced only in full runs).

use std::time::Duration;

use gpu_sim::{BinIntegrationKernel, DeviceRule, FusedBinKernel, LaunchConfig, Precision};
use jsonlite::ObjectBuilder;
use microbench::Criterion;
use quadrature::{integrate_bins_sampled, simpson, BinRule, MathMode, ScalarLanes};
use rrc_spectral::RrcIntegrand;

fn ion_levels() -> Vec<RrcIntegrand> {
    (1..=10u16)
        .map(|n| RrcIntegrand::new(862.0, 13.6 * 64.0 / f64::from(n * n), n, 1.0, 1e-4))
        .collect()
}

fn ion_bins() -> Vec<(f64, f64)> {
    (0..512)
        .map(|i| (100.0 + 3.0 * f64::from(i), 103.0 + 3.0 * f64::from(i)))
        .collect()
}

struct Lane {
    median_ns: f64,
    evals: u64,
}

fn lane_json(lane: &Lane, seed_evals: u64) -> jsonlite::Value {
    // Throughput counts legacy-equivalent work: the seed path's
    // evaluation count over the same workload, divided by this lane's
    // time — so the ratio of throughputs is exactly the speedup.
    let evals_per_s = seed_evals as f64 / (lane.median_ns * 1e-9);
    ObjectBuilder::new()
        .field("median_ns_per_task", lane.median_ns)
        .field("integrand_evals_per_task", lane.evals)
        .field("legacy_equivalent_evals_per_sec", evals_per_s)
        .build()
}

/// Fused (isolated lanes) vs seed per-bin kernel: 16.2–17.3× measured
/// on a 2-core host, less a 30 % margin.
const KERNEL_GATE: f64 = 11.0;
const SERVING_GATE: f64 = 1.5;

/// A wall-clock speed-up gate: always reported, enforced in full runs.
fn speedup_gate(gate: f64, pass: bool, smoke: bool) -> jsonlite::Value {
    ObjectBuilder::new()
        .field("gate", gate)
        .field("enforced", !smoke)
        .field("pass", pass)
        .build()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let levels = ion_levels();
    let bins = ion_bins();
    let windows: Vec<(f64, f64)> = levels
        .iter()
        .map(|f| (f.binding_ev, f.binding_ev + 40.0 * f.kt_ev))
        .collect();
    let seed_closures: Vec<_> = levels
        .iter()
        .map(|f| {
            let f = *f;
            move |e: f64| f.evaluate_unprepared(e)
        })
        .collect();
    let prepared: Vec<_> = levels.iter().map(RrcIntegrand::prepare).collect();
    let cfg = LaunchConfig::new(8, 64);

    let mut c = Criterion::default()
        .warm_up_time(Duration::from_millis(if smoke { 100 } else { 400 }))
        .measurement_time(Duration::from_millis(if smoke { 300 } else { 1500 }))
        .sample_size(if smoke { 10 } else { 30 });

    // -- SIMT kernel lanes ------------------------------------------------
    let seed_kernel = BinIntegrationKernel {
        integrands: &seed_closures,
        bins: &bins,
        precision: Precision::Double,
        windows: Some(&windows),
        rule: DeviceRule::Simpson { panels: 64 },
    };
    let mut emi = vec![0.0; bins.len()];
    let seed_evals = seed_kernel.execute(cfg, &mut emi);
    let seed_out = emi.clone();

    let fused_kernel = FusedBinKernel {
        integrands: &prepared,
        bins: &bins,
        precision: Precision::Double,
        windows: Some(&windows),
        rule: DeviceRule::Simpson { panels: 64 },
        math: MathMode::Exact,
    };
    let fused_evals = fused_kernel.execute(cfg, &mut emi);

    // Cross-check before timing anything: the fused pipeline must agree
    // with the seed numerics within the documented 1e-12 budget.
    let mut max_rel = 0.0f64;
    for (a, b) in seed_out.iter().zip(&emi) {
        if *a != 0.0 {
            max_rel = max_rel.max(((a - b) / a).abs());
        }
    }
    assert!(max_rel <= 1e-12, "fused/seed disagree: {max_rel:e}");

    eprintln!("timing kernel lanes ...");
    c.bench_function("kernel/seed_per_bin", |b| {
        b.iter(|| {
            let mut emi = vec![0.0; bins.len()];
            seed_kernel.execute(cfg, &mut emi)
        })
    });
    c.bench_function("kernel/fused", |b| {
        let mut emi = vec![0.0; bins.len()];
        b.iter(|| fused_kernel.execute(cfg, &mut emi))
    });

    let scalar_only: Vec<_> = prepared.iter().copied().map(ScalarLanes).collect();
    let scalar_kernel = FusedBinKernel {
        integrands: &scalar_only,
        bins: &bins,
        precision: Precision::Double,
        windows: Some(&windows),
        rule: DeviceRule::Simpson { panels: 64 },
        math: MathMode::Exact,
    };
    let mut lane_out = vec![0.0; bins.len()];
    let mut scalar_out = vec![0.0; bins.len()];
    // Lanes against the scalar loop under `cfg`: evaluation counts, and
    // whether outputs and counts agree bit for bit.
    let mut lanes_vs_scalar = |cfg: LaunchConfig| {
        let lane_evals = fused_kernel.execute(cfg, &mut lane_out);
        let scalar_evals = scalar_kernel.execute(cfg, &mut scalar_out);
        let bitwise = lane_evals == scalar_evals
            && lane_out
                .iter()
                .zip(&scalar_out)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        (lane_evals, scalar_evals, bitwise)
    };

    // -- covering geometry: one bin per simulated thread ------------------
    let (_, covering_scalar_evals, bitwise_8x64) = lanes_vs_scalar(cfg);
    let (_, _, bitwise_cover) = lanes_vs_scalar(LaunchConfig::cover(bins.len()));
    let covering_bitwise = bitwise_8x64 && bitwise_cover;

    // -- serving geometry: one thread owns every bin ----------------------
    let serving_cfg = LaunchConfig::new(1, 1);
    let (lane_evals, scalar_evals, bitwise) = lanes_vs_scalar(serving_cfg);

    eprintln!("timing covering-geometry scalar loop ...");
    c.bench_function("covering/scalar", |b| {
        b.iter(|| scalar_kernel.execute(cfg, &mut scalar_out))
    });
    eprintln!("timing serving-geometry lanes ...");
    c.bench_function("serving/scalar", |b| {
        b.iter(|| scalar_kernel.execute(serving_cfg, &mut scalar_out))
    });
    c.bench_function("serving/lanes", |b| {
        b.iter(|| fused_kernel.execute(serving_cfg, &mut lane_out))
    });

    // -- host quadrature lanes (single level, 512 bins) -------------------
    let f = levels[0];
    let mut p = f.prepare();
    eprintln!("timing host quadrature lanes ...");
    c.bench_function("quadrature/seed_per_bin", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(lo, hi) in &bins {
                acc += simpson(|e| f.evaluate_unprepared(e), lo, hi, 64).value;
            }
            acc
        })
    });
    let mut out = vec![0.0; bins.len()];
    c.bench_function("quadrature/fused_bins", |b| {
        b.iter(|| {
            out.iter_mut().for_each(|v| *v = 0.0);
            integrate_bins_sampled(BinRule::Simpson { panels: 64 }, &mut p, &bins, &mut out)
        })
    });

    let ms = c.take_measurements();
    let by_id = |id: &str| -> f64 {
        ms.iter()
            .find(|m| m.id == id)
            .unwrap_or_else(|| panic!("missing measurement {id}"))
            .median_ns()
    };
    let kernel_seed = Lane {
        median_ns: by_id("kernel/seed_per_bin"),
        evals: seed_evals,
    };
    let kernel_fused = Lane {
        median_ns: by_id("kernel/fused"),
        evals: fused_evals,
    };
    let quad_seed_evals = 512 * (2 * 64 + 1) as u64;
    let quad_seed = Lane {
        median_ns: by_id("quadrature/seed_per_bin"),
        evals: quad_seed_evals,
    };
    let quad_fused = Lane {
        median_ns: by_id("quadrature/fused_bins"),
        evals: 2 * 64 + 1 + 511 * (2 * 64) as u64,
    };

    let serving_scalar = Lane {
        median_ns: by_id("serving/scalar"),
        evals: scalar_evals,
    };
    let serving_lanes = Lane {
        median_ns: by_id("serving/lanes"),
        evals: lane_evals,
    };

    // The covering lanes are the `kernel/fused` measurement itself.
    let covering_scalar = Lane {
        median_ns: by_id("covering/scalar"),
        evals: covering_scalar_evals,
    };

    let kernel_speedup = kernel_seed.median_ns / kernel_fused.median_ns;
    let quad_speedup = quad_seed.median_ns / quad_fused.median_ns;
    let covering_speedup = covering_scalar.median_ns / kernel_fused.median_ns;
    let serving_speedup = serving_scalar.median_ns / serving_lanes.median_ns;
    let kernel_pass = smoke || kernel_speedup >= KERNEL_GATE;
    let serving_pass = smoke || serving_speedup >= SERVING_GATE;
    let pass = covering_bitwise && bitwise && kernel_pass && serving_pass;

    let bundle = ObjectBuilder::new()
        .field("smoke", smoke)
        .field(
            "workload",
            ObjectBuilder::new()
                .field("levels", levels.len() as u64)
                .field("bins", bins.len() as u64)
                .field("rule", "simpson_64")
                .field("threads", 512u64)
                .build(),
        )
        .field(
            "kernel",
            ObjectBuilder::new()
                .field("seed_per_bin", lane_json(&kernel_seed, seed_evals))
                .field("fused", lane_json(&kernel_fused, seed_evals))
                .field("speedup", kernel_speedup)
                .field("gate", speedup_gate(KERNEL_GATE, kernel_pass, smoke))
                .build(),
        )
        .field(
            "covering",
            ObjectBuilder::new()
                .field("geometries", "8x64, cover(512)")
                .field("math", "exact")
                .field("scalar", lane_json(&covering_scalar, seed_evals))
                .field("lanes", lane_json(&kernel_fused, seed_evals))
                .field("speedup", covering_speedup)
                .field("bitwise", covering_bitwise)
                .build(),
        )
        .field(
            "serving",
            ObjectBuilder::new()
                .field("threads", 1u64)
                .field("math", "exact")
                .field("scalar", lane_json(&serving_scalar, seed_evals))
                .field("lanes", lane_json(&serving_lanes, seed_evals))
                .field("speedup", serving_speedup)
                .field("gate", speedup_gate(SERVING_GATE, serving_pass, smoke))
                .field("bitwise", bitwise)
                .build(),
        )
        .field(
            "quadrature",
            ObjectBuilder::new()
                .field("seed_per_bin", lane_json(&quad_seed, quad_seed_evals))
                .field("fused_bins", lane_json(&quad_fused, quad_seed_evals))
                .field("speedup", quad_speedup)
                .build(),
        )
        .field("max_relative_deviation", max_rel)
        .field("pass", pass)
        .build();

    let path = "BENCH_hotpath.json";
    std::fs::write(path, bundle.to_pretty()).expect("write results");
    println!("wrote {path}");
    println!("kernel speedup (fused vs seed per-bin): {kernel_speedup:.2}x");
    println!("quadrature speedup (fused vs seed per-bin): {quad_speedup:.2}x");
    println!("covering speedup (isolated lanes vs scalar, 512 threads): {covering_speedup:.2}x");
    println!("serving speedup (lanes vs scalar, 1 thread): {serving_speedup:.2}x");
    assert!(
        covering_bitwise,
        "covering geometry: lanes and scalar differ"
    );
    assert!(bitwise, "serving geometry: lanes and scalar differ");
    assert!(
        pass,
        "hot-path acceptance: expected kernel >= {KERNEL_GATE}x and serving >= \
         {SERVING_GATE}x, got kernel {kernel_speedup:.2}x, serving {serving_speedup:.2}x"
    );
}
