//! Regenerate `BENCH_simd.json`: acceptance gates for the vectorized
//! math layer.
//!
//! Four gates:
//!
//! 1. **`vexp` microbench** — the lane-parallel exponential must be
//!    ≥ 2x faster than a scalar `f64::exp` loop over the same
//!    log-spaced argument batch (full RRC exponent range, including
//!    the `exp(-40)` window-cutoff region).
//! 2. **End-to-end ion sweep** — `MathMode::Vector` must be ≥ 1.4x
//!    faster than `MathMode::Exact` over the paper workload (full
//!    periodic table, paper waveband, Simpson-64 fused path) on one
//!    thread.
//! 3. **Accuracy** — Vector-mode spectra stay within 1e-12 relative of
//!    Exact, and `vexp` within 1e-14 of `f64::exp` per element.
//! 4. **Bitwise parity** — in Exact mode every engine ion partial
//!    matches the serial reference bitwise (0, 1 and 2 GPUs).
//!
//! `--smoke` shrinks the workloads for CI. The deterministic gates
//! (3, 4) stay asserted; the two wall-clock gates (1, 2) are
//! measured and reported but only *enforced* in full runs, so noisy
//! shared runners cannot flake the job.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use atomdb::{AtomDatabase, DatabaseConfig};
use hybrid_spectral::engine::{Engine, EngineConfig, IonJob, IonOutcome};
use jsonlite::ObjectBuilder;
use microbench::{black_box, Criterion};
use quadrature::{simd, MathMode, QagsWorkspace};
use rrc_spectral::{ion_emissivity_into_mode, EnergyGrid, GridPoint, Integrator, SerialCalculator};

/// Log-spaced exponential arguments `-|x|` covering the whole RRC
/// range: from the near-threshold region (~1e-4) out past the
/// `exp(-40)` window cutoff to the underflow edge.
fn exp_args(n: usize) -> Vec<f64> {
    let (lo, hi) = (1e-4f64, 700.0f64);
    let ratio = hi / lo;
    (0..n)
        .map(|i| -(lo * ratio.powf(i as f64 / (n - 1) as f64)))
        .collect()
}

fn point() -> GridPoint {
    GridPoint {
        temperature_k: 1.0e7,
        density_cm3: 1.0,
        time_s: 0.0,
        index: 0,
    }
}

/// One full-table single-threaded ion sweep in `math` mode; returns
/// the spectrum so the caller can cross-check modes.
fn ion_sweep(
    db: &AtomDatabase,
    grid: &EnergyGrid,
    ws: &mut QagsWorkspace,
    out: &mut [f64],
    math: MathMode,
) -> u64 {
    out.iter_mut().for_each(|v| *v = 0.0);
    let p = point();
    let mut evals = 0;
    for ion in 0..db.ions().len() {
        evals +=
            ion_emissivity_into_mode(db, ion, &p, grid, Integrator::paper_gpu(), ws, out, math);
    }
    evals
}

/// Exact-mode engine partials for every ion, as `(ion, partial)` rows
/// sorted by ion, for the bitwise-parity gate.
fn engine_partials(db: &Arc<AtomDatabase>, grid: &EnergyGrid, gpus: usize) -> Vec<Vec<f64>> {
    let engine = Engine::start(EngineConfig {
        gpus,
        max_queue_len: 64,
        queue_depth: 64,
        ..EngineConfig::deterministic(Arc::clone(db), 1)
    });
    let bins = Arc::new(grid.bin_pairs());
    let (tx, rx) = channel();
    for ion_index in 0..db.ions().len() {
        let levels = db.levels_by_index(ion_index).len();
        engine
            .submit(IonJob {
                ion_index,
                level_range: 0..levels,
                point: point(),
                grid: grid.clone(),
                bins: Arc::clone(&bins),
                tag: ion_index as u64,
                deadline: f64::INFINITY,
                reply: tx.clone(),
            })
            .ok()
            .expect("engine accepts the parity workload");
    }
    drop(tx);
    let mut outcomes: Vec<IonOutcome> = rx.iter().collect();
    outcomes.sort_by_key(|o| o.ion_index);
    let report = engine.shutdown();
    assert_eq!(report.leaked_grants, 0);
    outcomes.into_iter().map(|o| o.partial).collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // ---------------------------------------------------- gate 3a: vexp accuracy
    let args = exp_args(if smoke { 20_000 } else { 200_000 });
    let mut got = args.clone();
    simd::vexp(&mut got);
    let mut vexp_max_rel = 0.0f64;
    for (&x, &v) in args.iter().zip(&got) {
        let want = x.exp();
        let rel = if want == 0.0 {
            if v == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            ((v - want) / want).abs()
        };
        vexp_max_rel = vexp_max_rel.max(rel);
    }
    let vexp_accuracy_pass = vexp_max_rel <= 1e-14;
    assert!(
        vexp_accuracy_pass,
        "vexp accuracy: max rel {vexp_max_rel:e} > 1e-14"
    );

    // ---------------------------------------------------- gate 1: vexp microbench
    let n = 4096;
    let xs = exp_args(n);
    let mut buf = vec![0.0f64; n];
    let mut c = Criterion::default()
        .warm_up_time(Duration::from_millis(if smoke { 100 } else { 400 }))
        .measurement_time(Duration::from_millis(if smoke { 300 } else { 1500 }))
        .sample_size(if smoke { 10 } else { 30 });
    eprintln!("timing exp lanes ({n} elements) ...");
    c.bench_function("exp/scalar", |b| {
        b.iter(|| {
            for (o, &x) in buf.iter_mut().zip(&xs) {
                *o = x.exp();
            }
            black_box(buf[n - 1])
        })
    });
    c.bench_function("exp/vexp", |b| {
        b.iter(|| {
            buf.copy_from_slice(&xs);
            simd::vexp(&mut buf);
            black_box(buf[n - 1])
        })
    });

    // ---------------------------------------------------- gate 2 + 3b: ion sweep
    let sweep_db = AtomDatabase::generate(DatabaseConfig {
        max_z: if smoke { 8 } else { 26 },
        ..DatabaseConfig::default()
    });
    let sweep_grid = EnergyGrid::paper_waveband(if smoke { 64 } else { 256 });
    let mut ws = QagsWorkspace::new();
    let mut exact = vec![0.0; sweep_grid.bins()];
    let mut vector = vec![0.0; sweep_grid.bins()];
    let n_exact = ion_sweep(&sweep_db, &sweep_grid, &mut ws, &mut exact, MathMode::Exact);
    let n_vector = ion_sweep(
        &sweep_db,
        &sweep_grid,
        &mut ws,
        &mut vector,
        MathMode::Vector,
    );
    assert_eq!(n_exact, n_vector, "modes must do identical work");
    assert!(exact.iter().sum::<f64>() > 0.0, "sweep must radiate");
    let mut sweep_max_rel = 0.0f64;
    for (&a, &b) in exact.iter().zip(&vector) {
        let scale = a.abs().max(1e-300);
        sweep_max_rel = sweep_max_rel.max(((b - a) / scale).abs());
    }
    let sweep_accuracy_pass = sweep_max_rel <= 1e-12;
    assert!(
        sweep_accuracy_pass,
        "Vector vs Exact spectra: max rel {sweep_max_rel:e} > 1e-12"
    );

    eprintln!("timing end-to-end ion sweeps ...");
    c.bench_function("sweep/exact", |b| {
        b.iter(|| ion_sweep(&sweep_db, &sweep_grid, &mut ws, &mut exact, MathMode::Exact))
    });
    c.bench_function("sweep/vector", |b| {
        b.iter(|| {
            ion_sweep(
                &sweep_db,
                &sweep_grid,
                &mut ws,
                &mut vector,
                MathMode::Vector,
            )
        })
    });

    let ms = c.take_measurements();
    let by_id = |id: &str| -> f64 {
        ms.iter()
            .find(|m| m.id == id)
            .unwrap_or_else(|| panic!("missing measurement {id}"))
            .median_ns()
    };
    let exp_scalar_ns = by_id("exp/scalar");
    let exp_vexp_ns = by_id("exp/vexp");
    let vexp_speedup = exp_scalar_ns / exp_vexp_ns;
    let sweep_exact_ns = by_id("sweep/exact");
    let sweep_vector_ns = by_id("sweep/vector");
    let sweep_speedup = sweep_exact_ns / sweep_vector_ns;
    let vexp_speedup_pass = vexp_speedup >= 2.0;
    let sweep_speedup_pass = sweep_speedup >= 1.4;

    // ---------------------------------------------------- gate 4: bitwise parity
    eprintln!("checking Exact-mode bitwise parity ...");
    let parity_db = Arc::new(AtomDatabase::generate(DatabaseConfig {
        max_z: 6,
        ..DatabaseConfig::default()
    }));
    let parity_grid = EnergyGrid::linear(50.0, 2000.0, 64);
    let serial = SerialCalculator::new(
        (*parity_db).clone(),
        parity_grid.clone(),
        Integrator::Simpson { panels: 64 },
    );
    let reference: Vec<Vec<f64>> = (0..parity_db.ions().len())
        .map(|i| serial.ion_spectrum(i, &point()).bins().to_vec())
        .collect();
    let gpu_counts: &[usize] = if smoke { &[1] } else { &[0, 1, 2] };
    for &gpus in gpu_counts {
        let partials = engine_partials(&parity_db, &parity_grid, gpus);
        assert_eq!(partials.len(), reference.len());
        for (ion, (got, want)) in partials.iter().zip(&reference).enumerate() {
            for (bin, (&a, &r)) in got.iter().zip(want).enumerate() {
                assert_eq!(a.to_bits(), r.to_bits(), "gpus={gpus} ion {ion} bin {bin}");
            }
        }
    }
    let parity_pass = true; // asserted bitwise above

    // ---------------------------------------------------------------- report
    let pass = vexp_accuracy_pass
        && sweep_accuracy_pass
        && parity_pass
        && (smoke || (vexp_speedup_pass && sweep_speedup_pass));
    let bundle = ObjectBuilder::new()
        .field("smoke", smoke)
        .field("avx2", simd::using_avx2())
        .field(
            "vexp",
            ObjectBuilder::new()
                .field("elements", n as u64)
                .field("scalar_ns", exp_scalar_ns)
                .field("vexp_ns", exp_vexp_ns)
                .field("speedup", vexp_speedup)
                .field("max_rel_error", vexp_max_rel)
                .field("gate", 2.0)
                .field("enforced", !smoke)
                .field("pass", vexp_speedup_pass || smoke)
                .build(),
        )
        .field(
            "ion_sweep",
            ObjectBuilder::new()
                .field("max_z", if smoke { 8u64 } else { 26 })
                .field("bins", sweep_grid.bins() as u64)
                .field("integrand_evals", n_exact)
                .field("exact_ns", sweep_exact_ns)
                .field("vector_ns", sweep_vector_ns)
                .field("speedup", sweep_speedup)
                .field("gate", 1.4)
                .field("enforced", !smoke)
                .field("pass", sweep_speedup_pass || smoke)
                .build(),
        )
        .field(
            "accuracy",
            ObjectBuilder::new()
                .field("vexp_max_rel_error", vexp_max_rel)
                .field("sweep_max_rel_deviation", sweep_max_rel)
                .field("pass", vexp_accuracy_pass && sweep_accuracy_pass)
                .build(),
        )
        .field(
            "exact_parity",
            ObjectBuilder::new()
                .field("bitwise", true)
                .field("gpu_counts", gpu_counts.len() as u64)
                .field("pass", parity_pass)
                .build(),
        )
        .field("pass", pass)
        .build();

    let path = "BENCH_simd.json";
    std::fs::write(path, bundle.to_pretty()).expect("write results");
    println!("wrote {path}");
    println!(
        "vexp speedup: {vexp_speedup:.2}x (avx2={})",
        simd::using_avx2()
    );
    println!("ion-sweep speedup (Vector vs Exact): {sweep_speedup:.2}x");
    if !smoke {
        assert!(
            vexp_speedup_pass,
            "vexp acceptance: expected >= 2x, got {vexp_speedup:.2}x"
        );
        assert!(
            sweep_speedup_pass,
            "ion-sweep acceptance: expected >= 1.4x, got {sweep_speedup:.2}x"
        );
    }
}
