//! The traced replay. One client sends a workload's requests in order;
//! each request is replayed down the ladder of public entry points
//! ([`crate::spans::Rung`]), outermost first, each on a stack of its
//! own that has seen exactly the same requests. A request the service
//! answers entirely from cache does no engine, kernel or quadrature
//! work, so only its top rungs are replayed; per-layer attribution is
//! taken from the requests that ran the whole ladder.

use std::collections::BTreeMap;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

use atomdb::AtomDatabase;
use gpu_sim::{FusedBinKernel, LaunchConfig, Precision};
use hybrid_spectral::{Engine, EngineConfig, EngineReport, IonJob};
use quadrature::{integrate_bins_sampled_mode, BinRule, MathMode};
use rrc_router::ShardRouter;
use rrc_service::{assemble, selected_ions, SpectralService, SpectrumRequest, Ticket};
use rrc_spectral::{
    ion_integrands, level_window, window_bin_range, EnergyGrid, GridPoint, PreparedIntegrand,
    RrcIntegrand,
};

use crate::check::{bitwise_equal, within_relative, Reference};
use crate::spans::{self_times, Recorder, Rung};
use crate::stats::{mean, percentile, sorted};
use crate::workloads::{
    batch_config, ms, router_config, service_config, Inputs, Workload, BATCH_TOLERANCE,
};

/// The device rule every config in the benchmark pins.
pub const DEVICE_RULE: gpu_sim::DeviceRule = gpu_sim::DeviceRule::Simpson { panels: 64 };
pub const BIN_RULE: BinRule = BinRule::Simpson { panels: 64 };

/// The engine on the rung below the service: the service's own
/// deterministic engine, or on `batch_grid` the batch runtime's
/// (covering launches, two ranks).
pub fn engine_config(inputs: &Inputs) -> EngineConfig {
    match inputs.workload {
        Workload::BatchGrid => EngineConfig::from_hybrid(&batch_config(inputs)),
        _ => service_config(inputs).engine,
    }
}

/// Run one ion's fused kernel the way an engine device task does —
/// integrands, windows, launch geometry — but on the calling thread.
pub fn kernel_direct(
    db: &AtomDatabase,
    ion: usize,
    point: &GridPoint,
    bins: &[(f64, f64)],
    single_chunk: bool,
) -> (Vec<f64>, u64) {
    let mut emi = vec![0.0f64; bins.len()];
    let levels = db.levels_by_index(ion).len();
    let Some(integrands) = ion_integrands(db, ion, 0..levels, point) else {
        return (emi, 0);
    };
    let kt = point.kt_ev();
    let windows: Vec<(f64, f64)> = integrands
        .iter()
        .map(|f| level_window(f.binding_ev, kt))
        .collect();
    let prepared: Vec<PreparedIntegrand> = integrands.iter().map(RrcIntegrand::prepare).collect();
    let cfg = if single_chunk {
        LaunchConfig::new(1, 1)
    } else {
        LaunchConfig::cover(bins.len())
    };
    let kernel = FusedBinKernel {
        integrands: &prepared,
        bins,
        precision: Precision::Double,
        windows: Some(&windows),
        rule: DEVICE_RULE,
        math: MathMode::Exact,
    };
    let evals = kernel.execute(cfg, &mut emi);
    (emi, evals)
}

/// One level's share of the quadrature rung: the prepared integrand
/// and the bins its support window touches.
pub struct LevelWork {
    pub integrand: PreparedIntegrand,
    skip: usize,
    end: usize,
    clamped_lo: f64,
}

/// Everything the quadrature rung needs for `ions`, built outside the
/// span so the span holds only `integrate_bins_sampled_mode` calls.
pub fn level_work(
    db: &AtomDatabase,
    ions: &[usize],
    point: &GridPoint,
    bins: &[(f64, f64)],
) -> Vec<LevelWork> {
    let kt = point.kt_ev();
    let mut out = Vec::new();
    for &ion in ions {
        let levels = db.levels_by_index(ion).len();
        for f in ion_integrands(db, ion, 0..levels, point).unwrap_or_default() {
            let (threshold, cutoff) = level_window(f.binding_ev, kt);
            let (skip, end, clamped_lo) = window_bin_range(bins, threshold, cutoff);
            if skip < end {
                out.push(LevelWork {
                    integrand: f.prepare(),
                    skip,
                    end,
                    clamped_lo,
                });
            }
        }
    }
    out
}

/// Integrate one level over its window into `out` (threshold bin on
/// its own, the rest as one fused run) — the calls the fused kernel
/// makes per level.
pub fn integrate_level(
    work: &LevelWork,
    bins: &[(f64, f64)],
    out: &mut [f64],
    math: MathMode,
) -> u64 {
    let mut f = work.integrand;
    let mut start = work.skip;
    let mut evals = 0;
    if work.clamped_lo > bins[start].0 {
        evals += integrate_bins_sampled_mode(
            BIN_RULE,
            &mut f,
            &[(work.clamped_lo, bins[start].1)],
            std::slice::from_mut(&mut out[start]),
            math,
        );
        start += 1;
    }
    if start < work.end {
        evals += integrate_bins_sampled_mode(
            BIN_RULE,
            &mut f,
            &bins[start..work.end],
            &mut out[start..work.end],
            math,
        );
    }
    evals
}

/// Fan `ions` out over `engine` as one request does, collect every
/// outcome, fold. Returns the partials, the evaluations the engine
/// reported, and the folded bins.
pub fn engine_fanout(
    engine: &Engine,
    ions: &[usize],
    point: &GridPoint,
    grid: &EnergyGrid,
    bins: &Arc<Vec<(f64, f64)>>,
) -> (BTreeMap<usize, Arc<Vec<f64>>>, u64, Vec<f64>) {
    let db = &engine.config().db;
    let (tx, rx) = channel();
    for &ion in ions {
        let job = IonJob {
            ion_index: ion,
            level_range: 0..db.levels_by_index(ion).len(),
            point: *point,
            grid: grid.clone(),
            bins: Arc::clone(bins),
            tag: ion as u64,
            deadline: f64::INFINITY,
            reply: tx.clone(),
        };
        assert!(engine.submit(job).is_ok(), "ladder engine stays live");
    }
    drop(tx);
    let mut evals = 0u64;
    let mut partials = BTreeMap::new();
    for outcome in rx {
        evals += outcome.evals;
        partials.insert(outcome.ion_index, Arc::new(outcome.partial));
    }
    let folded = assemble(bins.len(), ions, &partials);
    (partials, evals, folded)
}

/// What the traced replay found.
pub struct Replay {
    pub recorder: Recorder,
    /// Requests replayed, and how many of them ran the whole ladder.
    pub requests: u64,
    pub cold: u64,
    /// Rungs whose answers disagreed with the serial reference.
    pub mismatches: u64,
    /// Seconds one client needs for the same requests' top rung on a
    /// fresh tier without spans, and with a span around every call.
    pub untraced_s: f64,
    pub traced_s: f64,
    /// Per-layer values derived from the spans.
    pub metrics: Vec<(&'static str, f64)>,
    /// The ladder engine's report and last scheduler view.
    pub engine: EngineReport,
    pub cost_residual_milli: u64,
    pub cost_observations: u64,
}

fn p50(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Replay up to `max_requests` of client 0's stream, stopping early
/// once `budget_s` is spent.
pub fn replay(inputs: &Inputs, max_requests: usize, budget_s: f64) -> Replay {
    let db = &inputs.db;
    let grid = &inputs.grid;
    let bins = Arc::new(grid.bin_pairs());
    let engine_cfg = engine_config(inputs);
    let single_chunk = engine_cfg.deterministic_kernel;
    let agrees = |got: &[f64], want: &[f64]| {
        if single_chunk {
            bitwise_equal(got, want)
        } else {
            within_relative(got, want, BATCH_TOLERANCE)
        }
    };

    let router = ShardRouter::start(router_config(inputs));
    let service = SpectralService::start(service_config(inputs));
    let engine = Engine::start(engine_cfg);
    let reference = Reference::new(db, grid);

    let mut rec = Recorder::new();
    let mut stream = inputs.stream(0, 0);
    let mut sent: Vec<SpectrumRequest> = Vec::new();
    let mut evals_per_cold: Vec<f64> = Vec::new();
    let mut last_partials: BTreeMap<usize, Arc<Vec<f64>>> = BTreeMap::new();
    let mut mismatches = 0u64;
    let started = Instant::now();
    // A quarter of the budget is kept for the overhead passes below.
    while sent.len() < max_requests && started.elapsed().as_secs_f64() < 0.75 * budget_s {
        let id = sent.len() as u64;
        let request = stream.next_request();
        let ions = selected_ions(db, &request);
        let point = request.point;

        let routed = rec
            .span(id, Rung::RouterQuery, || router.query(&request))
            .expect("ladder router answers");
        let served = rec
            .span(id, Rung::ServiceSubmitWait, || {
                service.submit(request.clone()).and_then(Ticket::wait)
            })
            .expect("ladder service answers");
        if !bitwise_equal(&routed.bins, &served.bins) {
            mismatches += 1;
        }

        if served.ions_from_cache == 0 {
            let want = rec.span(id, Rung::SpectralSerial, || reference.fold(&request));
            if !bitwise_equal(&served.bins, &want) {
                mismatches += 1;
            }
            let (partials, evals, folded) = rec.span(id, Rung::EngineFanout, || {
                engine_fanout(&engine, &ions, &point, grid, &bins)
            });
            if !agrees(&folded, &want) {
                mismatches += 1;
            }
            evals_per_cold.push(evals as f64);
            last_partials = partials;
            rec.span(id, Rung::ComputeInline, || {
                for &ion in &ions {
                    let levels = db.levels_by_index(ion).len();
                    std::hint::black_box(engine.compute_inline(ion, 0..levels, &point, grid));
                }
            });
            rec.span(id, Rung::GpusimKernel, || {
                for &ion in &ions {
                    std::hint::black_box(kernel_direct(db, ion, &point, &bins, single_chunk));
                }
            });
            let work = level_work(db, &ions, &point, &bins);
            let mut out = vec![0.0f64; bins.len()];
            rec.span(id, Rung::QuadratureBins, || {
                for level in &work {
                    integrate_level(level, &bins, &mut out, MathMode::Exact);
                }
            });
            std::hint::black_box(&out);
        }
        rec.span(id, Rung::ServiceAssemble, || {
            std::hint::black_box(assemble(bins.len(), &ions, &last_partials))
        });
        sent.push(request);
    }

    let snapshot = engine.scheduler_snapshot();
    let engine_report = engine.shutdown();
    drop(service.shutdown());
    drop(router.shutdown());

    // Tracing overhead: the same requests' top rung on two more fresh
    // tiers, without spans and with one around every call. (The ladder
    // pass above cannot serve as the traced side: its lower rungs evict
    // the router's working set between queries.)
    let top_rung_pass = |mut scratch: Option<Recorder>| {
        let router = ShardRouter::start(router_config(inputs));
        let pass = Instant::now();
        for (id, request) in sent.iter().enumerate() {
            let answer = match &mut scratch {
                Some(rec) => rec.span(id as u64, Rung::RouterQuery, || router.query(request)),
                None => router.query(request),
            };
            std::hint::black_box(answer.expect("overhead-pass query"));
        }
        let elapsed = pass.elapsed().as_secs_f64();
        drop(router.shutdown());
        elapsed
    };
    let untraced_s = top_rung_pass(None);
    let traced_s = top_rung_pass(Some(Recorder::new()));

    // Attribution from the requests that ran the whole ladder.
    let by_request = rec.by_request();
    let cold: Vec<&BTreeMap<Rung, f64>> = by_request
        .values()
        .filter(|d| d.contains_key(&Rung::EngineFanout))
        .collect();
    let rung = |r: Rung| ms(p50(cold.iter().map(|d| d[&r]).collect()));
    let own = |r: Rung| ms(p50(cold.iter().map(|d| self_times(d)[&r]).collect()));
    let metrics = vec![
        ("router.query_ms_p50", rung(Rung::RouterQuery)),
        ("router.self_ms_p50", own(Rung::RouterQuery)),
        ("service.submit_wait_ms_p50", rung(Rung::ServiceSubmitWait)),
        ("service.self_ms_p50", own(Rung::ServiceSubmitWait)),
        ("core.engine_fanout_ms_p50", rung(Rung::EngineFanout)),
        ("core.engine_overhead_ms", own(Rung::EngineFanout)),
        ("core.compute_inline_ms", rung(Rung::ComputeInline)),
        ("spectral.serial_ms_per_op", rung(Rung::SpectralSerial)),
        ("gpusim.kernel_ms_per_op", rung(Rung::GpusimKernel)),
        ("gpusim.self_ms_p50", own(Rung::GpusimKernel)),
        ("quadrature.bins_ms_per_op", rung(Rung::QuadratureBins)),
        ("gpusim.evals_per_op", mean(&evals_per_cold)),
    ];
    Replay {
        requests: sent.len() as u64,
        cold: cold.len() as u64,
        mismatches,
        untraced_s,
        traced_s,
        metrics,
        engine: engine_report,
        cost_residual_milli: snapshot.cost_residual_milli,
        cost_observations: snapshot.cost_observations,
        recorder: rec,
    }
}
