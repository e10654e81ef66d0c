//! The traced run of one workload. Separate from the timed rounds, it
//! produces every per-layer metric:
//!
//! 1. one round of the workload as the timed run drives it — the
//!    *counters* (public snapshots/reports read before and after) and
//!    the harness diagnostics come from real load, not from a replay;
//! 2. the single-client ladder replay ([`crate::ladder`]) — spans, the
//!    per-layer attribution, the tracing overhead;
//! 3. the probes ([`crate::probes`]).
//!
//! The spans are kept in memory and written as a Chrome trace-event
//! file when the run ends.

use std::path::PathBuf;

use crate::ladder::{self, Replay};
use crate::metrics::{MetricSet, Source, PER_LAYER};
use crate::probes;
use crate::stats::supported;
use crate::timed::Outcome;
use crate::workloads::{run_round, setup, EngineTotals, Round, Scale, Workload};

/// Shares of `--seconds` given to the workload round and to the ladder
/// replay; the probes run on fixed iteration counts.
const ROUND_SHARE: f64 = 0.3;
const LADDER_SHARE: f64 = 0.4;

/// Most requests the ladder replays, per workload.
fn ladder_requests(workload: Workload) -> usize {
    match workload {
        Workload::ColdSweep => 200,
        Workload::HotZipf => 20_000,
        Workload::OpenSlo => 300,
        Workload::BatchGrid => 16,
    }
}

/// Where result and trace files go: `benchmark/out/`, beside the
/// package's sources whatever the working directory is.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn diagnostics(set: &mut MetricSet, round: &Round) {
    let n = round.completed();
    if !supported(n as usize, 0.99) {
        eprintln!("bench.latency_p99_ms: only {n} samples, fewer than ten beyond the rank");
    }
    set.set("bench.latency_p99_ms", 1e3 * round.latency.p99, n);
    set.set("bench.latency_max_ms", 1e3 * round.latency.max, n);
    set.set("bench.samples", n as f64, n);
    set.set(
        "bench.generator_late_ms_p90",
        1e3 * round.late.p90,
        round.late.n,
    );
    set.set(
        "bench.generator_late_ms_max",
        1e3 * round.late.max,
        round.late.n,
    );
    set.set(
        "bench.failed_fraction",
        round.failed() as f64 / round.attempted.max(1) as f64,
        round.attempted,
    );
}

fn write_trace(workload: Workload, replay: &Replay) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.json", workload.name()));
    let doc = replay.recorder.to_chrome_trace(workload.name());
    std::fs::write(&path, doc.to_compact())?;
    Ok(path)
}

pub fn run(workload: Workload, scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let mut set = MetricSet::new(PER_LAYER);

    let (inputs, stack, _setup_s) = setup(workload, scale, seed);
    let mut reference = inputs.reference();
    let round = run_round(&inputs, stack, 0, ROUND_SHARE * seconds, &mut reference);
    eprintln!(
        "[{}] traced run, workload round: {} ops in {:.2}s, {} checked, {} failed",
        workload.name(),
        round.completed(),
        round.elapsed_s,
        round.checked,
        round.failed()
    );
    let ops = round.completed();
    set.set_all(&round.counters, ops);
    diagnostics(&mut set, &round);

    let replay = ladder::replay(&inputs, ladder_requests(workload), LADDER_SHARE * seconds);
    eprintln!(
        "[{}] ladder: {} requests, {} down the whole ladder, {} spans, {} mismatches",
        workload.name(),
        replay.requests,
        replay.cold,
        replay.recorder.spans().len(),
        replay.mismatches
    );
    set.set_all(&replay.metrics, replay.cold);
    set.set(
        "bench.trace_overhead_ratio",
        replay.untraced_s / replay.traced_s.max(1e-12),
        replay.requests,
    );
    // `HybridRunner::run` keeps steals, panics, leaked grants and the
    // cost model to itself; on `batch_grid` the ladder's engine — the
    // same configuration, driven directly — is where they can be read.
    if workload == Workload::BatchGrid {
        let mut engine = EngineTotals::default();
        engine.add_engine(&replay.engine);
        for (name, value) in engine.counters(replay.cold) {
            if matches!(
                name,
                "core.cpu_steals" | "core.worker_panics" | "core.leaked_grants" | "sched.steals"
            ) {
                set.set(name, value, replay.cold);
            }
        }
        set.set(
            "sched.cost_residual_milli",
            replay.cost_residual_milli as f64,
            replay.cold,
        );
        set.set(
            "sched.cost_observations",
            replay.cost_observations as f64,
            replay.cold,
        );
    }

    for (name, value, iterations) in probes::run(&inputs) {
        set.set(name, value, iterations);
    }

    // A counter the workload's stack does not have (no router on
    // `open_slo`, no request queue behind the router) reads 0 from 0
    // samples.
    for name in set.missing() {
        let def = crate::metrics::def(name).expect("defined");
        if def.source == Source::Counter {
            set.set(name, 0.0, 0);
        }
    }

    match write_trace(workload, &replay) {
        Ok(path) => eprintln!("[{}] wrote {}", workload.name(), path.display()),
        Err(e) => eprintln!("[{}] trace file not written: {e}", workload.name()),
    }

    let leaked = round.leaked_grants + replay.engine.leaked_grants;
    let failed = round.failed() + replay.mismatches;
    Outcome {
        correct: failed == 0 && leaked == 0 && round.checked > 0,
        attempted: (round.attempted + replay.requests).max(1),
        failed,
        metrics: set,
    }
}
