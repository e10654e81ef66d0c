//! The timed run of one workload: fresh-stack rounds with tracing off,
//! answers checked, end-to-end metrics reported as medians of rounds.

use std::time::Instant;

use crate::metrics::{MetricSet, END_TO_END};
use crate::workloads::{run_round, setup, Round, Scale, Workload};

/// Set-up is repeated (and torn down again, without load) until
/// `setup_s` is the median of this many samples ...
const SETUP_SAMPLES: usize = 101;
/// ... or this many seconds have gone into the repeats. Starting a tier
/// is a dozen thread spawns in under a millisecond, and a single such
/// timing is mostly scheduler noise.
const SETUP_EXTRA_BUDGET_S: f64 = 1.5;

/// What one invocation reports on its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
}

/// Peak resident set of this process so far (`VmHWM`), MB. Each
/// workload runs in a process of its own, so the figure is per workload.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `workload` for `seconds` in total, split evenly over the
/// scale's rounds.
pub fn run(workload: Workload, scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let rounds_n = scale.rounds();
    let round_s = seconds / rounds_n as f64;
    let mut rounds: Vec<Round> = Vec::with_capacity(rounds_n);
    let mut reference = None;
    let mut peak_rss = 0.0;
    for i in 0..rounds_n {
        let (inputs, stack, setup_s) = setup(workload, scale, seed);
        let reference = reference.get_or_insert_with(|| inputs.reference());
        let mut round = run_round(&inputs, stack, i, round_s, reference);
        round.setup_s = setup_s;
        eprintln!(
            "[{}] round {}: {} ops in {:.2}s, {} checked, {} failed, setup {:.3}s",
            workload.name(),
            i + 1,
            round.completed(),
            round.elapsed_s,
            round.checked,
            round.failed(),
            setup_s
        );
        rounds.push(round);
        // Read after the first round only: each later round starts a
        // fresh stack in this process, the allocator does not reliably
        // reuse what the previous one freed, and the high-water mark then
        // measures the allocator (+20-60 % by round 3, differing run to
        // run), not the stack.
        if i == 0 {
            peak_rss = peak_rss_mb();
        }
    }

    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let extra = Instant::now();
    while setups.len() < SETUP_SAMPLES
        && extra.elapsed().as_secs_f64() + setups[setups.len() - 1] < SETUP_EXTRA_BUDGET_S
    {
        let (_inputs, stack, setup_s) = setup(workload, scale, seed);
        drop(stack);
        setups.push(setup_s);
    }

    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let mut metrics = MetricSet::new(END_TO_END);
    metrics.set_rounds("setup_s", &setups);
    metrics.set_rounds("throughput_ops_s", &per_round(&Round::throughput_ops_s));
    metrics.set_rounds("latency_p50_ms", &per_round(&|r| 1e3 * r.latency.p50));
    metrics.set_rounds("latency_p90_ms", &per_round(&|r| 1e3 * r.latency.p90));
    metrics.set_rounds("slo_met_fraction", &per_round(&Round::slo_met_fraction));
    metrics.set("peak_rss_mb", peak_rss, 1);

    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(Round::failed).sum();
    let checked: u64 = rounds.iter().map(|r| r.checked).sum();
    let leaked: u64 = rounds.iter().map(|r| r.leaked_grants).sum();
    if leaked > 0 {
        eprintln!("[{}] {leaked} scheduler grants leaked", workload.name());
    }
    Outcome {
        correct: failed == 0 && leaked == 0 && checked > 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}
