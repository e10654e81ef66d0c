//! End-to-end benchmark of the hybrid spectral stack.
//!
//! ```text
//! hspec-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hspec-benchmark run     --seed <n> [--scale full|smoke] [--seconds <s>] [--repeats <n>]
//!                         [--workload <name>] [--out <file>]
//! hspec-benchmark trace   --seed <n> [... as run]
//! hspec-benchmark compare <base.json> <candidate.json>
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload in this
//! process, every metric printed by name, and a JSON object on the last
//! line of standard output. `run` and `trace` start one such process
//! per workload and collect the results into a file; `compare` judges
//! two result files against the bounds in [`metrics::END_TO_END`].

mod check;
mod inputs;
mod ladder;
mod metrics;
mod probes;
mod results;
mod spans;
mod stats;
mod timed;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use jsonlite::ObjectBuilder;

use timed::Outcome;
use workloads::{Scale, Workload};

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;
const SMOKE_SECONDS: f64 = 2.5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    scale: Scale,
    repeats: usize,
    /// Where the single-workload form also writes its full record
    /// (`run` and `trace` collect their children's results this way).
    record: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        scale: Scale::Full,
        repeats: 1,
        record: None,
        out: None,
    };
    let mut seed_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                };
            }
            "--scale" => {
                let v = value()?;
                out.scale = Scale::parse(v).ok_or_else(|| format!("unknown scale `{v}`"))?;
            }
            "--repeats" => {
                out.repeats = value()?.parse().map_err(|e| format!("--repeats: {e}"))?;
                if out.repeats == 0 {
                    return Err("--repeats must be at least 1".into());
                }
            }
            "--record" => out.record = Some(PathBuf::from(value()?)),
            "--out" => out.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !seed_given {
        return Err("--seed is required".into());
    }
    Ok(out)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(match self.scale {
            Scale::Full => DEFAULT_SECONDS,
            Scale::Smoke => SMOKE_SECONDS,
        })
    }
}

/// Print every metric by name, then the one-line JSON result.
fn report(outcome: &Outcome, record: Option<&Path>) -> ExitCode {
    outcome.metrics.print();
    let missing = outcome.metrics.missing();
    if !missing.is_empty() {
        eprintln!("metrics without a value: {missing:?}");
        return ExitCode::FAILURE;
    }
    let result = |metrics| {
        ObjectBuilder::new()
            .field("correct", outcome.correct)
            .field("attempted", outcome.attempted)
            .field("failed", outcome.failed)
            .field("metrics", metrics)
            .build()
    };
    if let Some(path) = record {
        if let Err(e) = std::fs::write(path, result(outcome.metrics.to_record()).to_pretty()) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result(outcome.metrics.to_json()).to_compact());
    if !outcome.correct {
        eprintln!("answers wrong, operations failed, or grants leaked");
    }
    exit_code(outcome.correct)
}

fn single(args: &Args) -> ExitCode {
    let workload = args.workload.expect("caller checked");
    let outcome = if args.trace {
        traced::run(workload, args.scale, args.seed, args.seconds())
    } else {
        timed::run(workload, args.scale, args.seed, args.seconds())
    };
    report(&outcome, args.record.as_deref())
}

fn collect(args: &Args, trace: bool) -> Result<ExitCode, String> {
    let plan = results::RunPlan {
        trace,
        seed: args.seed,
        scale: args.scale,
        seconds: args.seconds(),
        repeats: args.repeats,
        only: args.workload,
        out: args.out.clone(),
    };
    results::run_all(&plan).map(exit_code)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") => parse_flags(&argv).and_then(|args| {
            if args.workload.is_none() {
                return Err("--workload is required".into());
            }
            Ok(single(&args))
        }),
        Some("run") => parse_flags(&argv[1..]).and_then(|args| collect(&args, false)),
        Some("trace") => parse_flags(&argv[1..]).and_then(|args| collect(&args, true)),
        Some("compare") => match &argv[1..] {
            [base, candidate] => {
                results::compare_files(Path::new(base), Path::new(candidate)).map(exit_code)
            }
            _ => Err("usage: compare <base.json> <candidate.json>".into()),
        },
        _ => Err(
            "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> \
             | run --seed <n> | trace --seed <n> | compare <base.json> <candidate.json>"
                .into(),
        ),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("hspec-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
