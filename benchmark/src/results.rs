//! Result files: what `run` and `trace` write, what `compare` reads.
//!
//! `run` and `trace` start one child process per workload and repeat
//! (the child is this program in its `--workload` form, so peak memory
//! is per workload and a crash costs one cell, not the file). With
//! `--repeats N` every workload is run N times on seeds `seed..seed+N`;
//! the recorded value of a metric is then the median of the N runs and
//! its spread the interquartile range over that median — the rule the
//! benchmark is accepted by.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use jsonlite::{ObjectBuilder, Value};

use crate::metrics::{Better, Def, END_TO_END};
use crate::stats::{iqr_spread, median};
use crate::traced::out_dir;
use crate::workloads::{Scale, Workload};

/// Fewer repeats than this and the spread of a metric is the spread of
/// the rounds inside its one run instead of the quartiles of the runs.
const MIN_REPEATS_FOR_QUARTILES: usize = 4;

/// What every result file says about where it was measured.
fn fingerprint(seed: u64, scale: Scale, seconds: f64, repeats: usize) -> Value {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    ObjectBuilder::new()
        .field("nproc", nproc)
        .field("avx2", quadrature::simd::using_avx2())
        .field(
            "hspec_simd",
            std::env::var("HSPEC_SIMD").unwrap_or_default(),
        )
        .field("rustc", rustc)
        .field("seed", seed)
        .field("scale", scale.label())
        .field("seconds", seconds)
        .field("repeats", repeats)
        .build()
}

/// One child run's record: `{correct, attempted, failed, metrics}`.
fn run_child(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Value, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let record = dir.join(format!(
        ".record-{}-{}.json",
        workload.name(),
        std::process::id()
    ));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", scale.label()])
        .arg("--record")
        .arg(&record)
        .status()
        .map_err(|e| format!("starting {}: {e}", workload.name()))?;
    let text = std::fs::read_to_string(&record);
    let _ = std::fs::remove_file(&record);
    let text = text.map_err(|_| {
        format!(
            "{} (seed {seed}) exited with {status} and left no record",
            workload.name()
        )
    })?;
    Value::parse(&text).map_err(|e| format!("{} record: {e}", workload.name()))
}

/// Fold the repeats of one workload into one cell: per metric the
/// values of every repeat, their median, and the spread.
fn fold_repeats(records: &[Value]) -> Value {
    let mut names: Vec<String> = Vec::new();
    if let Some(metrics) = records[0].get("metrics").and_then(Value::as_object) {
        names.extend(metrics.keys().cloned());
    }
    let mut metrics = ObjectBuilder::new();
    for name in &names {
        let entries: Vec<&Value> = records
            .iter()
            .filter_map(|r| r.get("metrics").and_then(|m| m.get(name)))
            .collect();
        let values: Vec<f64> = entries
            .iter()
            .filter_map(|e| e.get("value").and_then(Value::as_f64))
            .collect();
        let spread = if values.len() >= MIN_REPEATS_FOR_QUARTILES {
            Some(iqr_spread(&values))
        } else {
            entries[0].get("spread").and_then(Value::as_f64)
        };
        let mut cell = ObjectBuilder::new()
            .field("value", median(&values))
            .field("values", values)
            .field(
                "unit",
                entries[0].get("unit").and_then(Value::as_str).unwrap_or(""),
            )
            .field(
                "domain",
                entries[0]
                    .get("domain")
                    .and_then(Value::as_str)
                    .unwrap_or(""),
            )
            .field(
                "samples",
                entries[0]
                    .get("samples")
                    .and_then(Value::as_u64)
                    .unwrap_or(0),
            );
        if let Some(s) = spread {
            cell = cell.field("spread", s);
        }
        metrics = metrics.field(name, cell.build());
    }
    let sum = |key: &str| -> u64 {
        records
            .iter()
            .filter_map(|r| r.get(key).and_then(Value::as_u64))
            .sum()
    };
    ObjectBuilder::new()
        .field(
            "correct",
            records
                .iter()
                .all(|r| r.get("correct").and_then(Value::as_bool) == Some(true)),
        )
        .field("attempted", sum("attempted"))
        .field("failed", sum("failed"))
        .field("metrics", metrics.build())
        .build()
}

pub struct RunPlan {
    pub trace: bool,
    pub seed: u64,
    pub scale: Scale,
    pub seconds: f64,
    pub repeats: usize,
    pub only: Option<Workload>,
    pub out: Option<PathBuf>,
}

/// `run` / `trace`: every workload, `repeats` times, into one file.
/// Returns whether every run was correct.
pub fn run_all(plan: &RunPlan) -> Result<bool, String> {
    let kind = if plan.trace { "trace" } else { "run" };
    let mut cells = ObjectBuilder::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        if plan.only.is_some_and(|w| w != workload) {
            continue;
        }
        let mut records = Vec::with_capacity(plan.repeats);
        for repeat in 0..plan.repeats {
            let seed = plan.seed + repeat as u64;
            eprintln!(
                "== {kind} {} (seed {seed}, {} of {}) ==",
                workload.name(),
                repeat + 1,
                plan.repeats
            );
            records.push(run_child(
                workload,
                plan.scale,
                seed,
                plan.seconds,
                plan.trace,
            )?);
        }
        let cell = fold_repeats(&records);
        all_correct &= cell.get("correct").and_then(Value::as_bool) == Some(true);
        cells = cells.field(workload.name(), cell);
    }
    let doc = ObjectBuilder::new()
        .field("kind", kind)
        .field(
            "fingerprint",
            fingerprint(plan.seed, plan.scale, plan.seconds, plan.repeats),
        )
        .field("workloads", cells.build())
        .build();
    let path = plan.out.clone().unwrap_or_else(|| {
        out_dir().join(if plan.trace {
            "trace-results.json"
        } else {
            "results.json"
        })
    });
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

// ---------------------------------------------------------------------------
// compare

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The candidate's median is worse than the base's by more than
    /// the metric's bound.
    Regressed,
    /// Not worse beyond the bound, but a side's own spread is wider
    /// than the bound, so "no change" cannot be claimed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of the base `candidate` is worse, in `def`'s direction
/// (negative when it is better).
pub fn worse_by(def: &Def, base: f64, candidate: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (candidate - base) / base.abs(),
        Better::Higher => (base - candidate) / base.abs(),
    }
}

/// `spread` is the wider of the two sides' spreads. Set-up time is
/// judged on its median alone: its samples are thread spawns, whose
/// spread says nothing about the median's steadiness.
pub fn judge(def: &Def, base: f64, candidate: f64, spread: f64) -> Verdict {
    if worse_by(def, base, candidate) > def.bound {
        Verdict::Regressed
    } else if def.name != "setup_s" && spread > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub candidate: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cell_value(doc: &Value, workload: &str, metric: &str, field: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get(field)?
        .as_f64()
}

/// Judge every workload × end-to-end metric of `candidate` against
/// `base`.
///
/// # Errors
/// When the files are not both timed results of one scale, or share no
/// workload.
pub fn compare_docs(base: &Value, candidate: &Value) -> Result<Vec<Row>, String> {
    for doc in [base, candidate] {
        if doc.get("kind").and_then(Value::as_str) != Some("run") {
            return Err("compare takes two files written by `run`".into());
        }
    }
    let scale = |doc: &Value| -> Option<String> {
        let scale = doc.get("fingerprint")?.get("scale")?.as_str()?;
        Some(scale.to_owned())
    };
    let (a, b) = (scale(base), scale(candidate));
    if a != b || a.is_none() {
        return Err(format!(
            "refusing to compare scale {a:?} with scale {b:?}: sizes differ, so do the numbers"
        ));
    }
    let workloads = |doc: &Value| -> BTreeMap<String, Value> {
        doc.get("workloads")
            .and_then(Value::as_object)
            .cloned()
            .unwrap_or_default()
    };
    let (wa, wb) = (workloads(base), workloads(candidate));
    let mut rows = Vec::new();
    for name in wa.keys().filter(|k| wb.contains_key(*k)) {
        for def in END_TO_END {
            let (Some(x), Some(y)) = (
                cell_value(base, name, def.name, "value"),
                cell_value(candidate, name, def.name, "value"),
            ) else {
                return Err(format!("{name}: {} missing from a file", def.name));
            };
            let spread = [base, candidate]
                .iter()
                .filter_map(|doc| cell_value(doc, name, def.name, "spread"))
                .fold(0.0f64, f64::max);
            rows.push(Row {
                workload: name.clone(),
                metric: def.name,
                base: x,
                candidate: y,
                spread,
                verdict: judge(def, x, y, spread),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    Ok(rows)
}

/// `compare <a.json> <b.json>`: print one row per workload × metric.
/// Returns whether nothing regressed.
pub fn compare_files(base: &Path, candidate: &Path) -> Result<bool, String> {
    let rows = compare_docs(&load(base)?, &load(candidate)?)?;
    println!(
        "{:<11} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "candidate", "cand/base", "spread", "bound"
    );
    for row in &rows {
        let def = crate::metrics::def(row.metric).expect("end-to-end metric");
        println!(
            "{:<11} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>7.1}% {:>6.0}%  {} ({} is better)",
            row.workload,
            row.metric,
            row.base,
            row.candidate,
            row.candidate / row.base,
            100.0 * row.spread,
            100.0 * def.bound,
            row.verdict.label(),
            def.better.label(),
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} unresolved, {} regressed (ratios are candidate over base)",
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Regressed)
    );
    Ok(count(Verdict::Regressed) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static Def {
        crate::metrics::def(name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let p50 = def("latency_p50_ms"); // lower is better, bound 15 %
        assert_eq!(judge(p50, 10.0, 11.4, 0.02), Verdict::Ok);
        assert_eq!(judge(p50, 10.0, 11.6, 0.02), Verdict::Regressed);
        assert_eq!(judge(p50, 10.0, 8.0, 0.02), Verdict::Ok);
        assert_eq!(judge(p50, 10.0, 10.5, 0.17), Verdict::Unresolved);
        // Worse beyond the bound is a regression however wide the spread.
        assert_eq!(judge(p50, 10.0, 12.0, 0.5), Verdict::Regressed);

        let rps = def("throughput_ops_s"); // higher is better, bound 15 %
        assert_eq!(judge(rps, 100.0, 86.0, 0.0), Verdict::Ok);
        assert_eq!(judge(rps, 100.0, 84.0, 0.0), Verdict::Regressed);
        assert_eq!(judge(rps, 100.0, 150.0, 0.0), Verdict::Ok);
        assert!((worse_by(rps, 100.0, 84.0) - 0.16).abs() < 1e-12);

        // Set-up is judged on its median alone.
        let setup = def("setup_s");
        assert_eq!(judge(setup, 1.0, 1.2, 3.0), Verdict::Ok);
        assert_eq!(judge(setup, 1.0, 1.3, 0.0), Verdict::Regressed);
    }

    fn file(scale: &str, kind: &str, p50: f64, spread: f64) -> Value {
        let mut metrics = ObjectBuilder::new();
        for d in END_TO_END {
            let value = if d.name == "latency_p50_ms" { p50 } else { 1.0 };
            metrics = metrics.field(
                d.name,
                ObjectBuilder::new()
                    .field("value", value)
                    .field(
                        "spread",
                        if d.name == "latency_p50_ms" {
                            spread
                        } else {
                            0.0
                        },
                    )
                    .build(),
            );
        }
        ObjectBuilder::new()
            .field("kind", kind)
            .field(
                "fingerprint",
                ObjectBuilder::new().field("scale", scale).build(),
            )
            .field(
                "workloads",
                ObjectBuilder::new()
                    .field(
                        "cold_sweep",
                        ObjectBuilder::new()
                            .field("metrics", metrics.build())
                            .build(),
                    )
                    .build(),
            )
            .build()
    }

    #[test]
    fn compare_hand_made_files() {
        let base = file("full", "run", 16.0, 0.03);
        let verdict_of = |candidate: &Value| {
            compare_docs(&base, candidate)
                .unwrap()
                .into_iter()
                .find(|r| r.metric == "latency_p50_ms")
                .unwrap()
                .verdict
        };
        assert_eq!(verdict_of(&file("full", "run", 16.5, 0.03)), Verdict::Ok);
        assert_eq!(
            verdict_of(&file("full", "run", 19.0, 0.03)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of(&file("full", "run", 16.5, 0.2)),
            Verdict::Unresolved
        );
        let rows = compare_docs(&base, &file("full", "run", 16.5, 0.03)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(rows.iter().all(|r| r.workload == "cold_sweep"));
    }

    #[test]
    fn compare_refuses_mixed_scales_and_trace_files() {
        let base = file("full", "run", 16.0, 0.0);
        let err = compare_docs(&base, &file("smoke", "run", 16.0, 0.0)).unwrap_err();
        assert!(err.contains("scale"), "{err}");
        let err = compare_docs(&base, &file("full", "trace", 16.0, 0.0)).unwrap_err();
        assert!(err.contains("`run`"), "{err}");
    }

    #[test]
    fn repeats_fold_to_median_and_quartile_spread() {
        let record = |v: f64| {
            ObjectBuilder::new()
                .field("correct", true)
                .field("attempted", 10u64)
                .field("failed", 0u64)
                .field(
                    "metrics",
                    ObjectBuilder::new()
                        .field(
                            "latency_p50_ms",
                            ObjectBuilder::new()
                                .field("value", v)
                                .field("unit", "ms")
                                .field("domain", "wall")
                                .field("samples", 3u64)
                                .field("spread", 0.5)
                                .build(),
                        )
                        .build(),
                )
                .build()
        };
        let ten: Vec<Value> = (1..=10).map(|i| record(f64::from(i))).collect();
        let cell = fold_repeats(&ten);
        let m = cell.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(5.5));
        // Quartiles 2.75 and 8.25 over a median of 5.5.
        assert_eq!(m.get("spread").and_then(Value::as_f64), Some(1.0));
        assert_eq!(cell.get("attempted").and_then(Value::as_u64), Some(100));
        // A single run keeps its rounds' spread.
        let one = fold_repeats(&[record(7.0)]);
        let m = one.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(m.get("spread").and_then(Value::as_f64), Some(0.5));
    }
}
