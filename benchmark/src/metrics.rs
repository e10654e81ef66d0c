//! The benchmark's metric vocabulary: every name it may print, with
//! unit, time domain, direction, regression bound, where the number
//! comes from and which end-to-end metric it is expected to move.
//! `BENCHMARK.json` at the repo root repeats the names, units,
//! directions and bounds; a unit test keeps the two in step.

use std::collections::BTreeMap;

use jsonlite::{ObjectBuilder, Value};

/// What a number is a measurement of. The three are never put in one
/// ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Host wall-clock time (`std::time::Instant`).
    Wall,
    /// `gpu-sim` modeled device seconds (the paper's C2075 cost).
    Modeled,
    /// A count or a ratio of counts.
    Count,
}

impl Domain {
    pub fn label(self) -> &'static str {
        match self {
            Domain::Wall => "wall",
            Domain::Modeled => "modeled",
            Domain::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Measured over the timed rounds of a workload.
    EndToEnd,
    /// A harness span around one public call, on the traced replay.
    Ladder,
    /// Difference of a public snapshot/report over a workload round.
    Counter,
    /// A timed loop over one public function on workload inputs.
    Probe,
    /// A property of the harness itself; qualifies the other numbers.
    Harness,
}

impl Source {
    pub fn label(self) -> &'static str {
        match self {
            Source::EndToEnd => "end-to-end",
            Source::Ladder => "ladder",
            Source::Counter => "counter",
            Source::Probe => "probe",
            Source::Harness => "harness",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub domain: Domain,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it is a regression (end-to-end metrics only).
    pub bound: f64,
    pub source: Source,
    /// The end-to-end metric and workload this number should move.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    domain: Domain,
    better: Better,
    bound: f64,
) -> Def {
    Def {
        name,
        unit,
        domain,
        better,
        bound,
        source: Source::EndToEnd,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    domain: Domain,
    better: Better,
    source: Source,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        domain,
        better,
        bound: 0.0,
        source,
        moves,
    }
}

use Better::{Higher, Lower};
use Domain::{Count, Modeled, Wall};
use Source::{Counter, Harness, Ladder, Probe};

/// What a user of the stack sees. Every workload reports every one.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Wall, Lower, 0.25),
    e2e("throughput_ops_s", "ops/s", Wall, Higher, 0.15),
    e2e("latency_p50_ms", "ms", Wall, Lower, 0.15),
    e2e("latency_p90_ms", "ms", Wall, Lower, 0.25),
    e2e("slo_met_fraction", "ratio", Count, Higher, 0.02),
    e2e("peak_rss_mb", "MB", Count, Lower, 0.15),
];

/// Single-layer numbers, named `<crate>.<what>`.
#[rustfmt::skip] // one metric per line
pub const PER_LAYER: &[Def] = &[
    // -- router ---------------------------------------------------------
    layer("router.query_ms_p50", "ms", Wall, Lower, Ladder, "latency_p50_ms@cold_sweep"),
    layer("router.self_ms_p50", "ms", Wall, Lower, Ladder, "latency_p50_ms@cold_sweep"),
    layer("router.overhead_us", "us", Wall, Lower, Probe, "throughput_ops_s,latency_p90_ms@hot_zipf"),
    layer("router.route_hit_us_p50", "us", Wall, Lower, Probe, "latency_p50_ms@hot_zipf"),
    layer("router.route_hit_ratio", "ratio", Count, Higher, Counter, "throughput_ops_s@hot_zipf"),
    layer("router.fanouts_per_request", "ratio", Count, Lower, Counter, "throughput_ops_s@hot_zipf"),
    layer("router.coalesced", "count", Count, Higher, Counter, "throughput_ops_s@hot_zipf"),
    layer("router.affinity_pick_ratio", "ratio", Count, Higher, Counter, "throughput_ops_s@hot_zipf"),
    layer("router.reroutes", "count", Count, Lower, Counter, "failed@all"),
    layer("router.hedges", "count", Count, Lower, Counter, "failed@all"),
    layer("router.breaker_skips", "count", Count, Lower, Counter, "failed@all"),
    layer("router.device_failed", "count", Count, Lower, Counter, "failed@all"),
    layer("router.ring_owner_ns", "ns", Wall, Lower, Probe, "setup_s@cold_sweep"),
    layer("router.start_ms", "ms", Wall, Lower, Probe, "setup_s@cold_sweep,hot_zipf"),
    // -- mpisim ---------------------------------------------------------
    layer("mpisim.scatter_gather_rtt_us", "us", Wall, Lower, Probe, "latency_p90_ms@hot_zipf"),
    layer("mpisim.queue_push_pop_ns", "ns", Wall, Lower, Probe, "throughput_ops_s@cold_sweep,batch_grid"),
    // -- service --------------------------------------------------------
    layer("service.submit_wait_ms_p50", "ms", Wall, Lower, Ladder, "latency_p50_ms@open_slo"),
    layer("service.self_ms_p50", "ms", Wall, Lower, Ladder, "latency_p50_ms@open_slo"),
    layer("service.warm_submit_wait_us_p50", "us", Wall, Lower, Probe, "latency_p90_ms@hot_zipf"),
    layer("service.queue_wait_ms_p50", "ms", Wall, Lower, Counter, "latency_p90_ms@open_slo"),
    layer("service.queue_wait_ms_p95", "ms", Wall, Lower, Counter, "latency_p90_ms@open_slo"),
    layer("service.compute_ms_p50", "ms", Wall, Lower, Counter, "latency_p90_ms@open_slo"),
    layer("service.batch_size_mean", "ratio", Count, Higher, Counter, "throughput_ops_s@open_slo"),
    layer("service.cache_hit_ratio", "ratio", Count, Higher, Counter, "throughput_ops_s@hot_zipf,open_slo"),
    layer("service.cache_evictions", "count", Count, Lower, Counter, "throughput_ops_s@hot_zipf,open_slo"),
    layer("service.interactive_p95_ms", "ms", Wall, Lower, Counter, "latency_p90_ms@open_slo"),
    layer("service.bulk_p95_ms", "ms", Wall, Lower, Counter, "latency_p90_ms@open_slo"),
    layer("service.queue_depth_peak", "count", Count, Lower, Counter, "slo_met_fraction@open_slo"),
    layer("service.shed_queue_full", "count", Count, Lower, Counter, "failed,slo_met_fraction@open_slo"),
    layer("service.shed_infeasible", "count", Count, Lower, Counter, "failed,slo_met_fraction@open_slo"),
    layer("service.device_failures", "count", Count, Lower, Counter, "failed@all"),
    layer("service.cache_get_ns", "ns", Wall, Lower, Probe, "latency_p90_ms@hot_zipf"),
    layer("service.cache_insert_ns", "ns", Wall, Lower, Probe, "latency_p90_ms@hot_zipf"),
    layer("service.assemble_us", "us", Wall, Lower, Probe, "latency_p90_ms@hot_zipf"),
    layer("service.state_key_ns", "ns", Wall, Lower, Probe, "latency_p90_ms@hot_zipf"),
    // -- core -----------------------------------------------------------
    layer("core.engine_fanout_ms_p50", "ms", Wall, Lower, Ladder, "latency_p50_ms@cold_sweep"),
    layer("core.engine_overhead_ms", "ms", Wall, Lower, Ladder, "latency_p50_ms@cold_sweep"),
    layer("core.compute_inline_ms", "ms", Wall, Lower, Ladder, "throughput_ops_s@batch_grid"),
    layer("core.ions_computed_per_op", "ratio", Count, Lower, Counter, "throughput_ops_s@hot_zipf,open_slo"),
    layer("core.ions_from_cache_per_op", "ratio", Count, Higher, Counter, "throughput_ops_s@hot_zipf,open_slo"),
    layer("core.gpu_task_ratio", "ratio", Count, Higher, Counter, "throughput_ops_s@cold_sweep,batch_grid"),
    layer("core.cpu_steals", "count", Count, Lower, Counter, "throughput_ops_s@cold_sweep,batch_grid"),
    layer("core.task_faults", "count", Count, Lower, Counter, "failed@all"),
    layer("core.task_retries", "count", Count, Lower, Counter, "failed@all"),
    layer("core.worker_panics", "count", Count, Lower, Counter, "failed@all"),
    layer("core.leaked_grants", "count", Count, Lower, Counter, "failed@all"),
    layer("core.engine_start_ms", "ms", Wall, Lower, Probe, "setup_s@all,throughput_ops_s@batch_grid"),
    layer("core.engine_shutdown_ms", "ms", Wall, Lower, Probe, "throughput_ops_s@batch_grid"),
    // -- sched ----------------------------------------------------------
    layer("sched.alloc_free_ns", "ns", Wall, Lower, Probe, "throughput_ops_s@cold_sweep"),
    layer("sched.stage_next_ns", "ns", Wall, Lower, Probe, "throughput_ops_s@cold_sweep"),
    layer("sched.steals", "count", Count, Lower, Counter, "throughput_ops_s@batch_grid"),
    layer("sched.device_imbalance", "ratio", Count, Lower, Counter, "throughput_ops_s@batch_grid"),
    layer("sched.cost_residual_milli", "count", Count, Lower, Counter, "throughput_ops_s@batch_grid"),
    layer("sched.cost_observations", "count", Count, Higher, Counter, "throughput_ops_s@batch_grid"),
    // -- gpusim ---------------------------------------------------------
    layer("gpusim.kernel_ms_per_op", "ms", Wall, Lower, Ladder, "latency_p50_ms@cold_sweep"),
    layer("gpusim.self_ms_p50", "ms", Wall, Lower, Ladder, "latency_p50_ms@cold_sweep"),
    layer("gpusim.evals_per_op", "count", Count, Lower, Ladder, "throughput_ops_s@cold_sweep,batch_grid"),
    layer("gpusim.kernel_ms_heavy_ion", "ms", Wall, Lower, Probe, "latency_p50_ms@cold_sweep,throughput_ops_s@batch_grid"),
    layer("gpusim.kernel_mevals_s", "Mevals/s", Wall, Higher, Probe, "latency_p50_ms@cold_sweep,throughput_ops_s@batch_grid"),
    layer("gpusim.submit_wait_us", "us", Wall, Lower, Probe, "latency_p50_ms@cold_sweep"),
    layer("gpusim.peak_device_bytes", "bytes", Count, Lower, Counter, "peak_rss_mb@all"),
    layer("gpusim.modeled_device_s_per_op", "s", Modeled, Lower, Counter, "throughput_ops_s@cold_sweep,batch_grid"),
    // -- spectral -------------------------------------------------------
    layer("spectral.serial_ms_per_op", "ms", Wall, Lower, Ladder, "base of throughput_ops_s@cold_sweep"),
    layer("spectral.cpu_vector_ms_per_op", "ms", Wall, Lower, Probe, "base of throughput_ops_s@batch_grid"),
    layer("spectral.prepare_us_per_ion", "us", Wall, Lower, Probe, "latency_p50_ms@cold_sweep"),
    // -- quadrature -----------------------------------------------------
    layer("quadrature.bins_ms_per_op", "ms", Wall, Lower, Ladder, "latency_p50_ms@cold_sweep"),
    layer("quadrature.bins_exact_us_per_level", "us", Wall, Lower, Probe, "throughput_ops_s@cold_sweep,batch_grid"),
    layer("quadrature.bins_vector_us_per_level", "us", Wall, Lower, Probe, "throughput_ops_s@cold_sweep,batch_grid"),
    layer("quadrature.vexp_ns_per_elem", "ns", Wall, Lower, Probe, "throughput_ops_s@cold_sweep,batch_grid"),
    // -- atomdb, desim --------------------------------------------------
    layer("atomdb.generate_ms", "ms", Wall, Lower, Probe, "setup_s@batch_grid"),
    layer("desim.histogram_record_ns", "ns", Wall, Lower, Probe, "latency_p50_ms@hot_zipf"),
    // -- harness diagnostics: they qualify the numbers above, move none --
    layer("bench.generator_late_ms_p90", "ms", Wall, Lower, Harness, ""),
    layer("bench.generator_late_ms_max", "ms", Wall, Lower, Harness, ""),
    layer("bench.latency_p99_ms", "ms", Wall, Lower, Harness, ""),
    layer("bench.latency_max_ms", "ms", Wall, Lower, Harness, ""),
    layer("bench.samples", "count", Count, Higher, Harness, ""),
    layer("bench.failed_fraction", "ratio", Count, Lower, Harness, ""),
    layer("bench.trace_overhead_ratio", "ratio", Wall, Higher, Harness, ""),
];

/// Look a definition up by name in either table.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    /// Observations behind the value (rounds, spans, loop iterations).
    pub samples: u64,
    /// `(max − min) / median` across rounds, where the value is a
    /// median of rounds.
    pub spread: Option<f64>,
}

/// The values of one table of metrics for one run. Setting a name the
/// table does not define is a harness bug and panics; a run is only
/// reported once every name has a value.
#[derive(Debug, Clone)]
pub struct MetricSet {
    defs: &'static [Def],
    values: BTreeMap<&'static str, Measured>,
}

impl MetricSet {
    pub fn new(defs: &'static [Def]) -> MetricSet {
        MetricSet {
            defs,
            values: BTreeMap::new(),
        }
    }

    fn key(&self, name: &str) -> &'static str {
        self.defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not defined"))
            .name
    }

    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let key = self.key(name);
        self.values.insert(
            key,
            Measured {
                value,
                samples,
                spread: None,
            },
        );
    }

    /// A median of per-round values, with the rounds' spread.
    pub fn set_rounds(&mut self, name: &str, rounds: &[f64]) {
        let key = self.key(name);
        self.values.insert(
            key,
            Measured {
                value: crate::stats::median(rounds),
                samples: rounds.len() as u64,
                spread: Some(crate::stats::spread(rounds)),
            },
        );
    }

    /// Set every `(name, value)` pair with one sample count.
    pub fn set_all(&mut self, pairs: &[(&str, f64)], samples: u64) {
        for (name, value) in pairs {
            self.set(name, *value, samples);
        }
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<Measured> {
        self.values.get(name).copied()
    }

    /// Defined names still without a value.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .map(|d| d.name)
            .filter(|n| !self.values.contains_key(n))
            .collect()
    }

    /// One line per metric: name, value, unit, domain, source, sample
    /// count, then the rounds' spread or what the number should move.
    pub fn print(&self) {
        for d in self.defs {
            let Some(m) = self.values.get(d.name) else {
                continue;
            };
            let mut tail = String::new();
            if let Some(s) = m.spread {
                tail += &format!("  spread={:.1}%", 100.0 * s);
            }
            if !d.moves.is_empty() {
                tail += &format!("  -> {}", d.moves);
            }
            println!(
                "{:<38} {:>16} {:<9} [{}; {}; n={}]{}",
                d.name,
                format_value(m.value),
                d.unit,
                d.domain.label(),
                d.source.label(),
                m.samples,
                tail
            );
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}` — the driver's shape.
    pub fn to_json(&self) -> Value {
        let mut out = ObjectBuilder::new();
        for d in self.defs {
            if let Some(m) = self.values.get(d.name) {
                out = out.field(
                    d.name,
                    ObjectBuilder::new()
                        .field("value", m.value)
                        .field("unit", d.unit)
                        .build(),
                );
            }
        }
        out.build()
    }

    /// The fuller record kept in result files.
    pub fn to_record(&self) -> Value {
        let mut out = ObjectBuilder::new();
        for d in self.defs {
            if let Some(m) = self.values.get(d.name) {
                let mut entry = ObjectBuilder::new()
                    .field("value", m.value)
                    .field("unit", d.unit)
                    .field("domain", d.domain.label())
                    .field("samples", m.samples);
                if let Some(s) = m.spread {
                    entry = entry.field("spread", s);
                }
                out = out.field(d.name, entry.build());
            }
        }
        out.build()
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 || (1e-3..1e7).contains(&v.abs()) {
        format!("{v:.6}")
    } else {
        format!("{v:.6e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        assert!(def("setup_s").is_some());
        assert!(def("nope").is_none());
    }

    /// `BENCHMARK.json` repeats this module's tables; keep them in step.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = doc.get(key).and_then(Value::as_array).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(d.unit));
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(d.better.label())
                );
                if bounded {
                    assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(d.bound));
                }
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let expected: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn metric_set_tracks_missing_and_renders() {
        let mut set = MetricSet::new(END_TO_END);
        assert_eq!(set.missing().len(), END_TO_END.len());
        set.set_rounds("latency_p50_ms", &[9.0, 10.0, 11.0]);
        set.set("setup_s", 0.25, 3);
        assert_eq!(set.missing().len(), END_TO_END.len() - 2);
        let m = set.get("latency_p50_ms").unwrap();
        assert_eq!(m.value, 10.0);
        assert!((m.spread.unwrap() - 0.2).abs() < 1e-12);
        let json = set.to_json().to_compact();
        assert_eq!(
            json,
            r#"{"latency_p50_ms":{"unit":"ms","value":10},"setup_s":{"unit":"s","value":0.25}}"#
        );
    }

    #[test]
    #[should_panic(expected = "not defined")]
    fn unknown_names_are_rejected() {
        MetricSet::new(END_TO_END).set("router.query_ms_p50", 1.0, 1);
    }
}
