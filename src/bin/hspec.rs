//! `hspec` — command-line front end for the hybrid spectral system.
//!
//! ```text
//! hspec spectrum --temp 3.5e6 --gpus 2 --bins 400 --out spectrum.tsv
//! hspec predict  --gpus 3 --qlen 8 --granularity ion
//! hspec tune     --gpus 2
//! hspec nei      --element 8 --temp 1e7 --span 1e10
//! hspec serve    --shards 4 --replicas 2 --requests 16
//! ```
//!
//! Arguments are `--key value` pairs parsed by a small hand-rolled
//! parser (no CLI dependency); a subcommand refuses any flag it does not
//! read before it runs. Every subcommand prints a short report to stdout
//! and data files as TSV.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

use hybridspec::hybrid::desmodel::{self, spectral_config};
use hybridspec::hybrid::{
    Calibration, Granularity, HybridConfig, HybridRunner, RunSpec, SedovBlast, SpectralWorkload,
};
use hybridspec::nei::{LsodaSolver, NeiSystem};
use hybridspec::sched::AutoTuner;
use hybridspec::spectral::{EnergyGrid, Integrator, ParameterSpace};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        print_usage();
        return ExitCode::from(2);
    };
    let args = match Args::parse(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "spectrum" => cmd_spectrum(&args),
        "predict" => cmd_predict(&args),
        "tune" => cmd_tune(&args),
        "nei" => cmd_nei(&args),
        "serve" => cmd_serve(&args),
        "remnant" => cmd_remnant(&args),
        "run" => cmd_run(&args),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn print_usage() {
    eprintln!(
        "hspec — hybrid CPU/GPU spectral calculation (ICPP 2015 reproduction)

USAGE:
  hspec spectrum [--temp K] [--density CM3] [--bins N] [--max-z Z]
                 [--ranks N] [--gpus N] [--qlen N] [--lines true]
                 [--policy cost-aware|paper-count] [--math exact|vector]
                 [--out FILE.tsv]
                 [--faults seed=N,launch=P,panic=P,dma=P,stall=P:MS,lose=DEV@OP]
  hspec predict  [--gpus N] [--qlen N] [--granularity ion|level]
                 [--romberg-k K] [--async-window N]
  hspec tune     [--gpus N]
  hspec nei      [--element Z] [--temp K] [--density CM3] [--span S]
  hspec serve    [--shards N] [--replicas R] [--requests N] [--max-z Z]
                 [--bins N] [--gpus N] [--cache N] [--rebalance true|false]
                 [--affinity] [--no-affinity] [--router-cache N] [--hot-k K]
                 [--snapshot FILE.json]
                 [--deadline-ms MS] [--priority interactive|bulk]
                 [--hedge-quantile Q]
  hspec remnant  [--age-yr YR] [--ambient CM3] [--shells N]
  hspec run      --spec FILE.json [--out FILE.tsv]
"
    );
}

/// Parsed `--key value` arguments.
struct Args {
    map: HashMap<String, String>,
}

/// The only flags that stand alone without a value; everything else
/// keeps the strict `--key value` shape.
const BARE_FLAGS: &[&str] = &["affinity", "no-affinity"];

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut iter = argv.iter();
        while let Some(key) = iter.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{key}'"));
            };
            if BARE_FLAGS.contains(&name) {
                map.insert(name.to_string(), "true".to_string());
                continue;
            }
            let Some(value) = iter.next() else {
                return Err(format!("--{name} needs a value"));
            };
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args { map })
    }

    /// Refuse any flag outside `known` (whitespace-separated), the
    /// flags `command` reads, so a typo or a retired flag fails instead
    /// of running with the default in its place.
    fn refuse_unknown(&self, command: &str, known: &str) -> Result<(), String> {
        let known: Vec<&str> = known.split_whitespace().collect();
        match self
            .map
            .keys()
            .filter(|k| !known.contains(&k.as_str()))
            .min()
        {
            None => Ok(()),
            Some(name) => Err(format!("{command} does not read --{name}")),
        }
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.map.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{raw}'")),
        }
    }
}

/// Parse a `--faults` spec into per-device fault plans.
///
/// Comma-separated `key=value` terms, all optional:
/// `seed=N` (default 42, each device derives `seed + d`),
/// `launch=P` / `panic=P` / `dma=P` (probabilistic rates),
/// `stall=P:MS` (rate and stall length, default 5 ms),
/// `lose=DEV@OP` (device `DEV` goes away for good at its `OP`-th
/// operation). Example: `--faults launch=0.1,dma=0.05,lose=1@40`.
fn parse_fault_spec(spec: &str, gpus: usize) -> Result<Vec<hybridspec::gpu::FaultPlan>, String> {
    use hybridspec::gpu::FaultPlan;
    let mut seed = 42u64;
    let mut launch = 0.0f64;
    let mut panic_rate = 0.0f64;
    let mut dma = 0.0f64;
    let mut stall = (0.0f64, 5u64);
    let mut lose: Option<(usize, u64)> = None;
    for term in spec.split(',').filter(|t| !t.is_empty()) {
        let (key, value) = term
            .split_once('=')
            .ok_or_else(|| format!("--faults term '{term}' is not key=value"))?;
        let bad = || format!("--faults {key}: cannot parse '{value}'");
        match key {
            "seed" => seed = value.parse().map_err(|_| bad())?,
            "launch" => launch = value.parse().map_err(|_| bad())?,
            "panic" => panic_rate = value.parse().map_err(|_| bad())?,
            "dma" => dma = value.parse().map_err(|_| bad())?,
            "stall" => {
                if let Some((rate, ms)) = value.split_once(':') {
                    stall = (
                        rate.parse().map_err(|_| bad())?,
                        ms.parse().map_err(|_| bad())?,
                    );
                } else {
                    stall.0 = value.parse().map_err(|_| bad())?;
                }
            }
            "lose" => {
                let (dev, op) = value
                    .split_once('@')
                    .ok_or_else(|| format!("--faults lose wants DEV@OP, got '{value}'"))?;
                lose = Some((
                    dev.parse()
                        .map_err(|_| format!("--faults lose: '{value}'"))?,
                    op.parse()
                        .map_err(|_| format!("--faults lose: '{value}'"))?,
                ));
            }
            other => return Err(format!("--faults: unknown key '{other}'")),
        }
    }
    Ok((0..gpus)
        .map(|d| {
            let mut plan = FaultPlan::seeded(seed.wrapping_add(d as u64))
                .launch_error_rate(launch)
                .kernel_panic_rate(panic_rate)
                .dma_error_rate(dma)
                .stall_rate(stall.0, stall.1);
            if let Some((dev, op)) = lose {
                if dev == d {
                    plan = plan.lose_device_at(op);
                }
            }
            plan
        })
        .collect())
}

fn cmd_spectrum(args: &Args) -> Result<(), String> {
    args.refuse_unknown(
        "spectrum",
        "temp density bins max-z ranks gpus qlen lines out math policy faults",
    )?;
    let temp: f64 = args.get("temp", 3.5e6)?;
    let density: f64 = args.get("density", 1.0)?;
    let bins: usize = args.get("bins", 400)?;
    let max_z: u8 = args.get("max-z", 31)?;
    let ranks: usize = args.get("ranks", 8)?;
    let gpus: usize = args.get("gpus", 2)?;
    let qlen: u64 = args.get("qlen", 6)?;
    let with_lines: bool = args.get("lines", false)?;
    let out: String = args.get("out", String::new())?;
    let math_raw = args.get("math", "exact".to_string())?;
    let math = hybridspec::quadrature::MathMode::parse(&math_raw)
        .ok_or_else(|| format!("--math must be exact|vector, got '{math_raw}'"))?;
    let policy = match args.get("policy", "cost-aware".to_string())?.as_str() {
        "cost-aware" => hybridspec::sched::SchedPolicy::CostAware,
        "paper-count" => hybridspec::sched::SchedPolicy::PaperCount,
        other => {
            return Err(format!(
                "--policy must be cost-aware|paper-count, got '{other}'"
            ))
        }
    };
    let faults_raw: String = args.get("faults", String::new())?;
    let mut resilience = hybridspec::hybrid::ResilienceConfig::default();
    if !faults_raw.is_empty() {
        resilience.faults = parse_fault_spec(&faults_raw, gpus)?;
    }

    let db = atomdb::AtomDatabase::generate(atomdb::DatabaseConfig {
        max_z,
        ..atomdb::DatabaseConfig::default()
    });
    let grid = EnergyGrid::paper_waveband(bins);
    let config = HybridConfig {
        db: Arc::new(db.clone()),
        grid: grid.clone(),
        space: ParameterSpace {
            temperatures_k: vec![temp],
            densities_cm3: vec![density],
            times_s: vec![0.0],
        },
        ranks,
        gpus,
        max_queue_len: qlen,
        policy,
        granularity: Granularity::Ion,
        gpu_rule: hybridspec::gpu::DeviceRule::Simpson { panels: 64 },
        gpu_precision: hybridspec::gpu::Precision::Double,
        cpu_integrator: Integrator::paper_cpu(),
        math,
        resilience,
    };
    let report = HybridRunner::new(config).run();
    let mut spectrum = report.spectra.into_iter().next().expect("one point");
    if with_lines {
        let point = rrc_spectral::GridPoint {
            temperature_k: temp,
            density_cm3: density,
            time_s: 0.0,
            index: 0,
        };
        let mut line_bins = vec![0.0; grid.bins()];
        for ion_index in 0..db.ions().len() {
            rrc_spectral::ion_lines_into(&db, ion_index, &point, &grid, &mut line_bins);
        }
        for (acc, v) in spectrum.bins_mut().iter_mut().zip(&line_bins) {
            *acc += v;
        }
    }
    println!(
        "T = {temp:.3e} K, n_e = {density} cm^-3, {} bins over 10-45 A",
        grid.bins()
    );
    println!(
        "hybrid run: {} GPU tasks / {} CPU tasks in {:.2}s wall",
        report.gpu_tasks, report.cpu_tasks, report.wall_s
    );
    if !faults_raw.is_empty() {
        println!(
            "fault ladder: {} faults, {} retries, {} CPU fallbacks, \
             {} breaker open(s); device breakers {:?}",
            report.task_faults,
            report.task_retries,
            report.fault_cpu_fallbacks,
            report.breaker_counters.opens,
            report
                .device_breakers
                .iter()
                .map(|b| b.label())
                .collect::<Vec<_>>()
        );
    }
    let series = spectrum.normalized().wavelength_series();
    if out.is_empty() {
        let peak = series
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty");
        println!(
            "peak at {:.2} A; use --out FILE.tsv to dump the series",
            peak.0
        );
    } else {
        let mut tsv = String::from("wavelength_angstrom\tnormalized_flux\n");
        for (wl, flux) in &series {
            tsv.push_str(&format!("{wl:.6}\t{flux:.8e}\n"));
        }
        std::fs::write(&out, tsv).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {} rows to {out}", series.len());
    }
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    args.refuse_unknown("predict", "gpus qlen granularity romberg-k async-window")?;
    let gpus: usize = args.get("gpus", 2)?;
    let qlen: u64 = args.get("qlen", 12)?;
    let granularity = match args.get("granularity", "ion".to_string())?.as_str() {
        "ion" => Granularity::Ion,
        "level" => Granularity::Level,
        other => return Err(format!("--granularity must be ion|level, got '{other}'")),
    };
    let romberg_k: u32 = args.get("romberg-k", 0)?;
    let window: usize = args.get("async-window", 1)?;

    let db = atomdb::AtomDatabase::generate(atomdb::DatabaseConfig::default());
    let workload = SpectralWorkload::paper(&db);
    let calib = Calibration::paper();
    let mut cfg = spectral_config(
        &workload,
        &calib,
        granularity,
        gpus,
        qlen,
        (romberg_k > 0).then_some(romberg_k),
    );
    cfg.async_window = window;
    let report = desmodel::run(cfg);
    let serial = calib.serial_point_s * workload.points as f64;
    println!("virtual-time prediction (paper-scale workload, 24 grid points):");
    println!("  makespan:      {:.1} s", report.makespan_s);
    println!(
        "  speedup:       {:.1}x over serial APEC",
        serial / report.makespan_s
    );
    println!(
        "  task split:    {} GPU / {} CPU ({:.2}% on GPU)",
        report.gpu_tasks, report.cpu_tasks, report.gpu_ratio_percent
    );
    println!("  device history: {:?}", report.device_history);
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    args.refuse_unknown("tune", "gpus")?;
    let gpus: usize = args.get("gpus", 2)?;
    let db = atomdb::AtomDatabase::generate(atomdb::DatabaseConfig::default());
    let workload = SpectralWorkload::paper(&db);
    let calib = Calibration::paper();
    let mut tuner = AutoTuner::paper_sweep().with_patience(2);
    while let Some(q) = tuner.next_candidate() {
        let t = desmodel::run(spectral_config(
            &workload,
            &calib,
            Granularity::Ion,
            gpus,
            q,
            None,
        ))
        .makespan_s;
        println!("  qlen {q:2}: {t:.1} s");
        tuner.observe(q, t);
    }
    let (best, time) = tuner.best().expect("at least one probe");
    println!("inflexion at qlen {best} ({time:.1} s) for {gpus} GPU(s)");
    Ok(())
}

fn cmd_nei(args: &Args) -> Result<(), String> {
    args.refuse_unknown("nei", "element temp density span")?;
    let z: u8 = args.get("element", 8)?;
    let temp: f64 = args.get("temp", 1e7)?;
    let density: f64 = args.get("density", 1.0)?;
    let span: f64 = args.get("span", 1e10)?;
    if z == 0 || z > atomdb::MAX_Z {
        return Err(format!("--element must be 1..={}", atomdb::MAX_Z));
    }
    let sys = NeiSystem {
        z,
        electron_density: density,
        temperature_k: temp,
    };
    let mut x = vec![0.0; sys.dim()];
    x[0] = 1.0;
    let stats = LsodaSolver::default().integrate(&sys, &mut x, 0.0, span);
    let eq = hybridspec::nei::equilibrium_fractions(&sys);
    println!(
        "Z={z} at T={temp:.2e} K, n_e={density} cm^-3, span {span:.2e} s \
         ({} steps, {} LU, truncated: {})",
        stats.steps, stats.lu_factorizations, stats.truncated
    );
    println!("  stage   fraction   equilibrium");
    for (i, (a, b)) in x.iter().zip(&eq).enumerate() {
        if *a > 1e-6 || *b > 1e-6 {
            println!("  +{i:<5}  {a:9.5}  {b:9.5}");
        }
    }
    Ok(())
}

/// Bring up the sharded service tier, optionally level it with the
/// capacity rebalancer, drive a deterministic open-loop load of
/// distinct plasma states through it, and print (or dump as JSON) the
/// router-level snapshot.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use hybridspec::router::{RouterConfig, ShardRouter};
    use hybridspec::service::{ElementSelection, SpectrumRequest};

    args.refuse_unknown(
        "serve",
        "shards replicas requests max-z bins gpus cache rebalance router-cache hot-k \
         deadline-ms priority hedge-quantile snapshot affinity no-affinity",
    )?;
    let shards: usize = args.get("shards", 2)?;
    let replicas: usize = args.get("replicas", 1)?;
    let requests: usize = args.get("requests", 12)?;
    let max_z: u8 = args.get("max-z", 8)?;
    let bins: usize = args.get("bins", 64)?;
    let gpus: usize = args.get("gpus", 2)?;
    let cache: usize = args.get("cache", 4096)?;
    let rebalance: bool = args.get("rebalance", true)?;
    let router_cache: usize = args.get("router-cache", 0)?;
    let hot_k: usize = args.get("hot-k", 0)?;
    let deadline_ms: f64 = args.get("deadline-ms", 0.0)?;
    let priority_name: String = args.get("priority", "interactive".to_string())?;
    let hedge_quantile: f64 = args.get("hedge-quantile", 0.0)?;
    let snapshot_out: String = args.get("snapshot", String::new())?;
    let priority = desim::Priority::parse(&priority_name)
        .ok_or_else(|| format!("--priority must be interactive or bulk, got {priority_name}"))?;
    if shards == 0 || replicas == 0 {
        return Err("--shards and --replicas must be at least 1".into());
    }

    let db = Arc::new(atomdb::AtomDatabase::generate(atomdb::DatabaseConfig {
        max_z,
        ..atomdb::DatabaseConfig::default()
    }));
    let ions = db.ions().len();
    let grids = vec![EnergyGrid::paper_waveband(bins)];
    let mut cfg = RouterConfig::deterministic(db, grids);
    cfg.shards = shards;
    cfg.replicas = replicas;
    cfg.engine.gpus = gpus;
    cfg.cache_capacity = cache;
    cfg.route_cache_capacity = router_cache;
    cfg.hot_state_k = hot_k;
    cfg.hedge_quantile = hedge_quantile;
    // --no-affinity overrides the enabled default (and --affinity, if both).
    if args.map.contains_key("no-affinity") {
        cfg.affinity = false;
    } else if args.map.contains_key("affinity") {
        cfg.affinity = true;
    }
    let affinity_on = cfg.affinity;
    let tier = ShardRouter::start(cfg);
    println!(
        "sharded tier up: {shards} shard(s) x {replicas} replica(s), {ions} ions, \
         {bins} bins, {gpus} device(s) per replica \
         (affinity {}, router cache {router_cache}, hot-k {hot_k})",
        if affinity_on { "on" } else { "off" }
    );
    if rebalance {
        let mut passes = 0;
        while let Some(m) = tier.rebalance() {
            println!(
                "  rebalance: moved {} ion(s) (cost {}) from shard {} to {}",
                m.ions.len(),
                m.cost_moved,
                m.from,
                m.to
            );
            passes += 1;
            if passes >= 32 {
                break;
            }
        }
        if passes == 0 {
            println!("  rebalance: already level");
        }
    }
    for i in 0..requests {
        let point = rrc_spectral::GridPoint {
            temperature_k: 9.0e6 + 6.7e5 * i as f64,
            density_cm3: 1.0,
            time_s: 0.0,
            index: i,
        };
        let mut request =
            SpectrumRequest::new(point, ElementSelection::All, 0).with_priority(priority);
        if deadline_ms > 0.0 {
            request = request.with_deadline(tier.clock().deadline_in(deadline_ms / 1e3));
        }
        let response = tier
            .query(&request)
            .map_err(|e| format!("request {i}: {e:?}"))?;
        println!(
            "  request {i:3}: {} computed / {} cached; flux sum {:.6e}",
            response.ions_computed,
            response.ions_from_cache,
            response.bins.iter().sum::<f64>()
        );
    }
    let snapshot = tier.snapshot();
    println!(
        "tier: {} responded / {} requests, {} reroute(s), {} demoted skip(s), \
         {} rebalance(s)",
        snapshot.counters.responded,
        snapshot.counters.requests,
        snapshot.counters.reroutes,
        snapshot.counters.demoted_skips,
        snapshot.counters.rebalances
    );
    println!(
        "locality: {} route hit(s), {} coalesced, {} fan-out(s), \
         {} affinity pick(s) / {} fallback(s), {} warmed, {} handed off",
        snapshot.counters.route_hits,
        snapshot.counters.coalesced,
        snapshot.counters.fanouts,
        snapshot.counters.affinity_picks,
        snapshot.counters.affinity_fallbacks,
        snapshot.counters.warmed_partials,
        snapshot.counters.handoff_partials
    );
    println!(
        "resilience: {} hedge(s) ({} win(s), {} denied), {} breaker skip(s)",
        snapshot.counters.hedges,
        snapshot.counters.hedge_wins,
        snapshot.counters.hedge_denied,
        snapshot.counters.breaker_skips
    );
    for seg in &snapshot.segments {
        let demoted = seg.replicas.iter().filter(|r| r.demoted).count();
        println!(
            "  shard {}: {} ion(s), capacity cost {}, {} replica(s) ({} demoted)",
            seg.segment,
            seg.owned_ions,
            seg.capacity_cost,
            seg.replicas.len(),
            demoted
        );
    }
    if !snapshot_out.is_empty() {
        std::fs::write(&snapshot_out, snapshot.to_json().to_pretty())
            .map_err(|e| format!("writing {snapshot_out}: {e}"))?;
        println!("wrote tier snapshot to {snapshot_out}");
    }
    let report = tier.shutdown();
    println!(
        "tier drained: {} engine(s), {} leaked grant(s)",
        report.engines.len(),
        report.leaked_grants
    );
    if report.leaked_grants != 0 {
        return Err(format!("{} leaked grants", report.leaked_grants));
    }
    Ok(())
}

fn cmd_remnant(args: &Args) -> Result<(), String> {
    args.refuse_unknown("remnant", "age-yr ambient shells")?;
    const YEAR_S: f64 = 3.156e7;
    let age_yr: f64 = args.get("age-yr", 500.0)?;
    let ambient: f64 = args.get("ambient", 1.0)?;
    let shells: usize = args.get("shells", 8)?;
    let blast = SedovBlast {
        ambient_cm3: ambient,
        ..SedovBlast::default()
    };
    let age = age_yr * YEAR_S;
    println!("Sedov remnant, E = 1e51 erg into n = {ambient} cm^-3, age {age_yr:.0} yr:");
    println!(
        "  shock radius {:.2} pc, velocity {:.0} km/s, post-shock T {:.3e} K",
        blast.shock_radius_cm(age) / 3.086e18,
        blast.shock_velocity_cm_s(age) / 1e5,
        blast.postshock_temperature_k(age)
    );
    println!("  shell   r/R     T (K)        n_e (cm^-3)");
    for i in 0..shells {
        let x = (i as f64 + 0.5) / shells as f64;
        let (t, n) = blast.interior(x, age);
        println!("  {i:5}   {x:4.2}  {t:11.4e}  {n:11.4e}");
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    args.refuse_unknown("run", "spec out")?;
    let path: String = args.get("spec", String::new())?;
    if path.is_empty() {
        return Err("run needs --spec FILE.json".into());
    }
    let json = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let spec = RunSpec::from_json(&json)?;
    let config = spec.into_config()?;
    let points = config.space.len();
    let report = HybridRunner::new(config).run();
    println!(
        "ran {points} grid point(s): {} GPU / {} CPU tasks ({:.2}% GPU), {:.2}s wall",
        report.gpu_tasks,
        report.cpu_tasks,
        report.gpu_ratio_percent(),
        report.wall_s
    );
    let out: String = args.get("out", String::new())?;
    if !out.is_empty() {
        let mut tsv = String::from(
            "point	wavelength_angstrom	normalized_flux
",
        );
        for (i, spectrum) in report.spectra.iter().enumerate() {
            for (wl, flux) in spectrum.normalized().wavelength_series() {
                tsv.push_str(&format!(
                    "{i}	{wl:.6}	{flux:.8e}
"
                ));
            }
        }
        std::fs::write(&out, tsv).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote spectra to {out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(pairs: &[(&str, &str)]) -> Args {
        let argv: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), (*v).to_string()])
            .collect();
        Args::parse(&argv).unwrap()
    }

    #[test]
    fn parser_roundtrips_values() {
        let a = args(&[("temp", "2.5e6"), ("gpus", "3"), ("lines", "true")]);
        assert_eq!(a.get("temp", 0.0).unwrap(), 2.5e6);
        assert_eq!(a.get("gpus", 0usize).unwrap(), 3);
        assert!(a.get("lines", false).unwrap());
        // Defaults apply for absent keys.
        assert_eq!(a.get("qlen", 7u64).unwrap(), 7);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(Args::parse(&["temp".to_string()]).is_err());
        assert!(Args::parse(&["--temp".to_string()]).is_err());
        let a = args(&[("gpus", "three")]);
        assert!(a.get("gpus", 0usize).is_err());
        // Only the allowlisted flags are bare; others still need values.
        assert!(Args::parse(&["--lines".to_string()]).is_err());
        assert!(Args::parse(&["--tune".to_string()]).is_err());
    }

    #[test]
    fn commands_refuse_flags_they_do_not_read() {
        // A typo and retired flags fail before anything runs.
        for (flag, value) in [("gpu", "4"), ("pack-threshold", "24"), ("tune", "true")] {
            let err = cmd_spectrum(&args(&[(flag, value)])).unwrap_err();
            assert!(err.contains(&format!("--{flag}")), "{err}");
        }
        let err = cmd_serve(&args(&[("tune-epoch", "32")])).unwrap_err();
        assert!(err.contains("--tune-epoch"), "{err}");
        // A flag one command reads is refused by another.
        let err = cmd_tune(&args(&[("temp", "1e7")])).unwrap_err();
        assert!(err.contains("--temp"), "{err}");
    }

    #[test]
    fn nei_command_runs() {
        let a = args(&[("element", "6"), ("span", "1e8")]);
        cmd_nei(&a).unwrap();
    }

    #[test]
    fn predict_command_runs() {
        let a = args(&[("gpus", "1"), ("qlen", "6")]);
        cmd_predict(&a).unwrap();
    }

    #[test]
    fn serve_command_runs() {
        let a = args(&[
            ("shards", "2"),
            ("replicas", "1"),
            ("requests", "2"),
            ("max-z", "4"),
            ("bins", "16"),
            ("gpus", "1"),
            ("router-cache", "32"),
            ("hot-k", "2"),
        ]);
        cmd_serve(&a).unwrap();
    }

    #[test]
    fn remnant_command_runs() {
        let a = args(&[("age-yr", "300"), ("shells", "4")]);
        cmd_remnant(&a).unwrap();
    }

    #[test]
    fn run_command_accepts_a_spec_file() {
        let spec =
            r#"{"max_z": 4, "bins": 16, "gpus": 1, "ranks": 2, "rule": "simpson", "panels": 64}"#;
        let path = std::env::temp_dir().join("hspec_test_spec.json");
        std::fs::write(&path, spec).unwrap();
        let a = args(&[("spec", path.to_str().unwrap())]);
        cmd_run(&a).unwrap();
    }

    #[test]
    fn predict_rejects_bad_granularity() {
        let a = args(&[("granularity", "atom")]);
        assert!(cmd_predict(&a).is_err());
    }
}
