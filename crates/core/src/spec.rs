//! Serializable run specifications — "a configuration file", the second
//! source of parameter spaces paper Fig. 1 names.
//!
//! A [`RunSpec`] is the JSON-friendly description of a hybrid run: it
//! owns no atomic database or device handles, just the knobs. The
//! `hspec` CLI and batch scripts deserialize one and call
//! [`RunSpec::into_config`]. A key the dialect does not read — a typo,
//! or one a later version retired — is refused, so a spec file cannot
//! silently run with defaults in its place.

use std::sync::Arc;

use gpu_sim::{DeviceRule, Precision};
use rrc_spectral::{EnergyGrid, Integrator, ParameterSpace};

use crate::runtime::HybridConfig;
use crate::task::Granularity;

/// The integration rule, JSON-friendly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuleSpec {
    /// Composite Simpson (paper GPU default: 64 panels).
    Simpson {
        /// Panels per bin.
        panels: usize,
    },
    /// Romberg with k dichotomy levels.
    Romberg {
        /// Dichotomy levels.
        k: u32,
    },
    /// Fixed-order Gauss–Legendre.
    GaussLegendre {
        /// Points per bin.
        order: usize,
    },
}

impl From<RuleSpec> for DeviceRule {
    fn from(spec: RuleSpec) -> DeviceRule {
        match spec {
            RuleSpec::Simpson { panels } => DeviceRule::Simpson { panels },
            RuleSpec::Romberg { k } => DeviceRule::Romberg { k },
            RuleSpec::GaussLegendre { order } => DeviceRule::GaussLegendre { order },
        }
    }
}

/// A complete, file-loadable description of one hybrid run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Database cutoff element (31 = the full 496-ion census).
    pub max_z: u8,
    /// Energy bins over the waveband.
    pub bins: usize,
    /// Waveband in eV (`[min, max]`); defaults to the paper's 10–45 Å.
    pub band_ev: [f64; 2],
    /// Sampled temperatures, kelvin.
    pub temperatures_k: Vec<f64>,
    /// Sampled densities, cm^-3.
    pub densities_cm3: Vec<f64>,
    /// MPI-style rank count.
    pub ranks: usize,
    /// Simulated GPU count.
    pub gpus: usize,
    /// Maximum queue length.
    pub max_queue_len: u64,
    /// `"ion"` or `"level"`.
    pub granularity: String,
    /// `"cost-aware"` (weighted placement, default) or `"paper-count"`
    /// (the paper's Algorithm 1 task-count policy) — the scheduling A/B
    /// switch.
    pub policy: String,
    /// Device rule. Unlike the other fields this one is required in
    /// JSON, flattened into the top-level object: e.g.
    /// `"rule": "simpson", "panels": 64`.
    pub rule: RuleSpec,
    /// `"single"` or `"double"` kernel arithmetic.
    pub precision: String,
    /// `"exact"` (seed-bitwise scalar math, default) or `"vector"`
    /// (lane-parallel SIMD exp + accumulation).
    pub math: String,
}

/// The keys [`RunSpec::from_json`] reads, besides the rule's own
/// parameter (`panels`, `k` or `order`).
const SPEC_KEYS: [&str; 13] = [
    "max_z",
    "bins",
    "band_ev",
    "temperatures_k",
    "densities_cm3",
    "ranks",
    "gpus",
    "max_queue_len",
    "granularity",
    "policy",
    "rule",
    "precision",
    "math",
];

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            max_z: 31,
            bins: 400,
            band_ev: [
                rrc_spectral::HC_EV_ANGSTROM / 45.0,
                rrc_spectral::HC_EV_ANGSTROM / 10.0,
            ],
            temperatures_k: vec![3.5e6],
            densities_cm3: vec![1.0],
            ranks: 8,
            gpus: 2,
            max_queue_len: 6,
            granularity: "ion".to_string(),
            policy: "cost-aware".to_string(),
            rule: RuleSpec::Simpson { panels: 64 },
            precision: "double".to_string(),
            math: "exact".to_string(),
        }
    }
}

impl RunSpec {
    /// Load from a JSON string. Every field except `rule` is optional
    /// and falls back to [`RunSpec::default`]; the rule is flattened
    /// into the top-level object (`"rule": "simpson", "panels": 64`).
    ///
    /// # Errors
    /// Returns a descriptive message on malformed input, unknown
    /// rule/field values, or a key the dialect does not read.
    pub fn from_json(json: &str) -> Result<RunSpec, String> {
        let doc = jsonlite::Value::parse(json).map_err(|e| e.to_string())?;
        let obj = doc.as_object().ok_or("run spec must be a JSON object")?;
        let mut spec = RunSpec::default();

        let f64_field = |key: &str| -> Result<Option<f64>, String> {
            match obj.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("'{key}' must be a number")),
            }
        };
        let usize_field = |key: &str| -> Result<Option<usize>, String> {
            match obj.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_usize()
                    .map(Some)
                    .ok_or_else(|| format!("'{key}' must be a non-negative integer")),
            }
        };
        let str_field = |key: &str| -> Result<Option<&str>, String> {
            match obj.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(Some)
                    .ok_or_else(|| format!("'{key}' must be a string")),
            }
        };
        let f64_list = |key: &str| -> Result<Option<Vec<f64>>, String> {
            match obj.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_array()
                    .and_then(|a| a.iter().map(jsonlite::Value::as_f64).collect())
                    .map(Some)
                    .ok_or_else(|| format!("'{key}' must be an array of numbers")),
            }
        };

        if let Some(z) = usize_field("max_z")? {
            spec.max_z = u8::try_from(z).map_err(|_| "'max_z' out of range".to_string())?;
        }
        if let Some(bins) = usize_field("bins")? {
            spec.bins = bins;
        }
        if let Some(band) = f64_list("band_ev")? {
            if band.len() != 2 {
                return Err("'band_ev' must be [min, max]".into());
            }
            spec.band_ev = [band[0], band[1]];
        }
        if let Some(t) = f64_list("temperatures_k")? {
            spec.temperatures_k = t;
        }
        if let Some(d) = f64_list("densities_cm3")? {
            spec.densities_cm3 = d;
        }
        if let Some(r) = usize_field("ranks")? {
            spec.ranks = r;
        }
        if let Some(g) = usize_field("gpus")? {
            spec.gpus = g;
        }
        if let Some(q) = f64_field("max_queue_len")? {
            spec.max_queue_len = q as u64;
        }
        if let Some(g) = str_field("granularity")? {
            spec.granularity = g.to_string();
        }
        if let Some(p) = str_field("policy")? {
            spec.policy = p.to_string();
        }
        if let Some(p) = str_field("precision")? {
            spec.precision = p.to_string();
        }
        if let Some(m) = str_field("math")? {
            spec.math = m.to_string();
        }

        // The rule is the one required field: a flattened tagged enum.
        let rule = str_field("rule")?.ok_or("missing required field 'rule'")?;
        spec.rule = match rule {
            "simpson" => RuleSpec::Simpson {
                panels: usize_field("panels")?.ok_or("simpson rule requires 'panels'")?,
            },
            "romberg" => {
                let k = usize_field("k")?.ok_or("romberg rule requires 'k'")?;
                RuleSpec::Romberg {
                    k: u32::try_from(k).map_err(|_| "'k' out of range".to_string())?,
                }
            }
            "gauss_legendre" => RuleSpec::GaussLegendre {
                order: usize_field("order")?.ok_or("gauss_legendre rule requires 'order'")?,
            },
            other => return Err(format!("unknown rule '{other}'")),
        };
        let rule_param = match spec.rule {
            RuleSpec::Simpson { .. } => "panels",
            RuleSpec::Romberg { .. } => "k",
            RuleSpec::GaussLegendre { .. } => "order",
        };
        if let Some(key) = obj
            .keys()
            .find(|key| *key != rule_param && !SPEC_KEYS.contains(&key.as_str()))
        {
            return Err(format!(
                "unknown key '{key}': the run spec does not read it"
            ));
        }
        Ok(spec)
    }

    /// Serialize to the same flattened JSON dialect [`RunSpec::from_json`]
    /// reads.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut b = jsonlite::ObjectBuilder::new()
            .field("max_z", usize::from(self.max_z))
            .field("bins", self.bins)
            .field("band_ev", self.band_ev.to_vec())
            .field("temperatures_k", self.temperatures_k.clone())
            .field("densities_cm3", self.densities_cm3.clone())
            .field("ranks", self.ranks)
            .field("gpus", self.gpus)
            .field("max_queue_len", self.max_queue_len as f64)
            .field("granularity", self.granularity.as_str())
            .field("policy", self.policy.as_str())
            .field("precision", self.precision.as_str())
            .field("math", self.math.as_str());
        b = match self.rule {
            RuleSpec::Simpson { panels } => b.field("rule", "simpson").field("panels", panels),
            RuleSpec::Romberg { k } => b.field("rule", "romberg").field("k", k),
            RuleSpec::GaussLegendre { order } => {
                b.field("rule", "gauss_legendre").field("order", order)
            }
        };
        b.build().to_pretty()
    }

    /// Materialize into a runnable [`HybridConfig`] (generates the
    /// database).
    ///
    /// # Errors
    /// Rejects out-of-range or unknown enum-like fields.
    pub fn into_config(self) -> Result<HybridConfig, String> {
        if self.max_z == 0 || self.max_z > atomdb::MAX_Z {
            return Err(format!("max_z must be 1..={}", atomdb::MAX_Z));
        }
        if self.temperatures_k.is_empty() || self.densities_cm3.is_empty() {
            return Err("need at least one temperature and one density".into());
        }
        let granularity = match self.granularity.as_str() {
            "ion" => Granularity::Ion,
            "level" => Granularity::Level,
            other => return Err(format!("granularity must be ion|level, got '{other}'")),
        };
        let policy = match self.policy.as_str() {
            "cost-aware" => hybrid_sched::SchedPolicy::CostAware,
            "paper-count" => hybrid_sched::SchedPolicy::PaperCount,
            other => {
                return Err(format!(
                    "policy must be cost-aware|paper-count, got '{other}'"
                ))
            }
        };
        let precision = match self.precision.as_str() {
            "double" => Precision::Double,
            "single" => Precision::Single,
            other => return Err(format!("precision must be single|double, got '{other}'")),
        };
        let math = quadrature::MathMode::parse(&self.math)
            .ok_or_else(|| format!("math must be exact|vector, got '{}'", self.math))?;
        let db = atomdb::AtomDatabase::generate(atomdb::DatabaseConfig {
            max_z: self.max_z,
            ..atomdb::DatabaseConfig::default()
        });
        Ok(HybridConfig {
            db: Arc::new(db),
            grid: EnergyGrid::linear(self.band_ev[0], self.band_ev[1], self.bins.max(1)),
            space: ParameterSpace {
                temperatures_k: self.temperatures_k,
                densities_cm3: self.densities_cm3,
                times_s: vec![0.0],
            },
            ranks: self.ranks.max(1),
            gpus: self.gpus,
            max_queue_len: self.max_queue_len.max(1),
            policy,
            granularity,
            gpu_rule: self.rule.into(),
            gpu_precision: precision,
            cpu_integrator: Integrator::paper_cpu(),
            math,
            resilience: crate::resilience::ResilienceConfig::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::HybridRunner;

    #[test]
    fn default_spec_materializes() {
        let cfg = RunSpec {
            max_z: 4,
            bins: 16,
            ..RunSpec::default()
        }
        .into_config()
        .unwrap();
        assert_eq!(cfg.grid.bins(), 16);
        assert_eq!(cfg.space.len(), 1);
    }

    #[test]
    fn json_roundtrip_and_run() {
        let json = r#"{
            "max_z": 4,
            "bins": 24,
            "temperatures_k": [2e6, 4e6],
            "gpus": 1,
            "rule": "simpson",
            "panels": 32
        }"#;
        let spec = RunSpec::from_json(json).unwrap();
        assert_eq!(spec.rule, RuleSpec::Simpson { panels: 32 });
        let cfg = spec.into_config().unwrap();
        assert_eq!(cfg.space.len(), 2);
        let report = HybridRunner::new(cfg).run();
        assert_eq!(report.spectra.len(), 2);
        assert!(report.spectra.iter().all(|s| s.total() > 0.0));
    }

    #[test]
    fn bad_fields_are_rejected_with_messages() {
        let mut spec = RunSpec {
            granularity: "atom".into(),
            ..RunSpec::default()
        };
        assert!(spec
            .clone()
            .into_config()
            .unwrap_err()
            .contains("granularity"));
        spec.granularity = "ion".into();
        spec.precision = "quad".into();
        assert!(spec
            .clone()
            .into_config()
            .unwrap_err()
            .contains("precision"));
        spec.precision = "double".into();
        spec.max_z = 99;
        assert!(spec.clone().into_config().unwrap_err().contains("max_z"));
        spec.max_z = 8;
        spec.math = "fuzzy".into();
        assert!(spec.clone().into_config().unwrap_err().contains("math"));
        spec.math = "vector".into();
        spec.temperatures_k.clear();
        assert!(spec.into_config().is_err());
    }

    #[test]
    fn keys_the_spec_does_not_read_are_refused_by_name() {
        // Retired keys and typos alike: refused, never silently dropped.
        for (key, value) in [
            ("fused", "false"),
            ("pack_threshold", "24"),
            ("tuner_step", "8"),
            ("async_window", "8"),
            ("tune", "true"),
            ("tune_epoch", "16"),
            ("tuner_patience", "4"),
            ("gpu", "4"),
            ("k", "3"), // another rule's parameter
        ] {
            let json = format!(r#"{{"rule": "simpson", "panels": 32, "{key}": {value}}}"#);
            let err = RunSpec::from_json(&json).unwrap_err();
            assert!(err.contains(&format!("'{key}'")), "{key}: {err}");
        }
    }

    #[test]
    fn serialization_is_stable() {
        let spec = RunSpec::default();
        let json = spec.to_json();
        let back = RunSpec::from_json(&json).unwrap();
        // The writer emits shortest-round-trip floats, so the spec
        // survives a serialize/parse cycle exactly.
        assert_eq!(spec, back);
        for rule in [
            RuleSpec::Romberg { k: 9 },
            RuleSpec::GaussLegendre { order: 21 },
        ] {
            let spec = RunSpec {
                rule,
                math: "vector".to_string(),
                ..RunSpec::default()
            };
            assert_eq!(spec, RunSpec::from_json(&spec.to_json()).unwrap());
        }
    }

    #[test]
    fn math_field_materializes() {
        let json = r#"{
            "max_z": 4,
            "bins": 16,
            "math": "vector",
            "rule": "simpson",
            "panels": 32
        }"#;
        let cfg = RunSpec::from_json(json).unwrap().into_config().unwrap();
        assert_eq!(cfg.math, quadrature::MathMode::Vector);
    }
}
