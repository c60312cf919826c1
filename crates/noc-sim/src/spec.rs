//! Declarative experiment specifications (JSON).
//!
//! A [`SimSpec`] describes a complete experiment — topology, traffic,
//! load, windows, replication seeds — and can be parsed from JSON, so
//! custom studies run from a file instead of code:
//!
//! ```json
//! {
//!   "topology": "own-256",
//!   "pattern": "uniform",
//!   "rate": 0.03,
//!   "packet_len": 4,
//!   "warmup": 2000, "measure": 10000, "drain": 30000,
//!   "seeds": [1, 2, 3, 4]
//! }
//! ```
//!
//! Topologies: `cmesh-N`, `wcmesh-N`, `optxb-N`, `pclos-N`, `own-256`,
//! `own-1024`, `own-256-center`, `own-256-diag-spares`. Patterns:
//! `uniform`, `bitrev`, `transpose`, `shuffle`, `neighbor`,
//! `bitcomplement`, `hotspot:<core>:<fraction>`, `permutation:<seed>`.
//!
//! ```
//! use noc_sim::SimSpec;
//! let spec = SimSpec::from_json(
//!     r#"{"topology": "own-256", "pattern": "bitrev", "rate": 0.02}"#,
//! ).unwrap();
//! assert_eq!(spec.topology().unwrap().num_cores(), 256);
//! ```

use noc_core::RouterConfig;
use noc_topology::{
    AntennaPlacement, CMesh, OptXb, Own1024, Own256, Own256Reconfig, PClos, ReconfigPolicy,
    Topology, WirelessCMesh,
};
use noc_traffic::TrafficPattern;

use crate::json::{Map, Value};
use crate::report::Report;
use crate::sim::SimConfig;
use crate::sweep::replicate;

/// A declarative experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Topology name (see module docs).
    pub topology: String,
    /// Pattern name (see module docs).
    pub pattern: String,
    /// Offered load, flits/core/cycle.
    pub rate: f64,
    pub packet_len: u16,
    pub warmup: u64,
    pub measure: u64,
    pub drain: u64,
    /// Replication seeds (at least one).
    pub seeds: Vec<u64>,
    /// Virtual channels per port.
    pub vcs: u8,
    /// Buffer depth per VC.
    pub buf_depth: u32,
    /// Speculative RC+VCA pipeline.
    pub speculative: bool,
}

impl SimSpec {
    /// Parse from JSON. `topology`, `pattern` and `rate` are required.
    /// The scalars default as in a sweep spec (`packet_len` 4, `warmup`
    /// 2 000, `measure` 10 000, `drain` 30 000, `vcs` 4, `buf_depth` 4),
    /// `seeds` to `[0x0517_2018]` and `speculative` to false. Unknown keys
    /// and a rate outside [0, 1] are errors.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let v: Value = s.parse().map_err(|e| format!("not valid JSON: {e}"))?;
        let f = Fields::new("spec", &v, &["topology", "pattern", "rate", "seeds", "speculative"])?;
        Ok(SimSpec {
            topology: f.string("topology")?,
            pattern: f.string("pattern")?,
            rate: f.check_rate(f.required("rate", number, "a number")?)?,
            packet_len: f.scalar("packet_len")?,
            warmup: f.scalar("warmup")?,
            measure: f.scalar("measure")?,
            drain: f.scalar("drain")?,
            seeds: if f.has("seeds") {
                f.list("seeds", integer, "integers")?
            } else {
                vec![0x0517_2018]
            },
            vcs: f.scalar("vcs")?,
            buf_depth: f.scalar("buf_depth")?,
            speculative: f.optional("speculative", Value::as_bool, "a boolean")?.unwrap_or(false),
        })
    }

    /// Resolve the topology by name ([`resolve_topology`]).
    pub fn topology(&self) -> Result<Box<dyn Topology>, String> {
        resolve_topology(&self.topology)
    }

    /// Resolve the traffic pattern by name ([`resolve_pattern`]).
    pub fn traffic(&self) -> Result<TrafficPattern, String> {
        resolve_pattern(&self.pattern, &self.topology)
    }

    /// Run the experiment (replicated across seeds) and report.
    pub fn run(&self) -> Result<Report, String> {
        if self.seeds.is_empty() {
            return Err("at least one seed is required".into());
        }
        let topo = self.topology()?;
        let pattern = self.traffic()?;
        let mut router = RouterConfig::new(self.vcs, self.buf_depth);
        if self.speculative {
            router = router.with_speculation();
        }
        let base = SimConfig {
            rate: self.rate,
            pattern,
            packet_len: self.packet_len,
            warmup: self.warmup,
            measure: self.measure,
            drain: self.drain,
            router,
            ..Default::default()
        };
        let (lat, thr) = replicate(topo.as_ref(), base, &self.seeds);
        let mut r = Report::new(
            format!(
                "Custom experiment — {} / {} @ {} flits/core/cycle ({} seeds)",
                topo.name(),
                self.pattern,
                self.rate,
                self.seeds.len()
            ),
            &["metric", "mean", "stddev", "ci95"],
        );
        r.row(vec![
            "latency (cycles)".into(),
            format!("{:.2}", lat.mean),
            format!("{:.2}", lat.stddev),
            format!("±{:.2}", lat.ci95),
        ]);
        r.row(vec![
            "throughput (flits/core/cycle)".into(),
            format!("{:.5}", thr.mean),
            format!("{:.5}", thr.stddev),
            format!("±{:.5}", thr.ci95),
        ]);
        Ok(r)
    }
}

/// Resolve a topology name (see the module docs).
pub fn resolve_topology(name: &str) -> Result<Box<dyn Topology>, String> {
    let t = name.to_ascii_lowercase();
    if let Some(n) = t.strip_prefix("cmesh-") {
        let cores: u32 = n.parse().map_err(|_| format!("bad core count in {t}"))?;
        return Ok(Box::new(CMesh::new(cores)));
    }
    if let Some(n) = t.strip_prefix("wcmesh-") {
        let cores: u32 = n.parse().map_err(|_| format!("bad core count in {t}"))?;
        return Ok(Box::new(WirelessCMesh::new(cores)));
    }
    if let Some(n) = t.strip_prefix("optxb-") {
        let cores: u32 = n.parse().map_err(|_| format!("bad core count in {t}"))?;
        return Ok(Box::new(OptXb::new(cores)));
    }
    if let Some(n) = t.strip_prefix("pclos-") {
        let cores: u32 = n.parse().map_err(|_| format!("bad core count in {t}"))?;
        return Ok(Box::new(PClos::new(cores)));
    }
    match t.as_str() {
        "own-256" => Ok(Box::new(Own256::new())),
        "own-1024" => Ok(Box::new(Own1024::new())),
        "own-256-center" => Ok(Box::new(Own256::with_placement(AntennaPlacement::Center))),
        "own-256-diag-spares" => Ok(Box::new(Own256Reconfig::new(ReconfigPolicy::Diagonal))),
        other => Err(format!("unknown topology {other:?}")),
    }
}

/// Resolve a traffic pattern name (see the module docs). A hotspot core
/// is checked against the core count of `topology` when that resolves.
pub fn resolve_pattern(pattern: &str, topology: &str) -> Result<TrafficPattern, String> {
    let p = pattern.to_ascii_lowercase();
    let parts: Vec<&str> = p.split(':').collect();
    match parts[0] {
        "uniform" | "un" => Ok(TrafficPattern::Uniform),
        "bitrev" | "br" => Ok(TrafficPattern::BitReversal),
        "transpose" | "mt" => Ok(TrafficPattern::Transpose),
        "shuffle" | "ps" => Ok(TrafficPattern::PerfectShuffle),
        "neighbor" | "nbr" => Ok(TrafficPattern::Neighbor),
        "bitcomplement" | "bc" => Ok(TrafficPattern::BitComplement),
        "hotspot" if parts.len() == 3 => {
            let target: u32 = parts[1].parse().map_err(|_| "bad hotspot core".to_string())?;
            let fraction: f64 = parts[2].parse().map_err(|_| "bad hotspot fraction".to_string())?;
            // Reject here rather than drawing with a fraction that is
            // not a probability or addressing a nonexistent core.
            if !(0.0..=1.0).contains(&fraction) {
                return Err(format!("hotspot fraction {fraction} must be within [0, 1]"));
            }
            if let Ok(topo) = resolve_topology(topology) {
                if target >= topo.num_cores() {
                    return Err(format!(
                        "hotspot core {target} out of range for {} ({} cores)",
                        topo.name(),
                        topo.num_cores()
                    ));
                }
            }
            Ok(TrafficPattern::Hotspot { target, fraction })
        }
        "permutation" if parts.len() == 2 => {
            let seed = parts[1].parse().map_err(|_| "bad permutation seed".to_string())?;
            Ok(TrafficPattern::Permutation { seed })
        }
        other => Err(format!("unknown pattern {other:?}")),
    }
}

/// The scalar run parameters both spec formats share, with their
/// defaults.
const SCALAR_DEFAULTS: [(&str, u64); 6] = [
    ("packet_len", 4),
    ("warmup", 2_000),
    ("measure", 10_000),
    ("drain", 30_000),
    ("vcs", 4),
    ("buf_depth", 4),
];

/// The default of the scalar run parameter `key`, from
/// [`SCALAR_DEFAULTS`].
pub(crate) fn scalar_default<T: TryFrom<u64>>(key: &str) -> T {
    let (_, n) = SCALAR_DEFAULTS.iter().find(|(k, _)| *k == key).expect("a scalar run parameter");
    T::try_from(*n).ok().expect("a default fits its field")
}

/// The field reader of both spec formats ([`SimSpec`] and
/// [`crate::SweepSpec`]). Construction rejects anything but an object and
/// any key outside the format's own keys and [`SCALAR_DEFAULTS`]; every
/// error names the format.
pub(crate) struct Fields<'a> {
    what: &'static str,
    m: &'a Map,
}

impl<'a> Fields<'a> {
    pub(crate) fn new(what: &'static str, v: &'a Value, own: &[&str]) -> Result<Self, String> {
        let m = v.as_object().ok_or_else(|| format!("{what}: expected an object"))?;
        let known = |k: &str| own.contains(&k) || SCALAR_DEFAULTS.iter().any(|(s, _)| *s == k);
        if let Some(key) = m.keys().find(|k| !known(k)) {
            return Err(format!("{what}: unknown field {key:?}"));
        }
        Ok(Fields { what, m })
    }

    pub(crate) fn has(&self, key: &str) -> bool {
        self.m.contains_key(key)
    }

    /// An optional field, read by `read`; `kind` names what it must be.
    pub(crate) fn optional<T>(
        &self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
        kind: &str,
    ) -> Result<Option<T>, String> {
        match self.m.get(key) {
            None => Ok(None),
            Some(v) => read(v)
                .map(Some)
                .ok_or_else(|| format!("{}: field {key:?} must be {kind}", self.what)),
        }
    }

    pub(crate) fn required<T>(
        &self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
        kind: &str,
    ) -> Result<T, String> {
        self.optional(key, read, kind)?
            .ok_or_else(|| format!("{}: missing field {key:?}", self.what))
    }

    pub(crate) fn string(&self, key: &str) -> Result<String, String> {
        self.required(key, |v| v.as_str().map(str::to_string), "a string")
    }

    /// A required non-empty array, each entry read by `read`.
    pub(crate) fn list<T>(
        &self,
        key: &str,
        read: fn(&Value) -> Option<T>,
        kind: &str,
    ) -> Result<Vec<T>, String> {
        let arr = self.required(key, Value::as_array, "an array")?;
        if arr.is_empty() {
            return Err(format!("{}: field {key:?} must not be empty", self.what));
        }
        arr.iter()
            .map(|v| {
                read(v).ok_or_else(|| format!("{}: {key:?} entries must be {kind}", self.what))
            })
            .collect()
    }

    /// An offered load, which must lie in [0, 1].
    pub(crate) fn check_rate(&self, r: f64) -> Result<f64, String> {
        if !(0.0..=1.0).contains(&r) {
            return Err(format!("{}: rate {r} outside [0, 1]", self.what));
        }
        Ok(r)
    }

    /// A scalar run parameter: an integer, or its default from
    /// [`SCALAR_DEFAULTS`] when absent.
    pub(crate) fn scalar<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let n = self.optional(key, integer, "an integer")?.unwrap_or_else(|| scalar_default(key));
        T::try_from(n).map_err(|_| format!("{}: {key} {n} too large", self.what))
    }
}

/// A JSON number or its decimal-string spelling (the house integer
/// encoding), as f64.
pub(crate) fn number(v: &Value) -> Option<f64> {
    v.as_f64().or_else(|| v.as_str().and_then(|s| s.parse().ok()))
}

/// A JSON integer or its decimal-string spelling, as u64.
pub(crate) fn integer(v: &Value) -> Option<u64> {
    v.as_u64().or_else(|| v.as_str().and_then(|s| s.parse().ok()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_spec_with_defaults() {
        let s =
            SimSpec::from_json(r#"{"topology": "cmesh-64", "pattern": "uniform", "rate": 0.02}"#)
                .unwrap();
        assert_eq!(s.packet_len, 4);
        assert_eq!(s.seeds.len(), 1);
        assert!(!s.speculative);
        assert_eq!(s.topology().unwrap().num_cores(), 64);
    }

    #[test]
    fn resolves_all_topology_names() {
        for (name, cores) in [
            ("cmesh-256", 256),
            ("wcmesh-256", 256),
            ("optxb-64", 64),
            ("pclos-256", 256),
            ("own-256", 256),
            ("own-1024", 1024),
            ("own-256-center", 256),
            ("own-256-diag-spares", 256),
        ] {
            let s = SimSpec::from_json(&format!(
                r#"{{"topology": "{name}", "pattern": "un", "rate": 0.01}}"#
            ))
            .unwrap();
            assert_eq!(s.topology().unwrap().num_cores(), cores, "{name}");
        }
    }

    #[test]
    fn resolves_parameterized_patterns() {
        let mk = |p: &str| {
            SimSpec::from_json(&format!(
                r#"{{"topology": "cmesh-64", "pattern": "{p}", "rate": 0.01}}"#
            ))
            .unwrap()
            .traffic()
        };
        assert_eq!(mk("bitrev").unwrap(), TrafficPattern::BitReversal);
        assert_eq!(
            mk("hotspot:7:0.5").unwrap(),
            TrafficPattern::Hotspot { target: 7, fraction: 0.5 }
        );
        assert_eq!(mk("permutation:99").unwrap(), TrafficPattern::Permutation { seed: 99 });
        assert!(mk("nope").is_err());
        assert!(mk("hotspot:bad").is_err());
        // Out-of-range parameters are rejected at parse time, not at the
        // first injection.
        assert!(mk("hotspot:7:1.5").unwrap_err().contains("within [0, 1]"));
        assert!(mk("hotspot:7:-0.1").unwrap_err().contains("within [0, 1]"));
        assert!(mk("hotspot:64:0.5").unwrap_err().contains("out of range"));
        assert!(mk("hotspot:63:0.5").is_ok(), "last core is a valid target");
    }

    #[test]
    fn unknown_topology_is_an_error() {
        let s =
            SimSpec::from_json(r#"{"topology": "hypercube-64", "pattern": "un", "rate": 0.01}"#)
                .unwrap();
        assert!(s.topology().is_err());
    }

    #[test]
    fn runs_end_to_end() {
        let s = SimSpec::from_json(
            r#"{"topology": "cmesh-64", "pattern": "uniform", "rate": 0.02,
                "warmup": 200, "measure": 800, "drain": 3000, "seeds": [1, 2]}"#,
        )
        .unwrap();
        let r = s.run().unwrap();
        assert_eq!(r.rows.len(), 2);
        let lat: f64 = r.rows[0][1].parse().unwrap();
        assert!(lat > 5.0);
    }

    #[test]
    fn spec_reads_every_field() {
        let s = SimSpec::from_json(
            r#"{"topology": "own-256", "pattern": "bc", "rate": 0.030036999999999998,
                "packet_len": 5, "warmup": 11, "measure": 12, "drain": 13,
                "seeds": [9007199254740993, "7"], "vcs": 6, "buf_depth": 3,
                "speculative": true}"#,
        )
        .unwrap();
        let expected = SimSpec {
            topology: "own-256".into(),
            pattern: "bc".into(),
            rate: 0.030036999999999998,
            packet_len: 5,
            warmup: 11,
            measure: 12,
            drain: 13,
            seeds: vec![9_007_199_254_740_993, 7],
            vcs: 6,
            buf_depth: 3,
            speculative: true,
        };
        assert_eq!(s, expected);
    }

    /// A misspelled key must not fall back to a default silently:
    /// `"warmpu": 100` would run the 2 000-cycle warm-up.
    #[test]
    fn unknown_keys_are_rejected() {
        let err = SimSpec::from_json(
            r#"{"topology": "cmesh-64", "pattern": "uniform", "rate": 0.02, "warmpu": 100}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown field \"warmpu\""), "{err}");
    }

    /// A rate outside [0, 1] would panic in `BernoulliInjector::new`; it
    /// must be a parse error, before any simulation.
    #[test]
    fn out_of_range_rates_are_rejected() {
        for rate in ["-0.1", "1.5", "\"NaN\""] {
            let err = SimSpec::from_json(&format!(
                r#"{{"topology": "cmesh-64", "pattern": "uniform", "rate": {rate}}}"#
            ))
            .unwrap_err();
            assert!(err.contains("outside [0, 1]"), "{rate}: {err}");
        }
        for rate in ["0", "1", "0.0", "1e0"] {
            let json =
                format!(r#"{{"topology": "cmesh-64", "pattern": "uniform", "rate": {rate}}}"#);
            assert!(SimSpec::from_json(&json).is_ok(), "{rate}");
        }
    }

    #[test]
    fn malformed_fields_are_rejected() {
        let err = |j: &str| SimSpec::from_json(j).unwrap_err();
        assert!(err("[1]").contains("expected an object"));
        assert!(err("{").contains("not valid JSON"));
        assert!(err(r#"{"pattern": "un", "rate": 0.1}"#).contains("missing field \"topology\""));
        assert!(
            err(r#"{"topology": "cmesh-64", "pattern": "un"}"#).contains("missing field \"rate\"")
        );
        let base = r#""topology": "cmesh-64", "pattern": "un", "rate": 0.1"#;
        assert!(err(&format!("{{{base}, \"seeds\": []}}")).contains("must not be empty"));
        assert!(err(&format!("{{{base}, \"seeds\": [1.5]}}")).contains("must be integers"));
        assert!(err(&format!("{{{base}, \"warmup\": -1}}")).contains("must be an integer"));
        assert!(err(&format!("{{{base}, \"vcs\": 256}}")).contains("vcs 256 too large"));
        assert!(err(&format!("{{{base}, \"speculative\": 1}}")).contains("must be a boolean"));
        assert!(
            err(r#"{"topology": 64, "pattern": "un", "rate": 0.1}"#).contains("must be a string")
        );
    }
}
