//! Sweep specifications and deterministic point fingerprints.
//!
//! A [`SweepSpec`] is the cross-product description of a batch: lists of
//! topologies, patterns, offered loads and seeds, plus the shared window
//! and router parameters. [`SweepSpec::expand`] flattens it into ordered
//! [`PointSpec`]s, one per (topology, pattern, rate, seed) combination.
//!
//! Every point has a *stable fingerprint* — an FNV-1a 64 hash over a fixed
//! field order with normalized casing and bit-exact float encoding — that
//! keys the run ledger. The fingerprint deliberately excludes the point's
//! position (`idx`) so reordering the spec's lists never invalidates
//! completed work, and it is pinned by a regression test: changing the
//! hash silently would orphan every existing ledger.
//!
//! The JSON here is read with [`crate::json`] and the field reader the
//! single-run [`SimSpec`] shares. Integers may also be spelled as decimal
//! strings, and floats are written in Rust's shortest round-trip form, so
//! every rate reads back bit for bit.

use std::fmt::Write as _;

use noc_topology::Topology;
use noc_traffic::TrafficPattern;

use crate::json::{self, Value};
use crate::spec::{
    integer, number, resolve_pattern, resolve_topology, scalar_default, Fields, SimSpec,
};

/// A batch sweep: the cross product of the four list fields, sharing the
/// scalar parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Topology names (see [`crate::spec`] module docs), outermost axis.
    pub topologies: Vec<String>,
    /// Traffic pattern names.
    pub patterns: Vec<String>,
    /// Offered loads, flits/core/cycle.
    pub rates: Vec<f64>,
    /// Traffic seeds, innermost axis.
    pub seeds: Vec<u64>,
    /// Flits per packet.
    pub packet_len: u16,
    /// Warm-up window, cycles.
    pub warmup: u64,
    /// Measurement window, cycles.
    pub measure: u64,
    /// Drain budget, cycles.
    pub drain: u64,
    /// Virtual channels per port.
    pub vcs: u8,
    /// Buffer depth per VC.
    pub buf_depth: u32,
}

/// One fully-resolved sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Position in the expanded batch (stable output order; not hashed).
    pub idx: usize,
    pub topology: String,
    pub pattern: String,
    pub rate: f64,
    pub seed: u64,
    pub packet_len: u16,
    pub warmup: u64,
    pub measure: u64,
    pub drain: u64,
    pub vcs: u8,
    pub buf_depth: u32,
}

impl SweepSpec {
    /// Parse the JSON sweep format. The four list fields are required and
    /// non-empty; scalars default as in a [`SimSpec`].
    pub fn from_json(text: &str) -> Result<SweepSpec, String> {
        let v: Value = text.parse().map_err(|e| format!("not valid JSON: {e}"))?;
        let f = Fields::new("sweep spec", &v, &["topologies", "patterns", "rates", "seeds"])?;
        let rates = f.list("rates", number, "numbers")?;
        for &r in &rates {
            f.check_rate(r)?;
        }
        Ok(SweepSpec {
            topologies: f.list("topologies", |v| v.as_str().map(str::to_string), "strings")?,
            patterns: f.list("patterns", |v| v.as_str().map(str::to_string), "strings")?,
            rates,
            seeds: f.list("seeds", integer, "integers")?,
            packet_len: f.scalar("packet_len")?,
            warmup: f.scalar("warmup")?,
            measure: f.scalar("measure")?,
            drain: f.scalar("drain")?,
            vcs: f.scalar("vcs")?,
            buf_depth: f.scalar("buf_depth")?,
        })
    }

    /// Serialize to the canonical JSON sweep format (fixed field order, so
    /// equal specs produce byte-equal files).
    pub fn to_json(&self) -> String {
        let quoted = |names: &[String]| names.iter().map(|n| json::quote(n)).collect::<Vec<_>>();
        let mut s = String::from("{");
        write!(s, "\"topologies\":[{}]", quoted(&self.topologies).join(",")).unwrap();
        write!(s, ",\"patterns\":[{}]", quoted(&self.patterns).join(",")).unwrap();
        let rates: Vec<String> = self.rates.iter().map(|r| format!("{r:?}")).collect();
        write!(s, ",\"rates\":[{}]", rates.join(",")).unwrap();
        let seeds: Vec<String> = self.seeds.iter().map(|x| x.to_string()).collect();
        write!(s, ",\"seeds\":[{}]", seeds.join(",")).unwrap();
        write!(
            s,
            ",\"packet_len\":{},\"warmup\":{},\"measure\":{},\"drain\":{},\"vcs\":{},\"buf_depth\":{}}}",
            self.packet_len, self.warmup, self.measure, self.drain, self.vcs, self.buf_depth
        )
        .unwrap();
        s
    }

    /// Flatten into ordered points: topology-major, then pattern, rate,
    /// seed. Every (topology, pattern) pair is validated against the
    /// resolvers in [`crate::spec`], and duplicate fingerprints (repeated
    /// list entries) are rejected — they would alias in the ledger.
    pub fn expand(&self) -> Result<Vec<PointSpec>, String> {
        let mut points = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for topology in &self.topologies {
            for pattern in &self.patterns {
                // Resolve once per pair; errors name the offending entry.
                resolve_topology(topology)?;
                resolve_pattern(pattern, topology)?;
                for &rate in &self.rates {
                    for &seed in &self.seeds {
                        let p = PointSpec {
                            idx: points.len(),
                            topology: topology.clone(),
                            pattern: pattern.clone(),
                            rate,
                            seed,
                            packet_len: self.packet_len,
                            warmup: self.warmup,
                            measure: self.measure,
                            drain: self.drain,
                            vcs: self.vcs,
                            buf_depth: self.buf_depth,
                        };
                        if !seen.insert(p.fingerprint()) {
                            return Err(format!(
                                "sweep spec: duplicate point {} (repeated list entry?)",
                                p.label()
                            ));
                        }
                        points.push(p);
                    }
                }
            }
        }
        Ok(points)
    }

    /// Size of the cross product *without expanding it* — the admission
    /// check against adversarial or fat-fingered specs must not allocate
    /// one `PointSpec` per point first. u128 so the product of four
    /// usize-sized lists cannot itself overflow.
    pub fn cross_product(&self) -> u128 {
        (self.topologies.len() as u128)
            * (self.patterns.len() as u128)
            * (self.rates.len() as u128)
            * (self.seeds.len() as u128)
    }

    /// Fingerprint of the whole sweep: FNV-1a over every point
    /// fingerprint in expansion order. Two specs that expand to the same
    /// batch are interchangeable for resume purposes.
    pub fn fingerprint(&self) -> Result<u64, String> {
        let mut h = Fnv::new();
        for p in self.expand()? {
            h.u64_le(p.fingerprint());
        }
        Ok(h.finish())
    }
}

impl PointSpec {
    /// Stable identity of this point in the run ledger. Hashes the
    /// simulation-relevant fields in a fixed tagged order — never `idx`,
    /// never map iteration order — with topology/pattern case-normalized
    /// and the rate hashed bit-exactly via `f64::to_bits`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.tag("topology", self.topology.to_ascii_lowercase().as_bytes());
        h.tag("pattern", self.pattern.to_ascii_lowercase().as_bytes());
        h.tag("rate", &self.rate.to_bits().to_le_bytes());
        h.tag("seed", &self.seed.to_le_bytes());
        h.tag("packet_len", &u64::from(self.packet_len).to_le_bytes());
        h.tag("warmup", &self.warmup.to_le_bytes());
        h.tag("measure", &self.measure.to_le_bytes());
        h.tag("drain", &self.drain.to_le_bytes());
        h.tag("vcs", &u64::from(self.vcs).to_le_bytes());
        h.tag("buf_depth", &u64::from(self.buf_depth).to_le_bytes());
        h.finish()
    }

    /// The fingerprint as the 16-hex-digit ledger key.
    pub fn fp_hex(&self) -> String {
        format!("{:016x}", self.fingerprint())
    }

    /// Human-readable point name for logs and errors.
    pub fn label(&self) -> String {
        format!("{}/{}@{:?}#{}", self.topology, self.pattern, self.rate, self.seed)
    }

    /// Resolve the topology by name ([`resolve_topology`]).
    pub fn topology(&self) -> Result<Box<dyn Topology>, String> {
        resolve_topology(&self.topology)
    }

    /// Resolve the traffic pattern by name ([`resolve_pattern`]).
    pub fn traffic(&self) -> Result<TrafficPattern, String> {
        resolve_pattern(&self.pattern, &self.topology)
    }

    /// The equivalent single-point [`SimSpec`].
    pub fn sim_spec(&self) -> SimSpec {
        SimSpec {
            topology: self.topology.clone(),
            pattern: self.pattern.clone(),
            rate: self.rate,
            packet_len: self.packet_len,
            warmup: self.warmup,
            measure: self.measure,
            drain: self.drain,
            seeds: vec![self.seed],
            vcs: self.vcs,
            buf_depth: self.buf_depth,
            speculative: false,
        }
    }
}

/// Empty lists, with the scalars at their spec-format defaults.
impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            topologies: Vec::new(),
            patterns: Vec::new(),
            rates: Vec::new(),
            seeds: Vec::new(),
            packet_len: scalar_default("packet_len"),
            warmup: scalar_default("warmup"),
            measure: scalar_default("measure"),
            drain: scalar_default("drain"),
            vcs: scalar_default("vcs"),
            buf_depth: scalar_default("buf_depth"),
        }
    }
}

/// No topology or pattern, rate and seed 0, with the scalars at their
/// spec-format defaults.
impl Default for PointSpec {
    fn default() -> Self {
        PointSpec {
            idx: 0,
            topology: String::new(),
            pattern: String::new(),
            rate: 0.0,
            seed: 0,
            packet_len: scalar_default("packet_len"),
            warmup: scalar_default("warmup"),
            measure: scalar_default("measure"),
            drain: scalar_default("drain"),
            vcs: scalar_default("vcs"),
            buf_depth: scalar_default("buf_depth"),
        }
    }
}

/// FNV-1a 64: tiny, dependency-free, and — unlike `DefaultHasher` — its
/// output is stable across Rust releases, which the on-disk ledger needs.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A tagged field: `name`, a NUL separator, the value, another NUL.
    /// The separators keep adjacent fields from aliasing.
    fn tag(&mut self, name: &str, value: &[u8]) {
        self.bytes(name.as_bytes());
        self.bytes(&[0]);
        self.bytes(value);
        self.bytes(&[0]);
    }

    fn u64_le(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        SweepSpec::from_json(
            r#"{"topologies": ["cmesh-64", "wcmesh-64"], "patterns": ["uniform", "bitrev"],
                "rates": [0.01, 0.02], "seeds": [1, 2],
                "warmup": 100, "measure": 400, "drain": 1000}"#,
        )
        .unwrap()
    }

    #[test]
    fn parses_and_expands_cross_product() {
        let spec = small_spec();
        assert_eq!(spec.packet_len, 4, "scalar default");
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), 16);
        assert_eq!(spec.cross_product(), 16, "cross_product matches expansion");
        // Topology-major, seed-innermost, sequential idx.
        assert_eq!(points[0].label(), "cmesh-64/uniform@0.01#1");
        assert_eq!(points[1].label(), "cmesh-64/uniform@0.01#2");
        assert_eq!(points[2].label(), "cmesh-64/uniform@0.02#1");
        assert_eq!(points[15].label(), "wcmesh-64/bitrev@0.02#2");
        assert!(points.iter().enumerate().all(|(i, p)| p.idx == i));
    }

    /// Absent scalars take the same values in the parser and in
    /// `Default`, for the sweep and for each point it expands to.
    #[test]
    fn minimal_spec_equals_the_default_literal() {
        let spec = SweepSpec::from_json(
            r#"{"topologies": ["own-256"], "patterns": ["uniform"], "rates": [0.03],
                "seeds": [7]}"#,
        )
        .unwrap();
        let expected = SweepSpec {
            topologies: vec!["own-256".into()],
            patterns: vec!["uniform".into()],
            rates: vec![0.03],
            seeds: vec![7],
            ..Default::default()
        };
        assert_eq!(spec, expected);
        let point = PointSpec {
            topology: "own-256".into(),
            pattern: "uniform".into(),
            rate: 0.03,
            seed: 7,
            ..Default::default()
        };
        assert_eq!(spec.expand().unwrap(), [point]);
    }

    #[test]
    fn rejects_bad_specs() {
        let err = |j: &str| SweepSpec::from_json(j).unwrap_err();
        assert!(err("[]").contains("expected an object"));
        assert!(err(r#"{"patterns": ["un"], "rates": [0.1], "seeds": [1]}"#)
            .contains("missing field \"topologies\""));
        assert!(err(r#"{"topologies": [], "patterns": ["un"], "rates": [0.1], "seeds": [1]}"#)
            .contains("must not be empty"));
        assert!(err(
            r#"{"topologies": ["cmesh-64"], "patterns": ["un"], "rates": [1.5], "seeds": [1]}"#
        )
        .contains("outside [0, 1]"));
        assert!(err(
            r#"{"topologies": ["cmesh-64"], "patterns": ["un"], "rates": [0.1], "seeds": [1],
                "typo_field": 3}"#
        )
        .contains("unknown field"));
        // Unknown topology / pattern and duplicate entries fail at expand.
        let bad = SweepSpec { topologies: vec!["hypercube-9".into()], ..small_spec() };
        assert!(bad.expand().unwrap_err().contains("unknown topology"));
        let dup = SweepSpec { seeds: vec![1, 1], ..small_spec() };
        assert!(dup.expand().unwrap_err().contains("duplicate point"));
    }

    #[test]
    fn json_round_trips_canonically() {
        let spec = small_spec();
        let text = spec.to_json();
        let back = SweepSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text, "canonical form is a fixed point");
    }

    #[test]
    fn fingerprint_ignores_idx_and_case_but_not_parameters() {
        let points = small_spec().expand().unwrap();
        let p = &points[0];
        let mut renumbered = p.clone();
        renumbered.idx = 99;
        assert_eq!(renumbered.fingerprint(), p.fingerprint(), "idx must not be hashed");
        let mut upper = p.clone();
        upper.topology = p.topology.to_ascii_uppercase();
        assert_eq!(upper.fingerprint(), p.fingerprint(), "topology case-normalizes");
        for (i, a) in points.iter().enumerate() {
            for b in points.iter().skip(i + 1) {
                assert_ne!(a.fingerprint(), b.fingerprint(), "{} vs {}", a.label(), b.label());
            }
        }
        let mut deeper = p.clone();
        deeper.buf_depth += 1;
        assert_ne!(deeper.fingerprint(), p.fingerprint());
    }

    /// The service hashes every POSTed spec, so a rate that reads back one
    /// ulp off would move that point's fingerprint and results bytes.
    /// These are 17-digit rates of the kind perfbench's `svc-overlap`
    /// workload sends (a pool rate plus k·1e-6).
    #[test]
    fn seventeen_digit_rates_keep_their_fingerprints() {
        let spec = SweepSpec {
            rates: vec![0.030036999999999998, 0.050001000000000004, 0.02 + 3e-6, 5e-324],
            ..small_spec()
        };
        let text = spec.to_json();
        assert!(text.contains("0.030036999999999998,0.050001000000000004"), "{text}");
        let back = SweepSpec::from_json(&text).unwrap();
        for (a, b) in spec.rates.iter().zip(&back.rates) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a:?} read back as {b:?}");
        }
        let fps =
            |s: &SweepSpec| s.expand().unwrap().iter().map(|p| p.fingerprint()).collect::<Vec<_>>();
        assert_eq!(fps(&back), fps(&spec));
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    /// An f64-backed parser rounds 2⁵³ + 1 to 2⁵³; a bare JSON seed must
    /// expand to exactly the integer written.
    #[test]
    fn seeds_beyond_two_to_the_53_stay_exact() {
        let spec = SweepSpec::from_json(
            r#"{"topologies": ["cmesh-64"], "patterns": ["uniform"], "rates": [0.01],
                "seeds": [9007199254740993, 18446744073709551615]}"#,
        )
        .unwrap();
        let seeds: Vec<u64> = spec.expand().unwrap().iter().map(|p| p.seed).collect();
        assert_eq!(seeds, [9_007_199_254_740_993, u64::MAX]);
        assert!(spec.to_json().contains("\"seeds\":[9007199254740993,18446744073709551615]"));
    }

    /// The on-disk ledger key. If this value changes, every existing
    /// run-dir silently orphans: do not "fix" the expectation without a
    /// ledger-format version bump.
    #[test]
    fn fingerprint_is_pinned() {
        let p = PointSpec {
            idx: 0,
            topology: "own-256".into(),
            pattern: "uniform".into(),
            rate: 0.03,
            seed: 0x0517_2018,
            packet_len: 4,
            warmup: 2_000,
            measure: 10_000,
            drain: 30_000,
            vcs: 4,
            buf_depth: 4,
        };
        assert_eq!(p.fp_hex(), "bfe09fdd77f08a0f", "pinned ledger fingerprint drifted");
    }
}
