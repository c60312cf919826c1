//! The append-only run ledger: a JSONL write-ahead log of sweep progress.
//!
//! One line per event, flushed as written, so the ledger is exactly as
//! current as the last completed `write(2)` even when the process is
//! SIGKILLed. Two record kinds:
//!
//! ```json
//! {"schema":"own-noc-ledger/v1","kind":"run-start","spec_fp":"<16 hex>","points":"12"}
//! {"kind":"point","fp":"<16 hex>","idx":"3","attempt":"0","state":"running"}
//! ```
//!
//! Point states follow the supervisor's lifecycle: `running` is written
//! *before* an attempt starts (so a kill mid-attempt leaves it as the
//! last word — the tell for "interrupted, not finished"), then exactly
//! one of `done` (with a `metrics` object), `failed` (with a `reason`),
//! `timed-out`, or — once the retry budget is spent — `gave-up`.
//!
//! Replay is last-state-wins per fingerprint. A torn tail (the line being
//! written when the process died) is tolerated: replay stops at the first
//! line that does not parse and reports everything before it. Records
//! with an unknown `kind` are skipped, not fatal — a newer build may have
//! appended kinds this one does not know. House encoding as elsewhere:
//! integers are decimal strings, floats use Rust's shortest round-trip
//! form (so `done` metrics reconstruct bit-exactly).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;

use crate::json::{self, Value};

/// Schema tag of every `run-start` record.
pub const LEDGER_SCHEMA: &str = "own-noc-ledger/v1";

/// Ledger file name inside a run directory.
pub const LEDGER_FILE: &str = "ledger.jsonl";

/// The measurement summary a `done` point persists — everything the
/// merged results file needs, small enough to inline in one ledger line.
#[derive(Debug, Clone, PartialEq)]
pub struct PointMetrics {
    /// Average packet latency over the measurement window, cycles.
    pub avg_latency: f64,
    /// Approximate latency quantiles, cycles.
    pub p50_latency: u64,
    pub p95_latency: u64,
    pub p99_latency: u64,
    /// Accepted throughput, flits/core/cycle.
    pub throughput: f64,
    /// Fraction of resolved packets delivered intact.
    pub delivered_fraction: f64,
    /// Packets whose latency was measured.
    pub packets_measured: u64,
    /// Total simulated cycles.
    pub cycles: u64,
}

/// A point's journaled state (the `pending` state is the absence of any
/// record for its fingerprint).
#[derive(Debug, Clone, PartialEq)]
pub enum PointState {
    /// An attempt started and has not (yet) recorded an outcome. Seen as
    /// the *final* state, it means the supervisor was killed mid-attempt.
    Running,
    /// Finished; metrics recorded.
    Done(PointMetrics),
    /// The attempt failed (panic, stall, setup error).
    Failed { reason: String },
    /// The attempt exceeded the per-point wall-clock budget.
    TimedOut,
    /// The retry budget is spent; the supervisor stopped trying.
    GaveUp { reason: String },
}

impl PointState {
    /// The `state` word written to and read from the ledger.
    pub fn word(&self) -> &'static str {
        match self {
            PointState::Running => "running",
            PointState::Done(_) => "done",
            PointState::Failed { .. } => "failed",
            PointState::TimedOut => "timed-out",
            PointState::GaveUp { .. } => "gave-up",
        }
    }
}

/// Append-side handle. Every record is `write_all`'d and flushed as one
/// line, so concurrent workers (behind the supervisor's mutex) and a
/// SIGKILL at any instant leave at most one torn line at the tail.
pub struct Ledger {
    file: std::fs::File,
}

impl Ledger {
    /// Open (creating if needed) the ledger of `run_dir` for appending.
    pub fn open(run_dir: &Path) -> io::Result<Ledger> {
        std::fs::create_dir_all(run_dir)?;
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(run_dir.join(LEDGER_FILE))?;
        Ok(Ledger { file })
    }

    /// Journal the start of a supervisor invocation.
    pub fn run_start(&mut self, spec_fp: u64, points: usize) -> io::Result<()> {
        self.line(&format!(
            "{{\"schema\":\"{LEDGER_SCHEMA}\",\"kind\":\"run-start\",\
             \"spec_fp\":\"{spec_fp:016x}\",\"points\":\"{points}\"}}"
        ))
    }

    /// Journal a point transition.
    pub fn point(
        &mut self,
        fp: u64,
        idx: usize,
        attempt: u32,
        state: &PointState,
    ) -> io::Result<()> {
        let mut s = format!(
            "{{\"kind\":\"point\",\"fp\":\"{fp:016x}\",\"idx\":\"{idx}\",\
             \"attempt\":\"{attempt}\",\"state\":\"{}\"",
            state.word()
        );
        match state {
            PointState::Running | PointState::TimedOut => {}
            PointState::Done(m) => {
                write!(s, ",\"metrics\":{}", encode_metrics(m)).unwrap();
            }
            PointState::Failed { reason } | PointState::GaveUp { reason } => {
                write!(s, ",\"reason\":{}", json::quote(reason)).unwrap();
            }
        }
        s.push('}');
        self.line(&s)
    }

    /// Journal a marker record with a custom `kind` (e.g. the sweep
    /// service's `svc-start` boot boundary). Replay skips kinds it does
    /// not know, so markers never affect state reconstruction — they
    /// exist for external tooling (the CI kill-resume smoke test counts
    /// point records after the last boot marker to prove zero
    /// recomputation).
    pub fn marker(&mut self, kind: &str) -> io::Result<()> {
        self.line(&format!("{{\"kind\":{}}}", json::quote(kind)))
    }

    fn line(&mut self, s: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(s.len() + 1);
        buf.extend_from_slice(s.as_bytes());
        buf.push(b'\n');
        // One write call per record: a crash can tear the tail line but
        // never interleave two records.
        self.file.write_all(&buf)?;
        self.file.flush()
    }
}

/// A point's replayed (last-state-wins) view.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedPoint {
    pub idx: usize,
    /// Highest attempt number seen for this point.
    pub attempt: u32,
    pub state: PointState,
}

/// The reconstructed state of a run directory.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per-fingerprint final state.
    pub points: HashMap<u64, ReplayedPoint>,
    /// `run-start` records seen (= supervisor invocations so far).
    pub run_starts: usize,
    /// Spec fingerprint of the most recent `run-start`.
    pub spec_fp: Option<u64>,
    /// Declared point count of the most recent `run-start`.
    pub declared_points: Option<usize>,
    /// A torn or corrupt line stopped replay early (everything before it
    /// was applied).
    pub torn: bool,
}

impl Replay {
    /// Count of points whose final state matches `word`.
    pub fn count(&self, word: &str) -> usize {
        self.points.values().filter(|p| p.state.word() == word).count()
    }

    /// The metrics of `fp` if its final state is `done`.
    pub fn done(&self, fp: u64) -> Option<&PointMetrics> {
        match &self.points.get(&fp)?.state {
            PointState::Done(m) => Some(m),
            _ => None,
        }
    }
}

/// Replay `run_dir`'s ledger. A missing file is an empty (fresh) replay.
pub fn replay(run_dir: &Path) -> io::Result<Replay> {
    let text = match std::fs::read_to_string(run_dir.join(LEDGER_FILE)) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Replay::default()),
        Err(e) => return Err(e),
    };
    Ok(replay_text(&text))
}

/// Replay ledger text: apply records in order, stop at the first line
/// that fails to parse (the torn tail of a killed run).
pub fn replay_text(text: &str) -> Replay {
    let mut out = Replay::default();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let Some(()) = apply_line(line, &mut out) else {
            out.torn = true;
            break;
        };
    }
    out
}

/// Apply one ledger line; `None` means unparsable (torn/corrupt).
fn apply_line(line: &str, out: &mut Replay) -> Option<()> {
    let v: Value = line.parse().ok()?;
    let m = v.as_object()?;
    match m.get("kind")?.as_str()? {
        "run-start" => {
            if m.get("schema")?.as_str()? != LEDGER_SCHEMA {
                return None;
            }
            out.spec_fp = Some(u64::from_str_radix(m.get("spec_fp")?.as_str()?, 16).ok()?);
            out.declared_points = Some(m.get("points")?.as_str()?.parse().ok()?);
            out.run_starts += 1;
        }
        "point" => {
            let fp = u64::from_str_radix(m.get("fp")?.as_str()?, 16).ok()?;
            let idx: usize = m.get("idx")?.as_str()?.parse().ok()?;
            let attempt: u32 = m.get("attempt")?.as_str()?.parse().ok()?;
            let state = match m.get("state")?.as_str()? {
                "running" => PointState::Running,
                "done" => PointState::Done(decode_metrics(m.get("metrics")?)?),
                "failed" => PointState::Failed { reason: m.get("reason")?.as_str()?.to_string() },
                "timed-out" => PointState::TimedOut,
                "gave-up" => PointState::GaveUp { reason: m.get("reason")?.as_str()?.to_string() },
                _ => return None,
            };
            let entry = out.points.entry(fp).or_insert(ReplayedPoint {
                idx,
                attempt,
                state: PointState::Running,
            });
            entry.idx = idx;
            entry.attempt = entry.attempt.max(attempt);
            entry.state = state;
        }
        // Forward compatibility: a newer build's record kinds are not an
        // error, they are just not ours to interpret.
        _ => {}
    }
    Some(())
}

/// Encode metrics as an inline JSON object (house string encoding).
pub fn encode_metrics(m: &PointMetrics) -> String {
    format!(
        "{{\"avg_latency\":\"{:?}\",\"p50_latency\":\"{}\",\"p95_latency\":\"{}\",\
         \"p99_latency\":\"{}\",\"throughput\":\"{:?}\",\"delivered_fraction\":\"{:?}\",\
         \"packets_measured\":\"{}\",\"cycles\":\"{}\"}}",
        m.avg_latency,
        m.p50_latency,
        m.p95_latency,
        m.p99_latency,
        m.throughput,
        m.delivered_fraction,
        m.packets_measured,
        m.cycles,
    )
}

fn decode_metrics(v: &Value) -> Option<PointMetrics> {
    let m = v.as_object()?;
    let f = |key: &str| m.get(key)?.as_str()?.parse::<f64>().ok();
    let u = |key: &str| m.get(key)?.as_str()?.parse::<u64>().ok();
    Some(PointMetrics {
        avg_latency: f("avg_latency")?,
        p50_latency: u("p50_latency")?,
        p95_latency: u("p95_latency")?,
        p99_latency: u("p99_latency")?,
        throughput: f("throughput")?,
        delivered_fraction: f("delivered_fraction")?,
        packets_measured: u("packets_measured")?,
        cycles: u("cycles")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::rng::{for_cases, SplitMix64};
    use std::path::PathBuf;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("noc-ledger-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_metrics() -> PointMetrics {
        PointMetrics {
            avg_latency: 23.517,
            p50_latency: 21,
            p95_latency: 44,
            p99_latency: 61,
            throughput: 0.019_993,
            delivered_fraction: 1.0,
            packets_measured: 12_345,
            cycles: 42_000,
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = test_dir("roundtrip");
        let mut led = Ledger::open(&dir).unwrap();
        led.run_start(0xabcd, 3).unwrap();
        led.point(1, 0, 0, &PointState::Running).unwrap();
        led.point(2, 1, 0, &PointState::Running).unwrap();
        led.point(1, 0, 0, &PointState::Done(sample_metrics())).unwrap();
        led.point(2, 1, 0, &PointState::Failed { reason: "panic: \"boom\"\n".into() }).unwrap();
        led.point(2, 1, 1, &PointState::Running).unwrap();
        led.point(2, 1, 1, &PointState::TimedOut).unwrap();
        led.point(2, 1, 1, &PointState::GaveUp { reason: "timed out".into() }).unwrap();

        let rep = replay(&dir).unwrap();
        assert!(!rep.torn);
        assert_eq!(rep.run_starts, 1);
        assert_eq!(rep.spec_fp, Some(0xabcd));
        assert_eq!(rep.declared_points, Some(3));
        assert_eq!(rep.points.len(), 2);
        let p1 = &rep.points[&1];
        assert_eq!(p1.state, PointState::Done(sample_metrics()), "metrics survive bit-exactly");
        let p2 = &rep.points[&2];
        assert_eq!(p2.attempt, 1);
        assert_eq!(p2.state, PointState::GaveUp { reason: "timed out".into() });
        // The third point never appeared: pending = absent.
        assert_eq!(rep.count("done"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let dir = test_dir("torn");
        let mut led = Ledger::open(&dir).unwrap();
        led.run_start(7, 2).unwrap();
        led.point(1, 0, 0, &PointState::Done(sample_metrics())).unwrap();
        // Simulate a SIGKILL mid-write: append half a record, no newline.
        let path = dir.join(LEDGER_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"point\",\"fp\":\"000000000000");
        std::fs::write(&path, &text).unwrap();

        let rep = replay(&dir).unwrap();
        assert!(rep.torn);
        assert_eq!(rep.count("done"), 1, "records before the tear all apply");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_kinds_are_skipped_not_fatal() {
        let rep = replay_text(
            "{\"schema\":\"own-noc-ledger/v1\",\"kind\":\"run-start\",\"spec_fp\":\"00ff\",\"points\":\"1\"}\n\
             {\"kind\":\"note\",\"text\":\"from a future version\"}\n\
             {\"kind\":\"point\",\"fp\":\"0001\",\"idx\":\"0\",\"attempt\":\"0\",\"state\":\"running\"}\n",
        );
        assert!(!rep.torn);
        assert_eq!(rep.count("running"), 1);
    }

    #[test]
    fn markers_are_invisible_to_replay() {
        let dir = test_dir("marker");
        let mut led = Ledger::open(&dir).unwrap();
        led.run_start(1, 1).unwrap();
        led.marker("svc-start").unwrap();
        led.point(1, 0, 0, &PointState::Running).unwrap();
        let rep = replay(&dir).unwrap();
        assert!(!rep.torn, "markers must parse as JSON");
        assert_eq!(rep.count("running"), 1);
        assert_eq!(rep.run_starts, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An f64 that stresses the shortest round-trip codec: raw bit patterns
    /// (NaN payloads included), subnormals of either sign, or an edge value.
    fn awkward_f64(g: &mut SplitMix64) -> f64 {
        const EDGES: [f64; 9] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
        ];
        match g.next_u64() % 3 {
            0 => f64::from_bits(g.next_u64()),
            1 => f64::from_bits(g.next_u64() & 0x800f_ffff_ffff_ffff),
            _ => EDGES[(g.next_u64() % EDGES.len() as u64) as usize],
        }
    }

    /// Results are rendered from in-memory metrics by the service and from
    /// replayed ones by the CLI; both must print the same text.
    #[test]
    fn metrics_codec_round_trips_as_text() {
        for_cases(0x6d65_7472_6963_7301, 1024, |_, g| {
            let m = PointMetrics {
                avg_latency: awkward_f64(g),
                p50_latency: g.next_u64(),
                p95_latency: g.next_u64(),
                p99_latency: g.next_u64(),
                throughput: awkward_f64(g),
                delivered_fraction: awkward_f64(g),
                packets_measured: g.next_u64(),
                cycles: g.next_u64(),
            };
            let text = encode_metrics(&m);
            let v: Value = text.parse().unwrap_or_else(|e| panic!("{text} is not JSON: {e:?}"));
            let back = decode_metrics(&v).unwrap_or_else(|| panic!("{text} does not decode"));
            assert_eq!(encode_metrics(&back), text);
        });
    }

    #[test]
    fn missing_ledger_is_a_fresh_replay() {
        let dir = test_dir("fresh");
        let rep = replay(&dir).unwrap();
        assert_eq!(rep.run_starts, 0);
        assert!(rep.points.is_empty());
    }
}
