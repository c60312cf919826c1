//! Durable checkpoints of a running simulation.
//!
//! A [`Checkpoint`] wraps a [`NetworkSnapshot`] (see `noc_core::snapshot`)
//! with the driver-level state a resume needs: the topology name and
//! traffic seed (validated before anything is restored), the injector's
//! replay count, and the measurement-window accounting that normally lives
//! in locals of `Simulation::run`. The bit-identity contract extends
//! through this layer: a run resumed from a checkpoint finishes with a
//! `NetStats` equal (`==`) to the uninterrupted run's.
//!
//! # File format
//!
//! One JSON object per file, named `checkpoint-{cycle:012}.json` so a
//! lexicographic directory sort is a chronological sort. The header fields
//! `magic` and `version` gate decoding: readers reject unknown versions
//! instead of guessing. **Every integer is encoded as a decimal string**,
//! never as a JSON number — cycle counts are `u64` and sentinel values
//! like `u64::MAX` (an open measurement window, a permanent fault's
//! down-until) exceed the 2⁵³ exact-integer range of an f64-backed JSON
//! parser. Homogeneous integer vectors and small records (flits, packets)
//! are packed into single space-separated strings to keep kilo-core
//! checkpoints compact; `None` is spelled `-` inside packed strings and
//! `null` at top level.
//!
//! [`write_checkpoint`] is atomic: the file is written to a `.tmp` sibling
//! and renamed into place, so a crash mid-write never leaves a truncated
//! checkpoint where [`latest_valid_checkpoint`] would find it.

use std::io;
use std::path::{Path, PathBuf};
use std::str::SplitWhitespace;

use noc_core::snapshot::{
    BusSnap, ChannelSnap, FaultSnap, InPortSnap, InVcSnap, NetworkSnapshot, NicSnap, OutPortSnap,
    OutVcSnap, RouterSnap, VcStateSnap,
};
use noc_core::{FaultTarget, Flit, FlitKind, LinkSensors, MetricsState, NetStats, Packet};

use noc_core::stats::LatencyHist;

use crate::json::{self, Map, Value};

/// File-format magic, first header field of every checkpoint.
pub const CHECKPOINT_MAGIC: &str = "noc-sim-checkpoint";

/// Current file-format version. Bump on any incompatible layout change;
/// readers reject versions they do not know. Version 2 added the overload
/// counters (shed/deferred/admitted offers), the NIC throttle latch, and
/// the utilization-sensor block. Version 3 added the integrity plane:
/// flit payload/CRC words, the Active-state owner word, the silent
/// corruption/misroute tracking sets with their RNG replay count, and the
/// five integrity counters.
pub const CHECKPOINT_VERSION: u64 = 3;

/// Oldest version this build still reads. Version-2 checkpoints decode
/// tolerantly: flit payloads are re-stamped (exact — the corruption
/// process did not exist in v2, so every payload is the deterministic
/// stamp), Active-state owners fall back to the buffered head, and the
/// integrity counters start at zero.
pub const CHECKPOINT_MIN_VERSION: u64 = 2;

/// A simulation checkpoint: engine snapshot plus driver state.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Topology display name (e.g. `OWN-256`); a resume validates it
    /// against the rebuilt topology before restoring.
    pub topology: String,
    /// Traffic seed of the run (`SimConfig::seed`); validated likewise.
    pub seed: u64,
    /// Cycle the checkpoint was taken at (== `snapshot.now`).
    pub cycle: u64,
    /// `BernoulliInjector::offers` at the checkpoint; resume replays this
    /// many offer cycles on a freshly seeded injector.
    pub injector_offers: u64,
    /// `flits_ejected` when the measurement window opened, if it has.
    pub ejected_window_start: Option<u64>,
    /// `flits_ejected` when the measurement window closed, if it has.
    pub ejected_window_end: Option<u64>,
    /// The complete engine state.
    pub snapshot: NetworkSnapshot,
}

impl Checkpoint {
    /// Serialize to the versioned JSON file format.
    pub fn to_json(&self) -> String {
        let mut m = Map::new();
        m.insert("magic".into(), Value::String(CHECKPOINT_MAGIC.into()));
        m.insert("version".into(), uint(CHECKPOINT_VERSION));
        m.insert("topology".into(), Value::String(self.topology.clone()));
        m.insert("seed".into(), uint(self.seed));
        m.insert("cycle".into(), uint(self.cycle));
        m.insert("injector_offers".into(), uint(self.injector_offers));
        m.insert("ejected_window_start".into(), opt_uint(self.ejected_window_start));
        m.insert("ejected_window_end".into(), opt_uint(self.ejected_window_end));
        m.insert("snapshot".into(), encode_snapshot(&self.snapshot));
        json::to_string(&Value::Object(m))
    }

    /// Parse the JSON file format, validating magic and version.
    pub fn from_json(text: &str) -> Result<Checkpoint, String> {
        let v: Value = text.parse().map_err(|e| format!("not valid JSON: {e}"))?;
        let m = as_obj(&v, "checkpoint")?;
        let magic = get_str(m, "magic")?;
        if magic != CHECKPOINT_MAGIC {
            return Err(format!("bad magic {magic:?} (expected {CHECKPOINT_MAGIC:?})"));
        }
        let version = get_u64(m, "version")?;
        if !(CHECKPOINT_MIN_VERSION..=CHECKPOINT_VERSION).contains(&version) {
            return Err(format!(
                "unsupported checkpoint version {version} (this build reads \
                 {CHECKPOINT_MIN_VERSION}..={CHECKPOINT_VERSION})"
            ));
        }
        let snapshot = decode_snapshot(get(m, "snapshot")?)?;
        let ckpt = Checkpoint {
            topology: get_str(m, "topology")?.to_string(),
            seed: get_u64(m, "seed")?,
            cycle: get_u64(m, "cycle")?,
            injector_offers: get_u64(m, "injector_offers")?,
            ejected_window_start: get_opt_u64(m, "ejected_window_start")?,
            ejected_window_end: get_opt_u64(m, "ejected_window_end")?,
            snapshot,
        };
        if ckpt.cycle != ckpt.snapshot.now {
            return Err(format!(
                "header cycle {} disagrees with snapshot cycle {}",
                ckpt.cycle, ckpt.snapshot.now
            ));
        }
        Ok(ckpt)
    }
}

/// Canonical file name of the checkpoint taken at `cycle`.
pub fn checkpoint_file_name(cycle: u64) -> String {
    format!("checkpoint-{cycle:012}.json")
}

/// Atomically write `ckpt` into `dir` (created if missing): the JSON goes
/// to a `.tmp` sibling first and is renamed into place, so readers never
/// observe a partial file. Durable via [`atomic_write`]. Returns the
/// final path.
pub fn write_checkpoint(dir: &Path, ckpt: &Checkpoint) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let final_path = dir.join(checkpoint_file_name(ckpt.cycle));
    atomic_write(&final_path, ckpt.to_json().as_bytes())?;
    Ok(final_path)
}

/// Crash-durable atomic file replacement: write to a `.tmp` sibling,
/// fsync the file, rename into place, then fsync the parent directory.
/// The rename makes the swap atomic against concurrent readers; the
/// *directory* fsync is what makes it atomic against power loss — without
/// it the rename lives only in the page cache and a crash can roll the
/// directory back to no file (or the old file) even though the data
/// blocks were flushed.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    let tmp = match path.file_name().and_then(|n| n.to_str()) {
        Some(name) => path.with_file_name(format!("{name}.tmp")),
        None => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("atomic_write: {} has no file name", path.display()),
            ))
        }
    };
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        fsync_dir(dir)?;
    }
    Ok(())
}

/// Fsync a directory so renames/creates inside it survive power loss.
/// On non-unix targets (no O_RDONLY directory handles) this is a no-op —
/// the rename is still atomic against crashes of *this process*.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let d = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
        std::fs::File::open(d)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

/// The newest valid `checkpoint-*.json` in `dir`, with its decoded
/// contents. Candidates are tried newest-first (highest cycle), and
/// in-progress `.tmp` files are ignored. A truncated or corrupt file — a
/// crash mid-write on a filesystem without atomic rename, a bad disk — is
/// skipped with a warning on stderr and the next-newest checkpoint is
/// used, so one bad file cannot make an otherwise resumable run
/// unresumable.
pub fn latest_valid_checkpoint(dir: &Path) -> io::Result<Option<(PathBuf, Checkpoint)>> {
    let mut candidates: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix("checkpoint-").and_then(|s| s.strip_suffix(".json"))
        else {
            continue;
        };
        let Ok(cycle) = stem.parse::<u64>() else { continue };
        candidates.push((cycle, entry.path()));
    }
    candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
    for (_, path) in candidates {
        match read_checkpoint(&path) {
            Ok(ckpt) => return Ok(Some((path, ckpt))),
            Err(e) => eprintln!("[checkpoint] skipping unreadable {}: {e}", path.display()),
        }
    }
    Ok(None)
}

/// Read and parse one checkpoint file. Format errors surface as
/// `io::ErrorKind::InvalidData` with the offending path in the message.
pub fn read_checkpoint(path: &Path) -> io::Result<Checkpoint> {
    let text = std::fs::read_to_string(path)?;
    Checkpoint::from_json(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display())))
}

// ---------------------------------------------------------------------------
// Value-tree encoding
// ---------------------------------------------------------------------------

/// An integer as a JSON *string* (see the module docs for why).
fn uint(v: u64) -> Value {
    Value::String(v.to_string())
}

fn opt_uint(v: Option<u64>) -> Value {
    match v {
        Some(v) => uint(v),
        None => Value::Null,
    }
}

/// A homogeneous integer vector as one space-joined string.
fn joined<I: IntoIterator<Item = T>, T: ToString>(xs: I) -> Value {
    let words: Vec<String> = xs.into_iter().map(|x| x.to_string()).collect();
    Value::String(words.join(" "))
}

fn flit_kind_char(k: FlitKind) -> &'static str {
    match k {
        FlitKind::Head => "H",
        FlitKind::Body => "B",
        FlitKind::Tail => "T",
        FlitKind::HeadTail => "X",
    }
}

/// One flit as fourteen space-separated words (appended to `out`). The
/// last two (payload, CRC) are a v3 addition; the decoder regenerates
/// them when reading a v2 record.
fn push_flit(out: &mut String, f: &Flit) {
    use std::fmt::Write;
    write!(
        out,
        "{} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        f.packet_id,
        f.seq,
        f.packet_len,
        flit_kind_char(f.kind),
        f.src,
        f.dst,
        f.vc,
        f.created_at,
        f.injected_at,
        f.hops,
        f.retries,
        u8::from(f.poisoned),
        f.payload,
        f.crc,
    )
    .expect("writing to a String cannot fail");
}

fn packet_str(p: &Packet) -> String {
    format!("{} {} {} {} {}", p.id, p.src, p.dst, p.len, p.created_at)
}

fn target_str(t: FaultTarget) -> String {
    match t {
        FaultTarget::Channel(id) => format!("C {id}"),
        FaultTarget::Bus(id) => format!("B {id}"),
        FaultTarget::TokenRing(id) => format!("T {id}"),
    }
}

fn encode_hist(h: &LatencyHist) -> Value {
    let mut m = Map::new();
    m.insert("width".into(), uint(h.bucket_width));
    m.insert("buckets".into(), joined(h.buckets.iter().copied()));
    m.insert("count".into(), uint(h.count));
    m.insert("sum".into(), uint(h.sum));
    m.insert("max".into(), uint(h.max));
    Value::Object(m)
}

fn encode_stats(s: &NetStats) -> Value {
    let mut m = Map::new();
    m.insert("cycles".into(), uint(s.cycles));
    m.insert("packets_offered".into(), uint(s.packets_offered));
    m.insert("flits_injected".into(), uint(s.flits_injected));
    m.insert("flits_ejected".into(), uint(s.flits_ejected));
    m.insert("packets_delivered".into(), uint(s.packets_delivered));
    m.insert("channel_flits".into(), joined(s.channel_flits.iter().copied()));
    m.insert("bus_flits".into(), joined(s.bus_flits.iter().copied()));
    m.insert("bus_token_wait".into(), joined(s.bus_token_wait.iter().copied()));
    m.insert("router_traversals".into(), joined(s.router_traversals.iter().copied()));
    m.insert("buffer_writes".into(), joined(s.buffer_writes.iter().copied()));
    m.insert("latency".into(), encode_hist(&s.latency));
    m.insert("queue_delay".into(), encode_hist(&s.queue_delay));
    m.insert("network_latency".into(), encode_hist(&s.network_latency));
    m.insert("post_fault_latency".into(), encode_hist(&s.post_fault_latency));
    m.insert("measured_flits_ejected".into(), uint(s.measured_flits_ejected));
    m.insert("measure_from".into(), uint(s.measure_from));
    m.insert("measure_until".into(), uint(s.measure_until));
    m.insert("per_core_ejected".into(), joined(s.per_core_ejected.iter().copied()));
    m.insert("per_core_packets".into(), joined(s.per_core_packets.iter().copied()));
    m.insert("flits_corrupted".into(), uint(s.flits_corrupted));
    m.insert("corrupted_detected".into(), uint(s.corrupted_detected));
    m.insert("corrupted_delivered".into(), uint(s.corrupted_delivered));
    m.insert("misroutes".into(), uint(s.misroutes));
    m.insert("recoveries".into(), uint(s.recoveries));
    m.insert("flits_flushed".into(), uint(s.flits_flushed));
    m.insert("flit_retransmits".into(), uint(s.flit_retransmits));
    m.insert("packets_dropped_corrupt".into(), uint(s.packets_dropped_corrupt));
    m.insert("offers_rejected".into(), uint(s.offers_rejected));
    m.insert("offers_shed".into(), uint(s.offers_shed));
    m.insert("offers_deferred".into(), uint(s.offers_deferred));
    m.insert("offers_admitted".into(), uint(s.offers_admitted));
    m.insert("failovers".into(), uint(s.failovers));
    m.insert("first_fault_at".into(), opt_uint(s.first_fault_at));
    m.insert("first_failover_at".into(), opt_uint(s.first_failover_at));
    Value::Object(m)
}

fn encode_router(r: &RouterSnap) -> Value {
    let in_ports = r
        .in_ports
        .iter()
        .map(|ip| {
            let vcs = ip
                .vcs
                .iter()
                .map(|vc| {
                    let mut m = Map::new();
                    let state = match vc.state {
                        VcStateSnap::Idle => "I".to_string(),
                        VcStateSnap::Routed { out_port, vc_lo, vc_hi, reader } => {
                            format!("R {out_port} {vc_lo} {vc_hi} {reader}")
                        }
                        VcStateSnap::Active { out_port, out_vc, reader, owner } => {
                            format!("A {out_port} {out_vc} {reader} {owner}")
                        }
                    };
                    m.insert("state".into(), Value::String(state));
                    m.insert("stage".into(), uint(vc.stage_cycle));
                    let buf = vc
                        .buf
                        .iter()
                        .map(|(cycle, f)| {
                            let mut s = format!("{cycle} ");
                            push_flit(&mut s, f);
                            Value::String(s)
                        })
                        .collect();
                    m.insert("buf".into(), Value::Array(buf));
                    Value::Object(m)
                })
                .collect();
            let mut m = Map::new();
            m.insert("cursor".into(), uint(ip.sa_vc_cursor as u64));
            m.insert("vcs".into(), Value::Array(vcs));
            Value::Object(m)
        })
        .collect();
    let out_ports = r
        .out_ports
        .iter()
        .map(|op| {
            // One word-triple per VC: "holder_port holder_vc credits",
            // holder fields `-` when free.
            let vcs = op
                .vcs
                .iter()
                .map(|v| match v.holder {
                    Some((p, ovc)) => format!("{p} {ovc} {}", v.credits),
                    None => format!("- - {}", v.credits),
                })
                .map(Value::String)
                .collect();
            let mut m = Map::new();
            m.insert("busy_until".into(), uint(op.busy_until));
            m.insert("cursor".into(), uint(op.sa_cursor as u64));
            m.insert("vcs".into(), Value::Array(vcs));
            Value::Object(m)
        })
        .collect();
    let mut m = Map::new();
    m.insert("vca_offset".into(), uint(r.vca_offset as u64));
    m.insert("in".into(), Value::Array(in_ports));
    m.insert("out".into(), Value::Array(out_ports));
    Value::Object(m)
}

fn encode_channel(c: &ChannelSnap) -> Value {
    let mut m = Map::new();
    let flits = c
        .in_flight
        .iter()
        .map(|(cycle, f)| {
            let mut s = format!("{cycle} ");
            push_flit(&mut s, f);
            Value::String(s)
        })
        .collect();
    m.insert("in_flight".into(), Value::Array(flits));
    m.insert(
        "credits_back".into(),
        Value::Array(
            c.credits_back
                .iter()
                .map(|(cycle, vc)| Value::String(format!("{cycle} {vc}")))
                .collect(),
        ),
    );
    Value::Object(m)
}

fn encode_bus(b: &BusSnap) -> Value {
    let mut m = Map::new();
    m.insert("token".into(), Value::String(format!("{} {}", b.token_holder, b.token_available_at)));
    m.insert("busy_until".into(), uint(b.busy_until));
    m.insert(
        "credits".into(),
        Value::Array(b.credits.iter().map(|per_vc| joined(per_vc.iter().copied())).collect()),
    );
    let flits = b
        .in_flight
        .iter()
        .map(|(cycle, reader, f)| {
            let mut s = format!("{cycle} {reader} ");
            push_flit(&mut s, f);
            Value::String(s)
        })
        .collect();
    m.insert("in_flight".into(), Value::Array(flits));
    m.insert(
        "credits_back".into(),
        Value::Array(
            b.credits_back
                .iter()
                .map(|(cycle, reader, vc)| Value::String(format!("{cycle} {reader} {vc}")))
                .collect(),
        ),
    );
    m.insert(
        "vc_owner".into(),
        Value::Array(
            b.vc_owner
                .iter()
                .map(|per_vc| {
                    joined(per_vc.iter().map(|o| match o {
                        Some(w) => w.to_string(),
                        None => "-".to_string(),
                    }))
                })
                .collect(),
        ),
    );
    m.insert(
        "want_since".into(),
        joined(b.want_since.iter().map(|o| match o {
            Some(c) => c.to_string(),
            None => "-".to_string(),
        })),
    );
    m.insert("discards".into(), uint(b.discards));
    Value::Object(m)
}

fn encode_nic(n: &NicSnap) -> Value {
    let mut m = Map::new();
    m.insert(
        "queue".into(),
        Value::Array(n.queue.iter().map(|p| Value::String(packet_str(p))).collect()),
    );
    m.insert("credits".into(), joined(n.credits.iter().copied()));
    m.insert(
        "streaming".into(),
        match &n.streaming {
            Some((p, seq, vc, head)) => {
                Value::String(format!("{} {seq} {vc} {head}", packet_str(p)))
            }
            None => Value::Null,
        },
    );
    m.insert("vc_cursor".into(), uint(n.vc_cursor as u64));
    m.insert("eject_flits".into(), uint(n.eject_flits));
    m.insert("throttled".into(), uint(u64::from(n.throttled)));
    Value::Object(m)
}

fn encode_sensors(s: &LinkSensors) -> Value {
    let mut m = Map::new();
    m.insert("window".into(), uint(u64::from(s.window())));
    m.insert("chan_busy".into(), joined(s.chan_busy().iter().copied()));
    m.insert("bus_busy".into(), joined(s.bus_busy().iter().copied()));
    m.insert("bus_wait".into(), joined(s.bus_wait().iter().copied()));
    m.insert("chan_util".into(), joined(s.chan_util().iter().copied()));
    m.insert("bus_util".into(), joined(s.bus_util().iter().copied()));
    m.insert("bus_wait_ewma".into(), joined(s.bus_wait_ewma().iter().copied()));
    Value::Object(m)
}

fn encode_fault(f: &FaultSnap) -> Value {
    let mut m = Map::new();
    m.insert("next_event".into(), uint(f.next_event as u64));
    m.insert("channel_down_until".into(), joined(f.channel_down_until.iter().copied()));
    m.insert("bus_down_until".into(), joined(f.bus_down_until.iter().copied()));
    m.insert("token_down_until".into(), joined(f.token_down_until.iter().copied()));
    m.insert(
        "notices".into(),
        Value::Array(
            f.notices
                .iter()
                .map(|(cycle, t, up)| {
                    Value::String(format!("{cycle} {} {}", target_str(*t), u8::from(*up)))
                })
                .collect(),
        ),
    );
    m.insert(
        "recoveries".into(),
        Value::Array(
            f.recoveries
                .iter()
                .map(|(cycle, t)| Value::String(format!("{cycle} {}", target_str(*t))))
                .collect(),
        ),
    );
    m.insert("poisoned".into(), joined(f.poisoned.iter().copied()));
    m.insert("corrupt".into(), joined(f.corrupt.iter().copied()));
    m.insert(
        "misrouted".into(),
        Value::Array(
            f.misrouted.iter().map(|(id, dst)| Value::String(format!("{id} {dst}"))).collect(),
        ),
    );
    m.insert("first_fault_at".into(), opt_uint(f.first_fault_at));
    m.insert("rng_draws".into(), uint(f.rng_draws));
    m.insert("crng_draws".into(), uint(f.crng_draws));
    m.insert("schedule_len".into(), uint(f.schedule_len as u64));
    m.insert("seed".into(), uint(f.seed));
    Value::Object(m)
}

fn encode_snapshot(s: &NetworkSnapshot) -> Value {
    let mut m = Map::new();
    m.insert("now".into(), uint(s.now));
    m.insert("next_packet_id".into(), uint(s.next_packet_id));
    m.insert("routers".into(), Value::Array(s.routers.iter().map(encode_router).collect()));
    m.insert("channels".into(), Value::Array(s.channels.iter().map(encode_channel).collect()));
    m.insert("buses".into(), Value::Array(s.buses.iter().map(encode_bus).collect()));
    m.insert("nics".into(), Value::Array(s.nics.iter().map(encode_nic).collect()));
    m.insert(
        "fault".into(),
        match &s.fault {
            Some(f) => encode_fault(f),
            None => Value::Null,
        },
    );
    m.insert("routing".into(), joined(s.routing.iter().copied()));
    m.insert(
        "sensors".into(),
        match &s.sensors {
            Some(ss) => encode_sensors(ss),
            None => Value::Null,
        },
    );
    m.insert("stats".into(), encode_stats(&s.stats));
    m.insert(
        "metrics".into(),
        match &s.metrics {
            Some(ms) => {
                let mut mm = Map::new();
                mm.insert("n_clusters".into(), uint(ms.n_clusters as u64));
                mm.insert("matrix".into(), joined(ms.matrix.iter().copied()));
                Value::Object(mm)
            }
            None => Value::Null,
        },
    );
    Value::Object(m)
}

// ---------------------------------------------------------------------------
// Value-tree decoding
// ---------------------------------------------------------------------------

fn as_obj<'a>(v: &'a Value, what: &str) -> Result<&'a Map, String> {
    v.as_object().ok_or_else(|| format!("{what}: expected an object"))
}

fn get<'a>(m: &'a Map, key: &str) -> Result<&'a Value, String> {
    m.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn get_str<'a>(m: &'a Map, key: &str) -> Result<&'a str, String> {
    get(m, key)?.as_str().ok_or_else(|| format!("field {key:?}: expected a string"))
}

fn get_u64(m: &Map, key: &str) -> Result<u64, String> {
    let s = get_str(m, key)?;
    s.parse().map_err(|_| format!("field {key:?}: not an integer: {s:?}"))
}

fn get_usize(m: &Map, key: &str) -> Result<usize, String> {
    Ok(get_u64(m, key)? as usize)
}

/// Tolerant counter decode: a key absent from an older-version checkpoint
/// reads as zero (the counter did not exist when the file was written).
fn get_u64_or_zero(m: &Map, key: &str) -> Result<u64, String> {
    if m.contains_key(key) {
        get_u64(m, key)
    } else {
        Ok(0)
    }
}

fn get_opt_u64(m: &Map, key: &str) -> Result<Option<u64>, String> {
    match get(m, key)? {
        Value::Null => Ok(None),
        v => {
            let s = v.as_str().ok_or_else(|| format!("field {key:?}: expected string or null"))?;
            s.parse().map(Some).map_err(|_| format!("field {key:?}: not an integer: {s:?}"))
        }
    }
}

fn get_arr<'a>(m: &'a Map, key: &str) -> Result<&'a Vec<Value>, String> {
    get(m, key)?.as_array().ok_or_else(|| format!("field {key:?}: expected an array"))
}

/// Parse a space-joined integer vector field.
fn get_u64s(m: &Map, key: &str) -> Result<Vec<u64>, String> {
    split_ints(get_str(m, key)?, key)
}

fn split_ints<T: std::str::FromStr>(s: &str, what: &str) -> Result<Vec<T>, String> {
    s.split_whitespace()
        .map(|w| w.parse().map_err(|_| format!("{what}: not an integer: {w:?}")))
        .collect()
}

/// Cursor over the words of one packed-record string.
struct Words<'a> {
    it: SplitWhitespace<'a>,
    what: &'static str,
}

impl<'a> Words<'a> {
    fn new(s: &'a str, what: &'static str) -> Self {
        Words { it: s.split_whitespace(), what }
    }

    fn next(&mut self) -> Result<&'a str, String> {
        self.it.next().ok_or_else(|| format!("{}: truncated record", self.what))
    }

    fn int<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let w = self.next()?;
        w.parse().map_err(|_| format!("{}: not an integer: {w:?}", self.what))
    }

    /// An integer or `-` for `None`.
    fn opt_int<T: std::str::FromStr>(&mut self) -> Result<Option<T>, String> {
        let w = self.next()?;
        if w == "-" {
            return Ok(None);
        }
        w.parse().map(Some).map_err(|_| format!("{}: not an integer: {w:?}", self.what))
    }

    fn finish(mut self) -> Result<(), String> {
        match self.it.next() {
            None => Ok(()),
            Some(w) => Err(format!("{}: trailing word {w:?}", self.what)),
        }
    }
}

fn parse_flit(w: &mut Words) -> Result<Flit, String> {
    let packet_id = w.int()?;
    let seq = w.int()?;
    let packet_len = w.int()?;
    let kind = match w.next()? {
        "H" => FlitKind::Head,
        "B" => FlitKind::Body,
        "T" => FlitKind::Tail,
        "X" => FlitKind::HeadTail,
        other => return Err(format!("{}: bad flit kind {other:?}", w.what)),
    };
    let mut f = Flit {
        packet_id,
        seq,
        packet_len,
        kind,
        src: w.int()?,
        dst: w.int()?,
        vc: w.int()?,
        created_at: w.int()?,
        injected_at: w.int()?,
        hops: w.int()?,
        retries: w.int()?,
        poisoned: w.int::<u8>()? != 0,
        payload: 0,
        crc: 0,
    };
    // v3 appends "payload crc"; a v2 record ends here. Re-stamping is
    // exact for v2: the silent-corruption process did not exist then, so
    // every payload was the deterministic stamp.
    match w.it.next() {
        Some(word) => {
            f.payload =
                word.parse().map_err(|_| format!("{}: not an integer: {word:?}", w.what))?;
            f.crc = w.int()?;
        }
        None => noc_core::integrity::stamp(&mut f),
    }
    Ok(f)
}

fn parse_packet(w: &mut Words) -> Result<Packet, String> {
    Ok(Packet { id: w.int()?, src: w.int()?, dst: w.int()?, len: w.int()?, created_at: w.int()? })
}

fn parse_target(w: &mut Words) -> Result<FaultTarget, String> {
    match w.next()? {
        "C" => Ok(FaultTarget::Channel(w.int()?)),
        "B" => Ok(FaultTarget::Bus(w.int()?)),
        "T" => Ok(FaultTarget::TokenRing(w.int()?)),
        other => Err(format!("{}: bad fault target kind {other:?}", w.what)),
    }
}

fn str_item<'a>(v: &'a Value, what: &'static str) -> Result<Words<'a>, String> {
    Ok(Words::new(v.as_str().ok_or_else(|| format!("{what}: expected a string"))?, what))
}

fn decode_hist(v: &Value) -> Result<LatencyHist, String> {
    let m = as_obj(v, "histogram")?;
    Ok(LatencyHist {
        bucket_width: get_u64(m, "width")?,
        buckets: get_u64s(m, "buckets")?,
        count: get_u64(m, "count")?,
        sum: get_u64(m, "sum")?,
        max: get_u64(m, "max")?,
    })
}

fn decode_stats(v: &Value) -> Result<NetStats, String> {
    let m = as_obj(v, "stats")?;
    let bus_flits = get_u64s(m, "bus_flits")?;
    // Tolerant decode: checkpoints written before the telemetry plane
    // don't carry per-bus token-wait counters; start them at zero.
    let bus_token_wait = if m.contains_key("bus_token_wait") {
        get_u64s(m, "bus_token_wait")?
    } else {
        vec![0; bus_flits.len()]
    };
    Ok(NetStats {
        cycles: get_u64(m, "cycles")?,
        packets_offered: get_u64(m, "packets_offered")?,
        flits_injected: get_u64(m, "flits_injected")?,
        flits_ejected: get_u64(m, "flits_ejected")?,
        packets_delivered: get_u64(m, "packets_delivered")?,
        channel_flits: get_u64s(m, "channel_flits")?,
        bus_flits,
        bus_token_wait,
        router_traversals: get_u64s(m, "router_traversals")?,
        buffer_writes: get_u64s(m, "buffer_writes")?,
        latency: decode_hist(get(m, "latency")?)?,
        queue_delay: decode_hist(get(m, "queue_delay")?)?,
        network_latency: decode_hist(get(m, "network_latency")?)?,
        post_fault_latency: decode_hist(get(m, "post_fault_latency")?)?,
        measured_flits_ejected: get_u64(m, "measured_flits_ejected")?,
        measure_from: get_u64(m, "measure_from")?,
        measure_until: get_u64(m, "measure_until")?,
        per_core_ejected: get_u64s(m, "per_core_ejected")?,
        per_core_packets: get_u64s(m, "per_core_packets")?,
        flits_corrupted: get_u64(m, "flits_corrupted")?,
        corrupted_detected: get_u64_or_zero(m, "corrupted_detected")?,
        corrupted_delivered: get_u64_or_zero(m, "corrupted_delivered")?,
        misroutes: get_u64_or_zero(m, "misroutes")?,
        recoveries: get_u64_or_zero(m, "recoveries")?,
        flits_flushed: get_u64_or_zero(m, "flits_flushed")?,
        flit_retransmits: get_u64(m, "flit_retransmits")?,
        packets_dropped_corrupt: get_u64(m, "packets_dropped_corrupt")?,
        offers_rejected: get_u64(m, "offers_rejected")?,
        offers_shed: get_u64(m, "offers_shed")?,
        offers_deferred: get_u64(m, "offers_deferred")?,
        offers_admitted: get_u64(m, "offers_admitted")?,
        failovers: get_u64(m, "failovers")?,
        first_fault_at: get_opt_u64(m, "first_fault_at")?,
        first_failover_at: get_opt_u64(m, "first_failover_at")?,
    })
}

fn decode_router(v: &Value) -> Result<RouterSnap, String> {
    let m = as_obj(v, "router")?;
    let mut in_ports = Vec::new();
    for ipv in get_arr(m, "in")? {
        let ipm = as_obj(ipv, "in-port")?;
        let mut vcs = Vec::new();
        for vcv in get_arr(ipm, "vcs")? {
            let vcm = as_obj(vcv, "in-vc")?;
            // Buffer first: a v2 Active state has no owner word, and the
            // fallback owner is the packet at the buffer front.
            let mut buf = Vec::new();
            for fv in get_arr(vcm, "buf")? {
                let mut w = str_item(fv, "buffered flit")?;
                let cycle = w.int()?;
                let flit = parse_flit(&mut w)?;
                w.finish()?;
                buf.push((cycle, flit));
            }
            let mut w = Words::new(get_str(vcm, "state")?, "vc state");
            let state = match w.next()? {
                "I" => VcStateSnap::Idle,
                "R" => VcStateSnap::Routed {
                    out_port: w.int()?,
                    vc_lo: w.int()?,
                    vc_hi: w.int()?,
                    reader: w.int()?,
                },
                "A" => {
                    let (out_port, out_vc, reader) = (w.int()?, w.int()?, w.int()?);
                    // v3 appends the owner; v2 derives it from the buffer
                    // front (u64::MAX = unknown, recovery then falls back
                    // to the head packet).
                    let owner = match w.it.next() {
                        Some(word) => word
                            .parse()
                            .map_err(|_| format!("vc state: not an integer: {word:?}"))?,
                        None => buf.first().map_or(u64::MAX, |&(_, f)| f.packet_id),
                    };
                    VcStateSnap::Active { out_port, out_vc, reader, owner }
                }
                other => return Err(format!("bad vc state tag {other:?}")),
            };
            w.finish()?;
            vcs.push(InVcSnap { buf, state, stage_cycle: get_u64(vcm, "stage")? });
        }
        in_ports.push(InPortSnap { vcs, sa_vc_cursor: get_usize(ipm, "cursor")? });
    }
    let mut out_ports = Vec::new();
    for opv in get_arr(m, "out")? {
        let opm = as_obj(opv, "out-port")?;
        let mut vcs = Vec::new();
        for vcv in get_arr(opm, "vcs")? {
            let mut w = str_item(vcv, "out-vc")?;
            let port = w.opt_int()?;
            let ovc = w.opt_int()?;
            let credits = w.int()?;
            w.finish()?;
            let holder = match (port, ovc) {
                (Some(p), Some(v)) => Some((p, v)),
                (None, None) => None,
                _ => return Err("out-vc: holder port/vc must both be set or both `-`".into()),
            };
            vcs.push(OutVcSnap { holder, credits });
        }
        out_ports.push(OutPortSnap {
            vcs,
            busy_until: get_u64(opm, "busy_until")?,
            sa_cursor: get_usize(opm, "cursor")?,
        });
    }
    Ok(RouterSnap { in_ports, out_ports, vca_offset: get_usize(m, "vca_offset")? })
}

fn decode_channel(v: &Value) -> Result<ChannelSnap, String> {
    let m = as_obj(v, "channel")?;
    let mut in_flight = Vec::new();
    for fv in get_arr(m, "in_flight")? {
        let mut w = str_item(fv, "channel flit")?;
        let cycle = w.int()?;
        let flit = parse_flit(&mut w)?;
        w.finish()?;
        in_flight.push((cycle, flit));
    }
    let mut credits_back = Vec::new();
    for cv in get_arr(m, "credits_back")? {
        let mut w = str_item(cv, "channel credit")?;
        credits_back.push((w.int()?, w.int()?));
        w.finish()?;
    }
    Ok(ChannelSnap { in_flight, credits_back })
}

fn decode_bus(v: &Value) -> Result<BusSnap, String> {
    let m = as_obj(v, "bus")?;
    let mut w = Words::new(get_str(m, "token")?, "bus token");
    let token_holder = w.int()?;
    let token_available_at = w.int()?;
    w.finish()?;
    let mut credits = Vec::new();
    for cv in get_arr(m, "credits")? {
        let s = cv.as_str().ok_or("bus credits: expected a string")?;
        credits.push(split_ints(s, "bus credits")?);
    }
    let mut in_flight = Vec::new();
    for fv in get_arr(m, "in_flight")? {
        let mut w = str_item(fv, "bus flit")?;
        let cycle = w.int()?;
        let reader = w.int()?;
        let flit = parse_flit(&mut w)?;
        w.finish()?;
        in_flight.push((cycle, reader, flit));
    }
    let mut credits_back = Vec::new();
    for cv in get_arr(m, "credits_back")? {
        let mut w = str_item(cv, "bus credit")?;
        credits_back.push((w.int()?, w.int()?, w.int()?));
        w.finish()?;
    }
    let mut vc_owner = Vec::new();
    for ov in get_arr(m, "vc_owner")? {
        let s = ov.as_str().ok_or("bus vc_owner: expected a string")?;
        let mut per_vc = Vec::new();
        for word in s.split_whitespace() {
            per_vc.push(if word == "-" {
                None
            } else {
                Some(word.parse().map_err(|_| format!("bus vc_owner: bad word {word:?}"))?)
            });
        }
        vc_owner.push(per_vc);
    }
    let mut want_since = Vec::new();
    for word in get_str(m, "want_since")?.split_whitespace() {
        want_since.push(if word == "-" {
            None
        } else {
            Some(word.parse().map_err(|_| format!("bus want_since: bad word {word:?}"))?)
        });
    }
    Ok(BusSnap {
        token_holder,
        token_available_at,
        busy_until: get_u64(m, "busy_until")?,
        credits,
        in_flight,
        credits_back,
        vc_owner,
        want_since,
        discards: get_u64(m, "discards")?,
    })
}

fn decode_nic(v: &Value) -> Result<NicSnap, String> {
    let m = as_obj(v, "nic")?;
    let mut queue = Vec::new();
    for pv in get_arr(m, "queue")? {
        let mut w = str_item(pv, "queued packet")?;
        queue.push(parse_packet(&mut w)?);
        w.finish()?;
    }
    let streaming = match get(m, "streaming")? {
        Value::Null => None,
        v => {
            let mut w = str_item(v, "streaming packet")?;
            let p = parse_packet(&mut w)?;
            let out = (p, w.int()?, w.int()?, w.int()?);
            w.finish()?;
            Some(out)
        }
    };
    Ok(NicSnap {
        queue,
        credits: split_ints(get_str(m, "credits")?, "nic credits")?,
        streaming,
        vc_cursor: get_usize(m, "vc_cursor")?,
        eject_flits: get_u64(m, "eject_flits")?,
        throttled: get_u64(m, "throttled")? != 0,
    })
}

fn decode_sensors(v: &Value) -> Result<LinkSensors, String> {
    let m = as_obj(v, "sensors")?;
    let window = get_u64(m, "window")?;
    let window = u32::try_from(window).map_err(|_| format!("sensor window {window} too large"))?;
    Ok(LinkSensors::from_parts(
        window,
        split_ints(get_str(m, "chan_busy")?, "chan_busy")?,
        split_ints(get_str(m, "bus_busy")?, "bus_busy")?,
        split_ints(get_str(m, "bus_wait")?, "bus_wait")?,
        split_ints(get_str(m, "chan_util")?, "chan_util")?,
        split_ints(get_str(m, "bus_util")?, "bus_util")?,
        split_ints(get_str(m, "bus_wait_ewma")?, "bus_wait_ewma")?,
    ))
}

fn decode_fault(v: &Value) -> Result<FaultSnap, String> {
    let m = as_obj(v, "fault")?;
    let mut notices = Vec::new();
    for nv in get_arr(m, "notices")? {
        let mut w = str_item(nv, "fault notice")?;
        let cycle = w.int()?;
        let target = parse_target(&mut w)?;
        let up = w.int::<u8>()? != 0;
        w.finish()?;
        notices.push((cycle, target, up));
    }
    let mut recoveries = Vec::new();
    for rv in get_arr(m, "recoveries")? {
        let mut w = str_item(rv, "fault recovery")?;
        let cycle = w.int()?;
        let target = parse_target(&mut w)?;
        w.finish()?;
        recoveries.push((cycle, target));
    }
    // Tolerant decode: v2 checkpoints predate the silent-corruption
    // process, so its tracking sets are empty and its stream undrawn.
    let corrupt = if m.contains_key("corrupt") { get_u64s(m, "corrupt")? } else { Vec::new() };
    let mut misrouted = Vec::new();
    if m.contains_key("misrouted") {
        for mv in get_arr(m, "misrouted")? {
            let mut w = str_item(mv, "misrouted packet")?;
            misrouted.push((w.int()?, w.int()?));
            w.finish()?;
        }
    }
    Ok(FaultSnap {
        next_event: get_usize(m, "next_event")?,
        channel_down_until: get_u64s(m, "channel_down_until")?,
        bus_down_until: get_u64s(m, "bus_down_until")?,
        token_down_until: get_u64s(m, "token_down_until")?,
        notices,
        recoveries,
        poisoned: get_u64s(m, "poisoned")?,
        corrupt,
        misrouted,
        first_fault_at: get_opt_u64(m, "first_fault_at")?,
        rng_draws: get_u64(m, "rng_draws")?,
        crng_draws: get_u64_or_zero(m, "crng_draws")?,
        schedule_len: get_usize(m, "schedule_len")?,
        seed: get_u64(m, "seed")?,
    })
}

fn decode_snapshot(v: &Value) -> Result<NetworkSnapshot, String> {
    let m = as_obj(v, "snapshot")?;
    let routers =
        get_arr(m, "routers")?.iter().map(decode_router).collect::<Result<Vec<_>, _>>()?;
    let channels =
        get_arr(m, "channels")?.iter().map(decode_channel).collect::<Result<Vec<_>, _>>()?;
    let buses = get_arr(m, "buses")?.iter().map(decode_bus).collect::<Result<Vec<_>, _>>()?;
    let nics = get_arr(m, "nics")?.iter().map(decode_nic).collect::<Result<Vec<_>, _>>()?;
    let fault = match get(m, "fault")? {
        Value::Null => None,
        v => Some(decode_fault(v)?),
    };
    let sensors = match get(m, "sensors")? {
        Value::Null => None,
        v => Some(decode_sensors(v)?),
    };
    // Tolerant: pre-telemetry checkpoints have no "metrics" key at all.
    let metrics = match m.get("metrics") {
        None | Some(Value::Null) => None,
        Some(v) => {
            let mm = as_obj(v, "metrics")?;
            Some(MetricsState {
                n_clusters: get_usize(mm, "n_clusters")?,
                matrix: get_u64s(mm, "matrix")?,
            })
        }
    };
    Ok(NetworkSnapshot {
        now: get_u64(m, "now")?,
        next_packet_id: get_u64(m, "next_packet_id")?,
        routers,
        channels,
        buses,
        nics,
        fault,
        routing: get_u64s(m, "routing")?,
        sensors,
        stats: decode_stats(get(m, "stats")?)?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::{FaultConfig, FaultEvent, FaultSchedule, Network, RouterConfig};
    use noc_topology::{Topology, WirelessCMesh};
    use noc_traffic::{BernoulliInjector, TrafficPattern};

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("noc-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A small topology that exercises every snapshot component, including
    /// wireless SWMR buses with token rings.
    fn topo() -> WirelessCMesh {
        WirelessCMesh::new(64)
    }

    fn fault_cfg() -> FaultConfig {
        FaultConfig {
            schedule: FaultSchedule::new().with(FaultEvent::transient(
                60,
                noc_core::FaultTarget::Channel(0),
                120,
            )),
            channel_ber: vec![1e-4; 4],
            ..Default::default()
        }
    }

    fn build() -> (Network, BernoulliInjector) {
        let mut net = topo().build(RouterConfig::default());
        net.attach_faults(fault_cfg());
        let inj = BernoulliInjector::new(0.10, 4, TrafficPattern::Uniform, 42);
        (net, inj)
    }

    #[test]
    fn json_roundtrip_resumes_bit_identically() {
        // Uninterrupted reference.
        let (mut ref_net, mut ref_inj) = build();
        ref_inj.drive(&mut ref_net, 500);

        // Same prefix, checkpointed through the JSON codec at cycle 150.
        let (mut net, mut inj) = build();
        inj.drive(&mut net, 150);
        let ckpt = Checkpoint {
            topology: topo().name(),
            seed: 42,
            cycle: net.now,
            injector_offers: inj.offers(),
            ejected_window_start: None,
            ejected_window_end: None,
            snapshot: net.snapshot(),
        };
        let decoded = Checkpoint::from_json(&ckpt.to_json()).unwrap();
        assert_eq!(decoded.topology, ckpt.topology);
        assert_eq!(decoded.cycle, 150);
        assert_eq!(decoded.injector_offers, 150);
        // The sentinel "window still open" value must survive the f64-free
        // integer encoding exactly.
        assert_eq!(decoded.snapshot.stats.measure_until, u64::MAX);

        let (mut resumed_net, mut resumed_inj) = build();
        resumed_net.restore(&decoded.snapshot).unwrap();
        resumed_inj.skip_cycles(decoded.injector_offers, resumed_net.num_cores() as u32);
        resumed_inj.drive(&mut resumed_net, 350);

        assert_eq!(resumed_net.stats, ref_net.stats);
        assert_eq!(resumed_net.now, ref_net.now);
    }

    /// Rebuild a v3 document as its v2 ancestor: version word downgraded,
    /// flit records without the trailing payload/CRC words, Active VC
    /// states without the trailing owner word, and none of the integrity
    /// keys in the fault and stats blocks. This is exactly what a file
    /// written by the previous release looks like.
    fn downgrade_to_v2(v: &Value) -> Value {
        fn strip_last_words(s: &str, n: usize) -> String {
            let words: Vec<&str> = s.split_whitespace().collect();
            words[..words.len() - n].join(" ")
        }
        // `ctx` is the key this value sits under — the integrity keys must
        // only vanish from their own blocks ("recoveries", for one, also
        // names the v2-era spare-band event list in the fault block).
        fn walk(v: &Value, ctx: &str) -> Value {
            match v {
                Value::Object(m) => {
                    let mut out = Map::new();
                    for (k, val) in m.iter() {
                        match (ctx, k.as_str()) {
                            // Integrity state that did not exist in v2.
                            (
                                "stats",
                                "corrupted_detected"
                                | "corrupted_delivered"
                                | "misroutes"
                                | "recoveries"
                                | "flits_flushed",
                            )
                            | ("fault", "corrupt" | "misrouted" | "crng_draws") => continue,
                            ("", "version") => out.insert(k.clone(), Value::String("2".into())),
                            // Flit lists: every record loses "payload crc".
                            (_, "buf" | "in_flight") => {
                                let stripped = val
                                    .as_array()
                                    .expect("flit lists are arrays")
                                    .iter()
                                    .map(|it| {
                                        let s = it.as_str().expect("flit records are strings");
                                        Value::String(strip_last_words(s, 2))
                                    })
                                    .collect();
                                out.insert(k.clone(), Value::Array(stripped))
                            }
                            // VC states: an Active state loses its owner word.
                            (_, "state") => {
                                let s = val.as_str().expect("vc states are strings");
                                let v2 = if s.starts_with("A ") {
                                    strip_last_words(s, 1)
                                } else {
                                    s.to_string()
                                };
                                out.insert(k.clone(), Value::String(v2))
                            }
                            _ => out.insert(k.clone(), walk(val, k)),
                        };
                    }
                    Value::Object(out)
                }
                Value::Array(a) => Value::Array(a.iter().map(|it| walk(it, ctx)).collect()),
                other => other.clone(),
            }
        }
        walk(v, "")
    }

    #[test]
    fn v2_checkpoint_decodes_tolerantly_and_resumes_bit_identically() {
        // Uninterrupted reference.
        let (mut ref_net, mut ref_inj) = build();
        ref_inj.drive(&mut ref_net, 500);

        // The same prefix, checkpointed at cycle 150 and round-tripped
        // through a synthesized *v2* document.
        let (mut net, mut inj) = build();
        inj.drive(&mut net, 150);
        let ckpt = Checkpoint {
            topology: topo().name(),
            seed: 42,
            cycle: net.now,
            injector_offers: inj.offers(),
            ejected_window_start: None,
            ejected_window_end: None,
            snapshot: net.snapshot(),
        };
        let v3_text = ckpt.to_json();
        let v3_value: Value = v3_text.parse().unwrap();
        let v2_text = json::to_string(&downgrade_to_v2(&v3_value));
        assert!(v2_text.contains("\"version\":\"2\""), "downgrade left the version at 3");
        assert!(
            v2_text.len() < v3_text.len(),
            "downgrade removed nothing — the fixture is not exercising v2 paths"
        );

        let decoded = Checkpoint::from_json(&v2_text)
            .expect("a v2 checkpoint must still decode on the tolerant paths");
        assert_eq!(decoded.cycle, 150);
        // Counters born in v3 start at zero on a v2 read.
        assert_eq!(decoded.snapshot.stats.corrupted_detected, 0);
        assert_eq!(decoded.snapshot.stats.recoveries, 0);

        // Re-stamped payloads and derived owners must behave identically:
        // resuming from the v2 document replays the reference run exactly.
        let (mut resumed_net, mut resumed_inj) = build();
        resumed_net.restore(&decoded.snapshot).unwrap();
        resumed_net.check_invariants();
        resumed_inj.skip_cycles(decoded.injector_offers, resumed_net.num_cores() as u32);
        resumed_inj.drive(&mut resumed_net, 350);

        assert_eq!(resumed_net.stats, ref_net.stats);
        assert_eq!(resumed_net.now, ref_net.now);
    }

    #[test]
    fn write_is_atomic_and_latest_finds_newest() {
        let dir = test_dir("atomic");
        let (mut net, mut inj) = build();
        for cycle in [64u64, 192] {
            let ahead = cycle - net.now;
            inj.drive(&mut net, ahead);
            let ckpt = Checkpoint {
                topology: topo().name(),
                seed: 42,
                cycle: net.now,
                injector_offers: inj.offers(),
                ejected_window_start: Some(7),
                ejected_window_end: None,
                snapshot: net.snapshot(),
            };
            let path = write_checkpoint(&dir, &ckpt).unwrap();
            assert_eq!(path.file_name().unwrap().to_str().unwrap(), checkpoint_file_name(cycle));
        }
        // No temporary files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_str().unwrap().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());

        let (latest, ckpt) = latest_valid_checkpoint(&dir).unwrap().unwrap();
        assert!(latest.ends_with(checkpoint_file_name(192)));
        assert_eq!(ckpt.cycle, 192);
        assert_eq!(ckpt.ejected_window_start, Some(7));
        assert_eq!(ckpt.ejected_window_end, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_magic_and_unknown_version() {
        let err = Checkpoint::from_json(r#"{"magic":"other","version":"1"}"#).unwrap_err();
        assert!(err.contains("bad magic"), "got: {err}");
        let err =
            Checkpoint::from_json(&format!(r#"{{"magic":"{CHECKPOINT_MAGIC}","version":"999"}}"#))
                .unwrap_err();
        assert!(err.contains("version 999"), "got: {err}");
        let err = Checkpoint::from_json("not json at all").unwrap_err();
        assert!(err.contains("JSON"), "got: {err}");
    }

    #[test]
    fn read_checkpoint_maps_errors_to_invalid_data() {
        let dir = test_dir("invalid");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint-000000000005.json");
        std::fs::write(&path, "{\"magic\":\"nope\"}").unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checkpoint-000000000005.json"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_ignores_foreign_and_tmp_files() {
        let dir = test_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), "x").unwrap();
        std::fs::write(dir.join("checkpoint-000000000009.json.tmp"), "x").unwrap();
        assert!(latest_valid_checkpoint(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
