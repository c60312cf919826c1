//! Telemetry exporters: the `own-noc-metrics/v1` JSONL stream, heatmap /
//! band-occupancy CSVs, a Prometheus textfile, and the `metrics`
//! summarizer behind the CLI subcommand.
//!
//! The JSONL writer hand-rolls its formatting (like `crate::checkpoint`):
//! every deterministic line — header, frames, matrix — is built from
//! integers in fixed key order, so a seeded run produces a byte-identical
//! stream and tests can pin a fingerprint. Wall-clock-bearing lines
//! (`"kind":"stage"`, `"kind":"summary"`) are emitted last and excluded
//! from that contract.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use noc_core::{ClusterMap, MetricsFrame, MetricsRegistry, Network, STAGE_NAMES};
use noc_topology::Topology;

use crate::json::Value;
use crate::metrics::SimResult;

/// The versioned schema tag on the JSONL header line.
pub const METRICS_SCHEMA: &str = "own-noc-metrics/v1";

/// Build the flat spatial index the registry aggregates by from a
/// topology's cluster structure (cores inherit their router's cluster).
pub fn cluster_map_for(topo: &dyn Topology, net: &Network) -> ClusterMap {
    let n_clusters = topo.num_clusters();
    let cluster_of_router: Vec<u16> =
        (0..net.num_routers()).map(|r| topo.cluster_of(r as u32) as u16).collect();
    let cluster_of_core: Vec<u16> = (0..net.num_cores())
        .map(|c| cluster_of_router[net.core_router(c as u32) as usize])
        .collect();
    let group_of_cluster: Vec<u16> =
        (0..n_clusters).map(|c| topo.group_of_cluster(c) as u16).collect();
    ClusterMap {
        n_clusters,
        n_groups: topo.num_groups(),
        cluster_of_core,
        cluster_of_router,
        group_of_cluster,
    }
}

/// Paths of the artifact set written next to `--metrics-out <path>`.
#[derive(Debug, Clone)]
pub struct MetricsArtifacts {
    /// The `own-noc-metrics/v1` JSONL stream (the `--metrics-out` path).
    pub jsonl: PathBuf,
    /// Cluster×cluster offered-traffic matrix as CSV.
    pub heatmap: PathBuf,
    /// Per-band (bus) utilization over time as CSV.
    pub bands: PathBuf,
    /// Prometheus textfile-collector exposition.
    pub prom: PathBuf,
}

fn join_u64s(out: &mut String, vals: &[u64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn frame_line(f: &MetricsFrame) -> String {
    let mut s = String::with_capacity(256);
    let _ = write!(s, "{{\"kind\":\"frame\",\"cycle\":{}", f.cycle);
    s.push_str(",\"cluster_buffered\":");
    join_u64s(&mut s, &f.cluster_buffered);
    s.push_str(",\"cluster_backlog\":");
    join_u64s(&mut s, &f.cluster_backlog);
    s.push_str(",\"cluster_delivered\":");
    join_u64s(&mut s, &f.cluster_delivered);
    s.push_str(",\"bus_flits\":");
    join_u64s(&mut s, &f.bus_flits);
    s.push_str(",\"bus_token_wait\":");
    join_u64s(&mut s, &f.bus_token_wait);
    s.push_str(",\"bus_util\":[");
    for (i, u) in f.bus_util.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{u}");
    }
    let _ = write!(
        s,
        "],\"shed\":{},\"deferred\":{},\"retransmits\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        f.offers_shed, f.offers_deferred, f.flit_retransmits, f.p50, f.p95, f.p99
    );
    s
}

/// Render the deterministic portion of the JSONL stream: header, every
/// frame, and the matrix line. Separated from [`export_metrics`] so tests
/// can fingerprint exactly the bytes the determinism contract covers.
pub fn deterministic_lines(name: &str, n_buses: usize, reg: &MetricsRegistry) -> Vec<String> {
    let map = reg.cluster_map();
    let mut lines = Vec::with_capacity(reg.frames().len() + 2);
    lines.push(format!(
        "{{\"schema\":\"{METRICS_SCHEMA}\",\"kind\":\"header\",\"topology\":\"{name}\",\
         \"clusters\":{},\"groups\":{},\"buses\":{n_buses},\"interval\":{}}}",
        map.n_clusters,
        map.n_groups,
        reg.interval()
    ));
    for f in reg.frames() {
        lines.push(frame_line(f));
    }
    let mut m = String::with_capacity(64);
    let _ = write!(m, "{{\"kind\":\"matrix\",\"clusters\":{},\"counts\":", map.n_clusters);
    join_u64s(&mut m, reg.matrix());
    m.push('}');
    lines.push(m);
    lines
}

/// Write the full artifact set for a finished run: the JSONL stream at
/// `path` plus `<path>.heatmap.csv`, `<path>.bands.csv` and `<path>.prom`.
///
/// Requires the run to have had a metrics registry attached
/// ([`crate::sim::Simulation::enable_metrics`]); the stage and summary
/// lines are included when the stage profiler ran too.
pub fn export_metrics(result: &SimResult, path: &Path) -> io::Result<MetricsArtifacts> {
    let reg = result.net.metrics().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "run has no metrics registry attached")
    })?;
    let name = &result.name;
    let stats = &result.net.stats;

    let mut lines = deterministic_lines(name, result.net.buses().len(), reg);
    if let Some(b) = result.profile.stages {
        let mut s = String::with_capacity(192);
        let _ = write!(
            s,
            "{{\"kind\":\"stage\",\"cycles_profiled\":{},\"timed_cycles\":{},\"names\":[",
            b.cycles_profiled, b.timed_cycles
        );
        for (i, n) in STAGE_NAMES.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{n}\"");
        }
        s.push_str("],\"nanos\":");
        join_u64s(&mut s, &b.stage_nanos);
        let _ = write!(
            s,
            ",\"avg_active\":[{:.3},{:.3},{:.3},{:.3}],\"avg_vca_attempts\":{:.3},\
             \"avg_parked_vcs\":{:.3}}}",
            b.avg_active_routers,
            b.avg_active_channels,
            b.avg_active_buses,
            b.avg_active_nics,
            b.avg_vca_attempts,
            b.avg_parked_vcs
        );
        lines.push(s);
    }
    lines.push(format!(
        "{{\"kind\":\"summary\",\"cycles\":{},\"packets_offered\":{},\"packets_delivered\":{},\
         \"flits_ejected\":{},\"shed\":{},\"deferred\":{},\"retransmits\":{},\
         \"p50\":{},\"p95\":{},\"p99\":{},\"wall_secs\":{:.3}}}",
        result.cycles,
        stats.packets_offered,
        stats.packets_delivered,
        stats.flits_ejected,
        stats.offers_shed,
        stats.offers_deferred,
        stats.flit_retransmits,
        result.p50_latency,
        result.p95_latency,
        result.p99_latency,
        result.profile.total_secs,
    ));
    fs::write(path, lines.join("\n") + "\n")?;

    let heatmap = with_suffix(path, ".heatmap.csv");
    fs::write(&heatmap, heatmap_csv(reg))?;
    let bands = with_suffix(path, ".bands.csv");
    fs::write(&bands, bands_csv(reg))?;
    let prom = with_suffix(path, ".prom");
    fs::write(&prom, prom_textfile(result, reg))?;
    Ok(MetricsArtifacts { jsonl: path.to_path_buf(), heatmap, bands, prom })
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// Cluster×cluster offered-packet matrix as CSV (rows = source cluster).
fn heatmap_csv(reg: &MetricsRegistry) -> String {
    let n = reg.cluster_map().n_clusters;
    let mut out = String::from("src_dst");
    for d in 0..n {
        let _ = write!(out, ",c{d}");
    }
    out.push('\n');
    for s in 0..n {
        let _ = write!(out, "c{s}");
        for d in 0..n {
            let _ = write!(out, ",{}", reg.matrix()[s * n + d]);
        }
        out.push('\n');
    }
    out
}

/// Per-band utilization gauge over time as CSV (rows = frames).
fn bands_csv(reg: &MetricsRegistry) -> String {
    let n_buses = reg.frames().first().map_or(0, |f| f.bus_util.len());
    let mut out = String::from("cycle");
    for b in 0..n_buses {
        let _ = write!(out, ",bus{b}");
    }
    out.push('\n');
    for f in reg.frames() {
        let _ = write!(out, "{}", f.cycle);
        for u in &f.bus_util {
            let _ = write!(out, ",{u}");
        }
        out.push('\n');
    }
    out
}

/// Prometheus textfile-collector exposition of the run's final counters.
fn prom_textfile(result: &SimResult, reg: &MetricsRegistry) -> String {
    let stats = &result.net.stats;
    let topo = &result.name;
    let mut out = String::new();
    fn counter_hdr(out: &mut String, name: &str, help: &str) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
    }
    counter_hdr(&mut out, "own_noc_packets_offered_total", "Packets accepted into source queues.");
    let _ =
        writeln!(out, "own_noc_packets_offered_total{{topo=\"{topo}\"}} {}", stats.packets_offered);
    counter_hdr(&mut out, "own_noc_packets_delivered_total", "Packets fully delivered.");
    let _ = writeln!(
        out,
        "own_noc_packets_delivered_total{{topo=\"{topo}\"}} {}",
        stats.packets_delivered
    );
    counter_hdr(&mut out, "own_noc_offers_shed_total", "Offers shed by NIC admission control.");
    let _ = writeln!(out, "own_noc_offers_shed_total{{topo=\"{topo}\"}} {}", stats.offers_shed);
    counter_hdr(
        &mut out,
        "own_noc_flit_retransmits_total",
        "Link-level retransmissions scheduled.",
    );
    let _ = writeln!(
        out,
        "own_noc_flit_retransmits_total{{topo=\"{topo}\"}} {}",
        stats.flit_retransmits
    );
    counter_hdr(
        &mut out,
        "own_noc_cluster_traffic_total",
        "Offered packets by source/destination cluster.",
    );
    let n = reg.cluster_map().n_clusters;
    for s in 0..n {
        for d in 0..n {
            let v = reg.matrix()[s * n + d];
            if v > 0 {
                let _ = writeln!(
                    out,
                    "own_noc_cluster_traffic_total{{topo=\"{topo}\",src=\"{s}\",dst=\"{d}\"}} {v}"
                );
            }
        }
    }
    counter_hdr(&mut out, "own_noc_bus_flits_total", "Flit traversals per shared band.");
    for (b, v) in stats.bus_flits.iter().enumerate() {
        let _ = writeln!(out, "own_noc_bus_flits_total{{topo=\"{topo}\",bus=\"{b}\"}} {v}");
    }
    counter_hdr(
        &mut out,
        "own_noc_bus_token_wait_cycles_total",
        "Token wait cycles per shared band.",
    );
    for (b, v) in stats.bus_token_wait.iter().enumerate() {
        let _ =
            writeln!(out, "own_noc_bus_token_wait_cycles_total{{topo=\"{topo}\",bus=\"{b}\"}} {v}");
    }
    let _ = writeln!(out, "# HELP own_noc_latency_cycles Packet latency quantiles (cycles).");
    let _ = writeln!(out, "# TYPE own_noc_latency_cycles gauge");
    for (q, v) in
        [("0.5", result.p50_latency), ("0.95", result.p95_latency), ("0.99", result.p99_latency)]
    {
        let _ = writeln!(out, "own_noc_latency_cycles{{topo=\"{topo}\",quantile=\"{q}\"}} {v}");
    }
    if let Some(b) = result.profile.stages {
        let _ = writeln!(
            out,
            "# HELP own_noc_stage_nanos_total Engine wall nanos per stage (sampled)."
        );
        let _ = writeln!(out, "# TYPE own_noc_stage_nanos_total counter");
        for (name, nanos) in STAGE_NAMES.iter().zip(b.stage_nanos.iter()) {
            let _ = writeln!(
                out,
                "own_noc_stage_nanos_total{{topo=\"{topo}\",stage=\"{name}\"}} {nanos}"
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Summarizer (the `metrics` CLI subcommand)
// ---------------------------------------------------------------------------

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn get_u64s(v: &Value, key: &str) -> Option<Vec<u64>> {
    Some(v.get(key)?.as_array()?.iter().filter_map(|x| x.as_u64()).collect())
}

/// Parse an `own-noc-metrics/v1` JSONL file and render a human summary:
/// run header, top-k hot bands, the stage-time pie, hottest cluster
/// pairs, and the shard-imbalance index (max/mean delivered per cluster).
pub fn summarize_metrics(path: &Path) -> Result<String, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut header: Option<Value> = None;
    let mut last_frame: Option<Value> = None;
    let mut n_frames = 0usize;
    let mut matrix: Option<Value> = None;
    let mut stage: Option<Value> = None;
    let mut summary: Option<Value> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = line.parse().map_err(|e| format!("line {}: {e}", i + 1))?;
        match v.get("kind").and_then(|k| k.as_str()) {
            Some("header") => {
                let schema = v.get("schema").and_then(|s| s.as_str()).unwrap_or("");
                if !schema.starts_with("own-noc-metrics/v1") {
                    return Err(format!("unsupported metrics schema {schema:?}"));
                }
                header = Some(v);
            }
            Some("frame") => {
                n_frames += 1;
                last_frame = Some(v);
            }
            Some("matrix") => matrix = Some(v),
            Some("stage") => stage = Some(v),
            Some("summary") => summary = Some(v),
            _ => return Err(format!("line {}: missing or unknown \"kind\"", i + 1)),
        }
    }
    let header = header.ok_or("no header line (is this an own-noc-metrics file?)")?;
    let topo = header.get("topology").and_then(|t| t.as_str()).unwrap_or("?");
    let clusters = get_u64(&header, "clusters").unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{topo}: {clusters} clusters x {} groups, {} buses, {n_frames} frames every {} cycles",
        get_u64(&header, "groups").unwrap_or(0),
        get_u64(&header, "buses").unwrap_or(0),
        get_u64(&header, "interval").unwrap_or(0),
    );

    if let Some(s) = &summary {
        let _ = writeln!(
            out,
            "run: {} cycles, {} offered, {} delivered, p50/p95/p99 = {}/{}/{} cycles",
            get_u64(s, "cycles").unwrap_or(0),
            get_u64(s, "packets_offered").unwrap_or(0),
            get_u64(s, "packets_delivered").unwrap_or(0),
            get_u64(s, "p50").unwrap_or(0),
            get_u64(s, "p95").unwrap_or(0),
            get_u64(s, "p99").unwrap_or(0),
        );
    }

    if let Some(f) = &last_frame {
        if let Some(flits) = get_u64s(f, "bus_flits") {
            let wait = get_u64s(f, "bus_token_wait").unwrap_or_default();
            let mut hot: Vec<(usize, u64)> = flits.iter().copied().enumerate().collect();
            hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let _ = writeln!(out, "hot bands (flits | token-wait cycles):");
            for &(b, v) in hot.iter().take(8) {
                if v == 0 {
                    break;
                }
                let _ =
                    writeln!(out, "  bus {b:>3}: {v:>10} | {}", wait.get(b).copied().unwrap_or(0));
            }
        }
        if let Some(del) = get_u64s(f, "cluster_delivered") {
            if !del.is_empty() {
                let max = *del.iter().max().unwrap() as f64;
                let mean = del.iter().sum::<u64>() as f64 / del.len() as f64;
                let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
                let _ = writeln!(
                    out,
                    "shard imbalance (max/mean delivered per cluster): {imbalance:.3}"
                );
            }
        }
    }

    if let (Some(m), true) = (&matrix, clusters > 0) {
        if let Some(counts) = get_u64s(m, "counts") {
            let n = clusters as usize;
            let mut pairs: Vec<(usize, usize, u64)> =
                (0..n * n).filter(|&i| counts[i] > 0).map(|i| (i / n, i % n, counts[i])).collect();
            pairs.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
            let _ = writeln!(out, "hottest cluster pairs (offered packets):");
            for &(s, d, v) in pairs.iter().take(4) {
                let _ = writeln!(out, "  c{s} -> c{d}: {v}");
            }
        }
    }

    if let Some(st) = &stage {
        if let Some(nanos) = get_u64s(st, "nanos") {
            let names: Vec<String> = st
                .get("names")
                .and_then(|v| v.as_array())
                .map(|a| a.iter().filter_map(|x| x.as_str().map(str::to_string)).collect())
                .unwrap_or_else(|| STAGE_NAMES.iter().map(|s| s.to_string()).collect());
            let total: u64 = nanos.iter().sum();
            if total > 0 {
                let _ = writeln!(
                    out,
                    "stage time (over {} timed cycles):",
                    get_u64(st, "timed_cycles").unwrap_or(0)
                );
                let mut rows: Vec<(&str, u64)> =
                    names.iter().map(String::as_str).zip(nanos.iter().copied()).collect();
                rows.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
                for (name, n) in rows {
                    if n == 0 {
                        continue;
                    }
                    let pct = 100.0 * n as f64 / total as f64;
                    let bar_len = (pct / 2.5).round() as usize;
                    let _ =
                        writeln!(out, "  {name:<9} {pct:>5.1}% {}", "#".repeat(bar_len.min(40)));
                }
            }
        }
        let avg = |key| st.get(key).and_then(Value::as_f64);
        if let (Some(attempts), Some(parked)) = (avg("avg_vca_attempts"), avg("avg_parked_vcs")) {
            let _ = writeln!(
                out,
                "VC allocation per timed cycle: {attempts:.1} attempts, {parked:.1} parked VCs skipped"
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulation};
    use noc_topology::Own256;
    use noc_traffic::TrafficPattern;

    fn tiny_run() -> SimResult {
        let topo = Own256::default();
        let cfg = SimConfig {
            rate: 0.05,
            pattern: TrafficPattern::Uniform,
            warmup: 100,
            measure: 300,
            drain: 600,
            ..Default::default()
        };
        let mut sim = Simulation::new(&topo, cfg);
        sim.enable_metrics(&topo, 100);
        sim.profile_stages(4, 100);
        sim.run()
    }

    #[test]
    fn export_and_summarize_round_trip() {
        let r = tiny_run();
        let dir = std::env::temp_dir().join(format!("own-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.jsonl");
        let arts = export_metrics(&r, &path).unwrap();
        let text = std::fs::read_to_string(&arts.jsonl).unwrap();
        assert!(text.starts_with("{\"schema\":\"own-noc-metrics/v1\""));
        assert!(text.contains("\"kind\":\"frame\""));
        assert!(text.contains("\"kind\":\"matrix\""));
        assert!(text.contains("\"kind\":\"stage\""));
        let heat = std::fs::read_to_string(&arts.heatmap).unwrap();
        assert_eq!(heat.lines().count(), 5, "4 clusters + header");
        let summary = summarize_metrics(&path).unwrap();
        assert!(summary.contains("OWN-256"), "{summary}");
        assert!(summary.contains("stage time"), "{summary}");
        assert!(summary.contains("VC allocation per timed cycle"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_map_matches_own256_geometry() {
        let topo = Own256::default();
        let net = topo.build(Default::default());
        let map = cluster_map_for(&topo, &net);
        assert_eq!(map.n_clusters, 4);
        assert_eq!(map.cluster_of_router.len(), 64);
        assert_eq!(map.cluster_of_core.len(), 256);
        // Router 17 sits in cluster 1; its 4 cores follow it.
        assert_eq!(map.cluster_of_router[17], 1);
        assert_eq!(map.cluster_of_core[17 * 4], 1);
        map.validate();
    }

    #[test]
    fn summarize_rejects_garbage() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("own-telemetry-bad-{}.jsonl", std::process::id()));
        std::fs::write(&path, "not json\n").unwrap();
        assert!(summarize_metrics(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
