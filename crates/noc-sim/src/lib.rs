//! # noc-sim — simulation driver and experiment runners
//!
//! Ties the workspace together: builds a topology, drives it with synthetic
//! traffic under the paper's methodology (§V-A: warm-up, measurement
//! window, drain), extracts latency/throughput metrics, prices the run with
//! the `noc-power` models, and regenerates every table and figure of the
//! paper through [`experiments`].
//!
//! ```no_run
//! use noc_sim::{Simulation, SimConfig};
//! use noc_topology::Own;
//! use noc_traffic::TrafficPattern;
//!
//! let cfg = SimConfig { rate: 0.04, pattern: TrafficPattern::Uniform, ..Default::default() };
//! let result = Simulation::new(&Own::new_256(), cfg).run();
//! println!("avg latency {:.1} cycles, throughput {:.3} flits/core/cycle",
//!          result.avg_latency, result.throughput);
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
/// Process measurements for the benchmark of record (`perfbench/`).
pub mod bench {
    /// Peak resident set size of this process in kB (Linux `VmHWM`), if
    /// cheap to obtain on this platform.
    pub fn peak_rss_kb() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }
}
pub mod chart;
pub mod checkpoint;
pub mod exit;
pub mod experiments;
pub mod json;
pub mod metrics;
pub mod obs;
pub mod report;
pub mod sim;
pub mod spec;
pub mod supervisor;
pub mod sweep;
pub mod telemetry;
pub mod workers;

pub use checkpoint::{
    atomic_write, fsync_dir, latest_valid_checkpoint, read_checkpoint, write_checkpoint, Checkpoint,
};
pub use metrics::{EngineProfile, SimResult};
pub use obs::{RingRecorder, Sample, SampleSeries};
pub use report::Report;
pub use sim::{SimConfig, Simulation};
pub use spec::SimSpec;
pub use supervisor::{
    check_point_cap, render_results, run_sweep, PointCtx, PointFailure, PointMetrics, PointOutcome,
    PointRunner, PointScheduler, PointSpec, PointState, RunLock, SimRunner, SupervisorConfig,
    SweepOutcome, SweepSpec,
};
pub use sweep::{latency_vs_load, replicate, saturation_throughput, LoadPoint, Replicated};
pub use telemetry::{
    cluster_map_for, export_metrics, summarize_metrics, MetricsArtifacts, METRICS_SCHEMA,
};
