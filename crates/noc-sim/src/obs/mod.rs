//! Observability consumers: recording, exporting, and sampling.
//!
//! The engine (`noc-core`) emits raw [`noc_core::obs::NocEvent`]s; this
//! module turns them into artifacts a human can look at:
//!
//! * [`RingRecorder`] — a bounded ring-buffer [`noc_core::obs::Observer`]
//!   that keeps the newest events and counts what it had to drop.
//! * [`chrome_trace`] / [`jsonl`] — export recorded events as a Chrome
//!   trace (`chrome://tracing`, Perfetto) or as one JSON object per line.
//! * [`SampleSeries`] — periodic time-series sampling of network state
//!   (in-flight flits, queue depths, channel/bus utilization) with
//!   warmup-convergence and saturation-onset detection.
//!
//! A typical traced run:
//!
//! ```no_run
//! use noc_sim::obs::RingRecorder;
//! use noc_sim::{SimConfig, Simulation};
//! use noc_topology::Own256;
//!
//! let mut sim = Simulation::new(&Own256::new(), SimConfig::default());
//! sim.attach_observer(Box::new(RingRecorder::new(1 << 20)));
//! let mut result = sim.run();
//! let rec = RingRecorder::take_from(&mut result.net).unwrap();
//! std::fs::write("trace.json", noc_sim::obs::chrome_trace(&rec.to_vec())).unwrap();
//! ```

pub mod export;
pub mod recorder;
pub mod sampler;

pub use export::{
    chrome_trace, chrome_trace_with_stall, jsonl, jsonl_with_stall, recovery_report_json,
    stall_report_json, write_chrome_trace_with_stall, write_jsonl_with_stall,
};
pub use recorder::RingRecorder;
pub use sampler::{Sample, SampleSeries};
