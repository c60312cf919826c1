//! Single-simulation driver implementing the paper's methodology.
//!
//! A run is: **warm-up** (traffic flows, nothing measured) → **measurement
//! window** (latency recorded for packets created in the window; accepted
//! throughput counted at the ejectors) → **drain** (injection stops, the
//! window's packets finish; bounded). Seeds are explicit, so every result
//! is reproducible.
//!
//! Long runs get three durability features, all off the per-cycle hot path:
//!
//! * **Checkpointing** ([`Simulation::set_checkpointing`]): every N cycles
//!   the full engine state is written atomically to a directory (see
//!   [`crate::checkpoint`]); [`Simulation::resume`] picks the run back up
//!   from the newest checkpoint with bit-identical final statistics.
//! * **Progress watchdog** (on by default): a stalled network — no flit
//!   movement for two watchdog intervals — aborts the run with a
//!   structured [`StallReport`] in [`SimResult::stall`] instead of
//!   spinning out the cycle budget.
//! * **Invariant auditing** ([`Simulation::set_audit_interval`]): the
//!   engine's full invariant sweep runs every N cycles and panics on the
//!   first violation, pinning corruption to a narrow cycle range.
//!
//! Phase boundaries are *absolute* cycles (`warmup`, `warmup + measure`,
//! `warmup + measure + drain`), so a resumed run applies the same window
//! transitions at the same cycles as the uninterrupted run it continues.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use noc_core::obs::Observer;
use noc_core::{
    CancelToken, FaultConfig, MetricsRegistry, Network, RecoveryReport, RouterConfig,
    StageProfiler, StallReport, Watchdog,
};
use noc_topology::Topology;
use noc_traffic::{BernoulliInjector, TrafficPattern};

use crate::checkpoint::{self, Checkpoint};
use crate::metrics::{EngineProfile, SimResult};
use crate::obs::SampleSeries;

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Offered load in flits/core/cycle.
    pub rate: f64,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Packet length in flits.
    pub packet_len: u16,
    /// Warm-up cycles (not measured).
    pub warmup: u64,
    /// Measurement-window cycles.
    pub measure: u64,
    /// Maximum drain cycles after the window (injection continues during
    /// drain so the network stays in steady state, but measurement stops).
    pub drain: u64,
    /// RNG seed.
    pub seed: u64,
    /// Router microarchitecture.
    pub router: RouterConfig,
    /// Capture a state [`Sample`](crate::obs::Sample) every this many
    /// cycles (0 = sampling off). Sampling reads counters the engine
    /// maintains anyway, so it never changes simulation results.
    pub sample_every: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            rate: 0.05,
            pattern: TrafficPattern::Uniform,
            packet_len: 4,
            warmup: 2_000,
            measure: 10_000,
            drain: 30_000,
            seed: 0x0517_2018, // IPDPS 2018
            router: RouterConfig::default(),
            sample_every: 0,
        }
    }
}

/// A configured simulation, ready to run.
pub struct Simulation {
    net: Network,
    injector: BernoulliInjector,
    cfg: SimConfig,
    name: String,
    cores: usize,
    /// Write a checkpoint every this many cycles (0 = off).
    checkpoint_every: u64,
    checkpoint_dir: Option<PathBuf>,
    /// Watchdog check interval in cycles (0 = watchdog off).
    watchdog_interval: u64,
    /// Packets drained per watchdog-triggered recovery (0 = recovery off:
    /// a stall aborts the run with a [`StallReport`], the pre-recovery
    /// behaviour).
    recovery_budget: usize,
    /// Recovery attempts remaining before the watchdog gives up and the
    /// run ends in a stall after all.
    recovery_attempts: u32,
    /// Recoveries performed so far this run.
    recoveries: Vec<RecoveryReport>,
    /// A checkpoint read by [`Simulation::resume`], applied at the start
    /// of [`Simulation::run`] — *after* the caller has attached the same
    /// fault model the checkpointed run had.
    pending_resume: Option<Checkpoint>,
    /// Set by the per-cycle cancel poll: the armed [`CancelToken`] fired
    /// and the run stopped at a cycle boundary.
    cancelled: bool,
}

impl Simulation {
    /// Build the topology and attach the injector.
    pub fn new(topo: &dyn Topology, cfg: SimConfig) -> Self {
        let net = topo.build(cfg.router);
        let injector = BernoulliInjector::new(cfg.rate, cfg.packet_len, cfg.pattern, cfg.seed);
        let cores = net.num_cores();
        Simulation {
            net,
            injector,
            cfg,
            name: topo.name(),
            cores,
            checkpoint_every: 0,
            checkpoint_dir: None,
            watchdog_interval: noc_core::DEFAULT_WATCHDOG_INTERVAL,
            recovery_budget: 0,
            recovery_attempts: 0,
            recoveries: Vec::new(),
            pending_resume: None,
            cancelled: false,
        }
    }

    /// Resume from the newest checkpoint in `dir`: validates the topology
    /// name and traffic seed against `topo`/`cfg` before anything is
    /// restored. Fault models are **not** stored in checkpoints — attach
    /// the same [`FaultConfig`] (via [`Simulation::with_faults`]) the
    /// original run had before calling [`Simulation::run`]; the restore
    /// itself happens at the start of `run` and verifies the fault
    /// fingerprint (schedule length and seed).
    pub fn resume(topo: &dyn Topology, cfg: SimConfig, dir: &Path) -> io::Result<Self> {
        let Some((_, ckpt)) = checkpoint::latest_valid_checkpoint(dir)? else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no usable checkpoint found in {}", dir.display()),
            ));
        };
        Self::resume_from_checkpoint(topo, cfg, ckpt)
    }

    /// [`Simulation::resume`] from an explicit, already-read checkpoint
    /// (e.g. a specific mid-run file rather than the newest one).
    pub fn resume_from_checkpoint(
        topo: &dyn Topology,
        cfg: SimConfig,
        ckpt: Checkpoint,
    ) -> io::Result<Self> {
        let mut sim = Simulation::new(topo, cfg);
        let mismatch = |what: &str, have: &str, want: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checkpoint {what} mismatch: checkpoint has {have}, run has {want}"),
            )
        };
        if ckpt.topology != sim.name {
            return Err(mismatch("topology", &ckpt.topology, &sim.name));
        }
        if ckpt.seed != cfg.seed {
            return Err(mismatch("seed", &ckpt.seed.to_string(), &cfg.seed.to_string()));
        }
        let horizon = cfg.warmup + cfg.measure + cfg.drain;
        if ckpt.cycle > horizon {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checkpoint cycle {} is past the run horizon {horizon}", ckpt.cycle),
            ));
        }
        sim.pending_resume = Some(ckpt);
        Ok(sim)
    }

    /// The checkpoint [`Simulation::resume`] read, until [`Simulation::run`]
    /// restores it.
    pub fn pending_checkpoint(&self) -> Option<&Checkpoint> {
        self.pending_resume.as_ref()
    }

    /// Write a checkpoint into `dir` every `every` cycles (0 disables).
    pub fn set_checkpointing(&mut self, every: u64, dir: impl Into<PathBuf>) {
        self.checkpoint_every = every;
        self.checkpoint_dir = Some(dir.into());
    }

    /// Set the progress-watchdog interval in cycles; 0 disables the
    /// watchdog. Defaults to
    /// [`noc_core::DEFAULT_WATCHDOG_INTERVAL`]. The watchdog only reads
    /// counters, so it never changes simulation results — it only decides
    /// whether a stalled run is cut short.
    pub fn set_watchdog_interval(&mut self, interval: u64) {
        self.watchdog_interval = interval;
    }

    /// Enable watchdog-triggered deadlock **recovery**: when the watchdog
    /// declares a stall, instead of aborting, the engine drains the oldest
    /// blocked packet from up to `budget` stalled virtual channels
    /// (poisoning it and returning its buffer credits) and the run
    /// continues, up to `attempts` times. Each escape produces a
    /// [`RecoveryReport`] in [`SimResult::recoveries`]. With `budget = 0`
    /// (the default) a stall aborts the run as before.
    pub fn set_recovery(&mut self, budget: usize, attempts: u32) {
        self.recovery_budget = budget;
        self.recovery_attempts = attempts;
    }

    /// Run the engine's invariant audit every `every` cycles (0 = off);
    /// see `noc_core::invariants`. Auditing panics on the first violation.
    pub fn set_audit_interval(&mut self, every: u64) {
        self.net.set_audit_interval(every);
    }

    /// Arm a cooperative cancellation token (see `noc_core::cancel`):
    /// the run stops at the next cycle boundary after the token fires —
    /// explicit [`CancelToken::cancel`] or a wall-clock timeout — and the
    /// result comes back with [`SimResult::cancelled`] set. Cancellation
    /// never corrupts state: checkpoints written before the stop stay
    /// valid, so a timed-out point can resume from its newest checkpoint
    /// on retry.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.net.set_cancel_token(token);
    }

    /// Attach an engine event observer (e.g. a
    /// [`RingRecorder`](crate::obs::RingRecorder)); recover it from
    /// `SimResult::net` after the run via `Network::take_observer`.
    pub fn attach_observer(&mut self, obs: Box<dyn Observer>) {
        self.net.set_observer(obs);
    }

    /// Attach a per-stage wall-clock profiler: stage times are sampled
    /// every `sample_every` cycles and a cumulative series point recorded
    /// every `series_every` cycles (0 = no series). Pure observation — a
    /// profiled run is bit-identical to an unprofiled one; the breakdown
    /// lands in [`EngineProfile::stages`].
    pub fn profile_stages(&mut self, sample_every: u64, series_every: u64) {
        self.net.set_profiler(StageProfiler::new(sample_every).with_series(series_every));
    }

    /// Attach a spatial metrics registry aggregating by `topo`'s cluster
    /// structure, capturing a frame every `interval` cycles. Pure
    /// observation; retrieve the registry from `SimResult::net` via
    /// `Network::take_metrics` after the run.
    pub fn enable_metrics(&mut self, topo: &dyn Topology, interval: u64) {
        let map = crate::telemetry::cluster_map_for(topo, &self.net);
        self.net.attach_metrics(MetricsRegistry::new(map, interval));
    }

    /// Arm the cluster-sharded parallel engine (see `noc_core::par`) with
    /// `threads` total threads, sharding by `topo`'s cluster structure.
    /// Returns whether the engine actually armed: `threads <= 1`, a
    /// single-cluster topology, or cluster-interleaved media fall back to
    /// the serial engine. Results are **bit-identical** either way — the
    /// engine's determinism contract guarantees the same statistics,
    /// checkpoints and event streams at every thread count.
    pub fn set_threads(&mut self, threads: usize, topo: &dyn Topology) -> bool {
        let map = crate::telemetry::cluster_map_for(topo, &self.net);
        self.net.set_parallel(threads, &map.cluster_of_router)
    }

    /// Attach a fault model (scheduled failures + link error process); see
    /// `noc_core::fault`. With an empty schedule and zero BER the model is
    /// inert and results are bit-identical to a run without it.
    pub fn attach_faults(&mut self, cfg: FaultConfig) {
        self.net.attach_faults(cfg);
    }

    /// The underlying network, e.g. to resolve wireless bands to channel
    /// ids when building a [`noc_core::FaultSchedule`].
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Run warm-up, measurement and drain; return the metrics.
    ///
    /// Phase boundaries are absolute cycles, so a resumed run re-enters
    /// the phase its checkpoint was taken in and finishes with statistics
    /// equal to the uninterrupted run's.
    ///
    /// # Panics
    ///
    /// When a pending resume checkpoint does not fit the built network —
    /// wrong shape or a missing/mismatched fault model. (Topology name and
    /// seed were already validated by [`Simulation::resume`].)
    pub fn run(mut self) -> SimResult {
        let cfg = self.cfg;
        let w_end = cfg.warmup;
        let m_end = cfg.warmup + cfg.measure;
        let run_end = m_end + cfg.drain;

        // `flits_ejected` at the window edges; `None` until the edge is
        // crossed. Checkpoints carry these so throughput accounting
        // survives an interruption anywhere in the run.
        let mut window_start: Option<u64> = None;
        let mut window_end: Option<u64> = None;
        let mut resumed_from = None;
        if let Some(ckpt) = self.pending_resume.take() {
            self.net.restore(&ckpt.snapshot).unwrap_or_else(|e| {
                panic!("cannot resume from checkpoint at cycle {}: {e}", ckpt.cycle)
            });
            self.injector.skip_cycles(ckpt.injector_offers, self.cores as u32);
            window_start = ckpt.ejected_window_start;
            window_end = ckpt.ejected_window_end;
            resumed_from = Some(ckpt.cycle);
        }
        let start_cycle = self.net.now;

        let mut series = (cfg.sample_every > 0).then(|| SampleSeries::new(cfg.sample_every));
        let mut dog = (self.watchdog_interval > 0).then(|| {
            Watchdog::new(self.watchdog_interval, self.net.now, self.net.progress_counter())
        });
        let mut stall: Option<Box<StallReport>> = None;

        // Warm-up.
        let t0 = Instant::now();
        self.run_phase(w_end, &mut series, &mut dog, &mut stall, (window_start, window_end));
        let warmup_secs = t0.elapsed().as_secs_f64();
        // Open the measurement window exactly at the warm-up boundary. A
        // resume past the boundary already carries `window_start`.
        if stall.is_none() && !self.cancelled && window_start.is_none() {
            debug_assert_eq!(self.net.now, w_end);
            self.net.stats.measure_from = w_end;
            self.net.stats.measure_until = m_end;
            window_start = Some(self.net.stats.flits_ejected);
        }

        // Measurement window.
        let t1 = Instant::now();
        self.run_phase(m_end, &mut series, &mut dog, &mut stall, (window_start, window_end));
        let measure_secs = t1.elapsed().as_secs_f64();
        if stall.is_none() && !self.cancelled && window_end.is_none() {
            window_end = Some(self.net.stats.flits_ejected);
        }

        // Drain: keep offering traffic (steady state) until the window's
        // packets are delivered or the budget runs out.
        let t2 = Instant::now();
        self.run_drain(run_end, &mut series, &mut dog, &mut stall, (window_start, window_end));
        let drain_secs = t2.elapsed().as_secs_f64();
        if let Some(s) = series.as_mut() {
            // Close the series exactly at the final cycle, even when the
            // run length is not a multiple of the interval.
            s.record(&self.net);
        }

        let ejected_start = window_start.unwrap_or(self.net.stats.flits_ejected);
        let ejected_end = window_end.unwrap_or(self.net.stats.flits_ejected);
        let throughput =
            (ejected_end - ejected_start) as f64 / (cfg.measure as f64 * self.cores as f64);
        let total_secs = warmup_secs + measure_secs + drain_secs;
        let events: u64 = self.net.stats.buffer_writes.iter().sum::<u64>()
            + self.net.stats.router_traversals.iter().sum::<u64>();
        let cycles_run = self.net.now - start_cycle;
        let profile = EngineProfile {
            warmup_secs,
            measure_secs,
            drain_secs,
            total_secs,
            cycles_run,
            cycles_per_sec: if total_secs > 0.0 { cycles_run as f64 / total_secs } else { 0.0 },
            events_per_sec: if total_secs > 0.0 { events as f64 / total_secs } else { 0.0 },
            stages: self.net.profiler().map(|p| p.breakdown()),
        };
        let recovery_enabled = self.recovery_budget > 0;
        let recoveries = std::mem::take(&mut self.recoveries);
        let cancelled = self.cancelled;
        let mut result = SimResult::collect(self.name, self.net, cfg, throughput, profile, series);
        result.recovery_exhausted = recovery_enabled && stall.is_some();
        result.stall = stall;
        result.recoveries = recoveries;
        result.resumed_from = resumed_from;
        result.cancelled = cancelled;
        result
    }

    /// Advance to absolute cycle `until`, offering traffic each cycle;
    /// stops early on a watchdog stall. The per-cycle sequence (offer,
    /// step, sample) matches `BernoulliInjector::drive`, so results are
    /// bit-identical whether sampling, checkpointing or the watchdog are
    /// on or off.
    fn run_phase(
        &mut self,
        until: u64,
        series: &mut Option<SampleSeries>,
        dog: &mut Option<Watchdog>,
        stall: &mut Option<Box<StallReport>>,
        window: (Option<u64>, Option<u64>),
    ) {
        if stall.is_some() || self.cancelled {
            return;
        }
        while self.net.now < until {
            self.injector.offer(&mut self.net);
            self.net.step();
            if let Some(s) = series.as_mut() {
                if self.net.now.is_multiple_of(s.interval) {
                    s.record(&self.net);
                }
            }
            if self.post_step(dog, stall, window) {
                return;
            }
        }
    }

    /// The drain phase: like [`Simulation::run_phase`] but stops as soon
    /// as the network is quiescent.
    fn run_drain(
        &mut self,
        until: u64,
        series: &mut Option<SampleSeries>,
        dog: &mut Option<Watchdog>,
        stall: &mut Option<Box<StallReport>>,
        window: (Option<u64>, Option<u64>),
    ) {
        if stall.is_some() || self.cancelled {
            return;
        }
        while self.net.now < until && self.window_packets_outstanding() {
            self.injector.offer(&mut self.net);
            self.net.step();
            if let Some(s) = series.as_mut() {
                if self.net.now.is_multiple_of(s.interval) {
                    s.record(&self.net);
                }
            }
            if self.post_step(dog, stall, window) {
                return;
            }
        }
    }

    /// Per-cycle bookkeeping after `step`: periodic checkpoint write and
    /// watchdog poll. Returns `true` when the run should stop (stall).
    fn post_step(
        &mut self,
        dog: &mut Option<Watchdog>,
        stall: &mut Option<Box<StallReport>>,
        window: (Option<u64>, Option<u64>),
    ) -> bool {
        // Cooperative cancellation: stop at this cycle boundary. When
        // checkpointing is on, force a write at the cancel cycle so a
        // supervised resume re-executes as little as possible.
        if self.net.cancel_requested() {
            self.cancelled = true;
        }
        if self.checkpoint_every > 0
            && (self.cancelled || self.net.now.is_multiple_of(self.checkpoint_every))
        {
            if let Some(dir) = &self.checkpoint_dir {
                let ckpt = Checkpoint {
                    topology: self.name.clone(),
                    seed: self.cfg.seed,
                    cycle: self.net.now,
                    injector_offers: self.injector.offers(),
                    ejected_window_start: window.0,
                    ejected_window_end: window.1,
                    snapshot: self.net.snapshot(),
                };
                if let Err(e) = checkpoint::write_checkpoint(dir, &ckpt) {
                    // A failed checkpoint write must not kill a long run;
                    // the run stays correct, only durability suffers.
                    eprintln!(
                        "[checkpoint] cycle {}: write to {} failed: {e}",
                        self.net.now,
                        dir.display()
                    );
                }
            }
        }
        if self.cancelled {
            return true;
        }
        if let Some(d) = dog.as_mut() {
            if d.due(self.net.now)
                && d.poll(self.net.now, self.net.progress_counter())
                && !self.net.quiescent()
            {
                let report = self.net.stall_report(d.progressed_at(), false);
                if self.recovery_budget > 0 && self.recovery_attempts > 0 {
                    let rec = self.net.recover(&report, self.recovery_budget);
                    if !rec.is_empty() {
                        self.recovery_attempts -= 1;
                        self.recoveries.push(*rec);
                        d.reset(self.net.now, self.net.progress_counter());
                        return false;
                    }
                }
                *stall = Some(report);
                return true;
            }
        }
        false
    }

    /// Heuristic: outstanding window packets exist while the in-network flit
    /// count stays high and latency samples keep arriving. We simply bound
    /// drain by watching whether the latency count still grows.
    fn window_packets_outstanding(&self) -> bool {
        // When saturated the source backlog never empties; rely on the
        // drain budget. Before saturation, stop early once quiescent.
        !self.net.quiescent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::CMesh;

    #[test]
    fn low_load_run_produces_metrics() {
        let cfg = SimConfig {
            rate: 0.02,
            warmup: 200,
            measure: 1_000,
            drain: 5_000,
            ..Default::default()
        };
        let r = Simulation::new(&CMesh::new(64), cfg).run();
        assert!(r.avg_latency > 5.0, "latency {}", r.avg_latency);
        assert!(r.throughput > 0.0);
        assert!(r.packets_measured > 0);
        assert!(r.stall.is_none());
        assert!(r.resumed_from.is_none());
        assert_eq!(r.profile.cycles_run, r.cycles);
        // At low load, accepted ≈ offered.
        assert!((r.throughput - 0.02).abs() < 0.01, "throughput {}", r.throughput);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg =
            SimConfig { rate: 0.03, warmup: 100, measure: 500, drain: 2_000, ..Default::default() };
        let a = Simulation::new(&CMesh::new(64), cfg).run();
        let b = Simulation::new(&CMesh::new(64), cfg).run();
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.throughput, b.throughput);
    }

    #[test]
    fn watchdog_and_audit_do_not_change_results() {
        let cfg =
            SimConfig { rate: 0.03, warmup: 100, measure: 500, drain: 2_000, ..Default::default() };
        let mut plain = Simulation::new(&CMesh::new(64), cfg);
        plain.set_watchdog_interval(0);
        let plain = plain.run();
        let mut guarded = Simulation::new(&CMesh::new(64), cfg);
        guarded.set_watchdog_interval(64);
        guarded.set_audit_interval(50);
        let guarded = guarded.run();
        assert_eq!(plain.net.stats, guarded.net.stats);
        assert!(guarded.stall.is_none());
    }

    #[test]
    fn saturating_load_caps_throughput() {
        let cfg =
            SimConfig { rate: 1.0, warmup: 500, measure: 2_000, drain: 0, ..Default::default() };
        let r = Simulation::new(&CMesh::new(64), cfg).run();
        // Accepted throughput must be well below the offered 1.0.
        assert!(r.throughput < 0.8, "throughput {}", r.throughput);
        assert!(r.throughput > 0.05);
    }

    #[test]
    fn pre_cancelled_token_stops_run_early() {
        let cfg = SimConfig {
            rate: 0.03,
            warmup: 500,
            measure: 2_000,
            drain: 5_000,
            ..Default::default()
        };
        let token = noc_core::CancelToken::new();
        token.cancel();
        let mut sim = Simulation::new(&CMesh::new(64), cfg);
        sim.set_cancel(token);
        let r = sim.run();
        assert!(r.cancelled);
        // The token is polled at the first cycle boundary, so essentially no
        // simulated time elapses and no measurement window opens.
        assert!(r.cycles <= 1, "ran {} cycles", r.cycles);
        assert_eq!(r.packets_measured, 0);
    }

    #[test]
    fn uncancelled_token_is_inert() {
        let cfg =
            SimConfig { rate: 0.03, warmup: 100, measure: 500, drain: 2_000, ..Default::default() };
        let plain = Simulation::new(&CMesh::new(64), cfg).run();
        let mut armed = Simulation::new(&CMesh::new(64), cfg);
        armed.set_cancel(noc_core::CancelToken::new());
        let armed = armed.run();
        assert!(!armed.cancelled);
        assert_eq!(plain.net.stats, armed.net.stats);
    }

    #[test]
    fn resume_rejects_mismatched_topology_and_seed() {
        let cfg = SimConfig { warmup: 50, measure: 100, drain: 100, ..Default::default() };
        let sim = Simulation::new(&CMesh::new(64), cfg);
        let ckpt = Checkpoint {
            topology: "SOMETHING-ELSE".into(),
            seed: cfg.seed,
            cycle: 10,
            injector_offers: 10,
            ejected_window_start: None,
            ejected_window_end: None,
            snapshot: sim.network().snapshot(),
        };
        let Err(err) = Simulation::resume_from_checkpoint(&CMesh::new(64), cfg, ckpt.clone())
        else {
            panic!("wrong topology accepted")
        };
        assert!(err.to_string().contains("topology"), "got: {err}");
        let ckpt2 = Checkpoint { topology: "CMESH-64".into(), seed: cfg.seed + 1, ..ckpt };
        let Err(err) = Simulation::resume_from_checkpoint(&CMesh::new(64), cfg, ckpt2) else {
            panic!("wrong seed accepted")
        };
        assert!(err.to_string().contains("seed"), "got: {err}");
    }
}
