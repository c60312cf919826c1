//! Telemetry plane: per-stage engine profiling and spatial metrics.
//!
//! Two opt-in instruments, both following the engine's zero-cost-when-off
//! convention (an `Option<Box<_>>` on [`crate::Network`], checked once per
//! emission site; presence never changes simulation behaviour or
//! statistics):
//!
//! * [`StageProfiler`] — wall-clock time per engine phase (fault tick,
//!   delivery, SA/ST, VCA, RC, injection, end-of-cycle, sensors) plus
//!   active-set occupancy, sampled so the `Instant` reads amortise away.
//! * [`MetricsRegistry`] — spatial counters keyed by cluster/bus: a
//!   cluster×cluster traffic matrix counted at offer time, and periodic
//!   cycle-stamped [`MetricsFrame`]s snapshotting buffered flits, source
//!   backlog, deliveries, bus traffic/token-wait/utilization and latency
//!   quantiles.
//!
//! The engine itself knows nothing about topology geometry; the
//! [`ClusterMap`] is built by the driver (see `noc-topology`'s
//! `Topology::cluster_of`) and handed in flat-vector form.

use crate::ids::{CoreId, Cycle};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Stage profiler
// ---------------------------------------------------------------------------

/// Engine phases, in execution order within [`crate::Network::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Fault schedule activation + detection notices.
    Fault = 0,
    /// Channel/bus flit and credit delivery.
    Deliver = 1,
    /// Switch allocation + switch/link traversal.
    SaSt = 2,
    /// Virtual-channel allocation.
    Vca = 3,
    /// Route computation.
    Rc = 4,
    /// NIC injection.
    Inject = 5,
    /// End-of-cycle bus token processing.
    EndCycle = 6,
    /// Sensor fold + adaptive controller tick.
    Sensors = 7,
}

/// Number of profiled stages (array dimension).
pub const STAGE_COUNT: usize = 8;

/// Stable short names, indexed by `Stage as usize` (used by exporters).
pub const STAGE_NAMES: [&str; STAGE_COUNT] =
    ["fault", "deliver", "sa_st", "vca", "rc", "inject", "end_cycle", "sensors"];

/// Cumulative per-stage timing at one point in a run (time-series sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSeriesPoint {
    /// Cycle the sample was taken at.
    pub cycle: Cycle,
    /// Cumulative wall nanos per stage up to `cycle`.
    pub stage_nanos: [u64; STAGE_COUNT],
    /// Cumulative number of timed cycles backing those nanos.
    pub timed_cycles: u64,
}

/// Aggregated profile of a run: where the engine spent its time and how
/// big the active sets were. `Copy` so drivers can embed it in flat
/// profile structs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBreakdown {
    /// Cycles the profiler observed (every cycle while attached).
    pub cycles_profiled: u64,
    /// Cycles on which stage clocks were actually read (sampled subset).
    pub timed_cycles: u64,
    /// Wall nanos per stage, summed over the timed cycles.
    pub stage_nanos: [u64; STAGE_COUNT],
    /// Mean active-set sizes over all profiled cycles (routers with
    /// buffered flits, channels/buses with in-flight work, NICs with
    /// backlog) — the engine's effective working set.
    pub avg_active_routers: f64,
    pub avg_active_channels: f64,
    pub avg_active_buses: f64,
    pub avg_active_nics: f64,
    /// Mean VC allocation attempts per timed cycle (serial engine), and
    /// mean parked VCs VCA skipped on those cycles.
    pub avg_vca_attempts: f64,
    pub avg_parked_vcs: f64,
}

impl StageBreakdown {
    /// Total timed nanos across all stages.
    pub fn total_nanos(&self) -> u64 {
        self.stage_nanos.iter().sum()
    }

    /// Per-stage share of total timed nanos (0.0 when nothing was timed).
    pub fn shares(&self) -> [f64; STAGE_COUNT] {
        let total = self.total_nanos();
        let mut out = [0.0; STAGE_COUNT];
        if total > 0 {
            for (o, &n) in out.iter_mut().zip(self.stage_nanos.iter()) {
                *o = n as f64 / total as f64;
            }
        }
        out
    }
}

/// Wall-clock profiler for the engine's per-cycle phases.
///
/// Timing is *sampled*: stage clocks are read on every `sample_every`-th
/// cycle only, so the `Instant` syscall overhead amortises to near zero
/// while the sample stays representative (every phase runs every cycle;
/// systematic sampling of a stationary loop is unbiased). Active-set
/// sizes are integer reads and are accumulated on every cycle.
#[derive(Debug, Clone)]
pub struct StageProfiler {
    sample_every: u64,
    series_every: u64,
    cycles_profiled: u64,
    timed_cycles: u64,
    stage_nanos: [u64; STAGE_COUNT],
    sum_active_routers: u64,
    sum_active_channels: u64,
    sum_active_buses: u64,
    sum_active_nics: u64,
    sum_vca_attempts: u64,
    sum_parked_vcs: u64,
    series: Vec<StageSeriesPoint>,
    /// Time of the previous lap while a timed cycle runs; `None` on
    /// untimed cycles, whose laps then read no clock.
    mark: Option<Instant>,
}

impl StageProfiler {
    /// A profiler timing every `sample_every`-th cycle (clamped to >= 1).
    pub fn new(sample_every: u64) -> Self {
        StageProfiler {
            sample_every: sample_every.max(1),
            series_every: 0,
            cycles_profiled: 0,
            timed_cycles: 0,
            stage_nanos: [0; STAGE_COUNT],
            sum_active_routers: 0,
            sum_active_channels: 0,
            sum_active_buses: 0,
            sum_active_nics: 0,
            sum_vca_attempts: 0,
            sum_parked_vcs: 0,
            series: Vec::new(),
            mark: None,
        }
    }

    /// Also record a cumulative time-series point every `every` cycles
    /// (0 disables the series).
    pub fn with_series(mut self, every: u64) -> Self {
        self.series_every = every;
        self
    }

    /// Start-of-cycle bookkeeping: accumulate active-set sizes and decide
    /// whether this cycle's stages are timed (a timed cycle starts its
    /// clock here).
    pub(crate) fn begin_cycle(
        &mut self,
        routers: usize,
        channels: usize,
        buses: usize,
        nics: usize,
    ) -> bool {
        self.sum_active_routers += routers as u64;
        self.sum_active_channels += channels as u64;
        self.sum_active_buses += buses as u64;
        self.sum_active_nics += nics as u64;
        let timed = self.cycles_profiled.is_multiple_of(self.sample_every);
        self.cycles_profiled += 1;
        if timed {
            self.timed_cycles += 1;
        }
        self.mark = timed.then(Instant::now);
        timed
    }

    /// On a timed cycle, charge the wall time since the previous lap to
    /// `stage`; on an untimed one, do nothing.
    #[inline]
    pub(crate) fn lap(&mut self, stage: Stage) {
        if let Some(mark) = &mut self.mark {
            let now = Instant::now();
            self.stage_nanos[stage as usize] += now.duration_since(*mark).as_nanos() as u64;
            *mark = now;
        }
    }

    /// Whether this cycle is timed.
    #[inline]
    pub(crate) fn timing(&self) -> bool {
        self.mark.is_some()
    }

    /// Add one timed cycle's VCA attempts and parked VCs.
    pub(crate) fn count_vca(&mut self, attempts: u64, parked: u64) {
        self.sum_vca_attempts += attempts;
        self.sum_parked_vcs += parked;
    }

    /// End-of-cycle bookkeeping: stop the cycle's clock and push a series
    /// point on the boundary.
    pub(crate) fn end_cycle(&mut self, now: Cycle) {
        self.mark = None;
        if self.series_every != 0 && now.is_multiple_of(self.series_every) {
            self.series.push(StageSeriesPoint {
                cycle: now,
                stage_nanos: self.stage_nanos,
                timed_cycles: self.timed_cycles,
            });
        }
    }

    /// The configured timing sample interval.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Cumulative time-series points recorded so far.
    pub fn series(&self) -> &[StageSeriesPoint] {
        &self.series
    }

    /// Aggregate the observations into a flat [`StageBreakdown`].
    pub fn breakdown(&self) -> StageBreakdown {
        let n = self.cycles_profiled;
        let avg = |sum: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        let timed = self.timed_cycles;
        let per_timed = |sum: u64| if timed == 0 { 0.0 } else { sum as f64 / timed as f64 };
        StageBreakdown {
            cycles_profiled: n,
            timed_cycles: self.timed_cycles,
            stage_nanos: self.stage_nanos,
            avg_active_routers: avg(self.sum_active_routers),
            avg_active_channels: avg(self.sum_active_channels),
            avg_active_buses: avg(self.sum_active_buses),
            avg_active_nics: avg(self.sum_active_nics),
            avg_vca_attempts: per_timed(self.sum_vca_attempts),
            avg_parked_vcs: per_timed(self.sum_parked_vcs),
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster map
// ---------------------------------------------------------------------------

/// Flat spatial index: which cluster each core/router belongs to and which
/// group each cluster belongs to. Built by the driver from the topology
/// (the engine is geometry-agnostic); `single` gives the trivial one-
/// cluster map for topologies without a cluster structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMap {
    pub n_clusters: usize,
    pub n_groups: usize,
    /// Cluster of each core, indexed by `CoreId`.
    pub cluster_of_core: Vec<u16>,
    /// Cluster of each router, indexed by `RouterId`.
    pub cluster_of_router: Vec<u16>,
    /// Group of each cluster, indexed by cluster id.
    pub group_of_cluster: Vec<u16>,
}

impl ClusterMap {
    /// The trivial map: everything in cluster 0 of group 0.
    pub fn single(n_cores: usize, n_routers: usize) -> Self {
        ClusterMap {
            n_clusters: 1,
            n_groups: 1,
            cluster_of_core: vec![0; n_cores],
            cluster_of_router: vec![0; n_routers],
            group_of_cluster: vec![0],
        }
    }

    /// Panic early on an inconsistent map instead of at first use.
    pub fn validate(&self) {
        assert!(self.n_clusters >= 1, "ClusterMap needs at least one cluster");
        assert!(self.n_groups >= 1, "ClusterMap needs at least one group");
        assert_eq!(self.group_of_cluster.len(), self.n_clusters);
        for &c in self.cluster_of_core.iter().chain(self.cluster_of_router.iter()) {
            assert!((c as usize) < self.n_clusters, "cluster id {c} out of range");
        }
        for &g in &self.group_of_cluster {
            assert!((g as usize) < self.n_groups, "group id {g} out of range");
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// One cycle-stamped spatial snapshot. All values are integers (counters
/// are cumulative since run start, gauges are instantaneous) so frames
/// serialize deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsFrame {
    pub cycle: Cycle,
    /// Gauge: flits buffered in routers, summed per cluster.
    pub cluster_buffered: Vec<u64>,
    /// Gauge: packets queued at source NICs, summed per cluster.
    pub cluster_backlog: Vec<u64>,
    /// Counter: packets delivered to destinations in each cluster.
    pub cluster_delivered: Vec<u64>,
    /// Counter: flit traversals per bus (wireless/photonic band).
    pub bus_flits: Vec<u64>,
    /// Counter: cycles writers spent waiting for each bus token.
    pub bus_token_wait: Vec<u64>,
    /// Gauge: per-bus utilization over the last sensor window, in
    /// [`crate::UTIL_SCALE`] fixed-point; zeros when sensors are off.
    pub bus_util: Vec<u32>,
    /// Counter: offers shed by admission control.
    pub offers_shed: u64,
    /// Counter: offers deferred by admission control.
    pub offers_deferred: u64,
    /// Counter: link-level retransmissions scheduled.
    pub flit_retransmits: u64,
    /// Latency quantiles (cycles) over the measurement window so far.
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// Spatial metrics registry: a cluster×cluster offered-traffic matrix
/// maintained at offer time plus periodic [`MetricsFrame`]s captured by
/// the engine at frame-interval boundaries.
///
/// The matrix is part of the durable run state (it survives
/// checkpoint/restore — see `Network::snapshot`); frames are ephemeral
/// and regenerate from the restore point onward.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    map: ClusterMap,
    interval: u64,
    /// Row-major `n_clusters × n_clusters` offered-packet counts
    /// (`[src_cluster * n_clusters + dst_cluster]`).
    matrix: Vec<u64>,
    frames: Vec<MetricsFrame>,
}

impl MetricsRegistry {
    /// A registry capturing one frame every `interval` cycles (clamped to
    /// >= 1). `map` must be consistent (validated here).
    pub fn new(map: ClusterMap, interval: u64) -> Self {
        map.validate();
        let n = map.n_clusters;
        MetricsRegistry {
            map,
            interval: interval.max(1),
            matrix: vec![0; n * n],
            frames: Vec::new(),
        }
    }

    /// The spatial index this registry aggregates by.
    pub fn cluster_map(&self) -> &ClusterMap {
        &self.map
    }

    /// The frame capture interval in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The cluster×cluster offered-packet matrix (row-major, src-major).
    pub fn matrix(&self) -> &[u64] {
        &self.matrix
    }

    /// Total offers recorded in the matrix (equals the engine's
    /// `packets_offered` counted while the registry was attached).
    pub fn matrix_total(&self) -> u64 {
        self.matrix.iter().sum()
    }

    /// Captured frames so far, oldest first.
    pub fn frames(&self) -> &[MetricsFrame] {
        &self.frames
    }

    /// Count one successfully offered packet.
    #[inline]
    pub(crate) fn count_offer(&mut self, src: CoreId, dst: CoreId) {
        let s = self.map.cluster_of_core[src as usize] as usize;
        let d = self.map.cluster_of_core[dst as usize] as usize;
        self.matrix[s * self.map.n_clusters + d] += 1;
    }

    /// Whether a frame is due at cycle `now`.
    #[inline]
    pub(crate) fn frame_due(&self, now: Cycle) -> bool {
        now.is_multiple_of(self.interval)
    }

    pub(crate) fn push_frame(&mut self, frame: MetricsFrame) {
        self.frames.push(frame);
    }

    /// Restore the durable matrix from a snapshot (see
    /// [`crate::NetworkSnapshot`]). Length is validated by the caller.
    pub(crate) fn restore_matrix(&mut self, matrix: Vec<u64>) {
        debug_assert_eq!(matrix.len(), self.matrix.len());
        self.matrix = matrix;
    }

    /// Reset the durable matrix (restore from a snapshot without metrics
    /// state: counting starts fresh at the restore point).
    pub(crate) fn reset_matrix(&mut self) {
        self.matrix.iter_mut().for_each(|c| *c = 0);
    }
}

/// Durable registry state carried in a [`crate::NetworkSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsState {
    /// Row-major cluster×cluster offered-packet matrix.
    pub matrix: Vec<u64>,
    /// Matrix dimension (for shape validation at restore).
    pub n_clusters: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_samples_and_averages() {
        let mut p = StageProfiler::new(4);
        let mut timed = 0;
        for _ in 0..16 {
            let before = p.stage_nanos;
            let is_timed = p.begin_cycle(2, 3, 1, 5);
            std::thread::sleep(std::time::Duration::from_micros(50));
            p.lap(Stage::Deliver);
            if is_timed {
                timed += 1;
                assert!(p.stage_nanos[Stage::Deliver as usize] > before[Stage::Deliver as usize]);
            } else {
                assert_eq!(p.stage_nanos, before, "an untimed cycle's lap charges nothing");
            }
            p.end_cycle(0);
        }
        assert_eq!(timed, 4);
        let b = p.breakdown();
        assert_eq!(b.cycles_profiled, 16);
        assert_eq!(b.timed_cycles, 4);
        assert!((b.avg_active_routers - 2.0).abs() < 1e-12);
        assert!((b.avg_active_nics - 5.0).abs() < 1e-12);
    }

    #[test]
    fn profiler_series_points_on_boundary() {
        let mut p = StageProfiler::new(1).with_series(10);
        for now in 1..=25u64 {
            p.begin_cycle(0, 0, 0, 0);
            p.end_cycle(now);
        }
        let cycles: Vec<u64> = p.series().iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![10, 20]);
    }

    #[test]
    fn breakdown_shares_sum_to_one() {
        let mut b = StageBreakdown::default();
        b.stage_nanos[Stage::SaSt as usize] = 300;
        b.stage_nanos[Stage::Deliver as usize] = 100;
        let shares = b.shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares[Stage::SaSt as usize] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn registry_matrix_counts_by_cluster() {
        let map = ClusterMap {
            n_clusters: 2,
            n_groups: 1,
            cluster_of_core: vec![0, 0, 1, 1],
            cluster_of_router: vec![0, 1],
            group_of_cluster: vec![0, 0],
        };
        let mut r = MetricsRegistry::new(map, 100);
        r.count_offer(0, 2);
        r.count_offer(1, 3);
        r.count_offer(3, 0);
        assert_eq!(r.matrix(), &[0, 2, 1, 0]);
        assert_eq!(r.matrix_total(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inconsistent_map_rejected() {
        let map = ClusterMap {
            n_clusters: 2,
            n_groups: 1,
            cluster_of_core: vec![0, 5],
            cluster_of_router: vec![0],
            group_of_cluster: vec![0, 0],
        };
        let _ = MetricsRegistry::new(map, 10);
    }

    #[test]
    fn single_map_is_consistent() {
        let m = ClusterMap::single(8, 4);
        m.validate();
        assert_eq!(m.n_clusters, 1);
    }
}
