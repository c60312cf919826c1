//! Simulation statistics.
//!
//! The engine counts *events* (flit traversals, buffer accesses, packet
//! deliveries); the power models in `noc-power` turn event counts into
//! energy, and `noc-sim` turns deliveries into latency/throughput metrics.
//! Counters are plain `u64`s — no atomics. Stats are only ever mutated by
//! the thread driving `Network::step`: the serial engine writes them
//! directly, and the cluster-sharded parallel engine (`crate::par`)
//! accumulates per-shard deltas (each shard owns disjoint slice ranges of
//! the per-entity counters) and merges scalars in fixed shard order during
//! the single-threaded boundary phase. Parallelism across simulations (one
//! per sweep point) keeps working as before — one `NetStats` per network.

use crate::ids::{CoreId, Cycle};

/// A latency histogram with fixed-width buckets plus exact sum/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHist {
    /// Bucket width in cycles.
    pub bucket_width: u64,
    /// Bucket counts; the last bucket is the overflow bucket.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl LatencyHist {
    /// A histogram of `n_buckets` buckets of `bucket_width` cycles each.
    ///
    /// Both must be at least 1: `record` divides by the width and indexes
    /// the bucket vector, so zero would panic far from the constructor.
    pub fn new(bucket_width: u64, n_buckets: usize) -> Self {
        assert!(bucket_width >= 1, "LatencyHist bucket_width must be >= 1, got 0");
        assert!(n_buckets >= 1, "LatencyHist needs at least one bucket, got 0");
        LatencyHist { bucket_width, buckets: vec![0; n_buckets], count: 0, sum: 0, max: 0 }
    }

    /// Record one latency sample.
    pub fn record(&mut self, lat: u64) {
        let idx = ((lat / self.bucket_width) as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += lat;
        self.max = self.max.max(lat);
    }

    /// Mean latency, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (upper edge of the bucket containing it).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return (i as u64 + 1) * self.bucket_width;
            }
        }
        self.max
    }
}

/// Event counters for one simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Current simulation cycle (mirrors `Network::now`).
    pub cycles: Cycle,
    /// Packets injected into source queues.
    pub packets_offered: u64,
    /// Flits accepted into the network (left the NIC).
    pub flits_injected: u64,
    /// Flits delivered to destination NICs.
    pub flits_ejected: u64,
    /// Packets fully delivered.
    pub packets_delivered: u64,
    /// Per-channel flit traversals (indexed by `ChannelId`).
    pub channel_flits: Vec<u64>,
    /// Per-bus flit traversals (indexed by `BusId`).
    pub bus_flits: Vec<u64>,
    /// Per-bus cumulative token wait: cycles writers spent requesting the
    /// bus token before each grant, summed over all grants (indexed by
    /// `BusId`). Maintained unconditionally — a congestion signal for the
    /// telemetry plane that, unlike the sensor EWMAs, needs no window.
    pub bus_token_wait: Vec<u64>,
    /// Per-router: flits that traversed the crossbar (== buffer reads).
    pub router_traversals: Vec<u64>,
    /// Per-router: buffer writes (flit arrivals).
    pub buffer_writes: Vec<u64>,
    /// Packet latency distribution (only packets created at or after
    /// `measure_from`).
    pub latency: LatencyHist,
    /// Source-queue delay distribution (creation → head-flit injection),
    /// same window.
    pub queue_delay: LatencyHist,
    /// Network transit distribution (head-flit injection → tail ejection),
    /// same window.
    pub network_latency: LatencyHist,
    /// Flits ejected whose packets were created at/after `measure_from`
    /// (throughput numerator for the measurement window).
    pub measured_flits_ejected: u64,
    /// Cycle from which deliveries count toward `latency`.
    pub measure_from: Cycle,
    /// Cycle (exclusive) up to which packet creations count toward
    /// `latency` — the end of the measurement window.
    pub measure_until: Cycle,
    /// Per-core delivered flits (for fairness checks).
    pub per_core_ejected: Vec<u64>,
    /// Per-destination delivered *packets* (fairness across receivers:
    /// a skewed distribution under a symmetric pattern flags starvation).
    pub per_core_packets: Vec<u64>,
    /// Flit deliveries that arrived corrupted (CRC mismatch at the reader).
    pub flits_corrupted: u64,
    /// Silent (link-CRC-aliasing) corruptions caught by the end-to-end
    /// payload CRC at a hop reader and fed into the NACK/retransmit path
    /// (see `crate::integrity`). 0 when the end-to-end check is off.
    pub corrupted_detected: u64,
    /// Packets delivered to their destination with a corrupted payload —
    /// silent corruption that no enabled check caught. Provably 0 when the
    /// end-to-end CRC is on.
    pub corrupted_delivered: u64,
    /// Packets delivered to the *wrong* destination after a silent
    /// corruption of the head flit's `dst` field (counted at the tail's
    /// ejection; such packets are not counted in `packets_delivered`).
    pub misroutes: u64,
    /// Packets forcibly flushed from the network by watchdog-triggered
    /// deadlock recovery (see `Network::recover`).
    pub recoveries: u64,
    /// Flits removed from buffers and media by deadlock recovery —
    /// injected but never ejected, accounted here so
    /// [`NetStats::flits_in_network`] stays exact.
    pub flits_flushed: u64,
    /// Link-level retransmissions scheduled (NACK + writer resend).
    pub flit_retransmits: u64,
    /// Packets discarded at the destination because a flit exhausted its
    /// retry budget on a faulty link (see `noc_core::fault`).
    pub packets_dropped_corrupt: u64,
    /// Packets rejected at a bounded source NIC queue (backpressure drops;
    /// 0 when the queue is unbounded).
    pub offers_rejected: u64,
    /// Offers shed by NIC admission control (backlog at/above the high
    /// watermark; see `crate::ThrottlePolicy`). 0 without a throttle.
    pub offers_shed: u64,
    /// Offers deferred by NIC admission control (latch set, backlog inside
    /// the hysteresis band). 0 without a throttle.
    pub offers_deferred: u64,
    /// Offers admitted *while a throttle policy was active* (the accepted
    /// complement of shed + deferred; 0 without a throttle).
    pub offers_admitted: u64,
    /// Failover (and failback) route changes performed by the routing
    /// algorithm in response to fault notifications.
    pub failovers: u64,
    /// Cycle the first scheduled fault became active, if any.
    pub first_fault_at: Option<Cycle>,
    /// Cycle of the first failover route change, if any;
    /// `first_failover_at - first_fault_at` is the time-to-failover.
    pub first_failover_at: Option<Cycle>,
    /// Latency distribution of packets *created at or after the first
    /// fault* (and inside the measurement window) — isolates post-fault
    /// degradation from the healthy-network baseline.
    pub post_fault_latency: LatencyHist,
}

impl NetStats {
    pub fn new(n_routers: usize, n_channels: usize, n_buses: usize, n_cores: usize) -> Self {
        NetStats {
            cycles: 0,
            packets_offered: 0,
            flits_injected: 0,
            flits_ejected: 0,
            packets_delivered: 0,
            channel_flits: vec![0; n_channels],
            bus_flits: vec![0; n_buses],
            bus_token_wait: vec![0; n_buses],
            router_traversals: vec![0; n_routers],
            buffer_writes: vec![0; n_routers],
            latency: LatencyHist::new(8, 512),
            queue_delay: LatencyHist::new(8, 512),
            network_latency: LatencyHist::new(8, 512),
            measured_flits_ejected: 0,
            measure_from: 0,
            measure_until: u64::MAX,
            per_core_ejected: vec![0; n_cores],
            per_core_packets: vec![0; n_cores],
            flits_corrupted: 0,
            corrupted_detected: 0,
            corrupted_delivered: 0,
            misroutes: 0,
            recoveries: 0,
            flits_flushed: 0,
            flit_retransmits: 0,
            packets_dropped_corrupt: 0,
            offers_rejected: 0,
            offers_shed: 0,
            offers_deferred: 0,
            offers_admitted: 0,
            failovers: 0,
            first_fault_at: None,
            first_failover_at: None,
            post_fault_latency: LatencyHist::new(8, 512),
        }
    }

    /// Record a delivered packet with its injection time, splitting total
    /// latency into source-queue delay and network transit.
    pub(crate) fn packet_delivered_full(
        &mut self,
        dst: CoreId,
        created_at: Cycle,
        injected_at: Cycle,
        now: Cycle,
    ) {
        self.packets_delivered += 1;
        self.per_core_packets[dst as usize] += 1;
        if created_at >= self.measure_from && created_at < self.measure_until {
            self.latency.record(now - created_at);
            self.queue_delay.record(injected_at.saturating_sub(created_at));
            self.network_latency.record(now.saturating_sub(injected_at));
            if self.first_fault_at.is_some_and(|f| created_at >= f) {
                self.post_fault_latency.record(now - created_at);
            }
        }
    }

    /// Fraction of terminally-resolved packets that were delivered intact:
    /// `delivered / (delivered + dropped_corrupt + offers_rejected +
    /// offers_shed + offers_deferred)`. 1.0 on a healthy, unthrottled
    /// network (or before anything resolves). Deferred offers count as
    /// unresolved-against-the-network because the engine never retries
    /// them — from the traffic source's view they were turned away.
    pub fn delivered_fraction(&self) -> f64 {
        let resolved = self.packets_delivered
            + self.packets_dropped_corrupt
            + self.offers_rejected
            + self.offers_shed
            + self.offers_deferred;
        if resolved == 0 {
            1.0
        } else {
            self.packets_delivered as f64 / resolved as f64
        }
    }

    /// Flits in flight (injected but not yet ejected or flushed by
    /// deadlock recovery).
    pub fn flits_in_network(&self) -> u64 {
        self.flits_injected - self.flits_ejected - self.flits_flushed
    }

    /// Accepted throughput in flits/core/cycle over `(from, to]` given a
    /// snapshot of `measured_flits_ejected` taken at `from`.
    pub fn throughput(&self, ejected_at_start: u64, cycles: u64, cores: usize) -> f64 {
        if cycles == 0 || cores == 0 {
            return 0.0;
        }
        (self.measured_flits_ejected - ejected_at_start) as f64 / (cycles as f64 * cores as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_max() {
        let mut h = LatencyHist::new(4, 8);
        for l in [1u64, 3, 9, 27] {
            h.record(l);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 40);
        assert!((h.mean() - 10.0).abs() < 1e-9);
        assert_eq!(h.max, 27);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = LatencyHist::new(1, 4);
        h.record(1000);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.max, 1000);
    }

    #[test]
    fn quantile_monotone() {
        let mut h = LatencyHist::new(2, 64);
        for l in 0..100u64 {
            h.record(l);
        }
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        assert!(q50 <= q99);
        assert!((40..=60).contains(&q50), "q50 = {q50}");
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHist::new(8, 4);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn measurement_window_filters_latency() {
        let mut s = NetStats::new(1, 0, 0, 2);
        s.measure_from = 100;
        s.measure_until = 200;
        s.packet_delivered_full(0, 50, 50, 120); // created before window: not recorded
        s.packet_delivered_full(0, 110, 110, 130); // recorded
        s.packet_delivered_full(0, 250, 250, 400); // created after window: not recorded
        assert_eq!(s.latency.count, 1);
        assert_eq!(s.packets_delivered, 3);
    }

    #[test]
    fn latency_breakdown_sums_to_total() {
        let mut s = NetStats::new(1, 0, 0, 2);
        s.packet_delivered_full(0, 100, 130, 190);
        assert_eq!(s.latency.sum, 90);
        assert_eq!(s.queue_delay.sum, 30);
        assert_eq!(s.network_latency.sum, 60);
        assert_eq!(s.queue_delay.sum + s.network_latency.sum, s.latency.sum);
    }

    #[test]
    #[should_panic(expected = "bucket_width must be >= 1")]
    fn zero_bucket_width_rejected() {
        let _ = LatencyHist::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_bucket_count_rejected() {
        let _ = LatencyHist::new(8, 0);
    }

    #[test]
    fn per_destination_packets_counted() {
        let mut s = NetStats::new(1, 0, 0, 4);
        s.packet_delivered_full(2, 0, 0, 10);
        s.packet_delivered_full(2, 5, 5, 20);
        s.packet_delivered_full(3, 1, 1, 9);
        assert_eq!(s.per_core_packets, vec![0, 0, 2, 1]);
        assert_eq!(s.packets_delivered, 3);
    }

    #[test]
    fn throughput_computation() {
        let mut s = NetStats::new(1, 0, 0, 4);
        s.measured_flits_ejected = 400;
        assert!((s.throughput(0, 100, 4) - 1.0).abs() < 1e-12);
        assert!((s.throughput(200, 100, 4) - 0.5).abs() < 1e-12);
    }
}
