//! Observability integration tests: recording fidelity, export validity,
//! zero-perturbation guarantees, and sampler boundary behaviour.

use noc_core::obs::{CountingObserver, EventKind, NocEvent, NullObserver, Observer};
use noc_sim::obs::{chrome_trace, jsonl, RingRecorder};
use noc_sim::{SimConfig, SimResult, Simulation};
use noc_topology::{CMesh, Own256, Topology};

fn quick(rate: f64) -> SimConfig {
    SimConfig { rate, warmup: 200, measure: 800, drain: 2_000, ..Default::default() }
}

/// One run of `topo` with `obs` attached.
fn observed(topo: &dyn Topology, cfg: SimConfig, obs: Box<dyn Observer>) -> SimResult {
    let mut sim = Simulation::new(topo, cfg);
    sim.attach_observer(obs);
    sim.run()
}

/// Counters that must be identical between observed and unobserved runs.
fn fingerprint(net: &noc_core::Network) -> (u64, u64, u64, u64, u64, u64, u64) {
    let s = &net.stats;
    (
        s.packets_offered,
        s.flits_injected,
        s.flits_ejected,
        s.packets_delivered,
        s.latency.sum,
        s.latency.count,
        s.channel_flits.iter().sum::<u64>() + s.bus_flits.iter().sum::<u64>(),
    )
}

#[test]
fn observer_does_not_perturb_results() {
    let plain = Simulation::new(&CMesh::new(64), quick(0.05)).run();
    let nulled = observed(&CMesh::new(64), quick(0.05), Box::new(NullObserver));
    let recorded = observed(&CMesh::new(64), quick(0.05), Box::new(RingRecorder::new(1 << 16)));
    assert_eq!(fingerprint(&plain.net), fingerprint(&nulled.net));
    assert_eq!(fingerprint(&plain.net), fingerprint(&recorded.net));
    assert_eq!(plain.avg_latency, nulled.avg_latency);
    assert_eq!(plain.throughput, recorded.throughput);
}

#[test]
fn sampling_does_not_perturb_results() {
    let plain = Simulation::new(&CMesh::new(64), quick(0.05)).run();
    let sampled_cfg = SimConfig { sample_every: 50, ..quick(0.05) };
    let sampled = Simulation::new(&CMesh::new(64), sampled_cfg).run();
    assert_eq!(fingerprint(&plain.net), fingerprint(&sampled.net));
    assert_eq!(plain.avg_latency, sampled.avg_latency);
    assert!(sampled.series.is_some());
}

#[test]
fn counting_observer_agrees_with_engine_counters() {
    let r = observed(&CMesh::new(64), quick(0.05), Box::new(CountingObserver::new()));
    let mut net = r.net;
    let counts = net.take_observer().unwrap().into_any().downcast::<CountingObserver>().unwrap();
    let s = &net.stats;
    assert_eq!(counts.count(EventKind::PacketOffered), s.packets_offered);
    assert_eq!(counts.count(EventKind::PacketDelivered), s.packets_delivered);
    assert_eq!(counts.count(EventKind::FlitEjected), s.flits_ejected);
    assert_eq!(
        counts.count(EventKind::FlitChannel),
        s.channel_flits.iter().sum::<u64>(),
        "one FlitChannel event per channel traversal"
    );
}

#[test]
fn traced_own256_has_token_and_channel_events() {
    let cfg =
        SimConfig { rate: 0.05, warmup: 100, measure: 400, drain: 1_000, ..Default::default() };
    let r = observed(&Own256::new(), cfg, Box::new(RingRecorder::new(1 << 20)));
    let mut net = r.net;
    let rec = RingRecorder::take_from(&mut net).expect("recorder comes back out");
    let events = rec.into_events();
    assert!(!events.is_empty());
    let has = |k: EventKind| events.iter().any(|e| e.kind() == k);
    assert!(has(EventKind::FlitChannel), "OWN-256 has electrical/wireless channels");
    assert!(has(EventKind::FlitBus), "OWN-256 has photonic MWSR buses");
    assert!(has(EventKind::TokenGranted), "multi-writer buses rotate their token");
    assert!(has(EventKind::PacketDelivered));
    // Events arrive nearly in cycle order: ejection/delivery are stamped
    // with their landing cycle (now + 1) but emitted during the producing
    // step, so the stream may step back by at most one cycle.
    assert!(events.windows(2).all(|w| w[0].at() <= w[1].at() + 1));

    // The Chrome trace built from a real run parses and contains the
    // token-wait and channel spans the acceptance criteria ask for.
    let trace = chrome_trace(&events);
    let v: noc_sim::json::Value = trace.parse().expect("valid Chrome trace JSON");
    let evs = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
    assert!(evs.iter().any(|e| e.get("name").and_then(|n| n.as_str()) == Some("token-wait")));
    assert!(evs.iter().any(|e| e.get("cat").and_then(|c| c.as_str()) == Some("channel")));
    for line in jsonl(&events[..200.min(events.len())]).lines() {
        let _: noc_sim::json::Value = line.parse().expect("valid JSONL line");
    }
}

#[test]
fn ring_recorder_bounds_memory_on_real_run() {
    let cap = 1_000;
    let r = observed(&CMesh::new(64), quick(0.10), Box::new(RingRecorder::new(cap)));
    let mut net = r.net;
    let rec = RingRecorder::take_from(&mut net).unwrap();
    assert_eq!(rec.len(), cap, "busy run fills the ring");
    assert!(rec.dropped() > 0);
    // The retained window is the newest events: all near the end of the run.
    let first_kept = rec.iter().next().unwrap().at();
    assert!(
        first_kept > net.now / 2,
        "oldest retained event ({first_kept}) should be from late in the {} -cycle run",
        net.now
    );
}

#[test]
fn sampler_hits_interval_boundaries_exactly() {
    // drain: 0 makes the run length exactly warmup + measure cycles.
    let cfg = SimConfig {
        rate: 0.02,
        warmup: 200,
        measure: 300,
        drain: 0,
        sample_every: 100,
        ..Default::default()
    };
    let r = Simulation::new(&CMesh::new(64), cfg).run();
    let series = r.series.expect("sampling was on");
    let cycles: Vec<u64> = series.samples.iter().map(|s| s.cycle).collect();
    assert_eq!(cycles, vec![100, 200, 300, 400, 500], "every boundary, first to last");
    assert_eq!(*cycles.last().unwrap(), r.cycles, "final sample at the final cycle");
}

#[test]
fn sampler_takes_final_partial_sample() {
    // 250 cycles at interval 100: samples at 100, 200, and a final one at
    // the last executed cycle even though 250 is not a boundary.
    let cfg = SimConfig {
        rate: 0.02,
        warmup: 100,
        measure: 150,
        drain: 0,
        sample_every: 100,
        ..Default::default()
    };
    let r = Simulation::new(&CMesh::new(64), cfg).run();
    let series = r.series.unwrap();
    let cycles: Vec<u64> = series.samples.iter().map(|s| s.cycle).collect();
    assert_eq!(cycles, vec![100, 200, 250]);
}

#[test]
fn saturated_run_flags_onset_and_unsaturated_run_does_not() {
    let sat_cfg = SimConfig { rate: 1.0, sample_every: 100, drain: 0, ..quick(1.0) };
    let sat = Simulation::new(&CMesh::new(64), sat_cfg).run();
    assert!(sat.saturated(), "rate 1.0 must saturate a CMESH");
    assert!(sat.series.as_ref().unwrap().saturation_onset().is_some());

    let ok_cfg = SimConfig { sample_every: 100, ..quick(0.02) };
    let ok = Simulation::new(&CMesh::new(64), ok_cfg).run();
    assert!(!ok.saturated(), "2% load is far below saturation");
}

#[test]
fn per_destination_fairness_reported() {
    let r = Simulation::new(&CMesh::new(64), quick(0.05)).run();
    let f = r.delivery_fairness();
    let total: u64 = r.net.stats.per_core_packets.iter().sum();
    assert_eq!(total, r.net.stats.packets_delivered);
    assert!(f.gini < 0.5, "uniform traffic should spread destinations, gini {}", f.gini);
}

#[test]
fn engine_profile_populated() {
    let r = Simulation::new(&CMesh::new(64), quick(0.05)).run();
    let p = r.profile;
    assert!(p.total_secs > 0.0);
    assert!(p.cycles_per_sec > 0.0);
    assert!(p.events_per_sec > 0.0);
    assert!(
        (p.warmup_secs + p.measure_secs + p.drain_secs - p.total_secs).abs() < 1e-9,
        "phases sum to total"
    );
}

/// A custom observer compiles against the trait from outside noc-core.
struct LastEvent(Option<NocEvent>);

impl Observer for LastEvent {
    fn on_event(&mut self, ev: &NocEvent) {
        self.0 = Some(*ev);
    }
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[test]
fn external_observer_implementations_work() {
    let r = observed(&CMesh::new(64), quick(0.03), Box::new(LastEvent(None)));
    let mut net = r.net;
    let last = net.take_observer().unwrap().into_any().downcast::<LastEvent>().unwrap();
    assert!(last.0.is_some(), "events flowed to a user-defined observer");
}
