//! Parallel-engine bit-identity: the cluster-sharded engine
//! (`noc_core::par`) must produce the **same simulation** as the serial
//! engine — not statistically similar, identical to the bit. These tests
//! pin `--threads 1` against `--threads 4` on the OWN topologies with the
//! full overload/telemetry stack active (admission control, adaptive
//! spare-band reconfiguration with its link sensors, spatial metrics,
//! periodic invariant audit) and require:
//!
//! * equal `NetStats` structs and equal FNV fingerprints over every field,
//! * **byte-identical** v3 checkpoints at arbitrary mid-run cut points,
//! * cross-engine resume: a snapshot taken under `--threads N` restored
//!   into a serial network (and vice versa) continues to the same final
//!   statistics.
//!
//! Faulted/observed runs take the serial path by design (the engine falls
//! back when a fault model or observer is attached); the golden test at
//! the bottom pins that the fallback itself leaves results untouched.

use noc_core::fault::{FaultConfig, FaultEvent, FaultSchedule, FaultTarget};
use noc_core::rng::for_cases;
use noc_core::{CountingObserver, MetricsRegistry, Network, RouterConfig};
use noc_sim::telemetry::cluster_map_for;
use noc_sim::Checkpoint;
use noc_topology::{own, Own256Reconfig, ReconfigPolicy, Topology};
use noc_traffic::{BernoulliInjector, TrafficPattern};

mod common;
use common::{fingerprint, first_divergence, Run};

/// Traffic seed (the `SimConfig` default).
const SEED: u64 = 0x0517_2018;

/// Cycles driven by the OWN-256 identity runs.
const RUN_256: u64 = 3_000;

/// Cycles driven by the OWN-1024 saturated identity run.
const RUN_1024: u64 = 1_200;

/// The parallel thread count under test (the CI matrix value).
const THREADS: usize = 4;

// ---- network builders ---------------------------------------------------

/// OWN-256 with every parallel-compatible subsystem active: adaptive
/// spare-band reconfig (enables the link sensors), NIC admission control,
/// spatial metrics, periodic invariant audit. No faults and no observer —
/// those serialize the engine, and the point here is the *parallel* path.
fn own256_net(threads: usize) -> Network {
    let topo = Own256Reconfig::new(ReconfigPolicy::Adaptive { epoch: 256, hysteresis: 1024 });
    let mut net = topo.build(RouterConfig::default().with_throttle(16, 4));
    let map = cluster_map_for(&topo, &net);
    net.attach_metrics(MetricsRegistry::new(map.clone(), 250));
    net.set_audit_interval(512);
    if threads > 1 {
        assert!(
            net.set_parallel(threads, &map.cluster_of_router),
            "OWN-256 must shard cleanly (clusters are id-contiguous)"
        );
        let (shards, t) = net.parallel_engine().expect("engine armed");
        assert_eq!(shards, 4, "OWN-256 has 4 clusters");
        assert_eq!(t, threads);
    }
    net
}

/// OWN-1024: admission control + audit; sharded into the 16 clusters
/// whose inter-cluster traffic rides the boundary SWMR wireless buses.
fn own1024_net(threads: usize) -> Network {
    let topo = own(1024);
    let mut net = topo.build(RouterConfig::default().with_throttle(16, 4));
    net.set_audit_interval(1024);
    if threads > 1 {
        let map = cluster_map_for(&*topo, &net);
        assert!(net.set_parallel(threads, &map.cluster_of_router), "OWN-1024 must shard cleanly");
        let (shards, _) = net.parallel_engine().expect("engine armed");
        assert_eq!(shards, 16, "OWN-1024 has 16 clusters");
    }
    net
}

fn hotspot() -> TrafficPattern {
    TrafficPattern::Hotspot { target: 0, fraction: 0.2 }
}

/// `net` driven by the suites' hotspot injector after `warm` cycles of it,
/// for `first_divergence`.
fn hotspot_run(mut net: Network, warm: u64) -> Run<'static> {
    let mut inj = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
    inj.drive(&mut net, warm);
    (net, Box::new(move |net| inj.drive(net, 1)))
}

/// Canonical checkpoint bytes of a network's current state (fixed driver
/// metadata, so the comparison is purely over the engine snapshot).
fn checkpoint_bytes(net: &Network, cycle: u64) -> String {
    Checkpoint {
        topology: "PAR-IDENTITY".into(),
        seed: SEED,
        cycle,
        injector_offers: cycle,
        ejected_window_start: None,
        ejected_window_end: None,
        snapshot: net.snapshot(),
    }
    .to_json()
}

// ---- the contract -------------------------------------------------------

/// Drive serial and parallel OWN-256 to `cut`, require byte-identical
/// checkpoints there, then continue both to `RUN_256` and require equal
/// `NetStats`.
fn own256_identity_at_cut(cut: u64) {
    let mut serial = own256_net(1);
    let mut par = own256_net(THREADS);
    let mut inj_s = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
    let mut inj_p = BernoulliInjector::new(0.04, 4, hotspot(), SEED);

    inj_s.drive(&mut serial, cut);
    inj_p.drive(&mut par, cut);
    let diverge = |cycles| {
        first_divergence(
            cycles,
            || hotspot_run(own256_net(1), 0),
            || hotspot_run(own256_net(THREADS), 0),
        )
    };
    assert_eq!(
        checkpoint_bytes(&serial, cut),
        checkpoint_bytes(&par, cut),
        "checkpoints diverge at cut {cut}: {}",
        diverge(cut)
    );

    inj_s.drive(&mut serial, RUN_256 - cut);
    inj_p.drive(&mut par, RUN_256 - cut);
    assert_eq!(serial.stats, par.stats, "NetStats diverge after cut {cut}: {}", diverge(RUN_256));
    assert_eq!(fingerprint(&serial.stats), fingerprint(&par.stats));
}

#[test]
fn own256_parallel_matches_serial_bit_for_bit() {
    own256_identity_at_cut(1_500);
}

#[test]
fn own256_parallel_matches_serial_at_every_thread_count() {
    let run = |threads: usize| {
        let mut net = own256_net(threads);
        let mut inj = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
        inj.drive(&mut net, RUN_256);
        net.stats
    };
    let serial = run(1);
    for threads in [2, 3, 4] {
        let par = run(threads);
        assert_eq!(
            serial,
            par,
            "NetStats diverge at --threads {threads}: {}",
            first_divergence(
                RUN_256,
                || hotspot_run(own256_net(1), 0),
                || hotspot_run(own256_net(threads), 0)
            )
        );
    }
}

/// Saturated OWN-1024: heavy contention on the boundary wireless buses —
/// the frozen-bus / deferred-op machinery is under maximum pressure.
#[test]
fn own1024_saturated_parallel_matches_serial() {
    let run = |threads: usize| {
        let mut net = own1024_net(threads);
        let mut inj = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
        inj.drive(&mut net, RUN_1024);
        let bytes = checkpoint_bytes(&net, RUN_1024);
        (net.stats, bytes)
    };
    let (serial, serial_bytes) = run(1);
    let (par, par_bytes) = run(THREADS);
    let diverge = || {
        first_divergence(
            RUN_1024,
            || hotspot_run(own1024_net(1), 0),
            || hotspot_run(own1024_net(THREADS), 0),
        )
    };
    assert_eq!(serial, par, "NetStats diverge on saturated OWN-1024: {}", diverge());
    assert_eq!(serial_bytes, par_bytes, "checkpoints diverge on saturated OWN-1024: {}", diverge());
    // The run must actually have exercised the shared media.
    assert!(serial.bus_flits.iter().sum::<u64>() > 0, "no bus traffic — test is vacuous");
}

/// OWN-1024 on the armed sharded engine, stepping serially for its first
/// `serial` cycles (a profiler is attached, then taken).
fn serial_then_sharded(serial: u64) -> Run<'static> {
    let (mut net, mut step) = hotspot_run(own1024_net(THREADS), 0);
    net.set_profiler(noc_core::StageProfiler::new(1));
    let mut cycle = 0;
    let stepper = move |net: &mut Network| {
        if cycle == serial {
            let prof = net.take_profiler().expect("profiler attached");
            assert!(prof.breakdown().avg_parked_vcs > 0.0, "the serial steps parked nothing");
        }
        step(net);
        cycle += 1;
    };
    (net, Box::new(stepper))
}

/// An armed engine that steps serially, then sharded, matches the serial
/// engine. The serial steps park VCs bound for boundary buses, which the
/// sharded engine must not inherit: their releases replay after its VCA.
#[test]
fn serial_steps_then_sharded_steps_match_serial() {
    let (mut serial, mut step_s) = hotspot_run(own1024_net(1), 0);
    let (mut mixed, mut step_m) = serial_then_sharded(RUN_1024 / 2);
    for _ in 0..RUN_1024 {
        step_s(&mut serial);
        step_m(&mut mixed);
    }
    assert_eq!(
        checkpoint_bytes(&serial, RUN_1024),
        checkpoint_bytes(&mixed, RUN_1024),
        "serial-then-sharded run diverges from the serial engine: {}",
        first_divergence(
            RUN_1024,
            || hotspot_run(own1024_net(1), 0),
            || serial_then_sharded(RUN_1024 / 2)
        )
    );
}

/// Cross-engine resume: a mid-run snapshot taken under the parallel
/// engine restores into a serial network (and vice versa) and both
/// trajectories land on identical final statistics.
#[test]
fn cross_engine_resume_identity() {
    let cut = 1_100u64;

    // Parallel run to the cut, snapshot.
    let mut par = own256_net(THREADS);
    let mut inj_p = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
    inj_p.drive(&mut par, cut);
    let snap = par.snapshot();
    inj_p.drive(&mut par, RUN_256 - cut);

    // Serial network resumes from the parallel snapshot.
    let mut serial = own256_net(1);
    serial.restore(&snap).expect("restore parallel snapshot into serial engine");
    let mut inj_s = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
    inj_s.skip_cycles(cut, serial.num_cores() as u32);
    inj_s.drive(&mut serial, RUN_256 - cut);
    // The uninterrupted parallel run against a network resumed from the cut.
    let resumed = |threads| {
        let mut net = own256_net(threads);
        net.restore(&snap).expect("restore");
        let mut inj = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
        inj.skip_cycles(cut, net.num_cores() as u32);
        (net, Box::new(move |net: &mut Network| inj.drive(net, 1)) as Box<dyn FnMut(&mut Network)>)
    };
    let diverge = |threads| {
        first_divergence(
            RUN_256 - cut,
            || hotspot_run(own256_net(THREADS), cut),
            || resumed(threads),
        )
    };
    assert_eq!(par.stats, serial.stats, "parallel→serial resume diverges: {}", diverge(1));

    // And the other direction: parallel network resumes the same snapshot.
    let mut par2 = own256_net(THREADS);
    par2.restore(&snap).expect("restore snapshot into parallel engine");
    let mut inj_p2 = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
    inj_p2.skip_cycles(cut, par2.num_cores() as u32);
    inj_p2.drive(&mut par2, RUN_256 - cut);
    assert_eq!(par.stats, par2.stats, "serial→parallel resume diverges: {}", diverge(THREADS));
}

// Identity must hold wherever the cut lands relative to the adaptive
// controller's epochs, the metrics frames, and the audit interval.
#[test]
fn own256_parallel_identity_any_cut() {
    for_cases(0xC07_0002, 6, |_, g| own256_identity_at_cut(100 + g.below(2_800)));
}

// ---- serial fallback under faults/observers -----------------------------

/// The full engine_identity.rs stack (faults + BER + observer) with the
/// parallel engine *armed*: a fault model and an observer are attached,
/// so every step takes the serial fallback — and the results must be
/// exactly the unarmed serial run's, fingerprint included.
#[test]
fn faulted_run_with_engine_armed_matches_unarmed_serial() {
    let build = |threads: usize| {
        let topo = Own256Reconfig::new(ReconfigPolicy::Adaptive { epoch: 256, hysteresis: 1024 });
        let mut net = topo.build(RouterConfig::default().with_throttle(16, 4));
        let faults = FaultConfig {
            schedule: FaultSchedule::new()
                .with(FaultEvent::transient(600, FaultTarget::Bus(0), 400))
                .with(FaultEvent::transient(900, FaultTarget::TokenRing(1), 200)),
            channel_ber: vec![1e-5; net.channels().len()],
            bus_ber: vec![5e-6; net.buses().len()],
            ..Default::default()
        };
        net.attach_faults(faults);
        net.set_observer(Box::new(CountingObserver::new()));
        net.set_audit_interval(512);
        if threads > 1 {
            let map = cluster_map_for(&topo, &net);
            assert!(net.set_parallel(threads, &map.cluster_of_router));
        }
        net
    };
    let run = |threads: usize| {
        let mut net = build(threads);
        let mut inj = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
        inj.drive(&mut net, RUN_256);
        net.stats
    };
    let serial = run(1);
    let armed = run(THREADS);
    assert_eq!(
        serial,
        armed,
        "serial fallback changed results: {}",
        first_divergence(RUN_256, || hotspot_run(build(1), 0), || hotspot_run(build(THREADS), 0))
    );
    assert_eq!(fingerprint(&serial), fingerprint(&armed));
}
