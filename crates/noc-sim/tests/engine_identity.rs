//! Engine bit-identity goldens: the hot-path optimizations (allocation-free
//! switch allocation, active-set stepping) must not change a single
//! observable result. These tests pin same-seed `NetStats` fingerprints with
//! the **full** observability/resilience/overload stack active — observer,
//! utilization sensors, fault schedule + bit-error process, NIC admission
//! control, adaptive spare-band reconfiguration, periodic invariant audit —
//! so every engine code path that the optimizations touch participates in
//! the fingerprint. A changed value here is a changed simulation result and
//! must be a conscious decision, never a silent side effect of a speedup.
//!
//! The checkpoint contract is covered by the same stack: resuming from a
//! mid-run snapshot must land on the identical fingerprint (active-set
//! state is reconstructed on `restore()`, not trusted from the wire).

use noc_core::fault::{FaultConfig, FaultEvent, FaultSchedule, FaultTarget};
use noc_core::rng::for_cases;
use noc_core::{CountingObserver, Network, RouterConfig};
use noc_topology::{own, Own256Reconfig, ReconfigPolicy, Topology};
use noc_traffic::{BernoulliInjector, TrafficPattern};

mod common;
use common::{fingerprint, first_divergence, Run};

/// Traffic seed (the `SimConfig` default).
const SEED: u64 = 0x0517_2018;

/// Cycles driven by the OWN-256 golden runs.
const RUN_256: u64 = 3_000;

/// Cycles driven by the OWN-1024 smoke golden.
const RUN_1024: u64 = 1_200;

// ---- full-stack network builders ---------------------------------------

/// A fault posture that exercises every resilience path: a transient bus
/// blackout, a frozen token ring, and a background bit-error process on
/// every channel and bus (corruption → NACK/retransmit → occasional
/// poisoned drops).
fn fault_posture(n_channels: usize, n_buses: usize) -> FaultConfig {
    FaultConfig {
        schedule: FaultSchedule::new()
            .with(FaultEvent::transient(600, FaultTarget::Bus(0), 400))
            .with(FaultEvent::transient(900, FaultTarget::TokenRing(1), 200)),
        channel_ber: vec![1e-5; n_channels],
        bus_ber: vec![5e-6; n_buses],
        ..Default::default()
    }
}

/// OWN-256 with the complete PR 1–4 stack: adaptive spare-band reconfig
/// (which enables the link sensors), NIC admission control, faults + BER,
/// an attached observer, and the periodic invariant audit.
fn full_stack_256() -> Network {
    let topo = Own256Reconfig::new(ReconfigPolicy::Adaptive { epoch: 256, hysteresis: 1024 });
    let mut net = topo.build(RouterConfig::default().with_throttle(16, 4));
    let faults = fault_posture(net.channels().len(), net.buses().len());
    net.attach_faults(faults);
    net.set_observer(Box::new(CountingObserver::new()));
    net.set_audit_interval(512);
    net
}

/// OWN-1024 smoke posture: admission control, faults + BER, observer,
/// audit (no adaptive controller exists at this scale).
fn full_stack_1024() -> Network {
    let topo = own(1024);
    let mut net = topo.build(RouterConfig::default().with_throttle(16, 4));
    let faults = fault_posture(net.channels().len(), net.buses().len());
    net.attach_faults(faults);
    net.set_observer(Box::new(CountingObserver::new()));
    net.set_audit_interval(1024);
    net
}

fn hotspot() -> TrafficPattern {
    TrafficPattern::Hotspot { target: 0, fraction: 0.2 }
}

/// `net` driven by the hotspot injector, fast-forwarded past `skip`
/// cycles (a resumed run), for `first_divergence`.
fn hotspot_run(net: Network, skip: u64) -> Run<'static> {
    let mut inj = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
    inj.skip_cycles(skip, net.num_cores() as u32);
    (net, Box::new(move |net| inj.drive(net, 1)))
}

// ---- pinned goldens ----------------------------------------------------
//
// Captured at the pinned seed on the `noc_core::rng::ChaCha8` stream, the
// one the perfbench digests and `experiments_output.txt` were recorded on.

const GOLDEN_256_FP: u64 = 0x36c1_1935_89e5_5bed;
const GOLDEN_256_INJECTED: u64 = 22_130;
const GOLDEN_256_EJECTED: u64 = 19_603;
const GOLDEN_256_DELIVERED: u64 = 4_894;
const GOLDEN_256_SHED: u64 = 400;
const GOLDEN_256_RETRANSMITS: u64 = 55;

const GOLDEN_1024_FP: u64 = 0xf207_7755_d099_33b7;
const GOLDEN_1024_INJECTED: u64 = 12_179;
const GOLDEN_1024_EJECTED: u64 = 11_984;
const GOLDEN_1024_DELIVERED: u64 = 2_993;
const GOLDEN_1024_RETRANSMITS: u64 = 19;

/// Prints the current engine's golden values (run with `--ignored
/// --nocapture` to re-capture after an *intentional* semantic change).
#[test]
#[ignore = "golden capture helper, not a check"]
fn capture_goldens() {
    let mut net = full_stack_256();
    let mut inj = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
    inj.drive(&mut net, RUN_256);
    let s = &net.stats;
    println!(
        "256: fp={:#018x} injected={} ejected={} delivered={} shed={} retrans={}",
        fingerprint(s),
        s.flits_injected,
        s.flits_ejected,
        s.packets_delivered,
        s.offers_shed,
        s.flit_retransmits
    );
    let mut net = full_stack_1024();
    let mut inj = BernoulliInjector::new(0.01, 4, TrafficPattern::Uniform, SEED);
    inj.drive(&mut net, RUN_1024);
    let s = &net.stats;
    println!(
        "1024: fp={:#018x} injected={} ejected={} delivered={} retrans={}",
        fingerprint(s),
        s.flits_injected,
        s.flits_ejected,
        s.packets_delivered,
        s.flit_retransmits
    );
}

#[test]
fn own256_full_stack_golden() {
    let mut net = full_stack_256();
    let mut inj = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
    inj.drive(&mut net, RUN_256);
    let s = &net.stats;
    assert_eq!(s.flits_injected, GOLDEN_256_INJECTED, "flits_injected");
    assert_eq!(s.flits_ejected, GOLDEN_256_EJECTED, "flits_ejected");
    assert_eq!(s.packets_delivered, GOLDEN_256_DELIVERED, "packets_delivered");
    assert_eq!(s.offers_shed, GOLDEN_256_SHED, "offers_shed");
    assert_eq!(s.flit_retransmits, GOLDEN_256_RETRANSMITS, "flit_retransmits");
    assert_eq!(fingerprint(s), GOLDEN_256_FP, "full NetStats fingerprint");
}

#[test]
fn own1024_full_stack_smoke_golden() {
    let mut net = full_stack_1024();
    let mut inj = BernoulliInjector::new(0.01, 4, TrafficPattern::Uniform, SEED);
    inj.drive(&mut net, RUN_1024);
    let s = &net.stats;
    assert_eq!(s.flits_injected, GOLDEN_1024_INJECTED, "flits_injected");
    assert_eq!(s.flits_ejected, GOLDEN_1024_EJECTED, "flits_ejected");
    assert_eq!(s.packets_delivered, GOLDEN_1024_DELIVERED, "packets_delivered");
    assert_eq!(s.flit_retransmits, GOLDEN_1024_RETRANSMITS, "flit_retransmits");
    assert_eq!(fingerprint(s), GOLDEN_1024_FP, "full NetStats fingerprint");
}

/// Two identical full-stack runs agree on the whole `NetStats` struct —
/// the engine is deterministic even with every subsystem active.
#[test]
fn own256_full_stack_is_deterministic() {
    let run = || {
        let mut net = full_stack_256();
        let mut inj = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
        inj.drive(&mut net, RUN_256);
        net.stats
    };
    assert_eq!(
        run(),
        run(),
        "{}",
        first_divergence(
            RUN_256,
            || hotspot_run(full_stack_256(), 0),
            || hotspot_run(full_stack_256(), 0)
        )
    );
}

// ---- checkpoint resume -------------------------------------------------

/// Snapshot a full-stack OWN-256 run at `cut`, restore into a freshly
/// built network, continue both to `RUN_256`, and require identical
/// `NetStats`. Exercises active-set reconstruction on `restore()`.
fn resume_matches_uninterrupted(cut: u64) {
    // Uninterrupted run, snapshotting at the cut point.
    let mut a = full_stack_256();
    let mut inj_a = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
    inj_a.drive(&mut a, cut);
    let snap = a.snapshot();
    inj_a.drive(&mut a, RUN_256 - cut);

    // Resumed run: fresh network + injector fast-forwarded to the cut.
    let mut b = full_stack_256();
    b.restore(&snap).expect("restore into an identically built network");
    let mut inj_b = BernoulliInjector::new(0.04, 4, hotspot(), SEED);
    inj_b.skip_cycles(cut, b.num_cores() as u32);
    inj_b.drive(&mut b, RUN_256 - cut);

    let diverge = || {
        let uninterrupted = || {
            let (mut net, mut step) = hotspot_run(full_stack_256(), 0);
            (0..cut).for_each(|_| step(&mut net));
            (net, step)
        };
        let resumed = || {
            let mut net = full_stack_256();
            net.restore(&snap).expect("restore");
            hotspot_run(net, cut)
        };
        first_divergence(RUN_256 - cut, uninterrupted, resumed)
    };
    assert_eq!(a.now, b.now, "cycle counter after resume (cut {cut})");
    assert_eq!(a.stats, b.stats, "NetStats after resume (cut {cut}): {}", diverge());
    assert_eq!(
        fingerprint(&a.stats),
        GOLDEN_256_FP,
        "resumed trajectory left the golden fingerprint (cut {cut})"
    );
}

#[test]
fn checkpoint_resume_full_stack_bit_identity() {
    resume_matches_uninterrupted(1_500);
}

// Resume identity must hold wherever the snapshot lands relative to the
// fault schedule, the adaptive controller's epochs, and the audit
// interval — including mid-blackout (600–1000) and mid-token-freeze
// (900–1100).
#[test]
fn checkpoint_resume_identity_any_cut() {
    for_cases(0xC07_0001, 6, |_, g| resume_matches_uninterrupted(100 + g.below(2_800)));
}
