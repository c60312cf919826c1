//! VC work-set identity: the router pipeline stages (RC, VCA, SA stage 1)
//! visit only the input VCs their per-router bitsets mark, and must pick
//! exactly what a full port × VC scan would. These tests pin `NetStats`
//! fingerprints on configurations whose bitsets span more than one 64-bit
//! word — wireless CMESH-256 at 8 VCs (11 in-ports → 88 bits per router)
//! and OWN-1024 at 16 VCs — on the serial and the 2-thread sharded engine,
//! with a mid-run snapshot restored into a fresh network.
//!
//! Traffic comes from `noc_core::rng::SplitMix64` through
//! `Network::inject_packet`, so the pinned values depend on no external
//! random stream and reproduce on any machine. The periodic invariant
//! audit (which recomputes every router's work sets) runs throughout.

use noc_core::rng::SplitMix64;
use noc_core::{NetStats, Network, RouterConfig, StageProfiler};
use noc_sim::telemetry::cluster_map_for;
use noc_topology::{Own1024, Topology, WirelessCMesh};
use noc_traffic::{BernoulliInjector, TrafficPattern};

mod common;
use common::{fingerprint, first_divergence, Run};

// ---- traffic -------------------------------------------------------------

/// Uniform random traffic: each core offers a packet of 1–6 flits with
/// probability `per_mille / 1000` per cycle.
fn offer_cycle(net: &mut Network, rng: &mut SplitMix64, per_mille: u64) {
    let n = net.num_cores() as u64;
    for src in 0..n {
        let r = rng.next_u64();
        if r % 1000 >= per_mille {
            continue;
        }
        let mut dst = (r >> 20) % (n - 1);
        if dst >= src {
            dst += 1;
        }
        let len = 1 + ((r >> 50) % 6) as u16;
        net.inject_packet(src as u32, dst as u32, len);
    }
}

// ---- runs ----------------------------------------------------------------

struct Case {
    topo: Box<dyn Topology>,
    cfg: RouterConfig,
    per_mille: u64,
    /// Offered-traffic cycles; the snapshot is taken at half of them.
    cycles: u64,
    seed: u64,
}

fn build(case: &Case, threads: usize) -> Network {
    let mut net = case.topo.build(case.cfg);
    net.set_audit_interval(97);
    if threads > 1 {
        let map = cluster_map_for(&*case.topo, &net);
        assert!(net.set_parallel(threads, &map.cluster_of_router), "topology must shard");
    }
    net
}

/// Offer traffic for `case.cycles` cycles — snapshotting at the halfway
/// cut and finishing in a freshly built network restored from it — then
/// drain. Returns the final statistics fingerprint.
fn run(case: &Case, threads: usize) -> (u64, NetStats) {
    let mut rng = SplitMix64::new(case.seed);
    let mut net = build(case, threads);
    let cut = case.cycles / 2;
    for _ in 0..cut {
        offer_cycle(&mut net, &mut rng, case.per_mille);
        net.step();
    }
    let snap = net.snapshot();
    drop(net);
    let mut net = build(case, threads);
    net.restore(&snap).expect("restore into an identically built network");
    for _ in cut..case.cycles {
        offer_cycle(&mut net, &mut rng, case.per_mille);
        net.step();
    }
    assert!(net.drain(50_000), "network must drain");
    net.check_invariants();
    assert!(net.stats.packets_delivered > 0);
    (fingerprint(&net.stats), net.stats.clone())
}

/// `run`'s trajectory one cycle at a time, for `first_divergence`: the
/// same traffic, the same restore at the cut, then stepping to drain.
fn lockstep(case: &Case, threads: usize) -> Run<'_> {
    let mut rng = SplitMix64::new(case.seed);
    let mut cycle = 0;
    let step = move |net: &mut Network| {
        if cycle == case.cycles / 2 {
            let snap = net.snapshot();
            *net = build(case, threads);
            net.restore(&snap).expect("restore into an identically built network");
        }
        if cycle < case.cycles {
            offer_cycle(net, &mut rng, case.per_mille);
        }
        net.step();
        cycle += 1;
    };
    (build(case, threads), Box::new(step))
}

fn wcmesh256_vcs8() -> Case {
    Case {
        topo: Box::new(WirelessCMesh::new(256)),
        cfg: RouterConfig { vcs: 8, ..RouterConfig::default() },
        per_mille: 40,
        cycles: 1_200,
        seed: 0x5EED_0256,
    }
}

fn own1024_vcs16() -> Case {
    Case {
        topo: Box::new(Own1024::new()),
        cfg: RouterConfig { vcs: 16, ..RouterConfig::default() },
        per_mille: 18,
        cycles: 800,
        seed: 0x5EED_1024,
    }
}

/// OWN-1024 with speculative RC+VCA: the same-cycle allocation path,
/// deferred to the serial replay on boundary buses when sharded.
fn own1024_vcs16_speculative() -> Case {
    Case {
        cfg: RouterConfig { vcs: 16, ..RouterConfig::default() }.with_speculation(),
        seed: 0x5EED_5BEC,
        ..own1024_vcs16()
    }
}

#[test]
fn wcmesh256_vcs8_multiword_sets_are_pinned() {
    let (fp, stats) = run(&wcmesh256_vcs8(), 1);
    eprintln!("wcmesh256 vcs8: fp={fp:#018x} delivered={}", stats.packets_delivered);
    assert_eq!(fp, WCMESH256_VCS8_FP);
}

/// Serial and 2-thread sharded runs must agree with each other and with
/// the pinned fingerprint.
fn assert_engines_pinned(case: &Case, name: &str, pinned: u64) {
    let (fp1, s1) = run(case, 1);
    let (fp2, s2) = run(case, 2);
    eprintln!("{name}: fp={fp1:#018x} delivered={}", s1.packets_delivered);
    assert_eq!(
        s1,
        s2,
        "{name}: serial and 2-thread sharded runs diverged: {}",
        first_divergence(s1.cycles.max(s2.cycles), || lockstep(case, 1), || lockstep(case, 2))
    );
    assert_eq!(fp1, pinned, "{name}: serial fingerprint moved");
    assert_eq!(fp2, pinned, "{name}: sharded fingerprint moved");
}

#[test]
fn own1024_vcs16_serial_and_sharded_are_pinned() {
    assert_engines_pinned(&own1024_vcs16(), "own1024 vcs16", OWN1024_VCS16_FP);
}

#[test]
fn own1024_vcs16_speculative_serial_and_sharded_are_pinned() {
    assert_engines_pinned(
        &own1024_vcs16_speculative(),
        "own1024 vcs16 speculative",
        OWN1024_VCS16_SPEC_FP,
    );
}

/// VCA skips the VCs parked on a taken output VC. On OWN-1024 uniform
/// traffic at 0.018 (serial engine, stage profiler timing every 8th
/// cycle), retrying every `Routed` VC made 759 allocation attempts per
/// timed cycle, 97% of them failing on bus VCs owned by another writer. A
/// change that wakes every parked VC every cycle would bring that back.
#[test]
fn own1024_vca_skips_parked_vcs() {
    let mut net = Own1024::new().build(RouterConfig::default());
    net.set_profiler(StageProfiler::new(8));
    let mut inj = BernoulliInjector::new(0.018, 4, TrafficPattern::Uniform, 0x0517_2018);
    inj.drive(&mut net, 6_000);
    net.check_invariants();
    let b = net.profiler().expect("profiler attached").breakdown();
    eprintln!(
        "own1024: {:.1} VCA attempts, {:.1} parked per timed cycle",
        b.avg_vca_attempts, b.avg_parked_vcs
    );
    assert!(b.avg_parked_vcs > 100.0, "nothing parked: the test no longer saturates a bus");
    assert!(b.avg_vca_attempts <= 100.0, "{:.1} VCA attempts per timed cycle", b.avg_vca_attempts);
}

// Captured with the full port × VC stage scans, before the work sets.
const WCMESH256_VCS8_FP: u64 = 0x839e_901b_60a0_316b;
const OWN1024_VCS16_FP: u64 = 0x9c68_207b_65f5_7fde;
const OWN1024_VCS16_SPEC_FP: u64 = 0x116e_a9fd_e06a_a208;
