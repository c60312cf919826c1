//! Global consistency checking.
//!
//! [`Network::check_invariants`] audits the cross-cutting invariants the
//! engine's components maintain together. Tests call it after randomized
//! runs; it is `O(network size)` and intended for test/debug use, not the
//! per-cycle hot path.
//!
//! Checked invariants:
//!
//! 1. **Credit conservation (channels)** — for every point-to-point
//!    channel: upstream credit counter + flits in downstream buffer +
//!    flits in flight + credits in flight = buffer depth, per VC.
//! 2. **Credit conservation (buses)** — same per (reader, VC) with the
//!    shared pool.
//! 3. **Holder/state symmetry** — an output VC's `holder` points at an
//!    input VC that is `Active` on exactly that output VC, and vice versa.
//! 4. **Bus ownership symmetry** — a bus `(reader, vc)` owner corresponds
//!    to a writer whose router has an Active input VC targeting exactly
//!    that reader/VC (claims are taken at VC allocation and released the
//!    cycle the tail flit enters the bus, so no claim may outlive its
//!    transmission).
//! 5. **Buffer bounds** — no input VC buffer exceeds the configured depth.
//! 6. **Active-set consistency** — the incrementally maintained work
//!    lists (routers with buffered flits, media with traffic in flight,
//!    NICs with queued packets, buses owing end-of-cycle processing) and
//!    the O(1) backlog counter agree with a from-scratch recomputation:
//!    nothing with pending work is ever skipped, and membership flags
//!    match list membership exactly.
//! 7. **Packet conservation** — every packet the sources ever offered is
//!    accounted for exactly once: delivered, dropped corrupt, misrouted,
//!    recovered (deadlock escape), still queued at a source NIC, or in
//!    flight (its tail flit somewhere in a buffer or on a medium). No
//!    packet is double-counted and none leaks.
//! 8. **Shard-plan consistency** — see [`Network::check_invariants`].
//! 9. **VC work sets** — every router's three input-VC bitsets (buffer
//!    non-empty, `Routed`, `Active`) equal a recomputation from its VC
//!    buffers and states, so RC, VCA and SA stage 1, which visit only set
//!    bits, skip no VC with work. The `parked` set is not derived from a
//!    VC's own state, so this audit ignores it.
//! 10. **Parked VCs** — every parked VC is `Routed`; every output VC in
//!     its range is held at this router or owned on the bus, so an attempt
//!     would fail; and it is marked where a wake finds it: on its output
//!     port and, for a bus, its writer on the reader. After a sharded step
//!     no VC bound for a boundary bus is parked (their allocations replay
//!     without parking, so a replayed release has nothing to wake).

use std::collections::HashSet;

use crate::network::Network;
use crate::router::{OutTarget, Upstream, VcState};

/// Packet-level conservation ledger (invariant 7). Produced by
/// [`Network::accounting`]; `balanced()` is the law the chaos harness
/// asserts at every checkpoint cut:
/// `offered == delivered + dropped_corrupt + misroutes + recoveries +
///  source_backlog + tails_in_network`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Packets admitted by source NICs (`packets_offered`).
    pub offered: u64,
    /// Packets whose tail ejected clean at the right core.
    pub delivered: u64,
    /// Packets discarded at the sink after retry exhaustion (poisoned).
    pub dropped_corrupt: u64,
    /// Packets ejected at the wrong core (silently flipped destination).
    pub misroutes: u64,
    /// Packets flushed by watchdog-triggered deadlock recovery.
    pub recoveries: u64,
    /// Packets queued or streaming at source NICs (`total_backlog`).
    pub source_backlog: u64,
    /// Distinct packets whose tail flit is in a VC buffer or in flight
    /// on a channel or bus (fully injected, not yet ejected).
    pub tails_in_network: u64,
}

impl Accounting {
    /// The conservation law: every offered packet is in exactly one bin.
    pub fn balanced(&self) -> bool {
        self.offered
            == self.delivered
                + self.dropped_corrupt
                + self.misroutes
                + self.recoveries
                + self.source_backlog
                + self.tails_in_network
    }
}

impl std::fmt::Display for Accounting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "offered {} = delivered {} + dropped {} + misrouted {} + recovered {} \
             + backlog {} + in-flight {}{}",
            self.offered,
            self.delivered,
            self.dropped_corrupt,
            self.misroutes,
            self.recoveries,
            self.source_backlog,
            self.tails_in_network,
            if self.balanced() { "" } else { "  [UNBALANCED]" }
        )
    }
}

impl Network {
    /// Audit global invariants; panics with a description on violation.
    ///
    /// Call from tests after a simulation (any cycle boundary is a
    /// consistent point).
    pub fn check_invariants(&self) {
        self.check_buffer_bounds();
        self.check_channel_credit_conservation();
        self.check_bus_credit_conservation();
        self.check_holder_symmetry();
        self.check_bus_ownership_symmetry();
        self.check_active_sets();
        self.check_conservation();
        self.check_work_sets();
        self.check_parks();
        // 8. Shard-plan consistency — while the parallel engine is armed,
        //    the plan's component partition must still describe the
        //    network exactly (id bounds, media locality, NIC attachment);
        //    a stale plan would let shards race on shared state.
        if let Some(par) = self.par.as_deref() {
            assert!(
                par.plan.validate(self),
                "armed shard plan inconsistent with the network topology"
            );
        }
    }

    /// Build the packet-conservation ledger (invariant 7) by walking every
    /// VC buffer and medium for tail flits. `O(flits in network)`.
    pub fn accounting(&self) -> Accounting {
        let mut tails: HashSet<u64> = HashSet::new();
        for r in &self.routers {
            for ip in &r.in_ports {
                for vc in &ip.vcs {
                    for (_, f) in vc.buf() {
                        if f.kind.is_tail() {
                            tails.insert(f.packet_id);
                        }
                    }
                }
            }
        }
        for ch in &self.channels {
            for (_, f) in &ch.in_flight {
                if f.kind.is_tail() {
                    tails.insert(f.packet_id);
                }
            }
        }
        for bus in &self.buses {
            for (_, _, f) in &bus.in_flight {
                if f.kind.is_tail() {
                    tails.insert(f.packet_id);
                }
            }
        }
        Accounting {
            offered: self.stats.packets_offered,
            delivered: self.stats.packets_delivered,
            dropped_corrupt: self.stats.packets_dropped_corrupt,
            misroutes: self.stats.misroutes,
            recoveries: self.stats.recoveries,
            source_backlog: self.total_backlog,
            tails_in_network: tails.len() as u64,
        }
    }

    /// Invariant 7: the packet-conservation ledger balances.
    fn check_conservation(&self) {
        let acct = self.accounting();
        assert!(acct.balanced(), "packet conservation violated: {acct}");
    }

    /// Invariant 6: every component with pending work is on its phase's
    /// work list, every flag mirrors list membership, and the O(1)
    /// counters match recomputation. (Lists may transiently hold entries
    /// whose work completed mid-phase — those are compacted on the next
    /// visit — but at a cycle boundary every rule below is exact.)
    fn check_active_sets(&self) {
        let flag_matches_list = |name: &str, flags: &[bool], list: &[usize]| {
            let mut sorted = list.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), list.len(), "{name} list has duplicate entries: {list:?}");
            for (i, &f) in flags.iter().enumerate() {
                assert_eq!(
                    f,
                    sorted.binary_search(&i).is_ok(),
                    "{name} {i}: active flag {f} disagrees with list membership"
                );
            }
        };
        assert_eq!(
            self.total_backlog,
            self.source_backlog() as u64,
            "O(1) backlog counter diverged from per-NIC recomputation"
        );
        for (ri, r) in self.routers.iter().enumerate() {
            let actual = r.buffered_flits() as u32;
            assert_eq!(
                self.router_flits[ri], actual,
                "router {ri}: tracked flit count {} != buffered {actual}",
                self.router_flits[ri]
            );
            assert_eq!(
                self.router_active[ri],
                actual > 0,
                "router {ri}: active flag wrong for {actual} buffered flits"
            );
        }
        for (ci, ch) in self.channels.iter().enumerate() {
            let busy = !ch.in_flight.is_empty() || !ch.credits_back.is_empty();
            assert_eq!(self.chan_active[ci], busy, "channel {ci}: delivery work list wrong");
        }
        let has_obs = self.has_observer();
        for (bi, b) in self.buses.iter().enumerate() {
            let busy = !b.in_flight.is_empty() || !b.credits_back.is_empty();
            assert_eq!(self.bus_active[bi], busy, "bus {bi}: delivery work list wrong");
            let ec = b.want_since.iter().any(Option::is_some)
                || (has_obs && (b.obs_busy || b.is_busy(self.now)));
            assert_eq!(self.bus_ec_active[bi], ec, "bus {bi}: end-of-cycle work list wrong");
        }
        for (ni, n) in self.nics.iter().enumerate() {
            assert_eq!(
                self.nic_active[ni],
                n.backlog() > 0,
                "nic {ni}: inject work list wrong for backlog {}",
                n.backlog()
            );
        }
        flag_matches_list("router", &self.router_active, &self.router_list);
        flag_matches_list("channel", &self.chan_active, &self.chan_list);
        flag_matches_list("bus", &self.bus_active, &self.bus_list);
        flag_matches_list("bus-ec", &self.bus_ec_active, &self.bus_ec_list);
        flag_matches_list("nic", &self.nic_active, &self.nic_list);
    }

    /// Invariant 9: the VC work sets match the VC state they summarize.
    fn check_work_sets(&self) {
        for r in &self.routers {
            if let Err(e) = r.audit_work_sets() {
                panic!("router {}: VC work sets diverged from VC state: {e}", r.id);
            }
        }
    }

    /// Invariant 10: skipping a parked VC skips an attempt that would fail,
    /// and the release that could make it succeed wakes it.
    fn check_parks(&self) {
        let boundary_from = match self.par.as_deref() {
            Some(p) if !self.stepped_serially => p.plan.n_local_buses,
            _ => usize::MAX,
        };
        for r in &self.routers {
            let mut from = 0;
            while let Some(i) = r.work.next_parked(from) {
                from = i + 1;
                let (pi, vi) = r.vc_at(i);
                let at = format!("router {}: parked in ({pi},{vi})", r.id);
                let VcState::Routed { out_port, vc_lo, vc_hi, reader } =
                    r.in_ports[pi].vcs[vi].state()
                else {
                    panic!("{at} is not Routed");
                };
                let op = &r.out_ports[out_port as usize];
                for ovc in vc_lo..=vc_hi {
                    let owned = match op.target {
                        OutTarget::Bus { bus, .. } => self.buses[bus as usize].vc_owner
                            [reader as usize][ovc as usize]
                            .is_some(),
                        _ => false,
                    };
                    assert!(
                        op.vcs[ovc as usize].holder.is_some() || owned,
                        "{at} has a free output VC {ovc} on out port {out_port}"
                    );
                }
                assert!(
                    r.marked_on_port(i, out_port as usize),
                    "{at}: not marked on out port {out_port}"
                );
                if let OutTarget::Bus { bus, writer } = op.target {
                    assert!(
                        self.buses[bus as usize].writer_marked(reader, writer),
                        "{at}: writer {writer} not marked on bus {bus} reader {reader}"
                    );
                    assert!(
                        (bus as usize) < boundary_from,
                        "{at} waits on boundary bus {bus} after a sharded step"
                    );
                }
            }
        }
    }

    fn check_buffer_bounds(&self) {
        for r in &self.routers {
            for (pi, ip) in r.in_ports.iter().enumerate() {
                for (vi, vc) in ip.vcs.iter().enumerate() {
                    assert!(
                        vc.buf().len() <= r.buf_depth as usize,
                        "router {} in-port {pi} vc {vi}: {} flits > depth {}",
                        r.id,
                        vc.buf().len(),
                        r.buf_depth
                    );
                }
            }
        }
    }

    fn check_channel_credit_conservation(&self) {
        for (ci, ch) in self.channels.iter().enumerate() {
            let (sr, sp) = ch.src;
            let (dr, dp) = ch.dst;
            let depth = self.routers[dr as usize].buf_depth;
            let vcs = self.routers[dr as usize].in_ports[dp as usize].vcs.len();
            for vc in 0..vcs {
                let upstream =
                    self.routers[sr as usize].out_ports[sp as usize].vcs[vc].credits as usize;
                let buffered = self.routers[dr as usize].in_ports[dp as usize].vcs[vc].buf().len();
                let in_flight = ch.in_flight.iter().filter(|(_, f)| f.vc as usize == vc).count();
                let credits_flying =
                    ch.credits_back.iter().filter(|&&(_, v)| v as usize == vc).count();
                let total = upstream + buffered + in_flight + credits_flying;
                assert_eq!(
                    total, depth as usize,
                    "channel {ci} vc {vc}: {upstream} upstream + {buffered} buffered + \
                     {in_flight} flying + {credits_flying} credits != depth {depth}"
                );
            }
        }
    }

    fn check_bus_credit_conservation(&self) {
        for (bi, bus) in self.buses.iter().enumerate() {
            for (ri, &(rr, rp)) in bus.readers.iter().enumerate() {
                let depth = self.routers[rr as usize].buf_depth as usize;
                let vcs = self.routers[rr as usize].in_ports[rp as usize].vcs.len();
                for vc in 0..vcs {
                    let pool = bus.credits[ri][vc] as usize;
                    let buffered =
                        self.routers[rr as usize].in_ports[rp as usize].vcs[vc].buf().len();
                    let in_flight = bus
                        .in_flight
                        .iter()
                        .filter(|&&(_, rd, f)| rd as usize == ri && f.vc as usize == vc)
                        .count();
                    let credits_flying = bus
                        .credits_back
                        .iter()
                        .filter(|&&(_, rd, v)| rd as usize == ri && v as usize == vc)
                        .count();
                    let total = pool + buffered + in_flight + credits_flying;
                    assert_eq!(
                        total, depth,
                        "bus {bi} reader {ri} vc {vc}: {pool} pool + {buffered} buffered + \
                         {in_flight} flying + {credits_flying} credits != depth {depth}"
                    );
                }
            }
        }
    }

    /// Invariant 4, reverse direction: every claimed bus `(reader, vc)`
    /// slot is backed by a live transmission. A claim is taken at VC
    /// allocation and released the cycle the tail flit enters the bus, so
    /// whenever a claim exists, the claiming writer's router must hold an
    /// `Active` input VC addressing exactly that bus/reader/VC. (The
    /// forward direction — every Active bus path has its claim — is part
    /// of `check_holder_symmetry`.) A claim with no matching Active VC is
    /// leaked ownership: it blocks that reader/VC pair for every writer,
    /// forever.
    fn check_bus_ownership_symmetry(&self) {
        for (bi, bus) in self.buses.iter().enumerate() {
            for (ri, owners) in bus.vc_owner.iter().enumerate() {
                for (vc, owner) in owners.iter().enumerate() {
                    let Some(w) = *owner else { continue };
                    let (wr, wp) = bus.writers[w as usize];
                    let op = &self.routers[wr as usize].out_ports[wp as usize];
                    match op.target {
                        OutTarget::Bus { bus: b, writer } => assert!(
                            b as usize == bi && writer == w,
                            "bus {bi} reader {ri} vc {vc}: claimed by writer {w}, but \
                             router {wr} port {wp} targets bus {b} as writer {writer}"
                        ),
                        ref other => panic!(
                            "bus {bi} reader {ri} vc {vc}: claimed by writer {w}, but \
                             router {wr} port {wp} targets {other:?}, not the bus"
                        ),
                    }
                    let Some((pi, vi)) = op.vcs[vc].holder else {
                        panic!(
                            "bus {bi} reader {ri} vc {vc}: claimed by writer {w} \
                             (router {wr} port {wp}) but that output VC has no holder \
                             — leaked bus ownership"
                        )
                    };
                    let ivc = &self.routers[wr as usize].in_ports[pi as usize].vcs[vi as usize];
                    match ivc.state() {
                        VcState::Active { out_port, out_vc, reader, .. } => assert!(
                            out_port == wp && out_vc as usize == vc && reader as usize == ri,
                            "bus {bi} reader {ri} vc {vc}: claim by writer {w} backed by \
                             in ({pi},{vi}) which is Active on out ({out_port},{out_vc}) \
                             to reader {reader} instead"
                        ),
                        other => panic!(
                            "bus {bi} reader {ri} vc {vc}: claim by writer {w} backed by \
                             in ({pi},{vi}) in state {other:?}, not Active"
                        ),
                    }
                }
            }
        }
    }

    fn check_holder_symmetry(&self) {
        for r in &self.routers {
            // Output holders point to matching Active input VCs.
            for (opi, op) in r.out_ports.iter().enumerate() {
                for (ovc, state) in op.vcs.iter().enumerate() {
                    if let Some((pi, vi)) = state.holder {
                        let ivc = &r.in_ports[pi as usize].vcs[vi as usize];
                        match ivc.state() {
                            VcState::Active { out_port, out_vc, .. } => {
                                assert_eq!(
                                    (out_port as usize, out_vc as usize),
                                    (opi, ovc),
                                    "router {}: holder of out ({opi},{ovc}) is Active \
                                     elsewhere",
                                    r.id
                                );
                            }
                            other => panic!(
                                "router {}: out ({opi},{ovc}) held by in ({pi},{vi}) in \
                                 state {other:?}",
                                r.id
                            ),
                        }
                    }
                }
            }
            // Active input VCs are registered as holders.
            for (pi, ip) in r.in_ports.iter().enumerate() {
                for (vi, ivc) in ip.vcs.iter().enumerate() {
                    if let VcState::Active { out_port, out_vc, reader, .. } = ivc.state() {
                        let op = &r.out_ports[out_port as usize];
                        assert_eq!(
                            op.vcs[out_vc as usize].holder,
                            Some((pi as u16, vi as u8)),
                            "router {}: Active in ({pi},{vi}) not registered at out \
                             ({out_port},{out_vc})",
                            r.id
                        );
                        if let OutTarget::Bus { bus, writer } = op.target {
                            assert_eq!(
                                self.buses[bus as usize].vc_owner[reader as usize][out_vc as usize],
                                Some(writer),
                                "router {}: Active bus path lost its vc_owner claim",
                                r.id
                            );
                        }
                    }
                }
            }
        }
        // NIC credits for the local injection ports also conserve.
        for nic in &self.nics {
            let r = &self.routers[nic.router as usize];
            let ip = &r.in_ports[nic.in_port as usize];
            debug_assert!(matches!(ip.upstream, Upstream::Inject(_)));
            for (vi, vc) in ip.vcs.iter().enumerate() {
                let total = nic.credits[vi] as usize + vc.buf().len();
                assert_eq!(
                    total,
                    r.buf_depth as usize,
                    "nic {}: vc {vi} credits {} + buffered {} != depth {}",
                    nic.core,
                    nic.credits[vi],
                    vc.buf().len(),
                    r.buf_depth
                );
            }
        }
    }
}
