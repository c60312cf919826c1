//! Progress watchdog: livelock/deadlock detection with a structured
//! diagnosis instead of a bare timeout.
//!
//! Deadlock freedom is a load-bearing claim of the reproduced
//! architectures (the OWN VC partitioning argues it structurally, §V-A),
//! so long runs *verify* it at runtime: the [`Watchdog`] samples a cheap
//! monotone progress counter — flits injected + ejected + crossbar
//! traversals, see [`Network::progress_counter`] — once per interval, and
//! declares a stall after two consecutive intervals without movement while
//! flits remain in the system. Token circulation and link-level
//! retransmissions are deliberately *not* progress: a token orbiting
//! writers that can never transmit, or a flit bouncing off a dead link,
//! is exactly the livelock the watchdog exists to catch.
//!
//! On a stall, [`Network::stall_report`] captures a [`StallReport`]: every
//! occupied virtual channel with its pipeline state and what it waits on,
//! token holders, bus VC ownership, and credit-starved output VCs. The
//! report is plain data (for the `noc-sim` exporters) and pretty-prints
//! through `Display` for assertion messages — see [`Network::try_drain`].
//!
//! The default interval (4096 cycles, two-interval hysteresis) comfortably
//! exceeds every legitimate quiet period of the engine: the longest gap
//! with zero flit movement on a live network is one maximally-backed-off
//! retransmission (`rtt << backoff_cap`, a few hundred cycles at the
//! default cap) or one in-flight traversal of the longest channel. A
//! configuration with a pathological backoff cap *should* trip the
//! watchdog — waiting 2⁴⁰ cycles for a resend is a livelock in every
//! practical sense.

use std::fmt;

use crate::ids::{BusId, CoreId, Cycle, PortId, RouterId};
use crate::network::Network;
use crate::obs::NocEvent;
use crate::router::{OutTarget, Upstream, VcState};

/// Default progress-check interval in cycles.
pub const DEFAULT_WATCHDOG_INTERVAL: u64 = 4096;

/// Consecutive zero-progress intervals required to declare a stall.
const HYSTERESIS: u32 = 2;

/// Interval-based zero-progress detector.
///
/// Drive it with [`Watchdog::poll`] once per cycle (cheap: one comparison
/// off the interval boundary); it reads the progress counter only once per
/// interval.
#[derive(Debug, Clone)]
pub struct Watchdog {
    interval: u64,
    next_check: Cycle,
    last_progress: u64,
    /// Last cycle at which the counter was observed to move.
    progressed_at: Cycle,
    stalled_intervals: u32,
}

impl Watchdog {
    /// A watchdog checking progress every `interval` cycles (≥ 1), armed
    /// from cycle `now` with baseline counter value `progress`.
    pub fn new(interval: u64, now: Cycle, progress: u64) -> Self {
        assert!(interval >= 1, "watchdog interval must be >= 1");
        Watchdog {
            interval,
            next_check: now + interval,
            last_progress: progress,
            progressed_at: now,
            stalled_intervals: 0,
        }
    }

    /// The configured check interval.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Last cycle at which progress was observed.
    pub fn progressed_at(&self) -> Cycle {
        self.progressed_at
    }

    /// Whether the next [`Watchdog::poll`] at `now` will actually sample —
    /// lets callers skip computing the progress counter off-interval.
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next_check
    }

    /// Record the progress counter at `now`; returns `true` once the
    /// counter has sat still for the hysteresis window. The caller is
    /// responsible for ignoring the verdict on a quiescent network (an
    /// idle network makes no progress and is not stalled).
    pub fn poll(&mut self, now: Cycle, progress: u64) -> bool {
        if now < self.next_check {
            return false;
        }
        self.next_check = now + self.interval;
        if progress != self.last_progress {
            self.last_progress = progress;
            self.progressed_at = now;
            self.stalled_intervals = 0;
        } else {
            self.stalled_intervals += 1;
        }
        self.stalled_intervals >= HYSTERESIS
    }

    /// Re-arm after a recovery action: baseline the counter at `progress`,
    /// clear the hysteresis count, and schedule the next check a full
    /// interval out — the escape path needs a quiet window to drain the
    /// freed resources before the watchdog may fire again.
    pub fn reset(&mut self, now: Cycle, progress: u64) {
        self.next_check = now + self.interval;
        self.last_progress = progress;
        self.progressed_at = now;
        self.stalled_intervals = 0;
    }
}

/// One occupied input virtual channel at the moment of a stall.
#[derive(Debug, Clone)]
pub struct StalledVc {
    pub router: RouterId,
    pub in_port: PortId,
    pub vc: u8,
    /// Flits sitting in the VC buffer.
    pub buffered: usize,
    /// Packet id of the flit at the buffer head, if any.
    pub head_packet: Option<u64>,
    /// Packet holding the VC's output allocation (Active only) — the
    /// recovery escape path's primary victim candidate.
    pub owner: Option<u64>,
    /// Pipeline state name: `"idle"`, `"routed"`, or `"active"`.
    pub state: &'static str,
    /// Output port the packet holds or requests (Routed/Active).
    pub out_port: Option<PortId>,
    /// Output VC held (Active only).
    pub out_vc: Option<u8>,
    /// Downstream credits on the held output VC (Active, channel targets).
    pub out_credits: Option<u32>,
    /// Cycle of this VC's last pipeline-stage action.
    pub last_moved: Cycle,
}

/// Token state of one bus at the moment of a stall.
#[derive(Debug, Clone)]
pub struct TokenState {
    pub bus: BusId,
    pub holder: usize,
    /// Cycle from which the holder may use the token.
    pub available_at: Cycle,
    /// Whether a scheduled fault currently freezes this ring.
    pub frozen: bool,
}

/// One claimed bus (reader, VC) slot at the moment of a stall.
#[derive(Debug, Clone)]
pub struct BusOwner {
    pub bus: BusId,
    pub reader: u16,
    pub vc: u8,
    pub writer: u16,
}

/// Structured diagnostic captured when the watchdog declares a stall (or
/// a drain budget runs out with flits still in the system).
///
/// All fields are plain data so exporters can serialize them;
/// `Display` renders the multi-line report used in assertion messages.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Cycle the stall was declared.
    pub at: Cycle,
    /// Last cycle with observed progress (equals `at` when the drain
    /// budget expired on a still-moving network).
    pub progressed_at: Cycle,
    /// `true` when the drain budget ran out rather than the watchdog
    /// firing — the network may still be making (slow) progress.
    pub budget_exhausted: bool,
    /// `true` when the loop stopped because an armed [`crate::CancelToken`]
    /// fired (explicit cancel or wall-clock timeout) — the network state
    /// is a consistent cycle boundary, not a wedge.
    pub cancelled: bool,
    /// Packets offered but not yet delivered or dropped.
    pub undelivered_packets: u64,
    /// Flits injected but not ejected.
    pub flits_in_network: u64,
    /// Packets queued (or streaming) at source NICs.
    pub source_backlog: u64,
    /// Retransmissions performed so far (a large number with zero
    /// progress points at a dead medium).
    pub flit_retransmits: u64,
    /// Every input VC holding at least one flit.
    pub stalled_vcs: Vec<StalledVc>,
    /// Token state of every bus.
    pub tokens: Vec<TokenState>,
    /// Every claimed bus (reader, VC) ownership slot.
    pub bus_owners: Vec<BusOwner>,
}

impl StallReport {
    /// One-line summary (full detail comes from `Display`).
    pub fn summary(&self) -> String {
        format!(
            "{} at cycle {} ({} undelivered packets, {} flits in network, \
             {} backlogged, {} stalled VCs, last progress at cycle {})",
            if self.cancelled {
                "cancelled"
            } else if self.budget_exhausted {
                "drain budget exhausted"
            } else {
                "stall"
            },
            self.at,
            self.undelivered_packets,
            self.flits_in_network,
            self.source_backlog,
            self.stalled_vcs.len(),
            self.progressed_at,
        )
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        writeln!(f, "  retransmits so far: {}", self.flit_retransmits)?;
        const MAX_LINES: usize = 64;
        writeln!(f, "  stalled VCs:")?;
        for v in self.stalled_vcs.iter().take(MAX_LINES) {
            write!(
                f,
                "    router {} in-port {} vc {}: {} [{} buffered",
                v.router, v.in_port, v.vc, v.state, v.buffered
            )?;
            if let Some(p) = v.head_packet {
                write!(f, ", head pkt {p}")?;
            }
            if let Some(op) = v.out_port {
                write!(f, " -> out port {op}")?;
                if let Some(ovc) = v.out_vc {
                    write!(f, " vc {ovc}")?;
                }
                if let Some(c) = v.out_credits {
                    write!(f, " ({c} credits)")?;
                }
            }
            writeln!(f, ", last moved cycle {}]", v.last_moved)?;
        }
        if self.stalled_vcs.len() > MAX_LINES {
            writeln!(f, "    ... and {} more", self.stalled_vcs.len() - MAX_LINES)?;
        }
        if !self.tokens.is_empty() {
            writeln!(f, "  tokens:")?;
            for t in self.tokens.iter().take(MAX_LINES) {
                writeln!(
                    f,
                    "    bus {}: held by writer {} (usable from cycle {}){}",
                    t.bus,
                    t.holder,
                    t.available_at,
                    if t.frozen { " [FROZEN]" } else { "" }
                )?;
            }
            if self.tokens.len() > MAX_LINES {
                writeln!(f, "    ... and {} more", self.tokens.len() - MAX_LINES)?;
            }
        }
        if !self.bus_owners.is_empty() {
            writeln!(f, "  bus VC owners:")?;
            for o in self.bus_owners.iter().take(MAX_LINES) {
                writeln!(
                    f,
                    "    bus {} reader {} vc {} <- writer {}",
                    o.bus, o.reader, o.vc, o.writer
                )?;
            }
            if self.bus_owners.len() > MAX_LINES {
                writeln!(f, "    ... and {} more", self.bus_owners.len() - MAX_LINES)?;
            }
        }
        Ok(())
    }
}

impl Network {
    /// Monotone progress counter for the watchdog: flits injected +
    /// ejected + crossbar traversals. Token passes and retransmissions are
    /// intentionally excluded — both can spin forever without a flit
    /// moving, which is precisely a livelock.
    pub fn progress_counter(&self) -> u64 {
        self.stats.flits_injected
            + self.stats.flits_ejected
            + self.stats.router_traversals.iter().sum::<u64>()
    }

    /// Capture the structured stall diagnostic: every occupied VC with its
    /// pipeline state, token holders, bus ownership, and credit state.
    pub fn stall_report(&self, progressed_at: Cycle, budget_exhausted: bool) -> Box<StallReport> {
        let mut stalled_vcs = Vec::new();
        for router in &self.routers {
            for (pi, ip) in router.in_ports.iter().enumerate() {
                for (vi, ivc) in ip.vcs.iter().enumerate() {
                    if ivc.buf().is_empty() && ivc.state() == VcState::Idle {
                        continue;
                    }
                    let (state, out_port, out_vc, owner) = match ivc.state() {
                        VcState::Idle => ("idle", None, None, None),
                        VcState::Routed { out_port, .. } => ("routed", Some(out_port), None, None),
                        VcState::Active { out_port, out_vc, owner, .. } => {
                            // u64::MAX is the "unknown" sentinel used when
                            // restoring pre-owner checkpoints.
                            (
                                "active",
                                Some(out_port),
                                Some(out_vc),
                                (owner != u64::MAX).then_some(owner),
                            )
                        }
                    };
                    let out_credits = match (out_port, out_vc) {
                        (Some(op), Some(ovc)) => {
                            let o = &router.out_ports[op as usize];
                            match o.target {
                                OutTarget::Channel(_) => Some(o.vcs[ovc as usize].credits),
                                OutTarget::Bus { bus, .. } => {
                                    let VcState::Active { reader, .. } = ivc.state() else {
                                        unreachable!()
                                    };
                                    Some(self.buses[bus as usize].credit(reader, ovc))
                                }
                                OutTarget::Eject(_) => None,
                            }
                        }
                        _ => None,
                    };
                    stalled_vcs.push(StalledVc {
                        router: router.id,
                        in_port: pi as PortId,
                        vc: vi as u8,
                        buffered: ivc.buf().len(),
                        head_packet: ivc.buf().front().map(|&(_, f)| f.packet_id),
                        owner,
                        state,
                        out_port,
                        out_vc,
                        out_credits,
                        last_moved: ivc.stage_cycle,
                    });
                }
            }
        }
        let now = self.now;
        let tokens = self
            .buses
            .iter()
            .enumerate()
            .map(|(bi, b)| {
                let (holder, available_at) = b.token.save();
                TokenState {
                    bus: bi as BusId,
                    holder,
                    available_at,
                    frozen: self.fault.as_deref().is_some_and(|c| c.token_frozen(bi, now)),
                }
            })
            .collect();
        let mut bus_owners = Vec::new();
        for (bi, b) in self.buses.iter().enumerate() {
            for (reader, vcs) in b.vc_owner.iter().enumerate() {
                for (vc, owner) in vcs.iter().enumerate() {
                    if let Some(writer) = owner {
                        bus_owners.push(BusOwner {
                            bus: bi as BusId,
                            reader: reader as u16,
                            vc: vc as u8,
                            writer: *writer,
                        });
                    }
                }
            }
        }
        let s = &self.stats;
        Box::new(StallReport {
            at: now,
            progressed_at,
            budget_exhausted,
            cancelled: false,
            undelivered_packets: s
                .packets_offered
                .saturating_sub(s.packets_delivered + s.packets_dropped_corrupt),
            flits_in_network: s.flits_in_network(),
            source_backlog: self.source_backlog() as u64,
            flit_retransmits: s.flit_retransmits,
            stalled_vcs,
            tokens,
            bus_owners,
        })
    }

    /// Drain with diagnosis: run until quiescent, returning the cycles it
    /// took, or fail with a [`StallReport`] — either because the watchdog
    /// saw no flit movement for two intervals (livelock/deadlock) or
    /// because `max_cycles` elapsed first (budget exhaustion; the report's
    /// `budget_exhausted` flag distinguishes the two).
    ///
    /// [`Network::drain`] is the boolean shorthand for call sites that
    /// only assert success.
    pub fn try_drain(&mut self, max_cycles: u64) -> Result<u64, Box<StallReport>> {
        self.try_drain_with(max_cycles, DEFAULT_WATCHDOG_INTERVAL)
    }

    /// [`Network::try_drain`] with an explicit watchdog interval, for runs
    /// whose legitimate quiet periods (e.g. very long retransmission
    /// backoffs that should *not* count as stalls) exceed the default.
    pub fn try_drain_with(
        &mut self,
        max_cycles: u64,
        interval: u64,
    ) -> Result<u64, Box<StallReport>> {
        let start = self.now;
        let mut dog = Watchdog::new(interval, self.now, self.progress_counter());
        for _ in 0..max_cycles {
            if self.quiescent() {
                return Ok(self.now - start);
            }
            if self.cancel_requested() {
                let mut report = self.stall_report(dog.progressed_at(), false);
                report.cancelled = true;
                return Err(report);
            }
            self.step();
            if dog.due(self.now) && dog.poll(self.now, self.progress_counter()) && !self.quiescent()
            {
                return Err(self.stall_report(dog.progressed_at(), false));
            }
        }
        if self.quiescent() {
            Ok(self.now - start)
        } else {
            Err(self.stall_report(dog.progressed_at(), true))
        }
    }
}

// ---- deadlock recovery ------------------------------------------------

/// One packet flushed by the recovery escape path.
#[derive(Debug, Clone)]
pub struct RecoveredPacket {
    pub packet: u64,
    pub src: CoreId,
    /// Intended destination (the original one, if the packet had been
    /// silently misrouted).
    pub dst: CoreId,
    /// Flits removed from buffers and media.
    pub flits: u64,
}

/// Outcome of one watchdog-triggered recovery pass ([`Network::recover`]).
///
/// Plain data for the `noc-sim` exporters, `Display` for log lines. An
/// empty `recovered` list means the escape path found nothing to flush —
/// the stall is not resolvable this way and the caller should fall back
/// to the hard-stop path.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Cycle the recovery ran.
    pub at: Cycle,
    /// Victim budget the caller allowed.
    pub budget: usize,
    /// Packets actually flushed, in victim order.
    pub recovered: Vec<RecoveredPacket>,
}

impl RecoveryReport {
    /// Whether the pass freed anything at all.
    pub fn is_empty(&self) -> bool {
        self.recovered.is_empty()
    }

    /// Total flits removed across all victims.
    pub fn flits_flushed(&self) -> u64 {
        self.recovered.iter().map(|r| r.flits).sum()
    }

    /// One-line summary for log output.
    pub fn summary(&self) -> String {
        format!(
            "recovery at cycle {}: flushed {} packet(s), {} flit(s) (budget {})",
            self.at,
            self.recovered.len(),
            self.flits_flushed(),
            self.budget,
        )
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.summary())?;
        for r in &self.recovered {
            writeln!(
                f,
                "    pkt {} ({} -> {}): {} flit(s) flushed",
                r.packet, r.src, r.dst, r.flits
            )?;
        }
        Ok(())
    }
}

/// What [`Network::flush_packet`] found and removed.
struct FlushedPacket {
    flits: u64,
    src: CoreId,
    dst: CoreId,
}

impl Network {
    /// Deadlock **recovery**: instead of giving up on a [`StallReport`],
    /// flush up to `budget` of the packets blocking the stalled VCs
    /// (poison-and-retransmit at a higher layer — the engine's contract is
    /// only that the flush is leak-free). For every victim the escape path
    /// removes all its flits from VC buffers and media, returns the freed
    /// buffer credits upstream, releases its output-VC allocations and bus
    /// claims, cancels any in-progress source streaming, and counts the
    /// packet in `NetStats::recoveries` — so packet conservation
    /// (invariant 7) keeps holding and the wormhole machinery is left in a
    /// state the remaining traffic can drain from.
    ///
    /// Victims are chosen in report order: the packet *holding* each
    /// stalled VC's output allocation first (breaking the hold releases
    /// the cycle), falling back to the buffered head. The caller re-arms
    /// its [`Watchdog`] with [`Watchdog::reset`] afterwards; an empty
    /// report means nothing could be freed and the stall is terminal.
    pub fn recover(&mut self, report: &StallReport, budget: usize) -> Box<RecoveryReport> {
        let mut victims: Vec<u64> = Vec::new();
        for vc in &report.stalled_vcs {
            if let Some(id) = vc.owner.or(vc.head_packet) {
                if !victims.contains(&id) {
                    victims.push(id);
                }
            }
        }
        victims.truncate(budget);
        let now = self.now;
        let mut recovered = Vec::new();
        for id in victims {
            let Some(fp) = self.flush_packet(id) else { continue };
            self.stats.recoveries += 1;
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_event(&NocEvent::PacketRecovered {
                    at: now,
                    packet: id,
                    src: fp.src,
                    dst: fp.dst,
                    flits: fp.flits,
                });
            }
            recovered.push(RecoveredPacket {
                packet: id,
                src: fp.src,
                dst: fp.dst,
                flits: fp.flits,
            });
        }
        // The sweep bypassed the incremental work-list maintenance; the
        // recompute also refreshes `total_backlog` after any cancelled
        // source streams, and forgets every park (the flush released
        // output VCs and bus claims without waking their waiters).
        self.rebuild_active_sets();
        Box::new(RecoveryReport { at: now, budget, recovered })
    }

    /// Remove every trace of packet `id` from the network, leak-free:
    /// flits in VC buffers (credits returned upstream), flits in flight on
    /// channels and buses (credits returned to the sender side), output-VC
    /// allocations it holds (holder and bus `vc_owner` claims released),
    /// an in-progress NIC streaming slot, and its fault-tracking entries.
    /// Returns `None` when the packet left no trace (already drained).
    fn flush_packet(&mut self, id: u64) -> Option<FlushedPacket> {
        let now = self.now;
        let mut flits = 0u64;
        let mut meta: Option<(CoreId, CoreId)> = None;
        let mut touched = false;

        // Flits in flight on point-to-point channels.
        for ch in &mut self.channels {
            let mut removed_vcs: Vec<u8> = Vec::new();
            ch.in_flight.retain(|(_, f)| {
                if f.packet_id == id {
                    removed_vcs.push(f.vc);
                    meta.get_or_insert((f.src, f.dst));
                    false
                } else {
                    true
                }
            });
            flits += removed_vcs.len() as u64;
            for vc in removed_vcs {
                ch.send_credit(now, vc);
            }
        }

        // Flits in flight on buses.
        for bus in &mut self.buses {
            let mut removed: Vec<(u16, u8)> = Vec::new();
            bus.in_flight.retain(|(_, reader, f)| {
                if f.packet_id == id {
                    removed.push((*reader, f.vc));
                    meta.get_or_insert((f.src, f.dst));
                    false
                } else {
                    true
                }
            });
            flits += removed.len() as u64;
            for (reader, vc) in removed {
                bus.send_credit(now, reader, vc);
            }
        }

        // Flits in VC buffers, plus the allocations the packet holds.
        for ri in 0..self.routers.len() {
            for pi in 0..self.routers[ri].in_ports.len() {
                let upstream = self.routers[ri].in_ports[pi].upstream;
                for vi in 0..self.routers[ri].in_ports[pi].vcs.len() {
                    let router = &mut self.routers[ri];
                    let ivc = &router.in_ports[pi].vcs[vi];
                    let front_was_victim =
                        ivc.buf().front().is_some_and(|&(_, f)| f.packet_id == id);
                    let removed = router.retain_flits(pi, vi, |f| {
                        if f.packet_id == id {
                            meta.get_or_insert((f.src, f.dst));
                            false
                        } else {
                            true
                        }
                    });
                    // Release the allocation the victim holds; a Routed
                    // state computed for the victim's (removed) head is
                    // stale, so drop it back to Idle for recomputation.
                    match router.in_ports[pi].vcs[vi].state() {
                        VcState::Active { out_port, out_vc, reader, owner } if owner == id => {
                            router.set_vc_state(pi, vi, VcState::Idle);
                            let op = &mut router.out_ports[out_port as usize];
                            op.vcs[out_vc as usize].holder = None;
                            if let OutTarget::Bus { bus, .. } = op.target {
                                self.buses[bus as usize].vc_owner[reader as usize]
                                    [out_vc as usize] = None;
                            }
                        }
                        VcState::Routed { .. } if front_was_victim => {
                            router.set_vc_state(pi, vi, VcState::Idle);
                        }
                        _ => {}
                    }
                    if removed > 0 {
                        flits += removed as u64;
                        match upstream {
                            Upstream::Channel(ch) => {
                                for _ in 0..removed {
                                    self.channels[ch as usize].send_credit(now, vi as u8);
                                }
                            }
                            Upstream::Bus { bus, reader } => {
                                for _ in 0..removed {
                                    self.buses[bus as usize].send_credit(now, reader, vi as u8);
                                }
                            }
                            Upstream::Inject(core) => {
                                self.nics[core as usize].credits[vi] += removed as u32;
                            }
                        }
                    }
                }
            }
        }

        // Cancel an in-progress source stream (remaining flits are simply
        // never injected; the ones already out were swept above).
        for nic in &mut self.nics {
            if nic.streaming.as_ref().is_some_and(|(p, ..)| p.id == id) {
                let (p, ..) = nic.streaming.take().unwrap();
                meta.get_or_insert((p.src, p.dst));
                touched = true;
            }
        }

        // Purge fault-tracking state; a misrouted victim reports its
        // original destination.
        if let Some(ctx) = self.fault.as_deref_mut() {
            ctx.poisoned.remove(&id);
            ctx.corrupt.remove(&id);
            if let Some(orig) = ctx.misrouted.remove(&id) {
                if let Some(m) = meta.as_mut() {
                    m.1 = orig;
                }
            }
        }

        if flits == 0 && !touched {
            return None;
        }
        self.stats.flits_flushed += flits;
        let (src, dst) = meta.unwrap_or((0, 0));
        Some(FlushedPacket { flits, src, dst })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_fires_only_after_hysteresis() {
        let mut w = Watchdog::new(10, 0, 100);
        assert!(!w.poll(5, 100), "before the first interval boundary");
        assert!(!w.poll(10, 100), "first stalled interval: hysteresis");
        assert!(w.poll(20, 100), "second stalled interval: stall");
    }

    #[test]
    fn progress_resets_the_stall_count() {
        let mut w = Watchdog::new(10, 0, 0);
        assert!(!w.poll(10, 0));
        assert!(!w.poll(20, 5), "progress clears the count");
        assert_eq!(w.progressed_at(), 20);
        assert!(!w.poll(30, 5));
        assert!(w.poll(40, 5));
        assert_eq!(w.progressed_at(), 20, "stall window anchored at last movement");
    }

    #[test]
    fn off_boundary_polls_are_free() {
        let mut w = Watchdog::new(100, 0, 0);
        for now in 1..100 {
            assert!(!w.poll(now, 0));
        }
        assert!(!w.poll(100, 0));
        assert!(w.poll(200, 0));
    }

    #[test]
    #[should_panic(expected = "interval must be >= 1")]
    fn zero_interval_rejected() {
        let _ = Watchdog::new(0, 0, 0);
    }
}
