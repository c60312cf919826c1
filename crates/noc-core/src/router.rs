//! Virtual-channel router state.
//!
//! A router is pure state here; the pipeline stages that operate on it
//! (RC, VCA, SA/ST) live in [`crate::network`] because they need simultaneous
//! access to the channels and buses connecting routers. The model follows the
//! canonical input-queued VC router:
//!
//! * every **input port** has `vcs` virtual channels, each a FIFO of flits
//!   with a per-packet state machine (`Idle → Routed → Active`);
//! * every **output port** tracks, per VC, which input VC currently owns it
//!   and how many downstream credits remain;
//! * switch allocation is separable: one round-robin arbiter per input port
//!   picks a candidate VC, one per output port picks the winner.
//!
//! Each router also keeps three **VC work sets** — bitsets with one bit per
//! input VC (bit `port * vcs + vc`): buffer non-empty, `Routed` and
//! `Active`. RC visits the idle VCs with a buffered head, VCA the `Routed`
//! ones and SA stage 1 the `Active` ones, in ascending bit order (= the
//! `(port, vc)` order of a full scan), instead of walking every VC. Buffers
//! and states are private to this module: every change goes through a
//! `Router` method that keeps the bits exact, and invariant 9
//! (`Network::check_invariants`) recomputes them from scratch.
//!
//! A fourth set, `parked`, holds the `Routed` VCs whose last allocation
//! attempt found every output VC in range taken; VCA skips them. Each
//! parked VC is also marked in its output port's park mask, and
//! [`Router::wake_port`] unparks the whole mask when an output VC of that
//! port (or, for a bus, a reader VC it waits on) is released. Parking is
//! derived state: it never changes a result (invariant 10) and is never
//! snapshotted.

use std::collections::VecDeque;

use crate::arbiter::RoundRobin;
use crate::flit::Flit;
use crate::ids::{BusId, ChannelId, CoreId, Cycle, PortId, RouterId};

/// Per-packet progress of an input virtual channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VcState {
    /// No packet in progress (buffer may hold the head of the next packet).
    Idle,
    /// Route computed; waiting for an output VC.
    Routed { out_port: PortId, vc_lo: u8, vc_hi: u8, reader: u16 },
    /// Output VC allocated; flits compete in switch allocation. `owner` is
    /// the id of the packet holding the allocation (the head at the buffer
    /// front when VCA granted) — deadlock recovery uses it to identify and
    /// release the claim holder (see `Network::recover`).
    Active { out_port: PortId, out_vc: u8, reader: u16, owner: u64 },
}

/// An input virtual channel: FIFO of `(arrival_cycle, flit)` plus state.
/// `buf` and `state` change only through [`Router`] methods, which keep
/// the router's [`VcSets`] in step.
#[derive(Debug)]
pub(crate) struct InVc {
    buf: VecDeque<(Cycle, Flit)>,
    state: VcState,
    /// Cycle of the last pipeline-stage action; each stage takes ≥1 cycle.
    pub stage_cycle: Cycle,
}

impl InVc {
    fn new() -> Self {
        InVc { buf: VecDeque::new(), state: VcState::Idle, stage_cycle: 0 }
    }

    /// Buffered `(arrival_cycle, flit)` pairs, head first.
    pub(crate) fn buf(&self) -> &VecDeque<(Cycle, Flit)> {
        &self.buf
    }

    /// Per-packet pipeline state.
    pub(crate) fn state(&self) -> VcState {
        self.state
    }
}

/// One 64-VC word of each work set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct VcWord {
    /// Buffer holds at least one flit.
    nonempty: u64,
    /// State is `Routed`.
    routed: u64,
    /// State is `Active`.
    active: u64,
    /// `Routed` and waiting for a release (VCA skips it). Not derived
    /// from the VC alone, so invariant 9 ignores it; invariant 10 checks it.
    parked: u64,
}

/// A VC's membership in the three work sets: (non-empty, Routed, Active).
fn vc_bits(vc: &InVc) -> (bool, bool, bool) {
    (
        !vc.buf.is_empty(),
        matches!(vc.state, VcState::Routed { .. }),
        matches!(vc.state, VcState::Active { .. }),
    )
}

/// A router's VC work sets: one bit per input VC at index
/// `port * vcs + vc`, in `ceil(in_ports * vcs / 64)` words, so any port
/// and VC count uses the same code. Bits past the last VC stay zero.
#[derive(Debug, Default)]
pub(crate) struct VcSets {
    words: Vec<VcWord>,
}

impl VcSets {
    /// The first bit at or after `from` set in `pick(word)`.
    #[inline]
    fn next(&self, from: usize, pick: impl Fn(&VcWord) -> u64) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = pick(self.words.get(w)?) & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = pick(self.words.get(w)?);
        }
    }

    /// Next idle VC with a buffered head (RC's work) at or after `from`.
    #[inline]
    pub(crate) fn next_idle_head(&self, from: usize) -> Option<usize> {
        self.next(from, |w| w.nonempty & !(w.routed | w.active))
    }

    /// Next `Routed` VC that is not parked (VCA's work) at or after `from`.
    #[inline]
    pub(crate) fn next_routed(&self, from: usize) -> Option<usize> {
        self.next(from, |w| w.routed & !w.parked)
    }

    /// Next parked VC at or after `from`.
    #[inline]
    pub(crate) fn next_parked(&self, from: usize) -> Option<usize> {
        self.next(from, |w| w.parked)
    }

    /// Number of parked VCs.
    pub(crate) fn parked_count(&self) -> u32 {
        self.words.iter().map(|w| w.parked.count_ones()).sum()
    }

    /// Next `Active` VC (SA stage 1's work) at or after `from`.
    #[inline]
    pub(crate) fn next_active(&self, from: usize) -> Option<usize> {
        self.next(from, |w| w.active)
    }

    /// Write VC `i`'s three derived bits; a VC that is not `Routed` is
    /// also unparked.
    fn put(&mut self, i: usize, (nonempty, routed, active): (bool, bool, bool)) {
        let (w, bit) = (&mut self.words[i / 64], i % 64);
        let keep = !(1u64 << bit);
        w.nonempty = (w.nonempty & keep) | (u64::from(nonempty) << bit);
        w.routed = (w.routed & keep) | (u64::from(routed) << bit);
        w.active = (w.active & keep) | (u64::from(active) << bit);
        if !routed {
            w.parked &= keep;
        }
    }
}

/// Where credits for an input port are returned to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Upstream {
    /// Fed by a point-to-point channel.
    Channel(ChannelId),
    /// Fed by a shared bus as its `reader`-th reader endpoint.
    Bus { bus: BusId, reader: u16 },
    /// Fed by the injection side of a core's NIC.
    Inject(CoreId),
}

/// An input port: VC buffers plus the upstream credit sink.
#[derive(Debug)]
pub(crate) struct InPort {
    pub vcs: Vec<InVc>,
    pub upstream: Upstream,
    /// SA stage 1: arbiter over this port's VCs.
    pub sa_vc_arb: RoundRobin,
}

/// What an output port drives.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OutTarget {
    /// A point-to-point channel.
    Channel(ChannelId),
    /// Writer number `writer` of a shared bus.
    Bus { bus: BusId, writer: u16 },
    /// Ejection to a core's NIC (infinite credits, 1 flit/cycle).
    Eject(CoreId),
}

/// Per-output-VC bookkeeping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutVc {
    /// Input `(port, vc)` that holds this output VC, if any.
    pub holder: Option<(PortId, u8)>,
    /// Downstream buffer credits (point-to-point channels only; buses use
    /// the shared pool on the bus itself).
    pub credits: u32,
}

/// An output port.
#[derive(Debug)]
pub(crate) struct OutPort {
    pub target: OutTarget,
    pub vcs: Vec<OutVc>,
    /// Cycle until which this transmitter is serializing the previous flit
    /// (channels and ejection; buses track occupancy on the bus).
    pub busy_until: Cycle,
    /// SA stage 2: arbiter over input ports competing for this output.
    pub sa_arb: RoundRobin,
}

/// A router: input and output port arrays. Ports are unidirectional; a
/// "bidirectional" topology port is an (input, output) pair.
#[derive(Debug)]
pub struct Router {
    pub id: RouterId,
    pub(crate) in_ports: Vec<InPort>,
    pub(crate) out_ports: Vec<OutPort>,
    pub(crate) vcs: u8,
    pub(crate) buf_depth: u32,
    /// Speculative RC+VCA (see [`crate::RouterConfig::speculative`]).
    pub(crate) speculative: bool,
    /// Radix override for power accounting. Topologies that model one
    /// physical port as several logical engine ports (e.g. wavelength
    /// groups on one waveguide) set this to the physical port count.
    pub(crate) power_radix: Option<u16>,
    /// Which input VCs have work for RC, VCA and SA stage 1.
    pub(crate) work: VcSets,
    /// Per-output-port park masks, `work.words.len()` words per port:
    /// bit `i` of port `op`'s mask is set when VC `i` parked waiting on
    /// `op`. Empty until the first park; bits of VCs that left `Routed`
    /// may linger and only cause a spurious wake.
    park_masks: Vec<u64>,
}

impl Router {
    pub(crate) fn new(id: RouterId, vcs: u8, buf_depth: u32, speculative: bool) -> Self {
        Router {
            id,
            in_ports: Vec::new(),
            out_ports: Vec::new(),
            vcs,
            buf_depth,
            speculative,
            power_radix: None,
            work: VcSets::default(),
            park_masks: Vec::new(),
        }
    }

    /// Number of input ports.
    pub fn num_in_ports(&self) -> usize {
        self.in_ports.len()
    }

    /// Number of output ports.
    pub fn num_out_ports(&self) -> usize {
        self.out_ports.len()
    }

    /// Router radix as counted in the paper: max(input, output) port count —
    /// a bidirectional port contributes one to each.
    pub fn radix(&self) -> usize {
        self.in_ports.len().max(self.out_ports.len())
    }

    /// Radix used for power accounting: the physical port count when the
    /// topology set an override (wavelength groups share one physical
    /// port), otherwise the engine port count.
    pub fn radix_for_power(&self) -> usize {
        self.power_radix.map(usize::from).unwrap_or_else(|| self.radix())
    }

    pub(crate) fn add_in_port(&mut self, upstream: Upstream) -> PortId {
        let id = self.in_ports.len() as PortId;
        self.in_ports.push(InPort {
            vcs: (0..self.vcs).map(|_| InVc::new()).collect(),
            upstream,
            sa_vc_arb: RoundRobin::new(self.vcs as usize),
        });
        let slots = self.in_ports.len() * self.vcs as usize;
        self.work.words.resize(slots.div_ceil(64), VcWord::default());
        id
    }

    pub(crate) fn add_out_port(
        &mut self,
        target: OutTarget,
        credits: u32,
        n_in_hint: usize,
    ) -> PortId {
        let id = self.out_ports.len() as PortId;
        self.out_ports.push(OutPort {
            target,
            vcs: (0..self.vcs).map(|_| OutVc { holder: None, credits }).collect(),
            busy_until: 0,
            sa_arb: RoundRobin::new(n_in_hint.max(1)),
        });
        id
    }

    /// Total flits buffered in this router (used by drain checks and tests).
    pub fn buffered_flits(&self) -> usize {
        self.in_ports.iter().flat_map(|p| p.vcs.iter()).map(|vc| vc.buf.len()).sum()
    }

    /// The `(in_port, vc)` of work-set bit `i`.
    #[inline]
    pub(crate) fn vc_at(&self, i: usize) -> (usize, usize) {
        let nv = self.vcs as usize;
        (i / nv, i % nv)
    }

    /// Re-derive VC `(pi, vi)`'s work-set bits from its buffer and state.
    #[inline]
    fn sync(&mut self, pi: usize, vi: usize) {
        let bits = vc_bits(&self.in_ports[pi].vcs[vi]);
        self.work.put(pi * self.vcs as usize + vi, bits);
    }

    /// Buffer `flit`, arrived at cycle `at`, at the tail of VC `(pi, vi)`.
    #[inline]
    pub(crate) fn push_flit(&mut self, pi: usize, vi: usize, at: Cycle, flit: Flit) {
        let buf = &mut self.in_ports[pi].vcs[vi].buf;
        buf.push_back((at, flit));
        debug_assert!(
            buf.len() <= self.buf_depth as usize,
            "input buffer overflow at router {} port {pi} — credit protocol violated",
            self.id
        );
        let nv = self.vcs as usize;
        self.work.words[(pi * nv + vi) / 64].nonempty |= 1 << ((pi * nv + vi) % 64);
    }

    /// Switch traversal out of the `Active` VC `(pi, vi)` at cycle `now`:
    /// pop its head flit; a tail returns the VC to `Idle`. Returns the flit
    /// and the VC's allocation `(out_port, out_vc, reader)`.
    #[inline]
    pub(crate) fn traverse_head(
        &mut self,
        pi: usize,
        vi: usize,
        now: Cycle,
    ) -> (Flit, PortId, u8, u16) {
        let vc = &mut self.in_ports[pi].vcs[vi];
        let VcState::Active { out_port, out_vc, reader, .. } = vc.state else {
            unreachable!("SA granted a non-Active VC")
        };
        let (_, flit) = vc.buf.pop_front().expect("SA granted an empty VC");
        vc.stage_cycle = now;
        if flit.kind.is_tail() {
            vc.state = VcState::Idle;
        }
        self.sync(pi, vi);
        (flit, out_port, out_vc, reader)
    }

    /// Move VC `(pi, vi)` to `state`.
    #[inline]
    pub(crate) fn set_vc_state(&mut self, pi: usize, vi: usize, state: VcState) {
        self.in_ports[pi].vcs[vi].state = state;
        self.sync(pi, vi);
    }

    /// Drop every buffered flit of VC `(pi, vi)` for which `keep` is false
    /// (deadlock recovery); returns how many were removed.
    pub(crate) fn retain_flits(
        &mut self,
        pi: usize,
        vi: usize,
        mut keep: impl FnMut(&Flit) -> bool,
    ) -> usize {
        let buf = &mut self.in_ports[pi].vcs[vi].buf;
        let before = buf.len();
        buf.retain(|(_, f)| keep(f));
        let removed = before - buf.len();
        self.sync(pi, vi);
        removed
    }

    /// Overwrite VC `(pi, vi)`'s buffer and state (snapshot restore).
    pub(crate) fn load_vc(
        &mut self,
        pi: usize,
        vi: usize,
        buf: VecDeque<(Cycle, Flit)>,
        state: VcState,
    ) {
        let vc = &mut self.in_ports[pi].vcs[vi];
        vc.buf = buf;
        vc.state = state;
        self.sync(pi, vi);
    }

    /// Park the `Routed` VC `(pi, vi)`, whose allocation on output port
    /// `op` just failed, until [`Router::wake_port`]`(op)`.
    pub(crate) fn park(&mut self, pi: usize, vi: usize, op: usize) {
        let words = self.work.words.len();
        if self.park_masks.is_empty() {
            self.park_masks = vec![0; self.out_ports.len() * words];
        }
        let i = pi * self.vcs as usize + vi;
        self.work.words[i / 64].parked |= 1 << (i % 64);
        self.park_masks[op * words + i / 64] |= 1 << (i % 64);
    }

    /// Unpark every VC parked on output port `op`.
    #[inline]
    pub(crate) fn wake_port(&mut self, op: usize) {
        if self.park_masks.is_empty() {
            return;
        }
        let words = self.work.words.len();
        let masks = &mut self.park_masks[op * words..(op + 1) * words];
        for (w, m) in self.work.words.iter_mut().zip(masks) {
            w.parked &= !std::mem::take(m);
        }
    }

    /// Unpark every VC (restore, deadlock recovery, engine switch).
    pub(crate) fn forget_parks(&mut self) {
        self.park_masks.fill(0);
        for w in &mut self.work.words {
            w.parked = 0;
        }
    }

    /// Whether VC bit `i` is marked in output port `op`'s park mask.
    pub(crate) fn marked_on_port(&self, i: usize, op: usize) -> bool {
        let words = self.work.words.len();
        self.park_masks.get(op * words + i / 64).is_some_and(|m| m & (1 << (i % 64)) != 0)
    }

    /// Compare the work sets with a recomputation from every VC's buffer
    /// and state (invariant 9, which ignores `parked`); describes the
    /// first mismatch.
    pub(crate) fn audit_work_sets(&self) -> Result<(), String> {
        let nv = self.vcs as usize;
        let slots = self.in_ports.len() * nv;
        let mut expect = VcSets { words: vec![VcWord::default(); slots.div_ceil(64)] };
        for (pi, ip) in self.in_ports.iter().enumerate() {
            for (vi, vc) in ip.vcs.iter().enumerate() {
                expect.put(pi * nv + vi, vc_bits(vc));
            }
        }
        if self.work.words.len() != expect.words.len() {
            return Err(format!(
                "{} work-set words for {slots} VCs, expected {}",
                self.work.words.len(),
                expect.words.len()
            ));
        }
        for (w, (got, want)) in self.work.words.iter().zip(&expect.words).enumerate() {
            let got = &VcWord { parked: 0, ..*got };
            if got != want {
                return Err(format!("word {w}: tracked {got:?}, recomputed {want:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_number_sequentially() {
        let mut r = Router::new(0, 4, 4, false);
        assert_eq!(r.add_in_port(Upstream::Inject(0)), 0);
        assert_eq!(r.add_in_port(Upstream::Inject(1)), 1);
        assert_eq!(r.add_out_port(OutTarget::Eject(0), u32::MAX, 2), 0);
        assert_eq!(r.num_in_ports(), 2);
        assert_eq!(r.num_out_ports(), 1);
        assert_eq!(r.radix(), 2);
    }

    #[test]
    fn new_router_is_empty() {
        let r = Router::new(3, 2, 8, false);
        assert_eq!(r.buffered_flits(), 0);
        assert_eq!(r.radix(), 0);
    }

    #[test]
    fn out_port_vcs_start_with_given_credits() {
        let mut r = Router::new(0, 2, 4, false);
        r.add_out_port(OutTarget::Channel(0), 4, 1);
        assert!(r.out_ports[0].vcs.iter().all(|v| v.credits == 4 && v.holder.is_none()));
    }

    /// 15 ports × 5 VCs = 75 bits: two words, and port 12's VCs (bits
    /// 60..65) straddle the word boundary.
    fn wide_router() -> Router {
        let mut r = Router::new(7, 5, 4, false);
        for c in 0..15 {
            r.add_in_port(Upstream::Inject(c));
        }
        r.add_out_port(OutTarget::Eject(0), u32::MAX, 15);
        r
    }

    fn packet_flits(id: u64, len: u16) -> Vec<Flit> {
        let p = crate::flit::Packet { id, src: 0, dst: 1, len, created_at: 0 };
        (0..len).map(|seq| p.flit(seq)).collect()
    }

    fn collect(r: &Router, next: impl Fn(&VcSets, usize) -> Option<usize>) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(b) = next(&r.work, from) {
            out.push(r.vc_at(b));
            from = b + 1;
        }
        out
    }

    const ACTIVE: VcState = VcState::Active { out_port: 0, out_vc: 0, reader: 0, owner: 9 };
    const ROUTED: VcState = VcState::Routed { out_port: 0, vc_lo: 0, vc_hi: 4, reader: 0 };

    #[test]
    fn work_sets_size_to_ports_times_vcs() {
        let r = wide_router();
        assert_eq!(r.work.words.len(), 2);
        assert_eq!(r.audit_work_sets(), Ok(()));
        let mut one = Router::new(0, 255, 4, false);
        one.add_in_port(Upstream::Inject(0));
        assert_eq!(one.work.words.len(), 4, "255 VCs need four words");
    }

    #[test]
    fn vc_lifecycle_moves_between_sets() {
        let mut r = wide_router();
        let flits = packet_flits(9, 2);
        r.push_flit(12, 4, 3, flits[0]); // bit 64: second word
        r.push_flit(12, 4, 3, flits[1]);
        r.push_flit(12, 0, 3, packet_flits(5, 1)[0]); // bit 60: first word
        assert_eq!(collect(&r, VcSets::next_idle_head), [(12, 0), (12, 4)]);
        assert!(collect(&r, VcSets::next_routed).is_empty());

        r.set_vc_state(12, 4, ROUTED);
        assert_eq!(collect(&r, VcSets::next_idle_head), [(12, 0)]);
        assert_eq!(collect(&r, VcSets::next_routed), [(12, 4)]);

        r.set_vc_state(12, 4, ACTIVE);
        assert!(collect(&r, VcSets::next_routed).is_empty());
        assert_eq!(collect(&r, VcSets::next_active), [(12, 4)]);
        assert_eq!(r.audit_work_sets(), Ok(()));

        // Body flit: stays Active with one flit left.
        let (f, out_port, out_vc, _) = r.traverse_head(12, 4, 5);
        assert!(f.kind.is_head() && !f.kind.is_tail());
        assert_eq!((out_port, out_vc), (0, 0));
        assert_eq!(r.in_ports[12].vcs[4].stage_cycle, 5);
        assert_eq!(collect(&r, VcSets::next_active), [(12, 4)]);
        // Tail flit: back to Idle and empty, out of every set.
        let (f, ..) = r.traverse_head(12, 4, 6);
        assert!(f.kind.is_tail());
        assert_eq!(r.in_ports[12].vcs[4].state(), VcState::Idle);
        assert!(collect(&r, VcSets::next_active).is_empty());
        assert_eq!(collect(&r, VcSets::next_idle_head), [(12, 0)]);
        assert_eq!(r.audit_work_sets(), Ok(()));
    }

    #[test]
    fn retain_and_load_keep_sets_exact() {
        let mut r = wide_router();
        for f in packet_flits(1, 3) {
            r.push_flit(14, 2, 0, f);
        }
        assert_eq!(r.retain_flits(14, 2, |f| f.seq != 1), 1);
        assert_eq!(collect(&r, VcSets::next_idle_head), [(14, 2)]);
        assert_eq!(r.retain_flits(14, 2, |_| false), 2);
        assert!(collect(&r, VcSets::next_idle_head).is_empty());

        let buf = packet_flits(2, 2).into_iter().map(|f| (4, f)).collect();
        r.load_vc(0, 3, buf, ACTIVE);
        r.load_vc(13, 1, VecDeque::new(), ROUTED);
        assert_eq!(collect(&r, VcSets::next_active), [(0, 3)]);
        assert_eq!(collect(&r, VcSets::next_routed), [(13, 1)]);
        assert!(collect(&r, VcSets::next_idle_head).is_empty());
        r.load_vc(0, 3, VecDeque::new(), VcState::Idle);
        assert!(collect(&r, VcSets::next_active).is_empty());
        assert_eq!(r.audit_work_sets(), Ok(()));
    }

    #[test]
    fn audit_reports_a_stale_bit() {
        let mut r = wide_router();
        r.work.words[1].routed |= 1 << 3;
        let err = r.audit_work_sets().unwrap_err();
        assert!(err.contains("word 1"), "got: {err}");
    }

    /// VC `(pi, vi)` routed to output port `op`, VCs 0–3.
    fn route(r: &mut Router, pi: usize, vi: usize, op: PortId) {
        let state = VcState::Routed { out_port: op, vc_lo: 0, vc_hi: 3, reader: 0 };
        r.load_vc(pi, vi, packet_flits(pi as u64, 1).into_iter().map(|f| (0, f)).collect(), state);
    }

    #[test]
    fn parked_vcs_skip_vca_until_their_port_wakes() {
        let mut r = wide_router();
        r.add_out_port(OutTarget::Eject(1), u32::MAX, 15);
        route(&mut r, 12, 4, 0);
        route(&mut r, 3, 0, 1);
        route(&mut r, 14, 1, 1);
        r.park(12, 4, 0);
        r.park(3, 0, 1);
        assert_eq!(collect(&r, VcSets::next_routed), [(14, 1)]);
        assert_eq!(collect(&r, VcSets::next_parked), [(3, 0), (12, 4)]);
        assert_eq!(r.work.parked_count(), 2);
        assert_eq!(r.audit_work_sets(), Ok(()), "invariant 9 ignores parked");
        r.wake_port(1);
        assert_eq!(collect(&r, VcSets::next_routed), [(3, 0), (14, 1)]);
        assert_eq!(collect(&r, VcSets::next_parked), [(12, 4)]);
        r.wake_port(1);
        assert_eq!(r.work.parked_count(), 1, "a second wake finds nothing");
        r.wake_port(0);
        assert_eq!(collect(&r, VcSets::next_routed), [(3, 0), (12, 4), (14, 1)]);
        assert_eq!(r.work.parked_count(), 0);
    }

    #[test]
    fn leaving_routed_unparks() {
        let mut r = wide_router();
        route(&mut r, 12, 4, 0);
        r.park(12, 4, 0);
        r.set_vc_state(12, 4, ACTIVE);
        assert_eq!(r.work.parked_count(), 0);
        // Routed again (the next packet): visited by VCA, not parked.
        r.set_vc_state(12, 4, ROUTED);
        assert_eq!(collect(&r, VcSets::next_routed), [(12, 4)]);
        // The stale port-mask bit only causes a spurious wake.
        r.wake_port(0);
        assert_eq!(collect(&r, VcSets::next_routed), [(12, 4)]);
        r.park(12, 4, 0);
        r.forget_parks();
        assert_eq!(collect(&r, VcSets::next_routed), [(12, 4)]);
        assert_eq!(r.audit_work_sets(), Ok(()));
    }

    // ---- parking in a running network ----------------------------------

    /// Four writers (routers 1–4, one core each) share an MWSR bus into
    /// router 0. Every packet goes to core 0, so a writer's routed VCs
    /// keep finding the reader's VCs owned by another writer, and park.
    fn bus_contention_net() -> crate::Network {
        use crate::routing::{RouteDecision, TableRouting};
        use crate::{BusKind, LinkClass, NetworkBuilder, RouterConfig};
        let cfg = RouterConfig::default();
        let mut b = NetworkBuilder::new(5, 5, cfg);
        for r in 0..5 {
            b.attach_core(r, r);
        }
        let (_, writers, _) =
            b.add_bus(BusKind::Mwsr, &[1, 2, 3, 4], &[0], 2, 1, 1, LinkClass::Photonic);
        let mut table = vec![vec![RouteDecision::any_vc(0, cfg.vcs); 5]; 5];
        for (w, &p) in writers.iter().enumerate() {
            table[w + 1][0] = RouteDecision::any_vc(p, cfg.vcs);
        }
        let mut net = b.build(Box::new(TableRouting { table }));
        net.set_audit_interval(1);
        net
    }

    /// Offer one 4-flit packet per writer per cycle for `cycles` cycles.
    fn flood(net: &mut crate::Network, cycles: u64) {
        for _ in 0..cycles {
            for src in 1..5 {
                net.inject_packet(src, 0, 4);
            }
            net.step();
        }
    }

    fn parked(net: &crate::Network) -> u32 {
        net.routers.iter().map(|r| r.work.parked_count()).sum()
    }

    /// A cut taken with VCs parked resumes to the uninterrupted run's
    /// snapshot bytes: parks are not snapshotted, and the restored network
    /// starts with none.
    #[test]
    fn resume_from_a_cut_with_parked_vcs_matches_uninterrupted() {
        let mut a = bus_contention_net();
        flood(&mut a, 60);
        assert!(parked(&a) > 0, "the cut must hold parked VCs");
        let snap = a.snapshot();
        let mut b = bus_contention_net();
        b.restore(&snap).expect("restore");
        assert_eq!(parked(&b), 0, "parks are derived, not restored");
        for net in [&mut a, &mut b] {
            flood(net, 40);
            assert!(net.drain(20_000), "must drain");
        }
        assert_eq!(a.stats, b.stats);
        assert_eq!(format!("{:?}", a.snapshot()), format!("{:?}", b.snapshot()));
    }

    /// Deadlock recovery flushes packets while VCs are parked; it forgets
    /// every park, and the network still drains with every invariant held.
    #[test]
    fn recover_while_parked_then_drains() {
        let mut net = bus_contention_net();
        flood(&mut net, 60);
        assert!(parked(&net) > 0);
        let report = net.stall_report(net.now, false);
        let rec = net.recover(&report, 3);
        assert!(!rec.recovered.is_empty());
        assert_eq!(parked(&net), 0, "recovery forgets every park");
        net.check_invariants();
        assert!(net.drain(20_000), "must drain after recovery");
        net.check_invariants();
        assert_eq!(net.stats.recoveries, rec.recovered.len() as u64);
    }

    /// Invariant 10: a parked VC with a free output VC in range would
    /// never be retried by VCA.
    #[test]
    #[should_panic(expected = "has a free output VC 0")]
    fn parked_vc_with_a_free_output_vc_fails_the_invariant_audit() {
        let mut net = bus_contention_net();
        let r = &mut net.routers[1];
        // Port 1 is the bus writer (port 0 ejects). No flit is loaded, so
        // only the park breaks an invariant.
        let state = VcState::Routed { out_port: 1, vc_lo: 0, vc_hi: 3, reader: 0 };
        r.load_vc(0, 0, VecDeque::new(), state);
        r.park(0, 0, 1);
        net.check_invariants();
    }

    /// A bit flipped behind the engine's back fails `check_invariants`.
    #[test]
    #[should_panic(expected = "VC work sets diverged")]
    fn flipped_work_set_bit_fails_the_invariant_audit() {
        use crate::routing::{RouteDecision, TableRouting};
        use crate::{LinkClass, NetworkBuilder, RouterConfig};
        let mut b = NetworkBuilder::new(2, 2, RouterConfig::default());
        b.attach_core(0, 0);
        b.attach_core(1, 1);
        let (_, o01, _) = b.add_channel(0, 1, 2, 1, LinkClass::Photonic);
        let (_, o10, _) = b.add_channel(1, 0, 2, 1, LinkClass::Photonic);
        let table = vec![
            vec![RouteDecision::any_vc(0, 4), RouteDecision::any_vc(o01, 4)],
            vec![RouteDecision::any_vc(o10, 4), RouteDecision::any_vc(0, 4)],
        ];
        let mut net = b.build(Box::new(TableRouting { table }));
        for _ in 0..8 {
            net.inject_packet(0, 1, 3);
            net.inject_packet(1, 0, 2);
            net.step();
        }
        net.check_invariants();
        net.routers[1].work.words[0].active ^= 1 << 2;
        net.check_invariants();
    }
}
