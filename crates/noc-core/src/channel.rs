//! Physical interconnect media: point-to-point channels and shared buses.
//!
//! Three technologies appear in the reproduced architectures:
//!
//! * **Electrical** wires (CMESH links, intra-subnet crossbars) — energy
//!   grows with length, latency with distance.
//! * **Photonic** MWSR waveguides (OWN intra-cluster, OptXB, p-Clos) —
//!   distance-independent energy, token-arbitrated multi-writer media.
//! * **Wireless** OOK channels at 90–700 GHz (OWN inter-cluster/inter-group,
//!   wireless-CMESH) — single-hop distance-independent latency; in the
//!   1024-core OWN they are SWMR *multicast* media.
//!
//! A [`Channel`] is unidirectional point-to-point. A [`Bus`] is a shared
//! medium with several writer endpoints and one or more reader endpoints,
//! arbitrated by a [`TokenRing`]. Both carry flits with a fixed latency and
//! occupy their transmitter for `ser_cycles` per flit (serialization), which
//! is how bisection-bandwidth normalization is expressed (§V-A of the paper).

use std::collections::VecDeque;

use crate::flit::Flit;
use crate::ids::{Cycle, PortId, RouterId};
use crate::token::TokenRing;

/// Wireless link distance classes of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistanceClass {
    /// Corner-to-corner (diagonal), ~60 mm, link-distance factor 1.0.
    C2C,
    /// Edge-to-edge, ~30 mm, link-distance factor 0.5.
    E2E,
    /// Short range, ~10 mm, link-distance factor 0.15.
    SR,
}

impl DistanceClass {
    /// Link-distance (LD) power scaling factor from Table III.
    pub fn ld_factor(self) -> f64 {
        match self {
            DistanceClass::C2C => 1.0,
            DistanceClass::E2E => 0.5,
            DistanceClass::SR => 0.15,
        }
    }

    /// Nominal physical distance in millimetres (Table I).
    pub fn distance_mm(self) -> f64 {
        match self {
            DistanceClass::C2C => 60.0,
            DistanceClass::E2E => 30.0,
            DistanceClass::SR => 10.0,
        }
    }
}

/// Technology/medium of a link, used for statistics and power accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkClass {
    /// Metallic wire of the given length in millimetres.
    Electrical { length_mm: f64 },
    /// Photonic waveguide segment (distance-independent energy).
    Photonic,
    /// Wireless channel: `channel` is the band index (1-based as in
    /// Table III); `distance` selects the LD factor.
    Wireless { channel: u8, distance: DistanceClass },
}

/// One endpoint of a channel or bus: `(router, port)`.
pub type Endpoint = (RouterId, PortId);

/// A unidirectional point-to-point channel.
#[derive(Debug)]
pub struct Channel {
    /// Transmitting endpoint (router output port).
    pub src: Endpoint,
    /// Receiving endpoint (router input port).
    pub dst: Endpoint,
    /// Flight latency in cycles (≥1).
    pub latency: u32,
    /// Cycles the transmitter is occupied per flit (≥1); >1 models a
    /// narrower physical channel (bisection normalization).
    pub ser_cycles: u32,
    /// Medium classification for power accounting.
    pub class: LinkClass,
    /// Flits in flight: `(arrival_cycle, flit)`, ordered by arrival.
    pub(crate) in_flight: VecDeque<(Cycle, Flit)>,
    /// Credits in flight back to the transmitter: `(arrival_cycle, vc)`.
    pub(crate) credits_back: VecDeque<(Cycle, u8)>,
}

impl Channel {
    pub(crate) fn new(
        src: Endpoint,
        dst: Endpoint,
        latency: u32,
        ser_cycles: u32,
        class: LinkClass,
    ) -> Self {
        assert!(latency >= 1, "channel latency must be >= 1 cycle");
        assert!(ser_cycles >= 1, "serialization must be >= 1 cycle");
        Channel {
            src,
            dst,
            latency,
            ser_cycles,
            class,
            in_flight: VecDeque::new(),
            credits_back: VecDeque::new(),
        }
    }

    /// Place a flit on the wire at cycle `now`.
    #[inline]
    pub(crate) fn send(&mut self, now: Cycle, flit: Flit) {
        self.in_flight.push_back((now + u64::from(self.latency), flit));
    }

    /// Return a credit for `vc` to the transmitter at cycle `now`.
    #[inline]
    pub(crate) fn send_credit(&mut self, now: Cycle, vc: u8) {
        // Credits travel on a narrow sideband with the same latency.
        self.credits_back.push_back((now + u64::from(self.latency), vc));
    }
}

/// Kind of shared medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusKind {
    /// Multiple-writer single-reader photonic waveguide: many writers, one
    /// reader (the *home* tile), token-arbitrated (OWN intra-cluster, OptXB).
    Mwsr,
    /// Single-writer multiple-reader wireless multicast with a token rotating
    /// among candidate writers (OWN-1024 inter-group, §III-B). Every reader
    /// physically receives each flit; only the addressed reader buffers and
    /// forwards it, the rest discard (costing receiver energy, which is
    /// recorded in [`Bus::discards`]).
    SwmrMulticast,
}

/// A shared-medium bus.
#[derive(Debug)]
pub struct Bus {
    pub kind: BusKind,
    /// Writer endpoints (router output ports), indexed by writer id.
    pub writers: Vec<Endpoint>,
    /// Reader endpoints (router input ports). MWSR has exactly one.
    pub readers: Vec<Endpoint>,
    /// Flight latency in cycles.
    pub latency: u32,
    /// Transmitter occupancy per flit.
    pub ser_cycles: u32,
    /// Medium classification.
    pub class: LinkClass,
    /// Token among the writers.
    pub token: TokenRing,
    /// Cycle until which the medium itself is busy (one flit at a time).
    pub(crate) busy_until: Cycle,
    /// Shared credit pool: `credits[reader][vc]` — free buffer slots at the
    /// reader input port. Writers consult this (not a local mirror) because
    /// all writers share the same reader buffer.
    pub(crate) credits: Vec<Vec<u32>>,
    /// Flits in flight: `(arrival, reader_idx, flit)`.
    pub(crate) in_flight: VecDeque<(Cycle, u16, Flit)>,
    /// Credits returning to the shared pool: `(arrival, reader_idx, vc)`.
    pub(crate) credits_back: VecDeque<(Cycle, u16, u8)>,
    /// Which writer currently owns `(reader, vc)` for a packet in progress.
    /// Prevents two writers from interleaving flits of different packets in
    /// one reader buffer; claimed at VC allocation, released by the tail.
    pub(crate) vc_owner: Vec<Vec<Option<u16>>>,
    /// Token-request flags collected during switch allocation this cycle.
    pub(crate) wants: Vec<bool>,
    /// First cycle at which each writer started requesting the token in its
    /// current (uninterrupted) request streak — source of the token-wait
    /// duration reported on grant.
    pub(crate) want_since: Vec<Option<Cycle>>,
    /// Set when the holder transmitted this cycle.
    pub(crate) used_this_cycle: bool,
    /// Set when the holder transmitted a tail flit this cycle (pipelined
    /// token release).
    pub(crate) released_this_cycle: bool,
    /// Busy state last reported to the observer (edge detection for
    /// `BusBusy`/`BusIdle` events); maintained only while one is attached.
    pub(crate) obs_busy: bool,
    /// Flits discarded by non-addressed multicast receivers (for RX power).
    pub discards: u64,
    /// Writers with a VC parked on a reader's VCs, `writers.len() / 64`
    /// words (rounded up) per reader: bit `w` of reader `r`'s mask is set
    /// when writer `w`'s port parked a VC waiting on `vc_owner[r]`.
    /// Derived, never snapshotted; empty until the first park.
    parked_writers: Vec<u64>,
}

impl Bus {
    #[allow(clippy::too_many_arguments)] // internal constructor mirroring the builder's parameter list
    pub(crate) fn new(
        kind: BusKind,
        writers: Vec<Endpoint>,
        readers: Vec<Endpoint>,
        latency: u32,
        ser_cycles: u32,
        token_pass_latency: u32,
        class: LinkClass,
        vcs: u8,
        buf_depth: u32,
    ) -> Self {
        assert!(!writers.is_empty(), "bus needs at least one writer");
        assert!(!readers.is_empty(), "bus needs at least one reader");
        if kind == BusKind::Mwsr {
            assert_eq!(readers.len(), 1, "MWSR bus has exactly one reader");
        }
        assert!(latency >= 1 && ser_cycles >= 1);
        let n = writers.len();
        Bus {
            kind,
            writers,
            credits: vec![vec![buf_depth; vcs as usize]; readers.len()],
            vc_owner: vec![vec![None; vcs as usize]; readers.len()],
            readers,
            latency,
            ser_cycles,
            class,
            token: TokenRing::new(n, token_pass_latency),
            busy_until: 0,
            in_flight: VecDeque::new(),
            credits_back: VecDeque::new(),
            wants: vec![false; n],
            want_since: vec![None; n],
            used_this_cycle: false,
            released_this_cycle: false,
            obs_busy: false,
            discards: 0,
            parked_writers: Vec::new(),
        }
    }

    /// Mark writer `w` as having a VC parked on `reader`'s VCs.
    pub(crate) fn park_writer(&mut self, reader: u16, w: u16) {
        let words = self.writers.len().div_ceil(64);
        if self.parked_writers.is_empty() {
            self.parked_writers = vec![0; self.readers.len() * words];
        }
        self.parked_writers[reader as usize * words + w as usize / 64] |= 1 << (w % 64);
    }

    /// `vc_owner[reader][·]` was released: clear `reader`'s mask and call
    /// `wake(endpoint)` on every writer endpoint it marked.
    #[inline]
    pub(crate) fn wake_reader(&mut self, reader: u16, mut wake: impl FnMut(Endpoint)) {
        if self.parked_writers.is_empty() {
            return;
        }
        let words = self.writers.len().div_ceil(64);
        for w in 0..words {
            let mut mask = std::mem::take(&mut self.parked_writers[reader as usize * words + w]);
            while mask != 0 {
                wake(self.writers[w * 64 + mask.trailing_zeros() as usize]);
                mask &= mask - 1;
            }
        }
    }

    /// Whether writer `w` is marked on `reader`'s mask.
    pub(crate) fn writer_marked(&self, reader: u16, w: u16) -> bool {
        let words = self.writers.len().div_ceil(64);
        self.parked_writers
            .get(reader as usize * words + w as usize / 64)
            .is_some_and(|m| m & (1 << (w % 64)) != 0)
    }

    /// Clear every reader's mask.
    pub(crate) fn forget_parks(&mut self) {
        self.parked_writers.fill(0);
    }

    /// Whether writer `w` may transmit at `now`: token held, medium free.
    #[inline]
    pub(crate) fn can_transmit(&self, w: usize, now: Cycle) -> bool {
        self.token.holds(w, now) && now >= self.busy_until
    }

    /// Credits available for `(reader, vc)`.
    #[inline]
    pub(crate) fn credit(&self, reader: u16, vc: u8) -> u32 {
        self.credits[reader as usize][vc as usize]
    }

    /// Whether the medium is occupied by a transmission at cycle `now`.
    #[inline]
    pub fn is_busy(&self, now: Cycle) -> bool {
        self.busy_until > now
    }

    /// Transmit `flit` from writer `w` to `reader` at `now`.
    #[inline]
    pub(crate) fn send(&mut self, now: Cycle, w: usize, reader: u16, flit: Flit) {
        debug_assert!(self.can_transmit(w, now));
        debug_assert!(self.credit(reader, flit.vc) > 0);
        self.credits[reader as usize][flit.vc as usize] -= 1;
        self.busy_until = now + u64::from(self.ser_cycles);
        self.used_this_cycle = true;
        if flit.kind.is_tail() {
            self.released_this_cycle = true;
        }
        self.in_flight.push_back((now + u64::from(self.latency), reader, flit));
        if self.kind == BusKind::SwmrMulticast {
            // Every other reader's front-end receives and discards the flit.
            self.discards += (self.readers.len() - 1) as u64;
        }
    }

    /// Return a credit for `(reader, vc)` to the shared pool at cycle `now`.
    #[inline]
    pub(crate) fn send_credit(&mut self, now: Cycle, reader: u16, vc: u8) {
        self.credits_back.push_back((now + u64::from(self.latency), reader, vc));
    }

    /// End-of-cycle: advance the token and reset per-cycle flags. A tail
    /// transmission releases the token in the same cycle (pipelined
    /// handoff); otherwise the token moves only when the holder is idle.
    ///
    /// Returns the token handoff performed this cycle, if any, with the
    /// grantee's accumulated wait — consumed by the observability layer.
    /// Token movement itself is unaffected by whether anyone listens.
    ///
    /// The engine's hot path calls [`Bus::end_cycle_frozen`] directly (it
    /// threads the fault-schedule freeze flag through); this convenience
    /// wrapper remains for unit tests.
    #[cfg(test)]
    pub(crate) fn end_cycle(&mut self, now: Cycle) -> Option<TokenHandoff> {
        self.end_cycle_frozen(now, false)
    }

    /// [`Bus::end_cycle`] with an optional **frozen token**: while `frozen`
    /// (a scheduled token-ring fault, see `crate::fault`), the token stays
    /// with its current holder — the holder may keep transmitting, but the
    /// ring performs no advance, release, or handoff. Request streaks and
    /// per-cycle flags are still maintained so arbitration resumes cleanly
    /// when the ring thaws.
    pub(crate) fn end_cycle_frozen(&mut self, now: Cycle, frozen: bool) -> Option<TokenHandoff> {
        // Track uninterrupted request streaks: a writer that requested this
        // cycle keeps (or starts) its streak; one that did not forfeits it.
        for (w, &wanted) in self.wants.iter().enumerate() {
            if wanted {
                self.want_since[w].get_or_insert(now);
            } else {
                self.want_since[w] = None;
            }
        }
        if frozen {
            self.wants.iter_mut().for_each(|w| *w = false);
            self.used_this_cycle = false;
            self.released_this_cycle = false;
            return None;
        }
        let prev_holder = self.token.holder();
        let wants = std::mem::take(&mut self.wants);
        if self.released_this_cycle {
            self.token.release(now, |w| wants[w]);
        } else {
            self.token.advance(now, self.used_this_cycle, |w| wants[w]);
        }
        self.wants = wants;
        self.wants.iter_mut().for_each(|w| *w = false);
        self.used_this_cycle = false;
        self.released_this_cycle = false;
        let holder = self.token.holder();
        if holder != prev_holder {
            let waited = now - self.want_since[holder].take().unwrap_or(now);
            Some(TokenHandoff { writer: holder as u16, waited })
        } else {
            None
        }
    }
}

/// A completed token handoff: the grantee and how long it had been asking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenHandoff {
    /// Writer index (within the bus) that received the token.
    pub writer: u16,
    /// Cycles the grantee spent requesting before the grant.
    pub waited: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Packet;

    fn flit() -> Flit {
        Packet { id: 1, src: 0, dst: 1, len: 1, created_at: 0 }.flit(0)
    }

    #[test]
    fn distance_class_factors_match_table_iii() {
        assert_eq!(DistanceClass::C2C.ld_factor(), 1.0);
        assert_eq!(DistanceClass::E2E.ld_factor(), 0.5);
        assert_eq!(DistanceClass::SR.ld_factor(), 0.15);
        assert_eq!(DistanceClass::C2C.distance_mm(), 60.0);
    }

    #[test]
    fn channel_delivers_after_latency() {
        let mut c = Channel::new((0, 0), (1, 0), 3, 1, LinkClass::Photonic);
        c.send(10, flit());
        assert_eq!(c.in_flight.front().unwrap().0, 13);
    }

    #[test]
    fn bus_send_consumes_credit_and_occupies_medium() {
        let mut b = Bus::new(
            BusKind::Mwsr,
            vec![(0, 0), (1, 0)],
            vec![(2, 0)],
            2,
            2,
            1,
            LinkClass::Photonic,
            4,
            4,
        );
        assert!(b.can_transmit(0, 0));
        assert_eq!(b.credit(0, 0), 4);
        b.send(0, 0, 0, flit());
        assert_eq!(b.credit(0, 0), 3);
        assert!(!b.can_transmit(0, 1), "medium busy during serialization");
        assert!(b.can_transmit(0, 2));
        assert_eq!(b.in_flight.front().unwrap().0, 2);
    }

    #[test]
    fn multicast_counts_discards_at_other_readers() {
        let mut b = Bus::new(
            BusKind::SwmrMulticast,
            vec![(0, 0)],
            vec![(1, 0), (2, 0), (3, 0), (4, 0)],
            1,
            1,
            1,
            LinkClass::Wireless { channel: 1, distance: DistanceClass::C2C },
            4,
            4,
        );
        b.send(0, 0, 2, flit());
        assert_eq!(b.discards, 3);
    }

    #[test]
    fn mwsr_requires_single_reader() {
        let r = std::panic::catch_unwind(|| {
            Bus::new(
                BusKind::Mwsr,
                vec![(0, 0)],
                vec![(1, 0), (2, 0)],
                1,
                1,
                1,
                LinkClass::Photonic,
                4,
                4,
            )
        });
        assert!(r.is_err());
    }

    #[test]
    fn token_rotates_when_holder_idle() {
        let mut b = Bus::new(
            BusKind::Mwsr,
            vec![(0, 0), (1, 0), (2, 0)],
            vec![(3, 0)],
            1,
            1,
            0,
            LinkClass::Photonic,
            4,
            4,
        );
        b.wants[2] = true;
        b.end_cycle(0);
        assert!(b.can_transmit(2, 1));
        assert!(!b.can_transmit(0, 1));
    }

    #[test]
    fn frozen_token_does_not_move() {
        let mut b = Bus::new(
            BusKind::Mwsr,
            vec![(0, 0), (1, 0), (2, 0)],
            vec![(3, 0)],
            1,
            1,
            0,
            LinkClass::Photonic,
            4,
            4,
        );
        b.wants[2] = true;
        assert_eq!(b.end_cycle_frozen(0, true), None);
        assert!(b.can_transmit(0, 1), "holder keeps the token while frozen");
        assert!(!b.can_transmit(2, 1));
        // Thaw: the still-requesting writer gets the token, with its wait
        // streak preserved across the freeze.
        b.wants[2] = true;
        let h = b.end_cycle_frozen(1, false).expect("handoff after thaw");
        assert_eq!(h.writer, 2);
        assert_eq!(h.waited, 1);
    }

    #[test]
    fn token_handoff_reports_wait_duration() {
        let mut b = Bus::new(
            BusKind::Mwsr,
            vec![(0, 0), (1, 0), (2, 0)],
            vec![(3, 0)],
            1,
            1,
            0,
            LinkClass::Photonic,
            4,
            4,
        );
        // Writer 2 requests while holder 0 keeps transmitting for 3 cycles.
        for now in 0..3 {
            b.wants[0] = true;
            b.wants[2] = true;
            b.used_this_cycle = true;
            assert_eq!(b.end_cycle(now), None, "token must not move while used");
        }
        // Holder goes idle: token moves to writer 2, which waited since 0.
        b.wants[2] = true;
        let h = b.end_cycle(3).expect("handoff expected");
        assert_eq!(h.writer, 2);
        assert_eq!(h.waited, 3);
    }

    #[test]
    fn interrupted_request_streak_resets_wait() {
        let mut b = Bus::new(
            BusKind::Mwsr,
            vec![(0, 0), (1, 0)],
            vec![(2, 0)],
            1,
            1,
            0,
            LinkClass::Photonic,
            4,
            4,
        );
        // Writer 1 asks at cycle 0 while the holder transmits, then stops
        // asking at cycle 1, then asks again at cycle 2 with the holder idle.
        b.wants[0] = true;
        b.wants[1] = true;
        b.used_this_cycle = true;
        assert_eq!(b.end_cycle(0), None);
        assert_eq!(b.end_cycle(1), None);
        b.wants[1] = true;
        let h = b.end_cycle(2).expect("handoff expected");
        assert_eq!(h.writer, 1);
        assert_eq!(h.waited, 0, "streak was interrupted at cycle 1");
    }

    #[test]
    fn is_busy_follows_serialization() {
        let mut b =
            Bus::new(BusKind::Mwsr, vec![(0, 0)], vec![(1, 0)], 1, 3, 0, LinkClass::Photonic, 4, 4);
        assert!(!b.is_busy(0));
        b.send(0, 0, 0, flit());
        assert!(b.is_busy(0));
        assert!(b.is_busy(2));
        assert!(!b.is_busy(3));
    }
}
