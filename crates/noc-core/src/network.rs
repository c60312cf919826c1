//! The network: routers, channels, buses, NICs, and the per-cycle engine.
//!
//! [`Network::step`] advances one cycle through the following phases, in an
//! order chosen so that no flit advances more than one pipeline stage per
//! cycle (later stages run first; per-VC `stage_cycle` stamps enforce the
//! rest):
//!
//! 1. **deliver** — channels/buses land flits whose flight time expired into
//!    downstream input buffers; credits land at upstream ports/pools.
//! 2. **SA + ST/LT** — switch allocation (separable, round-robin) and
//!    traversal: winning flits leave input buffers, return a credit upstream
//!    and enter their output channel/bus or eject to the destination NIC.
//! 3. **VCA** — packets that have a route acquire an output virtual channel.
//! 4. **RC** — head flits at the front of idle VCs compute their route.
//! 5. **inject** — each NIC pushes at most one flit into its router's local
//!    input port, subject to credits.
//! 6. **end-of-cycle** — bus tokens advance toward requesting writers.

use crate::channel::{Bus, Channel};
use crate::fault::{FaultConfig, FaultCtx, FaultTarget};
use crate::flit::Packet;
use crate::ids::{BusId, ChannelId, CoreId, Cycle, RouterId};
use crate::nic::{Admission, Nic};
use crate::obs::{NocEvent, Observer};
use crate::par::{self, BoundaryOp, ParState, SensorSlices, ShardCtx, ShardPlan, ShardView};
use crate::router::{InPort, OutTarget, Router, Upstream, VcState};
use crate::routing::RoutingAlg;
use crate::sensors::LinkSensors;
use crate::stats::NetStats;
use crate::telemetry::{MetricsFrame, MetricsRegistry, Stage, StageProfiler};

/// A complete network instance plus its simulation state.
pub struct Network {
    /// Current cycle.
    pub now: Cycle,
    pub(crate) routers: Vec<Router>,
    pub(crate) channels: Vec<Channel>,
    pub(crate) buses: Vec<Bus>,
    pub(crate) nics: Vec<Nic>,
    /// Event counters and latency records.
    pub stats: NetStats,
    pub(crate) routing: Box<dyn RoutingAlg>,
    pub(crate) next_packet_id: u64,
    /// Scratch: SA candidates `(in_port, in_vc, out_port)` per router.
    scratch_cand: Vec<(usize, usize, usize)>,
    /// Scratch: SA stage-2 requester in-ports for one output port.
    scratch_req: Vec<usize>,
    /// Scratch: per-output-port "granted this pass" stamps, compared
    /// against `sa_stamp` so the buffer never needs clearing.
    scratch_op_stamp: Vec<u64>,
    /// Monotone stamp distinguishing SA stage-2 passes in
    /// `scratch_op_stamp`. Never reset; not part of any snapshot.
    sa_stamp: u64,
    /// Buffered flits per router, maintained at every buffer push/pop. A
    /// router with zero buffered flits has nothing to do in SA/VCA/RC
    /// (`Routed`/grantable VCs always hold a flit) and is skipped.
    pub(crate) router_flits: Vec<u32>,
    pub(crate) router_active: Vec<bool>,
    pub(crate) router_list: Vec<usize>,
    /// Channels with flits or credits in flight (delivery work list).
    pub(crate) chan_active: Vec<bool>,
    pub(crate) chan_list: Vec<usize>,
    /// Buses with flits or credits in flight (delivery work list).
    pub(crate) bus_active: Vec<bool>,
    pub(crate) bus_list: Vec<usize>,
    /// Buses needing end-of-cycle token/streak/observer processing: a
    /// writer requested the token this cycle, a request streak is still
    /// recorded, or an attached observer is tracking a busy window.
    pub(crate) bus_ec_active: Vec<bool>,
    pub(crate) bus_ec_list: Vec<usize>,
    /// NICs with a queued or partially streamed packet (inject work list).
    pub(crate) nic_active: Vec<bool>,
    pub(crate) nic_list: Vec<usize>,
    /// Packets offered but not yet fully injected, summed over all NICs:
    /// always equals [`Network::source_backlog`], maintained in O(1).
    pub(crate) total_backlog: u64,
    /// Attached event observer, if any. Event emission sites check this
    /// `Option` once and otherwise cost nothing; presence or absence of an
    /// observer never changes simulation behaviour or statistics.
    pub(crate) observer: Option<Box<dyn Observer>>,
    /// Fault-injection state, if a [`FaultConfig`] is attached. `None` (the
    /// default) costs one branch per phase; an attached-but-inert config
    /// (empty schedule, zero BER) draws no randomness and perturbs nothing,
    /// so results stay bit-identical to an unattached run.
    pub(crate) fault: Option<Box<FaultCtx>>,
    /// When non-zero, [`Network::check_invariants`] runs every this many
    /// cycles at the end of [`Network::step`] (in-run auditing; see
    /// [`Network::set_audit_interval`]).
    audit_every: u64,
    /// Link utilization sensors, enabled when the routing algorithm asks
    /// for them ([`RoutingAlg::sensor_window`]). `None` (the default) keeps
    /// the engine on its sensor-free fast path.
    pub(crate) sensors: Option<Box<LinkSensors>>,
    /// Per-stage wall-clock profiler, if attached. `None` (the default)
    /// means no clock reads in [`Network::step`]; attaching the profiler
    /// never changes simulation behaviour or statistics.
    profiler: Option<Box<StageProfiler>>,
    /// Spatial metrics registry, if attached. Purely observational:
    /// offered packets are counted into a cluster×cluster matrix and
    /// periodic frames snapshot engine counters; statistics are
    /// bit-identical with or without it.
    metrics: Option<Box<MetricsRegistry>>,
    /// Cooperative cancellation token, if a supervisor armed one. Step
    /// loop drivers ([`Network::try_drain`], `noc-sim`'s `Simulation`)
    /// poll it once per cycle and stop between cycles when it fires; the
    /// engine itself never aborts mid-cycle, so cancelled state is always
    /// a consistent cycle boundary. `None` (the default) costs nothing.
    cancel: Option<crate::cancel::CancelToken>,
    /// Cluster-sharded parallel stepping engine, when armed via
    /// [`Network::set_parallel`]. Runtime-only (never snapshotted); the
    /// serial path runs while a fault config or observer is attached —
    /// both demand the exact global event/RNG order — and results are
    /// bit-identical either way (see [`crate::par`]).
    pub(crate) par: Option<Box<ParState>>,
    /// Set by every serial step. The serial engine parks VCs bound for
    /// boundary buses, which the sharded engine never does (it would wake
    /// them one VCA too late), so its next step forgets every park first.
    pub(crate) stepped_serially: bool,
}

impl Network {
    pub(crate) fn from_parts(
        routers: Vec<Router>,
        channels: Vec<Channel>,
        buses: Vec<Bus>,
        nics: Vec<Nic>,
        routing: Box<dyn RoutingAlg>,
    ) -> Self {
        let stats = NetStats::new(routers.len(), channels.len(), buses.len(), nics.len());
        let sensors = routing
            .sensor_window()
            .map(|w| Box::new(LinkSensors::new(w, channels.len(), buses.len())));
        let (nr, nc, nb, nn) = (routers.len(), channels.len(), buses.len(), nics.len());
        Network {
            now: 0,
            routers,
            channels,
            buses,
            nics,
            stats,
            routing,
            next_packet_id: 0,
            scratch_cand: Vec::new(),
            scratch_req: Vec::new(),
            scratch_op_stamp: Vec::new(),
            sa_stamp: 0,
            router_flits: vec![0; nr],
            router_active: vec![false; nr],
            router_list: Vec::new(),
            chan_active: vec![false; nc],
            chan_list: Vec::new(),
            bus_active: vec![false; nb],
            bus_list: Vec::new(),
            bus_ec_active: vec![false; nb],
            bus_ec_list: Vec::new(),
            nic_active: vec![false; nn],
            nic_list: Vec::new(),
            total_backlog: 0,
            observer: None,
            fault: None,
            audit_every: 0,
            sensors,
            profiler: None,
            metrics: None,
            cancel: None,
            par: None,
            stepped_serially: false,
        }
    }

    /// Arm the cluster-sharded parallel engine: `threads` worker threads
    /// stepping per-cluster shards derived from `cluster_of_router` (the
    /// topology's cluster id per router, e.g.
    /// `noc-topology`'s `cluster_of`). Returns whether it armed.
    ///
    /// Arming fails — leaving the serial engine, never wrong results —
    /// when `threads <= 1`, when the layout cannot be sharded (see
    /// [`ShardPlan::derive`]), or when the thread pool cannot be built.
    /// Results are bit-identical to the serial engine at every thread
    /// count; see [`crate::par`] for the contract and its proof sketch.
    pub fn set_parallel(&mut self, threads: usize, cluster_of_router: &[u16]) -> bool {
        self.par = None;
        if threads <= 1 {
            return false;
        }
        let Some(plan) = ShardPlan::derive(self, cluster_of_router) else {
            return false;
        };
        let pool = par::ShardPool::new(threads);
        let shards = (0..plan.n_shards).map(|_| ShardCtx::default()).collect();
        self.par = Some(Box::new(ParState {
            plan,
            threads,
            shards,
            pool,
            bnd_work: Vec::new(),
            kept_bnd_chans: Vec::new(),
            kept_bnd_buses: Vec::new(),
            ec_bnd: Vec::new(),
        }));
        true
    }

    /// The armed parallel engine's `(shards, threads)`, if any.
    pub fn parallel_engine(&self) -> Option<(usize, usize)> {
        self.par.as_deref().map(|p| (p.plan.n_shards, p.threads))
    }

    /// Arm a cooperative cancellation token (see [`crate::cancel`]).
    /// Runtime-only supervision state: tokens are never part of a
    /// snapshot, and a restored network starts with whatever token its
    /// driver armed.
    pub fn set_cancel_token(&mut self, token: crate::cancel::CancelToken) {
        self.cancel = Some(token);
    }

    /// Whether the armed cancellation token (if any) has fired. Polled by
    /// step-loop drivers once per cycle: one relaxed atomic load, with
    /// the wall clock consulted every
    /// [`crate::cancel::DEADLINE_CHECK_MASK`]` + 1` cycles.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.expired_at(self.now))
    }

    /// Recompute every active-set work list and derived counter from the
    /// authoritative component state. Called after [`Network::restore`]
    /// (active sets are reconstructed, never trusted from the wire) — and
    /// usable from audits to cross-check the incrementally maintained
    /// state.
    pub(crate) fn rebuild_active_sets(&mut self) {
        let now = self.now;
        let has_obs = self.observer.is_some();
        // Parks are derived too: forgetting them only costs one retry each.
        self.forget_parks();
        self.total_backlog = self.nics.iter().map(|n| n.backlog() as u64).sum();
        self.router_list.clear();
        for (ri, r) in self.routers.iter().enumerate() {
            let flits = r.buffered_flits() as u32;
            self.router_flits[ri] = flits;
            self.router_active[ri] = flits > 0;
            if flits > 0 {
                self.router_list.push(ri);
            }
        }
        self.chan_list.clear();
        for (ci, ch) in self.channels.iter().enumerate() {
            let active = !ch.in_flight.is_empty() || !ch.credits_back.is_empty();
            self.chan_active[ci] = active;
            if active {
                self.chan_list.push(ci);
            }
        }
        self.bus_list.clear();
        self.bus_ec_list.clear();
        for (bi, b) in self.buses.iter().enumerate() {
            let active = !b.in_flight.is_empty() || !b.credits_back.is_empty();
            self.bus_active[bi] = active;
            if active {
                self.bus_list.push(bi);
            }
            let ec = b.want_since.iter().any(Option::is_some)
                || (has_obs && (b.obs_busy || b.is_busy(now)));
            self.bus_ec_active[bi] = ec;
            if ec {
                self.bus_ec_list.push(bi);
            }
        }
        self.nic_list.clear();
        for (ni, n) in self.nics.iter().enumerate() {
            let active = n.backlog() > 0;
            self.nic_active[ni] = active;
            if active {
                self.nic_list.push(ni);
            }
        }
    }

    /// Unpark every VC, in every router and bus.
    pub(crate) fn forget_parks(&mut self) {
        self.routers.iter_mut().for_each(Router::forget_parks);
        self.buses.iter_mut().for_each(Bus::forget_parks);
    }

    /// Run the full invariant audit every `every` cycles at the end of
    /// [`Network::step`] (0 — the default — disables it). Auditing is
    /// read-only: it panics on a violated invariant and otherwise changes
    /// nothing, so an audited run is bit-identical to an unaudited one.
    pub fn set_audit_interval(&mut self, every: u64) {
        self.audit_every = every;
    }

    /// Attach a fault-injection configuration (replacing any previous one).
    /// Scheduled faults fire on the cycles given in the schedule; the BER
    /// process applies from the next delivery onward.
    pub fn attach_faults(&mut self, cfg: FaultConfig) {
        self.fault = Some(Box::new(FaultCtx::new(cfg, self.channels.len(), self.buses.len())));
    }

    /// Attach an event observer (replacing any previous one). Events start
    /// flowing from the next emission site onward.
    pub fn set_observer(&mut self, obs: Box<dyn Observer>) {
        self.observer = Some(obs);
        // Seed busy-edge detection from the current medium state so the
        // first reported transition is a real one. A bus caught mid-busy
        // joins the end-of-cycle work list so its idle edge is reported.
        let now = self.now;
        for (bi, b) in self.buses.iter_mut().enumerate() {
            b.obs_busy = b.is_busy(now);
            if b.obs_busy && !self.bus_ec_active[bi] {
                self.bus_ec_active[bi] = true;
                self.bus_ec_list.push(bi);
            }
        }
    }

    /// Detach and return the observer; downcast it back to its concrete
    /// type with [`Observer::into_any`].
    pub fn take_observer(&mut self) -> Option<Box<dyn Observer>> {
        self.observer.take()
    }

    /// Whether an observer is currently attached.
    pub fn has_observer(&self) -> bool {
        self.observer.is_some()
    }

    /// The link utilization sensors, when the routing algorithm enabled
    /// them (see [`RoutingAlg::sensor_window`]).
    pub fn sensors(&self) -> Option<&LinkSensors> {
        self.sensors.as_deref()
    }

    /// Attach a per-stage profiler (replacing any previous one). Profiling
    /// starts from the next [`Network::step`].
    pub fn set_profiler(&mut self, p: StageProfiler) {
        self.profiler = Some(Box::new(p));
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&StageProfiler> {
        self.profiler.as_deref()
    }

    /// Detach and return the profiler.
    pub fn take_profiler(&mut self) -> Option<StageProfiler> {
        self.profiler.take().map(|b| *b)
    }

    /// Attach a spatial metrics registry (replacing any previous one).
    /// Offer counting and frame capture start immediately.
    pub fn attach_metrics(&mut self, reg: MetricsRegistry) {
        assert_eq!(
            reg.cluster_map().cluster_of_core.len(),
            self.nics.len(),
            "ClusterMap core count does not match the network"
        );
        assert_eq!(
            reg.cluster_map().cluster_of_router.len(),
            self.routers.len(),
            "ClusterMap router count does not match the network"
        );
        self.metrics = Some(Box::new(reg));
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_deref()
    }

    /// Mutable registry access for snapshot restore.
    pub(crate) fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.metrics.as_deref_mut()
    }

    /// Detach and return the metrics registry.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        self.metrics.take().map(|b| *b)
    }

    /// The router a core's NIC injects into (spatial attribution helper).
    pub fn core_router(&self, core: CoreId) -> RouterId {
        self.nics[core as usize].router
    }

    /// Access a NIC (e.g. to inspect its admission-control latch).
    pub fn nic(&self, core: CoreId) -> &Nic {
        &self.nics[core as usize]
    }

    /// Number of cores (NICs).
    pub fn num_cores(&self) -> usize {
        self.nics.len()
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.routers.len()
    }

    /// Access a router (for inspection in tests and power models).
    pub fn router(&self, id: u32) -> &Router {
        &self.routers[id as usize]
    }

    /// All channels (for power accounting: class per channel id).
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// All buses (for power accounting: class, discards).
    pub fn buses(&self) -> &[Bus] {
        &self.buses
    }

    /// Queue a packet of `len` flits from `src` to `dst` at the current
    /// cycle. Returns its packet id. With a bounded source queue
    /// ([`crate::RouterConfig::src_queue_cap`]) a full queue rejects the
    /// offer — counted in `NetStats::offers_rejected`, the returned id then
    /// unused; use [`Network::try_inject_packet`] to observe rejection.
    pub fn inject_packet(&mut self, src: CoreId, dst: CoreId, len: u16) -> u64 {
        let id = self.next_packet_id;
        let _ = self.try_inject_packet(src, dst, len);
        id
    }

    /// Queue a packet, or return `None` when the bounded source queue at
    /// `src` is full (a backpressure drop, counted in
    /// `NetStats::offers_rejected`).
    pub fn try_inject_packet(&mut self, src: CoreId, dst: CoreId, len: u16) -> Option<u64> {
        assert!(src != dst, "self-addressed packets are not modelled");
        assert!(len >= 1);
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        // Admission control runs before the capacity check: a throttled NIC
        // turns the offer away deliberately (counted as shed/deferred), a
        // full bounded queue rejects it as backpressure.
        let nic = &mut self.nics[src as usize];
        let throttled = nic.throttle.is_some();
        match nic.admission() {
            Admission::Admit => {}
            Admission::Shed => {
                self.stats.offers_shed += 1;
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_event(&NocEvent::OfferShed { at: self.now, core: src });
                }
                return None;
            }
            Admission::Defer => {
                self.stats.offers_deferred += 1;
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_event(&NocEvent::OfferDeferred { at: self.now, core: src });
                }
                return None;
            }
        }
        let p = Packet { id, src, dst, len, created_at: self.now };
        if !self.nics[src as usize].offer(p) {
            self.stats.offers_rejected += 1;
            return None;
        }
        self.stats.packets_offered += 1;
        self.total_backlog += 1;
        let ni = src as usize;
        if !self.nic_active[ni] {
            self.nic_active[ni] = true;
            self.nic_list.push(ni);
        }
        if throttled {
            self.stats.offers_admitted += 1;
        }
        if let Some(reg) = self.metrics.as_deref_mut() {
            reg.count_offer(src, dst);
        }
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_event(&NocEvent::PacketOffered { at: self.now, packet: id, src, dst, len });
        }
        Some(id)
    }

    /// Total packets queued at source NICs (offered but not yet injected).
    pub fn source_backlog(&self) -> usize {
        self.nics.iter().map(|n| n.backlog()).sum()
    }

    /// Deepest single source queue (hotspot indicator for sampling).
    pub fn max_source_backlog(&self) -> usize {
        self.nics.iter().map(|n| n.backlog()).max().unwrap_or(0)
    }

    /// True when no flit exists anywhere in the system. O(1): the source
    /// backlog is tracked incrementally (audited against
    /// [`Network::source_backlog`] by [`Network::check_invariants`]).
    pub fn quiescent(&self) -> bool {
        self.total_backlog == 0 && self.stats.flits_in_network() == 0
    }

    /// Advance one cycle.
    ///
    /// When the parallel engine is armed and neither a profiler, a fault
    /// config nor an observer is attached (the profiler times serial
    /// phases; the fault RNG draws in global medium order and observers
    /// demand the global event order), the cluster-sharded path runs;
    /// otherwise the serial path. Both produce bit-identical state and
    /// statistics.
    pub fn step(&mut self) {
        if self.profiler.is_none()
            && self.par.is_some()
            && self.fault.is_none()
            && self.observer.is_none()
        {
            if std::mem::take(&mut self.stepped_serially) {
                self.forget_parks();
            }
            self.step_par();
        } else {
            self.stepped_serially = true;
            self.step_serial();
        }
        if self.metrics.is_some() {
            self.metrics_tick();
        }
    }

    /// The serial cycle. With a profiler attached, each sampled cycle
    /// charges the wall time of every phase to its [`Stage`]; otherwise a
    /// [`Network::lap`] is one branch and no clock is read. Timing is pure
    /// observation — control flow and state updates are the same, so a
    /// profiled run stays bit-identical to an unprofiled one.
    fn step_serial(&mut self) {
        if let Some(prof) = self.profiler.as_deref_mut() {
            prof.begin_cycle(
                self.router_list.len(),
                self.chan_list.len(),
                self.bus_list.len(),
                self.nic_list.len(),
            );
        }
        self.now += 1;
        if self.fault.is_some() {
            self.fault_tick();
        }
        self.lap(Stage::Fault);
        self.deliver();
        self.lap(Stage::Deliver);
        self.sa_st();
        self.lap(Stage::SaSt);
        self.vca();
        self.lap(Stage::Vca);
        self.rc();
        self.lap(Stage::Rc);
        self.inject();
        self.lap(Stage::Inject);
        self.end_cycle_buses();
        self.lap(Stage::EndCycle);
        if self.sensors.is_some() {
            self.sensor_tick(self.now);
        }
        self.lap(Stage::Sensors);
        self.stats.cycles = self.now;
        if self.audit_every != 0 && self.now.is_multiple_of(self.audit_every) {
            self.check_invariants();
        }
        if let Some(prof) = self.profiler.as_deref_mut() {
            prof.end_cycle(self.now);
        }
    }

    /// Charge the time since the previous lap to `stage`, when a profiler
    /// is attached and timing this cycle.
    #[inline]
    fn lap(&mut self, stage: Stage) {
        if let Some(prof) = self.profiler.as_deref_mut() {
            prof.lap(stage);
        }
    }

    /// The cluster-sharded parallel cycle. Same phase semantics as
    /// [`Network::step_serial`], decomposed as: serial boundary-media
    /// delivery → parallel per-shard full cycles (local work only,
    /// boundary mutations deferred) → serial ordered replay of the
    /// deferred boundary work → serial boundary token movement → stat
    /// merge → sensors/audit. Bit-identical to the serial engine by the
    /// argument in [`crate::par`].
    fn step_par(&mut self) {
        let mut par = self.par.take().expect("step_par requires an armed engine");
        self.now += 1;
        let now = self.now;
        let nlc = par.plan.n_local_chans;
        let nlb = par.plan.n_local_buses;

        // Boundary pre-pass: land inter-cluster flits and credits before
        // the fork so every shard's SA sees them (delivery commutes
        // across media). Ascending id order, as the serial loop visits.
        par.kept_bnd_chans.clear();
        if !self.chan_list.is_empty() {
            self.chan_list.sort_unstable();
            let cut = self.chan_list.partition_point(|&ci| ci < nlc);
            par.bnd_work.clear();
            par.bnd_work.extend_from_slice(&self.chan_list[cut..]);
            self.chan_list.truncate(cut);
            for i in 0..par.bnd_work.len() {
                let ci = par.bnd_work[i];
                self.deliver_channel_nofault(ci, &mut par.kept_bnd_chans);
            }
        }
        par.kept_bnd_buses.clear();
        if !self.bus_list.is_empty() {
            self.bus_list.sort_unstable();
            let cut = self.bus_list.partition_point(|&bi| bi < nlb);
            par.bnd_work.clear();
            par.bnd_work.extend_from_slice(&self.bus_list[cut..]);
            self.bus_list.truncate(cut);
            for i in 0..par.bnd_work.len() {
                let bi = par.bnd_work[i];
                self.deliver_bus_nofault(bi, &mut par.kept_bnd_buses);
            }
        }

        // Sort the remaining global work lists and carve per-shard
        // segments at the shard id bounds. Every consuming phase sorts
        // its list first in the serial engine too, so pre-sorting here
        // changes nothing.
        self.router_list.sort_unstable();
        self.nic_list.sort_unstable();
        self.bus_ec_list.sort_unstable();
        let mut ec_bnd = std::mem::take(&mut par.ec_bnd);
        ec_bnd.clear();
        {
            let cut = self.bus_ec_list.partition_point(|&bi| bi < nlb);
            ec_bnd.extend_from_slice(&self.bus_ec_list[cut..]);
            self.bus_ec_list.truncate(cut);
        }

        {
            let ParState { plan, shards, pool, .. } = &mut *par;
            let Network {
                routers,
                channels,
                buses,
                nics,
                stats,
                routing,
                router_flits,
                router_active,
                router_list,
                chan_active,
                chan_list,
                bus_active,
                bus_list,
                bus_ec_active,
                bus_ec_list,
                nic_active,
                nic_list,
                sensors,
                ..
            } = &mut *self;
            let routing: &dyn RoutingAlg = &**routing;
            let measure_from = stats.measure_from;
            let (local_chans, bnd_chans) = channels.split_at_mut(nlc);
            let bnd_chans: &[Channel] = bnd_chans;
            let (local_buses, bnd_buses) = buses.split_at_mut(nlb);
            let bnd_buses: &[Bus] = bnd_buses;

            // Mutable cursors: each shard takes its exclusive slice.
            let mut routers_cur = &mut routers[..];
            let mut chans_cur = local_chans;
            let mut buses_cur = local_buses;
            let mut nics_cur = &mut nics[..];
            let mut rf_cur = &mut router_flits[..];
            let mut ra_cur = &mut router_active[..];
            let mut ca_cur = &mut chan_active[..];
            let mut ba_cur = &mut bus_active[..];
            let mut be_cur = &mut bus_ec_active[..];
            let mut na_cur = &mut nic_active[..];
            let mut bw_cur = &mut stats.buffer_writes[..];
            let mut rt_cur = &mut stats.router_traversals[..];
            let mut cf_cur = &mut stats.channel_flits[..nlc];
            let mut bf_cur = &mut stats.bus_flits[..nlb];
            let mut btw_cur = &mut stats.bus_token_wait[..nlb];
            let mut pce_cur = &mut stats.per_core_ejected[..];
            let (mut scb_cur, mut sbb_cur, mut sbw_cur) =
                match sensors.as_deref_mut().map(|s| s.accum_slices()) {
                    Some((cb, bb, bw)) => {
                        let (cbl, _) = cb.split_at_mut(nlc);
                        let (bbl, _) = bb.split_at_mut(nlb);
                        let (bwl, _) = bw.split_at_mut(nlb);
                        (Some(cbl), Some(bbl), Some(bwl))
                    }
                    None => (None, None, None),
                };
            let mut seg_r: &[usize] = router_list;
            let mut seg_c: &[usize] = chan_list;
            let mut seg_b: &[usize] = bus_list;
            let mut seg_n: &[usize] = nic_list;
            let mut seg_e: &[usize] = bus_ec_list;

            let mut views: Vec<ShardView<'_>> = Vec::with_capacity(plan.n_shards);
            for (s, ctx) in shards.iter_mut().enumerate() {
                let (rb, re) = (plan.router_start[s], plan.router_start[s + 1]);
                let (cb, ce) = (plan.chan_start[s], plan.chan_start[s + 1]);
                let (bb, be) = (plan.bus_start[s], plan.bus_start[s + 1]);
                let (nb, ne) = (plan.nic_start[s], plan.nic_start[s + 1]);
                views.push(ShardView {
                    now,
                    router_base: rb,
                    chan_base: cb,
                    bus_base: bb,
                    nic_base: nb,
                    n_local_chans: nlc,
                    n_local_buses: nlb,
                    routers: par::take_mut(&mut routers_cur, re - rb),
                    channels: par::take_mut(&mut chans_cur, ce - cb),
                    buses: par::take_mut(&mut buses_cur, be - bb),
                    nics: par::take_mut(&mut nics_cur, ne - nb),
                    router_flits: par::take_mut(&mut rf_cur, re - rb),
                    router_active: par::take_mut(&mut ra_cur, re - rb),
                    chan_active: par::take_mut(&mut ca_cur, ce - cb),
                    bus_active: par::take_mut(&mut ba_cur, be - bb),
                    bus_ec_active: par::take_mut(&mut be_cur, be - bb),
                    nic_active: par::take_mut(&mut na_cur, ne - nb),
                    buffer_writes: par::take_mut(&mut bw_cur, re - rb),
                    router_traversals: par::take_mut(&mut rt_cur, re - rb),
                    channel_flits: par::take_mut(&mut cf_cur, ce - cb),
                    bus_flits: par::take_mut(&mut bf_cur, be - bb),
                    bus_token_wait: par::take_mut(&mut btw_cur, be - bb),
                    per_core_ejected: par::take_mut(&mut pce_cur, ne - nb),
                    sensors: match (&mut scb_cur, &mut sbb_cur, &mut sbw_cur) {
                        (Some(scb), Some(sbb), Some(sbw)) => Some(SensorSlices {
                            chan_busy: par::take_mut(scb, ce - cb),
                            bus_busy: par::take_mut(sbb, be - bb),
                            bus_wait: par::take_mut(sbw, be - bb),
                        }),
                        _ => None,
                    },
                    bnd_chans,
                    bnd_buses,
                    routing,
                    measure_from,
                    seg_routers: par::take_list(&mut seg_r, re),
                    seg_chans: par::take_list(&mut seg_c, ce),
                    seg_buses: par::take_list(&mut seg_b, be),
                    seg_nics: par::take_list(&mut seg_n, ne),
                    seg_ec: par::take_list(&mut seg_e, be),
                    ctx,
                });
            }

            pool.run(&mut views);
            drop(views);

            // Merge: the next cycle's work lists are the concatenation of
            // per-shard keeps (disjoint id ranges) plus the boundary
            // keeps; consuming phases re-sort, so order is free.
            router_list.clear();
            chan_list.clear();
            bus_list.clear();
            nic_list.clear();
            bus_ec_list.clear();
            for ctx in shards.iter_mut() {
                router_list.append(&mut ctx.kept_routers);
                chan_list.append(&mut ctx.kept_chans);
                bus_list.append(&mut ctx.kept_buses);
                nic_list.append(&mut ctx.kept_nics);
                bus_ec_list.append(&mut ctx.kept_ec);
            }
        }
        self.chan_list.append(&mut par.kept_bnd_chans);
        self.bus_list.append(&mut par.kept_bnd_buses);

        // Ordered replay of deferred boundary work, shard-by-shard: shard
        // order is ascending router order, i.e. the serial engine's order.
        // All SA/ST-era ops replay before any VC allocation (the serial
        // phase barrier), then VCA intents, then speculative RC intents.
        for ctx in par.shards.iter_mut() {
            for op in ctx.ops.drain(..) {
                match op {
                    BoundaryOp::BusWant { bus, writer, reader, vc } => {
                        // Re-check credits against replay-time (= serial
                        // cycle-time) state; the frozen parallel read may
                        // only overestimate them.
                        let b = &mut self.buses[bus];
                        if b.credit(reader, vc) > 0 {
                            b.wants[writer as usize] = true;
                            if !self.bus_ec_active[bus] {
                                self.bus_ec_active[bus] = true;
                                ec_bnd.push(bus);
                            }
                        }
                    }
                    BoundaryOp::BusSend { bus, writer, reader, flit } => {
                        let vc = flit.vc;
                        let is_tail = flit.kind.is_tail();
                        let b = &mut self.buses[bus];
                        b.send(now, writer as usize, reader, flit);
                        self.stats.bus_flits[bus] += 1;
                        if !self.bus_active[bus] {
                            self.bus_active[bus] = true;
                            self.bus_list.push(bus);
                        }
                        if is_tail {
                            self.buses[bus].vc_owner[reader as usize][vc as usize] = None;
                        }
                        let ser = self.buses[bus].ser_cycles;
                        if let Some(s) = self.sensors.as_deref_mut() {
                            s.add_bus_busy(bus, ser);
                        }
                    }
                    BoundaryOp::BusCredit { bus, reader, vc } => {
                        self.buses[bus].send_credit(now, reader, vc);
                        if !self.bus_active[bus] {
                            self.bus_active[bus] = true;
                            self.bus_list.push(bus);
                        }
                    }
                    BoundaryOp::ChanSend { ch, flit } => {
                        let ser = self.channels[ch].ser_cycles;
                        self.channels[ch].send(now, flit);
                        self.stats.channel_flits[ch] += 1;
                        if !self.chan_active[ch] {
                            self.chan_active[ch] = true;
                            self.chan_list.push(ch);
                        }
                        if let Some(s) = self.sensors.as_deref_mut() {
                            s.add_chan_busy(ch, ser);
                        }
                    }
                    BoundaryOp::ChanCredit { ch, vc } => {
                        self.channels[ch].send_credit(now, vc);
                        if !self.chan_active[ch] {
                            self.chan_active[ch] = true;
                            self.chan_list.push(ch);
                        }
                    }
                }
            }
        }
        // Replayed allocations never park: a release that could wake them
        // (a replayed `BusSend` tail) lands after the shards' VCA, one VCA
        // too late. So no boundary-bound VC is ever parked here, and the
        // replayed `BusSend` above has nothing to wake.
        for ctx in par.shards.iter_mut() {
            for (gri, pi, vi) in ctx.vca_intents.drain(..) {
                try_vc_alloc(&mut self.routers[gri], &mut self.buses, 0, now, pi, vi, false, false);
            }
        }
        for ctx in par.shards.iter_mut() {
            for (gri, pi, vi) in ctx.rc_intents.drain(..) {
                try_vc_alloc(&mut self.routers[gri], &mut self.buses, 0, now, pi, vi, true, false);
            }
        }

        // Boundary end-of-cycle: token movement on inter-cluster buses.
        // Per-bus state is independent, so locals (in shards) and the
        // boundary tail (here) compose to the serial ascending sweep.
        ec_bnd.sort_unstable();
        for &bi in &ec_bnd {
            let b = &mut self.buses[bi];
            let handoff = b.end_cycle_frozen(now, false);
            if let Some(h) = handoff {
                self.stats.bus_token_wait[bi] += h.waited;
                if let Some(s) = self.sensors.as_deref_mut() {
                    s.add_bus_wait(bi, h.waited);
                }
            }
            if self.buses[bi].want_since.iter().any(Option::is_some) {
                self.bus_ec_list.push(bi);
            } else {
                self.bus_ec_active[bi] = false;
            }
        }
        ec_bnd.clear();
        par.ec_bnd = ec_bnd;

        // Delivery records (latency histograms) and scalar deltas, in
        // shard order; all-commutative adds on top of the shard slices.
        for ctx in par.shards.iter_mut() {
            for (core, created, injected) in ctx.delivered.drain(..) {
                self.stats.packet_delivered_full(core, created, injected, now + 1);
            }
            self.stats.flits_injected += ctx.d_flits_injected;
            self.stats.flits_ejected += ctx.d_flits_ejected;
            self.stats.measured_flits_ejected += ctx.d_measured;
            self.total_backlog -= ctx.d_backlog;
            ctx.d_flits_injected = 0;
            ctx.d_flits_ejected = 0;
            ctx.d_measured = 0;
            ctx.d_backlog = 0;
        }

        if self.sensors.is_some() {
            self.sensor_tick(now);
        }
        self.stats.cycles = now;
        self.par = Some(par);
        if self.audit_every != 0 && now.is_multiple_of(self.audit_every) {
            self.check_invariants();
        }
    }

    /// Boundary-channel delivery (serial pre-pass of [`Network::step_par`]):
    /// the fault- and observer-free mirror of the channel arm of
    /// [`Network::deliver`] for one channel; keepers go to `kept`.
    fn deliver_channel_nofault(&mut self, ci: usize, kept: &mut Vec<usize>) {
        let now = self.now;
        let Network {
            routers,
            channels,
            stats,
            router_flits,
            router_active,
            router_list,
            chan_active,
            ..
        } = &mut *self;
        let ch = &mut channels[ci];
        while ch.in_flight.front().is_some_and(|&(t, _)| t <= now) {
            let (_, flit) = ch.in_flight.pop_front().unwrap();
            let (r, p) = ch.dst;
            routers[r as usize].push_flit(p as usize, flit.vc as usize, now, flit);
            stats.buffer_writes[r as usize] += 1;
            router_flits[r as usize] += 1;
            if !router_active[r as usize] {
                router_active[r as usize] = true;
                router_list.push(r as usize);
            }
        }
        while ch.credits_back.front().is_some_and(|&(t, _)| t <= now) {
            let (_, vc) = ch.credits_back.pop_front().unwrap();
            let (r, p) = ch.src;
            routers[r as usize].out_ports[p as usize].vcs[vc as usize].credits += 1;
        }
        if !ch.in_flight.is_empty() || !ch.credits_back.is_empty() {
            kept.push(ci);
        } else {
            chan_active[ci] = false;
        }
    }

    /// Boundary-bus delivery (serial pre-pass): the fault- and
    /// observer-free mirror of the bus arm of [`Network::deliver`].
    fn deliver_bus_nofault(&mut self, bi: usize, kept: &mut Vec<usize>) {
        let now = self.now;
        let Network {
            routers,
            buses,
            stats,
            router_flits,
            router_active,
            router_list,
            bus_active,
            ..
        } = &mut *self;
        let bus = &mut buses[bi];
        while bus.in_flight.front().is_some_and(|&(t, _, _)| t <= now) {
            let (_, reader, flit) = bus.in_flight.pop_front().unwrap();
            let (r, p) = bus.readers[reader as usize];
            routers[r as usize].push_flit(p as usize, flit.vc as usize, now, flit);
            stats.buffer_writes[r as usize] += 1;
            router_flits[r as usize] += 1;
            if !router_active[r as usize] {
                router_active[r as usize] = true;
                router_list.push(r as usize);
            }
        }
        while bus.credits_back.front().is_some_and(|&(t, _, _)| t <= now) {
            let (_, reader, vc) = bus.credits_back.pop_front().unwrap();
            bus.credits[reader as usize][vc as usize] += 1;
        }
        if !bus.in_flight.is_empty() || !bus.credits_back.is_empty() {
            kept.push(bi);
        } else {
            bus_active[bi] = false;
        }
    }

    /// Capture a metrics frame when one is due this cycle.
    fn metrics_tick(&mut self) {
        let mut reg = self.metrics.take().expect("metrics_tick requires a registry");
        if reg.frame_due(self.now) {
            reg.push_frame(self.capture_frame(reg.cluster_map()));
        }
        self.metrics = Some(reg);
    }

    /// Snapshot the spatial gauges and counters into one frame. Read-only.
    fn capture_frame(&self, map: &crate::telemetry::ClusterMap) -> MetricsFrame {
        let nc = map.n_clusters;
        let mut cluster_buffered = vec![0u64; nc];
        for (ri, &flits) in self.router_flits.iter().enumerate() {
            cluster_buffered[map.cluster_of_router[ri] as usize] += u64::from(flits);
        }
        let mut cluster_backlog = vec![0u64; nc];
        for (ni, nic) in self.nics.iter().enumerate() {
            cluster_backlog[map.cluster_of_core[ni] as usize] += nic.backlog() as u64;
        }
        let mut cluster_delivered = vec![0u64; nc];
        for (ci, &pkts) in self.stats.per_core_packets.iter().enumerate() {
            cluster_delivered[map.cluster_of_core[ci] as usize] += pkts;
        }
        let bus_util = match self.sensors.as_deref() {
            Some(s) => s.bus_util().to_vec(),
            None => vec![0; self.buses.len()],
        };
        MetricsFrame {
            cycle: self.now,
            cluster_buffered,
            cluster_backlog,
            cluster_delivered,
            bus_flits: self.stats.bus_flits.clone(),
            bus_token_wait: self.stats.bus_token_wait.clone(),
            bus_util,
            offers_shed: self.stats.offers_shed,
            offers_deferred: self.stats.offers_deferred,
            flit_retransmits: self.stats.flit_retransmits,
            p50: self.stats.latency.quantile(0.5),
            p95: self.stats.latency.quantile(0.95),
            p99: self.stats.latency.quantile(0.99),
        }
    }

    /// End-of-cycle bus processing (token streaks/handoffs, sensor waits,
    /// observer busy/idle edges), restricted to the buses on the work
    /// list. For every other bus this phase is a proven no-op: with no
    /// request this cycle, no recorded streak, and no observed busy
    /// window, `end_cycle_frozen` mutates nothing and the token stays put.
    fn end_cycle_buses(&mut self) {
        if self.bus_ec_list.is_empty() {
            return;
        }
        let now = self.now;
        // Ascending bus order, as the dense loop visited them.
        self.bus_ec_list.sort_unstable();
        let has_obs = self.observer.is_some();
        let mut list = std::mem::take(&mut self.bus_ec_list);
        list.retain(|&bi| {
            let frozen = self.fault.as_deref().is_some_and(|c| c.token_frozen(bi, now));
            let b = &mut self.buses[bi];
            let handoff = b.end_cycle_frozen(now, frozen);
            if let Some(h) = handoff {
                self.stats.bus_token_wait[bi] += h.waited;
                if let Some(s) = self.sensors.as_deref_mut() {
                    s.add_bus_wait(bi, h.waited);
                }
            }
            if has_obs {
                // Busy/idle edge detection (wireless channel occupancy).
                let b = &mut self.buses[bi];
                let busy = b.is_busy(now);
                let edge = (b.obs_busy != busy).then_some(if busy {
                    NocEvent::BusBusy { at: now, bus: bi as BusId, until: b.busy_until }
                } else {
                    NocEvent::BusIdle { at: now, bus: bi as BusId }
                });
                b.obs_busy = busy;
                let obs = self.observer.as_deref_mut().unwrap();
                if let Some(h) = handoff {
                    obs.on_event(&NocEvent::TokenGranted {
                        at: now,
                        bus: bi as BusId,
                        writer: h.writer,
                        waited: h.waited,
                    });
                }
                if let Some(ev) = edge {
                    obs.on_event(&ev);
                }
            }
            let b = &self.buses[bi];
            let keep = b.want_since.iter().any(Option::is_some)
                || (has_obs && (b.obs_busy || b.is_busy(now)));
            if !keep {
                self.bus_ec_active[bi] = false;
            }
            keep
        });
        self.bus_ec_list = list;
    }

    /// Run `n` cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Run until quiescent or `max_cycles` more cycles elapse; returns true
    /// if the network drained. Boolean shorthand for [`Network::try_drain`],
    /// which additionally yields a structured [`crate::StallReport`] on
    /// failure — prefer it where the diagnosis matters (it also gives up
    /// early once the watchdog proves a live/deadlock, instead of burning
    /// the rest of the budget).
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        self.try_drain(max_cycles).is_ok()
    }

    /// End-of-cycle sensor fold plus controller tick: the sensors sample
    /// on their window boundary, then the routing algorithm sees the fresh
    /// utilization readings and may steer spare resources. Steering
    /// actions are surfaced as [`NocEvent::SpareSteered`] events.
    fn sensor_tick(&mut self, now: Cycle) {
        let Network { sensors, routing, .. } = self;
        let s = sensors.as_deref_mut().expect("sensor_tick requires sensors");
        s.maybe_sample(now);
        let actions = routing.util_tick(now, Some(s.chan_util()));
        for a in actions {
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_event(&NocEvent::SpareSteered {
                    at: now,
                    band: a.band,
                    channel: a.channel,
                    active: a.active,
                    protect: a.protect,
                });
            }
        }
    }

    // ---- phase 0: fault schedule -------------------------------------

    /// Activate scheduled faults due this cycle, report recoveries, and
    /// deliver delayed detection notices to the routing algorithm.
    fn fault_tick(&mut self) {
        let now = self.now;
        let Some(ctx) = self.fault.as_deref_mut() else { return };
        if ctx.idle() {
            return;
        }
        for ev in ctx.activate_due(now) {
            self.stats.first_fault_at.get_or_insert(now);
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_event(&NocEvent::LinkFailed {
                    at: now,
                    target: ev.target,
                    until: ev.until(),
                });
            }
        }
        for target in ctx.recovered_due(now) {
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_event(&NocEvent::LinkRecovered { at: now, target });
            }
        }
        for (target, up) in ctx.due_notices(now) {
            if self.routing.fault_notice(target, up) {
                self.stats.failovers += 1;
                self.stats.first_failover_at.get_or_insert(now);
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_event(&NocEvent::FailoverActivated { at: now, target, up });
                }
            }
        }
    }

    // ---- phase 1: link delivery --------------------------------------

    /// Fault check at the reader of a medium (CRC model), shared by the
    /// channel and bus delivery loops. Mutates the front in-flight entry:
    /// on a corruption within budget the arrival time is re-armed to the
    /// retransmission's arrival (stop-and-wait: later flits on the medium
    /// queue behind it) and the caller must stop delivering from this
    /// medium; on an exhausted budget the flit is poisoned and delivered
    /// anyway. Returns `true` when delivery from this medium must stop.
    #[allow(clippy::too_many_arguments)] // internal hot-path helper; splat of disjoint &mut fields
    fn fault_check(
        ctx: &mut FaultCtx,
        stats: &mut NetStats,
        observer: &mut Option<Box<dyn Observer>>,
        target: FaultTarget,
        arrival: &mut Cycle,
        flit: &mut crate::flit::Flit,
        rtt: u64,
        now: Cycle,
    ) -> bool {
        let corrupted = !flit.poisoned
            && match target {
                FaultTarget::Channel(c) => ctx.corrupts_channel(c as usize, now),
                FaultTarget::Bus(b) => ctx.corrupts_bus(b as usize, now),
                FaultTarget::TokenRing(_) => false,
            };
        if !corrupted {
            return false;
        }
        stats.flits_corrupted += 1;
        // Saturating: with `retry_limit == u8::MAX` a flit on a dead
        // medium retries forever (the counter must not overflow), and the
        // budget check below can then never exhaust.
        flit.retries = flit.retries.saturating_add(1);
        let retry = flit.retries;
        if let Some(obs) = observer.as_deref_mut() {
            obs.on_event(&NocEvent::FlitCorrupted {
                at: now,
                target,
                packet: flit.packet_id,
                seq: flit.seq,
                retry,
            });
        }
        if retry > ctx.cfg.retry_limit {
            // Budget exhausted: deliver the flit poisoned so flow control
            // stays intact; the destination drops the whole packet.
            flit.poisoned = true;
            ctx.poisoned.insert(flit.packet_id);
            return false;
        }
        // NACK + retransmission: the flit re-arrives one round trip (plus
        // exponential backoff) later; the medium FIFO blocks behind it.
        let resend_at = now + ctx.retry_delay(rtt, retry);
        *arrival = resend_at;
        stats.flit_retransmits += 1;
        if let Some(obs) = observer.as_deref_mut() {
            obs.on_event(&NocEvent::RetransmitScheduled {
                at: now,
                target,
                packet: flit.packet_id,
                seq: flit.seq,
                resend_at,
            });
        }
        true
    }

    /// Silent-corruption check at the reader of a medium, run after
    /// [`Network::fault_check`] passes a delivery. Models a bit flip that
    /// aliases past the link-level check: with the end-to-end CRC on the
    /// hop reader still catches it (the payload is never damaged) and the
    /// flit takes the same NACK/retransmit path as a link corruption; with
    /// it off the flit is mutated in place — a payload bit flips, or (for
    /// heads, occasionally) the destination field, misrouting the whole
    /// packet. Returns `true` when delivery from this medium must stop.
    #[allow(clippy::too_many_arguments)] // sibling of fault_check, same splat
    fn corruption_check(
        ctx: &mut FaultCtx,
        stats: &mut NetStats,
        observer: &mut Option<Box<dyn Observer>>,
        target: FaultTarget,
        arrival: &mut Cycle,
        flit: &mut crate::flit::Flit,
        rtt: u64,
        now: Cycle,
        num_cores: usize,
    ) -> bool {
        if flit.poisoned {
            return false;
        }
        let Some(r) = ctx.silent_corruption() else { return false };
        if ctx.cfg.e2e_crc {
            // Caught by the end-to-end payload CRC at this hop's reader:
            // NACK into the existing retransmit machinery, exactly like a
            // link-level corruption. The clean payload is retransmitted,
            // so delivered payloads stay provably clean.
            stats.corrupted_detected += 1;
            flit.retries = flit.retries.saturating_add(1);
            let retry = flit.retries;
            if let Some(obs) = observer.as_deref_mut() {
                obs.on_event(&NocEvent::CorruptionDetected {
                    at: now,
                    target,
                    packet: flit.packet_id,
                    seq: flit.seq,
                    retry,
                });
            }
            if retry > ctx.cfg.retry_limit {
                flit.poisoned = true;
                ctx.poisoned.insert(flit.packet_id);
                return false;
            }
            let resend_at = now + ctx.retry_delay(rtt, retry);
            *arrival = resend_at;
            stats.flit_retransmits += 1;
            if let Some(obs) = observer.as_deref_mut() {
                obs.on_event(&NocEvent::RetransmitScheduled {
                    at: now,
                    target,
                    packet: flit.packet_id,
                    seq: flit.seq,
                    resend_at,
                });
            }
            return true;
        }
        // End-to-end check off: the damage flows. A head flit occasionally
        // takes the flip in its destination field — downstream route
        // computation then steers the whole packet to the wrong core.
        let misroute = flit.kind.is_head()
            && (r & 0xF) == 0
            && num_cores > 1
            && !ctx.misrouted.contains_key(&flit.packet_id);
        if misroute {
            let mut new_dst = ((r >> 4) % num_cores as u64) as CoreId;
            if new_dst == flit.dst {
                new_dst = (new_dst + 1) % num_cores as CoreId;
            }
            ctx.misrouted.insert(flit.packet_id, flit.dst);
            flit.dst = new_dst;
        } else {
            flit.payload ^= 1 << (r % 64);
            ctx.corrupt.insert(flit.packet_id);
        }
        if let Some(obs) = observer.as_deref_mut() {
            obs.on_event(&NocEvent::FlitSilentlyCorrupted {
                at: now,
                target,
                packet: flit.packet_id,
                seq: flit.seq,
                misroute,
            });
        }
        false
    }

    fn deliver(&mut self) {
        let now = self.now;
        let num_cores = self.nics.len();
        // Only media with flits or credits in flight can deliver anything;
        // both work lists drain to empty queues. Ascending id order is
        // load-bearing: the shared fault RNG draws in medium order, and
        // observer events must appear in the dense loop's order.
        if !self.chan_list.is_empty() {
            self.chan_list.sort_unstable();
            let mut list = std::mem::take(&mut self.chan_list);
            list.retain(|&ci| {
                let Network {
                    routers,
                    channels,
                    stats,
                    fault,
                    observer,
                    router_flits,
                    router_active,
                    router_list,
                    chan_active,
                    ..
                } = &mut *self;
                let ch = &mut channels[ci];
                while ch.in_flight.front().is_some_and(|&(t, _)| t <= now) {
                    if let Some(ctx) = fault.as_deref_mut() {
                        let rtt = 2 * u64::from(ch.latency) + u64::from(ch.ser_cycles);
                        let front = ch.in_flight.front_mut().unwrap();
                        let (arrival, flit) = (&mut front.0, &mut front.1);
                        let target = FaultTarget::Channel(ci as ChannelId);
                        if Self::fault_check(ctx, stats, observer, target, arrival, flit, rtt, now)
                        {
                            break;
                        }
                        if Self::corruption_check(
                            ctx, stats, observer, target, arrival, flit, rtt, now, num_cores,
                        ) {
                            break;
                        }
                    }
                    let (_, flit) = ch.in_flight.pop_front().unwrap();
                    let (r, p) = ch.dst;
                    routers[r as usize].push_flit(p as usize, flit.vc as usize, now, flit);
                    stats.buffer_writes[r as usize] += 1;
                    router_flits[r as usize] += 1;
                    if !router_active[r as usize] {
                        router_active[r as usize] = true;
                        router_list.push(r as usize);
                    }
                }
                while ch.credits_back.front().is_some_and(|&(t, _)| t <= now) {
                    let (_, vc) = ch.credits_back.pop_front().unwrap();
                    let (r, p) = ch.src;
                    routers[r as usize].out_ports[p as usize].vcs[vc as usize].credits += 1;
                }
                let keep = !ch.in_flight.is_empty() || !ch.credits_back.is_empty();
                if !keep {
                    chan_active[ci] = false;
                }
                keep
            });
            self.chan_list = list;
        }
        if !self.bus_list.is_empty() {
            self.bus_list.sort_unstable();
            let mut list = std::mem::take(&mut self.bus_list);
            list.retain(|&bi| {
                let Network {
                    routers,
                    buses,
                    stats,
                    fault,
                    observer,
                    router_flits,
                    router_active,
                    router_list,
                    bus_active,
                    ..
                } = &mut *self;
                let bus = &mut buses[bi];
                while bus.in_flight.front().is_some_and(|&(t, _, _)| t <= now) {
                    if let Some(ctx) = fault.as_deref_mut() {
                        let rtt = 2 * u64::from(bus.latency) + u64::from(bus.ser_cycles);
                        let front = bus.in_flight.front_mut().unwrap();
                        let (arrival, flit) = (&mut front.0, &mut front.2);
                        let target = FaultTarget::Bus(bi as BusId);
                        if Self::fault_check(ctx, stats, observer, target, arrival, flit, rtt, now)
                        {
                            break;
                        }
                        if Self::corruption_check(
                            ctx, stats, observer, target, arrival, flit, rtt, now, num_cores,
                        ) {
                            break;
                        }
                    }
                    let (_, reader, flit) = bus.in_flight.pop_front().unwrap();
                    let (r, p) = bus.readers[reader as usize];
                    routers[r as usize].push_flit(p as usize, flit.vc as usize, now, flit);
                    stats.buffer_writes[r as usize] += 1;
                    router_flits[r as usize] += 1;
                    if !router_active[r as usize] {
                        router_active[r as usize] = true;
                        router_list.push(r as usize);
                    }
                }
                while bus.credits_back.front().is_some_and(|&(t, _, _)| t <= now) {
                    let (_, reader, vc) = bus.credits_back.pop_front().unwrap();
                    bus.credits[reader as usize][vc as usize] += 1;
                }
                let keep = !bus.in_flight.is_empty() || !bus.credits_back.is_empty();
                if !keep {
                    bus_active[bi] = false;
                }
                keep
            });
            self.bus_list = list;
        }
    }

    // ---- phase 2: switch allocation + traversal ----------------------

    fn sa_st(&mut self) {
        if self.router_list.is_empty() {
            return;
        }
        // Ascending router order is load-bearing: routers compete for bus
        // credits/tokens during traversal, and observer events must appear
        // in the dense loop's order. The list is compacted here (the only
        // phase that pops flits), so VCA/RC reuse it as-is afterwards.
        self.router_list.sort_unstable();
        let mut list = std::mem::take(&mut self.router_list);
        list.retain(|&ri| {
            self.sa_st_router(ri);
            let keep = self.router_flits[ri] > 0;
            if !keep {
                self.router_active[ri] = false;
            }
            keep
        });
        self.router_list = list;
    }

    /// Switch allocation + traversal for one router.
    fn sa_st_router(&mut self, ri: usize) {
        let now = self.now;
        let mut cand = std::mem::take(&mut self.scratch_cand);
        cand.clear();
        // SA stage 1: each input port nominates one eligible VC.
        {
            let Network { routers, buses, bus_ec_active, bus_ec_list, .. } = &mut *self;
            sa_nominate(&mut routers[ri], now, &mut cand, |bus, writer, reader, out_vc| {
                let b = &mut buses[bus as usize];
                // Only a writer that could actually make progress (has
                // downstream credits) requests the token; a credit-blocked
                // holder must release it, otherwise the classic
                // token-credit cycle deadlocks the bus: the blocked holder
                // fills the reader, whose drain waits on a packet whose
                // flits sit at another writer waiting for the token.
                let has_credit = b.credit(reader, out_vc) > 0;
                if has_credit {
                    b.wants[writer as usize] = true;
                    // A token request obliges end-of-cycle processing
                    // (streak bookkeeping, token movement) for this bus.
                    if !bus_ec_active[bus as usize] {
                        bus_ec_active[bus as usize] = true;
                        bus_ec_list.push(bus as usize);
                    }
                }
                has_credit && b.can_transmit(writer as usize, now)
            });
        }
        // SA stage 2: each output port grants one nominee; ST for winners.
        // Single pass over the candidates in first-occurrence output-port
        // order (the order the old retain-and-restart scan produced):
        // per-pass stamps skip ports already granted, and the requester
        // list reuses a persistent scratch buffer — no allocation, no
        // quadratic rescans.
        let mut req = std::mem::take(&mut self.scratch_req);
        self.sa_stamp += 1;
        let stamp = self.sa_stamp;
        let n_op = self.routers[ri].out_ports.len();
        if self.scratch_op_stamp.len() < n_op {
            self.scratch_op_stamp.resize(n_op, 0);
        }
        for i in 0..cand.len() {
            let op_idx = cand[i].2;
            if self.scratch_op_stamp[op_idx] == stamp {
                continue;
            }
            self.scratch_op_stamp[op_idx] = stamp;
            // All nominees for this port sit at or after `i` (each in-port
            // nominates at most once, and `i` is the first occurrence).
            req.clear();
            req.extend(cand[i..].iter().filter(|&&(_, _, op)| op == op_idx).map(|&(pi, _, _)| pi));
            // An empty or unmatched grant skips the port instead of
            // panicking (`req` always holds at least `cand[i]` here, but
            // the arbiter contract allows None).
            let arb = &mut self.routers[ri].out_ports[op_idx].sa_arb;
            let Some(winner_port) = arb.grant_among(&req) else { continue };
            let Some(&(_, vi, _)) =
                cand[i..].iter().find(|&&(pi, _, op)| pi == winner_port && op == op_idx)
            else {
                continue;
            };
            self.traverse(ri, winner_port, vi);
        }
        self.scratch_req = req;
        self.scratch_cand = cand;
    }

    /// Switch + link traversal for the winning `(in_port, in_vc)` at router
    /// `ri`.
    fn traverse(&mut self, ri: usize, pi: usize, vi: usize) {
        let now = self.now;
        let router = &mut self.routers[ri];
        let (mut flit, out_port, out_vc, reader) = router.traverse_head(pi, vi, now);
        let is_tail = flit.kind.is_tail();
        self.stats.router_traversals[ri] += 1;
        self.router_flits[ri] -= 1;

        // Return the freed buffer slot upstream.
        match router.in_ports[pi].upstream {
            Upstream::Channel(ch) => {
                self.channels[ch as usize].send_credit(now, vi as u8);
                let ci = ch as usize;
                if !self.chan_active[ci] {
                    self.chan_active[ci] = true;
                    self.chan_list.push(ci);
                }
            }
            Upstream::Bus { bus, reader } => {
                self.buses[bus as usize].send_credit(now, reader, vi as u8);
                let bi = bus as usize;
                if !self.bus_active[bi] {
                    self.bus_active[bi] = true;
                    self.bus_list.push(bi);
                }
            }
            Upstream::Inject(core) => {
                self.nics[core as usize].credits[vi] += 1;
            }
        }

        let op = &mut router.out_ports[out_port as usize];
        let target = op.target;
        flit.vc = out_vc;
        // The link-level retry budget is per hop; poisoning persists.
        flit.retries = 0;
        match target {
            OutTarget::Channel(ch) => {
                flit.hops += 1;
                op.vcs[out_vc as usize].credits -= 1;
                let ser = self.channels[ch as usize].ser_cycles;
                op.busy_until = now + u64::from(ser);
                let arrives = now + u64::from(self.channels[ch as usize].latency);
                self.channels[ch as usize].send(now, flit);
                self.stats.channel_flits[ch as usize] += 1;
                if !self.chan_active[ch as usize] {
                    self.chan_active[ch as usize] = true;
                    self.chan_list.push(ch as usize);
                }
                if let Some(s) = self.sensors.as_deref_mut() {
                    s.add_chan_busy(ch as usize, ser);
                }
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_event(&NocEvent::FlitChannel {
                        at: now,
                        channel: ch,
                        packet: flit.packet_id,
                        seq: flit.seq,
                        arrives,
                    });
                }
            }
            OutTarget::Bus { bus, writer } => {
                flit.hops += 1;
                let b = &mut self.buses[bus as usize];
                b.send(now, writer as usize, reader, flit);
                self.stats.bus_flits[bus as usize] += 1;
                if !self.bus_active[bus as usize] {
                    self.bus_active[bus as usize] = true;
                    self.bus_list.push(bus as usize);
                }
                if is_tail {
                    b.vc_owner[reader as usize][out_vc as usize] = None;
                }
                let busy_until = b.busy_until;
                let ser = b.ser_cycles;
                if let Some(s) = self.sensors.as_deref_mut() {
                    s.add_bus_busy(bus as usize, ser);
                }
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_event(&NocEvent::FlitBus {
                        at: now,
                        bus,
                        writer,
                        reader,
                        packet: flit.packet_id,
                        seq: flit.seq,
                        busy_until,
                    });
                }
            }
            OutTarget::Eject(core) => {
                op.busy_until = now + 1;
                self.stats.flits_ejected += 1;
                self.stats.per_core_ejected[core as usize] += 1;
                self.nics[core as usize].eject_flits += 1;
                if flit.created_at >= self.stats.measure_from {
                    self.stats.measured_flits_ejected += 1;
                }
                debug_assert!(
                    flit.dst == core
                        || self
                            .fault
                            .as_deref()
                            .is_some_and(|c| c.misrouted.contains_key(&flit.packet_id)),
                    "flit ejected at wrong core"
                );
                // Sink-side bookkeeping. A packet whose head's destination
                // was silently flipped ejects at the wrong core (misroute);
                // one any of whose flits was poisoned (exhausted retries)
                // fails the destination CRC and is discarded; one carrying
                // a silent payload flip is delivered but counted corrupt.
                let mut misrouted = false;
                let mut dropped = false;
                let mut was_corrupt = false;
                if let Some(ctx) = self.fault.as_deref_mut() {
                    // End-to-end audit: with corruption and the CRC both
                    // on, any flit whose stamp fails here slipped past the
                    // hop readers — surface it as a corrupted delivery
                    // rather than pretending the payload is clean.
                    if ctx.verifies_sink() && !crate::integrity::verify(&flit) {
                        ctx.corrupt.insert(flit.packet_id);
                    }
                    if is_tail {
                        misrouted = ctx.misrouted.remove(&flit.packet_id).is_some();
                        let poisoned = ctx.poisoned.remove(&flit.packet_id);
                        was_corrupt = ctx.corrupt.remove(&flit.packet_id);
                        dropped = poisoned && !misrouted;
                    }
                }
                if misrouted {
                    self.stats.misroutes += 1;
                } else if dropped {
                    self.stats.packets_dropped_corrupt += 1;
                }
                let delivered = is_tail && !dropped && !misrouted;
                if delivered {
                    if was_corrupt {
                        self.stats.corrupted_delivered += 1;
                    }
                    // +1 for the ejection link traversal.
                    self.stats.packet_delivered_full(
                        core,
                        flit.created_at,
                        flit.injected_at,
                        now + 1,
                    );
                }
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_event(&NocEvent::FlitEjected {
                        at: now,
                        core,
                        packet: flit.packet_id,
                        seq: flit.seq,
                    });
                    if delivered {
                        obs.on_event(&NocEvent::PacketDelivered {
                            at: now + 1,
                            packet: flit.packet_id,
                            dst: core,
                            latency: now + 1 - flit.created_at,
                        });
                    }
                }
            }
        }
        if is_tail {
            // Wake site 1: an output VC of this port is free again.
            router.out_ports[out_port as usize].vcs[out_vc as usize].holder = None;
            router.wake_port(out_port as usize);
            // Wake site 2: the tail released `vc_owner[reader][out_vc]`.
            if let OutTarget::Bus { bus, .. } = target {
                let routers = &mut self.routers;
                self.buses[bus as usize].wake_reader(reader, |(r, p)| {
                    routers[r as usize].wake_port(p as usize);
                });
            }
        }
    }

    // ---- phase 3: VC allocation --------------------------------------

    fn vca(&mut self) {
        let now = self.now;
        // On the profiler's timed cycles, count the allocation attempts and
        // the parked VCs VCA skipped.
        let counting = self.profiler.as_deref().is_some_and(StageProfiler::timing);
        let (mut attempts, mut parked) = (0u64, 0u64);
        // Only routers holding flits can have a `Routed` VC (routes are
        // computed on buffered heads, and the flits stay put until SA).
        let Network { routers, buses, router_list, .. } = &mut *self;
        for &ri in router_list.iter() {
            let router = &mut routers[ri];
            if counting {
                parked += u64::from(router.work.parked_count());
            }
            vca_router(router, now, |router, pi, vi| {
                attempts += 1;
                try_vc_alloc(router, buses, 0, now, pi, vi, false, true);
            });
        }
        if let Some(p) = self.profiler.as_deref_mut().filter(|_| counting) {
            p.count_vca(attempts, parked);
        }
    }

    // ---- phase 4: route computation ----------------------------------

    fn rc(&mut self) {
        let now = self.now;
        // Idle VCs with a buffered head exist only at routers on the work
        // list (a route needs a flit to route).
        let Network { routers, buses, routing, router_list, .. } = &mut *self;
        let routing = &**routing;
        for &ri in router_list.iter() {
            rc_router(&mut routers[ri], routing, now, |router, pi, vi| {
                try_vc_alloc(router, buses, 0, now, pi, vi, true, true);
            });
        }
    }

    // ---- phase 5: injection -------------------------------------------

    fn inject(&mut self) {
        if self.nic_list.is_empty() {
            return;
        }
        let now = self.now;
        // Ascending core order (observer event order); a NIC leaves the
        // list once its queue and streaming slot are both empty — an empty
        // NIC's `next_flit` is a no-op, so skipping it changes nothing.
        self.nic_list.sort_unstable();
        let mut list = std::mem::take(&mut self.nic_list);
        list.retain(|&ni| {
            let nic = &mut self.nics[ni];
            let (rid, in_port, core) = (nic.router as usize, nic.in_port as usize, nic.core);
            if let Some(flit) = nic.next_flit(now) {
                if flit.kind.is_tail() {
                    self.total_backlog -= 1;
                }
                self.routers[rid].push_flit(in_port, flit.vc as usize, now, flit);
                self.stats.flits_injected += 1;
                self.stats.buffer_writes[rid] += 1;
                self.router_flits[rid] += 1;
                if !self.router_active[rid] {
                    self.router_active[rid] = true;
                    self.router_list.push(rid);
                }
                if flit.kind.is_head() {
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.on_event(&NocEvent::PacketInjected {
                            at: now,
                            packet: flit.packet_id,
                            src: core,
                        });
                    }
                }
            }
            let nic = &self.nics[ni];
            let keep = !nic.queue.is_empty() || nic.streaming.is_some();
            if !keep {
                self.nic_active[ni] = false;
            }
            keep
        });
        self.nic_list = list;
    }
}

/// SA stage 1 for one router: every input port with an `Active` VC
/// nominates one eligible VC into `cand` as `(in_port, in_vc, out_port)`,
/// through its round-robin arbiter. Only `Active` VCs are visited — ports
/// in ascending order, each port's VCs in its arbiter's cyclic order — so
/// the nominees, the arbiter cursors and every `bus_ready` call match a
/// full port × VC scan. `bus_ready(bus, writer, reader, out_vc)` decides a
/// bus-bound VC's eligibility and makes its token request.
pub(crate) fn sa_nominate(
    router: &mut Router,
    now: Cycle,
    cand: &mut Vec<(usize, usize, usize)>,
    mut bus_ready: impl FnMut(BusId, u16, u16, u8) -> bool,
) {
    let nv = router.vcs as usize;
    let Router { in_ports, out_ports, work, .. } = router;
    let mut from = 0;
    while let Some(first) = work.next_active(from) {
        let pi = first / nv;
        let base = pi * nv;
        from = base + nv;
        let InPort { vcs, sa_vc_arb, .. } = &mut in_ports[pi];
        let nominee = sa_vc_arb.grant_sparse(
            |i| work.next_active(base + i).filter(|&b| b < base + nv).map(|b| b - base),
            |vi| {
                let vc = &vcs[vi];
                let VcState::Active { out_port, out_vc, reader, .. } = vc.state() else {
                    unreachable!("work set: active bit on a non-Active VC")
                };
                if vc.stage_cycle >= now {
                    return false;
                }
                let Some(&(arrived, _)) = vc.buf().front() else { return false };
                if arrived >= now {
                    return false;
                }
                let op = &out_ports[out_port as usize];
                match op.target {
                    OutTarget::Channel(_) => {
                        op.busy_until <= now && op.vcs[out_vc as usize].credits > 0
                    }
                    OutTarget::Eject(_) => op.busy_until <= now,
                    OutTarget::Bus { bus, writer } => bus_ready(bus, writer, reader, out_vc),
                }
            },
        );
        if let Some(vi) = nominee {
            let VcState::Active { out_port, .. } = vcs[vi].state() else { unreachable!() };
            cand.push((pi, vi, out_port as usize));
        }
    }
}

/// VCA for one router: `alloc(router, pi, vi)` for every `Routed` VC that
/// is not parked, in the old scan order — ports rotated to start at
/// `now % ports`, VCs ascending within a port.
pub(crate) fn vca_router(
    router: &mut Router,
    now: Cycle,
    mut alloc: impl FnMut(&mut Router, usize, usize),
) {
    let np = router.in_ports.len();
    if np == 0 {
        return;
    }
    // The rotating offset always equalled `now` (incremented once per
    // cycle from 0), so derive it instead of storing it — a skipped router
    // then stays in lockstep for free.
    let split = (now as usize % np) * router.vcs as usize;
    let mut from = split;
    while let Some(b) = router.work.next_routed(from) {
        let (pi, vi) = router.vc_at(b);
        alloc(router, pi, vi);
        from = b + 1;
    }
    let mut from = 0;
    while let Some(b) = router.work.next_routed(from).filter(|&b| b < split) {
        let (pi, vi) = router.vc_at(b);
        alloc(router, pi, vi);
        from = b + 1;
    }
}

/// RC for one router: route every idle VC whose head arrived before this
/// cycle, in ascending `(port, vc)` order. With speculation on,
/// `speculate(router, pi, vi)` then tries VCA in the same cycle.
pub(crate) fn rc_router(
    router: &mut Router,
    routing: &dyn RoutingAlg,
    now: Cycle,
    mut speculate: impl FnMut(&mut Router, usize, usize),
) {
    let rid = router.id;
    let mut from = 0;
    while let Some(b) = router.work.next_idle_head(from) {
        from = b + 1;
        let (pi, vi) = router.vc_at(b);
        let ivc = &router.in_ports[pi].vcs[vi];
        let &(arrived, head) = ivc.buf().front().expect("work set: head bit on an empty VC");
        if ivc.stage_cycle >= now || arrived >= now {
            continue;
        }
        debug_assert!(head.kind.is_head(), "non-head flit {head:?} at the front of an idle VC");
        let d = routing.route(rid, head.dst);
        debug_assert!(
            (d.out_port as usize) < router.out_ports.len(),
            "routing returned invalid port {} at router {rid}",
            d.out_port
        );
        router.set_vc_state(
            pi,
            vi,
            VcState::Routed {
                out_port: d.out_port,
                vc_lo: d.vc_lo,
                vc_hi: d.vc_hi,
                reader: d.bus_reader,
            },
        );
        router.in_ports[pi].vcs[vi].stage_cycle = now;
        if router.speculative {
            // Speculative VCA: claim an output VC in the same cycle when
            // one is free (stage_cycle stays `now`, so SA fires next cycle
            // — a 4-stage pipeline on the uncontended path).
            speculate(router, pi, vi);
        }
    }
}

/// Attempt VC allocation for the Routed input VC `(pi, vi)` of `router`.
///
/// Scans the admissible output-VC range for one that is free both locally
/// (no holder) and, for bus targets, at the bus level (no packet from any
/// writer owns the reader VC). `buses` holds bus ids from `bus_base` on
/// (a shard's local slice, or every bus with `bus_base == 0`). On success
/// the input VC becomes Active with `stage_cycle = now`. `same_cycle` skips
/// the one-stage-per-cycle guard — used by speculative RC+VCA, where both
/// stages legitimately share a cycle.
///
/// When every output VC in range is taken and `park` is set, the VC is
/// parked: marked on its output port and, for a bus, its writer marked on
/// the reader, so VCA skips it until a release there wakes it. A failed
/// attempt writes nothing else, so skipping it changes no result.
#[allow(clippy::too_many_arguments)] // hot-path helper shared by both engines
pub(crate) fn try_vc_alloc(
    router: &mut Router,
    buses: &mut [Bus],
    bus_base: usize,
    now: Cycle,
    pi: usize,
    vi: usize,
    same_cycle: bool,
    park: bool,
) {
    let ivc = &router.in_ports[pi].vcs[vi];
    let VcState::Routed { out_port, vc_lo, vc_hi, reader } = ivc.state() else {
        return;
    };
    if !same_cycle && ivc.stage_cycle >= now {
        return;
    }
    let target = router.out_ports[out_port as usize].target;
    let mut granted: Option<u8> = None;
    for ovc in vc_lo..=vc_hi {
        let free_local = router.out_ports[out_port as usize].vcs[ovc as usize].holder.is_none();
        if !free_local {
            continue;
        }
        let free_bus = match target {
            OutTarget::Bus { bus, .. } => {
                buses[bus as usize - bus_base].vc_owner[reader as usize][ovc as usize].is_none()
            }
            _ => true,
        };
        if free_bus {
            granted = Some(ovc);
            break;
        }
    }
    let Some(ovc) = granted else {
        if park {
            router.park(pi, vi, out_port as usize);
            if let OutTarget::Bus { bus, writer } = target {
                buses[bus as usize - bus_base].park_writer(reader, writer);
            }
        }
        return;
    };
    router.out_ports[out_port as usize].vcs[ovc as usize].holder = Some((pi as u16, vi as u8));
    if let OutTarget::Bus { bus, writer } = target {
        buses[bus as usize - bus_base].vc_owner[reader as usize][ovc as usize] = Some(writer);
    }
    // A Routed VC always buffers the head VCA is granting for (RC routes
    // only buffered heads, and flits leave only from Active VCs) — its
    // packet id identifies the allocation holder for deadlock recovery.
    let owner = router.in_ports[pi].vcs[vi].buf().front().map_or(u64::MAX, |&(_, f)| f.packet_id);
    debug_assert_ne!(owner, u64::MAX, "VCA granted a VC with no buffered head");
    router.set_vc_state(pi, vi, VcState::Active { out_port, out_vc: ovc, reader, owner });
    router.in_ports[pi].vcs[vi].stage_cycle = now;
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("now", &self.now)
            .field("routers", &self.routers.len())
            .field("channels", &self.channels.len())
            .field("buses", &self.buses.len())
            .field("cores", &self.nics.len())
            .finish()
    }
}
