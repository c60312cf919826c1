//! Cluster-sharded parallel stepping engine.
//!
//! The OWN topologies are hierarchical: all traffic between clusters funnels
//! through a small set of shared wireless/photonic media, while everything
//! else (routers, NICs, intra-cluster waveguides) touches only state inside
//! one cluster. This module exploits that structure: the network is
//! partitioned into per-cluster **shards** that step one full cycle each on
//! a persistent worker pool ([`ShardPool`]), synchronizing only at the
//! inter-cluster boundary.
//!
//! # Bit-identity contract
//!
//! `Network::step_par` must be indistinguishable from `Network::step_serial`
//! — identical `NetStats` (including latency histograms), identical
//! component state, and therefore byte-identical snapshots — for every
//! thread count and every thread interleaving. The contract is kept by
//! construction, not by tolerance:
//!
//! * **Shard-local work is serial-identical.** Within a shard, routers are
//!   visited in ascending id order, exactly the order the serial engine's
//!   sorted work lists produce, and shards own disjoint id ranges; so the
//!   concatenation of shard results in shard order equals the serial sweep.
//! * **Boundary state is frozen during the parallel section.** Media whose
//!   endpoints span shards are delivered *before* the fork (delivery
//!   commutes across media: distinct media feed distinct input ports) and
//!   are only *read* inside it. Every mutation a shard would perform on a
//!   boundary medium is recorded as a [`BoundaryOp`] and replayed serially
//!   afterwards, in shard (= ascending router) order — the serial order.
//! * **Reads of frozen boundary state are provably serial-equal.** The only
//!   cross-shard reads are SA eligibility (`has_credit && can_transmit`)
//!   and VC-allocation probes. `can_transmit` requires holding the bus
//!   token, which exactly one writer does per cycle, and that writer's
//!   output port sends at most one flit per cycle — so no earlier-in-cycle
//!   send can precede any reader's eligibility probe of the same bus.
//!   Credit-dependent *side effects* (token requests) are not trusted to
//!   the frozen read: a [`BoundaryOp::BusWant`] re-checks credits against
//!   replay-time (= serial-time) state. VC allocations on boundary buses
//!   are deferred entirely ([`ShardCtx::vca_intents`]) because `vc_owner`
//!   slots genuinely interleave across shards.
//! * **Scalar counters merge commutatively or by ordered replay.** Latency
//!   histograms replay per delivered packet in shard order; plain sums are
//!   accumulated per shard and added once.
//!
//! Faults and observers serialize the engine (`Network::step` falls back to
//! the serial path while either is attached): the fault RNG draws in global
//! medium order and observers demand the exact global event order, both of
//! which a fork would have to reproduce token-for-token anyway. All other
//! features — sensors, throttling, adaptive reconfig, metrics, audits,
//! checkpoints — compose with the parallel path.

use crate::channel::{Bus, Channel};
use crate::flit::Flit;
use crate::ids::{CoreId, Cycle};
use crate::network::{rc_router, sa_nominate, try_vc_alloc, vca_router, Network};
use crate::nic::Nic;
use crate::router::{OutTarget, Router, Upstream, VcState};
use crate::routing::RoutingAlg;

/// How the network decomposes into independently steppable shards.
///
/// Component ids are contiguous per shard (`*_start` arrays have
/// `n_shards + 1` entries, Fortran-style bounds); media are split into a
/// **local** prefix (endpoints within one shard) and a **boundary** tail
/// (everything else — inter-cluster wireless/photonic planes, token rings,
/// spare bands). Derivation is conservative: any layout this partition
/// cannot express falls back to the serial engine rather than bending the
/// contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of shards (= clusters in the topology's cluster map).
    pub n_shards: usize,
    /// Router id bounds per shard (`len == n_shards + 1`).
    pub router_start: Vec<usize>,
    /// NIC/core id bounds per shard.
    pub nic_start: Vec<usize>,
    /// Local-channel id bounds per shard (`chan_start[n] == n_local_chans`).
    pub chan_start: Vec<usize>,
    /// Local-bus id bounds per shard (`bus_start[n] == n_local_buses`).
    pub bus_start: Vec<usize>,
    /// Channels `0..n_local_chans` are shard-local; the rest are boundary.
    pub n_local_chans: usize,
    /// Buses `0..n_local_buses` are shard-local; the rest are boundary.
    pub n_local_buses: usize,
}

impl ShardPlan {
    /// Derive a plan from a per-router cluster map, or `None` when the
    /// layout cannot be sharded (ids not cluster-contiguous, a "local"
    /// medium crossing shards, a NIC attached across clusters, a single
    /// cluster). `None` means the serial engine runs — never wrong, only
    /// slower.
    pub fn derive(net: &Network, cluster_of_router: &[u16]) -> Option<ShardPlan> {
        if cluster_of_router.len() != net.routers.len() || cluster_of_router.is_empty() {
            return None;
        }
        // Cluster ids must be 0..n, non-decreasing over router ids, so that
        // each shard owns one contiguous router range.
        if cluster_of_router[0] != 0 {
            return None;
        }
        let mut router_start = vec![0usize];
        let mut cur = 0u16;
        for (ri, &c) in cluster_of_router.iter().enumerate() {
            if c == cur + 1 {
                router_start.push(ri);
                cur = c;
            } else if c != cur {
                return None;
            }
        }
        router_start.push(cluster_of_router.len());
        let n_shards = cur as usize + 1;
        if n_shards <= 1 {
            return None;
        }
        let shard_of = |r: usize| cluster_of_router[r] as usize;

        // NICs must follow their router's shard, contiguously.
        let mut nic_start = vec![0usize; n_shards + 1];
        let mut prev = 0usize;
        for (ni, nic) in net.nics.iter().enumerate() {
            if nic.router as usize >= cluster_of_router.len() {
                return None;
            }
            let s = shard_of(nic.router as usize);
            if s < prev {
                return None;
            }
            nic_start[prev + 1..=s].iter_mut().for_each(|b| *b = ni);
            prev = s;
        }
        nic_start[prev + 1..=n_shards].iter_mut().for_each(|b| *b = net.nics.len());

        // Media: the maximal prefix of shard-internal, shard-ordered media
        // is local; everything after takes the boundary path. Treating an
        // intra-shard medium as boundary is always correct (just slower),
        // so an interleaved layout degrades instead of failing.
        let mut chan_start = vec![0usize; n_shards + 1];
        let mut n_local_chans = 0;
        let mut prev = 0usize;
        for ch in &net.channels {
            let (s, d) = (shard_of(ch.src.0 as usize), shard_of(ch.dst.0 as usize));
            if s != d || s < prev {
                break;
            }
            chan_start[prev + 1..=s].iter_mut().for_each(|b| *b = n_local_chans);
            prev = s;
            n_local_chans += 1;
        }
        chan_start[prev + 1..=n_shards].iter_mut().for_each(|b| *b = n_local_chans);

        let mut bus_start = vec![0usize; n_shards + 1];
        let mut n_local_buses = 0;
        let mut prev = 0usize;
        for bus in &net.buses {
            let mut shard = None;
            let mut internal = true;
            for &(r, _) in bus.writers.iter().chain(bus.readers.iter()) {
                let s = shard_of(r as usize);
                if *shard.get_or_insert(s) != s {
                    internal = false;
                    break;
                }
            }
            let s = shard.unwrap_or(0);
            if !internal || s < prev {
                break;
            }
            bus_start[prev + 1..=s].iter_mut().for_each(|b| *b = n_local_buses);
            prev = s;
            n_local_buses += 1;
        }
        bus_start[prev + 1..=n_shards].iter_mut().for_each(|b| *b = n_local_buses);

        let plan = ShardPlan {
            n_shards,
            router_start,
            nic_start,
            chan_start,
            bus_start,
            n_local_chans,
            n_local_buses,
        };
        plan.validate(net).then_some(plan)
    }

    /// Full cross-check of the plan against the network: every local medium
    /// sits inside the shard its id range claims, every router references
    /// only its own shard's local media and NICs, every NIC injects into
    /// its own shard. Also run by the invariant audit while the parallel
    /// engine is armed.
    pub(crate) fn validate(&self, net: &Network) -> bool {
        let n = self.n_shards;
        let bounds_ok = |b: &[usize], end: usize| {
            b.len() == n + 1 && b[0] == 0 && b[n] == end && b.windows(2).all(|w| w[0] <= w[1])
        };
        if !(n >= 1
            && bounds_ok(&self.router_start, net.routers.len())
            && bounds_ok(&self.nic_start, net.nics.len())
            && bounds_ok(&self.chan_start, self.n_local_chans)
            && self.n_local_chans <= net.channels.len()
            && bounds_ok(&self.bus_start, self.n_local_buses)
            && self.n_local_buses <= net.buses.len())
        {
            return false;
        }
        for s in 0..n {
            let rr = self.router_start[s]..self.router_start[s + 1];
            let nr = self.nic_start[s]..self.nic_start[s + 1];
            for ci in self.chan_start[s]..self.chan_start[s + 1] {
                let ch = &net.channels[ci];
                if !rr.contains(&(ch.src.0 as usize)) || !rr.contains(&(ch.dst.0 as usize)) {
                    return false;
                }
            }
            for bi in self.bus_start[s]..self.bus_start[s + 1] {
                let b = &net.buses[bi];
                if b.writers
                    .iter()
                    .chain(b.readers.iter())
                    .any(|&(r, _)| !rr.contains(&(r as usize)))
                {
                    return false;
                }
            }
            for ni in nr.clone() {
                if !rr.contains(&(net.nics[ni].router as usize)) {
                    return false;
                }
            }
            for ri in rr.clone() {
                let router = &net.routers[ri];
                for ip in &router.in_ports {
                    match ip.upstream {
                        Upstream::Channel(c) => {
                            let c = c as usize;
                            if c < self.n_local_chans
                                && !(self.chan_start[s]..self.chan_start[s + 1]).contains(&c)
                            {
                                return false;
                            }
                        }
                        Upstream::Bus { bus, .. } => {
                            let b = bus as usize;
                            if b < self.n_local_buses
                                && !(self.bus_start[s]..self.bus_start[s + 1]).contains(&b)
                            {
                                return false;
                            }
                        }
                        Upstream::Inject(core) => {
                            if !nr.contains(&(core as usize)) {
                                return false;
                            }
                        }
                    }
                }
                for op in &router.out_ports {
                    match op.target {
                        OutTarget::Channel(c) => {
                            let c = c as usize;
                            if c < self.n_local_chans
                                && !(self.chan_start[s]..self.chan_start[s + 1]).contains(&c)
                            {
                                return false;
                            }
                        }
                        OutTarget::Bus { bus, .. } => {
                            let b = bus as usize;
                            if b < self.n_local_buses
                                && !(self.bus_start[s]..self.bus_start[s + 1]).contains(&b)
                            {
                                return false;
                            }
                        }
                        OutTarget::Eject(core) => {
                            if !nr.contains(&(core as usize))
                                || net.nics[core as usize].router as usize != ri
                            {
                                return false;
                            }
                        }
                    }
                }
            }
        }
        true
    }
}

/// A mutation of boundary (inter-cluster) state deferred from a shard's
/// parallel phase to the serial replay, in program order. Replaying each
/// shard's ops in shard order reproduces the serial engine's exact sequence
/// of boundary-medium mutations (§ module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum BoundaryOp {
    /// SA stage 1 saw downstream credit for `(reader, vc)` and would have
    /// requested the bus token. Credits are re-checked at replay time —
    /// the frozen parallel read may overestimate them (an earlier writer's
    /// deferred send had not landed yet), never underestimate.
    BusWant { bus: usize, writer: u16, reader: u16, vc: u8 },
    /// The token-holding writer transmitted on a boundary bus.
    BusSend { bus: usize, writer: u16, reader: u16, flit: Flit },
    /// A traversal freed a reader buffer slot: credit back to the pool.
    BusCredit { bus: usize, reader: u16, vc: u8 },
    /// A traversal pushed a flit onto a boundary channel.
    ChanSend { ch: usize, flit: Flit },
    /// A traversal freed the slot of a boundary channel's reader.
    ChanCredit { ch: usize, vc: u8 },
}

/// Per-shard scratch and exchange buffers, persistent across cycles so the
/// hot path never allocates. All contents are consumed (drained or cleared)
/// by the end of every `step_par`; none of this is simulation state and
/// none of it is snapshotted.
#[derive(Debug, Default)]
pub(crate) struct ShardCtx {
    // SA scratch, mirroring the serial engine's per-network buffers.
    pub(crate) scratch_cand: Vec<(usize, usize, usize)>,
    pub(crate) scratch_req: Vec<usize>,
    pub(crate) scratch_op_stamp: Vec<u64>,
    pub(crate) sa_stamp: u64,
    /// Deferred boundary mutations, in program order.
    pub(crate) ops: Vec<BoundaryOp>,
    /// Deferred VC allocations `(router, in_port, in_vc)` on boundary buses
    /// (VCA phase; replayed with `same_cycle = false`).
    pub(crate) vca_intents: Vec<(usize, usize, usize)>,
    /// Deferred speculative allocations from RC (`same_cycle = true`).
    pub(crate) rc_intents: Vec<(usize, usize, usize)>,
    /// Delivered packets `(dst, created_at, injected_at)` for the serial
    /// latency-histogram replay.
    pub(crate) delivered: Vec<(CoreId, Cycle, Cycle)>,
    // Scalar stat deltas, added to the global counters after the join.
    pub(crate) d_flits_injected: u64,
    pub(crate) d_flits_ejected: u64,
    pub(crate) d_measured: u64,
    pub(crate) d_backlog: u64,
    // Work/output lists (global ids). `kept_*` become the next cycle's
    // global work lists by concatenation in shard order.
    pub(crate) routers_work: Vec<usize>,
    pub(crate) kept_routers: Vec<usize>,
    pub(crate) kept_chans: Vec<usize>,
    pub(crate) kept_buses: Vec<usize>,
    pub(crate) kept_nics: Vec<usize>,
    pub(crate) ec_work: Vec<usize>,
    pub(crate) kept_ec: Vec<usize>,
}

/// Runtime state of the parallel engine: the plan, per-shard scratch, the
/// worker pool, and serial-phase scratch. Owned by [`Network`] but never
/// part of a snapshot — a restored network keeps whatever engine its driver
/// configured, and `set_parallel` can be called at any cycle boundary.
pub(crate) struct ParState {
    pub(crate) plan: ShardPlan,
    pub(crate) threads: usize,
    pub(crate) shards: Vec<ShardCtx>,
    pub(crate) pool: ShardPool,
    // Serial-phase scratch (boundary work lists), persistent per network.
    pub(crate) bnd_work: Vec<usize>,
    pub(crate) kept_bnd_chans: Vec<usize>,
    pub(crate) kept_bnd_buses: Vec<usize>,
    pub(crate) ec_bnd: Vec<usize>,
}

impl std::fmt::Debug for ParState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParState")
            .field("n_shards", &self.plan.n_shards)
            .field("threads", &self.threads)
            .finish()
    }
}

/// Sensor accumulator slices local to one shard.
pub(crate) struct SensorSlices<'a> {
    pub(crate) chan_busy: &'a mut [u32],
    pub(crate) bus_busy: &'a mut [u32],
    pub(crate) bus_wait: &'a mut [u64],
}

/// Everything one shard may touch during the parallel section: exclusive
/// slices of its own components, flags, and stat rows; shared read-only
/// views of the frozen boundary media; and its [`ShardCtx`].
///
/// All indices arriving through work lists and component cross-references
/// are *global*; the `*_base` offsets rebase them into the slices.
pub(crate) struct ShardView<'a> {
    pub(crate) now: Cycle,
    pub(crate) router_base: usize,
    pub(crate) chan_base: usize,
    pub(crate) bus_base: usize,
    pub(crate) nic_base: usize,
    pub(crate) n_local_chans: usize,
    pub(crate) n_local_buses: usize,
    pub(crate) routers: &'a mut [Router],
    pub(crate) channels: &'a mut [Channel],
    pub(crate) buses: &'a mut [Bus],
    pub(crate) nics: &'a mut [Nic],
    pub(crate) router_flits: &'a mut [u32],
    pub(crate) router_active: &'a mut [bool],
    pub(crate) chan_active: &'a mut [bool],
    pub(crate) bus_active: &'a mut [bool],
    pub(crate) bus_ec_active: &'a mut [bool],
    pub(crate) nic_active: &'a mut [bool],
    pub(crate) buffer_writes: &'a mut [u64],
    pub(crate) router_traversals: &'a mut [u64],
    pub(crate) channel_flits: &'a mut [u64],
    pub(crate) bus_flits: &'a mut [u64],
    pub(crate) bus_token_wait: &'a mut [u64],
    pub(crate) per_core_ejected: &'a mut [u64],
    pub(crate) sensors: Option<SensorSlices<'a>>,
    pub(crate) bnd_chans: &'a [Channel],
    pub(crate) bnd_buses: &'a [Bus],
    pub(crate) routing: &'a dyn RoutingAlg,
    pub(crate) measure_from: Cycle,
    pub(crate) seg_routers: &'a [usize],
    pub(crate) seg_chans: &'a [usize],
    pub(crate) seg_buses: &'a [usize],
    pub(crate) seg_nics: &'a [usize],
    pub(crate) seg_ec: &'a [usize],
    pub(crate) ctx: &'a mut ShardCtx,
}

/// A persistent fork-join worker pool specialised to shard stepping.
///
/// `threads - 1` worker threads live for the pool's lifetime; each
/// [`ShardPool::run`] statically deals the shard views round-robin across
/// the workers and the calling thread, then blocks until every shard
/// finished. There is no work stealing and no shared mutable state between
/// jobs, so scheduling cannot influence results — determinism is by
/// construction, not by synchronization discipline. Spawning per cycle is
/// avoided entirely: a cycle costs two channel messages per worker.
///
/// Implemented on `std::thread` + `mpsc` only, so the engine carries no
/// third-party runtime dependency.
pub(crate) struct ShardPool {
    /// One job channel per worker thread.
    txs: Vec<std::sync::mpsc::Sender<Jobs>>,
    /// Completion signals (a panic payload instead of `None` when the
    /// worker's batch panicked; re-raised on the caller).
    done_rx: std::sync::mpsc::Receiver<Option<Box<dyn std::any::Any + Send>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// A batch of exclusive shard-view pointers for one worker. The pointers
/// are derived from disjoint `&mut` borrows and the caller blocks until
/// the batch completes, so each view is exclusively owned by exactly one
/// thread for the duration — the `Send` erasure below is sound.
struct Jobs(Vec<*mut ShardView<'static>>);
// SAFETY: `ShardView` holds only `Send` data (plain component state,
// `&dyn RoutingAlg` whose trait requires `Send + Sync`); the pointers are
// to disjoint views and are used by exactly one thread at a time.
unsafe impl Send for Jobs {}

impl ShardPool {
    /// A pool that runs shard batches on `threads` threads in total: the
    /// caller plus `threads - 1` spawned workers.
    pub(crate) fn new(threads: usize) -> ShardPool {
        let workers = threads.saturating_sub(1);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = std::sync::mpsc::channel::<Jobs>();
            let done = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("own-shard-{w}"))
                .spawn(move || {
                    while let Ok(jobs) = rx.recv() {
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                for p in &jobs.0 {
                                    // SAFETY: exclusive, live view — see `Jobs`.
                                    run_shard(unsafe { &mut **p });
                                }
                            }));
                        // The caller counts one signal per worker per run;
                        // a panic must still signal or the join deadlocks.
                        if done.send(outcome.err()).is_err() {
                            break;
                        }
                    }
                })
                .expect("failed to spawn shard worker thread");
            txs.push(tx);
            handles.push(handle);
        }
        ShardPool { txs, done_rx, handles }
    }

    /// Step every view to completion across the pool. Blocks until all
    /// shards finished; re-raises the first worker panic (after all
    /// workers signalled, so no view pointer outlives its borrow).
    pub(crate) fn run(&self, views: &mut [ShardView<'_>]) {
        fn must_be_send<T: Send>() {}
        must_be_send::<ShardView<'_>>();
        let lanes = self.txs.len() + 1;
        // Per-element pointers, each derived from its own disjoint `&mut`.
        let mut ptrs: Vec<*mut ShardView<'static>> =
            views.iter_mut().map(|v| std::ptr::from_mut(v).cast()).collect();
        for (w, tx) in self.txs.iter().enumerate() {
            let batch = ptrs.iter().copied().skip(w + 1).step_by(lanes).collect();
            tx.send(Jobs(batch)).expect("shard worker exited prematurely");
        }
        let mine = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for p in ptrs.iter_mut().step_by(lanes) {
                // SAFETY: this lane's views are dealt to no worker.
                run_shard(unsafe { &mut **p });
            }
        }));
        let mut first_panic = mine.err();
        for _ in 0..self.txs.len() {
            let worker_panic = self.done_rx.recv().expect("shard worker exited prematurely");
            if first_panic.is_none() {
                first_panic = worker_panic;
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Closing the job channels ends the worker loops.
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Carve the first `n` elements off a mutable slice cursor.
pub(crate) fn take_mut<'a, T>(s: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let slice = std::mem::take(s);
    let (head, tail) = slice.split_at_mut(n);
    *s = tail;
    head
}

/// Carve the prefix of a sorted id list with ids `< bound` off a cursor.
pub(crate) fn take_list<'a>(s: &mut &'a [usize], bound: usize) -> &'a [usize] {
    let cut = s.partition_point(|&x| x < bound);
    let (head, tail) = s.split_at(cut);
    *s = tail;
    head
}

/// One shard's full cycle: local deliver → SA/ST → VCA → RC → inject →
/// local end-of-cycle. Mirrors the serial phase bodies exactly for the
/// no-fault/no-observer case, with every boundary interaction deferred.
pub(crate) fn run_shard(v: &mut ShardView) {
    // The SA work list: the shard's slice of the sorted global list plus
    // routers activated by local deliveries, in ascending order (the order
    // the serial engine's sort produces).
    v.ctx.routers_work.clear();
    v.ctx.routers_work.extend_from_slice(v.seg_routers);
    deliver_local(v);
    v.ctx.routers_work.sort_unstable();
    sa_st(v);
    vca(v);
    rc(v);
    inject(v);
    end_cycle_local(v);
}

/// Phase 1 (local): land due flits and credits of shard-local media.
/// Delivery commutes across media — each medium feeds its own input ports
/// and credit pools — so running after the serial boundary pre-pass leaves
/// every buffer byte-identical to the serial sweep.
fn deliver_local(v: &mut ShardView) {
    let now = v.now;
    for &gci in v.seg_chans {
        let lc = gci - v.chan_base;
        let ch = &mut v.channels[lc];
        while ch.in_flight.front().is_some_and(|&(t, _)| t <= now) {
            let (_, flit) = ch.in_flight.pop_front().unwrap();
            let (r, p) = ch.dst;
            let lr = r as usize - v.router_base;
            v.routers[lr].push_flit(p as usize, flit.vc as usize, now, flit);
            v.buffer_writes[lr] += 1;
            v.router_flits[lr] += 1;
            if !v.router_active[lr] {
                v.router_active[lr] = true;
                v.ctx.routers_work.push(r as usize);
            }
        }
        let ch = &mut v.channels[lc];
        while ch.credits_back.front().is_some_and(|&(t, _)| t <= now) {
            let (_, cvc) = ch.credits_back.pop_front().unwrap();
            let (r, p) = ch.src;
            let lr = r as usize - v.router_base;
            v.routers[lr].out_ports[p as usize].vcs[cvc as usize].credits += 1;
        }
        let ch = &v.channels[lc];
        if !ch.in_flight.is_empty() || !ch.credits_back.is_empty() {
            v.ctx.kept_chans.push(gci);
        } else {
            v.chan_active[lc] = false;
        }
    }
    for &gbi in v.seg_buses {
        let lb = gbi - v.bus_base;
        let bus = &mut v.buses[lb];
        while bus.in_flight.front().is_some_and(|&(t, _, _)| t <= now) {
            let (_, reader, flit) = bus.in_flight.pop_front().unwrap();
            let (r, p) = bus.readers[reader as usize];
            let lr = r as usize - v.router_base;
            v.routers[lr].push_flit(p as usize, flit.vc as usize, now, flit);
            v.buffer_writes[lr] += 1;
            v.router_flits[lr] += 1;
            if !v.router_active[lr] {
                v.router_active[lr] = true;
                v.ctx.routers_work.push(r as usize);
            }
        }
        let bus = &mut v.buses[lb];
        while bus.credits_back.front().is_some_and(|&(t, _, _)| t <= now) {
            let (_, reader, cvc) = bus.credits_back.pop_front().unwrap();
            bus.credits[reader as usize][cvc as usize] += 1;
        }
        if !bus.in_flight.is_empty() || !bus.credits_back.is_empty() {
            v.ctx.kept_buses.push(gbi);
        } else {
            v.bus_active[lb] = false;
        }
    }
}

/// Phase 2: switch allocation + traversal over the shard's work list.
fn sa_st(v: &mut ShardView) {
    let work = std::mem::take(&mut v.ctx.routers_work);
    for &gri in &work {
        sa_st_router(v, gri);
        let lr = gri - v.router_base;
        if v.router_flits[lr] > 0 {
            v.ctx.kept_routers.push(gri);
        } else {
            v.router_active[lr] = false;
        }
    }
    v.ctx.routers_work = work;
}

/// SA + ST for one router; the shard-local mirror of the serial
/// `Network::sa_st_router`.
fn sa_st_router(v: &mut ShardView, gri: usize) {
    let now = v.now;
    let lr = gri - v.router_base;
    let mut cand = std::mem::take(&mut v.ctx.scratch_cand);
    cand.clear();
    // SA stage 1: each input port nominates one eligible VC.
    {
        let buses = &mut *v.buses;
        let bnd_buses = v.bnd_buses;
        let (bus_base, n_local_buses) = (v.bus_base, v.n_local_buses);
        let bus_ec_active = &mut *v.bus_ec_active;
        let ec_work = &mut v.ctx.ec_work;
        let ops = &mut v.ctx.ops;
        sa_nominate(&mut v.routers[lr], now, &mut cand, |bus, writer, reader, out_vc| {
            let bi = bus as usize;
            if bi >= n_local_buses {
                // Frozen boundary bus: the credit read may be stale-high
                // (deferred sends), so the token request is re-validated
                // at replay; the eligibility verdict itself is exact
                // because only the current token holder can pass
                // `can_transmit`, and no send precedes its own stage-1
                // probes (§ module docs).
                let b = &bnd_buses[bi - n_local_buses];
                let has_credit = b.credit(reader, out_vc) > 0;
                if has_credit {
                    ops.push(BoundaryOp::BusWant { bus: bi, writer, reader, vc: out_vc });
                }
                has_credit && b.can_transmit(writer as usize, now)
            } else {
                let b = &mut buses[bi - bus_base];
                // See the serial engine: a credit-blocked holder must not
                // request the token.
                let has_credit = b.credit(reader, out_vc) > 0;
                if has_credit {
                    b.wants[writer as usize] = true;
                    if !bus_ec_active[bi - bus_base] {
                        bus_ec_active[bi - bus_base] = true;
                        ec_work.push(bi);
                    }
                }
                has_credit && b.can_transmit(writer as usize, now)
            }
        });
    }
    // SA stage 2: each output port grants one nominee; ST for winners.
    let mut req = std::mem::take(&mut v.ctx.scratch_req);
    v.ctx.sa_stamp += 1;
    let stamp = v.ctx.sa_stamp;
    let n_op = v.routers[lr].out_ports.len();
    if v.ctx.scratch_op_stamp.len() < n_op {
        v.ctx.scratch_op_stamp.resize(n_op, 0);
    }
    for i in 0..cand.len() {
        let op_idx = cand[i].2;
        if v.ctx.scratch_op_stamp[op_idx] == stamp {
            continue;
        }
        v.ctx.scratch_op_stamp[op_idx] = stamp;
        req.clear();
        req.extend(cand[i..].iter().filter(|&&(_, _, op)| op == op_idx).map(|&(pi, _, _)| pi));
        let arb = &mut v.routers[lr].out_ports[op_idx].sa_arb;
        let Some(winner_port) = arb.grant_among(&req) else { continue };
        let Some(&(_, vi, _)) =
            cand[i..].iter().find(|&&(pi, _, op)| pi == winner_port && op == op_idx)
        else {
            continue;
        };
        traverse(v, gri, winner_port, vi);
    }
    v.ctx.scratch_req = req;
    v.ctx.scratch_cand = cand;
}

/// Switch + link traversal for the winning `(in_port, in_vc)`; the
/// shard-local mirror of the serial `Network::traverse` (fault-free path),
/// with boundary sends and credits deferred as [`BoundaryOp`]s. Router-side
/// effects (pop, credits, `busy_until`, VC release) happen here either way.
fn traverse(v: &mut ShardView, gri: usize, pi: usize, vi: usize) {
    let now = v.now;
    let lr = gri - v.router_base;
    let router = &mut v.routers[lr];
    let (mut flit, out_port, out_vc, reader) = router.traverse_head(pi, vi, now);
    let is_tail = flit.kind.is_tail();
    v.router_traversals[lr] += 1;
    v.router_flits[lr] -= 1;

    // Return the freed buffer slot upstream. At most one credit leaves any
    // input port per cycle, so per-medium credit order across shards is
    // fixed by shard order — the serial push order.
    match router.in_ports[pi].upstream {
        Upstream::Channel(ch) => {
            let ci = ch as usize;
            if ci >= v.n_local_chans {
                v.ctx.ops.push(BoundaryOp::ChanCredit { ch: ci, vc: vi as u8 });
            } else {
                let lc = ci - v.chan_base;
                v.channels[lc].send_credit(now, vi as u8);
                if !v.chan_active[lc] {
                    v.chan_active[lc] = true;
                    v.ctx.kept_chans.push(ci);
                }
            }
        }
        Upstream::Bus { bus, reader } => {
            let bi = bus as usize;
            if bi >= v.n_local_buses {
                v.ctx.ops.push(BoundaryOp::BusCredit { bus: bi, reader, vc: vi as u8 });
            } else {
                let lb = bi - v.bus_base;
                v.buses[lb].send_credit(now, reader, vi as u8);
                if !v.bus_active[lb] {
                    v.bus_active[lb] = true;
                    v.ctx.kept_buses.push(bi);
                }
            }
        }
        Upstream::Inject(core) => {
            v.nics[core as usize - v.nic_base].credits[vi] += 1;
        }
    }

    let router = &mut v.routers[lr];
    let op = &mut router.out_ports[out_port as usize];
    flit.vc = out_vc;
    flit.retries = 0;
    match op.target {
        OutTarget::Channel(ch) => {
            flit.hops += 1;
            op.vcs[out_vc as usize].credits -= 1;
            let ci = ch as usize;
            if ci >= v.n_local_chans {
                // The transmitter serializes locally; only the medium push
                // (and its stats/sensor accounting) is deferred.
                let ser = v.bnd_chans[ci - v.n_local_chans].ser_cycles;
                op.busy_until = now + u64::from(ser);
                v.ctx.ops.push(BoundaryOp::ChanSend { ch: ci, flit });
            } else {
                let lc = ci - v.chan_base;
                let ser = v.channels[lc].ser_cycles;
                op.busy_until = now + u64::from(ser);
                v.channels[lc].send(now, flit);
                v.channel_flits[lc] += 1;
                if !v.chan_active[lc] {
                    v.chan_active[lc] = true;
                    v.ctx.kept_chans.push(ci);
                }
                if let Some(s) = &mut v.sensors {
                    s.chan_busy[lc] = s.chan_busy[lc].saturating_add(ser);
                }
            }
        }
        OutTarget::Bus { bus, writer } => {
            flit.hops += 1;
            let bi = bus as usize;
            if bi >= v.n_local_buses {
                v.ctx.ops.push(BoundaryOp::BusSend { bus: bi, writer, reader, flit });
            } else {
                let lb = bi - v.bus_base;
                let b = &mut v.buses[lb];
                b.send(now, writer as usize, reader, flit);
                v.bus_flits[lb] += 1;
                if !v.bus_active[lb] {
                    v.bus_active[lb] = true;
                    v.ctx.kept_buses.push(bi);
                }
                if is_tail {
                    b.vc_owner[reader as usize][out_vc as usize] = None;
                }
                let ser = b.ser_cycles;
                if let Some(s) = &mut v.sensors {
                    s.bus_busy[lb] = s.bus_busy[lb].saturating_add(ser);
                }
            }
        }
        OutTarget::Eject(core) => {
            op.busy_until = now + 1;
            v.ctx.d_flits_ejected += 1;
            let ln = core as usize - v.nic_base;
            v.per_core_ejected[ln] += 1;
            v.nics[ln].eject_flits += 1;
            if flit.created_at >= v.measure_from {
                v.ctx.d_measured += 1;
            }
            debug_assert!(flit.dst == core, "flit ejected at wrong core");
            if is_tail {
                // The latency histograms replay serially, in shard order.
                v.ctx.delivered.push((core, flit.created_at, flit.injected_at));
            }
        }
    }
    if is_tail {
        // The serial engine's wake sites 1 and 2 (a boundary bus has no
        // parked writer: its allocations replay without parking).
        let router = &mut v.routers[lr];
        router.out_ports[out_port as usize].vcs[out_vc as usize].holder = None;
        router.wake_port(out_port as usize);
        if let OutTarget::Bus { bus, .. } = router.out_ports[out_port as usize].target {
            if (bus as usize) < v.n_local_buses {
                let (routers, base) = (&mut *v.routers, v.router_base);
                v.buses[bus as usize - v.bus_base].wake_reader(reader, |(r, p)| {
                    routers[r as usize - base].wake_port(p as usize);
                });
            }
        }
    }
}

/// Phase 3: VC allocation over the compacted work list. Allocations on
/// boundary buses are deferred — `vc_owner` slots interleave across shards
/// in serial router order, which only the replay can reproduce. Local
/// failures park as in the serial engine: every release that can wake them
/// happens in this shard's SA/ST, before this phase.
fn vca(v: &mut ShardView) {
    let now = v.now;
    let nlb = v.n_local_buses;
    for &gri in &v.ctx.kept_routers {
        let (buses, bus_base, intents) = (&mut *v.buses, v.bus_base, &mut v.ctx.vca_intents);
        vca_router(&mut v.routers[gri - v.router_base], now, |router, pi, vi| {
            if !bound_for_boundary_bus(router, pi, vi, nlb) {
                try_vc_alloc(router, buses, bus_base, now, pi, vi, false, true);
            } else if router.in_ports[pi].vcs[vi].stage_cycle < now {
                intents.push((gri, pi, vi));
            }
        });
    }
}

/// Phase 4: route computation (pure table read, shared `&dyn RoutingAlg`).
/// Speculative allocations on boundary buses are deferred like VCA's.
fn rc(v: &mut ShardView) {
    let now = v.now;
    let nlb = v.n_local_buses;
    for &gri in &v.ctx.kept_routers {
        let (buses, bus_base, intents) = (&mut *v.buses, v.bus_base, &mut v.ctx.rc_intents);
        rc_router(&mut v.routers[gri - v.router_base], v.routing, now, |router, pi, vi| {
            if bound_for_boundary_bus(router, pi, vi, nlb) {
                intents.push((gri, pi, vi));
            } else {
                try_vc_alloc(router, buses, bus_base, now, pi, vi, true, true);
            }
        });
    }
}

/// Whether the `Routed` VC `(pi, vi)` waits for an output VC on a boundary
/// bus. Its allocation is then deferred to the serial replay
/// (`Network::step_par`), and nothing about the VC changes until then: RC
/// skips non-Idle VCs and SA skips non-Active ones, so the deferral is
/// invisible to the rest of the cycle.
fn bound_for_boundary_bus(router: &Router, pi: usize, vi: usize, n_local_buses: usize) -> bool {
    let VcState::Routed { out_port, .. } = router.in_ports[pi].vcs[vi].state() else {
        return false;
    };
    matches!(router.out_ports[out_port as usize].target,
        OutTarget::Bus { bus, .. } if bus as usize >= n_local_buses)
}

/// Phase 5: injection over the shard's NIC segment.
fn inject(v: &mut ShardView) {
    let now = v.now;
    for &gni in v.seg_nics {
        let ln = gni - v.nic_base;
        let nic = &mut v.nics[ln];
        let (rid, in_port) = (nic.router as usize, nic.in_port as usize);
        if let Some(flit) = nic.next_flit(now) {
            if flit.kind.is_tail() {
                v.ctx.d_backlog += 1;
            }
            let lr = rid - v.router_base;
            v.routers[lr].push_flit(in_port, flit.vc as usize, now, flit);
            v.ctx.d_flits_injected += 1;
            v.buffer_writes[lr] += 1;
            v.router_flits[lr] += 1;
            if !v.router_active[lr] {
                v.router_active[lr] = true;
                v.ctx.kept_routers.push(rid);
            }
        }
        let nic = &v.nics[ln];
        if !nic.queue.is_empty() || nic.streaming.is_some() {
            v.ctx.kept_nics.push(gni);
        } else {
            v.nic_active[ln] = false;
        }
    }
}

/// Phase 6 (local): token movement on shard-local buses. Per-bus work with
/// per-bus state — commutes across buses, so locals in parallel plus the
/// boundary tail in the serial post-pass equals the serial ascending sweep.
fn end_cycle_local(v: &mut ShardView) {
    let now = v.now;
    let mut work = std::mem::take(&mut v.ctx.ec_work);
    work.extend_from_slice(v.seg_ec);
    work.sort_unstable();
    for &gbi in &work {
        let lb = gbi - v.bus_base;
        let b = &mut v.buses[lb];
        let handoff = b.end_cycle_frozen(now, false);
        if let Some(h) = handoff {
            v.bus_token_wait[lb] += h.waited;
            if let Some(s) = &mut v.sensors {
                s.bus_wait[lb] = s.bus_wait[lb].saturating_add(h.waited);
            }
        }
        if v.buses[lb].want_since.iter().any(Option::is_some) {
            v.ctx.kept_ec.push(gbi);
        } else {
            v.bus_ec_active[lb] = false;
        }
    }
    work.clear();
    v.ctx.ec_work = work;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::config::RouterConfig;
    use crate::routing::{RouteDecision, TableRouting};
    use crate::LinkClass;

    /// Two 2-router clusters joined by one cross pair of channels.
    fn two_cluster_net() -> Network {
        let mut b = NetworkBuilder::new(4, 4, RouterConfig::default());
        for r in 0..4 {
            b.attach_core(r, r);
        }
        // Intra-cluster channels first (local prefix), cross-cluster last.
        b.add_channel(0, 1, 1, 1, LinkClass::Photonic);
        b.add_channel(1, 0, 1, 1, LinkClass::Photonic);
        b.add_channel(2, 3, 1, 1, LinkClass::Photonic);
        b.add_channel(3, 2, 1, 1, LinkClass::Photonic);
        b.add_channel(1, 2, 1, 1, LinkClass::Photonic);
        b.add_channel(2, 1, 1, 1, LinkClass::Photonic);
        let table = vec![vec![RouteDecision::any_vc(0, 4); 4]; 4];
        b.build(Box::new(TableRouting { table }))
    }

    #[test]
    fn derive_splits_clusters_and_media() {
        let net = two_cluster_net();
        let plan = ShardPlan::derive(&net, &[0, 0, 1, 1]).expect("plan");
        assert_eq!(plan.n_shards, 2);
        assert_eq!(plan.router_start, vec![0, 2, 4]);
        assert_eq!(plan.nic_start, vec![0, 2, 4]);
        assert_eq!(plan.n_local_chans, 4, "intra-cluster prefix is local");
        assert_eq!(plan.chan_start, vec![0, 2, 4]);
        assert_eq!(plan.n_local_buses, 0);
        assert!(plan.validate(&net));
    }

    #[test]
    fn derive_rejects_bad_maps() {
        let net = two_cluster_net();
        assert!(ShardPlan::derive(&net, &[0, 0, 1]).is_none(), "length mismatch");
        assert!(ShardPlan::derive(&net, &[1, 1, 0, 0]).is_none(), "must start at 0");
        assert!(ShardPlan::derive(&net, &[0, 1, 0, 1]).is_none(), "non-contiguous");
        assert!(ShardPlan::derive(&net, &[0, 0, 0, 0]).is_none(), "single cluster");
        assert!(ShardPlan::derive(&net, &[0, 0, 2, 2]).is_none(), "skipped cluster id");
    }

    #[test]
    fn interleaved_local_media_degrade_to_boundary() {
        // Cross-cluster channel FIRST: the local prefix is then empty and
        // every channel takes the (always-correct) boundary path.
        let mut b = NetworkBuilder::new(4, 4, RouterConfig::default());
        for r in 0..4 {
            b.attach_core(r, r);
        }
        b.add_channel(1, 2, 1, 1, LinkClass::Photonic);
        b.add_channel(0, 1, 1, 1, LinkClass::Photonic);
        let table = vec![vec![RouteDecision::any_vc(0, 4); 4]; 4];
        let net = b.build(Box::new(TableRouting { table }));
        let plan = ShardPlan::derive(&net, &[0, 0, 1, 1]).expect("plan");
        assert_eq!(plan.n_local_chans, 0);
        assert!(plan.validate(&net));
    }

    #[test]
    fn take_helpers_partition_in_order() {
        let mut v = [1u32, 2, 3, 4, 5];
        let mut cur = &mut v[..];
        assert_eq!(take_mut(&mut cur, 2), &mut [1, 2]);
        assert_eq!(take_mut(&mut cur, 3), &mut [3, 4, 5]);
        let list = [0usize, 1, 5, 9, 12];
        let mut cur = &list[..];
        assert_eq!(take_list(&mut cur, 4), &[0, 1]);
        assert_eq!(take_list(&mut cur, 10), &[5, 9]);
        assert_eq!(take_list(&mut cur, 100), &[12]);
    }
}
