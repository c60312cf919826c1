//! Test support shared by the bit-identity suites (`engine_identity`,
//! `par_identity`, `vc_work_sets`).

use noc_core::NetStats;

fn mix(h: &mut u64, x: u64) {
    *h ^= x;
    *h = h.wrapping_mul(0x100_0000_01b3);
}

fn mix_slice(h: &mut u64, xs: &[u64]) {
    mix(h, xs.len() as u64);
    for &x in xs {
        mix(h, x);
    }
}

fn mix_hist(h: &mut u64, hist: &noc_core::stats::LatencyHist) {
    mix(h, hist.bucket_width);
    mix_slice(h, &hist.buckets);
    mix(h, hist.count);
    mix(h, hist.sum);
    mix(h, hist.max);
}

/// FNV-1a over every field of [`NetStats`], in declaration order. Any
/// engine change that alters any counter, histogram bucket, or per-link
/// tally for a pinned seed changes this value.
pub fn fingerprint(s: &NetStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    mix(&mut h, s.cycles);
    mix(&mut h, s.packets_offered);
    mix(&mut h, s.flits_injected);
    mix(&mut h, s.flits_ejected);
    mix(&mut h, s.packets_delivered);
    mix_slice(&mut h, &s.channel_flits);
    mix_slice(&mut h, &s.bus_flits);
    mix_slice(&mut h, &s.router_traversals);
    mix_slice(&mut h, &s.buffer_writes);
    mix_hist(&mut h, &s.latency);
    mix_hist(&mut h, &s.queue_delay);
    mix_hist(&mut h, &s.network_latency);
    mix(&mut h, s.measured_flits_ejected);
    mix(&mut h, s.measure_from);
    mix(&mut h, s.measure_until);
    mix_slice(&mut h, &s.per_core_ejected);
    mix_slice(&mut h, &s.per_core_packets);
    mix(&mut h, s.flits_corrupted);
    mix(&mut h, s.flit_retransmits);
    mix(&mut h, s.packets_dropped_corrupt);
    mix(&mut h, s.offers_rejected);
    mix(&mut h, s.offers_shed);
    mix(&mut h, s.offers_deferred);
    mix(&mut h, s.offers_admitted);
    mix(&mut h, s.failovers);
    mix(&mut h, s.first_fault_at.map_or(u64::MAX, |c| c));
    mix(&mut h, s.first_failover_at.map_or(u64::MAX, |c| c));
    mix_hist(&mut h, &s.post_fault_latency);
    h
}
