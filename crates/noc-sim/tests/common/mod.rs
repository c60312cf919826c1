//! Test support shared by the bit-identity suites (`engine_identity`,
//! `par_identity`, `vc_work_sets`).

use noc_core::{NetStats, Network};

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

/// One side of a lockstep comparison: a network and the closure that
/// advances it by one cycle (offer that cycle's traffic, then step).
pub type Run<'a> = (Network, Box<dyn FnMut(&mut Network) + 'a>);

/// Snapshots are compared every this many cycles in the first pass.
const SNAP_EVERY: u64 = 64;

fn snap(net: &Network) -> String {
    format!("{:#?}", net.snapshot())
}

/// The first differing line of two snapshot dumps: its field path (from
/// `a`), then the two lines.
fn first_line_diff(a: &str, b: &str) -> Option<(String, String, String)> {
    let (mut la, mut lb) = (a.lines(), b.lines());
    for n in 0.. {
        match (la.next(), lb.next()) {
            (None, None) => return None,
            (x, y) if x != y => {
                let show = |l: Option<&str>| l.unwrap_or("<end>").trim().to_string();
                return Some((field_path(a, n), show(x), show(y)));
            }
            _ => {}
        }
    }
    unreachable!()
}

/// The field path of line `n` (0-based) of a `{:#?}` dump, e.g.
/// `routers[3].in_ports[5].vcs[0].state`.
fn field_path(dump: &str, n: usize) -> String {
    // One frame per open bracket: the path up to it and, for a list or a
    // tuple, the number of elements seen so far.
    let mut stack: Vec<(String, Option<usize>)> = vec![(String::new(), None)];
    for (i, line) in dump.lines().enumerate().take(n + 1) {
        let t = line.trim();
        if t.starts_with(['}', ']', ')']) {
            stack.pop();
            continue;
        }
        let (parent, count) = stack.last_mut().expect("balanced dump");
        let path = match count {
            Some(k) => {
                *k += 1;
                format!("{parent}[{}]", *k - 1)
            }
            None => match t.split_once(": ") {
                Some((field, _)) if parent.is_empty() => field.to_string(),
                Some((field, _)) => format!("{parent}.{field}"),
                None => parent.clone(),
            },
        };
        if i == n {
            return path;
        }
        if t.ends_with(['{', '[', '(']) {
            stack.push((path, (!t.ends_with('{')).then_some(0)));
        }
    }
    String::new()
}

/// Where two runs that must be bit-identical first part. Steps the
/// networks built by `make_a` and `make_b` in lockstep for up to
/// `cycles` cycles, comparing `fingerprint(&stats)` every cycle and the
/// `{:#?}` snapshot dumps every `SNAP_EVERY` cycles. It then rebuilds both,
/// replays to the last cycle the dumps agreed, and compares the dumps
/// every cycle up to the first mismatch. The report names that cycle, the
/// field path of the first differing snapshot line (such as
/// `routers[3].in_ports[5].vcs[0].state`) and both sides of that line.
///
/// Costs two reruns, so call it only from the message of an identity
/// assertion that is failing: a passing run never evaluates it.
pub fn first_divergence<'a>(
    cycles: u64,
    make_a: impl Fn() -> Run<'a>,
    make_b: impl Fn() -> Run<'a>,
) -> String {
    let ((mut a, mut step_a), (mut b, mut step_b)) = (make_a(), make_b());
    let (mut agreed, mut fp_split, mut found) = (0, None, snap(&a) != snap(&b));
    for c in 1..=cycles {
        if found {
            break;
        }
        step_a(&mut a);
        step_b(&mut b);
        if fingerprint(&a.stats) != fingerprint(&b.stats) {
            fp_split = Some(c);
            found = true;
        } else if c % SNAP_EVERY == 0 || c == cycles {
            found = snap(&a) != snap(&b);
            if !found {
                agreed = c;
            }
        }
    }
    if !found {
        return format!("no divergence found: {cycles} lockstep cycles, snapshots agree");
    }
    let fp = match fp_split {
        Some(c) => format!("NetStats fingerprints first differ at lockstep cycle {c}"),
        None => "NetStats fingerprints agree".to_string(),
    };
    let ((mut a, mut step_a), (mut b, mut step_b)) = (make_a(), make_b());
    for c in 0..=cycles {
        if c > 0 {
            step_a(&mut a);
            step_b(&mut b);
        }
        if c < agreed {
            continue;
        }
        if let Some((path, x, y)) = first_line_diff(&snap(&a), &snap(&b)) {
            return format!(
                "first divergence at lockstep cycle {c} (net.now {} vs {}; {fp}): snapshot \
                 field {path}:\n  a: {x}\n  b: {y}",
                a.now, b.now
            );
        }
    }
    format!("{fp}, but the rerun's snapshots agree (nondeterministic run?)")
}
