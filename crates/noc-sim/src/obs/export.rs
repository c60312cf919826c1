//! Event export: Chrome trace format and JSONL.
//!
//! Both exporters emit JSON by hand — every field is a number or a fixed
//! ASCII name, so no serialization framework is required and the output is
//! byte-stable across runs.
//!
//! The Chrome trace (load into `chrome://tracing` or
//! <https://ui.perfetto.dev>) maps one simulation cycle to one microsecond
//! and groups events into synthetic processes:
//!
//! | pid | rows (`tid`) | content |
//! |---|---|---|
//! | 1 | source core | packet offered/injected/ejected/delivered and admission shed/defer (instants) |
//! | 2 | channel id | flit flight spans (send → arrival) |
//! | 3 | bus id | flit serialization spans on the shared medium |
//! | 4 | bus id | token-wait spans, grant instants, busy/idle edges |
//! | 5 | faulted medium id / spare band | outage spans, corruption/retransmit/failover, spare-band steering |
//! | 6 | router id | watchdog stall diagnostics (only when a stall fired) |

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use noc_core::obs::NocEvent;
use noc_core::{FaultTarget, RecoveryReport, StallReport};

const PID_PACKETS: u32 = 1;
const PID_CHANNELS: u32 = 2;
const PID_BUSES: u32 = 3;
const PID_TOKENS: u32 = 4;
const PID_FAULTS: u32 = 5;
const PID_WATCHDOG: u32 = 6;

/// Stalled-VC instants rendered into a Chrome trace before the per-router
/// detail is truncated (the stall summary instant reports the full count).
const MAX_STALL_INSTANTS: usize = 256;

/// `(kind, id)` rendering of a fault target for JSON output.
fn target_parts(target: FaultTarget) -> (&'static str, u32) {
    match target {
        FaultTarget::Channel(c) => ("channel", c),
        FaultTarget::Bus(b) => ("bus", b),
        FaultTarget::TokenRing(b) => ("token", b),
    }
}

/// Render events as a complete Chrome-trace JSON document.
pub fn chrome_trace(events: &[NocEvent]) -> String {
    chrome_trace_with_stall(events, None)
}

/// [`chrome_trace`], appending a watchdog stall diagnostic when one was
/// captured: a `stall` instant carrying the summary counters plus one
/// instant per stalled VC (row = router id, capped at
/// [`MAX_STALL_INSTANTS`]) and per frozen-or-held token.
pub fn chrome_trace_with_stall(events: &[NocEvent], stall: Option<&StallReport>) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 512);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut pids = vec![
        (PID_PACKETS, "packets"),
        (PID_CHANNELS, "channels"),
        (PID_BUSES, "buses"),
        (PID_TOKENS, "tokens"),
        (PID_FAULTS, "faults"),
    ];
    if stall.is_some() {
        pids.push((PID_WATCHDOG, "watchdog"));
    }
    for (pid, name) in pids {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        chrome_event(&mut out, ev);
    }
    if let Some(r) = stall {
        chrome_stall(&mut out, r);
    }
    out.push_str("]}");
    out
}

/// Append the stall diagnostic to a non-empty Chrome event list.
fn chrome_stall(out: &mut String, r: &StallReport) {
    let _ = write!(
        out,
        ",{{\"name\":\"stall\",\"cat\":\"watchdog\",\"ph\":\"i\",\"s\":\"g\",\
         \"ts\":{},\"pid\":{PID_WATCHDOG},\"tid\":0,\
         \"args\":{{\"budget_exhausted\":{},\"progressed_at\":{},\
         \"undelivered_packets\":{},\"flits_in_network\":{},\"source_backlog\":{},\
         \"flit_retransmits\":{},\"stalled_vcs\":{},\"bus_owners\":{}}}}}",
        r.at,
        r.budget_exhausted,
        r.progressed_at,
        r.undelivered_packets,
        r.flits_in_network,
        r.source_backlog,
        r.flit_retransmits,
        r.stalled_vcs.len(),
        r.bus_owners.len(),
    );
    for v in r.stalled_vcs.iter().take(MAX_STALL_INSTANTS) {
        let _ = write!(
            out,
            ",{{\"name\":\"stalled-vc\",\"cat\":\"watchdog\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{},\"pid\":{PID_WATCHDOG},\"tid\":{},\
             \"args\":{{\"in_port\":{},\"vc\":{},\"state\":\"{}\",\"buffered\":{},\
             \"last_moved\":{}}}}}",
            r.at, v.router, v.in_port, v.vc, v.state, v.buffered, v.last_moved,
        );
    }
    for t in r.tokens.iter().take(MAX_STALL_INSTANTS) {
        let _ = write!(
            out,
            ",{{\"name\":\"token-at-stall\",\"cat\":\"watchdog\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{},\"pid\":{PID_TOKENS},\"tid\":{},\
             \"args\":{{\"holder\":{},\"available_at\":{},\"frozen\":{}}}}}",
            r.at, t.bus, t.holder, t.available_at, t.frozen,
        );
    }
}

fn chrome_event(out: &mut String, ev: &NocEvent) {
    match *ev {
        NocEvent::PacketOffered { at, packet, src, dst, len } => {
            let _ = write!(
                out,
                "{{\"name\":\"offer\",\"cat\":\"packet\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_PACKETS},\"tid\":{src},\
                 \"args\":{{\"packet\":{packet},\"dst\":{dst},\"len\":{len}}}}}"
            );
        }
        NocEvent::PacketInjected { at, packet, src } => {
            let _ = write!(
                out,
                "{{\"name\":\"inject\",\"cat\":\"packet\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_PACKETS},\"tid\":{src},\
                 \"args\":{{\"packet\":{packet}}}}}"
            );
        }
        NocEvent::FlitChannel { at, channel, packet, seq, arrives } => {
            let dur = arrives - at;
            let _ = write!(
                out,
                "{{\"name\":\"flit\",\"cat\":\"channel\",\"ph\":\"X\",\
                 \"ts\":{at},\"dur\":{dur},\"pid\":{PID_CHANNELS},\"tid\":{channel},\
                 \"args\":{{\"packet\":{packet},\"seq\":{seq}}}}}"
            );
        }
        NocEvent::FlitBus { at, bus, writer, reader, packet, seq, busy_until } => {
            let dur = busy_until - at;
            let _ = write!(
                out,
                "{{\"name\":\"flit\",\"cat\":\"bus\",\"ph\":\"X\",\
                 \"ts\":{at},\"dur\":{dur},\"pid\":{PID_BUSES},\"tid\":{bus},\
                 \"args\":{{\"packet\":{packet},\"seq\":{seq},\
                 \"writer\":{writer},\"reader\":{reader}}}}}"
            );
        }
        NocEvent::FlitEjected { at, core, packet, seq } => {
            let _ = write!(
                out,
                "{{\"name\":\"eject\",\"cat\":\"packet\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_PACKETS},\"tid\":{core},\
                 \"args\":{{\"packet\":{packet},\"seq\":{seq}}}}}"
            );
        }
        NocEvent::PacketDelivered { at, packet, dst, latency } => {
            let _ = write!(
                out,
                "{{\"name\":\"deliver\",\"cat\":\"packet\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_PACKETS},\"tid\":{dst},\
                 \"args\":{{\"packet\":{packet},\"latency\":{latency}}}}}"
            );
        }
        NocEvent::TokenGranted { at, bus, writer, waited } => {
            // Render the wait itself as a span ending at the grant, so
            // arbitration pressure is visible as solid bars.
            let ts = at - waited;
            let _ = write!(
                out,
                "{{\"name\":\"token-wait\",\"cat\":\"token\",\"ph\":\"X\",\
                 \"ts\":{ts},\"dur\":{waited},\"pid\":{PID_TOKENS},\"tid\":{bus},\
                 \"args\":{{\"writer\":{writer},\"waited\":{waited}}}}}"
            );
        }
        NocEvent::BusBusy { at, bus, until } => {
            let dur = until - at;
            let _ = write!(
                out,
                "{{\"name\":\"busy\",\"cat\":\"medium\",\"ph\":\"X\",\
                 \"ts\":{at},\"dur\":{dur},\"pid\":{PID_TOKENS},\"tid\":{bus},\
                 \"args\":{{}}}}"
            );
        }
        NocEvent::BusIdle { at, bus } => {
            let _ = write!(
                out,
                "{{\"name\":\"idle\",\"cat\":\"medium\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_TOKENS},\"tid\":{bus},\"args\":{{}}}}"
            );
        }
        NocEvent::FlitCorrupted { at, target, packet, seq, retry } => {
            let (tk, tid) = target_parts(target);
            let _ = write!(
                out,
                "{{\"name\":\"corrupt\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_FAULTS},\"tid\":{tid},\
                 \"args\":{{\"medium\":\"{tk}\",\"packet\":{packet},\
                 \"seq\":{seq},\"retry\":{retry}}}}}"
            );
        }
        NocEvent::RetransmitScheduled { at, target, packet, seq, resend_at } => {
            let (tk, tid) = target_parts(target);
            let dur = resend_at - at;
            let _ = write!(
                out,
                "{{\"name\":\"retransmit\",\"cat\":\"fault\",\"ph\":\"X\",\
                 \"ts\":{at},\"dur\":{dur},\"pid\":{PID_FAULTS},\"tid\":{tid},\
                 \"args\":{{\"medium\":\"{tk}\",\"packet\":{packet},\"seq\":{seq}}}}}"
            );
        }
        NocEvent::LinkFailed { at, target, until } => {
            let (tk, tid) = target_parts(target);
            if until == u64::MAX {
                // Permanent fault: an instant, since the span never ends.
                let _ = write!(
                    out,
                    "{{\"name\":\"fail\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{at},\"pid\":{PID_FAULTS},\"tid\":{tid},\
                     \"args\":{{\"medium\":\"{tk}\",\"permanent\":true}}}}"
                );
            } else {
                let dur = until - at;
                let _ = write!(
                    out,
                    "{{\"name\":\"outage\",\"cat\":\"fault\",\"ph\":\"X\",\
                     \"ts\":{at},\"dur\":{dur},\"pid\":{PID_FAULTS},\"tid\":{tid},\
                     \"args\":{{\"medium\":\"{tk}\"}}}}"
                );
            }
        }
        NocEvent::LinkRecovered { at, target } => {
            let (tk, tid) = target_parts(target);
            let _ = write!(
                out,
                "{{\"name\":\"recover\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_FAULTS},\"tid\":{tid},\
                 \"args\":{{\"medium\":\"{tk}\"}}}}"
            );
        }
        NocEvent::FailoverActivated { at, target, up } => {
            let (tk, tid) = target_parts(target);
            let _ = write!(
                out,
                "{{\"name\":\"failover\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_FAULTS},\"tid\":{tid},\
                 \"args\":{{\"medium\":\"{tk}\",\"up\":{up}}}}}"
            );
        }
        NocEvent::OfferShed { at, core } => {
            let _ = write!(
                out,
                "{{\"name\":\"shed\",\"cat\":\"throttle\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_PACKETS},\"tid\":{core},\"args\":{{}}}}"
            );
        }
        NocEvent::OfferDeferred { at, core } => {
            let _ = write!(
                out,
                "{{\"name\":\"defer\",\"cat\":\"throttle\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_PACKETS},\"tid\":{core},\"args\":{{}}}}"
            );
        }
        NocEvent::SpareSteered { at, band, channel, active, protect } => {
            let _ = write!(
                out,
                "{{\"name\":\"steer\",\"cat\":\"reconfig\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_FAULTS},\"tid\":{band},\
                 \"args\":{{\"channel\":{channel},\"active\":{active},\
                 \"protect\":{protect}}}}}"
            );
        }
        NocEvent::CorruptionDetected { at, target, packet, seq, retry } => {
            let (tk, tid) = target_parts(target);
            let _ = write!(
                out,
                "{{\"name\":\"e2e-corrupt\",\"cat\":\"integrity\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_FAULTS},\"tid\":{tid},\
                 \"args\":{{\"medium\":\"{tk}\",\"packet\":{packet},\
                 \"seq\":{seq},\"retry\":{retry}}}}}"
            );
        }
        NocEvent::FlitSilentlyCorrupted { at, target, packet, seq, misroute } => {
            let (tk, tid) = target_parts(target);
            let _ = write!(
                out,
                "{{\"name\":\"silent-corrupt\",\"cat\":\"integrity\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_FAULTS},\"tid\":{tid},\
                 \"args\":{{\"medium\":\"{tk}\",\"packet\":{packet},\
                 \"seq\":{seq},\"misroute\":{misroute}}}}}"
            );
        }
        NocEvent::PacketRecovered { at, packet, src, dst, flits } => {
            let _ = write!(
                out,
                "{{\"name\":\"recovered\",\"cat\":\"integrity\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{at},\"pid\":{PID_PACKETS},\"tid\":{src},\
                 \"args\":{{\"packet\":{packet},\"dst\":{dst},\"flits\":{flits}}}}}"
            );
        }
    }
}

/// Render events as JSONL: one self-describing JSON object per line, in
/// event order. Suited to `jq`-style post-processing.
pub fn jsonl(events: &[NocEvent]) -> String {
    jsonl_with_stall(events, None)
}

/// [`jsonl`], appending the watchdog stall diagnostic (when one was
/// captured) as a final `"kind":"stall"` line — see [`stall_report_json`].
pub fn jsonl_with_stall(events: &[NocEvent], stall: Option<&StallReport>) -> String {
    let mut out = String::with_capacity(events.len() * 80);
    for ev in events {
        jsonl_event(&mut out, ev);
        out.push('\n');
    }
    if let Some(r) = stall {
        out.push_str(&stall_report_json(r));
        out.push('\n');
    }
    out
}

/// One [`StallReport`] as a single-line JSON object (`"kind":"stall"`),
/// complete: every stalled VC, token state, and claimed bus-ownership slot.
pub fn stall_report_json(r: &StallReport) -> String {
    let mut out = String::with_capacity(128 + r.stalled_vcs.len() * 96);
    let _ = write!(
        out,
        "{{\"kind\":\"stall\",\"at\":{},\"progressed_at\":{},\"budget_exhausted\":{},\
         \"cancelled\":{},\
         \"undelivered_packets\":{},\"flits_in_network\":{},\"source_backlog\":{},\
         \"flit_retransmits\":{},\"stalled_vcs\":[",
        r.at,
        r.progressed_at,
        r.budget_exhausted,
        r.cancelled,
        r.undelivered_packets,
        r.flits_in_network,
        r.source_backlog,
        r.flit_retransmits,
    );
    for (i, v) in r.stalled_vcs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"router\":{},\"in_port\":{},\"vc\":{},\"buffered\":{},\"head_packet\":",
            v.router, v.in_port, v.vc, v.buffered,
        );
        push_opt(&mut out, v.head_packet.map(u128::from));
        let _ = write!(out, ",\"state\":\"{}\",\"out_port\":", v.state);
        push_opt(&mut out, v.out_port.map(u128::from));
        out.push_str(",\"out_vc\":");
        push_opt(&mut out, v.out_vc.map(u128::from));
        out.push_str(",\"out_credits\":");
        push_opt(&mut out, v.out_credits.map(u128::from));
        let _ = write!(out, ",\"last_moved\":{}}}", v.last_moved);
    }
    out.push_str("],\"tokens\":[");
    for (i, t) in r.tokens.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"bus\":{},\"holder\":{},\"available_at\":{},\"frozen\":{}}}",
            t.bus, t.holder, t.available_at, t.frozen,
        );
    }
    out.push_str("],\"bus_owners\":[");
    for (i, o) in r.bus_owners.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"bus\":{},\"reader\":{},\"vc\":{},\"writer\":{}}}",
            o.bus, o.reader, o.vc, o.writer,
        );
    }
    out.push_str("]}");
    out
}

/// One [`RecoveryReport`] as a single-line JSON object (`"kind":"recovery"`):
/// the watchdog fired, and instead of aborting, these packets were drained
/// from the stalled virtual channels (poisoned, their buffer credits
/// returned) so the rest of the traffic could make progress again.
pub fn recovery_report_json(r: &RecoveryReport) -> String {
    let mut out = String::with_capacity(96 + r.recovered.len() * 64);
    let _ = write!(
        out,
        "{{\"kind\":\"recovery\",\"at\":{},\"budget\":{},\"flits_flushed\":{},\"recovered\":[",
        r.at,
        r.budget,
        r.flits_flushed(),
    );
    for (i, p) in r.recovered.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"packet\":{},\"src\":{},\"dst\":{},\"flits\":{}}}",
            p.packet, p.src, p.dst, p.flits,
        );
    }
    out.push_str("]}");
    out
}

/// `null` or the integer, for optional fields in hand-written JSON.
fn push_opt(out: &mut String, v: Option<u128>) {
    match v {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

fn jsonl_event(out: &mut String, ev: &NocEvent) {
    let kind = ev.kind().name();
    match *ev {
        NocEvent::PacketOffered { at, packet, src, dst, len } => {
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"packet\":{packet},\
                 \"src\":{src},\"dst\":{dst},\"len\":{len}}}"
            );
        }
        NocEvent::PacketInjected { at, packet, src } => {
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"packet\":{packet},\"src\":{src}}}"
            );
        }
        NocEvent::FlitChannel { at, channel, packet, seq, arrives } => {
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"channel\":{channel},\
                 \"packet\":{packet},\"seq\":{seq},\"arrives\":{arrives}}}"
            );
        }
        NocEvent::FlitBus { at, bus, writer, reader, packet, seq, busy_until } => {
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"bus\":{bus},\"writer\":{writer},\
                 \"reader\":{reader},\"packet\":{packet},\"seq\":{seq},\
                 \"busy_until\":{busy_until}}}"
            );
        }
        NocEvent::FlitEjected { at, core, packet, seq } => {
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"core\":{core},\
                 \"packet\":{packet},\"seq\":{seq}}}"
            );
        }
        NocEvent::PacketDelivered { at, packet, dst, latency } => {
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"packet\":{packet},\
                 \"dst\":{dst},\"latency\":{latency}}}"
            );
        }
        NocEvent::TokenGranted { at, bus, writer, waited } => {
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"bus\":{bus},\
                 \"writer\":{writer},\"waited\":{waited}}}"
            );
        }
        NocEvent::BusBusy { at, bus, until } => {
            let _ =
                write!(out, "{{\"kind\":\"{kind}\",\"at\":{at},\"bus\":{bus},\"until\":{until}}}");
        }
        NocEvent::BusIdle { at, bus } => {
            let _ = write!(out, "{{\"kind\":\"{kind}\",\"at\":{at},\"bus\":{bus}}}");
        }
        NocEvent::FlitCorrupted { at, target, packet, seq, retry } => {
            let (tk, tid) = target_parts(target);
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"medium\":\"{tk}\",\"id\":{tid},\
                 \"packet\":{packet},\"seq\":{seq},\"retry\":{retry}}}"
            );
        }
        NocEvent::RetransmitScheduled { at, target, packet, seq, resend_at } => {
            let (tk, tid) = target_parts(target);
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"medium\":\"{tk}\",\"id\":{tid},\
                 \"packet\":{packet},\"seq\":{seq},\"resend_at\":{resend_at}}}"
            );
        }
        NocEvent::LinkFailed { at, target, until } => {
            let (tk, tid) = target_parts(target);
            if until == u64::MAX {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"at\":{at},\"medium\":\"{tk}\",\"id\":{tid},\
                     \"permanent\":true}}"
                );
            } else {
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"at\":{at},\"medium\":\"{tk}\",\"id\":{tid},\
                     \"until\":{until}}}"
                );
            }
        }
        NocEvent::LinkRecovered { at, target } => {
            let (tk, tid) = target_parts(target);
            let _ =
                write!(out, "{{\"kind\":\"{kind}\",\"at\":{at},\"medium\":\"{tk}\",\"id\":{tid}}}");
        }
        NocEvent::FailoverActivated { at, target, up } => {
            let (tk, tid) = target_parts(target);
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"medium\":\"{tk}\",\"id\":{tid},\"up\":{up}}}"
            );
        }
        NocEvent::OfferShed { at, core } => {
            let _ = write!(out, "{{\"kind\":\"{kind}\",\"at\":{at},\"core\":{core}}}");
        }
        NocEvent::OfferDeferred { at, core } => {
            let _ = write!(out, "{{\"kind\":\"{kind}\",\"at\":{at},\"core\":{core}}}");
        }
        NocEvent::SpareSteered { at, band, channel, active, protect } => {
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"band\":{band},\"channel\":{channel},\
                 \"active\":{active},\"protect\":{protect}}}"
            );
        }
        NocEvent::CorruptionDetected { at, target, packet, seq, retry } => {
            let (tk, tid) = target_parts(target);
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"medium\":\"{tk}\",\"id\":{tid},\
                 \"packet\":{packet},\"seq\":{seq},\"retry\":{retry}}}"
            );
        }
        NocEvent::FlitSilentlyCorrupted { at, target, packet, seq, misroute } => {
            let (tk, tid) = target_parts(target);
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"medium\":\"{tk}\",\"id\":{tid},\
                 \"packet\":{packet},\"seq\":{seq},\"misroute\":{misroute}}}"
            );
        }
        NocEvent::PacketRecovered { at, packet, src, dst, flits } => {
            let _ = write!(
                out,
                "{{\"kind\":\"{kind}\",\"at\":{at},\"packet\":{packet},\
                 \"src\":{src},\"dst\":{dst},\"flits\":{flits}}}"
            );
        }
    }
}

/// Write a Chrome trace including the stall diagnostic, when one fired.
pub fn write_chrome_trace_with_stall(
    path: &Path,
    events: &[NocEvent],
    stall: Option<&StallReport>,
) -> io::Result<()> {
    std::fs::write(path, chrome_trace_with_stall(events, stall))
}

/// Write JSONL including the stall diagnostic line, when one fired.
pub fn write_jsonl_with_stall(
    path: &Path,
    events: &[NocEvent],
    stall: Option<&StallReport>,
) -> io::Result<()> {
    std::fs::write(path, jsonl_with_stall(events, stall))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<NocEvent> {
        vec![
            NocEvent::PacketOffered { at: 0, packet: 7, src: 1, dst: 2, len: 4 },
            NocEvent::PacketInjected { at: 2, packet: 7, src: 1 },
            NocEvent::FlitChannel { at: 5, channel: 3, packet: 7, seq: 0, arrives: 9 },
            NocEvent::FlitBus {
                at: 6,
                bus: 0,
                writer: 2,
                reader: 0,
                packet: 7,
                seq: 0,
                busy_until: 8,
            },
            NocEvent::TokenGranted { at: 6, bus: 0, writer: 2, waited: 4 },
            NocEvent::BusBusy { at: 6, bus: 0, until: 8 },
            NocEvent::BusIdle { at: 8, bus: 0 },
            NocEvent::FlitEjected { at: 12, core: 2, packet: 7, seq: 3 },
            NocEvent::PacketDelivered { at: 13, packet: 7, dst: 2, latency: 13 },
            NocEvent::LinkFailed { at: 14, target: FaultTarget::Channel(3), until: 40 },
            NocEvent::FlitCorrupted {
                at: 15,
                target: FaultTarget::Channel(3),
                packet: 8,
                seq: 0,
                retry: 1,
            },
            NocEvent::RetransmitScheduled {
                at: 15,
                target: FaultTarget::Channel(3),
                packet: 8,
                seq: 0,
                resend_at: 25,
            },
            NocEvent::FailoverActivated { at: 20, target: FaultTarget::Channel(3), up: false },
            NocEvent::LinkRecovered { at: 40, target: FaultTarget::Channel(3) },
            NocEvent::OfferShed { at: 41, core: 1 },
            NocEvent::OfferDeferred { at: 42, core: 1 },
            NocEvent::SpareSteered { at: 44, band: 13, channel: 9, active: true, protect: false },
            NocEvent::CorruptionDetected {
                at: 45,
                target: FaultTarget::Channel(3),
                packet: 9,
                seq: 1,
                retry: 1,
            },
            NocEvent::FlitSilentlyCorrupted {
                at: 46,
                target: FaultTarget::Bus(0),
                packet: 10,
                seq: 0,
                misroute: true,
            },
            NocEvent::PacketRecovered { at: 47, packet: 11, src: 1, dst: 2, flits: 4 },
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_rows() {
        let s = chrome_trace(&sample_events());
        let v: crate::json::Value = s.parse().expect("chrome trace must parse as JSON");
        let evs = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
        // 5 process metadata records + 20 events.
        assert_eq!(evs.len(), 25);
        let token_wait = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("token-wait"))
            .expect("token-wait span present");
        assert_eq!(
            token_wait.get("ts").and_then(|t| t.as_u64()),
            Some(2),
            "grant at 6 minus wait 4"
        );
        assert_eq!(token_wait.get("dur").and_then(|t| t.as_u64()), Some(4));
        assert!(evs.iter().any(|e| e.get("cat").and_then(|c| c.as_str()) == Some("channel")));
        // The transient outage renders as a 26-cycle span in the fault row.
        let outage = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("outage"))
            .expect("outage span present");
        assert_eq!(outage.get("dur").and_then(|t| t.as_u64()), Some(26));
        assert_eq!(outage.get("pid").and_then(|t| t.as_u64()), Some(PID_FAULTS as u64));
        // Spare-band steering renders in the faults process, row = band.
        let steer = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("steer"))
            .expect("steer instant present");
        assert_eq!(steer.get("cat").and_then(|c| c.as_str()), Some("reconfig"));
        assert_eq!(steer.get("tid").and_then(|t| t.as_u64()), Some(13));
        assert_eq!(steer["args"]["active"].as_bool(), Some(true));
        assert!(evs.iter().any(|e| e.get("name").and_then(|n| n.as_str()) == Some("shed")));
        // Integrity events render in the fault (detected/silent) and packet
        // (recovered) processes.
        let silent = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("silent-corrupt"))
            .expect("silent-corrupt instant present");
        assert_eq!(silent.get("cat").and_then(|c| c.as_str()), Some("integrity"));
        assert_eq!(silent["args"]["misroute"].as_bool(), Some(true));
        let rec = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("recovered"))
            .expect("recovered instant present");
        assert_eq!(rec.get("pid").and_then(|p| p.as_u64()), Some(PID_PACKETS as u64));
        assert_eq!(rec["args"]["flits"].as_u64(), Some(4));
    }

    #[test]
    fn jsonl_lines_parse_and_tag_kind() {
        let s = jsonl(&sample_events());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 20);
        for line in &lines {
            let v: crate::json::Value = line.parse().expect("each JSONL line parses");
            assert!(v.get("kind").and_then(|k| k.as_str()).is_some());
            assert!(v.get("at").and_then(|a| a.as_u64()).is_some());
        }
        assert!(lines[4].contains("\"kind\":\"token_granted\""));
        assert!(lines[10].contains("\"kind\":\"flit_corrupted\""));
        assert!(lines[12].contains("\"kind\":\"failover_activated\""));
        assert!(lines[14].contains("\"kind\":\"offer_shed\""));
        assert!(lines[15].contains("\"kind\":\"offer_deferred\""));
        assert!(lines[16].contains("\"kind\":\"spare_steered\""));
        assert!(lines[17].contains("\"kind\":\"corruption_detected\""));
        assert!(lines[18].contains("\"kind\":\"flit_silently_corrupted\""));
        assert!(lines[19].contains("\"kind\":\"packet_recovered\""));
    }

    #[test]
    fn permanent_failure_renders_as_instant() {
        let evs = [NocEvent::LinkFailed { at: 5, target: FaultTarget::Bus(2), until: u64::MAX }];
        let s = chrome_trace(&evs);
        let v: crate::json::Value = s.parse().unwrap();
        let fail = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("fail"))
            .expect("permanent failure instant");
        assert_eq!(fail["ph"].as_str(), Some("i"));
        assert_eq!(fail["args"]["permanent"].as_bool(), Some(true));
        let l = jsonl(&evs);
        assert!(l.contains("\"permanent\":true"), "{l}");
        assert!(!l.contains("18446744073709551615"), "no u64::MAX leaking into JSON");
    }

    #[test]
    fn recovery_report_json_is_one_complete_line() {
        use noc_core::RecoveredPacket;
        let r = RecoveryReport {
            at: 12288,
            budget: 4,
            recovered: vec![
                RecoveredPacket { packet: 77, src: 1, dst: 9, flits: 4 },
                RecoveredPacket { packet: 78, src: 2, dst: 3, flits: 1 },
            ],
        };
        let line = recovery_report_json(&r);
        assert!(!line.contains('\n'));
        let v: crate::json::Value = line.parse().expect("recovery line parses");
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("recovery"));
        assert_eq!(v.get("at").and_then(|a| a.as_u64()), Some(12288));
        assert_eq!(v.get("flits_flushed").and_then(|f| f.as_u64()), Some(5));
        let recs = v.get("recovered").and_then(|a| a.as_array()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].get("packet").and_then(|p| p.as_u64()), Some(77));
    }

    #[test]
    fn empty_trace_still_valid() {
        let s = chrome_trace(&[]);
        let v: crate::json::Value = s.parse().unwrap();
        assert_eq!(v.get("traceEvents").and_then(|e| e.as_array()).map(|a| a.len()), Some(5));
        assert_eq!(jsonl(&[]), "");
    }

    fn sample_stall() -> StallReport {
        use noc_core::watchdog::{BusOwner, StalledVc, TokenState};
        StallReport {
            at: 8192,
            progressed_at: 4096,
            budget_exhausted: false,
            cancelled: false,
            undelivered_packets: 3,
            flits_in_network: 9,
            source_backlog: 2,
            flit_retransmits: 57,
            stalled_vcs: vec![StalledVc {
                router: 4,
                in_port: 1,
                vc: 2,
                buffered: 3,
                head_packet: Some(77),
                state: "active",
                out_port: Some(5),
                out_vc: Some(0),
                out_credits: Some(0),
                last_moved: 4090,
                owner: Some(77),
            }],
            tokens: vec![TokenState { bus: 0, holder: 3, available_at: 4100, frozen: true }],
            bus_owners: vec![BusOwner { bus: 0, reader: 1, vc: 0, writer: 3 }],
        }
    }

    #[test]
    fn stall_report_json_is_one_complete_line() {
        let r = sample_stall();
        let line = stall_report_json(&r);
        assert!(!line.contains('\n'));
        let v: crate::json::Value = line.parse().expect("stall line parses");
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("stall"));
        assert_eq!(v.get("at").and_then(|a| a.as_u64()), Some(8192));
        assert_eq!(v.get("budget_exhausted").and_then(|b| b.as_bool()), Some(false));
        let vcs = v.get("stalled_vcs").and_then(|a| a.as_array()).unwrap();
        assert_eq!(vcs.len(), 1);
        assert_eq!(vcs[0].get("head_packet").and_then(|p| p.as_u64()), Some(77));
        assert_eq!(vcs[0].get("state").and_then(|s| s.as_str()), Some("active"));
        assert_eq!(vcs[0].get("out_credits").and_then(|c| c.as_u64()), Some(0));
        let tokens = v.get("tokens").and_then(|a| a.as_array()).unwrap();
        assert_eq!(tokens[0].get("frozen").and_then(|f| f.as_bool()), Some(true));
        assert_eq!(v.get("bus_owners").and_then(|a| a.as_array()).map(|a| a.len()), Some(1));
    }

    #[test]
    fn stall_null_fields_render_as_null() {
        let mut r = sample_stall();
        r.stalled_vcs[0].head_packet = None;
        r.stalled_vcs[0].out_port = None;
        r.stalled_vcs[0].out_vc = None;
        r.stalled_vcs[0].out_credits = None;
        let line = stall_report_json(&r);
        let v: crate::json::Value = line.parse().unwrap();
        let vc = &v.get("stalled_vcs").and_then(|a| a.as_array()).unwrap()[0];
        assert!(vc.get("head_packet").is_some_and(|p| p.as_u64().is_none()));
        assert!(vc.get("out_port").is_some_and(|p| p.as_u64().is_none()));
    }

    #[test]
    fn jsonl_with_stall_appends_one_line() {
        let events = sample_events();
        let r = sample_stall();
        let s = jsonl_with_stall(&events, Some(&r));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 21, "20 events + 1 stall line");
        assert!(lines[20].starts_with("{\"kind\":\"stall\""));
        // Without a stall, byte-identical to plain jsonl.
        assert_eq!(jsonl_with_stall(&events, None), jsonl(&events));
    }

    #[test]
    fn chrome_trace_with_stall_adds_watchdog_process() {
        let events = sample_events();
        let r = sample_stall();
        let s = chrome_trace_with_stall(&events, Some(&r));
        let v: crate::json::Value = s.parse().expect("trace with stall parses");
        let evs = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // 6 metadata + 20 events + 1 stall + 1 stalled VC + 1 token.
        assert_eq!(evs.len(), 29);
        let stall = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("stall"))
            .expect("stall instant present");
        assert_eq!(stall.get("pid").and_then(|p| p.as_u64()), Some(PID_WATCHDOG as u64));
        assert_eq!(
            stall.get("args").and_then(|a| a.get("stalled_vcs")).and_then(|n| n.as_u64()),
            Some(1)
        );
        assert!(evs.iter().any(|e| e.get("name").and_then(|n| n.as_str()) == Some("stalled-vc")));
        // Without a stall, byte-identical to the plain trace.
        assert_eq!(chrome_trace_with_stall(&events, None), chrome_trace(&events));
    }
}
