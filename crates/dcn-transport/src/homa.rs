//! A simplified Homa (Montazeri et al., SIGCOMM 2018).
//!
//! Homa is receiver-driven: a sender blindly transmits one `RTT_bytes`
//! window of *unscheduled* data, then sends further (*scheduled*) data only
//! as the receiver grants it. Packet priorities are assigned from message
//! sizes — short messages preempt long ones in the switch fabric's strict
//! priority queues (configure switches with 8 bands via
//! [`crate::Protocol::queue_setup`]).
//!
//! The paper uses Homa because "packets can be reordered — a challenging
//! extra feature for MimicNet" (§9.4.2): priorities let later short
//! messages overtake earlier long ones inside a cluster, which the Mimic
//! must reproduce statistically.
//!
//! Simplifications vs. the full protocol (documented per DESIGN.md):
//! per-message (not per-packet) priorities, grants paced per received
//! packet rather than per priority level, and timeout-driven RESENDs
//! expressed as non-increasing grants.
//!
//! Wire encoding on top of [`Packet`]: grants use `kind = Grant` with
//! `seq` = grant target, `meta` = receiver's cumulative prefix, and
//! `flags.syn` marking a RESEND request. Completion is an `Ack` with
//! `seq = flow_size`.

use crate::rto::Deadline;
use dcn_sim::packet::{Packet, PacketKind, MSS_BYTES};
use dcn_sim::snapshot::SnapWriter;
use dcn_sim::time::{SimDuration, SimTime};
use dcn_sim::transport::{Actions, FlowSpec, Transport, TransportCtx, TransportFactory};

/// Factory for Homa endpoints.
pub struct HomaFactory {
    /// Unscheduled window / grant overcommitment, bytes (≈ one BDP).
    pub rtt_bytes: u64,
    /// Gap-detection timeout at receivers and stall timeout at senders.
    pub resend_timeout: SimDuration,
    /// Segment payload size.
    pub mss: u32,
}

impl Default for HomaFactory {
    fn default() -> Self {
        HomaFactory {
            // ~10 full segments: one BDP of the scaled-down network.
            rtt_bytes: 15_000,
            resend_timeout: SimDuration::from_millis(20),
            mss: MSS_BYTES,
        }
    }
}

impl TransportFactory for HomaFactory {
    fn name(&self) -> &'static str {
        "homa"
    }

    fn sender(&self, flow: &FlowSpec) -> Box<dyn Transport> {
        Box::new(HomaSender {
            flow: flow.clone(),
            rtt_bytes: self.rtt_bytes,
            mss: self.mss,
            resend_timeout: self.resend_timeout,
            snd_nxt: 0,
            granted: 0,
            completed: false,
            timer: Deadline::default(),
            retransmits: 0,
        })
    }

    fn receiver(&self, flow: &FlowSpec) -> Box<dyn Transport> {
        Box::new(HomaReceiver {
            flow: flow.clone(),
            rtt_bytes: self.rtt_bytes,
            resend_timeout: self.resend_timeout,
            ranges: Vec::new(),
            delivered: 0,
            granted_sent: 0,
            timer: Deadline::default(),
            completed: false,
        })
    }
}

/// Priority of an *unscheduled* packet, from total message size
/// (smaller message → higher priority). Band 0 is reserved for control.
fn unscheduled_prio(msg_bytes: u64, mss: u32) -> u8 {
    let m = mss as u64;
    if msg_bytes <= m {
        1
    } else if msg_bytes <= 4 * m {
        2
    } else {
        3
    }
}

/// Priority of a *scheduled* packet, from remaining bytes (SRPT-style).
fn scheduled_prio(remaining: u64, mss: u32) -> u8 {
    let m = mss as u64;
    if remaining <= 8 * m {
        4
    } else if remaining <= 32 * m {
        5
    } else if remaining <= 128 * m {
        6
    } else {
        7
    }
}

/// The sending side of a Homa message.
pub struct HomaSender {
    flow: FlowSpec,
    rtt_bytes: u64,
    mss: u32,
    resend_timeout: SimDuration,
    snd_nxt: u64,
    granted: u64,
    completed: bool,
    timer: Deadline,
    /// Retransmitted segments (tests/instrumentation).
    pub retransmits: u64,
}

impl HomaSender {
    fn make_segment(&self, seq: u64, unscheduled: bool, ctx: &mut TransportCtx) -> Packet {
        let payload = (self.mss as u64).min(self.flow.size_bytes - seq) as u32;
        let mut p = Packet::data(
            ctx.ids.next(),
            self.flow.id,
            self.flow.src,
            self.flow.dst,
            seq,
            payload,
            false,
            ctx.now,
        );
        p.flow_size = self.flow.size_bytes;
        p.prio = if unscheduled {
            unscheduled_prio(self.flow.size_bytes, self.mss)
        } else {
            scheduled_prio(self.flow.size_bytes - seq, self.mss)
        };
        if seq + payload as u64 >= self.flow.size_bytes {
            p.flags.fin = true;
        }
        p
    }

    fn send_up_to_grant(&mut self, ctx: &mut TransportCtx, out: &mut Actions) {
        let unscheduled_limit = self.rtt_bytes.min(self.flow.size_bytes);
        while self.snd_nxt < self.granted {
            let unscheduled = self.snd_nxt < unscheduled_limit;
            let seg = self.make_segment(self.snd_nxt, unscheduled, ctx);
            self.snd_nxt += seg.payload as u64;
            out.sends.push(seg);
        }
    }
}

impl Transport for HomaSender {
    fn on_start(&mut self, ctx: &mut TransportCtx, out: &mut Actions) {
        self.granted = self.rtt_bytes.min(self.flow.size_bytes);
        self.send_up_to_grant(ctx, out);
        self.timer.arm(ctx.now, self.resend_timeout, out);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut TransportCtx, out: &mut Actions) {
        if self.completed {
            return;
        }
        match pkt.kind {
            PacketKind::Grant => {
                if pkt.echo > SimTime::ZERO {
                    out.rtt_samples.push(ctx.now.since(pkt.echo));
                }
                self.granted = self.granted.max(pkt.seq.min(self.flow.size_bytes));
                if pkt.flags.syn {
                    // RESEND request: rewind to the receiver's prefix.
                    if pkt.meta < self.snd_nxt {
                        self.retransmits += 1;
                        self.snd_nxt = pkt.meta;
                    }
                }
                self.send_up_to_grant(ctx, out);
                self.timer.arm(ctx.now, self.resend_timeout, out);
            }
            PacketKind::Ack => {
                if pkt.echo > SimTime::ZERO {
                    out.rtt_samples.push(ctx.now.since(pkt.echo));
                }
                if pkt.seq >= self.flow.size_bytes {
                    self.completed = true;
                    out.completed = true;
                }
            }
            PacketKind::Data => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut TransportCtx, out: &mut Actions) {
        if self.completed || !self.timer.fire(token, ctx.now, out) {
            return;
        }
        // Stall: nudge the receiver with the first segment (covers the case
        // where every unscheduled packet — or the receiver's response —
        // was lost). The receiver's own gap timer requests precise resends.
        let seg = self.make_segment(0, true, ctx);
        self.retransmits += 1;
        out.sends.push(seg);
        self.timer.arm(ctx.now, self.resend_timeout, out);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.snd_nxt);
        w.put_u64(self.granted);
        w.put_bool(self.completed);
        self.timer.save_state(w);
        w.put_u64(self.retransmits);
    }

    fn reset(&mut self, spec: &FlowSpec) {
        // `rtt_bytes`/`mss`/`resend_timeout` are factory parameters and
        // carry over; everything else mirrors `HomaFactory::sender`.
        self.flow = spec.clone();
        self.snd_nxt = 0;
        self.granted = 0;
        self.completed = false;
        self.timer = Deadline::default();
        self.retransmits = 0;
    }
}

/// The receiving side of a Homa message: reassembly, grant pacing, and
/// timeout-driven RESENDs.
pub struct HomaReceiver {
    flow: FlowSpec,
    rtt_bytes: u64,
    resend_timeout: SimDuration,
    ranges: Vec<(u64, u64)>,
    delivered: u64,
    granted_sent: u64,
    timer: Deadline,
    completed: bool,
}

impl HomaReceiver {
    /// In-place range merge — no per-packet rebuild of the reassembly
    /// buffer (the receive path is an engine hot path; see
    /// `dcn-sim/tests/alloc_steady_state.rs`).
    fn insert(&mut self, start: u64, end: u64) {
        dcn_sim::transport::merge_range(&mut self.ranges, start, end);
    }

    fn cum(&self) -> u64 {
        match self.ranges.first() {
            Some(&(0, e)) => e,
            _ => 0,
        }
    }

    fn grant_packet(&self, target: u64, resend: bool, echo: SimTime, ctx: &mut TransportCtx) -> Packet {
        let mut p = Packet::ack(
            ctx.ids.next(),
            self.flow.id,
            self.flow.dst,
            self.flow.src,
            target,
            false,
            echo,
            ctx.now,
        );
        p.kind = PacketKind::Grant;
        p.meta = self.cum();
        p.flags.syn = resend;
        p.prio = 0; // control traffic rides the highest band
        p
    }
}

impl Transport for HomaReceiver {
    fn on_start(&mut self, _ctx: &mut TransportCtx, _out: &mut Actions) {}

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut TransportCtx, out: &mut Actions) {
        if pkt.kind != PacketKind::Data || self.completed {
            return;
        }
        self.insert(pkt.seq, pkt.seq + pkt.payload as u64);
        let cum = self.cum();
        if cum > self.delivered {
            out.delivered = cum - self.delivered;
            self.delivered = cum;
        }
        if cum >= self.flow.size_bytes {
            // Complete: final ack doubles as the FCT signal.
            let mut ack = Packet::ack(
                ctx.ids.next(),
                self.flow.id,
                self.flow.dst,
                self.flow.src,
                self.flow.size_bytes,
                false,
                pkt.sent_at,
                ctx.now,
            );
            ack.prio = 0;
            out.sends.push(ack);
            self.completed = true;
            out.completed = true;
            return;
        }
        // Grant pacing: keep one rtt_bytes of data granted beyond the
        // received prefix.
        let target = (cum + self.rtt_bytes).min(self.flow.size_bytes);
        if target > self.granted_sent {
            self.granted_sent = target;
            let g = self.grant_packet(target, false, pkt.sent_at, ctx);
            out.sends.push(g);
        }
        self.timer.arm(ctx.now, self.resend_timeout, out);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut TransportCtx, out: &mut Actions) {
        if self.completed || !self.timer.fire(token, ctx.now, out) {
            return;
        }
        // Gap/stall: ask for a resend from our prefix, re-granting up to
        // the usual window.
        let target = (self.cum() + self.rtt_bytes).min(self.flow.size_bytes);
        self.granted_sent = self.granted_sent.max(target);
        let g = self.grant_packet(self.granted_sent, true, SimTime::ZERO, ctx);
        out.sends.push(g);
        self.timer.arm(ctx.now, self.resend_timeout, out);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.ranges.len() as u64);
        for &(s, e) in &self.ranges {
            w.put_u64(s);
            w.put_u64(e);
        }
        w.put_u64(self.delivered);
        w.put_u64(self.granted_sent);
        self.timer.save_state(w);
        w.put_bool(self.completed);
    }

    fn reset(&mut self, spec: &FlowSpec) {
        // `rtt_bytes`/`resend_timeout` are factory parameters and carry
        // over; everything else mirrors `HomaFactory::receiver`.
        self.flow = spec.clone();
        self.ranges.clear(); // keeps capacity
        self.delivered = 0;
        self.granted_sent = 0;
        self.timer = Deadline::default();
        self.completed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::packet::FlowId;
    use dcn_sim::topology::NodeId;
    use dcn_sim::transport::PacketIdAlloc;

    fn spec(size: u64) -> FlowSpec {
        FlowSpec {
            id: FlowId(3),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: size,
            start: SimTime::ZERO,
        }
    }

    fn ctx<'a>(ids: &'a mut PacketIdAlloc, t: f64) -> TransportCtx<'a> {
        TransportCtx {
            now: SimTime::from_secs_f64(t),
            ids,
        }
    }

    #[test]
    fn priorities_order_by_size() {
        assert!(unscheduled_prio(500, 1460) < unscheduled_prio(10_000, 1460));
        assert!(scheduled_prio(1_000, 1460) < scheduled_prio(1_000_000, 1460));
        // Control band is strictly higher than any data band.
        assert!(unscheduled_prio(1, 1460) > 0);
    }

    #[test]
    fn short_message_is_all_unscheduled() {
        let f = HomaFactory::default();
        let mut s = f.sender(&spec(4_000));
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        s.on_start(&mut ctx(&mut ids, 0.0), &mut out);
        // 4000 B < rtt_bytes: all sent immediately.
        let sent: u64 = out.sends.iter().map(|p| p.payload as u64).sum();
        assert_eq!(sent, 4_000);
        assert!(out.sends.iter().all(|p| p.prio == 2)); // <= 4 MSS class
        assert!(out.sends.last().unwrap().flags.fin);
    }

    #[test]
    fn long_message_waits_for_grants() {
        let f = HomaFactory::default();
        let size = 100_000;
        let mut s = f.sender(&spec(size));
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        s.on_start(&mut ctx(&mut ids, 0.0), &mut out);
        let sent: u64 = out.sends.iter().map(|p| p.payload as u64).sum();
        assert!(sent <= 15_000 + MSS_BYTES as u64, "unscheduled window only");
        // A grant extends transmission with scheduled priority.
        out.clear();
        let mut grant = Packet::ack(9, FlowId(3), NodeId(1), NodeId(0), 30_000, false, SimTime::ZERO, SimTime::ZERO);
        grant.kind = PacketKind::Grant;
        grant.meta = 15_000;
        s.on_packet(&grant, &mut ctx(&mut ids, 0.005), &mut out);
        assert!(!out.sends.is_empty());
        assert!(out.sends.iter().all(|p| p.prio >= 4), "scheduled bands");
        let sent2: u64 = out.sends.iter().map(|p| p.payload as u64).sum();
        assert!(sent + sent2 <= 30_000 + MSS_BYTES as u64);
    }

    #[test]
    fn receiver_grants_and_completes() {
        let f = HomaFactory::default();
        let size = 30_000u64;
        let mut r = f.receiver(&spec(size));
        let mut ids = PacketIdAlloc::new(NodeId(1));
        let mut out = Actions::default();
        let mk = |seq: u64, payload: u32| {
            let mut p = Packet::data(seq + 1, FlowId(3), NodeId(0), NodeId(1), seq, payload, false, SimTime::from_secs_f64(0.001));
            p.flow_size = size;
            p
        };
        r.on_packet(&mk(0, 1460), &mut ctx(&mut ids, 0.002), &mut out);
        // Receiver should emit a grant beyond the unscheduled window.
        let grants: Vec<&Packet> = out.sends.iter().filter(|p| p.kind == PacketKind::Grant).collect();
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].seq, 1460 + 15_000);
        assert_eq!(grants[0].meta, 1460);
        assert!(!grants[0].flags.syn);
        // Deliver the rest in order; final packet triggers the ack.
        let mut seq = 1460u64;
        let mut completed = false;
        while seq < size {
            out.clear();
            let payload = 1460.min(size - seq) as u32;
            r.on_packet(&mk(seq, payload), &mut ctx(&mut ids, 0.003), &mut out);
            seq += payload as u64;
            if out.completed {
                completed = true;
                assert!(out
                    .sends
                    .iter()
                    .any(|p| p.kind == PacketKind::Ack && p.seq == size));
            }
        }
        assert!(completed);
    }

    #[test]
    fn receiver_gap_timer_requests_resend() {
        let f = HomaFactory::default();
        let size = 30_000u64;
        let mut r = f.receiver(&spec(size));
        let mut ids = PacketIdAlloc::new(NodeId(1));
        let mut out = Actions::default();
        // Packet at offset 2920 arrives but 0..2920 is missing.
        let mut p = Packet::data(5, FlowId(3), NodeId(0), NodeId(1), 2920, 1460, false, SimTime::ZERO);
        p.flow_size = size;
        r.on_packet(&p, &mut at_ms(&mut ids, 1), &mut out);
        assert_eq!(out.timers, vec![(SimDuration::from_millis(20), 1)]);
        out.clear();
        r.on_timer(1, &mut at_ms(&mut ids, 21), &mut out);
        let g = out.sends.iter().find(|p| p.kind == PacketKind::Grant).unwrap();
        assert!(g.flags.syn, "gap timer sends a RESEND grant");
        assert_eq!(g.meta, 0, "prefix is empty");
    }

    #[test]
    fn sender_rewinds_on_resend_grant() {
        let f = HomaFactory::default();
        let mut s = f.sender(&spec(30_000));
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        s.on_start(&mut ctx(&mut ids, 0.0), &mut out);
        out.clear();
        let mut g = Packet::ack(9, FlowId(3), NodeId(1), NodeId(0), 16_460, false, SimTime::ZERO, SimTime::ZERO);
        g.kind = PacketKind::Grant;
        g.meta = 0;
        g.flags.syn = true; // resend everything
        s.on_packet(&g, &mut ctx(&mut ids, 0.03), &mut out);
        assert_eq!(out.sends[0].seq, 0, "rewound to receiver prefix");
        let sent: u64 = out.sends.iter().map(|p| p.payload as u64).sum();
        assert!(sent >= 15_000);
    }

    #[test]
    fn sender_completes_on_final_ack() {
        let f = HomaFactory::default();
        let mut s = f.sender(&spec(4_000));
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        s.on_start(&mut ctx(&mut ids, 0.0), &mut out);
        out.clear();
        let ack = Packet::ack(9, FlowId(3), NodeId(1), NodeId(0), 4_000, false, SimTime::from_secs_f64(0.001), SimTime::from_secs_f64(0.004));
        s.on_packet(&ack, &mut ctx(&mut ids, 0.004), &mut out);
        assert!(out.completed);
        assert_eq!(out.rtt_samples.len(), 1);
    }

    fn at_ms<'a>(ids: &'a mut PacketIdAlloc, t: u64) -> TransportCtx<'a> {
        TransportCtx {
            now: SimTime::ZERO + SimDuration::from_millis(t),
            ids,
        }
    }

    #[test]
    fn sender_stall_timer_nudges() {
        let ms = SimDuration::from_millis;
        let f = HomaFactory::default();
        let mut s = f.sender(&spec(100_000));
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        s.on_start(&mut at_ms(&mut ids, 0), &mut out);
        assert_eq!(out.timers, vec![(ms(20), 1)]);
        // Grants push the stall deadline out without new timers.
        let mut grant = Packet::ack(9, FlowId(3), NodeId(1), NodeId(0), 15_000, false, SimTime::ZERO, SimTime::ZERO);
        grant.kind = PacketKind::Grant;
        for t in [5, 8] {
            out.clear();
            s.on_packet(&grant, &mut at_ms(&mut ids, t), &mut out);
            assert!(out.timers.is_empty());
        }
        // The pending timer fires early and re-arms for the remainder.
        out.clear();
        s.on_timer(1, &mut at_ms(&mut ids, 20), &mut out);
        assert!(out.sends.is_empty());
        assert_eq!(out.timers, vec![(ms(8), 3)]);
        // At the deadline the sender nudges with the first segment.
        out.clear();
        s.on_timer(3, &mut at_ms(&mut ids, 28), &mut out);
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].seq, 0);
        assert_eq!(out.timers, vec![(ms(20), 4)]);
        // Stale token is ignored.
        out.clear();
        s.on_timer(3, &mut at_ms(&mut ids, 48), &mut out);
        assert!(out.sends.is_empty() && out.timers.is_empty());
    }

    #[test]
    fn receiver_gap_timer_tracks_the_last_packet() {
        let ms = SimDuration::from_millis;
        let f = HomaFactory::default();
        let size = 30_000u64;
        let mut r = f.receiver(&spec(size));
        let mut ids = PacketIdAlloc::new(NodeId(1));
        let mut out = Actions::default();
        // Out-of-order data keeps arriving; only the first arms a timer.
        for (i, t) in [1, 2, 3].into_iter().enumerate() {
            let seq = 2920 * (i as u64 + 1);
            let mut p = Packet::data(5 + i as u64, FlowId(3), NodeId(0), NodeId(1), seq, 1460, false, SimTime::ZERO);
            p.flow_size = size;
            r.on_packet(&p, &mut at_ms(&mut ids, t), &mut out);
        }
        assert_eq!(out.timers, vec![(ms(20), 1)]);
        // Fired at the first packet's deadline, 2 ms before the last one's.
        out.clear();
        r.on_timer(1, &mut at_ms(&mut ids, 21), &mut out);
        assert!(out.sends.is_empty(), "gap timer fired before the deadline");
        assert_eq!(out.timers, vec![(ms(2), 3)]);
        out.clear();
        r.on_timer(3, &mut at_ms(&mut ids, 23), &mut out);
        let g = out.sends.iter().find(|p| p.kind == PacketKind::Grant).unwrap();
        assert!(g.flags.syn, "gap timer sends a RESEND grant");
    }
}
