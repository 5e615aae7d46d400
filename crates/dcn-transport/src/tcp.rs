//! The shared TCP sender/receiver state machine.
//!
//! One loss-detection engine — cumulative acks, dup-ack counting, New Reno
//! fast retransmit/recovery with partial-ack retransmission, RFC 6298
//! timeouts with Karn backoff — hosts all four TCP variants through the
//! [`CongControl`] strategy interface. This mirrors the structure of the
//! INET stack the paper builds on, where TCP flavours share one connection
//! machine.

use crate::cc::{AckCtx, CongControl, Windows};
use crate::rto::{Deadline, RttEstimator};
use dcn_sim::packet::{Ecn, Packet, PacketKind, MSS_BYTES};
use dcn_sim::snapshot::SnapWriter;
use dcn_sim::time::SimTime;
use dcn_sim::transport::{Actions, FlowSpec, Transport, TransportCtx, TransportFactory};

/// Initial congestion window in segments.
const INIT_CWND_PKTS: u32 = 2;
/// Dup-acks before fast retransmit.
const DUPACK_THRESH: u32 = 3;

/// Which congestion controller a [`TcpFactory`] instantiates.
#[derive(Clone, Copy, Debug)]
pub enum CcKind {
    Reno,
    Dctcp,
    Vegas,
    Westwood,
}

/// Factory producing TCP endpoints of a chosen flavour.
pub struct TcpFactory {
    pub kind: CcKind,
}

impl TcpFactory {
    pub fn new_reno() -> TcpFactory {
        TcpFactory { kind: CcKind::Reno }
    }

    pub fn dctcp() -> TcpFactory {
        TcpFactory {
            kind: CcKind::Dctcp,
        }
    }

    pub fn vegas() -> TcpFactory {
        TcpFactory {
            kind: CcKind::Vegas,
        }
    }

    pub fn westwood() -> TcpFactory {
        TcpFactory {
            kind: CcKind::Westwood,
        }
    }

    fn make_cc(&self) -> Box<dyn CongControl> {
        match self.kind {
            CcKind::Reno => Box::new(crate::newreno::RenoCc),
            CcKind::Dctcp => Box::new(crate::dctcp::DctcpCc::new(crate::dctcp::G)),
            CcKind::Vegas => Box::new(crate::vegas::VegasCc::default()),
            CcKind::Westwood => Box::new(crate::westwood::WestwoodCc::new()),
        }
    }

    fn echo_ecn(&self) -> bool {
        matches!(self.kind, CcKind::Dctcp)
    }
}

impl TransportFactory for TcpFactory {
    fn name(&self) -> &'static str {
        match self.kind {
            CcKind::Reno => "tcp-newreno",
            CcKind::Dctcp => "dctcp",
            CcKind::Vegas => "tcp-vegas",
            CcKind::Westwood => "tcp-westwood",
        }
    }

    fn sender(&self, flow: &FlowSpec) -> Box<dyn Transport> {
        Box::new(TcpSender::new(flow.clone(), self.make_cc()))
    }

    fn receiver(&self, flow: &FlowSpec) -> Box<dyn Transport> {
        Box::new(TcpReceiver::new(flow.clone(), self.echo_ecn()))
    }
}

/// The TCP sender state machine.
pub struct TcpSender {
    flow: FlowSpec,
    cc: Box<dyn CongControl>,
    rtt: RttEstimator,
    w: Windows,
    /// First unacknowledged byte.
    snd_una: u64,
    /// Next byte to send.
    snd_nxt: u64,
    dup_acks: u32,
    /// Fast-recovery exit point, if in recovery.
    recover: Option<u64>,
    timer: Deadline,
    completed: bool,
    /// Retransmissions performed (exposed for tests/instrumentation).
    pub retransmits: u64,
}

impl TcpSender {
    pub fn new(flow: FlowSpec, cc: Box<dyn CongControl>) -> TcpSender {
        TcpSender {
            w: Windows::new(MSS_BYTES, INIT_CWND_PKTS),
            flow,
            cc,
            rtt: RttEstimator::dc_default(),
            snd_una: 0,
            snd_nxt: 0,
            dup_acks: 0,
            recover: None,
            timer: Deadline::default(),
            completed: false,
            retransmits: 0,
        }
    }

    /// Current congestion window in bytes (for tests).
    pub fn cwnd(&self) -> f64 {
        self.w.cwnd
    }

    fn make_segment(&self, seq: u64, ctx: &mut TransportCtx) -> Packet {
        let payload = (MSS_BYTES as u64).min(self.flow.size_bytes - seq) as u32;
        let mut p = Packet::data(
            ctx.ids.next(),
            self.flow.id,
            self.flow.src,
            self.flow.dst,
            seq,
            payload,
            self.cc.ecn_capable(),
            ctx.now,
        );
        p.flow_size = self.flow.size_bytes;
        if seq + payload as u64 >= self.flow.size_bytes {
            p.flags.fin = true;
        }
        p
    }

    fn send_available(&mut self, ctx: &mut TransportCtx, out: &mut Actions) {
        while self.snd_nxt < self.flow.size_bytes
            && ((self.snd_nxt - self.snd_una) as f64) < self.w.cwnd
        {
            let seg = self.make_segment(self.snd_nxt, ctx);
            self.snd_nxt += seg.payload as u64;
            out.sends.push(seg);
        }
    }

    fn retransmit_at(&mut self, seq: u64, ctx: &mut TransportCtx, out: &mut Actions) {
        let seg = self.make_segment(seq, ctx);
        self.retransmits += 1;
        out.sends.push(seg);
    }

    fn handle_new_ack(&mut self, pkt: &Packet, ctx: &mut TransportCtx, out: &mut Actions) {
        let newly = pkt.seq - self.snd_una;
        self.snd_una = pkt.seq;
        // If a timeout rewound snd_nxt and acks for the original (pre-RTO)
        // transmissions then arrive, snd_una can overtake snd_nxt.
        self.snd_nxt = self.snd_nxt.max(self.snd_una);
        self.dup_acks = 0;
        let rtt_sample = if pkt.echo > SimTime::ZERO {
            let s = ctx.now.since(pkt.echo);
            self.rtt.sample(s);
            out.rtt_samples.push(s);
            Some(s)
        } else {
            None
        };

        match self.recover {
            Some(rec) if self.snd_una < rec => {
                // Partial ack (New Reno): the next hole was also lost.
                // Retransmit it and deflate the inflated window.
                self.retransmit_at(self.snd_una, ctx, out);
                self.w.cwnd = (self.w.cwnd - newly as f64 + self.w.mss).max(self.w.mss);
            }
            Some(_) => {
                // Full ack: leave recovery.
                self.recover = None;
                self.w.cwnd = self.w.ssthresh;
                self.w.clamp();
            }
            None => {
                self.cc.on_ack(
                    &AckCtx {
                        newly_acked: newly,
                        rtt_sample,
                        ece: pkt.flags.ece,
                        now: ctx.now,
                        snd_una: self.snd_una,
                        snd_nxt: self.snd_nxt,
                        in_recovery: false,
                    },
                    &mut self.w,
                );
                self.w.clamp();
            }
        }

        if self.snd_una >= self.flow.size_bytes {
            self.completed = true;
            out.completed = true;
            return;
        }
        self.send_available(ctx, out);
        self.timer.arm(ctx.now, self.rtt.rto(), out);
    }

    fn handle_dup_ack(&mut self, ctx: &mut TransportCtx, out: &mut Actions) {
        self.dup_acks += 1;
        if self.recover.is_some() {
            // Window inflation during recovery keeps the pipe full.
            self.w.cwnd += self.w.mss;
            self.send_available(ctx, out);
        } else if self.dup_acks == DUPACK_THRESH {
            let flight = self.snd_nxt - self.snd_una;
            self.cc.on_fast_loss(ctx.now, flight, &mut self.w);
            self.recover = Some(self.snd_nxt);
            // Inflate by the dup-acked segments that left the network.
            self.w.cwnd = self.w.ssthresh + DUPACK_THRESH as f64 * self.w.mss;
            self.retransmit_at(self.snd_una, ctx, out);
            self.timer.arm(ctx.now, self.rtt.rto(), out);
        }
    }
}

impl Transport for TcpSender {
    fn on_start(&mut self, ctx: &mut TransportCtx, out: &mut Actions) {
        self.send_available(ctx, out);
        self.timer.arm(ctx.now, self.rtt.rto(), out);
    }

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut TransportCtx, out: &mut Actions) {
        if pkt.kind != PacketKind::Ack || self.completed {
            return;
        }
        if pkt.seq > self.snd_una {
            self.handle_new_ack(pkt, ctx, out);
        } else if pkt.seq == self.snd_una && self.snd_nxt > self.snd_una {
            self.handle_dup_ack(ctx, out);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut TransportCtx, out: &mut Actions) {
        if self.completed || !self.timer.fire(token, ctx.now, out) {
            return;
        }
        // Retransmission timeout: collapse and go back to snd_una.
        let flight = self.snd_nxt - self.snd_una;
        self.rtt.on_timeout();
        self.cc.on_timeout(ctx.now, flight, &mut self.w);
        self.w.clamp();
        self.recover = None;
        self.dup_acks = 0;
        self.snd_nxt = self.snd_una;
        self.retransmits += 1;
        self.send_available(ctx, out);
        self.timer.arm(ctx.now, self.rtt.rto(), out);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.rtt.save_state(w);
        w.put_f64(self.w.cwnd);
        w.put_f64(self.w.ssthresh);
        w.put_f64(self.w.mss);
        w.put_u64(self.snd_una);
        w.put_u64(self.snd_nxt);
        w.put_u32(self.dup_acks);
        w.put_opt_u64(self.recover);
        self.timer.save_state(w);
        w.put_bool(self.completed);
        w.put_u64(self.retransmits);
        self.cc.save_state(w);
    }

    fn reset(&mut self, spec: &FlowSpec) {
        self.cc.reset();
        // Mirror `TcpSender::new` field by field.
        self.flow = spec.clone();
        self.w = Windows::new(MSS_BYTES, INIT_CWND_PKTS);
        self.rtt.reset();
        self.snd_una = 0;
        self.snd_nxt = 0;
        self.dup_acks = 0;
        self.recover = None;
        self.timer = Deadline::default();
        self.completed = false;
        self.retransmits = 0;
    }
}

/// The TCP receiver: cumulative acks over a range-merging reassembly
/// buffer; optional per-packet ECN echo (DCTCP's receiver behaviour).
pub struct TcpReceiver {
    flow: FlowSpec,
    /// Sorted disjoint received [start, end) ranges.
    ranges: Vec<(u64, u64)>,
    delivered: u64,
    echo_ecn: bool,
}

impl TcpReceiver {
    pub fn new(flow: FlowSpec, echo_ecn: bool) -> TcpReceiver {
        TcpReceiver {
            flow,
            ranges: Vec::new(),
            delivered: 0,
            echo_ecn,
        }
    }

    /// In-place range merge — no per-packet rebuild of the reassembly
    /// buffer (the receive path is an engine hot path; see
    /// `dcn-sim/tests/alloc_steady_state.rs`).
    fn insert(&mut self, start: u64, end: u64) {
        dcn_sim::transport::merge_range(&mut self.ranges, start, end);
    }

    fn cum_ack(&self) -> u64 {
        match self.ranges.first() {
            Some(&(0, e)) => e,
            _ => 0,
        }
    }
}

impl Transport for TcpReceiver {
    fn on_start(&mut self, _ctx: &mut TransportCtx, _out: &mut Actions) {}

    fn on_packet(&mut self, pkt: &Packet, ctx: &mut TransportCtx, out: &mut Actions) {
        if pkt.kind != PacketKind::Data {
            return;
        }
        self.insert(pkt.seq, pkt.seq + pkt.payload as u64);
        let cum = self.cum_ack();
        if cum > self.delivered {
            out.delivered = cum - self.delivered;
            self.delivered = cum;
        }
        let ece = self.echo_ecn && pkt.ecn == Ecn::Ce;
        out.sends.push(Packet::ack(
            ctx.ids.next(),
            self.flow.id,
            self.flow.dst,
            self.flow.src,
            cum,
            ece,
            pkt.sent_at,
            ctx.now,
        ));
        if self.delivered >= self.flow.size_bytes {
            out.completed = true;
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut TransportCtx, _out: &mut Actions) {}

    fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.ranges.len() as u64);
        for &(s, e) in &self.ranges {
            w.put_u64(s);
            w.put_u64(e);
        }
        w.put_u64(self.delivered);
        w.put_bool(self.echo_ecn);
    }

    fn reset(&mut self, spec: &FlowSpec) {
        // `echo_ecn` is a factory parameter and carries over.
        self.flow = spec.clone();
        self.ranges.clear(); // keeps capacity
        self.delivered = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::packet::{FlowId, MSS_BYTES};
    use dcn_sim::time::SimDuration;
    use dcn_sim::topology::NodeId;
    use dcn_sim::transport::PacketIdAlloc;

    pub(crate) fn spec(size: u64) -> FlowSpec {
        FlowSpec {
            id: FlowId(7),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: size,
            start: SimTime::ZERO,
        }
    }

    fn ctx_at<'a>(ids: &'a mut PacketIdAlloc, t: f64) -> TransportCtx<'a> {
        TransportCtx {
            now: SimTime::from_secs_f64(t),
            ids,
        }
    }

    fn ack(seq: u64, echo: f64, now: f64, ece: bool) -> Packet {
        Packet::ack(
            999,
            FlowId(7),
            NodeId(1),
            NodeId(0),
            seq,
            ece,
            SimTime::from_secs_f64(echo),
            SimTime::from_secs_f64(now),
        )
    }

    #[test]
    fn initial_window_limits_burst() {
        let f = TcpFactory::new_reno();
        let mut s = f.sender(&spec(100 * MSS_BYTES as u64));
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        s.on_start(&mut ctx_at(&mut ids, 0.0), &mut out);
        assert_eq!(out.sends.len(), 2, "initial cwnd is 2 segments");
    }

    #[test]
    fn slow_start_grows_exponentially() {
        let f = TcpFactory::new_reno();
        let mss = MSS_BYTES as u64;
        let mut s = TcpSender::new(spec(1000 * mss), f.make_cc());
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        s.on_start(&mut ctx_at(&mut ids, 0.0), &mut out);
        out.clear();
        // Ack both initial segments.
        s.on_packet(&ack(2 * mss, 0.0, 0.002, false), &mut ctx_at(&mut ids, 0.002), &mut out);
        // cwnd grew 2 -> 3 segments on a 2-segment cumulative ack (growth
        // capped at 1 MSS per ack); window allows 3 in flight.
        assert_eq!(out.sends.len(), 3);
    }

    #[test]
    fn triple_dup_ack_triggers_fast_retransmit() {
        let f = TcpFactory::new_reno();
        let mss = MSS_BYTES as u64;
        let mut s = TcpSender::new(spec(100 * mss), f.make_cc());
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        s.on_start(&mut ctx_at(&mut ids, 0.0), &mut out);
        // Grow the window a bit first.
        out.clear();
        s.on_packet(&ack(2 * mss, 0.0, 0.002, false), &mut ctx_at(&mut ids, 0.002), &mut out);
        out.clear();
        s.on_packet(&ack(4 * mss, 0.002, 0.004, false), &mut ctx_at(&mut ids, 0.004), &mut out);
        let cwnd_before = s.cwnd();
        // Segment at 4*mss lost: three dup acks.
        for i in 0..3 {
            out.clear();
            s.on_packet(
                &ack(4 * mss, 0.004, 0.005 + i as f64 * 0.001, false),
                &mut ctx_at(&mut ids, 0.005 + i as f64 * 0.001),
                &mut out,
            );
        }
        // The third dup ack retransmits the missing segment.
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].seq, 4 * mss);
        assert_eq!(s.retransmits, 1);
        assert!(s.cwnd() < cwnd_before + 3.0 * mss as f64);
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let f = TcpFactory::new_reno();
        let mss = MSS_BYTES as u64;
        let mut s = TcpSender::new(spec(100 * mss), f.make_cc());
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        s.on_start(&mut ctx_at(&mut ids, 0.0), &mut out);
        out.clear();
        // Open window, then force recovery at snd_una = 2 mss.
        s.on_packet(&ack(2 * mss, 0.0, 0.002, false), &mut ctx_at(&mut ids, 0.002), &mut out);
        for i in 0..3 {
            out.clear();
            s.on_packet(
                &ack(2 * mss, 0.0, 0.003 + i as f64 * 0.001, false),
                &mut ctx_at(&mut ids, 0.003 + i as f64 * 0.001),
                &mut out,
            );
        }
        assert_eq!(s.retransmits, 1);
        // Partial ack to 3 mss (recovery point is snd_nxt = 5 mss).
        out.clear();
        s.on_packet(&ack(3 * mss, 0.003, 0.006, false), &mut ctx_at(&mut ids, 0.006), &mut out);
        // New Reno retransmits the next hole immediately.
        assert!(out.sends.iter().any(|p| p.seq == 3 * mss));
        assert_eq!(s.retransmits, 2);
    }

    #[test]
    fn timeout_collapses_window_and_retransmits() {
        let f = TcpFactory::new_reno();
        let mss = MSS_BYTES as u64;
        let mut s = TcpSender::new(spec(100 * mss), f.make_cc());
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        s.on_start(&mut ctx_at(&mut ids, 0.0), &mut out);
        out.clear();
        // RTO fires (token 1 is the armed one).
        s.on_timer(1, &mut ctx_at(&mut ids, 0.2), &mut out);
        assert_eq!(out.sends.len(), 1, "one segment at cwnd=1 mss");
        assert_eq!(out.sends[0].seq, 0);
        assert_eq!(s.cwnd(), mss as f64);
    }

    #[test]
    fn completion_on_final_ack() {
        let f = TcpFactory::new_reno();
        let size = 3 * MSS_BYTES as u64;
        let mut s = TcpSender::new(spec(size), f.make_cc());
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        s.on_start(&mut ctx_at(&mut ids, 0.0), &mut out);
        out.clear();
        s.on_packet(&ack(size, 0.0, 0.01, false), &mut ctx_at(&mut ids, 0.01), &mut out);
        assert!(out.completed);
    }

    #[test]
    fn receiver_echoes_ecn_only_when_enabled() {
        let mut ids = PacketIdAlloc::new(NodeId(1));
        let mk_ce = |seq: u64| {
            let mut p = Packet::data(
                seq + 1,
                FlowId(7),
                NodeId(0),
                NodeId(1),
                seq,
                MSS_BYTES,
                true,
                SimTime::ZERO,
            );
            p.ecn = Ecn::Ce;
            p.flow_size = 10 * MSS_BYTES as u64;
            p
        };
        let mut out = Actions::default();
        let mut r = TcpReceiver::new(spec(10 * MSS_BYTES as u64), true);
        r.on_packet(&mk_ce(0), &mut ctx_at(&mut ids, 0.0), &mut out);
        assert!(out.sends[0].flags.ece, "DCTCP receiver echoes CE");
        out.clear();
        let mut r2 = TcpReceiver::new(spec(10 * MSS_BYTES as u64), false);
        r2.on_packet(&mk_ce(0), &mut ctx_at(&mut ids, 0.0), &mut out);
        assert!(!out.sends[0].flags.ece);
    }

    #[test]
    fn receiver_completes_at_full_delivery() {
        let mut ids = PacketIdAlloc::new(NodeId(1));
        let size = 2 * MSS_BYTES as u64;
        let mut r = TcpReceiver::new(spec(size), false);
        let mut out = Actions::default();
        let mk = |seq: u64| {
            let mut p = Packet::data(
                seq + 1,
                FlowId(7),
                NodeId(0),
                NodeId(1),
                seq,
                MSS_BYTES,
                false,
                SimTime::ZERO,
            );
            p.flow_size = size;
            p
        };
        r.on_packet(&mk(0), &mut ctx_at(&mut ids, 0.0), &mut out);
        assert!(!out.completed);
        out.clear();
        r.on_packet(&mk(MSS_BYTES as u64), &mut ctx_at(&mut ids, 0.001), &mut out);
        assert!(out.completed);
        assert_eq!(out.sends[0].seq, size);
    }

    #[test]
    fn duplicate_data_does_not_double_deliver() {
        let mut ids = PacketIdAlloc::new(NodeId(1));
        let size = 4 * MSS_BYTES as u64;
        let mut r = TcpReceiver::new(spec(size), false);
        let mut out = Actions::default();
        let mut p = Packet::data(1, FlowId(7), NodeId(0), NodeId(1), 0, MSS_BYTES, false, SimTime::ZERO);
        p.flow_size = size;
        r.on_packet(&p, &mut ctx_at(&mut ids, 0.0), &mut out);
        assert_eq!(out.delivered, MSS_BYTES as u64);
        out.clear();
        r.on_packet(&p, &mut ctx_at(&mut ids, 0.001), &mut out);
        assert_eq!(out.delivered, 0, "duplicate delivered again");
    }

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn ctx_ms<'a>(ids: &'a mut PacketIdAlloc, t: u64) -> TransportCtx<'a> {
        TransportCtx {
            now: SimTime::ZERO + ms(t),
            ids,
        }
    }

    /// A cumulative ack arriving at `now` ms for a segment sent 2 ms
    /// earlier (an RTT sample of 2 ms, which clamps the RTO to 10 ms).
    fn ack_ms(seq: u64, now: u64) -> Packet {
        let mut p = ack(seq, 0.0, 0.0, false);
        p.echo = SimTime::ZERO + ms(now - 2);
        p
    }

    #[test]
    fn rto_timer_rearms_with_backoff() {
        let f = TcpFactory::new_reno();
        let mut s = TcpSender::new(spec(10 * MSS_BYTES as u64), f.make_cc());
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        s.on_start(&mut ctx_ms(&mut ids, 0), &mut out);
        assert_eq!(out.timers, vec![(ms(200), 1)]);
        out.clear();
        // Karn backoff: each expiry doubles the next timeout.
        s.on_timer(1, &mut ctx_ms(&mut ids, 200), &mut out);
        assert_eq!(out.timers, vec![(ms(400), 2)]);
        out.clear();
        s.on_timer(2, &mut ctx_ms(&mut ids, 600), &mut out);
        assert_eq!(out.timers, vec![(ms(800), 3)]);
        assert_eq!(s.retransmits, 2);
    }

    #[test]
    fn ack_train_keeps_one_pending_timer() {
        let f = TcpFactory::new_reno();
        let mss = MSS_BYTES as u64;
        let mut s = TcpSender::new(spec(100 * mss), f.make_cc());
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        s.on_start(&mut ctx_ms(&mut ids, 0), &mut out);
        assert_eq!(out.timers, vec![(ms(200), 1)]);
        // The first RTT sample shrinks the RTO to 10 ms: the deadline
        // moves earlier than the pending timer, so a new one is pushed.
        out.clear();
        s.on_packet(&ack_ms(mss, 3), &mut ctx_ms(&mut ids, 3), &mut out);
        assert_eq!(out.timers, vec![(ms(10), 2)]);
        // The rest of the train only pushes the deadline later.
        for k in 2..=5 {
            out.clear();
            s.on_packet(&ack_ms(k * mss, k + 2), &mut ctx_ms(&mut ids, k + 2), &mut out);
            assert!(!out.sends.is_empty());
            assert!(out.timers.is_empty(), "ack {k} pushed {:?}", out.timers);
        }
        // The pending timer fires at 13 ms, 4 ms before the deadline the
        // last ack set (7 + 10 ms): it re-arms for exactly the remainder.
        out.clear();
        s.on_timer(2, &mut ctx_ms(&mut ids, 13), &mut out);
        assert_eq!(out.timers, vec![(ms(4), 6)]);
        assert!(out.sends.is_empty());
        assert_eq!(s.retransmits, 0);
        // At the deadline the timeout is real: go back to snd_una.
        out.clear();
        s.on_timer(6, &mut ctx_ms(&mut ids, 17), &mut out);
        assert_eq!(out.sends[0].seq, 5 * mss);
        assert_eq!(s.retransmits, 1);
        // The 200 ms timer from before the first sample was superseded.
        out.clear();
        s.on_timer(1, &mut ctx_ms(&mut ids, 200), &mut out);
        assert!(out.sends.is_empty() && out.timers.is_empty());
        assert_eq!(s.retransmits, 1);
    }
}
