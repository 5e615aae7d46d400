//! The transport abstraction hosts run their flows behind.
//!
//! `dcn-sim` knows nothing about specific protocols; the `dcn-transport`
//! crate provides TCP New Reno, DCTCP, TCP Vegas, TCP Westwood, and Homa
//! behind the [`Transport`] trait defined here. The engine drives a
//! transport instance with three callbacks (`on_start`, `on_packet`,
//! `on_timer`); the transport responds by filling an [`Actions`] out-param
//! with packets to emit, timers to arm, and bookkeeping for the
//! instrumentation layer.
//!
//! This design mirrors MimicNet's "intra-host isolation" restriction
//! (§4.2): each connection's state machine is fully self-contained — no
//! shared CPU model, no cross-connection cooperation — which is what allows
//! the framework to delete Mimic-Mimic connections wholesale.

use crate::packet::{FlowId, Packet};
use crate::snapshot::SnapWriter;
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;
use serde::{Deserialize, Serialize};

/// Immutable description of one flow.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlowSpec {
    pub id: FlowId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Application bytes to transfer.
    pub size_bytes: u64,
    /// When the application opened the flow.
    pub start: SimTime,
}

/// Deterministic per-host packet id allocator.
///
/// Ids embed the host so allocation is independent of global event
/// interleaving — a prerequisite for sequential/parallel bit-equality.
#[derive(Clone, Debug)]
pub struct PacketIdAlloc {
    host: u32,
    counter: u64,
}

impl PacketIdAlloc {
    pub fn new(host: NodeId) -> PacketIdAlloc {
        PacketIdAlloc {
            host: host.0,
            counter: 0,
        }
    }

    /// Allocate the next globally unique packet id.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.counter += 1;
        ((self.host as u64) << 40) | self.counter
    }

    /// Ids allocated so far (the window digest folds it).
    pub fn counter(&self) -> u64 {
        self.counter
    }
}

/// Context handed to every transport callback.
pub struct TransportCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Packet id allocator of the host this transport runs on.
    pub ids: &'a mut PacketIdAlloc,
}

/// Everything a transport wants the engine to do in response to an event.
#[derive(Default, Debug)]
pub struct Actions {
    /// Packets to transmit from this host, in order.
    pub sends: Vec<Packet>,
    /// Timers to arm: `(delay from now, token)`. Timers are not cancellable;
    /// transports must ignore stale firings (lazy cancellation), and keep
    /// few pending by re-arming one timer rather than pushing one per
    /// deadline change (`dcn_transport::rto::Deadline`).
    pub timers: Vec<(SimDuration, u64)>,
    /// Application bytes newly delivered in-order to the receiving app.
    pub delivered: u64,
    /// RTT samples measured from acknowledgments.
    pub rtt_samples: Vec<SimDuration>,
    /// The flow finished (sender: all bytes acknowledged).
    pub completed: bool,
}

impl Actions {
    pub fn clear(&mut self) {
        self.sends.clear();
        self.timers.clear();
        self.delivered = 0;
        self.rtt_samples.clear();
        self.completed = false;
    }
}

/// A per-flow transport endpoint state machine.
pub trait Transport {
    /// The flow was opened (sender side only).
    fn on_start(&mut self, ctx: &mut TransportCtx, out: &mut Actions);
    /// A packet for this flow arrived at this host.
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut TransportCtx, out: &mut Actions);
    /// A previously armed timer fired.
    fn on_timer(&mut self, token: u64, ctx: &mut TransportCtx, out: &mut Actions);

    /// Encode the endpoint's mutable state for the window digest (see
    /// `Simulation::window_digest`): every field that can steer the
    /// flow's future, in a fixed order.
    fn save_state(&self, w: &mut SnapWriter);

    /// Re-initialize this endpoint for a brand-new flow so the engine can
    /// recycle the box instead of allocating a fresh one (flow churn is the
    /// engine's dominant allocation site — see
    /// `dcn-sim/tests/alloc_steady_state.rs`). The engine always recycles.
    ///
    /// Afterwards the endpoint must be *behaviorally identical* to a
    /// factory-fresh endpoint for `spec` — same trajectory, same
    /// [`Transport::save_state`] bytes. Buffers may keep their capacity
    /// (that is the point), but every logical field must be back at its
    /// constructed value.
    fn reset(&mut self, spec: &FlowSpec);
}

/// Merge `[start, end)` into a sorted, disjoint `[s, e)` range set — in
/// place. Touching or overlapping neighbours coalesce, so the common
/// in-order case is a branch plus an O(1) extension of the first range and
/// the per-packet receive path never allocates once the vec has capacity.
/// Shared by every receiver that tracks out-of-order data (the testing
/// [`testing::CumAckReceiver`] and the TCP/Homa receivers in
/// `dcn-transport`).
pub fn merge_range(ranges: &mut Vec<(u64, u64)>, start: u64, end: u64) {
    let i = ranges.partition_point(|&(s, _)| s <= start);
    if i > 0 && ranges[i - 1].1 >= start {
        // Extend the predecessor, folding in any ranges the extension now
        // touches.
        ranges[i - 1].1 = ranges[i - 1].1.max(end);
        let reach = ranges[i - 1].1;
        let j = i + ranges[i..].partition_point(|&(s, _)| s <= reach);
        if j > i {
            ranges[i - 1].1 = reach.max(ranges[j - 1].1);
            ranges.drain(i..j);
        }
        return;
    }
    // No predecessor overlap: absorb any following ranges that
    // `[start, end)` touches.
    let j = i + ranges[i..].partition_point(|&(s, _)| s <= end);
    if j == i {
        ranges.insert(i, (start, end));
    } else {
        let e = end.max(ranges[j - 1].1);
        ranges[i] = (start, e);
        ranges.drain(i + 1..j);
    }
}

/// Creates sender/receiver endpoints for new flows.
pub trait TransportFactory {
    /// Protocol name for reports ("tcp-newreno", "dctcp", ...).
    fn name(&self) -> &'static str;
    /// Sender-side endpoint.
    fn sender(&self, flow: &FlowSpec) -> Box<dyn Transport>;
    /// Receiver-side endpoint.
    fn receiver(&self, flow: &FlowSpec) -> Box<dyn Transport>;
}

/// A deliberately simple fixed-window transport used by `dcn-sim`'s own
/// tests and benches (real protocols live in `dcn-transport`).
///
/// The sender keeps `window` segments outstanding, retransmitting on a fixed
/// timeout; the receiver acks cumulatively. It is *not* congestion
/// controlled.
pub mod testing {
    use super::*;
    use crate::packet::{PacketKind, MSS_BYTES};

    /// Factory for [`FixedWindowSender`]/[`CumAckReceiver`] pairs.
    pub struct FixedWindowFactory {
        /// Segments kept in flight.
        pub window: u32,
        /// Retransmission timeout.
        pub rto: SimDuration,
    }

    impl Default for FixedWindowFactory {
        fn default() -> Self {
            FixedWindowFactory {
                window: 8,
                rto: SimDuration::from_millis(50),
            }
        }
    }

    impl TransportFactory for FixedWindowFactory {
        fn name(&self) -> &'static str {
            "fixed-window"
        }
        fn sender(&self, flow: &FlowSpec) -> Box<dyn Transport> {
            Box::new(FixedWindowSender {
                flow: flow.clone(),
                window: self.window,
                rto: self.rto,
                next_seq: 0,
                acked: 0,
                timer_gen: 0,
            })
        }
        fn receiver(&self, flow: &FlowSpec) -> Box<dyn Transport> {
            Box::new(CumAckReceiver {
                flow: flow.clone(),
                received: Vec::new(),
                delivered: 0,
            })
        }
    }

    /// Fixed-window sender.
    pub struct FixedWindowSender {
        flow: FlowSpec,
        window: u32,
        rto: SimDuration,
        next_seq: u64,
        acked: u64,
        timer_gen: u64,
    }

    impl FixedWindowSender {
        fn fill_window(&mut self, ctx: &mut TransportCtx, out: &mut Actions) {
            while self.next_seq < self.flow.size_bytes
                && self.next_seq - self.acked < (self.window as u64) * MSS_BYTES as u64
            {
                let payload =
                    MSS_BYTES.min((self.flow.size_bytes - self.next_seq) as u32);
                let mut p = Packet::data(
                    ctx.ids.next(),
                    self.flow.id,
                    self.flow.src,
                    self.flow.dst,
                    self.next_seq,
                    payload,
                    false,
                    ctx.now,
                );
                p.flow_size = self.flow.size_bytes;
                if self.next_seq + payload as u64 >= self.flow.size_bytes {
                    p.flags.fin = true;
                }
                out.sends.push(p);
                self.next_seq += payload as u64;
            }
        }

        fn arm_timer(&mut self, out: &mut Actions) {
            self.timer_gen += 1;
            out.timers.push((self.rto, self.timer_gen));
        }
    }

    impl Transport for FixedWindowSender {
        fn on_start(&mut self, ctx: &mut TransportCtx, out: &mut Actions) {
            self.fill_window(ctx, out);
            self.arm_timer(out);
        }

        fn on_packet(&mut self, pkt: &Packet, ctx: &mut TransportCtx, out: &mut Actions) {
            if pkt.kind != PacketKind::Ack {
                return;
            }
            if pkt.seq > self.acked {
                self.acked = pkt.seq;
                out.rtt_samples.push(ctx.now.since(pkt.echo));
            }
            if self.acked >= self.flow.size_bytes {
                out.completed = true;
                return;
            }
            self.fill_window(ctx, out);
            self.arm_timer(out);
        }

        fn on_timer(&mut self, token: u64, ctx: &mut TransportCtx, out: &mut Actions) {
            if token != self.timer_gen || self.acked >= self.flow.size_bytes {
                return; // stale
            }
            // Go-back-N: rewind and resend the window.
            self.next_seq = self.acked;
            self.fill_window(ctx, out);
            self.arm_timer(out);
        }

        fn save_state(&self, w: &mut SnapWriter) {
            w.put_u64(self.next_seq);
            w.put_u64(self.acked);
            w.put_u64(self.timer_gen);
        }

        fn reset(&mut self, spec: &FlowSpec) {
            // `window`/`rto` are factory parameters; within one simulation
            // every endpoint comes from the same factory, so they carry over.
            self.flow = spec.clone();
            self.next_seq = 0;
            self.acked = 0;
            self.timer_gen = 0;
        }
    }

    /// Cumulative-ack receiver shared by the testing transport.
    pub struct CumAckReceiver {
        flow: FlowSpec,
        received: Vec<(u64, u64)>, // sorted disjoint [start, end) ranges
        delivered: u64,
    }

    impl CumAckReceiver {
        /// Merge `[start, end)` into the sorted disjoint range set, in
        /// place — see [`super::merge_range`]; the engine's per-packet hot
        /// path must not allocate (see
        /// `dcn-sim/tests/alloc_steady_state.rs`).
        fn insert(&mut self, start: u64, end: u64) {
            super::merge_range(&mut self.received, start, end);
        }

        fn cum_ack(&self) -> u64 {
            match self.received.first() {
                Some(&(0, e)) => e,
                _ => 0,
            }
        }
    }

    impl Transport for CumAckReceiver {
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
            out.sends.push(Packet::ack(
                ctx.ids.next(),
                self.flow.id,
                self.flow.dst,
                self.flow.src,
                cum,
                false,
                pkt.sent_at,
                ctx.now,
            ));
            if self.delivered >= self.flow.size_bytes {
                out.completed = true;
            }
        }

        fn on_timer(&mut self, _token: u64, _ctx: &mut TransportCtx, _out: &mut Actions) {}

        fn save_state(&self, w: &mut SnapWriter) {
            w.put_u64(self.received.len() as u64);
            for &(s, e) in &self.received {
                w.put_u64(s);
                w.put_u64(e);
            }
            w.put_u64(self.delivered);
        }

        fn reset(&mut self, spec: &FlowSpec) {
            self.flow = spec.clone();
            self.received.clear(); // keeps capacity — that's the point
            self.delivered = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use super::*;
    use crate::packet::{PacketKind, MSS_BYTES};

    fn spec(size: u64) -> FlowSpec {
        FlowSpec {
            id: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: size,
            start: SimTime::ZERO,
        }
    }

    #[test]
    fn packet_ids_are_unique_and_host_scoped() {
        let mut a = PacketIdAlloc::new(NodeId(3));
        let mut b = PacketIdAlloc::new(NodeId(4));
        let id_a = a.next();
        let id_b = b.next();
        assert_ne!(id_a, id_b);
        assert_eq!(id_a >> 40, 3);
        assert_eq!(id_b >> 40, 4);
        assert_ne!(a.next(), id_a);
    }

    #[test]
    fn fixed_window_sender_fills_window() {
        let f = FixedWindowFactory {
            window: 4,
            rto: SimDuration::from_millis(10),
        };
        let mut s = f.sender(&spec(100 * MSS_BYTES as u64));
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut ctx = TransportCtx {
            now: SimTime::ZERO,
            ids: &mut ids,
        };
        let mut out = Actions::default();
        s.on_start(&mut ctx, &mut out);
        assert_eq!(out.sends.len(), 4);
        assert_eq!(out.timers.len(), 1);
        assert!(out.sends.iter().all(|p| p.kind == PacketKind::Data));
    }

    #[test]
    fn sender_completes_after_full_ack() {
        let f = FixedWindowFactory::default();
        let size = 2 * MSS_BYTES as u64;
        let mut s = f.sender(&spec(size));
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        {
            let mut ctx = TransportCtx {
                now: SimTime::ZERO,
                ids: &mut ids,
            };
            s.on_start(&mut ctx, &mut out);
        }
        let ack = Packet::ack(
            99,
            FlowId(1),
            NodeId(1),
            NodeId(0),
            size,
            false,
            SimTime::ZERO,
            SimTime::from_secs_f64(0.001),
        );
        let mut ctx = TransportCtx {
            now: SimTime::from_secs_f64(0.001),
            ids: &mut ids,
        };
        out.clear();
        s.on_packet(&ack, &mut ctx, &mut out);
        assert!(out.completed);
        assert_eq!(out.rtt_samples.len(), 1);
    }

    #[test]
    fn receiver_acks_cumulatively_and_reorders() {
        let f = FixedWindowFactory::default();
        let mut r = f.receiver(&spec(3 * MSS_BYTES as u64));
        let mut ids = PacketIdAlloc::new(NodeId(1));
        let mk = |seq: u64| {
            Packet::data(
                seq + 1,
                FlowId(1),
                NodeId(0),
                NodeId(1),
                seq,
                MSS_BYTES,
                false,
                SimTime::ZERO,
            )
        };
        let mut out = Actions::default();
        // Out of order: segment 2 then 0 then 1.
        let mut ctx = TransportCtx {
            now: SimTime::ZERO,
            ids: &mut ids,
        };
        r.on_packet(&mk(2 * MSS_BYTES as u64), &mut ctx, &mut out);
        assert_eq!(out.sends[0].seq, 0); // nothing in order yet
        assert_eq!(out.delivered, 0);
        out.clear();
        r.on_packet(&mk(0), &mut ctx, &mut out);
        assert_eq!(out.sends[0].seq, MSS_BYTES as u64);
        assert_eq!(out.delivered, MSS_BYTES as u64);
        out.clear();
        r.on_packet(&mk(MSS_BYTES as u64), &mut ctx, &mut out);
        // Hole filled: cumulative ack jumps to 3 MSS.
        assert_eq!(out.sends[0].seq, 3 * MSS_BYTES as u64);
        assert_eq!(out.delivered, 2 * MSS_BYTES as u64);
    }

    #[test]
    fn stale_timer_is_ignored() {
        let f = FixedWindowFactory::default();
        let mut s = f.sender(&spec(MSS_BYTES as u64));
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        let mut ctx = TransportCtx {
            now: SimTime::ZERO,
            ids: &mut ids,
        };
        s.on_start(&mut ctx, &mut out);
        out.clear();
        // Token 0 was never armed (first armed token is 1).
        s.on_timer(0, &mut ctx, &mut out);
        assert!(out.sends.is_empty());
    }

    #[test]
    fn timer_retransmits_window() {
        let f = FixedWindowFactory {
            window: 2,
            rto: SimDuration::from_millis(10),
        };
        let mut s = f.sender(&spec(4 * MSS_BYTES as u64));
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        let mut ctx = TransportCtx {
            now: SimTime::ZERO,
            ids: &mut ids,
        };
        s.on_start(&mut ctx, &mut out);
        let first_ids: Vec<u64> = out.sends.iter().map(|p| p.id).collect();
        out.clear();
        s.on_timer(1, &mut ctx, &mut out);
        assert_eq!(out.sends.len(), 2);
        // Same sequence numbers, fresh packet ids.
        assert_eq!(out.sends[0].seq, 0);
        assert!(out.sends.iter().all(|p| !first_ids.contains(&p.id)));
    }
}
