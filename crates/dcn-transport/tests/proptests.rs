//! Property-based tests of transport invariants under adversarial
//! ack/grant/timer sequences.

use dcn_sim::packet::{FlowId, Packet, PacketKind, MSS_BYTES};
use dcn_sim::time::SimTime;
use dcn_sim::topology::NodeId;
use dcn_sim::transport::{Actions, FlowSpec, PacketIdAlloc, Transport, TransportCtx, TransportFactory};
use dcn_transport::homa::HomaFactory;
use dcn_transport::tcp::TcpFactory;
use proptest::prelude::*;

fn spec(size: u64) -> FlowSpec {
    FlowSpec {
        id: FlowId(9),
        src: NodeId(0),
        dst: NodeId(1),
        size_bytes: size,
        start: SimTime::ZERO,
    }
}

/// Drive a sender with an arbitrary interleaving of (possibly bogus) acks
/// and timer firings; check safety invariants throughout.
fn fuzz_tcp_sender(factory: &TcpFactory, size: u64, events: &[(u64, bool)]) -> Result<(), TestCaseError> {
    let mut s = factory.sender(&spec(size));
    let mut ids = PacketIdAlloc::new(NodeId(0));
    let mut out = Actions::default();
    let mut now = 0.0f64;
    {
        let mut ctx = TransportCtx {
            now: SimTime::from_secs_f64(now),
            ids: &mut ids,
        };
        s.on_start(&mut ctx, &mut out);
    }
    let mut max_token = out.timers.last().map(|t| t.1).unwrap_or(0);
    let mut completed = false;
    for &(ack_raw, is_timer) in events {
        now += 0.001;
        out.clear();
        let mut ctx = TransportCtx {
            now: SimTime::from_secs_f64(now),
            ids: &mut ids,
        };
        if is_timer {
            s.on_timer(max_token, &mut ctx, &mut out);
        } else {
            // Acks clamped into [0, size] but otherwise arbitrary
            // (duplicates, regressions, jumps).
            let ack = Packet::ack(
                ids_next_stub(),
                FlowId(9),
                NodeId(1),
                NodeId(0),
                ack_raw % (size + 1),
                false,
                SimTime::from_secs_f64(now - 0.0005),
                SimTime::from_secs_f64(now),
            );
            s.on_packet(&ack, &mut ctx, &mut out);
        }
        if let Some(t) = out.timers.last() {
            max_token = t.1;
        }
        // Safety: every emitted segment lies within the flow.
        for p in &out.sends {
            prop_assert!(p.kind == PacketKind::Data);
            prop_assert!(p.seq + p.payload as u64 <= size, "segment beyond flow end");
            prop_assert!(p.payload > 0);
        }
        if out.completed {
            completed = true;
        }
        if completed {
            break;
        }
    }
    Ok(())
}

static STUB: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1 << 50);
fn ids_next_stub() -> u64 {
    STUB.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

proptest! {
    #[test]
    fn tcp_senders_never_emit_out_of_range(
        size_segs in 1u64..40,
        events in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..60)
    ) {
        let size = size_segs * MSS_BYTES as u64;
        fuzz_tcp_sender(&TcpFactory::new_reno(), size, &events)?;
        fuzz_tcp_sender(&TcpFactory::dctcp(), size, &events)?;
        fuzz_tcp_sender(&TcpFactory::vegas(), size, &events)?;
        fuzz_tcp_sender(&TcpFactory::westwood(), size, &events)?;
    }

    /// A sender completes exactly when the cumulative ack reaches the flow
    /// size, regardless of the ack path taken.
    #[test]
    fn tcp_completion_iff_fully_acked(acks in proptest::collection::vec(1u64..=10, 1..30)) {
        let size = 10 * MSS_BYTES as u64;
        let f = TcpFactory::new_reno();
        let mut s = f.sender(&spec(size));
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        let mut now = 0.0;
        {
            let mut ctx = TransportCtx { now: SimTime::from_secs_f64(now), ids: &mut ids };
            s.on_start(&mut ctx, &mut out);
        }
        let mut highest = 0u64;
        for a in acks {
            now += 0.001;
            let ack_no = a * MSS_BYTES as u64;
            out.clear();
            let ack = Packet::ack(ids_next_stub(), FlowId(9), NodeId(1), NodeId(0), ack_no, false,
                SimTime::from_secs_f64(now - 0.0005), SimTime::from_secs_f64(now));
            let mut ctx = TransportCtx { now: SimTime::from_secs_f64(now), ids: &mut ids };
            s.on_packet(&ack, &mut ctx, &mut out);
            highest = highest.max(ack_no);
            prop_assert_eq!(
                out.completed,
                highest >= size && ack_no == highest,
                "completed={} at ack {}, highest {}",
                out.completed,
                ack_no,
                highest
            );
            if out.completed {
                break;
            }
        }
    }

    /// TCP receivers ack monotonically and never beyond received data.
    #[test]
    fn tcp_receiver_cum_ack_monotone(order in proptest::collection::vec(0u64..10, 1..40)) {
        use dcn_transport::tcp::TcpReceiver;
        let size = 10 * MSS_BYTES as u64;
        let mut r = TcpReceiver::new(spec(size), false);
        let mut ids = PacketIdAlloc::new(NodeId(1));
        let mut out = Actions::default();
        let mut prev_ack = 0u64;
        let mut delivered_total = 0u64;
        for (i, seg) in order.iter().enumerate() {
            let seq = seg * MSS_BYTES as u64;
            let mut p = Packet::data(i as u64 + 1, FlowId(9), NodeId(0), NodeId(1), seq, MSS_BYTES, false, SimTime::ZERO);
            p.flow_size = size;
            out.clear();
            let mut ctx = TransportCtx { now: SimTime::from_secs_f64(0.001 * i as f64), ids: &mut ids };
            r.on_packet(&p, &mut ctx, &mut out);
            let ack = out.sends.iter().find(|p| p.kind == PacketKind::Ack).expect("receiver acks every data packet");
            prop_assert!(ack.seq >= prev_ack, "ack regressed");
            prop_assert!(ack.seq <= size);
            prev_ack = ack.seq;
            delivered_total += out.delivered;
            prop_assert_eq!(delivered_total, prev_ack, "delivered bytes track the prefix");
        }
    }

    /// Homa sender: grants only ever extend transmission; the granted
    /// horizon never exceeds the message.
    #[test]
    fn homa_granted_bounded(grants in proptest::collection::vec(any::<u64>(), 1..30)) {
        let size = 200_000u64;
        let f = HomaFactory;
        let mut s = f.sender(&spec(size));
        let mut ids = PacketIdAlloc::new(NodeId(0));
        let mut out = Actions::default();
        {
            let mut ctx = TransportCtx { now: SimTime::ZERO, ids: &mut ids };
            s.on_start(&mut ctx, &mut out);
        }
        let mut total_payload: u64 = out.sends.iter().map(|p| p.payload as u64).sum();
        let mut highest_seq_end = out.sends.iter().map(|p| p.seq + p.payload as u64).max().unwrap_or(0);
        for (i, g) in grants.iter().enumerate() {
            out.clear();
            let mut grant = Packet::ack(ids_next_stub(), FlowId(9), NodeId(1), NodeId(0), g % (2 * size), false,
                SimTime::ZERO, SimTime::from_secs_f64(0.001 * i as f64));
            grant.kind = PacketKind::Grant;
            grant.meta = 0;
            let mut ctx = TransportCtx { now: SimTime::from_secs_f64(0.001 * i as f64), ids: &mut ids };
            s.on_packet(&grant, &mut ctx, &mut out);
            for p in &out.sends {
                prop_assert!(p.seq + p.payload as u64 <= size, "sent beyond message end");
                highest_seq_end = highest_seq_end.max(p.seq + p.payload as u64);
            }
            total_payload += out.sends.iter().map(|p| p.payload as u64).sum::<u64>();
        }
        // Without resend flags there are no retransmissions: total payload
        // equals the highest byte reached.
        prop_assert_eq!(total_payload, highest_seq_end);
    }

    /// RTO estimator: RTO always within [min, max] after arbitrary sample/
    /// timeout interleavings.
    #[test]
    fn rto_always_clamped(ops in proptest::collection::vec((1u64..100_000, any::<bool>()), 1..100)) {
        use dcn_sim::time::SimDuration;
        use dcn_transport::rto::RttEstimator;
        let mut e = RttEstimator::dc_default();
        for (us, timeout) in ops {
            if timeout {
                e.on_timeout();
            } else {
                e.sample(SimDuration::from_micros(us));
            }
            let rto = e.rto();
            prop_assert!(rto >= SimDuration::from_millis(10));
            prop_assert!(rto <= SimDuration::from_secs_f64(4.0));
        }
    }
}
