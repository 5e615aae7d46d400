//! TCP New Reno congestion control (the paper's base case).
//!
//! The New Reno-specific parts — fast recovery with partial acks — live in
//! the shared sender ([`crate::tcp::TcpSender`]); this controller supplies
//! the classic Reno window dynamics: slow start, AIMD congestion
//! avoidance, halving on fast retransmit, collapse on timeout.

use crate::cc::{reno_ack, reno_halve, reno_timeout, AckCtx, CongControl, Windows};
use dcn_sim::time::SimTime;

/// Classic Reno window dynamics.
pub struct RenoCc;

impl CongControl for RenoCc {
    fn name(&self) -> &'static str {
        "newreno"
    }

    fn on_ack(&mut self, ctx: &AckCtx, w: &mut Windows) {
        reno_ack(ctx.newly_acked, w);
    }

    fn on_fast_loss(&mut self, _now: SimTime, flight: u64, w: &mut Windows) {
        reno_halve(flight, w);
    }

    fn on_timeout(&mut self, _now: SimTime, flight: u64, w: &mut Windows) {
        reno_timeout(flight, w);
    }

    fn reset(&mut self) {
        // Stateless.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::time::SimDuration;

    fn ctx(newly: u64) -> AckCtx {
        AckCtx {
            newly_acked: newly,
            rtt_sample: Some(SimDuration::from_millis(2)),
            ece: false,
            now: SimTime::ZERO,
            snd_una: newly,
            snd_nxt: newly * 2,
            in_recovery: false,
        }
    }

    #[test]
    fn ignores_ece() {
        // Plain Reno does not react to ECN echoes.
        let mut cc = RenoCc;
        let mut w = Windows::new(1000, 4);
        w.ssthresh = 2_000.0;
        let mut c = ctx(1000);
        c.ece = true;
        let before = w.cwnd;
        cc.on_ack(&c, &mut w);
        assert!(w.cwnd > before, "window must still grow");
    }

    #[test]
    fn aimd_cycle() {
        let mut cc = RenoCc;
        let mut w = Windows::new(1000, 2);
        // Slow start to 16 KB.
        while w.cwnd < 16_000.0 {
            cc.on_ack(&ctx(1000), &mut w);
        }
        // Loss halves.
        cc.on_fast_loss(SimTime::ZERO, 16_000, &mut w);
        assert_eq!(w.cwnd, 8_000.0);
        assert!(!w.in_slow_start());
        // Timeout collapses to 1 MSS.
        cc.on_timeout(SimTime::ZERO, 8_000, &mut w);
        assert_eq!(w.cwnd, 1_000.0);
    }
}
