//! TCP Vegas congestion control (Brakmo & Peterson, 1994).
//!
//! Vegas is delay-based: once per RTT it compares the *expected* rate
//! (`cwnd / base_rtt`) with the *actual* rate (`cwnd / observed_rtt`) and
//! converts the difference into an estimate of packets queued in the
//! network:
//!
//! ```text
//! diff = (expected − actual) · base_rtt     [bytes queued]
//! diff < α·mss  → cwnd += mss   (too little queueing: speed up)
//! diff > β·mss  → cwnd -= mss   (too much queueing: back off)
//! ```
//!
//! The paper uses Vegas as a stand-in for "the recent trend of protocols
//! that are very sensitive to small changes in latency" (§9.4.2) — which
//! makes it a stress test for MimicNet's latency predictions.

use crate::cc::{reno_ack, reno_halve, reno_timeout, AckCtx, CongControl, Windows};
use dcn_sim::time::SimTime;

/// Grow when fewer than `alpha` packets are queued (classic 2).
const ALPHA_PKTS: f64 = 2.0;
/// Shrink when more than `beta` packets are queued (classic 4).
const BETA_PKTS: f64 = 4.0;
/// Leave slow start when more than `gamma` packets are queued.
const GAMMA_PKTS: f64 = 1.0;

/// Vegas sender state.
#[derive(Default)]
pub struct VegasCc {
    /// Lowest RTT ever seen (propagation estimate), seconds.
    base_rtt: Option<f64>,
    /// Lowest RTT in the current epoch, seconds.
    epoch_min_rtt: Option<f64>,
    /// `snd_una` at which the current epoch (≈ one RTT) ends.
    epoch_end: u64,
}

impl VegasCc {
    /// Current estimate of queued bytes given the epoch measurements.
    fn queued_bytes(&self, w: &Windows) -> Option<f64> {
        let base = self.base_rtt?;
        let cur = self.epoch_min_rtt?;
        if cur <= 0.0 || base <= 0.0 {
            return None;
        }
        let expected = w.cwnd / base;
        let actual = w.cwnd / cur;
        Some((expected - actual) * base)
    }
}

impl CongControl for VegasCc {
    fn name(&self) -> &'static str {
        "vegas"
    }

    fn on_ack(&mut self, ctx: &AckCtx, w: &mut Windows) {
        if let Some(rtt) = ctx.rtt_sample {
            let r = rtt.as_secs_f64();
            self.base_rtt = Some(self.base_rtt.map_or(r, |b: f64| b.min(r)));
            self.epoch_min_rtt = Some(self.epoch_min_rtt.map_or(r, |b: f64| b.min(r)));
        }
        if ctx.snd_una < self.epoch_end {
            // Mid-epoch: in slow start, grow like Reno; in CA, hold.
            if w.in_slow_start() {
                reno_ack(ctx.newly_acked, w);
            }
            return;
        }
        // Epoch boundary: apply the Vegas adjustment.
        let queued = self.queued_bytes(w);
        self.epoch_end = ctx.snd_nxt;
        self.epoch_min_rtt = None;
        let Some(queued) = queued else {
            if w.in_slow_start() {
                reno_ack(ctx.newly_acked, w);
            }
            return;
        };
        if w.in_slow_start() {
            if queued > GAMMA_PKTS * w.mss {
                // Leave slow start once queueing builds.
                w.ssthresh = w.cwnd;
            } else {
                reno_ack(ctx.newly_acked, w);
            }
            return;
        }
        if queued < ALPHA_PKTS * w.mss {
            w.cwnd += w.mss;
        } else if queued > BETA_PKTS * w.mss {
            w.cwnd -= w.mss;
            w.clamp();
        }
        // else: within [alpha, beta] — hold.
    }

    fn on_fast_loss(&mut self, _now: SimTime, flight: u64, w: &mut Windows) {
        reno_halve(flight, w);
    }

    fn on_timeout(&mut self, _now: SimTime, flight: u64, w: &mut Windows) {
        reno_timeout(flight, w);
    }

    fn reset(&mut self) {
        *self = VegasCc::default();
    }

    fn save_state(&self, w: &mut dcn_sim::snapshot::SnapWriter) {
        w.put_opt_f64(self.base_rtt);
        w.put_opt_f64(self.epoch_min_rtt);
        w.put_u64(self.epoch_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::time::SimDuration;

    fn ctx(newly: u64, una: u64, nxt: u64, rtt_us: u64) -> AckCtx {
        AckCtx {
            newly_acked: newly,
            rtt_sample: Some(SimDuration::from_micros(rtt_us)),
            ece: false,
            now: SimTime::ZERO,
            snd_una: una,
            snd_nxt: nxt,
            in_recovery: false,
        }
    }

    #[test]
    fn grows_when_uncongested() {
        let mut cc = VegasCc::default();
        let mut w = Windows::new(1000, 4);
        w.ssthresh = w.cwnd; // force CA
        // Establish base RTT = 1 ms in epoch 0.
        cc.on_ack(&ctx(1000, 1000, 5000, 1000), &mut w);
        let before = w.cwnd;
        // Next epoch boundary with RTT still ~1 ms -> no queueing -> grow.
        cc.on_ack(&ctx(1000, 6000, 10_000, 1005), &mut w);
        assert_eq!(w.cwnd, before + 1000.0);
    }

    #[test]
    fn shrinks_when_rtt_inflates() {
        let mut cc = VegasCc::default();
        let mut w = Windows::new(1000, 10);
        w.ssthresh = w.cwnd;
        // Base RTT = 1 ms.
        cc.on_ack(&ctx(1000, 1000, 11_000, 1000), &mut w);
        let before = w.cwnd;
        // RTT doubled: queued = cwnd * (2-1)/2 = 5000 B > beta*mss.
        cc.on_ack(&ctx(1000, 12_000, 22_000, 2000), &mut w);
        assert_eq!(w.cwnd, before - 1000.0);
    }

    #[test]
    fn holds_in_band() {
        let mut cc = VegasCc::default();
        let mut w = Windows::new(1000, 10);
        w.ssthresh = w.cwnd;
        cc.on_ack(&ctx(1000, 1000, 11_000, 1000), &mut w);
        let before = w.cwnd;
        // Queued = cwnd*(1 - 1/1.3) ≈ 2.3 KB, between alpha (2 KB) and
        // beta (4 KB): hold.
        cc.on_ack(&ctx(1000, 12_000, 22_000, 1300), &mut w);
        assert_eq!(w.cwnd, before);
    }

    #[test]
    fn exits_slow_start_on_queueing() {
        let mut cc = VegasCc::default();
        let mut w = Windows::new(1000, 10);
        assert!(w.in_slow_start());
        cc.on_ack(&ctx(1000, 1000, 11_000, 1000), &mut w);
        // Strong RTT inflation at the next epoch.
        cc.on_ack(&ctx(1000, 12_000, 22_000, 3000), &mut w);
        assert!(!w.in_slow_start(), "should have left slow start");
    }

    #[test]
    fn loss_reactions_are_reno() {
        let mut cc = VegasCc::default();
        let mut w = Windows::new(1000, 10);
        cc.on_fast_loss(SimTime::ZERO, 10_000, &mut w);
        assert_eq!(w.cwnd, 5_000.0);
        cc.on_timeout(SimTime::ZERO, 10_000, &mut w);
        assert_eq!(w.cwnd, 1_000.0);
    }
}
