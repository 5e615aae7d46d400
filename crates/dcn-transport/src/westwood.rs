//! TCP Westwood congestion control (Mascolo et al., MOBICOM 2001).
//!
//! Westwood is "a sender-optimized TCP that measures the end-to-end
//! connection rate to maximize throughput" (paper §9.4.2). The sender
//! keeps a bandwidth estimate (BWE) from the rate of returning acks and,
//! after a loss, sets its window to the estimated pipe size
//! `BWE × RTT_min` instead of blindly halving — "faster recovery" on
//! underutilized paths.

use crate::cc::{reno_ack, AckCtx, CongControl, Windows};
use dcn_sim::time::SimTime;

/// Westwood sender state.
pub struct WestwoodCc {
    /// Smoothed bandwidth estimate, bytes/second.
    bwe: f64,
    /// Time of the last ack (for rate samples).
    last_ack: Option<SimTime>,
    /// Minimum observed RTT, seconds.
    min_rtt: Option<f64>,
    /// EWMA gain for bandwidth samples.
    gain: f64,
}

impl WestwoodCc {
    pub fn new() -> WestwoodCc {
        WestwoodCc {
            bwe: 0.0,
            last_ack: None,
            min_rtt: None,
            gain: 0.2,
        }
    }

    /// Current bandwidth estimate, bytes/second.
    pub fn bwe(&self) -> f64 {
        self.bwe
    }

    /// The post-loss window: estimated pipe size, floored at 2 MSS.
    fn pipe_bytes(&self, w: &Windows) -> f64 {
        match self.min_rtt {
            Some(rtt) if self.bwe > 0.0 => (self.bwe * rtt).max(2.0 * w.mss),
            _ => (w.cwnd / 2.0).max(2.0 * w.mss), // fall back to Reno
        }
    }
}

impl Default for WestwoodCc {
    fn default() -> Self {
        WestwoodCc::new()
    }
}

impl CongControl for WestwoodCc {
    fn name(&self) -> &'static str {
        "westwood"
    }

    fn on_ack(&mut self, ctx: &AckCtx, w: &mut Windows) {
        if let Some(rtt) = ctx.rtt_sample {
            let r = rtt.as_secs_f64();
            self.min_rtt = Some(self.min_rtt.map_or(r, |m: f64| m.min(r)));
        }
        // Bandwidth sample: bytes acknowledged per inter-ack interval.
        if let Some(last) = self.last_ack {
            let dt = ctx.now.since(last).as_secs_f64();
            if dt > 0.0 {
                let sample = ctx.newly_acked as f64 / dt;
                self.bwe = if self.bwe == 0.0 {
                    sample
                } else {
                    (1.0 - self.gain) * self.bwe + self.gain * sample
                };
            }
        }
        self.last_ack = Some(ctx.now);
        reno_ack(ctx.newly_acked, w);
    }

    fn on_fast_loss(&mut self, _now: SimTime, _flight: u64, w: &mut Windows) {
        // Faster recovery: window = estimated pipe size.
        w.ssthresh = self.pipe_bytes(w);
        w.cwnd = w.ssthresh;
        w.clamp();
    }

    fn on_timeout(&mut self, _now: SimTime, _flight: u64, w: &mut Windows) {
        w.ssthresh = self.pipe_bytes(w);
        w.cwnd = w.mss;
    }

    fn reset(&mut self) {
        // `gain` is configuration; estimators back to `WestwoodCc::new`.
        self.bwe = 0.0;
        self.last_ack = None;
        self.min_rtt = None;
    }

    fn save_state(&self, w: &mut dcn_sim::snapshot::SnapWriter) {
        w.put_f64(self.bwe);
        w.put_opt_u64(self.last_ack.map(SimTime::as_nanos));
        w.put_opt_f64(self.min_rtt);
        w.put_f64(self.gain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::time::SimDuration;

    fn ctx_at(newly: u64, t_ms: u64, rtt_ms: u64) -> AckCtx {
        AckCtx {
            newly_acked: newly,
            rtt_sample: Some(SimDuration::from_millis(rtt_ms)),
            ece: false,
            now: SimTime::ZERO + SimDuration::from_millis(t_ms),
            snd_una: 0,
            snd_nxt: 0,
            in_recovery: false,
        }
    }

    #[test]
    fn bandwidth_estimate_converges() {
        let mut cc = WestwoodCc::new();
        let mut w = Windows::new(1000, 4);
        // 1000 B per 1 ms = 1 MB/s.
        for t in 0..200u64 {
            cc.on_ack(&ctx_at(1000, t, 2), &mut w);
        }
        assert!(
            (cc.bwe() - 1_000_000.0).abs() / 1_000_000.0 < 0.05,
            "bwe = {}",
            cc.bwe()
        );
    }

    #[test]
    fn loss_sets_window_to_pipe_size() {
        let mut cc = WestwoodCc::new();
        let mut w = Windows::new(1000, 32);
        for t in 0..100u64 {
            cc.on_ack(&ctx_at(1000, t, 4), &mut w);
        }
        // Pipe = 1 MB/s * 4 ms = 4000 B.
        cc.on_fast_loss(SimTime::ZERO, 32_000, &mut w);
        assert!((w.cwnd - 4_000.0).abs() < 300.0, "cwnd {}", w.cwnd);
        // A Reno sender would have halved flight to 16 000 — Westwood is
        // deliberately different here.
        assert!(w.cwnd < 16_000.0);
    }

    #[test]
    fn timeout_keeps_pipe_ssthresh_but_one_mss_cwnd() {
        let mut cc = WestwoodCc::new();
        let mut w = Windows::new(1000, 32);
        for t in 0..100u64 {
            cc.on_ack(&ctx_at(1000, t, 4), &mut w);
        }
        cc.on_timeout(SimTime::ZERO, 32_000, &mut w);
        assert_eq!(w.cwnd, 1000.0);
        assert!(w.ssthresh > 3_000.0);
    }

    #[test]
    fn falls_back_to_reno_before_estimates() {
        let mut cc = WestwoodCc::new();
        let mut w = Windows::new(1000, 10);
        cc.on_fast_loss(SimTime::ZERO, 10_000, &mut w);
        assert_eq!(w.cwnd, 5_000.0, "Reno fallback");
    }
}
