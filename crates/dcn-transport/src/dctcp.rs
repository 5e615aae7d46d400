//! DCTCP congestion control (Alizadeh et al., SIGCOMM 2010).
//!
//! Switch queues CE-mark ECN-capable packets once occupancy exceeds `K`
//! (see [`dcn_sim::queue::QueueConfig::ecn`]); the receiver echoes marks
//! per packet; the sender maintains an EWMA `α` of the marked fraction and
//! cuts its window by `α/2` at most once per window of data:
//!
//! ```text
//! α ← (1 − g)·α + g·F        (F = marked fraction of the last window)
//! cwnd ← cwnd · (1 − α/2)    (once per window when marks were seen)
//! ```
//!
//! The ECN marking threshold `K` is the configuration parameter the
//! paper's §9.4.1 use case tunes with MimicNet (Figure 13).

use crate::cc::{reno_ack, reno_halve, reno_timeout, AckCtx, CongControl, Windows};
use dcn_sim::time::SimTime;

/// DCTCP sender state.
pub struct DctcpCc {
    /// EWMA gain `g` (paper value 1/16).
    g: f64,
    /// Smoothed marked fraction `α`.
    alpha: f64,
    /// Bytes acked in the current observation window.
    acked_bytes: u64,
    /// Bytes acked with ECE in the current observation window.
    marked_bytes: u64,
    /// `snd_una` at which the current observation window ends.
    window_end: u64,
    /// `snd_una` until which further reductions are suppressed (one cut per
    /// window, like TCP's CWR state).
    cwr_end: u64,
}

impl DctcpCc {
    pub fn new(g: f64) -> DctcpCc {
        assert!(g > 0.0 && g <= 1.0);
        DctcpCc {
            g,
            alpha: 1.0, // start conservative, as the original
            acked_bytes: 0,
            marked_bytes: 0,
            window_end: 0,
            cwr_end: 0,
        }
    }

    /// Current α estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl CongControl for DctcpCc {
    fn name(&self) -> &'static str {
        "dctcp"
    }

    fn on_ack(&mut self, ctx: &AckCtx, w: &mut Windows) {
        self.acked_bytes += ctx.newly_acked;
        if ctx.ece {
            self.marked_bytes += ctx.newly_acked;
        }
        // End of an observation window: fold the marked fraction into α.
        if ctx.snd_una >= self.window_end {
            if self.acked_bytes > 0 {
                let f = self.marked_bytes as f64 / self.acked_bytes as f64;
                self.alpha = (1.0 - self.g) * self.alpha + self.g * f;
            }
            self.acked_bytes = 0;
            self.marked_bytes = 0;
            self.window_end = ctx.snd_nxt;
        }

        if ctx.ece {
            // Proportional reduction, at most once per window of data.
            if ctx.snd_una >= self.cwr_end {
                w.cwnd *= 1.0 - self.alpha / 2.0;
                w.clamp();
                w.ssthresh = w.cwnd;
                self.cwr_end = ctx.snd_nxt;
            }
        } else {
            reno_ack(ctx.newly_acked, w);
        }
    }

    fn on_fast_loss(&mut self, _now: SimTime, flight: u64, w: &mut Windows) {
        reno_halve(flight, w);
    }

    fn on_timeout(&mut self, _now: SimTime, flight: u64, w: &mut Windows) {
        reno_timeout(flight, w);
    }

    fn ecn_capable(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        // `g` is configuration; everything else back to `DctcpCc::new`.
        self.alpha = 1.0;
        self.acked_bytes = 0;
        self.marked_bytes = 0;
        self.window_end = 0;
        self.cwr_end = 0;
    }

    fn save_state(&self, w: &mut dcn_sim::snapshot::SnapWriter) {
        w.put_f64(self.g);
        w.put_f64(self.alpha);
        w.put_u64(self.acked_bytes);
        w.put_u64(self.marked_bytes);
        w.put_u64(self.window_end);
        w.put_u64(self.cwr_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::time::SimDuration;

    fn ctx(newly: u64, una: u64, nxt: u64, ece: bool) -> AckCtx {
        AckCtx {
            newly_acked: newly,
            rtt_sample: Some(SimDuration::from_millis(1)),
            ece,
            now: SimTime::ZERO,
            snd_una: una,
            snd_nxt: nxt,
            in_recovery: false,
        }
    }

    #[test]
    fn marks_packets_ecn_capable() {
        assert!(DctcpCc::new(1.0 / 16.0).ecn_capable());
    }

    #[test]
    fn alpha_decays_without_marks() {
        let mut cc = DctcpCc::new(0.5);
        let mut w = Windows::new(1000, 10);
        let mut una = 0;
        for i in 0..10 {
            una = (i + 1) * 10_000;
            cc.on_ack(&ctx(10_000, una, una + 10_000, false), &mut w);
        }
        assert!(cc.alpha() < 0.01, "alpha = {}", cc.alpha());
        let _ = una;
    }

    #[test]
    fn alpha_rises_with_full_marking() {
        let mut cc = DctcpCc::new(0.5);
        cc.alpha = 0.0;
        let mut w = Windows::new(1000, 10);
        for i in 0..10u64 {
            let una = (i + 1) * 10_000;
            cc.on_ack(&ctx(10_000, una, una + 10_000, true), &mut w);
        }
        assert!(cc.alpha() > 0.9, "alpha = {}", cc.alpha());
    }

    #[test]
    fn reduction_is_proportional_to_alpha() {
        let g = 1.0 / 16.0;
        let mut cc = DctcpCc::new(g);
        cc.alpha = 0.4;
        let mut w = Windows::new(1000, 10);
        w.cwnd = 20_000.0;
        // The ack closes the first observation window (fully marked), so
        // alpha folds in F = 1 first, then the cut applies.
        let alpha_after = (1.0 - g) * 0.4 + g * 1.0;
        cc.on_ack(&ctx(1000, 1000, 21_000, true), &mut w);
        assert!((cc.alpha() - alpha_after).abs() < 1e-12);
        let expect = 20_000.0 * (1.0 - alpha_after / 2.0);
        assert!((w.cwnd - expect).abs() < 1.0, "cwnd {}", w.cwnd);
    }

    #[test]
    fn at_most_one_cut_per_window() {
        let mut cc = DctcpCc::new(1.0 / 16.0);
        cc.alpha = 1.0;
        let mut w = Windows::new(1000, 20);
        w.cwnd = 20_000.0;
        cc.on_ack(&ctx(1000, 1000, 21_000, true), &mut w);
        let after_first = w.cwnd;
        // Second marked ack inside the same window: no further cut.
        cc.on_ack(&ctx(1000, 2000, 21_000, true), &mut w);
        assert_eq!(w.cwnd, after_first);
        // After passing cwr_end (21 000), cuts are allowed again.
        cc.on_ack(&ctx(20_000, 22_000, 40_000, true), &mut w);
        assert!(w.cwnd < after_first);
    }

    #[test]
    fn unmarked_acks_grow_like_reno() {
        let mut cc = DctcpCc::new(1.0 / 16.0);
        let mut w = Windows::new(1000, 2);
        let before = w.cwnd;
        cc.on_ack(&ctx(1000, 1000, 3000, false), &mut w);
        assert_eq!(w.cwnd, before + 1000.0);
    }
}
