//! The congestion-control strategy interface shared by all TCP variants.
//!
//! The loss-detection machinery (dup-acks, fast retransmit, RTO) lives in
//! [`crate::tcp::TcpSender`]; what differs between New Reno, DCTCP, Vegas,
//! and Westwood is *how the window reacts* to acknowledgments, ECN echoes,
//! and losses. That reaction is factored into [`CongControl`].

use dcn_sim::snapshot::SnapWriter;
use dcn_sim::time::{SimDuration, SimTime};

/// Sender window state manipulated by congestion controllers.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    /// Congestion window in bytes.
    pub cwnd: f64,
    /// Slow-start threshold in bytes.
    pub ssthresh: f64,
    /// Maximum segment size in bytes.
    pub mss: f64,
}

impl Windows {
    pub fn new(mss: u32, init_cwnd_pkts: u32) -> Windows {
        Windows {
            cwnd: (mss * init_cwnd_pkts) as f64,
            ssthresh: f64::INFINITY,
            mss: mss as f64,
        }
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Clamp cwnd to at least one segment.
    pub fn clamp(&mut self) {
        if self.cwnd < self.mss {
            self.cwnd = self.mss;
        }
    }
}

/// Context for an acknowledgment that advanced `snd_una`.
#[derive(Clone, Copy, Debug)]
pub struct AckCtx {
    /// Bytes newly acknowledged.
    pub newly_acked: u64,
    /// RTT sample from the ack's timestamp echo.
    pub rtt_sample: Option<SimDuration>,
    /// ECN-echo flag (receiver saw CE).
    pub ece: bool,
    /// Current time.
    pub now: SimTime,
    /// Highest cumulative ack (== new snd_una).
    pub snd_una: u64,
    /// Next byte to be sent.
    pub snd_nxt: u64,
    /// Whether the sender is inside fast recovery.
    pub in_recovery: bool,
}

/// A congestion-control strategy.
pub trait CongControl: Send {
    /// Human-readable variant name.
    fn name(&self) -> &'static str;

    /// React to an ack that advanced the window (not called in recovery).
    fn on_ack(&mut self, ctx: &AckCtx, w: &mut Windows);

    /// Multiplicative decrease on fast retransmit (3 dup acks).
    fn on_fast_loss(&mut self, now: SimTime, flight: u64, w: &mut Windows);

    /// Collapse after a retransmission timeout.
    fn on_timeout(&mut self, now: SimTime, flight: u64, w: &mut Windows);

    /// Whether data packets should be marked ECN-capable.
    fn ecn_capable(&self) -> bool {
        false
    }

    /// Encode controller-private state for the window digest. Stateless
    /// controllers (New Reno) keep the no-op default; stateful ones
    /// (DCTCP's α, Vegas's epoch, Westwood's BWE) override it so a
    /// divergence in their estimators shows in the digest.
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Re-initialize for a new flow so the owning sender's box can be
    /// recycled (see [`dcn_sim::transport::Transport::reset`]). Afterwards
    /// the controller must be behaviorally identical to one fresh out of
    /// its constructor — estimators cleared, configuration (gains,
    /// thresholds) retained.
    fn reset(&mut self);
}

/// Standard Reno ack processing: slow start below ssthresh, AIMD above.
/// Shared by New Reno, DCTCP (when unmarked), and Westwood.
pub fn reno_ack(newly_acked: u64, w: &mut Windows) {
    if w.in_slow_start() {
        // One MSS per MSS acked.
        w.cwnd += (newly_acked as f64).min(w.mss);
    } else {
        // ~One MSS per RTT.
        w.cwnd += w.mss * w.mss / w.cwnd;
    }
}

/// Standard Reno halving used by fast retransmit.
pub fn reno_halve(flight: u64, w: &mut Windows) {
    w.ssthresh = (flight as f64 / 2.0).max(2.0 * w.mss);
    w.cwnd = w.ssthresh;
    w.clamp();
}

/// Standard timeout collapse: ssthresh = flight/2, cwnd = 1 MSS.
pub fn reno_timeout(flight: u64, w: &mut Windows) {
    w.ssthresh = (flight as f64 / 2.0).max(2.0 * w.mss);
    w.cwnd = w.mss;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut w = Windows::new(1000, 2);
        assert!(w.in_slow_start());
        // Ack a full window: cwnd grows by one MSS per MSS acked.
        reno_ack(1000, &mut w);
        reno_ack(1000, &mut w);
        assert_eq!(w.cwnd, 4000.0);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut w = Windows::new(1000, 10);
        w.ssthresh = 5_000.0;
        let before = w.cwnd;
        // Ack one full window worth of segments -> ~1 MSS growth.
        for _ in 0..10 {
            reno_ack(1000, &mut w);
        }
        let growth = w.cwnd - before;
        assert!((growth - 1000.0).abs() < 60.0, "growth {growth}");
    }

    #[test]
    fn halving_and_floor() {
        let mut w = Windows::new(1000, 10);
        reno_halve(10_000, &mut w);
        assert_eq!(w.ssthresh, 5_000.0);
        assert_eq!(w.cwnd, 5_000.0);
        reno_halve(1000, &mut w);
        assert_eq!(w.cwnd, 2_000.0, "floor of 2 MSS");
    }

    #[test]
    fn timeout_collapses_to_one_mss() {
        let mut w = Windows::new(1000, 10);
        reno_timeout(8_000, &mut w);
        assert_eq!(w.cwnd, 1000.0);
        assert_eq!(w.ssthresh, 4_000.0);
        assert!(w.in_slow_start());
    }
}
