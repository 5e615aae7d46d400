//! Per-boundary-packet fluid latency estimates.
//!
//! The full [`FlowSim`](crate::FlowSim) re-solves a global max-min fair
//! allocation at every flow event — fine for a standalone baseline, far
//! too coupled for serving one cluster inside a composed packet
//! simulation. The adaptive Flow fidelity tier instead asks a *local*
//! fluid question per boundary packet: "if this cluster's fabric shared
//! its bandwidth equally over the flows currently crossing this boundary,
//! how long would this packet dwell inside?" [`ShareEstimator`] answers it
//! with the same modeling assumptions as the fluid simulator (no queues,
//! no retransmissions, equal shares) scoped to one (cluster, direction)
//! stream, which keeps the estimate O(active flows) per packet and —
//! crucially for the composed engine — a pure function of the stream's
//! own item order.

use dcn_sim::packet::FlowId;
use dcn_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Equal-share fluid dwell estimator for one boundary stream.
///
/// A flow is *active* while the stream has seen a packet of it within the
/// trailing `window`; the estimator divides the configured bandwidth
/// equally among active flows (the fluid simulator's fair share, without
/// the cross-link coupling) and prices a packet at propagation plus
/// serialization at that share. Exit times are clamped monotone per
/// stream: fluids don't reorder.
#[derive(Clone, Debug)]
pub struct ShareEstimator {
    /// Shared bandwidth of the modeled path, bits/second.
    bw_bps: f64,
    /// Propagation through the cluster (hop count × link latency).
    base: SimDuration,
    /// Activity window: a flow idle longer than this stops claiming a
    /// share.
    window: SimDuration,
    /// Last packet time per active flow.
    active: HashMap<FlowId, SimTime>,
    /// Latest exit handed out (FIFO clamp).
    last_exit: SimTime,
}

impl ShareEstimator {
    pub fn new(bw_bps: u64, base: SimDuration, window: SimDuration) -> ShareEstimator {
        assert!(bw_bps > 0, "share estimator needs positive bandwidth");
        ShareEstimator {
            bw_bps: bw_bps as f64,
            base,
            window,
            active: HashMap::new(),
            last_exit: SimTime::ZERO,
        }
    }

    /// Flows currently holding a share.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// The propagation floor of every estimate.
    pub fn base(&self) -> SimDuration {
        self.base
    }

    /// Record a packet of `flow` at `now` and estimate its dwell:
    /// propagation plus serialization of `wire_bytes` at the current
    /// equal share. Returns the estimate and the active-flow count that
    /// priced it (the correction head's second feature). `now` must be
    /// non-decreasing across calls (boundary streams are).
    pub fn observe(&mut self, flow: FlowId, now: SimTime, wire_bytes: u32) -> (SimDuration, usize) {
        let horizon = now.as_nanos().saturating_sub(self.window.as_nanos());
        self.active.retain(|_, last| last.as_nanos() >= horizon);
        self.active.insert(flow, now);
        let n = self.active.len();
        let share = self.bw_bps / n as f64;
        let transmit = SimDuration::from_secs_f64(wire_bytes as f64 * 8.0 / share);
        (self.base + transmit, n)
    }

    /// Clamp a computed exit time monotone against everything this stream
    /// already emitted, and remember it.
    pub fn clamp_exit(&mut self, exit: SimTime) -> SimTime {
        let e = exit.max(self.last_exit);
        self.last_exit = e;
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> ShareEstimator {
        ShareEstimator::new(
            10_000_000,
            SimDuration::from_micros(1000),
            SimDuration::from_millis(10),
        )
    }

    #[test]
    fn single_flow_prices_at_line_rate() {
        let mut e = est();
        let (d, n) = e.observe(FlowId(1), SimTime::from_secs_f64(0.1), 1250);
        assert_eq!(n, 1);
        // 1250 B = 10 kb at 10 Mbps = 1 ms, plus the 1 ms base.
        assert!((d.as_secs_f64() - 0.002).abs() < 1e-9, "{d:?}");
    }

    #[test]
    fn shares_split_and_idle_flows_expire() {
        let mut e = est();
        let t = SimTime::from_secs_f64(0.1);
        e.observe(FlowId(1), t, 1250);
        let (d, n) = e.observe(FlowId(2), t, 1250);
        assert_eq!(n, 2);
        // Half the share doubles serialization: 2 ms + 1 ms base.
        assert!((d.as_secs_f64() - 0.003).abs() < 1e-9, "{d:?}");
        // 20 ms later flow 1 has expired; flow 2 is alone again.
        let (_, n) = e.observe(FlowId(2), t + SimDuration::from_millis(20), 1250);
        assert_eq!(n, 1);
    }

    #[test]
    fn exits_are_monotone() {
        let mut e = est();
        let a = e.clamp_exit(SimTime::from_secs_f64(0.5));
        let b = e.clamp_exit(SimTime::from_secs_f64(0.3));
        assert_eq!(a, SimTime::from_secs_f64(0.5));
        assert_eq!(b, a, "earlier exit must be clamped up");
    }
}
