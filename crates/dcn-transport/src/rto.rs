//! RFC 6298 retransmission-timeout estimation, and the one-pending-timer
//! deadline every transport's timeouts run on.
//!
//! Shared by every TCP variant. RTT samples come from acknowledgment
//! timestamp echoes (so Karn's problem of retransmission ambiguity does not
//! arise: the echo always reflects the copy that actually triggered the
//! ack).

use dcn_sim::snapshot::SnapWriter;
use dcn_sim::time::{SimDuration, SimTime};
use dcn_sim::transport::Actions;

/// RTO before any sample, seconds.
const INITIAL_RTO_S: f64 = 0.2;
/// Lower clamp of the RTO, seconds (as data-center stacks use).
const MIN_RTO_S: f64 = 0.01;
/// Upper clamp of the RTO, seconds.
const MAX_RTO_S: f64 = 4.0;

/// Smoothed RTT / RTO state per RFC 6298.
#[derive(Clone, Debug)]
pub struct RttEstimator {
    srtt: Option<f64>,
    rttvar: f64,
    rto: f64,
    backoff: u32,
    /// Lowest RTT ever observed (used by Vegas/Westwood).
    min_rtt: Option<f64>,
}

impl RttEstimator {
    /// Data-center-scaled bounds: 200 ms before the first sample, then
    /// clamped between 10 ms and 4 s.
    pub fn dc_default() -> RttEstimator {
        RttEstimator {
            srtt: None,
            rttvar: 0.0,
            rto: INITIAL_RTO_S,
            backoff: 0,
            min_rtt: None,
        }
    }

    /// Back to the as-constructed state (for endpoint recycling).
    pub fn reset(&mut self) {
        *self = RttEstimator::dc_default();
    }

    /// Incorporate a new RTT sample.
    pub fn sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_secs_f64();
        self.min_rtt = Some(self.min_rtt.map_or(r, |m: f64| m.min(r)));
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                // RFC 6298 with alpha = 1/8, beta = 1/4.
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
        self.rto = (self.srtt.unwrap() + 4.0 * self.rttvar).clamp(MIN_RTO_S, MAX_RTO_S);
        self.backoff = 0;
    }

    /// Current RTO including exponential backoff.
    pub fn rto(&self) -> SimDuration {
        let v = (self.rto * (1u64 << self.backoff.min(16)) as f64).min(MAX_RTO_S);
        SimDuration::from_secs_f64(v)
    }

    /// Double the RTO after a timeout (Karn backoff).
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }

    /// Smoothed RTT, if sampled.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_secs_f64)
    }

    /// Minimum observed RTT (a proxy for the uncongested path RTT).
    pub fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt.map(SimDuration::from_secs_f64)
    }

    /// Encode the full estimator state for the window digest.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_opt_f64(self.srtt);
        w.put_f64(self.rttvar);
        w.put_f64(self.rto);
        w.put_u32(self.backoff);
        w.put_opt_f64(self.min_rtt);
    }
}

/// A flow's timeout deadline with at most one timer pending in the engine.
///
/// Transports re-arm their timeout on nearly every packet, and engine
/// timers cannot be cancelled, so a timer per arm would leave a trail of
/// superseded events that pop only to be ignored. [`Deadline::arm`]
/// instead moves the deadline and pushes a timer only when none is
/// pending or the pending one fires after the new deadline; when the
/// pending timer fires early, [`Deadline::fire`] re-arms it at exactly the
/// deadline. The timeout therefore fires at the same instant, carrying the
/// same token, as the last of one-timer-per-arm would (DESIGN.md §12).
#[derive(Clone, Debug, Default)]
pub struct Deadline {
    /// Arms so far; the token of any timer pushed for the current deadline.
    gen: u64,
    /// When the current deadline expires.
    at: SimTime,
    /// Token and firing time of the one pending timer that still counts.
    /// It never fires after `at`.
    live: Option<(u64, SimTime)>,
}

impl Deadline {
    /// Set the deadline to `now + delay`, pushing a timer onto `out` only
    /// if no pending timer fires by then.
    pub fn arm(&mut self, now: SimTime, delay: SimDuration, out: &mut Actions) {
        self.gen += 1;
        self.at = now + delay;
        if !matches!(self.live, Some((_, t)) if t <= self.at) {
            self.live = Some((self.gen, self.at));
            out.timers.push((delay, self.gen));
        }
    }

    /// Timer `token` fired at `now`. Returns true when the deadline has
    /// expired. A superseded timer is ignored, and the pending one firing
    /// before the deadline re-arms at exactly the deadline.
    pub fn fire(&mut self, token: u64, now: SimTime, out: &mut Actions) -> bool {
        if !matches!(self.live, Some((live, _)) if live == token) {
            return false;
        }
        if now < self.at {
            self.live = Some((self.gen, self.at));
            out.timers.push((self.at.since(now), self.gen));
            return false;
        }
        self.live = None;
        true
    }

    /// Encode the deadline state for the window digest.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.gen);
        w.put_u64(self.at.as_nanos());
        w.put_opt_u64(self.live.map(|(token, _)| token));
        w.put_opt_u64(self.live.map(|(_, t)| t.as_nanos()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::dc_default();
        assert!(e.srtt().is_none());
        e.sample(ms(4));
        assert_eq!(e.srtt().unwrap(), ms(4));
        // RTO = srtt + 4*rttvar = 4 + 8 = 12 ms.
        assert_eq!(e.rto(), ms(12));
    }

    #[test]
    fn smoothing_converges() {
        let mut e = RttEstimator::dc_default();
        for _ in 0..200 {
            e.sample(ms(5));
        }
        let srtt = e.srtt().unwrap().as_secs_f64();
        assert!((srtt - 0.005).abs() < 1e-4);
        // With zero variance the RTO clamps to the minimum (10 ms).
        assert_eq!(e.rto(), ms(10));
    }

    #[test]
    fn rto_floor_and_cap() {
        let mut e = RttEstimator::dc_default();
        e.sample(SimDuration::from_micros(100));
        assert!(e.rto() >= ms(10), "floor violated");
        for _ in 0..20 {
            e.on_timeout();
        }
        assert!(e.rto() <= SimDuration::from_secs_f64(4.0), "cap violated");
    }

    #[test]
    fn backoff_doubles_until_sample_resets() {
        let mut e = RttEstimator::dc_default();
        e.sample(ms(20));
        let base = e.rto();
        e.on_timeout();
        assert_eq!(e.rto().as_nanos(), base.as_nanos() * 2);
        e.on_timeout();
        assert_eq!(e.rto().as_nanos(), base.as_nanos() * 4);
        // A fresh sample resets the backoff (and shrinks the variance term,
        // so the RTO lands at or below the pre-backoff value).
        e.sample(ms(20));
        assert!(e.rto() <= base);
    }

    #[test]
    fn min_rtt_tracks_minimum() {
        let mut e = RttEstimator::dc_default();
        e.sample(ms(8));
        e.sample(ms(3));
        e.sample(ms(12));
        assert_eq!(e.min_rtt().unwrap(), ms(3));
    }

    #[test]
    fn variance_raises_rto() {
        let mut e = RttEstimator::dc_default();
        for i in 0..100 {
            e.sample(if i % 2 == 0 { ms(2) } else { ms(20) });
        }
        // Noisy RTTs should give an RTO well above the mean RTT.
        assert!(e.rto() > ms(20));
    }

    fn at(ms_: u64) -> SimTime {
        SimTime::ZERO + ms(ms_)
    }

    #[test]
    fn later_deadlines_keep_the_pending_timer() {
        let mut d = Deadline::default();
        let mut out = Actions::default();
        d.arm(at(0), ms(10), &mut out);
        assert_eq!(out.timers, vec![(ms(10), 1)]);
        out.clear();
        // An ack train pushes the deadline out without new timers.
        for t in 1..=5 {
            d.arm(at(t), ms(10), &mut out);
        }
        assert!(out.timers.is_empty());
        // The pending timer fires early and re-arms for exactly the rest,
        // carrying the token of the arm that set the deadline.
        assert!(!d.fire(1, at(10), &mut out));
        assert_eq!(out.timers, vec![(ms(5), 6)]);
        out.clear();
        assert!(d.fire(6, at(15), &mut out), "deadline expired");
        assert!(out.timers.is_empty());
    }

    #[test]
    fn earlier_deadline_supersedes_the_pending_timer() {
        let mut d = Deadline::default();
        let mut out = Actions::default();
        d.arm(at(0), ms(200), &mut out);
        d.arm(at(2), ms(10), &mut out);
        assert_eq!(out.timers, vec![(ms(200), 1), (ms(10), 2)]);
        out.clear();
        assert!(d.fire(2, at(12), &mut out));
        // The first timer was superseded: it changes nothing when it pops.
        assert!(!d.fire(1, at(200), &mut out));
        assert!(out.timers.is_empty());
    }

    #[test]
    fn expired_deadline_fires_once() {
        let mut d = Deadline::default();
        let mut out = Actions::default();
        d.arm(at(0), ms(10), &mut out);
        assert!(d.fire(1, at(10), &mut out));
        assert!(!d.fire(1, at(10), &mut out));
        // Re-arming after expiry always schedules.
        out.clear();
        d.arm(at(10), ms(20), &mut out);
        assert_eq!(out.timers, vec![(ms(20), 2)]);
    }
}
