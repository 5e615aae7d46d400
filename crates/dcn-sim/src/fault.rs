//! Fault injection: one fabric loss window.
//!
//! The paper restricts MimicNet to "failure-free FatTrees" (§4.2) and only
//! speculates (Appendix A) that failures "could likely be modelled". The
//! engine violates that restriction in exactly one way, on purpose: gray
//! loss across the fabric. A [`LossWindow`] makes every ToR–Agg and
//! Agg–Core link lose each packet whose transmission starts inside
//! `[from, until)` with probability `prob`; host access links never lose
//! one. Loss is a function of the transmission's start time, not a
//! schedule of events, so a partitioned run needs no replicated state to
//! agree with the sequential one.

use crate::error::SimError;
use crate::time::SimTime;

/// Fabric-wide gray loss over one time window, installed with
/// [`crate::simulator::Simulation::set_loss_window`]. Only
/// [`LossWindow::new`] builds one, so every window is valid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossWindow {
    from: SimTime,
    until: SimTime,
    prob: f64,
}

impl LossWindow {
    /// Loss with probability `prob` for transmissions starting in
    /// `[from, until)`. `prob` must lie in [0, 1] and the window must not
    /// be empty.
    pub fn new(from: SimTime, until: SimTime, prob: f64) -> Result<LossWindow, SimError> {
        if !(0.0..=1.0).contains(&prob) {
            return Err(SimError::config(
                "loss_window.prob",
                format!("must lie in [0, 1], got {prob}"),
            ));
        }
        if from >= until {
            return Err(SimError::config(
                "loss_window.until",
                format!("must lie after `from`, got [{from:?}, {until:?})"),
            ));
        }
        Ok(LossWindow { from, until, prob })
    }

    /// The loss probability inside the window.
    pub(crate) fn prob(&self) -> f64 {
        self.prob
    }

    /// Does a fabric transmission starting at `now` draw for loss? Never
    /// at probability 0, so a zero window leaves the trajectory untouched.
    #[inline]
    pub(crate) fn draws_at(&self, now: SimTime) -> bool {
        self.prob > 0.0 && self.from <= now && now < self.until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::simulator::Simulation;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    #[test]
    fn window_is_half_open() {
        // The window draws from `from` up to, not at, `until`, and
        // nowhere at probability 0.
        let w = LossWindow::new(s(0.2), s(0.3), 0.5).unwrap();
        assert!(!w.draws_at(SimTime(s(0.2).0 - 1)));
        assert!(w.draws_at(s(0.2)));
        assert!(!w.draws_at(s(0.3)));
        let zero = LossWindow::new(SimTime::ZERO, SimTime::MAX, 0.0).unwrap();
        assert!(!zero.draws_at(s(0.25)));
    }

    #[test]
    fn window_past_end_is_elided() {
        // A window that opens after the run ends draws nothing: the run
        // is byte for byte the loss-free one.
        let mut cfg = SimConfig::small_scale();
        cfg.duration_s = 0.2;
        let plain = Simulation::new(cfg).run();
        let mut sim = Simulation::new(cfg);
        sim.set_loss_window(LossWindow::new(s(0.5), s(1.0), 1.0).unwrap());
        let m = sim.run();
        assert_eq!(m.fault_drops, 0);
        assert!(m.canonical_bytes() == plain.canonical_bytes());
    }

    #[test]
    fn rejects_out_of_range_inputs() {
        for p in [1.5, -0.01, f64::NAN] {
            assert!(matches!(
                LossWindow::new(s(0.1), s(0.2), p),
                Err(SimError::InvalidConfig {
                    field: "loss_window.prob",
                    ..
                })
            ));
        }
        assert!(matches!(
            LossWindow::new(s(0.5), s(0.5), 0.1),
            Err(SimError::InvalidConfig {
                field: "loss_window.until",
                ..
            })
        ));
        assert!(LossWindow::new(s(0.1), s(0.2), 1.0).is_ok());
    }
}
