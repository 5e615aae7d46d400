//! Adaptive fidelity tiers: the runtime scaling mechanism.
//!
//! The composed engine knows three ways to serve a cluster, ordered by
//! cost and fidelity ([`FidelityTier`]):
//!
//! * **Packet** — full packet-level simulation, decided at composition
//!   time (the clusters
//!   [`Pipeline::estimate_with_policy`](crate::pipeline::Pipeline::estimate_with_policy)
//!   falls back to). The ground truth; also the degradation fallback.
//! * **Mimic** — the trained LSTM ([`crate::fleet::MimicFleet`]).
//!   Accurate while live traffic resembles the training distribution.
//! * **Flow** — a fluid equal-share estimate per boundary packet
//!   ([`flow_sim::boundary::ShareEstimator`]), optionally sharpened by a
//!   small learned [`CorrectionHead`]. Orders of magnitude cheaper than
//!   the LSTM; the paper's Figures 1/7 show why it cannot be trusted
//!   alone — which is exactly why it is gated behind an accuracy budget.
//!
//! [`AdaptiveFleet`] serves the Mimic and Flow tiers behind one
//! [`ClusterModel`] and lets an
//! [`AccuracyBudget`](crate::degrade::AccuracyBudget) move clusters
//! between them at PDES epoch barriers: calm clusters sink to Flow, and
//! drift (scored by the same [`DriftMonitor`](crate::drift::DriftMonitor)
//! stream at both tiers) promotes them back to Mimic. Transitions happen
//! only at window barriers, never inside a window, so the tier
//! schedule — and therefore the whole run — is bit-identical across
//! partition counts.

use crate::fleet::MimicFleet;
use crate::degrade::{AccuracyBudget, BudgetLedger};
use dcn_sim::config::SimConfig;
use dcn_sim::instrument::Metrics;
use dcn_sim::mimic::{
    BoundaryDir, BoundaryItem, ClusterModel, FidelityTier, TierSwitch, Verdict,
};
use dcn_sim::time::{SimDuration, SimTime};
use flow_sim::boundary::ShareEstimator;
use serde::{Deserialize, Serialize};

/// Store-and-forward hops a boundary packet traverses inside a cluster:
/// two links in either direction (agg→ToR→host on ingress, host→ToR→agg
/// on egress — the boundary junctures of §5.1).
pub const FLOW_HOPS: u64 = 2;

/// Activity window of the Flow tier's equal-share estimator: a flow idle
/// longer than this stops claiming bandwidth. 10 ms ≈ several RTTs at the
/// paper's 500 µs links.
pub const SHARE_WINDOW: SimDuration = SimDuration(10_000_000);

/// Propagation base of the Flow tier's dwell estimate for `cfg`.
pub fn flow_base(cfg: &SimConfig) -> SimDuration {
    SimDuration(cfg.link.latency.as_nanos() * FLOW_HOPS)
}

/// One (size, share) → residual-latency training sample for the
/// correction head.
#[derive(Clone, Copy, Debug)]
pub struct CorrectionSample {
    pub wire_bytes: u32,
    pub active_flows: usize,
    /// True dwell minus the analytic equal-share estimate, seconds.
    pub residual_s: f64,
}

/// A learned linear correction on top of the Flow tier's analytic
/// estimate: `Δlatency = w_size·size_kbit + w_flows·active + b` seconds.
/// Fit by ridge regression on small-scale matched traces (the same data
/// the Mimics train on), it absorbs the systematic fluid-model bias —
/// queueing the equal-share estimate cannot see — without giving the
/// Flow tier any recurrent state.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CorrectionHead {
    pub w_size: f64,
    pub w_flows: f64,
    pub b: f64,
}

impl CorrectionHead {
    /// Additive latency correction in seconds for a packet of
    /// `wire_bytes` priced against `active_flows` sharers.
    pub fn apply(&self, wire_bytes: u32, active_flows: usize) -> f64 {
        self.w_size * (wire_bytes as f64 * 8.0 / 1e3) + self.w_flows * active_flows as f64 + self.b
    }

    /// Ridge fit (λ = 1e-6) of the three parameters via the workspace's
    /// own Cholesky solver ([`mimic_ml::gp`]). Returns `None` when there
    /// are too few samples or the normal equations are degenerate.
    pub fn fit(samples: &[CorrectionSample]) -> Option<CorrectionHead> {
        if samples.len() < 8 {
            return None;
        }
        // Normal equations over x = [size_kbit, active_flows, 1].
        let mut xtx = [0.0f64; 9];
        let mut xty = [0.0f64; 3];
        for s in samples {
            let x = [s.wire_bytes as f64 * 8.0 / 1e3, s.active_flows as f64, 1.0];
            for i in 0..3 {
                for j in 0..3 {
                    xtx[i * 3 + j] += x[i] * x[j];
                }
                xty[i] += x[i] * s.residual_s;
            }
        }
        for i in 0..3 {
            xtx[i * 3 + i] += 1e-6;
        }
        let l = mimic_ml::gp::cholesky(&xtx, 3)?;
        let z = mimic_ml::gp::solve_lower(&l, 3, &xty);
        let w = mimic_ml::gp::solve_upper_t(&l, 3, &z);
        let head = CorrectionHead {
            w_size: w[0],
            w_flows: w[1],
            b: w[2],
        };
        (head.w_size.is_finite() && head.w_flows.is_finite() && head.b.is_finite())
            .then_some(head)
    }
}

/// Fit the correction head from a small-scale run's boundary trace by
/// replaying each direction's matched packets through the *same*
/// [`ShareEstimator`] the Flow tier runs, so the residuals are measured
/// against exactly the estimate the head will correct.
pub fn fit_correction_head(cfg: &SimConfig, metrics: &Metrics) -> Option<CorrectionHead> {
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    let mut samples = Vec::new();
    for dir in [BoundaryDir::Ingress, BoundaryDir::Egress] {
        let trace = crate::trace::match_trace(&metrics.boundary, dir, horizon);
        let mut est = ShareEstimator::new(cfg.link.fabric_bw_bps, flow_base(cfg), SHARE_WINDOW);
        for p in &trace.packets {
            let Some(latency) = p.latency else { continue };
            let (dwell, n) = est.observe(p.enter.flow, p.enter.time, p.enter.wire_bytes);
            samples.push(CorrectionSample {
                wire_bytes: p.enter.wire_bytes,
                active_flows: n,
                residual_s: latency.as_secs_f64() - dwell.as_secs_f64(),
            });
        }
    }
    CorrectionHead::fit(&samples)
}

/// A [`ClusterModel`] serving every Mimic'ed cluster at whichever of
/// the Mimic/Flow tiers its [`BudgetLedger`] currently assigns, with the
/// inner [`MimicFleet`] handling Mimic-tier items and a pair of
/// [`ShareEstimator`]s per cluster handling Flow-tier items.
///
/// Determinism contract: a cluster's tier is constant within a PDES
/// window (switches fire only in [`ClusterModel::on_epoch`], which the
/// engine calls between windows), both tiers' verdicts are pure
/// functions of each lane's item order, and Flow-tier packets still feed
/// the inner fleet's feature extractors and drift monitors — so drift
/// scores, and with them the promote/demote schedule, are identical at
/// any partition count.
pub struct AdaptiveFleet {
    inner: MimicFleet,
    ledger: BudgetLedger,
    /// Per-served-cluster `[ingress, egress]` estimators, in the inner
    /// fleet's lane order.
    flow: Vec<[ShareEstimator; 2]>,
    /// Dense cluster-id → lane-index map (`u32::MAX` = not served).
    slot: Vec<u32>,
    correction: Option<CorrectionHead>,
    /// Fixed for the whole run regardless of the tier mix: both tiers
    /// clamp to it, so the PDES window never has to change mid-run.
    floor: SimDuration,
    /// Boundary packets served by each tier (instrumentation).
    pub flow_packets: u64,
    pub mimic_packets: u64,
}

impl AdaptiveFleet {
    /// Wrap `inner` under `budget`. All of `inner`'s clusters become
    /// budget-managed; clusters absent from `inner` (the observable
    /// cluster, composition-time packet clusters) stay at
    /// [`FidelityTier::Packet`] in the ledger.
    pub fn new(
        inner: MimicFleet,
        cfg: &SimConfig,
        budget: AccuracyBudget,
        correction: Option<CorrectionHead>,
    ) -> AdaptiveFleet {
        let n_clusters = cfg.topo.clusters;
        let ledger = BudgetLedger::new(budget, n_clusters, inner.clusters());
        let base = flow_base(cfg);
        let flow = inner
            .clusters()
            .iter()
            .map(|_| {
                [
                    ShareEstimator::new(cfg.link.fabric_bw_bps, base, SHARE_WINDOW),
                    ShareEstimator::new(cfg.link.fabric_bw_bps, base, SHARE_WINDOW),
                ]
            })
            .collect();
        let mut slot = vec![u32::MAX; n_clusters as usize];
        for (li, &c) in inner.clusters().iter().enumerate() {
            slot[c as usize] = li as u32;
        }
        let floor = inner.latency_floor();
        AdaptiveFleet {
            inner,
            ledger,
            flow,
            slot,
            correction,
            floor,
            flow_packets: 0,
            mimic_packets: 0,
        }
    }

    /// The wrapped Mimic fleet (tests and instrumentation).
    pub fn inner(&self) -> &MimicFleet {
        &self.inner
    }

    /// Clusters currently at `tier`.
    pub fn count_at(&self, tier: FidelityTier) -> usize {
        self.inner
            .clusters()
            .iter()
            .filter(|&&c| self.ledger.tier(c) == tier)
            .count()
    }

    fn flow_verdict(&mut self, item: &BoundaryItem) -> Verdict {
        let li = self.slot[item.cluster as usize] as usize;
        let d = match item.dir {
            BoundaryDir::Ingress => 0,
            BoundaryDir::Egress => 1,
        };
        let est = &mut self.flow[li][d];
        let (dwell, n) = est.observe(item.pkt.flow, item.enqueued_at, item.pkt.wire_bytes());
        let mut latency_s = dwell.as_secs_f64();
        if let Some(head) = &self.correction {
            latency_s += head.apply(item.pkt.wire_bytes(), n);
        }
        let latency = SimDuration::from_secs_f64(latency_s.max(0.0)).max(self.floor);
        let exit = est.clamp_exit(item.enqueued_at + latency);
        Verdict::Deliver {
            latency: SimDuration(exit.0 - item.enqueued_at.0),
            // Fluids see no queues: no marks, no drops (the systematic
            // optimism the accuracy budget exists to bound).
            mark_ce: false,
        }
    }
}

impl ClusterModel for AdaptiveFleet {
    fn clusters(&self) -> &[u32] {
        self.inner.clusters()
    }

    fn infer(&mut self, item: &BoundaryItem) -> Verdict {
        if self.ledger.tier(item.cluster) == FidelityTier::Flow {
            // Flow-tier packets still feed the lane's feature extractor
            // and drift monitor — promotion needs signal.
            self.inner.observe_boundary(item);
            self.flow_packets += 1;
            self.flow_verdict(item)
        } else {
            self.mimic_packets += 1;
            self.inner.infer(item)
        }
    }

    fn latency_floor(&self) -> SimDuration {
        self.floor
    }

    fn next_wake(&mut self, cluster: u32, now: SimTime) -> Option<SimTime> {
        // Identical cadence at both tiers, so the engine's wake chain —
        // part of the event trajectory — is tier-schedule-independent
        // only through the deterministic ledger, never through timing.
        self.inner.next_wake(cluster, now)
    }

    fn on_wake(&mut self, cluster: u32, now: SimTime) {
        match self.ledger.tier(cluster) {
            FidelityTier::Flow => self.inner.advance_feeders(cluster, now),
            _ => self.inner.on_wake(cluster, now),
        }
    }

    fn drift(&self, cluster: u32) -> Option<f64> {
        self.inner.drift(cluster)
    }

    fn tier(&self, cluster: u32) -> FidelityTier {
        self.ledger.tier(cluster)
    }

    fn on_epoch(&mut self, epoch: u64, drift: &[Option<f64>]) -> Vec<TierSwitch> {
        self.ledger.on_epoch(epoch, drift)
    }

    fn append_obs(&self, out: &mut dcn_obs::ObsReport) {
        self.inner.append_obs(out);
        *out.counters
            .entry("tier.flow_packets".into())
            .or_insert(0) += self.flow_packets;
        *out.counters
            .entry("tier.mimic_packets".into())
            .or_insert(0) += self.mimic_packets;
        *out.counters.entry("tier.clusters_mimic".into()).or_insert(0) +=
            self.count_at(FidelityTier::Mimic) as u64;
        *out.counters.entry("tier.clusters_flow".into()).or_insert(0) +=
            self.count_at(FidelityTier::Flow) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_head_recovers_linear_residual() {
        // Residual = 2e-6·size_kbit + 3e-5·flows + 1e-4, exactly linear:
        // the ridge fit should recover it to high precision.
        let truth = CorrectionHead {
            w_size: 2e-6,
            w_flows: 3e-5,
            b: 1e-4,
        };
        let samples: Vec<CorrectionSample> = (0..64)
            .map(|i| {
                let wire_bytes = 40 + (i % 7) * 200;
                let active_flows = 1 + (i % 5) as usize;
                CorrectionSample {
                    wire_bytes,
                    active_flows,
                    residual_s: truth.apply(wire_bytes, active_flows),
                }
            })
            .collect();
        let fit = CorrectionHead::fit(&samples).expect("fit succeeds");
        for s in &samples {
            let err = (fit.apply(s.wire_bytes, s.active_flows)
                - truth.apply(s.wire_bytes, s.active_flows))
            .abs();
            assert!(err < 1e-9, "err {err}");
        }
    }

    #[test]
    fn correction_head_fit_needs_enough_samples() {
        let s = CorrectionSample {
            wire_bytes: 1000,
            active_flows: 1,
            residual_s: 0.1,
        };
        assert!(CorrectionHead::fit(&[s; 7]).is_none());
    }

    #[test]
    fn correction_head_serde_round_trips() {
        let head = CorrectionHead {
            w_size: 1.5e-6,
            w_flows: -2.0e-5,
            b: 3.25e-4,
        };
        let json = serde_json::to_string(&head).expect("serialize");
        let back: CorrectionHead = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(head, back);
    }
}
