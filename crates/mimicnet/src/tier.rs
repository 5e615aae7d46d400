//! Adaptive fidelity tiers: the runtime scaling mechanism.
//!
//! The composed engine knows three ways to serve a cluster, ordered by
//! cost and fidelity ([`FidelityTier`]):
//!
//! * **Packet** — full packet-level simulation: the observable cluster
//!   of every composition, and every cluster of the ground truth.
//! * **Mimic** — the trained LSTM ([`crate::fleet::MimicFleet`]).
//!   Accurate while live traffic resembles the training distribution.
//! * **Flow** — a fluid equal-share estimate per boundary packet
//!   ([`flow_sim::boundary::ShareEstimator`]), optionally sharpened by a
//!   small learned [`CorrectionHead`]. Orders of magnitude cheaper than
//!   the LSTM; the paper's Figures 1/7 show why it cannot be trusted
//!   alone — which is exactly why it is gated behind an accuracy budget.
//!
//! [`AdaptiveFleet`] serves the Mimic and Flow tiers behind one
//! [`ClusterModel`] and lets an [`AccuracyBudget`] move clusters between
//! them at PDES epoch barriers: calm clusters sink to Flow, and drift
//! (scored by the same [`DriftMonitor`](crate::drift::DriftMonitor)
//! stream at both tiers) promotes them back to Mimic. The budget is the
//! only thing that acts on drift. Transitions happen only at window
//! barriers, never inside a window, so the tier schedule — and therefore
//! the whole run — is bit-identical across partition counts.

use crate::fleet::MimicFleet;
use dcn_sim::config::SimConfig;
use dcn_sim::instrument::Metrics;
use dcn_sim::mimic::{
    BoundaryDir, BoundaryItem, ClusterModel, FidelityTier, TierSwitch, Verdict,
};
use dcn_sim::time::{SimDuration, SimTime};
use flow_sim::boundary::ShareEstimator;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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

/// The accuracy budget: the one response to drift. It drives continuous
/// promotion/demotion of clusters between the Mimic and Flow tiers at
/// PDES epoch barriers. Drift is the accuracy signal (a cluster whose
/// live traffic looks like the Mimic's training distribution is safe to
/// approximate more cheaply; one that drifts needs the higher tier), and
/// `max_above_flow` is the cost side of the budget: how many clusters may
/// run above Flow at once.
///
/// Thresholds are compared against the drift score clamped at zero
/// (scores are non-negative; the clamp maps a NaN score to zero).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AccuracyBudget {
    /// Promote a Flow-tier cluster back to Mimic when its drift reaches
    /// this.
    pub promote_above: f64,
    /// A Mimic-tier cluster is "calm" in an epoch when its drift is below
    /// this (an unmonitored epoch counts as calm: no evidence of
    /// drift, and an idle cluster is exactly the cheap-to-approximate
    /// case).
    pub demote_below: f64,
    /// Consecutive calm epochs required before a Mimic→Flow demotion.
    pub patience: u32,
    /// Hard cap on clusters simultaneously above the Flow tier. When more
    /// qualify, the worst-drift clusters win (ties broken by cluster
    /// index, so the decision is deterministic).
    pub max_above_flow: usize,
    /// Tier managed clusters start the run at (Mimic warms the comparison
    /// path; Flow maximizes early speed). Must be Mimic or Flow.
    pub start: FidelityTier,
}

impl Default for AccuracyBudget {
    fn default() -> Self {
        AccuracyBudget {
            promote_above: 1.0,
            demote_below: 0.5,
            patience: 2,
            max_above_flow: usize::MAX,
            start: FidelityTier::Mimic,
        }
    }
}

/// The budget's mutable accounting: current tier and consecutive-calm
/// count per cluster. Every LP of a partitioned run holds an identical
/// replica and feeds it identical merged drift vectors at identical epoch
/// barriers, so replicas never diverge.
#[derive(Clone, Debug)]
pub struct BudgetLedger {
    budget: AccuracyBudget,
    /// Current tier, indexed by cluster. Unmanaged clusters (the
    /// observable cluster) are pinned at [`FidelityTier::Packet`].
    tiers: Vec<FidelityTier>,
    managed: Vec<bool>,
    calm: Vec<u32>,
}

impl BudgetLedger {
    /// A ledger over `clusters` total clusters, with `managed` listing the
    /// adaptively-tiered (Mimic'ed) ones; the rest stay packet-level.
    pub fn new(budget: AccuracyBudget, clusters: u32, managed: &[u32]) -> BudgetLedger {
        assert!(
            matches!(budget.start, FidelityTier::Mimic | FidelityTier::Flow),
            "managed clusters start at Mimic or Flow, not Packet"
        );
        let n = clusters as usize;
        let mut tiers = vec![FidelityTier::Packet; n];
        let mut is_managed = vec![false; n];
        for &c in managed {
            assert!((c as usize) < n, "managed cluster {c} out of range");
            tiers[c as usize] = budget.start;
            is_managed[c as usize] = true;
        }
        BudgetLedger {
            budget,
            tiers,
            managed: is_managed,
            calm: vec![0; n],
        }
    }

    /// Current tier of `cluster`.
    pub fn tier(&self, cluster: u32) -> FidelityTier {
        self.tiers
            .get(cluster as usize)
            .copied()
            .unwrap_or(FidelityTier::Packet)
    }

    /// One epoch of the accuracy budget: update calm counters from the
    /// merged drift vector, apply promotions/demotions, enforce the
    /// above-Flow cap, and return the switches made. Pure function of
    /// (ledger state, inputs) — no clocks, no RNG — which is what keeps
    /// every partition count on the same tier schedule.
    pub fn on_epoch(&mut self, epoch: u64, drift: &[Option<f64>]) -> Vec<TierSwitch> {
        let n = self.tiers.len();
        let score: Vec<Option<f64>> = (0..n)
            .map(|c| drift.get(c).copied().flatten().map(|d| d.max(0.0)))
            .collect();
        let mut want = self.tiers.clone();
        for c in 0..n {
            if !self.managed[c] {
                continue;
            }
            let calm_now = score[c].is_none_or(|d| d < self.budget.demote_below);
            match self.tiers[c] {
                FidelityTier::Mimic => {
                    if calm_now {
                        self.calm[c] = self.calm[c].saturating_add(1);
                        if self.calm[c] >= self.budget.patience {
                            want[c] = FidelityTier::Flow;
                        }
                    } else {
                        self.calm[c] = 0;
                    }
                }
                FidelityTier::Flow => {
                    if score[c].is_some_and(|d| d >= self.budget.promote_above) {
                        want[c] = FidelityTier::Mimic;
                        self.calm[c] = 0;
                    } else if calm_now {
                        self.calm[c] = self.calm[c].saturating_add(1);
                    } else {
                        self.calm[c] = 0;
                    }
                }
                FidelityTier::Packet => {}
            }
        }
        // Cost cap: worst-drift clusters keep the Mimic tier, ties to the
        // lower cluster index.
        let mut above: Vec<u32> = (0..n)
            .filter(|&c| self.managed[c] && want[c] == FidelityTier::Mimic)
            .map(|c| c as u32)
            .collect();
        if above.len() > self.budget.max_above_flow {
            above.sort_by(|&a, &b| {
                let da = score[a as usize].unwrap_or(0.0);
                let db = score[b as usize].unwrap_or(0.0);
                db.partial_cmp(&da).expect("finite drift scores").then(a.cmp(&b))
            });
            for &c in &above[self.budget.max_above_flow..] {
                want[c as usize] = FidelityTier::Flow;
                self.calm[c as usize] = 0;
            }
        }
        let mut switches = Vec::new();
        for (c, &to) in want.iter().enumerate() {
            if to != self.tiers[c] {
                switches.push(TierSwitch {
                    epoch,
                    cluster: c as u32,
                    from: self.tiers[c],
                    to,
                });
                self.tiers[c] = to;
            }
        }
        switches
    }
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
/// any partition count. Feeder wakes run on demand (see
/// [`crate::fleet`]), each under the tier its cluster had at the wake's
/// own time: at Mimic a wake advances the lane's interarrival features
/// and keeps its packets in the lane's replay backlog, at Flow it
/// advances the feeder streams only and leaves the backlog as it was, so
/// the first Mimic verdict after a promotion replays the newest
/// Mimic-tier packets.
pub struct AdaptiveFleet {
    inner: MimicFleet,
    ledger: BudgetLedger,
    /// Per-served-cluster `[ingress, egress]` estimators, in the inner
    /// fleet's lane order.
    flow: Vec<[ShareEstimator; 2]>,
    /// Dense cluster-id → lane-index map (`u32::MAX` = not served).
    slot: Vec<u32>,
    /// Per served cluster, the switches its pending wakes may straddle:
    /// `(epoch time, tier before the switch)`, oldest first. A wake at
    /// `w` ran under the `before` tier of the first entry after `w`, or
    /// under the current tier when there is none.
    switched: Vec<VecDeque<(SimTime, FidelityTier)>>,
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
    /// cluster) stay at [`FidelityTier::Packet`] in the ledger.
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
            switched: vec![VecDeque::new(); inner.clusters().len()],
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

    /// The tier `cluster` had at simulated time `w`, for a wake at `w`
    /// no earlier than any asked about before. Switches at or before `w`
    /// can no longer matter and are forgotten.
    fn tier_at(&mut self, cluster: u32, w: SimTime) -> FidelityTier {
        let log = &mut self.switched[self.slot[cluster as usize] as usize];
        while log.front().is_some_and(|&(at, _)| at <= w) {
            log.pop_front();
        }
        log.front().map_or_else(|| self.ledger.tier(cluster), |&(_, before)| before)
    }

    /// Serve one boundary packet at its cluster's current tier; its wakes
    /// before the item have run.
    fn serve(&mut self, item: &BoundaryItem) -> Verdict {
        if self.ledger.tier(item.cluster) == FidelityTier::Flow {
            // Flow-tier packets still feed the lane's feature extractor
            // and drift monitor — promotion needs signal.
            self.inner.observe_boundary(item);
            self.flow_packets += 1;
            self.flow_verdict(item)
        } else {
            self.mimic_packets += 1;
            self.inner.verdict(item)
        }
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
        // The caller drained the cluster's wakes before the item.
        debug_assert!(
            self.inner
                .pending_wake(item.cluster, item.enqueued_at)
                .is_none(),
            "infer before the cluster's warm-up"
        );
        self.serve(item)
    }

    fn latency_floor(&self) -> SimDuration {
        self.floor
    }

    fn idle(&mut self, cluster: u32, until: SimTime) -> bool {
        // The same wake cadence at both tiers; only the work per wake
        // depends on the tier at the wake.
        let Some(w) = self.inner.pending_wake(cluster, until) else {
            return false;
        };
        let full = self.tier_at(cluster, w) != FidelityTier::Flow;
        self.inner.run_wake(cluster, full);
        true
    }

    fn drift(&self, cluster: u32) -> Option<f64> {
        self.inner.drift(cluster)
    }

    fn tier(&self, cluster: u32) -> FidelityTier {
        self.ledger.tier(cluster)
    }

    fn on_epoch(&mut self, epoch: u64, at: SimTime, drift: &[Option<f64>]) -> Vec<TierSwitch> {
        let switches = self.ledger.on_epoch(epoch, drift);
        for s in &switches {
            self.switched[self.slot[s.cluster as usize] as usize].push_back((at, s.from));
        }
        switches
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
    use crate::fleet::tests::{fleet, idle_at_random, lanes, random_items, warm_infer, EagerChain};
    use dcn_sim::rng::SplitMix64;

    /// The lazy-equals-eager oracle across tier switches: one adaptive
    /// fleet runs the engine's old wake chain on the clock, each wake at
    /// the tier of that moment; its twin gets the same items and epochs
    /// but warms up on demand, with `idle` called at random points. Every
    /// epoch forces switches both ways (patience 1: a calm Mimic cluster
    /// sinks, a drifting Flow cluster rises).
    #[test]
    fn on_demand_warm_up_follows_the_tier_at_each_wake() {
        let mut cfg = SimConfig::small_scale();
        cfg.topo.clusters = 8;
        let budget = AccuracyBudget {
            patience: 1,
            ..AccuracyBudget::default()
        };
        let mk = || AdaptiveFleet::new(fleet(), &cfg, budget.clone(), None);
        let (mut eager, mut lazy) = (mk(), mk());
        let mut chain = EagerChain::new(&eager.inner);
        let mut rng = SplitMix64::new(11);
        let epoch_every = SimDuration::from_millis(5);
        let (mut epoch, mut next_epoch) = (0u64, SimTime::ZERO + epoch_every);
        let (mut demoted, mut promoted) = (0, 0);
        let mut prev = SimTime::ZERO;
        for item in &random_items(400, 7) {
            // Epoch barriers at or before the item come first.
            while next_epoch <= item.enqueued_at {
                let ledger = &eager.ledger;
                chain.run_until(&mut eager.inner, next_epoch, |c| {
                    ledger.tier(c) != FidelityTier::Flow
                });
                idle_at_random(&mut lazy, &mut rng, prev, next_epoch);
                let drift: Vec<Option<f64>> = (0..8)
                    .map(|_| (rng.next_below(2) == 0).then_some(5.0))
                    .collect();
                let switches = eager.on_epoch(epoch, next_epoch, &drift);
                assert_eq!(lazy.on_epoch(epoch, next_epoch, &drift), switches);
                for s in &switches {
                    match s.to {
                        FidelityTier::Flow => demoted += 1,
                        _ => promoted += 1,
                    }
                }
                prev = next_epoch;
                epoch += 1;
                next_epoch += epoch_every;
            }
            let ledger = &eager.ledger;
            chain.run_until(&mut eager.inner, item.enqueued_at, |c| {
                ledger.tier(c) != FidelityTier::Flow
            });
            let want = eager.serve(item);
            idle_at_random(&mut lazy, &mut rng, prev, item.enqueued_at);
            assert_eq!(warm_infer(&mut lazy, item), want, "item {}", item.pkt.id);
            prev = item.enqueued_at;
        }
        assert!(
            demoted > 10 && promoted > 10,
            "{demoted} demotions, {promoted} promotions"
        );
        assert!(eager.flow_packets > 50 && eager.mimic_packets > 50);
        let end = prev + SimDuration::from_millis(1);
        let ledger = &eager.ledger;
        chain.run_until(&mut eager.inner, end, |c| {
            ledger.tier(c) != FidelityTier::Flow
        });
        for c in 1..8 {
            while lazy.idle(c, end) {}
        }
        assert_eq!(lanes(&lazy.inner), lanes(&eager.inner));
        assert_eq!(
            (lazy.flow_packets, lazy.mimic_packets),
            (eager.flow_packets, eager.mimic_packets)
        );
    }

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

    fn quiet_epochs(ledger: &mut BudgetLedger, drift: &[Option<f64>], from: u64, n: u64) -> Vec<TierSwitch> {
        let mut all = Vec::new();
        for e in from..from + n {
            all.extend(ledger.on_epoch(e, drift));
        }
        all
    }

    #[test]
    fn ledger_demotes_after_patience_and_promotes_on_drift() {
        let budget = AccuracyBudget {
            patience: 2,
            ..AccuracyBudget::default()
        };
        let mut ledger = BudgetLedger::new(budget, 3, &[1, 2]);
        assert_eq!(ledger.tier(0), FidelityTier::Packet);
        assert_eq!(ledger.tier(1), FidelityTier::Mimic);
        // One calm epoch is not enough; the second flips both managed
        // clusters to Flow.
        let calm = [None, Some(0.1), None];
        assert!(ledger.on_epoch(0, &calm).is_empty());
        let sw = ledger.on_epoch(1, &calm);
        assert_eq!(sw.len(), 2);
        assert!(sw
            .iter()
            .all(|s| s.from == FidelityTier::Mimic && s.to == FidelityTier::Flow && s.epoch == 1));
        assert_eq!(ledger.tier(2), FidelityTier::Flow);
        // Drift on cluster 2 promotes it immediately; cluster 1 stays Flow.
        let sw = ledger.on_epoch(2, &[None, Some(0.2), Some(1.7)]);
        assert_eq!(sw.len(), 1);
        assert_eq!(sw[0].cluster, 2);
        assert_eq!(sw[0].to, FidelityTier::Mimic);
        assert_eq!(ledger.tier(1), FidelityTier::Flow);
        // The unmanaged cluster never moves.
        assert_eq!(ledger.tier(0), FidelityTier::Packet);
    }

    #[test]
    fn ledger_noise_resets_patience() {
        let mut ledger = BudgetLedger::new(
            AccuracyBudget {
                patience: 3,
                ..AccuracyBudget::default()
            },
            1,
            &[0],
        );
        let calm = [Some(0.0)];
        let noisy = [Some(0.7)]; // above demote_below, below promote_above
        assert!(quiet_epochs(&mut ledger, &calm, 0, 2).is_empty());
        assert!(ledger.on_epoch(2, &noisy).is_empty());
        // Counter restarted: two more calm epochs still aren't enough.
        assert!(quiet_epochs(&mut ledger, &calm, 3, 2).is_empty());
        let sw = ledger.on_epoch(5, &calm);
        assert_eq!(sw.len(), 1);
        assert_eq!(sw[0].to, FidelityTier::Flow);
    }

    #[test]
    fn ledger_cap_keeps_worst_drift_deterministically() {
        let budget = AccuracyBudget {
            start: FidelityTier::Flow,
            max_above_flow: 2,
            ..AccuracyBudget::default()
        };
        let mut ledger = BudgetLedger::new(budget, 4, &[0, 1, 2, 3]);
        // All four want promotion, but only the two worst get it; the tie
        // between clusters 1 and 3 (same drift) goes to the lower index.
        let sw = ledger.on_epoch(0, &[Some(1.5), Some(2.0), Some(1.2), Some(2.0)]);
        assert_eq!(sw.len(), 2);
        let promoted: Vec<u32> = sw.iter().map(|s| s.cluster).collect();
        assert_eq!(promoted, vec![1, 3]);
        assert_eq!(ledger.tier(0), FidelityTier::Flow);
        assert_eq!(ledger.tier(2), FidelityTier::Flow);
        // Replaying the same inputs on a fresh ledger yields the identical
        // schedule — the decision is a pure function of its inputs.
        let mut replay = BudgetLedger::new(
            AccuracyBudget {
                start: FidelityTier::Flow,
                max_above_flow: 2,
                ..AccuracyBudget::default()
            },
            4,
            &[0, 1, 2, 3],
        );
        let sw2 = replay.on_epoch(0, &[Some(1.5), Some(2.0), Some(1.2), Some(2.0)]);
        assert_eq!(sw, sw2);
    }
}
