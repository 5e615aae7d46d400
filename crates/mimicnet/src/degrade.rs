//! Graceful degradation under drift (robustness layer over composition).
//!
//! MimicNet's accuracy rests on the Mimics seeing traffic like their
//! training traffic; the paper sidesteps violations by restricting itself
//! to failure-free networks (§4.2). This module handles the violation
//! instead of excluding it: when a deployed Mimic's drift score
//! ([`crate::drift`]) crosses policy thresholds, the estimate degrades
//! gracefully rather than silently returning garbage —
//!
//! 1. **Annotate** — the report flags the drifted clusters.
//! 2. **Widen** — headline percentiles gain an uncertainty factor scaled
//!    by the drift magnitude.
//! 3. **Fallback** — the worst clusters are swapped back to packet-level
//!    simulation and the estimate re-run, trading speed for fidelity
//!    exactly where the models stopped being trustworthy.

use dcn_sim::mimic::{FidelityTier, TierSwitch};
use serde::{Deserialize, Serialize};

/// Thresholds driving the escalation ladder. Scores come from
/// [`crate::drift::DriftMonitor::score`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DegradationPolicy {
    /// At or above this drift, a cluster is annotated as drifted.
    pub annotate_above: f64,
    /// At or above this drift, the report's uncertainty is widened.
    pub widen_above: f64,
    /// At or above this drift, the cluster is re-simulated at full
    /// fidelity.
    pub fallback_above: f64,
    /// Cap on how many clusters may fall back per estimate (bounds the
    /// cost of a pathological run; the observable cluster never counts).
    pub max_fallbacks: usize,
    /// At or above this excess drift on *any* cluster, every Mimic
    /// cluster falls back — including unmonitored ones. A drift this far
    /// out suggests a network-wide event (a fabric failure shifts traffic
    /// into every cluster, monitored or not), so per-cluster containment
    /// no longer applies; the estimate reverts to full packet-level
    /// simulation. Bypasses `max_fallbacks`. Default: infinity (off).
    pub global_fallback_above: f64,
    /// Per-cluster baseline drift, subtracted before thresholding.
    ///
    /// Even a healthy large composition drifts somewhat from the
    /// small-scale training distribution (more clusters shift the feature
    /// ranges); calibrating the baseline from a known-healthy shakedown
    /// run makes the thresholds measure *excess* drift — the part caused
    /// by events, not scale. Empty (the default) means a zero baseline.
    pub baseline: Vec<f64>,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            annotate_above: 0.5,
            widen_above: 1.0,
            fallback_above: 2.0,
            max_fallbacks: 8,
            global_fallback_above: f64::INFINITY,
            baseline: Vec::new(),
        }
    }
}

/// What the policy decided for one cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationAction {
    /// In distribution; keep the Mimic.
    Keep,
    /// Flag it in the report.
    Annotate,
    /// Flag it and widen the estimate's uncertainty.
    Widen,
    /// Replace it with packet-level simulation.
    Fallback,
}

/// Per-cluster outcome of applying a [`DegradationPolicy`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterDrift {
    pub cluster: u32,
    /// The drift the policy acted on — the monitor's score minus the
    /// policy's calibrated baseline (clamped at zero). `None` when the
    /// cluster is full fidelity or unmonitored.
    pub drift: Option<f64>,
    pub action: DegradationAction,
}

/// The policy's decision for a whole run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DegradationReport {
    pub clusters: Vec<ClusterDrift>,
    /// Multiplier (≥ 1) for the estimate's uncertainty band.
    pub uncertainty_factor: f64,
}

impl DegradationReport {
    /// Clusters the policy wants re-simulated at full fidelity.
    pub fn fallback_clusters(&self) -> Vec<u32> {
        self.clusters
            .iter()
            .filter(|c| c.action == DegradationAction::Fallback)
            .map(|c| c.cluster)
            .collect()
    }

    /// Any action beyond Keep anywhere?
    pub fn degraded(&self) -> bool {
        self.clusters
            .iter()
            .any(|c| c.action != DegradationAction::Keep)
    }

    /// Highest drift observed across clusters.
    pub fn max_drift(&self) -> Option<f64> {
        self.clusters
            .iter()
            .filter_map(|c| c.drift)
            .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.max(d))))
    }
}

impl DegradationPolicy {
    /// Install a per-cluster drift baseline (see [`Self::baseline`]),
    /// typically `cluster_drift` from a known-healthy run with `None`
    /// entries zeroed.
    pub fn with_baseline(mut self, baseline: Vec<f64>) -> DegradationPolicy {
        self.baseline = baseline;
        self
    }

    /// Classify one drift score.
    pub fn action_for(&self, drift: f64) -> DegradationAction {
        if drift >= self.fallback_above {
            DegradationAction::Fallback
        } else if drift >= self.widen_above {
            DegradationAction::Widen
        } else if drift >= self.annotate_above {
            DegradationAction::Annotate
        } else {
            DegradationAction::Keep
        }
    }

    /// Apply the policy to a run's per-cluster drift vector (as produced
    /// in [`dcn_sim::instrument::Metrics::cluster_drift`]). When more
    /// than `max_fallbacks` clusters qualify, the worst ones win and the
    /// rest are demoted to [`DegradationAction::Widen`].
    pub fn evaluate(&self, cluster_drift: &[Option<f64>]) -> DegradationReport {
        let mut clusters: Vec<ClusterDrift> = cluster_drift
            .iter()
            .enumerate()
            .map(|(c, &drift)| {
                let excess = drift.map(|d| crate::drift::excess_score(d, &self.baseline, c));
                ClusterDrift {
                    cluster: c as u32,
                    drift: excess,
                    action: excess.map_or(DegradationAction::Keep, |d| self.action_for(d)),
                }
            })
            .collect();
        // A cluster this far out signals a network-wide event: revert the
        // whole composition, unmonitored clusters included.
        if clusters
            .iter()
            .any(|c| c.drift.is_some_and(|d| d >= self.global_fallback_above))
        {
            for c in &mut clusters {
                c.action = DegradationAction::Fallback;
            }
            let worst = clusters.iter().filter_map(|c| c.drift).fold(0.0, f64::max);
            return DegradationReport {
                clusters,
                uncertainty_factor: 1.0
                    + (worst - self.widen_above).max(0.0) / self.widen_above.max(1e-9),
            };
        }
        // Enforce the fallback budget, keeping the worst offenders.
        let mut fallbacks: Vec<usize> = clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.action == DegradationAction::Fallback)
            .map(|(i, _)| i)
            .collect();
        if fallbacks.len() > self.max_fallbacks {
            fallbacks.sort_by(|&a, &b| {
                let da = clusters[a].drift.unwrap_or(0.0);
                let db = clusters[b].drift.unwrap_or(0.0);
                db.partial_cmp(&da).expect("finite drift scores")
            });
            for &i in &fallbacks[self.max_fallbacks..] {
                clusters[i].action = DegradationAction::Widen;
            }
        }
        let worst = clusters
            .iter()
            .filter(|c| {
                matches!(
                    c.action,
                    DegradationAction::Widen | DegradationAction::Fallback
                )
            })
            .filter_map(|c| c.drift)
            .fold(0.0f64, f64::max);
        // Linear widening in drift beyond the widen threshold; 1.0 when
        // nothing crossed it.
        let uncertainty_factor = if worst >= self.widen_above {
            1.0 + (worst - self.widen_above) / self.widen_above.max(1e-9)
        } else {
            1.0
        };
        DegradationReport {
            clusters,
            uncertainty_factor,
        }
    }
}

/// The runtime generalization of [`DegradationPolicy`]: instead of a
/// one-shot end-of-run verdict, an accuracy budget drives *continuous*
/// promotion/demotion of clusters between the Mimic and Flow tiers at
/// PDES epoch barriers. Drift is the accuracy signal (a cluster whose
/// live traffic looks like the Mimic's training distribution is safe to
/// approximate more cheaply; one that drifts needs the higher tier), and
/// `max_above_flow` is the cost side of the budget: how many clusters may
/// run above Flow at once.
///
/// Thresholds are compared against *excess* drift (score minus
/// `baseline`, clamped at zero), like [`DegradationPolicy`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AccuracyBudget {
    /// Promote a Flow-tier cluster back to Mimic when its excess drift
    /// reaches this.
    pub promote_above: f64,
    /// A Mimic-tier cluster is "calm" in an epoch when its excess drift is
    /// below this (an unmonitored epoch counts as calm: no evidence of
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
    /// Per-cluster drift baseline, as in [`DegradationPolicy::baseline`].
    pub baseline: Vec<f64>,
}

impl Default for AccuracyBudget {
    fn default() -> Self {
        AccuracyBudget {
            promote_above: 1.0,
            demote_below: 0.5,
            patience: 2,
            max_above_flow: usize::MAX,
            start: FidelityTier::Mimic,
            baseline: Vec::new(),
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
    /// observable cluster, composition-time packet clusters) are pinned at
    /// [`FidelityTier::Packet`].
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
        let excess: Vec<Option<f64>> = (0..n)
            .map(|c| {
                drift
                    .get(c)
                    .copied()
                    .flatten()
                    .map(|d| crate::drift::excess_score(d, &self.budget.baseline, c))
            })
            .collect();
        let mut want = self.tiers.clone();
        for c in 0..n {
            if !self.managed[c] {
                continue;
            }
            let calm_now = excess[c].is_none_or(|d| d < self.budget.demote_below);
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
                    if excess[c].is_some_and(|d| d >= self.budget.promote_above) {
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
                let da = excess[a as usize].unwrap_or(0.0);
                let db = excess[b as usize].unwrap_or(0.0);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalation_ladder() {
        let p = DegradationPolicy::default();
        assert_eq!(p.action_for(0.1), DegradationAction::Keep);
        assert_eq!(p.action_for(0.7), DegradationAction::Annotate);
        assert_eq!(p.action_for(1.5), DegradationAction::Widen);
        assert_eq!(p.action_for(5.0), DegradationAction::Fallback);
    }

    #[test]
    fn evaluate_maps_clusters_and_widens() {
        let p = DegradationPolicy::default();
        let r = p.evaluate(&[None, Some(0.1), Some(1.5), Some(3.0)]);
        assert_eq!(r.clusters.len(), 4);
        assert_eq!(r.clusters[0].action, DegradationAction::Keep);
        assert_eq!(r.clusters[1].action, DegradationAction::Keep);
        assert_eq!(r.clusters[2].action, DegradationAction::Widen);
        assert_eq!(r.clusters[3].action, DegradationAction::Fallback);
        assert_eq!(r.fallback_clusters(), vec![3]);
        assert!(r.degraded());
        assert!(r.uncertainty_factor > 1.0);
        assert_eq!(r.max_drift(), Some(3.0));
    }

    #[test]
    fn fallback_budget_keeps_worst() {
        let p = DegradationPolicy {
            max_fallbacks: 1,
            ..DegradationPolicy::default()
        };
        let r = p.evaluate(&[Some(2.5), Some(4.0), Some(3.0)]);
        assert_eq!(r.fallback_clusters(), vec![1]);
        // Demoted clusters still widen.
        assert_eq!(r.clusters[0].action, DegradationAction::Widen);
        assert_eq!(r.clusters[2].action, DegradationAction::Widen);
    }

    #[test]
    fn global_fallback_reverts_everything() {
        let p = DegradationPolicy {
            global_fallback_above: 3.0,
            max_fallbacks: 1,
            ..DegradationPolicy::default()
        };
        // One catastrophic cluster drags even unmonitored ones down to
        // packet level, ignoring the per-cluster budget.
        let r = p.evaluate(&[None, Some(0.1), Some(3.5)]);
        assert!(r
            .clusters
            .iter()
            .all(|c| c.action == DegradationAction::Fallback));
        assert_eq!(r.fallback_clusters().len(), 3);
        // Below the global bar the budget applies as usual.
        let r = p.evaluate(&[None, Some(0.1), Some(2.5)]);
        assert_eq!(r.fallback_clusters().len(), 1);
    }

    #[test]
    fn baseline_absorbs_scale_drift() {
        // Raw drift 2.2 would trigger fallback, but a calibrated baseline
        // of 2.0 (healthy scale shift) reveals only 0.2 of excess.
        let p = DegradationPolicy::default().with_baseline(vec![2.0, 2.0]);
        let r = p.evaluate(&[Some(2.2), Some(4.5)]);
        assert_eq!(r.clusters[0].action, DegradationAction::Keep);
        let excess = r.clusters[0].drift.expect("monitored");
        assert!((excess - 0.2).abs() < 1e-9, "excess {excess}");
        assert_eq!(r.clusters[1].action, DegradationAction::Fallback);
    }

    #[test]
    fn clean_run_is_untouched() {
        let p = DegradationPolicy::default();
        let r = p.evaluate(&[None, Some(0.0), Some(0.2)]);
        assert!(!r.degraded());
        assert_eq!(r.uncertainty_factor, 1.0);
        assert!(r.fallback_clusters().is_empty());
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

    #[test]
    fn ledger_baseline_applies_to_promotion() {
        let budget = AccuracyBudget {
            start: FidelityTier::Flow,
            baseline: vec![2.0],
            ..AccuracyBudget::default()
        };
        let mut ledger = BudgetLedger::new(budget, 1, &[0]);
        // Raw 2.5 is only 0.5 over baseline: no promotion.
        assert!(ledger.on_epoch(0, &[Some(2.5)]).is_empty());
        let sw = ledger.on_epoch(1, &[Some(3.2)]);
        assert_eq!(sw.len(), 1);
        assert_eq!(sw[0].to, FidelityTier::Mimic);
    }
}
