//! The seam where learned cluster models plug into the simulator.
//!
//! A cluster in the simulation is either *full fidelity* (its ToR and
//! aggregation switches process packets normally) or *mimic'ed*: packets
//! crossing the cluster boundary are handed, one at a time and at their
//! own event, to the simulation's [`ClusterModel`], which predicts the
//! cluster's effects — drop, latency, ECN marking — without simulating its
//! internals (§4.1 of the paper). The `mimicnet` crate provides the learned
//! LSTM-based implementation; this module only defines the interface plus
//! a trivial reference model used in tests.
//!
//! Boundary semantics (matching the instrumentation junctures of §5.1):
//!
//! * **Egress**: invoked when a packet from a host of the mimic'ed cluster
//!   arrives at its ToR. The predicted latency spans everything up to and
//!   including arrival at the chosen core switch.
//! * **Ingress**: invoked when a packet arrives at the cluster's
//!   aggregation switch from a core. The predicted latency spans everything
//!   up to and including arrival at the destination host.

use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Which way a packet is crossing the cluster boundary.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum BoundaryDir {
    /// Entering the cluster from a core switch, heading to a local host.
    Ingress,
    /// Leaving the cluster from a local host, heading to a core switch.
    Egress,
}

/// The fidelity at which one cluster is simulated.
///
/// Every cluster of a composed run sits at exactly one tier at any sim
/// time, and adaptive runs move clusters between tiers at PDES window
/// barriers only (DESIGN.md §13). The registry tables below (`COUNT`,
/// [`FidelityTier::index`], [`FidelityTier::name_of`],
/// [`FidelityTier::from_index`]) mirror the `EventKind` tables: a
/// tier-table guard test fails if a new tier is added without wiring its
/// metrics paths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum FidelityTier {
    /// Full packet-level simulation: the cluster's switches and hosts run
    /// in the event engine (ground truth).
    Packet,
    /// Learned LSTM Mimic: boundary packets get model-predicted verdicts
    /// (the paper's mechanism, `mimicnet::fleet`).
    Mimic,
    /// Flow/fluid approximation: boundary packets get analytic rate-share
    /// latencies (optionally corrected by a learned head), no per-packet
    /// queueing. Cheapest, least accurate.
    Flow,
}

impl FidelityTier {
    /// Number of tiers. Every table indexed by [`FidelityTier::index`]
    /// must have exactly this many rows.
    pub const COUNT: usize = 3;

    /// Dense ordinal, `0..COUNT`. Also the encoding of the metrics tier
    /// schedule in `Metrics::canonical_bytes`.
    pub fn index(self) -> usize {
        match self {
            FidelityTier::Packet => 0,
            FidelityTier::Mimic => 1,
            FidelityTier::Flow => 2,
        }
    }

    /// Decode an on-disk ordinal; `None` for out-of-range (corrupt) bytes.
    pub fn from_index(i: usize) -> Option<FidelityTier> {
        match i {
            0 => Some(FidelityTier::Packet),
            1 => Some(FidelityTier::Mimic),
            2 => Some(FidelityTier::Flow),
            _ => None,
        }
    }

    /// Human-readable tier name by ordinal (report labels, bench JSON).
    pub fn name_of(index: usize) -> &'static str {
        const NAMES: [&str; FidelityTier::COUNT] = ["packet", "mimic", "flow"];
        NAMES[index]
    }
}

/// One runtime fidelity transition: `cluster` moved `from → to` at epoch
/// barrier `epoch`. Recorded into `Metrics::tier_switches` by the engine,
/// so the tier schedule is part of the run's canonical bytes (the
/// partition-invariance acceptance check compares it across 1/2/4 LPs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TierSwitch {
    /// Epoch barrier index (absolute, derived from sim time — stable
    /// across partition counts).
    pub epoch: u64,
    /// The cluster that moved.
    pub cluster: u32,
    pub from: FidelityTier,
    pub to: FidelityTier,
}

/// A model's prediction of the cluster's effect on one packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The cluster's queues would have dropped this packet.
    Drop,
    /// The packet survives and exits `latency` later, optionally CE-marked.
    Deliver {
        latency: SimDuration,
        mark_ce: bool,
    },
}

/// One packet crossing a mimic'ed cluster's boundary: everything a
/// [`ClusterModel`] needs to predict the crossing.
#[derive(Clone, Debug)]
pub struct BoundaryItem {
    /// The mimic'ed cluster the packet is crossing into/out of.
    pub cluster: u32,
    /// Crossing direction.
    pub dir: BoundaryDir,
    /// The packet itself (all-scalar; cloning does not allocate).
    pub pkt: Packet,
    /// Simulated time the packet hit the boundary; the verdict's latency
    /// counts from here.
    pub enqueued_at: SimTime,
}

/// A stand-in for the internal networks of *all* mimic'ed clusters of a
/// simulation. The engine makes three kinds of call:
/// [`ClusterModel::infer`] at each boundary crossing, in event order;
/// [`ClusterModel::on_epoch`] at adaptive-tier barriers; and
/// [`ClusterModel::idle`] whenever it has time to spare — while a PDES LP
/// waits at a window barrier, and just before each crossing, where it
/// drains `idle(item.cluster, item.enqueued_at)` until it returns false.
/// `infer` may rely on that drain and need not repeat it; a caller
/// outside the engine owes it the same drain.
///
/// A verdict may depend only on the calls made for its own cluster, at and
/// before it: every LP of a partitioned run installs the whole model but
/// makes only the calls of the clusters it owns, in the sequential run's
/// order — which is what keeps the two bit-identical. Work a model defers
/// to `idle` must therefore leave every verdict as it would have been had
/// the work run on time.
pub trait ClusterModel {
    /// The cluster indices this model serves.
    fn clusters(&self) -> &[u32];

    /// Predict the cluster's effect on one boundary packet. A delivered
    /// packet's latency must be at least [`ClusterModel::latency_floor`].
    fn infer(&mut self, item: &BoundaryItem) -> Verdict;

    /// Lower bound on every predicted latency (> 0): a composed PDES run's
    /// lookahead, since a packet entering a Mimic cannot reappear anywhere
    /// sooner than this.
    fn latency_floor(&self) -> SimDuration;

    /// Do one unit of `cluster`'s deferred work that is due strictly
    /// before `until`, returning whether there was any. The engine calls
    /// it only with an `until` no later than the next crossing or epoch
    /// it has yet to hand the model, so the model may run the work
    /// exactly as if it had been done at its own time. The default has
    /// nothing deferred.
    fn idle(&mut self, cluster: u32, until: SimTime) -> bool {
        let _ = (cluster, until);
        false
    }

    /// Drift score of `cluster`'s live traffic relative to the model's
    /// training distribution, if the model monitors it. Higher means
    /// further out of distribution; `None` means "not monitored". Read by
    /// the engine at the end of a run and exposed per cluster in
    /// [`crate::instrument::Metrics::cluster_drift`].
    fn drift(&self, cluster: u32) -> Option<f64> {
        let _ = cluster;
        None
    }

    /// The fidelity tier `cluster` is currently served at. Fixed-fidelity
    /// models are all-Mimic by definition.
    fn tier(&self, cluster: u32) -> FidelityTier {
        let _ = cluster;
        FidelityTier::Mimic
    }

    /// Epoch-barrier hook for adaptive models: epoch `epoch` falls at
    /// simulated time `at`, and `drift[c]` is the merged cross-LP drift
    /// score of cluster `c` (the owning LP's value; `None` where
    /// unmonitored). The model updates its accuracy-budget accounting and
    /// applies any promotions/demotions *now*, effective for everything
    /// at or after `at`, returning the switches it made.
    /// Every LP of a partitioned run calls this with identical inputs at
    /// the same barrier, so all replicas stay in lockstep. The default is
    /// a no-op (fixed-fidelity models never switch).
    fn on_epoch(&mut self, epoch: u64, at: SimTime, drift: &[Option<f64>]) -> Vec<TierSwitch> {
        let _ = (epoch, at, drift);
        Vec::new()
    }

    /// Contribute model-side telemetry (packet counters, tier mix, …) to
    /// the engine's observability report at fold time.
    /// Called once per run, only with diagnostics on; the default adds
    /// nothing.
    fn append_obs(&self, out: &mut dcn_obs::ObsReport) {
        let _ = out;
    }
}

/// A reference model with constant latency and Bernoulli drops on every
/// cluster it serves, for engine tests.
#[cfg(test)]
pub(crate) struct ConstModel {
    clusters: Vec<u32>,
    /// Latency applied to every surviving packet (also the latency floor).
    pub latency: SimDuration,
    /// Independent drop probability.
    pub drop_prob: f64,
    rng: crate::rng::SplitMix64,
}

#[cfg(test)]
impl ConstModel {
    pub(crate) fn new(
        clusters: Vec<u32>,
        latency: SimDuration,
        drop_prob: f64,
        seed: u64,
    ) -> ConstModel {
        ConstModel {
            clusters,
            latency,
            drop_prob,
            rng: crate::rng::SplitMix64::derive(seed, 0x6100),
        }
    }
}

#[cfg(test)]
impl ClusterModel for ConstModel {
    fn clusters(&self) -> &[u32] {
        &self.clusters
    }

    fn infer(&mut self, _item: &BoundaryItem) -> Verdict {
        if self.drop_prob > 0.0 && self.rng.bernoulli(self.drop_prob) {
            Verdict::Drop
        } else {
            Verdict::Deliver {
                latency: self.latency,
                mark_ce: false,
            }
        }
    }

    fn latency_floor(&self) -> SimDuration {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use crate::topology::NodeId;

    fn item() -> BoundaryItem {
        BoundaryItem {
            cluster: 1,
            dir: BoundaryDir::Egress,
            pkt: Packet::data(1, FlowId(1), NodeId(0), NodeId(9), 0, 1000, false, SimTime::ZERO),
            enqueued_at: SimTime::ZERO,
        }
    }

    #[test]
    fn const_model_fixed_latency() {
        let mut m = ConstModel::new(vec![1], SimDuration::from_micros(300), 0.0, 1);
        assert_eq!(
            m.infer(&item()),
            Verdict::Deliver {
                latency: SimDuration::from_micros(300),
                mark_ce: false
            }
        );
    }

    #[test]
    fn const_model_drop_rate() {
        let mut m = ConstModel::new(vec![1], SimDuration::from_micros(1), 0.25, 42);
        let n = 10_000;
        let item = item();
        let drops = (0..n).filter(|_| m.infer(&item) == Verdict::Drop).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn default_model_never_wakes() {
        let mut m = ConstModel::new(vec![1], SimDuration::from_micros(1), 0.0, 1);
        assert!(!m.idle(1, SimTime::MAX));
    }

    /// Guard for the tier registry, mirroring the `EventKind` table guard:
    /// adding a [`FidelityTier`] variant fails here (the no-`_` match stops
    /// compiling and the samples array below under-counts) until `COUNT`,
    /// `index`, `from_index`, and `name_of` are all re-wired — which is
    /// also the reminder to wire the new tier's metrics paths.
    #[test]
    fn tier_tables_are_exhaustive_and_consistent() {
        // One sample per variant; the array length is pinned to COUNT so a
        // new variant without a sample is a compile error here.
        let samples: [FidelityTier; FidelityTier::COUNT] =
            [FidelityTier::Packet, FidelityTier::Mimic, FidelityTier::Flow];

        // Exhaustive ordinal match with no `_` arm: a new variant breaks
        // this match at compile time.
        let ordinal = |t: FidelityTier| -> usize {
            match t {
                FidelityTier::Packet => 0,
                FidelityTier::Mimic => 1,
                FidelityTier::Flow => 2,
            }
        };

        let mut seen = [false; FidelityTier::COUNT];
        let mut names = Vec::new();
        for &t in &samples {
            let i = t.index();
            assert_eq!(i, ordinal(t), "{t:?}: index() disagrees with ordinal");
            assert!(i < FidelityTier::COUNT, "{t:?}: index {i} out of range");
            assert!(!seen[i], "{t:?}: duplicate index {i}");
            seen[i] = true;
            assert_eq!(FidelityTier::from_index(i), Some(t), "{t:?}: round trip");
            names.push(FidelityTier::name_of(i));
        }
        assert!(seen.iter().all(|&s| s), "indices are not dense");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate tier names: {names:?}");
        assert_eq!(FidelityTier::from_index(FidelityTier::COUNT), None);
    }
}
