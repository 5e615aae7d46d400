//! Scalable feature extraction (paper §5.3, Table 1).
//!
//! "A scalable feature is one that remains meaningful regardless of the
//! number of clusters in the simulation." Raw IPs are out; local indices
//! are in. The extracted vector per packet is:
//!
//! | feature | encoding | width |
//! |---|---|---|
//! | local rack               | one-hot | racks/cluster |
//! | local server             | one-hot | hosts/rack |
//! | local cluster switch     | one-hot | aggs/cluster |
//! | core switch traversed    | one-hot | #cores |
//! | packet size              | scalar (normalized) | 1 |
//! | time since last packet   | scalar (discretized) | 1 |
//! | EWMA of interarrival     | scalar (discretized) | 1 |
//! | congestion state (§5.5)  | one-hot | 4 |
//! | packet kind              | one-hot | 3 |
//! | ECN codepoint            | bits | 2 |
//! | priority                 | scalar | 1 |
//!
//! All widths depend only on the *shape of one cluster* plus the core
//! count — adding clusters never changes them, which is what lets models
//! trained at 2 clusters run at 128.

use dcn_sim::packet::{Ecn, PacketKind};
use dcn_sim::time::SimTime;
use mimic_ml::discretize::Discretizer;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The four coarse congestion regimes of §5.5.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum CongestionState {
    /// Little to no congestion.
    Low = 0,
    /// Queues filling.
    Increasing = 1,
    /// High congestion.
    High = 2,
    /// Queues draining.
    Decreasing = 3,
}

/// Estimates the congestion regime from the latency/drop outcomes of
/// recently processed packets. During training the outcomes are ground
/// truth labels; during inference they are the model's own predictions —
/// the same information a real deployment would have.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CongestionEstimator {
    /// Recent (normalized latency, dropped) outcomes.
    recent: VecDeque<(f32, bool)>,
    cap: usize,
}

impl Default for CongestionEstimator {
    fn default() -> Self {
        CongestionEstimator {
            recent: VecDeque::new(),
            cap: 32,
        }
    }
}

impl CongestionEstimator {
    /// Record a packet outcome (normalized latency in [0,1], drop flag).
    pub fn observe(&mut self, latency_norm: f32, dropped: bool) {
        if self.recent.len() == self.cap {
            self.recent.pop_front();
        }
        self.recent.push_back((latency_norm, dropped));
    }

    /// Current regime estimate.
    pub fn state(&self) -> CongestionState {
        if self.recent.len() < 4 {
            return CongestionState::Low;
        }
        // Single pass, no scratch Vec: this runs once per packet inside
        // feature extraction, so it must stay off the allocator.
        let n = self.recent.len();
        let half = n / 2;
        let mut first_sum = 0.0f32;
        let mut second_sum = 0.0f32;
        let mut drops = 0usize;
        for (i, &(l, d)) in self.recent.iter().enumerate() {
            if i < half {
                first_sum += l;
            } else {
                second_sum += l;
            }
            if d {
                drops += 1;
            }
        }
        let mean = (first_sum + second_sum) / n as f32;
        let drop_rate = drops as f32 / n as f32;
        let m1 = first_sum / half as f32;
        let m2 = second_sum / (n - half) as f32;
        if mean > 0.6 || drop_rate > 0.05 {
            CongestionState::High
        } else if m2 > m1 * 1.25 + 0.02 {
            CongestionState::Increasing
        } else if m1 > m2 * 1.25 + 0.02 {
            CongestionState::Decreasing
        } else {
            CongestionState::Low
        }
    }
}

/// Shape of one cluster (and the core tier) — everything the encoder
/// needs, and nothing that grows with cluster count.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FeatureConfig {
    pub racks_per_cluster: u32,
    pub hosts_per_rack: u32,
    pub aggs_per_cluster: u32,
    pub cores: u32,
    /// Largest interarrival representable before clamping, seconds.
    pub dt_max_s: f64,
    /// Discretization levels for the two time features (paper §5.2).
    pub dt_levels: u32,
    /// EWMA smoothing factor for the interarrival feature.
    pub ewma_alpha: f64,
    /// Include the 4-state congestion estimate (§5.5). Disabling zeroes
    /// the block (width is preserved) — the ablation of DESIGN.md §3.
    pub congestion_feature: bool,
}

impl FeatureConfig {
    pub fn from_topology(p: &dcn_sim::topology::FatTreeParams) -> FeatureConfig {
        FeatureConfig {
            racks_per_cluster: p.racks_per_cluster,
            hosts_per_rack: p.hosts_per_rack,
            aggs_per_cluster: p.aggs_per_cluster,
            cores: p.num_cores(),
            dt_max_s: 0.05,
            dt_levels: 100,
            ewma_alpha: 0.2,
            congestion_feature: true,
        }
    }

    /// Total feature-vector width.
    pub fn width(&self) -> usize {
        self.racks_per_cluster as usize
            + self.hosts_per_rack as usize
            + self.aggs_per_cluster as usize
            + self.cores as usize
            + 1 // size
            + 1 // dt
            + 1 // ewma
            + 4 // congestion one-hot
            + 3 // kind one-hot
            + 2 // ecn bits
            + 1 // priority
    }
}

/// A boundary packet reduced to its scalable attributes. Built either
/// from a training-trace record or from a live packet at inference.
#[derive(Clone, Copy, Debug)]
pub struct PacketView {
    pub time: SimTime,
    pub wire_bytes: u32,
    /// Local rack index of the cluster-side endpoint.
    pub rack: u32,
    /// Local server (slot in rack) of the cluster-side endpoint.
    pub server: u32,
    /// Aggregation-switch index the flow's up-path uses.
    pub agg: u32,
    /// Global core-switch index the flow traverses.
    pub core: u32,
    pub kind: PacketKind,
    pub ecn: Ecn,
    pub prio: u8,
}

/// Stateful per-direction feature encoder.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeatureExtractor {
    pub cfg: FeatureConfig,
    last_time: Option<SimTime>,
    ewma_dt: f64,
    dt_disc: Discretizer,
    pub congestion: CongestionEstimator,
}

impl FeatureExtractor {
    pub fn new(cfg: FeatureConfig) -> FeatureExtractor {
        FeatureExtractor {
            dt_disc: Discretizer::new(0.0, cfg.dt_max_s, cfg.dt_levels),
            cfg,
            last_time: None,
            ewma_dt: 0.0,
            congestion: CongestionEstimator::default(),
        }
    }

    /// Encode the next packet (order matters: interarrival state updates).
    pub fn extract(&mut self, p: &PacketView) -> Vec<f32> {
        let mut v = Vec::with_capacity(self.cfg.width());
        self.extract_into(p, &mut v);
        v
    }

    /// Encode the next packet into a reusable buffer: the per-packet hot
    /// path of a running Mimic, allocation-free once `v` has grown to
    /// [`FeatureConfig::width`] capacity.
    pub fn extract_into(&mut self, p: &PacketView, v: &mut Vec<f32>) {
        v.clear();
        let cfg = &self.cfg;
        let one_hot = |v: &mut Vec<f32>, idx: u32, width: u32| {
            for i in 0..width {
                v.push(if i == idx % width { 1.0 } else { 0.0 });
            }
        };
        one_hot(v, p.rack, cfg.racks_per_cluster);
        one_hot(v, p.server, cfg.hosts_per_rack);
        one_hot(v, p.agg, cfg.aggs_per_cluster);
        one_hot(v, p.core, cfg.cores);
        // Size normalized by MTU.
        v.push(p.wire_bytes as f32 / 1500.0);
        // Interarrival, discretized.
        let dt = match self.last_time {
            Some(t) => p.time.since(t).as_secs_f64(),
            None => cfg.dt_max_s,
        };
        self.last_time = Some(p.time);
        self.ewma_dt = cfg.ewma_alpha * dt + (1.0 - cfg.ewma_alpha) * self.ewma_dt;
        v.push(self.dt_disc.normalize(dt));
        v.push(self.dt_disc.normalize(self.ewma_dt));
        // Congestion regime.
        if cfg.congestion_feature {
            let state = self.congestion.state() as usize;
            for i in 0..4 {
                v.push(if i == state { 1.0 } else { 0.0 });
            }
        } else {
            v.extend_from_slice(&[0.0; 4]);
        }
        // Packet kind.
        let kind_idx = match p.kind {
            PacketKind::Data => 0,
            PacketKind::Ack => 1,
            PacketKind::Grant => 2,
        };
        for i in 0..3 {
            v.push(if i == kind_idx { 1.0 } else { 0.0 });
        }
        // ECN bits.
        v.push(if p.ecn.is_capable() { 1.0 } else { 0.0 });
        v.push(if p.ecn == Ecn::Ce { 1.0 } else { 0.0 });
        // Priority (8 bands max).
        v.push(p.prio as f32 / 8.0);
        debug_assert_eq!(v.len(), cfg.width());
    }

    /// Feed an outcome into the congestion estimator.
    pub fn observe_outcome(&mut self, latency_norm: f32, dropped: bool) {
        self.congestion.observe(latency_norm, dropped);
    }

    /// Reset interarrival/congestion state (fresh simulation).
    pub fn reset(&mut self) {
        self.last_time = None;
        self.ewma_dt = 0.0;
        self.congestion = CongestionEstimator::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::topology::FatTreeParams;

    fn cfg() -> FeatureConfig {
        FeatureConfig::from_topology(&FatTreeParams::new(2, 2, 2, 2, 1))
    }

    fn view(t: f64) -> PacketView {
        PacketView {
            time: SimTime::from_secs_f64(t),
            wire_bytes: 1500,
            rack: 1,
            server: 0,
            agg: 1,
            core: 0,
            kind: PacketKind::Data,
            ecn: Ecn::Ect,
            prio: 0,
        }
    }

    #[test]
    fn width_matches_config() {
        let c = cfg();
        // 2 + 2 + 2 + 2 + 1 + 1 + 1 + 4 + 3 + 2 + 1 = 21
        assert_eq!(c.width(), 21);
        let mut fx = FeatureExtractor::new(c);
        assert_eq!(fx.extract(&view(0.0)).len(), 21);
    }

    #[test]
    fn width_is_cluster_count_independent() {
        let small = FeatureConfig::from_topology(&FatTreeParams::new(2, 2, 2, 2, 1));
        let large = FeatureConfig::from_topology(&FatTreeParams::new(128, 2, 2, 2, 1));
        assert_eq!(small.width(), large.width());
    }

    #[test]
    fn one_hots_are_one_hot() {
        let mut fx = FeatureExtractor::new(cfg());
        let f = fx.extract(&view(0.0));
        // rack one-hot at positions [0,2): rack 1 -> [0, 1].
        assert_eq!(&f[0..2], &[0.0, 1.0]);
        // server [2,4): server 0 -> [1, 0].
        assert_eq!(&f[2..4], &[1.0, 0.0]);
        // agg [4,6): [0, 1].
        assert_eq!(&f[4..6], &[0.0, 1.0]);
        // core [6,8): [1, 0].
        assert_eq!(&f[6..8], &[1.0, 0.0]);
    }

    #[test]
    fn interarrival_decreases_with_burstiness() {
        // Layout: 8 one-hot topology slots, then [8]=size, [9]=dt, [10]=ewma.
        let mut fx = FeatureExtractor::new(cfg());
        let _ = fx.extract(&view(0.0));
        let spread = fx.extract(&view(0.040))[9];
        fx.reset();
        let _ = fx.extract(&view(0.0));
        let burst = fx.extract(&view(0.0001))[9];
        assert!(burst < spread, "burst {burst} vs spread {spread}");
    }

    #[test]
    fn congestion_states_transition() {
        let mut est = CongestionEstimator::default();
        // Low latencies -> Low.
        for _ in 0..16 {
            est.observe(0.05, false);
        }
        assert_eq!(est.state(), CongestionState::Low);
        // Rising latencies -> Increasing.
        for i in 0..16 {
            est.observe(0.05 + i as f32 * 0.02, false);
        }
        assert_eq!(est.state(), CongestionState::Increasing);
        // Saturated high -> High.
        for _ in 0..32 {
            est.observe(0.9, false);
        }
        assert_eq!(est.state(), CongestionState::High);
        // Draining -> Decreasing.
        for i in 0..32 {
            est.observe((0.5 - i as f32 * 0.015).max(0.05), false);
        }
        assert_eq!(est.state(), CongestionState::Decreasing);
    }

    #[test]
    fn drops_force_high_state() {
        let mut est = CongestionEstimator::default();
        for i in 0..32 {
            est.observe(0.1, i % 8 == 0); // 12.5% drop rate
        }
        assert_eq!(est.state(), CongestionState::High);
    }

    #[test]
    fn ecn_bits_encoded() {
        let mut fx = FeatureExtractor::new(cfg());
        let mut p = view(0.0);
        p.ecn = Ecn::Ce;
        let f = fx.extract(&p);
        let w = cfg().width();
        // [ect_capable, ce] are the 3rd and 2nd from last.
        assert_eq!(f[w - 3], 1.0);
        assert_eq!(f[w - 2], 1.0);
        p.ecn = Ecn::NotEct;
        let f = fx.extract(&p);
        assert_eq!(f[w - 3], 0.0);
        assert_eq!(f[w - 2], 0.0);
    }

    #[test]
    fn reset_restores_initial_encoding() {
        let mut fx = FeatureExtractor::new(cfg());
        let first = fx.extract(&view(0.0));
        let _ = fx.extract(&view(0.001));
        fx.reset();
        let again = fx.extract(&view(0.0));
        assert_eq!(first, again);
    }
}
