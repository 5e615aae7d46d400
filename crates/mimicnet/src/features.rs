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
    /// [`CongestionEstimator::scan`] of `recent`, kept current by
    /// `observe`: extraction reads it once per packet, feeder packets
    /// included, while outcomes arrive only once per verdict.
    state: CongestionState,
}

impl Default for CongestionEstimator {
    fn default() -> Self {
        CongestionEstimator {
            recent: VecDeque::new(),
            cap: 32,
            state: CongestionState::Low,
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
        self.state = self.scan();
    }

    /// Current regime estimate.
    pub fn state(&self) -> CongestionState {
        self.state
    }

    /// The regime the recent outcomes show.
    fn scan(&self) -> CongestionState {
        if self.recent.len() < 4 {
            return CongestionState::Low;
        }
        // Single pass, no scratch Vec: this runs once per outcome, so it
        // must stay off the allocator.
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
        v.resize(self.cfg.width(), 0.0);
        self.extract_row(p, v);
    }

    /// Encode the next packet into `row`, exactly
    /// [`FeatureConfig::width`] long: [`FeatureExtractor::advance`] to its
    /// time, then `FeatureExtractor::encode`.
    pub fn extract_row(&mut self, p: &PacketView, row: &mut [f32]) {
        let (dt, ewma) = self.advance(p.time);
        self.encode(p, dt, ewma, row);
    }

    /// Move the interarrival state, the only state one packet's features
    /// pass to the next, to a packet at `t`. Returns that packet's raw
    /// interarrival and EWMA, in seconds, for `FeatureExtractor::encode`.
    pub fn advance(&mut self, t: SimTime) -> (f64, f64) {
        let cfg = &self.cfg;
        let dt = match self.last_time {
            Some(last) => t.since(last).as_secs_f64(),
            None => cfg.dt_max_s,
        };
        self.last_time = Some(t);
        self.ewma_dt = cfg.ewma_alpha * dt + (1.0 - cfg.ewma_alpha) * self.ewma_dt;
        (dt, self.ewma_dt)
    }

    /// Write `p`'s row into `row`, exactly [`FeatureConfig::width`] long,
    /// from the raw time features [`FeatureExtractor::advance`] returned
    /// for it and the current congestion regime: zero it, then write each
    /// one-hot bit and scalar at its fixed offset.
    pub(crate) fn encode(&self, p: &PacketView, dt: f64, ewma: f64, row: &mut [f32]) {
        let cfg = &self.cfg;
        assert_eq!(row.len(), cfg.width(), "feature row width");
        row.fill(0.0);
        let mut at = 0;
        for (idx, width) in [
            (p.rack, cfg.racks_per_cluster),
            (p.server, cfg.hosts_per_rack),
            (p.agg, cfg.aggs_per_cluster),
            (p.core, cfg.cores),
        ] {
            if width > 0 {
                row[at + (idx % width) as usize] = 1.0;
            }
            at += width as usize;
        }
        // Size normalized by MTU.
        row[at] = p.wire_bytes as f32 / 1500.0;
        // Interarrival, discretized.
        row[at + 1] = self.dt_disc.normalize(dt);
        row[at + 2] = self.dt_disc.normalize(ewma);
        at += 3;
        // Congestion regime (the block stays zero when disabled).
        if cfg.congestion_feature {
            row[at + self.congestion.state() as usize] = 1.0;
        }
        at += 4;
        // Packet kind.
        let kind_idx = match p.kind {
            PacketKind::Data => 0,
            PacketKind::Ack => 1,
            PacketKind::Grant => 2,
        };
        row[at + kind_idx] = 1.0;
        at += 3;
        // ECN bits.
        if p.ecn.is_capable() {
            row[at] = 1.0;
        }
        if p.ecn == Ecn::Ce {
            row[at + 1] = 1.0;
        }
        // Priority (8 bands max).
        row[at + 2] = p.prio as f32 / 8.0;
        debug_assert_eq!(at + 3, cfg.width());
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

    /// The encoding as it was written before rows were filled by index:
    /// one `push` per element, congestion state rescanned per packet.
    fn pushed(fx: &mut FeatureExtractor, p: &PacketView) -> Vec<f32> {
        let cfg = fx.cfg;
        let mut v = Vec::new();
        let one_hot = |v: &mut Vec<f32>, idx: u32, width: u32| {
            for i in 0..width {
                v.push(if i == idx % width { 1.0 } else { 0.0 });
            }
        };
        one_hot(&mut v, p.rack, cfg.racks_per_cluster);
        one_hot(&mut v, p.server, cfg.hosts_per_rack);
        one_hot(&mut v, p.agg, cfg.aggs_per_cluster);
        one_hot(&mut v, p.core, cfg.cores);
        v.push(p.wire_bytes as f32 / 1500.0);
        let dt = match fx.last_time {
            Some(t) => p.time.since(t).as_secs_f64(),
            None => cfg.dt_max_s,
        };
        fx.last_time = Some(p.time);
        fx.ewma_dt = cfg.ewma_alpha * dt + (1.0 - cfg.ewma_alpha) * fx.ewma_dt;
        v.push(fx.dt_disc.normalize(dt));
        v.push(fx.dt_disc.normalize(fx.ewma_dt));
        let state = fx.congestion.scan() as usize;
        for i in 0..4 {
            v.push(if cfg.congestion_feature && i == state { 1.0 } else { 0.0 });
        }
        let kind_idx = p.kind as usize;
        for i in 0..3 {
            v.push(if i == kind_idx { 1.0 } else { 0.0 });
        }
        v.push(if p.ecn.is_capable() { 1.0 } else { 0.0 });
        v.push(if p.ecn == Ecn::Ce { 1.0 } else { 0.0 });
        v.push(p.prio as f32 / 8.0);
        v
    }

    proptest::proptest! {
        /// The cached regime is the scan of the same outcomes after every
        /// `observe`, from the first.
        #[test]
        fn cached_state_equals_the_scan(
            outcomes in proptest::collection::vec((0.0f32..1.0, 0u32..16), 0..120)
        ) {
            let mut est = CongestionEstimator::default();
            proptest::prop_assert_eq!(est.state(), est.scan());
            for (latency, d) in outcomes {
                est.observe(latency, d == 0);
                proptest::prop_assert_eq!(est.state(), est.scan());
            }
        }

        /// Rows written by index are bit-identical to the pushed encoding
        /// over random packets interleaved with random outcomes.
        #[test]
        fn rows_match_the_pushed_encoding(
            packets in proptest::collection::vec(
                (0u64..2_000_000, (0u32..5, 0u32..3), 40u32..1500, 0u32..24),
                1..80,
            )
        ) {
            let mut cfg = cfg();
            cfg.congestion_feature = packets[0].3 % 2 == 0;
            let (mut fx, mut reference) = (FeatureExtractor::new(cfg), FeatureExtractor::new(cfg));
            let mut row = vec![f32::NAN; cfg.width()];
            let mut t = 0;
            for (dt, (coord, kind), bytes, aux) in packets {
                t += dt;
                let p = PacketView {
                    time: SimTime(t),
                    wire_bytes: bytes,
                    rack: coord,
                    server: coord + 1,
                    agg: coord * 3,
                    core: coord + kind,
                    kind: [PacketKind::Data, PacketKind::Ack, PacketKind::Grant][kind as usize],
                    ecn: [Ecn::NotEct, Ecn::Ect, Ecn::Ce][(aux % 3) as usize],
                    prio: (aux % 8) as u8,
                };
                fx.extract_row(&p, &mut row);
                let want = pushed(&mut reference, &p);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(bits(&row), bits(&want));
                let outcome = (aux as f32 / 24.0, aux == 23);
                fx.observe_outcome(outcome.0, outcome.1);
                reference.observe_outcome(outcome.0, outcome.1);
            }
        }
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
