//! Small-scale observation and training-set construction (paper §5.1–5.3).
//!
//! Runs the full-fidelity two-cluster simulation, dumps the modeled
//! cluster's boundary trace, matches it into labels ([`crate::trace`]),
//! and encodes per-direction [`PacketDataset`]s with scalable features
//! ([`crate::features`]). Also derives the feeder fits (§6) from the same
//! trace.

use crate::features::{FeatureConfig, FeatureExtractor, PacketView};
use crate::feeder::{DirFit, FeederFit};
use crate::trace::{match_trace, MatchedTrace};
use dcn_sim::config::SimConfig;
use dcn_sim::instrument::Metrics;
use dcn_sim::mimic::BoundaryDir;
use dcn_sim::routing::Router;
use dcn_sim::simulator::Simulation;
use dcn_sim::time::SimTime;
use dcn_sim::topology::FatTree;
use dcn_transport::Protocol;
use mimic_ml::dataset::PacketDataset;
use mimic_ml::discretize::Discretizer;
use mimic_ml::loss::Target;

/// Configuration of the data-generation phase.
#[derive(Clone, Copy, Debug)]
pub struct DataGenConfig {
    /// The small-scale simulation (must have ≥ 2 clusters; the paper uses
    /// exactly 2).
    pub sim: SimConfig,
    /// Protocol under study.
    pub protocol: Protocol,
    /// Which cluster to model (and trace).
    pub model_cluster: u32,
    /// Discretization levels for latency targets (paper §5.2's `D`).
    pub disc_levels: u32,
    /// Entries closer than this to the end of the run are discarded
    /// instead of being labeled drops.
    pub horizon_guard_s: f64,
    /// Include the congestion-state feature (§5.5); disable for the
    /// ablation experiment.
    pub congestion_feature: bool,
}

impl Default for DataGenConfig {
    fn default() -> Self {
        DataGenConfig {
            sim: SimConfig::small_scale(),
            protocol: Protocol::NewReno,
            model_cluster: 1,
            disc_levels: 100,
            horizon_guard_s: 0.05,
            congestion_feature: true,
        }
    }
}

/// Everything the training phase needs.
pub struct TrainingData {
    pub ingress: PacketDataset,
    pub egress: PacketDataset,
    pub ingress_disc: Discretizer,
    pub egress_disc: Discretizer,
    pub feature_cfg: FeatureConfig,
    pub feeder: FeederFit,
    /// Drop rates observed in the matched traces (reporting).
    pub ingress_drop_rate: f64,
    pub egress_drop_rate: f64,
    /// The full small-scale metrics (for validation comparisons).
    pub metrics: Metrics,
}

/// Run the small-scale simulation and build training data.
pub fn generate(cfg: &DataGenConfig) -> TrainingData {
    let mut sim_cfg = cfg.sim;
    sim_cfg.queue = cfg.protocol.queue_setup(sim_cfg.queue);
    let mut sim = Simulation::with_transport(sim_cfg, cfg.protocol.factory());
    sim.trace_cluster(cfg.model_cluster);
    let metrics = sim.run();
    build_training_data(cfg, metrics)
}

/// Build datasets from already-collected metrics (separated for tests).
pub fn build_training_data(cfg: &DataGenConfig, metrics: Metrics) -> TrainingData {
    let topo = FatTree::new(cfg.sim.topo);
    let router = Router::new(topo.clone());
    let horizon = SimTime::from_secs_f64((cfg.sim.duration_s - cfg.horizon_guard_s).max(0.0));

    let mut ingress_trace = match_trace(&metrics.boundary, BoundaryDir::Ingress, horizon);
    let mut egress_trace = match_trace(&metrics.boundary, BoundaryDir::Egress, horizon);
    // A feeder fit needs two packets per direction (one interarrival). A
    // thinner trace — the modeled cluster saw (almost) no traffic — yields
    // empty datasets, which training rejects as `TrainError::EmptyDataset`.
    if ingress_trace.len() < 2 || egress_trace.len() < 2 {
        ingress_trace.packets.clear();
        egress_trace.packets.clear();
    }

    let mut feature_cfg = FeatureConfig::from_topology(&cfg.sim.topo);
    feature_cfg.congestion_feature = cfg.congestion_feature;
    let ingress_disc = fit_discretizer(&ingress_trace, cfg.disc_levels);
    let egress_disc = fit_discretizer(&egress_trace, cfg.disc_levels);

    let ingress = encode(&ingress_trace, BoundaryDir::Ingress, &topo, &router, feature_cfg, &ingress_disc);
    let egress = encode(&egress_trace, BoundaryDir::Egress, &topo, &router, feature_cfg, &egress_disc);

    let feeder = FeederFit {
        ingress: fit_dir(&ingress_trace),
        egress: fit_dir(&egress_trace),
    };

    TrainingData {
        ingress_drop_rate: ingress_trace.drop_rate(),
        egress_drop_rate: egress_trace.drop_rate(),
        ingress,
        egress,
        ingress_disc,
        egress_disc,
        feature_cfg,
        feeder,
        metrics,
    }
}

/// Latency discretizer over the observed range, padded 10% at the top so
/// the "dropped" encoding (1.0) sits above every real latency.
fn fit_discretizer(trace: &MatchedTrace, levels: u32) -> Discretizer {
    let (lo, hi) = trace
        .latency_range()
        .unwrap_or((1e-5, 1e-2)); // fall back to a sane DC range
    Discretizer::new(lo, hi * 1.1, levels)
}

fn fit_dir(trace: &MatchedTrace) -> DirFit {
    if trace.is_empty() {
        return DirFit::default();
    }
    let inter = trace.interarrivals();
    let sizes: Vec<f64> = trace
        .packets
        .iter()
        .map(|p| p.enter.wire_bytes as f64)
        .collect();
    DirFit::fit(&inter, &sizes)
}

/// Encode a matched trace into a supervised dataset, updating interarrival
/// and congestion state exactly as inference will.
fn encode(
    trace: &MatchedTrace,
    dir: BoundaryDir,
    topo: &FatTree,
    router: &Router,
    feature_cfg: FeatureConfig,
    disc: &Discretizer,
) -> PacketDataset {
    let mut fx = FeatureExtractor::new(feature_cfg);
    let mut out = PacketDataset::default();
    for p in &trace.packets {
        let rec = &p.enter;
        // The cluster-side endpoint: destination for ingress, source for
        // egress — its local coordinates are the scalable identifiers.
        let local = match dir {
            BoundaryDir::Ingress => rec.dst,
            BoundaryDir::Egress => rec.src,
        };
        let (_, rack, server) = topo.host_coords(local);
        let (a, j) = topo.core_coords(rec.core);
        let view = PacketView {
            time: rec.time,
            wire_bytes: rec.wire_bytes,
            rack,
            server,
            agg: router.agg_choice(rec.flow),
            core: a * topo.params.cores_per_agg + j,
            kind: rec.kind,
            ecn: rec.ecn,
            prio: rec.prio,
        };
        let features = fx.extract(&view);
        let latency_norm = match p.latency {
            // Dropped packets train the latency head at the top of the
            // range (paper: y = L_max + eps if dropped).
            None => 1.0,
            Some(l) => disc.normalize(l.as_secs_f64()),
        };
        fx.observe_outcome(latency_norm, p.dropped());
        out.push(
            features,
            Target {
                latency: latency_norm,
                dropped: if p.dropped() { 1.0 } else { 0.0 },
                ecn: if p.ecn_marked { 1.0 } else { 0.0 },
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DataGenConfig {
        let mut cfg = DataGenConfig::default();
        cfg.sim.duration_s = 0.5;
        cfg.sim.seed = 33;
        cfg.sim.traffic.inter_cluster_fraction = 0.7;
        cfg
    }

    #[test]
    fn generates_nonempty_directional_datasets() {
        let td = generate(&quick());
        assert!(td.ingress.len() > 50, "ingress {} samples", td.ingress.len());
        assert!(td.egress.len() > 50, "egress {} samples", td.egress.len());
        assert_eq!(td.ingress.width(), td.feature_cfg.width());
        assert_eq!(td.egress.width(), td.feature_cfg.width());
    }

    #[test]
    fn latency_targets_are_normalized() {
        let td = generate(&quick());
        for t in td.ingress.targets.iter().chain(&td.egress.targets) {
            assert!((0.0..=1.0).contains(&t.latency), "latency {}", t.latency);
            assert!(t.dropped == 0.0 || t.dropped == 1.0);
        }
    }

    #[test]
    fn dropped_packets_sit_at_range_top() {
        let td = generate(&quick());
        for t in td.ingress.targets.iter().chain(&td.egress.targets) {
            if t.dropped > 0.5 {
                assert_eq!(t.latency, 1.0);
            }
        }
    }

    #[test]
    fn feeder_fit_has_plausible_rate() {
        let td = generate(&quick());
        // The boundary carries hundreds of packets in 0.5 s.
        assert!(td.feeder.ingress.rate_pps > 50.0, "{}", td.feeder.ingress.rate_pps);
        assert!(td.feeder.egress.rate_pps > 50.0, "{}", td.feeder.egress.rate_pps);
    }

    #[test]
    fn class_imbalance_is_the_norm() {
        // Paper: "99.7% of training examples … are delivered successfully".
        // At default load the drop rate must be well under 50%.
        let td = generate(&quick());
        assert!(td.ingress_drop_rate < 0.2, "{}", td.ingress_drop_rate);
        assert!(td.egress_drop_rate < 0.2, "{}", td.egress_drop_rate);
    }

    #[test]
    fn datagen_is_deterministic() {
        let a = generate(&quick());
        let b = generate(&quick());
        assert_eq!(a.ingress.len(), b.ingress.len());
        assert_eq!(a.ingress.features, b.ingress.features);
        assert_eq!(a.egress.targets.len(), b.egress.targets.len());
    }

    #[test]
    fn dctcp_traces_contain_ecn_labels() {
        let mut cfg = quick();
        cfg.protocol = Protocol::Dctcp { k: 5 };
        cfg.sim.traffic.load = 1.0;
        let td = generate(&cfg);
        let marked = td
            .ingress
            .targets
            .iter()
            .chain(&td.egress.targets)
            .filter(|t| t.ecn > 0.5)
            .count();
        assert!(marked > 0, "no ECN-marked training samples under DCTCP");
    }
}
