//! Ablations of MimicNet's design choices (DESIGN.md §3).
//!
//! The paper motivates several choices without always isolating them:
//! the congestion-state feature augmentation (§5.5), the ingress/egress
//! decomposition (§5.5), and generative (sampled) drop decisions
//! (Figure 5 reads off realized rates). This binary measures each
//! variant's end-to-end W1(FCT)/W1(RTT) against ground truth.

use dcn_sim::cdf::wasserstein1;
use mimic_ml::train::TrainConfig;
use mimicnet_bench::{header, pipeline_config, Scale};
use mimicnet::compose::try_compose;
use mimicnet::datagen::{generate, DataGenConfig};
use mimicnet::internal_model::InternalModel;
use mimicnet::metrics::observed;
use mimicnet::mimic::{DecisionMode, TrainedMimic};
use mimicnet::MimicFleet;
use mimicnet::pipeline::Pipeline;
use std::error::Error;

fn train_bundle(dg: &DataGenConfig, tc: &TrainConfig, hidden: usize, unified: bool) -> TrainedMimic {
    let td = generate(dg);
    if unified {
        // One model for both directions, trained on the concatenated
        // traces (the alternative §5.5 rejects).
        let mut combined = td.ingress.clone();
        for (f, t) in td.egress.features.iter().zip(&td.egress.targets) {
            combined.push(f.clone(), *t);
        }
        let disc = td.ingress_disc; // shared latency range approximation
        let (m, _) =
            InternalModel::train_stacked(&combined, disc, hidden, 1, tc).expect("training data");
        TrainedMimic {
            ingress: m.clone(),
            egress: m,
            feature_cfg: td.feature_cfg,
            envelope: mimicnet::drift::FeatureEnvelope::fit(&td.ingress.features),
            feeder: td.feeder,
            window: mimicnet::mimic::TrainWindow(tc.window),
        }
    } else {
        let (ing, _) =
            InternalModel::train_stacked(&td.ingress, td.ingress_disc, hidden, 1, tc)
                .expect("training data");
        let (eg, _) =
            InternalModel::train_stacked(&td.egress, td.egress_disc, hidden, 1, tc)
                .expect("training data");
        TrainedMimic {
            ingress: ing,
            egress: eg,
            feature_cfg: td.feature_cfg,
            envelope: mimicnet::drift::FeatureEnvelope::fit(&td.ingress.features),
            feeder: td.feeder,
            window: mimicnet::mimic::TrainWindow(tc.window),
        }
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    let n = scale.large();
    header(
        "Ablations",
        "end-to-end accuracy of design-choice variants (vs ground truth)",
    );
    let cfg = pipeline_config(scale, 42);
    let pipe = Pipeline::new(cfg);
    let (truth, _, _) = pipe.try_ground_truth(n, None)?;

    let mut dg_sim = cfg.base;
    dg_sim.duration_s *= 4.0;
    let base_dg = DataGenConfig {
        sim: dg_sim,
        protocol: cfg.protocol,
        ..DataGenConfig::default()
    };

    println!(
        "{:>26} | {:>11} | {:>11} | {:>13}",
        "variant", "W1(FCT)", "W1(RTT)", "W1(tput)"
    );
    let variants: Vec<(&str, DataGenConfig, bool, DecisionMode)> = vec![
        ("full (paper design)", base_dg, false, DecisionMode::Sample),
        (
            "no congestion feature",
            DataGenConfig {
                congestion_feature: false,
                ..base_dg
            },
            false,
            DecisionMode::Sample,
        ),
        ("unified direction model", base_dg, true, DecisionMode::Sample),
        ("threshold drops", base_dg, false, DecisionMode::Threshold),
    ];
    for (name, dg, unified, mode) in variants {
        let trained = train_bundle(&dg, &cfg.train, cfg.hidden, unified);
        // Compose manually so the decision mode can be set.
        let mut sim_cfg = cfg.base;
        sim_cfg.topo.clusters = n;
        let mut sim = dcn_sim::simulator::Simulation::with_transport(
            sim_cfg,
            cfg.protocol.factory(),
        );
        let seeds: Vec<(u32, u64)> =
            (1..n).map(|c| (c, sim_cfg.seed ^ (0xAB1A_0000 + c as u64))).collect();
        let fleet = MimicFleet::new(trained, sim_cfg.topo, n, &seeds).with_mode(mode);
        sim.set_cluster_model(Box::new(fleet));
        let m = sim.run();
        let topo = dcn_sim::topology::FatTree::new(sim_cfg.topo);
        let obs = observed(&m, &topo, 0);
        println!(
            "{name:>26} | {:>11.5} | {:>11.6} | {:>13.0}",
            wasserstein1(&truth.fct, &obs.fct),
            wasserstein1(&truth.rtt, &obs.rtt),
            wasserstein1(&truth.throughput, &obs.throughput),
        );
    }
    // Sanity anchor: try_compose (the default path) matches the "full" row.
    let trained = train_bundle(&base_dg, &cfg.train, cfg.hidden, false);
    let m = try_compose(cfg.base, n, cfg.protocol, &trained)?.run();
    let topo = dcn_sim::topology::FatTree::new({
        let mut t = cfg.base.topo;
        t.clusters = n;
        t
    });
    let obs = observed(&m, &topo, 0);
    println!(
        "{:>26} | {:>11.5} | {:>11.6} | {:>13.0}",
        "(try_compose default)",
        wasserstein1(&truth.fct, &obs.fct),
        wasserstein1(&truth.rtt, &obs.rtt),
        wasserstein1(&truth.throughput, &obs.throughput),
    );
    println!(
        "\nexpectation (paper §5.5; not asserted, and one seed cannot settle it):\n\
         the full design is at least as accurate as each ablation (congestion\n\
         features help tails; per-direction models beat unified; sampled drops\n\
         track realized loss rates better than thresholding). Compare over a\n\
         seed sweep before reading a ranking into the rows above."
    );
    Ok(())
}
