//! Figure 2: event throughput of packet-level simulation vs. topology
//! size and parallelism.
//!
//! Paper: "OMNeT++ performance on leaf-spine topologies of various size.
//! Even for these small cases, 5 mins of simulation time can take multiple
//! days to process" — and crucially, adding threads (parallel DES) often
//! *lowers* simulated-seconds-per-second because LPs must synchronize
//! every lookahead window.

use dcn_sim::config::SimConfig;
use dcn_sim::pdes::{run_partitioned, PdesRunOpts};
use dcn_sim::simulator::Simulation;
use dcn_transport::Protocol;
use mimic_ml::train::TrainConfig;
use mimicnet::compose::{try_compose, run_composed_partitioned};
use mimicnet::datagen::{generate, DataGenConfig};
use mimicnet::internal_model::InternalModel;
use mimicnet::mimic::TrainedMimic;
use mimicnet_bench::{header, Scale};
use std::error::Error;
use std::time::Instant;

/// A small trained bundle, just enough to drive the composed path;
/// the figure measures simulator throughput, not model quality.
fn quick_trained() -> TrainedMimic {
    let mut dg = DataGenConfig::default();
    dg.sim.duration_s = 0.3;
    dg.sim.seed = 55;
    let td = generate(&dg);
    let tc = TrainConfig {
        epochs: 1,
        window: 4,
        ..TrainConfig::default()
    };
    let (ing, _) = InternalModel::train_stacked(&td.ingress, td.ingress_disc, 8, 1, &tc)
        .expect("valid training setup");
    let (eg, _) = InternalModel::train_stacked(&td.egress, td.egress_disc, 8, 1, &tc)
        .expect("valid training setup");
    TrainedMimic {
        ingress: ing,
        egress: eg,
        feature_cfg: td.feature_cfg,
        feeder: td.feeder,
        envelope: None,
        window: mimicnet::mimic::TrainWindow(tc.window),
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    header(
        "Figure 2",
        "simulated seconds per wall second vs. topology size, 1/2/4 logical processes",
    );
    let sizes: Vec<u32> = match scale {
        Scale::Quick => vec![2, 4, 8],
        Scale::Full => vec![2, 4, 8, 16, 32],
    };
    let trained = quick_trained();
    println!(
        "{:>9} {:>7} | {:>12} | {:>12} | {:>12} | {:>12} | {:>12} | {:>14}",
        "clusters", "hosts", "1 LP", "2 LPs", "4 LPs", "mimic 1 LP", "mimic 4 LPs", "events (1 LP)"
    );
    for clusters in sizes {
        let mut cfg = SimConfig::with_clusters(clusters);
        cfg.duration_s = scale.duration_s() * 0.6;
        cfg.seed = 5;
        let mut cells = Vec::new();
        let mut events1 = 0;
        for parts in [1usize, 2, 4] {
            let t0 = Instant::now();
            let m = if parts == 1 {
                Simulation::with_transport(cfg, Protocol::NewReno.factory()).run()
            } else {
                run_partitioned(cfg, parts, &|| Protocol::NewReno.factory())
            };
            let wall = t0.elapsed().as_secs_f64();
            if parts == 1 {
                events1 = m.events_processed;
            }
            cells.push(cfg.duration_s / wall); // simulated secs per second
        }
        // Mimic composition of the same topology: one observable cluster
        // simulated packet-level, the rest served by the Mimic fleet —
        // sequential and 4-way partitioned.
        let t0 = Instant::now();
        let seq = try_compose(cfg, clusters, Protocol::NewReno, &trained)?.run();
        cells.push(cfg.duration_s / t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let par = run_composed_partitioned(
            cfg,
            clusters,
            Protocol::NewReno,
            &trained,
            4,
            &PdesRunOpts::default(),
        )?;
        cells.push(cfg.duration_s / t0.elapsed().as_secs_f64());
        assert_eq!(
            seq.flows_completed(),
            par.flows_completed(),
            "composed PDES must match sequential composition"
        );
        println!(
            "{clusters:>9} {:>7} | {:>11.2}x | {:>11.2}x | {:>11.2}x | {:>11.2}x | {:>11.2}x | {events1:>14}",
            cfg.num_hosts(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4]
        );
    }
    println!(
        "\npaper shape: throughput falls with size; 2/4 threads do NOT beat 1\n\
         (synchronization per link-latency window dominates). Mimic columns\n\
         compose the same topology with Mimic'ed clusters: the\n\
         throughput advantage over packet-level widens with size because\n\
         only one cluster runs packet-level."
    );
    Ok(())
}
