//! Figure 10: simulation running-time speedup of MimicNet over full
//! simulation, across data center sizes and racks-per-cluster.
//!
//! Paper: speedups grow with size — 1.9–6.1× at 8 clusters up to 675× at
//! 128 clusters (2 racks/cluster), where "MimicNet reduces the simulation
//! time from 12 days to under 30 minutes"; beyond that, full fidelity did
//! not finish in 3 months. Speedups here exclude the fixed training cost
//! (as in the paper's figure; see `table2_breakdown` for the total).

use mimicnet_bench::{header, pipeline_config, Scale};
use mimicnet::pipeline::Pipeline;
use std::error::Error;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    header(
        "Figure 10",
        "wall-clock speedup of the composed simulation vs full fidelity",
    );
    let racks_options: Vec<u32> = match scale {
        Scale::Quick => vec![2],
        Scale::Full => vec![2, 4],
    };
    for racks in racks_options {
        println!("\n--- {racks} racks/cluster ---");
        let mut cfg = pipeline_config(scale, 42);
        cfg.base.topo.racks_per_cluster = racks;
        let mut pipe = Pipeline::new(cfg);
        let trained = pipe.try_train()?.0;
        println!(
            "{:>9} | {:>12} | {:>12} | {:>9} | {:>11}",
            "clusters", "full (s)", "mimic (s)", "speedup", "event ratio"
        );
        for clusters in scale.cluster_sweep() {
            let t0 = Instant::now();
            let (_, truth_metrics, _) = pipe.try_ground_truth(clusters, None)?;
            let full_wall = t0.elapsed().as_secs_f64();
            let est = pipe.try_estimate(&trained, clusters, None)?;
            let mimic_wall = est.wall.as_secs_f64();
            println!(
                "{clusters:>9} | {full_wall:>12.3} | {mimic_wall:>12.3} | {:>8.1}x | {:>10.1}x",
                full_wall / mimic_wall.max(1e-9),
                truth_metrics.events_processed as f64
                    / est.metrics.events_processed.max(1) as f64
            );
        }
    }
    println!(
        "\npaper shape: speedup grows steeply with cluster count (the\n\
         composition's event count is ~T/N + Tp vs the full T), and holds\n\
         across racks-per-cluster."
    );
    Ok(())
}
