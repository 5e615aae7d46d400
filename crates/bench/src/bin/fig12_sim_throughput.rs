//! Figure 12: aggregate simulation throughput (simulated seconds per wall
//! second) for five strategies.
//!
//! Paper: single full simulation slows ~5 orders below real time at 128
//! clusters; N parallel instances multiply throughput ×N but a single
//! MimicNet instance overtakes even that from 32 clusters because the
//! amount of observable traffic is roughly constant in network size.

use mimicnet_bench::{header, pipeline_config, Scale};
use mimicnet::pipeline::Pipeline;
use std::error::Error;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    header(
        "Figure 12",
        "simulation throughput (sim-seconds/second) for 5 strategies vs #clusters",
    );
    let cores = 4usize;
    println!(
        "{:>9} | {:>11} | {:>13} | {:>12} | {:>13} | {:>14}",
        "clusters", "single sim", "mimic+train", "single mimic", "parallel sim", "parallel mimic"
    );
    for clusters in scale.cluster_sweep() {
        let mut pipe = Pipeline::new(pipeline_config(scale, 42));
        let t_train0 = Instant::now();
        let trained = pipe.try_train()?.0;
        let train_cost = t_train0.elapsed().as_secs_f64();
        let sim_secs = pipe.cfg.base.duration_s;

        let t0 = Instant::now();
        let _ = pipe.try_ground_truth(clusters, None)?;
        let single_sim_wall = t0.elapsed().as_secs_f64();

        let est = pipe.try_estimate(&trained, clusters, None)?;
        let single_mimic_wall = est.wall.as_secs_f64();

        let tput_single_sim = sim_secs / single_sim_wall;
        let tput_mimic_train = sim_secs / (train_cost + single_mimic_wall);
        let tput_single_mimic = sim_secs / single_mimic_wall;
        // Parallel strategies: N instances each simulating S seconds run
        // concurrently on N cores — aggregate throughput is N x single
        // (the paper's observation; we model perfect core scaling).
        let tput_parallel_sim = tput_single_sim * cores as f64;
        let tput_parallel_mimic = tput_single_mimic * cores as f64;

        println!(
            "{clusters:>9} | {tput_single_sim:>11.3} | {tput_mimic_train:>13.3} | {tput_single_mimic:>12.3} | {tput_parallel_sim:>13.3} | {tput_parallel_mimic:>14.3}"
        );
    }
    println!(
        "\npaper shape: mimic throughput is roughly flat in network size\n\
         (observable traffic is constant); full-sim throughput collapses,\n\
         and a single mimic eventually overtakes even N parallel sims."
    );
    Ok(())
}
