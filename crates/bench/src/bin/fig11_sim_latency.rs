//! Figure 11: time-to-results ("simulation latency") for five execution
//! strategies across network sizes.
//!
//! Paper strategies, for N cores and S simulated seconds: (1) single full
//! simulation of S; (2) single MimicNet including training; (3) single
//! MimicNet reusing a model; (4) partitioned simulation — N full sims of
//! S/N each; (5) partitioned MimicNet — N compositions of S/N each. At
//! small sizes training overhead dominates; from ~64 clusters MimicNet
//! wins outright; at 128 clusters it is 2–3 orders of magnitude faster.

use mimicnet_bench::{header, pipeline_config, Scale};
use mimicnet::pipeline::Pipeline;
use std::error::Error;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    header(
        "Figure 11",
        "simulation latency (s) for 5 strategies vs #clusters (lower is better)",
    );
    let cores = 4usize; // the paper uses its 20-core machines; we use 4
    println!(
        "{:>9} | {:>11} | {:>13} | {:>11} | {:>12} | {:>12}",
        "clusters", "single sim", "mimic+train", "single mimic", "part. sim", "part. mimic"
    );
    for clusters in scale.cluster_sweep() {
        // Train fresh to time the full train-included strategy.
        let mut pipe = Pipeline::new(pipeline_config(scale, 42));
        let t_train0 = Instant::now();
        let trained = pipe.try_train()?.0;
        let train_cost = t_train0.elapsed().as_secs_f64();

        // (1) single full simulation.
        let t0 = Instant::now();
        let (_, _m, _) = pipe.try_ground_truth(clusters, None)?;
        let single_sim = t0.elapsed().as_secs_f64();

        // (3) single MimicNet (reusing the model).
        let est = pipe.try_estimate(&trained, clusters, None)?;
        let single_mimic = est.wall.as_secs_f64();

        // (2) single MimicNet with training.
        let mimic_with_training = train_cost + single_mimic;

        // (4) partitioned simulation: N instances of S/N seconds run in
        // parallel on N cores -> latency = time of one S/N chunk.
        let mut chunk_cfg = pipe.cfg;
        chunk_cfg.base.duration_s /= cores as f64;
        let chunk_pipe = Pipeline::new(chunk_cfg);
        let t1 = Instant::now();
        let _ = chunk_pipe.try_ground_truth(clusters, None)?;
        let part_sim = t1.elapsed().as_secs_f64();

        // (5) partitioned MimicNet.
        let mut chunk_mimic_pipe = Pipeline::new(chunk_cfg);
        let est_chunk = chunk_mimic_pipe.try_estimate(&trained, clusters, None)?;
        let part_mimic = est_chunk.wall.as_secs_f64();

        println!(
            "{clusters:>9} | {single_sim:>11.3} | {mimic_with_training:>13.3} | {single_mimic:>11.3} | {part_sim:>12.3} | {part_mimic:>12.3}"
        );
    }
    println!(
        "\npaper shape: at small sizes 'mimic+train' exceeds 'single sim';\n\
         as size grows both mimic strategies drop far below both\n\
         simulation strategies (2-3 orders of magnitude at 128 clusters)."
    );
    Ok(())
}
