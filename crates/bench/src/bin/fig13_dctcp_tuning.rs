//! Figure 13: tuning DCTCP's ECN marking threshold `K` with MimicNet.
//!
//! Paper: "the configuration that achieves the lowest 90-pct FCT is
//! different between 2 clusters (K=60) and 32 clusters (K=20). MimicNet
//! provides the same answer as the full simulation for 32 clusters, but it
//! is 12× faster."

use dcn_sim::stats::percentile;
use dcn_transport::Protocol;
use mimicnet_bench::{header, pipeline_config, Scale};
use mimicnet::pipeline::Pipeline;
use std::error::Error;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    header(
        "Figure 13",
        "90-pct FCT vs DCTCP marking threshold K: 2-cluster vs large truth vs MimicNet",
    );
    let large = scale.large();
    let ks: Vec<u32> = match scale {
        Scale::Quick => vec![5, 10, 20, 40, 60],
        Scale::Full => vec![5, 10, 20, 40, 60, 80],
    };

    println!(
        "{:>4} | {:>14} | {:>14} | {:>14}",
        "K", "2 clusters", format!("{large} truth"), format!("{large} mimic")
    );
    let mut best_small = (0u32, f64::INFINITY);
    let mut best_truth = (0u32, f64::INFINITY);
    let mut best_mimic = (0u32, f64::INFINITY);
    let mut wall_truth = 0.0;
    let mut wall_mimic = 0.0;
    for &k in &ks {
        let mut cfg = pipeline_config(scale, 7);
        // The latency/throughput tension K controls only binds under
        // pressure; run hot so the sweep has signal.
        cfg.base.traffic.load = 0.9;
        cfg.base.duration_s = scale.duration_s() * 1.5;
        cfg.protocol = Protocol::Dctcp { k };
        let mut pipe = Pipeline::new(cfg);
        let trained = pipe.try_train()?.0;
        let (small, _, _) = pipe.try_ground_truth(2, None)?;
        let p_small = percentile(&small.fct, 90.0);
        let t0 = Instant::now();
        let (truth, _, _) = pipe.try_ground_truth(large, None)?;
        wall_truth += t0.elapsed().as_secs_f64();
        let p_truth = percentile(&truth.fct, 90.0);
        let est = pipe.try_estimate(&trained, large, None)?;
        wall_mimic += est.wall.as_secs_f64();
        let p_mimic = percentile(&est.samples.fct, 90.0);
        println!("{k:>4} | {p_small:>13.4}s | {p_truth:>13.4}s | {p_mimic:>13.4}s");
        if p_small < best_small.1 {
            best_small = (k, p_small);
        }
        if p_truth < best_truth.1 {
            best_truth = (k, p_truth);
        }
        if p_mimic < best_mimic.1 {
            best_mimic = (k, p_mimic);
        }
    }
    println!("------------------------------------------------------------------");
    println!(
        "best K:  2-cluster -> {}   |   {large}-truth -> {}   |   mimic -> {}",
        best_small.0, best_truth.0, best_mimic.0
    );
    println!(
        "sweep wall time: truth {wall_truth:.2}s vs mimic {wall_mimic:.2}s ({:.1}x faster)",
        wall_truth / wall_mimic.max(1e-9)
    );
    println!(
        "\npaper shape: small-scale prescribes a different (worse) K than the\n\
         large-scale truth; MimicNet recovers the truth's choice at a\n\
         fraction of the cost (12x in the paper)."
    );
    Ok(())
}
