//! Figure 9: RTT-distribution accuracy vs. network size.
//!
//! Paper: W1 of per-packet RTT for small-scale extrapolation vs MimicNet;
//! flow-level simulation is excluded because it "is too coarse-grained to
//! provide this metric". MimicNet averages 43% lower error.

use dcn_sim::cdf::wasserstein1;
use mimicnet_bench::{header, pipeline_config, Scale};
use mimicnet::pipeline::Pipeline;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    header("Figure 9", "W1(packet RTT) to ground truth vs #clusters");
    let mut pipe = Pipeline::new(pipeline_config(scale, 42));
    let trained = pipe.try_train()?.0;
    let (small, _, _) = pipe.try_ground_truth(2, None)?;

    println!("{:>9} | {:>13} | {:>13}", "clusters", "small-scale", "MimicNet");
    let (mut s_sum, mut m_sum, mut n) = (0.0, 0.0, 0);
    for clusters in scale.cluster_sweep() {
        let (truth, _, _) = pipe.try_ground_truth(clusters, None)?;
        let est = pipe.try_estimate(&trained, clusters, None)?;
        let w_small = wasserstein1(&truth.rtt, &small.rtt);
        let w_mimic = wasserstein1(&truth.rtt, &est.samples.rtt);
        println!("{clusters:>9} | {w_small:>13.6} | {w_mimic:>13.6}");
        // Skip the degenerate 2-cluster point (small-scale == truth there).
        if clusters > 2 {
            s_sum += w_small;
            m_sum += w_mimic;
            n += 1;
        }
    }
    println!("---------------------------------------------");
    println!(
        "{:>9} | {:>13.6} | {:>13.6}   ({:.0}% lower)",
        "mean>2",
        s_sum / n as f64,
        m_sum / n as f64,
        (1.0 - (m_sum / s_sum)) * 100.0
    );
    println!("\npaper shape: MimicNet below small-scale at every size (43% lower\non average in the paper); flow-level cannot produce RTTs at all.");
    Ok(())
}
