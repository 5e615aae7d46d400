//! Configuration tuning with MimicNet (paper §9.4.1, Figure 13).
//!
//! DCTCP's ECN marking threshold `K` trades latency against throughput,
//! and — the paper's point — the best `K` at small scale is *not* the best
//! `K` at large scale. This example sweeps `K`, measuring the 90th-
//! percentile FCT three ways:
//!
//!   1. the 2-cluster (small-scale) simulation,
//!   2. the large-scale ground truth,
//!   3. MimicNet's composition (trained once per `K`).
//!
//! ```sh
//! cargo run --release --example dctcp_tuning
//! ```

use dcn_sim::stats::percentile;
use dcn_transport::Protocol;
use mimicnet::pipeline::{Pipeline, PipelineConfig};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // Keep the sweep affordable: 4-cluster "large" network, short runs.
    let large_n = 4;
    let ks = [5u32, 10, 20, 40, 60];

    println!("== DCTCP ECN-threshold tuning (paper Fig. 13, scaled) ==");
    println!("{:>4} | {:>14} | {:>14} | {:>14}", "K", "2-cluster p90", "truth p90", "mimic p90");

    let mut best = (0u32, f64::INFINITY, "");
    for k in ks {
        let mut cfg = PipelineConfig {
            protocol: Protocol::Dctcp { k },
            ..PipelineConfig::default()
        };
        cfg.base.duration_s = 0.8;
        cfg.base.seed = 7;
        cfg.train.epochs = 2;
        cfg.hidden = 16;

        let mut pipe = Pipeline::new(cfg);
        let trained = pipe.try_train()?.0;

        // Small-scale answer: the training run's own FCTs.
        let (small, _, _) = pipe.try_ground_truth(2, None)?;
        let p90_small = percentile(&small.fct, 90.0);

        // Large-scale ground truth and MimicNet estimate.
        let (truth, _, _) = pipe.try_ground_truth(large_n, None)?;
        let p90_truth = percentile(&truth.fct, 90.0);
        let est = pipe.try_estimate(&trained, large_n, None)?;
        let p90_mimic = percentile(&est.samples.fct, 90.0);

        println!("{k:>4} | {p90_small:>13.4}s | {p90_truth:>13.4}s | {p90_mimic:>13.4}s");
        if p90_mimic < best.1 {
            best = (k, p90_mimic, "mimic");
        }
    }
    println!(
        "\nMimicNet's prescription at {large_n} clusters: K = {} (p90 FCT {:.4} s)",
        best.0, best.1
    );
    println!("Compare with the K the 2-cluster column would have chosen —");
    println!("the paper's point is that they can differ (its Fig. 13: K=60 vs K=20).");
    Ok(())
}
