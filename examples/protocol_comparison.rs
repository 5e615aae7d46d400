//! Comparing transport protocols with MimicNet (paper §9.4.2, Figure 14).
//!
//! Runs the full pipeline for Homa, DCTCP, TCP Vegas, and TCP Westwood —
//! each trained on its own small-scale data, since the Mimic must learn
//! each protocol's distinct cluster dynamics — and compares their FCT
//! distributions at a larger scale, MimicNet estimates vs. ground truth.
//!
//! ```sh
//! cargo run --release --example protocol_comparison
//! ```

use dcn_sim::stats::percentile;
use dcn_transport::Protocol;
use mimicnet::pipeline::{Pipeline, PipelineConfig};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let protocols = [
        Protocol::Homa,
        Protocol::Dctcp { k: 20 },
        Protocol::Vegas,
        Protocol::Westwood,
    ];
    let n = 4;

    println!("== Protocol comparison at {n} clusters (paper Fig. 14, scaled) ==");
    println!(
        "{:>14} | {:>12} {:>12} | {:>12} {:>12}",
        "protocol", "truth p50", "truth p90", "mimic p50", "mimic p90"
    );

    let mut rank_truth: Vec<(String, f64)> = Vec::new();
    let mut rank_mimic: Vec<(String, f64)> = Vec::new();
    for p in protocols {
        let mut cfg = PipelineConfig {
            protocol: p,
            ..PipelineConfig::default()
        };
        cfg.base.duration_s = 0.8;
        cfg.base.seed = 11;
        cfg.train.epochs = 2;
        cfg.hidden = 16;

        let mut pipe = Pipeline::new(cfg);
        let trained = pipe.try_train()?.0;
        let (truth, _, _) = pipe.try_ground_truth(n, None)?;
        let est = pipe.try_estimate(&trained, n, None)?;

        let t50 = percentile(&truth.fct, 50.0);
        let t90 = percentile(&truth.fct, 90.0);
        let m50 = percentile(&est.samples.fct, 50.0);
        let m90 = percentile(&est.samples.fct, 90.0);
        println!(
            "{:>14} | {:>11.4}s {:>11.4}s | {:>11.4}s {:>11.4}s",
            p.name(),
            t50,
            t90,
            m50,
            m90
        );
        rank_truth.push((p.name().to_string(), t90));
        rank_mimic.push((p.name().to_string(), m90));
    }

    let order = |mut v: Vec<(String, f64)>| {
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        v.into_iter().map(|(n, _)| n).collect::<Vec<_>>()
    };
    println!("\np90-FCT ranking, ground truth: {:?}", order(rank_truth));
    println!("p90-FCT ranking, MimicNet:     {:?}", order(rank_mimic));
    println!("(the paper's claim: MimicNet preserves the ranking and ballpark values)");
    Ok(())
}
