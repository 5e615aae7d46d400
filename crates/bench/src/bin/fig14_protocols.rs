//! Figure 14: comparing transport protocols — FCT distributions of Homa,
//! DCTCP, TCP Vegas, and TCP Westwood, ground truth vs. MimicNet.
//!
//! Paper: "for all protocols, MimicNet can match the FCT of the
//! full-fidelity simulation closely … the approximated 90-pct and 99-pct
//! tails by MimicNet are within 5% of the ground truth" and the protocol
//! ranking is preserved (Homa best 90-pct FCT, Vegas worst), 12× faster.

use dcn_sim::cdf::wasserstein1;
use dcn_transport::Protocol;
use mimicnet_bench::{header, pipeline_config, q, Scale};
use mimicnet::pipeline::Pipeline;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    let large = scale.large();
    header(
        "Figure 14",
        "FCT distributions per protocol: ground truth vs MimicNet composition",
    );
    println!(
        "{:>14} | {:>7} | {:>9} {:>9} {:>9} | {:>9}",
        "protocol", "source", "p50", "p90", "p99", "W1"
    );
    let mut rank_truth: Vec<(String, f64)> = Vec::new();
    let mut rank_mimic: Vec<(String, f64)> = Vec::new();
    for p in [
        Protocol::Homa,
        Protocol::Dctcp { k: 20 },
        Protocol::Vegas,
        Protocol::Westwood,
    ] {
        let mut cfg = pipeline_config(scale, 11);
        cfg.protocol = p;
        let mut pipe = Pipeline::new(cfg);
        let trained = pipe.try_train()?.0;
        let (truth, _, _) = pipe.try_ground_truth(large, None)?;
        let est = pipe.try_estimate(&trained, large, None)?;
        let tq = q(&truth.fct);
        let mq = q(&est.samples.fct);
        let w1 = wasserstein1(&truth.fct, &est.samples.fct);
        println!(
            "{:>14} | {:>7} | {:>9.4} {:>9.4} {:>9.4} |",
            p.name(),
            "truth",
            tq[1],
            tq[2],
            tq[3]
        );
        println!(
            "{:>14} | {:>7} | {:>9.4} {:>9.4} {:>9.4} | {w1:>9.5}",
            "", "mimic", mq[1], mq[2], mq[3]
        );
        rank_truth.push((p.name().to_string(), tq[2]));
        rank_mimic.push((p.name().to_string(), mq[2]));
    }
    let order = |mut v: Vec<(String, f64)>| {
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        v.into_iter().map(|(n, _)| n).collect::<Vec<_>>()
    };
    println!("\np90 ranking truth: {:?}", order(rank_truth));
    println!("p90 ranking mimic: {:?}", order(rank_mimic));
    println!(
        "\npaper shape: per-protocol CDFs match closely (tails within ~5%),\n\
         and the relative protocol ordering is preserved."
    );
    Ok(())
}
