//! Figure 20 (Appendix E): accuracy under heavier network load.
//!
//! Paper: at 90% aggregate load and 32 clusters "MimicNet provides high
//! accuracy in approximating the ground truth: the overall W1 score is low
//! at 0.15[4], and the shape is maintained. MimicNet completes the
//! execution 10.4x faster than the full simulation."

use dcn_sim::cdf::wasserstein1;
use mimicnet_bench::{header, pipeline_config, q, Scale};
use mimicnet::pipeline::Pipeline;
use std::error::Error;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    let large = scale.large();
    header(
        "Figure 20",
        "FCT accuracy at 90% load (heavy aggregation-network pressure)",
    );
    let mut cfg = pipeline_config(scale, 23);
    cfg.base.traffic.load = 0.9;
    let mut pipe = Pipeline::new(cfg);
    let trained = pipe.try_train()?.0;
    let t0 = Instant::now();
    let (truth, _, _) = pipe.try_ground_truth(large, None)?;
    let truth_wall = t0.elapsed().as_secs_f64();
    let est = pipe.try_estimate(&trained, large, None)?;

    let tq = q(&truth.fct);
    let mq = q(&est.samples.fct);
    println!("{large} clusters at 90% load:");
    println!("{:>14} | {:>9} {:>9} {:>9} {:>9}", "source", "p10", "p50", "p90", "p99");
    println!("{:>14} | {:>9.4} {:>9.4} {:>9.4} {:>9.4}", "ground truth", tq[0], tq[1], tq[2], tq[3]);
    println!("{:>14} | {:>9.4} {:>9.4} {:>9.4} {:>9.4}", "MimicNet", mq[0], mq[1], mq[2], mq[3]);
    let w1 = wasserstein1(&truth.fct, &est.samples.fct);
    let mean = dcn_sim::stats::mean(&truth.fct);
    println!(
        "\nW1(FCT) = {w1:.4}  (truth mean FCT {mean:.4}; normalized {:.2})",
        w1 / mean.max(1e-12)
    );
    println!(
        "wall: truth {truth_wall:.2}s vs mimic {:.2}s ({:.1}x faster)",
        est.wall.as_secs_f64(),
        truth_wall / est.wall.as_secs_f64().max(1e-9)
    );
    println!("\npaper shape: low W1 with the CDF shape maintained, and ~10x speedup.");
    Ok(())
}
