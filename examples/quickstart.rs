//! Quickstart: the full MimicNet workflow on one page.
//!
//! Trains a Mimic from a 2-cluster full-fidelity simulation, composes a
//! larger data center from it, and prints the headline estimates next to
//! the (still affordable at this scale) ground truth.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mimicnet::metrics::compare;
use mimicnet::pipeline::{Pipeline, PipelineConfig};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Configure: a scaled-down version of the paper's setup (see
    //    DESIGN.md §1 for the substitution table). Everything below is
    //    deterministic in the seed.
    let mut cfg = PipelineConfig::default();
    cfg.base.duration_s = 1.0; // seconds of simulated time for training
    cfg.base.seed = 42;
    cfg.train.epochs = 3;

    println!("== MimicNet quickstart ==");
    println!(
        "small-scale: {} clusters x {} racks x {} hosts, protocol {}",
        cfg.base.topo.clusters,
        cfg.base.topo.racks_per_cluster,
        cfg.base.topo.hosts_per_rack,
        cfg.protocol.name()
    );

    // 2. Phases 1-2: observe small, train models.
    let mut pipe = Pipeline::new(cfg);
    let trained = pipe.try_train()?.0;
    println!(
        "trained ingress+egress LSTMs ({} params each) in {:?} (+{:?} sim)",
        trained.ingress.model.param_count(),
        pipe.timings.training,
        pipe.timings.small_scale_sim,
    );

    // 3. Phase 5: estimate a larger data center.
    let n = 8;
    let est = pipe.try_estimate(&trained, n, None)?;
    println!("\n-- {n}-cluster estimate ({:?} wall) --", est.wall);
    println!("observable flows completed: {}", est.samples.fct.len());
    println!("p99 FCT        ~ {:.4} s", est.fct_p99);
    println!("p99 throughput ~ {:.0} B/s", est.throughput_p99);
    println!("p99 RTT        ~ {:.4} s", est.rtt_p99);

    // 4. Sanity-check against ground truth (possible at this small scale).
    let (truth, truth_metrics, truth_wall) = pipe.try_ground_truth(n, None)?;
    let report = compare(&truth, &est.samples);
    println!("\n-- vs ground truth ({truth_wall:?} wall) --");
    println!("W1(FCT)        = {:.4}", report.w1_fct);
    println!("W1(throughput) = {:.0}", report.w1_throughput);
    println!("W1(RTT)        = {:.5}", report.w1_rtt);
    println!(
        "p99 FCT: truth {:.4} s vs mimic {:.4} s ({:.1}% off)",
        report.fct_p99_truth,
        report.fct_p99_approx,
        report.fct_p99_rel_err() * 100.0
    );
    println!(
        "events processed: truth {} vs mimic {} ({:.1}x fewer)",
        truth_metrics.events_processed,
        est.metrics.events_processed,
        truth_metrics.events_processed as f64 / est.metrics.events_processed.max(1) as f64
    );
    println!(
        "drops: truth queues {} | mimic run: queues {} + model-predicted {}",
        truth_metrics.queue_drops, est.metrics.queue_drops, est.metrics.mimic_drops
    );
    Ok(())
}
