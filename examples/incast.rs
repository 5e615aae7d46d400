//! Incast: the fan-in stress case behind the paper's §4.2 assumption
//! that "the majority of congestion occurs on fan-in toward the
//! destination".
//!
//! Runs the same offered load under the uniform pattern and under incast
//! (every flow converges on one sink host per cluster), showing how queue
//! occupancy and FCT tails concentrate at the fan-in point — and that a
//! Mimic trained on the matching pattern still tracks ground truth.
//!
//! ```sh
//! cargo run --release --example incast
//! ```

use dcn_sim::config::{SimConfig, TrafficPattern};
use dcn_sim::simulator::Simulation;
use dcn_sim::stats::percentile;
use dcn_transport::Protocol;
use mimicnet::metrics::compare;
use mimicnet::pipeline::{Pipeline, PipelineConfig};
use std::error::Error;

fn run_pattern(pattern: TrafficPattern) -> dcn_sim::instrument::Metrics {
    let mut cfg = SimConfig::with_clusters(4);
    cfg.duration_s = 1.0;
    cfg.seed = 13;
    cfg.traffic.load = 0.6;
    cfg.traffic.pattern = pattern;
    let mut sim = Simulation::with_transport(cfg, Protocol::NewReno.factory());
    // Counts-only diagnostics, for the peak port-queue occupancy.
    sim.enable_diagnostics(false, None);
    sim.run()
}

fn main() -> Result<(), Box<dyn Error>> {
    println!("== Fan-in stress: uniform vs incast destinations ==\n");
    for (name, pattern) in [
        ("uniform", TrafficPattern::Uniform),
        ("incast(1 sink)", TrafficPattern::Incast { sinks: 1 }),
    ] {
        let m = run_pattern(pattern);
        let fct = m.fct_samples(|_| true);
        println!("{name:>15}:");
        println!("  flows completed   {}", m.flows_completed());
        println!("  p50 / p99 FCT     {:.4}s / {:.4}s", percentile(&fct, 50.0), percentile(&fct, 99.0));
        println!("  queue drops       {}", m.queue_drops);
        let peak = m.obs.as_ref().map_or(0.0, |r| r.gauges["sim.queue.peak_bytes"]);
        println!("  peak queue        {peak} B");
    }

    println!("\n== MimicNet under incast ==");
    let mut cfg = PipelineConfig::default();
    cfg.base.duration_s = 1.0;
    cfg.base.seed = 13;
    cfg.base.traffic.load = 0.6;
    cfg.base.traffic.pattern = TrafficPattern::Incast { sinks: 1 };
    let mut pipe = Pipeline::new(cfg);
    let trained = pipe.try_train()?.0;
    let est = pipe.try_estimate(&trained, 4, None)?;
    let (truth, _, _) = pipe.try_ground_truth(4, None)?;
    let r = compare(&truth, &est.samples);
    println!("W1(FCT) = {:.4} (truth mean FCT {:.4})", r.w1_fct, dcn_sim::stats::mean(&truth.fct));
    println!(
        "p99 FCT: truth {:.4}s vs mimic {:.4}s",
        r.fct_p99_truth, r.fct_p99_approx
    );
    println!("\n(the fan-in assumption is why MimicNet focuses its modeling on\nthe destination-side of clusters — §4.2)");
    Ok(())
}
