//! Parallel DES does not rescue tightly coupled simulations (paper §2.2,
//! Figure 2) — and Mimic compositions parallelize far better (§8).
//!
//! Measures events/second of the sequential engine against the
//! conservative barrier-synchronous PDES at 1/2/4 logical processes, for
//! a sweep of network sizes; then shows the event-count reduction a Mimic
//! composition achieves, which is what actually buys speed.
//!
//! ```sh
//! cargo run --release --example pdes_speed
//! ```

use dcn_sim::config::SimConfig;
use dcn_sim::pdes::run_partitioned;
use dcn_sim::simulator::Simulation;
use dcn_transport::Protocol;
use mimicnet::pipeline::{Pipeline, PipelineConfig};
use std::error::Error;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    println!("== PDES scaling (paper Fig. 2, scaled) ==");
    println!(
        "{:>9} | {:>14} | {:>14} | {:>14}",
        "clusters", "1 LP (ev/s)", "2 LPs (ev/s)", "4 LPs (ev/s)"
    );
    for clusters in [2u32, 4, 8] {
        let mut cfg = SimConfig::with_clusters(clusters);
        cfg.duration_s = 0.3;
        cfg.seed = 5;

        let mut row = Vec::new();
        for parts in [1usize, 2, 4] {
            let t0 = Instant::now();
            let m = if parts == 1 {
                Simulation::with_transport(cfg, Protocol::NewReno.factory()).run()
            } else {
                run_partitioned(cfg, parts, &|| Protocol::NewReno.factory())
            };
            let dt = t0.elapsed().as_secs_f64();
            row.push(m.events_processed as f64 / dt);
        }
        println!(
            "{clusters:>9} | {:>14.0} | {:>14.0} | {:>14.0}",
            row[0], row[1], row[2]
        );
    }
    println!("(synchronization every link-latency window typically erases the win)");

    println!("\n== Where the speedup really comes from: fewer events ==");
    let mut pcfg = PipelineConfig::default();
    pcfg.base.duration_s = 0.4;
    pcfg.train.epochs = 1;
    pcfg.hidden = 8;
    let mut pipe = Pipeline::new(pcfg);
    let trained = pipe.try_train()?.0;
    println!("{:>9} | {:>14} | {:>14} | {:>8}", "clusters", "truth events", "mimic events", "ratio");
    for n in [2u32, 4, 8] {
        let (_, truth, _) = pipe.try_ground_truth(n, None)?;
        let est = pipe.try_estimate(&trained, n, None)?;
        println!(
            "{n:>9} | {:>14} | {:>14} | {:>7.1}x",
            truth.events_processed,
            est.metrics.events_processed,
            truth.events_processed as f64 / est.metrics.events_processed.max(1) as f64
        );
    }
    Ok(())
}
