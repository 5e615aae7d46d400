//! Table 2: running-time breakdown of the MimicNet workflow vs. full
//! simulation.
//!
//! Paper (128 clusters, 1024 hosts, 20 simulated seconds):
//!
//! | factor | time |
//! |---|---|
//! | small-scale simulation | 1h 3m |
//! | training + hyper-tuning | 7h 10m |
//! | large-scale simulation | 25m |
//! | **full simulation** | **1w 4d 22h 25m** |
//!
//! "Benefits of MimicNet increase with simulated time as the first two
//! values … are constant."

use mimicnet_bench::{header, pipeline_config, secs, Scale};
use mimicnet::pipeline::Pipeline;
use std::error::Error;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    let large = scale.large();
    header(
        "Table 2",
        "wall-clock breakdown of the workflow vs full simulation",
    );
    let mut pipe = Pipeline::new(pipeline_config(scale, 42));
    let trained = pipe.try_train()?.0;
    let est = pipe.try_estimate(&trained, large, None)?;
    let t0 = Instant::now();
    let _ = pipe.try_ground_truth(large, None)?;
    let full = t0.elapsed();

    println!("target: {large} clusters, {} hosts, {} simulated seconds\n", {
        let mut t = pipe.cfg.base.topo;
        t.clusters = large;
        t.num_hosts()
    }, pipe.cfg.base.duration_s);
    println!("{:<42} {:>10}", "factor", "time");
    println!("{:<42} {:>10}", "MimicNet: small-scale simulation", secs(pipe.timings.small_scale_sim));
    println!("{:<42} {:>10}", "MimicNet: training (ingress + egress)", secs(pipe.timings.training));
    println!("{:<42} {:>10}", "MimicNet: large-scale simulation", secs(est.wall));
    let total = pipe.timings.small_scale_sim + pipe.timings.training + est.wall;
    println!("{:<42} {:>10}", "MimicNet: total", secs(total));
    println!("{:<42} {:>10}", "Full simulation", secs(full));
    println!(
        "\nend-to-end speedup: {:.1}x (excluding training: {:.1}x)",
        full.as_secs_f64() / total.as_secs_f64().max(1e-9),
        full.as_secs_f64() / est.wall.as_secs_f64().max(1e-9)
    );
    println!(
        "\npaper shape: the one-time small-scale + training cost amortizes;\n\
         the recurring large-scale phase is a small fraction of the full\n\
         simulation (25m vs 1w4d22h at the paper's scale, a 34x total win)."
    );
    Ok(())
}
