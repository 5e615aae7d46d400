//! Figures 21 & 22 (Appendix F): simulation latency and throughput vs.
//! simulation length.
//!
//! Paper: "the relative simulation speeds of different approaches barely
//! change with the simulation length … the latency of full simulations
//! increases slightly slower than that of MimicNet because the constant
//! setup overhead in full simulations is significantly higher … the
//! simulation throughput does not change at all with the simulation
//! length."

use mimicnet_bench::{header, pipeline_config, Scale};
use mimicnet::pipeline::Pipeline;
use std::error::Error;
use std::time::Instant;

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    let n = scale.large();
    header(
        "Figures 21/22",
        "latency and throughput vs simulated length, full sim vs MimicNet",
    );
    let lengths: Vec<f64> = match scale {
        Scale::Quick => vec![0.2, 0.4, 0.8],
        Scale::Full => vec![0.5, 1.0, 2.0],
    };
    // Train once (model reuse across lengths, as the paper notes).
    let mut pipe = Pipeline::new(pipeline_config(scale, 42));
    let trained = pipe.try_train()?.0;
    println!(
        "{:>9} | {:>12} {:>12} | {:>14} {:>14}",
        "sim secs", "full lat(s)", "mimic lat(s)", "full tput", "mimic tput"
    );
    for s in lengths {
        pipe.cfg.base.duration_s = s;
        let t0 = Instant::now();
        let _ = pipe.try_ground_truth(n, None)?;
        let full = t0.elapsed().as_secs_f64();
        let est = pipe.try_estimate(&trained, n, None)?;
        let mimic = est.wall.as_secs_f64();
        println!(
            "{s:>9.2} | {full:>12.3} {mimic:>12.3} | {:>14.4} {:>14.4}",
            s / full,
            s / mimic
        );
    }
    println!(
        "\npaper shape: latency scales ~linearly with length for both; the\n\
         throughput columns stay ~constant per approach, with MimicNet's\n\
         well above the full simulation's."
    );
    Ok(())
}
