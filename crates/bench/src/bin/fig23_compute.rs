//! Figure 23 (Appendix G): compute-resource consumption (FLOPs).
//!
//! Paper: "MimicNet shows significant computational load, primarily
//! because of the use of GPUs for training and inference. This makes its
//! compute consumption higher than full simulations when the network …
//! is small … However, in large networks, e.g. 128 clusters, the use of
//! deep learning models in MimicNet pays off … its total compute
//! consumption is lower than full simulations even with the … training
//! overhead."
//!
//! We count FLOPs analytically: simulator events at a calibrated
//! per-event cost, plus exact LSTM training/inference math. Inference
//! costs one LSTM step per packet the Mimic fleet steps, as the fleet
//! counts them: every boundary verdict, plus the feeder rows each verdict
//! replays — at most the training window's worth of the feeder packets
//! drawn since the lane's previous verdict. Drawing and featurizing a
//! feeder packet is priced as free.

use mimic_ml::flops::{inference_step_flops, train_step_flops, SIM_EVENT_FLOPS};
use mimicnet_bench::{header, pipeline_config, Scale};
use mimicnet::pipeline::Pipeline;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    header(
        "Figure 23",
        "compute consumption (GFLOP-equivalents): full sim vs MimicNet (with/without training)",
    );
    let mut pipe = Pipeline::new(pipeline_config(scale, 42)).with_obs();
    let (trained, data) = pipe.try_train()?;
    let f = trained.feature_cfg.width();
    let h = trained.ingress.model.hidden_dim();
    let window = pipe.cfg.train.window;
    let streams = pipe.cfg.train.batch_size.div_ceil(window);
    // Training cost: one optimizer step per chunk of `window` packets of
    // every stream, over both directions' datasets, all epochs.
    let steps = |n: usize| n.div_ceil(streams * window) * pipe.cfg.train.epochs;
    let train_flops = (steps(data.ingress.len()) + steps(data.egress.len())) as u64
        * train_step_flops(f, h, 3, window, streams);
    // Small-scale simulation cost.
    let small_sim_flops = data.metrics.events_processed * SIM_EVENT_FLOPS;

    println!(
        "model: {f} features x {h} hidden; window {window}; one-time cost = small sim {:.2} GF + training {:.2} GF",
        small_sim_flops as f64 / 1e9,
        train_flops as f64 / 1e9
    );
    println!(
        "\n{:>9} | {:>12} | {:>14} | {:>14} | {:>8} | {:>12} | {:>12}",
        "clusters", "full sim", "mimic (run)", "mimic (+train)", "verdicts", "feeder draws", "feeder steps"
    );
    for clusters in scale.cluster_sweep() {
        let (_, truth_metrics, _) = pipe.try_ground_truth(clusters, None)?;
        let full = truth_metrics.events_processed * SIM_EVENT_FLOPS;
        // This estimate's telemetry alone: drop what earlier phases left.
        pipe.obs.take_report();
        let est = pipe.try_estimate(&trained, clusters, None)?;
        let fleet = pipe.obs.take_report().unwrap_or_default();
        // Composition cost: events + one LSTM step per boundary verdict
        // and per replayed feeder row.
        let verdicts = fleet.counter("mimic.fleet.packets_seen");
        let draws = fleet.counter("mimic.fleet.feeder_packets");
        let steps = fleet.counter("mimic.fleet.feeder_steps");
        let mimic_run = est.metrics.events_processed * SIM_EVENT_FLOPS
            + (verdicts + steps) * inference_step_flops(f, h, 3);
        let mimic_total = mimic_run + train_flops + small_sim_flops;
        println!(
            "{clusters:>9} | {:>12.3} | {:>14.3} | {:>14.3} | {verdicts:>8} | {draws:>12} | {steps:>12}",
            full as f64 / 1e9,
            mimic_run as f64 / 1e9,
            mimic_total as f64 / 1e9
        );
    }
    println!(
        "\npaper shape: at small sizes MimicNet's model math makes it the\n\
         more expensive option; as the network grows the full simulation's\n\
         event count explodes and MimicNet wins even including training."
    );
    Ok(())
}
