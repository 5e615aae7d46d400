//! Appendix H: model reuse and incremental retraining.
//!
//! Paper: "the models … can be safely reused to evaluate the network at
//! any scale … if any factor in the data and steps for generating the
//! models changes, the models should be updated … we would like to
//! explore techniques that can minimize the overhead of model retraining
//! … whether it is possible or how easily to transfer knowledge between
//! models and how MimicNet supports such incremental model updates."
//!
//! We measure exactly that: after a workload shift (70% → 90% load),
//! compare (a) reusing the stale model, (b) fine-tuning it briefly on new
//! data, and (c) training from scratch — on held-out loss (every held-out
//! packet scored from carried state, as a running Mimic predicts) and wall
//! time. The binary exits non-zero unless the fine-tuned model's held-out
//! loss is below both the stale model's and that of a from-scratch model
//! given the same two-epoch budget.

use mimic_ml::train::{evaluate, TrainConfig};
use mimicnet_bench::{header, pipeline_config, Scale};
use mimicnet::datagen::{generate, DataGenConfig};
use mimicnet::internal_model::InternalModel;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    header(
        "Appendix H",
        "incremental model updates after a workload shift (70% -> 90% load)",
    );
    let base_cfg = pipeline_config(scale, 42);
    // Old workload data + model.
    let mut dg_old = DataGenConfig {
        sim: base_cfg.base,
        ..DataGenConfig::default()
    };
    dg_old.sim.duration_s *= 4.0;
    let old = generate(&dg_old);
    let tc_full = TrainConfig {
        epochs: scale.epochs() + 2,
        window: 8,
        ..TrainConfig::default()
    };
    let (old_model, _) =
        InternalModel::train_stacked(&old.egress, old.egress_disc, base_cfg.hidden, 1, &tc_full)
            .expect("training data");

    // New workload (heavier).
    let mut dg_new = dg_old;
    dg_new.sim.traffic.load = 0.9;
    dg_new.sim.seed ^= 0xD1F7;
    let new = generate(&dg_new);
    let (new_train, new_test) = new.egress.split(0.8);

    let tc_short = TrainConfig {
        epochs: 2,
        window: 8,
        ..TrainConfig::default()
    };
    println!(
        "{:>26} | {:>13} | {:>11}",
        "strategy", "held-out loss", "update time"
    );

    // (a) reuse stale.
    let stale_loss = evaluate(&old_model.model, &new_test, &tc_short);
    println!("{:>26} | {stale_loss:>13.5} | {:>11}", "reuse stale model", "0.00s");

    // (b) fine-tune 2 epochs.
    let mut tuned = old_model.clone();
    let t0 = Instant::now();
    tuned.fine_tune(&new_train, &tc_short).expect("training data");
    let tune_wall = t0.elapsed().as_secs_f64();
    let tuned_loss = evaluate(&tuned.model, &new_test, &tc_short);
    println!(
        "{:>26} | {tuned_loss:>13.5} | {tune_wall:>10.2}s",
        "fine-tune (2 epochs)"
    );

    // (c) scratch, same short budget.
    let t1 = Instant::now();
    let (scratch_short, _) =
        InternalModel::train_stacked(&new_train, new.egress_disc, base_cfg.hidden, 1, &tc_short)
            .expect("training data");
    let scratch_short_wall = t1.elapsed().as_secs_f64();
    let scratch_short_loss = evaluate(&scratch_short.model, &new_test, &tc_short);
    println!(
        "{:>26} | {scratch_short_loss:>13.5} | {scratch_short_wall:>10.2}s",
        "scratch (2 epochs)"
    );

    // (d) scratch, full budget.
    let t2 = Instant::now();
    let (scratch_full, _) =
        InternalModel::train_stacked(&new_train, new.egress_disc, base_cfg.hidden, 1, &tc_full)
            .expect("training data");
    let scratch_full_wall = t2.elapsed().as_secs_f64();
    let scratch_full_loss = evaluate(&scratch_full.model, &new_test, &tc_short);
    println!(
        "{:>26} | {scratch_full_loss:>13.5} | {scratch_full_wall:>10.2}s",
        format!("scratch ({} epochs)", tc_full.epochs)
    );

    println!(
        "\nexpected: fine-tuning closes most of the stale-model gap at a\n\
         fraction of the from-scratch budget — the knowledge-transfer\n\
         opportunity Appendix H calls out."
    );
    if tuned_loss >= stale_loss {
        return Err(format!("fine-tuned loss {tuned_loss} is not below the stale {stale_loss}").into());
    }
    if tuned_loss >= scratch_short_loss {
        return Err(format!(
            "fine-tuned loss {tuned_loss} is not below equal-budget scratch {scratch_short_loss}"
        )
        .into());
    }
    println!("shape: reproduced");
    Ok(())
}
