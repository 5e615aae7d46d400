//! Rows about training the internal models on one small-scale trace:
//! Figures 5, 6, 16/17 and Appendix H. None composes a simulation.

use crate::{pipeline_config, RowResult, Scale, Scenarios};
use dcn_sim::rng::SplitMix64;
use dcn_sim::stats::percentile;
use mimic_ml::loss::{sigmoid, ClsLoss, RegLoss};
use mimic_ml::model::{OUT_DROP, OUT_LATENCY};
use mimic_ml::train::{evaluate, TrainConfig};
use mimicnet::datagen::{generate, DataGenConfig};
use mimicnet::internal_model::InternalModel;
use std::error::Error;
use std::time::Instant;

/// The seed's small-scale data-generation config at `scale`.
fn datagen(scale: Scale, seed: u64) -> DataGenConfig {
    DataGenConfig {
        sim: pipeline_config(scale, seed).base,
        ..DataGenConfig::default()
    }
}

/// Figure 5: drop prediction under BCE vs. weighted BCE.
///
/// Paper: "Ground truth and LSTM-predicted drops for a one-second test set
/// using different loss functions. … Ground truth has 0.3% drop rate and
/// BCE loss has 0.01%. WBCE results in more realistic drop rates depending
/// on the weight (w=0.6: 0.14%; w=0.9: 0.49%)." Plain BCE learns "never
/// drop" because of class imbalance; the positive-class weight restores
/// realistic rates (and overshoots when set too high).
pub(crate) fn fig05_drop_losses(_: &mut Scenarios, scale: Scale) -> RowResult {
    // Stress the cluster enough that the trace carries real (but rare)
    // drops, like the paper's 0.3%-drop-rate example trace: raise the
    // load and shrink buffers a little.
    let mut dg = datagen(scale, 77);
    dg.sim.traffic.load = 1.1;
    dg.sim.queue.capacity_bytes = 15_000;
    dg.sim.traffic.inter_cluster_fraction = 0.7;
    dg.sim.duration_s = scale.duration_s() * 6.0;
    let td = generate(&dg);
    let (train_set, test_set) = td.egress.split(0.7);
    let truth_rate = test_set.drop_rate();
    println!(
        "trace: {} egress packets, ground-truth drop rate {:.3}%",
        td.egress.len(),
        truth_rate * 100.0
    );
    println!(
        "{:>12} | {:>17} | {:>14}",
        "loss", "pred drop rate", "rate ratio"
    );

    let mut ratios = Vec::new();
    for (name, loss) in [
        ("BCE", ClsLoss::Bce),
        ("WBCE w=0.6", ClsLoss::Wbce { w: 0.6 }),
        ("WBCE w=0.9", ClsLoss::Wbce { w: 0.9 }),
    ] {
        let mut tc = TrainConfig {
            epochs: scale.epochs() + 1,
            window: 8,
            seed: 3,
            ..TrainConfig::default()
        };
        tc.loss.drop = loss;
        // Isolate the drop task so the comparison is clean.
        tc.loss.w_drop = 1.0;
        tc.loss.w_latency = 0.25;
        tc.loss.w_ecn = 0.0;
        let (model, _) = InternalModel::train_stacked(&train_set, td.egress_disc, 16, 1, &tc)?;
        // Generatively sample drops over the held-out set (the paper's
        // realized drop-rate comparison).
        let mut state = model.init_state();
        let mut rng = SplitMix64::new(9);
        let drops = test_set
            .features
            .iter()
            .filter(|f| rng.bernoulli(sigmoid(model.model.step(f, &mut state)[OUT_DROP]) as f64))
            .count();
        let rate = drops as f64 / test_set.len() as f64;
        let ratio = rate / truth_rate.max(1e-9);
        println!("{name:>12} | {:>16.3}% | {ratio:>13.2}x", rate * 100.0);
        ratios.push(ratio);
    }
    println!(
        "\npaper shape: BCE massively under-predicts the drop rate; WBCE 0.6\n\
         lands near truth (0.14% against 0.3%, 0.47x); WBCE 0.9 overshoots.\n\
         measured: WBCE 0.6 predicts {:.2}x the true drop rate (one seed; not checked).",
        ratios[1]
    );
    Ok(())
}

/// Figure 6: latency prediction under MAE vs. MSE vs. Huber loss.
///
/// Paper: "Unfortunately, using MAE directly as the loss function fails to
/// capture outliers. Instead, Huber produces more realistic results and a
/// better eventual MAE score." (Their MAEs: MAE-trained 1.4e-4,
/// MSE-trained 3.3e-4, Huber-trained 1.1e-4; Huber also cut the 99-pct
/// latency error from 13.2% to 2.6%.)
pub(crate) fn fig06_latency_losses(_: &mut Scenarios, scale: Scale) -> RowResult {
    let mut dg = datagen(scale, 91);
    dg.sim.traffic.load = 0.95; // induce latency outliers
    dg.sim.duration_s = scale.duration_s() * 4.0;
    let td = generate(&dg);
    let (train_set, test_set) = td.ingress.split(0.7);

    // Ground-truth stats on the (normalized) test targets.
    let truth: Vec<f64> = test_set.targets.iter().map(|t| t.latency as f64).collect();
    let truth_p99 = percentile(&truth, 99.0);
    println!(
        "trace: {} ingress packets; normalized-latency p99 (truth) = {truth_p99:.4}",
        td.ingress.len()
    );
    println!(
        "{:>14} | {:>12} | {:>12} | {:>14}",
        "loss", "test MAE", "pred p99", "p99 error"
    );

    // Targets are normalized to [0,1], so the Huber knee sits at 0.1 of
    // the range (the paper's delta=1 is relative to *its* latency units).
    for (name, loss) in [
        ("MAE", RegLoss::Mae),
        ("MSE", RegLoss::Mse),
        ("Huber d=0.1", RegLoss::Huber { delta: 0.1 }),
    ] {
        let mut tc = TrainConfig {
            epochs: scale.epochs() + 1,
            window: 8,
            seed: 5,
            ..TrainConfig::default()
        };
        tc.loss.latency = loss;
        tc.loss.w_latency = 1.0;
        tc.loss.w_drop = 0.0;
        tc.loss.w_ecn = 0.0;
        let (model, _) = InternalModel::train_stacked(&train_set, td.ingress_disc, 16, 1, &tc)?;
        let mut state = model.init_state();
        let mut abs_err = 0.0f64;
        let mut preds = Vec::with_capacity(test_set.len());
        for (f, t) in test_set.features.iter().zip(&test_set.targets) {
            let out = model.model.step(f, &mut state);
            let p = out[OUT_LATENCY].clamp(0.0, 1.0) as f64;
            abs_err += (p - t.latency as f64).abs();
            preds.push(p);
        }
        let mae = abs_err / test_set.len() as f64;
        let p99 = percentile(&preds, 99.0);
        println!(
            "{name:>14} | {mae:>12.5} | {p99:>12.4} | {:>13.1}%",
            (p99 - truth_p99).abs() / truth_p99.max(1e-9) * 100.0
        );
    }
    println!(
        "\npaper shape: Huber attains the best test MAE *and* the smallest\n\
         p99 error; MSE over-reacts to outliers, MAE ignores them."
    );
    Ok(())
}

/// Figures 16 & 17 (Appendix C): impact of the LSTM window size on
/// modeling accuracy and speed. Here the window is the truncation length
/// of stateful BPTT: training carries each stream's state across chunks
/// of `window` packets, and the validation loss scores every held-out
/// packet from carried state, as a running Mimic does.
///
/// Paper: "a window size of only 1 packet performs very poorly … training
/// accuracy is quickly improved with additional packets, but this comes
/// with diminishing returns after the window size reaches the BDP of the
/// network (around 12 packets)"; training and inference latency grow with
/// the window, so "using BDP as the window size strikes a good balance".
pub(crate) fn fig16_17_window(_: &mut Scenarios, scale: Scale) -> RowResult {
    let mut dg = datagen(scale, 31);
    // Window sweeps want a meaty trace; small-scale time is cheap.
    dg.sim.duration_s *= 8.0;
    dg.sim.traffic.inter_cluster_fraction = 0.7;
    let td = generate(&dg);
    let (train_set, val_set) = td.egress.split(0.75);
    println!(
        "trace: {} egress packets (train {} / val {})",
        td.egress.len(),
        train_set.len(),
        val_set.len()
    );
    println!(
        "{:>7} | {:>12} | {:>12} | {:>13} | {:>15}",
        "window", "train loss", "val loss", "train ms/ep", "infer us/pkt"
    );
    for w in [1, 2, 5, 10, 12, 20] {
        let tc = TrainConfig {
            epochs: scale.epochs(),
            window: w,
            seed: 3,
            ..TrainConfig::default()
        };
        let t0 = Instant::now();
        let (model, report) = InternalModel::train_stacked(&train_set, td.egress_disc, 16, 1, &tc)?;
        let train_ms = t0.elapsed().as_secs_f64() * 1e3 / tc.epochs as f64;
        let val = evaluate(&model.model, &val_set, &tc);
        // Inference latency per packet, window re-run style: the paper's
        // engine re-runs the window per packet, so step a fresh state over
        // the last `w` packets (our simulator instead carries hidden state,
        // O(1) in the window — the windowed form reproduces the figure's
        // shape).
        let n = val_set.len().min(1000).max(w);
        let t1 = Instant::now();
        for i in 0..n {
            let mut state = model.model.init_state();
            for t in 0..w {
                let idx = (i + t).saturating_sub(w - 1).min(val_set.len() - 1);
                std::hint::black_box(model.model.step(&val_set.features[idx], &mut state));
            }
        }
        let infer_us = t1.elapsed().as_secs_f64() * 1e6 / n as f64;
        println!(
            "{w:>7} | {:>12.5} | {val:>12.5} | {train_ms:>13.1} | {infer_us:>15.2}",
            report.epoch_losses.last().expect("at least one epoch")
        );
    }
    println!(
        "\npaper shape: losses drop sharply from window=1 and plateau near\n\
         the BDP (~12 packets paper / ~5-10 here); windowed inference cost\n\
         grows with the window. Per-epoch training time grows with the\n\
         window in the paper; here truncated BPTT steps every packet once\n\
         per epoch whatever the window, so it stays flat."
    );
    Ok(())
}

/// Appendix H: model reuse and incremental retraining.
///
/// Paper: "the models … can be safely reused to evaluate the network at
/// any scale … if any factor in the data and steps for generating the
/// models changes, the models should be updated … we would like to
/// explore techniques that can minimize the overhead of model retraining
/// … whether it is possible or how easily to transfer knowledge between
/// models and how MimicNet supports such incremental model updates."
///
/// We measure exactly that: after a workload shift (70% → 90% load),
/// compare (a) reusing the stale model, (b) fine-tuning it briefly on new
/// data, and (c) training from scratch — on held-out loss (every held-out
/// packet scored from carried state, as a running Mimic predicts) and wall
/// time. The row fails unless the fine-tuned model's held-out loss is
/// below both the stale model's and that of a from-scratch model given
/// the same two-epoch budget.
pub(crate) fn apph_retraining(_: &mut Scenarios, scale: Scale) -> RowResult {
    let hidden = pipeline_config(scale, 42).hidden;
    // Old workload data + model.
    let mut dg_old = datagen(scale, 42);
    dg_old.sim.duration_s *= 4.0;
    let old = generate(&dg_old);
    let tc_full = TrainConfig {
        epochs: scale.epochs() + 2,
        window: 8,
        ..TrainConfig::default()
    };
    let (old_model, _) =
        InternalModel::train_stacked(&old.egress, old.egress_disc, hidden, 1, &tc_full)?;

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
    println!(
        "{:>26} | {stale_loss:>13.5} | {:>11}",
        "reuse stale model", "0.00s"
    );

    // (b) fine-tune 2 epochs.
    let mut tuned = old_model.clone();
    let t0 = Instant::now();
    tuned.fine_tune(&new_train, &tc_short)?;
    let tune_wall = t0.elapsed().as_secs_f64();
    let tuned_loss = evaluate(&tuned.model, &new_test, &tc_short);
    println!(
        "{:>26} | {tuned_loss:>13.5} | {tune_wall:>10.2}s",
        "fine-tune (2 epochs)"
    );

    // (c) scratch with the same short budget, and (d) with the full one.
    let scratch = |tc: &TrainConfig, label: &str| -> Result<f64, Box<dyn Error>> {
        let t0 = Instant::now();
        let (model, _) = InternalModel::train_stacked(&new_train, new.egress_disc, hidden, 1, tc)?;
        let wall = t0.elapsed().as_secs_f64();
        let loss = evaluate(&model.model, &new_test, &tc_short);
        println!("{label:>26} | {loss:>13.5} | {wall:>10.2}s");
        Ok(loss)
    };
    let scratch_short_loss = scratch(&tc_short, "scratch (2 epochs)")?;
    scratch(&tc_full, &format!("scratch ({} epochs)", tc_full.epochs))?;

    println!(
        "\nexpected: fine-tuning closes most of the stale-model gap at a\n\
         fraction of the from-scratch budget — the knowledge-transfer\n\
         opportunity Appendix H calls out."
    );
    if tuned_loss >= stale_loss {
        return Err(
            format!("fine-tuned loss {tuned_loss} is not below the stale {stale_loss}").into(),
        );
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
