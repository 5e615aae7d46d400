//! Appendix A stress test: violating the failure-free FatTree assumption.
//!
//! Paper §4.2 restricts MimicNet to "Failure-free FatTrees"; Appendix A
//! speculates that failures "could likely be modelled" but leaves it to
//! future work. This experiment quantifies the cost of the assumption and
//! checks the drift signal built on top of it:
//!
//! 1. A Mimic trained on a healthy network is composed against ground
//!    truths running the *same* [`LossWindow`] (gray loss across the
//!    fabric) at increasing severity.
//! 2. Each Mimic's drift monitor scores its live ingress features against
//!    the training envelope. A healthy shakedown run gives each cluster's
//!    drift at no loss (even a healthy large composition sits slightly off
//!    the small-scale training distribution); the reported *excess* drift
//!    over it must be zero when healthy, never fall as the loss rises, and
//!    be positive at the highest loss. The binary exits non-zero when that
//!    shape breaks.
//!
//! Drift is what the accuracy budget acts on (`estimate --adaptive`); this
//! experiment checks the signal, not a response to it.
//!
//! The composition is kept modest (every Mimic must see enough boundary
//! traffic for its monitor to report) — the point here is the drift
//! signal, not scale.

use dcn_sim::cdf::wasserstein1;
use dcn_sim::fault::LossWindow;
use dcn_sim::time::SimTime;
use mimicnet::pipeline::Pipeline;
use mimicnet_bench::{header, pipeline_config, Scale};
use std::error::Error;

/// Excess drift of each Mimic cluster over the healthy baseline.
fn excess(drift: &[Option<f64>], baseline: &[f64]) -> Vec<f64> {
    drift
        .iter()
        .enumerate()
        .map(|(c, d)| (d.unwrap_or(0.0) - baseline.get(c).copied().unwrap_or(0.0)).max(0.0))
        .collect()
}

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    let n = match scale {
        Scale::Quick => 4,
        Scale::Full => 8,
    };
    header(
        "Appendix A stress",
        "failure-free-trained Mimics vs fabric loss windows: drift and accuracy",
    );
    let cfg = pipeline_config(scale, 42);
    let duration = cfg.base.duration_s;
    let mut pipe = Pipeline::new(cfg);
    let trained = pipe.try_train()?.0; // trained on a healthy network

    // Gray loss across the whole fabric for the middle 80% of the run.
    let window_at = |loss: f64| {
        LossWindow::new(
            SimTime::from_secs_f64(0.1 * duration),
            SimTime::from_secs_f64(0.9 * duration),
            loss,
        )
    };
    let losses = [0.0, 0.01, 0.05, 0.1];

    // Healthy shakedown: per-cluster baseline drift (the scale shift).
    let probe = pipe.try_estimate(&trained, n, None)?;
    let baseline: Vec<f64> = probe
        .metrics
        .cluster_drift
        .iter()
        .map(|d| d.unwrap_or(0.0))
        .collect();

    println!(
        "{:>8} | {:>11} | {:>12} | {:>11} | {:>13}",
        "loss", "truth drops", "drift excess", "W1(FCT)", "norm. W1(FCT)"
    );
    let mut excesses = Vec::new();
    for loss in losses {
        let window = window_at(loss)?;
        let lossy = (loss > 0.0).then_some(&window);
        let (truth, tm, _) = pipe.try_ground_truth(n, lossy)?;
        let est = pipe.try_estimate(&trained, n, lossy)?;
        let e = excess(&est.metrics.cluster_drift, &baseline);
        let worst = e.iter().cloned().fold(0.0f64, f64::max);
        let w1 = wasserstein1(&truth.fct, &est.samples.fct);
        let mean = dcn_sim::stats::mean(&truth.fct).max(1e-12);
        println!(
            "{loss:>8.3} | {:>11} | {worst:>12.4} | {w1:>11.5} | {:>13.3}",
            tm.fault_drops,
            w1 / mean
        );
        excesses.push(worst);
    }

    println!(
        "\nexpected: zero excess drift when healthy, excess drift never falling\n\
         as the injected loss rises, and positive at the highest loss (the\n\
         quantitative form of the paper's failure-free restriction)."
    );
    let healthy = excesses[0];
    let highest = excesses[excesses.len() - 1];
    if healthy != 0.0 {
        return Err(format!("excess drift at loss 0 is {healthy}, not 0").into());
    }
    if let Some(w) = excesses.windows(2).find(|w| w[1] < w[0]) {
        let (from, to) = (w[0], w[1]);
        return Err(format!("excess drift fell from {from} to {to} as the loss rose").into());
    }
    if highest <= 0.0 {
        return Err("excess drift at the highest loss is not positive".into());
    }
    println!("shape: reproduced");
    Ok(())
}
