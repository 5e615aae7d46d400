//! Appendix A stress test: violating the failure-free FatTree assumption.
//!
//! Paper §4.2 restricts MimicNet to "Failure-free FatTrees"; Appendix A
//! speculates that failures "could likely be modelled" but leaves it to
//! future work. This experiment quantifies the cost of the assumption and
//! exercises the robustness layer built on top of it:
//!
//! 1. A Mimic trained on a healthy network is composed against ground
//!    truths running the *same* seeded [`FaultPlan`] (gray loss across the
//!    fabric) at increasing severity.
//! 2. Each Mimic's drift monitor scores its live ingress features against
//!    the training envelope. A healthy shakedown run calibrates the
//!    per-cluster baseline (even a healthy large composition sits slightly
//!    off the small-scale training distribution); the reported *excess*
//!    drift should be zero when healthy and grow with the injected loss.
//! 3. At the highest severity, a [`DegradationPolicy`] carrying that
//!    baseline swaps drifted clusters back to packet-level simulation; the
//!    degraded estimate should recover most of the accuracy gap.
//!
//! The composition is kept modest (every Mimic must see enough boundary
//! traffic for its monitor to report) — the point here is robustness
//! behaviour, not scale.

use dcn_sim::cdf::wasserstein1;
use dcn_sim::fault::FaultPlan;
use dcn_sim::time::SimTime;
use mimicnet::degrade::DegradationPolicy;
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
        "failure-free-trained Mimics vs seeded fault plans: drift + degradation",
    );
    let cfg = pipeline_config(scale, 42);
    let duration = cfg.base.duration_s;
    let mut pipe = Pipeline::new(cfg);
    let trained = pipe.try_train()?.0; // trained on a healthy network

    // Gray loss across the whole fabric for the middle 80% of the run.
    let plan_at = |loss: f64| {
        FaultPlan::new(7).gray_loss_all(
            SimTime::from_secs_f64(0.1 * duration),
            SimTime::from_secs_f64(0.9 * duration),
            loss,
            true,
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
    let mut last = None;
    for loss in losses {
        let plan = plan_at(loss);
        let faults = (loss > 0.0).then_some(&plan);
        let (truth, tm, _) = pipe.try_ground_truth(n, faults)?;
        let est = pipe.try_estimate(&trained, n, faults)?;
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
        last = Some((plan, truth, w1, mean));
    }

    // Degradation at the highest severity. Per-cluster fallback triggers
    // at a fifth of the worst observed excess; on top of that, excess at
    // half the worst level on *any* cluster is treated as a network-wide
    // event (which a fabric-wide gray failure is) and reverts the whole
    // composition to packet level — including clusters whose monitors saw
    // too little traffic to report.
    let (plan, truth, w1_mimic, mean) = last.expect("at least one loss level");
    let worst_excess = excesses.iter().cloned().fold(0.0f64, f64::max).max(1e-9);
    let policy = DegradationPolicy {
        annotate_above: 0.05 * worst_excess,
        widen_above: 0.10 * worst_excess,
        fallback_above: 0.20 * worst_excess,
        max_fallbacks: n as usize,
        global_fallback_above: 0.50 * worst_excess,
        baseline,
    };
    let degraded = pipe
        .estimate_with_policy(&trained, n, Some(&plan), &policy)
        .expect("degraded estimate runs");
    let decision = degraded.degradation.as_ref().expect("policy evaluated");
    let w1_deg = wasserstein1(&truth.fct, &degraded.samples.fct);
    let recovered = if w1_mimic > 1e-12 {
        (w1_mimic - w1_deg) / w1_mimic
    } else {
        1.0
    };
    let fell_back = decision
        .fallback_clusters()
        .iter()
        .filter(|&&c| c != mimicnet::compose::OBSERVABLE)
        .count();
    println!(
        "\ndegradation at loss {:.3}: {} of {} Mimic clusters fell back",
        losses[losses.len() - 1],
        fell_back,
        n - 1
    );
    println!(
        "  W1(FCT) {w1_mimic:.5} -> {w1_deg:.5} (normalized {:.3} -> {:.3}), gap recovered: {:.0}%",
        w1_mimic / mean,
        w1_deg / mean,
        100.0 * recovered
    );
    println!(
        "  uncertainty factor: {:.2}",
        degraded.uncertainty_factor()
    );
    println!(
        "\nexpected: zero excess drift and near-baseline accuracy when healthy;\n\
         excess drift growing with injected loss (the quantitative form of the\n\
         paper's failure-free restriction); fallback recovering at least half\n\
         of the accuracy gap at the highest severity."
    );
    Ok(())
}
