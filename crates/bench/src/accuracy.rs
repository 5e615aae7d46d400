//! Rows that compare estimates with ground truth: Figures 1, 7–9, 13, 14,
//! 18–20, Appendices A and B, and the design ablations.

use crate::scenarios::ProtocolRun;
use crate::{pipeline_config, q, RowResult, Scale, Scenarios};
use dcn_sim::cdf::wasserstein1;
use dcn_sim::fault::LossWindow;
use dcn_sim::instrument::Metrics;
use dcn_sim::simulator::Simulation;
use dcn_sim::stats::percentile;
use dcn_sim::time::SimTime;
use dcn_sim::topology::FatTree;
use dcn_transport::Protocol;
use mimic_ml::train::TrainConfig;
use mimicnet::compose::{try_compose, OBSERVABLE};
use mimicnet::datagen::{generate, DataGenConfig};
use mimicnet::internal_model::InternalModel;
use mimicnet::metrics::{observed, ObservedSamples};
use mimicnet::mimic::{DecisionMode, TrainWindow, TrainedMimic};
use mimicnet::pipeline::Pipeline;
use mimicnet::MimicFleet;
use std::time::Instant;

/// The flow-level (SimGrid-style) baseline on the seed-42 workload at
/// `clusters`: FCTs of flows touching cluster 0, and per-host throughput
/// in cluster 0.
fn flow_level(sc: &Scenarios, clusters: u32) -> (Vec<f64>, Vec<f64>) {
    let mut cfg = sc.config().base;
    cfg.topo.clusters = clusters;
    let fm = flow_sim::FlowSim::new(cfg).run();
    let topo = FatTree::new(cfg.topo);
    let fct =
        fm.fct_samples(|f| topo.cluster_of(f.src) == Some(0) || topo.cluster_of(f.dst) == Some(0));
    (
        fct,
        fm.throughput_samples(|h| topo.cluster_of(h) == Some(0)),
    )
}

/// Figure 1: accuracy of FCT-distribution predictions vs. network size.
///
/// Paper: "Accuracy for MimicNet's predictions of the FCT distribution for
/// a range of data center sizes … quantified via the Wasserstein distance
/// (W1) to the distribution observed in the original simulation. Lower is
/// better. Also shown are the accuracy of a flow-level simulator (SimGrid)
/// and the accuracy of assuming a small (2-cluster) simulation's results
/// are representative." MimicNet is reported 4.1× more accurate on
/// average; its W1 stays roughly flat while the baselines' W1 grows.
pub(crate) fn fig01_fct_scaling(sc: &mut Scenarios, scale: Scale) -> RowResult {
    // The small-scale hypothesis: 2-cluster results stand in for any size.
    let small = sc.truth(2)?;
    println!(
        "{:>9} | {:>13} | {:>13} | {:>13}",
        "clusters", "small-scale", "flow-level", "MimicNet"
    );
    let (mut sum_small, mut sum_flow, mut sum_mimic, mut n) = (0.0, 0.0, 0.0, 0);
    for clusters in scale.cluster_sweep() {
        let (truth, est) = (sc.truth(clusters)?, sc.estimate(clusters)?);
        let (flow_fct, _) = flow_level(sc, clusters);
        let truth = &truth.samples.fct;
        let w_small = wasserstein1(truth, &small.samples.fct);
        let w_flow = wasserstein1(truth, &flow_fct);
        let w_mimic = wasserstein1(truth, &est.report.samples.fct);
        println!("{clusters:>9} | {w_small:>13.5} | {w_flow:>13.5} | {w_mimic:>13.5}");
        // The 2-cluster point is degenerate for the small-scale baseline
        // (it *is* the ground truth there); the paper's sweep starts at 4.
        if clusters > 2 {
            sum_small += w_small;
            sum_flow += w_flow;
            sum_mimic += w_mimic;
            n += 1;
        }
    }
    println!("{}", "-".repeat(66));
    println!(
        "{:>9} | {:>13.5} | {:>13.5} | {:>13.5}",
        "mean>2",
        sum_small / n as f64,
        sum_flow / n as f64,
        sum_mimic / n as f64
    );
    println!(
        "\npaper shape: MimicNet's W1 stays low/flat; baselines grow with size\n\
         (paper reports MimicNet 4.1x more accurate on average)."
    );
    Ok(())
}

/// One metric's samples of a run.
type Pick = fn(&ObservedSamples) -> &[f64];

fn print_q(label: &str, xs: &[f64], w1: Option<f64>) {
    let v = q(xs);
    let w1 = w1.map(|w| format!("  (W1 {w:.5})")).unwrap_or_default();
    println!(
        "  {label:<14} p10 {:>9.4}  p50 {:>9.4}  p90 {:>9.4}  p99 {:>9.4}{w1}",
        v[0], v[1], v[2], v[3]
    );
}

/// Figure 7: FCT / throughput / RTT distributions — ground truth vs.
/// MimicNet vs. flow-level vs. the small-scale hypothesis, at 2 clusters
/// and at the largest affordable size.
///
/// Paper: at 2 clusters MimicNet's CDFs "adhere closely to the ground
/// truth"; at 128 clusters the W1s are 0.113 (FCT), 7561 (throughput),
/// 0.00158 (RTT), with small-scale and SimGrid errors 311%/457%/70%
/// higher; the p99s of FCT/throughput/RTT land within 1.8%/3.3%/2%.
pub(crate) fn fig07_accuracy_cdfs(sc: &mut Scenarios, scale: Scale) -> RowResult {
    let small = sc.truth(2)?;
    for clusters in [2u32, scale.large()] {
        let truth = sc.truth(clusters)?;
        let est = sc.estimate(clusters)?;
        let (fl_fct, fl_tput) = flow_level(sc, clusters);
        // (label, metric, flow-level samples if it has the metric)
        let metrics: [(&str, Pick, Option<&[f64]>); 3] = [
            ("FCT (s):", |s| &s.fct, Some(&fl_fct)),
            ("Throughput (B/s):", |s| &s.throughput, Some(&fl_tput)),
            (
                "RTT (s): [flow-level cannot produce RTTs — as in the paper]",
                |s| &s.rtt,
                None,
            ),
        ];
        println!("\n================ {clusters} clusters ================");
        for (label, pick, flow) in metrics {
            let t = pick(&truth.samples);
            let w1 = |xs: &[f64]| Some(wasserstein1(t, xs));
            println!("{label}");
            print_q("ground truth", t, None);
            print_q(
                "MimicNet",
                pick(&est.report.samples),
                w1(pick(&est.report.samples)),
            );
            if let Some(fl) = flow {
                print_q("flow-level", fl, w1(fl));
            }
            if clusters != 2 {
                print_q(
                    "small-scale",
                    pick(&small.samples),
                    w1(pick(&small.samples)),
                );
            }
        }
    }
    println!(
        "\npaper shape: MimicNet hugs the truth CDFs at both sizes and keeps\n\
         tail (p99) errors within a few percent; baselines drift with scale."
    );
    Ok(())
}

/// The table of Figures 8 and 9: W1 of one metric to ground truth over
/// the cluster sweep, small-scale hypothesis vs MimicNet, printed `width`
/// wide with `prec` decimals. The 2-cluster point is degenerate
/// (small-scale is the truth there), so the mean skips it.
fn w1_sweep(sc: &mut Scenarios, scale: Scale, pick: Pick, width: usize, prec: usize) -> RowResult {
    let small = sc.truth(2)?;
    println!(
        "{:>9} | {:>width$} | {:>width$}",
        "clusters", "small-scale", "MimicNet"
    );
    let (mut s_sum, mut m_sum, mut n) = (0.0, 0.0, 0);
    for clusters in scale.cluster_sweep() {
        let (truth, est) = (sc.truth(clusters)?, sc.estimate(clusters)?);
        let w_small = wasserstein1(pick(&truth.samples), pick(&small.samples));
        let w_mimic = wasserstein1(pick(&truth.samples), pick(&est.report.samples));
        println!("{clusters:>9} | {w_small:>width$.prec$} | {w_mimic:>width$.prec$}");
        if clusters > 2 {
            s_sum += w_small;
            m_sum += w_mimic;
            n += 1;
        }
    }
    println!("{}", "-".repeat(19 + 2 * width));
    println!(
        "{:>9} | {:>width$.prec$} | {:>width$.prec$}   ({:.0}% lower)",
        "mean>2",
        s_sum / n as f64,
        m_sum / n as f64,
        (1.0 - (m_sum / s_sum)) * 100.0
    );
    Ok(())
}

/// Figure 8: throughput-distribution accuracy vs. network size.
///
/// Paper: W1 of the per-server throughput distribution for small-scale
/// extrapolation vs MimicNet across 4–128 clusters; MimicNet averages 78%
/// lower error and lower variance across workloads.
pub(crate) fn fig08_throughput_scaling(sc: &mut Scenarios, scale: Scale) -> RowResult {
    w1_sweep(sc, scale, |s| &s.throughput, 15, 0)?;
    println!("\npaper shape: MimicNet's W1 is consistently below the small-scale\nhypothesis (78% lower on average in the paper).");
    Ok(())
}

/// Figure 9: RTT-distribution accuracy vs. network size.
///
/// Paper: W1 of per-packet RTT for small-scale extrapolation vs MimicNet;
/// flow-level simulation is excluded because it "is too coarse-grained to
/// provide this metric". MimicNet averages 43% lower error.
pub(crate) fn fig09_rtt_scaling(sc: &mut Scenarios, scale: Scale) -> RowResult {
    w1_sweep(sc, scale, |s| &s.rtt, 13, 6)?;
    println!("\npaper shape: MimicNet below small-scale at every size (43% lower\non average in the paper); flow-level cannot produce RTTs at all.");
    Ok(())
}

/// Figure 13: tuning DCTCP's ECN marking threshold `K` with MimicNet.
///
/// Paper: "the configuration that achieves the lowest 90-pct FCT is
/// different between 2 clusters (K=60) and 32 clusters (K=20). MimicNet
/// provides the same answer as the full simulation for 32 clusters, but it
/// is 12× faster."
pub(crate) fn fig13_dctcp_tuning(_: &mut Scenarios, scale: Scale) -> RowResult {
    let large = scale.large();
    let ks: Vec<u32> = match scale {
        Scale::Quick => vec![5, 10, 20, 40, 60],
        Scale::Full => vec![5, 10, 20, 40, 60, 80],
    };
    println!(
        "{:>4} | {:>14} | {:>14} | {:>14}",
        "K",
        "2 clusters",
        format!("{large} truth"),
        format!("{large} mimic")
    );
    // Best (K, p90) of the 2-cluster, large truth and Mimic columns.
    let mut best = [(0u32, f64::INFINITY); 3];
    let mut wall_truth = 0.0;
    let mut wall_mimic = 0.0;
    for &k in &ks {
        let mut cfg = pipeline_config(scale, 7);
        // The latency/throughput tension K controls only binds under
        // pressure; run hot so the sweep has signal.
        cfg.base.traffic.load = 0.9;
        cfg.base.duration_s = scale.duration_s() * 1.5;
        cfg.protocol = Protocol::Dctcp { k };
        let mut pipe = Pipeline::new(cfg);
        let trained = pipe.try_train()?.0;
        let (small, _, _) = pipe.try_ground_truth(2, None)?;
        let t0 = Instant::now();
        let (truth, _, _) = pipe.try_ground_truth(large, None)?;
        wall_truth += t0.elapsed().as_secs_f64();
        let est = pipe.try_estimate(&trained, large, None)?;
        wall_mimic += est.wall.as_secs_f64();
        let p90 = [&small.fct, &truth.fct, &est.samples.fct].map(|xs| percentile(xs, 90.0));
        println!(
            "{k:>4} | {:>13.4}s | {:>13.4}s | {:>13.4}s",
            p90[0], p90[1], p90[2]
        );
        for (b, p) in best.iter_mut().zip(p90) {
            if p < b.1 {
                *b = (k, p);
            }
        }
    }
    println!("{}", "-".repeat(66));
    println!(
        "best K:  2-cluster -> {}   |   {large}-truth -> {}   |   mimic -> {}",
        best[0].0, best[1].0, best[2].0
    );
    println!(
        "sweep wall time: truth {wall_truth:.2}s vs mimic {wall_mimic:.2}s ({:.1}x faster)",
        wall_truth / wall_mimic.max(1e-9)
    );
    println!(
        "\npaper shape: small-scale prescribes a different (worse) K than the\n\
         large-scale truth; MimicNet recovers the truth's choice at a\n\
         fraction of the cost (12x in the paper)."
    );
    Ok(())
}

/// Protocol names ordered by `key`, best first (`desc` when higher is
/// better).
fn ranking(runs: &[ProtocolRun], key: impl Fn(&ProtocolRun) -> f64, desc: bool) -> Vec<&str> {
    let mut v: Vec<(&str, f64)> = runs.iter().map(|r| (r.protocol.name(), key(r))).collect();
    v.sort_by(|a, b| a.1.total_cmp(&b.1));
    if desc {
        v.reverse();
    }
    v.into_iter().map(|(n, _)| n).collect()
}

/// Figure 14: comparing transport protocols — FCT distributions of Homa,
/// DCTCP, TCP Vegas, and TCP Westwood, ground truth vs. MimicNet.
///
/// Paper: "for all protocols, MimicNet can match the FCT of the
/// full-fidelity simulation closely … the approximated 90-pct and 99-pct
/// tails by MimicNet are within 5% of the ground truth" and the protocol
/// ranking is preserved (Homa best 90-pct FCT, Vegas worst), 12× faster.
pub(crate) fn fig14_protocols(sc: &mut Scenarios, _: Scale) -> RowResult {
    println!(
        "{:>14} | {:>7} | {:>9} {:>9} {:>9} | {:>9}",
        "protocol", "source", "p50", "p90", "p99", "W1"
    );
    let runs = sc.protocols()?;
    for r in runs.iter() {
        let (tq, mq) = (q(&r.truth.fct), q(&r.est.fct));
        let w1 = wasserstein1(&r.truth.fct, &r.est.fct);
        let name = r.protocol.name();
        println!(
            "{name:>14} | {:>7} | {:>9.4} {:>9.4} {:>9.4} |",
            "truth", tq[1], tq[2], tq[3]
        );
        println!(
            "{:>14} | {:>7} | {:>9.4} {:>9.4} {:>9.4} | {w1:>9.5}",
            "", "mimic", mq[1], mq[2], mq[3]
        );
    }
    let p90 = |xs: &[f64]| percentile(xs, 90.0);
    println!(
        "\np90 ranking truth: {:?}",
        ranking(&runs, |r| p90(&r.truth.fct), false)
    );
    println!(
        "p90 ranking mimic: {:?}",
        ranking(&runs, |r| p90(&r.est.fct), false)
    );
    println!(
        "\npaper shape: per-protocol CDFs match closely (tails within ~5%),\n\
         and the relative protocol ordering is preserved."
    );
    Ok(())
}

/// Figures 18 & 19 (Appendix D): protocol comparison on throughput and
/// RTT distributions, ground truth vs. MimicNet.
///
/// Paper: "MimicNet can closely match the throughput and RTT of a real
/// simulation for all protocols … TCP Westwood achieves the best
/// 90-percentile throughput … [but] the highest 90-percentile latency,
/// while DCTCP performs the best — this comparison is also correctly
/// predicted by MimicNet."
pub(crate) fn fig18_19_protocol_tput_rtt(sc: &mut Scenarios, _: Scale) -> RowResult {
    println!(
        "{:>14} | {:>13} {:>13} | {:>11} {:>11} | {:>11} {:>11}",
        "protocol", "tput p90 T", "tput p90 M", "rtt p90 T", "rtt p90 M", "W1 tput", "W1 rtt"
    );
    let runs = sc.protocols()?;
    let p90 = |xs: &[f64]| percentile(xs, 90.0);
    for r in runs.iter() {
        println!(
            "{:>14} | {:>13.0} {:>13.0} | {:>11.4} {:>11.4} | {:>11.0} {:>11.5}",
            r.protocol.name(),
            p90(&r.truth.throughput),
            p90(&r.est.throughput),
            p90(&r.truth.rtt),
            p90(&r.est.rtt),
            wasserstein1(&r.truth.throughput, &r.est.throughput),
            wasserstein1(&r.truth.rtt, &r.est.rtt),
        );
    }
    println!(
        "\nbest->worst p90 throughput, truth: {:?}",
        ranking(&runs, |r| p90(&r.truth.throughput), true)
    );
    println!(
        "best->worst p90 throughput, mimic: {:?}",
        ranking(&runs, |r| p90(&r.est.throughput), true)
    );
    println!(
        "best->worst p90 RTT, truth:        {:?}",
        ranking(&runs, |r| p90(&r.truth.rtt), false)
    );
    println!(
        "best->worst p90 RTT, mimic:        {:?}",
        ranking(&runs, |r| p90(&r.est.rtt), false)
    );
    println!("\npaper shape: distributions match per protocol and the protocol\norderings at p90 are preserved by MimicNet.");
    Ok(())
}

/// Figure 20 (Appendix E): accuracy under heavier network load.
///
/// Paper: at 90% aggregate load and 32 clusters "MimicNet provides high
/// accuracy in approximating the ground truth: the overall W1 score is low
/// at 0.15[4], and the shape is maintained. MimicNet completes the
/// execution 10.4x faster than the full simulation."
pub(crate) fn fig20_heavy_load(_: &mut Scenarios, scale: Scale) -> RowResult {
    let large = scale.large();
    let mut cfg = pipeline_config(scale, 23);
    cfg.base.traffic.load = 0.9;
    let mut pipe = Pipeline::new(cfg);
    let trained = pipe.try_train()?.0;
    let t0 = Instant::now();
    let (truth, _, _) = pipe.try_ground_truth(large, None)?;
    let truth_wall = t0.elapsed().as_secs_f64();
    let est = pipe.try_estimate(&trained, large, None)?;

    println!("{large} clusters at 90% load:");
    println!(
        "{:>14} | {:>9} {:>9} {:>9} {:>9}",
        "source", "p10", "p50", "p90", "p99"
    );
    for (source, xs) in [("ground truth", &truth.fct), ("MimicNet", &est.samples.fct)] {
        let v = q(xs);
        println!(
            "{source:>14} | {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
            v[0], v[1], v[2], v[3]
        );
    }
    let w1 = wasserstein1(&truth.fct, &est.samples.fct);
    let mean = dcn_sim::stats::mean(&truth.fct);
    println!(
        "\nW1(FCT) = {w1:.4}  (truth mean FCT {mean:.4}; normalized {:.2})",
        w1 / mean.max(1e-12)
    );
    println!(
        "wall: truth {truth_wall:.2}s vs mimic {:.2}s ({:.1}x faster)",
        est.wall.as_secs_f64(),
        truth_wall / est.wall.as_secs_f64().max(1e-9)
    );
    println!("\npaper shape: low W1 with the CDF shape maintained, and ~10x speedup.");
    Ok(())
}

/// Appendix B / Figure 15: hybrid clusters for separate ingress/egress
/// model debugging.
///
/// Paper: "in order to tune/debug the ingress model and the egress model
/// separately … two separate testing frameworks" isolate one direction:
/// the tested direction flows through the model while the other direction
/// (and local traffic) uses the full-fidelity network. We reproduce this
/// with direction-restricted Mimics and compare each hybrid's accuracy to
/// the full-fidelity 2-cluster reference and to the both-directions Mimic.
pub(crate) fn appb_hybrid(sc: &mut Scenarios, _: Scale) -> RowResult {
    let truth = sc.truth(2)?;
    let base = sc.base()?;
    println!(
        "{:>14} | {:>11} | {:>13} | {:>11}",
        "variant", "W1(FCT)", "W1(tput)", "W1(RTT)"
    );
    for (name, ingress, egress) in [
        ("ingress-only", true, false),
        ("egress-only", false, true),
        ("both (mimic)", true, true),
    ] {
        let mut cfg = base.pipe.cfg.base;
        cfg.topo.clusters = 2;
        let mut sim = Simulation::with_transport(cfg, base.pipe.cfg.protocol.factory());
        let fleet = MimicFleet::new(base.trained.clone(), cfg.topo, 2, &[(1, 17)]);
        sim.set_cluster_model_dirs(Box::new(fleet), ingress, egress);
        let obs = observed(&sim.run(), &FatTree::new(cfg.topo), OBSERVABLE);
        let t = &truth.samples;
        println!(
            "{name:>14} | {:>11.5} | {:>13.0} | {:>11.6}",
            wasserstein1(&t.fct, &obs.fct),
            wasserstein1(&t.throughput, &obs.throughput),
            wasserstein1(&t.rtt, &obs.rtt),
        );
    }
    println!(
        "\nuse: when the combined Mimic misbehaves, the direction whose\n\
         hybrid W1 is worse is the model to retune (Appendix B's purpose)."
    );
    Ok(())
}

/// Appendix A stress test: violating the failure-free FatTree assumption.
///
/// Paper §4.2 restricts MimicNet to "Failure-free FatTrees"; Appendix A
/// speculates that failures "could likely be modelled" but leaves it to
/// future work. This experiment quantifies the cost of the assumption and
/// checks the drift signal built on top of it:
///
/// 1. A Mimic trained on a healthy network is composed against ground
///    truths running the *same* [`LossWindow`] (gray loss across the
///    fabric) at increasing severity.
/// 2. Each Mimic's drift monitor scores its live ingress features against
///    the training envelope. A healthy shakedown run gives each cluster's
///    drift at no loss (even a healthy large composition sits slightly off
///    the small-scale training distribution); the reported *excess* drift
///    over it must be zero when healthy, never fall as the loss rises, and
///    be positive at the highest loss. The row fails when that shape
///    breaks.
///
/// Drift is what the accuracy budget acts on (`estimate --adaptive`); this
/// experiment checks the signal, not a response to it. The composition is
/// kept modest (every Mimic must see enough boundary traffic for its
/// monitor to report) — the point here is the drift signal, not scale.
pub(crate) fn appa_failures(sc: &mut Scenarios, scale: Scale) -> RowResult {
    let n = match scale {
        Scale::Quick => 4,
        Scale::Full => 8,
    };
    // Healthy shakedown: per-cluster baseline drift (the scale shift).
    let (healthy_truth, healthy) = (sc.truth(n)?, sc.estimate(n)?);
    let baseline: Vec<f64> = healthy
        .report
        .metrics
        .cluster_drift
        .iter()
        .map(|d| d.unwrap_or(0.0))
        .collect();
    let base = sc.base()?;
    let duration = base.pipe.cfg.base.duration_s;

    println!(
        "{:>8} | {:>11} | {:>12} | {:>11} | {:>13}",
        "loss", "truth drops", "drift excess", "W1(FCT)", "norm. W1(FCT)"
    );
    let mut excesses = Vec::new();
    for loss in [0.0, 0.01, 0.05, 0.1] {
        // Gray loss across the whole fabric for the middle 80% of the run.
        let window = LossWindow::new(
            SimTime::from_secs_f64(0.1 * duration),
            SimTime::from_secs_f64(0.9 * duration),
            loss,
        )?;
        let (truth, drops, drift, fct) = if loss > 0.0 {
            let (truth, tm, _) = base.pipe.try_ground_truth(n, Some(&window))?;
            let est = base.pipe.try_estimate(&base.trained, n, Some(&window))?;
            (
                truth.fct,
                tm.fault_drops,
                est.metrics.cluster_drift,
                est.samples.fct,
            )
        } else {
            let fct = healthy.report.samples.fct.clone();
            let drift = healthy.report.metrics.cluster_drift.clone();
            (
                healthy_truth.samples.fct.clone(),
                healthy_truth.fault_drops,
                drift,
                fct,
            )
        };
        // Excess drift of each Mimic cluster over the healthy baseline.
        let worst = drift
            .iter()
            .enumerate()
            .map(|(c, d)| (d.unwrap_or(0.0) - baseline.get(c).copied().unwrap_or(0.0)).max(0.0))
            .fold(0.0f64, f64::max);
        let w1 = wasserstein1(&truth, &fct);
        let mean = dcn_sim::stats::mean(&truth).max(1e-12);
        println!(
            "{loss:>8.3} | {drops:>11} | {worst:>12.4} | {w1:>11.5} | {:>13.3}",
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

/// Train one ablation variant's bundle on `dg`: per-direction models, or
/// one `unified` model for both directions fit on the concatenated traces
/// (the alternative §5.5 rejects).
fn ablation_bundle(
    dg: &DataGenConfig,
    tc: &TrainConfig,
    hidden: usize,
    unified: bool,
) -> TrainedMimic {
    let td = generate(dg);
    let train = |data, disc| {
        InternalModel::train_stacked(data, disc, hidden, 1, tc)
            .expect("training data")
            .0
    };
    let (ingress, egress) = if unified {
        let mut combined = td.ingress.clone();
        for (f, t) in td.egress.features.iter().zip(&td.egress.targets) {
            combined.push(f.clone(), *t);
        }
        // Shared latency range approximation.
        let m = train(&combined, td.ingress_disc);
        (m.clone(), m)
    } else {
        (
            train(&td.ingress, td.ingress_disc),
            train(&td.egress, td.egress_disc),
        )
    };
    TrainedMimic {
        ingress,
        egress,
        feature_cfg: td.feature_cfg,
        envelope: mimicnet::drift::FeatureEnvelope::fit(&td.ingress.features),
        feeder: td.feeder,
        window: TrainWindow(tc.window),
    }
}

/// Ablations of MimicNet's design choices (DESIGN.md §3).
///
/// The paper motivates several choices without always isolating them:
/// the congestion-state feature augmentation (§5.5), the ingress/egress
/// decomposition (§5.5), and generative (sampled) drop decisions
/// (Figure 5 reads off realized rates). This row measures each variant's
/// end-to-end W1(FCT)/W1(RTT) against ground truth.
pub(crate) fn ablation_mimic(sc: &mut Scenarios, scale: Scale) -> RowResult {
    let n = scale.large();
    let cfg = sc.config();
    let truth = sc.truth(n)?;
    let mut dg_sim = cfg.base;
    dg_sim.duration_s *= 4.0;
    let base_dg = DataGenConfig {
        sim: dg_sim,
        protocol: cfg.protocol,
        ..DataGenConfig::default()
    };
    let mut sim_cfg = cfg.base;
    sim_cfg.topo.clusters = n;
    let topo = FatTree::new(sim_cfg.topo);
    let print = |name: &str, m: Metrics| {
        let (t, obs) = (&truth.samples, observed(&m, &topo, 0));
        println!(
            "{name:>26} | {:>11.5} | {:>11.6} | {:>13.0}",
            wasserstein1(&t.fct, &obs.fct),
            wasserstein1(&t.rtt, &obs.rtt),
            wasserstein1(&t.throughput, &obs.throughput),
        );
    };

    println!(
        "{:>26} | {:>11} | {:>11} | {:>13}",
        "variant", "W1(FCT)", "W1(RTT)", "W1(tput)"
    );
    let no_congestion = DataGenConfig {
        congestion_feature: false,
        ..base_dg
    };
    let variants = [
        ("full (paper design)", base_dg, false, DecisionMode::Sample),
        (
            "no congestion feature",
            no_congestion,
            false,
            DecisionMode::Sample,
        ),
        (
            "unified direction model",
            base_dg,
            true,
            DecisionMode::Sample,
        ),
        ("threshold drops", base_dg, false, DecisionMode::Threshold),
    ];
    let mut full = None;
    for (name, dg, unified, mode) in variants {
        let trained = ablation_bundle(&dg, &cfg.train, cfg.hidden, unified);
        // Compose manually so the decision mode can be set.
        let mut sim = Simulation::with_transport(sim_cfg, cfg.protocol.factory());
        let seeds: Vec<(u32, u64)> = (1..n)
            .map(|c| (c, sim_cfg.seed ^ (0xAB1A_0000 + c as u64)))
            .collect();
        let fleet = MimicFleet::new(trained.clone(), sim_cfg.topo, n, &seeds).with_mode(mode);
        sim.set_cluster_model(Box::new(fleet));
        print(name, sim.run());
        full.get_or_insert(trained);
    }
    // Anchor: the full design's bundle through `try_compose`, the default
    // composition path, whose fleet seeds differ from the ones above.
    let full = full.expect("the full design is the first variant");
    print(
        "(try_compose default)",
        try_compose(cfg.base, n, cfg.protocol, &full)?.run(),
    );
    println!(
        "\nexpectation (paper §5.5; not asserted, and one seed cannot settle it):\n\
         the full design is at least as accurate as each ablation (congestion\n\
         features help tails; per-direction models beat unified; sampled drops\n\
         track realized loss rates better than thresholding). Compare over a\n\
         seed sweep before reading a ranking into the rows above."
    );
    Ok(())
}
