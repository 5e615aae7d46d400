//! Figures 18 & 19 (Appendix D): protocol comparison on throughput and
//! RTT distributions, ground truth vs. MimicNet.
//!
//! Paper: "MimicNet can closely match the throughput and RTT of a real
//! simulation for all protocols … TCP Westwood achieves the best
//! 90-percentile throughput … [but] the highest 90-percentile latency,
//! while DCTCP performs the best — this comparison is also correctly
//! predicted by MimicNet."

use dcn_sim::cdf::wasserstein1;
use dcn_sim::stats::percentile;
use dcn_transport::Protocol;
use mimicnet_bench::{header, pipeline_config, Scale};
use mimicnet::pipeline::Pipeline;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    let large = scale.large();
    header(
        "Figures 18/19",
        "per-protocol throughput and RTT: ground truth vs MimicNet",
    );
    println!(
        "{:>14} | {:>13} {:>13} | {:>11} {:>11} | {:>11} {:>11}",
        "protocol", "tput p90 T", "tput p90 M", "rtt p90 T", "rtt p90 M", "W1 tput", "W1 rtt"
    );
    let mut tput_rank_t: Vec<(String, f64)> = Vec::new();
    let mut tput_rank_m: Vec<(String, f64)> = Vec::new();
    let mut rtt_rank_t: Vec<(String, f64)> = Vec::new();
    let mut rtt_rank_m: Vec<(String, f64)> = Vec::new();
    for p in [
        Protocol::Homa,
        Protocol::Dctcp { k: 20 },
        Protocol::Vegas,
        Protocol::Westwood,
    ] {
        let mut cfg = pipeline_config(scale, 11);
        cfg.protocol = p;
        let mut pipe = Pipeline::new(cfg);
        let trained = pipe.try_train()?.0;
        let (truth, _, _) = pipe.try_ground_truth(large, None)?;
        let est = pipe.try_estimate(&trained, large, None)?;
        let t_t90 = percentile(&truth.throughput, 90.0);
        let m_t90 = percentile(&est.samples.throughput, 90.0);
        let t_r90 = percentile(&truth.rtt, 90.0);
        let m_r90 = percentile(&est.samples.rtt, 90.0);
        println!(
            "{:>14} | {t_t90:>13.0} {m_t90:>13.0} | {t_r90:>11.4} {m_r90:>11.4} | {:>11.0} {:>11.5}",
            p.name(),
            wasserstein1(&truth.throughput, &est.samples.throughput),
            wasserstein1(&truth.rtt, &est.samples.rtt),
        );
        tput_rank_t.push((p.name().to_string(), t_t90));
        tput_rank_m.push((p.name().to_string(), m_t90));
        rtt_rank_t.push((p.name().to_string(), t_r90));
        rtt_rank_m.push((p.name().to_string(), m_r90));
    }
    let order = |mut v: Vec<(String, f64)>, desc: bool| {
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        if desc {
            v.reverse();
        }
        v.into_iter().map(|(n, _)| n).collect::<Vec<_>>()
    };
    println!("\nbest->worst p90 throughput, truth: {:?}", order(tput_rank_t, true));
    println!("best->worst p90 throughput, mimic: {:?}", order(tput_rank_m, true));
    println!("best->worst p90 RTT, truth:        {:?}", order(rtt_rank_t, false));
    println!("best->worst p90 RTT, mimic:        {:?}", order(rtt_rank_m, false));
    println!("\npaper shape: distributions match per protocol and the protocol\norderings at p90 are preserved by MimicNet.");
    Ok(())
}
