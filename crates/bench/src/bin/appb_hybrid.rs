//! Appendix B / Figure 15: hybrid clusters for separate ingress/egress
//! model debugging.
//!
//! Paper: "in order to tune/debug the ingress model and the egress model
//! separately … two separate testing frameworks" isolate one direction:
//! the tested direction flows through the model while the other direction
//! (and local traffic) uses the full-fidelity network. We reproduce this
//! with direction-restricted Mimics and compare each hybrid's accuracy to
//! the full-fidelity 2-cluster reference and to the both-directions Mimic.

use dcn_sim::cdf::wasserstein1;
use dcn_sim::simulator::Simulation;
use dcn_sim::topology::FatTree;
use mimicnet_bench::{header, pipeline_config, Scale};
use mimicnet::compose::OBSERVABLE;
use mimicnet::metrics::observed;
use mimicnet::pipeline::Pipeline;
use mimicnet::MimicFleet;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let scale = Scale::from_env();
    header(
        "Appendix B (Fig. 15)",
        "direction-isolated hybrid clusters: ingress-only vs egress-only vs both",
    );
    let mut pipe = Pipeline::new(pipeline_config(scale, 42));
    let trained = pipe.try_train()?.0;
    let (truth, _, _) = pipe.try_ground_truth(2, None)?;

    println!(
        "{:>14} | {:>11} | {:>13} | {:>11}",
        "variant", "W1(FCT)", "W1(tput)", "W1(RTT)"
    );
    for (name, ingress, egress) in [
        ("ingress-only", true, false),
        ("egress-only", false, true),
        ("both (mimic)", true, true),
    ] {
        let mut cfg = pipe.cfg.base;
        cfg.topo.clusters = 2;
        let mut sim = Simulation::with_transport(cfg, pipe.cfg.protocol.factory());
        let fleet = MimicFleet::new(trained.clone(), cfg.topo, 2, &[(1, 17)]);
        sim.set_cluster_model_dirs(Box::new(fleet), ingress, egress);
        let m = sim.run();
        let topo = FatTree::new(cfg.topo);
        let obs = observed(&m, &topo, OBSERVABLE);
        println!(
            "{name:>14} | {:>11.5} | {:>13.0} | {:>11.6}",
            wasserstein1(&truth.fct, &obs.fct),
            wasserstein1(&truth.throughput, &obs.throughput),
            wasserstein1(&truth.rtt, &obs.rtt),
        );
    }
    println!(
        "\nuse: when the combined Mimic misbehaves, the direction whose\n\
         hybrid W1 is worse is the model to retune (Appendix B's purpose)."
    );
    Ok(())
}
