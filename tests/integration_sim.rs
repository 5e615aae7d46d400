//! Integration tests of the packet-level simulator as a whole system:
//! conservation laws, load tracking, congestion behaviour, and the
//! boundary instrumentation MimicNet depends on.

use dcn_sim::config::{FlowSizeDist, SimConfig};
use dcn_sim::fault::FaultPlan;
use dcn_sim::instrument::BoundaryPhase;
use dcn_sim::mimic::BoundaryDir;
use dcn_sim::simulator::Simulation;
use dcn_sim::stats::mean;
use dcn_sim::time::{SimDuration, SimTime};
use dcn_sim::topology::FatTree;
use dcn_transport::Protocol;

fn run(cfg: SimConfig, p: Protocol) -> dcn_sim::instrument::Metrics {
    let mut c = cfg;
    c.queue = p.queue_setup(c.queue);
    Simulation::with_transport(c, p.factory()).run()
}

#[test]
fn offered_load_is_delivered_at_moderate_load() {
    let mut cfg = SimConfig::small_scale();
    cfg.duration_s = 2.0;
    cfg.seed = 3;
    cfg.traffic.load = 0.5;
    // Fixed flow sizes: the web-search tail makes 2-second byte counts far
    // too noisy for a utilization assertion (a single elephant dominates).
    cfg.traffic.size = FlowSizeDist::Fixed { bytes: 40_000 };
    let m = run(cfg, Protocol::NewReno);
    // Delivered goodput should be a large fraction of the offered load
    // (0.5 * 10 Mbps * 8 hosts / 8 bits = 5 MB/s aggregate).
    let offered_bps = 0.5 * 10e6 * 8.0;
    let delivered_bps = m.total_delivered_bytes() as f64 * 8.0 / 2.0;
    assert!(
        delivered_bps > offered_bps * 0.5,
        "delivered {delivered_bps} of offered {offered_bps}"
    );
    assert!(
        delivered_bps < offered_bps * 1.2,
        "delivered more than offered?!"
    );
}

#[test]
fn fct_grows_with_load() {
    let fct_at = |load: f64| {
        let mut cfg = SimConfig::small_scale();
        cfg.duration_s = 1.5;
        cfg.seed = 4;
        cfg.traffic.load = load;
        let m = run(cfg, Protocol::NewReno);
        mean(&m.fct_samples(|_| true))
    };
    let light = fct_at(0.2);
    let heavy = fct_at(0.9);
    assert!(
        heavy > light,
        "mean FCT should grow with load: {light} -> {heavy}"
    );
}

#[test]
fn rtt_inflates_under_congestion() {
    let rtt_p99_at = |load: f64| {
        let mut cfg = SimConfig::small_scale();
        cfg.duration_s = 1.0;
        cfg.seed = 5;
        cfg.traffic.load = load;
        let m = run(cfg, Protocol::NewReno);
        dcn_sim::stats::percentile(&m.rtt_samples(|_| true), 99.0)
    };
    assert!(rtt_p99_at(0.9) > rtt_p99_at(0.1));
}

#[test]
fn larger_network_same_per_host_behaviour() {
    // The paper's scalability restriction: per-host workload is size-
    // independent, so per-host delivered bytes should be roughly stable
    // as clusters are added.
    let per_host = |clusters: u32| {
        let mut cfg = SimConfig::with_clusters(clusters);
        cfg.duration_s = 1.0;
        cfg.seed = 6;
        let m = run(cfg, Protocol::NewReno);
        m.total_delivered_bytes() as f64 / (8 * clusters) as f64
    };
    let at2 = per_host(2);
    let at6 = per_host(6);
    assert!(
        (at2 - at6).abs() / at2 < 0.3,
        "per-host bytes diverged: {at2} vs {at6}"
    );
}

#[test]
fn boundary_trace_has_all_four_record_types() {
    let mut cfg = SimConfig::small_scale();
    cfg.duration_s = 0.5;
    cfg.seed = 7;
    cfg.traffic.inter_cluster_fraction = 0.8;
    let mut sim = Simulation::new(cfg);
    sim.trace_cluster(1);
    let m = sim.run();
    let count = |d: BoundaryDir, p: BoundaryPhase| {
        m.boundary.iter().filter(|r| r.dir == d && r.phase == p).count()
    };
    assert!(count(BoundaryDir::Ingress, BoundaryPhase::Enter) > 0);
    assert!(count(BoundaryDir::Ingress, BoundaryPhase::Exit) > 0);
    assert!(count(BoundaryDir::Egress, BoundaryPhase::Enter) > 0);
    assert!(count(BoundaryDir::Egress, BoundaryPhase::Exit) > 0);
    // Exits never exceed enters.
    assert!(
        count(BoundaryDir::Ingress, BoundaryPhase::Exit)
            <= count(BoundaryDir::Ingress, BoundaryPhase::Enter)
    );
}

#[test]
fn fan_in_congestion_drops_at_small_buffers() {
    // The paper's fan-in assumption: drive many senders into one rack and
    // confirm losses materialize (and are recovered from).
    let mut cfg = SimConfig::small_scale();
    cfg.duration_s = 1.0;
    cfg.seed = 8;
    cfg.queue.capacity_bytes = 10_000;
    cfg.traffic.load = 1.2;
    cfg.traffic.size = FlowSizeDist::Fixed { bytes: 100_000 };
    let m = run(cfg, Protocol::NewReno);
    assert!(m.queue_drops > 0);
    assert!(m.flows_completed() > 0);
}

#[test]
fn events_scale_superlinearly_with_clusters() {
    // Inter-cluster paths lengthen and multiply: total events grow faster
    // than linearly in cluster count for a fixed per-host workload.
    let events = |clusters: u32| {
        let mut cfg = SimConfig::with_clusters(clusters);
        cfg.duration_s = 0.4;
        cfg.seed = 9;
        run(cfg, Protocol::NewReno).events_processed as f64
    };
    let e2 = events(2);
    let e8 = events(8);
    assert!(
        e8 > e2 * 3.5,
        "events: 2 clusters {e2}, 8 clusters {e8} — expected ≳4x"
    );
}

#[test]
fn ttl_suffices_for_all_paths() {
    // No packet should ever die of TTL in a healthy FatTree.
    let mut cfg = SimConfig::with_clusters(4);
    cfg.duration_s = 0.5;
    cfg.seed = 10;
    let topo = FatTree::new(cfg.topo);
    let m = run(cfg, Protocol::NewReno);
    // Sanity: network actually spanned all tiers.
    assert!(topo.params.num_cores() > 0);
    // Every completed flow implies full traversal; TTL drops would stall
    // completions and show as huge incompletion rates.
    let completion = m.flows_completed() as f64 / m.flows_started().max(1) as f64;
    assert!(completion > 0.5, "completion rate {completion}");
}

/// FNV-64 of the canonical metrics with the event count zeroed: the
/// trajectory alone, independent of how many events produced it.
fn trajectory_digest(m: &mut dcn_sim::instrument::Metrics) -> u64 {
    let events = std::mem::take(&mut m.events_processed);
    let digest = dcn_obs::digest::fnv64(&m.canonical_bytes());
    m.events_processed = events;
    digest
}

#[test]
fn truth_smoke_run_pops_in_recorded_order() {
    // The smoke shape of the benchmark's `truth-64` workload: the
    // full-fidelity engine at 8 clusters for one simulated second under
    // NewReno. Any change to the order in which the event queue pops
    // simultaneous (or near-simultaneous) events moves the trajectory and
    // with it the trajectory digest. The event count and the full digest
    // (which folds the count) move whenever the engine schedules more or
    // fewer events for the same trajectory.
    let mut cfg = SimConfig::small_scale();
    cfg.duration_s = 1.0;
    cfg.seed = 1;
    let mut m = mimicnet::compose::ground_truth(cfg, 8, Protocol::NewReno).run();
    let digest = dcn_obs::digest::fnv64(&m.canonical_bytes());
    let trajectory = trajectory_digest(&mut m);
    assert_eq!(trajectory, 0x9f90_f715_0629_ab06, "trajectory {trajectory:#018x}");
    assert_eq!(m.events_processed, 92_211);
    assert_eq!(digest, 0x837f_f3a6_c16a_418c, "digest {digest:#018x}");
}

/// One fault plan exercising every link-health change the engine applies:
/// random fabric flaps, a half-rate link, network-wide gray loss and a
/// downed host link.
fn mixed_faults(topo: &FatTree) -> FaultPlan {
    let at = SimTime::from_secs_f64;
    FaultPlan::new(5)
        .random_flaps(SimDuration::from_millis(300), SimDuration::from_millis(30))
        .degraded_rate(topo.tor_agg_link(1, 0, 0), at(0.2), at(0.6), 0.5)
        .gray_loss_all(at(0.3), at(0.5), 0.01, false)
        .link_down(topo.host_link(topo.host(2, 0, 0)), at(0.4), at(0.45))
}

#[test]
fn trajectories_are_locked_per_protocol_and_scenario() {
    // Every protocol under a clean network, a lossy one and the mixed
    // fault plan, at 8 clusters for one simulated second. The trajectory
    // digest must not move unless the model's behaviour is meant to
    // change; the event count records how much work the engine did.
    #[derive(Clone, Copy, Debug)]
    enum Scenario {
        Plain,
        Lossy,
        Faults,
    }
    let cases: [(Protocol, Scenario, u64, u64); 12] = [
        (Protocol::NewReno, Scenario::Plain, 93_821, 0x1f99_6850_3e0e_6b08),
        (Protocol::NewReno, Scenario::Lossy, 93_798, 0xd906_abc7_1bec_5ab1),
        (Protocol::NewReno, Scenario::Faults, 86_204, 0x8d7a_16ba_fd27_9854),
        (Protocol::Dctcp { k: 20 }, Scenario::Plain, 89_867, 0x81ba_9905_5e05_5e3e),
        (Protocol::Dctcp { k: 20 }, Scenario::Lossy, 89_869, 0x5250_85c4_f0f9_6794),
        (Protocol::Dctcp { k: 20 }, Scenario::Faults, 83_897, 0xba78_c8d6_4d20_c82f),
        (Protocol::Vegas, Scenario::Plain, 92_735, 0x4812_67ce_d96d_d81c),
        (Protocol::Vegas, Scenario::Lossy, 91_662, 0x4d35_fefd_e5b6_16f6),
        (Protocol::Vegas, Scenario::Faults, 81_271, 0x9d4d_96ec_6b5a_81f0),
        (Protocol::Homa, Scenario::Plain, 97_572, 0x4104_f438_b6df_5b82),
        (Protocol::Homa, Scenario::Lossy, 97_457, 0x7553_5432_1011_de90),
        (Protocol::Homa, Scenario::Faults, 98_506, 0x2ebf_d758_6a0d_815a),
    ];
    let mut failures = Vec::new();
    for (protocol, scenario, events, trajectory) in cases {
        let mut cfg = SimConfig::small_scale();
        cfg.duration_s = 1.0;
        cfg.seed = 3;
        if let Scenario::Lossy = scenario {
            cfg.link.loss_prob = 0.001;
        }
        let mut sim = mimicnet::compose::ground_truth(cfg, 8, protocol);
        if let Scenario::Faults = scenario {
            let plan = mixed_faults(sim.topo());
            sim.set_fault_plan(&plan).unwrap();
        }
        let mut m = sim.run();
        let got = (m.events_processed, trajectory_digest(&mut m));
        if got != (events, trajectory) {
            failures.push(format!(
                "({protocol:?}, Scenario::{scenario:?}): events {}, trajectory {:#018x}",
                got.0, got.1
            ));
        }
    }
    assert!(failures.is_empty(), "moved:\n{}", failures.join("\n"));
}
