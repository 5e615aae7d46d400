//! Integration tests of the packet-level simulator as a whole system:
//! conservation laws, load tracking, congestion behaviour, and the
//! boundary instrumentation MimicNet depends on.

use dcn_sim::config::{FlowSizeDist, SimConfig};
use dcn_sim::fault::LossWindow;
use dcn_sim::instrument::BoundaryPhase;
use dcn_sim::mimic::BoundaryDir;
use dcn_sim::simulator::Simulation;
use dcn_sim::stats::mean;
use dcn_sim::time::SimTime;
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
    assert_eq!(trajectory, 0xfb0d_9759_cb1e_2fa6, "trajectory {trajectory:#018x}");
    assert_eq!(m.events_processed, 92_211);
    assert_eq!(digest, 0x3c45_ad5e_b998_adac, "digest {digest:#018x}");
}

#[test]
fn trajectories_are_locked_per_protocol_and_scenario() {
    // Every protocol under a clean network, fabric loss over the whole
    // run (Lossy) and heavier fabric loss over a mid-run window (Faults),
    // at 8 clusters for one simulated second. The trajectory digest must
    // not move unless the model's behaviour is meant to change; the event
    // count records how much work the engine did.
    #[derive(Clone, Copy, Debug)]
    enum Scenario {
        Plain,
        Lossy,
        Faults,
    }
    let cases: [(Protocol, Scenario, u64, u64); 12] = [
        (Protocol::NewReno, Scenario::Plain, 93_821, 0x224a_c30a_70ca_9908),
        (Protocol::NewReno, Scenario::Lossy, 93_642, 0x4cb1_c248_30b5_14ab),
        (Protocol::NewReno, Scenario::Faults, 88_963, 0xce76_30c3_af70_0ff3),
        (Protocol::Dctcp { k: 20 }, Scenario::Plain, 89_867, 0x1cc4_a8f1_5edf_129e),
        (Protocol::Dctcp { k: 20 }, Scenario::Lossy, 89_702, 0x32bf_3027_a9fb_1fdc),
        (Protocol::Dctcp { k: 20 }, Scenario::Faults, 89_350, 0x3d9e_b558_bcd2_6d87),
        (Protocol::Vegas, Scenario::Plain, 92_735, 0x98d1_d7d2_6f06_c4fc),
        (Protocol::Vegas, Scenario::Lossy, 92_216, 0xd7ca_cbd7_b2a2_55f7),
        (Protocol::Vegas, Scenario::Faults, 89_024, 0x2654_49ef_464c_1b69),
        (Protocol::Homa, Scenario::Plain, 97_572, 0xa564_ca7a_1063_d842),
        (Protocol::Homa, Scenario::Lossy, 98_388, 0xaedd_7f41_44c1_7ede),
        (Protocol::Homa, Scenario::Faults, 95_804, 0x34c4_49b6_0e2c_b6a9),
    ];
    let mut failures = Vec::new();
    for (protocol, scenario, events, trajectory) in cases {
        let mut cfg = SimConfig::small_scale();
        cfg.duration_s = 1.0;
        cfg.seed = 3;
        let mut sim = mimicnet::compose::ground_truth(cfg, 8, protocol);
        let at = SimTime::from_secs_f64;
        let window = match scenario {
            Scenario::Plain => None,
            Scenario::Lossy => Some(LossWindow::new(SimTime::ZERO, SimTime::MAX, 0.001)),
            Scenario::Faults => Some(LossWindow::new(at(0.3), at(0.5), 0.01)),
        };
        if let Some(window) = window {
            sim.set_loss_window(window.unwrap());
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
