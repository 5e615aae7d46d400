//! Cross-crate integration: every transport protocol completes flows
//! end-to-end over the packet simulator, with protocol-appropriate
//! behaviours observable (ECN marks for DCTCP, priority completion for
//! Homa, loss recovery for all).

use dcn_sim::config::{FlowSizeDist, SimConfig};
use dcn_sim::simulator::Simulation;
use dcn_transport::Protocol;

fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::small_scale();
    cfg.duration_s = 0.5;
    cfg.seed = 21;
    cfg
}

fn run(p: Protocol, mut cfg: SimConfig) -> dcn_sim::instrument::Metrics {
    cfg.queue = p.queue_setup(cfg.queue);
    let mut sim = Simulation::with_transport(cfg, p.factory());
    sim.run()
}

#[test]
fn all_protocols_complete_flows() {
    for p in [
        Protocol::NewReno,
        Protocol::Dctcp { k: 20 },
        Protocol::Vegas,
        Protocol::Westwood,
        Protocol::Homa,
    ] {
        let m = run(p, base_cfg());
        assert!(
            m.flows_completed() > 5,
            "{}: only {} of {} flows completed",
            p.name(),
            m.flows_completed(),
            m.flows_started(),
        );
        for fct in m.fct_samples(|_| true) {
            assert!(fct > 0.0, "{}: nonpositive FCT", p.name());
        }
        assert!(m.total_delivered_bytes() > 0, "{}: nothing delivered", p.name());
    }
}

#[test]
fn dctcp_marks_and_newreno_does_not() {
    let mut cfg = base_cfg();
    cfg.traffic.load = 1.0; // enough pressure to cross K
    let m_dctcp = run(Protocol::Dctcp { k: 5 }, cfg);
    assert!(m_dctcp.ecn_marks > 0, "DCTCP run produced no CE marks");
    let m_reno = run(Protocol::NewReno, cfg);
    assert_eq!(m_reno.ecn_marks, 0, "New Reno packets are not ECN-capable");
}

#[test]
fn protocols_recover_from_heavy_congestion() {
    // Small buffers + high load force drops; flows must still finish.
    let mut cfg = base_cfg();
    cfg.queue.capacity_bytes = 20_000;
    cfg.traffic.load = 1.0;
    cfg.traffic.size = FlowSizeDist::Fixed { bytes: 50_000 };
    for p in [Protocol::NewReno, Protocol::Westwood, Protocol::Vegas, Protocol::Homa] {
        let m = run(p, cfg);
        assert!(
            m.queue_drops > 0,
            "{}: expected drops under pressure",
            p.name()
        );
        assert!(
            m.flows_completed() > 0,
            "{}: no flow survived congestion",
            p.name()
        );
    }
}

#[test]
fn dctcp_keeps_queues_shorter_than_newreno() {
    // DCTCP's raison d'être: same load, earlier congestion signal, lower
    // queueing latency. Compare RTT tails.
    let mut cfg = base_cfg();
    cfg.traffic.load = 0.9;
    cfg.duration_s = 1.0;
    let reno = run(Protocol::NewReno, cfg);
    let dctcp = run(Protocol::Dctcp { k: 10 }, cfg);
    let p90 = |m: &dcn_sim::instrument::Metrics| {
        dcn_sim::stats::percentile(&m.rtt_samples(|_| true), 90.0)
    };
    let (r, d) = (p90(&reno), p90(&dctcp));
    assert!(
        d < r,
        "DCTCP p90 RTT {d} should be below New Reno's {r}"
    );
}

#[test]
fn dctcp_bounds_queue_occupancy_near_k() {
    // The whole point of the marking threshold: with K = 10 the switch
    // queues should rarely grow far beyond ~K packets, while New Reno
    // fills the buffer. The diagnostics report the largest port-queue
    // occupancy of the run as `sim.queue.peak_bytes`.
    let mut cfg = base_cfg();
    cfg.traffic.load = 0.9;
    cfg.duration_s = 1.0;
    let peak_bytes = |p: Protocol| {
        let mut cfg = cfg;
        cfg.queue = p.queue_setup(cfg.queue);
        let mut sim = Simulation::with_transport(cfg, p.factory());
        sim.enable_diagnostics(false, None);
        sim.run().obs.expect("diagnostics on").gauges["sim.queue.peak_bytes"]
    };
    let (reno, dctcp) = (peak_bytes(Protocol::NewReno), peak_bytes(Protocol::Dctcp { k: 10 }));
    assert!(dctcp < reno, "DCTCP peak queue {dctcp} B vs Reno {reno} B");
}

#[test]
fn vegas_is_latency_sensitive() {
    // Vegas should keep RTTs near the propagation floor compared to Reno.
    let mut cfg = base_cfg();
    cfg.traffic.load = 0.9;
    cfg.duration_s = 1.0;
    let reno = run(Protocol::NewReno, cfg);
    let vegas = run(Protocol::Vegas, cfg);
    let mean = |m: &dcn_sim::instrument::Metrics| dcn_sim::stats::mean(&m.rtt_samples(|_| true));
    assert!(
        mean(&vegas) <= mean(&reno),
        "Vegas mean RTT {} vs Reno {}",
        mean(&vegas),
        mean(&reno)
    );
}

#[test]
fn homa_favors_short_messages() {
    // With priorities, short messages should see better normalized FCTs
    // than under New Reno at the same (heavy) load.
    let mut cfg = base_cfg();
    cfg.traffic.load = 0.9;
    cfg.duration_s = 1.0;
    let reno = run(Protocol::NewReno, cfg);
    let homa = run(Protocol::Homa, cfg);
    let short_fct_p90 = |m: &dcn_sim::instrument::Metrics| {
        dcn_sim::stats::percentile(&m.fct_samples(|f| f.size_bytes <= 10_000), 90.0)
    };
    let (r, h) = (short_fct_p90(&reno), short_fct_p90(&homa));
    assert!(h > 0.0 && r > 0.0);
    assert!(
        h <= r * 1.5,
        "Homa short-flow p90 {h} should not be much worse than Reno {r}"
    );
}
