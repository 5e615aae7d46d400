//! Link timing oracle: packet arrival times on one port against the
//! closed form of the channel model, exact to the nanosecond.
//!
//! A packet of `B` wire bytes on a link of rate `R` and latency `L`
//! occupies the transmitter for `S = ⌈8B/R⌉` and arrives `S + L` after it
//! starts serializing; a transmitter starts the next queued packet the
//! instant the previous one finishes. Every case injects packets at a ToR
//! with [`Simulation::inject_arrival`], lets the ToR forward them onto its
//! down-link to one host, and reads the host's arrival times back from the
//! flight recorder. The oracle knows nothing about how the engine
//! schedules its events, so it holds however link completion is modelled.

use dcn_sim::config::SimConfig;
use dcn_sim::fault::FaultPlan;
use dcn_sim::packet::{FlowId, Packet, HEADER_BYTES, MSS_BYTES};
use dcn_sim::simulator::Simulation;
use dcn_sim::time::{SimDuration, SimTime};
use dcn_sim::topology::{FatTree, LinkId, NodeId};

/// An idle two-cluster network: the load is so low that no flow starts
/// within the run (asserted), so the probed port carries only what the
/// test injects.
fn idle_cfg() -> SimConfig {
    let mut cfg = SimConfig::small_scale();
    cfg.duration_s = 0.1;
    cfg.seed = 11;
    cfg.traffic.load = 1e-6;
    cfg
}

/// The ToR→host link every case probes (its down direction).
fn probed_link() -> LinkId {
    let topo = FatTree::new(idle_cfg().topo);
    topo.host_link(topo.host(0, 0, 0))
}

struct Probe {
    sim: Simulation,
    tor: NodeId,
    src: NodeId,
    dst: NodeId,
    /// Serialization time of one probe packet at the healthy rate.
    s: u64,
    /// One-way propagation latency.
    l: u64,
}

impl Probe {
    fn new(plan: Option<FaultPlan>) -> Probe {
        let cfg = idle_cfg();
        let topo = FatTree::new(cfg.topo);
        let s = SimDuration::serialization((MSS_BYTES + HEADER_BYTES) as u64, cfg.link.host_bw_bps)
            .as_nanos();
        let l = cfg.link.latency.as_nanos();
        let mut sim = Simulation::new(cfg);
        if let Some(plan) = plan {
            sim.set_fault_plan(&plan).unwrap();
        }
        sim.enable_diagnostics(false, Some(4096));
        Probe {
            sim,
            tor: topo.tor(0, 0),
            src: topo.host(0, 0, 1),
            dst: topo.host(0, 0, 0),
            s,
            l,
        }
    }

    /// A full-size packet for the probed host, arriving at its ToR at
    /// `t_ns`. It is an ack of an unknown flow, so the host drops it on
    /// arrival and sends nothing back.
    fn inject(&mut self, id: u64, t_ns: u64) {
        let t = SimTime(t_ns);
        let mut p = Packet::ack(id, FlowId(77), self.src, self.dst, 0, false, SimTime::ZERO, t);
        p.payload = MSS_BYTES;
        assert_eq!(p.wire_bytes(), 1500);
        self.sim.inject_arrival(t, self.tor, p);
    }

    /// Run to the end and return each packet's arrival time at the host,
    /// in packet-id order for ids `1..=n`.
    fn arrivals(mut self, n: u64) -> Vec<u64> {
        let m = self.sim.run();
        assert_eq!(m.flows_started(), 0, "background traffic reached the probe");
        let flight = &m.obs.as_ref().expect("flight recorder drained into obs").flight;
        (1..=n)
            .map(|id| {
                let seen: Vec<u64> = flight
                    .iter()
                    .filter(|e| e.kind_name == "arrive" && e.packet_id == id)
                    .map(|e| e.sim_ns)
                    .collect();
                // One arrival at the ToR (the injection), one at the host.
                assert_eq!(seen.len(), 2, "packet {id} arrivals {seen:?}");
                seen[1]
            })
            .collect()
    }
}

const T0: u64 = 10_000_000;

#[test]
fn back_to_back_packets_leave_one_serialization_apart() {
    let mut p = Probe::new(None);
    let (s, l) = (p.s, p.l);
    assert_eq!(s, 1_200_000, "1500 B at 10 Mb/s");
    let n = 5;
    for id in 1..=n {
        p.inject(id, T0);
    }
    let expect: Vec<u64> = (0..n).map(|i| T0 + (i + 1) * s + l).collect();
    assert_eq!(p.arrivals(n), expect);
}

#[test]
fn packet_enqueued_at_end_of_serialization_starts_at_once() {
    let mut p = Probe::new(None);
    let (s, l) = (p.s, p.l);
    // The second packet reaches the port exactly as the first finishes;
    // the third one nanosecond earlier, while the port is still busy.
    p.inject(1, T0);
    p.inject(2, T0 + s);
    p.inject(3, T0 + 2 * s - 1);
    assert_eq!(
        p.arrivals(3),
        vec![T0 + s + l, T0 + 2 * s + l, T0 + 3 * s + l]
    );
}

#[test]
fn burst_held_by_link_down_starts_at_repair() {
    // The burst reaches the port 1 ns before the link fails: the first
    // packet is already on the wire and completes; the rest wait out the
    // outage and leave back to back from the repair instant.
    let (down, up) = (T0, T0 + 20_000_000);
    let link = probed_link();
    let plan = FaultPlan::new(1).link_down(link, SimTime(down), SimTime(up));
    let mut p = Probe::new(Some(plan));
    let (s, l) = (p.s, p.l);
    let n = 4;
    for id in 1..=n {
        p.inject(id, down - 1);
    }
    let mut expect = vec![down - 1 + s + l];
    expect.extend((1..n).map(|i| up + i * s + l));
    assert_eq!(p.arrivals(n), expect);
}

#[test]
fn outage_shorter_than_a_packet_does_not_delay_the_queue() {
    // The link fails and recovers while the first packet serializes, so
    // the queued packets see a busy port at repair and leave on schedule.
    let (down, up) = (T0, T0 + 300_000);
    let link = probed_link();
    let plan = FaultPlan::new(1).link_down(link, SimTime(down), SimTime(up));
    let mut p = Probe::new(Some(plan));
    let (s, l) = (p.s, p.l);
    let n = 3;
    for id in 1..=n {
        p.inject(id, down - 1);
    }
    let expect: Vec<u64> = (0..n).map(|i| down - 1 + (i + 1) * s + l).collect();
    assert_eq!(p.arrivals(n), expect);
}

#[test]
fn half_rate_doubles_serialization() {
    let link = probed_link();
    let plan = FaultPlan::new(1).degraded_rate(link, SimTime(T0 / 2), SimTime(T0 * 5), 0.5);
    let mut p = Probe::new(Some(plan));
    let (s, l) = (p.s, p.l);
    let n = 4;
    for id in 1..=n {
        p.inject(id, T0);
    }
    let expect: Vec<u64> = (0..n).map(|i| T0 + (i + 1) * 2 * s + l).collect();
    assert_eq!(p.arrivals(n), expect);
}
