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
//!
//! The loss cases put the fabric loss window at probability 1 around the
//! probe, so which packets survive is as exact as when they arrive.

use dcn_sim::config::SimConfig;
use dcn_sim::fault::LossWindow;
use dcn_sim::packet::{FlowId, Packet, HEADER_BYTES, MSS_BYTES};
use dcn_sim::simulator::Simulation;
use dcn_sim::time::{SimDuration, SimTime};
use dcn_sim::topology::{FatTree, NodeId};

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

struct Probe {
    sim: Simulation,
    tor: NodeId,
    src: NodeId,
    dst: NodeId,
    /// A host under another ToR of the same cluster: reaching it crosses
    /// the fabric (ToR→Agg→ToR) before its access link.
    far: NodeId,
    /// Serialization time of one probe packet at the host link rate.
    s: u64,
    /// Serialization time of one probe packet at the fabric link rate.
    s_fabric: u64,
    /// One-way propagation latency.
    l: u64,
}

impl Probe {
    fn new(loss: Option<LossWindow>) -> Probe {
        let cfg = idle_cfg();
        let topo = FatTree::new(cfg.topo);
        let wire = (MSS_BYTES + HEADER_BYTES) as u64;
        let s = SimDuration::serialization(wire, cfg.link.host_bw_bps).as_nanos();
        let s_fabric = SimDuration::serialization(wire, cfg.link.fabric_bw_bps).as_nanos();
        let l = cfg.link.latency.as_nanos();
        let mut sim = Simulation::new(cfg);
        if let Some(window) = loss {
            sim.set_loss_window(window);
        }
        sim.enable_diagnostics(false, Some(4096));
        Probe {
            sim,
            tor: topo.tor(0, 0),
            src: topo.host(0, 0, 1),
            dst: topo.host(0, 0, 0),
            far: topo.host(0, 1, 0),
            s,
            s_fabric,
            l,
        }
    }

    /// A full-size packet for the probed host, arriving at its ToR at
    /// `t_ns`.
    fn inject(&mut self, id: u64, t_ns: u64) {
        self.inject_to(id, t_ns, self.dst);
    }

    /// A full-size packet for `dst`, arriving at the probed ToR at `t_ns`.
    /// It is an ack of an unknown flow, so the host drops it on arrival
    /// and sends nothing back.
    fn inject_to(&mut self, id: u64, t_ns: u64, dst: NodeId) {
        let t = SimTime(t_ns);
        let mut p = Packet::ack(id, FlowId(77), self.src, dst, 0, false, SimTime::ZERO, t);
        p.payload = MSS_BYTES;
        assert_eq!(p.wire_bytes(), 1500);
        self.sim.inject_arrival(t, self.tor, p);
    }

    /// Run to the end and return every arrival time of each packet
    /// `1..=n`, in packet-id order: the injection at the ToR first, then
    /// one per hop it completes.
    fn hops(mut self, n: u64) -> Vec<Vec<u64>> {
        let m = self.sim.run();
        assert_eq!(m.flows_started(), 0, "background traffic reached the probe");
        let flight = &m.obs.as_ref().expect("flight recorder drained into obs").flight;
        (1..=n)
            .map(|id| {
                flight
                    .iter()
                    .filter(|e| e.kind_name == "arrive" && e.packet_id == id)
                    .map(|e| e.sim_ns)
                    .collect()
            })
            .collect()
    }

    /// Each packet's arrival time at the probed host, for packets that
    /// cross the ToR→host link alone.
    fn arrivals(self, n: u64) -> Vec<u64> {
        self.hops(n)
            .into_iter()
            .enumerate()
            .map(|(i, seen)| {
                // One arrival at the ToR (the injection), one at the host.
                assert_eq!(seen.len(), 2, "packet {} arrivals {seen:?}", i + 1);
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

/// A window at probability 1 from `FROM` until `UNTIL`.
const FROM: u64 = T0;
const UNTIL: u64 = T0 + 20_000_000;

fn certain_loss() -> LossWindow {
    LossWindow::new(SimTime(FROM), SimTime(UNTIL), 1.0).unwrap()
}

#[test]
fn fabric_loss_window_edges_are_exact() {
    // Packet 1 starts up the ToR→Agg link at `from` and is lost there;
    // packet 2 starts at `until` and crosses ToR→Agg→ToR→host on the
    // closed form.
    let mut p = Probe::new(Some(certain_loss()));
    let (s, sf, l, far) = (p.s, p.s_fabric, p.l, p.far);
    p.inject_to(1, FROM, far);
    p.inject_to(2, UNTIL, far);
    let hops = p.hops(2);
    assert_eq!(hops[0], vec![FROM], "packet 1 left the ToR");
    let agg = UNTIL + sf + l;
    let tor = agg + sf + l;
    assert_eq!(hops[1], vec![UNTIL, agg, tor, tor + s + l]);
}

#[test]
fn host_link_loses_nothing_under_the_window() {
    let mut p = Probe::new(Some(certain_loss()));
    let (s, l) = (p.s, p.l);
    let n = 3;
    for id in 1..=n {
        p.inject(id, FROM);
    }
    let expect: Vec<u64> = (0..n).map(|i| FROM + (i + 1) * s + l).collect();
    assert_eq!(p.arrivals(n), expect);
}
