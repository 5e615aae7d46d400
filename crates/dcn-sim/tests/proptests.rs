//! Property-based tests (proptest) for the simulator's core invariants.

use dcn_sim::cdf::wasserstein1;
use dcn_sim::config::{QueueSetup, SimConfig};
use dcn_sim::fault::LossWindow;
use dcn_sim::instrument::Metrics;
use dcn_sim::simulator::Simulation;
use dcn_sim::event::{EventKind, EventQueue};
use dcn_sim::link::Dir;
use dcn_sim::packet::{FlowId, Packet, MSS_BYTES};
use dcn_sim::queue::{EnqueueOutcome, PortQueue};
use dcn_sim::rng::{EmpiricalCdf, SplitMix64};
use dcn_sim::routing::Router;
use dcn_sim::stats::percentile;
use dcn_sim::time::SimTime;
use dcn_sim::topology::{FatTree, FatTreeParams, NodeKind};
use proptest::prelude::*;

proptest! {
    /// Events always pop in non-decreasing time order and none are lost.
    #[test]
    fn event_queue_is_a_priority_queue(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), EventKind::FlowArrival { host: dcn_sim::topology::NodeId((i % 16) as u32) });
        }
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e.time.0);
        }
        prop_assert_eq!(popped.len(), times.len());
        prop_assert!(popped.windows(2).all(|w| w[0] <= w[1]));
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(popped, sorted);
    }

    /// Any (flow, src, dst) routes to the destination via a strict
    /// up-down path bounded by the FatTree diameter.
    #[test]
    fn routing_reaches_destination_up_down(
        flow in 0u64..10_000,
        src_idx in 0u32..32,
        dst_idx in 0u32..32,
        clusters in 2u32..6,
    ) {
        let params = FatTreeParams::new(clusters, 2, 2, 2, 2);
        let topo = FatTree::new(params);
        let router = Router::new(topo.clone());
        let n_hosts = params.num_hosts();
        let src = dcn_sim::topology::NodeId(src_idx % n_hosts);
        let dst = dcn_sim::topology::NodeId(dst_idx % n_hosts);
        prop_assume!(src != dst);
        let path = router.path(FlowId(flow), src, dst);
        prop_assert_eq!(*path.first().unwrap(), src);
        prop_assert_eq!(*path.last().unwrap(), dst);
        prop_assert!(path.len() <= 7);
        // Strict up-down: tier ranks rise to a single peak then fall.
        let rank = |n| match topo.kind(n) {
            NodeKind::Host => 0i32,
            NodeKind::Tor => 1,
            NodeKind::Agg => 2,
            NodeKind::Core => 3,
        };
        let ranks: Vec<i32> = path.iter().map(|&n| rank(n)).collect();
        let peak = ranks.iter().enumerate().max_by_key(|(_, &r)| r).unwrap().0;
        prop_assert!(ranks[..=peak].windows(2).all(|w| w[1] == w[0] + 1), "ascent not strict: {ranks:?}");
        prop_assert!(ranks[peak..].windows(2).all(|w| w[1] == w[0] - 1), "descent not strict: {ranks:?}");
    }

    /// Queues conserve packets/bytes and never exceed capacity.
    #[test]
    fn queue_conservation(ops in proptest::collection::vec((0u32..1461, any::<bool>()), 1..300)) {
        let cap = 20_000u64;
        let mut q = PortQueue::new(QueueSetup { capacity_bytes: cap, ..QueueSetup::default() });
        let mut accepted = 0u64;
        let mut dequeued = 0u64;
        let mut id = 0u64;
        for (payload, do_dequeue) in ops {
            id += 1;
            let p = Packet::data(id, FlowId(1), dcn_sim::topology::NodeId(0), dcn_sim::topology::NodeId(1), 0, payload, false, SimTime::ZERO);
            match q.enqueue(p) {
                EnqueueOutcome::Enqueued { .. } => accepted += 1,
                EnqueueOutcome::Dropped => {}
            }
            prop_assert!(q.len_bytes() <= cap);
            if do_dequeue && q.dequeue().is_some() {
                dequeued += 1;
            }
        }
        prop_assert_eq!(accepted, dequeued + q.len_pkts() as u64);
        prop_assert_eq!(accepted + q.dropped, id);
    }

    /// W1 is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn w1_metric_axioms(
        a in proptest::collection::vec(0.0f64..100.0, 1..50),
        b in proptest::collection::vec(0.0f64..100.0, 1..50),
        c in proptest::collection::vec(0.0f64..100.0, 1..50),
    ) {
        prop_assert!(wasserstein1(&a, &a) < 1e-12);
        let ab = wasserstein1(&a, &b);
        let ba = wasserstein1(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
        let bc = wasserstein1(&b, &c);
        let ac = wasserstein1(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-9, "triangle violated: {ac} > {ab} + {bc}");
    }

    /// W1 of a shifted sample set equals the shift.
    #[test]
    fn w1_shift_invariance(xs in proptest::collection::vec(0.0f64..10.0, 2..100), shift in 0.0f64..5.0) {
        let ys: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let d = wasserstein1(&xs, &ys);
        prop_assert!((d - shift).abs() < 1e-9, "d = {d}, shift = {shift}");
    }

    /// Percentiles are monotone in p and bounded by the data range.
    #[test]
    fn percentile_monotone(xs in proptest::collection::vec(-100.0f64..100.0, 1..100)) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = percentile(&xs, p);
            prop_assert!(v >= prev);
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
            prev = v;
        }
    }

    /// Empirical CDF quantiles are monotone and within the value range.
    #[test]
    fn empirical_cdf_quantile_monotone(seed in 0u64..1000) {
        let cdf = EmpiricalCdf::new(vec![(0.0, 0.0), (5.0, 0.4), (20.0, 1.0)]);
        let mut rng = SplitMix64::new(seed);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = cdf.quantile(i as f64 / 20.0);
            prop_assert!(q >= prev);
            prop_assert!((0.0..=20.0).contains(&q));
            prev = q;
        }
        let s = cdf.sample(&mut rng);
        prop_assert!((0.0..=20.0).contains(&s));
    }

    /// SplitMix bounded sampling is in range; bernoulli respects 0/1.
    #[test]
    fn rng_bounds(seed in any::<u64>(), n in 1u64..1000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.next_below(n) < n);
        }
        prop_assert!(!rng.bernoulli(0.0));
        prop_assert!(rng.bernoulli(1.0));
    }

    /// Identical seeds and an identical loss window produce bit-identical
    /// metrics — fault injection must not break determinism.
    #[test]
    fn fault_injection_is_deterministic(
        sim_seed in 0u64..1000,
        loss in 0.0f64..0.1,
        from_ms in 10u64..100,
        span_ms in 10u64..150,
    ) {
        let window = LossWindow::new(
            SimTime::from_secs_f64(from_ms as f64 / 1e3),
            SimTime::from_secs_f64((from_ms + span_ms) as f64 / 1e3),
            loss,
        )
        .expect("valid window");
        let run = || {
            let mut cfg = SimConfig::small_scale();
            cfg.duration_s = 0.25;
            cfg.seed = sim_seed;
            let mut sim = Simulation::new(cfg);
            sim.set_loss_window(window);
            sim.run()
        };
        prop_assert!(metrics_identical(&run(), &run()));
    }

    /// A window that injects zero faults (probability 0) is
    /// indistinguishable from running with no window at all — the
    /// loss-free trajectory is preserved exactly.
    #[test]
    fn zero_fault_plan_equals_no_plan(sim_seed in 0u64..1000) {
        let mut cfg = SimConfig::small_scale();
        cfg.duration_s = 0.25;
        cfg.seed = sim_seed;
        let baseline = Simulation::new(cfg).run();
        let mut sim = Simulation::new(cfg);
        sim.set_loss_window(LossWindow::new(SimTime::ZERO, SimTime::MAX, 0.0).expect("valid window"));
        let with_window = sim.run();
        prop_assert!(metrics_identical(&baseline, &with_window));
        prop_assert_eq!(with_window.fault_drops, 0);
    }

    /// ECN marking never occurs below threshold and never on incapable
    /// packets; dequeue order within a band is FIFO.
    #[test]
    fn ecn_marking_respects_threshold(k in 1u32..10, n in 1usize..40) {
        let mut q = PortQueue::new(QueueSetup { capacity_bytes: 1_000_000, ecn_k: Some(k), bands: 1 });
        let mut marked_below = 0;
        for i in 0..n {
            let p = Packet::data(i as u64 + 1, FlowId(1), dcn_sim::topology::NodeId(0), dcn_sim::topology::NodeId(1), 0, MSS_BYTES, true, SimTime::ZERO);
            let occupancy_before = q.len_pkts();
            if let EnqueueOutcome::Enqueued { marked: true } = q.enqueue(p) {
                if occupancy_before < k {
                    marked_below += 1;
                }
            }
        }
        prop_assert_eq!(marked_below, 0);
    }
}

/// Byte-level equality over the observable surface of [`Metrics`]:
/// every counter, every flow record (in canonical id order — the flows
/// map itself has no deterministic iteration order), every RTT sample,
/// and every boundary event. Two runs agreeing here took identical
/// trajectories.
fn metrics_identical(a: &Metrics, b: &Metrics) -> bool {
    fn canonical(m: &Metrics) -> String {
        let mut flows: Vec<(u64, String)> = m
            .flows
            .iter()
            .map(|(id, rec)| (id.0, serde_json::to_string(rec).expect("flow serializes")))
            .collect();
        flows.sort_unstable();
        format!(
            "{} {} {} {} {} {} {} {:?} {:?} {} {}",
            m.events_processed,
            m.hops_forwarded,
            m.queue_drops,
            m.mimic_drops,
            m.ecn_marks,
            m.fault_drops,
            m.total_delivered_bytes(),
            m.fct_samples(|_| true),
            flows,
            serde_json::to_string(&m.rtt).expect("rtt serializes"),
            serde_json::to_string(&m.boundary).expect("boundary serializes"),
        )
    }
    canonical(a) == canonical(b)
}

/// Non-proptest sanity companion: directions on a duplex link are
/// independent queues (exhaustive over small cases).
#[test]
fn duplex_directions_independent() {
    use dcn_sim::link::{DuplexLink, LinkSpec};
    use dcn_sim::time::SimDuration;
    let mut l = DuplexLink::new(
        LinkSpec {
            bandwidth_bps: 1_000_000,
            latency: SimDuration::from_micros(10),
        },
        QueueSetup {
            capacity_bytes: 10_000,
            ..QueueSetup::default()
        },
    );
    let p = Packet::data(
        1,
        FlowId(1),
        dcn_sim::topology::NodeId(0),
        dcn_sim::topology::NodeId(1),
        0,
        100,
        false,
        SimTime::ZERO,
    );
    l.tx_mut(Dir::Up).queue.enqueue(p.clone());
    assert_eq!(l.tx(Dir::Up).queue.len_pkts(), 1);
    assert_eq!(l.tx(Dir::Down).queue.len_pkts(), 0);
}
