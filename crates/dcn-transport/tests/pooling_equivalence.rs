//! Endpoint recycling must be invisible per protocol. The engine always
//! recycles a completed flow's endpoint through `Transport::reset` /
//! `CongControl::reset`, whose contract is "indistinguishable from
//! factory-fresh". This checks the contract end-to-end through the engine,
//! where recycled endpoints actually serve new flows: every TCP variant,
//! Homa and the engine's testing transport run once as they are and once
//! behind [`FreshOnReset`], whose `reset` swaps in a factory-fresh
//! endpoint. Final metrics, and the mid-run state digest and metrics, must
//! be byte-identical.

use dcn_sim::config::SimConfig;
use dcn_sim::packet::Packet;
use dcn_sim::simulator::Simulation;
use dcn_sim::snapshot::SnapWriter;
use dcn_sim::time::{SimDuration, SimTime};
use dcn_sim::transport::testing::FixedWindowFactory;
use dcn_sim::transport::{Actions, FlowSpec, Transport, TransportCtx, TransportFactory};
use dcn_transport::homa::HomaFactory;
use dcn_transport::tcp::TcpFactory;
use std::rc::Rc;

/// Wraps a factory so that resetting an endpoint replaces it with a new one
/// from the wrapped factory: the trajectory of an engine that never
/// reuses an endpoint.
struct FreshOnReset(Rc<dyn TransportFactory>);

/// An endpoint of [`FreshOnReset`]; every callback goes to `inner`.
struct FreshEndpoint {
    factory: Rc<dyn TransportFactory>,
    sender: bool,
    inner: Box<dyn Transport>,
}

impl TransportFactory for FreshOnReset {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn sender(&self, flow: &FlowSpec) -> Box<dyn Transport> {
        Box::new(FreshEndpoint {
            factory: self.0.clone(),
            sender: true,
            inner: self.0.sender(flow),
        })
    }
    fn receiver(&self, flow: &FlowSpec) -> Box<dyn Transport> {
        Box::new(FreshEndpoint {
            factory: self.0.clone(),
            sender: false,
            inner: self.0.receiver(flow),
        })
    }
}

impl Transport for FreshEndpoint {
    fn on_start(&mut self, ctx: &mut TransportCtx, out: &mut Actions) {
        self.inner.on_start(ctx, out)
    }
    fn on_packet(&mut self, pkt: &Packet, ctx: &mut TransportCtx, out: &mut Actions) {
        self.inner.on_packet(pkt, ctx, out)
    }
    fn on_timer(&mut self, token: u64, ctx: &mut TransportCtx, out: &mut Actions) {
        self.inner.on_timer(token, ctx, out)
    }
    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w)
    }
    fn reset(&mut self, spec: &FlowSpec) {
        self.inner = if self.sender {
            self.factory.sender(spec)
        } else {
            self.factory.receiver(spec)
        };
    }
}

struct RunOutput {
    /// `window_digest()` and `canonical_bytes()` at the midpoint.
    mid_state: (u64, Vec<u8>),
    metrics: Vec<u8>,
}

/// Run to completion, recording the state digest and metrics once at the
/// midpoint.
fn run(factory: Box<dyn TransportFactory>) -> RunOutput {
    let mut cfg = SimConfig::small_scale();
    cfg.duration_s = 0.5;
    cfg.seed = 113;
    let mut sim = Simulation::with_transport(cfg, factory);
    let mid = SimTime::ZERO + SimDuration::from_secs_f64(cfg.duration_s / 2.0);
    let leftover = sim.run_window(mid);
    assert!(leftover.is_empty(), "sequential run exported remote events");
    let mid_state = (sim.window_digest(), sim.metrics().canonical_bytes());
    let leftover = sim.run_window(sim.end_time() + SimDuration::from_nanos(1));
    assert!(leftover.is_empty(), "sequential run exported remote events");
    let flows = sim.metrics().flows_started();
    assert!(flows > 8, "too few flows ({flows}) to exercise recycling");
    RunOutput {
        mid_state,
        metrics: sim.metrics().canonical_bytes(),
    }
}

type MakeFactory = fn() -> Box<dyn TransportFactory>;

#[test]
fn endpoint_pooling_is_trajectory_invariant_per_protocol() {
    let factories: [(&str, MakeFactory); 6] = [
        ("reno", || Box::new(TcpFactory::new_reno())),
        ("dctcp", || Box::new(TcpFactory::dctcp())),
        ("vegas", || Box::new(TcpFactory::vegas())),
        ("westwood", || Box::new(TcpFactory::westwood())),
        ("homa", || Box::new(HomaFactory::default())),
        ("fixed-window", || Box::new(FixedWindowFactory::default())),
    ];
    for (name, make) in factories {
        let recycled = run(make());
        let fresh = run(Box::new(FreshOnReset(Rc::from(make()))));
        assert_eq!(
            recycled.metrics, fresh.metrics,
            "{name}: recycled endpoints changed the trajectory"
        );
        assert_eq!(
            recycled.mid_state, fresh.mid_state,
            "{name}: recycled endpoints changed the mid-run state"
        );
    }
}
