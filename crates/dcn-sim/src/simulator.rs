//! The simulation engine.
//!
//! [`Simulation`] owns the entire network state (links, hosts, metrics),
//! drains the event queue, and dispatches each event to the component
//! logic in the sibling modules. It supports three execution shapes:
//!
//! * **Full fidelity** — every cluster's switches are simulated; this is
//!   the ground truth the paper evaluates against.
//! * **Mimic composition** — clusters served by one shared
//!   [`ClusterModel`] via [`Simulation::set_cluster_model`]; packets
//!   crossing their boundaries take the learned path instead of the
//!   queue/switch path (§7.1).
//! * **Partitioned** — the same engine restricted to a subset of nodes,
//!   exporting cross-partition packet arrivals; the [`crate::pdes`] driver
//!   composes several of these into a conservative parallel simulation.

use crate::config::SimConfig;
use crate::event::{EventKind, EventQueue};
use crate::fault::LossWindow;
use crate::host::{HostState, Role};
use crate::instrument::{BoundaryPhase, BoundaryRecord, FlowRecord, Metrics, RttSample};
use crate::link::{Dir, DuplexLink, LinkSpec};
use crate::mimic::{BoundaryDir, BoundaryItem, ClusterModel, TierSwitch, Verdict};
use crate::packet::{Ecn, FlowId, Packet, PacketKind};
use crate::rng::SplitMix64;
use crate::routing::Router;
use crate::switch::process_hop;
use crate::time::{SimDuration, SimTime};
use crate::topology::{FatTree, LinkId, NodeId, NodeKind};
use crate::traffic::TrafficGen;
use crate::transport::{Actions, FlowSpec, Transport, TransportCtx, TransportFactory};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Registry names for per-event-kind counters, indexed by
/// [`EventKind::index`]. Kept as flat constants so the dispatch loop uses
/// fixed arrays and naming happens once, at fold time.
const EVENT_COUNT_NAMES: [&str; EventKind::COUNT] = [
    "sim.events.tx_done",
    "sim.events.arrive",
    "sim.events.timer",
    "sim.events.flow_arrival",
];
const EVENT_WALL_NAMES: [&str; EventKind::COUNT] = [
    "sim.events.tx_done.wall_ns",
    "sim.events.arrive.wall_ns",
    "sim.events.timer.wall_ns",
    "sim.events.flow_arrival.wall_ns",
];

/// The engine's one diagnostics recorder
/// ([`Simulation::enable_diagnostics`], DESIGN.md §9 and §14). The event
/// loop touches only the fixed arrays and the flight ring (no map
/// lookups); names are attached once when the run folds into
/// `Metrics::obs`. Boxed behind an `Option` so an event with diagnostics
/// off pays a single branch.
struct Diagnostics {
    /// Per-event and per-inference wall-clock timing plus window spans.
    /// When false the loop reads no clock and the `*.wall_ns` counters
    /// stay zero; every count still records.
    timed: bool,
    event_count: [u64; EventKind::COUNT],
    event_wall_ns: [u64; EventKind::COUNT],
    /// [`ClusterModel::infer`] calls, and (timed only) their wall time —
    /// the verdicts alone, without the warm-up before them.
    boundary_count: u64,
    boundary_wall_ns: u64,
    /// Units of deferred model work drained just before a verdict
    /// ([`ClusterModel::idle`] up to the crossing), and (timed only)
    /// their wall time: the feeder warm-up the verdicts waited on.
    demand_wakes: u64,
    demand_wall_ns: u64,
    windows: u64,
    /// The last events processed, when a ring was asked for.
    flight: Option<dcn_obs::FlightRecorder>,
    obs: dcn_obs::Obs,
}

/// How one cluster is executed.
pub enum ClusterMode {
    /// Simulate all switches and queues.
    Full,
    /// Served by the simulation's shared [`ClusterModel`]. `ingress`/
    /// `egress` select which directions the model handles (both for a
    /// real Mimic; one for the paper's Appendix B hybrid debug clusters).
    /// Installed via [`Simulation::set_cluster_model`].
    Mimic { ingress: bool, egress: bool },
}

impl ClusterMode {
    fn models_ingress(&self) -> bool {
        matches!(self, ClusterMode::Mimic { ingress: true, .. })
    }
    fn models_egress(&self) -> bool {
        matches!(self, ClusterMode::Mimic { egress: true, .. })
    }
    /// Does this cluster still generate its own full workload?
    /// Full and hybrid (partially modeled) clusters do; full Mimics do not.
    fn full_fidelity_traffic(&self) -> bool {
        !(self.models_ingress() && self.models_egress())
    }
}

/// The discrete-event simulation engine.
pub struct Simulation {
    cfg: SimConfig,
    topo: FatTree,
    router: Router,
    queue: EventQueue,
    now: SimTime,
    end: SimTime,
    links: Vec<DuplexLink>,
    hosts: Vec<HostState>,
    /// Flows a host has finished with (for TIME_WAIT-style re-acking).
    done: Vec<HashSet<FlowId>>,
    cluster_modes: Vec<ClusterMode>,
    traffic: TrafficGen,
    factory: Box<dyn TransportFactory>,
    metrics: Metrics,
    trace_cluster: Option<u32>,
    scratch: Actions,
    /// Spare endpoint boxes recycled across completed flows, indexed by
    /// [`Role`] (`[sender, receiver]`). Never digested: a recycled
    /// endpoint is reset to factory-fresh state, so the pool's contents are
    /// interchangeable with fresh allocations.
    spares: [Vec<Box<dyn Transport>>; 2],
    initialized: bool,
    /// The fabric loss window; `None` (the default) loses nothing.
    loss_window: Option<LossWindow>,
    /// Per-(link, dir) loss streams, empty until a window is installed.
    loss_streams: Vec<[SplitMix64; 2]>,
    /// The model serving every [`ClusterMode::Mimic`] cluster; `None`
    /// when none is installed.
    model: Option<Box<dyn ClusterModel>>,
    /// Diagnostics recorder; `None` (the default) records nothing and
    /// costs one branch per event.
    diag: Option<Box<Diagnostics>>,
    /// The model-served clusters this engine owns, which
    /// [`Simulation::idle_step`] visits round-robin from `idle_next`.
    idle_clusters: Vec<u32>,
    idle_next: usize,
    // --- partitioning (None = own everything) ---
    owner_of_node: Option<Arc<Vec<u8>>>,
    my_partition: u8,
    outbox: Vec<(SimTime, NodeId, Packet)>,
}

impl Simulation {
    /// Build an engine with the default (testing) transport. Use
    /// [`Simulation::with_transport`] for real protocols.
    pub fn new(cfg: SimConfig) -> Simulation {
        Simulation::with_transport(
            cfg,
            Box::new(crate::transport::testing::FixedWindowFactory::default()),
        )
    }

    /// Build an engine running the given transport protocol.
    pub fn with_transport(cfg: SimConfig, factory: Box<dyn TransportFactory>) -> Simulation {
        let topo = FatTree::new(cfg.topo);
        let router = Router::new(topo.clone());
        let qc = cfg.queue.to_queue_config();
        let mut links = Vec::with_capacity(cfg.topo.num_links() as usize);
        for l in 0..cfg.topo.num_links() {
            let l = LinkId(l);
            let bw = if topo.is_host_link(l) {
                cfg.link.host_bw_bps
            } else {
                cfg.link.fabric_bw_bps
            };
            links.push(DuplexLink::new(
                LinkSpec {
                    bandwidth_bps: bw,
                    latency: cfg.link.latency,
                },
                qc,
                qc,
            ));
        }
        let hosts = (0..cfg.topo.num_hosts())
            .map(|h| HostState::new(NodeId(h)))
            .collect();
        let traffic = TrafficGen::new(topo.clone(), cfg.traffic, cfg.link.host_bw_bps, cfg.seed);
        let cluster_modes = (0..cfg.topo.clusters).map(|_| ClusterMode::Full).collect();
        let metrics = Metrics::new(cfg.topo.num_hosts());
        Simulation {
            loss_window: None,
            loss_streams: Vec::new(),
            model: None,
            diag: None,
            idle_clusters: Vec::new(),
            idle_next: 0,
            end: SimTime::from_secs_f64(cfg.duration_s),
            metrics,
            done: vec![HashSet::new(); cfg.topo.num_hosts() as usize],
            cfg,
            topo,
            router,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            links,
            hosts,
            cluster_modes,
            traffic,
            factory,
            trace_cluster: None,
            scratch: Actions::default(),
            spares: [Vec::new(), Vec::new()],
            initialized: false,
            owner_of_node: None,
            my_partition: 0,
            outbox: Vec::new(),
        }
    }

    /// Record the boundary trace of `cluster` (the paper's §5.1
    /// instrumentation of one full-fidelity cluster).
    pub fn trace_cluster(&mut self, cluster: u32) {
        assert!(cluster < self.cfg.topo.clusters);
        self.trace_cluster = Some(cluster);
    }

    /// Replace every cluster in `model.clusters()` with the shared model,
    /// both directions: each packet crossing one of their boundaries gets
    /// its verdict from [`ClusterModel::infer`] at its own event and
    /// reappears on the other side `latency` later.
    ///
    /// At most one model per simulation.
    pub fn set_cluster_model(&mut self, model: Box<dyn ClusterModel>) {
        self.set_cluster_model_dirs(model, true, true);
    }

    /// [`Simulation::set_cluster_model`] for selected directions only
    /// (hybrid testing clusters, paper Appendix B): the other direction
    /// keeps its packet-level switches and the clusters keep generating
    /// their own workload.
    pub fn set_cluster_model_dirs(
        &mut self,
        model: Box<dyn ClusterModel>,
        ingress: bool,
        egress: bool,
    ) {
        assert!(!self.initialized, "cannot add models after the run started");
        assert!(self.model.is_none(), "cluster model already installed");
        assert!(
            model.latency_floor() > SimDuration::ZERO,
            "cluster model must declare a positive latency floor"
        );
        for &c in model.clusters() {
            assert!(c < self.cfg.topo.clusters, "cluster {c} out of range");
            self.cluster_modes[c as usize] = ClusterMode::Mimic { ingress, egress };
        }
        self.model = Some(model);
    }

    /// Cap on spare endpoints kept per role. Completion and arrival rates
    /// track each other at steady state, so the pool stays near the
    /// high-water mark of concurrently-active flows; the cap only guards
    /// against pathological burst-then-idle schedules pinning memory.
    const SPARE_CAP: usize = 4096;

    /// Get an endpoint for `spec`, recycling a spare box when one is left.
    fn acquire_endpoint(&mut self, role: Role, spec: &FlowSpec) -> Box<dyn Transport> {
        if let Some(mut b) = self.spares[role as usize].pop() {
            b.reset(spec);
            return b;
        }
        match role {
            Role::Sender => self.factory.sender(spec),
            Role::Receiver => self.factory.receiver(spec),
        }
    }

    /// Return a completed flow's endpoint box to the role's spare pool.
    fn recycle_endpoint(&mut self, ep: crate::host::Endpoint) {
        let spares = &mut self.spares[ep.role as usize];
        if spares.len() < Self::SPARE_CAP {
            spares.push(ep.transport);
        }
    }

    /// Install the fabric loss window: a ToR–Agg or Agg–Core
    /// transmission starting inside it is lost with its probability, drawn
    /// from that link direction's own stream of the run seed. Host links
    /// never lose a packet.
    pub fn set_loss_window(&mut self, window: LossWindow) {
        let seed = self.cfg.seed;
        self.loss_streams = (0..self.cfg.topo.num_links() as u64)
            .map(|l| [0, 1].map(|dir| SplitMix64::derive(seed, 0xFA00_0000 | l << 1 | dir)))
            .collect();
        self.loss_window = Some(window);
    }

    /// Restrict this engine to the nodes mapped to `mine` in `owner`;
    /// arrivals at foreign nodes are exported instead of processed. Used by
    /// the PDES driver.
    pub fn set_partition(&mut self, owner: Arc<Vec<u8>>, mine: u8) {
        assert_eq!(owner.len(), self.cfg.topo.num_nodes() as usize);
        assert!(!self.initialized);
        self.owner_of_node = Some(owner);
        self.my_partition = mine;
        if let Some(d) = self.diag.as_mut() {
            d.obs.set_track(mine as u32);
        }
    }

    /// Turn on the diagnostics recorder (DESIGN.md §9, §14): per-event-kind
    /// and boundary-inference counts, queue totals, the model's telemetry
    /// and tier switches, folded into `Metrics::obs` when metrics are
    /// taken. `timed` adds per-event wall-clock timing and window spans,
    /// which cost tens of percent on short-event workloads; `flight` keeps
    /// a ring of the last that many events (at least one). Recording is
    /// wall-clock only — the simulated trajectory is bit-identical with
    /// diagnostics on or off.
    pub fn enable_diagnostics(&mut self, timed: bool, flight: Option<usize>) {
        let mut obs = dcn_obs::Obs::on();
        obs.set_track(self.my_partition as u32);
        self.diag = Some(Box::new(Diagnostics {
            timed,
            event_count: [0; EventKind::COUNT],
            event_wall_ns: [0; EventKind::COUNT],
            boundary_count: 0,
            boundary_wall_ns: 0,
            demand_wakes: 0,
            demand_wall_ns: 0,
            windows: 0,
            flight: flight.map(dcn_obs::FlightRecorder::new),
            obs,
        }));
    }

    /// This LP's share of the partition-invariant state digest
    /// (DESIGN.md §14): a commutative (`wrapping_add`) combination of
    /// per-item FNV-1a digests over every piece of deterministic state
    /// this LP *owns* —
    ///
    /// * queued future events (time + payload through the state codec;
    ///   the `seq` tiebreak is excluded because it depends on scheduling
    ///   history);
    /// * per-direction transmitter state (`busy_until`, the pending-`TxDone`
    ///   flag and the port queue) and loss stream, attributed to the LP
    ///   owning the transmitting node;
    /// * per-host state for owned hosts: id counter, live flows (spec +
    ///   transport state), finished-flow set, and traffic-generator
    ///   stream position.
    ///
    /// Model state (Mimic weights, fleet lanes, tier ledgers) and metrics
    /// are deliberately excluded: models advance only on their owning LP
    /// and any model-state divergence surfaces through the events it
    /// re-injects within a window. Summing every LP's share equals the
    /// sequential run's digest at the same barrier — asserted at 1/2/4
    /// partitions by the integration suite.
    pub fn window_digest(&self) -> u64 {
        use dcn_obs::digest::Fnv64;
        // One encoder reused across items.
        let scratch = &mut crate::snapshot::SnapWriter::new();
        let mut acc = 0u64;
        // Queued events. Domain tags keep items from different state
        // families from colliding.
        self.queue.for_each_live(|time, kind| {
            scratch.clear();
            scratch.put_u8(0xE1);
            scratch.put_u64(time.as_nanos());
            kind.encode_for_digest(scratch);
            let mut h = Fnv64::new();
            h.write_bytes(scratch.as_bytes());
            acc = acc.wrapping_add(h.finish());
        });
        // Links: transmitter + loss stream per direction (transmitting
        // node's owner).
        for (l, link) in self.links.iter().enumerate() {
            let lid = LinkId(l as u32);
            let (lo, hi) = self.topo.link_ends(lid);
            for dir in [Dir::Up, Dir::Down] {
                let tx_node = match dir {
                    Dir::Up => lo,
                    Dir::Down => hi,
                };
                if !self.owned(tx_node) {
                    continue;
                }
                let tx = link.tx(dir);
                scratch.clear();
                scratch.put_u8(0xA2);
                scratch.put_u32(lid.0);
                scratch.put_u8(dir.index() as u8);
                scratch.put_u64(tx.busy_until.as_nanos());
                scratch.put_bool(tx.done_pending);
                tx.queue.save_state(scratch);
                if let Some(streams) = self.loss_streams.get(l) {
                    scratch.put_u64(streams[dir.index()].state());
                }
                let mut h = Fnv64::new();
                h.write_bytes(scratch.as_bytes());
                acc = acc.wrapping_add(h.finish());
            }
        }
        // Hosts: endpoint + traffic + done state for owned hosts.
        for (hidx, host) in self.hosts.iter().enumerate() {
            let node = NodeId(hidx as u32);
            if !self.owned(node) {
                continue;
            }
            scratch.clear();
            scratch.put_u8(0xA3);
            scratch.put_u32(node.0);
            scratch.put_u64(host.ids.counter());
            let mut flows: Vec<&FlowId> = host.flows.keys().collect();
            flows.sort();
            scratch.put_u64(flows.len() as u64);
            for flow in flows {
                let ep = &host.flows[flow];
                scratch.put_u64(flow.0);
                scratch.put_u8(match ep.role {
                    Role::Sender => 0,
                    Role::Receiver => 1,
                });
                scratch.put_u64(ep.spec.id.0);
                scratch.put_u32(ep.spec.src.0);
                scratch.put_u32(ep.spec.dst.0);
                scratch.put_u64(ep.spec.size_bytes);
                scratch.put_u64(ep.spec.start.as_nanos());
                ep.transport.save_state(scratch);
            }
            let mut done: Vec<u64> = self.done[hidx].iter().map(|f| f.0).collect();
            done.sort_unstable();
            scratch.put_u64(done.len() as u64);
            for id in done {
                scratch.put_u64(id);
            }
            let (rng_state, flow_counter) = self.traffic.host_state(node);
            scratch.put_u64(rng_state);
            scratch.put_u64(flow_counter);
            let mut h = Fnv64::new();
            h.write_bytes(scratch.as_bytes());
            acc = acc.wrapping_add(h.finish());
        }
        acc
    }

    /// The topology being simulated.
    pub fn topo(&self) -> &FatTree {
        &self.topo
    }

    /// The router (exposed for feature extraction: "core switch traversed"
    /// is a deterministic function of the flow).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Configured end of the run.
    pub fn end_time(&self) -> SimTime {
        self.end
    }

    /// Read metrics mid-run.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn owned(&self, node: NodeId) -> bool {
        match &self.owner_of_node {
            None => true,
            Some(owner) => owner[node.0 as usize] == self.my_partition,
        }
    }

    fn init_schedule(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        for h in 0..self.cfg.topo.num_hosts() {
            let host = NodeId(h);
            if !self.owned(host) {
                continue;
            }
            let t = self.traffic.first_arrival(host);
            if t <= self.end {
                self.queue.schedule(t, EventKind::FlowArrival { host });
            }
        }
        // The model-served clusters we own (cluster ownership is keyed off
        // the cluster's first ToR): the only ones whose deferred work this
        // engine may run.
        self.idle_clusters = (0..self.cfg.topo.clusters)
            .filter(|&c| {
                !matches!(self.cluster_modes[c as usize], ClusterMode::Full)
                    && self.owned(self.topo.tor(c, 0))
            })
            .collect();
    }

    /// Run to the configured end and return all metrics.
    pub fn run(&mut self) -> Metrics {
        let end = self.end;
        let leftover = self.run_window(end + SimDuration::from_nanos(1));
        debug_assert!(
            leftover.is_empty(),
            "unpartitioned run exported remote events"
        );
        self.take_metrics()
    }

    /// Fold the diagnostics recorder into `self.metrics.obs` (registry
    /// naming happens here, once per run). No-op with diagnostics off;
    /// consumes the recorder.
    fn fold_obs(&mut self) {
        let Some(mut d) = self.diag.take() else {
            return;
        };
        for i in 0..EventKind::COUNT {
            if d.event_count[i] > 0 {
                d.obs.counter_add(EVENT_COUNT_NAMES[i], d.event_count[i]);
                d.obs.counter_add(EVENT_WALL_NAMES[i], d.event_wall_ns[i]);
            }
        }
        d.obs.counter_add("sim.windows", d.windows);
        d.obs
            .counter_add("sim.events.total", self.metrics.events_processed);
        d.obs.counter_add("mimic.boundary.count", d.boundary_count);
        if self.model.is_some() {
            d.obs
                .counter_add("mimic.fleet.wakes.demand", d.demand_wakes);
        }
        if d.timed {
            d.obs
                .counter_add("mimic.boundary.wall_ns", d.boundary_wall_ns);
            if self.model.is_some() {
                d.obs
                    .counter_add("mimic.fleet.wakes.demand.wall_ns", d.demand_wall_ns);
            }
        }
        let (mut enq, mut drops, mut peak) = (0u64, 0u64, 0u64);
        for link in &self.links {
            for dir in [Dir::Up, Dir::Down] {
                let q = &link.tx(dir).queue;
                enq += q.enqueued;
                drops += q.dropped;
                peak = peak.max(q.peak_bytes);
            }
        }
        d.obs.counter_add("sim.queue.enqueued", enq);
        d.obs.counter_add("sim.queue.dropped", drops);
        d.obs.gauge_set("sim.queue.peak_bytes", peak as f64);
        if let Some(fr) = &d.flight {
            d.obs.counter_add("flight.recorded", fr.total_recorded());
        }
        let mut report = d.obs.take_report().unwrap_or_default();
        if let Some(mut fr) = d.flight.take() {
            report.flight = fr.drain_ordered();
        }
        if let Some(model) = &self.model {
            model.append_obs(&mut report);
        }
        for (c, drift) in self.metrics.cluster_drift.iter().enumerate() {
            if let Some(v) = drift {
                report.gauges.insert(format!("drift.cluster.{c}"), *v);
            }
        }
        // Adaptive-tier telemetry: the realized switch schedule as
        // parallel series, so `--report` can render the timeline and the
        // per-cluster time-in-tier summary. Only owned clusters are in
        // `tier_switches` (see `tier_epoch`), keeping the merged series
        // partition-invariant up to ordering.
        for s in &self.metrics.tier_switches {
            report
                .series
                .entry("tier.switch.epoch".to_string())
                .or_default()
                .push(s.epoch as f64);
            report
                .series
                .entry("tier.switch.cluster".to_string())
                .or_default()
                .push(s.cluster as f64);
            report
                .series
                .entry("tier.switch.from".to_string())
                .or_default()
                .push(s.from.index() as f64);
            report
                .series
                .entry("tier.switch.to".to_string())
                .or_default()
                .push(s.to.index() as f64);
        }
        match &mut self.metrics.obs {
            Some(existing) => existing.merge(report),
            slot @ None => *slot = Some(Box::new(report)),
        }
    }

    /// Process all events strictly before `until`; return packet arrivals
    /// destined for nodes owned by other partitions.
    pub fn run_window(&mut self, until: SimTime) -> Vec<(SimTime, NodeId, Packet)> {
        self.init_schedule();
        let until = until.min(self.end + SimDuration::from_nanos(1));
        if let Some(d) = self.diag.as_mut() {
            d.windows += 1;
            // Window spans only when timed: at tens of thousands of PDES
            // windows per run the two clock reads plus a SpanEvent per
            // window dominate the counts-only overhead.
            if d.timed {
                d.obs.begin("sim.window", "sim", Some(self.now.as_nanos()));
            }
        }
        while let Some(ev) = self.queue.pop_before(until) {
            self.now = ev.time;
            self.metrics.events_processed += 1;
            let Some(d) = self.diag.as_deref_mut() else {
                self.handle(ev.kind);
                continue;
            };
            let kind = ev.kind.index();
            if let Some(fr) = d.flight.as_mut() {
                let packet_id = match &ev.kind {
                    EventKind::Arrive { packet, .. } => packet.id,
                    _ => u64::MAX,
                };
                fr.record(dcn_obs::FlightEvent {
                    lp: self.my_partition as u32,
                    sim_ns: ev.time.as_nanos(),
                    kind: kind as u8,
                    kind_name: EventKind::NAMES[kind],
                    packet_id,
                    queue_depth: self.queue.len() as u32,
                });
            }
            let t0 = d.timed.then(Instant::now);
            self.handle(ev.kind);
            let d = self.diag.as_deref_mut().expect("diagnostics stay on for the run");
            d.event_count[kind] += 1;
            if let Some(t0) = t0 {
                d.event_wall_ns[kind] += t0.elapsed().as_nanos() as u64;
            }
        }
        if let Some(d) = self.diag.as_mut() {
            if d.timed {
                d.obs.end(Some(self.now.as_nanos()));
            }
        }
        std::mem::take(&mut self.outbox)
    }

    /// Dispatch one event to its handler.
    #[inline(always)]
    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::TxDone { link, dir } => self.handle_tx_done(link, dir),
            EventKind::Arrive { node, packet } => self.handle_arrive(node, packet),
            EventKind::Timer { host, flow, token } => self.handle_timer(host, flow, token),
            EventKind::FlowArrival { host } => self.handle_flow_arrival(host),
        }
    }

    /// Spend idle time on the model: run one unit of deferred work due
    /// strictly before `until` (capped at the end of the run) for the
    /// next owned model-served cluster that has any, round-robin. Returns
    /// whether there was any. Sound between windows when `until` is no
    /// later than the next window's start: every crossing and epoch
    /// still to come is at or after it. The PDES driver calls it while
    /// its LP waits at a barrier.
    pub(crate) fn idle_step(&mut self, until: SimTime) -> bool {
        let Some(model) = self.model.as_mut() else {
            return false;
        };
        let until = until.min(self.end + SimDuration::from_nanos(1));
        let n = self.idle_clusters.len();
        for k in 0..n {
            let i = (self.idle_next + k) % n;
            if model.idle(self.idle_clusters[i], until) {
                self.idle_next = (i + 1) % n;
                return true;
            }
        }
        false
    }

    /// Inject an event from another partition.
    pub fn inject_arrival(&mut self, time: SimTime, node: NodeId, packet: Packet) {
        debug_assert!(self.owned(node));
        self.queue
            .schedule(time, EventKind::Arrive { node, packet });
    }

    /// Extract metrics after the run (partitioned mode), with each
    /// Mimic'ed cluster's drift score (if monitored) copied in.
    pub fn take_metrics(&mut self) -> Metrics {
        self.metrics.cluster_drift = self.cluster_drifts();
        self.fold_obs();
        std::mem::replace(&mut self.metrics, Metrics::new(0))
    }

    /// Per-cluster drift scores *right now*, indexed by cluster id —
    /// `None` for packet-level clusters and unmonitored models. PDES epoch
    /// barriers publish these cross-LP (only the owning LP observes a
    /// cluster's traffic) before the adaptive tier decision.
    pub fn cluster_drifts(&self) -> Vec<Option<f64>> {
        let mut v = vec![None; self.cluster_modes.len()];
        if let Some(model) = &self.model {
            for &c in model.clusters() {
                v[c as usize] = model.drift(c);
            }
        }
        v
    }

    /// Epoch-barrier tier update: hand the merged cross-LP drift vector to
    /// the cluster model, which updates its accuracy-budget accounting and
    /// applies any promotions/demotions effective from `at`, the barrier's
    /// simulated time. Callers invoke this between windows only, with
    /// every event before `at` processed and none at or after it, so a
    /// cluster's tier is constant within a window — the barrier-only
    /// transition invariant the partition-count byte-identity tests rely
    /// on. Switches for clusters passing `record` are appended to the
    /// metrics tier schedule (partitioned runs record only owned
    /// clusters, keeping the merged schedule partition-invariant). Returns
    /// every switch applied, recorded or not.
    pub fn tier_epoch(
        &mut self,
        epoch: u64,
        at: SimTime,
        drift: &[Option<f64>],
        record: impl Fn(u32) -> bool,
    ) -> Vec<TierSwitch> {
        let Some(model) = self.model.as_mut() else {
            return Vec::new();
        };
        let switches = model.on_epoch(epoch, at, drift);
        for s in &switches {
            if record(s.cluster) {
                self.metrics.tier_switches.push(*s);
            }
        }
        switches
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn handle_flow_arrival(&mut self, host: NodeId) {
        let gf = self.traffic.next(host, self.now);
        if gf.next_arrival <= self.end {
            self.queue
                .schedule(gf.next_arrival, EventKind::FlowArrival { host });
        }
        if !self.should_create(&gf.spec) {
            return;
        }
        let spec = gf.spec;
        self.metrics.flows.insert(
            spec.id,
            FlowRecord {
                flow: spec.id,
                src: spec.src,
                dst: spec.dst,
                size_bytes: spec.size_bytes,
                start: spec.start,
                end: None,
            },
        );
        let sender = self.acquire_endpoint(Role::Sender, &spec);
        let h = &mut self.hosts[spec.src.0 as usize];
        h.add_endpoint(spec.clone(), sender, Role::Sender);
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        {
            let h = &mut self.hosts[spec.src.0 as usize];
            let ep = h.flows.get_mut(&spec.id).expect("just inserted");
            let mut ctx = TransportCtx {
                now: self.now,
                ids: &mut h.ids,
            };
            ep.transport.on_start(&mut ctx, &mut out);
        }
        self.apply_actions(spec.src, spec.id, &mut out);
        self.scratch = out;
    }

    /// A flow is instantiated only if at least one endpoint lives in a
    /// cluster that still runs full-fidelity traffic; everything else is
    /// Mimic-Mimic traffic whose effect the feeders supply (§6).
    fn should_create(&self, spec: &FlowSpec) -> bool {
        let src_c = self.topo.cluster_of(spec.src).expect("hosts have clusters");
        let dst_c = self.topo.cluster_of(spec.dst).expect("hosts have clusters");
        self.cluster_modes[src_c as usize].full_fidelity_traffic()
            || self.cluster_modes[dst_c as usize].full_fidelity_traffic()
    }

    fn handle_tx_done(&mut self, link: LinkId, dir: Dir) {
        self.links[link.0 as usize].tx_mut(dir).done_pending = false;
        self.try_start_tx(link, dir);
    }

    /// Put the next queued packet on the wire if the transmitter is free.
    /// Completion is lazy: a `TxDone` is scheduled only when a packet waits
    /// behind the one on the wire, so a transmitter that drains its queue
    /// goes idle at `busy_until` without an event.
    fn try_start_tx(&mut self, link_id: LinkId, dir: Dir) {
        let now = self.now;
        let link = &mut self.links[link_id.0 as usize];
        let tx = link.tx_mut(dir);
        if tx.is_busy(now) {
            // A packet waits behind the wire with nothing to wake the
            // transmitter: complete when the current serialization ends.
            if !tx.done_pending && !tx.queue.is_empty() {
                tx.done_pending = true;
                self.queue
                    .schedule(tx.busy_until, EventKind::TxDone { link: link_id, dir });
            }
            return;
        }
        let Some(pkt) = tx.queue.dequeue() else {
            return;
        };
        let ser = link.spec.serialization(pkt.wire_bytes());
        let latency = link.spec.latency;
        let tx = link.tx_mut(dir);
        tx.busy_until = now + ser;
        if !tx.queue.is_empty() {
            tx.done_pending = true;
            self.queue
                .schedule(now + ser, EventKind::TxDone { link: link_id, dir });
        }
        let (lo, hi) = self.topo.link_ends(link_id);
        let peer = match dir {
            Dir::Up => hi,
            Dir::Down => lo,
        };
        // Fabric loss: inside the window a fabric packet occupies the wire
        // until `busy_until` but never arrives. Nothing draws outside the
        // window or on a host link.
        if let Some(w) = &self.loss_window {
            if w.draws_at(now)
                && !self.topo.is_host_link(link_id)
                && self.loss_streams[link_id.0 as usize][dir.index()].bernoulli(w.prob())
            {
                self.metrics.fault_drops += 1;
                return;
            }
        }
        self.schedule_arrival(self.now + ser + latency, peer, pkt);
    }

    /// Schedule a packet arrival, exporting it if the node is foreign.
    fn schedule_arrival(&mut self, time: SimTime, node: NodeId, packet: Packet) {
        if self.owned(node) {
            self.queue
                .schedule(time, EventKind::Arrive { node, packet });
        } else {
            self.outbox.push((time, node, packet));
        }
    }

    fn handle_arrive(&mut self, node: NodeId, pkt: Packet) {
        match self.topo.kind(node) {
            NodeKind::Host => self.arrive_at_host(node, pkt),
            NodeKind::Tor => self.arrive_at_tor(node, pkt),
            NodeKind::Agg => self.arrive_at_agg(node, pkt),
            NodeKind::Core => self.arrive_at_core(node, pkt),
        }
    }

    fn arrive_at_host(&mut self, node: NodeId, pkt: Packet) {
        let cluster = self.topo.cluster_of(node).expect("host has cluster");
        let src_cluster = self.topo.cluster_of(pkt.src);
        if Some(cluster) == self.trace_cluster && src_cluster != Some(cluster) {
            // Ingress exit juncture: external packet delivered to a host of
            // the traced cluster.
            let core = self.router.core_for_flow(pkt.flow);
            self.metrics.boundary.push(BoundaryRecord::from_packet(
                &pkt,
                self.now,
                BoundaryDir::Ingress,
                BoundaryPhase::Exit,
                core,
            ));
        }
        self.deliver_to_endpoint(node, pkt);
    }

    fn arrive_at_tor(&mut self, node: NodeId, mut pkt: Packet) {
        let (cluster, _) = self.topo.tor_coords(node);
        let from_host = self.topo.tor_of_host(pkt.src) == node;
        let dst_cluster = self.topo.cluster_of(pkt.dst).expect("hosts have clusters");
        let leaving = dst_cluster != cluster;

        if from_host && leaving && self.cluster_modes[cluster as usize].models_egress() {
            self.mimic_boundary(cluster, BoundaryDir::Egress, pkt);
            return;
        }
        if process_hop(&mut pkt).is_err() {
            self.metrics.queue_drops += 1;
            return;
        }
        if from_host && leaving && Some(cluster) == self.trace_cluster {
            // Egress enter juncture.
            let core = self.router.core_for_flow(pkt.flow);
            self.metrics.boundary.push(BoundaryRecord::from_packet(
                &pkt,
                self.now,
                BoundaryDir::Egress,
                BoundaryPhase::Enter,
                core,
            ));
        }
        self.forward(node, pkt);
    }

    fn arrive_at_agg(&mut self, node: NodeId, mut pkt: Packet) {
        let (cluster, _) = self.topo.agg_coords(node);
        let dst_cluster = self.topo.cluster_of(pkt.dst).expect("hosts have clusters");
        let src_cluster = self.topo.cluster_of(pkt.src).expect("hosts have clusters");
        let from_core = dst_cluster == cluster && src_cluster != cluster;

        if from_core && self.cluster_modes[cluster as usize].models_ingress() {
            self.mimic_boundary(cluster, BoundaryDir::Ingress, pkt);
            return;
        }
        if process_hop(&mut pkt).is_err() {
            self.metrics.queue_drops += 1;
            return;
        }
        if from_core && Some(cluster) == self.trace_cluster {
            // Ingress enter juncture.
            let core = self.router.core_for_flow(pkt.flow);
            self.metrics.boundary.push(BoundaryRecord::from_packet(
                &pkt,
                self.now,
                BoundaryDir::Ingress,
                BoundaryPhase::Enter,
                core,
            ));
        }
        self.forward(node, pkt);
    }

    fn arrive_at_core(&mut self, node: NodeId, mut pkt: Packet) {
        let src_cluster = self.topo.cluster_of(pkt.src);
        if self.trace_cluster.is_some() && src_cluster == self.trace_cluster {
            // Egress exit juncture: the packet left the traced cluster.
            self.metrics.boundary.push(BoundaryRecord::from_packet(
                &pkt,
                self.now,
                BoundaryDir::Egress,
                BoundaryPhase::Exit,
                node,
            ));
        }
        if process_hop(&mut pkt).is_err() {
            self.metrics.queue_drops += 1;
            return;
        }
        self.forward(node, pkt);
    }

    fn forward(&mut self, node: NodeId, pkt: Packet) {
        let hop = self.router.route(node, pkt.flow, pkt.dst);
        self.metrics.hops_forwarded += 1;
        let tx = self.links[hop.link.0 as usize].tx_mut(hop.dir);
        match tx.queue.enqueue(pkt) {
            crate::queue::EnqueueOutcome::Dropped => {
                self.metrics.queue_drops += 1;
            }
            crate::queue::EnqueueOutcome::Enqueued { marked } => {
                if marked {
                    self.metrics.ecn_marks += 1;
                }
                self.try_start_tx(hop.link, hop.dir);
            }
        }
    }

    /// A packet crossing a mimic'ed cluster's boundary: ask the cluster
    /// model for its verdict and schedule its reappearance on the other
    /// side. Every latency is at least the model's floor, so the arrival is
    /// strictly in the future (and, in a composed PDES run, at or beyond
    /// the window's end for exports).
    fn mimic_boundary(&mut self, cluster: u32, dir: BoundaryDir, pkt: Packet) {
        let item = BoundaryItem {
            cluster,
            dir,
            pkt,
            enqueued_at: self.now,
        };
        let t0 = self.diag.as_deref().is_some_and(|d| d.timed).then(Instant::now);
        let model = self.model.as_mut().expect("mimic cluster without model");
        // Warm the cluster up to the crossing first (the drain `infer`
        // relies on, see `ClusterModel`), timed apart from the verdict.
        let mut warmed = 0;
        while model.idle(cluster, self.now) {
            warmed += 1;
        }
        let t1 = t0.map(|_| Instant::now());
        let verdict = model.infer(&item);
        if let Some(d) = self.diag.as_mut() {
            d.boundary_count += 1;
            d.demand_wakes += warmed;
            if let (Some(t0), Some(t1)) = (t0, t1) {
                d.demand_wall_ns += (t1 - t0).as_nanos() as u64;
                d.boundary_wall_ns += t1.elapsed().as_nanos() as u64;
            }
        }
        match verdict {
            Verdict::Drop => self.metrics.mimic_drops += 1,
            Verdict::Deliver { latency, mark_ce } => {
                let mut pkt = item.pkt;
                if mark_ce && pkt.ecn.is_capable() {
                    pkt.ecn = Ecn::Ce;
                }
                let target = match dir {
                    BoundaryDir::Egress => self.router.core_for_flow(pkt.flow),
                    BoundaryDir::Ingress => pkt.dst,
                };
                self.schedule_arrival(self.now + latency, target, pkt);
            }
        }
    }

    fn deliver_to_endpoint(&mut self, host: NodeId, pkt: Packet) {
        let idx = host.0 as usize;
        if !self.hosts[idx].flows.contains_key(&pkt.flow) {
            if self.done[idx].contains(&pkt.flow) {
                // TIME_WAIT-style responder: re-ack retransmits of flows we
                // already finished so lost final acks cannot livelock the
                // sender.
                if pkt.kind == PacketKind::Data {
                    let ack = Packet::ack(
                        self.hosts[idx].ids.next(),
                        pkt.flow,
                        host,
                        pkt.src,
                        pkt.flow_size,
                        false,
                        pkt.sent_at,
                        self.now,
                    );
                    self.send_from_host(host, ack);
                }
                return;
            }
            if pkt.kind != PacketKind::Data {
                // Stray control packet for an unknown flow (e.g. a dup ack
                // racing the sender's completion); drop it.
                return;
            }
            // First contact: instantiate the receiver endpoint.
            let spec = FlowSpec {
                id: pkt.flow,
                src: pkt.src,
                dst: pkt.dst,
                size_bytes: pkt.flow_size,
                start: self.now,
            };
            let recv = self.acquire_endpoint(Role::Receiver, &spec);
            self.hosts[idx].add_endpoint(spec, recv, Role::Receiver);
        }
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        {
            let h = &mut self.hosts[idx];
            let ep = h.flows.get_mut(&pkt.flow).expect("endpoint exists");
            let mut ctx = TransportCtx {
                now: self.now,
                ids: &mut h.ids,
            };
            ep.transport.on_packet(&pkt, &mut ctx, &mut out);
        }
        self.apply_actions(host, pkt.flow, &mut out);
        self.scratch = out;
    }

    fn handle_timer(&mut self, host: NodeId, flow: FlowId, token: u64) {
        let idx = host.0 as usize;
        if !self.hosts[idx].flows.contains_key(&flow) {
            return; // flow completed; stale timer
        }
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        {
            let h = &mut self.hosts[idx];
            let ep = h.flows.get_mut(&flow).expect("endpoint exists");
            let mut ctx = TransportCtx {
                now: self.now,
                ids: &mut h.ids,
            };
            ep.transport.on_timer(token, &mut ctx, &mut out);
        }
        self.apply_actions(host, flow, &mut out);
        self.scratch = out;
    }

    /// Apply a transport's requested actions on behalf of `host`.
    fn apply_actions(&mut self, host: NodeId, flow: FlowId, out: &mut Actions) {
        for rtt in out.rtt_samples.drain(..) {
            self.metrics.rtt.push(RttSample {
                host,
                time: self.now,
                rtt,
            });
        }
        if out.delivered > 0 {
            self.metrics.record_delivery(host, self.now, out.delivered);
        }
        for (delay, token) in out.timers.drain(..) {
            let t = self.now + delay;
            if t <= self.end {
                self.queue.schedule(t, EventKind::Timer { host, flow, token });
            }
        }
        for pkt in out.sends.drain(..) {
            self.send_from_host(host, pkt);
        }
        if out.completed {
            let idx = host.0 as usize;
            if let Some(ep) = self.hosts[idx].remove_endpoint(flow) {
                let role = ep.role;
                self.recycle_endpoint(ep);
                self.done[idx].insert(flow);
                if role == Role::Sender {
                    if let Some(rec) = self.metrics.flows.get_mut(&flow) {
                        rec.end = Some(self.now);
                    }
                }
            } else {
                self.done[idx].insert(flow);
            }
        }
    }

    fn send_from_host(&mut self, host: NodeId, pkt: Packet) {
        let link = self.topo.host_link(host);
        let tx = self.links[link.0 as usize].tx_mut(Dir::Up);
        match tx.queue.enqueue(pkt) {
            crate::queue::EnqueueOutcome::Dropped => {
                self.metrics.queue_drops += 1;
            }
            crate::queue::EnqueueOutcome::Enqueued { marked } => {
                if marked {
                    self.metrics.ecn_marks += 1;
                }
                self.try_start_tx(link, Dir::Up);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlowSizeDist, SimConfig};
    use crate::mimic::ConstModel;

    fn quick_cfg() -> SimConfig {
        let mut cfg = SimConfig::small_scale();
        cfg.duration_s = 0.3;
        cfg.seed = 42;
        cfg
    }

    /// Cluster 1 behind a constant 2 ms model.
    fn const_model(drop_prob: f64) -> Box<ConstModel> {
        Box::new(ConstModel::new(vec![1], SimDuration::from_millis(2), drop_prob, 7))
    }

    #[test]
    fn flows_complete_end_to_end() {
        let mut sim = Simulation::new(quick_cfg());
        let m = sim.run();
        assert!(m.flows_started() > 0, "no flows started");
        assert!(m.flows_completed() > 0, "no flows completed");
        assert!(m.total_delivered_bytes() > 0);
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut cfg = quick_cfg();
            cfg.seed = seed;
            let mut sim = Simulation::new(cfg);
            sim.run().total_delivered_bytes()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn fcts_are_positive_and_bounded() {
        let mut sim = Simulation::new(quick_cfg());
        let m = sim.run();
        for f in m.fct_samples(|_| true) {
            assert!(f > 0.0 && f <= 0.3 + 1e-9, "fct {f}");
        }
    }

    #[test]
    fn rtt_samples_exceed_propagation_floor() {
        let mut sim = Simulation::new(quick_cfg());
        let m = sim.run();
        let rtts = m.rtt_samples(|_| true);
        assert!(!rtts.is_empty());
        // Minimum RTT: 2 links each way at 500 us = 2 ms, plus serialization.
        for r in rtts {
            assert!(r >= 0.002, "rtt {r} below propagation floor");
        }
    }

    #[test]
    fn boundary_trace_matches_directionality() {
        let mut cfg = quick_cfg();
        cfg.traffic.inter_cluster_fraction = 0.8;
        let mut sim = Simulation::new(cfg);
        sim.trace_cluster(1);
        let m = sim.run();
        assert!(!m.boundary.is_empty(), "no boundary records");
        let topo = FatTree::new(cfg.topo);
        for r in &m.boundary {
            match (r.dir, r.phase) {
                (BoundaryDir::Egress, _) => {
                    assert_eq!(topo.cluster_of(r.src), Some(1), "egress src must be local")
                }
                (BoundaryDir::Ingress, _) => {
                    assert_eq!(topo.cluster_of(r.dst), Some(1), "ingress dst must be local")
                }
            }
        }
        // Every exit must come at or after its enter.
        use std::collections::HashMap;
        let mut enters: HashMap<u64, SimTime> = HashMap::new();
        for r in &m.boundary {
            match r.phase {
                BoundaryPhase::Enter => {
                    enters.insert(r.pkt_id, r.time);
                }
                BoundaryPhase::Exit => {
                    if let Some(&tin) = enters.get(&r.pkt_id) {
                        assert!(r.time > tin, "exit not after enter");
                    }
                }
            }
        }
    }

    #[test]
    fn mimic_cluster_carries_traffic() {
        let mut cfg = quick_cfg();
        cfg.traffic.inter_cluster_fraction = 1.0;
        let mut sim = Simulation::new(cfg);
        sim.set_cluster_model(const_model(0.0));
        let m = sim.run();
        // Flows between cluster 0 and cluster 1 still complete.
        assert!(m.flows_completed() > 0);
        let topo = FatTree::new(cfg.topo);
        // Flows wholly inside the mimic cluster were never created.
        for f in m.flows.values() {
            let sc = topo.cluster_of(f.src).unwrap();
            let dc = topo.cluster_of(f.dst).unwrap();
            assert!(sc == 0 || dc == 0, "mimic-mimic flow was created");
        }
    }

    #[test]
    fn mimic_model_drops_reduce_completions() {
        let mut cfg = quick_cfg();
        cfg.traffic.inter_cluster_fraction = 1.0;
        let run = |drop_prob: f64| {
            let mut sim = Simulation::new(cfg);
            sim.set_cluster_model(const_model(drop_prob));
            let m = sim.run();
            (m.mimic_drops, m.flows_completed())
        };
        let (drops_none, done_none) = run(0.0);
        let (drops_heavy, done_heavy) = run(0.5);
        assert_eq!(drops_none, 0);
        assert!(drops_heavy > 0);
        assert!(done_heavy < done_none, "heavy drops should slow flows");
    }

    #[test]
    fn ecn_marks_appear_with_marking_queues() {
        let mut cfg = quick_cfg();
        cfg.queue.ecn_k = Some(2);
        cfg.traffic.load = 1.2; // overload to force queues
        cfg.traffic.size = FlowSizeDist::Fixed { bytes: 100_000 };
        let mut sim = Simulation::new(cfg);
        let m = sim.run();
        // The testing transport is not ECN-capable, so marks require
        // capable packets — there should be none.
        assert_eq!(m.ecn_marks, 0);
    }

    #[test]
    fn overload_causes_queue_drops() {
        let mut cfg = quick_cfg();
        cfg.traffic.load = 1.5;
        cfg.traffic.size = FlowSizeDist::Fixed { bytes: 200_000 };
        cfg.queue.capacity_bytes = 15_000;
        let mut sim = Simulation::new(cfg);
        let m = sim.run();
        assert!(m.queue_drops > 0, "expected drops under overload");
    }

    /// A window covering the whole run.
    fn whole_run(prob: f64) -> LossWindow {
        LossWindow::new(SimTime::ZERO, SimTime::MAX, prob).unwrap()
    }

    #[test]
    fn link_faults_drop_packets_but_tcp_recovers() {
        let mut sim = Simulation::new(quick_cfg());
        sim.set_loss_window(whole_run(0.02));
        let m = sim.run();
        assert!(m.fault_drops > 0, "no injected losses at 2%");
        assert!(m.flows_completed() > 0, "retransmission should recover");
        // Loss rate sanity: ~2% of fabric transmissions.
        let rate = m.fault_drops as f64 / (m.fault_drops + m.hops_forwarded).max(1) as f64;
        assert!(rate < 0.1, "implausible injected loss rate {rate}");
        // Without a window there are none.
        let m0 = Simulation::new(quick_cfg()).run();
        assert_eq!(m0.fault_drops, 0);
    }

    #[test]
    fn empty_fault_plan_preserves_trajectory() {
        // A window at probability 0 draws nothing: the run is byte for
        // byte the window-free one.
        let baseline = Simulation::new(quick_cfg()).run();
        let mut sim = Simulation::new(quick_cfg());
        sim.set_loss_window(whole_run(0.0));
        let m = sim.run();
        assert_eq!(m.fault_drops, 0);
        assert!(m.canonical_bytes() == baseline.canonical_bytes());
    }

    #[test]
    fn gray_loss_window_drops_packets() {
        let mut cfg = quick_cfg();
        cfg.duration_s = 0.5;
        let window = LossWindow::new(
            SimTime::from_secs_f64(0.1),
            SimTime::from_secs_f64(0.4),
            0.05,
        )
        .unwrap();
        let mut sim = Simulation::new(cfg);
        sim.set_loss_window(window);
        let m = sim.run();
        assert!(m.fault_drops > 0, "gray loss injected no drops");
        assert!(m.flows_completed() > 0, "retransmission should recover");
    }

    #[test]
    fn same_plan_same_seed_is_deterministic() {
        let run = || {
            let mut cfg = quick_cfg();
            cfg.duration_s = 0.4;
            let window = LossWindow::new(
                SimTime::from_secs_f64(0.1),
                SimTime::from_secs_f64(0.3),
                0.02,
            )
            .unwrap();
            let mut sim = Simulation::new(cfg);
            sim.set_loss_window(window);
            let m = sim.run();
            assert!(m.fault_drops > 0, "the window dropped nothing");
            m.canonical_bytes()
        };
        assert!(run() == run());
    }

    #[test]
    fn obs_event_counts_match_events_processed() {
        let mut sim = Simulation::new(quick_cfg());
        sim.enable_diagnostics(true, None);
        let m = sim.run();
        let report = m.obs.as_ref().unwrap();
        let sum: u64 = EVENT_COUNT_NAMES.iter().map(|n| report.counter(n)).sum();
        assert_eq!(sum, m.events_processed);
        assert_eq!(report.counter("sim.events.total"), m.events_processed);
        assert_eq!(report.counter("sim.windows"), 1);
        // The single whole-run window span exists and carries sim time.
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "sim.window");
        assert!(report.spans[0].sim_end_ns.unwrap() > 0);
        // Queues saw traffic.
        assert!(report.counter("sim.queue.enqueued") > 0);
        assert!(report.gauges["sim.queue.peak_bytes"] > 0.0);
    }

    #[test]
    fn obs_counts_one_boundary_inference_per_crossing() {
        // A model that drops everything: crossings == inferences == drops.
        let run = |timed: bool| {
            let mut cfg = quick_cfg();
            cfg.traffic.inter_cluster_fraction = 1.0;
            let mut sim = Simulation::new(cfg);
            sim.set_cluster_model(const_model(1.0));
            sim.enable_diagnostics(timed, None);
            sim.run()
        };
        let (timed, light) = (run(true), run(false));
        let (t, l) = (timed.obs.as_ref().unwrap(), light.obs.as_ref().unwrap());
        assert!(timed.mimic_drops > 0);
        assert_eq!(t.counter("mimic.boundary.count"), timed.mimic_drops);
        assert_eq!(l.counter("mimic.boundary.count"), timed.mimic_drops);
        assert!(t.counters.contains_key("mimic.boundary.wall_ns"));
        assert!(!l.counters.contains_key("mimic.boundary.wall_ns"));
    }

    #[test]
    fn conservation_no_spontaneous_bytes() {
        let mut sim = Simulation::new(quick_cfg());
        let m = sim.run();
        let offered: u64 = m.flows.values().map(|f| f.size_bytes).sum();
        assert!(
            m.total_delivered_bytes() <= offered,
            "delivered more than offered"
        );
    }
}
