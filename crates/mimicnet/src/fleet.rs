//! The Mimic fleet: every Mimic'ed cluster of a composed simulation behind
//! one [`ClusterModel`] (paper §4.1, §7.1).
//!
//! "The Mimic clusters are constructed by taking the ingress/egress
//! internal models and feeders … and wrapping them with a thin shim layer.
//! The layer intercepts packets arriving at the borders of the cluster,
//! periodically takes packets from the feeders, and queries the internal
//! models with both to predict the network's effects. The output of the
//! shim is, thus, either a packet, its egress time, and its egress
//! location; or its absence."
//!
//! The engine calls [`MimicFleet::infer`] once per boundary packet, at the
//! packet's own event. Each (cluster, direction) *lane* owns a recurrent
//! `ModelState`, a [`FeatureExtractor`] whose congestion estimate feeds
//! back from each prediction into the next packet's features, a decision
//! RNG and a per-flow FIFO table — and nothing is shared between lanes but
//! read-only weights. A verdict therefore depends only on the calls its
//! own lane saw at and before it, which is what makes sequential and
//! partitioned composed runs bit-identical.
//!
//! Feeder warm-up runs on demand. Each cluster keeps a wake cursor on the
//! paper's periodic feeder schedule ("periodically takes packets from the
//! feeders", §7.1): wakes 2 ms apart at the earliest, each drawing every
//! synthetic packet then due. [`ClusterModel::idle`] runs them: the
//! engine drains a cluster's wakes strictly before a boundary packet's
//! time just before asking for its verdict, and may run them earlier in
//! idle time. A wake draws every due packet but runs only the state that
//! crosses packets: the feeder's interarrival clock and the lane's
//! interarrival features, so that chain sees the whole feeder stream. It
//! builds no packet view or feature row and steps no LSTM: each lane
//! keeps its last `window` unstepped feeder packets (the context the
//! model was trained on, [`TrainedMimic::window`]) as due time, view
//! stream position and raw time features, and the next verdict builds
//! their rows and replays them, oldest first, before it predicts. Those
//! rows are bit-identical to rows built at the wake. So a verdict
//! depends only on its lane's items and feeder stream, not on when the
//! wakes ran, and wakes no verdict ever reads need never run.
//!
//! Ordering invariants maintained here (locked down by the fleet-ordering
//! suite):
//!
//! * **Lane independence** — verdicts depend only on each lane's own item
//!   order, never on how other lanes' items interleave with it.
//! * **Per-flow FIFO** — a flow's exit times are monotone within a lane: a
//!   later packet never exits before an earlier one, even when the model
//!   predicts it a smaller latency (queues don't reorder a flow; §5.1's
//!   instrumentation junctures preserve this too).
//! * **Causality** — every verdict's exit time is at least
//!   [`latency_floor`](ClusterModel::latency_floor) past its enqueue time,
//!   which is the lookahead a composed PDES run synchronizes on.

use crate::drift::DriftMonitor;
use crate::features::FeatureExtractor;
use crate::feeder::Feeder;
use crate::internal_model::InternalModel;
use crate::mimic::{packet_view, DecisionMode, TrainedMimic};
use dcn_sim::mimic::{BoundaryDir, BoundaryItem, ClusterModel, Verdict};
use dcn_sim::packet::FlowId;
use dcn_sim::rng::SplitMix64;
use dcn_sim::time::{SimDuration, SimTime};
use dcn_sim::topology::{FatTree, FatTreeParams};
use mimic_ml::model::ModelState;
use std::collections::HashMap;
use std::sync::Arc;

/// Minimum spacing of a cluster's feeder wakes: each wake drains every
/// synthetic packet due by then, and feature timestamps stay exact
/// because `Feeder::tick` returns each packet's own due time.
const WAKE_PERIOD: SimDuration = SimDuration(2_000_000);

/// A feeder packet a lane has drawn but not yet stepped: its due time,
/// the stream position of its view draws ([`Feeder::view`]) and the raw
/// time features [`FeatureExtractor::advance`] gave it. Its row is built
/// only if a verdict replays it.
#[derive(Clone, Copy, Debug, Default)]
struct Pending {
    due: SimTime,
    position: u64,
    dt: f64,
    ewma: f64,
}

/// The feeder packets a lane has drawn but not yet stepped: the newest
/// `slots.len()` of them, a ring starting at `head`, allocated once.
#[derive(Debug)]
struct Backlog {
    slots: Vec<Pending>,
    head: usize,
    len: usize,
}

impl Backlog {
    fn new(cap: usize) -> Backlog {
        assert!(cap >= 1, "a replay window of at least one packet");
        Backlog {
            slots: vec![Pending::default(); cap],
            head: 0,
            len: 0,
        }
    }

    /// Keep `p`, in the next free slot or over the oldest packet when the
    /// ring is full.
    fn push(&mut self, p: Pending) {
        let cap = self.slots.len();
        self.slots[(self.head + self.len) % cap] = p;
        if self.len == cap {
            self.head = (self.head + 1) % cap;
        } else {
            self.len += 1;
        }
    }

    /// Step `model` through the packets, oldest first, each encoded into
    /// `row` from `feeder`'s view of it under `fx`'s current congestion
    /// regime, and empty the ring. Returns the number of steps.
    fn replay(
        &mut self,
        feeder: &Feeder,
        fx: &FeatureExtractor,
        model: &InternalModel,
        state: &mut ModelState,
        row: &mut [f32],
    ) -> u64 {
        for i in 0..self.len {
            let p = self.slots[(self.head + i) % self.slots.len()];
            fx.encode(&feeder.view(p.due, p.position), p.dt, p.ewma, row);
            model.update_only(row, state);
        }
        let steps = self.len as u64;
        (self.head, self.len) = (0, 0);
        steps
    }
}

/// What one direction's verdicts decided (instrumentation), exported as
/// `mimic.fleet.{ingress,egress}.{verdicts,drops,ce_marks}`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    pub verdicts: u64,
    pub drops: u64,
    pub ce_marks: u64,
}

/// Counter-name direction labels, in [`MimicFleet::outcomes`] order.
pub const DIRECTIONS: [&str; 2] = ["ingress", "egress"];

impl VerdictCounts {
    /// Direction `dir`'s counts (a [`DIRECTIONS`] label) from a run's
    /// merged telemetry; zero where it carries none.
    pub fn from_report(report: &dcn_obs::ObsReport, dir: &str) -> VerdictCounts {
        let n = |what: &str| report.counter(&format!("mimic.fleet.{dir}.{what}"));
        VerdictCounts {
            verdicts: n("verdicts"),
            drops: n("drops"),
            ce_marks: n("ce_marks"),
        }
    }

    /// Dropped share of the verdicts (0 with none).
    pub fn drop_rate(&self) -> f64 {
        self.drops as f64 / self.verdicts.max(1) as f64
    }

    /// CE-marked share of the verdicts (0 with none).
    pub fn mark_rate(&self) -> f64 {
        self.ce_marks as f64 / self.verdicts.max(1) as f64
    }
}

/// One (cluster, direction) inference lane.
struct Lane {
    fx: FeatureExtractor,
    state: ModelState,
    feeder: Feeder,
    /// Feeder packets waiting for the lane's next verdict.
    backlog: Backlog,
    /// Per-lane decision stream: the draws depend only on this lane's item
    /// order.
    rng: SplitMix64,
    /// Last predicted exit time per flow (FIFO clamp). An entry whose exit
    /// is not after the lane's current enqueue time can no longer clamp
    /// anything (per-lane enqueue times are monotone); such entries are
    /// evicted whenever a new flow finds the table at a power-of-two size.
    /// That bounds the table by twice its peak live size and paces
    /// eviction off the table itself, so its contents are the same at
    /// every partition count.
    last_exit: HashMap<FlowId, SimTime>,
    /// Ingress lanes score live features against the training envelope.
    monitor: Option<DriftMonitor>,
}

/// A [`ClusterModel`] serving every Mimic'ed cluster of one composed
/// simulation from a single bundle (§7.1 keeps every parameter but the
/// cluster count constant, so one model describes every Mimic).
pub struct MimicFleet {
    /// Shared, read-only: the fleets of a partitioned run step one set of
    /// weights instead of a private copy per LP.
    bundle: Arc<TrainedMimic>,
    clusters: Vec<u32>,
    /// Dense cluster-id → lane-index map (`u32::MAX` = not served).
    slot: Vec<u32>,
    topo: FatTree,
    mode: DecisionMode,
    floor: SimDuration,
    /// Per direction, lane `i` belongs to `clusters[i]`.
    ingress: Vec<Lane>,
    egress: Vec<Lane>,
    /// Per cluster (lane index), the time of its next feeder wake; `None`
    /// when neither direction has a feeder (two-cluster compositions).
    wake: Vec<Option<SimTime>>,
    /// Reusable feature row, `width` long, for live packets and replayed
    /// feeder packets alike: the per-packet path never allocates.
    feat_buf: Vec<f32>,
    /// Counters for instrumentation/tests: verdicts, feeder packets
    /// drawn, feeder rows stepped through the LSTM, and per direction
    /// (ingress, egress) what the verdicts decided.
    pub packets_seen: u64,
    pub feeder_packets: u64,
    pub feeder_steps: u64,
    pub outcomes: [VerdictCounts; 2],
}

impl MimicFleet {
    /// Every cluster in `cluster_seeds` runs `bundle`. Each entry pairs a
    /// cluster index with its Mimic seed, keeping feeder and decision
    /// streams decorrelated across clusters. Pass an `Arc` to share one
    /// bundle between the fleets of a partitioned run; an owned bundle is
    /// wrapped.
    pub fn new(
        bundle: impl Into<Arc<TrainedMimic>>,
        topo_params: FatTreeParams,
        n_clusters: u32,
        cluster_seeds: &[(u32, u64)],
    ) -> MimicFleet {
        let bundle: Arc<TrainedMimic> = bundle.into();
        assert!(!cluster_seeds.is_empty(), "fleet needs at least one cluster");
        let mut slot = vec![u32::MAX; n_clusters as usize];
        for (li, &(c, _)) in cluster_seeds.iter().enumerate() {
            assert!(c < n_clusters, "cluster {c} out of range");
            assert_eq!(slot[c as usize], u32::MAX, "cluster {c} assigned twice");
            slot[c as usize] = li as u32;
        }
        let fc = bundle.feature_cfg;
        let window = bundle.window.0;
        let make_dir = |dir: BoundaryDir| -> Vec<Lane> {
            let (model, fit, tag) = match dir {
                BoundaryDir::Ingress => (&bundle.ingress, &bundle.feeder.ingress, 0x1u64),
                BoundaryDir::Egress => (&bundle.egress, &bundle.feeder.egress, 0x2u64),
            };
            cluster_seeds
                .iter()
                .map(|&(_, seed)| Lane {
                    fx: FeatureExtractor::new(fc),
                    state: model.init_state(),
                    feeder: Feeder::new(
                        fit.clone(),
                        n_clusters,
                        fc.racks_per_cluster,
                        fc.hosts_per_rack,
                        fc.aggs_per_cluster,
                        fc.cores,
                        seed ^ tag,
                    ),
                    backlog: Backlog::new(window),
                    rng: SplitMix64::derive(seed, 0x4D49_0000 | tag),
                    last_exit: HashMap::new(),
                    monitor: match dir {
                        BoundaryDir::Ingress => bundle.envelope.clone().map(DriftMonitor::new),
                        BoundaryDir::Egress => None,
                    },
                })
                .collect()
        };
        let ingress = make_dir(BoundaryDir::Ingress);
        let egress = make_dir(BoundaryDir::Egress);
        let wake = (0..cluster_seeds.len())
            .map(|li| wake_after(&ingress[li], &egress[li], SimTime::ZERO))
            .collect();

        MimicFleet {
            clusters: cluster_seeds.iter().map(|&(c, _)| c).collect(),
            slot,
            topo: FatTree::new(topo_params),
            mode: DecisionMode::Sample,
            // Lower bound on any predicted latency.
            floor: bundle.latency_floor(),
            ingress,
            egress,
            wake,
            feat_buf: vec![0.0; fc.width()],
            bundle,
            packets_seen: 0,
            feeder_packets: 0,
            feeder_steps: 0,
            outcomes: [VerdictCounts::default(); 2],
        }
    }

    /// Switch decision mode (default: [`DecisionMode::Sample`]).
    pub fn with_mode(mut self, mode: DecisionMode) -> MimicFleet {
        self.mode = mode;
        self
    }

    /// The lane `item` belongs to.
    fn lane_of(&self, item: &BoundaryItem) -> usize {
        let li = self.slot[item.cluster as usize];
        assert!(li != u32::MAX, "item for unserved cluster {}", item.cluster);
        li as usize
    }

    /// Extract `item`'s features into `feat_buf` through its lane's
    /// extractor, scoring them against the training envelope on ingress
    /// lanes (egress lanes carry no monitor).
    fn extract(topo: &FatTree, lane: &mut Lane, item: &BoundaryItem, feat_buf: &mut Vec<f32>) {
        let view = packet_view(topo, item.dir, &item.pkt, item.enqueued_at);
        lane.fx.extract_into(&view, feat_buf);
        if let Some(mon) = &mut lane.monitor {
            mon.observe(feat_buf);
        }
    }

    /// Feed one boundary packet through its lane's feature extractor and
    /// ingress drift monitor *without* running inference. The adaptive
    /// fleet calls this for clusters served below the Mimic tier: the
    /// promotion decision needs live drift signal even while the LSTM is
    /// dormant, and the feature path is deterministic in the lane's item
    /// order just like the full inference path. The caller has run the
    /// cluster's wakes before the item (see [`MimicFleet::pending_wake`]).
    pub(crate) fn observe_boundary(&mut self, item: &BoundaryItem) {
        let li = self.lane_of(item);
        let lane = match item.dir {
            BoundaryDir::Ingress => &mut self.ingress[li],
            BoundaryDir::Egress => &mut self.egress[li],
        };
        Self::extract(&self.topo, lane, item, &mut self.feat_buf);
    }

    /// The time of `cluster`'s next feeder wake, if it is strictly before
    /// `until`. A wake ranks after every boundary packet at its own time,
    /// hence the strict bound.
    pub(crate) fn pending_wake(&self, cluster: u32, until: SimTime) -> Option<SimTime> {
        self.wake[self.slot[cluster as usize] as usize].filter(|&w| w < until)
    }

    /// Run `cluster`'s next feeder wake: draw every synthetic packet due
    /// by then and move the cursor on. A draw runs only the state that
    /// crosses packets: the feeder's interarrival clock
    /// ([`Feeder::tick`]) and, with `full`, the lane's interarrival
    /// features ([`FeatureExtractor::advance`]), after which the packet
    /// joins the lane's backlog for the next verdict to step (§6; the
    /// outputs of those steps are discarded). Its view and row are built
    /// only if that verdict replays it. Without `full`, only the feeders'
    /// streams advance: a Flow-tier cluster keeps its feeder schedule
    /// aligned with what the Mimic tier would have consumed, so a later
    /// promotion re-joins the same deterministic schedule, and its
    /// backlog waits untouched.
    ///
    /// Direction-major: every due ingress packet, then every due egress
    /// one. A cluster's two directions share no state (own feeder RNG,
    /// extractor and backlog; `feeder_packets` is a sum), so only
    /// per-lane order matters.
    pub(crate) fn run_wake(&mut self, cluster: u32, full: bool) {
        let li = self.slot[cluster as usize] as usize;
        let now = self.wake[li].expect("a pending wake");
        for lane in [&mut self.ingress[li], &mut self.egress[li]] {
            while let Some((due, position)) = lane.feeder.tick(now) {
                if full {
                    let (dt, ewma) = lane.fx.advance(due);
                    lane.backlog.push(Pending { due, position, dt, ewma });
                }
                self.feeder_packets += 1;
            }
        }
        self.wake[li] = wake_after(&self.ingress[li], &self.egress[li], now);
    }

    /// Predict one boundary packet on its lane, whose wakes before the
    /// item have run: build and step the rows of the lane's feeder
    /// backlog, then the packet. A backlog row's congestion bit is read
    /// here rather than at its wake; that is the same bit, because the
    /// regime moves only in `observe_outcome` below and every packet in
    /// the backlog was drawn after the lane's previous verdict.
    pub(crate) fn verdict(&mut self, item: &BoundaryItem) -> Verdict {
        self.packets_seen += 1;
        let li = self.lane_of(item);
        let (lane, model, tally) = match item.dir {
            BoundaryDir::Ingress => (
                &mut self.ingress[li],
                &self.bundle.ingress,
                &mut self.outcomes[0],
            ),
            BoundaryDir::Egress => (
                &mut self.egress[li],
                &self.bundle.egress,
                &mut self.outcomes[1],
            ),
        };
        self.feeder_steps += lane.backlog.replay(
            &lane.feeder,
            &lane.fx,
            model,
            &mut lane.state,
            &mut self.feat_buf,
        );
        Self::extract(&self.topo, lane, item, &mut self.feat_buf);
        let pred = model.predict(&self.feat_buf, &mut lane.state);
        tally.verdicts += 1;
        if decide(&mut lane.rng, self.mode, pred.p_drop) {
            lane.fx.observe_outcome(1.0, true);
            tally.drops += 1;
            return Verdict::Drop;
        }
        let mark_ce = item.pkt.ecn.is_capable() && decide(&mut lane.rng, self.mode, pred.p_ecn);
        tally.ce_marks += u64::from(mark_ce);
        lane.fx.observe_outcome(pred.latency_norm, false);
        let latency = SimDuration::from_secs_f64(pred.latency_s.max(1e-6)).max(self.floor);
        let mut exit = item.enqueued_at + latency;
        // FIFO clamp: a flow never exits earlier than its previous packet
        // did (equal times are delivered in packet-id order by the
        // engine's event tags).
        if let Some(prev) = lane.last_exit.get_mut(&item.pkt.flow) {
            exit = exit.max(*prev);
            *prev = exit;
        } else {
            if lane.last_exit.len().is_power_of_two() {
                lane.last_exit.retain(|_, e| *e > item.enqueued_at);
            }
            lane.last_exit.insert(item.pkt.flow, exit);
        }
        Verdict::Deliver {
            latency: SimDuration(exit.0 - item.enqueued_at.0),
            mark_ce,
        }
    }
}

/// The wake after one at `now`: the earliest feeder due time of the
/// cluster's two lanes, but no sooner than [`WAKE_PERIOD`] after `now`.
fn wake_after(ingress: &Lane, egress: &Lane, now: SimTime) -> Option<SimTime> {
    let earliest = match (ingress.feeder.next_time(), egress.feeder.next_time()) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }?;
    Some(earliest.max(now + WAKE_PERIOD))
}

fn decide(rng: &mut SplitMix64, mode: DecisionMode, p: f64) -> bool {
    match mode {
        DecisionMode::Sample => rng.bernoulli(p),
        DecisionMode::Threshold => p > 0.5,
    }
}

impl ClusterModel for MimicFleet {
    fn clusters(&self) -> &[u32] {
        &self.clusters
    }

    fn infer(&mut self, item: &BoundaryItem) -> Verdict {
        // The caller drained the cluster's wakes before the item.
        debug_assert!(
            self.pending_wake(item.cluster, item.enqueued_at).is_none(),
            "infer before the cluster's warm-up"
        );
        self.verdict(item)
    }

    fn latency_floor(&self) -> SimDuration {
        self.floor
    }

    fn idle(&mut self, cluster: u32, until: SimTime) -> bool {
        let due = self.pending_wake(cluster, until).is_some();
        if due {
            self.run_wake(cluster, true);
        }
        due
    }

    fn drift(&self, cluster: u32) -> Option<f64> {
        let li = self.slot[cluster as usize] as usize;
        self.ingress[li].monitor.as_ref().and_then(|m| m.score())
    }

    fn append_obs(&self, out: &mut dcn_obs::ObsReport) {
        *out.counters
            .entry("mimic.fleet.packets_seen".into())
            .or_insert(0) += self.packets_seen;
        *out.counters
            .entry("mimic.fleet.feeder_packets".into())
            .or_insert(0) += self.feeder_packets;
        *out.counters
            .entry("mimic.fleet.feeder_steps".into())
            .or_insert(0) += self.feeder_steps;
        for (dir, c) in DIRECTIONS.iter().zip(&self.outcomes) {
            for (what, n) in [
                ("verdicts", c.verdicts),
                ("drops", c.drops),
                ("ce_marks", c.ce_marks),
            ] {
                *out.counters
                    .entry(format!("mimic.fleet.{dir}.{what}"))
                    .or_insert(0) += n;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::features::FeatureConfig;
    use crate::feeder::{DirFit, FeederFit};
    use crate::mimic::TrainWindow;
    use mimic_ml::discretize::Discretizer;
    use mimic_ml::model::SeqModel;

    /// An untrained bundle over 8 clusters, clusters 1–7 Mimic'ed: feeder
    /// order does not care what the weights are, only that both
    /// directions have their own.
    pub(crate) fn fleet() -> MimicFleet {
        fleet_with_window(TrainWindow::default())
    }

    /// [`fleet`] with its bundle's replay window set to `window`.
    fn fleet_with_window(window: TrainWindow) -> MimicFleet {
        let mut topo = dcn_sim::config::SimConfig::small_scale().topo;
        topo.clusters = 8;
        let fc = FeatureConfig::from_topology(&topo);
        let mk = |seed| InternalModel {
            model: SeqModel::new_stacked(fc.width(), 8, 1, seed),
            disc: Discretizer::new(2e-5, 1e-3, 100),
        };
        let fit = DirFit::fit(&[1e-4, 2e-4, 3e-4, 5e-4], &[320.0, 1460.0, 1460.0]);
        let bundle = TrainedMimic {
            ingress: mk(7),
            egress: mk(8),
            feature_cfg: fc,
            feeder: FeederFit { ingress: fit.clone(), egress: fit },
            envelope: None,
            window,
        };
        let seeds: Vec<(u32, u64)> = (1..8).map(|c| (c, 9 ^ (0xC0DE_0000 + c as u64))).collect();
        MimicFleet::new(bundle, topo, 8, &seeds)
    }

    /// `cluster`'s next wake after one at `now`, as the engine's wake
    /// event chain asked the model for it.
    pub(crate) fn chain_wake_after(f: &MimicFleet, cluster: u32, now: SimTime) -> Option<SimTime> {
        const PERIOD: SimDuration = SimDuration(2_000_000); // 2 ms
        let li = f.slot[cluster as usize] as usize;
        let earliest = match (
            f.ingress[li].feeder.next_time(),
            f.egress[li].feeder.next_time(),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }?;
        Some(earliest.max(now + PERIOD))
    }

    /// One due feeder packet of `lane` at `now` into its backlog, as a
    /// Mimic-tier wake keeps it; false when none is due.
    fn chain_draw(lane: &mut Lane, now: SimTime) -> bool {
        let Some((due, position)) = lane.feeder.tick(now) else {
            return false;
        };
        let (dt, ewma) = lane.fx.advance(due);
        lane.backlog.push(Pending { due, position, dt, ewma });
        true
    }

    /// One wake event of `cluster` at `now`, as the engine's chain ran
    /// it: every due packet through the lane's interarrival features into
    /// its backlog (Mimic tier), or through the feeder streams alone
    /// (`full` false, Flow tier).
    fn chain_fire(f: &mut MimicFleet, cluster: u32, now: SimTime, full: bool) {
        let li = f.slot[cluster as usize] as usize;
        for lane in [&mut f.ingress[li], &mut f.egress[li]] {
            if full {
                while chain_draw(lane, now) {
                    f.feeder_packets += 1;
                }
            } else {
                while lane.feeder.fire(now).is_some() {
                    f.feeder_packets += 1;
                }
            }
        }
    }

    /// The oracle for on-demand warm-up: the wake chain the engine ran on
    /// the clock, one wake event per cluster every 2 ms or later, with
    /// its fleet fed verdict by verdict and never warmed on demand.
    pub(crate) struct EagerChain {
        /// Next wake per cluster id.
        pub(crate) next: Vec<Option<SimTime>>,
    }

    impl EagerChain {
        pub(crate) fn new(f: &MimicFleet) -> EagerChain {
            let mut next = vec![None; f.slot.len()];
            for &c in &f.clusters {
                next[c as usize] = chain_wake_after(f, c, SimTime::ZERO);
            }
            EagerChain { next }
        }

        /// Fire every wake strictly before `until`, each at the tier
        /// `full(cluster)` reports at that point of the timeline.
        pub(crate) fn run_until(
            &mut self,
            f: &mut MimicFleet,
            until: SimTime,
            full: impl Fn(u32) -> bool,
        ) {
            for c in f.clusters.clone() {
                while let Some(w) = self.next[c as usize].filter(|&w| w < until) {
                    chain_fire(f, c, w, full(c));
                    self.next[c as usize] = chain_wake_after(f, c, w);
                }
            }
        }
    }

    /// Everything a wake or a verdict can move, per lane, plus the
    /// counters; `{:?}` prints floats exactly, so equal strings mean
    /// bit-equal state.
    pub(crate) fn lanes(f: &MimicFleet) -> (Vec<String>, u64, String) {
        let lanes = f
            .ingress
            .iter()
            .chain(&f.egress)
            .map(|l| {
                let mut exits: Vec<_> = l.last_exit.iter().map(|(k, v)| (k.0, v.0)).collect();
                exits.sort_unstable();
                let rng = l.rng.state();
                format!(
                    "{:?} {:?} {:?} {:?} {:?} {rng} {exits:?}",
                    l.fx, l.state, l.feeder, l.backlog, l.monitor
                )
            })
            .collect();
        let counts = format!("{} {} {:?}", f.feeder_packets, f.feeder_steps, f.outcomes);
        (lanes, f.packets_seen, counts)
    }

    /// `n` boundary items on clusters 1–7 of [`fleet`]'s topology, both
    /// directions, a few flows per cluster, 0–3 ms apart.
    pub(crate) fn random_items(n: usize, seed: u64) -> Vec<BoundaryItem> {
        let mut topo = dcn_sim::config::SimConfig::small_scale().topo;
        topo.clusters = 8;
        let t = FatTree::new(topo);
        let mut rng = SplitMix64::new(seed);
        let mut at = SimTime::ZERO;
        (0..n as u64)
            .map(|i| {
                at += SimDuration(rng.next_below(3_000_000));
                let cluster = 1 + rng.next_below(7) as u32;
                let flow = FlowId(u64::from(cluster) * 16 + rng.next_below(4));
                let (local, remote) = (t.host(cluster, 1, 0), t.host(0, 0, 1));
                let dir = if rng.next_below(2) == 0 {
                    BoundaryDir::Ingress
                } else {
                    BoundaryDir::Egress
                };
                let (src, dst) = match dir {
                    BoundaryDir::Ingress => (remote, local),
                    BoundaryDir::Egress => (local, remote),
                };
                let ecn = rng.next_below(2) == 0;
                let pkt = dcn_sim::packet::Packet::data(i + 1, flow, src, dst, 0, 1460, ecn, at);
                BoundaryItem {
                    cluster,
                    dir,
                    pkt,
                    enqueued_at: at,
                }
            })
            .collect()
    }

    /// A verdict asked the way the engine asks: the cluster's wakes
    /// before the item drained first.
    pub(crate) fn warm_infer(f: &mut dyn ClusterModel, item: &BoundaryItem) -> Verdict {
        while f.idle(item.cluster, item.enqueued_at) {}
        f.infer(item)
    }

    /// Call `idle` on random clusters of `f` at random bounds in
    /// `[from, until]`.
    pub(crate) fn idle_at_random(
        f: &mut dyn ClusterModel,
        rng: &mut SplitMix64,
        from: SimTime,
        until: SimTime,
    ) {
        for _ in 0..rng.next_below(4) {
            let cluster = 1 + rng.next_below(7) as u32;
            let bound = SimTime(from.0 + rng.next_below(until.0 - from.0 + 1));
            f.idle(cluster, bound);
        }
    }

    #[test]
    fn on_demand_warm_up_matches_the_wake_chain() {
        let (mut eager, mut lazy) = (fleet(), fleet());
        let mut chain = EagerChain::new(&eager);
        let mut rng = SplitMix64::new(5);
        let mut prev = SimTime::ZERO;
        let items = random_items(400, 3);
        for item in &items {
            chain.run_until(&mut eager, item.enqueued_at, |_| true);
            let want = eager.verdict(item);
            idle_at_random(&mut lazy, &mut rng, prev, item.enqueued_at);
            assert_eq!(warm_infer(&mut lazy, item), want, "item {}", item.pkt.id);
            prev = item.enqueued_at;
        }
        // Wakes past the last verdict run only when idle time asks.
        let end = prev + SimDuration::from_millis(5);
        chain.run_until(&mut eager, end, |_| true);
        for c in 1..8 {
            while lazy.idle(c, end) {}
            assert_eq!(lazy.pending_wake(c, SimTime::MAX), chain.next[c as usize]);
        }
        assert!(
            eager.feeder_packets > 1_000,
            "too few feeder packets to compare"
        );
        assert_eq!(lanes(&lazy), lanes(&eager));
    }

    /// The replay rule against a test-local reference: a twin fleet on
    /// the wake chain keeps every featurized feeder row, and just before
    /// a lane's verdict steps the last `min(K, window)` of the K rows
    /// drawn since that lane's previous verdict, from the state that
    /// verdict left.
    #[test]
    fn verdict_steps_only_the_last_window_feeder_rows() {
        let (mut capped, mut short) = (0, 0);
        for window in [1, 64] {
            let (mut fleet, mut reference) = (
                fleet_with_window(TrainWindow(window)),
                fleet_with_window(TrainWindow(window)),
            );
            let bundle = Arc::clone(&reference.bundle);
            let mut chain = EagerChain::new(&reference);
            // Per lane index, per direction: rows featurized since the
            // lane's last verdict.
            let mut rows: Vec<[Vec<Vec<f32>>; 2]> = (0..reference.clusters.len())
                .map(|_| Default::default())
                .collect();
            let mut replayed = 0;
            let items = random_items(300, 13);
            for item in &items {
                for c in reference.clusters.clone() {
                    let li = reference.slot[c as usize] as usize;
                    while let Some(w) = chain.next[c as usize].filter(|&w| w < item.enqueued_at) {
                        for (d, lane) in [&mut reference.ingress[li], &mut reference.egress[li]]
                            .into_iter()
                            .enumerate()
                        {
                            while let Some(v) = lane.feeder.fire(w) {
                                rows[li][d].push(lane.fx.extract(&v));
                                reference.feeder_packets += 1;
                            }
                        }
                        chain.next[c as usize] = chain_wake_after(&reference, c, w);
                    }
                }
                let li = reference.lane_of(item);
                let (d, lane, model) = match item.dir {
                    BoundaryDir::Ingress => (0, &mut reference.ingress[li], &bundle.ingress),
                    BoundaryDir::Egress => (1, &mut reference.egress[li], &bundle.egress),
                };
                let pending = std::mem::take(&mut rows[li][d]);
                let keep = pending.len().min(window);
                for row in &pending[pending.len() - keep..] {
                    model.update_only(row, &mut lane.state);
                }
                replayed += keep as u64;
                capped += usize::from(pending.len() > window);
                short += usize::from(keep > 0 && pending.len() <= window);
                // The reference's own backlog is empty: nothing more to step.
                let want = reference.verdict(item);
                assert_eq!(warm_infer(&mut fleet, item), want, "item {}", item.pkt.id);
                let state = |f: &MimicFleet| match item.dir {
                    BoundaryDir::Ingress => format!("{:?}", f.ingress[li].state),
                    BoundaryDir::Egress => format!("{:?}", f.egress[li].state),
                };
                assert_eq!(state(&fleet), state(&reference), "item {}", item.pkt.id);
            }
            assert_eq!(fleet.feeder_steps, replayed);
            assert_eq!(reference.feeder_steps, 0);
            // The reference ran every cluster's wakes before the last item.
            let last = items.last().expect("items").enqueued_at;
            for c in 1..8 {
                while fleet.idle(c, last) {}
            }
            assert_eq!(fleet.feeder_packets, reference.feeder_packets);
        }
        assert!(
            capped > 10 && short > 10,
            "{capped} capped, {short} short backlogs"
        );
    }

    /// The wake loop as it was before the direction-major drain: one
    /// ingress packet, one egress packet, until neither feeder is due.
    fn drain_interleaved(f: &mut MimicFleet, cluster: u32, now: SimTime) {
        let li = f.slot[cluster as usize] as usize;
        loop {
            let mut fired = false;
            for lane in [&mut f.ingress[li], &mut f.egress[li]] {
                if chain_draw(lane, now) {
                    f.feeder_packets += 1;
                    fired = true;
                }
            }
            if !fired {
                break;
            }
        }
    }

    #[test]
    fn direction_major_wake_matches_the_interleaved_order() {
        let (mut major, mut interleaved) = (fleet(), fleet());
        let mut chain = EagerChain::new(&interleaved);
        for round in 0..40u32 {
            let cluster = 1 + round % 7;
            let wake = chain.next[cluster as usize].expect("feeders run at 8 clusters");
            assert_eq!(major.pending_wake(cluster, SimTime::MAX), Some(wake));
            assert!(major.idle(cluster, wake + SimDuration::from_nanos(1)));
            drain_interleaved(&mut interleaved, cluster, wake);
            chain.next[cluster as usize] = chain_wake_after(&interleaved, cluster, wake);
        }
        assert!(major.feeder_packets > 100, "wakes must drain several packets per direction");
        assert_eq!(lanes(&major), lanes(&interleaved));
    }

    /// One data packet crossing cluster 1's boundary in a 4-cluster
    /// topology, and `n` items replaying it `dir`-wards 100 µs apart.
    fn crossings(topo: FatTreeParams, dir: BoundaryDir, n: usize) -> Vec<BoundaryItem> {
        let t = FatTree::new(topo);
        let (local, remote) = (t.host(1, 0, 0), t.host(0, 1, 1));
        let (src, dst) = match dir {
            BoundaryDir::Ingress => (remote, local),
            BoundaryDir::Egress => (local, remote),
        };
        let t0 = SimTime::from_secs_f64(0.01);
        let pkt = dcn_sim::packet::Packet::data(1, FlowId(5), src, dst, 0, 1460, false, t0);
        (0..n)
            .map(|i| BoundaryItem {
                cluster: 1,
                dir,
                pkt: pkt.clone(),
                enqueued_at: SimTime::from_secs_f64(0.01 + i as f64 * 1e-4),
            })
            .collect()
    }

    #[test]
    fn fleet_delivers_with_latency_at_least_the_floor() {
        let (b, mut topo) = crate::mimic::tests::quick_bundle();
        topo.clusters = 4;
        let mut f = MimicFleet::new(b, topo, 4, &[(1, 9)]);
        let mut delivered = 0;
        for item in &crossings(topo, BoundaryDir::Egress, 50) {
            if let Verdict::Deliver { latency, .. } = warm_infer(&mut f, item) {
                assert!(latency >= f.latency_floor());
                delivered += 1;
            }
        }
        assert!(delivered > 0, "everything dropped");
        assert_eq!(f.packets_seen, 50);
    }

    #[test]
    fn feeders_active_beyond_two_clusters() {
        let (b, mut topo) = crate::mimic::tests::quick_bundle();
        topo.clusters = 8;
        let mut f = MimicFleet::new(b.clone(), topo, 8, &[(1, 3)]);
        // Spend idle time up to 0.2 s; state must advance.
        let mut wakes = 0;
        while wakes <= 500 && f.idle(1, SimTime::from_secs_f64(0.2)) {
            wakes += 1;
        }
        assert!(wakes > 0 && f.feeder_packets > 0);
        // At n = 2 there is no Mimic-Mimic traffic: feeders are disabled.
        topo.clusters = 2;
        let mut f2 = MimicFleet::new(b, topo, 2, &[(1, 3)]);
        assert!(!f2.idle(1, SimTime::MAX));
    }

    #[test]
    fn drift_reported_after_enough_ingress_packets() {
        let (b, mut topo) = crate::mimic::tests::quick_bundle();
        assert!(b.envelope.is_some(), "datagen must fit an envelope");
        topo.clusters = 4;
        // Past the monitor's default 256-observation window.
        let items = crossings(topo, BoundaryDir::Ingress, 300);
        let mut f = MimicFleet::new(b.clone(), topo, 4, &[(1, 9)]);
        assert!(f.drift(1).is_none(), "no score before a window completes");
        for i in &items {
            warm_infer(&mut f, i);
        }
        let d = f.drift(1).expect("windows completed");
        assert!(d.is_finite() && d >= 0.0, "drift {d}");
        // A bundle without an envelope never reports drift.
        let mut bare = b;
        bare.envelope = None;
        let mut f2 = MimicFleet::new(bare, topo, 4, &[(1, 9)]);
        for i in &items {
            warm_infer(&mut f2, i);
        }
        assert!(f2.drift(1).is_none());
    }

    #[test]
    fn threshold_mode_is_deterministic_across_seeds() {
        // Threshold decisions draw nothing, so two fleets that differ only
        // in their seed give the same verdicts — at two clusters, where
        // there are no feeders for the seed to drive either.
        let (b, mut topo) = crate::mimic::tests::quick_bundle();
        topo.clusters = 2;
        let items = crossings(topo, BoundaryDir::Ingress, 20);
        let run = |seed: u64| {
            let mut f = MimicFleet::new(b.clone(), topo, 2, &[(1, seed)])
                .with_mode(DecisionMode::Threshold);
            items.iter().map(|i| f.infer(i)).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(2));
    }
}
