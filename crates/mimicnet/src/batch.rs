//! Batched Mimic inference for the PDES compose mode.
//!
//! A composed simulation carries one Mimic per non-observable cluster, and
//! every boundary packet costs an LSTM forward step. The scalar
//! [`LearnedMimic`](crate::mimic::LearnedMimic) pays that cost packet by
//! packet, re-streaming the weight matrices from memory each time. The
//! [`BatchedMimicFleet`] instead serves *all* Mimic'ed clusters of a
//! simulation behind the engine's [`BatchClusterModel`] aggregation point:
//! boundary packets queued across an event window are replayed through
//! [`SeqModel::step_lanes`](mimic_ml::model::SeqModel::step_lanes), which
//! streams each weight matrix once per round no matter how many clusters
//! it feeds.
//!
//! Why batching is across clusters, not across time: each (cluster,
//! direction) *lane* owns a recurrent `ModelState` and a
//! [`FeatureExtractor`] whose congestion estimate feeds back from each
//! prediction into the next packet's features. Two packets of one lane are
//! therefore serially dependent and can never share a forward pass. Lanes
//! of *different* clusters are independent but share weights — the batch
//! dimension this module exploits. Processing is round-based: each round
//! takes the head item of every active lane, runs one weight-shared
//! forward, and decodes per lane; rounds repeat until every lane's queue
//! drains. Per-lane item order — and with it every feature, state update,
//! and RNG draw — is identical no matter how the engine chunked the item
//! stream into flushes, which is what makes sequential and partitioned
//! composed runs bit-identical.
//!
//! Ordering invariants maintained here (locked down by the equivalence and
//! property suites):
//!
//! * **Chunking invariance** — verdicts depend only on each lane's item
//!   order, never on flush boundaries.
//! * **Per-flow FIFO** — a flow's exit times are monotone within a lane: a
//!   later packet never exits before an earlier one, even when the model
//!   predicts it a smaller latency (queues don't reorder a flow; §5.1's
//!   instrumentation junctures preserve this too).
//! * **Causality** — every verdict's exit time is at least
//!   [`latency_floor`](BatchClusterModel::latency_floor) past its enqueue
//!   time, the engine's license to defer inference.

use crate::drift::DriftMonitor;
use crate::internal_model::InternalModel;
use crate::mimic::{load_model_state, packet_view, save_model_state, DecisionMode, TrainedMimic};
use dcn_sim::mimic::{BatchClusterModel, BoundaryDir, BoundaryItem, Verdict};
use dcn_sim::packet::FlowId;
use dcn_sim::rng::SplitMix64;
use dcn_sim::snapshot::{SnapReader, SnapWriter, SnapshotError};
use dcn_sim::time::{SimDuration, SimTime};
use dcn_sim::topology::{FatTree, FatTreeParams};
use mimic_ml::loss::sigmoid;
use mimic_ml::model::{BatchScratch, ModelState, OUTPUTS, OUT_DROP, OUT_ECN, OUT_LATENCY};
use std::collections::HashMap;

use crate::features::FeatureExtractor;
use crate::feeder::Feeder;

/// One (cluster, direction) inference lane.
struct Lane {
    fx: FeatureExtractor,
    /// Per-lane decision stream. The scalar Mimic shares one RNG across
    /// both directions of a cluster; the fleet needs the draws to depend
    /// only on this lane's item order, so each lane gets its own stream.
    rng: SplitMix64,
    /// Last predicted exit time per flow (FIFO clamp). Entries whose exit
    /// precedes the current flush's oldest enqueue can no longer clamp
    /// anything and are evicted in place.
    last_exit: HashMap<FlowId, SimTime>,
    /// Ingress lanes score live features against the training envelope.
    monitor: Option<DriftMonitor>,
    /// Item indices (into the flush's `items`) queued for this lane.
    queue: Vec<u32>,
    cursor: usize,
}

/// One direction's lanes across all served clusters (lane `i` belongs to
/// `clusters[i]`). Model states live in a dense slab so the lane kernel
/// can gather/scatter them.
struct DirFleet {
    lanes: Vec<Lane>,
    states: Vec<ModelState>,
    feeders: Vec<Feeder>,
}

/// A [`BatchClusterModel`] serving every Mimic'ed cluster of one composed
/// simulation. Homogeneous compositions share a single bundle across all
/// lanes; heterogeneous ones group lanes by bundle, batching within each
/// group (lanes can only share a forward pass when they share weights).
pub struct BatchedMimicFleet {
    bundles: Vec<TrainedMimic>,
    /// `assign[i]` = bundle index of `clusters[i]`.
    assign: Vec<usize>,
    /// Lane indices per bundle group, in stable lane order.
    groups: Vec<Vec<usize>>,
    clusters: Vec<u32>,
    /// Dense cluster-id → lane-index map (`u32::MAX` = not served).
    slot: Vec<u32>,
    topo: FatTree,
    mode: DecisionMode,
    floor: SimDuration,
    ingress: DirFleet,
    egress: DirFleet,
    // Reused flush buffers (steady state allocates nothing).
    feats: Vec<f32>,
    feat_buf: Vec<f32>,
    sel: Vec<usize>,
    rows: Vec<u32>,
    out: Vec<[f32; OUTPUTS]>,
    raw: Vec<[f32; OUTPUTS]>,
    scratch: BatchScratch,
    /// Counters for instrumentation/tests.
    pub packets_seen: u64,
    pub feeder_packets: u64,
    /// Weight-shared forward rounds executed (one per occupied round of
    /// [`SeqModel::step_lanes`](mimic_ml::model::SeqModel::step_lanes)).
    pub rounds: u64,
    /// How many lanes each round fed — the realized batch dimension. A
    /// mean near 1 means the fleet degenerated to scalar stepping.
    pub lane_occupancy: dcn_obs::Hist,
}

impl BatchedMimicFleet {
    /// Homogeneous fleet: every cluster in `cluster_seeds` runs `bundle`.
    /// Each entry pairs a cluster index with its Mimic seed (the same
    /// per-cluster seeds the scalar composition derives), keeping feeder
    /// streams decorrelated across clusters and identical to the scalar
    /// composition's.
    pub fn new(
        bundle: TrainedMimic,
        topo_params: FatTreeParams,
        n_clusters: u32,
        cluster_seeds: &[(u32, u64)],
    ) -> BatchedMimicFleet {
        let with_bundle: Vec<(u32, usize, u64)> =
            cluster_seeds.iter().map(|&(c, s)| (c, 0, s)).collect();
        BatchedMimicFleet::new_heterogeneous(vec![bundle], topo_params, n_clusters, &with_bundle)
    }

    /// Heterogeneous fleet: each `(cluster, bundle_index, seed)` entry
    /// binds a cluster to one of `bundles`. All bundles must agree on the
    /// feature width (they describe the same cluster shape).
    pub fn new_heterogeneous(
        bundles: Vec<TrainedMimic>,
        topo_params: FatTreeParams,
        n_clusters: u32,
        cluster_assign: &[(u32, usize, u64)],
    ) -> BatchedMimicFleet {
        assert!(!bundles.is_empty(), "fleet needs at least one bundle");
        assert!(!cluster_assign.is_empty(), "fleet needs at least one cluster");
        let width = bundles[0].feature_cfg.width();
        for b in &bundles {
            assert_eq!(b.feature_cfg.width(), width, "bundles disagree on feature width");
        }

        let n_lanes = cluster_assign.len();
        let mut clusters = Vec::with_capacity(n_lanes);
        let mut assign = Vec::with_capacity(n_lanes);
        let mut slot = vec![u32::MAX; n_clusters as usize];
        let mut groups = vec![Vec::new(); bundles.len()];
        let make_dir = |dir: BoundaryDir| {
            let mut lanes = Vec::with_capacity(n_lanes);
            let mut states = Vec::with_capacity(n_lanes);
            let mut feeders = Vec::with_capacity(n_lanes);
            for &(_, g, seed) in cluster_assign {
                let bundle = &bundles[g];
                let fc = bundle.feature_cfg;
                let (model, fit, tag) = match dir {
                    BoundaryDir::Ingress => (&bundle.ingress, &bundle.feeder.ingress, 0x1u64),
                    BoundaryDir::Egress => (&bundle.egress, &bundle.feeder.egress, 0x2u64),
                };
                lanes.push(Lane {
                    fx: FeatureExtractor::new(fc),
                    rng: SplitMix64::derive(seed, 0x4D49_0000 | tag),
                    last_exit: HashMap::new(),
                    monitor: match dir {
                        BoundaryDir::Ingress => {
                            bundle.envelope.clone().map(DriftMonitor::new)
                        }
                        BoundaryDir::Egress => None,
                    },
                    queue: Vec::new(),
                    cursor: 0,
                });
                states.push(model.init_state());
                feeders.push(Feeder::new(
                    fit.clone(),
                    n_clusters,
                    fc.racks_per_cluster,
                    fc.hosts_per_rack,
                    fc.aggs_per_cluster,
                    fc.cores,
                    seed ^ tag,
                ));
            }
            DirFleet { lanes, states, feeders }
        };
        let ingress = make_dir(BoundaryDir::Ingress);
        let egress = make_dir(BoundaryDir::Egress);
        for (li, &(c, g, _)) in cluster_assign.iter().enumerate() {
            assert!(c < n_clusters, "cluster {c} out of range");
            assert!(g < bundles.len(), "bundle index {g} out of range");
            assert_eq!(slot[c as usize], u32::MAX, "cluster {c} assigned twice");
            slot[c as usize] = li as u32;
            clusters.push(c);
            assign.push(g);
            groups[g].push(li);
        }

        // Lower bound on any predicted latency, across every bundle.
        let floor = bundles
            .iter()
            .map(TrainedMimic::latency_floor)
            .min()
            .expect("at least one bundle");

        BatchedMimicFleet {
            bundles,
            assign,
            groups,
            slot,
            topo: FatTree::new(topo_params),
            mode: DecisionMode::Sample,
            floor,
            ingress,
            egress,
            feats: vec![0.0; n_lanes * width],
            feat_buf: Vec::with_capacity(width),
            sel: vec![0; n_lanes],
            rows: vec![0; n_lanes],
            out: vec![[0.0; OUTPUTS]; n_lanes],
            raw: Vec::new(),
            scratch: BatchScratch::new(),
            clusters,
            packets_seen: 0,
            feeder_packets: 0,
            rounds: 0,
            lane_occupancy: dcn_obs::Hist::default(),
        }
    }

    /// Switch decision mode (default: [`DecisionMode::Sample`]).
    pub fn with_mode(mut self, mode: DecisionMode) -> BatchedMimicFleet {
        self.mode = mode;
        self
    }

    /// Override every ingress drift monitor's window size. No-op for lanes
    /// whose bundle carries no envelope.
    pub fn with_drift_window(mut self, window: usize) -> BatchedMimicFleet {
        for (li, lane) in self.ingress.lanes.iter_mut().enumerate() {
            lane.monitor = self.bundles[self.assign[li]]
                .envelope
                .clone()
                .map(|env| DriftMonitor::with_window(env, window));
        }
        self
    }

    /// Raw model outputs (`[latency, drop_logit, ecn_logit]`) of the last
    /// flush, one row per item in item order. RNG-free, so equivalence
    /// suites can compare them bit-for-bit against scalar stepping.
    pub fn raw_outputs(&self) -> &[[f32; OUTPUTS]] {
        &self.raw
    }

    /// Feed one boundary packet through its lane's feature extractor and
    /// ingress drift monitor *without* running inference. The adaptive
    /// fleet calls this for clusters served below the Mimic tier: the
    /// promotion decision needs live drift signal even while the LSTM is
    /// dormant, and the feature path is deterministic in the lane's item
    /// order just like the full inference path.
    pub fn observe_boundary(&mut self, item: &BoundaryItem) {
        let BatchedMimicFleet {
            topo,
            ingress,
            egress,
            feat_buf,
            slot,
            ..
        } = self;
        let li = slot[item.cluster as usize];
        assert!(li != u32::MAX, "item for unserved cluster {}", item.cluster);
        let fleet = match item.dir {
            BoundaryDir::Ingress => ingress,
            BoundaryDir::Egress => egress,
        };
        let lane = &mut fleet.lanes[li as usize];
        let view = packet_view(topo, item.dir, &item.pkt, item.enqueued_at);
        lane.fx.extract_into(&view, feat_buf);
        if item.dir == BoundaryDir::Ingress {
            if let Some(mon) = &mut lane.monitor {
                mon.observe(feat_buf);
            }
        }
    }

    /// Advance a cluster's feeder streams to `now` without touching the
    /// frozen model/feature state. At the Flow tier the wake cadence and
    /// the feeders' random streams must stay aligned with what the Mimic
    /// tier would have consumed (so a later promotion re-joins the same
    /// deterministic schedule), but the LSTM warm-up updates — the
    /// expensive part of [`BatchClusterModel::on_wake`] — are skipped.
    pub fn advance_feeders(&mut self, cluster: u32, now: SimTime) {
        let li = self.slot[cluster as usize] as usize;
        for fleet in [&mut self.ingress, &mut self.egress] {
            while fleet.feeders[li].fire(now).is_some() {
                self.feeder_packets += 1;
            }
        }
    }

    fn dir_fleet(&mut self, dir: BoundaryDir) -> &mut DirFleet {
        match dir {
            BoundaryDir::Ingress => &mut self.ingress,
            BoundaryDir::Egress => &mut self.egress,
        }
    }

    /// Replay one direction's queued items in rounds (head item per active
    /// lane per round), one bundle group at a time.
    fn process_dir(&mut self, dir: BoundaryDir, items: &[BoundaryItem], verdicts: &mut [Verdict]) {
        let BatchedMimicFleet {
            bundles,
            groups,
            topo,
            mode,
            floor,
            ingress,
            egress,
            feats,
            feat_buf,
            sel,
            rows,
            out,
            raw,
            scratch,
            rounds,
            lane_occupancy,
            ..
        } = self;
        let fleet = match dir {
            BoundaryDir::Ingress => ingress,
            BoundaryDir::Egress => egress,
        };
        for (g, group) in groups.iter().enumerate() {
            let model: &InternalModel = match dir {
                BoundaryDir::Ingress => &bundles[g].ingress,
                BoundaryDir::Egress => &bundles[g].egress,
            };
            let width = bundles[g].feature_cfg.width();
            loop {
                // Gather: head item of every lane with work left.
                let mut n = 0;
                for &li in group {
                    let lane = &mut fleet.lanes[li];
                    let Some(&item_idx) = lane.queue.get(lane.cursor) else {
                        continue;
                    };
                    lane.cursor += 1;
                    let item = &items[item_idx as usize];
                    let view = packet_view(topo, dir, &item.pkt, item.enqueued_at);
                    lane.fx.extract_into(&view, feat_buf);
                    if dir == BoundaryDir::Ingress {
                        if let Some(mon) = &mut lane.monitor {
                            mon.observe(feat_buf);
                        }
                    }
                    feats[n * width..(n + 1) * width].copy_from_slice(feat_buf);
                    sel[n] = li;
                    rows[n] = item_idx;
                    n += 1;
                }
                if n == 0 {
                    break;
                }
                *rounds += 1;
                lane_occupancy.observe(n as u64);
                // One weight-shared forward for the whole round.
                model.model.step_lanes(
                    &feats[..n * width],
                    n,
                    &mut fleet.states,
                    &sel[..n],
                    &mut out[..n],
                    scratch,
                );
                // Decode per lane — the exact arithmetic of
                // `InternalModel::predict` + `LearnedMimic::on_packet`.
                for r in 0..n {
                    let item_idx = rows[r] as usize;
                    let item = &items[item_idx];
                    let o = out[r];
                    raw[item_idx] = o;
                    let latency_norm = o[OUT_LATENCY].clamp(0.0, 1.0);
                    let latency_s = model.disc.recover(latency_norm);
                    let p_drop = sigmoid(o[OUT_DROP]) as f64;
                    let p_ecn = sigmoid(o[OUT_ECN]) as f64;
                    let lane = &mut fleet.lanes[sel[r]];
                    if decide(&mut lane.rng, *mode, p_drop) {
                        lane.fx.observe_outcome(1.0, true);
                        verdicts[item_idx] = Verdict::Drop;
                        continue;
                    }
                    let mark_ce = item.pkt.ecn.is_capable() && decide(&mut lane.rng, *mode, p_ecn);
                    lane.fx.observe_outcome(latency_norm, false);
                    let latency =
                        SimDuration::from_secs_f64(latency_s.max(1e-6)).max(*floor);
                    let mut exit = item.enqueued_at + latency;
                    // FIFO clamp: a flow never exits earlier than its
                    // previous packet did (equal times are delivered in
                    // packet-id order by the engine's event tags).
                    if let Some(&prev) = lane.last_exit.get(&item.pkt.flow) {
                        if prev > exit {
                            exit = prev;
                        }
                    }
                    lane.last_exit.insert(item.pkt.flow, exit);
                    verdicts[item_idx] = Verdict::Deliver {
                        latency: SimDuration(exit.0 - item.enqueued_at.0),
                        mark_ce,
                    };
                }
            }
        }
    }
}

fn decide(rng: &mut SplitMix64, mode: DecisionMode, p: f64) -> bool {
    match mode {
        DecisionMode::Sample => rng.bernoulli(p),
        DecisionMode::Threshold => p > 0.5,
    }
}

impl BatchClusterModel for BatchedMimicFleet {
    fn clusters(&self) -> &[u32] {
        &self.clusters
    }

    fn infer_batch(&mut self, items: &[BoundaryItem], verdicts: &mut Vec<Verdict>) {
        self.packets_seen += items.len() as u64;
        verdicts.clear();
        verdicts.resize(items.len(), Verdict::Drop);
        self.raw.clear();
        self.raw.resize(items.len(), [0.0; OUTPUTS]);
        // Bucket items into their lanes, preserving stream order per lane.
        for fleet in [&mut self.ingress, &mut self.egress] {
            for lane in &mut fleet.lanes {
                lane.queue.clear();
                lane.cursor = 0;
            }
        }
        for (i, item) in items.iter().enumerate() {
            let li = self.slot[item.cluster as usize];
            assert!(li != u32::MAX, "item for unserved cluster {}", item.cluster);
            let fleet = self.dir_fleet(item.dir);
            fleet.lanes[li as usize].queue.push(i as u32);
        }
        // Evict FIFO entries that can no longer clamp anything: their exit
        // precedes every enqueue this flush will see (per-lane item order
        // is monotone in enqueue time).
        for fleet in [&mut self.ingress, &mut self.egress] {
            for lane in &mut fleet.lanes {
                if let Some(&first) = lane.queue.first() {
                    let oldest = items[first as usize].enqueued_at;
                    lane.last_exit.retain(|_, exit| *exit > oldest);
                }
            }
        }
        self.process_dir(BoundaryDir::Ingress, items, verdicts);
        self.process_dir(BoundaryDir::Egress, items, verdicts);
    }

    fn latency_floor(&self) -> SimDuration {
        self.floor
    }

    fn next_wake(&mut self, cluster: u32, now: SimTime) -> Option<SimTime> {
        // Same periodic batching as the scalar Mimic ("periodically takes
        // packets from the feeders" — §7.1).
        const PERIOD: SimDuration = SimDuration(2_000_000); // 2 ms
        let li = self.slot[cluster as usize] as usize;
        let earliest = match (
            self.ingress.feeders[li].next_time(),
            self.egress.feeders[li].next_time(),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }?;
        Some(earliest.max(now + PERIOD))
    }

    fn on_wake(&mut self, cluster: u32, now: SimTime) {
        // Direction-major: every due ingress packet, then every due egress
        // one. A cluster's two directions share no state (own feeder RNG,
        // extractor and model state; `feeder_packets` is a sum), so only
        // per-lane order matters and it is unchanged — while each
        // direction's weights and state stay in L1 for its whole drain
        // instead of being evicted by the other's on every packet.
        let li = self.slot[cluster as usize] as usize;
        let bundle = &self.bundles[self.assign[li]];
        for (fleet, model) in
            [(&mut self.ingress, &bundle.ingress), (&mut self.egress, &bundle.egress)]
        {
            while let Some(v) = fleet.feeders[li].fire(now) {
                fleet.lanes[li].fx.extract_into(&v, &mut self.feat_buf);
                model.update_only(&self.feat_buf, &mut fleet.states[li]);
                self.feeder_packets += 1;
            }
        }
    }

    fn drift(&self, cluster: u32) -> Option<f64> {
        let li = self.slot[cluster as usize] as usize;
        self.ingress.lanes[li]
            .monitor
            .as_ref()
            .and_then(|m| m.score())
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        // Flush buffers (per-lane queues/cursors, feats/out/raw, scratch)
        // are transient within one infer_batch call; the engine settles
        // every pending batch before snapshotting, so only durable lane
        // state is written.
        for fleet in [&self.ingress, &self.egress] {
            w.put_u64(fleet.lanes.len() as u64);
            for (li, lane) in fleet.lanes.iter().enumerate() {
                lane.fx.save_state(w);
                w.put_u64(lane.rng.state());
                let mut exits: Vec<(u64, u64)> = lane
                    .last_exit
                    .iter()
                    .map(|(f, t)| (f.0, t.as_nanos()))
                    .collect();
                exits.sort_unstable();
                w.put_u64(exits.len() as u64);
                for (f, t) in exits {
                    w.put_u64(f);
                    w.put_u64(t);
                }
                w.put_bool(lane.monitor.is_some());
                if let Some(mon) = &lane.monitor {
                    mon.save_state(w);
                }
                save_model_state(&fleet.states[li], w);
                fleet.feeders[li].save_state(w);
            }
        }
        w.put_u64(self.packets_seen);
        w.put_u64(self.feeder_packets);
        w.put_u64(self.rounds);
        w.put_u64_slice(&self.lane_occupancy.buckets);
        w.put_u64(self.lane_occupancy.count);
        w.put_u64(self.lane_occupancy.sum);
        w.put_u64(self.lane_occupancy.max);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        for fleet in [&mut self.ingress, &mut self.egress] {
            let n = r.get_u64()? as usize;
            if n != fleet.lanes.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "fleet has {} lanes, snapshot has {n}",
                    fleet.lanes.len()
                )));
            }
            for (li, lane) in fleet.lanes.iter_mut().enumerate() {
                lane.fx.load_state(r)?;
                lane.rng.set_state(r.get_u64()?);
                let n_exits = r.get_count(16)?;
                lane.last_exit.clear();
                for _ in 0..n_exits {
                    let flow = FlowId(r.get_u64()?);
                    let exit = SimTime(r.get_u64()?);
                    lane.last_exit.insert(flow, exit);
                }
                if r.get_bool()? != lane.monitor.is_some() {
                    return Err(SnapshotError::Corrupt(
                        "drift-monitor presence does not match the bundle".into(),
                    ));
                }
                if let Some(mon) = &mut lane.monitor {
                    mon.load_state(r)?;
                }
                load_model_state(&mut fleet.states[li], r)?;
                fleet.feeders[li].load_state(r)?;
                lane.queue.clear();
                lane.cursor = 0;
            }
        }
        self.packets_seen = r.get_u64()?;
        self.feeder_packets = r.get_u64()?;
        self.rounds = r.get_u64()?;
        let buckets = r.get_u64_vec()?;
        if buckets.len() != self.lane_occupancy.buckets.len() {
            return Err(SnapshotError::Corrupt(
                "lane-occupancy histogram has the wrong bucket count".into(),
            ));
        }
        self.lane_occupancy.buckets.copy_from_slice(&buckets);
        self.lane_occupancy.count = r.get_u64()?;
        self.lane_occupancy.sum = r.get_u64()?;
        self.lane_occupancy.max = r.get_u64()?;
        Ok(())
    }

    fn append_obs(&self, out: &mut dcn_obs::ObsReport) {
        *out.counters
            .entry("mimic.fleet.packets_seen".into())
            .or_insert(0) += self.packets_seen;
        *out.counters
            .entry("mimic.fleet.feeder_packets".into())
            .or_insert(0) += self.feeder_packets;
        *out.counters.entry("mimic.fleet.rounds".into()).or_insert(0) += self.rounds;
        out.hists
            .entry("mimic.flush.lane_occupancy".into())
            .or_default()
            .merge(&self.lane_occupancy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureConfig;
    use crate::feeder::{DirFit, FeederFit};
    use mimic_ml::discretize::Discretizer;
    use mimic_ml::model::SeqModel;

    /// An untrained 8-cluster bundle: feeder order does not care what the
    /// weights are, only that both directions have their own.
    fn fleet() -> BatchedMimicFleet {
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
        };
        let seeds: Vec<(u32, u64)> = (1..8).map(|c| (c, 9 ^ (0xC0DE_0000 + c as u64))).collect();
        BatchedMimicFleet::new(bundle, topo, 8, &seeds)
    }

    /// The wake loop as it was before the direction-major drain: one
    /// ingress packet, one egress packet, until neither feeder is due.
    fn on_wake_interleaved(f: &mut BatchedMimicFleet, cluster: u32, now: SimTime) {
        let li = f.slot[cluster as usize] as usize;
        let g = f.assign[li];
        loop {
            let mut fired = false;
            if let Some(v) = f.ingress.feeders[li].fire(now) {
                f.ingress.lanes[li].fx.extract_into(&v, &mut f.feat_buf);
                f.bundles[g].ingress.update_only(&f.feat_buf, &mut f.ingress.states[li]);
                f.feeder_packets += 1;
                fired = true;
            }
            if let Some(v) = f.egress.feeders[li].fire(now) {
                f.egress.lanes[li].fx.extract_into(&v, &mut f.feat_buf);
                f.bundles[g].egress.update_only(&f.feat_buf, &mut f.egress.states[li]);
                f.feeder_packets += 1;
                fired = true;
            }
            if !fired {
                break;
            }
        }
    }

    #[test]
    fn direction_major_wake_matches_the_interleaved_order() {
        let (mut major, mut interleaved) = (fleet(), fleet());
        let mut now = SimTime::ZERO;
        for round in 0..40u32 {
            let cluster = 1 + round % 7;
            let wake = major.next_wake(cluster, now).expect("feeders run at 8 clusters");
            assert_eq!(interleaved.next_wake(cluster, now), Some(wake));
            now = wake;
            major.on_wake(cluster, now);
            on_wake_interleaved(&mut interleaved, cluster, now);
        }
        assert!(major.feeder_packets > 100, "wakes must drain several packets per direction");
        let bytes = |f: &BatchedMimicFleet| {
            let mut w = SnapWriter::new();
            f.save_state(&mut w).expect("fleet state serializes");
            w.into_bytes()
        };
        assert_eq!(bytes(&major), bytes(&interleaved));
    }
}
