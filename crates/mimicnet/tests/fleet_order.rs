//! Ordering suite for the Mimic fleet.
//!
//! * Its verdicts over a recorded boundary-packet trace must be
//!   **identical** to a per-lane pipeline spelled out by hand: one
//!   [`FeatureExtractor`] + [`ModelState`] + FIFO table per (cluster,
//!   direction) lane, views through the same [`packet_view`] projection,
//!   raw outputs from [`SeqModel::step`], threshold decisions, congestion
//!   feedback, the latency floor and the per-flow FIFO clamp. Its feeders
//!   are silenced (empty fits), so every lane state change is a verdict's;
//!   feeder warm-up is checked against the wake chain in `fleet.rs`.
//! * Under randomized boundary traffic with sampled decisions, a flow's
//!   packets never reorder within a lane, no latency is below the floor,
//!   and a cluster's verdicts do not depend on what the other clusters'
//!   lanes saw — each LP of a partitioned run feeds its fleet only the
//!   clusters it owns.
//!
//! [`SeqModel::step`]: mimic_ml::model::SeqModel::step

use dcn_sim::mimic::{BoundaryDir, BoundaryItem, ClusterModel, Verdict};
use dcn_sim::packet::{FlowId, Packet};
use dcn_sim::time::{SimDuration, SimTime};
use dcn_sim::topology::{FatTree, FatTreeParams};
use mimic_ml::loss::sigmoid;
use mimic_ml::model::{ModelState, OUT_DROP, OUT_ECN, OUT_LATENCY};
use mimic_ml::train::TrainConfig;
use mimicnet::datagen::{generate, DataGenConfig};
use mimicnet::drift::FeatureEnvelope;
use mimicnet::features::FeatureExtractor;
use mimicnet::feeder::{DirFit, FeederFit};
use mimicnet::fleet::MimicFleet;
use mimicnet::internal_model::InternalModel;
use mimicnet::mimic::{packet_view, DecisionMode, TrainWindow, TrainedMimic};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A quickly trained bundle and the 4-cluster topology every test runs.
fn bundle() -> &'static (TrainedMimic, FatTreeParams) {
    static BUNDLE: OnceLock<(TrainedMimic, FatTreeParams)> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let mut cfg = DataGenConfig::default();
        cfg.sim.duration_s = 0.3;
        cfg.sim.seed = 77;
        let td = generate(&cfg);
        let tc = TrainConfig {
            epochs: 1,
            window: 4,
            ..TrainConfig::default()
        };
        let (ing, _) = InternalModel::train_stacked(&td.ingress, td.ingress_disc, 8, 1, &tc)
            .expect("valid training setup");
        let (eg, _) = InternalModel::train_stacked(&td.egress, td.egress_disc, 8, 1, &tc)
            .expect("valid training setup");
        let mut topo = cfg.sim.topo;
        topo.clusters = 4;
        (
            TrainedMimic {
                ingress: ing,
                egress: eg,
                feature_cfg: td.feature_cfg,
                feeder: td.feeder,
                envelope: FeatureEnvelope::fit(&td.ingress.features),
                window: TrainWindow(tc.window),
            },
            topo,
        )
    })
}

/// A fresh fleet over clusters 1..4 of the shared bundle.
fn fleet(mode: DecisionMode) -> MimicFleet {
    let (bundle, topo_params) = bundle();
    let seeds: Vec<(u32, u64)> = (1..4).map(|c| (c, 1000 + c as u64)).collect();
    MimicFleet::new(bundle.clone(), *topo_params, 4, &seeds).with_mode(mode)
}

/// A recorded boundary-packet trace: many flows crossing three Mimic'ed
/// clusters in both directions, enqueue times strictly increasing (the
/// engine delivers items in event order).
fn record_trace(topo: &FatTree) -> Vec<BoundaryItem> {
    let obs_host = topo.host(0, 0, 0);
    let mut items = Vec::new();
    for i in 0..240u64 {
        let cluster = 1 + (i % 3) as u32;
        let flow = FlowId(1 + i % 7);
        let rack = (i % 2) as u32;
        let server = ((i / 2) % 2) as u32;
        let local = topo.host(cluster, rack, server);
        let dir = if i % 2 == 0 {
            BoundaryDir::Ingress
        } else {
            BoundaryDir::Egress
        };
        let (src, dst) = match dir {
            BoundaryDir::Ingress => (obs_host, local),
            BoundaryDir::Egress => (local, obs_host),
        };
        let t = SimTime::from_secs_f64(0.01 + i as f64 * 3.1e-5);
        let pkt = Packet::data(i + 1, flow, src, dst, i * 1460, 1460, i % 3 == 0, t);
        items.push(BoundaryItem {
            cluster,
            dir,
            pkt,
            enqueued_at: t,
        });
    }
    items
}

/// Reference: step every lane's packets one at a time through
/// `SeqModel::step` and decode each verdict by hand under threshold
/// decisions.
fn reference_verdicts(bundle: &TrainedMimic, topo: &FatTree, items: &[BoundaryItem]) -> Vec<Verdict> {
    struct LaneRef {
        fx: FeatureExtractor,
        state: ModelState,
        last_exit: HashMap<FlowId, SimTime>,
    }
    let floor = bundle.latency_floor();
    let mut lanes: HashMap<(u32, BoundaryDir), LaneRef> = HashMap::new();
    let mut feat = Vec::new();
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let model = match item.dir {
            BoundaryDir::Ingress => &bundle.ingress,
            BoundaryDir::Egress => &bundle.egress,
        };
        let lane = lanes.entry((item.cluster, item.dir)).or_insert_with(|| LaneRef {
            fx: FeatureExtractor::new(bundle.feature_cfg),
            state: model.init_state(),
            last_exit: HashMap::new(),
        });
        let view = packet_view(topo, item.dir, &item.pkt, item.enqueued_at);
        lane.fx.extract_into(&view, &mut feat);
        let o = model.model.step(&feat, &mut lane.state);
        if sigmoid(o[OUT_DROP]) as f64 > 0.5 {
            lane.fx.observe_outcome(1.0, true);
            out.push(Verdict::Drop);
            continue;
        }
        let norm = o[OUT_LATENCY].clamp(0.0, 1.0);
        lane.fx.observe_outcome(norm, false);
        let latency = SimDuration::from_secs_f64(model.disc.recover(norm).max(1e-6)).max(floor);
        let prev = lane.last_exit.get(&item.pkt.flow).copied().unwrap_or(SimTime::ZERO);
        let exit = (item.enqueued_at + latency).max(prev);
        lane.last_exit.insert(item.pkt.flow, exit);
        out.push(Verdict::Deliver {
            latency: SimDuration(exit.0 - item.enqueued_at.0),
            mark_ce: item.pkt.ecn.is_capable() && sigmoid(o[OUT_ECN]) as f64 > 0.5,
        });
    }
    out
}

#[test]
fn fleet_trace_is_identical_to_per_lane_stepping() {
    let (bundle, topo_params) = bundle();
    let topo = FatTree::new(*topo_params);
    let items = record_trace(&topo);
    let reference = reference_verdicts(bundle, &topo, &items);
    assert!(
        reference.iter().any(|v| matches!(v, Verdict::Deliver { .. })),
        "the trace must exercise the deliver path"
    );
    let mut quiet = bundle.clone();
    quiet.feeder = FeederFit {
        ingress: DirFit::default(),
        egress: DirFit::default(),
    };
    let seeds: Vec<(u32, u64)> = (1..4).map(|c| (c, 1000 + c as u64)).collect();
    let mut fleet =
        MimicFleet::new(quiet, *topo_params, 4, &seeds).with_mode(DecisionMode::Threshold);
    let got: Vec<Verdict> = items.iter().map(|i| fleet.infer(i)).collect();
    assert_eq!(got, reference, "verdicts diverged from per-lane stepping");
}

/// One randomized boundary crossing, pre-materialization:
/// `(cluster, ingress?, flow, enqueue gap in ns)`. ECN capability derives
/// from flow parity.
type RawItem = (u32, bool, u64, u64);

fn raw_items() -> impl Strategy<Value = Vec<RawItem>> {
    proptest::collection::vec((1u32..4, any::<bool>(), 0u64..5, 1u64..2_000_000), 1..120)
}

fn materialize(raw: &[RawItem]) -> Vec<BoundaryItem> {
    let topo = FatTree::new(bundle().1);
    let obs = topo.host(0, 0, 0);
    let mut t = SimTime::from_secs_f64(0.005);
    let mut items = Vec::with_capacity(raw.len());
    for (i, &(cluster, ingress, flow, gap_ns)) in raw.iter().enumerate() {
        t = SimTime(t.0 + gap_ns);
        let local = topo.host(cluster, (flow % 2) as u32, (flow / 2 % 2) as u32);
        let (dir, src, dst) = if ingress {
            (BoundaryDir::Ingress, obs, local)
        } else {
            (BoundaryDir::Egress, local, obs)
        };
        // Flow ids are direction-scoped so a "flow" never spans lanes.
        let flow_id = FlowId(1 + flow * 2 + ingress as u64);
        let pkt = Packet::data(
            i as u64 + 1,
            flow_id,
            src,
            dst,
            i as u64 * 1460,
            1460,
            flow % 2 == 0,
            t,
        );
        items.push(BoundaryItem {
            cluster,
            dir,
            pkt,
            enqueued_at: t,
        });
    }
    items
}

/// Feed `items` through a fresh sampling fleet, one call each, after the
/// warm-up the engine drains before every verdict.
fn run(items: &[BoundaryItem]) -> Vec<Verdict> {
    let mut fleet = fleet(DecisionMode::Sample);
    items
        .iter()
        .map(|i| {
            while fleet.idle(i.cluster, i.enqueued_at) {}
            fleet.infer(i)
        })
        .collect()
}

proptest! {
    #[test]
    fn same_flow_packets_never_reorder_within_a_lane(raw in raw_items()) {
        let items = materialize(&raw);
        let mut last: HashMap<(u32, BoundaryDir, FlowId), SimTime> = HashMap::new();
        for (item, v) in items.iter().zip(run(&items)) {
            let Verdict::Deliver { latency, .. } = v else {
                continue; // dropped — nothing delivered to reorder
            };
            let exit = item.enqueued_at + latency;
            let key = (item.cluster, item.dir, item.pkt.flow);
            if let Some(prev) = last.insert(key, exit) {
                prop_assert!(
                    exit >= prev,
                    "flow {:?} reordered: exit {exit:?} before earlier {prev:?}",
                    item.pkt.flow
                );
            }
        }
    }

    #[test]
    fn no_latency_is_below_the_floor(raw in raw_items()) {
        let floor = fleet(DecisionMode::Sample).latency_floor();
        for v in run(&materialize(&raw)) {
            if let Verdict::Deliver { latency, .. } = v {
                prop_assert!(latency >= floor, "latency {latency:?} under the floor {floor:?}");
            }
        }
    }

    #[test]
    fn a_clusters_verdicts_ignore_the_other_clusters(raw in raw_items()) {
        let items = materialize(&raw);
        let together = run(&items);
        for cluster in 1..4 {
            let alone: Vec<BoundaryItem> =
                items.iter().filter(|i| i.cluster == cluster).cloned().collect();
            let expected: Vec<Verdict> = items
                .iter()
                .zip(&together)
                .filter(|(i, _)| i.cluster == cluster)
                .map(|(_, v)| *v)
                .collect();
            prop_assert_eq!(run(&alone), expected);
        }
    }
}
