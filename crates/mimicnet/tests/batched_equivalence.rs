//! Equivalence suite for the Mimic fleet: its verdicts over a recorded
//! boundary-packet trace must be **identical** to a per-lane pipeline
//! spelled out by hand — for every flush chunking.
//!
//! The comparator owns one [`FeatureExtractor`] + [`ModelState`] + FIFO
//! table per (cluster, direction) lane, builds views through the same
//! [`packet_view`] projection, takes raw outputs from [`SeqModel::step`]
//! one packet at a time, and applies threshold decisions, congestion
//! feedback, the latency floor and the per-flow FIFO clamp. The fleet (in
//! [`DecisionMode::Threshold`]) must reproduce every verdict, no matter
//! how the item stream is chunked into flushes.
//!
//! [`SeqModel::step`]: mimic_ml::model::SeqModel::step

use dcn_sim::mimic::{BatchClusterModel, BoundaryDir, BoundaryItem, Verdict};
use dcn_sim::packet::{FlowId, Packet};
use dcn_sim::time::{SimDuration, SimTime};
use dcn_sim::topology::FatTree;
use mimic_ml::loss::sigmoid;
use mimic_ml::model::{ModelState, OUT_DROP, OUT_ECN, OUT_LATENCY};
use mimic_ml::train::TrainConfig;
use mimicnet::batch::BatchedMimicFleet;
use mimicnet::datagen::{generate, DataGenConfig};
use mimicnet::drift::FeatureEnvelope;
use mimicnet::features::FeatureExtractor;
use mimicnet::internal_model::InternalModel;
use mimicnet::mimic::{packet_view, DecisionMode, TrainedMimic};
use std::collections::HashMap;

fn quick_bundle() -> (TrainedMimic, dcn_sim::topology::FatTreeParams) {
    let mut cfg = DataGenConfig::default();
    cfg.sim.duration_s = 0.3;
    cfg.sim.seed = 77;
    let td = generate(&cfg);
    let tc = TrainConfig {
        epochs: 1,
        window: 4,
        ..TrainConfig::default()
    };
    let (ing, _) = InternalModel::train_new(&td.ingress, td.ingress_disc, 8, &tc)
        .expect("valid training setup");
    let (eg, _) = InternalModel::train_new(&td.egress, td.egress_disc, 8, &tc)
        .expect("valid training setup");
    (
        TrainedMimic {
            ingress: ing,
            egress: eg,
            feature_cfg: td.feature_cfg,
            feeder: td.feeder,
            envelope: FeatureEnvelope::fit(&td.ingress.features),
        },
        cfg.sim.topo,
    )
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

/// Run the fleet over `items` flushed in chunks of `chunk`, returning the
/// concatenated verdicts.
fn fleet_verdicts(
    bundle: &TrainedMimic,
    topo_params: dcn_sim::topology::FatTreeParams,
    items: &[BoundaryItem],
    chunk: usize,
    mode: DecisionMode,
) -> Vec<Verdict> {
    let seeds: Vec<(u32, u64)> = (1..4).map(|c| (c, 1000 + c as u64)).collect();
    let mut fleet = BatchedMimicFleet::new(bundle.clone(), topo_params, 4, &seeds).with_mode(mode);
    let mut verdicts = Vec::new();
    let mut all = Vec::with_capacity(items.len());
    for batch in items.chunks(chunk) {
        fleet.infer_batch(batch, &mut verdicts);
        assert_eq!(verdicts.len(), batch.len(), "one verdict per item");
        all.extend_from_slice(&verdicts);
    }
    all
}

#[test]
fn fleet_trace_is_identical_to_per_lane_stepping() {
    let (bundle, mut topo_params) = quick_bundle();
    topo_params.clusters = 4;
    let topo = FatTree::new(topo_params);
    let items = record_trace(&topo);
    let reference = reference_verdicts(&bundle, &topo, &items);
    assert!(
        reference.iter().any(|v| matches!(v, Verdict::Deliver { .. })),
        "the trace must exercise the deliver path"
    );
    for chunk in [1usize, 7, 16, 64] {
        let got = fleet_verdicts(&bundle, topo_params, &items, chunk, DecisionMode::Threshold);
        assert_eq!(got, reference, "verdicts diverged from per-lane stepping (chunk {chunk})");
    }
}

#[test]
fn verdicts_are_chunking_invariant_in_sample_mode() {
    // Sampled decisions draw from per-lane RNG streams, so they too must
    // depend only on per-lane item order — never on flush boundaries.
    let (bundle, mut topo_params) = quick_bundle();
    topo_params.clusters = 4;
    let topo = FatTree::new(topo_params);
    let items = record_trace(&topo);
    let run = |chunk| fleet_verdicts(&bundle, topo_params, &items, chunk, DecisionMode::Sample);
    let whole = run(items.len());
    for chunk in [1usize, 7, 16, 64] {
        assert_eq!(run(chunk), whole, "verdicts changed with flush chunking {chunk}");
    }
}
