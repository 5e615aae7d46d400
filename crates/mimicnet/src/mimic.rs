//! The learned Mimic: a [`ClusterModel`] built from trained internal
//! models and feeders (paper §4.1, §7.1).
//!
//! "The Mimic clusters are constructed by taking the ingress/egress
//! internal models and feeders … and wrapping them with a thin shim layer.
//! The layer intercepts packets arriving at the borders of the cluster,
//! periodically takes packets from the feeders, and queries the internal
//! models with both to predict the network's effects. The output of the
//! shim is, thus, either a packet, its egress time, and its egress
//! location; or its absence."

use crate::drift::{DriftMonitor, FeatureEnvelope};
use crate::features::{FeatureConfig, FeatureExtractor, PacketView};
use crate::feeder::{Feeder, FeederFit};
use crate::internal_model::InternalModel;
use dcn_sim::mimic::{BoundaryDir, ClusterModel, Verdict};
use dcn_sim::packet::Packet;
use dcn_sim::rng::SplitMix64;
use dcn_sim::snapshot::{SnapReader, SnapWriter, SnapshotError};
use dcn_sim::routing::ecmp_hash;
use dcn_sim::time::{SimDuration, SimTime};
use dcn_sim::topology::{FatTree, FatTreeParams};
use mimic_ml::model::ModelState;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The serializable artifact produced by training: everything needed to
/// instantiate Mimics at any scale.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainedMimic {
    pub ingress: InternalModel,
    pub egress: InternalModel,
    pub feature_cfg: FeatureConfig,
    pub feeder: FeederFit,
    /// Training-distribution envelope of ingress features, enabling live
    /// drift detection ([`crate::drift`]). `None` for bundles trained
    /// without envelope fitting (including models serialized before the
    /// field existed); such Mimics report no drift.
    #[serde(default)]
    pub envelope: Option<FeatureEnvelope>,
}

impl TrainedMimic {
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("bundle serializes")
    }

    pub fn from_json(s: &str) -> Result<TrainedMimic, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Lower bound on any latency this bundle predicts: the smallest value
    /// either direction's discretizer can recover, floored at 1 µs. A
    /// fleet's flush horizon and a composed PDES run's window both derive
    /// from it, so it is available without building a fleet.
    pub fn latency_floor(&self) -> SimDuration {
        let floor_s = self.ingress.disc.recover(0.0).min(self.egress.disc.recover(0.0));
        SimDuration::from_secs_f64(floor_s.max(1e-6))
    }
}

/// How drop/mark probabilities become decisions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DecisionMode {
    /// Bernoulli-sample each probability (matches the paper's generative
    /// use: realized drop rates track predicted rates — Figure 5).
    Sample,
    /// Hard threshold at 0.5 (deterministic; useful for debugging).
    Threshold,
}

/// Project a boundary crossing onto the feature extractor's coordinate
/// frame: the cluster-side endpoint's rack/server plus the ECMP choices the
/// cluster's switches would have made. Shared by the scalar
/// [`LearnedMimic`] and the batched fleet ([`crate::batch`]) so both feed
/// their extractors identical views (the equivalence suite replays traces
/// through it to build its scalar reference pipeline).
pub fn packet_view(
    topo: &FatTree,
    dir: BoundaryDir,
    pkt: &Packet,
    now: SimTime,
) -> PacketView {
    // The cluster-side endpoint's local coordinates.
    let local = match dir {
        BoundaryDir::Ingress => pkt.dst,
        BoundaryDir::Egress => pkt.src,
    };
    let (_, rack, server) = topo.host_coords(local);
    let p = topo.params;
    let agg = (ecmp_hash(pkt.flow, 1) % p.aggs_per_cluster as u64) as u32;
    let core_j = (ecmp_hash(pkt.flow, 2) % p.cores_per_agg as u64) as u32;
    PacketView {
        time: now,
        wire_bytes: pkt.wire_bytes(),
        rack,
        server,
        agg,
        core: agg * p.cores_per_agg + core_j,
        kind: pkt.kind,
        ecn: pkt.ecn,
        prio: pkt.prio,
    }
}

/// Serialize an LSTM stack's recurrent state (hidden + cell per layer)
/// for a checkpoint. Weights are configuration and are not written.
pub(crate) fn save_model_state(st: &ModelState, w: &mut SnapWriter) {
    w.put_u64(st.layers.len() as u64);
    for l in &st.layers {
        w.put_f32_slice(&l.h.data);
        w.put_f32_slice(&l.c.data);
    }
}

/// Overwrite an LSTM stack's recurrent state from a checkpoint, refusing
/// shape mismatches (a snapshot from a differently-sized model).
pub(crate) fn load_model_state(
    st: &mut ModelState,
    r: &mut SnapReader<'_>,
) -> Result<(), SnapshotError> {
    let n = r.get_u64()? as usize;
    if n != st.layers.len() {
        return Err(SnapshotError::Corrupt(format!(
            "model has {} LSTM layers, snapshot has {n}",
            st.layers.len()
        )));
    }
    for l in &mut st.layers {
        let h = r.get_f32_vec()?;
        let c = r.get_f32_vec()?;
        if h.len() != l.h.data.len() || c.len() != l.c.data.len() {
            return Err(SnapshotError::Corrupt(format!(
                "LSTM state dims {}x{} do not match snapshot ({}, {})",
                l.h.data.len(),
                l.c.data.len(),
                h.len(),
                c.len()
            )));
        }
        l.h.data = h;
        l.c.data = c;
    }
    Ok(())
}

/// One direction's runtime state.
struct DirRuntime {
    fx: FeatureExtractor,
    state: ModelState,
    feeder: Feeder,
    /// Reusable feature buffer: the per-packet path never allocates.
    feat_buf: Vec<f32>,
}

/// A live Mimic cluster.
pub struct LearnedMimic {
    /// Shared, read-only: the Mimics of one composition step one set of
    /// weights instead of a private copy each.
    bundle: Arc<TrainedMimic>,
    ingress: DirRuntime,
    egress: DirRuntime,
    topo: FatTree,
    mode: DecisionMode,
    rng: SplitMix64,
    /// Scores live ingress features against the training envelope, when
    /// the bundle carries one.
    monitor: Option<DriftMonitor>,
    /// Counters for instrumentation/tests.
    pub packets_seen: u64,
    pub feeder_packets: u64,
}

impl LearnedMimic {
    /// Instantiate for an `n_clusters` composition. `seed` decorrelates
    /// the Mimics of one simulation; `topo_params` must match the
    /// composed topology. Pass an `Arc` to share one bundle between the
    /// Mimics of a composition; an owned bundle is wrapped.
    pub fn new(
        bundle: impl Into<Arc<TrainedMimic>>,
        topo_params: FatTreeParams,
        n_clusters: u32,
        seed: u64,
    ) -> LearnedMimic {
        let bundle: Arc<TrainedMimic> = bundle.into();
        let fc = bundle.feature_cfg;
        let make_dir = |fit: &crate::feeder::DirFit, model: &InternalModel, tag: u64| DirRuntime {
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
            feat_buf: Vec::with_capacity(fc.width()),
        };
        LearnedMimic {
            ingress: make_dir(&bundle.feeder.ingress, &bundle.ingress, 0x1),
            egress: make_dir(&bundle.feeder.egress, &bundle.egress, 0x2),
            topo: FatTree::new(topo_params),
            monitor: bundle.envelope.clone().map(DriftMonitor::new),
            bundle,
            mode: DecisionMode::Sample,
            rng: SplitMix64::derive(seed, 0x4D494D49), // "MIMI"
            packets_seen: 0,
            feeder_packets: 0,
        }
    }

    /// Override the drift monitor's window size (defaults to 256
    /// observations per window). No-op without an envelope.
    pub fn with_drift_window(mut self, window: usize) -> LearnedMimic {
        self.monitor = self
            .bundle
            .envelope
            .clone()
            .map(|env| DriftMonitor::with_window(env, window));
        self
    }

    /// Switch decision mode (default: [`DecisionMode::Sample`]).
    pub fn with_mode(mut self, mode: DecisionMode) -> LearnedMimic {
        self.mode = mode;
        self
    }

    fn view_for(&self, dir: BoundaryDir, pkt: &Packet, now: SimTime) -> PacketView {
        packet_view(&self.topo, dir, pkt, now)
    }

    fn decide(&mut self, p: f64) -> bool {
        match self.mode {
            DecisionMode::Sample => self.rng.bernoulli(p),
            DecisionMode::Threshold => p > 0.5,
        }
    }
}

impl ClusterModel for LearnedMimic {
    fn on_packet(&mut self, dir: BoundaryDir, pkt: &Packet, now: SimTime) -> Verdict {
        self.packets_seen += 1;
        let view = self.view_for(dir, pkt, now);
        let (rt, model) = match dir {
            BoundaryDir::Ingress => (&mut self.ingress, &self.bundle.ingress),
            BoundaryDir::Egress => (&mut self.egress, &self.bundle.egress),
        };
        rt.fx.extract_into(&view, &mut rt.feat_buf);
        if dir == BoundaryDir::Ingress {
            if let Some(mon) = &mut self.monitor {
                mon.observe(&rt.feat_buf);
            }
        }
        let pred = model.predict(&rt.feat_buf, &mut rt.state);

        let dropped = self.decide(pred.p_drop);
        if dropped {
            self.ingress_or_egress(dir).fx.observe_outcome(1.0, true);
            return Verdict::Drop;
        }
        let mark_ce = pkt.ecn.is_capable() && self.decide(pred.p_ecn);
        self.ingress_or_egress(dir)
            .fx
            .observe_outcome(pred.latency_norm, false);
        Verdict::Deliver {
            latency: SimDuration::from_secs_f64(pred.latency_s.max(1e-6)),
            mark_ce,
        }
    }

    fn next_wake(&mut self, now: SimTime) -> Option<SimTime> {
        // Batch injections into periodic wakeups ("periodically takes
        // packets from the feeders" — §7.1). Feature timestamps stay exact
        // because Feeder::fire stamps views with their own due times.
        const PERIOD: SimDuration = SimDuration(2_000_000); // 2 ms
        let earliest = match (self.ingress.feeder.next_time(), self.egress.feeder.next_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }?;
        Some(earliest.max(now + PERIOD))
    }

    fn on_wake(&mut self, now: SimTime) {
        // Inject every due synthetic packet: update the hidden state as if
        // it were routed, then discard the outputs (§6). Direction-major —
        // the two directions share no state, so draining one before the
        // other keeps its weights in cache without changing either's
        // packet order.
        for (rt, model) in [
            (&mut self.ingress, &self.bundle.ingress),
            (&mut self.egress, &self.bundle.egress),
        ] {
            while let Some(v) = rt.feeder.fire(now) {
                rt.fx.extract_into(&v, &mut rt.feat_buf);
                model.update_only(&rt.feat_buf, &mut rt.state);
                self.feeder_packets += 1;
            }
        }
    }

    fn drift(&self) -> Option<f64> {
        self.monitor.as_ref().and_then(|m| m.score())
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        for rt in [&self.ingress, &self.egress] {
            rt.fx.save_state(w);
            save_model_state(&rt.state, w);
            rt.feeder.save_state(w);
        }
        w.put_u64(self.rng.state());
        w.put_bool(self.monitor.is_some());
        if let Some(mon) = &self.monitor {
            mon.save_state(w);
        }
        w.put_u64(self.packets_seen);
        w.put_u64(self.feeder_packets);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        for rt in [&mut self.ingress, &mut self.egress] {
            rt.fx.load_state(r)?;
            load_model_state(&mut rt.state, r)?;
            rt.feeder.load_state(r)?;
        }
        self.rng.set_state(r.get_u64()?);
        if r.get_bool()? != self.monitor.is_some() {
            return Err(SnapshotError::Corrupt(
                "drift-monitor presence does not match the bundle".into(),
            ));
        }
        if let Some(mon) = &mut self.monitor {
            mon.load_state(r)?;
        }
        self.packets_seen = r.get_u64()?;
        self.feeder_packets = r.get_u64()?;
        Ok(())
    }
}

impl LearnedMimic {
    fn ingress_or_egress(&mut self, dir: BoundaryDir) -> &mut DirRuntime {
        match dir {
            BoundaryDir::Ingress => &mut self.ingress,
            BoundaryDir::Egress => &mut self.egress,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, DataGenConfig};
    use mimic_ml::train::TrainConfig;

    fn quick_bundle() -> (TrainedMimic, FatTreeParams) {
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

    #[test]
    fn bundle_json_roundtrip() {
        let (b, _) = quick_bundle();
        let b2 = TrainedMimic::from_json(&b.to_json()).unwrap();
        assert_eq!(b.feature_cfg.width(), b2.feature_cfg.width());
    }

    #[test]
    fn bundle_latency_floor_matches_the_fleets() {
        use dcn_sim::mimic::BatchClusterModel;
        let (b, mut topo) = quick_bundle();
        topo.clusters = 4;
        let fleet = crate::batch::BatchedMimicFleet::new(b.clone(), topo, 4, &[(1, 9), (2, 10)]);
        assert_eq!(b.latency_floor(), fleet.latency_floor());
        assert!(b.latency_floor() >= SimDuration::from_micros(1));
    }

    #[test]
    fn mimic_delivers_with_positive_latency() {
        let (b, mut topo) = quick_bundle();
        topo.clusters = 4;
        let mut m = LearnedMimic::new(b, topo, 4, 9);
        let t = FatTree::new(topo);
        let pkt = Packet::data(
            1,
            dcn_sim::packet::FlowId(5),
            t.host(1, 0, 0),
            t.host(0, 1, 1),
            0,
            1460,
            false,
            SimTime::from_secs_f64(0.01),
        );
        let mut delivered = 0;
        for i in 0..50 {
            match m.on_packet(BoundaryDir::Egress, &pkt, SimTime::from_secs_f64(0.01 + i as f64 * 1e-4)) {
                Verdict::Deliver { latency, .. } => {
                    assert!(latency > SimDuration::ZERO);
                    delivered += 1;
                }
                Verdict::Drop => {}
            }
        }
        assert!(delivered > 0, "everything dropped");
        assert_eq!(m.packets_seen, 50);
    }

    #[test]
    fn feeders_active_beyond_two_clusters() {
        let (b, mut topo) = quick_bundle();
        topo.clusters = 8;
        let mut m = LearnedMimic::new(b.clone(), topo, 8, 3);
        assert!(m.next_wake(SimTime::ZERO).is_some());
        // Fire a few wakeups; state must advance.
        let mut wakes = 0;
        let mut t = SimTime::ZERO;
        while let Some(next) = m.next_wake(t) {
            if next > SimTime::from_secs_f64(0.2) || wakes > 500 {
                break;
            }
            t = next;
            m.on_wake(t);
            wakes += 1;
        }
        assert!(m.feeder_packets > 0);
        // At n = 2 feeders are disabled.
        let mut topo2 = topo;
        topo2.clusters = 2;
        let mut m2 = LearnedMimic::new(b, topo2, 2, 3);
        assert!(m2.next_wake(SimTime::ZERO).is_none());
    }

    #[test]
    fn drift_reported_after_enough_ingress_packets() {
        let (b, mut topo) = quick_bundle();
        assert!(b.envelope.is_some(), "datagen must fit an envelope");
        topo.clusters = 4;
        let t = FatTree::new(topo);
        let mut m = LearnedMimic::new(b.clone(), topo, 4, 9).with_drift_window(32);
        assert!(m.drift().is_none(), "no score before a window completes");
        let pkt = Packet::data(
            1,
            dcn_sim::packet::FlowId(5),
            t.host(1, 0, 0),
            t.host(0, 1, 1),
            0,
            1460,
            false,
            SimTime::from_secs_f64(0.01),
        );
        for i in 0..200 {
            m.on_packet(
                BoundaryDir::Ingress,
                &pkt,
                SimTime::from_secs_f64(0.01 + i as f64 * 1e-4),
            );
        }
        let d = m.drift().expect("windows completed");
        assert!(d.is_finite() && d >= 0.0, "drift {d}");
        // A bundle without an envelope never reports drift.
        let mut bare = b;
        bare.envelope = None;
        let mut m2 = LearnedMimic::new(bare, topo, 4, 9);
        for i in 0..200 {
            m2.on_packet(
                BoundaryDir::Ingress,
                &pkt,
                SimTime::from_secs_f64(0.01 + i as f64 * 1e-4),
            );
        }
        assert!(m2.drift().is_none());
    }

    #[test]
    fn threshold_mode_is_deterministic() {
        let (b, mut topo) = quick_bundle();
        topo.clusters = 4;
        let t = FatTree::new(topo);
        let pkt = Packet::data(
            1,
            dcn_sim::packet::FlowId(5),
            t.host(0, 0, 0),
            t.host(1, 1, 1),
            0,
            1460,
            false,
            SimTime::from_secs_f64(0.02),
        );
        let run = || {
            let mut m =
                LearnedMimic::new(b.clone(), topo, 4, 1).with_mode(DecisionMode::Threshold);
            (0..20)
                .map(|i| {
                    match m.on_packet(
                        BoundaryDir::Ingress,
                        &pkt,
                        SimTime::from_secs_f64(0.02 + i as f64 * 1e-4),
                    ) {
                        Verdict::Drop => u64::MAX,
                        Verdict::Deliver { latency, .. } => latency.as_nanos(),
                    }
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
