//! The trained Mimic bundle and the pieces every live Mimic shares: the
//! artifact training produces ([`TrainedMimic`]), how probabilities become
//! decisions ([`DecisionMode`]) and the boundary-crossing projection
//! ([`packet_view`]). The live composition — every Mimic'ed cluster of a
//! simulation — is [`crate::fleet::MimicFleet`].

use crate::drift::FeatureEnvelope;
use crate::features::{FeatureConfig, PacketView};
use crate::feeder::FeederFit;
use crate::internal_model::InternalModel;
use dcn_sim::mimic::BoundaryDir;
use dcn_sim::packet::Packet;
use dcn_sim::routing::ecmp_hash;
use dcn_sim::time::{SimDuration, SimTime};
use dcn_sim::topology::FatTree;
use mimic_ml::train::TrainConfig;
use serde::{Deserialize, Serialize};

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
    /// The truncated-BPTT context both models were trained on
    /// (`TrainConfig::window`). A live Mimic steps its LSTM through at
    /// most this many feeder packets before each verdict (see
    /// [`crate::fleet`]). Bundles serialized before the field existed
    /// load with the training default.
    #[serde(default)]
    pub window: TrainWindow,
}

/// A training window in packets, at least one. Serialized as a bare
/// number; the default is `TrainConfig::default().window`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainWindow(pub usize);

impl Default for TrainWindow {
    fn default() -> Self {
        TrainWindow(TrainConfig::default().window)
    }
}

impl TrainedMimic {
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("bundle serializes")
    }

    /// Parse a bundle, rejecting a zero training window and a drift
    /// envelope the monitor could not score against (wrong width,
    /// unusable statistics).
    pub fn from_json(s: &str) -> Result<TrainedMimic, serde_json::Error> {
        let bundle: TrainedMimic = serde_json::from_str(s)?;
        if bundle.window.0 == 0 {
            return Err(serde_json::Error::new(
                "training window must be at least 1 packet",
            ));
        }
        if let Some(env) = &bundle.envelope {
            env.check(bundle.feature_cfg.width())
                .map_err(serde_json::Error::new)?;
        }
        Ok(bundle)
    }

    /// Lower bound on any latency this bundle predicts: the smallest value
    /// either direction's discretizer can recover, floored at 1 µs. A
    /// fleet's verdicts are clamped to it and a composed PDES run's window
    /// derives from it, so it is available without building a fleet.
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
/// cluster's switches would have made (the equivalence suite replays traces
/// through it to build its reference pipeline).
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::datagen::{generate, DataGenConfig};
    use dcn_sim::topology::FatTreeParams;

    pub(crate) fn quick_bundle() -> (TrainedMimic, FatTreeParams) {
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
        (
            TrainedMimic {
                ingress: ing,
                egress: eg,
                feature_cfg: td.feature_cfg,
                feeder: td.feeder,
                envelope: FeatureEnvelope::fit(&td.ingress.features),
                window: TrainWindow(tc.window),
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
    fn bundle_window_defaults_when_missing_and_rejects_zero() {
        let (b, _) = quick_bundle();
        assert_eq!(b.window, TrainWindow(4));
        let json = b.to_json();
        assert_eq!(
            TrainedMimic::from_json(&json).unwrap().window,
            TrainWindow(4)
        );
        let field = "\"window\":4";
        assert!(json.contains(field), "window serializes as a bare number");
        let old = TrainedMimic::from_json(&json.replace(&format!(",{field}"), ""))
            .expect("a bundle without the field loads");
        assert_eq!(old.window, TrainWindow(12));
        let err = TrainedMimic::from_json(&json.replace(field, "\"window\":0"))
            .expect_err("a zero window is refused");
        assert!(err.to_string().contains("window"), "{err}");
    }

    #[test]
    fn bundle_with_unusable_envelope_is_rejected_on_load() {
        let (mut b, _) = quick_bundle();
        let width = b.feature_cfg.width();
        let good = b.envelope.clone().expect("datagen fits an envelope");
        let mut reject = |what: &str, edit: &dyn Fn(&mut FeatureEnvelope)| {
            let mut env = good.clone();
            edit(&mut env);
            b.envelope = Some(env);
            let err = TrainedMimic::from_json(&b.to_json()).err();
            assert!(err.is_some(), "{what}: loaded an envelope the monitor would panic on");
        };
        reject("truncated lo", &|e| e.lo.truncate(width - 1));
        reject("zero std", &|e| e.std[0] = 0.0);
        reject("inverted band", &|e| e.lo[0] = e.hi[0] + 1.0);
    }

    #[test]
    fn bundle_latency_floor_matches_the_fleets() {
        use dcn_sim::mimic::ClusterModel;
        let (b, mut topo) = quick_bundle();
        topo.clusters = 4;
        let fleet = crate::fleet::MimicFleet::new(b.clone(), topo, 4, &[(1, 9), (2, 10)]);
        assert_eq!(b.latency_floor(), fleet.latency_floor());
        assert!(b.latency_floor() >= SimDuration::from_micros(1));
    }
}
