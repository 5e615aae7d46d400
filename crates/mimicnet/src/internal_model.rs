//! Internal cluster models (paper §5): one per direction.
//!
//! An [`InternalModel`] bundles the LSTM with the latency discretizer used
//! to build its targets, so predictions can be recovered into real
//! latencies. Training runs the DCN-friendly combined loss with stateful
//! truncated BPTT (`mimic_ml::train`): the hidden state is carried along
//! the trace as prediction carries it, one packet at a time, and every
//! packet is supervised.

use mimic_ml::dataset::PacketDataset;
use mimic_ml::discretize::Discretizer;
use mimic_ml::loss::sigmoid;
use mimic_ml::model::ModelState;
use mimic_ml::model::{SeqModel, OUT_DROP, OUT_ECN, OUT_LATENCY};
use mimic_ml::train::{train, TrainConfig, TrainError, TrainReport};
use serde::{Deserialize, Serialize};

/// One direction's trained internal model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InternalModel {
    pub model: SeqModel,
    /// Latency quantizer (targets are normalized bucket values).
    pub disc: Discretizer,
}

/// Decoded single-packet prediction.
#[derive(Clone, Copy, Debug)]
pub struct Prediction {
    /// Predicted dwell time in seconds (clamped to the training range).
    pub latency_s: f64,
    /// Drop probability.
    pub p_drop: f64,
    /// CE-mark probability.
    pub p_ecn: f64,
    /// Raw normalized latency output (for congestion-state feedback).
    pub latency_norm: f32,
}

impl InternalModel {
    /// Train a fresh `layers`-deep stack (the "LSTM layers" tunable of
    /// §7.2). Errors on an empty dataset or a divergent run.
    pub fn train_stacked(
        data: &PacketDataset,
        disc: Discretizer,
        hidden: usize,
        layers: usize,
        cfg: &TrainConfig,
    ) -> Result<(InternalModel, TrainReport), TrainError> {
        let mut model = SeqModel::new_stacked(data.width(), hidden, layers, cfg.seed);
        let report = train(&mut model, data, cfg, &mut dcn_obs::Obs::off(), "train")?;
        Ok((InternalModel { model, disc }, report))
    }

    /// Continue training the existing weights on new data (the paper's
    /// Appendix H "incremental model updates": when the workload or
    /// configuration shifts, transfer from the old model instead of
    /// retraining from scratch).
    pub fn fine_tune(
        &mut self,
        data: &PacketDataset,
        cfg: &TrainConfig,
    ) -> Result<TrainReport, TrainError> {
        train(&mut self.model, data, cfg, &mut dcn_obs::Obs::off(), "train")
    }

    /// Fresh inference state.
    pub fn init_state(&self) -> ModelState {
        self.model.init_state()
    }

    /// Stateful per-packet prediction.
    pub fn predict(&self, features: &[f32], state: &mut ModelState) -> Prediction {
        let out = self.model.step(features, state);
        let latency_norm = out[OUT_LATENCY].clamp(0.0, 1.0);
        Prediction {
            latency_s: self.disc.recover(latency_norm),
            p_drop: sigmoid(out[OUT_DROP]) as f64,
            p_ecn: sigmoid(out[OUT_ECN]) as f64,
            latency_norm,
        }
    }

    /// State-only update (feeder traffic).
    pub fn update_only(&self, features: &[f32], state: &mut ModelState) {
        self.model.step_state_only(features, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimic_ml::loss::Target;

    fn dataset() -> PacketDataset {
        // Latency correlates with feature 0; drops with feature 1.
        let mut d = PacketDataset::default();
        for i in 0..600 {
            let hot = (i / 20) % 2 == 1;
            let lossy = i % 17 == 0;
            d.push(
                vec![if hot { 1.0 } else { 0.0 }, if lossy { 1.0 } else { 0.0 }],
                Target {
                    latency: if hot { 0.9 } else { 0.1 },
                    dropped: if lossy { 1.0 } else { 0.0 },
                    ecn: 0.0,
                },
            );
        }
        d
    }

    #[test]
    fn trains_and_predicts_in_range() {
        let disc = Discretizer::new(0.001, 0.01, 100);
        let cfg = TrainConfig {
            epochs: 6,
            window: 4,
            ..TrainConfig::default()
        };
        let (m, report) = InternalModel::train_stacked(&dataset(), disc, 8, 1, &cfg)
            .expect("valid training setup");
        assert!(report.final_loss().expect("epochs ran") < report.epoch_losses[0]);
        let mut state = m.init_state();
        let p = m.predict(&[1.0, 0.0], &mut state);
        assert!(p.latency_s >= 0.001 && p.latency_s <= 0.01);
        assert!((0.0..=1.0).contains(&p.p_drop));
        assert!((0.0..=1.0).contains(&p.p_ecn));
    }

    #[test]
    fn latency_prediction_tracks_signal() {
        let disc = Discretizer::new(0.0, 1.0, 100);
        let cfg = TrainConfig {
            epochs: 10,
            window: 4,
            ..TrainConfig::default()
        };
        let (m, _) = InternalModel::train_stacked(&dataset(), disc, 12, 1, &cfg)
            .expect("valid training setup");
        let mut s = m.init_state();
        let mut hot = 0.0;
        for _ in 0..4 {
            hot = m.predict(&[1.0, 0.0], &mut s).latency_s;
        }
        let mut s = m.init_state();
        let mut cold = 0.0;
        for _ in 0..4 {
            cold = m.predict(&[0.0, 0.0], &mut s).latency_s;
        }
        assert!(hot > cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn drop_probability_responds_to_features() {
        let disc = Discretizer::new(0.0, 1.0, 100);
        let cfg = TrainConfig {
            epochs: 10,
            window: 2,
            ..TrainConfig::default()
        };
        let (m, _) = InternalModel::train_stacked(&dataset(), disc, 12, 1, &cfg)
            .expect("valid training setup");
        let mut s = m.init_state();
        let p_lossy = m.predict(&[0.0, 1.0], &mut s).p_drop;
        let mut s = m.init_state();
        let p_clean = m.predict(&[0.0, 0.0], &mut s).p_drop;
        assert!(
            p_lossy > p_clean,
            "lossy {p_lossy} should exceed clean {p_clean}"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let disc = Discretizer::new(0.0, 1.0, 50);
        let cfg = TrainConfig {
            epochs: 1,
            window: 2,
            ..TrainConfig::default()
        };
        let (m, _) = InternalModel::train_stacked(&dataset(), disc, 6, 1, &cfg)
            .expect("valid training setup");
        let json = serde_json::to_string(&m).unwrap();
        let m2: InternalModel = serde_json::from_str(&json).unwrap();
        let mut s1 = m.init_state();
        let mut s2 = m2.init_state();
        let p1 = m.predict(&[1.0, 0.0], &mut s1);
        let p2 = m2.predict(&[1.0, 0.0], &mut s2);
        assert_eq!(p1.latency_s, p2.latency_s);
        assert_eq!(p1.p_drop, p2.p_drop);
    }
}
