//! The one trained fixture the composed-run test binaries share: a small
//! NewReno bundle trained once per binary. Its training is locked by
//! `integration_tiers::composed_trajectories_are_locked`, so changing
//! anything here re-records that test.

#![allow(dead_code)]

use dcn_sim::mimic::FidelityTier;
use mimicnet::mimic::TrainedMimic;
use mimicnet::pipeline::{Pipeline, PipelineConfig};
use mimicnet::AccuracyBudget;
use std::sync::OnceLock;

pub fn quick_cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.base.duration_s = 0.3;
    cfg.base.seed = 5;
    cfg.hidden = 8;
    cfg.train.epochs = 1;
    cfg.train.window = 4;
    cfg
}

/// One trained bundle shared by every test in a binary (training is the
/// expensive part and its output is deterministic in the config).
pub fn trained() -> &'static TrainedMimic {
    static TRAINED: OnceLock<TrainedMimic> = OnceLock::new();
    TRAINED.get_or_init(|| {
        Pipeline::new(quick_cfg())
            .try_train()
            .expect("training succeeds")
            .0
    })
}

/// Guarantee tier transitions: start at Mimic with patience 1, so every
/// cluster demotes at the first epoch barrier (an unmonitored epoch counts
/// as calm), and promote on any observed drift, so warmed-up clusters
/// oscillate back — a schedule rich enough to exercise mixed-tier state.
pub fn switching_budget() -> AccuracyBudget {
    AccuracyBudget {
        start: FidelityTier::Mimic,
        demote_below: f64::INFINITY,
        patience: 1,
        promote_above: 0.0,
        ..AccuracyBudget::default()
    }
}
