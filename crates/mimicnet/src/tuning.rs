//! Hyper-parameter tuning with Bayesian optimization (paper §7.2).
//!
//! "For every tested parameter set, MimicNet trains a set of models and
//! runs validation tests to evaluate the resulting accuracy and its
//! scale-independence. Specifically, MimicNet runs an approximated and
//! full-fidelity simulation on a held-out validation workload in three
//! configurations: 2, 4, and 8 clusters. … The full-fidelity comparison
//! results are only gathered once."
//!
//! The objective is user-definable; the default mirrors the paper's FCT
//! use case: the sum over validation scales of `W1(FCT)` normalized by the
//! ground truth's mean FCT (normalization makes scales comparable).

use crate::error::PipelineError;
use crate::metrics::{wasserstein1, ObservedSamples};
use crate::pipeline::{Pipeline, PipelineConfig};
use mimic_ml::bayesopt::{BayesOpt, ParamDim, ParamSpace};
use mimic_ml::loss::{ClsLoss, RegLoss};
use std::collections::HashMap;

/// The tunable hyper-parameters (a subset of the paper's list: "WBCE
/// weight, Huber loss δ, LSTM layers, hidden size, epochs, and learning
/// rate among others").
#[derive(Clone, Copy, Debug)]
pub struct TunedParams {
    pub wbce_w: f64,
    pub huber_delta: f64,
    pub lr: f64,
    pub hidden: usize,
    pub window: usize,
}

impl TunedParams {
    /// Apply to a pipeline configuration.
    pub fn apply(&self, cfg: &mut PipelineConfig) {
        cfg.train.loss.drop = ClsLoss::Wbce {
            w: self.wbce_w as f32,
        };
        cfg.train.loss.latency = RegLoss::Huber {
            delta: self.huber_delta as f32,
        };
        cfg.train.lr = self.lr as f32;
        cfg.hidden = self.hidden;
        cfg.train.window = self.window;
    }

    fn from_raw(raw: &[f64]) -> TunedParams {
        TunedParams {
            wbce_w: raw[0],
            huber_delta: raw[1],
            lr: raw[2],
            hidden: raw[3].round().max(4.0) as usize,
            window: raw[4].round().max(1.0) as usize,
        }
    }

    fn to_raw(self) -> Vec<f64> {
        vec![
            self.wbce_w,
            self.huber_delta,
            self.lr,
            self.hidden as f64,
            self.window as f64,
        ]
    }
}

/// Tuning-loop configuration.
#[derive(Clone, Debug)]
pub struct TuningConfig {
    /// Total (train + validate) evaluations.
    pub evals: usize,
    /// Validation cluster counts (paper: 2, 4, 8).
    pub scales: Vec<u32>,
    /// Seed for the BO proposals and the held-out validation workload.
    pub seed: u64,
}

impl Default for TuningConfig {
    fn default() -> Self {
        TuningConfig {
            evals: 8,
            scales: vec![2, 4],
            seed: 99,
        }
    }
}

/// Tuning outcome.
#[derive(Clone, Debug)]
pub struct TuningResult {
    pub best: TunedParams,
    pub best_objective: f64,
    /// `(params, objective)` per evaluation, in order.
    pub history: Vec<(TunedParams, f64)>,
}

/// The default search space.
pub fn default_space() -> ParamSpace {
    ParamSpace {
        dims: vec![
            ParamDim::linear("wbce_w", 0.5, 0.95),
            // Latency targets are normalized to [0,1]; the knee must sit
            // inside that range.
            ParamDim::log("huber_delta", 0.02, 1.0),
            ParamDim::log("lr", 5e-4, 2e-2),
            ParamDim::linear("hidden", 8.0, 48.0),
            ParamDim::linear("window", 4.0, 16.0),
        ],
    }
}

/// Run the tuning loop. Ground truths for each validation scale are
/// simulated once and cached across evaluations. The first trial whose
/// configuration, training or estimate fails ends the loop with its error.
///
/// Trials run one after another — each proposal conditions on every prior
/// observation — and each trial trains on `base_cfg.train.workers`
/// threads. Training is bit-identical at any budget, so the proposal
/// stream and history are too.
pub fn tune(
    base_cfg: &PipelineConfig,
    tcfg: &TuningConfig,
) -> Result<TuningResult, PipelineError> {
    if tcfg.evals == 0 {
        return Err(PipelineError::InvalidConfig {
            reason: "tuning needs at least one evaluation".into(),
        });
    }
    // The held-out validation workload: same shape, different seed.
    let mut val_cfg = *base_cfg;
    val_cfg.base.seed = base_cfg.base.seed ^ 0x5EED_5EED;

    // Gather ground truths once.
    let mut truths: HashMap<u32, ObservedSamples> = HashMap::new();
    for &s in &tcfg.scales {
        let (truth, _, _) = Pipeline::new(val_cfg).try_ground_truth(s, None)?;
        truths.insert(s, truth);
    }
    let truth_mean_fct: HashMap<u32, f64> = truths
        .iter()
        .map(|(&s, t)| (s, dcn_sim::stats::mean(&t.fct).max(1e-9)))
        .collect();
    let truth_mean_rtt: HashMap<u32, f64> = truths
        .iter()
        .map(|(&s, t)| (s, dcn_sim::stats::mean(&t.rtt).max(1e-9)))
        .collect();

    let mut bo = BayesOpt::new(default_space(), tcfg.seed);
    let mut history = Vec::with_capacity(tcfg.evals);
    for _ in 0..tcfg.evals {
        let raw = bo.propose();
        let params = TunedParams::from_raw(&raw);
        let mut cfg = val_cfg;
        params.apply(&mut cfg);
        let mut pipe = Pipeline::new(cfg);
        let (trained, _) = pipe.try_train()?;
        // End-to-end objective across validation scales.
        let mut objective = 0.0;
        for &s in &tcfg.scales {
            // The estimate already filters to the observable cluster. The
            // objective is user-definable (§7.2); the default combines
            // FCT and RTT distribution errors, each normalized by the
            // truth's mean so scales and metrics are commensurate.
            let est = pipe.try_estimate(&trained, s, None)?;
            let w_fct = wasserstein1(&truths[&s].fct, &est.samples.fct);
            let w_fct = if w_fct.is_finite() { w_fct } else { 10.0 * truth_mean_fct[&s] };
            let w_rtt = wasserstein1(&truths[&s].rtt, &est.samples.rtt);
            let w_rtt = if w_rtt.is_finite() { w_rtt } else { 10.0 * truth_mean_rtt[&s] };
            objective += w_fct / truth_mean_fct[&s] + w_rtt / truth_mean_rtt[&s];
        }
        bo.observe(&params.to_raw(), objective);
        history.push((params, objective));
    }
    let (best_raw, best_objective) = bo.best().expect("evaluated at least once");
    Ok(TuningResult {
        best: TunedParams::from_raw(&best_raw),
        best_objective,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_roundtrip_and_apply() {
        let p = TunedParams {
            wbce_w: 0.7,
            huber_delta: 1.5,
            lr: 3e-3,
            hidden: 16,
            window: 8,
        };
        let p2 = TunedParams::from_raw(&p.to_raw());
        assert_eq!(p2.hidden, 16);
        assert_eq!(p2.window, 8);
        let mut cfg = PipelineConfig::default();
        p.apply(&mut cfg);
        assert_eq!(cfg.hidden, 16);
        assert_eq!(cfg.train.window, 8);
        match cfg.train.loss.drop {
            ClsLoss::Wbce { w } => assert!((w - 0.7).abs() < 1e-6),
            other => panic!("unexpected drop loss {other:?}"),
        }
    }

    #[test]
    fn space_denorm_within_bounds() {
        let space = default_space();
        for u in [0.0, 0.3, 0.99] {
            let raw = space.denorm(&vec![u; space.ndims()]);
            let p = TunedParams::from_raw(&raw);
            assert!((0.5..=0.95).contains(&p.wbce_w));
            assert!((0.02..=1.0).contains(&p.huber_delta));
            assert!((5e-4..=2e-2).contains(&p.lr));
            assert!((4..=48).contains(&p.hidden));
            assert!((1..=16).contains(&p.window));
        }
    }

    #[test]
    #[ignore = "minutes-long: trains models per evaluation (run with --ignored)"]
    fn tuning_loop_improves_or_matches_first_guess() {
        let mut cfg = PipelineConfig::default();
        cfg.base.duration_s = 0.25;
        cfg.train.epochs = 1;
        let tcfg = TuningConfig {
            evals: 3,
            scales: vec![2],
            seed: 5,
        };
        let result = tune(&cfg, &tcfg).expect("tuning runs");
        assert_eq!(result.history.len(), 3);
        let first = result.history[0].1;
        assert!(result.best_objective <= first);
        assert!(result.best_objective.is_finite());
    }

    #[test]
    fn tuning_worker_budget_is_trajectory_invariant() {
        // One cheap trial, run at worker budgets 1 and 4: training is
        // bit-identical at any worker count, so the proposal stream, the
        // per-trial objectives, and the winner must match exactly.
        let mut cfg = PipelineConfig::default();
        cfg.base.duration_s = 0.2;
        cfg.train.epochs = 1;
        cfg.train.window = 4;
        let tcfg = TuningConfig {
            evals: 1,
            scales: vec![2],
            seed: 5,
        };
        let mut results = Vec::new();
        for workers in [1usize, 4] {
            results.push(tune(&cfg.with_workers(workers), &tcfg).expect("tuning runs"));
        }
        let (a, b) = (&results[0], &results[1]);
        assert_eq!(a.history.len(), b.history.len());
        for ((pa, oa), (pb, ob)) in a.history.iter().zip(&b.history) {
            assert_eq!(pa.to_raw(), pb.to_raw(), "proposal drifted with workers");
            assert_eq!(oa.to_bits(), ob.to_bits(), "objective drifted with workers");
        }
        assert_eq!(a.best_objective.to_bits(), b.best_objective.to_bits());
    }
}
