//! The end-to-end MimicNet workflow (paper Figure 3, Table 2).
//!
//! `small-scale simulation → feature extraction → model training →
//! [tuning] → large-scale composition`, with wall-clock accounting per
//! phase. "A key feature of MimicNet is that the traditionally slow steps
//! … are all done at small scale and are, therefore, fast as well."

use crate::compose::{
    composed_config, ground_truth, run_composed_adaptive, run_composed_partitioned,
    try_compose_partial, OBSERVABLE,
};
use crate::datagen::{generate, DataGenConfig, TrainingData};
use crate::degrade::{AccuracyBudget, DegradationPolicy, DegradationReport};
use crate::drift::FeatureEnvelope;
use crate::error::{ComposeRunError, PipelineError};
use crate::internal_model::InternalModel;
use crate::metrics::{observed, ObservedSamples};
use crate::mimic::TrainedMimic;
use crate::tier::CorrectionHead;
use dcn_sim::config::SimConfig;
use dcn_sim::fault::FaultPlan;
use dcn_sim::instrument::Metrics;
use dcn_sim::pdes::{PdesRunOpts, TierPlan};
use dcn_sim::stats::percentile;
use dcn_sim::topology::FatTree;
use dcn_transport::Protocol;
use mimic_ml::model::SeqModel;
use mimic_ml::train::{train, CheckpointSpec, TrainConfig, TrainError};
use std::path::Path;
use std::time::{Duration, Instant};

/// Configuration of the whole pipeline.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Small-scale (2-cluster) simulation used for data generation; its
    /// non-cluster-count parameters carry over to every composition.
    pub base: SimConfig,
    /// Protocol under study.
    pub protocol: Protocol,
    /// Training hyper-parameters (the tunables of §7.2).
    pub train: TrainConfig,
    /// LSTM hidden width.
    pub hidden: usize,
    /// LSTM stack depth (the "LSTM layers" tunable of §7.2).
    pub layers: usize,
    /// Latency discretization levels (`D`, §5.2).
    pub disc_levels: u32,
    /// The data-generation simulation runs this much longer than
    /// `base.duration_s`. Small-scale time is cheap (that is the point of
    /// the paper's workflow), and the models want more packets than a
    /// validation-length run provides.
    pub datagen_duration_factor: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            base: SimConfig::small_scale(),
            protocol: Protocol::NewReno,
            train: TrainConfig::default(),
            hidden: 32,
            layers: 1,
            disc_levels: 100,
            datagen_duration_factor: 4.0,
        }
    }
}

impl PipelineConfig {
    /// Train both directions' models with `workers` threads. The result is
    /// bit-identical to the sequential run for any worker count (the
    /// gradient reduction order is fixed — see `mimic_ml::train`); only
    /// the training-phase wall-clock changes.
    pub fn with_workers(mut self, workers: usize) -> PipelineConfig {
        self.train.workers = workers;
        self
    }
}

/// Wall-clock spent in each phase (the rows of the paper's Table 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    pub small_scale_sim: Duration,
    pub training: Duration,
    pub large_scale_sim: Duration,
}

impl PhaseTimings {
    pub fn total(&self) -> Duration {
        self.small_scale_sim + self.training + self.large_scale_sim
    }
}

/// Result of one large-scale estimate.
pub struct EstimateReport {
    /// Observable-cluster samples.
    pub samples: ObservedSamples,
    pub fct_p99: f64,
    pub throughput_p99: f64,
    pub rtt_p99: f64,
    /// Wall time of the composed simulation.
    pub wall: Duration,
    /// Raw metrics for further analysis.
    pub metrics: Metrics,
    /// Degradation decisions, when the estimate ran under a policy
    /// ([`Pipeline::estimate_with_policy`]); `None` otherwise.
    pub degradation: Option<DegradationReport>,
}

impl EstimateReport {
    /// Uncertainty multiplier from the degradation pass (1.0 when no
    /// policy ran or nothing drifted far enough to widen).
    pub fn uncertainty_factor(&self) -> f64 {
        self.degradation
            .as_ref()
            .map_or(1.0, |d| d.uncertainty_factor)
    }
}

/// The pipeline driver.
pub struct Pipeline {
    pub cfg: PipelineConfig,
    pub timings: PhaseTimings,
    /// Telemetry recorder (off by default — see [`Pipeline::with_obs`]).
    /// When on, each phase gets a span, training records per-epoch
    /// series, and every simulation the pipeline runs has engine-side
    /// tracing enabled; the engines' reports are folded in here.
    pub obs: dcn_obs::Obs,
}

impl Pipeline {
    pub fn new(cfg: PipelineConfig) -> Pipeline {
        Pipeline {
            cfg,
            timings: PhaseTimings::default(),
            obs: dcn_obs::Obs::off(),
        }
    }

    /// Turn on observability for every subsequent phase. Recording never
    /// changes numerics: simulated trajectories and trained weights are
    /// bit-identical with obs on or off.
    pub fn with_obs(mut self) -> Pipeline {
        self.obs = dcn_obs::Obs::on();
        self
    }

    /// Absorb a finished simulation's engine-side report, if it has one.
    /// With the pipeline recorder off, the report stays on the metrics so
    /// programmatic callers (e.g. divergence bisection) can read it.
    fn absorb_sim_obs(&mut self, metrics: &mut Metrics) {
        if !self.obs.is_on() {
            return;
        }
        if let Some(r) = metrics.obs.take() {
            self.obs.merge_report(*r);
        }
    }

    /// Phases ❶–❷: small-scale observation and model training. Returns the
    /// bundle and the training data it was fit on (loss-function and
    /// window-size experiments read the latter).
    ///
    /// The configuration is checked before anything runs; an empty
    /// small-scale boundary trace, a diverged loss and checkpoint I/O
    /// failures are typed errors too. With `ckpt_dir`, each direction
    /// model's full training-loop state is persisted there (as
    /// `train.ingress.ckpt.json` / `train.egress.ckpt.json`) after every
    /// epoch, and an interrupted run resumes from those files
    /// bit-identically to a run that was never killed. Data generation is
    /// deterministic in the config, so it is simply replayed.
    pub fn try_train(
        &mut self,
        ckpt_dir: Option<&Path>,
    ) -> Result<(TrainedMimic, TrainingData), PipelineError> {
        self.cfg.base.validate()?;
        for (what, n) in [
            ("training window", self.cfg.train.window),
            ("batch size", self.cfg.train.batch_size),
            ("LSTM layer count", self.cfg.layers),
        ] {
            if n < 1 {
                return Err(PipelineError::InvalidConfig {
                    reason: format!("{what} must be at least 1, got {n}"),
                });
            }
        }
        if let Some(dir) = ckpt_dir {
            std::fs::create_dir_all(dir).map_err(|e| {
                PipelineError::Train(TrainError::Checkpoint {
                    message: format!("create {}: {e}", dir.display()),
                })
            })?;
        }
        let t0 = Instant::now();
        let mut dg_sim = self.cfg.base;
        dg_sim.duration_s *= self.cfg.datagen_duration_factor.max(1.0);
        let dg = DataGenConfig {
            sim: dg_sim,
            protocol: self.cfg.protocol,
            model_cluster: 1,
            disc_levels: self.cfg.disc_levels,
            horizon_guard_s: 0.05,
            congestion_feature: true,
        };
        self.obs.begin("pipeline.datagen", "pipeline", None);
        let data = generate(&dg);
        self.obs.end(None);
        self.timings.small_scale_sim = t0.elapsed();
        if data.ingress.is_empty() || data.egress.is_empty() {
            return Err(TrainError::EmptyDataset.into());
        }

        let t1 = Instant::now();
        // The two direction models share nothing, so they fan out across
        // the worker budget (`TrainConfig::workers`): each job gets a
        // deterministic share and is itself worker-count-invariant, so
        // the trained parameters are bit-identical to the old
        // ingress-then-egress serial loop at any budget (workers == 1
        // *is* that loop). Each job records into a private recorder on
        // its own track; reports merge back in fixed ingress-then-egress
        // order so traced output is scheduling-independent.
        let obs_on = self.obs.is_on();
        let (hidden, layers, base_train) = (self.cfg.hidden, self.cfg.layers, self.cfg.train);
        let dirs: [(&'static str, &str, &_, _, u32); 2] = [
            ("pipeline.train.ingress", "train.ingress", &data.ingress, data.ingress_disc, 1),
            ("pipeline.train.egress", "train.egress", &data.egress, data.egress_disc, 2),
        ];
        let mut results = mimic_ml::train::fanout_jobs(2, base_train.workers, &|j, share| {
            let (span, prefix, ds, disc, track) = dirs[j];
            let mut obs = if obs_on { dcn_obs::Obs::on() } else { dcn_obs::Obs::off() };
            obs.set_track(track);
            obs.begin(span, "pipeline", None);
            let ckpt_path = ckpt_dir.map(|d| d.join(format!("{prefix}.ckpt.json")));
            let spec = ckpt_path.as_deref().map(|path| CheckpointSpec { path, resume: true });
            let cfg = TrainConfig { workers: share, ..base_train };
            let mut model = SeqModel::new_stacked(ds.width(), hidden, layers, cfg.seed);
            let out = train(&mut model, ds, &cfg, &mut obs, prefix, spec.as_ref())
                .map(|_| InternalModel { model, disc });
            obs.end(None);
            (out, obs.take_report())
        });
        let (egress, egress_report) = results.pop().expect("egress job ran");
        let (ingress, ingress_report) = results.pop().expect("ingress job ran");
        if let Some(r) = ingress_report {
            self.obs.merge_report(r);
        }
        if let Some(r) = egress_report {
            self.obs.merge_report(r);
        }
        let (ingress, egress) = (ingress?, egress?);
        self.timings.training = t1.elapsed();

        Ok((
            TrainedMimic {
                ingress,
                egress,
                feature_cfg: data.feature_cfg,
                feeder: data.feeder.clone(),
                envelope: FeatureEnvelope::fit(&data.ingress.features),
            },
            data,
        ))
    }

    /// Train several independent mimic bundles concurrently through the
    /// same fixed-order fan-out as the per-direction models (e.g. one per
    /// protocol under study). `workers` is the total budget; each bundle
    /// gets a deterministic share and splits it again across its two
    /// directions, so results are bit-identical to training the bundles
    /// one after another at any budget (and `workers == 1` *is* that
    /// serial loop). Bundles come back in `cfgs` order; the first failing
    /// bundle's error (in that order) wins.
    pub fn try_train_bundles(
        cfgs: &[PipelineConfig],
        workers: usize,
    ) -> Result<Vec<TrainedMimic>, PipelineError> {
        let results = mimic_ml::train::fanout_jobs(cfgs.len(), workers, &|j, share| {
            let mut pipe = Pipeline::new(PipelineConfig {
                train: TrainConfig { workers: share, ..cfgs[j].train },
                ..cfgs[j]
            });
            pipe.try_train(None).map(|(trained, _)| trained)
        });
        results.into_iter().collect()
    }

    /// The shared tail of every estimate: `run` the composed simulation
    /// under a `pipeline.estimate` span, fold its engine-side telemetry
    /// into the pipeline recorder, account the wall clock since `t0` to
    /// the large-scale phase, and summarize the observable cluster.
    fn estimate_via<E>(
        &mut self,
        t0: Instant,
        n_clusters: u32,
        run: impl FnOnce() -> Result<Metrics, E>,
    ) -> Result<EstimateReport, E> {
        self.obs.begin("pipeline.estimate", "pipeline", None);
        let result = run();
        self.obs.end(None);
        let mut metrics = result?;
        self.absorb_sim_obs(&mut metrics);
        let wall = t0.elapsed();
        self.timings.large_scale_sim = wall;
        Ok(self.report_from(metrics, wall, n_clusters))
    }

    /// Phase ❺: the composed large-scale estimate at `n_clusters` on the
    /// in-process engine, with an optional [`FaultPlan`] injected into the
    /// composed simulation.
    pub fn try_estimate(
        &mut self,
        trained: &TrainedMimic,
        n_clusters: u32,
        faults: Option<&FaultPlan>,
    ) -> Result<EstimateReport, PipelineError> {
        self.estimate_partial(trained, n_clusters, faults, &[])
    }

    /// One estimate on the in-process sequential engine, with the
    /// `full_fidelity` clusters kept at packet level and the rest behind
    /// the Mimic fleet.
    fn estimate_partial(
        &mut self,
        trained: &TrainedMimic,
        n_clusters: u32,
        faults: Option<&FaultPlan>,
        full_fidelity: &[u32],
    ) -> Result<EstimateReport, PipelineError> {
        let t0 = Instant::now();
        let mut sim = try_compose_partial(
            self.cfg.base,
            n_clusters,
            self.cfg.protocol,
            trained,
            full_fidelity,
        )?;
        if let Some(plan) = faults {
            sim.set_fault_plan(plan)?;
        }
        if self.obs.is_on() {
            sim.enable_obs();
        }
        self.estimate_via(t0, n_clusters, || Ok(sim.run()))
    }

    /// [`Pipeline::try_estimate`] on the partitioned PDES engine — the same
    /// Mimic fleet, so the same metrics byte for byte at any partition
    /// count — with the full [`PdesRunOpts`] set: checkpoint/resume
    /// (checkpointed, resumed and uninterrupted runs produce bit-identical
    /// metrics at the same partition count), state digests, flight
    /// recorder + SLO dumps, early stop, pinned-generation resume. When
    /// the pipeline's obs collector is on, engine obs is forced on so
    /// digests, flight events, and tier telemetry land in the exported
    /// report.
    pub fn try_estimate_opts(
        &mut self,
        trained: &TrainedMimic,
        n_clusters: u32,
        partitions: usize,
        opts: &PdesRunOpts,
    ) -> Result<EstimateReport, ComposeRunError> {
        let t0 = Instant::now();
        let opts = PdesRunOpts { obs: opts.obs || self.obs.is_on(), ..opts.clone() };
        let (base, protocol) = (self.cfg.base, self.cfg.protocol);
        self.estimate_via(t0, n_clusters, || {
            run_composed_partitioned(base, n_clusters, protocol, trained, partitions, &opts)
        })
    }

    /// Adaptive estimate on the partitioned PDES engine: clusters move
    /// between the Mimic and Flow tiers under `budget` at every `plan`
    /// epoch barrier (see [`run_composed_adaptive`]), with the full
    /// [`PdesRunOpts`] set as in [`Pipeline::try_estimate_opts`]. The
    /// returned report's metrics carry the realized tier schedule in
    /// [`Metrics::tier_switches`](dcn_sim::instrument::Metrics::tier_switches).
    #[allow(clippy::too_many_arguments)]
    pub fn try_estimate_adaptive_opts(
        &mut self,
        trained: &TrainedMimic,
        n_clusters: u32,
        partitions: usize,
        budget: &AccuracyBudget,
        plan: &TierPlan,
        correction: Option<&CorrectionHead>,
        opts: &PdesRunOpts,
    ) -> Result<EstimateReport, ComposeRunError> {
        let t0 = Instant::now();
        let opts = PdesRunOpts { obs: opts.obs || self.obs.is_on(), ..opts.clone() };
        let (base, protocol) = (self.cfg.base, self.cfg.protocol);
        self.estimate_via(t0, n_clusters, || {
            run_composed_adaptive(
                base, n_clusters, protocol, trained, partitions, budget, plan, correction, &opts,
            )
        })
    }

    /// Degradation-aware estimate: run the all-Mimic composition, score
    /// per-cluster drift against `policy`, and — if any cluster crossed
    /// the fallback threshold — re-run with those clusters swapped back to
    /// packet-level simulation. The returned report carries the policy's
    /// [`DegradationReport`] either way.
    pub fn estimate_with_policy(
        &mut self,
        trained: &TrainedMimic,
        n_clusters: u32,
        faults: Option<&FaultPlan>,
        policy: &DegradationPolicy,
    ) -> Result<EstimateReport, PipelineError> {
        let probe = self.try_estimate(trained, n_clusters, faults)?;
        let decision = policy.evaluate(&probe.metrics.cluster_drift);
        let fallback = decision.fallback_clusters();
        let mut report = if fallback.is_empty() {
            probe
        } else {
            // Both passes count towards the estimate's wall clock.
            let mut rerun = self.estimate_partial(trained, n_clusters, faults, &fallback)?;
            rerun.wall += probe.wall;
            self.timings.large_scale_sim = rerun.wall;
            rerun
        };
        report.degradation = Some(decision);
        Ok(report)
    }

    fn report_from(&self, metrics: Metrics, wall: Duration, n_clusters: u32) -> EstimateReport {
        let topo = FatTree::new({
            let mut t = self.cfg.base.topo;
            t.clusters = n_clusters;
            t
        });
        let samples = observed(&metrics, &topo, OBSERVABLE);
        EstimateReport {
            fct_p99: percentile(&samples.fct, 99.0),
            throughput_p99: percentile(&samples.throughput, 99.0),
            rtt_p99: percentile(&samples.rtt, 99.0),
            samples,
            wall,
            metrics,
            degradation: None,
        }
    }

    /// The full-fidelity reference at `n_clusters` (expensive!), with an
    /// optional [`FaultPlan`] injected — the reference for accuracy and
    /// fault-injection experiments.
    pub fn try_ground_truth(
        &self,
        n_clusters: u32,
        faults: Option<&FaultPlan>,
    ) -> Result<(ObservedSamples, Metrics, Duration), PipelineError> {
        let t0 = Instant::now();
        composed_config(self.cfg.base, n_clusters, self.cfg.protocol)?;
        let mut sim = ground_truth(self.cfg.base, n_clusters, self.cfg.protocol);
        if let Some(plan) = faults {
            sim.set_fault_plan(plan)?;
        }
        let metrics = sim.run();
        let wall = t0.elapsed();
        let topo = FatTree::new({
            let mut t = self.cfg.base.topo;
            t.clusters = n_clusters;
            t
        });
        Ok((observed(&metrics, &topo, OBSERVABLE), metrics, wall))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::compare;

    fn quick_cfg() -> PipelineConfig {
        let mut cfg = PipelineConfig::default();
        cfg.base.duration_s = 0.4;
        cfg.base.seed = 12;
        cfg.hidden = 12;
        cfg.train.epochs = 2;
        cfg.train.window = 6;
        cfg
    }

    fn trained(pipe: &mut Pipeline) -> TrainedMimic {
        pipe.try_train(None).expect("training succeeds").0
    }

    #[test]
    fn full_pipeline_end_to_end() {
        let mut pipe = Pipeline::new(quick_cfg());
        let trained = trained(&mut pipe);
        assert!(pipe.timings.small_scale_sim > Duration::ZERO);
        assert!(pipe.timings.training > Duration::ZERO);
        let report = pipe.try_estimate(&trained, 4, None).expect("estimate runs");
        assert!(!report.samples.fct.is_empty(), "no observable FCTs");
        assert!(report.fct_p99 > 0.0);
        assert!(report.rtt_p99 > 0.0);
    }

    #[test]
    fn invalid_training_input_is_a_typed_error() {
        let reject = |edit: fn(&mut PipelineConfig)| {
            let mut cfg = quick_cfg();
            edit(&mut cfg);
            Pipeline::new(cfg).try_train(None).err().expect("training should be rejected")
        };
        let invalid = |e: &PipelineError| matches!(e, PipelineError::InvalidConfig { .. });
        assert!(invalid(&reject(|c| c.train.window = 0)));
        assert!(invalid(&reject(|c| c.train.batch_size = 0)));
        assert!(invalid(&reject(|c| c.layers = 0)));
        assert!(matches!(reject(|c| c.base.duration_s = f64::NAN), PipelineError::Sim(_)));
        // Too short to see a boundary packet: no data, not a panic.
        assert_eq!(
            reject(|c| c.base.duration_s = 0.001),
            PipelineError::Train(TrainError::EmptyDataset)
        );
    }

    #[test]
    fn faulty_estimate_carries_drift_and_policy_decision() {
        use dcn_sim::time::SimTime;
        let mut pipe = Pipeline::new(quick_cfg());
        let trained = trained(&mut pipe);
        // Sustained heavy gray loss across the fabric for most of the run.
        let plan = FaultPlan::new(9).gray_loss_all(
            SimTime::from_secs_f64(0.05),
            SimTime::from_secs_f64(0.35),
            0.25,
            true,
        );
        let policy = DegradationPolicy::default();
        let report = pipe
            .estimate_with_policy(&trained, 4, Some(&plan), &policy)
            .expect("estimate runs");
        let deg = report.degradation.as_ref().expect("policy evaluated");
        assert_eq!(deg.clusters.len(), 4);
        assert!(report.uncertainty_factor() >= 1.0);
        assert!(
            report.metrics.fault_drops > 0,
            "gray loss plan dropped nothing"
        );
        // Fault-free estimate under the same policy degrades nothing.
        let clean = pipe
            .estimate_with_policy(&trained, 4, None, &policy)
            .expect("estimate runs");
        let deg = clean.degradation.as_ref().expect("policy evaluated");
        assert!(
            deg.fallback_clusters().is_empty(),
            "fault-free run fell back: {:?}",
            deg.clusters
        );
    }

    #[test]
    fn validation_beats_trivial_zero_model() {
        // The W1 between MimicNet and ground truth should be finite, and
        // the FCT distributions should overlap substantially: W1 must be
        // well under the truth's mean FCT.
        let mut pipe = Pipeline::new(quick_cfg());
        let trained = trained(&mut pipe);
        let est = pipe.try_estimate(&trained, 3, None).expect("estimate runs");
        let (truth, _, _) = pipe.try_ground_truth(3, None).expect("ground truth runs");
        let report = compare(&truth, &est.samples);
        assert!(report.w1_fct.is_finite());
        let mean_fct = dcn_sim::stats::mean(&truth.fct);
        assert!(
            report.w1_fct < mean_fct,
            "W1 {} vs mean FCT {mean_fct}: approximation is useless",
            report.w1_fct
        );
        assert!(est.wall > Duration::ZERO);
    }
}
