//! The end-to-end MimicNet workflow (paper Figure 3, Table 2).
//!
//! `small-scale simulation → feature extraction → model training →
//! [tuning] → large-scale composition`, with wall-clock accounting per
//! phase. "A key feature of MimicNet is that the traditionally slow steps
//! … are all done at small scale and are, therefore, fast as well."

use crate::compose::{
    composed_config, ground_truth, run_composed_adaptive, run_composed_partitioned, try_compose,
    OBSERVABLE,
};
use crate::datagen::{generate, DataGenConfig, TrainingData};
use crate::drift::FeatureEnvelope;
use crate::error::PipelineError;
use crate::internal_model::InternalModel;
use crate::metrics::{observed, ObservedSamples};
use crate::mimic::{TrainWindow, TrainedMimic};
use crate::tier::{AccuracyBudget, CorrectionHead};
use dcn_sim::config::SimConfig;
use dcn_sim::fault::LossWindow;
use dcn_sim::instrument::Metrics;
use dcn_sim::pdes::{PdesRunOpts, TierPlan};
use dcn_sim::stats::percentile;
use dcn_sim::topology::FatTree;
use dcn_transport::Protocol;
use mimic_ml::model::SeqModel;
use mimic_ml::train::{train, TrainConfig, TrainError};
use std::sync::atomic::{AtomicUsize, Ordering};
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
            datagen_duration_factor: 4.0,
        }
    }
}

impl PipelineConfig {
    /// Train on up to `workers` threads: the pipeline's job queue runs
    /// whole-model trainings (one per direction) concurrently. The result
    /// is bit-identical to the sequential run for any budget; only the
    /// training-phase wall-clock changes.
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
    /// programmatic callers (e.g. divergence localization) can read it.
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
    /// small-scale boundary trace and a diverged loss are typed errors too.
    ///
    /// The ingress and egress models train concurrently on up to
    /// `TrainConfig::workers` threads, bit-identically at any budget.
    pub fn try_train(&mut self) -> Result<(TrainedMimic, TrainingData), PipelineError> {
        let cfgs = std::slice::from_ref(&self.cfg);
        let budget = self.cfg.train.workers;
        let mut out = train_bundles(cfgs, budget, &mut self.obs, &mut self.timings);
        out.pop().expect("one bundle in, one result out")
    }

    /// Train several independent mimic bundles (e.g. one per protocol
    /// under study) on one job queue of at most `workers` threads: every
    /// bundle's data generation, then every (bundle, direction) model,
    /// longest first. Results are bit-identical to training the bundles
    /// one after another at any budget. Bundles come back in `cfgs`
    /// order; the first failing bundle's error (in that order) wins.
    pub fn try_train_bundles(
        cfgs: &[PipelineConfig],
        workers: usize,
    ) -> Result<Vec<TrainedMimic>, PipelineError> {
        let (mut obs, mut timings) = (dcn_obs::Obs::off(), PhaseTimings::default());
        train_bundles(cfgs, workers, &mut obs, &mut timings)
            .into_iter()
            .map(|r| r.map(|(trained, _)| trained))
            .collect()
    }

    /// The shared tail of every estimate: `run` the composed simulation
    /// under a `pipeline.estimate` span, fold its engine-side telemetry
    /// into the pipeline recorder, account the wall clock since `t0` to
    /// the large-scale phase, and summarize the observable cluster.
    fn estimate_via(
        &mut self,
        t0: Instant,
        n_clusters: u32,
        run: impl FnOnce() -> Result<Metrics, PipelineError>,
    ) -> Result<EstimateReport, PipelineError> {
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
    /// in-process engine, with an optional fabric [`LossWindow`] installed
    /// in the composed simulation (it drops packets on the packet-level
    /// fabric links; the Mimics' own drops stay their model's).
    pub fn try_estimate(
        &mut self,
        trained: &TrainedMimic,
        n_clusters: u32,
        loss: Option<&LossWindow>,
    ) -> Result<EstimateReport, PipelineError> {
        let t0 = Instant::now();
        let mut sim = try_compose(self.cfg.base, n_clusters, self.cfg.protocol, trained)?;
        if let Some(&window) = loss {
            sim.set_loss_window(window);
        }
        if self.obs.is_on() {
            sim.enable_diagnostics(true, None);
        }
        self.estimate_via(t0, n_clusters, || Ok(sim.run()))
    }

    /// [`Pipeline::try_estimate`] on the partitioned PDES engine — the same
    /// Mimic fleet, so the same metrics byte for byte at any partition
    /// count — with the full [`PdesRunOpts`] set: state digests, flight
    /// recorder + panic dumps and early stop. When the pipeline's obs
    /// collector is on, full engine diagnostics are forced on so they
    /// land in the exported report.
    pub fn try_estimate_opts(
        &mut self,
        trained: &TrainedMimic,
        n_clusters: u32,
        partitions: usize,
        opts: &PdesRunOpts,
    ) -> Result<EstimateReport, PipelineError> {
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
    ) -> Result<EstimateReport, PipelineError> {
        let t0 = Instant::now();
        let opts = PdesRunOpts { obs: opts.obs || self.obs.is_on(), ..opts.clone() };
        let (base, protocol) = (self.cfg.base, self.cfg.protocol);
        self.estimate_via(t0, n_clusters, || {
            run_composed_adaptive(
                base, n_clusters, protocol, trained, partitions, budget, plan, correction, &opts,
            )
        })
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
        }
    }

    /// The full-fidelity reference at `n_clusters` (expensive!), with an
    /// optional fabric [`LossWindow`] installed — the reference for
    /// accuracy and loss-injection experiments.
    pub fn try_ground_truth(
        &self,
        n_clusters: u32,
        loss: Option<&LossWindow>,
    ) -> Result<(ObservedSamples, Metrics, Duration), PipelineError> {
        let t0 = Instant::now();
        composed_config(self.cfg.base, n_clusters, self.cfg.protocol)?;
        let mut sim = ground_truth(self.cfg.base, n_clusters, self.cfg.protocol);
        if let Some(&window) = loss {
            sim.set_loss_window(window);
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

/// Each bundle's two direction models: span, telemetry prefix and the
/// `Obs` track the job records on.
const DIRECTIONS: [(&str, &str, u32); 2] = [
    ("pipeline.train.ingress", "train.ingress", 1),
    ("pipeline.train.egress", "train.egress", 2),
];

/// Check one bundle's configuration.
fn check_train_config(cfg: &PipelineConfig) -> Result<(), PipelineError> {
    cfg.base.validate()?;
    for (what, n) in [
        ("training window", cfg.train.window),
        ("batch size", cfg.train.batch_size),
        ("LSTM layer count", cfg.layers),
    ] {
        if n < 1 {
            return Err(PipelineError::InvalidConfig {
                reason: format!("{what} must be at least 1, got {n}"),
            });
        }
    }
    Ok(())
}

/// Phases ❶–❷ for every bundle in `cfgs`, on one job queue of at most
/// `budget` threads: phase 1 generates each valid bundle's data, phase 2
/// trains each (bundle, direction) model. Each training job records into
/// a private recorder on its direction's track; the reports merge into
/// `obs` in job-index order (bundle order, ingress before egress), so
/// traced output does not depend on scheduling. One result per bundle,
/// in `cfgs` order.
fn train_bundles(
    cfgs: &[PipelineConfig],
    budget: usize,
    obs: &mut dcn_obs::Obs,
    timings: &mut PhaseTimings,
) -> Vec<Result<(TrainedMimic, TrainingData), PipelineError>> {
    let checked: Vec<_> = cfgs.iter().map(check_train_config).collect();
    let dgs: Vec<DataGenConfig> = cfgs
        .iter()
        .zip(&checked)
        .filter(|(_, ok)| ok.is_ok())
        .map(|(cfg, _)| {
            let mut sim = cfg.base;
            sim.duration_s *= cfg.datagen_duration_factor.max(1.0);
            DataGenConfig {
                sim,
                protocol: cfg.protocol,
                ..DataGenConfig::default()
            }
        })
        .collect();
    let t0 = Instant::now();
    obs.begin("pipeline.datagen", "pipeline", None);
    let mut generated = run_jobs(&vec![0; dgs.len()], budget, &|j| generate(&dgs[j])).into_iter();
    obs.end(None);
    timings.small_scale_sim = t0.elapsed();
    let datas: Vec<Result<TrainingData, PipelineError>> = checked
        .into_iter()
        .map(|ok| {
            ok?;
            let data = generated.next().expect("one datagen job per valid bundle");
            if data.ingress.is_empty() || data.egress.is_empty() {
                return Err(TrainError::EmptyDataset.into());
            }
            Ok(data)
        })
        .collect();

    let t1 = Instant::now();
    let jobs: Vec<_> = cfgs
        .iter()
        .zip(&datas)
        .filter_map(|(cfg, data)| data.as_ref().ok().map(|data| (cfg, data)))
        .flat_map(|(cfg, data)| {
            [(cfg, &data.ingress, data.ingress_disc, 0), (cfg, &data.egress, data.egress_disc, 1)]
        })
        .collect();
    // A job's cost is the samples it steps through.
    let costs: Vec<u64> =
        jobs.iter().map(|(cfg, ds, ..)| (ds.len() * cfg.train.epochs) as u64).collect();
    let obs_on = obs.is_on();
    let mut trained = run_jobs(&costs, budget, &|j| {
        let (cfg, ds, disc, dir) = jobs[j];
        let (span, prefix, track) = DIRECTIONS[dir];
        let mut obs = if obs_on { dcn_obs::Obs::on() } else { dcn_obs::Obs::off() };
        obs.set_track(track);
        obs.begin(span, "pipeline", None);
        let mut model = SeqModel::new_stacked(ds.width(), cfg.hidden, cfg.layers, cfg.train.seed);
        let out = train(&mut model, ds, &cfg.train, &mut obs, prefix)
            .map(|_| InternalModel { model, disc });
        obs.end(None);
        (out, obs.take_report())
    });
    timings.training = t1.elapsed();
    for report in trained.iter_mut().filter_map(|(_, report)| report.take()) {
        obs.merge_report(report);
    }
    let mut models = trained.into_iter().map(|(out, _)| out);
    cfgs.iter()
        .zip(datas)
        .map(|(cfg, data)| {
            let data = data?;
            let (ingress, egress) = (models.next(), models.next());
            let trained = TrainedMimic {
                ingress: ingress.expect("ingress job")?,
                egress: egress.expect("egress job")?,
                feature_cfg: data.feature_cfg,
                feeder: data.feeder.clone(),
                envelope: FeatureEnvelope::fit(&data.ingress.features),
                window: TrainWindow(cfg.train.window),
            };
            Ok((trained, data))
        })
        .collect()
}

/// Run `costs.len()` independent jobs on at most `budget` threads, the
/// calling thread included, and return their results in index order.
///
/// Jobs start longest first — by descending cost, ties by index — and
/// each thread pulls the next one from a shared counter. Which thread
/// runs a job depends on timing; what the job computes does not, since it
/// writes only its own result. With `budget <= 1` or a single job
/// everything runs on the calling thread and no thread is spawned.
fn run_jobs<T: Send>(costs: &[u64], budget: usize, job: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&j| (std::cmp::Reverse(costs[j]), j));
    // Relaxed suffices: the counter only hands out indices, and results
    // come back through `join`, which orders everything a job wrote.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        while let Some(&j) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.push((j, job(j)));
        }
        done
    };
    let threads = budget.min(costs.len());
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        done
    });
    done.sort_unstable_by_key(|&(j, _)| j);
    done.into_iter().map(|(_, out)| out).collect()
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
        pipe.try_train().expect("training succeeds").0
    }

    #[test]
    fn job_queue_returns_index_order_and_runs_each_job_once() {
        // Longest first means start order 2, 0, 3, 1, 4: job 0 ties job 3
        // on cost and wins on index.
        let costs = [5, 1, 9, 5, 0];
        let caller = std::thread::current().id();
        for budget in [0usize, 1, 2, 3, 8] {
            let runs: Vec<AtomicUsize> = costs.iter().map(|_| AtomicUsize::new(0)).collect();
            let out = run_jobs(&costs, budget, &|j| {
                runs[j].fetch_add(1, Ordering::Relaxed);
                (j, std::thread::current().id())
            });
            let order: Vec<usize> = out.iter().map(|&(j, _)| j).collect();
            assert_eq!(order, [0, 1, 2, 3, 4], "budget {budget}");
            assert!(runs.iter().all(|n| n.load(Ordering::Relaxed) == 1), "budget {budget}");
            let threads: std::collections::HashSet<_> = out.iter().map(|&(_, t)| t).collect();
            assert!(threads.len() <= budget.clamp(1, costs.len()), "budget {budget}");
            if budget <= 1 {
                assert!(threads.iter().all(|&t| t == caller), "budget {budget} spawned a thread");
            }
        }
        let started = std::sync::Mutex::new(Vec::new());
        run_jobs(&costs, 1, &|j| started.lock().expect("unpoisoned").push(j));
        assert_eq!(started.into_inner().expect("unpoisoned"), [2, 0, 3, 1, 4]);
        assert!(run_jobs(&[], 4, &|j| j).is_empty());
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
            Pipeline::new(cfg).try_train().err().expect("training should be rejected")
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
